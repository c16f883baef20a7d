//! Process and thread statistics from `/proc/self`.
//!
//! Process CPU comes from `/proc/self/stat` (utime + stime, which also
//! counts threads that have already exited). Per-thread CPU comes from
//! `/proc/self/task/<tid>/schedstat` (nanoseconds on the CPU), sampled
//! while the threads run: shard and recorder threads exit before
//! `run_server` returns, so their last sample is what remains of them.
//! Peak memory is `VmHWM` from `/proc/self/status`.

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`. Linux fixes it
/// at 100 for user space on every architecture this runs on.
pub const USER_HZ: f64 = 100.0;

/// The thread name (`comm`) of a `stat` line: the text between the first
/// `(` and the last `)`, which may itself hold spaces or parentheses.
#[must_use]
pub fn parse_comm(stat: &str) -> Option<&str> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    stat.get(open + 1..close)
}

/// utime + stime of a `stat` line, in clock ticks (fields 14 and 15).
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // After the comm: field 3 (state) is the first token, so utime
    // (field 14) is token 11 and stime (field 15) token 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds on the CPU: the first field of a `schedstat` line.
#[must_use]
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) of a `status` file, in kB.
#[must_use]
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// CPU seconds the whole process has used so far, exited threads included.
#[must_use]
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_cpu_ticks)
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// CPU seconds the calling thread has used so far.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat_ns)
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Peak resident set of the process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vmhwm_kb)
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The role a thread plays, from its (15-character, truncated) name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// `rstp-serve-shard-*` (shown as `rstp-serve-shar`).
    Shard,
    /// `rstp-record-*` flight-recorder writers.
    Recorder,
    /// The benchmark's thread that runs `run_server`'s pump.
    Pump,
    /// The benchmark's own sampler thread.
    Sampler,
    /// The benchmark's extra generator threads (read directly, too).
    Generator,
    /// Anything else (the generator's main thread is read directly).
    Other,
}

/// Thread name of the benchmark's pump thread.
pub const PUMP_THREAD: &str = "bench-pump";
/// Name prefix of the benchmark's extra generator threads.
pub const GEN_THREAD: &str = "bench-gen";
/// Thread name of the benchmark's sampler thread.
pub const SAMPLER_THREAD: &str = "bench-sampler";

/// Classifies a thread by its `comm`.
#[must_use]
pub fn role_of(comm: &str) -> Role {
    if comm.starts_with("rstp-serve-sha") {
        Role::Shard
    } else if comm.starts_with("rstp-record-") {
        Role::Recorder
    } else if comm == PUMP_THREAD {
        Role::Pump
    } else if comm == SAMPLER_THREAD {
        Role::Sampler
    } else if comm.starts_with(GEN_THREAD) {
        Role::Generator
    } else {
        Role::Other
    }
}

/// Last CPU sample of every thread seen, keyed by tid.
type Seen = HashMap<u32, (Role, u64)>;

fn sample_into(seen: &mut Seen) {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let (Ok(stat), Ok(sched)) = (
            fs::read_to_string(path.join("stat")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            // The thread exited between listing and reading: its
            // previous sample stands.
            continue;
        };
        let (Some(comm), Some(ns)) = (parse_comm(&stat), parse_schedstat_ns(&sched)) else {
            continue;
        };
        // A new thread carries its parent's name until it names itself,
        // so the latest name wins.
        let slot = seen.entry(tid).or_insert((Role::Other, 0));
        *slot = (role_of(comm), slot.1.max(ns));
    }
}

/// Samples every thread's CPU at a fixed period until stopped.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<Seen>>,
    handle: JoinHandle<()>,
}

/// CPU seconds per thread role, as sampled over one round.
#[derive(Clone, Debug, Default)]
pub struct RoleCpu {
    secs: HashMap<Role, f64>,
}

impl RoleCpu {
    /// CPU seconds sampled for `role`.
    #[must_use]
    pub fn get(&self, role: Role) -> f64 {
        self.secs.get(&role).copied().unwrap_or(0.0)
    }
}

impl ThreadSampler {
    /// Starts sampling every `period`. Threads alive at start are
    /// ignored, so a round's figures hold only threads it created.
    ///
    /// # Errors
    ///
    /// When the sampler thread cannot be spawned.
    pub fn start(period: Duration) -> std::io::Result<ThreadSampler> {
        let mut before = Seen::new();
        sample_into(&mut before);
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(Seen::new()));
        let (stop2, seen2) = (stop.clone(), seen.clone());
        let handle = thread::Builder::new()
            .name(SAMPLER_THREAD.into())
            .spawn(move || loop {
                let done = stop2.load(Ordering::Relaxed);
                let mut local = Seen::new();
                sample_into(&mut local);
                {
                    let mut seen = seen2.lock().unwrap_or_else(PoisonError::into_inner);
                    for (tid, (role, ns)) in local {
                        if before.contains_key(&tid) {
                            continue;
                        }
                        let slot = seen.entry(tid).or_insert((role, 0));
                        *slot = (role, slot.1.max(ns));
                    }
                }
                if done {
                    break;
                }
                thread::sleep(period);
            })?;
        Ok(ThreadSampler { stop, seen, handle })
    }

    /// Takes a last sample, stops the thread and sums CPU per role.
    #[must_use]
    pub fn finish(self) -> RoleCpu {
        self.stop.store(true, Ordering::Relaxed);
        // A panicked sampler only loses samples; the figures it kept stand.
        let _ = self.handle.join();
        let seen = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = RoleCpu::default();
        for (role, ns) in seen.values() {
            *out.secs.entry(*role).or_insert(0.0) += *ns as f64 / 1e9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (rstp-serve-shar) S 4200 4200 4100 0 -1 4194368 \
                        120 0 0 0 731 52 0 0 20 0 6 0 106347 2703360 313 \
                        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_is_utime_plus_stime() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 52));
        assert_eq!(parse_comm(STAT), Some("rstp-serve-shar"));
    }

    #[test]
    fn comm_with_spaces_and_parentheses_does_not_shift_fields() {
        let odd = "7 (a) b (c)) R 1 1 1 0 -1 0 0 0 0 0 9 4 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_comm(odd), Some("a) b (c)"));
        assert_eq!(parse_stat_cpu_ticks(odd), Some(13));
    }

    #[test]
    fn truncated_stat_yields_none() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn schedstat_first_field_is_nanoseconds() {
        assert_eq!(
            parse_schedstat_ns("581819713 8591197 58\n"),
            Some(581_819_713)
        );
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn vmhwm_is_read_in_kilobytes() {
        let status =
            "Name:\tservebench\nVmPeak:\t  20000 kB\nVmHWM:\t    1828 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(1828));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn roles_follow_truncated_thread_names() {
        assert_eq!(role_of("rstp-serve-shar"), Role::Shard);
        assert_eq!(role_of("rstp-record-3"), Role::Recorder);
        assert_eq!(role_of(PUMP_THREAD), Role::Pump);
        assert_eq!(role_of(SAMPLER_THREAD), Role::Sampler);
        assert_eq!(role_of("bench-gen-1"), Role::Generator);
        assert_eq!(role_of("servebench"), Role::Other);
    }

    #[test]
    fn live_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
