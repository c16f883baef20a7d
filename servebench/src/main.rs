//! `servebench` — the served-path benchmark of `rstp-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload beta-mem-ladder --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Every session's transmitter runs in the generator, at most one thread
//! per processor; the server runs `run_server` on a timing transport. Each run checks its own output
//! and prints, as its last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `servebench/README.md` for the workloads and every metric.

mod check;
mod gen;
mod ladder;
mod layers;
mod probe;
mod procstat;
mod round;
mod stats;

use ladder::{Search, Verdict};
use procstat::Role;
use round::{Ctx, Round};
use rstp_core::TimingParams;
use rstp_net::LatencyHistogram;
use rstp_sim::ProtocolKind;
use stats::{per, MicrosHist, Tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Wall-clock length of one tick (the in-process swarm's default).
const TICK: Duration = Duration::from_micros(200);
/// Messages per session.
const N: usize = 512;
/// Alphabet size of every workload (the E2/E3 `k = 4` column).
const K: u64 = 4;
/// Server shards, capped by the host's processor count.
const SHARDS: usize = 2;
/// Generator threads, capped by the host's processor count.
const GEN_THREADS: usize = 2;
/// The generator keeps its schedule while this quantile of its step
/// lateness stays within one step gap (c2·tick). Not p99: on a shared
/// virtual machine p99 measures the hypervisor. An idle thread's p99
/// sleep lateness there ranged from 0.13 ms to 1.5 ms from one minute to
/// the next, while its p90 stayed near 0.1 ms.
const LATE_QUANTILE: f64 = 0.9;
/// A session is conformant while its tail effort ratio stays within this.
const TAIL_RATIO_LIMIT: f64 = 1.10;
/// Sessions on `stenning-udp-steady`: the fewest that leave ten sessions
/// beyond p90, so the tail is read at p90 rather than at the median. On a
/// 2-CPU host the generator keeps its schedule here (p90 lateness about
/// 200 µs); at 128 sessions it did not on half the rounds.
const STENNING_SESSIONS: usize = 100;
/// Sessions on `beta-mem-recorded`, fixed once on a 2-CPU host. Half the
/// ladder's knee (about 870) would need about 2.5 processors there once
/// the recorder's CPU is added; at this count the host keeps up.
const RECORDED_SESSIONS: usize = 256;
/// The ladder's search.
const SEARCH: Search = Search {
    start: 128,
    factor: 2.0,
    max: 16_384,
    resolution: 0.05,
};
/// A later search starts at this share of the highest knee so far.
const RECLIMB_START: f64 = 0.8;
/// Sessions of the ladder's unmeasured round that grows the heap before
/// the climb (a little over twice the knee measured on a 2-CPU host).
const HEAP_WARMUP: usize = 2048;
/// Rounds that give the ladder's server CPU per message, after each
/// knee search, so that they sample the whole run rather than its end…
const CPU_ROUNDS_PER_SEARCH: usize = 2;
/// …and at least this many in all…
const CPU_ROUNDS: usize = 3;
/// …at this many sessions: half the knee measured on a 2-CPU host
/// (about 870), fixed once.
const CPU_SESSIONS: usize = 432;
/// Time the ladder keeps for topping those rounds up after its last
/// search.
const CPU_RESERVE: Duration = Duration::from_secs(1);
/// Longest the ladder keeps searching when no search has found a knee.
const LADDER_CAP: Duration = Duration::from_secs(140);
/// Trials per rung, of which a majority decides its verdict.
const RUNG_TRIALS: usize = 3;
/// Rounds every fixed-shape run makes at least (two of each kind when
/// traced); also the ladder's fixed-size warm-up rounds before it climbs.
const MIN_ROUNDS: usize = 4;
/// Set-up probes taken before each round of an untraced fixed-shape run;
/// `setup_s` is their median…
const PROBES_PER_ROUND: usize = 3;
/// …and before each round of the ladder, where rounds are more and time
/// goes to the knee searches.
const PROBES_PER_TRIAL: usize = 1;

/// The paper's E2/E3 parameters: c1 = 1, c2 = 2, d = 8.
fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 8).expect("E2/E3 parameters are valid")
}

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
struct Workload {
    name: &'static str,
    kind: ProtocolKind,
    udp: bool,
    record: bool,
    /// `None`: climb the ladder. `Some(m)`: a fixed `m` sessions.
    sessions: Option<usize>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "beta-mem-ladder",
        kind: ProtocolKind::Beta { k: K },
        udp: false,
        record: false,
        sessions: None,
    },
    Workload {
        name: "stenning-udp-steady",
        kind: ProtocolKind::Stenning {
            timeout_steps: None,
        },
        udp: true,
        record: false,
        sessions: Some(STENNING_SESSIONS),
    },
    Workload {
        name: "beta-mem-recorded",
        kind: ProtocolKind::Beta { k: K },
        udp: false,
        record: true,
        sessions: Some(RECORDED_SESSIONS),
    },
];

#[derive(Clone, Copy)]
struct Args {
    /// `None` runs every workload, untraced then traced.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                });
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (a workload name or all)")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// An ordered list of `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self, attempted: usize, failed: usize) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Sums over a set of rounds.
fn total(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(|r| f(r)).sum()
}

fn msgs(rounds: &[&Round]) -> f64 {
    total(rounds, |r| r.msgs as f64)
}

/// The generator's lateness limit: one `c2` step gap.
fn late_limit_us() -> f64 {
    (params().c2().ticks() * TICK.as_micros() as u64) as f64
}

/// Every session delivered `Y = X`, nothing was rejected or overflowed,
/// and the round's tail effort ratio stayed within the limit.
fn conformant(r: &Round) -> bool {
    r.failed == 0
        && r.rejected == 0
        && r.overflow == 0
        && stats::tail(&r.ratios).is_some_and(|t| t.value <= TAIL_RATIO_LIMIT)
}

/// The end-to-end figures. Most are taken per round, then the median over
/// rounds is reported, so a host stall in one round does not move it.
/// Capacity comes from `capacity_rounds`. Server CPU per message is the
/// ratio of sums over `cpu_rounds`: process CPU counts in 10 ms clock
/// ticks, which a single round's figure would not average out. Everything
/// else comes from `rounds`.
fn end_to_end(
    rounds: &[&Round],
    capacity_rounds: &[&Round],
    cpu_rounds: &[&Round],
    setup: &[f64],
    peak_rss_mb: f64,
) -> Result<Metrics, String> {
    let med = |values: Vec<f64>| stats::median(&values).ok_or_else(|| "no round".to_string());
    let tails = rounds
        .iter()
        .map(|r| stats::tail(&r.ratios).ok_or("no delivered session"))
        .collect::<Result<Vec<Tail>, _>>()?;
    if let Some(t) = tails.first() {
        println!(
            "effort_ratio_tail: p{} over {} sessions per round ({} beyond), median of {} rounds",
            t.percentile,
            t.samples,
            t.beyond,
            tails.len()
        );
    }
    let mut m = Metrics::default();
    m.put("setup_s", med(setup.to_vec())?, "s");
    m.put(
        "capacity_sessions",
        med(capacity_rounds.iter().map(|r| r.sessions as f64).collect())?,
        "sessions",
    );
    m.put(
        "capacity_msgs_per_s",
        med(capacity_rounds
            .iter()
            .map(|r| per(r.msgs as f64, r.transfer_s))
            .collect())?,
        "msgs/s",
    );
    m.put(
        "effort_ratio_p50",
        med(rounds
            .iter()
            .map(|r| stats::median(&r.ratios).unwrap_or(f64::NAN))
            .collect())?,
        "ratio",
    );
    m.put(
        "effort_ratio_tail",
        med(tails.iter().map(|t| t.value).collect())?,
        "ratio",
    );
    m.put(
        "server_cpu_us_per_msg",
        per(
            total(cpu_rounds, Round::server_cpu_s) * 1e6,
            msgs(cpu_rounds),
        ),
        "us/msg",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(m)
}

/// The per-layer figures of the traced rounds; `plain` are untraced
/// rounds of the same shape, for the tracing overhead.
fn per_layer(ctx: &Ctx, traced: &[&Round], plain: &[&Round]) -> Result<Metrics, String> {
    let msgs = msgs(traced);
    let sum = |f: &dyn Fn(&Round) -> f64| total(traced, f);
    let g =
        |f: &dyn Fn(&gen::GenReport) -> u64| traced.iter().map(|r| f(&r.gen)).sum::<u64>() as f64;
    let role = |role: Role| sum(&|r| r.roles.as_ref().map_or(0.0, |c| c.get(role)));
    let pool = |f: &dyn Fn(&Round) -> &MicrosHist| {
        let mut all = MicrosHist::default();
        for r in traced {
            all.merge(f(r));
        }
        all
    };
    let late_q = |q: f64| {
        let per_round: Vec<f64> = traced.iter().map(|r| r.late_quantile_us(q)).collect();
        stats::median(&per_round).unwrap_or(0.0)
    };
    let wait = pool(&|r| &r.ingress.wait_us);
    let delay = pool(&|r| &r.egress.delay_us);
    let mut delivery = LatencyHistogram::new();
    for r in traced {
        delivery.merge(&r.delivery);
    }
    let codec = layers::time_codec(K, ctx.params.delta1(), &ctx.inputs)?;
    let cpu_per_msg = |rs: &[&Round]| per(total(rs, |r| r.proc_cpu_s), self::msgs(rs));
    // Extra generator threads are read directly, into `gen_cpu`.
    let gen_cpu = sum(&|r| r.gen_cpu_s);
    let accounted = gen_cpu
        + [
            Role::Shard,
            Role::Recorder,
            Role::Pump,
            Role::Sampler,
            Role::Other,
        ]
        .map(role)
        .iter()
        .sum::<f64>();

    let mut m = Metrics::default();
    m.put(
        "core.tx_step_ns",
        per(g(&|x| x.step_ns), g(&|x| x.steps)),
        "ns",
    );
    m.put("core.tx_steps_per_msg", per(g(&|x| x.steps), msgs), "1/msg");
    m.put("combinatorics.unrank_ns", codec.unrank_ns, "ns");
    m.put("combinatorics.rank_ns", codec.rank_ns, "ns");
    m.put("codec.encode_block_ns", codec.encode_block_ns, "ns");
    m.put("codec.decode_block_ns", codec.decode_block_ns, "ns");
    m.put(
        "wire.encode_ns",
        per(g(&|x| x.encode_ns), g(&|x| x.encodes)),
        "ns",
    );
    m.put(
        "wire.decode_ns",
        per(g(&|x| x.decode_ns), g(&|x| x.decodes)),
        "ns",
    );
    m.put(
        "wheel.schedule_ns",
        per(g(&|x| x.schedule_ns), g(&|x| x.scheduled)),
        "ns",
    );
    m.put(
        "wheel.advance_ns_per_fired",
        per(g(&|x| x.advance_ns), g(&|x| x.fired)),
        "ns",
    );
    m.put(
        "wheel.ops_per_step",
        per(g(&|x| x.scheduled + x.fired), g(&|x| x.steps)),
        "1/step",
    );
    m.put(
        "shard.steps_per_msg",
        per(sum(&|r| r.shard_steps as f64), msgs),
        "1/msg",
    );
    m.put(
        "shard.late_wake_share",
        per(
            sum(&|r| r.shard_misses as f64),
            sum(&|r| r.shard_steps as f64),
        ),
        "share",
    );
    let calls = sum(&|r| r.ingress.calls as f64);
    let frames = sum(&|r| r.ingress.frames as f64);
    m.put("server.recv_calls", per(calls, msgs), "1/msg");
    m.put("server.frames_per_recv", per(frames, calls), "frames/call");
    m.put(
        "server.empty_recv_share",
        per(sum(&|r| r.ingress.empty as f64), calls),
        "share",
    );
    m.put(
        "server.recv_ns_per_frame",
        per(sum(&|r| r.ingress.ns as f64), frames),
        "ns",
    );
    m.put("server.ingress_wait_us_p50", wait.quantile(0.5), "us");
    m.put("server.ingress_wait_us_p99", wait.quantile(0.99), "us");
    m.put(
        "server.cpu_us_per_msg",
        per(role(Role::Pump) * 1e6, msgs),
        "us/msg",
    );
    m.put("server.orphan_frames", sum(&|r| r.orphans as f64), "count");
    m.put(
        "server.decode_errors",
        sum(&|r| r.decode_errors as f64),
        "count",
    );
    m.put("server.rejected", sum(&|r| r.rejected as f64), "count");
    m.put(
        "transport.send_ns",
        per(g(&|x| x.send_ns), g(&|x| x.sends)),
        "ns",
    );
    m.put(
        "transport.poll_ns",
        per(g(&|x| x.poll_ns), g(&|x| x.polls)),
        "ns",
    );
    m.put(
        "transport.empty_poll_share",
        per(g(&|x| x.empty_polls), g(&|x| x.polls)),
        "share",
    );
    let batches = sum(&|r| r.egress.batches as f64);
    let out_frames = sum(&|r| r.egress.frames as f64);
    m.put("shard.egress_batches", per(batches, msgs), "1/msg");
    m.put(
        "shard.frames_per_batch",
        per(out_frames, batches),
        "frames/call",
    );
    m.put(
        "shard.egress_ns_per_frame",
        per(sum(&|r| r.egress.ns as f64), out_frames),
        "ns",
    );
    m.put(
        "shard.egress_shipped_share",
        per(sum(&|r| r.egress.shipped as f64), out_frames),
        "share",
    );
    m.put("shard.egress_delay_us_p50", delay.quantile(0.5), "us");
    m.put("shard.egress_delay_us_p99", delay.quantile(0.99), "us");
    m.put(
        "shard.cpu_us_per_msg",
        per(role(Role::Shard) * 1e6, msgs),
        "us/msg",
    );
    m.put(
        "shard.frames_received_per_msg",
        per(sum(&|r| r.shard_frames_received as f64), msgs),
        "1/msg",
    );
    m.put(
        "shard.frames_sent_per_msg",
        per(sum(&|r| r.shard_frames_sent as f64), msgs),
        "1/msg",
    );
    m.put(
        "shard.ingress_overflow",
        sum(&|r| r.overflow as f64),
        "count",
    );
    m.put(
        "shard.delivery_us_p50",
        delivery.quantile_interp_micros(0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "shard.delivery_us_p99",
        delivery.quantile_interp_micros(0.99).unwrap_or(0.0),
        "us",
    );
    let events = sum(&|r| r.rec_events as f64);
    let shed = sum(&|r| r.rec_shed as f64);
    m.put("record.events_per_msg", per(events, msgs), "1/msg");
    m.put("record.shed_share", per(shed, events + shed), "share");
    m.put(
        "record.bytes_per_msg",
        per(sum(&|r| r.rec_bytes as f64), msgs),
        "B/msg",
    );
    m.put(
        "record.cpu_us_per_msg",
        per(role(Role::Recorder) * 1e6, msgs),
        "us/msg",
    );
    m.put("gen.late_us_p50", late_q(0.5), "us");
    m.put("gen.late_us_p99", late_q(0.99), "us");
    m.put("gen.cpu_us_per_msg", per(gen_cpu * 1e6, msgs), "us/msg");
    m.put(
        "trace.overhead_cpu_share",
        per(cpu_per_msg(traced) - cpu_per_msg(plain), cpu_per_msg(plain)),
        "share",
    );
    m.put(
        "threads.unaccounted_cpu_share",
        per(sum(&|r| r.proc_cpu_s) - accounted, sum(&|r| r.proc_cpu_s)),
        "share",
    );
    Ok(m)
}

/// Prints one line per round so a reader can follow the run.
fn log_round(label: &str, r: &Round) {
    let tail = stats::tail(&r.ratios).map_or(f64::NAN, |t| t.value);
    println!(
        "{label} sessions={} failed={} overflow={} rejected={} msgs={} transfer_s={:.3} \
         setup_ms={:.2} ratio_tail={tail:.4} gen_late_p90_us={:.0} gen_late_p99_us={:.0} \
         server_cpu_s={:.3}{}",
        r.sessions,
        r.failed,
        r.overflow,
        r.rejected,
        r.msgs,
        r.transfer_s,
        r.setup_s * 1e3,
        r.late_quantile_us(0.9),
        r.late_quantile_us(0.99),
        r.server_cpu_s(),
        if r.traced { " traced" } else { "" },
    );
}

struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
}

/// A fixed-shape workload: rounds until the time is up. Untraced runs
/// report the end-to-end metrics; traced runs alternate untraced and
/// traced rounds and report the per-layer metrics. Rounds on which the
/// generator missed its own schedule are left out of every figure, and
/// the run fails when they are the majority.
fn run_fixed(ctx: &mut Ctx, sessions: usize, args: &Args) -> Result<Outcome, String> {
    let mut probes = SetupProbes::new(sessions);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        let traced = args.trace && rounds.len() % 2 == 1;
        if !args.trace {
            probes.take(ctx, PROBES_PER_ROUND)?;
        }
        let r = round::run_round(ctx, sessions, traced)?;
        log_round("round", &r);
        if r.failed > 0 {
            return Err(format!(
                "{} of {} sessions failed on a fixed-shape round",
                r.failed, r.sessions
            ));
        }
        rounds.push(r);
        if rounds.len() == MIN_ROUNDS {
            // The peak of the first rounds: read at the end of the run it
            // would be the worst of dozens of rounds, set by the rarest
            // scheduler stall rather than by the workload.
            peak_rss_mb = procstat::peak_rss_mb();
        }
    }
    let attempted = rounds.iter().map(|r| r.sessions).sum();
    let kept = on_schedule(&rounds)?;
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = kept.into_iter().partition(|r| r.traced);
    let metrics = if args.trace {
        if traced.is_empty() || plain.is_empty() {
            return Err("no traced or no untraced round kept its schedule".into());
        }
        per_layer(ctx, &traced, &plain)?
    } else {
        end_to_end(&plain, &plain, &plain, probes.samples()?, peak_rss_mb)?
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed: 0,
    })
}

/// Set-up probes spread over an untraced run (see
/// [`round::measure_setup`]). One set-up is a fraction of a millisecond of
/// thread spawns and admission, and the host's wake-up latency moves it
/// from one second to the next: probes taken in one burst at the start of
/// a run disagreed by up to a factor of two between runs. Taken before
/// every round, they sample the whole run.
struct SetupProbes {
    /// The session count every probe admits.
    sessions: usize,
    samples: Vec<f64>,
    attempts: usize,
}

impl SetupProbes {
    fn new(sessions: usize) -> Self {
        SetupProbes {
            sessions,
            samples: Vec::new(),
            attempts: 0,
        }
    }

    /// Takes `count` probes.
    fn take(&mut self, ctx: &mut Ctx, count: usize) -> Result<(), String> {
        for _ in 0..count {
            self.attempts += 1;
            self.samples
                .extend(round::measure_setup(ctx, self.sessions)?);
        }
        Ok(())
    }

    /// Every probe that reached the pump's first ingress call; fails when
    /// most did not.
    fn samples(&self) -> Result<&[f64], String> {
        if self.samples.is_empty() || self.samples.len() * 2 < self.attempts {
            return Err(format!(
                "{} of {} set-up probes never reached the pump's first ingress call",
                self.attempts - self.samples.len(),
                self.attempts
            ));
        }
        println!(
            "setup: median {:.3} ms over {} probes at {} sessions",
            stats::median(&self.samples).unwrap_or(f64::NAN) * 1e3,
            self.samples.len(),
            self.sessions
        );
        Ok(&self.samples)
    }
}

/// Whether the generator missed its own schedule on a round: the
/// [`LATE_QUANTILE`] of its step lateness exceeded one step gap.
fn generator_bound(r: &Round) -> bool {
    r.late_quantile_us(LATE_QUANTILE) > late_limit_us()
}

/// The rounds on which the generator kept its schedule. Prints how late
/// it ran; fails when it missed its schedule on most rounds, because then
/// the host, not the server, set the pace.
fn on_schedule(rounds: &[Round]) -> Result<Vec<&Round>, String> {
    let med = |q: f64| {
        let v: Vec<f64> = rounds.iter().map(|r| r.late_quantile_us(q)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let kept: Vec<&Round> = rounds.iter().filter(|r| !generator_bound(r)).collect();
    println!(
        "generator lateness: median p90 {:.0} us, p99 {:.0} us over {} rounds; {} rounds \
         kept p{:.0} within the {:.0} us limit and are reported",
        med(0.9),
        med(0.99),
        rounds.len(),
        kept.len(),
        LATE_QUANTILE * 100.0,
        late_limit_us(),
    );
    if kept.len() * 2 < rounds.len() {
        return Err(format!(
            "the generator missed its own schedule on {} of {} rounds",
            rounds.len() - kept.len(),
            rounds.len()
        ));
    }
    Ok(kept)
}

/// Classifies one ladder rung by majority over up to [`RUNG_TRIALS`]
/// trials, stopping as soon as one verdict has the majority: near the
/// knee single trials disagree, and a majority decides where a rung
/// passes half the time.
fn probe_rung(
    ctx: &mut Ctx,
    n: usize,
    best: &mut Option<Round>,
    probes: &mut SetupProbes,
) -> Result<Verdict, String> {
    let need = RUNG_TRIALS / 2 + 1;
    let (mut passed, mut failed, mut kept) = (0, Vec::new(), None);
    while passed < need && failed.len() < need {
        probes.take(ctx, PROBES_PER_TRIAL)?;
        let r = round::run_round(ctx, n, false)?;
        let verdict = if generator_bound(&r) {
            Verdict::GeneratorBound
        } else if conformant(&r) {
            Verdict::Conformant
        } else {
            Verdict::Failed
        };
        log_round(&format!("rung {verdict:?}"), &r);
        if verdict == Verdict::Conformant {
            passed += 1;
            kept = Some(r);
        } else {
            failed.push(verdict);
        }
    }
    Ok(if passed >= need {
        if best.as_ref().is_none_or(|k| k.sessions < n) {
            *best = kept;
        }
        Verdict::Conformant
    } else if failed.contains(&Verdict::Failed) {
        Verdict::Failed
    } else {
        Verdict::GeneratorBound
    })
}

/// The ladder (untraced): fixed-size warm-up rounds, then knee searches
/// until the time is up (at least one). The capacity is the highest knee,
/// the largest session count found conformant: host noise pulls a
/// search's knee down far more often than up (a burst makes the generator
/// late, and the rung counts as generator-bound), so the highest of the
/// run's knees is its steadiest reading. Server CPU per message is read
/// below the knee.
fn run_ladder(ctx: &mut Ctx, args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let cap_at = start + LADDER_CAP;
    let mut probes = SetupProbes::new(CPU_SESSIONS);
    for _ in 0..MIN_ROUNDS {
        probes.take(ctx, PROBES_PER_TRIAL)?;
        let r = round::run_round(ctx, SEARCH.start, false)?;
        log_round("warmup", &r);
        if r.failed > 0 {
            return Err(format!("{} sessions failed on a warm-up round", r.failed));
        }
    }
    let peak_rss_mb = procstat::peak_rss_mb();
    // Grow the heap to the size the climb will need before measuring:
    // otherwise the first large rungs pay the allocator's first-touch
    // page faults and the first search finds a lower knee than the rest.
    let r = round::run_round(ctx, HEAP_WARMUP, false)?;
    log_round("heap-warmup", &r);

    let mut knees: Vec<Round> = Vec::new();
    let mut below: Vec<Round> = Vec::new();
    let mut search = SEARCH;
    loop {
        let began = Instant::now();
        let mut best = None;
        let found = ladder::find_knee(search, |n| probe_rung(ctx, n, &mut best, &mut probes))?;
        for _ in 0..CPU_ROUNDS_PER_SEARCH {
            below.push(below_knee(ctx, &mut probes)?);
        }
        let (Some(knee), Some(best)) = (found, best) else {
            // Not even the first rung passed, which on a shared host
            // means the host, not the load, held the generator up. Climb
            // from the bottom next time; keep trying past the deadline
            // (up to a cap) until one search finds a knee.
            println!("search from {} found no conformant rung", search.start);
            search = SEARCH;
            let cap = if knees.is_empty() { cap_at } else { deadline };
            if Instant::now() + began.elapsed() + CPU_RESERVE > cap {
                if knees.is_empty() {
                    return Err("no conformant rung: the generator never kept its schedule".into());
                }
                break;
            }
            continue;
        };
        println!(
            "knee: capacity={} above={:?} probes={} search_s={:.1}",
            knee.capacity,
            knee.above,
            knee.probes.len(),
            began.elapsed().as_secs_f64()
        );
        if best.sessions != knee.capacity {
            return Err("the knee round does not match the knee".into());
        }
        knees.push(best);
        // Later searches start just below the highest knee found so far,
        // so they need fewer rungs, and one search that a burst of host
        // noise stopped early does not drag the next ones down with it.
        let highest = knees.iter().map(|r| r.sessions).max().unwrap_or(0);
        search = Search {
            start: ((highest as f64 * RECLIMB_START) as usize).max(SEARCH.start),
            ..SEARCH
        };
        if Instant::now() + began.elapsed() + CPU_RESERVE > deadline {
            break;
        }
    }
    let capacities: Vec<usize> = knees.iter().map(|r| r.sessions).collect();
    println!("knees: {capacities:?}");
    let top = knees
        .iter()
        .max_by_key(|r| r.sessions)
        .ok_or("no conformant rung")?;
    // Top up the rounds below the knee when few searches ran.
    let mut extra = 0;
    while below.iter().filter(|r| !generator_bound(r)).count() < CPU_ROUNDS
        && extra < 2 * CPU_ROUNDS
    {
        below.push(below_knee(ctx, &mut probes)?);
        extra += 1;
    }
    let below_refs = on_schedule(&below)?;
    let knee_refs: Vec<&Round> = knees.iter().collect();
    Ok(Outcome {
        metrics: end_to_end(
            &knee_refs,
            &[top],
            &below_refs,
            probes.samples()?,
            peak_rss_mb,
        )?,
        attempted: knees.iter().map(|r| r.sessions).sum(),
        failed: knees.iter().map(|r| r.failed).sum(),
    })
}

/// One round at [`CPU_SESSIONS`], for the ladder's server CPU per
/// message. At the knee the host's processors saturate, so CPU per
/// message there mostly measures contention; it is read below the knee,
/// at a fixed count so that the knee's own noise does not move it.
fn below_knee(ctx: &mut Ctx, probes: &mut SetupProbes) -> Result<Round, String> {
    probes.take(ctx, PROBES_PER_TRIAL)?;
    let r = round::run_round(ctx, CPU_SESSIONS, false)?;
    log_round("below-knee", &r);
    if r.failed > 0 {
        return Err(format!("{} sessions failed below the knee", r.failed));
    }
    Ok(r)
}

fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = nproc.min(SHARDS);
    let gen_threads = nproc.min(GEN_THREADS);
    let record_root = w
        .record
        .then(|| PathBuf::from(".servebench-tmp").join(format!("rec-{}", std::process::id())));
    println!(
        "workload={} protocol={} n={N} tick_us={} nproc={nproc} shards={shards} \
         generator_threads={gen_threads} seed={} seconds={} trace={}",
        w.name,
        w.kind.name(),
        TICK.as_micros(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ctx = Ctx::new(
        w.kind,
        params(),
        TICK,
        N,
        shards,
        gen_threads,
        w.udp,
        record_root.clone(),
        args.seed,
    );
    let outcome = match (w.sessions, args.trace) {
        (None, false) => run_ladder(&mut ctx, args),
        // The ladder's per-layer figures come from the shape its server
        // CPU is read at: below the knee, where every round is expected
        // to deliver and tracing cannot push it over.
        (None, true) => run_fixed(&mut ctx, CPU_SESSIONS, args),
        (Some(m), _) => run_fixed(&mut ctx, m, args),
    };
    if let Some(root) = &record_root {
        // Best effort: a failed run may have left a round's directory.
        let _ = std::fs::remove_dir_all(root);
        let _ = std::fs::remove_dir(".servebench-tmp");
    }
    outcome
}

/// Runs one workload and prints its metric table; returns the result
/// line.
fn run_one(w: Workload, args: &Args) -> Result<String, String> {
    let o = run(w, args)?;
    for (name, value, unit) in &o.metrics.0 {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!("failed_share: {} of {} sessions", o.failed, o.attempted);
    o.metrics.json(o.attempted, o.failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => run_one(w, &args),
        // Every workload, each untraced (end-to-end metrics) and then
        // traced (per-layer metrics); the last line is the last run's.
        None => WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .try_fold(String::new(), |_, (w, trace)| {
                let line = run_one(w, &Args { trace, ..args })?;
                println!("{line}");
                Ok(line)
            }),
    };
    match result {
        Ok(line) => {
            if args.workload.is_some() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round whose generator ran `late_us` behind on every step.
    fn round_late(late_us: u64) -> Round {
        let mut r = Round::default();
        for _ in 0..100 {
            r.gen.late_us.record(late_us);
        }
        r
    }

    #[test]
    fn generator_bound_rounds_are_left_out() {
        let limit = late_limit_us() as u64;
        let rounds = [round_late(50), round_late(limit + 100), round_late(120)];
        let kept = on_schedule(&rounds).expect("most rounds kept the schedule");
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|r| !generator_bound(r)));
    }

    #[test]
    fn a_run_whose_generator_mostly_missed_its_schedule_fails() {
        let limit = late_limit_us() as u64;
        let rounds = [round_late(50), round_late(limit + 1), round_late(2 * limit)];
        assert!(on_schedule(&rounds).is_err());
    }
}
