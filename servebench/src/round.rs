//! One round: spawn the server on a timing transport, drive every
//! session from the generator, join, and check the output.

use crate::check::{self, Fault};
use crate::gen::{self, GenReport, Port};
use crate::probe::{EgressTotals, IngressTotals, Shared, TimedTransport};
use crate::procstat::{self, RoleCpu, ThreadSampler, GEN_THREAD, PUMP_THREAD};
use crate::stats;
use rstp_automata::Automaton;
use rstp_core::protocols::{BetaTransmitter, StenningTransmitter};
use rstp_core::{Message, RstpAction, SessionId, TimingParams};
use rstp_net::{codec_for, LatencyHistogram, NetError, Pace, TickClock, WireCodec};
use rstp_serve::{
    run_server, MemHub, ServeConfig, ServeReport, ServeTransport, SessionSpec, UdpServerTransport,
};
use rstp_sim::harness::{random_input, run_configured, RunConfig};
use rstp_sim::ProtocolKind;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sessions start at a seeded tick within this window after the go tick.
pub const ARRIVAL_TICKS: u64 = 64;
/// How often the traced sampler reads per-thread CPU.
const SAMPLE_PERIOD: Duration = Duration::from_millis(5);
/// Sessions cross-checked against the simulator oracle per round.
const ORACLE_SAMPLE: usize = 2;
/// A set-up probe's server stops after this long (from its clock's start).
const PROBE_WALL: Duration = Duration::from_millis(10);

/// A small, seedable generator (SplitMix64) for arrivals and samples.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Run-wide settings and the per-session inputs, built once per run.
pub struct Ctx {
    /// Protocol of every session.
    pub kind: ProtocolKind,
    /// `(c1, c2, d)` in ticks.
    pub params: TimingParams,
    /// Wall-clock length of a tick.
    pub tick: Duration,
    /// Messages per session.
    pub n: usize,
    /// Server shards.
    pub shards: usize,
    /// Generator threads (each with its own port).
    pub gen_threads: usize,
    /// Carry traffic over UDP loopback instead of the in-process hub.
    pub udp: bool,
    /// Parent directory for flight recordings (`None`: recording off).
    pub record_root: Option<PathBuf>,
    /// The run's seed.
    pub seed: u64,
    /// Session `i`'s input `X`, shared by every round.
    pub inputs: Vec<Vec<Message>>,
    /// Session `i`'s simulated effort (ticks/msg) on its input.
    pub sim_effort: Vec<f64>,
    rounds: u64,
    probes: u64,
}

impl Ctx {
    /// A context with no inputs yet.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: ProtocolKind,
        params: TimingParams,
        tick: Duration,
        n: usize,
        shards: usize,
        gen_threads: usize,
        udp: bool,
        record_root: Option<PathBuf>,
        seed: u64,
    ) -> Self {
        Ctx {
            kind,
            params,
            tick,
            n,
            shards,
            gen_threads,
            udp,
            record_root,
            seed,
            inputs: Vec::new(),
            sim_effort: Vec::new(),
            rounds: 0,
            probes: 0,
        }
    }

    fn tick_micros(&self) -> u64 {
        u64::try_from(self.tick.as_micros()).unwrap_or(1).max(1)
    }

    /// Makes inputs and simulator references for the first `sessions`
    /// sessions. Runs outside every timed interval.
    ///
    /// # Errors
    ///
    /// A simulator failure.
    pub fn ensure_sessions(&mut self, sessions: usize) -> Result<(), String> {
        let mut rng = Rng::new(self.seed ^ 0x5E55_1045);
        for _ in 0..self.inputs.len() {
            rng.next_u64();
        }
        while self.inputs.len() < sessions {
            let input = random_input(self.n, rng.next_u64());
            let cfg = RunConfig {
                kind: self.kind,
                params: self.params,
                record_trace: false,
                ..RunConfig::default()
            };
            let out = run_configured(&cfg, &input).map_err(|e| format!("simulator: {e}"))?;
            let effort = out
                .metrics
                .learn_effort(self.n)
                .ok_or("simulator run wrote nothing")?;
            self.inputs.push(input);
            self.sim_effort.push(effort);
        }
        Ok(())
    }

    /// The largest simulated transfer, in ticks.
    fn max_sim_ticks(&self, sessions: usize) -> f64 {
        self.sim_effort
            .iter()
            .take(sessions)
            .fold(0.0_f64, |a, &b| a.max(b))
            * self.n as f64
    }
}

/// Everything one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Sessions planned.
    pub sessions: usize,
    /// Sessions that were rejected, incomplete, short or wrong.
    pub failed: usize,
    /// Sessions whose output was not a prefix of their input.
    pub not_prefix: usize,
    /// Served ÷ simulated effort, per delivered session.
    pub ratios: Vec<f64>,
    /// Messages written at the server.
    pub msgs: u64,
    /// Go tick → last write, in seconds.
    pub transfer_s: f64,
    /// Run start → the pump's first ingress call, in seconds.
    pub setup_s: f64,
    /// Process CPU over the round, in seconds.
    pub proc_cpu_s: f64,
    /// Generator-thread CPU over the round, in seconds.
    pub gen_cpu_s: f64,
    /// Per-role thread CPU (traced rounds only).
    pub roles: Option<RoleCpu>,
    /// The generator's own figures.
    pub gen: GenReport,
    /// Pump ingress figures (traced rounds only).
    pub ingress: IngressTotals,
    /// Shard egress figures (traced rounds only).
    pub egress: EgressTotals,
    /// Merged shard delivery-latency histogram.
    pub delivery: LatencyHistogram,
    /// Σ shard steps.
    pub shard_steps: u64,
    /// Σ shard deadline misses.
    pub shard_misses: u64,
    /// Σ frames the shards received.
    pub shard_frames_received: u64,
    /// Σ frames the shards sent.
    pub shard_frames_sent: u64,
    /// Σ ingress-queue overflow drops.
    pub overflow: u64,
    /// Sessions rejected at admission.
    pub rejected: u64,
    /// Frames for no admitted session.
    pub orphans: u64,
    /// Frames that failed strict decoding at the pump.
    pub decode_errors: u64,
    /// Flight-recorder events accepted.
    pub rec_events: u64,
    /// Flight-recorder events shed.
    pub rec_shed: u64,
    /// Bytes the recording took on disk.
    pub rec_bytes: u64,
    /// Whether the round ran traced.
    pub traced: bool,
}

impl Round {
    /// No frame was lost on the way: no rejection, overflow or decode
    /// error. On such a round every output must be a prefix of its input.
    #[must_use]
    pub fn lossless(&self) -> bool {
        self.rejected == 0 && self.overflow == 0 && self.decode_errors == 0
    }

    /// Server CPU: process CPU minus the benchmark's own threads.
    #[must_use]
    pub fn server_cpu_s(&self) -> f64 {
        let sampler = self
            .roles
            .as_ref()
            .map_or(0.0, |r| r.get(procstat::Role::Sampler));
        self.proc_cpu_s - self.gen_cpu_s - sampler
    }

    /// The generator's lateness at quantile `q`, in µs.
    #[must_use]
    pub fn late_quantile_us(&self, q: f64) -> f64 {
        self.gen.late_us.quantile(q)
    }
}

/// The pump thread: the server's result and what its ingress calls saw.
type PumpHandle = JoinHandle<(Result<ServeReport, NetError>, IngressTotals)>;

/// Spawns the pump thread running `run_server` over the timing wrapper.
/// It raises `stop` when the server returns.
fn spawn_pump<T: ServeTransport + Send + 'static>(
    fabric: T,
    shared: Arc<Shared>,
    clock: TickClock,
    specs: Vec<SessionSpec>,
    config: ServeConfig,
    traced: bool,
    stop: Arc<AtomicBool>,
) -> Result<PumpHandle, String> {
    thread::Builder::new()
        .name(PUMP_THREAD.into())
        .spawn(move || {
            let mut transport = TimedTransport::new(fabric, shared, clock, traced);
            let result = run_server(&mut transport, clock, &specs, &config);
            stop.store(true, Ordering::Relaxed);
            (result, transport.ingress().clone())
        })
        .map_err(|e| format!("spawn pump: {e}"))
}

/// Bytes held by the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The server's configuration for `sessions` sessions, stopped at
/// `max_wall`; with recording on, also a fresh recording directory
/// `name` under the run's recording root.
fn serve_config(
    ctx: &Ctx,
    sessions: usize,
    max_wall: Duration,
    name: &str,
) -> Result<(ServeConfig, Option<PathBuf>), String> {
    let config = ServeConfig::new(ctx.params, ctx.tick)
        .with_shards(ctx.shards)
        .with_queue_cap((sessions * 32).max(256))
        .with_max_sessions(sessions)
        .with_max_wall(max_wall);
    match &ctx.record_root {
        Some(root) => {
            let dir = root.join(name);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok((config.with_record(&dir), Some(dir)))
        }
        None => Ok((config, None)),
    }
}

/// A server started on the timing transport, and the generator's ports.
struct Started {
    pump: PumpHandle,
    /// One per generator thread.
    ports: Vec<Port>,
    /// Sessions per port (the last may hold fewer).
    chunk: usize,
    shared: Arc<Shared>,
    /// Raised when the server returns.
    stop: Arc<AtomicBool>,
    clock: TickClock,
    /// Start → the pump's first ingress call, in seconds; `None` when the
    /// server returned before making one.
    setup_s: Option<f64>,
}

/// Set-up, as every round pays it: starts the clock, opens one port per
/// generator thread, spawns the server for `sessions` sessions and waits
/// for the pump's first ingress call.
fn start(ctx: &Ctx, sessions: usize, config: ServeConfig, traced: bool) -> Result<Started, String> {
    let codec: WireCodec = codec_for(ctx.kind).map_err(|e| e.to_string())?;
    let specs: Vec<SessionSpec> = (1..=sessions)
        .map(|i| SessionSpec {
            id: SessionId::new(u32::try_from(i).unwrap_or(u32::MAX)),
            kind: ctx.kind,
            n: ctx.n,
        })
        .collect();
    let shared = Arc::new(Shared::default());
    let stop = Arc::new(AtomicBool::new(false));

    // The generator's threads: at most one per processor, each hosting a
    // contiguous range of sessions over its own port.
    let threads = ctx.gen_threads.clamp(1, sessions.max(1));
    let chunk = sessions.div_ceil(threads);
    let t0 = Instant::now();
    let clock = TickClock::start(ctx.tick);
    let (pump, ports) = if ctx.udp {
        let server = UdpServerTransport::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let ports = (0..threads)
            .map(|_| {
                let socket = UdpSocket::bind(("127.0.0.1", 0))?;
                socket.set_nonblocking(true)?;
                Ok(Port::Udp {
                    socket,
                    server: addr,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| e.to_string())?;
        let pump = spawn_pump(
            server,
            shared.clone(),
            clock,
            specs,
            config,
            traced,
            stop.clone(),
        )?;
        (pump, ports)
    } else {
        let hub = MemHub::new();
        let mut ends: Vec<_> = (1..=sessions)
            .map(|i| hub.client_transport(SessionId::new(i as u32), codec))
            .collect();
        let mut ports = Vec::with_capacity(threads);
        while !ends.is_empty() {
            let rest = ends.split_off(chunk.min(ends.len()));
            ports.push(Port::Mem(std::mem::replace(&mut ends, rest)));
        }
        let pump = spawn_pump(
            hub,
            shared.clone(),
            clock,
            specs,
            config,
            traced,
            stop.clone(),
        )?;
        (pump, ports)
    };

    // Set-up ends at the pump's first ingress call; only then do
    // sessions start, at their scheduled ticks after it.
    while !shared.ready() && !stop.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_micros(50));
    }
    let setup_s = shared
        .first_recv()
        .map(|t| t.duration_since(t0).as_secs_f64());
    Ok(Started {
        pump,
        ports,
        chunk,
        shared,
        stop,
        clock,
        setup_s,
    })
}

/// Measures set-up alone: starts the server for `sessions` sessions as a
/// round does, sends nothing, and lets [`PROBE_WALL`] stop it. `None` when
/// the cap stopped the server before its first ingress call.
///
/// # Errors
///
/// A server failure, or a recording directory that cannot be made or
/// removed.
pub fn measure_setup(ctx: &mut Ctx, sessions: usize) -> Result<Option<f64>, String> {
    ctx.probes += 1;
    let (config, record_dir) =
        serve_config(ctx, sessions, PROBE_WALL, &format!("setup-{}", ctx.probes))?;
    let Started {
        pump,
        ports,
        setup_s,
        ..
    } = start(ctx, sessions, config, false)?;
    let (result, _) = pump.join().map_err(|_| "pump thread panicked")?;
    drop(ports);
    if let Some(dir) = &record_dir {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    result.map_err(|e| format!("server: {e}"))?;
    Ok(setup_s)
}

/// Runs one round of `sessions` sessions.
///
/// # Errors
///
/// A server or generator failure, a safety violation on a lossless
/// round, an oracle disagreement, or effort below the paper's bound.
pub fn run_round(ctx: &mut Ctx, sessions: usize, traced: bool) -> Result<Round, String> {
    ctx.ensure_sessions(sessions)?;
    let inputs = &ctx.inputs[..sessions];
    match ctx.kind {
        ProtocolKind::Beta { k } => {
            let txs = inputs
                .iter()
                .map(|x| BetaTransmitter::new(ctx.params, k, x))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            drive(ctx, txs, traced)
        }
        ProtocolKind::Stenning { timeout_steps } => {
            let txs = inputs
                .iter()
                .map(|x| StenningTransmitter::new(ctx.params, x.clone(), timeout_steps))
                .collect();
            drive(ctx, txs, traced)
        }
        other => Err(format!("no generator for {}", other.name())),
    }
}

fn drive<A>(ctx: &mut Ctx, txs: Vec<A>, traced: bool) -> Result<Round, String>
where
    A: Automaton<Action = RstpAction> + Send,
    A::State: Send,
{
    let sessions = txs.len();
    ctx.rounds += 1;
    let mut rng = Rng::new(ctx.seed.rotate_left(17) ^ ctx.rounds);
    let offsets: Vec<u64> = (0..sessions).map(|_| rng.below(ARRIVAL_TICKS)).collect();
    let codec: WireCodec = codec_for(ctx.kind).map_err(|e| e.to_string())?;
    let tick_us = ctx.tick_micros();
    let gap = Pace::Slow.gap_ticks(ctx.params).max(1);

    // A round that cannot finish within 1.5× the simulated transfer is
    // not conformant; the cap keeps such rounds short.
    let budget_ticks = ARRIVAL_TICKS as f64 + 1.5 * ctx.max_sim_ticks(sessions) + 400.0;
    let max_wall = Duration::from_secs(2)
        + Duration::from_micros(100) * u32::try_from(sessions).unwrap_or(u32::MAX)
        + ctx.tick.mul_f64(budget_ticks);
    let (config, record_dir) =
        serve_config(ctx, sessions, max_wall, &format!("round-{}", ctx.rounds))?;

    let proc0 = procstat::process_cpu_s();
    let gen0 = procstat::thread_cpu_s();
    let sampler = if traced {
        Some(ThreadSampler::start(SAMPLE_PERIOD).map_err(|e| format!("spawn sampler: {e}"))?)
    } else {
        None
    };
    let Started {
        pump,
        ports,
        chunk,
        shared,
        stop,
        clock,
        setup_s,
    } = start(ctx, sessions, config, traced)?;
    let setup_s = setup_s.unwrap_or(0.0);
    let go_tick = clock.now_micros() / tick_us + 1;
    let starts: Vec<u64> = offsets.iter().map(|o| go_tick + o).collect();
    let (gen_result, helper_cpu_s) =
        generate(txs, ports, chunk, codec, clock, &starts, gap, traced, &stop);
    if gen_result.is_err() {
        stop.store(true, Ordering::Relaxed);
    }
    let (serve_result, ingress) = pump.join().map_err(|_| "pump thread panicked")?;
    let gen_cpu_s = procstat::thread_cpu_s() - gen0 + helper_cpu_s;
    let proc_cpu_s = procstat::process_cpu_s() - proc0;
    let roles = sampler.map(ThreadSampler::finish);
    let rec_bytes = record_dir.as_deref().map_or(0, dir_bytes);
    if let Some(dir) = &record_dir {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let gen = gen_result?;
    let report = serve_result.map_err(|e| format!("server: {e}"))?;

    let mut round = Round {
        sessions,
        setup_s,
        proc_cpu_s,
        gen_cpu_s,
        roles,
        ingress,
        egress: shared.egress(),
        delivery: report.latency(),
        shard_steps: report.shards.iter().map(|s| s.steps).sum(),
        shard_misses: report.deadline_misses(),
        shard_frames_received: report.shards.iter().map(|s| s.frames_received).sum(),
        shard_frames_sent: report.shards.iter().map(|s| s.frames_sent).sum(),
        overflow: report.ingress_overflow(),
        rejected: report.rejected_sessions,
        orphans: report.orphan_frames,
        decode_errors: report.decode_errors,
        rec_events: report.events_recorded(),
        rec_shed: report.events_dropped(),
        rec_bytes,
        traced,
        ..Round::default()
    };
    judge(ctx, &mut round, &report, &gen, go_tick, &mut rng)?;
    round.gen = gen;
    Ok(round)
}

/// Runs the generator: the calling thread hosts the first range of
/// sessions, one scoped thread per further range. Returns the merged
/// report and the CPU seconds of the extra threads.
#[allow(clippy::too_many_arguments)]
fn generate<A>(
    mut txs: Vec<A>,
    ports: Vec<Port>,
    chunk: usize,
    codec: WireCodec,
    clock: TickClock,
    starts: &[u64],
    gap: u64,
    traced: bool,
    stop: &AtomicBool,
) -> (Result<GenReport, String>, f64)
where
    A: Automaton<Action = RstpAction> + Send,
    A::State: Send,
{
    let mut ranges = Vec::with_capacity(ports.len());
    for (k, port) in ports.into_iter().enumerate() {
        let rest = txs.split_off(chunk.min(txs.len()));
        ranges.push((k * chunk, std::mem::replace(&mut txs, rest), port));
    }
    let run_range = |(base, txs, mut port): (usize, Vec<A>, Port)| {
        let end = (base + txs.len()).min(starts.len());
        let result = gen::run(
            base,
            txs,
            codec,
            &mut port,
            clock,
            clock.tick() / 2,
            &starts[base..end],
            gap,
            traced,
            stop,
        );
        if result.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        result
    };
    thread::scope(|scope| {
        let mut ranges = ranges.into_iter();
        let first = ranges.next();
        let helpers: Vec<_> = ranges
            .enumerate()
            .map(|(k, range)| {
                thread::Builder::new()
                    .name(format!("{GEN_THREAD}-{}", k + 1))
                    .spawn_scoped(scope, move || {
                        let cpu0 = procstat::thread_cpu_s();
                        let result = run_range(range);
                        (result, procstat::thread_cpu_s() - cpu0)
                    })
            })
            .collect();
        let mut parts = Vec::new();
        let mut helper_cpu = 0.0;
        let mut failure = None;
        if let Some(range) = first {
            match run_range(range) {
                Ok(part) => parts.push(part),
                Err(e) => failure = Some(e),
            }
        }
        for helper in helpers {
            let joined = match helper {
                Ok(handle) => handle
                    .join()
                    .map_err(|_| "generator thread panicked".to_string()),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    Err(format!("spawn generator thread: {e}"))
                }
            };
            match joined {
                Ok((Ok(part), cpu)) => {
                    parts.push(part);
                    helper_cpu += cpu;
                }
                Ok((Err(e), _)) | Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        match failure {
            Some(e) => (Err(e), helper_cpu),
            None => (Ok(gen::merge(parts)), helper_cpu),
        }
    })
}

/// Checks every session and fills in the effort and throughput figures.
fn judge(
    ctx: &Ctx,
    round: &mut Round,
    report: &ServeReport,
    gen: &GenReport,
    go_tick: u64,
    rng: &mut Rng,
) -> Result<(), String> {
    let tick_us = ctx.tick_micros();
    let lower = check::lower_bound(ctx.kind, ctx.params, ctx.n).ok_or("no lower bound")?;
    // A session can appear once per shard epoch; the completed entry is
    // its outcome.
    let mut outcomes: HashMap<u32, &rstp_serve::SessionStats> = HashMap::new();
    for s in report.shards.iter().flat_map(|s| s.sessions.iter()) {
        let e = outcomes.entry(s.id.raw()).or_insert(s);
        if s.completed && !e.completed {
            *e = s;
        }
    }
    let mut delivered = Vec::new();
    let mut last_write = go_tick;
    for i in 0..round.sessions {
        let id = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let input = &ctx.inputs[i];
        let verdict = if report.rejected_ids.contains(&id) {
            Err(Fault::Rejected)
        } else {
            match outcomes.get(&id) {
                None => Err(Fault::Incomplete),
                Some(s) => {
                    round.msgs += s.written.len() as u64;
                    check::check_session(input, &s.written, s.completed).map(|()| s)
                }
            }
        };
        match verdict {
            Ok(s) => {
                let (Some(first), Some(last)) = (gen.first_send_micros[i], s.last_write_tick)
                else {
                    return Err(format!("session {id}: delivered without a send or a write"));
                };
                let effort =
                    stats::served_effort(first, last, tick_us, ctx.n).ok_or("empty session")?;
                check::check_effort(effort, lower).map_err(|e| format!("session {id}: {e}"))?;
                round.ratios.push(effort / ctx.sim_effort[i]);
                last_write = last_write.max(last);
                delivered.push(i);
            }
            Err(fault) => {
                round.failed += 1;
                if fault == Fault::NotPrefix {
                    round.not_prefix += 1;
                }
            }
        }
    }
    if round.not_prefix > 0 && round.lossless() {
        return Err(format!(
            "{} sessions wrote output that is not a prefix of their input on a lossless round",
            round.not_prefix
        ));
    }
    for _ in 0..ORACLE_SAMPLE.min(delivered.len()) {
        let i = delivered[rng.below(delivered.len() as u64) as usize];
        let written = &outcomes[&(u32::try_from(i + 1).unwrap_or(u32::MAX))].written;
        check::oracle_check(ctx.kind, ctx.params, &ctx.inputs[i], written)
            .map_err(|e| format!("session {}: {e}", i + 1))?;
    }
    round.transfer_s = (last_write - go_tick) as f64 * tick_us as f64 / 1e6;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(kind: ProtocolKind, udp: bool, record_root: Option<PathBuf>) -> Ctx {
        let params = TimingParams::from_ticks(1, 2, 8).expect("params");
        Ctx::new(
            kind,
            params,
            Duration::from_micros(200),
            64,
            2,
            2,
            udp,
            record_root,
            7,
        )
    }

    #[test]
    fn a_small_beta_round_delivers_every_input() {
        let mut c = ctx(ProtocolKind::Beta { k: 4 }, false, None);
        let r = run_round(&mut c, 6, false).expect("round");
        assert_eq!((r.sessions, r.failed, r.overflow), (6, 0, 0));
        assert_eq!(r.msgs, 6 * 64);
        assert_eq!(r.ratios.len(), 6);
        assert!(
            r.ratios.iter().all(|&x| x > 0.5 && x < 1.5),
            "{:?}",
            r.ratios
        );
        assert!(r.setup_s > 0.0 && r.transfer_s > 0.0);
    }

    #[test]
    fn a_traced_stenning_round_over_udp_sees_both_directions() {
        let kind = ProtocolKind::Stenning {
            timeout_steps: None,
        };
        let mut c = ctx(kind, true, None);
        let r = run_round(&mut c, 4, true).expect("round");
        assert_eq!(r.failed, 0);
        assert!(r.ingress.frames > 0 && r.egress.frames > 0);
        assert!(r.roles.is_some());
    }

    #[test]
    fn a_recorded_round_leaves_no_files_behind() {
        // The benchmark's scratch directory at the repository root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.servebench-tmp")
            .join(format!("test-{}", std::process::id()));
        let mut c = ctx(ProtocolKind::Beta { k: 4 }, false, Some(root.clone()));
        let r = run_round(&mut c, 3, false).expect("round");
        assert_eq!(r.failed, 0);
        assert!(r.rec_events > 0 && r.rec_bytes > 0);
        let left = std::fs::read_dir(&root).map_or(0, |d| d.count());
        assert_eq!(left, 0);
        let _ = std::fs::remove_dir_all(&root);
        let _ = root.parent().map(std::fs::remove_dir);
    }

    #[test]
    fn a_set_up_probe_reaches_the_pump_and_leaves_no_files_behind() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.servebench-tmp")
            .join(format!("probe-{}", std::process::id()));
        let mut c = ctx(ProtocolKind::Beta { k: 4 }, false, Some(root.clone()));
        let setup = measure_setup(&mut c, 8).expect("probe");
        assert!(setup.is_some_and(|s| s > 0.0 && s < PROBE_WALL.as_secs_f64()));
        let left = std::fs::read_dir(&root).map_or(0, |d| d.count());
        assert_eq!(left, 0);
        let _ = std::fs::remove_dir_all(&root);
        let _ = root.parent().map(std::fs::remove_dir);
    }

    #[test]
    fn arrivals_repeat_for_a_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.below(ARRIVAL_TICKS)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
