//! The M-client loopback load harness behind `rstp swarm`.
//!
//! One server process (sharded, timer-wheel paced) runs the receiver of
//! every session; M client threads each run the ordinary single-session
//! transmitter driver over its own [`Transport`] endpoint, all sharing
//! one clock epoch so latency stamps are comparable. After the run the
//! harness verifies the paper's correctness obligation end to end —
//! every receiver output `Y` must equal its session's input `X` — and
//! cross-checks a sample of sessions against the simulator oracle
//! (`rstp_sim::harness::expected_output`), so the wall-clock stack is
//! held to the same answer as the discrete-time model.

use crate::hub::MemHub;
use crate::metrics::ServeReport;
use crate::server::{run_server, ServeConfig, SessionSpec};
use crate::udp::{UdpServerTransport, UdpSessionClient};
use rstp_core::bounds::Family;
use rstp_core::{Message, SessionId, TimingParams};
use rstp_net::{
    codec_for, run_transmitter, DriverConfig, DriverOutcome, DriverReport, NetError, Pace,
    TickClock, Transport,
};
use rstp_sim::harness::{expected_output, random_input};
use rstp_sim::ProtocolKind;
use std::collections::HashMap;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Which fabric carries the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmTransport {
    /// In-process loopback ([`MemHub`]): lossless, no syscalls.
    Mem,
    /// One shared UDP socket on 127.0.0.1: real datagrams, real drops.
    Udp,
}

/// Configuration of a uniform swarm (same protocol and `n` everywhere;
/// [`run_swarm_sessions`] takes an explicit mixed plan instead).
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Server-side configuration (shards, batching, pacing, caps).
    pub serve: ServeConfig,
    /// Concurrent sessions `M`.
    pub sessions: usize,
    /// Protocol every session speaks.
    pub kind: ProtocolKind,
    /// Messages per session.
    pub n: usize,
    /// Seed for the per-session pseudorandom inputs.
    pub seed: u64,
    /// Fabric to run over.
    pub transport: SwarmTransport,
    /// How many sessions to cross-check against the simulator oracle.
    pub oracle_sample: usize,
}

impl SwarmConfig {
    /// A swarm of `sessions` × `kind` transfers of `n` messages each,
    /// over the loopback hub, with server defaults sized to admit them
    /// all.
    #[must_use]
    pub fn new(
        kind: ProtocolKind,
        n: usize,
        sessions: usize,
        params: TimingParams,
        tick: Duration,
    ) -> Self {
        // Queue bound sized to the offered load: on an oversubscribed
        // box the shards can lag the clients by entire bursts, and a
        // drop kills an open-loop session (β sends each symbol exactly
        // k times — lose all k and the receiver stalls forever). The
        // bound still exists; the load harness just provisions it, as a
        // deployment would. The dedicated backpressure tests shrink it
        // on purpose.
        let queue_cap = (sessions.saturating_mul(32)).max(256);
        SwarmConfig {
            serve: ServeConfig::new(params, tick)
                .with_max_sessions(sessions.max(1))
                .with_queue_cap(queue_cap),
            sessions,
            kind,
            n,
            seed: 1,
            transport: SwarmTransport::Mem,
            oracle_sample: 2,
        }
    }
}

/// Everything a swarm run observed, server and client side.
#[derive(Clone, Debug)]
pub struct SwarmReport {
    /// The server's aggregate report.
    pub serve: ServeReport,
    /// Sessions the plan asked for.
    pub planned: usize,
    /// Deadline misses across all client drivers.
    pub client_deadline_misses: u64,
    /// Timing violations across all client drivers.
    pub client_timing_violations: u64,
    /// Ids of clients whose driver hit its wall-clock cap.
    pub clients_timed_out: Vec<u32>,
    /// One diagnostic line per timed-out client — what its driver did
    /// before giving up, so an ack-loss race leaves a postmortem trail
    /// in the summary instead of a bare id.
    pub clients_timed_out_detail: Vec<String>,
    /// Ids whose receiver output `Y` differs from the input `X` — any
    /// entry here is a safety violation.
    pub mismatched: Vec<u32>,
    /// Ids admitted but not completed when the server stopped.
    pub incomplete: Vec<u32>,
    /// Sessions cross-checked against the simulator oracle.
    pub oracle_checked: usize,
    /// Ids where the wall-clock output diverged from the oracle's.
    pub oracle_mismatched: Vec<u32>,
}

impl SwarmReport {
    /// `true` iff every planned session was admitted, completed, matched
    /// its input exactly, and agreed with the simulator oracle.
    #[must_use]
    pub fn all_good(&self) -> bool {
        self.serve.rejected_sessions == 0
            && self.mismatched.is_empty()
            && self.incomplete.is_empty()
            && self.clients_timed_out.is_empty()
            && self.oracle_mismatched.is_empty()
    }

    /// The human-readable summary table `rstp swarm` prints.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lat = self.serve.latency();
        let q = |p: f64| {
            lat.quantile_interp_micros(p)
                .map_or_else(|| "-".into(), |v| format!("{v:.0}µs"))
        };
        let _ = writeln!(
            out,
            "sessions  : {} planned, {} admitted, {} completed, {} rejected",
            self.planned,
            self.serve.admitted(),
            self.serve.completed(),
            self.serve.rejected_sessions
        );
        let _ = writeln!(
            out,
            "wall      : {:.3}s, {:.0} msg/s aggregate",
            self.serve.wall_elapsed.as_secs_f64(),
            self.serve.throughput_msgs_per_sec()
        );
        let _ = writeln!(
            out,
            "latency   : p50 {} p99 {} max {} ({} samples)",
            q(0.50),
            q(0.99),
            lat.max_micros()
                .map_or_else(|| "-".into(), |v| format!("{v}µs")),
            lat.count()
        );
        let _ = writeln!(
            out,
            "deadlines : misses {} server / {} clients, violations {} server / {} clients",
            self.serve.deadline_misses(),
            self.client_deadline_misses,
            self.serve.timing_violations(),
            self.client_timing_violations
        );
        let _ = writeln!(
            out,
            "drops     : {} ingress overflow, {} orphan frames, {} decode errors",
            self.serve.ingress_overflow(),
            self.serve.orphan_frames,
            self.serve.decode_errors
        );
        if self.serve.crashes > 0 || self.serve.restarts > 0 || self.serve.hub_dropped_frames > 0 {
            let _ = writeln!(
                out,
                "faults    : {} crashes, {} restarts, {} sessions recovered, {} lost, \
                 {} hub-dropped frames",
                self.serve.crashes,
                self.serve.restarts,
                self.serve.recovered_sessions,
                self.serve.unrecoverable_sessions,
                self.serve.hub_dropped_frames
            );
        }
        let handover_any = self.serve.handed_off()
            + self.serve.adopted()
            + self.serve.handovers_failed()
            + self.serve.handovers_aborted()
            + self.serve.deadlines_migrated();
        if handover_any > 0 {
            let _ = writeln!(
                out,
                "handover  : {} handed off, {} adopted, {} failed, {} aborted, \
                 {} deadlines migrated",
                self.serve.handed_off(),
                self.serve.adopted(),
                self.serve.handovers_failed(),
                self.serve.handovers_aborted(),
                self.serve.deadlines_migrated()
            );
        }
        if self.serve.reacked() > 0 {
            let _ = writeln!(
                out,
                "late acks : {} duplicate frame(s) re-acknowledged after completion",
                self.serve.reacked()
            );
        }
        if self.serve.events_recorded() > 0 || self.serve.events_dropped() > 0 {
            let _ = writeln!(
                out,
                "recorder  : {} events recorded, {} shed",
                self.serve.events_recorded(),
                self.serve.events_dropped()
            );
        }
        for s in &self.serve.shards {
            let _ = writeln!(
                out,
                "  shard {:>2}: {:>4} admitted, {:>4} completed, {:>8} steps, \
                 {:>4} misses, {:>4} violations, {:>4} drops",
                s.shard,
                s.admitted,
                s.completed,
                s.steps,
                s.deadline_misses,
                s.timing_violations,
                s.ingress_overflow
            );
        }
        if self.oracle_checked > 0 {
            let _ = writeln!(
                out,
                "oracle    : {} sessions cross-checked against the simulator, {} diverged",
                self.oracle_checked,
                self.oracle_mismatched.len()
            );
        }
        if !self.mismatched.is_empty() {
            let _ = writeln!(out, "MISMATCHED: {:?}", self.mismatched);
        }
        if !self.incomplete.is_empty() {
            let _ = writeln!(out, "INCOMPLETE: {:?}", self.incomplete);
        }
        if !self.clients_timed_out.is_empty() {
            let _ = writeln!(out, "TIMED OUT : {:?}", self.clients_timed_out);
            for line in &self.clients_timed_out_detail {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// Per-shard step budget (steps per second) a commodity CI box sustains
/// before the timer wheel lags the clock and deadline misses cascade.
/// Calibrated against the γ(4) stall in ROADMAP item 5: 64 active
/// sessions at a 200 µs tick offer 80k steps/s/shard on 4 shards and
/// reliably starve the wall clock, while β at 256 sessions (passive,
/// demand-driven) is fine.
const SHARD_STEP_BUDGET_PER_SEC: u64 = 50_000;

/// Deterministic pre-flight overload check for a swarm shape.
///
/// An *active* receiver (γ, pipelined) takes a local step — and sends an
/// ack — every `[c1, c2]` window for the whole transfer, whether or not
/// data arrived. Each session therefore offers about `1 / (c1 · tick)`
/// server steps per second regardless of progress, and past the shard
/// budget the wheel lags, misses cascade, and transfers stall past any
/// wall clock instead of failing. Rather than flake, the harness
/// predicts that load from the shape alone and refuses up front: the
/// returned diagnosis names the offered and budgeted rates and the
/// knobs that bring the shape back inside them. Passive receivers
/// (α, β and the framed/windowed/stabilizing variants) step on demand,
/// so their load is bounded by the client send rate and they pass.
#[must_use]
pub fn overload_diagnosis(config: &SwarmConfig) -> Option<String> {
    if config.kind.class() != Some(Family::Active) {
        return None;
    }
    let tick_us = config.serve.tick.as_micros().max(1) as u64;
    let c1 = config.serve.params.c1().ticks().max(1);
    let per_session = 1_000_000 / (c1 * tick_us).max(1);
    let shards = config.serve.shards.max(1) as u64;
    let offered = (config.sessions as u64) * per_session / shards;
    if offered <= SHARD_STEP_BUDGET_PER_SEC {
        return None;
    }
    Some(format!(
        "predicted overload: {} active {} sessions at a {} µs tick offer \
         ~{offered} steps/s per shard ({} shards), over the {} steps/s \
         budget; transfers would stall, not fail. Raise --tick-us, add \
         --shards, or lower --sessions.",
        config.sessions,
        config.kind.name(),
        tick_us,
        shards,
        SHARD_STEP_BUDGET_PER_SEC
    ))
}

/// Runs a uniform swarm per `config`, including the simulator-oracle
/// cross-check on the first `oracle_sample` sessions.
///
/// # Errors
///
/// [`NetError`] on transport failure, a model violation on either side,
/// or a panicked thread. (A session merely failing to complete or to
/// match its input is a *finding*, reported in the [`SwarmReport`], not
/// an `Err`.)
pub fn run_swarm(config: &SwarmConfig) -> Result<SwarmReport, NetError> {
    let sessions: Vec<(SessionSpec, Vec<Message>)> = (0..config.sessions)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(u32::try_from(i).unwrap_or(u32::MAX).wrapping_add(1)),
                kind: config.kind,
                n: config.n,
            };
            let input = random_input(config.n, config.seed.wrapping_add(i as u64));
            (spec, input)
        })
        .collect();
    let mut report = run_swarm_sessions(&sessions, &config.serve, config.transport)?;

    // Independent oracle: the simulator (with its checker enabled) must
    // produce the same output the wall-clock stack did. Fault runs can
    // leave duplicate stats per id (a handover or crash epoch next to
    // the completing one); the completed entry is the outcome.
    let mut written: HashMap<u32, (bool, &[Message])> = HashMap::new();
    for s in report.serve.shards.iter().flat_map(|s| s.sessions.iter()) {
        let e = written
            .entry(s.id.raw())
            .or_insert((s.completed, s.written.as_slice()));
        if s.completed && !e.0 {
            *e = (true, s.written.as_slice());
        }
    }
    for (spec, input) in sessions.iter().take(config.oracle_sample) {
        let expected = expected_output(config.kind, config.serve.params, input).map_err(|e| {
            NetError::Automaton {
                what: format!("sim oracle: {e}"),
            }
        })?;
        report.oracle_checked += 1;
        if written.get(&spec.id.raw()).map(|&(_, w)| w) != Some(expected.as_slice()) {
            report.oracle_mismatched.push(spec.id.raw());
        }
    }
    Ok(report)
}

/// Runs an explicit (possibly mixed-protocol, mixed-`n`) session plan:
/// each `(spec, input)` pair becomes one client thread transmitting
/// `input` while the server runs the matching receiver.
///
/// # Errors
///
/// [`NetError`] as for [`run_swarm`].
pub fn run_swarm_sessions(
    sessions: &[(SessionSpec, Vec<Message>)],
    serve: &ServeConfig,
    transport: SwarmTransport,
) -> Result<SwarmReport, NetError> {
    // Anchor tick 0 far enough ahead that every client thread exists
    // before its first deadline (spawning M threads takes real time).
    let headroom = Duration::from_millis(20)
        + Duration::from_micros(100) * u32::try_from(sessions.len()).unwrap_or(u32::MAX);
    let clock = TickClock::start_after(headroom, serve.tick);
    let base = DriverConfig::new(serve.params, serve.tick)
        .with_pace(serve.pace)
        .with_max_wall(serve.max_wall);
    let specs: Vec<SessionSpec> = sessions.iter().map(|(s, _)| *s).collect();

    let (serve_report, clients) = match transport {
        SwarmTransport::Mem => {
            let mut hub = MemHub::new();
            let mut ends = Vec::with_capacity(sessions.len());
            for (spec, input) in sessions {
                let end = hub.client_transport(spec.id, codec_for(spec.kind)?);
                ends.push((*spec, input.clone(), end));
            }
            let spawner = spawn_clients_async(ends, clock, base)?;
            let report = run_server(&mut hub, clock, &specs, serve)?;
            (report, join_clients(join_spawner(spawner)?)?)
        }
        SwarmTransport::Udp => {
            let mut server = UdpServerTransport::bind(("127.0.0.1", 0))?;
            let addr = server.local_addr()?;
            let mut ends = Vec::with_capacity(sessions.len());
            for (spec, input) in sessions {
                let end = UdpSessionClient::connect(addr, spec.id, codec_for(spec.kind)?)?;
                ends.push((*spec, input.clone(), end));
            }
            let spawner = spawn_clients_async(ends, clock, base)?;
            let report = run_server(&mut server, clock, &specs, serve)?;
            (report, join_clients(join_spawner(spawner)?)?)
        }
    };

    // Verify the safety obligation per session: Y == X exactly. Fault
    // and handover runs can emit more than one stats entry per id (a
    // crash epoch's unfinished entry next to the epoch that completed
    // it); the completed entry is the session's outcome. A planned
    // session with no stats at all — lost in an unrecovered crash, or
    // never admitted — is incomplete.
    let mut outcomes: HashMap<u32, &crate::metrics::SessionStats> = HashMap::new();
    for stats in serve_report.shards.iter().flat_map(|s| s.sessions.iter()) {
        use std::collections::hash_map::Entry;
        match outcomes.entry(stats.id.raw()) {
            Entry::Occupied(mut e) => {
                if stats.completed && !e.get().completed {
                    e.insert(stats);
                }
            }
            Entry::Vacant(e) => {
                e.insert(stats);
            }
        }
    }
    let mut mismatched = Vec::new();
    let mut incomplete = Vec::new();
    for (spec, input) in sessions {
        let raw = spec.id.raw();
        match outcomes.get(&raw) {
            Some(stats) => {
                if !stats.completed {
                    incomplete.push(raw);
                }
                if stats.written.as_slice() != input.as_slice() {
                    mismatched.push(raw);
                }
            }
            // A session with no stats at all was either rejected at
            // admission — a legitimate backpressure outcome, already
            // counted in `rejected_sessions` — or lost in an
            // unrecovered crash, which is incomplete.
            None => {
                if !serve_report.rejected_ids.contains(&raw) {
                    incomplete.push(raw);
                }
            }
        }
    }
    mismatched.sort_unstable();
    incomplete.sort_unstable();

    let mut client_deadline_misses = 0;
    let mut client_timing_violations = 0;
    let mut clients_timed_out = Vec::new();
    let mut clients_timed_out_detail = Vec::new();
    for (spec, report) in specs.iter().zip(&clients) {
        client_deadline_misses += report.deadline_misses;
        client_timing_violations += report.timing_violations;
        if report.outcome == DriverOutcome::TimedOut {
            clients_timed_out.push(spec.id.raw());
            clients_timed_out_detail.push(format!(
                "client {}: {} steps, {} data sends, {} acks sent, {} recvs, \
                 {} writes, {} misses, gave up after {:.3}s",
                spec.id.raw(),
                report.steps,
                report.data_sends,
                report.ack_sends,
                report.recvs,
                report.written.len(),
                report.deadline_misses,
                report.wall_elapsed.as_secs_f64(),
            ));
        }
    }

    Ok(SwarmReport {
        serve: serve_report,
        planned: sessions.len(),
        client_deadline_misses,
        client_timing_violations,
        clients_timed_out,
        clients_timed_out_detail,
        mismatched,
        incomplete,
        oracle_checked: 0,
        oracle_mismatched: Vec::new(),
    })
}

type ClientHandles = Vec<JoinHandle<Result<DriverReport, NetError>>>;

/// Spawns the client threads from a helper thread so the caller can
/// start the server pump *immediately*. Spawning hundreds of threads
/// takes real time; if the clients were all spawned before the pump ran,
/// their first sends could overrun a kernel socket buffer with nobody
/// draining it — a correlated loss of every session's first symbol.
fn spawn_clients_async<T: Transport + Send + 'static>(
    ends: Vec<(SessionSpec, Vec<Message>, T)>,
    clock: TickClock,
    base: DriverConfig,
) -> Result<JoinHandle<Result<ClientHandles, NetError>>, NetError> {
    thread::Builder::new()
        .name("rstp-swarm-spawner".into())
        .spawn(move || spawn_clients(ends, clock, base))
        .map_err(|e| NetError::Thread {
            what: format!("spawn client spawner: {e}"),
        })
}

fn join_spawner(
    spawner: JoinHandle<Result<ClientHandles, NetError>>,
) -> Result<ClientHandles, NetError> {
    spawner.join().map_err(|_| NetError::Thread {
        what: "swarm client spawner panicked".into(),
    })?
}

/// At most this many clients are in their send phase at once; later
/// clients start whole waves later (see [`spawn_clients`]).
const WAVE: usize = 64;

fn spawn_clients<T: Transport + Send + 'static>(
    ends: Vec<(SessionSpec, Vec<Message>, T)>,
    clock: TickClock,
    base: DriverConfig,
) -> Result<ClientHandles, NetError> {
    // Client arrivals are ramped, in two tiers. Within a wave of WAVE
    // clients, epochs spread across one step window: a shared epoch
    // would send the whole wave's datagrams as one synchronized impulse
    // per step. Successive waves start a conservatively overestimated
    // transfer duration apart, so at most ~WAVE clients are in their
    // send phase at once. Both tiers exist for the same reason: a
    // default kernel UDP receive buffer holds only a few hundred
    // datagrams, and on a small host the scheduler can hold the pump
    // off for tens of milliseconds — 256 concurrent senders overrun the
    // buffer in that gap, and losing all k copies of a symbol stalls an
    // open-loop session forever. The ramp shapes client arrivals only;
    // the server admits every session up front and paces all of their
    // receivers on the wheel for the whole run.
    let p = base.params;
    let gap_ticks = match base.pace {
        Pace::Fast => p.c1().ticks(),
        Pace::Slow => p.c2().ticks(),
    };
    // One worst-case delivery + ack round, in ticks.
    let round = p.c2().ticks() + p.d().ticks();
    let n_max = ends
        .iter()
        .map(|(s, _, _)| u64::try_from(s.n).unwrap_or(u64::MAX))
        .max()
        .unwrap_or(0);
    // Upper bound on one transfer: every message costs at most two send
    // steps plus a round trip (covers ack-clocked gamma), plus the
    // driver's terminal idle streak. A ramp estimate, not a correctness
    // bound — overshooting only stretches the run.
    let span_ticks = n_max
        .saturating_mul(2 * gap_ticks + round)
        .saturating_add(4 * round);
    let wave_span = clock.tick() * u32::try_from(span_ticks).unwrap_or(u32::MAX);
    let window = clock.tick() * u32::try_from(p.c2().ticks()).unwrap_or(u32::MAX);
    let in_wave = u32::try_from(ends.len().min(WAVE))
        .unwrap_or(u32::MAX)
        .max(1);
    let mut handles = Vec::with_capacity(ends.len());
    for (i, (spec, input, mut end)) in ends.into_iter().enumerate() {
        let wave = u32::try_from(i / WAVE).unwrap_or(u32::MAX);
        let jitter = window * u32::try_from(i % WAVE).unwrap_or(u32::MAX) / in_wave;
        let offset = wave_span * wave + jitter;
        let clock = TickClock::with_epoch(clock.epoch() + offset, clock.tick());
        let params = base.params;
        let handle = thread::Builder::new()
            .name(format!("rstp-swarm-client-{}", spec.id))
            .spawn(move || run_transmitter(spec.kind, params, &input, &mut end, clock, &base))
            .map_err(|e| NetError::Thread {
                what: format!("spawn client {}: {e}", spec.id),
            })?;
        handles.push(handle);
    }
    Ok(handles)
}

fn join_clients(handles: ClientHandles) -> Result<Vec<DriverReport>, NetError> {
    handles
        .into_iter()
        .map(|h| {
            h.join().map_err(|_| NetError::Thread {
                what: "swarm client panicked".into(),
            })?
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_model_flags_the_roadmap_gamma_shape_and_nothing_passive() {
        let params = TimingParams::from_ticks(1, 2, 8).expect("valid");
        let tick = Duration::from_micros(200);
        // The documented stall: 64 γ(4) sessions on the mem hub.
        let gamma = SwarmConfig::new(ProtocolKind::Gamma { k: 4 }, 32, 64, params, tick);
        let diag = overload_diagnosis(&gamma).expect("the 64×γ shape must be flagged");
        assert!(diag.contains("predicted overload"), "{diag}");
        assert!(diag.contains("gamma"), "{diag}");
        // Passive β is fine even at 4× the sessions.
        let beta = SwarmConfig::new(ProtocolKind::Beta { k: 4 }, 32, 256, params, tick);
        assert!(overload_diagnosis(&beta).is_none());
        // So are the stabilizing kinds — demand-driven receivers.
        let stab = SwarmConfig::new(
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            32,
            64,
            params,
            tick,
        );
        assert!(overload_diagnosis(&stab).is_none());
        // And γ itself passes once the tick is coarse enough.
        let coarse = SwarmConfig::new(
            ProtocolKind::Gamma { k: 4 },
            32,
            64,
            params,
            Duration::from_micros(2000),
        );
        assert!(overload_diagnosis(&coarse).is_none());
    }

    #[test]
    fn stabilizing_swarm_holds_y_equals_x_at_64_sessions() {
        // The CI swarm shape pinning the stabilizing family at scale:
        // 64 concurrent stop-and-wait stabilizing sessions on the mem
        // hub, each held to Y = X and the simulator oracle.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let config = SwarmConfig::new(
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            8,
            64,
            params,
            Duration::from_micros(200),
        );
        let report = run_swarm(&config).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 64);
    }

    #[test]
    fn small_mem_swarm_reproduces_every_input() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let config = SwarmConfig::new(
            ProtocolKind::Beta { k: 4 },
            16,
            8,
            params,
            Duration::from_micros(200),
        );
        let report = run_swarm(&config).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 8);
        assert_eq!(report.oracle_checked, 2);
        assert!(report.serve.latency().count() > 0);
    }

    #[test]
    fn recorded_mem_swarm_stays_clean_and_indexable() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let dir = std::env::temp_dir().join(format!("rstp-swarm-rec-{}", std::process::id()));
        let mut config = SwarmConfig::new(
            ProtocolKind::Gamma { k: 4 },
            8,
            6,
            params,
            Duration::from_micros(200),
        );
        config.serve = config.serve.with_record(&dir).with_record_seed(config.seed);
        let report = run_swarm(&config).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert!(report.serve.events_recorded() > 0);
        assert_eq!(report.serve.events_dropped(), 0);
        assert!(report.summary().contains("recorder  :"));

        // The recording is complete: every session has its admit,
        // frames, and a completed verdict matching its input.
        let ix = rstp_record::SessionIndex::from_dir(&dir).expect("index");
        assert_eq!(ix.len(), 6);
        assert_eq!(ix.params, Some((1, 2, 4)));
        assert_eq!(ix.seed, Some(config.seed));
        assert!(!ix.truncated);
        for h in ix.sessions() {
            assert_eq!(h.kind, Some(ProtocolKind::Gamma { k: 4 }));
            assert!(!h.rx.is_empty(), "session {} recorded no frames", h.session);
            assert!(!h.pops.is_empty());
            let (_, completed, written) = h.verdict.clone().expect("verdict");
            assert!(completed);
            let expect = random_input(8, config.seed.wrapping_add(u64::from(h.session) - 1));
            assert_eq!(written, expect, "recorded Y != X for session {}", h.session);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_restart_recovers_every_acknowledged_write() {
        // The tentpole scenario: a shard is killed mid-transfer and
        // restarted from its flight recording. Stop-and-wait clients
        // retransmit through the outage, the restarted shard resumes
        // each session from snapshot + replay, and the run must end
        // with zero acknowledged symbols lost and every Y = X — which
        // `all_good` asserts via the per-session mismatch check.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let dir = std::env::temp_dir().join(format!(
            "rstp-swarm-crash-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let plan = crate::FaultPlan::parse("kill=1@20;restart=1@60").expect("plan");
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(8)
            .with_queue_cap(512)
            .with_max_wall(Duration::from_secs(30))
            .with_record(&dir)
            .with_record_seed(7)
            .with_faults(plan);
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=8u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 8,
                };
                (spec, random_input(8, 7 + u64::from(i)))
            })
            .collect();
        let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 8);
        assert_eq!(report.serve.crashes, 1, "{}", report.summary());
        assert_eq!(report.serve.restarts, 1, "{}", report.summary());
        assert_eq!(
            report.serve.unrecoverable_sessions,
            0,
            "{}",
            report.summary()
        );
        assert!(
            report.serve.recovered_sessions >= 1,
            "the kill must land mid-transfer: {}",
            report.summary()
        );
        // The crashed epoch is visible in the per-shard reports, and
        // the summary renders the fault line.
        assert!(report.serve.shards.iter().any(|s| s.crashed));
        assert!(
            report.summary().contains("faults    :"),
            "{}",
            report.summary()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_handover_migrates_sessions_without_losing_output() {
        // Pair-wise handover: shard 0 drains every live session to
        // shard 1 mid-transfer (DRAIN → SNAPSHOT → ACK → REDIRECT).
        // The adopted sessions must finish with Y = X, and deadlines
        // that fired while paused are reported as migrated, not lost.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let plan = crate::FaultPlan::parse("drain=0->1@15").expect("plan");
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(8)
            .with_queue_cap(512)
            .with_max_wall(Duration::from_secs(30))
            .with_faults(plan);
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=8u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 8,
                };
                (spec, random_input(8, 100 + u64::from(i)))
            })
            .collect();
        let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 8);
        assert!(
            report.serve.handed_off() >= 1,
            "the drain must move sessions: {}",
            report.summary()
        );
        assert_eq!(
            report.serve.handed_off(),
            report.serve.adopted(),
            "every handoff must be adopted exactly once: {}",
            report.summary()
        );
        assert!(
            report.summary().contains("handover  :"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn injected_panic_is_a_run_failure_not_a_silent_exit() {
        // A shard thread panic must surface as an error from the run —
        // the pre-fix behavior (`rstp swarm` exiting 0 after a shard
        // panic) is exactly what this pins against.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let plan = crate::FaultPlan::parse("panic=0@5").expect("plan");
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(4)
            .with_max_wall(Duration::from_secs(2))
            .with_faults(plan);
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=4u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 4,
                };
                (spec, random_input(4, u64::from(i)))
            })
            .collect();
        let err = match run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem) {
            Err(e) => e,
            Ok(report) => panic!("panic fault must fail the run: {}", report.summary()),
        };
        assert!(
            matches!(err, NetError::Thread { .. }),
            "expected a thread error, got: {err}"
        );
    }

    /// Runs four Stenning sessions on two recorded shards under `faults`
    /// and returns the run's outcome plus shard 0's recording.
    fn recorded_fault_run(
        faults: &str,
        tag: &str,
    ) -> (Result<SwarmReport, NetError>, rstp_record::Recording) {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let dir = std::env::temp_dir().join(format!(
            "rstp-swarm-{tag}-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(4)
            .with_max_wall(Duration::from_secs(2))
            .with_record(&dir)
            .with_faults(crate::FaultPlan::parse(faults).expect("plan"));
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=4u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 4,
                };
                (spec, random_input(4, u64::from(i)))
            })
            .collect();
        let outcome = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem);
        let recording = rstp_record::Recording::load(&dir.join(rstp_record::shard_file_name(0)))
            .expect("shard 0 recording");
        let _ = std::fs::remove_dir_all(&dir);
        (outcome, recording)
    }

    /// Every session shard 0 owns (even ids of four, two shards) must
    /// have its recovery anchors on disk.
    fn assert_anchors_on_disk(recording: &rstp_record::Recording) {
        use rstp_record::Event;
        for id in [2u32, 4] {
            let admit = recording
                .events
                .iter()
                .any(|e| matches!(e, Event::Admit { session, .. } if *session == id));
            let snapshot = recording
                .events
                .iter()
                .any(|e| matches!(e, Event::Snapshot { session, .. } if *session == id));
            assert!(
                admit && snapshot,
                "session {id}: admit {admit}, snapshot {snapshot}"
            );
        }
    }

    // Each fault runs at two ticks: at 0 it reaches the shard in the
    // same wake as the admissions, so the anchors are still batched
    // when the shard stops; at 5 the shard has run a few wakes first.

    #[test]
    fn a_panicking_shard_hands_its_last_batch_to_disk() {
        // The shard unwinds; dropping its recorder during the unwind
        // must hand the batch over.
        for at in [0, 5] {
            let (outcome, recording) = recorded_fault_run(&format!("panic=0@{at}"), "rec-panic");
            assert!(
                matches!(outcome, Err(NetError::Thread { .. })),
                "panic fault must fail the run"
            );
            assert_anchors_on_disk(&recording);
        }
    }

    #[test]
    fn a_killed_shard_hands_its_last_batch_to_disk() {
        for at in [0, 5] {
            let (outcome, recording) = recorded_fault_run(&format!("kill=0@{at}"), "rec-kill");
            let report = outcome.expect("a kill is not a run error");
            assert_eq!(report.serve.crashes, 1, "{}", report.summary());
            assert_anchors_on_disk(&recording);
            // The crashed epoch's counters are read after its exit
            // handoff: they cover every event in the file.
            let shard0 = report
                .serve
                .shards
                .iter()
                .find(|s| s.shard == 0)
                .expect("shard 0 report");
            assert!(shard0.crashed);
            assert_eq!(shard0.events_recorded, recording.events.len() as u64);
            assert_eq!(shard0.events_dropped, 0);
        }
    }

    #[test]
    fn summary_renders_every_section() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let mut config = SwarmConfig::new(
            ProtocolKind::Gamma { k: 4 },
            8,
            4,
            params,
            Duration::from_micros(200),
        );
        config.oracle_sample = 1;
        let report = run_swarm(&config).expect("swarm");
        let text = report.summary();
        assert!(text.contains("sessions  :"), "{text}");
        assert!(text.contains("latency   :"), "{text}");
        assert!(text.contains("shard"), "{text}");
        assert!(text.contains("oracle    :"), "{text}");
    }
}
