//! The shard worker: one thread, one slice of the session table, one
//! timer wheel.
//!
//! A shard owns every session hashed to it — no other thread touches
//! their automata, so the data path takes no locks. Ingress arrives on a
//! *bounded* channel (the server drops, never blocks, when it is full:
//! an admitted session may lose a frame, which the protocols already
//! tolerate, but it is never stalled past its `c2` window by a slow
//! neighbour). Pacing uses the hierarchical [`TimerWheel`] instead of
//! one sleeping thread per session; the miss/violation accounting
//! mirrors `rstp_net`'s single-session driver exactly, deadline by
//! deadline, so a 256-session swarm is held to the same `[c1, c2]`
//! standard as a lone endpoint.
//!
//! The shard wakes only at deadlines. It sleeps to the wheel's next one
//! through [`TickClock::sleep_until`], drains its queue without
//! blocking, and fires what is due. Ingress never wakes it: in the
//! paper's model a delivered packet is a `recv` input applied at the
//! receiver's next local step, so a frame has nothing to do before its
//! session's deadline. The queue therefore has to hold one tick plus
//! the wake's lateness worth of the shard's ingress.

use crate::endpoint::{receiver_endpoint, SessionEndpoint, StepEffect};
use crate::metrics::{SessionStats, ShardReport};
use crate::server::{EgressSink, PumpMsg, SessionSpec};
use crate::snapshot::SessionSnapshot;
use crate::wheel::TimerWheel;
use rstp_core::{SessionId, TimingParams};
use rstp_net::{
    codec_for, decode_control, encode_control, ControlFrame, ControlKind, Frame, FrameBuf,
    NetError, Pace, TickClock, WireCodec,
};
use rstp_record::{Event, FrameDir, ShardRecorder};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A recovered session the server hands a restarted shard: the spec, a
/// restored endpoint (snapshot + event replay already applied), and the
/// outgoing sequence number to continue from.
pub struct ResumeSession {
    pub(crate) spec: SessionSpec,
    pub(crate) endpoint: Box<dyn SessionEndpoint>,
    pub(crate) seq: u64,
}

/// What the server sends a shard over its bounded ingress queue.
pub enum ShardMsg {
    /// Take ownership of a new session.
    Admit(SessionSpec),
    /// A decoded frame for a session this shard owns.
    Frame(SessionId, Frame),
    /// An encoded wire-v3 control frame: the pair-wise handover protocol
    /// (DRAIN → SNAPSHOT → SNAPSHOT_ACK → REDIRECT).
    Control(Vec<u8>),
    /// Injected fault: stop as if the shard's process segment died —
    /// live sessions are discarded (completed verdicts survive) and the
    /// thread returns its report with `crashed` set.
    Crash,
    /// Injected fault: panic the shard thread outright.
    Panic,
    /// Crash recovery: adopt a session re-created from the flight
    /// recording.
    Resume(Box<ResumeSession>),
    /// Finish up: account remaining sessions as unfinished and return.
    Shutdown,
}

/// First handover retry after this many step gaps without an ack.
const HANDOVER_BASE_BACKOFF_GAPS: u64 = 8;
/// Retry backoff doubles per attempt, capped at this many gaps.
const HANDOVER_MAX_BACKOFF_GAPS: u64 = 64;
/// Snapshot attempts before the source gives up and resumes locally.
const HANDOVER_MAX_ATTEMPTS: u32 = 4;
/// A provisionally adopted session is dropped if no REDIRECT activates
/// it within this many step gaps (the source has resumed locally by
/// then; keeping the copy would risk a dual-active session).
const PROVISIONAL_TTL_GAPS: u64 = 512;

/// An in-flight handover on the source side.
struct PendingHandover {
    idx: usize,
    session: u32,
    target: usize,
    attempts: u32,
    backoff_gaps: u64,
    next_retry_tick: u64,
}

/// Static configuration a shard runs under (crate-internal; the public
/// surface is [`crate::ServeConfig`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardParams {
    pub index: usize,
    pub params: TimingParams,
    pub tick: Duration,
    pub pace: Pace,
    pub slack: Duration,
    pub grace_ticks: u64,
    pub batch: usize,
}

/// One live session owned by a shard.
struct Live {
    spec: SessionSpec,
    endpoint: Box<dyn SessionEndpoint>,
    codec: WireCodec,
    seq: u64,
    /// Frames delivered but not yet applied — they become `recv` inputs
    /// at the session's next paced step, mirroring the driver's
    /// drain-before-step ordering.
    pending: VecDeque<Frame>,
    /// Mid-handover: deadlines are reported as migrated, not stepped.
    paused: bool,
    prev_wake: Option<Instant>,
    idle_streak: u64,
    steps: u64,
    recvs: u64,
    sends: u64,
    last_write_tick: Option<u64>,
    /// Injected-fault builds only: one in-flight frame held back to
    /// overlap adjacent δ2 bursts (see [`inject_defer`]).
    #[cfg(rstp_check_inject_ack_bug)]
    defer: Option<(u8, Frame)>,
}

impl Live {
    /// The session's full state as a handover/recovery snapshot.
    fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.spec.id.raw(),
            kind: self.spec.kind,
            n: u32::try_from(self.spec.n).unwrap_or(u32::MAX),
            seq: self.seq,
            written: self.endpoint.written().to_vec(),
            state: self.endpoint.state_bytes(),
        }
    }

    fn stats(&self, completed: bool) -> SessionStats {
        SessionStats {
            id: self.spec.id,
            protocol: self.spec.kind.name(),
            n: self.spec.n,
            written: self.endpoint.written().to_vec(),
            steps: self.steps,
            recvs: self.recvs,
            sends: self.sends,
            last_write_tick: self.last_write_tick,
            completed,
        }
    }
}

/// Runs one shard until it is told to shut down (or the server side of
/// its queue disappears). Returns the shard's full report.
pub(crate) fn run_shard(
    sp: ShardParams,
    clock: TickClock,
    rx: Receiver<ShardMsg>,
    mut egress: Box<dyn EgressSink>,
    completed_total: Arc<AtomicU64>,
    mut recorder: Option<ShardRecorder>,
    pump: Sender<PumpMsg>,
) -> Result<ShardReport, NetError> {
    #[cfg(rstp_check_inject_ack_bug)]
    let inject_delta2 = sp.params.delta2();
    let gap_ticks = sp.pace.gap_ticks(sp.params).max(1);
    let tick_micros = sp.tick.as_micros().max(1) as u64;
    let lo = (sp.tick * u32::try_from(sp.params.c1().ticks()).unwrap_or(u32::MAX))
        .saturating_sub(sp.slack);
    let hi = sp.tick * u32::try_from(sp.params.c2().ticks()).unwrap_or(u32::MAX) + sp.slack;
    let idle_steps_needed = sp.grace_ticks.div_ceil(gap_ticks).max(1);

    let mut report = ShardReport::new(sp.index);
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    let mut sessions: Vec<Option<Live>> = Vec::new();
    let mut by_id: HashMap<u32, usize> = HashMap::new();
    let mut due: Vec<(u64, usize)> = Vec::new();
    let mut out_buf: Vec<(u32, FrameBuf)> = Vec::new();
    // Handover bookkeeping, both directions. Source side: sessions
    // paused awaiting a SNAPSHOT_ACK. Target side: provisionally adopted
    // sessions awaiting their REDIRECT, with a drop deadline.
    let mut pending_handover: Vec<PendingHandover> = Vec::new();
    let mut provisional: Vec<(usize, u64)> = Vec::new();
    // Completed sessions, kept as ghost re-ackers: a late duplicate
    // still gets its acknowledgement (the paper's receiver never
    // terminates), so a client whose final ack was lost — or whose
    // thread the scheduler stalled past this shard's quiet grace — can
    // still finish. Ghosts hold no wheel deadlines and cost nothing
    // until a frame actually arrives for them.
    let mut retired: HashMap<u32, Live> = HashMap::new();
    let now_tick = |clock: &TickClock| clock.now_micros() / tick_micros;

    'run: loop {
        // Sleep to the next deadline, or one gap when no session is live
        // (see the module doc for why ingress does not wake the shard).
        let target = wheel.next_due().unwrap_or(wheel.now() + gap_ticks);
        clock.sleep_until(clock.instant_of_tick(target));
        report.wakes += 1;
        loop {
            let msg = match rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'run,
            };
            match msg {
                ShardMsg::Admit(spec) => {
                    let endpoint = receiver_endpoint(spec.kind, sp.params, spec.n)?;
                    let codec = codec_for(spec.kind)?;
                    let live = Live {
                        spec,
                        endpoint,
                        codec,
                        seq: 0,
                        pending: VecDeque::new(),
                        paused: false,
                        prev_wake: None,
                        idle_streak: 0,
                        steps: 0,
                        recvs: 0,
                        sends: 0,
                        last_write_tick: None,
                        #[cfg(rstp_check_inject_ack_bug)]
                        defer: None,
                    };
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(spec.id.raw(), idx);
                    // First step strictly in the future, like the
                    // driver's epoch anchor — an overdue first deadline
                    // would book a spurious miss at admission.
                    wheel.schedule(now_tick(&clock) + 1, idx);
                    report.admitted += 1;
                    if let Some(r) = recorder.as_mut() {
                        r.record_durable(Event::Admit {
                            at_micros: clock.now_micros(),
                            session: spec.id.raw(),
                            kind: spec.kind,
                            n: u32::try_from(spec.n).unwrap_or(u32::MAX),
                        });
                        // Snapshot-on-admit: the recovery anchor a
                        // restarted shard replays forward from.
                        if let Some(live) = sessions.get(idx).and_then(Option::as_ref) {
                            r.record_durable(Event::Snapshot {
                                at_micros: clock.now_micros(),
                                session: spec.id.raw(),
                                state: live.snapshot().encode(),
                            });
                        }
                    }
                }
                ShardMsg::Frame(id, frame) => {
                    if let Some(&idx) = by_id.get(&id.raw()) {
                        if let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) {
                            live.pending.push_back(frame);
                        }
                    } else if let Some(ghost) = retired.get_mut(&id.raw()) {
                        // A duplicate for a completed session: re-ack it
                        // at this wake. The session has no deadlines
                        // left, and answering a retransmission is the
                        // channel's business, not the [c1, c2] step
                        // schedule's. A ghost must never take down the
                        // shard, so automaton errors end the exchange
                        // instead of propagating.
                        if ghost.endpoint.apply_recv(frame.packet).is_ok() {
                            for _ in 0..4 {
                                match ghost.endpoint.step() {
                                    Ok(StepEffect::Sent(p)) => {
                                        let stamp = clock.now_micros();
                                        let bytes = ghost.codec.encode_with_session(
                                            p,
                                            ghost.seq,
                                            stamp,
                                            ghost.spec.id,
                                        );
                                        ghost.seq += 1;
                                        out_buf.push((ghost.spec.id.raw(), bytes.into()));
                                        report.reacked += 1;
                                    }
                                    Ok(StepEffect::Waited) => {}
                                    Ok(_) | Err(_) => break,
                                }
                            }
                        }
                    }
                    // Unknown id: trailing traffic for a session that
                    // completed on another epoch or shard. Dropped, like
                    // the driver ignoring frames after its grace period.
                }
                ShardMsg::Control(bytes) => {
                    handle_control(
                        &bytes,
                        &sp,
                        &clock,
                        &pump,
                        recorder.as_mut(),
                        &mut report,
                        &mut sessions,
                        &mut by_id,
                        &mut wheel,
                        &mut pending_handover,
                        &mut provisional,
                        now_tick(&clock),
                        gap_ticks,
                    );
                }
                ShardMsg::Resume(resume) => {
                    let rs = *resume;
                    let codec = codec_for(rs.spec.kind)?;
                    let live = Live {
                        spec: rs.spec,
                        endpoint: rs.endpoint,
                        codec,
                        seq: rs.seq,
                        pending: VecDeque::new(),
                        paused: false,
                        prev_wake: None,
                        idle_streak: 0,
                        steps: 0,
                        recvs: 0,
                        sends: 0,
                        last_write_tick: None,
                        #[cfg(rstp_check_inject_ack_bug)]
                        defer: None,
                    };
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(rs.spec.id.raw(), idx);
                    wheel.schedule(now_tick(&clock) + 1, idx);
                    report.adopted += 1;
                    if let Some(r) = recorder.as_mut() {
                        if let Some(live) = sessions.get(idx).and_then(Option::as_ref) {
                            // A fresh anchor, so a *second* crash can
                            // recover without replaying the first life.
                            r.record_durable(Event::Admit {
                                at_micros: clock.now_micros(),
                                session: rs.spec.id.raw(),
                                kind: rs.spec.kind,
                                n: u32::try_from(rs.spec.n).unwrap_or(u32::MAX),
                            });
                            r.record_durable(Event::Snapshot {
                                at_micros: clock.now_micros(),
                                session: rs.spec.id.raw(),
                                state: live.snapshot().encode(),
                            });
                        }
                    }
                }
                ShardMsg::Crash => {
                    // The scripted crash: drop live sessions without
                    // verdicts, keep everything already completed, and
                    // return. Recovery is the server's job.
                    report.crashed = true;
                    sessions.clear();
                    by_id.clear();
                    retired.clear();
                    break 'run;
                }
                ShardMsg::Panic => {
                    panic!("rstp-serve shard {}: injected panic fault", sp.index);
                }
                ShardMsg::Shutdown => break 'run,
            }
        }

        // Handover housekeeping: resend unacked snapshots (capped
        // exponential backoff, then local resume) and drop provisional
        // adoptions whose REDIRECT never came.
        let now = now_tick(&clock);
        sweep_handover(
            &sp,
            &pump,
            &mut report,
            &mut sessions,
            &mut by_id,
            &mut wheel,
            &mut pending_handover,
            &mut provisional,
            now,
            gap_ticks,
        );

        // Fire every deadline up to now.
        wheel.advance(now, &mut due);
        for (due_tick, idx) in due.drain(..) {
            let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };

            // A deadline for a mid-handover session is *migrated*: the
            // target re-anchors its own schedule on activation, so the
            // deadline is accounted for, never silently dropped — and
            // never stepped here, which would fork the automaton.
            if live.paused {
                report.deadlines_migrated += 1;
                continue;
            }

            // Accounting identical to the single-session driver: a late
            // wake is one deadline miss and poisons the adjacent gap
            // measurements; a punctual wake's distance from the previous
            // punctual wake must sit inside [c1·tick − slack, c2·tick + slack].
            // This is the deadline's only clock read: every stamp of the
            // step below is taken from it.
            let wake = Instant::now();
            let wake_micros = clock.micros_at(wake);
            let overshoot = wake.saturating_duration_since(clock.instant_of_tick(due_tick));
            let late = overshoot > sp.slack;
            if late {
                report.deadline_misses += 1;
            } else if let Some(prev) = live.prev_wake {
                let observed = wake.saturating_duration_since(prev);
                if observed < lo || observed > hi {
                    report.timing_violations += 1;
                }
            }
            live.prev_wake = (!late).then_some(wake);
            if let Some(r) = recorder.as_mut() {
                r.record(Event::WheelPop {
                    at_micros: wake_micros,
                    session: live.spec.id.raw(),
                    due_tick,
                    late,
                });
                if late {
                    r.record(Event::DeadlineMiss {
                        at_micros: wake_micros,
                        session: live.spec.id.raw(),
                        due_tick,
                    });
                }
            }

            #[cfg(rstp_check_inject_ack_bug)]
            inject_defer(live, inject_delta2);

            // Drain delivered frames as recv inputs before the local
            // step (inputs are channel outputs, not clocked).
            let received_any = !live.pending.is_empty();
            while let Some(frame) = live.pending.pop_front() {
                if let Some(r) = recorder.as_mut() {
                    // Re-encode canonically: byte-identical to the wire,
                    // so the recording carries full frames, not summaries.
                    let wire = live.codec.encode_with_session(
                        frame.packet,
                        frame.seq,
                        frame.sent_at_micros,
                        live.spec.id,
                    );
                    r.record_frame(FrameDir::Rx, wake_micros, live.spec.id.raw(), &wire);
                }
                live.endpoint.apply_recv(frame.packet)?;
                report
                    .latency
                    .record(wake_micros.saturating_sub(frame.sent_at_micros));
                live.recvs += 1;
                report.frames_received += 1;
            }

            // The unique enabled local action.
            let effect = live.endpoint.step()?;
            if effect != StepEffect::Quiescent {
                live.steps += 1;
                report.steps += 1;
            }
            let mut productive = received_any;
            match effect {
                StepEffect::Sent(p) => {
                    let bytes =
                        live.codec
                            .encode_with_session(p, live.seq, wake_micros, live.spec.id);
                    if let Some(r) = recorder.as_mut() {
                        r.record_frame(FrameDir::Tx, wake_micros, live.spec.id.raw(), &bytes);
                    }
                    live.seq += 1;
                    out_buf.push((live.spec.id.raw(), bytes.into()));
                    live.sends += 1;
                    productive = true;
                }
                StepEffect::Wrote(m) => {
                    live.last_write_tick = Some(due_tick);
                    if let Some(r) = recorder.as_mut() {
                        // The acknowledged-output ledger: cumulative
                        // count plus the bit, so the no-acknowledged-
                        // loss oracle can check Y's *content* prefix
                        // across a crash, not just its length.
                        r.record(Event::Write {
                            at_micros: wake_micros,
                            session: live.spec.id.raw(),
                            written: live.endpoint.written().len() as u64,
                            bit: m,
                        });
                    }
                    productive = true;
                }
                StepEffect::Waited => productive = true,
                StepEffect::Idled | StepEffect::Quiescent => {}
            }

            // Completion: all writes in and a full grace period of quiet.
            let writes_done = live.endpoint.written().len() >= live.spec.n;
            if productive || !writes_done {
                live.idle_streak = 0;
            } else {
                live.idle_streak += 1;
                if live.idle_streak >= idle_steps_needed {
                    // `live` borrows this same slot, so it is occupied;
                    // a vacant slot just means nothing to retire.
                    let Some(done) = sessions.get_mut(idx).and_then(Option::take) else {
                        continue;
                    };
                    by_id.remove(&done.spec.id.raw());
                    report.completed += 1;
                    let stats = done.stats(true);
                    if let Some(r) = recorder.as_mut() {
                        r.record_durable(Event::Verdict {
                            at_micros: wake_micros,
                            session: stats.id.raw(),
                            completed: true,
                            written: stats.written.clone(),
                        });
                    }
                    report.sessions.push(stats);
                    completed_total.fetch_add(1, Ordering::Relaxed);
                    // Retire, don't discard: the paper's receiver never
                    // stops acknowledging, and the final ack can be
                    // lost or its client stalled past our grace by the
                    // scheduler. Late duplicates find the ghost below.
                    retired.insert(done.spec.id.raw(), done);
                    continue;
                }
            }

            // Reschedule; after a stall longer than a whole gap,
            // re-anchor from now rather than replaying missed deadlines
            // back-to-back faster than c1.
            let mut next = due_tick + gap_ticks;
            let now = wake_micros / tick_micros;
            if now > next + gap_ticks {
                next = now;
                live.prev_wake = None;
            }
            wheel.schedule(next, idx);
        }

        // Flush egress in batches of B frames per call.
        for chunk in out_buf.chunks(sp.batch.max(1)) {
            report.frames_sent += egress.send_batch(chunk)? as u64;
        }
        out_buf.clear();

        // This wake's recorder events go to the writer in one handoff;
        // a busy writer leaves them batched for the next wake.
        if let Some(r) = recorder.as_mut() {
            r.handoff();
        }
    }

    // Account whatever is still open.
    for slot in sessions.into_iter().flatten() {
        report.unfinished += 1;
        let stats = slot.stats(false);
        if let Some(r) = recorder.as_mut() {
            r.record_durable(Event::Verdict {
                at_micros: clock.now_micros(),
                session: stats.id.raw(),
                completed: false,
                written: stats.written.clone(),
            });
        }
        report.sessions.push(stats);
    }
    if let Some(r) = recorder.as_mut() {
        // The exit handoff first, so the counters include the last
        // batch. A shard leaving early — an error, a panic — hands its
        // batch over when the recorder drops.
        r.final_handoff();
        report.events_recorded = r.recorded();
        report.events_dropped = r.dropped();
    }
    Ok(report)
}

/// Places `live` in the first free slot (or a new one) and returns its
/// index.
fn insert_live(sessions: &mut Vec<Option<Live>>, live: Live) -> usize {
    let idx = match sessions.iter().position(Option::is_none) {
        Some(free) => free,
        None => {
            sessions.push(None);
            sessions.len() - 1
        }
    };
    if let Some(slot) = sessions.get_mut(idx) {
        *slot = Some(live);
    }
    idx
}

/// The shard-index payload (a big-endian `u32`) every handover frame
/// carries.
fn shard_payload(shard: usize) -> Vec<u8> {
    u32::try_from(shard)
        .unwrap_or(u32::MAX)
        .to_be_bytes()
        .to_vec()
}

fn payload_shard(payload: &[u8]) -> Option<usize> {
    payload
        .get(..4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

/// Ships one SNAPSHOT frame (source shard, then the session snapshot)
/// toward `target` via the pump. `false` when the snapshot exceeds the
/// control payload cap or the pump is gone — the caller falls back to
/// local resume.
fn send_snapshot(pump: &Sender<PumpMsg>, src: usize, target: usize, live: &Live) -> bool {
    let mut payload = shard_payload(src);
    payload.extend_from_slice(&live.snapshot().encode());
    let frame = ControlFrame {
        kind: ControlKind::Snapshot,
        session: live.spec.id,
        payload,
    };
    match encode_control(&frame) {
        Ok(bytes) => pump
            .send(PumpMsg::ToShard {
                shard: target,
                bytes,
            })
            .is_ok(),
        Err(_) => false,
    }
}

fn send_ack(pump: &Sender<PumpMsg>, own: usize, src: usize, session: u32) {
    let frame = ControlFrame {
        kind: ControlKind::SnapshotAck,
        session: SessionId::new(session),
        payload: shard_payload(own),
    };
    if let Ok(bytes) = encode_control(&frame) {
        let _ = pump.send(PumpMsg::ToShard { shard: src, bytes });
    }
}

/// One incoming control frame: the four corners of the handover
/// protocol. Corrupt or stale frames are ignored — the retry/TTL
/// machinery recovers, and a shard must never die on peer input.
#[allow(clippy::too_many_arguments)]
fn handle_control(
    bytes: &[u8],
    sp: &ShardParams,
    clock: &TickClock,
    pump: &Sender<PumpMsg>,
    recorder: Option<&mut ShardRecorder>,
    report: &mut ShardReport,
    sessions: &mut Vec<Option<Live>>,
    by_id: &mut HashMap<u32, usize>,
    wheel: &mut TimerWheel<usize>,
    pending_handover: &mut Vec<PendingHandover>,
    provisional: &mut Vec<(usize, u64)>,
    now: u64,
    gap_ticks: u64,
) {
    let Ok(frame) = decode_control(bytes) else {
        return;
    };
    match frame.kind {
        ControlKind::Drain => {
            // Source side: pause every live session and offer each to
            // the target. Paused sessions stop stepping immediately;
            // their deadlines are reported as migrated.
            let Some(target) = payload_shard(&frame.payload) else {
                return;
            };
            if target == sp.index {
                return;
            }
            for (idx, slot) in sessions.iter_mut().enumerate() {
                let Some(live) = slot.as_mut() else { continue };
                if live.paused {
                    continue;
                }
                live.paused = true;
                if send_snapshot(pump, sp.index, target, live) {
                    pending_handover.push(PendingHandover {
                        idx,
                        session: live.spec.id.raw(),
                        target,
                        attempts: 1,
                        backoff_gaps: HANDOVER_BASE_BACKOFF_GAPS,
                        next_retry_tick: now + HANDOVER_BASE_BACKOFF_GAPS * gap_ticks,
                    });
                } else {
                    // Oversized snapshot or dead pump: keep running
                    // here rather than stranding the session.
                    live.paused = false;
                    report.handover_failed += 1;
                }
            }
        }
        ControlKind::Snapshot => {
            // Target side: restore a provisional copy and acknowledge.
            // It stays paused (frames queue, deadlines don't fire) until
            // the REDIRECT confirms the source has retired its copy.
            let Some(src) = payload_shard(&frame.payload) else {
                return;
            };
            let Ok(snap) = SessionSnapshot::decode(&frame.payload[4..]) else {
                return;
            };
            if snap.session != frame.session.raw() {
                return;
            }
            if by_id.contains_key(&snap.session) {
                // A retry of a snapshot we already hold: re-ack.
                send_ack(pump, sp.index, src, snap.session);
                return;
            }
            let spec = SessionSpec {
                id: SessionId::new(snap.session),
                kind: snap.kind,
                n: snap.n as usize,
            };
            let Ok(endpoint) = crate::endpoint::restore_receiver_endpoint(
                snap.kind,
                sp.params,
                spec.n,
                &snap.state,
                snap.written.clone(),
            ) else {
                return;
            };
            let Ok(codec) = codec_for(snap.kind) else {
                return;
            };
            let live = Live {
                spec,
                endpoint,
                codec,
                seq: snap.seq,
                pending: VecDeque::new(),
                paused: true,
                prev_wake: None,
                idle_streak: 0,
                steps: 0,
                recvs: 0,
                sends: 0,
                last_write_tick: None,
                #[cfg(rstp_check_inject_ack_bug)]
                defer: None,
            };
            let idx = insert_live(sessions, live);
            by_id.insert(snap.session, idx);
            provisional.push((idx, now + PROVISIONAL_TTL_GAPS * gap_ticks));
            if let Some(r) = recorder {
                if let Some(live) = sessions.get(idx).and_then(Option::as_ref) {
                    // Anchor the adopted session in *this* shard's
                    // recording, so a later crash here recovers it.
                    r.record_durable(Event::Admit {
                        at_micros: clock.now_micros(),
                        session: snap.session,
                        kind: snap.kind,
                        n: snap.n,
                    });
                    r.record_durable(Event::Snapshot {
                        at_micros: clock.now_micros(),
                        session: snap.session,
                        state: live.snapshot().encode(),
                    });
                }
            }
            send_ack(pump, sp.index, src, snap.session);
        }
        ControlKind::SnapshotAck => {
            // Source side: the target holds the session. Retire our
            // copy silently (its Y continues over there — no verdict,
            // no stats) and publish the REDIRECT through the pump so
            // routing flips atomically with the activation.
            let Some(pos) = pending_handover
                .iter()
                .position(|p| p.session == frame.session.raw())
            else {
                return; // stale ack (already resumed locally)
            };
            let p = pending_handover.swap_remove(pos);
            let retire = sessions
                .get(p.idx)
                .and_then(Option::as_ref)
                .is_some_and(|l| l.paused && l.spec.id.raw() == p.session);
            if retire {
                if let Some(slot) = sessions.get_mut(p.idx) {
                    *slot = None;
                }
                by_id.remove(&p.session);
                report.handed_off += 1;
            }
            let redirect = ControlFrame {
                kind: ControlKind::Redirect,
                session: SessionId::new(p.session),
                payload: shard_payload(p.target),
            };
            if let Ok(bytes) = encode_control(&redirect) {
                let _ = pump.send(PumpMsg::Redirect { bytes });
            }
        }
        ControlKind::Redirect => {
            // Target side: activation. Re-anchor pacing from now — the
            // deadlines the source reported as migrated resume here.
            let Some(&idx) = by_id.get(&frame.session.raw()) else {
                return;
            };
            if let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) {
                if live.paused {
                    live.paused = false;
                    live.prev_wake = None;
                    wheel.schedule(now + 1, idx);
                    report.adopted += 1;
                }
            }
            provisional.retain(|&(i, _)| i != idx);
        }
    }
}

/// Per-iteration handover housekeeping: source-side retries with capped
/// exponential backoff falling back to local resume, and target-side
/// TTL expiry of provisional adoptions.
#[allow(clippy::too_many_arguments)]
fn sweep_handover(
    sp: &ShardParams,
    pump: &Sender<PumpMsg>,
    report: &mut ShardReport,
    sessions: &mut [Option<Live>],
    by_id: &mut HashMap<u32, usize>,
    wheel: &mut TimerWheel<usize>,
    pending_handover: &mut Vec<PendingHandover>,
    provisional: &mut Vec<(usize, u64)>,
    now: u64,
    gap_ticks: u64,
) {
    pending_handover.retain_mut(|p| {
        if now < p.next_retry_tick {
            return true;
        }
        if p.attempts >= HANDOVER_MAX_ATTEMPTS {
            // Out of retries: the session keeps running here.
            if let Some(live) = sessions.get_mut(p.idx).and_then(Option::as_mut) {
                if live.paused && live.spec.id.raw() == p.session {
                    live.paused = false;
                    live.prev_wake = None;
                    wheel.schedule(now + 1, p.idx);
                }
            }
            report.handover_failed += 1;
            return false;
        }
        p.attempts += 1;
        p.backoff_gaps = (p.backoff_gaps * 2).min(HANDOVER_MAX_BACKOFF_GAPS);
        p.next_retry_tick = now + p.backoff_gaps * gap_ticks;
        if let Some(live) = sessions.get(p.idx).and_then(Option::as_ref) {
            let _ = send_snapshot(pump, sp.index, p.target, live);
        }
        true
    });

    provisional.retain(|&(idx, deadline)| {
        if now < deadline {
            return true;
        }
        // No REDIRECT before the TTL: the source has resumed locally by
        // now. Drop the copy — a dual-active session would fork Y.
        if let Some(slot) = sessions.get_mut(idx) {
            if slot.as_ref().is_some_and(|l| l.paused) {
                if let Some(live) = slot.take() {
                    by_id.remove(&live.spec.id.raw());
                    report.handover_aborted += 1;
                }
            }
        }
        false
    });
}

/// Injected-fault builds only: a channel adversary living in the shard.
///
/// Holds back the *last* data frame of a δ2 burst for up to two pops or
/// until newer traffic arrives, then re-queues it *behind* that traffic.
/// The detour stays within one `[0, d]` delivery window (≤ 2·c2 ticks),
/// so it is a legal reordering of the bounded-delay channel: a correct
/// `A^γ` transmitter waits for all δ2 acks before opening the next
/// burst, and the receiver's multiset decoding is order-insensitive
/// within a burst, so correct builds are unaffected. The seeded
/// early-ack transmitter bug advances one ack short, letting the next
/// burst's frames overtake the held one — a cross-burst misgrouping the
/// count-based receiver decodes into the wrong symbols.
#[cfg(rstp_check_inject_ack_bug)]
fn inject_defer(live: &mut Live, delta2: u64) {
    if let Some((pops, frame)) = live.defer.take() {
        if !live.pending.is_empty() || pops >= 1 {
            live.pending.push_back(frame);
            // Released this pop: no fresh capture until the next one,
            // or the frame just re-queued would be captured again.
            return;
        }
        live.defer = Some((pops + 1, frame));
        return;
    }
    if delta2 <= 1 {
        return;
    }
    if let Some(pos) = live.pending.iter().position(|f| {
        matches!(f.packet, rstp_core::Packet::Data(_)) && f.seq % delta2 == delta2 - 1
    }) {
        if let Some(frame) = live.pending.remove(pos) {
            live.defer = Some((0, frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::Packet;
    use rstp_net::ProtocolId;
    use rstp_sim::ProtocolKind;
    use std::sync::mpsc::{channel, sync_channel};
    use std::thread;

    struct Discard;

    impl EgressSink for Discard {
        fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
            Ok(frames.len())
        }
    }

    /// Runs one paced β(4) session on a shard for `span`, delivering
    /// `frames` frames spread evenly over it, and returns the report.
    fn run_one_session(span: Duration, frames: u32) -> ShardReport {
        let tick = Duration::from_millis(1);
        let sp = ShardParams {
            index: 0,
            params: TimingParams::from_ticks(1, 2, 8).expect("valid"),
            tick,
            pace: Pace::Slow,
            slack: Duration::from_micros(500),
            grace_ticks: 8,
            batch: 16,
        };
        let clock = TickClock::start(tick);
        let (tx, rx) = sync_channel(4096);
        let (pump, _pump_rx) = channel();
        let shard = thread::spawn(move || {
            run_shard(
                sp,
                clock,
                rx,
                Box::new(Discard),
                Arc::new(AtomicU64::new(0)),
                None,
                pump,
            )
        });
        let id = SessionId::new(1);
        let kind = ProtocolKind::Beta { k: 4 };
        tx.send(ShardMsg::Admit(SessionSpec { id, kind, n: 8 }))
            .expect("admit");
        let start = Instant::now();
        for i in 0..frames {
            let due = start + span * i / frames;
            thread::sleep(due.saturating_duration_since(Instant::now()));
            // Out of β(4)'s alphabet: the receiver absorbs it as a decode
            // failure, so the session never completes and stays paced.
            let frame = Frame {
                protocol: ProtocolId::Beta,
                k: 4,
                packet: Packet::Data(99),
                seq: u64::from(i),
                sent_at_micros: clock.now_micros(),
                session: Some(id),
            };
            tx.send(ShardMsg::Frame(id, frame)).expect("frame");
        }
        thread::sleep((start + span).saturating_duration_since(Instant::now()));
        tx.send(ShardMsg::Shutdown).expect("shutdown");
        shard.join().expect("shard thread").expect("shard report")
    }

    #[test]
    fn ingress_does_not_wake_the_shard() {
        // The same paced session twice over the same span: once quiet,
        // once flooded with frames between its deadlines. The shard wakes
        // at deadlines only, so the flood must not add wakes.
        let span = Duration::from_millis(80);
        let quiet = run_one_session(span, 0);
        let flooded = run_one_session(span, 800);
        // Frames still queued at shutdown are never applied.
        assert!(
            flooded.frames_received >= 400,
            "{}",
            flooded.frames_received
        );
        assert!(quiet.wakes > 0);
        assert!(
            flooded.wakes <= quiet.wakes + quiet.wakes / 2 + 4,
            "wakes grew with ingress: {} quiet, {} flooded with 800 frames",
            quiet.wakes,
            flooded.wakes
        );
    }
}
