//! The load generator: at most one thread per processor (never one per
//! session), each hosting a contiguous range of sessions.
//!
//! A generator thread hosts its sessions' transmitter automata, built with the
//! public `rstp_core` constructors as `rstp_net::run_transmitter` does.
//! Each transmitter steps at the server's `Pace::Slow` gap on the public
//! [`TimerWheel`], and every step first applies the frames delivered to
//! its session as `recv` inputs, as `rstp_net::run_endpoint` does. The
//! generator shares the server's [`TickClock`], so send stamps, lateness
//! and the server's write ticks are on one time base.
//!
//! Arrivals are open loop: session `i` takes its first step at its
//! scheduled tick whatever the server is doing, and each step's lateness
//! is measured from the tick it was due.

use crate::stats::MicrosHist;
use rstp_automata::Automaton;
use rstp_core::{Packet, RstpAction, SessionId};
use rstp_net::{decode_any, peek_session, TickClock, Transport, WireCodec, FRAME_BUF_CAP};
use rstp_serve::{HubClientTransport, TimerWheel};
use std::hint::black_box;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How one generator thread reaches the server.
pub enum Port {
    /// One `MemHub` client transport per hosted session, in order.
    Mem(Vec<HubClientTransport>),
    /// One nonblocking UDP socket for every hosted session.
    Udp {
        /// The generator's socket.
        socket: UdpSocket,
        /// The server's address.
        server: SocketAddr,
    },
}

/// Everything the generator measured in one round.
#[derive(Clone, Debug, Default)]
pub struct GenReport {
    /// Per hosted session, in order: µs of its first data send.
    pub first_send_micros: Vec<Option<u64>>,
    /// Local transmitter steps taken.
    pub steps: u64,
    /// Per step: µs between the tick it was due and when it ran.
    pub late_us: MicrosHist,
    /// Wheel `schedule` calls.
    pub scheduled: u64,
    /// Wheel entries fired by `advance`.
    pub fired: u64,
    /// Traced only: ns in `Automaton::enabled` + `step` for local steps.
    pub step_ns: u64,
    /// Traced only: ns in transport sends, and their count.
    pub send_ns: u64,
    /// Transport sends.
    pub sends: u64,
    /// Traced only: ns in transport polls.
    pub poll_ns: u64,
    /// Transport polls (`poll_recv` or `recv_from` calls).
    pub polls: u64,
    /// Polls that returned nothing.
    pub empty_polls: u64,
    /// Traced only: ns in `WireCodec::encode_with_session`, and calls.
    pub encode_ns: u64,
    /// Encodes timed.
    pub encodes: u64,
    /// Traced only: ns in `decode_any`, and calls.
    pub decode_ns: u64,
    /// Decodes timed.
    pub decodes: u64,
    /// Traced only: ns in `TimerWheel::schedule`.
    pub schedule_ns: u64,
    /// Traced only: ns in `TimerWheel::advance`.
    pub advance_ns: u64,
}

/// One hosted transmitter.
struct Hosted<A: Automaton> {
    automaton: A,
    state: A::State,
    pending: Vec<Packet>,
    seq: u64,
}

/// Longest single sleep, so a stop request is seen promptly.
const MAX_NAP: Duration = Duration::from_millis(5);

/// Nanoseconds since `start`.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Merges the reports of generator threads that hosted consecutive
/// session ranges, in range order.
#[must_use]
pub fn merge(parts: Vec<GenReport>) -> GenReport {
    let mut all = GenReport::default();
    for p in parts {
        all.first_send_micros.extend(p.first_send_micros);
        all.late_us.merge(&p.late_us);
        for (sum, part) in [
            (&mut all.steps, p.steps),
            (&mut all.scheduled, p.scheduled),
            (&mut all.fired, p.fired),
            (&mut all.step_ns, p.step_ns),
            (&mut all.send_ns, p.send_ns),
            (&mut all.sends, p.sends),
            (&mut all.poll_ns, p.poll_ns),
            (&mut all.polls, p.polls),
            (&mut all.empty_polls, p.empty_polls),
            (&mut all.encode_ns, p.encode_ns),
            (&mut all.encodes, p.encodes),
            (&mut all.decode_ns, p.decode_ns),
            (&mut all.decodes, p.decodes),
            (&mut all.schedule_ns, p.schedule_ns),
            (&mut all.advance_ns, p.advance_ns),
        ] {
            *sum += part;
        }
    }
    all
}

/// Runs every transmitter in `txs` (session ids `base + 1..=base + len`)
/// until all are quiescent or `stop` is raised. `starts[i]` is the first
/// due tick of the `i`-th of them; `gap` is the step gap in ticks. Every
/// step falls `phase` after its tick on the shared clock, so generator
/// and server wheels do not wake at the same instant.
///
/// # Errors
///
/// A transport failure, an automaton rejecting a step, or more than one
/// enabled action (a determinism violation).
#[allow(clippy::too_many_arguments)]
pub fn run<A: Automaton<Action = RstpAction>>(
    base: usize,
    txs: Vec<A>,
    codec: WireCodec,
    port: &mut Port,
    clock: TickClock,
    phase: Duration,
    starts: &[u64],
    gap: u64,
    traced: bool,
    stop: &AtomicBool,
) -> Result<GenReport, String> {
    let tick_micros = u64::try_from(clock.tick().as_micros()).unwrap_or(1).max(1);
    let phase_micros = u64::try_from(phase.as_micros()).unwrap_or(0);
    let mut hosted: Vec<Hosted<A>> = txs
        .into_iter()
        .map(|automaton| Hosted {
            state: automaton.initial_state(),
            automaton,
            pending: Vec::new(),
            seq: 0,
        })
        .collect();
    let mut report = GenReport {
        first_send_micros: vec![None; hosted.len()],
        ..GenReport::default()
    };
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    for (i, &start) in starts.iter().enumerate().take(hosted.len()) {
        wheel.schedule(start, i);
        report.scheduled += 1;
    }
    let mut due: Vec<(u64, usize)> = Vec::new();
    let mut buf = [0u8; FRAME_BUF_CAP];

    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(next) = wheel.next_due() else {
            break;
        };
        let deadline = clock.instant_of_tick(next) + phase;
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep((deadline - now).min(MAX_NAP));
            continue;
        }
        let now_tick = clock.now_micros().saturating_sub(phase_micros) / tick_micros;
        let t = traced.then(Instant::now);
        wheel.advance(now_tick, &mut due);
        if let Some(t) = t {
            report.advance_ns += ns_since(t);
        }
        report.fired += due.len() as u64;

        if let Port::Udp { socket, .. } = port {
            drain_socket(socket, &mut buf, base, &mut hosted, &mut report, traced)?;
        }

        for (due_tick, i) in due.drain(..) {
            let Some(h) = hosted.get_mut(i) else {
                continue;
            };
            let id = SessionId::new(u32::try_from(base + i + 1).map_err(|e| e.to_string())?);
            let stamp = clock.now_micros();
            report
                .late_us
                .record(stamp.saturating_sub(due_tick * tick_micros + phase_micros));

            if let Port::Mem(ends) = port {
                let end = ends.get_mut(i).ok_or("missing hub client")?;
                loop {
                    let t = traced.then(Instant::now);
                    let got = end.poll_recv().map_err(|e| e.to_string())?;
                    if let Some(t) = t {
                        report.poll_ns += ns_since(t);
                    }
                    report.polls += 1;
                    match got {
                        Some(frame) => h.pending.push(frame.packet),
                        None => {
                            report.empty_polls += 1;
                            break;
                        }
                    }
                }
            }
            for packet in h.pending.drain(..) {
                h.state = h
                    .automaton
                    .step(&h.state, &RstpAction::Recv(packet))
                    .map_err(|e| format!("session {id}: recv rejected: {e}"))?;
            }

            let t = traced.then(Instant::now);
            let enabled = h.automaton.enabled(&h.state);
            let action = match enabled.as_slice() {
                [] => None,
                [a] => Some(*a),
                many => return Err(format!("session {id}: {} enabled actions", many.len())),
            };
            let Some(action) = action else {
                // Quiescent: the whole input is sent (and acknowledged).
                continue;
            };
            h.state = h
                .automaton
                .step(&h.state, &action)
                .map_err(|e| format!("session {id}: step rejected: {e}"))?;
            if let Some(t) = t {
                report.step_ns += ns_since(t);
            }
            report.steps += 1;

            if let RstpAction::Send(packet) = action {
                if matches!(packet, Packet::Data(_)) {
                    report.first_send_micros[i].get_or_insert(stamp);
                }
                send(port, i, id, h, codec, packet, stamp, traced, &mut report)?;
            }

            let mut next = due_tick + gap;
            if now_tick > next + gap {
                // After a stall longer than a whole gap, re-anchor from
                // now instead of bursting the missed steps faster than c1.
                next = now_tick;
            }
            let t = traced.then(Instant::now);
            wheel.schedule(next, i);
            if let Some(t) = t {
                report.schedule_ns += ns_since(t);
            }
            report.scheduled += 1;
        }
    }
    Ok(report)
}

/// Sends one packet for session `i`, timing the transport call (and, on
/// the hub, a stand-alone encode/decode of the same frame, since the hub
/// client encodes internally).
#[allow(clippy::too_many_arguments)]
fn send<A: Automaton>(
    port: &mut Port,
    i: usize,
    id: SessionId,
    h: &mut Hosted<A>,
    codec: WireCodec,
    packet: Packet,
    stamp: u64,
    traced: bool,
    report: &mut GenReport,
) -> Result<(), String> {
    match port {
        Port::Mem(ends) => {
            let end = ends.get_mut(i).ok_or("missing hub client")?;
            let t = traced.then(Instant::now);
            end.send(packet, stamp).map_err(|e| e.to_string())?;
            if let Some(t) = t {
                report.send_ns += ns_since(t);
                let t = Instant::now();
                let bytes = black_box(codec.encode_with_session(packet, h.seq, stamp, id));
                report.encode_ns += ns_since(t);
                report.encodes += 1;
                let t = Instant::now();
                let _ = black_box(decode_any(&bytes));
                report.decode_ns += ns_since(t);
                report.decodes += 1;
            }
        }
        Port::Udp { socket, server } => {
            let t = traced.then(Instant::now);
            let bytes = codec.encode_with_session(packet, h.seq, stamp, id);
            if let Some(t) = t {
                report.encode_ns += ns_since(t);
                report.encodes += 1;
            }
            let t = traced.then(Instant::now);
            match socket.send_to(&bytes, *server) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return Err(format!("session {id}: generator socket full"));
                }
                Err(e) => return Err(e.to_string()),
            }
            if let Some(t) = t {
                report.send_ns += ns_since(t);
            }
        }
    }
    h.seq += 1;
    report.sends += 1;
    Ok(())
}

/// Drains the generator's UDP socket, routing each frame by its wire v2
/// session id to that session's pending inputs.
fn drain_socket<A: Automaton>(
    socket: &UdpSocket,
    buf: &mut [u8; FRAME_BUF_CAP],
    base: usize,
    hosted: &mut [Hosted<A>],
    report: &mut GenReport,
    traced: bool,
) -> Result<(), String> {
    loop {
        let t = traced.then(Instant::now);
        let got = socket.recv_from(buf);
        if let Some(t) = t {
            report.poll_ns += ns_since(t);
        }
        report.polls += 1;
        let len = match got {
            Ok((len, _)) => len,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                report.empty_polls += 1;
                return Ok(());
            }
            Err(e) => return Err(e.to_string()),
        };
        let bytes = buf.get(..len).ok_or("datagram longer than its buffer")?;
        let Some(id) = peek_session(bytes) else {
            return Err("generator received a frame without a session".into());
        };
        let t = traced.then(Instant::now);
        let frame = decode_any(bytes).map_err(|e| format!("generator decode: {e}"))?;
        if let Some(t) = t {
            report.decode_ns += ns_since(t);
            report.decodes += 1;
        }
        let slot = usize::try_from(id.raw())
            .ok()
            .and_then(|raw| raw.checked_sub(base + 1))
            .and_then(|i| hosted.get_mut(i))
            .ok_or_else(|| format!("frame for unknown session {id}"))?;
        slot.pending.push(frame.packet);
    }
}
