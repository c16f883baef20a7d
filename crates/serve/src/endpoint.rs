//! Object-safe session endpoints: heterogeneous automata in one table.
//!
//! [`Automaton`] has an associated `State` type, so a shard cannot store
//! `Box<dyn Automaton>` directly. `Driven` pairs a concrete automaton
//! with its current state behind the object-safe [`SessionEndpoint`]
//! trait: `apply_recv` feeds a delivered packet as a `recv` input, `step`
//! fires the unique enabled local action and reports its visible effect.
//! Both transition the state in place through [`Automaton::apply`], so a
//! step costs no copy of the receiver's state.
//! The single-enabled-action determinism check mirrors the real-time
//! driver and the simulator exactly — a shard must not weaken the model
//! just because it runs many sessions.

use rstp_automata::{Automaton, TimeDelta};
use rstp_core::protocols::{Receiver, ReceiverVisitor};
use rstp_core::state_codec::{state_from_bytes, state_to_bytes, StateCodec};
use rstp_core::{InternalKind, Message, Packet, ProtocolKind, RstpAction, TimingParams};
use rstp_net::{codec_for, NetError};

/// The externally visible effect of one local step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEffect {
    /// The automaton sent a packet (to be framed and flushed by the shard).
    Sent(Packet),
    /// The automaton wrote the next output message.
    Wrote(Message),
    /// A counted `wait` step — productive work, not idling.
    Waited,
    /// A pure `idle` step — the endpoint may be done.
    Idled,
    /// No local action is enabled: the automaton has quiesced.
    Quiescent,
}

/// One session's protocol endpoint, statically erased so shards can own a
/// mixed-protocol table.
pub trait SessionEndpoint: Send {
    /// Applies a delivered packet as a `recv` input (input-enabled: this
    /// must succeed in every state for well-formed automata).
    fn apply_recv(&mut self, packet: Packet) -> Result<(), NetError>;

    /// Fires the unique enabled local action, enforcing the paper's
    /// determinism condition (more than one enabled action is a model
    /// bug, reported exactly like the single-session driver does).
    fn step(&mut self) -> Result<StepEffect, NetError>;

    /// Messages written so far — the session's output sequence `Y`.
    fn written(&self) -> &[Message];

    /// The automaton state serialized via the session snapshot codec —
    /// the payload a handover `SNAPSHOT` frame or a crash-recovery
    /// record carries. Paired with [`restore_receiver_endpoint`].
    fn state_bytes(&self) -> Vec<u8>;
}

/// A concrete automaton plus its evolving state.
struct Driven<A: Automaton<Action = RstpAction>> {
    automaton: A,
    state: A::State,
    written: Vec<Message>,
}

impl<A> SessionEndpoint for Driven<A>
where
    A: Automaton<Action = RstpAction> + Send,
    A::State: Send + StateCodec,
{
    fn apply_recv(&mut self, packet: Packet) -> Result<(), NetError> {
        self.automaton
            .apply(&mut self.state, &RstpAction::Recv(packet))
            .map_err(|e| NetError::Automaton {
                what: e.to_string(),
            })
    }

    fn step(&mut self) -> Result<StepEffect, NetError> {
        let enabled = self.automaton.enabled(&self.state);
        let action = match enabled.as_slice() {
            [] => return Ok(StepEffect::Quiescent),
            [a] => *a,
            many => {
                return Err(NetError::Determinism {
                    enabled: many.iter().map(|a| format!("{a:?}")).collect(),
                })
            }
        };
        self.automaton
            .apply(&mut self.state, &action)
            .map_err(|e| NetError::Automaton {
                what: e.to_string(),
            })?;
        Ok(match action {
            RstpAction::Send(p) => StepEffect::Sent(p),
            RstpAction::Write(m) => {
                self.written.push(m);
                StepEffect::Wrote(m)
            }
            RstpAction::TransmitterInternal(k) | RstpAction::ReceiverInternal(k) => {
                if k == InternalKind::Wait {
                    StepEffect::Waited
                } else {
                    StepEffect::Idled
                }
            }
            RstpAction::Recv(_) => {
                return Err(NetError::Automaton {
                    what: "recv reported as a locally controlled action".into(),
                })
            }
        })
    }

    fn written(&self) -> &[Message] {
        &self.written
    }

    fn state_bytes(&self) -> Vec<u8> {
        state_to_bytes(&self.state)
    }
}

/// Boxes a freshly built receiver, in its initial state or in a
/// restored one.
struct Boxed<'a> {
    restore: Option<(&'a [u8], Vec<Message>)>,
}

impl ReceiverVisitor for Boxed<'_> {
    type Output = Result<Box<dyn SessionEndpoint>, NetError>;
    fn visit<R: Receiver>(self, automaton: R) -> Self::Output {
        let (state, written) = match self.restore {
            None => (automaton.initial_state(), Vec::new()),
            Some((bytes, written)) => {
                let state = state_from_bytes(bytes).ok_or_else(|| NetError::Automaton {
                    what: "session snapshot state failed to decode".into(),
                })?;
                (state, written)
            }
        };
        Ok(Box::new(Driven {
            automaton,
            state,
            written,
        }))
    }
}

/// Builds the *receiver* endpoint of `kind` expecting `n` messages — the
/// server side of a transfer (clients run the transmitter through the
/// ordinary single-session driver).
///
/// # Errors
///
/// [`NetError::Unsupported`] for a kind without a wire id (same reason
/// the wire rejects it), or a construction error from the protocol
/// itself.
pub fn receiver_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
) -> Result<Box<dyn SessionEndpoint>, NetError> {
    codec_for(kind)?;
    kind.with_receiver(params, TimeDelta::ZERO, n, Boxed { restore: None })?
}

/// Re-creates a *live* receiver endpoint from serialized automaton
/// state (as produced by [`SessionEndpoint::state_bytes`]) plus the
/// output prefix `written` already committed for the session. This is
/// the adopting side of a handover and the replay anchor of crash
/// recovery.
///
/// # Errors
///
/// [`NetError::Unsupported`] for a kind without a wire id, a
/// construction error from the protocol itself, or
/// [`NetError::Automaton`] when `state` does not decode as `kind`'s
/// receiver state (a corrupted or protocol-mismatched snapshot).
pub fn restore_receiver_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
    state: &[u8],
    written: Vec<Message>,
) -> Result<Box<dyn SessionEndpoint>, NetError> {
    codec_for(kind)?;
    let restore = Some((state, written));
    kind.with_receiver(params, TimeDelta::ZERO, n, Boxed { restore })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SessionSnapshot;
    use rstp_core::protocols::{KindFields, Transmitter, TransmitterVisitor};
    use rstp_record::format::{decode_record, encode_record};
    use rstp_record::{Event, Record};

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).expect("valid")
    }

    #[test]
    fn alpha_receiver_writes_in_symbol_order() {
        let mut ep = receiver_endpoint(ProtocolKind::Alpha, params(), 2).expect("build");
        // Alpha's receiver writes each arriving raw bit in order.
        ep.apply_recv(Packet::Data(1)).expect("recv");
        let eff = ep.step().expect("step");
        assert_eq!(eff, StepEffect::Wrote(true));
        ep.apply_recv(Packet::Data(0)).expect("recv");
        assert_eq!(ep.step().expect("step"), StepEffect::Wrote(false));
        assert_eq!(ep.written(), &[true, false]);
    }

    #[test]
    fn gamma_receiver_acks_each_data_packet() {
        let mut ep = receiver_endpoint(ProtocolKind::Gamma { k: 4 }, params(), 4).expect("build");
        // With nothing received, the receiver idles.
        assert_eq!(ep.step().expect("step"), StepEffect::Idled);
        // After a data packet, the next local step is the ack.
        ep.apply_recv(Packet::Data(0)).expect("recv");
        let eff = ep.step().expect("step");
        assert!(
            matches!(eff, StepEffect::Sent(Packet::Ack(_))),
            "expected an ack, got {eff:?}"
        );
    }

    #[test]
    fn beta_window_is_rejected() {
        let Err(err) = receiver_endpoint(ProtocolKind::BetaWindow { k: 4 }, params(), 1) else {
            panic!("beta-window must be rejected");
        };
        assert!(matches!(err, NetError::Unsupported { .. }));
    }

    #[test]
    fn state_bytes_round_trip_resumes_mid_transfer() {
        // Drive a stenning receiver halfway, snapshot it, restore it,
        // and check the restored endpoint continues identically.
        let kind = ProtocolKind::Stenning {
            timeout_steps: None,
        };
        let mut ep = receiver_endpoint(kind, params(), 4).expect("build");
        // Seq 0 arrives: the receiver writes it and owes an ack.
        ep.apply_recv(Packet::Data(0)).expect("recv");
        while !matches!(ep.step().expect("step"), StepEffect::Idled) {}
        assert_eq!(ep.written(), &[false]);

        let state = ep.state_bytes();
        let mut restored =
            restore_receiver_endpoint(kind, params(), 4, &state, ep.written().to_vec())
                .expect("restore");
        assert_eq!(restored.written(), &[false]);

        // Both continue with the same next packet and agree on output.
        let next = Packet::Data(0b11); // seq 1, payload bit 1
        ep.apply_recv(next).expect("recv original");
        restored.apply_recv(next).expect("recv restored");
        for _ in 0..8 {
            let a = ep.step().expect("step original");
            let b = restored.step().expect("step restored");
            assert_eq!(a, b);
        }
        assert_eq!(ep.written(), restored.written());
    }

    #[test]
    fn restore_rejects_garbage_state() {
        let Err(err) = restore_receiver_endpoint(
            ProtocolKind::Beta { k: 4 },
            params(),
            8,
            &[0xFF, 0xEE],
            Vec::new(),
        ) else {
            panic!("garbage must not restore");
        };
        assert!(matches!(err, NetError::Automaton { .. }), "{err}");
    }

    /// The first `self.0` packets a transmitter sends when no acks come
    /// back.
    struct Sends(usize);

    impl TransmitterVisitor for Sends {
        type Output = Vec<Packet>;
        fn visit<T: Transmitter>(self, t: T) -> Vec<Packet> {
            let mut state = t.initial_state();
            let mut sent = Vec::new();
            for _ in 0..400 {
                let Some(action) = t.enabled(&state).first().copied() else {
                    break;
                };
                t.apply(&mut state, &action)
                    .expect("enabled action applies");
                if let RstpAction::Send(p) = action {
                    sent.push(p);
                }
                if sent.len() == self.0 {
                    break;
                }
            }
            sent
        }
    }

    fn steps(ep: &mut Box<dyn SessionEndpoint>) -> Vec<StepEffect> {
        (0..3).map(|_| ep.step().expect("step")).collect()
    }

    /// Every row of the protocol table, checked fact by fact on one
    /// sample: a row missing a fact, or a fact one consumer reads
    /// differently from another, fails here.
    #[test]
    fn protocol_table_is_complete() {
        let p = params();
        let input = rstp_sim::harness::random_input(16, 5);
        let fields = KindFields {
            k: 4,
            window: 3,
            timeout_steps: Some(9),
        };
        let kinds: Vec<ProtocolKind> = (1..=u8::MAX).map_while(|tag| fields.kind(tag)).collect();
        assert_eq!(kinds.len(), 10);
        let mut wire_ids = Vec::new();
        for kind in kinds {
            let what = kind.name();
            let f = kind.fields();
            let parsed =
                ProtocolKind::from_name(kind.family(), Some(f.k), Some(f.window), f.timeout_steps);
            assert_eq!(parsed, Ok(kind), "{what}: name");
            let token = kind.corpus_token().parse();
            assert_eq!(token, Ok(kind), "{what}: corpus token");

            let snap = SessionSnapshot {
                session: 1,
                kind,
                n: 16,
                seq: 0,
                written: Vec::new(),
                state: Vec::new(),
            };
            let back = SessionSnapshot::decode(&snap.encode()).map(|s| s.kind);
            assert_eq!(back, Ok(kind), "{what}: snapshot tag");
            let admit = Record::Event(Event::Admit {
                at_micros: 1,
                session: 1,
                kind,
                n: 16,
            });
            let mut bytes = Vec::new();
            encode_record(&admit, &mut bytes);
            let back = decode_record(&bytes).map(|(r, _)| r);
            assert_eq!(back, Ok(admit), "{what}: record tag");

            let wire = kind.wire_id().is_some();
            let codec = codec_for(kind);
            assert_eq!(codec.is_ok(), wire, "{what}: wire id");
            if let Ok(codec) = codec {
                // The id byte names this family on the wire, too.
                assert_eq!(codec.protocol().to_string(), kind.family(), "{what}");
                wire_ids.push(codec.protocol());
            }
            let built = receiver_endpoint(kind, p, input.len());
            assert_eq!(built.is_ok(), wire, "{what}: receiver endpoint");
            let Ok(mut original) = built else {
                continue;
            };

            let sent = kind
                .with_transmitter(p, TimeDelta::ZERO, &input, Sends(8))
                .expect("transmitter");
            assert!(!sent.is_empty(), "{what}: transmitter sends");
            let (before, after) = sent.split_at(sent.len() / 2);
            for &packet in before {
                original.apply_recv(packet).expect("recv");
                steps(&mut original);
            }
            let mut restored = restore_receiver_endpoint(
                kind,
                p,
                input.len(),
                &original.state_bytes(),
                original.written().to_vec(),
            )
            .expect("restore");
            for &packet in after {
                original.apply_recv(packet).expect("recv original");
                restored.apply_recv(packet).expect("recv restored");
                assert_eq!(steps(&mut original), steps(&mut restored), "{what}");
            }
            assert_eq!(original.written(), restored.written(), "{what}");
            assert_eq!(original.state_bytes(), restored.state_bytes(), "{what}");
        }
        // Every wire protocol id belongs to exactly one row.
        assert_eq!(wire_ids, rstp_net::ProtocolId::ALL);
    }
}
