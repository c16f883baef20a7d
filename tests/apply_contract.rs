//! The `Automaton::apply` contract: a rejected action leaves the state
//! exactly as it was.
//!
//! `apply` transitions a state in place, so an implementation that
//! mutates before it finds a precondition false would corrupt the state
//! it then rejects. The serve path relies on the contract: a completed
//! session's ghost re-acker keeps its automaton after a failed
//! `apply_recv`. Every protocol automaton is driven here as a
//! transmitter/receiver pair through seeded random schedules that mix
//! enabled steps and deliveries with actions that must fail (disabled
//! local actions, actions outside the automaton's signature) and inputs
//! from outside the packet alphabet. After every `Err` the state's Debug
//! rendering must equal the one taken before, as in `explore.rs`.

use rstp::automata::{Automaton, StepError};
use rstp::core::protocols::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, StabBetaReceiver,
    StabStenningReceiver, StabStenningReceiverState, StabStenningTransmitter, StenningReceiver,
    StenningTransmitter,
};
use rstp::core::{Channel, InternalKind, Packet, RstpAction, TimingParams};
use rstp::sim::harness::random_input;

const STEPS: usize = 4_000;

/// A 64-bit LCG: deterministic schedules without a dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Any action of the RSTP alphabet, with packet contents drawn both
/// inside and far outside every protocol's symbol range.
fn random_action(rng: &mut Lcg) -> RstpAction {
    let value = match rng.below(3) {
        0 => rng.below(4),
        1 => rng.below(64),
        _ => rng.next() << 20,
    };
    let packet = if rng.below(2) == 0 {
        Packet::Data(value)
    } else {
        Packet::Ack(value)
    };
    let internal = if rng.below(2) == 0 {
        InternalKind::Wait
    } else {
        InternalKind::Idle
    };
    match rng.below(5) {
        0 => RstpAction::Send(packet),
        1 => RstpAction::Recv(packet),
        2 => RstpAction::Write(rng.below(2) == 0),
        3 => RstpAction::TransmitterInternal(internal),
        _ => RstpAction::ReceiverInternal(internal),
    }
}

/// Applies `action`; on `Err`, asserts the state did not change. Returns
/// whether the action applied.
fn apply_checked<A: Automaton<Action = RstpAction>>(
    who: &str,
    automaton: &A,
    state: &mut A::State,
    action: &RstpAction,
) -> bool {
    let before = format!("{state:?}");
    match automaton.apply(state, action) {
        Ok(()) => true,
        Err(e) => {
            assert!(
                matches!(
                    e,
                    StepError::UnknownAction { .. } | StepError::PreconditionFalse { .. }
                ),
                "{who}: {e}"
            );
            assert_eq!(
                format!("{state:?}"),
                before,
                "{who}: rejected {action:?} ({e}) changed the state"
            );
            false
        }
    }
}

/// Fires `automaton`'s enabled local action, if any; returns it.
fn step_enabled<A: Automaton<Action = RstpAction>>(
    who: &str,
    automaton: &A,
    state: &mut A::State,
) -> Option<RstpAction> {
    let action = automaton.enabled(state).first().copied()?;
    assert!(
        apply_checked(who, automaton, state, &action),
        "{who}: enabled {action:?} was rejected"
    );
    Some(action)
}

/// Drives a transmitter/receiver pair through a seeded schedule and
/// returns how many actions each side rejected (the check is that the
/// schedule actually exercised the error paths).
fn fuzz_pair<T, R>(name: &str, t: &T, r: &R, seed: u64) -> (usize, usize)
where
    T: Automaton<Action = RstpAction>,
    R: Automaton<Action = RstpAction>,
{
    let mut rng = Lcg(seed);
    let (mut ts, mut rs) = (t.initial_state(), r.initial_state());
    let (tx, rx) = (format!("{name} transmitter"), format!("{name} receiver"));
    let mut to_receiver: Vec<Packet> = Vec::new();
    let mut to_transmitter: Vec<Packet> = Vec::new();
    let mut rejected = (0, 0);
    for _ in 0..STEPS {
        match rng.below(8) {
            0 | 1 => {
                if let Some(RstpAction::Send(p)) = step_enabled(&tx, t, &mut ts) {
                    to_receiver.push(p);
                }
            }
            2 | 3 => {
                if let Some(RstpAction::Send(p)) = step_enabled(&rx, r, &mut rs) {
                    to_transmitter.push(p);
                }
            }
            4 if !to_receiver.is_empty() => {
                // Deliver in any order: the channel may reorder.
                let i = rng.below(to_receiver.len() as u64) as usize;
                let p = to_receiver.swap_remove(i);
                assert!(apply_checked(&rx, r, &mut rs, &RstpAction::Recv(p)));
            }
            5 if !to_transmitter.is_empty() => {
                let i = rng.below(to_transmitter.len() as u64) as usize;
                let p = to_transmitter.swap_remove(i);
                assert!(apply_checked(&tx, t, &mut ts, &RstpAction::Recv(p)));
            }
            6 => {
                if !apply_checked(&tx, t, &mut ts, &random_action(&mut rng)) {
                    rejected.0 += 1;
                }
            }
            _ => {
                if !apply_checked(&rx, r, &mut rs, &random_action(&mut rng)) {
                    rejected.1 += 1;
                }
            }
        }
    }
    rejected
}

fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 4).expect("valid") // δ1 = 4, δ2 = 2
}

#[test]
fn rejected_actions_leave_every_protocol_state_unchanged() {
    let p = params();
    for seed in 1..=4u64 {
        let input = random_input(48, seed);
        let n = input.len();
        let rejected = [
            fuzz_pair(
                "alpha",
                &AlphaTransmitter::new(p, input.clone()),
                &AlphaReceiver::new(),
                seed,
            ),
            fuzz_pair(
                "beta",
                &BetaTransmitter::new(p, 4, &input).expect("beta tx"),
                &BetaReceiver::new(p, 4, n).expect("beta rx"),
                seed,
            ),
            fuzz_pair(
                "gamma",
                &GammaTransmitter::new(p, 4, &input).expect("gamma tx"),
                &GammaReceiver::new(p, 4, n).expect("gamma rx"),
                seed,
            ),
            fuzz_pair(
                "altbit",
                &AltBitTransmitter::new(p, input.clone(), Some(6)),
                &AltBitReceiver::new(),
                seed,
            ),
            fuzz_pair(
                "stenning",
                &StenningTransmitter::new(p, input.clone(), Some(6)),
                &StenningReceiver::new(),
                seed,
            ),
            fuzz_pair(
                "framed",
                &FramedTransmitter::new(p, 4, &input).expect("framed tx"),
                &FramedReceiver::new(p, 4).expect("framed rx"),
                seed,
            ),
            fuzz_pair(
                "pipelined",
                &PipelinedTransmitter::with_window(p, 4, 2, &input).expect("pipelined tx"),
                &PipelinedReceiver::with_window(p, 4, 2, n).expect("pipelined rx"),
                seed,
            ),
            fuzz_pair(
                "stab-stenning",
                &StabStenningTransmitter::new(p, input.clone(), Some(6)),
                &StabStenningReceiver::new(),
                seed,
            ),
            fuzz_pair(
                "stab-beta",
                &stab_beta_transmitter(p, 4, &input).expect("stab-beta tx"),
                &StabBetaReceiver::new(p, 4, n).expect("stab-beta rx"),
                seed,
            ),
        ];
        for (tx, rx) in rejected {
            assert!(tx > 0 && rx > 0, "schedule never hit an error path");
        }
    }
}

#[test]
fn rejected_actions_leave_the_channel_unchanged() {
    let ch = Channel::new();
    let mut state = ch.initial_state();
    let mut rng = Lcg(9);
    let mut rejected = 0;
    for _ in 0..STEPS {
        let action = match rng.below(3) {
            0 => RstpAction::Send(Packet::Data(rng.below(4))),
            _ => random_action(&mut rng),
        };
        if !apply_checked("channel", &ch, &mut state, &action) {
            rejected += 1;
        }
    }
    assert!(rejected > 0);
}

#[test]
fn a_corrupted_stabilizing_state_survives_a_rejected_action() {
    // A register file no step of the protocol produces: out-of-range tag,
    // write pointer past the accepted messages, an ack outside the
    // alphabet. `apply` normalizes such a state only when it accepts the
    // action.
    let r = StabStenningReceiver::new();
    let corrupted = StabStenningReceiverState {
        expected: 99,
        received: vec![true],
        written: 7,
        pending_ack: Some(1 << 40),
        synced: false,
    };
    let mut state = corrupted.clone();
    let write = RstpAction::Write(true);
    assert!(!apply_checked(
        "stab-stenning receiver",
        &r,
        &mut state,
        &write
    ));
    assert_eq!(state, corrupted);
    let idle = RstpAction::ReceiverInternal(InternalKind::Idle);
    assert!(apply_checked(
        "stab-stenning receiver",
        &r,
        &mut state,
        &idle
    ));
    assert_ne!(state, corrupted, "an accepted action normalizes the state");
}
