//! Seeded state-corruption adversary for the self-stabilizing protocols.
//!
//! A transient fault in the paper's model is an adversary that, at one
//! instant, overwrites every register of both processes and scrambles the
//! packets already in flight — after which the system must *converge* back
//! to correct behaviour on its own. [`run_corrupted`] models exactly that:
//! it runs a configured protocol pair under ordinary step/delivery
//! adversaries, and at the `at_event`-th processed simulation event replaces
//! both automaton states with uniformly drawn register vectors (via
//! [`Corruptible`]) and rewrites each in-flight packet with probability
//! one half, staying inside the protocol's wire alphabet and preserving
//! packet direction.
//!
//! Everything is derived from a single `u64` seed, so a corruption schedule
//! is reproducible byte-for-byte: the same `(scenario, spec)` pair yields
//! the same drawn registers, the same channel rewrites, and therefore the
//! same verdict — the property `rstp-check` leans on for its corpus format.

use crate::adversary::{DeliveryAdversary, StepAdversary};
use crate::harness::{settings_of, HarnessError, ProtocolKind, RunConfig};
use crate::runner::{SimRun, Simulation};
use core::fmt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstp_automata::{Automaton, Corruptible, RegisterSpec, Time};
use rstp_core::protocols::stabilizing::{
    stab_beta_bits_per_block, stab_beta_bound, stab_beta_transmitter, stab_stenning_ack_alphabet,
    stab_stenning_bound, stab_stenning_data_alphabet, StabBetaReceiver, StabStenningReceiver,
    StabStenningTransmitter, REG_BETA_R_PENDING_LEN, REG_BETA_T_BLOCK, REG_STAB_R_PENDING_ACK,
    REG_STAB_T_NEXT,
};
use rstp_core::{Message, Packet, RstpAction, TimingParams};

/// When and how to corrupt: fire just before the `at_event`-th processed
/// simulation event, with all random choices derived from `seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// Event index at which the fault strikes (0 = before anything runs).
    /// If the run finishes earlier, the fault never fires.
    pub at_event: u64,
    /// Seed for every random choice the corruptor makes.
    pub seed: u64,
}

/// What the corruptor actually did — enough to reproduce the fault by hand
/// and to compute convergence floors afterwards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Instant the fault struck; `None` if the run ended before `at_event`.
    pub applied_at: Option<Time>,
    /// Register vector forced into the transmitter (same order as its
    /// [`Corruptible::registers`] spec).
    pub t_regs: Vec<u64>,
    /// Register vector forced into the receiver.
    pub r_regs: Vec<u64>,
    /// In-flight packets rewritten, as `(old, new)` pairs in delivery order.
    pub rewrites: Vec<(Packet, Packet)>,
    /// Total packets in flight when the fault struck (rewritten or not).
    /// Each can consume at most one message slot after the fault — stale
    /// acks can fake an advance, stale data can fill a decode slot — so
    /// convergence floors subtract this.
    pub in_flight: u64,
}

/// What a corrupted run of a stabilizing family must converge to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Convergence {
    /// How many final messages of `X` must provably survive the fault.
    pub floor: usize,
    /// Whether the surviving tail of `X` must end the written word, or
    /// may be followed by bounded end-of-run leftovers.
    pub tail_at_end: bool,
    /// The stabilization-time bound in ticks after the fault.
    pub bound_ticks: u64,
}

impl CorruptionReport {
    /// Whether the fault actually fired.
    #[must_use]
    pub fn applied(&self) -> bool {
        self.applied_at.is_some()
    }

    /// How many in-flight *acks* were rewritten — each can roll the
    /// stabilizing Stenning transmitter forward or back by one message,
    /// so the convergence oracle widens its completeness floor by this.
    #[must_use]
    pub fn ack_rewrites(&self) -> u64 {
        self.rewrites.iter().filter(|(old, _)| old.is_ack()).count() as u64
    }

    /// The convergence target of this fault for `kind` carrying `n`
    /// messages; `None` for the kinds [`run_corrupted`] rejects.
    #[must_use]
    pub fn convergence(
        &self,
        kind: ProtocolKind,
        params: TimingParams,
        n: usize,
    ) -> Option<Convergence> {
        let reg = |regs: &[u64], i: usize| regs.get(i).copied().unwrap_or(0) as usize;
        let in_flight = self.in_flight as usize;
        match kind {
            ProtocolKind::StabStenning { timeout_steps } => {
                // Every message from the corrupted `next` on must be
                // delivered, minus one slot per in-flight packet (a stale or
                // rewritten ack can fake one advance each), one slot if the
                // corrupted receiver was loaded with a pending ack (it is
                // sent on its next step and can tag-alias into a fake
                // advance exactly like a stale one), and a two-message
                // allowance for the seam itself (one tag-alias re-ack, one
                // boundary loss).
                let next = reg(&self.t_regs, REG_STAB_T_NEXT);
                let pending = usize::from(
                    self.r_regs.get(REG_STAB_R_PENDING_ACK).copied()
                        != Some(stab_stenning_ack_alphabet()),
                );
                Some(Convergence {
                    floor: n.saturating_sub(next + in_flight + pending + 2),
                    tail_at_end: true,
                    bound_ticks: stab_stenning_bound(params, timeout_steps),
                })
            }
            ProtocolKind::StabBeta { k } => {
                // The transmitter resumes at block `j0`; its first block may
                // straddle the corrupted partial burst, stale in-flight
                // symbols shift the framing, and the receiver's decoded cap
                // can truncate the tail by the injected garbage — hence the
                // wider slack. The surviving tail of `X` is contiguous in
                // the written word but not necessarily at its end: the
                // receiver may flush bounded leftovers (misframed cap
                // overrun, end-of-run pending bits) after it.
                let b = stab_beta_bits_per_block(params, k) as usize;
                let j0 = reg(&self.t_regs, REG_BETA_T_BLOCK);
                let pending = reg(&self.r_regs, REG_BETA_R_PENDING_LEN);
                Some(Convergence {
                    floor: n.saturating_sub((j0 + 1) * b + pending + in_flight + 2 * b),
                    tail_at_end: false,
                    bound_ticks: stab_beta_bound(params, k),
                })
            }
            _ => None,
        }
    }
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.applied_at {
            None => write!(f, "corruption: not applied"),
            Some(t) => {
                let join = |regs: &[u64]| {
                    regs.iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let rewrites = self
                    .rewrites
                    .iter()
                    .map(|(old, new)| format!("{old}->{new}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                write!(
                    f,
                    "corruption at {t}: T=[{}] R=[{}] in-flight={} rewrote=[{rewrites}]",
                    join(&self.t_regs),
                    join(&self.r_regs),
                    self.in_flight,
                )
            }
        }
    }
}

fn draw_registers(specs: &[RegisterSpec], rng: &mut StdRng) -> Vec<u64> {
    specs.iter().map(|s| rng.gen_range(0..=s.max)).collect()
}

#[allow(clippy::too_many_arguments)]
fn run_corrupted_pair<T, R>(
    transmitter: T,
    receiver: R,
    data_alphabet: u64,
    ack_alphabet: u64,
    cfg: &RunConfig,
    input: &[Message],
    step: &mut dyn StepAdversary,
    delivery: &mut dyn DeliveryAdversary,
    spec: CorruptionSpec,
) -> Result<(SimRun, CorruptionReport), HarnessError>
where
    T: Corruptible + Automaton<Action = RstpAction> + Clone,
    R: Corruptible + Automaton<Action = RstpAction> + Clone,
{
    // The simulation owns the automata, so keep clones around to translate
    // register vectors into states from inside the hook.
    let t_probe = transmitter.clone();
    let r_probe = receiver.clone();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut report = CorruptionReport::default();
    let sim = Simulation::new(transmitter, receiver, settings_of(cfg));
    let run;
    {
        let mut mutate =
            |now: Time, ts: &mut T::State, rs: &mut R::State, packets: &mut [Packet]| {
                let t_regs = draw_registers(&t_probe.registers(), &mut rng);
                let r_regs = draw_registers(&r_probe.registers(), &mut rng);
                *ts = t_probe.state_from_registers(&t_regs);
                *rs = r_probe.state_from_registers(&r_regs);
                let mut rewrites = Vec::new();
                for p in packets.iter_mut() {
                    if !rng.gen_bool(0.5) {
                        continue;
                    }
                    let new = match *p {
                        Packet::Data(_) => Packet::Data(rng.gen_range(0..data_alphabet)),
                        Packet::Ack(_) if ack_alphabet > 0 => {
                            Packet::Ack(rng.gen_range(0..ack_alphabet))
                        }
                        Packet::Ack(_) => continue,
                    };
                    if new != *p {
                        rewrites.push((*p, new));
                        *p = new;
                    }
                }
                report = CorruptionReport {
                    applied_at: Some(now),
                    t_regs,
                    r_regs,
                    rewrites,
                    in_flight: packets.len() as u64,
                };
            };
        run = sim.run_hooked(input, step, delivery, Some((spec.at_event, &mut mutate)))?;
    }
    Ok((run, report))
}

/// Runs `cfg.kind` under caller-supplied adversaries with a seeded
/// state-corruption fault injected at `spec.at_event`.
///
/// Only the self-stabilizing kinds ([`ProtocolKind::StabStenning`],
/// [`ProtocolKind::StabBeta`]) accept corruption — the others have no
/// recovery story, so a corrupted run of them would measure nothing.
///
/// # Errors
///
/// [`HarnessError::Unsupported`] for non-stabilizing kinds, otherwise the
/// usual construction/model-violation failures.
pub fn run_corrupted(
    cfg: &RunConfig,
    input: &[Message],
    step: &mut dyn StepAdversary,
    delivery: &mut dyn DeliveryAdversary,
    spec: CorruptionSpec,
) -> Result<(SimRun, CorruptionReport), HarnessError> {
    match cfg.kind {
        ProtocolKind::StabStenning { timeout_steps } => run_corrupted_pair(
            StabStenningTransmitter::new(cfg.params, input.to_vec(), timeout_steps),
            StabStenningReceiver::new(),
            stab_stenning_data_alphabet(),
            stab_stenning_ack_alphabet(),
            cfg,
            input,
            step,
            delivery,
            spec,
        ),
        ProtocolKind::StabBeta { k } => run_corrupted_pair(
            stab_beta_transmitter(cfg.params, k, input)?,
            StabBetaReceiver::new(cfg.params, k, input.len())?,
            k,
            0,
            cfg,
            input,
            step,
            delivery,
            spec,
        ),
        other => Err(HarnessError::Unsupported {
            what: format!(
                "state corruption requires a self-stabilizing protocol, got {}",
                other.name()
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::TimingParams;

    fn cfg(kind: ProtocolKind) -> RunConfig {
        RunConfig {
            kind,
            params: TimingParams::from_ticks(1, 2, 4).expect("valid params"),
            max_events: 200_000,
            ..RunConfig::default()
        }
    }

    fn adversaries(cfg: &RunConfig) -> (Box<dyn StepAdversary>, Box<dyn DeliveryAdversary>) {
        let step = cfg.step.build(cfg.params);
        let delivery = cfg.delivery.build(
            rstp_automata::TimeDelta::from_ticks(cfg.d_lo_ticks),
            cfg.params.d(),
        );
        (step, delivery)
    }

    fn run_once(
        kind: ProtocolKind,
        input: &[Message],
        spec: CorruptionSpec,
    ) -> (SimRun, CorruptionReport) {
        let cfg = cfg(kind);
        let (mut step, mut delivery) = adversaries(&cfg);
        run_corrupted(&cfg, input, step.as_mut(), delivery.as_mut(), spec).expect("corrupted run")
    }

    #[test]
    fn corruption_is_rejected_for_non_stabilizing_kinds() {
        let cfg = cfg(ProtocolKind::Alpha);
        let (mut step, mut delivery) = adversaries(&cfg);
        let err = run_corrupted(
            &cfg,
            &[true, false],
            step.as_mut(),
            delivery.as_mut(),
            CorruptionSpec {
                at_event: 5,
                seed: 1,
            },
        )
        .expect_err("alpha must reject corruption");
        assert!(matches!(err, HarnessError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn same_seed_yields_byte_identical_schedule_and_run() {
        let input: Vec<Message> = vec![true, false, false, true, true, false];
        let spec = CorruptionSpec {
            at_event: 37,
            seed: 0xFEED,
        };
        for kind in [
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            ProtocolKind::StabBeta { k: 4 },
        ] {
            let (run_a, rep_a) = run_once(kind, &input, spec);
            let (run_b, rep_b) = run_once(kind, &input, spec);
            assert_eq!(rep_a, rep_b, "{}: schedules diverged", kind.name());
            assert!(rep_a.applied(), "{}: fault never fired", kind.name());
            assert_eq!(
                rep_a.to_string(),
                rep_b.to_string(),
                "{}: renderings diverged",
                kind.name()
            );
            assert_eq!(
                run_a.trace.written(),
                run_b.trace.written(),
                "{}: delivered suffixes diverged",
                kind.name()
            );
        }
    }

    #[test]
    fn stab_stenning_converges_after_mid_run_corruption() {
        use rstp_core::protocols::stabilizing::{
            stab_stenning_ack_alphabet, REG_STAB_R_PENDING_ACK, REG_STAB_T_NEXT,
        };
        let input: Vec<Message> = vec![true, true, false, true, false, false, true, false];
        for seed in 0..8u64 {
            let (run, report) = run_once(
                ProtocolKind::StabStenning {
                    timeout_steps: None,
                },
                &input,
                CorruptionSpec { at_event: 25, seed },
            );
            assert!(report.applied(), "seed {seed}: fault never fired");
            let written = run.trace.written();
            // Completeness floor: everything past the corrupted `next`
            // must still arrive, minus one slot per in-flight packet, one
            // for a corrupted-in pending ack, and a two-message allowance
            // for the corruption seam itself.
            let next_c = report.t_regs[REG_STAB_T_NEXT] as usize;
            let pending =
                usize::from(report.r_regs[REG_STAB_R_PENDING_ACK] != stab_stenning_ack_alphabet());
            let floor = input
                .len()
                .saturating_sub(next_c + report.in_flight as usize + pending + 2);
            assert!(
                written.len() >= floor,
                "seed {seed}: only {} writes, floor {floor}",
                written.len()
            );
            if floor > 0 {
                assert!(
                    written.ends_with(&input[input.len() - floor..]),
                    "seed {seed}: tail diverged from X: {written:?}"
                );
            }
        }
    }
}
