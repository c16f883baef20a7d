//! Legal-by-construction adversarial scenarios.
//!
//! A [`Scenario`] is a complete, replayable description of one simulated
//! run: the protocol, the timing parameters, the input word, a scripted
//! step schedule for each process (gaps in `[c1, c2]`), and a scripted
//! per-packet fate plan for each channel direction (delays in `[0, d]`,
//! plus drop/duplicate for the fault-tolerant baselines). Generation and
//! mutation only ever produce values inside the legal ranges, so the
//! simulator's `AdversaryOutOfBounds` rejection is itself an oracle: if a
//! scenario trips it, the *generator* is broken, and the fuzzer reports it
//! as a model failure.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use rstp_automata::TimeDelta;
use rstp_core::{Message, TimingParams};
use rstp_sim::{
    CorruptionSpec, PacketFate, ProtocolKind, ScriptedDelivery, ScriptedDeliveryAdversary,
    ScriptedSteps,
};

/// One fully scripted adversarial run: protocol, timing, input, step
/// schedule, and per-direction delivery plans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Timing parameters `(c1, c2, d)` the scripts are legal against.
    pub params: TimingParams,
    /// The input word `X`.
    pub input: Vec<Message>,
    /// Scripted transmitter step gaps (ticks, each in `[c1, c2]`).
    pub t_gaps: Vec<u64>,
    /// Scripted receiver step gaps (ticks, each in `[c1, c2]`).
    pub r_gaps: Vec<u64>,
    /// Gap used once either script runs out (in `[c1, c2]`).
    pub gap_fallback: u64,
    /// Fate plan for data packets (transmitter → receiver).
    pub data: ScriptedDelivery,
    /// Fate plan for ack packets (receiver → transmitter).
    pub ack: ScriptedDelivery,
    /// Seeded mid-run state corruption — only ever `Some` for the
    /// self-stabilizing kinds, whose convergence the oracles then check.
    pub corruption: Option<CorruptionSpec>,
}

fn random_fate(rng: &mut StdRng, d: u64, faults: bool) -> PacketFate {
    if faults && rng.gen_bool(0.12) {
        return PacketFate::Drop;
    }
    if faults && rng.gen_bool(0.12) {
        return PacketFate::Duplicate(rng.gen_range(0..=d), rng.gen_range(0..=d));
    }
    PacketFate::Deliver(rng.gen_range(0..=d))
}

impl Scenario {
    /// Draws a fresh random scenario for `kind`. All scripted values are
    /// legal for `params`; faults are only scripted for protocols that
    /// tolerate them.
    pub fn generate(
        kind: ProtocolKind,
        params: TimingParams,
        rng: &mut StdRng,
        max_input: usize,
    ) -> Scenario {
        let c1 = params.c1().ticks();
        let c2 = params.c2().ticks();
        let d = params.d().ticks();
        let faults = kind.tolerates_faults();

        let n = rng.gen_range(1..=max_input.max(1));
        let input: Vec<Message> = (0..n).map(|_| rng.gen_bool(0.5)).collect();

        let t_len = rng.gen_range(0..=4 * n);
        let r_len = rng.gen_range(0..=4 * n);
        let t_gaps: Vec<u64> = (0..t_len).map(|_| rng.gen_range(c1..=c2)).collect();
        let r_gaps: Vec<u64> = (0..r_len).map(|_| rng.gen_range(c1..=c2)).collect();
        let gap_fallback = rng.gen_range(c1..=c2);

        let data_len = rng.gen_range(0..=6 * n);
        let ack_len = rng.gen_range(0..=6 * n);
        let data_fates: Vec<PacketFate> =
            (0..data_len).map(|_| random_fate(rng, d, faults)).collect();
        let ack_fates: Vec<PacketFate> =
            (0..ack_len).map(|_| random_fate(rng, d, faults)).collect();

        let corruption = if kind.is_stabilizing() && rng.gen_bool(0.7) {
            Some(CorruptionSpec {
                at_event: rng.gen_range(0..=(20 * n as u64)),
                seed: rng.next_u64(),
            })
        } else {
            None
        };

        Scenario {
            kind,
            params,
            input,
            t_gaps,
            r_gaps,
            gap_fallback,
            data: ScriptedDelivery::new(data_fates, rng.gen_range(0..=d)),
            ack: ScriptedDelivery::new(ack_fates, rng.gen_range(0..=d)),
            corruption,
        }
    }

    /// Produces a mutated copy: 1–3 small edits (input bits, gap entries,
    /// fates, fallbacks), each keeping the scenario legal.
    #[must_use]
    pub fn mutate(&self, rng: &mut StdRng) -> Scenario {
        let c1 = self.params.c1().ticks();
        let c2 = self.params.c2().ticks();
        let d = self.params.d().ticks();
        let faults = self.kind.tolerates_faults();
        let mut s = self.clone();
        let edits = rng.gen_range(1..=3u32);
        for _ in 0..edits {
            let arms = if self.kind.is_stabilizing() {
                9u32
            } else {
                8u32
            };
            match rng.gen_range(0..arms) {
                0 => {
                    let i = rng.gen_range(0..s.input.len());
                    s.input[i] = !s.input[i];
                }
                1 => {
                    if s.input.len() > 1 && rng.gen_bool(0.5) {
                        s.input.pop();
                    } else {
                        s.input.push(rng.gen_bool(0.5));
                    }
                }
                2 => mutate_script(&mut s.t_gaps, rng, |r| r.gen_range(c1..=c2)),
                3 => mutate_script(&mut s.r_gaps, rng, |r| r.gen_range(c1..=c2)),
                4 => s.gap_fallback = rng.gen_range(c1..=c2),
                5 => mutate_script(s.data.fates_mut(), rng, |r| random_fate(r, d, faults)),
                6 => mutate_script(s.ack.fates_mut(), rng, |r| random_fate(r, d, faults)),
                7 => {
                    if rng.gen_bool(0.5) {
                        s.data.set_fallback(rng.gen_range(0..=d));
                    } else {
                        s.ack.set_fallback(rng.gen_range(0..=d));
                    }
                }
                _ => {
                    // Corruption edit (stabilizing kinds only): move the
                    // strike point, reroll the seed, or toggle it off/on.
                    s.corruption = match (s.corruption, rng.gen_range(0..3u32)) {
                        (Some(c), 0) => Some(CorruptionSpec {
                            at_event: rng.gen_range(0..=(20 * s.input.len() as u64)),
                            ..c
                        }),
                        (Some(c), 1) => Some(CorruptionSpec {
                            seed: rng.next_u64(),
                            ..c
                        }),
                        (Some(_), _) => None,
                        (None, _) => Some(CorruptionSpec {
                            at_event: rng.gen_range(0..=(20 * s.input.len() as u64)),
                            seed: rng.next_u64(),
                        }),
                    };
                }
            }
        }
        s
    }

    /// The scripted step adversary for this scenario.
    #[must_use]
    pub fn step_adversary(&self) -> ScriptedSteps {
        let delta = |ticks: &[u64]| ticks.iter().copied().map(TimeDelta::from_ticks).collect();
        ScriptedSteps::new(
            delta(&self.t_gaps),
            delta(&self.r_gaps),
            TimeDelta::from_ticks(self.gap_fallback),
        )
    }

    /// The scripted per-direction delivery adversary for this scenario.
    #[must_use]
    pub fn delivery_adversary(&self) -> ScriptedDeliveryAdversary {
        ScriptedDeliveryAdversary::new(self.data.clone(), self.ack.clone())
    }

    /// `true` when neither fate plan scripts a drop or a duplication.
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.data.is_fault_free() && self.ack.is_fault_free()
    }

    /// Total number of scripted entries across all four scripts — the
    /// secondary size metric used by the shrinker.
    #[must_use]
    pub fn script_len(&self) -> usize {
        self.t_gaps.len() + self.r_gaps.len() + self.data.fates().len() + self.ack.fates().len()
    }
}

/// Mutates one script in place: tweak a random entry, push a fresh one, or
/// pop the tail.
fn mutate_script<T>(
    script: &mut Vec<T>,
    rng: &mut StdRng,
    mut fresh: impl FnMut(&mut StdRng) -> T,
) {
    if script.is_empty() {
        script.push(fresh(rng));
        return;
    }
    match rng.gen_range(0..3u32) {
        0 => {
            let i = rng.gen_range(0..script.len());
            script[i] = fresh(rng);
        }
        1 => script.push(fresh(rng)),
        _ => {
            script.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 3, 7).unwrap()
    }

    #[test]
    fn generated_scenarios_are_legal() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let s = Scenario::generate(
                ProtocolKind::Stenning {
                    timeout_steps: None,
                },
                p,
                &mut rng,
                16,
            );
            assert!(!s.input.is_empty());
            for &g in s.t_gaps.iter().chain(&s.r_gaps) {
                assert!((1..=3).contains(&g));
            }
            assert!((1..=3).contains(&s.gap_fallback));
            assert!(s.data.max_delay() <= 7 && s.ack.max_delay() <= 7);
        }
    }

    #[test]
    fn faults_are_only_generated_for_tolerant_protocols() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let s = Scenario::generate(ProtocolKind::Gamma { k: 4 }, p, &mut rng, 16);
            let s = s.mutate(&mut rng).mutate(&mut rng);
            assert!(s.is_fault_free());
        }
    }

    #[test]
    fn corruption_is_only_scripted_for_stabilizing_kinds() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(13);
        let mut saw_corruption = false;
        for _ in 0..50 {
            let clean = Scenario::generate(ProtocolKind::Gamma { k: 4 }, p, &mut rng, 16);
            assert!(clean.mutate(&mut rng).corruption.is_none());
            let stab = Scenario::generate(
                ProtocolKind::StabStenning {
                    timeout_steps: None,
                },
                p,
                &mut rng,
                16,
            );
            saw_corruption |= stab.corruption.is_some();
            // Stabilizing scenarios stay fault-free: convergence oracles
            // assume every packet is delivered (possibly corrupted) once.
            assert!(stab.is_fault_free());
        }
        assert!(saw_corruption, "generator never scripted a corruption");
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let p = params();
        let make = || {
            let mut rng = StdRng::seed_from_u64(99);
            let s = Scenario::generate(ProtocolKind::Beta { k: 4 }, p, &mut rng, 12);
            s.mutate(&mut rng)
        };
        assert_eq!(make(), make());
    }
}
