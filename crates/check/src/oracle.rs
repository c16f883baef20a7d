//! Invariant oracles: everything a scenario's run is checked against.
//!
//! A scenario fails when *any* of the following is violated, in this order:
//!
//! 1. **Model** — the runner itself rejects the run (nondeterminism,
//!    adversary out of bounds, automaton refusing an applicable action).
//!    Legal-by-construction scenarios should never trip this; when one
//!    does, either the generator or the model is broken.
//! 2. **Termination** — the event budget runs out before quiescence.
//! 3. **Violation** — the `good(A)` trace checker finds a safety/liveness
//!    breach (prefix property, step spacing, delivery window, bijection).
//! 4. **Output** — the receiver wrote something other than `X`.
//! 5. **Effort** — measured effort exceeds the paper's closed-form
//!    worst-case bound (§4 for `A^α`/`A^β`, §6 for `A^γ`).
//! 6. **Replay** — the trace does not replay through the composed formal
//!    automaton.
//! 7. **Differential** — the same scenario, run in wall-clock time over
//!    `rstp-net`'s in-memory transport with the *same* scripted delivery
//!    plan, produces a different output (checked periodically by the
//!    engine, not on every iteration).

use std::fmt;
use std::time::Duration;

use rstp_automata::TimeDelta;
use rstp_core::protocols::{EffortBound, PairVisitor, Receiver, Transmitter};
use rstp_net::{run_transfer_mem_scripted, DriverOutcome, Pace, TransferConfig};
use rstp_sim::checker::{check_trace, CheckConfig};
use rstp_sim::harness::RunConfig;
use rstp_sim::replay::{replay_trace, ReplayError};
use rstp_sim::{run_corrupted, run_with_adversaries, Outcome, SimTrace};

use crate::scenario::Scenario;

/// Which oracle rejected the scenario. Shrinking preserves the kind: a
/// candidate only counts as "still failing" when it fails the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The runner rejected the run — a model or generator bug.
    Model,
    /// The run did not quiesce within the event budget.
    Termination,
    /// The `good(A)` trace checker found a violation.
    Violation,
    /// The receiver's output differs from the input.
    Output,
    /// Measured effort exceeds the closed-form worst-case bound.
    Effort,
    /// The trace does not replay through the composed formal automaton.
    Replay,
    /// Simulated and wall-clock runs of the same scenario disagree.
    Differential,
    /// After a scripted state corruption, the written suffix never
    /// converged back to the input (stabilizing protocols only).
    Convergence,
    /// The run converged, but later than the documented stabilization-time
    /// bound allows.
    StabilizationTime,
    /// A recorded run acknowledged a write the final verdict does not
    /// carry — crash recovery or handover lost durable output.
    AckLoss,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FailureKind::Model => "model",
            FailureKind::Termination => "termination",
            FailureKind::Violation => "violation",
            FailureKind::Output => "output",
            FailureKind::Effort => "effort",
            FailureKind::Replay => "replay",
            FailureKind::Differential => "differential",
            FailureKind::Convergence => "convergence",
            FailureKind::StabilizationTime => "stab-time",
            FailureKind::AckLoss => "ack-loss",
        };
        f.write_str(name)
    }
}

/// One concrete oracle rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The outcome of running every simulation-side oracle on one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The recorded trace (empty when the runner rejected the scenario).
    pub trace: SimTrace,
    /// Whether the run quiesced (false also covers runner rejection).
    pub quiescent: bool,
    /// Number of trace events.
    pub events: u64,
    /// The first oracle rejection, if any.
    pub failure: Option<Failure>,
}

/// Runs `scenario` through the simulator and all simulation-side oracles
/// (1–6 above). The differential oracle is separate — see
/// [`differential_failure`].
///
/// Scenarios scripting a state corruption run under [`run_corrupted`] and
/// are judged by the convergence and stabilization-time oracles instead of
/// the clean-run ones: a corrupted run legitimately writes garbage during
/// its stabilization window, so the prefix/output/effort/replay oracles do
/// not apply to it.
#[must_use]
pub fn run_scenario(scenario: &Scenario, max_events: u64) -> ScenarioRun {
    let cfg = RunConfig {
        kind: scenario.kind,
        params: scenario.params,
        d_lo_ticks: 0,
        max_events,
        record_trace: true,
        ..RunConfig::default()
    };
    let mut step = scenario.step_adversary();
    let mut delivery = scenario.delivery_adversary();

    let model_failure = |e: String| ScenarioRun {
        trace: SimTrace::default(),
        quiescent: false,
        events: 0,
        failure: Some(Failure {
            kind: FailureKind::Model,
            detail: e,
        }),
    };

    if let Some(spec) = scenario.corruption {
        let (run, report) =
            match run_corrupted(&cfg, &scenario.input, &mut step, &mut delivery, spec) {
                Ok(pair) => pair,
                Err(e) => return model_failure(e.to_string()),
            };
        let quiescent = run.outcome == Outcome::Quiescent;
        let events = run.trace.events().len() as u64;
        let failure = if report.applied() {
            corruption_failure(scenario, &run.trace, quiescent, &report)
        } else {
            // The run finished before the fault fired: an ordinary clean
            // run, judged by the clean-run oracles.
            first_failure(scenario, &run.trace, quiescent, &run.metrics)
        };
        return ScenarioRun {
            trace: run.trace,
            quiescent,
            events,
            failure,
        };
    }

    let run = match run_with_adversaries(&cfg, &scenario.input, &mut step, &mut delivery) {
        Ok(run) => run,
        Err(e) => return model_failure(e.to_string()),
    };
    let quiescent = run.outcome == Outcome::Quiescent;
    let events = run.trace.events().len() as u64;
    let failure = first_failure(scenario, &run.trace, quiescent, &run.metrics);
    ScenarioRun {
        trace: run.trace,
        quiescent,
        events,
        failure,
    }
}

/// The corrupted-run oracles: **convergence** (the written suffix must
/// settle back onto `X`, up to a completeness floor derived from where the
/// corruption landed) and **stabilization time** (the last divergent write
/// must fall within the documented bound after the fault struck).
fn corruption_failure(
    scenario: &Scenario,
    trace: &SimTrace,
    quiescent: bool,
    report: &rstp_sim::CorruptionReport,
) -> Option<Failure> {
    if !quiescent {
        return Some(Failure {
            kind: FailureKind::Termination,
            detail: format!(
                "corrupted run never quiesced within the budget ({} events; {report})",
                trace.events().len()
            ),
        });
    }

    let input = &scenario.input;
    let n = input.len();
    let written = trace.written();

    // `run_corrupted` already rejected every non-stabilizing kind as a
    // model failure before this oracle runs.
    let rule = report.convergence(scenario.kind, scenario.params, n)?;
    let floor = rule.floor;
    let (matched, garbage_writes) = if rule.tail_at_end {
        let matched = longest_end_aligned_suffix(&written, input);
        (matched, written.len() - matched)
    } else {
        longest_input_tail_occurrence(&written, input)
    };
    if matched < floor {
        return Some(Failure {
            kind: FailureKind::Convergence,
            detail: format!(
                "converged tail has {matched} messages, completeness floor is {floor} \
                 (wrote {} of {n}; {report})",
                written.len()
            ),
        });
    }

    // Everything written before the converged tail is stabilization-window
    // garbage; the last such write must land within the bound.
    let applied_at = report
        .applied_at
        .expect("oracle runs only on applied faults");
    let deadline = applied_at + TimeDelta::from_ticks(rule.bound_ticks);
    if garbage_writes > 0 {
        let last_garbage = trace
            .events()
            .iter()
            .filter(|e| matches!(e.action, rstp_core::RstpAction::Write(_)))
            .nth(garbage_writes - 1)
            .expect("trace contains every counted write");
        if last_garbage.time > deadline {
            return Some(Failure {
                kind: FailureKind::StabilizationTime,
                detail: format!(
                    "last divergent write at {}, bound allows {} ticks after the fault at {} \
                     ({report})",
                    last_garbage.time, rule.bound_ticks, applied_at
                ),
            });
        }
    }
    None
}

/// Length of the longest suffix of `written` that is an *end-aligned*
/// suffix of `input`.
fn longest_end_aligned_suffix(written: &[bool], input: &[bool]) -> usize {
    let max = written.len().min(input.len());
    (0..=max)
        .rev()
        .find(|&l| written[written.len() - l..] == input[input.len() - l..])
        .unwrap_or(0)
}

/// The longest tail of `input` appearing as a contiguous substring
/// anywhere in `written`, with the earliest start index of that
/// occurrence. `(0, 0)` when no tail occurs at all.
fn longest_input_tail_occurrence(written: &[bool], input: &[bool]) -> (usize, usize) {
    let max = written.len().min(input.len());
    for l in (1..=max).rev() {
        let tail = &input[input.len() - l..];
        if let Some(start) = written.windows(l).position(|w| w == tail) {
            return (l, start);
        }
    }
    (0, 0)
}

fn first_failure(
    scenario: &Scenario,
    trace: &SimTrace,
    quiescent: bool,
    metrics: &rstp_sim::RunMetrics,
) -> Option<Failure> {
    if !quiescent {
        return Some(Failure {
            kind: FailureKind::Termination,
            detail: format!(
                "event budget exhausted after {} events without quiescence",
                trace.events().len()
            ),
        });
    }

    let faulty = !scenario.is_fault_free();
    let mut check = CheckConfig::from_params(scenario.params);
    check.expect_complete = !faulty;
    check.expect_bijection = !faulty;
    if faulty {
        // Under injected drops the checker's per-value FIFO matching pairs
        // a delivery against a dropped earlier send, so the Δ upper bound
        // would false-alarm; the prefix, liveness, and Σ checks stay on.
        check.d_hi = rstp_automata::TimeDelta::from_ticks(u64::MAX / 4);
    }
    let report = check_trace(trace, &check);
    if let Some(v) = report.violations.first() {
        return Some(Failure {
            kind: FailureKind::Violation,
            detail: v.to_string(),
        });
    }

    if trace.written() != scenario.input {
        return Some(Failure {
            kind: FailureKind::Output,
            detail: format!(
                "receiver wrote {} bits, input had {} (first divergence at {:?})",
                trace.written().len(),
                scenario.input.len(),
                scenario
                    .input
                    .iter()
                    .zip(trace.written())
                    .position(|(a, b)| *a != b)
            ),
        });
    }

    if let Some(f) = effort_failure(scenario, metrics) {
        return Some(f);
    }
    replay_failure(scenario, trace)
}

/// Compares measured effort against the protocol's universal worst-case
/// bound: `A^α`'s exact closed form or the §6 finite-`n` guarantee.
/// Kinds the protocol table gives no such bound pass.
fn effort_failure(scenario: &Scenario, metrics: &rstp_sim::RunMetrics) -> Option<Failure> {
    let n = scenario.input.len();
    let effort = metrics.effort(n)?;
    let bound = match scenario.kind.effort_bound(scenario.params, n)? {
        EffortBound::Exact(bound) => bound,
        EffortBound::Range { upper, .. } => upper?.finite,
    };
    // Small epsilon so f64 rounding in the closed forms never false-alarms.
    if effort > bound + 1e-9 {
        return Some(Failure {
            kind: FailureKind::Effort,
            detail: format!("measured effort {effort:.4} exceeds worst-case bound {bound:.4}"),
        });
    }
    None
}

/// Replays the trace through the composed formal automaton, mirroring the
/// constructions of `tests/replay_all.rs`.
fn replay_failure(scenario: &Scenario, trace: &SimTrace) -> Option<Failure> {
    // The composed automaton's channel is a pure delay: injected drops and
    // duplicates have no formal counterpart, so faulty traces cannot replay.
    if !scenario.is_fault_free() {
        return None;
    }
    struct Replay<'a>(&'a SimTrace);
    impl PairVisitor for Replay<'_> {
        type Output = Result<(), ReplayError>;
        fn visit<T: Transmitter, R: Receiver>(self, t: T, r: R) -> Self::Output {
            replay_trace(t, r, self.0).map(|_| ())
        }
    }
    let detail = match scenario.kind.with_pair(
        scenario.params,
        TimeDelta::ZERO,
        &scenario.input,
        Replay(trace),
    ) {
        Ok(Ok(())) => return None,
        Ok(Err(e)) => e.to_string(),
        Err(e) => e.to_string(),
    };
    Some(Failure {
        kind: FailureKind::Replay,
        detail,
    })
}

/// Runs the scenario a second time in wall-clock over `MemTransport` with
/// the same scripted delivery plan and compares outputs. Only meaningful
/// for fault-free scenarios of wire-supported protocols; others return
/// `None` immediately.
#[must_use]
pub fn differential_failure(
    scenario: &Scenario,
    tick: Duration,
    max_wall: Duration,
) -> Option<Failure> {
    // Corrupted runs have no wall-clock counterpart: the net transport
    // cannot script a mid-run register overwrite.
    if !scenario.is_fault_free()
        || scenario.corruption.is_some()
        || scenario.kind.wire_id().is_none()
    {
        return None;
    }
    let mut config = TransferConfig::new(scenario.params, tick, 0).with_pace(Pace::Slow);
    config.max_wall = max_wall;
    let report = match run_transfer_mem_scripted(
        scenario.kind,
        &scenario.input,
        &config,
        scenario.data.clone(),
        scenario.ack.clone(),
    ) {
        Ok(report) => report,
        Err(e) => {
            return Some(Failure {
                kind: FailureKind::Differential,
                detail: format!("net run failed where sim succeeded: {e}"),
            })
        }
    };
    if report.receiver.outcome != DriverOutcome::Completed {
        return Some(Failure {
            kind: FailureKind::Differential,
            detail: "net receiver timed out where sim quiesced".into(),
        });
    }
    if report.output() != scenario.input {
        return Some(Failure {
            kind: FailureKind::Differential,
            detail: format!(
                "net wrote {} bits, sim wrote {}",
                report.output().len(),
                scenario.input.len()
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rstp_core::{ProtocolKind, TimingParams};

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 6).unwrap()
    }

    // Gamma is deliberately broken under the injected-bug cfg, so the
    // healthy-protocol oracles only hold in a normal build.
    #[cfg(not(rstp_check_inject_ack_bug))]
    #[test]
    fn random_legal_scenarios_pass_every_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 4 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
        ] {
            for _ in 0..25 {
                let s = Scenario::generate(kind, params(), &mut rng, 12);
                let run = run_scenario(&s, 500_000);
                assert!(
                    run.failure.is_none(),
                    "{}: {}",
                    kind.name(),
                    run.failure.unwrap()
                );
                assert!(run.quiescent);
            }
        }
    }

    // The stabilizing family is deliberately broken under the injected
    // stab-bug cfg; the engine's acceptance test covers that build.
    #[cfg(not(rstp_check_inject_stab_bug))]
    #[test]
    fn stabilizing_scenarios_pass_every_oracle_clean_and_corrupted() {
        let mut rng = StdRng::seed_from_u64(23);
        for kind in [
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            ProtocolKind::StabBeta { k: 4 },
        ] {
            let mut corrupted = 0;
            for _ in 0..30 {
                let s = Scenario::generate(kind, params(), &mut rng, 12);
                corrupted += usize::from(s.corruption.is_some());
                let run = run_scenario(&s, 500_000);
                assert!(
                    run.failure.is_none(),
                    "{}: {}",
                    kind.name(),
                    run.failure.unwrap()
                );
                assert!(run.quiescent);
            }
            assert!(
                corrupted > 0,
                "{}: no corrupted scenarios drawn",
                kind.name()
            );
        }
    }

    #[test]
    fn suffix_matchers_measure_what_the_floors_need() {
        let x = [true, false, false, true, true, false];
        // End-aligned: garbage prefix, converged tail.
        let w = [true, false, true, true, false];
        assert_eq!(longest_end_aligned_suffix(&w, &x), 4);
        // Occurrence: one garbage write before X's 4-long tail, and the
        // receiver's end-of-run flush appends garbage after it — the tail
        // is still found, anchored at write index 1.
        let w = [true, false, true, true, false, false];
        assert_eq!(longest_input_tail_occurrence(&w, &x), (4, 1));
        assert_eq!(longest_end_aligned_suffix(&[], &x), 0);
        assert_eq!(longest_input_tail_occurrence(&[], &x), (0, 0));
    }

    #[cfg(not(rstp_check_inject_ack_bug))]
    #[test]
    fn differential_agrees_on_a_scripted_gamma_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = Scenario::generate(ProtocolKind::Gamma { k: 4 }, params(), &mut rng, 8);
        assert!(run_scenario(&s, 500_000).failure.is_none());
        let failure = differential_failure(&s, Duration::from_micros(400), Duration::from_secs(20));
        assert!(failure.is_none(), "{}", failure.unwrap());
    }
}
