//! The correctness gate every run passes before it may print a metric.

use rstp_core::{bounds, Message, TimingParams};
use rstp_sim::harness::expected_output;
use rstp_sim::ProtocolKind;

/// Why a session does not count as delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The server refused the session at admission.
    Rejected,
    /// The session did not complete (it timed out or stalled).
    Incomplete,
    /// The output is a proper prefix of the input but not all of it.
    Short,
    /// The output is not a prefix of the input: a safety violation.
    NotPrefix,
}

/// Checks one session's output `Y` against its input `X`.
///
/// # Errors
///
/// The first [`Fault`] found; [`Fault::NotPrefix`] takes precedence,
/// since it is wrong output rather than missing output.
pub fn check_session(input: &[Message], written: &[Message], completed: bool) -> Result<(), Fault> {
    if !input.starts_with(written) {
        return Err(Fault::NotPrefix);
    }
    if written.len() < input.len() {
        return Err(Fault::Short);
    }
    if !completed {
        return Err(Fault::Incomplete);
    }
    Ok(())
}

/// Compares a served output with the simulator oracle's output for the
/// same input.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn compare_with_oracle(
    input: &[Message],
    expected: &[Message],
    written: &[Message],
) -> Result<(), String> {
    if expected != input {
        return Err(format!(
            "simulator oracle output ({} messages) differs from the input ({} messages)",
            expected.len(),
            input.len()
        ));
    }
    if written != expected {
        let at = written
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(written.len().min(expected.len()));
        return Err(format!(
            "served output differs from the simulator oracle at message {at} \
             ({} served, {} expected)",
            written.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Runs the simulator oracle on `input` and compares.
///
/// # Errors
///
/// An oracle failure or a disagreement.
pub fn oracle_check(
    kind: ProtocolKind,
    params: TimingParams,
    input: &[Message],
    written: &[Message],
) -> Result<(), String> {
    let expected = expected_output(kind, params, input).map_err(|e| format!("oracle: {e}"))?;
    compare_with_oracle(input, &expected, written)
}

/// The paper's lower bound on effort for `kind` carrying `n` messages,
/// in ticks per message: Thm 5.3 for r-passive β, Thm 5.6 for active
/// Stenning, whose alphabet is `{0, …, 2n − 1}`, at `k = 2n`.
#[must_use]
pub fn lower_bound(kind: ProtocolKind, params: TimingParams, n: usize) -> Option<f64> {
    match kind {
        ProtocolKind::Beta { k } => Some(bounds::passive_lower(params, k)),
        ProtocolKind::Stenning { .. } => Some(bounds::active_lower(params, 2 * n as u64)),
        _ => None,
    }
}

/// Served effort below the paper's lower bound means the measurement is
/// broken (a clock or bookkeeping error), not that the server is fast.
///
/// # Errors
///
/// A description of the violation.
pub fn check_effort(effort: f64, lower: f64) -> Result<(), String> {
    if effort.is_finite() && effort >= lower {
        Ok(())
    } else {
        Err(format!(
            "served effort {effort:.4} ticks/msg is below the paper's lower bound {lower:.4}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_sim::harness::random_input;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 8).expect("params")
    }

    #[test]
    fn exact_output_passes() {
        let x = vec![true, false, true];
        assert_eq!(check_session(&x, &x, true), Ok(()));
    }

    #[test]
    fn wrong_short_and_unfinished_outputs_fail() {
        let x = vec![true, false, true];
        assert_eq!(
            check_session(&x, &[true, true], true),
            Err(Fault::NotPrefix)
        );
        assert_eq!(check_session(&x, &[true, false], true), Err(Fault::Short));
        assert_eq!(check_session(&x, &x, false), Err(Fault::Incomplete));
        let mut longer = x.clone();
        longer.push(false);
        assert_eq!(check_session(&x, &longer, true), Err(Fault::NotPrefix));
    }

    #[test]
    fn the_oracle_agrees_with_a_correct_output() {
        let x = random_input(64, 3);
        let kind = ProtocolKind::Beta { k: 4 };
        assert_eq!(oracle_check(kind, params(), &x, &x), Ok(()));
    }

    #[test]
    fn a_corrupted_expected_output_is_rejected() {
        let x = random_input(64, 5);
        let kind = ProtocolKind::Beta { k: 4 };
        let mut expected = expected_output(kind, params(), &x).expect("oracle");
        assert_eq!(compare_with_oracle(&x, &expected, &x), Ok(()));
        expected[17] = !expected[17];
        assert!(compare_with_oracle(&x, &expected, &x).is_err());
        // A corrupted served output is rejected by the real oracle too.
        let mut served = x.clone();
        served[40] = !served[40];
        assert!(oracle_check(kind, params(), &x, &served).is_err());
    }

    #[test]
    fn effort_below_the_lower_bound_is_a_broken_measurement() {
        let lower = lower_bound(ProtocolKind::Beta { k: 4 }, params(), 64).expect("beta");
        assert!(lower > 0.0);
        assert!(check_effort(lower * 2.0, lower).is_ok());
        assert!(check_effort(lower * 0.5, lower).is_err());
        assert!(check_effort(f64::NAN, lower).is_err());
        let stenning = ProtocolKind::Stenning {
            timeout_steps: None,
        };
        assert!(lower_bound(stenning, params(), 64).expect("stenning") > 0.0);
    }
}
