//! The paper's §7 future-work model, implemented: a delivery **window**
//! `[d_lo, d_hi]` in place of the single bound `d`, and **per-process** step
//! bounds `(c1, c2)` for the transmitter and the receiver.
//!
//! > "For example, we can replace `d` by two constants, `d1 ≤ d2`, that
//! > determine the time range in which a packet is delivered, or we can
//! > assume that each process is associated with its own `c1` and `c2`."
//!
//! The interesting consequence for the r-passive protocol: Figure 3's
//! `δ1`-step wait exists to ensure burst `i` is fully delivered before any
//! packet of burst `i+1` arrives. With a minimum delay `d_lo > 0` that
//! requirement weakens to
//!
//! ```text
//! t_last_send(i) + d_hi  ≤  t_first_send(i+1) + d_lo
//! ```
//!
//! i.e. a send gap of only `d_hi - d_lo`, which needs
//! `⌈(d_hi - d_lo)/c1⌉` inter-burst steps instead of `δ1 = ⌈d_hi/c1⌉`.
//! As `d_lo → d_hi` (a nearly deterministic channel) the wait phase
//! vanishes and the r-passive effort halves to `δ1·c2 / b` — experiment E8
//! measures exactly this.

use crate::action::Message;
use crate::params::{ParamError, TimingParams};
use crate::protocols::beta::{BetaReceiver, BetaTransmitter};
use crate::protocols::ProtocolError;
use core::fmt;
use rstp_automata::TimeDelta;

/// Step bounds `(c1, c2)` for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProcessTiming {
    c1: TimeDelta,
    c2: TimeDelta,
}

impl ProcessTiming {
    /// Validates `0 < c1 ≤ c2`.
    ///
    /// # Errors
    ///
    /// [`ParamError`] on violation.
    pub fn new(c1: TimeDelta, c2: TimeDelta) -> Result<Self, ParamError> {
        if c1.is_zero() {
            return Err(ParamError::new("c1 must be positive"));
        }
        if c1 > c2 {
            return Err(ParamError::new(format!("c1 = {c1} exceeds c2 = {c2}")));
        }
        Ok(ProcessTiming { c1, c2 })
    }

    /// Convenience constructor from ticks.
    ///
    /// # Errors
    ///
    /// Same as [`ProcessTiming::new`].
    pub fn from_ticks(c1: u64, c2: u64) -> Result<Self, ParamError> {
        ProcessTiming::new(TimeDelta::from_ticks(c1), TimeDelta::from_ticks(c2))
    }

    /// Minimum step spacing.
    #[must_use]
    pub fn c1(self) -> TimeDelta {
        self.c1
    }

    /// Maximum step spacing.
    #[must_use]
    pub fn c2(self) -> TimeDelta {
        self.c2
    }
}

/// The §7 parameter set: per-process step bounds and a delivery window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimingParamsExt {
    transmitter: ProcessTiming,
    receiver: ProcessTiming,
    d_lo: TimeDelta,
    d_hi: TimeDelta,
}

impl TimingParamsExt {
    /// Validates `d_lo ≤ d_hi` and `max(c2) ≤ d_hi` (the analogue of the
    /// paper's `c2 ≤ d`).
    ///
    /// # Errors
    ///
    /// [`ParamError`] on violation.
    pub fn new(
        transmitter: ProcessTiming,
        receiver: ProcessTiming,
        d_lo: TimeDelta,
        d_hi: TimeDelta,
    ) -> Result<Self, ParamError> {
        if d_lo > d_hi {
            return Err(ParamError::new(format!(
                "d_lo = {d_lo} exceeds d_hi = {d_hi}"
            )));
        }
        let max_c2 = transmitter.c2.max(receiver.c2);
        if max_c2 > d_hi {
            return Err(ParamError::new(format!(
                "max process c2 = {max_c2} exceeds d_hi = {d_hi}"
            )));
        }
        Ok(TimingParamsExt {
            transmitter,
            receiver,
            d_lo,
            d_hi,
        })
    }

    /// Lifts a classical triple into the extended model
    /// (`d_lo = 0`, identical processes).
    #[must_use]
    pub fn from_classic(params: TimingParams) -> Self {
        let pt = ProcessTiming {
            c1: params.c1(),
            c2: params.c2(),
        };
        TimingParamsExt {
            transmitter: pt,
            receiver: pt,
            d_lo: TimeDelta::ZERO,
            d_hi: params.d(),
        }
    }

    /// This model with its delivery floor raised to `d_lo`, capped at
    /// `d_hi` (experiment E8's nearly deterministic channels).
    #[must_use]
    pub fn with_d_lo(self, d_lo: TimeDelta) -> Self {
        TimingParamsExt {
            d_lo: d_lo.min(self.d_hi),
            ..self
        }
    }

    /// The transmitter's step bounds.
    #[must_use]
    pub fn transmitter(self) -> ProcessTiming {
        self.transmitter
    }

    /// The receiver's step bounds.
    #[must_use]
    pub fn receiver(self) -> ProcessTiming {
        self.receiver
    }

    /// The minimum delivery delay.
    #[must_use]
    pub fn d_lo(self) -> TimeDelta {
        self.d_lo
    }

    /// The maximum delivery delay.
    #[must_use]
    pub fn d_hi(self) -> TimeDelta {
        self.d_hi
    }

    /// The window width `d_hi - d_lo` — the channel's *delay uncertainty*,
    /// which is what the r-passive wait phase actually pays for.
    #[must_use]
    pub fn window(self) -> TimeDelta {
        self.d_hi - self.d_lo
    }

    /// The transmitter's `δ1`: most transmitter steps within `d_hi`.
    #[must_use]
    pub fn delta1(self) -> u64 {
        self.d_hi.div_ceil(self.transmitter.c1)
    }

    /// The transmitter's `δ2`: fewest transmitter steps within `d_hi`.
    #[must_use]
    pub fn delta2(self) -> u64 {
        self.d_hi.div_floor(self.transmitter.c2).max(1)
    }

    /// The collapse to a classical triple that stays safe in this model:
    /// `(min c1, max c2, d_hi)`.
    ///
    /// # Errors
    ///
    /// [`ParamError`] if the collapsed triple violates `c2 ≤ d` (cannot
    /// happen for values accepted by [`TimingParamsExt::new`]).
    pub fn conservative(self) -> Result<TimingParams, ParamError> {
        TimingParams::new(
            self.transmitter.c1.min(self.receiver.c1),
            self.transmitter.c2.max(self.receiver.c2),
            self.d_hi,
        )
    }

    /// The wait-phase length (in transmitter steps) that the window model
    /// actually requires between bursts: enough steps that the send gap is
    /// at least `d_hi - d_lo`, i.e. `wait = max(0, ⌈window/c1⌉ - 1)`
    /// (the `-1` because the next burst's own first send adds one step of
    /// spacing).
    #[must_use]
    pub fn ext_passive_wait_steps(self) -> u64 {
        if self.window().is_zero() {
            return 0;
        }
        self.window()
            .div_ceil(self.transmitter.c1)
            .saturating_sub(1)
    }

    /// Builds the window-optimized r-passive transmitter: bursts of `δ1`
    /// packets separated by only [`ext_passive_wait_steps`] waits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaTransmitter::with_shape`].
    ///
    /// [`ext_passive_wait_steps`]: TimingParamsExt::ext_passive_wait_steps
    pub fn passive_transmitter(
        self,
        k: u64,
        input: &[Message],
    ) -> Result<BetaTransmitter, ProtocolError> {
        BetaTransmitter::with_shape(k, self.delta1(), self.ext_passive_wait_steps(), input)
    }

    /// The matching receiver (identical to the classical `A^β(k)` receiver
    /// for this burst size).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaReceiver::with_burst`].
    pub fn passive_receiver(
        self,
        k: u64,
        expected_bits: usize,
    ) -> Result<BetaReceiver, ProtocolError> {
        BetaReceiver::with_burst(k, self.delta1(), expected_bits)
    }

    /// Upper bound on the window-optimized r-passive effort:
    /// `(δ1 + wait) · c2_t / ⌊log2 μ_k(δ1)⌋` — reduces to the paper's
    /// `2·δ1·c2 / b` at `d_lo = 0` and to `δ1·c2 / b` at `d_lo = d_hi`.
    #[must_use]
    pub fn ext_passive_upper(self, k: u64) -> f64 {
        let delta1 = self.delta1();
        let round = delta1 + self.ext_passive_wait_steps();
        (round as f64) * (self.transmitter.c2.ticks() as f64)
            / f64::from(crate::bounds::block_bits(k, delta1))
    }
}

impl fmt::Display for TimingParamsExt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t:[{},{}] r:[{},{}] d:[{},{}]",
            self.transmitter.c1.ticks(),
            self.transmitter.c2.ticks(),
            self.receiver.c1.ticks(),
            self.receiver.c2.ticks(),
            self.d_lo.ticks(),
            self.d_hi.ticks()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt(n: u64) -> TimeDelta {
        TimeDelta::from_ticks(n)
    }

    fn ext(c1t: u64, c2t: u64, c1r: u64, c2r: u64, dlo: u64, dhi: u64) -> TimingParamsExt {
        TimingParamsExt::new(
            ProcessTiming::from_ticks(c1t, c2t).unwrap(),
            ProcessTiming::from_ticks(c1r, c2r).unwrap(),
            dt(dlo),
            dt(dhi),
        )
        .unwrap()
    }

    #[test]
    fn process_timing_validation() {
        assert!(ProcessTiming::from_ticks(0, 1).is_err());
        assert!(ProcessTiming::from_ticks(2, 1).is_err());
        let p = ProcessTiming::from_ticks(1, 2).unwrap();
        assert_eq!(p.c1().ticks(), 1);
        assert_eq!(p.c2().ticks(), 2);
    }

    #[test]
    fn ext_validation() {
        let pt = ProcessTiming::from_ticks(1, 2).unwrap();
        assert!(TimingParamsExt::new(pt, pt, dt(5), dt(4)).is_err()); // d_lo > d_hi
        assert!(TimingParamsExt::new(pt, pt, dt(0), dt(1)).is_err()); // c2 > d_hi
        assert!(TimingParamsExt::new(pt, pt, dt(0), dt(2)).is_ok());
    }

    #[test]
    fn from_classic_roundtrip() {
        let p = TimingParams::from_ticks(2, 3, 12).unwrap();
        let e = TimingParamsExt::from_classic(p);
        assert_eq!(e.d_lo(), TimeDelta::ZERO);
        assert_eq!(e.d_hi().ticks(), 12);
        assert_eq!(e.delta1(), p.delta1());
        assert_eq!(e.delta2(), p.delta2());
        assert_eq!(e.conservative().unwrap(), p);
    }

    #[test]
    fn conservative_takes_worst_of_both_processes() {
        let e = ext(2, 3, 1, 5, 0, 12);
        let c = e.conservative().unwrap();
        assert_eq!(c.c1().ticks(), 1);
        assert_eq!(c.c2().ticks(), 5);
        assert_eq!(c.d().ticks(), 12);
    }

    #[test]
    fn wait_steps_shrink_with_the_window() {
        // Classic: d_lo = 0, window = 12, c1 = 2 -> wait = 5 (plus the next
        // send's own step = 6 steps >= 12 ticks gap = δ1 spacing).
        assert_eq!(ext(2, 3, 2, 3, 0, 12).ext_passive_wait_steps(), 5);
        // Narrower windows need fewer waits…
        assert_eq!(ext(2, 3, 2, 3, 6, 12).ext_passive_wait_steps(), 2);
        assert_eq!(ext(2, 3, 2, 3, 10, 12).ext_passive_wait_steps(), 0);
        // …and a deterministic-delay channel needs none.
        assert_eq!(ext(2, 3, 2, 3, 12, 12).ext_passive_wait_steps(), 0);
    }

    #[test]
    fn deterministic_delay_halves_the_passive_bound() {
        let loose = ext(2, 3, 2, 3, 0, 12);
        let tight = ext(2, 3, 2, 3, 12, 12);
        let k = 4;
        let classic = crate::bounds::passive_upper(loose.conservative().unwrap(), k);
        assert!((loose.ext_passive_upper(k) - classic).abs() / classic < 0.2);
        // δ1 sends, zero waits: exactly half the classic round.
        assert!((tight.ext_passive_upper(k) - classic / 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_protocol_round_trips() {
        use crate::action::{Packet, RstpAction};
        use rstp_automata::Automaton;

        let e = ext(2, 3, 2, 3, 8, 12); // window 4 -> wait = 1
        assert_eq!(e.ext_passive_wait_steps(), 1);
        let input = vec![true, false, true, true, false, true];
        let t = e.passive_transmitter(3, &input).unwrap();
        let r = e.passive_receiver(3, input.len()).unwrap();
        assert_eq!(t.wait_len(), 1);

        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        while let Some(a) = t.enabled(&ts).first().copied() {
            ts = t.step(&ts, &a).unwrap();
            if let RstpAction::Send(Packet::Data(s)) = a {
                rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
            }
        }
        assert_eq!(rs.decoded, input);
    }

    #[test]
    fn display() {
        let e = ext(1, 2, 3, 4, 5, 10);
        assert_eq!(e.to_string(), "t:[1,2] r:[3,4] d:[5,10]");
    }
}
