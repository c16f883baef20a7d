//! The protocol table: the one place that holds every per-family fact.
//!
//! [`ProtocolKind`] names a family plus its parameters. `TABLE` holds one
//! row per family with the facts the paper describes a protocol by (its
//! class, alphabet and burst) and the ones this workspace adds (name,
//! record/snapshot tag, wire id, fault model). Every other crate reads
//! those facts through the methods below, and constructs automata through
//! [`ProtocolKind::with_transmitter`], [`ProtocolKind::with_receiver`] or
//! [`ProtocolKind::with_pair`], which hand them to a visitor because each
//! family's automata have their own types.
//!
//! Adding a family takes one file under `protocols/` (its automata and a
//! `state_codec!` line for the receiver state), a variant, a `TABLE` row
//! and one arm in `ProtocolKind::construct` naming its two constructors.

use super::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, ProtocolError, StabBetaReceiver,
    StabStenningReceiver, StabStenningTransmitter, StenningReceiver, StenningTransmitter,
};
use crate::bounds::{self, Family};
use crate::state_codec::{Cur, Field, StateCodec};
use crate::{Message, RstpAction, TimingParams, TimingParamsExt};
use core::str::FromStr;
use rstp_automata::{Automaton, TimeDelta};
use ProtocolKind as P;

/// Which protocol to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// `A^α` — Figure 1, one raw bit per `δ1`-step round.
    Alpha,
    /// `A^β(k)` — Figure 3, multiset-coded bursts with counted idling.
    Beta {
        /// Packet alphabet size.
        k: u64,
    },
    /// `A^γ(k)` — Figure 4, multiset-coded bursts clocked by acks.
    Gamma {
        /// Packet alphabet size.
        k: u64,
    },
    /// Alternating-bit baseline (timeout-driven retransmission).
    AltBit {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// Self-delimiting `A^β(k)` with an in-band length header.
    Framed {
        /// Packet alphabet size.
        k: u64,
    },
    /// The §7 window-optimized `A^β(k)`: wait phase shortened using the
    /// run's `d_lo` (experiment E8).
    BetaWindow {
        /// Packet alphabet size.
        k: u64,
    },
    /// Stenning's \[Ste76\] baseline: unbounded sequence numbers,
    /// loss/dup/reorder-tolerant.
    Stenning {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// The pipelined active extension `A^δ(k, w)`: window-`w` `gamma` with
    /// tag-carrying bursts (wire alphabet `w·k`).
    Pipelined {
        /// Base packet alphabet size.
        k: u64,
        /// Window size (`2` is the default configuration).
        window: u64,
    },
    /// Self-stabilizing Stenning: tags mod 4 plus a flush/sync recovery
    /// ladder; converges from arbitrary corrupted state.
    StabStenning {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// Self-stabilizing `A^β(k)`: lengthened inter-burst silence plus
    /// gap-reset framing at the receiver.
    StabBeta {
        /// Packet alphabet size.
        k: u64,
    },
}

/// A kind's parameters, flattened: a field its variant lacks reads `0`
/// or `None`. Recordings and snapshots store these after the tag byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindFields {
    /// Packet alphabet size.
    pub k: u64,
    /// Window size.
    pub window: u64,
    /// Retransmission period in steps.
    pub timeout_steps: Option<u64>,
}

/// Why [`ProtocolKind::from_name`] refused a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KindError {
    /// No family has this name.
    Unknown,
    /// The family takes an alphabet size and none was given.
    NeedsK,
}

/// Which parameters a family's variant carries.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Plain,
    K,
    /// `k` and a window `w`; the window's tags ride in the symbols, so
    /// the transmitter sends from a `w·k` alphabet.
    KWindow,
    Timeout,
}

/// How many transmitter steps one burst spans: 1, `δ1` or `δ2`.
#[derive(Clone, Copy, Debug)]
enum Burst {
    One,
    Delta1,
    Delta2,
}

/// Which closed forms bound a family's effort.
#[derive(Clone, Copy, Debug)]
enum Bound {
    /// The paper bounds neither baselines nor the stabilizing variants.
    None,
    /// `A^α`'s effort is exact (Fig 1).
    Exact,
    /// Thm 5.3 (passive) or Thm 5.6 (active) from below.
    Lower(Family),
    /// The paper's §6 construction: the class bound from below and the
    /// §6.1/§6.2 guarantee from above.
    Optimal(Family),
}

/// Which faults the fuzzer may script for a family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Faults {
    None,
    /// Injected loss and duplication.
    LossDup,
    /// Arbitrary state corruption (the family self-stabilizes).
    Corruption,
}

struct Row {
    /// The CLI `--protocol` value and the corpus token's first word.
    name: &'static str,
    /// The record/snapshot tag byte.
    tag: u8,
    shape: Shape,
    make: fn(KindFields) -> ProtocolKind,
    /// The wire header's protocol-id byte; `None` means simulator-only.
    wire_id: Option<u8>,
    burst: Burst,
    bound: Bound,
    faults: Faults,
}

// Two lines per row, so the table reads as one.
#[rustfmt::skip]
const TABLE: [Row; 10] = [
    Row { name: "alpha", tag: 1, shape: Shape::Plain, wire_id: Some(1), burst: Burst::One,
          bound: Bound::Exact, faults: Faults::None, make: |_| P::Alpha },
    Row { name: "beta", tag: 2, shape: Shape::K, wire_id: Some(2), burst: Burst::Delta1,
          bound: Bound::Optimal(Family::Passive), faults: Faults::None,
          make: |f| P::Beta { k: f.k } },
    Row { name: "gamma", tag: 3, shape: Shape::K, wire_id: Some(3), burst: Burst::Delta2,
          bound: Bound::Optimal(Family::Active), faults: Faults::None,
          make: |f| P::Gamma { k: f.k } },
    Row { name: "altbit", tag: 4, shape: Shape::Timeout, wire_id: Some(4), burst: Burst::One,
          bound: Bound::None, faults: Faults::None,
          make: |f| P::AltBit { timeout_steps: f.timeout_steps } },
    Row { name: "framed", tag: 5, shape: Shape::K, wire_id: Some(5), burst: Burst::Delta1,
          bound: Bound::Lower(Family::Passive), faults: Faults::None,
          make: |f| P::Framed { k: f.k } },
    // No wire id: its wait phase depends on a per-run d_lo that the wire
    // header does not carry, so two endpoints could silently disagree.
    Row { name: "beta-window", tag: 6, shape: Shape::K, wire_id: None, burst: Burst::Delta1,
          bound: Bound::Lower(Family::Passive), faults: Faults::None,
          make: |f| P::BetaWindow { k: f.k } },
    Row { name: "stenning", tag: 7, shape: Shape::Timeout, wire_id: Some(6), burst: Burst::One,
          bound: Bound::None, faults: Faults::LossDup,
          make: |f| P::Stenning { timeout_steps: f.timeout_steps } },
    Row { name: "pipelined", tag: 8, shape: Shape::KWindow, wire_id: Some(7),
          burst: Burst::Delta2, bound: Bound::Lower(Family::Active), faults: Faults::None,
          make: |f| P::Pipelined { k: f.k, window: f.window } },
    Row { name: "stab-stenning", tag: 9, shape: Shape::Timeout, wire_id: Some(8),
          burst: Burst::One, bound: Bound::None, faults: Faults::Corruption,
          make: |f| P::StabStenning { timeout_steps: f.timeout_steps } },
    Row { name: "stab-beta", tag: 10, shape: Shape::K, wire_id: Some(9), burst: Burst::Delta1,
          bound: Bound::None, faults: Faults::Corruption,
          make: |f| P::StabBeta { k: f.k } },
];

/// The paper's closed-form effort bound for one kind, in ticks per message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EffortBound {
    /// `A^α`'s effort is exactly `(1 + δ1)·c2` on every schedule (Fig 1).
    Exact(f64),
    /// No protocol of the family's class and alphabet beats `lower`
    /// (`theorem` is `"Thm 5.3"` or `"Thm 5.6"`); the paper's own §6
    /// construction also carries `upper`.
    Range {
        /// The lower bound.
        lower: f64,
        /// The theorem that proves it.
        theorem: &'static str,
        /// The §6 guarantee, when the family carries it.
        upper: Option<UpperBound>,
    },
}

/// A §6 effort guarantee.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpperBound {
    /// The guarantee as `n → ∞`.
    pub asymptotic: f64,
    /// The guarantee for the run's finite `n` (whole rounds).
    pub finite: f64,
    /// The section that proves it (`"§6.1"` or `"§6.2"`).
    pub section: &'static str,
}

/// A transmitter automaton as every driver runs it.
pub trait Transmitter: Automaton<Action = RstpAction> + Send + 'static {}

impl<T: Automaton<Action = RstpAction> + Send + 'static> Transmitter for T {}

/// A receiver automaton whose state can move between shards and into
/// recordings.
pub trait Receiver:
    Automaton<Action = RstpAction, State: StateCodec + Send> + Send + 'static
{
}

impl<R> Receiver for R
where
    R: Automaton<Action = RstpAction> + Send + 'static,
    R::State: StateCodec + Send,
{
}

/// Receives the transmitter [`ProtocolKind::with_transmitter`] built.
pub trait TransmitterVisitor {
    /// What visiting produces.
    type Output;
    /// Called once, with the family's transmitter.
    fn visit<T: Transmitter>(self, transmitter: T) -> Self::Output;
}

/// Receives the receiver [`ProtocolKind::with_receiver`] built.
pub trait ReceiverVisitor {
    /// What visiting produces.
    type Output;
    /// Called once, with the family's receiver.
    fn visit<R: Receiver>(self, receiver: R) -> Self::Output;
}

/// Receives the pair [`ProtocolKind::with_pair`] built.
pub trait PairVisitor {
    /// What visiting produces.
    type Output;
    /// Called once, with the family's transmitter and receiver.
    fn visit<T: Transmitter, R: Receiver>(self, transmitter: T, receiver: R) -> Self::Output;
}

type MakeTx<'a, T> = &'a dyn Fn(&[Message]) -> Result<T, ProtocolError>;
type MakeRx<'a, R> = &'a dyn Fn(usize) -> Result<R, ProtocolError>;

/// What each public dispatcher does with one family's two constructors.
trait Construct {
    type Output;
    fn construct<T: Transmitter, R: Receiver>(
        self,
        tx: MakeTx<T>,
        rx: MakeRx<R>,
    ) -> Result<Self::Output, ProtocolError>;
}

struct Tx<'a, V>(&'a [Message], V);

impl<V: TransmitterVisitor> Construct for Tx<'_, V> {
    type Output = V::Output;
    fn construct<T: Transmitter, R: Receiver>(
        self,
        tx: MakeTx<T>,
        _: MakeRx<R>,
    ) -> Result<V::Output, ProtocolError> {
        Ok(self.1.visit(tx(self.0)?))
    }
}

struct Rx<V>(usize, V);

impl<V: ReceiverVisitor> Construct for Rx<V> {
    type Output = V::Output;
    fn construct<T: Transmitter, R: Receiver>(
        self,
        _: MakeTx<T>,
        rx: MakeRx<R>,
    ) -> Result<V::Output, ProtocolError> {
        Ok(self.1.visit(rx(self.0)?))
    }
}

struct Pair<'a, V>(&'a [Message], V);

impl<V: PairVisitor> Construct for Pair<'_, V> {
    type Output = V::Output;
    fn construct<T: Transmitter, R: Receiver>(
        self,
        tx: MakeTx<T>,
        rx: MakeRx<R>,
    ) -> Result<V::Output, ProtocolError> {
        Ok(self.1.visit(tx(self.0)?, rx(self.0.len())?))
    }
}

impl ProtocolKind {
    fn row(self) -> &'static Row {
        match self {
            P::Alpha => &TABLE[0],
            P::Beta { .. } => &TABLE[1],
            P::Gamma { .. } => &TABLE[2],
            P::AltBit { .. } => &TABLE[3],
            P::Framed { .. } => &TABLE[4],
            P::BetaWindow { .. } => &TABLE[5],
            P::Stenning { .. } => &TABLE[6],
            P::Pipelined { .. } => &TABLE[7],
            P::StabStenning { .. } => &TABLE[8],
            P::StabBeta { .. } => &TABLE[9],
        }
    }

    /// The family's name: the CLI `--protocol` value.
    #[must_use]
    pub fn family(self) -> &'static str {
        self.row().name
    }

    /// The kind named `name`; each family reads only the parameters its
    /// variant carries. `window` defaults to 2, `timeout_steps` to the
    /// family's safe default.
    ///
    /// # Errors
    ///
    /// [`KindError`] for an unknown name, or a family that takes an
    /// alphabet size when `k` is `None`.
    pub fn from_name(
        name: &str,
        k: Option<u64>,
        window: Option<u64>,
        timeout_steps: Option<u64>,
    ) -> Result<ProtocolKind, KindError> {
        let row = TABLE
            .iter()
            .find(|row| row.name == name)
            .ok_or(KindError::Unknown)?;
        let k = match (row.shape, k) {
            (Shape::K | Shape::KWindow, None) => return Err(KindError::NeedsK),
            (_, k) => k.unwrap_or(0),
        };
        let window = window.unwrap_or(2);
        Ok((row.make)(KindFields {
            k,
            window,
            timeout_steps,
        }))
    }

    /// The kind's parameters, flattened.
    #[must_use]
    pub fn fields(self) -> KindFields {
        let none = KindFields::default();
        match self {
            P::Alpha => none,
            P::Beta { k }
            | P::Gamma { k }
            | P::Framed { k }
            | P::BetaWindow { k }
            | P::StabBeta { k } => KindFields { k, ..none },
            P::Pipelined { k, window } => KindFields { k, window, ..none },
            P::AltBit { timeout_steps }
            | P::Stenning { timeout_steps }
            | P::StabStenning { timeout_steps } => KindFields {
                timeout_steps,
                ..none
            },
        }
    }

    /// A short stable name for tables, e.g. `beta(k=4)` or
    /// `pipelined(k=4,w=2)`.
    #[must_use]
    pub fn name(self) -> String {
        let KindFields { k, window, .. } = self.fields();
        let name = self.family();
        match self.row().shape {
            Shape::Plain | Shape::Timeout => name.into(),
            Shape::K => format!("{name}(k={k})"),
            Shape::KWindow => format!("{name}(k={k},w={window})"),
        }
    }

    /// The corpus-file `protocol =` token, e.g. `pipelined k=4 w=2` or
    /// `stenning timeout=none`; [`FromStr`] parses it back.
    #[must_use]
    pub fn corpus_token(self) -> String {
        let f = self.fields();
        let name = self.family();
        match (self.row().shape, f.timeout_steps) {
            (Shape::Plain, _) => name.into(),
            (Shape::K, _) => format!("{name} k={}", f.k),
            (Shape::KWindow, _) => format!("{name} k={} w={}", f.k, f.window),
            (Shape::Timeout, Some(t)) => format!("{name} timeout={t}"),
            (Shape::Timeout, None) => format!("{name} timeout=none"),
        }
    }

    /// Appends the record/snapshot header of this kind:
    /// `tag u8 | k u64 | window u64 | timeout flag u8 + u64`.
    pub fn encode_tag(self, out: &mut Vec<u8>) {
        let f = self.fields();
        self.row().tag.encode_field(out);
        f.k.encode_field(out);
        f.window.encode_field(out);
        f.timeout_steps.encode_field(out);
    }

    /// The wire header's protocol-id byte; `None` for the simulator-only
    /// families.
    #[must_use]
    pub fn wire_id(self) -> Option<u8> {
        self.row().wire_id
    }

    /// The protocol's burst size under `params` (1 for the per-message
    /// protocols) — what the `ReverseBurst` adversary should group by.
    #[must_use]
    pub fn burst_size(self, params: TimingParams) -> u64 {
        match self.row().burst {
            Burst::One => 1,
            Burst::Delta1 => params.delta1(),
            Burst::Delta2 => params.delta2(),
        }
    }

    /// Passive or active, as the paper classes the family; `None` for the
    /// baselines and the stabilizing variants.
    #[must_use]
    pub fn class(self) -> Option<Family> {
        match self.row().bound {
            Bound::None => None,
            Bound::Exact => Some(Family::Passive),
            Bound::Lower(class) | Bound::Optimal(class) => Some(class),
        }
    }

    /// Whether the family recovers from arbitrary state corruption.
    #[must_use]
    pub fn is_stabilizing(self) -> bool {
        self.row().faults == Faults::Corruption
    }

    /// Whether the family tolerates injected loss and duplication.
    #[must_use]
    pub fn tolerates_faults(self) -> bool {
        self.row().faults == Faults::LossDup
    }

    /// The paper's effort bound for this kind carrying `n` messages;
    /// `None` for the families it does not bound. Class bounds hold over
    /// the alphabet the transmitter sends from: `w·k` when windowed.
    #[must_use]
    pub fn effort_bound(self, params: TimingParams, n: usize) -> Option<EffortBound> {
        let KindFields { k, window, .. } = self.fields();
        let k = match self.row().shape {
            Shape::KWindow => k.saturating_mul(window),
            _ => k,
        };
        let (class, optimal) = match self.row().bound {
            Bound::None => return None,
            Bound::Exact => return Some(EffortBound::Exact(bounds::alpha_effort(params))),
            Bound::Lower(class) => (class, false),
            Bound::Optimal(class) => (class, true),
        };
        let (theorem, upper) = match class {
            Family::Passive => (
                "Thm 5.3",
                UpperBound {
                    asymptotic: bounds::passive_upper(params, k),
                    finite: bounds::passive_upper_finite(params, k, n),
                    section: "§6.1",
                },
            ),
            Family::Active => (
                "Thm 5.6",
                UpperBound {
                    asymptotic: bounds::active_upper(params, k),
                    finite: bounds::active_upper_finite(params, k, n),
                    section: "§6.2",
                },
            ),
        };
        Some(EffortBound::Range {
            lower: bounds::family_lower(params, class, k),
            theorem,
            upper: optimal.then_some(upper),
        })
    }

    /// Builds this kind's transmitter carrying `input` for `visitor`.
    /// Only [`ProtocolKind::BetaWindow`] reads the §7 delivery floor
    /// `d_lo` (`ZERO` is the classic model).
    ///
    /// # Errors
    ///
    /// The family's construction error.
    pub fn with_transmitter<V: TransmitterVisitor>(
        self,
        params: TimingParams,
        d_lo: TimeDelta,
        input: &[Message],
        visitor: V,
    ) -> Result<V::Output, ProtocolError> {
        self.construct(params, d_lo, Tx(input, visitor))
    }

    /// Builds this kind's receiver expecting `n` messages for `visitor`;
    /// `d_lo` as for [`with_transmitter`](Self::with_transmitter).
    ///
    /// # Errors
    ///
    /// The family's construction error.
    pub fn with_receiver<V: ReceiverVisitor>(
        self,
        params: TimingParams,
        d_lo: TimeDelta,
        n: usize,
        visitor: V,
    ) -> Result<V::Output, ProtocolError> {
        self.construct(params, d_lo, Rx(n, visitor))
    }

    /// Builds the transmitter carrying `input` and the receiver expecting
    /// `input.len()` messages for `visitor`. Nesting the one-sided
    /// dispatchers would instantiate it for every pairing of families.
    ///
    /// # Errors
    ///
    /// The family's construction error.
    pub fn with_pair<V: PairVisitor>(
        self,
        params: TimingParams,
        d_lo: TimeDelta,
        input: &[Message],
        visitor: V,
    ) -> Result<V::Output, ProtocolError> {
        self.construct(params, d_lo, Pair(input, visitor))
    }

    /// The one place that names each family's constructors.
    fn construct<C: Construct>(
        self,
        p: TimingParams,
        d_lo: TimeDelta,
        c: C,
    ) -> Result<C::Output, ProtocolError> {
        match self {
            P::Alpha => c.construct(&|x| Ok(AlphaTransmitter::new(p, x.to_vec())), &|_| {
                Ok(AlphaReceiver::new())
            }),
            P::Beta { k } => c.construct(&|x| BetaTransmitter::new(p, k, x), &|n| {
                BetaReceiver::new(p, k, n)
            }),
            P::Gamma { k } => c.construct(&|x| GammaTransmitter::new(p, k, x), &|n| {
                GammaReceiver::new(p, k, n)
            }),
            P::AltBit { timeout_steps: t } => c
                .construct(&|x| Ok(AltBitTransmitter::new(p, x.to_vec(), t)), &|_| {
                    Ok(AltBitReceiver::new())
                }),
            P::Framed { k } => c.construct(&|x| FramedTransmitter::new(p, k, x), &|_| {
                FramedReceiver::new(p, k)
            }),
            P::BetaWindow { k } => {
                let ext = TimingParamsExt::from_classic(p).with_d_lo(d_lo);
                c.construct(&|x| ext.passive_transmitter(k, x), &|n| {
                    ext.passive_receiver(k, n)
                })
            }
            P::Stenning { timeout_steps: t } => c
                .construct(&|x| Ok(StenningTransmitter::new(p, x.to_vec(), t)), &|_| {
                    Ok(StenningReceiver::new())
                }),
            P::Pipelined { k, window } => c.construct(
                &|x| PipelinedTransmitter::with_window(p, k, window, x),
                &|n| PipelinedReceiver::with_window(p, k, window, n),
            ),
            P::StabStenning { timeout_steps: t } => c.construct(
                &|x| Ok(StabStenningTransmitter::new(p, x.to_vec(), t)),
                &|_| Ok(StabStenningReceiver::new()),
            ),
            P::StabBeta { k } => c.construct(&|x| stab_beta_transmitter(p, k, x), &|n| {
                StabBetaReceiver::new(p, k, n)
            }),
        }
    }
}

impl FromStr for ProtocolKind {
    type Err = String;

    /// Parses a [`corpus_token`](ProtocolKind::corpus_token); arguments
    /// the family does not take are ignored.
    fn from_str(token: &str) -> Result<ProtocolKind, String> {
        let number = |what: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{what}: expected an integer, got `{v}`"))
        };
        let mut words = token.split_whitespace();
        let name = words.next().unwrap_or("");
        let (mut k, mut window, mut timeout) = (None, None, None);
        for word in words {
            let (key, v) = word
                .split_once('=')
                .ok_or_else(|| format!("protocol argument `{word}` is not key=value"))?;
            match key {
                "k" => k = Some(number("protocol k", v)?),
                "w" => window = Some(number("protocol w", v)?),
                "timeout" if v == "none" => timeout = None,
                "timeout" => timeout = Some(number("protocol timeout", v)?),
                _ => return Err(format!("unknown protocol argument `{key}`")),
            }
        }
        ProtocolKind::from_name(name, k, window, timeout).map_err(|e| match e {
            KindError::Unknown => format!("unknown protocol `{name}`"),
            KindError::NeedsK => format!("protocol `{name}` needs k=<n>"),
        })
    }
}

impl KindFields {
    /// The kind a record/snapshot header's `tag` names with these fields;
    /// `None` for an unknown tag. Tags run from 1 without gaps.
    #[must_use]
    pub fn kind(self, tag: u8) -> Option<ProtocolKind> {
        let row = TABLE.iter().find(|row| row.tag == tag)?;
        Some((row.make)(self))
    }
}

impl Cur<'_> {
    /// Reads what [`ProtocolKind::encode_tag`] wrote; `None` on
    /// truncation, a bad flag byte or an unknown tag.
    pub fn protocol_kind(&mut self) -> Option<ProtocolKind> {
        let tag = self.next_field()?;
        let fields = KindFields {
            k: self.next_field()?,
            window: self.next_field()?,
            timeout_steps: self.next_field()?,
        };
        fields.kind(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 6).expect("valid") // δ1 = 6, δ2 = 3
    }

    #[test]
    fn names_and_tokens_are_stable() {
        let p = ProtocolKind::Pipelined { k: 4, window: 2 };
        assert_eq!(p.name(), "pipelined(k=4,w=2)");
        assert_eq!(p.corpus_token(), "pipelined k=4 w=2");
        assert_eq!(ProtocolKind::Beta { k: 2 }.name(), "beta(k=2)");
        let altbit = ProtocolKind::AltBit {
            timeout_steps: None,
        };
        assert_eq!(altbit.name(), "altbit");
        assert_eq!(altbit.corpus_token(), "altbit timeout=none");
        assert_eq!(ProtocolKind::StabBeta { k: 4 }.name(), "stab-beta(k=4)");
        assert_eq!(
            ProtocolKind::from_name("beta", None, None, None),
            Err(KindError::NeedsK)
        );
        assert_eq!(
            ProtocolKind::from_name("delta", Some(4), None, None),
            Err(KindError::Unknown)
        );
        assert_eq!(
            "pipelined k=3".parse(),
            Ok(ProtocolKind::Pipelined { k: 3, window: 2 })
        );
        assert!("beta k".parse::<ProtocolKind>().is_err());
        assert!("beta k=4 q=1".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn burst_and_class_facts() {
        let p = params();
        assert_eq!(ProtocolKind::Alpha.burst_size(p), 1);
        assert_eq!(ProtocolKind::Beta { k: 2 }.burst_size(p), 6);
        assert_eq!(ProtocolKind::Gamma { k: 2 }.burst_size(p), 3);
        assert_eq!(ProtocolKind::StabBeta { k: 4 }.burst_size(p), 6);
        let stab = ProtocolKind::StabStenning {
            timeout_steps: None,
        };
        assert_eq!(stab.burst_size(p), 1);
        assert!(stab.is_stabilizing());
        assert_eq!(stab.class(), None);
        assert_eq!(
            ProtocolKind::Pipelined { k: 4, window: 2 }.class(),
            Some(Family::Active)
        );
        assert!(ProtocolKind::Stenning {
            timeout_steps: None
        }
        .tolerates_faults());
        assert_eq!(ProtocolKind::BetaWindow { k: 4 }.wire_id(), None);
    }
}
