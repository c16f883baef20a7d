//! The paper's protocols, each as a pair of I/O automata.
//!
//! | module | paper | transmitter alphabet | receiver sends | effort (shown in §4/§6) |
//! |---|---|---|---|---|
//! | [`alpha`] | Fig. 1, §4 | `{0, 1}` (the raw bits) | nothing | `(1 + δ1) · c2` per message |
//! | [`beta`]  | Fig. 3, §6.1 | `{0, …, k-1}` | nothing | `≤ 2·δ1·c2 / ⌊log2 μ_k(δ1)⌋` |
//! | [`gamma`] | Fig. 4, §6.2 | `{0, …, k-1}` | `ack` | `≤ (3d + c2) / ⌊log2 μ_k(δ2)⌋` |
//! | [`altbit`] | §1 context (\[BSW69\]) | tagged bits | tagged acks | baseline for *faulty* channels |
//! | [`stenning`] | §1 context (\[Ste76\]) | unbounded `(seq, bit)` | `ack(seq)` | survives loss+dup+reorder (unbounded alphabet) |
//! | [`framed`] | extension | `{0, …, k-1}` | nothing | self-delimiting `beta` (length header) |
//! | [`pipelined`] | extension | `{0, …, w·k-1}` (tag-carrying) | `ack(tag)` | window-`w` `gamma`: `≈ (3d+c2) / (w·⌊log2 μ_k(δ2)⌋)` in the friendly regime |
//!
//! Every automaton is written in explicit precondition/effect style mirroring
//! the paper's figures; the figure's variable names are kept in the state
//! structs' documentation. All are deterministic — at most one local action
//! enabled per state — except where noted (`gamma`'s receiver resolves the
//! paper's ack-vs-write nondeterminism by a fixed ack-first priority).
//!
//! The paper presents its protocols with the encoding step elided ("the
//! encoding/decoding parts are straightforward but tedious"); here the
//! encoding is real: transmitters carry a [`rstp_codec::BlockCodec`] and
//! receivers decode the multiset of each burst back into message bits.
//!
//! [`ProtocolKind`] names a family plus its parameters; the [`kind`]
//! module is the protocol table holding every per-family fact and the
//! one place that constructs each family's automata.

pub mod alpha;
pub mod altbit;
pub mod beta;
pub mod framed;
pub mod gamma;
pub mod kind;
pub mod pipelined;
pub mod stabilizing;
pub mod stenning;

use core::fmt;
use rstp_codec::CodecError;

/// Errors constructing a protocol instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The packet alphabet is too small (`k < 2`).
    AlphabetTooSmall {
        /// The offending alphabet size.
        k: u64,
    },
    /// Block codec construction failed.
    Codec(CodecError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::AlphabetTooSmall { k } => {
                write!(f, "packet alphabet must have k >= 2 symbols, got {k}")
            }
            ProtocolError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

pub use alpha::{AlphaReceiver, AlphaReceiverState, AlphaTransmitter, AlphaTransmitterState};
pub use altbit::{AltBitReceiver, AltBitReceiverState, AltBitTransmitter, AltBitTransmitterState};
pub use beta::{BetaReceiver, BetaReceiverState, BetaTransmitter, BetaTransmitterState};
pub use framed::{FramedReceiver, FramedReceiverState, FramedTransmitter};
pub use gamma::{GammaReceiver, GammaReceiverState, GammaTransmitter, GammaTransmitterState};
pub use kind::{
    EffortBound, KindError, KindFields, PairVisitor, ProtocolKind, Receiver, ReceiverVisitor,
    Transmitter, TransmitterVisitor, UpperBound,
};
pub use pipelined::{
    PipelinedReceiver, PipelinedReceiverState, PipelinedTransmitter, PipelinedTransmitterState,
};
pub use stabilizing::{
    stab_beta_bound, stab_beta_transmitter, stab_stenning_bound, StabBetaReceiver,
    StabBetaReceiverState, StabPhase, StabStenningReceiver, StabStenningReceiverState,
    StabStenningTransmitter, StabStenningTransmitterState,
};
pub use stenning::{
    StenningReceiver, StenningReceiverState, StenningTransmitter, StenningTransmitterState,
};
