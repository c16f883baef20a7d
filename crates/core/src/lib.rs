//! The Real-Time Sequence Transmission Problem (RSTP) — problem statement,
//! protocols, and effort bounds.
//!
//! This crate is the primary-contribution layer of a full reproduction of
//! Da-Wei Wang and Lenore D. Zuck, *Real-Time Sequence Transmission
//! Problem* (Yale YALEU/DCS/TR-856, May 1991; PODC 1991): a transmitter must
//! reliably communicate a finite binary sequence `X` to a receiver over a
//! channel that delivers every packet within `d` time units but may reorder
//! freely, while both processes take local steps every `c1`-to-`c2` time
//! units. The **effort** of a solution is the worst-case average time per
//! transmitted message.
//!
//! # What lives where
//!
//! * [`action`] — the shared action alphabet (`send`/`recv`/`write`/idles).
//! * [`params`] — the validated triple `(c1, c2, d)` and the derived step
//!   counts `δ1 = d/c1`, `δ2 = d/c2`.
//! * [`channel`] — the channel automaton `C(P)` (reliable, unordered).
//! * [`protocols`] — `A^α` (Fig 1), `A^β(k)` (Fig 3), `A^γ(k)` (Fig 4), the
//!   alternating-bit baseline, and a self-delimiting framed variant; plus
//!   [`ProtocolKind`], the protocol table every other crate reads.
//! * [`state_codec`] — the receiver-state encoding a session snapshot
//!   carries.
//! * [`bounds`] — the closed forms of Theorems 5.3/5.6 and the §6 protocol
//!   guarantees, plus passive/active crossover analysis.
//! * [`ext`] — the §7 future-work model (delivery window `[d_lo, d_hi]`,
//!   per-process step bounds) made concrete.
//!
//! The timed semantics (who steps when, which in-flight packet is delivered
//! when) is the **simulator's** job — see the `rstp-sim` crate, which drives
//! these automata under adversarial schedules and measures effort.
//!
//! # Quickstart
//!
//! ```
//! use rstp_automata::Automaton;
//! use rstp_core::protocols::{BetaReceiver, BetaTransmitter};
//! use rstp_core::{Packet, RstpAction, TimingParams};
//!
//! // c1 = 1, c2 = 2, d = 6: delta1 = 6 fast steps cover one delivery bound.
//! let params = TimingParams::from_ticks(1, 2, 6).unwrap();
//! let input = vec![true, false, true, true, false, false, true];
//!
//! // The optimal r-passive protocol with a 4-symbol packet alphabet.
//! let t = BetaTransmitter::new(params, 4, &input).unwrap();
//! let r = BetaReceiver::new(params, 4, input.len()).unwrap();
//!
//! // Hand-deliver every packet (the simulator normally does this, with
//! // adversarial timing and reordering).
//! let mut ts = t.initial_state();
//! let mut rs = r.initial_state();
//! while let Some(a) = t.enabled(&ts).first().copied() {
//!     ts = t.step(&ts, &a).unwrap();
//!     if let RstpAction::Send(Packet::Data(s)) = a {
//!         rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
//!     }
//! }
//! assert_eq!(rs.decoded, input);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod bounds;
pub mod channel;
pub mod ext;
pub mod params;
#[macro_use]
pub mod state_codec;
pub mod protocols;

pub use action::{InternalKind, Message, Owner, Packet, RstpAction, SessionId};
pub use channel::{Channel, ChannelState};
pub use ext::{ProcessTiming, TimingParamsExt};
pub use params::{ParamError, TimingParams};
pub use protocols::{ProtocolError, ProtocolKind};
pub use state_codec::StateCodec;
