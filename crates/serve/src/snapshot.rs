//! Versioned session-state snapshots: the payload of a handover
//! `SNAPSHOT` control frame and the recovery anchor in a flight
//! recording.
//!
//! A [`SessionSnapshot`] captures everything a shard needs to re-create
//! a live receiver session elsewhere — on a peer shard during a
//! pair-wise handover, or on a restarted shard replaying its flight
//! recording after a crash. The encoding is explicitly versioned and
//! length-prefixed so a future layout can coexist with recordings and
//! control frames produced by this one; golden-byte tests below pin the
//! v1 layout.
//!
//! The per-protocol receiver state is serialized through [`StateCodec`],
//! which every receiver state implements beside its own definition in
//! `rstp-core`; the strict decoding rules live in
//! [`rstp_core::state_codec`].

use rstp_core::state_codec::{Cur, Field};
pub use rstp_core::StateCodec;
use rstp_core::{Message, ProtocolKind};
use std::fmt;

/// Snapshot layout version written by this build.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the declared structure did.
    Truncated,
    /// Structurally invalid content (bad flag byte, out-of-range symbol,
    /// nonzero padding, unknown protocol tag, …).
    Malformed(&'static str),
    /// A version byte newer than [`SNAPSHOT_VERSION`].
    FutureVersion {
        /// The version byte found.
        got: u8,
    },
    /// Bytes remained after a complete snapshot.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::FutureVersion { got } => {
                write!(
                    f,
                    "snapshot version {got} is newer than supported {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Everything needed to re-create one live receiver session: identity,
/// protocol, progress, and the protocol automaton's serialized state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The session id (wire-v2 demux key).
    pub session: u32,
    /// The protocol this session runs.
    pub kind: ProtocolKind,
    /// The expected transfer length `n`.
    pub n: u32,
    /// The shard's next outgoing frame sequence number for this session.
    pub seq: u64,
    /// The session's output `Y` so far (drives the prefix invariant).
    pub written: Vec<Message>,
    /// The receiver automaton's state, via [`StateCodec`].
    pub state: Vec<u8>,
}

impl SessionSnapshot {
    /// Encodes the snapshot. Layout (all integers big-endian):
    ///
    /// ```text
    /// version  u8     = 1
    /// session  u32
    /// kind     tag u8 | k u64 | window u64 | timeout flag u8 + u64
    /// n        u32
    /// seq      u64
    /// written  count u32 | packed bits (LSB-first, zero padding)
    /// state    len u16 | bytes
    /// ```
    ///
    /// The `kind` header comes from the protocol table
    /// ([`ProtocolKind::encode_tag`]); flight recordings store the same
    /// header, so both formats share its one tag map.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.state.len());
        out.push(SNAPSHOT_VERSION);
        self.session.encode_field(&mut out);
        self.kind.encode_tag(&mut out);
        self.n.encode_field(&mut out);
        self.seq.encode_field(&mut out);
        self.written.encode_field(&mut out);
        let state_len = u16::try_from(self.state.len()).unwrap_or(u16::MAX);
        state_len.encode_field(&mut out);
        out.extend(self.state.iter().take(usize::from(u16::MAX)));
        out
    }

    /// Decodes a snapshot, requiring the input to be exactly one
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncation, structural corruption, a future
    /// version byte, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        let mut cur = Cur::new(bytes);
        let version: u8 = cur.next_field().ok_or(SnapshotError::Truncated)?;
        if version > SNAPSHOT_VERSION {
            return Err(SnapshotError::FutureVersion { got: version });
        }
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Malformed("unknown snapshot version 0"));
        }
        let session = cur.next_field().ok_or(SnapshotError::Truncated)?;
        let kind = cur
            .protocol_kind()
            .ok_or(SnapshotError::Malformed("protocol kind"))?;
        let n = cur.next_field().ok_or(SnapshotError::Truncated)?;
        let seq = cur.next_field().ok_or(SnapshotError::Truncated)?;
        let written = cur
            .next_field()
            .ok_or(SnapshotError::Malformed("written bits"))?;
        let state_len: u16 = cur.next_field().ok_or(SnapshotError::Truncated)?;
        let state = cur
            .take(usize::from(state_len))
            .ok_or(SnapshotError::Truncated)?
            .to_vec();
        let extra = cur.remaining();
        cur.finish().ok_or(SnapshotError::TrailingBytes { extra })?;
        Ok(SessionSnapshot {
            session,
            kind,
            n,
            seq,
            written,
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_codec::Multiset;
    use rstp_core::protocols::{AlphaReceiverState, BetaReceiverState};
    use rstp_core::state_codec::state_to_bytes;

    #[test]
    fn session_snapshot_round_trips() {
        let snap = SessionSnapshot {
            session: 42,
            kind: ProtocolKind::Beta { k: 4 },
            n: 16,
            seq: 7,
            written: vec![true, false, true, true, false],
            state: state_to_bytes(&BetaReceiverState {
                burst: Multiset::from_symbols(4, &[2]),
                decoded: vec![true, false, true, true, false],
                written: 5,
                decode_failures: 0,
            }),
        };
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes).expect("decode"), snap);
        for cut in 0..bytes.len() {
            assert!(
                SessionSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            SessionSnapshot::decode(&trailing),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn golden_bytes_are_pinned() {
        // An alpha session: the simplest non-trivial snapshot. Any layout
        // change must bump SNAPSHOT_VERSION, not silently re-pin these.
        let snap = SessionSnapshot {
            session: 7,
            kind: ProtocolKind::Alpha,
            n: 2,
            seq: 3,
            written: vec![true, false, true],
            state: state_to_bytes(&AlphaReceiverState {
                received: vec![true, false, true],
                written: 3,
            }),
        };
        let bytes = snap.encode();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            1,                                  // version
            0, 0, 0, 7,                         // session
            1,                                  // kind tag: alpha
            0, 0, 0, 0, 0, 0, 0, 0,             // k
            0, 0, 0, 0, 0, 0, 0, 0,             // window
            0,                                  // timeout flag
            0, 0, 0, 0, 0, 0, 0, 0,             // timeout value
            0, 0, 0, 2,                         // n
            0, 0, 0, 0, 0, 0, 0, 3,             // seq
            0, 0, 0, 3, 0b101,                  // written: 3 bits, LSB-first
            0, 13,                              // state length
            0, 0, 0, 3, 0b101,                  // state.received
            0, 0, 0, 0, 0, 0, 0, 3,             // state.written
        ];
        assert_eq!(bytes, expected);
    }

    #[test]
    fn every_protocol_kind_round_trips_through_the_header() {
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 9 },
            ProtocolKind::AltBit {
                timeout_steps: Some(12),
            },
            ProtocolKind::Framed { k: 2 },
            ProtocolKind::BetaWindow { k: 5 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
            ProtocolKind::StabStenning {
                timeout_steps: Some(1),
            },
            ProtocolKind::StabBeta { k: 3 },
        ] {
            let snap = SessionSnapshot {
                session: 1,
                kind,
                n: 8,
                seq: 0,
                written: Vec::new(),
                state: Vec::new(),
            };
            assert_eq!(
                SessionSnapshot::decode(&snap.encode())
                    .expect("roundtrip")
                    .kind,
                kind
            );
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let snap = SessionSnapshot {
            session: 1,
            kind: ProtocolKind::Alpha,
            n: 1,
            seq: 0,
            written: Vec::new(),
            state: Vec::new(),
        };
        let mut bytes = snap.encode();
        bytes[0] = SNAPSHOT_VERSION + 1;
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::FutureVersion {
                got: SNAPSHOT_VERSION + 1
            })
        );
    }
}
