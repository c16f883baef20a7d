//! Receiver-state serialization: what a handover `SNAPSHOT` frame and a
//! flight-recording snapshot carry for a live session.
//!
//! Each receiver state gets its [`StateCodec`] from one `state_codec!`
//! line beside its definition, which encodes the listed fields in order
//! through their [`Field`] impls (big-endian). Decoding is strict: counts
//! are bounds-checked before allocation, multiset symbols must lie in
//! their universe (a corrupted snapshot is a decode error, never a panic
//! in `Multiset::insert`), and padding bits must be zero so each value
//! has exactly one encoding.

use rstp_codec::Multiset;
use std::collections::VecDeque;

/// Upper bound on any element count inside a snapshot (messages,
/// multiset symbols, queue entries). Checked before allocating.
const MAX_SNAPSHOT_ELEMS: usize = 1 << 20;

/// Upper bound on a multiset universe `k` inside a snapshot: the wire's
/// `MAX_WIRE_K`, so a corrupted length cannot force a huge allocation.
const MAX_SNAPSHOT_K: u64 = u16::MAX as u64;

/// A receiver state's encoding, used to move a live session between
/// shards and to re-create one from a flight recording.
pub trait StateCodec: Sized {
    /// Appends this state's encoding to `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Decodes one state from the cursor; `None` on truncated or
    /// structurally invalid input. Callers check [`Cur::finish`] after.
    fn decode_state(cur: &mut Cur<'_>) -> Option<Self>;
}

/// Implements [`StateCodec`] by encoding the listed fields in order; the
/// order is the byte layout.
macro_rules! state_codec {
    ($state:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::state_codec::StateCodec for $state {
            fn encode_state(&self, out: &mut Vec<u8>) {
                $($crate::state_codec::Field::encode_field(&self.$field, out);)+
            }

            fn decode_state(cur: &mut $crate::state_codec::Cur<'_>) -> Option<Self> {
                Some($state {
                    $($field: cur.next_field()?,)+
                })
            }
        }
    };
}

/// Encodes one state value to standalone bytes.
pub fn state_to_bytes<S: StateCodec>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.encode_state(&mut out);
    out
}

/// Decodes one state value, requiring full consumption.
#[must_use]
pub fn state_from_bytes<S: StateCodec>(bytes: &[u8]) -> Option<S> {
    let mut cur = Cur::new(bytes);
    let state = S::decode_state(&mut cur)?;
    cur.finish()?;
    Some(state)
}

/// One value's snapshot encoding.
pub trait Field: Sized {
    /// Appends the encoding to `out`.
    fn encode_field(&self, out: &mut Vec<u8>);
    /// Reads one value; `None` on truncated or invalid input.
    fn decode_field(cur: &mut Cur<'_>) -> Option<Self>;
}

/// A bounds-checked read cursor over snapshot bytes.
#[derive(Debug)]
pub struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// The next value of type `F`.
    pub fn next_field<F: Field>(&mut self) -> Option<F> {
        F::decode_field(self)
    }

    /// A `u32` element count, refused above [`MAX_SNAPSHOT_ELEMS`].
    fn count(&mut self) -> Option<usize> {
        let n = self.next_field::<u32>()? as usize;
        (n <= MAX_SNAPSHOT_ELEMS).then_some(n)
    }

    /// Succeeds only when the cursor consumed every byte.
    #[must_use]
    pub fn finish(self) -> Option<()> {
        (self.remaining() == 0).then_some(())
    }
}

/// Big-endian integers.
macro_rules! int_field {
    ($($int:ty),+) => {$(
        impl Field for $int {
            fn encode_field(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
                let bytes = cur.take(core::mem::size_of::<$int>())?;
                Some(<$int>::from_be_bytes(bytes.try_into().ok()?))
            }
        }
    )+};
}
int_field!(u8, u16, u32, u64);

/// A `usize` travels as a `u64`.
impl Field for usize {
    fn encode_field(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_field(out);
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        usize::try_from(cur.next_field::<u64>()?).ok()
    }
}

/// A strict flag byte: `0` or `1`, anything else is an error.
impl Field for bool {
    fn encode_field(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        match cur.next_field::<u8>()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Packed booleans: a `u32` count, then `ceil(count / 8)` bytes,
/// LSB-first within each byte; padding bits must be zero.
impl Field for Vec<bool> {
    fn encode_field(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_field(out);
        let mut byte = 0u8;
        for (i, &b) in self.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !self.len().is_multiple_of(8) {
            out.push(byte);
        }
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let n = cur.count()?;
        let raw = cur.take(n.div_ceil(8))?;
        let mut bits = Vec::with_capacity(n);
        'bytes: for (i, &byte) in raw.iter().enumerate() {
            for bit in 0..8 {
                if i * 8 + bit >= n {
                    break 'bytes;
                }
                bits.push(byte >> bit & 1 == 1);
            }
        }
        // One encoding per value: padding bits past the count must be zero.
        if !n.is_multiple_of(8) && raw.last().is_some_and(|&b| b >> (n % 8) != 0) {
            return None;
        }
        Some(bits)
    }
}

/// A `u32` count of `u64` values.
impl Field for VecDeque<u64> {
    fn encode_field(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_field(out);
        for v in self {
            v.encode_field(out);
        }
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let n = cur.count()?;
        if n.checked_mul(8)? > cur.remaining() {
            return None;
        }
        (0..n).map(|_| cur.next_field()).collect()
    }
}

/// A flag byte plus the value (`0` when absent).
impl Field for Option<u64> {
    fn encode_field(&self, out: &mut Vec<u8>) {
        self.is_some().encode_field(out);
        self.unwrap_or(0).encode_field(out);
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let has: bool = cur.next_field()?;
        let v: u64 = cur.next_field()?;
        Some(has.then_some(v))
    }
}

/// `universe: u64`, then the sorted symbol sequence as a `u64` queue.
impl Field for Multiset {
    fn encode_field(&self, out: &mut Vec<u8>) {
        self.universe().encode_field(out);
        VecDeque::from(self.to_sorted_vec()).encode_field(out);
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let k: u64 = cur.next_field()?;
        if k == 0 || k > MAX_SNAPSHOT_K {
            return None;
        }
        let mut symbols: VecDeque<u64> = cur.next_field()?;
        // `Multiset::insert` panics on an out-of-universe symbol; a
        // snapshot from a corrupted file must decode-fail instead.
        if symbols.iter().any(|&s| s >= k) {
            return None;
        }
        Some(Multiset::from_symbols(k, symbols.make_contiguous()))
    }
}

/// A `u32` count of multisets.
impl Field for Vec<Multiset> {
    fn encode_field(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_field(out);
        for m in self {
            m.encode_field(out);
        }
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let n = cur.count()?;
        (0..n).map(|_| cur.next_field()).collect()
    }
}

/// A `u32` count of optional bit blocks, each a flag byte and, when
/// set, the packed bits.
impl Field for Vec<Option<Vec<bool>>> {
    fn encode_field(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_field(out);
        for block in self {
            block.is_some().encode_field(out);
            if let Some(bits) = block {
                bits.encode_field(out);
            }
        }
    }

    fn decode_field(cur: &mut Cur<'_>) -> Option<Self> {
        let n = cur.count()?;
        let mut blocks = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let set: bool = cur.next_field()?;
            blocks.push(if set { Some(cur.next_field()?) } else { None });
        }
        Some(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{
        AlphaReceiverState, AltBitReceiverState, BetaReceiverState, FramedReceiverState,
        GammaReceiverState, PipelinedReceiverState, StabBetaReceiverState,
        StabStenningReceiverState, StenningReceiverState,
    };

    fn roundtrip<S: StateCodec + PartialEq + std::fmt::Debug>(state: &S) {
        let bytes = state_to_bytes(state);
        let back: S = state_from_bytes(&bytes).expect("own encoding must decode");
        assert_eq!(&back, state);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let _ = state_from_bytes::<S>(&bytes[..cut]);
        }
    }

    #[test]
    fn every_receiver_state_round_trips() {
        roundtrip(&AlphaReceiverState {
            received: vec![true, false, true],
            written: 2,
        });
        roundtrip(&BetaReceiverState {
            burst: Multiset::from_symbols(4, &[1, 1, 3]),
            decoded: vec![false, true],
            written: 1,
            decode_failures: 0,
        });
        roundtrip(&GammaReceiverState {
            burst: Multiset::from_symbols(8, &[7]),
            pending_acks: 3,
            decoded: vec![true; 9],
            written: 9,
            decode_failures: 1,
        });
        roundtrip(&FramedReceiverState {
            burst: Multiset::empty(4),
            decoded: Vec::new(),
            written: 0,
            decode_failures: 0,
        });
        roundtrip(&PipelinedReceiverState {
            bursts: vec![Multiset::from_symbols(4, &[0, 2]), Multiset::empty(4)],
            staged: vec![Some(vec![true, true, false]), None],
            commit_tag: 1,
            decoded: vec![false; 8],
            written: 8,
            ack_queue: VecDeque::from(vec![4, 5, 6]),
            decode_failures: 2,
        });
        roundtrip(&StenningReceiverState {
            expected_seq: 12,
            received: vec![true, false],
            written: 2,
            ack_queue: VecDeque::from(vec![10, 11]),
        });
        roundtrip(&AltBitReceiverState {
            expected_tag: 1,
            received: vec![false],
            written: 1,
            ack_queue: VecDeque::new(),
        });
        roundtrip(&StabStenningReceiverState {
            expected: 3,
            received: vec![true, true, true],
            written: 3,
            pending_ack: Some(2),
            synced: false,
        });
        roundtrip(&StabBetaReceiverState {
            burst: Multiset::from_symbols(4, &[3, 3]),
            decoded: vec![true],
            written: 1,
            silent_steps: 4,
            resets: 1,
            decode_failures: 0,
        });
    }

    #[test]
    fn corrupted_states_fail_cleanly() {
        // Out-of-universe multiset symbol: decode error, not a panic.
        let mut bad_burst = Vec::new();
        4u64.encode_field(&mut bad_burst); // universe k = 4
        VecDeque::from(vec![9u64]).encode_field(&mut bad_burst); // symbol 9 >= 4
        Vec::<bool>::new().encode_field(&mut bad_burst);
        0usize.encode_field(&mut bad_burst);
        0u32.encode_field(&mut bad_burst);
        assert!(state_from_bytes::<BetaReceiverState>(&bad_burst).is_none());

        // Zero universe is rejected before Multiset::empty can assert.
        let mut zero_k = Vec::new();
        0u64.encode_field(&mut zero_k);
        VecDeque::<u64>::new().encode_field(&mut zero_k);
        assert!(state_from_bytes::<BetaReceiverState>(&zero_k).is_none());

        // Absurd declared element count larger than the input: no
        // allocation, clean failure.
        let mut huge = Vec::new();
        4u64.encode_field(&mut huge);
        u32::MAX.encode_field(&mut huge); // claims 4 billion symbols
        assert!(state_from_bytes::<BetaReceiverState>(&huge).is_none());

        // Nonzero padding bits break the one-encoding rule.
        let mut padded = Vec::new();
        vec![true].encode_field(&mut padded);
        *padded.last_mut().expect("bit byte") |= 0b1000_0000;
        1usize.encode_field(&mut padded);
        assert!(state_from_bytes::<AlphaReceiverState>(&padded).is_none());

        // Bad flag byte in an Option<u64>.
        let mut bad_flag = Vec::new();
        0u64.encode_field(&mut bad_flag);
        Vec::<bool>::new().encode_field(&mut bad_flag);
        0usize.encode_field(&mut bad_flag);
        bad_flag.push(7); // pending_ack flag must be 0 or 1
        0u64.encode_field(&mut bad_flag);
        bad_flag.push(0);
        assert!(state_from_bytes::<StabStenningReceiverState>(&bad_flag).is_none());
    }
}
