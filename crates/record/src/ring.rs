//! The bounded byte buffer between a shard and its writer thread.
//!
//! The data-path contract is absolute: recording must never pace the
//! shard. A shard therefore encodes its events itself, into a batch it
//! owns (see [`ShardRecorder`](crate::ShardRecorder)), and hands the
//! whole batch over once per wake with a *single* `try_lock`: the batch
//! is appended to the shared buffer, or simply swapped in when the
//! buffer is empty. A busy lock or a full buffer costs nothing — the
//! shard keeps its batch and tries again at its next wake; events are
//! shed (and counted) only when the shard's own batch would pass the
//! byte bound. The consumer (the writer thread) is the only side that
//! blocks; it takes the whole buffer in one pointer swap, so the lock
//! is held for O(1) work, and writes the bytes to disk as they are.
//!
//! Lock discipline: `buf` is the ring's only lock and nests under
//! nothing — see `analysis/lock-order.toml`, which tracks this file.

use crate::format::{encode_record, Record};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared state between the producers ([`RingProducer`]) and the one
/// consumer ([`RingConsumer`]).
struct Shared {
    /// Encoded, length-prefixed records awaiting the writer.
    buf: Mutex<Vec<u8>>,
    /// Byte bound on `buf` for per-wake handoffs, and on each
    /// producer's batch.
    cap: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
    /// Monotone flush-barrier request counter (see
    /// [`RingProducer::request_sync`]).
    sync_req: AtomicU64,
    /// Highest request token the writer has flushed through to disk.
    sync_ack: AtomicU64,
}

/// The producer-side handle: batch handoff plus the counters.
#[derive(Clone)]
pub struct RingProducer {
    shared: Arc<Shared>,
}

/// The writer-side handle: blocking drain plus shutdown observation.
pub struct RingConsumer {
    shared: Arc<Shared>,
    /// Drain target swapped against `buf` under the lock, so the lock
    /// hold is one pointer swap regardless of how many bytes are
    /// pending. The buffers circulate between shard, ring and writer
    /// and keep their grown capacity.
    scratch: Vec<u8>,
}

/// Creates a ring bounded at `cap` bytes (at least 1).
#[must_use]
pub fn ring(cap: usize) -> (RingProducer, RingConsumer) {
    let shared = Arc::new(Shared {
        buf: Mutex::new(Vec::new()),
        cap: cap.max(1),
        recorded: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        sync_req: AtomicU64::new(0),
        sync_ack: AtomicU64::new(0),
    });
    (
        RingProducer {
            shared: shared.clone(),
        },
        RingConsumer {
            shared,
            scratch: Vec::new(),
        },
    )
}

/// How many times [`push_insist`](RingProducer::push_insist) re-tries a
/// contended lock between yields. Spins ride out a live swap.
const PUSH_SPINS: u32 = 64;

/// How many scheduler yields [`push_insist`](RingProducer::push_insist)
/// spends on top of its spins. Yields ride out a writer thread
/// *descheduled* mid-swap, which a spin never outlasts on a loaded
/// box. Still strictly bounded.
const INSIST_YIELDS: u32 = 64;

/// Moves `batch` into `buf`: a pointer swap when `buf` is empty (the
/// batch gets the empty buffer's allocation back), an append otherwise.
fn take_batch(buf: &mut Vec<u8>, batch: &mut Vec<u8>) {
    if buf.is_empty() {
        std::mem::swap(buf, batch);
    } else {
        buf.extend_from_slice(batch);
        batch.clear();
    }
}

impl RingProducer {
    /// The byte bound of the shared buffer and of a producer's batch.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.shared.cap
    }

    /// Hands a batch of `events` encoded records to the writer with a
    /// single `try_lock`. On success `batch` is left empty (possibly
    /// holding the buffer's old allocation) and the events count as
    /// recorded. A held lock or a buffer that cannot take the batch
    /// within the bound returns `false` with `batch` untouched — the
    /// caller keeps it for its next attempt. Never waits, never yields.
    pub fn try_hand(&self, batch: &mut Vec<u8>, events: u64) -> bool {
        let Ok(mut buf) = self.shared.buf.try_lock() else {
            return false;
        };
        if !buf.is_empty() && buf.len() + batch.len() > self.shared.cap {
            return false;
        }
        take_batch(&mut buf, batch);
        drop(buf);
        self.shared.recorded.fetch_add(events, Ordering::Relaxed);
        true
    }

    /// Hands a batch over unconditionally: waits for the lock (the
    /// writer holds it for a pointer swap) and appends past the bound
    /// if it must. For a producer that is going away — its last batch
    /// has no later wake to retry at.
    pub fn hand_final(&self, batch: &mut Vec<u8>, events: u64) {
        let mut buf = self
            .shared
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        take_batch(&mut buf, batch);
        drop(buf);
        self.shared.recorded.fetch_add(events, Ordering::Relaxed);
    }

    /// Counts `events` shed by a producer whose batch hit the bound.
    pub fn shed(&self, events: u64) {
        self.shared.dropped.fetch_add(events, Ordering::Relaxed);
    }

    /// Offers one record that the caller cannot afford to shed (crash
    /// recovery's stats checkpoint). Retries the bounded handoff with
    /// spins and up to `INSIST_YIELDS` scheduler yields, so a writer
    /// descheduled while holding the lock does not force a drop.
    /// Bounded, but willing to spend scheduler quanta — never call it
    /// from a shard.
    pub fn push_insist(&self, rec: &Record) -> bool {
        let mut bytes = Vec::with_capacity(32);
        encode_record(rec, &mut bytes);
        for _ in 0..=INSIST_YIELDS {
            for _ in 0..PUSH_SPINS {
                if self.try_hand(&mut bytes, 1) {
                    return true;
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        self.shed(1);
        false
    }

    /// Events handed to the writer so far.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.shared.recorded.load(Ordering::Relaxed)
    }

    /// Events shed so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Signals the consumer that no further events will arrive.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Requests a flush barrier: returns a token that
    /// [`sync_done`](RingProducer::sync_done) reports once every record
    /// handed over *before* this call has been drained and flushed to
    /// disk by the writer. Used by crash recovery, which must read a
    /// shard's file while the writer is still alive. Never blocks.
    pub fn request_sync(&self) -> u64 {
        self.shared.sync_req.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// True once the writer has flushed through barrier `token`.
    #[must_use]
    pub fn sync_done(&self, token: u64) -> bool {
        self.shared.sync_ack.load(Ordering::Acquire) >= token
    }
}

impl RingConsumer {
    /// Takes every buffered byte and returns it; the slice is valid
    /// until the next drain. The lock is held for exactly one pointer
    /// swap — O(1) no matter how much is pending. A poisoned lock (a
    /// producer panicking mid-handoff, which cannot happen — a handoff
    /// performs no fallible work under the lock) degrades to draining
    /// whatever is there.
    pub fn drain(&mut self) -> &[u8] {
        self.scratch.clear();
        {
            let mut buf = self
                .shared
                .buf
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *buf, &mut self.scratch);
        }
        &self.scratch
    }

    /// True once the producer closed the ring; buffered records may
    /// still need a final [`drain`](RingConsumer::drain).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The latest outstanding flush-barrier token, or `None` when every
    /// request has been acknowledged. The writer samples this *before*
    /// draining, so every record that preceded the request is in hand
    /// when it acknowledges.
    #[must_use]
    pub fn pending_sync(&self) -> Option<u64> {
        let req = self.shared.sync_req.load(Ordering::Acquire);
        (req > self.shared.sync_ack.load(Ordering::Acquire)).then_some(req)
    }

    /// Acknowledges flush barrier `token` (after flushing to disk).
    pub fn ack_sync(&self, token: u64) {
        self.shared.sync_ack.fetch_max(token, Ordering::AcqRel);
    }

    /// Counter snapshot `(recorded, dropped)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.shared.recorded.load(Ordering::Relaxed),
            self.shared.dropped.load(Ordering::Relaxed),
        )
    }

    /// Takes the buffer lock and holds it, as a writer descheduled
    /// mid-swap would.
    #[cfg(test)]
    pub(crate) fn hold(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.shared
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_record, Event};

    fn ev(session: u32) -> Record {
        Record::Event(Event::DeadlineMiss {
            at_micros: 1,
            session,
            due_tick: 2,
        })
    }

    fn batch_of(ids: std::ops::Range<u32>) -> Vec<u8> {
        let mut batch = Vec::new();
        for i in ids {
            encode_record(&ev(i), &mut batch);
        }
        batch
    }

    /// Session ids of every record in `bytes`, in order.
    fn sessions_in(mut bytes: &[u8]) -> Vec<u32> {
        let mut ids = Vec::new();
        while !bytes.is_empty() {
            let (rec, used) = decode_record(bytes).expect("whole records");
            if let Record::Event(Event::DeadlineMiss { session, .. }) = rec {
                ids.push(session);
            }
            bytes = &bytes[used..];
        }
        ids
    }

    #[test]
    fn handoffs_append_in_order() {
        let (tx, mut rx) = ring(1 << 16);
        let mut first = batch_of(0..3);
        assert!(tx.try_hand(&mut first, 3));
        assert!(first.is_empty());
        let mut second = batch_of(3..5);
        assert!(tx.try_hand(&mut second, 2));
        assert_eq!(sessions_in(rx.drain()), vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.recorded(), 5);
        assert_eq!(tx.dropped(), 0);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn a_full_buffer_refuses_an_append_and_keeps_the_batch() {
        let one = batch_of(0..1).len();
        let (tx, mut rx) = ring(2 * one);
        let mut a = batch_of(0..2);
        assert!(tx.try_hand(&mut a, 2));
        let mut b = batch_of(2..3);
        assert!(!tx.try_hand(&mut b, 1));
        assert_eq!(b.len(), one, "a refused batch stays with its producer");
        assert_eq!(tx.recorded(), 2);
        assert_eq!(sessions_in(rx.drain()), vec![0, 1]);
        // Room again after the drain.
        assert!(tx.try_hand(&mut b, 1));
        assert_eq!(sessions_in(rx.drain()), vec![2]);
    }

    #[test]
    fn final_handoff_ignores_the_bound() {
        let one = batch_of(0..1).len();
        let (tx, mut rx) = ring(one);
        let mut a = batch_of(0..1);
        assert!(tx.try_hand(&mut a, 1));
        let mut b = batch_of(1..3);
        assert!(!tx.try_hand(&mut b, 2));
        tx.hand_final(&mut b, 2);
        assert!(b.is_empty());
        assert_eq!(sessions_in(rx.drain()), vec![0, 1, 2]);
        assert_eq!(tx.recorded(), 3);
    }

    #[test]
    fn sync_barrier_handshake_round_trips() {
        let (tx, rx) = ring(4);
        assert_eq!(rx.pending_sync(), None);
        let t1 = tx.request_sync();
        assert_eq!(t1, 1);
        assert!(!tx.sync_done(t1));
        assert_eq!(rx.pending_sync(), Some(1));
        rx.ack_sync(t1);
        assert!(tx.sync_done(t1));
        assert_eq!(rx.pending_sync(), None);
        // A second request issues a fresh, higher token.
        let t2 = tx.request_sync();
        assert_eq!(t2, 2);
        assert!(!tx.sync_done(t2));
        // A stale (smaller) ack never regresses the barrier.
        rx.ack_sync(t1);
        assert!(!tx.sync_done(t2));
        rx.ack_sync(t2);
        assert!(tx.sync_done(t2));
    }

    #[test]
    fn close_is_visible_to_the_consumer() {
        let (tx, mut rx) = ring(1 << 10);
        assert!(!rx.is_closed());
        let mut batch = batch_of(9..10);
        assert!(tx.try_hand(&mut batch, 1));
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(sessions_in(rx.drain()), vec![9]);
        assert_eq!(rx.counters(), (1, 0));
    }
}
