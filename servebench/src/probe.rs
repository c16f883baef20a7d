//! The server boundary, seen from outside: a timing [`ServeTransport`]
//! whose `egress()` hands out timing [`EgressSink`]s.
//!
//! Every pump ingress call and every shard egress batch passes through
//! here. Untraced, the wrapper only notes the first `recv_batch` (the end
//! of set-up, when the generator may start). Traced, it also times each
//! call and reads each frame's send stamp to measure how long frames
//! waited before the pump picked them up, or before the shard shipped
//! them.

use crate::stats::MicrosHist;
use rstp_net::{FrameBuf, NetError, TickClock};
use rstp_serve::{EgressSink, ServeTransport};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Offset of the big-endian `sent_at_micros` field in a wire frame.
const STAMP_AT: usize = 24;

/// The frame's send stamp (µs on the sender's clock), if it has one.
#[must_use]
pub fn frame_stamp(bytes: &[u8]) -> Option<u64> {
    let raw: [u8; 8] = bytes.get(STAMP_AT..STAMP_AT + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(raw))
}

/// What the shard egress sinks saw, merged as each sink is dropped.
#[derive(Clone, Debug, Default)]
pub struct EgressTotals {
    /// `send_batch` calls.
    pub batches: u64,
    /// Frames offered to `send_batch`.
    pub frames: u64,
    /// Frames the sink reported as shipped.
    pub shipped: u64,
    /// Nanoseconds inside `send_batch`.
    pub ns: u64,
    /// Per frame: server send stamp → `send_batch` call, in µs.
    pub delay_us: MicrosHist,
}

/// State shared between the pump's transport, the shard sinks and the
/// generator.
#[derive(Debug, Default)]
pub struct Shared {
    first_recv: OnceLock<Instant>,
    egress: Mutex<EgressTotals>,
}

impl Shared {
    /// Whether the pump has made its first ingress call.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.first_recv.get().is_some()
    }

    /// When the pump made its first ingress call.
    #[must_use]
    pub fn first_recv(&self) -> Option<Instant> {
        self.first_recv.get().copied()
    }

    /// Everything the egress sinks recorded.
    #[must_use]
    pub fn egress(&self) -> EgressTotals {
        self.egress
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// What the pump's ingress calls saw (traced runs only).
#[derive(Clone, Debug, Default)]
pub struct IngressTotals {
    /// `recv_batch` calls.
    pub calls: u64,
    /// Calls that returned no frame.
    pub empty: u64,
    /// Frames returned.
    pub frames: u64,
    /// Nanoseconds inside `recv_batch`.
    pub ns: u64,
    /// Per frame: client send stamp → pump pickup, in µs.
    pub wait_us: MicrosHist,
}

/// A timing wrapper around the fabric the server runs on.
pub struct TimedTransport<T> {
    inner: T,
    shared: Arc<Shared>,
    clock: TickClock,
    traced: bool,
    ingress: IngressTotals,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`; `clock` must be the clock the run shares.
    pub fn new(inner: T, shared: Arc<Shared>, clock: TickClock, traced: bool) -> Self {
        TimedTransport {
            inner,
            shared,
            clock,
            traced,
            ingress: IngressTotals::default(),
        }
    }

    /// The ingress figures gathered so far.
    #[must_use]
    pub fn ingress(&self) -> &IngressTotals {
        &self.ingress
    }
}

impl<T: ServeTransport> ServeTransport for TimedTransport<T> {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        if !self.shared.ready() {
            let _ = self.shared.first_recv.set(Instant::now());
        }
        if !self.traced {
            return self.inner.recv_batch(out, max);
        }
        let from = out.len();
        let start = Instant::now();
        let got = self.inner.recv_batch(out, max)?;
        self.ingress.ns += start.elapsed().as_nanos() as u64;
        self.ingress.calls += 1;
        self.ingress.frames += got as u64;
        if got == 0 {
            self.ingress.empty += 1;
        } else {
            let pickup = self.clock.now_micros();
            for frame in out.iter().skip(from) {
                if let Some(stamp) = frame_stamp(frame) {
                    self.ingress.wait_us.record(pickup.saturating_sub(stamp));
                }
            }
        }
        Ok(got)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        Ok(Box::new(TimedEgress {
            inner: self.inner.egress()?,
            shared: self.shared.clone(),
            clock: self.clock,
            traced: self.traced,
            totals: EgressTotals::default(),
        }))
    }
}

/// A timing wrapper around one shard's egress sink.
struct TimedEgress {
    inner: Box<dyn EgressSink>,
    shared: Arc<Shared>,
    clock: TickClock,
    traced: bool,
    totals: EgressTotals,
}

impl EgressSink for TimedEgress {
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
        if !self.traced {
            return self.inner.send_batch(frames);
        }
        let now = self.clock.now_micros();
        for (_, frame) in frames {
            if let Some(stamp) = frame_stamp(frame) {
                self.totals.delay_us.record(now.saturating_sub(stamp));
            }
        }
        let start = Instant::now();
        let shipped = self.inner.send_batch(frames)?;
        self.totals.ns += start.elapsed().as_nanos() as u64;
        self.totals.batches += 1;
        self.totals.frames += frames.len() as u64;
        self.totals.shipped += shipped as u64;
        Ok(shipped)
    }
}

impl Drop for TimedEgress {
    fn drop(&mut self) {
        let mut all = self
            .shared
            .egress
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        all.batches += self.totals.batches;
        all.frames += self.totals.frames;
        all.shipped += self.totals.shipped;
        all.ns += self.totals.ns;
        all.delay_us.merge(&self.totals.delay_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::{Packet, SessionId};
    use rstp_net::{ProtocolId, WireCodec};
    use rstp_serve::MemHub;
    use std::time::Duration;

    #[test]
    fn stamp_is_read_from_the_frame() {
        let codec = WireCodec::new(ProtocolId::Beta, 4).expect("codec");
        let bytes = codec.encode_with_session(Packet::Data(3), 9, 123_456, SessionId::new(7));
        assert_eq!(frame_stamp(&bytes), Some(123_456));
        assert_eq!(frame_stamp(&bytes[..20]), None);
    }

    #[test]
    fn first_recv_marks_ready_and_traced_calls_are_counted() {
        use rstp_net::Transport as _;
        let hub = MemHub::new();
        let codec = WireCodec::new(ProtocolId::Beta, 4).expect("codec");
        let mut client = hub.client_transport(SessionId::new(1), codec);
        let shared = Arc::new(Shared::default());
        let clock = TickClock::start(Duration::from_micros(200));
        let mut t = TimedTransport::new(hub, shared.clone(), clock, true);
        assert!(!shared.ready());
        let mut out = Vec::new();
        assert_eq!(t.recv_batch(&mut out, 8).expect("recv"), 0);
        assert!(shared.ready() && shared.first_recv().is_some());
        client.send(Packet::Data(1), 0).expect("send");
        client.send(Packet::Data(2), 0).expect("send");
        assert_eq!(t.recv_batch(&mut out, 8).expect("recv"), 2);
        let ing = t.ingress();
        assert_eq!((ing.calls, ing.empty, ing.frames), (2, 1, 2));
        assert_eq!(ing.wait_us.count(), 2);
    }
}
