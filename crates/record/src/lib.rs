//! # rstp-record — per-shard flight recorder and postmortem reader
//!
//! At swarm scale a failed session used to be a one-line `Y != X`
//! verdict with no way back to the frames that caused it. This crate is
//! the observability layer: every shard of `rstp-serve` can stream its
//! frame-level events — admit, rx/tx with wire bytes, timer-wheel pop,
//! deadline miss, final verdict — into a per-shard binary file, and a
//! postmortem can reconstruct any session from those files and feed it
//! back through the simulator (see `rstp replay` and the
//! `rstp-check` bridge).
//!
//! The cardinal rule is *load independence*: recording must never pace
//! the data path. A shard encodes each event straight into record bytes,
//! into a batch it owns ([`ShardRecorder`]), and hands the batch over
//! once per wake with a single `try_lock` on a byte-bounded buffer
//! ([`ring`](mod@ring)). A busy lock or a full buffer leaves the batch
//! with the shard for its next wake; only an event that would take the
//! batch past the byte bound is dropped, and counted, loudly, rather
//! than stalling a shard past its `c2` window. A writer thread per
//! shard writes the handed-over bytes to disk as they are ([`writer`])
//! in a versioned, length-prefixed format with pinned golden bytes
//! ([`format`](mod@format)); [`reader`] and [`index`] turn the files back
//! into per-session histories.
//!
//! Timestamps are `TickClock::now_micros` readings supplied by the
//! shard — this crate never reads the wall clock itself, so the
//! `wall-clock-outside-driver` lint holds by construction.
//!
//! See `docs/REPLAY.md` for the format specification and the full
//! record → replay → shrink walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod index;
pub mod reader;
pub mod ring;
pub mod writer;

pub use format::{
    Event, FrameDir, RecStats, Record, RecordError, RunMeta, HEADER_LEN, MAX_RECORD_LEN,
    RECORD_MAGIC, RECORD_VERSION,
};
pub use index::{SessionHistory, SessionIndex};
pub use reader::Recording;
pub use ring::{ring, RingConsumer, RingProducer};
pub use writer::{shard_file_name, RecorderSet, RecorderTotals, ShardRecorder, DEFAULT_RING_BYTES};
