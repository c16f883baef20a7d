//! The per-shard writer thread and the handle set a server owns.
//!
//! One [`ShardRecorder`] per shard goes to the data path. It encodes
//! each event straight into a batch of record bytes the shard owns and
//! hands the batch to the ring once per wake ([`ShardRecorder::handoff`]);
//! one writer thread per shard takes whatever the ring holds and writes
//! it to `shard-NN.rec` as it is — no per-record work on this side. The
//! writer paces itself with `thread::park_timeout` (a bounded nap, not
//! a sleep in the pacer's sense — this thread owns no deadline) and is
//! joined by [`RecorderSet::finish`], which also writes each file's
//! [`RecStats`] trailer from the ring counters.

use crate::format::{
    encode_frame, encode_record, write_header, Event, FrameDir, RecStats, Record, RecordError,
    RunMeta,
};
use crate::ring::{ring, RingConsumer, RingProducer};
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default byte bound per shard, on the ring and on the shard's own
/// batch: 65 536 records at 32 bytes each. A shard that hands over
/// every wake and a writer that drains every millisecond keep
/// kilobytes in flight; the bound only matters when the writer stalls.
pub const DEFAULT_RING_BYTES: usize = 1 << 21;

/// How long the writer naps when its ring was empty.
const DRAIN_NAP: Duration = Duration::from_millis(1);

/// File name of one shard's recording.
#[must_use]
pub fn shard_file_name(shard: u32) -> String {
    format!("shard-{shard:02}.rec")
}

/// The data-path handle a shard records through. Events are encoded
/// into a batch this handle owns; [`handoff`](ShardRecorder::handoff)
/// passes the batch to the writer with one `try_lock`, and a failed
/// handoff keeps it for the next wake. Nothing here waits or yields:
/// the only loss is an event that would take the batch past the byte
/// bound, and it is counted. The batch left at exit is handed over by
/// [`final_handoff`](ShardRecorder::final_handoff), which `Drop` also
/// calls, so a shard that unwinds still delivers its last events.
pub struct ShardRecorder {
    producer: RingProducer,
    /// Encoded records not yet handed to the writer.
    batch: Vec<u8>,
    /// How many events `batch` holds.
    events: u64,
}

impl ShardRecorder {
    fn new(producer: RingProducer) -> ShardRecorder {
        ShardRecorder {
            producer,
            batch: Vec::new(),
            events: 0,
        }
    }

    /// Encodes one event into the batch; an event that would take the
    /// batch past the byte bound is shed (counted).
    pub fn record(&mut self, ev: Event) {
        let start = self.batch.len();
        encode_record(&Record::Event(ev), &mut self.batch);
        self.keep_within_bound(start);
    }

    /// Encodes one `Rx`/`Tx` event from a borrowed wire frame — the
    /// same bytes [`record`](ShardRecorder::record) writes for the
    /// owned [`Event::Rx`]/[`Event::Tx`], without copying the frame.
    pub fn record_frame(&mut self, dir: FrameDir, at_micros: u64, session: u32, wire: &[u8]) {
        let start = self.batch.len();
        encode_frame(dir, at_micros, session, wire, &mut self.batch);
        self.keep_within_bound(start);
    }

    /// Encodes one event crash recovery cannot do without — admission
    /// and snapshot anchors, final verdicts. It is never shed: it may
    /// take the batch past the byte bound, which only anchors (a few
    /// per session) can do.
    pub fn record_durable(&mut self, ev: Event) {
        encode_record(&Record::Event(ev), &mut self.batch);
        self.events += 1;
    }

    /// Drops the record encoded from `start` on if the batch is now
    /// past the bound, and counts what stays or goes.
    fn keep_within_bound(&mut self, start: usize) {
        if self.batch.len() > self.producer.cap() {
            self.batch.truncate(start);
            self.producer.shed(1);
        } else {
            self.events += 1;
        }
    }

    /// The per-wake handoff: one `try_lock` that passes the whole batch
    /// to the writer. A busy lock or a full ring leaves the batch here
    /// for the next wake. Never waits; a no-op on an empty batch.
    pub fn handoff(&mut self) {
        if self.events > 0 && self.producer.try_hand(&mut self.batch, self.events) {
            self.events = 0;
        }
    }

    /// The exit handoff: passes the batch over unconditionally, waiting
    /// for the lock (the writer holds it for a pointer swap) and
    /// ignoring the bound. For a shard that is stopping — there is no
    /// later wake to retry at. Read [`recorded`](ShardRecorder::recorded)
    /// and [`dropped`](ShardRecorder::dropped) after it.
    pub fn final_handoff(&mut self) {
        if self.events > 0 {
            self.producer.hand_final(&mut self.batch, self.events);
            self.events = 0;
        }
    }

    /// Events handed to the writer so far (a batch still held here is
    /// not counted yet).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.producer.recorded()
    }

    /// Events shed so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.producer.dropped()
    }

    /// Offers a mid-file [`RecStats`] checkpoint (crash recovery writes
    /// one before re-reading a live shard's file, so readers can tell
    /// the checkpoint from the trailer by keeping the last stats record
    /// per epoch). Recovery depends on the checkpoint, so a contended
    /// ring is ridden out with bounded spins and yields
    /// (`RingProducer::push_insist`). For the recovery orchestrator on
    /// a handle of its own, never for a shard.
    pub fn push_stats(&self, stats: RecStats) {
        self.producer.push_insist(&Record::Stats(stats));
    }

    /// Blocks the *caller* (never the data path — this is for the
    /// recovery orchestrator) until every record handed over before
    /// this call has been flushed to disk, or `timeout` elapses.
    /// Returns whether the barrier completed.
    pub fn flush_barrier(&self, timeout: Duration) -> bool {
        let token = self.producer.request_sync();
        let deadline = Instant::now() + timeout;
        while !self.producer.sync_done(token) {
            if Instant::now() >= deadline {
                return false;
            }
            thread::park_timeout(Duration::from_micros(200));
        }
        true
    }
}

impl Drop for ShardRecorder {
    fn drop(&mut self) {
        self.final_handoff();
    }
}

struct Worker {
    producer: RingProducer,
    handle: JoinHandle<Result<(), RecordError>>,
}

/// Owns every writer thread of one recorded run.
pub struct RecorderSet {
    workers: Vec<Worker>,
    /// Directory the recording lives in.
    pub dir: PathBuf,
}

/// Aggregate ring counters after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderTotals {
    /// Events written across all shards.
    pub recorded: u64,
    /// Events dropped across all shards.
    pub dropped: u64,
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> RecordError {
    RecordError::Io {
        what: format!("{what} {}: {e}", path.display()),
    }
}

impl RecorderSet {
    /// Creates `shards` recordings under `dir` (created if missing):
    /// one file, ring, and writer thread each. `meta_of` supplies the
    /// per-shard [`RunMeta`] written at the head of each file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] if the directory or a file cannot be
    /// created, or a writer thread cannot be spawned.
    pub fn create(
        dir: &Path,
        shards: usize,
        meta_of: impl Fn(u32) -> RunMeta,
    ) -> Result<(RecorderSet, Vec<ShardRecorder>), RecordError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let mut workers = Vec::with_capacity(shards);
        let mut recorders = Vec::with_capacity(shards);
        for shard in 0..shards {
            let shard_u32 = u32::try_from(shard).unwrap_or(u32::MAX);
            let path = dir.join(shard_file_name(shard_u32));
            let file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
            let mut head = Vec::with_capacity(64);
            write_header(&mut head);
            encode_record(&Record::Meta(meta_of(shard_u32)), &mut head);
            let mut out = BufWriter::new(file);
            out.write_all(&head)
                .map_err(|e| io_err("write", &path, &e))?;
            let (producer, consumer) = ring(DEFAULT_RING_BYTES);
            let handle = thread::Builder::new()
                .name(format!("rstp-record-{shard}"))
                .spawn(move || drain_loop(consumer, out, &path))
                .map_err(|e| RecordError::Io {
                    what: format!("spawn recorder {shard}: {e}"),
                })?;
            recorders.push(ShardRecorder::new(producer.clone()));
            workers.push(Worker { producer, handle });
        }
        Ok((
            RecorderSet {
                workers,
                dir: dir.to_path_buf(),
            },
            recorders,
        ))
    }

    /// A fresh data-path handle for `shard`, sharing the shard's ring
    /// and file. Crash recovery hands this to a restarted shard thread
    /// so its new epoch appends to the same recording.
    #[must_use]
    pub fn recorder(&self, shard: usize) -> Option<ShardRecorder> {
        self.workers
            .get(shard)
            .map(|w| ShardRecorder::new(w.producer.clone()))
    }

    /// Closes every ring, joins every writer, and returns the aggregate
    /// counters. Each file ends with its [`RecStats`] trailer. Drop
    /// every [`ShardRecorder`] first: a batch handed over after the
    /// close is never written.
    ///
    /// # Errors
    ///
    /// The first writer I/O failure, if any.
    pub fn finish(self) -> Result<RecorderTotals, RecordError> {
        let mut totals = RecorderTotals::default();
        let mut first_err = None;
        for w in self.workers {
            w.producer.close();
            totals.recorded += w.producer.recorded();
            totals.dropped += w.producer.dropped();
            match w.handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(RecordError::Io {
                        what: "recorder writer thread panicked".into(),
                    }));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(totals),
        }
    }
}

fn drain_loop(
    mut consumer: RingConsumer,
    mut out: BufWriter<File>,
    path: &Path,
) -> Result<(), RecordError> {
    loop {
        let closing = consumer.is_closed();
        // Sample the flush barrier *before* draining: every record that
        // preceded the request is then guaranteed to be in this drain,
        // so acknowledging after the write covers them all.
        let sync = consumer.pending_sync();
        let bytes = consumer.drain();
        let idle = bytes.is_empty();
        out.write_all(bytes)
            .map_err(|e| io_err("write", path, &e))?;
        if let Some(token) = sync {
            out.flush().map_err(|e| io_err("flush", path, &e))?;
            consumer.ack_sync(token);
        }
        if closing {
            // One final drain happened above (close-then-drain order);
            // now seal the file with the counter trailer.
            let (recorded, dropped) = consumer.counters();
            let mut trailer = Vec::with_capacity(32);
            encode_record(
                &Record::Stats(RecStats {
                    recorded,
                    dropped,
                    epoch: 0,
                }),
                &mut trailer,
            );
            out.write_all(&trailer)
                .map_err(|e| io_err("write", path, &e))?;
            out.flush().map_err(|e| io_err("flush", path, &e))?;
            return Ok(());
        }
        if idle {
            thread::park_timeout(DRAIN_NAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Event;
    use crate::reader::Recording;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rstp-record-{tag}-{}-{n}", std::process::id()))
    }

    fn meta(shard: u32) -> RunMeta {
        RunMeta {
            shard,
            c1: 1,
            c2: 2,
            d: 8,
            tick_micros: 200,
            seed: Some(1),
        }
    }

    #[test]
    fn writes_one_parseable_file_per_shard() {
        let dir = temp_dir("set");
        let (set, mut recorders) = RecorderSet::create(&dir, 2, meta).unwrap();
        for (i, rec) in recorders.iter_mut().enumerate() {
            for s in 0..10u32 {
                rec.record(Event::WheelPop {
                    at_micros: u64::from(s),
                    session: s + 1,
                    due_tick: u64::from(s),
                    late: false,
                });
            }
            assert_eq!(
                rec.recorded(),
                0,
                "shard {i}: nothing counts before the handoff"
            );
            rec.handoff();
            assert_eq!(rec.recorded(), 10, "shard {i}");
            assert_eq!(rec.dropped(), 0);
        }
        let totals = set.finish().unwrap();
        assert_eq!(
            totals,
            RecorderTotals {
                recorded: 20,
                dropped: 0
            }
        );
        for shard in 0..2u32 {
            let path = dir.join(shard_file_name(shard));
            let recording = Recording::load(&path).unwrap();
            assert_eq!(recording.meta, Some(meta(shard)));
            assert_eq!(recording.events.len(), 10);
            assert_eq!(
                recording.stats,
                Some(RecStats {
                    recorded: 10,
                    dropped: 0,
                    epoch: 0
                })
            );
            assert!(!recording.truncated);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_without_events_still_seals_headers_and_trailers() {
        let dir = temp_dir("empty");
        let (set, _recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        set.finish().unwrap();
        let recording = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert!(recording.events.is_empty());
        assert_eq!(recording.stats, Some(RecStats::default()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_barrier_makes_a_live_file_readable_mid_run() {
        let dir = temp_dir("barrier");
        let (set, mut recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        let mut rec = recorders.remove(0);
        for s in 0..5u32 {
            rec.record(Event::DeadlineMiss {
                at_micros: u64::from(s),
                session: s + 1,
                due_tick: 9,
            });
        }
        rec.handoff();
        // The crash-recovery sequence: checkpoint stats, then barrier,
        // then read the file back while the writer thread is still
        // live. The orchestrator records through a handle of its own.
        let pump = set.recorder(0).expect("shard 0");
        pump.push_stats(RecStats {
            recorded: pump.recorded(),
            dropped: pump.dropped(),
            epoch: 0,
        });
        assert!(pump.flush_barrier(Duration::from_secs(5)));
        let live = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(live.events.len(), 5);
        assert_eq!(live.stats.map(|s| s.recorded), Some(5));
        assert!(!live.truncated);
        // The run then continues; the shard's exit hands its last
        // batch over, and the file seals normally.
        rec.record(Event::DeadlineMiss {
            at_micros: 6,
            session: 9,
            due_tick: 9,
        });
        drop(rec);
        set.finish().unwrap();
        let sealed = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(sealed.events.len(), 6);
        assert_eq!(sealed.stats.map(|s| s.recorded), Some(7));
        let _ = fs::remove_dir_all(&dir);
    }

    fn miss(session: u32) -> Event {
        Event::DeadlineMiss {
            at_micros: 1,
            session,
            due_tick: 2,
        }
    }

    fn missed_sessions(mut bytes: &[u8]) -> Vec<u32> {
        let mut ids = Vec::new();
        while !bytes.is_empty() {
            let (rec, used) = crate::format::decode_record(bytes).expect("whole records");
            if let Record::Event(Event::DeadlineMiss { session, .. }) = rec {
                ids.push(session);
            }
            bytes = &bytes[used..];
        }
        ids
    }

    /// A writer holding the ring lock (descheduled mid-swap) costs the
    /// shard nothing: failed handoffs keep the batch, and after the
    /// release every event arrives, in order. Only a batch pushed past
    /// the byte bound sheds, and every offered event is then either
    /// recorded or counted as dropped.
    #[test]
    fn a_held_lock_sheds_nothing_and_only_the_bound_sheds() {
        let one = {
            let mut b = Vec::new();
            encode_record(&Record::Event(miss(0)), &mut b);
            b.len()
        };
        let (producer, mut consumer) = ring(8 * one);
        let mut rec = ShardRecorder::new(producer);
        let guard = consumer.hold();
        for wake in 0..3u32 {
            rec.record(miss(2 * wake));
            rec.record(miss(2 * wake + 1));
            rec.handoff();
        }
        assert_eq!((rec.recorded(), rec.dropped()), (0, 0));
        drop(guard);
        rec.handoff();
        assert_eq!((rec.recorded(), rec.dropped()), (6, 0));
        assert_eq!(
            missed_sessions(consumer.drain()),
            (0..6).collect::<Vec<_>>()
        );

        // Past the bound: the batch holds eight records, the rest shed.
        let guard = consumer.hold();
        for s in 0..12 {
            rec.record(miss(100 + s));
        }
        rec.handoff();
        drop(guard);
        rec.handoff();
        let offered = 6 + 12;
        assert_eq!((rec.recorded(), rec.dropped()), (6 + 8, 4));
        assert_eq!(rec.recorded() + rec.dropped(), offered);
        assert_eq!(
            missed_sessions(consumer.drain()),
            (100..108).collect::<Vec<_>>()
        );
        // Durable anchors pass the bound rather than shed.
        for s in 0..10 {
            rec.record_durable(miss(200 + s));
        }
        rec.final_handoff();
        assert_eq!(rec.dropped(), 4);
        assert_eq!(missed_sessions(consumer.drain()).len(), 10);
    }

    /// Events recorded through the shard-side API — owned events,
    /// borrowed frames and durable anchors — produce exactly the
    /// `encode_record` bytes of the same records.
    #[test]
    fn shard_side_encoding_matches_encode_record() {
        let (producer, mut consumer) = ring(DEFAULT_RING_BYTES);
        let mut rec = ShardRecorder::new(producer);
        let wire = [0x5A_u8; 40];
        let events = vec![
            Event::Admit {
                at_micros: 1,
                session: 7,
                kind: rstp_core::ProtocolKind::Beta { k: 4 },
                n: 32,
            },
            Event::Snapshot {
                at_micros: 1,
                session: 7,
                state: vec![1, 2, 3],
            },
            Event::WheelPop {
                at_micros: 2,
                session: 7,
                due_tick: 2,
                late: true,
            },
            miss(7),
            Event::Rx {
                at_micros: 3,
                session: 7,
                wire: wire.to_vec(),
            },
            Event::Tx {
                at_micros: 4,
                session: 7,
                wire: wire[..36].to_vec(),
            },
            Event::Write {
                at_micros: 5,
                session: 7,
                written: 1,
                bit: true,
            },
            Event::Verdict {
                at_micros: 6,
                session: 7,
                completed: true,
                written: vec![true, false, true],
            },
        ];
        for ev in events.clone() {
            match ev {
                Event::Rx {
                    at_micros, session, ..
                } => rec.record_frame(FrameDir::Rx, at_micros, session, &wire),
                Event::Tx {
                    at_micros, session, ..
                } => rec.record_frame(FrameDir::Tx, at_micros, session, &wire[..36]),
                ev @ (Event::Admit { .. } | Event::Snapshot { .. } | Event::Verdict { .. }) => {
                    rec.record_durable(ev);
                }
                ev => rec.record(ev),
            }
        }
        rec.handoff();
        let mut expected = Vec::new();
        for ev in events {
            encode_record(&Record::Event(ev), &mut expected);
        }
        assert_eq!(consumer.drain(), &expected[..]);
        assert_eq!(rec.recorded(), 8);
    }

    #[test]
    fn create_in_unwritable_location_reports_io() {
        let err = RecorderSet::create(Path::new("/proc/rstp-no-such/rec"), 1, meta)
            .err()
            .expect("must fail");
        assert!(matches!(err, RecordError::Io { .. }), "{err}");
    }
}
