//! The versioned, length-prefixed flight-record format.
//!
//! A recording file is a 9-byte header — the 8-byte magic `RSTPREC\0`
//! followed by a version byte — and then a stream of records. Each
//! record is a `u32` big-endian payload length followed by the payload;
//! the payload's first byte is the record kind, the rest is the
//! kind-specific body. All integers are big-endian, like the wire
//! format in `rstp-net`.
//!
//! The format is append-only and truncation-tolerant by design: a
//! flight recorder can lose power mid-record, so the reader treats a
//! short tail as a flagged condition, not corruption (see
//! [`crate::reader`]). Everything *before* the tail must parse exactly
//! — the golden-bytes tests below pin the encoding so a revision bump
//! is a conscious act, mirroring the wire-codec discipline.
//!
//! Record kinds:
//!
//! | kind | record | body |
//! |---|---|---|
//! | 1 | [`RunMeta`] | shard u32, c1/c2/d u64, tick_micros u64, seed flag u8 + u64 |
//! | 2 | `Admit` | at u64, session u32, protocol tag u8 + k u64 + window u64 + timeout flag u8 + u64, n u32 |
//! | 3 | `Rx` | at u64, session u32, wire len u16 + bytes |
//! | 4 | `Tx` | at u64, session u32, wire len u16 + bytes |
//! | 5 | `WheelPop` | at u64, session u32, due_tick u64, late u8 |
//! | 6 | `DeadlineMiss` | at u64, session u32, due_tick u64 |
//! | 7 | `Verdict` | at u64, session u32, completed u8, n u32 + packed bits |
//! | 8 | [`RecStats`] | recorded u64, dropped u64, epoch u32 (absent in v1) |
//! | 9 | `Snapshot` | at u64, session u32, state len u16 + bytes |
//! | 10 | `Write` | at u64, session u32, written u64, bit u8 |
//!
//! Version 2 added kinds 9/10 (session snapshots and incremental write
//! records — the durability source for crash recovery) and the stats
//! `epoch` field, which identifies the shard-writer incarnation a stats
//! record belongs to so shed accounting can dedupe mid-file checkpoints
//! from trailers. A v2 reader still parses v1 files: the epoch field is
//! optional on decode and defaults to 0.

use rstp_core::protocols::KindFields;
use rstp_core::state_codec::Field;
use rstp_core::ProtocolKind;
use std::fmt;

/// Leading file magic: `RSTPREC\0`.
pub const RECORD_MAGIC: [u8; 8] = *b"RSTPREC\0";
/// Current format version; a reader rejects anything newer.
pub const RECORD_VERSION: u8 = 2;
/// File header length: magic plus version byte.
pub const HEADER_LEN: usize = RECORD_MAGIC.len() + 1;
/// Hard ceiling on one record's payload — far above any real record
/// (the largest carries one wire frame), so an oversized length prefix
/// means corruption, not load.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Decode failure for a recording header or record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the construct needs.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The file does not start with [`RECORD_MAGIC`].
    BadMagic,
    /// The header version is newer than this reader.
    FutureVersion {
        /// Version byte found.
        got: u8,
    },
    /// An unassigned record-kind byte.
    UnknownKind {
        /// Kind byte found.
        got: u8,
    },
    /// A length prefix above [`MAX_RECORD_LEN`].
    Oversized {
        /// Declared payload length.
        len: u32,
    },
    /// A structurally invalid body (bad protocol tag, flag byte, or an
    /// inner length that disagrees with the payload length).
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
    /// Filesystem failure while loading a recording (reader only; the
    /// pure decoders never return this).
    Io {
        /// Rendered OS error with path context.
        what: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { need, got } => {
                write!(f, "truncated record: need {need} bytes, got {got}")
            }
            RecordError::BadMagic => f.write_str("bad magic: not an rstp recording"),
            RecordError::FutureVersion { got } => write!(
                f,
                "recording version {got} is newer than this reader (max {RECORD_VERSION})"
            ),
            RecordError::UnknownKind { got } => write!(f, "unknown record kind {got}"),
            RecordError::Oversized { len } => {
                write!(f, "record length {len} exceeds the {MAX_RECORD_LEN} cap")
            }
            RecordError::Malformed { what } => write!(f, "malformed record: {what}"),
            RecordError::Io { what } => write!(f, "recording io: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Run-level metadata, written once at the start of every shard file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Shard index the file belongs to.
    pub shard: u32,
    /// `c1` in ticks.
    pub c1: u64,
    /// `c2` in ticks.
    pub c2: u64,
    /// `d` in ticks.
    pub d: u64,
    /// Wall-clock length of one tick, microseconds.
    pub tick_micros: u64,
    /// Swarm input seed, when the run's inputs were seed-derived
    /// (`random_input(n, seed + session - 1)` per the swarm convention).
    pub seed: Option<u64>,
}

/// Ring statistics, written as the trailer of every shard file — and,
/// since format v2, also mid-file as a checkpoint before a shard
/// restarts. Counters are cumulative *within one writer incarnation*;
/// the `epoch` field names that incarnation so readers can dedupe a
/// checkpoint from the trailer that supersedes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecStats {
    /// Events that made it into the file.
    pub recorded: u64,
    /// Events shed because a shard's batch reached the byte bound.
    pub dropped: u64,
    /// Writer incarnation the counters belong to (0 for v1 files).
    pub epoch: u32,
}

/// One frame-level event, stamped with the shard clock's microsecond
/// reading (`TickClock::now_micros`; the shard never reads the wall
/// clock on the recorder's behalf).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A session was admitted to the shard's table.
    Admit {
        /// Clock stamp, microseconds since the epoch.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Protocol the session speaks.
        kind: ProtocolKind,
        /// Messages the transfer carries.
        n: u32,
    },
    /// A frame was applied as a `recv` input (wire bytes included).
    Rx {
        /// Clock stamp at application.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The frame's canonical wire encoding.
        wire: Vec<u8>,
    },
    /// A frame was produced by a local step (wire bytes included).
    Tx {
        /// Clock stamp at encoding.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The frame's wire encoding as shipped.
        wire: Vec<u8>,
    },
    /// The timer wheel popped a session's deadline.
    WheelPop {
        /// Clock stamp at the wake.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The tick the deadline was scheduled for.
        due_tick: u64,
        /// Whether the wake overshot the slack (counted as a miss).
        late: bool,
    },
    /// A deadline miss was booked against the session.
    DeadlineMiss {
        /// Clock stamp at the late wake.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The tick that was missed.
        due_tick: u64,
    },
    /// A full serialized session state (the versioned snapshot encoding
    /// from `rstp-serve`), written on admit and on handover-admit. A
    /// crash recovery starts from the latest snapshot and replays the
    /// events after it.
    Snapshot {
        /// Clock stamp at capture.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Opaque versioned snapshot bytes.
        state: Vec<u8>,
    },
    /// The receiver wrote (acknowledged) one message. `written` is the
    /// cumulative count *after* this write — the durable floor a
    /// restarted node must reach again — and `bit` is the message value,
    /// so the no-acknowledged-loss oracle can check the Y-prefix by
    /// content, not just length.
    Write {
        /// Clock stamp at the write.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Cumulative messages written after this one.
        written: u64,
        /// The message value written.
        bit: bool,
    },
    /// The session left the table; `written` is its final output `Y`.
    Verdict {
        /// Clock stamp at retirement (or shutdown, for unfinished).
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Whether the session completed (vs. shutdown-unfinished).
        completed: bool,
        /// The receiver's written bits.
        written: Vec<bool>,
    },
}

/// Any record a shard file can contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// File-leading run metadata.
    Meta(RunMeta),
    /// A frame-level event.
    Event(Event),
    /// File-trailing ring statistics.
    Stats(RecStats),
}

const KIND_META: u8 = 1;
const KIND_ADMIT: u8 = 2;
const KIND_RX: u8 = 3;
const KIND_TX: u8 = 4;
const KIND_POP: u8 = 5;
const KIND_MISS: u8 = 6;
const KIND_VERDICT: u8 = 7;
const KIND_STATS: u8 = 8;
const KIND_SNAPSHOT: u8 = 9;
const KIND_WRITE: u8 = 10;

/// Appends the 9-byte file header.
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(RECORD_VERSION);
}

/// Validates the file header; returns [`HEADER_LEN`] on success.
///
/// # Errors
///
/// [`RecordError::Truncated`], [`RecordError::BadMagic`], or
/// [`RecordError::FutureVersion`].
pub fn read_header(buf: &[u8]) -> Result<usize, RecordError> {
    if buf.len() < HEADER_LEN {
        return Err(RecordError::Truncated {
            need: HEADER_LEN,
            got: buf.len(),
        });
    }
    if !buf.starts_with(&RECORD_MAGIC) {
        return Err(RecordError::BadMagic);
    }
    let version = buf.get(RECORD_MAGIC.len()).copied().unwrap_or(0);
    if version > RECORD_VERSION {
        return Err(RecordError::FutureVersion { got: version });
    }
    Ok(HEADER_LEN)
}

/// Appends one length-prefixed record. The prefix is reserved first
/// and patched once the payload is in place, so encoding writes
/// straight into `out` with no intermediate buffer.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let start = begin_record(out);
    match rec {
        Record::Meta(m) => {
            out.push(KIND_META);
            m.shard.encode_field(out);
            m.c1.encode_field(out);
            m.c2.encode_field(out);
            m.d.encode_field(out);
            m.tick_micros.encode_field(out);
            m.seed.encode_field(out);
        }
        Record::Event(ev) => encode_event(ev, out),
        Record::Stats(s) => {
            out.push(KIND_STATS);
            s.recorded.encode_field(out);
            s.dropped.encode_field(out);
            s.epoch.encode_field(out);
        }
    }
    end_record(out, start);
}

/// Which way a recorded frame travelled: the `Rx`/`Tx` pair of
/// [`Event`], for frames encoded from borrowed bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameDir {
    /// Applied as a `recv` input ([`Event::Rx`]).
    Rx,
    /// Produced by a local step ([`Event::Tx`]).
    Tx,
}

/// Appends one length-prefixed `Rx`/`Tx` record for a frame the caller
/// only borrows — byte-identical to [`encode_record`] of the owned
/// [`Event::Rx`]/[`Event::Tx`], without the owned copy.
pub fn encode_frame(dir: FrameDir, at_micros: u64, session: u32, wire: &[u8], out: &mut Vec<u8>) {
    let start = begin_record(out);
    frame_body(dir, at_micros, session, wire, out);
    end_record(out, start);
}

/// Reserves a record's length prefix; returns where it starts.
fn begin_record(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    start
}

/// Patches the prefix reserved at `start` with the payload length.
fn end_record(out: &mut [u8], start: usize) {
    let len = out.len().saturating_sub(start + 4);
    let len = u32::try_from(len).unwrap_or(u32::MAX).to_be_bytes();
    if let Some(prefix) = out.get_mut(start..start + 4) {
        prefix.copy_from_slice(&len);
    }
}

/// A length-prefixed byte string (`u16` length, bytes capped to fit).
fn short_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    len.encode_field(out);
    out.extend_from_slice(bytes.get(..usize::from(len)).unwrap_or(bytes));
}

fn frame_body(dir: FrameDir, at_micros: u64, session: u32, wire: &[u8], out: &mut Vec<u8>) {
    out.push(match dir {
        FrameDir::Rx => KIND_RX,
        FrameDir::Tx => KIND_TX,
    });
    at_micros.encode_field(out);
    session.encode_field(out);
    short_bytes(wire, out);
}

fn encode_event(ev: &Event, out: &mut Vec<u8>) {
    match ev {
        Event::Admit {
            at_micros,
            session,
            kind,
            n,
        } => {
            out.push(KIND_ADMIT);
            at_micros.encode_field(out);
            session.encode_field(out);
            kind.encode_tag(out);
            n.encode_field(out);
        }
        Event::Rx {
            at_micros,
            session,
            wire,
        } => frame_body(FrameDir::Rx, *at_micros, *session, wire, out),
        Event::Tx {
            at_micros,
            session,
            wire,
        } => frame_body(FrameDir::Tx, *at_micros, *session, wire, out),
        Event::WheelPop {
            at_micros,
            session,
            due_tick,
            late,
        } => {
            out.push(KIND_POP);
            at_micros.encode_field(out);
            session.encode_field(out);
            due_tick.encode_field(out);
            out.push(u8::from(*late));
        }
        Event::DeadlineMiss {
            at_micros,
            session,
            due_tick,
        } => {
            out.push(KIND_MISS);
            at_micros.encode_field(out);
            session.encode_field(out);
            due_tick.encode_field(out);
        }
        Event::Snapshot {
            at_micros,
            session,
            state,
        } => {
            out.push(KIND_SNAPSHOT);
            at_micros.encode_field(out);
            session.encode_field(out);
            short_bytes(state, out);
        }
        Event::Write {
            at_micros,
            session,
            written,
            bit,
        } => {
            out.push(KIND_WRITE);
            at_micros.encode_field(out);
            session.encode_field(out);
            written.encode_field(out);
            out.push(u8::from(*bit));
        }
        Event::Verdict {
            at_micros,
            session,
            completed,
            written,
        } => {
            out.push(KIND_VERDICT);
            at_micros.encode_field(out);
            session.encode_field(out);
            out.push(u8::from(*completed));
            written.encode_field(out);
        }
    }
}

/// A cursor over one record's body.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Malformed {
            what: "body length overflow",
        })?;
        let s = self.buf.get(self.pos..end).ok_or(RecordError::Truncated {
            need: end,
            got: self.buf.len(),
        })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RecordError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn flag(&mut self, what: &'static str) -> Result<bool, RecordError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RecordError::Malformed { what }),
        }
    }

    fn finish(&self) -> Result<(), RecordError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(RecordError::Malformed {
                what: "trailing bytes after body",
            })
        }
    }
}

fn take_kind(b: &mut Body<'_>) -> Result<ProtocolKind, RecordError> {
    let tag = b.u8()?;
    let k = b.u64()?;
    let window = b.u64()?;
    let has_timeout = b.flag("protocol timeout flag")?;
    let timeout_raw = b.u64()?;
    let timeout_steps = has_timeout.then_some(timeout_raw);
    let fields = KindFields {
        k,
        window,
        timeout_steps,
    };
    fields.kind(tag).ok_or(RecordError::Malformed {
        what: "unknown protocol tag",
    })
}

/// Decodes one length-prefixed record from the start of `buf`.
/// Returns the record and the total bytes consumed (prefix + payload).
///
/// # Errors
///
/// [`RecordError`] on truncation, an oversized or unknown record, or a
/// malformed body.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), RecordError> {
    if buf.len() < 4 {
        return Err(RecordError::Truncated {
            need: 4,
            got: buf.len(),
        });
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_RECORD_LEN {
        return Err(RecordError::Oversized { len });
    }
    let len = len as usize;
    let total = 4 + len;
    if buf.len() < total {
        return Err(RecordError::Truncated {
            need: total,
            got: buf.len(),
        });
    }
    let Some((&kind_byte, body)) = buf.get(4..total).and_then(<[u8]>::split_first) else {
        return Err(RecordError::Malformed {
            what: "empty payload",
        });
    };
    let mut b = Body { buf: body, pos: 0 };
    let rec = match kind_byte {
        KIND_META => {
            let shard = b.u32()?;
            let c1 = b.u64()?;
            let c2 = b.u64()?;
            let d = b.u64()?;
            let tick_micros = b.u64()?;
            let has_seed = b.flag("meta seed flag")?;
            let seed_raw = b.u64()?;
            Record::Meta(RunMeta {
                shard,
                c1,
                c2,
                d,
                tick_micros,
                seed: has_seed.then_some(seed_raw),
            })
        }
        KIND_ADMIT => {
            let at_micros = b.u64()?;
            let session = b.u32()?;
            let kind = take_kind(&mut b)?;
            let n = b.u32()?;
            Record::Event(Event::Admit {
                at_micros,
                session,
                kind,
                n,
            })
        }
        kind @ (KIND_RX | KIND_TX) => {
            let at_micros = b.u64()?;
            let session = b.u32()?;
            let wire_len = usize::from(b.u16()?);
            let wire = b.take(wire_len)?.to_vec();
            Record::Event(if kind == KIND_RX {
                Event::Rx {
                    at_micros,
                    session,
                    wire,
                }
            } else {
                Event::Tx {
                    at_micros,
                    session,
                    wire,
                }
            })
        }
        KIND_POP => Record::Event(Event::WheelPop {
            at_micros: b.u64()?,
            session: b.u32()?,
            due_tick: b.u64()?,
            late: b.flag("pop late flag")?,
        }),
        KIND_MISS => Record::Event(Event::DeadlineMiss {
            at_micros: b.u64()?,
            session: b.u32()?,
            due_tick: b.u64()?,
        }),
        KIND_VERDICT => {
            let at_micros = b.u64()?;
            let session = b.u32()?;
            let completed = b.flag("verdict completed flag")?;
            let n = b.u32()? as usize;
            let packed = b.take(n.div_ceil(8))?;
            let written = (0..n)
                .map(|i| packed.get(i / 8).copied().unwrap_or(0) >> (i % 8) & 1 == 1)
                .collect();
            Record::Event(Event::Verdict {
                at_micros,
                session,
                completed,
                written,
            })
        }
        KIND_STATS => {
            let recorded = b.u64()?;
            let dropped = b.u64()?;
            // The epoch field arrived in format v2; v1 stats bodies end
            // after the counters and decode with epoch 0.
            let epoch = if b.remaining() >= 4 { b.u32()? } else { 0 };
            Record::Stats(RecStats {
                recorded,
                dropped,
                epoch,
            })
        }
        KIND_SNAPSHOT => {
            let at_micros = b.u64()?;
            let session = b.u32()?;
            let state_len = usize::from(b.u16()?);
            let state = b.take(state_len)?.to_vec();
            Record::Event(Event::Snapshot {
                at_micros,
                session,
                state,
            })
        }
        KIND_WRITE => Record::Event(Event::Write {
            at_micros: b.u64()?,
            session: b.u32()?,
            written: b.u64()?,
            bit: b.flag("write bit flag")?,
        }),
        got => return Err(RecordError::UnknownKind { got }),
    };
    b.finish()?;
    Ok((rec, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) {
        let mut buf = Vec::new();
        encode_record(rec, &mut buf);
        let (got, used) = decode_record(&buf).unwrap();
        assert_eq!(&got, rec);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn every_record_kind_round_trips() {
        roundtrip(&Record::Meta(RunMeta {
            shard: 3,
            c1: 1,
            c2: 2,
            d: 8,
            tick_micros: 200,
            seed: Some(42),
        }));
        roundtrip(&Record::Meta(RunMeta {
            shard: 0,
            c1: 2,
            c2: 5,
            d: 11,
            tick_micros: 1000,
            seed: None,
        }));
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 2 },
            ProtocolKind::AltBit {
                timeout_steps: None,
            },
            ProtocolKind::AltBit {
                timeout_steps: Some(9),
            },
            ProtocolKind::Framed { k: 3 },
            ProtocolKind::BetaWindow { k: 5 },
            ProtocolKind::Stenning {
                timeout_steps: Some(7),
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
        ] {
            roundtrip(&Record::Event(Event::Admit {
                at_micros: 12345,
                session: 7,
                kind,
                n: 64,
            }));
        }
        roundtrip(&Record::Event(Event::Rx {
            at_micros: 1,
            session: 2,
            wire: vec![0xAA; 40],
        }));
        roundtrip(&Record::Event(Event::Tx {
            at_micros: u64::MAX,
            session: u32::MAX,
            wire: Vec::new(),
        }));
        roundtrip(&Record::Event(Event::WheelPop {
            at_micros: 5,
            session: 6,
            due_tick: 77,
            late: true,
        }));
        roundtrip(&Record::Event(Event::DeadlineMiss {
            at_micros: 5,
            session: 6,
            due_tick: 78,
        }));
        for n in [0usize, 1, 7, 8, 9, 64] {
            roundtrip(&Record::Event(Event::Verdict {
                at_micros: 9,
                session: 1,
                completed: n % 2 == 0,
                written: (0..n).map(|i| i % 3 == 0).collect(),
            }));
        }
        roundtrip(&Record::Event(Event::Snapshot {
            at_micros: 44,
            session: 3,
            state: vec![0x01, 0xFF, 0x00, 0x42],
        }));
        roundtrip(&Record::Event(Event::Snapshot {
            at_micros: 0,
            session: 0,
            state: Vec::new(),
        }));
        roundtrip(&Record::Event(Event::Write {
            at_micros: 55,
            session: 8,
            written: 17,
            bit: true,
        }));
        roundtrip(&Record::Stats(RecStats {
            recorded: 1000,
            dropped: 3,
            epoch: 0,
        }));
        roundtrip(&Record::Stats(RecStats {
            recorded: 12,
            dropped: 0,
            epoch: 2,
        }));
    }

    /// A v1 stats body (no epoch field) still decodes, with epoch 0:
    /// pre-v2 recordings must keep parsing under the v2 reader.
    #[test]
    fn v1_stats_body_decodes_with_epoch_zero() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&17u32.to_be_bytes());
        buf.push(8); // KIND_STATS
        buf.extend_from_slice(&2u64.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        let (rec, used) = decode_record(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            rec,
            Record::Stats(RecStats {
                recorded: 2,
                dropped: 1,
                epoch: 0,
            })
        );
    }

    /// Golden bytes: the exact encoding of a header plus one small
    /// record of each fixed-size kind. Any change to these bytes is a
    /// format revision and must bump [`RECORD_VERSION`].
    #[test]
    fn golden_bytes_are_pinned() {
        let mut buf = Vec::new();
        write_header(&mut buf);
        encode_record(
            &Record::Meta(RunMeta {
                shard: 1,
                c1: 1,
                c2: 2,
                d: 8,
                tick_micros: 200,
                seed: Some(5),
            }),
            &mut buf,
        );
        encode_record(
            &Record::Event(Event::WheelPop {
                at_micros: 0x0102,
                session: 9,
                due_tick: 3,
                late: false,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Stats(RecStats {
                recorded: 2,
                dropped: 1,
                epoch: 7,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Event(Event::Write {
                at_micros: 0x0304,
                session: 6,
                written: 12,
                bit: true,
            }),
            &mut buf,
        );
        let expected: Vec<u8> = vec![
            // header: magic + version 2
            b'R', b'S', b'T', b'P', b'R', b'E', b'C', 0, 2, //
            // Meta: len 46, kind 1, shard 1, c1 1, c2 2, d 8, tick 200,
            // seed flag 1 + 5
            0, 0, 0, 46, 1, //
            0, 0, 0, 1, //
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 0, 0, 0, 0, 2, //
            0, 0, 0, 0, 0, 0, 0, 8, //
            0, 0, 0, 0, 0, 0, 0, 200, //
            1, 0, 0, 0, 0, 0, 0, 0, 5, //
            // WheelPop: len 22, kind 5, at 0x0102, session 9, due 3, late 0
            0, 0, 0, 22, 5, //
            0, 0, 0, 0, 0, 0, 1, 2, //
            0, 0, 0, 9, //
            0, 0, 0, 0, 0, 0, 0, 3, //
            0, //
            // Stats: len 21, kind 8, recorded 2, dropped 1, epoch 7
            0, 0, 0, 21, 8, //
            0, 0, 0, 0, 0, 0, 0, 2, //
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 7, //
            // Write: len 22, kind 10, at 0x0304, session 6, written 12, bit 1
            0, 0, 0, 22, 10, //
            0, 0, 0, 0, 0, 0, 3, 4, //
            0, 0, 0, 6, //
            0, 0, 0, 0, 0, 0, 0, 12, //
            1,  //
        ];
        assert_eq!(buf, expected);
    }

    /// Golden bytes for the variable-body kinds the pin above leaves
    /// out: Admit (with and without a timeout), Rx, Tx, DeadlineMiss,
    /// Snapshot and Verdict (a partial trailing byte of packed bits).
    #[test]
    fn golden_bytes_pin_every_event_kind() {
        let mut buf = Vec::new();
        for rec in [
            Event::Admit {
                at_micros: 0x0506,
                session: 3,
                kind: ProtocolKind::Pipelined { k: 4, window: 2 },
                n: 16,
            },
            Event::Admit {
                at_micros: 1,
                session: 4,
                kind: ProtocolKind::AltBit {
                    timeout_steps: Some(9),
                },
                n: 2,
            },
            Event::Rx {
                at_micros: 7,
                session: 2,
                wire: vec![0xDE, 0xAD, 0xBE],
            },
            Event::Tx {
                at_micros: 8,
                session: 2,
                wire: vec![0x01],
            },
            Event::DeadlineMiss {
                at_micros: 9,
                session: 4,
                due_tick: 5,
            },
            Event::Snapshot {
                at_micros: 10,
                session: 5,
                state: vec![0xAA, 0xBB],
            },
            Event::Verdict {
                at_micros: 11,
                session: 6,
                completed: true,
                written: [1, 0, 1, 1, 0, 0, 0, 1, 1, 0].map(|b| b == 1).to_vec(),
            },
        ] {
            encode_record(&Record::Event(rec), &mut buf);
        }
        let expected: Vec<u8> = vec![
            // Admit: len 43, kind 2, at 0x0506, session 3, tag 8 (pipelined),
            // k 4, window 2, timeout flag 0 + 0, n 16
            0, 0, 0, 43, 2, //
            0, 0, 0, 0, 0, 0, 5, 6, //
            0, 0, 0, 3, //
            8, //
            0, 0, 0, 0, 0, 0, 0, 4, //
            0, 0, 0, 0, 0, 0, 0, 2, //
            0, 0, 0, 0, 0, 0, 0, 0, 0, //
            0, 0, 0, 16, //
            // Admit: len 43, kind 2, at 1, session 4, tag 4 (altbit),
            // k 0, window 0, timeout flag 1 + 9, n 2
            0, 0, 0, 43, 2, //
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 4, //
            4, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            1, 0, 0, 0, 0, 0, 0, 0, 9, //
            0, 0, 0, 2, //
            // Rx: len 18, kind 3, at 7, session 2, wire len 3 + bytes
            0, 0, 0, 18, 3, //
            0, 0, 0, 0, 0, 0, 0, 7, //
            0, 0, 0, 2, //
            0, 3, 0xDE, 0xAD, 0xBE, //
            // Tx: len 16, kind 4, at 8, session 2, wire len 1 + byte
            0, 0, 0, 16, 4, //
            0, 0, 0, 0, 0, 0, 0, 8, //
            0, 0, 0, 2, //
            0, 1, 0x01, //
            // DeadlineMiss: len 21, kind 6, at 9, session 4, due 5
            0, 0, 0, 21, 6, //
            0, 0, 0, 0, 0, 0, 0, 9, //
            0, 0, 0, 4, //
            0, 0, 0, 0, 0, 0, 0, 5, //
            // Snapshot: len 17, kind 9, at 10, session 5, state len 2 + bytes
            0, 0, 0, 17, 9, //
            0, 0, 0, 0, 0, 0, 0, 10, //
            0, 0, 0, 5, //
            0, 2, 0xAA, 0xBB, //
            // Verdict: len 20, kind 7, at 11, session 6, completed 1,
            // n 10, bits LSB-first: 0b1000_1101, 0b0000_0001
            0, 0, 0, 20, 7, //
            0, 0, 0, 0, 0, 0, 0, 11, //
            0, 0, 0, 6, //
            1, //
            0, 0, 0, 10, //
            0x8D, 0x01, //
        ];
        assert_eq!(buf, expected);
    }

    #[test]
    fn header_errors_are_exhaustive() {
        // Truncated header.
        assert_eq!(
            read_header(&RECORD_MAGIC[..5]),
            Err(RecordError::Truncated { need: 9, got: 5 })
        );
        // Bad magic.
        let mut bad = RECORD_MAGIC.to_vec();
        bad[0] ^= 0xFF;
        bad.push(RECORD_VERSION);
        assert_eq!(read_header(&bad), Err(RecordError::BadMagic));
        // Future version.
        let mut future = RECORD_MAGIC.to_vec();
        future.push(RECORD_VERSION + 1);
        assert_eq!(
            read_header(&future),
            Err(RecordError::FutureVersion {
                got: RECORD_VERSION + 1
            })
        );
        // A valid header parses.
        let mut ok = RECORD_MAGIC.to_vec();
        ok.push(RECORD_VERSION);
        assert_eq!(read_header(&ok), Ok(HEADER_LEN));
    }

    #[test]
    fn record_decode_errors_are_exhaustive() {
        let mut buf = Vec::new();
        encode_record(
            &Record::Event(Event::DeadlineMiss {
                at_micros: 1,
                session: 2,
                due_tick: 3,
            }),
            &mut buf,
        );
        // Truncated at every prefix length strictly shorter than the record.
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode_record(&buf[..cut]),
                    Err(RecordError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        // Unknown kind byte.
        let mut unk = buf.clone();
        unk[4] = 0xEE;
        assert_eq!(
            decode_record(&unk),
            Err(RecordError::UnknownKind { got: 0xEE })
        );
        // Oversized length prefix.
        let mut big = buf.clone();
        big[..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        assert_eq!(
            decode_record(&big),
            Err(RecordError::Oversized {
                len: MAX_RECORD_LEN + 1
            })
        );
        // Zero-length payload.
        assert_eq!(
            decode_record(&[0, 0, 0, 0]),
            Err(RecordError::Malformed {
                what: "empty payload"
            })
        );
        // Trailing bytes inside the declared payload.
        let mut fat = buf.clone();
        fat.push(0xAB);
        let len = u32::try_from(fat.len() - 4).unwrap();
        fat[..4].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_record(&fat),
            Err(RecordError::Malformed {
                what: "trailing bytes after body"
            })
        );
        // A non-boolean flag byte.
        let mut pop = Vec::new();
        encode_record(
            &Record::Event(Event::WheelPop {
                at_micros: 1,
                session: 2,
                due_tick: 3,
                late: false,
            }),
            &mut pop,
        );
        let last = pop.len() - 1;
        pop[last] = 2;
        assert_eq!(
            decode_record(&pop),
            Err(RecordError::Malformed {
                what: "pop late flag"
            })
        );
        // A snapshot whose inner length overruns the payload.
        let mut snap = Vec::new();
        encode_record(
            &Record::Event(Event::Snapshot {
                at_micros: 1,
                session: 2,
                state: vec![0xAA, 0xBB],
            }),
            &mut snap,
        );
        // Inner state length sits after len(4)+kind(1)+at(8)+session(4).
        snap[4 + 1 + 8 + 4 + 1] = 0xFF;
        assert!(matches!(
            decode_record(&snap),
            Err(RecordError::Truncated { .. })
        ));
        // A non-boolean write bit.
        let mut wr = Vec::new();
        encode_record(
            &Record::Event(Event::Write {
                at_micros: 1,
                session: 2,
                written: 3,
                bit: false,
            }),
            &mut wr,
        );
        let last = wr.len() - 1;
        wr[last] = 9;
        assert_eq!(
            decode_record(&wr),
            Err(RecordError::Malformed {
                what: "write bit flag"
            })
        );
        // A bad protocol tag.
        let mut admit = Vec::new();
        encode_record(
            &Record::Event(Event::Admit {
                at_micros: 1,
                session: 2,
                kind: ProtocolKind::Alpha,
                n: 4,
            }),
            &mut admit,
        );
        admit[4 + 1 + 8 + 4] = 0xBB; // the tag byte after len+kind+at+session
        assert_eq!(
            decode_record(&admit),
            Err(RecordError::Malformed {
                what: "unknown protocol tag"
            })
        );
    }

    #[test]
    fn error_display_is_informative() {
        for (err, needle) in [
            (RecordError::Truncated { need: 9, got: 2 }, "truncated"),
            (RecordError::BadMagic, "magic"),
            (RecordError::FutureVersion { got: 9 }, "version 9"),
            (RecordError::UnknownKind { got: 99 }, "kind 99"),
            (RecordError::Oversized { len: 1 << 21 }, "cap"),
            (RecordError::Malformed { what: "x" }, "malformed"),
            (
                RecordError::Io {
                    what: "enoent".into(),
                },
                "io",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
