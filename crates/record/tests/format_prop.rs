//! Property tests for the flight-record format, mirroring the wire
//! codec's taxonomy: encode→decode identity over the whole record
//! space, and strict non-panicking rejection of corrupted prefixes.

use proptest::prelude::*;
use rstp_core::ProtocolKind;
use rstp_record::{
    format::{decode_record, encode_record, read_header, write_header},
    Event, RecStats, Record, RecordError, RunMeta,
};

fn kind_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Alpha),
        (1u64..=16).prop_map(|k| ProtocolKind::Beta { k }),
        (1u64..=16).prop_map(|k| ProtocolKind::Gamma { k }),
        (any::<bool>(), 0u64..=64).prop_map(|(some, t)| ProtocolKind::AltBit {
            timeout_steps: some.then_some(t)
        }),
        (1u64..=16).prop_map(|k| ProtocolKind::Framed { k }),
        (1u64..=16).prop_map(|k| ProtocolKind::BetaWindow { k }),
        (any::<bool>(), 0u64..=64).prop_map(|(some, t)| ProtocolKind::Stenning {
            timeout_steps: some.then_some(t)
        }),
        (1u64..=16, 1u64..=8).prop_map(|(k, window)| ProtocolKind::Pipelined { k, window }),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), kind_strategy(), any::<u32>()).prop_map(
            |(at_micros, session, kind, n)| Event::Admit {
                at_micros,
                session,
                kind,
                n,
            }
        ),
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..=64)
        )
            .prop_map(|(at_micros, session, wire)| Event::Rx {
                at_micros,
                session,
                wire,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..=64)
        )
            .prop_map(|(at_micros, session, wire)| Event::Tx {
                at_micros,
                session,
                wire,
            }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()).prop_map(
            |(at_micros, session, due_tick, late)| Event::WheelPop {
                at_micros,
                session,
                due_tick,
                late,
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(at_micros, session, due_tick)| {
            Event::DeadlineMiss {
                at_micros,
                session,
                due_tick,
            }
        }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            proptest::collection::vec(any::<bool>(), 0..=80)
        )
            .prop_map(|(at_micros, session, completed, written)| Event::Verdict {
                at_micros,
                session,
                completed,
                written,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..=96)
        )
            .prop_map(|(at_micros, session, state)| Event::Snapshot {
                at_micros,
                session,
                state,
            }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()).prop_map(
            |(at_micros, session, written, bit)| Event::Write {
                at_micros,
                session,
                written,
                bit,
            }
        ),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            any::<u32>(),
            1u64..=8,
            1u64..=16,
            1u64..=64,
            1u64..=10_000,
            (any::<bool>(), any::<u64>())
        )
            .prop_map(
                |(shard, c1, c2, d, tick_micros, (has_seed, s))| Record::Meta(RunMeta {
                    shard,
                    c1,
                    c2,
                    d,
                    tick_micros,
                    seed: has_seed.then_some(s),
                })
            ),
        event_strategy().prop_map(Record::Event),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(recorded, dropped, epoch)| {
            Record::Stats(RecStats {
                recorded,
                dropped,
                epoch,
            })
        }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_is_identity(rec in record_strategy()) {
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        let (got, used) = decode_record(&buf).expect("own encoding must decode");
        prop_assert_eq!(got, rec);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn streams_decode_back_to_back(recs in proptest::collection::vec(record_strategy(), 1..=8)) {
        let mut buf = Vec::new();
        write_header(&mut buf);
        for rec in &recs {
            encode_record(rec, &mut buf);
        }
        let mut pos = read_header(&buf).expect("header");
        let mut got = Vec::new();
        while pos < buf.len() {
            let (rec, used) = decode_record(&buf[pos..]).expect("stream record");
            got.push(rec);
            pos += used;
        }
        prop_assert_eq!(got, recs);
    }

    #[test]
    fn every_strict_prefix_is_truncated_never_a_panic(rec in record_strategy()) {
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        for cut in 0..buf.len() {
            prop_assert!(matches!(
                decode_record(&buf[..cut]),
                Err(RecordError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..=96)) {
        // Any result is fine; reaching it without a panic is the property.
        let _ = decode_record(&bytes);
        let _ = read_header(&bytes);
    }
}
