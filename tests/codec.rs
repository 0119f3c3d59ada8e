//! The one hostile-input suite of the one value codec (`genealog_spe::codec`).
//!
//! Every `Encode`/`Decode` impl in the workspace — primitives, engine ids, the
//! provenance records, the Q1–Q4 schemas, the wire frames, the node deployment,
//! the store's segment record, the metrics frame a remote instance ships to its
//! origin — goes through the same three checks: it
//! round-trips, **every** strict prefix of its bytes is a typed `CodecError`, and
//! every single-bit flip decodes to a value or a typed error (never a panic,
//! never a reservation sized by a corrupt count). The byte containers built on
//! the codec (GLWS window snapshots from both persisters, GLWD deltas, segment
//! frames) get the same treatment through their own entry points, and trailing
//! bytes are rejected exactly where a stored record must fill its buffer.
//!
//! The **golden vectors** at the bottom were captured at the commit before the
//! codecs were merged: the wire, the containers, the delta and the segment
//! record are asserted byte-for-byte, so a layout change cannot hide behind a
//! matching encoder/decoder pair.

use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use genealog::{
    erase, GeneaLog, GlMeta, GlWindowPersister, OpKind, SourceRecord, UnfoldedEvent, UpstreamEvent,
};
use genealog_bench::q4relay::Q4Relay;
use genealog_distributed::{
    NodeDeployment, ShardOpSpec, TupleFrameBuilder, WireFrame, WireProvenance, WireTag, WireTuple,
};
use genealog_metrics::{Histogram, HistogramSnapshot, Sample, SampleValue};
use genealog_spe::codec::{CodecError, Decode, Encode, Reader};
use genealog_spe::persist::{
    is_container, parse_container, ContainerWriter, PlainWindowPersister, WindowPersister,
};
use genealog_spe::provenance::{ProvenanceSystem, RemoteContext, SourceContext};
use genealog_spe::time::{Duration, Timestamp};
use genealog_spe::tuple::{GTuple, TupleId};
use genealog_spe::window::{WindowSpec, WindowStore, WindowStoreSnapshot};
use genealog_store::codec::crc32;
use genealog_store::incremental::{apply, delta_base_epoch, diff, is_delta};
use genealog_store::segment::{decode_frame, encode_record, scan, Record, RecordKind};
use genealog_workloads::types::{
    AccidentAlert, AnomalyAlert, BlackoutAlert, DailyConsumption, MeterReading, PositionReport,
    StoppedCarCount,
};

type Reading = (u32, i64);

// ---------------------------------------------------------------------------
// The three checks every value goes through
// ---------------------------------------------------------------------------

/// Round trip, truncation at every prefix, every single-bit flip.
fn check<T: Encode + Decode + PartialEq + Debug>(value: T) {
    let bytes = value.to_bytes();
    let mut reader = Reader::new(&bytes);
    assert_eq!(T::decode(&mut reader).as_ref(), Ok(&value));
    assert_eq!(
        reader.remaining(),
        0,
        "decode consumes exactly the encoding"
    );
    for cut in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..cut]).is_err(),
            "{value:?}: the {cut}-byte prefix of {} bytes must not decode",
            bytes.len()
        );
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        // A flipped payload bit legitimately decodes to another value; the
        // assertion is that decode *returns*, with a typed error or a value.
        let _: Result<T, CodecError> = T::from_bytes(&flipped);
    }
}

fn position(car_id: u32) -> PositionReport {
    PositionReport {
        car_id,
        speed: 0,
        pos: 42,
    }
}

#[test]
fn primitives_and_engine_ids() {
    check(0u8);
    check(513u16);
    check(70_000u32);
    check(u64::MAX);
    check(-42i64);
    check(true);
    check(false);
    check("hello ⚡".to_string());
    check(String::new());
    check(Option::<u32>::None);
    check(Some(9u32));
    check(vec![1u32, 2, 3]);
    check(vec!["a".to_string(), String::new()]);
    check((7u32,));
    check((7u32, -7i64));
    check((1u8, 2u16, 3u32));
    check((1u8, 2u16, 3u32, "four".to_string()));
    check(Timestamp::from_secs(120));
    check(TupleId::new(3, 99));
    assert_eq!(<()>::from_bytes(&().to_bytes()), Ok(()));
}

#[test]
fn op_kinds_and_their_tags() {
    let kinds = [
        OpKind::Source,
        OpKind::Map,
        OpKind::Multiplex,
        OpKind::Join,
        OpKind::Aggregate,
        OpKind::Remote,
    ];
    for (tag, kind) in kinds.into_iter().enumerate() {
        check(kind);
        assert_eq!(
            kind.to_bytes(),
            vec![tag as u8],
            "the tag table is a format"
        );
    }
    let err = OpKind::from_bytes(&[99]).unwrap_err();
    assert_eq!(
        err,
        CodecError::Tag {
            what: "OpKind",
            tag: 99
        }
    );
    assert!(err.to_string().contains("unknown OpKind"));
}

#[test]
fn workload_schemas() {
    check(position(7));
    check(StoppedCarCount {
        car_id: 7,
        count: 4,
        distinct_pos: 1,
        last_pos: 42,
    });
    check(AccidentAlert {
        pos: 10,
        stopped_cars: 2,
    });
    check(MeterReading {
        meter_id: 3,
        consumption: 11,
        hour_of_day: 0,
    });
    check(DailyConsumption {
        meter_id: 3,
        total: 264,
    });
    check(BlackoutAlert { zero_meters: 8 });
    check(AnomalyAlert {
        meter_id: 5,
        consumption_diff: 11_760,
    });
    for relay in [
        Q4Relay::Daily(DailyConsumption {
            meter_id: 3,
            total: 240,
        }),
        Q4Relay::Midnight(MeterReading {
            meter_id: 3,
            consumption: 10,
            hour_of_day: 0,
        }),
    ] {
        check(relay);
    }
    assert!(Q4Relay::from_bytes(&[7]).is_err());
}

#[test]
fn provenance_records() {
    check(UnfoldedEvent::<StoppedCarCount, PositionReport> {
        sink_ts: Timestamp::from_secs(60),
        sink_id: TupleId::new(1, 2),
        sink_data: StoppedCarCount {
            car_id: 1,
            count: 4,
            distinct_pos: 1,
            last_pos: 9,
        },
        origin_kind: OpKind::Remote,
        origin_ts: Timestamp::from_secs(30),
        origin_id: TupleId::new(0, 5),
        origin_data: None,
    });
    check(UpstreamEvent::<PositionReport> {
        sink_id: TupleId::new(0, 5),
        sink_ts: Timestamp::from_secs(30),
        origin_kind: OpKind::Source,
        origin_ts: Timestamp::from_secs(1),
        origin_id: TupleId::new(0, 1),
        origin_data: Some(position(1)),
    });
    check(SourceRecord::<MeterReading> {
        ts: Timestamp::from_hours(3),
        id: TupleId::new(2, 2),
        data: MeterReading {
            meter_id: 1,
            consumption: 10,
            hour_of_day: 3,
        },
    });
}

fn wire_tuple(i: u64) -> WireTuple<Reading> {
    WireTuple {
        ts: Timestamp::from_millis(i),
        stimulus: i * 3,
        tag: WireTag {
            id: TupleId::new(3, i),
            was_source: i.is_multiple_of(2),
        },
        data: (i as u32, -(i as i64)),
    }
}

#[test]
fn wire_frames_and_node_deployments() {
    check(wire_tuple(1).tag);
    check(wire_tuple(1));
    check(WireFrame::Tuples(vec![wire_tuple(1), wire_tuple(2)]));
    check(WireFrame::<Reading>::Tuples(Vec::new()));
    check(WireFrame::<Reading>::Watermark(Timestamp::from_secs(9)));
    check(WireFrame::<Reading>::Barrier(17));
    check(WireFrame::<Reading>::End);
    // End frames are a single tag byte and unknown tags are rejected.
    assert_eq!(WireFrame::<Reading>::End.to_bytes(), vec![2]);
    assert!(WireFrame::<Reading>::from_bytes(&[99]).is_err());

    for op in [
        ShardOpSpec::SumAggregate {
            size_ms: 1_000,
            slide_ms: 1_000,
        },
        ShardOpSpec::FilteredScaledSum {
            size_ms: 8_000,
            slide_ms: 4_000,
        },
    ] {
        check(op);
        check(NodeDeployment {
            group: "sum".into(),
            shards: vec![0, 2],
            total_shards: 3,
            first_instance: 1,
            fusion: true,
            op,
            checkpoint_interval: Some(5),
            restore_epoch: Some(3),
        });
    }
}

#[test]
fn segment_records() {
    check(Record {
        participant: "agg[1]".into(),
        epoch: 5,
        kind: RecordKind::Full,
        body: vec![1, 2, 3],
    });
    check(Record {
        participant: String::new(),
        epoch: u64::MAX,
        kind: RecordKind::Delta { base_epoch: 4 },
        body: Vec::new(),
    });
}

// ---------------------------------------------------------------------------
// Corrupt counts, trailing bytes
// ---------------------------------------------------------------------------

/// One sample of each kind, as a remote shard or `spe-node` ships them to the origin.
fn metric_samples() -> Vec<Sample> {
    let latency = Histogram::default();
    for v in [0u64, 5, 1500] {
        latency.record(v);
    }
    let sample = |name: &str, labels: &[(&str, &str)], value| Sample {
        name: name.into(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        value,
    };
    vec![
        sample(
            "genealog_operator_tuples_in_total",
            &[("operator", "sum")],
            SampleValue::Counter(36),
        ),
        sample(
            "genealog_source_barrier_epoch",
            &[("operator", "src"), ("shard", "1")],
            SampleValue::Gauge(3),
        ),
        sample(
            "genealog_sink_latency_ns",
            &[],
            SampleValue::Histogram(latency.snapshot()),
        ),
    ]
}

#[test]
fn metrics_frames() {
    check(metric_samples());
    check(Vec::<Sample>::new());
    // Lying lengths fail on the prefix alone: the sample count, and the bucket
    // count of a histogram (behind the count, the name, no labels and the tag).
    let histogram = metric_samples().split_off(2);
    let frame = histogram.to_bytes();
    let bucket_count_at = 4 + (4 + histogram[0].name.len()) + 4 + 1;
    for at in [0, bucket_count_at] {
        let mut lying = frame.clone();
        lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Vec::<Sample>::from_bytes(&lying).unwrap_err();
        assert!(matches!(err, CodecError::Length { .. }), "at {at}: {err:?}");
    }
    // A bucket count the bytes do back, but that no histogram of ours has.
    let oversized = HistogramSnapshot::from_parts(vec![0; 1025], 0, 0).to_bytes();
    assert!(matches!(
        HistogramSnapshot::from_bytes(&oversized),
        Err(CodecError::Invalid(_))
    ));
    let largest = HistogramSnapshot::from_parts(vec![0; 1024], 0, 0);
    assert_eq!(
        HistogramSnapshot::from_bytes(&largest.to_bytes()),
        Ok(largest)
    );
}

#[test]
fn corrupt_sequence_lengths_fail_on_the_prefix_alone() {
    // A length prefix claiming 4 billion elements in a 4-byte frame is rejected
    // before anything loops over it or reserves for it.
    let err = Vec::<u64>::from_bytes(&u32::MAX.to_le_bytes()).unwrap_err();
    assert!(matches!(err, CodecError::Length { .. }), "got {err:?}");
    assert!(err.to_string().contains("exceeds"), "got: {err}");
    // A plausible-but-wrong length still errors out on the missing element.
    let mut buf = Vec::new();
    2u32.encode(&mut buf);
    1u64.encode(&mut buf);
    assert!(matches!(
        Vec::<u64>::from_bytes(&buf),
        Err(CodecError::Truncated { .. })
    ));
    // The same holds for the entry and occurrence counts of a container.
    let mut container = ContainerWriter::new(0, 0).finish();
    let at = container.len() - 4;
    container[at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        parse_container(&container),
        Err(CodecError::Length { .. })
    ));
}

#[test]
fn values_read_from_the_front_of_a_frame_ignore_what_follows() {
    // `from_bytes` is what a Receive endpoint calls on a frame body: it reads one
    // value from the front, as the wire reader always did.
    let mut buf = Vec::new();
    7u32.encode(&mut buf);
    "x".to_string().encode(&mut buf);
    assert_eq!(u32::from_bytes(&buf), Ok(7));
    let mut reader = Reader::new(&buf);
    assert_eq!(u32::decode(&mut reader), Ok(7));
    assert_eq!(String::decode(&mut reader).as_deref(), Ok("x"));
    assert_eq!(reader.finish(), Ok(()));
}

// ---------------------------------------------------------------------------
// Window-state containers (GLWS) from both persisters
// ---------------------------------------------------------------------------

fn plain_store(n: u64) -> WindowStore<u32, Reading, ()> {
    let spec = WindowSpec::new(Duration::from_secs(4), Duration::from_secs(2)).unwrap();
    let mut store = WindowStore::new(spec);
    for i in 0..n {
        let t = Arc::new(GTuple::new(
            Timestamp::from_secs(i),
            100 + i,
            ((i % 2) as u32, i as i64 - 2),
            (),
        ));
        store.insert((i % 2) as u32, t);
    }
    store.close_up_to(Timestamp::from_secs(n.saturating_sub(3)));
    store
}

/// A leaf (`REMOTE`) occurrence, a unary (`MAP` over `SOURCE`) one and a binary
/// (`JOIN` of `SOURCE` and `REMOTE`) one.
fn gl_store() -> WindowStore<u32, Reading, GlMeta> {
    let spec = WindowSpec::new(Duration::from_secs(4), Duration::from_secs(4)).unwrap();
    let mut store = WindowStore::new(spec);
    let terminal = |i: u64, kind: OpKind| {
        Arc::new(GTuple::new(
            Timestamp::from_secs(i),
            10 + i,
            (i as u32, i as i64),
            GlMeta::leaf(kind, TupleId::new(7, i)),
        ))
    };
    let remote = terminal(0, OpKind::Remote);
    store.insert(0, Arc::clone(&remote));
    let s1 = terminal(1, OpKind::Source);
    let mapped = Arc::new(GTuple::new(
        s1.ts,
        s1.stimulus,
        (1u32, 10i64),
        GlMeta::unary(OpKind::Map, TupleId::new(9, 1), erase(&s1)),
    ));
    store.insert(1, mapped);
    let s2 = terminal(2, OpKind::Source);
    let joined = Arc::new(GTuple::new(
        s2.ts,
        s2.stimulus,
        (1u32, 20i64),
        GlMeta::binary(OpKind::Join, TupleId::new(9, 2), erase(&s2), erase(&remote)),
    ));
    store.insert(1, joined);
    store
}

fn plain_container(n: u64) -> Vec<u8> {
    WindowPersister::<u32, Reading, ()>::encode(&PlainWindowPersister, &plain_store(n).snapshot())
        .unwrap()
}

fn gl_persister() -> GlWindowPersister<u32, Reading, Reading> {
    GlWindowPersister::new()
}

/// The container checks shared by both persisters: byte-identical round trip,
/// every truncation and a trailing byte rejected, bit flips never panic.
fn check_container<M: 'static>(
    persister: &dyn WindowPersister<u32, Reading, M>,
    snapshot: &WindowStoreSnapshot<u32, Reading, M>,
) {
    let bytes = persister.encode(snapshot).unwrap();
    assert!(is_container(&bytes));
    let decoded = persister.decode(&bytes).unwrap();
    assert_eq!(decoded.buffered_tuples(), snapshot.buffered_tuples());
    assert_eq!(decoded.watermark(), snapshot.watermark());
    assert_eq!(decoded.late_tuples(), snapshot.late_tuples());
    // Re-encoding the decoded snapshot reproduces the exact bytes — what lets
    // incremental diffs treat restored and live state alike.
    assert_eq!(persister.encode(&decoded).unwrap(), bytes);

    for cut in 0..bytes.len() {
        assert!(parse_container(&bytes[..cut]).is_err(), "cut {cut}");
        assert!(persister.decode(&bytes[..cut]).is_none(), "cut {cut}");
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_eq!(
        parse_container(&trailing).unwrap_err(),
        CodecError::Trailing(1)
    );
    assert!(persister.decode(&trailing).is_none());
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = persister.decode(&flipped);
    }

    // Parsing and re-writing a container is the identity.
    let parsed = parse_container(&bytes).unwrap();
    let mut writer = ContainerWriter::new(parsed.watermark_ms, parsed.late_tuples);
    for entry in &parsed.entries {
        writer.entry(entry.start_ms, entry.key, &entry.occurrences);
    }
    assert_eq!(writer.finish(), bytes);
}

#[test]
fn plain_containers() {
    check_container(&PlainWindowPersister, &plain_store(20).snapshot());
}

#[test]
fn gl_containers() {
    check_container(&gl_persister(), &gl_store().snapshot());
}

#[test]
fn keys_and_occurrences_must_fill_their_framed_bytes() {
    let parsed_bytes = plain_container(6);
    let parsed = parse_container(&parsed_bytes).unwrap();
    let entry = &parsed.entries[0];
    // One stray byte behind the key, then behind an occurrence: the container
    // still parses (the framing is intact) but neither persister accepts it.
    let long_key = [entry.key, &[0]].concat();
    let long_occ = [entry.occurrences[0], &[0]].concat();
    for (key, occs) in [
        (&long_key[..], entry.occurrences.clone()),
        (entry.key, vec![&long_occ[..]]),
    ] {
        let mut writer = ContainerWriter::new(parsed.watermark_ms, parsed.late_tuples);
        writer.entry(entry.start_ms, key, &occs);
        let bytes = writer.finish();
        assert!(parse_container(&bytes).is_ok());
        assert!(
            WindowPersister::<u32, Reading, ()>::decode(&PlainWindowPersister, &bytes).is_none()
        );
        assert!(gl_persister().decode(&bytes).is_none());
    }
}

// ---------------------------------------------------------------------------
// Deltas (GLWD) and segment frames
// ---------------------------------------------------------------------------

#[test]
fn deltas_reject_truncation_trailing_bytes_and_survive_bit_flips() {
    let (prev, next) = (plain_container(5), plain_container(6));
    let delta = diff(&prev, 4, &next).unwrap();
    assert!(is_delta(&delta));
    assert_eq!(delta_base_epoch(&delta), Some(4));
    assert_eq!(apply(&prev, &delta).unwrap(), next);
    for cut in 0..delta.len() {
        assert!(apply(&prev, &delta[..cut]).is_none(), "cut {cut}");
    }
    let mut trailing = delta.clone();
    trailing.push(0);
    assert!(apply(&prev, &trailing).is_none());
    for bit in 0..delta.len() * 8 {
        let mut flipped = delta.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = apply(&prev, &flipped);
    }
}

#[test]
fn segment_frames_reject_truncation_bit_flips_and_trailing_payload() {
    let record = Record {
        participant: "agg[1]".into(),
        epoch: 5,
        kind: RecordKind::Delta { base_epoch: 4 },
        body: vec![9; 40],
    };
    let frame = encode_record(&record);
    assert_eq!(decode_frame(&frame, 0), Some((record.clone(), frame.len())));
    for cut in 0..frame.len() {
        assert!(decode_frame(&frame[..cut], 0).is_none(), "cut {cut}");
    }
    // The CRC covers the payload, the length prefix decides where it ends: no
    // single-bit flip anywhere in the frame yields a record.
    for bit in 0..frame.len() * 8 {
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(decode_frame(&flipped, 0).is_none(), "bit {bit}");
    }
    // A payload with a stray byte behind the record is corrupt even when its
    // checksum is right.
    let mut payload = record.to_bytes();
    payload.push(0);
    let mut framed = Vec::new();
    (payload.len() as u32).encode(&mut framed);
    crc32(&payload).encode(&mut framed);
    framed.extend_from_slice(&payload);
    assert!(decode_frame(&framed, 0).is_none());
    let outcome = scan(&framed);
    assert!(outcome.records.is_empty() && outcome.torn);
}

// ---------------------------------------------------------------------------
// Wire framing properties (formerly crates/distributed/tests/wire_roundtrip.rs)
// ---------------------------------------------------------------------------

type RawTuple = ((u64, u64), (u32, u64, bool), (u32, i64));

fn raw_wire_tuple(
    ((ts, stimulus), (origin, seq, was_source), (key, value)): RawTuple,
) -> WireTuple<Reading> {
    WireTuple {
        ts: Timestamp::from_millis(ts),
        stimulus,
        tag: WireTag {
            id: TupleId::new(origin, seq),
            was_source,
        },
        data: (key, value),
    }
}

fn raw_tuples(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawTuple>> {
    proptest::collection::vec(
        (
            (0u64..1 << 48, any::<u64>()),
            (any::<u32>(), any::<u64>(), any::<bool>()),
            (any::<u32>(), any::<i64>()),
        ),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WireTag` encode → decode identity for arbitrary ids and source flags.
    #[test]
    fn wire_tags_round_trip(origin in any::<u32>(), seq in any::<u64>(), was_source in any::<bool>()) {
        let tag = WireTag { id: TupleId::new(origin, seq), was_source };
        prop_assert_eq!(WireTag::from_bytes(&tag.to_bytes()), Ok(tag));
    }

    /// Batch frames (runs of tuples) encode → decode to the identical run, for any
    /// run length including the empty run.
    #[test]
    fn tuple_frames_round_trip(raw in raw_tuples(0..20)) {
        let frame = WireFrame::Tuples(raw.into_iter().map(raw_wire_tuple).collect());
        let decoded = WireFrame::<Reading>::from_bytes(&frame.to_bytes()).expect("decode");
        prop_assert_eq!(decoded, frame);
    }

    /// The Send operator's incremental frame builder produces byte-identical frames
    /// to encoding the equivalent `WireFrame::Tuples` value, so the builder cannot
    /// drift from the declarative codec.
    #[test]
    fn frame_builder_matches_declarative_encoding(raw in raw_tuples(1..20)) {
        let run: Vec<WireTuple<Reading>> = raw.into_iter().map(raw_wire_tuple).collect();
        let mut builder = TupleFrameBuilder::new();
        for t in &run {
            builder.push(t.ts, t.stimulus, t.tag, &t.data);
        }
        prop_assert_eq!(builder.len() as usize, run.len());
        let built = builder.take().expect("non-empty run");
        prop_assert!(builder.is_empty(), "take drains the builder");
        prop_assert_eq!(built, WireFrame::Tuples(run).to_bytes());
    }

    /// Watermark frames round-trip and are distinct from tuple frames.
    #[test]
    fn watermark_frames_round_trip(ts in 0u64..1 << 48) {
        let frame = WireFrame::<Reading>::Watermark(Timestamp::from_millis(ts));
        let decoded = WireFrame::<Reading>::from_bytes(&frame.to_bytes()).expect("decode");
        prop_assert_eq!(decoded, frame);
    }

    /// Random-truncated and randomly corrupted encodings of valid frames go
    /// through `WireFrame` decode without ever panicking: every strict prefix is
    /// a decode error, and a flipped byte either still parses (payload bytes) or
    /// errors out — there is no input that can crash the Receive path.
    #[test]
    fn truncated_and_corrupted_frames_decode_to_errors_not_panics(
        raw in raw_tuples(0..8),
        cut_pick in any::<u32>(),
        corrupt_pick in any::<u32>(),
        flip in any::<u8>(),
    ) {
        let run: Vec<WireTuple<Reading>> = raw.into_iter().map(raw_wire_tuple).collect();
        let bytes = WireFrame::Tuples(run).to_bytes();
        let cut = cut_pick as usize % bytes.len();
        prop_assert!(
            WireFrame::<Reading>::from_bytes(&bytes[..cut]).is_err(),
            "strict prefix of {cut}/{} bytes must be a decode error",
            bytes.len()
        );
        let mut corrupted = bytes.clone();
        let at = corrupt_pick as usize % corrupted.len();
        corrupted[at] ^= flip | 1;
        // Not asserted Ok or Err — a flipped payload byte legitimately decodes to
        // a different value. The assertion is that decode *returns*: a corrupt
        // length prefix must neither panic nor over-allocate.
        let _ = WireFrame::<Reading>::from_bytes(&corrupted);
    }

    /// What the tag carries — the REMOTE tagging rule under GeneaLog: a source
    /// tuple crossing the boundary stays `SOURCE` and keeps its sender-side id; a
    /// derived tuple becomes `REMOTE` but also keeps its sender-side id (the MU
    /// join key of Definition 6.4).
    #[test]
    fn remote_tagging_rule_for_source_vs_derived(seq in any::<u64>(), v in any::<u32>()) {
        let gl = GeneaLog::for_instance(3);
        let ctx = SourceContext { source_id: 0, seq, ts: Timestamp::from_secs(1) };
        let source: Arc<GTuple<u32, GlMeta>> =
            Arc::new(GTuple::new(ctx.ts, 0, v, gl.source_meta(&ctx, &v)));
        let derived: Arc<GTuple<u32, GlMeta>> =
            Arc::new(GTuple::new(ctx.ts, 0, v, gl.map_meta(&source)));

        let source_tag = gl.wire_tag(&source);
        prop_assert!(source_tag.was_source);
        prop_assert_eq!(source_tag.id, source.meta.id);
        let derived_tag = gl.wire_tag(&derived);
        prop_assert!(!derived_tag.was_source);
        prop_assert_eq!(derived_tag.id, derived.meta.id);

        // What a Receive operator materialises from those tags: SOURCE survives the
        // boundary, everything else re-materialises as REMOTE.
        let receiver = GeneaLog::for_instance(4);
        let from_source = receiver.remote_meta(&RemoteContext {
            id: source_tag.id, ts: source.ts, was_source: source_tag.was_source,
        });
        prop_assert_eq!(from_source.kind, OpKind::Source);
        prop_assert_eq!(from_source.id, source.meta.id);
        let from_derived = receiver.remote_meta(&RemoteContext {
            id: derived_tag.id, ts: derived.ts, was_source: derived_tag.was_source,
        });
        prop_assert_eq!(from_derived.kind, OpKind::Remote);
        prop_assert_eq!(from_derived.id, derived.meta.id);
    }
}

// ---------------------------------------------------------------------------
// Golden vectors, captured at the commit before the codecs were merged
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Two source tuples and their Map-derived tuples, tagged by GeneaLog's Send-side
/// rule and framed the way the Send operator frames a batch.
fn gl_frame() -> Vec<u8> {
    let gl = GeneaLog::for_instance(3);
    let mut builder = TupleFrameBuilder::new();
    for seq in 0..2u64 {
        let ctx = SourceContext {
            source_id: 1,
            seq,
            ts: Timestamp::from_secs(seq + 1),
        };
        let data: Reading = (seq as u32 + 7, -5 - seq as i64);
        let source: Arc<GTuple<Reading, GlMeta>> = Arc::new(GTuple::new(
            ctx.ts,
            1000 + seq,
            data,
            gl.source_meta(&ctx, &data),
        ));
        let derived: Arc<GTuple<Reading, GlMeta>> = Arc::new(GTuple::new(
            ctx.ts,
            2000 + seq,
            (data.0, data.1 * 2),
            gl.map_meta(&source),
        ));
        for t in [&source, &derived] {
            builder.push(t.ts, t.stimulus, gl.wire_tag(t), &t.data);
        }
    }
    builder.take().unwrap()
}

const GOLDEN_GL_FRAME: &str = concat!(
    "0004000000e803000000000000e8030000000000000300000000000000000000000107000000fbffffffffff",
    "ffffe803000000000000d0070000000000000300000001000000000000000007000000f6ffffffffffffffd0",
    "07000000000000e9030000000000000300000002000000000000000108000000faffffffffffffffd0070000",
    "00000000d1070000000000000300000003000000000000000008000000f4ffffffffffffff",
);

const GOLDEN_PLAIN_GLWS: &str = concat!(
    "474c575301b80b00000000000000000000000000000600000000000000000000000400000000000000020000",
    "001c0000000000000000000000640000000000000000000000feffffffffffffff1c000000d0070000000000",
    "00660000000000000000000000000000000000000000000000000000000400000001000000020000001c0000",
    "00e803000000000000650000000000000001000000ffffffffffffffff1c000000b80b000000000000670000",
    "0000000000010000000100000000000000d0070000000000000400000000000000020000001c000000d00700",
    "000000000066000000000000000000000000000000000000001c000000a00f00000000000068000000000000",
    "00000000000200000000000000d0070000000000000400000001000000020000001c000000b80b0000000000",
    "0067000000000000000100000001000000000000001c00000088130000000000006900000000000000010000",
    "000300000000000000a00f0000000000000400000000000000010000001c000000a00f000000000000680000",
    "0000000000000000000200000000000000a00f0000000000000400000001000000010000001c000000881300",
    "00000000006900000000000000010000000300000000000000",
);

const GOLDEN_GL_GLWS: &str = concat!(
    "474c575301000000000000000000000000000000000200000000000000000000000400000000000000010000",
    "002b00000000000000000000000a000000000000000000000000000000000000000507000000000000000000",
    "00000000000000000000000004000000010000000200000054000000e8030000000000000b00000000000000",
    "010000000a00000000000000010900000001000000000000000100070000000100000000000000e803000000",
    "0000000b00000000000000010000000100000000000000007d000000d0070000000000000c00000000000000",
    "010000001400000000000000030900000002000000000000000100070000000200000000000000d007000000",
    "0000000c00000000000000020000000200000000000000010507000000000000000000000000000000000000",
    "000a00000000000000000000000000000000000000",
);

const GOLDEN_GLWD: &str = concat!(
    "474c5744010400000000000000b80b0000000000000000000000000000060000000000000000000000040000",
    "0000000000000000000000000000040000000100000000d007000000000000040000000000000000d0070000",
    "0000000004000000010000000101000000010000001c00000088130000000000006900000000000000010000",
    "000300000000000000a00f000000000000040000000000000000a00f00000000000004000000010000000201",
    "0000001c00000088130000000000006900000000000000010000000300000000000000",
);

const GOLDEN_SEGMENT: &str = concat!(
    "f0000000706f07ff06006167675b315d0500000000000000010400000000000000d3000000474c5744010400",
    "000000000000b80b000000000000000000000000000006000000000000000000000004000000000000000000",
    "00000000000000040000000100000000d007000000000000040000000000000000d007000000000000040000",
    "00010000000101000000010000001c0000008813000000000000690000000000000001000000030000000000",
    "0000a00f000000000000040000000000000000a00f000000000000040000000100000002010000001c000000",
    "88130000000000006900000000000000010000000300000000000000",
);

/// Produced by `genealog_metrics::encode_samples` — the byte reader and writer the
/// metrics crate carried before its frames moved onto this codec — at the commit
/// before the move.
const GOLDEN_METRICS_FRAME: &str = concat!(
    "030000002100000067656e65616c6f675f6f70657261746f725f7475706c65735f696e5f746f74616c010000",
    "00080000006f70657261746f720300000073756d0024000000000000001d00000067656e65616c6f675f736f",
    "757263655f626172726965725f65706f636802000000080000006f70657261746f7203000000737263050000",
    "00736861726401000000310103000000000000001800000067656e65616c6f675f73696e6b5f6c6174656e63",
    "795f6e7300000000024100000001000000000000000000000000000000000000000000000001000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000001000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000300000000000000e105000000000000",
);

#[test]
fn golden_wire_frame_under_genealog() {
    let frame = gl_frame();
    assert_eq!(hex(&frame), GOLDEN_GL_FRAME);
    // And the frozen bytes still decode to the four tuples they were built from.
    match WireFrame::<Reading>::from_bytes(&frame).unwrap() {
        WireFrame::Tuples(run) => {
            assert_eq!(run.len(), 4);
            assert!(run[0].tag.was_source && !run[1].tag.was_source);
            assert_eq!(run[3].data, (8, -12));
        }
        other => panic!("expected a tuple frame, got {other:?}"),
    }
}

#[test]
fn golden_window_containers_from_both_persisters() {
    assert_eq!(hex(&plain_container(6)), GOLDEN_PLAIN_GLWS);
    let gl = gl_persister().encode(&gl_store().snapshot()).unwrap();
    assert_eq!(hex(&gl), GOLDEN_GL_GLWS);
}

#[test]
fn golden_delta_and_segment_record() {
    // The delta exercises all three entry modes: unchanged, appended, full.
    let delta = diff(&plain_container(5), 4, &plain_container(6)).unwrap();
    assert_eq!(hex(&delta), GOLDEN_GLWD);
    let frame = encode_record(&Record {
        participant: "agg[1]".into(),
        epoch: 5,
        kind: RecordKind::Delta { base_epoch: 4 },
        body: delta,
    });
    assert_eq!(hex(&frame), GOLDEN_SEGMENT);
}

#[test]
fn golden_metrics_frame() {
    let frame = metric_samples().to_bytes();
    assert_eq!(hex(&frame), GOLDEN_METRICS_FRAME);
    assert_eq!(Vec::<Sample>::from_bytes(&frame), Ok(metric_samples()));
}
