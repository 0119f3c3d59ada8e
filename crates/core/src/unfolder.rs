//! The single-stream unfolder (SU, §5) and the multi-stream unfolder (MU, §6).
//!
//! *SU* duplicates a delivering stream with a Multiplex and applies the
//! `findProvenance` traversal in a (meta-aware) Map, producing the *unfolded stream*:
//! one tuple per (sink tuple, originating tuple) pair (Definition 5.1 / Figure 5B).
//!
//! *MU* stitches unfolded streams from different SPE instances together: tuples whose
//! originating tuple is already a `SOURCE` pass through, tuples whose originating
//! tuple is `REMOTE` are replaced by the matching tuples of the upstream instances'
//! unfolded streams, matched on the unique tuple id (Definition 6.4 / Figure 8).
//! Figure 8 draws it as Union + Multiplex + two Filters + Join + Union; here those
//! steps are one fan-in, the *stitch* ([`attach_stitch`]): the engine's Join rule
//! over `[derived, upstream_0 … upstream_n]` (`Query::stitch`), which lets a
//! `SOURCE`-origin event through as it is released and resolves a `REMOTE`-origin
//! one against the id-keyed window of upstream lineage. Still a standard operator,
//! which is the paper's challenge C3.
//!
//! Upstream lineage arrives in either of two forms ([`UpstreamLineage`]): one
//! [`UpstreamEvent`] per (delivering tuple, originating tuple) pair, the paper's
//! unfolded stream, or one [`LineageGroup`] per delivering tuple, which a remote
//! shard ships from a single traversal ([`LineageRef`]).

use std::fmt;
use std::marker::PhantomData;

use genealog_spe::codec::Encode;
use genealog_spe::provenance::ProvenanceSystem;
use genealog_spe::query::{Query, StreamRef};
use genealog_spe::tuple::{TupleData, TupleId};
use genealog_spe::{Duration, Timestamp};

use crate::meta::{erase, GlMeta, OpKind, ProvRef};
use crate::system::GeneaLog;
use crate::traversal::for_each_origin;

/// A snapshot of an originating source tuple: timestamp, id and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRecord<S> {
    /// Timestamp of the source tuple.
    pub ts: Timestamp,
    /// Unique id of the source tuple.
    pub id: TupleId,
    /// Payload of the source tuple.
    pub data: S,
}

genealog_spe::impl_codec_struct!(SourceRecord<S> { ts, id, data });

/// One element of an *unfolded stream* (Definition 5.1): the attributes of the
/// delivering (sink) tuple combined with one of its originating tuples.
///
/// The originating tuple is kept as a live [`ProvRef`], so within a process no payload
/// copying happens; [`UnfoldedTuple::to_event`] converts to the plain-data
/// [`UnfoldedEvent`] when the stream has to cross a process boundary.
#[derive(Clone)]
pub struct UnfoldedTuple<T> {
    /// Timestamp of the delivering (sink) tuple.
    pub sink_ts: Timestamp,
    /// Unique id of the delivering tuple.
    pub sink_id: TupleId,
    /// Payload of the delivering tuple.
    pub sink_data: T,
    /// Kind of the originating tuple (`SOURCE` or `REMOTE`).
    pub origin_kind: OpKind,
    /// Timestamp of the originating tuple (`tsO` in Definition 6.2).
    pub origin_ts: Timestamp,
    /// Id of the originating tuple (`IDO` in Definition 6.2).
    pub origin_id: TupleId,
    /// The originating tuple itself.
    pub origin: ProvRef,
}

impl<T: fmt::Debug> fmt::Debug for UnfoldedTuple<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnfoldedTuple")
            .field("sink_ts", &self.sink_ts)
            .field("sink_id", &self.sink_id)
            .field("sink_data", &self.sink_data)
            .field("origin_kind", &self.origin_kind)
            .field("origin_ts", &self.origin_ts)
            .field("origin_id", &self.origin_id)
            .field("origin", &self.origin.render())
            .finish()
    }
}

impl<T: TupleData> UnfoldedTuple<T> {
    /// Converts to a plain-data [`UnfoldedEvent`], downcasting the originating payload
    /// to the source schema `S` (the payload is `None` for `REMOTE` originating tuples
    /// or when the originating tuple has a different schema).
    pub fn to_event<S: TupleData>(&self) -> UnfoldedEvent<T, S> {
        UnfoldedEvent {
            sink_ts: self.sink_ts,
            sink_id: self.sink_id,
            sink_data: self.sink_data.clone(),
            origin_kind: self.origin_kind,
            origin_ts: self.origin_ts,
            origin_id: self.origin_id,
            origin_data: self.origin.payload::<S>().cloned(),
        }
    }
}

/// A plain-data unfolded tuple: the serialisable form of [`UnfoldedTuple`] used when
/// unfolded streams cross process boundaries (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct UnfoldedEvent<T, S> {
    /// Timestamp of the delivering (sink) tuple.
    pub sink_ts: Timestamp,
    /// Unique id of the delivering tuple.
    pub sink_id: TupleId,
    /// Payload of the delivering tuple.
    pub sink_data: T,
    /// Kind of the originating tuple (`SOURCE` or `REMOTE`).
    pub origin_kind: OpKind,
    /// Timestamp of the originating tuple.
    pub origin_ts: Timestamp,
    /// Id of the originating tuple.
    pub origin_id: TupleId,
    /// Payload of the originating tuple (`Some` for `SOURCE` tuples of schema `S`).
    pub origin_data: Option<S>,
}

genealog_spe::impl_codec_struct!(UnfoldedEvent<T, S> {
    sink_ts,
    sink_id,
    sink_data,
    origin_kind,
    origin_ts,
    origin_id,
    origin_data
});

impl<T: TupleData, S: TupleData> UnfoldedEvent<T, S> {
    /// Drops the delivering payload, keeping only what downstream MU operators need
    /// from an *upstream* unfolded stream.
    pub fn to_upstream(&self) -> UpstreamEvent<S> {
        UpstreamEvent {
            sink_id: self.sink_id,
            sink_ts: self.sink_ts,
            origin_kind: self.origin_kind,
            origin_ts: self.origin_ts,
            origin_id: self.origin_id,
            origin_data: self.origin_data.clone(),
        }
    }

    /// The originating tuple as a [`SourceRecord`], if its payload is present.
    pub fn source_record(&self) -> Option<SourceRecord<S>> {
        self.origin_data.clone().map(|data| SourceRecord {
            ts: self.origin_ts,
            id: self.origin_id,
            data,
        })
    }
}

/// An element of an upstream unfolded stream as consumed by the MU operator: the id of
/// the delivering tuple at the upstream instance plus its originating tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct UpstreamEvent<S> {
    /// Id the delivering tuple had at the upstream instance (`ID`, the MU's key).
    pub sink_id: TupleId,
    /// Timestamp of the delivering tuple at the upstream instance.
    pub sink_ts: Timestamp,
    /// Kind of the originating tuple.
    pub origin_kind: OpKind,
    /// Timestamp of the originating tuple.
    pub origin_ts: Timestamp,
    /// Id of the originating tuple.
    pub origin_id: TupleId,
    /// Payload of the originating tuple.
    pub origin_data: Option<S>,
}

genealog_spe::impl_codec_struct!(UpstreamEvent<S> {
    sink_id,
    sink_ts,
    origin_kind,
    origin_ts,
    origin_id,
    origin_data
});

/// One originating tuple of a [`LineageGroup`].
#[derive(Debug, Clone, PartialEq)]
pub struct OriginRecord<S> {
    /// Kind of the originating tuple (`SOURCE` or `REMOTE`).
    pub kind: OpKind,
    /// Timestamp of the originating tuple.
    pub ts: Timestamp,
    /// Id of the originating tuple.
    pub id: TupleId,
    /// Payload of the originating tuple, when it has the source schema `S`.
    pub data: Option<S>,
}

genealog_spe::impl_codec_struct!(OriginRecord<S> { kind, ts, id, data });

/// The lineage of one delivering tuple at an upstream instance, shipped once per
/// delivered tuple: its id and every originating tuple of its contribution graph.
/// Carries what the [`UpstreamEvent`]s of that tuple would, without repeating the
/// delivering tuple per origin.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageGroup<S> {
    /// Id the delivering tuple had at the upstream instance (the MU's key).
    pub sink_id: TupleId,
    /// The originating tuples, in traversal order.
    pub origins: Vec<OriginRecord<S>>,
}

genealog_spe::impl_codec_struct!(LineageGroup<S> { sink_id, origins });

/// A [`LineageGroup`] borrowed from a traversal: encodes to the bytes of the group
/// whose origins carry the payloads downcast to `S`, without cloning an origin or a
/// payload.
pub struct LineageRef<'a, S> {
    sink_id: TupleId,
    origins: &'a [&'a ProvRef],
    schema: PhantomData<fn() -> S>,
}

impl<'a, S> LineageRef<'a, S> {
    /// The lineage of the delivering tuple `sink_id`, whose originating tuples are
    /// `origins` (as [`for_each_origin`] passed them).
    pub fn new(sink_id: TupleId, origins: &'a [&'a ProvRef]) -> Self {
        LineageRef {
            sink_id,
            origins,
            schema: PhantomData,
        }
    }
}

impl<S: TupleData + Encode> Encode for LineageRef<'_, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sink_id.encode(out);
        (self.origins.len() as u32).encode(out);
        for origin in self.origins {
            origin.kind().encode(out);
            origin.ts().encode(out);
            origin.id().encode(out);
            let data = origin.payload::<S>();
            data.is_some().encode(out);
            if let Some(data) = data {
                data.encode(out);
            }
        }
    }
}

/// Upstream lineage as the MU's stitch consumes it: keyed by the id of the
/// delivering tuple it describes, resolving to that tuple's source records.
pub trait UpstreamLineage<S>: TupleData {
    /// Id the delivering tuple had at the upstream instance (`ID`, the join key).
    fn delivering_id(&self) -> TupleId;

    /// Appends the originating tuples that carry a payload of schema `S`.
    fn push_sources(&self, sources: &mut Vec<SourceRecord<S>>);
}

impl<S: TupleData> UpstreamLineage<S> for UpstreamEvent<S> {
    fn delivering_id(&self) -> TupleId {
        self.sink_id
    }

    fn push_sources(&self, sources: &mut Vec<SourceRecord<S>>) {
        if let Some(data) = &self.origin_data {
            sources.push(SourceRecord {
                ts: self.origin_ts,
                id: self.origin_id,
                data: data.clone(),
            });
        }
    }
}

impl<S: TupleData> UpstreamLineage<S> for LineageGroup<S> {
    fn delivering_id(&self) -> TupleId {
        self.sink_id
    }

    fn push_sources(&self, sources: &mut Vec<SourceRecord<S>>) {
        sources.extend(self.origins.iter().filter_map(|origin| {
            let data = origin.data.clone()?;
            Some(SourceRecord {
                ts: origin.ts,
                id: origin.id,
                data,
            })
        }));
    }
}

/// Attaches a single-stream unfolder (SU) to `input`.
///
/// Returns `(passthrough, unfolded)`: the first stream is the exact copy of the input
/// (`SO` in Figure 5) to be connected to the original downstream operator or Sink; the
/// second is the unfolded stream `U` carrying one tuple per (delivering tuple,
/// originating tuple) pair.
pub fn attach_unfolder<T: TupleData>(
    q: &mut Query<GeneaLog>,
    name: &str,
    input: StreamRef<T, GlMeta>,
) -> (StreamRef<T, GlMeta>, StreamRef<UnfoldedTuple<T>, GlMeta>) {
    let branches = q.multiplex(&format!("{name}-su-mux"), input, 2);
    let mut branches = branches.into_iter();
    let passthrough = branches.next().expect("multiplex produced two branches");
    let to_unfold = branches.next().expect("multiplex produced two branches");
    let unfolded = q.map_with_meta(&format!("{name}-su-unfold"), to_unfold, move |tuple| {
        let root = erase(tuple);
        // The tuple reaching this Map is the Multiplex copy created by the unfolder
        // itself; the *delivering* tuple whose identity downstream instances will see
        // (and that the paired Send operator transmits) is the Multiplex input, i.e.
        // this copy's U1 target. Record that id so the multi-stream unfolder's join
        // key (Definition 6.4) matches across the process boundary.
        let delivering_id = tuple
            .meta
            .u1
            .as_ref()
            .map(|origin| origin.id())
            .unwrap_or(tuple.meta.id);
        let mut unfolded = Vec::new();
        for_each_origin(&root, |origin| {
            unfolded.push(UnfoldedTuple {
                sink_ts: tuple.ts,
                sink_id: delivering_id,
                sink_data: tuple.data.clone(),
                origin_kind: origin.kind(),
                origin_ts: origin.ts(),
                origin_id: origin.id(),
                origin: origin.clone(),
            })
        });
        unfolded
    });
    (passthrough, unfolded)
}

/// Attaches the stitch of a multi-stream unfolder (MU): one fan-in, `{name}-mu`,
/// over the `derived` unfolded stream and the `upstreams` lineage streams
/// (Definition 6.4). A derived event whose originating tuple is a `SOURCE` is
/// resolved alone, `resolve(event, None)`, as it arrives; one whose originating
/// tuple is `REMOTE` is resolved with every upstream element that describes that
/// tuple (same id, within `upstream_window`), `resolve(event, Some(element))`,
/// whichever of the two arrives first. The output's lineage is the derived
/// event's: upstream elements are lookup state, not contributors.
///
/// `upstream_window` must cover the maximum time distance between a delivering tuple
/// at this instance and the upstream delivering tuples contributing to it — the paper
/// sets it to the sum of the window sizes of the stateful operators deployed at the
/// instance producing the derived stream.
///
/// # Panics
/// Panics if `upstreams` is empty.
pub fn attach_stitch<P, T, S, U, O, F>(
    q: &mut Query<P>,
    name: &str,
    derived: StreamRef<UnfoldedEvent<T, S>, P::Meta>,
    upstreams: Vec<StreamRef<U, P::Meta>>,
    upstream_window: Duration,
    resolve: F,
) -> StreamRef<O, P::Meta>
where
    P: ProvenanceSystem,
    T: TupleData,
    S: TupleData,
    U: UpstreamLineage<S>,
    O: TupleData,
    F: FnMut(&UnfoldedEvent<T, S>, Option<&U>) -> O + Send + 'static,
{
    assert!(
        !upstreams.is_empty(),
        "the MU operator requires at least one upstream unfolded stream"
    );
    q.stitch(
        &format!("{name}-mu"),
        derived,
        upstreams,
        upstream_window,
        |d: &UnfoldedEvent<T, S>| (d.origin_kind != OpKind::Source).then_some(d.origin_id),
        |u: &U| u.delivering_id(),
        resolve,
    )
}

/// Attaches a multi-stream unfolder (MU) combining a *derived* unfolded stream with
/// one or more *upstream* unfolded streams (Definition 6.4), resolving per pair: the
/// complete unfolded stream carries one event per (delivering tuple, source tuple).
/// Runs on the stitch of [`attach_stitch`].
///
/// `upstream_window` must cover the maximum time distance between a delivering tuple
/// at this instance and the upstream delivering tuples contributing to it — the paper
/// sets it to the sum of the window sizes of the stateful operators deployed at the
/// instance producing the derived stream.
///
/// # Panics
/// Panics if `upstreams` is empty.
pub fn attach_multi_unfolder<P, T, S>(
    q: &mut Query<P>,
    name: &str,
    derived: StreamRef<UnfoldedEvent<T, S>, P::Meta>,
    upstreams: Vec<StreamRef<UpstreamEvent<S>, P::Meta>>,
    upstream_window: Duration,
) -> StreamRef<UnfoldedEvent<T, S>, P::Meta>
where
    P: ProvenanceSystem,
    T: TupleData,
    S: TupleData,
{
    attach_stitch(
        q,
        name,
        derived,
        upstreams,
        upstream_window,
        |d: &UnfoldedEvent<T, S>, u: Option<&UpstreamEvent<S>>| match u {
            None => d.clone(),
            Some(u) => UnfoldedEvent {
                sink_ts: d.sink_ts,
                sink_id: d.sink_id,
                sink_data: d.sink_data.clone(),
                origin_kind: u.origin_kind,
                origin_ts: u.origin_ts,
                origin_id: u.origin_id,
                origin_data: u.origin_data.clone(),
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::operator::source::VecSource;
    use genealog_spe::provenance::NoProvenance;
    use genealog_spe::WindowSpec;

    #[test]
    fn su_unfolds_each_sink_tuple_into_its_sources() {
        // Zero-speed filter -> count aggregate -> threshold filter (a miniature Q1).
        let mut q = Query::new(GeneaLog::new());
        // Car 1 reports zero speed four times within 90 seconds (so the four reports
        // fit in one 120-second window), car 2 drives by once.
        let reports: Vec<(u32, u32)> = vec![
            (2, 55),
            (1, 0), // car 1, speed 0
            (1, 0),
            (1, 0),
            (1, 0),
        ];
        let src = q.source("reports", VecSource::with_period(reports, 30_000));
        let stopped = q.filter("speed0", src, |r: &(u32, u32)| r.1 == 0);
        let counts = q.aggregate(
            "count",
            stopped,
            WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30)).unwrap(),
            |r: &(u32, u32)| r.0,
            |w| (*w.key, w.len()),
        );
        let alerts = q.filter("alerts", counts, |c: &(u32, usize)| c.1 >= 4);
        let (passthrough, unfolded) = attach_unfolder(&mut q, "prov", alerts);
        let sink = q.collecting_sink("sink", passthrough);
        let prov_sink = q.collecting_sink("prov-sink", unfolded);
        q.deploy().unwrap().wait().unwrap();

        assert!(!sink.is_empty(), "the alert must reach the data sink");
        let unfolded = prov_sink.tuples();
        assert!(!unfolded.is_empty());
        // Every unfolded tuple originates from a SOURCE tuple of car 1 with speed 0.
        for u in &unfolded {
            assert_eq!(u.data.origin_kind, OpKind::Source);
            let payload = u.data.origin.payload::<(u32, u32)>().unwrap();
            assert_eq!(payload.0, 1);
            assert_eq!(payload.1, 0);
        }
        // The first alert (count == 4) is unfolded into exactly 4 source tuples.
        let first_sink_id = unfolded[0].data.sink_id;
        let first_group: Vec<_> = unfolded
            .iter()
            .filter(|u| u.data.sink_id == first_sink_id)
            .collect();
        assert_eq!(first_group.len(), 4);
    }

    #[test]
    fn unfolded_tuple_converts_to_typed_event() {
        let mut q = Query::new(GeneaLog::new());
        let src = q.source("numbers", VecSource::with_period(vec![5i64, 6], 1_000));
        let mapped = q.map_one("double", src, |v| v * 2);
        let (passthrough, unfolded) = attach_unfolder(&mut q, "prov", mapped);
        q.discard(passthrough);
        let prov_sink = q.collecting_sink("prov-sink", unfolded);
        q.deploy().unwrap().wait().unwrap();

        let events: Vec<UnfoldedEvent<i64, i64>> = prov_sink
            .tuples()
            .iter()
            .map(|t| t.data.to_event::<i64>())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].sink_data, 10);
        assert_eq!(events[0].origin_data, Some(5));
        assert!(events[0].source_record().is_some());
        // Downcasting to the wrong schema yields no payload.
        let wrong: UnfoldedEvent<i64, String> = prov_sink.tuples()[0].data.to_event::<String>();
        assert!(wrong.origin_data.is_none());
    }

    /// Runs the MU over one derived and one upstream stream (600 s window) and
    /// returns the complete unfolded stream.
    fn run_mu(
        derived: Vec<UnfoldedEvent<&'static str, i64>>,
        upstream: Vec<UpstreamEvent<i64>>,
    ) -> Vec<UnfoldedEvent<&'static str, i64>> {
        let mut q = Query::new(NoProvenance);
        let derived = q.source(
            "derived",
            VecSource::new(derived.into_iter().map(|e| (e.sink_ts, e)).collect()),
        );
        let upstream = q.source(
            "upstream",
            VecSource::new(upstream.into_iter().map(|e| (e.sink_ts, e)).collect()),
        );
        let out = attach_multi_unfolder(
            &mut q,
            "mu",
            derived,
            vec![upstream],
            Duration::from_secs(600),
        );
        let sink = q.collecting_sink("sink", out);
        q.deploy().unwrap().wait().unwrap();
        sink.tuples().iter().map(|t| t.data.clone()).collect()
    }

    #[test]
    fn mu_resolves_remote_tuples_and_passes_source_tuples_through() {
        // Simulate the provenance instance of a distributed deployment: the derived
        // stream contains one SOURCE-originating tuple and one REMOTE-originating
        // tuple; the upstream stream maps the remote id to two source records.
        let remote_id = TupleId::new(1, 100);
        let derived_events: Vec<UnfoldedEvent<&'static str, i64>> = vec![
            UnfoldedEvent {
                sink_ts: Timestamp::from_secs(60),
                sink_id: TupleId::new(2, 0),
                sink_data: "alert-a",
                origin_kind: OpKind::Source,
                origin_ts: Timestamp::from_secs(10),
                origin_id: TupleId::new(2, 5),
                origin_data: Some(42i64),
            },
            UnfoldedEvent {
                sink_ts: Timestamp::from_secs(61),
                sink_id: TupleId::new(2, 1),
                sink_data: "alert-b",
                origin_kind: OpKind::Remote,
                origin_ts: Timestamp::from_secs(20),
                origin_id: remote_id,
                origin_data: None,
            },
        ];
        let upstream_events: Vec<UpstreamEvent<i64>> = vec![
            UpstreamEvent {
                sink_id: remote_id,
                sink_ts: Timestamp::from_secs(20),
                origin_kind: OpKind::Source,
                origin_ts: Timestamp::from_secs(1),
                origin_id: TupleId::new(1, 1),
                origin_data: Some(7i64),
            },
            UpstreamEvent {
                sink_id: remote_id,
                sink_ts: Timestamp::from_secs(20),
                origin_kind: OpKind::Source,
                origin_ts: Timestamp::from_secs(2),
                origin_id: TupleId::new(1, 2),
                origin_data: Some(8i64),
            },
            UpstreamEvent {
                sink_id: TupleId::new(1, 999), // unrelated delivering tuple
                sink_ts: Timestamp::from_secs(21),
                origin_kind: OpKind::Source,
                origin_ts: Timestamp::from_secs(3),
                origin_id: TupleId::new(1, 3),
                origin_data: Some(9i64),
            },
        ];

        let outputs = run_mu(derived_events, upstream_events);
        assert_eq!(outputs.len(), 3);
        // alert-a passes through untouched.
        let a: Vec<_> = outputs
            .iter()
            .filter(|e| e.sink_data == "alert-a")
            .collect();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].origin_data, Some(42));
        // alert-b is replaced by the two upstream source records.
        let b: Vec<_> = outputs
            .iter()
            .filter(|e| e.sink_data == "alert-b")
            .collect();
        assert_eq!(b.len(), 2);
        let mut payloads: Vec<i64> = b.iter().filter_map(|e| e.origin_data).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![7, 8]);
        assert!(b.iter().all(|e| e.origin_kind == OpKind::Source));
    }

    #[test]
    fn mu_stitches_every_derived_event_sharing_a_remote_id_whichever_side_came_first() {
        // Two sink tuples were both derived from the remote tuple `shared`; its two
        // upstream events lie between them in time, so the first derived event is
        // already waiting in the join window when they arrive and the second one
        // finds them there. A third upstream event resolves nothing.
        let shared = TupleId::new(1, 100);
        let derived = |secs: u64, seq: u64, alert: &'static str| UnfoldedEvent {
            sink_ts: Timestamp::from_secs(secs),
            sink_id: TupleId::new(2, seq),
            sink_data: alert,
            origin_kind: OpKind::Remote,
            origin_ts: Timestamp::from_secs(40),
            origin_id: shared,
            origin_data: None::<i64>,
        };
        let upstream = |sink_id: TupleId, seq: u64, payload: i64| UpstreamEvent {
            sink_id,
            sink_ts: Timestamp::from_secs(40),
            origin_kind: OpKind::Source,
            origin_ts: Timestamp::from_secs(seq),
            origin_id: TupleId::new(1, seq),
            origin_data: Some(payload),
        };
        let derived_events = vec![derived(30, 0, "early"), derived(50, 1, "late")];
        let upstream_events = vec![
            upstream(shared, 1, 7),
            upstream(shared, 2, 8),
            upstream(TupleId::new(1, 999), 3, 9),
        ];

        let resolved: Vec<(&'static str, i64)> = run_mu(derived_events, upstream_events)
            .iter()
            .map(|e| (e.sink_data, e.origin_data.expect("resolved")))
            .collect();
        assert_eq!(
            resolved,
            vec![("early", 7), ("early", 8), ("late", 7), ("late", 8)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one upstream")]
    fn mu_requires_upstream_streams() {
        let mut q = Query::new(NoProvenance);
        let derived = q.source(
            "derived",
            VecSource::new(Vec::<(Timestamp, UnfoldedEvent<i64, i64>)>::new()),
        );
        let _ = attach_multi_unfolder::<_, i64, i64>(
            &mut q,
            "mu",
            derived,
            Vec::new(),
            Duration::from_secs(1),
        );
    }

    #[test]
    fn upstream_event_strips_the_delivering_payload() {
        let ev: UnfoldedEvent<String, i64> = UnfoldedEvent {
            sink_ts: Timestamp::from_secs(5),
            sink_id: TupleId::new(0, 1),
            sink_data: "alert".to_string(),
            origin_kind: OpKind::Source,
            origin_ts: Timestamp::from_secs(1),
            origin_id: TupleId::new(0, 0),
            origin_data: Some(3),
        };
        let up = ev.to_upstream();
        assert_eq!(up.sink_id, ev.sink_id);
        assert_eq!(up.origin_data, Some(3));
    }

    /// The lineage a remote shard ships straight from a traversal is byte for byte
    /// the group it decodes to, payloads of another schema encoded as absent; the
    /// group and its per-pair events resolve to the same source records.
    #[test]
    fn lineage_ref_encodes_as_its_lineage_group() {
        use genealog_spe::codec::Decode;
        use genealog_spe::provenance::{RemoteContext, SourceContext};
        use genealog_spe::tuple::GTuple;
        use std::sync::Arc;

        let gl = GeneaLog::for_instance(3);
        let ts = Timestamp::from_secs(4);
        let ctx = SourceContext {
            source_id: 0,
            seq: 0,
            ts,
        };
        let source = Arc::new(GTuple::new(ts, 0, 7i64, gl.source_meta(&ctx, &7i64)));
        let remote_meta = gl.remote_meta(&RemoteContext {
            id: TupleId::new(9, 1),
            ts,
            was_source: false,
        });
        let remote = Arc::new(GTuple::new(ts, 0, "other schema", remote_meta));
        let (source_ref, remote_ref) = (erase(&source), erase(&remote));
        let origins = [&source_ref, &remote_ref];
        let sink_id = TupleId::new(3, 42);

        let group = LineageGroup {
            sink_id,
            origins: vec![
                OriginRecord {
                    kind: OpKind::Source,
                    ts,
                    id: source.meta.id,
                    data: Some(7i64),
                },
                OriginRecord {
                    kind: OpKind::Remote,
                    ts,
                    id: TupleId::new(9, 1),
                    data: None,
                },
            ],
        };
        let bytes = LineageRef::<i64>::new(sink_id, &origins).to_bytes();
        assert_eq!(bytes, group.to_bytes());
        assert_eq!(LineageGroup::<i64>::from_bytes(&bytes), Ok(group.clone()));

        let mut grouped = Vec::new();
        group.push_sources(&mut grouped);
        let mut paired = Vec::new();
        for origin in &group.origins {
            let event = UpstreamEvent {
                sink_id,
                sink_ts: ts,
                origin_kind: origin.kind,
                origin_ts: origin.ts,
                origin_id: origin.id,
                origin_data: origin.data,
            };
            assert_eq!(event.delivering_id(), group.delivering_id());
            event.push_sources(&mut paired);
        }
        assert_eq!(grouped, paired);
        assert_eq!(
            grouped.len(),
            1,
            "only the origin with a payload is a source"
        );
    }
}
