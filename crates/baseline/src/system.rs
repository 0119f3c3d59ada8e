//! The baseline provenance system and the sink-side provenance reconstruction.

use std::sync::Arc;

use genealog_spe::provenance::{ProvenanceSystem, RemoteContext, SourceContext};
use genealog_spe::tuple::{GTuple, TupleData, TupleId};

use crate::meta::BlMeta;
use crate::store::{SourceStore, StoredSource};

/// The Ariadne-style baseline provenance system ("BL" in the evaluation).
///
/// Every instrumented operator copies/merges the variable-length annotations of its
/// inputs into its outputs; Sources additionally retain each source tuple in the
/// shared [`SourceStore`] so that sink-side reconstruction can recover the payloads.
#[derive(Debug, Clone, Default)]
pub struct AriadneBaseline {
    store: Arc<SourceStore>,
}

impl AriadneBaseline {
    /// Creates a baseline provenance system with an empty source store.
    pub fn new() -> Self {
        AriadneBaseline {
            store: SourceStore::new(),
        }
    }

    /// The store retaining every source tuple seen so far.
    pub fn store(&self) -> &Arc<SourceStore> {
        &self.store
    }
}

impl ProvenanceSystem for AriadneBaseline {
    type Meta = BlMeta;

    fn label(&self) -> &'static str {
        "BL"
    }

    fn source_meta<T: TupleData>(&self, ctx: &SourceContext, data: &T) -> BlMeta {
        let id = ctx.tuple_id();
        // The baseline must retain the source tuple itself: annotations only carry
        // ids, and the payloads are needed when provenance is materialised at the sink.
        self.store.insert(id, ctx.ts, data);
        BlMeta::source(id)
    }

    fn map_meta<I: TupleData>(&self, input: &Arc<GTuple<I, BlMeta>>) -> BlMeta {
        BlMeta::inherit(&input.meta)
    }

    fn multiplex_meta<I: TupleData>(&self, input: &Arc<GTuple<I, BlMeta>>) -> BlMeta {
        BlMeta::inherit(&input.meta)
    }

    fn join_meta<L: TupleData, R: TupleData>(
        &self,
        left: &Arc<GTuple<L, BlMeta>>,
        right: &Arc<GTuple<R, BlMeta>>,
    ) -> BlMeta {
        BlMeta::merge([&left.meta, &right.meta])
    }

    fn aggregate_meta<I: TupleData>(&self, window: &[Arc<GTuple<I, BlMeta>>]) -> BlMeta {
        BlMeta::merge(window.iter().map(|t| &t.meta))
    }

    fn remote_meta(&self, ctx: &RemoteContext) -> BlMeta {
        // Annotations crossing a process boundary are re-rooted at the remote tuple's
        // id; the distributed baseline additionally ships the whole source stream to
        // the provenance node (handled by the deployment, see `genealog-distributed`).
        BlMeta::source(ctx.id)
    }

    fn detach_meta(&self, meta: &BlMeta) -> BlMeta {
        // Baseline annotations are immutable id lists; a plain clone restores them.
        meta.clone()
    }
}

/// Reconstructs per-sink-tuple provenance from annotations plus the retained store.
#[derive(Debug, Clone)]
pub struct BaselineCollector {
    system: AriadneBaseline,
}

impl BaselineCollector {
    /// Creates a collector resolving annotations against the given baseline system.
    pub fn new(system: AriadneBaseline) -> Self {
        BaselineCollector { system }
    }

    /// Resolves the annotation of a sink tuple into the retained source tuples.
    ///
    /// Ids that are missing from the store (e.g. remote pseudo-sources) are skipped.
    pub fn resolve<T: TupleData, S: TupleData>(
        &self,
        sink_tuple: &Arc<GTuple<T, BlMeta>>,
    ) -> Vec<ResolvedSource<S>> {
        sink_tuple
            .meta
            .contributors
            .iter()
            .filter_map(|&id| {
                self.system.store().get(id).and_then(|stored| {
                    stored.payload::<S>().cloned().map(|data| ResolvedSource {
                        id,
                        ts: stored.ts,
                        data,
                    })
                })
            })
            .collect()
    }

    /// Raw stored records for a sink tuple's annotation (payload left type-erased).
    pub fn resolve_raw<T: TupleData>(
        &self,
        sink_tuple: &Arc<GTuple<T, BlMeta>>,
    ) -> Vec<(TupleId, StoredSource)> {
        sink_tuple
            .meta
            .contributors
            .iter()
            .filter_map(|&id| self.system.store().get(id).map(|s| (id, s)))
            .collect()
    }

    /// Number of source tuples currently retained by the baseline.
    pub fn retained_sources(&self) -> usize {
        self.system.store().len()
    }

    /// Approximate memory retained by the baseline store, in bytes.
    pub fn retained_bytes(&self) -> usize {
        self.system.store().size_bytes()
    }
}

/// A source tuple recovered from the baseline's store.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSource<S> {
    /// Id of the source tuple.
    pub id: TupleId,
    /// Timestamp of the source tuple.
    pub ts: genealog_spe::Timestamp,
    /// Payload of the source tuple.
    pub data: S,
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::operator::source::VecSource;
    use genealog_spe::prelude::*;

    #[test]
    fn annotations_accumulate_through_aggregate_and_filter() {
        let baseline = AriadneBaseline::new();
        let mut q = Query::new(baseline.clone());
        // (car, speed) every 30 s; car 1 stops 4 times.
        let reports: Vec<(u32, u32)> = vec![(2, 50), (1, 0), (1, 0), (1, 0), (1, 0)];
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
        let out = q.collecting_sink("sink", alerts);
        q.deploy().unwrap().wait().unwrap();

        let alerts = out.tuples();
        assert!(!alerts.is_empty());
        let first = &alerts[0];
        assert_eq!(
            first.meta.len(),
            4,
            "annotation lists the four stopped reports"
        );

        let collector = BaselineCollector::new(baseline);
        let sources: Vec<ResolvedSource<(u32, u32)>> = collector.resolve(first);
        assert_eq!(sources.len(), 4);
        assert!(sources.iter().all(|s| s.data == (1, 0)));
        // The baseline retained *all* five source tuples, including the car that never
        // contributed to any alert.
        assert_eq!(collector.retained_sources(), 5);
        assert!(collector.retained_bytes() > 0);
    }

    #[test]
    fn baseline_store_grows_with_noncontributing_tuples() {
        let baseline = AriadneBaseline::new();
        let mut q = Query::new(baseline.clone());
        let src = q.source(
            "numbers",
            VecSource::with_period((0..500i64).collect(), 1_000),
        );
        // Nothing ever passes the filter: no provenance is ever needed...
        let none = q.filter("never", src, |_| false);
        let out = q.collecting_sink("sink", none);
        q.deploy().unwrap().wait().unwrap();
        assert!(out.is_empty());
        // ...yet the baseline retained every single source tuple.
        assert_eq!(baseline.store().len(), 500);
    }

    #[test]
    fn join_annotations_merge_both_sides() {
        let baseline = AriadneBaseline::new();
        let mut q = Query::new(baseline.clone());
        let left = q.source("left", VecSource::with_period(vec![(1u32, 10i64)], 1_000));
        let right = q.source("right", VecSource::with_period(vec![(1u32, 20i64)], 1_000));
        let joined = q.join(
            "join",
            left,
            right,
            Duration::from_secs(60),
            |l: &(u32, i64)| l.0,
            |r: &(u32, i64)| r.0,
            |_: &(u32, i64), _: &(u32, i64)| true,
            |l: &(u32, i64), r: &(u32, i64)| (l.0, l.1 + r.1),
        );
        let out = q.collecting_sink("sink", joined);
        q.deploy().unwrap().wait().unwrap();
        let tuples = out.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].meta.len(), 2);
        let collector = BaselineCollector::new(baseline);
        let raw = collector.resolve_raw(&tuples[0]);
        assert_eq!(raw.len(), 2);
    }

    #[test]
    fn resolution_with_wrong_schema_yields_nothing() {
        let baseline = AriadneBaseline::new();
        let mut q = Query::new(baseline.clone());
        let src = q.source("numbers", VecSource::with_period(vec![5i64], 1_000));
        let out = q.collecting_sink("sink", src);
        q.deploy().unwrap().wait().unwrap();
        let collector = BaselineCollector::new(baseline);
        let wrong: Vec<ResolvedSource<String>> = collector.resolve(&out.tuples()[0]);
        assert!(wrong.is_empty());
        let right: Vec<ResolvedSource<i64>> = collector.resolve(&out.tuples()[0]);
        assert_eq!(right.len(), 1);
        assert_eq!(right[0].data, 5);
    }

    #[test]
    fn label_is_bl() {
        assert_eq!(AriadneBaseline::new().label(), "BL");
    }
}
