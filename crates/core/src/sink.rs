//! Provenance collection at the edge of a query: grouping the unfolded stream back
//! into per-sink-tuple provenance assignments and persisting them.
//!
//! The evaluation (§7) computes the provenance of every sink tuple with the traversal
//! of Listing 1 and stores it on disk; [`ProvenanceCollector`] plays that role here —
//! it collects the unfolded stream produced by the single-stream unfolder, groups it
//! per sink tuple and can write it out or hand it to tests as typed records.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

use genealog_control::json;
use genealog_spe::logical::LogicalStream;
use genealog_spe::operator::sink::CollectedStream;
use genealog_spe::query::{Query, StreamRef};
use genealog_spe::tuple::{GTuple, TupleData, TupleId};
use genealog_spe::Timestamp;

use crate::meta::{GlMeta, ProvRef};
use crate::system::GeneaLog;
use crate::unfolder::{attach_unfolder, SourceRecord, UnfoldedTuple};

/// Groups per-(sink tuple, source tuple) items into one group per sink tuple, in the
/// order sink tuples first appear: `open` starts a group from its first item, `add`
/// folds every item (the first included) into its group.
pub fn group_by_sink<I, G>(
    items: impl IntoIterator<Item = I>,
    sink_id: impl Fn(&I) -> TupleId,
    open: impl Fn(&I) -> G,
    mut add: impl FnMut(&mut G, I),
) -> Vec<G> {
    let mut groups: Vec<G> = Vec::new();
    let mut index: HashMap<TupleId, usize> = HashMap::new();
    for item in items {
        let at = *index.entry(sink_id(&item)).or_insert_with(|| {
            groups.push(open(&item));
            groups.len() - 1
        });
        add(&mut groups[at], item);
    }
    groups
}

/// The JSON document the control endpoint's `/provenance/{sink_tuple_id}` route
/// serves: the sink tuple and its contribution set, each source as
/// `(id, timestamp, rendered payload)`.
pub fn contribution_document(
    sink_id: TupleId,
    sink_ts: Timestamp,
    sink_data: &impl std::fmt::Debug,
    sources: impl ExactSizeIterator<Item = (TupleId, Timestamp, String)>,
) -> String {
    json::object([
        (
            "sink",
            json::object([
                ("id", json::string(&sink_id.to_string())),
                ("ts_ms", sink_ts.as_millis().to_string()),
                ("data", json::string(&format!("{sink_data:?}"))),
            ]),
        ),
        ("source_count", sources.len().to_string()),
        (
            "sources",
            json::array(sources.map(|(id, ts, data)| {
                json::object([
                    ("id", json::string(&id.to_string())),
                    ("ts_ms", ts.as_millis().to_string()),
                    ("data", json::string(&data)),
                ])
            })),
        ),
    ])
}

/// The provenance of one sink tuple: the sink tuple's attributes plus every source
/// tuple that contributed to it.
#[derive(Debug, Clone)]
pub struct ProvenanceAssignment<T> {
    /// Timestamp of the sink tuple.
    pub sink_ts: Timestamp,
    /// Unique id of the sink tuple.
    pub sink_id: TupleId,
    /// Payload of the sink tuple.
    pub sink_data: T,
    /// The originating tuples (SOURCE, or REMOTE in distributed deployments).
    pub sources: Vec<ProvRef>,
}

impl<T: TupleData> ProvenanceAssignment<T> {
    /// Number of originating tuples.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// The assignment as the JSON document served by the control endpoint's
    /// `/provenance/{sink_tuple_id}` route.
    pub fn to_json(&self) -> String {
        contribution_document(
            self.sink_id,
            self.sink_ts,
            &self.sink_data,
            self.sources.iter().map(|s| (s.id(), s.ts(), s.render())),
        )
    }

    /// The originating payloads downcast to the source schema `S` (payloads of other
    /// schemas — e.g. `REMOTE` placeholders — are skipped).
    pub fn source_payloads<S: TupleData>(&self) -> Vec<S> {
        self.sources
            .iter()
            .filter_map(|s| s.payload::<S>().cloned())
            .collect()
    }

    /// The originating tuples as typed [`SourceRecord`]s.
    pub fn source_records<S: TupleData>(&self) -> Vec<SourceRecord<S>> {
        self.sources
            .iter()
            .filter_map(|s| {
                s.payload::<S>().cloned().map(|data| SourceRecord {
                    ts: s.ts(),
                    id: s.id(),
                    data,
                })
            })
            .collect()
    }
}

/// Collects the unfolded stream of a query and groups it per sink tuple.
#[derive(Debug, Clone)]
pub struct ProvenanceCollector<T> {
    collected: CollectedStream<UnfoldedTuple<T>, GlMeta>,
}

impl<T: TupleData> ProvenanceCollector<T> {
    /// Wraps an existing collection of unfolded tuples.
    pub fn from_collected(collected: CollectedStream<UnfoldedTuple<T>, GlMeta>) -> Self {
        ProvenanceCollector { collected }
    }

    /// Number of unfolded tuples collected (one per sink-tuple/source-tuple pair).
    pub fn unfolded_count(&self) -> usize {
        self.collected.len()
    }

    /// The assignment of one sink tuple, if its provenance has been collected. One
    /// request concerns one sink tuple: only its own unfolded tuples are copied and
    /// grouped, however much has been collected.
    pub fn assignment(&self, sink_id: TupleId) -> Option<ProvenanceAssignment<T>> {
        Self::group(self.collected.select(|t| t.data.sink_id == sink_id)).pop()
    }

    /// Resolves a control-endpoint provenance query: parses `sink_id` (`origin#seq`
    /// or `origin-seq`) and renders the tuple's contribution set as JSON. This is
    /// the [`genealog_control::ProvenanceQuery`] implementation, so a collector
    /// plugs directly into
    /// [`ControlPlane::with_provenance`](genealog_control::ControlPlane::with_provenance).
    pub fn contribution_json(&self, sink_id: &str) -> Option<String> {
        let id = TupleId::parse(sink_id)?;
        Some(self.assignment(id)?.to_json())
    }

    /// Groups the collected unfolded tuples into one assignment per sink tuple,
    /// preserving the order in which sink tuples were produced.
    pub fn assignments(&self) -> Vec<ProvenanceAssignment<T>> {
        Self::group(self.collected.tuples())
    }

    fn group(unfolded: Vec<Arc<GTuple<UnfoldedTuple<T>, GlMeta>>>) -> Vec<ProvenanceAssignment<T>> {
        group_by_sink(
            unfolded,
            |t| t.data.sink_id,
            |t| ProvenanceAssignment {
                sink_ts: t.data.sink_ts,
                sink_id: t.data.sink_id,
                sink_data: t.data.sink_data.clone(),
                sources: Vec::new(),
            },
            |assignment, t| assignment.sources.push(t.data.origin.clone()),
        )
    }

    /// Rough size, in bytes, of the textual provenance information (used to report the
    /// provenance-volume ratio of §7).
    pub fn estimated_bytes(&self) -> usize {
        self.collected
            .tuples()
            .iter()
            .map(|t| t.data.origin.render().len() + 32)
            .sum()
    }

    /// Writes the provenance of every sink tuple in a line-oriented textual format
    /// (`sink -> source` pairs), mirroring the evaluation's "stored on disk" setup.
    ///
    /// # Errors
    /// Propagates any I/O error from the writer.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        for assignment in self.assignments() {
            writeln!(
                writer,
                "sink {} ts={} data={:?} sources={}",
                assignment.sink_id,
                assignment.sink_ts,
                assignment.sink_data,
                assignment.source_count()
            )?;
            for source in &assignment.sources {
                writeln!(writer, "  <- {} {}", source.id(), source.render())?;
            }
        }
        Ok(())
    }
}

impl<T: TupleData> genealog_control::ProvenanceQuery for ProvenanceCollector<T> {
    fn contribution_set(&self, sink_id: &str) -> Option<String> {
        self.contribution_json(sink_id)
    }
}

/// Attaches a single-stream unfolder and a collecting provenance sink to `input`.
///
/// Returns the pass-through copy of the stream (to be connected to the query's
/// original Sink, or discarded) and the [`ProvenanceCollector`] receiving the
/// unfolded stream.
pub fn attach_provenance_sink<T: TupleData>(
    q: &mut Query<GeneaLog>,
    name: &str,
    input: StreamRef<T, GlMeta>,
) -> (StreamRef<T, GlMeta>, ProvenanceCollector<T>) {
    let (passthrough, unfolded) = attach_unfolder(q, name, input);
    let collected = q.collecting_sink(&format!("{name}-provenance-sink"), unfolded);
    q.note_provenance_collector();
    (passthrough, ProvenanceCollector::from_collected(collected))
}

/// [`attach_provenance_sink`] for the declarative logical-plan API: attaches the
/// single-stream unfolder and its collecting sink behind a
/// [`LogicalStream`], at lowering time.
///
/// Returns the pass-through logical stream (connect it to the plan's Sink, or
/// discard it) and the collector, which is populated once the lowered query runs.
pub fn logical_provenance_sink<T: TupleData>(
    stream: LogicalStream<GeneaLog, T>,
    name: &str,
) -> (LogicalStream<GeneaLog, T>, ProvenanceCollector<T>) {
    let collected: CollectedStream<UnfoldedTuple<T>, GlMeta> = CollectedStream::new();
    let copy = collected.clone();
    let owned = name.to_string();
    let passthrough = stream.raw(&format!("{name}-provenance"), move |q, s| {
        let (passthrough, unfolded) = attach_unfolder(q, &owned, s);
        q.collecting_sink_into(&format!("{owned}-provenance-sink"), unfolded, &copy);
        q.note_provenance_collector();
        passthrough
    });
    (passthrough, ProvenanceCollector::from_collected(collected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::operator::source::VecSource;
    use genealog_spe::{Duration, WindowSpec};

    /// A miniature Q1: reports (car, speed), alert when 3 zero-speed reports of the
    /// same car fall in one window.
    fn run_mini_q1() -> (Vec<ProvenanceAssignment<(u32, usize)>>, usize) {
        let mut q = Query::new(GeneaLog::new());
        let reports: Vec<(u32, u32)> = vec![(7, 0), (8, 12), (7, 0), (9, 0), (7, 0)];
        let src = q.source("reports", VecSource::with_period(reports, 30_000));
        let stopped = q.filter("speed0", src, |r: &(u32, u32)| r.1 == 0);
        let counts = q.aggregate(
            "count",
            stopped,
            WindowSpec::new(Duration::from_secs(150), Duration::from_secs(150)).unwrap(),
            |r: &(u32, u32)| r.0,
            |w| (*w.key, w.len()),
        );
        let alerts = q.filter("alerts", counts, |c: &(u32, usize)| c.1 >= 3);
        let (out, collector) = attach_provenance_sink(&mut q, "prov", alerts);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();
        let unfolded = collector.unfolded_count();
        (collector.assignments(), unfolded)
    }

    #[test]
    fn collector_groups_unfolded_tuples_per_sink_tuple() {
        let (assignments, unfolded) = run_mini_q1();
        assert_eq!(assignments.len(), 1, "exactly one alert (car 7)");
        let a = &assignments[0];
        assert_eq!(a.sink_data.0, 7);
        assert_eq!(a.source_count(), 3);
        assert_eq!(unfolded, 3);
        let payloads = a.source_payloads::<(u32, u32)>();
        assert_eq!(payloads.len(), 3);
        assert!(payloads.iter().all(|p| p.0 == 7 && p.1 == 0));
        let records = a.source_records::<(u32, u32)>();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn write_to_produces_one_line_per_source() {
        let (assignments, _) = run_mini_q1();
        let collector_output = {
            // Rebuild a collector-like output through the assignment API.
            let mut buf = Vec::new();
            for a in &assignments {
                writeln!(buf, "sink {}", a.sink_id).unwrap();
                for s in &a.sources {
                    writeln!(buf, "  <- {}", s.id()).unwrap();
                }
            }
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(collector_output.lines().count(), 1 + 3);
    }

    #[test]
    fn collector_write_to_and_size_estimate() {
        let mut q = Query::new(GeneaLog::new());
        let src = q.source("numbers", VecSource::with_period(vec![1i64, 2, 3], 1_000));
        let doubled = q.map_one("double", src, |v| v * 2);
        let (out, collector) = attach_provenance_sink(&mut q, "prov", doubled);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();

        assert_eq!(collector.assignments().len(), 3);
        assert!(collector.estimated_bytes() > 0);
        let mut buf = Vec::new();
        collector.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // One sink line plus one source line per sink tuple.
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("sources=1"));
    }

    #[test]
    fn wrong_schema_downcast_yields_empty_payloads() {
        let (assignments, _) = run_mini_q1();
        let payloads = assignments[0].source_payloads::<String>();
        assert!(payloads.is_empty());
    }
}
