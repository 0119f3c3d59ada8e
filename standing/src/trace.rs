//! In-memory spans recorded by the benchmark's own wrappers, at the boundaries
//! where the benchmark calls into a layer. Written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `store.put`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The engine run the span belongs to (spans of one run share it).
    pub run: u32,
}

/// Collects spans from any thread. A disabled recorder hands out guards that
/// record nothing, so callers need no second code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it (or dropping it) stamps the end time.
#[derive(Debug)]
pub struct OpenSpan<'a> {
    recorder: &'a Recorder,
    id: Option<SpanId>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that drops everything.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::enabled()
        }
    }

    /// Whether spans are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is a single push or a single field store, so the list is
        // valid even if a recording thread panicked.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: u32) -> OpenSpan<'_> {
        if !self.enabled {
            return OpenSpan {
                recorder: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        OpenSpan {
            recorder: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Records a span that already ended, from its measured endpoints.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.lock().push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            run,
        });
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }
}

impl OpenSpan<'_> {
    /// The span's id, to parent further spans on (`None` when not recording).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Moves the span's start to now. A span has to exist before anything can be
    /// parented on it; this lets it be opened early and started late.
    pub fn restart(&self) {
        if let Some(id) = self.id {
            let now = self.recorder.now_ns();
            self.recorder.lock()[id].start_ns = now;
        }
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end_ns = self.recorder.now_ns();
            self.recorder.lock()[id].end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval that its
/// child spans cover. Children may overlap one another (they run on different
/// threads), so their union is subtracted, not their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let (start, end) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut frontier = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// The trace document: every span with its self time, plus per-name totals.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let self_ns = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&self_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += own;
    }
    let summary = by_name
        .into_iter()
        .map(|(name, (count, total, own))| {
            Value::obj([
                ("name", Value::str(name)),
                ("count", Value::Num(count as f64)),
                ("total_ns", Value::Num(total as f64)),
                ("self_ns", Value::Num(own as f64)),
            ])
        })
        .collect();
    let rows = spans
        .iter()
        .zip(&self_ns)
        .enumerate()
        .map(|(id, (span, own))| {
            Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(span.name)),
                ("run", Value::Num(f64::from(span.run))),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                ("self_ns", Value::Num(*own as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("schema", Value::str("genealog-standing-trace/1")),
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("summary", Value::Arr(summary)),
        ("spans", Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("store.put", 10, 30, Some(0)),
            // Overlaps the first child: 20..50 adds only 30..50.
            span("store.put", 20, 50, Some(0)),
            // Sticks out of the parent: only 90..100 counts.
            span("distributed.send_frame", 90, 140, Some(0)),
            // A grandchild is charged to its own parent, not to the root.
            span("fsync", 12, 20, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (40 + 10));
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 50);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn recorder_nests_spans_and_a_disabled_one_keeps_nothing() {
        let recorder = Recorder::enabled();
        {
            let outer = recorder.open("bench.setup", None, 7);
            let _inner = recorder.open("spe.deploy", outer.id(), 7);
        }
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(recorder.durations_ns("spe.deploy").len(), 1);

        let off = Recorder::disabled();
        let guard = off.open("bench.run", None, 0);
        assert_eq!(guard.id(), None);
        drop(guard);
        off.record("store.put", None, 0, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_document_summarises_per_name() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("store.put", 10, 30, Some(0)),
            span("store.put", 40, 50, Some(0)),
        ];
        let doc = trace_document("chain_agg_durable", 3, &spans);
        let summary = doc.get("summary").and_then(Value::as_arr).unwrap();
        let put = summary
            .iter()
            .find(|row| row.get("name").and_then(Value::as_str) == Some("store.put"))
            .unwrap();
        assert_eq!(put.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(put.get("total_ns").and_then(Value::as_f64), Some(30.0));
        assert_eq!(doc.get("spans").and_then(Value::as_arr).unwrap().len(), 3);
    }
}
