//! The analysis passes: channel budgets/deadlock, barrier reachability,
//! provenance safety and resource sanity.
//!
//! Every pass is a pure function from [`PlanFacts`] to diagnostics appended onto a
//! shared [`Diagnostics`]; [`analyze`](crate::analyze) runs all four. Diagnostic
//! codes are stable API — tests and documentation pin them — so a pass may gain
//! new codes but never reuse or renumber existing ones.

use std::collections::HashSet;

use crate::facts::PlanFacts;
use crate::{Diagnostic, Diagnostics};

/// GL001: a producer batch exceeds the per-channel element budget, so the
/// one-batch floor over-allocates the channel.
pub const BATCH_OVER_ALLOCATION: &str = "GL001";
/// GL002: operators form a cycle of bounded channels that can deadlock under
/// back-pressure.
pub const CHANNEL_CYCLE: &str = "GL002";
/// GL011: an aligned fan-in input is unreachable from any barrier-injecting
/// source, so checkpoint alignment stalls there.
pub const BARRIER_STALL: &str = "GL011";
/// GL012: checkpointing is configured but no operator injects (or imports)
/// barriers.
pub const NO_BARRIER_SOURCE: &str = "GL012";
/// GL013: a stateful operator or sink is never reached by epoch barriers, so its
/// state is missing from every checkpoint.
pub const UNCHECKPOINTED_STATE: &str = "GL013";
/// GL014: a multi-process deployment checkpoints into a volatile in-memory
/// store, so a process crash loses exactly the state checkpointing was meant
/// to protect.
pub const VOLATILE_CHECKPOINT_STORE: &str = "GL014";
/// GL021: an opaque custom operator sits on a path to a GL sink; the analyzer
/// cannot verify it maintains the GeneaLog meta chain.
pub const OPAQUE_META_CHAIN: &str = "GL021";
/// GL022: the plan runs with GeneaLog provenance but attaches no collector, so
/// lineage is tracked yet never harvested.
pub const NO_PROVENANCE_COLLECTOR: &str = "GL022";
/// GL031: the plan spawns more operator threads than the host has CPUs.
pub const CPU_OVERSUBSCRIPTION: &str = "GL031";
/// GL032: a `.with(Parallelism::shards(n))` hint is overridden by an explicit
/// `.place(..)` of a different shard count.
pub const PLACEMENT_OVERRIDES_HINT: &str = "GL032";
/// GL033: the lowered plan registers more metric series than the per-plan budget.
pub const METRICS_CARDINALITY: &str = "GL033";
/// GL034: the plan ships tuples across instance boundaries but runs with live
/// metrics disabled, so link-health counters (dropped frames, remote registry
/// deltas) are invisible at the origin.
pub const REMOTE_WITHOUT_METRICS: &str = "GL034";

/// Metric-series budget above which GL033 fires: beyond this, per-edge label
/// cardinality dominates scrape cost and registry memory.
pub const METRICS_SERIES_BUDGET: usize = 512;

/// Operator kinds the engine itself instruments: they forward epoch barriers and
/// maintain the provenance meta chain. Anything else is an opaque custom operator.
const INSTRUMENTED_KINDS: &[&str] = &[
    "source",
    "map",
    "filter",
    "multiplex",
    "union",
    "aggregate",
    "join",
    "sink",
    "partition",
    "sharded-aggregate",
    "sharded-join",
    "shard-merge",
    "fused",
    // Distributed endpoints: barriers and GeneaLog metadata cross the wire as
    // `WireFrame`s, so Send/Receive behave like engine operators.
    "send",
    "receive",
];

/// Fan-ins that *align* their inputs on epoch barriers: a barrier must arrive on
/// every input before it is forwarded, so one barrier-free input stalls the
/// operator (and checkpointing) forever.
const ALIGNED_FAN_INS: &[&str] = &["union", "join", "sharded-join", "shard-merge"];

/// Stateful participants of a checkpoint: their state must be snapshotted for
/// recovery to be provenance-correct.
const CHECKPOINT_PARTICIPANTS: &[&str] = &[
    "aggregate",
    "sharded-aggregate",
    "join",
    "sharded-join",
    "sink",
];

fn is_instrumented(kind: &str) -> bool {
    INSTRUMENTED_KINDS.contains(&kind)
}

/// Kahn's algorithm over the dataflow edges. Returns `(order, leftover)`:
/// `order` is a topological order of the acyclic part, `leftover` the nodes
/// caught in (or strictly downstream of) a cycle.
fn topo_order(facts: &PlanFacts) -> (Vec<usize>, Vec<usize>) {
    let n = facts.nodes.len();
    let mut in_degree = vec![0usize; n];
    for e in &facts.edges {
        if e.to < n {
            in_degree[e.to] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(node) = queue.pop() {
        order.push(node);
        for e in facts.outgoing(node) {
            if e.to < n {
                in_degree[e.to] -= 1;
                if in_degree[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
    }
    let in_order: HashSet<usize> = order.iter().copied().collect();
    let leftover: Vec<usize> = (0..n).filter(|i| !in_order.contains(i)).collect();
    (order, leftover)
}

/// Extracts one representative cycle from the leftover set by walking successors
/// until a node repeats.
fn find_cycle(facts: &PlanFacts, leftover: &[usize]) -> Vec<usize> {
    let members: HashSet<usize> = leftover.iter().copied().collect();
    let Some(&start) = leftover.first() else {
        return Vec::new();
    };
    let mut path = vec![start];
    let mut seen: HashSet<usize> = [start].into();
    let mut current = start;
    loop {
        let Some(next) = facts
            .outgoing(current)
            .map(|e| e.to)
            .find(|t| members.contains(t))
        else {
            return path; // malformed leftover set; report what we walked
        };
        if let Some(pos) = path.iter().position(|&p| p == next) {
            return path[pos..].to_vec();
        }
        if !seen.insert(next) {
            return path;
        }
        path.push(next);
        current = next;
    }
}

/// Channel-budget / deadlock analysis (GL001, GL002).
///
/// GL001 is the plan-time promotion of the runtime's one-shot
/// `batch-budget-over-allocation` trace: every bounded channel whose producer
/// batch exceeds its element budget is named *before* deploy, per edge. GL002
/// flags cycles of bounded channels — impossible through the typed builder, but
/// expressible through the extension API — where back-pressure can fill every
/// queue in the loop and deadlock the query.
pub fn check_channels(facts: &PlanFacts, diags: &mut Diagnostics) {
    for e in facts.edges.iter().filter(|e| !e.fused) {
        if e.batch_size > e.capacity {
            diags.push(Diagnostic::warning(
                BATCH_OVER_ALLOCATION,
                vec![
                    facts.node_name(e.from).to_string(),
                    facts.node_name(e.to).to_string(),
                ],
                format!(
                    "batch size {} exceeds the channel's element budget of {}; the \
                     one-batch floor over-allocates this edge to {} buffered elements \
                     (lower the batch size or raise channel_capacity)",
                    e.batch_size, e.capacity, e.batch_size
                ),
            ));
        }
    }
    let (_, leftover) = topo_order(facts);
    if !leftover.is_empty() {
        let cycle = find_cycle(facts, &leftover);
        let names: Vec<String> = cycle
            .iter()
            .map(|&id| facts.node_name(id).to_string())
            .collect();
        let rendered = names.join(" -> ");
        diags.push(Diagnostic::error(
            CHANNEL_CYCLE,
            names,
            format!(
                "operators form a bounded-channel cycle ({rendered} -> back); under \
                 back-pressure every queue in the cycle can fill and deadlock the \
                 query — break the cycle or drain one leg through an unbounded sink"
            ),
        ));
    }
}

/// Barrier-reachability analysis (GL011, GL012, GL013). Runs only when
/// checkpointing is configured.
///
/// Epoch barriers originate at Sources (and arrive through Receive endpoints);
/// engine operators forward them, aligned fan-ins forward them only once *every*
/// input delivered one. The pass propagates a carries-barriers bit through the
/// graph and errors on any aligned fan-in input that can never deliver one — the
/// exact shape that stalls checkpointing silently at run time.
pub fn check_barriers(facts: &PlanFacts, diags: &mut Diagnostics) {
    if facts.checkpoint_interval.is_none() {
        return;
    }
    if facts.checkpoint_durable == Some(false) && facts.nodes.iter().any(|n| n.remote) {
        let remote: Vec<String> = facts
            .nodes
            .iter()
            .filter(|n| n.remote)
            .map(|n| n.name.clone())
            .collect();
        let listed = remote.join("`, `");
        diags.push(Diagnostic::warning(
            VOLATILE_CHECKPOINT_STORE,
            remote,
            format!(
                "the plan spans SPE instances (`{listed}`) but checkpoints into a \
                 volatile in-memory store: a worker-process crash loses every \
                 snapshot that recovery would need — back the checkpoint store \
                 with a durable backend (e.g. `genealog_store::DurableBackend`, \
                 or run workers with `spe-node --state-dir`)"
            ),
        ));
    }
    let (order, leftover) = topo_order(facts);
    if !leftover.is_empty() {
        return; // cyclic plans are already rejected by GL002
    }
    let injects = |id: usize| facts.node_kind(id) == "source";
    let imports =
        |id: usize| facts.node_kind(id) == "receive" && facts.incoming(id).next().is_none();
    if !(0..facts.nodes.len()).any(|id| injects(id) || imports(id)) {
        diags.push(Diagnostic::error(
            NO_BARRIER_SOURCE,
            Vec::new(),
            format!(
                "checkpointing is configured (interval {}) but no operator injects or \
                 imports epoch barriers: no Source and no root Receive endpoint \
                 exists, so no checkpoint will ever complete",
                facts.checkpoint_interval.unwrap_or(0)
            ),
        ));
        return;
    }
    // The carries-barriers bit, propagated in topological order: a node carries
    // barriers when it is an instrumented operator and every input delivers them.
    let mut carries = vec![false; facts.nodes.len()];
    for &id in &order {
        carries[id] = if injects(id) || imports(id) {
            true
        } else if !is_instrumented(facts.node_kind(id)) {
            false
        } else {
            let mut inputs = facts.incoming(id).peekable();
            inputs.peek().is_some() && facts.incoming(id).all(|e| carries[e.from])
        };
    }
    let mut stalled: HashSet<usize> = HashSet::new();
    for id in 0..facts.nodes.len() {
        if !ALIGNED_FAN_INS.contains(&facts.node_kind(id)) {
            continue;
        }
        for e in facts.incoming(id) {
            if carries[e.from] {
                continue;
            }
            stalled.insert(id);
            let origin = blockage_origin(facts, &carries, e.from);
            diags.push(Diagnostic::error(
                BARRIER_STALL,
                vec![
                    facts.node_name(id).to_string(),
                    facts.node_name(e.from).to_string(),
                ],
                format!(
                    "aligned fan-in `{}` will stall: its input from `{}` never \
                     delivers epoch barriers (blocked at `{}`), so barrier alignment \
                     — and with it every checkpoint — waits forever",
                    facts.node_name(id),
                    facts.node_name(e.from),
                    facts.node_name(origin),
                ),
            ));
        }
    }
    for (id, &carried) in carries.iter().enumerate() {
        if carried
            || stalled.contains(&id)
            || !CHECKPOINT_PARTICIPANTS.contains(&facts.node_kind(id))
        {
            continue;
        }
        diags.push(Diagnostic::warning(
            UNCHECKPOINTED_STATE,
            vec![facts.node_name(id).to_string()],
            format!(
                "`{}` ({}) is never reached by epoch barriers; its state will be \
                 missing from every checkpoint and recovery will silently drop it",
                facts.node_name(id),
                facts.node_kind(id)
            ),
        ));
    }
}

/// Walks upstream from a barrier-free node to the first node where the blockage
/// originates: one that does not carry barriers although all of its inputs do
/// (typically an opaque custom operator), or a barrier-free root.
fn blockage_origin(facts: &PlanFacts, carries: &[bool], from: usize) -> usize {
    let mut current = from;
    let mut hops = 0;
    while hops <= facts.nodes.len() {
        let blocked_input = facts
            .incoming(current)
            .map(|e| e.from)
            .find(|&p| !carries[p]);
        match blocked_input {
            Some(parent) => current = parent,
            None => return current,
        }
        hops += 1;
    }
    current
}

/// Provenance-safety analysis (GL021, GL022). Runs only in GL mode.
///
/// GeneaLog's guarantee holds only while every operator on a path to a GL sink
/// maintains the meta chain. Escape-hatch segments (`raw`, `raw_with`,
/// `extend_source`) lower to custom nodes the analyzer cannot see into; when one
/// sits upstream of a sink, lineage through it may silently sever. Separately, a
/// GL plan whose sinks have no collector pays the full metadata cost without ever
/// harvesting a contribution set.
pub fn check_provenance(facts: &PlanFacts, diags: &mut Diagnostics) {
    if facts.provenance != "GL" {
        return;
    }
    let sinks: Vec<usize> = (0..facts.nodes.len())
        .filter(|&id| facts.node_kind(id) == "sink")
        .collect();
    if sinks.is_empty() {
        return;
    }
    // Reverse reachability: which nodes have a path to some sink?
    let mut reaches = vec![false; facts.nodes.len()];
    let mut stack = sinks.clone();
    for &s in &sinks {
        reaches[s] = true;
    }
    while let Some(node) = stack.pop() {
        for e in facts.incoming(node) {
            if e.from < reaches.len() && !reaches[e.from] {
                reaches[e.from] = true;
                stack.push(e.from);
            }
        }
    }
    for (id, &reachable) in reaches.iter().enumerate() {
        let kind = facts.node_kind(id);
        if is_instrumented(kind) || !reachable {
            continue;
        }
        diags.push(Diagnostic::warning(
            OPAQUE_META_CHAIN,
            vec![facts.node_name(id).to_string()],
            format!(
                "custom operator `{}` (kind `{}`) sits on a path to a GL sink; the \
                 analyzer cannot verify it maintains the GeneaLog meta chain, so \
                 lineage through it may be severed — route provenance-relevant \
                 streams through engine operators or an instrumented extension",
                facts.node_name(id),
                kind
            ),
        ));
    }
    if facts.provenance_collectors == 0 {
        diags.push(Diagnostic::warning(
            NO_PROVENANCE_COLLECTOR,
            vec![facts.node_name(sinks[0]).to_string()],
            "the plan runs with GeneaLog provenance but attaches no provenance \
             collector: lineage metadata is built and retained on every tuple yet \
             never harvested — attach a provenance sink (e.g. \
             `logical_provenance_sink`) or run with NoProvenance"
                .to_string(),
        ));
    }
}

/// Resource-sanity analysis (GL031, GL032, GL033, GL034).
pub fn check_resources(facts: &PlanFacts, diags: &mut Diagnostics) {
    let threads = facts.threads();
    if threads > facts.host_cpus {
        diags.push(Diagnostic::warning(
            CPU_OVERSUBSCRIPTION,
            Vec::new(),
            format!(
                "the plan spawns {} operator threads on a host with {} CPU(s); \
                 heavy oversubscription adds context-switch latency on every hop — \
                 keep fusion on, reduce shard counts, or place shards remotely",
                threads, facts.host_cpus
            ),
        ));
    }
    if let Some(logical) = &facts.logical {
        for node in &logical.nodes {
            if let (Some(requested), Some(placed)) = (node.requested_shards, node.placement_total) {
                if requested != placed {
                    diags.push(Diagnostic::warning(
                        PLACEMENT_OVERRIDES_HINT,
                        vec![node.name.clone()],
                        format!(
                            "`.with(Parallelism::shards({requested}))` on `{}` is \
                             overridden by an explicit `.place(..)` of {placed} \
                             shard(s); the plan runs with {placed} — drop one of the \
                             two annotations",
                            node.name
                        ),
                    ));
                }
            }
        }
    }
    if !facts.metrics {
        let remote: Vec<String> = facts
            .nodes
            .iter()
            .filter(|n| n.remote)
            .map(|n| n.name.clone())
            .collect();
        if !remote.is_empty() {
            let listed = remote.join("`, `");
            diags.push(Diagnostic::warning(
                REMOTE_WITHOUT_METRICS,
                remote,
                format!(
                    "the plan crosses instance boundaries at `{listed}` but runs \
                     with `with_metrics(false)`: link drop counters and \
                     remote-instance registry deltas are silently discarded — \
                     enable live metrics or accept blind links"
                ),
            ));
        }
    }
    if facts.metrics {
        let channel_edges = facts.edges.iter().filter(|e| !e.fused).count();
        let logical_operators: HashSet<&str> = facts
            .nodes
            .iter()
            .map(|n| n.group.as_deref().unwrap_or(n.name.as_str()))
            .collect();
        // Two series per channel (stall counter + depth gauge) and two per
        // logical operator (tuples in/out); constant-cardinality series ignored.
        let series = 2 * channel_edges + 2 * logical_operators.len();
        if series > METRICS_SERIES_BUDGET {
            diags.push(Diagnostic::warning(
                METRICS_CARDINALITY,
                Vec::new(),
                format!(
                    "the lowered plan registers ~{series} metric series \
                     ({channel_edges} channels, {} logical operators), above the \
                     {METRICS_SERIES_BUDGET}-series budget; per-edge label \
                     cardinality dominates scrape cost — reduce fan-out or disable \
                     live metrics with `with_metrics(false)`",
                    logical_operators.len()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{EdgeFacts, LogicalFacts, LogicalNodeFacts, NodeFacts};

    fn node(name: &str, kind: &str) -> NodeFacts {
        NodeFacts {
            name: name.into(),
            kind: kind.into(),
            group: None,
            instances: 1,
            remote: false,
            chain: None,
        }
    }

    fn edge(from: usize, to: usize) -> EdgeFacts {
        EdgeFacts {
            from,
            to,
            capacity: 1024,
            batch_size: 32,
            fused: false,
        }
    }

    fn base(nodes: Vec<NodeFacts>, edges: Vec<EdgeFacts>) -> PlanFacts {
        PlanFacts {
            provenance: "NP".into(),
            channel_capacity: 1024,
            fusion: true,
            checkpoint_interval: None,
            checkpoint_durable: None,
            metrics: true,
            host_cpus: 1024,
            provenance_collectors: 0,
            nodes,
            edges,
            logical: None,
        }
    }

    fn run(facts: &PlanFacts) -> Diagnostics {
        crate::analyze(facts)
    }

    #[test]
    fn clean_linear_plan_is_quiet() {
        let facts = base(
            vec![
                node("src", "source"),
                node("flt", "filter"),
                node("out", "sink"),
            ],
            vec![edge(0, 1), edge(1, 2)],
        );
        assert!(run(&facts).is_empty());
    }

    #[test]
    fn gl001_fires_per_over_allocated_edge() {
        let mut facts = base(
            vec![node("src", "source"), node("out", "sink")],
            vec![edge(0, 1)],
        );
        facts.edges[0].capacity = 16;
        facts.edges[0].batch_size = 64;
        let report = run(&facts);
        assert!(report.has_code(BATCH_OVER_ALLOCATION));
        let d = report.with_code(BATCH_OVER_ALLOCATION).next().unwrap();
        assert_eq!(d.path, vec!["src".to_string(), "out".to_string()]);
        assert!(d.message.contains("64") && d.message.contains("16"));
        // Fused edges have no channel to over-allocate.
        facts.edges[0].fused = true;
        facts.edges[0].capacity = 0;
        facts.edges[0].batch_size = 0;
        assert!(!run(&facts).has_code(BATCH_OVER_ALLOCATION));
    }

    #[test]
    fn gl002_names_the_cycle() {
        let facts = base(
            vec![
                node("src", "source"),
                node("a", "custom-loop"),
                node("b", "custom-loop"),
                node("out", "sink"),
            ],
            vec![edge(0, 1), edge(1, 2), edge(2, 1), edge(2, 3)],
        );
        let report = run(&facts);
        assert!(report.has_errors());
        let d = report.with_code(CHANNEL_CYCLE).next().unwrap();
        assert!(d.path.contains(&"a".to_string()) && d.path.contains(&"b".to_string()));
        assert!(d.message.contains("deadlock"));
    }

    #[test]
    fn gl011_names_the_stalled_fan_in_and_the_blockage() {
        let mut facts = base(
            vec![
                node("left", "source"),
                node("right", "source"),
                node("opaque", "mystery"),
                node("both", "union"),
                node("out", "sink"),
            ],
            vec![edge(0, 3), edge(1, 2), edge(2, 3), edge(3, 4)],
        );
        facts.checkpoint_interval = Some(100);
        let report = run(&facts);
        let d = report.with_code(BARRIER_STALL).next().expect("GL011");
        assert_eq!(d.severity, crate::Severity::Error);
        assert_eq!(d.path[0], "both");
        assert!(d.message.contains("blocked at `opaque`"));
        // Without checkpointing the same plan draws no barrier diagnostics.
        facts.checkpoint_interval = None;
        assert!(!run(&facts).has_code(BARRIER_STALL));
    }

    #[test]
    fn gl012_fires_without_any_barrier_origin() {
        let mut facts = base(
            vec![node("feed", "replay"), node("out", "sink")],
            vec![edge(0, 1)],
        );
        facts.checkpoint_interval = Some(10);
        let report = run(&facts);
        assert!(report.has_code(NO_BARRIER_SOURCE));
        // A root Receive endpoint imports barriers from the remote instance.
        facts.nodes[0].kind = "receive".into();
        let report = run(&facts);
        assert!(!report.has_code(NO_BARRIER_SOURCE));
    }

    #[test]
    fn gl013_warns_on_uncheckpointed_state() {
        let mut facts = base(
            vec![
                node("feed", "receive"),
                node("gap", "mystery"),
                node("agg", "aggregate"),
                node("out", "sink"),
            ],
            vec![edge(0, 1), edge(1, 2), edge(2, 3)],
        );
        facts.checkpoint_interval = Some(10);
        let report = run(&facts);
        let codes: Vec<&str> = report.iter().map(|d| d.code).collect();
        assert!(codes.contains(&UNCHECKPOINTED_STATE));
        let flagged: Vec<&str> = report
            .with_code(UNCHECKPOINTED_STATE)
            .map(|d| d.path[0].as_str())
            .collect();
        assert_eq!(flagged, vec!["agg", "out"]);
    }

    #[test]
    fn gl014_flags_volatile_stores_only_across_instances() {
        let mut send = node("sum.send", "send");
        send.remote = true;
        let mut facts = base(
            vec![node("src", "source"), send, node("out", "sink")],
            vec![edge(0, 1), edge(1, 2)],
        );
        facts.checkpoint_interval = Some(10);
        facts.checkpoint_durable = Some(false);
        let report = run(&facts);
        let d = report
            .with_code(VOLATILE_CHECKPOINT_STORE)
            .next()
            .expect("GL014");
        assert_eq!(d.severity, crate::Severity::Warning);
        assert_eq!(d.path, vec!["sum.send".to_string()]);
        assert!(d.message.contains("--state-dir"));
        // A durable backend silences it; so does a purely local plan.
        facts.checkpoint_durable = Some(true);
        assert!(!run(&facts).has_code(VOLATILE_CHECKPOINT_STORE));
        facts.checkpoint_durable = Some(false);
        facts.nodes[1].remote = false;
        assert!(!run(&facts).has_code(VOLATILE_CHECKPOINT_STORE));
        // And without checkpointing there is nothing to lose.
        facts.nodes[1].remote = true;
        facts.checkpoint_interval = None;
        assert!(!run(&facts).has_code(VOLATILE_CHECKPOINT_STORE));
    }

    #[test]
    fn gl021_and_gl022_fire_only_in_gl_mode() {
        let mut facts = base(
            vec![
                node("src", "source"),
                node("opaque", "mystery"),
                node("out", "sink"),
            ],
            vec![edge(0, 1), edge(1, 2)],
        );
        assert!(!run(&facts).has_code(OPAQUE_META_CHAIN));
        facts.provenance = "GL".into();
        let report = run(&facts);
        assert!(report.has_code(OPAQUE_META_CHAIN));
        assert!(report.has_code(NO_PROVENANCE_COLLECTOR));
        // A collector silences GL022; the opaque node still warns.
        facts.provenance_collectors = 1;
        let report = run(&facts);
        assert!(report.has_code(OPAQUE_META_CHAIN));
        assert!(!report.has_code(NO_PROVENANCE_COLLECTOR));
    }

    #[test]
    fn gl021_ignores_opaque_nodes_off_the_sink_path() {
        let mut facts = base(
            vec![
                node("src", "source"),
                node("mux", "multiplex"),
                node("opaque", "mystery"),
                node("out", "sink"),
            ],
            // The opaque branch dead-ends; only the clean branch reaches the sink.
            vec![edge(0, 1), edge(1, 2), edge(1, 3)],
        );
        facts.provenance = "GL".into();
        facts.provenance_collectors = 1;
        assert!(!run(&facts).has_code(OPAQUE_META_CHAIN));
    }

    #[test]
    fn gl031_uses_thread_and_cpu_counts() {
        // Nine operators, each on a chain of its own, on four CPUs.
        let nodes = (0..9).map(|i| NodeFacts {
            chain: Some(i),
            ..node(&format!("op{i}"), "map")
        });
        let mut facts = base(nodes.collect(), (0..8).map(|i| edge(i, i + 1)).collect());
        facts.host_cpus = 4;
        let report = run(&facts);
        let d = report
            .with_code(CPU_OVERSUBSCRIPTION)
            .next()
            .expect("GL031");
        assert!(d.message.contains('9') && d.message.contains('4'));
        // Fused into four chains, they fit.
        for (i, node) in facts.nodes.iter_mut().enumerate() {
            node.chain = Some(i % 4);
        }
        assert!(!run(&facts).has_code(CPU_OVERSUBSCRIPTION));
    }

    #[test]
    fn gl032_flags_contradicting_annotations() {
        let mut facts = base(
            vec![node("src", "source"), node("out", "sink")],
            vec![edge(0, 1)],
        );
        facts.logical = Some(LogicalFacts {
            nodes: vec![LogicalNodeFacts {
                name: "sum".into(),
                label: "aggregate".into(),
                requested_shards: Some(4),
                placement_total: Some(2),
                placement_remote: 0,
                keyed: false,
            }],
            edges: vec![],
        });
        let report = run(&facts);
        let d = report
            .with_code(PLACEMENT_OVERRIDES_HINT)
            .next()
            .expect("GL032");
        assert_eq!(d.path, vec!["sum".to_string()]);
        assert!(d.message.contains('4') && d.message.contains('2'));
        // Agreement between the two annotations is fine.
        facts.logical.as_mut().unwrap().nodes[0].placement_total = Some(4);
        assert!(!run(&facts).has_code(PLACEMENT_OVERRIDES_HINT));
    }

    #[test]
    fn gl033_counts_channels_and_operators() {
        let mut nodes = vec![node("src", "source")];
        let mut edges = Vec::new();
        for i in 0..300 {
            nodes.push(node(&format!("op{i}"), "filter"));
            edges.push(edge(0, i + 1));
        }
        let mut facts = base(nodes, edges);
        let report = run(&facts);
        assert!(report.has_code(METRICS_CARDINALITY));
        facts.metrics = false;
        assert!(!run(&facts).has_code(METRICS_CARDINALITY));
    }

    #[test]
    fn gl034_flags_blind_remote_links() {
        let mut send = node("sum.send", "send");
        send.remote = true;
        let mut facts = base(
            vec![node("src", "source"), send, node("out", "sink")],
            vec![edge(0, 1), edge(1, 2)],
        );
        facts.metrics = false;
        let report = run(&facts);
        let d = report
            .with_code(REMOTE_WITHOUT_METRICS)
            .next()
            .expect("GL034");
        assert_eq!(d.severity, crate::Severity::Warning);
        assert_eq!(d.path, vec!["sum.send".to_string()]);
        assert!(d.message.contains("with_metrics(false)"));
        // With live metrics the same plan is quiet.
        facts.metrics = true;
        assert!(!run(&facts).has_code(REMOTE_WITHOUT_METRICS));
    }

    #[test]
    fn gl034_ignores_purely_local_plans() {
        let mut facts = base(
            vec![node("src", "source"), node("out", "sink")],
            vec![edge(0, 1)],
        );
        facts.metrics = false;
        assert!(!run(&facts).has_code(REMOTE_WITHOUT_METRICS));
    }
}
