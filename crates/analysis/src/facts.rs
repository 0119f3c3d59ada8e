//! The plain-data snapshot of a lowered plan that the analyzer runs over.
//!
//! `genealog-spe` builds a [`PlanFacts`] from its lowered `Query` (the
//! `Query::plan_facts()` accessor) and, when the plan came through the logical
//! builder, attaches the pre-lowering [`LogicalFacts`] so annotation-level checks
//! (e.g. a `.with(..)` hint contradicting an explicit `.place(..)`) can see what
//! the user wrote before the planner consumed it. Keeping the snapshot free of
//! engine types is what keeps this crate dependency-free — and what lets the
//! seeded-defect tests of the resource pass perturb a fact (say, `host_cpus`)
//! and re-run [`analyze`](crate::analyze) without rebuilding a plan.

/// Everything the analyzer knows about one lowered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFacts {
    /// Provenance-system label: `"NP"`, `"GL"` or `"BL"`.
    pub provenance: String,
    /// Configured per-edge channel capacity, in elements.
    pub channel_capacity: usize,
    /// Whether the stateless-chain fusion pass is enabled.
    pub fusion: bool,
    /// Epoch-checkpoint interval in tuples, when checkpointing is configured.
    pub checkpoint_interval: Option<u64>,
    /// Whether the configured checkpoint store writes to a durable backend
    /// (`Some(false)` = volatile in-memory store, `None` = no checkpointing).
    pub checkpoint_durable: Option<bool>,
    /// Whether the plan publishes into a live metrics registry.
    pub metrics: bool,
    /// Number of CPUs of the host the plan will deploy on.
    pub host_cpus: usize,
    /// Number of provenance collectors attached to the plan.
    pub provenance_collectors: usize,
    /// The physical operator nodes, indexed by node id.
    pub nodes: Vec<NodeFacts>,
    /// The dataflow edges between nodes.
    pub edges: Vec<EdgeFacts>,
    /// The pre-lowering logical graph, when the plan came through the logical
    /// builder.
    pub logical: Option<LogicalFacts>,
}

impl PlanFacts {
    /// The name of node `id`, or `"?"` when out of range (diagnostics must never
    /// panic on malformed facts).
    pub fn node_name(&self, id: usize) -> &str {
        self.nodes.get(id).map_or("?", |n| n.name.as_str())
    }

    /// The kind label of node `id`, or `""` when out of range.
    pub fn node_kind(&self, id: usize) -> &str {
        self.nodes.get(id).map_or("", |n| n.kind.as_str())
    }

    /// Number of operator threads the plan spawns: its distinct chains (the parts
    /// of a fused chain share one thread).
    pub fn threads(&self) -> usize {
        let mut chains: Vec<usize> = self.nodes.iter().filter_map(|n| n.chain).collect();
        chains.sort_unstable();
        chains.dedup();
        chains.len()
    }

    /// Ids of the edges into `node`.
    pub fn incoming(&self, node: usize) -> impl Iterator<Item = &EdgeFacts> {
        self.edges.iter().filter(move |e| e.to == node)
    }

    /// Ids of the edges out of `node`.
    pub fn outgoing(&self, node: usize) -> impl Iterator<Item = &EdgeFacts> {
        self.edges.iter().filter(move |e| e.from == node)
    }
}

/// One physical operator node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFacts {
    /// Operator name (unique within the plan).
    pub name: String,
    /// Kind label (`"source"`, `"aggregate"`, `"shard-merge"`, a custom kind, ...),
    /// matching `NodeKind::label()` in the engine.
    pub kind: String,
    /// Shard-group name when the node is one instance of a parallel operator.
    pub group: Option<String>,
    /// Shard-group instance count (1 for plain operators).
    pub instances: usize,
    /// True for instance-boundary endpoints (Send/Receive operators): the node
    /// moves bytes to or from another SPE instance rather than processing
    /// tuples locally.
    pub remote: bool,
    /// The chain (thread) the node runs on, chains numbered in the order of
    /// their head nodes; `None` for a node no operator is installed on yet
    /// (deployment rejects it). A chain's parts join it as they are created, so
    /// their ids ascend from head to tail.
    pub chain: Option<usize>,
}

/// One dataflow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFacts {
    /// Producing node id.
    pub from: usize,
    /// Consuming node id.
    pub to: usize,
    /// Per-channel element budget allocated to this edge (shard-fan-out siblings
    /// each carry their 1/N share). 0 for channel-free fused edges.
    pub capacity: usize,
    /// Batch size of the producing output slot (0 for fused edges).
    pub batch_size: usize,
    /// True for the channel-free stage-to-stage edges inside a fused chain: no
    /// bounded queue exists there, so channel checks skip them (they still count
    /// as dataflow edges for reachability and cycles).
    pub fused: bool,
}

/// The pre-lowering logical graph (builder annotations included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogicalFacts {
    /// The declared logical operators, in declaration order.
    pub nodes: Vec<LogicalNodeFacts>,
    /// The `(producer, consumer)` streams between them, in declaration order.
    pub edges: Vec<(usize, usize)>,
}

/// One declared logical operator with its annotations as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalNodeFacts {
    /// Logical operator name.
    pub name: String,
    /// Logical kind label (`"source"`, `"aggregate"`, `"physical"` for escape
    /// hatches, ...).
    pub label: String,
    /// Resolved shard count requested via `.with(Parallelism::shards(n))`.
    pub requested_shards: Option<usize>,
    /// Total shard count of an explicit `.place(..)` annotation.
    pub placement_total: Option<usize>,
    /// How many of those placements are remote.
    pub placement_remote: usize,
    /// Whether `.keyed(..)` re-established a merge key on the operator's output.
    pub keyed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_tolerate_out_of_range_ids() {
        let facts = PlanFacts {
            provenance: "NP".into(),
            channel_capacity: 1024,
            fusion: true,
            checkpoint_interval: None,
            checkpoint_durable: None,
            metrics: true,
            host_cpus: 4,
            provenance_collectors: 0,
            nodes: vec![NodeFacts {
                name: "src".into(),
                kind: "source".into(),
                group: None,
                instances: 1,
                remote: false,
                chain: Some(0),
            }],
            edges: vec![],
            logical: None,
        };
        assert_eq!(facts.node_name(0), "src");
        assert_eq!(facts.node_name(7), "?");
        assert_eq!(facts.node_kind(7), "");
        assert_eq!(facts.incoming(0).count(), 0);
        assert_eq!(facts.threads(), 1);
    }
}
