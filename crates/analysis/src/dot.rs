//! Graphviz DOT renderings of plan facts: the one place a plan is drawn.
//!
//! * [`physical`] draws a lowered plan ([`PlanFacts`], from `Query::plan_facts()`
//!   in `genealog-spe`): shard-group members carry their shard count on the label
//!   (`×N`), exchange edges (out of a Partition, into a shard merge) are dashed,
//!   Send/Receive endpoints take the `cds` shape, and a fused chain of two or more
//!   parts is one boxed node listing them, its channel-free internal edges not
//!   drawn.
//! * [`logical`] draws the declared graph ([`LogicalFacts`], from
//!   `LogicalPlan::facts()`): one node per declared operator with its shard hint
//!   or placements and its `keyed` mark.
//! * [`instances`] draws several SPE instances' plans as one graph with one
//!   cluster per instance, making the process boundaries of a distributed
//!   deployment visible.
//!
//! Names and kind labels are escaped, so user-supplied ones holding quotes or
//! backslashes cannot break the output.

use std::collections::BTreeMap;

use crate::facts::{LogicalFacts, PlanFacts};

/// Renders a lowered plan as a `digraph query`.
pub fn physical(facts: &PlanFacts) -> String {
    let mut dot = String::from("digraph query {\n  rankdir=LR;\n");
    dot.push_str(&fragment(facts, "n"));
    dot.push_str("}\n");
    dot
}

/// Renders the declared graph of a logical plan as a `digraph logical`.
pub fn logical(facts: &LogicalFacts) -> String {
    let mut dot = String::from("digraph logical {\n  rankdir=LR;\n");
    for (id, node) in facts.nodes.iter().enumerate() {
        let mut hints = String::new();
        // Explicit placements override a `.with(..)` hint at lowering; the
        // rendered shard count reflects the same precedence.
        if let Some(total) = node.placement_total {
            hints.push_str(&format!(" \u{d7}{total}"));
            if node.placement_remote > 0 {
                hints.push_str(&format!(", {} remote", node.placement_remote));
            }
        } else if let Some(n) = node.requested_shards.filter(|&n| n > 1) {
            hints.push_str(&format!(" \u{d7}{n}"));
        }
        if node.keyed {
            hints.push_str(" keyed");
        }
        dot.push_str(&format!(
            "  l{id} [label=\"{}\\n({}{hints})\"];\n",
            escape(&node.name),
            escape(&node.label)
        ));
    }
    for (from, to) in &facts.edges {
        dot.push_str(&format!("  l{from} -> l{to};\n"));
    }
    dot.push_str("}\n");
    dot
}

/// Renders the plans of several SPE instances as one `digraph deployment`: each
/// `(label, facts)` entry becomes a dashed cluster, its node ids prefixed `i{k}_`
/// for the entry's index `k` so the instances cannot collide.
pub fn instances(instances: &[(&str, &PlanFacts)]) -> String {
    let mut dot = String::from("digraph deployment {\n  rankdir=LR;\n");
    for (i, (label, facts)) in instances.iter().enumerate() {
        dot.push_str(&format!(
            "  subgraph cluster_{i} {{\n  label=\"{}\";\n  style=dashed;\n",
            escape(label)
        ));
        dot.push_str(&fragment(facts, &format!("i{i}_")));
        dot.push_str("  }\n");
    }
    dot.push_str("}\n");
    dot
}

/// The node and edge statements of a lowered plan, every node id prefixed by
/// `prefix`.
fn fragment(facts: &PlanFacts, prefix: &str) -> String {
    let mut chains: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (id, node) in facts.nodes.iter().enumerate() {
        if let Some(chain) = node.chain {
            chains.entry(chain).or_default().push(id);
        }
    }
    // The parts of a fused chain all render through the chain's head, boxed in
    // the order of the chains' numbers, which is their heads' order.
    let mut drawn_as: Vec<Option<usize>> = vec![None; facts.nodes.len()];
    let mut dot = String::new();
    for parts in chains.values().filter(|parts| parts.len() > 1) {
        let head = parts[0];
        let names = parts
            .iter()
            .map(|&part| {
                drawn_as[part] = Some(head);
                escape(facts.node_name(part))
            })
            .collect::<Vec<_>>()
            .join(" \u{2192} ");
        // Every part of a sharded chain is a shard of the same width; an unsharded
        // chain holds a part outside any group (a Partition's or a shard merge's
        // group counts the streams on its far side).
        let width = parts.iter().map(|&p| facts.nodes[p].instances).min();
        dot.push_str(&format!(
            "  {prefix}{head} [shape=box label=\"{names}\\n(fused{})\"];\n",
            shards(width.unwrap_or(1))
        ));
    }
    for (id, node) in facts.nodes.iter().enumerate() {
        if drawn_as[id].is_some() {
            continue;
        }
        // Instance-boundary endpoints render as "cds" (a tagged box pointing off
        // the page): the stream leaves or enters the process here.
        let shape = if node.remote { "shape=cds " } else { "" };
        dot.push_str(&format!(
            "  {prefix}{id} [{shape}label=\"{}\\n({}{})\"];\n",
            escape(&node.name),
            escape(&node.kind),
            shards(node.instances)
        ));
    }
    for edge in &facts.edges {
        let (from, to) = (
            drawn_as[edge.from].unwrap_or(edge.from),
            drawn_as[edge.to].unwrap_or(edge.to),
        );
        if from == to {
            continue; // channel-free edge inside a fused chain
        }
        let exchange =
            facts.node_kind(edge.from) == "partition" || facts.node_kind(edge.to) == "shard-merge";
        let attrs = if exchange { " [style=dashed]" } else { "" };
        dot.push_str(&format!("  {prefix}{from} -> {prefix}{to}{attrs};\n"));
    }
    dot
}

/// The ` ×N` label suffix of a part running as `instances` shards.
fn shards(instances: usize) -> String {
    if instances > 1 {
        format!(" \u{d7}{instances}")
    } else {
        String::new()
    }
}

/// Escapes a name for a double-quoted DOT string.
fn escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{LogicalNodeFacts, NodeFacts};

    #[test]
    fn custom_kind_labels_are_escaped_like_names() {
        let facts = PlanFacts {
            provenance: "NP".into(),
            channel_capacity: 1024,
            fusion: false,
            checkpoint_interval: None,
            checkpoint_durable: None,
            metrics: true,
            host_cpus: 1,
            provenance_collectors: 0,
            nodes: vec![NodeFacts {
                name: "a\\b".into(),
                kind: "say \"hi\"".into(),
                group: None,
                instances: 1,
                remote: false,
                chain: Some(0),
            }],
            edges: vec![],
            logical: None,
        };
        assert!(physical(&facts).contains("n0 [label=\"a\\\\b\\n(say \\\"hi\\\")\"];"));
        let logical_facts = LogicalFacts {
            nodes: vec![LogicalNodeFacts {
                name: "src".into(),
                label: "\"raw\"".into(),
                requested_shards: None,
                placement_total: None,
                placement_remote: 0,
                keyed: false,
            }],
            edges: vec![],
        };
        assert!(logical(&logical_facts).contains("l0 [label=\"src\\n(\\\"raw\\\")\"];"));
    }
}
