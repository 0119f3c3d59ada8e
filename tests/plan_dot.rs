//! The plan renderer (`genealog_analysis::dot`) against recorded goldens: every
//! plan of the `spe-lint` suite (`genealog_repro::plans`) draws byte for byte as
//! `tests/golden/{plan}.physical.dot` from its lowered facts and, where it was
//! declared on the logical builder, as `tests/golden/{plan}.logical.dot` from the
//! logical facts the planner snapshotted before lowering.

use genealog_analysis::dot;
use genealog_repro::plans;

/// `(plan, physical golden, logical golden)`, one row per suite plan.
const GOLDENS: [(&str, &str, Option<&str>); 6] = [
    (
        "quickstart",
        include_str!("golden/quickstart.physical.dot"),
        Some(include_str!("golden/quickstart.logical.dot")),
    ),
    (
        "parallel_aggregate",
        include_str!("golden/parallel_aggregate.physical.dot"),
        Some(include_str!("golden/parallel_aggregate.logical.dot")),
    ),
    (
        "smart_grid_q3",
        include_str!("golden/smart_grid_q3.physical.dot"),
        Some(include_str!("golden/smart_grid_q3.logical.dot")),
    ),
    (
        "linear_road_q1",
        include_str!("golden/linear_road_q1.physical.dot"),
        Some(include_str!("golden/linear_road_q1.logical.dot")),
    ),
    (
        "observability",
        include_str!("golden/observability.physical.dot"),
        None,
    ),
    (
        "checkpointed_aggregate",
        include_str!("golden/checkpointed_aggregate.physical.dot"),
        Some(include_str!("golden/checkpointed_aggregate.logical.dot")),
    ),
];

#[test]
fn every_suite_plan_renders_as_its_golden() {
    let analyzed = plans::analyze_all();
    assert_eq!(
        analyzed.len(),
        GOLDENS.len(),
        "one golden row per suite plan"
    );
    for (plan, (name, physical, logical)) in analyzed.iter().zip(GOLDENS) {
        assert_eq!(plan.name, name);
        assert_eq!(dot::physical(&plan.facts), physical, "{name}: physical DOT");
        let drawn = plan.facts.logical.as_ref().map(dot::logical);
        assert_eq!(drawn.as_deref(), logical, "{name}: logical DOT");
    }
}
