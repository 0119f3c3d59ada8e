//! # genealog-analysis — the deploy-time plan analyzer and plan renderer
//!
//! GeneaLog's provenance guarantee (and the engine's liveness) rests on plan-level
//! invariants that the runtime only discovers late: a batch budget that over-allocates
//! a channel is a one-time runtime warning, a fan-in input that never carries epoch
//! barriers stalls checkpointing silently, and a `raw` escape hatch can sever the
//! meta chain with no signal until a provenance query returns garbage. This crate
//! checks those invariants **statically, before deploy**.
//!
//! The crate is deliberately dependency-free: the engine lowers its plan into a
//! plain-data [`PlanFacts`] snapshot (`Query::plan_facts()` in `genealog-spe`) and
//! hands it to [`analyze`], which runs every analysis pass and returns a
//! [`Diagnostics`] report. Each finding carries a stable code (`GL0xx`), a severity,
//! an operator-path location and a human-readable message; the report renders as
//! plain text ([`Diagnostics::render`]) or JSON ([`Diagnostics::to_json`], served by
//! the control plane's `/analyze` endpoint).
//!
//! | Code | Severity | Pass | Meaning |
//! |-------|---------|------|---------|
//! | GL001 | warning | channels | batch size exceeds the per-channel element budget |
//! | GL002 | error | channels | bounded-channel cycle that can deadlock under back-pressure |
//! | GL011 | error | barriers | aligned fan-in input unreachable from a barrier-injecting source |
//! | GL012 | error | barriers | checkpointing configured but no barrier-injecting source exists |
//! | GL013 | warning | barriers | stateful operator or sink never reached by epoch barriers |
//! | GL014 | warning | barriers | multi-process deployment checkpoints into a volatile store |
//! | GL021 | warning | provenance | opaque custom operator on a path to a GL sink |
//! | GL022 | warning | provenance | GL plan with sinks but no provenance collector |
//! | GL031 | warning | resources | operator threads oversubscribe the host CPUs |
//! | GL032 | warning | resources | `.with(..)` shard hint overridden by a different `.place(..)` |
//! | GL033 | warning | resources | metrics label cardinality exceeds the series budget |
//! | GL034 | warning | resources | remote Send/Receive endpoints with live metrics disabled |
//!
//! The [`dot`] module is the one renderer of plans: it draws the same facts as
//! Graphviz DOT — the lowered plan (served at the control plane's
//! `/topology.dot`), the declared logical graph, and the plans of several SPE
//! instances as one deployment picture.
//!
//! The [`source`] module is the second half of the `spe-lint` binary: textual
//! checks over the workspace sources (no direct stdout/stderr printing in engine
//! crates, `genealog_*` metric naming).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod facts;
pub mod passes;
pub mod source;

pub use facts::{EdgeFacts, LogicalFacts, LogicalNodeFacts, NodeFacts, PlanFacts};

/// How the planner reacts to analyzer findings when lowering a logical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Error-severity findings reject the plan at lowering time; warnings are
    /// emitted on the global tracer.
    Deny,
    /// Every finding is emitted on the global tracer; lowering proceeds. The
    /// default.
    #[default]
    Warn,
    /// The analyzer does not run.
    Off,
}

/// Severity of one diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan deploys and runs, but something is off: a performance cliff, an
    /// unharvested capability, a hint that contradicts another.
    Warning,
    /// The plan can deadlock, stall or lose state at run time.
    Error,
}

impl Severity {
    /// The lowercase label used in rendered reports ("warning" / "error").
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding: a stable code, a severity, the operators involved and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`"GL001"`, ...); documented in the crate docs and
    /// asserted by the seeded-defect tests, so it never changes meaning.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Operator-path location: the operators involved, most significant first
    /// (e.g. `["sum.merge", "opaque"]` for a fan-in stalled by an opaque node).
    pub path: Vec<String>,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, path: Vec<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            path,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, path: Vec<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            path,
            message: message.into(),
        }
    }

    /// Renders the diagnostic as one line: `severity[code] at `a` -> `b`: message`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity.label(), self.code);
        if !self.path.is_empty() {
            let joined = self
                .path
                .iter()
                .map(|p| format!("`{p}`"))
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push_str(&format!(" at {joined}"));
        }
        out.push_str(&format!(": {}", self.message));
        out
    }
}

/// The findings of one analyzer run, ordered errors-first with a stable tiebreak.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Appends a finding (callers normally go through [`analyze`]).
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// The findings, errors first.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the analyzer found nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.len() - self.error_count()
    }

    /// True when at least one finding is an error (the [`AnalysisMode::Deny`]
    /// rejection condition).
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when a finding with `code` is present (seeded-defect tests pin codes
    /// through this).
    pub fn has_code(&self, code: &str) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// The findings carrying `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.items.iter().filter(move |d| d.code == code)
    }

    /// Sorts errors before warnings, then by code and path, keeping the rendered
    /// report deterministic regardless of pass order.
    fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code).then_with(|| a.path.cmp(&b.path)))
        });
    }

    /// Renders the report as human-readable text: one line per finding plus a
    /// summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "plan analysis: {} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Renders the report as a JSON document (the `/analyze` control endpoint
    /// payload).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        );
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let path = d
                .path
                .iter()
                .map(|p| format!("\"{}\"", json_escape(p)))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"path\":[{}],\"message\":\"{}\"}}",
                d.code,
                d.severity.label(),
                path,
                json_escape(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included); the control plane's `json::escape` is this function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs every analysis pass over `facts` and returns the ordered report.
pub fn analyze(facts: &PlanFacts) -> Diagnostics {
    let mut diags = Diagnostics::default();
    passes::check_channels(facts, &mut diags);
    passes::check_barriers(facts, &mut diags);
    passes::check_provenance(facts, &mut diags);
    passes::check_resources(facts, &mut diags);
    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostics {
        let mut d = Diagnostics::default();
        d.push(Diagnostic::warning(
            "GL001",
            vec!["a".into(), "b".into()],
            "batch too big",
        ));
        d.push(Diagnostic::error("GL002", vec!["x".into()], "cycle"));
        d.sort();
        d
    }

    #[test]
    fn errors_sort_first_and_counts_agree() {
        let d = sample();
        assert_eq!(d.len(), 2);
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.warning_count(), 1);
        assert!(d.has_errors());
        assert!(d.has_code("GL001"));
        assert!(!d.has_code("GL099"));
        assert_eq!(d.iter().next().unwrap().code, "GL002");
    }

    #[test]
    fn render_names_severity_code_and_path() {
        let d = sample();
        let text = d.render();
        assert!(text.contains("error[GL002] at `x`: cycle"));
        assert!(text.contains("warning[GL001] at `a` -> `b`: batch too big"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut d = Diagnostics::default();
        d.push(Diagnostic::warning(
            "GL001",
            vec!["a\"b".into()],
            "line\nbreak",
        ));
        let json = d.to_json();
        assert!(json.starts_with("{\"errors\":0,\"warnings\":1,"));
        assert!(json.contains("\"path\":[\"a\\\"b\"]"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let d = Diagnostics::default();
        assert!(d.is_empty());
        assert_eq!(
            d.to_json(),
            "{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
        assert!(d.render().contains("0 error(s), 0 warning(s)"));
    }
}
