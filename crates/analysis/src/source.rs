//! Textual source checks for the `spe-lint` binary.
//!
//! Two rules, both cheap line scans so the lint stays dependency-free:
//!
//! - **no-direct-print** — engine crates must not write to the standard streams
//!   directly; runtime events go through the `Tracer` ring buffer (queryable,
//!   bounded, test-observable) instead of interleaving with benchmark output.
//!   `crates/bench` (the figure benches, whose job *is* terminal output)
//!   is exempt, and a line carrying a `spe-lint: allow` comment is skipped.
//! - **metric-naming** — every metric registered on a `MetricsRegistry` must
//!   use the `genealog_*` prefix so dashboards can scope a scrape to this
//!   engine. `crates/metrics` itself (which defines the registry and exercises
//!   it with throwaway names) is exempt.
//!
//! The needles are assembled at run time (`["print", "ln!("].concat()` and
//! friends) so the lint does not flag its own implementation when `spe-lint`
//! walks this crate.

/// Rule id for the direct standard-stream printing ban.
pub const RULE_NO_DIRECT_PRINT: &str = "no-direct-print";
/// Rule id for the `genealog_*` metric-naming convention.
pub const RULE_METRIC_NAMING: &str = "metric-naming";

/// Inline escape hatch: a line containing this comment is skipped by all rules.
pub const ALLOW_MARKER: &str = "spe-lint: allow";

/// One source-lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceViolation {
    /// Path of the offending file, as passed to [`check_file`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id ([`RULE_NO_DIRECT_PRINT`] or [`RULE_METRIC_NAMING`]).
    pub rule: &'static str,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl SourceViolation {
    /// Renders the violation as `file:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs both source rules over one file's contents. `path` is used for
/// reporting and for the per-crate exemptions, so pass it workspace-relative.
pub fn check_file(path: &str, contents: &str) -> Vec<SourceViolation> {
    let mut violations = Vec::new();
    // Assembled at run time so the lint does not flag its own needles; note
    // that the e-prefixed macro ends with the same token, so one needle finds
    // both and the preceding character classifies which.
    let print_needle: String = ["print", "ln!("].concat();
    let metric_needles: Vec<(String, &'static str)> =
        ["counter", "counter_fn", "gauge", "gauge_fn", "histogram"]
            .iter()
            .map(|m| ([".", m, "("].concat(), *m))
            .collect();
    let print_exempt = path.contains("crates/bench");
    let metric_exempt = path.contains("crates/metrics");

    let lines: Vec<&str> = contents.lines().collect();
    let mut in_block_comment = false;
    for (idx, &raw_line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let mut line = raw_line;
        if in_block_comment {
            match line.find("*/") {
                Some(end) => {
                    in_block_comment = false;
                    line = &line[end + 2..];
                }
                None => continue,
            }
        }
        // Strip a line comment tail (also covers whole-line `//` and `///`).
        let mut code = match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        };
        if let Some(start) = code.find("/*") {
            if !code[start..].contains("*/") {
                in_block_comment = true;
                code = &code[..start];
            }
        }
        if raw_line.contains(ALLOW_MARKER) {
            continue;
        }

        if !print_exempt {
            if let Some(pos) = code.find(print_needle.as_str()) {
                let stream = if pos > 0 && code.as_bytes()[pos - 1] == b'e' {
                    "stderr"
                } else {
                    "stdout"
                };
                let macro_name = if stream == "stderr" {
                    ["e", &print_needle[..print_needle.len() - 1]].concat()
                } else {
                    print_needle[..print_needle.len() - 1].to_string()
                };
                violations.push(SourceViolation {
                    file: path.to_string(),
                    line: line_no,
                    rule: RULE_NO_DIRECT_PRINT,
                    message: format!(
                        "`{macro_name}` writes to {stream} directly; engine crates \
                         report through `Tracer::global().emit(..)` (ring-buffered, \
                         queryable) — only the figure benches in `crates/bench` print"
                    ),
                });
            }
        }

        if !metric_exempt {
            for (needle, method) in &metric_needles {
                let Some(pos) = code.find(needle.as_str()) else {
                    continue;
                };
                // The metric name is the string literal right after the call —
                // either on the same line or (rustfmt-wrapped) leading the next
                // line. Dynamic names (a variable argument) cannot be checked
                // textually and are skipped.
                let same_line = code[pos + needle.len()..].trim_start();
                let literal = if let Some(rest) = same_line.strip_prefix('"') {
                    Some(rest)
                } else if same_line.is_empty() {
                    lines
                        .get(idx + 1)
                        .and_then(|next| next.trim_start().strip_prefix('"'))
                } else {
                    None
                };
                let Some(rest) = literal else { continue };
                let name: String = rest.chars().take_while(|&c| c != '"').collect();
                if !name.starts_with("genealog_") {
                    violations.push(SourceViolation {
                        file: path.to_string(),
                        line: line_no,
                        rule: RULE_METRIC_NAMING,
                        message: format!(
                            "metric `{name}` registered via `.{method}(..)` does not \
                             use the `genealog_` prefix; scoped scrapes rely on the \
                             naming convention"
                        ),
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    // Offending content is assembled at run time so these literals do not trip
    // the lint when `spe-lint` walks its own crate.
    fn print_stmt(prefix: &str) -> String {
        [prefix, "print", "ln!(\"hi\");"].concat()
    }

    fn metric_stmt(name: &str) -> String {
        ["registry.counter", "(\"", name, "\", &[]);"].concat()
    }

    #[test]
    fn flags_both_print_macros_with_the_right_stream() {
        let content = format!(
            "fn main() {{\n    {}\n    {}\n}}\n",
            print_stmt(""),
            print_stmt("e")
        );
        let v = check_file("crates/spe/src/demo.rs", &content);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rule, RULE_NO_DIRECT_PRINT);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("stdout"));
        assert!(v[1].message.contains("stderr"));
        assert!(v[1].render().starts_with("crates/spe/src/demo.rs:3:"));
    }

    #[test]
    fn bench_crate_comments_and_allow_marker_are_exempt() {
        let stmt = print_stmt("");
        assert!(check_file("crates/bench/src/lib.rs", &stmt).is_empty());
        let commented = format!("// {stmt}\n/* {stmt}\n{stmt}\n*/ fn f() {{}}\n");
        assert!(check_file("crates/spe/src/demo.rs", &commented).is_empty());
        let allowed = format!("{stmt} // {ALLOW_MARKER}: harness output\n");
        assert!(check_file("crates/spe/src/demo.rs", &allowed).is_empty());
    }

    #[test]
    fn flags_unprefixed_metric_names() {
        let bad = metric_stmt("queue_depth");
        let v = check_file("crates/spe/src/demo.rs", &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_METRIC_NAMING);
        assert!(v[0].message.contains("queue_depth"));
        let good = metric_stmt("genealog_queue_depth");
        assert!(check_file("crates/spe/src/demo.rs", &good).is_empty());
        assert!(check_file("crates/metrics/src/lib.rs", &bad).is_empty());
    }

    #[test]
    fn follows_rustfmt_wrapped_metric_calls_to_the_next_line() {
        let wrapped = ["registry.histogram", "(\n    \"depth\",\n    &[],\n);"].concat();
        let v = check_file("crates/spe/src/demo.rs", &wrapped);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`depth`"));
        let wrapped_good = [
            "registry.histogram",
            "(\n    \"genealog_depth\",\n    &[],\n);",
        ]
        .concat();
        assert!(check_file("crates/spe/src/demo.rs", &wrapped_good).is_empty());
        // A dynamic (variable) name cannot be checked textually.
        let dynamic = ["registry.counter", "(name, &[]);"].concat();
        assert!(check_file("crates/spe/src/demo.rs", &dynamic).is_empty());
    }
}
