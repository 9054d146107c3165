//! Finding/report types and the schema-versioned JSON export.
//!
//! The JSON document written to `results/lint.json` is versioned under
//! `"schema": "hoop-lint/5"` and fully deterministic: findings are reported
//! in file-walk order (sorted paths) with repo-relative paths, and the
//! per-rule count map enumerates every known rule (zeros included) so
//! downstream tooling never has to special-case missing keys.
//!
//! Schema history: `/1` predates the flow-sensitive analyzer; `/2` adds the
//! `commit-in-branch` / `shard-shared-mut` / `hook-coverage` count keys and
//! the `stale_allows` array (annotations that no longer suppress anything —
//! warnings, never failures); `/3` adds the `persist-in-loop-only` and
//! determinism-taint count keys and the `advisories` array (warning-severity
//! findings from the dual loop model — printed and exported, never gated);
//! `/4` drops the count keys of the six generic rules the compiler now
//! checks (`det-hash`, `wall-clock`, `thread-rng`, `par-iter`,
//! `unsafe-safety`, `forbid-unsafe`) and the `baseline` block; `/5` drops
//! the determinism-taint count key (each source it tracked is rejected by
//! `order-sensitive-iteration` or clippy, or no longer occurs).

use crate::rules::{rule_counts, RULE_IDS};

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (repo-relative when scanned via `lint_paths`).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Rule identifier (`persist-order`, `hook-coverage`, ...).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.snippet
        )
    }
}

/// An explicitly allowed (annotated) exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// File containing the annotation.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// Rule that was suppressed (for a stale allow, the name the marker
    /// gives, which need not be a rule).
    pub rule: String,
}

/// Result of scanning a set of files.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Violations (empty for a clean tree).
    pub findings: Vec<Finding>,
    /// Warning-severity findings (`persist-in-loop-only`): printed and
    /// exported, but never a failure.
    pub advisories: Vec<Finding>,
    /// Annotated exceptions that suppressed a finding.
    pub allows: Vec<Allow>,
    /// `lint:allow` annotations that suppressed nothing (stale — warned
    /// about, never a failure, so they can be cleaned up deliberately).
    pub stale_allows: Vec<Allow>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
        self.advisories.extend(other.advisories);
        self.allows.extend(other.allows);
        self.stale_allows.extend(other.stale_allows);
        self.files_scanned += other.files_scanned;
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Serializes a report as the `hoop-lint/5` JSON document.
pub fn to_json(report: &LintReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"hoop-lint/5\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str("  \"counts\": {");
    let counts = rule_counts(report);
    for (k, rule) in RULE_IDS.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {}",
            rule,
            counts.get(rule).copied().unwrap_or(0)
        ));
    }
    s.push_str("\n  },\n");
    s.push_str("  \"findings\": [");
    for (k, f) in report.findings.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"snippet\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.col,
            f.rule,
            json_escape(&f.snippet)
        ));
    }
    s.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"advisories\": [");
    for (k, f) in report.advisories.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"snippet\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.col,
            f.rule,
            json_escape(&f.snippet)
        ));
    }
    s.push_str(if report.advisories.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"allows\": [");
    for (k, a) in report.allows.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\"}}",
            json_escape(&a.path),
            a.line,
            a.rule
        ));
    }
    s.push_str(if report.allows.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"stale_allows\": [");
    for (k, a) in report.stale_allows.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\"}}",
            json_escape(&a.path),
            a.line,
            a.rule
        ));
    }
    s.push_str(if report.stale_allows.is_empty() {
        "]"
    } else {
        "\n  ]"
    });
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            rule: "lossy-cycle-cast",
            snippet: "let lo = now as u32;".into(),
        }
    }

    #[test]
    fn display_includes_position_and_rule() {
        let msg = finding().to_string();
        assert!(msg.contains("crates/x/src/a.rs:3:9"));
        assert!(msg.contains("lossy-cycle-cast"));
    }

    #[test]
    fn json_has_schema_counts_and_findings() {
        let report = LintReport {
            findings: vec![finding()],
            advisories: vec![Finding {
                rule: "persist-in-loop-only",
                ..finding()
            }],
            allows: vec![Allow {
                path: "b.rs".into(),
                line: 1,
                rule: "shard-shared-mut".into(),
            }],
            stale_allows: vec![Allow {
                path: "c.rs".into(),
                line: 7,
                rule: "wall-clock".into(),
            }],
            files_scanned: 2,
        };
        let j = to_json(&report);
        assert!(j.contains("\"schema\": \"hoop-lint/5\""));
        assert!(j.contains("\"lossy-cycle-cast\": 1"));
        assert!(j.contains("\"persist-order\": 0"));
        assert!(j.contains("\"commit-in-branch\": 0"));
        assert!(j.contains("\"hook-coverage\": 0"));
        assert!(j.contains("\"shard-shared-mut\": 0"));
        assert!(j.contains("\"persist-in-loop-only\": 1"));
        assert!(j.contains("\"advisories\": ["));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("now as u32"));
        assert!(j.contains("\"b.rs\", \"line\": 1, \"rule\": \"shard-shared-mut\""));
        assert!(j.contains("\"stale_allows\": ["));
        // A stale allow may name a retired rule; it is exported as given.
        assert!(j.contains("\"c.rs\", \"line\": 7, \"rule\": \"wall-clock\""));
        // Eight rules and no baseline block: the six generic rules are the
        // compiler's and the determinism-taint rule is gone, so they have
        // no count key.
        assert_eq!(j.matches("\n    \"").count(), 8);
        assert!(!j.contains("\"det-hash\""));
        assert!(!j.contains("baseline"));
    }

    #[test]
    fn json_escapes_special_chars() {
        let report = LintReport {
            findings: vec![Finding {
                snippet: "a \"quoted\"\tsnippet\\".into(),
                ..finding()
            }],
            ..Default::default()
        };
        let j = to_json(&report);
        assert!(j.contains("a \\\"quoted\\\"\\tsnippet\\\\"));
    }
}
