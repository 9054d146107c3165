//! Token-aware static analyzer for the HOOP reproduction (`lintpass`).
//!
//! The workspace's determinism and persist-order lint: a real lexer
//! ([`lexer`]) and a flow-sensitive analysis stack: [`parse`] recovers
//! per-function bodies from the lossless token stream, [`cfg`] builds
//! basic-block control-flow graphs (if/else, match arms, loops with
//! break/continue, early return, `?`), [`dataflow`] runs a forward
//! must/may/must-zero evidence analysis over them (the dual loop model),
//! and [`callgraph`] solves transitive per-function summaries to a worklist
//! fixpoint so helper-function persists propagate through calls at any
//! depth, with a backward *observed-by-caller* bit for sanitizer
//! visibility. On that stack, [`rules`] implements the persistency family —
//! most importantly **persist-order**, the static complement of the runtime
//! persistency sanitizer: a commit event must be *dominated* by a payload
//! persist (the paper's §III-G ordering, Fig. 4), with the branch-shaped
//! violation split out as **commit-in-branch**, the loop-carried-dominance
//! gap surfaced as the **persist-in-loop-only** advisory, and the
//! sanitizer's own visibility proven by **hook-coverage**. Scope-based
//! determinism rules cover the simulation crates. Generic checks that need
//! no knowledge of this repo (`std` hash containers, host clocks, `unsafe`)
//! are left to rustc and clippy, configured by the workspace's root
//! `clippy.toml`.
//!
//! The analyzer is *hermetic*: no dependencies, not even in-tree ones, so it
//! can never be broken by the crates it checks and builds in a bare
//! container.
//!
//! Entry points:
//! * [`lint_source`] — analyze one in-memory file (pure; the call graph is
//!   built from that file alone, so helper propagation is file-local).
//! * [`lint_paths`] / [`lint_paths_rel`] — walk directories twice: pass 1
//!   builds the workspace call graph from persistency-scoped files and the
//!   set of det-container-returning functions from the simulation crates,
//!   pass 2 analyzes every `.rs` file against them.
//! * [`report::to_json`] — the schema-versioned `results/lint.json` export.
//! * [`cfg_dot_at`] — Graphviz dot of the CFG of the function containing a
//!   given line (`xtask lint --cfg-dot`, CI failure artifacts).
//!
//! Run it via `cargo run -p xtask -- lint`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

pub use report::{Allow, Finding, LintReport};

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;

/// Builds a call graph from one file's source using the rule vocabulary
/// (the persist evidence shared with `persist-order`).
fn graph_add(graph: &mut CallGraph, source: &str) {
    graph.add_file(source, &rules::is_persist_evidence);
}

/// Adds the names of `source`'s functions that declare a
/// `DetHashMap`/`DetHashSet` return type: a `let` bound to a call of one is
/// a det container for `order-sensitive-iteration`.
fn det_returns_add(det_fns: &mut BTreeSet<String>, source: &str) {
    let toks = parse::sig_tokens(source);
    for f in parse::functions(&toks) {
        if rules::returns_det_container(&toks, &f) {
            det_fns.insert(f.name);
        }
    }
}

/// Analyzes one file's `source`, reporting against `path` (used both for
/// messages and for path-scoped rules like `persist-order`). Interprocedural
/// summaries and the det-container-returning functions are taken from this
/// file alone, so helper-function persists and det returns defined in the
/// same file count; cross-file helpers require [`lint_paths_rel`].
pub fn lint_source(path: &str, source: &str) -> LintReport {
    let mut graph = CallGraph::default();
    graph_add(&mut graph, source);
    graph.solve();
    let mut det_fns = BTreeSet::new();
    det_returns_add(&mut det_fns, source);
    rules::analyze(path, source, &graph, &det_fns)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // `vendor/` mirrors third-party API surface and `target/` is
            // build output; neither participates in simulation determinism.
            if matches!(name, "target" | "vendor" | ".git") {
                continue;
            }
            walk(&p, files)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(p);
        }
    }
    Ok(())
}

/// Collects every `.rs` file under `roots` (recursively; `vendor/`,
/// `target/` and `.git/` are skipped), sorted for deterministic reports.
/// Missing roots are ignored so callers can pass the standard workspace
/// layout unconditionally.
pub fn collect_files(roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for root in roots {
        if root.is_file() {
            files.push(root.clone());
        } else if root.is_dir() {
            walk(root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every `.rs` file under `roots`. When `rel_root` is given, reported
/// paths are made relative to it (the form exported to JSON, so reports are
/// machine-independent).
///
/// Two passes: the first builds the workspace call graph from every file in
/// the persistency scope (`crates/engines`, `crates/hoop`), solved to its
/// fixpoint, so a helper defined in `common.rs` counts as evidence at call
/// sites in `lsm.rs` at any call depth, and collects the functions that
/// return a det container from every file in the simulation crates; the
/// second analyzes each file against them.
pub fn lint_paths_rel(roots: &[PathBuf], rel_root: Option<&Path>) -> io::Result<LintReport> {
    lint_paths_full(roots, rel_root).map(|(report, _)| report)
}

/// [`lint_paths_rel`] that also returns the solved workspace call graph
/// (for `xtask lint --callers`).
pub fn lint_paths_full(
    roots: &[PathBuf],
    rel_root: Option<&Path>,
) -> io::Result<(LintReport, CallGraph)> {
    let files = collect_files(roots)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let source = fs::read_to_string(f)?;
        let shown = match rel_root {
            Some(root) => f
                .strip_prefix(root)
                .map(|p| p.to_path_buf())
                .unwrap_or_else(|_| f.clone()),
            None => f.clone(),
        };
        sources.push((shown.display().to_string(), source));
    }
    let mut graph = CallGraph::default();
    let mut det_fns = BTreeSet::new();
    for (path, source) in &sources {
        if rules::in_persist_scope(path) {
            graph_add(&mut graph, source);
        }
        if rules::in_numeric_scope(path) {
            det_returns_add(&mut det_fns, source);
        }
    }
    graph.solve();
    let mut report = LintReport::default();
    for (path, source) in &sources {
        report.merge(rules::analyze(path, source, &graph, &det_fns));
    }
    Ok((report, graph))
}

/// [`lint_paths_rel`] with paths reported as given (no relativization).
pub fn lint_paths(roots: &[PathBuf]) -> io::Result<LintReport> {
    lint_paths_rel(roots, None)
}

/// Renders the CFG of the function whose body spans source `line`
/// (1-based) as Graphviz dot, returning `(function_name, dot)`. Picks the
/// innermost enclosing function when they nest. `None` if no function body
/// covers the line.
pub fn cfg_dot_at(source: &str, line: u32) -> Option<(String, String)> {
    let toks = parse::sig_tokens(source);
    let fns = parse::functions(&toks);
    // Innermost = smallest covering body range.
    let f = fns
        .iter()
        .filter(|f| {
            let lo = toks.get(f.fn_idx).map_or(u32::MAX, |t| t.line);
            let hi = toks
                .get(f.body.1.saturating_sub(1).min(toks.len().saturating_sub(1)))
                .map_or(0, |t| t.line);
            lo <= line && line <= hi
        })
        .min_by_key(|f| f.body.1 - f.body.0)?;
    let graph = cfg::build(&toks, f.body);
    Some((f.name.clone(), cfg::to_dot(&graph, &toks, &f.name)))
}

/// Renders the CFG of the function named `name` in `source` as dot (first
/// match in declaration order). `None` if absent.
pub fn cfg_dot_named(source: &str, name: &str) -> Option<String> {
    let toks = parse::sig_tokens(source);
    let f = parse::functions(&toks)
        .into_iter()
        .find(|f| f.name == name)?;
    let graph = cfg::build(&toks, f.body);
    Some(cfg::to_dot(&graph, &toks, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_roots_are_ignored() {
        let r = lint_paths(&[PathBuf::from("/nonexistent/definitely/missing")]).unwrap();
        assert_eq!(r.files_scanned, 0);
    }

    #[test]
    fn relativization_applies() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let r = lint_paths_rel(&[root.join("src")], Some(root)).unwrap();
        assert!(r.files_scanned >= 4);
        // No absolute paths leak into allow records (findings are empty on
        // our own clean sources).
        for a in &r.allows {
            assert!(!a.path.starts_with('/'), "absolute path: {}", a.path);
        }
    }

    #[test]
    fn cfg_dot_at_picks_innermost_function() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n    inner();\n}\n";
        let (name, dot) = cfg_dot_at(src, 3).unwrap();
        assert_eq!(name, "inner");
        assert!(dot.contains("digraph \"inner\""));
        let (name, _) = cfg_dot_at(src, 5).unwrap();
        assert_eq!(name, "outer");
        assert!(cfg_dot_at(src, 40).is_none());
    }

    #[test]
    fn cfg_dot_named_finds_function() {
        let src = "fn a() { x(); }\nfn b() { if c { y(); } }\n";
        assert!(cfg_dot_named(src, "b").unwrap().contains("digraph \"b\""));
        assert!(cfg_dot_named(src, "zzz").is_none());
    }
}
