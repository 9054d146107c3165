//! Workspace task runner (the conventional `xtask` pattern — no external
//! dependencies, hermetic by construction).
//!
//! ```text
//! cargo run -p xtask -- lint [PATH...] [--baseline FILE] [--write-baseline]
//!                            [--json FILE | --no-json]
//!                            [--explain RULE] [--cfg-dot FILE:LINE|FILE:FN]
//!                            [--callers FILE:FN]
//! cargo run -p xtask -- crashtest [-- ARGS...]
//! cargo run -p xtask -- trace [-- ARGS...]
//! ```
//!
//! `lint` runs the flow-sensitive analyzer of the `lintpass` crate over the
//! workspace sources (`crates/`, `src/`, `tests/`, `examples/`; `vendor/`
//! and `target/` are excluded): the determinism/safety rules plus the
//! CFG/dataflow-backed `persist-order`, `commit-in-branch` and
//! `hook-coverage` checks (on fixed-point interprocedural call-graph
//! summaries, so helper evidence counts at any call depth and a notifying
//! caller clears its callees), the determinism-taint `det-taint` check, and
//! the scope-based `order-sensitive-iteration`, `sim-state-float`,
//! `lossy-cycle-cast` and `shard-shared-mut` checks. The dual loop model
//! additionally emits the warning-severity `persist-in-loop-only` advisory
//! (printed and exported, never gated). Findings are gated against the
//! committed baseline (`lint.baseline` at the workspace root) so CI fails
//! only on *new* findings — and also on *stale* baseline entries, which
//! demand a refresh via `--write-baseline` in the same change. A
//! schema-versioned JSON report is written to `results/lint.json` (plus the
//! `hoop-taint/1` companion `results/taint.json`) unless `--no-json`; when
//! those paths cannot be written (read-only checkout) the run degrades to
//! the stdout summary with a warning instead of failing. For every
//! *failing* flow-rule finding the enclosing function's CFG is exported as
//! Graphviz dot under `results/cfg/` so CI can attach it as a debugging
//! artifact.
//!
//! `--explain RULE` prints the rationale and fix guidance for one rule
//! (including the new `det-taint` and `persist-in-loop-only`);
//! `--cfg-dot FILE:LINE` (or `FILE:FUNCTION`) prints a function's CFG as
//! dot without running the scan; `--callers FILE:FUNCTION` dumps one
//! function's direct and transitive call-graph summary with the shortest
//! evidence chain behind each bit — the debugging view of the fixpoint.
//!
//! Exit codes: `0` clean (or fully baselined), `1` findings (new findings,
//! stale baseline entries, or a corrupt baseline), `2` scan/IO/usage error.
//! Explicitly annotated `// lint:allow(<rule>)` exceptions are listed so
//! the audit trail stays visible in CI logs; annotations that no longer
//! suppress anything are reported as *stale* warnings (never a failure).
//!
//! `crashtest` runs the deterministic crash-point fault-injection harness
//! (the `hoop-crashtest` crate) in release mode from the workspace root,
//! passing arguments through; the default invocation explores all engines
//! in all modes and writes `results/crashtest.json`.
//!
//! `trace` regenerates the committed quick-scale trace pack under
//! `traces/quick/` (the `trace_pack` binary in release mode). Recording is
//! deterministic, so an up-to-date pack regenerates byte-identically and CI
//! gates currency with `git diff --exit-code -- traces/`.
//!
//! Host time has no subcommand: perfbench (`perfbench/README.md`) measures
//! it, and `cargo run --release -p hoop-bench --bin perf_gate -- --base REV`
//! A/Bs it against a base revision as CI's regression gate.
//!
//! Every subcommand answers `--help` with its flags and exit codes.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use lintpass::{gate, rules, Baseline, LintReport};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Takes the operand of a `--flag VALUE` option from an argv iterator —
/// the one flag-parsing shape every subcommand needs.
fn operand<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} requires a path"))
}

struct LintOpts {
    roots: Vec<PathBuf>,
    baseline: PathBuf,
    write_baseline: bool,
    json: Option<PathBuf>,
    explain: Option<String>,
    cfg_dot: Option<String>,
    callers: Option<String>,
}

fn parse_lint_args(args: &[String]) -> Result<LintOpts, String> {
    let root = workspace_root();
    let mut opts = LintOpts {
        roots: Vec::new(),
        baseline: root.join("lint.baseline"),
        write_baseline: false,
        json: Some(root.join("results/lint.json")),
        explain: None,
        cfg_dot: None,
        callers: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => opts.baseline = operand(&mut it, "--baseline")?,
            "--write-baseline" => opts.write_baseline = true,
            "--json" => opts.json = Some(operand(&mut it, "--json")?),
            "--no-json" => opts.json = None,
            "--explain" => {
                opts.explain = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--explain requires a rule name".to_string())?,
                );
            }
            "--cfg-dot" => {
                opts.cfg_dot =
                    Some(it.next().cloned().ok_or_else(|| {
                        "--cfg-dot requires FILE:LINE or FILE:FUNCTION".to_string()
                    })?);
            }
            "--callers" => {
                opts.callers = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--callers requires FILE:FUNCTION".to_string())?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => opts.roots.push(PathBuf::from(path)),
        }
    }
    if opts.roots.is_empty() {
        opts.roots = ["crates", "src", "tests", "examples"]
            .iter()
            .map(|d| root.join(d))
            .collect();
    }
    Ok(opts)
}

/// `--explain RULE`: prints the per-rule rationale from the analyzer's own
/// vocabulary, so the fix guidance cannot drift from the implementation.
fn run_explain(rule: &str) -> u8 {
    match rules::explain(rule) {
        Some(text) => {
            println!("{rule}\n{}\n{text}", "-".repeat(rule.len()));
            0
        }
        None => {
            eprintln!(
                "xtask lint: unknown rule `{rule}` — known rules: {}",
                rules::RULE_IDS.join(", ")
            );
            2
        }
    }
}

/// `--cfg-dot FILE:LINE` or `FILE:FUNCTION`: renders one function's CFG as
/// Graphviz dot on stdout. A numeric suffix selects the innermost function
/// whose body spans that line; anything else is a function name.
fn run_cfg_dot(spec: &str) -> u8 {
    let Some((file, sel)) = spec.rsplit_once(':') else {
        eprintln!("xtask lint: --cfg-dot expects FILE:LINE or FILE:FUNCTION, got `{spec}`");
        return 2;
    };
    let path = PathBuf::from(file);
    let path = if path.exists() {
        path
    } else {
        workspace_root().join(file)
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let dot = match sel.parse::<u32>() {
        Ok(line) => lintpass::cfg_dot_at(&source, line).map(|(name, dot)| {
            eprintln!("xtask lint: cfg of `{name}` (innermost function at {file}:{line})");
            dot
        }),
        Err(_) => lintpass::cfg_dot_named(&source, sel),
    };
    match dot {
        Some(dot) => {
            println!("{dot}");
            0
        }
        None => {
            eprintln!(
                "xtask lint: no function body matches `{sel}` in {}",
                path.display()
            );
            2
        }
    }
}

/// `--callers FILE:FUNCTION`: dumps one function's direct and transitive
/// call-graph summary, its call edges in both directions, and the shortest
/// evidence chain behind each transitive bit — from the same solved
/// workspace call graph and taint index the scan itself uses, so the dump
/// can never disagree with a verdict.
fn run_callers(spec: &str) -> u8 {
    use lintpass::callgraph::Fact;
    let Some((file, name)) = spec.rsplit_once(':') else {
        eprintln!("xtask lint: --callers expects FILE:FUNCTION, got `{spec}`");
        return 2;
    };
    let root = workspace_root();
    let path = PathBuf::from(file);
    let path = if path.exists() { path } else { root.join(file) };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let toks = lintpass::parse::sig_tokens(&source);
    if !lintpass::parse::functions(&toks)
        .iter()
        .any(|f| f.name == name)
    {
        eprintln!("xtask lint: no function `{name}` in {}", path.display());
        return 2;
    }
    let roots: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let (_, graph, taint) = match lintpass::lint_paths_full(&roots, Some(&root)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return 2;
        }
    };
    println!("fn `{name}` ({file})");
    match (graph.direct_summary(name), graph.summary(name)) {
        (Some(d), Some(t)) => {
            println!(
                "  direct:     persists={} notifies={} commits={}",
                d.persists, d.notifies, d.commits
            );
            println!(
                "  transitive: persists={} notifies={} commits={} observed={}",
                t.persists, t.notifies, t.commits, t.observed
            );
            let join = |v: Vec<&str>| {
                if v.is_empty() {
                    "(none)".to_string()
                } else {
                    v.join(", ")
                }
            };
            println!("  callees:    {}", join(graph.callees_of(name)));
            println!("  callers:    {}", join(graph.callers_of(name)));
            for (label, fact) in [
                ("persists", Fact::Persists),
                ("notifies", Fact::Notifies),
                ("commits ", Fact::Commits),
            ] {
                if let Some(chain) = graph.evidence_chain(name, fact) {
                    println!("  {label} via: {}", chain.join(" -> "));
                }
            }
            if let Some(chain) = graph.observer_chain(name) {
                println!("  observed via caller chain: {}", chain.join(" -> "));
            }
        }
        _ => println!(
            "  not in the persistency-scoped call graph \
             (scope: crates/engines/src/, crates/hoop/src/)"
        ),
    }
    println!(
        "  tainted return: {}",
        if taint.returns_tainted(name) {
            "yes"
        } else {
            "no"
        }
    );
    0
}

/// Rules whose findings come out of the CFG/dataflow layer — these get their
/// enclosing function's CFG exported as dot when they fail the gate.
const FLOW_RULES: [&str; 3] = ["persist-order", "commit-in-branch", "hook-coverage"];

/// Best-effort dot export for failing flow-rule findings: one
/// `results/cfg/<path with '/'→'_'>__<line>.dot` per finding, so CI can
/// upload the CFGs a human needs to audit the dataflow verdict. IO errors
/// are warnings — the artifact must never mask the finding itself.
fn export_failing_cfgs(root: &std::path::Path, failing: &[&lintpass::Finding]) {
    let flow: Vec<&&lintpass::Finding> = failing
        .iter()
        .filter(|f| FLOW_RULES.contains(&f.rule))
        .collect();
    if flow.is_empty() {
        return;
    }
    let dir = root.join("results/cfg");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask lint: cannot create {}: {e}", dir.display());
        return;
    }
    for f in flow {
        let Ok(source) = std::fs::read_to_string(root.join(&f.path)) else {
            continue;
        };
        let Some((name, dot)) = lintpass::cfg_dot_at(&source, f.line as u32) else {
            continue;
        };
        let file = dir.join(format!("{}__{}.dot", f.path.replace('/', "_"), f.line));
        match std::fs::write(&file, dot) {
            Ok(()) => println!(
                "wrote {} (cfg of `{name}` for [{}] at {}:{})",
                file.display(),
                f.rule,
                f.path,
                f.line
            ),
            Err(e) => eprintln!("xtask lint: cannot write {}: {e}", file.display()),
        }
    }
}

/// Prints the per-rule finding count table (zeros included, so the full
/// rule inventory is visible in every CI log).
fn print_rule_counts(report: &LintReport) {
    let counts = rules::rule_counts(report);
    println!("rule counts:");
    for rule in rules::RULE_IDS {
        println!("  {:26} {}", rule, counts.get(rule).copied().unwrap_or(0));
    }
}

/// The whole `lint` subcommand as a plain function returning the exit code
/// as `u8` — [`std::process::ExitCode`] has no `PartialEq`, so tests could
/// not assert on it.
fn lint_main(args: &[String]) -> u8 {
    let opts = match parse_lint_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return 2;
        }
    };
    if let Some(rule) = &opts.explain {
        return run_explain(rule);
    }
    if let Some(spec) = &opts.cfg_dot {
        return run_cfg_dot(spec);
    }
    if let Some(spec) = &opts.callers {
        return run_callers(spec);
    }
    let root = workspace_root();
    let (report, _graph, taint) = match lintpass::lint_paths_full(&opts.roots, Some(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return 2;
        }
    };
    for a in &report.allows {
        println!("allowed  {}:{} [{}]", a.path, a.line, a.rule);
    }
    // Advisories are warning severity: printed and exported, never gated.
    for f in &report.advisories {
        println!("advisory {f}");
    }
    // Stale allows are a warning, never a failure: cleaning up a suppression
    // whose finding is gone should be a deliberate follow-up, not a CI block.
    for a in &report.stale_allows {
        println!(
            "warning: stale lint:allow — {}:{} [{}] suppresses nothing; remove it",
            a.path, a.line, a.rule
        );
    }

    if opts.write_baseline {
        if let Err(e) = std::fs::write(&opts.baseline, Baseline::render(&report)) {
            eprintln!(
                "xtask lint: cannot write baseline {}: {e}",
                opts.baseline.display()
            );
            return 2;
        }
        println!(
            "xtask lint: wrote baseline {} ({} entr{})",
            opts.baseline.display(),
            report.findings.len(),
            if report.findings.len() == 1 {
                "y"
            } else {
                "ies"
            }
        );
    }

    // Load + gate against the baseline (if present). A corrupt baseline is a
    // lint failure, not an IO error: it must not silently accept findings.
    let baseline = match Baseline::load(&opts.baseline) {
        Ok(Some(Ok(b))) => Some(b),
        Ok(Some(Err(e))) => {
            eprintln!(
                "error: baseline {} is corrupt: {e}",
                opts.baseline.display()
            );
            return 1;
        }
        Ok(None) => None,
        Err(e) => {
            eprintln!(
                "xtask lint: cannot read baseline {}: {e}",
                opts.baseline.display()
            );
            return 2;
        }
    };
    let outcome = baseline.as_ref().map(|b| gate(&report, b));
    let summary = outcome
        .as_ref()
        .map(|o| o.summary(baseline.as_ref().map_or(0, |b| b.entries.len())));

    if let Some(json_path) = &opts.json {
        let doc = lintpass::report::to_json(&report, summary.as_ref());
        let write = json_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(json_path, doc));
        if let Err(e) = write {
            // A read-only checkout must still be lintable: degrade to the
            // stdout summary instead of failing with an IO error.
            eprintln!(
                "warning: cannot write report {} ({e}) — continuing with stdout summary only",
                json_path.display()
            );
        }
        // The hoop-taint/1 companion rides next to the lint report.
        let taint_path = json_path.with_file_name("taint.json");
        let taint_doc = lintpass::report::taint_to_json(&taint, &report);
        if let Err(e) = std::fs::write(&taint_path, taint_doc) {
            eprintln!(
                "warning: cannot write taint report {} ({e}) — continuing",
                taint_path.display()
            );
        }
    }

    print_rule_counts(&report);

    let failing: Vec<&lintpass::Finding> = match &outcome {
        Some(o) => o.new.iter().collect(),
        None => report.findings.iter().collect(),
    };
    let stale = outcome.as_ref().map_or(0, |o| o.fixed.len());
    for f in &failing {
        eprintln!("error: {f}");
    }
    if let Some(o) = &outcome {
        for b in &o.baselined {
            println!("baselined {}", b);
        }
        for e in &o.fixed {
            eprintln!(
                "error: baseline entry fixed (stale): [{}] {} — {}",
                e.rule, e.path, e.snippet
            );
        }
    }
    export_failing_cfgs(&root, &failing);

    if failing.is_empty() && stale == 0 {
        println!(
            "xtask lint: clean — {} files scanned, {} annotated exception(s), {} baselined",
            report.files_scanned,
            report.allows.len(),
            outcome.as_ref().map_or(0, |o| o.baselined.len()),
        );
        0
    } else {
        if stale > 0 {
            eprintln!(
                "xtask lint: {stale} stale baseline entr{} — refresh with \
                 `cargo run -p xtask -- lint --write-baseline` in the same change",
                if stale == 1 { "y" } else { "ies" }
            );
        }
        eprintln!(
            "xtask lint: {} new finding(s) in {} files — use simcore::det containers, \
             simulated time, and SimRng; annotate intentional exceptions with \
             `// lint:allow(<rule>)`, or run `cargo run -p xtask -- lint --explain <rule>` \
             for the rationale",
            failing.len(),
            report.files_scanned
        );
        1
    }
}

/// Delegates a subcommand to the release build of a workspace binary, run
/// from the workspace root (so `results/` and `traces/` artifacts land next
/// to the committed ones). Shared by `crashtest` and `trace`:
/// simulation-heavy work must run optimized code, never whatever profile
/// xtask itself uses.
fn delegate(subcommand: &str, package: &str, bin: &str, args: &[String]) -> ExitCode {
    let passthrough = args.iter().filter(|a| a.as_str() != "--");
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "--release", "-p", package, "--bin", bin, "--"])
        .args(passthrough)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("xtask {subcommand}: failed to spawn cargo: {e}");
            ExitCode::from(2)
        }
    }
}

/// Per-subcommand `--help` text: flags and exit codes.
fn help_for(subcommand: &str) -> Option<&'static str> {
    Some(match subcommand {
        "lint" => {
            "usage: cargo run -p xtask -- lint [PATH...] [OPTIONS]\n\
             \n\
             Flow-sensitive static analysis: determinism/safety rules plus the\n\
             CFG/dataflow-backed persist-order, commit-in-branch and\n\
             hook-coverage checks (fixed-point interprocedural summaries: helper\n\
             evidence counts at any call depth, notifying callers clear their\n\
             callees), the determinism-taint det-taint check, and the\n\
             scope-based order-sensitive-iteration, sim-state-float,\n\
             lossy-cycle-cast and shard-shared-mut checks, gated against the\n\
             committed baseline. The dual loop model emits the warning-severity\n\
             persist-in-loop-only advisory (printed/exported, never gated).\n\
             Failing flow-rule findings export their function's CFG as dot\n\
             under results/cfg/. Stale lint:allow annotations are warned about\n\
             (exit 0).\n\
             \n\
             options:\n\
             \x20 PATH...            directories to scan (default: crates/ src/ tests/ examples/)\n\
             \x20 --baseline FILE    baseline file (default: lint.baseline)\n\
             \x20 --write-baseline   rewrite the baseline from this scan\n\
             \x20 --json FILE        write the JSON report here (default: results/lint.json);\n\
             \x20                    the hoop-taint/1 companion taint.json is written next to\n\
             \x20                    it; an unwritable path degrades to stdout with a warning\n\
             \x20 --no-json          skip the JSON and taint reports\n\
             \x20 --explain RULE     print one rule's rationale and fix guidance, then exit\n\
             \x20 --cfg-dot F:LINE   print the CFG (Graphviz dot) of the innermost function\n\
             \x20                    at line LINE of file F, then exit; F:NAME selects the\n\
             \x20                    function named NAME instead\n\
             \x20 --callers F:NAME   dump function NAME's direct + transitive call-graph\n\
             \x20                    summary, call edges, shortest evidence chains and\n\
             \x20                    tainted-return status, then exit\n\
             \n\
             exit codes: 0 clean/baselined, 1 new or stale findings, 2 scan/IO/usage error"
        }
        "crashtest" => {
            "usage: cargo run -p xtask -- crashtest [-- ARGS...]\n\
             \n\
             Deterministic crash-point fault injection with the\n\
             atomic-durability oracle (release build of crashtest); writes\n\
             results/crashtest.json.\n\
             \n\
             exit codes: 0 all oracles hold, 1 violation found, 2 usage/IO error"
        }
        "trace" => {
            "usage: cargo run -p xtask -- trace [-- ARGS...]\n\
             \n\
             Regenerates the committed quick-scale trace pack under\n\
             traces/quick/ (release build of trace_pack). Deterministic: an\n\
             up-to-date pack regenerates byte-identically, so CI gates pack\n\
             currency with `git diff --exit-code -- traces/`.\n\
             \n\
             forwarded flags (see trace_pack):\n\
             \x20 --quick|--full     scale to record (default quick)\n\
             \x20 --dir DIR          pack directory (default traces/quick)\n\
             \x20 --jobs N           parallel recording workers\n\
             \x20 --depth N          per-core stream depth override\n\
             \n\
             exit codes: 0 pack written, 1 recording failed, 2 spawn error"
        }
        _ => return None,
    })
}

const USAGE: &str = "usage: cargo run -p xtask -- \
     {lint | crashtest | trace} [ARGS...]\n\
     run `cargo run -p xtask -- <subcommand> --help` for flags and exit codes\n\
     host-time regression gate: cargo run --release -p hoop-bench --bin perf_gate -- --base REV";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        if let Some(help) = help_for(sub) {
            println!("{help}");
            return ExitCode::SUCCESS;
        }
    }
    match sub {
        "lint" => ExitCode::from(lint_main(&args[1..])),
        "crashtest" => delegate("crashtest", "hoop-crashtest", "crashtest", &args[1..]),
        "trace" => delegate("trace", "hoop-bench", "trace_pack", &args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh scratch directory per test (no tempfile dependency): unique by
    /// test name + pid, recreated from empty on every run.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask-lint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn explain_known_rule_exits_zero() {
        assert_eq!(lint_main(&strs(&["--explain", "persist-order"])), 0);
        assert_eq!(lint_main(&strs(&["--explain", "commit-in-branch"])), 0);
        assert_eq!(lint_main(&strs(&["--explain", "hook-coverage"])), 0);
        assert_eq!(lint_main(&strs(&["--explain", "persist-in-loop-only"])), 0);
        assert_eq!(lint_main(&strs(&["--explain", "det-taint"])), 0);
    }

    #[test]
    fn explain_unknown_rule_is_usage_error() {
        assert_eq!(lint_main(&strs(&["--explain", "no-such-rule"])), 2);
        assert_eq!(lint_main(&strs(&["--explain"])), 2);
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        assert_eq!(lint_main(&strs(&["--frobnicate"])), 2);
    }

    #[test]
    fn unwritable_json_degrades_to_stdout_not_exit_2() {
        let dir = scratch("unwritable-json");
        std::fs::write(dir.join("clean.rs"), "fn main() {}\n").unwrap();
        // The JSON path's parent is a regular file, so creating it (and
        // writing through it) must fail even when running as root.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "not a directory").unwrap();
        let json = blocker.join("lint.json");
        let code = lint_main(&strs(&[
            dir.to_str().unwrap(),
            "--baseline",
            dir.join("no-such-baseline").to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]));
        assert_eq!(code, 0, "unwritable report must degrade, not fail");
        assert!(!json.exists());
    }

    #[test]
    fn writable_json_is_written() {
        let dir = scratch("writable-json");
        std::fs::write(dir.join("clean.rs"), "fn main() {}\n").unwrap();
        let json = dir.join("out/lint.json");
        let code = lint_main(&strs(&[
            dir.to_str().unwrap(),
            "--baseline",
            dir.join("no-such-baseline").to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"schema\": \"hoop-lint/3\""));
        // The taint companion lands next to the lint report.
        let taint = std::fs::read_to_string(json.with_file_name("taint.json")).unwrap();
        assert!(taint.contains("\"schema\": \"hoop-taint/1\""));
    }

    #[test]
    fn cfg_dot_by_line_and_by_name() {
        let dir = scratch("cfg-dot");
        let file = dir.join("mini.rs");
        std::fs::write(
            &file,
            "fn step(x: u32) -> u32 {\n    if x > 1 {\n        x - 1\n    } else {\n        0\n    }\n}\n",
        )
        .unwrap();
        let path = file.to_str().unwrap();
        assert_eq!(lint_main(&strs(&["--cfg-dot", &format!("{path}:2")])), 0);
        assert_eq!(lint_main(&strs(&["--cfg-dot", &format!("{path}:step")])), 0);
        assert_eq!(
            lint_main(&strs(&["--cfg-dot", &format!("{path}:no_such_fn")])),
            2
        );
        assert_eq!(lint_main(&strs(&["--cfg-dot", "no-colon-spec"])), 2);
    }

    #[test]
    fn callers_usage_errors() {
        assert_eq!(lint_main(&strs(&["--callers"])), 2);
        assert_eq!(lint_main(&strs(&["--callers", "no-colon-spec"])), 2);
        assert_eq!(
            lint_main(&strs(&[
                "--callers",
                "crates/hoop/src/engine.rs:no_such_fn"
            ])),
            2
        );
        assert_eq!(lint_main(&strs(&["--callers", "no/such/file.rs:f"])), 2);
    }

    #[test]
    fn callers_dumps_a_real_workspace_function() {
        // Full workspace scan behind the dump — this is also an end-to-end
        // check that the solved graph knows a real commit-record writer.
        assert_eq!(
            lint_main(&strs(&[
                "--callers",
                "crates/hoop/src/engine.rs:append_commit_record"
            ])),
            0
        );
    }
}
