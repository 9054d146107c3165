//! Workspace task runner (the conventional `xtask` pattern — no external
//! dependencies, hermetic by construction).
//!
//! ```text
//! cargo run -p xtask -- lint [PATH...] [--json FILE | --no-json]
//!                            [--explain RULE] [--cfg-dot FILE:LINE|FILE:FN]
//!                            [--callers FILE:FN]
//! cargo run -p xtask -- crashtest [-- ARGS...]
//! cargo run -p xtask -- trace [-- ARGS...]
//! ```
//!
//! `lint` runs the flow-sensitive analyzer of the `lintpass` crate over the
//! workspace sources (`crates/`, `src/`, `tests/`, `examples/`; `vendor/`
//! and `target/` are excluded): the CFG/dataflow-backed `persist-order`,
//! `commit-in-branch` and `hook-coverage` checks (on fixed-point
//! interprocedural call-graph summaries, so helper evidence counts at any
//! call depth and a notifying caller clears its callees), and the
//! scope-based `order-sensitive-iteration`, `sim-state-float`,
//! `lossy-cycle-cast` and `shard-shared-mut` checks. The dual loop model
//! additionally emits the warning-severity `persist-in-loop-only` advisory
//! (printed and exported, never a failure). Generic determinism and safety
//! checks (`std` hash containers, host clocks, `unsafe`) are clippy's, under
//! the root `clippy.toml`. Every finding fails the lint; the only escapes are
//! annotations at the site. A schema-versioned JSON report is written to
//! `results/lint.json` unless `--no-json`; when that path cannot be written
//! (read-only checkout) the run degrades to the stdout summary with a
//! warning instead of failing. For every *failing* flow-rule finding the
//! enclosing function's CFG is exported as Graphviz dot under `results/cfg/`
//! so CI can attach it as a debugging artifact.
//!
//! `--explain RULE` prints the rationale and fix guidance for one rule
//! (including the `persist-in-loop-only` advisory);
//! `--cfg-dot FILE:LINE` (or `FILE:FUNCTION`) prints a function's CFG as
//! dot without running the scan; `--callers FILE:FUNCTION` dumps one
//! function's direct and transitive call-graph summary with the shortest
//! evidence chain behind each bit — the debugging view of the fixpoint.
//!
//! Exit codes: `0` clean, `1` findings, `2` scan/IO/usage error.
//! Explicitly annotated `// lint:allow(<rule>)` exceptions are listed so
//! the audit trail stays visible in CI logs; annotations that no longer
//! suppress anything, or name no rule, are reported as *stale* warnings
//! (never a failure).
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
//!
//! Standard output may go to a reader that leaves early
//! (`xtask lint --help | head -3`): once the pipe is closed, further output
//! is dropped and the command still ends with its own exit code.

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use lintpass::{rules, LintReport};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Standard output for a reader that may close the pipe early: after a
/// `BrokenPipe`, writes are dropped instead of failing (`println!` would
/// panic), so the command runs on to its own exit code.
struct PipeOut<W> {
    inner: W,
    closed: bool,
}

impl<W> PipeOut<W> {
    fn new(inner: W) -> Self {
        PipeOut {
            inner,
            closed: false,
        }
    }

    /// Swallows a `BrokenPipe` and marks the pipe closed.
    fn absorb<T>(&mut self, r: io::Result<T>, closed: T) -> io::Result<T> {
        match r {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(closed)
            }
            r => r,
        }
    }
}

impl<W: Write> Write for PipeOut<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let r = self.inner.write(buf);
        self.absorb(r, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let r = self.inner.flush();
        self.absorb(r, ())
    }
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
    json: Option<PathBuf>,
    explain: Option<String>,
    cfg_dot: Option<String>,
    callers: Option<String>,
}

fn parse_lint_args(args: &[String]) -> Result<LintOpts, String> {
    let root = workspace_root();
    let mut opts = LintOpts {
        roots: Vec::new(),
        json: Some(root.join("results/lint.json")),
        explain: None,
        cfg_dot: None,
        callers: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
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
fn run_explain(rule: &str, out: &mut impl Write) -> io::Result<u8> {
    match rules::explain(rule) {
        Some(text) => {
            writeln!(out, "{rule}\n{}\n{text}", "-".repeat(rule.len()))?;
            Ok(0)
        }
        None => {
            eprintln!(
                "xtask lint: unknown rule `{rule}` — known rules: {}",
                rules::RULE_IDS.join(", ")
            );
            Ok(2)
        }
    }
}

/// `--cfg-dot FILE:LINE` or `FILE:FUNCTION`: renders one function's CFG as
/// Graphviz dot on stdout. A numeric suffix selects the innermost function
/// whose body spans that line; anything else is a function name.
fn run_cfg_dot(spec: &str, out: &mut impl Write) -> io::Result<u8> {
    let Some((file, sel)) = spec.rsplit_once(':') else {
        eprintln!("xtask lint: --cfg-dot expects FILE:LINE or FILE:FUNCTION, got `{spec}`");
        return Ok(2);
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
            return Ok(2);
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
            writeln!(out, "{dot}")?;
            Ok(0)
        }
        None => {
            eprintln!(
                "xtask lint: no function body matches `{sel}` in {}",
                path.display()
            );
            Ok(2)
        }
    }
}

/// `--callers FILE:FUNCTION`: dumps one function's direct and transitive
/// call-graph summary, its call edges in both directions, and the shortest
/// evidence chain behind each transitive bit — from the same solved
/// workspace call graph the scan itself uses, so the dump
/// can never disagree with a verdict.
fn run_callers(spec: &str, out: &mut impl Write) -> io::Result<u8> {
    use lintpass::callgraph::Fact;
    let Some((file, name)) = spec.rsplit_once(':') else {
        eprintln!("xtask lint: --callers expects FILE:FUNCTION, got `{spec}`");
        return Ok(2);
    };
    let root = workspace_root();
    let path = PathBuf::from(file);
    let path = if path.exists() { path } else { root.join(file) };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", path.display());
            return Ok(2);
        }
    };
    let toks = lintpass::parse::sig_tokens(&source);
    if !lintpass::parse::functions(&toks)
        .iter()
        .any(|f| f.name == name)
    {
        eprintln!("xtask lint: no function `{name}` in {}", path.display());
        return Ok(2);
    }
    let roots: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let (_, graph) = match lintpass::lint_paths_full(&roots, Some(&root)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return Ok(2);
        }
    };
    writeln!(out, "fn `{name}` ({file})")?;
    match (graph.direct_summary(name), graph.summary(name)) {
        (Some(d), Some(t)) => {
            writeln!(
                out,
                "  direct:     persists={} notifies={} commits={}",
                d.persists, d.notifies, d.commits
            )?;
            writeln!(
                out,
                "  transitive: persists={} notifies={} commits={} observed={}",
                t.persists, t.notifies, t.commits, t.observed
            )?;
            let join = |v: Vec<&str>| {
                if v.is_empty() {
                    "(none)".to_string()
                } else {
                    v.join(", ")
                }
            };
            writeln!(out, "  callees:    {}", join(graph.callees_of(name)))?;
            writeln!(out, "  callers:    {}", join(graph.callers_of(name)))?;
            for (label, fact) in [
                ("persists", Fact::Persists),
                ("notifies", Fact::Notifies),
                ("commits ", Fact::Commits),
            ] {
                if let Some(chain) = graph.evidence_chain(name, fact) {
                    writeln!(out, "  {label} via: {}", chain.join(" -> "))?;
                }
            }
            if let Some(chain) = graph.observer_chain(name) {
                writeln!(out, "  observed via caller chain: {}", chain.join(" -> "))?;
            }
        }
        _ => writeln!(
            out,
            "  not in the persistency-scoped call graph \
             (scope: crates/engines/src/, crates/hoop/src/)"
        )?,
    }
    Ok(0)
}

/// Rules whose findings come out of the CFG/dataflow layer — these get their
/// enclosing function's CFG exported as dot when they fail the lint.
const FLOW_RULES: [&str; 3] = ["persist-order", "commit-in-branch", "hook-coverage"];

/// Best-effort dot export for failing flow-rule findings: one
/// `results/cfg/<path with '/'→'_'>__<line>.dot` per finding, so CI can
/// upload the CFGs a human needs to audit the dataflow verdict. IO errors
/// are warnings — the artifact must never mask the finding itself.
fn export_failing_cfgs(
    root: &std::path::Path,
    failing: &[lintpass::Finding],
    out: &mut impl Write,
) -> io::Result<()> {
    let flow: Vec<&lintpass::Finding> = failing
        .iter()
        .filter(|f| FLOW_RULES.contains(&f.rule))
        .collect();
    if flow.is_empty() {
        return Ok(());
    }
    let dir = root.join("results/cfg");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask lint: cannot create {}: {e}", dir.display());
        return Ok(());
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
            Ok(()) => writeln!(
                out,
                "wrote {} (cfg of `{name}` for [{}] at {}:{})",
                file.display(),
                f.rule,
                f.path,
                f.line
            )?,
            Err(e) => eprintln!("xtask lint: cannot write {}: {e}", file.display()),
        }
    }
    Ok(())
}

/// Prints the per-rule finding count table (zeros included, so the full
/// rule inventory is visible in every CI log).
fn print_rule_counts(report: &LintReport, out: &mut impl Write) -> io::Result<()> {
    let counts = rules::rule_counts(report);
    writeln!(out, "rule counts:")?;
    for rule in rules::RULE_IDS {
        let n = counts.get(rule).copied().unwrap_or(0);
        writeln!(out, "  {rule:26} {n}")?;
    }
    Ok(())
}

/// The whole `lint` subcommand as a plain function returning the exit code
/// as `u8` — [`std::process::ExitCode`] has no `PartialEq`, so tests could
/// not assert on it. A failed write to `out` is a usage/IO error (2).
fn lint_main(args: &[String], out: &mut impl Write) -> u8 {
    run_lint(args, out).unwrap_or_else(|e| {
        eprintln!("xtask lint: cannot write to stdout: {e}");
        2
    })
}

fn run_lint(args: &[String], out: &mut impl Write) -> io::Result<u8> {
    let opts = match parse_lint_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return Ok(2);
        }
    };
    if let Some(rule) = &opts.explain {
        return run_explain(rule, out);
    }
    if let Some(spec) = &opts.cfg_dot {
        return run_cfg_dot(spec, out);
    }
    if let Some(spec) = &opts.callers {
        return run_callers(spec, out);
    }
    let root = workspace_root();
    let report = match lintpass::lint_paths_rel(&opts.roots, Some(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return Ok(2);
        }
    };
    for a in &report.allows {
        writeln!(out, "allowed  {}:{} [{}]", a.path, a.line, a.rule)?;
    }
    // Advisories are warning severity: printed and exported, never gated.
    for f in &report.advisories {
        writeln!(out, "advisory {f}")?;
    }
    // Stale allows are a warning, never a failure: cleaning up a suppression
    // whose finding is gone should be a deliberate follow-up, not a CI block.
    for a in &report.stale_allows {
        writeln!(
            out,
            "warning: stale lint:allow — {}:{} [{}] suppresses nothing; remove it",
            a.path, a.line, a.rule
        )?;
    }

    if let Some(json_path) = &opts.json {
        let doc = lintpass::report::to_json(&report);
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
    }

    print_rule_counts(&report, out)?;

    for f in &report.findings {
        eprintln!("error: {f}");
    }
    export_failing_cfgs(&root, &report.findings, out)?;

    if report.is_clean() {
        writeln!(
            out,
            "xtask lint: clean — {} files scanned, {} annotated exception(s)",
            report.files_scanned,
            report.allows.len(),
        )?;
        Ok(0)
    } else {
        eprintln!(
            "xtask lint: {} finding(s) in {} files — annotate an intentional exception \
             with `// lint:allow(<rule>)` or the rule's dedicated marker, or run \
             `cargo run -p xtask -- lint --explain <rule>` for the rationale",
            report.findings.len(),
            report.files_scanned
        );
        Ok(1)
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
             Flow-sensitive static analysis: the CFG/dataflow-backed\n\
             persist-order, commit-in-branch and hook-coverage checks\n\
             (fixed-point interprocedural summaries: helper evidence counts at\n\
             any call depth, notifying callers clear their callees), and the\n\
             scope-based order-sensitive-iteration, sim-state-float,\n\
             lossy-cycle-cast and shard-shared-mut checks. Every finding\n\
             fails. The dual loop model emits the warning-severity\n\
             persist-in-loop-only advisory (printed/exported, never a\n\
             failure). Failing flow-rule findings export their function's\n\
             CFG as dot under results/cfg/. Stale lint:allow annotations,\n\
             including ones that name no rule, are warned about (exit 0).\n\
             Generic checks (std hash containers, host clocks, unsafe) are\n\
             clippy's: see the root clippy.toml.\n\
             \n\
             options:\n\
             \x20 PATH...            directories to scan (default: crates/ src/ tests/ examples/)\n\
             \x20 --json FILE       write the JSON report here (default: results/lint.json);\n\
             \x20                    an unwritable path degrades to stdout with a warning\n\
             \x20 --no-json          skip the JSON report\n\
             \x20 --explain RULE     print one rule's rationale and fix guidance, then exit\n\
             \x20 --cfg-dot F:LINE   print the CFG (Graphviz dot) of the innermost function\n\
             \x20                    at line LINE of file F, then exit; F:NAME selects the\n\
             \x20                    function named NAME instead\n\
             \x20 --callers F:NAME   dump function NAME's direct + transitive call-graph\n\
             \x20                    summary, call edges and shortest evidence chains,\n\
             \x20                    then exit\n\
             \n\
             exit codes: 0 clean, 1 findings, 2 scan/IO/usage error"
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
    let mut out = PipeOut::new(io::stdout().lock());
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        if let Some(help) = help_for(sub) {
            return match writeln!(out, "{help}") {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("xtask {sub}: cannot write to stdout: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    match sub {
        "lint" => ExitCode::from(lint_main(&args[1..], &mut out)),
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

    /// `xtask lint ARGS` with its standard output discarded.
    fn lint(args: &[&str]) -> u8 {
        lint_main(&strs(args), &mut io::sink())
    }

    /// A stdout whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_closed_pipe_keeps_the_exit_code() {
        // The reader has gone before the first byte: output is dropped and
        // each command still ends with its own code.
        let mut closed = PipeOut::new(Failing(io::ErrorKind::BrokenPipe));
        let explain = strs(&["--explain", "persist-order"]);
        assert_eq!(lint_main(&explain, &mut closed), 0);
        assert!(closed.closed);
        assert_eq!(
            lint_main(&strs(&["--explain", "no-such-rule"]), &mut closed),
            2
        );
        // Any other write error is an IO error.
        let mut full = PipeOut::new(Failing(io::ErrorKind::StorageFull));
        assert_eq!(lint_main(&explain, &mut full), 2);
    }

    #[test]
    fn explain_known_rule_exits_zero() {
        assert_eq!(lint(&["--explain", "persist-order"]), 0);
        assert_eq!(lint(&["--explain", "commit-in-branch"]), 0);
        assert_eq!(lint(&["--explain", "hook-coverage"]), 0);
        assert_eq!(lint(&["--explain", "persist-in-loop-only"]), 0);
        assert_eq!(lint(&["--explain", "order-sensitive-iteration"]), 0);
    }

    #[test]
    fn explain_unknown_rule_is_usage_error() {
        assert_eq!(lint(&["--explain", "no-such-rule"]), 2);
        // A retired rule is unknown like any other name.
        assert_eq!(lint(&["--explain", "det-taint"]), 2);
        assert_eq!(lint(&["--explain"]), 2);
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        assert_eq!(lint(&["--frobnicate"]), 2);
        // The retired baseline gate's flags are gone with it.
        assert_eq!(lint(&["--write-baseline"]), 2);
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
        let code = lint(&[dir.to_str().unwrap(), "--json", json.to_str().unwrap()]);
        assert_eq!(code, 0, "unwritable report must degrade, not fail");
        assert!(!json.exists());
    }

    #[test]
    fn writable_json_is_written() {
        let dir = scratch("writable-json");
        std::fs::write(dir.join("clean.rs"), "fn main() {}\n").unwrap();
        let json = dir.join("out/lint.json");
        let code = lint(&[dir.to_str().unwrap(), "--json", json.to_str().unwrap()]);
        assert_eq!(code, 0);
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"schema\": \"hoop-lint/5\""));
        // The lint report is the only document written.
        assert!(!json.with_file_name("taint.json").exists());
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
        assert_eq!(lint(&["--cfg-dot", &format!("{path}:2")]), 0);
        assert_eq!(lint(&["--cfg-dot", &format!("{path}:step")]), 0);
        assert_eq!(lint(&["--cfg-dot", &format!("{path}:no_such_fn")]), 2);
        assert_eq!(lint(&["--cfg-dot", "no-colon-spec"]), 2);
    }

    #[test]
    fn callers_usage_errors() {
        assert_eq!(lint(&["--callers"]), 2);
        assert_eq!(lint(&["--callers", "no-colon-spec"]), 2);
        assert_eq!(
            lint(&["--callers", "crates/hoop/src/engine.rs:no_such_fn"]),
            2
        );
        assert_eq!(lint(&["--callers", "no/such/file.rs:f"]), 2);
    }

    #[test]
    fn callers_dumps_a_real_workspace_function() {
        // Full workspace scan behind the dump — this is also an end-to-end
        // check that the solved graph knows a real commit-record writer.
        assert_eq!(
            lint(&[
                "--callers",
                "crates/hoop/src/engine.rs:append_commit_record"
            ]),
            0
        );
    }
}
