//! Paired host-time regression gate: perfbench A/B against a base revision,
//! on the same runner.
//!
//! ```text
//! perf_gate --base REV
//! ```
//!
//! Checks `REV` out into a git worktree under `target/perf-gate/base`
//! (removed on every exit path), builds perfbench there and in the working
//! tree, and runs [`PAIRS`] pairs of each of [`WORKLOADS`] at `--seconds`
//! [`SECONDS`]: the base runs first in even pairs, the change in odd ones.
//! Each run's `--json` document is kept under `target/perf-gate/runs/`. It
//! prints one table per workload (per pair: both sides' `host_s` and every
//! engine cell's change/base time ratio) and fails when
//!
//! - a change-side run reports `failed > 0` or exits non-zero;
//! - on a workload, the change's median `host_s` exceeds the base's by more
//!   than the `host_s` bound of `BENCHMARK.json`, and the change is slower
//!   in most pairs;
//! - on an engine cell, the median of the change/base time ratios exceeds
//!   1 + 2 × bound, and the change is slower in most pairs.
//!
//! A cell's time is its `run_s` divided by perfbench's reference
//! measurements around it (their geometric mean), so a slowdown of the
//! shared host cancels out of a ratio. A cell runs once per `--seconds 3`
//! run, and on a shared 2-vCPU host one binary's cell times still spread by
//! up to a third from run to run: hence the median over pairs and the
//! doubled bound per cell.
//!
//! Exit codes: 0 pass, 1 regression or failed run, 2 usage, build, spawn or
//! parse error.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use hoop_bench::json::Json;

/// Alternating pairs per workload.
const PAIRS: usize = 5;
/// The perfbench workloads the gate runs: the engine write path and the
/// cache-hit path.
const WORKLOADS: [&str; 2] = ["write-hashmap", "tree-btree"];
/// `--seconds` per run: one full pass over the seven cells.
const SECONDS: &str = "3";
/// The benchmark declaration; its `host_s` bound is the gate's threshold.
const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

const USAGE: &str = "usage: perf_gate --base REV";

/// What the gate reads from one perfbench run.
#[derive(Clone, Debug, PartialEq)]
struct Run {
    /// Whether the process exited zero.
    exited_ok: bool,
    /// Failed checks (the result line's `failed`).
    failed: u64,
    /// End-to-end host seconds at the reference speed.
    host_s: f64,
    /// Per engine cell, the median over its samples of `run_s` in units of
    /// the reference measured around it.
    cells: Vec<(String, f64)>,
}

impl Run {
    fn passed(&self) -> bool {
        self.exited_ok && self.failed == 0
    }

    fn cell(&self, engine: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|(e, _)| e == engine)
            .map(|&(_, s)| s)
    }
}

/// Both sides' runs of one workload in one pair.
struct Pair {
    base: Run,
    change: Run,
}

impl Pair {
    /// The change/base time ratio of one engine cell, if both sides
    /// measured it.
    fn cell_ratio(&self, engine: &str) -> Option<f64> {
        Some(self.change.cell(engine)? / self.base.cell(engine)?)
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `end_to_end[host_s].bound` of a benchmark declaration.
fn host_s_bound(benchmark: &str) -> Result<f64, String> {
    let doc = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|metrics| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("host_s"))
        })
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json: no end_to_end host_s bound".into())
}

/// Reads one run: `failed` and `host_s` from the last line of its stdout,
/// the cells' samples from its `--json` document.
fn parse_run(stdout: &str, doc: &str, exited_ok: bool) -> Result<Run, String> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = Json::parse(line.unwrap_or("")).map_err(|e| format!("last stdout line: {e}"))?;
    let failed = result
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("last stdout line: no `failed`")?;
    let host_s = result
        .get("metrics")
        .and_then(|m| m.get("host_s"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or("last stdout line: no `host_s`")?;
    let doc = Json::parse(doc).map_err(|e| format!("--json document: {e}"))?;
    let mut cells = Vec::new();
    for cell in doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("--json document: no `cells`")?
    {
        let engine = cell.get("engine").and_then(Json::as_str);
        let samples = cell.get("samples").and_then(Json::as_arr);
        let (Some(engine), Some(samples)) = (engine, samples) else {
            return Err("--json document: a cell without `engine` or `samples`".into());
        };
        let times = samples
            .iter()
            .map(|s| {
                let field = |k| s.get(k).and_then(Json::as_f64);
                Some(field("run_s")? / (field("ref_s")? * field("ref_after_s")?).sqrt())
            })
            .collect::<Option<Vec<f64>>>()
            .ok_or("--json document: a sample without `run_s`, `ref_s` or `ref_after_s`")?;
        // A cell that failed keeps no samples; `failed` already counts it.
        if !times.is_empty() {
            cells.push((engine.to_string(), median(times)));
        }
    }
    Ok(Run {
        exited_ok,
        failed: failed as u64,
        host_s,
        cells,
    })
}

/// The engine cells the first base run measured, in its order. An engine
/// the change alone runs is never compared.
fn engines(pairs: &[Pair]) -> Vec<&str> {
    pairs.first().map_or(Vec::new(), |p| {
        p.base.cells.iter().map(|(e, _)| e.as_str()).collect()
    })
}

/// The change/base time ratios of one engine cell, over the pairs in which
/// both sides measured it.
fn cell_ratios(pairs: &[Pair], engine: &str) -> Vec<f64> {
    pairs.iter().filter_map(|p| p.cell_ratio(engine)).collect()
}

/// Whether the change is slower in most of `ratios` (change/base).
fn slower_in_most(ratios: &[f64]) -> bool {
    2 * ratios.iter().filter(|&&r| r > 1.0).count() > ratios.len()
}

/// Why one workload's pairs fail the gate; empty when they pass.
fn verdict(workload: &str, pairs: &[Pair], bound: f64) -> Vec<String> {
    let failed: Vec<String> = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.change.passed())
        .map(|(i, p)| {
            format!(
                "{workload}: pair {i}: the change's run failed {} check(s){}",
                p.change.failed,
                if p.change.exited_ok {
                    ""
                } else {
                    " and exited non-zero"
                }
            )
        })
        .collect();
    if !failed.is_empty() {
        return failed;
    }
    let mut why = Vec::new();
    let base = median(pairs.iter().map(|p| p.base.host_s).collect());
    let change = median(pairs.iter().map(|p| p.change.host_s).collect());
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|p| p.change.host_s / p.base.host_s)
        .collect();
    if change > base * (1.0 + bound) && slower_in_most(&ratios) {
        why.push(format!(
            "{workload}: median host_s {change:.3} s against the base's {base:.3} s ({}, bound {:.0} %)",
            percent(change / base),
            bound * 100.0
        ));
    }
    for engine in engines(pairs) {
        let ratios = cell_ratios(pairs, engine);
        let ratio = median(ratios.clone());
        if ratio > 1.0 + 2.0 * bound && slower_in_most(&ratios) {
            why.push(format!(
                "{workload}: {engine} cell median time ratio {ratio:.2} (limit {:.2})",
                1.0 + 2.0 * bound
            ));
        }
    }
    why
}

/// A change/base ratio as a signed percentage; `-` where a side lacks it.
fn percent(ratio: f64) -> String {
    if ratio.is_nan() {
        "-".into()
    } else {
        format!("{:+.1} %", (ratio - 1.0) * 100.0)
    }
}

/// The per-pair table of one workload: both sides' `host_s`, its change,
/// and each engine cell's change in time; the last row holds the medians.
fn table(workload: &str, pairs: &[Pair]) -> String {
    let engines = engines(pairs);
    let mut out = format!(
        "{workload}\n{:<6} {:<6} {:>9} {:>9} {:>9}",
        "pair", "first", "base", "change", "host_s"
    );
    for e in &engines {
        out.push_str(&format!(" {e:>9}"));
    }
    let mut row = |label: String, first: &str, base: f64, change: f64, cells: Vec<f64>| {
        out.push_str(&format!(
            "\n{label:<6} {first:<6} {base:>9.3} {change:>9.3} {:>9}",
            percent(change / base)
        ));
        for r in cells {
            out.push_str(&format!(" {:>9}", percent(r)));
        }
    };
    for (i, p) in pairs.iter().enumerate() {
        let cells = engines
            .iter()
            .map(|e| p.cell_ratio(e).unwrap_or(f64::NAN))
            .collect();
        let first = if i % 2 == 0 { "base" } else { "change" };
        row(i.to_string(), first, p.base.host_s, p.change.host_s, cells);
    }
    row(
        "median".into(),
        "",
        median(pairs.iter().map(|p| p.base.host_s).collect()),
        median(pairs.iter().map(|p| p.change.host_s).collect()),
        engines
            .iter()
            .map(|e| median(cell_ratios(pairs, e)))
            .collect(),
    );
    out
}

/// Runs `cmd` with its stderr shown; its stdout, or an error naming `what`.
fn output(cmd: &mut Command, what: &str) -> Result<String, String> {
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} failed ({})", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A detached git worktree of the base revision. Dropping it removes it,
/// so every exit path, an error or a panic included, cleans it up.
struct Worktree {
    root: PathBuf,
    path: PathBuf,
}

impl Worktree {
    fn add(root: &Path, path: PathBuf, rev: &str) -> Result<Worktree, String> {
        let tree = Worktree {
            root: root.to_path_buf(),
            path,
        };
        // The leftovers of an interrupted run.
        tree.remove();
        output(
            Command::new("git")
                .current_dir(root)
                .args(["worktree", "add", "--detach"])
                .arg(&tree.path)
                .arg(rev),
            "git worktree add",
        )?;
        Ok(tree)
    }

    fn remove(&self) {
        let _ = Command::new("git")
            .current_dir(&self.root)
            .args(["worktree", "remove", "--force"])
            .arg(&self.path)
            .stderr(Stdio::null())
            .status();
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = Command::new("git")
            .current_dir(&self.root)
            .args(["worktree", "prune"])
            .status();
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Builds the perfbench of the tree at `tree` into its own target
/// directory and returns the binary.
fn build(tree: &Path) -> Result<PathBuf, String> {
    let target = tree.join("perfbench/target");
    output(
        Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--manifest-path"])
            .arg(tree.join("perfbench/Cargo.toml"))
            .arg("--target-dir")
            .arg(&target),
        &format!("building perfbench in {}", tree.display()),
    )?;
    Ok(target.join("release/perfbench"))
}

/// One perfbench run of `workload` from `tree`. A change-side run that
/// exits non-zero without a readable result counts as a failed run, not a
/// parse error.
fn run(bin: &Path, tree: &Path, workload: &str, json: &Path, change: bool) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seconds", SECONDS, "--json"])
        .arg(json)
        .current_dir(tree)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let ok = out.status.success();
    let doc = std::fs::read_to_string(json).unwrap_or_default();
    match parse_run(&String::from_utf8_lossy(&out.stdout), &doc, ok) {
        Err(_) if change && !ok => Ok(Run {
            exited_ok: false,
            failed: 0,
            host_s: 0.0,
            cells: Vec::new(),
        }),
        parsed => parsed.map_err(|e| format!("{}: {e}", json.display())),
    }
}

/// The whole A/B: the failures of every workload, empty when it passes.
fn gate(rev: &str) -> Result<Vec<String>, String> {
    let bound = host_s_bound(BENCHMARK)?;
    let root = output(
        Command::new("git").args(["rev-parse", "--show-toplevel"]),
        "git rev-parse",
    )?;
    let root = PathBuf::from(root.trim());
    let dir = root.join("target/perf-gate");
    let runs = dir.join("runs");
    let _ = std::fs::remove_dir_all(&runs);
    std::fs::create_dir_all(&runs).map_err(|e| format!("cannot create {}: {e}", runs.display()))?;

    let worktree = Worktree::add(&root, dir.join("base"), rev)?;
    let base_bin = build(&worktree.path)?;
    let change_bin = build(&root)?;
    let mut pairs: Vec<Vec<Pair>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    'pairs: for i in 0..PAIRS {
        for (workload, done) in WORKLOADS.iter().zip(&mut pairs) {
            let json = |side: &str| runs.join(format!("{workload}.{i}.{side}.json"));
            let base = || run(&base_bin, &worktree.path, workload, &json("base"), false);
            let change = || run(&change_bin, &root, workload, &json("change"), true);
            let (base, change) = if i % 2 == 0 {
                let b = base()?;
                (b, change()?)
            } else {
                let c = change()?;
                (base()?, c)
            };
            eprintln!(
                "perf_gate: {workload} pair {i}: host_s base {:.3} change {:.3}",
                base.host_s, change.host_s
            );
            let stop = !change.passed();
            done.push(Pair { base, change });
            // The verdict is settled: spare the remaining runs.
            if stop {
                break 'pairs;
            }
        }
    }
    drop(worktree);

    let mut why = Vec::new();
    for (workload, pairs) in WORKLOADS.iter().zip(&pairs) {
        println!("{}\n", table(workload, pairs));
        why.extend(verdict(workload, pairs, bound));
    }
    Ok(why)
}

fn exit_code(outcome: &Result<Vec<String>, String>) -> u8 {
    match outcome {
        Ok(why) if why.is_empty() => 0,
        Ok(_) => 1,
        Err(_) => 2,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [flag, rev] if flag == "--base" => gate(rev),
        _ => Err(USAGE.to_string()),
    };
    match &outcome {
        Ok(why) if why.is_empty() => println!("perf_gate: pass"),
        Ok(why) => why.iter().for_each(|w| println!("perf_gate: FAIL {w}")),
        Err(e) => eprintln!("perf_gate: {e}"),
    }
    ExitCode::from(exit_code(&outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(host_s: f64, cells: &[(&str, f64)]) -> Run {
        Run {
            exited_ok: true,
            failed: 0,
            host_s,
            cells: cells.iter().map(|&(e, s)| (e.to_string(), s)).collect(),
        }
    }

    /// [`PAIRS`] identical pairs, each side's `host_s` the sum of its cells.
    fn pairs(base: &[(&str, f64)], change: &[(&str, f64)]) -> Vec<Pair> {
        let sum = |cells: &[(&str, f64)]| cells.iter().map(|c| c.1).sum();
        (0..PAIRS)
            .map(|_| Pair {
                base: run(sum(base), base),
                change: run(sum(change), change),
            })
            .collect()
    }

    const BOUND: f64 = 0.25;

    #[test]
    fn the_bound_comes_from_the_benchmark_declaration() {
        let bound = host_s_bound(BENCHMARK).expect("BENCHMARK.json declares host_s");
        assert!(bound > 0.0 && bound < 1.0);
        assert!(host_s_bound("{\"end_to_end\": []}").is_err());
    }

    #[test]
    fn a_wash_passes() {
        let p = pairs(
            &[("HOOP", 1.0), ("LSM", 2.0)],
            &[("HOOP", 1.1), ("LSM", 1.8)],
        );
        assert!(verdict("w", &p, BOUND).is_empty());
        assert!(table("w", &p).contains("+10.0 %"));
    }

    #[test]
    fn every_cell_thirty_percent_slower_fails_on_host_s() {
        let p = pairs(
            &[("HOOP", 1.0), ("LSM", 2.0)],
            &[("HOOP", 1.3), ("LSM", 2.6)],
        );
        let why = verdict("w", &p, BOUND);
        assert_eq!(why.len(), 1, "{why:?}");
        assert!(why[0].contains("host_s"));
    }

    #[test]
    fn a_single_engine_catastrophe_fails() {
        // HOOP +60 % while the others improve enough to keep host_s flat.
        let p = pairs(
            &[("HOOP", 1.0), ("LSM", 2.0), ("LAD", 1.0)],
            &[("HOOP", 1.6), ("LSM", 1.6), ("LAD", 0.78)],
        );
        let why = verdict("w", &p, BOUND);
        assert_eq!(why.len(), 1, "{why:?}");
        assert!(why[0].contains("HOOP") && !why[0].contains("host_s"));
    }

    #[test]
    fn an_engine_on_one_side_only_is_ignored() {
        let mut p = pairs(
            &[("HOOP", 1.0), ("Old", 9.0)],
            &[("HOOP", 1.0), ("New", 9.0)],
        );
        assert!(verdict("w", &p, BOUND).is_empty());
        p[0].change.cells.retain(|(e, _)| e != "HOOP");
        assert!(verdict("w", &p, BOUND).is_empty());
        let table = table("w", &p);
        assert!(table.contains("HOOP") && !table.contains("New"));
        assert!(table.lines().nth(2).is_some_and(|row| row.ends_with(" -")));
    }

    #[test]
    fn a_slowdown_in_two_of_five_pairs_passes() {
        // The change's median host_s (2.0) is past the bound of the base's
        // (1.0), but the change is slower only in pairs 0 and 1.
        let base = [1.0, 1.0, 1.0, 9.0, 9.0];
        let change = [2.0, 2.0, 0.9, 8.0, 8.0];
        let p: Vec<Pair> = base
            .iter()
            .zip(&change)
            .map(|(&b, &c)| Pair {
                base: run(b, &[("HOOP", b)]),
                change: run(c, &[("HOOP", c)]),
            })
            .collect();
        assert!(verdict("w", &p, BOUND).is_empty());
    }

    #[test]
    fn a_failed_change_run_fails() {
        let mut p = pairs(&[("HOOP", 1.0)], &[("HOOP", 1.0)]);
        p[3].change.failed = 1;
        assert_eq!(verdict("w", &p, BOUND).len(), 1);
        p[3].change.failed = 0;
        p[3].change.exited_ok = false;
        assert_eq!(verdict("w", &p, BOUND).len(), 1);
        // A failing base run is not the change's regression.
        p[3].change.exited_ok = true;
        p[3].base.failed = 1;
        assert!(verdict("w", &p, BOUND).is_empty());
    }

    const DOC: &str = r#"{"cells": [
        {"engine": "HOOP", "samples": [
            {"run_s": 0.5, "ref_s": 0.05, "ref_after_s": 0.05},
            {"run_s": 0.3, "ref_s": 0.05, "ref_after_s": 0.05},
            {"run_s": 0.8, "ref_s": 0.1, "ref_after_s": 0.1}
        ]},
        {"engine": "LSM", "samples": []}
    ]}"#;

    #[test]
    fn a_run_is_read_from_its_last_line_and_its_cells() {
        let stdout = "host cpu\nmetric host_s 2.5 s\n\
            {\"correct\": true, \"attempted\": 9, \"failed\": 0, \
            \"metrics\": {\"host_s\": {\"value\": 2.5, \"unit\": \"s\"}}}\n";
        let r = parse_run(stdout, DOC, true).expect("well-formed run");
        assert_eq!(r, run(2.5, &[("HOOP", 8.0)]));
    }

    #[test]
    fn a_malformed_last_line_exits_2() {
        let stdout = "host cpu\n{\"correct\": true, \"failed\": 0, \"metr";
        let outcome = parse_run(stdout, DOC, true).map(|_| Vec::new());
        assert!(outcome.is_err());
        assert_eq!(exit_code(&outcome), 2);
        assert_eq!(exit_code(&Ok(Vec::new())), 0);
        assert_eq!(exit_code(&Ok(vec!["slower".into()])), 1);
    }
}
