//! `perfbench`: the HOOP simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! ```
//!
//! One run measures one workload for `--seconds` (default 30) with tracing
//! off and checks every simulated result. With `--trace 1` it then reruns
//! each cell behind an engine observer and replays the workload's access
//! stream against single layers. It prints the host fingerprint, one
//! `metric <name> <value> <unit>` line per metric — the `end_to_end`
//! metrics of `BENCHMARK.json`, or with `--trace 1` its `per_layer`
//! metrics — and, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--json FILE` also writes every
//! metric, cell sample, span and per-method aggregate to FILE. The exit
//! code is 1 when a check failed, 2 on bad arguments.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod observer;
mod system;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use hoop_bench::json::Json;

use crate::host::{Fingerprint, Metrics};
use crate::workloads::{Run, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";

struct Args {
    run: Run,
    json: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut json) = (None, 30.0, false, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        run: Run {
            workload: workload.ok_or("--workload is required")?,
            size: Size::full(),
            seed,
            seconds,
            trace,
        },
        json,
    })
}

/// The final stdout line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}` on one line. Values keep
/// every digit Rust's shortest round-trip formatting gives.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .0
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::measure();
    println!("{}", host.line());
    let run = args.run;
    let mut outcome = workloads::run(&run, &host);
    let end_to_end = outcome.end_to_end.metrics();
    let reported = match &outcome.layers {
        Some(layers) => layers.metrics(),
        None => end_to_end.clone(),
    };
    for m in &reported.0 {
        outcome.checks.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    let checks = &outcome.checks;
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = checks.failed == 0;

    if let Some(path) = &args.json {
        let mut doc = vec![
            ("workload", Json::Str(run.workload.name().to_string())),
            ("seed", Json::UInt(run.seed())),
            ("seconds", Json::Num(run.seconds)),
            ("host", host.to_json()),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(checks.attempted)),
            ("failed", Json::UInt(checks.failed)),
            (
                "failures",
                Json::Arr(
                    checks
                        .failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end", metrics_json(&end_to_end)),
        ];
        if let Some(layers) = &outcome.layers {
            doc.push(("per_layer", metrics_json(&layers.metrics())));
        }
        doc.extend(outcome.detail);
        if let Err(e) = std::fs::write(path, Json::obj(doc).pretty()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for m in &reported.0 {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(correct, checks.attempted, checks.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    fn declared(key: &str) -> BTreeSet<(String, String)> {
        let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn emitted(metrics: &Metrics) -> BTreeSet<(String, String)> {
        let set: BTreeSet<_> = metrics
            .0
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(set.len(), metrics.0.len(), "a metric is emitted twice");
        set
    }

    /// The in-tree gate: every workload, at a smoke size, passes its checks
    /// and emits exactly the metrics `BENCHMARK.json` declares, by name and
    /// unit, untraced and traced.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        let host = Fingerprint {
            available_parallelism: 2,
            cpu: "test".into(),
            rustc: "test".into(),
            git: "test".into(),
            spin_serial_s: 1.0,
            spin_parallel_s: 0.5,
        };
        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = Run {
                    workload,
                    size: Size::smoke(),
                    seed: None,
                    seconds: 0.0,
                    trace,
                };
                let out = workloads::run(&run, &host);
                assert_eq!(
                    (out.checks.attempted > 0, out.checks.failed),
                    (true, 0),
                    "{}: {:?}",
                    workload.name(),
                    out.checks.failures
                );
                let e2e = out.end_to_end.metrics();
                assert_eq!(emitted(&e2e), declared("end_to_end"), "{}", workload.name());
                assert!(e2e.0.iter().all(|m| m.value.is_finite() && m.value != 0.0));
                let layers = out.layers.map(|l| l.metrics());
                match (trace, layers) {
                    (true, Some(l)) => {
                        assert_eq!(emitted(&l), declared("per_layer"), "{}", workload.name());
                        assert!(l.0.iter().all(|m| m.value.is_finite()));
                    }
                    (false, None) => {}
                    (t, l) => panic!("trace={t} but per-layer metrics {}", l.is_some()),
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "tree-btree",
            "--seed",
            "3",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.run.workload, Workload::TreeBtree);
        assert_eq!(
            (a.run.seed, a.run.seconds, a.run.trace),
            (Some(3), 2.5, true)
        );
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "read-ycsb", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "read-ycsb", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "read-ycsb", "--bogus"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("host_s", 1.25, "s");
        m.push("setup_s", 0.5, "s");
        let line = result_line(true, 3, 0, &m);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let v = doc.get("metrics").and_then(|m| m.get("host_s"));
        assert_eq!(
            v.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
    }
}
