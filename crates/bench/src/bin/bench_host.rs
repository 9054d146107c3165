//! Host-time benchmark of the simulator itself (the `xtask bench` backend).
//!
//! Times one fixed cell (hashmap/64B) per engine on the host clock, prints
//! one parseable `key=value` line per engine to stderr, and writes the
//! schema-versioned document to `results/bench_host.json` (full scale) or
//! `results/bench_host_quick.json` (`--quick`).
//!
//! ```text
//! bench_host [--quick|--full] [--engine NAME]... [--out PATH] [--check [PATH]]
//! ```
//!
//! `--engine` limits the run to the named engines (repeatable,
//! case-insensitive). `--check` compares the fresh run against the committed
//! baseline (the default or given path) *before* overwriting it and exits
//! nonzero when any engine's calibrated time regressed by more than 25 % —
//! the CI regression gate. The fresh document is written either way so the
//! artifact of a failing run shows the offending numbers.

use std::path::PathBuf;
use std::process::ExitCode;

use hoop_bench::experiments::Scale;
use hoop_bench::hostbench::{self, REGRESSION_THRESHOLD};

struct Args {
    scale: Scale,
    engines: Vec<String>,
    out: Option<PathBuf>,
    check: Option<Option<PathBuf>>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Full,
        engines: Vec::new(),
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--engine" => {
                let name = it.next().ok_or("--engine needs a name")?;
                args.engines.push(name);
            }
            "--out" => {
                let path = it.next().ok_or("--out needs a path")?;
                args.out = Some(PathBuf::from(path));
            }
            "--check" => {
                // Optional path operand: `--check custom.json`.
                let path = it
                    .peek()
                    .filter(|p| !p.starts_with("--"))
                    .map(PathBuf::from);
                if path.is_some() {
                    it.next();
                }
                args.check = Some(path);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_host: {e}");
            eprintln!(
                "usage: bench_host [--quick|--full] [--engine NAME]... [--out PATH] [--check [PATH]]"
            );
            return ExitCode::from(2);
        }
    };
    let default_out = PathBuf::from(match args.scale {
        Scale::Quick => "results/bench_host_quick.json",
        Scale::Full => "results/bench_host.json",
    });
    let out = args.out.clone().unwrap_or_else(|| default_out.clone());

    // Read the baseline *before* the run overwrites it.
    let baseline = match &args.check {
        Some(path) => {
            let path = path.clone().unwrap_or_else(|| default_out.clone());
            match hostbench::load_baseline(&path) {
                Ok(doc) => Some((path, doc)),
                Err(e) => {
                    eprintln!("bench_host: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let run = hostbench::run(args.scale, &args.engines);
    if run.engines.is_empty() {
        eprintln!("bench_host: no engine matched {:?}", args.engines);
        return ExitCode::from(2);
    }
    eprintln!(
        "calibration_seconds={:.3} geomean_host_seconds={:.3}",
        run.calibration_seconds,
        run.geomean_host_seconds()
    );

    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
            eprintln!("bench_host: cannot create {}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&out, run.to_json().pretty()) {
        eprintln!("bench_host: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out.display());

    let Some((path, doc)) = baseline else {
        return ExitCode::SUCCESS;
    };
    match hostbench::check_against(&run, &doc) {
        Ok(report) => {
            for l in &report.lines {
                println!(
                    "check engine={} baseline={:.3} current={:.3} delta={:+.1}% {}",
                    l.engine,
                    l.baseline,
                    l.current,
                    l.delta * 100.0,
                    if l.regressed { "REGRESSED" } else { "ok" }
                );
            }
            println!(
                "check geomean baseline={:.3} current={:.3} delta={:+.1}% {}",
                report.geomean_baseline,
                report.geomean_current,
                report.geomean_delta * 100.0,
                if report.geomean_delta > REGRESSION_THRESHOLD {
                    "REGRESSED"
                } else {
                    "ok"
                }
            );
            if report.failed() {
                eprintln!(
                    "bench_host: calibrated host time regressed >{:.0}% vs {}",
                    REGRESSION_THRESHOLD * 100.0,
                    path.display()
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_host: {e}");
            ExitCode::from(2)
        }
    }
}
