//! Regenerates the committed trace pack (the `xtask trace` backend).
//!
//! ```text
//! trace_pack [--quick|--full] [--dir DIR] [--jobs N] [--depth N]
//! ```
//!
//! Records one engine-blind trace per workload row of the experiment grid
//! (the Figs. 7–9 matrix plus the Table IV rows) into `--dir` (default:
//! the committed `traces/quick` pack). Recording is deterministic, so
//! regenerating an up-to-date pack is byte-identical — CI gates pack
//! currency with `git diff --exit-code -- traces/`.

use std::path::PathBuf;

use hoop_bench::experiments::Scale;
use hoop_bench::runner::{RunMode, RunnerOptions};
use hoop_bench::tracepack::{record_pack, QUICK_PACK_DIR};

fn main() {
    let opts = RunnerOptions::from_args();
    if !matches!(opts.mode, RunMode::Live) {
        panic!("trace_pack always records; use --dir, not --record/--replay");
    }
    // Unlike the figure binaries, the pack defaults to quick scale: the
    // committed artifact must stay small and regenerate in CI time.
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let dir = std::env::args()
        .skip_while(|a| a != "--dir")
        .nth(1)
        .map(PathBuf::from)
        .or_else(|| std::env::args().find_map(|a| a.strip_prefix("--dir=").map(PathBuf::from)))
        .unwrap_or_else(|| PathBuf::from(QUICK_PACK_DIR));
    eprintln!("recording {} pack into {}", scale.name(), dir.display());
    record_pack(&dir, scale, opts.jobs, opts.depth);
    println!("trace pack written to {}", dir.display());
}
