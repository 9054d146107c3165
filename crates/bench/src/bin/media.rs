//! Media-fault figure: effective lifetime and UE survival per engine.
//!
//! The companion of `ext_lifetime` with the deterministic media-fault model
//! armed: the paper's endurance argument (§I) says extra writes shorten NVM
//! lifetime, and this harness closes the loop by letting wear actually
//! *fault*. Every engine (plus the multi-controller HOOP variants) runs the
//! same fine-grained workload with a stress-scaled fault schedule — the
//! endurance cutoff sits within reach of the run, so hot lines wear out,
//! drift toward uncorrectable reads, get scrubbed, retired and remapped to
//! spares — and the harness reports:
//!
//! * **effective lifetime** — endurance cutoff over the hottest line's
//!   writes, normalized to HOOP (write amplification shortens it);
//! * **UE survival** — uncorrectable reads absorbed gracefully (ECC retry,
//!   patrol scrub, retire + remap) with zero declared data loss.
//!
//! Output: `results/media.json` (schema-versioned) and
//! `results/media.csv`. The document is a pure function of the seed:
//! the fault schedule is a `(seed, line, wear)` hash, all mutable media
//! state is confined to serial phases, and each cell owns its machine, so
//! `--jobs N` does not change a byte.
//!
//! ```text
//! media [--quick|--full] [--seed N] [--jobs N] [--sanitize]
//! ```

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::json::Json;
use hoop_bench::runner::{
    write_results_json, Cell, CellResult, EnduranceSummary, ExperimentPlan, RunnerOptions,
};
use simcore::config::{MediaConfig, SimConfig};
use workloads::driver::{Window, ENGINES};

/// The stress fault schedule: `MediaConfig::enabled(seed)` with the
/// endurance horizon pulled within the run's reach, so wear-outs, ECC
/// corrections, scrubbing and retirement all actually fire at the chosen
/// scale (the shipped `mild` curve needs ~10M writes per line — geological
/// time at simulation scale).
fn stress_config(seed: u64, scale: Scale) -> MediaConfig {
    let mut m = MediaConfig::enabled(seed);
    m.endurance_cutoff = match scale {
        Scale::Quick => 24,
        Scale::Full => 300,
    };
    // Drift ramps over a line's whole life instead of its last millenium.
    m.wear_scale = (m.endurance_cutoff / 4).max(1);
    // Wear-capped hot lines are usually cache-resident, so the patrol
    // scrubber is the read path that finds them; widen its batch so a
    // single pass sweeps a quick run's whole touched-line set.
    m.scrub_batch = match scale {
        Scale::Quick => 4096,
        Scale::Full => 16384,
    };
    m
}

/// A cell's wear summary (present: the armed media model tracks wear).
fn wear(r: &CellResult) -> &EnduranceSummary {
    r.endurance
        .as_ref()
        .expect("media faults imply endurance tracking")
}

fn main() {
    // The armed media model keeps the device's endurance map, so the wear
    // summary every cell reports costs nothing extra.
    let opts = RunnerOptions {
        endurance: true,
        ..RunnerOptions::from_args()
    };
    let seed = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--seed")
        .map_or(0, |w| w[1].parse().expect("--seed takes a number"));
    let scale = opts.scale;
    let sim = SimConfig {
        media: stress_config(seed, scale),
        ..SimConfig::default()
    };

    // hashmap-64B: the paper's canonical fine-grained updater.
    let wcfg = MATRIX[2];
    // Sized so every engine's run spans several 1 ms patrol-scrub periods
    // (2.5M cycles each): wear-capped but cache-hot lines are only ever
    // *read* by the scrubber, so the retire/remap path needs it to fire.
    let txs = match scale {
        Scale::Quick => 45_000,
        Scale::Full => 150_000,
    };
    // Every engine runs the matrix spec's fixed seed over a 200-transaction
    // warmup and a fixed-length window.
    let cells = ENGINES
        .into_iter()
        .chain(["HOOP-MC2", "HOOP-MC4"])
        .map(|engine| Cell {
            spec: spec_for(wcfg, scale),
            window: Window::new(200, txs),
            ..Cell::new(engine, wcfg, sim, scale)
        })
        .collect();
    let results = ExperimentPlan::from_cells("media", cells, scale).run(&opts);

    println!(
        "== Media faults: lifetime & UE survival ({} / {} txs, cutoff {}, seed {}) ==",
        wcfg.label, txs, sim.media.endurance_cutoff, seed
    );
    println!(
        "{:<10}{:>10}{:>12}{:>8}{:>8}{:>9}{:>9}{:>10}{:>12}",
        "engine", "hottest", "corrected", "UE", "retired", "spares", "scrubs", "lost", "lifetime"
    );

    let cutoff = sim.media.endurance_cutoff;
    let lifetime_of = |r: &CellResult| cutoff as f64 / wear(r).max_line_writes.max(1) as f64;
    let hoop_life = lifetime_of(
        results
            .iter()
            .find(|r| r.engine == "HOOP")
            .expect("HOOP ran"),
    );
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for r in &results {
        let (engine, media, wear) = (r.engine, r.report.media, wear(r));
        // Demand reads always deliver the store's true bytes (UEs cost
        // latency and trigger retirement); data loss can only be *declared*
        // by a recovery path, so a live run must stay loss-free — that is
        // the UE-survival claim. (The runner already rejects a cell whose
        // structures fail verification.)
        assert_eq!(media.data_loss, 0, "{engine}: declared data loss mid-run");
        assert!(media.reads > 0, "{engine}: fault model saw no reads");
        let lifetime = lifetime_of(r);
        let vs_hoop = lifetime / hoop_life;
        println!(
            "{:<10}{:>10}{:>12}{:>8}{:>8}{:>9}{:>9}{:>10}{:>12.2}",
            engine,
            wear.max_line_writes,
            media.corrected,
            media.uncorrectable,
            media.retired,
            media.spare_exhausted,
            media.scrub_rewrites,
            media.data_loss,
            vs_hoop,
        );
        rows.push(format!(
            "{engine},{},{},{},{},{},{},{},{},{:.4},{:.4}",
            wear.total_line_writes,
            wear.max_line_writes,
            media.corrected,
            media.uncorrectable,
            media.retired,
            media.spare_exhausted,
            media.scrub_rewrites,
            media.data_loss,
            lifetime,
            vs_hoop,
        ));
        cells.push(Json::obj([
            ("engine", Json::Str(engine.to_string())),
            ("cycles", Json::UInt(r.report.cycles)),
            ("endurance", wear.to_json()),
            (
                "media",
                Json::obj([
                    ("reads", Json::UInt(media.reads)),
                    ("corrected", Json::UInt(media.corrected)),
                    ("uncorrectable", Json::UInt(media.uncorrectable)),
                    ("retries", Json::UInt(media.retries)),
                    ("scrub_rewrites", Json::UInt(media.scrub_rewrites)),
                    ("retired", Json::UInt(media.retired)),
                    ("spare_exhausted", Json::UInt(media.spare_exhausted)),
                    ("data_loss", Json::UInt(media.data_loss)),
                ]),
            ),
            ("effective_lifetime", Json::Num(lifetime)),
            ("lifetime_vs_hoop", Json::Num(vs_hoop)),
            ("ue_survived", Json::Bool(media.data_loss == 0)),
        ]));
    }

    write_csv(
        "media",
        "engine,total_line_writes,hottest_line,corrected,uncorrectable,retired,\
         spare_exhausted,scrub_rewrites,data_loss,effective_lifetime,lifetime_vs_hoop",
        &rows,
    );
    write_results_json(
        "media",
        scale,
        [
            ("media_seed", Json::UInt(seed)),
            ("workload", Json::Str(wcfg.label.to_string())),
            (
                "fault_config",
                Json::obj([
                    ("endurance_cutoff", Json::UInt(sim.media.endurance_cutoff)),
                    ("wear_scale", Json::UInt(sim.media.wear_scale)),
                    ("ecc_t", Json::UInt(u64::from(sim.media.ecc_t))),
                    ("max_retries", Json::UInt(u64::from(sim.media.max_retries))),
                    ("spare_lines", Json::UInt(sim.media.spare_lines)),
                    ("scrub_period_ms", Json::UInt(sim.media.scrub_period_ms)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ],
    );
}
