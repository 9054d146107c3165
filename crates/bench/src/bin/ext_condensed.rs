//! Extension experiment (§III-I): mapping-entry condensation.
//!
//! The paper's closing future-work idea: "condense multiple mapping entries
//! into one by exploiting the data locality \[12]". This harness records
//! each workload's transactional store stream, derives the (home line →
//! slice slot) insert stream HOOP's append-only allocation produces, and
//! feeds it to both the flat hash mapping table and the range-condensed
//! variant — reporting how many SRAM entries condensation saves.

use engines::trace::Event;
use hoop::condensed::CondensedMappingTable;
use hoop::mapping::MappingTable;
use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX, TPCC};
use simcore::addr::Line;
use simcore::config::SimConfig;
use simcore::CoreId;
use workloads::driver::{build_system, build_workload};

fn main() {
    let sim = SimConfig::default();
    let scale = Scale::from_args();
    let configs = [
        MATRIX[0], MATRIX[2], MATRIX[4], MATRIX[6], MATRIX[8], MATRIX[10], TPCC,
    ];

    println!("== Extension: mapping-table condensation (§III-I / ref [12]) ==");
    println!(
        "{:<12}{:>12}{:>14}{:>14}{:>10}",
        "workload", "line-maps", "flat entries", "ranges", "factor"
    );
    let mut rows = Vec::new();
    for wcfg in configs {
        let mut spec = spec_for(wcfg, Scale::Quick);
        spec.items = 1024;
        let mut sys = build_system("Ideal", &sim);
        let mut w = build_workload(spec, 0);
        w.setup(&mut sys, CoreId(0));
        sys.start_recording(false);
        let txs = match scale {
            Scale::Quick => 500,
            Scale::Full => 5000,
        };
        for _ in 0..txs {
            w.run_tx(&mut sys, CoreId(0));
        }
        let trace = sys.take_trace();

        // Derive HOOP's (line, slot) insert stream: words pack eight to a
        // slice, slices take consecutive slots.
        let mut flat = MappingTable::new(1 << 20);
        let mut cond = CondensedMappingTable::new();
        let mut word_count = 0u64;
        let mut inserts = 0u64;
        for ev in &trace {
            if let Event::StoreShape { addr, len, .. } = ev {
                for k in 0..(u64::from(*len) / 8).max(1) {
                    let line = Line((addr + k * 8) / 64);
                    let slot = (word_count / 8) as u32;
                    flat.insert(line, slot, 0xFF);
                    cond.insert(line, slot);
                    word_count += 1;
                    inserts += 1;
                }
            }
        }
        println!(
            "{:<12}{:>12}{:>14}{:>14}{:>10.2}",
            wcfg.label,
            inserts,
            flat.len(),
            cond.entries(),
            flat.len() as f64 / cond.entries().max(1) as f64
        );
        rows.push(format!(
            "{},{},{},{},{:.4}",
            wcfg.label,
            inserts,
            flat.len(),
            cond.entries(),
            flat.len() as f64 / cond.entries().max(1) as f64
        ));
    }
    write_csv(
        "ext_condensed_mapping",
        "workload,line_mappings,flat_entries,range_entries,savings_factor",
        &rows,
    );
    println!("\nfactor = flat entries / range entries: how much SRAM the");
    println!("condensed table saves at the same reach. Sequential access");
    println!("patterns condense strongly; scattered Zipfian updates less so.");
}
