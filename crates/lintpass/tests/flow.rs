//! Flow-analysis properties: CFG totality and the old/new rule differential.
//!
//! 1. **Totality/losslessness**: for randomly composed function bodies
//!    (nested if/else, match, all three loop forms, early return, `?`,
//!    torn fragments), CFG construction must terminate and produce blocks
//!    that *partition* the body's significant tokens — every token in
//!    exactly one block — with all edges in-bounds, the virtual exit block
//!    terminal, and `return` statements edged to the exit.
//! 2. **Differential**: on *straight-line* functions, the flow-sensitive
//!    `persist-order` must agree exactly (same sites, same spans) with the
//!    retired token-order rule, kept as the executable specification
//!    [`lintpass::rules::token_order_commit_sites`]. `commit-in-branch`
//!    must never fire on straight-line code (must == may without
//!    branching). The two rules intentionally *diverge* on branching code
//!    — the fixture suite pins those cases.

use lintpass::cfg;
use lintpass::lint_source;
use lintpass::parse::{functions, sig_tokens};
use lintpass::rules::token_order_commit_sites;
use proptest::prelude::*;

/// Asserts the CFG invariants for every function found in `src`.
fn assert_cfg_total(src: &str) {
    let toks = sig_tokens(src);
    for f in functions(&toks) {
        let g = cfg::build(&toks, f.body);
        // Partition: every body token owned exactly once, in range order.
        let mut owned: Vec<usize> = g
            .blocks
            .iter()
            .flat_map(|b| b.toks.iter().copied())
            .collect();
        owned.sort_unstable();
        let expect: Vec<usize> = (f.body.0..f.body.1.min(toks.len())).collect();
        assert_eq!(owned, expect, "CFG does not partition body of:\n{src}");
        // Edges in-bounds; exit block terminal and token-free.
        for b in &g.blocks {
            for &s in &b.succs {
                assert!(s < g.blocks.len(), "dangling edge on:\n{src}");
            }
        }
        assert!(g.blocks[g.exit].succs.is_empty());
        assert!(g.blocks[g.exit].toks.is_empty());
        // Every `return` is edged to the exit from its own block.
        for (id, b) in g.blocks.iter().enumerate() {
            if b.toks.iter().any(|&t| toks[t].text == "return") {
                assert!(
                    b.succs.contains(&g.exit),
                    "return block {id} lacks exit edge on:\n{src}"
                );
            }
        }
    }
}

/// Leaf statements the seed-driven generator places at the bottom.
const LEAVES: &[&str] = &[
    "a();",
    "persist_x(1);",
    "self.probe.emit(Event::CommitRecord(tx), t);",
    "let x = y + 1;",
    "return;",
    "g(h(1), [2, 3])?;",
    "v.retain(|e| e.ok());",
];

/// Expands one construct from the seed stream, recursing up to `depth`.
/// Every control form the CFG models appears: if/else, bare if, all three
/// loops, labeled loops with break/continue, match with block and
/// expression arms.
fn gen_stmt(seeds: &mut std::slice::Iter<'_, u32>, depth: u32) -> String {
    let Some(&s) = seeds.next() else {
        return String::new();
    };
    if depth == 0 {
        return LEAVES[s as usize % LEAVES.len()].to_string();
    }
    match s % 10 {
        0 => {
            let (a, b) = (gen_stmt(seeds, depth - 1), gen_stmt(seeds, depth - 1));
            format!("if c {{ {a} }} else {{ {b} }}")
        }
        1 => format!("if c {{ {} }}", gen_stmt(seeds, depth - 1)),
        2 => format!("while c {{ {} }}", gen_stmt(seeds, depth - 1)),
        3 => format!("for x in v {{ {} }}", gen_stmt(seeds, depth - 1)),
        4 => format!("loop {{ {} break; }}", gen_stmt(seeds, depth - 1)),
        5 => format!(
            "'o: loop {{ if c {{ continue 'o; }} {} break 'o; }}",
            gen_stmt(seeds, depth - 1)
        ),
        6 => {
            let (a, b) = (gen_stmt(seeds, depth - 1), gen_stmt(seeds, depth - 1));
            format!("match v {{ A => {{ {a} }} B(x) => b(x), _ => {{ {b} }} }}")
        }
        7 => {
            let (a, b) = (gen_stmt(seeds, depth - 1), gen_stmt(seeds, depth - 1));
            format!("{a} {b}")
        }
        _ => LEAVES[s as usize % LEAVES.len()].to_string(),
    }
}

fn gen_body(seeds: &[u32]) -> String {
    let mut iter = seeds.iter();
    let mut body = String::new();
    while iter.len() > 0 {
        body.push_str(&gen_stmt(&mut iter, 3));
        body.push(' ');
    }
    body
}

/// Straight-line statement vocabulary for the differential test. None of
/// these trip `hook-coverage` (no audited burst primitives) so persist
/// findings are the only output.
const LINE_STMTS: &[&str] = &[
    "self.base.probe.emit(Event::PayloadWrite(tx, l), now);",
    "let s = self.fence(now);",
    "persist_line(l, img);",
    "self.flush_row(r, now);",
    "self.base.probe.emit(Event::CommitRecord(tx), now);",
    "track(l);",
    "let x = y + 1;",
    "self.stats.commits += 1;",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cfg_is_total_on_random_structured_bodies(
        seeds in prop::collection::vec(0u32..1000, 0..24),
    ) {
        assert_cfg_total(&format!("fn f() {{ {} }}", gen_body(&seeds)));
    }

    #[test]
    fn cfg_is_total_on_truncated_bodies(
        seeds in prop::collection::vec(0u32..1000, 0..24),
        cut in 0usize..40,
    ) {
        // Torn sources (mid-edit, half a statement) must still partition.
        let src = format!("fn f() {{ {} }}", gen_body(&seeds));
        let cut = src.len().saturating_sub(cut);
        if src.is_char_boundary(cut) {
            assert_cfg_total(&src[..cut]);
        }
    }

    #[test]
    fn straight_line_flow_rule_matches_token_order_spec(
        picks in prop::collection::vec(0usize..LINE_STMTS.len(), 0..10),
    ) {
        let mut body = String::new();
        for &p in &picks {
            body.push_str("    ");
            body.push_str(LINE_STMTS[p]);
            body.push('\n');
        }
        let src = format!("fn tx_end(&mut self) {{\n{body}}}\n");
        let report = lint_source("crates/engines/src/diff.rs", &src);
        let new_sites: Vec<(u32, u32)> = report
            .findings
            .iter()
            .filter(|f| f.rule == "persist-order")
            .map(|f| (f.line as u32, f.col as u32))
            .collect();
        let old_sites = token_order_commit_sites(&src);
        prop_assert_eq!(new_sites, old_sites, "divergence on:\n{}", src);
        // Straight-line code has must == may: the branch rule cannot fire.
        prop_assert!(
            report.findings.iter().all(|f| f.rule != "commit-in-branch"),
            "commit-in-branch on straight-line code:\n{}", src
        );
        // No loops means no may-zero paths: the dual loop model must stay
        // silent — advisories only exist for evidence confined to loops.
        prop_assert!(
            report.advisories.is_empty(),
            "advisory on straight-line code:\n{}", src
        );
    }
}

#[test]
fn differential_handwritten_straight_line_cases() {
    for (src, expect_fire) in [
        // Commit with no evidence anywhere: both rules fire.
        (
            "fn f(&mut self) {\n    self.probe.emit(Event::CommitRecord(tx), now);\n}\n",
            true,
        ),
        // Evidence before: both silent.
        (
            "fn f(&mut self) {\n    self.fence(now);\n    self.probe.emit(Event::CommitRecord(tx), now);\n}\n",
            false,
        ),
        // Evidence after: both fire (token order == path order here).
        (
            "fn f(&mut self) {\n    self.probe.emit(Event::CommitRecord(tx), now);\n    self.fence(now);\n}\n",
            true,
        ),
    ] {
        let report = lint_source("crates/engines/src/diff.rs", src);
        let new_fires = report.findings.iter().any(|f| f.rule == "persist-order");
        let old_fires = !token_order_commit_sites(src).is_empty();
        assert_eq!(new_fires, expect_fire, "flow rule on:\n{src}");
        assert_eq!(old_fires, expect_fire, "token-order spec on:\n{src}");
    }
}
