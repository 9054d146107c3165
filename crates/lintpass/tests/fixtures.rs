//! Fixture suite: for every rule, a known-bad snippet where the rule must
//! fire **exactly once** at the expected line:col — plus the known-good twin
//! that must stay silent. This pins the analyzer's precision (span accuracy)
//! and recall (the cases the old regex scanner missed).

use lintpass::{lint_source, Finding, LintReport};

/// Asserts `src` yields exactly one finding of `rule` at `line`:`col`.
fn fires_once(path: &str, src: &str, rule: &str, line: usize, col: usize) -> Finding {
    let r = lint_source(path, src);
    let hits: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "rule {rule} should fire exactly once on:\n{src}\nall findings: {:?}",
        r.findings
    );
    assert_eq!(
        (hits[0].line, hits[0].col),
        (line, col),
        "span mismatch for {rule} on:\n{src}"
    );
    hits[0].clone()
}

fn clean(path: &str, src: &str) -> LintReport {
    let r = lint_source(path, src);
    assert!(
        r.is_clean(),
        "expected clean, got: {:?}\nsource:\n{src}",
        r.findings
    );
    r
}

/// Asserts `src` yields exactly one *advisory* of `rule` at `line`:`col`
/// while staying clean on the error channel.
fn advisory_once(path: &str, src: &str, rule: &str, line: usize, col: usize) -> Finding {
    let r = lint_source(path, src);
    assert!(
        r.is_clean(),
        "advisories must not land as findings: {:?}\nsource:\n{src}",
        r.findings
    );
    let hits: Vec<&Finding> = r.advisories.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "advisory {rule} should fire exactly once on:\n{src}\nall advisories: {:?}",
        r.advisories
    );
    assert_eq!(
        (hits[0].line, hits[0].col),
        (line, col),
        "span mismatch for advisory {rule} on:\n{src}"
    );
    hits[0].clone()
}

// ------------------------------------------------------- comment/string masking

// The token rules never see comments or string literals. The removed
// generic rules (`det-hash`, `wall-clock`, ...) once carried these checks;
// `shard-shared-mut` and `lossy-cycle-cast` are the token rules left.

#[test]
fn shard_shared_mut_ignores_strings_comments_and_prefixed_idents() {
    clean(
        "crates/engines/src/x.rs",
        "// static mut X: Rc<u64>\nfn f() { let s = \"RefCell<u64>\"; let m: FxRefCell<u64> = FxRefCell::new(); let d: DetCell<u64> = DetCell::default(); }\n",
    );
}

#[test]
fn hazards_in_block_comments_and_raw_strings_are_ignored() {
    let src = r##"
/* static mut X: Mutex<u64> in a block comment */
fn f() {
    let r = r#"RefCell<u64> now as u32"#;
}
"##;
    clean("crates/engines/src/x.rs", src);
}

#[test]
fn shard_shared_mut_ignores_raw_string_fixture() {
    // Raw strings with hashes were a blind spot for quote-counting scanners.
    clean(
        "crates/engines/src/x.rs",
        "fn f() -> &'static str { r#\"Mutex<u64>\"# }\n",
    );
}

#[test]
fn lossy_cycle_cast_in_comment_is_ignored() {
    clean("crates/engines/src/x.rs", "/* now as u32 */ fn f() {}\n");
}

#[test]
fn static_mut_in_string_is_clean() {
    clean(
        "crates/engines/src/x.rs",
        "fn f() -> &'static str { \"static mut\" }\n",
    );
}

#[test]
fn shard_shared_mut_and_lossy_cycle_cast_both_fire_on_one_line() {
    // One finding per rule per line, not one per line.
    let r = lint_source(
        "crates/engines/src/x.rs",
        "static mut EPOCH: u64 = 0; fn f(now: Cycle) -> u32 { now as u32 }\n",
    );
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["shard-shared-mut", "lossy-cycle-cast"]);
}

// ----------------------------------------------------------- persist-order

/// A deliberately broken mini-engine: the commit record is announced before
/// any payload byte was persisted — the exact §III-G ordering violation the
/// runtime sanitizer catches dynamically, caught here at the source level.
const BROKEN_MINI_ENGINE: &str = r#"
impl PersistenceEngine for BrokenEngine {
    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        // BUG: durable commit point announced first...
        self.base.probe.emit(Event::CommitRecord(tx), now);
        // ...payload only persisted afterwards.
        for (l, img) in lines {
            self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
            self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
        }
        CommitOutcome { latency: 0, clean_lines: Vec::new() }
    }
}
"#;

#[test]
fn persist_order_fires_on_broken_mini_engine() {
    let f = fires_once(
        "crates/engines/src/broken.rs",
        BROKEN_MINI_ENGINE,
        "persist-order",
        6,
        37,
    );
    assert!(f.snippet.contains("CommitRecord"));
}

#[test]
fn persist_order_accepts_payload_before_commit() {
    // The fixed twin: persist the payload, then announce the commit record.
    let src = r#"
impl PersistenceEngine for FixedEngine {
    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        for (l, img) in lines {
            self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
            self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
        }
        self.base.probe.emit(Event::CommitRecord(tx), now);
        CommitOutcome { latency: 0, clean_lines: Vec::new() }
    }
}
"#;
    clean("crates/engines/src/fixed.rs", src);
}

#[test]
fn persist_order_accepts_write_burst_as_evidence() {
    let src = "fn tx_end(&mut self) {\n    let done = self.base.write_burst(slot, bytes, now, TrafficClass::Log);\n    self.base.probe.emit(Event::CommitRecord(tx), done);\n}\n";
    clean("crates/engines/src/log.rs", src);
}

#[test]
fn persist_order_accepts_flush_prefixed_calls_as_evidence() {
    let src = "fn tx_end(&mut self) {\n    let stall = self.flush_slice(ci, remainder, now, true);\n    self.base.probe.emit(Event::CommitRecord(tx), now + stall);\n}\n";
    clean("crates/hoop/src/mini.rs", src);
}

#[test]
fn persist_order_is_scoped_to_engine_crates() {
    // The same broken body outside crates/engines or crates/hoop is exempt
    // (e.g. the sanitizer's own tests exercise violations on purpose).
    clean("tests/sanitizer_detects.rs", BROKEN_MINI_ENGINE);
}

#[test]
fn persist_order_checks_each_function_independently() {
    // Evidence in an *earlier* function must not excuse a later one.
    let src = r#"
fn good(&mut self) {
    self.base.write_burst(slot, bytes, now, TrafficClass::Log);
    self.base.probe.emit(Event::CommitRecord(tx), done);
}
fn bad(&mut self) {
    self.base.probe.emit(Event::CommitRecord(tx), done);
}
"#;
    fires_once("crates/engines/src/two.rs", src, "persist-order", 7, 33);
}

// --------------------------------------------------------- commit-in-branch

/// The branch-shaped §III-G violation the token-order rule could not see:
/// the payload persist sits in one `if` arm only, yet the commit record is
/// announced unconditionally. In token order the evidence comes *earlier*,
/// so the old rule stayed silent; on the CFG the evidence is may-but-not-
/// must at the commit site.
const COMMIT_IN_BRANCH_ENGINE: &str = r#"
impl PersistenceEngine for BranchyEngine {
    fn tx_end(&mut self, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        if self.fast_path {
            for (l, img) in lines {
                self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
                self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
            }
        }
        // BUG: on the slow path nothing was persisted, yet the commit
        // record is announced unconditionally.
        self.base.probe.emit(Event::CommitRecord(tx), now);
        CommitOutcome { latency: 0, clean_lines: Vec::new() }
    }
}
"#;

#[test]
fn commit_in_branch_fires_where_token_order_was_blind() {
    let f = fires_once(
        "crates/engines/src/branchy.rs",
        COMMIT_IN_BRANCH_ENGINE,
        "commit-in-branch",
        13,
        37,
    );
    assert!(f.snippet.contains("CommitRecord"));
    // The old token-order rule mis-handles this exact source: the arm's
    // evidence appears earlier in the token stream, so it reports nothing.
    assert!(
        lintpass::rules::token_order_commit_sites(COMMIT_IN_BRANCH_ENGINE).is_empty(),
        "token-order spec unexpectedly caught the branch case"
    );
    // And plain persist-order must not double-report the same site.
    let r = lint_source("crates/engines/src/branchy.rs", COMMIT_IN_BRANCH_ENGINE);
    assert!(r.findings.iter().all(|f| f.rule != "persist-order"));
}

#[test]
fn commit_in_branch_cleared_when_both_arms_persist() {
    let src = r#"
fn tx_end(&mut self, tx: TxId, now: Cycle) {
    if self.fast_path {
        self.base.probe.emit(Event::PayloadWrite(tx, l), now);
    } else {
        self.flush_all(tx, now);
    }
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    clean("crates/engines/src/botharms.rs", src);
}

/// Persist-via-helper: the payload persist lives in `drain_to_home`, whose
/// one-level call-graph summary carries the evidence to the call site in
/// `tx_end`. The old token-order rule false-positives here (no evidence
/// inside `tx_end` itself).
const HELPER_PERSIST_ENGINE: &str = r#"
impl PersistenceEngine for HelperEngine {
    fn drain_to_home(&mut self, tx: TxId, now: Cycle) {
        for (l, img) in self.active.remove(&tx).expect("tx") {
            self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
            self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
        }
    }
    fn tx_end(&mut self, tx: TxId, now: Cycle) -> CommitOutcome {
        self.drain_to_home(tx, now);
        self.base.probe.emit(Event::CommitRecord(tx), now);
        CommitOutcome { latency: 0, clean_lines: Vec::new() }
    }
}
"#;

#[test]
fn persist_via_helper_is_cleared_by_call_graph() {
    clean("crates/engines/src/helper.rs", HELPER_PERSIST_ENGINE);
    // The old token-order rule mis-handles this source the other way: a
    // false positive at the commit site (line 11, col 37).
    assert_eq!(
        lintpass::rules::token_order_commit_sites(HELPER_PERSIST_ENGINE),
        vec![(11, 37)],
        "token-order spec should false-positive on the helper shape"
    );
}

#[test]
fn helper_evidence_propagates_to_any_depth() {
    // outer -> mid -> leaf(persists): under the one-level summaries this
    // was a documented false positive (mid's summary did not persist);
    // the worklist fixpoint closes the chain, so outer's commit is clean.
    let src = r#"
fn leaf(&mut self) { persist_line(l); }
fn mid(&mut self) { self.leaf(); }
fn outer(&mut self) {
    self.mid();
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    clean("crates/engines/src/deep.rs", src);
}

#[test]
fn three_deep_chain_with_real_break_still_convicts() {
    // Depth is unlimited, but the chain must actually reach a persist:
    // outer -> mid -> leaf where leaf only logs is still a violation.
    let src = r#"
fn leaf(&mut self) { self.note(l); }
fn mid(&mut self) { self.leaf(); }
fn outer(&mut self) {
    self.mid();
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    fires_once("crates/engines/src/deep.rs", src, "persist-order", 6, 33);
}

#[test]
fn mutual_recursion_in_evidence_chain_terminates_and_clears() {
    // a <-> b recurse into each other; b persists on the base case. The
    // fixpoint must terminate and both summaries carry the evidence.
    let src = r#"
fn a(&mut self, n: u64) { if n > 0 { self.b(n - 1); } }
fn b(&mut self, n: u64) { persist_line(n); self.a(n); }
fn outer(&mut self) {
    self.a(4);
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    clean("crates/engines/src/mutual.rs", src);
}

// ------------------------------------------------------ persist-in-loop-only

/// The zero-iteration gap: every path carrying persist evidence runs the
/// `for` body, so dominance holds only under the at-least-once model. An
/// empty transaction would write the commit record with nothing persisted —
/// a legitimate shape (the record covers nothing), hence advisory severity.
const LOOP_ONLY_ENGINE: &str = r#"
fn tx_end(&mut self, tx: TxId, now: Cycle) -> CommitOutcome {
    let lines = self.active.remove(&tx).expect("commit of unknown tx");
    for (l, img) in lines {
        self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
        self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
    }
    self.base.probe.emit(Event::CommitRecord(tx), now);
    CommitOutcome { latency: 0, clean_lines: Vec::new() }
}
"#;

#[test]
fn persist_in_loop_only_is_an_advisory_not_an_error() {
    let f = advisory_once(
        "crates/engines/src/drainloop.rs",
        LOOP_ONLY_ENGINE,
        "persist-in-loop-only",
        8,
        33,
    );
    assert!(f.snippet.contains("CommitRecord"));
}

#[test]
fn evidence_before_the_loop_silences_the_advisory() {
    let src = r#"
fn tx_end(&mut self, tx: TxId, now: Cycle) {
    self.flush_meta(tx, now);
    for (l, img) in lines {
        self.base.write_home_line(Line(l), &img, now, TrafficClass::Data);
        self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now);
    }
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    let r = lint_source("crates/engines/src/premeta.rs", src);
    assert!(
        r.is_clean() && r.advisories.is_empty(),
        "{:?}",
        r.advisories
    );
}

#[test]
fn bare_loop_bodies_count_as_executing() {
    // A bare `loop` exits only via break: its body genuinely runs, so no
    // advisory (the zero-iteration bypass exists only for while/for).
    let src = r#"
fn tx_end(&mut self, tx: TxId, now: Cycle) {
    loop {
        self.base.probe.emit(Event::PayloadWrite(tx, l), now);
        if self.done { break; }
    }
    self.base.probe.emit(Event::CommitRecord(tx), now);
}
"#;
    let r = lint_source("crates/engines/src/bareloop.rs", src);
    assert!(
        r.is_clean() && r.advisories.is_empty(),
        "{:?}",
        r.advisories
    );
}

// ------------------------------------------------------------ hook-coverage

#[test]
fn hook_coverage_fires_on_unobserved_burst() {
    let src = "fn spill(&mut self, now: Cycle) {\n    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);\n}\n";
    fires_once("crates/engines/src/spill.rs", src, "hook-coverage", 2, 15);
}

#[test]
fn hook_coverage_accepts_direct_notification() {
    let src = "fn spill(&mut self, now: Cycle) {\n    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);\n    self.base.probe.emit(Event::EvictDirty(Line(slot), persistent), now);\n}\n";
    clean("crates/engines/src/spill.rs", src);
}

#[test]
fn hook_coverage_ignores_valve_only_events() {
    // A valve-only variant ticks the crash valve but tells the sanitizer
    // nothing, so the burst is still unobserved.
    let src = "fn spill(&mut self, now: Cycle) {\n    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);\n    self.base.probe.emit(Event::Payload, now);\n}\n";
    fires_once("crates/engines/src/spill.rs", src, "hook-coverage", 2, 15);
}

#[test]
fn hook_coverage_accepts_notifying_helper_one_level() {
    let src = r#"
fn observe(&mut self, l: Line, now: Cycle) {
    self.base.probe.emit(Event::EvictDirty(l, persistent), now);
}
fn spill(&mut self, now: Cycle) {
    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);
    self.observe(Line(slot), now);
}
"#;
    clean("crates/engines/src/spill.rs", src);
}

#[test]
fn hook_coverage_accepts_notifying_helper_at_depth() {
    // The notification is two calls away from the burst site; the fixpoint
    // summaries carry it the whole way.
    let src = r#"
fn observe(&mut self, l: Line, now: Cycle) {
    self.base.probe.emit(Event::EvictDirty(l, persistent), now);
}
fn track(&mut self, l: Line, now: Cycle) { self.observe(l, now); }
fn spill(&mut self, now: Cycle) {
    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);
    self.track(Line(slot), now);
}
"#;
    clean("crates/engines/src/spill.rs", src);
}

#[test]
fn hook_coverage_accepts_observed_by_caller() {
    // `raw_write` itself never notifies, but its only caller notifies
    // around the call — the backward observed bit clears the helper, which
    // previously needed a hook-coverage allow annotation.
    let src = r#"
fn raw_write(&mut self, l: Line, now: Cycle) {
    self.base.write_burst(l.0, &bytes, now, TrafficClass::Data);
}
fn store(&mut self, l: Line, now: Cycle) {
    self.base.probe.emit(Event::EvictDirty(l, persistent), now);
    self.raw_write(l, now);
}
"#;
    clean("crates/engines/src/observed.rs", src);
}

#[test]
fn hook_coverage_still_fires_when_no_caller_notifies() {
    // The observed bit must not leak from an unrelated silent caller.
    let src = r#"
fn raw_write(&mut self, l: Line, now: Cycle) {
    self.base.write_burst(l.0, &bytes, now, TrafficClass::Data);
}
fn store(&mut self, l: Line, now: Cycle) {
    self.raw_write(l, now);
}
"#;
    fires_once("crates/engines/src/silent.rs", src, "hook-coverage", 3, 15);
}

#[test]
fn hook_coverage_exempts_test_functions() {
    let src = "#[test]\nfn raw_traffic() {\n    base.write_burst(slot, &bytes, now, TrafficClass::Data);\n}\n";
    clean("crates/engines/src/t.rs", src);
}

#[test]
fn hook_coverage_is_scoped_to_persist_crates() {
    let src = "fn spill(&mut self, now: Cycle) {\n    self.base.write_burst(slot, &bytes, now, TrafficClass::Data);\n}\n";
    clean("crates/memhier/src/x.rs", src);
}

// -------------------------------------------------------- shard-shared-mut

#[test]
fn shard_shared_mut_fires_on_interior_mutability_type() {
    let src = "struct Controller {\n    queue: Rc<RefCell<Vec<u64>>>,\n}\n";
    // `Rc<` and `RefCell<` are on one line; per-rule-per-line dedup keeps
    // exactly one finding, anchored at the first offender.
    fires_once("crates/engines/src/ctl.rs", src, "shard-shared-mut", 2, 12);
}

#[test]
fn shard_shared_mut_fires_on_static_mut() {
    let src = "static mut EPOCH: u64 = 0;\n";
    fires_once("crates/nvm/src/epoch.rs", src, "shard-shared-mut", 1, 1);
}

#[test]
fn shard_shared_mut_ignores_plain_statics_and_lifetimes() {
    clean(
        "crates/engines/src/names.rs",
        "static NAMES: &[&str] = &[\"a\"];\nfn f(s: &'static str) -> &'static str { s }\n",
    );
}

#[test]
fn shard_shared_mut_is_scoped_to_sim_crates() {
    clean("crates/bench/src/x.rs", "static mut EPOCH: u64 = 0;\n");
}

#[test]
fn shard_serial_marker_suppresses_and_is_recorded() {
    let src = "struct MediaState {\n    // lint:shard-serial — mutated only by the serial scrub phase\n    tables: Mutex<u64>,\n}\n";
    let r = lint_source("crates/nvm/src/media.rs", src);
    assert!(r.is_clean(), "findings: {:?}", r.findings);
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "shard-shared-mut");
}

// ------------------------------------------------------------- stale allows

#[test]
fn stale_allow_is_warned_not_failed() {
    let src = "// lint:allow(shard-shared-mut)\nfn f() { let v: Vec<u64> = Vec::new(); }\n";
    let r = lint_source("crates/engines/src/x.rs", src);
    assert!(r.is_clean(), "stale allows must not become findings");
    assert_eq!(r.stale_allows.len(), 1);
    assert_eq!(r.stale_allows[0].rule, "shard-shared-mut");
    assert_eq!(r.stale_allows[0].line, 1);
}

#[test]
fn used_allow_is_not_stale() {
    let src = "// lint:allow(shard-shared-mut)\nstatic mut EPOCH: u64 = 0;\n";
    let r = lint_source("crates/nvm/src/epoch.rs", src);
    assert!(r.stale_allows.is_empty(), "consumed marker reported stale");
    assert_eq!(r.allows.len(), 1);
}

#[test]
fn allow_naming_no_rule_is_a_stale_warning() {
    // A marker for a retired rule (`wall-clock` is clippy's now) or a typo
    // suppresses nothing; it must surface, not go inert.
    let src = "let t = Instant::now(); // lint:allow(wall-clock)\n// lint:allow(shard-shard-mut)\nstatic mut EPOCH: u64 = 0;\n";
    let r = lint_source("crates/nvm/src/epoch.rs", src);
    let stale: Vec<(&str, usize)> = r
        .stale_allows
        .iter()
        .map(|a| (a.rule.as_str(), a.line))
        .collect();
    assert_eq!(stale, vec![("wall-clock", 1), ("shard-shard-mut", 2)]);
    // Warning severity: the misspelt marker does not suppress, and the
    // stale allows are not findings of their own.
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["shard-shared-mut"]);
    assert!(r.allows.is_empty());
}

#[test]
fn allow_in_string_or_doc_placeholder_is_not_a_marker() {
    // A marker-shaped string literal and the `<rule>` documentation
    // placeholder must register as neither allow nor stale-allow.
    let src = "fn f() -> &'static str { \"lint:allow(shard-shared-mut)\" }\n// lint:allow(<rule>) is the syntax\n";
    let r = lint_source("x.rs", src);
    assert!(r.stale_allows.is_empty());
    assert!(r.allows.is_empty());
}

// ---------------------------------------- order-sensitive-iteration

#[test]
fn order_sensitive_iteration_fires_on_det_map_drain() {
    let src = "struct E {\n    newest: DetHashMap<u64, u64>,\n}\nimpl E {\n    fn gc(&mut self) {\n        for (w, v) in self.newest.drain() {\n            touch(w, v);\n        }\n    }\n}\n";
    // simcore is a simulation crate like the others.
    for path in ["crates/engines/src/e.rs", "crates/simcore/src/x.rs"] {
        fires_once(path, src, "order-sensitive-iteration", 6, 35);
    }
}

#[test]
fn order_sensitive_iteration_fires_on_annotated_local() {
    let src = "fn f() {\n    let lines: DetHashMap<u64, [u8; 64]> = DetHashMap::default();\n    let first = lines.keys().next();\n}\n";
    fires_once(
        "crates/hoop/src/g.rs",
        src,
        "order-sensitive-iteration",
        3,
        23,
    );
}

#[test]
fn order_frozen_marker_suppresses_and_is_recorded() {
    let src = "struct E { newest: DetHashMap<u64, u64> }\nimpl E {\n    fn gc(&mut self) {\n        // lint:order-frozen — order fixed by DESIGN.md §8\n        for (w, v) in self.newest.drain() {}\n    }\n}\n";
    let r = lint_source("crates/engines/src/e.rs", src);
    assert!(r.is_clean(), "findings: {:?}", r.findings);
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "order-sensitive-iteration");
}

#[test]
fn order_sensitive_iteration_fires_on_for_over_borrowed_field() {
    let src = "struct E {\n    newest: DetHashMap<u64, u64>,\n}\nimpl E {\n    fn gc(&mut self) {\n        for (w, v) in &self.newest {\n            touch(w, v);\n        }\n    }\n}\n";
    fires_once(
        "crates/engines/src/e.rs",
        src,
        "order-sensitive-iteration",
        6,
        29,
    );
}

#[test]
fn order_sensitive_iteration_fires_on_for_over_owned_local() {
    let src = "fn f() {\n    let lines: DetHashMap<u64, [u8; 64]> = DetHashMap::default();\n    for (l, img) in lines {\n        write(l, img);\n    }\n}\n";
    fires_once(
        "crates/hoop/src/g.rs",
        src,
        "order-sensitive-iteration",
        3,
        21,
    );
}

#[test]
fn order_sensitive_iteration_fires_on_for_over_mut_borrow() {
    let src = "struct E { m: DetHashSet<u64> }\nimpl E {\n    fn f(&mut self) {\n        for x in &mut self.m {}\n    }\n}\n";
    fires_once(
        "crates/nvm/src/s.rs",
        src,
        "order-sensitive-iteration",
        4,
        28,
    );
}

#[test]
fn order_frozen_marker_suppresses_a_for_loop() {
    let src = "fn f() {\n    let lines: DetHashMap<u64, u64> = DetHashMap::default();\n    // lint:order-frozen: sets the crash-point order\n    for (l, v) in &lines {}\n}\n";
    let r = lint_source("crates/hoop/src/g.rs", src);
    assert!(r.is_clean(), "findings: {:?}", r.findings);
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "order-sensitive-iteration");
}

#[test]
fn for_loops_over_other_iterables_are_not_flagged() {
    // A Vec field, a range, a method chain on a det map (the method rule's
    // case, flagged once at `.iter()` if at all), and an `impl … for`
    // header must not trip the loop form.
    let src = "struct E { log: Vec<u64>, m: DetHashMap<u64, u64> }\nimpl Clone for E {\n    fn clone(&self) -> E {\n        for x in &self.log {}\n        for i in 0..self.m.len() {}\n        todo!()\n    }\n}\n";
    clean("crates/engines/src/v.rs", src);
    let chained = "struct E { m: DetHashMap<u64, u64> }\nimpl E {\n    fn f(&self) {\n        for (k, v) in self.m.iter() {}\n    }\n}\n";
    fires_once(
        "crates/engines/src/v.rs",
        chained,
        "order-sensitive-iteration",
        4,
        30,
    );
}

#[test]
fn vec_iteration_is_not_flagged() {
    let src = "struct E { log: Vec<u64> }\nimpl E {\n    fn f(&self) { for x in self.log.iter() {} }\n}\n";
    clean("crates/engines/src/v.rs", src);
}

#[test]
fn order_sensitive_iteration_fires_on_borrowed_det_param() {
    let shared = "fn f(m: &DetHashMap<u64, u64>) {\n    let first = m.keys().next();\n}\n";
    fires_once(
        "crates/hoop/src/p.rs",
        shared,
        "order-sensitive-iteration",
        2,
        19,
    );
    let exclusive = "fn g(m: &mut simcore::det::DetHashSet<u64>) {\n    for x in m.drain() {}\n}\n";
    fires_once(
        "crates/nvm/src/p.rs",
        exclusive,
        "order-sensitive-iteration",
        2,
        16,
    );
}

#[test]
fn order_sensitive_iteration_is_scoped_to_sim_crates() {
    let src = "struct E { m: DetHashMap<u64, u64> }\nimpl E { fn f(&self) { let _ = self.m.keys().count(); } }\n";
    clean("crates/bench/src/x.rs", src);
}

/// A local bound to a call of a function that declares a det-container
/// return type is a det container too: the GC/recovery shape
/// `let lines = home_line_images(..); for (l, img) in &lines`.
const LET_BOUND_DET_RETURN: &str = "fn images() -> DetHashMap<u64, [u8; 64]> {\n    DetHashMap::default()\n}\nfn f() {\n    let lines = gc::images();\n    for (l, img) in &lines {\n        write(l, img);\n    }\n}\n";

#[test]
fn order_sensitive_iteration_fires_on_let_bound_det_return() {
    fires_once(
        "crates/hoop/src/r.rs",
        LET_BOUND_DET_RETURN,
        "order-sensitive-iteration",
        6,
        22,
    );
}

#[test]
fn order_frozen_marker_suppresses_let_bound_det_return() {
    let src = LET_BOUND_DET_RETURN.replace(
        "    for (l, img)",
        "    // lint:order-frozen: the write order is the contract\n    for (l, img)",
    );
    let r = clean("crates/hoop/src/r.rs", &src);
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "order-sensitive-iteration");
}

#[test]
fn let_bound_call_without_det_return_is_not_a_det_container() {
    // A wrapped det container is not iterable as one, and a call to an
    // unknown function proves nothing.
    let src = "fn images() -> Option<DetHashMap<u64, u64>> {\n    None\n}\nfn f() {\n    let a = images();\n    let b = other();\n    for x in &a {}\n    for y in &b {}\n}\n";
    clean("crates/hoop/src/r.rs", src);
}

#[test]
fn let_bound_det_return_is_seen_across_files() {
    // The det-returning function lives in another file of the scan.
    let root = std::env::temp_dir().join(format!("lintpass-xfile-{}", std::process::id()));
    let src = root.join("crates/hoop/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).unwrap();
    let gc = "pub(crate) fn home_line_images(words: &[u64]) -> simcore::det::DetHashMap<u64, [u8; 64]> {\n    DetHashMap::default()\n}\n";
    let recovery = "fn recover(&mut self) {\n    let mut lines = home_line_images(&[]);\n    for (l, img) in &lines {}\n}\n";
    std::fs::write(src.join("gc.rs"), gc).unwrap();
    std::fs::write(src.join("recovery.rs"), recovery).unwrap();
    let r = lintpass::lint_paths_rel(std::slice::from_ref(&root), Some(&root)).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    let hits: Vec<(&str, usize, usize)> = r
        .findings
        .iter()
        .filter(|f| f.rule == "order-sensitive-iteration")
        .map(|f| (f.path.as_str(), f.line, f.col))
        .collect();
    assert_eq!(hits, vec![("crates/hoop/src/recovery.rs", 3, 22)]);
    // Alone, the recovery file binds no det container.
    clean("crates/hoop/src/recovery.rs", recovery);
}

/// A write set taken out of a det map whose values are det maps: the
/// engines' commit shape `let lines = self.active.remove(&tx).expect(..)`.
const REMOVED_DET_VALUE: &str = "struct E {\n    active: DetHashMap<u64, DetHashMap<u64, u64>>,\n}\nimpl E {\n    fn commit(&mut self, tx: u64) {\n        let lines = self.active.remove(&tx).expect(\"known tx\");\n        for (l, v) in lines {\n            write(l, v);\n        }\n    }\n}\n";

/// A det field moved out whole: Opt-Redo's checkpoint shape
/// `let lines = std::mem::take(&mut self.pending)`.
const TAKEN_DET_FIELD: &str = "struct E {\n    pending: DetHashMap<u64, u64>,\n}\nimpl E {\n    fn checkpoint(&mut self) {\n        let lines = std::mem::take(&mut self.pending);\n        let first = lines.keys().next();\n    }\n}\n";

/// `LineImages` is a det container: the GC shape (a `LineImages` returned
/// by a helper, its first line and a loop over it) and the checkpoint
/// shape (a taken `LineImages` field). Lookups stay silent.
const LINE_IMAGES: &str = "fn images() -> simcore::det::LineImages {\n    LineImages::default()\n}\nstruct E {\n    pending: LineImages,\n}\nimpl E {\n    fn gc(&mut self) {\n        let lines = images();\n        let first = lines.first_line();\n        for (l, img) in lines.iter() {}\n        let hit = self.pending.get(3).is_some() && self.pending.contains(4);\n        let taken = std::mem::take(&mut self.pending);\n        for (l, img) in taken {}\n    }\n}\n";

#[test]
fn order_sensitive_iteration_fires_on_line_images() {
    let r = lint_source("crates/hoop/src/gc.rs", LINE_IMAGES);
    let hits: Vec<(usize, usize)> = r
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "order-sensitive-iteration");
            (f.line, f.col)
        })
        .collect();
    assert_eq!(hits, vec![(10, 27), (11, 31), (14, 25)]);
    let frozen = LINE_IMAGES
        .replace(
            "        let first",
            "        // lint:order-frozen: burst start\n        let first",
        )
        .replace(
            "        for (l",
            "        // lint:order-frozen: write order\n        for (l",
        );
    assert_eq!(clean("crates/hoop/src/gc.rs", &frozen).allows.len(), 3);
}

#[test]
fn order_sensitive_iteration_fires_on_removed_det_value() {
    fires_once(
        "crates/engines/src/e.rs",
        REMOVED_DET_VALUE,
        "order-sensitive-iteration",
        7,
        23,
    );
}

#[test]
fn order_sensitive_iteration_fires_on_taken_det_field() {
    fires_once(
        "crates/engines/src/e.rs",
        TAKEN_DET_FIELD,
        "order-sensitive-iteration",
        7,
        27,
    );
}

#[test]
fn order_frozen_marker_suppresses_removed_and_taken_containers() {
    for (src, site) in [
        (REMOVED_DET_VALUE, "        for (l, v)"),
        (TAKEN_DET_FIELD, "        let first"),
    ] {
        let frozen = src.replace(
            site,
            &format!("        // lint:order-frozen: sets the write order\n{site}"),
        );
        let r = clean("crates/engines/src/e.rs", &frozen);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].rule, "order-sensitive-iteration");
    }
}

#[test]
fn removed_or_taken_non_det_values_are_not_det_containers() {
    // A det map of vectors yields a vector; taking a vector field yields a
    // vector; and a let-bound local `words` says nothing about a field
    // `rec.words` elsewhere in the file.
    let src = "struct R { words: Box<[u64]> }\nstruct E {\n    active: DetHashMap<u64, Vec<u64>>,\n    nested: DetHashMap<u64, DetHashMap<u64, u64>>,\n    log: Vec<u64>,\n}\nimpl E {\n    fn f(&mut self, tx: u64, rec: &R) {\n        let a = self.active.remove(&tx).unwrap_or_default();\n        let b = std::mem::take(&mut self.log);\n        for x in a {}\n        for y in b {}\n        for z in &rec.words {}\n    }\n    fn g(&mut self, tx: u64) {\n        let words = self.nested.remove(&tx).unwrap_or_default();\n        let _ = words.len();\n    }\n}\n";
    clean("crates/engines/src/v.rs", src);
}

// ---------------------------------------------------------- sim-state-float

#[test]
fn sim_state_float_fires_on_float_to_cycle_cast() {
    let src = "fn f(now: Cycle) -> Cycle {\n    now + (COST as f64 * FRACTION) as Cycle\n}\n";
    fires_once("crates/engines/src/o.rs", src, "sim-state-float", 2, 36);
}

#[test]
fn sim_state_float_ignores_reporting_casts() {
    // int -> float for metrics is fine; so is float math kept in floats.
    let src = "fn ratio(a: u64, b: u64) -> f64 { a as f64 / b as f64 }\n";
    clean("crates/engines/src/m.rs", src);
}

#[test]
fn sim_state_float_respects_argument_boundaries() {
    // The f64 in the *previous argument* must not taint this cast.
    let src = "fn f() { g(a as f64, b as u32); }\n";
    clean("crates/engines/src/a.rs", src);
}

// --------------------------------------------------------- lossy-cycle-cast

#[test]
fn lossy_cycle_cast_fires_on_narrowed_counter() {
    let src = "fn f(now: Cycle) -> u32 {\n    now as u32\n}\n";
    fires_once("crates/engines/src/c.rs", src, "lossy-cycle-cast", 2, 9);
}

#[test]
fn lossy_cycle_cast_fires_on_field_chain() {
    let src = "fn f(out: Access) -> u32 { out.complete as u32 }\n";
    fires_once("crates/hoop/src/c.rs", src, "lossy-cycle-cast", 1, 41);
}

#[test]
fn lossy_cycle_cast_ignores_non_counters_and_widening() {
    clean(
        "crates/engines/src/c.rs",
        "fn f(i: usize, now: Cycle) { let a = i as u32; let b = now as u64; let c = now as u128; }\n",
    );
}

// ------------------------------------------------------------------ allows

#[test]
fn allow_marker_suppresses_any_rule_and_is_recorded() {
    let src = "// lint:allow(lossy-cycle-cast)\nfn f(now: Cycle) -> u32 { now as u32 }\n";
    let r = lint_source("crates/engines/src/c.rs", src);
    assert!(r.is_clean());
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "lossy-cycle-cast");
    assert_eq!(r.allows[0].line, 2);

    let same_line = "fn f(now: Cycle) -> u32 { now as u32 } // lint:allow(lossy-cycle-cast)\n";
    let r = lint_source("crates/engines/src/c.rs", same_line);
    assert!(r.is_clean());
    assert_eq!(r.allows.len(), 1);
}

#[test]
fn allow_of_a_different_rule_does_not_suppress() {
    let src = "// lint:allow(shard-shared-mut)\nfn f(now: Cycle) -> u32 { now as u32 }\n";
    let r = lint_source("crates/engines/src/c.rs", src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].rule, "lossy-cycle-cast");
}

// ------------------------------------------------------------------ masking

#[test]
fn mask_noncode_blanks_comment_and_string_contents_only() {
    let src = "let s = \"a\nb\"; // note\nlet x = 1;\n";
    let masked = lintpass::lexer::mask_noncode(src);
    assert_eq!(masked.len(), src.len());
    assert_eq!(masked.matches('\n').count(), src.matches('\n').count());
    assert!(masked.contains("let x = 1;"));
    assert!(!masked.contains("note"));
}

// --------------------------------------------------------------- workspace

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_scan_is_clean() {
    // The real tree must pass its own lint, semantic rules included
    // (legitimate sites are annotated at the site).
    let root = workspace_root();
    let roots: Vec<std::path::PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let r = lintpass::lint_paths(&roots).expect("scan");
    assert!(r.files_scanned > 40, "scanned {}", r.files_scanned);
    let msgs: Vec<String> = r.findings.iter().map(|f| f.to_string()).collect();
    assert!(r.is_clean(), "lint findings:\n{}", msgs.join("\n"));
}

#[test]
fn media_subsystem_never_uses_the_generic_allow_escape() {
    // The media-fault subsystem ships `lint:allow`-free: every annotation
    // in its files is one of the *dedicated* markers (`lint:order-frozen`,
    // `lint:shard-serial`), which name the exact invariant they assert
    // instead of blanket-suppressing a rule.
    let root = workspace_root();
    for rel in [
        "crates/nvm/src/media.rs",
        "crates/nvm/src/wearlevel.rs",
        "crates/bench/src/bin/media.rs",
        "crates/crashtest/src/oracle.rs",
        "crates/crashtest/src/harness.rs",
        "crates/crashtest/src/drivers.rs",
        "crates/crashtest/src/fixtures.rs",
        "crates/engines/src/common.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        assert!(
            !src.contains("lint:allow("),
            "{rel}: generic lint:allow escape in the media subsystem — \
             use a dedicated marker or fix the finding"
        );
    }
}
