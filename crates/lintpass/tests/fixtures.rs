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

// ---------------------------------------------------------------- det-hash

#[test]
fn det_hash_fires_on_std_map() {
    fires_once(
        "x.rs",
        "fn f() {\n    let m = HashMap::new();\n}\n",
        "det-hash",
        2,
        13,
    );
}

#[test]
fn det_hash_fires_on_std_set_with_capacity_in_line_order() {
    let src = "fn f() {\n    let m = HashMap::new();\n    let s = HashSet::with_capacity(4);\n}\n";
    let r = lint_source("x.rs", src);
    let spans: Vec<(&str, usize, usize)> =
        r.findings.iter().map(|f| (f.rule, f.line, f.col)).collect();
    assert_eq!(spans, vec![("det-hash", 2, 13), ("det-hash", 3, 13)]);
}

#[test]
fn det_hash_fires_through_line_break() {
    // The regex scanner matched per line and missed this split call.
    let src = "fn f() {\n    let m = HashMap::\n        new();\n}\n";
    fires_once("x.rs", src, "det-hash", 2, 13);
}

#[test]
fn det_hash_ignores_strings_comments_and_prefixed_idents() {
    clean(
        "x.rs",
        "// HashMap::new()\nfn f() { let s = \"HashMap::new()\"; let m = FxHashMap::new(); let d = DetHashMap::default(); }\n",
    );
}

#[test]
fn hazards_in_block_comments_and_raw_strings_are_ignored() {
    let src = r##"
/* Instant::now() in a block comment */
fn f() {
    let r = r#"thread_rng() par_iter("#;
}
"##;
    clean("x.rs", src);
}

#[test]
fn det_hash_ignores_raw_string_fixture() {
    // Raw strings with hashes were a blind spot for quote-counting scanners.
    clean("x.rs", "fn f() -> &'static str { r#\"HashMap::new()\"# }\n");
}

// -------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_on_instant_now() {
    fires_once(
        "x.rs",
        "fn f() { let t = Instant::now(); }\n",
        "wall-clock",
        1,
        18,
    );
}

#[test]
fn wall_clock_fires_on_system_time_in_multiline_expr() {
    let src = "fn f() {\n    let t =\n        SystemTime\n            ::now();\n}\n";
    fires_once("x.rs", src, "wall-clock", 3, 9);
}

// -------------------------------------------------------------- thread-rng

#[test]
fn thread_rng_fires() {
    fires_once(
        "x.rs",
        "fn f() { let r = thread_rng(); }\n",
        "thread-rng",
        1,
        18,
    );
}

#[test]
fn wall_clock_and_thread_rng_both_fire_on_one_line() {
    let r = lint_source(
        "x.rs",
        "fn f() { let t = Instant::now(); let r = thread_rng(); }\n",
    );
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["wall-clock", "thread-rng"]);
}

#[test]
fn rand_random_fires() {
    fires_once(
        "x.rs",
        "fn f() -> u64 { rand::random() }\n",
        "thread-rng",
        1,
        17,
    );
}

// ---------------------------------------------------------------- par-iter

#[test]
fn par_iter_fires() {
    fires_once(
        "x.rs",
        "fn f(v: &[u64]) { v.par_iter().for_each(|_| ()); }\n",
        "par-iter",
        1,
        21,
    );
}

#[test]
fn par_iter_in_comment_is_ignored() {
    clean("x.rs", "/* v.par_iter() */ fn f() {}\n");
}

// ----------------------------------------------------------- unsafe-safety

#[test]
fn unsafe_without_safety_comment_fires() {
    fires_once(
        "x.rs",
        "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        "unsafe-safety",
        1,
        10,
    );
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    clean(
        "x.rs",
        "// SAFETY: checked above\nfn f() { unsafe { dangerous() } }\n",
    );
}

#[test]
fn unsafe_in_string_is_clean() {
    clean("x.rs", "fn f() -> &'static str { \"unsafe\" }\n");
}

// ----------------------------------------------------------- forbid-unsafe

#[test]
fn crate_root_without_forbid_fires() {
    fires_once(
        "crates/x/src/lib.rs",
        "pub fn f() {}\n",
        "forbid-unsafe",
        1,
        1,
    );
}

#[test]
fn crate_root_with_forbid_is_clean_and_non_roots_exempt() {
    clean(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    clean("crates/x/src/other.rs", "pub fn f() {}\n");
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
    let src = "// lint:allow(det-hash)\nfn f() { let v: Vec<u64> = Vec::new(); }\n";
    let r = lint_source("x.rs", src);
    assert!(r.is_clean(), "stale allows must not become findings");
    assert_eq!(r.stale_allows.len(), 1);
    assert_eq!(r.stale_allows[0].rule, "det-hash");
    assert_eq!(r.stale_allows[0].line, 1);
}

#[test]
fn used_allow_is_not_stale() {
    let src = "// lint:allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
    let r = lint_source("x.rs", src);
    assert!(r.stale_allows.is_empty(), "consumed marker reported stale");
    assert_eq!(r.allows.len(), 1);
}

#[test]
fn allow_in_string_or_doc_placeholder_is_not_a_marker() {
    // A marker-shaped string literal and the `<rule>` documentation
    // placeholder must register as neither allow nor stale-allow.
    let src = "fn f() -> &'static str { \"lint:allow(det-hash)\" }\n// lint:allow(<rule>) is the syntax\n";
    let r = lint_source("x.rs", src);
    assert!(r.stale_allows.is_empty());
    assert!(r.allows.is_empty());
}

// ---------------------------------------- order-sensitive-iteration

#[test]
fn order_sensitive_iteration_fires_on_det_map_drain() {
    let src = "struct E {\n    newest: DetHashMap<u64, u64>,\n}\nimpl E {\n    fn gc(&mut self) {\n        for (w, v) in self.newest.drain() {\n            touch(w, v);\n        }\n    }\n}\n";
    fires_once(
        "crates/engines/src/e.rs",
        src,
        "order-sensitive-iteration",
        6,
        35,
    );
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
fn vec_iteration_is_not_flagged() {
    let src = "struct E { log: Vec<u64> }\nimpl E {\n    fn f(&self) { for x in self.log.iter() {} }\n}\n";
    clean("crates/engines/src/v.rs", src);
}

#[test]
fn order_sensitive_iteration_is_scoped_to_sim_crates() {
    let src = "struct E { m: DetHashMap<u64, u64> }\nimpl E { fn f(&self) { let _ = self.m.keys().count(); } }\n";
    clean("crates/bench/src/x.rs", src);
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

// ---------------------------------------------------------------- det-taint

/// The order-sensitive-flow fixture: iteration order of an un-frozen det
/// container flows through the loop binding into a timing field. The
/// iteration itself also trips `order-sensitive-iteration`; `det-taint`
/// additionally convicts the *flow*, at the exact written-path span.
const TAINTED_TIMING_ENGINE: &str = r#"
struct E { newest: DetHashMap<u64, u64> }
impl E {
    fn gc(&mut self, now: Cycle) {
        for (w, v) in self.newest.drain() {
            self.next_gc_cycle = now + w;
        }
    }
}
"#;

#[test]
fn det_taint_convicts_iteration_feeding_a_timing_field() {
    let f = fires_once(
        "crates/hoop/src/gc.rs",
        TAINTED_TIMING_ENGINE,
        "det-taint",
        6,
        13,
    );
    assert!(f.snippet.contains("next_gc_cycle"));
}

#[test]
fn det_taint_permits_flows_into_host_stats() {
    // Same live source (the drain still trips order-sensitive-iteration),
    // but the sink path goes through a `stats` segment: host-only, so
    // det-taint itself must stay silent.
    let src = r#"
struct E { newest: DetHashMap<u64, u64> }
impl E {
    fn gc(&mut self, now: Cycle) {
        for (w, v) in self.newest.drain() {
            self.stats.last_gc_cycle = now + w;
        }
    }
}
"#;
    let r = lint_source("crates/hoop/src/gcstats.rs", src);
    assert!(
        r.findings.iter().all(|f| f.rule != "det-taint"),
        "{:?}",
        r.findings
    );
}

#[test]
fn det_taint_respects_frozen_iteration_orders() {
    let src = r#"
struct E { newest: DetHashMap<u64, u64> }
impl E {
    fn gc(&mut self, now: Cycle) {
        // lint:order-frozen -- DESIGN.md §8 freezes this drain order
        for (w, v) in self.newest.drain() {
            self.next_gc_cycle = now + w;
        }
    }
}
"#;
    clean("crates/hoop/src/gcfrozen.rs", src);
}

#[test]
fn det_taint_tracks_wall_clock_through_helper_returns() {
    let src = r#"
fn host_now(&self) -> u64 { Instant::now().elapsed().as_nanos() as u64 }
fn arm(&mut self) { self.deadline = self.host_now(); }
"#;
    // Two findings expected in total: wall-clock at the source and
    // det-taint at the sink; check the det-taint one precisely.
    let r = lint_source("crates/simcore/src/clock.rs", src);
    let taint: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "det-taint")
        .collect();
    assert_eq!(taint.len(), 1, "{:?}", r.findings);
    assert_eq!((taint[0].line, taint[0].col), (3, 21));
}

#[test]
fn det_taint_is_scoped_to_sim_crates() {
    clean("crates/bench/src/x.rs", TAINTED_TIMING_ENGINE);
}

// ------------------------------------------------------------------ allows

#[test]
fn allow_marker_suppresses_any_rule_and_is_recorded() {
    let src = "// lint:allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
    let r = lint_source("x.rs", src);
    assert!(r.is_clean());
    assert_eq!(r.allows.len(), 1);
    assert_eq!(r.allows[0].rule, "wall-clock");
    assert_eq!(r.allows[0].line, 2);

    let same_line = "let t = Instant::now(); // lint:allow(wall-clock)\n";
    let r = lint_source("x.rs", same_line);
    assert!(r.is_clean());
    assert_eq!(r.allows.len(), 1);
}

#[test]
fn allow_of_a_different_rule_does_not_suppress() {
    let src = "// lint:allow(det-hash)\nfn f() { let t = Instant::now(); }\n";
    assert_eq!(lint_source("x.rs", src).findings.len(), 1);
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
    // (legitimate sites are annotated; nothing rides on the baseline).
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
