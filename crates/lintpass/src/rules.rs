//! Token-level rule engine with a flow-sensitive core.
//!
//! Rules run over the significant-token view of a file (whitespace and
//! comments filtered out, raw lines kept for snippets and annotations), so
//! a hazard split across lines is still found and the same text inside a
//! string or comment never is. Three rule families:
//!
//! **Determinism/safety rules** (workspace-wide) — the token re-implementation
//! of the original regex scanner:
//!
//! | rule | rejects |
//! |------|---------|
//! | `det-hash` | `HashMap::new` / `HashSet::new` / `::with_capacity` (per-instance `RandomState` seeding — use `simcore::det`) |
//! | `wall-clock` | `Instant::now()` / `SystemTime` (host time leaking into results) |
//! | `thread-rng` | `thread_rng` / `rand::random` (OS-seeded randomness) |
//! | `par-iter` | `par_iter()` / `into_par_iter()` / `par_bridge()` (unordered parallel collection) |
//! | `unsafe-safety` | `unsafe` without a nearby `// SAFETY:` comment |
//! | `forbid-unsafe` | a crate root (`src/lib.rs`) missing `#![forbid(unsafe_code)]` |
//!
//! **Flow-sensitive persistency rules** (scoped to `crates/engines`,
//! `crates/hoop`) — built on the [`crate::parse`] → [`crate::cfg`] →
//! [`crate::dataflow`] stack plus the solved transitive
//! [`crate::callgraph`] fixpoint summaries:
//!
//! | rule | rejects |
//! |------|---------|
//! | `persist-order` | a commit event (`Event::CommitRecord`, or an `Event::Slice`, which may carry a tail slice's commit flag) with **no path** from function entry carrying payload-persist evidence (an `Event::PayloadWrite`/`DataPersisted`/`HomeWrite`/`Flush`/`Fence`, a `write_burst`, `burst_spread`, `write_home_line`, `fence`, `persist*` or `flush*` call, or a call to a helper whose *transitive* summary persists — any call depth) — §III-G "payload before commit record", a real dominance check |
//! | `commit-in-branch` | a commit event reachable along **some** path without evidence while **another** path has it — the branch-shaped ordering bug the old token-order rule could not express |
//! | `persist-in-loop-only` | *(advisory)* a commit event whose dominance rests entirely on a `while`/`for` body executing at least once — on the zero-iteration bypass the commit is unpersisted. Printed as a warning, never an error: an empty transaction legitimately commits nothing |
//! | `hook-coverage` | a `write_burst`/`burst_spread`/`write_home_line` call site in a non-`#[test]` function with no sanitizer-observed `Event::<Variant>` in the body (valve-only variants do not count), no call to a helper whose transitive summary notifies, and no *observed-by-caller* bit (a transitive caller notifies around every call path into it) — statically proving the runtime sanitizer sees every event it claims to shadow |
//!
//! **Determinism-scoped semantic rules** (`crates/engines`, `crates/hoop`,
//! `crates/memhier`, `crates/nvm`, and for the numeric/taint family
//! `crates/simcore`):
//!
//! | rule | rejects |
//! |------|---------|
//! | `order-sensitive-iteration` | `.iter()`/`.keys()`/`.values()`/`.drain()` on a receiver declared `DetHashMap`/`DetHashSet` in the same file, unless annotated `lint:order-frozen` |
//! | `shard-shared-mut` | `static mut`, `thread_local!`, or interior-mutability containers (`Rc<`, `RefCell<`, `Cell<`, `UnsafeCell<`, `Mutex<`, `RwLock<`) in simulation crates — `--jobs` runs cells concurrently on host threads, and shared mutable state would couple one cell's result to another's schedule — unless annotated `lint:shard-serial` |
//! | `sim-state-float` | casting a float-tainted expression to an integer/`Cycle` type |
//! | `lossy-cycle-cast` | `as` truncation of a cycle/clock-named counter to a sub-64-bit integer |
//! | `det-taint` | an order-sensitive value (un-frozen det-container iteration, wall-clock, fold-order float accumulation) flowing through assignments, returns, and the call graph into a simulated-state field; flows into host-only stats are permitted (see [`crate::taint`]) |
//!
//! The flow model errs toward **silence**: the dual loop model downgrades
//! loop-carried dominance to an advisory rather than an error, helper
//! summaries are exact transitive closures (total on recursion), and call
//! arguments are opaque (see `crate::cfg` for the full list). The runtime
//! pmcheck sanitizer remains the precise dynamic check; `hook-coverage` is
//! the static half of that cross-validation contract.
//!
//! Escapes: `// lint:allow(<rule>)` on the same or preceding comment line
//! suppresses any rule and is recorded as an audited exception. Markers
//! are recognized **only inside comments** and only for known rule names;
//! any marker that suppresses nothing is reported as a *stale allow*
//! warning (exit-code 0) so annotations cannot rot silently.
//! `// lint:order-frozen` is the dedicated marker for
//! `order-sensitive-iteration` sites whose iteration order is part of the
//! frozen determinism contract, and `// lint:shard-serial` is the
//! analogous marker for `shard-shared-mut` sites whose mutations are
//! confined to serial phases (or are commutative set-inserts) and whose
//! state no other cell shares.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{
    callees_in, is_event_in, CallGraph, COMMIT_EVENTS, OBSERVED_EVENTS, PERSIST_EVENTS,
};
use crate::cfg;
use crate::dataflow::evidence_at_sites;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parse::{self, FnItem, SigTok};
use crate::report::{Allow, Finding, LintReport};
use crate::taint::{self, TaintIndex};

/// Every rule the analyzer knows, in the order counts are reported.
pub const RULE_IDS: &[&str] = &[
    "det-hash",
    "wall-clock",
    "thread-rng",
    "par-iter",
    "unsafe-safety",
    "forbid-unsafe",
    "persist-order",
    "commit-in-branch",
    "order-sensitive-iteration",
    "sim-state-float",
    "lossy-cycle-cast",
    "shard-shared-mut",
    "hook-coverage",
    "persist-in-loop-only",
    "det-taint",
];

/// The marker that suppresses a finding on the same or the next line.
const ALLOW_PREFIX: &str = "lint:allow(";
/// Dedicated escape for `order-sensitive-iteration`: documents that the
/// iteration order at this site is frozen by the determinism contract.
const ORDER_FROZEN: &str = "lint:order-frozen";
/// Dedicated escape for `shard-shared-mut`: documents that the container's
/// mutations are confined to serial phases or are commutative set-inserts
/// on state owned by one cell, so concurrent cells cannot observe it.
const SHARD_SERIAL: &str = "lint:shard-serial";

/// Path scope of the persistency rules (`persist-order`,
/// `commit-in-branch`, `hook-coverage`).
const PERSIST_SCOPE: &[&str] = &["crates/engines/src/", "crates/hoop/src/"];
/// Path scope of `order-sensitive-iteration` and `shard-shared-mut`.
const ITER_SCOPE: &[&str] = &[
    "crates/engines/src/",
    "crates/hoop/src/",
    "crates/memhier/src/",
    "crates/nvm/src/",
];
/// Path scope of `sim-state-float` and `lossy-cycle-cast`.
const NUMERIC_SCOPE: &[&str] = &[
    "crates/engines/src/",
    "crates/hoop/src/",
    "crates/memhier/src/",
    "crates/nvm/src/",
    "crates/simcore/src/",
];

/// Calls that count as persisting payload before a commit record (the
/// persist events that count are [`crate::callgraph::PERSIST_EVENTS`]).
const PERSIST_EVIDENCE: &[&str] = &["write_burst", "burst_spread", "write_home_line", "fence"];

/// Persist-event primitives whose call sites `hook-coverage` audits: each
/// site must live in a function the sanitizer observes (directly or via a
/// notifying helper). `write_home_line` notifies internally, so its *own*
/// summary covers callers; the raw burst primitives do not.
const HOOK_EVENTS: &[&str] = &["write_burst", "burst_spread", "write_home_line"];

/// Interior-mutability containers `shard-shared-mut` rejects when used as
/// generic types (`Name<..>`) inside simulation crates.
const SHARED_MUT_TYPES: &[&str] = &["Rc", "RefCell", "Cell", "UnsafeCell", "Mutex", "RwLock"];

/// Iteration methods whose order escapes into simulated state (shared
/// with the det-taint source vocabulary in [`crate::taint`]).
pub(crate) const ORDERED_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// Integer-ish cast targets for `sim-state-float`.
const INT_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "Cycle",
];

/// Sub-64-bit cast targets for `lossy-cycle-cast`.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier names treated as cycle/clock counters by `lossy-cycle-cast`.
fn is_counter_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("cycle")
        || lower.contains("clock")
        || matches!(
            lower.as_str(),
            "now" | "done" | "complete" | "deadline" | "latency" | "elapsed"
        )
}

/// Whether `name` counts as payload-persist evidence (the call-site
/// vocabulary shared by `persist-order` and the call-graph summaries).
pub fn is_persist_evidence(name: &str) -> bool {
    PERSIST_EVIDENCE.contains(&name) || name.starts_with("persist") || name.starts_with("flush")
}

/// Whether `path` is inside the persistency-rule scope (used by callers to
/// decide which files feed the workspace call graph).
pub fn in_persist_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    PERSIST_SCOPE.iter().any(|s| p.contains(s))
}

/// Whether `path` is inside the numeric/determinism-taint scope (used by
/// callers to decide which files feed the workspace taint index).
pub fn in_numeric_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    NUMERIC_SCOPE.iter().any(|s| p.contains(s))
}

/// One `lint:allow(<rule>)` annotation found in a comment, with whether any
/// finding actually consumed it.
struct Marker {
    line: u32,
    rule: &'static str,
    used: bool,
}

/// The per-file analysis context rules run against.
struct FileCtx<'s> {
    path: String,
    source: &'s str,
    /// Raw source lines (for snippets and annotation lookup).
    raw_lines: Vec<&'s str>,
    /// Significant (code) tokens only.
    sig: Vec<Token>,
    /// `lint:allow` annotations harvested from comment tokens.
    markers: Vec<Marker>,
    /// `(rule, line)` pairs already reported — one finding per rule per line.
    seen: BTreeSet<(&'static str, u32)>,
    findings: Vec<Finding>,
    /// Warning-severity findings (`persist-in-loop-only`): printed, exported
    /// under the report's `advisories` array, never gated or baselined.
    advisories: Vec<Finding>,
    allows: Vec<Allow>,
}

/// Harvests `lint:allow(<rule>)` markers from the comment tokens of
/// `source`. Only known rule names count (so documentation like
/// `lint:allow(<rule>)` never registers), and only comments (so the same
/// text inside a string literal never does).
fn collect_markers(source: &str) -> Vec<Marker> {
    let mut markers = Vec::new();
    for t in tokenize(source) {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(source);
        let mut pos = 0;
        while let Some(p) = text[pos..].find(ALLOW_PREFIX) {
            let at = pos + p;
            let start = at + ALLOW_PREFIX.len();
            pos = start;
            let Some(close) = text[start..].find(')') else {
                break;
            };
            let name = &text[start..start + close];
            if let Some(&rule) = RULE_IDS.iter().find(|&&r| r == name) {
                let line = t.line + text[..at].matches('\n').count() as u32;
                markers.push(Marker {
                    line,
                    rule,
                    used: false,
                });
            }
        }
    }
    markers
}

impl<'s> FileCtx<'s> {
    fn new(path: &str, source: &'s str) -> Self {
        let sig = tokenize(source)
            .into_iter()
            .filter(|t| t.kind.is_code())
            .collect();
        FileCtx {
            path: path.replace('\\', "/"),
            source,
            raw_lines: source.lines().collect(),
            sig,
            markers: collect_markers(source),
            seen: BTreeSet::new(),
            findings: Vec::new(),
            advisories: Vec::new(),
            allows: Vec::new(),
        }
    }

    fn text(&self, i: usize) -> &'s str {
        self.sig[i].text(self.source)
    }

    fn is(&self, i: usize, s: &str) -> bool {
        i < self.sig.len() && self.text(i) == s
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.sig.get(i).map(|t| t.kind)
    }

    fn in_scope(&self, scope: &[&str]) -> bool {
        scope.iter().any(|s| self.path.contains(s))
    }

    /// The candidate annotation lines for a finding on `line` (1-based):
    /// the line itself plus the contiguous run of `//` comment lines
    /// immediately above it (bounded to keep marker influence local).
    fn annotation_lines(&self, line: u32) -> Vec<u32> {
        let mut lines = vec![line];
        let mut k = line as usize - 1;
        let mut budget = 8;
        while k > 0 && budget > 0 {
            k -= 1;
            budget -= 1;
            let raw = self.raw_lines.get(k).map_or("", |l| l.trim_start());
            if !raw.starts_with("//") {
                break;
            }
            lines.push(k as u32 + 1);
        }
        lines
    }

    /// Whether `line` carries an allow marker for `rule` (same line or the
    /// comment block above). A match is recorded as *used* so unused
    /// markers can be reported as stale. `extra` is an additional accepted
    /// raw-text marker (e.g. `lint:order-frozen`), not staleness-tracked.
    fn allowed(&mut self, line: u32, rule: &str, extra: Option<&str>) -> bool {
        let cand = self.annotation_lines(line);
        for m in &mut self.markers {
            if m.rule == rule && cand.contains(&m.line) {
                m.used = true;
                return true;
            }
        }
        if let Some(extra) = extra {
            for &l in &cand {
                if self
                    .raw_lines
                    .get(l as usize - 1)
                    .is_some_and(|raw| raw.contains(extra))
                {
                    return true;
                }
            }
        }
        false
    }

    /// Reports a finding for `rule` at token `i`, honoring allow markers and
    /// the one-finding-per-rule-per-line dedup.
    fn report(&mut self, rule: &'static str, i: usize, extra_marker: Option<&str>) {
        self.report_with(rule, i, extra_marker, false)
    }

    /// [`FileCtx::report`] at advisory (warning) severity: the finding lands
    /// in the `advisories` channel, which never fails the gate.
    fn report_advisory(&mut self, rule: &'static str, i: usize) {
        self.report_with(rule, i, None, true)
    }

    fn report_with(
        &mut self,
        rule: &'static str,
        i: usize,
        extra_marker: Option<&str>,
        advisory: bool,
    ) {
        let tok = self.sig[i];
        if !self.seen.insert((rule, tok.line)) {
            return;
        }
        if self.allowed(tok.line, rule, extra_marker) {
            self.allows.push(Allow {
                path: self.path.clone(),
                line: tok.line as usize,
                rule,
            });
        } else {
            let snippet = self
                .raw_lines
                .get(tok.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            let finding = Finding {
                path: self.path.clone(),
                line: tok.line as usize,
                col: tok.col as usize,
                rule,
                snippet,
            };
            if advisory {
                self.advisories.push(finding);
            } else {
                self.findings.push(finding);
            }
        }
    }

    fn into_report(self) -> LintReport {
        let stale_allows = self
            .markers
            .iter()
            .filter(|m| !m.used)
            .map(|m| Allow {
                path: self.path.clone(),
                line: m.line as usize,
                rule: m.rule,
            })
            .collect();
        LintReport {
            findings: self.findings,
            advisories: self.advisories,
            allows: self.allows,
            stale_allows,
            files_scanned: 1,
        }
    }
}

/// Analyzes one file's `source`, reporting against `path` (used both for
/// messages and for path-scoped rules). `graph` supplies solved transitive
/// helper summaries and `taint` the solved tainted-returns index for the
/// interprocedural rules; pass ones built from just this file for
/// self-contained analysis ([`crate::lint_source`] does).
pub fn analyze(path: &str, source: &str, graph: &CallGraph, taint: &TaintIndex) -> LintReport {
    let mut ctx = FileCtx::new(path, source);
    rule_det_hash(&mut ctx);
    rule_wall_clock(&mut ctx);
    rule_thread_rng(&mut ctx);
    rule_par_iter(&mut ctx);
    rule_unsafe_safety(&mut ctx);
    rule_forbid_unsafe(&mut ctx);
    if ctx.in_scope(PERSIST_SCOPE) || ctx.in_scope(ITER_SCOPE) {
        let ptoks = parse::sig_tokens(source);
        let fns = parse::functions(&ptoks);
        if ctx.in_scope(PERSIST_SCOPE) {
            rule_persist_flow(&mut ctx, &ptoks, &fns, graph);
            rule_hook_coverage(&mut ctx, &ptoks, &fns, graph);
        }
    }
    if ctx.in_scope(ITER_SCOPE) {
        rule_order_sensitive_iteration(&mut ctx);
        rule_shard_shared_mut(&mut ctx);
    }
    if ctx.in_scope(NUMERIC_SCOPE) {
        rule_sim_state_float(&mut ctx);
        rule_lossy_cycle_cast(&mut ctx);
        rule_det_taint(&mut ctx, taint);
    }
    ctx.into_report()
}

fn rule_det_hash(ctx: &mut FileCtx<'_>) {
    for i in 0..ctx.sig.len() {
        let t = ctx.text(i);
        if (t == "HashMap" || t == "HashSet")
            && ctx.is(i + 1, ":")
            && ctx.is(i + 2, ":")
            && (ctx.is(i + 3, "new") || ctx.is(i + 3, "with_capacity"))
            && ctx.is(i + 4, "(")
        {
            ctx.report("det-hash", i, None);
        }
    }
}

fn rule_wall_clock(ctx: &mut FileCtx<'_>) {
    for i in 0..ctx.sig.len() {
        let t = ctx.text(i);
        if t == "SystemTime" && ctx.kind(i) == Some(TokenKind::Ident) {
            ctx.report("wall-clock", i, None);
        }
        if t == "Instant"
            && ctx.is(i + 1, ":")
            && ctx.is(i + 2, ":")
            && ctx.is(i + 3, "now")
            && ctx.is(i + 4, "(")
        {
            ctx.report("wall-clock", i, None);
        }
    }
}

fn rule_thread_rng(ctx: &mut FileCtx<'_>) {
    for i in 0..ctx.sig.len() {
        let t = ctx.text(i);
        if t == "thread_rng" && ctx.kind(i) == Some(TokenKind::Ident) {
            ctx.report("thread-rng", i, None);
        }
        if t == "rand" && ctx.is(i + 1, ":") && ctx.is(i + 2, ":") && ctx.is(i + 3, "random") {
            ctx.report("thread-rng", i, None);
        }
    }
}

fn rule_par_iter(ctx: &mut FileCtx<'_>) {
    for i in 0..ctx.sig.len() {
        let t = ctx.text(i);
        if matches!(t, "par_iter" | "into_par_iter" | "par_bridge")
            && ctx.kind(i) == Some(TokenKind::Ident)
            && ctx.is(i + 1, "(")
        {
            ctx.report("par-iter", i, None);
        }
    }
}

fn rule_unsafe_safety(ctx: &mut FileCtx<'_>) {
    for i in 0..ctx.sig.len() {
        if ctx.text(i) != "unsafe" || ctx.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let line = ctx.sig[i].line as usize; // 1-based
        let documented = (line.saturating_sub(3)..line)
            .any(|k| ctx.raw_lines.get(k).is_some_and(|l| l.contains("SAFETY:")));
        if !documented {
            ctx.report("unsafe-safety", i, None);
        }
    }
}

fn rule_forbid_unsafe(ctx: &mut FileCtx<'_>) {
    if !ctx.path.ends_with("src/lib.rs") {
        return;
    }
    let has_attr = (0..ctx.sig.len()).any(|i| {
        ctx.is(i, "forbid")
            && ctx.is(i + 1, "(")
            && ctx.is(i + 2, "unsafe_code")
            && ctx.is(i + 3, ")")
    });
    if !has_attr {
        // Synthetic finding at the top of the file (no specific token).
        if ctx.seen.insert(("forbid-unsafe", 1)) && !ctx.allowed(1, "forbid-unsafe", None) {
            ctx.findings.push(Finding {
                path: ctx.path.clone(),
                line: 1,
                col: 1,
                rule: "forbid-unsafe",
                snippet: "crate root missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
}

/// The flow-sensitive §III-G check: at every commit-event site,
/// classify by the (must_zero, must, may) evidence triple — `must_zero` is
/// clean, `must`-only is the `persist-in-loop-only` advisory, `may`-only is
/// `commit-in-branch`, none is `persist-order`. Evidence is a direct
/// persist call or a call to a helper whose *transitive* fixpoint summary
/// persists, at any call depth.
fn rule_persist_flow(
    ctx: &mut FileCtx<'_>,
    ptoks: &[SigTok<'_>],
    fns: &[FnItem],
    graph: &CallGraph,
) {
    let mut hits: Vec<(&'static str, usize)> = Vec::new();
    let mut advisory_hits: Vec<usize> = Vec::new();
    for f in fns {
        let mut gens = Vec::new();
        let mut sites = Vec::new();
        for i in f.body.0..f.body.1.min(ptoks.len()) {
            if is_event_in(ptoks, i, COMMIT_EVENTS) {
                sites.push(i);
            } else if is_event_in(ptoks, i, PERSIST_EVENTS) {
                gens.push(i);
            } else if is_call(ptoks, i) {
                let name = ptoks[i].text;
                if is_persist_evidence(name) || graph.callee_persists(name) {
                    gens.push(i);
                }
            }
        }
        if sites.is_empty() {
            continue;
        }
        let cfg = cfg::build(ptoks, f.body);
        for s in evidence_at_sites(&cfg, &gens, &sites) {
            if s.must_zero {
                continue;
            }
            if s.must {
                advisory_hits.push(s.site);
            } else {
                hits.push((
                    if s.may {
                        "commit-in-branch"
                    } else {
                        "persist-order"
                    },
                    s.site,
                ));
            }
        }
    }
    for (rule, i) in hits {
        ctx.report(rule, i, None);
    }
    for i in advisory_hits {
        ctx.report_advisory("persist-in-loop-only", i);
    }
}

/// Static half of the sanitizer cross-validation: every audited
/// persist-event call site must live in a function the sanitizer observes —
/// an observed `Event::<Variant>` in the body, a call to a helper whose
/// transitive summary notifies, or the backward *observed-by-caller* bit
/// (every transitive caller chain passes through a notifying function, so
/// the traffic this helper emits is shadowed at the call boundary).
/// `#[test]` functions construct raw traffic on purpose and are exempt.
fn rule_hook_coverage(
    ctx: &mut FileCtx<'_>,
    ptoks: &[SigTok<'_>],
    fns: &[FnItem],
    graph: &CallGraph,
) {
    let mut hits = Vec::new();
    for f in fns {
        if f.has_test_attr(ptoks) {
            continue;
        }
        let end = f.body.1.min(ptoks.len());
        let event_sites: Vec<usize> = (f.body.0..end)
            .filter(|&i| {
                HOOK_EVENTS.contains(&ptoks[i].text)
                    && ptoks[i].kind == TokenKind::Ident
                    && i > 0
                    && ptoks[i - 1].text == "."
                    && i + 1 < end
                    && ptoks[i + 1].text == "("
            })
            .collect();
        if event_sites.is_empty() {
            continue;
        }
        let covered = (f.body.0..end).any(|i| is_event_in(ptoks, i, OBSERVED_EVENTS))
            || graph.is_observed(&f.name)
            || callees_in(ptoks, f.body)
                .iter()
                .any(|(_, name)| graph.callee_notifies(name));
        if covered {
            continue;
        }
        hits.extend(event_sites);
    }
    for i in hits {
        ctx.report("hook-coverage", i, None);
    }
}

/// The determinism-taint rule: delegates source/sink extraction and the
/// taint fixpoint to [`crate::taint`], then reports each tainted write into
/// simulated state at the exact written-path token.
fn rule_det_taint(ctx: &mut FileCtx<'_>, taint: &TaintIndex) {
    for i in taint::file_hits(ctx.source, taint) {
        ctx.report("det-taint", i, None);
    }
}

/// Shared-mutable-state audit for concurrently running cells: `static mut`,
/// `thread_local!`, and interior-mutability containers used as types are
/// flagged inside simulation crates.
fn rule_shard_shared_mut(ctx: &mut FileCtx<'_>) {
    let mut hits = Vec::new();
    for i in 0..ctx.sig.len() {
        if ctx.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let t = ctx.text(i);
        if (t == "static" && ctx.is(i + 1, "mut"))
            || t == "thread_local"
            || (SHARED_MUT_TYPES.contains(&t) && ctx.is(i + 1, "<"))
        {
            hits.push(i);
        }
    }
    for i in hits {
        ctx.report("shard-shared-mut", i, Some(SHARD_SERIAL));
    }
}

/// The pre-flow token-order approximation of `persist-order`, kept as an
/// executable specification: within each function body, report the
/// `line:col` of every commit event with no persist evidence at any
/// *earlier token index*. On straight-line code the flow-sensitive rule
/// must agree with this exactly (pinned by the differential test in
/// `tests/flow.rs`); on branching code they intentionally diverge.
pub fn token_order_commit_sites(source: &str) -> Vec<(u32, u32)> {
    let toks = parse::sig_tokens(source);
    let mut out = Vec::new();
    for f in parse::functions(&toks) {
        let mut persist_seen = false;
        for i in f.body.0..f.body.1.min(toks.len()) {
            if is_event_in(&toks, i, COMMIT_EVENTS) {
                if !persist_seen {
                    out.push((toks[i].line, toks[i].col));
                }
            } else if is_event_in(&toks, i, PERSIST_EVENTS)
                || (is_call(&toks, i) && is_persist_evidence(toks[i].text))
            {
                persist_seen = true;
            }
        }
    }
    out
}

/// True if token `i` is an identifier followed by `(` (a call or method
/// call).
fn is_call(toks: &[SigTok<'_>], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

/// Collects names declared with a `DetHashMap`/`DetHashSet` type annotation
/// anywhere in the file (struct fields and annotated `let`s).
fn det_container_names(ctx: &FileCtx<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..ctx.sig.len() {
        let t = ctx.text(i);
        if t != "DetHashMap" && t != "DetHashSet" {
            continue;
        }
        // Walk left over `segment::` path prefixes.
        let mut j = i;
        while j >= 3
            && ctx.is(j - 1, ":")
            && ctx.is(j - 2, ":")
            && ctx.kind(j - 3) == Some(TokenKind::Ident)
        {
            j -= 3;
        }
        // Expect `name :` immediately before the (possibly qualified) type.
        if j >= 2
            && ctx.is(j - 1, ":")
            && !ctx.is(j - 2, ":")
            && ctx.kind(j - 2) == Some(TokenKind::Ident)
        {
            names.insert(ctx.text(j - 2).to_string());
        }
    }
    names
}

fn rule_order_sensitive_iteration(ctx: &mut FileCtx<'_>) {
    let typed = det_container_names(ctx);
    if typed.is_empty() {
        return;
    }
    let mut hits = Vec::new();
    for i in 2..ctx.sig.len() {
        let m = ctx.text(i);
        if !ORDERED_ITER_METHODS.contains(&m) || !ctx.is(i + 1, "(") || !ctx.is(i - 1, ".") {
            continue;
        }
        if ctx.kind(i - 2) == Some(TokenKind::Ident) && typed.contains(ctx.text(i - 2)) {
            hits.push(i);
        }
    }
    for i in hits {
        ctx.report("order-sensitive-iteration", i, Some(ORDER_FROZEN));
    }
}

/// Walks backward from the token before `as`, staying inside the operand
/// expression, looking for float evidence (a float literal or an `f32`/`f64`
/// token). Stops at statement/argument boundaries.
fn operand_has_float(ctx: &FileCtx<'_>, as_idx: usize) -> bool {
    let mut depth = 0i32;
    let mut j = as_idx;
    let mut budget = 64;
    while j > 0 && budget > 0 {
        j -= 1;
        budget -= 1;
        let t = ctx.text(j);
        match t {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            ";" | "{" | "}" | "," | "=" if depth == 0 => return false,
            _ => {}
        }
        if ctx.kind(j) == Some(TokenKind::Float) || t == "f32" || t == "f64" {
            return true;
        }
    }
    false
}

fn rule_sim_state_float(ctx: &mut FileCtx<'_>) {
    let mut hits = Vec::new();
    for i in 1..ctx.sig.len() {
        if ctx.text(i) != "as" || ctx.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let Some(target) = ctx.sig.get(i + 1).map(|t| t.text(ctx.source)) else {
            continue;
        };
        if INT_TARGETS.contains(&target) && operand_has_float(ctx, i) {
            hits.push(i);
        }
    }
    for i in hits {
        ctx.report("sim-state-float", i, None);
    }
}

fn rule_lossy_cycle_cast(ctx: &mut FileCtx<'_>) {
    let mut hits = Vec::new();
    for i in 1..ctx.sig.len() {
        if ctx.text(i) != "as" || ctx.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let Some(target) = ctx.sig.get(i + 1).map(|t| t.text(ctx.source)) else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        // Collect the field-access chain directly before `as`
        // (`now`, `self.clock`, `out.complete`, `ev.0`).
        let mut j = i;
        let mut counter = false;
        while j > 0 {
            j -= 1;
            match ctx.kind(j) {
                Some(TokenKind::Ident) => {
                    if is_counter_name(ctx.text(j)) {
                        counter = true;
                    }
                }
                Some(TokenKind::Int) => {} // tuple index like `.0`
                _ => break,
            }
            if j == 0 || !ctx.is(j - 1, ".") {
                break;
            }
            j -= 1; // skip the `.`
        }
        if counter {
            hits.push(i);
        }
    }
    for i in hits {
        ctx.report("lossy-cycle-cast", i, None);
    }
}

/// Per-rule finding counts for a report (all known rules, zero included;
/// advisories count under their rule like findings do).
pub fn rule_counts(report: &LintReport) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = RULE_IDS.iter().map(|&r| (r, 0)).collect();
    for f in report.findings.iter().chain(&report.advisories) {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    counts
}

/// Long-form documentation for one rule (`xtask lint --explain <rule>`).
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "det-hash" => {
            "det-hash: rejects HashMap::new / HashSet::new / ::with_capacity.\n\
             std hash containers seed a fresh RandomState per instance, so\n\
             iteration order differs between runs and leaks into simulated\n\
             state. Use simcore::det::{DetHashMap, DetHashSet} (fixed-seed)\n\
             instead."
        }
        "wall-clock" => {
            "wall-clock: rejects Instant::now() and SystemTime.\n\
             Host time must never feed simulated results; the simulator's\n\
             own cycle clock is the only time source. Host timing for the\n\
             bench harness is annotated explicitly."
        }
        "thread-rng" => {
            "thread-rng: rejects thread_rng / rand::random.\n\
             OS-seeded randomness breaks run-to-run determinism. Use the\n\
             seeded simcore::det RNG plumbed through the config."
        }
        "par-iter" => {
            "par-iter: rejects par_iter()/into_par_iter()/par_bridge().\n\
             Unordered parallel collection makes reduction order (and\n\
             float/counter accumulation) nondeterministic. Parallelism is\n\
             allowed only across independent simulations with ordered joins."
        }
        "unsafe-safety" => {
            "unsafe-safety: every `unsafe` needs a `// SAFETY:` comment\n\
             within the three lines above it explaining the invariant."
        }
        "forbid-unsafe" => {
            "forbid-unsafe: every crate root (src/lib.rs) must carry\n\
             #![forbid(unsafe_code)] so unsafety cannot creep in silently."
        }
        "persist-order" => {
            "persist-order: a commit event (Event::CommitRecord, or an\n\
             Event::Slice, which may carry a tail slice's commit flag) with\n\
             NO path from function entry carrying payload-persist evidence\n\
             (Event::PayloadWrite/DataPersisted/HomeWrite/Flush/Fence,\n\
             write_burst, burst_spread, write_home_line, fence,\n\
             persist*/flush* calls, or a helper whose transitive fixpoint\n\
             summary persists — any call depth). This is HOOP's\n\
             §III-G ordering contract — the commit record is persisted\n\
             only after the payload it covers — checked as a dominance\n\
             property on the function's control-flow graph. Flow model:\n\
             dual loop edges (at-least-once and zero-iteration bypass),\n\
             call arguments opaque, helper evidence solved to a worklist\n\
             fixpoint over the workspace call graph (see DESIGN.md §9)."
        }
        "persist-in-loop-only" => {
            "persist-in-loop-only (advisory): a commit event\n\
             dominated by persist evidence ONLY under the at-least-once\n\
             loop model — every path with evidence runs a while/for body,\n\
             so on the zero-iteration bypass the commit record is written\n\
             with nothing persisted before it. This is a warning, not an\n\
             error: draining an empty transaction and committing zero\n\
             payload lines is a legitimate shape (the commit record then\n\
             covers nothing), but the site is worth knowing about when\n\
             auditing §III-G ordering. Advisories are printed and exported\n\
             under `advisories` in the JSON report; they never fail the\n\
             gate and are never baselined."
        }
        "commit-in-branch" => {
            "commit-in-branch: a commit event where SOME path\n\
             from function entry carries payload-persist evidence but\n\
             ANOTHER reaches the commit without it — e.g. the persist sits\n\
             in one `if` arm only. The old token-order rule could not see\n\
             this shape (evidence earlier in the token stream looked\n\
             dominating); the CFG must/may dataflow pair distinguishes it:\n\
             may-but-not-must is exactly \"covered on some paths only\"."
        }
        "order-sensitive-iteration" => {
            "order-sensitive-iteration: .iter()/.keys()/.values()/.drain()\n\
             on a receiver declared DetHashMap/DetHashSet in the same file.\n\
             Det containers fix the seed, but their iteration order is\n\
             still insertion-history-dependent; if it feeds simulated\n\
             state, annotate the site lint:order-frozen to freeze it into\n\
             the determinism contract (DESIGN.md §8)."
        }
        "sim-state-float" => {
            "sim-state-float: casting a float-tainted expression to an\n\
             integer/Cycle type. Floating point must not feed simulated\n\
             counters; derive integer state from integer arithmetic."
        }
        "lossy-cycle-cast" => {
            "lossy-cycle-cast: `as` truncation of a cycle/clock-named\n\
             counter to a sub-64-bit integer. Cycle counters are u64 by\n\
             contract; narrowing silently wraps on long runs."
        }
        "shard-shared-mut" => {
            "shard-shared-mut: static mut, thread_local!, or an\n\
             interior-mutability container type (Rc<, RefCell<, Cell<,\n\
             UnsafeCell<, Mutex<, RwLock<) inside the simulation crates.\n\
             --jobs runs cells concurrently on host threads; shared\n\
             mutable state that is not owned by exactly one cell couples\n\
             one cell's result to another's schedule. Decide ownership\n\
             explicitly (annotate with a reason if it must stay)."
        }
        "hook-coverage" => {
            "hook-coverage: a write_burst/burst_spread/write_home_line call\n\
             site in a non-#[test] function with no sanitizer observation —\n\
             no sanitizer-observed Event::<Variant> in the body (the\n\
             valve-only Payload/Home/Gc/Reclaim/Meta/Recovery variants\n\
             tick the crash valve but do not count), no call to a\n\
             helper whose transitive summary notifies, and no\n\
             observed-by-caller bit (no transitively-notifying function\n\
             anywhere up its call chains). The runtime pmcheck sanitizer\n\
             claims to shadow every persist event; this rule is the\n\
             static half of that cross-validation, proving no engine path\n\
             emits device traffic the sanitizer cannot see. Inspect a\n\
             function's solved summary and chains with\n\
             `xtask lint --callers FILE:FN`."
        }
        "det-taint" => {
            "det-taint: an order-sensitive value flowing into simulated\n\
             state. Sources: iteration over a DetHashMap/DetHashSet\n\
             receiver not frozen by lint:order-frozen (fixed seed, but\n\
             insertion-history-dependent order), Instant::now()/SystemTime\n\
             (host time), and float accumulation under += inside a fn fold\n\
             body (merge reduction order). Taint propagates through\n\
             assignments, let/for bindings, returns, and the workspace\n\
             call graph (tainted-returns fixpoint). Sinks are writes whose\n\
             path ends in a simulated-state name (cycle/clock/energy/seed/\n\
             latency/deadline substrings, or now/done/complete/stall/\n\
             state); paths with a stat/host/bench/wall/report segment are\n\
             host-only and permitted. Escape with lint:allow(det-taint) or\n\
             freeze the iteration order with lint:order-frozen."
        }
        _ => return None,
    })
}
