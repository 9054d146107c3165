//! Workspace call graph with fixed-point transitive summaries.
//!
//! For each recovered function the graph records three *direct* bits —
//! does the body contain direct payload-persist evidence (`persists`), a
//! sanitizer-observed persist event (`notifies`), a commit event
//! (`commits`) — plus the set of callee names. Persist events are the
//! `Event::<Variant>` paths of `simcore::persist` (see [`OBSERVED_EVENTS`]);
//! a valve-only variant ticks the crash valve but tells the sanitizer
//! nothing, so it is not a notification. A
//! worklist pass ([`CallGraph::solve`]) then closes those bits over the
//! call graph by monotone OR-merge: a function that persists *via any
//! chain of callees, at any depth* carries `persists` in its transitive
//! summary. The merge is a join on a finite lattice (three booleans per
//! name, only ever raised), so the fixpoint exists, is unique, and the
//! pass terminates on recursion and mutual recursion without special
//! casing — a cycle simply stops changing.
//!
//! On top of the forward closure, `solve` derives one *backward* bit:
//! `observed` holds for a function when some transitive **caller**
//! notifies the sanitizer (equivalently: the function is reachable, via
//! one or more call edges, from a function whose transitive summary
//! notifies). `hook-coverage` uses it to clear helpers whose raw device
//! traffic is audited one or more frames up the stack — the shape the
//! engines' hook-coverage allow annotations used to paper over.
//!
//! Functions are keyed by bare name and merged across the workspace with
//! OR semantics: if *any* function of that name persists, call sites
//! credit it — erring toward silence when names collide across modules
//! (the conservative direction for every rule built on the graph).
//!
//! [`CallGraph::evidence_chain`] / [`CallGraph::observer_chain`] recover
//! a *shortest* witness path for any transitive bit (BFS over the sorted
//! edge sets, so chains are deterministic); `xtask lint --callers`
//! prints them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::parse::{functions, sig_tokens, SigTok};

/// Summary of one function name. After [`CallGraph::solve`], the three
/// forward bits are *transitive* (closed over callees to fixpoint) and
/// `observed` is the backward caller bit; before `solve` they equal the
/// direct bits and `observed` is false.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Persist evidence in the body or in any transitive callee.
    pub persists: bool,
    /// A sanitizer-observed `Event::<Variant>` in the body or any
    /// transitive callee.
    pub notifies: bool,
    /// A commit event in the body or any transitive callee.
    pub commits: bool,
    /// Some transitive caller notifies the sanitizer (backward bit;
    /// always false in direct summaries).
    pub observed: bool,
}

impl FnSummary {
    /// OR-merge of the three forward bits (`observed` is derived
    /// separately and not propagated forward).
    fn absorb_forward(&mut self, other: &FnSummary) -> bool {
        let before = (self.persists, self.notifies, self.commits);
        self.persists |= other.persists;
        self.notifies |= other.notifies;
        self.commits |= other.commits;
        before != (self.persists, self.notifies, self.commits)
    }
}

/// Which direct fact an [`CallGraph::evidence_chain`] query targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fact {
    /// Direct payload-persist evidence.
    Persists,
    /// A direct sanitizer-observed event.
    Notifies,
    /// A direct commit event.
    Commits,
}

impl Fact {
    fn holds(self, s: &FnSummary) -> bool {
        match self {
            Fact::Persists => s.persists,
            Fact::Notifies => s.notifies,
            Fact::Commits => s.commits,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Node {
    direct: FnSummary,
    trans: FnSummary,
    callees: BTreeSet<String>,
}

/// Name-keyed function summaries for a set of source files, with call
/// edges and the fixed-point closure over them.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    nodes: BTreeMap<String, Node>,
    solved: bool,
}

/// Variants of `simcore::persist::Event` the persistency sanitizer
/// observes: naming one as `Event::<Variant>` is a notification. The
/// valve-only variants (`Payload`, `Home`, `Gc`, `Reclaim`, `Meta`,
/// `Recovery`) only tick the crash valve and are deliberately absent. The
/// path is matched by name only, so another enum called `Event` with a
/// same-named variant also counts — erring toward silence.
pub const OBSERVED_EVENTS: &[&str] = &[
    "Engine",
    "TxBegin",
    "TxStore",
    "VolatileStore",
    "EvictDirty",
    "TxCommitted",
    "Crash",
    "PayloadWrite",
    "DataPersisted",
    "HomeWrite",
    "CommitRecord",
    "Slice",
    "GcMigrate",
    "GcHome",
    "RedirectedRead",
    "BlockReclaim",
    "MappingCleared",
    "RegionCleared",
    "RecoveryReplay",
    "Flush",
    "Fence",
];

/// Observed variants that carry a durable commit point (a `Slice` does
/// when it is a transaction's tail): the commit sites of `persist-order`.
pub const COMMIT_EVENTS: &[&str] = &["CommitRecord", "Slice"];

/// Observed variants that make payload durable: persist evidence.
pub const PERSIST_EVENTS: &[&str] = &[
    "PayloadWrite",
    "DataPersisted",
    "HomeWrite",
    "Flush",
    "Fence",
];

/// The variant named at token `i` if it ends an `Event :: <Variant>` path.
pub fn event_variant<'a>(toks: &[SigTok<'a>], i: usize) -> Option<&'a str> {
    (i >= 3
        && toks[i].kind == TokenKind::Ident
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 3].text == "Event")
        .then_some(toks[i].text)
}

/// True if token `i` names an `Event` variant listed in `variants`.
pub fn is_event_in(toks: &[SigTok<'_>], i: usize, variants: &[&str]) -> bool {
    event_variant(toks, i).is_some_and(|v| variants.contains(&v))
}

/// True if token `i` is an identifier invoked as a call or method call:
/// `name (` or `. name (`.
fn is_call_at(toks: &[SigTok<'_>], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident
        && i + 1 < toks.len()
        && toks[i + 1].text == "("
        // Keywords legally followed by `(` — tuple patterns, parenthesized
        // conditions/scrutinees/operands — are statement shapes, not calls.
        && !matches!(
            toks[i].text,
            "fn" | "let" | "if" | "while" | "match" | "return" | "break" | "continue" | "in"
        )
        && !(i > 0 && toks[i - 1].text == "fn") // a nested fn's name, not a call
}

impl CallGraph {
    /// Scans one file's source and OR-merges every recovered function's
    /// direct summary and callee set into the graph. Persist events are
    /// classified by the `Event` vocabulary above; `is_persist_evidence`
    /// classifies the remaining identifier tokens (the rule layer owns
    /// that vocabulary; the graph owns the traversal). Invalidates any
    /// prior [`solve`](Self::solve) result.
    pub fn add_file(&mut self, source: &str, is_persist_evidence: &dyn Fn(&str) -> bool) {
        let toks = sig_tokens(source);
        for f in functions(&toks) {
            let mut s = FnSummary::default();
            for i in f.body.0..f.body.1 {
                if event_variant(&toks, i).is_some() {
                    s.notifies |= is_event_in(&toks, i, OBSERVED_EVENTS);
                    s.commits |= is_event_in(&toks, i, COMMIT_EVENTS);
                    s.persists |= is_event_in(&toks, i, PERSIST_EVENTS);
                } else if toks[i].kind == TokenKind::Ident && is_persist_evidence(toks[i].text) {
                    s.persists = true;
                }
            }
            let callees: Vec<String> = callees_in(&toks, f.body)
                .into_iter()
                .map(|(_, n)| n)
                .collect();
            self.insert(&f.name, s, &callees);
        }
    }

    /// Inserts (or OR-merges) a function node directly, bypassing source
    /// scanning — the constructor the fixpoint property tests use to build
    /// synthetic graphs (including recursive and mutually recursive ones).
    pub fn add_synthetic(
        &mut self,
        name: &str,
        persists: bool,
        notifies: bool,
        commits: bool,
        callees: &[&str],
    ) {
        let s = FnSummary {
            persists,
            notifies,
            commits,
            observed: false,
        };
        let callees: Vec<String> = callees.iter().map(|c| c.to_string()).collect();
        self.insert(name, s, &callees);
    }

    fn insert(&mut self, name: &str, direct: FnSummary, callees: &[String]) {
        let node = self.nodes.entry(name.to_string()).or_default();
        node.direct.absorb_forward(&direct);
        node.trans = node.direct;
        node.trans.observed = false;
        node.callees.extend(callees.iter().cloned());
        self.solved = false;
    }

    /// One simultaneous one-level merge round: every function's transitive
    /// bits absorb its callees' bits *as of the previous round*. Returns
    /// whether anything changed. Iterating this to quiescence is the naive
    /// Kleene ladder the worklist in [`solve`](Self::solve) must equal —
    /// the fixpoint property test pins that. Does not derive `observed`.
    pub fn propagate_once(&mut self) -> bool {
        let snapshot: BTreeMap<String, FnSummary> = self
            .nodes
            .iter()
            .map(|(n, node)| (n.clone(), node.trans))
            .collect();
        let mut changed = false;
        for node in self.nodes.values_mut() {
            for c in &node.callees {
                if let Some(cs) = snapshot.get(c) {
                    changed |= node.trans.absorb_forward(cs);
                }
            }
        }
        changed
    }

    /// Closes the summaries to fixpoint: a worklist pass raises each
    /// function's forward bits over its callees' (re-enqueueing callers of
    /// anything that changed), then a reverse reachability pass sets
    /// `observed` on every function reachable from a transitively-notifying
    /// function via one or more call edges. Idempotent; total on cycles.
    pub fn solve(&mut self) {
        if self.solved {
            return;
        }
        for node in self.nodes.values_mut() {
            node.trans = node.direct;
            node.trans.observed = false;
        }
        // Reverse edges once: callers[name] = functions that call `name`.
        let mut callers: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let names: Vec<String> = self.nodes.keys().cloned().collect();
        for (n, node) in &self.nodes {
            for c in &node.callees {
                callers.entry(c.clone()).or_default().push(n.clone());
            }
        }
        // Forward worklist: seed with every node, absorb callee bits, and
        // requeue callers whenever a node's bits rise.
        let mut queue: VecDeque<String> = names.iter().cloned().collect();
        let mut queued: BTreeSet<String> = names.iter().cloned().collect();
        while let Some(n) = queue.pop_front() {
            queued.remove(&n);
            let Some(node) = self.nodes.get(&n) else {
                continue;
            };
            let mut merged = node.trans;
            for c in &node.callees {
                if let Some(cn) = self.nodes.get(c) {
                    merged.absorb_forward(&cn.trans);
                }
            }
            let node = self.nodes.get_mut(&n).expect("node exists");
            if node.trans.absorb_forward(&merged) {
                for caller in callers.get(&n).into_iter().flatten() {
                    if queued.insert(caller.clone()) {
                        queue.push_back(caller.clone());
                    }
                }
            }
        }
        // Backward bit: BFS from every transitively-notifying function
        // through callee edges; everything reached in >= 1 step has a
        // notifying transitive caller.
        let mut frontier: VecDeque<String> = Vec::new().into();
        for (n, node) in &self.nodes {
            if node.trans.notifies {
                frontier.push_back(n.clone());
            }
        }
        let mut expanded: BTreeSet<String> = BTreeSet::new();
        while let Some(n) = frontier.pop_front() {
            if !expanded.insert(n.clone()) {
                continue;
            }
            let callees: Vec<String> = match self.nodes.get(&n) {
                Some(node) => node.callees.iter().cloned().collect(),
                None => continue,
            };
            for c in callees {
                if let Some(cn) = self.nodes.get_mut(&c) {
                    if !cn.trans.observed {
                        cn.trans.observed = true;
                    }
                    // Expand through the callee regardless: its own callees
                    // inherit the notifying ancestor.
                    if !expanded.contains(&c) {
                        frontier.push_back(c);
                    }
                }
            }
        }
        self.solved = true;
    }

    /// The merged summary for `name`, if any function of that name was
    /// seen. Transitive after [`solve`](Self::solve); direct before.
    pub fn summary(&self, name: &str) -> Option<FnSummary> {
        self.nodes.get(name).map(|n| n.trans)
    }

    /// The direct (body-only) bits for `name`, ignoring callees.
    pub fn direct_summary(&self, name: &str) -> Option<FnSummary> {
        self.nodes.get(name).map(|n| n.direct)
    }

    /// True if `name` resolves to a summarized function that persists
    /// (transitively, after [`solve`](Self::solve)).
    pub fn callee_persists(&self, name: &str) -> bool {
        self.summary(name).is_some_and(|s| s.persists)
    }

    /// True if `name` resolves to a summarized function that notifies the
    /// sanitizer (transitively, after [`solve`](Self::solve)).
    pub fn callee_notifies(&self, name: &str) -> bool {
        self.summary(name).is_some_and(|s| s.notifies)
    }

    /// True if some transitive caller of `name` notifies the sanitizer.
    pub fn is_observed(&self, name: &str) -> bool {
        self.summary(name).is_some_and(|s| s.observed)
    }

    /// Sorted callee names of `name` (empty if unknown).
    pub fn callees_of(&self, name: &str) -> Vec<&str> {
        self.nodes
            .get(name)
            .map(|n| n.callees.iter().map(|c| c.as_str()).collect())
            .unwrap_or_default()
    }

    /// Sorted caller names of `name` (functions whose bodies call it).
    pub fn callers_of(&self, name: &str) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|(_, node)| node.callees.contains(name))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Shortest call chain `[name, .., witness]` from `name` down through
    /// callees to a function whose *direct* summary carries `fact` — the
    /// evidence a transitive bit rests on. `[name]` alone when the body
    /// itself carries it; `None` when the transitive bit is false (or the
    /// function is unknown). BFS over sorted callee sets: deterministic.
    pub fn evidence_chain(&self, name: &str, fact: Fact) -> Option<Vec<String>> {
        self.nodes.get(name)?;
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(name);
        let mut seen: BTreeSet<&str> = [name].into_iter().collect();
        while let Some(n) = queue.pop_front() {
            let node = &self.nodes[n];
            if fact.holds(&node.direct) {
                let mut chain = vec![n.to_string()];
                let mut cur = n;
                while let Some(&p) = parent.get(cur) {
                    chain.push(p.to_string());
                    cur = p;
                }
                chain.reverse();
                return Some(chain);
            }
            for c in &node.callees {
                if self.nodes.contains_key(c.as_str()) && seen.insert(c.as_str()) {
                    parent.insert(c.as_str(), n);
                    queue.push_back(c.as_str());
                }
            }
        }
        None
    }

    /// Shortest caller chain `[name, caller, .., notifier]` ending at a
    /// function whose transitive summary notifies — the witness for the
    /// `observed` bit. `None` when `name` is not observed.
    pub fn observer_chain(&self, name: &str) -> Option<Vec<String>> {
        self.nodes.get(name)?;
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(name);
        let mut seen: BTreeSet<&str> = [name].into_iter().collect();
        while let Some(n) = queue.pop_front() {
            for caller in self.callers_of(n) {
                if !seen.insert(caller) {
                    continue;
                }
                parent.insert(caller, n);
                if self.nodes[caller].trans.notifies {
                    let mut chain = vec![caller.to_string()];
                    let mut cur = caller;
                    while let Some(&p) = parent.get(cur) {
                        chain.push(p.to_string());
                        cur = p;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(caller);
            }
        }
        None
    }

    /// Number of distinct function names summarized.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no functions have been summarized.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Call-site scan: every callee name invoked in `toks[range]` (both
/// free-function `name(..)` and method `.name(..)` forms).
pub fn callees_in(toks: &[SigTok<'_>], range: (usize, usize)) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if is_call_at(toks, i) {
            out.push((i, toks[i].text.to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        g.add_file(src, &|name| name.starts_with("persist"));
        g.solve();
        g
    }

    #[test]
    fn direct_persist_sets_summary() {
        let g = graph_of("fn helper(&mut self) { self.persist_line(a); }");
        assert!(g.callee_persists("helper"));
        assert!(!g.callee_notifies("helper"));
    }

    #[test]
    fn notification_requires_an_observed_event_path() {
        let g = graph_of(
            "fn a(&self) { self.probe.emit(Event::HomeWrite(line), t); }\nfn b(&self) { self.dev.flush(l); }\nfn c(&self) { self.probe.emit(Event::Reclaim, t); }",
        );
        assert!(g.callee_notifies("a"));
        assert!(g.callee_persists("a"));
        // `dev.flush` shares an event's name but is no `Event::` path.
        assert!(!g.callee_notifies("b"));
        // A valve-only variant ticks the valve but tells the sanitizer
        // nothing.
        assert!(!g.callee_notifies("c"));
    }

    #[test]
    fn commit_requires_the_commit_event_path() {
        let g = graph_of(
            "fn c(&mut self) { self.probe.emit(Event::CommitRecord(tx), t); }\nfn d() { let CommitRecord = 1; }",
        );
        assert!(g.summary("c").unwrap().commits);
        assert!(!g.summary("d").unwrap().commits);
    }

    #[test]
    fn same_name_merges_with_or() {
        let g = graph_of("fn h() { persist_x(); }\nmod m { fn h() { noop(); } }");
        assert!(g.callee_persists("h"));
    }

    #[test]
    fn evidence_propagates_to_fixpoint_at_any_depth() {
        // inner persists; mid only calls inner; outer only calls mid — the
        // fixed-point closure carries the bit through both frames (the old
        // one-level cutoff stopped at mid).
        let g = graph_of(
            "fn inner() { persist_x(); }\nfn mid(&mut self) { self.inner(); }\nfn outer(&mut self) { self.mid(); }",
        );
        assert!(g.callee_persists("inner"));
        assert!(g.callee_persists("mid"));
        assert!(g.callee_persists("outer"));
        assert_eq!(
            g.evidence_chain("outer", Fact::Persists).unwrap(),
            vec!["outer", "mid", "inner"]
        );
        // Direct bits stay body-only.
        assert!(!g.direct_summary("outer").unwrap().persists);
    }

    #[test]
    fn recursion_and_mutual_recursion_terminate() {
        let g = graph_of(
            "fn even(n: u64) { odd(n - 1); }\nfn odd(n: u64) { even(n - 1); }\nfn rec(&mut self) { self.rec(); self.persist_all(); }",
        );
        // The mutual cycle carries no evidence and stays clean.
        assert!(!g.callee_persists("even") && !g.callee_persists("odd"));
        // Self-recursion with direct evidence converges with the bit set.
        assert!(g.callee_persists("rec"));
    }

    #[test]
    fn observed_set_by_notifying_transitive_caller() {
        // store -> on_store -> raw_write; store notifies. Both callees are
        // observed (any-caller, any-depth), the notifier itself is not.
        let g = graph_of(
            "fn store(&mut self) { self.probe.emit(Event::TxStore(tx, line), t); self.on_store(a); }\nfn on_store(&mut self, a: A) { self.raw_write(a); }\nfn raw_write(&mut self, a: A) { dev(a); }",
        );
        assert!(g.is_observed("on_store"));
        assert!(g.is_observed("raw_write"));
        assert!(!g.is_observed("store"));
        assert_eq!(
            g.observer_chain("raw_write").unwrap(),
            vec!["raw_write", "on_store", "store"]
        );
    }

    #[test]
    fn observed_via_notifying_sibling_callee() {
        // tx_end calls a notifying helper and a silent helper: the silent
        // one is observed because its caller notifies *transitively*.
        let g = graph_of(
            "fn observe(&mut self) { self.probe.emit(Event::EvictDirty(line, persistent), t); }\nfn tx_end(&mut self) { self.observe(); self.append(); }\nfn append(&mut self) { raw(); }",
        );
        assert!(g.callee_notifies("tx_end"));
        assert!(g.is_observed("append"));
    }

    #[test]
    fn propagate_once_ladder_reaches_solve_fixpoint() {
        let mut a = CallGraph::default();
        for (name, persists, callees) in [
            ("leaf", true, vec![]),
            ("mid", false, vec!["leaf"]),
            ("outer", false, vec!["mid"]),
        ] {
            a.add_synthetic(name, persists, false, false, &callees);
        }
        let mut b = a.clone();
        a.solve();
        while b.propagate_once() {}
        for n in ["leaf", "mid", "outer"] {
            assert_eq!(
                a.summary(n).unwrap().persists,
                b.summary(n).unwrap().persists,
                "worklist vs iterated merge diverge on {n}"
            );
        }
    }

    #[test]
    fn callees_are_collected_with_positions() {
        let toks = sig_tokens("fn f() { a(); x.b(1); fn g() {} }");
        let f = functions(&toks).into_iter().next().unwrap();
        let names: Vec<String> = callees_in(&toks, f.body)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }
}
