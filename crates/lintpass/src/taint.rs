//! Determinism-taint analysis (`det-taint`).
//!
//! The runtime determinism contract (DESIGN.md §8) says: no
//! order-sensitive or host-dependent value may flow into *simulated
//! state*. This module checks that statically as a taint analysis over
//! the same significant-token view the persist-order rules use:
//!
//! **Sources** (where taint is seeded):
//! * iteration over a `DetHashMap`/`DetHashSet` receiver (an ordered
//!   iteration method, or a `for` loop over the receiver itself) whose site is
//!   *not* frozen into the contract (a `lint:order-frozen` marker or an
//!   order-sensitive-iteration allow) — the seed is fixed but the order
//!   is insertion-history-dependent;
//! * wall-clock reads (`Instant::now()`, `SystemTime`) — host time;
//! * `f64`/float accumulation under a compound `+=` inside a `fn fold`
//!   body — the reduction order of a merge changes float sums.
//!
//! **Seeded sources** are the explicit non-sources: functions whose
//! returns are pure `(seed, identity)` hashes (the media-fault schedule
//! RNG, [`SEEDED_SOURCES`]) stay untainted at the fixpoint even if their
//! bodies would otherwise convict — a seeded RNG is deterministic by
//! construction.
//!
//! **Propagation**: flow-insensitively through assignments (`=` and
//! compound ops), `let`/`for` pattern bindings, and function returns
//! (`return expr;` and tail expressions feed a `<ret>` pseudo-variable).
//! Return taint crosses functions through a workspace-level fixpoint
//! ([`TaintIndex::solve`]): a call to a function whose return is tainted
//! taints the assignment, and the set of tainted-return functions is
//! iterated to a (monotone, hence terminating) fixpoint — same name-keyed
//! merge discipline as [`crate::callgraph`].
//!
//! **Sinks**: writes to simulated state, recognized by the written
//! path's last segment (cycle/clock/energy/seed/latency/deadline
//! substrings, or exact timing names like `now`/`state`). A path with a
//! host-only segment (`stat`/`host`/`bench`/`wall`/`report`) is
//! *permitted* — taint may flow into host-side statistics freely.
//!
//! The extractor is deliberately conservative toward **silence**: an
//! assignment shape it cannot parse (slice-indexed lhs, struct-literal
//! field inits, values born inside `if`/`match` arm blocks) contributes
//! no taint and no sink, so unparsed code never convicts. `#[test]`
//! functions are exempt, mirroring `hook-coverage`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::parse::{functions, sig_tokens, FnItem, SigTok};
use crate::rules::{
    det_container_names, for_loop_container, returns_det_container, DetNames, ORDERED_ITER_METHODS,
};

/// Pseudo-variable standing for a function's return value.
const RET: &str = "<ret>";

/// Sink substrings matched against the *last* segment of a written path.
const SINK_CONTAINS: &[&str] = &["cycle", "clock", "energy", "seed", "latency", "deadline"];
/// Sink exact names (too short / common to substring-match).
const SINK_EXACT: &[&str] = &["now", "done", "complete", "stall", "state"];
/// A path containing one of these substrings in *any* segment is
/// host-only: taint is permitted to flow into it. (`stat`/`stats` are
/// matched as words, not substrings — `state` is a sink, not a stat.)
const PERMITTED_CONTAINS: &[&str] = &["host", "bench", "wall", "report"];

/// Markers that freeze an iteration order into the determinism contract
/// (so iterating there is not a taint source).
const FROZEN_MARKERS: &[&str] = &["lint:order-frozen", "lint:allow(order-sensitive-iteration)"];

/// Identity-seeded value sources: their returns are pure functions of
/// `(seed, identity)` inputs — the same schedule in any execution order —
/// so the cross-function fixpoint never treats them as taint-carrying,
/// regardless of what their bodies do. The media-fault
/// schedule hash (`nvm::media::media_hash`, DESIGN.md §13) is the
/// canonical case: it *is* the subsystem's RNG, but a seeded one.
const SEEDED_SOURCES: &[&str] = &["media_hash"];

/// Whether a written path is a simulated-state sink.
fn is_sink(path: &str) -> bool {
    let last = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    SINK_CONTAINS.iter().any(|s| last.contains(s)) || SINK_EXACT.contains(&last.as_str())
}

/// Whether a written path is host-only (taint permitted).
fn is_permitted(path: &str) -> bool {
    path.split('.').any(|seg| {
        let seg = seg.to_ascii_lowercase();
        PERMITTED_CONTAINS.iter().any(|s| seg.contains(s))
            || seg == "stat"
            || seg.contains("stats")
            || seg.starts_with("stat_")
            || seg.ends_with("_stat")
    })
}

/// One extracted assignment: `lhs` receives a value read from `vars`
/// (dotted paths) and the returns of `calls` (callee names), possibly
/// seeded directly by an order-sensitive `source`.
#[derive(Clone, Debug)]
struct Assign {
    lhs: String,
    /// Significant-token index of the first lhs token (`usize::MAX` for
    /// the synthetic `<ret>` of a tail expression).
    lhs_tok: usize,
    vars: Vec<String>,
    calls: Vec<String>,
    source: bool,
}

/// What one right-hand-side scan observed.
#[derive(Default)]
struct Rhs {
    vars: Vec<String>,
    calls: Vec<String>,
    source: bool,
    float: bool,
}

/// Expression keywords never collected as variable reads.
fn is_expr_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "else"
            | "match"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "return"
            | "in"
            | "let"
            | "loop"
            | "while"
            | "for"
            | "await"
            | "unsafe"
            | "true"
            | "false"
    )
}

/// Whether `line` (1-based) or its contiguous `//` comment block above
/// carries a frozen-order marker (same locality budget as rule allows).
fn line_is_frozen(raw_lines: &[&str], line: u32) -> bool {
    let has = |k: usize| {
        raw_lines
            .get(k - 1)
            .is_some_and(|raw| FROZEN_MARKERS.iter().any(|m| raw.contains(m)))
    };
    let l = line as usize;
    if l == 0 {
        return false;
    }
    if has(l) {
        return true;
    }
    let mut k = l;
    let mut budget = 8;
    while k > 1 && budget > 0 {
        k -= 1;
        budget -= 1;
        let raw = raw_lines.get(k - 1).map_or("", |s| s.trim_start());
        if !raw.starts_with("//") {
            break;
        }
        if has(k) {
            return true;
        }
    }
    false
}

/// Det-container names of a file (see [`det_container_names`]).
fn det_names(toks: &[SigTok<'_>], det_fns: &BTreeSet<String>) -> DetNames {
    det_container_names(toks.len(), |k| (toks[k].text, toks[k].kind), det_fns)
}

/// Scans an expression from `start`, collecting variable reads, calls,
/// and taint sources, until a terminator at delimiter depth 0: `;`
/// (consumed), `{`, or an unmatched closer (left in place). Returns the
/// observations and the index scanning stopped at.
fn scan_rhs(
    toks: &[SigTok<'_>],
    start: usize,
    end: usize,
    det: &DetNames,
    raw_lines: &[&str],
) -> (Rhs, usize) {
    let mut r = Rhs::default();
    let mut depth = 0i64;
    let mut i = start;
    while i < end {
        let t = toks[i];
        match t.text {
            "(" | "[" => {
                depth += 1;
                i += 1;
                continue;
            }
            ")" | "]" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                i += 1;
                continue;
            }
            "{" => {
                if depth == 0 {
                    break;
                }
                depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                i += 1;
                continue;
            }
            ";" if depth == 0 => {
                i += 1;
                break;
            }
            _ => {}
        }
        // Wall-clock sources.
        if t.text == "Instant"
            && i + 3 < end
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "now"
        {
            r.source = true;
            i += 4;
            continue;
        }
        if t.text == "SystemTime" && t.kind == TokenKind::Ident {
            r.source = true;
        }
        if t.kind == TokenKind::Float || t.text == "f64" || t.text == "f32" {
            r.float = true;
        }
        if t.kind == TokenKind::Ident && !is_expr_keyword(t.text) {
            // Collect the dotted path starting here.
            let mut segs = vec![t.text];
            let mut j = i + 1;
            while j + 1 < end
                && toks[j].text == "."
                && matches!(toks[j + 1].kind, TokenKind::Ident | TokenKind::Int)
            {
                segs.push(toks[j + 1].text);
                j += 2;
            }
            if j < end && toks[j].text == "(" {
                let callee = *segs.last().expect("path has at least one segment");
                r.calls.push(callee.to_string());
                if segs.len() >= 2 {
                    r.vars.push(segs[..segs.len() - 1].join("."));
                    let recv_last = segs[segs.len() - 2];
                    // A frozen-order marker counts at the receiver's line
                    // or the method's line: multi-line method chains put
                    // the marker directly above the `.values()` call, the
                    // same anchor `order-sensitive-iteration` uses.
                    let method_line = toks[j - 1].line;
                    let dotted = segs.len() > 2 || (i > 0 && toks[i - 1].text == ".");
                    if det.matches(recv_last, dotted)
                        && ORDERED_ITER_METHODS.contains(&callee)
                        && !line_is_frozen(raw_lines, t.line)
                        && !line_is_frozen(raw_lines, method_line)
                    {
                        r.source = true;
                    }
                }
            } else {
                r.vars.push(segs.join("."));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    (r, i)
}

/// Extracts the assignment facts of one function body.
fn extract(toks: &[SigTok<'_>], f: &FnItem, det: &DetNames, raw_lines: &[&str]) -> Vec<Assign> {
    let end = f.body.1.min(toks.len());
    let is_fold = f.name == "fold";
    let mut out = Vec::new();
    let mut i = f.body.0;
    while i < end {
        let t = toks[i];
        // `for <pat> in <expr> {` — the pattern binds the iterated values.
        if t.text == "for" && t.kind == TokenKind::Ident {
            let mut j = i + 1;
            let mut pat = Vec::new();
            while j < end && toks[j].text != "in" && toks[j].text != "{" {
                if toks[j].kind == TokenKind::Ident && !matches!(toks[j].text, "_" | "mut" | "ref")
                {
                    pat.push((toks[j].text.to_string(), j));
                }
                j += 1;
            }
            if j >= end || toks[j].text != "in" {
                i = j.max(i + 1);
                continue;
            }
            let (mut rhs, stop) = scan_rhs(toks, j + 1, end, det, raw_lines);
            // `for <pat> in &map {` iterates the container itself.
            if let Some(c) = for_loop_container(end, |k| (toks[k].text, toks[k].kind), i) {
                rhs.source |= det.matches(toks[c].text, toks[c - 1].text == ".")
                    && !line_is_frozen(raw_lines, t.line)
                    && !line_is_frozen(raw_lines, toks[c].line);
            }
            for (name, at) in pat {
                out.push(Assign {
                    lhs: name,
                    lhs_tok: at,
                    vars: rhs.vars.clone(),
                    calls: rhs.calls.clone(),
                    source: rhs.source,
                });
            }
            i = stop.max(i + 1);
            continue;
        }
        // `let <pat> [: ty] = <expr> ;` (also `if let` / `while let` /
        // let-else heads, whose scans stop at the block `{`).
        if t.text == "let" && t.kind == TokenKind::Ident {
            let mut j = i + 1;
            let mut pat = Vec::new();
            let mut depth = 0i64;
            while j < end {
                match toks[j].text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ":" | "=" | ";" | "{" if depth == 0 => break,
                    _ => {
                        if toks[j].kind == TokenKind::Ident
                            && !matches!(toks[j].text, "mut" | "ref" | "_")
                        {
                            pat.push((toks[j].text.to_string(), j));
                        }
                    }
                }
                j += 1;
            }
            if j < end && toks[j].text == ":" {
                // Skip the type annotation (angles nest).
                let mut adepth = 0i64;
                j += 1;
                while j < end {
                    match toks[j].text {
                        "(" | "[" | "<" => adepth += 1,
                        ")" | "]" | ">" => adepth -= 1,
                        "=" | ";" if adepth <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            if j < end && toks[j].text == "=" && !(j + 1 < end && toks[j + 1].text == "=") {
                let (rhs, stop) = scan_rhs(toks, j + 1, end, det, raw_lines);
                for (name, at) in pat {
                    out.push(Assign {
                        lhs: name,
                        lhs_tok: at,
                        vars: rhs.vars.clone(),
                        calls: rhs.calls.clone(),
                        source: rhs.source,
                    });
                }
                i = stop.max(i + 1);
            } else {
                i = j.max(i + 1);
            }
            continue;
        }
        // `return <expr> ;` feeds the `<ret>` pseudo-variable.
        if t.text == "return" && t.kind == TokenKind::Ident {
            let (rhs, stop) = scan_rhs(toks, i + 1, end, det, raw_lines);
            if !(rhs.vars.is_empty() && rhs.calls.is_empty() && !rhs.source) {
                out.push(Assign {
                    lhs: RET.to_string(),
                    lhs_tok: usize::MAX,
                    vars: rhs.vars,
                    calls: rhs.calls,
                    source: rhs.source,
                });
            }
            i = stop.max(i + 1);
            continue;
        }
        // Plain or compound assignment outside a `let`.
        if t.text == "=" {
            let prev = if i > f.body.0 { toks[i - 1].text } else { "" };
            let next = if i + 1 < end { toks[i + 1].text } else { "" };
            if next == "=" || next == ">" {
                i += 2; // `==` / `=>`
                continue;
            }
            if matches!(prev, "=" | "<" | ">" | "!") {
                i += 1; // second half of `==`/`<=`/`>=`/`!=` (and `>>=`/`<<=`, an accepted miss)
                continue;
            }
            let compound = matches!(prev, "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^");
            // Walk the lhs dotted path backward.
            let lhs_end = if compound { i - 1 } else { i };
            let mut segs_rev: Vec<&str> = Vec::new();
            let mut first_tok = usize::MAX;
            let mut k = lhs_end;
            while k > f.body.0 {
                let tk = toks[k - 1];
                if !matches!(tk.kind, TokenKind::Ident | TokenKind::Int) {
                    break;
                }
                segs_rev.push(tk.text);
                first_tok = k - 1;
                if k - 1 > f.body.0 && toks[k - 2].text == "." {
                    k -= 2;
                } else {
                    break;
                }
            }
            if segs_rev.is_empty() {
                i += 1; // not a path lhs (indexed slot, pattern, …): accepted miss
                continue;
            }
            segs_rev.reverse();
            let lhs = segs_rev.join(".");
            let (mut rhs, stop) = scan_rhs(toks, i + 1, end, det, raw_lines);
            if compound && prev == "+" && is_fold && rhs.float {
                rhs.source = true; // float accumulation in a merge fold
            }
            if compound {
                rhs.vars.push(lhs.clone()); // compound also reads the lhs
            }
            out.push(Assign {
                lhs,
                lhs_tok: first_tok,
                vars: rhs.vars,
                calls: rhs.calls,
                source: rhs.source,
            });
            i = stop.max(i + 1);
            continue;
        }
        i += 1;
    }
    // Tail expression: the segment after the last statement/block
    // boundary at depth 0 is the function's return value.
    let mut depth = 0i64;
    let mut tail_start = f.body.0;
    let mut j = f.body.0;
    while j < end {
        match toks[j].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    tail_start = j + 1;
                }
            }
            ";" if depth == 0 => tail_start = j + 1,
            _ => {}
        }
        j += 1;
    }
    if tail_start < end {
        let (rhs, _) = scan_rhs(toks, tail_start, end, det, raw_lines);
        if !(rhs.vars.is_empty() && rhs.calls.is_empty() && !rhs.source) {
            out.push(Assign {
                lhs: RET.to_string(),
                lhs_tok: usize::MAX,
                vars: rhs.vars,
                calls: rhs.calls,
                source: rhs.source,
            });
        }
    }
    out
}

/// Whether any dotted prefix of `path` is in the tainted set (`a.b.c`
/// checks `a`, `a.b`, `a.b.c`: tainting a struct taints its fields).
fn path_tainted(tainted: &BTreeSet<String>, path: &str) -> bool {
    let mut idx = 0;
    loop {
        match path[idx..].find('.') {
            Some(p) => {
                if tainted.contains(&path[..idx + p]) {
                    return true;
                }
                idx += p + 1;
            }
            None => return tainted.contains(path),
        }
    }
}

/// Whether one assignment's right-hand side is tainted under the current
/// local set and cross-function tainted-return set.
fn assign_tainted(a: &Assign, local: &BTreeSet<String>, fn_tainted: &BTreeSet<String>) -> bool {
    a.source
        || a.calls.iter().any(|c| fn_tainted.contains(c))
        || a.vars.iter().any(|v| path_tainted(local, v))
}

/// Iterates a function's assignments to the local taint fixpoint
/// (monotone set growth, hence terminating).
fn local_taint(assigns: &[Assign], fn_tainted: &BTreeSet<String>) -> BTreeSet<String> {
    let mut t = BTreeSet::new();
    loop {
        let mut changed = false;
        for a in assigns {
            if t.contains(&a.lhs) {
                continue;
            }
            if assign_tainted(a, &t, fn_tainted) {
                t.insert(a.lhs.clone());
                changed = true;
            }
        }
        if !changed {
            return t;
        }
    }
}

/// Workspace-level taint index: per-function assignment facts merged by
/// function name (same total-on-collision discipline as
/// [`crate::callgraph`]), solved to the tainted-returns fixpoint.
///
/// Facts are extracted at [`TaintIndex::solve`], once every file is known:
/// a `let` bound to a call of a det-container-returning function is an
/// iteration source even when that function lives in another file.
#[derive(Default)]
pub struct TaintIndex {
    sources: Vec<String>,
    det_fns: BTreeSet<String>,
    fns: BTreeMap<String, Vec<Assign>>,
    tainted: BTreeSet<String>,
    solved: bool,
}

impl TaintIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `source` to the index. Invalidates any previous
    /// [`TaintIndex::solve`].
    pub fn add_file(&mut self, source: &str) {
        self.sources.push(source.to_string());
        self.solved = false;
    }

    /// Extracts every file's facts and solves the cross-function
    /// tainted-returns fixpoint. Idempotent; monotone (the set only grows
    /// per round), hence terminating.
    pub fn solve(&mut self) {
        if self.solved {
            return;
        }
        self.det_fns.clear();
        for source in &self.sources {
            let toks = sig_tokens(source);
            for f in functions(&toks) {
                if returns_det_container(&toks, &f) {
                    self.det_fns.insert(f.name);
                }
            }
        }
        self.fns.clear();
        for source in &self.sources {
            let toks = sig_tokens(source);
            let det = det_names(&toks, &self.det_fns);
            let raw_lines: Vec<&str> = source.lines().collect();
            for f in functions(&toks) {
                let assigns = extract(&toks, &f, &det, &raw_lines);
                if !assigns.is_empty() {
                    self.fns.entry(f.name).or_default().extend(assigns);
                }
            }
        }
        self.tainted.clear();
        loop {
            let mut changed = false;
            for (name, assigns) in &self.fns {
                if self.tainted.contains(name) || SEEDED_SOURCES.contains(&name.as_str()) {
                    continue;
                }
                let local = local_taint(assigns, &self.tainted);
                if local.contains(RET) {
                    self.tainted.insert(name.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.solved = true;
    }

    /// The indexed functions that declare a `DetHashMap`/`DetHashSet`
    /// return type. Requires [`TaintIndex::solve`] to have run.
    pub fn det_returns(&self) -> &BTreeSet<String> {
        debug_assert!(self.solved, "query before solve()");
        &self.det_fns
    }

    /// Whether the named function's return value is taint-carrying.
    /// Requires [`TaintIndex::solve`] to have run.
    pub fn returns_tainted(&self, name: &str) -> bool {
        debug_assert!(self.solved, "query before solve()");
        self.tainted.contains(name)
    }

    /// The solved tainted-return function names, sorted.
    pub fn tainted_returns(&self) -> impl Iterator<Item = &str> {
        self.tainted.iter().map(String::as_str)
    }

    /// Number of functions with extracted facts in the index.
    pub fn functions_indexed(&self) -> usize {
        self.fns.len()
    }

    fn tainted_set(&self) -> &BTreeSet<String> {
        &self.tainted
    }
}

/// Runs the sink check over one file: re-extracts its per-function
/// facts, solves each function's local taint against the workspace
/// index, and returns the significant-token indexes of every tainted
/// write into a non-permitted simulated-state sink. `#[test]` functions
/// are exempt. The indexes align with the lexer's code-token view, so
/// they are directly reportable by the rule layer.
pub fn file_hits(source: &str, index: &TaintIndex) -> Vec<usize> {
    let toks = sig_tokens(source);
    let det = det_names(&toks, index.det_returns());
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut hits = Vec::new();
    for f in functions(&toks) {
        if f.has_test_attr(&toks) {
            continue;
        }
        let assigns = extract(&toks, &f, &det, &raw_lines);
        let local = local_taint(&assigns, index.tainted_set());
        for a in &assigns {
            if a.lhs_tok == usize::MAX || a.lhs == RET {
                continue;
            }
            if is_sink(&a.lhs)
                && !is_permitted(&a.lhs)
                && assign_tainted(a, &local, index.tainted_set())
            {
                hits.push(a.lhs_tok);
            }
        }
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits_of(src: &str) -> Vec<(u32, u32)> {
        let mut idx = TaintIndex::new();
        idx.add_file(src);
        idx.solve();
        let toks = sig_tokens(src);
        file_hits(src, &idx)
            .into_iter()
            .map(|i| (toks[i].line, toks[i].col))
            .collect()
    }

    #[test]
    fn det_iteration_into_cycle_field_convicts() {
        let src = "struct E { newest: DetHashMap<u64, u64> }\n\
                   impl E {\n\
                   fn gc(&mut self) {\n\
                   for (w, v) in self.newest.drain() {\n\
                   self.next_gc_cycle = w;\n\
                   }\n\
                   }\n\
                   }\n";
        assert_eq!(hits_of(src), vec![(5, 1)]);
    }

    #[test]
    fn frozen_marker_kills_the_source() {
        let src = "struct E { newest: DetHashMap<u64, u64> }\n\
                   impl E {\n\
                   fn gc(&mut self) {\n\
                   // lint:order-frozen -- drain order is part of the contract\n\
                   for (w, v) in self.newest.drain() {\n\
                   self.next_gc_cycle = w;\n\
                   }\n\
                   }\n\
                   }\n";
        assert!(hits_of(src).is_empty());
    }

    #[test]
    fn wall_clock_flows_through_a_let() {
        let src = "fn arm(&mut self) {\n\
                   let t = Instant::now();\n\
                   self.deadline = t;\n\
                   }\n";
        assert_eq!(hits_of(src), vec![(3, 1)]);
    }

    #[test]
    fn float_accumulation_only_in_fold_bodies() {
        let fold = "fn fold(&mut self, o: &S) { self.total_cycles += o.frac as f64 as u64; }\n";
        let other = "fn add(&mut self, o: &S) { self.total_cycles += o.frac as f64 as u64; }\n";
        assert_eq!(hits_of(fold).len(), 1);
        assert!(hits_of(other).is_empty());
    }

    #[test]
    fn taint_crosses_functions_through_returns() {
        let src = "struct E { order: DetHashMap<u64, u64> }\n\
                   impl E {\n\
                   fn pick(&self) -> u64 {\n\
                   let first = *self.order.keys().next().unwrap();\n\
                   first\n\
                   }\n\
                   fn apply(&mut self) {\n\
                   let w = self.pick();\n\
                   self.state = w;\n\
                   }\n\
                   }\n";
        assert_eq!(hits_of(src), vec![(9, 1)]);
    }

    #[test]
    fn return_statement_feeds_the_ret_variable() {
        let src = "fn t(&self) -> u64 { return Instant::now().elapsed().as_nanos() as u64; }\n\
                   fn set(&mut self) { self.clock = self.t(); }\n";
        assert_eq!(hits_of(src).len(), 1);
    }

    #[test]
    fn host_stat_sinks_are_permitted() {
        let src = "struct E { m: DetHashSet<u64> }\n\
                   impl E {\n\
                   fn count(&mut self) {\n\
                   for k in self.m.iter() {\n\
                   self.stats.drain_cycles = k;\n\
                   self.host_seed = k;\n\
                   }\n\
                   }\n\
                   }\n";
        assert!(hits_of(src).is_empty());
    }

    #[test]
    fn prefix_taint_covers_field_reads() {
        let src = "struct E { m: DetHashMap<u64, Slot> }\n\
                   impl E {\n\
                   fn f(&mut self) {\n\
                   for s in self.m.values() {\n\
                   self.ready_cycle = s.when;\n\
                   }\n\
                   }\n\
                   }\n";
        assert_eq!(hits_of(src).len(), 1);
    }

    #[test]
    fn untainted_writes_into_sinks_are_clean() {
        let src = "fn tick(&mut self) { self.cycle = self.cycle + 1; self.state = 3; }\n";
        assert!(hits_of(src).is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "#[test]\n\
                   fn t() { let x = Instant::now(); self.cycle = x; }\n";
        assert!(hits_of(src).is_empty());
    }

    #[test]
    fn solve_reaches_fixpoint_through_chains() {
        let src = "fn a() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
                   fn b() -> u64 { a() }\n\
                   fn c() -> u64 { b() }\n";
        let mut idx = TaintIndex::new();
        idx.add_file(src);
        idx.solve();
        let tainted: Vec<&str> = idx.tainted_returns().collect();
        assert_eq!(tainted, vec!["a", "b", "c"]);
    }

    #[test]
    fn seeded_sources_never_carry_taint() {
        // Even a body that *would* convict (un-frozen det-container
        // iteration feeding the return) stays clean under the seeded-source
        // name: the media-fault RNG is deterministic by construction.
        let src = "struct S { salts: DetHashMap<u64, u64> }\n\
                   impl S {\n\
                   fn media_hash(&self) -> u64 {\n\
                   let first = *self.salts.keys().next().unwrap();\n\
                   first\n\
                   }\n\
                   fn draw(&mut self) {\n\
                   let fault = self.media_hash();\n\
                   self.fault_seed = fault;\n\
                   }\n\
                   }\n";
        assert!(hits_of(src).is_empty());
        let mut idx = TaintIndex::new();
        idx.add_file(src);
        idx.solve();
        assert!(!idx.returns_tainted("media_hash"));
        // Control: the identical body under another name convicts.
        let renamed = src.replace("media_hash", "pick_salt");
        assert_eq!(hits_of(&renamed), vec![(9, 1)]);
    }

    #[test]
    fn recursive_returns_terminate() {
        let src = "fn f(n: u64) -> u64 { if n == 0 { return 0; } f(n - 1) }\n\
                   fn g() -> u64 { h() }\n\
                   fn h() -> u64 { g() }\n";
        let mut idx = TaintIndex::new();
        idx.add_file(src);
        idx.solve();
        assert_eq!(idx.tainted_returns().count(), 0);
    }
}
