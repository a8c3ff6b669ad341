//! Lock-discipline pass: inter-function lock-order cycles (deadlock
//! candidates).
//!
//! Works on the shared token model, so it is an approximation with known
//! blind spots (trait dispatch, calls it cannot resolve), but the workspace's
//! one lock type — `decoy_base::sync`, whose `lock()`/`read()`/`write()`
//! hand out the guard directly — is directly visible to it:
//!
//! * **Acquisition sites** are `.lock()` / `.read()` / `.write()` calls
//!   with *no arguments* (IO `read(&mut buf)` / `write(buf)` never match).
//! * **Guard extents**: a `let g = x.lock();` binding (optionally via
//!   `.unwrap()`/`.expect(..)`/`.unwrap_or_else(..)` for bare `std::sync`
//!   locks) lives to the end of its enclosing block or an explicit
//!   `drop(g)`; anything else is a temporary living to the end of its
//!   statement (brace-aware, so `match x.lock() { .. }` scrutinees cover
//!   the whole match).
//! * **`lock-order`**: within a function, guard A alive when B is acquired
//!   adds the edge A→B; a call to a known function while A is alive adds
//!   A→L for every lock L that function may (transitively) acquire — but
//!   only unambiguous call shapes propagate (see `is_propagated_call`:
//!   bare calls, `self.` methods, `*_locked` methods). Cycles
//!   in the resulting graph — including self-loops, i.e. re-acquiring a
//!   lock you may already hold — are deadlock candidates.
//!
//! Lock identity is textual: the last identifier of the receiver chain,
//! qualified by file stem (`events:inner`, `supervisor:slots`). Two locks
//! with one name in one file merge; the same field reached through
//! different bindings (`self.inner` / `other.inner`) also merges — which is
//! exactly what catches caller-determined acquisition order on two
//! instances of the same structure.
//!
//! A guard held across `.await` is clippy's `await_holding_lock`, which is
//! on by default and sees the std guards `decoy_base::sync` returns, so
//! this pass does not look for it.
//!
//! Escape hatch: `// decoy-lint: allow(lock-order) -- <reason>` on (or
//! above) the acquisition line.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::diag::{Finding, SourceFile};
use crate::tok::{enclosing_fn, TokKind};

/// One lock acquisition with its computed guard extent.
#[derive(Debug, Clone)]
struct Acq {
    /// Token index of the method name (`lock`/`read`/`write`).
    tok: usize,
    line: usize,
    col: usize,
    /// Full receiver text, for messages (`self.inner`).
    recv: String,
    /// Canonical node: `<file stem>:<last receiver ident>`.
    node: String,
    /// Guard liveness as a token-index range `(start, end)`, exclusive end.
    extent: (usize, usize),
}

/// A lock-order edge: `from` is held while `to` is acquired.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// Where the edge was observed, for the report.
    site: String,
    /// Acquisition line (for allow-comment lookups already applied).
    sort_key: (String, usize, usize),
}

/// Per-file facts handed to the cross-file analysis.
struct FileFacts {
    acqs: Vec<Acq>,
    /// fn index (into `sf.fns`) → acquisitions inside it.
    by_fn: HashMap<usize, Vec<usize>>,
    /// fn name → (direct nodes, callee names) — merged across files later.
    fn_summaries: Vec<(String, BTreeSet<String>, BTreeSet<String>)>,
}

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// File stem (`events` from `crates/decoy-store/src/events.rs`).
fn stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

/// Walk the receiver chain backwards from the `.` before the method name;
/// returns (full receiver text, last identifier).
fn receiver(sf: &SourceFile, dot: usize) -> (String, String) {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot; // index of the `.` token
    while let Some(prev) = k.checked_sub(1) {
        match sf.toks.get(prev).map(|t| t.kind) {
            Some(TokKind::Ident) => {
                parts.push(sf.text(prev).to_string());
                // continue only through `a.b` chains
                let Some(pp) = prev.checked_sub(1) else {
                    break;
                };
                if sf.toks.get(pp).map(|t| t.kind) == Some(TokKind::Punct(b'.')) {
                    k = pp;
                    // the `.` itself; loop continues from before it
                    continue;
                }
                break;
            }
            Some(TokKind::Punct(b')')) => {
                // call-expression receiver: keep it opaque
                parts.push("<expr>".to_string());
                break;
            }
            _ => break,
        }
    }
    if parts.is_empty() {
        parts.push("<expr>".to_string());
    }
    let base = parts
        .iter()
        .find(|p| *p != "self" && *p != "<expr>")
        .cloned()
        .unwrap_or_else(|| parts.first().cloned().unwrap_or_default());
    parts.reverse();
    (parts.join("."), base)
}

/// Token index just *after* the end of the statement containing `from`
/// (brace-aware: a `match x.lock() { .. }` scrutinee extends over the
/// arms; the statement ends at `;` at depth 0, at the close of the
/// enclosing block, or after a depth-0 `}` not followed by a continuation).
fn stmt_extent_end(sf: &SourceFile, from: usize) -> usize {
    let mut depth = 0i64;
    let mut k = from;
    while let Some(t) = sf.toks.get(k) {
        match t.kind {
            TokKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokKind::Punct(b')' | b']') => {
                if depth == 0 {
                    return k; // closing of an enclosing group
                }
                depth -= 1;
            }
            TokKind::Punct(b'}') => {
                if depth == 0 {
                    return k; // enclosing block closes
                }
                depth -= 1;
                if depth == 0 {
                    // a `{ .. }` belonging to this statement just closed
                    // (match / if-let scrutinee); continue only through
                    // chained continuations
                    match sf.toks.get(k + 1) {
                        Some(n)
                            if n.kind == TokKind::Punct(b'.')
                                || n.kind == TokKind::Punct(b'?')
                                || n.is_ident(&sf.stripped, "else") => {}
                        _ => return k + 1,
                    }
                }
            }
            TokKind::Punct(b';') if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    sf.toks.len()
}

/// Token index just after the enclosing block of the statement containing
/// `from` closes (for `let`-bound guards), or after `drop(<name>)`.
fn block_extent_end(sf: &SourceFile, from: usize, name: &str) -> usize {
    let mut depth = 0i64;
    let mut k = from;
    while let Some(t) = sf.toks.get(k) {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            TokKind::Ident
                if t.text(&sf.stripped) == "drop"
                    && sf.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(b'('))
                    && sf.text(k + 2) == name
                    && sf.toks.get(k + 3).map(|t| t.kind) == Some(TokKind::Punct(b')')) =>
            {
                return k;
            }
            _ => {}
        }
        k += 1;
    }
    sf.toks.len()
}

/// If the statement containing the acquisition is `let [mut] g = <chain>;`
/// where the chain ends at the acquisition (modulo `.unwrap()` /
/// `.expect(..)` / `.unwrap_or_else(..)`), return the guard's name.
fn named_guard(sf: &SourceFile, method_tok: usize) -> Option<String> {
    // statement start: token after the previous `;`, `{` or `}`
    let mut s = method_tok;
    while let Some(prev) = s.checked_sub(1) {
        match sf.toks.get(prev).map(|t| t.kind) {
            Some(TokKind::Punct(b';' | b'{' | b'}')) => break,
            _ => s = prev,
        }
    }
    if !sf
        .toks
        .get(s)
        .is_some_and(|t| t.is_ident(&sf.stripped, "let"))
    {
        return None;
    }
    let mut n = s + 1;
    if sf
        .toks
        .get(n)
        .is_some_and(|t| t.is_ident(&sf.stripped, "mut"))
    {
        n += 1;
    }
    let name_tok = sf.toks.get(n)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    if sf.toks.get(n + 1).map(|t| t.kind) != Some(TokKind::Punct(b'=')) {
        return None;
    }
    // tail after the acquisition's `()`: only `.unwrap()` / `.expect(..)` /
    // `.unwrap_or_else(..)` hops, then `;`
    let mut k = method_tok + 3; // past `(` `)`
    loop {
        match sf.toks.get(k).map(|t| t.kind) {
            Some(TokKind::Punct(b';')) => return Some(name_tok.text(&sf.stripped).to_string()),
            Some(TokKind::Punct(b'.')) => {
                let hop = sf.text(k + 1);
                if !["unwrap", "expect", "unwrap_or_else"].contains(&hop) {
                    return None;
                }
                // skip the call's balanced parens
                if sf.toks.get(k + 2).map(|t| t.kind) != Some(TokKind::Punct(b'(')) {
                    return None;
                }
                let mut depth = 0i64;
                let mut j = k + 2;
                while let Some(t) = sf.toks.get(j) {
                    match t.kind {
                        TokKind::Punct(b'(') => depth += 1,
                        TokKind::Punct(b')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                k = j + 1;
            }
            _ => return None,
        }
    }
}

/// True when the `Ident (` at token `k` is a call the inter-function
/// analysis should follow. Token-level name matching cannot resolve method
/// targets, and ubiquitous container-method names (`len`, `get`, `insert`,
/// `new`) collide with our own functions and produce phantom cycles, so
/// propagation is deliberately narrow:
///
/// * bare calls — `helper(g)` — always propagate;
/// * `self.method(..)` propagates (the receiver is the type under
///   analysis);
/// * `*_locked`-suffixed methods propagate on any receiver (the codebase's
///   naming convention for code that runs under a guard);
/// * path calls (`Type::new(..)`) and other-receiver method calls
///   (`map.insert(..)`, `list.len()`) are skipped — resolving them needs
///   types we don't have, and the false edges outnumber the real ones.
fn is_propagated_call(sf: &SourceFile, k: usize) -> bool {
    let Some(prev) = k.checked_sub(1).and_then(|p| sf.toks.get(p)) else {
        return true; // file starts with a call — bare by definition
    };
    match prev.kind {
        TokKind::Punct(b'.') => {
            if sf.text(k).ends_with("_locked") {
                return true;
            }
            // exactly `self.method(`: `self` directly before the dot, not
            // itself part of a longer chain
            k.checked_sub(2)
                .and_then(|p| sf.toks.get(p))
                .is_some_and(|t| t.is_ident(&sf.stripped, "self"))
                && k.checked_sub(3)
                    .and_then(|p| sf.toks.get(p))
                    .map(|t| t.kind != TokKind::Punct(b'.'))
                    .unwrap_or(true)
        }
        TokKind::Punct(b':') => false,
        _ => true,
    }
}

/// Collect acquisitions and function summaries for one file.
fn file_facts(sf: &SourceFile) -> FileFacts {
    let fstem = stem(&sf.rel);
    let mut acqs = Vec::new();
    for i in 0..sf.toks.len() {
        let Some(t) = sf.toks.get(i) else { continue };
        if t.kind != TokKind::Ident || !LOCK_METHODS.contains(&t.text(&sf.stripped)) {
            continue;
        }
        let prev_dot = i
            .checked_sub(1)
            .and_then(|p| sf.toks.get(p))
            .map(|p| p.kind == TokKind::Punct(b'.'))
            .unwrap_or(false);
        // empty argument list: `()` — IO read/write always take arguments
        let empty_call = sf.toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Punct(b'('))
            && sf.toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Punct(b')'));
        if !prev_dot || !empty_call || sf.in_test_at(i) {
            continue;
        }
        let (recv, base) = receiver(sf, i - 1);
        let extent = match named_guard(sf, i) {
            Some(name) => (i, block_extent_end(sf, i, &name)),
            None => (i, stmt_extent_end(sf, i)),
        };
        acqs.push(Acq {
            tok: i,
            line: t.line,
            col: t.col,
            recv,
            node: format!("{fstem}:{base}"),
            extent,
        });
    }
    let mut by_fn: HashMap<usize, Vec<usize>> = HashMap::new();
    for (ai, a) in acqs.iter().enumerate() {
        if let Some(fi) = enclosing_fn(&sf.fns, a.tok) {
            by_fn.entry(fi).or_default().push(ai);
        }
    }
    // per-fn summaries: direct lock nodes + called function names
    let mut fn_summaries = Vec::new();
    for (fi, f) in sf.fns.iter().enumerate() {
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut nodes = BTreeSet::new();
        for ai in by_fn.get(&fi).map(Vec::as_slice).unwrap_or_default() {
            if let Some(a) = acqs.get(*ai) {
                // only innermost attribution: skip if a nested fn owns it
                if enclosing_fn(&sf.fns, a.tok) == Some(fi) {
                    nodes.insert(a.node.clone());
                }
            }
        }
        let mut callees = BTreeSet::new();
        for k in open + 1..close {
            let Some(t) = sf.toks.get(k) else { continue };
            if t.kind == TokKind::Ident
                && sf.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(b'('))
                && enclosing_fn(&sf.fns, k) == Some(fi)
                && is_propagated_call(sf, k)
            {
                callees.insert(t.text(&sf.stripped).to_string());
            }
        }
        fn_summaries.push((f.name.clone(), nodes, callees));
    }
    FileFacts {
        acqs,
        by_fn,
        fn_summaries,
    }
}

/// Run the lock-discipline pass over `files` as one program.
pub fn check(files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let facts: Vec<FileFacts> = files.iter().map(|sf| file_facts(sf)).collect();

    // ---- transitive may-acquire sets over the (name-merged) call graph
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ff in &facts {
        for (name, nodes, callees) in &ff.fn_summaries {
            direct
                .entry(name.clone())
                .or_default()
                .extend(nodes.iter().cloned());
            calls
                .entry(name.clone())
                .or_default()
                .extend(callees.iter().cloned());
        }
    }
    let mut closure: BTreeMap<String, BTreeSet<String>> = direct.clone();
    loop {
        let mut changed = false;
        let names: Vec<String> = closure.keys().cloned().collect();
        for name in &names {
            let mut add = BTreeSet::new();
            for callee in calls.get(name).into_iter().flatten() {
                if let Some(sub) = closure.get(callee) {
                    for n in sub {
                        add.insert(n.clone());
                    }
                }
            }
            if let Some(set) = closure.get_mut(name) {
                let before = set.len();
                set.extend(add);
                changed |= set.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- per-acquisition checks + edge collection
    let mut edges: Vec<Edge> = Vec::new();
    for (sf, ff) in files.iter().zip(&facts) {
        // intra-function nesting edges
        for ais in ff.by_fn.values() {
            for &ai in ais {
                let Some(a) = ff.acqs.get(ai) else { continue };
                if sf.allowed(a.line, "lock-order") {
                    continue;
                }
                for &bi in ais {
                    if ai == bi {
                        continue;
                    }
                    let Some(b) = ff.acqs.get(bi) else { continue };
                    if b.tok > a.extent.0 && b.tok < a.extent.1 && !sf.allowed(b.line, "lock-order")
                    {
                        edges.push(Edge {
                            from: a.node.clone(),
                            to: b.node.clone(),
                            site: format!(
                                "{}:{} acquires `{}` while holding `{}` (line {})",
                                sf.rel, b.line, b.recv, a.recv, a.line
                            ),
                            sort_key: (sf.rel.clone(), b.line, b.col),
                        });
                    }
                }
            }
        }
        // inter-function edges: calls made while a guard is live
        for a in &ff.acqs {
            if sf.allowed(a.line, "lock-order") {
                continue;
            }
            let mut k = a.extent.0 + 3; // past `lock ( )`
            while k < a.extent.1 {
                let Some(t) = sf.toks.get(k) else { break };
                if t.kind == TokKind::Ident
                    && sf.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(b'('))
                    && is_propagated_call(sf, k)
                {
                    let callee = t.text(&sf.stripped);
                    if !LOCK_METHODS.contains(&callee) {
                        if let Some(nodes) = closure.get(callee) {
                            for node in nodes {
                                edges.push(Edge {
                                    from: a.node.clone(),
                                    to: node.clone(),
                                    site: format!(
                                        "{}:{} calls {callee}() (acquires `{node}`) while \
                                         holding `{}` (line {})",
                                        sf.rel, t.line, a.recv, a.line
                                    ),
                                    sort_key: (sf.rel.clone(), t.line, t.col),
                                });
                            }
                        }
                    }
                }
                k += 1;
            }
        }
    }

    // ---- cycle detection over the edge set
    findings.extend(report_cycles(&edges));
    findings
        .sort_by(|x, y| (&x.file, x.line, x.col, x.rule).cmp(&(&y.file, y.line, y.col, y.rule)));
    findings
}

/// Find cycles (including self-loops) in the lock-order graph and render
/// one finding per distinct cycle.
fn report_cycles(edges: &[Edge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = Vec::new();
    for start_edge in edges {
        // DFS from `to` back to `from` ⇒ cycle through this edge
        let target = start_edge.from.as_str();
        let mut stack: Vec<(&str, Vec<&Edge>)> = vec![(start_edge.to.as_str(), vec![start_edge])];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        let mut found: Option<Vec<&Edge>> = None;
        while let Some((node, path)) = stack.pop() {
            if node == target {
                found = Some(path);
                break;
            }
            if !visited.insert(node) {
                continue;
            }
            for e in adj.get(node).into_iter().flatten() {
                let mut p = path.clone();
                p.push(e);
                stack.push((e.to.as_str(), p));
            }
        }
        let Some(cycle) = found else { continue };
        // canonicalize: rotate node list to start at the smallest name
        let mut nodes: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
        let min_pos = nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| n.as_str())
            .map(|(i, _)| i)
            .unwrap_or(0);
        nodes.rotate_left(min_pos);
        if !seen_cycles.insert(nodes.clone()) {
            continue;
        }
        let mut ring = nodes.clone();
        ring.push(nodes.first().cloned().unwrap_or_default());
        let sites: Vec<&str> = cycle.iter().map(|e| e.site.as_str()).collect();
        let at = cycle
            .iter()
            .map(|e| &e.sort_key)
            .min()
            .cloned()
            .unwrap_or_default();
        findings.push(Finding {
            file: at.0,
            line: at.1,
            col: at.2,
            rule: "lock-order",
            pass: "locks",
            message: format!(
                "lock-order cycle (deadlock candidate): {}; {}",
                ring.join(" -> "),
                sites.join("; ")
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let sfs: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect();
        let refs: Vec<&SourceFile> = sfs.iter().collect();
        check(&refs)
    }

    fn rules(files: &[(&str, &str)]) -> Vec<&'static str> {
        run(files).into_iter().map(|f| f.rule).collect()
    }

    /// `ab` followed by a function that takes `beta` then `alpha`, so any
    /// alpha→beta edge `ab` makes closes a cycle.
    fn against_ba(ab: &str) -> String {
        format!("{ab}fn ba(&self) {{\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}}\n")
    }

    #[test]
    fn dropped_or_scoped_guards_are_fine() {
        let scoped =
            "fn ab(&self) {\n    { let a = self.alpha.lock(); a.touch(); }\n    let b = self.beta.lock();\n}\n";
        assert!(rules(&[("a.rs", &against_ba(scoped))]).is_empty());
        let dropped = "fn ab(&self) {\n    let a = self.alpha.lock();\n    a.touch();\n    drop(a);\n    let b = self.beta.lock();\n}\n";
        assert!(rules(&[("a.rs", &against_ba(dropped))]).is_empty());
        let stmt =
            "fn ab(&self) {\n    let n = self.alpha.lock().len();\n    let b = self.beta.lock();\n}\n";
        assert!(rules(&[("a.rs", &against_ba(stmt))]).is_empty());
        // the same guard kept to the end of the block closes the cycle
        let held =
            "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n";
        assert_eq!(rules(&[("a.rs", &against_ba(held))]), vec!["lock-order"]);
    }

    #[test]
    fn io_read_write_with_args_are_not_locks() {
        // as locks, the second read and write would re-acquire the first
        let src = "fn f(&self) {\n    let n = sock.read(buf);\n    let m = sock.read(buf);\n    let w = file.write(data);\n    file.write(data);\n}\n";
        assert!(rules(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn std_mutex_unwrap_binding_is_a_guard() {
        let src = "fn ab(&self) {\n    let a = self.alpha.lock().unwrap();\n    let b = self.beta.lock().unwrap();\n}\n";
        assert_eq!(rules(&[("a.rs", &against_ba(src))]), vec!["lock-order"]);
    }

    #[test]
    fn poison_recovering_bindings_are_guards() {
        // `unwrap_or_else(PoisonError::into_inner)` binds the guard like
        // `.unwrap()` does, so its extent runs to the end of the block
        let src = "fn ab(&self) {\n    let a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);\n    let b = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n}\nfn ba(&self) {\n    let b = self.beta.lock().unwrap_or_else(PoisonError::into_inner);\n    let a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);\n}\n";
        assert_eq!(rules(&[("a.rs", src)]), vec!["lock-order"]);
    }

    #[test]
    fn match_scrutinee_guard_covers_the_arms() {
        let src = "fn ab(&self) {\n    match self.alpha.lock() {\n        Ok(g) => self.beta.lock().touch(),\n        Err(_) => {}\n    }\n}\n";
        assert_eq!(rules(&[("a.rs", &against_ba(src))]), vec!["lock-order"]);
        // ...but a statement after the match is outside the extent
        let src = "fn ab(&self) {\n    match self.alpha.lock() {\n        Ok(g) => g.touch(),\n        Err(_) => {}\n    }\n    let b = self.beta.lock();\n}\n";
        assert!(rules(&[("a.rs", &against_ba(src))]).is_empty());
    }

    #[test]
    fn opposite_order_in_two_functions_is_a_cycle() {
        let src = "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\nfn ba(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        let f = run(&[("a.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "lock-order").count(), 1);
        let msg = &f.iter().find(|f| f.rule == "lock-order").unwrap().message;
        assert!(
            msg.contains("a:alpha -> a:beta -> a:alpha")
                || msg.contains("a:beta -> a:alpha -> a:beta"),
            "{msg}"
        );
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let src = "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\nfn also_ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n";
        assert!(rules(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn same_lock_twice_is_a_self_loop() {
        // caller-determined order on two instances of one structure — the
        // events_eq shape
        let src = "fn eq(&self, other: &Self) {\n    let a = self.inner.read();\n    let b = other.inner.read();\n}\n";
        let f = run(&[("events.rs", src)]);
        assert_eq!(f.iter().filter(|f| f.rule == "lock-order").count(), 1);
        assert!(f[0].message.contains("events:inner -> events:inner"));
    }

    #[test]
    fn interprocedural_cycle_through_a_call() {
        let a = "fn holds_a_calls_b(&self) {\n    let g = self.alpha.lock();\n    helper(g);\n}\n";
        let b = "pub fn helper(x: G) {\n    let h = GLOBAL.beta.lock();\n    inner_ba();\n}\nfn inner_ba() {\n    let b = GLOBAL.beta.lock();\n    let a = OTHER.alpha.lock();\n}\n";
        // b.rs's inner_ba acquires beta then alpha; a.rs holds alpha across a
        // call that (transitively) acquires beta ⇒ alpha→beta→alpha... but
        // node names are file-qualified, so make both live in one file
        let merged = format!("{a}{b}");
        let f = run(&[("m.rs", &merged)]);
        assert!(
            f.iter().any(|f| f.rule == "lock-order"),
            "expected a cycle, got {f:?}"
        );
    }

    #[test]
    fn allow_comment_suppresses_ordering_edges() {
        let src = "fn eq(&self, other: &Self) {\n    // decoy-lint: allow(lock-order) -- address-ordered acquisition\n    let a = self.inner.read();\n    let b = other.inner.read();\n}\n";
        assert!(rules(&[("events.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = against_ba(
            "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        );
        let src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(rules(&[("a.rs", &src)]).is_empty());
    }

    #[test]
    fn nested_closure_acquisitions_get_edges_not_awaits() {
        // the fleet_health shape: outer lock held while inner lock taken
        // inside an iterator closure — an edge, but no cycle
        let src = "fn health(&self) -> F {\n    F { l: self.slots.lock().iter().map(|s| s.lock().clone()).collect() }\n}\n";
        assert!(rules(&[("sup.rs", src)]).is_empty());
    }
}
