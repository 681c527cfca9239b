//! Phase-2 rules over the call graph.
//!
//! One walk per function body tracks the live guards (`{`/`}` scopes,
//! `drop(x)`, `let` and `for` guard bindings) and checks every call
//! made under them. Two analyses share one bottom-up facts pass:
//!
//! - **blocks\*** — a function blocks if its body contains a direct
//!   blocking call (`recv`, `wait*`, `join()`, `read_exact`,
//!   `write_all`, `accept()`, `sleep`) or it calls a function that
//!   blocks, at any depth. **guard-across-blocking-call** flags a call
//!   made while a guard is live when the call itself blocks or any
//!   resolved target does — `recv` two helpers deep is the same bug
//!   as `recv` inline: one stalled peer wedges every thread behind the
//!   mutex. A call *on* the guard itself (the mutex
//!   serializes that resource) or *passed* the guard (condvar idiom,
//!   `cond.wait(g)`) is the correct pattern and exempt.
//! - **acquires\*** — the set of lock keys (`Struct.field` for lock
//!   fields, `param.<name>` for lock-typed parameters) a function may
//!   acquire during execution, directly or through callees. Holding
//!   key `A` while reaching an acquisition of key `B` adds the edge
//!   `A → B` to the workspace lock-order graph; any strongly
//!   connected component (including self-loops — std mutexes are not
//!   reentrant) is a deadlock-capable cycle and becomes a
//!   **lock-order-cycle** finding with one witness per edge.
//!
//! Both traversals are cycle-safe (in-progress functions contribute
//! nothing) and depth-capped; unresolvable calls are opaque. As with
//! the per-file rules, every approximation leans toward false
//! negatives — the tree stays green unless a provable chain exists.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, CallSite};
use crate::items::{FnItem, ItemIndex, LockKind, SourceUnit};
use crate::lexer::{TokKind, Token};
use crate::rules::{
    self, blocking_call_at, lock_method_at, parse_guard_for, parse_guard_let, Finding,
};

/// Maximum call-chain depth either traversal follows.
const DEPTH_CAP: usize = 32;

/// Entry point: all interprocedural findings for the workspace.
pub fn check(units: &[SourceUnit], index: &ItemIndex, graph: &CallGraph) -> Vec<Finding> {
    let facts = Facts::compute(units, index, graph);
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for (fi, f) in index.fns.iter().enumerate() {
        if f.is_test || f.body.1 <= f.body.0 {
            continue;
        }
        scan_fn(
            units,
            index,
            graph,
            &facts,
            fi,
            f,
            &mut findings,
            &mut edges,
        );
    }
    findings.extend(cycle_findings(&edges));
    findings
}

/// One lock-order edge's evidence.
#[derive(Clone, Debug)]
struct Witness {
    file: String,
    line: u32,
    text: String,
}

/// Bottom-up per-function facts.
struct Facts {
    /// `blocks[f]`: a chain description if `f` can block.
    blocks: Vec<Option<String>>,
    /// `acquires[f]`: lock key → witness text for every key `f` may
    /// acquire during execution (directly or via callees).
    acquires: Vec<BTreeMap<String, String>>,
}

impl Facts {
    fn compute(units: &[SourceUnit], index: &ItemIndex, graph: &CallGraph) -> Facts {
        let n = index.fns.len();
        let mut facts = Facts {
            blocks: vec![None; n],
            acquires: vec![BTreeMap::new(); n],
        };
        let mut block_state = vec![State::Todo; n];
        let mut acq_state = vec![State::Todo; n];
        for fi in 0..n {
            blocks_dfs(
                fi,
                0,
                units,
                index,
                graph,
                &mut block_state,
                &mut facts.blocks,
            );
            acquires_dfs(
                fi,
                0,
                units,
                index,
                graph,
                &mut acq_state,
                &mut facts.acquires,
            );
        }
        facts
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Todo,
    InProgress,
    Done,
}

/// Whether `f` contains a direct blocking call, with a description.
fn direct_blocking(units: &[SourceUnit], f: &FnItem) -> Option<String> {
    let unit = units.get(f.file)?;
    let (open, end) = f.body;
    let mut i = open + 1;
    while i + 1 < end {
        if let Some(name) = blocking_call_at(&unit.tokens, i) {
            let line = unit.tokens.get(i).map(|t| t.line).unwrap_or(0);
            return Some(format!("`.{name}()` ({}:{line})", unit.path));
        }
        i += 1;
    }
    None
}

fn blocks_dfs(
    fi: usize,
    depth: usize,
    units: &[SourceUnit],
    index: &ItemIndex,
    graph: &CallGraph,
    state: &mut Vec<State>,
    blocks: &mut Vec<Option<String>>,
) -> Option<String> {
    match state.get(fi).copied() {
        Some(State::Done) => return blocks.get(fi).cloned().flatten(),
        Some(State::Todo) if depth <= DEPTH_CAP => {}
        // In-progress (cycle) or too deep: contribute nothing.
        _ => return None,
    }
    if let Some(s) = state.get_mut(fi) {
        *s = State::InProgress;
    }
    let mut result = index.fns.get(fi).and_then(|f| direct_blocking(units, f));
    if result.is_none() {
        'sites: for site in graph.calls.get(fi).into_iter().flatten() {
            for &target in &site.targets {
                if let Some(chain) =
                    blocks_dfs(target, depth + 1, units, index, graph, state, blocks)
                {
                    let file = index
                        .fns
                        .get(fi)
                        .and_then(|f| units.get(f.file))
                        .map(|u| u.path.as_str())
                        .unwrap_or("?");
                    result = Some(format!("`{}` ({file}:{}) → {chain}", site.name, site.line));
                    break 'sites;
                }
            }
        }
    }
    if let Some(slot) = blocks.get_mut(fi) {
        *slot = result.clone();
    }
    if let Some(s) = state.get_mut(fi) {
        *s = State::Done;
    }
    result
}

fn acquires_dfs(
    fi: usize,
    depth: usize,
    units: &[SourceUnit],
    index: &ItemIndex,
    graph: &CallGraph,
    state: &mut Vec<State>,
    acquires: &mut Vec<BTreeMap<String, String>>,
) -> BTreeMap<String, String> {
    match state.get(fi).copied() {
        Some(State::Done) => return acquires.get(fi).cloned().unwrap_or_default(),
        Some(State::Todo) if depth <= DEPTH_CAP => {}
        _ => return BTreeMap::new(),
    }
    if let Some(s) = state.get_mut(fi) {
        *s = State::InProgress;
    }
    let mut keys: BTreeMap<String, String> = BTreeMap::new();
    if let Some(f) = index.fns.get(fi) {
        if let Some(unit) = units.get(f.file) {
            let (open, end) = f.body;
            let mut i = open.saturating_add(1);
            while i + 1 < end {
                if lock_method_at(&unit.tokens, i).is_some() {
                    if let Some(key) = key_for_chain(index, f, &unit.tokens, i) {
                        let line = unit.tokens.get(i).map(|t| t.line).unwrap_or(0);
                        keys.entry(key)
                            .or_insert_with(|| format!("{}:{line}", unit.path));
                    }
                }
                i += 1;
            }
        }
        let path = units
            .get(f.file)
            .map(|u| u.path.clone())
            .unwrap_or_default();
        for site in graph.calls.get(fi).into_iter().flatten() {
            for &target in &site.targets {
                for (k, w) in acquires_dfs(target, depth + 1, units, index, graph, state, acquires)
                {
                    keys.entry(k).or_insert_with(|| {
                        format!("{path}:{} via `{}`: {w}", site.line, site.name)
                    });
                }
            }
        }
    }
    if let Some(slot) = acquires.get_mut(fi) {
        *slot = keys.clone();
    }
    if let Some(s) = state.get_mut(fi) {
        *s = State::Done;
    }
    keys
}

/// Attributes the lock acquisition whose `.` sits at `dot` to a lock
/// key: `Struct.field` for `self.field.lock()` / `x.field.lock()`
/// (field resolved on the enclosing impl, else unique across the
/// workspace), `param.<name>` for lock-typed parameters. `None` when
/// the receiver cannot be pinned down (including `self.lock()`
/// helpers — those resolve through the call graph instead).
fn key_for_chain(index: &ItemIndex, f: &FnItem, tokens: &[Token], dot: usize) -> Option<String> {
    let r_idx = dot.wrapping_sub(1);
    let r = tokens.get(r_idx).filter(|t| t.kind == TokKind::Ident)?;
    if r.text == "self" {
        return None;
    }
    let is_self_field = tokens
        .get(r_idx.wrapping_sub(1))
        .is_some_and(|p| p.is_punct('.'))
        && tokens
            .get(r_idx.wrapping_sub(2))
            .is_some_and(|p| p.is_ident("self"));
    if is_self_field {
        if let Some(ty) = f.impl_type.as_deref() {
            if let Some(fld) = index.field_of(ty, &r.text) {
                return match fld.lock {
                    Some(LockKind::Mutex | LockKind::RwLock) => {
                        Some(format!("{}.{}", fld.owner, fld.name))
                    }
                    _ => None,
                };
            }
        }
    }
    if f.lock_params.iter().any(|p| p == &r.text) {
        return Some(format!("param.{}", r.text));
    }
    index
        .unique_lock_field(&r.text)
        .map(|fld| format!("{}.{}", fld.owner, fld.name))
}

/// A live guard in the per-function scan.
struct IGuard {
    name: Option<String>,
    keys: Vec<String>,
    kind: &'static str,
    line: u32,
}

/// Index just past the statement starting at `i` (its depth-0 `;`),
/// clamped to `end`. Statements ended by a closing brace yield that
/// position.
fn stmt_end(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        let Some(t) = tokens.get(j) else { break };
        if depth == 0 && t.is_punct(';') {
            return j + 1;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        }
        j += 1;
    }
    end
}

#[allow(clippy::too_many_arguments)]
fn scan_fn(
    units: &[SourceUnit],
    index: &ItemIndex,
    graph: &CallGraph,
    facts: &Facts,
    fi: usize,
    f: &FnItem,
    findings: &mut Vec<Finding>,
    edges: &mut BTreeMap<(String, String), Witness>,
) {
    let Some(unit) = units.get(f.file) else {
        return;
    };
    let tokens = &unit.tokens;
    let (open, end) = f.body;
    let sites = graph.calls.get(fi).map(Vec::as_slice).unwrap_or(&[]);
    let mut site_cursor = 0usize;
    let mut scopes: Vec<Vec<IGuard>> = vec![Vec::new()];
    let mut i = open + 1;
    while i + 1 < end {
        let Some(t) = tokens.get(i) else { break };
        // Keep the call-site cursor in step with the walk.
        while sites.get(site_cursor).is_some_and(|s| s.tok < i) {
            site_cursor += 1;
        }
        if t.is_punct('{') {
            scopes.push(Vec::new());
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if scopes.len() > 1 {
                scopes.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("drop")
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct('('))
            && matches!(tokens.get(i + 3), Some(t) if t.is_punct(')'))
        {
            if let Some(arg) = tokens.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                for frame in scopes.iter_mut() {
                    frame.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
            i += 4;
            continue;
        }
        if t.is_ident("let") {
            if let Some((guard, next)) = guard_binding(units, index, facts, f, sites, i, end) {
                // The binding's own acquisition orders after anything
                // already held.
                record_edges(unit, f, guard.line, &guard.keys, &scopes, edges);
                if let Some(frame) = scopes.last_mut() {
                    frame.push(guard);
                }
                i = next;
                continue;
            }
        }
        if t.is_ident("for") {
            if let Some((kind, line, body_open)) = parse_guard_for(tokens, i) {
                let keys = tokens
                    .get(i..body_open)
                    .unwrap_or(&[])
                    .iter()
                    .enumerate()
                    .find_map(|(off, _)| {
                        lock_method_at(tokens, i + off)
                            .and_then(|_| key_for_chain(index, f, tokens, i + off))
                    })
                    .into_iter()
                    .collect::<Vec<_>>();
                record_edges(unit, f, line, &keys, &scopes, edges);
                scopes.push(vec![IGuard {
                    name: None,
                    keys,
                    kind,
                    line,
                }]);
                i = body_open + 1;
                continue;
            }
        }
        // Direct acquisition in statement position (temporaries and
        // re-locks): edges from everything currently held.
        if lock_method_at(tokens, i).is_some() {
            if let Some(key) = key_for_chain(index, f, tokens, i) {
                let line = tokens.get(i).map(|t| t.line).unwrap_or(0);
                record_edges(unit, f, line, &[key], &scopes, edges);
            }
        }
        // A call while guards are live: blocking (direct or through a
        // callee) and transitive acquisitions.
        if let Some(site) = sites.get(site_cursor).filter(|s| s.tok == i) {
            let live: Vec<&IGuard> = scopes.iter().flatten().collect();
            if !live.is_empty() {
                process_call_site(facts, f, unit, site, &live, findings, edges);
            }
            i += 1;
            continue;
        }
        i += 1;
    }
}

/// Recognizes a guard-producing `let` at `i`: either a
/// `.lock()/.read()/.write()` tail, or a call to a function
/// whose return type is a guard. Returns the guard and the index past
/// the statement.
#[allow(clippy::too_many_arguments)]
fn guard_binding(
    units: &[SourceUnit],
    index: &ItemIndex,
    facts: &Facts,
    f: &FnItem,
    sites: &[CallSite],
    i: usize,
    end: usize,
) -> Option<(IGuard, usize)> {
    let unit = units.get(f.file)?;
    let tokens = &unit.tokens;
    if let Some(g) = parse_guard_let(tokens, i) {
        // Attribute the key: receiver chain first, then (for
        // `self.lock()`-style helpers) the resolved call target.
        let mut keys: Vec<String> = key_for_chain(index, f, tokens, g.dot).into_iter().collect();
        if keys.is_empty() {
            let lock_ident = g.dot + 1;
            if let Some(site) = sites.iter().find(|s| s.tok == lock_ident) {
                keys = helper_guard_keys(index, facts, site);
            }
        }
        return Some((
            IGuard {
                name: Some(g.name),
                keys,
                kind: g.kind,
                line: g.line,
            },
            g.next,
        ));
    }
    // `let g = self.helper();` where helper returns a guard type.
    let send = stmt_end(tokens, i, end);
    let mut name_idx = i + 1;
    if tokens.get(name_idx).is_some_and(|t| t.is_ident("mut")) {
        name_idx += 1;
    }
    let name = tokens
        .get(name_idx)
        .filter(|t| t.kind == TokKind::Ident)?
        .text
        .clone();
    let line = tokens.get(name_idx).map(|t| t.line).unwrap_or(0);
    let in_stmt: Vec<&CallSite> = sites.iter().filter(|s| s.tok > i && s.tok < send).collect();
    let last_resolved = in_stmt.iter().rposition(|s| !s.targets.is_empty())?;
    let trailing_ok = in_stmt
        .get(last_resolved + 1..)
        .unwrap_or(&[])
        .iter()
        .all(|s| matches!(s.name.as_str(), "unwrap" | "expect" | "unwrap_or_else"));
    let site = in_stmt.get(last_resolved)?;
    let returns_guard = site
        .targets
        .iter()
        .any(|&t| index.fns.get(t).is_some_and(|f| f.returns_guard));
    if !trailing_ok || !returns_guard {
        return None;
    }
    let keys = helper_guard_keys(index, facts, site);
    Some((
        IGuard {
            name: Some(name),
            keys,
            kind: "lock",
            line,
        },
        send,
    ))
}

/// Lock keys held by the caller after a guard-returning call: the
/// union of the guard-returning targets' transitive acquisitions.
fn helper_guard_keys(index: &ItemIndex, facts: &Facts, site: &CallSite) -> Vec<String> {
    let mut keys = BTreeSet::new();
    for &t in &site.targets {
        if index.fns.get(t).is_some_and(|f| f.returns_guard) {
            keys.extend(
                facts
                    .acquires
                    .get(t)
                    .into_iter()
                    .flatten()
                    .map(|(k, _)| k.clone()),
            );
        }
    }
    keys.into_iter().collect()
}

/// Adds `held → acquired` edges for every key currently held.
fn record_edges(
    unit: &SourceUnit,
    f: &FnItem,
    line: u32,
    acquired: &[String],
    scopes: &[Vec<IGuard>],
    edges: &mut BTreeMap<(String, String), Witness>,
) {
    for held in scopes.iter().flatten().flat_map(|g| g.keys.iter()) {
        for key in acquired {
            edges
                .entry((held.clone(), key.clone()))
                .or_insert_with(|| Witness {
                    file: unit.path.clone(),
                    line,
                    text: format!("{}:{line} in `{}`", unit.path, f.name),
                });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn process_call_site(
    facts: &Facts,
    f: &FnItem,
    unit: &SourceUnit,
    site: &CallSite,
    live: &[&IGuard],
    findings: &mut Vec<Finding>,
    edges: &mut BTreeMap<(String, String), Witness>,
) {
    let tokens = &unit.tokens;
    // What the call blocks on, if anything: itself (`.recv(` is matched
    // at its `.`, `thread::sleep(` at its name) or a callee chain.
    let blocks = match blocking_call_at(tokens, site.tok.wrapping_sub(1))
        .or_else(|| blocking_call_at(tokens, site.tok))
    {
        Some(callee) => Some(format!(
            "blocking `.{callee}()` — narrow the guard's scope or pass it to the wait"
        )),
        None => site
            .targets
            .iter()
            .find_map(|&t| facts.blocks.get(t).cloned().flatten())
            .map(|chain| format!("`{}()`, which blocks: {chain}", site.name)),
    };
    // Transitive acquisitions: order edges regardless of the condvar
    // arg idiom (passing a guard into a callee does not stop the
    // callee from acquiring more locks underneath it).
    let mut acquired: BTreeSet<&str> = BTreeSet::new();
    for &target in &site.targets {
        acquired.extend(
            facts
                .acquires
                .get(target)
                .into_iter()
                .flatten()
                .map(|(k, _)| k.as_str()),
        );
    }
    for g in live {
        // A call on the guard itself targets the guarded data.
        if g.name.is_some() && site.receiver.as_deref() == g.name.as_deref() {
            continue;
        }
        let acquired_vec: Vec<String> = acquired.iter().map(|k| k.to_string()).collect();
        for held in &g.keys {
            for key in &acquired_vec {
                edges
                    .entry((held.clone(), key.clone()))
                    .or_insert_with(|| Witness {
                        file: unit.path.clone(),
                        line: site.line,
                        text: format!(
                            "{}:{} in `{}` via `{}`",
                            unit.path, site.line, f.name, site.name
                        ),
                    });
            }
        }
        // Guard consumed/passed by the call (condvar idiom and
        // helpers that take the guard) — the callee owns it now.
        let in_args = g.name.as_deref().is_some_and(|n| {
            tokens
                .get(site.args.0..site.args.1)
                .unwrap_or(&[])
                .iter()
                .any(|t| t.is_ident(n))
        });
        if in_args {
            continue;
        }
        let Some(blocks) = &blocks else { continue };
        let held = match g.name.as_deref() {
            Some(n) => format!("guard `{n}`"),
            None => "a temporary guard".to_string(),
        };
        findings.push(Finding {
            file: unit.path.clone(),
            line: site.line,
            rule: rules::GUARD_RULE,
            message: format!(
                "{held} (.{}() at line {}) is held across {blocks}",
                g.kind, g.line
            ),
        });
    }
}

/// Finds deadlock-capable cycles in the lock-order edge set: every
/// strongly connected component with more than one node, plus
/// self-loops (a re-acquisition of a held, non-reentrant lock).
fn cycle_findings(edges: &BTreeMap<(String, String), Witness>) -> Vec<Finding> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a.as_str());
        nodes.insert(b.as_str());
    }
    let reach = |from: &str, fwd: bool| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for ((a, b), _) in edges.iter() {
                let (src, dst) = if fwd { (a, b) } else { (b, a) };
                if src == u && seen.insert(dst.as_str()) {
                    stack.push(dst.as_str());
                }
            }
        }
        seen
    };
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut findings = Vec::new();
    for &u in &nodes {
        if assigned.contains(u) {
            continue;
        }
        let fwd = reach(u, true);
        let bwd = reach(u, false);
        let mut scc: BTreeSet<&str> = fwd.intersection(&bwd).copied().collect();
        scc.insert(u);
        let self_loop = edges.contains_key(&(u.to_string(), u.to_string()));
        let cyclic = scc.len() > 1 || (self_loop && fwd.contains(u));
        if scc.len() > 1 || self_loop {
            assigned.extend(scc.iter().copied());
        } else {
            assigned.insert(u);
        }
        if !cyclic && !self_loop {
            continue;
        }
        // Internal edges of the component, with witnesses.
        let internal: Vec<(&(String, String), &Witness)> = edges
            .iter()
            .filter(|((a, b), _)| scc.contains(a.as_str()) && scc.contains(b.as_str()))
            .collect();
        let Some((_, first)) = internal.first() else {
            continue;
        };
        let keys: Vec<&str> = scc.iter().copied().collect();
        let detail: Vec<String> = internal
            .iter()
            .map(|((a, b), w)| format!("{a} → {b} [{}]", w.text))
            .collect();
        findings.push(Finding {
            file: first.file.clone(),
            line: first.line,
            rule: rules::LOCK_ORDER_RULE,
            message: format!(
                "deadlock-capable lock-order cycle over {{{}}}: {}",
                keys.join(", "),
                detail.join("; ")
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;

    fn check_src(files: &[(&str, &str)]) -> Vec<Finding> {
        let units: Vec<SourceUnit> = files.iter().map(|(p, s)| SourceUnit::parse(p, s)).collect();
        let index = ItemIndex::build(&units);
        let graph = CallGraph::build(&units, &index);
        check(&units, &index, &graph)
    }

    #[test]
    fn two_function_lock_cycle_is_flagged() {
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ab(&self) {
                    let ga = self.a.lock().unwrap();
                    let gb = self.b.lock().unwrap();
                }
                fn ba(&self) {
                    let gb = self.b.lock().unwrap();
                    let ga = self.a.lock().unwrap();
                }
            }
            ",
        )]);
        let cycles: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rules::LOCK_ORDER_RULE)
            .collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        assert!(cycles
            .first()
            .is_some_and(|f| f.message.contains("S.a") && f.message.contains("S.b")));
    }

    #[test]
    fn one_directional_order_is_clean() {
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ab(&self) {
                    let ga = self.a.lock().unwrap();
                    let gb = self.b.lock().unwrap();
                }
                fn also_ab(&self) {
                    let ga = self.a.lock().unwrap();
                    self.grab_b();
                }
                fn grab_b(&self) {
                    let gb = self.b.lock().unwrap();
                }
            }
            ",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn transitive_blocking_through_a_helper_is_flagged() {
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { m: Mutex<u32>, rx: Receiver<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.m.lock().unwrap();
                    self.helper();
                }
                fn helper(&self) {
                    let v = self.rx.recv();
                }
            }
            ",
        )]);
        let guards: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rules::GUARD_RULE)
            .collect();
        assert_eq!(guards.len(), 1, "{findings:?}");
        assert!(guards.first().is_some_and(|f| f.message.contains("helper")));
    }

    #[test]
    fn a_direct_blocking_call_is_reported_once() {
        // `thread::sleep` also resolves to the blocking free `sleep`
        // below: the direct report stands for both.
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { m: Mutex<u32>, rx: Receiver<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    let a = self.rx.recv();
                    let n = (0..2).map(|_| self.rx.recv()).count();
                    thread::sleep(PAUSE);
                }
            }
            fn sleep(rx: &Receiver<u32>) { let _ = rx.recv(); }
            ",
        )]);
        let guards: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == rules::GUARD_RULE)
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(guards.len(), 3, "{guards:?}");
        assert!(guards.iter().all(|m| m.contains("held across blocking")));
    }

    #[test]
    fn guard_passed_into_the_callee_is_exempt() {
        // The condvar-consuming idiom, one level out: the helper gets
        // the guard, so holding it across the call is the point.
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { m: Mutex<u32>, c: Condvar }
            impl S {
                fn outer(&self) {
                    let mut g = self.m.lock().unwrap();
                    g = self.wait_ready(g);
                }
                fn wait_ready(&self, g: MutexGuard<u32>) -> MutexGuard<u32> {
                    self.c.wait(g).unwrap()
                }
            }
            ",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != rules::GUARD_RULE),
            "{findings:?}"
        );
    }

    #[test]
    fn helper_returning_guard_carries_its_key() {
        // `self.lock()` helper: the caller holds `state`; a second
        // helper acquiring `aux` the other way closes the cycle.
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct Q { state: Mutex<u32>, aux: Mutex<u32> }
            impl Q {
                fn lock(&self) -> MutexGuard<u32> {
                    self.state.lock().unwrap()
                }
                fn forward(&self) {
                    let s = self.lock();
                    let a = self.aux.lock().unwrap();
                }
                fn backward(&self) {
                    let a = self.aux.lock().unwrap();
                    let s = self.lock();
                }
            }
            ",
        )]);
        let cycles: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rules::LOCK_ORDER_RULE)
            .collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        assert!(cycles
            .first()
            .is_some_and(|f| f.message.contains("Q.state") && f.message.contains("Q.aux")));
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_loop() {
        let findings = check_src(&[(
            "crates/demo/src/lib.rs",
            "
            struct S { m: Mutex<u32> }
            impl S {
                fn outer(&self) {
                    let g = self.m.lock().unwrap();
                    self.inner();
                }
                fn inner(&self) {
                    let g = self.m.lock().unwrap();
                }
            }
            ",
        )]);
        let cycles: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rules::LOCK_ORDER_RULE)
            .collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
    }

    #[test]
    fn cross_file_cycle_resolves_through_the_call_graph() {
        let findings = check_src(&[
            (
                "crates/alpha/src/lib.rs",
                "
                pub struct Alpha { a: Mutex<u32> }
                impl Alpha {
                    pub fn with_a_then_b(&self, beta: &Beta) {
                        let g = self.a.lock().unwrap();
                        grab_beta(beta);
                    }
                }
                pub fn grab_beta(beta: &Beta) { beta.take_b(); }
                ",
            ),
            (
                "crates/beta/src/lib.rs",
                "
                pub struct Beta { b: Mutex<u32> }
                impl Beta {
                    pub fn take_b(&self) {
                        let g = self.b.lock().unwrap();
                    }
                    pub fn with_b_then_a(&self, alpha: &Alpha) {
                        let g = self.b.lock().unwrap();
                        alpha.reach_a();
                    }
                }
                impl Alpha {
                    pub fn reach_a(&self) {
                        let g = self.a.lock().unwrap();
                    }
                }
                ",
            ),
        ]);
        let cycles: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rules::LOCK_ORDER_RULE)
            .collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        assert!(cycles
            .first()
            .is_some_and(|f| f.message.contains("Alpha.a") && f.message.contains("Beta.b")));
    }
}
