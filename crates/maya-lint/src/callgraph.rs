//! Conservative name-resolved call graph over the phase-1 item index.
//!
//! Resolution is deliberately narrow — an edge only exists when the
//! token shape pins the target down:
//!
//! - `self.m(...)` inside `impl T` → methods `m` of `T`;
//! - `self.field.m(...)` → methods `m` of any type named in `field`'s
//!   declared type (so `self.queue.pop()` resolves through an
//!   `Arc<AdmissionQueue>` field);
//! - `Type::m(...)` → methods `m` of `Type` (`Self` is the enclosing
//!   impl's type); only a lowercase `module::m(...)` path resolves to
//!   free functions `m`;
//! - bare `m(...)` → free functions named `m`;
//! - `other.m(...)` with an unknown receiver → the single workspace
//!   method named `m` when exactly one exists, *unless* `m` is a
//!   well-known std method name (the `STD_METHODS` deny list);
//!   ambiguous names and std names resolve to nothing.
//!
//! Unresolvable calls get an empty target list: the interprocedural
//! rules then treat them as opaque, trading false negatives for the
//! absence of made-up edges.

use crate::items::{FnItem, ItemIndex, SourceUnit};
use crate::lexer::{TokKind, Token};
use crate::rules::match_delim;

/// Method names assumed to belong to std types when the receiver is
/// unknown. Without this, `vec.pop()` would resolve to any workspace
/// method named `pop` and manufacture call edges that do not exist.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_sub",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "field",
    "fill",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "splitn",
    "sqrt",
    "starts_with",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_lock",
    "try_recv",
    "unwrap",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "wait",
    "windows",
    "wrapping_add",
    "write",
    "write_all",
    "zip",
];

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Token index of the callee name in the declaring file's stream.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// Receiver identifier for `recv.m(...)` calls.
    pub receiver: Option<String>,
    /// Argument token range: index of the `(` to just past the `)`.
    pub args: (usize, usize),
    /// Resolved targets, as indices into [`ItemIndex::fns`].
    pub targets: Vec<usize>,
}

/// Call sites per function, indexed like [`ItemIndex::fns`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[f]` lists fn `f`'s call sites in token order.
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Builds the graph for every indexed function.
    pub fn build(units: &[SourceUnit], index: &ItemIndex) -> CallGraph {
        let mut calls = Vec::with_capacity(index.fns.len());
        for f in &index.fns {
            calls.push(collect_calls(units, index, f));
        }
        CallGraph { calls }
    }
}

fn collect_calls(units: &[SourceUnit], index: &ItemIndex, f: &FnItem) -> Vec<CallSite> {
    let Some(unit) = units.get(f.file) else {
        return Vec::new();
    };
    let tokens = &unit.tokens;
    let (open, end) = f.body;
    if end <= open {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut j = open + 1;
    while j + 1 < end {
        let (Some(t), Some(n)) = (tokens.get(j), tokens.get(j + 1)) else {
            break;
        };
        let is_call = t.kind == TokKind::Ident
            && n.is_punct('(')
            && !matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "move"
            )
            && !matches!(tokens.get(j.wrapping_sub(1)), Some(p) if p.is_ident("fn"));
        if !is_call {
            j += 1;
            continue;
        }
        let args_end = match_delim(tokens, j + 1, '(', ')');
        let prev = tokens.get(j.wrapping_sub(1));
        let mut receiver = None;
        let targets = if prev.is_some_and(|p| p.is_punct('.')) {
            // Method call: inspect the receiver chain.
            let recv = tokens
                .get(j.wrapping_sub(2))
                .filter(|r| r.kind == TokKind::Ident);
            receiver = recv.map(|r| r.text.clone());
            resolve_method(index, f, tokens, j, recv.map(|r| r.text.as_str()), &t.text)
        } else if prev.is_some_and(|p| p.is_punct(':'))
            && tokens
                .get(j.wrapping_sub(2))
                .is_some_and(|p| p.is_punct(':'))
        {
            // `Qual::name(...)`.
            let qual = tokens
                .get(j.wrapping_sub(3))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.as_str());
            resolve_qualified(index, f, qual, &t.text)
        } else {
            index.free_fns(&t.text)
        };
        out.push(CallSite {
            tok: j,
            line: t.line,
            name: t.text.clone(),
            receiver,
            args: (j + 1, args_end),
            targets,
        });
        j += 1;
    }
    out
}

/// Resolves `recv.name(...)` at token `name_idx`.
fn resolve_method(
    index: &ItemIndex,
    f: &FnItem,
    tokens: &[Token],
    name_idx: usize,
    recv: Option<&str>,
    name: &str,
) -> Vec<usize> {
    let impl_type = f.impl_type.as_deref();
    if recv == Some("self") {
        return impl_type
            .map(|ty| index.methods_of(ty, name))
            .unwrap_or_default();
    }
    // `self.field.name(...)`: resolve through the field's declared
    // type. A known field whose type has no workspace impls means the
    // call hits std (Vec, HashMap, Mutex, ...) — resolve to nothing
    // rather than falling through to the by-name net.
    if let (Some(field), Some(ty)) = (recv, impl_type) {
        let is_self_field = tokens
            .get(name_idx.wrapping_sub(3))
            .is_some_and(|p| p.is_punct('.'))
            && tokens
                .get(name_idx.wrapping_sub(4))
                .is_some_and(|p| p.is_ident("self"));
        if is_self_field {
            if let Some(fld) = index.field_of(ty, field) {
                return fld
                    .type_idents
                    .iter()
                    .flat_map(|t| index.methods_of(t, name))
                    .collect();
            }
        }
    }
    if STD_METHODS.contains(&name) {
        return Vec::new();
    }
    // Unknown receiver: only resolve when the workspace has exactly
    // one method with this name. Multiple candidates would manufacture
    // edges to types the receiver cannot be (`h.snapshot()` on a
    // histogram must not resolve to every `snapshot` in the tree).
    let candidates = index.any_methods(name);
    if candidates.len() == 1 {
        candidates
    } else {
        Vec::new()
    }
}

/// Resolves `Qual::name(...)` inside `f`. A type qualifier (uppercase)
/// names methods of that type only: a type with no workspace impl is
/// std or a dependency, not a licence to match free functions.
fn resolve_qualified(index: &ItemIndex, f: &FnItem, qual: Option<&str>, name: &str) -> Vec<usize> {
    match qual {
        Some("Self") => f
            .impl_type
            .as_deref()
            .map(|ty| index.methods_of(ty, name))
            .unwrap_or_default(),
        Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => index.methods_of(q, name),
        // `module::name(...)` (or a qualifier the lexer could not pin).
        _ => index.free_fns(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;

    fn graph_for(src: &str) -> (ItemIndex, CallGraph) {
        let units = vec![SourceUnit::parse("crates/demo/src/lib.rs", src)];
        let index = ItemIndex::build(&units);
        let graph = CallGraph::build(&units, &index);
        (index, graph)
    }

    fn targets_of(index: &ItemIndex, graph: &CallGraph, caller: &str, callee: &str) -> Vec<String> {
        let Some(ci) = index.fns.iter().position(|f| f.name == caller) else {
            return Vec::new();
        };
        graph
            .calls
            .get(ci)
            .into_iter()
            .flatten()
            .filter(|c| c.name == callee)
            .flat_map(|c| c.targets.iter())
            .filter_map(|&t| index.fns.get(t).map(|f| f.name.clone()))
            .collect()
    }

    #[test]
    fn self_calls_resolve_within_the_impl() {
        let (index, graph) = graph_for(
            "
            struct A;
            struct B;
            impl A { fn go(&self) { self.step(); } fn step(&self) {} }
            impl B { fn step(&self) {} }
            ",
        );
        assert_eq!(targets_of(&index, &graph, "go", "step").len(), 1);
    }

    #[test]
    fn field_typed_receivers_resolve_through_the_field() {
        let (index, graph) = graph_for(
            "
            struct Queue;
            impl Queue { fn pop(&self) {} }
            struct Server { queue: Arc<Queue>, items: Vec<u32> }
            impl Server {
                fn run(&self) { self.queue.pop(); self.items.pop(); }
            }
            ",
        );
        // `self.queue.pop()` reaches Queue::pop; `self.items.pop()` is
        // Vec::pop and resolves to nothing.
        assert_eq!(targets_of(&index, &graph, "run", "pop").len(), 1);
    }

    #[test]
    fn std_method_names_do_not_resolve_blind() {
        let (index, graph) = graph_for(
            "
            struct Q;
            impl Q { fn pop(&self) {} }
            fn elsewhere(v: &mut Vec<u32>) { v.pop(); }
            ",
        );
        assert!(targets_of(&index, &graph, "elsewhere", "pop").is_empty());
    }

    #[test]
    fn qualified_and_free_calls_resolve() {
        let (index, graph) = graph_for(
            "
            struct T;
            impl T { fn make() {} }
            fn helper() {}
            fn caller() { T::make(); helper(); crate::helper(); }
            ",
        );
        assert_eq!(targets_of(&index, &graph, "caller", "make").len(), 1);
        assert_eq!(targets_of(&index, &graph, "caller", "helper").len(), 2);
    }

    #[test]
    fn a_type_qualifier_never_falls_back_to_free_functions() {
        // `Error` has no workspace impl: `Error::parse` is a
        // dependency's constructor, not the free `parse` below.
        let (index, graph) = graph_for(
            "
            fn parse(s: &str) -> u32 { 0 }
            fn caller() { Error::parse(msg); json::parse(text); }
            ",
        );
        assert_eq!(targets_of(&index, &graph, "caller", "parse").len(), 1);
    }

    #[test]
    fn self_qualified_calls_resolve_through_the_enclosing_impl() {
        let (index, graph) = graph_for(
            "
            struct A;
            struct B;
            impl A { fn go() { Self::step(); } fn step() {} }
            impl B { fn step() {} }
            ",
        );
        let go = index.fns.iter().position(|f| f.name == "go").expect("go");
        let targets: Vec<&str> = graph
            .calls
            .get(go)
            .into_iter()
            .flatten()
            .flat_map(|c| c.targets.iter())
            .filter_map(|&t| index.fns.get(t).and_then(|f| f.impl_type.as_deref()))
            .collect();
        assert_eq!(targets, ["A"]);
    }
}
