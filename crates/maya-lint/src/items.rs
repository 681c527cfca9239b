//! Phase-1 workspace item index: functions (with their enclosing
//! `impl`/`trait` type), struct fields (lock-typed ones specially
//! marked) and lock-typed function parameters. This is the symbol
//! layer the interprocedural rules in [`crate::callgraph`] and
//! [`crate::interproc`] resolve names against.
//!
//! Built on the same flat token streams as the per-file rules — the
//! workspace is registry-free, so there is no `syn`. Parsing is
//! shape-matching over tokens: anything the indexer cannot confidently
//! recognize it leaves out, which degrades the interprocedural rules
//! toward false negatives, never panics or spurious findings.

use std::collections::BTreeMap;

use crate::lexer::{lex, TokKind, Token};
use crate::rules::{match_delim, test_ranges};

/// One scanned source file, kept around for phase-2 analysis.
#[derive(Debug)]
pub struct SourceUnit {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// The file's token stream.
    pub tokens: Vec<Token>,
    /// Sorted token ranges of test code (exempt from all rules).
    pub exempt: Vec<(usize, usize)>,
}

impl SourceUnit {
    /// Lexes `source` into a unit (test ranges precomputed).
    pub fn parse(path: &str, source: &str) -> SourceUnit {
        let lexed = lex(source);
        let exempt = test_ranges(&lexed.tokens);
        SourceUnit {
            path: path.to_string(),
            tokens: lexed.tokens,
            exempt,
        }
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// Whether token `i` falls inside test code.
    pub fn is_exempt(&self, i: usize) -> bool {
        self.exempt.iter().any(|&(a, b)| i >= a && i < b)
    }
}

/// Which lock-ish type a struct field or parameter carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<T>` — exclusive; participates in lock ordering.
    Mutex,
    /// `RwLock<T>` — shared/exclusive; participates in lock ordering.
    RwLock,
    /// `Condvar` — indexed for completeness; waits are blocking calls,
    /// not ordered acquisitions.
    Condvar,
}

/// One struct field, with every identifier appearing in its type.
#[derive(Clone, Debug)]
pub struct Field {
    /// Declaring struct.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Identifiers in the type position (`Arc<Mutex<Foo>>` yields
    /// `[Arc, Mutex, Foo]`) — used to resolve `self.field.method()`.
    pub type_idents: Vec<String>,
    /// Set when the type mentions a lock.
    pub lock: Option<LockKind>,
}

/// One function or method.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Index of the declaring file in the unit list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list (inside the parens).
    pub params: (usize, usize),
    /// Token range of the body including both braces; `(0, 0)` for
    /// body-less trait signatures.
    pub body: (usize, usize),
    /// Declared inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
    /// The return type mentions a guard type (`MutexGuard`,
    /// `RwLockReadGuard`, ...) — a lock acquired inside stays held by
    /// the caller.
    pub returns_guard: bool,
    /// Parameters whose type mentions `Mutex`/`RwLock`: a shared lock
    /// passed by reference, keyed `param.<name>` in the lock graph.
    pub lock_params: Vec<String>,
}

/// The workspace-wide symbol index (phase-1 output).
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// Every function, in file-then-token order.
    pub fns: Vec<FnItem>,
    /// Every struct field.
    pub fields: Vec<Field>,
    /// Function name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl ItemIndex {
    /// Builds the index over every unit.
    pub fn build(units: &[SourceUnit]) -> ItemIndex {
        let mut index = ItemIndex::default();
        for (file, unit) in units.iter().enumerate() {
            index_unit(file, unit, &mut index);
        }
        for (i, f) in index.fns.iter().enumerate() {
            index.by_name.entry(f.name.clone()).or_default().push(i);
        }
        index
    }

    /// Functions named `name` whose impl type is `ty`.
    pub fn methods_of(&self, ty: &str, name: &str) -> Vec<usize> {
        self.named(name, |f| f.impl_type.as_deref() == Some(ty))
    }

    /// Free functions named `name`.
    pub fn free_fns(&self, name: &str) -> Vec<usize> {
        self.named(name, |f| f.impl_type.is_none())
    }

    /// Methods named `name` on any type.
    pub fn any_methods(&self, name: &str) -> Vec<usize> {
        self.named(name, |f| f.impl_type.is_some())
    }

    fn named(&self, name: &str, keep: impl Fn(&FnItem) -> bool) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| self.fns.get(i).is_some_and(|f| !f.is_test && keep(f)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The field `name` declared on struct `owner`.
    pub fn field_of(&self, owner: &str, name: &str) -> Option<&Field> {
        self.fields
            .iter()
            .find(|f| f.owner == owner && f.name == name)
    }

    /// If exactly one struct declares a *lock-typed* field `name`,
    /// returns it — used to attribute `foo.conns.lock()` when the
    /// receiver's type is unknown.
    pub fn unique_lock_field(&self, name: &str) -> Option<&Field> {
        let mut hits = self.fields.iter().filter(|f| {
            f.name == name && matches!(f.lock, Some(LockKind::Mutex | LockKind::RwLock))
        });
        let first = hits.next()?;
        if hits.next().is_some() {
            return None;
        }
        Some(first)
    }
}

/// Lock kind for a type-token run, if any.
fn lock_kind(type_idents: &[String]) -> Option<LockKind> {
    for id in type_idents {
        match id.as_str() {
            "Mutex" => return Some(LockKind::Mutex),
            "RwLock" => return Some(LockKind::RwLock),
            "Condvar" => return Some(LockKind::Condvar),
            _ => {}
        }
    }
    None
}

/// Skips a `<...>` generic list starting at `i` (pointing at `<`),
/// returning the index past the matching `>`. `->` arrows never occur
/// at this position. Unbalanced input ends at `tokens.len()`.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            return j; // malformed; stop before the body
        }
        j += 1;
    }
    tokens.len()
}

fn index_unit(file: usize, unit: &SourceUnit, index: &mut ItemIndex) {
    let tokens = &unit.tokens;
    // Stack of enclosing `impl`/`trait` contexts: (type, body end).
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        while impls.last().is_some_and(|&(_, end)| i >= end) {
            impls.pop();
        }
        let Some(t) = tokens.get(i) else { break };
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" | "trait" => {
                if let Some((ty, open)) = parse_impl_header(tokens, i) {
                    let end = match_delim(tokens, open, '{', '}');
                    impls.push((ty, end));
                    i = open + 1;
                    continue;
                }
                i += 1;
            }
            "struct" => {
                i = parse_struct(tokens, i, index);
            }
            "fn" => {
                if let Some((item, next)) = parse_fn(file, unit, i, impls.last()) {
                    index.fns.push(item);
                    i = next;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses `impl<...> [Trait for] Type<...> [where ...] {`, returning
/// the implemented type name and the index of the body `{`. For
/// `trait Name {` the trait name is the type.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_generics(tokens, j);
    }
    // Scan to the body `{` (or bail at `;`), tracking the last
    // angle-depth-0 ident before any `where` clause; if a `for`
    // appears, restart tracking (the type follows it).
    let mut depth = 0i32;
    let mut last: Option<&str> = None;
    let mut in_where = false;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') && depth <= 0 {
            return last.map(|ty| (ty.to_string(), j));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_punct('<') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') {
            depth -= 1;
        } else if depth <= 0 && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => {
                    last = None;
                    in_where = false;
                }
                "where" => in_where = true,
                name if !in_where => last = Some(name),
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Parses `struct Name<...> { fields }`, pushing each field into the
/// index. Returns the index to resume scanning from (just inside the
/// body so nothing is skipped).
fn parse_struct(tokens: &[Token], i: usize, index: &mut ItemIndex) -> usize {
    let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    let owner = name.text.clone();
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_generics(tokens, j);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
        return i + 1; // tuple/unit struct: nothing lockable to key on
    }
    let end = match_delim(tokens, j, '{', '}');
    // Split the body into fields at depth-0 commas; within each
    // segment, `name :` starts the type run.
    let mut depth = 0i32;
    let mut field: Option<String> = None;
    let mut type_idents: Vec<String> = Vec::new();
    let mut k = j + 1;
    let mut flush = |field: &mut Option<String>, type_idents: &mut Vec<String>| {
        if let Some(name) = field.take() {
            let lock = lock_kind(type_idents);
            index.fields.push(Field {
                owner: owner.clone(),
                name,
                type_idents: std::mem::take(type_idents),
                lock,
            });
        } else {
            type_idents.clear();
        }
    };
    while k + 1 < end {
        let Some(t) = tokens.get(k) else { break };
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(',') {
            flush(&mut field, &mut type_idents);
        } else if t.kind == TokKind::Ident {
            let is_field_name = depth <= 0
                && field.is_none()
                && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
                && !tokens
                    .get(k.wrapping_sub(1))
                    .is_some_and(|p| p.is_punct(':'));
            if is_field_name {
                field = Some(t.text.clone());
            } else if field.is_some() {
                type_idents.push(t.text.clone());
            }
        }
        k += 1;
    }
    flush(&mut field, &mut type_idents);
    j + 1
}

/// Parses `fn name<...>(params) [-> Ret] [where ...] { body }`,
/// returning the item and the index to resume from (inside the body).
fn parse_fn(
    file: usize,
    unit: &SourceUnit,
    i: usize,
    ctx: Option<&(String, usize)>,
) -> Option<(FnItem, usize)> {
    let tokens = &unit.tokens;
    let name = unit.tok(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_generics(tokens, j);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_end = match_delim(tokens, j, '(', ')');
    let params = (j + 1, params_end.saturating_sub(1));
    // Return type / where clause run: everything to the body `{` or a
    // `;` (trait signature). A `{` can only open the body here.
    let mut k = params_end;
    let (body, ret_end) = loop {
        match tokens.get(k) {
            None => break ((0, 0), k),
            Some(t) if t.is_punct('{') => {
                break ((k, match_delim(tokens, k, '{', '}')), k);
            }
            Some(t) if t.is_punct(';') => break ((0, 0), k),
            Some(_) => k += 1,
        }
    };
    let returns_guard = tokens
        .get(params_end..ret_end)
        .unwrap_or(&[])
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.ends_with("Guard"));
    let item = FnItem {
        file,
        name: name.text.clone(),
        impl_type: ctx.map(|(ty, _)| ty.clone()),
        line: unit.tok(i).map(|t| t.line).unwrap_or(0),
        params,
        body,
        is_test: unit.is_exempt(i),
        returns_guard,
        lock_params: lock_params(tokens, params),
    };
    // Resume just inside the body (or past the `;`) so nested items
    // are still indexed.
    let next = if body == (0, 0) {
        ret_end + 1
    } else {
        body.0 + 1
    };
    Some((item, next))
}

/// Names of parameters in `params` whose type mentions `Mutex` or
/// `RwLock` (depth-0 comma-separated `name: Type` segments).
fn lock_params(tokens: &[Token], params: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut name: Option<String> = None;
    let mut lockish = false;
    let mut k = params.0;
    while k < params.1 {
        let Some(t) = tokens.get(k) else { break };
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(',') {
            if lockish {
                out.extend(name.take());
            }
            name = None;
            lockish = false;
        } else if t.kind == TokKind::Ident {
            if name.is_none()
                && depth <= 0
                && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
            {
                name = Some(t.text.clone());
            } else if matches!(t.text.as_str(), "Mutex" | "RwLock") {
                lockish = true;
            }
        }
        k += 1;
    }
    if lockish {
        out.extend(name.take());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> ItemIndex {
        ItemIndex::build(&[SourceUnit::parse("crates/demo/src/lib.rs", src)])
    }

    #[test]
    fn structs_locks_and_impls_are_indexed() {
        let idx = index_of(
            "
            struct Q { state: Mutex<Inner>, ready: Condvar, tag: u32 }
            struct Shared { conns: Mutex<HashMap<u64, TcpStream>> }
            impl Q {
                fn push(&self) {}
                fn lock(&self) -> MutexGuard<Inner> { self.state.lock().unwrap() }
            }
            fn free_helper(jobs: &Mutex<Vec<u8>>) {}
            ",
        );
        let state = idx.field_of("Q", "state").expect("state field");
        assert_eq!(state.lock, Some(LockKind::Mutex));
        assert_eq!(
            idx.field_of("Q", "ready").and_then(|f| f.lock),
            Some(LockKind::Condvar)
        );
        assert!(idx.field_of("Q", "tag").is_some_and(|f| f.lock.is_none()));
        assert!(idx.unique_lock_field("conns").is_some());
        assert_eq!(idx.methods_of("Q", "push").len(), 1);
        let lock_fn = idx.methods_of("Q", "lock");
        assert!(idx
            .fns
            .get(lock_fn.first().copied().unwrap_or(usize::MAX))
            .is_some_and(|f| f.returns_guard));
        let free = idx.free_fns("free_helper");
        let item = idx
            .fns
            .get(free.first().copied().unwrap_or(usize::MAX))
            .expect("free fn");
        assert_eq!(item.lock_params, vec!["jobs".to_string()]);
    }

    #[test]
    fn trait_impls_resolve_to_the_for_type() {
        let idx = index_of(
            "
            impl<'de> Deserialize<'de> for Spec {
                fn deserialize(r: &mut Reader) -> Result<Self, Error> { body() }
            }
            ",
        );
        assert_eq!(idx.methods_of("Spec", "deserialize").len(), 1);
    }

    #[test]
    fn test_code_fns_are_marked() {
        let idx = index_of(
            "
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
            fn prod() {}
            ",
        );
        assert!(idx.free_fns("helper").is_empty(), "test fns filtered");
        assert_eq!(idx.free_fns("prod").len(), 1);
    }
}
