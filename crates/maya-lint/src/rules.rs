//! The per-file rules, each a pass over one file's token stream, and
//! the guard shapes the workspace phase shares.
//!
//! Every rule is heuristic by design — this is a token scanner, not a
//! type checker — and each one is tuned so that the committed tree is
//! clean without weakening the property it guards:
//!
//! - **nondeterministic-iteration** — iterating a `HashMap`/`HashSet`
//!   inside a serialization-shaped function (`snapshot`, `to_json`,
//!   `emit`, `serialize`, or anything in a `serdes` module) without a
//!   downstream `sort`/`BTreeMap` breaks the byte-identity proofs.
//! - **wall-clock-in-output** — `Instant::now`/`SystemTime` outside the
//!   allowlisted telemetry modules: wall-clock reads are how
//!   nondeterminism leaks into otherwise pure stages.
//! - **unseeded-randomness** — RNG construction that does not take an
//!   explicit seed (`thread_rng`, `from_entropy`, `OsRng`): every
//!   random draw in this workspace must replay from a committed seed.
//! - **panic-budget** — `unwrap()`/`expect()`/`panic!`-family/slice
//!   indexing per non-test crate, capped by `lint-budget.toml` (which
//!   may only ratchet down).
//!
//! **guard-across-blocking-call** runs once, in the workspace phase
//! ([`crate::interproc`]), over direct and transitive calls alike; this
//! module keeps the shapes it matches: guard bindings
//! (`parse_guard_let`, `parse_guard_for`), lock acquisitions
//! (`lock_method_at`) and blocking calls (`blocking_call_at`).
//!
//! Limits worth knowing when reading findings: guard bindings are
//! recognized from `let` statements and `for`-loop headers (not
//! `if let`/`match` arms), and collection types are resolved per file
//! (a `HashMap` field declared in another file is invisible). Both cut
//! toward false negatives, never spurious failures; `lint:allow`
//! covers the remainder.

use crate::lexer::{TokKind, Token};

/// Rule identifiers, as they appear in findings, suppressions and the
/// JSON report.
pub const GUARD_RULE: &str = "guard-across-blocking-call";
/// See [`GUARD_RULE`] (the module docs list every rule).
pub const ITER_RULE: &str = "nondeterministic-iteration";
/// See [`GUARD_RULE`].
pub const WALL_CLOCK_RULE: &str = "wall-clock-in-output";
/// See [`GUARD_RULE`].
pub const RNG_RULE: &str = "unseeded-randomness";
/// See [`GUARD_RULE`].
pub const PANIC_RULE: &str = "panic-budget";
/// Reported when a `lint:allow` comment itself is malformed (missing
/// rule or reason).
pub const SUPPRESSION_RULE: &str = "bad-suppression";
/// Interprocedural: a cycle in the workspace lock-order graph (see
/// [`crate::interproc`]).
pub const LOCK_ORDER_RULE: &str = "lock-order-cycle";

/// Every rule name, for validation and docs.
pub const ALL_RULES: &[&str] = &[
    GUARD_RULE,
    ITER_RULE,
    WALL_CLOCK_RULE,
    RNG_RULE,
    PANIC_RULE,
    SUPPRESSION_RULE,
    LOCK_ORDER_RULE,
];

/// One rule hit at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human message.
    pub message: String,
}

/// Per-file panic-budget tallies (summed per crate by the engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PanicCounts {
    /// `.unwrap()` calls.
    pub unwrap: u64,
    /// `.expect(…)` calls.
    pub expect: u64,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    pub panics: u64,
    /// Slice/array index expressions (`x[i]`, `x[a..b]`).
    pub index: u64,
}

impl PanicCounts {
    /// Sum of every category.
    pub fn total(&self) -> u64 {
        self.unwrap + self.expect + self.panics + self.index
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &PanicCounts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.panics += other.panics;
        self.index += other.index;
    }
}

/// Everything the rules need about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path (`/`-separated).
    pub path: &'a str,
    /// The token stream.
    pub tokens: &'a [Token],
    /// Sorted, disjoint token-index ranges of test code
    /// (`#[cfg(test)]` / `#[test]` items) — exempt from every rule.
    pub exempt: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    fn is_exempt(&self, i: usize) -> bool {
        self.exempt.iter().any(|&(a, b)| i >= a && i < b)
    }

    fn line(&self, i: usize) -> u32 {
        self.tok(i).map(|t| t.line).unwrap_or(0)
    }

    fn finding(&self, i: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.path.to_string(),
            line: self.line(i),
            rule,
            message,
        }
    }
}

/// Computes the exempt (test-code) token ranges for a stream: any item
/// annotated `#[cfg(test)]` or `#[test]`, through the end of its body
/// (`{…}`) or declaration (`;`).
pub fn test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            let start = i;
            // Skip this and any further attributes.
            let mut j = i;
            while is_attr_start(tokens, j) {
                j = skip_attr(tokens, j);
            }
            // Scan to the item body: first `{` (take its matching `}`)
            // or a `;` before any brace.
            let mut k = j;
            let end = loop {
                match tokens.get(k) {
                    None => break tokens.len(),
                    Some(t) if t.is_punct('{') => break match_delim(tokens, k, '{', '}'),
                    Some(t) if t.is_punct(';') => break k + 1,
                    // A `(`/`[` in the signature (args, generics) may
                    // contain braces-in-closures; skip them wholesale.
                    Some(t) if t.is_punct('(') => k = match_delim(tokens, k, '(', ')'),
                    Some(t) if t.is_punct('[') => k = match_delim(tokens, k, '[', ']'),
                    Some(_) => k += 1,
                }
            };
            out.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i), Some(t) if t.is_punct('#'))
        && matches!(tokens.get(i + 1), Some(t) if t.is_punct('['))
}

/// Whether the attribute starting at `i` is `#[test]`, `#[cfg(test)]`
/// or any `#[cfg(...)]` mentioning `test` (e.g. `cfg(any(test, ...))`).
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    if !is_attr_start(tokens, i) {
        return false;
    }
    let end = skip_attr(tokens, i);
    let body = &tokens[i + 2..end.saturating_sub(1).max(i + 2)];
    match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Returns the index just past the attribute starting at `i` (`#`).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    match_delim(tokens, i + 1, '[', ']')
}

/// Index just past the delimiter at `open_idx`'s matching closer.
/// `open_idx` must point at the opener; unbalanced streams end at EOF.
pub(crate) fn match_delim(tokens: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while let Some(t) = tokens.get(i) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

// ---------------------------------------------------------------------
// Guard and blocking-call shapes (the rule itself: crate::interproc)
// ---------------------------------------------------------------------

/// Method names treated as blocking when called with a guard live.
/// `join` and `accept` only count with an empty argument list
/// (`Path::join(arg)` and iterator adapters stay clean).
const BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "wait_while",
    "join",
    "read_exact",
    "write_all",
    "accept",
    "sleep",
];

/// Blocking names that only count when called with no arguments.
const BLOCKING_NEEDS_EMPTY_ARGS: &[&str] = &["join", "accept"];

/// A recognized `let`-bound guard acquisition.
pub(crate) struct GuardLet {
    /// The bound name.
    pub name: String,
    /// `"lock"`, `"read"` or `"write"`.
    pub kind: &'static str,
    /// Line of the binding.
    pub line: u32,
    /// Token index of the `.` before the acquiring method — the
    /// receiver chain ends just before it.
    pub dot: usize,
    /// Index past the statement's `;`.
    pub next: usize,
}

/// If `i` points at `let` binding a fresh guard, describes it.
pub(crate) fn parse_guard_let(tokens: &[Token], i: usize) -> Option<GuardLet> {
    let mut j = i + 1;
    if matches!(tokens.get(j), Some(t) if t.is_ident("mut")) {
        j += 1;
    }
    let name_tok = tokens.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    j += 1;
    // Optional `: Type` annotation — skip to the `=` at depth 0.
    let mut depth = 0i32;
    loop {
        let t = tokens.get(j)?;
        if depth == 0 && t.is_punct('=') {
            // Reject `==`, `=>`, `<=` style (not a plain assign).
            if matches!(tokens.get(j + 1), Some(n) if n.is_punct('=') || n.is_punct('>')) {
                return None;
            }
            j += 1;
            break;
        }
        if depth == 0 && t.is_punct(';') {
            return None; // `let x;`
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        }
        j += 1;
    }
    // `let v = *m.lock().unwrap();` copies the value out — the guard
    // is a temporary dropped at the end of the statement, not bound.
    if matches!(tokens.get(j), Some(t) if t.is_punct('*')) {
        return None;
    }
    // Scan the initializer to its terminating `;` at depth 0, looking
    // for a lock acquisition that is the *final* call of the chain.
    let mut found: Option<(&'static str, usize)> = None;
    let mut depth = 0i32;
    loop {
        let t = tokens.get(j)?;
        if depth == 0 && t.is_punct(';') {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return None; // statement ended by a closing brace (expr tail)
            }
        }
        // `.lock()` / `.read()` / `.write()` with EMPTY parens at the
        // initializer's top level.
        if depth == 0 && t.is_punct('.') {
            if let Some(lk) = lock_method_at(tokens, j) {
                // Check the suffix: only unwrap/expect/
                // unwrap_or_else/`?` may follow before the `;`.
                let mut k = j + 4;
                let ok = loop {
                    let s = match tokens.get(k) {
                        Some(s) => s,
                        None => break false,
                    };
                    if s.is_punct(';') {
                        break true;
                    }
                    if s.is_punct('?') {
                        k += 1;
                        continue;
                    }
                    if s.is_punct('.') {
                        let m2 = match tokens.get(k + 1) {
                            Some(m2) => m2,
                            None => break false,
                        };
                        if matches!(m2.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                            && matches!(tokens.get(k + 2), Some(t) if t.is_punct('('))
                        {
                            k = match_delim(tokens, k + 2, '(', ')');
                            continue;
                        }
                    }
                    break false;
                };
                if ok {
                    found = Some((lk, j));
                }
            }
        }
        j += 1;
    }
    found.map(|(kind, dot)| GuardLet {
        name,
        kind,
        line,
        dot,
        next: j + 1,
    })
}

/// If the `.` at `i` starts `.lock()`/`.read()`/`.write()` with empty
/// parens, names the acquisition kind.
pub(crate) fn lock_method_at(tokens: &[Token], i: usize) -> Option<&'static str> {
    if !matches!(tokens.get(i), Some(t) if t.is_punct('.')) {
        return None;
    }
    let m = tokens.get(i + 1)?;
    let lk = match m.text.as_str() {
        "lock" => "lock",
        "read" => "read",
        "write" => "write",
        _ => return None,
    };
    if matches!(tokens.get(i + 2), Some(t) if t.is_punct('('))
        && matches!(tokens.get(i + 3), Some(t) if t.is_punct(')'))
    {
        Some(lk)
    } else {
        None
    }
}

/// If `i` points at a `for` whose header acquires a lock, returns
/// `(lock_kind, line, index of the body '{')`.
pub(crate) fn parse_guard_for(tokens: &[Token], i: usize) -> Option<(&'static str, u32, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut kind: Option<&'static str> = None;
    loop {
        let t = tokens.get(j)?;
        if depth == 0 && t.is_punct('{') {
            return kind.map(|k| (k, tokens.get(i).map(|t| t.line).unwrap_or(0), j));
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') {
            return None; // not a for-loop header after all
        }
        if kind.is_none() {
            kind = lock_method_at(tokens, j);
        }
        j += 1;
    }
}

/// If `i` points at the `.` (or `::`-tail ident) of a blocking call,
/// returns the method name.
pub(crate) fn blocking_call_at(tokens: &[Token], i: usize) -> Option<&str> {
    let t = tokens.get(i)?;
    // `.recv(` — method-call style.
    if t.is_punct('.') {
        let m = tokens.get(i + 1)?;
        if m.kind == TokKind::Ident && BLOCKING.contains(&m.text.as_str()) {
            let open = i + 2;
            if matches!(tokens.get(open), Some(t) if t.is_punct('(')) {
                if BLOCKING_NEEDS_EMPTY_ARGS.contains(&m.text.as_str())
                    && !matches!(tokens.get(open + 1), Some(t) if t.is_punct(')'))
                {
                    return None;
                }
                return Some(&m.text);
            }
        }
        return None;
    }
    // `thread::sleep(` — path-call style (sleep only; the rest are
    // methods in practice).
    if t.is_ident("sleep")
        && matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_punct(':'))
        && matches!(tokens.get(i + 1), Some(t) if t.is_punct('('))
    {
        return Some("sleep");
    }
    None
}

// ---------------------------------------------------------------------
// Rule 2: nondeterministic-iteration
// ---------------------------------------------------------------------

/// Function-name fragments that mark a serialization context.
const SER_FN_MARKERS: &[&str] = &["snapshot", "to_json", "emit", "serialize", "serde"];

/// Iterator-producing methods on hash collections.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers that mitigate hash-order nondeterminism downstream.
fn is_mitigation(t: &Token) -> bool {
    (t.kind == TokKind::Ident && t.text.contains("sort"))
        || t.is_ident("BTreeMap")
        || t.is_ident("BTreeSet")
}

/// Runs the nondeterministic-iteration rule.
pub fn nondeterministic_iteration(ctx: &FileCtx) -> Vec<Finding> {
    let hashy = hashy_names(ctx.tokens);
    let mut findings = Vec::new();
    let in_serdes_file = ctx.path.ends_with("/serdes.rs")
        || ctx.path.contains("/serdes/")
        || ctx.path.ends_with("/json.rs");
    let mut i = 0usize;
    while i < ctx.tokens.len() {
        let t = match ctx.tok(i) {
            Some(t) => t,
            None => break,
        };
        if t.is_ident("fn") && !ctx.is_exempt(i) {
            if let Some(name) = ctx.tok(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let lowered = name.text.to_lowercase();
                let target = in_serdes_file || SER_FN_MARKERS.iter().any(|m| lowered.contains(m));
                if target {
                    // Find the body: first `{` after the signature.
                    let mut j = i + 2;
                    let body_open = loop {
                        match ctx.tok(j) {
                            None => break None,
                            Some(t) if t.is_punct('{') => break Some(j),
                            Some(t) if t.is_punct(';') => break None, // trait decl
                            Some(t) if t.is_punct('(') => {
                                j = match_delim(ctx.tokens, j, '(', ')');
                            }
                            Some(_) => j += 1,
                        }
                    };
                    if let Some(open) = body_open {
                        let end = match_delim(ctx.tokens, open, '{', '}');
                        findings.extend(check_ser_body(ctx, &name.text, open, end, &hashy));
                        i = end;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    findings
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type (or
/// initialized from one) anywhere in the file.
fn hashy_names(tokens: &[Token]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // `name: [& mut] HashMap<...>` — field, param or annotated let.
        let mut j = i;
        while j > 0 && matches!(tokens.get(j - 1), Some(p) if p.is_punct('&') || p.is_ident("mut"))
        {
            j -= 1;
        }
        if j >= 2
            && matches!(tokens.get(j - 1), Some(p) if p.is_punct(':'))
            && !matches!(tokens.get(j - 2), Some(p) if p.is_punct(':'))
        {
            if let Some(name) = tokens.get(j - 2).filter(|t| t.kind == TokKind::Ident) {
                out.push(name.text.clone());
                continue;
            }
        }
        // `let [mut] name = HashMap::new()` / `::default()` / `::from(...)`.
        if i >= 2
            && matches!(tokens.get(i - 1), Some(p) if p.is_punct('='))
            && matches!(
                tokens.get(i + 2).map(|t| t.text.as_str()),
                Some("new" | "default" | "with_capacity" | "from")
            )
        {
            if let Some(name) = tokens.get(i - 2).filter(|t| t.kind == TokKind::Ident) {
                out.push(name.text.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Scans one serialization-context function body for unsorted hash
/// iteration.
fn check_ser_body(
    ctx: &FileCtx,
    fn_name: &str,
    open: usize,
    end: usize,
    hashy: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = open;
    while i < end {
        let site = iteration_site(ctx, i, end, hashy);
        if let Some((name, site_idx)) = site {
            // Mitigated if anything from here to the end of the
            // function sorts or rebuilds into an ordered container.
            let mitigated = ctx.tokens[site_idx..end].iter().any(is_mitigation);
            if !mitigated {
                findings.push(ctx.finding(
                    site_idx,
                    ITER_RULE,
                    format!(
                        "`{fn_name}` iterates hash-ordered `{name}` without a downstream \
                         sort/BTreeMap — serialization output depends on hash order"
                    ),
                ));
            }
            i = site_idx + 1;
            continue;
        }
        i += 1;
    }
    findings
}

/// If an iteration over a hash-typed identifier starts at/after `i`,
/// returns `(identifier, site index)`. Two shapes: `name.iter()`-style
/// method chains, and `for pat in […] name {` headers.
fn iteration_site(
    ctx: &FileCtx,
    i: usize,
    end: usize,
    hashy: &[String],
) -> Option<(String, usize)> {
    let t = ctx.tok(i)?;
    if i + 3 < end && t.kind == TokKind::Ident && hashy.iter().any(|h| h == &t.text) {
        // `name . iter (`
        if matches!(ctx.tok(i + 1), Some(p) if p.is_punct('.')) {
            if let Some(m) = ctx.tok(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str())
                    && matches!(ctx.tok(i + 3), Some(p) if p.is_punct('('))
                {
                    return Some((t.text.clone(), i));
                }
            }
        }
    }
    // `for pat in &name {` / `for pat in name {` — the chain's last
    // ident right before the body brace.
    if t.is_ident("for") {
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut last_ident: Option<(String, usize)> = None;
        while j < end {
            let tok = ctx.tok(j)?;
            if depth == 0 && tok.is_punct('{') {
                if let Some((name, at)) = last_ident {
                    if hashy.iter().any(|h| h == &name) {
                        return Some((name, at));
                    }
                }
                return None;
            }
            if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth -= 1;
            } else if tok.is_punct(';') {
                return None;
            }
            if depth == 0 && tok.kind == TokKind::Ident {
                last_ident = Some((tok.text.clone(), j));
            }
            j += 1;
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule 3: wall-clock-in-output
// ---------------------------------------------------------------------

/// Runs the wall-clock rule. `allowed` is the module allowlist from
/// `lint-budget.toml` (path prefixes/substrings).
pub fn wall_clock(ctx: &FileCtx, allowed: &[String]) -> Vec<Finding> {
    if allowed.iter().any(|p| ctx.path.contains(p.as_str())) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_exempt(i) {
            continue;
        }
        if t.is_ident("SystemTime") {
            findings.push(
                ctx.finding(
                    i,
                    WALL_CLOCK_RULE,
                    "`SystemTime` outside the telemetry allowlist — wall-clock time must not \
                 reach deterministic outputs"
                        .to_string(),
                ),
            );
        }
        if t.is_ident("Instant")
            && matches!(ctx.tok(i + 1), Some(p) if p.is_punct(':'))
            && matches!(ctx.tok(i + 2), Some(p) if p.is_punct(':'))
            && matches!(ctx.tok(i + 3), Some(n) if n.is_ident("now"))
        {
            findings.push(
                ctx.finding(
                    i,
                    WALL_CLOCK_RULE,
                    "`Instant::now` outside the telemetry allowlist — wall-clock reads leak \
                 nondeterminism into pure stages"
                        .to_string(),
                ),
            );
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 4: unseeded-randomness
// ---------------------------------------------------------------------

/// RNG constructors that consult ambient entropy instead of a seed.
const UNSEEDED: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// Runs the unseeded-randomness rule.
pub fn unseeded_randomness(ctx: &FileCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_exempt(i) || t.kind != TokKind::Ident {
            continue;
        }
        if !UNSEEDED.contains(&t.text.as_str()) {
            continue;
        }
        // A definition (`fn thread_rng(`) is not a use.
        if matches!(ctx.tok(i.wrapping_sub(1)), Some(p) if p.is_ident("fn")) {
            continue;
        }
        findings.push(ctx.finding(
            i,
            RNG_RULE,
            format!(
                "`{}` draws from ambient entropy — every RNG here must be constructed \
                 from an explicit committed seed (`seed_from_u64`)",
                t.text
            ),
        ));
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 5: panic-budget
// ---------------------------------------------------------------------

/// Counts panic-capable sites in non-test code.
pub fn panic_counts(ctx: &FileCtx) -> PanicCounts {
    let mut counts = PanicCounts::default();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_exempt(i) {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let called = matches!(ctx.tok(i + 1), Some(p) if p.is_punct('('));
                let method = matches!(ctx.tok(i.wrapping_sub(1)), Some(p) if p.is_punct('.'));
                match t.text.as_str() {
                    "unwrap" if called && method => counts.unwrap += 1,
                    "expect" if called && method => counts.expect += 1,
                    "panic" | "unreachable" | "todo" | "unimplemented" if matches!(ctx.tok(i + 1), Some(p) if p.is_punct('!')) =>
                    {
                        counts.panics += 1;
                    }
                    _ => {}
                }
            }
            TokKind::Punct if t.is_punct('[') => {
                // Indexing: `expr[` where expr ends in an identifier,
                // `)` or `]`. Attributes (`#[`), macros (`vec![`) and
                // type positions (`: [u8; 4]`) do not match.
                if matches!(
                    ctx.tok(i.wrapping_sub(1)),
                    Some(p) if p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']')
                ) {
                    counts.index += 1;
                }
            }
            _ => {}
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;

    fn ctx_findings(src: &str, rule: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let exempt = test_ranges(&lexed.tokens);
        let ctx = FileCtx {
            path: "crates/demo/src/lib.rs",
            tokens: &lexed.tokens,
            exempt: &exempt,
        };
        match rule {
            // The guard rule runs in the workspace phase only.
            GUARD_RULE => {
                let sources = [("crates/demo/src/lib.rs".to_string(), src.to_string())];
                let report = crate::run_sources(&sources, &Config::default());
                report
                    .findings
                    .into_iter()
                    .filter(|f| f.rule == rule)
                    .collect()
            }
            ITER_RULE => nondeterministic_iteration(&ctx),
            WALL_CLOCK_RULE => wall_clock(&ctx, &[]),
            RNG_RULE => unseeded_randomness(&ctx),
            _ => Vec::new(),
        }
    }

    #[test]
    fn condvar_consuming_wait_is_exempt() {
        let src = "
            fn pop(&self) {
                let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    state = self.cond.wait(state).unwrap_or_else(|p| p.into_inner());
                }
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn recv_under_guard_is_flagged() {
        let src = "
            fn dequeue(&self) {
                let rx = self.rx.lock().unwrap();
                let job = rx2.recv();
            }
        ";
        let f = ctx_findings(src, GUARD_RULE);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`rx`"));
    }

    #[test]
    fn blocking_on_the_guard_itself_is_exempt() {
        let src = "
            fn send(&self) {
                let mut w = self.writer.lock().unwrap();
                w.write_all(b);
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "
            fn f(&self) {
                let g = self.m.lock().unwrap();
                drop(g);
                other.recv();
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn scope_end_releases_the_guard() {
        let src = "
            fn f(&self) {
                { let g = self.m.lock().unwrap(); }
                other.recv();
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn mid_expression_lock_is_not_a_guard_binding() {
        // The guard is a temporary inside mem::take — gone by the end
        // of the statement, so the later join is fine.
        let src = "
            fn f(&self) {
                let threads = std::mem::take(&mut *self.t.lock().unwrap());
                for h in threads { h.join(); }
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn path_join_is_not_blocking() {
        let src = "
            fn f(&self) {
                let g = self.m.lock().unwrap();
                let p = dir.join(name);
            }
        ";
        assert!(ctx_findings(src, GUARD_RULE).is_empty());
    }

    #[test]
    fn thread_join_under_guard_is_flagged() {
        let src = "
            fn f(&self) {
                let mut threads = self.t.lock().unwrap();
                for h in threads.drain(..) { h.join(); }
            }
        ";
        assert_eq!(ctx_findings(src, GUARD_RULE).len(), 1);
    }

    #[test]
    fn for_loop_over_lock_temporary_flags_blocking_body() {
        let src = "
            fn f(&self) {
                for h in self.t.lock().unwrap().drain() { h.join(); }
            }
        ";
        assert_eq!(ctx_findings(src, GUARD_RULE).len(), 1);
    }

    #[test]
    fn unsorted_hash_iteration_in_snapshot_fn_is_flagged() {
        let src = "
            struct S { items: HashMap<String, u64> }
            impl S {
                fn snapshot(&self) -> Vec<u64> {
                    self.items.values().copied().collect()
                }
                fn lookup(&self) -> usize { self.items.len() }
            }
        ";
        let f = ctx_findings(src, ITER_RULE);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("items"));
    }

    #[test]
    fn sorted_hash_iteration_is_clean() {
        let src = "
            struct S { items: HashMap<String, u64> }
            impl S {
                fn snapshot(&self) -> Vec<u64> {
                    let mut v: Vec<u64> = self.items.values().copied().collect();
                    v.sort();
                    v
                }
            }
        ";
        assert!(ctx_findings(src, ITER_RULE).is_empty());
    }

    #[test]
    fn for_over_hash_field_in_ser_fn_is_flagged() {
        let src = "
            struct S { targets: HashMap<String, u64> }
            impl S {
                fn emit(&self) {
                    for (k, v) in &self.targets { go(k, v); }
                }
            }
        ";
        assert_eq!(ctx_findings(src, ITER_RULE).len(), 1);
    }

    #[test]
    fn non_ser_functions_are_not_checked() {
        let src = "
            struct S { items: HashMap<String, u64> }
            impl S {
                fn tally(&self) -> u64 { self.items.values().sum() }
            }
        ";
        assert!(ctx_findings(src, ITER_RULE).is_empty());
    }

    #[test]
    fn wall_clock_and_rng_flag_outside_allowlist() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        assert_eq!(ctx_findings(src, WALL_CLOCK_RULE).len(), 1);
        assert_eq!(ctx_findings(src, RNG_RULE).len(), 1);
    }

    #[test]
    fn wall_clock_allowlist_path_match() {
        let lexed = lex("fn f() { let t = Instant::now(); }");
        let ctx = FileCtx {
            path: "crates/maya-obs/src/span.rs",
            tokens: &lexed.tokens,
            exempt: &[],
        };
        assert!(wall_clock(&ctx, &["crates/maya-obs/".to_string()]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn helper() { let t = Instant::now(); let r = thread_rng(); x.unwrap(); }
            }
            #[test]
            fn t() { y.unwrap(); }
        ";
        assert!(ctx_findings(src, WALL_CLOCK_RULE).is_empty());
        assert!(ctx_findings(src, RNG_RULE).is_empty());
        let lexed = lex(src);
        let exempt = test_ranges(&lexed.tokens);
        let ctx = FileCtx {
            path: "x.rs",
            tokens: &lexed.tokens,
            exempt: &exempt,
        };
        assert_eq!(panic_counts(&ctx).total(), 0);
    }

    #[test]
    fn panic_counting() {
        let src = "
            fn f(v: &[u8], m: std::collections::HashMap<u8, u8>) {
                v.get(0).unwrap();
                m.get(&1).expect(\"present\");
                let x = v[0];
                let y = v[1..3];
                let t: [u8; 4] = [0; 4];
                let w = vec![1, 2];
                #[derive(Debug)]
                struct Z;
                if bad { panic!(\"no\"); }
                unwrap_or_else(|| 0);
            }
        ";
        let lexed = lex(src);
        let ctx = FileCtx {
            path: "x.rs",
            tokens: &lexed.tokens,
            exempt: &[],
        };
        let c = panic_counts(&ctx);
        assert_eq!(c.unwrap, 1);
        assert_eq!(c.expect, 1);
        assert_eq!(c.panics, 1);
        assert_eq!(
            c.index, 2,
            "v[0] and v[1..3]; not types, not vec!, not #[..]"
        );
    }
}
