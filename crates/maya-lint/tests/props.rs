//! Property-based robustness proofs for the analyzer front end.
//!
//! The lexer, item indexer, call-graph builder, and both phase-2
//! checkers run over every file in the workspace on every CI build, so
//! they must never panic — not on truncated source, not on garbage
//! bytes, not on token streams no rustc would accept. Three
//! generators probe that:
//!
//! 1. arbitrary unicode (anything a file could contain),
//! 2. "rust-ish" token soup biased toward the shapes the parsers
//!    dispatch on (`fn`, `impl`, `struct`, delimiters, `lock()`...),
//!    which reaches far deeper into the item/call-graph code paths
//!    than uniform noise,
//! 3. truncations of a valid file (mid-item EOF handling).

use maya_lint::config::Config;
use maya_lint::run_sources;
use proptest::collection::vec;
use proptest::prelude::*;

/// Full two-phase scan; the property is simply "returns".
fn scan(src: &str) {
    let sources = vec![("crates/fuzz/src/lib.rs".to_string(), src.to_string())];
    let report = run_sources(&sources, &Config::default());
    // Touch the outputs so the scan cannot be optimized away.
    let _ = (report.findings.len(), report.suppressed.len());
}

/// Arbitrary unicode text: raw codepoints with the surrogate gap
/// filtered out by `char::from_u32`.
fn unicode() -> impl Strategy<Value = String> {
    vec(0u32..0x11_0000, 0..600)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Fragments the rust-ish generator stitches together. Heavy on the
/// tokens the item indexer and guard automaton dispatch on, including
/// deliberately unbalanced delimiters.
const FRAGMENTS: &[&str] = &[
    "fn",
    "impl",
    "struct",
    "trait",
    "for",
    "let",
    "mut",
    "const",
    "if",
    "else",
    "match",
    "drop",
    "self",
    "Self",
    "where",
    "move",
    "loop",
    "while",
    "return",
    "u16",
    "u32",
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "Vec",
    "VERSION",
    "MIN_VERSION",
    "version",
    "serialize",
    "deserialize",
    "raw_token",
    "tag",
    "serde",
    "Serialize",
    "Deserialize",
    "Reader",
    "Writer",
    "lock",
    "read",
    "write",
    "recv",
    "wait",
    "join",
    "unwrap",
    "expect",
    "encode_x",
    "decode_x",
    "a",
    "b",
    "g",
    "x",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    "::",
    ":",
    ";",
    ",",
    ".",
    "&",
    "=",
    "=>",
    "->",
    "|",
    "#",
    "'a",
    "'",
    "\"",
    "\"str\"",
    "r#\"raw\"#",
    "// c\n",
    "// lint:allow(panic-budget): p\n",
    "/* b */",
    "0",
    "17",
    "1.5",
    "_",
];

fn rustish() -> impl Strategy<Value = String> {
    vec(0usize..FRAGMENTS.len(), 0..256).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|i| FRAGMENTS.get(i).copied())
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// A valid-looking file exercising every item shape, used for the
/// truncation property.
const WHOLE: &str = r#"
use std::sync::{Condvar, Mutex, MutexGuard};
use serde::{compact, Deserialize, Reader, Serialize, Writer};

pub const VERSION: u16 = 3;
pub const MIN_VERSION: u16 = 1;

pub struct Queue {
    state: Mutex<u32>,
    aux: Mutex<u32>,
    ready: Condvar,
}

impl Queue {
    pub fn lock(&self) -> MutexGuard<'_, u32> {
        self.state.lock().unwrap()
    }

    pub fn pump(&self) {
        let mut g = self.lock();
        g = self.ready.wait(g).unwrap();
        let a = self.aux.lock().unwrap();
        drop(a);
        drop(g);
    }
}

impl Serialize for Queue {
    fn serialize(&self, w: &mut Writer) {
        w.tag("queue");
    }
}

impl<'de> Deserialize<'de> for Queue {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, compact::Error> {
        match r.raw_token()? {
            "queue" => Ok(Queue::default()),
            t => Err(compact::Error::parse(t, "queue")),
        }
    }
}

pub fn decode_extra(r: &mut Reader<'_>, version: u16) -> Result<Option<u32>, compact::Error> {
    if version >= 2 {
        Ok(Some(u32::deserialize(r)?))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], 1);
    }
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_unicode_never_panics(src in unicode()) {
        scan(&src);
    }

    #[test]
    fn rustish_token_soup_never_panics(src in rustish()) {
        scan(&src);
    }

    #[test]
    fn truncated_valid_source_never_panics(cut in 0usize..WHOLE.len()) {
        // Cut at the nearest char boundary at-or-below `cut`.
        let mut at = cut;
        while !WHOLE.is_char_boundary(at) {
            at -= 1;
        }
        scan(WHOLE.get(..at).unwrap_or(""));
    }
}
