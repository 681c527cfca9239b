//! A small comment- and string-aware Rust token scanner.
//!
//! This is deliberately *not* a parser: the rules in [`crate::rules`]
//! work on flat token sequences plus brace depth, which is enough to
//! express every invariant the workspace enforces (guard scopes,
//! iteration sites, call patterns) without a grammar. The scanner's
//! job is the part naive `grep` gets wrong: skipping the inside of
//! string/char literals and comments, handling raw strings and nested
//! block comments, telling lifetimes from char literals, and keeping
//! accurate line numbers for every token.
//!
//! Suppression comments are recognized here (they live in trivia the
//! rules never see): `// lint:allow(<rule>): <reason>` — the reason is
//! mandatory, and a suppression without one is reported as a finding
//! by the engine rather than silently honored.

/// What a token is. The scanner keeps literal *content* for strings
/// and numbers but drops it for chars and lifetimes — no rule looks
/// inside those.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `fn`, `lock`, ...).
    Ident,
    /// One punctuation character (`.`, `(`, `{`, `!`, ...). Multi-char
    /// operators arrive as consecutive single-char tokens.
    Punct,
    /// String literal (regular, raw, byte or byte-raw); `text` holds
    /// the raw content between the quotes, escapes unprocessed.
    Str,
    /// Char or byte literal, content dropped.
    Char,
    /// Numeric literal; `text` holds the raw digits/suffix.
    Num,
    /// A lifetime (`'a`), name dropped.
    Lifetime,
}

/// One scanned token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token's kind.
    pub kind: TokKind,
    /// The token text: the identifier itself, the punctuation
    /// character, string/number content, or empty for chars and
    /// lifetimes.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// One parsed `lint:allow` suppression comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the comment sits on. The suppression covers this
    /// line and the next (so both trailing and preceding-line comment
    /// styles work).
    pub line: u32,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// The mandatory human reason after the colon.
    pub reason: String,
}

/// The scanner's output for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, trivia removed.
    pub tokens: Vec<Token>,
    /// Well-formed suppression comments.
    pub allows: Vec<Allow>,
    /// Lines carrying a `lint:allow` marker that failed to parse
    /// (missing rule or missing reason), with a description.
    pub bad_allows: Vec<(u32, String)>,
    /// Total lines in the file.
    pub lines: u32,
}

/// Scans `source` into tokens and suppression comments.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run(source)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: &str, line: u32) {
        self.out.tokens.push(Token {
            kind,
            text: text.to_string(),
            line,
        });
    }

    fn run(mut self, source: &str) -> Lexed {
        while self.pos < self.src.len() {
            let line = self.line;
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'r' if self.peek(1) == b'"' || self.peek(1) == b'#' => {
                    if let Some(text) = self.raw_string_at(1) {
                        self.push(TokKind::Str, &text, line);
                    } else {
                        self.ident();
                    }
                }
                b'b' if self.peek(1) == b'"' => {
                    self.bump();
                    self.string();
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.bump();
                    self.char_lit();
                }
                b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                    if let Some(text) = self.raw_string_at(2) {
                        self.push(TokKind::Str, &text, line);
                    } else {
                        self.ident();
                    }
                }
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.ident(),
                _ => {
                    self.bump();
                    // Multi-byte UTF-8 only occurs inside comments,
                    // strings and doc text in this workspace; stray
                    // non-ASCII is skipped, ASCII punctuation kept.
                    if b.is_ascii() {
                        let c = b as char;
                        self.push(TokKind::Punct, c.encode_utf8(&mut [0u8; 4]), line);
                    }
                }
            }
        }
        self.out.lines = self.line;
        let _ = source;
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        // Suppressions live in plain `//` comments only. Doc comments
        // (`///`, `//!`) are prose — they may *mention* the allow
        // syntax (this file does) without invoking it.
        let is_doc = text.starts_with("///") || text.starts_with("//!");
        if !is_doc {
            if let Some(at) = text.find("lint:allow") {
                self.parse_allow(&text[at..], line);
            }
        }
    }

    /// Parses `lint:allow(<rule>): <reason>` starting at the marker.
    fn parse_allow(&mut self, text: &str, line: u32) {
        let rest = &text["lint:allow".len()..];
        let Some(open) = rest.find('(') else {
            self.out
                .bad_allows
                .push((line, "lint:allow needs a (rule) argument".to_string()));
            return;
        };
        let Some(close) = rest.find(')') else {
            self.out
                .bad_allows
                .push((line, "unclosed lint:allow(rule)".to_string()));
            return;
        };
        if close < open {
            self.out
                .bad_allows
                .push((line, "malformed lint:allow(rule)".to_string()));
            return;
        }
        let rule = rest[open + 1..close].trim().to_string();
        if rule.is_empty() {
            self.out
                .bad_allows
                .push((line, "empty rule in lint:allow()".to_string()));
            return;
        }
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            self.out.bad_allows.push((
                line,
                format!("lint:allow({rule}) without a reason — append `: <why>`"),
            ));
            return;
        }
        self.out.allows.push(Allow {
            line,
            rule,
            reason: reason.to_string(),
        });
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        let mut end = self.src.len();
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'"' => {
                    end = self.pos - 1;
                    break;
                }
                _ => {}
            }
        }
        let text = self.text_between(start, end);
        self.push(TokKind::Str, &text, line);
    }

    /// Source text in `start..end` as a string, empty when the range
    /// is out of bounds or not UTF-8.
    fn text_between(&self, start: usize, end: usize) -> String {
        self.src
            .get(start..end)
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .unwrap_or_default()
    }

    /// Tries to consume a raw string whose `r` sits at `self.pos` and
    /// whose hashes/quote start `offset` bytes later. Returns the
    /// content (consuming nothing on `None`) — `None` means it is not
    /// actually a raw string, e.g. the identifier `r#loop` (a raw
    /// identifier) or plain `r#` usage.
    fn raw_string_at(&mut self, offset: usize) -> Option<String> {
        let mut hashes = 0usize;
        while self.peek(offset + hashes) == b'#' {
            hashes += 1;
        }
        if self.peek(offset + hashes) != b'"' {
            return None;
        }
        for _ in 0..offset + hashes + 1 {
            self.bump();
        }
        let start = self.pos;
        // Scan for `"` followed by `hashes` hashes. An unterminated
        // raw string ends at EOF.
        let mut end = self.src.len();
        while self.pos < self.src.len() {
            if self.bump() == b'"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == b'#' {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    end = self.pos - 1 - hashes;
                    break;
                }
            }
        }
        Some(self.text_between(start, end))
    }

    fn char_lit(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Char, "", line);
    }

    /// A `'` is a lifetime when followed by an identifier that is not
    /// itself closed by another `'` (`'a` vs `'a'`).
    fn quote(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let ident_start = next == b'_' || next.is_ascii_alphabetic();
        if ident_start {
            // Find the end of the would-be lifetime name.
            let mut n = 2usize;
            while {
                let b = self.peek(n);
                b == b'_' || b.is_ascii_alphanumeric()
            } {
                n += 1;
            }
            if self.peek(n) != b'\'' {
                // A lifetime (or a label): consume quote + name.
                for _ in 0..n {
                    self.bump();
                }
                self.push(TokKind::Lifetime, "", line);
                return;
            }
        }
        self.char_lit();
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump();
        loop {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                // Decimal point, not a method call on a literal.
                self.bump();
            } else {
                break;
            }
        }
        let text = self.text_between(start, self.pos);
        self.push(TokKind::Num, &text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.out.tokens.push(Token {
            kind: TokKind::Ident,
            text,
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // Instant::now in a comment
            /* HashMap in /* a nested */ block */
            let s = "Instant::now() .lock() .recv()";
            let r = r#"thread_rng() "quoted" inside"#;
            let c = '\'';
            let real = lock;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"lock".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"recv".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> MutexGuard<'q, T> { 'x' }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 3, "'a twice plus 'q");
        assert_eq!(chars, 1, "'x' once");
    }

    #[test]
    fn line_numbers_track() {
        let toks = lex("a\nb\n\nc").tokens;
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn allow_comments_parse() {
        let lexed = lex(
            "x(); // lint:allow(wall-clock-in-output): telemetry timestamps\n\
             y(); // lint:allow(panic-budget)\n\
             z(); // lint:allow(): no rule\n",
        );
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].rule, "wall-clock-in-output");
        assert_eq!(lexed.allows[0].reason, "telemetry timestamps");
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.bad_allows.len(), 2, "missing reason + empty rule");
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = lex("1.0f64; x.lock(); 2.min(3)").tokens;
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["x", "lock", "min"]);
    }
}
