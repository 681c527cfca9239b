//! A dependency-free JSON reader.
//!
//! The repository's benchmark (`benchmark/`, a standalone workspace;
//! see `benchmark/README.md`) parses its own result lines and
//! `BENCHMARK.json` through `maya_bench::perf::json`, which is why the
//! module keeps this path.

/// A small strict JSON reader — just enough to structurally validate a
/// result file without a dependency. Numbers become `f64`; objects keep
/// insertion order.
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in source order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.lit("true", Value::Bool(true)),
                b'f' => self.lit("false", Value::Bool(false)),
                b'n' => self.lit("null", Value::Null),
                _ => self.number(),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                                let cp =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(cp).ok_or("surrogate \\u escape unsupported")?,
                                );
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                    }
                    _ => {
                        // Re-walk the char boundary for multi-byte UTF-8.
                        let start = self.pos - 1;
                        let s = std::str::from_utf8(&self.bytes[start..])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
            s.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json;

    #[test]
    fn json_parser_round_trips_nesting() {
        let v =
            json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\" é"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            json::Value::Num(-300.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\n\"y\" é"
        );
        assert_eq!(v.get("d"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&json::Value::Null));
        assert!(json::parse("{\"a\": 1,}").is_err());
        assert!(json::parse("[1, 2] trailing").is_err());
    }
}
