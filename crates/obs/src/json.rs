//! A minimal hand-rolled JSON writer and parser — just enough for the
//! JSONL trace format and its round-trip tests, with zero dependencies.
//!
//! The writer escapes strings per RFC 8259 and renders floats in
//! exponent notation (Rust's shortest round-trip form), emitting `null`
//! for non-finite values (JSON has no NaN/∞). The parser is a strict
//! recursive-descent reader for the full value grammar, with nesting
//! capped at [`MAX_DEPTH`] so untrusted input cannot exhaust the stack.

/// Deepest array/object nesting [`Value::parse`] accepts. The deepest
/// document the tree reads (a reach JSON's `reach.queries[]` objects) is
/// four levels down.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float in shortest round-trip exponent form, or `null` when
/// non-finite.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        out.push_str(&format!("{x:e}"));
    } else {
        out.push_str("null");
    }
}

/// A parse failure: byte offset plus a static reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Numbers are `f64` (the trace format keeps
/// integers within the exact range and ships checksums as hex strings,
/// so nothing precision-critical rides on a double).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 64 levels"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let s = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err("bad \\u escape digits"))?;
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 char; the input is a &str so the
                    // byte stream is valid by construction
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty input"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii by construction");
        text.parse::<f64>().map(Value::Num).map_err(|_| JsonError {
            offset: start,
            reason: "malformed number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_floats_round_trip() {
        let mut s = String::new();
        write_str("a\"b\\c\nd\u{1}e", &mut s);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001e\"");
        let parsed = Value::parse(&s).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\u{1}e"));

        for x in [0.0, 1.0, -2.5, 1e-300, 6.02e23, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(x, &mut out);
            let back = Value::parse(&out).expect("number parses");
            assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()));
        }
        let mut nan = String::new();
        write_f64(f64::NAN, &mut nan);
        assert_eq!(nan, "null");
    }

    #[test]
    fn parser_reads_nested_documents() {
        let v = Value::parse(r#"{"a":[1,2.5e-1,true,null],"b":{"c":"x"}}"#).expect("parses");
        let arr = match v.get("a") {
            Some(Value::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].as_f64(), Some(0.25));
        assert_eq!(arr[2], Value::Bool(true));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x")
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        let deep = "[".repeat(500_000);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "nul",
            "{\"a\" 1}",
            &deep,
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Value::parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // The cap sits above the deepest well-formed document, not at it.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
    }
}
