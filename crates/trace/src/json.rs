//! JSON for every document the workspace writes or reads: one
//! recursive-descent parser for the full RFC 8259 grammar and one
//! string escaper.
//!
//! No JSON crate is available offline. Writers (`trace_run`,
//! `telemetry_report`, `profile_report`) [`check`] each document before
//! they exit 0; the analyzer walks the tree [`parse`] builds. Numbers
//! keep their literal text ([`Value::Num`]) so exact fixed-point
//! timestamps (`ts` in microseconds with three decimals = whole
//! nanoseconds) survive the round-trip without any float in the path.

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text for exact reparsing.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The literal number text, if this is a number.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Value::Num(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it has integer form.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|s| s.parse::<u64>().ok())
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document. Exactly one top-level value is allowed.
pub fn parse(input: &str) -> Result<Value, String> {
    Parser::new(input, true).document()
}

/// Checks that `input` is one JSON document by the grammar of
/// [`parse`], without building the tree: arrays and objects drop each
/// element once it is parsed, so what the check holds is bounded by the
/// nesting depth, not by the document's size.
pub fn check(input: &str) -> Result<(), String> {
    Parser::new(input, false).document().map(drop)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Whether arrays and objects keep their elements ([`parse`]) or
    /// drop them ([`check`]).
    keep: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, keep: bool) -> Self {
        Parser { text, pos: 0, keep }
    }

    fn document(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing data after top-level value"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if self.keep {
                members.push((key, val));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if self.keep {
                items.push(item);
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one slice. It ends at
            // an ASCII byte, so it is whole UTF-8 characters of the input.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // RFC 8259: the integer part is `0` or starts with 1-9, so a
        // leading zero ends it ("01" leaves trailing data and fails).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digits")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "0",
            "-0.5e+10",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null}"#,
            "  [1, 2, 3]  ",
            r#""é""#,
        ] {
            assert!(parse(ok).is_ok(), "parse should accept {ok:?}");
            assert_eq!(check(ok), Ok(()), "check should accept {ok:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "-01",
            "[01]",
            "1.",
            "1e",
            "\"unterminated",
            "[1] []",
            "{'a':1}",
            "nul",
            "tru",
            "1 2",
            "\"\\q\"",
        ] {
            let err = parse(bad).expect_err("parse should reject");
            assert_eq!(check(bad), Err(err), "check should reject {bad:?} alike");
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a":[1,2.5,null,true,"x\n\u0041"],"b":{"c":-3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[4].as_str(),
            Some("x\nA")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some("-3"));
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn escape_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let raw = "x\"\n\\\u{2}";
        let v = parse(&format!("\"{}\"", escape(raw))).unwrap();
        assert_eq!(v.as_str(), Some(raw));
    }
}
