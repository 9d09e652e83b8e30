//! The one JSON reader and string escaper of this crate.
//!
//! No JSON library exists in the container. [`chrome::validate`] (the
//! trace-export check) and [`profile_json`] (the `TILEQR_PROFILE` store)
//! both read bytes the process did not write, so they share this strict
//! recursive-descent parser: RFC 8259 grammar, nesting bounded at
//! [`MAX_DEPTH`] so a hostile file is an `Err` and not a stack overflow,
//! raw control characters in strings and trailing bytes rejected.
//!
//! [`chrome::validate`]: crate::chrome::validate
//! [`profile_json`]: crate::profile_json

use std::fmt::Write as _;

/// Deepest accepted nesting of arrays/objects (the document root is 1).
const MAX_DEPTH: usize = 256;

/// A parsed JSON value. Booleans carry no payload: no schema here reads
/// one.
pub(crate) enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `s` with the characters JSON forbids inside a string escaped (no
/// surrounding quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse `text` as exactly one JSON document.
pub(crate) fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text,
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// After the opening bracket: either `close` (empty container) or
    /// `item (',' item)* close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"`, `\` and control bytes are ASCII, so the run before one
            // ends on a character boundary of the (valid UTF-8) input.
            let run = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape_char()?);
                }
                Some(_) => return Err(self.err("raw control char in string")),
            }
        }
    }

    /// The character an escape sequence stands for (the backslash is
    /// consumed already). A `\u` escape naming a lone surrogate reads as
    /// U+FFFD.
    fn escape_char(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .s
                    .get(self.i + 1..self.i + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.i += 4;
                char::from_u32(hex).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        };
        self.i += 1;
        Ok(c)
    }

    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        self.digits("number needs digits")?;
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits("fraction needs digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits("exponent needs digits")?;
        }
        self.s[start..self.i]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    /// A loadable store document carrying the raw JSON `value` in a field
    /// the schema ignores, so only the grammar decides whether it loads.
    fn store_with(value: &str) -> String {
        format!(
            "{{\"profiles\": [{{\"key\": \"k\", \"name\": \"n\", \"kind\": \"cpu\", \"cores\": 1, \
             \"times\": {{\"triangulation\": {{\"c0\": 1, \"c1\": 0, \"c2\": 0}}, \
             \"elimination\": {{\"c0\": 1, \"c1\": 0, \"c2\": 0}}, \
             \"update\": {{\"c0\": 1, \"c1\": 0, \"c2\": 0}}}}, \"ignored\": {value}}}]}}"
        )
    }

    #[test]
    fn accept_reject_table() {
        let accepted = [
            "1",
            "-0.5e+3",
            "1E2",
            "\"\\b\\f\\n\\r\\t\\/\\\\\\\"\\u00e9\"",
            "[1]",
            "{\"a\":1}",
            " [ ] ",
            "{}",
            "null",
        ];
        for good in accepted {
            assert!(parse(good).is_ok(), "rejected: {good}");
            assert!(crate::chrome::validate(good).is_ok(), "{good}");
            assert!(
                crate::ProfileStore::from_json(&store_with(good)).is_ok(),
                "{good}"
            );
        }
        assert!(matches!(parse("\"\\b\\f\"").unwrap(), Json::Str(s) if s == "\u{8}\u{c}"));
        assert!(parse(&nested(255)).is_ok());
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let malformed = [
            "+1",
            "1.",
            "1e",
            "-",
            ".5",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"raw \u{1} control\"",
            "\"unterminated",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "1 2",
            "{} trailing",
            "",
            "tru",
            &nested(257),
        ];
        for bad in malformed {
            assert!(parse(bad).is_err(), "accepted: {bad:.40}");
            assert!(crate::chrome::validate(bad).is_err(), "{bad:.40}");
            assert!(crate::ProfileStore::from_json(bad).is_err(), "{bad:.40}");
            let doc = store_with(bad);
            assert!(crate::chrome::validate(&doc).is_err(), "{bad:.40}");
            assert!(crate::ProfileStore::from_json(&doc).is_err(), "{bad:.40}");
        }
    }
}
