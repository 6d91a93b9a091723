//! A dependency-free JSON value: deterministic writer plus a strict
//! recursive-descent parser.
//!
//! The workspace builds offline with zero external crates, so the run
//! manifests ([`crate::manifest`]) and their CI validation both go
//! through this module. Design points:
//!
//! - **Deterministic output** — object members keep insertion order,
//!   numbers that are mathematically integral print without a decimal
//!   point, and floats print via Rust's shortest-roundtrip `{}` — so a
//!   manifest diff between a serial and a parallel run is a byte diff.
//! - **Round-trip** — `parse(render(v)) == v` for every value this
//!   module can produce (property-tested in `tests/json_roundtrip.rs`).
//! - The parser accepts any standard JSON document (it exists to
//!   validate our own artifacts in CI, but is not limited to them);
//!   numbers are kept as `f64`, matching how the manifests are written.
//! - **Cheap to build** — keys and strings are `Cow<'static, str>`, so
//!   a member named by a literal, or a fixed label, allocates nothing.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers print without a decimal point).
    Num(f64),
    /// A string.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved (and rendered) as inserted.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object (panics on non-objects — a
    /// programming error in manifest construction).
    pub fn set(&mut self, key: impl Into<Cow<'static, str>>, value: Json) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.into(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`set`](Json::set).
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Member lookup on objects (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable member lookup on objects (`None` on other variants).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(Cow::Owned(s.into()))
    }

    /// A fixed string value (a label, a schema id), borrowed rather
    /// than copied.
    pub fn label(s: &'static str) -> Json {
        Json::Str(Cow::Borrowed(s))
    }

    /// Shorthand for a `u64` counter (exact below 2^53, like every
    /// counter we export).
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Renders with two-space indentation and a trailing newline —
    /// stable, diffable output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// [`render`](Json::render) of this object with member `key`'s
    /// value read as `value`: the bytes of the edited copy, without
    /// making it. Other values render as themselves.
    pub fn render_replacing(&self, key: &str, value: &Json) -> String {
        let Json::Obj(members) = self else {
            return self.render();
        };
        let mut out = String::new();
        let members = members
            .iter()
            .map(|(k, v)| (k, if k == key { value } else { v }));
        write_members(&mut out, members, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => write_members(out, members.iter().map(|(k, v)| (k, v)), depth),
        }
    }

    /// Renders on a single line with no indentation or trailing newline
    /// — the JSONL form used by the `gvf.events` stream, where each
    /// event must occupy exactly one line. Same determinism rules as
    /// [`render`](Json::render), and `parse(render_compact(v)) == v`.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (exactly one value plus whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

fn write_members<'a>(
    out: &mut String,
    members: impl ExactSizeIterator<Item = (&'a Cow<'static, str>, &'a Json)>,
    depth: usize,
) {
    if members.len() == 0 {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (i, (k, v)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        indent(out, depth + 1);
        write_str(out, k);
        out.push_str(": ");
        v.write(out, depth + 1);
    }
    out.push('\n');
    indent(out, depth);
    out.push('}');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; our counters never produce them, but a
        // derived ratio of a degenerate run could. Null is the honest
        // encoding.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        write_int(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `n` in decimal, as `{}` prints it, without the formatting machinery.
fn write_int(out: &mut String, n: i64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut m = n.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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
    out.push('"');
}

/// A parse failure: byte offset plus a short message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements of the arrays being parsed, innermost last; each array
    /// moves its own off the top in one exact-size allocation.
    items: Vec<Json>,
    /// The same for object members.
    members: Vec<(Cow<'static, str>, Json)>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into())),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let base = self.members.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key.into(), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.members.drain(base..).collect()));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        // Fast path: a string with nothing to unescape is one slice.
        let rest = &self.bytes[self.pos..];
        if let Some(len) = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        {
            if rest[len] == b'"' {
                let s = std::str::from_utf8(&rest[..len]).expect("utf8");
                self.pos += len + 1;
                return Ok(s.to_string());
            }
        }
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must be
                            // followed by a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("utf8"));
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        let digits_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
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
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        // Fast path: up to 15 digits and no fraction or exponent is an
        // integer that f64 holds exactly.
        if self.pos == digits_end && digits_end - digits_start <= 15 {
            let digits = &self.bytes[digits_start..digits_end];
            let m = digits.iter().fold(0u64, |m, &d| m * 10 + (d - b'0') as u64) as f64;
            return Ok(Json::Num(if digits_start > start { -m } else { m }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8 number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_integers_without_decimal() {
        let v = Json::obj()
            .with("cycles", Json::num_u64(123456))
            .with("rate", Json::Num(0.5));
        let text = v.render();
        assert!(text.contains("\"cycles\": 123456"));
        assert!(text.contains("\"rate\": 0.5"));
        assert!(!text.contains("123456.0"));
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj()
            .with("s", Json::str("he\"llo\\\n\tworld"))
            .with("n", Json::Num(-12.75))
            .with("big", Json::num_u64(1 << 52))
            .with(
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            )
            .with("empty_arr", Json::Arr(vec![]))
            .with("empty_obj", Json::obj())
            .with("nested", Json::obj().with("k", Json::str("v")));
        let text = v.render();
        assert_eq!(Json::parse(&text).expect("parse"), v);
    }

    #[test]
    fn parses_standard_json() {
        let v = Json::parse(r#"{"a": [1, 2.5e2, -3], "b": "\u0041\ud83d\ude00", "c": null}"#)
            .expect("parse");
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(250.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("A😀"));
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "01a",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let v = Json::obj()
            .with("ev", Json::str("cellFinished"))
            .with("tMs", Json::num_u64(1234))
            .with("panic", Json::str("line one\nline two"))
            .with("arr", Json::Arr(vec![Json::Null, Json::Num(0.5)]))
            .with("nested", Json::obj().with("k", Json::Bool(true)));
        let line = v.render_compact();
        assert!(!line.contains('\n'), "JSONL events are single lines");
        assert_eq!(Json::parse(&line).expect("parse"), v);
        assert_eq!(
            line,
            r#"{"ev":"cellFinished","tMs":1234,"panic":"line one\nline two","arr":[null,0.5],"nested":{"k":true}}"#
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let mut out = String::new();
        write_num(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
