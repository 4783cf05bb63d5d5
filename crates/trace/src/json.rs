//! Minimal, dependency-free JSON emission and validation.
//!
//! The workspace's vendored `serde` is an offline marker stub, so the
//! exporters build their documents by hand through [`JsonWriter`]. Output is
//! deterministic: same calls, byte-identical text (floats use Rust's
//! shortest-roundtrip formatting, integers are exact).
//!
//! [`parse`] is a strict recursive-descent parser producing a [`JsonValue`]
//! tree, used by the round-trip tests, the CI artifact job, and the
//! `dc-bench` baseline loader — it accepts exactly the JSON grammar
//! (RFC 8259), no trailing commas, no comments. [`validate`] is the
//! syntax-check-only wrapper around it.

/// Incremental JSON writer with correct string escaping.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Whether the next element at each nesting level needs a comma.
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the document text.
    pub fn finish(self) -> String {
        assert!(self.need_comma.is_empty(), "unclosed JSON container");
        self.buf
    }

    fn elem(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Open an object as the next element.
    pub fn begin_object(&mut self) -> &mut Self {
        self.elem();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.need_comma.pop().expect("end_object without begin");
        self.buf.push('}');
        self
    }

    /// Open an array as the next element.
    pub fn begin_array(&mut self) -> &mut Self {
        self.elem();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.need_comma.pop().expect("end_array without begin");
        self.buf.push(']');
        self
    }

    /// Emit an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
        // The value that follows is not a new element at this level.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emit a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.buf, s);
        self
    }

    /// Emit an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.elem();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Emit a signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.elem();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Emit a float value (NaN/inf degrade to null, which JSON requires).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.elem();
        if v.is_finite() {
            let s = format!("{v}");
            self.buf.push_str(&s);
            // `{}` prints integral floats without a dot; keep the value a
            // JSON number either way (it already is), nothing to fix.
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Emit a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.elem();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emit raw pre-rendered JSON as the next element (caller guarantees
    /// validity — used to splice sub-documents).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.elem();
        self.buf.push_str(json);
        self
    }
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value tree.
///
/// Objects preserve key insertion order (the writer emits deterministic
/// documents, so order is meaningful to the round-trip tests and the
/// `dc-bench` baseline loader). Numbers are held as `f64`, which is exact
/// for every integer the exporters emit below 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse `text` as exactly one well-formed JSON value. Returns the first
/// error as `(byte_offset, message)`. Accepts exactly the same grammar as
/// [`validate`].
pub fn parse(text: &str) -> Result<JsonValue, (usize, &'static str)> {
    let b = text.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err((p.i, "trailing characters after JSON value"));
    }
    Ok(v)
}

/// Validate that `text` is exactly one well-formed JSON value. Returns the
/// first error as `(byte_offset, message)`.
pub fn validate(text: &str) -> Result<(), (usize, &'static str)> {
    parse(text).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<JsonValue, (usize, &'static str)> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal(b"true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err((self.i, "expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), (usize, &'static str)> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err((self.i, "malformed literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, (usize, &'static str)> {
        self.i += 1; // '{'
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err((self.i, "expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err((self.i, "expected ':' after key"));
            }
            self.i += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err((self.i, "expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, (usize, &'static str)> {
        self.i += 1; // '['
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err((self.i, "expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, &'static str)> {
        self.i += 1; // opening quote
        let start = self.i;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.i += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.i += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.i += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.i += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.i += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.i += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.i += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: pair with the following
                                // \uXXXX low surrogate if present.
                                if self.b[self.i..].starts_with(b"\\u") {
                                    let save = self.i;
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    } else {
                                        self.i = save;
                                        0xFFFD
                                    }
                                } else {
                                    0xFFFD
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                0xFFFD // lone low surrogate
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err((self.i, "bad escape")),
                    }
                }
                0x00..=0x1f => return Err((self.i, "raw control character in string")),
                _ => {
                    // Copy one whole UTF-8 scalar (input is a &str, so the
                    // byte offsets of char boundaries are trustworthy).
                    let s = &self.text()[self.i..];
                    let ch = s.chars().next().expect("peeked byte implies a char");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
        Err((start, "unterminated string"))
    }

    fn hex4(&mut self) -> Result<u32, (usize, &'static str)> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.peek() {
                Some(h) if h.is_ascii_hexdigit() => {
                    v = v * 16 + (h as char).to_digit(16).expect("hexdigit");
                    self.i += 1;
                }
                _ => return Err((self.i, "bad \\u escape")),
            }
        }
        Ok(v)
    }

    fn text(&self) -> &str {
        // The parser is only constructed from &str input.
        std::str::from_utf8(self.b).expect("parser input was a str")
    }

    fn number(&mut self) -> Result<JsonValue, (usize, &'static str)> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err((self.i, "malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err((self.i, "digit required after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err((self.i, "digit required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let s = &self.text()[start..self.i];
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| (start, "number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("fig\"3a\"");
        w.key("values")
            .begin_array()
            .u64(1)
            .f64(2.5)
            .i64(-3)
            .end_array();
        w.key("ok").bool(true);
        w.key("inner").begin_object().key("x").f64(0.1).end_object();
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            r#"{"name":"fig\"3a\"","values":[1,2.5,-3],"ok":true,"inner":{"x":0.1}}"#
        );
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn escaping_covers_control_and_quote_chars() {
        let mut w = JsonWriter::new();
        w.string("a\nb\t\"c\"\\d\u{1}");
        let s = w.finish();
        assert_eq!(s, r#""a\nb\t\"c\"\\d\u0001""#);
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .f64(f64::NAN)
            .f64(f64::INFINITY)
            .f64(1.0)
            .end_array();
        let s = w.finish();
        assert_eq!(s, "[null,null,1]");
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn validator_accepts_valid_documents() {
        for good in [
            "{}",
            "[]",
            "null",
            "-0.5e+10",
            r#"{"a":[1,2,{"b":"c"}],"d":null}"#,
            "  [ true , false ]  ",
            r#""\u00e9""#,
        ] {
            assert!(validate(good).is_ok(), "rejected valid: {good}");
        }
    }

    #[test]
    fn parse_builds_the_expected_tree() {
        let v = parse(r#"{"a":[1,-2.5,"x"],"b":{"c":null,"d":true},"e":""}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[
                JsonValue::Num(1.0),
                JsonValue::Num(-2.5),
                JsonValue::Str("x".into())
            ]
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some(""));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\nb\t\"c\"\\d\u0001\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"c\"\\d\u{1}é😀"));
        // Lone surrogates decode to the replacement character but remain
        // syntactically acceptable (the writer never emits them).
        let v = parse(r#""\ud800x""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}x"));
    }

    #[test]
    fn writer_output_round_trips_through_parse() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("title")
            .string("Fig 5a — Shared-lock \"cascade\"\n(µs)");
        w.key("rows")
            .begin_array()
            .u64(7)
            .i64(-3)
            .f64(0.125)
            .end_array();
        w.key("ok").bool(false);
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("title").unwrap().as_str(),
            Some("Fig 5a — Shared-lock \"cascade\"\n(µs)")
        );
        assert_eq!(
            v.get("rows").unwrap().as_arr().unwrap(),
            &[
                JsonValue::Num(7.0),
                JsonValue::Num(-3.0),
                JsonValue::Num(0.125)
            ]
        );
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "[1 2]",
            "01",
            "1.",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(validate(bad).is_err(), "accepted invalid: {bad}");
        }
    }
}
