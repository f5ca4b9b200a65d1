//! A minimal JSON tree: parse, compact printing, and the pretty printer
//! that lays out the harness reports.
//!
//! The build environment has no serde. The wire protocol, the status
//! report and the harness's `--json` reports are all [`Json`] trees
//! (`compact` on the wire, `pretty` in files), and the report round-trip
//! tests parse them back. Two fidelity guarantees the tests rely on:
//!
//! - **Numbers keep their source text.** `1843.0` (an `f64` printed via
//!   `{:?}`) must not collapse to `1843` on reserialization, so
//!   [`Json::Num`] stores the raw token.
//! - **Object keys keep their order.** Objects are association lists,
//!   not maps, so `serialize → parse → reserialize` is the identity on
//!   the harness report.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: key-value pairs in source/insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor: a number from any displayable integer.
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// Convenience constructor: a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is a numeric value that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Single-line rendering (the wire format).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Multi-line rendering, the layout of the harness reports:
    /// two-space indent, every container element on its own line,
    /// `"key": value`, and a trailing newline. `pretty → parse → pretty`
    /// is the identity (the round-trip test in `dbds-harness` gates it).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    let _ = write!(out, "{:1$}", "", indent + 2);
                    v.write_pretty(out, indent + 2);
                }
                out.push('\n');
                let _ = write!(out, "{:1$}]", "", indent);
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    let _ = write!(out, "{:1$}{2}: ", "", indent + 2, escape(k));
                    v.write_pretty(out, indent + 2);
                }
                out.push('\n');
                let _ = write!(out, "{:1$}}}", "", indent);
            }
            other => other.write_compact(out),
        }
    }
}

/// Escapes a string into a quoted JSON literal (quotes, backslashes,
/// newlines and control characters). Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut run = 0;
    let special = |&(_, b): &(usize, u8)| b < 0x20 || b == b'"' || b == b'\\';
    for (at, b) in s.bytes().enumerate().filter(special) {
        out.push_str(&s[run..at]);
        let _ = match b {
            b'\n' => write!(out, "\\n"),
            b'"' | b'\\' => write!(out, "\\{}", char::from(b)),
            _ => write!(out, "\\u{b:04x}"),
        };
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
    out
}

/// Parses one JSON value from `text` (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(v)
}

/// How many arrays and objects may enclose a value. The decoder
/// recurses once per level, and it reads frames off the network: past
/// this, nesting is an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects being parsed around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("malformed number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("malformed number exponent"));
            }
        }
        // The slice is ASCII by construction.
        Ok(Json::Num(
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
        ))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            // Surrogate pairs are not needed for the
                            // report/protocol (ASCII + control chars).
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, as one
                    // slice: both are ASCII, so it ends on a character
                    // boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Parses an array or object (`container`) one nesting level down.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "1843.0", "1.5e-3"] {
            assert_eq!(parse(text).unwrap().compact(), text, "{text}");
        }
    }

    #[test]
    fn numbers_keep_their_source_text() {
        assert_eq!(parse("1843.0").unwrap(), Json::Num("1843.0".into()));
        assert_eq!(parse("1843.0").unwrap().compact(), "1843.0");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(r#""a\"b\\c\nd\u0007""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd\u{7}");
        assert_eq!(v.compact(), r#""a\"b\\c\nd\u0007""#);
    }

    /// `escape` one character at a time: the reference the run-copying
    /// escape is held to.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escape_matches_the_per_char_reference() {
        let mut inputs: Vec<String> = (0u32..0x80)
            .filter_map(char::from_u32)
            .map(|c| format!("{c}a{c}{c}\u{e9}{c}"))
            .collect();
        let every_control: String = (0u8..0x20).map(char::from).collect();
        inputs.extend(
            [
                "",
                "plain",
                "\"",
                "\\",
                "\"\\\"\\\\",
                "tab\there\r\nline\u{7f}",
                "é日本\u{1F600}\u{85}\u{2028}\u{a0}",
                "\\\"é\n\u{1}",
            ]
            .map(String::from),
        );
        inputs.push(every_control.repeat(3));
        let profile = dbds_workloads::Suite::Micro.profile();
        for i in 0..8 {
            let g = dbds_workloads::generate_graph(&format!("w4u{i}"), &profile, 7_000 + i);
            inputs.push(dbds_ir::print_class_table(g.class_table()) + &dbds_ir::print_graph(&g));
        }
        for s in &inputs {
            assert_eq!(escape(s), escape_per_char(s), "{s:?}");
            let mut out = String::from("prefix");
            Json::Str(s.clone()).write_compact(&mut out);
            assert_eq!(out, format!("prefix{}", escape_per_char(s)), "{s:?}");
            assert_eq!(parse(&escape(s)).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"z":1,"a":[true,{"k":"v"}],"m":null}"#;
        assert_eq!(parse(text).unwrap().compact(), text);
    }

    #[test]
    fn pretty_matches_report_style() {
        let v = Json::Obj(vec![
            ("unit_threads".into(), Json::num(1)),
            (
                "suites".into(),
                Json::Arr(vec![Json::Obj(vec![("suite".into(), Json::str("micro"))])]),
            ),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"unit_threads\": 1,\n  \"suites\": [\n    {\n      \"suite\": \"micro\"\n    }\n  ]\n}\n"
        );
        // Pretty output re-parses to the same tree.
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        // Fail-first: a frame of brackets far under `MAX_FRAME` used to
        // overflow the decoder's stack and abort the process.
        let deep = "[".repeat(200_000);
        let err = parse(&deep).expect_err("deep nesting is an error");
        assert!(err.msg.contains("nesting deeper than 64"), "{err}");
        let nest = |n: usize| format!("{}{}", r#"{"k":["#.repeat(n), "]}".repeat(n));
        assert!(parse(&nest(MAX_DEPTH / 2)).is_ok());
        assert!(parse(&nest(MAX_DEPTH / 2 + 1)).is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // Fail-first: every character used to re-validate the rest of
        // the input as UTF-8: this input took minutes in a debug build.
        let body = "aé\u{1F600}\\n\\\"".repeat(1 << 17);
        let text = format!("\"{body}\"");
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_str().unwrap(), "aé\u{1F600}\n\"".repeat(1 << 17));
        assert_eq!(v.compact(), text);
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    }
}
