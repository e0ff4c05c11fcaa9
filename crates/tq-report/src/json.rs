//! Hand-rolled JSON value, writer and parser.
//!
//! The workspace builds with zero external crates, so `serde_json` is
//! replaced by this module. It is shared by the machine-readable report
//! emitters (`repro_table4`'s profile dump) and by the `tq-profd` service
//! protocol (JSON-lines over TCP).
//!
//! Design points:
//!
//! * Objects keep **insertion order** (a `Vec` of pairs, not a map), so a
//!   value rendered twice yields byte-identical text — the profd cache
//!   relies on canonical responses.
//! * Integers are kept separate from floats ([`Json::UInt`]/[`Json::Int`]
//!   vs [`Json::Num`]) so `u64` counters round-trip losslessly.
//! * The parser accepts exactly the JSON this writer produces plus
//!   insignificant whitespace; numbers with a fraction or exponent parse
//!   as [`Json::Num`]. It reads untrusted protocol lines, so arrays and
//!   objects nest at most [`MAX_DEPTH`] deep: deeper input is an error,
//!   never a stack overflow.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The documents
/// the workspace writes (profiles, Chrome traces, service responses) nest
/// fewer than ten levels; each level costs the parser one stack frame, so
/// the bound keeps a hostile line from overflowing a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (u64-lossless).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating point number. Non-finite values render as `null`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl Json {
    /// Build an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Append a field to an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => {
                let key = key.into();
                let value = value.into();
                if let Some(p) = pairs.iter_mut().find(|(k, _)| *k == key) {
                    p.1 = value;
                } else {
                    pairs.push((key, value));
                }
            }
            other => panic!("set() on non-object {other:?}"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer view (accepts non-negative `Int`s too).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// Float view (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => Some(v),
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialise to compact JSON text (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-trip form; force a
                    // fraction or exponent so the value re-parses as Num.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                what: "trailing characters",
            });
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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

/// Parse error: byte position and a short description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub pos: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError {
            pos: *pos,
            what: "unexpected token",
        })
    }
}

/// Parse the value at `pos`, nested inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(JsonError {
            pos: *pos,
            what: "unexpected end of input",
        });
    };
    if matches!(c, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(JsonError {
            pos: *pos,
            what: "nesting too deep",
        });
    }
    match c {
        b'n' => expect(b, pos, "null").map(|()| Json::Null),
        b't' => expect(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect(b, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos,
                            what: "expected , or ]",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        pos: *pos,
                        what: "expected :",
                    });
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos,
                            what: "expected , or }",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(JsonError {
            pos: *pos,
            what: "unexpected character",
        }),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            pos: *pos,
            what: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(JsonError {
                pos: *pos,
                what: "unterminated string",
            });
        };
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = b.get(*pos) else {
                    return Err(JsonError {
                        pos: *pos,
                        what: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError {
                                pos: *pos,
                                what: "bad \\u escape",
                            })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            pos: *pos,
                            what: "bad \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos - 1,
                            what: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid utf8 input"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    if !is_float {
        match text.parse::<i64>() {
            Ok(v) if v < 0 => return Ok(Json::Int(v)),
            // `-0` is the integer 0, which the writer spells `0`.
            Ok(0) => return Ok(Json::UInt(0)),
            _ => {}
        }
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        // An overflowing number would render as `null`.
        Ok(_) => Err(JsonError {
            pos: start,
            what: "number out of range",
        }),
        Err(_) => Err(JsonError {
            pos: start,
            what: "bad number",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_canonical_compact_text() {
        let v = Json::obj([
            ("name", Json::from("wfs")),
            ("count", Json::from(3u64)),
            ("neg", Json::from(-4i64)),
            ("pi", Json::from(3.5f64)),
            ("whole", Json::from(2.0f64)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "items",
                Json::from(vec![Json::from(1u64), Json::from("a\nb")]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"wfs","count":3,"neg":-4,"pi":3.5,"whole":2.0,"ok":true,"none":null,"items":[1,"a\nb"]}"#
        );
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let v = Json::obj([
            (
                "s",
                Json::from("quote \" backslash \\ tab \t unicode \u{1F600}"),
            ),
            ("big", Json::from(u64::MAX)),
            ("i", Json::from(i64::MIN)),
            ("f", Json::from(-0.125f64)),
            ("arr", Json::from(vec![Json::Null, Json::Bool(false)])),
            ("obj", Json::obj([("k", Json::from(1u64))])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.render(), text, "canonical form is a fixed point");
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_junk() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 ] ,\n\"b\": null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // A spawned thread has the default stack, like a profd connection
        // thread: 100 000 `[` must come back as an error, not abort.
        let deep = "[".repeat(100_000);
        let res = std::thread::spawn(move || Json::parse(&deep))
            .join()
            .unwrap();
        assert_eq!(res.unwrap_err().what, "nesting too deep");
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_bound = nest(open, close, MAX_DEPTH).replace("{\"k\":}", "{\"k\":0}");
            assert!(Json::parse(&at_bound).is_ok(), "{open} x {MAX_DEPTH}");
            let over = nest(open, close, MAX_DEPTH + 1).replace("{\"k\":}", "{\"k\":0}");
            assert_eq!(Json::parse(&over).unwrap_err().what, "nesting too deep");
        }
    }

    #[test]
    fn integer_float_distinction() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        // What the parser accepts, the writer writes back unchanged.
        assert_eq!(Json::parse("-0").unwrap(), Json::UInt(0));
        assert_eq!(
            Json::parse("1e999").unwrap_err().what,
            "number out of range"
        );
        assert_eq!(
            Json::parse("-1e999").unwrap_err().what,
            "number out of range"
        );
    }

    #[test]
    fn accessors() {
        let mut v = Json::obj([("a", Json::from(1u64))]);
        v.set("b", "x");
        v.set("a", 2u64);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(3).as_u64(), Some(3));
        assert_eq!(Json::Int(-3).as_u64(), None);
        assert_eq!(Json::UInt(4).as_f64(), Some(4.0));
    }
}
