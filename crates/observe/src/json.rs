//! Minimal hand-rolled JSON: the build environment has no serde, and the
//! schemas here are small enough that a value tree + renderer suffices.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Build with the `From` impls and [`Json::obj`]/[`Json::arr`],
/// render with [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; NaN and infinities render as `null` (JSON has no
    /// representation for them).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; key order is preserved as given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Render as a compact single-line JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render with two-space indentation (for files meant to be read).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document (the inverse of [`Json::render`]).
    ///
    /// A strict recursive-descent parser: no trailing garbage, no
    /// comments, full string-escape handling including `\uXXXX` surrogate
    /// pairs. Numbers parse as `U64` when unsigned-integral, `I64` when
    /// negative-integral, `F64` otherwise — so `render(parse(render(x)))`
    /// equals `render(x)` for every value this module can produce. Used to
    /// validate emitted trace files without trusting the writer.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object; `Null` when there is none or this is not
    /// an object, so lookups chain: `doc.get("slo").get("good").as_u64()`.
    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(pairs) => {
                pairs.iter().find(|(k, _)| k == key).map_or(&Json::Null, |(_, v)| v)
            }
            _ => &Json::Null,
        }
    }

    /// The value of an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of any number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array; empty for anything else.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Append to `problems` every way this value departs from `shape`,
    /// each named by its path from `path` (`"tail.shards[1].blame"`).
    pub fn check(&self, shape: &Shape, path: &str, problems: &mut Vec<String>) {
        let ok = match (shape, self) {
            (Shape::Num, Json::U64(_) | Json::I64(_) | Json::F64(_))
            | (Shape::Int, Json::U64(_))
            | (Shape::Str, Json::Str(_))
            | (Shape::Nullable(_), Json::Null) => true,
            (Shape::OneOf(names), Json::Str(s)) => names.contains(&s.as_str()),
            (Shape::Nullable(inner), _) => return self.check(inner, path, problems),
            (Shape::Arr(item), Json::Arr(items)) => {
                for (i, element) in items.iter().enumerate() {
                    element.check(item, &format!("{path}[{i}]"), problems);
                }
                true
            }
            (Shape::Obj(members), Json::Obj(pairs)) => {
                for (key, member) in *members {
                    match pairs.iter().find(|(k, _)| k == key) {
                        Some((_, v)) => v.check(member, &format!("{path}.{key}"), problems),
                        None => problems.push(format!("{path}: missing {key}")),
                    }
                }
                true
            }
            _ => false,
        };
        if !ok {
            problems.push(format!("{path} is {}, expected {shape:?}", self.render()));
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// What a validator requires of a value ([`Json::check`]): one table per
/// schema says which members a document must have and of what type; the
/// few checks that compare values with each other stay code.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Any number.
    Num,
    /// An unsigned integer.
    Int,
    /// A string.
    Str,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// `null`, or the inner shape.
    Nullable(&'static Shape),
    /// An array whose every element has this shape.
    Arr(&'static Shape),
    /// An object with at least these members (others are not looked at).
    Obj(&'static [(&'static str, Shape)]),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' but input ended", b as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected '{}' at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or("truncated \\u escape")?;
            let digit = (b as char).to_digit(16).ok_or_else(|| {
                format!("bad hex digit '{}' in \\u escape at byte {}", b as char, self.pos - 1)
            })?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::<u8>::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into())
                }
                Some(b'\\') => {
                    let esc = self.bump().ok_or("truncated escape")?;
                    let decoded = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low surrogate must follow.
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate".into());
                            } else {
                                hi
                            };
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint U+{code:04X}"))?
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(decoded.encode_utf8(&mut buf).as_bytes());
                }
                Some(raw) if raw < 0x20 => {
                    return Err(format!("unescaped control byte 0x{raw:02x} in string"));
                }
                Some(raw) => out.push(raw),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        if !float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Json::I64(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(n.into())
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::I64(n)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<BTreeMap<String, u64>> for Json {
    fn from(map: BTreeMap<String, u64>) -> Json {
        Json::Obj(map.into_iter().map(|(k, v)| (k, Json::U64(v))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", Json::from("fig6")),
            ("ok", Json::from(true)),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.5)),
            ("items", Json::arr([Json::from(1u64), Json::Null])),
            ("nested", Json::obj([("k", Json::from("v"))])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fig6","ok":true,"count":42,"ratio":0.5,"items":[1,null],"nested":{"k":"v"}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(doc.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let doc = Json::obj([("a", Json::arr([Json::from(1u64)]))]);
        assert_eq!(doc.render_pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn parses_what_it_renders() {
        let doc = Json::obj([
            ("name", Json::from("fig6")),
            ("ok", Json::from(true)),
            ("neg", Json::from(-3i64)),
            ("ratio", Json::from(0.5)),
            ("none", Json::Null),
            ("items", Json::arr([Json::from(1u64), Json::from("x")])),
            ("nested", Json::obj([("k", Json::from("v"))])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let original = Json::from("a\"b\\c\nd\u{1}é→😀");
        assert_eq!(Json::parse(&original.render()).unwrap(), original);
        // Surrogate pair escape decodes to one astral character.
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::from("😀"));
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap(), Json::from("é"));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn accessors_chain_through_absent_members() {
        let doc = Json::obj([
            ("slo", Json::obj([("good", Json::from(7u64)), ("burn", Json::from(0.5))])),
            ("shards", Json::arr([Json::from("a")])),
        ]);
        assert_eq!(doc.get("slo").get("good").as_u64(), Some(7));
        assert_eq!(doc.get("slo").get("burn").as_u64(), None, "a float is not an integer");
        assert_eq!(doc.get("slo").get("burn").as_f64(), Some(0.5));
        assert_eq!(doc.get("shards").items()[0].as_str(), Some("a"));
        assert_eq!(doc.get("nope").get("deeper"), &Json::Null);
        assert!(doc.get("slo").items().is_empty(), "an object has no items");
    }

    #[test]
    fn check_names_every_departure_by_path() {
        const ROW: Shape = Shape::Obj(&[("state", Shape::OneOf(&["up", "down"]))]);
        const DOC: Shape = Shape::Obj(&[
            ("n", Shape::Int),
            ("rows", Shape::Arr(&ROW)),
            ("why", Shape::Nullable(&Shape::Str)),
        ]);
        let check = |text: &str| {
            let mut problems = Vec::new();
            Json::parse(text).unwrap().check(&DOC, "doc", &mut problems);
            problems
        };
        assert!(check(r#"{"n":1,"rows":[{"state":"up","extra":2}],"why":null}"#).is_empty());
        let problems = check(r#"{"n":-1,"rows":[{"state":"up"},{"state":"sideways"},{}]}"#);
        assert_eq!(problems.len(), 4, "{problems:?}");
        assert!(problems[0].starts_with("doc.n is -1, expected Int"), "{problems:?}");
        assert!(problems[1].starts_with("doc.rows[1].state is \"sideways\""), "{problems:?}");
        assert_eq!(problems[2], "doc.rows[2]: missing state");
        assert_eq!(problems[3], "doc: missing why");
    }

    #[test]
    fn parses_numbers_by_type() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("0.25").unwrap(), Json::F64(0.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"\x01\"", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
