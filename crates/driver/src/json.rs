//! Minimal JSON support for the service wire format.
//!
//! The build must succeed without registry access (see
//! `vendor/README.md`), so instead of `serde` the service uses this
//! small recursive-descent parser and escaping writer. It covers the
//! full JSON grammar; numbers are kept as `i64` when exact and `f64`
//! otherwise, which is all the wire format needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits `i64` exactly.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an exact integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes the value, compact (no whitespace), keys in `Obj`
    /// order. Deterministic: equal values produce identical bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
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
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
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

/// Convenience constructor for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // surrogate pairs
                            if (0xd800..0xdc00).contains(&code) {
                                let rest = self
                                    .text
                                    .as_bytes()
                                    .get(self.pos + 5..self.pos + 11)
                                    .ok_or("truncated surrogate pair")?;
                                if &rest[..2] != b"\\u" {
                                    return Err("lone high surrogate".into());
                                }
                                let lo_hex =
                                    std::str::from_utf8(&rest[2..]).map_err(|_| "bad surrogate")?;
                                let lo =
                                    u32::from_str_radix(lo_hex, 16).map_err(|_| "bad surrogate")?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                                out.push(char::from_u32(c).ok_or("invalid surrogate pair")?);
                                self.pos += 10;
                            } else {
                                out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                                self.pos += 4;
                            }
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` at once. Both
                    // are ASCII, so the run ends on a character boundary
                    // (as it starts on one), and `text` is already UTF-8.
                    let end = self.text.as_bytes()[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.text.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"[1,2,3]"#,
            r#"{"a":1,"b":[true,null],"c":"x\ny"}"#,
            r#"-42"#,
            r#"3.5"#,
        ];
        for case in cases {
            let v = parse(case).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{case}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\"b\\cAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\cAé");
        let pair = parse(r#""😀""#).unwrap();
        assert_eq!(pair.as_str().unwrap(), "😀");
        let back = parse(&Json::Str("tab\there\n".into()).render()).unwrap();
        assert_eq!(back.as_str().unwrap(), "tab\there\n");
    }

    #[test]
    fn multibyte_characters_beside_escapes_and_at_the_end() {
        // é, € and 😀 are 2, 3 and 4 bytes long
        let cases = [
            (r#""é\n€\t😀""#, "é\n€\t😀"),
            (r#""\"é\\€\/😀\b""#, "\"é\\€/😀\u{8}"),
            (r#""\u00e9é\u20ac€\ud83d\ude00😀""#, "éé€€😀😀"),
        ];
        for (doc, expected) in cases {
            assert_eq!(parse(doc), Ok(Json::Str(expected.into())), "{doc}");
        }
        for c in ["é", "€", "😀"] {
            assert_eq!(parse(&format!("\"{c}\"")), Ok(Json::Str(c.into())));
            assert_eq!(
                parse(&format!("\"\\t{c}\\f\"")),
                Ok(Json::Str(format!("\t{c}\u{c}")))
            );
            let key = format!("{c}\"{c}");
            assert_eq!(
                parse(&format!("{{\"{c}\\\"{c}\":[\"{c}\"]}}")),
                Ok(obj(vec![(
                    key.as_str(),
                    Json::Arr(vec![Json::Str(c.into())])
                )]))
            );
            // the document ends inside the string, on the character
            assert_eq!(parse(&format!("\"{c}")), Err("unterminated string".into()));
            assert_eq!(
                parse(&format!("\"\\n{c}")),
                Err("unterminated string".into())
            );
        }
    }

    #[test]
    fn escapes_at_the_edges_of_a_copied_run() {
        let cases = [
            (r#""""#, ""),
            (r#""\n""#, "\n"),
            (r#""\nab""#, "\nab"),
            (r#""ab\n""#, "ab\n"),
            (r#""a\"\\b""#, "a\"\\b"),
            (r#""\\\\""#, "\\\\"),
            (r#""\u0041ab\u0042""#, "AabB"),
            (r#""ab\ud83d\ude00cd""#, "ab😀cd"),
        ];
        for (doc, expected) in cases {
            assert_eq!(parse(doc), Ok(Json::Str(expected.into())), "{doc}");
        }
        let errors = [
            (r#""ab\x""#, "bad escape at offset 4"),
            (r#""ab\"#, "bad escape at offset 4"),
            (r#""ab\u12"#, "truncated \\u escape"),
            (r#""ab\u12zz""#, "bad \\u escape"),
            (r#""ab\ud83d""#, "truncated surrogate pair"),
            (r#""ab\ud83dcdefgh""#, "lone high surrogate"),
            (r#""ab\ud83d\u0041""#, "invalid low surrogate"),
            (r#""ab"#, "unterminated string"),
            (r#"{"ab":"cd"x}"#, "expected `,` or `}` at offset 10"),
            (r#"["ab"]x"#, "trailing characters at offset 6"),
        ];
        for (doc, error) in errors {
            assert_eq!(parse(doc), Err(error.into()), "{doc}");
        }
    }

    #[test]
    fn a_string_of_several_mib_parses_in_linear_time() {
        // 64 runs of 64 KiB, each ending in multibyte characters and
        // followed by an escape: 4 MiB in all
        let run = format!("{}é€😀", "x".repeat((64 << 10) - 9));
        let doc = format!("\"{}\"", format!("{run}\\n").repeat(64));
        let start = std::time::Instant::now();
        let parsed = parse(&doc);
        let elapsed = start.elapsed();
        assert_eq!(parsed, Ok(Json::Str(format!("{run}\n").repeat(64))));
        // Linear, this takes milliseconds. A parser that checks the rest
        // of the document again for each character takes minutes.
        assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn object_render_is_deterministic() {
        let a = parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
