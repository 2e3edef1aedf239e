//! # codec — the one JSON reader and the one content hash
//!
//! Every file the workspace writes to disk — simulator checkpoints, fault
//! plans, trained-model checkpoints, `RunRecord`s, result-cache cells,
//! search records — is JSON, and every content address is a 64-bit
//! FNV-1a hash. This leaf crate holds the only reader and the only hash,
//! so there is one parser to harden and one set of constants to pin.
//!
//! Writers stay with their formats (each emits a fixed, canonical byte
//! shape); dialect quirks such as key-named errors or `null` read as NaN
//! are thin adapters in the crate that needs them.
//!
//! The build environment has no crates.io access, so the reader is a
//! small recursive-descent parser. Numbers keep their lexeme, so `u64`
//! seeds and bit patterns survive exactly.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// 64-bit FNV-1a over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Escapes a string as a quoted JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// Deepest array/object nesting the reader accepts. Every document the
/// workspace writes nests a handful of levels; the cap turns a hostile
/// `[[[[…` into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its lexeme so integers survive exactly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document; anything but whitespace after the value
    /// is an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object, in document order.
    ///
    /// # Errors
    ///
    /// Fails on any other kind of value.
    pub fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// The items of an array.
    ///
    /// # Errors
    ///
    /// Fails on any other kind of value.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// A string's decoded text.
    ///
    /// # Errors
    ///
    /// Fails on any other kind of value.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// A number whose lexeme is an unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on non-numbers and on fractional, signed or out-of-range
    /// numbers.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("expected u64, got {n}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// A number as the nearest `f64`.
    ///
    /// # Errors
    ///
    /// Fails on non-numbers, `null` included.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("bad number {n}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            ch as char,
            pos = *pos
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
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
                expect(b, pos, b':')?;
                pairs.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if start == *pos {
                return Err(format!("unexpected byte at {start}"));
            }
            let lexeme = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            lexeme
                .parse::<f64>()
                .map_err(|_| format!("bad number '{lexeme}'"))?;
            Ok(Json::Num(lexeme.to_string()))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign (`\u+041`).
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        let code = hex.iter().fold(0, |acc, &h| {
                            acc * 16 + (h as char).to_digit(16).unwrap_or(0)
                        });
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain bytes. It ends at an ASCII quote or
                // backslash, so it is whole UTF-8 scalars.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_standard_vectors() {
        assert_eq!(format!("{:016x}", fnv1a64(b"")), "cbf29ce484222325");
        assert_eq!(format!("{:016x}", fnv1a64(b"a")), "af63dc4c8601ec8c");
        assert_eq!(format!("{:016x}", fnv1a64(b"foobar")), "85944171f73967e8");
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse(r#""\u00E9x""#).unwrap(), Json::Str("éx".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u004g""#,
            r#""\u12"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not decode");
        }
        assert!(
            Json::parse(r#""\ud800""#).is_err(),
            "a lone surrogate is not a char"
        );
    }

    #[test]
    fn escaped_strings_round_trip() {
        let nasty: String = (0u8..0x80).map(char::from).chain("é—😀".chars()).collect();
        let text = json_str(&nasty);
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        let v = Json::parse("[18446744073709551615, 0.1, -2e3, 7]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64().unwrap(), u64::MAX);
        assert_eq!(items[1], Json::Num("0.1".into()));
        assert_eq!(items[2].as_f64().unwrap(), -2000.0);
        assert!(items[1].as_u64().is_err() && items[2].as_u64().is_err());
        assert!(Json::Null.as_f64().is_err(), "null is not a number here");
        assert!(Json::parse("1.2.3").is_err() && Json::parse("-").is_err());
    }

    #[test]
    fn objects_keep_document_order_and_first_match_wins() {
        let v = Json::parse(r#"{"b": 1, "a": [true, false, null], "b": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b"), Some(&Json::Num("1".into())));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("b"), None);
        assert!(v.as_array().is_err() && v.as_str().is_err());
    }

    #[test]
    fn every_strict_prefix_of_a_document_is_an_error() {
        let doc = r#"{"seed": 42, "name": "a\"b\u0001", "xs": [1, 2.5, null, true], "o": {}}"#;
        assert!(Json::parse(doc).is_ok());
        for len in 0..doc.len() {
            assert!(Json::parse(&doc[..len]).is_err(), "prefix {len} parsed");
        }
    }

    #[test]
    fn trailing_garbage_and_bad_literals_are_rejected() {
        for bad in [
            "{} x",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "tru",
            "[1 2]",
            "{1: 2}",
            "'a'",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
        assert!(Json::parse(" \n{}\r\n\t").is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }
}
