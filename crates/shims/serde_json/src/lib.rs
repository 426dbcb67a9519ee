//! Offline stand-in for `serde_json`: renders the shim `serde::Value`
//! data model to JSON text and parses it back.
//!
//! Only the two entry points the workspace uses are provided:
//! [`to_string`] and [`from_str`]. The JSON dialect is standard; map
//! order is preserved, floats print with shortest-round-trip formatting.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Serialization / deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// Serialize `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Printer.
// ---------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` is shortest-round-trip for f64.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Bytes(bytes) => {
            // JSON has no binary type: render as an array of numbers,
            // for display only. (Parsing returns a Seq of UInts, which
            // bytes-consuming types reject — packed payloads round-trip
            // through the binary codec, not JSON.)
            out.push('[');
            for (i, b) in bytes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push(']');
        }
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the longest run of bytes that are neither `"` nor `\`
            // in one piece: the input came from a `&str` and both are
            // ASCII, so the run ends on a char boundary, and validating
            // each run once keeps the whole parse linear.
            let rest = &self.bytes[self.pos..];
            let plain = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..plain]).map_err(|_| Error("invalid UTF-8".into()))?,
            );
            self.pos += plain;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let high = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low
                            // one is a single scalar (external tools, e.g.
                            // Python's `json.dumps`, write non-BMP text
                            // that way); a lone surrogate becomes U+FFFD.
                            let low = match high {
                                0xD800..=0xDBFF
                                    if self.bytes[self.pos + 1..].starts_with(b"\\u") =>
                                {
                                    self.hex4(self.pos + 3)
                                        .ok()
                                        .filter(|low| (0xDC00..=0xDFFF).contains(low))
                                }
                                _ => None,
                            };
                            let code = match low {
                                Some(low) => {
                                    self.pos += 6;
                                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                                }
                                None => high,
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// The four hex digits of a `\u` escape at `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        hex.iter()
            .try_fold(0, |code, &b| Some(code * 16 + (b as char).to_digit(16)?))
            .ok_or_else(|| Error("bad \\u escape".into()))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn escapes_multibyte_text_and_surrogate_pairs_round_trip() {
        let text = "plain \"quoted\" back\\slash /\n\t\r\u{1} é ü 中文 🦀 end";
        let json = to_string(text).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        let list = vec![String::new(), "🦀".repeat(3), "\\\"".to_owned()];
        assert_eq!(
            from_str::<Vec<String>>(&to_string(&list).unwrap()).unwrap(),
            list
        );
        // Escaped forms other writers produce (`%` stands for a
        // backslash): BMP and surrogate-pair `u` escapes decode to their
        // scalars, lone surrogates to U+FFFD.
        for (json, text) in [
            (r#""a%u00E9%u4e2db%/""#, "aé中b/"),
            (r#""%ud83e%udd80 %uD83E%uDD80""#, "🦀 🦀"),
            (r#""%ud83e""#, "\u{fffd}"),
            (r#""%udd80x""#, "\u{fffd}x"),
            (r#""%ud83e%u0041""#, "\u{fffd}A"),
            (r#""%ud83e%n""#, "\u{fffd}\n"),
        ] {
            let json = json.replace('%', "\\");
            assert_eq!(from_str::<String>(&json).unwrap(), text, "{json}");
        }
        for bad in [r#""\u12""#, r#""\u12g4""#, r#""\q""#, r#""open"#] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    /// Strings used to be decoded one scalar at a time, each step
    /// re-validating the rest of the input as UTF-8: quadratic in the
    /// document. A document 4× larger must parse in at most 6× the time.
    #[test]
    fn parse_time_grows_linearly_with_the_document() {
        let doc = |n: usize| {
            let items: Vec<String> = (0..n)
                .map(|i| format!("node é {i} \"q\" 🦀 {}", "x".repeat(40)))
                .collect();
            to_string(&items).unwrap()
        };
        let best = |text: &str| -> Duration {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    let items: Vec<String> = from_str(text).unwrap();
                    std::hint::black_box(items);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (small, large) = (doc(1000), doc(4000));
        assert!(large.len() >= 4 * small.len());
        let (t_small, t_large) = (best(&small), best(&large));
        assert!(
            t_large <= t_small * 6,
            "{} B in {t_small:?}, {} B in {t_large:?}",
            small.len(),
            large.len()
        );
    }
}
