//! The workspace's one JSON implementation: a from-scratch parser and the
//! string escaper every JSON writer shares.
//!
//! Full RFC 8259 syntax plus two ergonomic extensions FireMarshal users
//! expect from hand-written configuration files: `//` and `#` comments, and
//! trailing commas in arrays/objects. Run journals (`marshal-trace`) are
//! read with the same parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::ConfigError;
use crate::value::Value;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with line/column information for any
/// syntax error, including trailing garbage after the document.
///
/// ```rust
/// use marshal_config::json::parse;
/// let v = parse(r#"{ "name": "bench", "jobs": [1, 2, 3] }"#)?;
/// assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("bench"));
/// # Ok::<(), marshal_config::ConfigError>(())
/// ```
pub fn parse(text: &str) -> Result<Value, ConfigError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes and
/// control characters escaped, everything else verbatim.
///
/// ```rust
/// let mut out = String::new();
/// marshal_config::json::write_string("a\"b\n", &mut out);
/// assert_eq!(out, r#""a\"b\n""#);
/// ```
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ConfigError {
        ConfigError::parse(self.line, self.col, msg)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => {
                    self.bump();
                }
                Some(b'#') => self.skip_line(),
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => self.skip_line(),
                _ => break,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(b) = self.peek() {
            self.bump();
            if b == b'\n' {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ConfigError> {
        match self.peek() {
            Some(found) if found == b => {
                self.bump();
                Ok(())
            }
            Some(found) => Err(self.error(format!(
                "expected `{}`, found `{}`",
                b as char, found as char
            ))),
            None => Err(self.error(format!("expected `{}`, found end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, ConfigError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ConfigError> {
        for expected in word.bytes() {
            match self.bump() {
                Some(b) if b == expected => {}
                _ => return Err(self.error(format!("expected keyword `{word}`"))),
            }
        }
        Ok(value)
    }

    fn parse_object(&mut self) -> Result<Value, ConfigError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.bump();
                break;
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.error(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    break;
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
        Ok(Value::Object(map))
    }

    fn parse_array(&mut self) -> Result<Value, ConfigError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.bump();
                break;
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    break;
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
        Ok(Value::Array(items))
    }

    fn parse_string(&mut self) -> Result<String, ConfigError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
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
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.error("bad \\u code point"))?,
                        );
                    }
                    other => {
                        return Err(
                            self.error(format!("bad escape `\\{:?}`", other.map(|b| b as char)))
                        )
                    }
                },
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let extra = match b {
                            0xC0..=0xDF => 1,
                            0xE0..=0xEF => 2,
                            0xF0..=0xF7 => 3,
                            _ => return Err(self.error("invalid utf-8 in string")),
                        };
                        let mut buf = vec![b];
                        for _ in 0..extra {
                            buf.push(self.bump().ok_or_else(|| self.error("truncated utf-8"))?);
                        }
                        out.push_str(
                            std::str::from_utf8(&buf)
                                .map_err(|_| self.error("invalid utf-8 in string"))?,
                        );
                    }
                }
            }
        }
        Ok(out)
    }

    fn parse_number(&mut self) -> Result<Value, ConfigError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error(format!("bad number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn nested_document() {
        let v = parse(
            r#"{
            "name": "latency-microbenchmark",
            "base": "pfa-base",
            "jobs": [
                { "name": "client", "linux": { "config": "pfa.kfrag" } },
                { "name": "server", "base": "bare-metal", "bin": "serve" }
            ]
        }"#,
        )
        .unwrap();
        let jobs = v.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].get("bin").and_then(Value::as_str), Some("serve"));
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\nb\t\"c\" A""#).unwrap(),
            Value::Str("a\nb\t\"c\" A".into())
        );
        assert_eq!(parse(r#""héllo""#).unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn comments_and_trailing_commas() {
        let v = parse("{\n  // a comment\n  \"a\": 1, # another\n  \"b\": [1, 2,],\n}\n").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn errors_carry_position() {
        match parse("{\n  \"a\": }\n") {
            Err(ConfigError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err()); // duplicate key
    }

    #[test]
    fn roundtrip_through_to_json() {
        let src = r#"{"a":[1,2,{"b":"x"}],"c":null,"d":true}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn deeply_nested() {
        let mut src = String::new();
        for _ in 0..100 {
            src.push('[');
        }
        src.push('1');
        for _ in 0..100 {
            src.push(']');
        }
        assert!(parse(&src).is_ok());
    }
}
