//! Recursive-descent JSON parser producing the shared [`Value`] tree.

use crate::Error;
use serde::{Map, Number, Value};

pub(crate) fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
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
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Append the whole run up to the next delimiter in
                    // one go. Both delimiters are ASCII, so the run ends
                    // on a char boundary and validating just the run
                    // keeps the scan linear in the input length.
                    let bytes = self.bytes;
                    let start = self.pos;
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(bytes.len(), |n| start + n);
                    match std::str::from_utf8(&bytes[start..end]) {
                        Ok(run) => out.push_str(run),
                        Err(e) => {
                            self.pos = start + e.valid_up_to();
                            return Err(self.err("invalid utf-8"));
                        }
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must pair with a following \uXXXX low half.
            if !self.eat_keyword("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    if v == 0 {
                        return Ok(Value::Number(Number::from_u64(0)));
                    }
                }
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::Number(Number::from_i64(v)));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from_u64(v)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::from_f64(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string, Value};

    fn parse_str(json: &str) -> String {
        from_str::<String>(json).unwrap_or_else(|e| panic!("{json:?}: {e}"))
    }

    fn error(json: &str) -> String {
        from_str::<Value>(json).unwrap_err().to_string()
    }

    #[test]
    fn multibyte_runs_around_every_escape() {
        let escapes = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\u00e9", "\u{e9}"),
            ("\\u20AC", "\u{20ac}"),
            ("\\ud83d\\ude00", "\u{1f600}"),
        ];
        // Two-, three- and four-byte scalars on both sides of the escape,
        // and escapes back to back with no run between them.
        for (esc, decoded) in escapes {
            let json = format!("\"é€😀{esc}ü中🎉\"");
            assert_eq!(parse_str(&json), format!("é€😀{decoded}ü中🎉"), "{json}");
            let json = format!("\"{esc}{esc}ß\"");
            assert_eq!(parse_str(&json), format!("{decoded}{decoded}ß"), "{json}");
            let json = format!("[\"ж{esc}\", \"{esc}ж\"]");
            let v: Vec<String> = from_str(&json).unwrap();
            assert_eq!(v, [format!("ж{decoded}"), format!("{decoded}ж")], "{json}");
        }
        // Object keys go through the same scanner.
        let v: Value = from_str("{\"ключ\\n€\": \"значение\"}").unwrap();
        assert_eq!(v.get("ключ\n€").and_then(Value::as_str), Some("значение"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse_str(r#""\uD83D\uDE00""#), "\u{1f600}");
        assert_eq!(parse_str(r#""\ud834\udd1e""#), "\u{1d11e}");
        assert_eq!(parse_str(r#""\uDBFF\uDFFF""#), "\u{10ffff}");
        assert_eq!(
            parse_str(r#""a\uD83D\uDE00\uD83D\uDE01é""#),
            "a\u{1f600}\u{1f601}é"
        );
        // Raw four-byte scalars need no escaping and survive unchanged.
        let s = "😀𝄞\u{10ffff}";
        assert_eq!(parse_str(&to_string(s).unwrap()), s);
    }

    #[test]
    fn unterminated_string_after_a_long_run_reports_the_end() {
        let body = "é".repeat(10_000);
        let json = format!("\"{body}");
        assert_eq!(
            error(&json),
            format!("unterminated string at byte {}", json.len())
        );
        let json = format!("[\"{body}\\");
        assert_eq!(
            error(&json),
            format!("unterminated escape at byte {}", json.len())
        );
    }

    #[test]
    fn malformed_input_errors_keep_their_text_and_offsets() {
        let cases = [
            ("{", "expected `\"` at byte 1"),
            ("[1,]", "expected a JSON value at byte 3"),
            ("12 34", "trailing characters after JSON value at byte 3"),
            ("\"unterminated", "unterminated string at byte 13"),
            ("", "expected a JSON value at byte 0"),
            ("   ", "expected a JSON value at byte 3"),
            ("[", "expected a JSON value at byte 1"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("{\"a\":1,}", "expected `\"` at byte 7"),
            ("{1:2}", "expected `\"` at byte 1"),
            ("[1 2]", "expected `,` or `]` in array at byte 3"),
            ("\"ab\\", "unterminated escape at byte 4"),
            ("\"\\x\"", "invalid escape at byte 3"),
            ("\"\\u12\"", "truncated \\u escape at byte 3"),
            ("\"\\u12", "truncated \\u escape at byte 3"),
            ("\"\\uzzzz\"", "invalid \\u escape at byte 3"),
            ("\"\\uD800\"", "unpaired surrogate at byte 7"),
            ("\"\\uD800\\u0041\"", "invalid low surrogate at byte 13"),
            ("\"\\uDC00\"", "unpaired low surrogate at byte 7"),
            ("tru", "expected a JSON value at byte 0"),
            ("nul", "expected a JSON value at byte 0"),
            ("-", "invalid number at byte 1"),
            ("-x", "invalid number at byte 1"),
            ("1.2.3", "invalid number at byte 5"),
            ("1e", "invalid number at byte 2"),
            ("\"é😀", "unterminated string at byte 7"),
            ("\"é\\q\"", "invalid escape at byte 5"),
            ("[\"ok\", \"é😀x", "unterminated string at byte 15"),
            (
                "{\"ké\":\"v\" \"x\"}",
                "expected `,` or `}` in object at byte 11",
            ),
            (
                "\"\\uD83D\\uDE00\" x",
                "trailing characters after JSON value at byte 15",
            ),
            ("truex", "trailing characters after JSON value at byte 4"),
            ("[1,2]]", "trailing characters after JSON value at byte 5"),
        ];
        for (json, want) in cases {
            assert_eq!(error(json), want, "{json:?}");
        }
    }

    #[test]
    fn one_mebibyte_string_value_parses() {
        // ~10^12 byte validations under a scanner that re-checks the
        // rest of the input per character; linear here.
        let unit = "abcdefgh-é€😀\\n";
        let decoded_unit = "abcdefgh-é€😀\n";
        let reps = (1 << 20) / unit.len() + 1;
        let json = format!("{{\"blob\": \"{}\", \"tail\": 1}}", unit.repeat(reps));
        assert!(json.len() > 1 << 20);
        let v: Value = from_str(&json).unwrap();
        let blob = v.get("blob").and_then(Value::as_str).unwrap();
        assert_eq!(blob.len(), decoded_unit.len() * reps);
        assert!(blob.starts_with(decoded_unit) && blob.ends_with(decoded_unit));
        assert_eq!(v.get("tail").and_then(Value::as_u64), Some(1));
        assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v);
    }
}
