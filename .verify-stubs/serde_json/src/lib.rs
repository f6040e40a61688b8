//! Minimal offline stand-in for `serde_json` over the sibling serde
//! stub's tree model: `to_string`, `to_value`, `from_str`.

pub use serde::Value;

#[derive(Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error)
}

// ---- writer -----------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser -----------------------------------------------------------

/// How many arrays and objects may nest, as in the real crate: deeper
/// input fails with an error instead of exhausting the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!("bad value at {}: {other:?}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, failing past
    /// [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(Error(format!("bad array at {}: {other:?}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => return Err(Error(format!("bad object at {}: {other:?}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run at once. The input is a
                    // `&str` and the run ends at an ASCII byte, so the
                    // slice is valid UTF-8 and each byte is scanned once.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error("bad number".into()))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error(e.to_string()))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(e.to_string()))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(e.to_string()))
        }
    }
}
