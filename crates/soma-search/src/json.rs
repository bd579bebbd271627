//! The workspace's JSON document model: an explicit [`Value`] tree, a
//! deterministic compact writer ([`to_string`]) and a strict parser
//! ([`parse`]). Every JSON view goes through it: the outcome record
//! ([`record`](crate::record)), the ledger's `ledger dump` lines, the
//! `serve` wire frames and the campaign summary.
//!
//! Decoders read an object's fields through one typed reader,
//! [`Value::field`] (`v.field("evals", Value::as_u64)?`) or
//! [`Value::opt_field`] for a field that may be absent; both name the
//! field in their error, and a present field of the wrong type is an
//! error either way.
//!
//! Determinism contract (the run-ledger tests compare files
//! byte-for-byte):
//!
//! * Object keys keep **insertion order** — writing never reorders.
//! * Numbers round-trip exactly: integers print as decimal digits;
//!   finite floats print through Rust's shortest-round-trip `Display`,
//!   so `parse(to_string(v))` reproduces the same `f64` bits.
//! * The writer emits no whitespace, so a value has exactly one
//!   canonical rendering.

use std::fmt::Write as _;

/// A JSON value. Numbers are split by how they parsed (`u64` first,
/// then `i64`, then `f64`); use the [`as_f64`](Value::as_f64) family of
/// accessors, which coerce across the numeric variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    UInt(u64),
    /// A negative integer that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved (and is the written order).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Self {
        Value::Obj(Vec::new())
    }

    /// Appends a key to an object. Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Value) {
        match self {
            Value::Obj(entries) => entries.push((key.into(), value)),
            other => panic!("Value::push on a non-object {other:?}"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Reads field `key` through a typed accessor such as
    /// [`Value::as_u64`] (`Some` reads any value).
    ///
    /// # Errors
    ///
    /// A message naming `key` when the field is absent or `read`
    /// rejects it.
    pub fn field<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        self.opt_field(key, read)?.ok_or_else(|| format!("missing `{key}`"))
    }

    /// [`field`](Self::field) for an optional field: `Ok(None)` when
    /// `key` is absent.
    ///
    /// # Errors
    ///
    /// A message naming `key` when the field is present but `read`
    /// rejects it: a mistyped field is never read as an absent one.
    pub fn opt_field<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| format!("`{key}` has the wrong type")),
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (coercing integer variants).
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(v) => Some(v),
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Writes a value as compact JSON (no whitespace, insertion-ordered
/// keys, round-trip-exact numbers).
pub fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's float Display is the shortest string that parses
                // back to the identical f64 — the round-trip contract.
                let _ = write!(out, "{f}");
            } else {
                // Non-finite numbers have no JSON literal.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(val, out);
            }
            out.push('}');
        }
    }
}

/// [`write`](fn@write) into a fresh string.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 sequences and go out as slices of `s`.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Containers deeper than this are rejected: the parser recurses per
/// nesting level, so without a bound a hostile input (`[[[[...`) would
/// abort the process with a stack overflow instead of returning an
/// error. Workspace documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, msg: msg.into() }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next `"` or `\` is copied as one slice:
            // both are ASCII, so the run ends on a char boundary of the
            // already-valid input.
            let start = self.pos;
            let run = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1,
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by this
                    // writer; reject rather than mis-decode.
                    let ch = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    out.push(ch);
                }
                other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            // `-0` must stay a float to preserve the sign bit.
            if text != "-0" {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::Int(v));
                }
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
    }
}

/// Parses one JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-7", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(to_string(&v), text);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.5e-300, std::f64::consts::PI, 1e20, -2.5, 16.0] {
            let text = to_string(&Value::Float(f));
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {text}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = to_string(&Value::Float(-0.0));
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn large_u64_survives() {
        let v = Value::UInt(u64::MAX);
        assert_eq!(parse(&to_string(&v)).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn objects_preserve_key_order() {
        let mut obj = Value::obj();
        obj.push("zebra", 1u64.into());
        obj.push("apple", 2u64.into());
        let text = to_string(&obj);
        assert_eq!(text, "{\"zebra\":1,\"apple\":2}");
        assert_eq!(parse(&text).unwrap(), obj);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}✓";
        let text = to_string(&Value::Str(s.into()));
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = "{\"a\":[1,2.5,{\"b\":null}],\"c\":true}";
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        let e = parse("nulp").unwrap_err();
        assert!(e.to_string().contains("byte 0"), "{e}");
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(200_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        let mixed = "{\"a\":".repeat(5_000);
        assert!(parse(&mixed).is_err());
        // The limit leaves ample room for real documents.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_is_accepted_on_parse() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(to_string(&v), "{\"a\":[1,2]}");
    }

    /// SplitMix64, so the randomised tests are seeded and the crate
    /// needs no dev-dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Every escape the writer emits (`\u00xx` for the other control
    /// characters) and every UTF-8 width.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', '✓', '😀',
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(12))
            .map(|_| match rng.below(4) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                _ => ALPHABET[rng.below(ALPHABET.len())],
            })
            .collect()
    }

    fn random_float(rng: &mut Rng) -> f64 {
        match rng.below(4) {
            0 => -0.0,
            1 => 1e-300,
            _ => loop {
                // An integral float below 2^64 prints as an integer and
                // parses back as one, so it is left out here.
                let f = f64::from_bits(rng.next());
                if f.is_finite() && (f.fract() != 0.0 || f.abs() >= 18_446_744_073_709_551_616.0) {
                    break f;
                }
            },
        }
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth == 0 { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next() & 1 == 1),
            2 => Value::UInt(match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next() >> rng.below(64),
            }),
            // `Int` holds negative integers; a non-negative one parses
            // back as `UInt`.
            3 => Value::Int(match rng.below(3) {
                0 => i64::MIN,
                1 => -1,
                _ => -1 - (rng.next() >> (1 + rng.below(63))) as i64,
            }),
            4 => Value::Float(random_float(rng)),
            5 | 6 => Value::Str(random_string(rng)),
            7 => Value::Arr((0..rng.below(5)).map(|_| random_value(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn assert_integers_render_as_display(v: &Value) {
        match v {
            Value::UInt(n) => assert_eq!(to_string(v), format!("{n}")),
            Value::Int(n) => assert_eq!(to_string(v), format!("{n}")),
            Value::Arr(items) => items.iter().for_each(assert_integers_render_as_display),
            Value::Obj(entries) => {
                entries.iter().for_each(|(_, v)| assert_integers_render_as_display(v));
            }
            _ => {}
        }
    }

    #[test]
    fn random_trees_round_trip() {
        for seed in 0..500 {
            let mut rng = Rng(seed);
            let v = random_value(&mut rng, 4);
            let text = to_string(&v);
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e} in {text}"));
            assert_eq!(back, v, "seed {seed}: {text}");
            // Equal text also pins what `==` cannot see: the sign of zero.
            assert_eq!(to_string(&back), text, "seed {seed}");
            assert_integers_render_as_display(&v);
        }
    }

    #[test]
    fn every_escape_parses() {
        let text = "\"q\\\"b\\\\s\\/\\b\\f\\n\\r\\t\\u00e9\\u2713\\u0000é😀\"";
        assert_eq!(parse(text).unwrap().as_str(), Some("q\"b\\s/\u{8}\u{c}\n\r\té✓\u{0}é😀"));
        assert!(parse("\"\\x\"").unwrap_err().msg.contains("bad escape"));
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\ud800\"").is_err(), "a lone surrogate is refused");
        assert_eq!(
            parse("\"abc\\").unwrap_err(),
            JsonError { offset: 5, msg: "unterminated escape".into() }
        );
        assert_eq!(parse("\"abc").unwrap_err().offset, 4);
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        let s: String =
            "plain ascii text, ✓ é 😀 and a quote \" ".chars().cycle().take(256 * 1024).collect();
        let doc = to_string(&Value::Str(s.clone()));
        let t = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t.elapsed();
        assert_eq!(v.as_str(), Some(s.as_str()));
        assert!(took < std::time::Duration::from_millis(100), "{} B in {took:?}", doc.len());
    }

    #[test]
    fn numbers_keep_their_classification_at_the_edges() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
        assert_eq!(parse("18446744073709551616"), Ok(Value::Float(18_446_744_073_709_551_616.0)));
        let Ok(Value::Float(zero)) = parse("-0") else { panic!("-0 must be a float") };
        assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(parse("007"), Ok(Value::UInt(7)));
        assert_eq!(parse("1e5"), Ok(Value::Float(1e5)));
        assert_eq!(parse("1-2"), Err(JsonError { offset: 3, msg: "invalid number".into() }));
        assert_eq!(parse("-7"), Ok(Value::Int(-7)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(parse("-9223372036854775809"), Ok(Value::Float(-9_223_372_036_854_775_809.0)));
        assert_eq!(parse("[12,3.5]"), Ok(Value::Arr(vec![Value::UInt(12), Value::Float(3.5)])));
    }

    #[test]
    fn field_reads_a_present_field_and_names_an_absent_or_mistyped_one() {
        let v = parse("{\"n\":7,\"s\":\"x\",\"o\":{}}").unwrap();
        assert_eq!(v.field("n", Value::as_u64), Ok(7));
        assert_eq!(v.field("s", Value::as_str), Ok("x"));
        assert_eq!(v.field("o", Some), Ok(&Value::obj()));
        assert_eq!(v.field("gone", Value::as_u64), Err("missing `gone`".into()));
        assert_eq!(v.field("s", Value::as_u64), Err("`s` has the wrong type".into()));
        // A non-object has no fields.
        assert_eq!(Value::Null.field("n", Value::as_u64), Err("missing `n`".into()));
    }

    #[test]
    fn opt_field_is_none_only_when_the_key_is_absent() {
        let v = parse("{\"n\":7,\"s\":\"x\",\"z\":null}").unwrap();
        assert_eq!(v.opt_field("n", Value::as_u64), Ok(Some(7)));
        assert_eq!(v.opt_field("gone", Value::as_u64), Ok(None));
        assert_eq!(v.opt_field("s", Value::as_u64), Err("`s` has the wrong type".into()));
        assert_eq!(v.opt_field("z", Value::as_str), Err("`z` has the wrong type".into()));
    }
}
