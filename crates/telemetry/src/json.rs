//! A minimal JSON document model with emitter and parser.
//!
//! Telemetry snapshots must be machine-readable without dragging a
//! serialization framework into the crate every other workspace member
//! depends on, so this module hand-rolls the small JSON subset the
//! subsystem needs: objects with ordered keys, arrays, strings, booleans,
//! null, and numbers. Integers are carried as `i128` so every `u64`
//! metric value (timer nanoseconds can legitimately reach `u64::MAX`)
//! round-trips exactly instead of losing precision through an `f64`.
//!
//! The parser is a strict recursive-descent over the RFC 8259 grammar.
//! Documents also arrive on the daemon's sockets, so it is written for
//! hostile input: time is linear in the document (strings are consumed a
//! run at a time, never re-validated), and nesting is capped at
//! [`MAX_DEPTH`] so recursion cannot exhaust the stack. [`Reader`] is the
//! same scanner as a pull API, for callers (the flow-mod channel codec)
//! that read a known shape straight into their own types without building
//! a [`Json`] tree first.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting a document may have. The parser recurses
/// once per level; real documents (metrics snapshots, channel frames,
/// policy frames) nest under ten deep.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, carried exactly (covers all of `u64` and `i64`).
    Int(i128),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Member lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage, and
    /// nesting deeper than [`MAX_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i128::from(v))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(i128::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i128::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
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

/// A `&str` wrapper that displays as a quoted, escaped JSON string.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        // Runs between characters that need escaping go out whole.
        let mut run = 0;
        for (i, c) in self.0.char_indices() {
            if c != '"' && c != '\\' && (c as u32) >= 0x20 {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            run = i + 1;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
        }
        f.write_str(&self.0[run..])?;
        f.write_str("\"")
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(v) if v.is_finite() => {
                // Keep a trailing `.0` so the value re-parses as a float.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            // JSON has no Inf/NaN; observability output degrades to null
            // rather than emitting an unparseable document.
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "{}", Escaped(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Escaped(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A pull reader over one JSON document: the scanner under
/// [`Json::parse`], usable directly by callers that know the shape they
/// expect. Every `read` method skips leading whitespace, consumes exactly
/// one value and leaves the reader after it.
///
/// ```
/// use sdx_telemetry::json::{ParseError, Reader};
/// let mut r = Reader::new(r#"{"seq": 7, "tags": ["a", "b"], "later": null}"#);
/// let (mut seq, mut tags) = (0, Vec::new());
/// r.object(|r, key| {
///     match key {
///         "seq" => seq = r.u64()?,
///         "tags" => r.array(|r| {
///             tags.push(r.string()?.into_owned());
///             Ok::<(), ParseError>(())
///         })?,
///         _ => r.skip()?,
///     }
///     Ok::<(), ParseError>(())
/// })?;
/// r.finish()?;
/// assert_eq!((seq, tags), (7, vec!["a".to_string(), "b".to_string()]));
/// # Ok::<(), ParseError>(())
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    // The scanner's primitives are `#[inline]`: the channel codec calls
    // them from another crate a few dozen times per flow-mod, and a call
    // per token cost more than the token. Failures are built out of line.

    #[cold]
    #[inline(never)]
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    #[cold]
    #[inline(never)]
    fn expected(&self, b: u8) -> ParseError {
        self.err(&format!("expected `{}`", b as char))
    }

    #[cold]
    #[inline(never)]
    fn expected_more(&self, close: u8) -> ParseError {
        self.err(&format!("expected `,` or `{}`", close as char))
    }

    #[cold]
    #[inline(never)]
    fn too_deep(&self) -> ParseError {
        self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    /// Opens an array or object: consumes `open` and charges one level
    /// against [`MAX_DEPTH`].
    #[inline]
    fn open(&mut self, open: u8) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    /// After one member or element: `,` (more follow) or `close` (done).
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.expected_more(close)),
        }
    }

    /// True (and consumed) if the container just opened is empty.
    #[inline]
    fn empty(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
            self.depth -= 1;
        }
        empty
    }

    /// Reads an object, calling `member(reader, key)` with the reader at
    /// each member's value; `member` must consume exactly that value
    /// ([`skip`](Self::skip) for keys it does not know).
    #[inline]
    pub fn object<E: From<ParseError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'{')?;
        if self.empty(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Reads an array, calling `element(reader)` with the reader at each
    /// element; `element` must consume exactly that value.
    #[inline]
    pub fn array<E: From<ParseError>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'[')?;
        if self.empty(b']') {
            return Ok(());
        }
        loop {
            element(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads any value into a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.to_string(), r.value()?));
                    Ok::<(), ParseError>(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok::<(), ParseError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads and discards one value of any kind.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        self.value().map(drop)
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Reads a string. Borrowed from the document unless it contains an
    /// escape; either way each byte is looked at once.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let run = self.pos;
        let end = self.run_end(run);
        match end {
            Some(end) if self.bytes()[end] == b'"' => {
                self.pos = end + 1;
                Ok(Cow::Borrowed(&self.text[run..end]))
            }
            _ => self.escaped_string(run, end),
        }
    }

    /// Where the run of string text from `from` ends: the next `"` or `\`.
    /// Both are ASCII, so a run starts and ends on character boundaries of
    /// the `&str`. `None` if the document ends first.
    #[inline]
    fn run_end(&self, from: usize) -> Option<usize> {
        let len = self.bytes()[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        Some(from + len)
    }

    /// The rest of a string whose first run, from `run`, ends at `end`: at
    /// a backslash, or (`None`) at the end of the document.
    #[cold]
    #[inline(never)]
    fn escaped_string(
        &mut self,
        mut run: usize,
        mut end: Option<usize>,
    ) -> Result<Cow<'a, str>, ParseError> {
        let mut unescaped = String::new();
        loop {
            let Some(at) = end else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos = at;
            unescaped.push_str(&self.text[run..at]);
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(Cow::Owned(unescaped));
            }
            self.pos += 1; // the backslash
            unescaped.push(self.escape()?);
            run = self.pos;
            end = self.run_end(run);
        }
    }

    /// The character an escape sequence stands for; the reader is just
    /// past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The scalar after `\u`: four hex digits, or a UTF-16 surrogate pair
    /// spelled as two escapes (`\uD83D\uDE00` is one character). A
    /// surrogate without its partner is not a character: U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.bytes()[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'));
            }
            // Not a low surrogate: it is the next character's business.
            self.pos = after_high;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Reads a non-negative integer that fits a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.pos += 1;
        }
        if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("expected an unsigned integer"));
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_and_reparses_exact_integers() {
        let doc = Json::obj([
            ("max".to_string(), Json::from(u64::MAX)),
            ("neg".to_string(), Json::from(-42i64)),
        ]);
        let text = doc.to_string();
        assert_eq!(text, format!("{{\"max\":{},\"neg\":-42}}", u64::MAX));
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.get("neg").and_then(Json::as_i64), Some(-42));
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::from("a\"b\\c\nd\te\u{1}");
        let text = doc.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).expect("parses"), doc);
    }

    #[test]
    fn parses_nested_structures_and_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , true , null , \"x\" ] , \"b\" : { } } ")
            .expect("parses");
        let a = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Float(2.5));
        assert_eq!(a[2], Json::Bool(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(a[4].as_str(), Some("x"));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "truex", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::parse("3.0").expect("parses"), Json::Float(3.0));
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        // The line that used to overflow the event-loop thread's stack.
        let hostile = "[".repeat(20_000);
        let err = Json::parse(&hostile).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH + 1);
        assert!(err.message.contains("nesting"), "{err}");
        let mixed = "{\"a\":[".repeat(10_000);
        assert!(Json::parse(&mixed).is_err());
        // Exactly MAX_DEPTH levels is a document like any other...
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &Json::parse(&deep).expect("at the cap");
        for _ in 0..MAX_DEPTH {
            v = &v.as_arr().expect("array")[0];
        }
        assert_eq!(v, &Json::Int(1));
        // ...one more is not; siblings do not add up to depth.
        assert!(Json::parse(&format!("[{deep}]")).is_err());
        assert!(Json::parse(&format!("[{deep},{deep},{}]", "[],".repeat(1000) + "[]")).is_err());
        assert!(Json::parse(&format!("[{}[]]", "[[]],".repeat(1000))).is_ok());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_degrade() {
        let parse_str = |t: &str| Json::parse(t).expect("parses").as_str().map(str::to_string);
        assert_eq!(parse_str(r#""\uD83D\uDE00""#).as_deref(), Some("\u{1F600}"));
        assert_eq!(
            parse_str(r#""a\ud83d\ude00b""#).as_deref(),
            Some("a\u{1F600}b")
        );
        // High without low, low alone, high then a non-surrogate escape.
        assert_eq!(parse_str(r#""\uD83Dx""#).as_deref(), Some("\u{fffd}x"));
        assert_eq!(parse_str(r#""\uDE00""#).as_deref(), Some("\u{fffd}"));
        assert_eq!(parse_str(r#""\uD83D\u0041""#).as_deref(), Some("\u{fffd}A"));
        assert_eq!(
            parse_str(r#""\uD83D\uD83D\uDE00""#).as_deref(),
            Some("\u{fffd}\u{1F600}")
        );
        assert!(
            Json::parse(r#""\uD83D\uDE0""#).is_err(),
            "truncated low half"
        );
        assert!(
            Json::parse(r#""\u+041""#).is_err(),
            "sign is not a hex digit"
        );
        // What the emitter writes for it reads back.
        let doc = Json::from("\u{1F600}");
        assert_eq!(Json::parse(&doc.to_string()).expect("parses"), doc);
    }

    #[test]
    fn strings_parse_in_linear_time() {
        // The old scanner re-validated the rest of the document per
        // character: 300 KB took 1.8 s, 1 MB would not finish. Linear
        // means 16x the input costs about 16x the time; allow 4x slack on
        // the ratio rather than trusting a wall-clock bound on a shared
        // host.
        let time = |len: usize| {
            let body = "policy text, with \\\"escapes\\\" and \u{e9}\u{1F600} ".repeat(len / 48);
            let doc = format!("{{\"dsl\":\"{body}\"}}");
            let t0 = std::time::Instant::now();
            let v = Json::parse(&doc).expect("parses");
            let dt = t0.elapsed();
            assert!(v
                .get("dsl")
                .and_then(Json::as_str)
                .is_some_and(|s| s.len() > len / 2));
            dt
        };
        time(1 << 16); // warm the allocator
        let small = (0..5).map(|_| time(1 << 16)).min().expect("runs");
        let large = (0..5).map(|_| time(1 << 20)).min().expect("runs");
        assert!(large.as_millis() < 500, "1 MB string took {large:?}");
        assert!(
            large < small * 64,
            "64 KB in {small:?} but 1 MB (16x) in {large:?}"
        );
    }

    #[test]
    fn reader_borrows_plain_strings_and_checks_integers() {
        let mut r = Reader::new(r#" [ "plain", "esc\n", 18446744073709551615 ] "#);
        let mut seen = Vec::new();
        let mut max = 0;
        let mut i = 0;
        r.array(|r| {
            if i < 2 {
                seen.push(r.string()?);
            } else {
                max = r.u64()?;
            }
            i += 1;
            Ok::<(), ParseError>(())
        })
        .expect("reads");
        r.finish().expect("nothing trailing");
        assert!(matches!(seen[0], Cow::Borrowed("plain")));
        assert!(matches!(&seen[1], Cow::Owned(s) if s == "esc\n"));
        assert_eq!(max, u64::MAX);
        for bad in ["18446744073709551616", "-1", "1.0", "1e3", "x", ""] {
            assert!(Reader::new(bad).u64().is_err(), "{bad:?} is not a u64");
        }
    }
}
