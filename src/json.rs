//! A minimal JSON value type: the one JSON model of `matc`.
//!
//! The `matc serve` daemon speaks newline-delimited JSON (one object
//! per line in each direction) through it, and [`crate::stats`] builds
//! every stats document and audit report as a [`Json`] tree rendered
//! here. Like the in-tree SHA-256, this is deliberately
//! dependency-free: a small recursive-descent
//! parser over the full JSON grammar (RFC 8259), a deterministic
//! renderer, and the handful of typed accessors the protocol handlers
//! use. Numbers are kept as `f64` — protocol payloads carry counts and
//! millisecond durations, all far inside the exactly-representable
//! integer range.
//!
//! Since the serve reactor rewrite the framing layer is zero-copy:
//! [`scan_frame`] finds the next `\n` over a connection's read buffer
//! without copying (callers track the already-scanned offset so a
//! slow-arriving frame is never rescanned), [`Json::parse_bytes`]
//! parses a frame in place from the buffer slice, and
//! [`Json::render_to`] appends a rendered response directly to a
//! connection's write buffer — no per-request `String` allocation or
//! `BufReader` line copy anywhere on the hot path.
//!
//! The three byte loops on that path — frame scanning, string
//! escaping and string parsing — test eight bytes at a time
//! (`find_flagged`) and copy whole runs of ordinary bytes, not one
//! `char` at a time.

use std::fmt::Write as _;

/// Finds the next frame terminator (`\n`) in `buf`, scanning only
/// `buf[from..]`. Returns its absolute index.
///
/// The reactor calls this with `from` set to wherever the previous
/// scan stopped, so each buffered byte is examined exactly once no
/// matter how many reads a frame trickles in over.
#[must_use]
pub fn scan_frame(buf: &[u8], from: usize) -> Option<usize> {
    find_flagged(buf, from.min(buf.len()), |w| below(w ^ splat(b'\n'), 1))
}

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// Sets the high bit of the bytes of `w` that are below `n` (`n` at
/// most 0x80). A borrow can also flag bytes *above* the first such
/// byte, but never below it, so the lowest flag is always exact.
const fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(splat(n)) & !w & splat(0x80)
}

/// Flags the bytes that end a run of a JSON string's ordinary bytes:
/// `"`, `\` and control bytes. All three are ASCII, so a run boundary
/// is always a `char` boundary.
const fn run_enders(w: u64) -> u64 {
    below(w, 0x20) | below(w ^ splat(b'"'), 1) | below(w ^ splat(b'\\'), 1)
}

/// The absolute index of the first byte at or after `from` that
/// `flags` marks, loading `bytes` a little-endian `u64` at a time.
/// `flags` must mark no 0xff byte (the final short word is padded with
/// them) and keep its lowest flag exact, as [`below`] does.
fn find_flagged(bytes: &[u8], from: usize, flags: impl Fn(u64) -> u64) -> Option<usize> {
    let mut i = from;
    while i < bytes.len() {
        let rest = &bytes[i..];
        let word = match rest.first_chunk::<8>() {
            Some(w) => *w,
            None => {
                let mut w = [0xff; 8];
                w[..rest.len()].copy_from_slice(rest);
                w
            }
        };
        let hit = flags(u64::from_le_bytes(word));
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    None
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (the renderer preserves it).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error (protocol frames are exactly one value per line).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message for malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Parses one complete JSON document directly from a byte slice —
    /// the zero-copy entry point for protocol frames scanned out of a
    /// connection buffer by [`scan_frame`]. Identical grammar and
    /// error behaviour to [`Json::parse`], plus a UTF-8 check (the
    /// wire hands us bytes, not `str`).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message for malformed input or
    /// invalid UTF-8.
    pub fn parse_bytes(frame: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(frame)
            .map_err(|e| format!("invalid UTF-8 at byte {}", e.valid_up_to()))?;
        Json::parse(text)
    }

    /// Renders the value as compact JSON (no whitespace, keys in
    /// insertion order — deterministic for identical values).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_to(&mut s);
        s
    }

    /// Renders the value as compact JSON appended to `s` — the
    /// zero-copy sibling of [`Json::render`], used by the serve
    /// reactor to emit responses straight into a connection's write
    /// buffer.
    pub fn render_to(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(s, "{}", *n as i64);
                } else {
                    let _ = write!(s, "{n}");
                }
            }
            Json::Str(v) => escape_into(v, s),
            Json::Arr(items) => {
                s.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    v.render_to(s);
                }
                s.push(']');
            }
            Json::Obj(members) => {
                s.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    escape_into(k, s);
                    s.push(':');
                    v.render_to(s);
                }
                s.push('}');
            }
        }
    }

    /// Object member lookup (`None` on non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Convenience `Json::Obj` constructor from `(key, value)` pairs,
    /// keys kept in the given order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience `Json::Str` constructor from any `Into<String>`.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience `Json::Num` constructor from any integer-ish count.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

/// Escapes `s` as a JSON string literal into `out` (with quotes),
/// appending each run of bytes that needs no escape with one copy.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push('"');
    let mut run = 0;
    while let Some(i) = find_flagged(bytes, run, run_enders) {
        out.push_str(&s[run..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The per-`char` escaper the run-copying one replaced, kept as the
/// differential tests' oracle.
#[cfg(test)]
fn escape_into_by_char(s: &str, out: &mut String) {
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

/// Nesting depth past which the parser rejects input: a protocol peer
/// must not be able to overflow the stack with `[[[[…`.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        let v = match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        };
        self.depth -= 1;
        v
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// Parses a string literal, copying each run of ordinary bytes up
    /// to the next `"`, `\` or control byte in one piece.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(end) = find_flagged(self.bytes, self.pos, run_enders) else {
                return Err("unterminated string".to_string());
            };
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.bytes[end] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => self.escape(&mut out)?,
                _ => return Err(format!("raw control byte at {}", self.pos)),
            }
        }
    }

    /// Decodes the escape sequence at `pos` (its `\`) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a following \uXXXX low surrogate
                    // is required.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err("bad low surrogate".to_string());
                        }
                        let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        char::from_u32(cp).ok_or_else(|| "bad surrogate pair".to_string())?
                    } else {
                        return Err("lone high surrogate".to_string());
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| "lone surrogate".to_string())?
                };
                out.push(c);
                return Ok(()); // hex4 already advanced pos
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        }
        self.pos += 1;
        Ok(())
    }

    /// The per-`char` string parser the run-copying one replaced, kept
    /// as the differential tests' oracle (escape decoding is shared).
    #[cfg(test)]
    fn string_by_char(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(b) if b < 0x20 => return Err(format!("raw control byte at {}", self.pos)),
                Some(_) => {
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("not at the end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_and_rerenders_protocol_shapes() {
        let frame =
            r#"{"op":"compile","name":"u0","sources":["function f()\n"],"deadline_ms":250}"#;
        let v = Json::parse(frame).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        let srcs = v.get("sources").and_then(Json::as_arr).unwrap();
        assert_eq!(srcs[0].as_str(), Some("function f()\n"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn renders_integers_without_float_noise() {
        assert_eq!(Json::num(0).render(), "0");
        assert_eq!(Json::num(429).render(), "429");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("line\nquote\" tab\t back\\ \u{1} done");
        let r = v.render();
        assert_eq!(Json::parse(&r).unwrap(), v);
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::str("\u{1f600}"),
            "surrogate pairs decode"
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_torn_and_malformed_frames() {
        for bad in [
            "",
            "{",
            "{\"op\":",
            "{\"op\":\"compile\"",           // truncated mid-object
            "{\"op\":\"compile\"} trailing", // torn frame boundary
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "01e",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // But whitespace padding is fine.
        assert!(Json::parse("  {\"a\": [1, 2.5, null, true]}  ").is_ok());
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
        let nested = format!("{}1{}", "[".repeat(63), "]".repeat(63));
        assert!(Json::parse(&nested).is_ok());
    }

    #[test]
    fn scan_frame_resumes_where_it_stopped() {
        let mut buf: Vec<u8> = b"{\"op\":\"healthz\"}".to_vec();
        // No terminator yet: nothing found regardless of offset.
        assert_eq!(scan_frame(&buf, 0), None);
        let scanned = buf.len();
        // The frame completes across a later read; scanning from the
        // recorded offset still finds the newline (which may land
        // anywhere at or after it).
        buf.extend_from_slice(b"\n{\"op\":");
        assert_eq!(scan_frame(&buf, scanned), Some(scanned));
        assert_eq!(scan_frame(&buf, 0), Some(scanned), "absolute index");
        // Past-the-end offsets are clamped, not a panic.
        assert_eq!(scan_frame(&buf, buf.len() + 10), None);
        // Two frames back-to-back: each scan picks up after the last.
        let two = b"{\"a\":1}\n{\"b\":2}\n";
        let first = scan_frame(two, 0).unwrap();
        assert_eq!(first, 7);
        assert_eq!(scan_frame(two, first + 1), Some(15));
    }

    #[test]
    fn parse_bytes_matches_parse_and_rejects_bad_utf8() {
        let frame = br#"{"op":"compile","sources":["function f()\n"]}"#;
        assert_eq!(
            Json::parse_bytes(frame).unwrap(),
            Json::parse(std::str::from_utf8(frame).unwrap()).unwrap()
        );
        let err = Json::parse_bytes(&[b'{', 0xff, b'}']).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn render_to_appends_without_clearing() {
        let mut out = String::from("prefix:");
        Json::num(7).render_to(&mut out);
        assert_eq!(out, "prefix:7");
    }

    /// Characters that stress the run boundaries: every byte class the
    /// escaper and parser stop at, plus 2-, 3- and 4-byte UTF-8.
    fn tricky_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('\n'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).expect("ASCII")),
            (0x20u8..0x7f).prop_map(char::from),
            Just('é'),
            Just('€'),
            Just('😀'),
            Just('\u{7f}'),
        ]
    }

    fn tricky_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(tricky_char(), 0..40).prop_map(|v| v.into_iter().collect())
    }

    fn escaped(s: &str, escape: fn(&str, &mut String)) -> String {
        let mut out = String::new();
        escape(s, &mut out);
        out
    }

    /// The new and the old string parser on the same literal: the
    /// error, or the value and where parsing stopped.
    fn parse_both(literal: &str) -> [Result<(String, usize), String>; 2] {
        let run = |by_char: bool| {
            let mut p = Parser {
                text: literal,
                bytes: literal.as_bytes(),
                pos: 0,
                depth: 0,
            };
            let v = if by_char {
                p.string_by_char()
            } else {
                p.string()
            };
            v.map(|v| (v, p.pos))
        };
        [run(false), run(true)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn run_copying_escape_matches_the_per_char_one(s in tricky_string()) {
            let new = escaped(&s, escape_into);
            prop_assert_eq!(&new, &escaped(&s, escape_into_by_char));
            prop_assert_eq!(Json::parse(&new).unwrap(), Json::Str(s.clone()));
            let [fast, slow] = parse_both(&new);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn run_copying_parse_matches_the_per_char_one_on_raw_input(s in tricky_string()) {
            // Unescaped bodies: raw control bytes, stray `\`, missing
            // terminators — the error, too, must match.
            let literal = format!("\"{s}");
            let [fast, slow] = parse_both(&literal);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn escape_and_parse_agree_at_every_offset_mod_8() {
        for c in ['"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '€', '😀'] {
            for pad in 0..17 {
                for tail in [0, 1, 7, 8, 9] {
                    let s = format!("{}{c}{}", "a".repeat(pad), "b".repeat(tail));
                    let new = escaped(&s, escape_into);
                    assert_eq!(new, escaped(&s, escape_into_by_char), "{s:?}");
                    let [fast, slow] = parse_both(&new);
                    assert_eq!(fast, slow, "{s:?}");
                    assert_eq!(fast, Ok((s, new.len())));
                }
            }
        }
        assert_eq!(escaped("", escape_into), "\"\"");
        assert_eq!(parse_both("\"\"")[0], Ok((String::new(), 2)));
    }

    #[test]
    fn scan_frame_matches_a_naive_search() {
        for len in 0..=18 {
            for nl in (0..=17).map(Some).chain([None]) {
                let mut buf = vec![b'x'; len];
                if let Some(at) = nl.filter(|&at| at < len) {
                    buf[at] = b'\n';
                    // A second terminator later must not win.
                    if at + 3 < len {
                        buf[at + 3] = b'\n';
                    }
                }
                for from in 0..=len + 1 {
                    let naive = buf
                        .iter()
                        .enumerate()
                        .skip(from)
                        .find(|(_, b)| **b == b'\n')
                        .map(|(i, _)| i);
                    assert_eq!(scan_frame(&buf, from), naive, "{buf:?} from {from}");
                }
            }
        }
    }

    #[test]
    fn typed_accessors_are_strict() {
        let v = Json::parse(r#"{"n":1.5,"b":true,"s":"x","neg":-1}"#).unwrap();
        assert_eq!(
            v.get("n").and_then(Json::as_u64),
            None,
            "1.5 is not a count"
        );
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("absent"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
