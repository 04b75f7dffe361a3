//! Structured diagnostics shared by the plan auditor and the lints.
//!
//! Every finding carries a stable machine-readable code (`A…` for plan
//! audits, `L…` for lints), a severity, the function it concerns, a
//! human-readable message and — when the finding maps to source text — a
//! byte [`Span`]. The sink renders a human listing and the line format
//! the artifact store embeds in fragments; the root crate's `stats`
//! module renders findings as JSON for `matc audit --json` and tooling.

use matc_frontend::span::Span;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or likely-performance problem; does not affect the
    /// audit's soundness verdict.
    Warning,
    /// A violated soundness obligation: the storage plan (or program)
    /// cannot be trusted as-is.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `A101` or `L003`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The function the finding is about.
    pub func: String,
    /// Human-readable description.
    pub message: String,
    /// Source byte range, when one exists.
    pub span: Option<Span>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.func, self.message
        )?;
        if let Some(s) = self.span {
            write!(f, " (bytes {}..{})", s.start, s.end)?;
        }
        Ok(())
    }
}

/// An append-only collection of findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty sink.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends an error-severity finding.
    pub fn error(
        &mut self,
        code: &'static str,
        func: impl Into<String>,
        message: impl Into<String>,
        span: Option<Span>,
    ) {
        self.items.push(Diagnostic {
            code,
            severity: Severity::Error,
            func: func.into(),
            message: message.into(),
            span,
        });
    }

    /// Appends a warning-severity finding.
    pub fn warning(
        &mut self,
        code: &'static str,
        func: impl Into<String>,
        message: impl Into<String>,
        span: Option<Span>,
    ) {
        self.items.push(Diagnostic {
            code,
            severity: Severity::Warning,
            func: func.into(),
            message: message.into(),
            span,
        });
    }

    /// All findings, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// The number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// The number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Moves all of `other`'s findings into this sink.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Renders a human-readable listing, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Serializes the findings to the line-oriented wire format the
    /// artifact store embeds in per-function fragments: one finding per
    /// line, tab-separated fields
    /// `code \t severity \t span \t func \t message` with backslash
    /// escapes for tabs/newlines and `-` for a missing span.
    /// [`Diagnostics::from_wire`] inverts it exactly.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(d.code);
            out.push('\t');
            out.push_str(&d.severity.to_string());
            out.push('\t');
            match d.span {
                Some(s) => out.push_str(&format!("{}..{}", s.start, s.end)),
                None => out.push('-'),
            }
            out.push('\t');
            out.push_str(&wire_escape(&d.func));
            out.push('\t');
            out.push_str(&wire_escape(&d.message));
            out.push('\n');
        }
        out
    }

    /// Parses the [`Diagnostics::to_wire`] format. Codes are interned
    /// against the static table of codes this build can emit — a cached
    /// fragment carrying a code this build does not know is from an
    /// incompatible build and fails to decode (callers treat that like
    /// a corrupt fragment and recompile).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line: wrong field
    /// count, unknown code, unknown severity, or an unparseable span.
    pub fn from_wire(text: &str) -> Result<Diagnostics, String> {
        let mut out = Diagnostics::new();
        for (ln, line) in text.lines().enumerate() {
            let mut fields = line.splitn(5, '\t');
            let (Some(code), Some(sev), Some(span), Some(func), Some(message)) = (
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
            ) else {
                return Err(format!("diagnostic line {}: expected 5 fields", ln + 1));
            };
            let code = intern_code(code)
                .ok_or_else(|| format!("diagnostic line {}: unknown code `{code}`", ln + 1))?;
            let severity = match sev {
                "error" => Severity::Error,
                "warning" => Severity::Warning,
                other => {
                    return Err(format!(
                        "diagnostic line {}: unknown severity `{other}`",
                        ln + 1
                    ))
                }
            };
            let span = if span == "-" {
                None
            } else {
                let (s, e) = span
                    .split_once("..")
                    .ok_or_else(|| format!("diagnostic line {}: bad span `{span}`", ln + 1))?;
                let s: u32 = s
                    .parse()
                    .map_err(|_| format!("diagnostic line {}: bad span start", ln + 1))?;
                let e: u32 = e
                    .parse()
                    .map_err(|_| format!("diagnostic line {}: bad span end", ln + 1))?;
                if s > e {
                    return Err(format!("diagnostic line {}: inverted span", ln + 1));
                }
                Some(Span::new(s, e))
            };
            out.items.push(Diagnostic {
                code,
                severity,
                func: wire_unescape(func),
                message: wire_unescape(message),
                span,
            });
        }
        Ok(out)
    }

    /// Renders the findings as a JSON array, one object per line.
    ///
    /// `matc` itself renders findings with the root crate's
    /// `stats::audit_json`, which writes the same bytes from a `Json`
    /// tree and pins them against this copy. This one stays only
    /// because the stand-alone benchmark package (`perfbench/`) times
    /// it in its layer replay; it goes when that package moves to
    /// `stats::audit_json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            out.push_str(&format!("\"code\":\"{}\",", d.code));
            out.push_str(&format!("\"severity\":\"{}\",", d.severity));
            out.push_str(&format!("\"func\":\"{}\",", json_escape(&d.func)));
            out.push_str(&format!("\"message\":\"{}\"", json_escape(&d.message)));
            match d.span {
                Some(s) => out.push_str(&format!(
                    ",\"span\":{{\"start\":{},\"end\":{}}}",
                    s.start, s.end
                )),
                None => out.push_str(",\"span\":null"),
            }
            out.push('}');
        }
        if !self.items.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// Every stable finding code this build can emit (`A…` plan audits,
/// `L…` lints). [`Diagnostics::from_wire`] interns decoded codes
/// against this table so `Diagnostic::code` stays `&'static str`.
const STATIC_CODES: &[&str] = &[
    "A101", "A102", "A103", "A201", "A301", "A302", "A303", "A304", "A305", "A401", "A501", "A502",
    "A503", "L001", "L002", "L003", "L004",
];

fn intern_code(code: &str) -> Option<&'static str> {
    STATIC_CODES.iter().copied().find(|c| *c == code)
}

/// Escapes tabs, newlines and backslashes for one wire-format field.
fn wire_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`wire_escape`] (a trailing lone backslash is kept as-is).
fn wire_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_render() {
        let mut d = Diagnostics::new();
        d.error("A101", "f", "slot clash", Some(Span::new(3, 9)));
        d.warning("L001", "f", "unused `x`", None);
        assert_eq!(d.len(), 2);
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.warning_count(), 1);
        assert!(d.has_errors());
        let r = d.render();
        assert!(r.contains("error[A101] f: slot clash (bytes 3..9)"), "{r}");
        assert!(r.contains("warning[L001] f: unused `x`"), "{r}");
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let mut d = Diagnostics::new();
        d.error("A201", "f", "bad \"quote\"\nnewline", None);
        let j = d.to_json();
        assert!(j.contains(r#""message":"bad \"quote\"\nnewline""#), "{j}");
        assert!(j.contains(r#""span":null"#), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(Diagnostics::new().to_json(), "[]");
    }

    #[test]
    fn wire_format_roundtrips_exactly() {
        let mut d = Diagnostics::new();
        d.error("A101", "f", "slot clash", Some(Span::new(3, 9)));
        d.warning("L001", "g", "odd\tname \\ with\nescapes", None);
        let wire = d.to_wire();
        let back = Diagnostics::from_wire(&wire).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back, d, "roundtrip is lossless");
        assert_eq!(back.to_wire(), wire, "re-encoding is stable");
        assert_eq!(Diagnostics::from_wire("").unwrap().len(), 0);
    }

    #[test]
    fn wire_format_rejects_unknown_codes_and_garbage() {
        let err = Diagnostics::from_wire("Z999\terror\t-\tf\tmsg").unwrap_err();
        assert!(err.contains("unknown code"), "{err}");
        let err = Diagnostics::from_wire("A101\tfatal\t-\tf\tmsg").unwrap_err();
        assert!(err.contains("unknown severity"), "{err}");
        let err = Diagnostics::from_wire("A101\terror\t9..3\tf\tmsg").unwrap_err();
        assert!(err.contains("inverted span"), "{err}");
        let err = Diagnostics::from_wire("A101\terror\t-\tf").unwrap_err();
        assert!(err.contains("expected 5 fields"), "{err}");
    }

    #[test]
    fn every_emittable_code_is_in_the_static_table() {
        // The wire decoder must recognize every code the auditor and
        // the lints can emit, or warm fragment reads would spuriously
        // fail. Scan this crate's sources for code literals.
        for src in [
            include_str!("audit.rs"),
            include_str!("lint.rs"),
            include_str!("diagnostics.rs"),
        ] {
            let mut rest = src;
            while let Some(i) = rest.find('"') {
                rest = &rest[i + 1..];
                let Some(j) = rest.find('"') else { break };
                let lit = &rest[..j];
                rest = &rest[j + 1..];
                if lit.len() == 4
                    && (lit.starts_with('A') || lit.starts_with('L'))
                    && lit[1..].chars().all(|c| c.is_ascii_digit())
                {
                    assert!(
                        intern_code(lit).is_some(),
                        "code {lit} missing from STATIC_CODES"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Diagnostics::new();
        a.warning("L002", "f", "one", None);
        let mut b = Diagnostics::new();
        b.error("A301", "g", "two", None);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(a.has_errors());
    }
}
