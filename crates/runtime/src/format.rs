//! Output formatting: `disp`, variable echo, and `fprintf`.

use crate::error::{err, Result};
use crate::value::{Class, Value};
use std::fmt;

/// Formats a value the way `disp` would (short format).
pub fn format_value(f: &mut fmt::Formatter<'_>, v: &Value) -> fmt::Result {
    f.write_str(&display_string(v))
}

/// Renders a value as `disp` output.
pub fn display_string(v: &Value) -> String {
    if v.is_empty() {
        return "     []".to_string();
    }
    if v.class() == Class::Char && v.dims()[0] == 1 {
        return v.re().iter().map(|&b| b as u8 as char).collect();
    }
    if v.is_scalar() {
        return format!("    {}", fmt_elem(v.at(0)));
    }
    // Matrices print column-major data in row-major order, page by page.
    let d = v.dims();
    let (rows, cols) = (d[0], d[1]);
    let pages: usize = d[2..].iter().product::<usize>().max(1);
    let mut out = String::new();
    for p in 0..pages {
        if pages > 1 {
            out.push_str(&format!("(:,:,{})\n", p + 1));
        }
        for r in 0..rows {
            out.push_str("   ");
            for c in 0..cols {
                let idx = r + rows * c + rows * cols * p;
                out.push_str(&format!(" {:>10}", fmt_elem(v.at(idx))));
            }
            out.push('\n');
        }
    }
    out.pop();
    out
}

fn fmt_elem((re, im): (f64, f64)) -> String {
    if im == 0.0 {
        fmt_num(re)
    } else if im < 0.0 {
        format!("{} - {}i", fmt_num(re), fmt_num(-im))
    } else {
        format!("{} + {}i", fmt_num(re), fmt_num(im))
    }
}

fn fmt_num(x: f64) -> String {
    if let Some(s) = nonfinite(x) {
        s.to_string()
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() < 1e-4 {
        // A nonzero below what `%.4f` shows, as C's `%.4e` spells it: a
        // signed exponent of at least two digits (`1.0000e-05`).
        let s = format!("{x:.4e}");
        let (mantissa, exp) = s.split_once('e').expect("`{:e}` has an exponent");
        let exp: i32 = exp.parse().expect("`{:e}` exponent");
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{mantissa}e{sign}{:02}", exp.abs())
    } else {
        format!("{x:.4}")
    }
}

/// MATLAB renders non-finite values as `NaN` / `Inf` / `-Inf` in every
/// conversion (unlike C's `nan`/`inf`).
fn nonfinite(x: f64) -> Option<&'static str> {
    if x.is_nan() {
        Some("NaN")
    } else if x == f64::INFINITY {
        Some("Inf")
    } else if x == f64::NEG_INFINITY {
        Some("-Inf")
    } else {
        None
    }
}

/// Implements `fprintf(fmt, args...)`: C-style conversions `%d %i %u %f
/// %e %g %s %c %%` with optional width/precision, and the escapes `\n
/// \t \\`. Array arguments feed conversions elementwise, and the format
/// recycles while arguments remain (MATLAB behavior).
///
/// # Errors
///
/// Fails on unsupported conversions.
pub fn fprintf(fmt: &Value, args: &[&Value]) -> Result<String> {
    let template: String = fmt.re().iter().map(|&b| b as u8 as char).collect();
    // Flatten the argument elements into a queue.
    let mut queue: Vec<(f64, f64, Class)> = Vec::new();
    for a in args {
        for i in 0..a.numel() {
            let (r, m) = a.at(i);
            queue.push((r, m, a.class()));
        }
    }
    let mut qi = 0;
    let mut out = String::new();
    loop {
        let consumed_before = qi;
        render_once(&template, &mut out, &mut qi, &queue)?;
        // Recycle only while arguments remain and progress is made.
        if qi >= queue.len() || qi == consumed_before {
            break;
        }
    }
    Ok(out)
}

fn render_once(
    template: &str,
    out: &mut String,
    qi: &mut usize,
    queue: &[(f64, f64, Class)],
) -> Result<()> {
    let chars: Vec<char> = template.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '\\' if i + 1 < chars.len() => {
                i += 1;
                match chars[i] {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    '\\' => out.push('\\'),
                    c => {
                        out.push('\\');
                        out.push(c);
                    }
                }
                i += 1;
            }
            '%' if i + 1 < chars.len() && chars[i + 1] == '%' => {
                out.push('%');
                i += 2;
            }
            '%' => {
                // Parse %[-][width][.prec]conv
                let start = i;
                i += 1;
                let mut left = false;
                if i < chars.len() && chars[i] == '-' {
                    left = true;
                    i += 1;
                }
                let mut width = String::new();
                while i < chars.len() && chars[i].is_ascii_digit() {
                    width.push(chars[i]);
                    i += 1;
                }
                let mut prec = String::new();
                if i < chars.len() && chars[i] == '.' {
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        prec.push(chars[i]);
                        i += 1;
                    }
                }
                let conv = if i < chars.len() {
                    chars[i]
                } else {
                    return err("incomplete conversion in format string");
                };
                i += 1;
                let width: usize = width.parse().unwrap_or(0);
                let prec: Option<usize> = if prec.is_empty() {
                    None
                } else {
                    Some(prec.parse().unwrap_or(6))
                };
                let arg = queue.get(*qi).copied();
                let text = match conv {
                    'd' | 'i' | 'u' => {
                        let (r, _, _) = arg.unwrap_or((0.0, 0.0, Class::Double));
                        *qi += 1;
                        if let Some(s) = nonfinite(r) {
                            s.to_string()
                        } else if r == r.trunc() {
                            format!("{}", r as i64)
                        } else {
                            format!("{r}")
                        }
                    }
                    'f' => {
                        let (r, _, _) = arg.unwrap_or((0.0, 0.0, Class::Double));
                        *qi += 1;
                        match nonfinite(r) {
                            Some(s) => s.to_string(),
                            None => format!("{:.*}", prec.unwrap_or(6), r),
                        }
                    }
                    'e' => {
                        let (r, _, _) = arg.unwrap_or((0.0, 0.0, Class::Double));
                        *qi += 1;
                        match nonfinite(r) {
                            Some(s) => s.to_string(),
                            None => format!("{:.*e}", prec.unwrap_or(6), r),
                        }
                    }
                    'g' => {
                        let (r, _, _) = arg.unwrap_or((0.0, 0.0, Class::Double));
                        *qi += 1;
                        match nonfinite(r) {
                            Some(s) => s.to_string(),
                            None => format_g(r, prec.unwrap_or(6)),
                        }
                    }
                    'c' => {
                        let (r, _, _) = arg.unwrap_or((0.0, 0.0, Class::Double));
                        *qi += 1;
                        (r as u8 as char).to_string()
                    }
                    's' => {
                        // Consume the rest of the current argument run as
                        // characters; simplest useful model: one element
                        // = one char unless Char class, where the whole
                        // remaining char run is used.
                        let mut s = String::new();
                        while let Some((r, _, class)) = queue.get(*qi).copied() {
                            s.push(r as u8 as char);
                            *qi += 1;
                            if class != Class::Char {
                                break;
                            }
                        }
                        s
                    }
                    other => {
                        return err(format!("unsupported conversion `%{other}` at byte {start}"));
                    }
                };
                if text.len() < width {
                    let pad = " ".repeat(width - text.len());
                    if left {
                        out.push_str(&text);
                        out.push_str(&pad);
                    } else {
                        out.push_str(&pad);
                        out.push_str(&text);
                    }
                } else {
                    out.push_str(&text);
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    Ok(())
}

/// `%g`: shortest of `%e`/`%f` with trailing zeros trimmed.
fn format_g(x: f64, prec: usize) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let exp = x.abs().log10().floor() as i32;
    if exp < -4 || exp >= prec as i32 {
        let s = format!("{:.*e}", prec.saturating_sub(1), x);
        trim_exp(&s)
    } else {
        let decimals = (prec as i32 - 1 - exp).max(0) as usize;
        let s = format!("{x:.*}", decimals);
        trim_zeros(&s)
    }
}

fn trim_zeros(s: &str) -> String {
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s.to_string()
    }
}

fn trim_exp(s: &str) -> String {
    match s.split_once('e') {
        Some((m, e)) => format!("{}e{}", trim_zeros(m), e),
        None => s.to_string(),
    }
}

/// Renders a variable echo (`x = ...` for non-semicolon statements).
pub fn echo(name: &str, v: &Value) -> String {
    format!("{name} =\n{}\n", display_string(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_display() {
        assert_eq!(display_string(&Value::scalar(3.0)), "    3");
        assert_eq!(display_string(&Value::scalar(2.5)), "    2.5000");
        assert_eq!(display_string(&Value::empty()), "     []");
    }

    #[test]
    fn string_display() {
        assert_eq!(display_string(&Value::string("hello")), "hello");
    }

    #[test]
    fn complex_display() {
        let s = display_string(&Value::complex_scalar(1.0, -2.0));
        assert!(s.contains("1 - 2i"), "{s}");
    }

    #[test]
    fn fprintf_basics() {
        let fmt = Value::string("x = %d, y = %.2f\n");
        let out = fprintf(&fmt, &[&Value::scalar(42.0), &Value::scalar(1.5)]).unwrap();
        assert_eq!(out, "x = 42, y = 1.50\n");
    }

    #[test]
    fn fprintf_width_and_alignment() {
        let fmt = Value::string("[%6.2f][%-6d]");
        let out = fprintf(&fmt, &[&Value::scalar(5.34159), &Value::scalar(7.0)]).unwrap();
        assert_eq!(out, "[  5.34][7     ]");
    }

    #[test]
    fn fprintf_g_format() {
        let fmt = Value::string("%g %g %g");
        let out = fprintf(
            &fmt,
            &[
                &Value::scalar(0.5),
                &Value::scalar(100000.0),
                &Value::scalar(1.5e-7),
            ],
        )
        .unwrap();
        assert_eq!(out, "0.5 100000 1.5e-7");
    }

    #[test]
    fn fprintf_recycles_over_array() {
        let fmt = Value::string("%d\n");
        let v = Value::row(vec![1.0, 2.0, 3.0]);
        let out = fprintf(&fmt, &[&v]).unwrap();
        assert_eq!(out, "1\n2\n3\n");
    }

    #[test]
    fn fprintf_percent_and_escapes() {
        let fmt = Value::string("100%%\tok\n");
        assert_eq!(fprintf(&fmt, &[]).unwrap(), "100%\tok\n");
    }

    #[test]
    fn fprintf_string_conversion() {
        let fmt = Value::string("name: %s!");
        let out = fprintf(&fmt, &[&Value::string("ada")]).unwrap();
        assert_eq!(out, "name: ada!");
    }

    #[test]
    fn unsupported_conversion_errors() {
        let fmt = Value::string("%q");
        assert!(fprintf(&fmt, &[&Value::scalar(1.0)]).is_err());
    }

    #[test]
    fn matrix_display_row_major_reading() {
        let m = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s = display_string(&m);
        let first_line = s.lines().next().unwrap();
        assert!(first_line.contains('1') && first_line.contains('3'), "{s}");
    }
}

#[cfg(test)]
mod nonfinite_tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn display_renders_matlab_style_nonfinite() {
        assert_eq!(display_string(&Value::scalar(f64::INFINITY)), "    Inf");
        assert_eq!(
            display_string(&Value::scalar(f64::NEG_INFINITY)),
            "    -Inf"
        );
        assert_eq!(display_string(&Value::scalar(f64::NAN)), "    NaN");
        let m = Value::row(vec![f64::INFINITY, 2.0]);
        assert!(display_string(&m).contains("Inf"));
    }

    #[test]
    fn fprintf_nonfinite_in_every_conversion() {
        let fmt = Value::string("%f %d %e %g");
        let nan = Value::scalar(f64::NAN);
        let inf = Value::scalar(f64::INFINITY);
        let ninf = Value::scalar(f64::NEG_INFINITY);
        let s = fprintf(&fmt, &[&nan, &inf, &ninf, &nan]).unwrap();
        assert_eq!(s, "NaN Inf -Inf NaN");
    }

    #[test]
    fn fprintf_nonfinite_respects_width() {
        let fmt = Value::string("%6f|");
        let inf = Value::scalar(f64::INFINITY);
        assert_eq!(fprintf(&fmt, &[&inf]).unwrap(), "   Inf|");
    }

    #[test]
    fn complex_nonfinite_display() {
        let v = Value::from_complex_parts(vec![1, 1], vec![f64::INFINITY], vec![-1.0]);
        assert_eq!(display_string(&v), "    Inf - 1i");
    }
}
