//! Comparing a compiled program's output with its expected output.
//!
//! The planned VM shares the interpreter's Rust numerics, so its output
//! must match the interpreter-blessed file byte for byte. Native
//! binaries print through libm, which may differ from Rust's `std` in
//! the last unit of a printed digit; [`outputs_agree`] tolerates exactly
//! that (the same rule as `crates/codegen/tests/c_run.rs`).

/// Relative tolerance for a numeric token that differs in print.
const REL_TOL: f64 = 1e-9;

/// Token-level comparison: identical text, or the same whitespace-split
/// tokens where every differing pair parses as numbers within a
/// relative tolerance of `1e-9`.
pub fn outputs_agree(got: &str, want: &str) -> bool {
    if got == want {
        return true;
    }
    let tg: Vec<&str> = got.split_whitespace().collect();
    let tw: Vec<&str> = want.split_whitespace().collect();
    if tg.len() != tw.len() {
        return false;
    }
    tg.iter().zip(&tw).all(|(x, y)| {
        x == y
            || match (x.parse::<f64>(), y.parse::<f64>()) {
                (Ok(u), Ok(v)) => (u - v).abs() / u.abs().max(v.abs()).max(1.0) <= REL_TOL,
                _ => false,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_agrees() {
        assert!(outputs_agree("checksum = 1.5\n", "checksum = 1.5\n"));
    }

    #[test]
    fn last_digit_rounding_agrees() {
        assert!(outputs_agree(
            "sum = 0.123456789012\n",
            "sum = 0.123456789013\n"
        ));
        assert!(outputs_agree("x 1e10\n", "x 10000000000.000001\n"));
    }

    #[test]
    fn real_differences_disagree() {
        assert!(!outputs_agree("sum = 0.1234\n", "sum = 0.1235\n"));
        assert!(!outputs_agree("a b\n", "a c\n"));
        assert!(!outputs_agree("1 2\n", "1 2 3\n"));
        assert!(!outputs_agree("", "0\n"));
    }
}
