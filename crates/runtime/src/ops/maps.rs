//! Elementwise maps: the transcendental and rounding builtins.

use crate::value::Value;

fn map_real(a: &Value, k: fn(f64) -> f64) -> Value {
    let re = a.re().iter().map(|x| k(*x)).collect();
    Value::from_parts(a.dims().to_vec(), re)
}

fn map_complex(a: &Value, k: fn((f64, f64)) -> (f64, f64)) -> Value {
    let n = a.numel();
    let mut re = Vec::with_capacity(n);
    let mut im = Vec::with_capacity(n);
    for i in 0..n {
        let (r, m) = k(a.at(i));
        re.push(r);
        im.push(m);
    }
    Value::from_complex_parts(a.dims().to_vec(), re, im)
}

/// `sqrt(x)`, complex when any element is negative or complex. Uses the
/// direct complex square root (`sqrt(-4)` is exactly `2i`, as in
/// MATLAB, unlike `(-4)^0.5` which goes through the polar form). A real
/// NaN is not negative: it stays a real NaN.
pub fn sqrt(a: &Value) -> Value {
    if !a.is_complex() && a.re().iter().all(|x| *x >= 0.0 || x.is_nan()) {
        return map_real(a, f64::sqrt);
    }
    map_complex(a, |(re, im)| {
        if im == 0.0 {
            if re >= 0.0 || re.is_nan() {
                (re.sqrt(), 0.0)
            } else {
                (0.0, (-re).sqrt())
            }
        } else {
            let r = (re * re + im * im).sqrt();
            let u = ((r + re) / 2.0).sqrt();
            let v = ((r - re) / 2.0).sqrt();
            (u, if im < 0.0 { -v } else { v })
        }
    })
    .normalized()
}

/// `exp(x)`.
pub fn exp(a: &Value) -> Value {
    if !a.is_complex() {
        return map_real(a, f64::exp);
    }
    map_complex(a, |(r, i)| {
        let m = r.exp();
        (m * i.cos(), m * i.sin())
    })
    .normalized()
}

/// `log(x)`, complex for nonpositive input; a real NaN stays a real NaN.
pub fn log(a: &Value) -> Value {
    if !a.is_complex() && a.re().iter().all(|x| *x > 0.0 || x.is_nan()) {
        return map_real(a, f64::ln);
    }
    map_complex(a, |(r, i)| {
        if i == 0.0 && r.is_nan() {
            return (r, 0.0);
        }
        let mag = (r * r + i * i).sqrt();
        (mag.ln(), i.atan2(r))
    })
    .normalized()
}

/// `abs(x)` — magnitude; real even for complex input.
pub fn abs(a: &Value) -> Value {
    match a.im() {
        None => map_real(a, f64::abs),
        Some(im) => {
            let re = a
                .re()
                .iter()
                .zip(im)
                .map(|(r, i)| (r * r + i * i).sqrt())
                .collect();
            Value::from_parts(a.dims().to_vec(), re)
        }
    }
}

/// `sin(x)` (complex-capable).
pub fn sin(a: &Value) -> Value {
    if !a.is_complex() {
        return map_real(a, f64::sin);
    }
    map_complex(a, |(r, i)| (r.sin() * i.cosh(), r.cos() * i.sinh())).normalized()
}

/// `cos(x)` (complex-capable).
pub fn cos(a: &Value) -> Value {
    if !a.is_complex() {
        return map_real(a, f64::cos);
    }
    map_complex(a, |(r, i)| (r.cos() * i.cosh(), -r.sin() * i.sinh())).normalized()
}

/// `tan(x)` (complex-capable, as the paper's Example 1 requires).
pub fn tan(a: &Value) -> Value {
    if !a.is_complex() {
        return map_real(a, f64::tan);
    }
    map_complex(a, |(r, i)| {
        // tan(z) = sin(z)/cos(z); use the stable closed form.
        let d = (2.0 * r).cos() + (2.0 * i).cosh();
        ((2.0 * r).sin() / d, (2.0 * i).sinh() / d)
    })
    .normalized()
}

/// `atan(x)` (real only — complex atan unsupported by the subset).
pub fn atan(a: &Value) -> Value {
    map_real(a, f64::atan)
}

/// `floor(x)` (applied to both parts for complex, as MATLAB).
pub fn floor(a: &Value) -> Value {
    round_like(a, f64::floor)
}

/// `ceil(x)`.
pub fn ceil(a: &Value) -> Value {
    round_like(a, f64::ceil)
}

/// `round(x)` — MATLAB rounds halves away from zero.
pub fn round(a: &Value) -> Value {
    round_like(a, round_real)
}

/// `round` of one real: halves go away from zero.
pub fn round_real(x: f64) -> f64 {
    if x >= 0.0 {
        (x + 0.5).floor()
    } else {
        (x - 0.5).ceil()
    }
}

/// `fix(x)` — truncation toward zero.
pub fn fix(a: &Value) -> Value {
    round_like(a, f64::trunc)
}

fn round_like(a: &Value, k: fn(f64) -> f64) -> Value {
    match a.im() {
        None => map_real(a, k),
        Some(im) => Value::from_complex_parts(
            a.dims().to_vec(),
            a.re().iter().map(|x| k(*x)).collect(),
            im.iter().map(|x| k(*x)).collect(),
        )
        .normalized(),
    }
}

/// `sign(x)` — for complex input MATLAB's `z / |z|` (and 0 at 0).
pub fn sign(a: &Value) -> Value {
    match a.im() {
        None => map_real(a, sign_real),
        Some(_) => map_complex(a, |(r, i)| {
            let m = (r * r + i * i).sqrt();
            if m == 0.0 {
                (0.0, 0.0)
            } else {
                (r / m, i / m)
            }
        })
        .normalized(),
    }
}

/// `sign` of one real: 1, -1, or 0 (NaN for NaN).
pub fn sign_real(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// `real(x)`.
pub fn real(a: &Value) -> Value {
    Value::from_parts(a.dims().to_vec(), a.re().to_vec())
}

/// `imag(x)`.
pub fn imag(a: &Value) -> Value {
    let im = match a.im() {
        Some(im) => im.to_vec(),
        None => vec![0.0; a.numel()],
    };
    Value::from_parts(a.dims().to_vec(), im)
}

/// `conj(x)`.
pub fn conj(a: &Value) -> Value {
    match a.im() {
        None => a.clone(),
        Some(im) => Value::from_complex_parts(
            a.dims().to_vec(),
            a.re().to_vec(),
            im.iter().map(|x| -x).collect(),
        )
        .normalized(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_branches() {
        let r = sqrt(&Value::scalar(9.0));
        assert_eq!(r.as_scalar(), Some(3.0));
        let c = sqrt(&Value::scalar(-4.0));
        assert!(c.is_complex());
        let (re, im) = c.at(0);
        assert!(re.abs() < 1e-12);
        assert!((im - 2.0).abs() < 1e-12);
    }

    #[test]
    fn log_of_negative_is_complex() {
        let c = log(&Value::scalar(-1.0));
        assert!(c.is_complex());
        let (re, im) = c.at(0);
        assert!(re.abs() < 1e-12);
        assert!((im - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn abs_of_complex_is_magnitude() {
        let v = Value::complex_scalar(3.0, 4.0);
        assert_eq!(abs(&v).as_scalar(), Some(5.0));
    }

    #[test]
    fn tan_of_complex() {
        // The paper's Example 1 path: tan of a COMPLEX array.
        let v = Value::complex_scalar(1.0, 1.0);
        let t = tan(&v);
        assert!(t.is_complex());
        let (re, im) = t.at(0);
        // Reference values for tan(1+1i).
        assert!((re - 0.2717525853195118).abs() < 1e-12, "{re}");
        assert!((im - 1.0839233273386946).abs() < 1e-12, "{im}");
    }

    #[test]
    fn rounding_family() {
        let v = Value::row(vec![-1.5, -0.5, 0.5, 1.5, 2.3]);
        assert_eq!(round(&v).re(), &[-2.0, -1.0, 1.0, 2.0, 2.0]);
        assert_eq!(fix(&v).re(), &[-1.0, -0.0, 0.0, 1.0, 2.0]);
        assert_eq!(floor(&v).re(), &[-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert_eq!(ceil(&v).re(), &[-1.0, -0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn complex_components() {
        let v = Value::complex_scalar(3.0, -4.0);
        assert_eq!(real(&v).as_scalar(), Some(3.0));
        assert_eq!(imag(&v).as_scalar(), Some(-4.0));
        assert_eq!(conj(&v).at(0), (3.0, 4.0));
        assert_eq!(imag(&Value::scalar(7.0)).as_scalar(), Some(0.0));
    }

    #[test]
    fn sign_values() {
        let v = Value::row(vec![-3.0, 0.0, 9.0]);
        assert_eq!(sign(&v).re(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn exp_identity() {
        // e^{iπ} = -1.
        let v = Value::complex_scalar(0.0, std::f64::consts::PI);
        let r = exp(&v);
        let (re, im) = r.at(0);
        assert!((re + 1.0).abs() < 1e-12);
        assert!(im.abs() < 1e-12);
    }
}

#[cfg(test)]
mod identity_tests {
    use super::*;

    fn close(a: (f64, f64), b: (f64, f64)) -> bool {
        (a.0 - b.0).abs() < 1e-10 && (a.1 - b.1).abs() < 1e-10
    }

    #[test]
    fn exp_log_round_trips_complex() {
        let z = Value::complex_scalar(1.3, -0.7);
        let back = exp(&log(&z));
        assert!(close(back.at(0), z.at(0)), "{:?}", back.at(0));
    }

    #[test]
    fn log_of_negative_real_is_complex() {
        let l = log(&Value::scalar(-1.0));
        assert!(l.is_complex());
        let (re, im) = l.at(0);
        assert!(re.abs() < 1e-12, "log(-1) = iπ, got re {re}");
        assert!((im - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn abs_of_complex_is_modulus() {
        let z = Value::complex_scalar(3.0, -4.0);
        let a = abs(&z);
        assert!(!a.is_complex());
        assert_eq!(a.as_scalar(), Some(5.0));
    }

    #[test]
    fn pythagorean_identity_complex() {
        let z = Value::complex_scalar(0.4, 0.9);
        let s = sin(&z);
        let c = cos(&z);
        // sin² + cos² = 1 elementwise.
        let (sr, si) = s.at(0);
        let (cr, ci) = c.at(0);
        let s2 = (sr * sr - si * si, 2.0 * sr * si);
        let c2 = (cr * cr - ci * ci, 2.0 * cr * ci);
        assert!(close((s2.0 + c2.0, s2.1 + c2.1), (1.0, 0.0)));
    }

    #[test]
    fn tan_is_sin_over_cos() {
        let z = Value::complex_scalar(0.3, 0.5);
        let t = tan(&z).at(0);
        let (sr, si) = sin(&z).at(0);
        let (cr, ci) = cos(&z).at(0);
        let d = cr * cr + ci * ci;
        let q = ((sr * cr + si * ci) / d, (si * cr - sr * ci) / d);
        assert!(close(t, q), "{t:?} vs {q:?}");
    }

    #[test]
    fn round_halves_away_from_zero() {
        let v = Value::row(vec![0.5, -0.5, 1.5, -1.5, 2.4, -2.4]);
        let r = round(&v);
        assert_eq!(r.re(), &[1.0, -1.0, 2.0, -2.0, 2.0, -2.0]);
    }

    #[test]
    fn fix_truncates_toward_zero() {
        let v = Value::row(vec![1.7, -1.7, 0.2, -0.2]);
        assert_eq!(fix(&v).re(), &[1.0, -1.0, 0.0, -0.0]);
    }

    #[test]
    fn rounding_applies_to_both_complex_parts() {
        let z = Value::complex_scalar(1.6, -2.3);
        let f = floor(&z);
        assert_eq!(f.at(0), (1.0, -3.0));
        let c = ceil(&z);
        assert_eq!(c.at(0), (2.0, -2.0));
    }

    #[test]
    fn conj_then_conj_is_identity() {
        let z = Value::complex_scalar(2.5, -3.25);
        assert_eq!(conj(&conj(&z)).at(0), z.at(0));
        // conj of a real value stays real.
        let r = Value::scalar(5.0);
        assert!(!conj(&r).is_complex());
    }

    #[test]
    fn real_imag_decompose() {
        let z = Value::complex_scalar(7.0, -2.0);
        assert_eq!(real(&z).as_scalar(), Some(7.0));
        assert_eq!(imag(&z).as_scalar(), Some(-2.0));
        assert_eq!(imag(&Value::scalar(4.0)).as_scalar(), Some(0.0));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(r, i) in &[(2.0, 3.0), (-1.0, 4.0), (-5.0, -2.0), (0.0, 1.0)] {
            let z = Value::complex_scalar(r, i);
            let s = sqrt(&z);
            let (sr, si) = s.at(0);
            let sq = (sr * sr - si * si, 2.0 * sr * si);
            assert!(close(sq, (r, i)), "sqrt({r}+{i}i)² = {sq:?}");
        }
    }
}

#[cfg(test)]
mod sign_tests {
    use super::*;

    #[test]
    fn sign_real_triple() {
        let v = Value::row(vec![3.0, -2.0, 0.0]);
        assert_eq!(sign(&v).re(), &[1.0, -1.0, 0.0]);
        assert!(!sign(&v).is_complex());
    }

    #[test]
    fn sign_complex_is_unit_modulus() {
        let z = Value::complex_scalar(3.0, -4.0);
        let s = sign(&z);
        let (r, i) = s.at(0);
        assert!(((r * r + i * i).sqrt() - 1.0).abs() < 1e-12);
        assert_eq!((r, i), (0.6, -0.8));
        // Zero maps to zero even on the complex path.
        let mixed = Value::from_complex_parts(vec![1, 2], vec![0.0, 1.0], vec![0.0, 1.0]);
        let sm = sign(&mixed);
        assert_eq!(sm.at(0), (0.0, 0.0));
    }
}
