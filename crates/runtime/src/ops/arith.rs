//! Elementwise arithmetic, comparisons and logical operations, with
//! MATLAB scalar expansion and complex promotion.

use crate::error::{err, Result};
use crate::value::{Class, Value};

/// A binary elementwise kernel over complex numbers.
type CKernel = fn((f64, f64), (f64, f64)) -> (f64, f64);

fn cadd(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 + b.0, a.1 + b.1)
}
fn csub(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 - b.0, a.1 - b.1)
}
fn cmul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}
fn cdiv(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let d = b.0 * b.0 + b.1 * b.1;
    ((a.0 * b.0 + a.1 * b.1) / d, (a.1 * b.0 - a.0 * b.1) / d)
}

/// Complex power via polar form (falls back to fast paths for real
/// integral exponents).
pub(crate) fn cpow(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    if a.1 == 0.0 && b.1 == 0.0 {
        let (x, p) = (a.0, b.0);
        if x >= 0.0 || p.fract() == 0.0 {
            return (x.powf(p), 0.0);
        }
        // Negative base, fractional exponent: complex result.
        let r = (-x).powf(p);
        let theta = std::f64::consts::PI * p;
        return (r * theta.cos(), r * theta.sin());
    }
    // General case: exp(b * log(a)).
    let r = (a.0 * a.0 + a.1 * a.1).sqrt();
    if r == 0.0 {
        return (0.0, 0.0);
    }
    let theta = a.1.atan2(a.0);
    let (lr, li) = (r.ln(), theta);
    let (er, ei) = (b.0 * lr - b.1 * li, b.0 * li + b.1 * lr);
    let mag = er.exp();
    (mag * ei.cos(), mag * ei.sin())
}

/// The shape-compatibility check for elementwise operations: equal
/// shapes, or one operand scalar.
fn ew_dims<'v>(a: &'v Value, b: &'v Value, opname: &str) -> Result<Vec<usize>> {
    if a.is_scalar() {
        Ok(b.dims().to_vec())
    } else if b.is_scalar() || a.dims() == b.dims() {
        Ok(a.dims().to_vec())
    } else {
        err(format!(
            "nonconformant operands for `{opname}`: {:?} vs {:?}",
            a.dims(),
            b.dims()
        ))
    }
}

fn ew_complex(a: &Value, b: &Value, dims: Vec<usize>, k: CKernel) -> Value {
    let n: usize = dims.iter().product();
    let mut re = Vec::with_capacity(n);
    let mut im = Vec::with_capacity(n);
    let (sa, sb) = (a.is_scalar(), b.is_scalar());
    for i in 0..n {
        let x = a.at(if sa { 0 } else { i });
        let y = b.at(if sb { 0 } else { i });
        let (r, m) = k(x, y);
        re.push(r);
        im.push(m);
    }
    Value::from_complex_parts(dims, re, im)
}

fn ew_real(a: &Value, b: &Value, dims: Vec<usize>, k: fn(f64, f64) -> f64) -> Value {
    let n: usize = dims.iter().product();
    let mut re = Vec::with_capacity(n);
    let (sa, sb) = (a.is_scalar(), b.is_scalar());
    let (ar, br) = (a.re(), b.re());
    for i in 0..n {
        re.push(k(ar[if sa { 0 } else { i }], br[if sb { 0 } else { i }]));
    }
    Value::from_parts(dims, re)
}

macro_rules! ew_op {
    ($(#[$doc:meta])* $name:ident, $opname:literal, $real:expr, $cplx:expr) => {
        $(#[$doc])*
        pub fn $name(a: &Value, b: &Value) -> Result<Value> {
            let dims = ew_dims(a, b, $opname)?;
            Ok(if a.is_complex() || b.is_complex() {
                ew_complex(a, b, dims, $cplx).normalized()
            } else {
                ew_real(a, b, dims, $real)
            })
        }
    };
}

ew_op!(
    /// Array addition `a + b` (§2.3.1: always elementwise).
    add, "+", |x, y| x + y, cadd
);
ew_op!(
    /// Array subtraction `a - b`.
    sub, "-", |x, y| x - y, csub
);
ew_op!(
    /// Elementwise multiplication `a .* b`.
    elem_mul, ".*", |x, y| x * y, cmul
);
ew_op!(
    /// Elementwise right division `a ./ b`.
    elem_div, "./", |x, y| x / y, cdiv
);
ew_op!(
    /// Elementwise left division `a .\ b`.
    elem_left_div, ".\\", |x, y| y / x, |x, y| cdiv(y, x)
);
ew_op!(
    /// Elementwise power `a .^ b` (complex for negative base with
    /// fractional exponent).
    elem_pow, ".^", |x: f64, y: f64| x.powf(y), cpow
);

/// Elementwise power that promotes to complex when needed (`(-8)^(1/3)`
/// is complex in MATLAB).
pub fn elem_pow_auto(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, ".^")?;
    let needs_complex = a.is_complex() || b.is_complex() || {
        let n: usize = dims.iter().product();
        let (sa, sb) = (a.is_scalar(), b.is_scalar());
        (0..n).any(|i| {
            let x = a.re()[if sa { 0 } else { i }];
            let y = b.re()[if sb { 0 } else { i }];
            x < 0.0 && y.fract() != 0.0
        })
    };
    Ok(if needs_complex {
        ew_complex(a, b, dims, cpow).normalized()
    } else {
        ew_real(a, b, dims, |x, y| x.powf(y))
    })
}

macro_rules! cmp_op {
    ($(#[$doc:meta])* $name:ident, $opname:literal, $k:expr) => {
        $(#[$doc])*
        pub fn $name(a: &Value, b: &Value) -> Result<Value> {
            let dims = ew_dims(a, b, $opname)?;
            // Comparisons use real parts except ==/~= which consider the
            // imaginary parts; handled by the kernels below on pairs.
            let n: usize = dims.iter().product();
            let (sa, sb) = (a.is_scalar(), b.is_scalar());
            let mut re = Vec::with_capacity(n);
            let k: fn((f64, f64), (f64, f64)) -> bool = $k;
            for i in 0..n {
                let x = a.at(if sa { 0 } else { i });
                let y = b.at(if sb { 0 } else { i });
                re.push(if k(x, y) { 1.0 } else { 0.0 });
            }
            Ok(Value::from_parts(dims, re).with_class(Class::Logical))
        }
    };
}

cmp_op!(
    /// `a == b` (complex aware).
    eq, "==", |x, y| x == y
);
cmp_op!(
    /// `a ~= b` (complex aware).
    ne, "~=", |x, y| x != y
);
cmp_op!(
    /// `a < b` (real parts, as MATLAB).
    lt, "<", |x, y| x.0 < y.0
);
cmp_op!(
    /// `a <= b`.
    le, "<=", |x, y| x.0 <= y.0
);
cmp_op!(
    /// `a > b`.
    gt, ">", |x, y| x.0 > y.0
);
cmp_op!(
    /// `a >= b`.
    ge, ">=", |x, y| x.0 >= y.0
);
cmp_op!(
    /// Elementwise logical and `a & b`.
    and, "&", |x, y| (x.0 != 0.0 || x.1 != 0.0) && (y.0 != 0.0 || y.1 != 0.0)
);
cmp_op!(
    /// Elementwise logical or `a | b`.
    or, "|", |x, y| (x.0 != 0.0 || x.1 != 0.0) || (y.0 != 0.0 || y.1 != 0.0)
);

/// Unary negation `-a`.
pub fn neg(a: &Value) -> Value {
    let re = a.re().iter().map(|x| -x).collect();
    match a.im() {
        Some(im) => {
            Value::from_complex_parts(a.dims().to_vec(), re, im.iter().map(|x| -x).collect())
        }
        None => Value::from_parts(a.dims().to_vec(), re),
    }
}

/// Logical not `~a`.
pub fn not(a: &Value) -> Value {
    let im = a.im();
    let re = a
        .re()
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let m = im.map_or(0.0, |s| s[i]);
            if *x == 0.0 && m == 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Value::from_parts(a.dims().to_vec(), re).with_class(Class::Logical)
}

/// `mod(a, b)` — result takes `b`'s sign.
pub fn modulo(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, "mod")?;
    if a.is_complex() || b.is_complex() {
        return err("mod of complex values is not defined");
    }
    Ok(ew_real(a, b, dims, mod_real))
}

/// `mod(x, y)` on two reals: `x - y·floor(x/y)`, and `x` when `y` is 0.
pub fn mod_real(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        x
    } else {
        x - y * (x / y).floor()
    }
}

/// `rem(a, b)` — result takes `a`'s sign.
pub fn rem(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, "rem")?;
    if a.is_complex() || b.is_complex() {
        return err("rem of complex values is not defined");
    }
    Ok(ew_real(a, b, dims, rem_real))
}

/// `rem(x, y)` on two reals: `x - y·fix(x/y)`, and NaN when `y` is 0.
pub fn rem_real(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        f64::NAN
    } else {
        x - y * (x / y).trunc()
    }
}

/// Elementwise two-argument `max(a, b)` / `min(a, b)`.
pub fn max2(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, "max")?;
    Ok(ew_real(a, b, dims, f64::max))
}

/// See [`max2`].
pub fn min2(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, "min")?;
    Ok(ew_real(a, b, dims, f64::min))
}

/// `atan2(y, x)` elementwise.
pub fn atan2(a: &Value, b: &Value) -> Result<Value> {
    let dims = ew_dims(a, b, "atan2")?;
    Ok(ew_real(a, b, dims, f64::atan2))
}

/// In-place elementwise update `dst = kernel(dst, other)` for the
/// planned VM's allocation-free hot path. Only legal when `dst` is
/// non-scalar real with `other` equal-shaped or scalar real.
///
/// Generic over the kernel, so a caller that names its kernel once per
/// operator gets the element loop inlined with it (no indirect call per
/// element).
///
/// Returns `false` (leaving `dst` untouched) when the fast path does not
/// apply; the caller then falls back to the allocating version.
pub fn ew_assign(dst: &mut Value, other: &Value, k: impl Fn(f64, f64) -> f64) -> bool {
    if dst.is_complex() || other.is_complex() {
        return false;
    }
    if other.is_scalar() {
        let y = other.re()[0];
        for x in dst.re_mut() {
            *x = k(*x, y);
        }
        true
    } else if dst.dims() == other.dims() {
        let o = other.re();
        for (i, x) in dst.re_mut().iter_mut().enumerate() {
            *x = k(*x, o[i]);
        }
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Value {
        // [a b; c d]
        Value::from_parts(vec![2, 2], vec![a, c, b, d])
    }

    #[test]
    fn scalar_expansion() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let s = Value::scalar(10.0);
        let r = add(&a, &s).unwrap();
        assert_eq!(r.re(), &[11.0, 13.0, 12.0, 14.0]);
        let r2 = add(&s, &a).unwrap();
        assert_eq!(r.re(), r2.re());
    }

    #[test]
    fn nonconformant_errors() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = Value::row(vec![1.0, 2.0]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn complex_promotion() {
        let a = Value::complex_scalar(1.0, 2.0);
        let b = Value::scalar(3.0);
        let r = elem_mul(&a, &b).unwrap();
        assert_eq!(r.at(0), (3.0, 6.0));
        // (1+2i) * (1-2i) = 5
        let c = Value::complex_scalar(1.0, -2.0);
        let r2 = elem_mul(&a, &c).unwrap();
        assert!(!r2.is_complex(), "zero imaginary part dropped");
        assert_eq!(r2.as_scalar(), Some(5.0));
    }

    #[test]
    fn complex_division() {
        // (1+i)/(1-i) = i
        let a = Value::complex_scalar(1.0, 1.0);
        let b = Value::complex_scalar(1.0, -1.0);
        let r = elem_div(&a, &b).unwrap();
        let (re, im) = r.at(0);
        assert!((re - 0.0).abs() < 1e-12);
        assert!((im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_goes_complex_for_negative_base() {
        let a = Value::scalar(-8.0);
        let third = Value::scalar(1.0 / 3.0);
        let r = elem_pow_auto(&a, &third).unwrap();
        assert!(r.is_complex(), "(-8)^(1/3) is complex in MATLAB");
        let (re, im) = r.at(0);
        assert!((re - 1.0).abs() < 1e-9, "{re}");
        assert!((im - 3.0f64.sqrt()).abs() < 1e-9, "{im}");
        // Integral exponent stays real.
        let r2 = elem_pow_auto(&a, &Value::scalar(2.0)).unwrap();
        assert_eq!(r2.as_scalar(), Some(64.0));
    }

    #[test]
    fn comparisons_yield_logical() {
        let a = Value::row(vec![1.0, 5.0, 3.0]);
        let r = lt(&a, &Value::scalar(3.0)).unwrap();
        assert_eq!(r.re(), &[1.0, 0.0, 0.0]);
        assert_eq!(r.class(), Class::Logical);
    }

    #[test]
    fn complex_equality() {
        let a = Value::complex_scalar(1.0, 2.0);
        let b = Value::complex_scalar(1.0, 2.0);
        let c = Value::complex_scalar(1.0, 3.0);
        assert_eq!(eq(&a, &b).unwrap().as_scalar(), Some(1.0));
        assert_eq!(eq(&a, &c).unwrap().as_scalar(), Some(0.0));
    }

    #[test]
    fn logical_ops() {
        let a = Value::row(vec![0.0, 1.0, 2.0]);
        let b = Value::row(vec![1.0, 0.0, 3.0]);
        assert_eq!(and(&a, &b).unwrap().re(), &[0.0, 0.0, 1.0]);
        assert_eq!(or(&a, &b).unwrap().re(), &[1.0, 1.0, 1.0]);
        assert_eq!(not(&a).re(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn mod_rem_signs() {
        let r = modulo(&Value::scalar(-7.0), &Value::scalar(3.0)).unwrap();
        assert_eq!(r.as_scalar(), Some(2.0), "mod takes divisor sign");
        let r2 = rem(&Value::scalar(-7.0), &Value::scalar(3.0)).unwrap();
        assert_eq!(r2.as_scalar(), Some(-1.0), "rem takes dividend sign");
        let r3 = modulo(&Value::scalar(5.0), &Value::scalar(0.0)).unwrap();
        assert_eq!(r3.as_scalar(), Some(5.0), "mod(x, 0) = x");
    }

    #[test]
    fn inplace_fast_path() {
        let mut a = m22(1.0, 2.0, 3.0, 4.0);
        let ok = ew_assign(&mut a, &Value::scalar(1.0), |x, y| x + y);
        assert!(ok);
        assert_eq!(a.re(), &[2.0, 4.0, 3.0, 5.0]);
        // Mismatched shapes refuse the fast path.
        let b = Value::row(vec![1.0, 2.0]);
        assert!(!ew_assign(&mut a, &b, |x, y| x + y));
    }

    #[test]
    fn neg_complex() {
        let v = Value::complex_scalar(1.0, -2.0);
        let r = neg(&v);
        assert_eq!(r.at(0), (-1.0, 2.0));
    }
}
