//! Array indexing: `subsref`, `subsasgn` (with §2.3.3 growth semantics)
//! and range construction.
//!
//! `subsasgn` grows the array in place from the **last element to the
//! first** — the paper's §2.3.3.1 argument that carried-over elements
//! always move to equal-or-higher addresses makes this safe even when
//! result and input share storage, and the planned VM relies on it.

use crate::error::{err, Result};
use crate::value::{Class, Value};

/// A resolved subscript: the whole dimension or explicit 0-based indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Sub {
    /// `:` — every index of the dimension.
    Colon,
    /// Explicit 0-based indices (possibly repeated or permuted).
    Indices(Vec<usize>),
}

impl Sub {
    /// Builds a subscript from a runtime value (1-based indices).
    ///
    /// # Errors
    ///
    /// Fails on non-positive or fractional indices.
    pub fn from_value(v: &Value) -> Result<Sub> {
        if v.class() == Class::Logical {
            // Logical indexing: positions of nonzeros.
            let idx = v
                .re()
                .iter()
                .enumerate()
                .filter(|(_, x)| **x != 0.0)
                .map(|(i, _)| i)
                .collect();
            return Ok(Sub::Indices(idx));
        }
        let mut idx = Vec::with_capacity(v.numel());
        for &x in v.re() {
            if x < 1.0 || x.fract() != 0.0 || !x.is_finite() {
                return err(format!("subscript must be a positive integer, got {x}"));
            }
            idx.push(x as usize - 1);
        }
        Ok(Sub::Indices(idx))
    }

    fn resolve(&self, extent: usize) -> Vec<usize> {
        match self {
            Sub::Colon => (0..extent).collect(),
            Sub::Indices(v) => v.clone(),
        }
    }

    fn max_index(&self) -> Option<usize> {
        match self {
            Sub::Colon => None,
            Sub::Indices(v) => v.iter().copied().max(),
        }
    }
}

/// Folds an array's dimensions so exactly `m` subscripts apply: trailing
/// dimensions collapse into the last one (MATLAB's partial indexing).
fn effective_dims(dims: &[usize], m: usize) -> Vec<usize> {
    if m >= dims.len() {
        let mut d = dims.to_vec();
        d.resize(m, 1);
        d
    } else {
        let mut d = dims[..m].to_vec();
        let tail: usize = dims[m - 1..].iter().product();
        d[m - 1] = tail;
        d
    }
}

/// `subsref(a, subs...)` — right-hand side indexing (§2.3.2).
///
/// # Errors
///
/// Fails on out-of-range subscripts.
pub fn subsref(a: &Value, subs: &[Sub]) -> Result<Value> {
    if subs.is_empty() {
        return Ok(a.clone());
    }
    if subs.len() == 1 {
        return linear_subsref(a, &subs[0]);
    }
    let dims = effective_dims(a.dims(), subs.len());
    // Validate.
    for (k, s) in subs.iter().enumerate() {
        if let Some(mx) = s.max_index() {
            if mx >= dims[k] {
                return err(format!(
                    "index {} exceeds extent {} in dimension {}",
                    mx + 1,
                    dims[k],
                    k + 1
                ));
            }
        }
    }
    let per_dim: Vec<Vec<usize>> = subs.iter().zip(&dims).map(|(s, d)| s.resolve(*d)).collect();
    let out_dims: Vec<usize> = per_dim.iter().map(|v| v.len()).collect();
    let n: usize = out_dims.iter().product();
    // Strides of the source under the effective dims.
    let mut strides = vec![1usize; dims.len()];
    for k in 1..dims.len() {
        strides[k] = strides[k - 1] * dims[k - 1];
    }
    let mut re = Vec::with_capacity(n);
    let mut im = a.im().map(|_| Vec::with_capacity(n));
    // Odometer over output positions (first dim fastest: column-major).
    let mut counter = vec![0usize; per_dim.len()];
    for _ in 0..n {
        let mut src = 0;
        for (k, c) in counter.iter().enumerate() {
            src += per_dim[k][*c] * strides[k];
        }
        re.push(a.re()[src]);
        if let Some(im) = &mut im {
            im.push(a.im().unwrap()[src]);
        }
        for (k, c) in counter.iter_mut().enumerate() {
            *c += 1;
            if *c < per_dim[k].len() {
                break;
            }
            *c = 0;
        }
    }
    let out = match im {
        Some(im) => Value::from_complex_parts(out_dims, re, im).normalized(),
        None => Value::from_parts(out_dims, re),
    };
    Ok(out.with_class(a.class()))
}

fn linear_subsref(a: &Value, sub: &Sub) -> Result<Value> {
    let n = a.numel();
    match sub {
        Sub::Colon => {
            // a(:) is a column of all elements.
            let re = a.re().to_vec();
            let out = match a.im() {
                Some(im) => Value::from_complex_parts(vec![n, 1], re, im.to_vec()).normalized(),
                None => Value::from_parts(vec![n, 1], re),
            };
            Ok(out.with_class(a.class()))
        }
        Sub::Indices(idx) => {
            for &i in idx {
                if i >= n {
                    return err(format!(
                        "index {} exceeds the {} elements of the array",
                        i + 1,
                        n
                    ));
                }
            }
            let re: Vec<f64> = idx.iter().map(|&i| a.re()[i]).collect();
            let im = a
                .im()
                .map(|im| idx.iter().map(|&i| im[i]).collect::<Vec<f64>>());
            // Orientation: a vector source indexed by a vector keeps the
            // source's orientation; otherwise the subscript's shape wins.
            let dims = if a.is_vector() {
                if a.dims()[0] == 1 {
                    vec![1, idx.len()]
                } else {
                    vec![idx.len(), 1]
                }
            } else {
                vec![1, idx.len()]
            };
            let out = match im {
                Some(im) => Value::from_complex_parts(dims, re, im).normalized(),
                None => Value::from_parts(dims, re),
            };
            Ok(out.with_class(a.class()))
        }
    }
}

/// Result shape adjustment for `a(v)` where the subscript itself is a
/// matrix: MATLAB returns the subscript's shape. [`subsref`] callers
/// that kept the subscript's value can use this to refine.
pub fn reshape_like(v: Value, dims: &[usize]) -> Value {
    if v.numel() == dims.iter().product::<usize>() && v.dims() != dims {
        let class = v.class();
        let out = match v.im() {
            Some(im) => Value::from_complex_parts(dims.to_vec(), v.re().to_vec(), im.to_vec()),
            None => Value::from_parts(dims.to_vec(), v.re().to_vec()),
        };
        out.with_class(class)
    } else {
        v
    }
}

/// `b = subsasgn(a, r, subs...)` — left-hand side indexing with growth.
/// Consumes `a` and returns the (possibly grown) result; growth zero-
/// fills created positions and preserves existing elements by moving
/// them from the last to the first (§2.3.3.1).
///
/// # Errors
///
/// Fails on invalid subscripts or value-shape mismatches.
pub fn subsasgn(a: Value, r: &Value, subs: &[Sub]) -> Result<Value> {
    if subs.is_empty() {
        return err("subsasgn needs at least one subscript");
    }
    if subs.len() == 1 {
        return linear_subsasgn(a, r, &subs[0]);
    }
    let m = subs.len();
    let cur_dims = effective_dims(a.dims(), m);
    // Target extents: grown to cover every subscript.
    let mut new_dims = cur_dims.clone();
    for (k, s) in subs.iter().enumerate() {
        if let Some(mx) = s.max_index() {
            new_dims[k] = new_dims[k].max(mx + 1);
        }
    }
    // `:` on a grown array refers to the *original* extent; growth via
    // other dimensions is fine.
    let mut a = grow_to(a, &cur_dims, &new_dims);
    let per_dim: Vec<Vec<usize>> = subs
        .iter()
        .zip(&cur_dims)
        .map(|(s, d)| s.resolve(*d))
        .collect();
    let count: usize = per_dim.iter().map(|v| v.len()).product();
    if !(r.is_scalar() || r.numel() == count) {
        return err(format!(
            "subsasgn value has {} elements for {} target positions",
            r.numel(),
            count
        ));
    }
    if r.is_complex() && !a.is_complex() {
        a = complexify(a);
    }
    let mut strides = vec![1usize; new_dims.len()];
    for k in 1..new_dims.len() {
        strides[k] = strides[k - 1] * new_dims[k - 1];
    }
    let mut counter = vec![0usize; per_dim.len()];
    for e in 0..count {
        let mut dstp = 0;
        for (k, c) in counter.iter().enumerate() {
            dstp += per_dim[k][*c] * strides[k];
        }
        let (vr, vi) = r.at(if r.is_scalar() { 0 } else { e });
        write_elem(&mut a, dstp, vr, vi);
        for (k, c) in counter.iter_mut().enumerate() {
            *c += 1;
            if *c < per_dim[k].len() {
                break;
            }
            *c = 0;
        }
    }
    Ok(a)
}

fn linear_subsasgn(a: Value, r: &Value, sub: &Sub) -> Result<Value> {
    let n = a.numel();
    let idx: Vec<usize> = match sub {
        Sub::Colon => (0..n).collect(),
        Sub::Indices(v) => v.clone(),
    };
    if !(r.is_scalar() || r.numel() == idx.len()) {
        return err(format!(
            "subsasgn value has {} elements for {} target positions",
            r.numel(),
            idx.len()
        ));
    }
    let need = idx.iter().copied().max().map_or(0, |m| m + 1);
    let mut a = a;
    if need > n {
        // Linear growth is only defined for vectors (and empties).
        if a.is_empty() {
            a = grow_to(a, &[1, 0], &[1, need]);
        } else if a.is_vector() {
            let (d0, d1) = (a.dims()[0], a.dims()[1]);
            if d0 == 1 {
                a = grow_to(a, &[1, d1], &[1, need]);
            } else {
                a = grow_to(a, &[d0, 1], &[need, 1]);
            }
        } else {
            return err(format!(
                "linear index {} exceeds the {} elements of a non-vector",
                need, n
            ));
        }
    }
    if r.is_complex() && !a.is_complex() {
        a = complexify(a);
    }
    for (e, &i) in idx.iter().enumerate() {
        let (vr, vi) = r.at(if r.is_scalar() { 0 } else { e });
        write_elem(&mut a, i, vr, vi);
    }
    Ok(a)
}

fn write_elem(a: &mut Value, i: usize, vr: f64, vi: f64) {
    if vi != 0.0 && !a.is_complex() {
        *a = complexify(std::mem::replace(a, Value::empty()));
    }
    a.re_mut()[i] = vr;
    if let Some(im) = a.im_mut() {
        im[i] = vi;
    }
}

fn complexify(a: Value) -> Value {
    let (dims, re, _, class) = a.into_parts();
    let n = re.len();
    Value::from_complex_parts(dims, re, vec![0.0; n]).with_class(class)
}

/// Grows `a` from `old_dims` to `new_dims` (pointwise ≥), zero-filling
/// new positions. The buffers are moved, not copied, and extended with
/// amortized capacity, so repeated appends stay linear. Elements are
/// relocated **backwards** so the move is safe even within a shared
/// buffer (§2.3.3.1); the pass is skipped when every old element keeps
/// its column-major position (appends to a vector, new columns).
fn grow_to(a: Value, old_dims: &[usize], new_dims: &[usize]) -> Value {
    if old_dims == new_dims {
        return a;
    }
    let new_n: usize = new_dims.iter().product();
    let old_n: usize = old_dims.iter().product();
    let (_, mut re, mut im, class) = a.into_parts();
    re.resize(new_n, 0.0);
    if let Some(im) = &mut im {
        im.resize(new_n, 0.0);
    }

    // Old strides and new strides.
    let rank = new_dims.len();
    let old_dim = |k: usize| old_dims.get(k).copied().unwrap_or(1);
    let mut old_strides = vec![1usize; rank];
    let mut new_strides = vec![1usize; rank];
    for k in 1..rank {
        old_strides[k] = old_strides[k - 1] * old_dim(k - 1);
        new_strides[k] = new_strides[k - 1] * new_dims[k - 1];
    }
    let positions_survive = (0..rank).all(|k| old_dim(k) <= 1 || old_strides[k] == new_strides[k]);

    // Move from the last element to the first: target >= source always.
    if !positions_survive {
        for lin in (0..old_n).rev() {
            // Decompose `lin` under the old dims.
            let mut rem = lin;
            let mut dst = 0;
            for (k, stride) in new_strides.iter().enumerate() {
                let d = old_dim(k);
                dst += (rem % d) * stride;
                rem /= d;
            }
            if dst != lin {
                re[dst] = re[lin];
                re[lin] = 0.0;
                if let Some(im) = &mut im {
                    im[dst] = im[lin];
                    im[lin] = 0.0;
                }
            }
        }
    }
    let v = match im {
        Some(im) => Value::from_complex_parts(new_dims.to_vec(), re, im),
        None => Value::from_parts(new_dims.to_vec(), re),
    };
    v.with_class(class)
}

/// `start:stop` and `start:step:stop` — a row vector (§2.3.2's colon
/// expressions).
///
/// # Errors
///
/// Fails on a zero step or non-scalar endpoints.
pub fn range(start: &Value, step: Option<&Value>, stop: &Value) -> Result<Value> {
    let a = start
        .as_scalar()
        .ok_or_else(|| crate::error::RtError::new("range start must be a real scalar"))?;
    let b = stop
        .as_scalar()
        .ok_or_else(|| crate::error::RtError::new("range stop must be a real scalar"))?;
    let s = match step {
        Some(v) => v
            .as_scalar()
            .ok_or_else(|| crate::error::RtError::new("range step must be a real scalar"))?,
        None => 1.0,
    };
    if s == 0.0 {
        return err("range step cannot be zero");
    }
    let count = (((b - a) / s).floor() + 1.0).max(0.0) as usize;
    let mut re = Vec::with_capacity(count);
    for k in 0..count {
        re.push(a + s * k as f64);
    }
    Ok(Value::from_parts(vec![1, count.min(re.len())], re))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Value {
        // [1 3 5; 2 4 6]
        Value::from_parts(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn sub1(i: usize) -> Sub {
        Sub::Indices(vec![i - 1])
    }

    #[test]
    fn scalar_element_access() {
        let a = m23();
        let r = subsref(&a, &[sub1(2), sub1(3)]).unwrap();
        assert_eq!(r.as_scalar(), Some(6.0));
        let lin = subsref(&a, &[sub1(3)]).unwrap();
        assert_eq!(lin.as_scalar(), Some(3.0), "column-major linear index");
    }

    #[test]
    fn colon_slices() {
        let a = m23();
        let col = subsref(&a, &[Sub::Colon, sub1(2)]).unwrap();
        assert_eq!(col.dims(), &[2, 1]);
        assert_eq!(col.re(), &[3.0, 4.0]);
        let row = subsref(&a, &[sub1(1), Sub::Colon]).unwrap();
        assert_eq!(row.dims(), &[1, 3]);
        assert_eq!(row.re(), &[1.0, 3.0, 5.0]);
        let all = subsref(&a, &[Sub::Colon]).unwrap();
        assert_eq!(all.dims(), &[6, 1]);
    }

    #[test]
    fn permuting_vector_subscript() {
        // The paper's 4:-1:1 example: reverses the elements.
        let a = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let e = range(
            &Value::scalar(4.0),
            Some(&Value::scalar(-1.0)),
            &Value::scalar(1.0),
        )
        .unwrap();
        let s = Sub::from_value(&e).unwrap();
        let r = subsref(&a, &[s]).unwrap();
        assert_eq!(r.re(), &[4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn out_of_range_errors() {
        let a = m23();
        assert!(subsref(&a, &[sub1(3), sub1(1)]).is_err());
        assert!(subsref(&a, &[sub1(7)]).is_err());
    }

    #[test]
    fn logical_indexing() {
        let a = Value::row(vec![10.0, 20.0, 30.0]);
        let mask = Value::row(vec![1.0, 0.0, 1.0]).with_class(Class::Logical);
        let s = Sub::from_value(&mask).unwrap();
        let r = subsref(&a, &[s]).unwrap();
        assert_eq!(r.re(), &[10.0, 30.0]);
    }

    #[test]
    fn basic_subsasgn() {
        let a = m23();
        let b = subsasgn(a, &Value::scalar(9.0), &[sub1(2), sub1(2)]).unwrap();
        assert_eq!(
            subsref(&b, &[sub1(2), sub1(2)]).unwrap().as_scalar(),
            Some(9.0)
        );
        assert_eq!(b.dims(), &[2, 3], "no growth");
    }

    #[test]
    fn growth_zero_fills_and_preserves() {
        // Paper §2.3.3: growing writes relocate old elements correctly.
        let a = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = subsasgn(a, &Value::scalar(9.0), &[sub1(3), sub1(3)]).unwrap();
        assert_eq!(b.dims(), &[3, 3]);
        // Old elements at their subscript positions.
        assert_eq!(
            subsref(&b, &[sub1(1), sub1(1)]).unwrap().as_scalar(),
            Some(1.0)
        );
        assert_eq!(
            subsref(&b, &[sub1(2), sub1(2)]).unwrap().as_scalar(),
            Some(4.0)
        );
        // Created positions zero.
        assert_eq!(
            subsref(&b, &[sub1(3), sub1(1)]).unwrap().as_scalar(),
            Some(0.0)
        );
        assert_eq!(
            subsref(&b, &[sub1(1), sub1(3)]).unwrap().as_scalar(),
            Some(0.0)
        );
        assert_eq!(
            subsref(&b, &[sub1(3), sub1(3)]).unwrap().as_scalar(),
            Some(9.0)
        );
    }

    #[test]
    fn vector_linear_growth() {
        let a = Value::row(vec![1.0, 2.0]);
        let b = subsasgn(a, &Value::scalar(7.0), &[sub1(5)]).unwrap();
        assert_eq!(b.dims(), &[1, 5]);
        assert_eq!(b.re(), &[1.0, 2.0, 0.0, 0.0, 7.0]);
        // Column vectors stay columns (1x1 counts as a row, as MATLAB).
        let c = Value::col(vec![1.0, 2.0]);
        let d = subsasgn(c, &Value::scalar(3.0), &[sub1(3)]).unwrap();
        assert_eq!(d.dims(), &[3, 1]);
        let s = subsasgn(Value::scalar(1.0), &Value::scalar(3.0), &[sub1(3)]).unwrap();
        assert_eq!(s.dims(), &[1, 3]);
    }

    #[test]
    fn empty_grows_to_row() {
        let b = subsasgn(Value::empty(), &Value::scalar(5.0), &[sub1(3)]).unwrap();
        assert_eq!(b.dims(), &[1, 3]);
        assert_eq!(b.re(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn nonvector_linear_growth_errors() {
        let a = m23();
        assert!(subsasgn(a, &Value::scalar(1.0), &[sub1(20)]).is_err());
    }

    #[test]
    fn vector_value_into_slice() {
        let a = Value::filled(vec![2, 3], 0.0, Class::Double);
        let r = Value::row(vec![7.0, 8.0, 9.0]);
        let b = subsasgn(a, &r, &[sub1(1), Sub::Colon]).unwrap();
        assert_eq!(
            subsref(&b, &[sub1(1), Sub::Colon]).unwrap().re(),
            &[7.0, 8.0, 9.0]
        );
        assert_eq!(
            subsref(&b, &[sub1(2), Sub::Colon]).unwrap().re(),
            &[0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn cartesian_product_semantics() {
        // a([1 2], [1 3]) = r writes a 2x2 block (paper: subscripts take
        // the Cartesian product).
        let a = Value::filled(vec![3, 3], 0.0, Class::Double);
        let r = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s1 = Sub::Indices(vec![0, 1]);
        let s2 = Sub::Indices(vec![0, 2]);
        let b = subsasgn(a, &r, &[s1.clone(), s2.clone()]).unwrap();
        let got = subsref(&b, &[s1, s2]).unwrap();
        assert_eq!(got.re(), r.re());
    }

    #[test]
    fn complex_assignment_promotes() {
        let a = Value::row(vec![1.0, 2.0]);
        let b = subsasgn(a, &Value::complex_scalar(0.0, 1.0), &[sub1(1)]).unwrap();
        assert!(b.is_complex());
        assert_eq!(b.at(0), (0.0, 1.0));
        assert_eq!(b.at(1), (2.0, 0.0));
    }

    #[test]
    fn complex_assignment_keeps_the_other_elements() {
        // A complex 2x2 char-class array: writing one element leaves the
        // other real and imaginary parts and the class alone.
        let a = Value::from_complex_parts(
            vec![2, 2],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
        )
        .with_class(Class::Char);
        let b = subsasgn(a, &Value::complex_scalar(9.0, -9.0), &[sub1(2), sub1(1)]).unwrap();
        assert_eq!(b.class(), Class::Char);
        assert_eq!(b.re(), &[1.0, 9.0, 3.0, 4.0]);
        assert_eq!(b.im().unwrap(), &[5.0, -9.0, 7.0, 8.0]);
        // A real value clears just its own imaginary part.
        let c = subsasgn(b, &Value::scalar(0.5), &[sub1(4)]).unwrap();
        assert_eq!(c.re(), &[1.0, 9.0, 3.0, 0.5]);
        assert_eq!(c.im().unwrap(), &[5.0, -9.0, 7.0, 0.0]);
        // Promotion of a logical array keeps its class.
        let l = Value::row(vec![1.0, 0.0, 1.0]).with_class(Class::Logical);
        let p = subsasgn(l, &Value::complex_scalar(0.0, 2.0), &[sub1(2)]).unwrap();
        assert_eq!(p.class(), Class::Logical);
        assert_eq!(p.re(), &[1.0, 0.0, 1.0]);
        assert_eq!(p.im().unwrap(), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn appends_and_new_columns_keep_positions() {
        // Appending one element at a time: the buffer grows in place.
        let mut a = Value::empty();
        for i in 1..=100 {
            a = subsasgn(a, &Value::scalar(i as f64), &[sub1(i)]).unwrap();
        }
        assert_eq!(a.dims(), &[1, 100]);
        assert!(a.re().iter().enumerate().all(|(i, x)| *x == (i + 1) as f64));
        // New columns of a matrix: no element moves.
        let m = Value::from_complex_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0], vec![1.0; 4]);
        let g = subsasgn(m, &Value::scalar(9.0), &[sub1(1), sub1(4)]).unwrap();
        assert_eq!(g.dims(), &[2, 4]);
        assert_eq!(g.re(), &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 9.0, 0.0]);
        assert_eq!(g.im().unwrap(), &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        // New rows of a matrix: elements move to their new positions.
        let m = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let g = subsasgn(m, &Value::scalar(9.0), &[sub1(3), sub1(1)]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.re(), &[1.0, 2.0, 9.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn range_construction() {
        let r = range(&Value::scalar(1.0), None, &Value::scalar(4.0)).unwrap();
        assert_eq!(r.re(), &[1.0, 2.0, 3.0, 4.0]);
        let r2 = range(
            &Value::scalar(0.0),
            Some(&Value::scalar(0.5)),
            &Value::scalar(2.0),
        )
        .unwrap();
        assert_eq!(r2.re(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        let empty = range(&Value::scalar(5.0), None, &Value::scalar(1.0)).unwrap();
        assert!(empty.is_empty());
        assert!(range(
            &Value::scalar(1.0),
            Some(&Value::scalar(0.0)),
            &Value::scalar(2.0)
        )
        .is_err());
    }

    #[test]
    fn growth_on_three_dimensional() {
        let a = Value::filled(vec![2, 2, 2], 1.0, Class::Double);
        let b = subsasgn(a, &Value::scalar(5.0), &[sub1(1), sub1(1), sub1(3)]).unwrap();
        assert_eq!(b.dims(), &[2, 2, 3]);
        assert_eq!(
            subsref(&b, &[sub1(1), sub1(1), sub1(3)])
                .unwrap()
                .as_scalar(),
            Some(5.0)
        );
        // Old contents intact.
        assert_eq!(
            subsref(&b, &[sub1(2), sub1(2), sub1(2)])
                .unwrap()
                .as_scalar(),
            Some(1.0)
        );
    }
}
