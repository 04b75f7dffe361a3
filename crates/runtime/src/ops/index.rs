//! Array indexing: `subsref`, `subsasgn` (with §2.3.3 growth semantics)
//! and range construction.
//!
//! Both indexing operations build one [`IndexPlan`] per call and walk it
//! (DESIGN.md §17): per subscripted dimension, a progression of element
//! offsets or an explicit index list, validated once before any element
//! moves, then walked column by column with unit-step runs copied whole.
//!
//! `subsasgn` grows the array in place from the **last element to the
//! first** — the paper's §2.3.3.1 argument that carried-over elements
//! always move to equal-or-higher addresses makes this safe even when
//! result and input share storage, and the planned VM relies on it.

use crate::error::{err, Result};
use crate::value::{Class, Value};

/// A resolved subscript in 0-based indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Sub {
    /// `:` — every index of the dimension.
    Colon,
    /// The `count` indices `start, start + step, ...` — a range, or any
    /// subscript whose values are equally spaced. `step` may be zero or
    /// negative; every index is at least 0.
    Range {
        /// The first index.
        start: usize,
        /// The distance between consecutive indices.
        step: isize,
        /// How many indices.
        count: usize,
    },
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
            let idx: Vec<usize> = v
                .re()
                .iter()
                .enumerate()
                .filter(|(_, x)| **x != 0.0)
                .map(|(i, _)| i)
                .collect();
            return Ok(Sub::of_indices(idx.iter().copied()));
        }
        for &x in v.re() {
            if x < 1.0 || x.fract() != 0.0 || !x.is_finite() {
                return err(format!("subscript must be a positive integer, got {x}"));
            }
        }
        Ok(Sub::of_indices(v.re().iter().map(|&x| x as usize - 1)))
    }

    /// A progression when consecutive indices are equally spaced, else
    /// the list.
    fn of_indices(idx: impl ExactSizeIterator<Item = usize> + Clone) -> Sub {
        let count = idx.len();
        let mut it = idx.clone();
        let start = it.next().unwrap_or(0);
        let (mut prev, mut step) = (start, 1);
        for (k, i) in it.enumerate() {
            let d = i.wrapping_sub(prev) as isize;
            if k == 0 {
                step = d;
            } else if d != step {
                return Sub::Indices(idx.collect());
            }
            prev = i;
        }
        Sub::Range { start, step, count }
    }

    /// How many indices the subscript addresses in a dimension of
    /// `extent`.
    fn count(&self, extent: usize) -> usize {
        match self {
            Sub::Colon => extent,
            Sub::Range { count, .. } => *count,
            Sub::Indices(v) => v.len(),
        }
    }

    /// The largest index (`None` for `:` or no indices).
    fn max_index(&self) -> Option<usize> {
        match *self {
            Sub::Colon | Sub::Range { count: 0, .. } => None,
            Sub::Range { start, step, count } if step > 0 => {
                Some(start + (count - 1) * step as usize)
            }
            Sub::Range { start, .. } => Some(start),
            Sub::Indices(ref v) => v.iter().copied().max(),
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

/// One subscripted dimension of an [`IndexPlan`], in element offsets.
#[derive(Debug, Clone, Copy)]
enum Axis<'s> {
    /// The offsets `start + k * step` for `k < count`.
    Prog {
        start: usize,
        step: isize,
        count: usize,
    },
    /// The offsets `idx[k] * stride`.
    List { idx: &'s [usize], stride: usize },
}

impl Axis<'_> {
    fn count(&self) -> usize {
        match self {
            Axis::Prog { count, .. } => *count,
            Axis::List { idx, .. } => idx.len(),
        }
    }

    fn offset(&self, k: usize) -> usize {
        match *self {
            Axis::Prog { start, step, .. } => start.wrapping_add_signed(k as isize * step),
            Axis::List { idx, stride } => idx[k] * stride,
        }
    }
}

/// The elements one `subsref` or `subsasgn` addresses: the Cartesian
/// product of its axes, in column-major order. Built once per call,
/// after the subscripts are validated; the walk reads only offsets.
struct IndexPlan<'s> {
    axes: Vec<Axis<'s>>,
}

impl<'s> IndexPlan<'s> {
    /// The plan of `subs` over an array laid out with extents `layout`;
    /// `:` covers `extents` (smaller than `layout` after growth).
    fn new(subs: &'s [Sub], extents: &[usize], layout: &[usize]) -> IndexPlan<'s> {
        let mut stride = 1;
        let axes = subs
            .iter()
            .zip(extents.iter().zip(layout))
            .map(|(s, (&extent, &dim))| {
                let axis = match s {
                    Sub::Colon => Axis::Prog {
                        start: 0,
                        step: stride as isize,
                        count: extent,
                    },
                    &Sub::Range { start, step, count } => Axis::Prog {
                        start: start * stride,
                        step: step * stride as isize,
                        count,
                    },
                    Sub::Indices(idx) => Axis::List { idx, stride },
                };
                stride *= dim;
                axis
            })
            .collect();
        IndexPlan { axes }
    }

    /// How many elements the plan addresses.
    fn len(&self) -> usize {
        self.axes.iter().map(Axis::count).product()
    }

    /// Calls `column(base)` for every combination of dimensions 2..N,
    /// first dimension fastest, with `base` the sum of their offsets.
    fn columns(&self, mut column: impl FnMut(usize)) {
        fn walk(axes: &[Axis<'_>], base: usize, column: &mut impl FnMut(usize)) {
            match axes.split_last() {
                None => column(base),
                Some((last, rest)) => {
                    for k in 0..last.count() {
                        walk(rest, base + last.offset(k), column);
                    }
                }
            }
        }
        if self.len() > 0 {
            walk(&self.axes[1..], 0, &mut column);
        }
    }

    /// Appends the addressed elements of `src` to `out`.
    fn gather(&self, src: &[f64], out: &mut Vec<f64>) {
        out.reserve(self.len());
        match self.axes[0] {
            Axis::Prog {
                start,
                step: 1,
                count,
            } => self.columns(|base| out.extend_from_slice(&src[base + start..][..count])),
            inner => self.columns(|base| {
                out.extend((0..inner.count()).map(|k| src[base + inner.offset(k)]));
            }),
        }
    }

    /// Stores `vals` — one per addressed element, or one for all — at
    /// the addressed positions of `dst`. A repeated position keeps the
    /// last value.
    fn scatter(&self, dst: &mut [f64], vals: &[f64]) {
        let inner = self.axes[0];
        let n = inner.count();
        let mut e = 0;
        match (inner, vals) {
            (Axis::Prog { start, step: 1, .. }, &[x]) => {
                self.columns(|base| dst[base + start..][..n].fill(x));
            }
            (Axis::Prog { start, step: 1, .. }, _) => self.columns(|base| {
                dst[base + start..][..n].copy_from_slice(&vals[e..e + n]);
                e += n;
            }),
            (_, &[x]) => self.columns(|base| {
                for k in 0..n {
                    dst[base + inner.offset(k)] = x;
                }
            }),
            _ => self.columns(|base| {
                for (k, &x) in vals[e..e + n].iter().enumerate() {
                    dst[base + inner.offset(k)] = x;
                }
                e += n;
            }),
        }
    }
}

/// `subsref(a, subs...)` — right-hand side indexing (§2.3.2).
///
/// # Errors
///
/// Fails on out-of-range subscripts.
pub fn subsref(a: &Value, subs: &[Sub]) -> Result<Value> {
    let mut out = Value::empty();
    subsref_into(&mut out, a, subs)?;
    Ok(out)
}

/// [`subsref`] written into `out`'s existing buffers. `out` is left
/// untouched on error: every subscript is checked before any element
/// moves.
///
/// # Errors
///
/// Fails on out-of-range subscripts.
pub fn subsref_into(out: &mut Value, a: &Value, subs: &[Sub]) -> Result<()> {
    if subs.is_empty() {
        out.clone_from(a);
        return Ok(());
    }
    let m = subs.len();
    let dims = effective_dims(a.dims(), m);
    for (k, (s, &extent)) in subs.iter().zip(&dims).enumerate() {
        if let Some(mx) = s.max_index().filter(|&mx| mx >= extent) {
            return err(if m == 1 {
                format!(
                    "index {} exceeds the {extent} elements of the array",
                    mx + 1
                )
            } else {
                format!(
                    "index {} exceeds extent {extent} in dimension {}",
                    mx + 1,
                    k + 1
                )
            });
        }
    }
    let plan = IndexPlan::new(subs, &dims, &dims);
    out.refill(a.class(), a.is_complex(), |out_dims, re, im| {
        plan.gather(a.re(), re);
        if let (Some(src), Some(im)) = (a.im(), im) {
            plan.gather(src, im);
        }
        if m > 1 {
            out_dims.extend(plan.axes.iter().map(Axis::count));
        } else if !matches!(subs[0], Sub::Colon) && (!a.is_vector() || a.dims()[0] == 1) {
            // A row or non-vector source gives a row; `a(:)` and a
            // column source give a column.
            out_dims.extend([1, re.len()]);
        } else {
            out_dims.extend([re.len(), 1]);
        }
    });
    Ok(())
}

/// Result shape adjustment for `a(v)` where the subscript itself is a
/// matrix: MATLAB returns the subscript's shape. [`subsref`] callers
/// that kept the subscript's value can use this to refine.
pub fn reshape_like(v: &mut Value, dims: &[usize]) {
    if v.numel() == dims.iter().product::<usize>() && v.dims() != dims {
        v.reshape(dims);
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
    let cur = effective_dims(a.dims(), subs.len());
    let count: usize = subs.iter().zip(&cur).map(|(s, &d)| s.count(d)).product();
    if !(r.is_scalar() || r.numel() == count) {
        return err(format!(
            "subsasgn value has {} elements for {} target positions",
            r.numel(),
            count
        ));
    }
    // Target extents: grown to cover every subscript. `:` keeps the
    // current extent.
    let new: Vec<usize> = subs
        .iter()
        .zip(&cur)
        .map(|(s, &d)| s.max_index().map_or(d, |mx| d.max(mx + 1)))
        .collect();
    let mut a = if subs.len() == 1 {
        grow_linear(a, new[0])?
    } else {
        grow_to(a, &cur, &new)
    };
    if r.is_complex() && !a.is_complex() {
        a = complexify(a);
    }
    let plan = IndexPlan::new(subs, &cur, &new);
    plan.scatter(a.re_mut(), r.re());
    if let Some(im) = a.im_mut() {
        plan.scatter(im, r.im().unwrap_or(&[0.0]));
    }
    Ok(a)
}

/// Grows `a` to `need` elements for a linear store. Linear growth is
/// only defined for vectors (and empties).
fn grow_linear(a: Value, need: usize) -> Result<Value> {
    let n = a.numel();
    if need <= n {
        return Ok(a);
    }
    let (d0, d1) = (a.dims()[0], a.dims()[1]);
    if a.is_empty() {
        Ok(grow_to(a, &[1, 0], &[1, need]))
    } else if !a.is_vector() {
        err(format!(
            "linear index {need} exceeds the {n} elements of a non-vector"
        ))
    } else if d0 == 1 {
        Ok(grow_to(a, &[1, d1], &[1, need]))
    } else {
        Ok(grow_to(a, &[d0, 1], &[need, 1]))
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
    use proptest::prelude::*;

    /// A subscript's indices written out (`:` over `extent`).
    fn resolve(s: &Sub, extent: usize) -> Vec<usize> {
        match s {
            Sub::Colon => (0..extent).collect(),
            &Sub::Range { start, step, count } => (0..count)
                .map(|k| (start as isize + k as isize * step) as usize)
                .collect(),
            Sub::Indices(v) => v.clone(),
        }
    }

    /// The per-element odometer the index plans replaced, kept here as
    /// their reference: the linear position of every addressed element,
    /// first subscript fastest, recomputed from every subscript's
    /// explicit indices under the strides of `layout`.
    fn odometer(subs: &[Sub], extents: &[usize], layout: &[usize]) -> Vec<usize> {
        let per: Vec<Vec<usize>> = subs
            .iter()
            .zip(extents)
            .map(|(s, &d)| resolve(s, d))
            .collect();
        let n: usize = per.iter().map(Vec::len).product();
        let mut counter = vec![0usize; per.len()];
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (mut pos, mut stride) = (0, 1);
            for (k, c) in counter.iter().enumerate() {
                pos += per[k][*c] * stride;
                stride *= layout[k];
            }
            out.push(pos);
            for (k, c) in counter.iter_mut().enumerate() {
                *c += 1;
                if *c < per[k].len() {
                    break;
                }
                *c = 0;
            }
        }
        out
    }

    /// A generated subscript: kind (`:`, progression, arbitrary values),
    /// first value, step and length of the progression, and the
    /// arbitrary values.
    type Spec = (u8, usize, isize, usize, Vec<usize>);

    /// A generated case: array extents, whether the array is complex,
    /// one spec per subscript, and whether `subsasgn` stores a scalar.
    type Case = (Vec<usize>, bool, Vec<Spec>, bool);

    /// A subscript from a spec: `:`, an arithmetic progression of
    /// 1-based values, or arbitrary values — the last two through
    /// [`Sub::from_value`], so classification is exercised too.
    fn spec_sub((kind, start, step, count, list): &Spec) -> Sub {
        let vals: Vec<f64> = match kind {
            0 => return Sub::Colon,
            1 => (0..*count)
                .map(|k| *start as isize + k as isize * step)
                .take_while(|&i| i >= 1)
                .map(|i| i as f64)
                .collect(),
            _ => list.iter().map(|&i| i as f64).collect(),
        };
        Sub::from_value(&Value::row(vals)).unwrap()
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            proptest::collection::vec(0..4usize, 1..4),
            any::<bool>(),
            proptest::collection::vec(
                (
                    0..3u8,
                    1..6usize,
                    -2..3isize,
                    0..5usize,
                    proptest::collection::vec(1..6usize, 0..5),
                ),
                1..4,
            ),
            any::<bool>(),
        )
    }

    fn arb_array(dims: &[usize], complex: bool) -> Value {
        let n: usize = dims.iter().product();
        let re: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        if complex {
            let im = (0..n).map(|i| -(i as f64) - 0.5).collect();
            Value::from_complex_parts(dims.to_vec(), re, im)
        } else {
            Value::from_parts(dims.to_vec(), re)
        }
    }

    proptest! {
        #[test]
        fn subsref_plan_matches_the_odometer((dims, complex, specs, _) in arb_case()) {
            let a = arb_array(&dims, complex);
            let subs: Vec<Sub> = specs.iter().map(spec_sub).collect();
            let ext = effective_dims(a.dims(), subs.len());
            let in_range = subs
                .iter()
                .zip(&ext)
                .all(|(s, &d)| resolve(s, d).iter().all(|&i| i < d));
            let got = subsref(&a, &subs);
            if !in_range {
                prop_assert!(got.is_err());
                return Ok(());
            }
            let got = got.unwrap();
            let pos = odometer(&subs, &ext, &ext);
            let want_re: Vec<f64> = pos.iter().map(|&p| a.re()[p]).collect();
            prop_assert_eq!(got.re(), &want_re[..]);
            // An all-zero imaginary part (here: an empty one) is dropped.
            let want_im: Option<Vec<f64>> = a
                .im()
                .map(|im| pos.iter().map(|&p| im[p]).collect::<Vec<f64>>())
                .filter(|im| im.iter().any(|x| *x != 0.0));
            prop_assert_eq!(got.im(), want_im.as_deref());
            if subs.len() > 1 {
                let counts: Vec<usize> = subs.iter().zip(&ext).map(|(s, &d)| s.count(d)).collect();
                prop_assert_eq!(got.dims(), Value::from_parts(counts, want_re).dims());
            }
        }

        #[test]
        fn subsasgn_plan_matches_the_odometer((dims, complex, specs, scalar) in arb_case()) {
            let a = arb_array(&dims, complex);
            let subs: Vec<Sub> = specs.iter().map(spec_sub).collect();
            let cur = effective_dims(a.dims(), subs.len());
            let new: Vec<usize> = subs
                .iter()
                .zip(&cur)
                .map(|(s, &d)| resolve(s, d).into_iter().map(|i| i + 1).fold(d, usize::max))
                .collect();
            let count: usize = subs.iter().zip(&cur).map(|(s, &d)| s.count(d)).product();
            let r = if scalar {
                Value::scalar(-7.0)
            } else {
                Value::row((0..count).map(|e| 100.0 + e as f64).collect())
            };
            // Naive growth: every old element to its subscript position
            // under the grown extents; linear growth only for vectors.
            let old_n = a.numel();
            let new_n: usize = new.iter().product();
            let got = subsasgn(a.clone(), &r, &subs);
            if subs.len() == 1 && new_n > old_n && !a.is_empty() && !a.is_vector() {
                prop_assert!(got.is_err());
                return Ok(());
            }
            let got = got.unwrap();
            let relocate = |src: &[f64]| {
                let mut out = vec![0.0; new_n];
                for (lin, &x) in src.iter().enumerate() {
                    let (mut rem, mut pos, mut stride) = (lin, 0, 1);
                    for (&c, &d) in cur.iter().zip(&new) {
                        pos += (rem % c) * stride;
                        rem /= c;
                        stride *= d;
                    }
                    out[if subs.len() == 1 { lin } else { pos }] = x;
                }
                out
            };
            let mut want_re = relocate(a.re());
            let mut want_im = a.im().map(relocate);
            for (e, p) in odometer(&subs, &cur, &new).into_iter().enumerate() {
                want_re[p] = r.re()[if scalar { 0 } else { e }];
                if let Some(im) = &mut want_im {
                    im[p] = 0.0;
                }
            }
            prop_assert_eq!(got.re(), &want_re[..]);
            prop_assert_eq!(got.im(), want_im.as_deref());
        }
    }

    #[test]
    fn equally_spaced_values_become_progressions() {
        let sub = |vals: &[f64]| Sub::from_value(&Value::row(vals.to_vec())).unwrap();
        let range = |start, step, count| Sub::Range { start, step, count };
        assert_eq!(sub(&[3.0, 4.0, 5.0]), range(2, 1, 3));
        assert_eq!(sub(&[9.0, 5.0, 1.0]), range(8, -4, 3));
        assert_eq!(sub(&[2.0, 2.0]), range(1, 0, 2));
        assert_eq!(sub(&[7.0]), range(6, 1, 1));
        assert_eq!(sub(&[]), range(0, 1, 0));
        assert_eq!(sub(&[1.0, 2.0, 4.0]), Sub::Indices(vec![0, 1, 3]));
        let mask = Value::row(vec![0.0, 1.0, 0.0, 1.0]).with_class(Class::Logical);
        assert_eq!(Sub::from_value(&mask).unwrap(), range(1, 2, 2));
    }

    #[test]
    fn subsref_into_reuses_the_buffer_and_keeps_it_on_error() {
        let a = Value::from_parts(vec![4, 4], (1..=16).map(f64::from).collect());
        let mut out = Value::filled(vec![8, 8], 0.0, Class::Logical);
        let cap = out.re().as_ptr();
        let rows = Sub::Range {
            start: 1,
            step: 1,
            count: 2,
        };
        subsref_into(&mut out, &a, &[rows.clone(), Sub::Colon]).unwrap();
        assert_eq!(out.dims(), &[2, 4]);
        assert_eq!(out.re(), &[2.0, 3.0, 6.0, 7.0, 10.0, 11.0, 14.0, 15.0]);
        assert_eq!(out.class(), Class::Double);
        assert_eq!(out.re().as_ptr(), cap, "written into the existing buffer");
        let bad = Sub::Indices(vec![0, 9]);
        assert!(subsref_into(&mut out, &a, &[rows, bad]).is_err());
        assert_eq!(out.dims(), &[2, 4], "untouched on error");
    }

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
