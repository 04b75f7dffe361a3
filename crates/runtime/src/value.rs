//! MATLAB array values.
//!
//! A [`Value`] is a column-major N-dimensional array of doubles with an
//! optional imaginary part and a class tag (double / char / logical) —
//! the same data model MATLAB 6 exposes and the paper's generated C
//! manipulates. Rank is always ≥ 2 (scalars are 1×1).

use crate::error::{err, Result};
use std::fmt;

/// The value's class (intrinsic type at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Double-precision numeric (possibly complex).
    Double,
    /// Character array.
    Char,
    /// Logical (0/1) array.
    Logical,
}

/// A column-major MATLAB array.
#[derive(Debug, PartialEq)]
pub struct Value {
    /// Extents, rank ≥ 2.
    dims: Vec<usize>,
    /// Real parts, `dims.iter().product()` elements.
    re: Vec<f64>,
    /// Imaginary parts (same length) when complex.
    im: Option<Vec<f64>>,
    /// Class tag.
    class: Class,
}

impl Value {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A real scalar.
    pub fn scalar(v: f64) -> Value {
        Value {
            dims: vec![1, 1],
            re: vec![v],
            im: None,
            class: Class::Double,
        }
    }

    /// A complex scalar.
    pub fn complex_scalar(re: f64, im: f64) -> Value {
        Value {
            dims: vec![1, 1],
            re: vec![re],
            im: Some(vec![im]),
            class: Class::Double,
        }
        .normalized()
    }

    /// A logical scalar.
    pub fn logical(b: bool) -> Value {
        Value {
            dims: vec![1, 1],
            re: vec![if b { 1.0 } else { 0.0 }],
            im: None,
            class: Class::Logical,
        }
    }

    /// The empty `0 × 0` array.
    pub fn empty() -> Value {
        Value {
            dims: vec![0, 0],
            re: vec![],
            im: None,
            class: Class::Double,
        }
    }

    /// A character row vector from a string.
    pub fn string(s: &str) -> Value {
        let re: Vec<f64> = s.bytes().map(|b| b as f64).collect();
        Value {
            dims: vec![1, re.len()],
            re,
            im: None,
            class: Class::Char,
        }
    }

    /// A real column-major array from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `re.len()` does not match the product of `dims`.
    pub fn from_parts(dims: Vec<usize>, re: Vec<f64>) -> Value {
        assert_eq!(
            dims.iter().product::<usize>(),
            re.len(),
            "element count mismatch"
        );
        let mut v = Value {
            dims,
            re,
            im: None,
            class: Class::Double,
        };
        v.fix_rank();
        v
    }

    /// A complex column-major array from raw parts.
    ///
    /// # Panics
    ///
    /// Panics on element count mismatches.
    pub fn from_complex_parts(dims: Vec<usize>, re: Vec<f64>, im: Vec<f64>) -> Value {
        assert_eq!(dims.iter().product::<usize>(), re.len());
        assert_eq!(re.len(), im.len());
        let mut v = Value {
            dims,
            re,
            im: Some(im),
            class: Class::Double,
        };
        v.fix_rank();
        v
    }

    /// A row vector.
    pub fn row(data: Vec<f64>) -> Value {
        let n = data.len();
        Value::from_parts(vec![1, n], data)
    }

    /// A column vector.
    pub fn col(data: Vec<f64>) -> Value {
        let n = data.len();
        Value::from_parts(vec![n, 1], data)
    }

    /// An all-`fill` array of the given extents.
    pub fn filled(dims: Vec<usize>, fill: f64, class: Class) -> Value {
        let n: usize = dims.iter().product();
        let mut v = Value {
            dims,
            re: vec![fill; n],
            im: None,
            class,
        };
        v.fix_rank();
        v
    }

    /// The identity matrix pattern of the given extents (logical, like
    /// the inference engine's BOOLEAN classification of `eye`).
    pub fn eye(rows: usize, cols: usize) -> Value {
        let mut v = Value::filled(vec![rows, cols], 0.0, Class::Logical);
        for i in 0..rows.min(cols) {
            let idx = i + rows * i;
            v.re[idx] = 1.0;
        }
        v
    }

    /// Ensures rank ≥ 2 and trims trailing singleton dimensions beyond 2.
    fn fix_rank(&mut self) {
        while self.dims.len() < 2 {
            self.dims
                .push(if self.re.is_empty() && self.dims.is_empty() {
                    0
                } else {
                    1
                });
        }
        while self.dims.len() > 2 && self.dims.last() == Some(&1) {
            self.dims.pop();
        }
    }

    /// Drops an all-zero imaginary part.
    pub fn normalized(mut self) -> Value {
        if let Some(im) = &self.im {
            if im.iter().all(|x| *x == 0.0) {
                self.im = None;
            }
        }
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The extents (rank ≥ 2).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The element count.
    pub fn numel(&self) -> usize {
        self.re.len()
    }

    /// MATLAB `length`: the largest extent (0 for empty).
    pub fn length(&self) -> usize {
        if self.numel() == 0 {
            0
        } else {
            self.dims.iter().copied().max().unwrap_or(0)
        }
    }

    /// The class tag.
    pub fn class(&self) -> Class {
        self.class
    }

    /// Reclassifies the value (used by logical/char producing ops).
    pub fn with_class(mut self, class: Class) -> Value {
        self.class = class;
        self
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.numel() == 0
    }

    /// Whether the array is `1 × 1`.
    pub fn is_scalar(&self) -> bool {
        self.numel() == 1
    }

    /// Whether the array is a vector (or scalar): rank 2 with a
    /// singleton dimension.
    pub fn is_vector(&self) -> bool {
        self.dims.len() == 2 && (self.dims[0] == 1 || self.dims[1] == 1)
    }

    /// Whether any element has a nonzero imaginary part.
    pub fn is_complex(&self) -> bool {
        self.im.is_some()
    }

    /// The real parts, column-major.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary parts, if complex.
    pub fn im(&self) -> Option<&[f64]> {
        self.im.as_deref()
    }

    /// Mutable access to the real buffer (same length invariants).
    pub fn re_mut(&mut self) -> &mut [f64] {
        &mut self.re
    }

    /// Mutable access to the imaginary buffer, if complex.
    pub fn im_mut(&mut self) -> Option<&mut [f64]> {
        self.im.as_deref_mut()
    }

    /// The scalar value, if `1 × 1` and real.
    pub fn as_scalar(&self) -> Option<f64> {
        (self.is_scalar() && !self.is_complex()).then(|| self.re[0])
    }

    /// The element `(re, im)` at linear index `i`.
    pub fn at(&self, i: usize) -> (f64, f64) {
        (self.re[i], self.im.as_ref().map_or(0.0, |im| im[i]))
    }

    /// MATLAB truth: nonempty and every element nonzero.
    pub fn is_true(&self) -> bool {
        !self.is_empty()
            && self
                .re
                .iter()
                .zip(
                    self.im
                        .as_deref()
                        .map(|s| s.iter())
                        .into_iter()
                        .flatten()
                        .chain(std::iter::repeat(&0.0)),
                )
                .all(|(r, i)| *r != 0.0 || *i != 0.0)
    }

    /// Interprets the value as a positive integer subscript.
    ///
    /// # Errors
    ///
    /// Fails when not a real positive integral scalar.
    pub fn as_subscript(&self) -> Result<usize> {
        match self.as_scalar() {
            Some(v) if v >= 1.0 && v.fract() == 0.0 && v.is_finite() => Ok(v as usize),
            _ => err(format!(
                "subscript must be a positive integer scalar, got {self}"
            )),
        }
    }

    /// Interprets the value as a nonnegative extent (negative clamps to
    /// zero, as in `zeros(-2)`).
    ///
    /// # Errors
    ///
    /// Fails when not a real integral scalar.
    pub fn as_extent(&self) -> Result<usize> {
        match self.as_scalar() {
            Some(v) if v.fract() == 0.0 && v.is_finite() => Ok(v.max(0.0) as usize),
            _ => err(format!(
                "array extent must be an integer scalar, got {self}"
            )),
        }
    }

    /// The column-major linear index of multidimensional subscripts
    /// (0-based in, 0-based out).
    ///
    /// # Panics
    ///
    /// Debug-panics when `subs.len() != rank`; callers validate.
    pub fn linear_index(&self, subs: &[usize]) -> usize {
        debug_assert_eq!(subs.len(), self.dims.len());
        let mut idx = 0;
        let mut stride = 1;
        for (s, d) in subs.iter().zip(&self.dims) {
            idx += s * stride;
            stride *= d;
        }
        idx
    }

    /// Overwrites the value with the real scalar `x` of class `class`,
    /// keeping its buffers: the planned VM writes scalar results into
    /// their slot's existing storage this way.
    pub fn set_scalar(&mut self, x: f64, class: Class) {
        self.dims.clear();
        self.dims.extend_from_slice(&[1, 1]);
        self.re.clear();
        self.re.push(x);
        self.im = None;
        self.class = class;
    }

    /// Takes the value apart into `(dims, re, im, class)` without
    /// copying its buffers.
    pub fn into_parts(self) -> (Vec<usize>, Vec<f64>, Option<Vec<f64>>, Class) {
        (self.dims, self.re, self.im, self.class)
    }

    /// Rewrites the value in place from raw parts, reusing buffers where
    /// capacity allows (the planned VM's resize-in-slot path).
    pub fn assign_parts(&mut self, dims: Vec<usize>, re: Vec<f64>, im: Option<Vec<f64>>) {
        self.dims = dims;
        self.re = re;
        self.im = im;
        self.fix_rank();
    }

    /// Rewrites the value in place, reusing its buffers. `fill` gets the
    /// cleared extents and real parts, plus the cleared imaginary parts
    /// when `complex`. The value is then tagged `class`, rank-fixed, and
    /// an all-zero imaginary part is dropped.
    pub(crate) fn refill(
        &mut self,
        class: Class,
        complex: bool,
        fill: impl FnOnce(&mut Vec<usize>, &mut Vec<f64>, Option<&mut Vec<f64>>),
    ) {
        self.dims.clear();
        self.re.clear();
        match &mut self.im {
            Some(im) if complex => im.clear(),
            _ => self.im = complex.then(Vec::new),
        }
        fill(&mut self.dims, &mut self.re, self.im.as_mut());
        self.class = class;
        self.fix_rank();
        if self
            .im
            .as_ref()
            .is_some_and(|im| im.iter().all(|x| *x == 0.0))
        {
            self.im = None;
        }
    }

    /// Gives the value new extents over the same elements.
    pub(crate) fn reshape(&mut self, dims: &[usize]) {
        debug_assert_eq!(dims.iter().product::<usize>(), self.re.len());
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.fix_rank();
    }

    /// Approximate payload bytes of the value under a C layout (used by
    /// the mcc-model accounting: doubles are 8 bytes, complex 16, char
    /// and logical 1).
    pub fn payload_bytes(&self) -> u64 {
        let per = match (self.class, self.is_complex()) {
            (Class::Double, false) => 8,
            (Class::Double, true) => 16,
            (Class::Char, _) | (Class::Logical, _) => 1,
        };
        self.numel() as u64 * per
    }
}

impl Clone for Value {
    fn clone(&self) -> Value {
        Value {
            dims: self.dims.clone(),
            re: self.re.clone(),
            im: self.im.clone(),
            class: self.class,
        }
    }

    /// Copies `src` into the existing buffers, reallocating only when
    /// they are too small.
    fn clone_from(&mut self, src: &Value) {
        self.dims.clone_from(&src.dims);
        self.re.clone_from(&src.re);
        self.im.clone_from(&src.im);
        self.class = src.class;
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::format::format_value(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_basics() {
        let v = Value::scalar(3.5);
        assert!(v.is_scalar());
        assert!(v.is_vector());
        assert_eq!(v.as_scalar(), Some(3.5));
        assert_eq!(v.dims(), &[1, 1]);
        assert_eq!(v.numel(), 1);
    }

    #[test]
    fn column_major_layout() {
        // [1 3; 2 4] stored column-major is [1, 2, 3, 4].
        let m = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.linear_index(&[0, 0]), 0);
        assert_eq!(m.linear_index(&[1, 0]), 1);
        assert_eq!(m.linear_index(&[0, 1]), 2);
        assert_eq!(m.linear_index(&[1, 1]), 3);
    }

    #[test]
    fn three_dimensional_strides() {
        let v = Value::filled(vec![2, 3, 4], 0.0, Class::Double);
        assert_eq!(v.dims(), &[2, 3, 4]);
        assert_eq!(v.numel(), 24);
        assert_eq!(v.linear_index(&[1, 2, 3]), 1 + 2 * 2 + 6 * 3);
    }

    #[test]
    fn eye_pattern() {
        let e = Value::eye(2, 3);
        assert_eq!(e.re(), &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(e.class(), Class::Logical);
    }

    #[test]
    fn truthiness() {
        assert!(Value::scalar(1.0).is_true());
        assert!(!Value::scalar(0.0).is_true());
        assert!(!Value::empty().is_true());
        assert!(Value::from_parts(vec![1, 2], vec![1.0, 2.0]).is_true());
        assert!(!Value::from_parts(vec![1, 2], vec![1.0, 0.0]).is_true());
        // A purely imaginary value is true.
        assert!(Value::complex_scalar(0.0, 2.0).is_true());
    }

    #[test]
    fn normalization_drops_zero_imag() {
        let v = Value::complex_scalar(1.0, 0.0);
        assert!(!v.is_complex());
        let w = Value::complex_scalar(1.0, 2.0);
        assert!(w.is_complex());
    }

    #[test]
    fn subscript_validation() {
        assert_eq!(Value::scalar(3.0).as_subscript().unwrap(), 3);
        assert!(Value::scalar(0.0).as_subscript().is_err());
        assert!(Value::scalar(2.5).as_subscript().is_err());
        assert!(Value::row(vec![1.0, 2.0]).as_subscript().is_err());
    }

    #[test]
    fn extent_clamps_negative() {
        assert_eq!(Value::scalar(-2.0).as_extent().unwrap(), 0);
        assert_eq!(Value::scalar(5.0).as_extent().unwrap(), 5);
    }

    #[test]
    fn string_is_char_row() {
        let s = Value::string("ab");
        assert_eq!(s.class(), Class::Char);
        assert_eq!(s.dims(), &[1, 2]);
        assert_eq!(s.re(), &[97.0, 98.0]);
    }

    #[test]
    fn length_is_max_extent() {
        assert_eq!(Value::filled(vec![3, 7], 0.0, Class::Double).length(), 7);
        assert_eq!(Value::empty().length(), 0);
    }

    #[test]
    fn payload_bytes_model() {
        assert_eq!(
            Value::filled(vec![2, 2], 0.0, Class::Double).payload_bytes(),
            32
        );
        assert_eq!(Value::string("abcd").payload_bytes(), 4);
        assert_eq!(
            Value::from_complex_parts(vec![1, 2], vec![1.0, 2.0], vec![3.0, 4.0]).payload_bytes(),
            32
        );
    }

    #[test]
    fn set_scalar_and_clone_from_reuse_buffers() {
        let mut v = Value::from_complex_parts(vec![4, 4], vec![1.0; 16], vec![2.0; 16]);
        let cap = v.re.capacity();
        v.set_scalar(-0.0, Class::Logical);
        assert_eq!(v, Value::logical(false));
        assert_eq!(v.re()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(v.re.capacity(), cap, "the matrix buffer is kept");
        let src = Value::from_parts(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        v.clone_from(&src);
        assert_eq!(v, src);
        assert_eq!(v.re.capacity(), cap);
        let z = Value::complex_scalar(1.0, 2.0).with_class(Class::Char);
        v.clone_from(&z);
        assert_eq!(v, z);
    }

    #[test]
    fn trailing_singleton_dims_trimmed() {
        let v = Value::filled(vec![2, 3, 1], 0.0, Class::Double);
        assert_eq!(v.dims(), &[2, 3]);
        let w = Value::filled(vec![2, 1, 3], 0.0, Class::Double);
        assert_eq!(w.dims(), &[2, 1, 3], "interior singletons stay");
    }
}
