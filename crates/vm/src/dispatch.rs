//! Shared operation dispatch: one implementation of every builtin and IR
//! operation, used by all three executors so their outputs are
//! bit-identical (the differential-testing backbone).

use matc_frontend::ast::{BinOp, UnOp};
use matc_ir::instr::Op;
use matc_ir::Builtin;
use matc_runtime::error::{err, Result};
use matc_runtime::ops::index::Sub;
use matc_runtime::ops::{arith, concat, index, linalg, maps, reduce};
use matc_runtime::value::{Class, Value};
use matc_runtime::Rng;

/// Mutable execution environment shared across ops: the RNG stream and
/// the output sink.
#[derive(Debug)]
pub struct Shared {
    /// Deterministic RNG (same stream in every executor).
    pub rng: Rng,
    /// Collected program output (`disp`, `fprintf`, echoes).
    pub out: String,
}

impl Shared {
    /// Creates an environment with the default seed.
    pub fn new() -> Shared {
        Shared {
            rng: Rng::default(),
            out: String::new(),
        }
    }

    /// Creates an environment with an explicit RNG seed.
    pub fn with_seed(seed: u64) -> Shared {
        Shared {
            rng: Rng::new(seed),
            out: String::new(),
        }
    }
}

impl Default for Shared {
    fn default() -> Self {
        Shared::new()
    }
}

/// An operand for [`eval_op`]: a value or the `:` subscript marker.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'v> {
    /// A concrete value.
    Val(&'v Value),
    /// The colon subscript.
    Colon,
}

impl<'v> Arg<'v> {
    /// The value, or an error for `:`.
    ///
    /// # Errors
    ///
    /// Fails on the colon marker.
    pub fn value(&self) -> Result<&'v Value> {
        match self {
            Arg::Val(v) => Ok(v),
            Arg::Colon => err("`:` is only valid as a subscript"),
        }
    }
}

fn subs_from(args: &[Arg<'_>]) -> Result<Vec<Sub>> {
    args.iter()
        .map(|a| match a {
            Arg::Colon => Ok(Sub::Colon),
            Arg::Val(v) => Sub::from_value(v),
        })
        .collect()
}

/// `subsref(args...)` written into `out`'s existing buffers; `out` is
/// left untouched on error.
///
/// # Errors
///
/// Fails on invalid or out-of-range subscripts.
pub fn subsref_into(out: &mut Value, args: &[Arg<'_>]) -> Result<()> {
    let a = args[0].value()?;
    let subs = subs_from(&args[1..])?;
    index::subsref_into(out, a, &subs)?;
    // A single non-vector subscript shapes the result like the
    // subscript (MATLAB a(v) with matrix v).
    if let [Arg::Val(v)] = args[1..] {
        if !v.is_vector() && v.class() != Class::Logical {
            index::reshape_like(out, v.dims());
        }
    }
    Ok(())
}

/// `subsasgn(args...)` stored into `a`, a copy of the array operand
/// `args[0]` whose buffers the result reuses.
///
/// # Errors
///
/// Fails on invalid subscripts or value-shape mismatches.
pub fn subsasgn_onto(a: Value, args: &[Arg<'_>]) -> Result<Value> {
    let r = args[1].value()?;
    let subs = subs_from(&args[2..])?;
    index::subsasgn(a, r, &subs)
}

/// Evaluates a single-result IR operation.
///
/// # Errors
///
/// Propagates MATLAB semantic errors (conformance, bounds, singularity).
pub fn eval_op(op: &Op, args: &[Arg<'_>], sh: &mut Shared) -> Result<Value> {
    match op {
        Op::Bin(b) => {
            let x = args[0].value()?;
            let y = args[1].value()?;
            eval_binop(*b, x, y)
        }
        Op::Un(u) => {
            let x = args[0].value()?;
            eval_unop(*u, x)
        }
        Op::Subsref => {
            let mut out = Value::empty();
            subsref_into(&mut out, args)?;
            Ok(out)
        }
        Op::Subsasgn => subsasgn_onto(args[0].value()?.clone(), args),
        Op::Range2 => {
            let a = args[0].value()?;
            let b = args[1].value()?;
            index::range(a, None, b)
        }
        Op::Range3 => {
            let a = args[0].value()?;
            let s = args[1].value()?;
            let b = args[2].value()?;
            index::range(a, Some(s), b)
        }
        Op::MatrixBuild { rows } => {
            let mut vals: Vec<&Value> = Vec::with_capacity(args.len());
            for a in args {
                vals.push(a.value()?);
            }
            let mut grid: Vec<Vec<&Value>> = Vec::with_capacity(rows.len());
            let mut k = 0;
            for &len in rows {
                grid.push(vals[k..k + len].to_vec());
                k += len;
            }
            concat::matrix_build(&grid)
        }
        Op::Builtin(b) => {
            let mut vals: Vec<&Value> = Vec::with_capacity(args.len());
            for a in args {
                vals.push(a.value()?);
            }
            eval_builtin(*b, &vals, sh)
        }
        Op::Call(name) => err(format!(
            "user call `{name}` must be handled by the executor"
        )),
    }
}

/// Evaluates a binary operator.
pub fn eval_binop(b: BinOp, x: &Value, y: &Value) -> Result<Value> {
    match b {
        BinOp::Add => arith::add(x, y),
        BinOp::Sub => arith::sub(x, y),
        BinOp::MatMul => linalg::matmul(x, y),
        BinOp::ElemMul => arith::elem_mul(x, y),
        BinOp::MatDiv => linalg::right_div(x, y),
        BinOp::ElemDiv => arith::elem_div(x, y),
        BinOp::MatLeftDiv => linalg::left_div(x, y),
        BinOp::ElemLeftDiv => arith::elem_left_div(x, y),
        BinOp::MatPow => linalg::matpow(x, y),
        BinOp::ElemPow => arith::elem_pow_auto(x, y),
        BinOp::Eq => arith::eq(x, y),
        BinOp::Ne => arith::ne(x, y),
        BinOp::Lt => arith::lt(x, y),
        BinOp::Le => arith::le(x, y),
        BinOp::Gt => arith::gt(x, y),
        BinOp::Ge => arith::ge(x, y),
        BinOp::And => arith::and(x, y),
        BinOp::Or => arith::or(x, y),
        BinOp::ShortAnd => Ok(Value::logical(x.is_true() && y.is_true())),
        BinOp::ShortOr => Ok(Value::logical(x.is_true() || y.is_true())),
    }
}

/// A comparison or logical result as MATLAB's 0/1.
fn flag(t: bool) -> f64 {
    f64::from(u8::from(t))
}

/// What [`eval_binop`] gives on two real scalars and its class, the
/// operator matched per call so that a caller's loop inlines it; `None`
/// for `^`/`.^` of a negative base and a fractional exponent, whose
/// result is complex.
#[inline(always)]
pub(crate) fn real_bin(b: BinOp, x: f64, y: f64) -> Option<(f64, Class)> {
    let logical = |t: bool| Some((flag(t), Class::Logical));
    let double = |r: f64| Some((r, Class::Double));
    match b {
        BinOp::Add => double(x + y),
        BinOp::Sub => double(x - y),
        BinOp::MatMul | BinOp::ElemMul => double(x * y),
        BinOp::MatDiv | BinOp::ElemDiv => double(x / y),
        BinOp::MatLeftDiv | BinOp::ElemLeftDiv => double(y / x),
        BinOp::MatPow | BinOp::ElemPow if x < 0.0 && y.fract() != 0.0 => None,
        BinOp::MatPow | BinOp::ElemPow => double(x.powf(y)),
        BinOp::Eq => logical(x == y),
        BinOp::Ne => logical(x != y),
        BinOp::Lt => logical(x < y),
        BinOp::Le => logical(x <= y),
        BinOp::Gt => logical(x > y),
        BinOp::Ge => logical(x >= y),
        BinOp::And | BinOp::ShortAnd => logical(x != 0.0 && y != 0.0),
        BinOp::Or | BinOp::ShortOr => logical(x != 0.0 || y != 0.0),
    }
}

/// What [`eval_op`] computes for an op whose operands are real 1×1
/// values and whose result is one, decoded once per op: the one
/// definition of scalar semantics. The typed lowering
/// ([`crate::typed`]) types exactly the ops that have a kernel; the
/// planned VM applies it, and the C backend spells each one as a
/// `double` expression.
#[derive(Debug, Clone, Copy)]
pub enum ScalarKernel {
    /// A binary operator on two real scalars.
    Bin(BinOp),
    /// A map to a double (`-`, `abs`, `floor`, `real`, one-input `max`).
    Map(fn(f64) -> f64),
    /// `sqrt` (`open: false`) or `log` (`open: true`): complex below
    /// zero (or at zero for `log`); NaN stays real.
    Domain {
        /// The map.
        k: fn(f64) -> f64,
        /// Whether zero is outside the real domain.
        open: bool,
    },
    /// A map to a logical (`~`, `istrue`).
    Test(fn(f64) -> bool),
    /// The operand itself, its class kept (transpose, `conj`, unary `+`).
    Same,
    /// A two-input builtin to a double (`mod`, `rem`, `atan2`, `max`, `min`).
    Map2(fn(f64, f64) -> f64),
    /// `range_count(start, step, stop)`: fails on a zero or non-finite
    /// operand.
    RangeCount,
    /// `loop_index(start, step, _, k)`: fails on a non-finite operand.
    LoopIndex,
    /// A constant builtin (`pi`, `Inf`, `NaN`, `eps`).
    Const(f64),
}

/// Operand positions a [`ScalarKernel`] reads, by arity.
const READS: [&[usize]; 4] = [&[], &[0], &[0, 1], &[0, 1, 2]];

impl ScalarKernel {
    /// The kernel of `op` applied to `arity` operands, and the operand
    /// positions it reads (a loop index does not read the loop's stop
    /// value), or `None` when the op has no scalar form.
    pub fn of(op: &Op, arity: usize) -> Option<(ScalarKernel, &'static [usize])> {
        use ScalarKernel::*;
        let k = match (op, arity) {
            (Op::Bin(b), 2) => Bin(*b),
            (Op::Un(UnOp::Neg), 1) => Map(|x| -x),
            (Op::Un(UnOp::Not), 1) => Test(|x| x == 0.0),
            (Op::Un(UnOp::Plus | UnOp::Transpose | UnOp::CTranspose), 1) => Same,
            (Op::Builtin(b), n) => return Self::builtin(*b, n),
            _ => return None,
        };
        Some((k, READS[arity]))
    }

    fn builtin(b: Builtin, arity: usize) -> Option<(ScalarKernel, &'static [usize])> {
        use ScalarKernel::*;
        let k = match (b, arity) {
            (Builtin::Abs, 1) => Map(f64::abs),
            (Builtin::Sqrt, 1) => Domain {
                k: f64::sqrt,
                open: false,
            },
            (Builtin::Log, 1) => Domain {
                k: f64::ln,
                open: true,
            },
            (Builtin::Sin, 1) => Map(f64::sin),
            (Builtin::Cos, 1) => Map(f64::cos),
            (Builtin::Tan, 1) => Map(f64::tan),
            (Builtin::Atan, 1) => Map(f64::atan),
            (Builtin::Exp, 1) => Map(f64::exp),
            (Builtin::Floor, 1) => Map(f64::floor),
            (Builtin::Ceil, 1) => Map(f64::ceil),
            (Builtin::Round, 1) => Map(maps::round_real),
            (Builtin::Fix, 1) => Map(f64::trunc),
            (Builtin::Sign, 1) => Map(maps::sign_real),
            (Builtin::Real | Builtin::Max | Builtin::Min, 1) => Map(|x| x),
            (Builtin::Imag, 1) => Map(|_| 0.0),
            (Builtin::Conj, 1) => Same,
            (Builtin::Mod, 2) => Map2(arith::mod_real),
            (Builtin::Rem, 2) => Map2(arith::rem_real),
            (Builtin::Atan2, 2) => Map2(f64::atan2),
            (Builtin::Max, 2) => Map2(f64::max),
            (Builtin::Min, 2) => Map2(f64::min),
            (Builtin::IsTrue, 1) => Test(|x| x != 0.0),
            (Builtin::RangeCount, 3) => RangeCount,
            (Builtin::LoopIndex, 4) => return Some((LoopIndex, &[0, 1, 3])),
            (Builtin::Pi, 0) => Const(std::f64::consts::PI),
            (Builtin::Inf, 0) => Const(f64::INFINITY),
            (Builtin::NaN, 0) => Const(f64::NAN),
            (Builtin::Eps, 0) => Const(f64::EPSILON),
            _ => return None,
        };
        Some((k, READS[arity]))
    }

    /// The result on the operands the kernel reads, in order (`class0` is
    /// the first one's class), bit for bit what [`eval_op`] returns on
    /// real 1×1 values; `None` when that result is complex or an error,
    /// which the general path then reports.
    #[inline(always)]
    pub fn apply(self, x: [f64; 3], class0: Class) -> Option<(f64, Class)> {
        use ScalarKernel::*;
        let [a, b, c] = x;
        let finite = |v: f64| v.is_finite();
        Some(match self {
            Bin(op) => return real_bin(op, a, b),
            Map(k) => (k(a), Class::Double),
            Domain { k, open } => {
                let real = if open { a > 0.0 } else { a >= 0.0 };
                if !real && !a.is_nan() {
                    return None;
                }
                (k(a), Class::Double)
            }
            Test(k) => (flag(k(a)), Class::Logical),
            Same => (a, class0),
            Map2(k) => (k(a, b), Class::Double),
            RangeCount => {
                if b == 0.0 || !finite(a) || !finite(b) || !finite(c) {
                    return None;
                }
                ((((c - a) / b).floor() + 1.0).max(0.0), Class::Double)
            }
            LoopIndex => {
                if !finite(a) || !finite(b) || !finite(c) {
                    return None;
                }
                (a + b * (c - 1.0), Class::Double)
            }
            Const(v) => (v, Class::Double),
        })
    }
}

/// The 0-based linear index that the real, non-logical subscripts `xs`
/// select in `a`: `None` unless each is a positive integer within its
/// extent and there is one subscript or one per dimension.
#[inline]
pub(crate) fn linear_index(a: &Value, xs: &[f64]) -> Option<usize> {
    // `x as usize` saturates (NaN to 0), so the round trip holds exactly
    // for the positive integers a `usize` holds.
    let position = |x: f64, extent: usize| {
        let i = x as usize;
        (i >= 1 && i as f64 == x && i <= extent).then(|| i - 1)
    };
    if let [x] = xs {
        return position(*x, a.re().len());
    }
    let dims = a.dims();
    if xs.len() != dims.len() {
        return None;
    }
    let (mut idx, mut stride) = (0, 1);
    for (&x, &extent) in xs.iter().zip(dims) {
        idx += position(x, extent)? * stride;
        stride *= extent;
    }
    Some(idx)
}

/// Evaluates a unary operator.
pub fn eval_unop(u: UnOp, x: &Value) -> Result<Value> {
    match u {
        UnOp::Neg => Ok(arith::neg(x)),
        UnOp::Plus => Ok(x.clone()),
        UnOp::Not => Ok(arith::not(x)),
        UnOp::Transpose => concat::transpose(x),
        UnOp::CTranspose => concat::ctranspose(x),
    }
}

fn extents(args: &[&Value]) -> Result<Vec<usize>> {
    match args.len() {
        0 => Ok(vec![1, 1]),
        1 => {
            let n = args[0].as_extent()?;
            Ok(vec![n, n])
        }
        _ => args.iter().map(|a| a.as_extent()).collect(),
    }
}

/// Evaluates a single-output builtin call.
///
/// # Errors
///
/// Fails on arity or semantic errors; `error(...)` always fails with the
/// user's message.
pub fn eval_builtin(b: Builtin, args: &[&Value], sh: &mut Shared) -> Result<Value> {
    use Builtin::*;
    let one_arg = |name: &str| -> Result<&Value> {
        args.first()
            .copied()
            .ok_or_else(|| matc_runtime::RtError::new(format!("`{name}` needs an argument")))
    };
    Ok(match b {
        Zeros => Value::filled(extents(args)?, 0.0, Class::Double),
        Ones => Value::filled(extents(args)?, 1.0, Class::Double),
        Eye => {
            let d = extents(args)?;
            let (r, c) = (d[0], d.get(1).copied().unwrap_or(d[0]));
            Value::eye(r, c)
        }
        Rand => {
            let d = extents(args)?;
            let n: usize = d.iter().product();
            let mut re = Vec::with_capacity(n);
            for _ in 0..n {
                re.push(sh.rng.next_f64());
            }
            Value::from_parts(d, re)
        }
        Size => {
            let a = one_arg("size")?;
            if args.len() >= 2 {
                let k = args[1].as_subscript()?;
                let d = a.dims().get(k - 1).copied().unwrap_or(1);
                Value::scalar(d as f64)
            } else {
                Value::row(a.dims().iter().map(|d| *d as f64).collect())
            }
        }
        Length => Value::scalar(one_arg("length")?.length() as f64),
        Numel => Value::scalar(one_arg("numel")?.numel() as f64),
        Ndims => Value::scalar(one_arg("ndims")?.dims().len() as f64),
        Disp => {
            let a = one_arg("disp")?;
            sh.out.push_str(&matc_runtime::format::display_string(a));
            sh.out.push('\n');
            Value::empty()
        }
        Fprintf => {
            let fmt = one_arg("fprintf")?;
            let rendered = matc_runtime::format::fprintf(fmt, &args[1..])?;
            sh.out.push_str(&rendered);
            Value::empty()
        }
        Sqrt => maps::sqrt(one_arg("sqrt")?),
        Abs => maps::abs(one_arg("abs")?),
        Sin => maps::sin(one_arg("sin")?),
        Cos => maps::cos(one_arg("cos")?),
        Tan => maps::tan(one_arg("tan")?),
        Atan => maps::atan(one_arg("atan")?),
        Atan2 => arith::atan2(args[0], args[1])?,
        Exp => maps::exp(one_arg("exp")?),
        Log => maps::log(one_arg("log")?),
        Floor => maps::floor(one_arg("floor")?),
        Ceil => maps::ceil(one_arg("ceil")?),
        Round => maps::round(one_arg("round")?),
        Fix => maps::fix(one_arg("fix")?),
        Mod => arith::modulo(args[0], args[1])?,
        Rem => arith::rem(args[0], args[1])?,
        Max => {
            if args.len() >= 2 {
                arith::max2(args[0], args[1])?
            } else {
                reduce::max1(one_arg("max")?)?.0
            }
        }
        Min => {
            if args.len() >= 2 {
                arith::min2(args[0], args[1])?
            } else {
                reduce::min1(one_arg("min")?)?.0
            }
        }
        Sum => reduce::sum(one_arg("sum")?),
        Prod => reduce::prod(one_arg("prod")?),
        Mean => reduce::mean(one_arg("mean")?),
        Norm => reduce::norm(one_arg("norm")?),
        Real => maps::real(one_arg("real")?),
        Imag => maps::imag(one_arg("imag")?),
        Conj => maps::conj(one_arg("conj")?),
        IsEmpty => Value::logical(one_arg("isempty")?.is_empty()),
        Any => reduce::any(one_arg("any")?),
        All => reduce::all(one_arg("all")?),
        Sign => maps::sign(one_arg("sign")?),
        Linspace => {
            let a = args[0]
                .as_scalar()
                .ok_or_else(|| matc_runtime::RtError::new("linspace endpoints must be scalars"))?;
            let b2 = args[1]
                .as_scalar()
                .ok_or_else(|| matc_runtime::RtError::new("linspace endpoints must be scalars"))?;
            let n = if args.len() >= 3 {
                args[2].as_extent()?
            } else {
                100
            };
            let mut re = Vec::with_capacity(n);
            for k in 0..n {
                let t = if n <= 1 {
                    1.0
                } else {
                    k as f64 / (n - 1) as f64
                };
                re.push(a + (b2 - a) * t);
            }
            Value::from_parts(vec![1, n], re)
        }
        Pi => Value::scalar(std::f64::consts::PI),
        Inf => Value::scalar(f64::INFINITY),
        Eps => Value::scalar(f64::EPSILON),
        NaN => Value::scalar(f64::NAN),
        ErrorFn => {
            let msg = args
                .first()
                .map(|v| matc_runtime::format::display_string(v))
                .unwrap_or_else(|| "error".to_string());
            return err(msg);
        }
        RangeCount => {
            let a = args[0].as_scalar().unwrap_or(f64::NAN);
            let s = args[1].as_scalar().unwrap_or(f64::NAN);
            let b2 = args[2].as_scalar().unwrap_or(f64::NAN);
            if s == 0.0 || !a.is_finite() || !s.is_finite() || !b2.is_finite() {
                return err("invalid for-loop range");
            }
            Value::scalar((((b2 - a) / s).floor() + 1.0).max(0.0))
        }
        IsTrue => Value::logical(one_arg("istrue")?.is_true()),
        LoopIndex => {
            let a = args[0].as_scalar().unwrap_or(f64::NAN);
            let s = args[1].as_scalar().unwrap_or(f64::NAN);
            let k = args[3].as_scalar().unwrap_or(f64::NAN);
            if !a.is_finite() || !s.is_finite() || !k.is_finite() {
                return err("invalid for-loop index");
            }
            Value::scalar(a + s * (k - 1.0))
        }
    })
}

/// Evaluates a multi-output builtin (`[m, n] = size(a)`, `[v, i] =
/// max(a)`).
///
/// # Errors
///
/// Fails for builtins without a multi-output form.
pub fn eval_builtin_multi(
    b: Builtin,
    nouts: usize,
    args: &[&Value],
    sh: &mut Shared,
) -> Result<Vec<Value>> {
    use Builtin::*;
    match b {
        Size if nouts >= 2 => {
            let a = args[0];
            let d = a.dims();
            let mut outs = Vec::with_capacity(nouts);
            for k in 0..nouts {
                let v = if k + 1 < nouts {
                    d.get(k).copied().unwrap_or(1) as f64
                } else {
                    // The last output collects the remaining extents.
                    d.get(k..)
                        .map(|rest| rest.iter().product::<usize>())
                        .unwrap_or(1) as f64
                };
                outs.push(Value::scalar(v));
            }
            Ok(outs)
        }
        Max if nouts == 2 => {
            let (m, i) = reduce::max1(args[0])?;
            Ok(vec![m, i])
        }
        Min if nouts == 2 => {
            let (m, i) = reduce::min1(args[0])?;
            Ok(vec![m, i])
        }
        _ if nouts <= 1 => {
            let v = eval_builtin(b, args, sh)?;
            Ok(vec![v])
        }
        _ => err(format!(
            "builtin `{}` does not support {nouts} outputs",
            b.name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let mut sh = Shared::new();
        let z = eval_builtin(Builtin::Zeros, &[&Value::scalar(3.0)], &mut sh).unwrap();
        assert_eq!(z.dims(), &[3, 3]);
        let o = eval_builtin(
            Builtin::Ones,
            &[&Value::scalar(2.0), &Value::scalar(4.0)],
            &mut sh,
        )
        .unwrap();
        assert_eq!(o.dims(), &[2, 4]);
        assert!(o.re().iter().all(|x| *x == 1.0));
        let z3 = eval_builtin(
            Builtin::Zeros,
            &[
                &Value::scalar(2.0),
                &Value::scalar(3.0),
                &Value::scalar(4.0),
            ],
            &mut sh,
        )
        .unwrap();
        assert_eq!(z3.dims(), &[2, 3, 4]);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut a = Shared::with_seed(9);
        let mut b = Shared::with_seed(9);
        let x = eval_builtin(Builtin::Rand, &[&Value::scalar(2.0)], &mut a).unwrap();
        let y = eval_builtin(Builtin::Rand, &[&Value::scalar(2.0)], &mut b).unwrap();
        assert_eq!(x.re(), y.re());
    }

    #[test]
    fn size_forms() {
        let mut sh = Shared::new();
        let a = Value::filled(vec![2, 5], 0.0, Class::Double);
        let s = eval_builtin(Builtin::Size, &[&a], &mut sh).unwrap();
        assert_eq!(s.re(), &[2.0, 5.0]);
        let s2 = eval_builtin(Builtin::Size, &[&a, &Value::scalar(2.0)], &mut sh).unwrap();
        assert_eq!(s2.as_scalar(), Some(5.0));
        let s9 = eval_builtin(Builtin::Size, &[&a, &Value::scalar(9.0)], &mut sh).unwrap();
        assert_eq!(s9.as_scalar(), Some(1.0), "trailing dims are 1");
        let multi = eval_builtin_multi(Builtin::Size, 2, &[&a], &mut sh).unwrap();
        assert_eq!(multi[0].as_scalar(), Some(2.0));
        assert_eq!(multi[1].as_scalar(), Some(5.0));
    }

    #[test]
    fn size_multi_folds_trailing() {
        let mut sh = Shared::new();
        let a = Value::filled(vec![2, 3, 4], 0.0, Class::Double);
        let multi = eval_builtin_multi(Builtin::Size, 2, &[&a], &mut sh).unwrap();
        assert_eq!(multi[1].as_scalar(), Some(12.0));
    }

    #[test]
    fn output_sinks() {
        let mut sh = Shared::new();
        eval_builtin(Builtin::Disp, &[&Value::scalar(5.0)], &mut sh).unwrap();
        eval_builtin(
            Builtin::Fprintf,
            &[&Value::string("%d!\n"), &Value::scalar(7.0)],
            &mut sh,
        )
        .unwrap();
        assert_eq!(sh.out, "    5\n7!\n");
    }

    #[test]
    fn error_builtin_fails() {
        let mut sh = Shared::new();
        let e = eval_builtin(Builtin::ErrorFn, &[&Value::string("boom")], &mut sh).unwrap_err();
        assert_eq!(e.message, "boom");
    }

    #[test]
    fn op_subsref_with_colon() {
        let mut sh = Shared::new();
        let a = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let col2 = Value::scalar(2.0);
        let r = eval_op(
            &Op::Subsref,
            &[Arg::Val(&a), Arg::Colon, Arg::Val(&col2)],
            &mut sh,
        )
        .unwrap();
        assert_eq!(r.re(), &[3.0, 4.0]);
    }

    #[test]
    fn matrix_subscript_shapes_result() {
        let mut sh = Shared::new();
        let a = Value::row(vec![10.0, 20.0, 30.0, 40.0]);
        let idx = Value::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = eval_op(&Op::Subsref, &[Arg::Val(&a), Arg::Val(&idx)], &mut sh).unwrap();
        assert_eq!(r.dims(), &[2, 2], "a(v) takes v's shape");
    }

    #[test]
    fn linspace_endpoints() {
        let mut sh = Shared::new();
        let r = eval_builtin(
            Builtin::Linspace,
            &[
                &Value::scalar(0.0),
                &Value::scalar(1.0),
                &Value::scalar(5.0),
            ],
            &mut sh,
        )
        .unwrap();
        assert_eq!(r.re(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    const ALL_BINOPS: [BinOp; 20] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::MatMul,
        BinOp::ElemMul,
        BinOp::MatDiv,
        BinOp::ElemDiv,
        BinOp::MatLeftDiv,
        BinOp::ElemLeftDiv,
        BinOp::MatPow,
        BinOp::ElemPow,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::ShortAnd,
        BinOp::ShortOr,
    ];

    /// Scalars the parity sweep crosses: signed zeros, infinities, NaN,
    /// integral and fractional reals of both signs, char and logical.
    fn sweep() -> Vec<Value> {
        let reals = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            2.0,
            -8.0,
            1.0 / 3.0,
            -2.5,
        ];
        let mut v: Vec<Value> = reals.iter().map(|x| Value::scalar(*x)).collect();
        v.push(Value::string("a"));
        v.push(Value::logical(true));
        v.push(Value::logical(false));
        v
    }

    /// Whether a typed step's `(x, class)` is exactly the general
    /// path's value: a real 1x1 of the same class and the same bits.
    fn same(fast: (f64, Class), general: &Value) -> bool {
        general.dims() == [1, 1]
            && !general.is_complex()
            && general.class() == fast.1
            && general.re()[0].to_bits() == fast.0.to_bits()
    }

    /// What a typed step computes for `op` over `args`: the op's
    /// [`ScalarKernel`] on the operands it reads, each a real 1x1;
    /// `None` when an operand is not one or the kernel declines.
    fn kernel(op: &Op, args: &[&Value]) -> Option<(f64, Class)> {
        let (k, reads) = ScalarKernel::of(op, args.len())?;
        let mut x = [0.0; 3];
        for (x, &i) in x.iter_mut().zip(reads) {
            *x = args[i].as_scalar()?;
        }
        let class0 = reads.first().map_or(Class::Double, |&i| args[i].class());
        k.apply(x, class0)
    }

    /// The element a typed `Get`/`Set` step addresses: one to three
    /// real, non-logical scalar subscripts into a real array, through
    /// [`linear_index`]; `None` sends the step to the general path.
    fn element(a: &Value, subs: &[&Value]) -> Option<usize> {
        if a.is_complex() || !(1..=3).contains(&subs.len()) {
            return None;
        }
        let mut xs = [0.0; 3];
        for (x, s) in xs.iter_mut().zip(subs) {
            if s.class() == Class::Logical {
                return None;
            }
            *x = s.as_scalar()?;
        }
        linear_index(a, &xs[..subs.len()])
    }

    #[test]
    fn scalar_binops_match_eval_op() {
        let mut sh = Shared::new();
        let vals = sweep();
        for b in ALL_BINOPS {
            for x in &vals {
                for y in &vals {
                    let args = [Arg::Val(x), Arg::Val(y)];
                    let general = eval_op(&Op::Bin(b), &args, &mut sh).unwrap();
                    let (xs, ys) = (x.re()[0], y.re()[0]);
                    match kernel(&Op::Bin(b), &[x, y]) {
                        Some(fast) => assert!(
                            same(fast, &general),
                            "{b:?} {x} {y}: fast {fast:?}, general {general:?}"
                        ),
                        None => assert!(
                            matches!(b, BinOp::MatPow | BinOp::ElemPow)
                                && xs < 0.0
                                && ys.fract() != 0.0,
                            "{b:?} {x} {y} left the typed path"
                        ),
                    }
                }
            }
        }
        // The case that leaves it: (-8)^(1/3) is complex.
        let (x, y) = (Value::scalar(-8.0), Value::scalar(1.0 / 3.0));
        let args = [Arg::Val(&x), Arg::Val(&y)];
        assert_eq!(kernel(&Op::Bin(BinOp::ElemPow), &[&x, &y]), None);
        assert!(eval_op(&Op::Bin(BinOp::ElemPow), &args, &mut sh)
            .unwrap()
            .is_complex());
    }

    #[test]
    fn scalar_builtins_match_eval_op() {
        let mut sh = Shared::new();
        let mut vals = sweep();
        vals.push(Value::row(vec![1.0, 0.0]));
        vals.push(Value::complex_scalar(0.0, 2.0));
        vals.push(Value::empty());
        for x in &vals {
            let args = [Arg::Val(x)];
            for b in [Builtin::IsTrue, Builtin::Abs] {
                let op = Op::Builtin(b);
                let general = eval_op(&op, &args, &mut sh).unwrap();
                match kernel(&op, &[x]) {
                    Some(fast) => assert!(same(fast, &general), "{b:?} {x}"),
                    // A non-scalar or complex operand is no typed
                    // scalar: the general path computes it.
                    None => assert!(x.as_scalar().is_none(), "{b:?} {x}"),
                }
            }
        }
        let op = Op::Builtin(Builtin::LoopIndex);
        let count = Value::scalar(9.0);
        for a in &vals {
            for st in &vals {
                for k in &vals {
                    let args = [Arg::Val(a), Arg::Val(st), Arg::Val(&count), Arg::Val(k)];
                    match (
                        kernel(&op, &[a, st, &count, k]),
                        eval_op(&op, &args, &mut sh),
                    ) {
                        (Some(fast), Ok(general)) => assert!(same(fast, &general)),
                        (None, Err(e)) => assert_eq!(e.message, "invalid for-loop index"),
                        (fast, general) => panic!("{a} {st} {k}: {fast:?} vs {general:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_scalar_kernel_matches_eval_op() {
        // Each op with a scalar form, over every pair of swept scalars:
        // the kernel's result is the general path's bit for bit, or the
        // kernel declines and the general path is complex or an error.
        let mut sh = Shared::new();
        let vals = sweep();
        let mut ops: Vec<(Op, usize)> = ALL_BINOPS.iter().map(|b| (Op::Bin(*b), 2)).collect();
        for u in [
            UnOp::Neg,
            UnOp::Not,
            UnOp::Plus,
            UnOp::Transpose,
            UnOp::CTranspose,
        ] {
            ops.push((Op::Un(u), 1));
        }
        let names = "abs sqrt log sin cos tan atan exp floor ceil round fix sign real imag conj \
                     max min mod rem atan2 pi Inf NaN eps";
        for n in names.split_whitespace() {
            let b = Builtin::from_name(n).unwrap();
            for arity in 0..=2 {
                if ScalarKernel::of(&Op::Builtin(b), arity).is_some() {
                    ops.push((Op::Builtin(b), arity));
                }
            }
        }
        ops.push((Op::Builtin(Builtin::RangeCount), 3));
        let mut checked = 0;
        for (op, arity) in &ops {
            for x in &vals {
                for y in &vals {
                    for z in [&Value::scalar(5.0), y] {
                        let operands = &[x, y, z][..*arity];
                        let args: Vec<Arg<'_>> = operands.iter().map(|v| Arg::Val(v)).collect();
                        let general = eval_op(op, &args, &mut sh);
                        match (kernel(op, operands), general) {
                            (Some(fast), Ok(g)) => {
                                assert!(same(fast, &g), "{op:?} {x} {y} {z}: {fast:?} vs {g:?}")
                            }
                            // Declines where the result may be complex:
                            // a negative base to a fractional power, and
                            // `log(0)` (real for +0, complex for -0).
                            (None, Ok(g)) => {
                                let (xs, ys) = (x.re()[0], y.re()[0]);
                                let pow = matches!(op, Op::Bin(BinOp::MatPow | BinOp::ElemPow));
                                let declines = (pow && xs < 0.0 && ys.fract() != 0.0)
                                    || (*op == Op::Builtin(Builtin::Log) && xs == 0.0);
                                assert!(
                                    g.is_complex() || declines,
                                    "{op:?} {x} {y} {z} left the typed path: {g:?}"
                                );
                            }
                            (None, Err(_)) => {}
                            (Some(fast), Err(e)) => {
                                panic!("{op:?} {x} {y} {z}: {fast:?} vs error {e}")
                            }
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn scalar_subscripts_match_eval_op() {
        let mut sh = Shared::new();
        let arrays = [
            Value::from_parts(vec![2, 3], vec![1.0, -0.0, f64::NAN, 4.0, 5.0, 6.0]),
            Value::string("hello"),
            Value::row(vec![1.0, 0.0, 1.0]).with_class(Class::Logical),
            Value::from_parts(vec![2, 2, 2], (1..=8).map(f64::from).collect()),
            Value::scalar(7.0),
        ];
        let r = Value::scalar(-3.5);
        for a in &arrays {
            // Every in-range position, linearly and one subscript per
            // dimension.
            let mut forms: Vec<Vec<Value>> = (1..=a.numel())
                .map(|i| vec![Value::scalar(i as f64)])
                .collect();
            let d = a.dims();
            for lin in 0..a.numel() {
                let (mut rem, mut subs) = (lin, Vec::new());
                for &e in d {
                    subs.push(Value::scalar((rem % e + 1) as f64));
                    rem /= e;
                }
                forms.push(subs);
            }
            for subs in &forms {
                let sub_refs: Vec<&Value> = subs.iter().collect();
                let i = element(a, &sub_refs).expect("scalar subscripts");
                let mut args = vec![Arg::Val(a)];
                args.extend(subs.iter().map(Arg::Val));
                let general = eval_op(&Op::Subsref, &args, &mut sh).unwrap();
                assert!(same((a.re()[i], a.class()), &general), "{a}({subs:?})");

                // subsasgn: the element written in place is the general
                // path's whole result.
                let mut asgn = vec![Arg::Val(a), Arg::Val(&r)];
                asgn.extend(subs.iter().map(Arg::Val));
                let general = eval_op(&Op::Subsasgn, &asgn, &mut sh).unwrap();
                let mut fast = a.clone();
                fast.re_mut()[i] = -3.5;
                assert_eq!(fast.class(), general.class());
                assert_eq!(fast.dims(), general.dims());
                let bits = |v: &Value| v.re().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&general), "{a}({subs:?}) = r");
            }
        }
    }

    #[test]
    fn subscripts_outside_the_fast_path_keep_the_general_result() {
        let mut sh = Shared::new();
        let a = Value::from_parts(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let cube = Value::from_parts(vec![2, 2, 2], (1..=8).map(f64::from).collect());
        let subsref = |args: &[&Value], sh: &mut Shared| {
            assert_eq!(element(args[0], &args[1..]), None);
            let args: Vec<Arg<'_>> = args.iter().map(|v| Arg::Val(v)).collect();
            eval_op(&Op::Subsref, &args, sh)
        };
        // A logical subscript selects by mask, not by position.
        let t = Value::logical(true);
        let r = subsref(&[&a, &t], &mut sh).unwrap();
        assert_eq!((r.re(), r.class()), (&[1.0][..], Class::Double));
        // Out of range and non-integral: the general path's errors.
        let seven = Value::scalar(7.0);
        let e = subsref(&[&a, &seven], &mut sh).unwrap_err();
        assert_eq!(e.message, "index 7 exceeds the 6 elements of the array");
        let three = Value::scalar(3.0);
        let e = subsref(&[&a, &three, &three], &mut sh).unwrap_err();
        assert_eq!(e.message, "index 3 exceeds extent 2 in dimension 1");
        let half = Value::scalar(1.5);
        let e = subsref(&[&a, &half], &mut sh).unwrap_err();
        assert_eq!(e.message, "subscript must be a positive integer, got 1.5");
        // Two subscripts into a 2x2x2 array fold the trailing dims.
        let (one, four) = (Value::scalar(1.0), Value::scalar(4.0));
        let r = subsref(&[&cube, &one, &four], &mut sh).unwrap();
        assert_eq!(r.as_scalar(), Some(7.0));
        // A complex array allocates.
        let z = Value::from_complex_parts(vec![1, 2], vec![1.0, 2.0], vec![0.0, 1.0]);
        let r = subsref(&[&z, &one], &mut sh).unwrap();
        assert_eq!(r.as_scalar(), Some(1.0));
    }

    #[test]
    fn max_multi_output() {
        let mut sh = Shared::new();
        let v = Value::row(vec![2.0, 9.0, 4.0]);
        let outs = eval_builtin_multi(Builtin::Max, 2, &[&v], &mut sh).unwrap();
        assert_eq!(outs[0].as_scalar(), Some(9.0));
        assert_eq!(outs[1].as_scalar(), Some(2.0));
    }
}
