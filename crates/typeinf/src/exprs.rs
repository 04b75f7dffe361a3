//! Interned symbolic integer expressions.
//!
//! The shape-tuple and value analyses both manipulate small symbolic
//! integer expressions (array extents like `n`, `n+1`, `max(m, k)`,
//! `m*n`). Expressions are hash-consed into an arena with canonical
//! forms, so **symbolic equivalence is handle equality** — exactly the
//! reuse discipline the paper's MAGICA engine provides and the ⪯ partial
//! order of §3.2 depends on ("inferences are reused whenever symbolic
//! equivalence can be established").
//!
//! Sums are kept in a *linear normal form* (constant + Σ coeffᵢ·atomᵢ
//! with atoms sorted and coefficients combined), so differences cancel
//! and ordering queries like `n ≥ n−3` resolve structurally. Beyond
//! equality the arena answers *provable* ordering queries
//! ([`ExprCtx::provably_ge`]), used by Relation 1 to compare symbolic
//! storage sizes: `max(n, k) ≥ n`, `n + 2 ≥ n`, `3·n ≥ n`, etc. The
//! checker is sound (never claims an ordering that can fail for an
//! admissible assignment) but incomplete, matching the conservative
//! flavor of the paper.

use crate::infer::FactStep;
use std::collections::HashMap;
use std::fmt;

/// An interned expression handle. Equal handles ⇔ structurally equal
/// (canonicalized) expressions within one [`ExprCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A symbolic unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(u32);

/// Canonical expression nodes.
///
/// Invariants maintained by the constructors:
/// * `Add` has ≥ 2 operands, at most one leading `Const`, non-constant
///   operands sorted; no operand is itself an `Add`;
/// * `Mul` has ≥ 2 operands, at most one leading `Const` (≠ 0, ±1 unless
///   alone), non-constant operands sorted; no operand is itself a `Mul`;
/// * `Max` has ≥ 2 distinct sorted operands, none provably dominated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// An integer literal.
    Const(i64),
    /// A symbolic unknown.
    Sym(SymId),
    /// Sum of operands.
    Add(Vec<ExprId>),
    /// Product of operands.
    Mul(Vec<ExprId>),
    /// Maximum of operands.
    Max(Vec<ExprId>),
}

/// The hash-consing arena for symbolic expressions.
#[derive(Debug, Default, Clone)]
pub struct ExprCtx {
    nodes: Vec<ExprNode>,
    memo: HashMap<ExprNode, ExprId>,
    /// Whether each symbol is known to be ≥ 0 (array extents are).
    sym_nonneg: Vec<bool>,
    /// Debug names of symbols.
    sym_names: Vec<String>,
}

#[allow(clippy::should_implement_trait)] // add/mul/sub/max are the symbolic algebra API
impl ExprCtx {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ExprCtx::default()
    }

    fn intern(&mut self, node: ExprNode) -> ExprId {
        if let Some(id) = self.memo.get(&node) {
            return *id;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("expr arena overflow"));
        self.nodes.push(node.clone());
        self.memo.insert(node, id);
        id
    }

    /// The node behind `id`.
    pub fn node(&self, id: ExprId) -> &ExprNode {
        &self.nodes[id.index()]
    }

    /// Interns an integer literal.
    pub fn constant(&mut self, v: i64) -> ExprId {
        self.intern(ExprNode::Const(v))
    }

    /// Creates a fresh symbolic unknown. `nonneg` marks symbols that can
    /// never be negative (array extents, element counts).
    pub fn fresh_sym(&mut self, name: impl Into<String>, nonneg: bool) -> ExprId {
        let sym = SymId(u32::try_from(self.sym_nonneg.len()).expect("too many symbols"));
        self.sym_nonneg.push(nonneg);
        self.sym_names.push(name.into());
        self.intern(ExprNode::Sym(sym))
    }

    /// The literal value of `id`, if it is a constant.
    pub fn as_const(&self, id: ExprId) -> Option<i64> {
        match self.node(id) {
            ExprNode::Const(v) => Some(*v),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Linear normal form
    // ------------------------------------------------------------------

    /// Decomposes `id` into `konst + Σ coeff·atom` (atoms never `Add` or
    /// constant; a `Mul` atom never has a leading constant).
    fn linear_parts(&self, id: ExprId) -> (i64, Vec<(i64, ExprId)>) {
        match self.node(id).clone() {
            ExprNode::Const(v) => (v, vec![]),
            ExprNode::Add(ops) => {
                let mut konst = 0i64;
                let mut terms = Vec::new();
                for op in ops {
                    let (c, t) = self.linear_parts(op);
                    konst = konst.saturating_add(c);
                    terms.extend(t);
                }
                (konst, terms)
            }
            ExprNode::Mul(ops) => {
                // Extract the leading constant as the coefficient.
                let mut coeff = 1i64;
                let mut rest = Vec::new();
                for op in &ops {
                    match self.node(*op) {
                        ExprNode::Const(v) => coeff = coeff.saturating_mul(*v),
                        _ => rest.push(*op),
                    }
                }
                let atom = if rest.len() == 1 {
                    rest[0]
                } else {
                    // Multi-factor atom: reuse the existing interned node
                    // without the constant. (It must already exist or be
                    // internable; we cannot intern from &self, so fall
                    // back to treating the whole Mul as an atom when a
                    // constant is present and rest has >1 factor.)
                    if coeff == 1 {
                        id
                    } else {
                        return (0, vec![(1, id)]);
                    }
                };
                (0, vec![(coeff, atom)])
            }
            _ => (0, vec![(1, id)]),
        }
    }

    /// Rebuilds an expression from linear parts.
    fn rebuild_linear(&mut self, konst: i64, terms: Vec<(i64, ExprId)>) -> ExprId {
        // Combine equal atoms.
        let mut map: HashMap<ExprId, i64> = HashMap::new();
        for (c, a) in terms {
            *map.entry(a).or_insert(0) += c;
        }
        let mut atoms: Vec<(ExprId, i64)> = map.into_iter().filter(|(_, c)| *c != 0).collect();
        atoms.sort();
        let mut ops: Vec<ExprId> = Vec::with_capacity(atoms.len() + 1);
        if konst != 0 {
            ops.push(self.constant(konst));
        }
        for (atom, coeff) in atoms {
            if coeff == 1 {
                ops.push(atom);
            } else {
                let c = self.constant(coeff);
                ops.push(self.raw_mul(c, atom));
            }
        }
        match ops.len() {
            0 => self.constant(0),
            1 => ops[0],
            _ => self.intern(ExprNode::Add(ops)),
        }
    }

    /// Interns `c * atom` where `atom` is not `Add`/`Const`.
    fn raw_mul(&mut self, c: ExprId, atom: ExprId) -> ExprId {
        let mut ops = vec![c];
        match self.node(atom).clone() {
            ExprNode::Mul(inner) => ops.extend(inner),
            _ => ops.push(atom),
        }
        ops[1..].sort();
        self.intern(ExprNode::Mul(ops))
    }

    // ------------------------------------------------------------------
    // Canonicalizing constructors
    // ------------------------------------------------------------------

    /// Interns `a + b` in linear normal form (constants folded, like
    /// atoms combined, zero terms dropped).
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (ca, mut ta) = self.linear_parts(a);
        let (cb, tb) = self.linear_parts(b);
        ta.extend(tb);
        self.rebuild_linear(ca.saturating_add(cb), ta)
    }

    /// Interns `a - b`.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (ca, ta) = self.linear_parts(a);
        let (cb, tb) = self.linear_parts(b);
        let mut terms = ta;
        terms.extend(tb.into_iter().map(|(c, at)| (-c, at)));
        self.rebuild_linear(ca.saturating_sub(cb), terms)
    }

    /// Interns `a * b`. Constant factors distribute over sums; products
    /// of non-constant sums remain opaque atoms.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if let Some(v) = self.as_const(a) {
            return self.scale(v, b);
        }
        if let Some(v) = self.as_const(b) {
            return self.scale(v, a);
        }
        // Non-constant product: flatten Mul children, fold constants.
        let mut konst = 1i64;
        let mut factors = Vec::new();
        for x in [a, b] {
            match self.node(x).clone() {
                ExprNode::Const(v) => konst = konst.saturating_mul(v),
                ExprNode::Mul(ops) => {
                    for op in ops {
                        match self.node(op) {
                            ExprNode::Const(v) => konst = konst.saturating_mul(*v),
                            _ => factors.push(op),
                        }
                    }
                }
                _ => factors.push(x),
            }
        }
        if konst == 0 {
            return self.constant(0);
        }
        factors.sort();
        if factors.is_empty() {
            return self.constant(konst);
        }
        let mut ops = Vec::with_capacity(factors.len() + 1);
        if konst != 1 {
            ops.push(self.constant(konst));
        }
        ops.extend(factors);
        if ops.len() == 1 {
            return ops[0];
        }
        self.intern(ExprNode::Mul(ops))
    }

    /// Interns `c · x`, distributing over sums.
    pub fn scale(&mut self, c: i64, x: ExprId) -> ExprId {
        match c {
            0 => return self.constant(0),
            1 => return x,
            _ => {}
        }
        let (k, terms) = self.linear_parts(x);
        let scaled: Vec<(i64, ExprId)> = terms
            .into_iter()
            .map(|(coeff, atom)| (coeff.saturating_mul(c), atom))
            .collect();
        self.rebuild_linear(k.saturating_mul(c), scaled)
    }

    /// Interns `max(a, b)`, absorbing provably dominated operands
    /// (`max(x, x) = x`, `max(n+1, n) = n+1`).
    pub fn max(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if self.provably_ge(a, b) {
            return a;
        }
        if self.provably_ge(b, a) {
            return b;
        }
        let mut ops = Vec::new();
        for x in [a, b] {
            match self.node(x).clone() {
                ExprNode::Max(inner) => ops.extend(inner),
                _ => ops.push(x),
            }
        }
        ops.sort();
        ops.dedup();
        // Drop operands dominated by another operand.
        let snapshot = ops.clone();
        ops.retain(|x| {
            !snapshot
                .iter()
                .any(|y| y != x && y < x && self.ge_quick(*y, *x))
        });
        if ops.len() == 1 {
            return ops[0];
        }
        self.intern(ExprNode::Max(ops))
    }

    // ------------------------------------------------------------------
    // Ordering queries
    // ------------------------------------------------------------------

    /// Whether `id` is provably ≥ 0 for every admissible assignment.
    pub fn provably_nonneg(&self, id: ExprId) -> bool {
        self.nonneg_depth(id, 8)
    }

    fn nonneg_depth(&self, id: ExprId, depth: u32) -> bool {
        if depth == 0 {
            return false;
        }
        match self.node(id) {
            ExprNode::Const(v) => *v >= 0,
            ExprNode::Sym(s) => self.sym_nonneg[s.0 as usize],
            ExprNode::Add(ops) | ExprNode::Mul(ops) => {
                ops.iter().all(|o| self.nonneg_depth(*o, depth - 1))
            }
            ExprNode::Max(ops) => ops.iter().any(|o| self.nonneg_depth(*o, depth - 1)),
        }
    }

    /// Whether `a ≥ b` holds for every admissible assignment — a sound,
    /// incomplete check.
    ///
    /// ```
    /// use matc_typeinf::exprs::ExprCtx;
    ///
    /// let mut cx = ExprCtx::new();
    /// let n = cx.fresh_sym("n", true);
    /// let k = cx.fresh_sym("k", true);
    /// let one = cx.constant(1);
    /// let n1 = cx.add(n, one);
    /// let mx = cx.max(n, k);
    /// assert!(cx.provably_ge(n1, n));
    /// assert!(cx.provably_ge(mx, n));
    /// assert!(!cx.provably_ge(n, k));
    /// ```
    pub fn provably_ge(&mut self, a: ExprId, b: ExprId) -> bool {
        self.ge_depth(a, b, 6)
    }

    /// Immutable, shallow domination check used inside `max`.
    fn ge_quick(&self, a: ExprId, b: ExprId) -> bool {
        if a == b {
            return true;
        }
        match (self.node(a), self.node(b)) {
            (ExprNode::Const(x), ExprNode::Const(y)) => x >= y,
            _ => false,
        }
    }

    fn ge_depth(&mut self, a: ExprId, b: ExprId, depth: u32) -> bool {
        if a == b {
            return true;
        }
        if depth == 0 {
            return false;
        }
        // Max decomposition rules.
        if let ExprNode::Max(ops) = self.node(a).clone() {
            if ops.iter().any(|o| self.ge_depth(*o, b, depth - 1)) {
                return true;
            }
        }
        if let ExprNode::Max(ops) = self.node(b).clone() {
            if ops.iter().all(|o| self.ge_depth(a, *o, depth - 1)) {
                return true;
            }
        }
        // Difference rule: a - b provably nonnegative.
        let diff = self.sub(a, b);
        if self.provably_nonneg(diff) {
            return true;
        }
        // Monotone product rules (all factors must be provably
        // nonnegative for products to be monotone).
        if let ExprNode::Mul(aops) = self.node(a).clone() {
            if aops.iter().all(|o| self.nonneg_depth(*o, 2)) {
                match self.node(b).clone() {
                    // Π aᵢ ≥ Π bⱼ by a pairwise matching aᵢ ≥ bⱼ (equal
                    // arity; greedy matching suffices at these sizes).
                    ExprNode::Mul(bops)
                        if bops.len() == aops.len()
                            && bops.iter().all(|o| self.nonneg_depth(*o, 2)) =>
                    {
                        let mut used = vec![false; aops.len()];
                        let mut all = true;
                        for bo in &bops {
                            let found = aops
                                .iter()
                                .enumerate()
                                .position(|(i, ao)| !used[i] && self.ge_depth(*ao, *bo, depth - 1));
                            match found {
                                Some(i) => used[i] = true,
                                None => {
                                    all = false;
                                    break;
                                }
                            }
                        }
                        if all {
                            return true;
                        }
                    }
                    // Π aᵢ ≥ b when some aᵢ ≥ b and every other factor ≥ 1.
                    _ if self.provably_nonneg(b) => {
                        let one = self.constant(1);
                        for (i, ao) in aops.iter().enumerate() {
                            if self.ge_depth(*ao, b, depth - 1)
                                && aops
                                    .iter()
                                    .enumerate()
                                    .all(|(j, o)| j == i || self.ge_depth(*o, one, depth - 1))
                            {
                                return true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Evaluation & display (tests, diagnostics)
    // ------------------------------------------------------------------

    /// Evaluates `id` under an assignment of symbol values (indexed by
    /// symbol number; missing symbols evaluate to 0).
    pub fn eval(&self, id: ExprId, env: &[i64]) -> i64 {
        match self.node(id) {
            ExprNode::Const(v) => *v,
            ExprNode::Sym(s) => env.get(s.0 as usize).copied().unwrap_or(0),
            ExprNode::Add(ops) => ops.iter().map(|o| self.eval(*o, env)).sum(),
            ExprNode::Mul(ops) => ops.iter().map(|o| self.eval(*o, env)).product(),
            ExprNode::Max(ops) => ops
                .iter()
                .map(|o| self.eval(*o, env))
                .max()
                .unwrap_or(i64::MIN),
        }
    }

    /// Renders `id` for diagnostics.
    pub fn render(&self, id: ExprId) -> String {
        match self.node(id) {
            ExprNode::Const(v) => v.to_string(),
            ExprNode::Sym(s) => {
                let name = &self.sym_names[s.0 as usize];
                if name.is_empty() {
                    format!("$s{}", s.0)
                } else {
                    name.clone()
                }
            }
            ExprNode::Add(ops) => {
                let parts: Vec<String> = ops.iter().map(|o| self.render(*o)).collect();
                format!("({})", parts.join(" + "))
            }
            ExprNode::Mul(ops) => {
                let parts: Vec<String> = ops.iter().map(|o| self.render(*o)).collect();
                format!("({})", parts.join("*"))
            }
            ExprNode::Max(ops) => {
                let parts: Vec<String> = ops.iter().map(|o| self.render(*o)).collect();
                format!("max({})", parts.join(", "))
            }
        }
    }

    /// Walks `id` canonically and **arena-independently** in prefix
    /// order: symbols are numbered by first occurrence in the walk
    /// (`renumber` is shared by the caller across every expression of
    /// one function) and carry their debug name and sign flag instead
    /// of their global arena index. Two fact sets that walk identically
    /// are isomorphic under a symbol renaming preserving names and
    /// nonnegativity — the equivalence the incremental store's
    /// per-function fragment keys are built on (equal walks ⇒ equal
    /// planning/audit behavior).
    pub fn walk_canonical(
        &self,
        id: ExprId,
        renumber: &mut HashMap<SymId, usize>,
        visit: &mut impl FnMut(FactStep<'_>),
    ) {
        match self.node(id) {
            ExprNode::Const(v) => visit(FactStep::Const(*v)),
            ExprNode::Sym(s) => {
                let next = renumber.len();
                visit(FactStep::Sym {
                    n: *renumber.entry(*s).or_insert(next),
                    nonneg: self.sym_nonneg[s.0 as usize],
                    name: &self.sym_names[s.0 as usize],
                });
            }
            ExprNode::Add(ops) | ExprNode::Mul(ops) | ExprNode::Max(ops) => {
                let kind = match self.node(id) {
                    ExprNode::Add(_) => "add",
                    ExprNode::Mul(_) => "mul",
                    _ => "max",
                };
                visit(FactStep::Node(kind, ops.len()));
                for op in ops {
                    self.walk_canonical(*op, renumber, visit);
                }
                visit(FactStep::Close);
            }
        }
    }

    /// The number of interned nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl fmt::Display for ExprCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExprCtx[{} nodes, {} syms]",
            self.nodes.len(),
            self.sym_nonneg.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_gives_handle_equality() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let one = cx.constant(1);
        let a = cx.add(n, one);
        let b = cx.add(one, n);
        assert_eq!(a, b, "commutative canonical form");
        let two = cx.constant(2);
        let c = cx.add(a, one);
        let d = cx.add(n, two);
        assert_eq!(c, d, "constants folded: (n+1)+1 == n+2");
    }

    #[test]
    fn like_terms_combine_and_cancel() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let two_n = cx.add(n, n);
        let two = cx.constant(2);
        let expect = cx.mul(two, n);
        assert_eq!(two_n, expect, "n + n = 2n");
        let zero = cx.sub(n, n);
        assert_eq!(cx.as_const(zero), Some(0), "n - n = 0");
    }

    #[test]
    fn mul_canonicalization() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let m = cx.fresh_sym("m", true);
        let a = cx.mul(n, m);
        let b = cx.mul(m, n);
        assert_eq!(a, b);
        let zero = cx.constant(0);
        assert_eq!(cx.mul(n, zero), zero);
        let one = cx.constant(1);
        assert_eq!(cx.mul(one, n), n);
        // (2*n)*3 = 6*n
        let two = cx.constant(2);
        let three = cx.constant(3);
        let t = cx.mul(two, n);
        let six_n = cx.mul(t, three);
        let six = cx.constant(6);
        let expect = cx.mul(six, n);
        assert_eq!(six_n, expect);
    }

    #[test]
    fn constants_distribute_over_sums() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let one = cx.constant(1);
        let two = cx.constant(2);
        let n1 = cx.add(n, one);
        let d = cx.mul(two, n1);
        // 2*(n+1) = 2n + 2
        let two_n = cx.mul(two, n);
        let expect = cx.add(two_n, two);
        assert_eq!(d, expect);
    }

    #[test]
    fn max_absorbs() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        assert_eq!(cx.max(n, n), n);
        let one = cx.constant(1);
        let n1 = cx.add(n, one);
        assert_eq!(cx.max(n1, n), n1, "n+1 dominates n");
        let k = cx.fresh_sym("k", true);
        let m1 = cx.max(n, k);
        let m2 = cx.max(k, n);
        assert_eq!(m1, m2);
        // max(max(n,k), n) = max(n,k)
        assert_eq!(cx.max(m1, n), m1);
    }

    #[test]
    fn provable_orderings() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let k = cx.fresh_sym("k", true);
        let one = cx.constant(1);
        let two = cx.constant(2);

        let n1 = cx.add(n, one);
        let n2 = cx.add(n, two);
        assert!(cx.provably_ge(n2, n1), "n+2 >= n+1");
        assert!(!cx.provably_ge(n1, n2));

        let nk = cx.add(n, k);
        assert!(cx.provably_ge(nk, n), "n+k >= n with k nonneg");

        let two_n = cx.mul(two, n);
        assert!(cx.provably_ge(two_n, n), "2n >= n");

        let nm = cx.mul(n, k);
        assert!(!cx.provably_ge(nm, n), "n*k >= n needs k >= 1");

        let mx = cx.max(n, k);
        assert!(cx.provably_ge(mx, n));
        assert!(cx.provably_ge(mx, k));

        let zero = cx.constant(0);
        assert!(cx.provably_ge(n, zero), "extents are nonnegative");

        // Unknown-sign symbol.
        let v = cx.fresh_sym("v", false);
        assert!(!cx.provably_nonneg(v));
        let m3 = cx.constant(-3);
        let vm3 = cx.add(v, m3);
        assert!(cx.provably_ge(v, vm3), "v >= v - 3 by cancellation");
        assert!(!cx.provably_ge(vm3, v));
        assert!(!cx.provably_ge(v, zero));
    }

    #[test]
    fn soundness_against_evaluation() {
        // Randomized check: whenever provably_ge says yes, evaluation
        // agrees across many nonnegative assignments.
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let m = cx.fresh_sym("m", true);
        let c2 = cx.constant(2);
        let c5 = cx.constant(5);
        let mut pool = vec![n, m, c2, c5];
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let a = pool[(rnd() % pool.len() as u64) as usize];
            let b = pool[(rnd() % pool.len() as u64) as usize];
            let e = match rnd() % 3 {
                0 => cx.add(a, b),
                1 => cx.mul(a, b),
                _ => cx.max(a, b),
            };
            pool.push(e);
        }
        for _ in 0..100 {
            let a = pool[(rnd() % pool.len() as u64) as usize];
            let b = pool[(rnd() % pool.len() as u64) as usize];
            if cx.provably_ge(a, b) {
                for env in [[0i64, 0], [1, 7], [13, 2], [100, 100], [5, 0]] {
                    assert!(
                        cx.eval(a, &env) >= cx.eval(b, &env),
                        "claimed {} >= {} but env {:?} disagrees",
                        cx.render(a),
                        cx.render(b),
                        env
                    );
                }
            }
        }
    }

    #[test]
    fn eval_and_render() {
        let mut cx = ExprCtx::new();
        let n = cx.fresh_sym("n", true);
        let one = cx.constant(1);
        let e = cx.add(n, one);
        assert_eq!(cx.eval(e, &[41]), 42);
        assert!(cx.render(e).contains('n'));
    }
}
