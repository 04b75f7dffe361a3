//! The auditor's own dataflow engine.
//!
//! This deliberately re-derives liveness, availability and block
//! reachability from scratch rather than reusing
//! `matc_gctd::Dataflow`: an auditor that shares the dataflow engine
//! of the planner it is checking would inherit its bugs. Since PR 6 the
//! fast path runs on the same *kind* of machinery the production
//! analysis uses — dense `u64`-packed rows ([`matc_ir::bitset`]) driven
//! by LIFO-worklist fixpoints — but the implementation is written here
//! independently, and the original ordered-set iterate-until-stable
//! engine is retained verbatim as [`AuditFlow::compute_reference`] for
//! differential testing (mirroring `Dataflow::compute_reference`).
//!
//! Unlike the production analysis, the auditor materialises
//! **per-instruction** snapshots:
//!
//! * *live-after*: the variables live immediately *after* instruction
//!   `i` of block `b` executes (this is where a definition written at
//!   `i` could clobber a slot-mate) — see
//!   [`AuditFlow::live_after_contains`];
//! * *avail-before*: the variables possibly already defined when
//!   control reaches instruction `i` — see
//!   [`AuditFlow::avail_before_contains`].
//!
//! Both are rows of a [`BitMatrix`] over a flattened instruction index,
//! so the auditor's hot check (live ∩ available slot-mates, A101) is a
//! word-wise AND rather than an ordered-set intersection.
//!
//! Branch-condition uses (`Terminator::used_var`) are included in
//! liveness, because a value consumed by a terminator is still live
//! after the last instruction of its block.

use matc_ir::bitset::{BitMatrix, BitSet};
use matc_ir::ids::{BlockId, VarId};
use matc_ir::instr::InstrKind;
use matc_ir::{Budget, BudgetError, FuncIr};
use std::collections::{BTreeMap, BTreeSet};

/// Per-instruction liveness/availability facts for one SSA function,
/// stored as dense bitset rows over the function's variable universe.
#[derive(Debug, Clone)]
pub struct AuditFlow {
    n_blocks: usize,
    n_vars: usize,
    /// Block × variable: live at entry of the block.
    live_in: BitMatrix,
    /// Block × variable: live at exit (φ uses of successors attributed
    /// to the predecessor edge; function outputs live at return blocks).
    live_out: BitMatrix,
    /// Block × variable: possibly defined on some path reaching the
    /// block entry (parameters available from the start).
    avail_in: BitMatrix,
    /// Block × variable: possibly defined at block exit.
    avail_out: BitMatrix,
    /// Flattened instruction × variable: live right after the
    /// instruction executes, including the block's terminator use.
    live_after: BitMatrix,
    /// Flattened instruction × variable: possibly defined when control
    /// reaches the instruction.
    avail_before: BitMatrix,
    /// Per-block offset into the flattened instruction rows.
    instr_base: Vec<usize>,
    def_site: Vec<Option<(BlockId, usize)>>,
    params: BitSet,
    /// Block × block: a CFG path of length ≥ 1 leads from row to column.
    reach: BitMatrix,
    /// Total worklist visits the fixpoints performed (zero for
    /// [`AuditFlow::compute_reference`]).
    iterations: u64,
}

impl AuditFlow {
    /// Computes all facts for `func`, which must be in SSA form.
    pub fn compute(func: &FuncIr) -> AuditFlow {
        AuditFlow::compute_with_preds(func, &func.predecessors())
    }

    /// [`AuditFlow::compute`] with the predecessor lists supplied by
    /// the caller, so the auditor computes them once per function
    /// rather than once per analysis phase.
    pub fn compute_with_preds(func: &FuncIr, preds: &[Vec<BlockId>]) -> AuditFlow {
        let budget = Budget::unlimited();
        AuditFlow::compute_budgeted_with_preds(func, preds, &budget)
            .expect("unlimited budget cannot trip")
    }

    /// [`AuditFlow::compute_with_preds`] under a [`Budget`]: each
    /// fixpoint charges one fuel unit per worklist visit plus a seeding
    /// charge of one unit per block, and the linear snapshot pass
    /// charges one unit per block — the same charging shape as the
    /// production `Dataflow`, so the degradation ladder treats a slow
    /// audit exactly like a slow analysis.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetError`] that tripped (no partial results).
    ///
    /// # Panics
    ///
    /// Panics if `func` is not in SSA form.
    pub fn compute_budgeted_with_preds(
        func: &FuncIr,
        preds: &[Vec<BlockId>],
        budget: &Budget,
    ) -> Result<AuditFlow, BudgetError> {
        assert!(func.in_ssa, "AuditFlow requires SSA form");
        let n = func.blocks.len();
        let nv = func.vars.len();
        let succs: Vec<Vec<BlockId>> = func
            .block_ids()
            .map(|b| func.block(b).term.successors())
            .collect();

        // Definition sites. Parameters count as defined at position 0
        // of the entry block, before any instruction.
        let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; nv];
        let mut params = BitSet::new(nv);
        for p in &func.params {
            def_site[p.index()] = Some((func.entry, 0));
            params.insert(p.index());
        }
        let mut instr_base: Vec<usize> = Vec::with_capacity(n);
        let mut total_instrs = 0usize;
        for b in func.block_ids() {
            instr_base.push(total_instrs);
            total_instrs += func.block(b).instrs.len();
            for (i, instr) in func.block(b).instrs.iter().enumerate() {
                for d in instr.defs() {
                    def_site[d.index()] = Some((b, i));
                }
            }
        }

        // Block summaries. φ arguments are uses on the incoming edge,
        // so they land in `phi_out` of the predecessor, not in the
        // upward-exposed set of the φ's own block.
        let mut upward = BitMatrix::new(n, nv);
        let mut defs = BitMatrix::new(n, nv);
        let mut phi_out = BitMatrix::new(n, nv);
        for b in func.block_ids() {
            let bi = b.index();
            let blk = func.block(b);
            for instr in &blk.instrs {
                if let InstrKind::Phi { dst, args } = &instr.kind {
                    defs.set(bi, dst.index());
                    for (p, v) in args {
                        phi_out.set(p.index(), v.index());
                    }
                    continue;
                }
                for u in instr.uses() {
                    if !defs.get(bi, u.index()) {
                        upward.set(bi, u.index());
                    }
                }
                for d in instr.defs() {
                    defs.set(bi, d.index());
                }
            }
            if let Some(c) = blk.term.used_var() {
                if !defs.get(bi, c.index()) {
                    upward.set(bi, c.index());
                }
            }
        }

        // Function outputs are live at each return block's exit.
        let mut outs_row = BitSet::new(nv);
        for o in &func.ssa_outs {
            outs_row.insert(o.index());
        }
        let is_ret: Vec<bool> = (0..n).map(|bi| succs[bi].is_empty()).collect();

        let mut iterations: u64 = 0;

        // A LIFO worklist with an on-list flag; seeding order is chosen
        // so pops replay the old deterministic sweep order.
        let mut on_list = vec![true; n];
        let mut worklist: Vec<usize>;

        // --- backward liveness worklist ---
        // live_out[b] = phi_out[b] ∪ ⋃ live_in[succ] (∪ outs at returns);
        // live_in[b]  = upward[b] ∪ (live_out[b] ∖ defs[b]).
        // Both sides grow monotonically, so incremental unions suffice;
        // when live_in[b] grows, b's predecessors are re-examined.
        let mut live_in = BitMatrix::new(n, nv);
        let mut live_out = BitMatrix::new(n, nv);
        let mut scratch = BitSet::new(nv);
        budget.spend(n as u64 + 1)?;
        worklist = (0..n).collect(); // pops run n-1, n-2, … like the old reverse sweep
        while let Some(bi) = worklist.pop() {
            on_list[bi] = false;
            iterations += 1;
            budget.spend(1)?;
            scratch.clear();
            scratch.union_words(phi_out.row(bi));
            for s in &succs[bi] {
                scratch.union_words(live_in.row(s.index()));
            }
            if is_ret[bi] {
                scratch.union_with(&outs_row);
            }
            live_out.union_row_words(bi, scratch.words());
            scratch.subtract_words(defs.row(bi));
            scratch.union_words(upward.row(bi));
            if live_in.union_row_words(bi, scratch.words()) {
                for p in &preds[bi] {
                    if !on_list[p.index()] {
                        on_list[p.index()] = true;
                        worklist.push(p.index());
                    }
                }
            }
        }

        // --- forward may-availability worklist (union over preds) ---
        let mut avail_out = BitMatrix::new(n, nv);
        budget.spend(n as u64 + 1)?;
        worklist = (0..n).rev().collect(); // pops run 0, 1, … like the old forward sweep
        on_list.fill(true);
        while let Some(bi) = worklist.pop() {
            on_list[bi] = false;
            iterations += 1;
            budget.spend(1)?;
            scratch.clear();
            if bi == func.entry.index() {
                scratch.union_with(&params);
            }
            for p in &preds[bi] {
                scratch.union_words(avail_out.row(p.index()));
            }
            scratch.union_words(defs.row(bi));
            if avail_out.union_row_words(bi, scratch.words()) {
                for s in &succs[bi] {
                    if !on_list[s.index()] {
                        on_list[s.index()] = true;
                        worklist.push(s.index());
                    }
                }
            }
        }
        // avail_in is a single pass once avail_out is stable.
        let mut avail_in = BitMatrix::new(n, nv);
        for (bi, ps) in preds.iter().enumerate() {
            if bi == func.entry.index() {
                avail_in.union_row_words(bi, params.words());
            }
            for p in ps {
                let row: Vec<u64> = avail_out.row(p.index()).to_vec();
                avail_in.union_row_words(bi, &row);
            }
        }

        // --- block reachability (paths of length ≥ 1) as a bitset
        // transitive closure: reach[b] = ⋃ over succ s of {s} ∪ reach[s].
        let mut reach = BitMatrix::new(n, n);
        for (bi, ss) in succs.iter().enumerate() {
            for s in ss {
                reach.set(bi, s.index());
            }
        }
        budget.spend(n as u64 + 1)?;
        worklist = (0..n).collect();
        on_list.fill(true);
        while let Some(bi) = worklist.pop() {
            on_list[bi] = false;
            iterations += 1;
            budget.spend(1)?;
            let mut changed = false;
            for s in &succs[bi] {
                changed |= reach.union_rows(bi, s.index());
            }
            if changed {
                for p in &preds[bi] {
                    if !on_list[p.index()] {
                        on_list[p.index()] = true;
                        worklist.push(p.index());
                    }
                }
            }
        }

        // --- per-instruction snapshots (linear, one unit per block) ---
        // Backward through each block for liveness: start from live-out
        // plus the terminator use, then peel instructions off. φ
        // arguments are edge uses, so passing a φ only removes its
        // destination. Forward accumulation for availability.
        let mut live_after = BitMatrix::new(total_instrs, nv);
        let mut avail_before = BitMatrix::new(total_instrs, nv);
        budget.spend(n as u64 + 1)?;
        for b in func.block_ids() {
            budget.spend(1)?;
            let bi = b.index();
            let blk = func.block(b);
            let base = instr_base[bi];

            scratch.clear();
            scratch.union_words(live_out.row(bi));
            if let Some(c) = blk.term.used_var() {
                scratch.insert(c.index());
            }
            for (i, instr) in blk.instrs.iter().enumerate().rev() {
                live_after.union_row_words(base + i, scratch.words());
                for d in instr.defs() {
                    scratch.remove(d.index());
                }
                if !instr.is_phi() {
                    for u in instr.uses() {
                        scratch.insert(u.index());
                    }
                }
            }

            scratch.clear();
            scratch.union_words(avail_in.row(bi));
            for (i, instr) in blk.instrs.iter().enumerate() {
                avail_before.union_row_words(base + i, scratch.words());
                for d in instr.defs() {
                    scratch.insert(d.index());
                }
            }
        }

        Ok(AuditFlow {
            n_blocks: n,
            n_vars: nv,
            live_in,
            live_out,
            avail_in,
            avail_out,
            live_after,
            avail_before,
            instr_base,
            def_site,
            params,
            reach,
            iterations,
        })
    }

    /// The original ordered-set iterate-until-stable engine, retained
    /// verbatim as the naive reference for differential testing: the
    /// worklist engine must be set-for-set identical to this on every
    /// CFG (see [`AuditFlow::facts_eq`]). The results are packed into
    /// the same dense representation so every accessor behaves
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if `func` is not in SSA form.
    pub fn compute_reference(func: &FuncIr) -> AuditFlow {
        assert!(func.in_ssa, "AuditFlow requires SSA form");
        let preds = func.predecessors();
        let n = func.blocks.len();

        // Definition sites. Parameters count as defined at position 0
        // of the entry block, before any instruction.
        let mut def_site: BTreeMap<VarId, (BlockId, usize)> = BTreeMap::new();
        let mut params: BTreeSet<VarId> = BTreeSet::new();
        for p in &func.params {
            def_site.insert(*p, (func.entry, 0));
            params.insert(*p);
        }
        for b in func.block_ids() {
            for (i, instr) in func.block(b).instrs.iter().enumerate() {
                for d in instr.defs() {
                    def_site.insert(d, (b, i));
                }
            }
        }

        // Block summaries. φ arguments are uses on the incoming edge,
        // so they land in `phi_out` of the predecessor, not in the
        // upward-exposed set of the φ's own block.
        let mut upward: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        let mut defs: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        let mut phi_out: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        for b in func.block_ids() {
            let blk = func.block(b);
            for instr in &blk.instrs {
                if let InstrKind::Phi { dst, args } = &instr.kind {
                    defs[b.index()].insert(*dst);
                    for (p, v) in args {
                        phi_out[p.index()].insert(*v);
                    }
                    continue;
                }
                for u in instr.uses() {
                    if !defs[b.index()].contains(&u) {
                        upward[b.index()].insert(u);
                    }
                }
                for d in instr.defs() {
                    defs[b.index()].insert(d);
                }
            }
            if let Some(c) = blk.term.used_var() {
                if !defs[b.index()].contains(&c) {
                    upward[b.index()].insert(c);
                }
            }
        }

        // Backward liveness, iterated to a fixpoint. Function outputs
        // are live at the exit of every return block.
        let mut live_in: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        loop {
            let mut changed = false;
            for bi in (0..n).rev() {
                let b = BlockId::new(bi);
                let mut out = phi_out[bi].clone();
                let succs = func.block(b).term.successors();
                for s in &succs {
                    out.extend(live_in[s.index()].iter().copied());
                }
                if succs.is_empty() {
                    out.extend(func.ssa_outs.iter().copied());
                }
                let mut inn = upward[bi].clone();
                inn.extend(out.difference(&defs[bi]).copied());
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Forward may-availability (union over predecessors).
        let mut avail_in: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        let mut avail_out: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n];
        loop {
            let mut changed = false;
            for b in func.block_ids() {
                let bi = b.index();
                let mut inn: BTreeSet<VarId> = BTreeSet::new();
                if b == func.entry {
                    inn.extend(params.iter().copied());
                }
                for p in &preds[bi] {
                    inn.extend(avail_out[p.index()].iter().copied());
                }
                let mut out = inn.clone();
                out.extend(defs[bi].iter().copied());
                if inn != avail_in[bi] || out != avail_out[bi] {
                    avail_in[bi] = inn;
                    avail_out[bi] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Reachability via >= 1 CFG edge (transitive closure).
        let mut reach: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); n];
        loop {
            let mut changed = false;
            for b in func.block_ids() {
                let mut add: Vec<BlockId> = Vec::new();
                for s in func.block(b).term.successors() {
                    if !reach[b.index()].contains(&s) {
                        add.push(s);
                    }
                    for t in &reach[s.index()] {
                        if !reach[b.index()].contains(t) {
                            add.push(*t);
                        }
                    }
                }
                if !add.is_empty() {
                    reach[b.index()].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Per-instruction snapshots. Backward through each block for
        // liveness: start from live-out plus the terminator use, then
        // peel instructions off. φ arguments are edge uses, so passing
        // a φ only removes its destination.
        let mut live_after_sets: Vec<Vec<BTreeSet<VarId>>> = Vec::with_capacity(n);
        let mut avail_before_sets: Vec<Vec<BTreeSet<VarId>>> = Vec::with_capacity(n);
        for b in func.block_ids() {
            let blk = func.block(b);
            let m = blk.instrs.len();

            let mut cur = live_out[b.index()].clone();
            if let Some(c) = blk.term.used_var() {
                cur.insert(c);
            }
            let mut after = vec![BTreeSet::new(); m];
            for (i, instr) in blk.instrs.iter().enumerate().rev() {
                after[i] = cur.clone();
                for d in instr.defs() {
                    cur.remove(&d);
                }
                if !instr.is_phi() {
                    cur.extend(instr.uses());
                }
            }
            live_after_sets.push(after);

            let mut cur = avail_in[b.index()].clone();
            let mut before = Vec::with_capacity(m);
            for instr in &blk.instrs {
                before.push(cur.clone());
                cur.extend(instr.defs());
            }
            avail_before_sets.push(before);
        }

        // Pack the reference results into the dense representation so
        // every accessor behaves identically to the worklist engine.
        let nv = func.vars.len();
        let mut instr_base: Vec<usize> = Vec::with_capacity(n);
        let mut total_instrs = 0usize;
        for b in func.block_ids() {
            instr_base.push(total_instrs);
            total_instrs += func.block(b).instrs.len();
        }
        let pack_blocks = |sets: &[BTreeSet<VarId>]| -> BitMatrix {
            let mut m = BitMatrix::new(n, nv);
            for (bi, set) in sets.iter().enumerate() {
                for v in set {
                    m.set(bi, v.index());
                }
            }
            m
        };
        let pack_instrs = |sets: &[Vec<BTreeSet<VarId>>]| -> BitMatrix {
            let mut m = BitMatrix::new(total_instrs, nv);
            for (bi, rows) in sets.iter().enumerate() {
                for (i, set) in rows.iter().enumerate() {
                    for v in set {
                        m.set(instr_base[bi] + i, v.index());
                    }
                }
            }
            m
        };
        let mut def_site_vec: Vec<Option<(BlockId, usize)>> = vec![None; nv];
        for (v, site) in &def_site {
            def_site_vec[v.index()] = Some(*site);
        }
        let mut params_bits = BitSet::new(nv);
        for p in &params {
            params_bits.insert(p.index());
        }
        let mut reach_bits = BitMatrix::new(n, n);
        for (bi, set) in reach.iter().enumerate() {
            for t in set {
                reach_bits.set(bi, t.index());
            }
        }
        AuditFlow {
            n_blocks: n,
            n_vars: nv,
            live_in: pack_blocks(&live_in),
            live_out: pack_blocks(&live_out),
            avail_in: pack_blocks(&avail_in),
            avail_out: pack_blocks(&avail_out),
            live_after: pack_instrs(&live_after_sets),
            avail_before: pack_instrs(&avail_before_sets),
            instr_base,
            def_site: def_site_vec,
            params: params_bits,
            reach: reach_bits,
            iterations: 0,
        }
    }

    #[inline]
    fn instr_row(&self, b: BlockId, i: usize) -> usize {
        self.instr_base[b.index()] + i
    }

    /// Whether `v` is live at entry to block `b`.
    pub fn live_in_contains(&self, b: BlockId, v: VarId) -> bool {
        self.live_in.get(b.index(), v.index())
    }

    /// Whether `v` is live at exit of block `b`.
    pub fn live_out_contains(&self, b: BlockId, v: VarId) -> bool {
        self.live_out.get(b.index(), v.index())
    }

    /// Whether `v` is live right after instruction `i` of block `b`
    /// (the block's terminator use included).
    pub fn live_after_contains(&self, b: BlockId, i: usize, v: VarId) -> bool {
        self.live_after.get(self.instr_row(b, i), v.index())
    }

    /// Whether `v` is possibly defined when control reaches instruction
    /// `i` of block `b`.
    pub fn avail_before_contains(&self, b: BlockId, i: usize, v: VarId) -> bool {
        self.avail_before.get(self.instr_row(b, i), v.index())
    }

    /// The variables both live after and available before instruction
    /// `i` of block `b` — the candidates a definition written there
    /// could clobber. A word-wise AND over the two snapshot rows.
    pub fn live_and_avail_at(&self, b: BlockId, i: usize) -> impl Iterator<Item = VarId> + '_ {
        let r = self.instr_row(b, i);
        let live = self.live_after.row(r);
        let avail = self.avail_before.row(r);
        live.iter()
            .zip(avail)
            .enumerate()
            .flat_map(|(wi, (l, a))| {
                let mut w = l & a;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                })
            })
            .map(VarId::new)
    }

    /// The dense live-out row of block `b` (for engine-vs-engine
    /// cross-validation against the production bitset facts).
    pub fn live_out_row(&self, b: BlockId) -> &[u64] {
        self.live_out.row(b.index())
    }

    /// The dense live-in row of block `b`.
    pub fn live_in_row(&self, b: BlockId) -> &[u64] {
        self.live_in.row(b.index())
    }

    /// The dense avail-out row of block `b`.
    pub fn avail_out_row(&self, b: BlockId) -> &[u64] {
        self.avail_out.row(b.index())
    }

    /// Whether a CFG path of length ≥ 1 leads from block `a` to `b`.
    pub fn block_reaches(&self, a: BlockId, b: BlockId) -> bool {
        self.reach.get(a.index(), b.index())
    }

    /// Whether some execution path leads from a definition of `u` to
    /// the definition of `v` (reflexively true for `u == v`). This is
    /// the control-flow side of the storage-size partial order
    /// (Relation 1, §3.2): `u`'s storage can only be handed to `v` if
    /// `u` has actually been materialised by the time `v` is defined.
    pub fn available_at_def(&self, u: VarId, v: VarId) -> bool {
        if u == v {
            return true;
        }
        let (bu, iu) = match self.def_site[u.index()] {
            Some(x) => x,
            None => return false,
        };
        let (bv, iv) = match self.def_site[v.index()] {
            Some(x) => x,
            None => return false,
        };
        if bu == bv {
            let pu = if self.params.contains(u.index()) {
                0
            } else {
                iu + 1
            };
            let pv = if self.params.contains(v.index()) {
                0
            } else {
                iv + 1
            };
            pu <= pv || self.reach.get(bu.index(), bv.index())
        } else {
            self.reach.get(bu.index(), bv.index())
        }
    }

    /// The definition site of `v`, if it has one (parameters report the
    /// entry block at index 0).
    pub fn def_site(&self, v: VarId) -> Option<(BlockId, usize)> {
        self.def_site.get(v.index()).copied().flatten()
    }

    /// Whether `v` is a function parameter.
    pub fn is_param(&self, v: VarId) -> bool {
        v.index() < self.n_vars && self.params.contains(v.index())
    }

    /// Total worklist visits the fixpoints performed (zero for
    /// [`AuditFlow::compute_reference`]).
    pub fn worklist_iterations(&self) -> u64 {
        self.iterations
    }

    /// Whether two computations produced identical facts — every dense
    /// matrix, definition site and parameter flag (`iterations` is
    /// excluded: it records engine effort, not facts). The differential
    /// contract between the worklist engine and
    /// [`AuditFlow::compute_reference`].
    pub fn facts_eq(&self, other: &AuditFlow) -> bool {
        self.n_blocks == other.n_blocks
            && self.n_vars == other.n_vars
            && self.live_in == other.live_in
            && self.live_out == other.live_out
            && self.avail_in == other.avail_in
            && self.avail_out == other.avail_out
            && self.live_after == other.live_after
            && self.avail_before == other.avail_before
            && self.instr_base == other.instr_base
            && self.def_site == other.def_site
            && self.params == other.params
            && self.reach == other.reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;

    fn flow(src: &str) -> (FuncIr, AuditFlow) {
        let ast = parse_program([src]).unwrap();
        let prog = build_ssa(&ast).unwrap();
        let f = prog.entry_func().clone();
        let d = AuditFlow::compute(&f);
        (f, d)
    }

    fn var_named(f: &FuncIr, name: &str, version: u32) -> VarId {
        f.vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == version)
            .map(|(v, _)| v)
            .unwrap_or_else(|| panic!("no {name}.{version} in\n{f}"))
    }

    #[test]
    fn straight_line_snapshots() {
        let (f, d) = flow("function y = f(x)\na = x + 1;\nb = a * 2;\ny = b;\n");
        let a = var_named(&f, "a", 1);
        let b = var_named(&f, "b", 1);
        let (ba, ia) = d.def_site(a).unwrap();
        // `a` is live right after its own definition (consumed by b's def).
        assert!(d.live_after_contains(ba, ia, a));
        // At b's definition, a is already available.
        let (bb, ib) = d.def_site(b).unwrap();
        assert!(d.avail_before_contains(bb, ib, a));
        assert!(d.available_at_def(a, b));
        assert!(!d.available_at_def(b, a));
    }

    #[test]
    fn terminator_condition_counts_as_live() {
        let (f, d) = flow("function y = f(x)\nif x > 0\ny = 1;\nelse\ny = 2;\nend\n");
        // The branch condition variable must be live after every
        // instruction that precedes the branch in its block.
        let mut seen = false;
        for b in f.block_ids() {
            if let matc_ir::instr::Terminator::Branch { cond, .. } = f.block(b).term {
                if let Some(last) = f.block(b).instrs.len().checked_sub(1) {
                    assert!(
                        d.live_after_contains(b, last, cond),
                        "branch cond live after last instr of {b}:\n{f}"
                    );
                    seen = true;
                }
            }
        }
        assert!(seen, "expected at least one conditional branch:\n{f}");
    }

    #[test]
    fn loop_variable_available_via_backedge() {
        let (f, d) = flow("function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + 1;\nend\n");
        let s2 = var_named(&f, "s", 2);
        assert!(d.available_at_def(s2, s2), "loop body def reaches itself");
    }

    #[test]
    fn outputs_live_at_return() {
        let (f, d) = flow("function y = f(x)\ny = x + 1;\n");
        let ret = f
            .block_ids()
            .find(|b| f.block(*b).term.successors().is_empty())
            .unwrap();
        assert!(d.live_out_contains(ret, f.ssa_outs[0]));
        assert!(d.is_param(f.params[0]));
    }

    #[test]
    fn worklist_matches_reference_on_branchy_loops() {
        for src in [
            "function y = f(x)\ns = 0;\nwhile x > 0\nif s > 3\ns = s + x;\nelse\ns = s - 1;\nend\nx = x - 1;\nend\ny = s;\n",
            "function y = f(x)\na = x + 1;\nb = a * 2;\ny = b;\n",
            "function s = f(n)\ns = 0;\nfor i = 1:n\nfor j = 1:n\ns = s + j;\nend\nend\n",
        ] {
            let (f, d) = flow(src);
            let r = AuditFlow::compute_reference(&f);
            assert!(d.facts_eq(&r), "fast/reference divergence on:\n{f}");
            assert!(d.worklist_iterations() > 0);
            assert_eq!(r.worklist_iterations(), 0);
        }
    }

    #[test]
    fn tiny_fuel_trips_the_budgeted_engine() {
        let ast =
            parse_program(["function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + 1;\nend\n"]).unwrap();
        let prog = build_ssa(&ast).unwrap();
        let f = prog.entry_func();
        let budget = Budget::new(None, Some(1));
        budget.enter_phase("audit");
        let err = AuditFlow::compute_budgeted_with_preds(f, &f.predecessors(), &budget)
            .expect_err("one unit of fuel cannot cover the seeding charge");
        assert_eq!(err.phase, "audit");
        let generous = Budget::new(None, Some(1_000_000));
        generous.enter_phase("audit");
        assert!(
            AuditFlow::compute_budgeted_with_preds(f, &f.predecessors(), &generous).is_ok(),
            "generous fuel must not trip"
        );
    }

    #[test]
    fn live_and_avail_intersection_matches_membership() {
        let (f, d) = flow("function y = f(x)\na = x + 1;\nb = a * 2;\nc = b + a;\ny = c;\n");
        for b in f.block_ids() {
            for i in 0..f.block(b).instrs.len() {
                for v in d.live_and_avail_at(b, i) {
                    assert!(d.live_after_contains(b, i, v));
                    assert!(d.avail_before_contains(b, i, v));
                }
                // And the other containment direction.
                for (v, _) in f.vars.iter() {
                    if d.live_after_contains(b, i, v) && d.avail_before_contains(b, i, v) {
                        assert!(d.live_and_avail_at(b, i).any(|w| w == v));
                    }
                }
            }
        }
    }
}
