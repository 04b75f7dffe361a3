//! Control-flow graph containers: variables, blocks, functions, programs.

use crate::ids::{BlockId, FuncId, VarId};
use crate::instr::{Instr, InstrKind, Terminator};
use std::collections::HashMap;
use std::fmt;

/// Metadata for one IR variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// The source-level name, if the variable came from the program text;
    /// temporaries synthesized by lowering have `None`.
    pub name: Option<String>,
    /// For SSA names: the pre-SSA variable this name versions.
    pub ssa_origin: Option<VarId>,
    /// The SSA version number (0 for pre-SSA variables).
    pub ssa_version: u32,
}

impl VarInfo {
    /// A fresh source variable.
    pub fn source(name: impl Into<String>) -> Self {
        VarInfo {
            name: Some(name.into()),
            ssa_origin: None,
            ssa_version: 0,
        }
    }

    /// A fresh compiler temporary.
    pub fn temp() -> Self {
        VarInfo {
            name: None,
            ssa_origin: None,
            ssa_version: 0,
        }
    }
}

/// The variable table of one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarTable {
    pub(crate) infos: Vec<VarInfo>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Adds a variable and returns its id.
    pub fn push(&mut self, info: VarInfo) -> VarId {
        let id = VarId::new(self.infos.len());
        self.infos.push(info);
        id
    }

    /// Metadata lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not from this table.
    pub fn info(&self, v: VarId) -> &VarInfo {
        &self.infos[v.index()]
    }

    /// The number of variables.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over all `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (VarId::new(i), info))
    }

    /// A printable name: `x` for source variables, `x.2` for SSA versions,
    /// `%t7` for temporaries.
    pub fn display_name(&self, v: VarId) -> String {
        let info = self.info(v);
        match (&info.name, info.ssa_version) {
            (Some(n), 0) => n.clone(),
            (Some(n), k) => format!("{n}.{k}"),
            (None, 0) => format!("%t{}", v.index()),
            (None, k) => format!("%t{}.{k}", v.index()),
        }
    }
}

/// One basic block: φ-then-straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in order; φ-instructions, if any, come first.
    pub instrs: Vec<Instr>,
    /// The block terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `Return` (placeholder during construction).
    pub fn new() -> Self {
        Block {
            instrs: Vec::new(),
            term: Terminator::Return,
        }
    }

    /// Iterates over the φ-instructions at the head of the block.
    pub fn phis(&self) -> impl Iterator<Item = &Instr> {
        self.instrs.iter().take_while(|i| i.is_phi())
    }

    /// The index of the first non-φ instruction.
    pub fn first_non_phi(&self) -> usize {
        self.instrs.iter().take_while(|i| i.is_phi()).count()
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// The IR of a single function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// Input parameter variables, in order.
    pub params: Vec<VarId>,
    /// Output variables, in order. After SSA construction these are the
    /// pre-SSA ids; [`FuncIr::ssa_outs`] maps them at returns.
    pub outs: Vec<VarId>,
    /// All basic blocks; `BlockId` indexes into this.
    pub blocks: Vec<Block>,
    /// The entry block (no predecessors).
    pub entry: BlockId,
    /// The variable table.
    pub vars: VarTable,
    /// In SSA form: the SSA names carrying each output at function exit.
    /// Filled by SSA construction (empty before).
    pub ssa_outs: Vec<VarId>,
    /// Whether the function is currently in SSA form.
    pub in_ssa: bool,
}

impl FuncIr {
    /// Creates a function shell with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        FuncIr {
            name: name.into(),
            params: Vec::new(),
            outs: Vec::new(),
            blocks: vec![Block::new()],
            entry: BlockId::new(0),
            vars: VarTable::new(),
            ssa_outs: Vec::new(),
            in_ssa: false,
        }
    }

    /// Adds an empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(Block::new());
        id
    }

    /// Immutable block access.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Computes the predecessor lists of every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.block(b).term.successors() {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Blocks in reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.block(b).term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Creates a fresh temporary variable.
    pub fn new_temp(&mut self) -> VarId {
        self.vars.push(VarInfo::temp())
    }
}

/// A whole lowered program: all functions, with a designated entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// All functions.
    pub functions: Vec<FuncIr>,
    /// Name → id lookup.
    pub by_name: HashMap<String, FuncId>,
    /// The entry function.
    pub entry: Option<FuncId>,
}

impl IrProgram {
    /// Adds a function.
    ///
    /// # Panics
    ///
    /// Panics on duplicate function names.
    pub fn add(&mut self, f: FuncIr) -> FuncId {
        let id = FuncId::new(self.functions.len());
        let prev = self.by_name.insert(f.name.clone(), id);
        assert!(prev.is_none(), "duplicate function `{}`", f.name);
        self.functions.push(f);
        id
    }

    /// Function lookup by id.
    pub fn func(&self, id: FuncId) -> &FuncIr {
        &self.functions[id.index()]
    }

    /// The entry function.
    ///
    /// # Panics
    ///
    /// Panics if no entry was set.
    pub fn entry_func(&self) -> &FuncIr {
        self.func(self.entry.expect("entry function not set"))
    }
}

impl fmt::Display for FuncIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "function {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.vars.display_name(*p))?;
        }
        write!(f, ") -> [")?;
        let outs = if self.in_ssa && !self.ssa_outs.is_empty() {
            &self.ssa_outs
        } else {
            &self.outs
        };
        for (i, o) in outs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.vars.display_name(*o))?;
        }
        writeln!(f, "]")?;
        for b in self.block_ids() {
            writeln!(f, "{b}:")?;
            let blk = self.block(b);
            for instr in &blk.instrs {
                writeln!(f, "  {}", self.fmt_instr(instr))?;
            }
            match &blk.term {
                Terminator::Jump(t) => writeln!(f, "  jump {t}")?,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(
                    f,
                    "  branch {} ? {then_bb} : {else_bb}",
                    self.vars.display_name(*cond)
                )?,
                Terminator::Return => writeln!(f, "  return")?,
            }
        }
        Ok(())
    }
}

impl FuncIr {
    /// Renders one instruction with resolved variable names.
    pub fn fmt_instr(&self, instr: &Instr) -> String {
        let n = |v: VarId| self.vars.display_name(v);
        match &instr.kind {
            InstrKind::Const { dst, value } => format!("{} <- {}", n(*dst), value),
            InstrKind::Copy { dst, src } => format!("{} <- {}", n(*dst), n(*src)),
            InstrKind::Compute { dst, op, args } => {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a.as_var() {
                        Some(v) => n(v),
                        None => ":".into(),
                    })
                    .collect();
                format!("{} <- {}({})", n(*dst), op.mnemonic(), args.join(", "))
            }
            InstrKind::Phi { dst, args } => {
                let args: Vec<String> = args
                    .iter()
                    .map(|(b, v)| format!("{b}: {}", n(*v)))
                    .collect();
                format!("{} <- phi({})", n(*dst), args.join(", "))
            }
            InstrKind::CallMulti { dsts, func, args } => {
                let ds: Vec<String> = dsts.iter().map(|d| n(*d)).collect();
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a.as_var() {
                        Some(v) => n(v),
                        None => ":".into(),
                    })
                    .collect();
                format!("[{}] <- call {func}({})", ds.join(", "), args.join(", "))
            }
            InstrKind::Display { value, label } => {
                format!("display {label} = {}", n(*value))
            }
            InstrKind::Effect { builtin, args } => {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a.as_var() {
                        Some(v) => n(v),
                        None => ":".into(),
                    })
                    .collect();
                format!("effect {}({})", builtin.name(), args.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Const;
    use matc_frontend::span::Span;

    #[test]
    fn var_table_display_names() {
        let mut t = VarTable::new();
        let x = t.push(VarInfo::source("x"));
        let tmp = t.push(VarInfo::temp());
        let x2 = t.push(VarInfo {
            name: Some("x".into()),
            ssa_origin: Some(x),
            ssa_version: 2,
        });
        assert_eq!(t.display_name(x), "x");
        assert_eq!(t.display_name(tmp), "%t1");
        assert_eq!(t.display_name(x2), "x.2");
    }

    #[test]
    fn rpo_of_diamond() {
        let mut f = FuncIr::new("g");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let cond = f.new_temp();
        f.block_mut(b0).term = Terminator::Branch {
            cond,
            then_bb: b1,
            else_bb: b2,
        };
        f.block_mut(b1).term = Terminator::Jump(b3);
        f.block_mut(b2).term = Terminator::Jump(b3);
        let rpo = f.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], b0);
        assert_eq!(*rpo.last().unwrap(), b3);
        // Predecessors of the join.
        let preds = f.predecessors();
        assert_eq!(preds[b3.index()].len(), 2);
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = FuncIr::new("g");
        let _dead = f.add_block();
        assert_eq!(f.reverse_postorder().len(), 1);
    }

    #[test]
    fn program_lookup() {
        let mut p = IrProgram::default();
        let mut f = FuncIr::new("kern");
        let dst = f.new_temp();
        f.block_mut(f.entry).instrs.push(Instr::new(
            InstrKind::Const {
                dst,
                value: Const::Num(1.0),
            },
            Span::dummy(),
        ));
        let id = p.add(f);
        p.entry = Some(id);
        assert!(p.by_name.contains_key("kern"));
        assert_eq!(p.entry_func().name, "kern");
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut p = IrProgram::default();
        p.add(FuncIr::new("f"));
        p.add(FuncIr::new("f"));
    }
}
