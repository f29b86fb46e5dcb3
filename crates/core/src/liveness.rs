//! Liveness and availability dataflow (§2).
//!
//! The paper approximates Chaitin interference by considering variables
//! that are simultaneously **live** ("a possible execution path from s to
//! a use of w along which w is not redefined") and **available** ("a
//! possible execution path from a definition of v to s") at each
//! assignment. Both analyses here are the conservative may-variants the
//! paper describes.
//!
//! Since PR 4 the fixpoints run on a dense bitset engine
//! ([`matc_ir::bitset`]): per-block sets are `u64`-packed rows of a
//! [`BitMatrix`] and each analysis is a **worklist** algorithm —
//! liveness seeded from the upward-exposed use summaries and re-examining
//! predecessors when a block's live-in grows, availability flowing
//! forward, and reachability as a bitset transitive closure. Change
//! detection is the in-place `union_returns_changed` the bitset rows
//! provide, so the steady state of a fixpoint performs no allocation.
//! The original set-based whole-CFG sweeps are retained verbatim as
//! [`Dataflow::compute_reference`] for differential testing.

use matc_ir::bitset::{words_for, BitMatrix, BitSet};
use matc_ir::ids::{BlockId, VarId};
use matc_ir::instr::InstrKind;
use matc_ir::{Budget, BudgetError, FuncIr};
use std::collections::HashSet;

/// Per-block liveness and availability sets for one SSA function, as
/// dense block × variable bit rows.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Definition site of every variable: `(block, instruction index)`;
    /// parameters use index 0 of the entry block and are flagged.
    pub def_site: Vec<Option<(BlockId, usize)>>,
    /// Whether the variable is a parameter (defined before instr 0).
    pub is_param: Vec<bool>,
    /// Variables live at each block entry (φ inputs excluded, φ defs
    /// included when used later).
    live_in_bits: BitMatrix,
    /// Variables live at each block exit (φ uses of successors count as
    /// live-out of the corresponding predecessor).
    live_out_bits: BitMatrix,
    /// Variables available (possibly defined) at each block exit.
    avail_out_bits: BitMatrix,
    /// `reach.get(a, b)` when a CFG path of length ≥ 1 leads from `a`
    /// to `b`.
    reach: BitMatrix,
    /// Total worklist visits the three fixpoints performed.
    iterations: u64,
}

impl Dataflow {
    /// Runs both analyses.
    pub fn compute(func: &FuncIr) -> Dataflow {
        let budget = Budget::unlimited();
        Dataflow::compute_budgeted(func, &budget).expect("unlimited budget cannot trip")
    }

    /// [`Dataflow::compute`] under a [`Budget`]: each fixpoint charges
    /// one fuel unit per worklist visit (plus a seeding charge of one
    /// unit per block, matching the old per-sweep cost floor) and
    /// observes the phase deadline.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetError`] that tripped (no partial results).
    pub fn compute_budgeted(func: &FuncIr, budget: &Budget) -> Result<Dataflow, BudgetError> {
        Dataflow::compute_budgeted_with_preds(func, &func.predecessors(), budget)
    }

    /// [`Dataflow::compute_budgeted`] with the predecessor lists
    /// supplied by the caller, so a pipeline that already computed
    /// [`FuncIr::predecessors`] (e.g. the auditor) does not recompute
    /// them per analysis phase.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetError`] that tripped (no partial results).
    pub fn compute_budgeted_with_preds(
        func: &FuncIr,
        preds: &[Vec<BlockId>],
        budget: &Budget,
    ) -> Result<Dataflow, BudgetError> {
        let n = func.blocks.len();
        let nv = func.vars.len();
        let succs: Vec<Vec<BlockId>> = func
            .block_ids()
            .map(|b| func.block(b).term.successors())
            .collect();

        // --- def sites ---
        let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; nv];
        let mut is_param = vec![false; nv];
        for p in &func.params {
            def_site[p.index()] = Some((func.entry, 0));
            is_param[p.index()] = true;
        }
        for b in func.block_ids() {
            for (i, instr) in func.block(b).instrs.iter().enumerate() {
                for d in instr.defs() {
                    def_site[d.index()] = Some((b, i));
                }
            }
        }

        // --- per-block use/def summaries for liveness ---
        // `upward[b]`: used in b before any redefinition (φ uses excluded;
        // they belong to predecessor edges). `defs[b]`: defined in b
        // (including φ destinations).
        let mut upward = BitMatrix::new(n, nv);
        let mut defs = BitMatrix::new(n, nv);
        // φ uses attributed to predecessor blocks.
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
        let mut live_in_bits = BitMatrix::new(n, nv);
        let mut live_out_bits = BitMatrix::new(n, nv);
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
                scratch.union_words(live_in_bits.row(s.index()));
            }
            if is_ret[bi] {
                scratch.union_with(&outs_row);
            }
            live_out_bits.union_row_words(bi, scratch.words());
            scratch.subtract_words(defs.row(bi));
            scratch.union_words(upward.row(bi));
            if live_in_bits.union_row_words(bi, scratch.words()) {
                for p in &preds[bi] {
                    if !on_list[p.index()] {
                        on_list[p.index()] = true;
                        worklist.push(p.index());
                    }
                }
            }
        }

        // --- forward availability worklist (may-analysis: union) ---
        let mut avail_out_bits = BitMatrix::new(n, nv);
        budget.spend(n as u64 + 1)?;
        worklist = (0..n).rev().collect(); // pops run 0, 1, … like the old forward sweep
        on_list.fill(true);
        while let Some(bi) = worklist.pop() {
            on_list[bi] = false;
            iterations += 1;
            budget.spend(1)?;
            scratch.clear();
            if bi == func.entry.index() {
                for p in &func.params {
                    scratch.insert(p.index());
                }
            }
            for p in &preds[bi] {
                scratch.union_words(avail_out_bits.row(p.index()));
            }
            scratch.union_words(defs.row(bi));
            if avail_out_bits.union_row_words(bi, scratch.words()) {
                for s in &succs[bi] {
                    if !on_list[s.index()] {
                        on_list[s.index()] = true;
                        worklist.push(s.index());
                    }
                }
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

        Ok(Dataflow {
            def_site,
            is_param,
            live_in_bits,
            live_out_bits,
            avail_out_bits,
            reach,
            iterations,
        })
    }

    /// The original set-based three-sweep implementation, retained as
    /// the naive reference for differential testing: the worklist
    /// engine must be set-for-set identical to this on every CFG.
    pub fn compute_reference(func: &FuncIr) -> Dataflow {
        let n = func.blocks.len();
        let nv = func.vars.len();
        let preds = func.predecessors();

        let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; nv];
        let mut is_param = vec![false; nv];
        for p in &func.params {
            def_site[p.index()] = Some((func.entry, 0));
            is_param[p.index()] = true;
        }
        for b in func.block_ids() {
            for (i, instr) in func.block(b).instrs.iter().enumerate() {
                for d in instr.defs() {
                    def_site[d.index()] = Some((b, i));
                }
            }
        }

        let mut upward: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
        let mut defs: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
        let mut phi_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
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

        let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
        let ret_blocks: Vec<BlockId> = func
            .block_ids()
            .filter(|b| func.block(*b).term.successors().is_empty())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..func.blocks.len()).rev() {
                let b = BlockId::new(bi);
                let mut out: HashSet<VarId> = phi_out[b.index()].clone();
                for s in func.block(b).term.successors() {
                    for v in &live_in[s.index()] {
                        out.insert(*v);
                    }
                }
                if ret_blocks.contains(&b) {
                    for o in &func.ssa_outs {
                        out.insert(*o);
                    }
                }
                let mut inn: HashSet<VarId> = upward[b.index()].clone();
                for v in &out {
                    if !defs[b.index()].contains(v) {
                        inn.insert(*v);
                    }
                }
                if out != live_out[b.index()] || inn != live_in[b.index()] {
                    live_out[b.index()] = out;
                    live_in[b.index()] = inn;
                    changed = true;
                }
            }
        }

        let mut avail_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in func.block_ids() {
                let mut inn: HashSet<VarId> = HashSet::new();
                if b == func.entry {
                    for p in &func.params {
                        inn.insert(*p);
                    }
                }
                for p in &preds[b.index()] {
                    for v in &avail_out[p.index()] {
                        inn.insert(*v);
                    }
                }
                let mut out = inn;
                for v in &defs[b.index()] {
                    out.insert(*v);
                }
                if out != avail_out[b.index()] {
                    avail_out[b.index()] = out;
                    changed = true;
                }
            }
        }

        let mut reach: Vec<HashSet<BlockId>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in func.block_ids() {
                let succs = func.block(b).term.successors();
                let mut add: Vec<BlockId> = Vec::new();
                for s in &succs {
                    if !reach[b.index()].contains(s) {
                        add.push(*s);
                    }
                    for t in &reach[s.index()] {
                        if !reach[b.index()].contains(t) {
                            add.push(*t);
                        }
                    }
                }
                if !add.is_empty() {
                    for t in add {
                        reach[b.index()].insert(t);
                    }
                    changed = true;
                }
            }
        }

        // Pack the reference results into the same dense representation
        // so every accessor behaves identically to the worklist engine.
        let pack = |sets: &[HashSet<VarId>]| {
            let mut m = BitMatrix::new(n, nv);
            for (bi, set) in sets.iter().enumerate() {
                for v in set {
                    m.set(bi, v.index());
                }
            }
            m
        };
        let mut reach_bits = BitMatrix::new(n, n);
        for (bi, set) in reach.iter().enumerate() {
            for t in set {
                reach_bits.set(bi, t.index());
            }
        }
        Dataflow {
            def_site,
            is_param,
            live_in_bits: pack(&live_in),
            live_out_bits: pack(&live_out),
            avail_out_bits: pack(&avail_out),
            reach: reach_bits,
            iterations: 0,
        }
    }

    /// Whether `u` is *available at the definition of* `v` — the
    /// control-flow clause of Relation 1 (§3.2): some execution path
    /// leads from a definition of `u` to the definition of `v`.
    /// Reflexive (`u` is available at its own definition).
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
            // Earlier in the same block, or any cycle back to the block.
            let iu = if self.is_param[u.index()] { 0 } else { iu + 1 };
            let iv_pos = if self.is_param[v.index()] { 0 } else { iv + 1 };
            iu <= iv_pos || self.reach.get(bu.index(), bv.index())
        } else {
            self.reach.get(bu.index(), bv.index())
        }
    }

    /// Whether block `a` can reach block `b` via ≥ 1 edge.
    pub fn block_reaches(&self, a: BlockId, b: BlockId) -> bool {
        self.reach.get(a.index(), b.index())
    }

    /// The dense live-in rows (block × variable).
    pub fn live_in_bits(&self) -> &BitMatrix {
        &self.live_in_bits
    }

    /// The dense live-out rows (block × variable), for word-wise
    /// consumers like the interference scan.
    pub fn live_out_bits(&self) -> &BitMatrix {
        &self.live_out_bits
    }

    /// The dense avail-out rows (block × variable).
    pub fn avail_out_bits(&self) -> &BitMatrix {
        &self.avail_out_bits
    }

    /// Total worklist visits the three fixpoints performed (zero for
    /// [`Dataflow::compute_reference`]).
    pub fn worklist_iterations(&self) -> u64 {
        self.iterations
    }

    /// Width in `u64` words of one dense live-set row — the
    /// "peak live-set words" figure reported by the perf gate.
    pub fn live_set_words(&self) -> usize {
        words_for(self.live_out_bits.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;

    fn flow(src: &str) -> (FuncIr, Dataflow) {
        let ast = parse_program([src]).unwrap();
        let prog = build_ssa(&ast).unwrap();
        let f = prog.entry_func().clone();
        let d = Dataflow::compute(&f);
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
    fn outputs_live_at_exit() {
        let (f, d) = flow("function y = f(x)\ny = x + 1;\n");
        let y = f.ssa_outs[0];
        let ret = f
            .block_ids()
            .find(|b| f.block(*b).term.successors().is_empty())
            .unwrap();
        assert!(
            d.live_out_bits().get(ret.index(), y.index()),
            "output live at function exit"
        );
        // x (the param) is live into the entry.
        let x = f.params[0];
        assert!(d.live_in_bits().get(f.entry.index(), x.index()));
    }

    #[test]
    fn availability_follows_paths() {
        let (f, d) = flow(
            "function y = f(x)\na = x + 1;\nif x > 0\nb = a + 1;\nelse\nb = a + 2;\nend\ny = b;\n",
        );
        let a = var_named(&f, "a", 1);
        let b1 = var_named(&f, "b", 1);
        let b2 = var_named(&f, "b", 2);
        assert!(d.available_at_def(a, b1), "a flows into the then-branch");
        assert!(d.available_at_def(a, b2), "a flows into the else-branch");
        assert!(!d.available_at_def(b1, a), "no path back from b to a");
        assert!(
            !d.available_at_def(b1, b2),
            "disjoint branches: b.1 not available at b.2's def"
        );
    }

    #[test]
    fn loop_defs_available_at_themselves_via_backedge() {
        let (f, d) = flow("function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + 1;\nend\n");
        // The loop body's s is available at its own def via the back edge.
        let s_loop = var_named(&f, "s", 2);
        assert!(d.available_at_def(s_loop, s_loop));
    }

    #[test]
    fn same_block_ordering() {
        let (f, d) = flow("function y = f(x)\na = x + 1;\nb = a * 2;\ny = b;\n");
        let a = var_named(&f, "a", 1);
        let b = var_named(&f, "b", 1);
        assert!(d.available_at_def(a, b));
        assert!(!d.available_at_def(b, a), "straight line: no path back");
        let x = f.params[0];
        assert!(d.available_at_def(x, a), "params available from entry");
    }

    #[test]
    fn phi_uses_live_out_of_predecessors() {
        let (f, d) = flow("function y = f(x)\nif x > 0\ny = 1;\nelse\ny = 2;\nend\n");
        // Each arm's y must be live-out of its defining block (feeding
        // the φ at the join).
        let y1 = var_named(&f, "y", 1);
        let (db, _) = d.def_site[y1.index()].unwrap();
        assert!(d.live_out_bits().get(db.index(), y1.index()), "{f}");
    }

    #[test]
    fn dead_temps_not_live_out() {
        let (f, d) = flow("function y = f(x)\ny = x + 1;\ny = y * 2;\n");
        let y1 = var_named(&f, "y", 1);
        let (db, _) = d.def_site[y1.index()].unwrap();
        // y.1 is consumed within the block; not live out.
        assert!(!d.live_out_bits().get(db.index(), y1.index()));
    }

    #[test]
    fn worklist_matches_reference_on_branchy_loops() {
        let (f, d) = flow(
            "function y = f(x)\ns = 0;\nwhile x > 0\nif s > 3\ns = s + x;\nelse\ns = s - 1;\nend\nx = x - 1;\nend\ny = s;\n",
        );
        let r = Dataflow::compute_reference(&f);
        assert_eq!(d.live_in_bits(), r.live_in_bits());
        assert_eq!(d.live_out_bits(), r.live_out_bits());
        assert_eq!(d.avail_out_bits(), r.avail_out_bits());
        assert_eq!(d.def_site, r.def_site);
        for a in f.block_ids() {
            for b in f.block_ids() {
                assert_eq!(d.block_reaches(a, b), r.block_reaches(a, b), "{a:?}->{b:?}");
            }
        }
        assert!(d.worklist_iterations() > 0);
        assert!(d.live_set_words() >= 1);
    }
}
