//! Phase 1: the interference graph (§2).
//!
//! Interference is Chaitin's: two variables conflict when both are live
//! and available at some assignment with (potentially) different values.
//! Each block is traversed backwards from its `live ∩ avail` exit set; a
//! definition interferes with every member of the set (§2).
//!
//! Two paper-specific refinements:
//!
//! * **operator-semantics conflicts** (§2.3): a result may share its
//!   operand's storage only when the operation can be computed
//!   *in place*. Whether it can depends on the operator and on inferred
//!   types — `c = a*b` is in-place only when a type proves one operand
//!   scalar; `subsref` only for scalar/colon subscripts; `subsasgn` is
//!   always in-place in its array operand (backwards fill, §2.3.3.1) but
//!   never in its value operand; matrix build never. When an operand
//!   dies at the statement but in-place computation is illegal, an
//!   explicit conflict is added.
//! * **φ-coalescing** (§2.2.1): a φ destination is merged with each
//!   non-interfering argument so SSA-inversion copies become identity
//!   assignments.

use crate::liveness::Dataflow;
use matc_frontend::ast::{BinOp, UnOp};
use matc_ir::bitset::{BitMatrix, BitSet};
use matc_ir::ids::VarId;
use matc_ir::instr::{InstrKind, Op, Operand};
use matc_ir::{Budget, BudgetError, Builtin, FuncIr};
use matc_typeinf::{FuncTypes, ProgramTypes};

/// Options controlling graph construction (ablations and Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct InterferenceOptions {
    /// Insert the §2.3 operator-semantics conflicts (default true).
    /// Disabling this is **unsound** and exists only for the ablation
    /// benchmark, paired with the planned VM's violation counter.
    pub operator_semantics: bool,
    /// Coalesce φ destinations with their arguments (§2.2.1).
    pub phi_coalescing: bool,
}

impl Default for InterferenceOptions {
    fn default() -> Self {
        InterferenceOptions {
            operator_semantics: true,
            phi_coalescing: true,
        }
    }
}

/// The interference graph over coalesced variable classes.
///
/// Adjacency is stored as dense bitset rows ([`BitMatrix`], one row per
/// variable, keyed by class representative): the "definition interferes
/// with all pairs in the live set" inner loop of the build is a
/// word-wise OR of the live set into the definition's row. During the
/// scan the union-find is the identity (φ-coalescing runs strictly
/// after edge insertion), which is what makes the word-wise form sound.
/// After coalescing the graph is *finalized*: the union-find is fully
/// path-compressed and the representative list, per-class member lists
/// and per-class degrees are memoized (the old `members`/
/// `representatives` were O(n²) full scans per query).
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    /// Union-find parent per variable (fully path-compressed after
    /// [`InterferenceGraph::finalize`]).
    parent: Vec<u32>,
    /// Adjacency bitset rows, keyed by class representative.
    adj: BitMatrix,
    /// Variables that actually occur (are defined or are parameters).
    occurs: Vec<bool>,
    /// Variables defined by `Const` instructions: they become literals in
    /// the generated code (no storage), so they take no part in
    /// interference, coloring or grouping.
    immediate: Vec<bool>,
    /// The number of explicit operator-semantics conflicts inserted.
    pub op_conflicts: usize,
    /// The number of φ-coalescings performed.
    pub coalesced: usize,
    /// Memoized class representatives of occurring variables, ascending
    /// (built by [`InterferenceGraph::finalize`]).
    reps_cache: Vec<VarId>,
    /// Memoized member lists, indexed by representative; empty for
    /// non-representatives.
    members_cache: Vec<Vec<VarId>>,
    /// Memoized class degrees (distinct neighbor count), indexed by
    /// representative; zero for every other variable.
    degree: Vec<u32>,
}

impl InterferenceGraph {
    /// Builds the graph for `func` using inferred `types`.
    pub fn build(
        func: &FuncIr,
        flow: &Dataflow,
        types: &FuncTypes,
        prog_types: &ProgramTypes,
        opts: InterferenceOptions,
    ) -> InterferenceGraph {
        let budget = Budget::unlimited();
        InterferenceGraph::build_budgeted(func, flow, types, prog_types, opts, &budget)
            .expect("unlimited budget cannot trip")
    }

    /// [`InterferenceGraph::build`] under a [`Budget`]: the backward
    /// scan charges one fuel unit per instruction visited (plus the
    /// live-set size, approximating edge insertion work) and observes
    /// the phase wall-clock deadline.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetError`] that tripped (no partial graph).
    pub fn build_budgeted(
        func: &FuncIr,
        flow: &Dataflow,
        types: &FuncTypes,
        prog_types: &ProgramTypes,
        opts: InterferenceOptions,
        budget: &Budget,
    ) -> Result<InterferenceGraph, BudgetError> {
        let nv = func.vars.len();
        let mut g = InterferenceGraph {
            parent: (0..nv as u32).collect(),
            adj: BitMatrix::new(nv, nv),
            occurs: vec![false; nv],
            immediate: vec![false; nv],
            op_conflicts: 0,
            coalesced: 0,
            reps_cache: Vec::new(),
            members_cache: Vec::new(),
            degree: Vec::new(),
        };
        for p in &func.params {
            g.occurs[p.index()] = true;
        }
        // Constants become code literals; they hold no run-time storage.
        for b in func.block_ids() {
            for instr in &func.block(b).instrs {
                if let InstrKind::Const { dst, .. } = &instr.kind {
                    g.immediate[dst.index()] = true;
                }
            }
        }

        let is_scalar = |v: VarId| -> bool {
            types
                .get(v)
                .map(|f| f.shape.is_scalar(&prog_types.ctx))
                .unwrap_or(false)
        };
        let is_vector = |v: VarId| -> bool {
            types
                .get(v)
                .map(|f| f.shape.is_vector(&prog_types.ctx))
                .unwrap_or(false)
        };

        // Parameters are simultaneous definitions at function entry:
        // each interferes with every other variable live and available
        // there — i.e. with the other live parameters.
        for p in &func.params {
            for q in &func.params {
                if p != q && flow.live_in_bits().get(func.entry.index(), q.index()) {
                    g.add_edge(*p, *q);
                }
            }
        }

        // Backward scan of each block from live ∩ avail. The working
        // set is a dense bitset row; its size is maintained
        // incrementally so the per-instruction budget charge stays the
        // `set.len() + 1` the set-based engine used.
        let mut imm_mask = BitSet::new(nv);
        for (i, imm) in g.immediate.iter().enumerate() {
            if *imm {
                imm_mask.insert(i);
            }
        }
        let mut set = BitSet::new(nv);
        for b in func.block_ids() {
            set.clear();
            set.union_words(flow.live_out_bits().row(b.index()));
            set.intersect_words(flow.avail_out_bits().row(b.index()));
            set.subtract_words(imm_mask.words());
            let mut set_len = set.count();
            for instr in func.block(b).instrs.iter().rev() {
                budget.spend(set_len as u64 + 1)?;
                let defs = instr.defs();
                for d in &defs {
                    if g.immediate[d.index()] {
                        continue;
                    }
                    g.occurs[d.index()] = true;
                    // During the scan the union-find is the identity, so
                    // the class rows coincide with the variable rows and
                    // the "edge to every member of the live set" loop is
                    // one word-wise union plus the symmetric single bits.
                    g.adj.union_row_words(d.index(), set.words());
                    g.adj.unset(d.index(), d.index());
                    for w in set.iter() {
                        if w != d.index() {
                            g.adj.set(w, d.index());
                        }
                    }
                }
                // Simultaneously-defined outputs conflict pairwise.
                for (i, d1) in defs.iter().enumerate() {
                    for d2 in &defs[i + 1..] {
                        g.add_edge(*d1, *d2);
                    }
                }
                // Operator-semantics conflicts for dying operands
                // (§2.3): set currently holds live-after variables, so
                // any operand not in it dies here.
                if opts.operator_semantics {
                    if let InstrKind::Compute { dst, op, args } = &instr.kind {
                        for (k, a) in args.iter().enumerate() {
                            if let Some(x) = a.as_var() {
                                if x == *dst || set.contains(x.index()) || g.immediate[x.index()] {
                                    continue; // generic rule already applies
                                }
                                if !inplace_ok(op, k, args, &is_scalar, &is_vector) {
                                    g.add_edge(*dst, x);
                                    g.op_conflicts += 1;
                                }
                            }
                        }
                    }
                }
                // Update the working set.
                for d in &defs {
                    if set.remove(d.index()) {
                        set_len -= 1;
                    }
                }
                match &instr.kind {
                    // φ uses live at predecessor ends, not here.
                    InstrKind::Phi { .. } => {}
                    _ => {
                        for u in instr.uses() {
                            if !g.immediate[u.index()] && set.insert(u.index()) {
                                set_len += 1;
                            }
                        }
                    }
                }
            }
        }

        // φ-functions of one block execute as a *parallel copy* on each
        // incoming edge: every destination is written while every other
        // φ's incoming argument is still being read. Those pairs must
        // not share storage (SSA inversion only sequentializes copies
        // between distinct locations).
        for b in func.block_ids() {
            let phis: Vec<(VarId, Vec<(matc_ir::BlockId, VarId)>)> = func
                .block(b)
                .phis()
                .filter_map(|instr| match &instr.kind {
                    InstrKind::Phi { dst, args } => Some((*dst, args.clone())),
                    _ => None,
                })
                .collect();
            if phis.len() < 2 {
                continue;
            }
            for (i, (dst_i, args_i)) in phis.iter().enumerate() {
                for (j, (_, args_j)) in phis.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for (pred, arg_j) in args_j {
                        if arg_j == dst_i || g.immediate[arg_j.index()] {
                            continue;
                        }
                        // Only the same edge's copies run in parallel.
                        let own_arg = args_i.iter().find(|(p, _)| p == pred).map(|(_, a)| *a);
                        if own_arg == Some(*arg_j) {
                            continue; // reading the same source is fine
                        }
                        g.add_edge(*dst_i, *arg_j);
                    }
                }
            }
        }

        // §2.2.1: coalesce φ destinations with their arguments.
        if opts.phi_coalescing {
            for b in func.block_ids() {
                for instr in func.block(b).phis() {
                    if let InstrKind::Phi { dst, args } = &instr.kind {
                        for (_, x) in args {
                            if g.immediate[x.index()] || g.immediate[dst.index()] {
                                continue; // literals stay literal
                            }
                            let rd = g.find(*dst);
                            let rx = g.find(*x);
                            if rd != rx && !g.adj.get(rd as usize, rx as usize) {
                                g.union(rd, rx);
                                g.coalesced += 1;
                            }
                        }
                    }
                }
            }
        }
        g.finalize();
        Ok(g)
    }

    /// Freezes the graph after coalescing: fully path-compresses the
    /// union-find and memoizes the representative list, per-class
    /// member lists and degrees, so the per-query O(n) / O(n²) scans
    /// of `representatives`/`members` become lookups.
    fn finalize(&mut self) {
        let nv = self.parent.len();
        for i in 0..nv {
            let r = self.find(VarId::new(i));
            self.parent[i] = r;
        }
        let mut members: Vec<Vec<VarId>> = vec![Vec::new(); nv];
        for i in 0..nv {
            if self.occurs[i] {
                members[self.parent[i] as usize].push(VarId::new(i));
            }
        }
        // Ascending because the member scan above runs in id order.
        self.reps_cache = (0..nv)
            .filter(|i| !members[*i].is_empty())
            .map(VarId::new)
            .collect();
        self.members_cache = members;
        // Representatives only (`degree` maps through `rep`): counting
        // every row would touch the whole nv × nv matrix.
        self.degree = vec![0; nv];
        for r in &self.reps_cache {
            self.degree[r.index()] = self.adj.count_row(r.index()) as u32;
        }
    }

    /// Whether `v` is a code literal (defined by a `Const` instruction)
    /// holding no run-time storage.
    pub fn is_immediate(&self, v: VarId) -> bool {
        self.immediate[v.index()]
    }

    fn find(&mut self, v: VarId) -> u32 {
        let mut i = v.0;
        while self.parent[i as usize] != i {
            let gp = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = gp;
            i = gp;
        }
        i
    }

    /// The class representative of `v` (immutable lookup).
    pub fn rep(&self, v: VarId) -> VarId {
        let mut i = v.0;
        while self.parent[i as usize] != i {
            i = self.parent[i as usize];
        }
        VarId(i)
    }

    fn union(&mut self, a: u32, b: u32) {
        // Merge b into a, rewiring adjacency row b into row a.
        let nbrs: Vec<usize> = self.adj.iter_row(b as usize).collect();
        self.adj.clear_row(b as usize);
        for n in nbrs {
            self.adj.unset(n, b as usize);
            self.adj.set(n, a as usize);
            self.adj.set(a as usize, n);
        }
        self.parent[b as usize] = a;
        self.occurs[a as usize] = self.occurs[a as usize] || self.occurs[b as usize];
    }

    fn add_edge(&mut self, a: VarId, b: VarId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        self.adj.set(ra as usize, rb as usize);
        self.adj.set(rb as usize, ra as usize);
    }

    /// Whether `a` and `b` interfere (i.e. their classes conflict).
    pub fn interferes(&self, a: VarId, b: VarId) -> bool {
        let ra = self.rep(a);
        let rb = self.rep(b);
        ra != rb && self.adj.get(ra.index(), rb.index())
    }

    /// All class representatives of occurring variables, ascending
    /// (memoized at build time).
    pub fn representatives(&self) -> Vec<VarId> {
        self.reps_cache.clone()
    }

    /// All occurring members of the class represented by `rep`,
    /// ascending (memoized at build time).
    pub fn members(&self, rep: VarId) -> Vec<VarId> {
        self.members_cache
            .get(rep.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Neighbor representatives of the class of `rep`.
    pub fn neighbors(&self, rep: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.adj.iter_row(self.rep(rep).index()).map(VarId::new)
    }

    /// The number of distinct neighbor classes of the class of `rep`
    /// (memoized at build time; the greedy coloring's bound).
    pub fn degree(&self, rep: VarId) -> usize {
        self.degree.get(self.rep(rep).index()).copied().unwrap_or(0) as usize
    }

    /// The number of occurring variables (the paper's "original variable
    /// count" on entry to GCTD).
    pub fn occurring_count(&self) -> usize {
        self.occurs.iter().filter(|o| **o).count()
    }

    /// The size of the variable universe the graph was built over
    /// (occurring or not) — the row count of the adjacency matrix.
    pub fn variable_count(&self) -> usize {
        self.parent.len()
    }

    /// The number of nodes (coalesced classes) in the graph.
    pub fn node_count(&self) -> usize {
        self.representatives().len()
    }

    /// The number of distinct interference edges between classes.
    /// Adjacency is symmetric and coalescing rewires merged rows, so
    /// every neighbor is already a distinct representative.
    pub fn edge_count(&self) -> usize {
        let above = |r: &VarId| self.neighbors(*r).filter(|n| n > r).count();
        self.reps_cache.iter().map(above).sum()
    }
}

/// Whether `op`'s result may legally be computed in place in operand `k`
/// (§2.3). Sound: `false` whenever unsure.
fn inplace_ok(
    op: &Op,
    k: usize,
    args: &[Operand],
    is_scalar: &dyn Fn(VarId) -> bool,
    is_vector: &dyn Fn(VarId) -> bool,
) -> bool {
    match op {
        Op::Bin(b) => match b {
            // Elementwise operations are positionally aligned: reading
            // element i happens no later than writing element i.
            BinOp::Add
            | BinOp::Sub
            | BinOp::ElemMul
            | BinOp::ElemDiv
            | BinOp::ElemLeftDiv
            | BinOp::ElemPow
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => true,
            // `*`, `/`, `\`, `^`: elementwise — hence in-place — only
            // when a scalar operand is proven (§2.3's c = a*b example).
            BinOp::MatMul | BinOp::MatDiv | BinOp::MatLeftDiv | BinOp::MatPow => {
                args.iter().any(|a| a.as_var().is_some_and(is_scalar))
            }
            BinOp::ShortAnd | BinOp::ShortOr => true, // scalars by construction
        },
        Op::Un(u) => match u {
            UnOp::Neg | UnOp::Plus | UnOp::Not => true,
            // Transposing reorders elements; only trivial layouts are
            // in-place safe.
            UnOp::Transpose | UnOp::CTranspose => args
                .first()
                .and_then(|a| a.as_var())
                .is_some_and(|v| is_scalar(v) || is_vector(v)),
        },
        // subsref(a, subs...): in place in `a` when every subscript is a
        // scalar or `:` (a monotone gather — each target address never
        // exceeds its source address); an *array* subscript may permute
        // (the paper's 4:-1:1 example) — unsafe. Subscript operands
        // themselves are read before the write and are safe.
        Op::Subsref => {
            if k == 0 {
                args[1..].iter().all(|s| match s {
                    Operand::ColonAll => true,
                    Operand::Var(v) => is_scalar(*v),
                })
            } else {
                true
            }
        }
        // subsasgn(a, r, subs...): in place in `a` always (§2.3.3.1,
        // backwards fill); never in the value `r` or a subscript (their
        // elements are read while `b`'s storage is written).
        Op::Subsasgn => k == 0,
        // Ranges read scalar endpoints before writing.
        Op::Range2 | Op::Range3 => true,
        // Concatenation copies all operands into fresh positions; any
        // overlap may be clobbered before it is read.
        Op::MatrixBuild { .. } => false,
        Op::Builtin(bi) => {
            // Elementwise maps are aligned; scalar-valued builtins write
            // once after reading everything; constructors read their
            // scalar extents up front.
            bi.is_elementwise_map()
                || bi.is_scalar_valued()
                || matches!(
                    bi,
                    Builtin::Zeros | Builtin::Ones | Builtin::Eye | Builtin::Rand
                )
                || (matches!(bi, Builtin::Max | Builtin::Min) && args.len() == 2)
        }
        // User calls evaluate in the callee's own frame; the result is
        // stored after the arguments are fully consumed.
        Op::Call(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;
    use matc_typeinf::infer_program;

    fn build(src: &str, opts: InterferenceOptions) -> (FuncIr, InterferenceGraph) {
        let ast = parse_program([src]).unwrap();
        let mut prog = build_ssa(&ast).unwrap();
        matc_passes::optimize_program(&mut prog);
        let types = infer_program(&prog);
        let f = prog.entry_func().clone();
        let fid = prog.entry.unwrap();
        let flow = Dataflow::compute(&f);
        let g = InterferenceGraph::build(&f, &flow, &types.funcs[fid.index()], &types, opts);
        (f, g)
    }

    fn var(f: &FuncIr, name: &str, version: u32) -> VarId {
        f.vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == version)
            .map(|(v, _)| v)
            .unwrap_or_else(|| panic!("no {name}.{version} in\n{f}"))
    }

    #[test]
    fn overlapping_du_chains_interfere() {
        // §2.1 example: a and b both live across each other's uses.
        let (f, g) = build(
            "function f()\na = rand(2, 2);\nb = rand(2, 2);\nc = a(1);\nd = b + c;\ndisp(d);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let b = var(&f, "b", 1);
        assert!(g.interferes(a, b), "{f}");
    }

    #[test]
    fn sequential_lifetimes_do_not_interfere() {
        let (f, g) = build(
            "function f()\na = rand(4, 4);\ns = sum(sum(a));\nb = rand(4, 4);\nt = sum(sum(b));\nfprintf('%g %g\\n', s, t);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let b = var(&f, "b", 1);
        assert!(!g.interferes(a, b), "disjoint lifetimes:\n{f}");
    }

    #[test]
    fn matmul_conflicts_with_nonscalar_operands() {
        // c = a*b with matrices: even though a, b die at the statement,
        // the multiply cannot run in place.
        let (f, g) = build(
            "function f()\na = rand(3, 3);\nb = rand(3, 3);\nc = a * b;\ndisp(c);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let b = var(&f, "b", 1);
        let c = var(&f, "c", 1);
        assert!(g.interferes(c, a), "{f}");
        assert!(g.interferes(c, b), "{f}");
        assert!(g.op_conflicts >= 2);
    }

    #[test]
    fn matmul_with_scalar_is_inplace() {
        // k scalar: c can be computed in place in the dying array a.
        let (f, g) = build(
            "function f(k)\na = rand(3, 3);\nc = a * 2;\ndisp(c);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let c = var(&f, "c", 1);
        assert!(!g.interferes(c, a), "{f}");
    }

    #[test]
    fn array_addition_is_inplace() {
        // §2.3.1: + never needs extra conflicts.
        let (f, g) = build(
            "function f()\na = rand(3, 3);\nb = rand(3, 3);\nc = a + b;\ndisp(c);\n",
            InterferenceOptions::default(),
        );
        let c = var(&f, "c", 1);
        let a = var(&f, "a", 1);
        assert!(!g.interferes(c, a), "{f}");
    }

    #[test]
    fn subsref_scalar_subscript_inplace_array_subscript_not() {
        let (f, g) = build(
            "function f()\na = rand(2, 2);\nc = a(1);\ndisp(c);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let c = var(&f, "c", 1);
        assert!(!g.interferes(c, a), "scalar subscript: in place\n{f}");

        let (f2, g2) = build(
            "function f()\na = rand(2, 2);\ne = 4:-1:1;\nc = a(e);\ndisp(c);\n",
            InterferenceOptions::default(),
        );
        let a2 = var(&f2, "a", 1);
        let c2 = var(&f2, "c", 1);
        assert!(
            g2.interferes(c2, a2),
            "§2.3.2: array subscript may permute\n{f2}"
        );
    }

    #[test]
    fn subsasgn_inplace_in_array_not_value() {
        let (f, g) = build(
            "function f(x, y, i1, i2)\na = eye(x, y);\nr = rand(2, 2);\na(i1, i2) = r;\ndisp(a);\n",
            InterferenceOptions::default(),
        );
        // SSA: a.2 = subsasgn(a.1, r, ...). a.1 dies there; r dies there.
        let a1 = var(&f, "a", 1);
        let a2 = var(&f, "a", 2);
        let r = var(&f, "r", 1);
        assert!(!g.interferes(a2, a1), "§2.3.3.1 backwards fill\n{f}");
        assert!(g.interferes(a2, r), "value operand cannot overlap\n{f}");
    }

    #[test]
    fn phi_coalescing_merges_loop_variable() {
        let (f, g) = build(
            "function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n",
            InterferenceOptions::default(),
        );
        assert!(g.coalesced >= 2, "loop φs coalesce: {}\n{f}", g.coalesced);
        // All non-literal SSA versions of s share one class (s.1 = 0 is
        // an immediate; the φ copies the literal into the slot).
        let s_versions: Vec<VarId> = f
            .vars
            .iter()
            .filter(|(_, i)| i.name.as_deref() == Some("s") && i.ssa_version > 0)
            .map(|(v, _)| v)
            .filter(|v| !g.is_immediate(*v))
            .collect();
        assert!(s_versions.len() >= 2, "{f}");
        for sv in &s_versions {
            assert_eq!(g.rep(*sv), g.rep(s_versions[0]), "{f}");
        }
    }

    #[test]
    fn transpose_of_matrix_conflicts_vector_does_not() {
        let (f, g) = build(
            "function f()\na = rand(3, 3);\nb = a';\ndisp(b);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let b = var(&f, "b", 1);
        assert!(g.interferes(b, a), "matrix transpose permutes\n{f}");

        let (f2, g2) = build(
            "function f()\nv = rand(1, 5);\nw = v';\ndisp(w);\n",
            InterferenceOptions::default(),
        );
        let v = var(&f2, "v", 1);
        let w = var(&f2, "w", 1);
        assert!(!g2.interferes(w, v), "vector transpose is a relabel\n{f2}");
    }

    #[test]
    fn op_semantics_can_be_disabled_for_ablation() {
        let (f, g) = build(
            "function f()\na = rand(3, 3);\nb = rand(3, 3);\nc = a * b;\ndisp(c);\n",
            InterferenceOptions {
                operator_semantics: false,
                phi_coalescing: true,
            },
        );
        let a = var(&f, "a", 1);
        let c = var(&f, "c", 1);
        assert!(!g.interferes(c, a), "ablation removes §2.3 conflicts");
        assert_eq!(g.op_conflicts, 0);
    }

    #[test]
    fn memoized_queries_match_direct_scans() {
        let (_, g) = build(
            "function s = f(n)\ns = 0;\nfor i = 1:n\nif s > 3\ns = s + i;\nelse\ns = s - i;\nend\nend\n",
            InterferenceOptions::default(),
        );
        let reps = g.representatives();
        for w in reps.windows(2) {
            assert!(w[0] < w[1], "representatives ascending and deduped");
        }
        let mut total = 0;
        for r in &reps {
            let ms = g.members(*r);
            assert!(!ms.is_empty(), "class of {r:?} has members");
            for m in &ms {
                assert_eq!(g.rep(*m), *r);
            }
            total += ms.len();
            assert_eq!(
                g.degree(*r),
                g.neighbors(*r).count(),
                "degree cache matches adjacency row"
            );
        }
        assert_eq!(total, g.occurring_count(), "classes partition occurrences");
    }

    #[test]
    fn matrix_build_conflicts_with_operands() {
        let (f, g) = build(
            "function f()\na = rand(1, 3);\nb = [a, a];\ndisp(b);\n",
            InterferenceOptions::default(),
        );
        let a = var(&f, "a", 1);
        let b = var(&f, "b", 1);
        assert!(g.interferes(b, a), "{f}");
    }
}
