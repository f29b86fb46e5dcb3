//! Constant folding and propagation.
//!
//! Scalar operations whose operands are compile-time constants are
//! rewritten to `Const` instructions; because the IR is SSA, propagation
//! is implicit: each folded result joins the constant map at once, and
//! blocks are swept in reverse postorder (every def before its non-φ
//! uses), so one sweep folds a whole dependency chain — an N-long
//! `x = x + k` chain costs O(N), not the O(N²) of folding one link per
//! sweep. Unreachable blocks follow in index order, and a second sweep
//! confirms the fixpoint. Folding feeds the type engine with
//! exact values — the paper's drivers pass constant problem sizes, which
//! is what makes whole benchmarks stack-allocatable (§3.2.1).

use matc_frontend::ast::{BinOp, UnOp};
use matc_ir::ids::{BlockId, VarId};
use matc_ir::instr::{Const, InstrKind, Op};
use matc_ir::{Builtin, FuncIr};
use std::collections::{HashMap, HashSet};

/// Folds constant scalar computations in one SSA function. Returns the
/// number of instructions rewritten to constants.
pub fn fold_constants(func: &mut FuncIr) -> usize {
    let mut consts = scalar_consts(func);
    // Reverse postorder, then the unreachable blocks (module docs).
    let mut order = func.reverse_postorder();
    let reachable: HashSet<BlockId> = order.iter().copied().collect();
    order.extend(func.block_ids().filter(|b| !reachable.contains(b)));
    let mut total = 0;
    loop {
        let mut folded = 0;
        for &b in &order {
            for instr in &mut func.block_mut(b).instrs {
                if let InstrKind::Compute { dst, op, args } = &instr.kind {
                    let vals: Option<Vec<f64>> = args
                        .iter()
                        .map(|a| a.as_var().and_then(|v| consts.get(&v).copied()))
                        .collect();
                    if let Some(result) = vals.and_then(|vals| eval(op, &vals)) {
                        if let Some(v) = scalar_value(&result) {
                            consts.insert(*dst, v);
                        }
                        instr.kind = InstrKind::Const {
                            dst: *dst,
                            value: result,
                        };
                        folded += 1;
                    }
                }
            }
        }
        total += folded;
        if folded == 0 {
            return total;
        }
    }
}

/// The scalar value of every `Const`-defined variable.
fn scalar_consts(func: &FuncIr) -> HashMap<VarId, f64> {
    let mut consts = HashMap::new();
    for b in func.block_ids() {
        for instr in &func.block(b).instrs {
            if let InstrKind::Const { dst, value } = &instr.kind {
                if let Some(v) = scalar_value(value) {
                    consts.insert(*dst, v);
                }
            }
        }
    }
    consts
}

fn scalar_value(c: &Const) -> Option<f64> {
    match c {
        Const::Num(v) => Some(*v),
        Const::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Evaluates a scalar operation over constant operands, mirroring the
/// runtime semantics for the foldable subset (real scalars only).
fn eval(op: &Op, vals: &[f64]) -> Option<Const> {
    let bool_of = |b: bool| Const::Bool(b);
    Some(match op {
        Op::Bin(b) => {
            let (x, y) = (vals[0], vals[1]);
            match b {
                BinOp::Add => Const::Num(x + y),
                BinOp::Sub => Const::Num(x - y),
                BinOp::MatMul | BinOp::ElemMul => Const::Num(x * y),
                BinOp::MatDiv | BinOp::ElemDiv => Const::Num(x / y),
                BinOp::MatLeftDiv | BinOp::ElemLeftDiv => Const::Num(y / x),
                BinOp::MatPow | BinOp::ElemPow => {
                    // Negative base with fractional exponent is complex;
                    // leave for the runtime.
                    if x < 0.0 && y.fract() != 0.0 {
                        return None;
                    }
                    Const::Num(x.powf(y))
                }
                BinOp::Eq => bool_of(x == y),
                BinOp::Ne => bool_of(x != y),
                BinOp::Lt => bool_of(x < y),
                BinOp::Le => bool_of(x <= y),
                BinOp::Gt => bool_of(x > y),
                BinOp::Ge => bool_of(x >= y),
                BinOp::And => bool_of(x != 0.0 && y != 0.0),
                BinOp::Or => bool_of(x != 0.0 || y != 0.0),
                BinOp::ShortAnd | BinOp::ShortOr => return None,
            }
        }
        Op::Un(u) => {
            let x = vals[0];
            match u {
                UnOp::Neg => Const::Num(-x),
                UnOp::Plus => Const::Num(x),
                UnOp::Not => bool_of(x == 0.0),
                // Scalar transpose is the identity.
                UnOp::Transpose | UnOp::CTranspose => Const::Num(x),
            }
        }
        Op::Builtin(bi) => match (bi, vals) {
            (Builtin::IsTrue, [x]) => bool_of(*x != 0.0),
            (Builtin::Numel, [_]) => Const::Num(1.0),
            (Builtin::Length, [_]) => Const::Num(1.0),
            (Builtin::Ndims, [_]) => Const::Num(2.0),
            (Builtin::Abs, [x]) => Const::Num(x.abs()),
            (Builtin::Floor, [x]) => Const::Num(x.floor()),
            (Builtin::Ceil, [x]) => Const::Num(x.ceil()),
            (Builtin::Round, [x]) => Const::Num(x.round()),
            (Builtin::Fix, [x]) => Const::Num(x.trunc()),
            (Builtin::Sqrt, [x]) if *x >= 0.0 => Const::Num(x.sqrt()),
            (Builtin::Exp, [x]) => Const::Num(x.exp()),
            (Builtin::Log, [x]) if *x > 0.0 => Const::Num(x.ln()),
            (Builtin::Sin, [x]) => Const::Num(x.sin()),
            (Builtin::Cos, [x]) => Const::Num(x.cos()),
            (Builtin::Pi, []) => Const::Num(std::f64::consts::PI),
            (Builtin::Eps, []) => Const::Num(f64::EPSILON),
            (Builtin::Inf, []) => Const::Num(f64::INFINITY),
            (Builtin::LoopIndex, [a, s, _b, k]) => Const::Num(a + s * (k - 1.0)),
            (Builtin::RangeCount, [a, s, b]) => {
                if *s == 0.0 {
                    return None;
                }
                Const::Num((((b - a) / s).floor() + 1.0).max(0.0))
            }
            (Builtin::Max, [x, y]) => Const::Num(x.max(*y)),
            (Builtin::Min, [x, y]) => Const::Num(x.min(*y)),
            (Builtin::Mod, [x, y]) if *y != 0.0 => Const::Num(x - y * (x / y).floor()),
            (Builtin::Rem, [x, y]) if *y != 0.0 => Const::Num(x - y * (x / y).trunc()),
            _ => return None,
        },
        _ => return None,
    })
}

/// Folds branches on constant conditions into jumps, then removes
/// unreachable φ-inputs. Returns the number of branches simplified.
pub fn fold_branches(func: &mut FuncIr) -> usize {
    use matc_ir::instr::Terminator;
    let consts = scalar_consts(func);
    let mut folded = 0;
    for b in func.block_ids() {
        let blk = func.block(b);
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = blk.term
        {
            if let Some(v) = consts.get(&cond) {
                let (taken, dead) = if *v != 0.0 {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                func.block_mut(b).term = Terminator::Jump(taken);
                // Remove the dead φ-inputs coming from `b` in `dead`.
                if taken != dead {
                    let blk = func.block_mut(dead);
                    let k = blk.first_non_phi();
                    for phi in &mut blk.instrs[..k] {
                        if let InstrKind::Phi { args, .. } = &mut phi.kind {
                            args.retain(|(p, _)| *p != b);
                        }
                    }
                }
                folded += 1;
            }
        }
    }
    if folded > 0 {
        remove_unreachable(func);
    }
    folded
}

/// Empties blocks that became unreachable and drops φ-inputs arriving
/// from them, keeping the SSA invariants intact.
pub fn remove_unreachable(func: &mut FuncIr) {
    let reachable: HashSet<_> = func.reverse_postorder().into_iter().collect();
    for b in func.block_ids() {
        if !reachable.contains(&b) {
            let blk = func.block_mut(b);
            blk.instrs.clear();
            blk.term = matc_ir::instr::Terminator::Return;
        }
    }
    for b in func.block_ids() {
        if !reachable.contains(&b) {
            continue;
        }
        let blk = func.block_mut(b);
        let k = blk.first_non_phi();
        for phi in &mut blk.instrs[..k] {
            if let InstrKind::Phi { args, .. } = &mut phi.kind {
                args.retain(|(p, _)| reachable.contains(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::{build_ssa, verify_func};

    fn prepped(src: &str) -> FuncIr {
        let ast = parse_program([src]).unwrap();
        let prog = build_ssa(&ast).unwrap();
        prog.entry_func().clone()
    }

    /// The fold before single-sweep folding, kept as the oracle: each
    /// sweep rebuilds `consts` from scratch and walks blocks in index
    /// order, so a chain folds one link per sweep. Returns the count
    /// and the number of sweeps.
    fn fold_by_sweeps(func: &mut FuncIr) -> (usize, usize) {
        let (mut total, mut sweeps) = (0, 0);
        loop {
            sweeps += 1;
            let consts = scalar_consts(func);
            let mut folded = 0;
            for b in func.block_ids() {
                for instr in &mut func.block_mut(b).instrs {
                    if let InstrKind::Compute { dst, op, args } = &instr.kind {
                        let vals: Option<Vec<f64>> = args
                            .iter()
                            .map(|a| a.as_var().and_then(|v| consts.get(&v).copied()))
                            .collect();
                        if let Some(result) = vals.and_then(|vals| eval(op, &vals)) {
                            instr.kind = InstrKind::Const {
                                dst: *dst,
                                value: result,
                            };
                            folded += 1;
                        }
                    }
                }
            }
            total += folded;
            if folded == 0 {
                return (total, sweeps);
            }
        }
    }

    #[test]
    fn one_call_folds_chains_against_block_index_order() {
        use matc_frontend::span::Span;
        use matc_ir::instr::{Instr, Operand, Terminator};

        fn push(f: &mut FuncIr, b: matc_ir::BlockId, kind: InstrKind) {
            f.block_mut(b).instrs.push(Instr::new(kind, Span::dummy()));
        }
        fn num(dst: VarId, v: f64) -> InstrKind {
            InstrKind::Const {
                dst,
                value: Const::Num(v),
            }
        }
        fn bin(dst: VarId, op: BinOp, x: VarId, y: VarId) -> InstrKind {
            InstrKind::Compute {
                dst,
                op: Op::Bin(op),
                args: vec![Operand::Var(x), Operand::Var(y)],
            }
        }
        // entry → b2 → b1: the chain starts in b2 and continues in the
        // lower-indexed b1. b3 → b4 is unreachable and holds a chain of
        // its own.
        let mut f = FuncIr::new("g");
        let (b1, b2, b3, b4) = (f.add_block(), f.add_block(), f.add_block(), f.add_block());
        let v: Vec<VarId> = (0..9).map(|_| f.new_temp()).collect();
        let entry = f.entry;
        f.block_mut(entry).term = Terminator::Jump(b2);
        push(&mut f, b2, num(v[0], 2.0));
        push(&mut f, b2, num(v[1], 3.0));
        push(&mut f, b2, bin(v[2], BinOp::Add, v[0], v[1]));
        f.block_mut(b2).term = Terminator::Jump(b1);
        push(&mut f, b1, bin(v[3], BinOp::ElemMul, v[2], v[1]));
        push(&mut f, b1, bin(v[4], BinOp::Sub, v[3], v[0]));
        push(&mut f, b3, num(v[5], 5.0));
        push(&mut f, b3, bin(v[6], BinOp::Add, v[5], v[5]));
        f.block_mut(b3).term = Terminator::Jump(b4);
        push(&mut f, b4, bin(v[7], BinOp::ElemMul, v[6], v[6]));
        push(&mut f, b4, bin(v[8], BinOp::Lt, v[7], v[5]));
        f.ssa_outs = vec![v[4]];
        f.in_ssa = true;
        verify_func(&f).unwrap();

        let mut old = f.clone();
        let (old_count, sweeps) = fold_by_sweeps(&mut old);
        assert!(sweeps > 3, "the fixture must need several old sweeps");
        let count = fold_constants(&mut f);
        assert_eq!(count, old_count);
        assert_eq!(count, 6, "{f}");
        assert_eq!(f, old, "same folded IR as sweeping to a fixpoint");
        verify_func(&f).unwrap();
    }

    #[test]
    fn folds_arithmetic_chains() {
        let mut f = prepped("function y = f()\ny = 2 * 3 + 4;\n");
        let n = fold_constants(&mut f);
        assert!(n >= 2, "{f}");
        verify_func(&f).unwrap();
        let text = f.to_string();
        assert!(text.contains("<- 10"), "{text}");
    }

    #[test]
    fn folds_comparisons_to_bool() {
        let mut f = prepped("function y = f()\ny = 3 < 4;\n");
        fold_constants(&mut f);
        assert!(f.to_string().contains("true"));
    }

    #[test]
    fn does_not_fold_through_unknowns() {
        let mut f = prepped("function y = f(x)\ny = x + 1;\n");
        assert_eq!(fold_constants(&mut f), 0);
    }

    #[test]
    fn avoids_complex_power() {
        let mut f = prepped("function y = f()\ny = (0 - 2) ^ 0.5;\n");
        fold_constants(&mut f);
        // The power itself must remain for the runtime.
        assert!(f.to_string().contains("bin[^]"), "{f}");
    }

    #[test]
    fn folds_rangecount() {
        let mut f = prepped("function s = f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\n");
        fold_constants(&mut f);
        assert!(f.to_string().contains("<- 10"), "{f}");
    }

    #[test]
    fn branch_folding_removes_phi_inputs() {
        let mut f = prepped("function y = f()\nif 1 < 2\ny = 1;\nelse\ny = 2;\nend\ny = y + 0;\n");
        fold_constants(&mut f);
        let n = fold_branches(&mut f);
        assert!(n >= 1, "{f}");
        // The φ for y should have lost its dead input (or the verifier
        // would complain about pred mismatch after reachability changes).
        crate::dce::eliminate_dead_code(&mut f);
        verify_func(&f).unwrap();
    }
}
