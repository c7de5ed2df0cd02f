//! Piecewise resolution of guard chains.
//!
//! Horizontal transformation (§6.1, Fig. 3) concatenates independent TEs
//! along one axis behind a chain of `Select`s that the GPU resolves once
//! per thread block. On the host those guards are re-evaluated per element
//! and, worse, hide affine accesses: the `x[v0 - 64, k]` read of a fused
//! q/k/v matmul is out of bounds over the whole box, so it cannot be
//! strength-reduced there even though every taken branch is in bounds.
//!
//! [`split`] resolves such chains statically. When every guard in a body
//! compares one iteration variable linearly against constants, the truth
//! of every guard is constant between consecutive cut points of that axis.
//! Adjacent intervals whose taken bodies coincide are merged. Each
//! resulting piece is then compiled as a TE of its own over its sub-box,
//! with only the taken branch of each `Select` emitted and its axis
//! re-based to start at 0 (see `compile::compile_te`): its accesses are
//! re-proven on that box and it selects its own kernel.
//!
//! Resolving a guard whose value is constant on the piece is exactly what the
//! lazy `Select` would do at every point of the piece: the same branch is
//! taken, so every element performs the same loads and float operations.

use crate::expr::{CmpOp, Cond, ScalarExpr};
use std::ops::Range;

/// Most pieces one TE is split into. Guard chains from horizontal fusion
/// have at most `MAX_GROUP` (8) members; a body with more cuts keeps the
/// guarded bytecode.
const MAX_PIECES: usize = 16;

/// Splits `body` over an output box of extents `dims` at its guard cuts.
/// Returns the split axis and the pieces' intervals of it in ascending
/// order, or `None` when the body has no guards or any guard is not a
/// linear comparison of one iteration variable (padding guards on
/// reduction variables, guards over two variables, div/mod predicates) —
/// those keep the lazy bytecode path. Every guard is constant on each
/// interval, so a piece's body is the one taken at its first point.
pub(crate) fn split(body: &ScalarExpr, dims: &[i64]) -> Option<(usize, Vec<Range<i64>>)> {
    let mut conds = Vec::new();
    collect_conds(body, &mut conds);
    if conds.is_empty() {
        return None;
    }
    let mut axis = None;
    let mut cuts = Vec::new();
    for c in conds {
        if !linear_cuts(c, &mut axis, &mut cuts) {
            return None;
        }
    }
    let axis = axis?;
    let extent = *dims.get(axis)?; // reduction variables and fold binders are out of range
    if extent <= 0 {
        return None;
    }
    cuts.retain(|&c| c > 0 && c < extent);
    cuts.sort_unstable();
    cuts.dedup();
    if cuts.len() >= MAX_PIECES {
        return None;
    }
    cuts.push(extent);
    let at = |v: i64| {
        let mut vars = vec![0i64; axis + 1];
        vars[axis] = v;
        vars
    };
    let mut pieces: Vec<Range<i64>> = Vec::new();
    let mut lo = 0;
    for hi in cuts {
        match pieces.last_mut() {
            Some(last) if same_taken(body, &at(last.start), body, &at(lo)) => last.end = hi,
            _ => pieces.push(lo..hi),
        }
        lo = hi;
    }
    Some((axis, pieces))
}

/// Every `Select` predicate in the body, fold bodies included.
fn collect_conds<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a Cond>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => {}
        ScalarExpr::Unary(_, a) => collect_conds(a, out),
        ScalarExpr::Binary(_, a, b) => {
            collect_conds(a, out);
            collect_conds(b, out);
        }
        ScalarExpr::Select {
            cond,
            on_true,
            on_false,
        } => {
            out.push(cond);
            collect_conds(on_true, out);
            collect_conds(on_false, out);
        }
        ScalarExpr::Reduce { body, .. } => collect_conds(body, out),
    }
}

/// Records the points of `axis` where a comparison in `cond` changes
/// truth. Returns `false` when a comparison is not linear in a single
/// variable or names a different variable than earlier guards.
///
/// `lhs - rhs = c·v + d` with `c ≠ 0` is negative exactly below (`c > 0`)
/// or above (`c < 0`) `x* = -d/c`. So `<`/`>=` flip at `⌈x*⌉` for `c > 0`
/// and at `⌊x*⌋ + 1` for `c < 0`, `<=`/`>` the other way round, and
/// `==`/`!=` flip at both (`x*` integral: on entering and on leaving it).
fn linear_cuts(cond: &Cond, axis: &mut Option<usize>, cuts: &mut Vec<i64>) -> bool {
    match cond {
        Cond::Cmp(op, lhs, rhs) => {
            let n = lhs.max_var().max(rhs.max_var()).map_or(0, |m| m + 1);
            let (Some((cl, dl)), Some((cr, dr))) = (lhs.as_linear(n), rhs.as_linear(n)) else {
                return false;
            };
            let mut slope = cl
                .iter()
                .zip(&cr)
                .map(|(l, r)| l - r)
                .enumerate()
                .filter(|(_, c)| *c != 0);
            let Some((v, c)) = slope.next() else {
                return true; // constant predicate: no cut
            };
            if slope.next().is_some() || *axis.get_or_insert(v) != v {
                return false;
            }
            let d = dl - dr;
            let (num, den) = if c > 0 { (-d, c) } else { (d, -c) };
            let floor = num.div_euclid(den);
            let ceil = floor + i64::from(num.rem_euclid(den) != 0);
            let below = matches!(op, CmpOp::Lt | CmpOp::Ge) == (c > 0);
            match op {
                CmpOp::Eq | CmpOp::Ne => cuts.extend([ceil, floor + 1]),
                _ if below => cuts.push(ceil),
                _ => cuts.push(floor + 1),
            }
            true
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            linear_cuts(a, axis, cuts) && linear_cuts(b, axis, cuts)
        }
        Cond::Not(a) => linear_cuts(a, axis, cuts),
    }
}

/// The branch of `e` taken at `vars`: `e` with its leading `Select`s
/// resolved.
fn taken<'a>(mut e: &'a ScalarExpr, vars: &[i64]) -> &'a ScalarExpr {
    while let ScalarExpr::Select {
        cond,
        on_true,
        on_false,
    } = e
    {
        e = if cond.eval(vars) { on_true } else { on_false };
    }
    e
}

/// Whether `a` with its guards taken at `va` and `b` with its guards taken
/// at `vb` are the same body, with constants compared bit for bit (`0.0`
/// and `-0.0` differ).
fn same_taken(a: &ScalarExpr, va: &[i64], b: &ScalarExpr, vb: &[i64]) -> bool {
    match (taken(a, va), taken(b, vb)) {
        (ScalarExpr::Const(x), ScalarExpr::Const(y)) => x.to_bits() == y.to_bits(),
        (ScalarExpr::Unary(o1, x), ScalarExpr::Unary(o2, y)) => {
            o1 == o2 && same_taken(x, va, y, vb)
        }
        (ScalarExpr::Binary(o1, x1, y1), ScalarExpr::Binary(o2, x2, y2)) => {
            o1 == o2 && same_taken(x1, va, x2, vb) && same_taken(y1, va, y2, vb)
        }
        (
            ScalarExpr::Reduce {
                op: o1,
                var: v1,
                extent: e1,
                body: b1,
            },
            ScalarExpr::Reduce {
                op: o2,
                var: v2,
                extent: e2,
                body: b2,
            },
        ) => o1 == o2 && v1 == v2 && e1 == e2 && same_taken(b1, va, b2, vb),
        // Inputs and index values carry no floats.
        (x @ ScalarExpr::Input { .. }, y @ ScalarExpr::Input { .. })
        | (x @ ScalarExpr::IndexValue(_), y @ ScalarExpr::IndexValue(_)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use souffle_affine::IndexExpr;

    fn lt(v: usize, c: i64) -> Cond {
        Cond::cmp(CmpOp::Lt, IndexExpr::var(v), IndexExpr::constant(c))
    }

    fn load(v: usize, off: i64) -> ScalarExpr {
        ScalarExpr::input(0, vec![IndexExpr::var(v).add(IndexExpr::constant(off))])
    }

    #[test]
    fn guard_chain_splits_at_its_cuts() {
        // select(v0 < 4, x[v0], select(v0 < 10, x[v0 - 4], x[v0 - 10]))
        let body = ScalarExpr::select(
            lt(0, 4),
            load(0, 0),
            ScalarExpr::select(lt(0, 10), load(0, -4), load(0, -10)),
        );
        let (axis, pieces) = split(&body, &[12]).unwrap();
        assert_eq!(axis, 0);
        assert_eq!(pieces, vec![0..4, 4..10, 10..12]);
        for (p, off) in pieces.iter().zip([0, -4, -10]) {
            assert_eq!(taken(&body, &[p.start]), &load(0, off));
        }
    }

    #[test]
    fn equal_adjacent_pieces_merge_and_signed_zeros_do_not() {
        let relu = |v| ScalarExpr::unary(crate::expr::UnaryOp::Relu, load(v, 0));
        let body = ScalarExpr::select(lt(1, 2), relu(0), relu(0));
        let (axis, pieces) = split(&body, &[3, 5]).unwrap();
        assert_eq!((axis, pieces.len(), pieces[0].clone()), (1, 1, 0..5));
        let zeros = ScalarExpr::select(lt(0, 2), ScalarExpr::Const(0.0), ScalarExpr::Const(-0.0));
        assert_eq!(split(&zeros, &[4]), Some((0, vec![0..2, 2..4])));
    }

    #[test]
    fn other_guard_shapes_keep_the_lazy_path() {
        let x = load(0, 0);
        // A guard on the reduction variable (v1 for a rank-1 output).
        let on_reduce = ScalarExpr::select(lt(1, 3), x.clone(), ScalarExpr::Const(0.0));
        assert!(split(&on_reduce, &[8]).is_none());
        // Guards on two different variables.
        let two = ScalarExpr::select(
            lt(0, 3),
            ScalarExpr::select(lt(1, 2), x.clone(), x.clone()),
            x.clone(),
        );
        assert!(split(&two, &[8, 8]).is_none());
        // A div/mod predicate.
        let parity = ScalarExpr::select(
            Cond::cmp(
                CmpOp::Eq,
                IndexExpr::var(0).modulo(2),
                IndexExpr::constant(0),
            ),
            x.clone(),
            ScalarExpr::Const(1.0),
        );
        assert!(split(&parity, &[8]).is_none());
        // No guard at all.
        assert!(split(&ScalarExpr::binary(BinaryOp::Add, x.clone(), x), &[8]).is_none());
    }

    #[test]
    fn cut_points_cover_every_comparison_operator() {
        // For each operator and both slopes, the folded piece bodies must
        // agree with evaluating the guard at every point of the axis.
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for op in ops {
            for (c, d) in [(1, -5), (-1, 5), (2, -7), (-3, 8), (3, 0)] {
                let lhs = IndexExpr::var(0).mul(c).add(IndexExpr::constant(d));
                let cond = Cond::cmp(op, lhs, IndexExpr::constant(0));
                let body = ScalarExpr::select(
                    cond.clone(),
                    ScalarExpr::Const(1.0),
                    ScalarExpr::Const(2.0),
                );
                let (_, pieces) = split(&body, &[9]).unwrap();
                for v in 0..9 {
                    let p = pieces.iter().find(|p| p.contains(&v)).unwrap();
                    assert_eq!(
                        cond.eval(&[v]),
                        cond.eval(&[p.start]),
                        "{cond} at v0={v} differs from its piece {p:?}"
                    );
                }
            }
        }
    }
}
