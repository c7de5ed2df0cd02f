//! Execution of compiled TE programs.
//!
//! The VM runs each TE's bytecode once per point of the output iteration
//! space. Two things make it fast relative to the naive interpreter while
//! keeping results bit-identical:
//!
//! - **Strength-reduced indexing.** Every affine operand access carries a
//!   flat offset that the odometer loops update incrementally (one add per
//!   loop step, one subtract per wrap) instead of re-evaluating index
//!   expressions per element. The arithmetic is exact integer math, so the
//!   element loaded is exactly the one the interpreter loads.
//! - **Specialized body shapes.** Bodies the compiler recognizes (a lone
//!   affine load, or the `a * b` inner-product body of matmul and unpadded
//!   conv) skip instruction dispatch entirely and run as tight loops over
//!   local offset accumulators — the same loads and float ops in the same
//!   order, so no result bit changes.
//! - **Piecewise dispatch.** A TE split at its guard cuts
//!   ([`crate::piecewise`]) runs each piece, a guard-free TE of its own, on
//!   the part of the chunk it covers, in ascending flat order.
//! - **Wavefront threading.** Execution is handled by
//!   [`crate::runtime`]: independent TEs (same dependency level) run
//!   concurrently, and each TE's flat output range is split into
//!   contiguous chunks submitted as stealable tasks to a persistent
//!   work-stealing pool, each task writing a disjoint `&mut [f32]` slice.
//!   Elements are computed independently in both evaluators, so the split
//!   cannot change any result bit. The thread count comes from
//!   `SOUFFLE_EVAL_THREADS` when set, otherwise from
//!   [`std::thread::available_parallelism`]; tiny iteration spaces run
//!   serially to avoid dispatch overhead.
//!
//! Floating-point evaluation order inside one element — including the
//! reduction combine order — is byte-for-byte the interpreter's, which is
//! what the `evaluator_equivalence` differential suite locks down.

use crate::compile::{AffineAccess, BodyKind, CompiledProgram, CompiledTe, Instr, Split};
use crate::interp::EvalError;
use crate::kernels::{self, ExecOpts, KernelSel};
use crate::program::TensorId;
use crate::runtime::ExecPlan;
use souffle_tensor::Tensor;
use std::collections::HashMap;

/// Environment variable overriding the evaluation thread count.
pub const THREADS_ENV: &str = "SOUFFLE_EVAL_THREADS";

/// Below this many body evaluations a TE (or chunk) is run serially:
/// dispatch cost would dominate.
pub(crate) const SERIAL_THRESHOLD: usize = 8192;

impl CompiledProgram {
    /// Evaluates the compiled program, mirroring
    /// [`crate::interp::eval_program`]: `bindings` must cover every free
    /// tensor, and the result maps each TE-produced tensor to its value
    /// (with the caller's non-output bindings dropped).
    ///
    /// # Errors
    ///
    /// Returns the same [`EvalError`]s as the interpreter: missing or
    /// mis-shaped bindings, and out-of-bounds reads on taken branches.
    ///
    /// Execution goes through the process-global wavefront
    /// [`crate::runtime::Runtime`] (persistent work-stealing pool); use an
    /// explicitly configured [`crate::runtime::Runtime`] for control over
    /// pool size and arena behavior plus an outputs-only result.
    pub fn eval(
        &self,
        bindings: &HashMap<TensorId, Tensor>,
    ) -> Result<HashMap<TensorId, Tensor>, EvalError> {
        let plan = ExecPlan::from_compiled(self).keeping_intermediates();
        crate::runtime::global().eval_with_plan(self, &plan, bindings)
    }
}

/// The explicit `SOUFFLE_EVAL_THREADS` override, if set and parseable
/// (clamped to at least 1). An explicit override is honored verbatim —
/// it is never capped at the detected machine parallelism.
pub(crate) fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.max(1))
}

/// The machine's available parallelism (1 when it cannot be queried).
pub(crate) fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves the thread count: `SOUFFLE_EVAL_THREADS` if set (clamped to at
/// least 1), otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    env_threads().unwrap_or_else(detected_parallelism)
}

/// Evaluates output elements `start .. start + out.len()` (flat row-major
/// order) into `out`.
///
/// When `exec.kernels` is set and the compiler selected a specialized
/// kernel for this TE ([`crate::kernels`]), the monomorphized native loop
/// runs instead of the bytecode below; selection excludes every body that
/// can fail, so the kernel path is infallible and the error contract is
/// carried entirely by the bytecode path.
pub(crate) fn run_chunk(
    te: &CompiledTe,
    start: usize,
    out: &mut [f32],
    operands: &[&[f32]],
    exec: ExecOpts,
) -> Result<(), EvalError> {
    if let Some(split) = &te.split {
        return run_pieces(te, split, start, out, operands, exec);
    }
    if exec.kernels && !matches!(te.tier, KernelSel::Fallback(_)) {
        kernels::run(te, start, out, operands, exec.fast_math);
        return Ok(());
    }
    let n_iter = te.out_shape.rank();
    let dims = te.out_shape.dims();
    let mut vars = vec![0i64; te.n_vars];
    let mut rem = start as i64;
    for axis in (0..n_iter).rev() {
        vars[axis] = rem % dims[axis];
        rem /= dims[axis];
    }
    let mut offsets: Vec<i64> = te
        .affine
        .iter()
        .map(|a| a.base + a.coeffs.iter().zip(&vars).map(|(c, v)| c * v).sum::<i64>())
        .collect();
    let mut regs = vec![0.0f32; te.n_regs];
    let mut fold_eval = FoldEval::new(te.folds.len());
    for slot in out.iter_mut() {
        let value = if te.reduce.is_empty() {
            match te.kind {
                // Specialized bodies do the exact loads and float ops the
                // bytecode would, in the same order — only the dispatch is
                // gone — so every result bit is unchanged.
                BodyKind::AffineLoad { access } => {
                    operands[te.affine[access].operand][offsets[access] as usize]
                }
                BodyKind::MulAffine { a, b } => mul_affine(te, a, b, &offsets, &vars, operands),
                BodyKind::Generic => run_body(
                    te,
                    &mut regs,
                    &mut vars,
                    &mut offsets,
                    operands,
                    &mut fold_eval,
                )?,
            }
        } else {
            let op = te.reduce_op.expect("validated reduction");
            match (te.reduce.as_slice(), &te.kind) {
                // Single-axis inner product (matmul / unpadded conv): a
                // tight multiply-accumulate over local offset copies. The
                // loop visits the same elements in the same order as the
                // odometer below, and `op.init()` + `combine` give the
                // identical float sequence.
                (&[ext], &BodyKind::MulAffine { a, b }) => {
                    let (aa, ab) = (&te.affine[a], &te.affine[b]);
                    let (da, db) = (operands[aa.operand], operands[ab.operand]);
                    let (mut oa, mut ob) = (offsets[a], offsets[b]);
                    let (ca, cb) = (aa.coeffs[n_iter], ab.coeffs[n_iter]);
                    match op {
                        // Gathered factors: the iteration variables' terms
                        // are fixed for the element, the reduction
                        // variable's (if any) is looked up per `k`.
                        _ if !aa.gathers.is_empty() || !ab.gathers.is_empty() => {
                            oa += gathered_except(aa, &vars, n_iter);
                            ob += gathered_except(ab, &vars, n_iter);
                            let (ta, tb) = (table_of(aa, n_iter), table_of(ab, n_iter));
                            let mut acc = op.init();
                            for k in 0..ext as usize {
                                let x = da[(oa + ta.map_or(0, |t| t[k])) as usize]
                                    * db[(ob + tb.map_or(0, |t| t[k])) as usize];
                                acc = op.combine(acc, x);
                                oa += ca;
                                ob += cb;
                            }
                            acc
                        }
                        crate::te::ReduceOp::Sum => {
                            let mut acc = op.init();
                            for _ in 0..ext {
                                acc += da[oa as usize] * db[ob as usize];
                                oa += ca;
                                ob += cb;
                            }
                            acc
                        }
                        _ => {
                            let mut acc = op.init();
                            for _ in 0..ext {
                                acc = op.combine(acc, da[oa as usize] * db[ob as usize]);
                                oa += ca;
                                ob += cb;
                            }
                            acc
                        }
                    }
                }
                // Single-axis single-load reduction (sum/max/min over an
                // axis, e.g. softmax's row max and row sum).
                (&[ext], &BodyKind::AffineLoad { access }) => {
                    let aa = &te.affine[access];
                    let da = operands[aa.operand];
                    let mut oa = offsets[access];
                    let ca = aa.coeffs[n_iter];
                    let mut acc = op.init();
                    for _ in 0..ext {
                        acc = op.combine(acc, da[oa as usize]);
                        oa += ca;
                    }
                    acc
                }
                _ => {
                    let mut acc = op.init();
                    'reduce: loop {
                        let v = match te.kind {
                            BodyKind::AffineLoad { access } => {
                                operands[te.affine[access].operand][offsets[access] as usize]
                            }
                            BodyKind::MulAffine { a, b } => {
                                mul_affine(te, a, b, &offsets, &vars, operands)
                            }
                            BodyKind::Generic => run_body(
                                te,
                                &mut regs,
                                &mut vars,
                                &mut offsets,
                                operands,
                                &mut fold_eval,
                            )?,
                        };
                        acc = op.combine(acc, v);
                        let mut axis = te.reduce.len();
                        loop {
                            if axis == 0 {
                                break 'reduce; // reduction vars back at 0, offsets restored
                            }
                            axis -= 1;
                            let vi = n_iter + axis;
                            vars[vi] += 1;
                            if !te.folds.is_empty() {
                                fold_eval.invalidate(te, vi);
                            }
                            if vars[vi] < te.reduce[axis] {
                                for (off, a) in offsets.iter_mut().zip(&te.affine) {
                                    *off += a.coeffs[vi];
                                }
                                break;
                            }
                            vars[vi] = 0;
                            for (off, a) in offsets.iter_mut().zip(&te.affine) {
                                *off -= a.coeffs[vi] * (te.reduce[axis] - 1);
                            }
                        }
                    }
                    acc
                }
            }
        };
        *slot = value;
        // Advance the iteration odometer, keeping affine offsets in step.
        let mut axis = n_iter;
        loop {
            if axis == 0 {
                break; // iteration space exhausted (last element of last chunk)
            }
            axis -= 1;
            vars[axis] += 1;
            if !te.folds.is_empty() {
                fold_eval.invalidate(te, axis);
            }
            if vars[axis] < dims[axis] {
                for (off, a) in offsets.iter_mut().zip(&te.affine) {
                    *off += a.coeffs[axis];
                }
                break;
            }
            vars[axis] = 0;
            for (off, a) in offsets.iter_mut().zip(&te.affine) {
                *off -= a.coeffs[axis] * (dims[axis] - 1);
            }
        }
    }
    Ok(())
}

/// The gathered part of an affine access's flat offset at `vars` (0 for a
/// plain affine access).
#[inline]
pub(crate) fn gathered(a: &AffineAccess, vars: &[i64]) -> i64 {
    a.gathers
        .iter()
        .map(|g| g.table[vars[g.var] as usize])
        .sum()
}

/// [`gathered`] without the term of variable `skip`.
#[inline]
pub(crate) fn gathered_except(a: &AffineAccess, vars: &[i64], skip: usize) -> i64 {
    a.gathers
        .iter()
        .filter(|g| g.var != skip)
        .map(|g| g.table[vars[g.var] as usize])
        .sum()
}

/// The gathered table of variable `var` in an access, if it has one.
#[inline]
pub(crate) fn table_of(a: &AffineAccess, var: usize) -> Option<&[i64]> {
    a.gathers
        .iter()
        .find(|g| g.var == var)
        .map(|g| g.table.as_slice())
}

/// `a · b` for a [`BodyKind::MulAffine`] body at the current point.
#[inline]
fn mul_affine(
    te: &CompiledTe,
    a: usize,
    b: usize,
    offsets: &[i64],
    vars: &[i64],
    operands: &[&[f32]],
) -> f32 {
    let (aa, ab) = (&te.affine[a], &te.affine[b]);
    operands[aa.operand][(offsets[a] + gathered(aa, vars)) as usize]
        * operands[ab.operand][(offsets[b] + gathered(ab, vars)) as usize]
}

/// Evaluates output elements `start .. start + out.len()` of a split TE by
/// dispatching each piece on its flat runs. For every index of the axes
/// before the split axis, a piece covers one contiguous block of the flat
/// output; the chunk is intersected with those blocks in ascending flat
/// order, so the first failing element (and its error) is the one the
/// unsplit bytecode would report.
fn run_pieces(
    te: &CompiledTe,
    split: &Split,
    start: usize,
    out: &mut [f32],
    operands: &[&[f32]],
    exec: ExecOpts,
) -> Result<(), EvalError> {
    let dims = te.out_shape.dims();
    let inner = dims[split.axis + 1..].iter().product::<i64>() as usize;
    let span = dims[split.axis] as usize * inner; // one outer index
    let end = start + out.len();
    if span == 0 {
        return Ok(());
    }
    let mut outer = start / span;
    while outer * span < end {
        for p in &split.pieces {
            let lo = outer * span + p.lo as usize * inner;
            let hi = outer * span + p.hi as usize * inner;
            let (s, e) = (lo.max(start), hi.min(end));
            if s < e {
                let block = (p.hi - p.lo) as usize * inner;
                let piece_start = outer * block + (s - lo);
                run_chunk(
                    &p.te,
                    piece_start,
                    &mut out[s - start..e - start],
                    operands,
                    exec,
                )?;
            }
        }
        outer += 1;
    }
    Ok(())
}

/// Per-fold value cache for [`Instr::Fold`] execution. A fold's combined
/// value only depends on its `deps` variables, so the cached value stays
/// valid while the odometer walks variables outside that set — the
/// row-invariant folds left by reduction fusion (softmax denominator,
/// layernorm mean/var) are recomputed once per slice instead of once per
/// element. A cache hit returns the exact bits recomputation would
/// produce (same code, same variable values), so caching cannot change
/// any result bit.
pub(crate) struct FoldEval {
    vals: Vec<f32>,
    valid: Vec<bool>,
}

impl FoldEval {
    pub(crate) fn new(n: usize) -> Self {
        FoldEval {
            vals: vec![0.0; n],
            valid: vec![false; n],
        }
    }

    /// Drops cached values of every fold whose dependency set contains
    /// `var` (called when the odometer or an enclosing fold steps it).
    #[inline]
    pub(crate) fn invalidate(&mut self, te: &CompiledTe, var: usize) {
        for (i, f) in te.folds.iter().enumerate() {
            if f.deps.contains(&var) {
                self.valid[i] = false;
            }
        }
    }
}

/// One execution of the body bytecode at the current loop point. Returns
/// the value of the result register. `vars`/`offsets` are mutated only
/// transiently by inline fold loops and are restored before returning.
#[inline]
pub(crate) fn run_body(
    te: &CompiledTe,
    regs: &mut [f32],
    vars: &mut [i64],
    offsets: &mut [i64],
    operands: &[&[f32]],
    fold_eval: &mut FoldEval,
) -> Result<f32, EvalError> {
    run_code(
        te, &te.code, te.result, regs, vars, offsets, operands, fold_eval,
    )
}

/// Executes one code sequence (the TE body or a fold body) and returns the
/// value of `result`.
#[allow(clippy::too_many_arguments)]
fn run_code(
    te: &CompiledTe,
    code: &[Instr],
    result: u32,
    regs: &mut [f32],
    vars: &mut [i64],
    offsets: &mut [i64],
    operands: &[&[f32]],
    fold_eval: &mut FoldEval,
) -> Result<f32, EvalError> {
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Instr::Const { dst, value } => {
                regs[*dst as usize] = *value;
                pc += 1;
            }
            Instr::LoadAffine { dst, access } => {
                let a = &te.affine[*access as usize];
                regs[*dst as usize] = operands[a.operand][offsets[*access as usize] as usize];
                pc += 1;
            }
            Instr::LoadGathered { dst, access } => {
                let a = &te.affine[*access as usize];
                regs[*dst as usize] =
                    operands[a.operand][(offsets[*access as usize] + gathered(a, vars)) as usize];
                pc += 1;
            }
            Instr::LoadGeneric { dst, access } => {
                let g = &te.generic[*access as usize];
                if g.indices.len() != g.dims.len() {
                    return Err(oob(te, g, vars));
                }
                let mut flat = 0i64;
                for (idx, &d) in g.indices.iter().zip(&g.dims) {
                    let i = idx.eval(vars);
                    if !(0..d).contains(&i) {
                        return Err(oob(te, g, vars));
                    }
                    flat = flat * d + i;
                }
                regs[*dst as usize] = operands[g.operand][flat as usize];
                pc += 1;
            }
            Instr::Index { dst, expr } => {
                regs[*dst as usize] = te.index_exprs[*expr as usize].eval(vars) as f32;
                pc += 1;
            }
            Instr::Unary { dst, op, src } => {
                regs[*dst as usize] = op.apply(regs[*src as usize]);
                pc += 1;
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                regs[*dst as usize] = op.apply(regs[*lhs as usize], regs[*rhs as usize]);
                pc += 1;
            }
            Instr::JumpIfNot { cond, target } => {
                if te.conds[*cond as usize].eval(vars) {
                    pc += 1;
                } else {
                    pc = *target as usize;
                }
            }
            Instr::Jump { target } => pc = *target as usize,
            Instr::Fold { dst, fold } => {
                let fi = *fold as usize;
                let value = if fold_eval.valid[fi] {
                    fold_eval.vals[fi]
                } else {
                    let f = &te.folds[fi];
                    let mut acc = f.op.init();
                    for _ in 0..f.extent {
                        // Nested folds that read this binder must be
                        // recomputed each trip (and stale values from a
                        // previous evaluation discarded on the first).
                        fold_eval.invalidate(te, f.var);
                        let v = run_code(
                            te, &f.code, f.result, regs, vars, offsets, operands, fold_eval,
                        )?;
                        acc = f.op.combine(acc, v);
                        vars[f.var] += 1;
                        for (off, a) in offsets.iter_mut().zip(&te.affine) {
                            *off += a.coeffs[f.var];
                        }
                    }
                    // Restore the binder and offsets to their pre-loop state.
                    vars[f.var] = 0;
                    for (off, a) in offsets.iter_mut().zip(&te.affine) {
                        *off -= a.coeffs[f.var] * f.extent;
                    }
                    fold_eval.invalidate(te, f.var);
                    fold_eval.vals[fi] = acc;
                    fold_eval.valid[fi] = true;
                    acc
                };
                regs[*dst as usize] = value;
                pc += 1;
            }
        }
    }
    Ok(regs[result as usize])
}

/// Builds the structured out-of-bounds error for a failing generic access
/// by re-deriving the full evaluated index vector, then delegating to the
/// shared [`EvalError::oob_access`] constructor — the single construction
/// site both evaluator tiers use, so their errors cannot drift.
fn oob(te: &CompiledTe, g: &crate::compile::GenericAccess, vars: &[i64]) -> EvalError {
    EvalError::oob_access(
        &te.name,
        g.operand,
        g.indices.iter().map(|e| e.eval(vars)).collect(),
        &g.dims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::compile::compile_program;
    use crate::interp::{eval_program, random_bindings};
    use crate::program::TeProgram;
    use souffle_tensor::{DType, Shape};

    fn assert_bit_equal(p: &TeProgram, seed: u64) {
        let bindings = random_bindings(p, seed);
        let want = eval_program(p, &bindings).unwrap();
        let got = compile_program(p).eval(&bindings).unwrap();
        assert_eq!(want.len(), got.len());
        for (id, w) in &want {
            let g = &got[id];
            assert_eq!(w.shape(), g.shape());
            for (a, b) in w.data().iter().zip(g.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{id} diverged");
            }
        }
    }

    #[test]
    fn matmul_matches_interpreter() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![5, 7]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![7, 3]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        assert_bit_equal(&p, 11);
    }

    #[test]
    fn padded_conv_matches_interpreter() {
        // conv2d with padding exercises the guarded (generic) load path:
        // the untaken Select branch reads out of bounds and must be skipped.
        let mut p = TeProgram::new();
        let x = p.add_input("X", Shape::new(vec![1, 2, 6, 6]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![3, 2, 3, 3]), DType::F32);
        let y = builders::conv2d(&mut p, "conv", x, w, 1, 1);
        p.mark_output(y);
        p.validate().unwrap();
        assert_bit_equal(&p, 5);
    }

    #[test]
    fn reshape_matches_interpreter() {
        // div/mod access: exercises the non-affine fallback.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![6, 4]), DType::F32);
        let r = builders::reshape(&mut p, "r", a, Shape::new(vec![8, 3]));
        p.mark_output(r);
        assert_bit_equal(&p, 3);
    }

    #[test]
    fn scalar_output_matches_interpreter() {
        use crate::expr::ScalarExpr;
        use crate::te::ReduceOp;
        use souffle_affine::IndexExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 5]), DType::F32);
        let s = p.add_te(
            "sum_all",
            Shape::scalar(),
            DType::F32,
            vec![a],
            vec![4, 5],
            Some(ReduceOp::Sum),
            ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
        );
        p.mark_output(s);
        p.validate().unwrap();
        assert_bit_equal(&p, 17);
    }

    #[test]
    fn large_space_threads_match_serial_result() {
        // Big enough to cross SERIAL_THRESHOLD so the scoped-thread path
        // actually runs (under the default thread count).
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![128, 96]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![96, 32]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        assert_bit_equal(&p, 23);
    }

    #[test]
    fn unbound_and_mismatch_errors_match_interpreter() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![2]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        p.mark_output(e);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.eval(&HashMap::new()).unwrap_err(),
            EvalError::Unbound { .. }
        ));
        let mut b = HashMap::new();
        b.insert(a, Tensor::zeros(Shape::new(vec![3])));
        assert!(matches!(
            cp.eval(&b).unwrap_err(),
            EvalError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn oob_error_matches_interpreter() {
        use crate::expr::ScalarExpr;
        use souffle_affine::IndexExpr;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "bad",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
        );
        p.mark_output(t);
        let bindings = random_bindings(&p, 1);
        let want = eval_program(&p, &bindings).unwrap_err();
        let got = compile_program(&p).eval(&bindings).unwrap_err();
        assert_eq!(want, got);
    }
}
