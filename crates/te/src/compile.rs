//! Compilation of TE programs into flat register bytecode.
//!
//! The naive interpreter in [`crate::interp`] re-walks the `ScalarExpr`
//! tree and re-evaluates every quasi-affine index expression for every
//! output (and reduction) point. This module lowers each TE body **once**
//! into:
//!
//! - a flat, register-based instruction sequence ([`Instr`]) with explicit
//!   jumps for lazily-evaluated `Select` branches (so guarded out-of-bounds
//!   accesses — padding — are never touched, exactly like the naive
//!   interpreter), and
//! - a table of operand accesses, split into **affine** accesses that are
//!   strength-reduced to a base offset plus one flat stride per loop
//!   variable (the paper's §5.2 observation that one-relies-on-one
//!   dependences are quasi-affine maps), and **generic** accesses that
//!   fall back to per-axis index evaluation with the naive interpreter's
//!   bounds checks.
//!
//! An access qualifies for the affine fast path only when interval
//! analysis over the iteration box proves it in-bounds on every axis and
//! every index expression, simplified within that box
//! ([`IndexExpr::simplified_within`], which resolves the flat-index
//! div/mod pairs composed reshapes leave), is affine — or affine plus
//! div/mod terms that each read one variable, tabulated per variable at
//! compile time (a *gathered* access). Everything else (guarded padding
//! reads, div/mod over several variables) takes the generic path, which
//! preserves the taken-branch-only out-of-bounds semantics bit for bit.
//!
//! A body whose guards all compare one output axis linearly against
//! constants — horizontal fusion's concat chain — is split into pieces at
//! the guard cuts ([`crate::piecewise`]); each piece is compiled with only
//! its taken branches, over its own sub-box, and selects its own kernel.
//!
//! Evaluation of the compiled form lives in [`crate::vm`].

use crate::expr::{BinaryOp, Cond, ScalarExpr, UnaryOp};
use crate::kernels::{self, KernelSel, KernelStats};
use crate::piecewise;
use crate::program::{TeProgram, TensorId, TensorInfo};
use crate::te::ReduceOp;
use souffle_affine::IndexExpr;
use souffle_tensor::Shape;

/// One bytecode instruction. Register indices address a flat `f32`
/// register file; `access`, `cond`, and `expr` index the side tables on
/// [`CompiledTe`].
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// `regs[dst] = value`.
    Const { dst: u32, value: f32 },
    /// `regs[dst] = operand_data[access][precomputed_offset[access]]`.
    LoadAffine { dst: u32, access: u32 },
    /// `regs[dst] = operand_data[access][precomputed_offset[access] +
    /// Σ gather.table[vars[gather.var]]]`: an affine access with gathered
    /// terms ([`AffineAccess::gathers`]).
    LoadGathered { dst: u32, access: u32 },
    /// Evaluate the access's index expressions, bounds-check each axis,
    /// and load (or fail with the interpreter's `OutOfBounds` error).
    LoadGeneric { dst: u32, access: u32 },
    /// `regs[dst] = index_exprs[expr].eval(vars) as f32`.
    Index { dst: u32, expr: u32 },
    /// `regs[dst] = op.apply(regs[src])`.
    Unary { dst: u32, op: UnaryOp, src: u32 },
    /// `regs[dst] = op.apply(regs[lhs], regs[rhs])`.
    Binary {
        dst: u32,
        op: BinaryOp,
        lhs: u32,
        rhs: u32,
    },
    /// Jump to `target` when `conds[cond]` is false (enters the `Select`
    /// else-branch); fall through into the then-branch otherwise.
    JumpIfNot { cond: u32, target: u32 },
    /// Unconditional jump (skips the untaken `Select` branch).
    Jump { target: u32 },
    /// `regs[dst] = ` the combined value of `folds[fold]` — an inline
    /// reduction loop over the fold's bound variable, left by reduction
    /// fusion. The VM caches the value per fold and invalidates it when a
    /// variable the fold depends on changes, so a row-invariant fold (the
    /// softmax denominator, layernorm mean/var) is recomputed once per
    /// slice rather than once per element.
    Fold { dst: u32, fold: u32 },
}

/// A strength-reduced operand access: the flat row-major offset into the
/// operand is `base + Σ coeffs[v] · vars[v]`, maintained incrementally by
/// the VM as the loop odometer advances (one add per step instead of a
/// full index-expression re-evaluation).
#[derive(Debug, Clone)]
pub(crate) struct AffineAccess {
    /// Position in the TE's input list.
    pub operand: usize,
    /// Flat offset at `vars = 0`.
    pub base: i64,
    /// Flat stride per loop variable (iteration then reduction vars).
    pub coeffs: Vec<i64>,
    /// Gathered terms: the flat offset is the affine part above plus, for
    /// each entry, `table[vars[var]]` — a compile-time table of one
    /// variable's div/mod contribution. An access qualifies when, within
    /// the box, every axis is affine plus div/mod terms that each read a
    /// single variable, e.g. the head-split read `ctx[k/16, v0, k%16]` or
    /// a window reverse `x[f(v0) + k/4, g(v0), k%4]`. At most one entry per
    /// variable; empty for a plain affine access.
    pub gathers: Vec<Gather>,
}

impl AffineAccess {
    /// Whether the access has a gathered term in variable `var`.
    pub(crate) fn gathers_var(&self, var: usize) -> bool {
        self.gathers.iter().any(|g| g.var == var)
    }
}

/// One gathered term of an [`AffineAccess`]: the flat-offset contribution
/// of variable `var` at each of its values in the box.
#[derive(Debug, Clone)]
pub(crate) struct Gather {
    pub var: usize,
    pub table: Vec<i64>,
}

/// Shape of a TE body recognized at compile time, letting the VM bypass
/// per-instruction dispatch for the bodies that dominate inference
/// workloads (matmul/conv inner products and plain data movement). The
/// specialized paths perform the *same* loads and float ops in the same
/// order as the bytecode would, so results stay bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BodyKind {
    /// Anything else: run the bytecode interpreter loop.
    Generic,
    /// Body is a single in-bounds affine load (copy/transpose/slice,
    /// or a single-operand reduction like sum/max over an axis).
    AffineLoad {
        /// Index into the TE's affine access table.
        access: usize,
    },
    /// Body is `load(a) * load(b)` with both loads affine — the
    /// matmul / conv2d (unpadded) inner body.
    MulAffine {
        /// Affine access id of the left factor.
        a: usize,
        /// Affine access id of the right factor.
        b: usize,
    },
}

/// An inline reduction loop compiled from [`ScalarExpr::Reduce`]: its own
/// code sequence over the bound variable, sharing the enclosing TE's
/// register file and access tables.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFold {
    /// Fold combinator.
    pub op: ReduceOp,
    /// The bound variable (above the TE's free variables).
    pub var: usize,
    /// Trip count: the bound variable ranges over `0..extent`.
    pub extent: i64,
    /// Body bytecode, executed once per trip.
    pub code: Vec<Instr>,
    /// Register holding the body value after one execution of `code`.
    pub result: u32,
    /// Free variables the fold's *value* depends on (binder excluded) —
    /// the VM's cache-invalidation set.
    pub deps: Vec<usize>,
}

/// A generic (non-affine or not provably in-bounds) operand access,
/// evaluated per-axis with runtime bounds checks like the naive
/// interpreter.
#[derive(Debug, Clone)]
pub(crate) struct GenericAccess {
    /// Position in the TE's input list.
    pub operand: usize,
    /// One index expression per operand axis.
    pub indices: Vec<IndexExpr>,
    /// Operand extents, for the per-axis bounds check.
    pub dims: Vec<i64>,
}

/// One TE lowered to bytecode plus its access/condition/index tables.
#[derive(Debug, Clone)]
pub struct CompiledTe {
    pub(crate) name: String,
    pub(crate) output: TensorId,
    pub(crate) out_shape: Shape,
    pub(crate) inputs: Vec<TensorId>,
    pub(crate) reduce: Vec<i64>,
    pub(crate) reduce_op: Option<ReduceOp>,
    pub(crate) code: Vec<Instr>,
    /// Register holding the body value after one execution of `code`.
    pub(crate) result: u32,
    pub(crate) n_regs: usize,
    pub(crate) affine: Vec<AffineAccess>,
    pub(crate) generic: Vec<GenericAccess>,
    pub(crate) conds: Vec<Cond>,
    pub(crate) index_exprs: Vec<IndexExpr>,
    /// Inline reduction loops referenced by [`Instr::Fold`].
    pub(crate) folds: Vec<CompiledFold>,
    /// Iteration vars (output rank) + reduction vars, extended through any
    /// fold binders so `vars`/`coeffs` cover every variable position.
    pub(crate) n_vars: usize,
    /// Recognized body shape for the VM's specialized fast paths.
    pub(crate) kind: BodyKind,
    /// Kernel-tier selection ([`crate::kernels`]): the monomorphized
    /// native inner loop this TE dispatches to, or the bytecode fallback
    /// with its reason. Static per TE, decided here at compile time.
    /// [`KernelSel::Piecewise`] when the TE is split (see `split`).
    pub(crate) tier: KernelSel,
    /// Piecewise split ([`crate::piecewise`]): when set, the body's guard
    /// chain was resolved statically and the TE runs as its pieces; this
    /// TE's own body tables are then empty.
    pub(crate) split: Option<Split>,
}

/// A TE split along one output axis at its guard cuts.
#[derive(Debug, Clone)]
pub(crate) struct Split {
    /// The split output axis.
    pub axis: usize,
    /// Pieces in ascending order, tiling `0..extent` of the axis.
    pub pieces: Vec<Piece>,
}

/// One piece of a split TE: the interval `lo..hi` of the split axis,
/// compiled as a TE of its own over the sub-box with its guards folded
/// and the axis re-based to start at 0. Its flat output is, for every
/// index of the axes before the split axis, one contiguous block of the
/// parent's flat output.
#[derive(Debug, Clone)]
pub struct Piece {
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    pub(crate) te: CompiledTe,
}

impl Piece {
    /// The interval of the split axis this piece covers.
    pub fn range(&self) -> std::ops::Range<i64> {
        self.lo..self.hi
    }

    /// The piece compiled as a TE of its own (its kernel selection,
    /// fallback reason and access tables).
    pub fn te(&self) -> &CompiledTe {
        &self.te
    }
}

impl CompiledTe {
    /// The TE itself, or its pieces when it is split: the units the
    /// runtime dispatches and the kernel census counts.
    pub fn dispatch_units(&self) -> Vec<&CompiledTe> {
        match &self.split {
            Some(s) => s.pieces.iter().map(|p| &p.te).collect(),
            None => vec![self],
        }
    }

    /// The pieces of a split TE (empty when the TE is not split).
    pub fn pieces(&self) -> &[Piece] {
        self.split.as_ref().map_or(&[], |s| &s.pieces)
    }

    /// The output axis a split TE is split along.
    pub fn split_axis(&self) -> Option<usize> {
        self.split.as_ref().map(|s| s.axis)
    }

    /// Number of accesses on the strength-reduced affine fast path
    /// (gathered accesses included), summed over pieces.
    pub fn num_affine_accesses(&self) -> usize {
        self.dispatch_units().iter().map(|t| t.affine.len()).sum()
    }

    /// Number of accesses on the generic (checked) fallback path, summed
    /// over pieces.
    pub fn num_generic_accesses(&self) -> usize {
        self.dispatch_units().iter().map(|t| t.generic.len()).sum()
    }

    /// Bytecode length (a proxy for body size after fusion), summed over
    /// pieces.
    pub fn code_len(&self) -> usize {
        self.dispatch_units().iter().map(|t| t.code.len()).sum()
    }

    /// Name of the specialized kernel this TE dispatches to (`"bytecode"`
    /// when it stays on the VM's instruction loop, `"piecewise"` when it is
    /// split — each of its [`pieces`](Self::pieces) then has its own).
    pub fn kernel(&self) -> &'static str {
        self.tier.name()
    }

    /// Why this TE stays on the bytecode path (`None` when a specialized
    /// kernel was selected, or when the TE is split).
    pub fn kernel_fallback_reason(&self) -> Option<&'static str> {
        match self.tier {
            KernelSel::Fallback(r) => Some(r.name()),
            _ => None,
        }
    }
}

/// A whole TE program lowered to bytecode, ready for repeated evaluation.
///
/// Compile once with [`compile_program`], evaluate many times with
/// [`CompiledProgram::eval`]; the result is bit-identical to
/// [`crate::interp::eval_program`] on the same bindings (enforced by the
/// `evaluator_equivalence` differential suite).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) tensors: Vec<TensorInfo>,
    pub(crate) free: Vec<TensorId>,
    pub(crate) tes: Vec<CompiledTe>,
}

impl CompiledProgram {
    /// The compiled TEs, in definition order.
    pub fn tes(&self) -> &[CompiledTe] {
        &self.tes
    }

    /// Tensors the caller must bind (inputs and weights).
    pub fn free_tensors(&self) -> &[TensorId] {
        &self.free
    }

    pub(crate) fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0]
    }

    /// Static kernel-tier census: how many dispatch units selected each
    /// specialized kernel (and each fallback reason). A unit is a TE, or
    /// one piece of a split TE. Counts are per definition — multiply by
    /// evaluations to get the runtime's dispatch counters.
    pub fn kernel_census(&self) -> KernelStats {
        let mut stats = KernelStats::default();
        for te in &self.tes {
            stats.record_te(te);
        }
        stats
    }
}

/// Which evaluator executes a TE program.
///
/// [`Evaluator::Naive`] is the inspectable tree-walking interpreter — the
/// semantic ground truth. [`Evaluator::Compiled`] is the bytecode VM with
/// strength-reduced affine indexing and chunked threading; it produces
/// bit-identical results (enforced by the `evaluator_equivalence` suite)
/// and is the default everywhere results are only consumed, not inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evaluator {
    /// Tree-walking reference interpreter ([`crate::interp::eval_program`]).
    Naive,
    /// Bytecode VM over [`compile_program`] output (the fast path).
    #[default]
    Compiled,
}

/// Lowers every TE of `program` to bytecode with strength-reduced affine
/// accesses.
///
/// # Panics
///
/// Panics if a body references an operand slot with no backing tensor
/// (the same programs on which the naive interpreter panics; run
/// [`TeProgram::validate`] first to get a structured error instead).
pub fn compile_program(program: &TeProgram) -> CompiledProgram {
    let tes = program
        .te_ids()
        .map(|id| {
            let te = program.te(id);
            let operand_shapes: Vec<&Shape> = te
                .inputs
                .iter()
                .map(|tid| &program.tensor(*tid).shape)
                .collect();
            let sig = TeSig {
                name: &te.name,
                output: te.output,
                inputs: &te.inputs,
                reduce: &te.reduce,
                reduce_op: te.reduce_op,
                operand_shapes: &operand_shapes,
            };
            compile_te(&sig, program.output_shape(id), &te.body)
        })
        .collect();
    CompiledProgram {
        tensors: program.tensors().to_vec(),
        free: program.free_tensors(),
        tes,
    }
}

/// Everything about a TE its compilation needs besides the output box
/// and the body.
struct TeSig<'a> {
    name: &'a str,
    output: TensorId,
    inputs: &'a [TensorId],
    reduce: &'a [i64],
    reduce_op: Option<ReduceOp>,
    operand_shapes: &'a [&'a Shape],
}

impl TeSig<'_> {
    /// A compiled TE over `out_shape` with no body: a split TE's parent,
    /// or the frame `compile_body` fills in.
    fn empty_te(&self, out_shape: Shape) -> CompiledTe {
        CompiledTe {
            name: self.name.to_string(),
            output: self.output,
            out_shape,
            inputs: self.inputs.to_vec(),
            reduce: self.reduce.to_vec(),
            reduce_op: self.reduce_op,
            code: Vec::new(),
            result: 0,
            n_regs: 0,
            affine: Vec::new(),
            generic: Vec::new(),
            conds: Vec::new(),
            index_exprs: Vec::new(),
            folds: Vec::new(),
            n_vars: 0,
            kind: BodyKind::Generic,
            tier: KernelSel::Piecewise,
            split: None,
        }
    }
}

/// Compiles one TE, split into pieces when its guards allow
/// ([`crate::piecewise::split`]). A split with a single piece is just the
/// guard-free body.
fn compile_te(sig: &TeSig, out_shape: &Shape, body: &ScalarExpr) -> CompiledTe {
    let n_free = out_shape.rank() + sig.reduce.len();
    // Fold binders (reduction fusion) live above the free variables; give
    // them var/coeff slots and interval bounds so strength reduction covers
    // accesses inside fold bodies too.
    let n_vars = n_free.max(body.max_var().map_or(0, |m| m + 1));
    let mut var_bounds: Vec<i64> = out_shape.dims().to_vec();
    var_bounds.extend_from_slice(sig.reduce);
    var_bounds.resize(n_vars, 1);
    for (var, extent) in body.collect_folds() {
        if var >= n_free {
            var_bounds[var] = var_bounds[var].max(extent.max(1));
        }
    }
    let box_bounds: Vec<(i64, i64)> = var_bounds.iter().map(|&b| (0, b - 1)).collect();
    // A TE too small for any kernel keeps its guards: every piece would
    // stay on bytecode too, and compiling the pieces costs more than the
    // guard evaluations they save over so few points.
    let split = if kernels::is_small(out_shape, sig.reduce) {
        None
    } else {
        piecewise::split(body, out_shape.dims())
    };
    let Some((axis, ranges)) = split else {
        return compile_body(sig, out_shape.clone(), body, box_bounds, None);
    };
    let mut pieces: Vec<Piece> = ranges
        .into_iter()
        .map(|r| {
            let mut dims = out_shape.dims().to_vec();
            dims[axis] = r.end - r.start;
            let mut piece_box = box_bounds.clone();
            piece_box[axis] = (r.start, r.end - 1);
            Piece {
                te: compile_body(
                    sig,
                    Shape::new(dims),
                    body,
                    piece_box,
                    Some((axis, r.start)),
                ),
                lo: r.start,
                hi: r.end,
            }
        })
        .collect();
    if pieces.len() == 1 {
        return pieces.remove(0).te; // guards constant over the whole box
    }
    let mut te = sig.empty_te(out_shape.clone());
    te.split = Some(Split { axis, pieces });
    te
}

/// Lowers one body to bytecode and selects its kernel. `box_bounds` holds
/// each variable's inclusive range. A piece passes `piece = Some((axis,
/// lo))`: every guard of the body reads only `axis` and is constant on the
/// piece, so only the branch taken at `v = lo` is emitted; the body is
/// still written over the parent's variables, where the piece's axis
/// variable reads `v + lo`.
fn compile_body(
    sig: &TeSig,
    out_shape: Shape,
    body: &ScalarExpr,
    box_bounds: Vec<(i64, i64)>,
    piece: Option<(usize, i64)>,
) -> CompiledTe {
    let n_vars = box_bounds.len();
    let mut c = BodyCompiler {
        operand_shapes: sig.operand_shapes,
        n_vars,
        box_bounds,
        guards_at: piece.map(|(axis, lo)| {
            let mut vars = vec![0i64; axis + 1];
            vars[axis] = lo;
            vars
        }),
        origin: piece.filter(|&(_, lo)| lo != 0),
        code: Vec::new(),
        next_reg: 0,
        affine: Vec::new(),
        generic: Vec::new(),
        affine_keys: Vec::new(),
        generic_keys: Vec::new(),
        conds: Vec::new(),
        index_exprs: Vec::new(),
        folds: Vec::new(),
    };
    let result = c.fresh();
    c.compile_into(body, result);
    let mut te = sig.empty_te(out_shape);
    te.kind = classify_body(&c.code, result);
    te.code = c.code;
    te.result = result;
    te.n_regs = c.next_reg as usize;
    te.affine = c.affine;
    te.generic = c.generic;
    te.conds = c.conds;
    te.index_exprs = c.index_exprs;
    te.folds = c.folds;
    te.n_vars = n_vars;
    te.tier = kernels::select(&te);
    te
}

/// Pattern-matches the emitted bytecode against the shapes the VM
/// specializes. Matching on the *code* (not the source tree) means the
/// recognized form is exactly what the interpreter loop would execute.
fn classify_body(code: &[Instr], result: u32) -> BodyKind {
    // Either factor of a product may be a gathered access.
    let factor = |i: &Instr| match *i {
        Instr::LoadAffine { dst, access } | Instr::LoadGathered { dst, access } => {
            Some((dst, access as usize))
        }
        _ => None,
    };
    match code {
        [Instr::LoadAffine { dst, access }] if *dst == result => BodyKind::AffineLoad {
            access: *access as usize,
        },
        [x, y, Instr::Binary {
            dst,
            op: BinaryOp::Mul,
            lhs,
            rhs,
        }] if *dst == result => match (factor(x), factor(y)) {
            (Some((d1, a)), Some((d2, b))) if *lhs == d1 && *rhs == d2 => {
                BodyKind::MulAffine { a, b }
            }
            _ => BodyKind::Generic,
        },
        _ => BodyKind::Generic,
    }
}

struct BodyCompiler<'a> {
    operand_shapes: &'a [&'a Shape],
    n_vars: usize,
    /// Inclusive range per variable: the box accesses are simplified and
    /// proven in-bounds over. For a piece, its axis covers `lo..hi` of
    /// the parent's variable.
    box_bounds: Vec<(i64, i64)>,
    /// A piece's guard assignment (its first point on the split axis):
    /// each `Select` emits only the branch taken there.
    guards_at: Option<Vec<i64>>,
    /// A piece's `(axis, lo)` with `lo > 0`: index expressions read the
    /// parent's variable, the piece's own runs from 0, so affine offsets
    /// absorb `lo` and other index expressions are re-based.
    origin: Option<(usize, i64)>,
    code: Vec<Instr>,
    next_reg: u32,
    affine: Vec<AffineAccess>,
    generic: Vec<GenericAccess>,
    affine_keys: Vec<(usize, &'a [IndexExpr])>,
    generic_keys: Vec<(usize, &'a [IndexExpr])>,
    conds: Vec<Cond>,
    index_exprs: Vec<IndexExpr>,
    folds: Vec<CompiledFold>,
}

impl<'a> BodyCompiler<'a> {
    /// `e` over a piece's own variables: `v_axis + lo` for `v_axis`.
    fn rebased(&self, e: &IndexExpr) -> IndexExpr {
        let Some((axis, lo)) = self.origin else {
            return e.clone();
        };
        let n = e.max_var().map_or(0, |m| m + 1).max(axis + 1);
        let mut subs: Vec<IndexExpr> = (0..n).map(IndexExpr::Var).collect();
        subs[axis] = IndexExpr::Add(
            Box::new(IndexExpr::Var(axis)),
            Box::new(IndexExpr::Const(lo)),
        );
        e.substitute(&subs)
    }

    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Emits code leaving the value of `e` in register `dst`. The emission
    /// order mirrors the naive interpreter's evaluation order exactly, so
    /// floating-point results are bit-identical.
    fn compile_into(&mut self, e: &'a ScalarExpr, dst: u32) {
        match e {
            ScalarExpr::Const(value) => self.code.push(Instr::Const { dst, value: *value }),
            ScalarExpr::IndexValue(expr) => {
                let id = self.index_exprs.len() as u32;
                let expr = self.rebased(expr);
                self.index_exprs.push(expr);
                self.code.push(Instr::Index { dst, expr: id });
            }
            ScalarExpr::Input { operand, indices } => self.compile_load(*operand, indices, dst),
            ScalarExpr::Unary(op, a) => {
                let src = self.fresh();
                self.compile_into(a, src);
                self.code.push(Instr::Unary { dst, op: *op, src });
            }
            ScalarExpr::Binary(op, a, b) => {
                let lhs = self.fresh();
                self.compile_into(a, lhs);
                let rhs = self.fresh();
                self.compile_into(b, rhs);
                self.code.push(Instr::Binary {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                });
            }
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => {
                if let Some(at) = &self.guards_at {
                    let branch = if cond.eval(at) { on_true } else { on_false };
                    return self.compile_into(branch, dst);
                }
                let cid = self.conds.len() as u32;
                self.conds.push(cond.clone());
                let jump_to_else = self.code.len();
                self.code.push(Instr::JumpIfNot {
                    cond: cid,
                    target: 0, // patched below
                });
                self.compile_into(on_true, dst);
                let jump_to_end = self.code.len();
                self.code.push(Instr::Jump { target: 0 }); // patched below
                let else_start = self.code.len() as u32;
                if let Instr::JumpIfNot { target, .. } = &mut self.code[jump_to_else] {
                    *target = else_start;
                }
                self.compile_into(on_false, dst);
                let end = self.code.len() as u32;
                if let Instr::Jump { target } = &mut self.code[jump_to_end] {
                    *target = end;
                }
            }
            ScalarExpr::Reduce {
                op,
                var,
                extent,
                body,
            } => {
                // The fold body compiles into its own code sequence (the VM
                // loops it over the binder), sharing the enclosing TE's
                // register file and access tables.
                let result = self.fresh();
                let outer = std::mem::take(&mut self.code);
                self.compile_into(body, result);
                let code = std::mem::replace(&mut self.code, outer);
                let id = self.folds.len() as u32;
                self.folds.push(CompiledFold {
                    op: *op,
                    var: *var,
                    extent: *extent,
                    code,
                    result,
                    deps: e.free_vars(),
                });
                self.code.push(Instr::Fold { dst, fold: id });
            }
        }
    }

    fn compile_load(&mut self, operand: usize, indices: &'a [IndexExpr], dst: u32) {
        match self.try_affine(operand, indices) {
            Some(access) if !self.affine[access as usize].gathers.is_empty() => {
                self.code.push(Instr::LoadGathered { dst, access })
            }
            Some(access) => self.code.push(Instr::LoadAffine { dst, access }),
            None => {
                let access = self.intern_generic(operand, indices);
                self.code.push(Instr::LoadGeneric { dst, access });
            }
        }
    }

    /// Strength-reduces the access if interval analysis over the iteration
    /// box proves it in-bounds on every axis and every index expression,
    /// simplified within the box ([`IndexExpr::simplified_within`]), is
    /// affine — or affine plus div/mod terms that each read one variable,
    /// which are tabulated over that variable's range ([`Gather`]).
    /// Returns the interned access id.
    fn try_affine(&mut self, operand: usize, indices: &'a [IndexExpr]) -> Option<u32> {
        if let Some(id) = self
            .affine_keys
            .iter()
            .position(|(op, ix)| *op == operand && *ix == indices)
        {
            return Some(id as u32);
        }
        let shape = self
            .operand_shapes
            .get(operand)
            .unwrap_or_else(|| panic!("operand slot {operand} has no backing tensor"));
        if indices.len() != shape.rank() {
            return None; // rank mismatch: fail at runtime like the interpreter
        }
        let mut base = 0i64;
        let mut coeffs = vec![0i64; self.n_vars];
        let mut gathers: Vec<Gather> = Vec::new();
        let mut stride = 1i64;
        for (axis, idx) in indices.iter().enumerate().rev() {
            let dim = shape.dim(axis);
            let simplified = (!idx.is_affine()).then(|| idx.simplified_within(&self.box_bounds));
            let idx = simplified.as_ref().unwrap_or(idx);
            if idx.is_affine() {
                let (lo, hi) = idx.interval(&self.box_bounds);
                if lo < 0 || hi >= dim {
                    return None; // possibly out of bounds: keep the checked path
                }
                idx.add_linear_to(stride, &mut coeffs, &mut base)?;
            } else {
                self.gather_axis(idx, dim, stride, &mut coeffs, &mut base, &mut gathers)?;
            }
            stride *= dim;
        }
        if let Some((axis, lo)) = self.origin {
            // The piece's variable is the parent's minus `lo`.
            base += coeffs[axis] * lo;
        }
        let id = self.affine.len() as u32;
        self.affine.push(AffineAccess {
            operand,
            base,
            coeffs,
            gathers,
        });
        self.affine_keys.push((operand, indices));
        Some(id)
    }

    /// Adds `stride ·` one non-affine axis index to an access: its affine
    /// terms to `coeffs`/`base`, its div/mod terms to per-variable tables,
    /// indexed by the variable's value counted from the box's low end.
    /// `None` when a div/mod term reads two variables, or when the axis may
    /// leave `0..dim` on the box (the range of each variable's terms is
    /// exact; their sum with the affine interval is conservative).
    fn gather_axis(
        &self,
        idx: &IndexExpr,
        dim: i64,
        stride: i64,
        coeffs: &mut [i64],
        base: &mut i64,
        gathers: &mut Vec<Gather>,
    ) -> Option<()> {
        let mut lin = vec![0i64; self.n_vars];
        let mut constant = 0i64;
        let mut terms: Vec<(usize, i64, &IndexExpr)> = Vec::new();
        separate(idx, 1, &mut lin, &mut constant, &mut terms)?;
        let (mut lo, mut hi) = (constant, constant);
        for (v, &c) in lin.iter().enumerate() {
            let (a, b) = self.box_bounds[v];
            lo += (c * a).min(c * b);
            hi += (c * a).max(c * b);
        }
        let mut tables: Vec<(usize, Vec<i64>)> = Vec::new();
        for &(v, factor, term) in &terms {
            let (first, last) = self.box_bounds[v];
            if last - first >= MAX_GATHER_EXTENT {
                return None; // a table this long costs more than checked loads
            }
            let mut vars = vec![0i64; v + 1];
            let values: Vec<i64> = (first..=last)
                .map(|x| {
                    vars[v] = x;
                    factor * term.eval(&vars)
                })
                .collect();
            match tables.iter_mut().find(|(tv, _)| *tv == v) {
                Some((_, t)) => t.iter_mut().zip(&values).for_each(|(a, b)| *a += b),
                None => tables.push((v, values)),
            }
        }
        for (_, t) in &tables {
            lo += t.iter().copied().min().unwrap_or(0);
            hi += t.iter().copied().max().unwrap_or(0);
        }
        if lo < 0 || hi >= dim {
            return None;
        }
        for (c, l) in coeffs.iter_mut().zip(&lin) {
            *c += stride * l;
        }
        *base += stride * constant;
        for (v, t) in tables {
            let scaled = t.iter().map(|x| stride * x);
            match gathers.iter_mut().find(|g| g.var == v) {
                Some(g) => g.table.iter_mut().zip(scaled).for_each(|(a, b)| *a += b),
                None => gathers.push(Gather {
                    var: v,
                    table: scaled.collect(),
                }),
            }
        }
        Some(())
    }

    fn intern_generic(&mut self, operand: usize, indices: &'a [IndexExpr]) -> u32 {
        if let Some(id) = self
            .generic_keys
            .iter()
            .position(|(op, ix)| *op == operand && *ix == indices)
        {
            return id as u32;
        }
        let dims = self
            .operand_shapes
            .get(operand)
            .map(|s| s.dims().to_vec())
            .unwrap_or_else(|| panic!("operand slot {operand} has no backing tensor"));
        let id = self.generic.len() as u32;
        self.generic.push(GenericAccess {
            operand,
            indices: indices.iter().map(|e| self.rebased(e)).collect(),
            dims,
        });
        self.generic_keys.push((operand, indices));
        id
    }
}

/// Longest per-variable table a gathered access may carry.
const MAX_GATHER_EXTENT: i64 = 1 << 16;

/// Splits `factor · e` into its affine part (added to `coeffs` and
/// `constant`) and its div/mod terms, each recorded with the one variable
/// it reads. `None` when a div/mod term reads two or more variables.
fn separate<'e>(
    e: &'e IndexExpr,
    factor: i64,
    coeffs: &mut [i64],
    constant: &mut i64,
    terms: &mut Vec<(usize, i64, &'e IndexExpr)>,
) -> Option<()> {
    match e {
        IndexExpr::Add(a, b) => {
            separate(a, factor, coeffs, constant, terms)?;
            separate(b, factor, coeffs, constant, terms)
        }
        IndexExpr::Sub(a, b) => {
            separate(a, factor, coeffs, constant, terms)?;
            separate(b, -factor, coeffs, constant, terms)
        }
        IndexExpr::Mul(a, k) => separate(a, factor * k, coeffs, constant, terms),
        IndexExpr::Var(_) | IndexExpr::Const(_) => e.add_linear_to(factor, coeffs, constant),
        IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => {
            let mut var = None;
            let mut single = true;
            e.for_each_var(&mut |v| single &= *var.get_or_insert(v) == v);
            match var {
                Some(v) if single && v < coeffs.len() => terms.push((v, factor, e)),
                Some(_) => return None,
                None => *constant += factor * e.eval(&[]),
            }
            Some(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::expr::{CmpOp, Cond};
    use souffle_tensor::DType;

    #[test]
    fn matmul_accesses_are_affine() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![8, 3]), DType::F32);
        let c = builders::matmul(&mut p, "mm", a, b);
        p.mark_output(c);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.num_affine_accesses(), 2);
        assert_eq!(te.num_generic_accesses(), 0);
        // A[i, k]: strides (8, 1), so flat = 8*v0 + v2.
        assert_eq!(te.affine[0].base, 0);
        assert_eq!(te.affine[0].coeffs, vec![8, 0, 1]);
        // B[k, j]: strides (3, 1), so flat = 3*v2 + v1.
        assert_eq!(te.affine[1].coeffs, vec![0, 1, 3]);
    }

    #[test]
    fn reshape_access_falls_back_to_generic() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 6]), DType::F32);
        let r = builders::reshape(&mut p, "r", a, Shape::new(vec![3, 8]));
        p.mark_output(r);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.num_affine_accesses(), 0);
        assert_eq!(te.num_generic_accesses(), 1, "div/mod must not be affine");
    }

    #[test]
    fn guarded_oob_access_falls_back_to_generic() {
        // Padded read, in bounds only on the taken branch. The guard reads
        // two variables (like a conv's padding guard), so it is not split
        // into pieces and stays lazy bytecode.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "padded",
            Shape::new(vec![8, 2]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(
                    CmpOp::Lt,
                    IndexExpr::var(0).add(IndexExpr::var(1)),
                    IndexExpr::constant(4),
                ),
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::Const(0.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert!(te.pieces().is_empty());
        assert_eq!(te.num_affine_accesses(), 0);
        assert_eq!(te.num_generic_accesses(), 1);
        // Select lowers to a conditional jump over the untaken branch.
        assert!(te.code.iter().any(|i| matches!(i, Instr::JumpIfNot { .. })));
        assert!(te.code.iter().any(|i| matches!(i, Instr::Jump { .. })));
    }

    #[test]
    fn iteration_guard_splits_into_guard_free_pieces() {
        // A padded read with a guard on the iteration variable alone: the
        // taken branch is constant on [0, 256) and on [256, 512), so the TE
        // runs as two pieces, and the read is proven in bounds on its piece.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![256]), DType::F32);
        let t = p.add_te(
            "padded",
            Shape::new(vec![512]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(256)),
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::Const(0.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.kernel(), "piecewise");
        assert_eq!(te.split_axis(), Some(0));
        let ranges: Vec<_> = te.pieces().iter().map(Piece::range).collect();
        assert_eq!(ranges, vec![0..256, 256..512]);
        assert_eq!(te.num_affine_accesses(), 1);
        assert_eq!(te.num_generic_accesses(), 0);
        for piece in te.pieces() {
            assert!(!piece
                .te()
                .code
                .iter()
                .any(|i| matches!(i, Instr::JumpIfNot { .. })));
        }
        // Each piece is one dispatch unit of the census: a row copy and a
        // constant fill.
        let census = cp.kernel_census();
        assert_eq!(
            (census.copy_rows, census.ew_tile, census.bytecode()),
            (1, 1, 0)
        );
    }

    #[test]
    fn small_tes_keep_their_guards() {
        // Below the small-TE cutoff every piece would stay on bytecode, so
        // the guard chain is not split.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let t = p.add_te(
            "padded",
            Shape::new(vec![8]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::select(
                Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(4)),
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::Const(0.0),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert!(te.pieces().is_empty());
        assert_eq!(te.kernel_fallback_reason(), Some("small_te"));
    }

    #[test]
    fn head_split_read_becomes_a_gathered_operand() {
        // proj[v0, v1] = Σ_k ctx[((4·v0 + k)/2) % 2, (4·v0 + k)/4, (4·v0 + k) % 2] · W[k, v1]:
        // within the box the row axis is v0, the others depend on k alone.
        let mut p = TeProgram::new();
        let ctx = p.add_input("ctx", Shape::new(vec![2, 8, 2]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![4, 32]), DType::F32);
        let flat = IndexExpr::var(0).mul(4).add(IndexExpr::var(2));
        let t = p.add_te(
            "proj",
            Shape::new(vec![8, 32]),
            DType::F32,
            vec![ctx, w],
            vec![4],
            Some(ReduceOp::Sum),
            ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::input(
                    0,
                    vec![
                        flat.clone().floor_div(2).modulo(2),
                        flat.clone().floor_div(4),
                        flat.modulo(2),
                    ],
                ),
                ScalarExpr::input(1, vec![IndexExpr::var(2), IndexExpr::var(1)]),
            ),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        let te = &cp.tes()[0];
        assert_eq!(te.num_generic_accesses(), 0);
        // ctx strides (16, 2, 1): offset = 2·v0 + [0, 1, 16, 17][k].
        let ctx = &te.affine[0];
        assert_eq!(ctx.coeffs, vec![2, 0, 0]);
        assert_eq!(ctx.gathers.len(), 1);
        assert_eq!(
            (ctx.gathers[0].var, ctx.gathers[0].table.as_slice()),
            (2, &[0, 1, 16, 17][..])
        );
        assert_eq!(te.kind, BodyKind::MulAffine { a: 0, b: 1 });
        assert_eq!(te.kernel(), "row_dot");
    }

    #[test]
    fn body_kinds_are_classified() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = p.add_weight("B", Shape::new(vec![8, 3]), DType::F32);
        let mm = builders::matmul(&mut p, "mm", a, b);
        let t = builders::transpose(&mut p, "t", mm, &[1, 0]);
        let r = builders::relu(&mut p, "act", t);
        p.mark_output(r);
        let cp = compile_program(&p);
        assert!(matches!(
            cp.tes()[0].kind,
            BodyKind::MulAffine { a: 0, b: 1 }
        ));
        assert!(matches!(
            cp.tes()[1].kind,
            BodyKind::AffineLoad { access: 0 }
        ));
        assert!(matches!(cp.tes()[2].kind, BodyKind::Generic));
    }

    #[test]
    fn repeated_accesses_are_interned_once() {
        // x * x: the same access appears twice in the body but once in the
        // access table.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4]), DType::F32);
        let x = ScalarExpr::input(0, vec![IndexExpr::var(0)]);
        let t = p.add_te(
            "sq",
            Shape::new(vec![4]),
            DType::F32,
            vec![a],
            vec![],
            None,
            ScalarExpr::binary(BinaryOp::Mul, x.clone(), x),
        );
        p.mark_output(t);
        let cp = compile_program(&p);
        assert_eq!(cp.tes()[0].num_affine_accesses(), 1);
    }
}
