//! Pass 5: per-stage translation validation.
//!
//! Every transform stage of the pipeline (horizontal, vertical,
//! reduction-fusion, batching, schedule-merge) claims to preserve program
//! semantics. The runtime differential oracle samples that claim on
//! concrete inputs; this pass *proves* it symbolically, per stage, and
//! emits a [`Certificate`] recording what was proven.
//!
//! # Method
//!
//! For a transform stage with `before`/`after` TE programs (sharing one
//! tensor-id space — the transforms copy the tensor table), the certifier
//! compares, for every tensor produced on both sides, the *unfolded*
//! definition of that tensor:
//!
//! 1. operand slots are remapped to tensor ids, so accesses compare
//!    across programs whose TEs hold different input lists;
//! 2. producers that exist on only one side (a vertically inlined
//!    element-wise TE, a fused-away reduction, a horizontal pack tensor)
//!    are substituted through — a standalone reduction becomes an
//!    explicit fold with a globally fresh binder, mirroring the fold the
//!    reduction-fusion rewrite creates;
//! 3. both unfolded bodies are canonicalized
//!    ([`souffle_te::canon::canonicalize`]) under the output's variable
//!    bounds, which resolves the horizontal pack's `v0 < cut` guards,
//!    normalizes affine index arithmetic, renames fold binders to De
//!    Bruijn positions, and flattens sums-of-products;
//! 4. structural equality of the canonical forms is the proof. A
//!    mismatch is classified by lockstep descent into a specific `SV21x`
//!    code: diverging access maps (`SV212`), fold odometers (`SV213`),
//!    domain guards (`SV211`), or a general mismatch (`SV210`).
//!
//! Canonical-form equality proves equivalence in real arithmetic
//! (reassociation of `Add`/`Mul` chains is licensed). The *bit-exactness*
//! claims the pipeline makes are narrower and proven separately: the
//! recorded [`Rewrite::ReductionFused`] entries are checked against both
//! programs so the inline fold's iteration odometer — ascending binder
//! over the same extent with the same combinator — is exactly the
//! standalone reduction's, and batching is validated by a lockstep
//! structural walk (`v_i → v_{i+1}` plus a leading `v0` on batched
//! accesses) that licenses no reassociation at all.
//!
//! Kernel lowering (schedule merging) rearranges execution rather than
//! arithmetic, so its check is a dataflow validation of the merged
//! instruction streams: every load is backed by a program input or an
//! earlier store, every program output is stored, and no tensor is
//! written by two different kernels (`SV214`).

use crate::diag::{Code, Diagnostics, Loc};
use souffle_affine::{IndexExpr, IndexMap};
use souffle_kernel::{Instr, Kernel};
use souffle_te::canon::canonicalize;
use souffle_te::{
    CmpOp, Cond, ReduceOp, Rewrite, RewriteLog, ScalarExpr, TeProgram, TensorId, TensorKind,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Environment variable overriding the pipeline's certify stage:
/// `on`/`1`/`true` forces it, `off`/`0`/`false` disables it. An explicit
/// `SouffleOptions::certify` beats the environment; unset means the
/// debug-build default.
pub const CERTIFY_ENV: &str = "SOUFFLE_CERTIFY";

/// Whether certification should run absent an explicit option: the env
/// override if present, else on in debug builds (mirroring `verify`).
pub fn certify_default() -> bool {
    souffle_te::env_switch(CERTIFY_ENV).unwrap_or(cfg!(debug_assertions))
}

/// Unfolded bodies beyond this node count are not canonicalized; the
/// obligation is recorded as residual (`SV215` warning) instead of
/// risking pathological blowup. Far above anything the models produce.
const MAX_UNFOLD_NODES: usize = 100_000;

/// What one certification run proved. Attached to `Compiled` and printed
/// by `Souffle::report()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The stage this certificate covers (`"vertical"`, `"batch"`, …).
    pub stage: String,
    /// Tensor definitions (or kernel stages, for schedule-merge) proven
    /// equivalent across the stage.
    pub matched: usize,
    /// Access-map identities proven (matched accesses in canonical
    /// bodies, recorded view maps, validated kernel loads).
    pub proven_maps: usize,
    /// Fold iteration odometers proven identical to their standalone
    /// reductions.
    pub folds_proven: usize,
    /// Obligations left unproven (each also surfaced as an `SV215`
    /// warning). Zero on every paper model.
    pub residual: usize,
}

impl Certificate {
    fn new(stage: &str) -> Self {
        Certificate {
            stage: stage.to_string(),
            matched: 0,
            proven_maps: 0,
            folds_proven: 0,
            residual: 0,
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certify[{}]: {} pairs, {} access maps, {} folds, {} residual",
            self.stage, self.matched, self.proven_maps, self.folds_proven, self.residual
        )
    }
}

/// Certifies one TE-level transform stage: proves every tensor produced
/// by both programs is defined by semantically equal expressions, and
/// replays the stage's recorded rewrites against both sides.
pub fn certify_transform(
    before: &TeProgram,
    after: &TeProgram,
    stage: &str,
    log: &RewriteLog,
) -> (Certificate, Diagnostics) {
    let mut cert = Certificate::new(stage);
    let mut diags = Diagnostics::new();

    let prod_b = producers(before);
    let prod_a = producers(after);
    let only_b: HashSet<TensorId> = prod_b
        .keys()
        .filter(|t| !prod_a.contains_key(t))
        .copied()
        .collect();
    let only_a: HashSet<TensorId> = prod_a
        .keys()
        .filter(|t| !prod_b.contains_key(t))
        .copied()
        .collect();

    let proven_by_log = check_log(before, after, &prod_b, &prod_a, log, &mut cert, &mut diags);

    let mut pairs: Vec<TensorId> = prod_b
        .keys()
        .filter(|t| prod_a.contains_key(t))
        .copied()
        .collect();
    pairs.sort();

    // Tensors whose defining TE is *syntactically* identical across the
    // stage (in tensor-id operand space) are proven equal by reflexivity
    // and stay opaque atoms; everything else must be unfolded through.
    let unchanged = |t: TensorId| {
        let tb = &before.tes()[prod_b[&t]];
        let ta = &after.tes()[prod_a[&t]];
        tb.reduce == ta.reduce
            && tb.reduce_op == ta.reduce_op
            && bodies_eq(&tb.body, &tb.inputs, &ta.body, &ta.inputs)
    };

    // Fresh binders for fold-ified reductions start above every variable
    // either program mentions.
    let mut fresh = fresh_base(before).max(fresh_base(after));

    // Shallow unfolders substitute through one-sided producers only:
    // tensors produced on both sides are opaque atoms, each proven equal
    // by its own pair (sound by induction over the acyclic program).
    let mut ub = Unfolder::new(before, only_b, &prod_b, false);
    let mut ua = Unfolder::new(after, only_a, &prod_a, false);
    // Deep unfolders (built lazily, only if a shallow comparison fails)
    // substitute through *every* produced tensor — the exact but
    // potentially large full unfolding, capped by the node budget.
    let mut deep: Option<(Unfolder, Unfolder)> = None;

    for t in pairs {
        let info = before.tensor(t);
        let loc = || Loc::Tensor {
            tensor: t,
            name: info.name.clone(),
        };
        if proven_by_log.contains(&t) {
            // Already proven (and counted) by the recorded-rewrite replay.
            continue;
        }
        if unchanged(t) {
            // Identical definitions over identical atoms.
            cert.matched += 1;
            cert.proven_maps += before.tes()[prod_b[&t]].body.accesses().len();
            continue;
        }
        let bounds: Vec<(i64, i64)> = info.shape.dims().iter().map(|&d| (0, d - 1)).collect();

        ub.overflow = false;
        ua.overflow = false;
        let body_b = ub.foldified(t, &mut fresh);
        let body_a = ua.foldified(t, &mut fresh);
        if !ub.overflow && !ua.overflow && body_b == body_a {
            // Syntactically identical unfoldings need no canonicalization.
            cert.matched += 1;
            cert.proven_maps += body_b.accesses().len();
            continue;
        }
        let mut outcome = if ub.overflow || ua.overflow {
            None
        } else {
            Some(canon_pair(&body_b, &body_a, &bounds))
        };

        if !matches!(outcome, Some((ref cb, ref ca)) if cb == ca) {
            // The modular proof failed (an atom's definition moved, or the
            // budget tripped): retry with full unfolding to free tensors.
            let (db, da) = deep.get_or_insert_with(|| {
                (
                    Unfolder::new(before, HashSet::new(), &prod_b, true),
                    Unfolder::new(after, HashSet::new(), &prod_a, true),
                )
            });
            db.overflow = false;
            da.overflow = false;
            let body_b = db.foldified(t, &mut fresh);
            let body_a = da.foldified(t, &mut fresh);
            outcome = if db.overflow || da.overflow {
                None
            } else {
                Some(canon_pair(&body_b, &body_a, &bounds))
            };
        }

        match outcome {
            None => {
                cert.residual += 1;
                diags.push(
                    Code::CertifyResidual,
                    loc(),
                    format!(
                        "{stage}: unfolded definition of `{}` exceeds {MAX_UNFOLD_NODES} \
                         nodes; equivalence not checked",
                        info.name
                    ),
                );
            }
            Some((cb, ca)) if cb == ca => {
                cert.matched += 1;
                cert.proven_maps += cb.accesses().len();
            }
            Some((cb, ca)) => {
                let (code, why) = classify(&cb, &ca);
                diags.push(
                    code,
                    loc(),
                    format!(
                        "{stage}: canonical definitions of `{}` diverge: {why}",
                        info.name
                    ),
                );
            }
        }
    }
    diags.tag_stage(stage);
    (cert, diags)
}

/// Canonicalizes both sides of a pair under shared bounds and a shared
/// De Bruijn base.
fn canon_pair(
    body_b: &ScalarExpr,
    body_a: &ScalarExpr,
    bounds: &[(i64, i64)],
) -> (ScalarExpr, ScalarExpr) {
    let base = 1 + body_b
        .max_var()
        .unwrap_or(0)
        .max(body_a.max_var().unwrap_or(0))
        .max(bounds.len());
    (
        canonicalize(body_b, bounds, base),
        canonicalize(body_a, bounds, base),
    )
}

/// Certifies the batch rewrite by an independent lockstep walk: the
/// batched program must be exactly the original with every variable
/// shifted up by one, a leading `v0` on every non-weight access, and a
/// leading batch extent on every non-weight shape — the construction
/// under which batch slices are bit-identical to per-request runs.
pub fn certify_batch(
    original: &TeProgram,
    batched: &TeProgram,
    batch: i64,
) -> (Certificate, Diagnostics) {
    let mut cert = Certificate::new("batch");
    let mut diags = Diagnostics::new();
    if original.num_tes() != batched.num_tes() || original.num_tensors() != batched.num_tensors() {
        diags.push(
            Code::CertifyMismatch,
            Loc::Program,
            format!(
                "batch: program shape changed: {} TEs / {} tensors -> {} TEs / {} tensors",
                original.num_tes(),
                original.num_tensors(),
                batched.num_tes(),
                batched.num_tensors()
            ),
        );
        diags.tag_stage("batch");
        return (cert, diags);
    }
    for (o, b) in original.tensors().iter().zip(batched.tensors()) {
        let ok = if o.kind == TensorKind::Weight {
            b.shape == o.shape
        } else {
            b.shape.rank() == o.shape.rank() + 1
                && b.shape.dim(0) == batch
                && &b.shape.dims()[1..] == o.shape.dims()
        };
        if o.kind != b.kind || !ok {
            diags.push(
                Code::CertifyDomain,
                Loc::Tensor {
                    tensor: TensorId(
                        original
                            .tensors()
                            .iter()
                            .position(|t| std::ptr::eq(t, o))
                            .unwrap_or(0),
                    ),
                    name: o.name.clone(),
                },
                format!(
                    "batch: tensor `{}` must gain a leading batch axis of {batch} (weights keep \
                     shape): {} -> {}",
                    o.name, o.shape, b.shape
                ),
            );
        }
    }
    for (te_o, te_b) in original.tes().iter().zip(batched.tes()) {
        let loc = || Loc::Tensor {
            tensor: te_o.output,
            name: original.tensor(te_o.output).name.clone(),
        };
        if te_o.output != te_b.output || te_o.inputs != te_b.inputs {
            diags.push(
                Code::CertifyMismatch,
                loc(),
                format!("batch: operand wiring of `{}` changed", te_o.name),
            );
            continue;
        }
        if te_o.reduce != te_b.reduce || te_o.reduce_op != te_b.reduce_op {
            diags.push(
                Code::CertifyOdometer,
                loc(),
                format!("batch: reduction signature of `{}` changed", te_o.name),
            );
            continue;
        }
        let weight = |op: usize| original.tensor(te_o.inputs[op]).kind == TensorKind::Weight;
        match expect_batched(&te_o.body, &te_b.body, &weight) {
            Ok(stats) => {
                cert.matched += 1;
                cert.proven_maps += stats.0;
                cert.folds_proven += stats.1;
            }
            Err((code, why)) => diags.push(
                code,
                loc(),
                format!(
                    "batch: body of `{}` is not the batch rewrite of the original: {why}",
                    te_o.name
                ),
            ),
        }
    }
    diags.tag_stage("batch");
    (cert, diags)
}

/// Certifies schedule merging: validates the dataflow of the merged
/// instruction streams against the TE program (see module docs).
pub fn certify_schedule(program: &TeProgram, kernels: &[Kernel]) -> (Certificate, Diagnostics) {
    let mut cert = Certificate::new("schedule-merge");
    let mut diags = Diagnostics::new();
    let external: HashSet<TensorId> = program
        .tensors()
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.kind, TensorKind::Input | TensorKind::Weight))
        .map(|(i, _)| TensorId(i))
        .collect();
    // tensor -> index of the kernel that stored it.
    let mut stored_by: HashMap<TensorId, usize> = HashMap::new();
    for (ki, kernel) in kernels.iter().enumerate() {
        for (si, stage) in kernel.stages.iter().enumerate() {
            let atomic_target = program.tes().get(stage.te.0).map(|te| te.output);
            for (ii, instr) in stage.instrs.iter().enumerate() {
                let loc = || Loc::Instr {
                    kernel: kernel.name.clone(),
                    stage: si,
                    instr: ii,
                };
                match *instr {
                    Instr::LdGlobalToShared { tensor, .. }
                    | Instr::LdGlobal { tensor, .. }
                    | Instr::LdShared { tensor, .. } => {
                        if external.contains(&tensor) || stored_by.contains_key(&tensor) {
                            cert.proven_maps += 1;
                        } else {
                            diags.push(
                                Code::CertifySchedule,
                                loc(),
                                format!(
                                    "kernel `{}` stage {si} loads {tensor} `{}` before any \
                                     kernel stores it",
                                    kernel.name,
                                    tensor_name(program, tensor)
                                ),
                            );
                        }
                    }
                    Instr::StSharedToGlobal { tensor, .. } | Instr::StGlobal { tensor, .. } => {
                        record_store(
                            program,
                            kernel,
                            ki,
                            si,
                            ii,
                            tensor,
                            &mut stored_by,
                            &mut diags,
                        );
                    }
                    Instr::AtomicAdd { .. } => {
                        if let Some(tensor) = atomic_target {
                            record_store(
                                program,
                                kernel,
                                ki,
                                si,
                                ii,
                                tensor,
                                &mut stored_by,
                                &mut diags,
                            );
                        }
                    }
                    Instr::GridSync | Instr::BlockSync | Instr::Wmma { .. } | Instr::Fma { .. } => {
                    }
                }
            }
            cert.matched += 1;
        }
    }
    for o in program.outputs() {
        if !stored_by.contains_key(&o) {
            diags.push(
                Code::CertifySchedule,
                Loc::Tensor {
                    tensor: o,
                    name: program.tensor(o).name.clone(),
                },
                format!(
                    "program output {o} `{}` is never stored by any kernel",
                    program.tensor(o).name
                ),
            );
        }
    }
    diags.tag_stage("schedule-merge");
    (cert, diags)
}

#[allow(clippy::too_many_arguments)]
fn record_store(
    program: &TeProgram,
    kernel: &Kernel,
    ki: usize,
    si: usize,
    ii: usize,
    tensor: TensorId,
    stored_by: &mut HashMap<TensorId, usize>,
    diags: &mut Diagnostics,
) {
    if let Some(&prev) = stored_by.get(&tensor) {
        if prev != ki {
            diags.push(
                Code::CertifySchedule,
                Loc::Instr {
                    kernel: kernel.name.clone(),
                    stage: si,
                    instr: ii,
                },
                format!(
                    "kernel `{}` stores {tensor} `{}` already stored by kernel {prev} — each \
                     tensor has one producer",
                    kernel.name,
                    tensor_name(program, tensor)
                ),
            );
        }
    }
    stored_by.insert(tensor, ki);
}

fn tensor_name(program: &TeProgram, tensor: TensorId) -> String {
    program
        .tensors()
        .get(tensor.0)
        .map(|t| t.name.clone())
        .unwrap_or_else(|| "?".to_string())
}

fn producers(p: &TeProgram) -> HashMap<TensorId, usize> {
    p.tes()
        .iter()
        .enumerate()
        .map(|(i, te)| (te.output, i))
        .collect()
}

/// One above every variable any TE of the program mentions (free,
/// reduction, or existing fold binder).
fn fresh_base(p: &TeProgram) -> usize {
    let mut base = 0usize;
    for te in p.tes() {
        let rank = p.tensor(te.output).shape.rank();
        base = base
            .max(rank + te.reduce.len())
            .max(te.body.max_var().map_or(0, |m| m + 1));
    }
    base
}

fn node_count(e: &ScalarExpr) -> usize {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) | ScalarExpr::Input { .. } => 1,
        ScalarExpr::Unary(_, a) => 1 + node_count(a),
        ScalarExpr::Binary(_, a, b) => 1 + node_count(a) + node_count(b),
        ScalarExpr::Select {
            on_true, on_false, ..
        } => 1 + node_count(on_true) + node_count(on_false),
        ScalarExpr::Reduce { body, .. } => 1 + node_count(body),
    }
}

/// Unfolds tensor definitions on one side of a stage: producers in the
/// `inline` set (present only on this side) are substituted through,
/// standalone reductions becoming explicit folds over fresh binders. In
/// `all` (deep) mode every produced tensor is substituted instead — the
/// full unfolding to free tensors. Either way the total expression size
/// is budgeted by [`MAX_UNFOLD_NODES`]: when exceeded, `overflow` is set
/// and the partially unfolded expression must not be used for a verdict.
struct Unfolder<'a> {
    program: &'a TeProgram,
    inline: HashSet<TensorId>,
    all: bool,
    producers: &'a HashMap<TensorId, usize>,
    memo: HashMap<TensorId, (ScalarExpr, bool)>,
    /// Sticky within one `foldified` call tree; reset by the caller
    /// before each top-level query.
    overflow: bool,
}

impl<'a> Unfolder<'a> {
    fn new(
        program: &'a TeProgram,
        inline: HashSet<TensorId>,
        producers: &'a HashMap<TensorId, usize>,
        all: bool,
    ) -> Self {
        Unfolder {
            program,
            inline,
            all,
            producers,
            memo: HashMap::new(),
            overflow: false,
        }
    }

    fn should_inline(&self, t: TensorId) -> bool {
        if self.all {
            self.producers.contains_key(&t)
        } else {
            self.inline.contains(&t)
        }
    }

    /// The unfolded definition of `t` as an *expression* usable at an
    /// access site: TE-level reduction axes become explicit folds with
    /// globally fresh binders, exactly mirroring what reduction fusion
    /// constructs.
    fn foldified(&mut self, t: TensorId, fresh: &mut usize) -> ScalarExpr {
        if let Some((b, ov)) = self.memo.get(&t) {
            if *ov {
                self.overflow = true;
            }
            return b.clone();
        }
        let te = &self.program.tes()[self.producers[&t]];
        let mut b = te.body.remap_operands(&|o| te.inputs[o].0);
        let rank = self.program.tensor(t).shape.rank();
        if let Some(op) = te.reduce_op {
            let k = te.reduce.len();
            let n = b.max_var().map_or(0, |m| m + 1).max(rank + k);
            let mut subs: Vec<IndexExpr> = (0..n).map(IndexExpr::var).collect();
            let binders: Vec<usize> = (0..k)
                .map(|_| {
                    let v = *fresh;
                    *fresh += 1;
                    v
                })
                .collect();
            for (i, &bv) in binders.iter().enumerate() {
                subs[rank + i] = IndexExpr::var(bv);
            }
            b = b.substitute(&subs, &|o| o);
            for i in (0..k).rev() {
                b = ScalarExpr::fold(op, binders[i], te.reduce[i], b);
            }
        }
        let outer = self.overflow;
        self.overflow = false;
        let b = self.unfold(&b, fresh);
        let ov = self.overflow;
        self.overflow = outer || ov;
        self.memo.insert(t, (b.clone(), ov));
        b
    }

    fn unfold(&mut self, body: &ScalarExpr, fresh: &mut usize) -> ScalarExpr {
        let mut b = body.clone();
        loop {
            let count = node_count(&b);
            if count > MAX_UNFOLD_NODES {
                self.overflow = true;
                return b;
            }
            let mut target = None;
            let mut n_sites = 0usize;
            for (o, _) in b.accesses() {
                let t = TensorId(o);
                match target {
                    None if self.should_inline(t) => {
                        target = Some(t);
                        n_sites = 1;
                    }
                    Some(cur) if cur == t => n_sites += 1,
                    _ => {}
                }
            }
            let Some(t) = target else {
                return b;
            };
            let rep = self.foldified(t, fresh);
            // Every access site gets a copy of `rep`: budget the growth
            // before paying for it.
            if count + n_sites.saturating_mul(node_count(&rep)) > MAX_UNFOLD_NODES {
                self.overflow = true;
                return b;
            }
            b = b.inline_operand(t.0, &rep);
        }
    }
}

/// Replays a stage's recorded rewrites against the before/after programs:
/// fold odometers must match their standalone reductions, horizontal
/// packs must tile exactly, and each member view's access map must be the
/// recorded segment offset.
fn check_log(
    before: &TeProgram,
    after: &TeProgram,
    prod_b: &HashMap<TensorId, usize>,
    prod_a: &HashMap<TensorId, usize>,
    log: &RewriteLog,
    cert: &mut Certificate,
    diags: &mut Diagnostics,
) -> HashSet<TensorId> {
    let mut proven = HashSet::new();
    for entry in &log.entries {
        match entry {
            Rewrite::ReductionFused {
                reduction_output,
                consumer_output,
                extent,
                op,
            } => {
                let red = prod_b
                    .get(reduction_output)
                    .map(|&i| &before.tes()[i])
                    .cloned();
                let red_ok = red
                    .as_ref()
                    .map(|te| te.reduce == vec![*extent] && te.reduce_op == Some(*op))
                    .unwrap_or(false);
                if !red_ok {
                    diags.push(
                        Code::CertifyOdometer,
                        Loc::Tensor {
                            tensor: *reduction_output,
                            name: tensor_name(before, *reduction_output),
                        },
                        format!(
                            "recorded fold ({op:?}, extent {extent}) does not match the \
                             standalone reduction producing {reduction_output}"
                        ),
                    );
                    continue;
                }
                let fold_ok = prod_a
                    .get(consumer_output)
                    .map(|&i| &after.tes()[i])
                    .map(|te| fold_sigs(&te.body).contains(&(*extent, *op)))
                    .unwrap_or(false);
                if fold_ok {
                    cert.folds_proven += 1;
                } else {
                    diags.push(
                        Code::CertifyOdometer,
                        Loc::Tensor {
                            tensor: *consumer_output,
                            name: tensor_name(after, *consumer_output),
                        },
                        format!(
                            "consumer of fused reduction {reduction_output} carries no fold \
                             with ({op:?}, extent {extent})"
                        ),
                    );
                }
            }
            Rewrite::HorizontalGroup {
                members,
                concat,
                cuts,
            } => check_horizontal_group(
                before,
                after,
                prod_b,
                prod_a,
                members,
                *concat,
                cuts,
                &mut proven,
                cert,
                diags,
            ),
            Rewrite::Inlined { .. } | Rewrite::Batched { .. } => {
                // Proven wholesale by the canonical comparison / the
                // dedicated batch walk.
            }
        }
    }
    proven
}

#[allow(clippy::too_many_arguments)]
fn check_horizontal_group(
    before: &TeProgram,
    after: &TeProgram,
    prod_b: &HashMap<TensorId, usize>,
    prod_a: &HashMap<TensorId, usize>,
    members: &[TensorId],
    concat: TensorId,
    cuts: &[i64],
    proven: &mut HashSet<TensorId>,
    cert: &mut Certificate,
    diags: &mut Diagnostics,
) {
    let cshape = &after.tensor(concat).shape;
    if cuts.len() != members.len() || cuts.last().copied() != Some(cshape.dim(0)) {
        diags.push(
            Code::CertifyDomain,
            Loc::Tensor {
                tensor: concat,
                name: tensor_name(after, concat),
            },
            format!(
                "horizontal pack {concat} rows ({}) do not match recorded cuts {cuts:?}",
                cshape.dim(0)
            ),
        );
        return;
    }
    // The pack body, split into one branch per member if it is exactly
    // the guard chain `Select(v0 < cuts[0], b0, Select(v0 < cuts[1], ...))`
    // the transform constructs. Branch `i` then *is* the member's
    // semantics on its row segment (guards j < i are false there, guard i
    // is true — the cuts tile, checked above), which licenses a per-member
    // proof against one branch instead of unfolding the whole chain.
    let concat_te = prod_a.get(&concat).map(|&ti| &after.tes()[ti]);
    let branches = concat_te.and_then(|te| pack_branches(&te.body, cuts));

    let mut start = 0i64;
    for (i, &m) in members.iter().enumerate() {
        let mshape = &before.tensor(m).shape;
        let extent = mshape.dim(0);
        if cuts[i] - start != extent {
            diags.push(
                Code::CertifyDomain,
                Loc::Tensor {
                    tensor: m,
                    name: tensor_name(before, m),
                },
                format!(
                    "member {m} covers rows {start}..{} but has extent {extent} — the pack \
                     does not tile",
                    cuts[i]
                ),
            );
            start = cuts[i];
            continue;
        }
        // The member's after-side definition must be a pure view of the
        // pack at exactly its segment offset, and its image must stay
        // inside the segment.
        let view_ok = prod_a.get(&m).map(|&ti| &after.tes()[ti]).and_then(|te| {
            let rank = mshape.rank();
            let map = te.view_map(rank)?;
            if te.inputs != vec![concat] {
                return Some(false);
            }
            let mut expected: Vec<IndexExpr> = (0..rank).map(IndexExpr::var).collect();
            expected[0] = IndexExpr::var(0).add(IndexExpr::constant(start));
            let expected = IndexMap::new(rank, expected);
            if !map.equiv(&expected) {
                return Some(false);
            }
            let bounds: Vec<(i64, i64)> = mshape.dims().iter().map(|&d| (0, d - 1)).collect();
            let mut region: Vec<(i64, i64)> = cshape.dims().iter().map(|&d| (0, d - 1)).collect();
            region[0] = (start, cuts[i] - 1);
            Some(map.image_within(&bounds, &region))
        });
        match view_ok {
            Some(true) => {
                cert.proven_maps += 1;
                // The view is exact; if branch `i` of the pack matches the
                // member's old definition, the pair is fully proven here
                // and the main loop skips its (much costlier) unfold.
                if let (Some(cte), Some(branches), Some(&bi)) =
                    (concat_te, branches.as_ref(), prod_b.get(&m))
                {
                    let mte = &before.tes()[bi];
                    if mte.reduce == cte.reduce && mte.reduce_op == cte.reduce_op {
                        let rank = mshape.rank();
                        let nv = rank + cte.reduce.len();
                        let branch = branches[i].remap_operands(&|o| cte.inputs[o].0);
                        let n = branch.max_var().map_or(nv, |mv| (mv + 1).max(nv));
                        let mut subs: Vec<IndexExpr> = (0..n).map(IndexExpr::var).collect();
                        subs[0] = IndexExpr::var(0).add(IndexExpr::constant(start));
                        let branch = branch.substitute(&subs, &|o| o);
                        let body = mte.body.remap_operands(&|o| mte.inputs[o].0);
                        let mut bounds: Vec<(i64, i64)> =
                            mshape.dims().iter().map(|&d| (0, d - 1)).collect();
                        bounds.extend(mte.reduce.iter().map(|&e| (0, e - 1)));
                        let equal = branch == body || {
                            let (cb, ca) = canon_pair(&body, &branch, &bounds);
                            cb == ca
                        };
                        if equal {
                            proven.insert(m);
                            cert.matched += 1;
                            cert.proven_maps += body.accesses().len();
                        }
                        // Not equal: stay silent — the main loop's general
                        // unfold re-checks this member and classifies any
                        // genuine divergence.
                    }
                }
            }
            Some(false) => diags.push(
                Code::CertifyAccessMap,
                Loc::Tensor {
                    tensor: m,
                    name: tensor_name(before, m),
                },
                format!(
                    "member {m} is not re-derived as the recorded view of pack {concat} at \
                     row offset {start}"
                ),
            ),
            // The member is no longer a pure view (e.g. a later fixpoint
            // round fused it again); the canonical comparison still
            // covers its semantics.
            None => {}
        }
        start = cuts[i];
    }
}

/// Structural equality of two TE bodies whose operand slots resolve
/// through different input lists: `Input` nodes compare by resolved
/// tensor id, everything else by plain equality. Equivalent to comparing
/// `remap_operands` results without materializing either clone.
fn bodies_eq(a: &ScalarExpr, ia: &[TensorId], b: &ScalarExpr, ib: &[TensorId]) -> bool {
    use ScalarExpr::*;
    match (a, b) {
        (Const(x), Const(y)) => x == y,
        (IndexValue(x), IndexValue(y)) => x == y,
        (
            Input {
                operand: oa,
                indices: xa,
            },
            Input {
                operand: ob,
                indices: xb,
            },
        ) => ia[*oa] == ib[*ob] && xa == xb,
        (Unary(f, x), Unary(g, y)) => f == g && bodies_eq(x, ia, y, ib),
        (Binary(f, x1, x2), Binary(g, y1, y2)) => {
            f == g && bodies_eq(x1, ia, y1, ib) && bodies_eq(x2, ia, y2, ib)
        }
        (
            Select {
                cond: ca,
                on_true: ta,
                on_false: fa,
            },
            Select {
                cond: cb,
                on_true: tb,
                on_false: fb,
            },
        ) => ca == cb && bodies_eq(ta, ia, tb, ib) && bodies_eq(fa, ia, fb, ib),
        (
            Reduce {
                op: pa,
                var: va,
                extent: ea,
                body: ba,
            },
            Reduce {
                op: pb,
                var: vb,
                extent: eb,
                body: bb,
            },
        ) => pa == pb && va == vb && ea == eb && bodies_eq(ba, ia, bb, ib),
        _ => false,
    }
}

/// Splits a horizontal pack body into one branch per member, verifying
/// it is *exactly* the transform's guard chain
/// `Select(v0 < cuts[0], b0, Select(v0 < cuts[1], b1, ... b_last))`.
/// Returns `None` for any other shape (the general proof handles it).
fn pack_branches<'e>(body: &'e ScalarExpr, cuts: &[i64]) -> Option<Vec<&'e ScalarExpr>> {
    let mut out = Vec::with_capacity(cuts.len());
    let mut cur = body;
    for &cut in cuts.iter().take(cuts.len().checked_sub(1)?) {
        let ScalarExpr::Select {
            cond,
            on_true,
            on_false,
        } = cur
        else {
            return None;
        };
        let expected = Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(cut));
        if *cond != expected {
            return None;
        }
        out.push(&**on_true);
        cur = on_false;
    }
    out.push(cur);
    Some(out)
}

/// All `(extent, op)` fold signatures in a body.
fn fold_sigs(e: &ScalarExpr) -> Vec<(i64, ReduceOp)> {
    let mut out = Vec::new();
    collect_fold_sigs(e, &mut out);
    out
}

fn collect_fold_sigs(e: &ScalarExpr, out: &mut Vec<(i64, ReduceOp)>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) | ScalarExpr::Input { .. } => {}
        ScalarExpr::Unary(_, a) => collect_fold_sigs(a, out),
        ScalarExpr::Binary(_, a, b) => {
            collect_fold_sigs(a, out);
            collect_fold_sigs(b, out);
        }
        ScalarExpr::Select {
            on_true, on_false, ..
        } => {
            collect_fold_sigs(on_true, out);
            collect_fold_sigs(on_false, out);
        }
        ScalarExpr::Reduce {
            op, extent, body, ..
        } => {
            out.push((*extent, *op));
            collect_fold_sigs(body, out);
        }
    }
}

fn ix_uses(ix: &IndexExpr, var: usize) -> bool {
    let mut found = false;
    ix.for_each_var(&mut |v| {
        if v == var {
            found = true;
        }
    });
    found
}

fn cond_uses(c: &Cond, var: usize) -> bool {
    let mut found = false;
    c.for_each_var(&mut |v| {
        if v == var {
            found = true;
        }
    });
    found
}

fn uses_var(e: &ScalarExpr, var: usize) -> bool {
    match e {
        ScalarExpr::Const(_) => false,
        ScalarExpr::IndexValue(ix) => ix_uses(ix, var),
        ScalarExpr::Input { indices, .. } => indices.iter().any(|ix| ix_uses(ix, var)),
        ScalarExpr::Unary(_, a) => uses_var(a, var),
        ScalarExpr::Binary(_, a, b) => uses_var(a, var) || uses_var(b, var),
        ScalarExpr::Select {
            cond,
            on_true,
            on_false,
        } => cond_uses(cond, var) || uses_var(on_true, var) || uses_var(on_false, var),
        ScalarExpr::Reduce { var: v, body, .. } => *v != var && uses_var(body, var),
    }
}

/// Classifies a canonical-form mismatch by lockstep descent: the first
/// structurally diverging pair of nodes names the failure mode.
fn classify(b: &ScalarExpr, a: &ScalarExpr) -> (Code, String) {
    debug_assert_ne!(b, a);
    match (b, a) {
        (
            ScalarExpr::Input {
                operand: ob,
                indices: ib,
            },
            ScalarExpr::Input {
                operand: oa,
                indices: ia,
            },
        ) if ob == oa && ib != ia => (
            Code::CertifyAccessMap,
            format!(
                "access maps of t{ob} differ: [{}] vs [{}]",
                fmt_indices(ib),
                fmt_indices(ia)
            ),
        ),
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
        ) => {
            if o1 != o2 || e1 != e2 {
                (
                    Code::CertifyOdometer,
                    format!("fold odometers differ: {o1:?}×{e1} vs {o2:?}×{e2}"),
                )
            } else if uses_var(b1, *v1) != uses_var(b2, *v2) {
                (
                    Code::CertifyOdometer,
                    "one fold ignores its binder — an iteration rename was dropped".to_string(),
                )
            } else if b1 != b2 {
                classify(b1, b2)
            } else {
                (Code::CertifyMismatch, "fold binders diverge".to_string())
            }
        }
        (
            ScalarExpr::Select {
                cond: c1,
                on_true: t1,
                on_false: f1,
            },
            ScalarExpr::Select {
                cond: c2,
                on_true: t2,
                on_false: f2,
            },
        ) => {
            if c1 != c2 {
                (
                    Code::CertifyDomain,
                    format!("domain guards differ: ({c1}) vs ({c2})"),
                )
            } else if t1 != t2 {
                classify(t1, t2)
            } else {
                classify(f1, f2)
            }
        }
        // Exactly one side carries a residual guard: a domain was widened
        // or narrowed until the guard stopped (or started) resolving.
        (ScalarExpr::Select { cond, .. }, _) | (_, ScalarExpr::Select { cond, .. }) => (
            Code::CertifyDomain,
            format!("a domain guard ({cond}) survives on one side only"),
        ),
        (ScalarExpr::Unary(o1, a1), ScalarExpr::Unary(o2, a2)) if o1 == o2 => classify(a1, a2),
        (ScalarExpr::Binary(o1, l1, r1), ScalarExpr::Binary(o2, l2, r2)) if o1 == o2 => {
            if l1 != l2 {
                classify(l1, l2)
            } else {
                classify(r1, r2)
            }
        }
        _ => (
            Code::CertifyMismatch,
            format!("{} vs {}", summarize(b), summarize(a)),
        ),
    }
}

fn fmt_indices(ix: &[IndexExpr]) -> String {
    ix.iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn summarize(e: &ScalarExpr) -> String {
    let s = e.to_string();
    if s.len() > 96 {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(96)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8())]
        )
    } else {
        s
    }
}

/// Lockstep batch-rewrite walk: `b` must be `o` with every variable
/// shifted up by one and a leading `v0` on non-weight accesses. Returns
/// `(accesses_proven, folds_proven)`.
fn expect_batched(
    o: &ScalarExpr,
    b: &ScalarExpr,
    weight: &dyn Fn(usize) -> bool,
) -> Result<(usize, usize), (Code, String)> {
    match (o, b) {
        (ScalarExpr::Const(x), ScalarExpr::Const(y)) if x == y => Ok((0, 0)),
        (ScalarExpr::IndexValue(e1), ScalarExpr::IndexValue(e2)) if shifted_eq(e1, e2) => {
            Ok((0, 0))
        }
        (
            ScalarExpr::Input {
                operand: o1,
                indices: i1,
            },
            ScalarExpr::Input {
                operand: o2,
                indices: i2,
            },
        ) if o1 == o2 => {
            let tail: &[IndexExpr] = if weight(*o1) {
                i2
            } else {
                match i2.split_first() {
                    Some((first, rest)) if *first == IndexExpr::var(0) => rest,
                    _ => {
                        return Err((
                            Code::CertifyAccessMap,
                            format!("batched access to t-slot {o1} lacks the leading v0"),
                        ))
                    }
                }
            };
            if i1.len() == tail.len() && i1.iter().zip(tail).all(|(a, b)| shifted_eq(a, b)) {
                Ok((1, 0))
            } else {
                Err((
                    Code::CertifyAccessMap,
                    format!(
                        "access map not shifted: [{}] vs [{}]",
                        fmt_indices(i1),
                        fmt_indices(i2)
                    ),
                ))
            }
        }
        (ScalarExpr::Unary(u1, a1), ScalarExpr::Unary(u2, a2)) if u1 == u2 => {
            expect_batched(a1, a2, weight)
        }
        (ScalarExpr::Binary(x1, l1, r1), ScalarExpr::Binary(x2, l2, r2)) if x1 == x2 => {
            let l = expect_batched(l1, l2, weight)?;
            let r = expect_batched(r1, r2, weight)?;
            Ok((l.0 + r.0, l.1 + r.1))
        }
        (
            ScalarExpr::Select {
                cond: c1,
                on_true: t1,
                on_false: f1,
            },
            ScalarExpr::Select {
                cond: c2,
                on_true: t2,
                on_false: f2,
            },
        ) => {
            if !cond_shifted_eq(c1, c2) {
                return Err((
                    Code::CertifyDomain,
                    format!("guard not shifted: ({c1}) vs ({c2})"),
                ));
            }
            let t = expect_batched(t1, t2, weight)?;
            let f = expect_batched(f1, f2, weight)?;
            Ok((t.0 + f.0, t.1 + f.1))
        }
        (
            ScalarExpr::Reduce {
                op: p1,
                var: v1,
                extent: e1,
                body: b1,
            },
            ScalarExpr::Reduce {
                op: p2,
                var: v2,
                extent: e2,
                body: b2,
            },
        ) => {
            if p1 != p2 || e1 != e2 || *v2 != v1 + 1 {
                return Err((
                    Code::CertifyOdometer,
                    format!("fold not shifted: {p1:?}×{e1}@v{v1} vs {p2:?}×{e2}@v{v2}"),
                ));
            }
            let inner = expect_batched(b1, b2, weight)?;
            Ok((inner.0, inner.1 + 1))
        }
        _ => Err((
            Code::CertifyMismatch,
            format!("{} vs {}", summarize(o), summarize(b)),
        )),
    }
}

fn shifted_eq(o: &IndexExpr, b: &IndexExpr) -> bool {
    let shifted = o.shift_vars(1);
    if &shifted == b {
        return true;
    }
    // Builder simplification may restructure; compare linear forms.
    let n = 1 + shifted.max_var().unwrap_or(0).max(b.max_var().unwrap_or(0));
    match (shifted.as_linear(n), b.as_linear(n)) {
        (Some(x), Some(y)) => x == y,
        _ => shifted.simplified() == b.simplified(),
    }
}

fn cond_shifted_eq(o: &Cond, b: &Cond) -> bool {
    match (o, b) {
        (Cond::Cmp(op1, a1, b1), Cond::Cmp(op2, a2, b2)) => {
            op1 == op2 && shifted_eq(a1, a2) && shifted_eq(b1, b2)
        }
        (Cond::And(a1, b1), Cond::And(a2, b2)) | (Cond::Or(a1, b1), Cond::Or(a2, b2)) => {
            cond_shifted_eq(a1, a2) && cond_shifted_eq(b1, b2)
        }
        (Cond::Not(a1), Cond::Not(a2)) => cond_shifted_eq(a1, a2),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::{builders, TeProgram};
    use souffle_tensor::{DType, Shape};
    use souffle_transform::{
        batch_program, horizontal_fuse_program_logged, reduction_fuse_program_logged,
        vertical_fuse_program_logged,
    };

    fn rebuild(program: &TeProgram, tes: Vec<souffle_te::TensorExpr>) -> TeProgram {
        let mut p = TeProgram::new();
        for t in program.tensors() {
            p.add_tensor(&t.name, t.shape.clone(), t.dtype, t.kind);
        }
        for te in tes {
            p.push_te(te);
        }
        p
    }

    fn assert_certified(c: &Certificate, d: &Diagnostics) {
        assert!(!d.has_errors(), "{d}");
        assert_eq!(d.num_warnings(), 0, "{d}");
        assert_eq!(c.residual, 0, "{c}");
    }

    #[test]
    fn vertical_inlining_certifies() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 8]), DType::F32);
        let b = builders::relu(&mut p, "relu", a);
        let c = builders::strided_slice(&mut p, "slice", b, 0, 0, 2, 2);
        let d = builders::transpose(&mut p, "permute", c, &[1, 0]);
        p.mark_output(d);
        let mut log = souffle_te::RewriteLog::new();
        let (q, _) = vertical_fuse_program_logged(&p, &mut log);
        assert!(!log.is_empty());
        let (cert, diags) = certify_transform(&p, &q, "vertical", &log);
        assert_certified(&cert, &diags);
        assert!(cert.matched >= 1, "{cert}");
    }

    #[test]
    fn horizontal_packing_certifies() {
        let mut p = TeProgram::new();
        let a1 = p.add_input("A1", Shape::new(vec![4, 8]), DType::F32);
        let b1 = p.add_weight("B1", Shape::new(vec![8, 16]), DType::F32);
        let a2 = p.add_input("A2", Shape::new(vec![2, 8]), DType::F32);
        let b2 = p.add_weight("B2", Shape::new(vec![8, 16]), DType::F32);
        let c1 = builders::matmul(&mut p, "C1", a1, b1);
        let c2 = builders::matmul(&mut p, "C2", a2, b2);
        let c = builders::concat(&mut p, "C", c1, c2, 0);
        p.mark_output(c);
        let mut log = souffle_te::RewriteLog::new();
        let (q, _) = horizontal_fuse_program_logged(&p, &mut log);
        assert_eq!(log.len(), 1);
        let (cert, diags) = certify_transform(&p, &q, "horizontal", &log);
        assert_certified(&cert, &diags);
        assert!(cert.proven_maps >= 2, "view maps proven: {cert}");
    }

    #[test]
    fn reduction_fusion_certifies_with_fold_proofs() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![16, 64]), DType::F32);
        let s = builders::softmax(&mut p, "sm", a);
        p.mark_output(s);
        let (v, _) = souffle_transform::vertical_fuse_program(&p);
        let mut log = souffle_te::RewriteLog::new();
        let (q, stats) = reduction_fuse_program_logged(&v, &mut log);
        assert!(stats.fused > 0);
        let (cert, diags) = certify_transform(&v, &q, "reduction-fusion", &log);
        assert_certified(&cert, &diags);
        assert!(cert.folds_proven >= 2, "{cert}");
    }

    #[test]
    fn swapped_access_map_is_rejected() {
        // Vertical-fuse, then swap two index expressions in one access of
        // the after program: the certifier must flag SV212.
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![8, 8]), DType::F32);
        let t = builders::transpose(&mut p, "t", a, &[1, 0]);
        let e = builders::exp(&mut p, "e", t);
        p.mark_output(e);
        let mut log = souffle_te::RewriteLog::new();
        let (q, _) = vertical_fuse_program_logged(&p, &mut log);
        // q's single TE body is exp(A[v1, v0]); un-swap the transpose.
        let mut tes = q.tes().to_vec();
        tes[0].body = ScalarExpr::unary(
            souffle_te::UnaryOp::Exp,
            ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
        );
        let q = rebuild(&q, tes);
        let (_, diags) = certify_transform(&p, &q, "vertical", &log);
        assert!(diags.has_code(Code::CertifyAccessMap), "{diags}");
    }

    #[test]
    fn batch_rewrite_certifies_and_detects_missing_batch_index() {
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![4, 6]), DType::F32);
        let w = p.add_weight("W", Shape::new(vec![6, 5]), DType::F32);
        let mm = builders::matmul(&mut p, "mm", a, w);
        let sm = builders::softmax(&mut p, "sm", mm);
        p.mark_output(sm);
        let bp = batch_program(&p, 4);
        let (cert, diags) = certify_batch(&p, &bp, 4);
        assert_certified(&cert, &diags);
        assert_eq!(cert.matched, p.num_tes());

        // Drop the batch index from one access.
        let bad = batch_program(&p, 4);
        let mut tes = bad.tes().to_vec();
        tes[0].body = drop_first_batch_index(&tes[0].body);
        let bad = rebuild(&bad, tes);
        let (_, diags) = certify_batch(&p, &bad, 4);
        assert!(diags.has_code(Code::CertifyAccessMap), "{diags}");
    }

    fn drop_first_batch_index(e: &ScalarExpr) -> ScalarExpr {
        match e {
            ScalarExpr::Input { operand, indices }
                if indices.first() == Some(&IndexExpr::var(0)) =>
            {
                ScalarExpr::Input {
                    operand: *operand,
                    indices: indices[1..].to_vec(),
                }
            }
            ScalarExpr::Binary(op, a, b) => ScalarExpr::Binary(
                *op,
                Box::new(drop_first_batch_index(a)),
                Box::new(b.as_ref().clone()),
            ),
            ScalarExpr::Unary(op, a) => ScalarExpr::Unary(*op, Box::new(drop_first_batch_index(a))),
            other => other.clone(),
        }
    }

    #[test]
    fn schedule_certify_accepts_store_load_chains_and_rejects_clobbers() {
        use souffle_kernel::Stage;
        let mut p = TeProgram::new();
        let a = p.add_input("A", Shape::new(vec![64]), DType::F32);
        let e = builders::exp(&mut p, "e", a);
        let r = builders::relu(&mut p, "r", e);
        p.mark_output(r);
        let stage = |te: usize, name: &str, instrs: Vec<Instr>| Stage {
            te: souffle_te::TeId(te),
            name: name.into(),
            grid_blocks: 4,
            threads_per_block: 128,
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            instrs,
            pipelined: false,
        };
        let good = vec![Kernel {
            name: "k".into(),
            stages: vec![
                stage(
                    0,
                    "e",
                    vec![
                        Instr::LdGlobal {
                            tensor: a,
                            bytes: 256,
                        },
                        Instr::StGlobal {
                            tensor: e,
                            bytes: 256,
                        },
                    ],
                ),
                stage(
                    1,
                    "r",
                    vec![
                        Instr::GridSync,
                        Instr::LdGlobal {
                            tensor: e,
                            bytes: 256,
                        },
                        Instr::StGlobal {
                            tensor: r,
                            bytes: 256,
                        },
                    ],
                ),
            ],
        }];
        let (cert, diags) = certify_schedule(&p, &good);
        assert!(!diags.has_errors(), "{diags}");
        assert_eq!(cert.matched, 2);

        // Load of a tensor no kernel ever stores.
        let bad_load = vec![Kernel {
            name: "k".into(),
            stages: vec![stage(
                1,
                "r",
                vec![
                    Instr::LdGlobal {
                        tensor: e,
                        bytes: 256,
                    },
                    Instr::StGlobal {
                        tensor: r,
                        bytes: 256,
                    },
                ],
            )],
        }];
        let (_, diags) = certify_schedule(&p, &bad_load);
        assert!(diags.has_code(Code::CertifySchedule), "{diags}");

        // Two kernels storing the same tensor.
        let clobber = vec![
            Kernel {
                name: "k1".into(),
                stages: vec![stage(
                    0,
                    "e",
                    vec![Instr::StGlobal {
                        tensor: r,
                        bytes: 256,
                    }],
                )],
            },
            Kernel {
                name: "k2".into(),
                stages: vec![stage(
                    1,
                    "r",
                    vec![Instr::StGlobal {
                        tensor: r,
                        bytes: 256,
                    }],
                )],
            },
        ];
        let (_, diags) = certify_schedule(&p, &clobber);
        assert!(diags.has_code(Code::CertifySchedule), "{diags}");
    }
}
