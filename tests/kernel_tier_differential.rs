//! Bit-exact differential testing of the monomorphized kernel tier.
//!
//! The kernel tier (`souffle_te::kernels`) sits between the bytecode VM
//! and the naive interpreter: at compile time each TE either gets a
//! fixed-stride native inner loop or stays on bytecode. Its contract is
//! the same as the VM's — **bit equality** with the naive interpreter for
//! every element of every produced tensor, and identical errors — and it
//! must hold whether the tier is forced on, forced off, or left in auto
//! mode, at every pool size (chunks split mid-row, so the kernels'
//! segment-resume logic is on the line).
//!
//! The suite drives that contract over the six paper models at test
//! scale, hundreds of `TESTKIT_SEED`-randomized generated programs, and
//! handcrafted mid-row chunk-boundary cases; it also pins the selection
//! census on the models (BERT's matmuls really do take `row_dot`, convs
//! really do fall back) and checks the `fast_math` opt-out stays *close*
//! (never bit-identical is not required — it reassociates sums — but the
//! oracle tolerance must hold).

use std::collections::HashMap;
use std::sync::OnceLock;

use souffle_frontend::{build_model, Model, ModelConfig};
use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{
    builders, compile_program, ExecPlan, FallbackReason, Runtime, RuntimeOptions, TeProgram,
    TensorId,
};
use souffle_tensor::{DType, Shape, Tensor};
use souffle_testkit::oracle::{check_stage, Stage, Tolerance};
use souffle_testkit::teprog::gen_spec;
use souffle_testkit::{forall, Config};

/// One persistent runtime per (pool size, arena, kernel-tier mode) point:
/// the tier forced on and off at both pool widths, plus an auto-mode
/// runtime (resolves `SOUFFLE_KERNEL_TIER`, on by default — this is the
/// configuration `ci.sh` sweeps with the environment set both ways).
fn runtimes() -> &'static [(&'static str, Runtime)] {
    static CELL: OnceLock<Vec<(&'static str, Runtime)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rt = |threads: usize, arena: bool, kernel_tier: Option<bool>| {
            Runtime::with_options(RuntimeOptions {
                threads: Some(threads),
                arena,
                max_parallelism: Some(threads),
                kernel_tier,
                ..RuntimeOptions::default()
            })
        };
        vec![
            ("1 stream, kernels on", rt(1, true, Some(true))),
            ("1 stream, kernels off", rt(1, true, Some(false))),
            ("3 streams, kernels on", rt(3, true, Some(true))),
            ("3 streams, kernels off", rt(3, false, Some(false))),
            ("2 streams, kernels auto", rt(2, true, None)),
        ]
    })
}

fn compare_maps(
    label: &str,
    program: &TeProgram,
    want: &HashMap<TensorId, Tensor>,
    got: &HashMap<TensorId, Tensor>,
    seed: u64,
) -> Result<(), String> {
    for (id, w) in want {
        let Some(g) = got.get(id) else { continue };
        let name = &program.tensor(*id).name;
        if w.shape() != g.shape() {
            return Err(format!(
                "[{label}] \"{name}\" shape: naive {} vs tiered {} (seed {seed})",
                w.shape(),
                g.shape()
            ));
        }
        for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "[{label}] \"{name}\"[{i}]: naive {a} ({:#010x}) vs tiered {b} ({:#010x}), seed {seed}",
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// Runs `program` through every tier mode × pool size and requires each
/// result (intermediates included) to be bit-identical to the naive
/// interpreter's — or to fail with the identical error.
fn assert_tier_matches_interpreter(program: &TeProgram, seed: u64) -> Result<(), String> {
    let bindings = random_bindings(program, seed);
    let want = eval_program(program, &bindings);
    let cp = compile_program(program);
    let plan = ExecPlan::from_compiled(&cp).keeping_intermediates();
    for (label, rt) in runtimes() {
        let got = rt.eval_with_plan(&cp, &plan, &bindings);
        match (&want, got) {
            (Err(we), Err(ge)) => {
                if *we != ge {
                    return Err(format!(
                        "[{label}] errors differ: naive {we:?}, tiered {ge:?}"
                    ));
                }
            }
            (Err(we), Ok(_)) => {
                return Err(format!(
                    "[{label}] naive failed ({we:?}) but tiered succeeded"
                ));
            }
            (Ok(_), Err(ge)) => {
                return Err(format!(
                    "[{label}] tiered failed ({ge:?}) but naive succeeded"
                ));
            }
            (Ok(want), Ok(got)) => compare_maps(label, program, want, &got, seed)?,
        }
    }
    Ok(())
}

/// The headline contract: all six paper models at test scale, bit-exact
/// across every tier mode and pool size.
#[test]
fn six_models_are_bit_identical_across_tier_modes() {
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        for seed in [42, 777] {
            assert_tier_matches_interpreter(&program, seed)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
        }
    }
}

/// The six models at test scale after the full transform pipeline, where
/// horizontal fusion's guard chains run as pieces (Swin's window
/// partitions gathered per variable inside re-based pieces) and composed
/// reshapes read through gathered tables: bit-exact against the
/// interpreter on the same transformed program at pool sizes 1/2/8 with
/// the tier on and off.
#[test]
fn six_transformed_models_are_bit_identical_across_tier_modes() {
    let mut opts = souffle::SouffleOptions::full();
    opts.verify = false; // the differential is the check here
    for model in Model::ALL {
        let program = build_model(model, ModelConfig::Tiny);
        let fused = souffle::Souffle::new(opts.clone())
            .compile(&program)
            .program;
        assert_pieces_match_interpreter(&fused, 42);
    }
}

forall!(
    generated_programs_are_bit_identical_across_tier_modes,
    Config::with_cases(100),
    |rng| (gen_spec(rng, 10), rng.u64_in(0..1_000_000)),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(()); // shrunk-out-of-domain candidate
        }
        assert_tier_matches_interpreter(&spec.build(), *seed)
    }
);

forall!(
    generated_fused_programs_are_bit_identical_across_tier_modes,
    Config::with_cases(100),
    |rng| (gen_spec(rng, 10), rng.u64_in(0..1_000_000)),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(()); // shrunk-out-of-domain candidate
        }
        // Horizontally fused (the generator's `Fork` siblings become guard
        // chains), so split TEs run through every tier mode and pool size.
        let fused = souffle_transform::horizontal_fuse_program(&spec.build()).0;
        assert_tier_matches_interpreter(&fused, *seed)
    }
);

/// The oracle's dedicated stage covers the same ground from the oracle
/// side (naive want vs tier-forced-on and tier-forced-off pooled
/// runtimes); run it directly on a kernel-rich program so the stage is
/// exercised even where `check_all_stages` sweeps are trimmed.
#[test]
fn kernel_tier_oracle_stage_passes_on_kernel_rich_program() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![12, 24]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![24, 16]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, w);
    let sm = builders::softmax(&mut p, "sm", mm);
    let sc = builders::scale(&mut p, "sc", sm, 3.0);
    p.mark_output(sc);
    p.validate().unwrap();
    for seed in [1, 99, 123_456] {
        check_stage(&p, Stage::KernelTier, seed, &Tolerance::default()).unwrap();
    }
}

/// Chunk boundaries land mid-row: a 3-stream pool over a 7×13 output
/// (91 elements, indivisible by any row multiple) forces every row-based
/// kernel to start and stop segments inside rows, resuming the affine
/// odometer across chunk edges. Odd prime-ish shapes also leave `TILE`-
/// and `FAST_LANES`-sized remainders everywhere.
#[test]
fn mid_row_chunk_boundaries_stay_bit_identical() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![7, 29]), DType::F32);
    let b = p.add_weight("B", Shape::new(vec![29, 13]), DType::F32);
    let bias = p.add_weight("bias", Shape::new(vec![13]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, b);
    let biased = builders::bias_add(&mut p, "bias_add", mm, bias);
    let act = builders::relu(&mut p, "act", biased);
    let sm = builders::softmax(&mut p, "sm", act);
    p.mark_output(sm);
    p.validate().unwrap();
    for seed in [5, 17, 4242] {
        assert_tier_matches_interpreter(&p, seed).unwrap();
    }
}

/// Selection census on the six models: BERT's attention/FFN stack must
/// actually hit the specialized kernels it was built for, and the
/// convolutional models must fall back honestly (three-axis conv
/// odometers are exactly what the tier refuses to specialize) while
/// their two-axis average pools take the contiguous slice-reduce path.
///
/// Pins run at Paper scale — kernel selection is static (no evaluation
/// happens), and the Tiny configs sit below the small-TE dispatch cutoff
/// by design, which is pinned separately below.
#[test]
fn model_censuses_match_expected_kernel_mix() {
    let reason_index = |r: FallbackReason| {
        FallbackReason::ALL
            .iter()
            .position(|x| *x == r)
            .expect("reason listed")
    };

    let bert_program = build_model(Model::Bert, ModelConfig::Paper);
    let bert = compile_program(&bert_program).kernel_census();
    assert!(bert.row_dot > 0, "BERT matmuls must take row_dot: {bert:?}");
    assert!(
        bert.slice_reduce > 0,
        "BERT softmax/layernorm moments must take slice_reduce: {bert:?}"
    );
    assert!(
        bert.ew_tile > 0,
        "BERT bias/residual adds must take ew_tile: {bert:?}"
    );
    // The raw program reaches Q·Kᵀ through an explicit transpose TE, so
    // the score matmuls are still row_dot; only after vertical fusion
    // composes the transpose into the matmul body do both factors become
    // unit-stride over the reduction axis — slice_dot is a property of
    // the *transformed* program.
    let mut opts = souffle::SouffleOptions::full();
    opts.verify = false; // selection census only; verification is covered elsewhere
    let fused = souffle::Souffle::new(opts).compile(&bert_program).program;
    let fused_census = compile_program(&fused).kernel_census();
    assert!(
        fused_census.slice_dot > 0,
        "transformed BERT Q·Kᵀ scores must take slice_dot: {fused_census:?}"
    );
    // Reduction fusion carries softmax/layernorm denominators inline as
    // folds; those TEs fall back honestly (per-slice fold state is what
    // the fixed-stride kernels cannot express).
    assert!(
        fused_census.fallback[reason_index(FallbackReason::ReducedBody)] > 0,
        "transformed BERT fold-carrying TEs must fall back reduced_body: {fused_census:?}"
    );

    for conv_model in [Model::ResNext, Model::EfficientNet] {
        let census = compile_program(&build_model(conv_model, ModelConfig::Paper)).kernel_census();
        assert!(
            census.fallback[reason_index(FallbackReason::MultiAxisReduce)] > 0,
            "{conv_model}: three-axis conv reductions must fall back multi_axis_reduce: {census:?}"
        );
        assert!(
            census.slice_reduce > 0,
            "{conv_model}: contiguous two-axis pools must take slice_reduce: {census:?}"
        );
    }

    // The small-TE cutoff: MMoE's gate/tower chains are exactly the
    // dispatch-overhead shapes the cutoff exists for. At Tiny scale every
    // TE is gate-sized and the whole model must stay on bytecode; at
    // Paper scale the gate softmax chains still fall back small_te while
    // the expert GEMMs (131k reduction points) keep their kernels.
    let mmoe_tiny = compile_program(&build_model(Model::Mmoe, ModelConfig::Tiny)).kernel_census();
    assert_eq!(
        mmoe_tiny.specialized(),
        0,
        "Tiny MMoE must run entirely on bytecode: {mmoe_tiny:?}"
    );
    assert!(
        mmoe_tiny.fallback[reason_index(FallbackReason::SmallTe)] > 0,
        "Tiny MMoE gate-sized TEs must fall back small_te: {mmoe_tiny:?}"
    );
    let mmoe = compile_program(&build_model(Model::Mmoe, ModelConfig::Paper)).kernel_census();
    assert!(
        mmoe.fallback[reason_index(FallbackReason::SmallTe)] > 0,
        "Paper MMoE gate-sized TEs must fall back small_te: {mmoe:?}"
    );
    assert!(
        mmoe.row_dot + mmoe.slice_dot > 0,
        "Paper MMoE expert GEMMs must keep specialized dots: {mmoe:?}"
    );
}

/// `fast_math` is the one deliberate bit-identity opt-out: multi-lane
/// partial accumulators reassociate `Sum` dots. Results must stay within
/// the oracle tolerance of the strict order — and on a reduction long
/// enough to accumulate rounding differences, they must actually *differ*
/// somewhere, proving the relaxed path ran (a bit-identical "fast" path
/// would mean the flag silently did nothing).
#[test]
fn fast_math_is_close_but_relaxed() {
    let mut p = TeProgram::new();
    // 16 rows keeps the TE above the small-TE cutoff (16·211 points).
    let w = p.add_weight("W", Shape::new(vec![16, 211]), DType::F32);
    let x = p.add_input("x", Shape::new(vec![211]), DType::F32);
    // gemv: both factors unit-stride over the reduction axis, so the
    // tier selects slice_dot — the kernel fast_math relaxes.
    let y = builders::gemv(&mut p, "y", w, x);
    p.mark_output(y);
    p.validate().unwrap();
    let census = compile_program(&p).kernel_census();
    assert!(
        census.slice_dot > 0,
        "setup must select slice_dot: {census:?}"
    );

    let rt_fast = Runtime::with_options(RuntimeOptions {
        threads: Some(1),
        arena: true,
        max_parallelism: Some(1),
        kernel_tier: Some(true),
        fast_math: true,
    });
    let bindings = random_bindings(&p, 31);
    let want = eval_program(&p, &bindings).unwrap();
    let cp = compile_program(&p);
    let got = rt_fast
        .eval_with_plan(&cp, &ExecPlan::from_compiled(&cp), &bindings)
        .unwrap();
    let tol = Tolerance::default();
    let mut any_diff = false;
    for (id, w) in &want {
        let Some(g) = got.get(id) else { continue };
        for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
            assert!(
                tol.close(*a, *b),
                "fast_math drifted beyond tolerance at [{i}]: strict {a} vs relaxed {b}"
            );
            any_diff |= a.to_bits() != b.to_bits();
        }
    }
    assert!(
        any_diff,
        "a 211-term relaxed sum should differ from the strict order in at least one bit"
    );
}

/// Pool sizes 1, 2 and 8 with the tier forced on and off: the runtimes the
/// piecewise cases sweep (split TEs dispatch each piece on its flat runs,
/// so chunk edges inside and across pieces are on the line).
fn piece_runtimes() -> &'static [(&'static str, Runtime)] {
    static CELL: OnceLock<Vec<(&'static str, Runtime)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let rt = |threads: usize, kernel_tier: bool| {
            Runtime::with_options(RuntimeOptions {
                threads: Some(threads),
                arena: true,
                max_parallelism: Some(threads),
                kernel_tier: Some(kernel_tier),
                ..RuntimeOptions::default()
            })
        };
        vec![
            ("pool 1, kernels on", rt(1, true)),
            ("pool 1, kernels off", rt(1, false)),
            ("pool 2, kernels on", rt(2, true)),
            ("pool 2, kernels off", rt(2, false)),
            ("pool 8, kernels on", rt(8, true)),
            ("pool 8, kernels off", rt(8, false)),
        ]
    })
}

/// Like [`assert_tier_matches_interpreter`], over [`piece_runtimes`].
fn assert_pieces_match_interpreter(program: &TeProgram, seed: u64) {
    let bindings = random_bindings(program, seed);
    let want = eval_program(program, &bindings).expect("interpreter");
    let cp = compile_program(program);
    let plan = ExecPlan::from_compiled(&cp).keeping_intermediates();
    for (label, rt) in piece_runtimes() {
        let got = rt
            .eval_with_plan(&cp, &plan, &bindings)
            .unwrap_or_else(|e| panic!("[{label}] failed: {e:?}"));
        compare_maps(label, program, &want, &got, seed).unwrap();
    }
}

/// Attention-style q/k/v: three sibling matmuls of one `rows × k` input,
/// summed, then horizontally fused into one guard-chain TE.
fn fused_qkv(rows: i64, k: i64, cols: i64) -> TeProgram {
    let mut p = TeProgram::new();
    let x = p.add_input("x", Shape::new(vec![rows, k]), DType::F32);
    let heads: Vec<TensorId> = ["q", "k", "v"]
        .iter()
        .map(|n| {
            let w = p.add_weight(&format!("W{n}"), Shape::new(vec![k, cols]), DType::F32);
            builders::matmul(&mut p, n, x, w)
        })
        .collect();
    let qk = builders::add(&mut p, "qk", heads[0], heads[1]);
    let out = builders::add(&mut p, "qkv", qk, heads[2]);
    p.mark_output(out);
    p.validate().unwrap();
    souffle_transform::horizontal_fuse_program(&p).0
}

/// The fused TE of [`fused_qkv`] and its compiled form.
fn hfuse_te(program: &TeProgram) -> souffle_te::CompiledTe {
    let cp = compile_program(program);
    let (i, _) = program
        .tes()
        .iter()
        .enumerate()
        .find(|(_, te)| te.name.starts_with("hfuse("))
        .expect("horizontal fusion fired");
    cp.tes()[i].clone()
}

/// The q/k/v guard chain on axis 0 splits at its cuts, every piece takes
/// `row_dot`, and results stay bit-exact. Rows 37 and width 29 put both
/// cuts (1073 and 2146 elements) and every row edge off any chunk length
/// the runtime picks (≥ 128 elements at this reduction length), so chunks
/// straddle cuts and start mid-row inside pieces.
#[test]
fn hfuse_guard_chain_on_axis_0_is_piecewise_and_bit_exact() {
    let program = fused_qkv(37, 64, 29);
    let te = hfuse_te(&program);
    assert_eq!(te.split_axis(), Some(0));
    let ranges: Vec<_> = te.pieces().iter().map(|p| p.range()).collect();
    assert_eq!(ranges, vec![0..37, 37..74, 74..111]);
    for piece in te.pieces() {
        assert_eq!(piece.te().kernel(), "row_dot", "{:?}", piece.range());
    }
    for seed in [3, 71] {
        assert_pieces_match_interpreter(&program, seed);
    }
}

/// After `batch_program` the concat guard sits on `v1` behind the batch
/// axis: each batch index runs each piece on one contiguous block.
#[test]
fn hfuse_guard_chain_on_axis_1_after_batching_is_piecewise_and_bit_exact() {
    let program = souffle_transform::batch_program(&fused_qkv(7, 24, 13), 3);
    program.validate().unwrap();
    let te = hfuse_te(&program);
    assert_eq!(te.split_axis(), Some(1));
    assert_eq!(te.pieces().len(), 3);
    for piece in te.pieces() {
        assert_eq!(piece.te().kernel(), "row_dot", "{:?}", piece.range());
    }
    for seed in [5, 1234] {
        assert_pieces_match_interpreter(&program, seed);
    }
}

/// The attention output projection reads the head-split context through
/// a permute and a reshape; vertical fusion composes them into div/mod
/// indices over the reduction variable. Within the box the row becomes
/// affine and the rest a gathered table over `k`, so the matmul takes
/// `row_dot` with no generic access, bit-exactly.
#[test]
fn reshape_permute_matmul_gathers_reduction_operand() {
    let (heads, seq, dh, out) = (4, 19, 16, 24);
    let mut p = TeProgram::new();
    let ctx = p.add_input("ctx", Shape::new(vec![heads, seq, dh]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![heads * dh, out]), DType::F32);
    let t = builders::transpose(&mut p, "permute", ctx, &[1, 0, 2]);
    let r = builders::reshape(&mut p, "merge", t, Shape::new(vec![seq, heads * dh]));
    let y = builders::matmul(&mut p, "proj", r, w);
    p.mark_output(y);
    p.validate().unwrap();
    let fused = souffle_transform::vertical_fuse_program(&p).0;
    let cp = compile_program(&fused);
    let proj = fused
        .tes()
        .iter()
        .position(|te| te.name == "proj")
        .expect("proj survives vertical fusion");
    let te = &cp.tes()[proj];
    assert_eq!(te.kernel(), "row_dot");
    assert_eq!(te.num_generic_accesses(), 0);
    for seed in [9, 4242] {
        assert_pieces_match_interpreter(&fused, seed);
    }
}

/// A padding guard on the reduction variable is not a piece cut: the
/// untaken branch reads out of bounds, so the guard stays lazy bytecode
/// and reports `control_flow`.
#[test]
fn guard_on_reduction_var_still_falls_back() {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![32, 5]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![8, 16]), DType::F32);
    let k = souffle_affine::IndexExpr::var(2);
    let padded = souffle_te::ScalarExpr::select(
        souffle_te::Cond::cmp(
            souffle_te::CmpOp::Lt,
            k.clone(),
            souffle_affine::IndexExpr::constant(5),
        ),
        souffle_te::ScalarExpr::input(0, vec![souffle_affine::IndexExpr::var(0), k.clone()]),
        souffle_te::ScalarExpr::Const(0.0),
    );
    let body = souffle_te::ScalarExpr::binary(
        souffle_te::BinaryOp::Mul,
        padded,
        souffle_te::ScalarExpr::input(1, vec![k, souffle_affine::IndexExpr::var(1)]),
    );
    let t = p.add_te(
        "padded_mm",
        Shape::new(vec![32, 16]),
        DType::F32,
        vec![a, w],
        vec![8],
        Some(souffle_te::ReduceOp::Sum),
        body,
    );
    p.mark_output(t);
    p.validate().unwrap();
    let cp = compile_program(&p);
    let te = &cp.tes()[0];
    assert!(te.pieces().is_empty());
    assert_eq!(te.kernel_fallback_reason(), Some("control_flow"));
    for seed in [2, 77] {
        assert_pieces_match_interpreter(&p, seed);
    }
}

/// Paper-scale census pins for the transformed BERT: every layer's fused
/// q/k/v guard chain is split into `row_dot` pieces, and every `proj`
/// reads its head-split context as a gathered operand on `row_dot` — no
/// bytecode piece among them.
#[test]
fn transformed_bert_qkv_and_proj_take_row_dot() {
    let mut opts = souffle::SouffleOptions::full();
    opts.verify = false; // selection census only
    let program = build_model(Model::Bert, ModelConfig::Paper);
    let fused = souffle::Souffle::new(opts).compile(&program).program;
    let cp = compile_program(&fused);
    let (mut qkv, mut proj) = (0, 0);
    for (te, cte) in fused.tes().iter().zip(cp.tes()) {
        let is_qkv = te.name.starts_with("hfuse(") && te.name.contains(".q+");
        if is_qkv {
            qkv += 1;
            assert!(!cte.pieces().is_empty(), "{} is not split", te.name);
        }
        if is_qkv || te.name.ends_with(".proj") {
            proj += usize::from(!is_qkv);
            for unit in cte.dispatch_units() {
                assert_eq!(unit.kernel(), "row_dot", "{}", te.name);
            }
        }
    }
    assert!(
        qkv > 0 && proj > 0,
        "q/k/v groups {qkv}, projections {proj}"
    );
}

/// Swin's attention output projection reads its windows back through a
/// window-reverse map: div/mod terms of the row variable and of the
/// reduction variable, each of one variable, gathered per variable, so
/// the projection also takes `row_dot`. The window partition feeding
/// q/k/v is gathered the same way inside every piece of its guard chain.
#[test]
fn transformed_swin_window_reverse_proj_takes_row_dot() {
    let mut opts = souffle::SouffleOptions::full();
    opts.verify = false; // selection census only
    let program = build_model(Model::SwinTransformer, ModelConfig::Paper);
    let fused = souffle::Souffle::new(opts).compile(&program).program;
    let cp = compile_program(&fused);
    let (mut proj, mut win) = (0, 0);
    for (te, cte) in fused.tes().iter().zip(cp.tes()) {
        if te.name.ends_with(".proj") {
            proj += 1;
            assert_eq!(cte.kernel(), "row_dot", "{}", te.name);
            assert_eq!(cte.num_generic_accesses(), 0, "{}", te.name);
        }
        // The fused q/k/v window partitions: split at the concat cuts, and
        // every piece — re-based pieces included — reads its window through
        // per-variable tables instead of generic div/mod accesses.
        if te.name.starts_with("hfuse(") && te.name.ends_with(".v.win)") {
            win += 1;
            assert!(cte.pieces().len() > 1, "{} is not split", te.name);
            assert_eq!(cte.num_generic_accesses(), 0, "{}", te.name);
        }
    }
    assert!(
        proj > 0 && win > 0,
        "projections {proj}, window partitions {win}"
    );
}
