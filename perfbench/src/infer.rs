//! `infer-full`: round-robin `Souffle::eval_outputs` over seven programs —
//! the six tiny models plus BERT at bench scale — in a closed loop by one
//! caller, on the default runtime streams.
//!
//! Set-up compiles every program with `SouffleOptions::v0()` and
//! `SouffleOptions::full()`; the timed loop evaluates the `full()`
//! programs. Every output must be bit-identical to
//! `souffle_te::interp::eval_program` on the untransformed frontend
//! program, computed once after set-up.
//!
//! The traced run times the two public calls `eval_outputs` makes —
//! `compile_program` plus the plan build, then `Runtime::eval_with_plan` —
//! for both variants, interleaved with the untraced `eval_outputs` calls,
//! so `te.full_over_v0.<p>` compares them under the same conditions. After
//! its timed window it also profiles the compile layers on the six
//! paper-scale models ([`crate::compile::profile`]).

use crate::metrics::{Outcome, ZOO};
use crate::stats::{geomean, median, program_summary, values};
use crate::{bit_identical, ms_since, timed_setup, Args};
use souffle::frontend::models::bert::{self, BertConfig};
use souffle::frontend::{build_model, Model, ModelConfig};
use souffle::te::interp::{eval_program, random_bindings};
use souffle::te::{compile_program, CompiledProgram, ExecPlan, TeProgram, TensorId};
use souffle::tensor::Tensor;
use souffle::{Compiled, Souffle, SouffleOptions};
use souffle_testkit::Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Distinct input sets per program.
const INPUT_SETS: usize = 2;

/// BERT at the pipeline bench's scale: big enough that the kernel tier's
/// matmul paths dominate, small enough for the interpreter reference.
const BERT_BENCH: BertConfig = BertConfig {
    layers: 2,
    hidden: 64,
    heads: 4,
    seq: 64,
    ffn: 256,
};

type Bindings = HashMap<TensorId, Tensor>;

/// One program of the zoo, compiled both ways, with its inputs.
struct Entry {
    program: TeProgram,
    v0: Compiled,
    full: Compiled,
    inputs: Vec<Bindings>,
}

fn build_programs() -> Vec<TeProgram> {
    let mut programs: Vec<TeProgram> = Model::ALL
        .iter()
        .map(|&m| build_model(m, ModelConfig::Tiny))
        .collect();
    programs.push(bert::build(&BERT_BENCH));
    programs
}

/// Evaluations of one program per window of its tail: p90 with exactly
/// ten beyond it in each window.
const TAIL_WINDOW: usize = 100;

/// Set-ups before and after the timed window; `setup_s` is their median.
const SETUPS: (usize, usize) = (5, 4);

/// Builds and compiles the zoo, then evaluates every program and input
/// set once with `full()`, so the runtime's pool and arena are warm before
/// timing.
fn setup(seed: u64, v0: &Souffle, full: &Souffle) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    let zoo: Vec<Entry> = build_programs()
        .into_iter()
        .map(|program| Entry {
            v0: v0.compile(&program),
            full: full.compile(&program),
            inputs: (0..INPUT_SETS)
                .map(|_| random_bindings(&program, rng.next_u64()))
                .collect(),
            program,
        })
        .collect();
    for e in &zoo {
        for b in &e.inputs {
            // Checked in the timed loop, which evaluates the same inputs.
            let _ = full.eval_outputs(&e.full, b);
        }
    }
    zoo
}

/// The plan `Souffle::eval_outputs` builds: analysis wavefronts for the
/// levels, analysis liveness for buffer recycling.
fn exec_plan(compiled: &Compiled, cp: &CompiledProgram) -> ExecPlan {
    let mut level_of = vec![0usize; cp.tes().len()];
    for (lvl, wave) in compiled.analysis.wavefronts.iter().enumerate() {
        for te in wave {
            level_of[te.0] = lvl;
        }
    }
    let last_use: Vec<Option<usize>> = (0..compiled.program.num_tensors())
        .map(|i| {
            compiled
                .analysis
                .liveness
                .get(&TensorId(i))
                .and_then(|r| r.last_use)
        })
        .collect();
    ExecPlan::with_levels_and_last_use(cp, &level_of, &last_use)
}

/// Traced samples of one program and variant: prepare and eval, in ms.
#[derive(Default, Clone)]
struct Traced {
    prepare: Vec<f64>,
    eval: Vec<f64>,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let v0 = Souffle::new(SouffleOptions::v0());
    let full = Souffle::new(SouffleOptions::full());
    let (zoo, mut setup_times) = timed_setup(SETUPS.0, || setup(args.seed, &v0, &full));
    if args.trace {
        let t0 = Instant::now();
        let _ = build_programs();
        out.set("frontend.build_ms", ms_since(t0));
    }
    // The reference oracle: the interpreter on the untransformed program.
    let references: Vec<Vec<Bindings>> = zoo
        .iter()
        .map(|e| {
            e.inputs
                .iter()
                .map(|b| {
                    let mut all = eval_program(&e.program, b).expect("reference interpreter");
                    let outputs = e.program.outputs();
                    all.retain(|id, _| outputs.contains(id));
                    all
                })
                .collect()
        })
        .collect();
    let mut rng = Rng::new(args.seed ^ 0x1f3d);
    let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); zoo.len()];
    let mut traced: Vec<[Traced; 2]> = vec![Default::default(); zoo.len()];
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < args.budget() {
        for (i, e) in zoo.iter().enumerate() {
            let k = rng.below(INPUT_SETS as u64) as usize;
            let t0 = Instant::now();
            let result = full.eval_outputs(&e.full, &e.inputs[k]);
            let ms = ms_since(t0);
            out.attempted += 1;
            if result.is_ok_and(|got| bit_identical(&references[i][k], &got)) {
                samples[i].push(((t0 - start).as_secs_f64(), ms));
            } else {
                out.failed += 1;
                println!("{} eval failed or differs", ZOO[i]);
            }
            if args.trace {
                for (j, (s, c)) in [(&v0, &e.v0), (&full, &e.full)].into_iter().enumerate() {
                    let t0 = Instant::now();
                    let cp = compile_program(&c.program);
                    let plan = exec_plan(c, &cp);
                    traced[i][j].prepare.push(ms_since(t0));
                    let t0 = Instant::now();
                    let got = s.runtime().eval_with_plan(&cp, &plan, &e.inputs[k]);
                    traced[i][j].eval.push(ms_since(t0));
                    let ok = got.is_ok_and(|g| bit_identical(&references[i][k], &g));
                    out.check(ok, || format!("{} traced eval differs", ZOO[i]));
                }
            }
        }
        rounds += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    println!(
        "{rounds} rounds over {} programs in {wall_s:.2} s",
        zoo.len()
    );
    println!(
        "{:<13} {:>10} {:>8}   (eval_outputs ms)",
        "program", "median", "n"
    );
    for (i, s) in samples.iter().enumerate() {
        if !s.is_empty() {
            println!("{:<13} {:>10.4} {:>8}", ZOO[i], median(&values(s)), s.len());
        }
    }
    let ok: u64 = samples.iter().map(|s| s.len() as u64).sum();
    out.set("throughput_per_s", ok as f64 / wall_s);
    if samples.iter().all(|s| !s.is_empty()) {
        if let Some((m, t, pct, n)) = program_summary(&samples, TAIL_WINDOW) {
            println!(
                "geomean median {m:.4} ms, geomean tail {t:.4} ms (p{pct} over windows \
                 of {TAIL_WINDOW} evaluations of a program, {n} samples)"
            );
            out.set("median_ms", m);
            out.set("tail_ms", t);
        }
    }
    if args.trace {
        report_traced(&mut out, &zoo, &samples, &traced);
        crate::compile::profile(&mut out);
    }
    drop(zoo);
    setup_times.extend(timed_setup(SETUPS.1, || setup(args.seed, &v0, &full)).1);
    out.set("setup_s", median(&setup_times));
    out
}

fn report_traced(
    out: &mut Outcome,
    zoo: &[Entry],
    samples: &[Vec<(f64, f64)>],
    traced: &[[Traced; 2]],
) {
    println!(
        "{:<13} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}   (traced ms, median)",
        "program", "prep v0", "eval v0", "prep full", "eval full", "full/v0", "bytecode"
    );
    let mut overhead = Vec::new();
    for (i, t) in traced.iter().enumerate() {
        let p = ZOO[i];
        let [v0, full] = t;
        let ratio = median(&full.eval) / median(&v0.eval);
        let bytecode = compile_program(&zoo[i].full.program)
            .kernel_census()
            .bytecode();
        println!(
            "{p:<13} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {ratio:>9.3} {bytecode:>9}",
            median(&v0.prepare),
            median(&v0.eval),
            median(&full.prepare),
            median(&full.eval)
        );
        for (variant, tv) in [("v0", v0), ("full", full)] {
            out.set(format!("te.prepare_ms.{p}.{variant}"), median(&tv.prepare));
            out.set(format!("te.eval_ms.{p}.{variant}"), median(&tv.eval));
        }
        out.set(format!("te.bytecode_tes.{p}.full"), bytecode as f64);
        out.set(format!("te.full_over_v0.{p}"), ratio);
        if !samples[i].is_empty() {
            overhead
                .push((median(&full.prepare) + median(&full.eval)) / median(&values(&samples[i])));
        }
    }
    if overhead.len() == traced.len() {
        let pct = (geomean(&overhead) - 1.0) * 100.0;
        println!("traced over untraced eval: {pct:+.2} %");
        out.set("souffle.trace_overhead_pct", pct);
    }
}
