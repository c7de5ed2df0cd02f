//! Per-layer profile of the paper-scale compile pipeline.
//!
//! The six Table-2 models are built at paper scale and compiled once with
//! `Souffle::compile_checked` under `SouffleOptions::full()`, which fixes
//! each model's program signature, TE count and kernel count, and its
//! modeled gpusim latency. The pipeline is then re-composed [`REPEATS`]
//! times per model from the layers' public functions, with the verifier
//! and certifier after every stage as `compile_checked` runs them with
//! both on, timing each call. Every re-composition must match the
//! `compile_checked` result, report no verifier error and leave zero
//! certificate residual.

use crate::metrics::{Outcome, PAPER_MODELS};
use crate::ms_since;
use crate::stats::median;
use souffle::analysis::{
    classify_program, find_reuse, live_ranges, partition_program, AnalysisResult, TeGraph,
};
use souffle::frontend::{build_model, Model, ModelConfig};
use souffle::kernel::passes::{pipeline_pass, tensor_reuse_pass};
use souffle::kernel::{lower_partition, Kernel, LowerOptions};
use souffle::sched::{program_signature, schedule_program_with_stats};
use souffle::te::{RewriteLog, TeProgram};
use souffle::transform::{
    horizontal_fuse_program_logged, reduction_fuse_program_logged, vertical_fuse_program_logged,
};
use souffle::verify::{self, Certificate, Diagnostics};
use souffle::{Souffle, SouffleOptions};
use std::time::Instant;

/// Re-compositions timed per model; each per-layer row is their median.
const REPEATS: usize = 2;

/// What every compile of one model must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    signature: u64,
    tes: usize,
    kernels: usize,
}

impl Fingerprint {
    fn of(program: &TeProgram, kernels: &[Kernel]) -> Fingerprint {
        Fingerprint {
            signature: program_signature(program),
            tes: program.num_tes(),
            kernels: kernels.len(),
        }
    }
}

/// Per-layer wall times of one re-composed compile, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    horizontal: f64,
    vertical: f64,
    reduction: f64,
    analysis: f64,
    sched: f64,
    kernel: f64,
    verify: f64,
    certify: f64,
}

/// Runs `f`, adding its wall time in ms to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += ms_since(t0);
    out
}

/// Fails with the collected diagnostics when a verifier stage found an
/// error, as `Souffle::compile_checked` does.
fn gate(found: Diagnostics) -> Result<(), Diagnostics> {
    if found.has_errors() {
        Err(found)
    } else {
        Ok(())
    }
}

/// The pipeline of `Souffle::compile_checked` with the verifier and
/// certifier on, re-composed from the layers' public functions with each
/// call timed.
fn compile_traced(
    program: &TeProgram,
    opts: &SouffleOptions,
) -> Result<(TeProgram, Vec<Kernel>, Stages), Diagnostics> {
    let mut t = Stages::default();
    let verify_stage = |t: &mut Stages, p: &TeProgram, stage: &str| {
        gate(timed(&mut t.verify, || {
            verify::verify_program_stage(p, stage)
        }))
    };
    let certify = |t: &mut Stages, run: &mut dyn FnMut() -> (Certificate, Diagnostics)| {
        let (cert, found) = timed(&mut t.certify, run);
        if cert.residual > 0 {
            return Err(found);
        }
        gate(found)
    };
    let certify_stage =
        |t: &mut Stages, pre: &TeProgram, post: &TeProgram, stage: &str, log: &RewriteLog| {
            certify(t, &mut || verify::certify_transform(pre, post, stage, log))
        };

    verify_stage(&mut t, program, "frontend")?;
    let mut p = program.clone();
    let mut log = RewriteLog::new();
    let (next, _) = timed(&mut t.horizontal, || {
        horizontal_fuse_program_logged(&p, &mut log)
    });
    verify_stage(&mut t, &next, "horizontal")?;
    certify_stage(&mut t, &p, &next, "horizontal", &log)?;
    p = next;
    let mut log = RewriteLog::new();
    let (next, _) = timed(&mut t.vertical, || {
        vertical_fuse_program_logged(&p, &mut log)
    });
    verify_stage(&mut t, &next, "vertical")?;
    certify_stage(&mut t, &p, &next, "vertical", &log)?;
    p = next;
    if opts.resolve_reduction_fusion() {
        let mut log = RewriteLog::new();
        let (next, _) = timed(&mut t.reduction, || {
            reduction_fuse_program_logged(&p, &mut log)
        });
        verify_stage(&mut t, &next, "reduction-fusion")?;
        certify_stage(&mut t, &p, &next, "reduction-fusion", &log)?;
        p = next;
    }

    let spec = &opts.spec;
    let (graph, classes, reuse, liveness) = timed(&mut t.analysis, || {
        let graph = TeGraph::build(&p);
        let classes = classify_program(&p);
        let reuse = find_reuse(&p, &graph);
        let liveness = live_ranges(&p);
        (graph, classes, reuse, liveness)
    });
    let (schedules, _) = timed(&mut t.sched, || schedule_program_with_stats(&p, spec));
    let analysis = timed(&mut t.analysis, || AnalysisResult {
        dependence: p
            .te_ids()
            .map(|id| (id, p.te(id).dependence_kind()))
            .collect(),
        partition: partition_program(&p, &graph, &classes, &schedules, spec),
        wavefronts: graph.wavefronts(),
        classes,
        reuse,
        liveness,
        schedules,
    });

    let mut kernels = timed(&mut t.kernel, || {
        lower_partition(
            &p,
            &analysis.partition,
            &analysis.schedules,
            &analysis.classes,
            LowerOptions::default(),
        )
    });
    gate(timed(&mut t.verify, || {
        verify::verify_kernels_stage(&p, &kernels, "schedule-merge")
    }))?;
    certify(&mut t, &mut || verify::certify_schedule(&p, &kernels))?;
    let cache = opts
        .reuse_cache_bytes
        .unwrap_or(spec.num_sms as u64 * spec.shared_mem_per_sm);
    timed(&mut t.kernel, || {
        for k in &mut kernels {
            tensor_reuse_pass(k, cache);
            pipeline_pass(k);
        }
    });
    gate(timed(&mut t.verify, || {
        verify::verify_kernels_stage(&p, &kernels, "kernel-lowering")
    }))?;
    Ok((p, kernels, t))
}

/// The six paper-scale programs, in [`PAPER_MODELS`] order.
fn build_programs() -> Vec<TeProgram> {
    Model::ALL
        .iter()
        .map(|&m| build_model(m, ModelConfig::Paper))
        .collect()
}

/// Compiles the six paper-scale models and records, per model, the
/// counts, the modeled latency and the median time of each re-composed
/// pipeline stage. Checks every re-composition against `compile_checked`.
pub fn profile(out: &mut Outcome) {
    let souffle = Souffle::new(SouffleOptions::full());
    let checked = SouffleOptions {
        verify: true,
        certify: Some(true),
        ..SouffleOptions::full()
    };
    println!(
        "{:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}   (paper-scale compile stage ms, median of {REPEATS})",
        "model", "horiz", "vert", "reduce", "analysis", "sched", "kernel", "verify", "certify"
    );
    for (m, program) in PAPER_MODELS.iter().zip(build_programs()) {
        let compiled = match souffle.compile_checked(&program) {
            Ok(c) => c,
            Err(d) => {
                out.check(false, || format!("{m}: compile_checked rejected: {d}"));
                continue;
            }
        };
        let want = Fingerprint::of(&compiled.program, &compiled.kernels);
        out.set(format!("transform.tes_after.{m}"), want.tes as f64);
        out.set(format!("kernel.kernels.{m}"), want.kernels as f64);
        out.set(
            format!("gpusim.modeled_us.{m}"),
            souffle.simulate(&compiled).total_time_us(),
        );
        drop(compiled);
        let mut runs = Vec::new();
        for _ in 0..REPEATS {
            match compile_traced(&program, &checked) {
                Ok((p, k, stages)) => {
                    let got = Fingerprint::of(&p, &k);
                    out.check(got == want, || {
                        format!("{m}: re-composed pipeline gave {got:?}, compile_checked {want:?}")
                    });
                    runs.push(stages);
                }
                Err(d) => out.check(false, || format!("{m}: re-composed pipeline rejected: {d}")),
            }
        }
        if runs.is_empty() {
            continue;
        }
        let med = |f: fn(&Stages) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let row = [
            ("transform.horizontal_ms", med(|s| s.horizontal)),
            ("transform.vertical_ms", med(|s| s.vertical)),
            ("transform.reduction_ms", med(|s| s.reduction)),
            ("analysis.ms", med(|s| s.analysis)),
            ("sched.schedule_ms", med(|s| s.sched)),
            ("kernel.ms", med(|s| s.kernel)),
            ("verify.ms", med(|s| s.verify)),
            ("certify.ms", med(|s| s.certify)),
        ];
        print!("{m:<13}");
        for (name, v) in row {
            print!(" {v:>9.3}");
            out.set(format!("{name}.{m}"), v);
        }
        println!();
    }
}
