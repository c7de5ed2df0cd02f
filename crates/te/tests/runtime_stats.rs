//! Regression tests for `Runtime::take_stats` windowing and the traced
//! evaluation path.
//!
//! The arena bug this pins down: `BufferArena` counters used to
//! accumulate across `eval` calls with no reset, so any per-evaluation
//! reading (including tracer counters) double-counted every earlier run.
//! `take_stats` must return exactly one evaluation's worth of counters
//! per call, identically for every pool size.

use souffle_te::interp::{eval_program, random_bindings};
use souffle_te::{builders, compile_program, ExecPlan, PoolStats, Runtime, TeProgram};
use souffle_tensor::{DType, Shape};
use souffle_trace::Tracer;

/// mm -> (sigmoid, exp) -> add: three wavefront levels, four TEs.
fn diamond() -> TeProgram {
    let mut p = TeProgram::new();
    let a = p.add_input("A", Shape::new(vec![12, 16]), DType::F32);
    let w = p.add_weight("W", Shape::new(vec![16, 8]), DType::F32);
    let mm = builders::matmul(&mut p, "mm", a, w);
    let s = builders::sigmoid(&mut p, "sig", mm);
    let e = builders::exp(&mut p, "exp", mm);
    let out = builders::add(&mut p, "add", s, e);
    p.mark_output(out);
    p.validate().unwrap();
    p
}

#[test]
fn take_stats_windows_per_eval_across_pool_sizes() {
    let p = diamond();
    let cp = compile_program(&p);
    let plan = ExecPlan::from_compiled(&cp);
    let bindings = random_bindings(&p, 3);
    for threads in [1, 2, 8] {
        let rt = Runtime::with_threads(threads);

        // Eval 1: mm/sig/exp are fresh allocations; `add` reuses mm's
        // buffer (freed after level 1, before level 2 acquires).
        rt.eval_with_plan(&cp, &plan, &bindings).unwrap();
        let first = rt.take_stats();
        assert_eq!(
            (first.arena.allocated, first.arena.reused),
            (3, 1),
            "threads={threads}: first eval allocates 3, reuses 1"
        );
        // sig+exp (96 f32 each) are parked between evals.
        assert!(
            first.arena.high_water_bytes >= 2 * 96 * 4,
            "threads={threads}: high water {} too low",
            first.arena.high_water_bytes
        );

        // Evals 2 and 3: steady state — every window reports the *same*
        // counts, which is exactly what the accumulate-forever bug broke.
        let mut windows = Vec::new();
        for _ in 0..2 {
            rt.eval_with_plan(&cp, &plan, &bindings).unwrap();
            windows.push(rt.take_stats());
        }
        for w in &windows {
            assert_eq!(
                (w.arena.reused, w.arena.allocated),
                (3, 1),
                "threads={threads}: steady-state eval reuses 3, allocates 1 (output escapes)"
            );
            assert_eq!(
                w.arena.high_water_bytes, windows[0].arena.high_water_bytes,
                "threads={threads}: steady-state high water must not grow"
            );
        }

        if threads == 1 {
            assert_eq!(first.pool, PoolStats::default(), "no pool, no pool stats");
        }
    }
}

#[test]
fn take_stats_drains_pool_counters() {
    let p = diamond();
    let cp = compile_program(&p);
    let plan = ExecPlan::from_compiled(&cp);
    let bindings = random_bindings(&p, 4);
    let rt = Runtime::with_threads(4);
    rt.eval_with_plan(&cp, &plan, &bindings).unwrap();
    let first = rt.take_stats();
    // Level 1 (sig ‖ exp) submits through the pool.
    assert!(first.pool.tasks >= 2, "pooled level must submit tasks");
    assert!(first.pool.max_queue_depth >= 1);
    // Window semantics: an immediate second take sees nothing.
    let empty = rt.take_stats();
    assert_eq!(empty.pool, PoolStats::default());
    assert_eq!((empty.arena.reused, empty.arena.allocated), (0, 0));
}

#[test]
fn traced_eval_is_bit_identical_and_well_formed() {
    let p = diamond();
    let cp = compile_program(&p);
    let plan = ExecPlan::from_compiled(&cp);
    let bindings = random_bindings(&p, 5);
    let want = eval_program(&p, &bindings).unwrap();
    for threads in [1, 2, 8] {
        let rt = Runtime::with_threads(threads);
        let tracer = Tracer::new();
        let got = rt
            .eval_with_plan_traced(&cp, &plan, &bindings, &tracer, None)
            .unwrap();
        for id in p.outputs() {
            for (a, b) in want[&id].data().iter().zip(got[&id].data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
        let trace = tracer.take();
        trace
            .well_formed()
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        // Structure: eval → level:0..2 → 4 te spans, independent of pool
        // size.
        assert_eq!(
            trace.structure(),
            "eval\n  level:0\n    te:mm\n  level:1\n    te:sig\n    te:exp\n  level:2\n    te:add\n",
            "threads={threads}"
        );
    }
}

#[test]
fn disabled_tracer_records_nothing() {
    let p = diamond();
    let cp = compile_program(&p);
    let plan = ExecPlan::from_compiled(&cp);
    let bindings = random_bindings(&p, 6);
    let rt = Runtime::with_threads(2);
    let tracer = Tracer::disabled();
    rt.eval_with_plan_traced(&cp, &plan, &bindings, &tracer, None)
        .unwrap();
    assert!(tracer.take().spans.is_empty());
}
