//! Property-based semantic-preservation tests: random TE programs are
//! generated from the testkit operator vocabulary, transformed, and checked
//! element-wise against the reference interpreter through the differential
//! oracle.
//!
//! Failures report the base seed and a shrunk [`ProgSpec`]; rerun with
//! `TESTKIT_SEED=<seed> cargo test <name>` to reproduce.

use souffle_testkit::oracle::{check_stage, Stage, Tolerance};
use souffle_testkit::teprog::{gen_spec, ProgSpec};
use souffle_testkit::{forall, tk_assert, tk_assert_eq, Config, Rng};
use souffle_transform::{horizontal_fuse_program, transform_program, vertical_fuse_program};

fn gen_case(rng: &mut Rng, max_ops: usize) -> (ProgSpec, u64) {
    (gen_spec(rng, max_ops), rng.u64_in(0..1000))
}

forall!(
    combined_transform_preserves_semantics,
    Config::with_cases(48),
    |rng| gen_case(rng, 10),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(()); // shrunk-out-of-domain candidate
        }
        let program = spec.build();
        tk_assert!(program.validate().is_ok(), "generated program invalid");
        check_stage(&program, Stage::Transform, *seed, &Tolerance::default())
            .map_err(|e| e.to_string())
    }
);

forall!(
    vertical_never_grows_te_count,
    Config::with_cases(48),
    |rng| gen_spec(rng, 10),
    |spec| {
        if spec.ops.is_empty() {
            return Ok(());
        }
        let program = spec.build();
        let (transformed, stats) = vertical_fuse_program(&program);
        tk_assert!(transformed.num_tes() <= program.num_tes());
        tk_assert_eq!(stats.tes_after, transformed.num_tes());
        Ok(())
    }
);

/// The generator's `Fork` op hands horizontal transformation sibling
/// matmuls to concatenate, so the properties over generated programs
/// exercise its guard chains: a good share of drawn specs must fuse.
#[test]
fn generated_programs_exercise_horizontal_fusion() {
    let mut rng = Rng::new(0x5eed);
    let fused = (0..100)
        .filter(|_| {
            horizontal_fuse_program(&gen_spec(&mut rng, 10).build())
                .1
                .horizontal_groups
                > 0
        })
        .count();
    assert!(
        fused >= 20,
        "only {fused} of 100 generated programs fused horizontally"
    );
}

forall!(
    horizontal_is_semantics_preserving_alone,
    Config::with_cases(48),
    |rng| gen_case(rng, 8),
    |(spec, seed)| {
        if spec.ops.is_empty() {
            return Ok(());
        }
        let program = spec.build();
        check_stage(&program, Stage::Horizontal, *seed, &Tolerance::default())
            .map_err(|e| e.to_string())
    }
);

forall!(
    transform_is_deterministic,
    Config::with_cases(48),
    |rng| gen_spec(rng, 8),
    |spec| {
        if spec.ops.is_empty() {
            return Ok(());
        }
        let program = spec.build();
        let (t1, s1) = transform_program(&program);
        let (t2, s2) = transform_program(&program);
        tk_assert_eq!(s1, s2);
        tk_assert_eq!(t1.num_tes(), t2.num_tes());
        Ok(())
    }
);
