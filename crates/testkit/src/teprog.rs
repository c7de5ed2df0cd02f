//! Random well-formed TE-program generation.
//!
//! Programs are described by a [`ProgSpec`] — base shape plus a sequence
//! of [`OpKind`]s — and materialized with [`ProgSpec::build`]. Keeping the
//! *spec* as the generated value (rather than the built `TeProgram`) makes
//! counterexamples shrinkable and printable: the harness shrinks the op
//! list and dimensions, and failure reports can show both the spec and the
//! pretty-printed TE source.
//!
//! The vocabulary deliberately exercises every dependence class the
//! paper's transforms care about: element-wise chains, broadcasts
//! (`Scale`/`AddPrev`), quasi-affine memory operators (strided `Slice`,
//! `Reshape`'s div/mod linearization, `Transpose` permutation),
//! reductions (`Matmul`, `ReduceSum`, `Softmax`), and independent sibling
//! matmuls (`Fork`) — the shape horizontal transformation concatenates.

use crate::rng::Rng;
use crate::shrink::Shrink;
use souffle_te::{builders, ReduceOp, TeProgram, TensorId, UnaryOp};
use souffle_tensor::{DType, Shape};

/// One operator appended to a growing rank-2 program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Element-wise unary: 0 = relu, 1 = sigmoid, 2 = exp, 3 = abs.
    Unary(u8),
    /// Adds an earlier same-shaped tensor (creates reuse / diamonds).
    AddPrev,
    /// Multiplies by the scalar `k as f32 * 0.5 + 0.25`.
    Scale(i8),
    /// Strided slice along axis 0 (quasi-affine access `2*i`).
    Slice,
    /// Transposes the two axes (permutation matrix access).
    Transpose,
    /// Rank-2 refactorization (div/mod linearized access).
    Reshape,
    /// Matrix multiply against a fresh weight (reduction axis).
    Matmul,
    /// Sum over the last axis, reshaped back to rank 2.
    ReduceSum,
    /// Numerically-stabilized softmax over the last axis.
    Softmax,
    /// `2 + k % 2` independent matmuls of the current tensor against fresh
    /// weights, summed: siblings horizontal transformation concatenates
    /// behind a guard chain (like attention's q/k/v projections).
    Fork(u8),
}

impl OpKind {
    /// The full vocabulary, used by the generator.
    pub const ALL: [OpKind; 10] = [
        OpKind::Unary(0),
        OpKind::AddPrev,
        OpKind::Scale(1),
        OpKind::Slice,
        OpKind::Transpose,
        OpKind::Reshape,
        OpKind::Matmul,
        OpKind::ReduceSum,
        OpKind::Softmax,
        OpKind::Fork(1),
    ];
}

impl Shrink for OpKind {
    fn shrink_candidates(&self) -> Vec<Self> {
        // Everything shrinks to the blandest op (relu) so minimal
        // counterexamples keep their length but lose irrelevant structure.
        match self {
            OpKind::Unary(0) => Vec::new(),
            _ => vec![OpKind::Unary(0)],
        }
    }
}

/// A shrinkable description of a random TE program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgSpec {
    /// Base input rows.
    pub d0: i64,
    /// Base input columns.
    pub d1: i64,
    /// Operator sequence.
    pub ops: Vec<OpKind>,
}

impl Shrink for ProgSpec {
    fn shrink_candidates(&self) -> Vec<Self> {
        // Specs with no ops are degenerate (the output would be the raw
        // input), so shrinking stops at one operator.
        let mut out: Vec<ProgSpec> = self
            .ops
            .shrink_candidates()
            .into_iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| ProgSpec {
                ops,
                ..self.clone()
            })
            .collect();
        for (cur, slot) in [(self.d0, 0), (self.d1, 1)] {
            if cur > 2 {
                for nd in [2, cur - 1] {
                    let mut s = self.clone();
                    if slot == 0 {
                        s.d0 = nd;
                    } else {
                        s.d1 = nd;
                    }
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Output columns of each `Fork` branch: wide enough that a three-way
/// fused group over the larger base shapes clears the kernel tier's
/// small-TE cutoff, so its guard chain is split into pieces.
const FORK_WIDTH: i64 = 8;

/// Draws one operator.
pub fn gen_op(rng: &mut Rng) -> OpKind {
    match rng.below(10) {
        0 => OpKind::Unary(rng.u8_in(0..4)),
        1 => OpKind::AddPrev,
        2 => OpKind::Scale(rng.i8_in(-3..4)),
        3 => OpKind::Slice,
        4 => OpKind::Transpose,
        5 => OpKind::Reshape,
        6 => OpKind::Matmul,
        7 => OpKind::ReduceSum,
        8 => OpKind::Softmax,
        _ => OpKind::Fork(rng.u8_in(0..2)),
    }
}

/// Draws a program spec with 1 to `max_ops` operators and small random
/// base shapes.
pub fn gen_spec(rng: &mut Rng, max_ops: usize) -> ProgSpec {
    ProgSpec {
        d0: rng.i64_in(2..7),
        d1: rng.i64_in(2..8),
        ops: rng.vec(1..max_ops.max(2), gen_op),
    }
}

impl ProgSpec {
    /// Materializes the spec into a validated-by-construction TE program.
    /// All intermediate tensors stay rank 2, so every op in the vocabulary
    /// applies at every step regardless of what ran before it.
    pub fn build(&self) -> TeProgram {
        let mut p = TeProgram::new();
        let mut cur = p.add_input("in", Shape::new(vec![self.d0, self.d1]), DType::F32);
        let mut history: Vec<TensorId> = vec![cur];
        for (i, op) in self.ops.iter().enumerate() {
            let name = format!("op{i}");
            let shape = p.tensor(cur).shape.clone();
            cur = match op {
                OpKind::Unary(k) => {
                    let u = [UnaryOp::Relu, UnaryOp::Sigmoid, UnaryOp::Exp, UnaryOp::Abs]
                        [*k as usize % 4];
                    builders::unary(&mut p, &name, u, cur)
                }
                OpKind::AddPrev => {
                    let same: Vec<TensorId> = history
                        .iter()
                        .copied()
                        .filter(|&t| p.tensor(t).shape == shape)
                        .collect();
                    let other = same[same.len() / 2];
                    builders::add(&mut p, &name, cur, other)
                }
                OpKind::Scale(k) => builders::scale(&mut p, &name, cur, f32::from(*k) * 0.5 + 0.25),
                OpKind::Slice => {
                    let d0 = shape.dim(0);
                    if d0 >= 2 {
                        builders::strided_slice(&mut p, &name, cur, 0, 0, 2, d0 / 2)
                    } else {
                        builders::relu(&mut p, &name, cur)
                    }
                }
                OpKind::Transpose => builders::transpose(&mut p, &name, cur, &[1, 0]),
                OpKind::Reshape => {
                    let n = shape.numel();
                    let d0 = if n % 3 == 0 {
                        3
                    } else if n % 2 == 0 {
                        2
                    } else {
                        1
                    };
                    builders::reshape(&mut p, &name, cur, Shape::new(vec![d0, n / d0]))
                }
                OpKind::Matmul => {
                    let k = shape.dim(1);
                    let w = p.add_weight(&format!("w{i}"), Shape::new(vec![k, 4]), DType::F32);
                    builders::matmul(&mut p, &name, cur, w)
                }
                OpKind::ReduceSum => {
                    let r = builders::reduce_last(&mut p, &name, ReduceOp::Sum, cur);
                    let d = p.tensor(r).shape.dim(0);
                    builders::reshape(&mut p, &format!("{name}.r2"), r, Shape::new(vec![d, 1]))
                }
                OpKind::Softmax => builders::softmax(&mut p, &name, cur),
                OpKind::Fork(k) => {
                    let inner = shape.dim(1);
                    let branches: Vec<TensorId> = (0..2 + k % 2)
                        .map(|b| {
                            let w = p.add_weight(
                                &format!("w{i}.{b}"),
                                Shape::new(vec![inner, FORK_WIDTH]),
                                DType::F32,
                            );
                            builders::matmul(&mut p, &format!("{name}.{b}"), cur, w)
                        })
                        .collect();
                    branches[1..]
                        .iter()
                        .enumerate()
                        .fold(branches[0], |acc, (b, &t)| {
                            builders::add(&mut p, &format!("{name}.sum{b}"), acc, t)
                        })
                }
            };
            history.push(cur);
        }
        p.mark_output(cur);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_build_valid_programs() {
        let mut rng = Rng::new(0xBEEF);
        for _ in 0..200 {
            let spec = gen_spec(&mut rng, 10);
            let p = spec.build();
            assert!(p.validate().is_ok(), "invalid program from {spec:?}");
            assert_eq!(p.outputs().len(), 1);
        }
    }

    #[test]
    fn shrunk_specs_still_build() {
        let mut rng = Rng::new(0xF00D);
        for _ in 0..50 {
            let spec = gen_spec(&mut rng, 8);
            for cand in spec.shrink_candidates() {
                assert!(!cand.ops.is_empty());
                assert!(cand.build().validate().is_ok(), "shrunk {cand:?} invalid");
            }
        }
    }

    #[test]
    fn vocabulary_reaches_reductions_and_memory_ops() {
        let mut rng = Rng::new(1);
        let mut seen_reduce = false;
        let mut seen_quasi = false;
        let mut seen_fork = false;
        for _ in 0..100 {
            let spec = gen_spec(&mut rng, 12);
            for op in &spec.ops {
                match op {
                    OpKind::Matmul | OpKind::ReduceSum | OpKind::Softmax => seen_reduce = true,
                    OpKind::Slice | OpKind::Reshape => seen_quasi = true,
                    OpKind::Fork(_) => seen_fork = true,
                    _ => {}
                }
            }
        }
        assert!(seen_reduce && seen_quasi && seen_fork);
    }
}
