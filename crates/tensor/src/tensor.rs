//! Dense row-major tensors.

use crate::{DType, Shape};
use std::fmt;
use std::sync::Arc;

/// A dense, row-major tensor of `f32` values tagged with a logical [`DType`].
///
/// This is the data plane used by the reference TE interpreter and the
/// numeric regression tests; the compiler itself operates symbolically and
/// never touches element data.
///
/// Element data is reference-counted and copied on write: a clone shares
/// the buffer until either side mutates it, so cloning a binding set (a
/// serving request built from a template, the weights bound into every
/// batch) copies no elements.
///
/// ```
/// use souffle_tensor::{Shape, Tensor};
/// let t = Tensor::zeros(Shape::new(vec![2, 2]));
/// assert_eq!(t.at(&[1, 1]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel() as usize;
        Tensor {
            shape,
            dtype: DType::F32,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel() as usize;
        Tensor {
            shape,
            dtype: DType::F32,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Creates a tensor by evaluating `f` at every index (row-major order).
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[i64]) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.numel() as usize);
        for idx in shape.indices() {
            data.push(f(&idx));
        }
        Tensor {
            shape,
            dtype: DType::F32,
            data: Arc::new(data),
        }
    }

    /// Creates a tensor from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len() as i64,
            shape.numel(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor {
            shape,
            dtype: DType::F32,
            data: Arc::new(data),
        }
    }

    /// Creates a tensor of uniform random values in `[-1, 1)`, deterministic
    /// in `seed`.
    pub fn random(shape: Shape, seed: u64) -> Self {
        // A small xorshift generator keeps this crate free of a hard
        // dependency on `rand` for library (non-test) builds.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
    }

    /// Assembles a tensor from its raw parts: shape, logical dtype, and
    /// row-major element data. This is the zero-copy constructor used by
    /// the compiled TE evaluator, which fills a flat buffer directly.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `shape.numel()`.
    pub fn from_parts(shape: Shape, dtype: DType, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len() as i64,
            shape.numel(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor {
            shape,
            dtype,
            data: Arc::new(data),
        }
    }

    /// Consumes the tensor, returning its row-major data buffer (copied
    /// only when a clone still shares it).
    pub fn into_data(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Returns this tensor re-tagged with `dtype` (storage is unchanged).
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's logical dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Borrow of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data (copied first when
    /// a clone shares it).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[i64]) -> f32 {
        self.data[self.shape.linearize(index) as usize]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[i64], value: f32) {
        let flat = self.shape.linearize(index) as usize;
        self.data_mut()[flat] = value;
    }

    /// Size of the tensor in bytes under its logical dtype.
    pub fn size_bytes(&self) -> u64 {
        self.shape.numel() as u64 * self.dtype.size_bytes()
    }

    /// Elementwise approximate equality within absolute + relative
    /// tolerance. Shapes must match exactly.
    pub fn allclose(&self, other: &Tensor, atol: f32, rtol: f32) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(&a, &b)| {
            let tol = atol + rtol * b.abs().max(a.abs());
            (a - b).abs() <= tol || (a.is_nan() && b.is_nan())
        })
    }

    /// Largest absolute elementwise difference; `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }

    /// Applies `f` to each element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            dtype: self.dtype,
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor<{}>{}", self.dtype, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_testkit::{forall, tk_assert, Config};

    #[test]
    fn from_fn_indexes_correctly() {
        let t = Tensor::from_fn(Shape::new(vec![2, 3]), |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor::zeros(Shape::new(vec![2, 2]));
        t.set(&[1, 0], 7.5);
        assert_eq!(t.at(&[1, 0]), 7.5);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(Shape::new(vec![16]), 42);
        let b = Tensor::random(Shape::new(vec![16]), 42);
        let c = Tensor::random(Shape::new(vec![16]), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn size_bytes_respects_dtype() {
        let t = Tensor::zeros(Shape::new(vec![4, 4]));
        assert_eq!(t.size_bytes(), 64);
        assert_eq!(t.with_dtype(DType::F16).size_bytes(), 32);
    }

    #[test]
    fn allclose_tolerates_small_error() {
        let a = Tensor::full(Shape::new(vec![3]), 1.0);
        let b = Tensor::full(Shape::new(vec![3]), 1.0 + 1e-6);
        assert!(a.allclose(&b, 1e-5, 1e-5));
        let c = Tensor::full(Shape::new(vec![3]), 1.1);
        assert!(!a.allclose(&c, 1e-5, 1e-5));
    }

    #[test]
    fn allclose_rejects_shape_mismatch() {
        let a = Tensor::zeros(Shape::new(vec![2]));
        let b = Tensor::zeros(Shape::new(vec![2, 1]));
        assert!(!a.allclose(&b, 1e-5, 1e-5));
        assert_eq!(a.max_abs_diff(&b), None);
    }

    #[test]
    fn from_parts_roundtrips_through_into_data() {
        let t = Tensor::from_parts(Shape::new(vec![2, 2]), DType::F16, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.dtype(), DType::F16);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.into_data(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn clones_share_data_until_written() {
        let a = Tensor::from_vec(Shape::new(vec![3]), vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(
            a.data().as_ptr(),
            b.data().as_ptr(),
            "a clone copies nothing"
        );
        b.set(&[0], 9.0);
        assert_ne!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!((a.at(&[0]), b.at(&[0])), (1.0, 9.0));
        let c = a.clone();
        assert_eq!(c.into_data(), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_parts_length_mismatch_panics() {
        Tensor::from_parts(Shape::new(vec![3]), DType::F32, vec![0.0; 2]);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(Shape::new(vec![3]), vec![1.0, -2.0, 3.0]);
        let r = t.map(f32::abs);
        assert_eq!(r.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(Shape::new(vec![2, 2]), vec![0.0; 3]);
    }

    forall!(
        max_abs_diff_consistent_with_allclose,
        Config::with_cases(64),
        |rng| (
            rng.vec(1..20, |r| r.f32_in(-10.0..10.0)),
            rng.f32_in(0.0..0.5),
        ),
        |(vals, eps)| {
            if vals.is_empty() || *eps < 0.0 {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let shape = Shape::new(vec![vals.len() as i64]);
            let a = Tensor::from_vec(shape.clone(), vals.clone());
            let b = Tensor::from_vec(shape, vals.iter().map(|v| v + eps).collect());
            let d = a.max_abs_diff(&b).unwrap();
            tk_assert!(d <= eps + 1e-6, "diff {d} exceeds eps {eps}");
            if a.allclose(&b, 1e-9, 0.0) {
                tk_assert!(d <= 1e-6);
            }
            Ok(())
        }
    );
}
