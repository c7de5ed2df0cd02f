//! Quasi-affine integer index expressions.

use std::fmt;

/// A quasi-affine integer expression over positional variables `v0..vn`.
///
/// The affine fragment (`Var`, `Const`, `Add`, `Sub`, `Mul` by constant)
/// corresponds exactly to the paper's `M·v + c` form (Eq. 1). Floor
/// division and modulo extend it to the *quasi*-affine maps the paper uses
/// for `reshape`-style operators (linearize/delinearize are quasi-affine).
///
/// ```
/// use souffle_affine::IndexExpr;
/// // (2*v0 + v1) mod 4
/// let e = IndexExpr::var(0).mul(2).add(IndexExpr::var(1)).modulo(4);
/// assert_eq!(e.eval(&[3, 1]), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// The `i`-th input variable.
    Var(usize),
    /// An integer constant.
    Const(i64),
    /// Sum of two expressions.
    Add(Box<IndexExpr>, Box<IndexExpr>),
    /// Difference of two expressions.
    Sub(Box<IndexExpr>, Box<IndexExpr>),
    /// Product with a constant (affine maps only permit constant factors).
    Mul(Box<IndexExpr>, i64),
    /// Floor division by a positive constant.
    FloorDiv(Box<IndexExpr>, i64),
    /// Euclidean remainder by a positive constant.
    Mod(Box<IndexExpr>, i64),
}

#[allow(clippy::should_implement_trait)] // fluent builder API: add/sub/mul are index arithmetic, not std ops
impl IndexExpr {
    /// Shorthand for [`IndexExpr::Var`].
    pub fn var(i: usize) -> Self {
        IndexExpr::Var(i)
    }

    /// Shorthand for [`IndexExpr::Const`].
    pub fn constant(c: i64) -> Self {
        IndexExpr::Const(c)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: IndexExpr) -> Self {
        IndexExpr::Add(Box::new(self), Box::new(rhs)).simplified()
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: IndexExpr) -> Self {
        IndexExpr::Sub(Box::new(self), Box::new(rhs)).simplified()
    }

    /// `self * k`.
    pub fn mul(self, k: i64) -> Self {
        IndexExpr::Mul(Box::new(self), k).simplified()
    }

    /// `self / k` (floor), `k > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn floor_div(self, k: i64) -> Self {
        assert!(k > 0, "floor_div requires a positive divisor, got {k}");
        IndexExpr::FloorDiv(Box::new(self), k).simplified()
    }

    /// `self mod k` (Euclidean), `k > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn modulo(self, k: i64) -> Self {
        assert!(k > 0, "modulo requires a positive modulus, got {k}");
        IndexExpr::Mod(Box::new(self), k).simplified()
    }

    /// Evaluates the expression with values `vars[i]` for `Var(i)`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `vars`.
    pub fn eval(&self, vars: &[i64]) -> i64 {
        match self {
            IndexExpr::Var(i) => vars[*i],
            IndexExpr::Const(c) => *c,
            IndexExpr::Add(a, b) => a.eval(vars) + b.eval(vars),
            IndexExpr::Sub(a, b) => a.eval(vars) - b.eval(vars),
            IndexExpr::Mul(a, k) => a.eval(vars) * k,
            IndexExpr::FloorDiv(a, k) => a.eval(vars).div_euclid(*k),
            IndexExpr::Mod(a, k) => a.eval(vars).rem_euclid(*k),
        }
    }

    /// Substitutes `subs[i]` for `Var(i)`, composing index functions.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `subs`.
    pub fn substitute(&self, subs: &[IndexExpr]) -> IndexExpr {
        let out = match self {
            IndexExpr::Var(i) => subs[*i].clone(),
            IndexExpr::Const(c) => IndexExpr::Const(*c),
            IndexExpr::Add(a, b) => {
                IndexExpr::Add(Box::new(a.substitute(subs)), Box::new(b.substitute(subs)))
            }
            IndexExpr::Sub(a, b) => {
                IndexExpr::Sub(Box::new(a.substitute(subs)), Box::new(b.substitute(subs)))
            }
            IndexExpr::Mul(a, k) => IndexExpr::Mul(Box::new(a.substitute(subs)), *k),
            IndexExpr::FloorDiv(a, k) => IndexExpr::FloorDiv(Box::new(a.substitute(subs)), *k),
            IndexExpr::Mod(a, k) => IndexExpr::Mod(Box::new(a.substitute(subs)), *k),
        };
        out.simplified()
    }

    /// Largest variable index referenced, or `None` for constant expressions.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            IndexExpr::Var(i) => Some(*i),
            IndexExpr::Const(_) => None,
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => a.max_var().max(b.max_var()),
            IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => a.max_var(),
        }
    }

    /// Calls `f` for every `Var(i)` occurrence (with repetition).
    pub fn for_each_var(&self, f: &mut dyn FnMut(usize)) {
        match self {
            IndexExpr::Var(i) => f(*i),
            IndexExpr::Const(_) => {}
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => {
                a.for_each_var(f)
            }
        }
    }

    /// Remaps every `Var(i)` to `Var(i + offset)`.
    pub fn shift_vars(&self, offset: usize) -> IndexExpr {
        match self {
            IndexExpr::Var(i) => IndexExpr::Var(i + offset),
            IndexExpr::Const(c) => IndexExpr::Const(*c),
            IndexExpr::Add(a, b) => IndexExpr::Add(
                Box::new(a.shift_vars(offset)),
                Box::new(b.shift_vars(offset)),
            ),
            IndexExpr::Sub(a, b) => IndexExpr::Sub(
                Box::new(a.shift_vars(offset)),
                Box::new(b.shift_vars(offset)),
            ),
            IndexExpr::Mul(a, k) => IndexExpr::Mul(Box::new(a.shift_vars(offset)), *k),
            IndexExpr::FloorDiv(a, k) => IndexExpr::FloorDiv(Box::new(a.shift_vars(offset)), *k),
            IndexExpr::Mod(a, k) => IndexExpr::Mod(Box::new(a.shift_vars(offset)), *k),
        }
    }

    /// Returns `(coeffs, constant)` if the expression is purely affine:
    /// `sum(coeffs[i] * v_i) + constant`. `coeffs` is sized to `n_vars`.
    ///
    /// Quasi-affine sub-terms (`FloorDiv`/`Mod` over non-constant operands)
    /// yield `None`.
    pub fn as_linear(&self, n_vars: usize) -> Option<(Vec<i64>, i64)> {
        let mut coeffs = vec![0i64; n_vars];
        let mut constant = 0i64;
        self.accumulate_linear(n_vars, 1, &mut coeffs, &mut constant)?;
        Some((coeffs, constant))
    }

    /// Adds `factor` times the expression's linear form into `coeffs`
    /// (one slot per variable) and `constant` — [`IndexExpr::as_linear`]
    /// without the allocation, for building strided flat offsets. Returns
    /// `None`, with a partial sum written, when the expression is not
    /// affine over `coeffs.len()` variables.
    pub fn add_linear_to(&self, factor: i64, coeffs: &mut [i64], constant: &mut i64) -> Option<()> {
        self.accumulate_linear(coeffs.len(), factor, coeffs, constant)
    }

    fn accumulate_linear(
        &self,
        n_vars: usize,
        factor: i64,
        coeffs: &mut [i64],
        constant: &mut i64,
    ) -> Option<()> {
        match self {
            IndexExpr::Var(i) => {
                if *i >= n_vars {
                    return None;
                }
                coeffs[*i] += factor;
                Some(())
            }
            IndexExpr::Const(c) => {
                *constant += factor * c;
                Some(())
            }
            IndexExpr::Add(a, b) => {
                a.accumulate_linear(n_vars, factor, coeffs, constant)?;
                b.accumulate_linear(n_vars, factor, coeffs, constant)
            }
            IndexExpr::Sub(a, b) => {
                a.accumulate_linear(n_vars, factor, coeffs, constant)?;
                b.accumulate_linear(n_vars, -factor, coeffs, constant)
            }
            IndexExpr::Mul(a, k) => a.accumulate_linear(n_vars, factor * k, coeffs, constant),
            IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => None,
        }
    }

    /// Whether the expression is purely affine (no floor-div / mod).
    pub fn is_affine(&self) -> bool {
        match self {
            IndexExpr::Var(_) | IndexExpr::Const(_) => true,
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => a.is_affine() && b.is_affine(),
            IndexExpr::Mul(a, _) => a.is_affine(),
            IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => false,
        }
    }

    /// Simplifies by constant folding, dropping additive/multiplicative
    /// identities, and canonicalizing affine sub-expressions to a sorted
    /// sum-of-terms form. Floor-div/mod over exactly divisible affine bodies
    /// are reduced (e.g. `(4*v0)/4 → v0`), which is what makes
    /// reshape-then-inverse-reshape compose back to the identity map.
    pub fn simplified(&self) -> IndexExpr {
        // First canonicalize affine parts.
        let n = self.max_var().map_or(0, |m| m + 1);
        if let Some((coeffs, c)) = self.as_linear(n) {
            return IndexExpr::from_linear(&coeffs, c);
        }
        match self {
            IndexExpr::Add(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (IndexExpr::Const(x), IndexExpr::Const(y)) => IndexExpr::Const(x + y),
                    (IndexExpr::Const(0), _) => b,
                    (_, IndexExpr::Const(0)) => a,
                    _ => IndexExpr::Add(Box::new(a), Box::new(b)),
                }
            }
            IndexExpr::Sub(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (IndexExpr::Const(x), IndexExpr::Const(y)) => IndexExpr::Const(x - y),
                    (_, IndexExpr::Const(0)) => a,
                    _ => IndexExpr::Sub(Box::new(a), Box::new(b)),
                }
            }
            IndexExpr::Mul(a, k) => {
                let a = a.simplified();
                match (&a, *k) {
                    (_, 0) => IndexExpr::Const(0),
                    (_, 1) => a,
                    (IndexExpr::Const(x), k) => IndexExpr::Const(x * k),
                    _ => IndexExpr::Mul(Box::new(a), *k),
                }
            }
            IndexExpr::FloorDiv(a, k) => {
                let a = a.simplified();
                if *k == 1 {
                    return a;
                }
                if let IndexExpr::Const(x) = a {
                    return IndexExpr::Const(x.div_euclid(*k));
                }
                // (sum of terms all divisible by k) / k
                let n = a.max_var().map_or(0, |m| m + 1);
                if let Some((coeffs, c)) = a.as_linear(n) {
                    if coeffs.iter().all(|&co| co % k == 0) && c % k == 0 {
                        let coeffs: Vec<i64> = coeffs.iter().map(|co| co / k).collect();
                        return IndexExpr::from_linear(&coeffs, c / k);
                    }
                }
                IndexExpr::FloorDiv(Box::new(a), *k)
            }
            IndexExpr::Mod(a, k) => {
                let a = a.simplified();
                if *k == 1 {
                    return IndexExpr::Const(0);
                }
                if let IndexExpr::Const(x) = a {
                    return IndexExpr::Const(x.rem_euclid(*k));
                }
                let n = a.max_var().map_or(0, |m| m + 1);
                if let Some((coeffs, c)) = a.as_linear(n) {
                    if coeffs.iter().all(|&co| co % k == 0) && c % k == 0 {
                        return IndexExpr::Const(0);
                    }
                }
                IndexExpr::Mod(Box::new(a), *k)
            }
            other => other.clone(),
        }
    }

    /// Simplifies under the knowledge that every `Var(i)` lies in
    /// `bounds[i] = (lo, hi)` (inclusive). The result evaluates to the same
    /// value as `self` at every point of that box, and nowhere else is
    /// promised.
    ///
    /// Each floor-div/mod by `k` splits its operand's sum of terms into the
    /// `k`-divisible part `Q` (the constant's multiple of `k` included) and
    /// the remainder `R`, then rewrites `floor((k·Q + R)/k) → Q + floor(R/k)`
    /// and `(k·Q + R) mod k → R mod k`. When the interval of `R` over the box
    /// lies inside one block `[m·k, (m+1)·k)`, `floor(R/k)` becomes `m` and
    /// `R mod k` becomes `R - m·k`. This is what turns the flat-index
    /// linearize/delinearize pairs left by composed reshapes back into affine
    /// accesses, e.g. `(64·v0 + 16·v1 + v2) / 64 → v0` for `v1 < 4, v2 < 16`.
    ///
    /// [`IndexExpr::simplified`] is box-free and stays the canonical form;
    /// this method is for consumers that know the iteration box.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `bounds`.
    pub fn simplified_within(&self, bounds: &[(i64, i64)]) -> IndexExpr {
        Terms::of(self, bounds).to_expr()
    }

    /// Conservative interval of the expression when each variable `v_i`
    /// ranges over `bounds[i] = (lo, hi)` inclusive. Used for static bounds
    /// checking and for tile-footprint estimation in the scheduler.
    ///
    /// All arithmetic saturates at `i64::MIN`/`i64::MAX`, so adversarial
    /// coefficients cannot overflow the bound computation into a spuriously
    /// in-bounds interval — a saturated bound is still an over-approximation
    /// of the true range, which is the safe direction for a verifier.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `bounds`.
    pub fn interval(&self, bounds: &[(i64, i64)]) -> (i64, i64) {
        match self {
            IndexExpr::Var(i) => bounds[*i],
            IndexExpr::Const(c) => (*c, *c),
            IndexExpr::Add(a, b) => {
                let (al, ah) = a.interval(bounds);
                let (bl, bh) = b.interval(bounds);
                (al.saturating_add(bl), ah.saturating_add(bh))
            }
            IndexExpr::Sub(a, b) => {
                let (al, ah) = a.interval(bounds);
                let (bl, bh) = b.interval(bounds);
                (al.saturating_sub(bh), ah.saturating_sub(bl))
            }
            IndexExpr::Mul(a, k) => {
                let (al, ah) = a.interval(bounds);
                if *k >= 0 {
                    (al.saturating_mul(*k), ah.saturating_mul(*k))
                } else {
                    (ah.saturating_mul(*k), al.saturating_mul(*k))
                }
            }
            IndexExpr::FloorDiv(a, k) => {
                let (al, ah) = a.interval(bounds);
                (al.div_euclid(*k), ah.div_euclid(*k))
            }
            IndexExpr::Mod(a, k) => {
                let (al, ah) = a.interval(bounds);
                if al.div_euclid(*k) == ah.div_euclid(*k) {
                    (al.rem_euclid(*k), ah.rem_euclid(*k))
                } else {
                    (0, k - 1)
                }
            }
        }
    }

    /// Builds a canonical affine expression from coefficients and constant.
    pub fn from_linear(coeffs: &[i64], constant: i64) -> IndexExpr {
        let mut expr: Option<IndexExpr> = None;
        for (i, &c) in coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let term = if c == 1 {
                IndexExpr::Var(i)
            } else {
                IndexExpr::Mul(Box::new(IndexExpr::Var(i)), c)
            };
            expr = Some(match expr {
                None => term,
                Some(e) => IndexExpr::Add(Box::new(e), Box::new(term)),
            });
        }
        match (expr, constant) {
            (None, c) => IndexExpr::Const(c),
            (Some(e), 0) => e,
            (Some(e), c) => IndexExpr::Add(Box::new(e), Box::new(IndexExpr::Const(c))),
        }
    }
}

/// A sum of terms `Σ coeff·atom + constant`, where an atom is a variable or
/// an irreducible floor-div/mod: the working form of
/// [`IndexExpr::simplified_within`].
struct Terms {
    atoms: Vec<(IndexExpr, i64)>,
    constant: i64,
}

impl Terms {
    fn constant(c: i64) -> Terms {
        Terms {
            atoms: Vec::new(),
            constant: c,
        }
    }

    fn atom(e: IndexExpr) -> Terms {
        Terms {
            atoms: vec![(e, 1)],
            constant: 0,
        }
    }

    fn of(e: &IndexExpr, bounds: &[(i64, i64)]) -> Terms {
        match e {
            IndexExpr::Var(_) => Terms::atom(e.clone()),
            IndexExpr::Const(c) => Terms::constant(*c),
            IndexExpr::Add(a, b) => Terms::of(a, bounds).plus(Terms::of(b, bounds), 1),
            IndexExpr::Sub(a, b) => Terms::of(a, bounds).plus(Terms::of(b, bounds), -1),
            IndexExpr::Mul(a, k) => Terms::constant(0).plus(Terms::of(a, bounds), *k),
            IndexExpr::FloorDiv(a, k) => {
                let (q, r) = Terms::of(a, bounds).split(*k);
                match r.block(*k, bounds) {
                    Some(m) => q.plus(Terms::constant(m), 1),
                    None => q.plus(
                        Terms::atom(IndexExpr::FloorDiv(Box::new(r.to_expr()), *k)),
                        1,
                    ),
                }
            }
            IndexExpr::Mod(a, k) => {
                let (_, r) = Terms::of(a, bounds).split(*k);
                match r.block(*k, bounds) {
                    Some(m) => r.plus(Terms::constant(m), -*k),
                    None => Terms::atom(IndexExpr::Mod(Box::new(r.to_expr()), *k)),
                }
            }
        }
    }

    /// `self + sign·other`, merging equal atoms.
    fn plus(mut self, other: Terms, sign: i64) -> Terms {
        for (atom, c) in other.atoms {
            match self.atoms.iter_mut().find(|(a, _)| *a == atom) {
                Some((_, acc)) => *acc += sign * c,
                None => self.atoms.push((atom, sign * c)),
            }
        }
        self.constant += sign * other.constant;
        self.atoms.retain(|(_, c)| *c != 0);
        self
    }

    /// Splits into `(Q, R)` with `self = k·Q + R`: `Q` takes the atoms whose
    /// coefficient `k` divides and the constant's floor multiple of `k`.
    fn split(self, k: i64) -> (Terms, Terms) {
        let mut q = Terms::constant(self.constant.div_euclid(k));
        let mut r = Terms::constant(self.constant.rem_euclid(k));
        for (atom, c) in self.atoms {
            if c % k == 0 {
                q.atoms.push((atom, c / k));
            } else {
                r.atoms.push((atom, c));
            }
        }
        (q, r)
    }

    /// The block `m` with `self ∈ [m·k, (m+1)·k)` everywhere on the box,
    /// if interval analysis proves there is one.
    fn block(&self, k: i64, bounds: &[(i64, i64)]) -> Option<i64> {
        let (mut lo, mut hi) = (self.constant, self.constant);
        for (atom, c) in &self.atoms {
            let (al, ah) = atom.interval(bounds);
            let (x, y) = (al.saturating_mul(*c), ah.saturating_mul(*c));
            lo = lo.saturating_add(x.min(y));
            hi = hi.saturating_add(x.max(y));
        }
        let m = lo.div_euclid(k);
        let saturated = lo == i64::MIN || hi == i64::MAX;
        (!saturated && m == hi.div_euclid(k)).then_some(m)
    }

    fn to_expr(&self) -> IndexExpr {
        let n = self
            .atoms
            .iter()
            .filter_map(|(a, _)| match a {
                IndexExpr::Var(i) => Some(i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut coeffs = vec![0i64; n];
        let mut rest: Option<IndexExpr> = None;
        for (atom, c) in &self.atoms {
            match atom {
                IndexExpr::Var(i) => coeffs[*i] += c,
                _ => {
                    let term = if *c == 1 {
                        atom.clone()
                    } else {
                        IndexExpr::Mul(Box::new(atom.clone()), *c)
                    };
                    rest = Some(match rest {
                        None => term,
                        Some(e) => IndexExpr::Add(Box::new(e), Box::new(term)),
                    });
                }
            }
        }
        let linear = IndexExpr::from_linear(&coeffs, self.constant);
        match (rest, linear) {
            (None, linear) => linear,
            (Some(rest), IndexExpr::Const(0)) => rest,
            (Some(rest), linear) => IndexExpr::Add(Box::new(linear), Box::new(rest)),
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Var(i) => write!(f, "v{i}"),
            IndexExpr::Const(c) => write!(f, "{c}"),
            IndexExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IndexExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IndexExpr::Mul(a, k) => write!(f, "{k}*{a}"),
            IndexExpr::FloorDiv(a, k) => write!(f, "({a} / {k})"),
            IndexExpr::Mod(a, k) => write!(f, "({a} % {k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_testkit::{forall, tk_assert_eq, Config, Rng, Shrink};

    #[test]
    fn eval_basic() {
        let e = IndexExpr::var(0).mul(2).add(IndexExpr::var(1));
        assert_eq!(e.eval(&[3, 4]), 10);
    }

    #[test]
    fn substitute_composes() {
        // e = v0 + 2*v1 ; subs v0 -> v0*3, v1 -> 5
        let e = IndexExpr::var(0).add(IndexExpr::var(1).mul(2));
        let s = e.substitute(&[IndexExpr::var(0).mul(3), IndexExpr::constant(5)]);
        assert_eq!(s.eval(&[2]), 16);
    }

    #[test]
    fn simplify_identities() {
        assert_eq!(IndexExpr::var(0).mul(1), IndexExpr::Var(0));
        assert_eq!(IndexExpr::var(0).mul(0), IndexExpr::Const(0));
        assert_eq!(
            IndexExpr::var(0).add(IndexExpr::constant(0)),
            IndexExpr::Var(0)
        );
        assert_eq!(IndexExpr::constant(7).floor_div(2), IndexExpr::Const(3));
        assert_eq!(IndexExpr::constant(7).modulo(2), IndexExpr::Const(1));
    }

    #[test]
    fn divisible_div_mod_reduce() {
        // (4*v0 + 8) / 4 == v0 + 2
        let e = IndexExpr::var(0)
            .mul(4)
            .add(IndexExpr::constant(8))
            .floor_div(4);
        assert_eq!(e, IndexExpr::var(0).add(IndexExpr::constant(2)));
        // (4*v0) % 4 == 0
        let m = IndexExpr::var(0).mul(4).modulo(4);
        assert_eq!(m, IndexExpr::Const(0));
    }

    #[test]
    fn linearize_delinearize_identity() {
        // reshape (a,b) -> flat -> (a,b): flat = v0*B + v1, then /B and %B.
        const B: i64 = 6;
        let flat = IndexExpr::var(0).mul(B).add(IndexExpr::var(1));
        let row = flat.clone().floor_div(B);
        let col = flat.modulo(B);
        // row should simplify to v0 only when v1 < B is known; we cannot
        // prove that symbolically, so evaluate instead.
        for i in 0..3 {
            for j in 0..B {
                assert_eq!(row.eval(&[i, j]), i);
                assert_eq!(col.eval(&[i, j]), j);
            }
        }
    }

    #[test]
    fn as_linear_extracts_coefficients() {
        let e = IndexExpr::var(1)
            .mul(3)
            .add(IndexExpr::var(0))
            .sub(IndexExpr::constant(2));
        let (coeffs, c) = e.as_linear(2).unwrap();
        assert_eq!(coeffs, vec![1, 3]);
        assert_eq!(c, -2);
    }

    #[test]
    fn as_linear_rejects_quasi() {
        let e = IndexExpr::var(0).add(IndexExpr::var(1)).floor_div(3);
        assert!(e.as_linear(2).is_none());
        assert!(!e.is_affine());
    }

    #[test]
    fn shift_vars_offsets() {
        let e = IndexExpr::var(0).add(IndexExpr::var(2));
        let s = e.shift_vars(3);
        assert_eq!(s.max_var(), Some(5));
        assert_eq!(s.eval(&[0, 0, 0, 1, 0, 10]), 11);
    }

    #[test]
    #[should_panic(expected = "positive divisor")]
    fn floor_div_nonpositive_panics() {
        IndexExpr::var(0).floor_div(0);
    }

    #[test]
    fn interval_negative_stride_orders_min_max() {
        // e = -3*v0 + 5 over v0 in [0, 9]: min at v0=9, max at v0=0.
        let e = IndexExpr::var(0).mul(-3).add(IndexExpr::constant(5));
        assert_eq!(e.interval(&[(0, 9)]), (-22, 5));
        // Pure negative stride: -2*v0 over [1, 4].
        let n = IndexExpr::var(0).mul(-2);
        assert_eq!(n.interval(&[(1, 4)]), (-8, -2));
        // Subtraction flips the operand interval: v0 - v1 over boxes.
        let s = IndexExpr::Sub(Box::new(IndexExpr::var(0)), Box::new(IndexExpr::var(1)));
        assert_eq!(s.interval(&[(0, 3), (2, 5)]), (-5, 1));
    }

    #[test]
    fn interval_saturates_instead_of_overflowing() {
        // Mul is built raw (the fluent builder would constant-fold).
        let big = IndexExpr::Mul(Box::new(IndexExpr::Var(0)), i64::MAX);
        assert_eq!(big.interval(&[(2, 4)]), (i64::MAX, i64::MAX));
        let neg = IndexExpr::Mul(Box::new(IndexExpr::Var(0)), i64::MIN);
        assert_eq!(neg.interval(&[(1, 2)]), (i64::MIN, i64::MIN));
        // Saturated sums stay pinned rather than wrapping back in-bounds.
        let sum = IndexExpr::Add(Box::new(big.clone()), Box::new(big));
        assert_eq!(sum.interval(&[(1, 1)]), (i64::MAX, i64::MAX));
        let diff = IndexExpr::Sub(
            Box::new(IndexExpr::Const(i64::MIN)),
            Box::new(IndexExpr::Const(i64::MAX)),
        );
        assert_eq!(diff.interval(&[]), (i64::MIN, i64::MIN));
    }

    /// Shrinking descends into subexpressions, so counterexamples end up
    /// as the smallest tree that still exhibits the failure.
    impl Shrink for IndexExpr {
        fn shrink_candidates(&self) -> Vec<Self> {
            match self {
                IndexExpr::Const(0) => Vec::new(),
                IndexExpr::Const(c) => c
                    .shrink_candidates()
                    .into_iter()
                    .map(IndexExpr::Const)
                    .collect(),
                IndexExpr::Var(_) => vec![IndexExpr::Const(0)],
                IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => {
                    vec![(**a).clone(), (**b).clone()]
                }
                IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => {
                    vec![(**a).clone()]
                }
            }
        }
    }

    /// Random expression tree over `v0..v2`, depth-bounded, covering the
    /// full quasi-affine grammar (including div/mod).
    fn gen_expr(rng: &mut Rng, depth: usize) -> IndexExpr {
        if depth == 0 || rng.chance(0.3) {
            return if rng.chance(0.5) {
                IndexExpr::Var(rng.usize_in(0..3))
            } else {
                IndexExpr::Const(rng.i64_in(-8..8))
            };
        }
        match rng.below(5) {
            0 => IndexExpr::Add(
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            ),
            1 => IndexExpr::Sub(
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            ),
            2 => IndexExpr::Mul(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(-4..4)),
            3 => IndexExpr::FloorDiv(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(1..5)),
            _ => IndexExpr::Mod(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(1..5)),
        }
    }

    forall!(
        simplify_preserves_semantics,
        Config::with_cases(256),
        |rng| (
            gen_expr(rng, 3),
            rng.i64_in(-9..9),
            rng.i64_in(-9..9),
            rng.i64_in(-9..9),
        ),
        |(e, v0, v1, v2)| {
            let vars = [*v0, *v1, *v2];
            tk_assert_eq!(e.simplified().eval(&vars), e.eval(&vars), "expr {e}");
            Ok(())
        }
    );

    #[test]
    fn simplified_within_resolves_flat_index_pairs() {
        let (v0, v1, v2) = (IndexExpr::var(0), IndexExpr::var(1), IndexExpr::var(2));
        // A reshape's linearize/delinearize pair over v0 < 64, v1 < 4, v2 < 16.
        let flat = v0.clone().mul(64).add(v1.clone().mul(16)).add(v2.clone());
        let bounds = [(0, 63), (0, 3), (0, 15)];
        assert_eq!(flat.clone().floor_div(64).simplified_within(&bounds), v0);
        assert_eq!(
            flat.clone().modulo(64).simplified_within(&bounds),
            v1.clone().mul(16).add(v2.clone())
        );
        // The attention output projection's read of the head-split context,
        // `ctx[((64·v0 + v2)/16) % 4, (64·v0 + v2)/64, (64·v0 + v2) % 16]`
        // with the reduction var v2 < 64: the row becomes affine, the other
        // two axes become functions of v2 alone.
        let flat = v0.clone().mul(64).add(v2.clone());
        let bounds = [(0, 63), (0, 63), (0, 63)];
        assert_eq!(
            flat.clone()
                .floor_div(16)
                .modulo(4)
                .simplified_within(&bounds),
            v2.clone().floor_div(16)
        );
        assert_eq!(flat.clone().floor_div(64).simplified_within(&bounds), v0);
        assert_eq!(flat.modulo(16).simplified_within(&bounds), v2.modulo(16));
        // Without the box the same expressions stay quasi-affine.
        assert!(!v1
            .add(IndexExpr::constant(3))
            .floor_div(4)
            .simplified()
            .is_affine());
    }

    /// Random box: per variable an inclusive `(lo, hi)` with at most four
    /// points, possibly negative.
    fn gen_box(rng: &mut Rng) -> Vec<(i64, i64)> {
        (0..3)
            .map(|_| {
                let lo = rng.i64_in(-6..6);
                (lo, lo + rng.i64_in(0..4))
            })
            .collect()
    }

    forall!(
        simplified_within_agrees_on_every_point_of_the_box,
        Config::with_cases(512),
        |rng| (gen_expr(rng, 4), gen_box(rng)),
        |(e, b)| {
            if b.len() != 3 || b.iter().any(|(lo, hi)| lo > hi) {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let s = e.simplified_within(b);
            for x in b[0].0..=b[0].1 {
                for y in b[1].0..=b[1].1 {
                    for z in b[2].0..=b[2].1 {
                        let vars = [x, y, z];
                        tk_assert_eq!(s.eval(&vars), e.eval(&vars), "expr {e} -> {s} at {vars:?}");
                    }
                }
            }
            Ok(())
        }
    );

    forall!(
        substitution_is_composition,
        Config::with_cases(256),
        |rng| (gen_expr(rng, 3), rng.i64_in(-9..9)),
        |(e, v)| {
            // substituting constants == evaluating
            let subs = [
                IndexExpr::constant(*v),
                IndexExpr::constant(*v + 1),
                IndexExpr::constant(*v - 1),
            ];
            let sub = e.substitute(&subs);
            tk_assert_eq!(sub.eval(&[]), e.eval(&[*v, *v + 1, *v - 1]), "expr {e}");
            Ok(())
        }
    );

    forall!(
        as_linear_agrees_with_eval,
        Config::with_cases(128),
        |rng| (
            rng.vec(3..4, |r| r.i64_in(-5..5)),
            rng.i64_in(-10..10),
            rng.vec(3..4, |r| r.i64_in(-9..9)),
        ),
        |(coeffs, c, vars)| {
            if coeffs.len() != 3 || vars.len() != 3 {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let e = IndexExpr::from_linear(coeffs, *c);
            let (got_coeffs, got_c) = e.as_linear(3).unwrap();
            tk_assert_eq!(&got_coeffs, coeffs);
            tk_assert_eq!(got_c, *c);
            let expected: i64 = coeffs.iter().zip(vars).map(|(a, b)| a * b).sum::<i64>() + c;
            tk_assert_eq!(e.eval(vars), expected);
            Ok(())
        }
    );
}
