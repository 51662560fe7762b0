//! Fox–Glynn computation of Poisson probabilities and truncation points.
//!
//! Uniformization-based transient analysis of CTMCs and the uniform-CTMDP
//! timed-reachability algorithm both need the Poisson weights
//! `ψ(n) = e^{-λ} λ^n / n!` for `λ = E·t` together with a *right truncation
//! point* `k(ε, E, t)` — the number of value-iteration steps reported in the
//! paper's Table 1. Fox & Glynn (CACM 1988) show how to obtain both without
//! overflow or underflow; we implement the same idea with a mode-centred
//! recurrence and compensated normalization, which is accurate for the λ
//! range relevant here (up to ~10⁷).

use crate::NeumaierSum;

/// Relative cutoff below which weights are treated as numerically zero.
///
/// Far smaller than any model-checking ε, so truncating there does not
/// affect reported truncation points down to ε ≈ 1e-14.
const WEIGHT_CUTOFF: f64 = 1e-18;

/// Typed failure of a Fox–Glynn weight computation: the `(λ = rate·t, ε)`
/// regime that the stored window cannot serve, reported instead of a panic
/// or NaN weights so long-running analyses can fail loudly and partially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FoxGlynnError {
    /// `λ = rate·t` is NaN, negative or above [`FoxGlynn::MAX_LAMBDA`] —
    /// typically a mis-scaled rate or time bound upstream.
    InvalidLambda {
        /// The offending Poisson parameter.
        lambda: f64,
    },
    /// The truncation precision lies outside `(0, 1)` (including NaN).
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// The requested precision is below what the stored weight window can
    /// certify: mass truncated at the relative weight cutoff (1e-18) is no
    /// longer negligible against `ε`, so the truncation point would be
    /// determined by underflow, not by the Poisson tail.
    Underflow {
        /// The Poisson parameter `λ = rate·t` of the failing request.
        lambda: f64,
        /// The precision that cannot be certified for this `λ`.
        epsilon: f64,
    },
}

impl std::fmt::Display for FoxGlynnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoxGlynnError::InvalidLambda { lambda } => write!(
                f,
                "Fox-Glynn requires a finite nonnegative lambda = rate*t of at most \
                 2^32 = {:e}, got {lambda:e}",
                FoxGlynn::MAX_LAMBDA
            ),
            FoxGlynnError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must lie in (0, 1), got {epsilon}")
            }
            FoxGlynnError::Underflow { lambda, epsilon } => write!(
                f,
                "Fox-Glynn underflow: epsilon = {epsilon} is below the certifiable \
                 floor {:.3e} for lambda = rate*t = {lambda} (weights below the \
                 1e-18 relative cutoff are dropped); use a larger epsilon or \
                 rescale the rates",
                FoxGlynn::min_certifiable_epsilon(*lambda)
            ),
        }
    }
}

impl std::error::Error for FoxGlynnError {}

/// Poisson weights `ψ(n, λ)` with stable tails and truncation queries.
///
/// The weights are stored for the contiguous index window in which they are
/// numerically significant; [`FoxGlynn::psi`] returns `0.0` outside it.
///
/// # Examples
///
/// ```
/// use unicon_numeric::FoxGlynn;
///
/// let fg = FoxGlynn::new(100.0);
/// // ψ sums to 1 over the window.
/// assert!((fg.total() - 1.0).abs() < 1e-12);
/// // The mode carries the largest weight.
/// assert!(fg.psi(100) >= fg.psi(90));
/// assert!(fg.psi(100) >= fg.psi(110));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FoxGlynn {
    lambda: f64,
    /// Index of `weights[0]`.
    window_start: usize,
    /// Normalized weights for `window_start..window_start + weights.len()`.
    weights: Vec<f64>,
    /// Suffix sums: `suffix[i] = Σ_{j >= i} weights[j]` (window-relative).
    suffix: Vec<f64>,
}

impl FoxGlynn {
    /// The largest Poisson parameter `λ = rate·t` the weights are
    /// computed for: 2³². The cap bounds what the weights cost before
    /// they are computed. Each recurrence runs from the mode until a
    /// weight falls below 1e-18 of the mode's, about `9.1·√λ` steps, so
    /// the stored window holds about `18·√λ` weights: 1.2 million at the
    /// cap, under 10 MB per stored vector, and the indices stay exact.
    /// A `λ` past the cap is no practical analysis: the step count of a
    /// value iteration, the truncation point `k`, exceeds `λ`.
    pub const MAX_LAMBDA: f64 = 4_294_967_296.0;

    /// Computes the Poisson weights for parameter `lambda` in
    /// `[0, MAX_LAMBDA]`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative, NaN or above [`FoxGlynn::MAX_LAMBDA`].
    pub fn new(lambda: f64) -> Self {
        assert!(
            Self::check_lambda(lambda).is_ok(),
            "Fox-Glynn requires a finite nonnegative lambda of at most 2^32, got {lambda}"
        );
        if lambda == 0.0 {
            return Self {
                lambda,
                window_start: 0,
                weights: vec![1.0],
                suffix: vec![1.0],
            };
        }
        let mode = lambda.floor() as usize;

        // Downward recurrence from the mode: w(n-1) = w(n) * n / λ.
        // `down[i]` is the (unnormalized) weight of index `mode - 1 - i`.
        let mut down = Vec::new();
        let mut w = 1.0f64;
        let mut n = mode;
        while n > 0 {
            w *= n as f64 / lambda;
            if w < WEIGHT_CUTOFF {
                break;
            }
            down.push(w);
            n -= 1;
        }
        let window_start = mode - down.len();

        // Upward recurrence from the mode: w(n+1) = w(n) * λ / (n+1).
        let mut up = Vec::new();
        let mut w = 1.0f64;
        let mut n = mode;
        loop {
            w *= lambda / (n + 1) as f64;
            if w < WEIGHT_CUTOFF {
                break;
            }
            up.push(w);
            n += 1;
        }

        // Assemble raw weights [window_start ..= mode + up.len()].
        let mut weights = Vec::with_capacity(down.len() + 1 + up.len());
        weights.extend(down.iter().rev().copied());
        weights.push(1.0);
        weights.extend(up.iter().copied());

        // Normalize with compensated summation, adding small terms first.
        let mut total = NeumaierSum::new();
        let mut sorted: Vec<f64> = weights.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
        total.extend(sorted);
        let total = total.value();
        for w in &mut weights {
            *w /= total;
        }

        // Suffix sums for O(1) tail queries.
        let mut suffix = vec![0.0; weights.len() + 1];
        let mut acc = NeumaierSum::new();
        for i in (0..weights.len()).rev() {
            acc.add(weights[i]);
            suffix[i] = acc.value();
        }
        suffix.pop();

        Self {
            lambda,
            window_start,
            weights,
            suffix,
        }
    }

    /// Checks that weights can be computed for `lambda`, without
    /// computing them: a batch checks every query's `λ` before it sweeps.
    ///
    /// # Errors
    ///
    /// [`FoxGlynnError::InvalidLambda`] if `lambda` is negative, NaN or
    /// above [`FoxGlynn::MAX_LAMBDA`].
    pub fn check_lambda(lambda: f64) -> Result<(), FoxGlynnError> {
        if (0.0..=Self::MAX_LAMBDA).contains(&lambda) {
            Ok(())
        } else {
            Err(FoxGlynnError::InvalidLambda { lambda })
        }
    }

    /// The smallest truncation precision the stored window can certify for
    /// `lambda`.
    ///
    /// Both recurrences stop once a weight falls below the relative cutoff
    /// 1e-18; the neglected tail mass beyond each end is bounded by a
    /// geometric series whose ratio approaches 1 like `1 - c/√λ`, giving a
    /// total neglected mass of order `1e-18 · (√λ + const)`. Requests with
    /// an `epsilon` below this floor would have their truncation point set
    /// by underflow rather than the Poisson tail, so they are refused with
    /// [`FoxGlynnError::Underflow`].
    pub fn min_certifiable_epsilon(lambda: f64) -> f64 {
        // 2 tails, geometric-sum factor ≈ √λ/9 + 1 each, and a 4x safety
        // margin on top of the cutoff.
        WEIGHT_CUTOFF * 8.0 * (lambda.max(0.0).sqrt() / 9.0 + 1.0)
    }

    /// Computes the weights and right truncation point for `λ = rate·t`
    /// with every failure surfaced as a typed [`FoxGlynnError`] — the one
    /// entry every reachability engine and [`WeightCache::try_get`] take,
    /// bitwise identical to [`FoxGlynn::new`] +
    /// [`FoxGlynn::right_truncation`] on success.
    ///
    /// # Errors
    ///
    /// [`FoxGlynnError::InvalidLambda`] for λ that is NaN, negative or
    /// above [`FoxGlynn::MAX_LAMBDA`], [`FoxGlynnError::InvalidEpsilon`]
    /// for ε outside `(0, 1)`, and [`FoxGlynnError::Underflow`] when ε is
    /// below [`FoxGlynn::min_certifiable_epsilon`].
    pub fn try_weights(lambda: f64, epsilon: f64) -> Result<CachedWeights, FoxGlynnError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(FoxGlynnError::InvalidEpsilon { epsilon });
        }
        Self::check_lambda(lambda)?;
        if epsilon < Self::min_certifiable_epsilon(lambda) {
            return Err(FoxGlynnError::Underflow { lambda, epsilon });
        }
        let fg = Self::new(lambda);
        // Defence in depth: the recurrences are stable over the admitted
        // regime, but a future regression must fail loudly here rather
        // than propagate NaN into value iterations.
        if !fg.total().is_finite() || fg.total() <= 0.0 || fg.weights.iter().any(|w| !w.is_finite())
        {
            return Err(FoxGlynnError::Underflow { lambda, epsilon });
        }
        let truncation = fg.right_truncation(epsilon);
        Ok(CachedWeights { fg, truncation })
    }

    /// The Poisson parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// `ψ(n, λ)`; zero outside the numerically significant window.
    pub fn psi(&self, n: usize) -> f64 {
        if n < self.window_start {
            return 0.0;
        }
        self.weights
            .get(n - self.window_start)
            .copied()
            .unwrap_or(0.0)
    }

    /// First index of the significant window.
    pub fn window_start(&self) -> usize {
        self.window_start
    }

    /// One past the last index of the significant window.
    pub fn window_end(&self) -> usize {
        self.window_start + self.weights.len()
    }

    /// Sum of all stored (normalized) weights; 1 up to rounding.
    pub fn total(&self) -> f64 {
        self.suffix.first().copied().unwrap_or(0.0)
    }

    /// `Σ_{n >= i} ψ(n)` — the probability of at least `i` Poisson events.
    pub fn tail_from(&self, i: usize) -> f64 {
        if i <= self.window_start {
            return 1.0;
        }
        let rel = i - self.window_start;
        self.suffix.get(rel).copied().unwrap_or(0.0)
    }

    /// Right truncation point `k(ε, λ)`: the smallest `k` with
    /// `Σ_{n <= k} ψ(n) >= 1 - ε`.
    ///
    /// This equals the iteration count of the uniform-CTMDP
    /// timed-reachability algorithm for precision `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn right_truncation(&self, epsilon: f64) -> usize {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        // smallest k with tail_from(k+1) <= ε
        for rel in 0..self.weights.len() {
            let tail_after = self.suffix.get(rel + 1).copied().unwrap_or(0.0);
            if tail_after <= epsilon {
                return self.window_start + rel;
            }
        }
        self.window_end().saturating_sub(1)
    }

    /// Left truncation point: the largest `l` with `Σ_{n < l} ψ(n) <= ε`
    /// (0 if no prefix may be dropped).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn left_truncation(&self, epsilon: f64) -> usize {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        let mut acc = NeumaierSum::new();
        for (rel, &w) in self.weights.iter().enumerate() {
            acc.add(w);
            if acc.value() > epsilon {
                return self.window_start + rel;
            }
        }
        self.window_end()
    }
}

/// A Fox–Glynn weight vector together with the right truncation point it
/// was requested for — the unit the batched reachability engine caches.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedWeights {
    /// The Poisson weights for `λ = rate · t`.
    pub fg: FoxGlynn,
    /// `k(ε, rate, t)` — the value-iteration step count.
    pub truncation: usize,
}

/// A memoization table for Fox–Glynn weight vectors, keyed by the exact
/// bit patterns of `(rate, t, epsilon)`.
///
/// Computing the weights for `λ = E·t` costs `O(λ + √λ)` and is repeated
/// verbatim whenever several queries share a time bound (max/min pairs,
/// repeated batch runs, figure sweeps). The cache trades a small amount of
/// memory — `O(√λ)` per distinct key — for skipping that recomputation,
/// and counts hits/misses so engines can report cache effectiveness.
///
/// Keys compare by `f64::to_bits`, so `-0.0`/`+0.0` or differently-rounded
/// inputs are distinct keys; that is deliberate — a cache hit must be
/// bitwise indistinguishable from recomputation.
///
/// # Examples
///
/// ```
/// use unicon_numeric::WeightCache;
///
/// let mut cache = WeightCache::new();
/// let k1 = cache.get(2.0, 50.0, 1e-6).truncation;
/// let k2 = cache.get(2.0, 50.0, 1e-6).truncation;
/// assert_eq!(k1, k2);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightCache {
    entries: std::collections::HashMap<(u64, u64, u64), CachedWeights>,
    hits: usize,
    misses: usize,
}

impl WeightCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the weights for `λ = rate · t` truncated at precision
    /// `epsilon`, computing and storing them on first use.
    ///
    /// # Panics
    ///
    /// Panics where [`WeightCache::try_get`] returns an error.
    pub fn get(&mut self, rate: f64, t: f64, epsilon: f64) -> &CachedWeights {
        self.try_get(rate, t, epsilon)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`WeightCache::get`] with its preconditions checked: the lookup
    /// every engine takes, since `t` comes from the caller. A miss
    /// computes the weights with [`FoxGlynn::try_weights`], so a hit only
    /// ever returns weights that passed its checks. A failed lookup
    /// stores nothing and counts neither as a hit nor as a miss.
    ///
    /// # Errors
    ///
    /// Those of [`FoxGlynn::try_weights`] for `λ = rate · t`.
    pub fn try_get(
        &mut self,
        rate: f64,
        t: f64,
        epsilon: f64,
    ) -> Result<&CachedWeights, FoxGlynnError> {
        let key = (rate.to_bits(), t.to_bits(), epsilon.to_bits());
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                Ok(e.into_mut())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let weights = FoxGlynn::try_weights(rate * t, epsilon)?;
                self.misses += 1;
                Ok(e.insert(weights))
            }
        }
    }

    /// Number of lookups answered from the table.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that had to compute fresh weights.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct `(rate, t, epsilon)` keys stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::special::{poisson_cdf, poisson_pmf};

    #[test]
    fn zero_lambda_is_point_mass() {
        let fg = FoxGlynn::new(0.0);
        assert_eq!(fg.psi(0), 1.0);
        assert_eq!(fg.psi(1), 0.0);
        assert_eq!(fg.right_truncation(1e-6), 0);
        assert_eq!(fg.left_truncation(1e-6), 0);
        assert_eq!(fg.tail_from(0), 1.0);
        assert_eq!(fg.tail_from(1), 0.0);
    }

    #[test]
    fn weights_match_direct_pmf_small_lambda() {
        for lambda in [0.3, 1.0, 4.5, 20.0] {
            let fg = FoxGlynn::new(lambda);
            for n in 0..60u64 {
                assert_close!(fg.psi(n as usize), poisson_pmf(n, lambda), 1e-12);
            }
        }
    }

    #[test]
    fn weights_match_direct_pmf_large_lambda() {
        let lambda = 5000.0;
        let fg = FoxGlynn::new(lambda);
        for n in (4800..5200).step_by(17) {
            let direct = poisson_pmf(n as u64, lambda);
            let rel = (fg.psi(n) - direct).abs() / direct;
            assert!(rel < 1e-9, "n={n}: fg={} direct={direct}", fg.psi(n));
        }
    }

    #[test]
    fn weights_normalized() {
        for lambda in [0.5, 7.0, 123.0, 9999.5, 80_000.0] {
            let fg = FoxGlynn::new(lambda);
            assert_close!(fg.tail_from(0), 1.0, 1e-10);
        }
    }

    #[test]
    fn right_truncation_matches_cdf() {
        for lambda in [1.0, 10.0, 250.0] {
            let fg = FoxGlynn::new(lambda);
            let eps = 1e-6;
            let k = fg.right_truncation(eps);
            assert!(poisson_cdf(k as u64, lambda) >= 1.0 - eps - 1e-12);
            if k > 0 {
                assert!(poisson_cdf(k as u64 - 1, lambda) < 1.0 - eps + 1e-12);
            }
        }
    }

    #[test]
    fn truncation_grows_like_lambda_plus_sqrt() {
        // k ≈ λ + c·sqrt(λ): check the paper's Table-1 flavour numbers.
        let fg = FoxGlynn::new(200.0);
        let k = fg.right_truncation(1e-6);
        assert!(k > 200 && k < 300, "k = {k}");
        let fg = FoxGlynn::new(60_000.0);
        let k = fg.right_truncation(1e-6);
        assert!(k > 60_000 && k < 62_500, "k = {k}");
    }

    #[test]
    fn left_truncation_is_sane() {
        let fg = FoxGlynn::new(10_000.0);
        let l = fg.left_truncation(1e-6);
        assert!(l > 9000 && l < 10_000, "l = {l}");
        // prefix below l really is small
        let mut acc = 0.0;
        for n in 0..l {
            acc += fg.psi(n);
        }
        assert!(acc <= 1e-6 + 1e-12);
    }

    #[test]
    fn tail_is_monotone_decreasing() {
        let fg = FoxGlynn::new(42.0);
        let mut prev = 1.0;
        for i in 0..fg.window_end() + 2 {
            let t = fg.tail_from(i);
            assert!(t <= prev + 1e-15);
            prev = t;
        }
    }

    #[test]
    fn mode_has_maximal_weight() {
        for lambda in [3.7, 12.0, 777.3] {
            let fg = FoxGlynn::new(lambda);
            let mode = lambda.floor() as usize;
            let wm = fg.psi(mode);
            for n in fg.window_start()..fg.window_end() {
                assert!(fg.psi(n) <= wm + 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite nonnegative lambda")]
    fn rejects_negative_lambda() {
        FoxGlynn::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn rejects_bad_epsilon() {
        FoxGlynn::new(1.0).right_truncation(0.0);
    }

    #[test]
    fn check_lambda_reports_bad_lambda() {
        assert!(FoxGlynn::check_lambda(42.5).is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FoxGlynn::check_lambda(bad).unwrap_err();
            assert!(
                matches!(err, FoxGlynnError::InvalidLambda { lambda } if lambda.to_bits() == bad.to_bits())
            );
            assert!(err.to_string().contains("lambda"));
        }
    }

    #[test]
    fn try_weights_is_bitwise_identical_to_direct_computation() {
        for (lambda, eps) in [(0.5, 1e-6), (200.0, 1e-9), (60_000.0, 1e-12)] {
            let cw = FoxGlynn::try_weights(lambda, eps).unwrap();
            let fg = FoxGlynn::new(lambda);
            assert_eq!(cw.fg, fg);
            assert_eq!(cw.truncation, fg.right_truncation(eps));
        }
    }

    #[test]
    fn try_weights_rejects_bad_epsilon_and_underflow() {
        assert!(matches!(
            FoxGlynn::try_weights(10.0, 0.0),
            Err(FoxGlynnError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            FoxGlynn::try_weights(10.0, f64::NAN),
            Err(FoxGlynnError::InvalidEpsilon { .. })
        ));
        // below the certifiable floor: typed underflow, never NaN weights
        let err = FoxGlynn::try_weights(1e6, 1e-17).unwrap_err();
        assert!(matches!(
            err,
            FoxGlynnError::Underflow { lambda, epsilon }
                if lambda == 1e6 && epsilon == 1e-17
        ));
        assert!(err.to_string().contains("underflow"));
    }

    #[test]
    fn certifiable_floor_grows_with_lambda_but_stays_tiny() {
        let small = FoxGlynn::min_certifiable_epsilon(1.0);
        let large = FoxGlynn::min_certifiable_epsilon(1e6);
        assert!(small < large);
        // 1e-12 stays certifiable across the whole supported regime
        assert!(large < 1e-12);
    }

    #[test]
    fn cache_hits_are_bitwise_identical_to_recomputation() {
        let mut cache = WeightCache::new();
        let first = cache.get(2.0047, 100.0, 1e-6).clone();
        let again = cache.get(2.0047, 100.0, 1e-6).clone();
        assert_eq!(first, again);
        let fresh = FoxGlynn::new(2.0047 * 100.0);
        assert_eq!(first.fg, fresh);
        assert_eq!(first.truncation, fresh.right_truncation(1e-6));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn cache_distinguishes_rate_time_and_epsilon() {
        let mut cache = WeightCache::new();
        cache.get(2.0, 10.0, 1e-6);
        cache.get(10.0, 2.0, 1e-6); // same λ, different key — by design
        cache.get(2.0, 10.0, 1e-9);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        assert!(!cache.is_empty());
    }

    /// The serve daemon keeps one cache alive across many client
    /// sessions; the hit/miss counters are cumulative over the cache's
    /// lifetime, so callers snapshot them and report per-session deltas.
    /// This pins both properties: warmth carries across sessions, and
    /// delta accounting sees exactly the traffic of its own session.
    #[test]
    fn cache_counters_support_cross_session_delta_accounting() {
        let mut cache = WeightCache::new();

        // Session A: two distinct keys, one repeat.
        let (h0, m0) = (cache.hits(), cache.misses());
        cache.get(2.0, 10.0, 1e-6);
        cache.get(2.0, 20.0, 1e-6);
        cache.get(2.0, 10.0, 1e-6);
        assert_eq!((cache.hits() - h0, cache.misses() - m0), (1, 2));

        // Session B reuses the warm cache: its repeats of A's keys are
        // hits, only its novel key misses.
        let (h1, m1) = (cache.hits(), cache.misses());
        cache.get(2.0, 10.0, 1e-6);
        cache.get(2.0, 20.0, 1e-6);
        cache.get(2.0, 30.0, 1e-6);
        assert_eq!((cache.hits() - h1, cache.misses() - m1), (2, 1));

        // Lifetime totals are the sums of the per-session deltas.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 3, 3));
    }
}
