//! Fox–Glynn behaviour at the extremes of the `(λ = rate·t, ε)` plane.
//!
//! The guarded reachability engine relies on one invariant: a weight
//! request either yields a valid, normalized, NaN-free window, or the new
//! typed [`FoxGlynnError`] — never NaN weights that would silently poison
//! a value iteration.

use unicon_numeric::{FoxGlynn, FoxGlynnError, WeightCache};

const LAMBDAS: [f64; 3] = [1e-8, 1e2, 1e6];
const EPSILONS: [f64; 2] = [1e-3, 1e-12];

/// Every stored weight is finite, nonnegative, and the window sums to 1.
fn assert_window_healthy(fg: &FoxGlynn, lambda: f64, epsilon: f64) {
    let ctx = format!("lambda={lambda} epsilon={epsilon}");
    assert!(fg.window_end() > fg.window_start(), "{ctx}: empty window");
    for n in fg.window_start()..fg.window_end() {
        let w = fg.psi(n);
        assert!(w.is_finite(), "{ctx}: psi({n}) = {w}");
        assert!(w >= 0.0, "{ctx}: psi({n}) = {w}");
        assert!(w <= 1.0 + 1e-12, "{ctx}: psi({n}) = {w}");
    }
    assert!(
        (fg.total() - 1.0).abs() < 1e-9,
        "{ctx}: total = {}",
        fg.total()
    );
}

#[test]
fn grid_of_extremes_yields_valid_window_or_typed_error() {
    for &lambda in &LAMBDAS {
        for &epsilon in &EPSILONS {
            match FoxGlynn::try_weights(lambda, epsilon) {
                Ok(cw) => {
                    assert_window_healthy(&cw.fg, lambda, epsilon);
                    // the truncation point covers at least 1 - ε of mass
                    let covered = 1.0 - cw.fg.tail_from(cw.truncation + 1);
                    assert!(
                        covered >= 1.0 - epsilon - 1e-12,
                        "lambda={lambda} epsilon={epsilon}: covered {covered}"
                    );
                    // and k scales like λ + O(√λ)
                    assert!(
                        (cw.truncation as f64) <= lambda + 40.0 * lambda.sqrt() + 60.0,
                        "lambda={lambda}: k = {}",
                        cw.truncation
                    );
                }
                Err(e) => {
                    // only the typed underflow is acceptable here — the grid
                    // inputs themselves are well-formed
                    assert!(
                        matches!(e, FoxGlynnError::Underflow { lambda: l, epsilon: ep }
                            if l == lambda && ep == epsilon),
                        "lambda={lambda} epsilon={epsilon}: unexpected {e:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn tiny_lambda_concentrates_at_zero() {
    let cw = FoxGlynn::try_weights(1e-8, 1e-3).unwrap();
    // ψ(0) = e^{-λ} ≈ 1; no jump is ever needed at this precision
    assert!(cw.fg.psi(0) > 0.9999);
    assert_eq!(cw.truncation, 0);
}

#[test]
fn large_lambda_window_is_centred_at_the_mode() {
    let cw = FoxGlynn::try_weights(1e6, 1e-12).unwrap();
    let mode = 1_000_000usize;
    assert!(cw.fg.window_start() < mode && mode < cw.fg.window_end());
    assert!(cw.truncation > mode);
    // window width is O(√λ), not O(λ)
    let width = cw.fg.window_end() - cw.fg.window_start();
    assert!(width < 50_000, "width = {width}");
}

#[test]
fn below_floor_epsilon_is_typed_underflow_never_nan() {
    for &lambda in &LAMBDAS {
        let floor = FoxGlynn::min_certifiable_epsilon(lambda);
        let err = FoxGlynn::try_weights(lambda, floor / 2.0).unwrap_err();
        assert!(matches!(err, FoxGlynnError::Underflow { .. }));
        // the error message names the regime that caused it
        let msg = err.to_string();
        assert!(msg.contains("underflow"), "{msg}");
        assert!(msg.contains("lambda"), "{msg}");
    }
}

#[test]
fn invalid_inputs_are_typed_not_panics() {
    assert!(matches!(
        FoxGlynn::try_weights(f64::NAN, 1e-6),
        Err(FoxGlynnError::InvalidLambda { .. })
    ));
    assert!(matches!(
        FoxGlynn::try_weights(-3.0, 1e-6),
        Err(FoxGlynnError::InvalidLambda { .. })
    ));
    assert!(matches!(
        FoxGlynn::try_weights(10.0, 1.0),
        Err(FoxGlynnError::InvalidEpsilon { .. })
    ));
    assert!(matches!(
        FoxGlynn::try_weights(10.0, -1e-9),
        Err(FoxGlynnError::InvalidEpsilon { .. })
    ));
}

/// `λ = E·t` for the FTWC's uniform rate (about 2.0167) at `t = 1e308`
/// (infinite), `1e300`, `1e20` and `4e14`. Past the 2³² cap, each is a
/// typed `InvalidLambda` from every checked entry, and a cache that
/// refuses it stores and counts nothing.
#[test]
fn lambdas_past_the_cap_are_typed_invalid() {
    let rate = 2.0167;
    // The underflow floor alone would admit t = 1e20 at ε = 1e-6.
    assert!(1e-6 >= FoxGlynn::min_certifiable_epsilon(rate * 1e20));
    let next_above_cap = f64::from_bits(FoxGlynn::MAX_LAMBDA.to_bits() + 1);
    let mut cache = WeightCache::new();
    for t in [1e308, 1e300, 1e20, 4e14] {
        let lambda = rate * t;
        assert!(lambda > FoxGlynn::MAX_LAMBDA);
        for err in [
            FoxGlynn::try_new(lambda).unwrap_err(),
            FoxGlynn::try_weights(lambda, 1e-6).unwrap_err(),
            cache.try_get(rate, t, 1e-6).unwrap_err(),
        ] {
            assert!(
                matches!(err, FoxGlynnError::InvalidLambda { lambda: l } if l.to_bits() == lambda.to_bits()),
                "t = {t}: {err:?}"
            );
            assert!(err.to_string().contains("2^32"), "{err}");
        }
    }
    assert!(matches!(
        FoxGlynn::check_lambda(next_above_cap),
        Err(FoxGlynnError::InvalidLambda { .. })
    ));
    assert!(matches!(
        cache.try_get(rate, 1.0, 0.0),
        Err(FoxGlynnError::InvalidEpsilon { .. })
    ));
    assert_eq!((cache.len(), cache.hits(), cache.misses()), (0, 0, 0));
    // A valid key after the refusals is an ordinary miss, then a hit.
    let k = cache.try_get(rate, 10.0, 1e-6).unwrap().truncation;
    assert_eq!(k, cache.get(rate, 10.0, 1e-6).truncation);
    assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, 1, 1));
}

/// The cap bounds the window: at `λ = 2³²` both recurrences stop about
/// `9.1·√λ` steps from the mode, so the window holds about 1.2 million
/// weights, under 10 MB per stored vector.
#[test]
fn window_at_the_cap_stays_small() {
    let fg = FoxGlynn::try_new(FoxGlynn::MAX_LAMBDA).unwrap();
    let width = fg.window_end() - fg.window_start();
    assert!(width < 1_250_000, "width = {width}");
    assert!(width * std::mem::size_of::<f64>() < 10_000_000);
    assert_window_healthy(&fg, FoxGlynn::MAX_LAMBDA, 1e-6);
}
