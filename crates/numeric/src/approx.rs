//! Tolerance-based floating point comparison helpers.

/// How two floating point numbers are compared by [`approx_eq`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxMode {
    /// `|a - b| <= tol`.
    Absolute(f64),
    /// `|a - b| <= tol * max(|a|, |b|)`.
    Relative(f64),
    /// Passes if either the absolute or the relative criterion holds.
    Either {
        /// Absolute tolerance.
        abs: f64,
        /// Relative tolerance.
        rel: f64,
    },
}

impl Default for ApproxMode {
    fn default() -> Self {
        ApproxMode::Either {
            abs: 1e-12,
            rel: 1e-9,
        }
    }
}

/// Compares two floats under the given [`ApproxMode`].
///
/// NaNs are never approximately equal to anything; equal infinities are.
///
/// # Examples
///
/// ```
/// use unicon_numeric::{approx_eq, ApproxMode};
///
/// assert!(approx_eq(1.0, 1.0 + 1e-13, ApproxMode::default()));
/// assert!(!approx_eq(1.0, 1.1, ApproxMode::Absolute(1e-3)));
/// assert!(approx_eq(1e9, 1e9 + 1.0, ApproxMode::Relative(1e-6)));
/// ```
pub fn approx_eq(a: f64, b: f64, mode: ApproxMode) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a == b {
        return true; // also covers equal infinities
    }
    if a.is_infinite() || b.is_infinite() {
        return false;
    }
    let diff = (a - b).abs();
    match mode {
        ApproxMode::Absolute(tol) => diff <= tol,
        ApproxMode::Relative(tol) => diff <= tol * a.abs().max(b.abs()),
        ApproxMode::Either { abs, rel } => diff <= abs || diff <= rel * a.abs().max(b.abs()),
    }
}

/// The workspace-wide relative tolerance for comparing transition and exit
/// rates — see [`rates_approx_eq`].
pub const RATE_RTOL: f64 = 1e-9;

/// The absolute tolerance the shared rate policy grants two rates: scaled
/// by the larger magnitude, floored at [`RATE_RTOL`] itself so rates near
/// zero still compare sanely.
pub fn rate_tolerance(a: f64, b: f64) -> f64 {
    RATE_RTOL * a.abs().max(b.abs()).max(1.0)
}

/// The **single** tolerance policy every uniformity check in the workspace
/// uses to decide whether two exit rates are "the same rate E".
///
/// The CTMC, IMC and CTMDP uniformity checks, the elapse operator's rate
/// guard, the `UniformImc` construction audit and the `unicon-verify` lints
/// all route through this function, so no two layers can ever disagree on
/// whether a model is uniform.
///
/// NaNs are never equal; equal infinities are.
///
/// # Examples
///
/// ```
/// use unicon_numeric::approx::rates_approx_eq;
///
/// assert!(rates_approx_eq(2.0, 2.0 + 1e-12));
/// assert!(rates_approx_eq(1e12, 1e12 + 1.0));
/// assert!(!rates_approx_eq(1.0, 2.0));
/// assert!(!rates_approx_eq(f64::NAN, f64::NAN));
/// ```
pub fn rates_approx_eq(a: f64, b: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        // NaN equals nothing; infinities only themselves (a scaled
        // tolerance would be infinite and accept any finite partner).
        return a == b;
    }
    a == b || (a - b).abs() <= rate_tolerance(a, b)
}

/// Quantizes a rate for signature hashing with ~1e-9 relative tolerance.
///
/// Two rates that differ by less than about one part in 10⁹ map to the same
/// key; rates further apart map to different keys. Shared by the stochastic
/// bisimulation refiners of `unicon-imc`.
pub fn quantize(r: f64) -> u64 {
    // Map to an integer grid: floor(r * 2^30 / scale) with a power-of-two
    // scale chosen from the exponent, keeping ~9 significant decimal digits.
    if r == 0.0 {
        return 0;
    }
    let (m, e) = frexp(r);
    // m in [0.5, 1): keep 30 bits of mantissa plus the exponent.
    let mant = (m * (1u64 << 30) as f64).round() as u64;
    ((e + 1024) as u64) << 32 | mant
}

fn frexp(x: f64) -> (f64, i32) {
    if x == 0.0 || !x.is_finite() {
        return (x, 0);
    }
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // subnormal: scale up
        let scaled = x * (1u64 << 54) as f64;
        let (m, e) = frexp(scaled);
        (m, e - 54)
    } else {
        let e = exp - 1022;
        let mantissa_bits = (bits & !(0x7ffu64 << 52)) | (1022u64 << 52);
        (f64::from_bits(mantissa_bits), e)
    }
}

/// Asserts approximate equality with a helpful message.
///
/// Accepts an optional absolute tolerance (defaults to `1e-9`).
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr) => {
        $crate::assert_close!($a, $b, 1e-9)
    };
    ($a:expr, $b:expr, $tol:expr) => {{
        let (a, b, tol): (f64, f64, f64) = ($a, $b, $tol);
        assert!(
            $crate::approx_eq(a, b, $crate::ApproxMode::Absolute(tol)),
            "assert_close failed: {a} vs {b} (|diff| = {:e} > tol = {:e})",
            (a - b).abs(),
            tol
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_equality() {
        assert!(approx_eq(0.5, 0.5, ApproxMode::Absolute(0.0)));
    }

    #[test]
    fn nan_never_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN, ApproxMode::default()));
        assert!(!approx_eq(f64::NAN, 0.0, ApproxMode::default()));
    }

    #[test]
    fn infinities() {
        assert!(approx_eq(
            f64::INFINITY,
            f64::INFINITY,
            ApproxMode::default()
        ));
        assert!(!approx_eq(
            f64::INFINITY,
            f64::NEG_INFINITY,
            ApproxMode::default()
        ));
        assert!(!approx_eq(f64::INFINITY, 1e300, ApproxMode::default()));
    }

    #[test]
    fn relative_mode_scales() {
        assert!(approx_eq(1e12, 1e12 + 1.0, ApproxMode::Relative(1e-9)));
        assert!(!approx_eq(1e-12, 2e-12, ApproxMode::Relative(1e-9)));
    }

    #[test]
    fn either_mode_catches_tiny_values() {
        assert!(approx_eq(
            1e-13,
            2e-13,
            ApproxMode::Either {
                abs: 1e-12,
                rel: 1e-9
            }
        ));
    }

    #[test]
    fn rate_policy_is_symmetric_and_scaled() {
        assert!(rates_approx_eq(3.0, 3.0));
        assert_eq!(rates_approx_eq(1.0, 2.0), rates_approx_eq(2.0, 1.0));
        // floored at 1.0: tiny rates get an absolute 1e-9 window
        assert!(rates_approx_eq(1e-12, 2e-12));
        // scaled by magnitude for large rates
        assert!(rates_approx_eq(1e12, 1e12 + 100.0));
        assert!(!rates_approx_eq(1e12, 1.001e12));
        // infinities compare exactly, NaN never
        assert!(rates_approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!rates_approx_eq(f64::INFINITY, 1e300));
        assert!(!rates_approx_eq(f64::NAN, 1.0));
    }

    #[test]
    fn quantize_distinguishes_far_rates_not_near_ones() {
        assert_eq!(quantize(1.0), quantize(1.0 + 1e-12));
        assert_ne!(quantize(1.0), quantize(1.001));
        assert_ne!(quantize(0.5), quantize(2.0));
        assert_eq!(quantize(0.0), 0);
    }

    #[test]
    fn frexp_reconstructs() {
        for x in [1.0, 0.3, 123.456, 1e-12, 7e20] {
            let (m, e) = frexp(x);
            assert!((0.5..1.0).contains(&m.abs()), "m = {m}");
            assert_close!(m * 2f64.powi(e), x, x * 1e-15);
        }
    }

    #[test]
    fn assert_close_macro() {
        assert_close!(1.0, 1.0 + 1e-12);
        assert_close!(2.0, 2.5, 0.6);
    }

    #[test]
    #[should_panic(expected = "assert_close failed")]
    fn assert_close_macro_panics() {
        assert_close!(1.0, 2.0, 1e-3);
    }
}
