//! Value planes shared by the workers of one sweep.
//!
//! A plane stores one `f64` per state as its bit pattern in an
//! [`AtomicU64`]. Every worker reads the whole previous plane and writes
//! its own slice of the next one, and the planes live as long as a
//! persistent worker pool — so no worker can hold a `&mut` borrow of its
//! slice across steps without `unsafe`. Relaxed atomics give the same
//! plain loads and stores on common targets while staying safe to share.
//!
//! `Relaxed` publishes nothing by itself: a driver must order a step's
//! writes before the next step's reads with a barrier whose arrival is a
//! release and whose departure is an acquire.

use std::sync::atomic::{AtomicU64, Ordering};

use unicon_numeric::stable_sum;
use unicon_numeric::sum::combine_chunk_sums;

/// One value plane: `f64` bits in relaxed atomics.
pub type Plane = [AtomicU64];

/// Entry `i` of `plane`.
#[inline]
#[must_use]
pub fn get(plane: &Plane, i: usize) -> f64 {
    f64::from_bits(plane[i].load(Ordering::Relaxed))
}

/// Stores `v` at entry `i` of `plane`.
#[inline]
pub fn set(plane: &Plane, i: usize, v: f64) {
    plane[i].store(v.to_bits(), Ordering::Relaxed);
}

/// The plane's values, in order, read in place.
pub fn values(plane: &Plane) -> impl Iterator<Item = f64> + '_ {
    plane
        .iter()
        .map(|a| f64::from_bits(a.load(Ordering::Relaxed)))
}

/// A copy of the plane's values.
#[must_use]
pub fn to_vec(plane: &Plane) -> Vec<f64> {
    values(plane).collect()
}

/// The chunked Neumaier sum of the plane over fixed `block`-entry blocks,
/// read in place: the bits [`unicon_numeric::chunked_stable_sum`] returns
/// for a copy of its values.
///
/// # Panics
///
/// Panics if `block == 0`.
#[must_use]
pub fn chunked_sum(plane: &Plane, block: usize) -> f64 {
    assert!(block > 0, "chunk size must be positive");
    combine_chunk_sums(plane.chunks(block).map(|b| stable_sum(values(b))))
}

/// Overwrites the plane with `values`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn fill(plane: &Plane, values: &[f64]) {
    assert_eq!(plane.len(), values.len(), "plane length mismatch");
    for (a, v) in plane.iter().zip(values) {
        a.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// A new plane holding `values`.
#[must_use]
pub fn from_slice(values: &[f64]) -> Vec<AtomicU64> {
    values.iter().map(|v| AtomicU64::new(v.to_bits())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_bit_exactly() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let vals = [0.0, -0.0, 1.5, nan, f64::INFINITY];
        let p = from_slice(&vals);
        let back = to_vec(&p);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        set(&p, 2, 0.25);
        assert_eq!(get(&p, 2), 0.25);
        fill(&p, &[1.0; 5]);
        assert_eq!(to_vec(&p), vec![1.0; 5]);
    }

    /// Several blocks, a ragged last one, and magnitudes far apart.
    #[test]
    fn chunked_sum_matches_the_slice_reduction() {
        let vals: Vec<f64> = (0..3 * 1024 + 17)
            .map(|i| 1.0 / (i as f64 + 1.0) * if i % 7 == 0 { 1e12 } else { 1.0 })
            .collect();
        let p = from_slice(&vals);
        for block in [1, 1024, 5000] {
            assert_eq!(
                chunked_sum(&p, block).to_bits(),
                unicon_numeric::chunked_stable_sum(&vals, block).to_bits()
            );
        }
        assert_eq!(chunked_sum(&[], 1024).to_bits(), 0.0_f64.to_bits());
    }
}
