//! FNV-1a 64-bit hashing: the workspace's structural-fingerprint and
//! checksum-trailer hash.
//!
//! FNV-1a is deliberately simple: a fixed offset basis, one multiply per
//! byte, no per-process seed. That makes every fingerprint reproducible
//! across runs, platforms and thread counts — exactly the property the
//! certificate chain (`unicon-verify::certify`) and the checkpoint trailer
//! (`unicon-ctmdp::guard`) need, and the opposite of what `std`'s seeded
//! `DefaultHasher` provides.
//!
//! In-memory interners hash whole 64-bit words instead of bytes:
//! [`fnv_word`] is one FNV-1a step over a word, and [`BuildFnv`] hands a
//! `HashMap` the same step through [`FnvWordHasher`]. These hashes are
//! not byte-wise FNV-1a values and are never written out; only equal
//! inputs must hash equal.
//!
//! # Examples
//!
//! ```
//! use unicon_numeric::fnv::Fnv64;
//!
//! let mut h = Fnv64::new();
//! h.write(b"hello");
//! assert_eq!(h.finish(), unicon_numeric::fnv::fnv1a64(b"hello"));
//! ```

/// FNV-1a 64's offset basis: the hash of no input.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step over a whole 64-bit word: xor the word in, multiply
/// by the FNV prime. Start a sequence at [`OFFSET_BASIS`].
pub fn fnv_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// A [`Hasher`](std::hash::Hasher) that feeds every integer it is given
/// through [`fnv_word`] as one word. Byte slices go byte by byte.
#[derive(Debug, Clone, Copy)]
pub struct FnvWordHasher(u64);

impl std::hash::Hasher for FnvWordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fnv_word(self.0, u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = fnv_word(self.0, u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = fnv_word(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = fnv_word(self.0, v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FnvWordHasher`], for
/// maps keyed by word hashes or small integer tuples: unseeded, so a
/// map's layout is the same in every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildFnv;

impl std::hash::BuildHasher for BuildFnv {
    type Hasher = FnvWordHasher;

    fn build_hasher(&self) -> FnvWordHasher {
        FnvWordHasher(OFFSET_BASIS)
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// A streaming FNV-1a 64 hasher.
///
/// Multi-byte integers are fed little-endian, so fingerprints are
/// platform-independent; floats are hashed by their IEEE-754 bit pattern
/// (bit-exact, distinguishing `0.0` from `-0.0` and every NaN payload).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts a fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fnv_word(self.0, u64::from(b));
        }
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn integers_are_little_endian() {
        let mut a = Fnv64::new();
        a.write_u32(0x0403_0201);
        let mut b = Fnv64::new();
        b.write(&[1, 2, 3, 4]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn word_hasher_steps_once_per_integer() {
        use std::hash::{BuildHasher, Hasher};
        assert_eq!(
            BuildFnv.hash_one((7u32, 9u32)),
            fnv_word(fnv_word(OFFSET_BASIS, 7), 9)
        );
        assert_eq!(
            BuildFnv.hash_one(u64::MAX),
            fnv_word(OFFSET_BASIS, u64::MAX)
        );
        // One byte is one byte-wise FNV-1a step.
        let mut h = BuildFnv.build_hasher();
        h.write(b"a");
        assert_eq!(h.finish(), fnv1a64(b"a"));
    }

    #[test]
    fn floats_hash_bit_exact() {
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
