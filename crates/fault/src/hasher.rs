//! A fast hasher for line and bit indices.

use std::hash::Hasher;

/// Multiplicative hash for `u64` line indices (Fibonacci hashing). Line
/// indices are small, dense, attacker-free integers — SipHash's DoS
/// resistance buys nothing here and costs ~5× per store access on the
/// Monte-Carlo hot path. Keys from outside the program should keep the
/// default hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineIndexHasher(u64);

impl Hasher for LineIndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached via derived/complex keys; fold bytes in words.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
