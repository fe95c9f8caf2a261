//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! The interpreter performs several hash-map lookups per simulated
//! instruction (TLB level, fetch cache, physical frames, system
//! registers). `SipHash` — the std default — is DoS-resistant but costs
//! more than the lookups themselves for these small fixed-width keys.
//! None of these maps are attacker-keyed (keys come from the simulation,
//! whose worst case is a slow test, not a security issue), so a
//! multiply-rotate hash in the `FxHash` family is the right trade.
//!
//! Determinism is a feature here: `RandomState` seeds differ per map, so
//! switching to a fixed hasher also removes the last per-process
//! randomness from the machine — iteration order never leaks into
//! results anyway (asserted by the determinism regression tests), but a
//! fixed hasher makes that structural rather than incidental.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over word-sized chunks.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in 0..100u64 {
            a.insert(i, i * 3);
            b.insert(i, i * 3);
        }
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "iteration order must match");
    }

    #[test]
    fn distributes_sequential_keys() {
        // Page numbers are sequential; the hash must not collapse them.
        let mut seen = std::collections::HashSet::new();
        for vpn in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(vpn);
            seen.insert(h.finish() >> 48);
        }
        assert!(seen.len() > 1000, "high bits must vary: {}", seen.len());
    }
}
