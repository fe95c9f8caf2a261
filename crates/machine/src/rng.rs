//! The two integer mixers behind every seeded stream in the model: the
//! chaos engine's decision streams, the SMP scheduler's core rotation,
//! the soak and attack-corpus seeds, and the fleet's arrival schedule.
//! One copy of each keeps those streams in step with one another.

/// One step of Knuth's MMIX linear congruential generator.
pub fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// The splitmix64 finaliser: derives well-separated seeds from related
/// inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
