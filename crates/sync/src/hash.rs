//! The workspace's one FNV-1a and one SplitMix64.
//!
//! Digests, shard homes, idempotency keys and seeded fault/jitter decisions
//! all have to replay bit-identically across runs and toolchains, so they
//! use these fixed functions rather than `std`'s randomly keyed hasher.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Streaming 64-bit FNV-1a: feeding the parts of a message one by one
/// hashes the same as feeding their concatenation.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Continue a hash whose [`finish`](Self::finish) was `state`.
    pub const fn resume(state: u64) -> Self {
        Self(state)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// One SplitMix64 step as a stateless hash: the output a generator whose
/// state is `x` produces next. Cheap and well mixed, for deterministic
/// per-occurrence decisions (`splitmix64(seed ^ salt ^ index)`).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 generator: a seeded stream that is stable across
/// toolchains and `rand` versions.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors: the published FNV-1a test values plus strings the
    /// deleted per-crate copies hashed (shard homes, worker-name seeds).
    #[test]
    fn fnv1a64_golden_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"test-worker"), 0x889d_1698_9714_fb56);
        assert_eq!(fnv1a64(b"f-steal"), 0x5036_41e7_d5ed_32e7);
        assert_eq!(fnv1a64(b"{\"k\":0}"), 0x5219_47ff_0030_ca3a);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        for part in ["gold", ":", "3", ";"] {
            h.write(part.as_bytes());
        }
        assert_eq!(h.finish(), fnv1a64(b"gold:3;"));
        let mut resumed = Fnv1a::resume(fnv1a64(b"gold:"));
        resumed.write(b"3;");
        assert_eq!(resumed.finish(), h.finish());
    }

    /// Golden vectors: the reference SplitMix64 stream for seeds 0 and 42
    /// (the values the old `Rng(seed).next()` / `mix(seed)` copies gave).
    #[test]
    fn splitmix64_golden_vectors() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
        let mut g = SplitMix64::new(42);
        assert_eq!(g.next_u64(), 0xbdd7_3226_2feb_6e95);
        assert_eq!(g.next_u64(), 0x28ef_e333_b266_f103);
        assert_eq!(g.next_u64(), 0x4752_6757_130f_9f52);
    }
}
