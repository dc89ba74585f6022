//! 64-bit mixing primitives used to derive seeded hash families.
//!
//! All the pseudorandom objects in this crate are *seeded*: a family is
//! identified by a small seed, and member `i` applied to input `x` is a
//! deterministic mix of `(seed, i, x)`. The mixer is the finalizer of
//! SplitMix64 / MurmurHash3, a full-avalanche bijection on `u64`.

/// SplitMix64 / Murmur3 finalizer: a bijective full-avalanche mix of `x`.
///
/// # Example
///
/// ```
/// use prand::mix::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(MUL1);
    x = (x ^ (x >> 27)).wrapping_mul(MUL2);
    x ^ (x >> 31)
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL1: u64 = 0xbf58_476d_1ce4_e5b9;
const MUL2: u64 = 0x94d0_49bb_1331_11eb;

/// [`mix64`] of every lane, computed one step at a time across all lanes.
/// The lanes' dependency chains then interleave instead of running one
/// after another, and a vector target runs each step as one instruction.
#[inline(always)]
pub(crate) fn mix64_lanes<const N: usize>(lanes: &mut [u64; N]) {
    for x in lanes.iter_mut() {
        *x = x.wrapping_add(GAMMA);
    }
    for x in lanes.iter_mut() {
        *x = (*x ^ (*x >> 30)).wrapping_mul(MUL1);
    }
    for x in lanes.iter_mut() {
        *x = (*x ^ (*x >> 27)).wrapping_mul(MUL2);
    }
    for x in lanes.iter_mut() {
        *x ^= *x >> 31;
    }
}

/// Mix two words into one.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Mix three words into one.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix64(a ^ mix64(b ^ mix64(c)))
}

/// Mix four words into one.
#[inline]
pub fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    mix64(a ^ mix64(b ^ mix64(c ^ mix64(d))))
}

/// Map a uniformly mixed word to `[0, bound)` without modulo bias, using
/// the widening-multiply trick.
///
/// # Panics
///
/// Panics if `bound == 0`.
#[inline]
pub fn bounded(word: u64, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    (((word as u128) * (bound as u128)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
    }

    #[test]
    fn mix64_lanes_is_mix64_per_lane() {
        let mut lanes: [u64; 13] = std::array::from_fn(|i| mix64(i as u64) ^ (i as u64));
        lanes[0] = 0;
        lanes[1] = u64::MAX;
        let want = lanes.map(mix64);
        mix64_lanes(&mut lanes);
        assert_eq!(lanes, want);
    }

    #[test]
    fn mix_order_matters() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix3(1, 2, 3), mix3(3, 2, 1));
    }

    #[test]
    fn bounded_in_range() {
        for i in 0..1000u64 {
            let v = bounded(mix64(i), 17);
            assert!(v < 17);
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let bound = 8u64;
        let mut counts = vec![0usize; bound as usize];
        let samples = 80_000u64;
        for i in 0..samples {
            counts[bounded(mix64(i), bound) as usize] += 1;
        }
        let expected = samples as f64 / bound as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "bucket count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn bounded_rejects_zero() {
        let _ = bounded(1, 0);
    }

    #[test]
    fn avalanche_single_bit_flip() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = 0xdead_beef_cafe_f00du64;
        for bit in 0..64 {
            let d = (mix64(x) ^ mix64(x ^ (1 << bit))).count_ones();
            assert!((16..=48).contains(&d), "weak avalanche on bit {bit}: {d}");
        }
    }
}
