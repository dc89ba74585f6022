//! Representative hash function families (Lemma 1) and the set operators of
//! Proposition 1.
//!
//! # Simulated advice
//!
//! Lemma 1 is an existence result: *some* family of
//! `F = Θ(βλν⁻¹ log|U|)` functions is representative, and the paper's
//! non-uniform algorithms assume nodes share such a family as advice. We
//! realize the advice as a **seeded pseudorandom family**: member `i` of
//! family `(seed, λ)` hashes `x` to `mix64(seed, λ, i, x) mod λ`. A
//! uniformly random family is representative with overwhelming probability
//! (this is exactly how Lemma 1 is proven), so the seeded family preserves
//! the statistical behaviour the algorithms rely on, and the communication
//! cost is unchanged — nodes exchange the `⌈log₂ F⌉`-bit member index.
//! Experiment E10 validates the `(A,B)`-good fraction empirically.
//!
//! # Notation (§3.1 of the paper)
//!
//! For a hash function `h`, sets `A, B ⊆ U` and window `σ`:
//!
//! * `A|_h^{≤σ}`   — elements of `A` hashing below `σ` ([`RepHash::low`]);
//! * `A ∧_h^{≤σ} B` — elements of `A|_h^{≤σ}` in collision with some
//!   *other* element of `B` ([`RepHash::colliding`]);
//! * `A ¬_h^{≤σ} B` — elements of `A|_h^{≤σ}` whose hash no other element
//!   of `B` shares ([`RepHash::isolated`]).

use crate::mix::{bounded, mix64, mix64_lanes};
use crate::params::RepParams;
use rand::Rng;
use std::collections::HashMap;

/// A seeded representative hash family `H = (h_i)_{i∈[F]} ⊆ [λ]^U`.
///
/// # Example
///
/// ```
/// use prand::{RepHashFamily, RepParams};
///
/// let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
/// let family = RepHashFamily::new(42, params);
/// let h = family.member(7);
/// let a: Vec<u64> = (0..100).collect();
/// // Elements of `a` hashing into the window, without collisions inside `a`:
/// let isolated = h.isolated(&a, &a);
/// assert!(isolated.iter().all(|x| a.contains(x)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepHashFamily {
    seed: u64,
    params: RepParams,
}

impl RepHashFamily {
    /// The family identified by `seed` with the given parameters.
    pub fn new(seed: u64, params: RepParams) -> Self {
        RepHashFamily { seed, params }
    }

    /// The family's parameters.
    pub fn params(&self) -> &RepParams {
        &self.params
    }

    /// Member `index` of the family.
    ///
    /// # Panics
    ///
    /// Panics if `index >= F`.
    pub fn member(&self, index: u64) -> RepHash {
        assert!(
            index < self.params.family_size,
            "index {index} out of family range"
        );
        let (lambda, sigma) = (self.params.lambda, self.params.sigma);
        RepHash {
            seed: self.seed,
            lambda,
            sigma,
            index,
            cut: (u128::from(sigma) << 64).div_ceil(u128::from(lambda)),
        }
    }

    /// Draw a uniform member index (the `⌈log₂F⌉`-bit value the parties
    /// exchange).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.params.family_size)
    }

    /// Bits needed to communicate a member index.
    pub fn index_bits(&self) -> u32 {
        self.params.index_bits()
    }
}

/// One member of a [`RepHashFamily`]: a function `U → [0, λ)` with an
/// associated observation window `[0, σ)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepHash {
    seed: u64,
    lambda: u64,
    sigma: u64,
    index: u64,
    /// `⌈σ·2⁶⁴/λ⌉`, derived from the fields above ([`RepHash::window_cut`]).
    cut: u128,
}

impl RepHash {
    /// Hash `x` into `[0, λ)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        bounded(self.word(x), self.lambda)
    }

    /// `mix4(seed, λ, index, x)`, the word that [`RepHash::hash`] bounds.
    #[inline]
    fn word(&self, x: u64) -> u64 {
        self.word_from_inner(mix64(x))
    }

    /// The mixed word `w` behind `hash(x) = bounded(w, λ)`, given the
    /// innermost mix `inner = mix64(x)`: `w = mix4(seed, λ, index, x)`.
    /// The inner mix does not depend on the member, so a node signing one
    /// set under many members computes it once per element and reuses it.
    #[inline(always)]
    pub fn word_from_inner(&self, inner: u64) -> u64 {
        mix64(self.seed ^ mix64(self.lambda ^ mix64(self.index ^ inner)))
    }

    /// [`RepHash::word_from_inner`] of every lane, in place. The same
    /// definition, computed one mixing step at a time across the lanes, so
    /// that their dependency chains interleave and vectorize.
    #[inline(always)]
    pub fn words_from_inner<const N: usize>(&self, lanes: &mut [u64; N]) {
        for key in [self.index, self.lambda, self.seed] {
            for x in lanes.iter_mut() {
                *x ^= key;
            }
            mix64_lanes(lanes);
        }
    }

    /// The exact window cut `⌈σ·2⁶⁴/λ⌉`: a mixed word `w` (see
    /// [`RepHash::word_from_inner`]) lands in the window, `bounded(w, λ) <
    /// σ`, iff `w < window_cut()`. Since `bounded(w, λ) = ⌊w·λ/2⁶⁴⌋`, the
    /// test is `w·λ < σ·2⁶⁴`, i.e. `w < σ·2⁶⁴/λ`. It is `2⁶⁴` (every word
    /// passes) when `σ = λ`, hence the `u128`. Comparing against it leaves
    /// the widening multiply to the in-window words.
    #[inline]
    pub fn window_cut(&self) -> u128 {
        self.cut
    }

    /// The window value `h(x)` if `x` hashes into the window, else `None`:
    /// the one definition of "in window" every operator below uses.
    #[inline]
    fn window_hash(&self, x: u64) -> Option<u64> {
        let w = self.word(x);
        (u128::from(w) < self.cut).then(|| bounded(w, self.lambda))
    }

    /// Output range λ.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Observation window σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// The member index within its family.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether `x` hashes into the observation window (`h(x) < σ`).
    #[inline]
    pub fn in_window(&self, x: u64) -> bool {
        self.window_hash(x).is_some()
    }

    /// `A|_h^{≤σ}`: the elements of `a` hashing into the window.
    pub fn low(&self, a: &[u64]) -> Vec<u64> {
        a.iter().copied().filter(|&x| self.in_window(x)).collect()
    }

    /// `h(A|_h^{≤σ})`: the *hash values* below σ attained by `a`, sorted
    /// and deduplicated. This is what a node actually transmits (as a
    /// σ-bit bitmap).
    pub fn low_image(&self, a: &[u64]) -> Vec<u64> {
        let mut img: Vec<u64> = a.iter().filter_map(|&x| self.window_hash(x)).collect();
        img.sort_unstable();
        img.dedup();
        img
    }

    /// `A ∧_h^{≤σ} B`: elements `x ∈ A` with `h(x) < σ` such that some
    /// element of `B \ {x}` has the same hash.
    ///
    /// `b` must be sorted (as produced by the graph/palette substrate);
    /// this is asserted in debug builds.
    pub fn colliding(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
        let counts = self.window_counts(b);
        a.iter()
            .copied()
            .filter(|&x| {
                let Some(h) = self.window_hash(x) else {
                    return false;
                };
                match counts.get(&h) {
                    None => false,
                    Some(&c) => {
                        if b.binary_search(&x).is_ok() {
                            c >= 2
                        } else {
                            c >= 1
                        }
                    }
                }
            })
            .collect()
    }

    /// `A ¬_h^{≤σ} B`: elements of `A|_h^{≤σ}` not in collision with any
    /// other element of `B` — i.e. `low(a)` minus `colliding(a, b)`.
    ///
    /// `b` must be sorted.
    ///
    /// When `a` and `b` are the *same slice* (the `S ¬_h S` self-join,
    /// the hot case in `MultiTrial` and the similarity estimates), a
    /// one-pass fast path applies: `x` survives iff `h(x) < σ` and no
    /// other element shares its window value, tracked with a once/twice
    /// bit pair — each element hashed exactly once, no hash-map scratch,
    /// no per-element binary search. Results are identical to the
    /// general path (pinned by a test).
    pub fn isolated(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        if std::ptr::eq(a, b) {
            let words = self.sigma.div_ceil(64) as usize;
            let mut once = vec![0u64; words];
            let mut twice = vec![0u64; words];
            let mut hashes = Vec::with_capacity(a.len());
            for &x in a {
                // σ stands for "outside the window", so the scratch
                // stays 8 bytes per element (an `Option<u64>` takes 16).
                let h = self.window_hash(x).unwrap_or(self.sigma);
                hashes.push(h);
                if h < self.sigma {
                    let (w, bit) = ((h / 64) as usize, 1u64 << (h % 64));
                    twice[w] |= once[w] & bit;
                    once[w] |= bit;
                }
            }
            return a
                .iter()
                .zip(&hashes)
                .filter(|&(_, &h)| {
                    h < self.sigma && twice[(h / 64) as usize] & (1 << (h % 64)) == 0
                })
                .map(|(&x, _)| x)
                .collect();
        }
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
        let counts = self.window_counts(b);
        a.iter()
            .copied()
            .filter(|&x| {
                let Some(h) = self.window_hash(x) else {
                    return false;
                };
                match counts.get(&h) {
                    None => true,
                    Some(&c) => {
                        if b.binary_search(&x).is_ok() {
                            c == 1
                        } else {
                            false
                        }
                    }
                }
            })
            .collect()
    }

    /// Pack the window image of `xs` into a `σ`-bit bitmap (`σ/64` words):
    /// bit `i` is set iff some element hashes to `i`. This is the message
    /// format of `MultiTrial` (Alg. 4, line 4).
    pub fn window_bitmap(&self, xs: &[u64]) -> Vec<u64> {
        let words = self.sigma.div_ceil(64) as usize;
        let mut bits = vec![0u64; words];
        for h in xs.iter().filter_map(|&x| self.window_hash(x)) {
            bits[(h / 64) as usize] |= 1 << (h % 64);
        }
        bits
    }

    /// Multiplicity of each window hash value over `b`.
    fn window_counts(&self, b: &[u64]) -> HashMap<u64, u32> {
        let mut counts = HashMap::new();
        for h in b.iter().filter_map(|&x| self.window_hash(x)) {
            *counts.entry(h).or_insert(0u32) += 1;
        }
        counts
    }
}

/// Read bit `i` of a bitmap produced by [`RepHash::window_bitmap`].
#[inline]
pub fn bitmap_get(bits: &[u64], i: u64) -> bool {
    let word = (i / 64) as usize;
    word < bits.len() && bits[word] & (1 << (i % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix4;
    use std::collections::HashSet;

    fn family() -> RepHashFamily {
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 96, 16);
        RepHashFamily::new(0xfeed, params)
    }

    #[test]
    fn members_are_deterministic_and_distinct() {
        let f = family();
        let h1 = f.member(3);
        let h2 = f.member(4);
        assert_eq!(h1.hash(99), f.member(3).hash(99));
        let same = (0..200).filter(|&x| h1.hash(x) == h2.hash(x)).count();
        assert!(same < 20, "members look identical: {same} agreements");
    }

    /// The same-slice fast path must agree with the general path
    /// (including on duplicate elements).
    #[test]
    fn isolated_self_join_fast_path_matches_general() {
        let f = family();
        for index in [0u64, 2, 5] {
            let h = f.member(index);
            let a: Vec<u64> = (0..400u64).map(|i| i * 3).collect();
            let b = a.clone();
            assert_eq!(h.isolated(&a, &a), h.isolated(&a, &b), "index {index}");
            let mut d: Vec<u64> = (0..100u64).map(|i| i * 5).collect();
            d.push(250);
            d.sort_unstable();
            let db = d.clone();
            assert_eq!(h.isolated(&d, &d), h.isolated(&d, &db), "index {index}");
            assert_eq!(h.isolated(&[], &[]).len(), 0);
        }
    }

    /// `w < window_cut() ⟺ bounded(w, λ) < σ`, at the boundary words and
    /// on random words, for windows from one bucket up to `σ = λ` (cut
    /// `2⁶⁴`) and ranges that do and do not divide `2⁶⁴`.
    #[test]
    fn window_cut_is_exact() {
        for (lambda, sigma) in [
            (2u64, 1u64),
            (3, 1),
            (3, 3),
            (600, 96),
            (28_672, 512),
            (7_000_003, 2048),
            (1 << 40, 1 << 39),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX - 1),
            (u64::MAX, u64::MAX),
        ] {
            let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, lambda, sigma, 4);
            let h = RepHashFamily::new(1, params).member(0);
            let cut = h.window_cut();
            assert_eq!(cut == 1 << 64, sigma == lambda, "λ={lambda} σ={sigma}");
            let edges = [0, cut - 1, cut, u128::from(u64::MAX)];
            let random = (0..4096u64).map(|i| u128::from(mix64(i ^ lambda)));
            for w in edges.into_iter().chain(random) {
                let Ok(w) = u64::try_from(w) else { continue };
                assert_eq!(
                    u128::from(w) < cut,
                    bounded(w, lambda) < sigma,
                    "λ={lambda} σ={sigma} w={w}"
                );
            }
        }
    }

    #[test]
    fn window_hash_agrees_with_hash() {
        let f = family();
        let h = f.member(4);
        for x in 0..20_000u64 {
            let v = h.hash(x);
            assert_eq!(h.word(x), mix4(0xfeed, h.lambda(), 4, x));
            assert_eq!(h.window_hash(x), (v < h.sigma()).then_some(v), "x={x}");
            assert_eq!(h.in_window(x), v < h.sigma());
        }
        let mut lanes: [u64; 8] = std::array::from_fn(|i| mix64(i as u64 * 977));
        let want = lanes.map(|inner| h.word_from_inner(inner));
        h.words_from_inner(&mut lanes);
        assert_eq!(lanes, want);
    }

    #[test]
    fn hash_respects_lambda() {
        let f = family();
        let h = f.member(0);
        for x in 0..5000u64 {
            assert!(h.hash(x) < h.lambda());
        }
    }

    #[test]
    fn low_matches_in_window() {
        let f = family();
        let h = f.member(1);
        let a: Vec<u64> = (0..300).collect();
        let low = h.low(&a);
        assert!(low.iter().all(|&x| h.in_window(x)));
        let low_set: HashSet<u64> = low.iter().copied().collect();
        for &x in &a {
            assert_eq!(h.in_window(x), low_set.contains(&x));
        }
    }

    #[test]
    fn low_size_concentrates() {
        // E[|A|_h|] = σ|A|/λ; check it is within a factor 2 for a few members.
        let f = family();
        let a: Vec<u64> = (0..300).collect();
        let expected = f.params().sigma as f64 * a.len() as f64 / f.params().lambda as f64;
        for i in 0..20 {
            let low = f.member(i).low(&a);
            let got = low.len() as f64;
            assert!(
                got > expected / 2.0 && got < expected * 2.0,
                "member {i}: |low| = {got}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn partition_low_into_colliding_and_isolated() {
        // A|_h = (A ∧ A) ⊔ (A ¬ A) when B = A.
        let f = family();
        let a: Vec<u64> = (0..250).collect();
        for i in [0u64, 5, 11] {
            let h = f.member(i);
            let low: HashSet<u64> = h.low(&a).into_iter().collect();
            let coll: HashSet<u64> = h.colliding(&a, &a).into_iter().collect();
            let iso: HashSet<u64> = h.isolated(&a, &a).into_iter().collect();
            assert!(coll.is_disjoint(&iso));
            let union: HashSet<u64> = coll.union(&iso).copied().collect();
            assert_eq!(union, low);
        }
    }

    #[test]
    fn proposition1_eq1_collision_image_halves() {
        // |h(A ∧ A)| ≤ |A ∧ A| / 2.
        let f = family();
        let a: Vec<u64> = (0..400).collect();
        for i in 0..10 {
            let h = f.member(i);
            let coll = h.colliding(&a, &a);
            let img: HashSet<u64> = coll.iter().map(|&x| h.hash(x)).collect();
            assert!(2 * img.len() <= coll.len(), "member {i}");
        }
    }

    #[test]
    fn proposition1_eq2_isolated_image_is_injective() {
        // A ⊆ B ⇒ |h(A ¬ B)| = |A ¬ B|.
        let f = family();
        let b: Vec<u64> = (0..400).collect();
        let a: Vec<u64> = (0..150).collect();
        for i in 0..10 {
            let h = f.member(i);
            let iso = h.isolated(&a, &b);
            let img: HashSet<u64> = iso.iter().map(|&x| h.hash(x)).collect();
            assert_eq!(img.len(), iso.len(), "member {i}");
        }
    }

    #[test]
    fn proposition1_eq3_monotonicity() {
        // B ⊆ C ⇒ (A ∧ B) ⊆ (A ∧ C) and (A ¬ C) ⊆ (A ¬ B).
        let f = family();
        let a: Vec<u64> = (0..200).collect();
        let b: Vec<u64> = (0..100).collect();
        let c: Vec<u64> = (0..300).collect();
        for i in 0..10 {
            let h = f.member(i);
            let and_b: HashSet<u64> = h.colliding(&a, &b).into_iter().collect();
            let and_c: HashSet<u64> = h.colliding(&a, &c).into_iter().collect();
            assert!(and_b.is_subset(&and_c), "member {i}: ∧ not monotone");
            let not_b: HashSet<u64> = h.isolated(&a, &b).into_iter().collect();
            let not_c: HashSet<u64> = h.isolated(&a, &c).into_iter().collect();
            assert!(not_c.is_subset(&not_b), "member {i}: ¬ not antitone");
        }
    }

    #[test]
    fn bitmap_roundtrip() {
        let f = family();
        let h = f.member(2);
        let xs: Vec<u64> = (0..500).collect();
        let bits = h.window_bitmap(&xs);
        for &x in &xs {
            let hv = h.hash(x);
            if hv < h.sigma() {
                assert!(bitmap_get(&bits, hv));
            }
        }
        // Bits not covered by any hash must be clear.
        let hit: HashSet<u64> = xs
            .iter()
            .map(|&x| h.hash(x))
            .filter(|&v| v < h.sigma())
            .collect();
        for i in 0..h.sigma() {
            assert_eq!(bitmap_get(&bits, i), hit.contains(&i), "bit {i}");
        }
    }

    #[test]
    fn colliding_detects_cross_set_collisions() {
        // Construct b so that some a-element certainly collides: use the
        // same element value (hash equality guaranteed), which must NOT
        // count (collision must be with a *different* element)…
        let f = family();
        let h = f.member(9);
        let a = vec![42u64];
        // b = {42}: the only shared hash comes from 42 itself → no collision.
        let b_same = vec![42u64];
        assert!(h.colliding(&a, &b_same).is_empty());
        // Find some y ≠ 42 with h(y) == h(42): then {y} collides with 42.
        if h.in_window(42) {
            let target = h.hash(42);
            if let Some(y) = (0..200_000u64).find(|&y| y != 42 && h.hash(y) == target) {
                let b = vec![y];
                assert_eq!(h.colliding(&a, &b), vec![42]);
                assert!(h.isolated(&a, &b).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of family range")]
    fn member_index_bounds_checked() {
        let f = family();
        let _ = f.member(f.params().family_size);
    }

    #[test]
    fn empirical_goodness_fraction() {
        // Miniature E10: for a random pair (A, B) with |A| ≥ αλ, check that
        // most members satisfy the two Lemma 1 inequalities.
        let params = RepParams::practical(1.0 / 12.0, 1.0 / 3.0, 600, 128, 10);
        let f = RepHashFamily::new(7, params);
        let a: Vec<u64> = (0..150).collect(); // |A| = 150 ≥ αλ = 50
        let b: Vec<u64> = (100..250).collect();
        let sigma = params.sigma as f64;
        let lambda = params.lambda as f64;
        let beta = params.beta;
        let mu = sigma * a.len() as f64 / lambda;
        let mut good = 0;
        let total = 256u64;
        for i in 0..total {
            let h = f.member(i);
            let low = h.low(&a).len() as f64;
            let coll = h.colliding(&a, &b).len() as f64;
            if (low - mu).abs() <= beta * mu && coll <= 2.0 * mu * beta {
                good += 1;
            }
        }
        assert!(
            good as f64 >= 0.75 * total as f64,
            "only {good}/{total} members were (A,B)-good"
        );
    }
}
