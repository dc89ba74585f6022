//! `EstimateSimilarity(ε)` — Algorithm 1, Lemma 2.
//!
//! Two parties holding sets `S_u, S_v ⊆ U` estimate `|S_u ∩ S_v|` within
//! `ε·max(|S_u|, |S_v|)` using `O(1)` message flights of
//! `O(ε⁻⁴ log(1/ν) + log log|U| + log max(|S_u|,|S_v|))` bits:
//!
//! 1. scale the sets up by `k` if they are too small (step 2–3);
//! 2. jointly pick a representative hash function `h` (step 5) — realized
//!    by the lower-id party drawing the family index and sending it;
//! 3. exchange `h(T_u)`, `h(T_v)` where `T_u = S_u ¬_h S_u` (the window
//!    image of the collision-free part, a σ-bit bitmap, step 6);
//! 4. return `|h(T_u) ∩ h(T_v)|·λ/(σ·k)` (step 7).

use crate::scheme::SimilarityScheme;
use congest::BitTally;
use prand::mix::{bounded, mix64};
use prand::{RepHash, RepHashFamily};
use rand::Rng;
use std::cell::Cell;

/// Outcome of one `EstimateSimilarity` execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimilarityEstimate {
    /// The estimate of `|S_u ∩ S_v|`.
    pub estimate: f64,
    /// Communication transcript (Lemma 2's cost claim).
    pub tally: BitTally,
}

/// Run `EstimateSimilarity` on sets `su`, `sv` (sorted, deduplicated).
///
/// `seed` derives the shared hash family (public advice); `rng` supplies
/// the joint randomness of step 5 (in CONGEST the lower-id endpoint draws
/// it and sends the index, which is what the tally charges).
///
/// # Panics
///
/// Panics (debug only) if `su` or `sv` is unsorted.
///
/// # Example
///
/// ```
/// use estimate::{estimate_similarity, SimilarityScheme};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let su: Vec<u64> = (0..200).collect();
/// let sv: Vec<u64> = (100..300).collect();
/// let mut rng = StdRng::seed_from_u64(7);
/// let out = estimate_similarity(&SimilarityScheme::practical(0.25), &su, &sv, 42, &mut rng);
/// assert!((out.estimate - 100.0).abs() <= 0.25 * 200.0 + 1e-9);
/// ```
pub fn estimate_similarity<R: Rng + ?Sized>(
    scheme: &SimilarityScheme,
    su: &[u64],
    sv: &[u64],
    seed: u64,
    rng: &mut R,
) -> SimilarityEstimate {
    debug_assert!(su.windows(2).all(|w| w[0] < w[1]), "su must be sorted");
    debug_assert!(sv.windows(2).all(|w| w[0] < w[1]), "sv must be sorted");
    let mut tally = BitTally::new();
    // Step 1: empty sets have empty intersections.
    if su.is_empty() || sv.is_empty() {
        return SimilarityEstimate {
            estimate: 0.0,
            tally,
        };
    }
    let setup = EdgeSetup::new(scheme, su.len(), sv.len(), seed);
    let h = setup.pick_hash(rng, &mut tally);
    let bu = window_signature(&setup, &h, su);
    let bv = window_signature(&setup, &h, sv);
    // Step 6: exchange the σ-bit signatures.
    tally.exchange(setup.sigma());
    let j = intersection_size(&bu, &bv);
    SimilarityEstimate {
        estimate: setup.descale(j),
        tally,
    }
}

/// Shared per-edge setup: scale factor, family, σ — everything both
/// parties derive from `(scheme, |S_u|, |S_v|, seed)` without
/// communication. Public so downstream protocols (the almost-clique
/// decomposition in the `d1lc` crate) can reuse Alg. 1's machinery.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSetup {
    /// The shared representative hash family for this edge.
    pub family: RepHashFamily,
    /// The Alg. 1 step-2 scale-up factor.
    pub k: u64,
}

impl EdgeSetup {
    /// Derive the setup both endpoints compute without communication.
    pub fn new(scheme: &SimilarityScheme, su_len: usize, sv_len: usize, seed: u64) -> Self {
        let max_len = su_len.max(sv_len);
        let k = scheme.scale_factor(max_len);
        let params = scheme.rep_params(max_len * k as usize);
        EdgeSetup {
            family: RepHashFamily::new(seed, params),
            k,
        }
    }

    /// Step 5: joint hash choice; the index ride costs `⌈log₂ F⌉` bits in
    /// one direction.
    pub fn pick_hash<R: Rng + ?Sized>(&self, rng: &mut R, tally: &mut BitTally) -> RepHash {
        let index = self.family.sample_index(rng);
        tally.a_to_b(u64::from(self.family.index_bits()));
        self.family.member(index)
    }

    /// The observation window σ (signature length in bits).
    pub fn sigma(&self) -> u64 {
        self.family.params().sigma
    }

    /// Step 7's rescaling: window count → intersection estimate.
    pub fn descale(&self, window_count: usize) -> f64 {
        let p = self.family.params();
        window_count as f64 * p.lambda as f64 / (p.sigma as f64 * self.k as f64)
    }
}

/// Compute the σ-bit signature `h(T)` with `T = S' ¬_h S'` on the scaled-up
/// set `S' = S × [k]` (element `x` becomes `x·k + i` for `i ∈ [k]`; the
/// universe is relabeled injectively, callers keep colors below `2^63/k`).
///
/// Because the isolated-set operator is applied with `A = B = S'`, a
/// window bit is set iff **exactly one** element of `S'` hashes to it, so
/// the signature is one hashing pass over `S'` with a once/twice bit pair:
/// no scaled vector is sorted, no hash map is built. This is the one-shot
/// form of [`Signer::sign`]; a node signing its set for several edges
/// should keep one [`Signer`], which shares the member-independent part of
/// the hash across them. The equivalence with `isolated` + `window_bitmap`
/// is pinned by a test for every kernel the host supports.
pub fn window_signature(setup: &EdgeSetup, h: &RepHash, s: &[u64]) -> Vec<u64> {
    Signer::new(s).sign(setup, h)
}

/// A node's signer for its own set `S`: [`Signer::sign`] returns the
/// [`window_signature`] of `S` under one edge's setup and hash member.
///
/// A member hashes `y` to `bounded(mix64(seed ^ mix64(λ ^ mix64(index ^
/// mix64(y)))), λ)`, and the innermost `mix64(y)` of a scaled element
/// `y = x·k + i` depends on `k` but not on the member. The signer computes
/// those inner words once per distinct `k` (a node's edges usually share
/// one) and reuses them for every incident edge, which then pays three
/// mixes per scaled element. The window test compares each mixed word
/// against [`RepHash::window_cut`], so the widening multiply of `bounded`
/// runs only for the in-window words (a σ/λ share, ≈ 2% in the ACD).
/// A dropped signer leaves its buffers to the next signer on its thread.
///
/// # Example
///
/// ```
/// use estimate::{window_signature, EdgeSetup, SimilarityScheme, Signer};
///
/// let own: Vec<u64> = (0..40).map(|x| 3 * x).collect();
/// let setup = EdgeSetup::new(&SimilarityScheme::practical(0.25), own.len(), 50, 9);
/// let mut signer = Signer::new(&own);
/// for index in 0..4 {
///     let h = setup.family.member(index);
///     assert_eq!(signer.sign(&setup, &h), window_signature(&setup, &h, &own));
/// }
/// ```
#[derive(Debug)]
pub struct Signer<'a> {
    own: &'a [u64],
    /// `(k, [mix64(x·k + i) for x ∈ S, i ∈ [k]])` for every `k` signed so
    /// far, in `inner[..fresh]`. The entries past `fresh` are buffers that
    /// an earlier signer on this thread left in [`SPARE`]; they are reused
    /// before anything is allocated, since a new buffer per node
    /// fragments the heap and raises peak RSS.
    inner: Vec<(u64, Vec<u64>)>,
    fresh: usize,
    kernel: Kernel,
}

thread_local! {
    /// The inner-word buffers of the last [`Signer`] dropped on this
    /// thread.
    static SPARE: Cell<Vec<(u64, Vec<u64>)>> = const { Cell::new(Vec::new()) };
}

impl Drop for Signer<'_> {
    fn drop(&mut self) {
        SPARE.set(std::mem::take(&mut self.inner));
    }
}

impl<'a> Signer<'a> {
    /// A signer for the set `own`.
    pub fn new(own: &'a [u64]) -> Self {
        Signer::with_kernel(own, Kernel::fastest())
    }

    fn with_kernel(own: &'a [u64], kernel: Kernel) -> Self {
        Signer {
            own,
            inner: SPARE.take(),
            fresh: 0,
            kernel,
        }
    }

    /// The σ-bit signature `h(S' ¬_h S')` of `S' = own × [setup.k]`.
    pub fn sign(&mut self, setup: &EdgeSetup, h: &RepHash) -> Vec<u64> {
        let words = h.sigma().div_ceil(64) as usize;
        let mut once = vec![0u64; words];
        let mut twice = vec![0u64; words];
        let kernel = self.kernel;
        kernel.tally(h, self.inner_words(setup.k), &mut once, &mut twice);
        for (o, t) in once.iter_mut().zip(&twice) {
            *o &= !t;
        }
        once
    }

    /// The inner words of `own × [k]`, computed on first use.
    fn inner_words(&mut self, k: u64) -> &[u64] {
        let seen = &self.inner[..self.fresh];
        if let Some(at) = seen.iter().position(|&(seen_k, _)| seen_k == k) {
            return &self.inner[at].1;
        }
        if self.fresh == self.inner.len() {
            self.inner.push((k, Vec::new()));
        }
        let (slot_k, words) = &mut self.inner[self.fresh];
        self.fresh += 1;
        *slot_k = k;
        words.clear();
        words.reserve(self.own.len() * k as usize);
        for &x in self.own {
            words.extend((0..k).map(|i| mix64(x * k + i)));
        }
        words
    }
}

/// Inner words per kernel chunk: one 512-bit vector of `u64` lanes.
const LANES: usize = 8;

/// Inner words mixed per block before any window test.
const BLOCK: usize = 128;

/// The compiled forms of [`tally_body`]. The platform picks one; there is
/// no switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// The portable build.
    Scalar,
    /// The same body compiled for `avx512f` + `avx512dq`, where the chunk's
    /// 64-bit multiplies become 8-lane `vpmullq`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The fastest kernel the running CPU supports.
    fn fastest() -> Self {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            return Kernel::Avx512;
        }
        Kernel::Scalar
    }

    /// Every kernel the running CPU supports.
    #[cfg(test)]
    fn supported() -> Vec<Self> {
        let mut all = vec![Kernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            all.push(Kernel::Avx512);
        }
        all
    }

    fn tally(self, h: &RepHash, inner: &[u64], once: &mut [u64], twice: &mut [u64]) {
        match self {
            Kernel::Scalar => tally_body(h, inner, once, twice),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                assert!(has_avx512(), "AVX-512 signature kernel on a CPU without it");
                // SAFETY: `tally_avx512` is safe apart from its target
                // features, `avx512f` and `avx512dq`, and the assert above
                // has just confirmed with `is_x86_feature_detected!` that
                // the running CPU supports both.
                unsafe { tally_avx512(h, inner, once, twice) }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn tally_avx512(h: &RepHash, inner: &[u64], once: &mut [u64], twice: &mut [u64]) {
    tally_body(h, inner, once, twice);
}

/// Mark the window value of every inner word under `h` in the once/twice
/// bit pair. A block of inner words is mixed chunk by chunk, [`LANES`]
/// words at a time, with no branch in between, so consecutive chunks
/// overlap in the pipeline. Then each chunk is tested against the window
/// cut at once, and only a chunk with a hit is walked word by word. Only
/// the hits are bounded and marked.
#[inline(always)]
fn tally_body(h: &RepHash, inner: &[u64], once: &mut [u64], twice: &mut [u64]) {
    // `w < cut` as a `u64` compare `w <= last`; an empty window marks
    // nothing, and `σ = λ` (cut `2⁶⁴`) passes every word.
    let Some(last) = h.window_cut().checked_sub(1) else {
        return;
    };
    let last = u64::try_from(last).unwrap_or(u64::MAX);
    let lambda = h.lambda();
    let mut mark = |w: u64| {
        let hv = bounded(w, lambda);
        let (i, bit) = ((hv / 64) as usize, 1u64 << (hv % 64));
        twice[i] |= once[i] & bit;
        once[i] |= bit;
    };
    let mut buf = [0u64; BLOCK];
    for block in inner.chunks(BLOCK) {
        let words = &mut buf[..block.len()];
        words.copy_from_slice(block);
        let (chunks, rest) = words.as_chunks_mut::<LANES>();
        for chunk in chunks {
            h.words_from_inner(chunk);
        }
        for w in rest {
            *w = h.word_from_inner(*w);
        }
        for chunk in words.chunks(LANES) {
            if chunk.iter().fold(false, |hit, &w| hit | (w <= last)) {
                for &w in chunk.iter().filter(|&&w| w <= last) {
                    mark(w);
                }
            }
        }
    }
}

/// `|h(T_u) ∩ h(T_v)|` from the two bitmaps.
pub fn intersection_size(bu: &[u64], bv: &[u64]) -> usize {
    bu.iter()
        .zip(bv)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

/// Ground truth `|S_u ∩ S_v|` for sorted slices (test/benchmark helper).
pub fn exact_intersection(su: &[u64], sv: &[u64]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < su.len() && j < sv.len() {
        match su[i].cmp(&sv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The pre-fusion [`window_signature`]: materialize the scaled set,
    /// sort a copy, apply the isolated-set operator, pack the bitmap. The
    /// oracle the fused kernel is pinned against.
    fn window_signature_reference(setup: &EdgeSetup, h: &RepHash, s: &[u64]) -> Vec<u64> {
        if setup.k == 1 {
            // Force the general (hash-map) isolated path, as the original
            // always took: pass a distinct, sorted copy as `b`.
            let mut sorted = s.to_vec();
            sorted.sort_unstable();
            let t = h.isolated(s, &sorted);
            return h.window_bitmap(&t);
        }
        let scaled: Vec<u64> = s
            .iter()
            .flat_map(|&x| (0..setup.k).map(move |i| x * setup.k + i))
            .collect();
        let mut sorted = scaled.clone();
        sorted.sort_unstable();
        let t = h.isolated(&scaled, &sorted);
        h.window_bitmap(&t)
    }

    fn run_once(su: &[u64], sv: &[u64], eps: f64, seed: u64, trial: u64) -> SimilarityEstimate {
        let mut rng = StdRng::seed_from_u64(trial);
        estimate_similarity(&SimilarityScheme::practical(eps), su, sv, seed, &mut rng)
    }

    /// A setup with a hand-picked range λ, window σ and scale factor `k`.
    fn custom_setup(lambda: u64, sigma: u64, k: u64, seed: u64) -> EdgeSetup {
        let params = prand::RepParams::practical(1.0 / 12.0, 1.0 / 3.0, lambda, sigma, 8);
        EdgeSetup {
            family: RepHashFamily::new(seed, params),
            k,
        }
    }

    /// Every signature kernel the host supports, called directly, and the
    /// dispatching [`window_signature`] must equal the preserved
    /// `isolated(S', S')` + `window_bitmap` reference composition. Each
    /// signer here reuses the buffers the previous one left, with other
    /// lengths and scale factors.
    #[test]
    fn window_signature_matches_isolated_bitmap_reference() {
        let kernels = Kernel::supported();
        let check = |setup: &EdgeSetup, s: &[u64], case: &str| {
            for index in [0u64, 3] {
                let h = setup.family.member(index);
                let want = window_signature_reference(setup, &h, s);
                let what = format!("{case}: len={} k={} index={index}", s.len(), setup.k);
                assert_eq!(window_signature(setup, &h, s), want, "dispatch, {what}");
                for &kernel in &kernels {
                    let got = Signer::with_kernel(s, kernel).sign(setup, &h);
                    assert_eq!(got, want, "{kernel:?}, {what}");
                }
            }
        };
        let set = |len: usize, seed: u64| -> Vec<u64> {
            (0..len as u64).map(|i| i * 7 + seed % 3).collect()
        };
        // Scheme-derived setups; these small sets all scale by
        // k = scale_cap, the empty set included.
        let scheme = SimilarityScheme::practical(1.0 / 12.0);
        for (len, seed) in [(0usize, 1u64), (1, 7), (5, 2), (40, 3), (200, 4)] {
            let setup = EdgeSetup::new(&scheme, len.max(1), len.max(1), seed);
            assert_eq!(setup.k, scheme.scale_cap);
            check(&setup, &set(len, seed), "scale cap");
        }
        // k == 1 (scale-up disabled), at lengths off the chunk and block
        // widths.
        let flat = SimilarityScheme {
            scale_cap: 1,
            ..scheme
        };
        for len in [1usize, 7, 13, 129, 4000] {
            let setup = EdgeSetup::new(&flat, len, len, 11);
            assert_eq!(setup.k, 1, "scale_cap 1 must pin k");
            check(&setup, &set(len, 5), "k = 1");
        }
        // σ = λ: the cut is 2⁶⁴ and every word is in the window; and an
        // odd k, so scaled lengths leave a partial chunk.
        for len in [0usize, 1, 5, 11, 50] {
            let s = set(len, 2);
            check(&custom_setup(64, 64, 1, 9), &s, "σ = λ, k = 1");
            check(&custom_setup(600, 600, 3, 8), &s, "σ = λ, k = 3");
            check(&custom_setup(601, 96, 3, 7), &s, "k = 3");
        }
        // Edges of different scale at one node: one signer serves them
        // all, keeping one set of inner words per k.
        let own = set(37, 1);
        let setups = [
            custom_setup(9472, 512, 16, 1),
            custom_setup(601, 96, 3, 2),
            custom_setup(4096, 512, 1, 3),
            custom_setup(9472, 512, 16, 4),
            custom_setup(601, 601, 3, 5),
        ];
        for &kernel in &kernels {
            let mut signer = Signer::with_kernel(&own, kernel);
            for (e, setup) in setups.iter().enumerate() {
                let h = setup.family.member(e as u64);
                let want = window_signature_reference(setup, &h, &own);
                assert_eq!(signer.sign(setup, &h), want, "{kernel:?}, edge {e}");
            }
            assert_eq!(signer.fresh, 3, "one set of inner words per k");
        }
    }

    #[test]
    fn empty_sets_give_zero() {
        let out = run_once(&[], &[1, 2, 3], 0.25, 1, 1);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.tally.total_bits(), 0);
    }

    #[test]
    fn identical_sets_estimate_their_size() {
        let s: Vec<u64> = (0..500).collect();
        let mut ok = 0;
        for trial in 0..20 {
            let out = run_once(&s, &s, 0.25, 9, trial);
            if (out.estimate - 500.0).abs() <= 0.25 * 500.0 {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 trials within ε bound");
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let su: Vec<u64> = (0..400).collect();
        let sv: Vec<u64> = (1000..1400).collect();
        let mut ok = 0;
        for trial in 0..20 {
            let out = run_once(&su, &sv, 0.25, 5, trial);
            if out.estimate <= 0.25 * 400.0 {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 trials within ε bound");
    }

    #[test]
    fn half_overlap_is_recovered() {
        let su: Vec<u64> = (0..600).collect();
        let sv: Vec<u64> = (300..900).collect();
        let mut ok = 0;
        for trial in 0..30 {
            let out = run_once(&su, &sv, 0.25, 3, trial);
            if (out.estimate - 300.0).abs() <= 0.25 * 600.0 {
                ok += 1;
            }
        }
        assert!(ok >= 27, "only {ok}/30 trials within ε bound");
    }

    #[test]
    fn small_sets_use_scale_up() {
        // Sets of size 8 trigger k > 1; estimates should still be sane.
        let su: Vec<u64> = (0..8).collect();
        let sv: Vec<u64> = (4..12).collect();
        let mut total = 0.0;
        let trials = 50;
        for trial in 0..trials {
            total += run_once(&su, &sv, 0.5, 17, trial).estimate;
        }
        let mean = total / trials as f64;
        assert!((mean - 4.0).abs() < 3.0, "mean estimate {mean}, truth 4");
    }

    #[test]
    fn message_cost_matches_lemma2_shape() {
        // One index flight + two σ-bit signatures.
        let su: Vec<u64> = (0..300).collect();
        let sv: Vec<u64> = (0..300).collect();
        let scheme = SimilarityScheme::practical(0.25);
        let mut rng = StdRng::seed_from_u64(0);
        let out = estimate_similarity(&scheme, &su, &sv, 1, &mut rng);
        let setup = EdgeSetup::new(&scheme, 300, 300, 1);
        let expected = u64::from(setup.family.index_bits()) + 2 * setup.sigma();
        assert_eq!(out.tally.total_bits(), expected);
        assert_eq!(out.tally.flights(), 3);
    }

    #[test]
    fn exact_intersection_helper() {
        assert_eq!(exact_intersection(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(exact_intersection(&[], &[1]), 0);
        assert_eq!(exact_intersection(&[5], &[5]), 1);
    }

    #[test]
    fn deterministic_given_seed_and_rng() {
        let su: Vec<u64> = (0..100).collect();
        let sv: Vec<u64> = (50..150).collect();
        let a = run_once(&su, &sv, 0.25, 2, 7);
        let b = run_once(&su, &sv, 0.25, 2, 7);
        assert_eq!(a, b);
    }
}
