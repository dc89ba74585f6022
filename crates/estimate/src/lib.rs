//! Estimation and sampling primitives from §3 of *Overcoming Congestion in
//! Distributed Coloring*.
//!
//! * [`estimate_similarity`] — `EstimateSimilarity(ε)` (Alg. 1, Lemma 2):
//!   two parties estimate `|S_u ∩ S_v|` within `ε·max(|S_u|,|S_v|)` in
//!   `O(1)` short messages;
//! * [`joint_sample`] — `JointSample(ε)` (Alg. 2, Lemma 3): the parties
//!   sample a *common* element of the intersection;
//! * [`NeighborhoodSimilarity`] — the per-edge CONGEST protocol estimating
//!   `|N(u) ∩ N(v)|` on every edge at once (4 rounds);
//! * [`estimate_sparsity`] — `EstimateSparsity(ε)` (Alg. 3, Lemmas 4–5),
//!   global and local variants;
//! * [`find_triangle_rich_edges`] — local triangle finding (Theorem 2);
//! * [`find_four_cycle_rich_wedges`] — local four-cycle finding
//!   (Theorem 3).
//!
//! # Example
//!
//! ```
//! use estimate::{estimate_similarity, SimilarityScheme};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let su: Vec<u64> = (0..300).collect();
//! let sv: Vec<u64> = (150..450).collect();
//! let mut rng = StdRng::seed_from_u64(1);
//! let out = estimate_similarity(&SimilarityScheme::practical(0.25), &su, &sv, 9, &mut rng);
//! // True intersection is 150; the estimate is within ε·300 = 75 w.h.p.
//! assert!((out.estimate - 150.0).abs() <= 75.0 + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod four_cycles;
mod joint_sample;
mod neighborhood;
mod scheme;
mod similarity;
mod sparsity;
mod triangles;

pub use four_cycles::{find_four_cycle_rich_wedges, FcMsg, FourCycleFinder, FourCycleReport};
pub use joint_sample::{
    joint_sample, joint_sample_many, JointSampleManyOutcome, JointSampleOutcome,
};
pub use neighborhood::{run_neighborhood_similarity, NeighborhoodSimilarity, NsMsg};
pub use scheme::SimilarityScheme;
pub use similarity::{
    estimate_similarity, exact_intersection, intersection_size, window_signature, EdgeSetup,
    Signer, SimilarityEstimate,
};
pub use sparsity::{estimate_sparsity, SparsityEstimates};
pub use triangles::{find_triangle_rich_edges, TriangleReport};
