//! The variational M-step (Sect. 4.2): re-estimate `η` by aggregating
//! the last sweep's community/topic assignments over the diffusion
//! links, and fit `ν` by logistic regression on observed diffusion
//! links plus an equal number of sampled negative links.
//!
//! # Where each estimator runs
//!
//! `η` aggregation is a single pass over the diffusion links on the
//! coordinator (about 1 ms a fit on the link-heavy benchmark corpus).
//!
//! The `ν` gradient is *defined* as a sum of fixed-size example-chunk
//! partials ([`NU_GRAD_CHUNK`]), each chunk summed left-to-right and
//! the partials folded in ascending chunk order. That fixes the float
//! summation order independently of where the chunks are computed, so
//! [`fit_nu`] on the coordinator and the worker pool's
//! `WorkerPool::fit_nu` (chunks spread over the idle E-step workers)
//! return the same bits, and the golden fingerprints, which pin `ν`,
//! hold serially and under the pool alike. The chunked fold stays for
//! that reason: the fingerprints pin its float order, and a single
//! left-to-right pass would round differently whenever the training
//! set spans more than one chunk.

use crate::config::CpdConfig;
use crate::features::{UserFeatures, N_FEATURES};
use crate::gibbs::{diffusion_logit, SweepContext};
use crate::profiles::Eta;
use crate::state::{CpdState, LinkMeta};
use cpd_prob::special::sigmoid;
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::SocialGraph;
use std::collections::HashSet;

/// Examples per `ν`-gradient chunk — the unit of work distribution
/// *and* of floating-point summation order (see the module docs).
pub const NU_GRAD_CHUNK: usize = 1024;

/// A logistic-regression training example for the `ν` fit.
#[derive(Debug, Clone, Copy)]
pub struct NuExample {
    /// Feature vector (Eq. 5).
    pub x: [f64; N_FEATURES],
    /// `true` for an observed diffusion link, `false` for a sampled
    /// negative.
    pub label: bool,
}

/// Reusable M-step scratch owned by the fit loop: the
/// `|C|·|C|·|Z|` η count buffer and the `ν` training-set vector used
/// to be allocated fresh every EM iteration, and the negative-sampling
/// link `HashSet` rebuilt from scratch each call — the links never
/// change over a fit, so it is built exactly once here.
pub(crate) struct MstepScratch {
    /// η aggregation buffer (`|C|·|C|·|Z|`).
    pub eta_counts: Vec<f64>,
    /// Observed `(src_doc, dst_doc)` pairs, for negative-sample
    /// rejection.
    pub linked: HashSet<(u32, u32)>,
    /// `ν` training examples (capacity reused across iterations).
    pub examples: Vec<NuExample>,
}

impl MstepScratch {
    pub(crate) fn new(links: &[LinkMeta]) -> Self {
        Self {
            eta_counts: Vec::new(),
            linked: links.iter().map(|lm| (lm.src_doc, lm.dst_doc)).collect(),
            examples: Vec::new(),
        }
    }
}

// --- η estimation -------------------------------------------------------

/// Aggregate `η_{c,c',z}` from the current hard assignments:
/// each diffusion link `(i → j)` contributes one count to
/// `(c_i, c_j, z_j)`; rows are smoothed and normalised per source
/// community (Alg. 1, steps 11–12).
pub fn estimate_eta(state: &CpdState, links: &[LinkMeta], smoothing: f64) -> Eta {
    let mut buf = Vec::new();
    estimate_eta_with(state, links, smoothing, &mut buf)
}

/// [`estimate_eta`] into a caller-owned count buffer (the fit loop's
/// [`MstepScratch`], so no per-EM-iteration allocation).
pub(crate) fn estimate_eta_with(
    state: &CpdState,
    links: &[LinkMeta],
    smoothing: f64,
    buf: &mut Vec<f64>,
) -> Eta {
    let c_n = state.n_communities;
    let z_n = state.n_topics;
    buf.clear();
    buf.resize(c_n * c_n * z_n, 0.0);
    for lm in links {
        let c1 = state.doc_community[lm.src_doc as usize] as usize;
        let c2 = state.doc_community[lm.dst_doc as usize] as usize;
        let z = state.doc_topic[lm.dst_doc as usize] as usize;
        buf[c1 * c_n * z_n + c2 * z_n + z] += 1.0;
    }
    Eta::from_counts(c_n, z_n, buf, smoothing)
}

// --- ν training set -----------------------------------------------------

/// Assemble the `ν` training set: cached positive feature vectors (from
/// the δ pass) plus `negative_ratio` random non-linked document pairs
/// per positive (Sect. 4.2: "we randomly sample the same amount of
/// non-observed diffusion links as negative instances"). The observed
/// link set and output vector come from the caller's scratch.
pub(crate) fn build_nu_training_set_into(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    positive_x: &[[f64; N_FEATURES]],
    rng: &mut StdRng,
    linked: &HashSet<(u32, u32)>,
    examples: &mut Vec<NuExample>,
) {
    examples.clear();
    let cap = ctx.config.nu_max_positives;
    let n_pos = if cap == 0 {
        positive_x.len()
    } else {
        positive_x.len().min(cap)
    };
    examples.reserve(n_pos * 2);
    // Subsample positives uniformly if capped.
    if n_pos == positive_x.len() {
        for x in positive_x {
            examples.push(NuExample { x: *x, label: true });
        }
    } else {
        for _ in 0..n_pos {
            let i = rng.gen_range(0..positive_x.len());
            examples.push(NuExample {
                x: positive_x[i],
                label: true,
            });
        }
    }

    let n_docs = ctx.graph.n_docs();
    let n_neg = (n_pos as f64 * ctx.config.negative_ratio).round() as usize;
    let mut buf = Vec::new();
    let mut produced = 0usize;
    let mut guard = 0usize;
    while produced < n_neg && guard < n_neg * 30 + 100 {
        guard += 1;
        let i = rng.gen_range(0..n_docs) as u32;
        let j = rng.gen_range(0..n_docs) as u32;
        if i == j || linked.contains(&(i, j)) {
            continue;
        }
        let src_author = ctx.graph.docs()[i as usize].author.0;
        let dst_author = ctx.graph.docs()[j as usize].author.0;
        if src_author == dst_author {
            continue;
        }
        let lm = LinkMeta {
            src_doc: i,
            dst_doc: j,
            src_author,
            dst_author,
            at: ctx.graph.docs()[i as usize].timestamp,
        };
        let (_, x) = diffusion_logit(ctx, state, &lm, &mut buf);
        examples.push(NuExample { x, label: false });
        produced += 1;
    }
}

/// Assemble the `ν` training set (standalone version for benches and
/// tests): builds the sweep context and observed-link set internally
/// and returns a fresh example vector. The trainer uses an internal
/// variant that reuses the fit loop's scratch buffers instead.
#[allow(clippy::too_many_arguments)]
pub fn build_nu_training_set(
    graph: &SocialGraph,
    config: &CpdConfig,
    eta: &Eta,
    nu: &[f64],
    features: &UserFeatures,
    links: &[LinkMeta],
    state: &CpdState,
    positive_x: &[[f64; N_FEATURES]],
    rng: &mut StdRng,
) -> Vec<NuExample> {
    let tables = crate::gibbs::SamplerTables::new(graph, config);
    let ctx = SweepContext::new(graph, config, eta, nu, features, links, &tables);
    let linked: HashSet<(u32, u32)> = links.iter().map(|lm| (lm.src_doc, lm.dst_doc)).collect();
    let mut examples = Vec::new();
    build_nu_training_set_into(&ctx, state, positive_x, rng, &linked, &mut examples);
    examples
}

// --- ν fitting ----------------------------------------------------------

/// Gradient of the logistic log-likelihood over one example chunk
/// (summed left-to-right — the chunk is the unit of float ordering).
pub(crate) fn nu_chunk_grad(examples: &[NuExample], nu: &[f64]) -> [f64; N_FEATURES] {
    let mut grad = [0.0f64; N_FEATURES];
    for ex in examples {
        let w: f64 = nu.iter().zip(ex.x.iter()).map(|(a, b)| a * b).sum();
        let err = sigmoid(w) - if ex.label { 1.0 } else { 0.0 };
        for (g, &xi) in grad.iter_mut().zip(ex.x.iter()) {
            *g += err * xi;
        }
    }
    grad
}

/// Apply one gradient-descent step from chunk partials folded in
/// ascending chunk order.
pub(crate) fn apply_nu_step<I: IntoIterator<Item = [f64; N_FEATURES]>>(
    nu: &mut [f64],
    chunk_grads: I,
    n_examples: f64,
    lr: f64,
) {
    let mut grad = [0.0f64; N_FEATURES];
    for g in chunk_grads {
        for (a, b) in grad.iter_mut().zip(g.iter()) {
            *a += b;
        }
    }
    for (v, g) in nu.iter_mut().zip(grad.iter()) {
        *v -= lr * g / n_examples;
    }
}

/// Fit `ν` by full-batch gradient descent on the logistic
/// log-likelihood (Alg. 1, steps 13–14). Starts from the previous `ν`
/// (warm start). The gradient is accumulated per [`NU_GRAD_CHUNK`]
/// examples and the chunk partials folded in order, so the result is
/// bit-identical to the worker pool's fit at any worker count.
pub fn fit_nu(examples: &[NuExample], nu: &mut [f64], config: &CpdConfig) {
    if examples.is_empty() {
        return;
    }
    let n = examples.len() as f64;
    let lr = config.nu_learning_rate;
    let mut grads = vec![[0.0f64; N_FEATURES]; examples.len().div_ceil(NU_GRAD_CHUNK)];
    for _ in 0..config.nu_iters {
        for (g, chunk) in grads.iter_mut().zip(examples.chunks(NU_GRAD_CHUNK)) {
            *g = nu_chunk_grad(chunk, nu);
        }
        apply_nu_step(nu, grads.iter().copied(), n, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpdConfig;
    use crate::counts::PairCounts;
    use cpd_prob::rng::seeded_rng;

    #[test]
    fn eta_aggregation_counts_hard_assignments() {
        let state = CpdState {
            n_communities: 2,
            n_topics: 2,
            vocab_size: 1,
            n_timestamps: 1,
            doc_community: vec![0, 1, 0, 1],
            doc_topic: vec![0, 1, 1, 0],
            user_comm: PairCounts::dense(0, 0),
            comm_topic: PairCounts::dense(0, 0),
            word_topic: PairCounts::dense(0, 0),
            n_tz: vec![],
            n_t: vec![],
            lambda: vec![],
            delta: vec![],
        };
        let links = vec![
            // doc0 (c=0) diffuses doc1 (c=1, z=1): count (0, 1, 1).
            LinkMeta {
                src_doc: 0,
                dst_doc: 1,
                src_author: 0,
                dst_author: 1,
                at: 0,
            },
            // doc2 (c=0) diffuses doc3 (c=1, z=0): count (0, 1, 0).
            LinkMeta {
                src_doc: 2,
                dst_doc: 3,
                src_author: 0,
                dst_author: 1,
                at: 0,
            },
            // doc1 (c=1) diffuses doc0 (c=0, z=0): count (1, 0, 0).
            LinkMeta {
                src_doc: 1,
                dst_doc: 0,
                src_author: 1,
                dst_author: 0,
                at: 0,
            },
        ];
        let eta = estimate_eta(&state, &links, 0.0);
        // Row 0: two counts at (1,1) and (1,0) -> 0.5 each.
        assert!((eta.at(0, 1, 1) - 0.5).abs() < 1e-12);
        assert!((eta.at(0, 1, 0) - 0.5).abs() < 1e-12);
        assert_eq!(eta.at(0, 0, 0), 0.0);
        // Row 1: single count.
        assert!((eta.at(1, 0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logistic_regression_learns_a_separator() {
        // Feature 1 positive for label 1, negative for label 0.
        let mut rng = seeded_rng(9);
        let mut examples = Vec::new();
        for i in 0..400 {
            let label = i % 2 == 0;
            let mut x = [0.0; N_FEATURES];
            x[0] = 1.0;
            x[1] = if label { 1.0 } else { -1.0 };
            x[2] = rng.gen::<f64>() - 0.5; // noise
            examples.push(NuExample { x, label });
        }
        let mut nu = vec![0.0; N_FEATURES];
        let cfg = CpdConfig::new(2, 2);
        fit_nu(&examples, &mut nu, &cfg);
        assert!(nu[1] > 0.5, "separator weight {}", nu[1]);
        assert!(nu[2].abs() < 0.5, "noise weight {}", nu[2]);
        // Training accuracy should be high.
        let correct = examples
            .iter()
            .filter(|ex| {
                let w: f64 = nu.iter().zip(ex.x.iter()).map(|(a, b)| a * b).sum();
                (w > 0.0) == ex.label
            })
            .count();
        assert!(correct > 380, "accuracy {correct}/400");
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut nu = vec![0.3; N_FEATURES];
        fit_nu(&[], &mut nu, &CpdConfig::new(2, 2));
        assert!(nu.iter().all(|&v| v == 0.3));
    }
}
