//! Fold-in inference: profiling documents and users that arrived
//! **after** training, against the frozen model.
//!
//! Training estimates `π̂`/`θ̂`/`φ̂` from Gibbs counts; serving cannot
//! touch those counts (the model is a shared read-only snapshot), so a
//! new user is profiled by a *local* collapsed Gibbs chain over only
//! her own latent variables — one `(community, topic)` pair per
//! document, exactly the latent structure of the training model —
//! while every global parameter stays frozen:
//!
//! * topic resample: `p(z_d = z) ∝ θ_{c_d,z} Π_{w∈d} φ_zw` — the
//!   training Eq. 13 with the community-topic counts frozen at `θ`;
//! * community resample: `p(c_d = c) ∝ (n^{¬d}_{uc} + ρ) θ_{c,z_d}
//!   Π_{v∈friends} σ(π̂_uᵀ π_v)` — the training Eq. 14 with `θ` frozen
//!   and the friendship factor evaluated as the exact Bernoulli
//!   likelihood (serving needs no Pólya-Gamma conjugacy because nothing
//!   is being learned), using the same `O(1)`-per-candidate incremental
//!   dot product as `gibbs.rs`.
//!
//! Only the user-local counts `n_uc` move, so the chain mixes in a few
//! sweeps; post-burn-in samples are averaged into the posterior
//! membership `π̂` and topic mixture. Every chain runs off an explicit
//! seed — a child RNG derived from `(seed, slot)` for batch slot `i`,
//! or from the caller's per-request seed through
//! [`FoldIn::profile_with_seed`] — so a profile is **deterministic
//! given (item, seed, slot)** and never depends on which worker thread
//! serves it.
//!
//! The per-engine [`FoldScratch`] reuses every buffer across items —
//! the same idiom as the trainer's `SweepScratch` — so the per-item
//! hot loop never touches the allocator once it has grown to the
//! largest item.
//!
//! # Each conditional computed once
//!
//! With the global parameters frozen, several of the chain's
//! conditionals depend only on a small discrete state, and the chain
//! revisits those states sweep after sweep. Each is computed the first
//! time its state comes up and kept for the rest of the item:
//!
//! * `ln(n + ρ)` for the community prior, as a table over
//!   `n ∈ 0..=|D|` (a count never exceeds the item's documents);
//! * the topic conditional of document `d`, `ln φ`-sum plus
//!   `ln θ_{c,·}`, which depends only on `(d, c_d)`;
//! * for a single-document item, the whole community conditional
//!   (friendship terms included): with its only document removed the
//!   item's counts are all zero, so it depends only on the new topic.
//!   With several documents the counts move with every draw and the
//!   community conditional is computed per draw as before.
//!
//! A kept conditional is stored as the shifted weights and total that
//! [`prepare_log_weights`] made of it, and each draw scans them with
//! [`draw_prepared`] — the two halves of `sample_log_index_mut`, which
//! the other draws still call. This is bit-exact: a kept value is the
//! same floating-point expression on the same operands as the one it
//! replaces, and a draw consumes one uniform (or one `gen_range` when
//! no weight is finite) exactly as the one-shot sampler does, so the
//! RNG stream, every draw and every profile are unchanged. The memos
//! are reset per item, so nothing carries over between items sharing
//! a scratch.

use crate::index::ProfileIndex;
use cpd_core::features::{community_feature, F_ACT_V, F_COMMUNITY, F_POP_V, F_TOPIC_POP};
use cpd_core::features::{UserFeatures, N_FEATURES};
use cpd_core::{exp_shift_max, membership_link_score, soft_community_factor};
use cpd_prob::categorical::{draw_prepared, prepare_log_weights, sample_log_index_mut};
use cpd_prob::rng::child_rng;
use cpd_prob::special::sigmoid;
use cpd_telemetry::ActiveTrace;
use rand::Rng;
use social_graph::{UserId, WordId};
use std::time::Instant;

/// Fold-in sampler settings.
#[derive(Debug, Clone)]
pub struct FoldInConfig {
    /// Total Gibbs sweeps per item.
    pub sweeps: usize,
    /// Leading sweeps discarded before averaging (must be `< sweeps`).
    pub burnin: usize,
    /// Root seed; batch item `i` samples with a child RNG derived from
    /// `(seed, i)`.
    pub seed: u64,
}

impl Default for FoldInConfig {
    fn default() -> Self {
        Self {
            sweeps: 30,
            burnin: 10,
            seed: 0x5E12_F01D,
        }
    }
}

impl FoldInConfig {
    /// Sanity checks; called by [`FoldIn::new`].
    pub fn validate(&self) -> Result<(), String> {
        if self.sweeps == 0 {
            return Err("fold-in needs at least one sweep".into());
        }
        if self.burnin >= self.sweeps {
            return Err("fold-in burnin must leave at least one sample".into());
        }
        Ok(())
    }
}

/// An unseen document or user to profile: a bag-of-words document list
/// plus optional friendship links into the trained user set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldInItem {
    /// The item's documents (one entry for a single-document fold-in).
    pub docs: Vec<Vec<WordId>>,
    /// Trained users this new user is linked to (evidence for the
    /// community resample; empty for content-only profiling).
    pub friends: Vec<UserId>,
}

impl FoldInItem {
    /// A single unseen document.
    pub fn doc(words: Vec<WordId>) -> Self {
        Self {
            docs: vec![words],
            friends: Vec::new(),
        }
    }

    /// An unseen user: her documents plus friendship links into the
    /// trained graph.
    pub fn user(docs: Vec<Vec<WordId>>, friends: Vec<UserId>) -> Self {
        Self { docs, friends }
    }
}

/// Posterior profile of a folded-in document or user.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedProfile {
    /// Posterior community membership `π̂` (length `|C|`, sums to 1).
    pub membership: Vec<f64>,
    /// Posterior topic mixture (length `|Z|`, sums to 1).
    pub topics: Vec<f64>,
    /// Per input document: posterior over its (single) topic
    /// assignment, averaged over post-burn-in samples.
    pub doc_topics: Vec<Vec<f64>>,
}

impl FoldedProfile {
    /// The most probable community.
    pub fn dominant_community(&self) -> usize {
        cpd_core::dominant_index(&self.membership)
    }

    /// Eq. 3 friendship probability between this profile and trained
    /// user `v` — the same `apps::diffusion` math the offline predictor
    /// uses, applied to the folded-in membership row.
    pub fn friendship_score(&self, index: &ProfileIndex, v: UserId) -> f64 {
        membership_link_score(&self.membership, index.user_membership(v))
    }

    /// Eq. 18 probability that this (folded-in) user diffuses a
    /// document with `words` authored by trained user `v` at time `t`.
    /// The new user has no follower/activity history, so her individual
    /// features are neutral (zero); `v`'s come from `features`.
    pub fn diffusion_score(
        &self,
        index: &ProfileIndex,
        features: &UserFeatures,
        v: UserId,
        words: &[WordId],
        t: u32,
    ) -> f64 {
        diffusion_score_rows(index, None, &self.membership, v, words, t, Some(features))
    }
}

/// Eq. 18 against the frozen profiles, for an explicit diffuser
/// membership row. `u_feat` carries the diffuser's static features when
/// she is a trained user; `None` leaves the u-side individual features
/// neutral (the fold-in case). `v_feat` supplies the author-side static
/// features (skipped if `None` or if the model was trained without the
/// individual factor).
pub(crate) fn diffusion_score_rows(
    index: &ProfileIndex,
    u_feat: Option<(&UserFeatures, UserId)>,
    pi_u: &[f64],
    v: UserId,
    words: &[WordId],
    t: u32,
    v_feat: Option<&UserFeatures>,
) -> f64 {
    let model = index.model();
    let cfg = index.config();
    let c_n = model.n_communities();
    let z_n = model.n_topics();

    // "No heterogeneity" ablation: diffusion links are modelled exactly
    // like friendship links — mirror `DiffusionPredictor::score`.
    if cfg.diffusion == cpd_core::DiffusionModel::SameAsFriendship {
        return membership_link_score(pi_u, index.user_membership(v));
    }

    // p(z | d) from the posting lists (identical numbers to the dense
    // `word_topic_posterior`).
    let mut pz = Vec::new();
    index.query_log_affinities_into(words, &mut pz);
    exp_shift_max(&mut pz);
    let total: f64 = pz.iter().sum();
    pz.iter_mut().for_each(|p| *p /= total);

    let mut x = [0.0f64; N_FEATURES];
    x[0] = 1.0; // bias
    if cfg.individual_factor {
        match u_feat {
            Some((features, u)) => features.fill_static(&mut x, u, v, true),
            None => {
                if let Some(features) = v_feat {
                    x[F_POP_V] = features.popularity(v);
                    x[F_ACT_V] = features.activeness(v);
                }
            }
        }
    }
    let pi_v = index.user_membership(v);
    let t_idx = (t as usize).min(model.topic_popularity.len().saturating_sub(1));
    let mut acc = 0.0f64;
    for (z, &p_z) in pz.iter().enumerate() {
        if p_z < 1e-12 {
            continue;
        }
        let s = soft_community_factor(&model.theta, &model.eta, pi_u, pi_v, z);
        x[F_COMMUNITY] = community_feature(s, c_n, z_n);
        x[F_TOPIC_POP] = if cfg.topic_factor && !model.topic_popularity.is_empty() {
            model.topic_popularity[t_idx][z]
        } else {
            0.0
        };
        let w: f64 = model.nu.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        acc += p_z * sigmoid(w);
    }
    acc
}

/// Reusable per-engine buffers for the fold-in hot loop (the
/// `SweepScratch` idiom): one allocation set serves every item of every
/// batch the engine profiles.
#[derive(Debug, Default)]
pub struct FoldScratch {
    /// Cached per-document topic log affinities (`D × Z`, doc-major).
    doc_logq: Vec<f64>,
    /// `ln(n + ρ)` for `n ∈ 0..=D`.
    ln_n_rho: Vec<f64>,
    /// Topic-candidate log weights (`Z`).
    lw_topic: Vec<f64>,
    /// Community-candidate log weights (`C`).
    lw_comm: Vec<f64>,
    /// The topic conditional per (document, current community).
    topic_memo: DrawMemo,
    /// A single-document item's community conditional per topic.
    comm_memo: DrawMemo,
    /// User-local community counts `n_uc` (`C`).
    n_uc: Vec<u32>,
    /// Current per-document assignments (`D` each).
    doc_z: Vec<u32>,
    doc_c: Vec<u32>,
    /// Post-burn-in accumulators.
    pi_acc: Vec<f64>,
    mix_acc: Vec<f64>,
    doc_topic_acc: Vec<f64>,
}

impl FoldScratch {
    /// Fresh (empty) scratch; buffers grow to fit the largest item.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One conditional family of a chain, keyed by the small discrete state
/// it depends on: a key's log weights are computed and prepared
/// ([`prepare_log_weights`]) the first time the chain reaches it, and
/// every later draw at that key only scans the kept weights
/// ([`draw_prepared`]). Rows are appended in visiting order, so the
/// memory follows the states the chain reaches, not the key space.
#[derive(Debug, Default)]
struct DrawMemo {
    /// Per key: its row in `weights` plus one, or 0 when not yet filled.
    row_of: Vec<u32>,
    /// Prepared weights, `width` per filled key.
    weights: Vec<f64>,
    /// Per filled row: the total from [`prepare_log_weights`].
    totals: Vec<Option<f64>>,
    width: usize,
}

impl DrawMemo {
    /// Forget every key (one per item, so nothing leaks between items).
    fn reset(&mut self, keys: usize, width: usize) {
        refill(&mut self.row_of, keys, 0);
        self.weights.clear();
        self.totals.clear();
        self.width = width;
    }

    /// Draw from `key`'s conditional, writing its log weights with
    /// `fill` on the key's first use.
    #[inline]
    fn draw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        key: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> usize {
        let width = self.width;
        let row = match self.row_of[key] {
            0 => {
                let start = self.weights.len();
                self.weights.resize(start + width, 0.0);
                let lw = &mut self.weights[start..];
                fill(lw);
                self.totals.push(prepare_log_weights(lw));
                self.row_of[key] = self.totals.len() as u32;
                self.totals.len() - 1
            }
            filled => filled as usize - 1,
        };
        draw_prepared(
            rng,
            &self.weights[row * width..(row + 1) * width],
            self.totals[row],
        )
    }
}

/// Reset `buf` to `n` copies of `fill` without shrinking its allocation.
#[inline]
fn refill<T: Copy>(buf: &mut Vec<T>, n: usize, fill: T) {
    buf.clear();
    buf.resize(n, fill);
}

/// The fold-in engine: borrows a [`ProfileIndex`] (never mutating it)
/// and profiles unseen items against it.
#[derive(Debug)]
pub struct FoldIn<'a> {
    index: &'a ProfileIndex,
    config: FoldInConfig,
}

impl<'a> FoldIn<'a> {
    /// Create an engine over `index`, validating `config`.
    pub fn new(index: &'a ProfileIndex, config: FoldInConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { index, config })
    }

    /// The engine's settings.
    pub fn config(&self) -> &FoldInConfig {
        &self.config
    }

    /// Profile a batch of items. Slot `i` samples with a child RNG
    /// derived from `(config.seed, i)`, so the whole batch is
    /// deterministic for a given `(items, seed)`; callers who need
    /// profiles that are
    /// stable across *different* batch compositions should route each
    /// item through [`FoldIn::profile_with_seed`] with its own seed
    /// (the runtime's per-request seeds do exactly that).
    pub fn profile_batch(&self, items: &[FoldInItem]) -> Vec<FoldedProfile> {
        let mut scratch = FoldScratch::new();
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                self.profile_with_seed_indexed(item, self.config.seed, i as u64, &mut scratch, None)
            })
            .collect()
    }

    /// Profile one item with an explicit root seed (the runtime's
    /// per-request seeds route through here), reusing `scratch`.
    pub fn profile_with_seed(
        &self,
        item: &FoldInItem,
        seed: u64,
        scratch: &mut FoldScratch,
    ) -> FoldedProfile {
        self.profile_with_seed_indexed(item, seed, 0, scratch, None)
    }

    /// [`FoldIn::profile_with_seed`] with span recording: each Gibbs
    /// sweep appends a `gibbs_sweep` child span under `parent` in
    /// `trace`. Tracing never perturbs the chain — the RNG stream and
    /// the produced profile are byte-identical to the untraced call.
    pub fn profile_with_seed_traced(
        &self,
        item: &FoldInItem,
        seed: u64,
        scratch: &mut FoldScratch,
        trace: Option<(&ActiveTrace, u64)>,
    ) -> FoldedProfile {
        self.profile_with_seed_indexed(item, seed, 0, scratch, trace)
    }

    /// A user with no documents has no latent `(c, z)` chain to sample,
    /// but her friendship links are still evidence. Marginalising a
    /// single *virtual* document's community assignment analytically
    /// (its content factor is empty, so no sampling is needed):
    /// `p(c) ∝ Π_v σ((ρ + π_vc) / (1 + |C|ρ))`, and the reported
    /// membership is the posterior mean `Σ_c p(c) π̂^(c)` with
    /// `π̂^(c)_{c'} = ([c = c'] + ρ) / (1 + |C|ρ)`. With no friends
    /// either, this collapses to the uniform prior.
    fn profile_docless(
        &self,
        item: &FoldInItem,
        c_n: usize,
        z_n: usize,
        rho: f64,
    ) -> FoldedProfile {
        let denom = 1.0 + c_n as f64 * rho;
        let mut logp = vec![0.0f64; c_n];
        for &v in &item.friends {
            let pi_v = self.index.user_membership(v);
            for (c, lp) in logp.iter_mut().enumerate() {
                *lp += sigmoid((rho + pi_v[c]) / denom).max(f64::MIN_POSITIVE).ln();
            }
        }
        exp_shift_max(&mut logp);
        let total: f64 = logp.iter().sum();
        let p_c: Vec<f64> = logp.iter().map(|&w| w / total).collect();
        let membership: Vec<f64> = (0..c_n)
            .map(|c2| {
                p_c.iter()
                    .enumerate()
                    .map(|(c, &p)| p * ((if c == c2 { 1.0 } else { 0.0 } + rho) / denom))
                    .sum()
            })
            .collect();
        FoldedProfile {
            membership,
            topics: vec![1.0 / z_n as f64; z_n],
            doc_topics: Vec::new(),
        }
    }

    fn profile_with_seed_indexed(
        &self,
        item: &FoldInItem,
        seed: u64,
        index_in_batch: u64,
        scratch: &mut FoldScratch,
        trace: Option<(&ActiveTrace, u64)>,
    ) -> FoldedProfile {
        let idx = self.index;
        let c_n = idx.n_communities();
        let z_n = idx.n_topics();
        let d_n = item.docs.len();
        let rho = idx.rho();
        let alpha = idx.alpha();
        let mut rng = child_rng(seed ^ 0x00F0_1D11, index_in_batch);

        if d_n == 0 {
            return self.profile_docless(item, c_n, z_n, rho);
        }

        // ---- One-time per-item precomputation -----------------------
        // Per-doc topic log affinities via the posting lists.
        refill(&mut scratch.doc_logq, d_n * z_n, 0.0);
        for (d, words) in item.docs.iter().enumerate() {
            let row = &mut scratch.doc_logq[d * z_n..(d + 1) * z_n];
            for w in words {
                for (lq, &lp) in row.iter_mut().zip(idx.postings(*w)) {
                    *lq += lp;
                }
            }
        }

        // ---- Initialise assignments ---------------------------------
        refill(&mut scratch.doc_z, d_n, 0);
        refill(&mut scratch.doc_c, d_n, 0);
        refill(&mut scratch.n_uc, c_n, 0);
        refill(&mut scratch.lw_topic, z_n, 0.0);
        refill(&mut scratch.lw_comm, c_n, 0.0);
        for d in 0..d_n {
            scratch
                .lw_topic
                .copy_from_slice(&scratch.doc_logq[d * z_n..(d + 1) * z_n]);
            let z = sample_log_index_mut(&mut rng, &mut scratch.lw_topic);
            scratch.doc_z[d] = z as u32;
            for (c, lw) in scratch.lw_comm.iter_mut().enumerate() {
                *lw = idx.log_theta_row(c)[z];
            }
            let c = sample_log_index_mut(&mut rng, &mut scratch.lw_comm);
            scratch.doc_c[d] = c as u32;
            scratch.n_uc[c] += 1;
        }

        // ---- Gibbs sweeps -------------------------------------------
        refill(&mut scratch.pi_acc, c_n, 0.0);
        refill(&mut scratch.mix_acc, z_n, 0.0);
        refill(&mut scratch.doc_topic_acc, d_n * z_n, 0.0);
        scratch.ln_n_rho.clear();
        scratch
            .ln_n_rho
            .extend((0..=d_n).map(|n| (n as f64 + rho).ln()));
        scratch.topic_memo.reset(d_n * c_n, z_n);
        // With its only document removed, a single-document item's
        // counts are all zero, so its community conditional is a
        // function of the new topic alone.
        scratch.comm_memo.reset(if d_n == 1 { z_n } else { 0 }, c_n);
        let denom_u = d_n as f64 + c_n as f64 * rho;
        let mut samples = 0usize;
        for sweep in 0..self.config.sweeps {
            // One clock read per sweep, and only when sampled — the
            // untraced path pays a single branch here.
            let sweep_start = trace.map(|_| Instant::now());
            for d in 0..d_n {
                // Topic resample: θ frozen, words fixed, so the
                // conditional is a function of (d, c_d).
                let c_cur = scratch.doc_c[d] as usize;
                let logq = &scratch.doc_logq[d * z_n..(d + 1) * z_n];
                let z_new = scratch.topic_memo.draw(&mut rng, d * c_n + c_cur, |lw| {
                    let theta_row = idx.log_theta_row(c_cur);
                    for ((lw, &lq), &lt) in lw.iter_mut().zip(logq).zip(theta_row) {
                        *lw = lq + lt;
                    }
                });
                scratch.doc_z[d] = z_new as u32;

                // Community resample with the document removed.
                scratch.n_uc[c_cur] -= 1;
                let (n_uc, ln_n_rho) = (&scratch.n_uc, &scratch.ln_n_rho);
                let fill = |lw: &mut [f64]| {
                    for (c, lw) in lw.iter_mut().enumerate() {
                        *lw = ln_n_rho[n_uc[c] as usize] + idx.log_theta_row(c)[z_new];
                    }
                    // Friendship evidence: exact Bernoulli likelihood with
                    // the O(1)-per-candidate incremental dot product.
                    for &v in &item.friends {
                        let pi_v = idx.user_membership(v);
                        let mut s_v = 0.0f64;
                        for (c, &pv) in pi_v.iter().enumerate() {
                            s_v += (n_uc[c] as f64 + rho) * pv;
                        }
                        for (c, lw) in lw.iter_mut().enumerate() {
                            let dot = (s_v + pi_v[c]) / denom_u;
                            *lw += sigmoid(dot).max(f64::MIN_POSITIVE).ln();
                        }
                    }
                };
                let c_new = if d_n == 1 {
                    scratch.comm_memo.draw(&mut rng, z_new, fill)
                } else {
                    fill(&mut scratch.lw_comm);
                    sample_log_index_mut(&mut rng, &mut scratch.lw_comm)
                };
                scratch.doc_c[d] = c_new as u32;
                scratch.n_uc[c_new] += 1;
            }

            if let (Some((t, parent)), Some(start)) = (trace, sweep_start) {
                t.record_between("gibbs_sweep", parent, start, Instant::now());
            }

            if sweep < self.config.burnin {
                continue;
            }
            samples += 1;
            for (c, acc) in scratch.pi_acc.iter_mut().enumerate() {
                *acc += (scratch.n_uc[c] as f64 + rho) / denom_u;
            }
            // n_uz is one-hot per doc: smooth the per-topic doc counts
            // into the mixture and accumulate the per-doc posterior.
            let denom_z = d_n as f64 + z_n as f64 * alpha;
            let base = alpha / denom_z;
            scratch.mix_acc.iter_mut().for_each(|a| *a += base);
            for (d, &z) in scratch.doc_z.iter().enumerate() {
                scratch.mix_acc[z as usize] += 1.0 / denom_z;
                scratch.doc_topic_acc[d * z_n + z as usize] += 1.0;
            }
        }

        // ---- Posterior averages -------------------------------------
        let s = samples as f64;
        let membership: Vec<f64> = scratch.pi_acc.iter().map(|&a| a / s).collect();
        let topics: Vec<f64> = scratch.mix_acc.iter().map(|&a| a / s).collect();
        let doc_topics: Vec<Vec<f64>> = (0..d_n)
            .map(|d| {
                scratch.doc_topic_acc[d * z_n..(d + 1) * z_n]
                    .iter()
                    .map(|&a| a / s)
                    .collect()
            })
            .collect();
        FoldedProfile {
            membership,
            topics,
            doc_topics,
        }
    }
}
