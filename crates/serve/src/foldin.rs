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
//!   item's counts are all zero, so it depends only on the new topic;
//! * for an item with several documents and friends, each friend's
//!   Eq. 14 terms `ln max(σ((s_v + π_vc) / (D + |C|ρ)), MIN_POSITIVE)`
//!   for every community, with `s_v = Σ_c (n_uc + ρ) π_vc`. They read
//!   no chain state but the item's community counts `n_uc` with the
//!   current document removed — not the new topic — so they are kept
//!   per `n_uc` row, `friends × |C|` cells stored friend-major, and
//!   found again through a flat hash table over the row that a full
//!   row compare confirms. Each draw then rebuilds
//!   `ln(n_uc + ρ) + ln θ_{c,z}` and adds the kept terms friend by
//!   friend. That friendship term is most of a user fold-in's work: it
//!   costs one `exp` and one `ln` per (friend, community) for each
//!   distinct `n_uc` state the chain reaches, rather than on every
//!   draw.
//!
//! A kept conditional is stored as the shifted weights and total that
//! [`prepare_log_weights`] made of it, and each draw scans them with
//! [`draw_prepared`] — the two halves of `sample_log_index_mut`, which
//! the other draws still call. This is bit-exact: a kept value is the
//! same floating-point expression on the same operands as the one it
//! replaces, and a draw consumes one uniform (or one `gen_range` when
//! no weight is finite) exactly as the one-shot sampler does, so the
//! RNG stream, every draw and every profile are unchanged. Kept
//! friendship terms are added to each weight in the same friend order
//! as when they were computed in place, so every weight is the same
//! sequence of additions on the same operands.
//!
//! The memos are reset per item, so nothing carries over between items
//! sharing a scratch, and together they keep at most a fixed number of
//! `f64` cells per item (a private constant). A state first reached
//! once that budget is spent is computed into a scratch row and drawn
//! from without being kept — the same arithmetic, so still bit-exact —
//! which bounds a scratch's memory by the item's shape rather than by
//! how many states its chain visits.

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
    /// A multi-document item's friendship terms per `n_uc` state.
    friend_memo: FriendTermMemo,
    /// `f64` cells the memos may still keep for the current item.
    memo_cells_left: usize,
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

/// Most `f64` cells the memos of one item keep between them (256 KiB).
/// The repository benchmark's user fold-ins (3 documents, 5 friends,
/// `|C| = |Z| = 50`) need at most 90 × 250 friendship cells plus
/// 90 × 50 topic cells, so they never reach it.
const MEMO_BUDGET_CELLS: usize = 1 << 15;

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
    /// A new key's log weights once the budget is spent; empty until
    /// the item first needs it.
    spill: Vec<f64>,
    width: usize,
}

impl DrawMemo {
    /// Forget every key (one per item, so nothing leaks between items).
    fn reset(&mut self, keys: usize, width: usize) {
        refill(&mut self.row_of, keys, 0);
        self.weights.clear();
        self.totals.clear();
        self.spill.clear();
        self.width = width;
    }

    /// Draw from `key`'s conditional, writing its log weights with
    /// `fill` on the key's first use. The weights are kept if
    /// `cells_left` has room for them and drawn from unkept otherwise.
    #[inline]
    fn draw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        key: usize,
        cells_left: &mut usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> usize {
        let width = self.width;
        let row = match self.row_of[key] {
            0 if *cells_left < width => {
                self.spill.resize(width, 0.0);
                fill(&mut self.spill);
                return sample_log_index_mut(rng, &mut self.spill);
            }
            0 => {
                *cells_left -= width;
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

/// Eq. 14's friendship terms of a multi-document item, kept per `n_uc`
/// state (the item's community counts with the current document
/// removed): row `r` holds the terms of every friend for every
/// community, friend-major, for the counts in `keys` row `r`. States
/// are found through `slots`, an open-addressed table of row indices
/// hashed from the counts and confirmed by comparing the whole row.
#[derive(Debug, Default)]
struct FriendTermMemo {
    /// Per slot: a row index plus one, or 0 when empty. A power of two
    /// with more slots than the rows an item can keep, so every probe
    /// ends at an empty slot.
    slots: Vec<u32>,
    /// Kept states' count rows, `c_n` cells each.
    keys: Vec<u32>,
    /// Kept terms, `friends · c_n` cells per row.
    terms: Vec<f64>,
    /// One friend's terms for a new state once the budget is spent;
    /// empty until the item first needs it.
    spill: Vec<f64>,
    c_n: usize,
    friends: usize,
}

impl FriendTermMemo {
    /// Forget every state, sizing the table for the most rows an item
    /// can keep: one per community draw, and no more than `cells` hold
    /// (none for a friendless item).
    fn reset(&mut self, c_n: usize, friends: usize, draws: usize, cells: usize) {
        self.c_n = c_n;
        self.friends = friends;
        let rows = cells
            .checked_div(friends * c_n)
            .map_or(0, |rows| rows.min(draws));
        refill(&mut self.slots, (2 * rows + 1).next_power_of_two(), 0);
        self.keys.clear();
        self.terms.clear();
        self.spill.clear();
    }

    /// Add every friend's terms at counts `n_uc` to `lw`, friend by
    /// friend. `fill(f, out)` writes friend `f`'s terms for every
    /// community; it runs on the state's first visit, whose terms are
    /// kept if `cells_left` has room for them.
    #[inline]
    fn add_terms(
        &mut self,
        n_uc: &[u32],
        cells_left: &mut usize,
        lw: &mut [f64],
        mut fill: impl FnMut(usize, &mut [f64]),
    ) {
        let (c_n, row_len) = (self.c_n, self.friends * self.c_n);
        let mask = self.slots.len() - 1;
        let mut slot = row_hash(n_uc) as usize & mask;
        let row = loop {
            match self.slots[slot] {
                0 if *cells_left < row_len => {
                    self.spill.resize(c_n, 0.0);
                    for f in 0..self.friends {
                        fill(f, &mut self.spill);
                        add_row(lw, &self.spill);
                    }
                    return;
                }
                0 => {
                    *cells_left -= row_len;
                    let row = self.keys.len() / c_n;
                    self.keys.extend_from_slice(n_uc);
                    self.terms.resize((row + 1) * row_len, 0.0);
                    for (f, out) in self.terms[row * row_len..]
                        .chunks_exact_mut(c_n)
                        .enumerate()
                    {
                        fill(f, out);
                    }
                    self.slots[slot] = row as u32 + 1;
                    break row;
                }
                kept => {
                    let row = kept as usize - 1;
                    if self.keys[row * c_n..(row + 1) * c_n] == *n_uc {
                        break row;
                    }
                }
            }
            slot = (slot + 1) & mask;
        };
        for terms in self.terms[row * row_len..(row + 1) * row_len].chunks_exact(c_n) {
            add_row(lw, terms);
        }
    }
}

/// FxHash-style hash of a count row.
#[inline]
fn row_hash(row: &[u32]) -> u64 {
    row.iter().fold(0u64, |h, &n| {
        (h.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// `lw[c] += terms[c]` for every community.
#[inline]
fn add_row(lw: &mut [f64], terms: &[f64]) {
    for (lw, &t) in lw.iter_mut().zip(terms) {
        *lw += t;
    }
}

/// Friend `v`'s half of Eq. 14's dot product at counts `n_uc`:
/// `s_v = Σ_c (n_uc + ρ) π_vc`, summed in community order. A candidate
/// community `c` adds `π_vc` (the `O(1)` incremental dot product).
#[inline]
fn friend_dot(pi_v: &[f64], n_uc: &[u32], rho: f64) -> f64 {
    let mut s_v = 0.0f64;
    for (&pv, &n) in pi_v.iter().zip(n_uc) {
        s_v += (n as f64 + rho) * pv;
    }
    s_v
}

/// Eq. 14's friendship term for one candidate community: the exact
/// Bernoulli log likelihood `ln σ((s_v + π_vc) / denom_u)`, floored so
/// an underflowed sigmoid cannot make every weight `-inf`.
#[inline]
fn ln_friend_term(s_v: f64, pi_vc: f64, denom_u: f64) -> f64 {
    sigmoid((s_v + pi_vc) / denom_u).max(f64::MIN_POSITIVE).ln()
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
                self.profile_with_seed_indexed(
                    item,
                    self.config.seed,
                    i as u64,
                    &mut scratch,
                    None,
                    MEMO_BUDGET_CELLS,
                )
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
        self.profile_with_seed_indexed(item, seed, 0, scratch, None, MEMO_BUDGET_CELLS)
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
        self.profile_with_seed_indexed(item, seed, 0, scratch, trace, MEMO_BUDGET_CELLS)
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
        memo_cells: usize,
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
        let draws = self.config.sweeps * d_n;
        let friends = item.friends.len();
        scratch.friend_memo.reset(c_n, friends, draws, memo_cells);
        scratch.memo_cells_left = memo_cells;
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
                let key = d * c_n + c_cur;
                let cells_left = &mut scratch.memo_cells_left;
                let z_new = scratch.topic_memo.draw(&mut rng, key, cells_left, |lw| {
                    let theta_row = idx.log_theta_row(c_cur);
                    for ((lw, &lq), &lt) in lw.iter_mut().zip(logq).zip(theta_row) {
                        *lw = lq + lt;
                    }
                });
                scratch.doc_z[d] = z_new as u32;

                // Community resample with the document removed.
                scratch.n_uc[c_cur] -= 1;
                let (n_uc, ln_n_rho) = (&scratch.n_uc, &scratch.ln_n_rho);
                let prior = |lw: &mut [f64]| {
                    for (c, lw) in lw.iter_mut().enumerate() {
                        *lw = ln_n_rho[n_uc[c] as usize] + idx.log_theta_row(c)[z_new];
                    }
                };
                let c_new = if d_n == 1 {
                    let cells_left = &mut scratch.memo_cells_left;
                    scratch.comm_memo.draw(&mut rng, z_new, cells_left, |lw| {
                        prior(lw);
                        for &v in &item.friends {
                            let pi_v = idx.user_membership(v);
                            let s_v = friend_dot(pi_v, n_uc, rho);
                            for (lw, &pv) in lw.iter_mut().zip(pi_v) {
                                *lw += ln_friend_term(s_v, pv, denom_u);
                            }
                        }
                    })
                } else {
                    prior(&mut scratch.lw_comm);
                    if !item.friends.is_empty() {
                        scratch.friend_memo.add_terms(
                            n_uc,
                            &mut scratch.memo_cells_left,
                            &mut scratch.lw_comm,
                            |f, out| {
                                let pi_v = idx.user_membership(item.friends[f]);
                                let s_v = friend_dot(pi_v, n_uc, rho);
                                for (t, &pv) in out.iter_mut().zip(pi_v) {
                                    *t = ln_friend_term(s_v, pv, denom_u);
                                }
                            },
                        );
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cpd_core::{CpdConfig, CpdModel, Eta};
    use cpd_prob::dirichlet::sample_symmetric_dirichlet;
    use cpd_prob::rng::seeded_rng;

    /// `serving_shape_model` of `tests/foldin.rs`, draw for draw:
    /// `|C| = |Z| = 50` over 400 words and 120 users.
    fn serving_shape_index() -> ProfileIndex {
        let (c_n, z_n, v_n, u_n) = (50, 50, 400, 120);
        let mut rng = seeded_rng(0x5E7E);
        let mut row = |n: usize, alpha: f64, floor: f64| -> Vec<f64> {
            sample_symmetric_dirichlet(&mut rng, n, alpha)
                .into_iter()
                .map(|p| (1.0 - floor) * p + floor / n as f64)
                .collect()
        };
        let pi = (0..u_n).map(|_| row(c_n, 0.1, 0.05)).collect();
        let theta = (0..c_n).map(|_| row(z_n, 0.1, 0.05)).collect();
        let phi = (0..z_n).map(|_| row(v_n, 0.05, 0.1)).collect();
        let model = CpdModel {
            pi,
            theta,
            phi,
            eta: Eta::uniform(c_n, z_n),
            nu: vec![0.1; N_FEATURES],
            topic_popularity: vec![vec![1.0 / z_n as f64; z_n]],
            doc_community: vec![],
            doc_topic: vec![],
        };
        ProfileIndex::build(model, &CpdConfig::new(c_n, z_n))
    }

    /// `fingerprint_items` of `tests/foldin.rs`, draw for draw, with the
    /// seed that fingerprint uses on the serving shape: docless, one-
    /// and multi-document items, without and with friends, every fifth
    /// multi-document item large (12–24 documents of up to 30 words).
    fn fingerprint_items() -> Vec<(FoldInItem, u64)> {
        let (v_n, u_n) = (400u32, 120u32);
        let mut rng = seeded_rng(0xF1A6 ^ u64::from(v_n));
        (0..300)
            .map(|i| {
                let n_docs = match (i % 6) / 2 {
                    0 => 0,
                    1 => 1,
                    _ if i % 5 == 0 => rng.gen_range(12..=24),
                    _ => rng.gen_range(2..=5),
                };
                let max_words = if n_docs > 5 { 30 } else { 12 };
                let docs = (0..n_docs)
                    .map(|_| {
                        let len = rng.gen_range(0..=max_words);
                        (0..len).map(|_| WordId(rng.gen_range(0..v_n))).collect()
                    })
                    .collect();
                let friends = if i % 2 == 1 {
                    let k = rng.gen_range(1..=6);
                    (0..k).map(|_| UserId(rng.gen_range(0..u_n))).collect()
                } else {
                    Vec::new()
                };
                (FoldInItem::user(docs, friends), rng.gen())
            })
            .collect()
    }

    /// The friendship-term memo on its own, through a table small
    /// enough that states collide: every draw must add exactly its own
    /// state's terms, in friend order, whether they are computed and
    /// kept, found again, or computed past the budget.
    #[test]
    fn friend_memo_adds_the_terms_of_the_state_it_is_given() {
        let (c_n, friends, draws) = (7, 3, 400);
        // A distinct, full-mantissa value per (friend, state, community).
        let term = |f: usize, n_uc: &[u32], c: usize| -> f64 {
            let s: f64 = n_uc.iter().zip(1..).map(|(&n, k)| f64::from(n * k)).sum();
            ((f * c_n + c + 2) as f64).ln() / (s + 1.5)
        };
        let mut rng = seeded_rng(0xF7E3);
        let mut memo = FriendTermMemo::default();
        for budget in [0, 10 * friends * c_n, MEMO_BUDGET_CELLS] {
            memo.reset(c_n, friends, draws, budget);
            let mut cells_left = budget;
            let mut states = std::collections::HashSet::new();
            for _ in 0..draws {
                // Three documents' communities, so states repeat.
                let mut n_uc = vec![0u32; c_n];
                (0..3).for_each(|_| n_uc[rng.gen_range(0..c_n)] += 1);
                states.insert(n_uc.clone());
                let base: Vec<f64> = (0..c_n).map(|_| rng.gen::<f64>()).collect();
                let mut want = base.clone();
                for f in 0..friends {
                    for (c, w) in want.iter_mut().enumerate() {
                        *w += term(f, &n_uc, c);
                    }
                }
                let mut got = base;
                memo.add_terms(&n_uc, &mut cells_left, &mut got, |f, out| {
                    for (c, t) in out.iter_mut().enumerate() {
                        *t = term(f, &n_uc, c);
                    }
                });
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "budget {budget}, counts {n_uc:?}");
            }
            // The first states reached are kept, as many as fit.
            let rows = states.len().min(budget / (friends * c_n));
            assert_eq!(memo.terms.len(), rows * friends * c_n, "budget {budget}");
        }
    }

    #[test]
    fn memos_keep_every_bit_at_any_budget() {
        let index = serving_shape_index();
        let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
        let items = fingerprint_items();
        let profiles = |budget: usize| -> Vec<FoldedProfile> {
            let mut scratch = FoldScratch::new();
            items
                .iter()
                .map(|(item, seed)| {
                    engine.profile_with_seed_indexed(item, *seed, 0, &mut scratch, None, budget)
                })
                .collect()
        };
        let kept = profiles(MEMO_BUDGET_CELLS);
        // Nothing kept, and a budget spent part-way through many items.
        for budget in [0, 4_000] {
            assert!(
                profiles(budget) == kept,
                "budget {budget} changed an answer"
            );
        }
    }

    #[test]
    fn benchmark_shape_user_fold_ins_stay_under_the_budget() {
        let index = serving_shape_index();
        let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
        let mut rng = seeded_rng(0xB5E7);
        let mut scratch = FoldScratch::new();
        for _ in 0..100 {
            let docs = (0..3)
                .map(|_| (0..8).map(|_| WordId(rng.gen_range(0..400))).collect())
                .collect();
            let mut friends = Vec::new();
            while friends.len() < 5 {
                let v = UserId(rng.gen_range(0..120));
                if !friends.contains(&v) {
                    friends.push(v);
                }
            }
            let item = FoldInItem::user(docs, friends);
            engine.profile_with_seed(&item, rng.gen(), &mut scratch);
            // 30 sweeps × 3 draws, each at most one new row of 5 × 50
            // friendship cells and one of 50 topic cells.
            let used = MEMO_BUDGET_CELLS - scratch.memo_cells_left;
            assert!(used <= 90 * (5 * 50 + 50), "{used} cells kept");
            assert!(scratch.topic_memo.spill.is_empty());
            assert!(scratch.friend_memo.spill.is_empty());
        }
    }

    #[test]
    fn large_fingerprint_items_spill_both_memos() {
        let index = serving_shape_index();
        let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
        let mut scratch = FoldScratch::new();
        let (mut topic_spills, mut friend_spills) = (0, 0);
        for (item, seed) in fingerprint_items() {
            engine.profile_with_seed(&item, seed, &mut scratch);
            if item.docs.len() >= 12 && !item.friends.is_empty() {
                topic_spills += usize::from(!scratch.topic_memo.spill.is_empty());
                friend_spills += usize::from(!scratch.friend_memo.spill.is_empty());
            }
        }
        assert!(
            topic_spills > 0 && friend_spills > 0,
            "of the large items with friends, {topic_spills} drew topic conditionals \
             and {friend_spills} friendship terms past the budget"
        );
    }
}
