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
//!
//! A kept conditional is stored as the shifted weights and total that
//! [`prepare_log_weights`] made of it, and each draw scans them with
//! [`draw_prepared`] — the two halves of `sample_log_index_mut`, which
//! the other draws still call. This is bit-exact: a kept value is the
//! same floating-point expression on the same operands as the one it
//! replaces, and a draw consumes one uniform (or one `gen_range` when
//! no weight is finite) exactly as the one-shot sampler does, so the
//! RNG stream, every draw and every profile are unchanged.
//!
//! The memos are reset per item, so nothing carries over between items
//! sharing a scratch, and together they keep at most a fixed number of
//! `f64` cells per item (a private constant). A state first reached
//! once that budget is spent is computed into a scratch row and drawn
//! from without being kept — the same arithmetic, so still bit-exact —
//! which bounds a scratch's memory by the item's shape rather than by
//! how many states its chain visits.
//!
//! # The friendship term, certified
//!
//! An item with several documents and friends draws each community
//! from a conditional that changes with its counts `n_uc` (the current
//! document removed): the prior `ln(n_uc + ρ) + ln θ_{c,z}` plus, friend
//! by friend, Eq. 14's terms `ln max(σ((s_v + π_vc) / (D + |C|ρ)),
//! MIN_POSITIVE)` for every community, with `s_v = Σ_c (n_uc + ρ) π_vc`.
//! Those terms are most of a user fold-in's work, and the chain reaches
//! a new `n_uc` state on most of its draws, so keeping them per state
//! saves little. Instead each draw builds the conditional with every
//! term from a table of `ln σ` with linear interpolation (spacing
//! `2⁻¹⁰` on `[0, 2)`, where every term of a model with normalised
//! membership rows falls; the exact expression elsewhere), whose error
//! is at most `2⁻²⁵ + 2⁻⁴⁰` per term, so each weight is within
//! `friends × (2⁻²⁵ + 2⁻⁴⁰)` of the exact one, plus the rounding of the
//! two sums. [`sample_log_index_certified`] draws from it: it returns
//! the index the exact conditional's draw would return whenever that
//! bound separates the uniform from the neighbouring prefix sums, and
//! otherwise computes the exact conditional and scans it with the same
//! uniform. So every draw, the RNG stream and every profile are those
//! of the exact conditional, bit for bit; on the repository benchmark's
//! users fewer than one draw in 10⁵ rescans. A user fold-in then costs
//! one table lookup per (friend, community) and one `exp` per community
//! for each draw. [`FoldScratch::take_friend_draws`] counts both paths.
//! A docless user's answer is made of the `ln σ` values themselves, so
//! it and the single-document memo keep the exact expression.

use crate::index::ProfileIndex;
use cpd_core::features::{community_feature, F_ACT_V, F_COMMUNITY, F_POP_V, F_TOPIC_POP};
use cpd_core::features::{UserFeatures, N_FEATURES};
use cpd_core::{exp_shift_max, membership_link_score, soft_community_factor};
use cpd_prob::categorical::{draw_prepared, prepare_log_weights, sample_log_index_mut};
use cpd_prob::categorical::{sample_log_index_certified, DrawPath};
use cpd_prob::rng::child_rng;
use cpd_prob::special::sigmoid;
use cpd_telemetry::ActiveTrace;
use rand::Rng;
use social_graph::{UserId, WordId};
use std::sync::OnceLock;
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
    /// Community draws with friends since the last
    /// [`FoldScratch::take_friend_draws`].
    friend_draws: FriendDraws,
}

impl FoldScratch {
    /// Fresh (empty) scratch; buffers grow to fit the largest item.
    pub fn new() -> Self {
        Self::default()
    }

    /// The community draws with friends this scratch's items made since
    /// the last call, by the weights that decided them; resets them.
    pub fn take_friend_draws(&mut self) -> FriendDraws {
        std::mem::take(&mut self.friend_draws)
    }
}

/// A count of the community draws of items with several documents and
/// friends, by the conditional that decided each one (see the module
/// docs, "The friendship term, certified").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FriendDraws {
    /// Decided by the bounded-error conditional.
    pub certified: u64,
    /// Decided by the exact conditional, computed and rescanned because
    /// the bound could not separate the uniform from a prefix boundary.
    pub exact: u64,
}

/// Most `f64` cells the memos of one item keep between them (64 KiB).
/// The repository benchmark's user fold-ins (3 documents,
/// `|C| = |Z| = 50`) keep at most 90 × 50 topic cells and its document
/// fold-ins 2 × 50 × 50, so they never reach it.
const MEMO_BUDGET_CELLS: usize = 1 << 13;

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

/// Add Eq. 14's friendship terms at counts `n_uc` to `lw`, friend by
/// friend.
#[inline]
fn add_friend_terms(
    lw: &mut [f64],
    index: &ProfileIndex,
    friends: &[UserId],
    n_uc: &[u32],
    rho: f64,
    denom_u: f64,
) {
    for &v in friends {
        let pi_v = index.user_membership(v);
        let s_v = friend_dot(pi_v, n_uc, rho);
        for (lw, &pv) in lw.iter_mut().zip(pi_v) {
            *lw += ln_friend_term(s_v, pv, denom_u);
        }
    }
}

/// [`add_friend_terms`] with every term from [`ln_friend_term_approx`],
/// returning `Δ`: no weight is further than `Δ` from the one
/// [`add_friend_terms`] makes from the same `lw`. Each term errs by at
/// most [`LN_SIGMOID_ERR`], and each addition by at most an ulp of the
/// largest partial sum in either path; terms are never positive, so
/// every partial sum lies between a weight's value before and after.
#[inline]
fn add_friend_terms_approx(
    lw: &mut [f64],
    index: &ProfileIndex,
    friends: &[UserId],
    n_uc: &[u32],
    rho: f64,
    denom_u: f64,
) -> f64 {
    let table = ln_sigmoid_table();
    let nodes_per_denom = LN_SIGMOID_PER_UNIT / denom_u;
    let before = lw.iter().fold(0.0f64, |m, &l| m.max(l.abs()));
    for &v in friends {
        let pi_v = index.user_membership(v);
        let s_v = friend_dot(pi_v, n_uc, rho);
        for (lw, &pv) in lw.iter_mut().zip(pi_v) {
            *lw += ln_friend_term_approx(table, s_v, pv, denom_u, nodes_per_denom);
        }
    }
    let scale = lw.iter().fold(before, |m, &l| m.max(l.abs()));
    friends.len() as f64 * (LN_SIGMOID_ERR + 2.0 * f64::EPSILON * scale)
}

/// Eq. 14's friendship term for one candidate community: the exact
/// Bernoulli log likelihood `ln σ((s_v + π_vc) / denom_u)`.
#[inline]
fn ln_friend_term(s_v: f64, pi_vc: f64, denom_u: f64) -> f64 {
    ln_sigmoid((s_v + pi_vc) / denom_u)
}

/// `ln σ(x)`, floored so an underflowed sigmoid cannot make every weight
/// `-inf`.
#[inline]
fn ln_sigmoid(x: f64) -> f64 {
    sigmoid(x).max(f64::MIN_POSITIVE).ln()
}

/// Nodes per unit of the `ln σ` table: spacing `h = 2⁻¹⁰`.
const LN_SIGMOID_PER_UNIT: f64 = 1024.0;
/// Intervals of the `ln σ` table, which covers `[0, 2)`. A friendship
/// term's argument is at most 1 for a model whose membership rows sum
/// to 1: `s_v + π_vc ≤ (D − 1 + ρ) + 1 ≤ D + |C|ρ`.
const LN_SIGMOID_STEPS: usize = 2048;
/// Most [`ln_friend_term_approx`] differs from [`ln_friend_term`]
/// inside the table: `h²/8 · max|(ln σ)''| = 2⁻²⁰/32` for the
/// interpolation, since `(ln σ)'' = −σ(x)σ(−x)` is at least `−1/4`,
/// plus `2⁻⁴⁰` for rounding: of the nodes, the interpolation and the
/// exact expression (a few ulps of values below 1 in magnitude), and of
/// the argument, which the table reads as `(s_v + π_vc) · (1/h)/denom_u`
/// rather than `(s_v + π_vc)/denom_u` (3 ulps of an argument below 2,
/// through a slope `σ(−x)` of at most 1/2).
const LN_SIGMOID_ERR: f64 = 1.0 / (1u64 << 25) as f64 + 1.0 / (1u64 << 40) as f64;

/// `[ln σ(x_i), ln σ(x_{i+1}) − ln σ(x_i)]` at the nodes `x_i = i·h`,
/// built once per process. Neighbouring nodes are within a factor of 2
/// of each other, so each difference is exact.
fn ln_sigmoid_table() -> &'static [[f64; 2]] {
    static TABLE: OnceLock<Vec<[f64; 2]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let node = |i: usize| ln_sigmoid(i as f64 / LN_SIGMOID_PER_UNIT);
        (0..LN_SIGMOID_STEPS)
            .map(|i| [node(i), node(i + 1) - node(i)])
            .collect()
    })
}

/// [`ln_friend_term`] within [`LN_SIGMOID_ERR`]: linear interpolation
/// in `table` ([`ln_sigmoid_table`]) where the argument, read as
/// `(s_v + π_vc) · nodes_per_denom` with `nodes_per_denom =
/// LN_SIGMOID_PER_UNIT / denom_u`, is in `[0, 2)`, and
/// [`ln_friend_term`] itself, bit for bit, anywhere else (NaN
/// included). Never positive, like [`ln_friend_term`].
#[inline]
fn ln_friend_term_approx(
    table: &[[f64; 2]],
    s_v: f64,
    pi_vc: f64,
    denom_u: f64,
    nodes_per_denom: f64,
) -> f64 {
    let scaled = (s_v + pi_vc) * nodes_per_denom;
    if (0.0..LN_SIGMOID_STEPS as f64).contains(&scaled) {
        let i = scaled as usize;
        let [at, rise] = table[i];
        at + (scaled - i as f64) * rise
    } else {
        ln_friend_term(s_v, pi_vc, denom_u)
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
                // Eq. 14's exact conditional.
                let exact = |lw: &mut [f64]| {
                    prior(lw);
                    add_friend_terms(lw, idx, &item.friends, n_uc, rho, denom_u);
                };
                let c_new = if d_n == 1 {
                    let cells_left = &mut scratch.memo_cells_left;
                    scratch.comm_memo.draw(&mut rng, z_new, cells_left, exact)
                } else if item.friends.is_empty() {
                    exact(&mut scratch.lw_comm);
                    sample_log_index_mut(&mut rng, &mut scratch.lw_comm)
                } else {
                    // The same sums from the `ln σ` table, drawn from by
                    // the certified draw, which runs `exact` only when the
                    // table's error could move the draw.
                    let lw = &mut scratch.lw_comm;
                    prior(lw);
                    let delta = add_friend_terms_approx(lw, idx, &item.friends, n_uc, rho, denom_u);
                    let (c, path) = sample_log_index_certified(&mut rng, lw, delta, exact);
                    match path {
                        DrawPath::Certified => scratch.friend_draws.certified += 1,
                        DrawPath::Exact => scratch.friend_draws.exact += 1,
                    }
                    c
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

    /// [`ln_friend_term_approx`] against [`ln_friend_term`] as the draw
    /// calls them, with `nodes_per_denom` from `denom_u`.
    fn friend_term_error(s_v: f64, pi_vc: f64, denom_u: f64) -> f64 {
        let table = ln_sigmoid_table();
        let approx =
            ln_friend_term_approx(table, s_v, pi_vc, denom_u, LN_SIGMOID_PER_UNIT / denom_u);
        (approx - ln_friend_term(s_v, pi_vc, denom_u)).abs()
    }

    #[test]
    fn ln_sigmoid_table_stays_inside_its_bound() {
        // Sixteen points per interval, at both ends of every node and
        // one ulp either side of it; the interpolation error peaks
        // mid-interval near 0, where |(ln σ)''| is largest.
        let mut worst = 0.0f64;
        for i in 0..LN_SIGMOID_STEPS * 16 {
            let x = i as f64 / (16.0 * LN_SIGMOID_PER_UNIT);
            for x in [x, f64::from_bits(x.to_bits() + 1), x.next_down().max(0.0)] {
                for (s_v, pi_vc, denom_u) in [(x, 0.0, 1.0), (3.0 * x, 0.0, 3.0)] {
                    let err = friend_term_error(s_v, pi_vc, denom_u);
                    assert!(err <= LN_SIGMOID_ERR, "x {x}: error {err:e}");
                    worst = worst.max(err);
                }
            }
        }
        // The bound is the interpolation error's, not a loose one.
        assert!(worst > 0.95 * LN_SIGMOID_ERR, "worst {worst:e}");

        // Arguments as the fold-in forms them: `(s_v + π_vc) / (D + |C|ρ)`.
        let mut rng = seeded_rng(0x15A6);
        for _ in 0..1_000_000 {
            let denom_u = rng.gen_range(1.0..200.0);
            let s_v = rng.gen_range(0.0..denom_u);
            let pi_vc = rng.gen::<f64>();
            let err = friend_term_error(s_v, pi_vc, denom_u);
            assert!(
                err <= LN_SIGMOID_ERR,
                "({s_v}, {pi_vc}, {denom_u}): {err:e}"
            );
        }
    }

    #[test]
    fn table_conditionals_stay_within_their_declared_bound() {
        // The bound the certified draw is handed, on the conditionals the
        // chain builds: any count state, topic and friend list.
        let index = serving_shape_index();
        let (c_n, z_n) = (index.n_communities(), index.n_topics());
        let rho = index.rho();
        let mut rng = seeded_rng(0xDE17);
        let (mut exact, mut approx) = (vec![0.0; c_n], vec![0.0; c_n]);
        for _ in 0..20_000 {
            let d_n = rng.gen_range(2..=24usize);
            let mut n_uc = vec![0u32; c_n];
            (1..d_n).for_each(|_| n_uc[rng.gen_range(0..c_n)] += 1);
            let z = rng.gen_range(0..z_n);
            let friends: Vec<UserId> = (0..rng.gen_range(1..=60))
                .map(|_| UserId(rng.gen_range(0..120)))
                .collect();
            let denom_u = d_n as f64 + c_n as f64 * rho;
            for (c, (e, a)) in exact.iter_mut().zip(approx.iter_mut()).enumerate() {
                *e = (n_uc[c] as f64 + rho).ln() + index.log_theta_row(c)[z];
                *a = *e;
            }
            add_friend_terms(&mut exact, &index, &friends, &n_uc, rho, denom_u);
            let delta = add_friend_terms_approx(&mut approx, &index, &friends, &n_uc, rho, denom_u);
            assert!(delta < friends.len() as f64 * 3.1e-8, "delta {delta:e}");
            for (e, a) in exact.iter().zip(&approx) {
                assert!((a - e).abs() <= delta, "{a} against {e}, delta {delta:e}");
            }
        }
    }

    #[test]
    fn ln_sigmoid_table_answers_the_exact_term_outside_its_domain() {
        let table = ln_sigmoid_table();
        let mut rng = seeded_rng(0x0D0E);
        let outside = (0..100_000)
            .map(|i| match i % 3 {
                0 => -rng.gen_range(0.0..800.0f64),
                1 => rng.gen_range(2.001..800.0),
                _ => -rng.gen::<f64>() * 1e-300,
            })
            .chain([
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -f64::from_bits(1),
            ])
            .collect::<Vec<f64>>();
        for (i, x) in outside.into_iter().enumerate() {
            let denom_u = 1.0 + (i % 50) as f64 * 0.97;
            let s_v = x * denom_u;
            let approx =
                ln_friend_term_approx(table, s_v, 0.0, denom_u, LN_SIGMOID_PER_UNIT / denom_u);
            let exact = ln_friend_term(s_v, 0.0, denom_u);
            assert_eq!(approx.to_bits(), exact.to_bits(), "x {x}");
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
            // 30 sweeps × 3 draws, each at most one new row of 50 topic
            // cells.
            let used = MEMO_BUDGET_CELLS - scratch.memo_cells_left;
            assert!(used <= 90 * 50, "{used} cells kept");
            assert!(scratch.topic_memo.spill.is_empty());
        }
    }

    #[test]
    fn large_fingerprint_items_spill_the_topic_memo() {
        let index = serving_shape_index();
        let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
        let mut scratch = FoldScratch::new();
        let mut spills = 0;
        for (item, seed) in fingerprint_items() {
            engine.profile_with_seed(&item, seed, &mut scratch);
            if item.docs.len() >= 12 {
                spills += usize::from(!scratch.topic_memo.spill.is_empty());
            }
        }
        assert!(
            spills > 0,
            "no large item drew a topic conditional past the budget"
        );
    }
}
