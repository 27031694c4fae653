//! Collapsed Gibbs sampling (Eqs. 13–16 of the paper), with a
//! skew-aware hot path.
//!
//! Per document the sweep resamples the topic `z_ui` (Eq. 13) and the
//! community `c_ui` (Eq. 14); per link it resamples the Pólya-Gamma
//! augmentation variables `λ_uv` (Eq. 15) and `δ_ij` (Eq. 16). The link
//! factors enter through `ln ψ(w, x) = w/2 − x·w²/2` (Eq. 7).
//!
//! Candidate scoring uses the incremental decompositions documented in
//! DESIGN.md §2: membership dot products and the bilinear community
//! factor are evaluated in O(1) per candidate after an O(|C|)/O(|C|²)
//! per-neighbour precomputation, matching the paper's stated
//! `O(|C||F| + |C|²|E|)` sweep complexity. When resampling a *topic*
//! with incident diffusion links the community pair is held at its
//! current hard assignment (the dominant term of the bilinear form).
//!
//! # The skew-aware sampler (`SamplerKind`)
//!
//! Each candidate log-weight decomposes into
//!
//! ```text
//! ln p(z | ·) = ln(n_cz + α)                        (count-prior factor)
//!             + Σ_k ln(n_zw + β + occ_k)            (word numerator)
//!             − Σ_j ln(n_z + Wβ + j)                (word denominator)
//!             + Σ_links ln ψ(ν·x(z), δ)             (diffusion factor)
//! ```
//!
//! and analogously for communities with `ln(n_uc + ρ)` as the prior
//! factor. Every transcendental there is a logarithm of a *small
//! integer count plus a fixed offset*, and on skewed corpora the
//! `n_cz`/`n_uc` rows are mostly zero — which the three sampler kinds
//! exploit to different degrees:
//!
//! * [`SamplerKind::Dense`] — the historical math, one `ln()` per
//!   candidate per word, every candidate scanned. Kept verbatim as the
//!   differential-testing oracle; use it to validate the others, never
//!   for throughput.
//! * [`SamplerKind::Exact`] (default) — same draws, cheaper
//!   arithmetic. The prior factors become a constant zero-count
//!   baseline (`ln α` / `ln ρ`) written across the whole candidate
//!   buffer plus corrections at the nonzero row entries
//!   ([`crate::counts::PairCounts::for_each_nonzero_in_row`]), so that
//!   work tracks row occupancy instead of K and C. All remaining
//!   logarithms come from the per-fit [`SamplerTables`] memo tables.
//!   The word factor runs word-outer, topic-inner over the word-major
//!   `n_zw` plane (`W × Z`, [`CpdState::zw_slot`]): each token reads
//!   its `|Z|` counts as one contiguous run into per-topic
//!   accumulators. Bit-exactness argument: each table entry is
//!   computed by the same floating-point expression the dense path
//!   evaluates inline (see `cpd_prob::logcache`), a
//!   baseline-then-overwrite fill produces the same value in every slot
//!   as the dense loop, each accumulator adds its candidate's word
//!   terms in the dense loop's token order, and the one-pass sampler
//!   draw (`sample_log_index_mut`) preserves the shift, the summation
//!   order and the single uniform draw — so `Exact` is draw-for-draw
//!   identical to `Dense` for any seed.
//! * [`SamplerKind::AliasMh`] — the LightLDA trick adapted to
//!   document-level assignments. Topic candidates are *proposed* from
//!   a per-community alias table over the slowly-changing
//!   `n_cz + α` prior row (rebuilt lazily once per sweep, O(1) per
//!   draw) and corrected by a few Metropolis–Hastings steps against
//!   the exact target, evaluating the O(|doc|) word factor only for
//!   the current and proposed topics. Correctness: the MH acceptance
//!   `min(1, [p(z')q(z)] / [p(z)q(z')])` uses the *live* counts in
//!   `p` while `q` is the stale proposal, and `q > 0` wherever
//!   `p > 0`, so the chain's stationary distribution per step is the
//!   exact conditional — staleness costs mixing speed, not
//!   correctness. Communities keep the `Exact` path (their factor mix
//!   is dominated by link terms, not the prior row). Wins once
//!   `|Z| · |doc|` dwarfs `mh_steps · |doc|`, i.e. for large topic
//!   counts; on small K the alias rebuilds outweigh the savings.
//!
//! # The link terms
//!
//! The link-likelihood kernels read each value that cannot change
//! while they run once, avoid repeating arithmetic whose result they
//! already have, and keep every bit of it:
//!
//! * **Friendship** (`add_membership_link_terms`, Eq. 3 through
//!   `ln ψ(π̂_u(c)ᵀ π̂_v, λ)`). The author's `n¬_uc + ρ` row is read
//!   once per community draw. Candidate `c` scores
//!   `ln ψ((s_v + (n_vc + ρ)/denom_v) / denom_u, λ)`, which depends on
//!   `c` only through `n_vc`; every candidate the partner has no
//!   document in (`n_vc = 0`) therefore shares one term
//!   `ln ψ((s_v + ρ/denom_v) / denom_u, λ)`, and only the partner's
//!   nonzero entries pay their own division and `ln ψ`. The partner's
//!   terms are written baseline-then-overwrite (the shared term
//!   everywhere, then the nonzero offsets), so no branch depends on a
//!   count: a branch per candidate mispredicts often enough to cost
//!   what the skipped divisions save.
//! * **The partner table** (`PartnerTable`, in each worker's
//!   `SweepScratch`). Everything a term needs of the partner alone —
//!   `v` itself, `λ`, the `n_vc + ρ` row, `denom_v`, `ρ / denom_v` and
//!   the `(n_vc + ρ) / denom_v` of the row's nonzero entries — is read
//!   on the link's first pick and kept for the rest of the author's
//!   block of documents (`sweep_user_docs` starts each block with
//!   `SweepScratch::begin_author`). So a user with `k` documents follows
//!   `friend_links_of(u)[i]` → `friendships()[lid]` → `λ[lid]` → the
//!   partner's row once per partner, not up to `k` times, and reads at
//!   most `min(degree, k · max_neighbors)` rows: a hub's table is
//!   bounded by the links its documents pick, not by its degree. Each
//!   pick still computes the `|C|` dot product with the author row,
//!   which moves with every draw. Diffusion links modelled like
//!   friendships (the no-heterogeneity ablation) use a second table,
//!   started per document.
//! * **Eq. 4** (`soft_community_factor`, behind the δ pass and the `ν`
//!   negatives). `s = Σ_{c'} π̂_{v,c'} θ̂_{c',z} Σ_c η_{c,c',z} π̂_{u,c}
//!   θ̂_{c,z}` is contracted `c`-outer: `π̂_{u,c}` and `θ̂_{c,z}` are
//!   divided once per `c` (not once per `(c, c')`), and each `c'` owns
//!   an accumulator, so the `c'` loop is `|C|` independent add chains
//!   instead of one serial chain per `c'`. Each `c`'s `η_{c,·,z}` is
//!   one contiguous row of topic `z`'s block of the topic-major η
//!   ([`Eta::topic_block`]), where the `c`-major tensor spaces it `|Z|`
//!   apart.
//! * **Eq. 5** (`add_full_diffusion_terms`, the community draw's
//!   diffusion term). Per link, the `θ̂_{·,z_l}` column is divided once
//!   and serves the `g` weights, `T0` and every candidate; η is read
//!   from topic `z_l`'s block: a contiguous row per `c_other` when the
//!   document is diffused, a stride of `|C|` inside the block when it
//!   diffuses, where the `c`-major tensor strides `|Z|` or `|C||Z|`.
//!
//! Why every bit survives: each cached or shared value is the same
//! floating-point expression on the same operands the per-term loop
//! evaluated (`0.0 + ρ` is exactly `ρ`, a product keeps its
//! left-to-right grouping `(η · π̂) · θ̂`, and a topic block holds copies
//! of η's cells); each accumulator and each candidate weight receives
//! the same values in the same order (the inner Eq. 4 sum of `c'` still
//! runs over `c` ascending, the outer one over `c'` ascending with the
//! same `π̂_{v,c'} θ̂_{c',z} = 0` skip; the Eq. 5 `g[c]` over `c_other`
//! ascending; the friendship picks in pick order, drawing the same
//! random indices); and Rust never contracts `a * b + c` into a fused
//! multiply-add or reassociates a sum, so vectorising the `c'` loop
//! changes no result. A partner table holds the values the loop would
//! read again because a partner's row cannot change inside its
//! author's block: only the author's documents are resampled there, in
//! the serial sweep and in each `DeltaSharded` or `CloneRebuild`
//! worker's own replica, and `λ`/`δ` change only in the Pólya-Gamma
//! passes between sweeps. The `gibbs` tests hold every kernel to its
//! pre-change loop by `to_bits` (the membership test across blocks and
//! across a sweep, so a table that outlived its block would fail), and
//! `tests/link_terms.rs` pins whole fits (assignments, `ν` and `η`
//! bits) on a link-dense corpus.

use crate::config::{CpdConfig, DiffusionModel, SamplerKind};
use crate::features::{community_feature, UserFeatures, F_COMMUNITY, F_TOPIC_POP, N_FEATURES};
use crate::profiles::Eta;
use crate::state::{CpdState, DeltaSink, LinkMeta};
use cpd_prob::categorical::{sample_log_index_mut, AliasTable};
use cpd_prob::logcache::{LogCountCache, LogShiftCache};
use polya_gamma::sample_pg1;
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::{DocId, SocialGraph, UserId};
use std::ops::Range;
use std::time::Instant;

/// Which factors a sweep samples — the "no joint modeling" ablation
/// trains in two phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepPhase {
    /// Joint: topics and communities, all factors.
    Full,
    /// Phase 1 of two-phase training: communities from friendship links
    /// only (Eq. 3 as the sole evidence).
    DetectOnly,
    /// Phase 2 of two-phase training: topics only, communities frozen.
    ProfileOnly,
}

/// Metropolis–Hastings steps per topic draw on the
/// [`SamplerKind::AliasMh`] path. LightLDA uses 2; a couple of steps
/// already mix well because the proposal tracks the dominant prior
/// factor.
const MH_STEPS: usize = 2;

/// Per-fit memo tables for the sampler's transcendental calls: flat
/// `ln(count + offset)` tables for the fixed `α`/`ρ`/`Zα` offsets and
/// two-axis `ln((count + offset) + shift)` tables for the word factors.
/// Built once per fit from the corpus shape (counts can never exceed
/// the token/document totals), shared read-only by every worker, with a
/// direct-`ln` fallback above the bounds so lookups are total. Every
/// table entry is bitwise identical to the expression the dense oracle
/// evaluates inline — see the module docs.
pub(crate) struct SamplerTables {
    /// `ln(n + α)` for the community-topic rows (`n_cz`).
    pub ln_alpha: LogCountCache,
    /// `ln(n + ρ)` for the user-community rows (`n_uc`).
    pub ln_rho: LogCountCache,
    /// `ln(n + |Z|·α)` for the community marginals (`n_c`).
    pub ln_calpha: LogCountCache,
    /// `ln((n + β) + occ)` for the word numerator (`n_zw` with the
    /// within-document repetition offset).
    pub word_num: LogShiftCache,
    /// `ln((n + |W|·β) + j)` for the word denominator (`n_z` with the
    /// per-token position offset).
    pub word_den: LogShiftCache,
}

impl SamplerTables {
    /// Cap on 1-D table sizes and on the count axis of the 2-D tables.
    const MAX_COUNT_BOUND: usize = 1 << 16;
    /// Cap on total 2-D table entries (8 MiB of `f64` each).
    const MAX_SHIFT_ENTRIES: usize = 1 << 20;

    pub(crate) fn new(graph: &SocialGraph, config: &CpdConfig) -> Self {
        let alpha = config.resolved_alpha();
        let rho = config.resolved_rho();
        let z_n = config.n_topics;
        let w_n = graph.vocab_size();
        let n_docs = graph.n_docs();
        let tokens = graph.n_tokens();
        let max_len = graph
            .docs()
            .iter()
            .map(|d| d.words.len())
            .max()
            .unwrap_or(0);

        let count_bound = (n_docs + 1).min(Self::MAX_COUNT_BOUND);
        // Word counts are bounded by the token total; repetition offsets
        // and position shifts by the longest document.
        let num_shifts = max_len.min(16);
        let den_shifts = max_len.min(64);
        let word_bound = |shifts: usize| {
            (tokens + 1)
                .min(Self::MAX_COUNT_BOUND)
                .min(Self::MAX_SHIFT_ENTRIES / shifts.max(1))
        };
        Self {
            ln_alpha: LogCountCache::new(alpha, count_bound),
            ln_rho: LogCountCache::new(rho, count_bound),
            ln_calpha: LogCountCache::new(z_n as f64 * alpha, count_bound),
            word_num: LogShiftCache::new(config.beta, word_bound(num_shifts), num_shifts),
            word_den: LogShiftCache::new(
                w_n as f64 * config.beta,
                word_bound(den_shifts),
                den_shifts,
            ),
        }
    }
}

/// Where a sweep's time and sparsity went — drained per sweep into
/// [`crate::FitDiagnostics`] so the speedup provenance is visible
/// (alias rebuild cost, MH mixing, how sparse the count rows actually
/// were).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SamplerStats {
    /// Seconds spent (re)building per-community alias proposal tables.
    pub alias_build_seconds: f64,
    /// Metropolis–Hastings proposals made (`AliasMh` only).
    pub mh_proposals: u64,
    /// Metropolis–Hastings proposals accepted (`AliasMh` only).
    pub mh_accepts: u64,
    /// Count rows visited through the sparse-iteration path.
    pub sparse_rows: u64,
    /// Nonzero entries across those rows.
    pub sparse_nonzeros: u64,
    /// Total candidate slots across those rows.
    pub sparse_slots: u64,
}

impl SamplerStats {
    /// Fold another accumulator (e.g. a worker's) into this one.
    pub fn merge(&mut self, other: &SamplerStats) {
        self.alias_build_seconds += other.alias_build_seconds;
        self.mh_proposals += other.mh_proposals;
        self.mh_accepts += other.mh_accepts;
        self.sparse_rows += other.sparse_rows;
        self.sparse_nonzeros += other.sparse_nonzeros;
        self.sparse_slots += other.sparse_slots;
    }

    /// Fraction of MH proposals accepted, if any were made.
    pub fn acceptance_rate(&self) -> Option<f64> {
        (self.mh_proposals > 0).then(|| self.mh_accepts as f64 / self.mh_proposals as f64)
    }

    /// Mean occupied fraction of the sparse-visited count rows (nonzero
    /// entries over candidate slots), if any rows were scanned — the
    /// skew measure that decides how much the sparse decomposition
    /// saves over a dense scan.
    pub fn avg_row_occupancy(&self) -> Option<f64> {
        (self.sparse_slots > 0).then(|| self.sparse_nonzeros as f64 / self.sparse_slots as f64)
    }
}

/// Stale per-community alias proposal over the `n_cz + α` row: O(1)
/// draws plus the log proposal weights needed by the MH correction.
struct AliasProposal {
    table: AliasTable,
    ln_w: Vec<f64>,
}

/// Reusable per-worker scratch space for the sweep hot loop: the
/// candidate log-weight vectors and the bilinear `g` buffer used to be
/// allocated fresh for every document visit (two `Vec`s per document,
/// one more per diffusion link); each worker now carries one
/// `SweepScratch` for its whole fit and the hot loop never touches the
/// allocator. It also holds the per-document occurrence offsets, the
/// per-sweep alias proposals, and the [`SamplerStats`] accumulator.
/// Logically this is the mutable, per-thread companion of the shared
/// immutable [`SweepContext`].
pub(crate) struct SweepScratch {
    /// Topic-candidate log weights (`|Z|`).
    lw_topic: Vec<f64>,
    /// Per-topic word-factor accumulators (`|Z|`) of the word-outer
    /// `Exact` topic draw.
    acc_topic: Vec<f64>,
    /// Community-candidate log weights (`|C|`).
    lw_comm: Vec<f64>,
    /// Bilinear diffusion precomputation `g[c]` and the link's `θ̂_{·,z}`
    /// column (`2|C|`).
    g: Vec<f64>,
    /// Count rows of the community draw's link terms.
    link_rows: LinkRows,
    /// Per-token within-document repetition offsets (`occ[k]` = number
    /// of earlier occurrences of word `k` in the current document),
    /// computed once per document visit and reused across all
    /// candidates.
    occ: Vec<u32>,
    /// Per-community alias proposals, rebuilt lazily each sweep
    /// (`AliasMh` only).
    alias: Vec<Option<AliasProposal>>,
    /// Sampler accounting, drained per sweep via
    /// [`SweepScratch::take_stats`].
    stats: SamplerStats,
}

impl SweepScratch {
    pub(crate) fn new() -> Self {
        Self {
            lw_topic: Vec::new(),
            acc_topic: Vec::new(),
            lw_comm: Vec::new(),
            g: Vec::new(),
            link_rows: LinkRows::default(),
            occ: Vec::new(),
            alias: Vec::new(),
            stats: SamplerStats::default(),
        }
    }

    /// Drain the accumulated sampler accounting.
    pub(crate) fn take_stats(&mut self) -> SamplerStats {
        std::mem::take(&mut self.stats)
    }

    /// Invalidate sweep-scoped state (the stale alias proposals).
    fn begin_sweep(&mut self, n_communities: usize) {
        self.alias.clear();
        self.alias.resize_with(n_communities, || None);
    }

    /// Start author `u`'s block of documents: its friendship partner
    /// table starts empty, so no entry outlives the block it was read
    /// in.
    fn begin_author(&mut self, graph: &SocialGraph, u: u32) {
        self.link_rows
            .friends
            .begin(graph.friend_links_of(UserId(u)).len());
    }
}

/// The rows a community draw's link terms read: the author side, filled
/// once per draw by [`LinkRows::fill_author`] and shared by every link
/// of the document, and the partner side, one [`PartnerTable`] per
/// link kind.
#[derive(Default)]
struct LinkRows {
    /// `π̂_u` denominator `n_u + |C|ρ` (the document counts in `n_u`).
    denom_u: f64,
    /// The author's `n¬_uc + ρ` row (the document excluded).
    author: Vec<f64>,
    /// One partner's term for every candidate (`|C|`).
    term: Vec<f64>,
    /// Friendship partners of the author block being swept
    /// ([`SweepScratch::begin_author`]).
    friends: PartnerTable,
    /// Partners of one document's diffusion links, modelled like
    /// friendships (the no-heterogeneity ablation); rebuilt per
    /// document.
    diffusion: PartnerTable,
}

impl LinkRows {
    /// Read author `u`'s row once for every link term of the draw.
    fn fill_author(&mut self, state: &CpdState, u: usize, rho: f64) {
        let c_n = state.n_communities;
        self.denom_u = state.n_u(u) as f64 + c_n as f64 * rho;
        self.author.clear();
        self.author
            .extend((0..c_n).map(|c| state.n_uc(u * c_n + c) as f64 + rho));
    }
}

/// A link's table slot before its first pick (and a link to the author
/// itself, which has no term).
const UNFILLED: u32 = u32::MAX;

/// What the membership link terms need of each partner of one block,
/// read on the link's first pick and reused by every later pick in the
/// block: everything that depends on the partner alone. Inside a block
/// only the author's counts move, so each cached value is the one the
/// per-pick loop would compute again (see the module docs).
#[derive(Default)]
struct PartnerTable {
    /// Entry of each incident link, by its position in the block's link
    /// list: an index into `entries`, or [`UNFILLED`].
    slot: Vec<u32>,
    /// Filled entries, in first-pick order.
    entries: Vec<Partner>,
    /// Each entry's `n_vc + ρ` row, `|C|` cells per entry.
    rows: Vec<f64>,
    /// Each entry's nonzero `n_vc` offsets with their
    /// `(n_vc + ρ) / denom_v`, the entries' runs back to back.
    nonzero: Vec<(u32, f64)>,
}

/// One [`PartnerTable`] entry.
struct Partner {
    /// The link's Pólya-Gamma variable (`λ` or `δ`).
    pg: f64,
    /// `π̂_v` denominator `n_v + |C|ρ`.
    denom_v: f64,
    /// `ρ / denom_v`: `π̂_{v,c}` wherever `n_vc = 0`.
    rho_v: f64,
    /// This entry's run in [`PartnerTable::nonzero`].
    nonzero: Range<usize>,
}

impl PartnerTable {
    /// Start a block of `links` incident links: forget every entry.
    fn begin(&mut self, links: usize) {
        self.slot.clear();
        self.slot.resize(links, UNFILLED);
        self.entries.clear();
        self.rows.clear();
        self.nonzero.clear();
    }

    /// Append partner `v`'s entry, reading its row once.
    fn fill(&mut self, state: &CpdState, v: usize, pg: f64, rho: f64) -> u32 {
        let c_n = state.n_communities;
        let denom_v = state.n_u(v) as f64 + c_n as f64 * rho;
        let start = self.rows.len();
        let nonzero_start = self.nonzero.len();
        // `0.0 + ρ` is exactly `ρ`: the baseline is every zero cell's
        // `n_vc + ρ`.
        self.rows.resize(start + c_n, rho);
        let (row, nonzero) = (&mut self.rows[start..], &mut self.nonzero);
        state
            .user_comm
            .for_each_nonzero_in_row(v * c_n, c_n, |c, n| {
                row[c] = n as f64 + rho;
                nonzero.push((c as u32, row[c] / denom_v));
            });
        self.entries.push(Partner {
            pg,
            denom_v,
            rho_v: rho / denom_v,
            nonzero: nonzero_start..self.nonzero.len(),
        });
        (self.entries.len() - 1) as u32
    }
}

/// Reset `buf` to `n` zeros without shrinking its allocation.
#[inline]
fn zeroed(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Immutable per-fit context shared by all sweeps (and all threads).
pub(crate) struct SweepContext<'a> {
    pub graph: &'a SocialGraph,
    pub config: &'a CpdConfig,
    pub eta: &'a Eta,
    pub nu: &'a [f64],
    pub features: &'a UserFeatures,
    pub links: &'a [LinkMeta],
    pub tables: &'a SamplerTables,
    pub alpha: f64,
    pub rho: f64,
    pub beta: f64,
}

impl<'a> SweepContext<'a> {
    pub(crate) fn new(
        graph: &'a SocialGraph,
        config: &'a CpdConfig,
        eta: &'a Eta,
        nu: &'a [f64],
        features: &'a UserFeatures,
        links: &'a [LinkMeta],
        tables: &'a SamplerTables,
    ) -> Self {
        Self {
            graph,
            config,
            eta,
            nu,
            features,
            links,
            tables,
            alpha: config.resolved_alpha(),
            rho: config.resolved_rho(),
            beta: config.beta,
        }
    }

    #[inline]
    fn dot_nu(&self, x: &[f64; N_FEATURES]) -> f64 {
        self.nu.iter().zip(x.iter()).map(|(a, b)| a * b).sum()
    }
}

/// `ln ψ(w, x) = w/2 − x w² / 2` (Eq. 7).
#[inline]
fn ln_psi(w: f64, pg: f64) -> f64 {
    0.5 * w - 0.5 * pg * w * w
}

/// One full sweep over the documents of `users` (topic then community per
/// document, in user order). `state` must contain consistent counts.
///
/// Every count mutation is mirrored into `sink`: the serial path passes
/// [`crate::state::NoDelta`] (compiled away), sharded workers pass a
/// [`crate::state::CountDelta`] so the coordinator can fold their local
/// work into the canonical state without a rebuild.
pub(crate) fn sweep_user_docs<S: DeltaSink>(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    users: &[u32],
    rng: &mut StdRng,
    phase: SweepPhase,
    sink: &mut S,
    scratch: &mut SweepScratch,
) {
    // One call = one sweep over this worker's users: the stale alias
    // proposals expire here ("refreshed per sweep").
    scratch.begin_sweep(state.n_communities);
    for &u in users {
        scratch.begin_author(ctx.graph, u);
        for d in ctx.graph.docs_of(UserId(u)) {
            if phase != SweepPhase::DetectOnly {
                sample_topic(ctx, state, d.index(), rng, phase, sink, scratch);
            }
            if phase != SweepPhase::ProfileOnly {
                sample_community(ctx, state, d.index(), rng, phase, sink, scratch);
            }
        }
    }
}

/// Fill `occ` with per-token repetition offsets for `words`: `occ[k]` =
/// occurrences of `words[k]` among `words[..k]`. Computed once per
/// document and reused across all candidates (documents are short, so
/// the quadratic scan beats a hash map — but it now runs once, not once
/// per candidate).
fn fill_occurrence_offsets(occ: &mut Vec<u32>, words: &[social_graph::WordId]) {
    occ.clear();
    occ.extend(
        words
            .iter()
            .enumerate()
            .map(|(k, w)| words[..k].iter().filter(|x| *x == w).count() as u32),
    );
}

// --- Topic resampling (Eq. 13) -----------------------------------------

fn sample_topic<S: DeltaSink>(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    d: usize,
    rng: &mut StdRng,
    phase: SweepPhase,
    sink: &mut S,
    scratch: &mut SweepScratch,
) {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    let c = state.doc_community[d] as usize;
    let t = doc.timestamp as usize;
    let z_old = state.doc_topic[d] as usize;

    // Remove the document entirely (the ¬{ui} state).
    state.comm_topic.add(c * z_n + z_old, -1);
    state.comm_topic.add_marginal(c, -1);
    for w in &doc.words {
        state
            .word_topic
            .add(CpdState::zw_slot(z_n, w.index(), z_old), -1);
    }
    state
        .word_topic
        .add_marginal(z_old, -(doc.words.len() as i32));
    state.n_tz[t * z_n + z_old] -= 1;
    state.n_t[t] -= 1;

    fill_occurrence_offsets(&mut scratch.occ, &doc.words);
    let z_new = match ctx.config.sampler {
        SamplerKind::Dense => topic_draw_dense(ctx, state, d, c, rng, phase, scratch),
        SamplerKind::Exact => topic_draw_exact(ctx, state, d, c, rng, phase, scratch),
        SamplerKind::AliasMh => topic_draw_alias_mh(ctx, state, d, c, z_old, rng, phase, scratch),
    };

    state.doc_topic[d] = z_new as u32;
    state.comm_topic.add(c * z_n + z_new, 1);
    state.comm_topic.add_marginal(c, 1);
    for w in &doc.words {
        state
            .word_topic
            .add(CpdState::zw_slot(z_n, w.index(), z_new), 1);
    }
    state.word_topic.add_marginal(z_new, doc.words.len() as i32);
    state.n_tz[t * z_n + z_new] += 1;
    state.n_t[t] += 1;
    if z_new != z_old {
        sink.topic_moved(d, c, t, &doc.words, z_old, z_new);
    }
}

/// Whether topic candidates carry diffusion-link terms for this phase
/// and diffusion model.
#[inline]
fn topic_links_active(ctx: &SweepContext<'_>, phase: SweepPhase) -> bool {
    // SameAsFriendship diffusion has no topic dependence.
    (phase == SweepPhase::Full || phase == SweepPhase::ProfileOnly)
        && ctx.config.diffusion == DiffusionModel::Full
}

/// [`SamplerKind::Dense`] topic draw: the historical math, kept
/// verbatim as the oracle (one `ln()` per candidate per word, every
/// candidate scanned). Only the repetition offsets come precomputed.
fn topic_draw_dense(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    c: usize,
    rng: &mut StdRng,
    phase: SweepPhase,
    scratch: &mut SweepScratch,
) -> usize {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    let w_n = state.vocab_size;
    let SweepScratch { lw_topic, occ, .. } = scratch;
    zeroed(lw_topic, z_n);
    let lw = lw_topic;
    // Community-topic factor: ln(n^z_{c,¬ui} + α); the denominator is
    // constant across candidates.
    for (z, l) in lw.iter_mut().enumerate() {
        *l = (state.n_cz(c * z_n + z) as f64 + ctx.alpha).ln();
    }
    // Topic-word factor with within-document repetition offsets.
    let len = doc.words.len();
    for (z, l) in lw.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for (k, w) in doc.words.iter().enumerate() {
            let n = state.word_topic.get(CpdState::zw_slot(z_n, w.index(), z));
            acc += (n as f64 + ctx.beta + occ[k] as f64).ln();
        }
        let n_z = state.word_topic.marginal(z) as f64;
        for j in 0..len {
            acc -= (n_z + w_n as f64 * ctx.beta + j as f64).ln();
        }
        *l += acc;
    }
    if topic_links_active(ctx, phase) {
        add_topic_diffusion_terms(ctx, state, d, c, lw);
    }
    sample_log_index_mut(rng, lw)
}

/// [`SamplerKind::Exact`] topic draw: identical draws to
/// [`topic_draw_dense`], but the prior factor is a zero-count baseline
/// plus sparse nonzero-row corrections, every logarithm is a memo
/// table lookup, and the word factor runs word-outer, topic-inner: each
/// token reads its `|Z|` counts as one contiguous run of the word-major
/// plane into per-topic accumulators. Each accumulator still adds its
/// candidate's word terms in token order, then subtracts its
/// denominator terms in position order — the dense loop's order per
/// candidate — so every candidate's log-weight is bit-identical.
fn topic_draw_exact(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    c: usize,
    rng: &mut StdRng,
    phase: SweepPhase,
    scratch: &mut SweepScratch,
) -> usize {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    let tab = ctx.tables;
    let SweepScratch {
        lw_topic,
        acc_topic,
        occ,
        stats,
        ..
    } = scratch;
    zeroed(lw_topic, z_n);
    let lw = lw_topic;
    // Community-topic factor, sparsely: ln(α) everywhere, corrected at
    // the nonzero entries of the n_cz row.
    let base = tab.ln_alpha.at(0);
    for l in lw.iter_mut() {
        *l = base;
    }
    let mut nnz = 0u64;
    state
        .comm_topic
        .for_each_nonzero_in_row(c * z_n, z_n, |z, n| {
            lw[z] = tab.ln_alpha.at(n);
            nnz += 1;
        });
    stats.sparse_rows += 1;
    stats.sparse_nonzeros += nnz;
    stats.sparse_slots += z_n as u64;
    // Topic-word factor from the memo tables, word-outer.
    zeroed(acc_topic, z_n);
    let acc = acc_topic;
    for (k, w) in doc.words.iter().enumerate() {
        let shift = occ[k] as usize;
        let row = CpdState::zw_slot(z_n, w.index(), 0);
        for (z, a) in acc.iter_mut().enumerate() {
            *a += tab.word_num.at(state.word_topic.get(row + z), shift);
        }
    }
    let len = doc.words.len();
    for (z, (l, a)) in lw.iter_mut().zip(acc.iter_mut()).enumerate() {
        let n_z = state.word_topic.marginal(z);
        for j in 0..len {
            *a -= tab.word_den.at(n_z, j);
        }
        *l += *a;
    }
    if topic_links_active(ctx, phase) {
        add_topic_diffusion_terms(ctx, state, d, c, lw);
    }
    sample_log_index_mut(rng, lw)
}

/// [`SamplerKind::AliasMh`] topic draw: propose from the stale
/// per-community alias table over `n_cz + α`, correct with
/// [`MH_STEPS`] Metropolis–Hastings steps against the exact target
/// (live counts, cached logarithms). O(`MH_STEPS`·|doc|) instead of
/// O(|Z|·|doc|).
#[allow(clippy::too_many_arguments)]
fn topic_draw_alias_mh(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    c: usize,
    z_old: usize,
    rng: &mut StdRng,
    phase: SweepPhase,
    scratch: &mut SweepScratch,
) -> usize {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    let tab = ctx.tables;
    let SweepScratch {
        occ, alias, stats, ..
    } = scratch;

    // Lazily (re)build this community's proposal: first touch in the
    // current sweep snapshots the n_cz row. Later draws in the sweep
    // keep proposing from this snapshot — the MH correction absorbs the
    // staleness.
    if alias[c].is_none() {
        let t0 = Instant::now();
        let weights: Vec<f64> = (0..z_n)
            .map(|z| state.n_cz(c * z_n + z) as f64 + ctx.alpha)
            .collect();
        let ln_w: Vec<f64> = (0..z_n)
            .map(|z| tab.ln_alpha.at(state.n_cz(c * z_n + z)))
            .collect();
        alias[c] = Some(AliasProposal {
            table: AliasTable::new(&weights),
            ln_w,
        });
        stats.alias_build_seconds += t0.elapsed().as_secs_f64();
    }
    let prop = alias[c].as_ref().expect("proposal just ensured");

    let use_links = topic_links_active(ctx, phase);
    let len = doc.words.len();
    // Exact target log-weight at a single candidate, from live counts.
    let target = |z: usize| -> f64 {
        let mut lp = tab.ln_alpha.at(state.n_cz(c * z_n + z));
        for (k, w) in doc.words.iter().enumerate() {
            let n = state.word_topic.get(CpdState::zw_slot(z_n, w.index(), z));
            lp += tab.word_num.at(n, occ[k] as usize);
        }
        let n_z = state.word_topic.marginal(z);
        for j in 0..len {
            lp -= tab.word_den.at(n_z, j);
        }
        if use_links {
            lp += topic_diffusion_at(ctx, state, d, c, z);
        }
        lp
    };

    let mut z_cur = z_old;
    let mut lp_cur = target(z_cur);
    for _ in 0..MH_STEPS {
        stats.mh_proposals += 1;
        let z_prop = prop.table.sample(rng);
        if z_prop == z_cur {
            stats.mh_accepts += 1;
            continue;
        }
        let lp_prop = target(z_prop);
        let ln_a = (lp_prop - prop.ln_w[z_prop]) - (lp_cur - prop.ln_w[z_cur]);
        if ln_a >= 0.0 || rng.gen::<f64>() < ln_a.exp() {
            z_cur = z_prop;
            lp_cur = lp_prop;
            stats.mh_accepts += 1;
        }
    }
    z_cur
}

/// Add the diffusion-link terms to every topic candidate in `lw`.
/// Links where this document is the *diffused* source carry its topic;
/// links where it is the diffuser carry the other end's topic and do
/// not depend on the candidate.
fn add_topic_diffusion_terms(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    c: usize,
    lw: &mut [f64],
) {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    for &lid in ctx.graph.diffusion_links_of(DocId(d as u32)) {
        let lm = &ctx.links[lid as usize];
        if lm.dst_doc as usize != d {
            continue;
        }
        let delta = state.delta[lid as usize];
        let diffuser_doc = lm.src_doc as usize;
        let ck = state.doc_community[diffuser_doc] as usize;
        let uk = lm.src_author as usize;
        let pi_pair = state.pi_hat(uk, ck, ctx.rho) * state.pi_hat(doc.author.index(), c, ctx.rho);
        let mut x = [0.0f64; N_FEATURES];
        ctx.features.fill_static(
            &mut x,
            UserId(lm.src_author),
            UserId(lm.dst_author),
            ctx.config.individual_factor,
        );
        let at = lm.at as usize;
        for (z, l) in lw.iter_mut().enumerate() {
            // Hard-pair community factor at (c_k, c) for topic z.
            let s = ctx.eta.at(ck, c, z)
                * state.theta_hat(ck, z, ctx.alpha)
                * state.theta_hat(c, z, ctx.alpha)
                * pi_pair;
            x[F_COMMUNITY] = community_feature(s, state.n_communities, z_n);
            x[F_TOPIC_POP] = if ctx.config.topic_factor {
                state.topic_popularity(at, z)
            } else {
                0.0
            };
            *l += ln_psi(ctx.dot_nu(&x), delta);
        }
    }
}

/// Diffusion-link contribution for a *single* topic candidate — the
/// scalar companion of [`add_topic_diffusion_terms`] used by the MH
/// target evaluations.
fn topic_diffusion_at(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    c: usize,
    z: usize,
) -> f64 {
    let doc = &ctx.graph.docs()[d];
    let z_n = state.n_topics;
    let mut out = 0.0f64;
    for &lid in ctx.graph.diffusion_links_of(DocId(d as u32)) {
        let lm = &ctx.links[lid as usize];
        if lm.dst_doc as usize != d {
            continue;
        }
        let delta = state.delta[lid as usize];
        let diffuser_doc = lm.src_doc as usize;
        let ck = state.doc_community[diffuser_doc] as usize;
        let uk = lm.src_author as usize;
        let pi_pair = state.pi_hat(uk, ck, ctx.rho) * state.pi_hat(doc.author.index(), c, ctx.rho);
        let mut x = [0.0f64; N_FEATURES];
        ctx.features.fill_static(
            &mut x,
            UserId(lm.src_author),
            UserId(lm.dst_author),
            ctx.config.individual_factor,
        );
        let s = ctx.eta.at(ck, c, z)
            * state.theta_hat(ck, z, ctx.alpha)
            * state.theta_hat(c, z, ctx.alpha)
            * pi_pair;
        x[F_COMMUNITY] = community_feature(s, state.n_communities, z_n);
        x[F_TOPIC_POP] = if ctx.config.topic_factor {
            state.topic_popularity(lm.at as usize, z)
        } else {
            0.0
        };
        out += ln_psi(ctx.dot_nu(&x), delta);
    }
    out
}

// --- Community resampling (Eq. 14) --------------------------------------

fn sample_community<S: DeltaSink>(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    d: usize,
    rng: &mut StdRng,
    phase: SweepPhase,
    sink: &mut S,
    scratch: &mut SweepScratch,
) {
    let doc = &ctx.graph.docs()[d];
    let c_n = state.n_communities;
    let z_n = state.n_topics;
    let u = doc.author.index();
    let z = state.doc_topic[d] as usize;
    let c_old = state.doc_community[d] as usize;

    // Remove the document (community side).
    state.user_comm.add(u * c_n + c_old, -1);
    state.comm_topic.add(c_old * z_n + z, -1);
    state.comm_topic.add_marginal(c_old, -1);

    // Disjoint scratch borrows: `lw` for the candidate weights, `g` for
    // the per-link bilinear precomputation further down, `link_rows`
    // for the count rows the link terms read.
    let SweepScratch {
        lw_comm,
        g,
        link_rows,
        stats,
        ..
    } = scratch;
    zeroed(lw_comm, c_n);
    let lw = lw_comm;
    match ctx.config.sampler {
        SamplerKind::Dense => {
            // User-community prior: ln(n^c_{u,¬ui} + ρ) (denominator
            // constant).
            for (c, l) in lw.iter_mut().enumerate() {
                *l = (state.n_uc(u * c_n + c) as f64 + ctx.rho).ln();
            }
            // Community-topic factor, with its candidate-dependent
            // denominator.
            if phase != SweepPhase::DetectOnly {
                for (c, l) in lw.iter_mut().enumerate() {
                    *l += (state.n_cz(c * z_n + z) as f64 + ctx.alpha).ln()
                        - (state.n_c(c) as f64 + z_n as f64 * ctx.alpha).ln();
                }
            }
        }
        // AliasMh keeps the exact cached path for communities: the
        // community conditional is dominated by the link terms below,
        // so a stale prior proposal would buy little and mix worse.
        SamplerKind::Exact | SamplerKind::AliasMh => {
            let tab = ctx.tables;
            // User-community prior, sparsely: ln(ρ) everywhere,
            // corrected at the nonzero entries of the n_uc row.
            let base = tab.ln_rho.at(0);
            for l in lw.iter_mut() {
                *l = base;
            }
            let mut nnz = 0u64;
            state
                .user_comm
                .for_each_nonzero_in_row(u * c_n, c_n, |c, n| {
                    lw[c] = tab.ln_rho.at(n);
                    nnz += 1;
                });
            stats.sparse_rows += 1;
            stats.sparse_nonzeros += nnz;
            stats.sparse_slots += c_n as u64;
            // Community-topic factor: the n_cz column and the marginal
            // denominator are candidate-dependent, so both stay per-slot
            // lookups.
            if phase != SweepPhase::DetectOnly {
                for (c, l) in lw.iter_mut().enumerate() {
                    *l += tab.ln_alpha.at(state.n_cz(c * z_n + z)) - tab.ln_calpha.at(state.n_c(c));
                }
            }
        }
    }

    // The author's row and π̂_u(c) denominator (document re-added).
    link_rows.fill_author(state, u, ctx.rho);

    // Friendship factor over Λ_u (Eq. 3 evidence through ψ(·, λ)).
    if ctx.config.use_friendship {
        add_membership_link_terms(
            ctx,
            state,
            u,
            link_rows,
            lw,
            rng,
            MembershipLinks::Friendship,
        );
    }

    // Diffusion factor over Λ_i.
    if phase != SweepPhase::DetectOnly {
        match ctx.config.diffusion {
            DiffusionModel::SameAsFriendship => {
                add_membership_link_terms(
                    ctx,
                    state,
                    u,
                    link_rows,
                    lw,
                    rng,
                    MembershipLinks::DiffusionOf(d),
                );
            }
            DiffusionModel::Full => {
                add_full_diffusion_terms(ctx, state, d, link_rows, lw, g);
            }
        }
    }

    let c_new = sample_log_index_mut(rng, lw);

    state.doc_community[d] = c_new as u32;
    state.user_comm.add(u * c_n + c_new, 1);
    state.comm_topic.add(c_new * z_n + z, 1);
    state.comm_topic.add_marginal(c_new, 1);
    if c_new != c_old {
        sink.community_moved(d, u, z, c_old, c_new);
    }
}

/// Which links feed the membership-similarity factor.
#[derive(Clone, Copy)]
enum MembershipLinks {
    /// `Λ_u` — friendship links of the document's author.
    Friendship,
    /// Diffusion links of document `d`, modelled like friendship links
    /// (the "no heterogeneity" ablation).
    DiffusionOf(usize),
}

/// Add `Σ ln ψ(π̂_u(c)ᵀ π̂_v, pg)` terms to `lw` for each linked partner
/// `v`, using the O(1)-per-candidate incremental dot product. The link
/// id lists are borrowed straight from the graph's CSR adjacency — no
/// per-visit copies.
///
/// `rows` carries the author side ([`LinkRows::fill_author`]) and the
/// partner table of the links' block: the author's friendship table
/// ([`SweepScratch::begin_author`]), or the document's diffusion table,
/// started here. A link's partner, `pg` and `n_vc` row are read on its
/// first pick in the block ([`PartnerTable::fill`]); every pick then
/// costs one `|C|` dot product with the author row, the shared
/// zero-count term and one term per nonzero `n_vc` (see the module
/// docs), written baseline-then-overwrite so the candidate loop never
/// branches on a count.
fn add_membership_link_terms(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    u: usize,
    rows: &mut LinkRows,
    lw: &mut [f64],
    rng: &mut StdRng,
    which: MembershipLinks,
) {
    let c_n = state.n_communities;
    let LinkRows {
        denom_u,
        author,
        term,
        friends,
        diffusion,
    } = rows;
    let denom_u = *denom_u;
    let (link_ids, pg_of, table): (&[u32], &[f64], _) = match which {
        MembershipLinks::Friendship => (
            ctx.graph.friend_links_of(UserId(u as u32)),
            &state.lambda,
            friends,
        ),
        MembershipLinks::DiffusionOf(d) => {
            let ids = ctx.graph.diffusion_links_of(DocId(d as u32));
            diffusion.begin(ids.len());
            (ids, &state.delta, diffusion)
        }
    };
    debug_assert_eq!(table.slot.len(), link_ids.len(), "block not started");

    let cap = ctx.config.max_neighbors;
    let total = link_ids.len();
    let use_all = cap == 0 || total <= cap;
    let picks = if use_all { total } else { cap };
    for pick in 0..picks {
        let idx = if use_all {
            pick
        } else {
            rng.gen_range(0..total)
        };
        let entry = match table.slot[idx] {
            UNFILLED => {
                let lid = link_ids[idx] as usize;
                let v = match which {
                    MembershipLinks::Friendship => {
                        let l = ctx.graph.friendships()[lid];
                        if l.from.index() == u {
                            l.to.index()
                        } else {
                            l.from.index()
                        }
                    }
                    MembershipLinks::DiffusionOf(d) => {
                        let lm = &ctx.links[lid];
                        if lm.src_doc as usize == d {
                            lm.dst_author as usize
                        } else {
                            lm.src_author as usize
                        }
                    }
                };
                if v == u {
                    continue;
                }
                let entry = table.fill(state, v, pg_of[lid], ctx.rho);
                table.slot[idx] = entry;
                entry
            }
            entry => entry,
        } as usize;
        let p = &table.entries[entry];
        let row = &table.rows[entry * c_n..(entry + 1) * c_n];
        // S_v = Σ_c (n¬_uc + ρ) π̂_vc  (u's counts currently exclude the
        // doc).
        let mut s_v = 0.0f64;
        for (&a, &r) in author.iter().zip(row) {
            s_v += a * r;
        }
        s_v /= p.denom_v;
        // Every candidate with n_vc = 0 has p_vc = ρ / denom_v.
        let shared = ln_psi((s_v + p.rho_v) / denom_u, p.pg);
        term.clear();
        term.resize(c_n, shared);
        for &(c, p_vc) in &table.nonzero[p.nonzero.clone()] {
            term[c as usize] = ln_psi((s_v + p_vc) / denom_u, p.pg);
        }
        for (l, &t) in lw.iter_mut().zip(term.iter()) {
            *l += t;
        }
    }
}

/// Add the full Eq. 5 diffusion terms for every link incident to doc `d`
/// while resampling its community. O(|C|²) per link for the bilinear
/// precomputation, then O(1) per candidate. `rows` carries the author
/// side ([`LinkRows::fill_author`]); `buf` is reused scratch of `2|C|`.
///
/// Per link, the `θ̂_{·,z_l}` column is divided once and η is read from
/// topic `z_l`'s block ([`Eta::topic_block`]): when `d` is diffused the
/// candidate indexes `c'`, so each `c_other` reads one contiguous row;
/// when `d` diffuses the candidate indexes `c`, a stride of `|C|`
/// inside the block.
fn add_full_diffusion_terms(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    d: usize,
    rows: &LinkRows,
    lw: &mut [f64],
    buf: &mut Vec<f64>,
) {
    let c_n = state.n_communities;
    let z_n = state.n_topics;
    for &lid in ctx.graph.diffusion_links_of(DocId(d as u32)) {
        let lm = &ctx.links[lid as usize];
        let delta = state.delta[lid as usize];
        let d_is_diffuser = lm.src_doc as usize == d;
        // Link topic: the *source* document's topic. When d is the source
        // that is d's own (fixed) topic; otherwise the partner's.
        let zl = state.doc_topic[lm.dst_doc as usize] as usize;
        // Fixed-side user and candidate-side pairing.
        let other_author = if d_is_diffuser {
            lm.dst_author as usize
        } else {
            lm.src_author as usize
        };
        zeroed(buf, 2 * c_n);
        let (g, theta) = buf.split_at_mut(c_n);
        for (c, t) in theta.iter_mut().enumerate() {
            *t = state.theta_hat(c, zl, ctx.alpha);
        }
        // g[c_cand] = Σ_{c_other} η(pair) π̂_{other} θ̂_{other} with the
        // candidate index in the right slot of η.
        let eta = ctx.eta.topic_block(zl);
        for (c_other, &t_other) in theta.iter().enumerate() {
            let w_other = state.pi_hat(other_author, c_other, ctx.rho) * t_other;
            if w_other == 0.0 {
                continue;
            }
            if d_is_diffuser {
                // candidate is the diffusing side c1: η[c1][c2][z]
                let col = eta[c_other..].iter().step_by(c_n);
                for (gc, &e) in g.iter_mut().zip(col) {
                    *gc += e * w_other;
                }
            } else {
                // candidate is the source side c2: η[c1][c2][z]
                let row = &eta[c_other * c_n..(c_other + 1) * c_n];
                for (gc, &e) in g.iter_mut().zip(row) {
                    *gc += e * w_other;
                }
            }
        }
        // T0 = Σ_c (n¬_uc + ρ) θ̂_{c,zl} g[c].
        let mut t0 = 0.0f64;
        for ((&a, &t), &gc) in rows.author.iter().zip(theta.iter()).zip(g.iter()) {
            t0 += a * t * gc;
        }
        let mut x = [0.0f64; N_FEATURES];
        ctx.features.fill_static(
            &mut x,
            UserId(lm.src_author),
            UserId(lm.dst_author),
            ctx.config.individual_factor,
        );
        x[F_TOPIC_POP] = if ctx.config.topic_factor {
            state.topic_popularity(lm.at as usize, zl)
        } else {
            0.0
        };
        for (l, (&t, &gc)) in lw.iter_mut().zip(theta.iter().zip(g.iter())) {
            let s = (t0 + t * gc) / rows.denom_u;
            x[F_COMMUNITY] = community_feature(s, c_n, z_n);
            *l += ln_psi(ctx.dot_nu(&x), delta);
        }
    }
}

// --- Pólya-Gamma resampling (Eqs. 15–16) ---------------------------------

/// Resample `λ_uv ~ PG(1, π̂_uᵀπ̂_v)` for the friendship links in
/// `[lo, hi)`, writing into `out` (parallel-friendly range API).
pub(crate) fn resample_lambda_range(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    lo: usize,
    hi: usize,
    out: &mut [f64],
    rng: &mut StdRng,
) {
    for (slot, lid) in (lo..hi).enumerate() {
        let l = ctx.graph.friendships()[lid];
        let w = state.membership_dot(l.from.index(), l.to.index(), ctx.rho);
        out[slot] = sample_pg1(rng, w);
    }
}

/// Compute the full (soft) Eq. 5 logit and feature vector for diffusion
/// link `lm` under the current state. `buf` is the caller's reusable
/// scratch for [`soft_community_factor`].
pub(crate) fn diffusion_logit(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    lm: &LinkMeta,
    buf: &mut Vec<f64>,
) -> (f64, [f64; N_FEATURES]) {
    let mut x = [0.0f64; N_FEATURES];
    match ctx.config.diffusion {
        DiffusionModel::SameAsFriendship => {
            let w = state.membership_dot(lm.src_author as usize, lm.dst_author as usize, ctx.rho);
            (w, x)
        }
        DiffusionModel::Full => {
            let zl = state.doc_topic[lm.dst_doc as usize] as usize;
            let s = soft_community_factor(
                ctx,
                state,
                lm.src_author as usize,
                lm.dst_author as usize,
                zl,
                buf,
            );
            ctx.features.fill_static(
                &mut x,
                UserId(lm.src_author),
                UserId(lm.dst_author),
                ctx.config.individual_factor,
            );
            x[F_COMMUNITY] = community_feature(s, state.n_communities, state.n_topics);
            x[F_TOPIC_POP] = if ctx.config.topic_factor {
                state.topic_popularity(lm.at as usize, zl)
            } else {
                0.0
            };
            (ctx.dot_nu(&x), x)
        }
    }
}

/// `s_comm = Σ_{c,c'} η_{c,c',z} π̂_{u,c} θ̂_{c,z} π̂_{v,c'} θ̂_{c',z}`
/// (Eq. 4, step 2), contracted `c`-outer: `π̂_{u,c}` and `θ̂_{c,z}` are
/// computed once per `c`, and each `c'` has its own accumulator
/// `inner[c'] = Σ_c η_{c,c',z} π̂_{u,c} θ̂_{c,z}`, fed in `c` order from
/// the contiguous rows of topic `z`'s η block (see the module docs for
/// why the result keeps every bit). `buf` is reused scratch of `2|C|`.
pub(crate) fn soft_community_factor(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    u: usize,
    v: usize,
    z: usize,
    buf: &mut Vec<f64>,
) -> f64 {
    let c_n = state.n_communities;
    zeroed(buf, 2 * c_n);
    // inner[c'] and θ̂_{c,z} for every c.
    let (inner, theta_z) = buf.split_at_mut(c_n);
    let eta = ctx.eta.topic_block(z);
    for (c1, t) in theta_z.iter_mut().enumerate() {
        let p_u = state.pi_hat(u, c1, ctx.rho);
        let t_c = state.theta_hat(c1, z, ctx.alpha);
        *t = t_c;
        // η_{c1,c',z} for every c', one contiguous row of topic z's block.
        let eta_row = &eta[c1 * c_n..(c1 + 1) * c_n];
        for (acc, &e) in inner.iter_mut().zip(eta_row) {
            *acc += e * p_u * t_c;
        }
    }
    let mut acc = 0.0f64;
    for (c2, (&s, &t)) in inner.iter().zip(theta_z.iter()).enumerate() {
        let w2 = state.pi_hat(v, c2, ctx.rho) * t;
        if w2 == 0.0 {
            continue;
        }
        acc += s * w2;
    }
    acc
}

/// Resample `δ_ij ~ PG(1, w_ij)` for the diffusion links in `[lo, hi)`,
/// writing the draws into `out_delta` and caching the logistic feature
/// vectors (reused by the `ν` M-step) into `out_x`.
pub(crate) fn resample_delta_range(
    ctx: &SweepContext<'_>,
    state: &CpdState,
    lo: usize,
    hi: usize,
    out_delta: &mut [f64],
    out_x: &mut [[f64; N_FEATURES]],
    rng: &mut StdRng,
) {
    let mut buf = Vec::new();
    for (slot, lid) in (lo..hi).enumerate() {
        let lm = &ctx.links[lid];
        let (w, x) = diffusion_logit(ctx, state, lm, &mut buf);
        out_delta[slot] = sample_pg1(rng, w);
        out_x[slot] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{link_metadata, NoDelta};
    use cpd_prob::rng::seeded_rng;
    use social_graph::{Document, SocialGraphBuilder, WordId};

    fn small_graph() -> SocialGraph {
        let mut b = SocialGraphBuilder::new(4, 6);
        let mut docs = Vec::new();
        for u in 0..4u32 {
            for i in 0..3u32 {
                let w0 = WordId((u % 2) * 3 + i % 3);
                let w1 = WordId((u % 2) * 3 + (i + 1) % 3);
                docs.push(b.add_document(Document::new(UserId(u), vec![w0, w1], i % 4)));
            }
        }
        b.add_friendship(UserId(0), UserId(1));
        b.add_friendship(UserId(2), UserId(3));
        b.add_friendship(UserId(0), UserId(2));
        b.add_diffusion(docs[0], docs[4], 1);
        b.add_diffusion(docs[7], docs[2], 2);
        b.build().unwrap()
    }

    fn ctx_parts() -> (SocialGraph, CpdConfig) {
        (small_graph(), CpdConfig::new(2, 2))
    }

    #[test]
    fn sweep_preserves_count_consistency() {
        let (g, cfg) = ctx_parts();
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Eta::uniform(2, 2);
        let nu = vec![0.1; N_FEATURES];
        let tables = SamplerTables::new(&g, &cfg);
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let mut state = CpdState::init(&g, &cfg);
        let mut rng = seeded_rng(3);
        let mut scratch = SweepScratch::new();
        let users: Vec<u32> = (0..4).collect();
        for _ in 0..5 {
            sweep_user_docs(
                &ctx,
                &mut state,
                &users,
                &mut rng,
                SweepPhase::Full,
                &mut NoDelta,
                &mut scratch,
            );
            state.check_consistency(&g).unwrap();
        }
    }

    #[test]
    fn detect_only_keeps_topics_fixed() {
        let (g, cfg) = ctx_parts();
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Eta::uniform(2, 2);
        let nu = vec![0.0; N_FEATURES];
        let tables = SamplerTables::new(&g, &cfg);
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let mut state = CpdState::init(&g, &cfg);
        let topics_before = state.doc_topic.clone();
        let mut rng = seeded_rng(4);
        sweep_user_docs(
            &ctx,
            &mut state,
            &[0, 1, 2, 3],
            &mut rng,
            SweepPhase::DetectOnly,
            &mut NoDelta,
            &mut SweepScratch::new(),
        );
        assert_eq!(state.doc_topic, topics_before);
        state.check_consistency(&g).unwrap();
    }

    #[test]
    fn profile_only_keeps_communities_fixed() {
        let (g, cfg) = ctx_parts();
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Eta::uniform(2, 2);
        let nu = vec![0.0; N_FEATURES];
        let tables = SamplerTables::new(&g, &cfg);
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let mut state = CpdState::init(&g, &cfg);
        let comms_before = state.doc_community.clone();
        let mut rng = seeded_rng(5);
        sweep_user_docs(
            &ctx,
            &mut state,
            &[0, 1, 2, 3],
            &mut rng,
            SweepPhase::ProfileOnly,
            &mut NoDelta,
            &mut SweepScratch::new(),
        );
        assert_eq!(state.doc_community, comms_before);
        state.check_consistency(&g).unwrap();
    }

    #[test]
    fn lambda_delta_resampling_is_positive_and_bounded() {
        let (g, cfg) = ctx_parts();
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Eta::uniform(2, 2);
        let nu = vec![0.1; N_FEATURES];
        let tables = SamplerTables::new(&g, &cfg);
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let state = CpdState::init(&g, &cfg);
        let mut rng = seeded_rng(6);
        let mut lam = vec![0.0; g.friendships().len()];
        resample_lambda_range(&ctx, &state, 0, lam.len(), &mut lam, &mut rng);
        assert!(lam.iter().all(|&l| l > 0.0));
        let mut del = vec![0.0; g.diffusions().len()];
        let mut xs = vec![[0.0; N_FEATURES]; g.diffusions().len()];
        resample_delta_range(&ctx, &state, 0, del.len(), &mut del, &mut xs, &mut rng);
        assert!(del.iter().all(|&d| d > 0.0));
        // Feature vectors have the bias set.
        assert!(xs.iter().all(|x| x[0] == 1.0));
    }

    /// The link-term fixture: a graph under the experiment prior
    /// (`ρ = 0.1`) with `|C| = 5`, so π̂ rows are far from flat and
    /// count rows have zero and nonzero entries, and a non-uniform η.
    struct LinkFixture {
        g: SocialGraph,
        cfg: CpdConfig,
        features: UserFeatures,
        links: Vec<LinkMeta>,
        eta: Eta,
        nu: Vec<f64>,
        tables: SamplerTables,
    }

    /// A generated corpus whose users differ in documents and
    /// friends, so `π̂` denominators vary (on the small graph every user
    /// has 3 documents, and a one-ulp change to a division can round
    /// back to the same bits at every candidate).
    fn varied_graph() -> SocialGraph {
        use cpd_datagen::{generate, GenConfig, Scale};
        let gen = GenConfig {
            mean_friend_degree: 12.0,
            n_diffusions: 600,
            ..GenConfig::twitter_like(Scale::Tiny)
        };
        generate(&gen).0
    }

    impl LinkFixture {
        fn new(g: SocialGraph, max_neighbors: usize) -> Self {
            let cfg = CpdConfig {
                rho: Some(0.1),
                max_neighbors,
                ..CpdConfig::new(5, 3)
            };
            let counts: Vec<f64> = (0..5 * 5 * 3)
                .map(|i| ((i * 7919) % 13) as f64 * 0.37)
                .collect();
            Self {
                features: UserFeatures::compute(&g),
                links: link_metadata(&g),
                eta: Eta::from_counts(5, 3, &counts, 0.1),
                nu: vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.05],
                tables: SamplerTables::new(&g, &cfg),
                g,
                cfg,
            }
        }

        fn ctx(&self) -> SweepContext<'_> {
            SweepContext::new(
                &self.g,
                &self.cfg,
                &self.eta,
                &self.nu,
                &self.features,
                &self.links,
                &self.tables,
            )
        }

        /// The state after a few sweeps and λ/δ passes.
        fn swept_state(&self) -> CpdState {
            let ctx = self.ctx();
            let mut state = CpdState::init(&self.g, &self.cfg);
            let mut rng = seeded_rng(9);
            let mut scratch = SweepScratch::new();
            let users: Vec<u32> = (0..self.g.n_users() as u32).collect();
            for _ in 0..3 {
                sweep_user_docs(
                    &ctx,
                    &mut state,
                    &users,
                    &mut rng,
                    SweepPhase::Full,
                    &mut NoDelta,
                    &mut scratch,
                );
                let mut lam = std::mem::take(&mut state.lambda);
                resample_lambda_range(&ctx, &state, 0, lam.len(), &mut lam, &mut rng);
                state.lambda = lam;
                let mut del = std::mem::take(&mut state.delta);
                let mut xs = vec![[0.0; N_FEATURES]; del.len()];
                resample_delta_range(&ctx, &state, 0, del.len(), &mut del, &mut xs, &mut rng);
                state.delta = del;
            }
            state
        }
    }

    /// The Eq. 4 loop before the `c`-outer contraction — `c'`
    /// outermost, one serial chain per `c'`, π̂ and θ̂ divided afresh
    /// for every term — kept as the bit reference.
    fn soft_community_factor_reference(
        ctx: &SweepContext<'_>,
        state: &CpdState,
        u: usize,
        v: usize,
        z: usize,
    ) -> f64 {
        let c_n = state.n_communities;
        let mut acc = 0.0f64;
        for c2 in 0..c_n {
            let w2 = state.pi_hat(v, c2, ctx.rho) * state.theta_hat(c2, z, ctx.alpha);
            if w2 == 0.0 {
                continue;
            }
            let mut inner = 0.0f64;
            for c1 in 0..c_n {
                inner += ctx.eta.at(c1, c2, z)
                    * state.pi_hat(u, c1, ctx.rho)
                    * state.theta_hat(c1, z, ctx.alpha);
            }
            acc += inner * w2;
        }
        acc
    }

    /// The membership link terms before the shared zero-count term —
    /// both rows read through the plane for every partner, two
    /// divisions and one `ln ψ` per candidate — kept as the bit
    /// reference.
    fn membership_link_terms_reference(
        ctx: &SweepContext<'_>,
        state: &CpdState,
        u: usize,
        denom_u: f64,
        lw: &mut [f64],
        rng: &mut StdRng,
        which: MembershipLinks,
    ) {
        let c_n = state.n_communities;
        let (link_ids, pg_of): (&[u32], &[f64]) = match which {
            MembershipLinks::Friendship => {
                (ctx.graph.friend_links_of(UserId(u as u32)), &state.lambda)
            }
            MembershipLinks::DiffusionOf(d) => {
                (ctx.graph.diffusion_links_of(DocId(d as u32)), &state.delta)
            }
        };
        let cap = ctx.config.max_neighbors;
        let total = link_ids.len();
        let use_all = cap == 0 || total <= cap;
        let picks = if use_all { total } else { cap };
        for pick in 0..picks {
            let idx = if use_all {
                pick
            } else {
                rng.gen_range(0..total)
            };
            let lid = link_ids[idx] as usize;
            let v = match which {
                MembershipLinks::Friendship => {
                    let l = ctx.graph.friendships()[lid];
                    if l.from.index() == u {
                        l.to.index()
                    } else {
                        l.from.index()
                    }
                }
                MembershipLinks::DiffusionOf(d) => {
                    let lm = &ctx.links[lid];
                    if lm.src_doc as usize == d {
                        lm.dst_author as usize
                    } else {
                        lm.src_author as usize
                    }
                }
            };
            if v == u {
                continue;
            }
            let pg = pg_of[lid];
            let denom_v = state.n_u(v) as f64 + c_n as f64 * ctx.rho;
            let mut s_v = 0.0f64;
            for c in 0..c_n {
                s_v += (state.n_uc(u * c_n + c) as f64 + ctx.rho)
                    * (state.n_uc(v * c_n + c) as f64 + ctx.rho);
            }
            s_v /= denom_v;
            for (c, l) in lw.iter_mut().enumerate() {
                let p_vc = (state.n_uc(v * c_n + c) as f64 + ctx.rho) / denom_v;
                let dot = (s_v + p_vc) / denom_u;
                *l += ln_psi(dot, pg);
            }
        }
    }

    /// The Eq. 5 community term before the topic-major η — η read at a
    /// stride of `|Z|` or `|C||Z|`, the `θ̂_{·,z_l}` column divided three
    /// times per link — kept as the bit reference.
    fn full_diffusion_terms_reference(
        ctx: &SweepContext<'_>,
        state: &CpdState,
        d: usize,
        rows: &LinkRows,
        lw: &mut [f64],
        g: &mut Vec<f64>,
    ) {
        let c_n = state.n_communities;
        let z_n = state.n_topics;
        for &lid in ctx.graph.diffusion_links_of(DocId(d as u32)) {
            let lm = &ctx.links[lid as usize];
            let delta = state.delta[lid as usize];
            let d_is_diffuser = lm.src_doc as usize == d;
            let zl = state.doc_topic[lm.dst_doc as usize] as usize;
            let other_author = if d_is_diffuser {
                lm.dst_author as usize
            } else {
                lm.src_author as usize
            };
            zeroed(g, c_n);
            for c_other in 0..c_n {
                let w_other = state.pi_hat(other_author, c_other, ctx.rho)
                    * state.theta_hat(c_other, zl, ctx.alpha);
                if w_other == 0.0 {
                    continue;
                }
                for (c_cand, gc) in g.iter_mut().enumerate() {
                    let e = if d_is_diffuser {
                        ctx.eta.at(c_cand, c_other, zl)
                    } else {
                        ctx.eta.at(c_other, c_cand, zl)
                    };
                    *gc += e * w_other;
                }
            }
            let mut t0 = 0.0f64;
            for (c, (&a, &gc)) in rows.author.iter().zip(g.iter()).enumerate() {
                t0 += a * state.theta_hat(c, zl, ctx.alpha) * gc;
            }
            let mut x = [0.0f64; N_FEATURES];
            ctx.features.fill_static(
                &mut x,
                UserId(lm.src_author),
                UserId(lm.dst_author),
                ctx.config.individual_factor,
            );
            x[F_TOPIC_POP] = if ctx.config.topic_factor {
                state.topic_popularity(lm.at as usize, zl)
            } else {
                0.0
            };
            for (c, l) in lw.iter_mut().enumerate() {
                let s = (t0 + state.theta_hat(c, zl, ctx.alpha) * g[c]) / rows.denom_u;
                x[F_COMMUNITY] = community_feature(s, c_n, z_n);
                *l += ln_psi(ctx.dot_nu(&x), delta);
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The Eq. 5 community term gives every candidate of every document
    /// of the varied corpus the same bits as the pre-layout loop, under
    /// a non-uniform η, on links where the document diffuses and links
    /// where it is diffused.
    #[test]
    fn full_diffusion_terms_match_reference() {
        let fx = LinkFixture::new(varied_graph(), 0);
        let ctx = fx.ctx();
        let state = fx.swept_state();
        let c_n = state.n_communities;
        let mut scratch = SweepScratch::new();
        let mut g_want = Vec::new();
        let (mut diffuses, mut diffused) = (0, 0);
        for d in 0..fx.g.n_docs() {
            for &lid in fx.g.diffusion_links_of(DocId(d as u32)) {
                if fx.links[lid as usize].src_doc as usize == d {
                    diffuses += 1;
                } else {
                    diffused += 1;
                }
            }
            let u = fx.g.docs()[d].author.index();
            scratch.link_rows.fill_author(&state, u, ctx.rho);
            let start: Vec<f64> = (0..c_n).map(|c| -0.3 * c as f64 - 1.1).collect();
            let (mut fast, mut want) = (start.clone(), start);
            add_full_diffusion_terms(
                &ctx,
                &state,
                d,
                &scratch.link_rows,
                &mut fast,
                &mut scratch.g,
            );
            full_diffusion_terms_reference(
                &ctx,
                &state,
                d,
                &scratch.link_rows,
                &mut want,
                &mut g_want,
            );
            assert_eq!(bits(&fast), bits(&want), "doc {d}");
        }
        assert!(diffuses > 0 && diffused > 0, "{diffuses} / {diffused}");
    }

    /// The `c`-outer Eq. 4 contraction returns the same bits as the
    /// `c'`-outer loop for every (u, v, z) of the small graph and of the
    /// varied corpus, with one scratch buffer reused throughout.
    #[test]
    fn soft_community_factor_matches_brute_force() {
        let mut buf = Vec::new();
        for g in [small_graph(), varied_graph()] {
            let fx = LinkFixture::new(g, 0);
            let ctx = fx.ctx();
            let state = fx.swept_state();
            let users = fx.g.n_users();
            for (u, v) in (0..users).flat_map(|u| (0..users).map(move |v| (u, v))) {
                for z in 0..state.n_topics {
                    let fast = soft_community_factor(&ctx, &state, u, v, z, &mut buf);
                    let want = soft_community_factor_reference(&ctx, &state, u, v, z);
                    assert!(want > 0.0);
                    assert_eq!(
                        fast.to_bits(),
                        want.to_bits(),
                        "(u, v, z) = ({u}, {v}, {z})"
                    );
                }
            }
        }
    }

    /// The membership link terms give every candidate of every document
    /// of the varied corpus the same bits as the per-candidate loop, for
    /// friendship links and for diffusion links modelled like
    /// friendships (the no-heterogeneity ablation), with every
    /// neighbour used and under a neighbour cap that samples (same RNG
    /// draws). One scratch serves every call; documents are visited in
    /// sweep order with each author's block started as
    /// [`sweep_user_docs`] starts it, and the pass runs twice with a
    /// serial sweep and a λ pass in between, so a partner table that
    /// outlived its block would show stale rows or stale λ.
    #[test]
    fn membership_link_terms_match_reference() {
        for cap in [0, 5] {
            let fx = LinkFixture::new(varied_graph(), cap);
            let ctx = fx.ctx();
            let mut state = fx.swept_state();
            let c_n = state.n_communities;
            // Partners take both the shared zero-count term and their
            // own terms.
            let zeros = (0..fx.g.n_users() * c_n)
                .filter(|&i| state.n_uc(i) == 0)
                .count();
            assert!(zeros > 0 && zeros < fx.g.n_users() * c_n);
            let users: Vec<u32> = (0..fx.g.n_users() as u32).collect();
            let mut scratch = SweepScratch::new();
            let mut rng = seeded_rng(17);
            for pass in 0..2 {
                if pass == 1 {
                    sweep_user_docs(
                        &ctx,
                        &mut state,
                        &users,
                        &mut rng,
                        SweepPhase::Full,
                        &mut NoDelta,
                        &mut scratch,
                    );
                    let mut lam = std::mem::take(&mut state.lambda);
                    resample_lambda_range(&ctx, &state, 0, lam.len(), &mut lam, &mut rng);
                    state.lambda = lam;
                }
                for &u in &users {
                    scratch.begin_author(&fx.g, u);
                    let u = u as usize;
                    for d in fx.g.docs_of(UserId(u as u32)) {
                        let d = d.index();
                        scratch.link_rows.fill_author(&state, u, ctx.rho);
                        let denom_u = state.n_u(u) as f64 + c_n as f64 * ctx.rho;
                        for which in [MembershipLinks::Friendship, MembershipLinks::DiffusionOf(d)]
                        {
                            let start: Vec<f64> = (0..c_n).map(|c| -0.3 * c as f64 - 1.1).collect();
                            let (mut fast, mut want) = (start.clone(), start);
                            let seed = (pass * fx.g.n_docs() + d) as u64;
                            let (mut rng_fast, mut rng_want) = (seeded_rng(seed), seeded_rng(seed));
                            add_membership_link_terms(
                                &ctx,
                                &state,
                                u,
                                &mut scratch.link_rows,
                                &mut fast,
                                &mut rng_fast,
                                which,
                            );
                            membership_link_terms_reference(
                                &ctx,
                                &state,
                                u,
                                denom_u,
                                &mut want,
                                &mut rng_want,
                                which,
                            );
                            assert_eq!(bits(&fast), bits(&want), "cap {cap}, pass {pass}, doc {d}");
                            assert_eq!(rng_fast.gen::<u64>(), rng_want.gen::<u64>());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_heterogeneity_logit_is_membership_dot() {
        let (g, mut cfg) = ctx_parts();
        cfg = cfg.no_heterogeneity();
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Eta::uniform(2, 2);
        let nu = vec![0.5; N_FEATURES];
        let tables = SamplerTables::new(&g, &cfg);
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let state = CpdState::init(&g, &cfg);
        let lm = &links[0];
        let (w, _) = diffusion_logit(&ctx, &state, lm, &mut Vec::new());
        let want = state.membership_dot(lm.src_author as usize, lm.dst_author as usize, ctx.rho);
        assert!((w - want).abs() < 1e-12);
    }
}
