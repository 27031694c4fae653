//! The immutable [`ProfileIndex`]: everything a query needs,
//! precomputed once from a frozen [`CpdModel`].
//!
//! The offline applications in `cpd_core::apps` answer every query with
//! a dense scan — `rank_communities` walks the full `C × C × Z` tensor
//! per query, `top_words` scans all `V` vocabulary entries per call
//! (one pass that keeps the best `k`). The index moves all of that work
//! to build time:
//!
//! * **word → topic posting lists** — the log-`φ` matrix stored
//!   word-major (`postings(w)` is word `w`'s list of per-topic log
//!   weights), so a query's topic affinity is a merge of its words'
//!   posting lists: cache-friendly, no `ln` calls, no `Z × V` scan;
//! * **the community affinity table** `A_cz = Σ_c' η_cc'z θ_c'z` — the
//!   inner `O(|C|)` loop of Eq. 19 evaluated once per `(c, z)` at build,
//!   turning a rank query from `O(|C|²|Z|)` into `O(|C||Z|)`;
//! * **top-k tables** — top words per topic, top topics per community,
//!   and top topics per directed community pair `(c, c')` from `η`, all
//!   presorted.
//!
//! The numeric pipeline (log-affinity accumulation order, the
//! log-sum-exp shift, normalisation, tie-breaking) is shared with the
//! dense path via `cpd_core`'s public helpers, so index answers are
//! **identical** to dense-scan answers — `tests/oracle.rs` pins that.
//!
//! # Build
//!
//! Every serving cold start and every hot reload pays the build, and
//! at the paper's serving shape (`|C| = |Z| = 50`, `|V| = 60k`) most
//! of it is the `ln φ` pass: 3M `ln` calls into a 24 MB table. The
//! build spreads over up to [`std::thread::available_parallelism`]
//! scoped threads, the caller being one of them (never a serving
//! pool's worker):
//!
//! * **the word split** — thread `t` owns the `t`-th contiguous range
//!   of words, i.e. a disjoint `chunks_mut` slice of the word-major
//!   table, plus the `t`-th range of topics (their top-words rows) and
//!   of directed community pairs (their top-topics rows); the rows are
//!   concatenated in thread order;
//! * **the block** — a thread fills its slice `BLOCK_WORDS` (256)
//!   words at a time, topic by topic, so the φ segments it reads and
//!   the `256 × |Z|` cells it writes (~100 KB each at `|Z| = 50`) stay
//!   in L2, instead of striding one 8-byte write per `|Z|`-cell row
//!   across the whole table;
//! * **the per-thread minimum** — each thread gets at least
//!   `MIN_CELLS_PER_THREAD` (2^16) φ cells, so a small model (the
//!   tests, the 8 × 8 × 2,000 smoke shape) builds on the calling
//!   thread and spawns nothing.
//!
//! No bit can move: every cell is the same expression
//! (`ln max(φ_zw, floor)`) on the same φ value, written exactly once,
//! and every top-k row is the same one-pass read of the same model row
//! — only which thread evaluates it, and when, depends on the split.
//! `tests/index_build.rs` pins every bit the index exposes, on shapes
//! that are not multiples of the block or of the split.

use cpd_core::apps::ranking::PHI_FLOOR;
use cpd_core::{
    exp_shift_max, membership_link_score, normalise_and_rank, CpdConfig, CpdModel, UserFeatures,
};
use social_graph::{UserId, WordId};
use std::ops::Range;

/// How many entries the presorted top-k tables keep per topic /
/// community / community pair. Requests for more fall back to an exact
/// dense recomputation from the model.
pub const DEFAULT_TOP_K: usize = 20;

/// Words whose `ln φ` cells a build thread fills before moving on.
const BLOCK_WORDS: usize = 256;

/// The fewest φ cells worth a build thread of their own.
const MIN_CELLS_PER_THREAD: usize = 1 << 16;

/// A row per topic, community or community pair, best entry first.
type TopRows = Vec<Vec<(usize, f64)>>;

/// An immutable, query-ready view of a frozen [`CpdModel`].
///
/// Built once (typically right after [`cpd_core::io::load_model`]),
/// then shared across serving threads behind an `Arc` — nothing in here
/// is ever mutated, so reads need no locks.
#[derive(Debug, Clone)]
pub struct ProfileIndex {
    model: CpdModel,
    /// The configuration the model was trained with: the fold-in
    /// sampler needs the same `α` / `ρ` priors, and the diffusion
    /// scorer the same ablation flags.
    config: CpdConfig,
    /// Word-major log-`φ`: entry `w * Z + z` is `ln max(φ_zw, floor)` —
    /// word `w`'s posting list over topics.
    word_log_phi: Vec<f64>,
    /// Community-major log-`θ`: entry `c * Z + z` is `ln θ_cz`
    /// (floored like `φ`), used by the fold-in sampler.
    log_theta: Vec<f64>,
    /// `A_cz = Σ_c' η_cc'z θ_c'z`, `C`-major.
    affinity: Vec<f64>,
    /// Presorted `(word, probability)` per topic.
    top_words: Vec<Vec<(usize, f64)>>,
    /// Presorted `(topic, probability)` per community.
    top_topics: Vec<Vec<(usize, f64)>>,
    /// Presorted `(topic, strength)` per directed pair `(c, c')`,
    /// `c`-major.
    pair_topics: Vec<Vec<(usize, f64)>>,
    /// Entries kept in each top-k table.
    top_k: usize,
}

impl ProfileIndex {
    /// Build an index from a fitted model and the configuration it was
    /// trained with, keeping [`DEFAULT_TOP_K`] entries per top-k table.
    pub fn build(model: CpdModel, config: &CpdConfig) -> Self {
        Self::build_with_top_k(model, config, DEFAULT_TOP_K)
    }

    /// [`ProfileIndex::build`] with an explicit top-k table width.
    ///
    /// Runs on the calling thread plus, for a model large enough to
    /// pay for them, scoped helper threads (see the module's "Build"
    /// section); the index is the same bit for bit either way.
    pub fn build_with_top_k(model: CpdModel, config: &CpdConfig, top_k: usize) -> Self {
        let threads = build_threads(model.n_topics() * model.vocab_size());
        Self::build_split(model, config, top_k, threads)
    }

    /// The build, split `threads` ways (the calling thread plus
    /// `threads - 1` scoped helpers).
    fn build_split(model: CpdModel, config: &CpdConfig, top_k: usize, threads: usize) -> Self {
        let c_n = model.n_communities();
        let z_n = model.n_topics();
        let v_n = model.vocab_size();

        // Word-major log-phi posting lists. Same floor+ln as the dense
        // path (`query_log_affinities`), so per-(z, w) values are
        // bit-identical — the query merely reads them in a
        // cache-friendly order. Thread `t` fills the `t`-th slice of
        // words and builds the `t`-th range of the top-words and
        // pair-topic rows.
        let words_per_thread = v_n.div_ceil(threads);
        let mut word_log_phi = vec![0.0f64; v_n * z_n];
        let mut slices: Vec<&mut [f64]> = word_log_phi
            .chunks_mut((words_per_thread * z_n).max(1))
            .collect();
        slices.resize_with(threads, Default::default);
        let shares: Vec<(TopRows, TopRows)> = std::thread::scope(|s| {
            let model = &model;
            let mut jobs = slices.into_iter().enumerate().map(|(t, log_phi)| {
                move || {
                    fill_log_phi(&model.phi, t * words_per_thread, log_phi);
                    let top_words = share(z_n, threads, t)
                        .map(|z| model.top_words(z, top_k))
                        .collect();
                    let pair_topics = share(c_n * c_n, threads, t)
                        .map(|i| model.eta.top_topics(i / c_n, i % c_n, top_k))
                        .collect();
                    (top_words, pair_topics)
                }
            });
            let mut own = jobs.next().expect("at least one build thread");
            let helpers: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
            let mut shares = vec![own()];
            shares.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            );
            shares
        });
        let (top_words, pair_topics): (Vec<TopRows>, Vec<TopRows>) = shares.into_iter().unzip();
        let top_words = top_words.into_iter().flatten().collect();
        let pair_topics = pair_topics.into_iter().flatten().collect();

        let mut log_theta = vec![0.0f64; c_n * z_n];
        for (c, row) in model.theta.iter().enumerate() {
            for (z, &t) in row.iter().enumerate() {
                log_theta[c * z_n + z] = t.max(PHI_FLOOR).ln();
            }
        }

        // Affinity table: the Eq. 19 inner sum, evaluated in the same
        // `c'` order as the dense path so the products accumulate
        // identically.
        let mut affinity = vec![0.0f64; c_n * z_n];
        for c in 0..c_n {
            for z in 0..z_n {
                let mut inner = 0.0f64;
                for c2 in 0..c_n {
                    inner += model.eta.at(c, c2, z) * model.theta[c2][z];
                }
                affinity[c * z_n + z] = inner;
            }
        }

        // Top-k tables reuse the model's own one-pass top-k reads, so
        // ordering and tie-breaking match the dense calls exactly.
        let top_topics = (0..c_n)
            .map(|c| model.top_topics_of_community(c, top_k))
            .collect();

        Self {
            config: config.clone(),
            model,
            word_log_phi,
            log_theta,
            affinity,
            top_words,
            top_topics,
            pair_topics,
            top_k,
        }
    }

    /// The frozen model behind the index.
    pub fn model(&self) -> &CpdModel {
        &self.model
    }

    /// Number of communities.
    pub fn n_communities(&self) -> usize {
        self.model.n_communities()
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.model.n_topics()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.model.vocab_size()
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &CpdConfig {
        &self.config
    }

    /// Resolved community-topic prior `α` of the training run.
    pub fn alpha(&self) -> f64 {
        self.config.resolved_alpha()
    }

    /// Resolved user-community prior `ρ` of the training run.
    pub fn rho(&self) -> f64 {
        self.config.resolved_rho()
    }

    /// Word `w`'s posting list: per-topic `ln φ_zw`, indexed by topic.
    #[inline]
    pub fn postings(&self, w: WordId) -> &[f64] {
        let z_n = self.model.n_topics();
        &self.word_log_phi[w.index() * z_n..(w.index() + 1) * z_n]
    }

    /// `ln θ_cz` row of community `c`.
    #[inline]
    pub fn log_theta_row(&self, c: usize) -> &[f64] {
        let z_n = self.model.n_topics();
        &self.log_theta[c * z_n..(c + 1) * z_n]
    }

    /// Per-topic log affinity of `query` — the posting-list merge
    /// equivalent of `cpd_core::query_log_affinities`, written into
    /// `logq` (resized to `|Z|`) so batch callers reuse one buffer.
    pub fn query_log_affinities_into(&self, query: &[WordId], logq: &mut Vec<f64>) {
        let z_n = self.model.n_topics();
        logq.clear();
        logq.resize(z_n, 0.0);
        for w in query {
            for (lq, &lp) in logq.iter_mut().zip(self.postings(*w)) {
                *lq += lp;
            }
        }
    }

    /// Index-backed Eq. 19: rank all communities for `query`, best
    /// first, scores normalised to sum to 1. Identical answers to
    /// [`cpd_core::rank_communities`], in `O(|q||Z| + |C||Z|)` instead
    /// of `O(|q||Z| ln) + O(|C|²|Z|)`.
    pub fn rank_communities(&self, query: &[WordId]) -> Vec<(usize, f64)> {
        let mut qz = Vec::new();
        self.query_log_affinities_into(query, &mut qz);
        exp_shift_max(&mut qz);
        let z_n = self.model.n_topics();
        let scores: Vec<f64> = (0..self.model.n_communities())
            .map(|c| {
                let mut s = 0.0f64;
                for (z, &q) in qz.iter().enumerate() {
                    if q < 1e-14 {
                        continue;
                    }
                    s += q * self.affinity[c * z_n + z];
                }
                s
            })
            .collect();
        normalise_and_rank(scores)
    }

    /// Index-backed `p(z | q)`: identical answers to
    /// [`cpd_core::query_topics`], served from the posting lists.
    pub fn query_topics(&self, query: &[WordId]) -> Vec<(usize, f64)> {
        let mut qz = Vec::new();
        self.query_log_affinities_into(query, &mut qz);
        exp_shift_max(&mut qz);
        normalise_and_rank(qz)
    }

    /// Top-`k` `(word, probability)` of topic `z` — precomputed for
    /// `k <= top_k`, an exact one-pass scan of `φ_z` beyond that.
    pub fn top_words(&self, z: usize, k: usize) -> Vec<(usize, f64)> {
        if k <= self.top_k {
            self.top_words[z][..k.min(self.top_words[z].len())].to_vec()
        } else {
            self.model.top_words(z, k)
        }
    }

    /// Top-`k` `(topic, probability)` of community `c`'s content
    /// profile — precomputed for `k <= top_k`.
    pub fn top_topics_of_community(&self, c: usize, k: usize) -> Vec<(usize, f64)> {
        if k <= self.top_k {
            self.top_topics[c][..k.min(self.top_topics[c].len())].to_vec()
        } else {
            self.model.top_topics_of_community(c, k)
        }
    }

    /// Top-`k` `(topic, strength)` of the directed diffusion pair
    /// `c → c'` (the Fig. 5(c) table) — precomputed for `k <= top_k`.
    pub fn pair_top_topics(&self, c: usize, c2: usize, k: usize) -> Vec<(usize, f64)> {
        let i = c * self.model.n_communities() + c2;
        if k <= self.top_k {
            self.pair_topics[i][..k.min(self.pair_topics[i].len())].to_vec()
        } else {
            self.model.eta.top_topics(c, c2, k)
        }
    }

    /// Membership row `π_u` of a user seen at training time.
    pub fn user_membership(&self, u: UserId) -> &[f64] {
        &self.model.pi[u.index()]
    }

    /// Eq. 3 friendship probability between two trained users.
    pub fn friendship_score(&self, u: UserId, v: UserId) -> f64 {
        membership_link_score(&self.model.pi[u.index()], &self.model.pi[v.index()])
    }

    /// Community-aware diffusion probability that user `u` (trained)
    /// diffuses a document with `words` authored by `v` at time `t` —
    /// Eq. 18 evaluated against the frozen profiles, with `u`'s static
    /// features taken from `features`.
    pub fn diffusion_score(
        &self,
        features: &UserFeatures,
        u: UserId,
        v: UserId,
        words: &[WordId],
        t: u32,
    ) -> f64 {
        crate::foldin::diffusion_score_rows(
            self,
            Some((features, u)),
            &self.model.pi[u.index()],
            v,
            words,
            t,
            Some(features),
        )
    }
}

/// Threads for a build over `phi_cells` φ cells: one per available
/// core, but never fewer than [`MIN_CELLS_PER_THREAD`] cells each.
fn build_threads(phi_cells: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(phi_cells / MIN_CELLS_PER_THREAD).max(1)
}

/// The `t`-th of `threads` contiguous ranges of `0..n` (the same
/// rounding as `chunks(n.div_ceil(threads))`; trailing ranges may be
/// empty).
fn share(n: usize, threads: usize, t: usize) -> Range<usize> {
    let per = n.div_ceil(threads);
    (t * per).min(n)..((t + 1) * per).min(n)
}

/// Fill `out` — the word-major `ln φ` cells of the words from `first`
/// on — one block of [`BLOCK_WORDS`] words at a time, topic by topic
/// within a block.
fn fill_log_phi(phi: &[Vec<f64>], first: usize, out: &mut [f64]) {
    let z_n = phi.len();
    for (b, block) in out.chunks_mut((BLOCK_WORDS * z_n).max(1)).enumerate() {
        let start = first + b * BLOCK_WORDS;
        let end = start + block.len() / z_n;
        for (z, row) in phi.iter().enumerate() {
            for (cell, &p) in block[z..].iter_mut().step_by(z_n).zip(&row[start..end]) {
                *cell = p.max(PHI_FLOOR).ln();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpd_core::{query_topics, rank_communities, Eta};

    fn toy_model() -> (CpdModel, CpdConfig) {
        let counts = vec![
            10.0, 1.0, 0.5, 2.0, //
            1.0, 0.2, 0.1, 10.0,
        ];
        let model = CpdModel {
            pi: vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.5, 0.5]],
            theta: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            phi: vec![vec![0.7, 0.2, 0.1], vec![0.1, 0.1, 0.8]],
            eta: Eta::from_counts(2, 2, &counts, 0.01),
            nu: vec![0.1; cpd_core::features::N_FEATURES],
            topic_popularity: vec![vec![0.5, 0.5]],
            doc_community: vec![],
            doc_topic: vec![],
        };
        (model, CpdConfig::new(2, 2))
    }

    #[test]
    fn index_matches_dense_scan_on_toy_model() {
        let (model, cfg) = toy_model();
        let idx = ProfileIndex::build(model.clone(), &cfg);
        for query in [
            vec![WordId(0)],
            vec![WordId(2), WordId(2)],
            vec![WordId(0), WordId(1), WordId(2)],
        ] {
            assert_eq!(
                idx.rank_communities(&query),
                rank_communities(&model, &query)
            );
            assert_eq!(idx.query_topics(&query), query_topics(&model, &query));
        }
    }

    #[test]
    fn top_k_tables_match_model_sorters() {
        let (model, cfg) = toy_model();
        let idx = ProfileIndex::build_with_top_k(model.clone(), &cfg, 2);
        assert_eq!(idx.top_words(0, 2), model.top_words(0, 2));
        assert_eq!(idx.top_words(0, 1), model.top_words(0, 1));
        // k beyond the table: exact dense fallback.
        assert_eq!(idx.top_words(0, 3), model.top_words(0, 3));
        assert_eq!(
            idx.top_topics_of_community(1, 2),
            model.top_topics_of_community(1, 2)
        );
        assert_eq!(idx.pair_top_topics(0, 1, 2), model.eta.top_topics(0, 1, 2));
    }

    #[test]
    fn friendship_score_matches_membership_dot() {
        let (model, cfg) = toy_model();
        let idx = ProfileIndex::build(model.clone(), &cfg);
        let want = membership_link_score(&model.pi[0], &model.pi[1]);
        assert_eq!(idx.friendship_score(UserId(0), UserId(1)), want);
    }

    /// A model with repeated φ and η values (ties for the top-k reads)
    /// and zero φ cells (the log floor), of any shape.
    fn patterned_model(c_n: usize, z_n: usize, v_n: usize) -> (CpdModel, CpdConfig) {
        let phi = (0..z_n)
            .map(|z| {
                (0..v_n)
                    .map(|w| ((z * 31 + w * 17) % 13) as f64 / 13.0)
                    .collect()
            })
            .collect();
        let counts: Vec<f64> = (0..c_n * c_n * z_n).map(|i| (i % 5) as f64).collect();
        let model = CpdModel {
            pi: vec![vec![1.0 / c_n as f64; c_n]],
            theta: vec![vec![1.0 / z_n as f64; z_n]; c_n],
            phi,
            eta: Eta::from_counts(c_n, z_n, &counts, 0.01),
            nu: vec![0.1; cpd_core::features::N_FEATURES],
            topic_popularity: vec![vec![1.0; z_n]],
            doc_community: vec![],
            doc_topic: vec![],
        };
        (model, CpdConfig::new(c_n, z_n))
    }

    fn row_bits(rows: &TopRows) -> Vec<Vec<(usize, u64)>> {
        rows.iter()
            .map(|row| row.iter().map(|&(i, x)| (i, x.to_bits())).collect())
            .collect()
    }

    #[test]
    fn every_split_builds_the_same_index() {
        // Vocabularies off the block and off every split, one smaller
        // than the thread count, and none at all.
        for (c_n, z_n, v_n) in [(2, 3, 3 * BLOCK_WORDS + 5), (3, 2, 2), (2, 4, 0)] {
            let (model, cfg) = patterned_model(c_n, z_n, v_n);
            let one = ProfileIndex::build_split(model.clone(), &cfg, 4, 1);
            for threads in 2..=5 {
                let split = ProfileIndex::build_split(model.clone(), &cfg, 4, threads);
                let what = format!("{c_n}x{z_n}x{v_n} over {threads} threads");
                let log_phi_bits = |idx: &ProfileIndex| -> Vec<u64> {
                    idx.word_log_phi.iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(log_phi_bits(&split), log_phi_bits(&one), "{what}");
                assert_eq!(
                    row_bits(&split.top_words),
                    row_bits(&one.top_words),
                    "{what}"
                );
                assert_eq!(
                    row_bits(&split.pair_topics),
                    row_bits(&one.pair_topics),
                    "{what}"
                );
                assert_eq!(split.top_words.len(), z_n, "{what}");
                assert_eq!(split.pair_topics.len(), c_n * c_n, "{what}");
            }
        }
    }

    #[test]
    fn small_models_build_on_the_calling_thread() {
        // The 8 × 8 × 2,000 smoke shape, and anything with fewer cells
        // than one thread's minimum, spawns no helper.
        assert_eq!(build_threads(8 * 2_000), 1);
        assert_eq!(build_threads(MIN_CELLS_PER_THREAD - 1), 1);
        assert_eq!(build_threads(0), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(build_threads(50 * 60_000), cores.min(45));
    }
}
