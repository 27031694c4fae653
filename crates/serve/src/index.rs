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

use cpd_core::{
    exp_shift_max, membership_link_score, normalise_and_rank, CpdConfig, CpdModel, UserFeatures,
};
use social_graph::{UserId, WordId};

/// How many entries the presorted top-k tables keep per topic /
/// community / community pair. Requests for more fall back to an exact
/// dense recomputation from the model.
pub const DEFAULT_TOP_K: usize = 20;

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
    pub fn build_with_top_k(model: CpdModel, config: &CpdConfig, top_k: usize) -> Self {
        let c_n = model.n_communities();
        let z_n = model.n_topics();
        let v_n = model.vocab_size();

        // Word-major log-phi posting lists. Same floor+ln as the dense
        // path (`query_log_affinities`), so per-(z, w) values are
        // bit-identical — the query merely reads them in a
        // cache-friendly order.
        let mut word_log_phi = vec![0.0f64; v_n * z_n];
        for (z, row) in model.phi.iter().enumerate() {
            for (w, &p) in row.iter().enumerate() {
                word_log_phi[w * z_n + z] = p.max(cpd_core::apps::ranking::PHI_FLOOR).ln();
            }
        }

        let mut log_theta = vec![0.0f64; c_n * z_n];
        for (c, row) in model.theta.iter().enumerate() {
            for (z, &t) in row.iter().enumerate() {
                log_theta[c * z_n + z] = t.max(cpd_core::apps::ranking::PHI_FLOOR).ln();
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
        let top_words = (0..z_n).map(|z| model.top_words(z, top_k)).collect();
        let top_topics = (0..c_n)
            .map(|c| model.top_topics_of_community(c, top_k))
            .collect();
        let pair_topics = (0..c_n * c_n)
            .map(|i| model.eta.top_topics(i / c_n, i % c_n, top_k))
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
}
