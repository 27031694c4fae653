//! Static per-user diffusion features (Sect. 3.1, "Individual
//! preference"): popularity (followers vs. followees) and activeness
//! (diffusing documents vs. documents), plus the per-link feature vector
//! layout used by the logistic factor `νᵀ x_e` of Eq. 5.

use social_graph::{SocialGraph, UserId};

/// Number of entries in the per-link feature vector.
pub const N_FEATURES: usize = 7;
/// Feature index: intercept.
pub const F_BIAS: usize = 0;
/// Feature index: community-factor feature `ln(1 + s_comm · |C||Z|)`.
pub const F_COMMUNITY: usize = 1;
/// Feature index: diffusing user's popularity.
pub const F_POP_U: usize = 2;
/// Feature index: diffusing user's activeness.
pub const F_ACT_U: usize = 3;
/// Feature index: source user's popularity.
pub const F_POP_V: usize = 4;
/// Feature index: source user's activeness.
pub const F_ACT_V: usize = 5;
/// Feature index: topic popularity at the diffusion time.
pub const F_TOPIC_POP: usize = 6;

/// Per-user static features.
#[derive(Debug, Clone)]
pub struct UserFeatures {
    popularity: Vec<f64>,
    activeness: Vec<f64>,
}

impl UserFeatures {
    /// Compute features from the training graph.
    ///
    /// * popularity — `ln((1 + followers) / (1 + followees))`, the
    ///   log-scaled version of the paper's follower/followee ratio
    ///   (log keeps the logistic regression well-conditioned);
    /// * activeness — fraction of the user's documents that diffuse
    ///   another document (the paper's retweets/tweets ratio).
    pub fn compute(graph: &SocialGraph) -> Self {
        let n = graph.n_users();
        let mut diffusing_docs = vec![0u32; n];
        for link in graph.diffusions() {
            let author = graph.doc(link.src).author;
            diffusing_docs[author.index()] += 1;
        }
        let mut popularity = Vec::with_capacity(n);
        let mut activeness = Vec::with_capacity(n);
        for (u, &diffusing) in diffusing_docs.iter().enumerate() {
            let uid = UserId(u as u32);
            let followers = graph.followers(uid) as f64;
            let followees = graph.followees(uid) as f64;
            popularity.push(((1.0 + followers) / (1.0 + followees)).ln());
            let docs = graph.n_docs_of(uid) as f64;
            activeness.push(if docs > 0.0 {
                diffusing as f64 / docs
            } else {
                0.0
            });
        }
        Self {
            popularity,
            activeness,
        }
    }

    /// Number of users the features cover (the users of the graph they
    /// were computed from).
    pub fn n_users(&self) -> usize {
        self.popularity.len()
    }

    /// Popularity of `u`.
    #[inline]
    pub fn popularity(&self, u: UserId) -> f64 {
        self.popularity[u.index()]
    }

    /// Activeness of `u`.
    #[inline]
    pub fn activeness(&self, u: UserId) -> f64 {
        self.activeness[u.index()]
    }

    /// Fill the static entries of a feature vector for a diffusion from
    /// `u` (new document's author) of `v`'s document. The community and
    /// topic-popularity entries are filled by the caller, which owns the
    /// model state; the ablation flags decide whether the individual
    /// entries are active.
    pub fn fill_static(&self, x: &mut [f64; N_FEATURES], u: UserId, v: UserId, individual: bool) {
        x[F_BIAS] = 1.0;
        if individual {
            x[F_POP_U] = self.popularity(u);
            x[F_ACT_U] = self.activeness(u);
            x[F_POP_V] = self.popularity(v);
            x[F_ACT_V] = self.activeness(v);
        } else {
            x[F_POP_U] = 0.0;
            x[F_ACT_U] = 0.0;
            x[F_POP_V] = 0.0;
            x[F_ACT_V] = 0.0;
        }
    }
}

/// The community-factor feature transform: `ln(1 + s_comm · |C||Z|)`.
///
/// `s_comm` (Eq. 4) is an average of `η` probabilities, so its raw scale
/// shrinks with `|C||Z|`; the rescaled log keeps the feature O(1) across
/// sweep configurations so a single learned coefficient can weight it
/// (the paper's "we learn how much each factor contributes").
#[inline]
pub fn community_feature(s_comm: f64, n_communities: usize, n_topics: usize) -> f64 {
    (1.0 + s_comm.max(0.0) * (n_communities * n_topics) as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::{Document, SocialGraphBuilder, WordId};

    fn graph() -> SocialGraph {
        let mut b = SocialGraphBuilder::new(3, 2);
        // user 0: 2 docs, one of which diffuses; 2 followers, 0 followees.
        let d0 = b.add_document(Document::new(UserId(0), vec![WordId(0), WordId(1)], 0));
        let d1 = b.add_document(Document::new(UserId(0), vec![WordId(0)], 1));
        let d2 = b.add_document(Document::new(UserId(1), vec![WordId(1)], 0));
        let _ = d0;
        b.add_friendship(UserId(1), UserId(0));
        b.add_friendship(UserId(2), UserId(0));
        b.add_diffusion(d1, d2, 1);
        b.build().unwrap()
    }

    #[test]
    fn popularity_and_activeness() {
        let f = UserFeatures::compute(&graph());
        // user 0: followers 2, followees 0 -> ln(3).
        assert!((f.popularity(UserId(0)) - 3.0f64.ln()).abs() < 1e-12);
        // user 1: followers 0, followees 1 -> ln(1/2).
        assert!((f.popularity(UserId(1)) - 0.5f64.ln()).abs() < 1e-12);
        // user 0 has 2 docs, 1 diffusing.
        assert!((f.activeness(UserId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(f.activeness(UserId(1)), 0.0);
        // user 2 has no docs.
        assert_eq!(f.activeness(UserId(2)), 0.0);
    }

    #[test]
    fn static_fill_respects_ablation() {
        let f = UserFeatures::compute(&graph());
        let mut x = [0.0; N_FEATURES];
        f.fill_static(&mut x, UserId(0), UserId(1), true);
        assert_eq!(x[F_BIAS], 1.0);
        assert!(x[F_POP_U] != 0.0);
        f.fill_static(&mut x, UserId(0), UserId(1), false);
        assert_eq!(x[F_POP_U], 0.0);
        assert_eq!(x[F_ACT_V], 0.0);
        assert_eq!(x[F_BIAS], 1.0);
    }

    #[test]
    fn community_feature_is_monotone_and_anchored() {
        assert_eq!(community_feature(0.0, 10, 10), 0.0);
        let lo = community_feature(0.001, 10, 10);
        let hi = community_feature(0.01, 10, 10);
        assert!(hi > lo && lo > 0.0);
        // Uniform eta: s_comm = 1/(CZ) -> feature = ln 2.
        let uniform = community_feature(0.01, 10, 10);
        assert!((uniform - 2.0f64.ln()).abs() < 1e-12);
    }
}
