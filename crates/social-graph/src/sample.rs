//! Random subsampling of a graph, used by the scalability experiment
//! (Fig. 10(a): per-iteration training time vs. dataset fraction `p`).
//!
//! Following the paper, a fraction `p` of the documents, friendship links
//! and diffusion links is sampled; diffusion links additionally require
//! both endpoint documents to survive.

use crate::document::Document;
use crate::graph::{DiffusionLink, FriendshipLink, SocialGraph};
use cpd_prob::rng::seeded_rng;
use rand::Rng;

/// Sample a `frac ∈ (0, 1]` sub-graph of `g`, deterministically from
/// `seed`. Users and vocabulary are kept as-is (ids stay stable); document
/// ids are remapped densely.
pub fn subsample(g: &SocialGraph, frac: f64, seed: u64) -> SocialGraph {
    assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0, 1]");
    let mut rng = seeded_rng(seed);

    // Documents.
    let mut doc_map: Vec<Option<u32>> = vec![None; g.n_docs()];
    let mut docs: Vec<Document> = Vec::with_capacity((g.n_docs() as f64 * frac) as usize + 1);
    for (i, d) in g.docs().iter().enumerate() {
        if frac >= 1.0 || rng.gen::<f64>() < frac {
            doc_map[i] = Some(docs.len() as u32);
            docs.push(d.clone());
        }
    }

    // Friendship links.
    let friendships: Vec<FriendshipLink> = g
        .friendships()
        .iter()
        .filter(|_| frac >= 1.0 || rng.gen::<f64>() < frac)
        .copied()
        .collect();

    // Diffusion links: endpoints must survive, then thin by `frac`.
    let diffusions: Vec<DiffusionLink> = g
        .diffusions()
        .iter()
        .filter_map(|l| {
            let src = doc_map[l.src.index()]?;
            let dst = doc_map[l.dst.index()]?;
            if frac >= 1.0 || rng.gen::<f64>() < frac {
                Some(DiffusionLink {
                    src: crate::ids::DocId(src),
                    dst: crate::ids::DocId(dst),
                    at: l.at,
                })
            } else {
                None
            }
        })
        .collect();

    SocialGraph::assemble(g.n_users(), g.vocab_size(), docs, friendships, diffusions)
        .expect("a sample of a valid graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SocialGraphBuilder;
    use crate::ids::{UserId, WordId};

    fn grid_graph(n_users: usize, docs_per_user: usize) -> SocialGraph {
        let mut b = SocialGraphBuilder::new(n_users, 10);
        for u in 0..n_users {
            for i in 0..docs_per_user {
                b.add_document(Document::new(
                    UserId(u as u32),
                    vec![WordId((i % 10) as u32)],
                    i as u32,
                ));
            }
        }
        for u in 0..n_users - 1 {
            b.add_friendship(UserId(u as u32), UserId(u as u32 + 1));
        }
        let n_docs = b.n_docs();
        for i in 0..n_docs - 1 {
            b.add_diffusion(
                crate::ids::DocId(i as u32 + 1),
                crate::ids::DocId(i as u32),
                1,
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn full_fraction_is_identity_in_counts() {
        let g = grid_graph(20, 5);
        let s = subsample(&g, 1.0, 7);
        assert_eq!(s.n_docs(), g.n_docs());
        assert_eq!(s.friendships().len(), g.friendships().len());
        assert_eq!(s.diffusions().len(), g.diffusions().len());
    }

    #[test]
    fn half_fraction_roughly_halves() {
        let g = grid_graph(100, 10);
        let s = subsample(&g, 0.5, 7);
        let ratio = s.n_docs() as f64 / g.n_docs() as f64;
        assert!((0.4..0.6).contains(&ratio), "doc ratio {ratio}");
        // Diffusion links suffer endpoint loss on top of thinning.
        assert!(s.diffusions().len() < g.diffusions().len() / 2);
        // All diffusion endpoints must be valid in the new graph.
        for l in s.diffusions() {
            assert!(l.src.index() < s.n_docs());
            assert!(l.dst.index() < s.n_docs());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = grid_graph(50, 4);
        let a = subsample(&g, 0.3, 99);
        let b = subsample(&g, 0.3, 99);
        assert_eq!(a.n_docs(), b.n_docs());
        assert_eq!(a.diffusions().len(), b.diffusions().len());
    }
}
