//! Index-vs-dense oracle: on a fitted generated corpus, every
//! [`ProfileIndex`] query must return the **same answers** as the
//! dense-scan reference implementations in `cpd_core::apps` — same
//! ordering, scores within 1e-12 (in practice bit-identical, because
//! the two paths share one numeric pipeline). Link scores are held to
//! bit equality.

use cpd_core::{
    query_topics, rank_communities, Cpd, CpdConfig, CpdModel, DiffusionPredictor, UserFeatures,
};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_prob::rng::seeded_rng;
use cpd_serve::ProfileIndex;
use rand::Rng;
use social_graph::{DocId, UserId, WordId};

fn fitted() -> (CpdModel, CpdConfig, usize) {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 3,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 99,
        ..CpdConfig::experiment(4, 6)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    (fit.model, cfg, g.vocab_size())
}

fn test_queries(vocab: usize) -> Vec<Vec<WordId>> {
    let mut queries: Vec<Vec<WordId>> =
        (0..vocab.min(24)).map(|w| vec![WordId(w as u32)]).collect();
    // Multi-word and repeated-word queries stress the log-affinity
    // accumulation and the log-sum-exp shift.
    queries.push(vec![WordId(0), WordId(1), WordId(2)]);
    queries.push(vec![WordId(3); 5]);
    queries.push(
        (0..vocab.min(40))
            .map(|w| WordId(w as u32))
            .collect::<Vec<_>>(),
    );
    queries
}

fn assert_rankings_match(dense: &[(usize, f64)], indexed: &[(usize, f64)], what: &str) {
    assert_eq!(dense.len(), indexed.len(), "{what}: length");
    for (i, (d, x)) in dense.iter().zip(indexed).enumerate() {
        assert_eq!(d.0, x.0, "{what}: ordering diverged at position {i}");
        assert!(
            (d.1 - x.1).abs() <= 1e-12,
            "{what}: score at position {i}: dense {} vs index {}",
            d.1,
            x.1
        );
    }
}

#[test]
fn index_ranking_matches_dense_scan() {
    let (model, cfg, vocab) = fitted();
    let index = ProfileIndex::build(model.clone(), &cfg);
    for query in test_queries(vocab) {
        assert_rankings_match(
            &rank_communities(&model, &query),
            &index.rank_communities(&query),
            "rank_communities",
        );
        assert_rankings_match(
            &query_topics(&model, &query),
            &index.query_topics(&query),
            "query_topics",
        );
    }
}

#[test]
fn index_top_k_tables_match_dense_sorts() {
    let (model, cfg, _) = fitted();
    let index = ProfileIndex::build_with_top_k(model.clone(), &cfg, 10);
    for z in 0..model.n_topics() {
        for k in [1, 5, 10] {
            assert_eq!(
                index.top_words(z, k),
                model.top_words(z, k),
                "topic {z} k {k}"
            );
        }
        // Beyond the precomputed width: exact dense fallback.
        assert_eq!(index.top_words(z, 25), model.top_words(z, 25));
    }
    for c in 0..model.n_communities() {
        assert_eq!(
            index.top_topics_of_community(c, 6),
            model.top_topics_of_community(c, 6)
        );
        for c2 in 0..model.n_communities() {
            assert_eq!(
                index.pair_top_topics(c, c2, 6),
                model.eta.top_topics(c, c2, 6)
            );
        }
    }
}

#[test]
fn index_link_scores_match_predictor_math() {
    let (model, cfg, _) = fitted();
    let index = ProfileIndex::build(model.clone(), &cfg);
    for (u, v) in [(0u32, 1u32), (2, 3), (5, 0)] {
        let want = cpd_core::membership_link_score(&model.pi[u as usize], &model.pi[v as usize]);
        assert_eq!(
            index.friendship_score(social_graph::UserId(u), social_graph::UserId(v)),
            want
        );
    }
}

/// `ProfileIndex::diffusion_score` answers exactly what
/// `DiffusionPredictor::score` answers (Eq. 18), for every diffusion
/// link of the fitted corpus and for random (user, document, time)
/// triples, under the full model and each ablation that changes the
/// diffusion factor. A faster serving kernel for Eq. 4 must keep this.
#[test]
fn index_diffusion_scores_match_predictor() {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let features = UserFeatures::compute(&g);
    let base = CpdConfig {
        em_iters: 3,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 99,
        ..CpdConfig::experiment(4, 6)
    };
    let mut rng = seeded_rng(7);
    let random: Vec<(UserId, DocId, u32)> = (0..200)
        .map(|_| {
            (
                UserId(rng.gen_range(0..g.n_users() as u32)),
                DocId(rng.gen_range(0..g.n_docs() as u32)),
                rng.gen_range(0..g.n_timestamps()),
            )
        })
        .collect();
    let observed = g
        .diffusions()
        .iter()
        .map(|l| (g.doc(l.src).author, l.dst, l.at));
    let triples: Vec<_> = observed.chain(random).collect();
    for (name, cfg) in [
        ("full", base.clone()),
        ("no_topic_factor", base.clone().no_topic_factor()),
        (
            "no_individual_and_topic",
            base.clone().no_individual_and_topic(),
        ),
        ("no_heterogeneity", base.clone().no_heterogeneity()),
    ] {
        let model = Cpd::new(cfg.clone()).unwrap().fit(&g).model;
        let predictor = DiffusionPredictor::new(&model, &features, &cfg);
        let index = ProfileIndex::build(model.clone(), &cfg);
        for &(u, dst, t) in &triples {
            let doc = g.doc(dst);
            assert_eq!(
                index.diffusion_score(&features, u, doc.author, &doc.words, t),
                predictor.score(&g, u, dst, t),
                "{name}: u {} doc {} t {t}",
                u.index(),
                dst.index()
            );
        }
    }
}
