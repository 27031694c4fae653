//! The deployment path end to end: fit offline → crash-safe save →
//! load in a fresh "server" → build the index → serve a query batch —
//! and every answer matches an index built from the pre-save model.

use cpd_core::{
    io::{load_model, save_model},
    Cpd, CpdConfig,
};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_serve::{
    FoldInItem, ProfileIndex, QueryRequest, QueryResponse, ServeOptions, ServeRuntime,
};
use social_graph::{UserId, WordId};
use std::sync::Arc;

#[test]
fn save_load_index_query_round_trip_matches_pre_save_model() {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 3,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 21,
        ..CpdConfig::experiment(4, 6)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);

    // Offline process: snapshot the model.
    let dir = std::env::temp_dir().join("cpd-serve-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.cpd");
    save_model(&fit.model, &path).unwrap();

    // Serving process: load and index. The snapshot stores every
    // parameter's raw bits, `η` included, so every answer — η-backed
    // rankings too — is identical before and after the round trip.
    let loaded = load_model(&path).unwrap();
    let index_pre = ProfileIndex::build(fit.model, &cfg);
    let index_post = ProfileIndex::build(loaded, &cfg);

    for w in 0..g.vocab_size().min(12) {
        let q = vec![WordId(w as u32)];
        assert_eq!(
            index_pre.rank_communities(&q),
            index_post.rank_communities(&q),
            "word {w}"
        );
        assert_eq!(index_pre.query_topics(&q), index_post.query_topics(&q));
    }
    for z in 0..index_pre.n_topics() {
        assert_eq!(index_pre.top_words(z, 10), index_post.top_words(z, 10));
    }
    for c in 0..index_pre.n_communities() {
        assert_eq!(
            index_pre.top_topics_of_community(c, 10),
            index_post.top_topics_of_community(c, 10)
        );
        for c2 in 0..index_pre.n_communities() {
            assert_eq!(
                index_pre.pair_top_topics(c, c2, 10),
                index_post.pair_top_topics(c, c2, 10)
            );
        }
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn runtime_batch_answers_match_direct_index_calls() {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 8,
        ..CpdConfig::experiment(3, 4)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let features = Arc::new(cpd_core::UserFeatures::compute(&g));
    let index = Arc::new(ProfileIndex::build(fit.model, &cfg));
    let runtime = ServeRuntime::new(
        Arc::clone(&index),
        Some(Arc::clone(&features)),
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();

    let query = vec![WordId(0), WordId(1)];
    let doc_words = g.docs()[0].words.clone();
    let batch = vec![
        QueryRequest::RankCommunities {
            query: query.clone(),
        },
        QueryRequest::QueryTopics {
            query: query.clone(),
        },
        QueryRequest::TopWords { topic: 1, k: 5 },
        QueryRequest::CommunityTopics { community: 2, k: 3 },
        QueryRequest::PairTopics {
            from: 0,
            to: 1,
            k: 3,
        },
        QueryRequest::UserProfile { user: UserId(3) },
        QueryRequest::FriendshipScore {
            u: UserId(0),
            v: UserId(1),
        },
        QueryRequest::DiffusionScore {
            u: UserId(1),
            v: g.docs()[0].author,
            words: doc_words.clone(),
            at: 0,
        },
        QueryRequest::FoldIn {
            item: FoldInItem::doc(doc_words.clone()),
            seed: 17,
        },
    ];
    let responses = runtime.submit_batch(batch.clone());
    assert_eq!(responses.len(), 9);

    match &responses[0] {
        QueryResponse::Ranking(r) => assert_eq!(r, &index.rank_communities(&query)),
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[1] {
        QueryResponse::Ranking(r) => assert_eq!(r, &index.query_topics(&query)),
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[2] {
        QueryResponse::Ranking(r) => assert_eq!(r, &index.top_words(1, 5)),
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[3] {
        QueryResponse::Ranking(r) => assert_eq!(r, &index.top_topics_of_community(2, 3)),
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[4] {
        QueryResponse::Ranking(r) => assert_eq!(r, &index.pair_top_topics(0, 1, 3)),
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[5] {
        QueryResponse::Profile { membership, .. } => {
            assert_eq!(membership, index.user_membership(UserId(3)))
        }
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[6] {
        QueryResponse::Score(s) => {
            assert_eq!(*s, index.friendship_score(UserId(0), UserId(1)))
        }
        other => panic!("unexpected response {other:?}"),
    }
    match &responses[7] {
        QueryResponse::Score(s) => assert_eq!(
            *s,
            index.diffusion_score(&features, UserId(1), g.docs()[0].author, &doc_words, 0)
        ),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(matches!(&responses[8], QueryResponse::FoldedIn(_)));

    // Per-request seeds make fold-in answers worker-independent: the
    // same batch through a different pool shape gives identical
    // profiles.
    let runtime1 = ServeRuntime::new(
        Arc::clone(&index),
        Some(features),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let again = runtime1.submit_batch(batch);
    match (&responses[8], &again[8]) {
        (QueryResponse::FoldedIn(a), QueryResponse::FoldedIn(b)) => {
            assert_eq!(a.membership, b.membership);
            assert_eq!(a.topics, b.topics);
        }
        other => panic!("unexpected responses {other:?}"),
    }

    // Counters saw one query per class bucket.
    let d = runtime.diagnostics();
    assert_eq!(d.workers, 4);
    assert_eq!(d.batches, 1);
    assert_eq!(d.ranking.queries, 2);
    assert_eq!(d.top_words.queries, 3);
    assert_eq!(d.profile.queries, 1);
    assert_eq!(d.fold_in.queries, 1);
    assert_eq!(d.link_score.queries, 2);
    assert_eq!(d.total_queries(), 9);

    runtime.shutdown();
    runtime1.shutdown();
}

#[test]
fn malformed_requests_come_back_as_errors_not_panics() {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 1,
        gibbs_sweeps: 1,
        nu_iters: 5,
        seed: 4,
        ..CpdConfig::experiment(3, 4)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let index = Arc::new(ProfileIndex::build(fit.model, &cfg));
    // No UserFeatures: diffusion scoring is unavailable.
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let responses = runtime.submit_batch(vec![
        QueryRequest::TopWords { topic: 999, k: 5 },
        QueryRequest::UserProfile {
            user: UserId(u32::MAX),
        },
        QueryRequest::RankCommunities {
            query: vec![WordId(u32::MAX - 1)],
        },
        QueryRequest::DiffusionScore {
            u: UserId(0),
            v: UserId(1),
            words: vec![WordId(0)],
            at: 0,
        },
        QueryRequest::TopWords { topic: 0, k: 5 },
    ]);
    assert!(matches!(responses[0], QueryResponse::Error(_)));
    assert!(matches!(responses[1], QueryResponse::Error(_)));
    assert!(matches!(responses[2], QueryResponse::Error(_)));
    assert!(matches!(responses[3], QueryResponse::Error(_)));
    // The pool survives and still answers the valid request.
    assert!(matches!(&responses[4], QueryResponse::Ranking(r) if r.len() == 5));
}

/// Even a query that *panics* (NaNs smuggled into a hand-built model —
/// `load_model` would reject them, but the API takes any `CpdModel`)
/// must come back as an `Error` response, not poison the pool.
#[test]
fn panicking_query_does_not_poison_the_pool() {
    use cpd_core::{CpdModel, Eta};
    let mut model = CpdModel {
        pi: vec![vec![0.5, 0.5], vec![f64::NAN, f64::NAN]],
        theta: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        phi: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        eta: Eta::uniform(2, 2),
        nu: vec![0.0; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![0.5, 0.5]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    model.pi[1][0] = f64::NAN;
    let cfg = CpdConfig::new(2, 2);
    let index = Arc::new(ProfileIndex::build(model, &cfg));
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    // UserProfile on the NaN row panics inside its max_by comparator;
    // the next request drains through the same (sole) worker.
    let responses = runtime.submit_batch(vec![
        QueryRequest::UserProfile { user: UserId(1) },
        QueryRequest::TopWords { topic: 0, k: 2 },
    ]);
    assert!(
        matches!(&responses[0], QueryResponse::Error(e) if e.contains("panicked")),
        "{:?}",
        responses[0]
    );
    assert!(matches!(&responses[1], QueryResponse::Ranking(r) if r.len() == 2));
}
