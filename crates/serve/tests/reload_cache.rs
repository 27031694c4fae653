//! Hot-reload and fold-in-cache contracts: a snapshot swap under
//! concurrent query load never mixes generations inside a batch, and
//! the cache returns byte-identical profiles until the generation
//! moves.

use cpd_core::{io::save_model, Cpd, CpdConfig, UserFeatures};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_serve::{
    FoldIn, FoldInItem, FoldScratch, ProfileIndex, QueryRequest, QueryResponse, ServeOptions,
    ServeRuntime,
};
use social_graph::{Document, SocialGraphBuilder, UserId, WordId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fit_index(seed: u64) -> (Arc<ProfileIndex>, CpdConfig) {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 5,
        seed,
        ..CpdConfig::experiment(3, 4)
    };
    let fit = Cpd::new(cfg.clone()).unwrap().fit(&g);
    (Arc::new(ProfileIndex::build(fit.model, &cfg)), cfg)
}

/// The probe batch: two queries whose answers are both functions of the
/// snapshot, so a mixed-generation batch would be visible.
fn probe_batch() -> Vec<QueryRequest> {
    let q = vec![WordId(0), WordId(1), WordId(2)];
    vec![
        QueryRequest::RankCommunities { query: q.clone() },
        QueryRequest::QueryTopics { query: q },
    ]
}

/// The answers `index` gives to [`probe_batch`].
fn probe_oracle(index: &ProfileIndex) -> Vec<QueryResponse> {
    let q = vec![WordId(0), WordId(1), WordId(2)];
    vec![
        QueryResponse::Ranking(index.rank_communities(&q)),
        QueryResponse::Ranking(index.query_topics(&q)),
    ]
}

#[test]
fn swap_under_concurrent_load_keeps_batches_generation_consistent() {
    let (index_a, _) = fit_index(11);
    let (index_b, _) = fit_index(5040);
    let oracle_a = probe_oracle(&index_a);
    let oracle_b = probe_oracle(&index_b);
    // Different fits must disagree on the probe, or the test is vacuous.
    assert_ne!(oracle_a, oracle_b, "fits too similar to distinguish");

    let runtime = Arc::new(
        ServeRuntime::new(
            Arc::clone(&index_a),
            None,
            ServeOptions {
                workers: 4,
                ..ServeOptions::default()
            },
        )
        .unwrap(),
    );

    // Hammer the runtime from three submitter threads while the swap
    // lands; every batch must equal *one* snapshot's answers in full —
    // a batch straddling the swap finishes on the generation it
    // resolved at submit time.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let runtime = Arc::clone(&runtime);
            let stop = Arc::clone(&stop);
            let oracle_a = oracle_a.clone();
            let oracle_b = oracle_b.clone();
            std::thread::spawn(move || {
                let mut batches = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let got = runtime.submit_batch(probe_batch());
                    assert!(
                        got == oracle_a || got == oracle_b,
                        "batch answers mixed generations (or matched neither snapshot)"
                    );
                    batches += 1;
                }
                batches
            })
        })
        .collect();

    // Let the hammers run on generation 1, then swap.
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(runtime.generation(), 1);
    let generation = runtime.swap_index(Arc::clone(&index_b));
    assert_eq!(generation, 2);
    // Any batch submitted from now on answers on the new snapshot.
    assert_eq!(runtime.submit_batch(probe_batch()), oracle_b);
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "hammer threads never got a batch through");

    let d = Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("all hammers joined"))
        .shutdown();
    assert_eq!(d.generation, 2);
    assert!(d.queue_high_water >= 1, "enqueued jobs must register");
}

#[test]
fn reload_from_snapshot_file_matches_fresh_index() {
    let (index_a, _) = fit_index(7);
    let (index_b, cfg_b) = fit_index(7700);
    let dir = std::env::temp_dir().join("cpd-serve-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("next.cpd");
    save_model(index_b.model(), &path).unwrap();

    let runtime = ServeRuntime::new(index_a, None, ServeOptions::default()).unwrap();
    let generation = runtime.reload(&path).unwrap();
    assert_eq!(generation, 2);
    assert_eq!(runtime.generation(), 2);

    // The reloaded runtime answers like an index built directly from
    // the file (the snapshot round-trips every parameter bit for bit;
    // tests/roundtrip.rs pins that against the pre-save model).
    let reloaded = runtime.index();
    let fresh = ProfileIndex::build(cpd_core::io::load_model(&path).unwrap(), &cfg_b);
    let q = vec![WordId(0), WordId(3)];
    assert_eq!(reloaded.rank_communities(&q), fresh.rank_communities(&q));
    assert_eq!(reloaded.query_topics(&q), fresh.query_topics(&q));
    assert_eq!(reloaded.top_words(0, 8), fresh.top_words(0, 8));

    // A missing file fails loudly — naming the path — and leaves the
    // live snapshot untouched.
    let missing = dir.join("missing.cpd");
    let err = runtime.reload(&missing).unwrap_err();
    assert!(err.contains("missing.cpd"), "{err}");
    assert_eq!(runtime.generation(), 2);

    // A snapshot with a different (|C|, |Z|) shape is rejected — the
    // retained config's priors would be silently wrong for it — and
    // the live generation is untouched.
    let mismatched = dir.join("mismatched.cpd");
    let model = cpd_core::CpdModel {
        pi: vec![vec![0.5, 0.5]],
        theta: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        phi: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        eta: cpd_core::Eta::uniform(2, 2),
        nu: vec![0.0; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![0.5, 0.5]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    save_model(&model, &mismatched).unwrap();
    let err = runtime.reload(&mismatched).unwrap_err();
    assert!(err.contains("2x2"), "{err}");
    assert!(err.contains("rejected"), "{err}");
    assert_eq!(runtime.generation(), 2);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&mismatched).ok();
}

#[test]
fn cache_hits_are_byte_identical_to_recompute_and_die_with_the_generation() {
    let (index, _) = fit_index(23);
    let runtime = ServeRuntime::new(
        Arc::clone(&index),
        None,
        ServeOptions {
            workers: 2,
            fold_cache_capacity: 64,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let item = FoldInItem::user(
        vec![vec![WordId(0), WordId(2), WordId(4)], vec![WordId(1)]],
        vec![UserId(0), UserId(3)],
    );
    let request = QueryRequest::FoldIn {
        item: item.clone(),
        seed: 99,
    };

    // Miss, then hit: the cached answer must be byte-for-byte the
    // profile the Gibbs chain produced...
    let first = runtime.submit_batch(vec![request.clone()]);
    let second = runtime.submit_batch(vec![request.clone()]);
    assert_eq!(first, second);
    let d = runtime.diagnostics();
    assert_eq!(d.cache.misses, 1);
    assert_eq!(d.cache.hits, 1);
    assert_eq!(d.cache.entries, 1);

    // ...and equal to a direct engine recompute outside the runtime.
    let engine = FoldIn::new(&index, ServeOptions::default().fold_in).unwrap();
    let direct = engine.profile_with_seed(&item, 99, &mut FoldScratch::new());
    match &first[0] {
        QueryResponse::FoldedIn(p) => assert_eq!(p.as_ref(), &direct),
        other => panic!("unexpected response {other:?}"),
    }

    // A different seed is a different key.
    let other_seed = runtime.submit_batch(vec![QueryRequest::FoldIn {
        item: item.clone(),
        seed: 100,
    }]);
    assert_ne!(first, other_seed);
    assert_eq!(runtime.diagnostics().cache.misses, 2);

    // A snapshot swap (here: to the same model, fresh index) bumps the
    // generation, so the exact same request misses and recomputes —
    // to the same answer, since the model is identical.
    let generation = runtime.swap_index(Arc::new(ProfileIndex::build(
        index.model().clone(),
        index.config(),
    )));
    assert_eq!(generation, 2);
    let after_swap = runtime.submit_batch(vec![request]);
    assert_eq!(after_swap, first, "same model ⇒ same fold-in profile");
    let d = runtime.shutdown();
    assert_eq!(
        d.cache.hits, 1,
        "post-swap request cannot hit gen-1 entries"
    );
    assert_eq!(d.cache.misses, 3);
    assert_eq!(d.fold_in.queries, 4);
}

#[test]
fn zero_capacity_disables_the_cache_entirely() {
    let (index, _) = fit_index(31);
    let runtime = ServeRuntime::new(
        index,
        None,
        ServeOptions {
            workers: 1,
            fold_cache_capacity: 0,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let request = QueryRequest::FoldIn {
        item: FoldInItem::doc(vec![WordId(0), WordId(1)]),
        seed: 5,
    };
    let a = runtime.submit_batch(vec![request.clone()]);
    let b = runtime.submit_batch(vec![request]);
    // Determinism comes from the seed, not the cache.
    assert_eq!(a, b);
    let d = runtime.shutdown();
    assert_eq!(d.cache, cpd_serve::CacheStats::default());
}

/// Diffusion features computed from a 2-user graph.
fn two_user_features() -> Arc<UserFeatures> {
    let mut b = SocialGraphBuilder::new(2, 4);
    let d0 = b.add_document(Document::new(UserId(0), vec![WordId(0), WordId(1)], 0));
    let d1 = b.add_document(Document::new(UserId(1), vec![WordId(2)], 1));
    b.add_friendship(UserId(0), UserId(1));
    b.add_diffusion(d1, d0, 1);
    Arc::new(UserFeatures::compute(&b.build().unwrap()))
}

fn diffusion_query(u: u32, v: u32) -> QueryRequest {
    QueryRequest::DiffusionScore {
        u: UserId(u),
        v: UserId(v),
        words: vec![WordId(0), WordId(2)],
        at: 0,
    }
}

/// The answer is a typed error naming `user` and the 2 covered users —
/// not a caught panic.
fn assert_uncovered(answer: &QueryResponse, user: u32) {
    match answer {
        QueryResponse::Error(e) => {
            assert!(
                e.contains(&format!("user {user} ")),
                "error does not name user {user}: {e}"
            );
            assert!(e.contains("2 users covered"), "{e}");
            assert!(!e.contains("panicked"), "{e}");
        }
        other => panic!("expected a typed error for user {user}, got {other:?}"),
    }
}

/// A `DiffusionScore` for a trained user the runtime's `UserFeatures`
/// do not cover is a typed error, on a fresh runtime and after a hot
/// reload to a model with more users than the features cover; covered
/// users keep scoring.
#[test]
fn diffusion_score_outside_feature_coverage_is_a_typed_error() {
    let (index, cfg) = fit_index(41);
    assert_eq!(index.model().pi.len(), 120);

    // Fresh runtime: a 120-user model served with 2-user features.
    let runtime = ServeRuntime::new(
        Arc::clone(&index),
        Some(two_user_features()),
        ServeOptions::default(),
    )
    .unwrap();
    let answers = runtime.submit_batch(vec![
        diffusion_query(0, 1),
        diffusion_query(119, 0),
        diffusion_query(1, 119),
    ]);
    assert!(matches!(answers[0], QueryResponse::Score(_)), "{answers:?}");
    assert_uncovered(&answers[1], 119);
    assert_uncovered(&answers[2], 119);
    runtime.shutdown();

    // Reload: the runtime starts on a 2-user model its features cover,
    // then a hot reload brings in the 120-user model.
    let mut small = index.model().clone();
    small.pi.truncate(2);
    let runtime = ServeRuntime::new(
        Arc::new(ProfileIndex::build(small, &cfg)),
        Some(two_user_features()),
        ServeOptions::default(),
    )
    .unwrap();
    let before = runtime.submit_batch(vec![diffusion_query(1, 0), diffusion_query(5, 0)]);
    assert!(matches!(before[0], QueryResponse::Score(_)), "{before:?}");
    assert!(
        matches!(&before[1], QueryResponse::Error(e) if e.contains("2 trained users")),
        "{before:?}"
    );
    let dir = std::env::temp_dir().join("cpd-serve-feature-coverage-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("larger.cpd");
    save_model(index.model(), &path).unwrap();
    assert_eq!(runtime.reload(&path).unwrap(), 2);
    let after = runtime.submit_batch(vec![diffusion_query(1, 0), diffusion_query(5, 0)]);
    assert!(matches!(after[0], QueryResponse::Score(_)), "{after:?}");
    assert_uncovered(&after[1], 5);
    runtime.shutdown();
    std::fs::remove_file(&path).ok();
}
