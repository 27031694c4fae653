//! Fold-in behaviour: seed determinism, frozen-model invariance, and
//! posterior sanity on a hand-built model whose communities/topics are
//! unambiguous.

use cpd_core::{io::write_model, CpdConfig, CpdModel, Eta};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_serve::{FoldIn, FoldInConfig, FoldInItem, FoldScratch, ProfileIndex};
use social_graph::{UserId, WordId};

/// Community 0 ⇔ topic 0 ⇔ words {0, 1}; community 1 ⇔ topic 1 ⇔
/// words {3, 4}; word 2 is neutral.
fn separable_model() -> (CpdModel, CpdConfig) {
    let counts = vec![
        10.0, 0.5, 0.5, 0.5, //
        0.5, 0.5, 0.5, 10.0,
    ];
    let model = CpdModel {
        pi: vec![vec![0.95, 0.05], vec![0.05, 0.95], vec![0.5, 0.5]],
        theta: vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        phi: vec![
            vec![0.45, 0.45, 0.06, 0.02, 0.02],
            vec![0.02, 0.02, 0.06, 0.45, 0.45],
        ],
        eta: Eta::from_counts(2, 2, &counts, 0.01),
        nu: vec![0.2; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![0.5, 0.5]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    // Small explicit priors, like the synthetic-scale experiment
    // preset: the paper's `50/|C|`-style defaults assume hundreds of
    // documents per user and would swamp a handful of folded-in docs.
    let cfg = CpdConfig {
        rho: Some(0.1),
        alpha: Some(0.2),
        ..CpdConfig::new(2, 2)
    };
    (model, cfg)
}

#[test]
fn fold_in_is_deterministic_by_seed() {
    let (model, cfg) = separable_model();
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let item = FoldInItem::user(
        vec![vec![WordId(0), WordId(1)], vec![WordId(3), WordId(2)]],
        vec![UserId(0)],
    );
    let mut scratch = FoldScratch::new();
    let a = engine.profile_with_seed(&item, 42, &mut scratch);
    let b = engine.profile_with_seed(&item, 42, &mut scratch);
    assert_eq!(a.membership, b.membership);
    assert_eq!(a.topics, b.topics);
    assert_eq!(a.doc_topics, b.doc_topics);

    // Whole batches are deterministic too.
    let items = vec![item.clone(), FoldInItem::doc(vec![WordId(4)])];
    let batch_a = engine.profile_batch(&items);
    let batch_b = engine.profile_batch(&items);
    for (x, y) in batch_a.iter().zip(&batch_b) {
        assert_eq!(x.membership, y.membership);
        assert_eq!(x.topics, y.topics);
    }

    // A different seed moves the chain (almost surely).
    let c = engine.profile_with_seed(&item, 43, &mut scratch);
    assert!(
        a.membership != c.membership || a.doc_topics != c.doc_topics,
        "different seeds should give different sample paths"
    );
}

#[test]
fn fold_in_recovers_planted_community_and_topic() {
    let (model, cfg) = separable_model();
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut scratch = FoldScratch::new();

    // Pure topic-0 content → community 0, topic 0.
    let p0 = engine.profile_with_seed(
        &FoldInItem::user(vec![vec![WordId(0), WordId(1), WordId(0)]; 3], vec![]),
        7,
        &mut scratch,
    );
    assert_eq!(p0.dominant_community(), 0);
    assert!(p0.topics[0] > 0.8, "topic mixture {:?}", p0.topics);
    assert!(p0.membership[0] > 0.6, "membership {:?}", p0.membership);

    // Pure topic-1 content → community 1, topic 1.
    let p1 = engine.profile_with_seed(
        &FoldInItem::user(vec![vec![WordId(3), WordId(4), WordId(4)]; 3], vec![]),
        7,
        &mut scratch,
    );
    assert_eq!(p1.dominant_community(), 1);
    assert!(p1.topics[1] > 0.8, "topic mixture {:?}", p1.topics);

    // Posteriors are normalised.
    for p in [&p0, &p1] {
        assert!((p.membership.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((p.topics.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for dt in &p.doc_topics {
            assert!((dt.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn friendship_evidence_steers_ambiguous_content() {
    let (model, cfg) = separable_model();
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut scratch = FoldScratch::new();
    // Word 2 is topically neutral; only the friends differ.
    let neutral_docs = vec![vec![WordId(2)]; 2];
    let with_c0_friends = engine.profile_with_seed(
        &FoldInItem::user(neutral_docs.clone(), vec![UserId(0); 4]),
        11,
        &mut scratch,
    );
    let with_c1_friends = engine.profile_with_seed(
        &FoldInItem::user(neutral_docs, vec![UserId(1); 4]),
        11,
        &mut scratch,
    );
    assert!(
        with_c0_friends.membership[0] > with_c1_friends.membership[0],
        "friends in community 0 ({:?}) vs community 1 ({:?})",
        with_c0_friends.membership,
        with_c1_friends.membership
    );
}

#[test]
fn docless_fold_in_still_uses_friendship_evidence() {
    let (model, cfg) = separable_model();
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut scratch = FoldScratch::new();
    // A user known only through links: friends in community 1 must tilt
    // the membership toward 1 (no documents at all).
    let p = engine.profile_with_seed(
        &FoldInItem::user(vec![], vec![UserId(1); 3]),
        1,
        &mut scratch,
    );
    assert!((p.membership.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    assert!(
        p.membership[1] > p.membership[0],
        "membership {:?}",
        p.membership
    );
    // No evidence at all: the uniform prior.
    let empty = engine.profile_with_seed(&FoldInItem::default(), 1, &mut scratch);
    assert_eq!(empty.membership, vec![0.5, 0.5]);
}

#[test]
fn link_scores_flow_through_diffusion_math() {
    let (model, cfg) = separable_model();
    let index = ProfileIndex::build(model.clone(), &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut scratch = FoldScratch::new();
    let profile = engine.profile_with_seed(
        &FoldInItem::user(vec![vec![WordId(0), WordId(1)]; 3], vec![]),
        5,
        &mut scratch,
    );
    // Friendship: same-community user scores higher than the other one.
    let to_c0 = profile.friendship_score(&index, UserId(0));
    let to_c1 = profile.friendship_score(&index, UserId(1));
    assert!(to_c0 > to_c1, "{to_c0} vs {to_c1}");
    assert_eq!(
        to_c0,
        cpd_core::membership_link_score(&profile.membership, &model.pi[0])
    );

    // "No heterogeneity" ablation: the serve path must mirror
    // `DiffusionPredictor::score` and collapse diffusion scoring to the
    // friendship sigmoid.
    let (model2, cfg2) = separable_model();
    let ablated = ProfileIndex::build(model2.clone(), &cfg2.no_heterogeneity());
    let dummy_graph = {
        use social_graph::{Document, SocialGraphBuilder};
        let mut b = SocialGraphBuilder::new(3, 5);
        b.add_document(Document::new(UserId(0), vec![WordId(0)], 0));
        b.build().unwrap()
    };
    let features = cpd_core::UserFeatures::compute(&dummy_graph);
    let score = profile.diffusion_score(&ablated, &features, UserId(0), &[WordId(0)], 0);
    assert_eq!(
        score,
        cpd_core::membership_link_score(&profile.membership, &model2.pi[0])
    );
}

/// Serving must never write to the trained model: the index's model
/// bytes are identical before and after an arbitrary mix of fold-in
/// and query traffic.
#[test]
fn serving_leaves_the_frozen_model_byte_identical() {
    let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
    let cfg = CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 1,
        nu_iters: 10,
        seed: 3,
        ..CpdConfig::experiment(3, 4)
    };
    let model = cpd_core::Cpd::new(cfg.clone()).unwrap().fit(&g).model;
    let index = ProfileIndex::build(model, &cfg);

    let mut before = Vec::new();
    write_model(index.model(), &mut before).unwrap();

    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let items: Vec<FoldInItem> = (0..6)
        .map(|i| {
            FoldInItem::user(
                vec![g.docs()[i].words.clone(), g.docs()[i + 1].words.clone()],
                vec![UserId(i as u32)],
            )
        })
        .collect();
    let profiles = engine.profile_batch(&items);
    assert_eq!(profiles.len(), items.len());
    let _ = index.rank_communities(&[WordId(0), WordId(1)]);
    let _ = index.query_topics(&[WordId(2)]);
    let _ = index.top_words(0, 10);

    let mut after = Vec::new();
    write_model(index.model(), &mut after).unwrap();
    assert_eq!(before, after, "serving mutated the frozen model");
}

/// A model of the serving shape's `|C| = |Z| = 50` (on a smaller
/// vocabulary and user set): sparse Dirichlet rows with a uniform
/// floor, like the synthetic snapshot of the repository benchmark, so
/// the conditionals are peaked and the chains revisit states.
fn serving_shape_model() -> (CpdModel, CpdConfig) {
    use cpd_prob::dirichlet::sample_symmetric_dirichlet;
    use cpd_prob::rng::seeded_rng;
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
        nu: vec![0.1; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![1.0 / z_n as f64; z_n]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    (model, CpdConfig::new(c_n, z_n))
}

/// Deterministic fold-in items of every shape, big and small
/// interleaved: slot `i % 6` picks docless / one document / several
/// documents, each without and with friends (duplicates allowed);
/// documents may be empty, and every fifth multi-document item is
/// large (up to 24 documents of up to 30 words).
fn fingerprint_items(n: usize, v_n: u32, u_n: u32, seed: u64) -> Vec<(FoldInItem, u64)> {
    use rand::Rng;
    let mut rng = cpd_prob::rng::seeded_rng(seed);
    (0..n)
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

/// FNV-1a over every bit of every profile, lengths included.
fn profile_fingerprint(profiles: &[cpd_serve::FoldedProfile]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in profiles {
        for row in [&p.membership, &p.topics]
            .into_iter()
            .chain(p.doc_topics.iter())
        {
            eat(row.len() as u64);
            row.iter().for_each(|x| eat(x.to_bits()));
        }
        eat(p.doc_topics.len() as u64);
    }
    h
}

/// Every bit of ~600 fold-in answers, captured before the chain's
/// conditionals were memoised: any change to the arithmetic, the RNG
/// order or the per-item reset of the scratch buffers moves a hash.
/// One `FoldScratch` serves all of a model's items through
/// `profile_with_seed`, and `profile_batch` replays them by slot.
#[test]
fn fold_in_reproduces_captured_profiles() {
    const CAPTURED: [(&str, u64, u64); 2] = [
        ("separable", 0xfa5a_215c_7f47_d696, 0x8c12_e362_6d98_118a),
        (
            "serving-shape",
            0x8e84_b689_e212_83fb,
            0x0190_cfc9_6f66_2d91,
        ),
    ];
    let models = [separable_model(), serving_shape_model()];
    for ((name, by_seed, by_slot), (model, cfg)) in CAPTURED.into_iter().zip(models) {
        let (v_n, u_n) = (model.vocab_size() as u32, model.pi.len() as u32);
        let index = ProfileIndex::build(model, &cfg);
        let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
        let items = fingerprint_items(300, v_n, u_n, 0xF1A6 ^ u64::from(v_n));
        let mut scratch = FoldScratch::new();
        let seeded: Vec<_> = items
            .iter()
            .map(|(item, seed)| engine.profile_with_seed(item, *seed, &mut scratch))
            .collect();
        let batch: Vec<FoldInItem> = items.into_iter().map(|(item, _)| item).collect();
        let slotted = engine.profile_batch(&batch);
        let got = (profile_fingerprint(&seeded), profile_fingerprint(&slotted));
        assert_eq!(
            got,
            (by_seed, by_slot),
            "{name}: (per-seed, per-slot) hashes, got ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

/// Every bit of 200 answers shaped like the repository benchmark's user
/// fold-ins — 3 documents of 8 words and 5 distinct friends — on the
/// serving-shape model, captured before the community draw kept each
/// friend's terms per community-count state. One scratch serves every
/// item through `profile_with_seed`, and `profile_batch` replays them
/// by slot.
#[test]
fn benchmark_shape_user_fold_ins_reproduce_captured_profiles() {
    use rand::Rng;
    const CAPTURED: (u64, u64) = (0xb7c0_74cd_8c9f_5b11, 0xabea_2f87_3823_3109);
    let (model, cfg) = serving_shape_model();
    let (v_n, u_n) = (model.vocab_size() as u32, model.pi.len() as u32);
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut rng = cpd_prob::rng::seeded_rng(0xB5E7);
    let items: Vec<(FoldInItem, u64)> = (0..200)
        .map(|_| {
            let docs = (0..3)
                .map(|_| (0..8).map(|_| WordId(rng.gen_range(0..v_n))).collect())
                .collect();
            let mut friends = Vec::new();
            while friends.len() < 5 {
                let v = UserId(rng.gen_range(0..u_n));
                if !friends.contains(&v) {
                    friends.push(v);
                }
            }
            (FoldInItem::user(docs, friends), rng.gen())
        })
        .collect();
    let mut scratch = FoldScratch::new();
    let seeded: Vec<_> = items
        .iter()
        .map(|(item, seed)| engine.profile_with_seed(item, *seed, &mut scratch))
        .collect();
    let batch: Vec<FoldInItem> = items.into_iter().map(|(item, _)| item).collect();
    let slotted = engine.profile_batch(&batch);
    let got = (profile_fingerprint(&seeded), profile_fingerprint(&slotted));
    assert_eq!(
        got, CAPTURED,
        "(per-seed, per-slot) hashes, got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// Four communities, a small `ρ` and peaked friend rows: with
/// `D + |C|ρ` a few documents, the friendship terms' differences
/// between communities change by a large share of a content term from
/// one community-count state to the next, so terms taken from the wrong
/// state flip draws. Content leans only mildly: each community to one
/// topic, each topic to a quarter of the words.
fn friendship_heavy_model() -> (CpdModel, CpdConfig) {
    let (c_n, z_n, v_n, u_n) = (4, 4, 24, 60);
    let lean = |n: usize, top: usize, high: f64, low: f64| -> Vec<f64> {
        let row: Vec<f64> = (0..n).map(|i| if i == top { high } else { low }).collect();
        let total: f64 = row.iter().sum();
        row.into_iter().map(|x| x / total).collect()
    };
    let model = CpdModel {
        pi: (0..u_n)
            .map(|u| lean(c_n, u % c_n, 0.9, 0.1 / 3.0))
            .collect(),
        theta: (0..c_n).map(|c| lean(z_n, c, 0.4, 0.2)).collect(),
        phi: (0..z_n)
            .map(|z| {
                let row: Vec<f64> = (0..v_n)
                    .map(|w| if w % z_n == z { 3.0 } else { 1.0 })
                    .collect();
                let total: f64 = row.iter().sum();
                row.into_iter().map(|x| x / total).collect()
            })
            .collect(),
        eta: Eta::uniform(c_n, z_n),
        nu: vec![0.1; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![1.0 / z_n as f64; z_n]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    let cfg = CpdConfig {
        rho: Some(0.2),
        alpha: Some(0.2),
        ..CpdConfig::new(c_n, z_n)
    };
    (model, cfg)
}

/// Every bit of 200 user fold-ins of 4–10 documents and 20–60 friends on
/// [`friendship_heavy_model`], where the friendship terms move the
/// community draw: friendship terms taken at the wrong community counts
/// move these hashes, which the serving-shape fingerprints cannot see.
/// One scratch serves every item through `profile_with_seed`, and
/// `profile_batch` replays them by slot.
#[test]
fn friendship_heavy_fold_ins_reproduce_captured_profiles() {
    use rand::Rng;
    const CAPTURED: (u64, u64) = (0xa132_1d30_5a47_ae77, 0x788a_1da2_4e62_49a1);
    let (model, cfg) = friendship_heavy_model();
    let (v_n, u_n) = (model.vocab_size() as u32, model.pi.len() as u32);
    let index = ProfileIndex::build(model, &cfg);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut rng = cpd_prob::rng::seeded_rng(0xF12E);
    let items: Vec<(FoldInItem, u64)> = (0..200)
        .map(|_| {
            let docs = (0..rng.gen_range(4..=10))
                .map(|_| {
                    let len = rng.gen_range(1..=6);
                    (0..len).map(|_| WordId(rng.gen_range(0..v_n))).collect()
                })
                .collect();
            let friends = (0..rng.gen_range(20..=60))
                .map(|_| UserId(rng.gen_range(0..u_n)))
                .collect();
            (FoldInItem::user(docs, friends), rng.gen())
        })
        .collect();
    let mut scratch = FoldScratch::new();
    let seeded: Vec<_> = items
        .iter()
        .map(|(item, seed)| engine.profile_with_seed(item, *seed, &mut scratch))
        .collect();
    let batch: Vec<FoldInItem> = items.into_iter().map(|(item, _)| item).collect();
    let slotted = engine.profile_batch(&batch);
    let got = (profile_fingerprint(&seeded), profile_fingerprint(&slotted));
    assert_eq!(
        got, CAPTURED,
        "(per-seed, per-slot) hashes, got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}
