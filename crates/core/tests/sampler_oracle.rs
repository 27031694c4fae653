//! Draw-for-draw oracles and statistical equivalence for the
//! skew-aware sampler (`SamplerKind`).
//!
//! Three tiers of guarantee, matching `gibbs.rs`'s module docs:
//!
//! * **`Exact` is bit-identical to the pre-refactor sampler.** The
//!   `GOLDEN_*` fingerprints below are FNV-1a hashes of the full
//!   `doc_community`/`doc_topic` assignment vectors captured from this
//!   repo *before* the cached/sparse hot path landed (same configs,
//!   same corpora, same seeds). `SamplerKind::Exact` — the default —
//!   must keep reproducing them, serially and under the sharded pool.
//! * **`Dense` is the live oracle.** It keeps the original dense
//!   `ln()` math verbatim, so it must match the same fingerprints and
//!   stay draw-identical to `Exact` on full fits.
//! * **`AliasMh` is statistically equivalent.** Its topic draws go
//!   through a stale alias proposal with Metropolis–Hastings
//!   correction, so draws differ but the stationary distribution does
//!   not: community recovery and content perplexity must land in the
//!   same regime as `Exact` (the tolerances `recovery.rs` grants
//!   approximate-parallel Gibbs).

use cpd_core::{Cpd, CpdConfig, ParallelRuntime, SamplerKind};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_eval::{nmi, perplexity::content_profile_perplexity};

/// FNV-1a over assignment vectors — the exact hash the pre-refactor
/// fingerprints were captured with.
fn fnv(xs: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        h ^= x as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configuration the fingerprints were captured under (the
/// `parallel_delta.rs` differential config: 2 EM iterations × 2 sweeps,
/// seed 11, explicit `DeltaSharded`).
fn golden_config(threads: Option<usize>, sampler: SamplerKind) -> CpdConfig {
    CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        nu_iters: 10,
        threads,
        parallel_runtime: ParallelRuntime::DeltaSharded,
        seed: 11,
        sampler,
        ..CpdConfig::new(4, 6)
    }
}

/// (corpus, threads, comm fingerprint, topic fingerprint), captured
/// from the pre-refactor sampler at commit `a0c7aa2`'s tree.
const GOLDEN: [(&str, Option<usize>, u64, u64); 4] = [
    ("twitter", None, 0x654af23a55645f42, 0x13f115262043a408),
    ("twitter", Some(2), 0xe52acaafafbb24fd, 0x844a6304427fa59f),
    ("dblp", None, 0x5119ffff639d50b4, 0xa31dd8081ab7d707),
    ("dblp", Some(2), 0x63c9a9e038e9749a, 0x263a66aa96791c55),
];

fn corpus(name: &str) -> social_graph::SocialGraph {
    let gen = match name {
        "twitter" => GenConfig::twitter_like(Scale::Tiny),
        "dblp" => GenConfig::dblp_like(Scale::Tiny),
        other => panic!("unknown corpus {other}"),
    };
    generate(&gen).0
}

/// `SamplerKind::Exact` (cached log-counts + sparse decomposition)
/// reproduces the pre-refactor draws bit for bit on both corpora,
/// serially and under the 2-thread sharded pool.
#[test]
fn exact_reproduces_pre_refactor_draws() {
    for (name, threads, comm, topic) in GOLDEN {
        let g = corpus(name);
        let fit = Cpd::new(golden_config(threads, SamplerKind::Exact))
            .unwrap()
            .fit(&g);
        assert_eq!(
            fnv(&fit.model.doc_community),
            comm,
            "{name} threads={threads:?}: community draws diverged from the pre-refactor sampler"
        );
        assert_eq!(
            fnv(&fit.model.doc_topic),
            topic,
            "{name} threads={threads:?}: topic draws diverged from the pre-refactor sampler"
        );
    }
}

/// The retained dense oracle is the original math verbatim — it must
/// match the same fingerprints.
#[test]
fn dense_oracle_reproduces_pre_refactor_draws() {
    for (name, threads, comm, topic) in GOLDEN {
        let g = corpus(name);
        let fit = Cpd::new(golden_config(threads, SamplerKind::Dense))
            .unwrap()
            .fit(&g);
        assert_eq!(fnv(&fit.model.doc_community), comm, "{name} {threads:?}");
        assert_eq!(fnv(&fit.model.doc_topic), topic, "{name} {threads:?}");
    }
}

/// Full-fit draw identity between `Exact` and the dense oracle on a
/// config the fingerprints do not cover (longer fit, different seed,
/// diffusion links active).
#[test]
fn exact_is_draw_identical_to_dense_oracle() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    for threads in [None, Some(3)] {
        let cfg = |sampler| CpdConfig {
            threads,
            seed: 23,
            sampler,
            ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
        };
        let dense = Cpd::new(cfg(SamplerKind::Dense)).unwrap().fit(&g);
        let exact = Cpd::new(cfg(SamplerKind::Exact)).unwrap().fit(&g);
        assert_eq!(
            dense.model.doc_community, exact.model.doc_community,
            "threads={threads:?}"
        );
        assert_eq!(
            dense.model.doc_topic, exact.model.doc_topic,
            "threads={threads:?}"
        );
        assert_eq!(dense.model.nu, exact.model.nu, "threads={threads:?}");
        // The exact path actually went through the sparse decomposition.
        let stats = exact.diagnostics.sampler_stats.iter().fold(
            cpd_core::SamplerStats::default(),
            |mut acc, s| {
                acc.merge(s);
                acc
            },
        );
        assert!(stats.sparse_rows > 0, "sparse path never ran");
        let occ = stats.avg_row_occupancy().expect("rows were scanned");
        assert!(
            occ > 0.0 && occ <= 1.0,
            "row occupancy {occ} outside (0, 1]"
        );
    }
}

/// The default runtime is `DeltaSharded`: a fit that leaves the runtime
/// unset reports it in the diagnostics and draws the same as one that
/// asks for it explicitly.
#[test]
fn default_runtime_is_delta_sharded() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let default = Cpd::new(CpdConfig {
        threads: Some(2),
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    })
    .unwrap()
    .fit(&g);
    let explicit = Cpd::new(CpdConfig {
        threads: Some(2),
        parallel_runtime: ParallelRuntime::DeltaSharded,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    })
    .unwrap()
    .fit(&g);
    assert_eq!(default.diagnostics.runtime, ParallelRuntime::DeltaSharded);
    assert_eq!(explicit.diagnostics.runtime, ParallelRuntime::DeltaSharded);
    assert_eq!(default.model.doc_community, explicit.model.doc_community);
    assert_eq!(default.model.doc_topic, explicit.model.doc_topic);
}

/// Fit NMI against the planted communities and content perplexity of
/// the training documents.
fn quality(
    g: &social_graph::SocialGraph,
    truth: &cpd_datagen::GroundTruth,
    cfg: CpdConfig,
) -> (f64, f64, cpd_core::FitDiagnostics) {
    let fit = Cpd::new(cfg).unwrap().fit(g);
    let score = nmi(&fit.model.dominant_communities(), &truth.dominant_community);
    let perp =
        content_profile_perplexity(g.docs(), &fit.model.pi, &fit.model.theta, &fit.model.phi)
            .expect("corpus has tokens");
    (score, perp, fit.diagnostics)
}

/// The statistical-equivalence claim for the alias-backed sampler:
/// serially and at 2 threads, `AliasMh` recovers the planted
/// communities and models the corpus as well as `Exact` — within the
/// tolerance the repo already grants approximate-parallel Gibbs — and
/// its MH chain actually ran with a healthy acceptance rate.
#[test]
fn alias_mh_matches_exact_quality() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, truth) = generate(&gen);
    for threads in [None, Some(2)] {
        let cfg = |sampler| CpdConfig {
            threads,
            seed: 13,
            sampler,
            ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
        };
        let (nmi_exact, perp_exact, _) = quality(&g, &truth, cfg(SamplerKind::Exact));
        let (nmi_mh, perp_mh, diag) = quality(&g, &truth, cfg(SamplerKind::AliasMh));
        assert!(
            (nmi_exact - nmi_mh).abs() < 0.35,
            "threads={threads:?}: NMI exact {nmi_exact} vs alias-MH {nmi_mh}"
        );
        assert!(
            nmi_mh > 0.3,
            "threads={threads:?}: alias-MH recovery collapsed to NMI {nmi_mh}"
        );
        assert!(
            perp_mh.is_finite() && perp_mh > 1.0 && perp_mh < 400.0,
            "threads={threads:?}: degenerate perplexity {perp_mh}"
        );
        assert!(
            perp_mh < perp_exact * 1.3 + 2.0,
            "threads={threads:?}: perplexity exact {perp_exact} vs alias-MH {perp_mh}"
        );
        // The proposal/accept accounting reached the diagnostics.
        let stats =
            diag.sampler_stats
                .iter()
                .fold(cpd_core::SamplerStats::default(), |mut acc, s| {
                    acc.merge(s);
                    acc
                });
        assert!(stats.mh_proposals > 0, "MH chain never proposed");
        let rate = stats.acceptance_rate().expect("proposals were made");
        assert!(
            rate > 0.05 && rate <= 1.0,
            "threads={threads:?}: implausible MH acceptance rate {rate}"
        );
        assert!(
            stats.alias_build_seconds >= 0.0 && stats.alias_build_seconds.is_finite(),
            "alias rebuild timer is broken"
        );
    }
}

/// Alias-MH is still seed-deterministic serially (one RNG stream, one
/// chain order).
#[test]
fn alias_mh_is_deterministic_for_seed() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig {
        seed: 31,
        sampler: SamplerKind::AliasMh,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let a = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let b = Cpd::new(cfg).unwrap().fit(&g);
    assert_eq!(a.model.doc_community, b.model.doc_community);
    assert_eq!(a.model.doc_topic, b.model.doc_topic);
    assert_eq!(a.model.nu, b.model.nu);
}
