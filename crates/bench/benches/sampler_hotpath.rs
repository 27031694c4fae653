//! Skew-aware sampler hot-path benchmarks: the three [`SamplerKind`]s
//! head-to-head on the paper-shaped corpus (K=50 topics over a 60k-term
//! vocabulary) at 1/2/4/8 threads, the link-likelihood terms on a
//! link-heavy corpus, plus the fold-in batch path that shares the
//! one-pass weight-to-sample kernel.
//!
//! All three kinds run the same sweep schedule under the same parallel
//! runtime, so the wall-clock difference is pure per-document sampling
//! math:
//!
//! * `dense` — the pre-refactor oracle: a `ln()` per candidate per
//!   factor, full `|Z|`/`|C|` scans;
//! * `exact` — cached log-count tables + sparse candidate
//!   decomposition, draw-for-draw identical to `dense` (the acceptance
//!   bar is `exact ≥ 1.5×` faster than `dense` at 8 threads);
//! * `alias_mh` — stale alias proposals with Metropolis–Hastings
//!   correction for the topic draw, statistically equivalent.
//!
//! Results land in `BENCH_sampler_hotpath.json`,
//! `BENCH_link_terms.json` and `BENCH_sampler_hotpath_foldin.json`;
//! `CPD_BENCH_SMOKE=1` runs a tiny single-sweep version for CI under
//! distinct `_smoke` group names.

use cpd_core::{Cpd, CpdConfig, CpdModel, Eta, SamplerKind};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_prob::rng::seeded_rng;
use cpd_serve::{FoldIn, FoldInConfig, FoldInItem, ProfileIndex};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::WordId;

const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var_os("CPD_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn group_name(base: &str) -> String {
    if smoke() {
        format!("{base}_smoke")
    } else {
        base.to_string()
    }
}

fn sampler_label(sampler: SamplerKind) -> &'static str {
    match sampler {
        SamplerKind::Dense => "dense",
        SamplerKind::Exact => "exact",
        SamplerKind::AliasMh => "alias_mh",
    }
}

/// The paper-shaped corpus of `gibbs_parallel.rs`'s `estep_runtime`
/// bench: wide vocabulary, the word-topic matrix dominating the count
/// state — exactly where the cached/sparse decomposition has to win.
fn paper_shaped_corpus() -> GenConfig {
    if smoke() {
        GenConfig {
            vocab_size: 2_000,
            n_users: 40,
            mean_docs_per_user: 3.0,
            n_diffusions: 40,
            ..GenConfig::twitter_like(Scale::Tiny)
        }
    } else {
        GenConfig {
            vocab_size: 60_000,
            n_users: 300,
            mean_docs_per_user: 4.0,
            n_diffusions: 400,
            ..GenConfig::twitter_like(Scale::Small)
        }
    }
}

fn bench_cfg(threads: usize, sampler: SamplerKind) -> CpdConfig {
    let (em_iters, gibbs_sweeps) = if smoke() { (1, 1) } else { (4, 2) };
    let (c, z) = if smoke() { (8, 12) } else { (8, 50) };
    CpdConfig {
        em_iters,
        gibbs_sweeps,
        nu_iters: 10,
        threads: Some(threads),
        seed: 17,
        sampler,
        // The default runtime for every sampler kind, so the
        // comparison stays about the per-document math.
        ..CpdConfig::experiment(c, z)
    }
}

/// Dense vs cached/sparse vs alias-MH across the thread ladder.
fn bench_sampler_kinds(c: &mut Criterion) {
    let gen = paper_shaped_corpus();
    let (g, _) = generate(&gen);
    let mut group = c.benchmark_group(group_name("sampler_hotpath"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let ladder: &[usize] = if smoke() { &[2] } else { &THREAD_LADDER };
    for &threads in ladder {
        for sampler in [SamplerKind::Dense, SamplerKind::Exact, SamplerKind::AliasMh] {
            let label = sampler_label(sampler);
            group.bench_function(format!("{label}_x{threads}"), |b| {
                let trainer = Cpd::new(bench_cfg(threads, sampler)).unwrap();
                b.iter(|| trainer.fit(&g));
            });
        }
    }
    group.finish();
}

/// A 2-thread fit where the link terms dominate: friend degree 40,
/// 30,000 diffusions and 3 words per document over a 1,200-word
/// vocabulary, `|C| = |Z| = 20` (the shape of the repository
/// benchmark's `train_link_heavy` workload). The friendship term of
/// every community draw and the Eq. 4 factor of the δ pass and the `ν`
/// negatives take most of the fit; the word factor is small.
///
/// The smoke twin keeps the friend degree on the Tiny corpus and runs
/// 2 EM iterations of 4 sweeps, so the sweeps take about 70 % of its
/// time. At one iteration of one sweep they took about 40 %, and runs
/// with the friendship kernel slowed 2× overlapped runs without.
fn bench_link_terms(c: &mut Criterion) {
    let (scale, n_diffusions) = if smoke() {
        (Scale::Tiny, 1_800)
    } else {
        (Scale::Medium, 30_000)
    };
    let (g, _) = generate(&GenConfig {
        mean_friend_degree: 40.0,
        n_diffusions,
        mean_docs_per_user: 2.0,
        mean_words_per_doc: 3.0,
        ..GenConfig::twitter_like(scale)
    });
    let (em_iters, gibbs_sweeps) = if smoke() { (2, 4) } else { (2, 2) };
    let trainer = Cpd::new(CpdConfig {
        em_iters,
        gibbs_sweeps,
        threads: Some(2),
        seed: 17,
        ..CpdConfig::experiment(20, 20)
    })
    .unwrap();
    let mut group = c.benchmark_group(group_name("link_terms"));
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("link_heavy_fit_x2", |b| b.iter(|| trainer.fit(&g)));
    group.finish();
}

fn random_simplex(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-6).collect();
    let total: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= total);
    row
}

/// A synthetic but fully normalised model of the serving shape.
fn synthetic_model(c_n: usize, z_n: usize, v_n: usize, u_n: usize, seed: u64) -> CpdModel {
    let mut rng = seeded_rng(seed);
    let eta_counts: Vec<f64> = (0..c_n * c_n * z_n).map(|_| rng.gen::<f64>()).collect();
    CpdModel {
        pi: (0..u_n).map(|_| random_simplex(&mut rng, c_n)).collect(),
        theta: (0..c_n).map(|_| random_simplex(&mut rng, z_n)).collect(),
        phi: (0..z_n).map(|_| random_simplex(&mut rng, v_n)).collect(),
        eta: Eta::from_counts(c_n, z_n, &eta_counts, 0.01),
        nu: vec![0.3; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![1.0 / z_n as f64; z_n]; 4],
        doc_community: vec![],
        doc_topic: vec![],
    }
}

/// Fold-in batch latency through the engine directly (no serve-runtime
/// thread hops): every Gibbs draw inside goes through the shared
/// one-pass `sample_log_index_mut` kernel.
fn bench_foldin_batch(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = if smoke() {
        (8, 8, 2_000, 100)
    } else {
        (50, 50, 60_000, 2_000)
    };
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xF01D);
    let config = CpdConfig::new(c_n, z_n);
    let index = ProfileIndex::build(model, &config);
    let engine = FoldIn::new(&index, FoldInConfig::default()).unwrap();
    let mut rng = seeded_rng(13);
    let n_docs = if smoke() { 4 } else { 32 };
    let items: Vec<FoldInItem> = (0..n_docs)
        .map(|_| {
            FoldInItem::doc(
                (0..12)
                    .map(|_| WordId(rng.gen_range(0..v_n as u32)))
                    .collect(),
            )
        })
        .collect();

    let mut group = c.benchmark_group(group_name("sampler_hotpath_foldin"));
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function(format!("foldin_batch_{n_docs}_docs"), |b| {
        b.iter(|| black_box(engine.profile_batch(&items)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sampler_kinds,
    bench_link_terms,
    bench_foldin_batch
);
criterion_main!(benches);
