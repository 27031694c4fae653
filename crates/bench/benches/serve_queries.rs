//! Serving-path benchmarks: index-backed queries vs the dense-scan
//! reference, diffusion scoring, runtime throughput across worker
//! counts, fold-in batch latency, and the cold start every server and
//! every hot reload pays (snapshot save, snapshot load, index build).
//!
//! The headline comparison runs at the paper's serving shape —
//! `|C| = 50` communities over a 60k-term vocabulary — where the dense
//! Eq. 19 scan pays `O(|C|²|Z|)` per query plus a `ln` per (topic,
//! query word), while the [`ProfileIndex`] answers from the posting
//! lists and the precomputed affinity table. The model is synthesised
//! directly (random but normalised parameters): query cost depends only
//! on the shapes, and fitting a 50×50×60k model in a bench harness
//! would dominate the run for no extra signal.
//!
//! Results land in `BENCH_<group>.json` (`serve_queries`,
//! `serve_diffusion`, `serve_runtime`, `serve_foldin`,
//! `serve_cold_start`);
//! `CPD_BENCH_SMOKE=1` runs a tiny single-iteration version for CI
//! (distinct `_smoke` group names so recorded results are not
//! clobbered).

use cpd_core::io::{load_model, save_model};
use cpd_core::{rank_communities, CpdConfig, CpdModel, Eta, UserFeatures};
use cpd_prob::rng::seeded_rng;
use cpd_serve::{FoldInItem, ProfileIndex, QueryRequest, ServeOptions, ServeRuntime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::{SocialGraphBuilder, UserId, WordId};
use std::sync::Arc;

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

/// The serving shape: K=50 communities, 50 topics, 60k vocabulary.
fn shape() -> (usize, usize, usize, usize) {
    if smoke() {
        (8, 8, 2_000, 100)
    } else {
        (50, 50, 60_000, 2_000)
    }
}

fn random_simplex(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-6).collect();
    let total: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= total);
    row
}

/// A synthetic but fully normalised model of the given shape.
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

fn random_queries(
    rng: &mut StdRng,
    n: usize,
    words_per_query: usize,
    v_n: usize,
) -> Vec<Vec<WordId>> {
    (0..n)
        .map(|_| {
            (0..words_per_query)
                .map(|_| WordId(rng.gen_range(0..v_n as u32)))
                .collect()
        })
        .collect()
}

/// Dense Eq. 19 scan vs the index on identical query batches — the
/// ≥5× headline number at K=50, V=60k.
fn bench_index_vs_dense(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = shape();
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xCAFE);
    let config = CpdConfig::new(c_n, z_n);
    let index = ProfileIndex::build(model.clone(), &config);
    let mut rng = seeded_rng(7);
    let queries = random_queries(&mut rng, if smoke() { 8 } else { 64 }, 3, v_n);

    let mut group = c.benchmark_group(group_name("serve_queries"));
    group.sample_size(if smoke() { 2 } else { 20 });
    group.bench_function("dense_rank", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(rank_communities(&model, q));
            }
        })
    });
    group.bench_function("index_rank", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.rank_communities(q));
            }
        })
    });
    group.bench_function("dense_query_topics", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(cpd_core::query_topics(&model, q));
            }
        })
    });
    group.bench_function("index_query_topics", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.query_topics(q));
            }
        })
    });
    // Top-words: the dense path scans all V entries per call (one pass
    // keeping the best k), the index reads a presorted table.
    group.bench_function("dense_top_words", |b| {
        b.iter(|| {
            for z in 0..z_n.min(8) {
                black_box(model.top_words(z, 10));
            }
        })
    });
    group.bench_function("index_top_words", |b| {
        b.iter(|| {
            for z in 0..z_n.min(8) {
                black_box(index.top_words(z, 10));
            }
        })
    });
    group.finish();
}

/// `DiffusionScore`, the heaviest query class: 64 direct
/// `ProfileIndex::diffusion_score` calls per iteration. Eq. 4 runs once
/// per topic that passes the `p(z|d) ≥ 1e-12` filter, so the two cells
/// differ in how many topics it runs for: at the serving shape all 50
/// pass on each 6-word document, and 23 of 50 on the mean 200-word
/// document (4 to 38 across the 64).
fn bench_diffusion_score(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = shape();
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xD1FF);
    let config = CpdConfig::new(c_n, z_n);
    let index = ProfileIndex::build(model, &config);
    // Static features are read, not computed, per query: an
    // edgeless graph of the right size serves.
    let features = UserFeatures::compute(&SocialGraphBuilder::new(u_n, v_n).build().unwrap());
    let mut rng = seeded_rng(17);

    let mut group = c.benchmark_group(group_name("serve_diffusion"));
    group.sample_size(if smoke() { 2 } else { 20 });
    for words in [6, 200] {
        let docs = random_queries(&mut rng, 64, words, v_n);
        let pairs: Vec<(UserId, UserId)> = (0..64)
            .map(|_| {
                (
                    UserId(rng.gen_range(0..u_n as u32)),
                    UserId(rng.gen_range(0..u_n as u32)),
                )
            })
            .collect();
        group.bench_function(format!("diffusion_{words}_words_x64"), |b| {
            b.iter(|| {
                for (&(u, v), doc) in pairs.iter().zip(&docs) {
                    black_box(index.diffusion_score(&features, u, v, doc, 0));
                }
            })
        });
    }
    group.finish();
}

/// Mixed-batch throughput through the concurrent runtime at 1/2/4/8
/// workers (same fixed ladder rationale as `gibbs_parallel`).
fn bench_runtime_throughput(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = shape();
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xBEEF);
    let config = CpdConfig::new(c_n, z_n);
    let index = Arc::new(ProfileIndex::build(model, &config));
    let mut rng = seeded_rng(11);
    let queries = random_queries(&mut rng, if smoke() { 8 } else { 128 }, 3, v_n);
    let batch: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => QueryRequest::RankCommunities { query: q.clone() },
            1 => QueryRequest::QueryTopics { query: q.clone() },
            _ => QueryRequest::TopWords {
                topic: i % z_n,
                k: 10,
            },
        })
        .collect();

    let mut group = c.benchmark_group(group_name("serve_runtime"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let ladder: &[usize] = if smoke() { &[2] } else { &[1, 2, 4, 8] };
    for &workers in ladder {
        let runtime = ServeRuntime::new(
            Arc::clone(&index),
            None,
            ServeOptions {
                workers,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        group.bench_function(format!("mixed_batch_x{workers}"), |b| {
            b.iter(|| black_box(runtime.submit_batch(batch.clone())))
        });
        runtime.shutdown();
    }
    group.finish();
}

/// Fold-in batch latency through the runtime (the online-profiling hot
/// path): a batch of unseen documents, and a batch of unseen users shaped
/// like the repository benchmark's user fold-in (3 documents of 8 words
/// and 5 trained friends each). Every iteration resubmits the same
/// `(item, seed)` pairs, so both batches run on a runtime without a fold
/// cache: every iteration runs every chain instead of timing cache hits.
fn bench_foldin_batch(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = shape();
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xF01D);
    let config = CpdConfig::new(c_n, z_n);
    let index = Arc::new(ProfileIndex::build(model, &config));
    let mut rng = seeded_rng(13);
    let n_docs = if smoke() { 4 } else { 32 };
    let batch: Vec<QueryRequest> = (0..n_docs)
        .map(|i| QueryRequest::FoldIn {
            item: FoldInItem::doc(random_queries(&mut rng, 1, 12, v_n).remove(0)),
            seed: i as u64,
        })
        .collect();
    let n_users = 8;
    let users: Vec<QueryRequest> = (0..n_users)
        .map(|i| QueryRequest::FoldIn {
            item: FoldInItem::user(
                random_queries(&mut rng, 3, 8, v_n),
                (0..5)
                    .map(|_| UserId(rng.gen_range(0..u_n as u32)))
                    .collect(),
            ),
            seed: i as u64,
        })
        .collect();
    let uncached = ServeRuntime::new(
        Arc::clone(&index),
        None,
        ServeOptions {
            workers: if smoke() { 2 } else { 4 },
            fold_cache_capacity: 0,
            ..ServeOptions::default()
        },
    )
    .unwrap();

    let mut group = c.benchmark_group(group_name("serve_foldin"));
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function(format!("foldin_batch_{n_docs}_docs"), |b| {
        b.iter(|| black_box(uncached.submit_batch(batch.clone())))
    });
    group.bench_function(format!("foldin_batch_{n_users}_users"), |b| {
        b.iter(|| black_box(uncached.submit_batch(users.clone())))
    });
    group.finish();
    uncached.shutdown();
}

/// The cold start of a server and of every hot reload: write the
/// snapshot, read it back, build the index. `index_build` includes one
/// clone of the model, since the build takes it by value.
fn bench_cold_start(c: &mut Criterion) {
    let (c_n, z_n, v_n, u_n) = shape();
    let model = synthetic_model(c_n, z_n, v_n, u_n, 0xC01D);
    let config = CpdConfig::new(c_n, z_n);
    let path =
        std::env::temp_dir().join(format!("cpd-bench-cold-start-{}.cpd", std::process::id()));

    let mut group = c.benchmark_group(group_name("serve_cold_start"));
    group.sample_size(10);
    group.bench_function("snapshot_save", |b| {
        b.iter(|| save_model(&model, &path).expect("snapshot save"))
    });
    group.bench_function("snapshot_load", |b| {
        b.iter(|| load_model(&path).expect("snapshot load"))
    });
    group.bench_function("index_build", |b| {
        b.iter(|| ProfileIndex::build(model.clone(), &config))
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(
    benches,
    bench_index_vs_dense,
    bench_diffusion_score,
    bench_runtime_throughput,
    bench_foldin_batch,
    bench_cold_start
);
criterion_main!(benches);
