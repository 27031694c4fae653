//! Parallel E-step benchmarks: a threads × graph-size matrix over both
//! runtimes (sharded delta-merge and legacy clone-and-rebuild — the
//! Fig. 10(b) speedup claim in micro form), plus the same comparison on
//! a paper-shaped corpus.
//!
//! `CloneRebuild` and `DeltaSharded` produce identical draws, so their
//! wall-clock difference is pure runtime overhead: per-sweep state
//! clones + count rebuilds on one side, delta recording + folding on
//! the other.
//!
//! Setting `CPD_BENCH_SMOKE=1` runs a single-sweep, tiny-corpus version
//! of every benchmark (distinct `_smoke` group names so recorded
//! `BENCH_*.json` results are not clobbered) — CI uses this to keep the
//! bench binaries from rotting.

use cpd_core::{Cpd, CpdConfig, ParallelRuntime};
use cpd_datagen::{generate, GenConfig, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

/// Fixed thread ladder: the runtimes are compared on *work done per
/// sweep*, which holds with time-sliced threads too, so the ladder is
/// not capped at `available_parallelism` (a 1-core CI box still pays
/// every per-thread clone in CPU time).
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var_os("CPD_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Suffix group names in smoke mode so `BENCH_<group>.json` files from
/// real runs are preserved.
fn group_name(base: &str) -> String {
    if smoke() {
        format!("{base}_smoke")
    } else {
        base.to_string()
    }
}

fn runtime_label(runtime: ParallelRuntime) -> &'static str {
    match runtime {
        ParallelRuntime::DeltaSharded => "delta",
        ParallelRuntime::CloneRebuild => "clone_rebuild",
    }
}

fn bench_cfg(c: usize, z: usize, threads: usize, runtime: ParallelRuntime) -> CpdConfig {
    let (em_iters, gibbs_sweeps) = if smoke() { (1, 1) } else { (4, 2) };
    CpdConfig {
        em_iters,
        gibbs_sweeps,
        nu_iters: 10,
        threads: Some(threads),
        parallel_runtime: runtime,
        seed: 17,
        ..CpdConfig::experiment(c, z)
    }
}

/// Threads × graph-size matrix across both runtimes.
fn bench_thread_size_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group(group_name("gibbs_parallel_matrix"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let sizes: &[(&str, Scale)] = if smoke() {
        &[("tiny", Scale::Tiny)]
    } else {
        &[("tiny", Scale::Tiny), ("small", Scale::Small)]
    };
    let ladder: &[usize] = if smoke() { &[2] } else { &THREAD_LADDER };
    for &(size_name, scale) in sizes {
        let (g, _) = generate(&GenConfig::twitter_like(scale));
        for &threads in ladder {
            for runtime in [ParallelRuntime::DeltaSharded, ParallelRuntime::CloneRebuild] {
                let label = runtime_label(runtime);
                group.bench_function(format!("{label}_{size_name}_x{threads}"), |b| {
                    let trainer = Cpd::new(bench_cfg(8, 12, threads, runtime)).unwrap();
                    b.iter(|| trainer.fit(&g));
                });
            }
        }
    }
    group.finish();
}

/// Delta-merge vs clone-and-rebuild at 1/2/4/8 threads (same graph, same
/// draws): the per-sweep barrier cost is the only difference.
///
/// Shaped like the paper's real settings, where the `Z × W` word-topic
/// matrix dominates the count state (the paper runs `|Z| = 150` over a
/// ~25k-term stemmed Twitter vocabulary): the legacy runtime pays
/// `threads × |state|` of clone memcpy plus a rebuild *every sweep*,
/// while the delta runtime's sync traffic tracks the tokens that
/// actually moved and shrinks as the chain mixes.
fn bench_delta_vs_clone_rebuild(c: &mut Criterion) {
    let gen = paper_shaped_corpus();
    let (g, _) = generate(&gen);
    let mut group = c.benchmark_group(group_name("estep_runtime"));
    group.sample_size(if smoke() { 2 } else { 10 });
    let ladder: &[usize] = if smoke() { &[2] } else { &THREAD_LADDER };
    for &threads in ladder {
        group.bench_function(format!("delta_merge_x{threads}"), |b| {
            let trainer =
                Cpd::new(bench_cfg(8, 50, threads, ParallelRuntime::DeltaSharded)).unwrap();
            b.iter(|| trainer.fit(&g));
        });
        group.bench_function(format!("clone_rebuild_x{threads}"), |b| {
            let trainer =
                Cpd::new(bench_cfg(8, 50, threads, ParallelRuntime::CloneRebuild)).unwrap();
            b.iter(|| trainer.fit(&g));
        });
    }
    group.finish();
}

/// The paper-shaped corpus of the `estep_runtime` bench (big vocab, the
/// word-topic matrix dominating the count state).
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

criterion_group!(
    benches,
    bench_thread_size_matrix,
    bench_delta_vs_clone_rebuild
);
criterion_main!(benches);
