//! Shared count-plane benchmarks: the `LockFreeCounts` runtime across
//! the vocabulary wall, V ∈ {60k, 250k, 1M}, at 1/2/4/8 threads, on its
//! one packed plane layout. The cells keep the `baseline` label their
//! committed medians were recorded under, so `bench_guard` still checks
//! them.
//!
//! Every cell generates the corpus once (`GenConfig::vocab_scaling`,
//! sparse-phi sampling so the generator does not dominate setup at
//! V=1M) and times whole fits, so plane allocation is measured
//! alongside the sweeps it pays for. At V=1M with Z=50 the `Z × W`
//! plane is ~200 MB — far beyond any LLC.
//!
//! **Box caveat, recorded for the committed JSON**: the bench host
//! exposes few hardware threads (printed as `host_threads` at
//! startup), so the arms beyond that count time-slice the same cores
//! and measure work, not thread scaling.
//!
//! Results land in `BENCH_plane_locality.json`; `CPD_BENCH_SMOKE=1`
//! runs a tiny version for CI under the `_smoke` group name.

use cpd_core::{Cpd, CpdConfig, ParallelRuntime};
use cpd_datagen::{generate, GenConfig};
use criterion::{criterion_group, criterion_main, Criterion};

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

fn corpus(vocab: usize) -> GenConfig {
    let n_users = if smoke() { 60 } else { 600 };
    GenConfig::vocab_scaling(n_users, vocab)
}

fn lockfree_cfg(threads: usize) -> CpdConfig {
    let (em_iters, gibbs_sweeps) = if smoke() { (1, 1) } else { (2, 2) };
    let z = if smoke() { 12 } else { 50 };
    CpdConfig {
        em_iters,
        gibbs_sweeps,
        nu_iters: 10,
        threads: Some(threads),
        seed: 23,
        // Force the lock-free runtime: `Auto` would flip runtimes
        // across the V ladder.
        parallel_runtime: ParallelRuntime::LockFreeCounts,
        ..CpdConfig::experiment(8, z)
    }
}

/// V × threads. Whole-fit timing per cell.
fn bench_plane_locality(c: &mut Criterion) {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("plane_locality: host_threads {host_threads}");
    let vocab_ladder: &[usize] = if smoke() {
        &[20_000]
    } else {
        &[60_000, 250_000, 1_000_000]
    };
    let thread_ladder: &[usize] = if smoke() { &[1, 2] } else { &THREAD_LADDER };

    let mut group = c.benchmark_group(group_name("plane_locality"));
    group.sample_size(if smoke() { 2 } else { 3 });
    for &vocab in vocab_ladder {
        let (g, _) = generate(&corpus(vocab));
        let v_label = match vocab {
            1_000_000 => "1m".to_string(),
            v => format!("{}k", v / 1_000),
        };
        for &threads in thread_ladder {
            group.bench_function(format!("v{v_label}_baseline_x{threads}"), |b| {
                let trainer = Cpd::new(lockfree_cfg(threads)).unwrap();
                b.iter(|| trainer.fit(&g));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plane_locality);
criterion_main!(benches);
