//! M-step benchmarks: the serial η estimator and ν fit on a link-heavy
//! paper-shaped corpus (the trainer runs the same η pass on its
//! coordinator, and the same chunked ν gradient on its worker pool).
//!
//! Setting `CPD_BENCH_SMOKE=1` runs a tiny-corpus version of every
//! benchmark (distinct `_smoke` group names so recorded `BENCH_*.json`
//! results are not clobbered) — CI uses this to keep the bench binary
//! from rotting.

use cpd_core::state::{link_metadata, CpdState};
use cpd_core::{estimate_eta, fit_nu, CpdConfig, NuExample};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_prob::rng::seeded_rng;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;

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

/// Link-heavy paper-shaped corpus: the paper's realistic datasets are
/// dominated by huge sparse diffusion-link sets, which is exactly the
/// regime where the serial link aggregation was the scaling ceiling.
fn link_heavy_corpus() -> GenConfig {
    if smoke() {
        GenConfig {
            vocab_size: 2_000,
            n_users: 40,
            mean_docs_per_user: 3.0,
            n_diffusions: 2_000,
            ..GenConfig::twitter_like(Scale::Tiny)
        }
    } else {
        GenConfig {
            vocab_size: 20_000,
            n_users: 300,
            mean_docs_per_user: 4.0,
            n_diffusions: 400_000,
            ..GenConfig::twitter_like(Scale::Small)
        }
    }
}

/// η link aggregation on the initialised state, then the ν fit.
fn bench_eta(c: &mut Criterion) {
    let gen = link_heavy_corpus();
    let (g, _) = generate(&gen);
    let cfg = CpdConfig::experiment(gen.n_communities, gen.n_topics);
    let state = CpdState::init(&g, &cfg);
    let links = link_metadata(&g);
    let mut group = c.benchmark_group(group_name("mstep_parallel"));
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("eta_serial", |b| {
        b.iter(|| estimate_eta(&state, &links, cfg.eta_smoothing));
    });

    // ν gradient descent over a training set the size the trainer
    // really builds on this corpus (positives capped by
    // `nu_max_positives`, one negative per positive).
    let n_examples = if smoke() { 3_000 } else { 40_000 };
    let mut rng = seeded_rng(91);
    let examples: Vec<NuExample> = (0..n_examples)
        .map(|i| {
            let mut x = [0.0; cpd_core::features::N_FEATURES];
            x[0] = 1.0;
            for xi in x.iter_mut().skip(1) {
                *xi = rng.gen::<f64>() - 0.5;
            }
            NuExample {
                x,
                label: i % 2 == 0,
            }
        })
        .collect();
    let nu_cfg = CpdConfig {
        nu_iters: if smoke() { 5 } else { 60 },
        ..cfg.clone()
    };
    group.bench_function("nu_serial", |b| {
        b.iter(|| {
            let mut nu = vec![0.1; cpd_core::features::N_FEATURES];
            fit_nu(&examples, &mut nu, &nu_cfg);
            nu
        });
    });
    group.finish();
}

criterion_group!(benches, bench_eta);
criterion_main!(benches);
