//! `LockFreeCounts` differential tests and M-step sharding oracles.
//!
//! The lock-free runtime publishes **every** count increment —
//! word-topic, community-topic and user-community — straight into
//! shared atomic planes during the sweep, so its draws are *not*
//! byte-identical to the `DeltaSharded`/`CloneRebuild` oracles —
//! mid-sweep reads may observe other shards' in-flight updates
//! (approximate Gibbs, Sect. 4.3). What must hold instead:
//!
//! * **exact counts at every barrier** — `WorkerPool::finish_sweep`
//!   asserts `check_consistency` under `debug_assertions` after every
//!   sharded sweep, so every fit below exercises the
//!   planes-vs-assignments equality (all three pairs, slot by slot)
//!   sweep by sweep; a dedicated test additionally hammers the
//!   `n_cz`/`n_uc` planes from racing threads and checks the joined
//!   tallies exactly;
//! * **distributional equivalence** — perplexity and community
//!   recovery land in the same regime as the delta-sharded oracle at
//!   1, 2 and 4 threads;
//! * **the structural claims** — deltas carry no `n_zw`/`n_cz`/`n_uc`
//!   entries, the per-plane atomic-contention counters tick, and the
//!   corresponding folds disappear from the barrier.
//!
//! The sharded M-step is held to a *stronger* standard than the E-step:
//! `estimate_eta`/`fit_nu` must be **bit-identical** to their serial
//! versions at any worker count (integer-exact tree reduce; fixed
//! chunked gradient fold) — the oracle tests at the bottom check that
//! through the public API.

use cpd_core::state::{CountDelta, CpdState};
use cpd_core::{
    estimate_eta, estimate_eta_sharded, fit_nu, fit_nu_sharded, Cpd, CpdConfig, NuExample,
    ParallelRuntime, UserFeatures,
};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_eval::{nmi, perplexity::content_profile_perplexity};

fn fit_config(c: usize, z: usize, threads: usize, runtime: ParallelRuntime) -> CpdConfig {
    CpdConfig {
        threads: Some(threads),
        parallel_runtime: runtime,
        seed: 13,
        ..CpdConfig::experiment(c, z)
    }
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

/// The core statistical-equivalence claim: at 1, 2 and 4 threads the
/// full-plane lock-free runtime recovers the planted communities and
/// models the corpus as well as the delta-sharded oracle at the same
/// thread count (within the tolerance the repo already grants
/// approximate-parallel Gibbs in `recovery.rs`).
#[test]
fn lockfree_matches_delta_sharded_quality_at_1_2_4_threads() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, truth) = generate(&gen);
    for threads in [1usize, 2, 4] {
        // At one thread `DeltaSharded` falls back to the serial sweep —
        // an equally valid oracle for the distributional claim.
        let (nmi_delta, perp_delta, _) = quality(
            &g,
            &truth,
            fit_config(
                gen.n_communities,
                gen.n_topics,
                threads,
                ParallelRuntime::DeltaSharded,
            ),
        );
        let (nmi_lf, perp_lf, diag) = quality(
            &g,
            &truth,
            fit_config(
                gen.n_communities,
                gen.n_topics,
                threads,
                ParallelRuntime::LockFreeCounts,
            ),
        );
        assert!(
            (nmi_delta - nmi_lf).abs() < 0.35,
            "{threads} threads: NMI delta {nmi_delta} vs lock-free {nmi_lf}"
        );
        // Absolute floors so the relative bound cannot mask a quality
        // collapse: this corpus/seed fits to NMI ≈ 0.45–0.70 and
        // perplexity ≈ 250 across runtimes and interleavings (chance is
        // NMI ≈ 0, uniform perplexity is in the thousands).
        assert!(
            nmi_lf > 0.3,
            "{threads} threads: lock-free recovery collapsed to NMI {nmi_lf}"
        );
        assert!(
            perp_lf.is_finite() && perp_lf > 1.0 && perp_lf < 400.0,
            "{threads} threads: degenerate perplexity {perp_lf}"
        );
        assert!(
            perp_lf < perp_delta * 1.3 + 2.0,
            "{threads} threads: perplexity delta {perp_delta} vs lock-free {perp_lf}"
        );
        // The sharded pool ran (even at one thread) and published
        // through all three atomic planes.
        assert!(!diag.merge_seconds.is_empty());
        assert!(diag
            .atomic_ops
            .iter()
            .all(|ops| ops.word_topic > 0 && ops.comm_topic > 0 && ops.user_comm > 0));
        // Every plane fold left the barrier entirely.
        assert!(diag
            .fold_seconds
            .iter()
            .all(|f| f.n_zw == 0.0 && f.n_cz == 0.0 && f.n_uc == 0.0));
    }
}

/// At one thread there is no cross-shard interference, so the lock-free
/// pool is fully deterministic (same seed → same model), like every
/// other runtime.
#[test]
fn lockfree_single_thread_is_deterministic() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = fit_config(
        gen.n_communities,
        gen.n_topics,
        1,
        ParallelRuntime::LockFreeCounts,
    );
    let a = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let b = Cpd::new(cfg).unwrap().fit(&g);
    assert_eq!(a.model.doc_community, b.model.doc_community);
    assert_eq!(a.model.doc_topic, b.model.doc_topic);
    assert_eq!(a.model.nu, b.model.nu);
}

/// The dense runtimes never touch the atomic planes: their contention
/// counters stay at zero and their barrier still folds every pair.
#[test]
fn delta_sharded_reports_no_atomic_traffic() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let fit = Cpd::new(fit_config(
        gen.n_communities,
        gen.n_topics,
        2,
        ParallelRuntime::DeltaSharded,
    ))
    .unwrap()
    .fit(&g);
    assert!(!fit.diagnostics.atomic_ops.is_empty());
    assert!(fit
        .diagnostics
        .atomic_ops
        .iter()
        .all(|ops| ops.total() == 0));
    assert_eq!(
        fit.diagnostics.fold_seconds.len(),
        fit.diagnostics.merge_seconds.len()
    );
}

/// The packed shared planes cost no memory beyond the dense ones: on one
/// corpus every pair's `plane_bytes` is the same under `LockFreeCounts`
/// as under `DeltaSharded` (4 bytes per slot either way).
#[test]
fn lockfree_planes_take_the_dense_footprint() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let plane_bytes = |runtime| {
        let cfg = CpdConfig {
            em_iters: 1,
            ..fit_config(gen.n_communities, gen.n_topics, 2, runtime)
        };
        Cpd::new(cfg).unwrap().fit(&g).diagnostics.plane_bytes
    };
    let shared = plane_bytes(ParallelRuntime::LockFreeCounts);
    let dense = plane_bytes(ParallelRuntime::DeltaSharded);
    assert_eq!(shared.user_comm, dense.user_comm, "n_uc/n_u");
    assert_eq!(shared.comm_topic, dense.comm_topic, "n_cz/n_c");
    assert_eq!(shared.word_topic, dense.word_topic, "n_zw/n_z");
}

/// Structural acceptance check at the state layer: a delta recorded
/// against a full-shared-plane state carries no `n_zw`/`n_cz`/`n_uc`
/// entries, and the per-sweep consistency checker validates all three
/// atomic planes.
#[test]
fn shared_plane_state_passes_consistency_and_slims_deltas() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig::experiment(3, 4);
    let mut state = CpdState::init(&g, &cfg);
    state.user_comm = state.user_comm.to_shared();
    state.comm_topic = state.comm_topic.to_shared();
    state.word_topic = state.word_topic.to_shared();
    state.check_consistency(&g).expect("atomic planes validate");
    let delta = CountDelta::new(&state);
    assert!(!delta.tracks_word_topic());
    assert!(!delta.tracks_comm_topic());
    assert!(!delta.tracks_user_comm());
    let sizes = delta.log_sizes();
    assert_eq!((sizes.n_zw, sizes.n_cz, sizes.n_uc), (0, 0, 0));
}

/// Exact-count-at-barrier check for the document-level planes: racing
/// threads publish interleaved `n_cz`/`n_uc` (and marginal) increments
/// through cloned handles — structured like real document moves, so no
/// slot transiently underflows — and once they join, the canonical
/// planes hold exactly the tallies implied by the final assignments.
#[test]
fn concurrent_ncz_nuc_increments_are_exact_at_the_barrier() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig {
        seed: 5,
        ..CpdConfig::experiment(3, 4)
    };
    let mut state = CpdState::init(&g, &cfg);
    state.user_comm = state.user_comm.to_shared();
    state.comm_topic = state.comm_topic.to_shared();
    state.word_topic = state.word_topic.to_shared();
    let c_n = state.n_communities;
    let z_n = state.n_topics;

    // Four workers, each owning a disjoint document range (as the real
    // user sharding guarantees), repeatedly rotate their documents'
    // communities — every move hits the shared `n_cz` rows of *all*
    // communities, so the planes see heavy cross-thread interleaving.
    let n_docs = g.n_docs();
    let assignments: Vec<(usize, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|w| {
                let mut local = state.clone();
                let graph = &g;
                scope.spawn(move || {
                    let lo = w * n_docs / 4;
                    let hi = ((w + 1) * n_docs / 4).min(n_docs);
                    let mut out = Vec::new();
                    for round in 0..50u32 {
                        for d in lo..hi {
                            let u = graph.docs()[d].author.index();
                            let z = local.doc_topic[d] as usize;
                            let c_old = local.doc_community[d] as usize;
                            let c_new = (c_old + 1 + (round as usize + d) % (c_n - 1)) % c_n;
                            local.user_comm.add(u * c_n + c_old, -1);
                            local.user_comm.add(u * c_n + c_new, 1);
                            local.comm_topic.add(c_old * z_n + z, -1);
                            local.comm_topic.add(c_new * z_n + z, 1);
                            local.comm_topic.add_marginal(c_old, -1);
                            local.comm_topic.add_marginal(c_new, 1);
                            local.doc_community[d] = c_new as u32;
                        }
                    }
                    for d in lo..hi {
                        out.push((d, local.doc_community[d]));
                    }
                    assert!(local.user_comm.take_ops() > 0);
                    assert!(local.comm_topic.take_ops() > 0);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    // Barrier: install the final assignments and demand exact tallies
    // on every shared plane (check_consistency rebuilds from the
    // assignments and compares slot by slot).
    for (d, c) in assignments {
        state.doc_community[d] = c;
    }
    state
        .check_consistency(&g)
        .expect("n_cz/n_uc planes exact at the barrier");
}

/// Quality sanity for the overlapped M-step: pipelining η/ν one sweep
/// behind must not degrade recovery or perplexity beyond the usual
/// approximate-Gibbs tolerance.
#[test]
fn overlapped_mstep_keeps_lockfree_quality() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, truth) = generate(&gen);
    let cfg = CpdConfig {
        overlap_mstep: true,
        ..fit_config(
            gen.n_communities,
            gen.n_topics,
            2,
            ParallelRuntime::LockFreeCounts,
        )
    };
    let em_iters = cfg.em_iters;
    let (nmi_ov, perp_ov, diag) = quality(&g, &truth, cfg);
    assert!(nmi_ov > 0.3, "overlap collapsed recovery to NMI {nmi_ov}");
    assert!(
        perp_ov.is_finite() && perp_ov < 400.0,
        "overlap degenerate perplexity {perp_ov}"
    );
    // The M-step ran once per EM iteration, deferred or not.
    assert_eq!(diag.mstep_eta_seconds.len(), em_iters);
    assert_eq!(diag.mstep_nu_seconds.len(), em_iters);
}

/// With the deterministic `DeltaSharded` runtime the overlapped
/// pipeline is still seed-reproducible (the M-step reads the
/// barrier-exact dense state, so there is no racy input).
#[test]
fn overlapped_mstep_is_deterministic_under_delta_sharded() {
    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig {
        overlap_mstep: true,
        ..fit_config(
            gen.n_communities,
            gen.n_topics,
            2,
            ParallelRuntime::DeltaSharded,
        )
    };
    let a = Cpd::new(cfg.clone()).unwrap().fit(&g);
    let b = Cpd::new(cfg).unwrap().fit(&g);
    assert_eq!(a.model.doc_community, b.model.doc_community);
    assert_eq!(a.model.doc_topic, b.model.doc_topic);
    assert_eq!(a.model.nu, b.model.nu);
}

/// Bit-equality oracle for the sharded M-step: on a real fitted state,
/// `estimate_eta_sharded` and `fit_nu_sharded` reproduce the serial
/// estimators bit for bit at 1/2/4/8 workers (the same guarantee the
/// trainer's worker pool relies on).
#[test]
fn sharded_mstep_is_bit_equal_to_serial_on_a_real_state() {
    use cpd_core::state::link_metadata;
    use cpd_prob::rng::seeded_rng;
    use rand::Rng;

    let gen = GenConfig::twitter_like(Scale::Tiny);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig::experiment(gen.n_communities, gen.n_topics);
    let state = CpdState::init(&g, &cfg);
    let links = link_metadata(&g);
    let _features = UserFeatures::compute(&g);

    let serial = estimate_eta(&state, &links, cfg.eta_smoothing);
    for workers in [1usize, 2, 4, 8] {
        let sharded = estimate_eta_sharded(&state, &links, cfg.eta_smoothing, workers);
        assert_eq!(
            sharded.as_slice(),
            serial.as_slice(),
            "estimate_eta diverged at {workers} workers"
        );
    }

    // A synthetic-but-realistic ν training set spanning several chunks.
    let mut rng = seeded_rng(77);
    let examples: Vec<NuExample> = (0..5000)
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
    let mut nu_serial = vec![0.1; cpd_core::features::N_FEATURES];
    fit_nu(&examples, &mut nu_serial, &cfg);
    for workers in [1usize, 2, 4, 8] {
        let mut nu_sharded = vec![0.1; cpd_core::features::N_FEATURES];
        fit_nu_sharded(&examples, &mut nu_sharded, &cfg, workers);
        assert_eq!(
            nu_sharded, nu_serial,
            "fit_nu diverged at {workers} workers"
        );
    }
}
