//! Delta-merge correctness: the sharded E-step runtime must produce,
//! after any sweep, counts exactly equal to a full rebuild from the
//! merged assignments — and whole fits must be draw-for-draw identical
//! to the legacy clone-and-rebuild runtime at every thread count.
//!
//! (The per-sweep count equality itself is asserted inside
//! `WorkerPool::sweep` via `debug_assert!(check_consistency)`, which is
//! active in these test builds; the fits below therefore exercise it on
//! every sweep of every case.)

use cpd_core::{Cpd, CpdConfig, ParallelRuntime};
use proptest::prelude::*;
use social_graph::{DocId, Document, SocialGraphBuilder, UserId, WordId};

fn fit_config(c: usize, z: usize, threads: Option<usize>, runtime: ParallelRuntime) -> CpdConfig {
    CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        nu_iters: 10,
        threads,
        parallel_runtime: runtime,
        seed: 11,
        ..CpdConfig::new(c, z)
    }
}

/// Fit the same graph with the delta-sharded and clone-rebuild runtimes
/// and assert identical results (assignments and learned weights).
fn assert_runtimes_agree(g: &social_graph::SocialGraph, c: usize, z: usize, threads: usize) {
    let delta = Cpd::new(fit_config(
        c,
        z,
        Some(threads),
        ParallelRuntime::DeltaSharded,
    ))
    .unwrap()
    .fit(g);
    let clone = Cpd::new(fit_config(
        c,
        z,
        Some(threads),
        ParallelRuntime::CloneRebuild,
    ))
    .unwrap()
    .fit(g);
    assert_eq!(
        delta.model.doc_community, clone.model.doc_community,
        "communities diverged at {threads} threads"
    );
    assert_eq!(
        delta.model.doc_topic, clone.model.doc_topic,
        "topics diverged at {threads} threads"
    );
    assert_eq!(delta.model.nu, clone.model.nu);
    assert_eq!(delta.model.pi, clone.model.pi);
    // Only the delta runtime reports merge/snapshot diagnostics.
    assert!(!delta.diagnostics.merge_seconds.is_empty());
    assert!(clone.diagnostics.merge_seconds.is_empty());
    assert_eq!(
        delta.diagnostics.merge_seconds.len(),
        delta.diagnostics.snapshot_seconds.len()
    );
    assert_eq!(
        delta.diagnostics.fold_seconds.len(),
        delta.diagnostics.merge_seconds.len()
    );
}

#[test]
fn runtimes_agree_on_synthetic_graph_at_2_and_4_threads() {
    let (g, _) = cpd_datagen::generate(&cpd_datagen::GenConfig::twitter_like(
        cpd_datagen::Scale::Tiny,
    ));
    for threads in [2, 4] {
        assert_runtimes_agree(&g, 4, 6, threads);
    }
}

#[test]
fn serial_fit_is_untouched_by_runtime_flag() {
    let (g, _) = cpd_datagen::generate(&cpd_datagen::GenConfig::twitter_like(
        cpd_datagen::Scale::Tiny,
    ));
    let a = Cpd::new(fit_config(4, 6, None, ParallelRuntime::DeltaSharded))
        .unwrap()
        .fit(&g);
    let b = Cpd::new(fit_config(4, 6, None, ParallelRuntime::CloneRebuild))
        .unwrap()
        .fit(&g);
    assert_eq!(a.model.doc_community, b.model.doc_community);
    assert_eq!(a.model.doc_topic, b.model.doc_topic);
    // Serial fits never touch the sharded machinery.
    assert!(a.diagnostics.merge_seconds.is_empty());
    assert!(a.diagnostics.snapshot_seconds.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On arbitrary small graphs, a delta-sharded fit at 1, 2 and 4
    /// threads (a) never panics, (b) passes the per-sweep
    /// counts == rebuild debug assertion, and (c) at >1 thread is
    /// byte-identical to the clone-and-rebuild oracle.
    #[test]
    fn delta_merge_equals_rebuild_on_random_graphs(
        n_users in 2usize..8,
        docs in prop::collection::vec(
            (0u32..8, prop::collection::vec(0u32..6, 1..5), 0u32..4),
            2..18,
        ),
        friends in prop::collection::vec((0u32..8, 0u32..8), 0..12),
        diffs in prop::collection::vec((0u32..18, 0u32..18), 0..8),
        c in 1usize..4,
        z in 1usize..4,
    ) {
        let mut b = SocialGraphBuilder::new(n_users, 6);
        let mut n_docs = 0u32;
        for (author, words, t) in &docs {
            b.add_document(Document::new(
                UserId(author % n_users as u32),
                words.iter().map(|&w| WordId(w)).collect(),
                *t,
            ));
            n_docs += 1;
        }
        for (u, v) in &friends {
            let (u, v) = (u % n_users as u32, v % n_users as u32);
            if u != v {
                b.add_friendship(UserId(u), UserId(v));
            }
        }
        for (i, j) in &diffs {
            let (i, j) = (i % n_docs, j % n_docs);
            if i != j {
                b.add_diffusion(DocId(i), DocId(j), 0);
            }
        }
        let g = b.build().unwrap();
        // threads = 1 goes through the serial path; 2 and 4 through the
        // sharded pool (with the clone-rebuild oracle cross-check).
        let serial = Cpd::new(fit_config(c, z, Some(1), ParallelRuntime::DeltaSharded))
            .unwrap()
            .fit(&g);
        prop_assert!(serial.model.nu.iter().all(|v| v.is_finite()));
        for threads in [2usize, 4] {
            assert_runtimes_agree(&g, c, z, threads);
        }
    }
}
