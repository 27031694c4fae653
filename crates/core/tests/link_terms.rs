//! Draw-identity contract for the link-likelihood terms.
//!
//! The `GOLDEN` fingerprints of `sampler_oracle.rs` run
//! `CpdConfig::new(4, 6)`, where `ρ = 50/|C|` swamps every `π̂` row, and
//! hash only the assignment vectors — a perturbation of the link
//! arithmetic (the friendship `ln ψ(π̂_uᵀπ̂_v, λ)` term or the Eq. 4
//! factor behind the δ pass and the `ν` negatives) leaves them green.
//! This fingerprint runs the experiment prior (`ρ = 0.1`) on a corpus
//! with a denser friendship graph and more diffusions, and hashes the
//! fitted `ν` and `η` bits alongside the assignments, so a one-ulp
//! change anywhere in the link terms moves at least one of the four
//! hashes.

use cpd_core::{Cpd, CpdConfig, CpdModel, ParallelRuntime};
use cpd_datagen::{generate, GenConfig, Scale};

/// FNV-1a over 64-bit words.
fn fnv(xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(doc_community, doc_topic, ν bits, η bits)` fingerprints of a fit.
fn fingerprint(model: &CpdModel) -> [u64; 4] {
    [
        fnv(model.doc_community.iter().map(|&c| c as u64)),
        fnv(model.doc_topic.iter().map(|&z| z as u64)),
        fnv(model.nu.iter().map(|v| v.to_bits())),
        fnv(model.eta.as_slice().iter().map(|v| v.to_bits())),
    ]
}

/// The tiny Twitter-like corpus with a denser friendship graph and
/// more diffusions: 120 users, 1,326 documents, 1,440 friendships and
/// 600 diffusions.
fn corpus() -> (GenConfig, social_graph::SocialGraph) {
    let gen = GenConfig {
        mean_friend_degree: 12.0,
        n_diffusions: 600,
        ..GenConfig::twitter_like(Scale::Tiny)
    };
    let g = generate(&gen).0;
    (gen, g)
}

fn config(gen: &GenConfig, threads: Option<usize>, runtime: ParallelRuntime) -> CpdConfig {
    CpdConfig {
        em_iters: 2,
        gibbs_sweeps: 2,
        threads,
        parallel_runtime: runtime,
        seed: 11,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    }
}

/// (threads, community, topic, ν, η) fingerprints, captured before the
/// link terms were restructured.
const GOLDEN_LINKS: [(Option<usize>, [u64; 4]); 2] = [
    (
        None,
        [
            0xf6e5bfe229e7823d,
            0x6e227cc5ed512c80,
            0xbab996b3665b7b34,
            0x70445824ef8d2c51,
        ],
    ),
    (
        Some(2),
        [
            0xdee7f86532410585,
            0xb04a6cce3501d7ac,
            0x818e2f0b7c58dcf8,
            0x115fb740fee13ad2,
        ],
    ),
];

/// The serial and 2-thread `DeltaSharded` fits reproduce the captured
/// assignments, `ν` and `η` bit for bit, and the 2-thread
/// `CloneRebuild` oracle lands on the same bits as its sharded twin.
#[test]
fn link_terms_reproduce_captured_fits() {
    let (gen, g) = corpus();
    assert_eq!(
        (
            g.n_users(),
            g.n_docs(),
            g.friendships().len(),
            g.diffusions().len()
        ),
        (120, 1326, 1440, 600),
        "the fingerprint corpus changed shape"
    );
    for (threads, want) in GOLDEN_LINKS {
        let fit = Cpd::new(config(&gen, threads, ParallelRuntime::DeltaSharded))
            .unwrap()
            .fit(&g);
        let got = fingerprint(&fit.model);
        for (i, part) in ["communities", "topics", "nu", "eta"].iter().enumerate() {
            assert_eq!(
                got[i], want[i],
                "threads={threads:?}: {part} diverged from the captured fit"
            );
        }
    }
    let clone = Cpd::new(config(&gen, Some(2), ParallelRuntime::CloneRebuild))
        .unwrap()
        .fit(&g);
    assert_eq!(fingerprint(&clone.model), GOLDEN_LINKS[1].1);
}
