//! Pins the guide LDA's draws directly and checks its derived
//! distributions against brute-force recounts.
//!
//! `GOLDEN` is an FNV-1a hash of every token assignment `Lda::fit`
//! produced on the corpora below, captured before the topic-word counts
//! moved to their word-major layout. Any change to the count storage,
//! the weight arithmetic or the draw must keep reproducing it bit for
//! bit. The recount test is layout-agnostic: it rebuilds every count
//! from the assignments alone.

use social_graph::WordId;
use topic_model::{Lda, LdaConfig, LdaModel};

/// FNV-1a over a stream of `u32`s.
fn fnv<'a>(xs: impl IntoIterator<Item = &'a u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        h ^= x as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic corpus with `V ≫ |Z|`: `n_docs` documents of 0–59
/// tokens (every 17th one empty) over `vocab` words, drawn from a
/// splitmix64 stream. Each document leans on one of eight word bands so
/// the sampler has structure to find; the rest of its tokens are a
/// skewed draw over the whole vocabulary.
fn corpus(n_docs: usize, vocab: usize, seed: u64) -> Vec<Vec<WordId>> {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = s;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let band = vocab / 8;
    (0..n_docs)
        .map(|d| {
            if d % 17 == 0 {
                return Vec::new();
            }
            let len = (next() % 60) as usize;
            let home = d % 8;
            (0..len)
                .map(|_| {
                    let r = next();
                    let w = if r % 3 != 0 {
                        home * band + (r >> 8) as usize % band
                    } else {
                        let x = (r >> 8) as usize % vocab;
                        x * x / vocab
                    };
                    WordId::from(w)
                })
                .collect()
        })
        .collect()
}

fn fit(docs: &[Vec<WordId>], vocab: usize, n_topics: usize, seed: u64) -> LdaModel {
    Lda::new(LdaConfig {
        n_iters: 15,
        seed,
        ..LdaConfig::new(n_topics)
    })
    .fit(docs, vocab)
}

/// (documents, vocabulary, topics, seed, assignment fingerprint).
const GOLDEN: [(usize, usize, usize, u64, u64); 2] = [
    (240, 6_000, 12, 3, 0x5097_9060_7c22_9534),
    (120, 20_000, 50, 9, 0x914b_4fca_437b_0ecc),
];

#[test]
fn fit_reproduces_golden_assignments() {
    for (n_docs, vocab, n_topics, seed, want) in GOLDEN {
        let docs = corpus(n_docs, vocab, seed);
        let model = fit(&docs, vocab, n_topics, seed);
        let got = fnv(model.assignments().iter().flatten());
        assert_eq!(
            got, want,
            "D={n_docs} V={vocab} Z={n_topics} seed={seed}: LDA draws diverged from the golden run"
        );
    }
}

/// `theta`, `phi`, `top_words` and `dominant_topic` equal what a
/// brute-force recount of the assignments gives.
#[test]
fn derived_views_match_recounts_from_assignments() {
    let (n_docs, vocab, n_topics) = (90, 700, 7);
    let docs = corpus(n_docs, vocab, 21);
    let model = fit(&docs, vocab, n_topics, 21);
    let alpha = 50.0 / n_topics as f64;
    let beta = 0.1;
    let assignments = model.assignments();
    assert_eq!(assignments.len(), docs.len());

    let mut n_zw = vec![vec![0u32; vocab]; n_topics];
    let mut n_z = vec![0u32; n_topics];
    for (doc, topics) in docs.iter().zip(assignments) {
        assert_eq!(doc.len(), topics.len());
        for (w, &t) in doc.iter().zip(topics) {
            n_zw[t as usize][w.index()] += 1;
            n_z[t as usize] += 1;
        }
    }

    for (d, topics) in assignments.iter().enumerate() {
        let mut n_dz = vec![0u32; n_topics];
        for &t in topics {
            n_dz[t as usize] += 1;
        }
        let denom = topics.len() as f64 + n_topics as f64 * alpha;
        let theta: Vec<f64> = n_dz.iter().map(|&n| (n as f64 + alpha) / denom).collect();
        assert_eq!(model.theta(d), theta, "theta of doc {d}");

        // Most frequent topic, ties to the smallest id, empty → 0.
        let mut dominant = 0;
        for t in 1..n_topics {
            if n_dz[t] > n_dz[dominant] {
                dominant = t;
            }
        }
        assert_eq!(
            model.dominant_topic(d),
            dominant,
            "dominant topic of doc {d}"
        );
    }

    for t in 0..n_topics {
        let denom = n_z[t] as f64 + vocab as f64 * beta;
        let phi: Vec<f64> = n_zw[t].iter().map(|&n| (n as f64 + beta) / denom).collect();
        assert_eq!(model.phi(t), phi, "phi of topic {t}");
        assert_eq!(model.phi_matrix()[t], phi, "phi_matrix row {t}");

        // By count descending, ties to the smaller word id.
        let mut order: Vec<usize> = (0..vocab).collect();
        order.sort_by_key(|&w| (std::cmp::Reverse(n_zw[t][w]), w));
        let want: Vec<WordId> = order.into_iter().take(25).map(WordId::from).collect();
        assert_eq!(model.top_words(t, 25), want, "top words of topic {t}");
    }
}
