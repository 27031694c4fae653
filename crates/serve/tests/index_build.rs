//! The index build's fingerprint: every `f64` bit a [`ProfileIndex`]
//! exposes, hashed on the serving shape and on shapes whose vocabulary
//! is not a multiple of any block or thread split the build might use.
//! The hashes were captured from the single-threaded word-by-word
//! build; any change to how the build divides its work must leave them
//! exactly as they are.

use cpd_core::{CpdConfig, CpdModel, Eta};
use cpd_prob::rng::seeded_rng;
use cpd_serve::ProfileIndex;
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::WordId;

/// A normalised row whose values repeat (so top-k tie-breaking is
/// exercised) and whose every 11th entry is exactly zero (so the log
/// floor is).
fn lumpy_row(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n)
        .map(|i| {
            if i % 11 == 10 {
                0.0
            } else {
                f64::from(rng.gen_range(1u32..=40))
            }
        })
        .collect();
    let total: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= total);
    row
}

fn model(c_n: usize, z_n: usize, v_n: usize, seed: u64) -> (CpdModel, CpdConfig) {
    let mut rng = seeded_rng(seed);
    let eta_counts: Vec<f64> = (0..c_n * c_n * z_n)
        .map(|_| f64::from(rng.gen_range(0u32..8)))
        .collect();
    let model = CpdModel {
        pi: (0..6).map(|_| lumpy_row(&mut rng, c_n)).collect(),
        theta: (0..c_n).map(|_| lumpy_row(&mut rng, z_n)).collect(),
        phi: (0..z_n).map(|_| lumpy_row(&mut rng, v_n)).collect(),
        eta: Eta::from_counts(c_n, z_n, &eta_counts, 0.01),
        nu: vec![0.1; cpd_core::features::N_FEATURES],
        topic_popularity: vec![vec![1.0 / z_n as f64; z_n]],
        doc_community: vec![],
        doc_topic: vec![],
    };
    (model, CpdConfig::new(c_n, z_n))
}

/// A fixed query set: the empty query, then queries of one to five
/// words, repeats allowed.
fn queries(v_n: usize, seed: u64) -> Vec<Vec<WordId>> {
    let mut rng = seeded_rng(seed);
    let mut out = vec![Vec::new()];
    out.extend((0..40).map(|i| {
        (0..1 + i % 5)
            .map(|_| WordId(rng.gen_range(0..v_n as u32)))
            .collect()
    }));
    out
}

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.eat(xs.len() as u64);
        xs.iter().for_each(|x| self.eat(x.to_bits()));
    }

    fn ranked(&mut self, xs: &[(usize, f64)]) {
        self.eat(xs.len() as u64);
        for &(i, x) in xs {
            self.eat(i as u64);
            self.eat(x.to_bits());
        }
    }
}

/// FNV-1a over the posting list of every word, the `ln θ` row of every
/// community, every top-k table read at `k = top_k` and at
/// `top_k + 1` (the dense fallback), and the ranking and topic answers
/// to a fixed query set.
fn index_fingerprint(c_n: usize, z_n: usize, v_n: usize, top_k: usize) -> u64 {
    let seed = ((c_n * 1_000 + z_n) * 100_000 + v_n) as u64;
    let (model, cfg) = model(c_n, z_n, v_n, seed);
    let index = ProfileIndex::build_with_top_k(model, &cfg, top_k);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in 0..v_n {
        h.floats(index.postings(WordId(w as u32)));
    }
    for c in 0..c_n {
        h.floats(index.log_theta_row(c));
    }
    for k in [top_k, top_k + 1] {
        for z in 0..z_n {
            h.ranked(&index.top_words(z, k));
        }
        for c in 0..c_n {
            h.ranked(&index.top_topics_of_community(c, k));
            for c2 in 0..c_n {
                h.ranked(&index.pair_top_topics(c, c2, k));
            }
        }
    }
    for q in queries(v_n, seed ^ 0x0051) {
        h.ranked(&index.rank_communities(&q));
        h.ranked(&index.query_topics(&q));
    }
    h.0
}

/// `(|C|, |Z|, |V|, top_k, hash)`, captured before the build was split
/// across threads and cache blocks.
const CAPTURED: [(usize, usize, usize, usize, u64); 34] = [
    (50, 50, 60_000, 20, 0x2d62_93a3_e180_d4d1),
    (3, 7, 65_537, 20, 0x7fa4_9627_a746_4b10),
    (1, 1, 1, 0, 0x50be_2117_4c38_5c59),
    (1, 1, 1, 20, 0x5f35_58b4_bdf7_afe5),
    (2, 1, 1, 0, 0x8447_7a00_7115_0a67),
    (2, 1, 1, 20, 0x2cb6_2d6d_8ca2_8347),
    (1, 3, 1, 0, 0xfc4c_425c_1f5b_5073),
    (1, 3, 1, 20, 0x85ea_d98b_f924_1965),
    (2, 3, 1, 0, 0x856a_e46a_9be5_b49b),
    (2, 3, 1, 20, 0xa71e_06ee_2676_f253),
    (1, 1, 7, 0, 0x0d06_8f37_7628_751b),
    (1, 1, 7, 20, 0xb7bc_a291_fce9_aace),
    (2, 1, 7, 0, 0x591f_b450_2719_2904),
    (2, 1, 7, 20, 0x3d38_fcb6_72cb_85c8),
    (1, 3, 7, 0, 0x982a_f54e_6a96_5a56),
    (1, 3, 7, 20, 0x2faa_35c0_b34b_1fed),
    (2, 3, 7, 0, 0x4e53_a4f1_0046_e7e2),
    (2, 3, 7, 20, 0xbc95_042f_8bbe_a3c6),
    (1, 1, 257, 0, 0x61c7_b2e3_d0e3_8a3a),
    (1, 1, 257, 20, 0xc6f4_b2ae_8ee2_6551),
    (2, 1, 257, 0, 0xd182_913d_1d6c_c6f7),
    (2, 1, 257, 20, 0x73f6_a169_1170_10aa),
    (1, 3, 257, 0, 0xb1b3_fa51_6df2_75a1),
    (1, 3, 257, 20, 0x1b9b_7a75_0f74_bcfc),
    (2, 3, 257, 0, 0xcd13_984c_1af6_9af5),
    (2, 3, 257, 20, 0xddb6_b807_dfcc_1feb),
    (1, 1, 4_099, 0, 0xe339_aed2_b6ae_8e38),
    (1, 1, 4_099, 20, 0x9ef2_26ff_1a2c_7625),
    (2, 1, 4_099, 0, 0xa60b_7777_ecdc_b50b),
    (2, 1, 4_099, 20, 0xd929_6cc7_f25e_a093),
    (1, 3, 4_099, 0, 0x4372_2943_3578_d961),
    (1, 3, 4_099, 20, 0xd1aa_8481_f92b_7f71),
    (2, 3, 4_099, 0, 0xd454_ac49_134f_9a46),
    (2, 3, 4_099, 20, 0x4265_5df6_4c9b_deef),
];

#[test]
fn index_build_reproduces_captured_fingerprints() {
    let got: Vec<_> = CAPTURED
        .iter()
        .map(|&(c_n, z_n, v_n, top_k, _)| {
            (
                c_n,
                z_n,
                v_n,
                top_k,
                index_fingerprint(c_n, z_n, v_n, top_k),
            )
        })
        .collect();
    let wrong: Vec<String> = got
        .iter()
        .zip(&CAPTURED)
        .filter(|(g, want)| g.4 != want.4)
        .map(|(g, _)| format!("({}, {}, {}, {}, {:#018x}),", g.0, g.1, g.2, g.3, g.4))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} shapes hash differently; got:\n{}",
        wrong.len(),
        got.len(),
        wrong.join("\n")
    );
}
