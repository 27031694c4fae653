//! Community profile types: the content profile `θ_c` (Def. 4) and the
//! diffusion profile `η_c` (Def. 5), plus the fitted-model container.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// How far a stored η source row's sum may stray from 1 in
/// [`Eta::from_normalised`].
const ROW_SUM_TOLERANCE: f64 = 1e-9;

/// The diffusion profile tensor `η ∈ R^{C x C x Z}`, row-normalised per
/// source community: `Σ_{c', z} η_{c,c',z} = 1`.
#[derive(Debug, Clone)]
pub struct Eta {
    n_communities: usize,
    n_topics: usize,
    values: Vec<f64>,
    /// The same cells topic-major, built on the first
    /// [`Eta::topic_block`] call. Behind an `Arc` so that `Eta` holds no
    /// interior mutability inline: a `&Eta` (or a reference to a model
    /// or index holding one) stays `Freeze`, which keeps the compiler's
    /// read-only, no-alias guarantee on the serving paths that never
    /// build the copy. Clones of one value share it.
    by_topic: Arc<OnceLock<Vec<f64>>>,
}

impl Eta {
    /// Uniform tensor (every `(c', z)` cell equally likely).
    pub fn uniform(n_communities: usize, n_topics: usize) -> Self {
        let cell = 1.0 / (n_communities * n_topics) as f64;
        Self {
            n_communities,
            n_topics,
            values: vec![cell; n_communities * n_communities * n_topics],
            by_topic: Arc::default(),
        }
    }

    /// Build from raw per-cell weights (e.g. aggregated counts),
    /// smoothing each cell by `smoothing` and row-normalising.
    pub fn from_counts(
        n_communities: usize,
        n_topics: usize,
        counts: &[f64],
        smoothing: f64,
    ) -> Self {
        assert_eq!(counts.len(), n_communities * n_communities * n_topics);
        let row = n_communities * n_topics;
        let mut values = vec![0.0f64; counts.len()];
        for c in 0..n_communities {
            let total: f64 =
                counts[c * row..(c + 1) * row].iter().sum::<f64>() + smoothing * row as f64;
            for i in 0..row {
                values[c * row + i] = (counts[c * row + i] + smoothing) / total;
            }
        }
        Self {
            n_communities,
            n_topics,
            values,
            by_topic: Arc::default(),
        }
    }

    /// Wrap stored, already row-normalised values (`c`-major, then
    /// `c'`, then `z`) exactly as given — the snapshot loader's
    /// constructor, so a save → load round trip keeps every bit.
    ///
    /// # Errors
    ///
    /// A description of the first offence when `values` does not hold
    /// `|C|·|C|·|Z|` cells, a cell is not finite and non-negative, or a
    /// source row does not sum to 1 within `1e-9`.
    pub fn from_normalised(
        n_communities: usize,
        n_topics: usize,
        values: Vec<f64>,
    ) -> Result<Self, String> {
        let cells = n_communities
            .checked_mul(n_communities)
            .and_then(|n| n.checked_mul(n_topics));
        if cells != Some(values.len()) {
            return Err(format!(
                "eta holds {} values, expected {n_communities}·{n_communities}·{n_topics}",
                values.len()
            ));
        }
        let row = n_communities * n_topics;
        for (c, cells) in values.chunks(row.max(1)).enumerate() {
            if let Some(i) = cells.iter().position(|v| !(v.is_finite() && *v >= 0.0)) {
                return Err(format!(
                    "eta row {c} cell {i} is {}, not a finite non-negative weight",
                    cells[i]
                ));
            }
            let sum: f64 = cells.iter().sum();
            if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                return Err(format!("eta row {c} sums to {sum}, not 1"));
            }
        }
        Ok(Self {
            n_communities,
            n_topics,
            values,
            by_topic: Arc::default(),
        })
    }

    /// Number of communities.
    pub fn n_communities(&self) -> usize {
        self.n_communities
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// `η_{c,c',z}`.
    #[inline]
    pub fn at(&self, c: usize, c2: usize, z: usize) -> f64 {
        self.values[c * self.n_communities * self.n_topics + c2 * self.n_topics + z]
    }

    /// Raw flat storage (`c`-major, then `c'`, then `z`).
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Topic `z`'s `|C|·|C|` block, `c`-major: entry `c·|C| + c'` is
    /// `η_{c,c',z}`, so the `c'` row of one source community is `|C|`
    /// contiguous cells where [`Eta::as_slice`] spaces them `|Z|` apart.
    ///
    /// The blocks are slices of one topic-major copy (`[z][c][c']`,
    /// `|C|²|Z|` cells) built on the first call and kept for the life
    /// of this value, which never changes; every cell is a copy, so a
    /// read returns the same bits as [`Eta::at`]. A value that is never
    /// asked for a block (a serving model) never builds the copy.
    pub(crate) fn topic_block(&self, z: usize) -> &[f64] {
        let (c_n, z_n) = (self.n_communities, self.n_topics);
        let block = c_n * c_n;
        let by_topic = self.by_topic.get_or_init(|| {
            let mut t = vec![0.0; self.values.len()];
            for (pair, cells) in self.values.chunks_exact(z_n.max(1)).enumerate() {
                for (z, &e) in cells.iter().enumerate() {
                    t[z * block + pair] = e;
                }
            }
            t
        });
        &by_topic[z * block..(z + 1) * block]
    }

    /// The same cells without the topic-major copy (a later
    /// [`Eta::topic_block`] builds it again): what a fit hands back, so
    /// a model kept or served in-process holds only the `c`-major cells.
    pub(crate) fn without_topic_copy(self) -> Self {
        Self {
            by_topic: Arc::default(),
            ..self
        }
    }

    /// Whether the topic-major copy has been built.
    #[cfg(test)]
    pub(crate) fn has_topic_copy(&self) -> bool {
        self.by_topic.get().is_some()
    }

    /// Topic-aggregated diffusion strength `Σ_z η_{c,c',z}`
    /// (Sect. 5, "diffusion with topic aggregation").
    pub fn aggregate_strength(&self, c: usize, c2: usize) -> f64 {
        (0..self.n_topics).map(|z| self.at(c, c2, z)).sum()
    }

    /// Top-`k` `(topic, strength)` pairs for the directed pair `c → c'`
    /// (the Fig. 5(c) case study).
    pub fn top_topics(&self, c: usize, c2: usize, k: usize) -> Vec<(usize, f64)> {
        let start = (c * self.n_communities + c2) * self.n_topics;
        top_k(&self.values[start..start + self.n_topics], k)
    }
}

/// A `(position, value)` candidate, ordered best first: larger value
/// first, then smaller position. Positions are distinct, so without NaN
/// this is a strict total order.
struct Ranked(usize, f64);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .1
            .partial_cmp(&self.1)
            .expect("no NaN")
            .then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The best `min(k, values.len())` `(position, value)` pairs of
/// `values`, best first (value descending, then position ascending) —
/// exactly the head of a full sort under that order, found in one pass.
/// A max-heap keeps the entries still in the running with the worst on
/// top, so each further value costs one comparison unless it displaces
/// that worst; nothing is allocated beyond the answer itself.
fn top_k(values: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut kept = BinaryHeap::new();
    for (i, &v) in values.iter().enumerate() {
        let candidate = Ranked(i, v);
        if kept.len() < k {
            kept.push(candidate);
        } else if let Some(mut worst) = kept.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }
    kept.into_sorted_vec()
        .into_iter()
        .map(|Ranked(i, v)| (i, v))
        .collect()
}

/// Index of the largest entry of a probability row (ties break to the
/// highest index; an empty row gives 0). The one argmax used for every
/// "dominant community/topic" readout — model, fold-in profiles and
/// the serve runtime all share it.
pub fn dominant_index(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// A fitted CPD model: everything Sect. 5 needs to drive the three
/// applications.
#[derive(Debug, Clone)]
pub struct CpdModel {
    /// `π_u` — community membership per user (`U x C`).
    pub pi: Vec<Vec<f64>>,
    /// `θ_c` — content profile per community (`C x Z`).
    pub theta: Vec<Vec<f64>>,
    /// `φ_z` — word distribution per topic (`Z x W`).
    pub phi: Vec<Vec<f64>>,
    /// `η` — diffusion profile tensor.
    pub eta: Eta,
    /// `ν` — diffusion factor weights (see `features::N_FEATURES`).
    pub nu: Vec<f64>,
    /// Normalised topic popularity per time bucket (`T x Z`).
    pub topic_popularity: Vec<Vec<f64>>,
    /// Hard per-document community assignment after the final sweep.
    pub doc_community: Vec<u32>,
    /// Hard per-document topic assignment after the final sweep.
    pub doc_topic: Vec<u32>,
}

impl CpdModel {
    /// Number of communities.
    pub fn n_communities(&self) -> usize {
        self.theta.len()
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.phi.len()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.phi.first().map_or(0, |r| r.len())
    }

    /// Each user's most likely community.
    pub fn dominant_communities(&self) -> Vec<usize> {
        self.pi.iter().map(|row| dominant_index(row)).collect()
    }

    /// Top-`k` `(word, probability)` pairs of topic `z` (Table 5).
    pub fn top_words(&self, z: usize, k: usize) -> Vec<(usize, f64)> {
        top_k(&self.phi[z], k)
    }

    /// Top-`k` `(topic, probability)` pairs of community `c`'s content
    /// profile.
    pub fn top_topics_of_community(&self, c: usize, k: usize) -> Vec<(usize, f64)> {
        top_k(&self.theta[c], k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_eta_rows_normalise() {
        let e = Eta::uniform(3, 4);
        for c in 0..3 {
            let s: f64 = (0..3)
                .flat_map(|c2| (0..4).map(move |z| (c2, z)))
                .map(|(c2, z)| e.at(c, c2, z))
                .sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!((e.aggregate_strength(0, 1) - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn from_counts_normalises_and_smooths() {
        // 2 communities, 1 topic.
        let counts = vec![3.0, 1.0, 0.0, 0.0];
        let e = Eta::from_counts(2, 1, &counts, 0.5);
        // Row 0: (3.5, 1.5)/5 -> 0.7, 0.3.
        assert!((e.at(0, 0, 0) - 0.7).abs() < 1e-12);
        assert!((e.at(0, 1, 0) - 0.3).abs() < 1e-12);
        // Row 1 had no counts: uniform.
        assert!((e.at(1, 0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_normalised_keeps_bits_and_rejects_bad_rows() {
        // 2 communities, 1 topic: rows (0.1, 0.9) and (0.7, 0.3).
        let good = vec![0.1, 0.9, 0.7, 0.3];
        let e = Eta::from_normalised(2, 1, good.clone()).unwrap();
        assert_eq!(e.as_slice(), &good[..]);
        for (what, values) in [
            ("negative cell, row sums to 1", vec![-0.5, 1.5, 0.7, 0.3]),
            ("NaN cell", vec![0.1, 0.9, f64::NAN, 0.3]),
            ("infinite cell", vec![0.1, f64::INFINITY, 0.7, 0.3]),
            ("row sum off", vec![0.1, 0.9, 0.7, 0.31]),
            ("wrong length", vec![0.1, 0.9, 1.0]),
        ] {
            assert!(Eta::from_normalised(2, 1, values).is_err(), "{what}");
        }
        assert!(Eta::from_normalised(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn topic_blocks_hold_every_cell() {
        let (c_n, z_n) = (3, 4);
        let counts: Vec<f64> = (0..c_n * c_n * z_n).map(|i| (i * 7 % 11) as f64).collect();
        let e = Eta::from_counts(c_n, z_n, &counts, 0.5);
        for z in 0..z_n {
            let block = e.topic_block(z);
            assert_eq!(block.len(), c_n * c_n);
            for (c, c2) in (0..c_n).flat_map(|c| (0..c_n).map(move |c2| (c, c2))) {
                assert_eq!(block[c * c_n + c2].to_bits(), e.at(c, c2, z).to_bits());
            }
        }
    }

    #[test]
    fn top_topics_sorted_desc() {
        let counts = vec![
            // c=0 row: c'=0 topics [5, 1], c'=1 topics [0, 2]
            5.0, 1.0, 0.0, 2.0, //
            0.0, 0.0, 0.0, 0.0,
        ];
        let e = Eta::from_counts(2, 2, &counts, 0.0);
        let top = e.top_topics(0, 0, 2);
        assert_eq!(top[0].0, 0);
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn top_k_is_the_head_of_a_full_sort() {
        // The sort-then-truncate every top-k read used to run.
        fn sorted_head(values: &[f64], k: usize) -> Vec<(usize, f64)> {
            let mut pairs: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
            pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
            pairs.truncate(k);
            pairs
        }
        // Few distinct values (ties everywhere, ±0.0 among them), in
        // rising, falling and scrambled order.
        let levels = [0.5, -0.0, 0.25, 0.0, 1.0, 0.25, -1.0];
        let scrambled: Vec<f64> = (0..200).map(|i| levels[(i * 37 + 11) % 7]).collect();
        let mut rising = scrambled.clone();
        rising.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let falling: Vec<f64> = rising.iter().rev().copied().collect();
        for values in [scrambled, rising, falling, Vec::new(), vec![0.3]] {
            for k in [0, 1, 2, 7, 20, 199, 200, 201, usize::MAX] {
                let got = top_k(&values, k);
                let want = sorted_head(&values, k);
                assert_eq!(got.len(), want.len(), "k = {k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "k = {k}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "k = {k}");
                }
            }
        }
    }

    #[test]
    fn model_helpers() {
        let m = CpdModel {
            pi: vec![vec![0.2, 0.8], vec![0.9, 0.1]],
            theta: vec![vec![0.3, 0.7], vec![0.6, 0.4]],
            phi: vec![vec![0.1, 0.9], vec![0.5, 0.5]],
            eta: Eta::uniform(2, 2),
            nu: vec![0.0; crate::features::N_FEATURES],
            topic_popularity: vec![vec![0.5, 0.5]],
            doc_community: vec![0],
            doc_topic: vec![1],
        };
        assert_eq!(m.dominant_communities(), vec![1, 0]);
        assert_eq!(m.top_words(0, 1), vec![(1, 0.9)]);
        assert_eq!(m.top_topics_of_community(1, 1), vec![(0, 0.6)]);
        assert_eq!(m.n_communities(), 2);
        assert_eq!(m.n_topics(), 2);
        assert_eq!(m.vocab_size(), 2);
    }
}
