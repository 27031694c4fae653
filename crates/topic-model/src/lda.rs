//! Collapsed Gibbs sampling for LDA.

use cpd_prob::rng::seeded_rng;
use rand::Rng;
use social_graph::WordId;

/// LDA hyperparameters and run length.
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of topics `|Z|`.
    pub n_topics: usize,
    /// Document-topic Dirichlet prior; `None` = the `50/|Z|` convention.
    pub alpha: Option<f64>,
    /// Topic-word Dirichlet prior (paper convention: 0.1).
    pub beta: f64,
    /// Gibbs sweeps.
    pub n_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LdaConfig {
    /// Config with the paper's priors.
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            alpha: None,
            beta: 0.1,
            n_iters: 50,
            seed: 0,
        }
    }

    fn resolved_alpha(&self) -> f64 {
        self.alpha.unwrap_or(50.0 / self.n_topics as f64)
    }
}

/// The LDA trainer.
#[derive(Debug)]
pub struct Lda {
    config: LdaConfig,
}

/// A fitted LDA model: counts, per-token assignments and derived
/// distributions.
#[derive(Debug, Clone)]
pub struct LdaModel {
    n_topics: usize,
    vocab_size: usize,
    alpha: f64,
    beta: f64,
    /// Per-document token-topic assignments (jagged).
    assignments: Vec<Vec<u32>>,
    /// Flattened `D x Z` document-topic counts.
    n_dz: Vec<u32>,
    /// Word-major `W x Z` topic-word counts: word `w`'s `|Z|` topic
    /// counts are the contiguous run `n_wz[w·|Z| .. (w+1)·|Z|]`, so a
    /// token's topic draw reads one stretch of the plane.
    n_wz: Vec<u32>,
    /// Per-topic totals.
    n_z: Vec<u32>,
}

impl Lda {
    /// Trainer with `config`.
    ///
    /// # Panics
    ///
    /// If `n_topics` is 0 or either Dirichlet prior is not positive and
    /// finite (the sampler's weights rely on both being positive).
    pub fn new(config: LdaConfig) -> Self {
        assert!(config.n_topics >= 1);
        let positive = |x: f64| x.is_finite() && x > 0.0;
        assert!(
            positive(config.resolved_alpha()) && positive(config.beta),
            "LDA priors must be positive and finite"
        );
        Self { config }
    }

    /// Fit on `docs` (token lists — owned vectors or borrowed slices)
    /// over a vocabulary of `vocab_size`.
    pub fn fit<D: AsRef<[WordId]>>(&self, docs: &[D], vocab_size: usize) -> LdaModel {
        let z = self.config.n_topics;
        let alpha = self.config.resolved_alpha();
        let beta = self.config.beta;
        let mut rng = seeded_rng(self.config.seed);

        let mut model = LdaModel {
            n_topics: z,
            vocab_size,
            alpha,
            beta,
            assignments: docs.iter().map(|d| vec![0u32; d.as_ref().len()]).collect(),
            n_dz: vec![0u32; docs.len() * z],
            n_wz: vec![0u32; vocab_size * z],
            n_z: vec![0u32; z],
        };

        // Random initialisation.
        for (d, doc) in docs.iter().enumerate() {
            for (i, w) in doc.as_ref().iter().enumerate() {
                let t = rng.gen_range(0..z);
                model.assignments[d][i] = t as u32;
                model.n_dz[d * z + t] += 1;
                model.n_wz[w.index() * z + t] += 1;
                model.n_z[t] += 1;
            }
        }

        // Per-topic denominators `n_z + |W|β`, refreshed whenever `n_z`
        // moves; each is the expression the weights would otherwise
        // evaluate inline, so the cached values carry the same bits.
        let denom_of = |n: u32| n as f64 + vocab_size as f64 * beta;
        let mut denom: Vec<f64> = model.n_z.iter().map(|&n| denom_of(n)).collect();
        let mut weights = vec![0.0f64; z];
        for _ in 0..self.config.n_iters {
            for (d, doc) in docs.iter().enumerate() {
                let dz = d * z..(d + 1) * z;
                for (i, w) in doc.as_ref().iter().enumerate() {
                    let wz = w.index() * z..(w.index() + 1) * z;
                    let old = model.assignments[d][i] as usize;
                    model.n_dz[dz.start + old] -= 1;
                    model.n_wz[wz.start + old] -= 1;
                    model.n_z[old] -= 1;
                    denom[old] = denom_of(model.n_z[old]);

                    // Fill the weights and their total in one pass.
                    let mut total = 0.0f64;
                    for (((wt, &n_dt), &n_wt), &den) in weights
                        .iter_mut()
                        .zip(&model.n_dz[dz.clone()])
                        .zip(&model.n_wz[wz.clone()])
                        .zip(&denom)
                    {
                        *wt = (n_dt as f64 + alpha) * ((n_wt as f64 + beta) / den);
                        total += *wt;
                    }
                    let new = draw_positive(&mut rng, &weights, total);

                    model.assignments[d][i] = new as u32;
                    model.n_dz[dz.start + new] += 1;
                    model.n_wz[wz.start + new] += 1;
                    model.n_z[new] += 1;
                    denom[new] = denom_of(model.n_z[new]);
                }
            }
        }
        model
    }
}

/// Draw an index proportional to `weights`, every one of which is
/// finite and positive, given their in-order sum `total`.
///
/// For such weights this is `cpd_prob::categorical::sample_index` with
/// its validity filters dropped: the same single uniform scaled by the
/// same total, the same subtraction scan, the same last-index fallback
/// for floating-point slack — so the draws are identical.
fn draw_positive<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    debug_assert!(weights.iter().all(|w| w.is_finite() && *w > 0.0));
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

impl LdaModel {
    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Per-document token-topic assignments, in token order.
    pub fn assignments(&self) -> &[Vec<u32>] {
        &self.assignments
    }

    /// Document-topic distribution `θ*_d` (smoothed, sums to 1).
    pub fn theta(&self, d: usize) -> Vec<f64> {
        let z = self.n_topics;
        let total: u32 = self.n_dz[d * z..(d + 1) * z].iter().sum();
        let denom = total as f64 + z as f64 * self.alpha;
        (0..z)
            .map(|t| (self.n_dz[d * z + t] as f64 + self.alpha) / denom)
            .collect()
    }

    /// Topic-word distribution `φ_z` (smoothed, sums to 1).
    pub fn phi(&self, t: usize) -> Vec<f64> {
        let z = self.n_topics;
        let denom = self.n_z[t] as f64 + self.vocab_size as f64 * self.beta;
        (0..self.vocab_size)
            .map(|w| (self.n_wz[w * z + t] as f64 + self.beta) / denom)
            .collect()
    }

    /// All topic-word rows as a `Z x W` matrix.
    pub fn phi_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.n_topics).map(|t| self.phi(t)).collect()
    }

    /// The most frequent topic among document `d`'s tokens
    /// (ties → smallest topic id; empty docs → topic 0).
    pub fn dominant_topic(&self, d: usize) -> usize {
        let z = self.n_topics;
        let row = &self.n_dz[d * z..(d + 1) * z];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(t, _)| t)
            .unwrap_or(0)
    }

    /// Top-`k` word ids for topic `t` by probability.
    pub fn top_words(&self, t: usize, k: usize) -> Vec<WordId> {
        let z = self.n_topics;
        let mut idx: Vec<usize> = (0..self.vocab_size).collect();
        idx.sort_by(|&a, &b| {
            self.n_wz[b * z + t]
                .cmp(&self.n_wz[a * z + t])
                .then(a.cmp(&b))
        });
        idx.into_iter().take(k).map(WordId::from).collect()
    }

    /// Training-corpus perplexity
    /// `exp(-Σ_d Σ_w ln Σ_z θ_dz φ_zw / N_tokens)`.
    pub fn perplexity<D: AsRef<[WordId]>>(&self, docs: &[D]) -> f64 {
        let mut log_lik = 0.0f64;
        let mut n_tokens = 0usize;
        let phis = self.phi_matrix();
        for (d, doc) in docs.iter().enumerate() {
            let doc = doc.as_ref();
            if doc.is_empty() {
                continue;
            }
            let theta = self.theta(d);
            for w in doc {
                let p: f64 = (0..self.n_topics)
                    .map(|t| theta[t] * phis[t][w.index()])
                    .sum();
                log_lik += p.max(1e-300).ln();
                n_tokens += 1;
            }
        }
        if n_tokens == 0 {
            return f64::NAN;
        }
        (-log_lik / n_tokens as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cleanly separated topics: words 0-4 vs words 5-9.
    fn synthetic_corpus() -> (Vec<Vec<WordId>>, usize) {
        let mut docs = Vec::new();
        for i in 0..60 {
            let base = if i % 2 == 0 { 0u32 } else { 5 };
            let doc: Vec<WordId> = (0..8).map(|j| WordId(base + (i + j) as u32 % 5)).collect();
            docs.push(doc);
        }
        (docs, 10)
    }

    fn fit(n_topics: usize, iters: usize) -> (LdaModel, Vec<Vec<WordId>>) {
        let (docs, w) = synthetic_corpus();
        let model = Lda::new(LdaConfig {
            n_iters: iters,
            seed: 5,
            ..LdaConfig::new(n_topics)
        })
        .fit(&docs, w);
        (model, docs)
    }

    #[test]
    fn recovers_two_planted_topics() {
        let (model, docs) = fit(2, 100);
        // Every even doc should share a dominant topic, every odd doc the
        // other one.
        let t_even = model.dominant_topic(0);
        let t_odd = model.dominant_topic(1);
        assert_ne!(t_even, t_odd);
        let mut correct = 0;
        for d in 0..docs.len() {
            let want = if d % 2 == 0 { t_even } else { t_odd };
            if model.dominant_topic(d) == want {
                correct += 1;
            }
        }
        assert!(correct >= 55, "only {correct}/60 docs classified");
    }

    #[test]
    fn distributions_normalise() {
        let (model, _) = fit(3, 20);
        for d in 0..5 {
            let s: f64 = model.theta(d).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        for t in 0..3 {
            let s: f64 = model.phi(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(model.phi(t).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn top_words_separate_topics() {
        let (model, _) = fit(2, 100);
        let t0: Vec<usize> = model.top_words(0, 5).iter().map(|w| w.index()).collect();
        let t1: Vec<usize> = model.top_words(1, 5).iter().map(|w| w.index()).collect();
        // One topic's top words live in 0..5, the other's in 5..10.
        let low0 = t0.iter().filter(|&&w| w < 5).count();
        let low1 = t1.iter().filter(|&&w| w < 5).count();
        assert!(
            (low0 >= 4 && low1 <= 1) || (low0 <= 1 && low1 >= 4),
            "t0 {t0:?} t1 {t1:?}"
        );
    }

    #[test]
    fn perplexity_improves_with_training() {
        let (docs, w) = synthetic_corpus();
        let fresh = Lda::new(LdaConfig {
            n_iters: 0,
            seed: 5,
            ..LdaConfig::new(2)
        })
        .fit(&docs, w);
        let trained = Lda::new(LdaConfig {
            n_iters: 80,
            seed: 5,
            ..LdaConfig::new(2)
        })
        .fit(&docs, w);
        assert!(
            trained.perplexity(&docs) < fresh.perplexity(&docs),
            "trained {} fresh {}",
            trained.perplexity(&docs),
            fresh.perplexity(&docs)
        );
        // Perplexity is bounded below by 1 and above by vocab size for a
        // model that has learned anything on this corpus.
        assert!(trained.perplexity(&docs) >= 1.0);
        assert!(trained.perplexity(&docs) < w as f64);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (a, docs) = fit(2, 10);
        let (b, _) = fit(2, 10);
        assert_eq!(a.dominant_topic(3), b.dominant_topic(3));
        assert_eq!(a.perplexity(&docs), b.perplexity(&docs));
    }

    #[test]
    fn handles_empty_docs() {
        let docs = vec![vec![], vec![WordId(0), WordId(1)]];
        let model = Lda::new(LdaConfig::new(2)).fit(&docs, 2);
        let theta = model.theta(0);
        assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(model.dominant_topic(0), 0);
    }
}
