//! CPD model configuration, including the ablation switches used by the
//! model-design study (Sect. 6.2) and the baselines built on CPD.
//!
//! Parallel execution has two settings, `threads` and
//! `parallel_runtime`, and the two runtimes draw the same values; the
//! M-step has no setting of its own (η runs on the coordinator, ν's
//! gradient on the E-step pool when there is one).

/// How diffusion links are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffusionModel {
    /// The full Eq. 5 sigmoid: community factor + individual factor +
    /// topic-popularity factor.
    Full,
    /// "No heterogeneity" ablation: diffusion links are generated exactly
    /// like friendship links, `σ(π̂_uᵀ π̂_v)` (Eq. 3).
    SameAsFriendship,
}

/// Which parallel E-step runtime executes the per-sweep worker barrier
/// (only consulted when `threads > 1`; a fit with one thread runs the
/// serial sweep under either). Both draw the same values — see the
/// "Parallel runtime" module docs in `parallel.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelRuntime {
    /// Persistent sharded workers exchanging sparse `CountDelta`s; no
    /// per-sweep state clone and no count rebuild (Sect. 4.3 runtime).
    /// Draw-for-draw identical to `CloneRebuild`.
    #[default]
    DeltaSharded,
    /// Legacy runtime: clone the full state per worker per sweep and
    /// rebuild every count matrix after the merge. Kept as a
    /// benchmarking reference and differential-testing oracle.
    CloneRebuild,
}

/// Which per-document sampling math runs inside the Gibbs sweep — the
/// skew-aware hot-path axis. All three kinds target the same collapsed
/// conditionals (Eqs. 13–16); they differ in how the candidate weights
/// are evaluated. See the module docs in `gibbs.rs` for the weight
/// decomposition and the equivalence arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// The historical dense math: one `ln()` per candidate per word,
    /// every candidate scanned. Kept verbatim as the
    /// differential-testing oracle.
    Dense,
    /// Cached + sparse exact path: memoised `ln(count + offset)`
    /// tables replace the transcendental calls and the `n_uc`/`n_cz`
    /// prior factors are built from nonzero row entries over a
    /// constant baseline. Draw-for-draw identical to `Dense` (every
    /// cached value is bitwise equal to the direct computation).
    #[default]
    Exact,
    /// Alias-backed Metropolis–Hastings topic proposals (the LightLDA
    /// trick): the slowly-changing community-topic prior factor is
    /// drawn from a per-community alias table refreshed once per
    /// sweep, corrected by a few MH accept/reject steps against the
    /// exact target. O(mh_steps·|doc|) per topic draw instead of
    /// O(|Z|·|doc|). Statistically equivalent, not draw-identical;
    /// community draws stay on the exact cached path.
    AliasMh,
}

/// Joint vs. two-phase training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingMode {
    /// Joint profiling and detection (the paper's CPD).
    Joint,
    /// "No joint modeling" ablation: first detect communities from
    /// friendship links alone, then freeze them and fit the profiles.
    TwoPhase,
}

/// Full CPD configuration.
#[derive(Debug, Clone)]
pub struct CpdConfig {
    /// `|C|` — number of communities.
    pub n_communities: usize,
    /// `|Z|` — number of topics.
    pub n_topics: usize,
    /// Community-topic Dirichlet prior; `None` = `50/|Z|` (Sect. 4.2).
    pub alpha: Option<f64>,
    /// User-community Dirichlet prior; `None` = `50/|C|` (Sect. 4.2).
    pub rho: Option<f64>,
    /// Topic-word Dirichlet prior (paper: 0.1).
    pub beta: f64,
    /// Outer variational-EM iterations (`T1`).
    pub em_iters: usize,
    /// Gibbs sweeps per E-step.
    pub gibbs_sweeps: usize,
    /// Gradient-descent iterations for `ν` per M-step (`T2`).
    pub nu_iters: usize,
    /// Learning rate for the `ν` logistic regression.
    pub nu_learning_rate: f64,
    /// Negative links sampled per positive link when fitting `ν`.
    pub negative_ratio: f64,
    /// Cap on positive links used per `ν` fit (0 = all).
    pub nu_max_positives: usize,
    /// Smoothing added to `η` cells before row normalisation; must be
    /// finite and positive.
    pub eta_smoothing: f64,
    /// Cap on friendship neighbours examined per document sample
    /// (0 = no cap). High-degree users otherwise dominate the sweep cost.
    pub max_neighbors: usize,
    /// Threads for the parallel E-step (`None`/`Some(1)` = serial).
    pub threads: Option<usize>,
    /// Parallel E-step runtime (ignored when serial).
    pub parallel_runtime: ParallelRuntime,
    /// Per-document sampling math (dense oracle, cached+sparse exact,
    /// or alias-MH approximate).
    pub sampler: SamplerKind,
    /// RNG seed.
    pub seed: u64,
    /// Joint vs. two-phase ("no joint modeling" ablation).
    pub training: TrainingMode,
    /// Full vs. friendship-style diffusion ("no heterogeneity" ablation).
    pub diffusion: DiffusionModel,
    /// Include the individual-preference features ("no individual"
    /// ablation when false).
    pub individual_factor: bool,
    /// Include the topic-popularity feature ("no topic" ablation when
    /// false).
    pub topic_factor: bool,
    /// Model friendship links at all (COLD does not).
    pub use_friendship: bool,
}

impl CpdConfig {
    /// Defaults mirroring the paper's setup for a given `|C|`, `|Z|`.
    pub fn new(n_communities: usize, n_topics: usize) -> Self {
        Self {
            n_communities,
            n_topics,
            alpha: None,
            rho: None,
            beta: 0.1,
            em_iters: 10,
            gibbs_sweeps: 2,
            nu_iters: 100,
            nu_learning_rate: 0.5,
            negative_ratio: 1.0,
            nu_max_positives: 20_000,
            eta_smoothing: 0.05,
            max_neighbors: 64,
            threads: None,
            parallel_runtime: ParallelRuntime::default(),
            sampler: SamplerKind::default(),
            seed: 7,
            training: TrainingMode::Joint,
            diffusion: DiffusionModel::Full,
            individual_factor: true,
            topic_factor: true,
            use_friendship: true,
        }
    }

    /// Configuration tuned for the synthetic-scale experiments.
    ///
    /// The paper's `ρ = 50/|C|` heuristic assumes Twitter-scale corpora
    /// (~290 documents per user); at the synthetic scale (~10 docs/user)
    /// that prior swamps the membership counts and detection barely
    /// moves off chance. The experiment preset uses `ρ = 0.1` and more
    /// EM iterations — see DESIGN.md §2 and the `tune` probe history.
    pub fn experiment(n_communities: usize, n_topics: usize) -> Self {
        Self {
            rho: Some(0.1),
            em_iters: 15,
            gibbs_sweeps: 2,
            nu_iters: 60,
            ..Self::new(n_communities, n_topics)
        }
    }

    /// Resolved `α` (Sect. 4.2 convention).
    pub fn resolved_alpha(&self) -> f64 {
        self.alpha.unwrap_or(50.0 / self.n_topics as f64)
    }

    /// Resolved `ρ` (Sect. 4.2 convention).
    pub fn resolved_rho(&self) -> f64 {
        self.rho.unwrap_or(50.0 / self.n_communities as f64)
    }

    /// The "no joint modeling" ablation of Sect. 6.2.
    pub fn no_joint_modeling(mut self) -> Self {
        self.training = TrainingMode::TwoPhase;
        self
    }

    /// The "no heterogeneity" ablation of Sect. 6.2.
    pub fn no_heterogeneity(mut self) -> Self {
        self.diffusion = DiffusionModel::SameAsFriendship;
        self
    }

    /// The "no topic" ablation of Sect. 6.2.
    pub fn no_topic_factor(mut self) -> Self {
        self.topic_factor = false;
        self
    }

    /// The "no individual & topic" ablation of Sect. 6.2.
    pub fn no_individual_and_topic(mut self) -> Self {
        self.individual_factor = false;
        self.topic_factor = false;
        self
    }

    /// Sanity checks; called by the trainer.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_communities == 0 || self.n_topics == 0 {
            return Err("need at least one community and one topic".into());
        }
        // Non-finite priors trip the log-cache assertions mid-fit; an
        // infinite negative ratio overflows the negative-sample count;
        // a NaN learning rate silently returns an all-NaN ν.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.beta) {
            return Err("beta must be finite and positive".into());
        }
        if !self.alpha.is_none_or(positive) {
            return Err("alpha must be finite and positive".into());
        }
        if !self.rho.is_none_or(positive) {
            return Err("rho must be finite and positive".into());
        }
        if !(self.negative_ratio.is_finite() && self.negative_ratio >= 0.0) {
            return Err("negative_ratio must be finite and non-negative".into());
        }
        if !positive(self.nu_learning_rate) {
            return Err("nu_learning_rate must be finite and positive".into());
        }
        // At 0 a community with no diffusion links gets a 0/0 η row,
        // which the snapshot loader would then refuse.
        if !positive(self.eta_smoothing) {
            return Err("eta_smoothing must be finite and positive".into());
        }
        if let Some(t) = self.threads {
            if t == 0 {
                return Err("threads must be >= 1 when set".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_conventions_resolve() {
        let c = CpdConfig::new(100, 150);
        assert!((c.resolved_alpha() - 50.0 / 150.0).abs() < 1e-12);
        assert!((c.resolved_rho() - 0.5).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn explicit_priors_override() {
        let c = CpdConfig {
            alpha: Some(0.2),
            rho: Some(0.3),
            ..CpdConfig::new(10, 10)
        };
        assert_eq!(c.resolved_alpha(), 0.2);
        assert_eq!(c.resolved_rho(), 0.3);
    }

    #[test]
    fn ablation_builders_set_flags() {
        let base = CpdConfig::new(10, 10);
        assert_eq!(
            base.clone().no_joint_modeling().training,
            TrainingMode::TwoPhase
        );
        assert_eq!(
            base.clone().no_heterogeneity().diffusion,
            DiffusionModel::SameAsFriendship
        );
        assert!(!base.clone().no_topic_factor().topic_factor);
        let ni = base.no_individual_and_topic();
        assert!(!ni.individual_factor && !ni.topic_factor);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = CpdConfig::new(0, 10);
        assert!(c.validate().is_err());
        c = CpdConfig::new(10, 10);
        c.beta = 0.0;
        assert!(c.validate().is_err());
        c = CpdConfig::new(10, 10);
        c.threads = Some(0);
        assert!(c.validate().is_err());
        c = CpdConfig::new(10, 10);
        c.alpha = Some(-1.0);
        assert!(c.validate().is_err());
        for eta_smoothing in [0.0, -0.1, f64::NAN] {
            c = CpdConfig::new(10, 10);
            c.eta_smoothing = eta_smoothing;
            assert!(c.validate().is_err(), "eta_smoothing {eta_smoothing}");
        }
        for bad in [f64::NAN, f64::INFINITY] {
            c = CpdConfig::new(10, 10);
            c.beta = bad;
            assert!(c.validate().is_err(), "beta {bad}");
            c = CpdConfig::new(10, 10);
            c.alpha = Some(bad);
            assert!(c.validate().is_err(), "alpha {bad}");
            c = CpdConfig::new(10, 10);
            c.rho = Some(bad);
            assert!(c.validate().is_err(), "rho {bad}");
            c = CpdConfig::new(10, 10);
            c.negative_ratio = bad;
            assert!(c.validate().is_err(), "negative_ratio {bad}");
        }
        for nu_learning_rate in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            c = CpdConfig::new(10, 10);
            c.nu_learning_rate = nu_learning_rate;
            assert!(c.validate().is_err(), "nu_learning_rate {nu_learning_rate}");
        }
    }
}
