//! CPD model configuration, including the ablation switches used by the
//! model-design study (Sect. 6.2) and the baselines built on CPD.

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
/// (only consulted when `threads` is set; `DeltaSharded` and
/// `CloneRebuild` additionally need `threads > 1` — see the "Parallel
/// runtime" module docs in `parallel.rs` for the three-runtime story).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelRuntime {
    /// Pick a concrete runtime per fit from the corpus shape and the
    /// thread count — `DeltaSharded` for serial fits and small count
    /// planes (keeping the deterministic path), `LockFreeCounts` when
    /// the planes dwarf the per-sweep churn (see `choose_runtime` in
    /// `parallel.rs` for the heuristic and the bench numbers behind
    /// it). The resolved choice is reported in
    /// `FitDiagnostics::runtime`.
    #[default]
    Auto,
    /// Persistent sharded workers exchanging sparse `CountDelta`s; no
    /// per-sweep state clone and no count rebuild (Sect. 4.3 runtime).
    /// Draw-for-draw identical to `CloneRebuild`.
    DeltaSharded,
    /// Legacy runtime: clone the full state per worker per sweep and
    /// rebuild every count matrix after the merge. Kept as a
    /// benchmarking reference and differential-testing oracle.
    CloneRebuild,
    /// `DeltaSharded` plus a shared lock-free word-topic plane: workers
    /// publish `n_zw`/`n_z` increments straight into shared striped
    /// atomics during the sweep, so the biggest count matrix drops out
    /// of the delta logs, the barrier fold and the replica sync
    /// entirely. Mid-sweep reads may observe other shards' in-flight
    /// updates (relaxed ordering), so this runtime is distributionally
    /// — not draw-for-draw — equivalent to the other two. Runs the
    /// sharded pool even at `threads = Some(1)`.
    LockFreeCounts,
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
    /// Overlap the M-step with the next E-step's first document sweep
    /// (sharded runtimes only; ignored when serial). The sweep runs
    /// with the previous iteration's η/ν — they are read-only inputs —
    /// while the coordinator estimates the fresh parameters, swapping
    /// them in behind an `Arc` at the next barrier. The η inputs (the
    /// assignment vectors) are barrier-exact; under `LockFreeCounts`
    /// the ν negative-example features read the live shared planes and
    /// may observe mid-sweep counts (safe but approximate, like the
    /// sweep's own reads — under `DeltaSharded` the overlap stays
    /// fully deterministic). This pipelining changes the draw sequence
    /// (first sweep per iteration sees one-iteration-stale η/ν), so it
    /// is off by default; with it off the M-step still parallelises
    /// over the idle workers, bit-identically to the serial estimators.
    pub overlap_mstep: bool,
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
    /// Topology-aware layout for the shared count planes
    /// (`LockFreeCounts` only): stripe boundaries rounded to 64-byte
    /// cache lines so adjacent stripes never false-share, and the tiny
    /// hot marginals (`n_z`, `n_c`) stride-padded to one slot per line.
    /// Changes where bytes live, never what they count — barrier
    /// exactness and shard partitioning are identical either way. On by
    /// default; the `plane_locality` bench's baseline arm turns it off
    /// to measure the packed legacy layout.
    pub plane_padding: bool,
    /// Pin each sharded worker to a CPU (`worker index mod
    /// available_parallelism`) via `sched_setaffinity`, so first-touch
    /// page placement and the stripe-ownership map stay aligned with
    /// the topology for the whole fit. Linux-only; degrades to a logged
    /// no-op when the kernel refuses (containers, cpuset limits) or on
    /// other platforms. Off by default — pinning helps on multi-socket
    /// boxes and can hurt on shared/oversubscribed ones.
    pub affinity: bool,
    /// Block each lock-free worker's document queue into word-range
    /// tiles (by median word id) so successive token updates hit warm
    /// `n_zw` stripes instead of striding the whole plane. Only changes
    /// the per-worker document *visit order*, and only under
    /// `LockFreeCounts` — the approximate-Gibbs relaxation already
    /// tolerates order changes there, while the draw-identical runtimes
    /// (`DeltaSharded`, serial, `CloneRebuild`) keep user order and
    /// their golden-fingerprint guarantees.
    pub sweep_tiling: bool,
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
            overlap_mstep: false,
            seed: 7,
            training: TrainingMode::Joint,
            diffusion: DiffusionModel::Full,
            individual_factor: true,
            topic_factor: true,
            use_friendship: true,
            plane_padding: true,
            affinity: false,
            sweep_tiling: true,
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
        if self.beta <= 0.0 {
            return Err("beta must be positive".into());
        }
        if let Some(a) = self.alpha {
            if a <= 0.0 {
                return Err("alpha must be positive".into());
            }
        }
        if let Some(r) = self.rho {
            if r <= 0.0 {
                return Err("rho must be positive".into());
            }
        }
        if self.negative_ratio < 0.0 {
            return Err("negative_ratio must be non-negative".into());
        }
        // At 0 a community with no diffusion links gets a 0/0 η row,
        // which the snapshot loader would then refuse.
        if !(self.eta_smoothing.is_finite() && self.eta_smoothing > 0.0) {
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
    }
}
