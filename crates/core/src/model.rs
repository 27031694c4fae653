//! The trainer: variational EM around the collapsed Gibbs sampler
//! (Alg. 1 of the paper), serial or parallel, joint or two-phase.

use crate::config::{CpdConfig, DiffusionModel, ParallelRuntime, TrainingMode};
use crate::features::{UserFeatures, F_COMMUNITY, N_FEATURES};
use crate::gibbs::{
    resample_delta_range, resample_lambda_range, sweep_user_docs, SweepContext, SweepPhase,
};
use crate::gibbs::{SamplerStats, SamplerTables, SweepScratch};
use crate::mstep::{build_nu_training_set_into, estimate_eta_with, fit_nu, MstepScratch};
use crate::parallel::SweepStats;
use crate::parallel::{
    allocate_segments, clone_rebuild_doc_sweep, parallel_resample_delta, parallel_resample_lambda,
    segment_users, FoldBreakdown, Segmentation, WorkerPool,
};
use crate::profiles::{CpdModel, Eta};
use crate::state::{link_metadata, CpdState, NoDelta};
use cpd_prob::rng::seeded_rng;
use cpd_telemetry::{ActiveTrace, Counter, Gauge, Histogram, Registry};
use rand::rngs::StdRng;
use social_graph::SocialGraph;
use std::sync::Arc;
use std::time::Instant;

/// Resident bytes of the three count planes — at V=1M the `W × Z`
/// word-topic plane is the model's dominant allocation, so this records
/// what a fit actually costs in memory. Every plane holds 4 bytes per
/// slot, so the footprint does not depend on the runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneFootprint {
    /// `n_uc` plane + `n_u` marginal bytes.
    pub user_comm: usize,
    /// `n_cz` plane + `n_c` marginal bytes.
    pub comm_topic: usize,
    /// `n_zw` plane + `n_z` marginal bytes.
    pub word_topic: usize,
}

impl PlaneFootprint {
    /// Total resident estimate across the three planes.
    pub fn total(&self) -> usize {
        self.user_comm + self.comm_topic + self.word_topic
    }
}

/// Timing and progress information from a fit.
#[derive(Debug, Clone, Default)]
pub struct FitDiagnostics {
    /// Outer EM iterations executed.
    pub em_iterations: usize,
    /// Wall-clock seconds of each E-step (Gibbs sweeps + PG passes) —
    /// the quantity Fig. 10(a) plots per iteration.
    pub estep_seconds: Vec<f64>,
    /// Wall-clock seconds estimating `η` per M-step (link aggregation,
    /// on the coordinator).
    pub mstep_eta_seconds: Vec<f64>,
    /// Wall-clock seconds per M-step assembling the `ν` training set
    /// and fitting `ν` (gradient passes sharded over the pool).
    pub mstep_nu_seconds: Vec<f64>,
    /// Per-thread busy seconds of the last parallel sweep (Fig. 11).
    pub last_thread_seconds: Vec<f64>,
    /// Barrier seconds folding worker `CountDelta`s into the canonical
    /// state (task distribution + worker-side fold + re-install), one
    /// entry per sharded document sweep (empty for the serial and
    /// clone-rebuild runtimes).
    pub merge_seconds: Vec<f64>,
    /// Worker-side fold seconds split per count array, one entry per
    /// sharded document sweep. Arrays fold on different workers
    /// concurrently (the dominant `n_zw` fold on a worker of its own),
    /// so [`FoldBreakdown::max`] lower-bounds the barrier critical
    /// path.
    pub fold_seconds: Vec<FoldBreakdown>,
    /// Slowest worker's replica-sync seconds (applying the other
    /// shards' deltas + refreshing the Pólya-Gamma vectors), one entry
    /// per sharded document sweep.
    pub snapshot_seconds: Vec<f64>,
    /// Documents whose assignment changed, one entry per sharded sweep
    /// (the quantity the delta runtime's cost scales with).
    pub changed_docs: Vec<usize>,
    /// Threads used (1 = serial).
    pub threads: usize,
    /// The parallel runtime the fit was configured with.
    pub runtime: ParallelRuntime,
    /// Resident bytes of the three count planes (4 bytes per slot).
    pub plane_bytes: PlaneFootprint,
    /// Sampler accounting per document sweep (merged across workers):
    /// the sparse-row tallies of the `Exact` draws, the provenance of
    /// its hot-path speedup (see [`SamplerStats::avg_row_occupancy`]).
    /// `Dense` scans no row sparsely and leaves them at zero.
    pub sampler_stats: Vec<SamplerStats>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
}

/// A fitted model plus its diagnostics.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The fitted CPD model.
    pub model: CpdModel,
    /// Timing diagnostics.
    pub diagnostics: FitDiagnostics,
}

/// Live metric handles resolved once per fit from an attached
/// [`Registry`]. `FitDiagnostics` stays the post-hoc snapshot; these
/// make the same quantities observable *mid-fit* (another thread can
/// scrape the registry while sweeps run). All recording is per sweep
/// or per M-step — a handful of relaxed atomics at barrier
/// granularity, never on the per-token hot path.
struct FitMetrics {
    /// `cpd_fit_span_seconds{span=...}` — one histogram per span kind.
    sweep_span: Histogram,
    estep_span: Histogram,
    fold_span: Histogram,
    mstep_eta_span: Histogram,
    mstep_nu_span: Histogram,
    pg_lambda_span: Histogram,
    pg_delta_span: Histogram,
    /// `cpd_fit_sweeps_total`.
    sweeps: Counter,
    /// `cpd_fit_changed_docs_total`.
    changed_docs: Counter,
    /// `cpd_fit_em_iteration` — completed outer EM iterations.
    em_iteration: Gauge,
}

impl FitMetrics {
    fn resolve(r: &Registry) -> Self {
        let span = |kind: &str| {
            r.histogram(
                "cpd_fit_span_seconds",
                "Wall-clock seconds of trainer spans, by span kind",
                &[("span", kind)],
            )
        };
        FitMetrics {
            sweep_span: span("sweep"),
            estep_span: span("estep"),
            fold_span: span("fold"),
            mstep_eta_span: span("mstep_eta"),
            mstep_nu_span: span("mstep_nu"),
            pg_lambda_span: span("pg_lambda"),
            pg_delta_span: span("pg_delta"),
            sweeps: r.counter("cpd_fit_sweeps_total", "Document sweeps executed", &[]),
            changed_docs: r.counter(
                "cpd_fit_changed_docs_total",
                "Documents whose assignment changed, summed over sweeps",
                &[],
            ),
            em_iteration: r.gauge(
                "cpd_fit_em_iteration",
                "Completed outer EM iterations of the current fit",
                &[],
            ),
        }
    }
}

/// Push one pooled sweep's barrier stats into both views: the
/// [`FitDiagnostics`] vectors (post-hoc) and, when attached, the live
/// registry metrics.
fn record_pool_sweep(
    diagnostics: &mut FitDiagnostics,
    metrics: Option<&FitMetrics>,
    stats: SweepStats,
) {
    if let Some(m) = metrics {
        m.fold_span.record_secs(stats.merge_seconds);
        m.changed_docs.add(stats.changed_docs as u64);
    }
    diagnostics.last_thread_seconds = stats.thread_seconds;
    diagnostics.merge_seconds.push(stats.merge_seconds);
    diagnostics.snapshot_seconds.push(stats.snapshot_seconds);
    diagnostics.changed_docs.push(stats.changed_docs);
    diagnostics.fold_seconds.push(stats.fold);
    diagnostics.sampler_stats.push(stats.sampler);
}

/// One Pólya-Gamma `λ` pass (Eq. 15) over every friendship link: on the
/// pool's threads when there are several, else serially from `rng`.
/// Records one `pg_lambda` span observation when a registry is attached.
fn lambda_pass(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    threads: usize,
    sweep_counter: u64,
    rng: &mut StdRng,
    metrics: Option<&FitMetrics>,
) {
    let start = Instant::now();
    if threads > 1 {
        parallel_resample_lambda(ctx, state, threads, sweep_counter);
    } else {
        let mut lam = std::mem::take(&mut state.lambda);
        resample_lambda_range(ctx, state, 0, lam.len(), &mut lam, rng);
        state.lambda = lam;
    }
    if let Some(m) = metrics {
        m.pg_lambda_span.record_secs(start.elapsed().as_secs_f64());
    }
}

/// One Pólya-Gamma `δ` pass (Eq. 16) over every diffusion link, caching
/// each link's feature vector into `cached_x` for the `ν` M-step.
/// Records one `pg_delta` span observation when a registry is attached.
fn delta_pass(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    threads: usize,
    sweep_counter: u64,
    rng: &mut StdRng,
    cached_x: &mut Vec<[f64; N_FEATURES]>,
    metrics: Option<&FitMetrics>,
) {
    let start = Instant::now();
    if threads > 1 {
        *cached_x = parallel_resample_delta(ctx, state, threads, sweep_counter);
    } else {
        let mut del = std::mem::take(&mut state.delta);
        resample_delta_range(ctx, state, 0, del.len(), &mut del, cached_x, rng);
        state.delta = del;
    }
    if let Some(m) = metrics {
        m.pg_delta_span.record_secs(start.elapsed().as_secs_f64());
    }
}

/// The CPD trainer.
#[derive(Debug, Clone)]
pub struct Cpd {
    config: CpdConfig,
    telemetry: Option<Arc<Registry>>,
    trace: Option<(ActiveTrace, u64)>,
}

impl Cpd {
    /// Create a trainer, validating the configuration.
    pub fn new(config: CpdConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self {
            config,
            telemetry: None,
            trace: None,
        })
    }

    /// Attach a metric registry: every [`fit`](Cpd::fit) then streams
    /// per-sweep spans (`cpd_fit_span_seconds`), sweep counters, and an
    /// EM-iteration gauge into it live. Without a
    /// registry the trainer runs the exact pre-telemetry
    /// instructions; with one, recording happens at sweep/barrier
    /// granularity only, so the per-token hot path is untouched.
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The attached metric registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Registry>> {
        self.telemetry.as_ref()
    }

    /// Attach an active trace: [`fit`](Cpd::fit) records a `fit` span
    /// under `parent_span` with one `fit_sweep` child per document
    /// sweep — the same span vocabulary the serve path emits for
    /// fold-in Gibbs work, so an offline refit driven from a traced
    /// request (or a tooling harness) reads identically in a trace
    /// dump. Recording happens at sweep granularity only; like
    /// [`with_telemetry`](Cpd::with_telemetry) the per-token hot path
    /// is untouched, and without a trace nothing is recorded.
    pub fn with_trace(mut self, trace: ActiveTrace, parent_span: u64) -> Self {
        self.trace = Some((trace, parent_span));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &CpdConfig {
        &self.config
    }

    /// Fit the model on `graph` (Alg. 1).
    ///
    /// With `threads > 1` under the default
    /// [`ParallelRuntime::DeltaSharded`], the E-step workers are spawned
    /// once here and live for the whole fit, exchanging sparse
    /// `CountDelta`s with the coordinator every sweep (see
    /// `parallel.rs`, "Parallel runtime").
    pub fn fit(&self, graph: &SocialGraph) -> FitResult {
        let start = Instant::now();
        let cfg = &self.config;
        let features = UserFeatures::compute(graph);
        let links = link_metadata(graph);
        let tables = SamplerTables::new(graph, cfg);
        let mut state = CpdState::init(graph, cfg);
        let mut eta = Arc::new(Eta::uniform(cfg.n_communities, cfg.n_topics));
        let mut nu = vec![0.0f64; N_FEATURES];
        nu[F_COMMUNITY] = 1.0;

        let threads = cfg.threads.unwrap_or(1).max(1);
        let all_users: Vec<u32> = (0..graph.n_users() as u32).collect();
        let runtime = cfg.parallel_runtime;
        // Segment + allocate once up front (Sect. 4.3); reused every sweep.
        let user_groups: Option<Vec<Vec<u32>>> = if threads > 1 {
            let seg: Segmentation = segment_users(
                graph,
                cfg.n_topics.max(threads),
                cfg.n_communities,
                15,
                cfg.seed ^ 0x5E6,
            );
            let groups = allocate_segments(&seg.workloads, threads);
            Some(
                groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .flat_map(|&s| seg.segments[s].iter().copied())
                            .collect()
                    })
                    .collect(),
            )
        } else {
            None
        };

        let mut diagnostics = FitDiagnostics {
            threads,
            runtime,
            ..Default::default()
        };
        let metrics = self.telemetry.as_deref().map(FitMetrics::resolve);
        if let Some(r) = self.telemetry.as_deref() {
            r.event(
                "fit_start",
                format!(
                    "users={} runtime={runtime:?} threads={threads}",
                    graph.n_users()
                ),
            );
        }
        // Trainer spans: the whole fit under one `fit` span, each
        // document sweep a `fit_sweep` child. `sweep_trace` is a
        // cheap clone pair the sweep closure can capture by ref.
        let fit_guard = self
            .trace
            .as_ref()
            .map(|(t, parent)| t.start_span("fit", *parent));
        let sweep_trace: Option<(ActiveTrace, u64)> = self
            .trace
            .as_ref()
            .zip(fit_guard.as_ref())
            .map(|((t, _), g)| (t.clone(), g.id()));
        let mut rng = seeded_rng(cfg.seed ^ 0xE57E9);
        let mut cached_x: Vec<[f64; N_FEATURES]> = vec![[0.0; N_FEATURES]; links.len()];
        let mut sweep_counter = 0u64;

        let mut scratch = SweepScratch::new();
        let mut mscratch = MstepScratch::new(&links);
        let model = std::thread::scope(|scope| {
            // The persistent sharded worker pool — spawned once per fit,
            // each worker cloning the freshly initialised state exactly
            // once.
            let mut pool: Option<WorkerPool<'_>> = match (&user_groups, runtime) {
                (Some(groups), ParallelRuntime::DeltaSharded) => Some(WorkerPool::spawn(
                    scope, graph, cfg, &features, &links, &tables, groups, &state,
                )),
                _ => None,
            };
            diagnostics.plane_bytes = PlaneFootprint {
                user_comm: state.user_comm.mem_bytes(),
                comm_topic: state.comm_topic.mem_bytes(),
                word_topic: state.word_topic.mem_bytes(),
            };

            // One barrier-synchronised document sweep under the active
            // runtime (sharded delta, legacy clone-rebuild, or serial).
            let doc_sweep = |phase: SweepPhase,
                             sweep_counter: u64,
                             pool: &mut Option<WorkerPool<'_>>,
                             state: &mut CpdState,
                             eta: &Arc<Eta>,
                             nu: &[f64],
                             rng: &mut StdRng,
                             scratch: &mut SweepScratch,
                             diagnostics: &mut FitDiagnostics| {
                let sweep_start = Instant::now();
                match pool {
                    Some(pool) => {
                        let nu_arc = Arc::new(nu.to_vec());
                        let stats = pool.sweep(graph, state, phase, sweep_counter, eta, &nu_arc);
                        record_pool_sweep(diagnostics, metrics.as_ref(), stats);
                    }
                    None => {
                        let ctx =
                            SweepContext::new(graph, cfg, eta, nu, &features, &links, &tables);
                        match &user_groups {
                            Some(groups) => {
                                let (thread_seconds, sampler) = clone_rebuild_doc_sweep(
                                    &ctx,
                                    state,
                                    groups,
                                    phase,
                                    sweep_counter,
                                );
                                diagnostics.last_thread_seconds = thread_seconds;
                                diagnostics.sampler_stats.push(sampler);
                            }
                            None => {
                                sweep_user_docs(
                                    &ctx,
                                    state,
                                    &all_users,
                                    rng,
                                    phase,
                                    &mut NoDelta,
                                    scratch,
                                );
                                diagnostics.sampler_stats.push(scratch.take_stats());
                            }
                        }
                    }
                }
                if let Some(m) = &metrics {
                    m.sweeps.inc();
                    m.sweep_span
                        .record_secs(sweep_start.elapsed().as_secs_f64());
                }
                if let Some((t, parent)) = &sweep_trace {
                    t.record_between("fit_sweep", *parent, sweep_start, Instant::now());
                }
            };

            // "No joint modeling": phase 1 detects communities from
            // friendship links alone before any profiling sweeps.
            if cfg.training == TrainingMode::TwoPhase {
                for _ in 0..cfg.em_iters {
                    for _ in 0..cfg.gibbs_sweeps {
                        sweep_counter += 1;
                        doc_sweep(
                            SweepPhase::DetectOnly,
                            sweep_counter,
                            &mut pool,
                            &mut state,
                            &eta,
                            &nu,
                            &mut rng,
                            &mut scratch,
                            &mut diagnostics,
                        );
                        let ctx =
                            SweepContext::new(graph, cfg, &eta, &nu, &features, &links, &tables);
                        lambda_pass(
                            &ctx,
                            &mut state,
                            threads,
                            sweep_counter,
                            &mut rng,
                            metrics.as_ref(),
                        );
                    }
                }
            }

            let doc_phase = match cfg.training {
                TrainingMode::Joint => SweepPhase::Full,
                TrainingMode::TwoPhase => SweepPhase::ProfileOnly,
            };

            for _ in 0..cfg.em_iters {
                // ---- E-step ----------------------------------------------
                let e_start = Instant::now();
                for _ in 0..cfg.gibbs_sweeps {
                    sweep_counter += 1;
                    doc_sweep(
                        doc_phase,
                        sweep_counter,
                        &mut pool,
                        &mut state,
                        &eta,
                        &nu,
                        &mut rng,
                        &mut scratch,
                        &mut diagnostics,
                    );
                    let ctx = SweepContext::new(graph, cfg, &eta, &nu, &features, &links, &tables);
                    if cfg.use_friendship && doc_phase != SweepPhase::ProfileOnly {
                        lambda_pass(
                            &ctx,
                            &mut state,
                            threads,
                            sweep_counter,
                            &mut rng,
                            metrics.as_ref(),
                        );
                    }
                    delta_pass(
                        &ctx,
                        &mut state,
                        threads,
                        sweep_counter,
                        &mut rng,
                        &mut cached_x,
                        metrics.as_ref(),
                    );
                }
                let e_secs = e_start.elapsed().as_secs_f64();
                if let Some(m) = &metrics {
                    m.estep_span.record_secs(e_secs);
                }
                diagnostics.estep_seconds.push(e_secs);

                // ---- M-step ----------------------------------------------
                let m_start = Instant::now();
                eta = Arc::new(estimate_eta_with(
                    &state,
                    &links,
                    cfg.eta_smoothing,
                    &mut mscratch.eta_counts,
                ));
                let eta_secs = m_start.elapsed().as_secs_f64();
                if let Some(m) = &metrics {
                    m.mstep_eta_span.record_secs(eta_secs);
                }
                diagnostics.mstep_eta_seconds.push(eta_secs);
                let nu_start = Instant::now();
                if cfg.diffusion == DiffusionModel::Full && !links.is_empty() {
                    {
                        let ctx =
                            SweepContext::new(graph, cfg, &eta, &nu, &features, &links, &tables);
                        build_nu_training_set_into(
                            &ctx,
                            &state,
                            &cached_x,
                            &mut rng,
                            &mscratch.linked,
                            &mut mscratch.examples,
                        );
                    }
                    // The gradient passes run on the idle pool workers
                    // when there is a pool — bit-identical to the
                    // serial fit, so `DeltaSharded` stays draw-for-draw
                    // equal to the `CloneRebuild` oracle.
                    match pool.as_mut() {
                        Some(p) => {
                            let examples = std::mem::take(&mut mscratch.examples);
                            mscratch.examples = p.fit_nu(examples, &mut nu, cfg);
                        }
                        None => fit_nu(&mscratch.examples, &mut nu, cfg),
                    }
                }
                let nu_secs = nu_start.elapsed().as_secs_f64();
                if let Some(m) = &metrics {
                    m.mstep_nu_span.record_secs(nu_secs);
                }
                diagnostics.mstep_nu_seconds.push(nu_secs);
                diagnostics.em_iterations += 1;
                if let Some(m) = &metrics {
                    m.em_iteration.set(diagnostics.em_iterations as f64);
                }
            }

            if let Some(pool) = pool {
                pool.shutdown();
            }
            let eta = Arc::try_unwrap(eta).unwrap_or_else(|shared| (*shared).clone());
            extract_model(graph, cfg, &state, eta, nu)
        });

        if let Some(g) = fit_guard {
            g.finish();
        }
        diagnostics.total_seconds = start.elapsed().as_secs_f64();
        if let Some(r) = self.telemetry.as_deref() {
            r.event(
                "fit_done",
                format!(
                    "em_iterations={} total_seconds={:.3}",
                    diagnostics.em_iterations, diagnostics.total_seconds
                ),
            );
        }
        FitResult { model, diagnostics }
    }
}

/// Final parameter estimates from the last sample (Sect. 4.2).
fn extract_model(
    graph: &SocialGraph,
    cfg: &CpdConfig,
    state: &CpdState,
    eta: Eta,
    nu: Vec<f64>,
) -> CpdModel {
    let rho = cfg.resolved_rho();
    let alpha = cfg.resolved_alpha();
    let beta = cfg.beta;
    let pi: Vec<Vec<f64>> = (0..graph.n_users())
        .map(|u| state.pi_hat_row(u, rho))
        .collect();
    let theta: Vec<Vec<f64>> = (0..cfg.n_communities)
        .map(|c| {
            (0..cfg.n_topics)
                .map(|z| state.theta_hat(c, z, alpha))
                .collect()
        })
        .collect();
    // Word-outer over the word-major plane: each word's |Z| counts are
    // read once, contiguously, and scattered across the φ rows.
    let mut phi: Vec<Vec<f64>> = vec![vec![0.0; graph.vocab_size()]; cfg.n_topics];
    for w in 0..graph.vocab_size() {
        for (z, row) in phi.iter_mut().enumerate() {
            row[w] = state.phi_hat(z, w, beta);
        }
    }
    let topic_popularity: Vec<Vec<f64>> = (0..state.n_timestamps)
        .map(|t| {
            (0..cfg.n_topics)
                .map(|z| state.topic_popularity(t, z))
                .collect()
        })
        .collect();
    CpdModel {
        pi,
        theta,
        phi,
        // The last ν M-step built η's topic-major copy; nothing that
        // reads the fitted model needs it.
        eta: eta.without_topic_copy(),
        nu,
        topic_popularity,
        doc_community: state.doc_community.clone(),
        doc_topic: state.doc_topic.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpd_datagen::{generate, GenConfig, Scale};

    fn quick_config(seed: u64) -> CpdConfig {
        CpdConfig {
            em_iters: 3,
            gibbs_sweeps: 1,
            nu_iters: 20,
            seed,
            ..CpdConfig::new(4, 6)
        }
    }

    #[test]
    fn fit_produces_normalised_model() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let fit = Cpd::new(quick_config(1)).unwrap().fit(&g);
        let m = &fit.model;
        assert_eq!(m.pi.len(), g.n_users());
        for row in &m.pi {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for row in &m.theta {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for row in &m.phi {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for c in 0..m.n_communities() {
            let s: f64 = (0..m.n_communities())
                .flat_map(|c2| (0..m.n_topics()).map(move |z| (c2, z)))
                .map(|(c2, z)| m.eta.at(c, c2, z))
                .sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert_eq!(fit.diagnostics.em_iterations, 3);
        assert_eq!(fit.diagnostics.estep_seconds.len(), 3);
        assert_eq!(fit.diagnostics.threads, 1);
    }

    #[test]
    fn fitted_model_does_not_keep_the_topic_major_eta() {
        // The last ν M-step reads Eq. 4 through `Eta::topic_block`,
        // which builds the topic-major copy on that η; the model a fit
        // returns must not carry those |C|²|Z| cells along.
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let fit = Cpd::new(quick_config(1)).unwrap().fit(&g);
        let eta = &fit.model.eta;
        assert!(
            !eta.has_topic_copy(),
            "fit returned η with its topic-major copy"
        );
        // Asked for a block, it builds the copy again from its cells.
        let block = eta.topic_block(1);
        assert_eq!(
            block[2 * eta.n_communities() + 3].to_bits(),
            eta.at(2, 3, 1).to_bits()
        );
        assert!(eta.has_topic_copy());
    }

    #[test]
    fn fit_is_deterministic_for_seed() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let a = Cpd::new(quick_config(5)).unwrap().fit(&g);
        let b = Cpd::new(quick_config(5)).unwrap().fit(&g);
        assert_eq!(a.model.doc_community, b.model.doc_community);
        assert_eq!(a.model.doc_topic, b.model.doc_topic);
        assert_eq!(a.model.nu, b.model.nu);
        let c = Cpd::new(quick_config(6)).unwrap().fit(&g);
        assert_ne!(a.model.doc_community, c.model.doc_community);
    }

    #[test]
    fn parallel_fit_matches_dimensions_and_runs() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            threads: Some(2),
            ..quick_config(2)
        };
        let fit = Cpd::new(cfg).unwrap().fit(&g);
        assert_eq!(fit.diagnostics.threads, 2);
        assert_eq!(fit.diagnostics.last_thread_seconds.len(), 2);
        assert_eq!(fit.model.pi.len(), g.n_users());
    }

    #[test]
    fn two_phase_training_runs() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = quick_config(3).no_joint_modeling();
        let fit = Cpd::new(cfg).unwrap().fit(&g);
        assert_eq!(fit.model.pi.len(), g.n_users());
    }

    #[test]
    fn ablations_run_to_completion() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        for cfg in [
            quick_config(4).no_heterogeneity(),
            quick_config(4).no_topic_factor(),
            quick_config(4).no_individual_and_topic(),
        ] {
            let fit = Cpd::new(cfg).unwrap().fit(&g);
            assert_eq!(fit.model.pi.len(), g.n_users());
        }
    }

    #[test]
    fn cold_style_config_without_friendship_runs() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let mut cfg = quick_config(8);
        cfg.use_friendship = false;
        let fit = Cpd::new(cfg).unwrap().fit(&g);
        assert_eq!(fit.model.pi.len(), g.n_users());
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(Cpd::new(CpdConfig::new(0, 5)).is_err());
    }

    /// Telemetry is live, not post-hoc: a scraper thread polling the
    /// shared registry *while the fit runs* sees the sweep counter
    /// climb monotonically to its final value, and the rendered
    /// Prometheus text carries the trainer span series.
    #[test]
    fn fit_progress_is_observable_mid_fit() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let registry = Arc::new(Registry::new());
        let trainer = Cpd::new(CpdConfig {
            em_iters: 6,
            gibbs_sweeps: 2,
            nu_iters: 20,
            seed: 11,
            ..CpdConfig::new(4, 6)
        })
        .unwrap()
        .with_telemetry(Arc::clone(&registry));
        let sweeps = registry.counter("cpd_fit_sweeps_total", "Document sweeps executed", &[]);

        let observed = std::thread::scope(|scope| {
            let reg = Arc::clone(&registry);
            let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let done_flag = Arc::clone(&done);
            let scraper = scope.spawn(move || {
                let c = reg.counter("cpd_fit_sweeps_total", "Document sweeps executed", &[]);
                let mut seen = Vec::new();
                while !done_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    seen.push(c.get());
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                seen
            });
            let fit = trainer.fit(&g);
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(fit.diagnostics.em_iterations, 6);
            scraper.join().unwrap()
        });

        assert_eq!(sweeps.get(), 12, "6 EM iterations x 2 sweeps");
        assert!(observed.windows(2).all(|w| w[0] <= w[1]), "monotone");

        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE cpd_fit_span_seconds summary"));
        assert!(text.contains("cpd_fit_span_seconds_count{span=\"sweep\"} 12"));
        // One observation per Pólya-Gamma pass: a λ and a δ pass per sweep.
        assert!(text.contains("cpd_fit_span_seconds_count{span=\"pg_lambda\"} 12"));
        assert!(text.contains("cpd_fit_span_seconds_count{span=\"pg_delta\"} 12"));
        assert!(text.contains("cpd_fit_sweeps_total 12"));
        assert!(text.contains("cpd_fit_em_iteration 6"));
        let events = registry.events();
        assert!(events.iter().any(|e| e.kind == "fit_start"));
        assert!(events.iter().any(|e| e.kind == "fit_done"));
    }

    /// Every trainer series a default fit exports moves: no span count
    /// and no counter renders at zero. Two threads, because a serial
    /// fit has no fold and tallies no changed documents.
    #[test]
    fn default_fit_exports_no_dead_series() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let registry = Arc::new(Registry::new());
        Cpd::new(CpdConfig {
            em_iters: 2,
            gibbs_sweeps: 2,
            threads: Some(2),
            ..quick_config(7)
        })
        .unwrap()
        .with_telemetry(Arc::clone(&registry))
        .fit(&g);
        let text = registry.render_prometheus();
        let tallies: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("cpd_fit_"))
            .filter(|l| {
                let name = l.split(['{', ' ']).next().unwrap_or_default();
                name.ends_with("_count") || name.ends_with("_total")
            })
            .collect();
        assert!(
            tallies.contains(&"cpd_fit_sweeps_total 4"),
            "2 EM iterations x 2 sweeps, got {tallies:?}"
        );
        let dead: Vec<&str> = tallies.into_iter().filter(|l| l.ends_with(" 0")).collect();
        assert!(dead.is_empty(), "series that never moved: {dead:?}");
    }

    /// A traced fit records a `fit` span parented where the caller
    /// said, with one `fit_sweep` child per document sweep — the
    /// contract that lets a serving-side trace adopt trainer spans.
    #[test]
    fn fit_records_parentable_trace_spans() {
        use cpd_telemetry::{ActiveTrace, KeepReason};
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let trace = ActiveTrace::begin(0x7E57, 256);
        let root = trace.start_span("refit_request", 0);
        let root_id = root.id();
        let cfg = CpdConfig {
            em_iters: 2,
            gibbs_sweeps: 3,
            nu_iters: 5,
            ..CpdConfig::new(3, 4)
        };
        Cpd::new(cfg)
            .unwrap()
            .with_trace(trace.clone(), root_id)
            .fit(&g);
        root.finish();
        let done = trace.complete(KeepReason::Sampled);
        let fit = done
            .spans
            .iter()
            .find(|s| s.name == "fit")
            .expect("fit span recorded");
        assert_eq!(fit.parent, root_id, "fit parents under the caller's span");
        let sweeps: Vec<_> = done
            .spans
            .iter()
            .filter(|s| s.name == "fit_sweep")
            .collect();
        assert_eq!(sweeps.len(), 6, "2 EM iterations x 3 sweeps");
        assert!(sweeps.iter().all(|s| s.parent == fit.id));
        assert!(sweeps.iter().all(|s| s.end_nanos <= fit.end_nanos));
    }

    /// A fit with no registry attached must behave identically to one
    /// with telemetry — draw-for-draw — so the hooks cannot perturb
    /// the sampler.
    #[test]
    fn telemetry_does_not_change_draws() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let plain = Cpd::new(quick_config(5)).unwrap().fit(&g);
        let instrumented = Cpd::new(quick_config(5))
            .unwrap()
            .with_telemetry(Arc::new(Registry::new()))
            .fit(&g);
        assert_eq!(plain.model.doc_community, instrumented.model.doc_community);
        assert_eq!(plain.model.doc_topic, instrumented.model.doc_topic);
    }
}
