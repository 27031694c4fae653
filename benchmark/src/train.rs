//! Training workloads: a generated corpus is built into a graph, fitted
//! with `Cpd::fit` and snapshotted with `io::save_model`, repeatedly.
//!
//! The two corpora pull the trainer in opposite directions. The wide
//! vocabulary (V = 60k) makes the word-topic plane and every V-bound pass
//! (sweep, model extraction, the 70 MB snapshot) dominate while links
//! stay cheap; the link-heavy corpus (80k friendships, 30k diffusions,
//! V = 1,200) makes the Pólya-Gamma passes, the ν M-step and the
//! neighbour terms dominate while the V-bound paths shrink. A change to
//! one side should move one workload and leave the other flat.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::stats::median;
use crate::yardstick::Yardstick;
use crate::Report;
use cpd_core::io::{load_model, save_model};
use cpd_core::parallel::segment_users;
use cpd_core::state::CpdState;
use cpd_core::{Cpd, CpdConfig, CpdModel, Registry};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_eval::{content_profile_perplexity, nmi};
use social_graph::{SocialGraph, SocialGraphBuilder};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum TrainKind {
    WideVocab,
    LinkHeavy,
}

/// E-step threads of every fit.
const FIT_THREADS: usize = 2;
/// Graph builds timed for `setup_s` before each fit and after the last.
const BUILDS_PER_FIT: usize = 3;
/// Fits per run: at least this many, more while the run has time left.
const MIN_FITS: usize = 3;
const MAX_FITS: usize = 10;

impl TrainKind {
    fn corpus(self, seed: u64) -> GenConfig {
        let base = GenConfig {
            seed,
            ..GenConfig::twitter_like(Scale::Medium)
        };
        match self {
            TrainKind::WideVocab => GenConfig {
                vocab_size: 60_000,
                ..base
            },
            TrainKind::LinkHeavy => GenConfig {
                mean_friend_degree: 40.0,
                n_diffusions: 30_000,
                mean_docs_per_user: 2.0,
                mean_words_per_doc: 3.0,
                ..base
            },
        }
    }

    /// Two E-step threads, one per core, and 5 EM iterations (with 3, the
    /// lowest NMI over 20 seeds was barely above chance). On a shared
    /// host each vCPU alternates between a fast and a ~1.4x slower state
    /// for tens of seconds. A serial fit runs at the speed of whichever
    /// vCPU it lands on; a two-thread fit waits at every barrier on the
    /// slower one, which changes state less often. In one interleaved
    /// comparison over ten seeds two-thread fits spread 0.10 (wide) and
    /// 0.05 (link-heavy), serial ones 0.18 and 0.15.
    fn config(self, seed: u64) -> CpdConfig {
        let topics = match self {
            TrainKind::WideVocab => 50,
            TrainKind::LinkHeavy => 20,
        };
        CpdConfig {
            em_iters: 5,
            gibbs_sweeps: 2,
            threads: Some(FIT_THREADS),
            seed,
            ..CpdConfig::experiment(20, topics)
        }
    }

    /// Detection quality a correct fit keeps on every seed (NMI of the
    /// dominant memberships against the planted communities). A random
    /// labelling scores 0.01–0.02; over seeds 1–20 the lowest fit scored
    /// 0.220 (wide) and 0.087 (link-heavy).
    fn nmi_floor(self) -> f64 {
        match self {
            TrainKind::WideVocab => 0.11,
            TrainKind::LinkHeavy => 0.04,
        }
    }
}

/// A builder holding a copy of `graph`'s documents and links.
fn builder_of(graph: &SocialGraph) -> SocialGraphBuilder {
    let mut b = SocialGraphBuilder::new(graph.n_users(), graph.vocab_size());
    for doc in graph.docs() {
        b.add_document(doc.clone());
    }
    for l in graph.friendships() {
        b.add_friendship(l.from, l.to);
    }
    for l in graph.diffusions() {
        b.add_diffusion(l.src, l.dst, l.at);
    }
    b
}

/// The trainer's per-span wall time, summed over one fit, as its
/// registry exports it (`cpd_fit_span_seconds{span=...}`).
fn span_seconds(registry: &Registry, span: &str) -> f64 {
    registry
        .histogram(
            "cpd_fit_span_seconds",
            "Wall-clock seconds of trainer spans, by span kind",
            &[("span", span)],
        )
        .sum_nanos() as f64
        * 1e-9
}

fn list(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| x.into()).collect())
}

pub fn run(kind: TrainKind, seed: u64, secs: f64, traced: bool, work: &Path) -> Report {
    let mut report = Report::default();
    // Started first, so the yardstick builds its inputs while the corpus
    // is generated.
    let mut yard = Yardstick::start();
    let (graph, truth) = generate(&kind.corpus(seed));
    let config = kind.config(seed);
    let tokens = graph.n_tokens();
    report.info("corpus.users", graph.n_users());
    report.info("corpus.docs", graph.n_docs());
    report.info("corpus.tokens", tokens);
    report.info("corpus.vocab", graph.vocab_size());
    report.info("corpus.friendships", graph.friendships().len());
    report.info("corpus.diffusions", graph.diffusions().len());
    let mut ledger = Ledger::new(Instant::now());

    // Set-up: building the graph the trainer reads, a few times before
    // each fit and after the last, so the builds span the run. A
    // yardstick reading between fits puts every build and fit in an
    // interval whose host speed is known.
    yard.read();
    let mut builds = Vec::new();
    let mut build = |ledger: &mut Ledger, interval: usize| {
        for _ in 0..BUILDS_PER_FIT {
            let builder = builder_of(&graph);
            let start = Instant::now();
            let built = builder.build().expect("a generated corpus is valid");
            let end = Instant::now();
            ledger.record("social_graph.build", 0, start, end);
            builds.push(((end - start).as_secs_f64(), interval));
            drop(built);
        }
    };

    let snapshot = work.join("model.cpd");
    let started = Instant::now();
    // Fit `k` runs in yardstick interval `k`.
    let (mut fits, mut saves) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut imbalance, mut changed) = (Vec::new(), Vec::new());
    let fit = loop {
        build(&mut ledger, fits.len());
        // A traced run alternates fits with and without a registry, so
        // their ratio is the telemetry overhead.
        let registry = (traced && fits.len() % 2 == 1).then(|| Arc::new(Registry::new()));
        // The fit initialises its state and segments its users
        // internally; timing the same calls directly, beside the fit
        // they attribute, splits those shares off its residual.
        let untimed = if registry.is_some() {
            let t0 = Instant::now();
            drop(CpdState::init(&graph, &config));
            let t1 = Instant::now();
            // With the arguments `Cpd::fit` passes.
            drop(segment_users(
                &graph,
                config.n_topics.max(FIT_THREADS),
                config.n_communities,
                15,
                config.seed ^ 0x5E6,
            ));
            let t2 = Instant::now();
            ledger.record("core.state_init", 0, t0, t1);
            ledger.record("topic_model.segment", 0, t1, t2);
            (t2 - t0).as_secs_f64()
        } else {
            0.0
        };
        let mut trainer = Cpd::new(config.clone()).expect("valid config");
        if let Some(r) = &registry {
            trainer = trainer.with_telemetry(Arc::clone(r));
        }
        let t0 = Instant::now();
        let fit = trainer.fit(&graph);
        let t1 = Instant::now();
        save_model(&fit.model, &snapshot).expect("snapshot save");
        let t2 = Instant::now();
        yard.read();
        ledger.record("fit", 0, t0, t1);
        ledger.record("io.save", 0, t1, t2);
        let wall = (t1 - t0).as_secs_f64();
        fits.push(wall);
        saves.push((t2 - t1).as_secs_f64());
        match &registry {
            Some(r) => {
                traced_walls.push(wall);
                attribute_fit(&mut ledger, r, wall - untimed);
            }
            None => plain_walls.push(wall),
        }
        // Load balance and delta volume of the parallel E-step.
        let d = &fit.diagnostics;
        let busy = &d.last_thread_seconds;
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        imbalance.push(busy.iter().copied().fold(0.0, f64::max) / mean_busy);
        let sweeps = d.changed_docs.len() * graph.n_docs();
        changed.push(d.changed_docs.iter().sum::<usize>() as f64 / sweeps as f64);
        let enough = fits.len() >= MIN_FITS && (!traced || fits.len() % 2 == 0);
        if fits.len() >= MAX_FITS || (enough && started.elapsed().as_secs_f64() >= secs) {
            break fit;
        }
    };
    build(&mut ledger, fits.len());
    yard.read();
    let speed = yard.factors();
    report.info("yardstick_s", list(&yard.readings));
    drop(yard);
    let timed: Vec<(f64, f64)> = builds.iter().map(|&(s, i)| (s, speed[i])).collect();
    report.at_nominal("setup_s", &timed, false);
    report.info("fit.runtime", format!("{:?}", fit.diagnostics.runtime));
    report.info("fit_s", list(&fits));
    report.info("save_s", list(&saves));
    let fit_to_snapshot: Vec<(f64, f64)> = fits
        .iter()
        .zip(&saves)
        .zip(&speed)
        .map(|((f, s), &k)| ((f + s) * 1e3, k))
        .collect();
    report.at_nominal("latency_ms", &fit_to_snapshot, false);
    // Token samples per second: every sweep resamples every token.
    let samples = (tokens * config.em_iters * config.gibbs_sweeps) as f64;
    let rates: Vec<(f64, f64)> = fits
        .iter()
        .zip(&speed)
        .map(|(s, &k)| (samples / s, k))
        .collect();
    report.at_nominal("throughput", &rates, true);
    report.attempted = fits.len() as u64;

    // Output checks.
    report.check("every fitted model row sums to 1", normalised(&fit.model));
    let loaded = ledger.time("io.load", 0, || load_model(&snapshot));
    report.check(
        "a save -> load round trip returns an equal model",
        loaded
            .map_err(|e| e.to_string())
            .and_then(|loaded| models_equal(&fit.model, &loaded)),
    );
    let quality = nmi(&fit.model.dominant_communities(), &truth.dominant_community);
    report.info("fit.nmi", quality);
    let floor = kind.nmi_floor();
    report.check(
        "fit_nmi stays above its floor",
        (quality >= floor)
            .then_some(())
            .ok_or(format!("NMI {quality:.4} < floor {floor}")),
    );
    let perplexity = content_profile_perplexity(
        graph.docs(),
        &fit.model.pi,
        &fit.model.theta,
        &fit.model.phi,
    );
    report.info("fit.perplexity", perplexity.unwrap_or(f64::NAN));
    report.check(
        "fit_perplexity is finite",
        match perplexity {
            Some(p) if p.is_finite() && p >= 1.0 => Ok(()),
            other => Err(format!("perplexity {other:?}")),
        },
    );

    if traced {
        for (layer, stage) in [
            ("social_graph.build_s", "social_graph.build"),
            ("topic_model.segment_s", "topic_model.segment"),
            ("core.state_init_s", "core.state_init"),
            ("core.sweep_s", "core.sweep"),
            ("core.fold_s", "core.fold"),
            ("core.pg_s", "core.pg"),
            ("core.mstep_eta_s", "core.mstep_eta"),
            ("core.mstep_nu_s", "core.mstep_nu"),
            ("core.residual_s", "core.residual"),
            ("io.save_s", "io.save"),
            ("io.load_s", "io.load"),
        ] {
            report.layer(layer, ledger.median(stage));
        }
        report.layer("core.thread_imbalance", Some(median(&imbalance)));
        report.layer("core.changed_docs_ratio", Some(median(&changed)));
        let plane_mb = fit.diagnostics.plane_bytes.total() as f64 / 1e6;
        report.layer("core.plane_mb", Some(plane_mb));
        let snapshot_mb = std::fs::metadata(&snapshot).map_or(0, |m| m.len()) as f64 / 1e6;
        report.layer("io.snapshot_mb", Some(snapshot_mb));
        report.layer(
            "trace.overhead_ratio",
            Some(median(&traced_walls) / median(&plain_walls)),
        );
        report.ledger = Some(ledger);
    }
    report
}

/// Ledger rows for one fit with a registry attached: the trainer's own
/// span sums (the barrier fold is part of each sweep), the Pólya-Gamma
/// passes as E-step minus sweeps, and the residual no span covers.
/// `wall` is the fit's wall time less the directly timed state
/// initialisation and user segmentation.
fn attribute_fit(ledger: &mut Ledger, registry: &Registry, wall: f64) {
    let sweep = span_seconds(registry, "sweep");
    let estep = span_seconds(registry, "estep");
    let eta = span_seconds(registry, "mstep_eta");
    let nu = span_seconds(registry, "mstep_nu");
    ledger.derived("core.sweep", sweep);
    ledger.derived("core.fold", span_seconds(registry, "fold"));
    ledger.derived("core.pg", estep - sweep);
    ledger.derived("core.mstep_eta", eta);
    ledger.derived("core.mstep_nu", nu);
    ledger.derived("core.residual", wall - estep - eta - nu);
}

/// Every distribution the model holds sums to 1: `π`, `θ`, `φ` rows and
/// each source community's `η` slice.
fn normalised(model: &CpdModel) -> Result<(), String> {
    let rows = |name: &str, rows: &[Vec<f64>]| -> Result<(), String> {
        match rows
            .iter()
            .position(|r| (r.iter().sum::<f64>() - 1.0).abs() > 1e-9)
        {
            Some(i) => Err(format!("{name} row {i} does not sum to 1")),
            None => Ok(()),
        }
    };
    rows("pi", &model.pi)?;
    rows("theta", &model.theta)?;
    rows("phi", &model.phi)?;
    let width = model.n_communities() * model.n_topics();
    for (c, slice) in model.eta.as_slice().chunks(width.max(1)).enumerate() {
        let s: f64 = slice.iter().sum();
        if (s - 1.0).abs() > 1e-9 {
            return Err(format!("eta row {c} sums to {s}"));
        }
    }
    Ok(())
}

/// Exact equality of everything the snapshot stores, except `η`: load
/// re-normalises each row, and over |C|·|Z| = 1,000 cells the row sum's
/// rounding moves values by more than an ulp (well within 1e-12).
fn models_equal(a: &CpdModel, b: &CpdModel) -> Result<(), String> {
    let eta_close = a.eta.n_communities() == b.eta.n_communities()
        && a.eta.n_topics() == b.eta.n_topics()
        && a.eta
            .as_slice()
            .iter()
            .zip(b.eta.as_slice())
            .all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs());
    let fields = [
        ("pi", a.pi == b.pi),
        ("theta", a.theta == b.theta),
        ("phi", a.phi == b.phi),
        ("eta", eta_close),
        ("nu", a.nu == b.nu),
        ("topic_popularity", a.topic_popularity == b.topic_popularity),
        ("doc_community", a.doc_community == b.doc_community),
        ("doc_topic", a.doc_topic == b.doc_topic),
    ];
    match fields.iter().find(|(_, same)| !same) {
        Some((field, _)) => Err(format!(
            "the loaded model's `{field}` differs from the saved one"
        )),
        None => Ok(()),
    }
}
