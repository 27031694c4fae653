//! **CPD** — joint Community Profiling and Detection.
//!
//! A full implementation of the model of Cai, Zheng, Zhu, Chang & Huang,
//! *From Community Detection to Community Profiling* (PVLDB 10(6), 2017):
//!
//! * a profile-aware generative model over user documents, friendship
//!   links and diffusion links (Sect. 3);
//! * collapsed Gibbs sampling with Pólya-Gamma augmentation for the two
//!   sigmoid link likelihoods, inside a variational EM loop (Sect. 4);
//! * an LDA-segmented, workload-balanced parallel E-step (Sect. 4.3);
//! * the three community-level applications (Sect. 5): community-aware
//!   diffusion, profile-driven ranking, profile-driven visualisation;
//! * the ablation switches behind the paper's model-design study
//!   (Sect. 6.2): "no joint modeling", "no heterogeneity", "no topic",
//!   "no individual & topic".
//!
//! # Quickstart
//!
//! ```
//! use cpd_core::{Cpd, CpdConfig};
//! use cpd_datagen::{generate, GenConfig, Scale};
//!
//! let (graph, _truth) = generate(&GenConfig::twitter_like(Scale::Tiny));
//! let config = CpdConfig { em_iters: 2, ..CpdConfig::new(4, 6) };
//! let fit = Cpd::new(config).unwrap().fit(&graph);
//! assert_eq!(fit.model.pi.len(), graph.n_users());
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod config;
pub mod counts;
pub mod features;
mod gibbs;
pub mod io;
pub mod model;
pub mod mstep;
pub mod parallel;
pub mod profiles;
pub mod state;

pub use apps::diffusion::{
    membership_link_score, soft_community_factor, word_topic_posterior, DiffusionPredictor,
};
pub use apps::ranking::{
    exp_shift_max, normalise_and_rank, query_log_affinities, query_topics, rank_communities,
};
pub use config::{CpdConfig, DiffusionModel, ParallelRuntime, SamplerKind, TrainingMode};
pub use counts::PairCounts;
pub use features::UserFeatures;
pub use gibbs::SamplerStats;
pub use model::{Cpd, FitDiagnostics, FitResult, PlaneFootprint};
pub use mstep::{estimate_eta, fit_nu, NuExample};
pub use parallel::FoldBreakdown;
pub use profiles::{dominant_index, CpdModel, Eta};

// Re-exported so trainer embedders can attach a registry
// (`Cpd::with_telemetry`) without naming `cpd-telemetry` themselves.
pub use cpd_telemetry::Registry;
