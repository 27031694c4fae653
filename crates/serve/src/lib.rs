//! **cpd-serve** — the online profiling subsystem: what makes a frozen
//! [`CpdModel`](cpd_core::CpdModel) a *service*.
//!
//! The paper's remark 1 (Sect. 1) is that profiling happens **once,
//! offline** and then "serves multiple applications". `cpd-core` covers
//! the offline half: fit with [`Cpd::fit`](cpd_core::Cpd::fit),
//! snapshot with [`io::save_model`](cpd_core::io::save_model) (a
//! checksummed binary file holding every parameter's raw bits, so a
//! loaded model is bit-identical to the fitted one; crash-safe: written
//! to a `.tmp` sibling and renamed into place). This crate is the read
//! path that serves the snapshot — the full lifecycle is
//! **fit → snapshot → serve → reload**:
//!
//! 1. **[`ProfileIndex`]** — an immutable index built once per
//!    snapshot: word → topic log-`φ` posting lists, the Eq. 19
//!    community affinity table, and presorted top-k word/topic tables.
//!    Ranking queries drop from `O(|C|²|Z|)` dense scans to posting
//!    merges plus an `O(|C||Z|)` table walk, with answers **identical**
//!    to the `cpd_core::apps` reference implementations (they share the
//!    same numeric pipeline; `tests/oracle.rs` pins the equality).
//! 2. **[`FoldIn`]** — collapsed-Gibbs fold-in for documents and users
//!    that arrived after training: a local chain over the item's own
//!    `(community, topic)` assignments with every global parameter
//!    frozen, returning posterior membership `π̂` and topic mixtures,
//!    plus friendship/diffusion scores through the same
//!    `apps::diffusion` math as the offline predictor. Batched and
//!    seed-deterministic; the trained model is never written.
//! 3. **[`ServeRuntime`]** — a persistent worker pool answering typed
//!    [`QueryRequest`] batches (community ranking, top words, user
//!    profiles, fold-in, link scores). Latency flows into a
//!    [`cpd_telemetry::Registry`] of per-class histograms (share one
//!    via [`ServeOptions::registry`]); [`ServeDiagnostics`] snapshots
//!    it with p50/p99/p999 per class, queue-depth/high-water and
//!    cache counters, and [`ServeRuntime::prometheus_text`] /
//!    [`ServeRuntime::health`] expose the scrape + probe surface.
//! 4. **[`IndexHandle`]** — the runtime serves the *live snapshot* of a
//!    generation-numbered handle, not a pinned index:
//!    [`ServeRuntime::reload`] builds a fresh index from a new model
//!    snapshot and swaps it in **under full query load** — in-flight
//!    batches finish on the old generation, later batches see the new
//!    one, the worker pool never restarts.
//! 5. **[`FoldCache`]** — fold-in answers are deterministic given
//!    `(item, seed, generation)`, so a sharded, segmented LRU keyed by an FNV
//!    content hash returns repeat fold-ins byte-identically without
//!    re-running the Gibbs chain; the generation in the key makes a
//!    reload an atomic whole-cache invalidation.
//! 6. **[`wire`]** — the versioned, length-prefixed binary codec
//!    (queries, responses, and the reload/stats/metrics/health/
//!    shutdown admin frames) that the `cpd-server` crate speaks over
//!    TCP; oversized frames are rejected before allocation, malformed
//!    ones answered with `Error` frames.
//!
//! # Offline fit → snapshot → serve → reload
//!
//! ```
//! use cpd_core::{io, Cpd, CpdConfig};
//! use cpd_datagen::{generate, GenConfig, Scale};
//! use cpd_serve::{FoldInItem, ProfileIndex, QueryRequest, ServeOptions, ServeRuntime};
//! use std::sync::Arc;
//!
//! // Offline: fit and snapshot (one process, once).
//! let (graph, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
//! let config = CpdConfig { em_iters: 2, ..CpdConfig::new(3, 4) };
//! let fit = Cpd::new(config.clone()).unwrap().fit(&graph);
//! let path = std::env::temp_dir().join("cpd-serve-doc.cpd");
//! io::save_model(&fit.model, &path).unwrap();
//!
//! // Online: load the snapshot, build the index, serve queries
//! // (another process, forever).
//! let model = io::load_model(&path).unwrap();
//! let index = Arc::new(ProfileIndex::build(model, &config));
//! let runtime = ServeRuntime::new(index, None, ServeOptions {
//!     workers: 2,
//!     ..ServeOptions::default()
//! })
//! .unwrap();
//! let responses = runtime.submit_batch(vec![
//!     QueryRequest::TopWords { topic: 0, k: 5 },
//!     QueryRequest::FoldIn {
//!         item: FoldInItem::doc(vec![social_graph::WordId(0)]),
//!         seed: 7,
//!     },
//! ]);
//! assert_eq!(responses.len(), 2);
//!
//! // Later: a refit lands a new snapshot — swap it in without
//! // stopping the pool. Batches before/after the swap each answer on
//! // one consistent generation.
//! let generation = runtime.reload(&path).unwrap();
//! assert_eq!(generation, 2);
//! let final_report = runtime.shutdown();
//! assert_eq!(final_report.total_queries(), 2);
//! # std::fs::remove_file(&path).ok();
//! ```

pub mod cache;
pub mod foldin;
pub mod handle;
pub mod index;
pub mod runtime;
pub mod wire;

pub use cache::{fold_key, CacheStats, FoldCache};
pub use foldin::{FoldIn, FoldInConfig, FoldInItem, FoldScratch, FoldedProfile};
pub use handle::IndexHandle;
pub use index::{ProfileIndex, DEFAULT_TOP_K};
pub use runtime::{
    BatchItem, ClassStats, FaultHook, HealthState, HealthStatus, NetStats, QueryClass,
    QueryRequest, QueryResponse, ServeDiagnostics, ServeOptions, ServeRuntime,
};
pub use wire::{RequestFrame, ResponseFrame, WireError};

// Re-exported so serve embedders can build a shared registry — and
// wire traces through the runtime — without naming `cpd-telemetry`
// directly.
pub use cpd_telemetry::{
    ActiveTrace, KeepReason, Registry, SpanRecord, Trace, TraceConfig, TraceContext, TraceStore,
    Tracer,
};
