//! The concurrent query runtime: a persistent worker pool answering
//! typed query batches over the **live snapshot** of a generation-
//! numbered [`IndexHandle`].
//!
//! The pool follows the trainer's `parallel.rs` idiom — workers are
//! spawned **once** (at [`ServeRuntime::new`]) and live for the
//! runtime's lifetime, each with its own [`FoldScratch`] so fold-in
//! queries never allocate in steady state. A batch drains from one
//! shared queue — expensive queries occupy a worker while the rest keep
//! pulling cheap ones — answered concurrently and reassembled in
//! request order.
//!
//! Two serving-hardening layers sit between the queue and the index:
//!
//! * **Snapshot hot-reload** — the runtime does not own a
//!   `ProfileIndex`; it owns an [`IndexHandle`]. [`submit_batch`]
//!   resolves the handle **once per batch**, so every query in a batch
//!   answers on one self-consistent snapshot, and
//!   [`ServeRuntime::reload`] (or [`swap_index`]) can land a new model
//!   under full query load: in-flight batches finish on the old
//!   generation, later batches see the new one, and the worker pool
//!   never restarts.
//! * **Fold-in cache** — fold-in answers are deterministic given
//!   `(item, seed, generation)`, so a sharded, segmented LRU ([`FoldCache`])
//!   short-circuits repeat fold-ins to a byte-identical cached profile.
//!   The generation in the key makes a snapshot swap an atomic
//!   whole-cache invalidation.
//!
//! Per-query-class latency flows into log-bucketed histograms in a
//! [`cpd_telemetry::Registry`] (pass one in via
//! [`ServeOptions::registry`] to share it with, say, the trainer — a
//! private registry is created otherwise), alongside queue-depth /
//! queue-wait gauges and the cache counters. [`ServeDiagnostics`] —
//! the serving counterpart of the trainer's `FitDiagnostics` — is a
//! snapshot view over the same registry (now with p50/p99/p999 per
//! class, not just means), [`ServeRuntime::prometheus_text`] renders
//! it in the Prometheus text exposition format, and
//! [`ServeRuntime::shutdown`] returns the final account.
//!
//! # One wakeup per batch
//!
//! A batch's jobs answer into one shared answer set: a slot per
//! request and a countdown of the slots still unanswered, which starts
//! with one extra count — the submitter's guard — released once the
//! whole batch is queued. Each answer fills its slot and counts down;
//! only the answer that reaches zero wakes the submitting thread. A wake
//! per answer would cost more than the futex: on a 2-core host the
//! woken connection thread preempts a worker mid-batch, so at
//! saturation every answer paid a context switch on both sides. Every
//! job holds a drop guard on its slot, so a job dropped unanswered (a
//! fault hook that panics kills its worker outside the query's unwind
//! catch) answers [`QueryResponse::Error`] and still counts down — no
//! batch waits forever on a lost job. Answers, their slots and order,
//! admission and deadlines are what they were with a reply message per
//! query; only the hand-off changed.
//!
//! [`submit_batch`]: ServeRuntime::submit_batch
//! [`swap_index`]: ServeRuntime::swap_index

use crate::cache::{fold_key, CacheStats, FoldCache};
use crate::foldin::{FoldIn, FoldInConfig, FoldInItem, FoldScratch, FoldedProfile, FriendDraws};
use crate::handle::IndexHandle;
use crate::index::ProfileIndex;
use crate::wire::max_fold_in_docs;
use cpd_core::UserFeatures;
use cpd_telemetry::{
    ActiveTrace, Counter, Gauge, Histogram, KeepReason, Registry, TraceConfig, Tracer,
};
use social_graph::{UserId, WordId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One typed query against the index.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Eq. 19: rank all communities for a word query.
    RankCommunities {
        /// The query's words.
        query: Vec<WordId>,
    },
    /// `p(z | q)` — the query-topic distribution behind the ranking.
    QueryTopics {
        /// The query's words.
        query: Vec<WordId>,
    },
    /// Top-`k` words of a topic (Table 5).
    TopWords {
        /// Topic id.
        topic: usize,
        /// Entries wanted.
        k: usize,
    },
    /// Top-`k` topics of a community's content profile (Def. 4).
    CommunityTopics {
        /// Community id.
        community: usize,
        /// Entries wanted.
        k: usize,
    },
    /// Top-`k` topics of the directed diffusion pair `from → to`
    /// (Def. 5 / Fig. 5(c)).
    PairTopics {
        /// Diffusing community.
        from: usize,
        /// Source community.
        to: usize,
        /// Entries wanted.
        k: usize,
    },
    /// A trained user's membership profile.
    UserProfile {
        /// User id (in the training graph).
        user: UserId,
    },
    /// Eq. 3 friendship probability between two trained users.
    FriendshipScore {
        /// One endpoint.
        u: UserId,
        /// Other endpoint.
        v: UserId,
    },
    /// Eq. 18 diffusion probability: trained user `u` diffusing a
    /// document with `words` authored by `v` at time `at`. Requires the
    /// runtime to hold [`UserFeatures`].
    DiffusionScore {
        /// Candidate diffuser.
        u: UserId,
        /// Author of the source document.
        v: UserId,
        /// The source document's words.
        words: Vec<WordId>,
        /// Diffusion time bucket.
        at: u32,
    },
    /// Fold-in: profile an unseen document or user against the frozen
    /// model. `seed` makes the answer deterministic regardless of which
    /// worker serves it (and is part of the cache key).
    FoldIn {
        /// The unseen item.
        item: FoldInItem,
        /// Per-request sampler seed.
        seed: u64,
    },
}

/// A query's answer, in the same batch slot as its request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Ranked `(id, score)` pairs (communities, topics, or words —
    /// whichever the request asked for).
    Ranking(Vec<(usize, f64)>),
    /// A membership row plus its argmax.
    Profile {
        /// `π_u` over communities.
        membership: Vec<f64>,
        /// Most probable community.
        dominant: usize,
    },
    /// A scalar probability (friendship / diffusion scores).
    Score(f64),
    /// A fold-in posterior profile.
    FoldedIn(Box<FoldedProfile>),
    /// The request was malformed (out-of-range ids, or a query class
    /// the runtime is not equipped for). Serving never panics a worker.
    Error(String),
    /// The runtime shed this query instead of queueing it (queue at
    /// [`ServeOptions::max_queue_depth`]) or dropped it at dequeue
    /// after its deadline passed. `retry_after_ms` is the server's
    /// backoff hint, derived from recent queue waits — retrying sooner
    /// mostly earns another shed.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// The five query classes the runtime meters separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// `RankCommunities` + `QueryTopics`.
    Ranking,
    /// `TopWords` + `CommunityTopics` + `PairTopics`.
    TopWords,
    /// `UserProfile`.
    Profile,
    /// `FoldIn`.
    FoldIn,
    /// `FriendshipScore` + `DiffusionScore`.
    LinkScore,
}

const N_CLASSES: usize = 5;

impl QueryClass {
    fn of(req: &QueryRequest) -> Self {
        match req {
            QueryRequest::RankCommunities { .. } | QueryRequest::QueryTopics { .. } => {
                QueryClass::Ranking
            }
            QueryRequest::TopWords { .. }
            | QueryRequest::CommunityTopics { .. }
            | QueryRequest::PairTopics { .. } => QueryClass::TopWords,
            QueryRequest::UserProfile { .. } => QueryClass::Profile,
            QueryRequest::FoldIn { .. } => QueryClass::FoldIn,
            QueryRequest::FriendshipScore { .. } | QueryRequest::DiffusionScore { .. } => {
                QueryClass::LinkScore
            }
        }
    }

    fn slot(self) -> usize {
        match self {
            QueryClass::Ranking => 0,
            QueryClass::TopWords => 1,
            QueryClass::Profile => 2,
            QueryClass::FoldIn => 3,
            QueryClass::LinkScore => 4,
        }
    }

    /// The `class` label value this class exports under.
    fn label(self) -> &'static str {
        match self {
            QueryClass::Ranking => "ranking",
            QueryClass::TopWords => "top_words",
            QueryClass::Profile => "profile",
            QueryClass::FoldIn => "fold_in",
            QueryClass::LinkScore => "link_score",
        }
    }

    /// The span name a worker records this class's execution under.
    fn span_name(self) -> &'static str {
        match self {
            QueryClass::Ranking => "execute.ranking",
            QueryClass::TopWords => "execute.top_words",
            QueryClass::Profile => "execute.profile",
            QueryClass::FoldIn => "execute.fold_in",
            QueryClass::LinkScore => "execute.link_score",
        }
    }
}

/// Latency account of one query class: count, cumulative time, and
/// histogram-backed tail quantiles (bucket-midpoint readout, within
/// 1/16 relative error — see `cpd-telemetry`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Queries answered.
    pub queries: u64,
    /// Total worker-side seconds spent answering them.
    pub seconds: f64,
    /// Median per-query latency in microseconds (0 when idle).
    pub p50_micros: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_micros: f64,
    /// 99.9th-percentile per-query latency in microseconds.
    pub p999_micros: f64,
}

impl ClassStats {
    /// Mean per-query latency in microseconds (0 when idle).
    pub fn mean_micros(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.seconds * 1e6 / self.queries as f64
        }
    }
}

/// Transport-side counters, filled in by `cpd-server` (all zero when
/// the runtime is driven in-process through [`ServeRuntime::submit_batch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// TCP connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames decoded across all connections.
    pub frames_in: u64,
    /// Response frames written across all connections.
    pub frames_out: u64,
}

/// A snapshot of the runtime's counters — the serving counterpart of
/// the trainer's `FitDiagnostics`.
///
/// Every numeric field here is a **read-through view of a registry
/// series** (the [`Registry`] is the single source of truth; the
/// struct holds no counters of its own). New consumers should prefer
/// the registry — `cpd_serve_shed_total`, `cpd_serve_fold_cache_*`,
/// `cpd_serve_query_seconds{class=...}` and friends — which is live,
/// labelled, and scrapeable; these fields survive as a convenience
/// snapshot for in-process callers and the examples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeDiagnostics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Batches submitted so far.
    pub batches: u64,
    /// Generation of the live index snapshot.
    pub generation: u64,
    /// Most jobs ever waiting in the shared queue at once — the
    /// back-pressure signal (sustained high-water near batch sizes
    /// means the pool is keeping up; growth means it is not).
    pub queue_high_water: u64,
    /// Queries shed at admission because the queue was at
    /// [`ServeOptions::max_queue_depth`].
    pub shed: u64,
    /// Admitted jobs dropped at dequeue because their deadline had
    /// already passed (the answer would have been wasted work).
    pub deadline_exceeded: u64,
    /// Fold-in cache counters.
    pub cache: CacheStats,
    /// Transport counters (zero unless fronted by `cpd-server`).
    pub net: NetStats,
    /// Community/topic ranking queries.
    pub ranking: ClassStats,
    /// Top-word / top-topic table lookups.
    pub top_words: ClassStats,
    /// User-profile lookups.
    pub profile: ClassStats,
    /// Fold-in inference queries.
    pub fold_in: ClassStats,
    /// Friendship / diffusion link scores.
    pub link_score: ClassStats,
}

impl ServeDiagnostics {
    /// Total queries answered across all classes.
    pub fn total_queries(&self) -> u64 {
        self.ranking.queries
            + self.top_words.queries
            + self.profile.queries
            + self.fold_in.queries
            + self.link_score.queries
    }
}

/// Coarse serving condition, for probes and load balancers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting and answering within capacity.
    Ok,
    /// Alive but shedding: the queue hit
    /// [`ServeOptions::max_queue_depth`] or deadlines expired within
    /// the last [`ServeOptions::degraded_window`]. Load balancers
    /// should prefer other replicas but need not eject this one.
    Degraded,
}

/// Liveness/readiness snapshot — what a `Health` probe answers with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthStatus {
    /// The worker pool is up and accepting batches.
    pub ready: bool,
    /// The process is responding at all (always `true` from a live
    /// runtime; the field exists so probes distinguish "no answer"
    /// from "answered unhealthy").
    pub live: bool,
    /// [`HealthState::Degraded`] while the runtime is shedding (or
    /// recently was); [`HealthState::Ok`] otherwise.
    pub state: HealthState,
    /// Generation of the live index snapshot.
    pub generation: u64,
    /// Seconds since the runtime (or its shared registry) started.
    pub uptime_seconds: f64,
}

/// The runtime's handles into its [`Registry`]: per-class latency
/// histograms plus queue instrumentation. The hot path (worker record,
/// enqueue/dequeue) is relaxed atomics only; the cache / generation /
/// uptime mirrors are refreshed at scrape time by [`sync`].
///
/// [`sync`]: ServeMetrics::sync
struct ServeMetrics {
    registry: Arc<Registry>,
    /// `cpd_serve_query_seconds{class=...}`, indexed by
    /// [`QueryClass::slot`].
    query_seconds: [Histogram; N_CLASSES],
    /// `cpd_serve_queue_wait_seconds` — enqueue → dequeue.
    queue_wait: Histogram,
    /// Exact integer queue depth: the admission CAS needs an integer
    /// cell, and `queue_depth_gauge` mirrors it at scrape time.
    queue_depth: AtomicU64,
    queue_depth_gauge: Gauge,
    /// `cpd_serve_queue_high_water`, raised at admission
    /// ([`Gauge::set_max`]) and read back by `diagnostics()`.
    queue_high_water: Gauge,
    /// Admission cap ([`ServeOptions::max_queue_depth`]; 0 =
    /// unbounded) — kept here so the admission CAS and the health
    /// probe read the same number.
    max_queue_depth: u64,
    /// How long after the last shed/deadline-drop the runtime keeps
    /// reporting [`HealthState::Degraded`].
    degraded_window: Duration,
    /// `cpd_serve_shed_total`.
    shed: Counter,
    /// `cpd_serve_deadline_exceeded_total`.
    deadline_exceeded: Counter,
    /// `cpd_serve_health_state` (0 = Ok, 1 = Degraded).
    health_state_gauge: Gauge,
    /// Registry-uptime micros (+1, so 0 means "never") of the most
    /// recent shed or deadline drop — drives the Degraded window.
    last_overload_micros: AtomicU64,
    /// `cpd_serve_batches_total`.
    batches: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_entries: Gauge,
    /// `cpd_serve_fold_in_draws_total{path=...}`: community draws with
    /// friends decided by the certified conditional, and rescanned on
    /// the exact one.
    friend_draws_certified: Counter,
    friend_draws_exact: Counter,
    generation_gauge: Gauge,
    uptime_gauge: Gauge,
    workers_gauge: Gauge,
    /// `cpd_serve_span_seconds{span=...}` — one observation per
    /// [`ServeRuntime::reload`] for the snapshot load, and one for the
    /// index build when the load succeeds.
    snapshot_load_span: Histogram,
    index_build_span: Histogram,
}

impl ServeMetrics {
    fn resolve(registry: Arc<Registry>, max_queue_depth: usize, degraded_window: Duration) -> Self {
        let query_help = "Worker-side query latency by query class";
        let friend_draws = |path: &str| {
            registry.counter(
                "cpd_serve_fold_in_draws_total",
                "Fold-in community draws with friends, by the conditional that decided them",
                &[("path", path)],
            )
        };
        let span = |kind: &str| {
            registry.histogram(
                "cpd_serve_span_seconds",
                "Wall-clock seconds of serving spans, by span kind",
                &[("span", kind)],
            )
        };
        let query_seconds = [
            QueryClass::Ranking,
            QueryClass::TopWords,
            QueryClass::Profile,
            QueryClass::FoldIn,
            QueryClass::LinkScore,
        ]
        .map(|c| {
            registry.histogram(
                "cpd_serve_query_seconds",
                query_help,
                &[("class", c.label())],
            )
        });
        ServeMetrics {
            query_seconds,
            queue_wait: registry.histogram(
                "cpd_serve_queue_wait_seconds",
                "Time jobs spend queued before a worker dequeues them",
                &[],
            ),
            queue_depth: AtomicU64::new(0),
            queue_depth_gauge: registry.gauge(
                "cpd_serve_queue_depth",
                "Jobs currently waiting in the shared queue",
                &[],
            ),
            queue_high_water: registry.gauge(
                "cpd_serve_queue_high_water",
                "Most jobs ever waiting in the shared queue at once",
                &[],
            ),
            max_queue_depth: max_queue_depth as u64,
            degraded_window,
            shed: registry.counter(
                "cpd_serve_shed_total",
                "Queries shed at admission because the queue was at max_queue_depth",
                &[],
            ),
            deadline_exceeded: registry.counter(
                "cpd_serve_deadline_exceeded_total",
                "Admitted jobs dropped at dequeue because their deadline had passed",
                &[],
            ),
            health_state_gauge: registry.gauge(
                "cpd_serve_health_state",
                "Serving condition: 0 = Ok, 1 = Degraded (recent shedding or queue at capacity)",
                &[],
            ),
            last_overload_micros: AtomicU64::new(0),
            batches: registry.counter("cpd_serve_batches_total", "Query batches submitted", &[]),
            cache_hits: registry.counter(
                "cpd_serve_fold_cache_hits_total",
                "Fold-in cache hits",
                &[],
            ),
            cache_misses: registry.counter(
                "cpd_serve_fold_cache_misses_total",
                "Fold-in cache misses",
                &[],
            ),
            cache_evictions: registry.counter(
                "cpd_serve_fold_cache_evictions_total",
                "Fold-in cache LRU evictions",
                &[],
            ),
            cache_entries: registry.gauge(
                "cpd_serve_fold_cache_entries",
                "Profiles resident in the fold-in cache",
                &[],
            ),
            friend_draws_certified: friend_draws("certified"),
            friend_draws_exact: friend_draws("exact"),
            generation_gauge: registry.gauge(
                "cpd_serve_generation",
                "Generation of the live index snapshot",
                &[],
            ),
            uptime_gauge: registry.gauge(
                "cpd_serve_uptime_seconds",
                "Seconds since the metric registry started",
                &[],
            ),
            workers_gauge: registry.gauge(
                "cpd_serve_workers",
                "Worker threads in the serving pool",
                &[],
            ),
            snapshot_load_span: span("snapshot_load"),
            index_build_span: span("index_build"),
            registry,
        }
    }

    fn record(&self, class: QueryClass, nanos: u64) {
        self.query_seconds[class.slot()].record(nanos);
    }

    fn class(&self, class: QueryClass) -> ClassStats {
        let h = &self.query_seconds[class.slot()];
        ClassStats {
            queries: h.count(),
            seconds: h.sum_nanos() as f64 * 1e-9,
            p50_micros: h.quantile(0.5) / 1e3,
            p99_micros: h.quantile(0.99) / 1e3,
            p999_micros: h.quantile(0.999) / 1e3,
        }
    }

    /// Reserve a queue slot, or refuse because the queue is at
    /// [`ServeOptions::max_queue_depth`]. The reservation is a CAS
    /// loop on the depth cell so concurrent batches can never
    /// collectively overshoot the cap — the invariant behind "never
    /// unbounded queue growth".
    fn try_admit(&self) -> bool {
        if self.max_queue_depth == 0 {
            let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.queue_high_water.set_max(depth as f64);
            return true;
        }
        let mut depth = self.queue_depth.load(Ordering::Relaxed);
        loop {
            if depth >= self.max_queue_depth {
                return false;
            }
            match self.queue_depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.queue_high_water.set_max((depth + 1) as f64);
                    return true;
                }
                Err(current) => depth = current,
            }
        }
    }

    fn dequeued(&self, waited: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record_duration(waited);
    }

    /// Note a shed or deadline drop — starts (or extends) the
    /// Degraded window.
    fn note_overload(&self) {
        let now = (self.registry.uptime_seconds() * 1e6) as u64 + 1;
        self.last_overload_micros.fetch_max(now, Ordering::Relaxed);
    }

    /// Degraded while a shed/deadline drop happened within the window,
    /// or while the queue is sitting at its cap right now.
    fn degraded(&self) -> bool {
        if self.max_queue_depth != 0
            && self.queue_depth.load(Ordering::Relaxed) >= self.max_queue_depth
        {
            return true;
        }
        let last = self.last_overload_micros.load(Ordering::Relaxed);
        if last == 0 {
            return false;
        }
        let now = (self.registry.uptime_seconds() * 1e6) as u64 + 1;
        now.saturating_sub(last) <= self.degraded_window.as_micros() as u64
    }

    /// The backoff hint attached to [`QueryResponse::Overloaded`]:
    /// roughly two recent mean queue waits, clamped to a sane band so
    /// cold starts (no samples) and pathological tails both give
    /// usable advice.
    fn retry_after_ms(&self) -> u64 {
        let mean_ms = self
            .queue_wait
            .sum_nanos()
            .checked_div(self.queue_wait.count())
            .unwrap_or(0)
            / 1_000_000;
        (2 * mean_ms).clamp(25, 2_000)
    }

    /// Refresh the scrape-time gauges: queue depth, cache residency,
    /// generation, uptime, pool size. Counters and the queue
    /// high-water are **not** mirrored here — the cache records
    /// hits/misses/evictions straight into the registry cells it was
    /// built with ([`FoldCache::with_counters`]) and admission raises
    /// `cpd_serve_queue_high_water` itself, so the registry is always
    /// current without a sync step.
    fn sync(&self, cache: &CacheStats, generation: u64, workers: usize) {
        self.cache_entries.set(cache.entries as f64);
        self.queue_depth_gauge
            .set(self.queue_depth.load(Ordering::Relaxed) as f64);
        self.generation_gauge.set(generation as f64);
        self.uptime_gauge.set(self.registry.uptime_seconds());
        self.workers_gauge.set(workers as f64);
        self.health_state_gauge
            .set(if self.degraded() { 1.0 } else { 0.0 });
    }
}

/// The answers of one batch, shared by its jobs (see "One wakeup per
/// batch" in the module docs).
struct BatchAnswers {
    slots: Mutex<Vec<Option<QueryResponse>>>,
    /// Slots not yet answered, plus the submitter's guard until it has
    /// queued the whole batch.
    unanswered: AtomicUsize,
    /// Woken once, by whoever takes `unanswered` to zero.
    submitter: std::thread::Thread,
}

impl BatchAnswers {
    /// `n` empty slots of a batch submitted by the calling thread, the
    /// one the last answer wakes.
    fn new(n: usize) -> Self {
        BatchAnswers {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            unanswered: AtomicUsize::new(n + 1),
            submitter: std::thread::current(),
        }
    }

    fn slots(&self) -> MutexGuard<'_, Vec<Option<QueryResponse>>> {
        // Every write under this lock is one slot assignment, so the
        // slots are whole even if a holder panicked.
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Fill `slot` and count it down; the last count wakes the
    /// submitter.
    fn answer(&self, slot: usize, response: QueryResponse) {
        self.slots()[slot] = Some(response);
        // Release: pairs with the Acquire in `wait`, so the submitter
        // that reads zero finds every slot filled.
        if self.unanswered.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.submitter.unpark();
        }
    }

    /// Release the submitter's guard, sleep until every slot is
    /// answered, and take the answers. A spurious or stale unpark only
    /// costs one more look at the countdown.
    fn wait(&self) -> Vec<Option<QueryResponse>> {
        self.unanswered.fetch_sub(1, Ordering::AcqRel);
        while self.unanswered.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        std::mem::take(&mut *self.slots())
    }
}

/// A job's claim on its batch slot. Sending consumes it; a claim
/// dropped unsent — its worker died before answering — answers
/// [`QueryResponse::Error`], so the batch still completes.
struct Reply {
    answers: Arc<BatchAnswers>,
    slot: usize,
    sent: bool,
}

impl Reply {
    fn send(mut self, response: QueryResponse) {
        self.sent = true;
        self.answers.answer(self.slot, response);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            self.answers.answer(
                self.slot,
                QueryResponse::Error("query lost: its worker stopped before answering".into()),
            );
        }
    }
}

/// One unit of work: the request, the snapshot the whole batch resolved
/// to, and the claim on the batch slot its answer goes to.
struct Job {
    request: QueryRequest,
    /// The snapshot this job's batch loaded from the handle — every job
    /// of a batch carries the same `Arc`, so a swap mid-batch cannot
    /// mix generations within one batch.
    index: Arc<ProfileIndex>,
    generation: u64,
    /// When the job entered the shared queue (feeds the queue-wait
    /// histogram at dequeue).
    enqueued: Instant,
    /// Answer-by time: the tighter of the caller's wire deadline and
    /// the runtime's [`ServeOptions::max_queue_wait`]. Workers drop
    /// expired jobs at dequeue — the caller has given up, so the
    /// answer would be wasted capacity.
    deadline: Option<Instant>,
    /// Sampled requests carry their live span tree plus the span id to
    /// parent worker spans under; unsampled requests carry `None` and
    /// the worker records nothing.
    trace: Option<(ActiveTrace, u64)>,
    /// The wire trace id when the request carried one (sampled or
    /// not) — labels fault-hook hits and tail-sampled traces.
    trace_id: Option<u64>,
    reply: Reply,
}

/// A named observation/injection point threaded through the runtime's
/// hot paths, for deterministic fault injection in tests (see the
/// `cpd-chaos` crate). The runtime calls the hook with a stable point
/// name plus the request's trace id when it has one, so a chaos log
/// can be joined against trace dumps; an armed hook may sleep to
/// simulate slow workers or delayed reloads. `None` (the default)
/// costs one branch per point.
///
/// Current points: `"serve.worker_execute"` (before each query
/// executes) and `"serve.reload_build"` (before a reload builds the
/// new index). A hook that panics at `"serve.worker_execute"` kills
/// its worker (it runs outside the query's unwind catch); the job it
/// held answers [`QueryResponse::Error`], and the other workers serve
/// on.
#[derive(Clone)]
pub struct FaultHook(FaultHookFn);

/// The boxed callback behind a [`FaultHook`]: point name plus the
/// crossing request's trace id, if any.
type FaultHookFn = Arc<dyn Fn(&str, Option<u64>) + Send + Sync>;

impl FaultHook {
    /// Wrap a callback invoked at every hook point with the point's
    /// name (the trace id, if any, is dropped — the pre-tracing
    /// signature, kept for callers that only care *that* a point
    /// fired).
    pub fn new(f: impl Fn(&str) + Send + Sync + 'static) -> Self {
        Self(Arc::new(move |point, _trace| f(point)))
    }

    /// Wrap a callback that also receives the hitting request's trace
    /// id (`None` at non-request points such as reloads, or for
    /// traceless requests).
    pub fn new_traced(f: impl Fn(&str, Option<u64>) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Invoke the hook at `point` with no trace attribution.
    pub fn hit(&self, point: &str) {
        (self.0)(point, None)
    }

    /// Invoke the hook at `point` on behalf of a request whose trace
    /// id is `trace_id`.
    pub fn hit_traced(&self, point: &str, trace_id: Option<u64>) {
        (self.0)(point, trace_id)
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

/// Runtime construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads (0 = one per available CPU core, capped at 8).
    pub workers: usize,
    /// Fold-in sampler settings (per-request seeds override the root
    /// seed in here).
    pub fold_in: FoldInConfig,
    /// Fold-in cache capacity in profiles (0 disables the cache).
    pub fold_cache_capacity: usize,
    /// Metric registry to record into. Pass the registry a trainer was
    /// fitted with and one scrape surfaces both layers
    /// (`cpd_fit_*` + `cpd_serve_*`); when `None`, the runtime creates
    /// a private registry — `prometheus_text` and the histogram-backed
    /// diagnostics work either way.
    pub registry: Option<Arc<Registry>>,
    /// Admission cap: jobs beyond this many waiting in the shared
    /// queue are shed with [`QueryResponse::Overloaded`] instead of
    /// queued (0 = unbounded, the pre-hardening behaviour — not
    /// recommended for production).
    pub max_queue_depth: usize,
    /// Implicit deadline for every admitted job: one that has waited
    /// longer than this when a worker dequeues it is dropped as
    /// [`QueryResponse::Overloaded`] rather than executed (`None`
    /// disables). Callers with tighter wire deadlines override this
    /// downward, never upward.
    pub max_queue_wait: Option<Duration>,
    /// How long after the last shed/deadline drop [`ServeRuntime::health`]
    /// keeps reporting [`HealthState::Degraded`] — hysteresis so load
    /// balancers see a stable signal, not a flapping one.
    pub degraded_window: Duration,
    /// Deterministic fault-injection hook (tests only; see
    /// [`FaultHook`]). `None` in production.
    pub fault_hook: Option<FaultHook>,
    /// Request-tracing policy: head-sampling rate, slow threshold,
    /// trace-store capacity, span cap (see
    /// [`cpd_telemetry::TraceConfig`]). The default head-samples
    /// nothing; tail triggers (shed / deadline drop / error / slow)
    /// still capture forensic traces.
    pub trace: TraceConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            fold_in: FoldInConfig::default(),
            fold_cache_capacity: 1024,
            registry: None,
            max_queue_depth: 1024,
            max_queue_wait: Some(Duration::from_secs(30)),
            degraded_window: Duration::from_secs(5),
            fault_hook: None,
            trace: TraceConfig::default(),
        }
    }
}

/// One request of a traced batch: what to run, when to give up, and
/// which trace (if any) the work should record into.
///
/// [`ServeRuntime::submit_batch`] and `submit_batch_with_deadlines`
/// build untraced items internally; the server edge (or any in-process
/// caller holding an [`ActiveTrace`]) uses
/// [`ServeRuntime::submit_batch_items`] to thread its trace through
/// the queue and workers.
#[derive(Debug)]
pub struct BatchItem {
    /// The query.
    pub request: QueryRequest,
    /// Caller's answer-by time (tightened by
    /// [`ServeOptions::max_queue_wait`], never loosened).
    pub deadline: Option<Instant>,
    /// For head-sampled requests: the live trace and the span id that
    /// queue/worker spans parent under.
    pub trace: Option<(ActiveTrace, u64)>,
    /// The request's trace id even when unsampled (labels tail-sampled
    /// forensics and fault-hook hits). Ignored when `trace` is set —
    /// the live trace's own id wins.
    pub trace_id: Option<u64>,
}

impl BatchItem {
    /// An untraced item with no deadline.
    pub fn new(request: QueryRequest) -> Self {
        BatchItem {
            request,
            deadline: None,
            trace: None,
            trace_id: None,
        }
    }
}

/// A persistent serving pool over the live snapshot of an
/// [`IndexHandle`].
pub struct ServeRuntime {
    handle: Arc<IndexHandle>,
    cache: Arc<FoldCache>,
    /// Shared work queue: every worker pulls from the same channel, so
    /// an expensive query (fold-in) occupies one worker while the
    /// others keep draining cheap lookups — no per-worker assignment
    /// that a pathological batch stride could starve. `None` only
    /// during teardown.
    tx: Option<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
    /// Implicit per-job deadline (see [`ServeOptions::max_queue_wait`]).
    max_queue_wait: Option<Duration>,
    /// Fault-injection hook for the non-worker points (reload).
    fault_hook: Option<FaultHook>,
    /// Tracing policy + completed-trace store (see
    /// [`ServeOptions::trace`]).
    tracer: Arc<Tracer>,
}

impl ServeRuntime {
    /// Spawn the worker pool over `index` (published as generation 1 of
    /// a fresh [`IndexHandle`]). `features` enables `DiffusionScore`
    /// queries (they need the diffuser's static features, which live
    /// outside the model); pass `None` for a model-only deployment.
    pub fn new(
        index: Arc<ProfileIndex>,
        features: Option<Arc<UserFeatures>>,
        options: ServeOptions,
    ) -> Result<Self, String> {
        options.fold_in.validate()?;
        let workers = if options.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            options.workers
        };
        let handle = Arc::new(IndexHandle::new(index));
        let registry = options
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = Arc::new(ServeMetrics::resolve(
            registry,
            options.max_queue_depth,
            options.degraded_window,
        ));
        // The cache counts straight into the registry series — no
        // scrape-time mirroring, one source of truth.
        let cache = Arc::new(FoldCache::with_counters(
            options.fold_cache_capacity,
            metrics.cache_hits.clone(),
            metrics.cache_misses.clone(),
            metrics.cache_evictions.clone(),
        ));
        let tracer = Arc::new(Tracer::new(options.trace));
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let features = features.clone();
            let metrics = Arc::clone(&metrics);
            let cache = Arc::clone(&cache);
            let fold_cfg = options.fold_in.clone();
            let fault_hook = options.fault_hook.clone();
            let tracer = Arc::clone(&tracer);
            let worker = std::thread::Builder::new().name(format!("cpd-serve-w{i}"));
            let spawned = worker.spawn(move || {
                let mut scratch = FoldScratch::new();
                loop {
                    // Hold the lock only for the dequeue; workers never
                    // panic while holding it (execution is unwind-
                    // caught below), so a poisoned mutex is recovered
                    // rather than propagated.
                    let job = {
                        let guard = match rx.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        match guard.recv() {
                            Ok(job) => job,
                            Err(_) => break, // Runtime dropped; shut down.
                        }
                    };
                    let dequeued_at = Instant::now();
                    metrics.dequeued(dequeued_at - job.enqueued);
                    let class = QueryClass::of(&job.request);
                    if let Some((t, parent)) = &job.trace {
                        t.record_between("queue_wait", *parent, job.enqueued, dequeued_at);
                    }
                    // An expired job is answered `Overloaded` without
                    // executing: its caller (or the queue-wait cap)
                    // already gave up on the answer, and burning a
                    // worker on it would starve jobs that can still
                    // make their deadlines.
                    if job.deadline.is_some_and(|d| Instant::now() > d) {
                        metrics.deadline_exceeded.inc();
                        metrics.note_overload();
                        match &job.trace {
                            Some((t, parent)) => {
                                t.record_between(
                                    "deadline_dropped",
                                    *parent,
                                    dequeued_at,
                                    Instant::now(),
                                );
                            }
                            None => {
                                // Tail-sample the drop so forensics see
                                // it even though nothing head-sampled
                                // this request. The span covers the
                                // whole doomed queue residence.
                                tracer.tail_sample(
                                    job.trace_id,
                                    class.label(),
                                    KeepReason::DeadlineExceeded,
                                    job.enqueued,
                                    Instant::now(),
                                );
                            }
                        }
                        job.reply.send(QueryResponse::Overloaded {
                            retry_after_ms: metrics.retry_after_ms(),
                        });
                        continue;
                    }
                    if let Some(hook) = &fault_hook {
                        let trace_id = job
                            .trace
                            .as_ref()
                            .map(|(t, _)| t.trace_id())
                            .or(job.trace_id);
                        hook.hit_traced("serve.worker_execute", trace_id);
                    }
                    let exec_span = job
                        .trace
                        .as_ref()
                        .map(|(t, parent)| t.start_span(class.span_name(), *parent));
                    let trace_ref = job
                        .trace
                        .as_ref()
                        .zip(exec_span.as_ref())
                        .map(|((t, _), s)| (t, s.id()));
                    let start = Instant::now();
                    // A panic inside a query (e.g. NaNs smuggled into a
                    // hand-built model) must not take the worker — and
                    // with it every future batch — down. The scratch is
                    // refilled from scratch per request, so it is safe
                    // to reuse after an unwind.
                    let request = job.request;
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute(
                            &job.index,
                            job.generation,
                            features.as_deref(),
                            &fold_cfg,
                            &cache,
                            &mut scratch,
                            request,
                            trace_ref,
                        )
                    }))
                    .unwrap_or_else(|panic| {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "query panicked".into());
                        QueryResponse::Error(format!("query panicked: {msg}"))
                    });
                    drop(exec_span);
                    let end = Instant::now();
                    metrics.record(class, (end - start).as_nanos() as u64);
                    let draws = scratch.take_friend_draws();
                    if draws != FriendDraws::default() {
                        metrics.friend_draws_certified.add(draws.certified);
                        metrics.friend_draws_exact.add(draws.exact);
                    }
                    if job.trace.is_none() {
                        // Tail-sampling triggers for requests nothing
                        // head-sampled: errors always, plus anything
                        // whose queue+execute extent crossed the slow
                        // threshold. (Sampled traces get their keep
                        // reason at completion, from whoever owns the
                        // ActiveTrace.)
                        if matches!(response, QueryResponse::Error(_)) {
                            tracer.tail_sample(
                                job.trace_id,
                                class.label(),
                                KeepReason::Error,
                                start,
                                end,
                            );
                        } else if tracer.is_slow(end - job.enqueued) {
                            tracer.tail_sample(
                                job.trace_id,
                                class.label(),
                                KeepReason::Slow,
                                job.enqueued,
                                end,
                            );
                        }
                    }
                    job.reply.send(response);
                }
            });
            // On failure the workers already spawned see `tx` drop with
            // this return and exit.
            handles.push(spawned.map_err(|e| format!("spawning serve worker {i}: {e}"))?);
        }
        Ok(Self {
            handle,
            cache,
            tx: Some(tx),
            handles,
            metrics,
            max_queue_wait: options.max_queue_wait,
            fault_hook: options.fault_hook,
            tracer,
        })
    }

    /// The runtime's tracing policy and completed-trace store. Mint or
    /// adopt traces here at the edge, and read
    /// `tracer().store().slow_log(n)` for forensics.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The live index snapshot (an `Arc`, so callers can keep answering
    /// off it consistently even across a concurrent reload).
    pub fn index(&self) -> Arc<ProfileIndex> {
        self.handle.load().0
    }

    /// The swappable handle behind the runtime.
    pub fn handle(&self) -> &IndexHandle {
        &self.handle
    }

    /// Generation of the live snapshot.
    pub fn generation(&self) -> u64 {
        self.handle.generation()
    }

    /// Publish `index` as the new live snapshot under full query load:
    /// in-flight batches finish on the snapshot they started with,
    /// every later batch answers on `index`, and the fold-in cache is
    /// invalidated (its keys are generation-mixed, so stale hits are
    /// impossible either way). Returns the new generation.
    pub fn swap_index(&self, index: Arc<ProfileIndex>) -> u64 {
        let generation = self.handle.swap(index);
        self.cache.retain_generation(generation);
        self.metrics.generation_gauge.set(generation as f64);
        self.metrics
            .registry
            .event("reload", format!("snapshot generation {generation} live"));
        generation
    }

    /// Hot-reload: read the model snapshot at `path` (the same format
    /// [`cpd_core::io::save_model`] writes), build a fresh
    /// [`ProfileIndex`] with the live snapshot's configuration, and
    /// [`swap_index`](ServeRuntime::swap_index) it in. The build runs
    /// on the calling thread plus scoped helper threads it spawns and
    /// joins (see [`ProfileIndex`]'s "Build" section) — never on the
    /// pool — so queries keep flowing while the new index is prepared.
    /// The load and the build are timed into
    /// `cpd_serve_span_seconds{span="snapshot_load"|"index_build"}`; a
    /// load that fails, or a snapshot that is rejected, records no
    /// `index_build`.
    ///
    /// The snapshot must match the live `(|C|, |Z|)` shape: the
    /// retained config's priors and ablation flags are resolved
    /// against those dimensions, so a refit with a different shape
    /// needs a fresh deployment, not a hot-swap — a mismatch is
    /// rejected (leaving the live snapshot untouched) rather than
    /// silently served with wrong priors.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<u64, String> {
        let path = path.as_ref();
        if let Some(hook) = &self.fault_hook {
            hook.hit("serve.reload_build");
        }
        // `load_model` errors already name the snapshot path.
        let model = self
            .metrics
            .snapshot_load_span
            .time(|| cpd_core::io::load_model(path))
            .map_err(|e| format!("reload failed: {e}"))?;
        let config = self.handle.load().0.config().clone();
        if model.n_communities() != config.n_communities || model.n_topics() != config.n_topics {
            return Err(format!(
                "reload rejected: {} is a {}x{} (communities x topics) snapshot but the live \
                 config is {}x{} — shape changes need a new deployment, not a hot-swap",
                path.display(),
                model.n_communities(),
                model.n_topics(),
                config.n_communities,
                config.n_topics,
            ));
        }
        let index = self
            .metrics
            .index_build_span
            .time(|| ProfileIndex::build(model, &config));
        Ok(self.swap_index(Arc::new(index)))
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Answer a batch: requests drain from a shared queue across the
    /// workers, execute concurrently, and the responses come back in
    /// request order. The whole batch answers on one snapshot — the
    /// handle is resolved once, here.
    ///
    /// Admission is per job, not per batch: slots that cannot reserve
    /// queue capacity come back [`QueryResponse::Overloaded`]
    /// immediately while the rest of the batch proceeds.
    pub fn submit_batch(&self, requests: Vec<QueryRequest>) -> Vec<QueryResponse> {
        self.submit_batch_with_deadlines(requests.into_iter().map(|r| (r, None)).collect())
    }

    /// [`submit_batch`](ServeRuntime::submit_batch) with a per-job
    /// answer-by deadline (e.g. propagated from a wire request's
    /// budget). A job still queued past the tighter of its deadline
    /// and [`ServeOptions::max_queue_wait`] is dropped at dequeue and
    /// answered [`QueryResponse::Overloaded`].
    pub fn submit_batch_with_deadlines(
        &self,
        requests: Vec<(QueryRequest, Option<Instant>)>,
    ) -> Vec<QueryResponse> {
        self.submit_batch_items(
            requests
                .into_iter()
                .map(|(request, deadline)| BatchItem {
                    request,
                    deadline,
                    trace: None,
                    trace_id: None,
                })
                .collect(),
        )
    }

    /// The fully general batch entry point: per-item deadlines *and*
    /// per-item trace attachments (see [`BatchItem`]). Sampled items
    /// get `queue_wait` / `execute.<class>` (and, for fold-ins, cache
    /// and per-sweep Gibbs) spans recorded into their trace; unsampled
    /// items that end badly — shed, deadline drop, error, slow — are
    /// tail-sampled into the runtime's [`ServeRuntime::tracer`] store.
    pub fn submit_batch_items(&self, items: Vec<BatchItem>) -> Vec<QueryResponse> {
        let (index, generation) = self.handle.load();
        let tx = self.tx.as_ref().expect("runtime not shut down");
        let answers = Arc::new(BatchAnswers::new(items.len()));
        for (slot, item) in items.into_iter().enumerate() {
            if !self.metrics.try_admit() {
                self.metrics.shed.inc();
                self.metrics.note_overload();
                let now = Instant::now();
                match &item.trace {
                    Some((t, parent)) => {
                        t.record_between("shed", *parent, now, now);
                    }
                    None => {
                        self.tracer.tail_sample(
                            item.trace_id,
                            QueryClass::of(&item.request).label(),
                            KeepReason::Shed,
                            now,
                            now,
                        );
                    }
                }
                answers.answer(
                    slot,
                    QueryResponse::Overloaded {
                        retry_after_ms: self.metrics.retry_after_ms(),
                    },
                );
                continue;
            }
            let enqueued = Instant::now();
            let deadline = match (item.deadline, self.max_queue_wait.map(|w| enqueued + w)) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            tx.send(Job {
                request: item.request,
                index: Arc::clone(&index),
                generation,
                enqueued,
                deadline,
                trace: item.trace,
                trace_id: item.trace_id,
                reply: Reply {
                    answers: Arc::clone(&answers),
                    slot,
                    sent: false,
                },
            })
            .expect("serve worker hung up");
        }
        let responses = answers.wait();
        self.metrics.batches.inc();
        responses
            .into_iter()
            .map(|r| r.expect("every slot answered"))
            .collect()
    }

    /// Snapshot the per-class counters (and refresh the registry's
    /// scrape-time mirrors, so a snapshot and a Prometheus scrape tell
    /// the same story).
    pub fn diagnostics(&self) -> ServeDiagnostics {
        let cache = self.cache.stats();
        let generation = self.handle.generation();
        self.metrics.sync(&cache, generation, self.handles.len());
        ServeDiagnostics {
            workers: self.handles.len(),
            batches: self.metrics.batches.get(),
            generation,
            queue_high_water: self.metrics.queue_high_water.get() as u64,
            shed: self.metrics.shed.get(),
            deadline_exceeded: self.metrics.deadline_exceeded.get(),
            cache,
            net: NetStats::default(),
            ranking: self.metrics.class(QueryClass::Ranking),
            top_words: self.metrics.class(QueryClass::TopWords),
            profile: self.metrics.class(QueryClass::Profile),
            fold_in: self.metrics.class(QueryClass::FoldIn),
            link_score: self.metrics.class(QueryClass::LinkScore),
        }
    }

    /// The metric registry the runtime records into (the one passed
    /// via [`ServeOptions::registry`], or the private one created at
    /// construction). Share it with other layers — or scrape it
    /// directly from another thread mid-load.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Render every metric in the registry — the runtime's own
    /// `cpd_serve_*` families plus whatever else shares the registry
    /// (trainer `cpd_fit_*` spans, server `cpd_server_*` transport
    /// counters) — in the Prometheus text exposition format, after
    /// refreshing the scrape-time mirrors (cache, queue gauges,
    /// generation, uptime).
    pub fn prometheus_text(&self) -> String {
        let cache = self.cache.stats();
        self.metrics
            .sync(&cache, self.handle.generation(), self.handles.len());
        self.metrics.registry.render_prometheus()
    }

    /// Liveness/readiness probe, answerable without touching the
    /// worker pool: ready while the pool accepts batches, plus the
    /// live generation and registry uptime. `state` flips to
    /// [`HealthState::Degraded`] while the runtime is shedding (queue
    /// at capacity, or a shed/deadline drop within
    /// [`ServeOptions::degraded_window`]) and back to
    /// [`HealthState::Ok`] once the window passes.
    pub fn health(&self) -> HealthStatus {
        let state = if self.metrics.degraded() {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        HealthStatus {
            ready: self.tx.is_some() && !self.handles.is_empty(),
            live: true,
            state,
            generation: self.handle.generation(),
            uptime_seconds: self.metrics.registry.uptime_seconds(),
        }
    }

    /// Drain the pool, join the workers and return the final counter
    /// snapshot (the same teardown happens on drop, minus the report).
    pub fn shutdown(self) -> ServeDiagnostics {
        let final_diagnostics = self.diagnostics();
        drop(self);
        final_diagnostics
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Execute one request against the batch's resolved snapshot.
/// Validation errors come back as [`QueryResponse::Error`] — a
/// malformed request must never take a worker (and with it the whole
/// pool) down. `trace` is the sampled request's span tree plus the
/// parent (the worker's `execute.<class>` span) for the phase spans
/// recorded here; `None` records nothing.
#[allow(clippy::too_many_arguments)]
fn execute(
    index: &ProfileIndex,
    generation: u64,
    features: Option<&UserFeatures>,
    fold_cfg: &FoldInConfig,
    cache: &FoldCache,
    scratch: &mut FoldScratch,
    request: QueryRequest,
    trace: Option<(&ActiveTrace, u64)>,
) -> QueryResponse {
    let c_n = index.n_communities();
    let z_n = index.n_topics();
    let u_n = index.model().pi.len();
    let check_words = |words: &[WordId]| -> Result<(), String> {
        match words.iter().find(|w| w.index() >= index.vocab_size()) {
            Some(w) => Err(format!("word {} outside vocabulary", w.index())),
            None => Ok(()),
        }
    };
    match request {
        QueryRequest::RankCommunities { query } => match check_words(&query) {
            Ok(()) => QueryResponse::Ranking(index.rank_communities(&query)),
            Err(e) => QueryResponse::Error(e),
        },
        QueryRequest::QueryTopics { query } => match check_words(&query) {
            Ok(()) => QueryResponse::Ranking(index.query_topics(&query)),
            Err(e) => QueryResponse::Error(e),
        },
        QueryRequest::TopWords { topic, k } => {
            if topic >= z_n {
                return QueryResponse::Error(format!("topic {topic} out of range (|Z| = {z_n})"));
            }
            QueryResponse::Ranking(index.top_words(topic, k))
        }
        QueryRequest::CommunityTopics { community, k } => {
            if community >= c_n {
                return QueryResponse::Error(format!(
                    "community {community} out of range (|C| = {c_n})"
                ));
            }
            QueryResponse::Ranking(index.top_topics_of_community(community, k))
        }
        QueryRequest::PairTopics { from, to, k } => {
            if from >= c_n || to >= c_n {
                return QueryResponse::Error(format!(
                    "pair ({from}, {to}) out of range (|C| = {c_n})"
                ));
            }
            QueryResponse::Ranking(index.pair_top_topics(from, to, k))
        }
        QueryRequest::UserProfile { user } => {
            if user.index() >= u_n {
                return QueryResponse::Error(format!(
                    "user {} out of range ({u_n} trained users)",
                    user.index()
                ));
            }
            let membership = index.user_membership(user).to_vec();
            let dominant = cpd_core::dominant_index(&membership);
            QueryResponse::Profile {
                membership,
                dominant,
            }
        }
        QueryRequest::FriendshipScore { u, v } => {
            if u.index() >= u_n || v.index() >= u_n {
                return QueryResponse::Error(format!(
                    "users ({}, {}) out of range ({u_n} trained users)",
                    u.index(),
                    v.index()
                ));
            }
            QueryResponse::Score(index.friendship_score(u, v))
        }
        QueryRequest::DiffusionScore { u, v, words, at } => {
            let Some(features) = features else {
                return QueryResponse::Error(
                    "diffusion scoring needs UserFeatures (runtime built without them)".into(),
                );
            };
            if u.index() >= u_n || v.index() >= u_n {
                return QueryResponse::Error(format!(
                    "users ({}, {}) out of range ({u_n} trained users)",
                    u.index(),
                    v.index()
                ));
            }
            // The features come from a graph of their own, which a hot
            // reload to a larger model does not extend.
            let f_n = features.n_users();
            if let Some(w) = [u, v].into_iter().find(|w| w.index() >= f_n) {
                return QueryResponse::Error(format!(
                    "user {} has no diffusion features ({f_n} users covered)",
                    w.index()
                ));
            }
            if let Err(e) = check_words(&words) {
                return QueryResponse::Error(e);
            }
            QueryResponse::Score(index.diffusion_score(features, u, v, &words, at))
        }
        QueryRequest::FoldIn { item, seed } => {
            // An answer carries a `|Z|`-wide row per document; one that
            // could not be framed is refused before its chain runs.
            let max_docs = max_fold_in_docs(c_n, z_n);
            if item.docs.len() > max_docs {
                return QueryResponse::Error(format!(
                    "fold-in of {} documents has an answer too large for one response frame \
                     (at most {max_docs} documents at |C| = {c_n}, |Z| = {z_n})",
                    item.docs.len()
                ));
            }
            if let Some(v) = item.friends.iter().find(|v| v.index() >= u_n) {
                return QueryResponse::Error(format!(
                    "fold-in friend {} out of range ({u_n} trained users)",
                    v.index()
                ));
            }
            if let Some(e) = item.docs.iter().find_map(|d| check_words(d).err()) {
                return QueryResponse::Error(e);
            }
            // Cache lookup only after validation, so malformed items
            // never populate (or count against) the cache. The key
            // mixes the generation: a snapshot swap invalidates every
            // prior entry atomically.
            let lookup_start = trace.map(|_| Instant::now());
            let key = fold_key(&item, seed, generation);
            if let Some(cached) = cache.get(key) {
                if let (Some((t, parent)), Some(start)) = (trace, lookup_start) {
                    t.record_between("fold_cache_hit", parent, start, Instant::now());
                }
                return QueryResponse::FoldedIn(Box::new(cached));
            }
            if let (Some((t, parent)), Some(start)) = (trace, lookup_start) {
                t.record_between("fold_cache_miss", parent, start, Instant::now());
            }
            let engine =
                FoldIn::new(index, fold_cfg.clone()).expect("validated by ServeRuntime::new");
            let profile = match trace {
                Some((t, parent)) => {
                    let gibbs = t.start_span("fold_in_gibbs", parent);
                    let gibbs_id = gibbs.id();
                    let profile =
                        engine.profile_with_seed_traced(&item, seed, scratch, Some((t, gibbs_id)));
                    gibbs.finish();
                    profile
                }
                None => engine.profile_with_seed(&item, seed, scratch),
            };
            cache.insert(key, generation, profile.clone());
            QueryResponse::FoldedIn(Box::new(profile))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpd_core::{CpdConfig, CpdModel, Eta};

    fn model(c_n: usize, z_n: usize) -> CpdModel {
        CpdModel {
            pi: vec![vec![1.0 / c_n as f64; c_n]; 3],
            theta: vec![vec![1.0 / z_n as f64; z_n]; c_n],
            phi: vec![vec![0.25; 4]; z_n],
            eta: Eta::uniform(c_n, z_n),
            nu: vec![0.1; cpd_core::features::N_FEATURES],
            topic_popularity: vec![vec![1.0 / z_n as f64; z_n]],
            doc_community: vec![],
            doc_topic: vec![],
        }
    }

    /// The value of one series in a scrape of `runtime`, as rendered.
    fn scraped(runtime: &ServeRuntime, series: &str) -> String {
        let line = format!("{series} ");
        let text = runtime.prometheus_text();
        text.lines()
            .find_map(|l| l.strip_prefix(&line))
            .unwrap_or_else(|| panic!("no {line:?} series in\n{text}"))
            .to_string()
    }

    fn span_count(runtime: &ServeRuntime, span: &str) -> String {
        scraped(
            runtime,
            &format!("cpd_serve_span_seconds_count{{span=\"{span}\"}}"),
        )
    }

    #[test]
    fn fold_ins_whose_answer_cannot_be_framed_are_refused_before_the_chain() {
        // A wide topic space keeps the bound at ~2,000 documents.
        let (c_n, z_n) = (2, 1000);
        let index = ProfileIndex::build(model(c_n, z_n), &CpdConfig::new(c_n, z_n));
        let max_docs = max_fold_in_docs(c_n, z_n);
        let fold_cfg = FoldInConfig {
            sweeps: 1,
            burnin: 0,
            ..FoldInConfig::default()
        };
        let cache = FoldCache::new(1);
        let mut scratch = FoldScratch::new();
        let mut fold_in = |d_n: usize| {
            let request = QueryRequest::FoldIn {
                item: FoldInItem::user(vec![Vec::new(); d_n], vec![UserId(0)]),
                seed: 1,
            };
            execute(
                &index,
                1,
                None,
                &fold_cfg,
                &cache,
                &mut scratch,
                request,
                None,
            )
        };
        match fold_in(max_docs + 1) {
            QueryResponse::Error(e) => assert!(
                e.contains(&format!("fold-in of {} documents", max_docs + 1))
                    && e.contains(&format!("at most {max_docs} documents")),
                "{e}"
            ),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // Refused before the cache lookup: nothing was counted.
        assert_eq!(cache.stats().misses, 0);
        match fold_in(max_docs) {
            QueryResponse::FoldedIn(p) => assert_eq!(p.doc_topics.len(), max_docs),
            other => panic!("expected an answer, got {other:?}"),
        }
        assert_eq!(cache.stats().misses, 1);
    }

    /// A row over `n` entries peaked at `peak`, so rows (and the
    /// answers read from them) differ.
    fn peaked(n: usize, peak: usize) -> Vec<f64> {
        let mut row = vec![0.5 / n as f64; n];
        row[peak % n] += 0.5;
        row
    }

    #[test]
    fn a_job_lost_with_its_worker_answers_error_and_the_pool_keeps_serving() {
        let (c_n, z_n, v_n) = (3, 4, 5);
        let cfg = CpdConfig::new(c_n, z_n);
        let index = Arc::new(ProfileIndex::build(
            CpdModel {
                pi: (0..3).map(|u| peaked(c_n, u)).collect(),
                theta: (0..c_n).map(|c| peaked(z_n, c + 1)).collect(),
                phi: (0..z_n).map(|z| peaked(v_n, z)).collect(),
                ..model(c_n, z_n)
            },
            &cfg,
        ));
        let mut batch = Vec::new();
        let mut oracle = Vec::new();
        for user in (0..3).map(UserId) {
            batch.push(QueryRequest::UserProfile { user });
            let membership = index.user_membership(user).to_vec();
            oracle.push(QueryResponse::Profile {
                dominant: cpd_core::dominant_index(&membership),
                membership,
            });
        }
        for topic in 0..z_n {
            batch.push(QueryRequest::TopWords { topic, k: 2 });
            oracle.push(QueryResponse::Ranking(index.top_words(topic, 2)));
            let query = vec![WordId(topic as u32)];
            oracle.push(QueryResponse::Ranking(index.rank_communities(&query)));
            batch.push(QueryRequest::RankCommunities { query });
        }
        batch.push(QueryRequest::FriendshipScore {
            u: UserId(0),
            v: UserId(2),
        });
        oracle.push(QueryResponse::Score(
            index.friendship_score(UserId(0), UserId(2)),
        ));

        // The first job to reach a worker kills it: the hook runs
        // outside the query's unwind catch.
        let hits = Arc::new(AtomicU64::new(0));
        let hook = {
            let hits = Arc::clone(&hits);
            FaultHook::new(move |point| {
                if point == "serve.worker_execute" && hits.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected worker fault");
                }
            })
        };
        let runtime = ServeRuntime::new(
            index,
            None,
            ServeOptions {
                workers: 2,
                fault_hook: Some(hook),
                ..ServeOptions::default()
            },
        )
        .unwrap();

        let answers = runtime.submit_batch(batch.clone());
        let lost: Vec<usize> = (0..batch.len())
            .filter(|&slot| answers[slot] != oracle[slot])
            .collect();
        assert_eq!(lost.len(), 1, "{answers:?}");
        match &answers[lost[0]] {
            QueryResponse::Error(e) => assert!(e.contains("query lost"), "{e}"),
            other => panic!("slot {} answered {other:?}", lost[0]),
        }
        // The surviving worker answers the next batch in full.
        assert_eq!(runtime.submit_batch(batch.clone()), oracle);
        assert_eq!(hits.load(Ordering::SeqCst), 2 * batch.len() as u64);
        runtime.shutdown();
    }

    #[test]
    fn fold_in_friend_draws_are_counted_by_path() {
        let (c_n, z_n, v_n) = (3, 4, 5);
        let cfg = CpdConfig::new(c_n, z_n);
        let index = Arc::new(ProfileIndex::build(
            CpdModel {
                pi: (0..3).map(|u| peaked(c_n, u)).collect(),
                theta: (0..c_n).map(|c| peaked(z_n, c + 1)).collect(),
                phi: (0..z_n).map(|z| peaked(v_n, z)).collect(),
                ..model(c_n, z_n)
            },
            &cfg,
        ));
        let runtime = ServeRuntime::new(index, None, ServeOptions::default()).unwrap();
        let docs = vec![vec![WordId(0), WordId(1)], vec![WordId(2)], vec![WordId(3)]];
        let user = QueryRequest::FoldIn {
            item: FoldInItem::user(docs.clone(), vec![UserId(0), UserId(2)]),
            seed: 7,
        };
        // Only a user with several documents and friends draws through
        // the certificate; a repeat is a cache hit and draws nothing.
        let batch = vec![
            user.clone(),
            QueryRequest::FoldIn {
                item: FoldInItem::user(vec![docs[0].clone()], vec![UserId(1)]),
                seed: 7,
            },
            QueryRequest::FoldIn {
                item: FoldInItem::user(docs, Vec::new()),
                seed: 7,
            },
        ];
        runtime.submit_batch(batch);
        runtime.submit_batch(vec![user]);
        let count = |path: &str| -> u64 {
            scraped(
                &runtime,
                &format!("cpd_serve_fold_in_draws_total{{path=\"{path}\"}}"),
            )
            .parse()
            .unwrap()
        };
        let sweeps = FoldInConfig::default().sweeps as u64;
        assert_eq!(count("certified") + count("exact"), 3 * sweeps);
        runtime.shutdown();
    }

    #[test]
    fn queue_high_water_is_its_registry_gauge() {
        let cfg = CpdConfig::new(2, 3);
        let index = Arc::new(ProfileIndex::build(model(2, 3), &cfg));
        let runtime = ServeRuntime::new(index, None, ServeOptions::default()).unwrap();
        let batch: Vec<QueryRequest> = (0..3)
            .map(|u| QueryRequest::UserProfile { user: UserId(u) })
            .collect();
        assert_eq!(runtime.submit_batch(batch).len(), 3);

        let high_water = runtime.diagnostics().queue_high_water;
        assert!(high_water >= 1, "a queued batch must register");
        let series: f64 = scraped(&runtime, "cpd_serve_queue_high_water")
            .parse()
            .unwrap();
        assert_eq!(series, high_water as f64);
        runtime.shutdown();
    }

    #[test]
    fn reload_records_snapshot_load_and_index_build_spans() {
        let cfg = CpdConfig::new(2, 3);
        let index = Arc::new(ProfileIndex::build(model(2, 3), &cfg));
        let runtime = ServeRuntime::new(index, None, ServeOptions::default()).unwrap();
        assert_eq!(span_count(&runtime, "snapshot_load"), "0");
        assert_eq!(span_count(&runtime, "index_build"), "0");

        let dir = std::env::temp_dir().join(format!("cpd-serve-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.cpd");
        cpd_core::io::save_model(&model(2, 3), &good).unwrap();
        assert_eq!(runtime.reload(&good).unwrap(), 2);
        assert_eq!(span_count(&runtime, "snapshot_load"), "1");
        assert_eq!(span_count(&runtime, "index_build"), "1");

        // A load that fails, and a snapshot rejected for its shape, are
        // timed as loads but build nothing.
        assert!(runtime.reload(dir.join("missing.cpd")).is_err());
        let reshaped = dir.join("reshaped.cpd");
        cpd_core::io::save_model(&model(3, 3), &reshaped).unwrap();
        assert!(runtime.reload(&reshaped).is_err());
        assert_eq!(span_count(&runtime, "snapshot_load"), "3");
        assert_eq!(span_count(&runtime, "index_build"), "1");
        assert_eq!(runtime.generation(), 2);

        runtime.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
