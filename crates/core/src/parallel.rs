//! Parallel E-step (Sect. 4.3): LDA-guided data segmentation, workload
//! estimation, knapsack-style allocation to threads, and the sharded
//! runtimes that execute the per-sweep worker barrier.
//!
//! # Parallel runtime
//!
//! Workers follow the approximate-distributed-Gibbs recipe: each thread
//! owns a disjoint set of *users* (so a user's documents never split
//! across threads — the paper's first segmentation guideline) and reads
//! neighbouring assignments as of the sweep start. Two runtimes execute
//! the barrier, selectable via [`crate::config::ParallelRuntime`], and
//! both draw the same values:
//!
//! * **`DeltaSharded`** (the default): the persistent `WorkerPool`,
//!   spawned **once per fit**. Each worker keeps a replica of the
//!   sampler state, cloned at spawn and kept in sync incrementally:
//!   every sweep it refreshes from the coordinator's sync package,
//!   sweeps its owned users while recording a [`CountDelta`], and ships
//!   the delta back. The sync package is planned **per count array**
//!   from the previous sweep's churn ([`CountRefresh::decide`]): a
//!   sparsely-touched array replays the other shards' logs; a heavily
//!   churned array ships as one shared snapshot that replicas
//!   `copy_from_slice`.
//!
//! * **`CloneRebuild`** (legacy oracle): every sweep each thread clones
//!   the full count state, samples its user group, and the merged
//!   assignments are rebuilt into the canonical state from scratch —
//!   `O(threads × |state|)` memcpy plus an `O(|D| + tokens)` rebuild
//!   per sweep. Kept for benchmarking and as the differential-testing
//!   oracle `DeltaSharded` is held to, draw for draw.
//!
//! # The barrier fold
//!
//! The barrier fold is parallelised: after collecting the sweep deltas
//! the coordinator ships each canonical count array (moved out of the
//! state, so no copies and no aliasing) to an idle **worker thread** as
//! a `FoldTask`; workers replay all shards' logs for their array, clone
//! the refresh snapshot for it when [`CountRefresh::decide`] picked the
//! snapshot path, and send the folded array back. The coordinator's
//! residual work is channel traffic and re-installing the arrays. Count
//! arrays are the fold's sharding unit.
//!
//! `CpdState::rebuild_counts` runs only at initialisation.
//!
//! # The M-step
//!
//! Between E-steps the coordinator estimates `η` itself: one pass over
//! the diffusion links into a `|C|·|C|·|Z|` count buffer
//! ([`crate::mstep::estimate_eta`]), a small share of a fit. The `ν`
//! fit runs on the pool: each gradient-descent iteration spreads its
//! gradient/sigmoid pass over the idle workers in fixed example chunks
//! (`WorkerPool::fit_nu`), and the coordinator folds the chunk
//! partials in ascending chunk order, so the result is **bit-identical**
//! to the serial [`crate::mstep::fit_nu`] at any worker count (see the
//! `mstep` module docs). That pool pass earns its place: a variant
//! that ran the gradient serially on the coordinator read the
//! link-heavy benchmark's `core.mstep_nu_s` at 0.36–0.39 s a fit
//! against 0.24–0.26 s pooled (3 of 3 traced runs, 2-CPU host). `η`
//! took about 1 ms a fit on the same runs, on the coordinator.

use crate::config::CpdConfig;
use crate::counts::PairCounts;
use crate::features::{UserFeatures, N_FEATURES};
use crate::gibbs::{
    resample_delta_range, resample_lambda_range, sweep_user_docs, SamplerStats, SamplerTables,
    SweepContext, SweepPhase, SweepScratch,
};
use crate::mstep::{apply_nu_step, nu_chunk_grad, NuExample, NU_GRAD_CHUNK};
use crate::profiles::Eta;
use crate::state::{CountDelta, CountRefresh, CpdState, DeltaSizes, LinkMeta, NoDelta, SyncPlan};
use cpd_prob::rng::child_rng;
use social_graph::{SocialGraph, UserId, WordId};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;
use topic_model::{Lda, LdaConfig};

/// User segments (Sect. 4.3, "segmenting data to reduce
/// inter-dependency"): one segment per LDA topic, each user in the
/// segment of her documents' dominant topic.
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// `segments[s]` = user ids in segment `s`.
    pub segments: Vec<Vec<u32>>,
    /// Estimated workload `o_i` per segment.
    pub workloads: Vec<f64>,
}

/// Segment users by their dominant LDA topic (the paper runs LDA with
/// `|Z|` topics and partitions users by most frequent topic).
pub fn segment_users(
    graph: &SocialGraph,
    n_segments: usize,
    n_communities: usize,
    lda_iters: usize,
    seed: u64,
) -> Segmentation {
    assert!(n_segments >= 1);
    // Borrow each document's word slice — cloning every word vector here
    // used to double the corpus allocation just to run the guide LDA.
    let docs: Vec<&[WordId]> = graph.docs().iter().map(|d| d.words.as_slice()).collect();
    let lda = Lda::new(LdaConfig {
        n_iters: lda_iters,
        seed,
        ..LdaConfig::new(n_segments)
    })
    .fit(&docs, graph.vocab_size());

    let mut segments: Vec<Vec<u32>> = vec![Vec::new(); n_segments];
    for u in 0..graph.n_users() {
        let uid = UserId(u as u32);
        let mut votes = vec![0u32; n_segments];
        for d in graph.docs_of(uid) {
            votes[lda.dominant_topic(d.index())] += 1;
        }
        let seg = votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(s, _)| s)
            .unwrap_or(u % n_segments);
        segments[seg].push(u as u32);
    }
    let workloads = segments
        .iter()
        .map(|users| estimate_workload(graph, users, n_communities))
        .collect();
    Segmentation {
        segments,
        workloads,
    }
}

/// Estimated workload of sweeping `users` once: per document the
/// candidate scans cost `O(|C| + |Z|)`-ish, each friendship neighbour
/// adds `O(|C|)` per document, and each incident diffusion link adds the
/// `O(|C|²)` bilinear precomputation.
pub fn estimate_workload(graph: &SocialGraph, users: &[u32], n_communities: usize) -> f64 {
    let c = n_communities as f64;
    let mut total = 0.0f64;
    for &u in users {
        let uid = UserId(u);
        let degree = graph.friend_degree(uid) as f64;
        for d in graph.docs_of(uid) {
            let doc = graph.doc(d);
            let diffusion_links = graph.diffusion_links_of(d).len() as f64;
            total += c + doc.len() as f64 + degree * c + diffusion_links * c * c;
        }
    }
    total
}

/// Longest-processing-time-first allocation of segments to `m` threads.
/// This greedy is the classic 4/3-approximation for makespan and is what
/// the paper's per-thread knapsacks reduce to with coarse estimates
/// (DESIGN.md §2). Returns segment indices per thread.
pub fn allocate_segments(workloads: &[f64], m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1);
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by(|&a, &b| workloads[b].partial_cmp(&workloads[a]).expect("no NaN"));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for seg in order {
        let (t, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("m >= 1");
        groups[t].push(seg);
        loads[t] += workloads[seg];
    }
    groups
}

/// Paper-style allocation: solve `m` successive 0-1 knapsacks, each
/// targeting `O/m` capacity (Eq. 17), greedily on the sorted remaining
/// segments; leftovers go to the least-loaded thread.
pub fn allocate_segments_knapsack(workloads: &[f64], m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1);
    let total: f64 = workloads.iter().sum();
    let target = total / m as f64;
    let mut remaining: Vec<usize> = (0..workloads.len()).collect();
    remaining.sort_by(|&a, &b| workloads[b].partial_cmp(&workloads[a]).expect("no NaN"));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for t in 0..m {
        let mut i = 0;
        while i < remaining.len() {
            let seg = remaining[i];
            // Last thread takes everything; earlier threads fill to target.
            if t + 1 == m || loads[t] + workloads[seg] <= target * 1.0001 {
                groups[t].push(seg);
                loads[t] += workloads[seg];
                remaining.remove(i);
            } else {
                i += 1;
            }
        }
        if loads[t] >= target {
            continue;
        }
    }
    // Anything still unassigned (can happen when every remaining segment
    // overflows every target) goes to the least-loaded thread.
    for seg in remaining {
        let (t, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("m >= 1");
        groups[t].push(seg);
        loads[t] += workloads[seg];
    }
    groups
}

/// Makespan ratio `max(load) / mean(load)` of an allocation — 1.0 is a
/// perfect balance (Fig. 11's quality measure).
pub fn balance_ratio(groups: &[Vec<usize>], workloads: &[f64]) -> f64 {
    let loads: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&s| workloads[s]).sum())
        .collect();
    let max = loads.iter().copied().fold(0.0f64, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Legacy clone-and-rebuild parallel sweep: every sweep each thread
/// clones the full count state, samples its user group, and the merged
/// assignments are rebuilt into `state` from scratch. Kept as the
/// benchmarking reference and differential-testing oracle for the
/// sharded delta runtime ([`WorkerPool`]); both produce identical draws.
/// Returns the per-thread wall times (Fig. 11) and the merged sampler
/// accounting.
pub(crate) fn clone_rebuild_doc_sweep(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    user_groups: &[Vec<u32>],
    phase: SweepPhase,
    sweep_index: u64,
) -> (Vec<f64>, SamplerStats) {
    // (owned docs, their communities, their topics, busy seconds, stats)
    type GroupResult = (Vec<u32>, Vec<u32>, Vec<u32>, f64, SamplerStats);
    let snapshot: &CpdState = state;
    let results: Vec<GroupResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = user_groups
            .iter()
            .enumerate()
            .map(|(ti, users)| {
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    let mut local = snapshot.clone();
                    let mut rng = child_rng(
                        ctx.config.seed ^ 0x9A7A_11E1,
                        sweep_index * user_groups.len() as u64 + ti as u64,
                    );
                    let mut scratch = SweepScratch::new();
                    sweep_user_docs(
                        ctx,
                        &mut local,
                        users,
                        &mut rng,
                        phase,
                        &mut NoDelta,
                        &mut scratch,
                    );
                    let mut docs = Vec::new();
                    for &u in users.iter() {
                        for d in ctx.graph.docs_of(UserId(u)) {
                            docs.push(d.0);
                        }
                    }
                    let cs: Vec<u32> = docs
                        .iter()
                        .map(|&d| local.doc_community[d as usize])
                        .collect();
                    let zs: Vec<u32> = docs.iter().map(|&d| local.doc_topic[d as usize]).collect();
                    (
                        docs,
                        cs,
                        zs,
                        start.elapsed().as_secs_f64(),
                        scratch.take_stats(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut times = Vec::with_capacity(results.len());
    let mut sampler = SamplerStats::default();
    for (docs, cs, zs, secs, stats) in results {
        for i in 0..docs.len() {
            state.doc_community[docs[i] as usize] = cs[i];
            state.doc_topic[docs[i] as usize] = zs[i];
        }
        times.push(secs);
        sampler.merge(&stats);
    }
    state.rebuild_counts(ctx.graph);
    (times, sampler)
}

/// One sweep command from the coordinator to a worker. `eta`/`nu` are
/// the current M-step parameters; `lambda`/`delta_pg` the freshly
/// resampled Pólya-Gamma vectors; `sync` the previous sweep's deltas
/// (one per worker), `replay` which of their arrays to replay, and
/// `refresh` shared snapshots for the arrays where the churn made a
/// sequential copy cheaper than the replay.
struct SweepCmd {
    phase: SweepPhase,
    sweep_index: u64,
    eta: Arc<Eta>,
    nu: Arc<Vec<f64>>,
    lambda: Arc<Vec<f64>>,
    delta_pg: Arc<Vec<f64>>,
    sync: Arc<Vec<CountDelta>>,
    replay: SyncPlan,
    refresh: Arc<CountRefresh>,
}

/// A coordinator→worker message: run a document sweep, fold a batch of
/// canonical count arrays at the barrier, or compute one shard of a ν
/// gradient pass.
enum Cmd {
    Sweep(SweepCmd),
    Fold(FoldCmd),
    NuGrad(NuGradCmd),
}

/// One worker's shard of a ν gradient-descent iteration: the chunk
/// partials for example chunks `[chunk_lo, chunk_hi)` under the
/// current `nu`.
struct NuGradCmd {
    examples: Arc<Vec<NuExample>>,
    nu: Arc<Vec<f64>>,
    chunk_lo: usize,
    chunk_hi: usize,
}

/// Barrier fold work for one worker: apply every shard's delta log for
/// the shipped arrays. The arrays are **moved** out of the canonical
/// state (no copies, no aliasing) and returned folded.
struct FoldCmd {
    deltas: Arc<Vec<CountDelta>>,
    tasks: Vec<FoldTask>,
}

/// Which canonical array class a [`FoldTask`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldKind {
    /// `doc_community` + `doc_topic` (assignment replay).
    Assign,
    /// `n_uc` + the constant `n_u` marginal.
    NUc,
    /// `n_cz` + the `n_c` marginal.
    NCz,
    /// `n_zw` + the `n_z` marginal.
    WordTopic,
    /// `n_tz`.
    NTz,
}

/// One canonical array (pair), moved out of the state for a worker to
/// fold and, when the refresh plan calls for it, snapshot for the next
/// sweep's replica sync.
struct FoldTask {
    kind: FoldKind,
    /// Primary array (`doc_community` / `n_uc` / `n_cz` / `n_zw` /
    /// `n_tz`).
    a: Vec<u32>,
    /// Companion array (`doc_topic` / `n_c` / `n_z`), empty when the
    /// kind has none.
    b: Vec<u32>,
    /// Clone the folded array into `snap_*` (the refresh package).
    want_snapshot: bool,
    snap_a: Option<Vec<u32>>,
    snap_b: Option<Vec<u32>>,
    /// Worker-side fold wall time.
    seconds: f64,
}

impl FoldTask {
    fn new(kind: FoldKind, a: Vec<u32>, b: Vec<u32>, want_snapshot: bool) -> Self {
        Self {
            kind,
            a,
            b,
            want_snapshot,
            snap_a: None,
            snap_b: None,
            seconds: 0.0,
        }
    }

    /// Replay every shard's log for this array class (increments
    /// commute exactly, and assignment writes target disjoint docs, so
    /// per-array folding in shard order reproduces the serial fold
    /// byte-for-byte).
    fn run(&mut self, deltas: &[CountDelta]) {
        let start = Instant::now();
        match self.kind {
            FoldKind::Assign => {
                for d in deltas {
                    d.apply_assign(&mut self.a, &mut self.b);
                }
            }
            FoldKind::NUc => {
                for d in deltas {
                    d.apply_n_uc(&mut self.a);
                }
            }
            FoldKind::NCz => {
                for d in deltas {
                    d.apply_n_cz(&mut self.a);
                    d.apply_n_c(&mut self.b);
                }
            }
            FoldKind::WordTopic => {
                for d in deltas {
                    d.apply_n_zw(&mut self.a);
                    d.apply_n_z(&mut self.b);
                }
            }
            FoldKind::NTz => {
                for d in deltas {
                    d.apply_n_tz(&mut self.a);
                }
            }
        }
        if self.want_snapshot {
            self.snap_a = Some(self.a.clone());
            if self.kind == FoldKind::Assign {
                self.snap_b = Some(self.b.clone());
            }
        }
        self.seconds = start.elapsed().as_secs_f64();
    }

    /// Re-install the folded arrays into the canonical state and file
    /// the snapshot/timing into the refresh package and breakdown.
    fn install(self, state: &mut CpdState, refresh: &mut CountRefresh, fold: &mut FoldBreakdown) {
        match self.kind {
            FoldKind::Assign => {
                state.doc_community = self.a;
                state.doc_topic = self.b;
                if let (Some(dc), Some(dt)) = (self.snap_a, self.snap_b) {
                    refresh.assign = Some((dc, dt));
                }
                fold.assign = self.seconds;
            }
            FoldKind::NUc => {
                state.user_comm = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_uc = self.snap_a;
                fold.n_uc = self.seconds;
            }
            FoldKind::NCz => {
                state.comm_topic = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_cz = self.snap_a;
                fold.n_cz = self.seconds;
            }
            FoldKind::WordTopic => {
                state.word_topic = PairCounts {
                    main: self.a,
                    marginal: self.b,
                };
                refresh.n_zw = self.snap_a;
                fold.n_zw = self.seconds;
            }
            FoldKind::NTz => {
                state.n_tz = self.a;
                refresh.n_tz = self.snap_a;
                fold.n_tz = self.seconds;
            }
        }
    }
}

/// A worker's reply: the sweep result, the folded arrays, or one ν
/// gradient shard's chunk partials.
enum Reply {
    Sweep(Box<WorkerReply>),
    Fold(Vec<FoldTask>),
    NuGrad(Vec<[f64; N_FEATURES]>),
}

/// A worker's result for one sweep.
struct WorkerReply {
    delta: CountDelta,
    busy_secs: f64,
    sync_secs: f64,
    /// This worker's sampler accounting for the sweep (sparse-row
    /// occupancy).
    sampler: SamplerStats,
}

/// Per-array worker-side fold seconds of one barrier (surfaced through
/// `FitDiagnostics::fold_seconds`). Arrays folded on different workers
/// overlap in wall time; the `W × Z` `n_zw` fold runs on a worker of
/// its own (when the pool has more than one), the small arrays share
/// the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldBreakdown {
    /// Assignment replay (`doc_community`/`doc_topic`).
    pub assign: f64,
    /// `n_uc` fold.
    pub n_uc: f64,
    /// `n_cz` + `n_c` fold.
    pub n_cz: f64,
    /// `n_zw` + `n_z` fold.
    pub n_zw: f64,
    /// `n_tz` fold.
    pub n_tz: f64,
}

impl FoldBreakdown {
    /// Slowest single-array fold — a lower bound on the barrier's
    /// critical path (exact when every array folds on its own worker;
    /// workers sharing several small arrays serialise their sum).
    pub fn max(&self) -> f64 {
        self.assign
            .max(self.n_uc)
            .max(self.n_cz)
            .max(self.n_zw)
            .max(self.n_tz)
    }
}

/// Timing breakdown of one sharded sweep (surfaced through
/// `FitDiagnostics`).
pub(crate) struct SweepStats {
    /// Per-thread busy seconds (Fig. 11).
    pub thread_seconds: Vec<f64>,
    /// Total barrier wall time (distributing fold tasks, waiting on the
    /// fold workers, re-installing the arrays).
    pub merge_seconds: f64,
    /// Slowest worker's replica-sync time (delta apply + PG refresh).
    pub snapshot_seconds: f64,
    /// Documents whose assignment changed this sweep.
    pub changed_docs: usize,
    /// Per-array worker-side fold seconds.
    pub fold: FoldBreakdown,
    /// Sampler accounting merged across the sweep's workers.
    pub sampler: SamplerStats,
}

/// Persistent sharded E-step runtime: one worker thread per user group,
/// spawned once per fit, communicating per sweep through channels. See
/// the module docs ("Parallel runtime") for the synchronisation scheme.
pub(crate) struct WorkerPool<'scope> {
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: Vec<Receiver<Reply>>,
    /// Deltas of the previous sweep, broadcast to workers on the next.
    prev: Arc<Vec<CountDelta>>,
    /// Replay-vs-snapshot plan for the coming sweep's replica sync,
    /// decided at the previous barrier.
    pending_replay: SyncPlan,
    /// Snapshots backing `pending_replay`, cloned by the fold workers.
    pending_refresh: Arc<CountRefresh>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> WorkerPool<'scope> {
    /// Spawn one worker per user group. Each worker clones `state` once
    /// — the only full copy it will ever make.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn<'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        graph: &'env SocialGraph,
        config: &'env CpdConfig,
        features: &'env UserFeatures,
        links: &'env [LinkMeta],
        tables: &'env SamplerTables,
        user_groups: &[Vec<u32>],
        state: &CpdState,
    ) -> Self {
        let n_workers = user_groups.len();
        let mut cmd_txs = Vec::with_capacity(n_workers);
        let mut reply_rxs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for (me, users) in user_groups.iter().enumerate() {
            let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let users = users.clone();
            let mut local = state.clone();
            handles.push(scope.spawn(move || {
                let mut scratch = SweepScratch::new();
                while let Ok(cmd) = cmd_rx.recv() {
                    let reply = match cmd {
                        Cmd::Sweep(cmd) => {
                            let sync_start = Instant::now();
                            // Snapshot-copied arrays land wholesale; the
                            // rest replay the other shards' logs (own
                            // changes are already local).
                            cmd.refresh.copy_into(&mut local);
                            for (i, d) in cmd.sync.iter().enumerate() {
                                if i != me {
                                    d.apply_selected(&mut local, cmd.replay);
                                }
                            }
                            local.lambda.copy_from_slice(&cmd.lambda);
                            local.delta.copy_from_slice(&cmd.delta_pg);
                            let sync_secs = sync_start.elapsed().as_secs_f64();

                            let ctx = SweepContext::new(
                                graph, config, &cmd.eta, &cmd.nu, features, links, tables,
                            );
                            let mut rng = child_rng(
                                config.seed ^ 0x9A7A_11E1,
                                cmd.sweep_index * n_workers as u64 + me as u64,
                            );
                            let mut delta = CountDelta::new(&local);
                            let busy_start = Instant::now();
                            sweep_user_docs(
                                &ctx,
                                &mut local,
                                &users,
                                &mut rng,
                                cmd.phase,
                                &mut delta,
                                &mut scratch,
                            );
                            let busy_secs = busy_start.elapsed().as_secs_f64();
                            Reply::Sweep(Box::new(WorkerReply {
                                delta,
                                busy_secs,
                                sync_secs,
                                sampler: scratch.take_stats(),
                            }))
                        }
                        Cmd::Fold(mut fold) => {
                            for task in &mut fold.tasks {
                                task.run(&fold.deltas);
                            }
                            Reply::Fold(fold.tasks)
                        }
                        Cmd::NuGrad(cmd) => {
                            let mut grads = Vec::with_capacity(cmd.chunk_hi - cmd.chunk_lo);
                            for k in cmd.chunk_lo..cmd.chunk_hi {
                                let lo = k * NU_GRAD_CHUNK;
                                let hi = ((k + 1) * NU_GRAD_CHUNK).min(cmd.examples.len());
                                grads.push(nu_chunk_grad(&cmd.examples[lo..hi], &cmd.nu));
                            }
                            Reply::NuGrad(grads)
                        }
                    };
                    if reply_tx.send(reply).is_err() {
                        break; // Coordinator is gone; shut down.
                    }
                }
            }));
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
        }
        Self {
            cmd_txs,
            reply_rxs,
            prev: Arc::new(Vec::new()),
            pending_replay: SyncPlan::ALL,
            pending_refresh: Arc::new(CountRefresh::default()),
            handles,
        }
    }

    /// Run one barrier-synchronised document sweep and fold the workers'
    /// deltas into the canonical `state` — the fold itself executed by
    /// the (now idle) worker threads, one [`FoldTask`] per count array.
    pub fn sweep(
        &mut self,
        graph: &SocialGraph,
        state: &mut CpdState,
        phase: SweepPhase,
        sweep_index: u64,
        eta: &Arc<Eta>,
        nu: &Arc<Vec<f64>>,
    ) -> SweepStats {
        // Broadcast the sweep command: previous-sweep sync package,
        // fresh PG vectors, current η/ν.
        let lambda = Arc::new(state.lambda.clone());
        let delta_pg = Arc::new(state.delta.clone());
        for tx in &self.cmd_txs {
            tx.send(Cmd::Sweep(SweepCmd {
                phase,
                sweep_index,
                eta: Arc::clone(eta),
                nu: Arc::clone(nu),
                lambda: Arc::clone(&lambda),
                delta_pg: Arc::clone(&delta_pg),
                sync: Arc::clone(&self.prev),
                replay: self.pending_replay,
                refresh: Arc::clone(&self.pending_refresh),
            }))
            .expect("worker hung up");
        }

        let n_workers = self.cmd_txs.len();
        let mut deltas = Vec::with_capacity(n_workers);
        let mut thread_seconds = Vec::with_capacity(n_workers);
        let mut snapshot_seconds = 0.0f64;
        let mut changed_docs = 0usize;
        let mut sampler = SamplerStats::default();
        let mut sizes = DeltaSizes::default();
        for rx in &self.reply_rxs {
            match rx.recv().expect("worker panicked") {
                Reply::Sweep(reply) => {
                    changed_docs += reply.delta.n_changed_docs();
                    sizes.accumulate(reply.delta.log_sizes());
                    thread_seconds.push(reply.busy_secs);
                    snapshot_seconds = snapshot_seconds.max(reply.sync_secs);
                    sampler.merge(&reply.sampler);
                    deltas.push(reply.delta);
                }
                _ => unreachable!("non-sweep reply outside a barrier"),
            }
        }

        // ---- Barrier fold, on the worker threads --------------------
        let merge_start = Instant::now();
        let deltas = Arc::new(deltas);
        // Decide the next sweep's replay-vs-snapshot sync per array;
        // the fold workers clone the snapshots for non-replayed arrays.
        let replay = CountRefresh::decide(state, sizes, n_workers);
        let pair_task = |kind, pair: &mut PairCounts, want_snapshot| {
            let PairCounts { main, marginal } = std::mem::take(pair);
            FoldTask::new(kind, main, marginal, want_snapshot)
        };
        // Word-topic first: the scheduler below gives the dominant
        // `W × Z` fold a worker of its own.
        let tasks = [
            pair_task(FoldKind::WordTopic, &mut state.word_topic, !replay.n_zw),
            FoldTask::new(
                FoldKind::Assign,
                std::mem::take(&mut state.doc_community),
                std::mem::take(&mut state.doc_topic),
                !replay.assign,
            ),
            pair_task(FoldKind::NUc, &mut state.user_comm, !replay.n_uc),
            pair_task(FoldKind::NCz, &mut state.comm_topic, !replay.n_cz),
            FoldTask::new(
                FoldKind::NTz,
                std::mem::take(&mut state.n_tz),
                Vec::new(),
                !replay.n_tz,
            ),
        ];
        // Schedule: the `W × Z` fold dwarfs every other array, so with
        // more than one worker it gets a bucket to itself and the small
        // arrays round-robin over the remaining workers.
        let mut buckets: Vec<Vec<FoldTask>> = (0..n_workers).map(|_| Vec::new()).collect();
        let mut tasks = tasks.into_iter();
        let small_workers: Vec<usize> = if n_workers > 1 {
            buckets[0].push(tasks.next().expect("the word-topic fold comes first"));
            (1..n_workers).collect()
        } else {
            (0..n_workers).collect()
        };
        for (i, task) in tasks.enumerate() {
            buckets[small_workers[i % small_workers.len()]].push(task);
        }
        let mut folding = Vec::new();
        for (w, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.cmd_txs[w]
                .send(Cmd::Fold(FoldCmd {
                    deltas: Arc::clone(&deltas),
                    tasks: bucket,
                }))
                .expect("worker hung up");
            folding.push(w);
        }
        let mut refresh = CountRefresh::default();
        let mut fold = FoldBreakdown::default();
        for w in folding {
            match self.reply_rxs[w].recv().expect("worker panicked") {
                Reply::Fold(tasks) => {
                    for task in tasks {
                        task.install(state, &mut refresh, &mut fold);
                    }
                }
                _ => unreachable!("non-fold reply inside a barrier"),
            }
        }
        let merge_seconds = merge_start.elapsed().as_secs_f64();
        debug_assert!(
            state.check_consistency(graph).is_ok(),
            "delta fold diverged from the assignments"
        );
        self.prev = deltas;
        self.pending_replay = replay;
        self.pending_refresh = Arc::new(refresh);
        SweepStats {
            thread_seconds,
            merge_seconds,
            snapshot_seconds,
            changed_docs,
            fold,
            sampler,
        }
    }

    /// Shard each `fit_nu` gradient-descent iteration over the idle
    /// workers: every worker computes the partial gradients of a
    /// contiguous run of [`NU_GRAD_CHUNK`]-example chunks, and the
    /// coordinator folds the partials in ascending chunk order before
    /// stepping `nu` — bit-equal to the serial
    /// [`crate::mstep::fit_nu`] at any worker count. Returns the
    /// example vector for buffer reuse.
    pub fn fit_nu(
        &mut self,
        examples: Vec<NuExample>,
        nu: &mut [f64],
        config: &CpdConfig,
    ) -> Vec<NuExample> {
        if examples.is_empty() || config.nu_iters == 0 {
            return examples;
        }
        let n_workers = self.cmd_txs.len();
        let n_chunks = examples.len().div_ceil(NU_GRAD_CHUNK);
        let per = n_chunks.div_ceil(n_workers).max(1);
        let n = examples.len() as f64;
        let lr = config.nu_learning_rate;
        let examples = Arc::new(examples);
        let mut grads: Vec<[f64; N_FEATURES]> = Vec::with_capacity(n_chunks);
        for _ in 0..config.nu_iters {
            let nu_arc = Arc::new(nu.to_vec());
            let mut active: Vec<usize> = Vec::new();
            for w in 0..n_workers {
                let chunk_lo = (w * per).min(n_chunks);
                let chunk_hi = ((w + 1) * per).min(n_chunks);
                if chunk_lo >= chunk_hi {
                    continue;
                }
                self.cmd_txs[w]
                    .send(Cmd::NuGrad(NuGradCmd {
                        examples: Arc::clone(&examples),
                        nu: Arc::clone(&nu_arc),
                        chunk_lo,
                        chunk_hi,
                    }))
                    .expect("worker hung up");
                active.push(w);
            }
            grads.clear();
            // Ascending worker order == ascending chunk order (workers
            // own contiguous chunk ranges), so this fold reproduces the
            // serial summation bit for bit.
            for &w in &active {
                match self.reply_rxs[w].recv().expect("worker panicked") {
                    Reply::NuGrad(g) => grads.extend(g),
                    _ => unreachable!("non-gradient reply during the M-step"),
                }
            }
            apply_nu_step(nu, grads.iter().copied(), n, lr);
        }
        // Workers drop their Arc clones before replying, so after the
        // last barrier the coordinator usually holds the only handle.
        Arc::try_unwrap(examples).unwrap_or_default()
    }

    /// Drop the command channels and join the workers.
    pub fn shutdown(self) {
        drop(self.cmd_txs);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Parallel Pólya-Gamma resampling of `λ` over link chunks.
pub(crate) fn parallel_resample_lambda(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    n_threads: usize,
    sweep_index: u64,
) {
    let n = state.lambda.len();
    if n == 0 {
        return;
    }
    let chunk = n.div_ceil(n_threads.max(1));
    let mut fresh = vec![0.0f64; n];
    {
        let snapshot: &CpdState = state;
        std::thread::scope(|scope| {
            for (ti, out) in fresh.chunks_mut(chunk).enumerate() {
                let lo = ti * chunk;
                let hi = (lo + out.len()).min(n);
                scope.spawn(move || {
                    let mut rng =
                        child_rng(ctx.config.seed ^ 0x001A_3BDA, sweep_index * 64 + ti as u64);
                    resample_lambda_range(ctx, snapshot, lo, hi, out, &mut rng);
                });
            }
        });
    }
    state.lambda = fresh;
}

/// Parallel Pólya-Gamma resampling of `δ`, returning the cached feature
/// vectors for the M-step.
pub(crate) fn parallel_resample_delta(
    ctx: &SweepContext<'_>,
    state: &mut CpdState,
    n_threads: usize,
    sweep_index: u64,
) -> Vec<[f64; N_FEATURES]> {
    let n = state.delta.len();
    let mut xs = vec![[0.0f64; N_FEATURES]; n];
    if n == 0 {
        return xs;
    }
    let chunk = n.div_ceil(n_threads.max(1));
    let mut fresh = vec![0.0f64; n];
    {
        let snapshot: &CpdState = state;
        std::thread::scope(|scope| {
            for ((ti, out), xout) in fresh
                .chunks_mut(chunk)
                .enumerate()
                .zip(xs.chunks_mut(chunk))
            {
                let lo = ti * chunk;
                let hi = (lo + out.len()).min(n);
                scope.spawn(move || {
                    let mut rng =
                        child_rng(ctx.config.seed ^ 0xDE17A, sweep_index * 64 + ti as u64);
                    resample_delta_range(ctx, snapshot, lo, hi, out, xout, &mut rng);
                });
            }
        });
    }
    state.delta = fresh;
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_equal_items() {
        let w = vec![1.0; 8];
        let groups = allocate_segments(&w, 4);
        for g in &groups {
            assert_eq!(g.len(), 2);
        }
        assert!((balance_ratio(&groups, &w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_handles_skew() {
        // One huge segment dominates; the rest spread over other threads.
        let w = vec![100.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let groups = allocate_segments(&w, 3);
        let ratio = balance_ratio(&groups, &w);
        // The optimum puts the 100 alone: loads (100, 25, 25); ratio = 2.
        assert!(ratio <= 2.0 + 1e-9, "ratio {ratio}");
        // Segment 0 must be alone on its thread.
        let holder = groups.iter().find(|g| g.contains(&0)).unwrap();
        assert_eq!(holder.len(), 1);
    }

    #[test]
    fn knapsack_assigns_every_segment_once() {
        let w = vec![5.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        let groups = allocate_segments_knapsack(&w, 4);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert!(balance_ratio(&groups, &w) < 1.6);
    }

    #[test]
    fn allocations_cover_all_segments_under_more_threads_than_segments() {
        let w = vec![4.0, 2.0];
        let groups = allocate_segments(&w, 5);
        let all: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2);
        let groups = allocate_segments_knapsack(&w, 5);
        let all: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn balance_ratio_of_empty_groups_is_one() {
        let groups: Vec<Vec<usize>> = vec![vec![], vec![]];
        assert_eq!(balance_ratio(&groups, &[]), 1.0);
    }

    /// The sharded delta runtime and the legacy clone-and-rebuild sweep
    /// must be draw-for-draw identical: same assignments after every
    /// sweep, and delta-folded counts exactly equal to rebuilt counts.
    #[test]
    fn worker_pool_matches_clone_rebuild_sweep_for_sweep() {
        use crate::features::UserFeatures;
        use crate::state::link_metadata;
        use cpd_datagen::{generate, GenConfig, Scale};

        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            threads: Some(3),
            ..CpdConfig::experiment(4, 6)
        };
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Arc::new(Eta::uniform(4, 6));
        let nu = Arc::new(vec![0.3f64; N_FEATURES]);

        let seg = segment_users(&g, 6, 4, 10, cfg.seed ^ 0x5E6);
        let alloc = allocate_segments(&seg.workloads, 3);
        let groups: Vec<Vec<u32>> = alloc
            .iter()
            .map(|a| {
                a.iter()
                    .flat_map(|&s| seg.segments[s].iter().copied())
                    .collect()
            })
            .collect();

        let mut delta_state = CpdState::init(&g, &cfg);
        let mut clone_state = delta_state.clone();

        let tables = SamplerTables::new(&g, &cfg);
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::spawn(
                scope,
                &g,
                &cfg,
                &features,
                &links,
                &tables,
                &groups,
                &delta_state,
            );
            for sweep in 1..=4u64 {
                let stats = pool.sweep(&g, &mut delta_state, SweepPhase::Full, sweep, &eta, &nu);
                assert_eq!(stats.thread_seconds.len(), 3);

                let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
                clone_rebuild_doc_sweep(&ctx, &mut clone_state, &groups, SweepPhase::Full, sweep);

                assert_eq!(delta_state.doc_community, clone_state.doc_community);
                assert_eq!(delta_state.doc_topic, clone_state.doc_topic);
                assert_eq!(
                    delta_state.user_comm.snapshot(),
                    clone_state.user_comm.snapshot()
                );
                assert_eq!(
                    delta_state.comm_topic.snapshot(),
                    clone_state.comm_topic.snapshot()
                );
                assert_eq!(
                    delta_state.word_topic.snapshot(),
                    clone_state.word_topic.snapshot()
                );
                assert_eq!(delta_state.n_tz, clone_state.n_tz);
                delta_state.check_consistency(&g).unwrap();
            }
            pool.shutdown();
        });
    }

    /// The pool's ν fit is bit-identical to the serial `mstep::fit_nu`
    /// at every worker count: the chunk partials and their fold order
    /// are fixed, however the chunks are spread over the workers.
    #[test]
    fn pool_nu_fit_is_bit_equal_to_serial() {
        use crate::features::UserFeatures;
        use crate::mstep::fit_nu;
        use crate::state::link_metadata;
        use cpd_datagen::{generate, GenConfig, Scale};
        use cpd_prob::rng::seeded_rng;
        use rand::Rng;

        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            nu_iters: 17,
            ..CpdConfig::experiment(3, 4)
        };
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let tables = SamplerTables::new(&g, &cfg);
        let state = CpdState::init(&g, &cfg);
        // Five full chunks and a partial sixth.
        let mut rng = seeded_rng(21);
        let examples: Vec<NuExample> = (0..NU_GRAD_CHUNK * 5 + 137)
            .map(|i| {
                let mut x = [0.0; N_FEATURES];
                for xi in x.iter_mut() {
                    *xi = rng.gen::<f64>() - 0.5;
                }
                x[0] = 1.0;
                NuExample {
                    x,
                    label: i % 3 == 0,
                }
            })
            .collect();
        let mut serial = vec![0.05; N_FEATURES];
        fit_nu(&examples, &mut serial, &cfg);
        for workers in 1..=4usize {
            let groups: Vec<Vec<u32>> = (0..workers)
                .map(|w| {
                    (0..g.n_users() as u32)
                        .filter(|u| *u as usize % workers == w)
                        .collect()
                })
                .collect();
            std::thread::scope(|scope| {
                let mut pool =
                    WorkerPool::spawn(scope, &g, &cfg, &features, &links, &tables, &groups, &state);
                let mut pooled = vec![0.05; N_FEATURES];
                let back = pool.fit_nu(examples.clone(), &mut pooled, &cfg);
                assert_eq!(back.len(), examples.len(), "examples handed back");
                let bits = |nu: &[f64]| nu.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pooled), bits(&serial), "{workers} workers diverged");
                pool.shutdown();
            });
        }
    }

    /// The same oracle on the ν training set the trainer assembles from
    /// a real state: the observed links' feature vectors as positives
    /// plus sampled non-linked pairs as negatives.
    #[test]
    fn pool_nu_fit_is_bit_equal_to_serial_on_a_real_state() {
        use crate::features::UserFeatures;
        use crate::gibbs::diffusion_logit;
        use crate::mstep::{build_nu_training_set, estimate_eta, fit_nu};
        use crate::state::link_metadata;
        use cpd_datagen::{generate, GenConfig, Scale};
        use cpd_prob::rng::seeded_rng;

        let gen = GenConfig::twitter_like(Scale::Small);
        let (g, _) = generate(&gen);
        let cfg = CpdConfig::experiment(gen.n_communities, gen.n_topics);
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let tables = SamplerTables::new(&g, &cfg);
        let state = CpdState::init(&g, &cfg);
        let eta = estimate_eta(&state, &links, cfg.eta_smoothing);
        let nu = vec![0.1; N_FEATURES];
        let ctx = SweepContext::new(&g, &cfg, &eta, &nu, &features, &links, &tables);
        let mut buf = Vec::new();
        let positive_x: Vec<[f64; N_FEATURES]> = links
            .iter()
            .map(|lm| diffusion_logit(&ctx, &state, lm, &mut buf).1)
            .collect();
        let mut rng = seeded_rng(77);
        let examples = build_nu_training_set(
            &g,
            &cfg,
            &eta,
            &nu,
            &features,
            &links,
            &state,
            &positive_x,
            &mut rng,
        );
        assert!(
            examples.len() > NU_GRAD_CHUNK * 4,
            "the fit spans five chunks"
        );

        let mut serial = nu.clone();
        fit_nu(&examples, &mut serial, &cfg);
        for workers in [1usize, 2, 4, 8] {
            let groups: Vec<Vec<u32>> = (0..workers)
                .map(|w| {
                    (0..g.n_users() as u32)
                        .filter(|u| *u as usize % workers == w)
                        .collect()
                })
                .collect();
            std::thread::scope(|scope| {
                let mut pool =
                    WorkerPool::spawn(scope, &g, &cfg, &features, &links, &tables, &groups, &state);
                let mut pooled = nu.clone();
                pool.fit_nu(examples.clone(), &mut pooled, &cfg);
                let bits = |nu: &[f64]| nu.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pooled), bits(&serial), "{workers} workers diverged");
                pool.shutdown();
            });
        }
    }

    /// Deltas recorded by a worker verify against a rebuild from any
    /// base state they are applied to.
    #[test]
    fn worker_deltas_verify_against_rebuild() {
        use crate::features::UserFeatures;
        use crate::state::link_metadata;
        use cpd_datagen::{generate, GenConfig, Scale};

        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            threads: Some(2),
            ..CpdConfig::experiment(3, 4)
        };
        let features = UserFeatures::compute(&g);
        let links = link_metadata(&g);
        let eta = Arc::new(Eta::uniform(3, 4));
        let nu = Arc::new(vec![0.1f64; N_FEATURES]);
        let groups: Vec<Vec<u32>> = vec![
            (0..g.n_users() as u32 / 2).collect(),
            (g.n_users() as u32 / 2..g.n_users() as u32).collect(),
        ];
        let mut state = CpdState::init(&g, &cfg);
        let base = state.clone();
        let tables = SamplerTables::new(&g, &cfg);
        std::thread::scope(|scope| {
            let mut pool =
                WorkerPool::spawn(scope, &g, &cfg, &features, &links, &tables, &groups, &state);
            let stats = pool.sweep(&g, &mut state, SweepPhase::Full, 1, &eta, &nu);
            assert!(stats.changed_docs > 0, "tiny graph should reshuffle");
            // The merged delta of the sweep reproduces the fold exactly.
            let mut merged = CountDelta::new(&base);
            for d in pool.prev.iter() {
                merged.merge(d);
            }
            merged.verify_against_rebuild(&g, &base).unwrap();
            pool.shutdown();
        });
    }
}
