//! Parallel E-step (Sect. 4.3): LDA-guided data segmentation, workload
//! estimation, knapsack-style allocation to threads, and the sharded
//! runtimes that execute the per-sweep worker barrier.
//!
//! # Parallel runtime
//!
//! Workers follow the approximate-distributed-Gibbs recipe: each thread
//! owns a disjoint set of *users* (so a user's documents never split
//! across threads — the paper's first segmentation guideline) and reads
//! neighbouring assignments as of the sweep start. Three runtimes
//! execute the barrier, selectable via
//! [`crate::config::ParallelRuntime`]:
//!
//! * **`CloneRebuild`** (legacy oracle): every sweep each thread clones
//!   the full count state, samples its user group, and the merged
//!   assignments are rebuilt into the canonical state from scratch —
//!   `O(threads × |state|)` memcpy plus an `O(|D| + tokens)` rebuild
//!   per sweep. Kept for benchmarking and as the differential-testing
//!   oracle.
//!
//! * **`DeltaSharded`** (the deterministic workhorse, and what `Auto`
//!   picks for most fits): the persistent `WorkerPool`,
//!   spawned **once per fit**. Each worker keeps a replica of the
//!   sampler state, cloned at spawn and kept in sync incrementally:
//!   every sweep it refreshes from the coordinator's sync package,
//!   sweeps its owned users while recording a [`CountDelta`], and ships
//!   the delta back. The sync package is planned **per count array**
//!   from the previous sweep's churn ([`CountRefresh::decide`]): a
//!   sparsely-touched array replays the other shards' logs; a heavily
//!   churned array ships as one shared snapshot that replicas
//!   `copy_from_slice`. Draw-for-draw identical to `CloneRebuild`.
//!
//! * **`LockFreeCounts`**: like `DeltaSharded`, but the **full plane
//!   set** — word-topic (`n_zw`/`n_z`), community-topic (`n_cz`/`n_c`)
//!   and user-community (`n_uc`, with the constant `n_u` marginal) —
//!   lives on **shared atomic planes**
//!   ([`crate::counts::AtomicPlane`], cache-aligned striped slabs)
//!   that every replica aliases. Workers publish count increments
//!   directly during the sweep with relaxed atomics, so those arrays
//!   vanish from the `CountDelta` logs, are never folded, and need no
//!   replica sync at all — the log shrinks to the assignment writes
//!   plus the tiny `n_tz` entries, and the end-to-end trainer is
//!   lock-free in its counts. Mid-sweep reads may observe other
//!   shards' in-flight updates — the standard approximate-Gibbs
//!   relaxation, so this runtime is *distributionally* equivalent to
//!   the others (the differential tests in `tests/parallel_lockfree.rs`
//!   check perplexity and community recovery, not draw identity), while
//!   the counts are still **exact at every barrier** (atomic
//!   read-modify-writes lose nothing).
//!
//! # Topology awareness (`LockFreeCounts`)
//!
//! The lock-free planes are laid out and scheduled against the machine,
//! not just against the index space — see the `counts.rs` module docs
//! for the layout half of the story:
//!
//! * **Stripe ownership + first-touch placement.** Each worker owns a
//!   contiguous block of plane stripes ([`crate::counts::AtomicPlane::owned_range`],
//!   a stable map fixed at spawn). The planes are allocated zeroed but
//!   *untouched* on the coordinator; at spawn every worker writes the
//!   initial tallies into exactly its owned stripes on its own thread
//!   (`FirstTouchPlan`), so the kernel's first-touch policy places
//!   each stripe's pages on the owning worker's NUMA node. The pool
//!   waits for all fills before the first sweep, so counts are exact
//!   from the first barrier on.
//! * **Affinity pinning.** With [`crate::config::CpdConfig::affinity`]
//!   set, each worker pins itself to a CPU (`worker mod
//!   available_parallelism`) via a raw `sched_setaffinity` call before
//!   touching its stripes, keeping the ownership map aligned with the
//!   topology for the fit's whole lifetime. Refusals (containers,
//!   cpuset limits, non-Linux) degrade to a logged no-op.
//! * **Local/remote accounting.** Every shared-plane RMW is classified
//!   against the issuing handle's owned stripes; the per-sweep
//!   local/remote split reaches [`AtomicOpsBreakdown`] and
//!   `FitDiagnostics`, quantifying how much sweep traffic crossed
//!   stripe ownership (a proxy for cross-node traffic).
//! * **Locality-tiled sweep scheduling.** With
//!   [`crate::config::CpdConfig::sweep_tiling`] set, each worker
//!   reorders its document queue once at spawn into word-range tiles
//!   (by median word id). The `n_zw` plane is word-major (`W × Z`), so
//!   a word range is one contiguous plane range: successive token
//!   updates stay inside that warm slice (and mostly inside the
//!   worker's own stripes) instead of scattering over the whole plane —
//!   this only permutes the worker's visit order, which the
//!   approximate-Gibbs relaxation already tolerates; the draw-identical
//!   runtimes keep user order.
//!
//! * **`Auto`** (the config default): not a fourth runtime but a
//!   per-fit resolution step — [`choose_runtime`] inspects the corpus
//!   shape and thread count once, before any worker spawns, and picks
//!   `DeltaSharded` or `LockFreeCounts` (see its docs for the exact
//!   heuristic and the bench numbers behind it). The resolved choice is
//!   recorded in `FitDiagnostics::runtime`.
//!
//! # The barrier fold
//!
//! The barrier fold is parallelised: after collecting the sweep deltas
//! the coordinator ships each canonical count array still tracked in
//! the logs (moved out of the state, so no copies and no unsafe
//! aliasing) to an idle **worker thread** as a `FoldTask`; workers
//! replay all shards' logs for their array, clone the refresh snapshot
//! for it when [`CountRefresh::decide`] picked the snapshot path, and
//! send the folded array back. The coordinator's residual work is
//! channel traffic and re-installing the arrays. Count arrays are the
//! fold's sharding unit; under `LockFreeCounts` every count pair lives
//! on a shared plane, so only the assignment replay and `n_tz` reach
//! the fold at all.
//!
//! `CpdState::rebuild_counts` runs only at initialisation.
//!
//! # The parallel M-step
//!
//! Between E-steps the same worker pool executes the M-step (the
//! trainer's last serial resident): `estimate_eta`'s link aggregation
//! is sharded into per-worker `|C|·|C|·|Z|` count buffers combined by
//! a tree reduce, and each `fit_nu` gradient-descent iteration shards
//! its gradient/sigmoid pass over fixed example chunks. Both are
//! **bit-identical** to the serial estimators at any worker count (see
//! the `mstep` module docs), which is how `DeltaSharded` stays
//! draw-for-draw identical to the `CloneRebuild` oracle while its
//! M-step runs on the pool.
//!
//! With [`crate::config::CpdConfig::overlap_mstep`] set, the trainer
//! instead *overlaps* η/ν estimation with the next E-step's first
//! document sweep: the coordinator issues the sweep (workers run with
//! the previous η/ν — they are read-only inputs to the sweep context),
//! computes the M-step on its own idle thread, and swaps the fresh
//! parameters in behind an `Arc` at the next barrier
//! (`WorkerPool::begin_sweep` / `WorkerPool::finish_sweep` expose the
//! two barrier halves). The η inputs (the assignment vectors) are
//! coordinator-owned and barrier-exact during the sweep; the ν
//! negative-example features additionally read `π̂`/`θ̂`, which under
//! `LockFreeCounts` go through the live shared planes and may observe
//! mid-sweep counts — safe, but approximate (and non-reproducible),
//! exactly like the sweep's own reads. Under `DeltaSharded` every
//! M-step input is dense and coordinator-owned, so the overlapped
//! pipeline stays fully deterministic.

use crate::config::CpdConfig;
use crate::config::ParallelRuntime;
use crate::counts::OpsSplit;
use crate::features::{UserFeatures, N_FEATURES};
use crate::gibbs::{
    resample_delta_range, resample_lambda_range, sweep_doc_queue, sweep_user_docs, SamplerStats,
    SamplerTables, SweepContext, SweepPhase, SweepScratch,
};
use crate::mstep::{
    apply_nu_step, eta_counts_range, nu_chunk_grad, tree_reduce_counts, NuExample, NU_GRAD_CHUNK,
};
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

/// Resolve [`ParallelRuntime::Auto`] to a concrete runtime from the
/// corpus shape and thread count; explicit runtime choices pass through
/// untouched.
///
/// The decision follows the committed `BENCH_lockfree_counts.json`
/// numbers: on the paper-shaped bench corpus (K=50, V=60k) the shared
/// atomic planes win at 8 threads (262 ms vs 377 ms per fit) but lose
/// serially (226 ms vs 165 ms) — their advantage is skipping the
/// per-sweep delta fold of the huge dense planes, which only pays once
/// the planes dwarf the per-sweep token churn. So `Auto` picks:
///
/// * **`DeltaSharded`** when serial (`threads <= 1`) or whenever the
///   count planes are small relative to the corpus — the delta fold is
///   cheap there, and the runtime stays draw-for-draw deterministic.
/// * **`LockFreeCounts`** when multi-threaded *and* the plane slot
///   count (`Z·W + C·Z + U·C`) is both large in absolute terms
///   (≥ 2¹⁷ slots) and at least 64× the token count — i.e. folding the
///   dense planes would move far more memory per sweep than the sweep
///   itself touches.
///
/// The tiny differential-test graphs stay on the deterministic
/// `DeltaSharded` path under `Auto`; the wide-vocabulary bench corpus
/// flips to the lock-free planes.
pub fn choose_runtime(graph: &SocialGraph, config: &CpdConfig) -> ParallelRuntime {
    match config.parallel_runtime {
        ParallelRuntime::Auto => {
            let threads = config.threads.unwrap_or(1).max(1);
            if threads <= 1 {
                return ParallelRuntime::DeltaSharded;
            }
            let z = config.n_topics;
            let c = config.n_communities;
            let plane_slots = z * graph.vocab_size() + c * z + graph.n_users() * c;
            let tokens = graph.n_tokens();
            if plane_slots >= 64 * tokens.max(1) && plane_slots >= (1 << 17) {
                ParallelRuntime::LockFreeCounts
            } else {
                ParallelRuntime::DeltaSharded
            }
        }
        explicit => explicit,
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

/// Pin the calling thread to one CPU via a raw `sched_setaffinity(2)`
/// call (std links libc already; no crate needed). Returns `false`
/// when the kernel refuses — cpuset-restricted containers commonly do —
/// or when `cpu` exceeds the fixed 1024-CPU mask.
#[cfg(target_os = "linux")]
fn pin_current_thread(cpu: usize) -> bool {
    const MASK_CPUS: usize = 1024;
    #[repr(C)]
    struct CpuSet {
        bits: [u64; MASK_CPUS / 64],
    }
    extern "C" {
        // pid 0 = the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    if cpu >= MASK_CPUS {
        return false;
    }
    let mut set = CpuSet {
        bits: [0; MASK_CPUS / 64],
    };
    set.bits[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `set` is a valid, initialised mask of the size we pass;
    // sched_setaffinity only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Non-Linux: no portable pinning syscall; always reports failure so
/// the caller logs the no-op.
#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Best-effort worker pinning (`CpdConfig::affinity`): worker `me` goes
/// to CPU `me mod available_parallelism`. Failure is a logged no-op —
/// the fit proceeds unpinned, exactly as without the knob.
fn pin_worker(me: usize) {
    let n_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = me % n_cpus;
    if !pin_current_thread(cpu) {
        eprintln!("cpd: worker {me}: sched_setaffinity(cpu {cpu}) unavailable; running unpinned");
    }
}

/// Dense sources for the workers' first-touch fill of the shared count
/// planes.
///
/// Built by [`FirstTouchPlan::install`], which swaps the state's three
/// count pairs for **cold** shared planes (allocated zeroed, pages
/// untouched) and keeps the prior tallies here. At spawn each worker
/// calls `fill_owned` against these sources on its own thread, faulting
/// exactly its owned stripes' pages in — the NUMA first-touch policy
/// then places them on that worker's node. The coordinator blocks until
/// every worker has filled, so the planes are exact before any sweep.
#[derive(Clone)]
pub(crate) struct FirstTouchPlan {
    /// `(n_uc, n_u)` dense tallies.
    user_comm: Arc<(Vec<u32>, Vec<u32>)>,
    /// `(n_cz, n_c)` dense tallies.
    comm_topic: Arc<(Vec<u32>, Vec<u32>)>,
    /// `(n_zw, n_z)` dense tallies.
    word_topic: Arc<(Vec<u32>, Vec<u32>)>,
}

impl FirstTouchPlan {
    /// Convert the state's three count pairs to cold shared planes of
    /// `n_shards` stripes (`padded` selects the cache-aligned layout)
    /// and capture their current tallies as the fill sources.
    pub fn install(state: &mut CpdState, n_shards: usize, padded: bool) -> Self {
        let (user_comm, uc_src) = state.user_comm.to_shared_cold(n_shards, padded);
        let (comm_topic, cz_src) = state.comm_topic.to_shared_cold(n_shards, padded);
        let (word_topic, zw_src) = state.word_topic.to_shared_cold(n_shards, padded);
        state.user_comm = user_comm;
        state.comm_topic = comm_topic;
        state.word_topic = word_topic;
        Self {
            user_comm: Arc::new(uc_src),
            comm_topic: Arc::new(cz_src),
            word_topic: Arc::new(zw_src),
        }
    }

    /// Worker side: first-touch `local`'s owned stripes of all three
    /// pairs (ownership was assigned via `set_owner` before spawn).
    fn fill(&self, local: &mut CpdState) {
        local
            .user_comm
            .fill_owned(&self.user_comm.0, &self.user_comm.1);
        local
            .comm_topic
            .fill_owned(&self.comm_topic.0, &self.comm_topic.1);
        local
            .word_topic
            .fill_owned(&self.word_topic.0, &self.word_topic.1);
    }
}

/// Bytes of the `n_zw` plane each locality tile targets: roughly an
/// LLC-friendly working set per tile, so the tile's token updates keep
/// hitting warm lines.
const TILE_TARGET_BYTES: usize = 1 << 21;

/// Order a worker's documents into word-range tiles: tile key = the
/// document's median word id divided by the tile width. The plane is
/// word-major, so a tile's words own one contiguous `tile_words × |Z|`
/// range of `n_zw`, sized to ~[`TILE_TARGET_BYTES`]. The sort
/// is stable, so documents keep user order within a tile and the queue
/// is deterministic — every owned document appears exactly once, only
/// the visit order changes.
fn tiled_doc_queue(graph: &SocialGraph, users: &[u32], n_topics: usize) -> Vec<u32> {
    let tile_words =
        (TILE_TARGET_BYTES / (std::mem::size_of::<u32>() * n_topics.max(1))).max(1) as u32;
    let mut keyed: Vec<(u32, u32)> = Vec::new();
    let mut words: Vec<u32> = Vec::new();
    for &u in users {
        for d in graph.docs_of(UserId(u)) {
            let doc = graph.doc(d);
            words.clear();
            words.extend(doc.words.iter().map(|w| w.0));
            let tile = if words.is_empty() {
                0
            } else {
                let mid = words.len() / 2;
                let (_, median, _) = words.select_nth_unstable(mid);
                *median / tile_words
            };
            keyed.push((tile, d.0));
        }
    }
    keyed.sort_by_key(|&(tile, _)| tile);
    keyed.into_iter().map(|(_, d)| d).collect()
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
/// canonical count arrays at the barrier, or execute one shard of the
/// M-step (η link aggregation / one ν gradient pass).
enum Cmd {
    Sweep(SweepCmd),
    Fold(FoldCmd),
    EtaShard(EtaCmd),
    NuGrad(NuGradCmd),
}

/// One worker's shard of the η link aggregation: count links
/// `[lo, hi)` into `buf` (shipped back and forth so the buffer is
/// reused across EM iterations instead of reallocated).
struct EtaCmd {
    lo: usize,
    hi: usize,
    doc_community: Arc<Vec<u32>>,
    doc_topic: Arc<Vec<u32>>,
    buf: Vec<f64>,
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

/// Which canonical array class a [`FoldTask`] carries. The three count
/// pairs appear only when their planes are dense — a shared atomic
/// plane (`LockFreeCounts`) is folded by construction and never ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldKind {
    /// `doc_community` + `doc_topic` (assignment replay).
    Assign,
    /// Dense `n_uc` + the constant `n_u` marginal.
    NUc,
    /// Dense `n_cz` + the `n_c` marginal.
    NCz,
    /// Dense `n_zw` + the `n_z` marginal.
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
                state.user_comm.restore_dense(self.a, self.b);
                refresh.n_uc = self.snap_a;
                fold.n_uc = self.seconds;
            }
            FoldKind::NCz => {
                state.comm_topic.restore_dense(self.a, self.b);
                refresh.n_cz = self.snap_a;
                fold.n_cz = self.seconds;
            }
            FoldKind::WordTopic => {
                state.word_topic.restore_dense(self.a, self.b);
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

/// A worker's reply: the sweep result, the folded arrays, one M-step
/// shard's output, or the one-time first-touch acknowledgement.
enum Reply {
    Sweep(Box<WorkerReply>),
    Fold(Vec<FoldTask>),
    Eta(Vec<f64>),
    NuGrad(Vec<[f64; N_FEATURES]>),
    /// The worker finished zeroing/filling its owned stripes of the
    /// cold shared planes (first-touch placement). Sent once, right
    /// after spawn, only when the pool was given a [`FirstTouchPlan`].
    Touched,
}

/// A worker's result for one sweep.
struct WorkerReply {
    delta: CountDelta,
    busy_secs: f64,
    sync_secs: f64,
    /// Atomic read-modify-writes this worker published to the shared
    /// count planes (all zero for dense planes).
    atomic_ops: AtomicOpsBreakdown,
    /// This worker's sampler accounting for the sweep (alias rebuilds,
    /// MH acceptance, sparse-row occupancy).
    sampler: SamplerStats,
}

/// Per-plane atomic read-modify-writes published to the shared count
/// planes during one sharded sweep (all zero unless the runtime is
/// `LockFreeCounts`) — the contention measure for the lock-free count
/// planes, surfaced through `FitDiagnostics::atomic_ops`. Besides the
/// per-plane totals, the sweep's RMWs are split by stripe ownership:
/// `local` ops landed in the issuing worker's own stripes (same-node
/// memory after first-touch placement), `remote` ops crossed into
/// another worker's stripes.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomicOpsBreakdown {
    /// RMWs on the `n_zw`/`n_z` plane (two per moved token, plus the
    /// remove/re-add traffic of unmoved documents).
    pub word_topic: u64,
    /// RMWs on the `n_cz`/`n_c` plane.
    pub comm_topic: u64,
    /// RMWs on the `n_uc` plane.
    pub user_comm: u64,
    /// RMWs (across all three planes) into the issuing worker's owned
    /// stripes.
    pub local: u64,
    /// RMWs into other workers' stripes.
    pub remote: u64,
}

impl AtomicOpsBreakdown {
    /// Build from the three pairs' drained per-handle splits.
    fn from_splits(word_topic: OpsSplit, comm_topic: OpsSplit, user_comm: OpsSplit) -> Self {
        Self {
            word_topic: word_topic.total(),
            comm_topic: comm_topic.total(),
            user_comm: user_comm.total(),
            local: word_topic.local + comm_topic.local + user_comm.local,
            remote: word_topic.remote + comm_topic.remote + user_comm.remote,
        }
    }

    /// Sum across the three planes.
    pub fn total(&self) -> u64 {
        self.word_topic + self.comm_topic + self.user_comm
    }

    /// Fraction of RMWs that stayed in the issuing worker's stripes
    /// (`None` when no RMW was published).
    pub fn local_fraction(&self) -> Option<f64> {
        let total = self.local + self.remote;
        (total > 0).then(|| self.local as f64 / total as f64)
    }

    /// Element-wise accumulation (totals across a sweep's workers).
    pub fn accumulate(&mut self, other: AtomicOpsBreakdown) {
        self.word_topic += other.word_topic;
        self.comm_topic += other.comm_topic;
        self.user_comm += other.user_comm;
        self.local += other.local;
        self.remote += other.remote;
    }
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
    /// `n_uc` fold (0 under `LockFreeCounts` — a shared atomic plane is
    /// never folded).
    pub n_uc: f64,
    /// `n_cz` + `n_c` fold (0 under `LockFreeCounts`).
    pub n_cz: f64,
    /// Dense `n_zw` + `n_z` fold (0 under `LockFreeCounts`).
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
    /// Per-plane atomic RMWs published to the shared planes this sweep.
    pub atomic_ops: AtomicOpsBreakdown,
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
    /// Reusable per-worker η aggregation buffers (shipped to the
    /// workers with each [`Cmd::EtaShard`] and returned folded).
    eta_bufs: Vec<Vec<f64>>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> WorkerPool<'scope> {
    /// Spawn one worker per user group. Each worker clones `state` once
    /// — the only full copy it will ever make. (Under `LockFreeCounts`
    /// the clone's word-topic plane is another handle onto the shared
    /// atomics, not a copy.)
    ///
    /// When `first_touch` is `Some`, the shared planes in `state` were
    /// installed cold ([`FirstTouchPlan::install`]) and each worker
    /// zeroes-then-fills its owned stripes before the pool returns —
    /// the first write to every owned page happens on the owning
    /// thread, so the kernel places it on that thread's NUMA node.
    /// `spawn` blocks until all workers have touched their stripes, so
    /// the planes are exact before the first sweep.
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
        first_touch: Option<FirstTouchPlan>,
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
            local.user_comm.set_owner(me, n_workers);
            local.comm_topic.set_owner(me, n_workers);
            local.word_topic.set_owner(me, n_workers);
            let ft = first_touch.clone();
            handles.push(scope.spawn(move || {
                if config.affinity {
                    pin_worker(me);
                }
                if let Some(plan) = &ft {
                    plan.fill(&mut local);
                    if reply_tx.send(Reply::Touched).is_err() {
                        return; // Coordinator is gone; shut down.
                    }
                }
                // Word-range tiling only reorders the queue under shared
                // (lock-free) planes: delta-sharded runtimes must keep
                // the graph's document order to stay draw-identical with
                // the serial sampler.
                let doc_queue = if config.sweep_tiling && local.word_topic.is_shared() {
                    Some(tiled_doc_queue(graph, &users, config.n_topics))
                } else {
                    None
                };
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
                            match &doc_queue {
                                Some(queue) => sweep_doc_queue(
                                    &ctx,
                                    &mut local,
                                    queue,
                                    &mut rng,
                                    cmd.phase,
                                    &mut delta,
                                    &mut scratch,
                                ),
                                None => sweep_user_docs(
                                    &ctx,
                                    &mut local,
                                    &users,
                                    &mut rng,
                                    cmd.phase,
                                    &mut delta,
                                    &mut scratch,
                                ),
                            }
                            let busy_secs = busy_start.elapsed().as_secs_f64();
                            Reply::Sweep(Box::new(WorkerReply {
                                delta,
                                busy_secs,
                                sync_secs,
                                atomic_ops: AtomicOpsBreakdown::from_splits(
                                    local.word_topic.take_ops(),
                                    local.comm_topic.take_ops(),
                                    local.user_comm.take_ops(),
                                ),
                                sampler: scratch.take_stats(),
                            }))
                        }
                        Cmd::Fold(mut fold) => {
                            for task in &mut fold.tasks {
                                task.run(&fold.deltas);
                            }
                            Reply::Fold(fold.tasks)
                        }
                        Cmd::EtaShard(cmd) => {
                            let mut buf = cmd.buf;
                            eta_counts_range(
                                &cmd.doc_community,
                                &cmd.doc_topic,
                                &links[cmd.lo..cmd.hi],
                                config.n_communities,
                                config.n_topics,
                                &mut buf,
                            );
                            Reply::Eta(buf)
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
        if first_touch.is_some() {
            // Block until every worker has first-touched its stripes:
            // the shared planes must be exact before the first sweep
            // reads them.
            for rx in &reply_rxs {
                match rx.recv().expect("worker died during first touch") {
                    Reply::Touched => {}
                    _ => unreachable!("first reply after spawn must be Touched"),
                }
            }
        }
        Self {
            cmd_txs,
            reply_rxs,
            prev: Arc::new(Vec::new()),
            pending_replay: SyncPlan::ALL,
            pending_refresh: Arc::new(CountRefresh::default()),
            eta_bufs: Vec::new(),
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
        self.begin_sweep(state, phase, sweep_index, eta, nu);
        self.finish_sweep(graph, state)
    }

    /// First barrier half: broadcast the sweep command (previous-sweep
    /// sync package, fresh PG vectors, current η/ν) and return while
    /// the workers sweep. The canonical dense arrays (assignments,
    /// `n_tz`, dense count pairs) stay untouched until
    /// [`WorkerPool::finish_sweep`], so the coordinator may read them
    /// concurrently — that is what the overlapped M-step does. Shared
    /// atomic planes are the exception: they are live during the
    /// sweep, so coordinator reads through them see mid-sweep counts.
    pub fn begin_sweep(
        &mut self,
        state: &CpdState,
        phase: SweepPhase,
        sweep_index: u64,
        eta: &Arc<Eta>,
        nu: &Arc<Vec<f64>>,
    ) {
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
    }

    /// Second barrier half: collect the workers' sweep deltas and fold
    /// them into the canonical `state` on the (now idle) worker
    /// threads, one [`FoldTask`] per dense count array.
    pub fn finish_sweep(&mut self, graph: &SocialGraph, state: &mut CpdState) -> SweepStats {
        let n_workers = self.cmd_txs.len();
        let mut deltas = Vec::with_capacity(n_workers);
        let mut thread_seconds = Vec::with_capacity(n_workers);
        let mut snapshot_seconds = 0.0f64;
        let mut changed_docs = 0usize;
        let mut atomic_ops = AtomicOpsBreakdown::default();
        let mut sampler = SamplerStats::default();
        let mut sizes = DeltaSizes::default();
        for rx in &self.reply_rxs {
            match rx.recv().expect("worker panicked") {
                Reply::Sweep(reply) => {
                    changed_docs += reply.delta.n_changed_docs();
                    sizes.accumulate(reply.delta.log_sizes());
                    thread_seconds.push(reply.busy_secs);
                    snapshot_seconds = snapshot_seconds.max(reply.sync_secs);
                    atomic_ops.accumulate(reply.atomic_ops);
                    sampler.merge(&reply.sampler);
                    deltas.push(reply.delta);
                }
                _ => unreachable!("non-sweep reply outside a barrier"),
            }
        }
        // Delta-size diagnostic: a shared plane's increments must have
        // gone to the plane, never the logs.
        debug_assert!(
            !state.word_topic.is_shared() || sizes.n_zw == 0,
            "shared n_zw plane leaked {} delta entries",
            sizes.n_zw
        );
        debug_assert!(
            !state.comm_topic.is_shared() || sizes.n_cz == 0,
            "shared n_cz plane leaked {} delta entries",
            sizes.n_cz
        );
        debug_assert!(
            !state.user_comm.is_shared() || sizes.n_uc == 0,
            "shared n_uc plane leaked {} delta entries",
            sizes.n_uc
        );

        // ---- Barrier fold, on the worker threads --------------------
        let merge_start = Instant::now();
        let deltas = Arc::new(deltas);
        // Decide the next sweep's replay-vs-snapshot sync per array;
        // the fold workers clone the snapshots for non-replayed arrays.
        let replay = CountRefresh::decide(state, sizes, n_workers);
        let mut tasks = Vec::with_capacity(5);
        // Dense planes join the fold (word-topic kept first: the
        // scheduler below gives the dominant `W × Z` fold a worker of
        // its own). A shared atomic plane received every increment
        // during the sweep already and never appears here.
        if let Some((n_zw, n_z)) = state.word_topic.take_dense() {
            tasks.push(FoldTask::new(FoldKind::WordTopic, n_zw, n_z, !replay.n_zw));
        }
        tasks.push(FoldTask::new(
            FoldKind::Assign,
            std::mem::take(&mut state.doc_community),
            std::mem::take(&mut state.doc_topic),
            !replay.assign,
        ));
        if let Some((n_uc, n_u)) = state.user_comm.take_dense() {
            tasks.push(FoldTask::new(FoldKind::NUc, n_uc, n_u, !replay.n_uc));
        }
        if let Some((n_cz, n_c)) = state.comm_topic.take_dense() {
            tasks.push(FoldTask::new(FoldKind::NCz, n_cz, n_c, !replay.n_cz));
        }
        tasks.push(FoldTask::new(
            FoldKind::NTz,
            std::mem::take(&mut state.n_tz),
            Vec::new(),
            !replay.n_tz,
        ));
        // Schedule: the `W × Z` fold dwarfs every other array, so with
        // more than one worker it gets a bucket to itself and the small
        // arrays round-robin over the remaining workers.
        let mut buckets: Vec<Vec<FoldTask>> = (0..n_workers).map(|_| Vec::new()).collect();
        let mut tasks = tasks.into_iter().peekable();
        let small_workers: Vec<usize> =
            if n_workers > 1 && tasks.peek().map(|t| t.kind) == Some(FoldKind::WordTopic) {
                buckets[0].push(tasks.next().expect("just peeked"));
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
            atomic_ops,
            sampler,
        }
    }

    /// Shard `estimate_eta`'s link aggregation over the idle workers:
    /// each worker counts a contiguous link range into its reusable
    /// `|C|·|C|·|Z|` buffer, and the partials are combined by a tree
    /// reduce. Counts are integer-valued, so the result is bit-equal to
    /// the serial [`crate::mstep::estimate_eta`] at any worker count.
    pub fn estimate_eta(&mut self, state: &CpdState, links: &[LinkMeta], smoothing: f64) -> Eta {
        let n_workers = self.cmd_txs.len();
        let c_n = state.n_communities;
        let z_n = state.n_topics;
        let mut bufs = std::mem::take(&mut self.eta_bufs);
        bufs.resize_with(n_workers, Vec::new);
        let dc = Arc::new(state.doc_community.clone());
        let dt = Arc::new(state.doc_topic.clone());
        let chunk = links.len().div_ceil(n_workers).max(1);
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(n_workers);
        let mut active: Vec<usize> = Vec::new();
        for (w, mut buf) in bufs.drain(..).enumerate() {
            let lo = (w * chunk).min(links.len());
            let hi = ((w + 1) * chunk).min(links.len());
            if lo < hi {
                self.cmd_txs[w]
                    .send(Cmd::EtaShard(EtaCmd {
                        lo,
                        hi,
                        doc_community: Arc::clone(&dc),
                        doc_topic: Arc::clone(&dt),
                        buf,
                    }))
                    .expect("worker hung up");
                active.push(w);
                out.push(Vec::new()); // placeholder until the reply lands
            } else {
                // Idle worker (more workers than link shards): a zeroed
                // buffer keeps the reduce shape uniform.
                buf.clear();
                buf.resize(c_n * c_n * z_n, 0.0);
                out.push(buf);
            }
        }
        for &w in &active {
            match self.reply_rxs[w].recv().expect("worker panicked") {
                Reply::Eta(buf) => out[w] = buf,
                _ => unreachable!("non-eta reply during the M-step"),
            }
        }
        tree_reduce_counts(&mut out);
        let eta = Eta::from_counts(c_n, z_n, &out[0], smoothing);
        self.eta_bufs = out;
        eta
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
                None,
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
            let mut pool = WorkerPool::spawn(
                scope, &g, &cfg, &features, &links, &tables, &groups, &state, None,
            );
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
