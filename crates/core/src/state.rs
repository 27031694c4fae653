//! Gibbs-sampler state: latent assignments, count matrices and the
//! empirical estimators `π̂`, `θ̂`, `φ̂` (Sect. 4.2) derived from them.
//!
//! Each count pair is a plain [`PairCounts`] that its replica owns
//! outright. A sharded worker logs every count mutation of its sweep in
//! a [`CountDelta`]; the barrier fold replays the logs into the
//! canonical state, and the next sweep's [`CountRefresh`] brings the
//! other replicas up to date by replay or by snapshot copy.

use crate::config::CpdConfig;
use crate::counts::{add_signed, PairCounts};
use cpd_prob::rng::seeded_rng;
use rand::Rng;
use social_graph::{SocialGraph, WordId};

/// Per-diffusion-link static metadata, precomputed once.
#[derive(Debug, Clone, Copy)]
pub struct LinkMeta {
    /// Diffusing (new) document.
    pub src_doc: u32,
    /// Source (diffused) document.
    pub dst_doc: u32,
    /// Author of the diffusing document (`u`).
    pub src_author: u32,
    /// Author of the source document (`v`).
    pub dst_author: u32,
    /// Diffusion timestamp.
    pub at: u32,
}

/// Mutable sampler state. In the sharded parallel E-step each worker
/// owns a persistent replica of this state (cloned once per fit) that it
/// keeps in sync by applying the other shards' [`CountDelta`]s between
/// sweeps; the coordinator folds all deltas into the canonical state
/// after each barrier instead of rebuilding counts from scratch.
#[derive(Debug, Clone)]
pub struct CpdState {
    /// `|C|`.
    pub n_communities: usize,
    /// `|Z|`.
    pub n_topics: usize,
    /// `|W|`.
    pub vocab_size: usize,
    /// Number of time buckets.
    pub n_timestamps: usize,
    /// Per-document community assignment `c_ui`.
    pub doc_community: Vec<u32>,
    /// Per-document topic assignment `z_ui`.
    pub doc_topic: Vec<u32>,
    /// `U x C` user-community counts `n_uc` plus the constant `n_u`
    /// (documents per user) marginal.
    pub user_comm: PairCounts,
    /// `C x Z` community-topic counts `n_cz` plus the `n_c` (documents
    /// per community) marginal.
    pub comm_topic: PairCounts,
    /// Word-major `W x Z` word-topic counts `n_zw` plus the `n_z`
    /// marginal. Word `w`'s `|Z|` topic counts are one contiguous run
    /// starting at [`CpdState::zw_slot`]`(|Z|, w, 0)`, so a token's
    /// candidate scan reads a single 200-byte stretch at `|Z| = 50`.
    pub word_topic: PairCounts,
    /// `T x Z` — documents with topic `z` at time `t` (topic popularity).
    pub n_tz: Vec<u32>,
    /// Documents per time bucket (constant).
    pub n_t: Vec<u32>,
    /// Pólya-Gamma augmentation `λ_uv`, one per friendship link.
    pub lambda: Vec<f64>,
    /// Pólya-Gamma augmentation `δ_ij`, one per diffusion link.
    pub delta: Vec<f64>,
}

impl CpdState {
    /// Random initialisation from the graph and config.
    pub fn init(graph: &SocialGraph, config: &CpdConfig) -> Self {
        let c_n = config.n_communities;
        let z_n = config.n_topics;
        let w_n = graph.vocab_size();
        let t_n = graph.n_timestamps() as usize;
        let d_n = graph.n_docs();
        let mut rng = seeded_rng(config.seed ^ 0x005E_ED11);
        let mut state = Self {
            n_communities: c_n,
            n_topics: z_n,
            vocab_size: w_n,
            n_timestamps: t_n,
            doc_community: vec![0; d_n],
            doc_topic: vec![0; d_n],
            user_comm: PairCounts::dense(graph.n_users() * c_n, graph.n_users()),
            comm_topic: PairCounts::dense(c_n * z_n, c_n),
            word_topic: PairCounts::dense(w_n * z_n, z_n),
            n_tz: vec![0; t_n * z_n],
            n_t: vec![0; t_n],
            // PG(1, 0) has mean 1/4; a fine starting point before the
            // first resampling pass.
            lambda: vec![0.25; graph.friendships().len()],
            delta: vec![0.25; graph.diffusions().len()],
        };
        for (d, c, z) in (0..d_n).map(|d| {
            (
                d,
                rng.gen_range(0..c_n) as u32,
                rng.gen_range(0..z_n) as u32,
            )
        }) {
            state.doc_community[d] = c;
            state.doc_topic[d] = z;
        }
        state.rebuild_counts(graph);
        state
    }

    /// Recompute every count matrix from the current assignments.
    /// `O(|D| + tokens)`; used after initialisation and after merging
    /// parallel workers.
    pub fn rebuild_counts(&mut self, graph: &SocialGraph) {
        let c_n = self.n_communities;
        let z_n = self.n_topics;
        self.user_comm.reset();
        self.comm_topic.reset();
        self.word_topic.reset();
        self.n_tz.iter_mut().for_each(|x| *x = 0);
        self.n_t.iter_mut().for_each(|x| *x = 0);
        for (d, doc) in graph.docs().iter().enumerate() {
            let u = doc.author.index();
            let c = self.doc_community[d] as usize;
            let z = self.doc_topic[d] as usize;
            let t = doc.timestamp as usize;
            self.user_comm.add(u * c_n + c, 1);
            self.user_comm.add_marginal(u, 1);
            self.comm_topic.add(c * z_n + z, 1);
            self.comm_topic.add_marginal(c, 1);
            for w in &doc.words {
                self.word_topic.add(Self::zw_slot(z_n, w.index(), z), 1);
            }
            self.word_topic.add_marginal(z, doc.words.len() as i32);
            self.n_tz[t * z_n + z] += 1;
            self.n_t[t] += 1;
        }
    }

    /// Flat slot of `n_zw[w, z]` in the word-major word-topic plane:
    /// `w·|Z| + z`. Every reader and writer of `word_topic` (and of the
    /// `n_zw` delta log) addresses the plane through this one helper.
    #[inline]
    pub fn zw_slot(n_topics: usize, w: usize, z: usize) -> usize {
        w * n_topics + z
    }

    /// `n_uc` at flat index `u * |C| + c`.
    #[inline]
    pub fn n_uc(&self, i: usize) -> u32 {
        self.user_comm.get(i)
    }

    /// Documents of user `u` (constant over a fit).
    #[inline]
    pub fn n_u(&self, u: usize) -> u32 {
        self.user_comm.marginal(u)
    }

    /// `n_cz` at flat index `c * |Z| + z`.
    #[inline]
    pub fn n_cz(&self, i: usize) -> u32 {
        self.comm_topic.get(i)
    }

    /// Documents of community `c`.
    #[inline]
    pub fn n_c(&self, c: usize) -> u32 {
        self.comm_topic.marginal(c)
    }

    /// `π̂_{u,c} = (n_uc + ρ) / (n_u + |C| ρ)` (Sect. 4.2).
    #[inline]
    pub fn pi_hat(&self, u: usize, c: usize, rho: f64) -> f64 {
        (self.n_uc(u * self.n_communities + c) as f64 + rho)
            / (self.n_u(u) as f64 + self.n_communities as f64 * rho)
    }

    /// Full `π̂_u` row.
    pub fn pi_hat_row(&self, u: usize, rho: f64) -> Vec<f64> {
        (0..self.n_communities)
            .map(|c| self.pi_hat(u, c, rho))
            .collect()
    }

    /// `θ̂_{c,z} = (n_cz + α) / (n_c + |Z| α)` (Sect. 4.2).
    #[inline]
    pub fn theta_hat(&self, c: usize, z: usize, alpha: f64) -> f64 {
        (self.n_cz(c * self.n_topics + z) as f64 + alpha)
            / (self.n_c(c) as f64 + self.n_topics as f64 * alpha)
    }

    /// `φ̂_{z,w} = (n_zw + β) / (n_z + |W| β)` (Sect. 4.2).
    #[inline]
    pub fn phi_hat(&self, z: usize, w: usize, beta: f64) -> f64 {
        (self.word_topic.get(Self::zw_slot(self.n_topics, w, z)) as f64 + beta)
            / (self.word_topic.marginal(z) as f64 + self.vocab_size as f64 * beta)
    }

    /// Normalised topic popularity `n_tz / n_t` at bucket `t` (smoothed;
    /// see DESIGN.md — the raw count of the paper saturates the sigmoid).
    #[inline]
    pub fn topic_popularity(&self, t: usize, z: usize) -> f64 {
        let num = self.n_tz[t * self.n_topics + z] as f64 + 1.0;
        let den = self.n_t[t] as f64 + self.n_topics as f64;
        num / den
    }

    /// Dot product `π̂_uᵀ π̂_v`.
    pub fn membership_dot(&self, u: usize, v: usize, rho: f64) -> f64 {
        let c_n = self.n_communities;
        let du = self.n_u(u) as f64 + c_n as f64 * rho;
        let dv = self.n_u(v) as f64 + c_n as f64 * rho;
        let mut acc = 0.0;
        for c in 0..c_n {
            acc += (self.n_uc(u * c_n + c) as f64 + rho) * (self.n_uc(v * c_n + c) as f64 + rho);
        }
        acc / (du * dv)
    }

    /// Internal consistency check: every count matrix agrees with the
    /// assignments. Used by tests and debug assertions. A failure names
    /// the first divergent slot ([`PairCounts::check_against`]).
    pub fn check_consistency(&self, graph: &SocialGraph) -> Result<(), String> {
        let mut fresh = self.clone();
        fresh.user_comm = PairCounts::dense(self.user_comm.len_main(), graph.n_users());
        fresh.comm_topic =
            PairCounts::dense(self.n_communities * self.n_topics, self.n_communities);
        fresh.word_topic = PairCounts::dense(self.vocab_size * self.n_topics, self.n_topics);
        fresh.rebuild_counts(graph);
        if self.n_tz != fresh.n_tz {
            return Err("n_tz counts diverged from assignments".into());
        }
        for (name, pair, fresh_pair) in [
            ("n_uc", &self.user_comm, &fresh.user_comm),
            ("n_cz", &self.comm_topic, &fresh.comm_topic),
            ("n_zw", &self.word_topic, &fresh.word_topic),
        ] {
            pair.check_against(name, &fresh_pair.main, &fresh_pair.marginal)?;
        }
        Ok(())
    }
}

/// Sink for count mutations during a sweep. The serial sweep uses the
/// no-op [`NoDelta`] (monomorphised away); sharded workers record into a
/// [`CountDelta`] so the coordinator can fold their work into the
/// canonical state without rebuilding anything.
pub trait DeltaSink {
    /// Document `d` (author community `c`, time bucket `t`, tokens
    /// `words`) moved from topic `z_old` to topic `z_new`.
    fn topic_moved(
        &mut self,
        d: usize,
        c: usize,
        t: usize,
        words: &[WordId],
        z_old: usize,
        z_new: usize,
    );

    /// Document `d` of user `u` (current topic `z`) moved from community
    /// `c_old` to community `c_new`.
    fn community_moved(&mut self, d: usize, u: usize, z: usize, c_old: usize, c_new: usize);
}

/// The no-op sink used by the serial sweep.
pub struct NoDelta;

impl DeltaSink for NoDelta {
    #[inline]
    fn topic_moved(&mut self, _: usize, _: usize, _: usize, _: &[WordId], _: usize, _: usize) {}

    #[inline]
    fn community_moved(&mut self, _: usize, _: usize, _: usize, _: usize, _: usize) {}
}

/// Sparse increments to a [`CpdState`] produced by one worker's sweep
/// over its owned users (Sect. 4.3 runtime).
///
/// Implemented as an append-only mutation log: recording a move is a
/// handful of `Vec` pushes (the sweep hot path must not pay hashing),
/// and applying is a linear scan of `+=`s over the same flat indices the
/// `CpdState` matrices use. The tiny `n_c`/`n_z` marginals are dense.
/// Assignment writes replay in order, so the last write per document
/// wins — and each document is owned by exactly one worker, so deltas
/// from disjoint shards never conflict and all increments commute.
#[derive(Debug, Clone)]
pub struct CountDelta {
    n_topics_dim: usize,
    n_communities_dim: usize,
    /// `(doc, community, topic)` writes in sweep order.
    assign: Vec<(u32, u32, u32)>,
    /// Distinct documents reassigned (assignment writes for one document
    /// are consecutive, so a neighbour check suffices).
    changed_docs: usize,
    n_uc: Vec<(u32, i32)>,
    n_cz: Vec<(u32, i32)>,
    n_zw: Vec<(u32, i32)>,
    n_tz: Vec<(u32, i32)>,
    n_c: Vec<i32>,
    n_z: Vec<i32>,
}

impl CountDelta {
    /// Empty delta shaped like `state`.
    pub fn new(state: &CpdState) -> Self {
        Self {
            n_topics_dim: state.n_topics,
            n_communities_dim: state.n_communities,
            assign: Vec::new(),
            changed_docs: 0,
            n_uc: Vec::new(),
            n_cz: Vec::new(),
            n_zw: Vec::new(),
            n_tz: Vec::new(),
            n_c: vec![0; state.n_communities],
            n_z: vec![0; state.n_topics],
        }
    }

    /// No recorded changes?
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of distinct reassigned documents.
    pub fn n_changed_docs(&self) -> usize {
        self.changed_docs
    }

    #[inline]
    fn write_assign(&mut self, d: usize, c: usize, z: usize) {
        if self.assign.last().map(|&(prev, _, _)| prev) != Some(d as u32) {
            self.changed_docs += 1;
        }
        self.assign.push((d as u32, c as u32, z as u32));
    }

    /// Record a topic move (the exact counterpart of the count mutations
    /// in `sample_topic`).
    #[inline]
    pub fn record_topic_move(
        &mut self,
        d: usize,
        c: usize,
        t: usize,
        words: &[WordId],
        z_old: usize,
        z_new: usize,
    ) {
        let z_n = self.n_topics_dim;
        self.n_cz.push(((c * z_n + z_old) as u32, -1));
        self.n_cz.push(((c * z_n + z_new) as u32, 1));
        for w in words {
            self.n_zw
                .push((CpdState::zw_slot(z_n, w.index(), z_old) as u32, -1));
            self.n_zw
                .push((CpdState::zw_slot(z_n, w.index(), z_new) as u32, 1));
        }
        self.n_z[z_old] -= words.len() as i32;
        self.n_z[z_new] += words.len() as i32;
        self.n_tz.push(((t * z_n + z_old) as u32, -1));
        self.n_tz.push(((t * z_n + z_new) as u32, 1));
        self.write_assign(d, c, z_new);
    }

    /// Record a community move (the counterpart of `sample_community`).
    #[inline]
    pub fn record_community_move(
        &mut self,
        d: usize,
        u: usize,
        z: usize,
        c_old: usize,
        c_new: usize,
    ) {
        let c_n = self.n_communities_dim;
        let z_n = self.n_topics_dim;
        self.n_uc.push(((u * c_n + c_old) as u32, -1));
        self.n_uc.push(((u * c_n + c_new) as u32, 1));
        self.n_cz.push(((c_old * z_n + z) as u32, -1));
        self.n_cz.push(((c_new * z_n + z) as u32, 1));
        self.n_c[c_old] -= 1;
        self.n_c[c_new] += 1;
        self.write_assign(d, c_new, z);
    }

    /// Per-array log lengths, used by the coordinator to pick the
    /// cheaper replica-sync strategy per array (replay vs snapshot copy).
    pub fn log_sizes(&self) -> DeltaSizes {
        DeltaSizes {
            assign: self.assign.len(),
            n_uc: self.n_uc.len(),
            n_cz: self.n_cz.len(),
            n_zw: self.n_zw.len(),
            n_tz: self.n_tz.len(),
        }
    }

    /// Fold `other` into `self` (shards are disjoint in documents, so
    /// assignment writes never conflict and increments simply add).
    pub fn merge(&mut self, other: &CountDelta) {
        self.assign.extend_from_slice(&other.assign);
        self.changed_docs += other.changed_docs;
        self.n_uc.extend_from_slice(&other.n_uc);
        self.n_cz.extend_from_slice(&other.n_cz);
        self.n_zw.extend_from_slice(&other.n_zw);
        self.n_tz.extend_from_slice(&other.n_tz);
        for (a, b) in self.n_c.iter_mut().zip(&other.n_c) {
            *a += b;
        }
        for (a, b) in self.n_z.iter_mut().zip(&other.n_z) {
            *a += b;
        }
    }

    /// Apply the assignment writes and count increments to `state`.
    pub fn apply(&self, state: &mut CpdState) {
        self.apply_selected(state, SyncPlan::ALL);
    }

    /// Apply only the arrays selected in `plan` (the sharded runtime's
    /// replica sync mixes log replay with wholesale snapshot copies per
    /// array; a copied array must not also be replayed).
    pub fn apply_selected(&self, state: &mut CpdState, plan: SyncPlan) {
        if plan.assign {
            self.apply_assign(&mut state.doc_community, &mut state.doc_topic);
        }
        if plan.n_uc {
            self.apply_n_uc(&mut state.user_comm.main);
        }
        if plan.n_cz {
            self.apply_n_cz(&mut state.comm_topic.main);
        }
        if plan.n_zw {
            self.apply_n_zw(&mut state.word_topic.main);
        }
        if plan.n_tz {
            self.apply_n_tz(&mut state.n_tz);
        }
        if plan.marginals {
            self.apply_n_c(&mut state.comm_topic.marginal);
            self.apply_n_z(&mut state.word_topic.marginal);
        }
    }

    /// Replay the assignment writes (sweep order; last write per
    /// document wins).
    pub fn apply_assign(&self, doc_community: &mut [u32], doc_topic: &mut [u32]) {
        for &(d, c, z) in &self.assign {
            doc_community[d as usize] = c;
            doc_topic[d as usize] = z;
        }
    }

    /// Replay the `n_uc` increments into a bare array.
    pub fn apply_n_uc(&self, n_uc: &mut [u32]) {
        Self::replay(&self.n_uc, n_uc);
    }

    /// Replay the `n_cz` increments into a bare array.
    pub fn apply_n_cz(&self, n_cz: &mut [u32]) {
        Self::replay(&self.n_cz, n_cz);
    }

    /// Replay the `n_zw` increments into a bare array.
    pub fn apply_n_zw(&self, n_zw: &mut [u32]) {
        Self::replay(&self.n_zw, n_zw);
    }

    /// Replay the `n_tz` increments into a bare array.
    pub fn apply_n_tz(&self, n_tz: &mut [u32]) {
        Self::replay(&self.n_tz, n_tz);
    }

    /// Add the dense `n_c` marginal deltas into a bare array.
    pub fn apply_n_c(&self, n_c: &mut [u32]) {
        for (slot, &v) in n_c.iter_mut().zip(&self.n_c) {
            add_signed(slot, v);
        }
    }

    /// Add the dense `n_z` marginal deltas into a bare array.
    pub fn apply_n_z(&self, n_z: &mut [u32]) {
        for (slot, &v) in n_z.iter_mut().zip(&self.n_z) {
            add_signed(slot, v);
        }
    }

    #[inline]
    fn replay(log: &[(u32, i32)], arr: &mut [u32]) {
        for &(i, v) in log {
            add_signed(&mut arr[i as usize], v);
        }
    }

    /// Debug check: applying this delta to `base` must yield counts
    /// identical to a full [`CpdState::rebuild_counts`] from the merged
    /// assignments. Returns the first divergent matrix on failure.
    pub fn verify_against_rebuild(
        &self,
        graph: &SocialGraph,
        base: &CpdState,
    ) -> Result<(), String> {
        let mut applied = base.clone();
        self.apply(&mut applied);
        applied
            .check_consistency(graph)
            .map_err(|e| format!("delta-merge diverged from rebuild: {e}"))
    }
}

/// Per-array log lengths of a [`CountDelta`] (or a sweep's total).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaSizes {
    /// Assignment writes.
    pub assign: usize,
    /// `n_uc` increments.
    pub n_uc: usize,
    /// `n_cz` increments.
    pub n_cz: usize,
    /// `n_zw` increments.
    pub n_zw: usize,
    /// `n_tz` increments.
    pub n_tz: usize,
}

impl DeltaSizes {
    /// Element-wise sum (totals across a sweep's worker deltas).
    pub fn accumulate(&mut self, other: DeltaSizes) {
        self.assign += other.assign;
        self.n_uc += other.n_uc;
        self.n_cz += other.n_cz;
        self.n_zw += other.n_zw;
        self.n_tz += other.n_tz;
    }
}

/// Which arrays of a [`CountDelta`] to apply (see
/// [`CountDelta::apply_selected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPlan {
    /// Replay assignment writes.
    pub assign: bool,
    /// Replay `n_uc` increments.
    pub n_uc: bool,
    /// Replay `n_cz` increments.
    pub n_cz: bool,
    /// Replay `n_zw` increments.
    pub n_zw: bool,
    /// Replay `n_tz` increments.
    pub n_tz: bool,
    /// Replay the dense `n_c`/`n_z` marginals.
    pub marginals: bool,
}

impl SyncPlan {
    /// Apply everything.
    pub const ALL: SyncPlan = SyncPlan {
        assign: true,
        n_uc: true,
        n_cz: true,
        n_zw: true,
        n_tz: true,
        marginals: true,
    };
}

/// One sweep's replica-refresh package: for each count array the
/// coordinator either lets workers replay the (sparse) delta logs or —
/// when the sweep churned enough that replay's scattered writes would
/// cost more than a sequential copy — ships one shared snapshot of the
/// canonical array for `copy_from_slice`. This is the "double-buffered
/// snapshot" half of the sharded runtime: one clone per hot array
/// instead of `threads` full-state clones — and since the barrier
/// rework the clone itself is produced by whichever *fold worker*
/// folded that array, not by the coordinator (see `parallel.rs`,
/// "Parallel runtime").
#[derive(Debug, Default)]
pub struct CountRefresh {
    /// Snapshot of `(doc_community, doc_topic)`.
    pub assign: Option<(Vec<u32>, Vec<u32>)>,
    /// Snapshot of `n_uc`.
    pub n_uc: Option<Vec<u32>>,
    /// Snapshot of `n_cz`.
    pub n_cz: Option<Vec<u32>>,
    /// Snapshot of `n_zw`.
    pub n_zw: Option<Vec<u32>>,
    /// Snapshot of `n_tz`.
    pub n_tz: Option<Vec<u32>>,
}

impl CountRefresh {
    /// Replay beats copying an array of `len` elements only while the
    /// aggregate replay volume stays well below it: each log entry is a
    /// scattered read-modify-write (≈2 sequential element-copies worth
    /// of memory cost) and *every other* worker replays it, while the
    /// snapshot is cloned once and each replica copies it sequentially.
    fn copy_wins(entries: usize, n_workers: usize, len: usize) -> bool {
        entries * n_workers.saturating_sub(1) * 2 >= len
    }

    /// Decide, per count array, whether the coming sweep's replica sync
    /// replays the delta logs (`true`) or ships a snapshot (`false`),
    /// from the previous sweep's total delta volume across the
    /// `n_workers` shards. The snapshots themselves are cloned by the
    /// fold workers (`parallel.rs`), one per non-replayed array.
    pub fn decide(state: &CpdState, totals: DeltaSizes, n_workers: usize) -> SyncPlan {
        // `replay.x == false` means "snapshot shipped, skip the log".
        let mut replay = SyncPlan::ALL;
        if Self::copy_wins(totals.assign, n_workers, state.doc_community.len() * 2) {
            replay.assign = false;
        }
        if Self::copy_wins(totals.n_uc, n_workers, state.user_comm.len_main()) {
            replay.n_uc = false;
        }
        if Self::copy_wins(totals.n_cz, n_workers, state.comm_topic.len_main()) {
            replay.n_cz = false;
        }
        if Self::copy_wins(totals.n_zw, n_workers, state.word_topic.len_main()) {
            replay.n_zw = false;
        }
        if Self::copy_wins(totals.n_tz, n_workers, state.n_tz.len()) {
            replay.n_tz = false;
        }
        replay
    }

    /// Copy the shipped snapshots into a worker replica.
    pub fn copy_into(&self, state: &mut CpdState) {
        if let Some((dc, dt)) = &self.assign {
            state.doc_community.copy_from_slice(dc);
            state.doc_topic.copy_from_slice(dt);
        }
        if let Some(a) = &self.n_uc {
            state.user_comm.main.copy_from_slice(a);
        }
        if let Some(a) = &self.n_cz {
            state.comm_topic.main.copy_from_slice(a);
        }
        if let Some(a) = &self.n_zw {
            state.word_topic.main.copy_from_slice(a);
        }
        if let Some(a) = &self.n_tz {
            state.n_tz.copy_from_slice(a);
        }
    }
}

impl DeltaSink for CountDelta {
    #[inline]
    fn topic_moved(
        &mut self,
        d: usize,
        c: usize,
        t: usize,
        words: &[WordId],
        z_old: usize,
        z_new: usize,
    ) {
        self.record_topic_move(d, c, t, words, z_old, z_new);
    }

    #[inline]
    fn community_moved(&mut self, d: usize, u: usize, z: usize, c_old: usize, c_new: usize) {
        self.record_community_move(d, u, z, c_old, c_new);
    }
}

/// Precompute per-link metadata for all diffusion links.
pub fn link_metadata(graph: &SocialGraph) -> Vec<LinkMeta> {
    graph
        .diffusions()
        .iter()
        .map(|l| LinkMeta {
            src_doc: l.src.0,
            dst_doc: l.dst.0,
            src_author: graph.doc(l.src).author.0,
            dst_author: graph.doc(l.dst).author.0,
            at: l.at,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::{Document, SocialGraphBuilder, UserId, WordId};

    fn graph() -> SocialGraph {
        let mut b = SocialGraphBuilder::new(2, 4);
        let d0 = b.add_document(Document::new(UserId(0), vec![WordId(0), WordId(1)], 0));
        let d1 = b.add_document(Document::new(UserId(0), vec![WordId(2)], 1));
        let d2 = b.add_document(Document::new(UserId(1), vec![WordId(3), WordId(3)], 1));
        b.add_friendship(UserId(0), UserId(1));
        b.add_diffusion(d2, d0, 1);
        let _ = d1;
        b.build().unwrap()
    }

    fn config() -> CpdConfig {
        CpdConfig::new(3, 2)
    }

    #[test]
    fn init_counts_are_consistent() {
        let g = graph();
        let s = CpdState::init(&g, &config());
        s.check_consistency(&g).unwrap();
        assert_eq!((s.n_u(0), s.n_u(1)), (2, 1));
        let (_, n_c) = s.comm_topic.snapshot();
        assert_eq!(n_c.iter().sum::<u32>(), 3);
        let (_, n_z) = s.word_topic.snapshot();
        assert_eq!(n_z.iter().sum::<u32>(), 5);
        assert_eq!(s.n_t, vec![1, 2]);
        assert_eq!(s.lambda.len(), 1);
        assert_eq!(s.delta.len(), 1);
    }

    #[test]
    fn pi_hat_rows_normalise() {
        let g = graph();
        let s = CpdState::init(&g, &config());
        let rho = config().resolved_rho();
        for u in 0..2 {
            let row = s.pi_hat_row(u, rho);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn theta_phi_normalise() {
        let g = graph();
        let s = CpdState::init(&g, &config());
        let alpha = config().resolved_alpha();
        for c in 0..3 {
            let sum: f64 = (0..2).map(|z| s.theta_hat(c, z, alpha)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        for z in 0..2 {
            let sum: f64 = (0..4).map(|w| s.phi_hat(z, w, 0.1)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn membership_dot_matches_rows() {
        let g = graph();
        let s = CpdState::init(&g, &config());
        let rho = 0.5;
        let r0 = s.pi_hat_row(0, rho);
        let r1 = s.pi_hat_row(1, rho);
        let want: f64 = r0.iter().zip(&r1).map(|(a, b)| a * b).sum();
        assert!((s.membership_dot(0, 1, rho) - want).abs() < 1e-12);
    }

    #[test]
    fn topic_popularity_is_a_smoothed_frequency() {
        let g = graph();
        let s = CpdState::init(&g, &config());
        for t in 0..2 {
            let sum: f64 = (0..2).map(|z| s.topic_popularity(t, z)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "t = {t}: {sum}");
        }
    }

    #[test]
    fn consistency_check_detects_corruption() {
        let g = graph();
        let mut s = CpdState::init(&g, &config());
        s.comm_topic.add(0, 1);
        assert!(s.check_consistency(&g).is_err());
    }

    /// Mirror of the mutation sequence in `sample_topic` /
    /// `sample_community`, applied directly to a state while recording
    /// into a delta.
    fn move_doc(
        state: &mut CpdState,
        g: &SocialGraph,
        delta: &mut CountDelta,
        d: usize,
        c_new: u32,
        z_new: u32,
    ) {
        let doc = &g.docs()[d];
        let (c_n, z_n) = (state.n_communities, state.n_topics);
        let c = state.doc_community[d] as usize;
        let z_old = state.doc_topic[d] as usize;
        let t = doc.timestamp as usize;
        state.comm_topic.add(c * z_n + z_old, -1);
        state.comm_topic.add(c * z_n + z_new as usize, 1);
        for w in &doc.words {
            state
                .word_topic
                .add(CpdState::zw_slot(z_n, w.index(), z_old), -1);
            state
                .word_topic
                .add(CpdState::zw_slot(z_n, w.index(), z_new as usize), 1);
        }
        state
            .word_topic
            .add_marginal(z_old, -(doc.words.len() as i32));
        state
            .word_topic
            .add_marginal(z_new as usize, doc.words.len() as i32);
        state.n_tz[t * z_n + z_old] -= 1;
        state.n_tz[t * z_n + z_new as usize] += 1;
        state.doc_topic[d] = z_new;
        delta.record_topic_move(d, c, t, &doc.words, z_old, z_new as usize);

        let u = doc.author.index();
        let z = state.doc_topic[d] as usize;
        state.user_comm.add(u * c_n + c, -1);
        state.user_comm.add(u * c_n + c_new as usize, 1);
        state.comm_topic.add(c * z_n + z, -1);
        state.comm_topic.add(c_new as usize * z_n + z, 1);
        state.comm_topic.add_marginal(c, -1);
        state.comm_topic.add_marginal(c_new as usize, 1);
        state.doc_community[d] = c_new;
        delta.record_community_move(d, u, z, c, c_new as usize);
    }

    #[test]
    fn delta_apply_reproduces_direct_mutation() {
        let g = graph();
        let base = CpdState::init(&g, &config());
        let mut swept = base.clone();
        let mut delta = CountDelta::new(&base);
        move_doc(&mut swept, &g, &mut delta, 0, 2, 1);
        move_doc(&mut swept, &g, &mut delta, 2, 1, 0);
        assert_eq!(delta.n_changed_docs(), 2);
        delta.verify_against_rebuild(&g, &base).unwrap();

        let mut applied = base.clone();
        delta.apply(&mut applied);
        assert_eq!(applied.doc_community, swept.doc_community);
        assert_eq!(applied.doc_topic, swept.doc_topic);
        assert_eq!(applied.user_comm.snapshot(), swept.user_comm.snapshot());
        assert_eq!(applied.comm_topic.snapshot(), swept.comm_topic.snapshot());
        assert_eq!(applied.word_topic.snapshot(), swept.word_topic.snapshot());
        assert_eq!(applied.n_tz, swept.n_tz);
    }

    #[test]
    fn merged_deltas_equal_sequential_application() {
        let g = graph();
        let base = CpdState::init(&g, &config());
        let mut s = base.clone();
        let mut d1 = CountDelta::new(&base);
        let mut d2 = CountDelta::new(&base);
        move_doc(&mut s, &g, &mut d1, 0, 2, 1);
        move_doc(&mut s, &g, &mut d2, 2, 1, 0);

        let mut merged = d1.clone();
        merged.merge(&d2);
        let mut via_merge = base.clone();
        merged.apply(&mut via_merge);
        let mut via_seq = base.clone();
        d1.apply(&mut via_seq);
        d2.apply(&mut via_seq);
        assert_eq!(via_merge.user_comm.snapshot(), via_seq.user_comm.snapshot());
        assert_eq!(
            via_merge.comm_topic.snapshot(),
            via_seq.comm_topic.snapshot()
        );
        assert_eq!(
            via_merge.word_topic.snapshot(),
            via_seq.word_topic.snapshot()
        );
        assert_eq!(via_merge.doc_community, via_seq.doc_community);
        via_merge.check_consistency(&g).unwrap();
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let g = graph();
        let base = CpdState::init(&g, &config());
        let delta = CountDelta::new(&base);
        assert!(delta.is_empty());
        let mut applied = base.clone();
        delta.apply(&mut applied);
        assert_eq!(applied.user_comm.snapshot(), base.user_comm.snapshot());
        delta.verify_against_rebuild(&g, &base).unwrap();
    }

    #[test]
    fn link_metadata_resolves_authors() {
        let g = graph();
        let meta = link_metadata(&g);
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].src_doc, 2);
        assert_eq!(meta[0].dst_doc, 0);
        assert_eq!(meta[0].src_author, 1);
        assert_eq!(meta[0].dst_author, 0);
        assert_eq!(meta[0].at, 1);
    }
}
