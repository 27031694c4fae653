//! Serving workloads: a synthetic snapshot at the paper's serving shape
//! (|C| = 50, |Z| = 50, V = 60k, 2,000 users) served by `cpd-server`
//! over loopback TCP to a load generator in the same process.
//!
//! Load shape: two generator threads, one connection each. In the open
//! loop a thread sends everything due as one pipelined
//! `Client::query_batch` whenever it is free, and sleeps until the next
//! due time otherwise; each request's latency runs from its due time to
//! its batch's answer, so a stall is charged to every request queued
//! behind it. The closed loop keeps each connection busy with
//! back-to-back batches to measure the saturation throughput and the
//! batch latency at saturation.
//!
//! The query mix sends every non-fold-in class: execute is microseconds,
//! so wire, socket and queue hand-off dominate, and the fold-in engine,
//! its cache and reload are bypassed. The fold-in workload is 80 %
//! fold-ins, half from a hot set the cache can hold, with hot reloads
//! beside the reads: Gibbs chains, the cache and reload dominate.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::stats::{median, percentile, window_median_p99, Dist, OpenLoop};
use crate::yardstick::Yardstick;
use crate::Report;
use cpd_core::features::N_FEATURES;
use cpd_core::io::{load_model, save_model};
use cpd_core::{CpdConfig, CpdModel, Eta, UserFeatures};
use cpd_datagen::{generate, GenConfig, Scale};
use cpd_prob::dirichlet::sample_symmetric_dirichlet;
use cpd_prob::gamma::sample_gamma;
use cpd_prob::rng::{child_rng, seeded_rng};
use cpd_prob::zipf::Zipf;
use cpd_serve::wire::{encode_request, encode_response, read_request, read_response};
use cpd_serve::{
    FoldIn, FoldInConfig, FoldInItem, FoldScratch, ProfileIndex, QueryRequest, QueryResponse,
    RequestFrame, ResponseFrame, ServeOptions, ServeRuntime, TraceConfig,
};
use cpd_server::{Client, ClientOptions, Server, ServerOptions};
use rand::rngs::StdRng;
use rand::Rng;
use social_graph::{SocialGraph, UserId, WordId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    QueryMix,
    FoldinReload,
}

const COMMUNITIES: usize = 50;
const TOPICS: usize = 50;
const VOCAB: usize = 60_000;
const USERS: usize = 2_000;
const TIME_BUCKETS: usize = 24;
/// Generator threads, one connection each.
const THREADS: usize = 2;
/// Cold starts timed for `setup_s`.
const COLD_STARTS: usize = 6;
/// Fold-in `(item, seed)` pairs that half of all fold-ins repeat.
const HOT_SET: usize = 512;
/// One response in this many is checked against a direct index call.
const CHECK_EVERY: usize = 100;
/// An open-loop phase stops sending this long after its last due time.
const GRACE: f64 = 0.5;
/// The most requests one open-loop batch carries.
const MAX_BATCH: usize = 4096;
/// Requests per batch in the closed loop (the server folds up to 128
/// pipelined frames into one runtime batch).
const SATURATION_BATCH: usize = 64;

/// Measurement rounds, each a nominal-rate phase, a saturation burst and
/// a yardstick reading. A metric is the median over rounds, so a burst of
/// interference on the shared host moves a few rounds, not the run.
const ROUNDS: usize = 16;
/// Shares of the run's seconds: the gated saturation bursts get most of
/// it; the open-loop phases, reported but not gated, the rest.
const SATURATION_SHARE: f64 = 0.6;
const NOMINAL_SHARE: f64 = 0.2;
const WARMUP_SHARE: f64 = 0.05;
const HIGH_SHARE: f64 = 0.1;

/// The load a workload offers. Rates are sized for a 2-core box:
/// `nominal` is light load, under a tenth of the saturation throughput,
/// and `high` about a quarter of it. Each connection has one batch in
/// flight, so at heavier nominal rates requests wait for the batch ahead
/// of them and the p50 follows that wait: at 10k qps the query mix's p50
/// swung 2x from run to run, at 2k qps it stays within 10 %. While the
/// shared host is contended saturation falls by up to half, and `high`
/// must still be served in full.
struct Plan {
    nominal_qps: f64,
    high_qps: f64,
    /// Open every [`RELOAD_EVERY`]th round with a hot reload under
    /// nominal load, so those rounds start on a fresh snapshot generation
    /// with a cold fold cache.
    reloads: bool,
}

impl ServeKind {
    fn plan(self) -> Plan {
        match self {
            ServeKind::QueryMix => Plan {
                nominal_qps: 2_000.0,
                high_qps: 8_000.0,
                reloads: false,
            },
            ServeKind::FoldinReload => Plan {
                nominal_qps: 1_000.0,
                high_qps: 3_000.0,
                reloads: true,
            },
        }
    }
}

/// Seconds of nominal load sent while a reload starts; the phase lasts
/// until the reload returns.
const RELOAD_PHASE: f64 = 0.5;
/// Rounds per reload: four reloads a run, each about as long as a round.
const RELOAD_EVERY: usize = 4;

/// A model with every distribution normalised and peaked topics: each
/// row is mostly a sparse Dirichlet draw, with a little uniform mass so
/// no probability is so small that its text form balloons the snapshot.
fn synthetic_model(seed: u64) -> CpdModel {
    let mut rng = seeded_rng(seed);
    let mut row = |n: usize, alpha: f64, floor: f64| -> Vec<f64> {
        sample_symmetric_dirichlet(&mut rng, n, alpha)
            .into_iter()
            .map(|p| (1.0 - floor) * p + floor / n as f64)
            .collect()
    };
    let pi = (0..USERS).map(|_| row(COMMUNITIES, 0.1, 0.05)).collect();
    let theta = (0..COMMUNITIES).map(|_| row(TOPICS, 0.1, 0.05)).collect();
    let phi = (0..TOPICS).map(|_| row(VOCAB, 0.05, 0.1)).collect();
    let topic_popularity = (0..TIME_BUCKETS).map(|_| row(TOPICS, 1.0, 0.0)).collect();
    let mut rng = seeded_rng(seed ^ 0xE7A);
    let eta_counts: Vec<f64> = (0..COMMUNITIES * COMMUNITIES * TOPICS)
        .map(|_| sample_gamma(&mut rng, 0.3, 1.0))
        .collect();
    let nu = (0..N_FEATURES).map(|_| rng.gen_range(-0.5..0.5)).collect();
    CpdModel {
        pi,
        theta,
        phi,
        eta: Eta::from_counts(COMMUNITIES, TOPICS, &eta_counts, 0.01),
        nu,
        topic_popularity,
        doc_community: Vec::new(),
        doc_topic: Vec::new(),
    }
}

/// The traffic of one workload: request classes, Zipf query words and
/// the fold-in hot set.
struct Mix {
    kind: ServeKind,
    words: Zipf,
    /// Friends of each trained user in the datagen corpus.
    friends: Vec<Vec<UserId>>,
    hot: Vec<(FoldInItem, u64)>,
}

/// One generated request and, for a hot fold-in, its hot-set slot.
type Drawn = (QueryRequest, Option<usize>);

impl Mix {
    fn new(kind: ServeKind, graph: &SocialGraph, seed: u64) -> Mix {
        let friends = (0..graph.n_users())
            .map(|u| graph.friend_neighbors_of(UserId(u as u32)).collect())
            .collect();
        let mut mix = Mix {
            kind,
            words: Zipf::new(VOCAB, 1.05),
            friends,
            hot: Vec::new(),
        };
        if kind == ServeKind::FoldinReload {
            let mut rng = child_rng(seed, 0x407);
            // Docs and users in the 3:1 ratio the fold-ins arrive in.
            mix.hot = (0..HOT_SET)
                .map(|i| {
                    let item = if i % 4 == 3 {
                        mix.user_item(&mut rng)
                    } else {
                        mix.doc_item(&mut rng)
                    };
                    (item, rng.gen())
                })
                .collect();
        }
        mix
    }

    fn query(&self, rng: &mut StdRng, n: usize) -> Vec<WordId> {
        (0..n)
            .map(|_| WordId(self.words.sample(rng) as u32))
            .collect()
    }

    fn doc_item(&self, rng: &mut StdRng) -> FoldInItem {
        FoldInItem::doc(self.query(rng, 12))
    }

    fn user_item(&self, rng: &mut StdRng) -> FoldInItem {
        let docs = (0..3).map(|_| self.query(rng, 8)).collect();
        let friends = &self.friends[rng.gen_range(0..USERS)];
        FoldInItem::user(docs, friends.iter().copied().take(5).collect())
    }

    /// Every class except fold-in, uniformly.
    fn cheap(&self, rng: &mut StdRng) -> QueryRequest {
        let user = |rng: &mut StdRng| UserId(rng.gen_range(0..USERS as u32));
        match rng.gen_range(0..8u32) {
            0 => QueryRequest::RankCommunities {
                query: self.query(rng, 3),
            },
            1 => QueryRequest::QueryTopics {
                query: self.query(rng, 3),
            },
            2 => QueryRequest::TopWords {
                topic: rng.gen_range(0..TOPICS),
                k: 10,
            },
            3 => QueryRequest::CommunityTopics {
                community: rng.gen_range(0..COMMUNITIES),
                k: 10,
            },
            4 => QueryRequest::PairTopics {
                from: rng.gen_range(0..COMMUNITIES),
                to: rng.gen_range(0..COMMUNITIES),
                k: 10,
            },
            5 => QueryRequest::UserProfile { user: user(rng) },
            6 => QueryRequest::FriendshipScore {
                u: user(rng),
                v: user(rng),
            },
            _ => QueryRequest::DiffusionScore {
                u: user(rng),
                v: user(rng),
                words: self.query(rng, 6),
                at: rng.gen_range(0..TIME_BUCKETS as u32),
            },
        }
    }

    fn draw(&self, rng: &mut StdRng) -> Drawn {
        if self.kind == ServeKind::QueryMix {
            return (self.cheap(rng), None);
        }
        // 60 % doc fold-ins, 20 % user fold-ins, 20 % cheap queries; half
        // of the fold-ins repeat a hot (item, seed) pair.
        let r: f64 = rng.gen();
        if r >= 0.8 {
            return (self.cheap(rng), None);
        }
        let user = r >= 0.6;
        if rng.gen_bool(0.5) {
            let slot = loop {
                let slot = rng.gen_range(0..HOT_SET);
                if (slot % 4 == 3) == user {
                    break slot;
                }
            };
            let (item, seed) = self.hot[slot].clone();
            return (QueryRequest::FoldIn { item, seed }, Some(slot));
        }
        let item = if user {
            self.user_item(rng)
        } else {
            self.doc_item(rng)
        };
        (
            QueryRequest::FoldIn {
                item,
                seed: rng.gen(),
            },
            None,
        )
    }
}

/// The answer a correct server gives: the direct call into the index.
fn direct(
    index: &ProfileIndex,
    features: &UserFeatures,
    request: &QueryRequest,
    scratch: &mut FoldScratch,
) -> QueryResponse {
    match request {
        QueryRequest::RankCommunities { query } => {
            QueryResponse::Ranking(index.rank_communities(query))
        }
        QueryRequest::QueryTopics { query } => QueryResponse::Ranking(index.query_topics(query)),
        QueryRequest::TopWords { topic, k } => QueryResponse::Ranking(index.top_words(*topic, *k)),
        QueryRequest::CommunityTopics { community, k } => {
            QueryResponse::Ranking(index.top_topics_of_community(*community, *k))
        }
        QueryRequest::PairTopics { from, to, k } => {
            QueryResponse::Ranking(index.pair_top_topics(*from, *to, *k))
        }
        QueryRequest::UserProfile { user } => {
            let membership = index.user_membership(*user).to_vec();
            let dominant = cpd_core::dominant_index(&membership);
            QueryResponse::Profile {
                membership,
                dominant,
            }
        }
        QueryRequest::FriendshipScore { u, v } => {
            QueryResponse::Score(index.friendship_score(*u, *v))
        }
        QueryRequest::DiffusionScore { u, v, words, at } => {
            QueryResponse::Score(index.diffusion_score(features, *u, *v, words, *at))
        }
        QueryRequest::FoldIn { item, seed } => {
            let engine =
                FoldIn::new(index, FoldInConfig::default()).expect("default fold-in config");
            QueryResponse::FoldedIn(Box::new(engine.profile_with_seed(item, *seed, scratch)))
        }
    }
}

/// The ledger stage a direct call is timed under.
fn stage_of(request: &QueryRequest) -> &'static str {
    match request {
        QueryRequest::RankCommunities { .. } | QueryRequest::QueryTopics { .. } => {
            "index.exec.ranking"
        }
        QueryRequest::TopWords { .. }
        | QueryRequest::CommunityTopics { .. }
        | QueryRequest::PairTopics { .. } => "index.exec.top_words",
        QueryRequest::UserProfile { .. } => "index.exec.profile",
        QueryRequest::FriendshipScore { .. } | QueryRequest::DiffusionScore { .. } => {
            "index.exec.link_score"
        }
        QueryRequest::FoldIn { item, .. } if item.friends.is_empty() && item.docs.len() == 1 => {
            "foldin.exec.doc"
        }
        QueryRequest::FoldIn { .. } => "foldin.exec.user",
    }
}

/// What the run checks responses against: one direct index per snapshot
/// the server may be answering from, and each hot pair's answers.
struct Oracle {
    indexes: Vec<Arc<ProfileIndex>>,
    features: Arc<UserFeatures>,
    /// `hot[slot][i]`: hot pair `slot` answered by `indexes[i]`.
    hot: Vec<Vec<QueryResponse>>,
}

impl Oracle {
    fn agrees(
        &self,
        request: &QueryRequest,
        response: &QueryResponse,
        scratch: &mut FoldScratch,
    ) -> bool {
        self.indexes
            .iter()
            .any(|ix| direct(ix, &self.features, request, scratch) == *response)
    }
}

#[derive(Debug, Clone, Copy)]
enum Load {
    /// Requests due at a fixed total rate.
    Open(f64),
    /// Each connection sends its next batch as soon as the last returns.
    Closed,
}

/// One phase's account, per thread and then merged.
#[derive(Default)]
struct Account {
    /// `(due seconds, latency seconds)` per request sent; in the closed
    /// loop a request is due when its batch is sent.
    samples: Vec<(f64, f64)>,
    offered: usize,
    sent: usize,
    failed: usize,
    unsent: usize,
    late_max: f64,
    batches: usize,
    /// When the last batch returned, seconds from the phase start.
    last_done: f64,
    hot: usize,
    hot_mismatches: usize,
    sampled: Vec<(QueryRequest, QueryResponse)>,
    errors: Vec<String>,
    ledger: Option<Ledger>,
}

impl Account {
    fn merge(&mut self, o: Account) {
        self.samples.extend(o.samples);
        self.offered += o.offered;
        self.sent += o.sent;
        self.failed += o.failed;
        self.unsent += o.unsent;
        self.late_max = self.late_max.max(o.late_max);
        self.batches += o.batches;
        self.last_done = self.last_done.max(o.last_done);
        self.hot += o.hot;
        self.hot_mismatches += o.hot_mismatches;
        self.sampled.extend(o.sampled);
        self.errors.extend(o.errors);
        match (self.ledger.as_mut(), o.ledger) {
            (Some(l), Some(o)) => l.absorb(o),
            (None, o) => self.ledger = o,
            _ => {}
        }
    }

    /// Send one batch and account for its answers; returns when it was
    /// answered, seconds from `start`.
    fn send(
        &mut self,
        client: &mut Client,
        drawn: Vec<Drawn>,
        first: usize,
        start: Instant,
        oracle: &Oracle,
    ) -> f64 {
        let n = drawn.len();
        let mut hot = Vec::with_capacity(n);
        let mut kept = Vec::with_capacity(n);
        let mut requests = Vec::with_capacity(n);
        for (i, (request, slot)) in drawn.into_iter().enumerate() {
            hot.push(slot);
            let check = (first + i).is_multiple_of(CHECK_EVERY);
            kept.push(check.then(|| request.clone()));
            requests.push(request);
        }
        let sent_at = Instant::now();
        let result = client.query_batch(requests);
        let done_at = Instant::now();
        self.sent += n;
        self.batches += 1;
        if let Some(l) = self.ledger.as_mut() {
            l.record("gen.batch", 0, sent_at, done_at);
        }
        match result {
            Ok(responses) => {
                for ((response, slot), kept) in responses.into_iter().zip(hot).zip(kept) {
                    if matches!(
                        response,
                        QueryResponse::Error(_) | QueryResponse::Overloaded { .. }
                    ) {
                        self.failed += 1;
                        continue;
                    }
                    if let Some(slot) = slot {
                        self.hot += 1;
                        if !oracle.hot[slot].contains(&response) {
                            self.hot_mismatches += 1;
                        }
                    }
                    if let Some(request) = kept {
                        self.sampled.push((request, response));
                    }
                }
            }
            Err(e) => {
                self.failed += n;
                if self.errors.len() < 3 {
                    self.errors.push(e.to_string());
                }
                let _ = client.reconnect();
            }
        }
        let done = done_at.saturating_duration_since(start).as_secs_f64();
        self.last_done = done;
        done
    }
}

/// One load phase across both connections, or several phases merged.
struct Phase {
    name: String,
    load: Load,
    secs: f64,
    a: Account,
    /// Median of per-window p99s and the windows it rests on: 1 s
    /// windows of one phase, or each merged phase as one window.
    window_p99: Option<(f64, usize)>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.a.samples.iter().map(|s| s.1).collect()
    }

    fn p50(&self) -> f64 {
        median(&self.latencies())
    }

    fn ok(&self) -> usize {
        self.a.sent - self.a.failed
    }

    fn achieved(&self) -> f64 {
        self.ok() as f64 / self.a.offered.max(1) as f64
    }

    fn batch_mean(&self) -> f64 {
        self.a.sent as f64 / self.a.batches.max(1) as f64
    }

    /// Answered queries per second of the phase.
    fn throughput(&self) -> f64 {
        self.ok() as f64 / self.a.last_done.max(self.secs)
    }

    /// Several phases of one kind as one account.
    fn merged(name: &str, phases: Vec<Phase>) -> Phase {
        let p99s: Vec<f64> = phases
            .iter()
            .filter(|p| !p.a.samples.is_empty())
            .map(|p| {
                let mut v = p.latencies();
                v.sort_by(f64::total_cmp);
                percentile(&v, 0.99)
            })
            .collect();
        let window_p99 = (!p99s.is_empty()).then(|| (median(&p99s), p99s.len()));
        let load = phases.first().map_or(Load::Closed, |p| p.load);
        let mut out = Phase {
            name: name.to_string(),
            load,
            secs: 0.0,
            a: Account::default(),
            window_p99,
        };
        for p in phases {
            out.secs += p.secs;
            out.a.merge(p.a);
        }
        out
    }

    fn report(&self, report: &mut Report) {
        let p = format!("phase.{}", self.name);
        let mut info = |k: &str, v: Json| report.info(&format!("{p}.{k}"), v);
        if let Load::Open(rate) = self.load {
            info("offered_qps", rate.into());
            info("achieved_ratio", self.achieved().into());
            info("late_ms_max", (self.a.late_max * 1e3).into());
        }
        info("secs", self.secs.into());
        info("sent", self.a.sent.into());
        info("failed", self.a.failed.into());
        info("unsent", self.a.unsent.into());
        info("batch_size_mean", self.batch_mean().into());
        if let Some(d) = Dist::of(&self.latencies()) {
            info("n", d.n.into());
            info("p50_us", (d.p50 * 1e6).into());
            info("p99_us", (d.p99 * 1e6).into());
            if let Some((q, v)) = d.top {
                info("top_percentile", q.into());
                info("top_us", (v * 1e6).into());
            }
        }
        if let Some((p99, windows)) = self.window_p99 {
            info("window_p99_us", (p99 * 1e6).into());
            info("windows", windows.into());
        }
        if self.a.hot > 0 {
            info("hot_share", (self.a.hot as f64 / self.a.sent as f64).into());
        }
        if !self.a.errors.is_empty() {
            let errors = self.a.errors.iter().map(|e| e.as_str().into()).collect();
            info("errors", Json::Arr(errors));
        }
    }
}

/// Drive the connections under `load` for `secs` while the calling
/// thread runs `beside` (a reload, or nothing).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &str,
    clients: &mut [Client],
    load: Load,
    secs: f64,
    mix: &Mix,
    oracle: &Oracle,
    seed: u64,
    traced: bool,
    beside: impl FnOnce(Instant),
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let phase_seed = name.bytes().fold(seed ^ 0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    let accounts: Vec<Account> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let rng = child_rng(phase_seed, t as u64);
                let mut a = Account {
                    ledger: traced.then(|| Ledger::new(start)),
                    ..Account::default()
                };
                scope.spawn(move || {
                    if let Some(wait) = start.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    match load {
                        Load::Open(rate) => {
                            let gen = OpenLoop::new(rate, t, THREADS, secs);
                            open_loop(&mut a, client, gen, start, secs, mix, oracle, rng)
                        }
                        Load::Closed => closed_loop(&mut a, client, start, secs, mix, oracle, rng),
                    }
                    a
                })
            })
            .collect();
        beside(start);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut a = Account::default();
    for o in accounts {
        a.merge(o);
    }
    Phase {
        name: name.to_string(),
        load,
        secs,
        window_p99: window_median_p99(&a.samples, 1.0),
        a,
    }
}

/// Open loop: whenever the thread is free, send everything due as one
/// pipelined batch, charged from each request's due time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    a: &mut Account,
    client: &mut Client,
    mut gen: OpenLoop,
    start: Instant,
    secs: f64,
    mix: &Mix,
    oracle: &Oracle,
    mut rng: StdRng,
) {
    a.offered = gen.total();
    loop {
        let now = start.elapsed().as_secs_f64();
        if now > secs + GRACE {
            a.unsent += gen.take_due(f64::INFINITY, usize::MAX).len();
            return;
        }
        let batch = gen.take_due(now, MAX_BATCH);
        if batch.is_empty() {
            match gen.next_due() {
                Some(due) => std::thread::sleep(Duration::from_secs_f64((due - now).max(0.0))),
                None => return,
            }
            continue;
        }
        a.late_max = a.late_max.max(now - gen.due(batch.start));
        let drawn = batch.clone().map(|_| mix.draw(&mut rng)).collect();
        let done = a.send(client, drawn, batch.start, start, oracle);
        let charged = batch.clone().zip(gen.charge(batch, done));
        a.samples.extend(charged.map(|(i, l)| (gen.due(i), l)));
    }
}

/// Closed loop: one batch in flight per connection, back to back.
fn closed_loop(
    a: &mut Account,
    client: &mut Client,
    start: Instant,
    secs: f64,
    mix: &Mix,
    oracle: &Oracle,
    mut rng: StdRng,
) {
    while start.elapsed().as_secs_f64() < secs {
        let sent = start.elapsed().as_secs_f64();
        let drawn = (0..SATURATION_BATCH).map(|_| mix.draw(&mut rng)).collect();
        let done = a.send(client, drawn, a.sent, start, oracle);
        a.offered += SATURATION_BATCH;
        a.samples
            .extend(std::iter::repeat_n((sent, done - sent), SATURATION_BATCH));
    }
}

/// A started server and how long the cold start took.
fn cold_start(
    snapshot: &Path,
    config: &CpdConfig,
    features: &Arc<UserFeatures>,
    ledger: &mut Ledger,
) -> (Server, f64) {
    let t0 = Instant::now();
    let model = load_model(snapshot).expect("snapshot loads");
    let t1 = Instant::now();
    let index = Arc::new(ProfileIndex::build(model, config));
    let t2 = Instant::now();
    let runtime = ServeRuntime::new(
        index,
        Some(Arc::clone(features)),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("valid serve options");
    let t3 = Instant::now();
    let server =
        Server::start("127.0.0.1:0", runtime, ServerOptions::default()).expect("bind loopback");
    let t4 = Instant::now();
    let mut probe = Client::connect(server.local_addr()).expect("connect to the server");
    while !probe.health().expect("health probe").ready {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t5 = Instant::now();
    let root = ledger.record("setup.cold_start", 0, t0, t5);
    ledger.record("io.load", root, t0, t1);
    ledger.record("index.build", root, t1, t2);
    ledger.record("runtime.new", root, t2, t3);
    ledger.record("server.start", root, t3, t4);
    ledger.record("server.ready", root, t4, t5);
    (server, (t5 - t0).as_secs_f64())
}

fn connect(server: &Server, trace: TraceConfig) -> Vec<Client> {
    (0..THREADS)
        .map(|_| {
            Client::connect_with(
                server.local_addr(),
                ClientOptions {
                    // A generator must see overload, not hide it behind
                    // retries.
                    retry: None,
                    trace,
                    ..ClientOptions::default()
                },
            )
            .expect("connect to the server")
        })
        .collect()
}

/// A Prometheus summary quantile from scrape text, in seconds.
fn scraped(text: &str, series: &str, quantile: &str) -> Option<f64> {
    let key = match series.strip_suffix('}') {
        Some(open) => format!("{open},quantile=\"{quantile}\"}}"),
        None => format!("{series}{{quantile=\"{quantile}\"}}"),
    };
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .and_then(|v| v.trim().parse().ok())
}

fn list(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::from).collect())
}

pub fn run(kind: ServeKind, seed: u64, secs: f64, traced: bool, work: &Path) -> Report {
    let mut report = Report::default();
    let plan = kind.plan();
    let mut ledger = Ledger::new(Instant::now());
    // Started first, so the yardstick builds its inputs while the corpus
    // and snapshots are made.
    let mut yard = Yardstick::start();

    // Inputs: the snapshot(s), and the corpus the user features and the
    // friend lists of user fold-ins come from.
    let config = CpdConfig::new(COMMUNITIES, TOPICS);
    let (graph, _) = generate(&GenConfig {
        seed,
        ..GenConfig::twitter_like(Scale::Medium)
    });
    let features = Arc::new(UserFeatures::compute(&graph));
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut indexes = Vec::new();
    for i in 0..if plan.reloads { 2 } else { 1 } {
        let model = synthetic_model(seed ^ (i * 0x9E37_79B9));
        let path = work.join(format!("snapshot-{i}.cpd"));
        ledger
            .time("io.save", 0, || save_model(&model, &path))
            .expect("snapshot save");
        // Check against what the server serves: the snapshot as loaded.
        let served = load_model(&path).expect("snapshot loads");
        indexes.push(Arc::new(ProfileIndex::build(served, &config)));
        paths.push(path);
    }
    let snapshot_mb = std::fs::metadata(&paths[0]).map_or(0, |m| m.len()) as f64 / 1e6;
    let mix = Mix::new(kind, &graph, seed);
    let mut scratch = FoldScratch::new();
    let hot = mix
        .hot
        .iter()
        .map(|(item, s)| {
            let request = QueryRequest::FoldIn {
                item: item.clone(),
                seed: *s,
            };
            indexes
                .iter()
                .map(|ix| direct(ix, &features, &request, &mut scratch))
                .collect()
        })
        .collect();
    let oracle = Oracle {
        indexes,
        features: Arc::clone(&features),
        hot,
    };

    // Set-up: cold starts until the health probe reports ready, each
    // between two yardstick readings. Every timed phase below, up to the
    // last saturation burst, records the yardstick interval it ran in.
    let mut starts = Vec::new();
    let mut server = None;
    yard.read();
    for _ in 0..COLD_STARTS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let (s, took) = cold_start(&paths[0], &config, &features, &mut ledger);
        starts.push((took, yard.readings.len() - 1));
        server = Some(s);
        yard.read();
    }
    let server = server.expect("at least one cold start");

    // A hot reload beside the reads, alternating the snapshots. In a
    // traced run the same load and build are then timed directly, under
    // the same traffic; what the reload spends beyond them is the swap.
    let mut reload_secs = Vec::new();
    let mut reload_parts: Vec<(f64, f64)> = Vec::new();
    let mut reload = |start: Instant| {
        if let Some(wait) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let path = &paths[(reload_secs.len() + 1) % paths.len()];
        let t0 = Instant::now();
        server
            .runtime()
            .reload(path)
            .expect("reload a valid snapshot");
        reload_secs.push(t0.elapsed().as_secs_f64());
        if traced {
            let t1 = Instant::now();
            let model = load_model(path).expect("snapshot loads");
            let t2 = Instant::now();
            drop(ProfileIndex::build(model, &config));
            reload_parts.push(((t2 - t1).as_secs_f64(), t2.elapsed().as_secs_f64()));
        }
    };

    let nothing = |_: Instant| {};
    let mut clients = connect(&server, TraceConfig::default());
    // Clients head-sampling one query in 100, for the tracing overhead.
    let mut sampling = traced.then(|| {
        connect(
            &server,
            TraceConfig {
                sample_one_in: 100,
                ..TraceConfig::default()
            },
        )
    });
    let nominal = Load::Open(plan.nominal_qps);
    let nominal_secs = NOMINAL_SHARE * secs / ROUNDS as f64;
    let burst_secs = SATURATION_SHARE * secs / ROUNDS as f64;
    let mut phases = vec![run_phase(
        "warmup",
        &mut clients,
        nominal,
        WARMUP_SHARE * secs,
        &mix,
        &oracle,
        seed,
        false,
        nothing,
    )];
    let (mut reloading, mut plain, mut traced_rounds, mut bursts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        if plan.reloads && r % RELOAD_EVERY == 0 {
            reloading.push(run_phase(
                &format!("reload{r}"),
                &mut clients,
                nominal,
                RELOAD_PHASE,
                &mix,
                &oracle,
                seed,
                traced,
                &mut reload,
            ));
        }
        let name = format!("nominal{r}");
        plain.push(run_phase(
            &name,
            &mut clients,
            nominal,
            nominal_secs,
            &mix,
            &oracle,
            seed,
            traced,
            nothing,
        ));
        match sampling.as_mut() {
            Some(sampling) => traced_rounds.push(run_phase(
                &format!("{name}_traced"),
                sampling,
                nominal,
                nominal_secs,
                &mix,
                &oracle,
                seed,
                true,
                nothing,
            )),
            None => bursts.push((
                run_phase(
                    &format!("saturate{r}"),
                    &mut clients,
                    Load::Closed,
                    burst_secs,
                    &mix,
                    &oracle,
                    seed,
                    false,
                    nothing,
                ),
                yard.readings.len() - 1,
            )),
        }
        yard.read();
    }
    let speed = yard.factors();
    report.info("yardstick_s", list(yard.readings.iter().copied()));
    drop(yard);
    let starts: Vec<(f64, f64)> = starts.iter().map(|&(s, i)| (s, speed[i])).collect();
    report.info("cold_starts_s", list(starts.iter().map(|s| s.0)));
    report.at_nominal("setup_s", &starts, false);
    let p50s: Vec<f64> = plain.iter().map(Phase::p50).collect();
    report.info("rounds.nominal_p50_us", list(p50s.iter().map(|s| s * 1e6)));
    if traced {
        let ratios: Vec<f64> = traced_rounds
            .iter()
            .zip(&p50s)
            .map(|(t, p)| t.p50() / p)
            .collect();
        report.info("rounds.trace_overhead_ratio", list(ratios.iter().copied()));
        report.layer("trace.overhead_ratio", Some(median(&ratios)));
        phases.push(Phase::merged("nominal_traced", traced_rounds));
    } else {
        // The gated latency is a batch's answer time at saturation, not
        // the light-load p50: with both cores busy no request waits for an
        // idle core to wake, and on a shared host that wake-up swung the
        // light-load p50 by up to 6x between runs of one build.
        let ms: Vec<(f64, f64)> = bursts
            .iter()
            .map(|(p, i)| (p.p50() * 1e3, speed[*i]))
            .collect();
        report.info("rounds.saturation_batch_ms", list(ms.iter().map(|m| m.0)));
        report.at_nominal("latency_ms", &ms, false);
        let qps: Vec<(f64, f64)> = bursts
            .iter()
            .map(|(p, i)| (p.throughput(), speed[*i]))
            .collect();
        report.info("rounds.saturation_qps", list(qps.iter().map(|q| q.0)));
        report.at_nominal("throughput", &qps, true);
        phases.push(Phase::merged(
            "saturate",
            bursts.into_iter().map(|(p, _)| p).collect(),
        ));
    }
    phases.push(Phase::merged("nominal", plain));
    if !reloading.is_empty() {
        phases.push(Phase::merged("reload", reloading));
    }
    if !reload_secs.is_empty() {
        report.info("reload_s", median(&reload_secs));
        report.info("reload_s.n", reload_secs.len());
    }
    phases.push(run_phase(
        "high",
        &mut clients,
        Load::Open(plan.high_qps),
        HIGH_SHARE * secs,
        &mix,
        &oracle,
        seed,
        traced,
        nothing,
    ));
    if traced {
        layers_from_server(&mut report, &mut ledger, &mut clients[0]);
        let bytes = direct_calls(&mut ledger, &mix, &oracle, seed);
        report.layer("wire.bytes_per_query", Some(bytes));
        replay(
            &mut ledger,
            &server,
            &mut clients[0],
            &mix,
            plan.nominal_qps,
            seed,
        );
    }

    // Accounting and output checks.
    for p in &phases {
        p.report(&mut report);
        if p.name != "warmup" {
            report.attempted += p.a.sent as u64;
            report.failed += (p.a.failed + p.a.unsent) as u64;
        }
    }
    let checked: Vec<&(QueryRequest, QueryResponse)> =
        phases.iter().flat_map(|p| &p.a.sampled).collect();
    let wrong: Vec<String> = checked
        .iter()
        .filter(|(request, response)| !oracle.agrees(request, response, &mut scratch))
        .map(|(request, _)| format!("{request:?}"))
        .take(3)
        .collect();
    report.info("checked_responses", checked.len());
    report.check(
        "1 in 100 serve responses equal a direct ProfileIndex call",
        if checked.is_empty() {
            Err("no response was sampled".into())
        } else if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("mismatched: {}", wrong.join("; ")))
        },
    );
    if kind == ServeKind::FoldinReload {
        let hot: usize = phases.iter().map(|p| p.a.hot).sum();
        let mismatched: usize = phases.iter().map(|p| p.a.hot_mismatches).sum();
        report.info("hot_fold_ins", hot);
        report.check(
            "hot-set fold-ins repeat byte-identically across cache hits and misses",
            if hot == 0 {
                Err("no hot fold-in was answered".into())
            } else if mismatched == 0 {
                Ok(())
            } else {
                Err(format!("{mismatched} of {hot} hot answers differ"))
            },
        );
    }

    if traced {
        for p in &mut phases {
            if let Some(l) = p.a.ledger.take() {
                ledger.absorb(l);
            }
        }
        for label in ["nominal", "high"] {
            let p = phases.iter().find(|p| p.name == label).expect("phase ran");
            report.layer(
                &format!("gen.late_ms_max.{label}"),
                Some(p.a.late_max * 1e3),
            );
            report.layer(&format!("gen.achieved_ratio.{label}"), Some(p.achieved()));
            report.layer(
                &format!("gen.batch_size_mean.{label}"),
                Some(p.batch_mean()),
            );
        }
        for ((load, build), total) in reload_parts.iter().zip(&reload_secs) {
            ledger.derived("reload.load", *load);
            ledger.derived("reload.index", *build);
            ledger.derived("reload.swap", total - load - build);
        }
        for (layer, stage) in [
            ("index.build_s", "index.build"),
            ("io.load_s", "io.load"),
            ("io.save_s", "io.save"),
            ("reload.load_s", "reload.load"),
            ("reload.index_s", "reload.index"),
            ("reload.swap_s", "reload.swap"),
        ] {
            report.layer(layer, ledger.median(stage));
        }
        report.layer("io.snapshot_mb", Some(snapshot_mb));
        // Execute cost per query of a class is a mean: `link_score` mixes
        // ~1 µs friendship scores with ~150 µs diffusion scores half and
        // half, and its median flips between the two from run to run.
        for (layer, stage) in [
            ("index.exec_us.ranking", "index.exec.ranking"),
            ("index.exec_us.top_words", "index.exec.top_words"),
            ("index.exec_us.profile", "index.exec.profile"),
            ("index.exec_us.link_score", "index.exec.link_score"),
            ("foldin.exec_us.doc", "foldin.exec.doc"),
            ("foldin.exec_us.user", "foldin.exec.user"),
        ] {
            report.layer(layer, ledger.mean(stage).map(|s| s * 1e6));
        }
        for (layer, stage) in [
            ("runtime.submit_us", "runtime.submit_batch"),
            ("server.transport_us", "server.transport"),
        ] {
            report.layer(layer, ledger.median(stage).map(|s| s * 1e6));
        }
        for (layer, stage) in [
            ("wire.encode_ns.request", "wire.encode.request"),
            ("wire.decode_ns.request", "wire.decode.request"),
            ("wire.encode_ns.response", "wire.encode.response"),
            ("wire.decode_ns.response", "wire.decode.response"),
        ] {
            report.layer(layer, ledger.median(stage).map(|s| s * 1e9));
        }
        report.ledger = Some(ledger);
    }
    drop(clients);
    drop(sampling);
    let totals = server.shutdown();
    report.info("server.total_queries", totals.total_queries());
    report
}

/// Layer metrics the server exports: the scrape's queue-wait and
/// per-class execute quantiles, the stats frame's counters, and the
/// head-sampled span trees as an ungated cross-check.
fn layers_from_server(report: &mut Report, ledger: &mut Ledger, client: &mut Client) {
    let text = client.metrics().expect("metrics scrape");
    let queue = "cpd_serve_queue_wait_seconds";
    let us = |v: Option<f64>| v.map(|s| s * 1e6);
    report.layer(
        "runtime.queue_wait_us.p50",
        us(scraped(&text, queue, "0.5")),
    );
    report.layer(
        "runtime.queue_wait_us.p99",
        us(scraped(&text, queue, "0.99")),
    );
    for class in ["ranking", "top_words", "profile", "fold_in", "link_score"] {
        let series = format!("cpd_serve_query_seconds{{class=\"{class}\"}}");
        report.layer(
            &format!("runtime.exec_p50_us.{class}"),
            us(scraped(&text, &series, "0.5")),
        );
    }
    let stats = client.stats().expect("stats frame");
    report.layer(
        "runtime.queue_high_water",
        Some(stats.queue_high_water as f64),
    );
    report.layer("runtime.shed", Some(stats.shed as f64));
    report.layer(
        "runtime.deadline_exceeded",
        Some(stats.deadline_exceeded as f64),
    );
    report.layer("cache.hit_ratio", Some(stats.cache.hit_rate()));
    report.layer("cache.evictions", Some(stats.cache.evictions as f64));
    let traces = client.traces().expect("traces frame");
    report.info("server_traces", traces.len());
    for span in traces.iter().flat_map(|t| &t.spans) {
        ledger.derived(
            &format!("server_trace.{}", span.name),
            span.duration_nanos() as f64 * 1e-9,
        );
    }
}

/// Direct calls into the index and the fold-in engine replaying the mix,
/// plus the wire codec on each request and response. Returns the median
/// bytes a query and its answer take on the wire.
fn direct_calls(ledger: &mut Ledger, mix: &Mix, oracle: &Oracle, seed: u64) -> f64 {
    let mut rng = child_rng(seed, 0xD1EC7);
    let mut scratch = FoldScratch::new();
    let calls = match mix.kind {
        ServeKind::QueryMix => 4000,
        ServeKind::FoldinReload => 1000,
    };
    let mut bytes = Vec::with_capacity(calls);
    for _ in 0..calls {
        let (request, _) = mix.draw(&mut rng);
        let t0 = Instant::now();
        let response = direct(&oracle.indexes[0], &oracle.features, &request, &mut scratch);
        ledger.record(stage_of(&request), 0, t0, Instant::now());
        let request = RequestFrame::Query {
            request,
            deadline_ms: None,
            trace: None,
        };
        let response = ResponseFrame::Response {
            response,
            trace_id: None,
        };
        let t0 = Instant::now();
        let req_bytes = encode_request(&request);
        let t1 = Instant::now();
        let req_back = read_request(&mut req_bytes.as_slice());
        let t2 = Instant::now();
        let resp_bytes = encode_response(&response);
        let t3 = Instant::now();
        let resp_back = read_response(&mut resp_bytes.as_slice());
        let t4 = Instant::now();
        assert!(
            matches!(req_back, Ok(Some(ref f)) if *f == request),
            "request frame round trip"
        );
        assert!(
            matches!(resp_back, Ok(Some(ref f)) if *f == response),
            "response frame round trip"
        );
        ledger.record("wire.encode.request", 0, t0, t1);
        ledger.record("wire.decode.request", 0, t1, t2);
        ledger.record("wire.encode.response", 0, t2, t3);
        ledger.record("wire.decode.response", 0, t3, t4);
        bytes.push((req_bytes.len() + resp_bytes.len()) as f64);
    }
    median(&bytes)
}

/// Batches the size the nominal rate sends, closed loop: one into the
/// runtime in process, then one drawn alike over TCP. The TCP time less
/// the in-process time and the codec work is the transport's share.
fn replay(
    ledger: &mut Ledger,
    server: &Server,
    client: &mut Client,
    mix: &Mix,
    nominal: f64,
    seed: u64,
) {
    // Two threads share the rate; a batch carries what one thread has due
    // in a millisecond.
    let per_batch = (nominal / THREADS as f64 / 1000.0).ceil() as usize;
    let (mut rng_a, mut rng_b) = (child_rng(seed, 0x2E91A), child_rng(seed, 0x2E91B));
    let (mut tcp, mut inproc) = (Vec::new(), Vec::new());
    for _ in 0..400 {
        let a: Vec<QueryRequest> = (0..per_batch).map(|_| mix.draw(&mut rng_a).0).collect();
        let b: Vec<QueryRequest> = (0..per_batch).map(|_| mix.draw(&mut rng_b).0).collect();
        let t0 = Instant::now();
        let answers = server.runtime().submit_batch(a);
        let t1 = Instant::now();
        let over_tcp = client.query_batch(b);
        let t2 = Instant::now();
        assert_eq!(answers.len(), per_batch, "in-process replay");
        assert!(over_tcp.is_ok(), "replay over TCP");
        ledger.record("runtime.submit_batch", 0, t0, t1);
        ledger.record("server.tcp_batch", 0, t1, t2);
        inproc.push((t1 - t0).as_secs_f64());
        tcp.push((t2 - t1).as_secs_f64());
    }
    let codec: f64 = [
        "wire.encode.request",
        "wire.decode.request",
        "wire.encode.response",
        "wire.decode.response",
    ]
    .iter()
    .map(|s| ledger.median(s).unwrap_or(0.0))
    .sum();
    ledger.derived(
        "server.transport",
        median(&tcp) - median(&inproc) - codec * per_batch as f64,
    );
}
