//! Topology-aware count planes over the big count matrices.
//!
//! The Gibbs sampler's state is a handful of flat count arrays, each a
//! matrix plus its row/column marginal: the word-topic pair (`n_zw`,
//! stored word-major as `W × Z` so one word's `|Z|` topic counts are
//! contiguous; `n_z`: `Z`), the community-topic pair (`n_cz`: `C × Z`,
//! `n_c`: `C`) and the user-community pair (`n_uc`: `U × C`, `n_u`:
//! `U`). Under the sharded runtimes every mutation of a per-replica
//! array costs `CountDelta` log entries that the barrier fold replays
//! and every other replica replays again (or pays a snapshot copy).
//! This module abstracts *where counts live* so any of those pairs can
//! move into shared lock-free storage while the rest stay in plain
//! per-replica vectors — and, for the shared storage, *how the plane is
//! laid out relative to the machine*:
//!
//! * **Stripes are cache-line aligned.** The plane is split into
//!   `n_shards` contiguous stripes; under the default padded layout
//!   every stripe boundary falls on a 64-byte cache-line boundary, so
//!   two workers hammering adjacent stripes never ping-pong the
//!   boundary line between cores (no false sharing across stripes).
//! * **Small hot planes are stride-padded.** The tiny marginal planes
//!   (`n_z` is `Z` slots ≈ 200 bytes, `n_c` a few dozen) are written by
//!   *every* worker on *every* document move; packed, the whole plane
//!   is 1–4 cache lines and every increment contends. Padded planes
//!   place one logical slot per cache line (only while the plane is
//!   small enough for that to be cheap), so increments to different
//!   communities/topics stop false-sharing a line.
//! * **Stripes have owners.** [`AtomicPlane::owned_range`] defines a
//!   stable worker↔stripe map: contiguous blocks of stripes per worker,
//!   partitioning the slot space exactly once at any
//!   `(len, n_shards, workers)`. Ownership drives two things: NUMA
//!   **first-touch placement** — the slab is allocated zeroed but
//!   *untouched* ([`std::alloc::alloc_zeroed`] maps pages lazily), and
//!   each worker writes the initial tallies into its own stripes on its
//!   own thread via [`AtomicPlane::fill_range`], so the kernel places
//!   each stripe's pages on the touching worker's node — and the
//!   **local/remote op split** ([`PairCounts::take_ops`]) that tells
//!   the trainer how much of the sweep's RMW traffic crossed stripe
//!   ownership (a proxy for cross-node traffic on multi-socket boxes).
//!
//! # The [`CountPlane`] contract
//!
//! A count plane is a flat array of `u32` tallies addressed by the same
//! row-major indices the dense `CpdState` matrices use. Implementations
//! must provide:
//!
//! * **Exactly-applied increments.** [`CountPlane::add`] applies a
//!   signed delta exactly once; concurrent `add`s on the same slot must
//!   not lose updates (dense planes are exclusively owned so `&mut`
//!   suffices; the atomic plane uses relaxed read-modify-writes).
//! * **Commutativity.** Callers only ever publish increments whose sum
//!   is order-independent, so a plane never needs ordering between
//!   slots — relaxed atomics are enough.
//! * **Quiescent exactness.** Once all writers have reached a barrier,
//!   [`CountPlane::get`] / [`CountPlane::snapshot`] must return the
//!   exact tallies (every increment visible). *During* a concurrent
//!   sweep, reads may be stale or mid-flight by any interleaving — the
//!   approximate-Gibbs argument (Sect. 4.3 of the paper) tolerates
//!   this, which is why the sampler proves distributional equivalence,
//!   not draw-identity, for the lock-free runtime.
//! * **No transient underflow.** Callers must never let a slot's true
//!   running total go negative; a document's counts are removed only by
//!   the worker that owns the document, so its prior increments are
//!   always in the slot before the matching decrement.
//!
//! Two backends implement the contract:
//!
//! * [`Vec<u32>`] — the dense per-replica plane the serial,
//!   `CloneRebuild` and `DeltaSharded` runtimes use (byte-identical
//!   draws, zero overhead);
//! * [`AtomicPlane`] — one 64-byte-aligned slab of `AtomicU32` cells
//!   shared by every worker, striped into contiguous cache-line-aligned
//!   shards, used by `LockFreeCounts` so workers publish increments
//!   directly during the sweep and the arrays vanish from the
//!   `CountDelta` logs entirely.
//!
//! The layout knobs change *where bytes live*, never *what they count*:
//! logical indices, shard partitioning and barrier exactness are
//! identical under the packed legacy layout and the padded layout, so
//! the consistency checker and the draw-level oracles hold under both.
//!
//! [`PairCounts`] pairs a matrix plane with its marginal and is what
//! `CpdState` actually stores (once per pair); it selects the backend
//! at runtime (an enum, so `CpdState` stays object-safe and cloneable)
//! and counts the atomic read-modify-writes issued through each handle
//! — split into ops that landed in the handle's owned stripes vs
//! everyone else's — for the trainer's contention diagnostics.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Cache-line size the padded layout aligns to.
pub const CACHE_LINE_BYTES: usize = 64;

/// `u32` slots per cache line (the padded stride and stripe quantum).
pub const SLOTS_PER_LINE: usize = CACHE_LINE_BYTES / std::mem::size_of::<u32>();

/// Largest plane (in logical slots) that gets one-slot-per-line stride
/// padding under the padded layout. Covers the hot `n_z`/`n_c`
/// marginals (tens of slots) without inflating big marginals like `n_u`
/// (one slot per user) — a 1024-slot plane padded costs 64 KiB, the
/// break-even where padding stops paying for itself.
const PAD_SMALL_PLANE_MAX: usize = 1024;

/// Flat array of `u32` tallies — see the module docs for the full
/// contract (exactly-applied commutative increments, quiescent
/// exactness, no transient underflow).
pub trait CountPlane {
    /// Number of slots.
    fn len(&self) -> usize;

    /// `true` when the plane has no slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current tally of slot `i` (may be mid-sweep stale for shared
    /// planes; exact at a barrier).
    fn get(&self, i: usize) -> u32;

    /// Apply a signed increment to slot `i`, exactly once.
    fn add(&mut self, i: usize, v: i32);

    /// Zero every slot.
    fn reset(&mut self);

    /// Copy the current tallies out as a plain vector.
    fn snapshot(&self) -> Vec<u32>;

    /// Overwrite every slot from `src` (`src.len() == self.len()`).
    fn copy_from(&mut self, src: &[u32]);
}

/// The dense backend: a plain exclusively-owned vector.
impl CountPlane for Vec<u32> {
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self[i]
    }

    #[inline]
    fn add(&mut self, i: usize, v: i32) {
        debug_assert!(
            self[i] as i64 + v as i64 >= 0,
            "count would go negative at slot {i}"
        );
        self[i] = self[i].wrapping_add_signed(v);
    }

    fn reset(&mut self) {
        self.iter_mut().for_each(|x| *x = 0);
    }

    fn snapshot(&self) -> Vec<u32> {
        self.clone()
    }

    fn copy_from(&mut self, src: &[u32]) {
        self.copy_from_slice(src);
    }
}

/// A 64-byte-aligned, zero-initialised, *untouched* slab of atomic
/// cells.
///
/// `alloc_zeroed` hands back memory whose pages the kernel maps lazily:
/// nothing is resident until the first **write** faults a page in, and
/// on NUMA boxes the first-touch policy places that page on the node of
/// the writing thread. The slab therefore never pre-touches its cells —
/// [`AtomicPlane::fill_range`] lets each worker fault in exactly the
/// stripes it owns. Rounding the allocation up to whole cache lines
/// (and aligning its start to one) means no neighbouring allocation
/// ever shares a line with the tallies.
struct Slab {
    ptr: NonNull<AtomicU32>,
    len: usize,
}

// SAFETY: the slab's cells are `AtomicU32` — all access goes through
// atomic operations on shared references, which is exactly what
// `Send`/`Sync` require.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Slab {
    fn alloc_layout(len: usize) -> Layout {
        let bytes = (len * std::mem::size_of::<u32>()).next_multiple_of(CACHE_LINE_BYTES);
        Layout::from_size_align(bytes, CACHE_LINE_BYTES).expect("plane layout overflows")
    }

    /// A zeroed slab of `len` cells whose pages stay untouched until
    /// first written.
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::alloc_layout(len);
        // SAFETY: layout has non-zero size (len > 0); the zero bit
        // pattern is a valid `AtomicU32` (repr(transparent) over u32).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<AtomicU32>()) else {
            handle_alloc_error(layout);
        };
        Self { ptr, len }
    }

    #[inline]
    fn cells(&self) -> &[AtomicU32] {
        // SAFETY: `ptr` points at `len` initialised (zeroed) AtomicU32
        // cells for the slab's whole lifetime; dangling only when
        // len == 0, where the empty slice is valid.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Bytes actually reserved for this slab (whole cache lines).
    fn alloc_bytes(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            Self::alloc_layout(self.len).size()
        }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::alloc_layout(self.len)) };
        }
    }
}

/// The shared lock-free backend: one reference-counted, cache-aligned
/// slab of `AtomicU32` cells, striped into contiguous owned shards.
///
/// Every clone of an `AtomicPlane` aliases the same cells, so cloning a
/// `CpdState` whose counts are shared gives each worker replica a
/// *view* of one canonical plane — increments published by any worker
/// are visible (modulo relaxed-ordering lag) to all of them mid-sweep,
/// and exactly summed by the time the sweep barrier is crossed.
///
/// The shard boundaries partition the **logical** flat index space into
/// `n_shards` contiguous stripes (for a row-major matrix a stripe is a
/// run of whole and partial rows). Shards are the plane's maintenance
/// and topology unit: the consistency checker validates the plane
/// stripe by stripe (`CpdState::check_consistency`), the ownership map
/// assigns contiguous shard blocks to workers for first-touch placement
/// and local/remote accounting, and snapshot/store operations take
/// shard ranges so maintenance passes fan out across worker threads.
///
/// Physically, the padded layout may stretch the plane: stripe
/// boundaries are rounded up to whole cache lines, and small planes
/// place one logical slot per line (`stride == 16`). All public
/// indices stay logical; only `mem_bytes` sees the stretch.
pub struct AtomicPlane {
    cells: Arc<Slab>,
    /// Logical slot count.
    len: usize,
    /// Physical cells per logical slot (1 packed, 16 line-padded).
    stride: usize,
    /// Logical slots per stripe.
    stripe: usize,
    n_shards: usize,
}

impl AtomicPlane {
    fn layout(len: usize, n_shards: usize, padded: bool) -> (usize, usize, usize) {
        let n_shards = n_shards.max(1);
        let stride = if padded && len > 0 && len <= PAD_SMALL_PLANE_MAX {
            SLOTS_PER_LINE
        } else {
            1
        };
        let mut stripe = len.div_ceil(n_shards).max(1);
        if padded && stride == 1 {
            // Stripe boundaries on cache-line boundaries: adjacent
            // stripes never share a line. (With stride 16 every slot
            // already has its own line.)
            stripe = stripe.next_multiple_of(SLOTS_PER_LINE);
        }
        (n_shards, stride, stripe)
    }

    /// A zeroed plane of `len` slots split into `n_shards` stripes,
    /// under the default padded (topology-aware) layout. Pages are
    /// untouched until first written — see [`AtomicPlane::fill_range`].
    pub fn new(len: usize, n_shards: usize) -> Self {
        Self::new_with_layout(len, n_shards, true)
    }

    /// A zeroed plane under an explicit layout (`padded: false`
    /// reproduces the packed legacy stripe boundaries, for the
    /// locality benches' baseline arm).
    pub fn new_with_layout(len: usize, n_shards: usize, padded: bool) -> Self {
        let (n_shards, stride, stripe) = Self::layout(len, n_shards, padded);
        Self {
            cells: Arc::new(Slab::zeroed(len * stride)),
            len,
            stride,
            stripe,
            n_shards,
        }
    }

    /// A plane initialised from dense tallies (touched by the calling
    /// thread — use [`AtomicPlane::new`] + [`AtomicPlane::fill_range`]
    /// when the fill should land on the owning workers instead).
    pub fn from_dense(src: &[u32], n_shards: usize) -> Self {
        Self::from_dense_with_layout(src, n_shards, true)
    }

    /// [`AtomicPlane::from_dense`] under an explicit layout.
    pub fn from_dense_with_layout(src: &[u32], n_shards: usize, padded: bool) -> Self {
        let plane = Self::new_with_layout(src.len(), n_shards, padded);
        plane.fill_range(0..src.len(), src);
        plane
    }

    #[inline]
    fn slot(&self, i: usize) -> &AtomicU32 {
        &self.cells.cells()[i * self.stride]
    }

    /// Number of contiguous stripes.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Logical flat index range of shard `s` (`s < n_shards()`); the
    /// ranges partition `0..len()` (trailing shards may be empty when
    /// aligned stripes swallow the whole plane early).
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        let lo = (s * self.stripe).min(self.len);
        let hi = ((s + 1) * self.stripe).min(self.len);
        lo..hi
    }

    /// Shard that owns logical slot `i`.
    #[inline]
    pub fn shard_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        (i / self.stripe).min(self.n_shards - 1)
    }

    /// The contiguous block of shard indices worker `worker` (of
    /// `n_workers`) owns. Workers take `ceil(n_shards / n_workers)`
    /// consecutive shards each; blocks partition `0..n_shards` (late
    /// workers may own nothing).
    pub fn owned_shards(&self, worker: usize, n_workers: usize) -> Range<usize> {
        let per = self.n_shards.div_ceil(n_workers.max(1));
        let lo = (worker * per).min(self.n_shards);
        let hi = ((worker + 1) * per).min(self.n_shards);
        lo..hi
    }

    /// The contiguous logical slot range worker `worker` owns — the
    /// union of its [`AtomicPlane::owned_shards`]' ranges. Over all
    /// workers these ranges partition `0..len()` exactly once.
    pub fn owned_range(&self, worker: usize, n_workers: usize) -> Range<usize> {
        let shards = self.owned_shards(worker, n_workers);
        let lo = (shards.start * self.stripe).min(self.len);
        let hi = (shards.end * self.stripe).min(self.len);
        lo..hi
    }

    /// Store `src[i]` into every slot `i` of `range` (relaxed stores).
    ///
    /// `src` is the full-plane dense source (`src.len() == self.len()`).
    /// This is the first-touch primitive: calling it from the owning
    /// worker thread faults the range's pages in on that thread, which
    /// is what places them on the right NUMA node. Safe concurrently
    /// with other `fill_range` calls on disjoint ranges.
    pub fn fill_range(&self, range: Range<usize>, src: &[u32]) {
        debug_assert_eq!(src.len(), self.len);
        for i in range {
            self.slot(i).store(src[i], Ordering::Relaxed);
        }
    }

    /// Snapshot one shard's tallies (relaxed loads; exact at a barrier).
    pub fn snapshot_shard(&self, s: usize) -> Vec<u32> {
        self.shard_range(s).map(|i| self.get(i)).collect()
    }

    /// Bytes actually allocated for the plane (including stride and
    /// cache-line padding).
    pub fn mem_bytes(&self) -> usize {
        self.cells.alloc_bytes()
    }

    /// `true` when `other` aliases the same cells.
    pub fn same_plane(&self, other: &AtomicPlane) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }
}

impl Clone for AtomicPlane {
    /// Clones share the cells — a clone is another handle onto the same
    /// plane, not a copy of the tallies.
    fn clone(&self) -> Self {
        Self {
            cells: Arc::clone(&self.cells),
            len: self.len,
            stride: self.stride,
            stripe: self.stripe,
            n_shards: self.n_shards,
        }
    }
}

impl std::fmt::Debug for AtomicPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicPlane")
            .field("len", &self.len)
            .field("n_shards", &self.n_shards)
            .field("stride", &self.stride)
            .field("stripe", &self.stripe)
            .finish()
    }
}

impl CountPlane for AtomicPlane {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.slot(i).load(Ordering::Relaxed)
    }

    /// Relaxed `fetch_add`; a negative `v` wraps through two's
    /// complement, which is exact as long as the running total never
    /// goes negative (the contract's underflow clause).
    #[inline]
    fn add(&mut self, i: usize, v: i32) {
        self.slot(i).fetch_add(v as u32, Ordering::Relaxed);
    }

    fn reset(&mut self) {
        for i in 0..self.len {
            self.slot(i).store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    fn copy_from(&mut self, src: &[u32]) {
        assert_eq!(src.len(), self.len);
        self.fill_range(0..self.len, src);
    }
}

/// A handle's atomic read-modify-write tally, split by stripe
/// ownership: `local` ops landed in the stripes this handle's worker
/// owns (same-node memory after first-touch placement), `remote` ops
/// crossed into someone else's stripes. Handles with no assigned owner
/// count everything as remote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpsSplit {
    /// RMWs into the owning worker's stripes.
    pub local: u64,
    /// RMWs into other workers' stripes (or any RMW on an unowned
    /// handle).
    pub remote: u64,
}

impl OpsSplit {
    /// Total RMWs, regardless of placement.
    pub fn total(&self) -> u64 {
        self.local + self.remote
    }

    /// Accumulate another split into this one.
    pub fn accumulate(&mut self, other: &OpsSplit) {
        self.local += other.local;
        self.remote += other.remote;
    }
}

/// The per-handle tally, padded to its own cache line so the counter a
/// worker bumps on every single RMW never shares a line with the plane
/// handles (or anything else) in its replica. Public only because it
/// appears in [`PairCounts::Shared`]; drain it via
/// [`PairCounts::take_ops`].
#[derive(Clone, Debug, Default)]
#[repr(align(64))]
pub struct OpsTally(OpsSplit);

/// One count pair — a row-major matrix plane plus its marginal — behind
/// a runtime-selected [`CountPlane`] backend. `CpdState` stores three:
/// word-topic (`n_zw`/`n_z`, rows are words), community-topic
/// (`n_cz`/`n_c`) and user-community (`n_uc`/`n_u`).
///
/// `Dense` is per-replica storage (cloning copies the tallies);
/// `Shared` is one atomic plane every clone aliases (cloning hands out
/// another view). The `Shared` variant also counts the atomic
/// read-modify-writes issued through *this* handle — each worker's
/// replica accumulates its own local/remote tally, which the runtime
/// drains per sweep into the trainer's contention diagnostics.
#[derive(Debug)]
pub enum PairCounts {
    /// Per-replica dense vectors (serial, `CloneRebuild`,
    /// `DeltaSharded`).
    Dense {
        /// Row-major matrix tallies.
        main: Vec<u32>,
        /// Marginal totals.
        marginal: Vec<u32>,
    },
    /// One shared atomic plane per array (`LockFreeCounts`).
    Shared {
        /// Shared matrix plane.
        main: AtomicPlane,
        /// Shared marginal totals.
        marginal: AtomicPlane,
        /// Atomic read-modify-writes published through this handle
        /// since the last [`PairCounts::take_ops`], split local/remote
        /// by stripe ownership.
        ops: OpsTally,
        /// Matrix slots this handle's worker owns
        /// ([`PairCounts::set_owner`]; empty = unowned).
        owned_main: Range<usize>,
        /// Marginal slots this handle's worker owns.
        owned_marginal: Range<usize>,
    },
}

impl Clone for PairCounts {
    fn clone(&self) -> Self {
        match self {
            Self::Dense { main, marginal } => Self::Dense {
                main: main.clone(),
                marginal: marginal.clone(),
            },
            // A cloned shared handle aliases the same planes but starts
            // its own ops tally and *unowned* — a clone is a new
            // worker's handle, so ownership must be assigned explicitly
            // via `set_owner`, never inherited from whoever cloned it.
            Self::Shared { main, marginal, .. } => Self::Shared {
                main: main.clone(),
                marginal: marginal.clone(),
                ops: OpsTally::default(),
                owned_main: 0..0,
                owned_marginal: 0..0,
            },
        }
    }
}

impl PairCounts {
    /// Zeroed dense planes of `main_len` matrix slots and
    /// `marginal_len` marginal slots.
    pub fn dense(main_len: usize, marginal_len: usize) -> Self {
        Self::Dense {
            main: vec![0; main_len],
            marginal: vec![0; marginal_len],
        }
    }

    /// A shared atomic plane initialised from the current tallies,
    /// striped into `n_shards` contiguous index shards under the
    /// default padded layout. The calling thread touches every page —
    /// use [`PairCounts::to_shared_cold`] when the fill should happen
    /// on the owning workers.
    pub fn to_shared(&self, n_shards: usize) -> Self {
        self.to_shared_with_layout(n_shards, true)
    }

    /// [`PairCounts::to_shared`] under an explicit layout.
    pub fn to_shared_with_layout(&self, n_shards: usize, padded: bool) -> Self {
        let (m, g) = self.snapshot();
        Self::Shared {
            main: AtomicPlane::from_dense_with_layout(&m, n_shards, padded),
            marginal: AtomicPlane::from_dense_with_layout(&g, n_shards.min(g.len().max(1)), padded),
            ops: OpsTally::default(),
            owned_main: 0..0,
            owned_marginal: 0..0,
        }
    }

    /// A shared pair whose planes are allocated but **untouched**: the
    /// current tallies are returned as `(main, marginal)` dense sources
    /// instead of being written by this thread, so each worker can
    /// first-touch its owned stripes via [`PairCounts::fill_owned`].
    /// The planes read all-zero until every owner has filled.
    pub fn to_shared_cold(&self, n_shards: usize, padded: bool) -> (Self, (Vec<u32>, Vec<u32>)) {
        let (m, g) = self.snapshot();
        let shared = Self::Shared {
            main: AtomicPlane::new_with_layout(m.len(), n_shards, padded),
            marginal: AtomicPlane::new_with_layout(g.len(), n_shards.min(g.len().max(1)), padded),
            ops: OpsTally::default(),
            owned_main: 0..0,
            owned_marginal: 0..0,
        };
        (shared, (m, g))
    }

    /// Assign this handle to `worker` of `n_workers`: records the owned
    /// stripe ranges on both planes, which drive [`PairCounts::fill_owned`]
    /// and the local/remote op split. No-op for dense pairs.
    pub fn set_owner(&mut self, worker: usize, n_workers: usize) {
        if let Self::Shared {
            main,
            marginal,
            owned_main,
            owned_marginal,
            ..
        } = self
        {
            *owned_main = main.owned_range(worker, n_workers);
            *owned_marginal = marginal.owned_range(worker, n_workers);
        }
    }

    /// First-touch the owned stripes of both planes from dense sources
    /// (the vectors [`PairCounts::to_shared_cold`] returned). Must run
    /// on the owning worker's thread for the pages to land on its node.
    /// No-op for dense pairs or unowned handles.
    pub fn fill_owned(&mut self, main_src: &[u32], marginal_src: &[u32]) {
        if let Self::Shared {
            main,
            marginal,
            owned_main,
            owned_marginal,
            ..
        } = self
        {
            main.fill_range(owned_main.clone(), main_src);
            marginal.fill_range(owned_marginal.clone(), marginal_src);
        }
    }

    /// `true` for the shared atomic backend.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self, Self::Shared { .. })
    }

    /// Number of matrix slots.
    #[inline]
    pub fn len_main(&self) -> usize {
        match self {
            Self::Dense { main, .. } => main.len(),
            Self::Shared { main, .. } => main.len(),
        }
    }

    /// Current matrix tally at flat index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Self::Dense { main, .. } => main[i],
            Self::Shared { main, .. } => main.get(i),
        }
    }

    /// Current marginal tally at index `i`.
    #[inline]
    pub fn marginal(&self, i: usize) -> u32 {
        match self {
            Self::Dense { marginal, .. } => marginal[i],
            Self::Shared { marginal, .. } => marginal.get(i),
        }
    }

    /// Visit the nonzero entries of the contiguous slot range
    /// `start..start + len` — one row of a row-major plane — as
    /// `(offset_within_row, count)` pairs, in ascending offset order.
    ///
    /// This is the sparse-candidate primitive of the skew-aware
    /// sampler: community/user count rows are mostly zero on skewed
    /// corpora, so candidate weights are built as a constant prior-only
    /// baseline plus corrections at exactly these offsets. On the
    /// shared backend each entry is one relaxed load, same as
    /// [`PairCounts::get`]; mid-sweep values carry the usual
    /// `LockFreeCounts` staleness.
    #[inline]
    pub fn for_each_nonzero_in_row(&self, start: usize, len: usize, mut f: impl FnMut(usize, u32)) {
        match self {
            Self::Dense { main, .. } => {
                for (k, &n) in main[start..start + len].iter().enumerate() {
                    if n != 0 {
                        f(k, n);
                    }
                }
            }
            Self::Shared { main, .. } => {
                for k in 0..len {
                    let n = main.get(start + k);
                    if n != 0 {
                        f(k, n);
                    }
                }
            }
        }
    }

    /// Copy the contiguous slot range `start..start + out.len()` — one
    /// row of a row-major plane — into `out`, so a caller that needs
    /// the row more than once reads the plane once. On the shared
    /// backend each entry is one relaxed load, same as
    /// [`PairCounts::get`].
    #[inline]
    pub(crate) fn copy_row(&self, start: usize, out: &mut [u32]) {
        match self {
            Self::Dense { main, .. } => out.copy_from_slice(&main[start..start + out.len()]),
            Self::Shared { main, .. } => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = main.get(start + k);
                }
            }
        }
    }

    /// Apply a signed increment to matrix slot `i`.
    #[inline]
    pub fn add(&mut self, i: usize, v: i32) {
        match self {
            Self::Dense { main, .. } => main.add(i, v),
            Self::Shared {
                main,
                ops,
                owned_main,
                ..
            } => {
                main.add(i, v);
                if owned_main.contains(&i) {
                    ops.0.local += 1;
                } else {
                    ops.0.remote += 1;
                }
            }
        }
    }

    /// Apply a signed increment to marginal slot `i`.
    #[inline]
    pub fn add_marginal(&mut self, i: usize, v: i32) {
        match self {
            Self::Dense { marginal, .. } => marginal.add(i, v),
            Self::Shared {
                marginal,
                ops,
                owned_marginal,
                ..
            } => {
                marginal.add(i, v);
                if owned_marginal.contains(&i) {
                    ops.0.local += 1;
                } else {
                    ops.0.remote += 1;
                }
            }
        }
    }

    /// Zero both planes (shared: zeroes the canonical plane every
    /// handle sees).
    pub fn reset(&mut self) {
        match self {
            Self::Dense { main, marginal } => {
                CountPlane::reset(main);
                CountPlane::reset(marginal);
            }
            Self::Shared { main, marginal, .. } => {
                main.reset();
                marginal.reset();
            }
        }
    }

    /// Copy both planes out as dense vectors (`(main, marginal)`);
    /// exact at a barrier.
    pub fn snapshot(&self) -> (Vec<u32>, Vec<u32>) {
        match self {
            Self::Dense { main, marginal } => (main.clone(), marginal.clone()),
            Self::Shared { main, marginal, .. } => (main.snapshot(), marginal.snapshot()),
        }
    }

    /// Bytes resident for this pair's tallies — for dense pairs the
    /// vectors' payloads, for shared pairs the slabs' full allocation
    /// including stride and cache-line padding. Shared handles alias
    /// one slab, so sum this over *distinct* planes, not per handle.
    pub fn mem_bytes(&self) -> usize {
        match self {
            Self::Dense { main, marginal } => {
                (main.len() + marginal.len()) * std::mem::size_of::<u32>()
            }
            Self::Shared { main, marginal, .. } => main.mem_bytes() + marginal.mem_bytes(),
        }
    }

    /// Overwrite the matrix plane wholesale (the `CountRefresh`
    /// snapshot path).
    ///
    /// # Panics
    ///
    /// On a shared plane: a snapshot store would clobber the one live
    /// plane every replica aliases with stale tallies, mid-sync, for
    /// all shards at once. `CountRefresh::decide` never ships a
    /// snapshot for shared planes, so reaching this is a
    /// runtime-plumbing bug and fails loudly instead of corrupting.
    pub fn copy_main_from(&mut self, src: &[u32]) {
        match self {
            Self::Dense { main, .. } => main.copy_from(src),
            Self::Shared { .. } => unreachable!(
                "shared count planes are never snapshot-synced \
                 (CountRefresh::decide skips them)"
            ),
        }
    }

    /// Mutable access to the dense vectors (`None` for shared planes) —
    /// the delta replay path writes through this.
    #[inline]
    pub fn dense_mut(&mut self) -> Option<(&mut Vec<u32>, &mut Vec<u32>)> {
        match self {
            Self::Dense { main, marginal } => Some((main, marginal)),
            Self::Shared { .. } => None,
        }
    }

    /// Move the dense vectors out (replaced by empty ones), for
    /// shipping to a fold worker; `None` for shared planes.
    pub fn take_dense(&mut self) -> Option<(Vec<u32>, Vec<u32>)> {
        match self {
            Self::Dense { main, marginal } => {
                Some((std::mem::take(main), std::mem::take(marginal)))
            }
            Self::Shared { .. } => None,
        }
    }

    /// Re-install dense vectors previously moved out by
    /// [`PairCounts::take_dense`].
    pub fn restore_dense(&mut self, main: Vec<u32>, marginal: Vec<u32>) {
        *self = Self::Dense { main, marginal };
    }

    /// Validate the pair against freshly rebuilt dense tallies,
    /// reporting the first divergent region. Shared planes are checked
    /// stripe by stripe — the shards are the atomic plane's maintenance
    /// unit, and a per-shard report pins divergence to an index range
    /// instead of "somewhere in the matrix".
    pub fn check_against(
        &self,
        name: &str,
        fresh_main: &[u32],
        fresh_marginal: &[u32],
    ) -> Result<(), String> {
        match self {
            Self::Dense { main, marginal } => {
                if main != fresh_main {
                    return Err(format!("{name} counts diverged from assignments"));
                }
                if marginal != fresh_marginal {
                    return Err(format!("{name} marginal diverged from assignments"));
                }
            }
            Self::Shared { main, marginal, .. } => {
                for s in 0..main.n_shards() {
                    if main.snapshot_shard(s) != fresh_main[main.shard_range(s)] {
                        return Err(format!(
                            "{name} counts diverged from assignments in plane shard {s}"
                        ));
                    }
                }
                if marginal.snapshot() != fresh_marginal {
                    return Err(format!("{name} marginal diverged from assignments"));
                }
            }
        }
        Ok(())
    }

    /// Drain this handle's atomic read-modify-write tally (always zero
    /// for dense planes), split local/remote by stripe ownership.
    pub fn take_ops(&mut self) -> OpsSplit {
        match self {
            Self::Dense { .. } => OpsSplit::default(),
            Self::Shared { ops, .. } => std::mem::take(&mut ops.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_plane_adds_and_snapshots() {
        let mut p: Vec<u32> = vec![0; 4];
        p.add(1, 3);
        p.add(1, -1);
        assert_eq!(p.get(1), 2);
        assert_eq!(p.snapshot(), vec![0, 2, 0, 0]);
        CountPlane::reset(&mut p);
        assert_eq!(p, vec![0; 4]);
    }

    #[test]
    fn atomic_plane_is_shared_across_clones() {
        let mut a = AtomicPlane::from_dense(&[5, 6, 7], 2);
        let b = a.clone();
        assert!(a.same_plane(&b));
        a.add(0, -2);
        assert_eq!(b.get(0), 3);
        assert_eq!(b.snapshot(), vec![3, 6, 7]);
    }

    #[test]
    fn atomic_shards_partition_the_index_space() {
        for padded in [false, true] {
            let p = AtomicPlane::new_with_layout(10, 3, padded);
            let mut covered = Vec::new();
            for s in 0..p.n_shards() {
                covered.extend(p.shard_range(s));
            }
            assert_eq!(covered, (0..10).collect::<Vec<_>>(), "padded={padded}");
            let total: usize = (0..p.n_shards()).map(|s| p.snapshot_shard(s).len()).sum();
            assert_eq!(total, 10);
        }
    }

    #[test]
    fn padded_layout_aligns_stripes_and_strides_small_planes() {
        // Big plane: stride 1, stripe boundaries on cache lines.
        let big = AtomicPlane::new(100_000, 7);
        assert_eq!(big.stride, 1);
        for s in 0..big.n_shards() - 1 {
            let r = big.shard_range(s);
            if !r.is_empty() && r.end < big.len() {
                assert_eq!(r.end % SLOTS_PER_LINE, 0, "shard {s} ends mid-line");
            }
        }
        // Small plane: one slot per line.
        let small = AtomicPlane::new(50, 4);
        assert_eq!(small.stride, SLOTS_PER_LINE);
        assert!(small.mem_bytes() >= 50 * CACHE_LINE_BYTES);
        // Legacy layout: packed, original boundaries.
        let legacy = AtomicPlane::new_with_layout(10, 3, false);
        assert_eq!(legacy.stride, 1);
        assert_eq!(legacy.shard_range(0), 0..4);
        assert_eq!(legacy.shard_range(2), 8..10);
        assert_eq!(legacy.mem_bytes(), 64);
    }

    #[test]
    fn padded_and_legacy_layouts_agree_on_logical_content() {
        let src: Vec<u32> = (0..777).map(|i| (i * 7 % 23) as u32).collect();
        let padded = AtomicPlane::from_dense_with_layout(&src, 4, true);
        let legacy = AtomicPlane::from_dense_with_layout(&src, 4, false);
        assert_eq!(padded.snapshot(), src);
        assert_eq!(legacy.snapshot(), src);
        for i in [0usize, 1, 15, 16, 100, 776] {
            assert_eq!(padded.get(i), legacy.get(i), "slot {i}");
        }
    }

    #[test]
    fn fill_range_first_touches_only_the_requested_stripes() {
        let src: Vec<u32> = (0..40).map(|i| i as u32 + 1).collect();
        let p = AtomicPlane::new(40, 4);
        let lo = p.owned_range(0, 2);
        let hi = p.owned_range(1, 2);
        assert_eq!(lo.end, hi.start, "worker ranges are adjacent");
        p.fill_range(lo.clone(), &src);
        for (i, &v) in src.iter().enumerate() {
            let expect = if lo.contains(&i) { v } else { 0 };
            assert_eq!(p.get(i), expect, "slot {i} after partial fill");
        }
        p.fill_range(hi, &src);
        assert_eq!(p.snapshot(), src);
    }

    #[test]
    fn sparse_row_iteration_matches_dense_scan_on_both_backends() {
        // A skewed plane: 4 rows of 6 slots, most entries zero.
        let mut dense = PairCounts::dense(24, 4);
        for (i, v) in [(1usize, 3i32), (5, 1), (7, 9), (12, 2), (17, 4), (23, 1)] {
            dense.add(i, v);
        }
        let shared = dense.to_shared(2);
        for plane in [&dense, &shared] {
            for row in 0..4 {
                let start = row * 6;
                let mut sparse: Vec<(usize, u32)> = Vec::new();
                plane.for_each_nonzero_in_row(start, 6, |k, n| sparse.push((k, n)));
                let full: Vec<(usize, u32)> = (0..6)
                    .map(|k| (k, plane.get(start + k)))
                    .filter(|&(_, n)| n != 0)
                    .collect();
                assert_eq!(sparse, full, "row {row} shared={}", plane.is_shared());
            }
        }
    }

    #[test]
    fn sparse_row_iteration_handles_empty_and_full_rows() {
        let mut p = PairCounts::dense(6, 2);
        let mut seen = 0;
        p.for_each_nonzero_in_row(0, 3, |_, _| seen += 1);
        assert_eq!(seen, 0, "all-zero row must not invoke the callback");
        for i in 3..6 {
            p.add(i, i as i32 + 1);
        }
        let mut full = Vec::new();
        p.for_each_nonzero_in_row(3, 3, |k, n| full.push((k, n)));
        assert_eq!(full, vec![(0, 4), (1, 5), (2, 6)]);
    }

    #[test]
    fn atomic_adds_survive_threads() {
        let plane = AtomicPlane::new(8, 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut view = plane.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        for _ in 0..1000 {
                            view.add(i, 1);
                        }
                        for _ in 0..500 {
                            view.add(i, -1);
                        }
                    }
                });
            }
        });
        assert_eq!(plane.snapshot(), vec![2000; 8]);
    }

    #[test]
    fn pair_shared_view_counts_ops() {
        let dense = PairCounts::dense(6, 2);
        let mut shared = dense.to_shared(2);
        assert!(shared.is_shared());
        let mut view = shared.clone();
        view.add(4, 1);
        view.add_marginal(1, 1);
        assert_eq!(view.take_ops().total(), 2);
        assert_eq!(view.take_ops(), OpsSplit::default());
        // The increments landed on the canonical plane.
        assert_eq!(shared.get(4), 1);
        assert_eq!(shared.marginal(1), 1);
        assert_eq!(
            shared.take_ops().total(),
            0,
            "other handles' ops are not ours"
        );
    }

    #[test]
    fn ops_split_tracks_stripe_ownership() {
        // 32 slots × 2 shards: worker 0 owns 0..16, worker 1 owns
        // 16..32 under the padded layout.
        let dense = PairCounts::dense(32, 2);
        let mut shared = dense.to_shared(2);
        shared.set_owner(0, 2);
        shared.add(3, 1); // local (slot 3 ∈ 0..16)
        shared.add(20, 1); // remote
        shared.add_marginal(0, 1); // marginal shard 0 → local
        shared.add_marginal(1, 1); // marginal shard 1 → remote
        let split = shared.take_ops();
        assert_eq!(
            split,
            OpsSplit {
                local: 2,
                remote: 2
            }
        );
        // Unowned handles count everything remote.
        let mut unowned = shared.clone();
        unowned.add(3, -1);
        assert_eq!(
            unowned.take_ops(),
            OpsSplit {
                local: 0,
                remote: 1
            }
        );
    }

    #[test]
    fn to_shared_preserves_tallies() {
        let mut d = PairCounts::dense(4, 2);
        d.add(3, 7);
        d.add_marginal(1, 7);
        let s = d.to_shared(4);
        assert_eq!(s.snapshot(), d.snapshot());
    }

    #[test]
    fn to_shared_cold_planes_fill_from_owned_stripes() {
        let mut d = PairCounts::dense(64, 8);
        for i in 0..64 {
            d.add(i, (i % 5) as i32);
        }
        for i in 0..8 {
            d.add_marginal(i, i as i32);
        }
        let n_workers = 3;
        let (cold, (main_src, marg_src)) = d.to_shared_cold(n_workers, true);
        assert_eq!(cold.snapshot().0, vec![0; 64], "cold planes start zeroed");
        let mut handles: Vec<PairCounts> = (0..n_workers)
            .map(|w| {
                let mut h = cold.clone();
                h.set_owner(w, n_workers);
                h
            })
            .collect();
        for h in &mut handles {
            h.fill_owned(&main_src, &marg_src);
        }
        assert_eq!(cold.snapshot(), d.snapshot(), "fills cover the plane");
    }

    #[test]
    fn take_and_restore_dense_round_trips() {
        let mut d = PairCounts::dense(4, 2);
        d.add(0, 2);
        let (main, marginal) = d.take_dense().unwrap();
        assert_eq!(main[0], 2);
        assert_eq!(d.len_main(), 0, "taken planes are empty");
        d.restore_dense(main, marginal);
        assert_eq!(d.get(0), 2);
        assert!(PairCounts::dense(1, 1).to_shared(1).take_dense().is_none());
    }

    #[test]
    fn check_against_pins_divergence_to_a_shard() {
        let d = PairCounts::dense(128, 2);
        let s = d.to_shared(4);
        s.check_against("n_cz", &[0; 128], &[0; 2]).unwrap();
        let mut view = s.clone();
        view.add(100, 1);
        let err = s.check_against("n_cz", &[0; 128], &[0; 2]).unwrap_err();
        assert!(err.contains("shard 3"), "{err}");
    }

    #[test]
    fn mem_bytes_reports_both_backends() {
        let d = PairCounts::dense(100, 10);
        assert_eq!(d.mem_bytes(), 110 * 4);
        let s = d.to_shared(4);
        // Main: 100 packed slots → 400 B rounded to lines; marginal: 10
        // stride-padded slots → one line each.
        assert!(s.mem_bytes() >= 400 + 10 * CACHE_LINE_BYTES);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stripe-ownership map partitions every logical slot
        /// exactly once at arbitrary (len, n_shards, workers), under
        /// both layouts: worker ranges are disjoint, in order, and
        /// their union is `0..len`.
        #[test]
        fn ownership_partitions_every_slot_exactly_once(
            len in 0usize..5000,
            n_shards in 1usize..33,
            workers in 1usize..17,
            padded in proptest::arbitrary::any::<bool>(),
        ) {
            let p = AtomicPlane::new_with_layout(len, n_shards, padded);
            let mut cursor = 0usize;
            for w in 0..workers {
                let r = p.owned_range(w, workers);
                prop_assert!(r.start <= r.end);
                prop_assert_eq!(
                    r.start, cursor,
                    "worker {}'s range must start where the previous ended", w
                );
                cursor = r.end;
            }
            prop_assert_eq!(cursor, len, "ranges must cover the whole plane");
            // And the per-slot owner agrees with the range map.
            for i in (0..len).step_by(1 + len / 64) {
                let s = p.shard_of(i);
                let owner = (0..workers)
                    .find(|&w| p.owned_shards(w, workers).contains(&s))
                    .expect("every shard has an owner");
                prop_assert!(
                    p.owned_range(owner, workers).contains(&i),
                    "slot {} shard {} owner {}", i, s, owner
                );
            }
        }

        /// Shard ranges partition `0..len` under both layouts for
        /// arbitrary geometry (the aligned stripes may leave trailing
        /// shards empty but never drop or duplicate a slot).
        #[test]
        fn shard_ranges_partition_for_arbitrary_geometry(
            len in 0usize..5000,
            n_shards in 1usize..33,
            padded in proptest::arbitrary::any::<bool>(),
        ) {
            let p = AtomicPlane::new_with_layout(len, n_shards, padded);
            let mut cursor = 0usize;
            for s in 0..p.n_shards() {
                let r = p.shard_range(s);
                prop_assert_eq!(r.start, cursor.min(len));
                cursor = r.end;
            }
            prop_assert_eq!(cursor, len);
        }
    }

    /// `for_each_nonzero_in_row` agrees between the dense and atomic
    /// backends while concurrent ownership-respecting writers are
    /// quiesced: each worker mutates only slots it owns, so after the
    /// join both backends (fed the same increments) must expose the
    /// same nonzero sets row by row.
    #[test]
    fn sparse_row_iteration_agrees_under_concurrent_owned_writes() {
        let rows = 16usize;
        let cols = 24usize;
        let n_workers = 4usize;
        let shared = PairCounts::dense(rows * cols, rows).to_shared(n_workers);
        // Concurrent phase: each worker bumps a pseudo-random subset of
        // its owned slots through its own handle.
        std::thread::scope(|scope| {
            for w in 0..n_workers {
                let mut h = shared.clone();
                scope.spawn(move || {
                    h.set_owner(w, n_workers);
                    let owned = match &h {
                        PairCounts::Shared { main, .. } => main.owned_range(w, n_workers),
                        PairCounts::Dense { .. } => unreachable!(),
                    };
                    for round in 1..=3i32 {
                        for i in owned.clone() {
                            if !(i * 31 + round as usize).is_multiple_of(3) {
                                h.add(i, round);
                            }
                        }
                    }
                    let split = h.take_ops();
                    assert_eq!(split.remote, 0, "ownership-respecting writers stay local");
                });
            }
        });
        // Barrier: replay the same deterministic increments densely.
        let mut dense = PairCounts::dense(rows * cols, rows);
        for w in 0..n_workers {
            let owned = match &shared {
                PairCounts::Shared { main, .. } => main.owned_range(w, n_workers),
                PairCounts::Dense { .. } => unreachable!(),
            };
            for round in 1..=3i32 {
                for i in owned.clone() {
                    if !(i * 31 + round as usize).is_multiple_of(3) {
                        dense.add(i, round);
                    }
                }
            }
        }
        for row in 0..rows {
            let mut a = Vec::new();
            let mut b = Vec::new();
            shared.for_each_nonzero_in_row(row * cols, cols, |k, n| a.push((k, n)));
            dense.for_each_nonzero_in_row(row * cols, cols, |k, n| b.push((k, n)));
            assert_eq!(a, b, "row {row}");
        }
    }
}
