//! Count planes over the big count matrices.
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
//! per-replica vectors.
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
//! * [`AtomicPlane`] — one packed array of `AtomicU32` cells, one per
//!   slot (4 bytes, the dense plane's footprint), shared by every
//!   worker and used by `LockFreeCounts` so workers publish increments
//!   directly during the sweep and the arrays vanish from the
//!   `CountDelta` logs entirely.
//!
//! [`PairCounts`] pairs a matrix plane with its marginal and is what
//! `CpdState` actually stores (once per pair); it selects the backend
//! at runtime (an enum, so `CpdState` stays object-safe and cloneable)
//! and counts the atomic read-modify-writes issued through each handle
//! for the trainer's contention diagnostics.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

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

/// The shared lock-free backend: one packed, reference-counted array of
/// `AtomicU32` cells, one cell per slot.
///
/// Every clone of an `AtomicPlane` aliases the same cells — a clone is
/// another handle onto the plane, not a copy of the tallies — so
/// cloning a `CpdState` whose counts are shared gives each worker
/// replica a *view* of one canonical plane: increments published by any
/// worker are visible (modulo relaxed-ordering lag) to all of them
/// mid-sweep, and exactly summed by the time the sweep barrier is
/// crossed.
#[derive(Clone)]
pub struct AtomicPlane {
    cells: Arc<[AtomicU32]>,
}

impl AtomicPlane {
    /// A plane holding `src`'s tallies, allocated once.
    pub fn from_dense(src: &[u32]) -> Self {
        Self {
            cells: src.iter().map(|&n| AtomicU32::new(n)).collect(),
        }
    }

    /// Bytes allocated for the tallies: 4 per slot, the same as a dense
    /// plane of the same length.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.cells)
    }

    /// `true` when `other` aliases the same cells.
    pub fn same_plane(&self, other: &AtomicPlane) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }
}

impl std::fmt::Debug for AtomicPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicPlane")
            .field("len", &self.cells.len())
            .finish()
    }
}

impl CountPlane for AtomicPlane {
    #[inline]
    fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Relaxed `fetch_add`; a negative `v` wraps through two's
    /// complement, which is exact as long as the running total never
    /// goes negative (the contract's underflow clause).
    #[inline]
    fn add(&mut self, i: usize, v: i32) {
        self.cells[i].fetch_add(v as u32, Ordering::Relaxed);
    }

    fn reset(&mut self) {
        for cell in self.cells.iter() {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<u32> {
        self.cells
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect()
    }

    fn copy_from(&mut self, src: &[u32]) {
        assert_eq!(src.len(), self.cells.len());
        for (cell, &n) in self.cells.iter().zip(src) {
            cell.store(n, Ordering::Relaxed);
        }
    }
}

/// One count pair — a row-major matrix plane plus its marginal — behind
/// a runtime-selected [`CountPlane`] backend. `CpdState` stores three:
/// word-topic (`n_zw`/`n_z`, rows are words), community-topic
/// (`n_cz`/`n_c`) and user-community (`n_uc`/`n_u`).
///
/// `Dense` is per-replica storage (cloning copies the tallies);
/// `Shared` is one atomic plane every clone aliases (cloning hands out
/// another view). The `Shared` variant also counts the atomic
/// read-modify-writes issued through *this* handle — each worker's
/// replica accumulates its own tally, which the runtime drains per
/// sweep into the trainer's contention diagnostics.
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
        /// since the last [`PairCounts::take_ops`].
        ops: u64,
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
            // its own ops tally — a clone is a new worker's handle, and
            // inheriting the tally would count those RMWs twice.
            Self::Shared { main, marginal, .. } => Self::Shared {
                main: main.clone(),
                marginal: marginal.clone(),
                ops: 0,
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

    /// Lift the pair onto shared atomic planes holding its current
    /// tallies, each plane allocated once straight from the dense
    /// vectors. A pair that is already shared comes back as another
    /// handle onto the same planes.
    pub fn to_shared(&self) -> Self {
        match self {
            Self::Dense { main, marginal } => Self::Shared {
                main: AtomicPlane::from_dense(main),
                marginal: AtomicPlane::from_dense(marginal),
                ops: 0,
            },
            Self::Shared { .. } => self.clone(),
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
            Self::Shared { main, ops, .. } => {
                main.add(i, v);
                *ops += 1;
            }
        }
    }

    /// Apply a signed increment to marginal slot `i`.
    #[inline]
    pub fn add_marginal(&mut self, i: usize, v: i32) {
        match self {
            Self::Dense { marginal, .. } => marginal.add(i, v),
            Self::Shared { marginal, ops, .. } => {
                marginal.add(i, v);
                *ops += 1;
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

    /// Bytes resident for this pair's tallies: 4 per slot on either
    /// backend. Shared handles alias one plane, so sum this over
    /// *distinct* planes, not per handle.
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
    /// plane every replica aliases with stale tallies, mid-sync.
    /// `CountRefresh::decide` never ships a snapshot for shared planes,
    /// so reaching this is a runtime-plumbing bug and fails loudly
    /// instead of corrupting.
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
    /// reporting the first divergent flat index, so a failure names the
    /// slot instead of "somewhere in the matrix".
    pub fn check_against(
        &self,
        name: &str,
        fresh_main: &[u32],
        fresh_marginal: &[u32],
    ) -> Result<(), String> {
        let (main, marginal) = match self {
            Self::Dense { main, marginal } => (
                first_divergence(main, fresh_main),
                first_divergence(marginal, fresh_marginal),
            ),
            Self::Shared { main, marginal, .. } => (
                first_divergence(&main.snapshot(), fresh_main),
                first_divergence(&marginal.snapshot(), fresh_marginal),
            ),
        };
        if let Some(i) = main {
            return Err(format!(
                "{name} counts diverged from assignments at flat index {i}"
            ));
        }
        if let Some(i) = marginal {
            return Err(format!(
                "{name} marginal diverged from assignments at index {i}"
            ));
        }
        Ok(())
    }

    /// Drain this handle's atomic read-modify-write tally (always zero
    /// for dense planes).
    pub fn take_ops(&mut self) -> u64 {
        match self {
            Self::Dense { .. } => 0,
            Self::Shared { ops, .. } => std::mem::take(ops),
        }
    }
}

/// First slot where `have` and `want` disagree; a length mismatch
/// diverges at the shorter length.
fn first_divergence(have: &[u32], want: &[u32]) -> Option<usize> {
    (have != want).then(|| {
        have.iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(have.len().min(want.len()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut a = AtomicPlane::from_dense(&[5, 6, 7]);
        let b = a.clone();
        assert!(a.same_plane(&b));
        a.add(0, -2);
        assert_eq!(b.get(0), 3);
        assert_eq!(b.snapshot(), vec![3, 6, 7]);
    }

    #[test]
    fn sparse_row_iteration_matches_dense_scan_on_both_backends() {
        // A skewed plane: 4 rows of 6 slots, most entries zero.
        let mut dense = PairCounts::dense(24, 4);
        for (i, v) in [(1usize, 3i32), (5, 1), (7, 9), (12, 2), (17, 4), (23, 1)] {
            dense.add(i, v);
        }
        let shared = dense.to_shared();
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
        let plane = AtomicPlane::from_dense(&[0; 8]);
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
        let mut shared = dense.to_shared();
        assert!(shared.is_shared());
        let mut view = shared.clone();
        view.add(4, 1);
        view.add_marginal(1, 1);
        assert_eq!(view.take_ops(), 2);
        assert_eq!(view.take_ops(), 0);
        // The increments landed on the canonical plane.
        assert_eq!(shared.get(4), 1);
        assert_eq!(shared.marginal(1), 1);
        assert_eq!(shared.take_ops(), 0, "other handles' ops are not ours");
    }

    #[test]
    fn to_shared_preserves_tallies() {
        let mut d = PairCounts::dense(4, 2);
        d.add(3, 7);
        d.add_marginal(1, 7);
        let s = d.to_shared();
        assert_eq!(s.snapshot(), d.snapshot());
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
        assert!(PairCounts::dense(1, 1).to_shared().take_dense().is_none());
    }

    #[test]
    fn check_against_pins_divergence_to_a_shard() {
        let d = PairCounts::dense(128, 2);
        let s = d.to_shared();
        s.check_against("n_cz", &[0; 128], &[0; 2]).unwrap();
        let mut view = s.clone();
        view.add(100, 1);
        view.add(117, 1);
        let err = s.check_against("n_cz", &[0; 128], &[0; 2]).unwrap_err();
        assert!(err.contains("flat index 100"), "{err}");
        let err = d.check_against("n_cz", &[0; 128], &[0, 1]).unwrap_err();
        assert!(err.contains("marginal") && err.contains("index 1"), "{err}");
    }

    #[test]
    fn mem_bytes_reports_both_backends() {
        let d = PairCounts::dense(100, 10);
        assert_eq!(d.mem_bytes(), 110 * 4);
        assert_eq!(d.to_shared().mem_bytes(), 110 * 4);
    }

    /// `for_each_nonzero_in_row` agrees between the dense and atomic
    /// backends once concurrent writers are quiesced: each worker
    /// mutates only its own disjoint slot range through its own handle,
    /// so after the join both backends (fed the same increments) must
    /// expose the same nonzero sets row by row.
    #[test]
    fn sparse_row_iteration_agrees_under_concurrent_owned_writes() {
        let rows = 16usize;
        let cols = 24usize;
        let n_workers = 4usize;
        let owned = |w: usize| w * rows * cols / n_workers..(w + 1) * rows * cols / n_workers;
        let shared = PairCounts::dense(rows * cols, rows).to_shared();
        // Concurrent phase: each worker bumps a pseudo-random subset of
        // its owned slots through its own handle.
        std::thread::scope(|scope| {
            for w in 0..n_workers {
                let mut h = shared.clone();
                scope.spawn(move || {
                    for round in 1..=3i32 {
                        for i in owned(w) {
                            if !(i * 31 + round as usize).is_multiple_of(3) {
                                h.add(i, round);
                            }
                        }
                    }
                });
            }
        });
        // Barrier: replay the same deterministic increments densely.
        let mut dense = PairCounts::dense(rows * cols, rows);
        for w in 0..n_workers {
            for round in 1..=3i32 {
                for i in owned(w) {
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
