//! The count pairs of the Gibbs sampler's state.
//!
//! The sampler's state is a handful of flat count arrays, each a
//! matrix plus its row/column marginal: the word-topic pair (`n_zw`,
//! stored word-major as `W × Z` so one word's `|Z|` topic counts are
//! contiguous; `n_z`: `Z`), the community-topic pair (`n_cz`: `C × Z`,
//! `n_c`: `C`) and the user-community pair (`n_uc`: `U × C`, `n_u`:
//! `U`). [`PairCounts`] holds one such pair as two plain vectors of
//! `u32` tallies, addressed by the row-major flat indices the
//! `CpdState` accessors use.
//!
//! Every replica owns its vectors outright: the serial sweep mutates
//! the canonical state, and each sharded worker mutates its own replica
//! and logs the moves in a `CountDelta` that the barrier fold replays
//! (see `parallel.rs`, "Parallel runtime"). A count is never shared
//! between threads, so its reads are plain loads and its increments
//! plain adds.

/// One count pair: a row-major matrix plus its marginal. `CpdState`
/// stores three — word-topic (`n_zw`/`n_z`, rows are words),
/// community-topic (`n_cz`/`n_c`) and user-community (`n_uc`/`n_u`).
#[derive(Debug, Clone, Default)]
pub struct PairCounts {
    /// Row-major matrix tallies.
    pub main: Vec<u32>,
    /// Marginal totals.
    pub marginal: Vec<u32>,
}

impl PairCounts {
    /// Zeroed planes of `main_len` matrix slots and `marginal_len`
    /// marginal slots.
    pub fn dense(main_len: usize, marginal_len: usize) -> Self {
        Self {
            main: vec![0; main_len],
            marginal: vec![0; marginal_len],
        }
    }

    /// Number of matrix slots.
    #[inline]
    pub fn len_main(&self) -> usize {
        self.main.len()
    }

    /// Current matrix tally at flat index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.main[i]
    }

    /// Current marginal tally at index `i`.
    #[inline]
    pub fn marginal(&self, i: usize) -> u32 {
        self.marginal[i]
    }

    /// Visit the nonzero entries of the contiguous slot range
    /// `start..start + len` — one row of a row-major plane — as
    /// `(offset_within_row, count)` pairs, in ascending offset order.
    ///
    /// This is the sparse-candidate primitive of the skew-aware
    /// sampler: community/user count rows are mostly zero on skewed
    /// corpora, so candidate weights are built as a constant prior-only
    /// baseline plus corrections at exactly these offsets.
    #[inline]
    pub fn for_each_nonzero_in_row(&self, start: usize, len: usize, mut f: impl FnMut(usize, u32)) {
        for (k, &n) in self.main[start..start + len].iter().enumerate() {
            if n != 0 {
                f(k, n);
            }
        }
    }

    /// Apply a signed increment to matrix slot `i`.
    #[inline]
    pub fn add(&mut self, i: usize, v: i32) {
        add_signed(&mut self.main[i], v);
    }

    /// Apply a signed increment to marginal slot `i`.
    #[inline]
    pub fn add_marginal(&mut self, i: usize, v: i32) {
        add_signed(&mut self.marginal[i], v);
    }

    /// Zero both planes.
    pub fn reset(&mut self) {
        self.main.fill(0);
        self.marginal.fill(0);
    }

    /// Copy both planes out (`(main, marginal)`).
    pub fn snapshot(&self) -> (Vec<u32>, Vec<u32>) {
        (self.main.clone(), self.marginal.clone())
    }

    /// Bytes resident for this pair's tallies: 4 per slot.
    pub fn mem_bytes(&self) -> usize {
        (self.main.len() + self.marginal.len()) * std::mem::size_of::<u32>()
    }

    /// Validate the pair against freshly rebuilt tallies, reporting the
    /// first divergent flat index, so a failure names the slot instead
    /// of "somewhere in the matrix".
    pub fn check_against(
        &self,
        name: &str,
        fresh_main: &[u32],
        fresh_marginal: &[u32],
    ) -> Result<(), String> {
        if let Some(i) = first_divergence(&self.main, fresh_main) {
            return Err(format!(
                "{name} counts diverged from assignments at flat index {i}"
            ));
        }
        if let Some(i) = first_divergence(&self.marginal, fresh_marginal) {
            return Err(format!(
                "{name} marginal diverged from assignments at index {i}"
            ));
        }
        Ok(())
    }
}

/// Add a signed increment to one tally; a count never goes negative.
#[inline]
pub(crate) fn add_signed(slot: &mut u32, v: i32) {
    debug_assert!(*slot as i64 + v as i64 >= 0, "count would go negative");
    *slot = slot.wrapping_add_signed(v);
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
        let mut p = PairCounts::dense(4, 2);
        p.add(1, 3);
        p.add(1, -1);
        p.add_marginal(0, 2);
        assert_eq!(p.get(1), 2);
        assert_eq!(p.snapshot(), (vec![0, 2, 0, 0], vec![2, 0]));
        p.reset();
        assert_eq!(p.snapshot(), (vec![0; 4], vec![0; 2]));
    }

    #[test]
    fn sparse_row_iteration_matches_dense_scan() {
        // A skewed plane: 4 rows of 6 slots, most entries zero.
        let mut plane = PairCounts::dense(24, 4);
        for (i, v) in [(1usize, 3i32), (5, 1), (7, 9), (12, 2), (17, 4), (23, 1)] {
            plane.add(i, v);
        }
        for row in 0..4 {
            let start = row * 6;
            let mut sparse: Vec<(usize, u32)> = Vec::new();
            plane.for_each_nonzero_in_row(start, 6, |k, n| sparse.push((k, n)));
            let full: Vec<(usize, u32)> = (0..6)
                .map(|k| (k, plane.get(start + k)))
                .filter(|&(_, n)| n != 0)
                .collect();
            assert_eq!(sparse, full, "row {row}");
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
    fn check_against_pins_divergence_to_a_shard() {
        let mut d = PairCounts::dense(128, 2);
        d.check_against("n_cz", &[0; 128], &[0; 2]).unwrap();
        d.add(100, 1);
        d.add(117, 1);
        let err = d.check_against("n_cz", &[0; 128], &[0; 2]).unwrap_err();
        assert!(err.contains("flat index 100"), "{err}");
        let err = PairCounts::dense(128, 2)
            .check_against("n_cz", &[0; 128], &[0, 1])
            .unwrap_err();
        assert!(err.contains("marginal") && err.contains("index 1"), "{err}");
    }

    #[test]
    fn mem_bytes_counts_four_bytes_a_slot() {
        assert_eq!(PairCounts::dense(100, 10).mem_bytes(), 110 * 4);
    }
}
