//! Deterministic seeding helpers.
//!
//! Every experiment in the repository is reproducible from a single `u64`
//! seed. Parallel code derives independent child streams with [`SeedStream`]
//! (a SplitMix64 walk) so that thread count does not change any one stream.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Create a seeded RNG. `StdRng` (the vendored xoshiro256++) is the
/// workspace-wide generator: statistically solid and `Send`, which the
/// parallel E-step needs.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 step; used to derive decorrelated child seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An infinite stream of decorrelated seeds derived from one root seed.
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// Start a stream at `root`.
    pub fn new(root: u64) -> Self {
        Self { state: root }
    }

    /// Next raw child seed.
    pub fn next_seed(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Next child RNG.
    pub fn next_rng(&mut self) -> StdRng {
        seeded_rng(self.next_seed())
    }
}

/// Derive the `index`-th child RNG of `root` (stateless convenience form).
pub fn child_rng(root: u64, index: u64) -> StdRng {
    let mut s = SeedStream::new(root ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    // Burn one step so that (root, 0) differs from seeded_rng(root).
    let seed = s.next_seed();
    seeded_rng(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn children_are_distinct() {
        let mut s = SeedStream::new(7);
        let s1 = s.next_seed();
        let s2 = s.next_seed();
        assert_ne!(s1, s2);
        let mut a = child_rng(7, 0);
        let mut b = child_rng(7, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn child_differs_from_root_stream() {
        let mut root = seeded_rng(7);
        let mut child = child_rng(7, 0);
        assert_ne!(root.gen::<u64>(), child.gen::<u64>());
    }
}
