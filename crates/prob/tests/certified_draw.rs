//! The certified log-weight draw against the exact one it stands in for:
//! for approximate log weights within the declared `delta` of the exact
//! ones, `sample_log_index_certified` must return the index
//! `sample_log_index_mut` returns on the exact weights and leave the RNG
//! where that draw leaves it, whichever path it takes.

use cpd_prob::categorical::{
    prepare_log_weights, sample_log_index_certified, sample_log_index_mut, scan_prepared, DrawPath,
};
use cpd_prob::rng::seeded_rng;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// The generator's uniform is `k · 2⁻⁵³` for `k < 2⁵³`.
const GRID: u64 = 1 << 53;

/// A generator whose first word makes `gen::<f64>()` return
/// `first · 2⁻⁵³`; later words come from a seeded stream. It counts the
/// words taken, so two draws can be shown to leave it in one state.
#[derive(Clone)]
struct Placed {
    first: Option<u64>,
    rest: StdRng,
    taken: u64,
}

impl Placed {
    fn new(first: u64, seed: u64) -> Self {
        Self {
            first: Some(first.min(GRID - 1)),
            rest: seeded_rng(seed),
            taken: 0,
        }
    }
}

impl RngCore for Placed {
    fn next_u64(&mut self) -> u64 {
        self.taken += 1;
        match self.first.take() {
            Some(k) => k << 11,
            None => self.rest.next_u64(),
        }
    }
}

/// The exact draw's index for uniform `k · 2⁻⁵³` on `exact` log weights.
fn exact_index_at(exact: &[f64], k: u64) -> usize {
    let mut w = exact.to_vec();
    let total = prepare_log_weights(&mut w).expect("finite exact weights");
    scan_prepared(&w, total, k as f64 / GRID as f64)
}

/// Run the exact and the certified draw from clones of `rng` and
/// assert they agree on the index and on the generator's next word.
fn assert_same_draw<R: RngCore + Clone>(
    rng: &R,
    exact: &[f64],
    approx: &[f64],
    delta: f64,
    next: impl Fn(&mut R) -> u64,
) -> DrawPath {
    let mut exact_rng = rng.clone();
    let mut buf = exact.to_vec();
    let want = sample_log_index_mut(&mut exact_rng, &mut buf);

    let mut certified_rng = rng.clone();
    let mut buf = approx.to_vec();
    let (got, path) = sample_log_index_certified(&mut certified_rng, &mut buf, delta, |lw| {
        lw.copy_from_slice(exact)
    });
    assert_eq!(
        got, want,
        "{path:?} draw differs: delta {delta:e}, exact {exact:?}, approx {approx:?}"
    );
    assert_eq!(
        next(&mut certified_rng),
        next(&mut exact_rng),
        "the {path:?} draw left the generator elsewhere"
    );
    path
}

/// One random conditional: `n` log weights spread over `0 … −s` with
/// `s` up to 700, and approximate weights moved by up to `±delta`
/// (uniformly, or `+delta` before a random split and `−delta` after it,
/// the move that shifts a boundary most, or not at all). Returns the
/// exact and approximate weights and a `delta` that bounds every move.
fn conditional(gen: &mut StdRng) -> (Vec<f64>, Vec<f64>, f64) {
    let n = (257f64.powf(gen.gen::<f64>()) as usize).clamp(1, 256);
    let spread = 10f64.powf(gen.gen_range(-3.0..700f64.log10()));
    let exact: Vec<f64> = (0..n).map(|_| -spread * gen.gen::<f64>()).collect();
    let target = 10f64.powf(gen.gen_range(-12.0..-4.0));
    let split = gen.gen_range(0..=n);
    let mode = gen.gen_range(0..3u32);
    let approx: Vec<f64> = exact
        .iter()
        .enumerate()
        .map(|(i, &l)| match mode {
            0 => l + target * gen.gen_range(-1.0..1.0),
            1 if i < split => l + target,
            1 => l - target,
            _ => l,
        })
        .collect();
    // Rounding can carry a move past `target`; the declared bound
    // covers the moves as made (each difference is exact).
    let moved = exact
        .iter()
        .zip(&approx)
        .fold(0.0f64, |m, (&l, &a)| m.max((a - l).abs()));
    (exact, approx, target.max(moved))
}

#[test]
fn certified_draws_repeat_the_exact_draw_on_a_million_conditionals() {
    let mut gen = seeded_rng(0xCE27);
    let (mut certified, mut rescanned) = ([0u64; 2], [0u64; 2]);
    for case in 0..1_000_000u64 {
        let (exact, approx, delta) = conditional(&mut gen);
        let n = exact.len();

        // A random uniform.
        let rng = seeded_rng(case);
        let path = assert_same_draw(&rng, &exact, &approx, delta, |r| r.next_u64());

        // A uniform a few grid steps from a prefix boundary of the exact
        // weights (the last boundary is the total: uniforms near 1).
        let mut w = exact.clone();
        let total = prepare_log_weights(&mut w).expect("finite");
        let j = gen.gen_range(0..n);
        let prefix: f64 = w[..=j].iter().sum();
        let at = ((prefix / total) * GRID as f64) as u64;
        let k = (at as i64 + gen.gen_range(-4..=4i64)).clamp(0, GRID as i64 - 1) as u64;
        let placed = Placed::new(k, case);
        let boundary_path = assert_same_draw(&placed, &exact, &approx, delta, |r| {
            let word = r.next_u64();
            word ^ r.taken
        });

        for (slot, path) in [path, boundary_path].into_iter().enumerate() {
            match path {
                DrawPath::Certified => certified[slot] += 1,
                DrawPath::Exact => rescanned[slot] += 1,
            }
        }
    }
    // Random uniforms are nearly always decided by the approximate
    // weights and uniforms placed on boundaries nearly always need the
    // rescan; both kinds took both paths.
    assert!(
        rescanned[0] * 1000 < certified[0],
        "random: {rescanned:?} {certified:?}"
    );
    assert!(
        certified[1] * 1000 < rescanned[1],
        "boundary: {rescanned:?} {certified:?}"
    );
    assert!(
        rescanned[0] > 0 && certified[1] > 0,
        "{rescanned:?} {certified:?}"
    );
}

/// Many light weights, then one heavy weight, then a light tail: the
/// exact scan subtracts the light weights from `r·T̂ ≈ 1`, rounding at
/// each step, while both in-order sums stay small until the heavy
/// weight, so the scan's rounding is the widest term at the boundary
/// between the heavy weight and the tail, where the `delta` term
/// vanishes. Uniforms swept across that boundary must still draw
/// exactly.
#[test]
fn boundary_uniforms_behind_many_light_weights_draw_exactly() {
    let mut gen = seeded_rng(0xB0DA);
    let mut rescanned = 0;
    for case in 0..300u64 {
        let n = gen.gen_range(64..=256usize);
        let mut exact: Vec<f64> = (0..n - 2).map(|_| gen.gen_range(-22.0..-18.0)).collect();
        exact.push(gen.gen_range(-1e-3..0.0));
        exact.push(gen.gen_range(-31.0..-28.0));
        let delta = 1e-12;
        let approx: Vec<f64> = exact
            .iter()
            .map(|&l| l + delta * gen.gen_range(-0.5..0.5))
            .collect();
        // The first grid uniform at which the exact draw takes the tail.
        let heavy = n - 2;
        assert_eq!(exact_index_at(&exact, GRID - 1), n - 1, "tail unreachable");
        let (mut lo, mut hi) = (0u64, GRID - 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if exact_index_at(&exact, mid) > heavy {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        for k in hi - 24..=hi + 24 {
            let placed = Placed::new(k, case);
            let path = assert_same_draw(&placed, &exact, &approx, delta, |r| r.taken);
            rescanned += usize::from(path == DrawPath::Exact);
        }
    }
    assert!(rescanned > 0);
}

#[test]
fn a_uniform_on_a_boundary_rescans_the_exact_weights() {
    // Two equal weights and r = 1/2: r·Â lands on the first prefix sum,
    // which no error bound separates from it.
    let exact = [0.0f64, 0.0];
    let approx = exact;
    let mut calls = 0;
    let mut rng = Placed::new(GRID / 2, 1);
    let mut buf = approx;
    let (k, path) = sample_log_index_certified(&mut rng, &mut buf, 1e-9, |lw| {
        calls += 1;
        lw.copy_from_slice(&exact);
    });
    assert_eq!((path, calls, rng.taken), (DrawPath::Exact, 1, 1));
    assert_eq!(k, exact_index_at(&exact, GRID / 2));

    // Away from the boundary the exact weights are never computed.
    let mut rng = Placed::new(GRID / 8, 1);
    let mut buf = approx;
    let (k, path) = sample_log_index_certified(&mut rng, &mut buf, 1e-9, |_| {
        unreachable!("a uniform far from every boundary needs no rescan")
    });
    assert_eq!((k, path, rng.taken), (0, DrawPath::Certified, 1));
}

#[test]
fn unusable_inputs_run_the_exact_draw_before_any_uniform() {
    // An all `-inf` exact conditional draws with `gen_range`, not
    // `gen::<f64>()`: only running it first keeps the stream.
    let exact = [f64::NEG_INFINITY; 3];
    for (approx, delta) in [
        ([f64::NEG_INFINITY; 3], 0.5),
        ([0.0, f64::NAN, 0.0], 0.5),
        ([0.0, 0.0, f64::INFINITY], 0.5),
        ([0.0; 3], f64::INFINITY),
        ([0.0; 3], f64::NAN),
        ([0.0; 3], -1.0),
    ] {
        for seed in 0..50 {
            let rng = seeded_rng(seed);
            let path = assert_same_draw(&rng, &exact, &approx, delta, |r| r.next_u64());
            assert_eq!(path, DrawPath::Exact);
        }
    }
}
