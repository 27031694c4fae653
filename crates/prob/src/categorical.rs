//! Categorical sampling: one-shot linear scan, cumulative table for
//! repeated draws, and an alias table (Vose) for draw-heavy loops.

use rand::Rng;

/// Sample an index proportional to non-negative `weights` (not necessarily
/// normalised). All-zero weights degrade to uniform. Panics on empty input.
pub fn sample_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "sample_index on empty weights");
    let total: f64 = weights
        .iter()
        .copied()
        .filter(|w| w.is_finite() && *w > 0.0)
        .sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w.is_finite() && w > 0.0 {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
    }
    // Floating point slack: return last positive index.
    weights
        .iter()
        .rposition(|&w| w.is_finite() && w > 0.0)
        .unwrap_or(weights.len() - 1)
}

/// Sample an index proportional to `exp(log_weights)`, computed stably.
///
/// Read-only variant: exponentiates twice (once for the total, once for
/// the scan). Hot loops that own the buffer should prefer
/// [`sample_log_index_mut`], which is draw-for-draw identical but makes
/// a single `exp` pass.
pub fn sample_log_index<R: Rng + ?Sized>(rng: &mut R, log_weights: &[f64]) -> usize {
    assert!(!log_weights.is_empty());
    let m = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return rng.gen_range(0..log_weights.len());
    }
    let total: f64 = log_weights.iter().map(|&lw| (lw - m).exp()).sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, &lw) in log_weights.iter().enumerate() {
        u -= (lw - m).exp();
        if u <= 0.0 {
            return i;
        }
    }
    // Floating point slack: return the last index with positive shifted
    // weight (a `-inf` tail entry has zero mass and must not be drawn).
    log_weights
        .iter()
        .rposition(|&lw| (lw - m).exp() > 0.0)
        .unwrap_or(log_weights.len() - 1)
}

/// Exponentiate `lw` in place after shifting by its maximum, returning the
/// total mass — the shared single-pass core of the weight-to-sample
/// pipeline (`query → exp_shift → normalise/draw`). The result is
/// proportional to `exp(lw)` with the largest finite entry exactly 1;
/// with no finite entry the buffer degenerates to NaN exactly as the
/// historical two-step helpers did, so guarded callers must check the
/// maximum first.
pub fn exp_shift_total(lw: &mut [f64]) -> f64 {
    let m = lw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    exp_shift_by(lw, m)
}

/// `lw ← exp(lw − m)` in place, returning the sum in index order.
#[inline]
fn exp_shift_by(lw: &mut [f64], m: f64) -> f64 {
    let mut total = 0.0;
    for l in lw.iter_mut() {
        *l = (*l - m).exp();
        total += *l;
    }
    total
}

/// Sample an index proportional to `exp(log_weights)`, overwriting the
/// buffer with the shifted weights. One `exp` per entry instead of the
/// two made by [`sample_log_index`]; the maximum, the summation order,
/// the single uniform draw, and the subtraction scan are all identical,
/// so for any RNG state this returns the same index as the read-only
/// variant.
///
/// It is [`prepare_log_weights`] followed by [`draw_prepared`]: a
/// caller that draws repeatedly from one conditional can keep the
/// prepared buffer and its total and call only the second half, with
/// the same draw for the same RNG state.
pub fn sample_log_index_mut<R: Rng + ?Sized>(rng: &mut R, log_weights: &mut [f64]) -> usize {
    assert!(!log_weights.is_empty());
    let total = prepare_log_weights(log_weights);
    draw_prepared(rng, log_weights, total)
}

/// The first half of [`sample_log_index_mut`]: shift `log_weights` by
/// their maximum and exponentiate them in place, returning the total
/// mass in index order. With no finite maximum (every entry `-inf`, or
/// one `+inf`) the buffer is left as it was and the result is `None`,
/// which [`draw_prepared`] answers with a uniform index.
#[inline]
pub fn prepare_log_weights(log_weights: &mut [f64]) -> Option<f64> {
    let m = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    m.is_finite().then(|| exp_shift_by(log_weights, m))
}

/// The second half of [`sample_log_index_mut`]: one uniform draw
/// scanned against `weights`, which [`prepare_log_weights`] produced
/// together with `total`. Reading the weights only, it can be called
/// any number of times on one prepared buffer.
#[inline]
pub fn draw_prepared<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: Option<f64>) -> usize {
    match total {
        Some(total) => scan_prepared(weights, total, rng.gen::<f64>()),
        None => rng.gen_range(0..weights.len()),
    }
}

/// The scan of [`draw_prepared`] for a given uniform `r ∈ [0, 1)`:
/// subtract the prepared `weights` in index order from `r · total` and
/// return the first index at which the remainder is no longer positive.
#[inline]
pub fn scan_prepared(weights: &[f64], total: f64, r: f64) -> usize {
    let mut u = r * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    // Same floating-point-slack guard as `sample_log_index`.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .unwrap_or(weights.len() - 1)
}

/// Which weights decided a [`sample_log_index_certified`] draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawPath {
    /// The approximate weights, under the certificate.
    Certified,
    /// The exact weights, computed and scanned.
    Exact,
}

/// Unit roundoff of `f64`: half an ulp of 1, so `fl(x) = x(1 + δ)` with
/// `|δ| ≤ UNIT_ROUNDOFF` for every rounded operation that stays normal.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Draw the index [`sample_log_index_mut`] would draw from the exact
/// log weights, given approximate ones in `log_weights` within `delta`
/// of them, and `exact`, which overwrites the buffer with the exact log
/// weights. The exact weights are computed only when the approximate
/// ones cannot decide the draw.
///
/// The exact draw reads its weights only through which prefix sum its
/// one uniform `r` falls under. So the approximate weights decide it
/// unless `r` lands within their error of a prefix boundary, and there
/// `exact` is called and scanned ([`scan_prepared`]) with the same `r`.
/// The RNG advances exactly as in the exact draw, which is also run,
/// before any uniform is taken, when `delta` is negative or not finite
/// or an approximate weight is not finite.
///
/// # The certificate
///
/// Let `l_i` be the exact log weights, `a_i` the approximate ones with
/// `|a_i − l_i| ≤ Δ`, `u = 2⁻⁵³` the unit roundoff, and `n` the length.
/// Assume `exp` is within one ulp of `eˣ`, as glibc's and musl's are.
/// The exact draw computes `ŵ_i = exp(l_i − m)` with `m = max l`, the
/// in-order sum `T̂`, `s₋₁ = r·T̂`, and `s_j = s_{j−1} − ŵ_j`, all
/// rounded, and returns the first `j` with `s_j ≤ 0`. This function
/// computes the same from `a_i`: `v̂_i`, the prefix sums `Â_j`
/// (`Â = Â_{n−1}`), `G = Σ_j Â_j` and `t = r·Â`, and takes the first
/// `k` with `Â_k ≥ t`. It returns
/// `k` when `Â_k − t ≥ M(k)` and, for `k > 0`, `t − Â_{k−1} > M(k−1)`:
/// then `s_k ≤ 0 < s_{k−1}`, so the exact draw returns `k` too. With
/// `D = Δ + 1500u`, certifying only when `D ≤ 1`,
///
/// ```text
/// M(j) = grow · ( (j+1)·u·Â                       exact subtraction scan
///               + 2.02·u·t                        r·T̂ and r·Â
///               + (2 + e^{2D})·u·G                 both in-order sums
///               + (e^{2D} − 1)·(Â_j + E)(Â − Â_j + 2E)/(Â − E) )
/// E = u·G·grow,   grow = 1 + 16(n+1)u
/// ```
///
/// where each term bounds, in units of `Â`, one way the exact path's
/// decision `s_j ≤ 0`, that is `r(1 + ·)T̂ − Σ_{i≤j} ŵ_i + err ≤ 0`,
/// can differ from `t ≤ Â_j`:
///
/// * *Exact subtraction scan.* Each of the `j + 1` subtractions rounds
///   by at most `u` times an operand, and operands are at most `T̂`.
/// * *Products.* `r·T̂` and `r·Â` each round by at most `u`.
/// * *Sums.* In-order summation errs by at most `u·Σ_j (prefix_j)`;
///   this path's prefix sums give `G` for its own `Â_j` and `Â`, and
///   the exact path's prefix sums are within `e^{2D}` of them.
/// * *Weights.* In either path `exp(fl(x))` is `eˣ·e^{±747.1u}` plus at
///   most the subnormal ulp `2⁻¹⁰⁷⁴`: for `x ≥ −745` the shift
///   `fl(l_i − m)` errs by `u·|x|` and `exp` by one ulp, and below both
///   values are under `2⁻¹⁰⁷⁴`. The shifts differ by `m − max a`, a
///   factor common to all weights, so `ŵ_i` is a common factor times
///   `v̂_i·e^{±D}` up to `2⁻¹⁰⁶⁹` of underflow slack. Moving every
///   weight by `e^{±D}` moves a normalised prefix `q` by at most
///   `(e^{2D} − 1)·q(1 − q)`: the last term, with this path's own sum
///   errors `E` added. It vanishes where a boundary has almost no mass
///   on one side, which leaves the rounding terms.
///
/// `grow` covers the second-order products of these terms (each at most
/// `8(n+1)u` of a first-order one when `D ≤ 1`), the rounding in
/// evaluating `M` and `Â_k − t`, and the underflow slack, which is below
/// `2⁻¹⁰⁰⁰` of any `M` (every `M ≥ u·Â ≥ u`).
///
/// # Panics
///
/// On empty `log_weights`, and when a rescan finds no finite exact
/// weight although the approximate ones are finite, which breaks the
/// `delta` bound.
pub fn sample_log_index_certified<R: Rng + ?Sized>(
    rng: &mut R,
    log_weights: &mut [f64],
    delta: f64,
    exact: impl FnOnce(&mut [f64]),
) -> (usize, DrawPath) {
    assert!(!log_weights.is_empty());
    let mut m = f64::NEG_INFINITY;
    let mut finite = delta.is_finite() && delta >= 0.0;
    for &a in log_weights.iter() {
        finite &= a.is_finite();
        m = m.max(a);
    }
    if !finite {
        exact(log_weights);
        return (sample_log_index_mut(rng, log_weights), DrawPath::Exact);
    }
    // The approximate weights' prefix sums, in place, and their sum.
    let (mut total, mut prefix_total) = (0.0, 0.0);
    for a in log_weights.iter_mut() {
        total += (*a - m).exp();
        *a = total;
        prefix_total += total;
    }
    let r: f64 = rng.gen();
    if let Some(k) = certify(log_weights, total, prefix_total, r, delta) {
        return (k, DrawPath::Certified);
    }
    exact(log_weights);
    let total = prepare_log_weights(log_weights)
        .expect("exact log weights within a finite delta of finite ones have a finite maximum");
    (scan_prepared(log_weights, total, r), DrawPath::Exact)
}

/// The index `r` selects from `prefix` (the prefix sums of the
/// approximate weights, `total` the last and `prefix_total` their sum),
/// if the certificate of [`sample_log_index_certified`] shows the exact
/// draw selects it too.
#[inline]
fn certify(prefix: &[f64], total: f64, prefix_total: f64, r: f64, delta: f64) -> Option<usize> {
    let u = UNIT_ROUNDOFF;
    let d = delta + 1500.0 * u;
    if d > 1.0 {
        return None;
    }
    let grow = 1.0 + 16.0 * (prefix.len() + 1) as f64 * u;
    let t = r * total;
    let k = prefix.partition_point(|&p| p < t);
    let e2d = (2.0 * d).exp();
    let spread = (2.0 * d).exp_m1();
    let sums = (2.0 + e2d) * u * prefix_total;
    let own = u * prefix_total * grow;
    let margin = |j: usize| {
        let a_j = prefix[j];
        let mix = spread * (a_j + own) * ((total - a_j) + 2.0 * own) / (total - own);
        grow * ((j + 1) as f64 * u * total + 2.02 * u * t + sums + mix)
    };
    let above = k == 0 || t - prefix[k - 1] > margin(k - 1);
    (above && prefix[k] - t >= margin(k)).then_some(k)
}

/// Precomputed cumulative weights; O(log n) draws by binary search.
#[derive(Debug, Clone)]
pub struct CumulativeTable {
    cum: Vec<f64>,
}

impl CumulativeTable {
    /// Build from non-negative weights. Panics if empty or the total is zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            debug_assert!(w >= 0.0 && w.is_finite());
            acc += w.max(0.0);
            cum.push(acc);
        }
        assert!(acc > 0.0, "CumulativeTable requires positive total weight");
        Self { cum }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True if the table has no categories (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Draw an index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("non-empty");
        let u = rng.gen::<f64>() * total;
        match self
            .cum
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => (i + 1).min(self.cum.len() - 1),
            Err(i) => i.min(self.cum.len() - 1),
        }
    }
}

/// Vose alias table: O(1) draws after O(n) construction.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights. Panics if empty or total is zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "AliasTable requires positive total weight");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residuals are 1 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw an index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn empirical_freqs(mut draw: impl FnMut() -> usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0usize; k];
        for _ in 0..n {
            c[draw()] += 1;
        }
        c.into_iter().map(|x| x as f64 / n as f64).collect()
    }

    #[test]
    fn linear_scan_respects_weights() {
        let mut rng = seeded_rng(51);
        let w = [1.0, 0.0, 3.0];
        let f = empirical_freqs(|| sample_index(&mut rng, &w), 3, 40_000);
        assert!((f[0] - 0.25).abs() < 0.01);
        assert_eq!(f[1], 0.0);
        assert!((f[2] - 0.75).abs() < 0.01);
    }

    #[test]
    fn log_weights_agree_with_linear() {
        let mut rng = seeded_rng(52);
        let lw = [0.0f64, 1.0, -1.0];
        let w: Vec<f64> = lw.iter().map(|x| x.exp()).collect();
        let total: f64 = w.iter().sum();
        let f = empirical_freqs(|| sample_log_index(&mut rng, &lw), 3, 60_000);
        for i in 0..3 {
            assert!((f[i] - w[i] / total).abs() < 0.01, "dim {i}");
        }
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let mut rng = seeded_rng(53);
        let f = empirical_freqs(|| sample_index(&mut rng, &[0.0, 0.0]), 2, 10_000);
        assert!((f[0] - 0.5).abs() < 0.03);
    }

    #[test]
    fn cumulative_table_matches_weights() {
        let mut rng = seeded_rng(54);
        let w = [2.0, 1.0, 1.0, 4.0];
        let t = CumulativeTable::new(&w);
        let f = empirical_freqs(|| t.sample(&mut rng), 4, 60_000);
        for i in 0..4 {
            assert!((f[i] - w[i] / 8.0).abs() < 0.01, "dim {i}: {}", f[i]);
        }
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut rng = seeded_rng(55);
        let w = [0.1, 0.2, 0.3, 0.4];
        let t = AliasTable::new(&w);
        let f = empirical_freqs(|| t.sample(&mut rng), 4, 80_000);
        for i in 0..4 {
            assert!((f[i] - w[i]).abs() < 0.01, "dim {i}: {}", f[i]);
        }
    }

    #[test]
    fn log_sampler_never_draws_minus_inf_tail() {
        // Historically the fallback returned the *last* index even when
        // that entry carried zero mass; pin the fix on a weight vector
        // whose tail is -inf.
        let lw = [0.0f64, -0.5, f64::NEG_INFINITY, f64::NEG_INFINITY];
        let mut rng = seeded_rng(57);
        for _ in 0..20_000 {
            let i = sample_log_index(&mut rng, &lw);
            assert!(i < 2, "drew zero-probability index {i}");
            let mut buf = lw;
            let j = sample_log_index_mut(&mut rng, &mut buf);
            assert!(j < 2, "mut variant drew zero-probability index {j}");
        }
    }

    #[test]
    fn mut_log_sampler_is_draw_identical_to_readonly() {
        let mut rng_a = seeded_rng(58);
        let mut rng_b = seeded_rng(58);
        let mut gen = seeded_rng(59);
        use rand::Rng;
        for len in 1usize..40 {
            let lw: Vec<f64> = (0..len)
                .map(|i| {
                    if gen.gen::<f64>() < 0.1 {
                        f64::NEG_INFINITY
                    } else {
                        gen.gen::<f64>() * 30.0 - 15.0 + i as f64
                    }
                })
                .collect();
            let a = sample_log_index(&mut rng_a, &lw);
            let mut buf = lw.clone();
            let b = sample_log_index_mut(&mut rng_b, &mut buf);
            assert_eq!(a, b, "draws diverged on {lw:?}");
        }
    }

    #[test]
    fn prepared_draws_repeat_the_one_shot_sampler() {
        // One prepared buffer drawn from many times gives the draws a
        // fresh `sample_log_index_mut` call per draw gives, including
        // the uniform fallback of an all `-inf` buffer.
        let mut gen = seeded_rng(60);
        for len in 1usize..24 {
            let lw: Vec<f64> = if len % 7 == 0 {
                vec![f64::NEG_INFINITY; len]
            } else {
                (0..len)
                    .map(|_| {
                        if gen.gen::<f64>() < 0.1 {
                            f64::NEG_INFINITY
                        } else {
                            gen.gen::<f64>() * 30.0 - 15.0
                        }
                    })
                    .collect()
            };
            let mut prepared = lw.clone();
            let total = prepare_log_weights(&mut prepared);
            let (mut rng_a, mut rng_b) = (seeded_rng(61 + len as u64), seeded_rng(61 + len as u64));
            for _ in 0..50 {
                let mut buf = lw.clone();
                let a = sample_log_index_mut(&mut rng_a, &mut buf);
                assert_eq!(a, draw_prepared(&mut rng_b, &prepared, total), "{lw:?}");
                assert_eq!(buf, prepared);
            }
        }
    }

    #[test]
    fn exp_shift_total_matches_two_step() {
        let mut lw = vec![-3.0f64, 0.0, 2.5, -1.0];
        let reference: Vec<f64> = lw.iter().map(|&l| (l - 2.5).exp()).collect();
        let expect_total: f64 = reference.iter().sum();
        let total = exp_shift_total(&mut lw);
        assert_eq!(lw, reference);
        assert_eq!(total, expect_total);
    }

    #[test]
    fn alias_table_single_category() {
        let mut rng = seeded_rng(56);
        let t = AliasTable::new(&[5.0]);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }
}
