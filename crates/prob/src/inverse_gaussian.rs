//! Inverse-Gaussian draws, CDF, and the right-truncated variant used by
//! the Pólya-Gamma sampler (Polson–Scott–Windle, 2013, appendix).

use crate::exponential::sample_exponential;
use crate::normal::standard_normal;
use crate::special::normal_cdf;
use rand::Rng;

/// Sample `IG(mu, lambda)` via Michael–Schucany–Haas.
pub fn sample_inverse_gaussian<R: Rng + ?Sized>(rng: &mut R, mu: f64, lambda: f64) -> f64 {
    debug_assert!(mu > 0.0 && lambda > 0.0);
    let nu = standard_normal(rng);
    let y = nu * nu;
    let x = mu + mu * mu * y / (2.0 * lambda)
        - mu / (2.0 * lambda) * (4.0 * mu * lambda * y + mu * mu * y * y).sqrt();
    let u: f64 = rng.gen();
    if u <= mu / (mu + x) {
        x
    } else {
        mu * mu / x
    }
}

/// CDF of `IG(mu, lambda)` at `x`.
pub fn inverse_gaussian_cdf(x: f64, mu: f64, lambda: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let s = (lambda / x).sqrt();
    let a = normal_cdf(s * (x / mu - 1.0));
    // exp(2 lambda / mu) can overflow; pair it with the tiny normal tail in
    // log space.
    let tail_arg = -s * (x / mu + 1.0);
    let tail = normal_cdf(tail_arg);
    let b = if tail <= 0.0 {
        0.0
    } else {
        (2.0 * lambda / mu + tail.ln()).exp()
    };
    (a + b).clamp(0.0, 1.0)
}

/// Sample `IG(1/z, 1)` truncated to `(0, ceil]`.
///
/// Two regimes, as in the Pólya-Gamma paper's rejection sampler:
/// * `1/z > ceil`: draw from the `z = 0` (one-sided stable) tail proposal via
///   paired exponentials, accept with `exp(-z^2 x / 2)`;
/// * otherwise: draw `IG(1/z, 1)` until it lands inside the truncation
///   (acceptance probability is large in this regime).
///
/// `#[inline]` keeps it inside the Pólya-Gamma draw whose proposals it
/// makes (one draw per link per pass in a fit): left to the inliner's
/// heuristics, whether it is inlined there flips with unrelated edits to
/// the crate that instantiates the sampler.
#[inline]
pub fn sample_truncated_inverse_gaussian<R: Rng + ?Sized>(rng: &mut R, z: f64, ceil: f64) -> f64 {
    debug_assert!(ceil > 0.0 && z >= 0.0);
    let mu = if z > 0.0 { 1.0 / z } else { f64::INFINITY };
    if mu > ceil {
        loop {
            // Proposal: X = ceil / (1 + ceil * E)^2 with E, E' ~ Exp(1)
            // constrained by E^2 <= 2 E' / ceil.
            let x = loop {
                let e1 = sample_exponential(rng, 1.0);
                let e2 = sample_exponential(rng, 1.0);
                if e1 * e1 <= 2.0 * e2 / ceil {
                    break ceil / ((1.0 + ceil * e1) * (1.0 + ceil * e1));
                }
            };
            let alpha = (-0.5 * z * z * x).exp();
            if rng.gen::<f64>() <= alpha {
                return x;
            }
        }
    } else {
        loop {
            let x = sample_inverse_gaussian(rng, mu, 1.0);
            if x <= ceil {
                return x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::RunningStats;

    #[test]
    fn ig_moments() {
        let mut rng = seeded_rng(61);
        for &(mu, lambda) in &[(1.0, 1.0), (0.5, 2.0), (3.0, 1.5)] {
            let mut st = RunningStats::new();
            for _ in 0..60_000 {
                st.push(sample_inverse_gaussian(&mut rng, mu, lambda));
            }
            let var = mu * mu * mu / lambda;
            assert!(
                (st.mean() - mu).abs() < 0.05 * mu.max(1.0),
                "mu {mu}: mean {}",
                st.mean()
            );
            assert!(
                (st.variance() - var).abs() < 0.2 * var.max(1.0),
                "mu {mu}: var {}",
                st.variance()
            );
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut last = 0.0;
        for i in 1..100 {
            let x = i as f64 * 0.1;
            let c = inverse_gaussian_cdf(x, 1.0, 1.0);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= last, "non-monotone at {x}");
            last = c;
        }
        assert!(inverse_gaussian_cdf(50.0, 1.0, 1.0) > 0.999);
    }

    #[test]
    fn cdf_matches_empirical() {
        let mut rng = seeded_rng(62);
        let (mu, lambda, x0) = (0.8, 1.0, 0.64);
        let n = 60_000;
        let below = (0..n)
            .filter(|_| sample_inverse_gaussian(&mut rng, mu, lambda) <= x0)
            .count();
        let emp = below as f64 / n as f64;
        let ana = inverse_gaussian_cdf(x0, mu, lambda);
        assert!((emp - ana).abs() < 0.01, "emp {emp} ana {ana}");
    }

    #[test]
    fn truncated_never_exceeds_ceiling() {
        let mut rng = seeded_rng(63);
        for &z in &[0.0, 0.1, 1.0, 3.0, 20.0] {
            for _ in 0..500 {
                let x = sample_truncated_inverse_gaussian(&mut rng, z, 0.64);
                assert!(x > 0.0 && x <= 0.64, "z {z}: {x}");
            }
        }
    }

    #[test]
    fn truncated_matches_conditional_distribution() {
        // Both regimes must agree with naive rejection from the parent IG.
        let mut rng = seeded_rng(64);
        let (z, t) = (2.5, 0.64); // mu = 0.4 < t: regime two
        let mut st_fast = RunningStats::new();
        for _ in 0..30_000 {
            st_fast.push(sample_truncated_inverse_gaussian(&mut rng, z, t));
        }
        let mut st_naive = RunningStats::new();
        let mut n = 0;
        while n < 30_000 {
            let x = sample_inverse_gaussian(&mut rng, 1.0 / z, 1.0);
            if x <= t {
                st_naive.push(x);
                n += 1;
            }
        }
        assert!(
            (st_fast.mean() - st_naive.mean()).abs() < 0.01,
            "fast {} naive {}",
            st_fast.mean(),
            st_naive.mean()
        );
    }
}
