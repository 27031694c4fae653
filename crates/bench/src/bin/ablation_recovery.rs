//! **Extension experiment** (DESIGN.md §6) — ground-truth recovery: on
//! synthetic data the planted communities and diffusion profile are
//! known, so detection and profiling quality can be measured *directly*
//! (NMI against planted communities; Spearman correlation of recovered
//! vs planted topic-aggregated `η`), a validation the original paper
//! could not run.
//!
//! Usage: `ablation_recovery [tiny|small|medium]`.

use cpd_bench::{datasets, fit_method, print_table, scale_from_args, MethodKind};
use cpd_datagen::generate;
use cpd_eval::nmi;
use cpd_prob::stats::spearman;

const USAGE: &str = "usage: ablation_recovery [tiny|small|medium]";

fn main() {
    let scale = scale_from_args(USAGE);
    let methods = [
        MethodKind::Pmtlm,
        MethodKind::Crm,
        MethodKind::Cold,
        MethodKind::CpdNoJoint,
        MethodKind::CpdNoHeterogeneity,
        MethodKind::Cpd,
    ];
    for (ds_name, gen) in datasets(scale) {
        let (g, truth) = generate(&gen);
        let mut rows = Vec::new();
        for kind in methods {
            let fitted = fit_method(kind, &g, gen.n_communities, gen.n_topics, 71);
            let Some(pi) = fitted.memberships() else {
                continue;
            };
            let detected: Vec<usize> = pi
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .map(|(c, _)| c)
                        .unwrap_or(0)
                })
                .collect();
            let nmi_score = nmi(&detected, &truth.dominant_community);

            // Eta recovery for the CPD-family methods.
            let eta_corr = match &fitted {
                cpd_bench::FittedMethod::Cpd(m) => Some(eta_correlation(
                    m.model(),
                    &detected,
                    &truth,
                    gen.n_communities,
                    gen.n_topics,
                )),
                cpd_bench::FittedMethod::Cold(m) => Some(eta_correlation(
                    m.model(),
                    &detected,
                    &truth,
                    gen.n_communities,
                    gen.n_topics,
                )),
                _ => None,
            };
            rows.push(vec![
                kind.name().to_string(),
                format!("{nmi_score:.3}"),
                eta_corr.map_or("-".to_string(), |c| format!("{c:.3}")),
            ]);
        }
        print_table(
            &format!("Recovery vs planted ground truth ({ds_name})"),
            &["method", "NMI(communities)", "Spearman(eta)"],
            &rows,
        );
    }
    println!("\nExpected: Ours recovers communities at least as well as every baseline and its");
    println!("diffusion profile correlates positively with the planted eta.");
}

fn eta_correlation(
    model: &cpd_core::CpdModel,
    detected: &[usize],
    truth: &cpd_datagen::GroundTruth,
    c_n: usize,
    z_n: usize,
) -> f64 {
    // Map detected labels to planted labels by user overlap.
    let mut overlap = vec![vec![0usize; c_n]; c_n];
    for (u, &d) in detected.iter().enumerate() {
        overlap[d][truth.dominant_community[u]] += 1;
    }
    let mapping: Vec<usize> = (0..c_n)
        .map(|d| {
            overlap[d]
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(t, _)| t)
                .unwrap()
        })
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..c_n {
        for c2 in 0..c_n {
            xs.push((0..z_n).map(|zz| model.eta.at(c, c2, zz)).sum::<f64>());
            ys.push(
                (0..z_n)
                    .map(|zz| truth.eta_at(mapping[c], mapping[c2], zz))
                    .sum::<f64>(),
            );
        }
    }
    spearman(&xs, &ys)
}
