//! **Fig. 9** — community detection quality against the baselines:
//! conductance (top-5 membership, lower better) and friendship-link
//! prediction AUC (10%-holdout, higher better) for PMTLM, CRM, COLD and
//! CPD, across the community sweep, on both datasets.
//!
//! Usage: `fig9_detection [tiny|small|medium] [folds]`.

use cpd_bench::{
    community_sweep, datasets, fit_method, fmt_metric, friendship_auc, print_table,
    scale_from_args, MethodKind,
};
use cpd_datagen::generate;
use cpd_eval::average_conductance;
use social_graph::split::{friendship_holdout, k_fold_indices};

const USAGE: &str = "usage: fig9_detection [tiny|small|medium] [folds]";

fn main() {
    let scale = scale_from_args(USAGE);
    let folds = cpd_bench::folds_from_args(2, USAGE);
    let methods = [
        MethodKind::Pmtlm,
        MethodKind::Crm,
        MethodKind::Cold,
        MethodKind::Cpd,
    ];
    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        let mut cond_rows = Vec::new();
        let mut auc_rows = Vec::new();
        for &c in &community_sweep(scale) {
            let z = gen.n_topics;
            let mut cond = vec![format!("{c}")];
            for kind in methods {
                let fitted = fit_method(kind, &g, c, z, 21);
                let v = fitted
                    .memberships()
                    .and_then(|pi| average_conductance(&g, pi, 5));
                cond.push(fmt_metric(v));
            }
            cond_rows.push(cond);

            let f_folds = k_fold_indices(g.friendships().len(), folds, 21);
            let mut aucs = vec![format!("{c}")];
            for kind in methods {
                let mut scores = Vec::new();
                for fold in 0..folds {
                    let h = friendship_holdout(&g, &f_folds, fold);
                    let fitted = fit_method(kind, &h.train, c, z, 21 + fold as u64);
                    if let Some(scorer) = fitted.friendship_scorer() {
                        if let Some(a) = friendship_auc(&g, &h.held_out, scorer, 31 + fold as u64) {
                            scores.push(a);
                        }
                    }
                }
                let m = if scores.is_empty() {
                    None
                } else {
                    Some(scores.iter().sum::<f64>() / scores.len() as f64)
                };
                aucs.push(fmt_metric(m));
            }
            auc_rows.push(aucs);
        }
        print_table(
            &format!("Fig. 9 ({ds_name}): community detection — conductance (lower is better)"),
            &["|C|", "PMTLM", "CRM", "COLD", "Ours"],
            &cond_rows,
        );
        print_table(
            &format!("Fig. 9 ({ds_name}): friendship link prediction — AUC (higher is better)"),
            &["|C|", "PMTLM", "CRM", "COLD", "Ours"],
            &auc_rows,
        );
    }
    println!("\nShape check vs paper: Ours has the lowest conductance and the highest friendship");
    println!("AUC; PMTLM and COLD trail because they do not model friendship links in detection.");
}
