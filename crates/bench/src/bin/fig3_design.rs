//! **Fig. 3** — the model-design study of Sect. 6.2:
//!
//! * (a–f) CPD vs "No Joint Modeling" vs "No Heterogeneity" on community
//!   detection (conductance), friendship link prediction (AUC) and
//!   diffusion link prediction (AUC), across the community sweep, on
//!   both datasets;
//! * (g–h) CPD vs "No Topic" vs "No Individual & Topic" on diffusion
//!   link prediction.
//!
//! Usage: `fig3_design [tiny|small|medium] [folds]` (default folds = 2;
//! the paper uses 10).

use cpd_bench::{
    community_sweep, datasets, diffusion_auc, fit_method, fmt_metric, friendship_auc, print_table,
    scale_from_args, MethodKind,
};
use cpd_datagen::generate;
use cpd_eval::average_conductance;
use social_graph::split::{diffusion_holdout, friendship_holdout, k_fold_indices};

const USAGE: &str = "usage: fig3_design [tiny|small|medium] [folds]";

fn main() {
    let scale = scale_from_args(USAGE);
    let folds = cpd_bench::folds_from_args(2, USAGE);
    let design_methods = [
        MethodKind::CpdNoHeterogeneity,
        MethodKind::CpdNoJoint,
        MethodKind::Cpd,
    ];
    let factor_methods = [
        MethodKind::CpdNoIndividualTopic,
        MethodKind::CpdNoTopic,
        MethodKind::Cpd,
    ];

    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        let mut cond_rows = Vec::new();
        let mut fr_rows = Vec::new();
        let mut df_rows = Vec::new();
        let mut factor_rows = Vec::new();
        for &c in &community_sweep(scale) {
            let z = gen.n_topics;
            // Conductance: full-graph fit per method.
            let mut cond = vec![format!("{c}")];
            for kind in design_methods {
                let fitted = fit_method(kind, &g, c, z, 42);
                let value = fitted
                    .memberships()
                    .and_then(|pi| average_conductance(&g, pi, 5));
                cond.push(fmt_metric(value));
            }
            cond_rows.push(cond);

            // Friendship AUC: k-fold link holdout.
            let f_folds = k_fold_indices(g.friendships().len(), folds, 42);
            let mut fr = vec![format!("{c}")];
            for kind in design_methods {
                let mut scores = Vec::new();
                for fold in 0..folds {
                    let h = friendship_holdout(&g, &f_folds, fold);
                    let fitted = fit_method(kind, &h.train, c, z, 42 + fold as u64);
                    if let Some(scorer) = fitted.friendship_scorer() {
                        if let Some(a) = friendship_auc(&g, &h.held_out, scorer, 77 + fold as u64) {
                            scores.push(a);
                        }
                    }
                }
                fr.push(fmt_metric(mean(&scores)));
            }
            fr_rows.push(fr);

            // Diffusion AUC: k-fold link holdout (shared across both
            // method panels so the "Ours" column matches).
            let d_folds = k_fold_indices(g.diffusions().len(), folds, 43);
            let mut df = vec![format!("{c}")];
            for kind in design_methods {
                df.push(fmt_metric(diffusion_cv(&g, &d_folds, folds, kind, c, z)));
            }
            df_rows.push(df);

            let mut fa = vec![format!("{c}")];
            for kind in factor_methods {
                fa.push(fmt_metric(diffusion_cv(&g, &d_folds, folds, kind, c, z)));
            }
            factor_rows.push(fa);
        }
        print_table(
            &format!("Fig. 3 ({ds_name}): community detection — conductance (lower is better)"),
            &["|C|", "No Heterogeneity", "No Joint Modeling", "Ours"],
            &cond_rows,
        );
        print_table(
            &format!("Fig. 3 ({ds_name}): friendship link prediction — AUC (higher is better)"),
            &["|C|", "No Heterogeneity", "No Joint Modeling", "Ours"],
            &fr_rows,
        );
        print_table(
            &format!("Fig. 3 ({ds_name}): diffusion link prediction — AUC (higher is better)"),
            &["|C|", "No Heterogeneity", "No Joint Modeling", "Ours"],
            &df_rows,
        );
        print_table(
            &format!("Fig. 3(g/h) ({ds_name}): nonconformity factors — diffusion AUC"),
            &["|C|", "No Individual & Topic", "No Topic", "Ours"],
            &factor_rows,
        );
    }
    println!("\nShape check vs paper: Ours >= No Joint Modeling everywhere; Ours > No");
    println!("Heterogeneity on diffusion AUC (comparable on conductance / friendship);");
    println!("Ours > No Topic > No Individual & Topic on diffusion AUC.");
}

fn diffusion_cv(
    g: &social_graph::SocialGraph,
    d_folds: &[Vec<usize>],
    folds: usize,
    kind: MethodKind,
    c: usize,
    z: usize,
) -> Option<f64> {
    let mut scores = Vec::new();
    for fold in 0..folds {
        let h = diffusion_holdout(g, d_folds, fold);
        let fitted = fit_method(kind, &h.train, c, z, 42 + fold as u64);
        if let Some(a) = diffusion_auc(
            g,
            &h.train,
            &h.held_out,
            fitted.diffusion_scorer(),
            88 + fold as u64,
        ) {
            scores.push(a);
        }
    }
    mean(&scores)
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}
