//! **Fig. 8** — perplexity of content profiles: CPD's jointly-estimated
//! profiles vs. the detect-then-aggregate profiles (`COLD+Agg`,
//! `CRM+Agg`), across the community-count sweep, on both datasets.
//! Lower is better; the paper reports a gap of two orders of magnitude.
//!
//! Usage: `fig8_perplexity [tiny|small|medium]`.

use cpd_bench::{cold_agg, community_sweep, crm_agg, datasets, print_table, scale_from_args};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::generate;
use cpd_eval::content_profile_perplexity;

const USAGE: &str = "usage: fig8_perplexity [tiny|small|medium]";

fn main() {
    let scale = scale_from_args(USAGE);
    let mut rows = Vec::new();
    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        for &c in &community_sweep(scale) {
            let z = gen.n_topics;
            // CPD (joint).
            let cfg = CpdConfig {
                seed: 8,
                ..CpdConfig::experiment(c, z)
            };
            let fit = Cpd::new(cfg).unwrap().fit(&g);
            let ours = content_profile_perplexity(
                g.docs(),
                &fit.model.pi,
                &fit.model.theta,
                &fit.model.phi,
            );
            // Aggregation baselines.
            let cold = cold_agg(&g, c, z, 8);
            let cold_p = content_profile_perplexity(
                g.docs(),
                &cold.profiles.pi,
                &cold.profiles.theta,
                &cold.profiles.phi,
            );
            let crm = crm_agg(&g, c, z, 8);
            let crm_p = content_profile_perplexity(
                g.docs(),
                &crm.profiles.pi,
                &crm.profiles.theta,
                &crm.profiles.phi,
            );
            rows.push(vec![
                ds_name.to_string(),
                c.to_string(),
                fmt(cold_p),
                fmt(crm_p),
                fmt(ours),
            ]);
        }
    }
    print_table(
        "Fig. 8: content-profile perplexity (lower is better)",
        &["dataset", "|C|", "COLD+Agg", "CRM+Agg", "Ours"],
        &rows,
    );
    println!("\nShape check vs paper: joint estimation (Ours) must be far below both aggregation");
    println!(
        "baselines at every |C| (the paper reports ~5k vs ~700k on Twitter, ~1k vs ~47k on DBLP)."
    );
}

fn fmt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "-".into(),
    }
}
