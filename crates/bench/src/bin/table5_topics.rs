//! **Table 5** — top-4 words of selected topics from a CPD fit on the
//! DBLP-like dataset (synthetic word ids stand in for the paper's terms;
//! the planted anchor blocks make topical coherence visible: a topic's
//! top words should share an id block).
//!
//! Usage: `table5_topics [tiny|small|medium]`.

use cpd_bench::{print_table, scale_from_args};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::{generate, GenConfig};

const USAGE: &str = "usage: table5_topics [tiny|small|medium]";

fn main() {
    let scale = scale_from_args(USAGE);
    let gen = GenConfig::dblp_like(scale);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig {
        seed: 5,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let fit = Cpd::new(cfg).unwrap().fit(&g);
    let block = g.vocab_size() / gen.n_topics;

    let mut rows = Vec::new();
    for z in 0..fit.model.n_topics() {
        let top = fit.model.top_words(z, 4);
        let words: Vec<String> = top
            .iter()
            .map(|&(w, p)| format!("w{w:04}:{p:.3}"))
            .collect();
        // How concentrated the top words are in a single planted anchor
        // block (1.0 = perfectly coherent topic).
        let blocks: Vec<usize> = top.iter().map(|&(w, _)| w / block.max(1)).collect();
        let mode = {
            let mut counts = std::collections::HashMap::new();
            for &b in &blocks {
                *counts.entry(b).or_insert(0usize) += 1;
            }
            counts.into_values().max().unwrap_or(0)
        };
        rows.push(vec![
            format!("T{z}"),
            words.join(", "),
            format!("{:.2}", mode as f64 / top.len().max(1) as f64),
        ]);
    }
    print_table(
        "Table 5: top words per topic (word:probability, + anchor-block coherence)",
        &["Topic", "Word Distribution", "Coherence"],
        &rows,
    );
}
