//! **Fig. 7** — profile-driven community visualisation: the community
//! diffusion graph under (a) topic aggregation, (b) a general topic,
//! (c) a specialised topic. Emits Graphviz DOT and JSON under
//! `target/figures/` and prints the openness analysis of Sect. 6.3.3.
//!
//! Usage: `fig7_visualization [tiny|small|medium]`.

use cpd_bench::{print_table, scale_from_args};
use cpd_core::apps::visualization::{openness, significant_edges, to_dot, to_json};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::{generate, GenConfig};

const USAGE: &str = "usage: fig7_visualization [tiny|small|medium]";

fn main() {
    let scale = scale_from_args(USAGE);
    let gen = GenConfig::dblp_like(scale);
    let (g, _) = generate(&gen);
    let cfg = CpdConfig {
        seed: 7,
        ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
    };
    let fit = Cpd::new(cfg).unwrap().fit(&g);
    let model = &fit.model;

    // General topic: discussed broadly (max total mass across community
    // profiles); specialised topic: most concentrated in one community.
    let z_n = model.n_topics();
    let c_n = model.n_communities();
    let totals: Vec<f64> = (0..z_n)
        .map(|z| (0..c_n).map(|c| model.theta[c][z]).sum())
        .collect();
    let general = (0..z_n)
        .max_by(|&a, &b| totals[a].partial_cmp(&totals[b]).unwrap())
        .unwrap();
    let concentration: Vec<f64> = (0..z_n)
        .map(|z| {
            let max = (0..c_n).map(|c| model.theta[c][z]).fold(0.0f64, f64::max);
            max / totals[z].max(1e-12)
        })
        .collect();
    let specialised = (0..z_n)
        .max_by(|&a, &b| concentration[a].partial_cmp(&concentration[b]).unwrap())
        .unwrap();

    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let cases = [
        ("fig7a_aggregated", None),
        ("fig7b_general_topic", Some(general)),
        ("fig7c_specialised_topic", Some(specialised)),
    ];
    let mut rows = Vec::new();
    for (name, topic) in cases {
        let dot = to_dot(model, topic, None);
        let json = to_json(model, topic);
        std::fs::write(out_dir.join(format!("{name}.dot")), &dot).unwrap();
        std::fs::write(out_dir.join(format!("{name}.json")), &json).unwrap();
        let edges = significant_edges(model, topic);
        let self_edges = edges.iter().filter(|e| e.from == e.to).count();
        rows.push(vec![
            name.to_string(),
            match topic {
                Some(z) => format!("T{z}"),
                None => "all".to_string(),
            },
            edges.len().to_string(),
            self_edges.to_string(),
        ]);
    }
    print_table(
        "Fig. 7: exported diffusion graphs (DOT + JSON in target/figures/)",
        &["file", "topic", "#edges(>avg)", "#self-loops"],
        &rows,
    );

    // Openness (the c48-vs-c09 observation in Sect. 6.3.3).
    let mut open: Vec<(usize, f64)> = (0..c_n).map(|c| (c, openness(model, c))).collect();
    open.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let rows: Vec<Vec<String>> = open
        .iter()
        .map(|&(c, o)| vec![format!("c{c:02}"), format!("{o:.3}")])
        .collect();
    print_table(
        "Community openness (share of outgoing diffusion leaving the community)",
        &["community", "openness"],
        &rows,
    );
    println!("\nShape check vs paper: communities diffuse mostly within themselves under topic");
    println!("aggregation (many self-loops), some communities are clearly more open than others,");
    println!("and the specialised topic involves fewer communities than the general one.");
}
