//! **Table 3** — dataset statistics (`#(user)`, `#(friend. link)`,
//! `#(diff. link)`, `#(doc.)`, `#(word)`) for the two synthetic presets.
//!
//! Usage: `table3_stats [tiny|small|medium]` (default prints all scales).

use cpd_bench::print_table;
use cpd_datagen::{generate, GenConfig, Scale};

const USAGE: &str = "usage: table3_stats [tiny|small|medium]";

fn main() {
    let scales = match std::env::args().nth(1).as_deref() {
        Some("tiny") => vec![("tiny", Scale::Tiny)],
        Some("small") => vec![("small", Scale::Small)],
        Some("medium") => vec![("medium", Scale::Medium)],
        None => vec![
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("medium", Scale::Medium),
        ],
        Some(other) => {
            eprintln!("scale must be tiny, small or medium, got `{other}`");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut rows = Vec::new();
    for (scale_name, scale) in scales {
        for (name, cfg) in [
            ("Twitter", GenConfig::twitter_like(scale)),
            ("DBLP", GenConfig::dblp_like(scale)),
        ] {
            let (g, _) = generate(&cfg);
            let s = g.stats();
            rows.push(vec![
                format!("{name} ({scale_name})"),
                s.n_users.to_string(),
                s.n_friendship_links.to_string(),
                s.n_diffusion_links.to_string(),
                s.n_docs.to_string(),
                s.vocab_size.to_string(),
                s.n_tokens.to_string(),
            ]);
        }
    }
    print_table(
        "Table 3: data set statistics (synthetic substitutes)",
        &[
            "dataset",
            "#(user)",
            "#(friend. link)",
            "#(diff. link)",
            "#(doc.)",
            "#(word)",
            "#(token)",
        ],
        &rows,
    );
    println!(
        "\nPaper reference (real data): Twitter 137,325 users / 3,589,811 / 992,522 / 39,952,379 / 2,316,020;"
    );
    println!("DBLP 916,907 users / 3,063,186 / 10,210,652 / 4,121,213 / 330,334.");
    println!("The synthetic presets reproduce the *shape* (DBLP: more diffusion than friendship;");
    println!("Twitter: more docs per user, friendship-heavy), not the absolute counts.");
}
