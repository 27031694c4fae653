//! Dataset presets, cross-validation loops and negative samplers.

use cpd_baselines::{DiffusionScorer, FriendshipScorer};
use cpd_datagen::{GenConfig, Scale};
use cpd_eval::auc;
use cpd_prob::rng::seeded_rng;
use rand::Rng;
use social_graph::{DiffusionLink, DocId, SocialGraph, UserId};
use std::collections::HashSet;

/// Print `problem` and the binary's `usage` line to stderr and exit
/// with code 2: how an experiment binary refuses an argument it cannot
/// read, before it generates any data.
fn exit_usage(usage: &str, problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("{usage}");
    std::process::exit(2)
}

/// The common `tiny | small | medium` scale argument (first CLI
/// positional), `small` when absent. Any other text exits 2 with
/// `usage`.
pub fn scale_from_args(usage: &str) -> Scale {
    match std::env::args().nth(1).as_deref() {
        None => Scale::Small,
        Some("tiny") => Scale::Tiny,
        Some("small") => Scale::Small,
        Some("medium") => Scale::Medium,
        Some(other) => exit_usage(
            usage,
            &format!("scale must be tiny, small or medium, got `{other}`"),
        ),
    }
}

/// Number of cross-validation folds: second CLI positional, `default`
/// when absent (the paper uses 10; the default keeps the binaries
/// quick). Anything but an integer of at least 2 exits 2 with `usage`.
pub fn folds_from_args(default: usize, usage: &str) -> usize {
    match std::env::args().nth(2) {
        None => default,
        Some(arg) => match arg.parse() {
            Ok(n) if n >= 2 => n,
            _ => exit_usage(
                usage,
                &format!("folds must be an integer of at least 2, got `{arg}`"),
            ),
        },
    }
}

/// The two dataset presets, named as in the paper.
pub fn datasets(scale: Scale) -> Vec<(&'static str, GenConfig)> {
    vec![
        ("Twitter", GenConfig::twitter_like(scale)),
        ("DBLP", GenConfig::dblp_like(scale)),
    ]
}

/// The community-count sweep of the paper's figures.
pub const COMMUNITY_SWEEP: [usize; 4] = [20, 50, 100, 150];

/// A smaller sweep for the default (small-scale) runs; the full paper
/// sweep is used at `medium`.
pub fn community_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Tiny => vec![4, 8],
        Scale::Small => vec![8, 20, 50],
        Scale::Medium => COMMUNITY_SWEEP.to_vec(),
    }
}

/// Sample `n` negative diffusion candidates `(user, doc, t)` not present
/// in `graph`'s diffusion link set (by author-doc pair).
pub fn sample_negative_diffusions(
    graph: &SocialGraph,
    n: usize,
    seed: u64,
) -> Vec<(UserId, DocId, u32)> {
    let mut rng = seeded_rng(seed);
    let linked: HashSet<(u32, u32)> = graph
        .diffusions()
        .iter()
        .map(|l| (graph.doc(l.src).author.0, l.dst.0))
        .collect();
    let mut out = Vec::with_capacity(n);
    let mut guard = 0usize;
    while out.len() < n && guard < n * 50 + 100 {
        guard += 1;
        let u = rng.gen_range(0..graph.n_users()) as u32;
        let d = rng.gen_range(0..graph.n_docs()) as u32;
        if linked.contains(&(u, d)) || graph.doc(DocId(d)).author.0 == u {
            continue;
        }
        let t = rng.gen_range(0..graph.n_timestamps());
        out.push((UserId(u), DocId(d), t));
    }
    out
}

/// Sample `n` negative user pairs that are not friendship links.
pub fn sample_negative_friendships(
    graph: &SocialGraph,
    n: usize,
    seed: u64,
) -> Vec<(UserId, UserId)> {
    let mut rng = seeded_rng(seed);
    let linked: HashSet<(u32, u32)> = graph
        .friendships()
        .iter()
        .map(|l| (l.from.0, l.to.0))
        .collect();
    let mut out = Vec::with_capacity(n);
    let mut guard = 0usize;
    while out.len() < n && guard < n * 50 + 100 {
        guard += 1;
        let u = rng.gen_range(0..graph.n_users()) as u32;
        let v = rng.gen_range(0..graph.n_users()) as u32;
        if u == v || linked.contains(&(u, v)) {
            continue;
        }
        out.push((UserId(u), UserId(v)));
    }
    out
}

/// AUC of a diffusion scorer on held-out positive links (indices into
/// `full.diffusions()`) against an equal number of sampled negatives.
/// `train` is the graph the scorer was fitted on (same documents).
pub fn diffusion_auc(
    full: &SocialGraph,
    train: &SocialGraph,
    held_out: &[usize],
    scorer: &dyn DiffusionScorer,
    seed: u64,
) -> Option<f64> {
    let positives: Vec<&DiffusionLink> = held_out.iter().map(|&i| &full.diffusions()[i]).collect();
    let pos: Vec<f64> = positives
        .iter()
        .map(|l| scorer.score_diffusion(train, full.doc(l.src).author, l.dst, l.at))
        .collect();
    let neg: Vec<f64> = sample_negative_diffusions(full, positives.len(), seed)
        .into_iter()
        .map(|(u, d, t)| scorer.score_diffusion(train, u, d, t))
        .collect();
    auc(&pos, &neg)
}

/// AUC of a friendship scorer on held-out positive links against
/// sampled negatives.
pub fn friendship_auc(
    full: &SocialGraph,
    held_out: &[usize],
    scorer: &dyn FriendshipScorer,
    seed: u64,
) -> Option<f64> {
    let pos: Vec<f64> = held_out
        .iter()
        .map(|&i| {
            let l = full.friendships()[i];
            scorer.score_friendship(l.from, l.to)
        })
        .collect();
    let neg: Vec<f64> = sample_negative_friendships(full, pos.len(), seed)
        .into_iter()
        .map(|(u, v)| scorer.score_friendship(u, v))
        .collect();
    auc(&pos, &neg)
}

/// Pretty-print a table: a header row and data rows of equal arity.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.chars().count()))
                .chain(std::iter::once(h.chars().count()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Mean of a slice, `0.0` when empty (per-iteration diagnostics are
/// often absent for serial fits).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Format an f64 with 3 decimals, or `-` for `None`.
pub fn fmt_metric(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpd_datagen::generate;

    #[test]
    fn negative_samplers_avoid_positives() {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let linked: HashSet<(u32, u32)> = g
            .diffusions()
            .iter()
            .map(|l| (g.doc(l.src).author.0, l.dst.0))
            .collect();
        for (u, d, _) in sample_negative_diffusions(&g, 200, 1) {
            assert!(!linked.contains(&(u.0, d.0)));
            assert_ne!(g.doc(d).author, u);
        }
        let friends: HashSet<(u32, u32)> =
            g.friendships().iter().map(|l| (l.from.0, l.to.0)).collect();
        for (u, v) in sample_negative_friendships(&g, 200, 2) {
            assert!(!friends.contains(&(u.0, v.0)));
            assert_ne!(u, v);
        }
    }

    #[test]
    fn community_sweep_is_scale_dependent() {
        assert_eq!(community_sweep(Scale::Medium), vec![20, 50, 100, 150]);
        assert!(community_sweep(Scale::Tiny).len() < 4);
    }

    #[test]
    fn fmt_metric_handles_none() {
        assert_eq!(fmt_metric(None), "-");
        assert_eq!(fmt_metric(Some(0.12345)), "0.123");
    }
}
