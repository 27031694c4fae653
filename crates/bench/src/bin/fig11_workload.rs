//! **Fig. 11** — workload balancing across CPU cores: the estimated
//! per-core workload of the LDA-segmented allocation vs. the measured
//! per-thread running time of a parallel E-step sweep.
//!
//! Usage: `fig11_workload [tiny|small|medium] [threads]`. `threads` must
//! be a positive integer; anything else exits 2 with the usage line.

use cpd_bench::{datasets, mean, print_table, scale_from_args};
use cpd_core::parallel::{allocate_segments, balance_ratio, segment_users};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::generate;
use std::process::ExitCode;

const USAGE: &str = "usage: fig11_workload [tiny|small|medium] [threads]";

fn main() -> ExitCode {
    let scale = scale_from_args();
    let threads: usize = match std::env::args().nth(2) {
        None => std::thread::available_parallelism()
            .map(|p| p.get().min(8))
            .unwrap_or(4),
        Some(arg) => match arg.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("fig11_workload: threads must be a positive integer, got `{arg}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        let seg = segment_users(&g, gen.n_topics, gen.n_communities, 15, 11);
        let groups = allocate_segments(&seg.workloads, threads);

        // Estimated per-core workload (normalised to seconds-equivalents
        // by dividing by the total and scaling by measured total time).
        let loads: Vec<f64> = groups
            .iter()
            .map(|grp| grp.iter().map(|&s| seg.workloads[s]).sum::<f64>())
            .collect();

        // Actual per-thread time from a parallel sweep.
        let cfg = CpdConfig {
            em_iters: 2,
            gibbs_sweeps: 1,
            threads: Some(threads),
            seed: 11,
            ..CpdConfig::experiment(gen.n_communities, gen.n_topics)
        };
        let fit = Cpd::new(cfg).unwrap().fit(&g);
        let actual = &fit.diagnostics.last_thread_seconds;

        let total_actual: f64 = actual.iter().sum();
        let total_load: f64 = loads.iter().sum();
        let rows: Vec<Vec<String>> = (0..threads)
            .map(|t| {
                let predicted = loads[t] / total_load.max(1e-12) * total_actual;
                vec![
                    (t + 1).to_string(),
                    format!("{predicted:.3}"),
                    format!("{:.3}", actual.get(t).copied().unwrap_or(0.0)),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 11 ({ds_name}): estimated workload vs actual running time per core"),
            &["core", "estimated (s)", "actual (s)"],
            &rows,
        );
        println!(
            "balance ratio (max/mean): estimated {:.3}, actual {:.3}",
            balance_ratio(&groups, &seg.workloads),
            {
                let max = actual.iter().copied().fold(0.0f64, f64::max);
                let mean = total_actual / actual.len().max(1) as f64;
                if mean > 0.0 {
                    max / mean
                } else {
                    1.0
                }
            }
        );
        // Sharded-runtime coordination overhead (zero-length for the
        // legacy clone-rebuild runtime).
        println!(
            "delta runtime per sweep: merge {:.4}s, snapshot sync {:.4}s, changed docs {:.0}",
            mean(&fit.diagnostics.merge_seconds),
            mean(&fit.diagnostics.snapshot_seconds),
            {
                let cd = &fit.diagnostics.changed_docs;
                if cd.is_empty() {
                    0.0
                } else {
                    cd.iter().sum::<usize>() as f64 / cd.len() as f64
                }
            }
        );
        // M-step split: η on the coordinator, ν's gradient passes on
        // the idle pool workers.
        println!(
            "m-step per iteration: eta {:.4}s (serial), nu {:.4}s (gradient over {} workers)",
            mean(&fit.diagnostics.mstep_eta_seconds),
            mean(&fit.diagnostics.mstep_nu_seconds),
            threads,
        );
    }
    println!("\nShape check vs paper: per-core times should be roughly flat (good balance),");
    println!("with the estimate tracking the actual ordering.");
    ExitCode::SUCCESS
}
