//! **Fig. 10** — scalability of the inference algorithm:
//!
//! * (a) per-iteration training time (E-step, Alg. 1 steps 3–10) as the
//!   dataset is subsampled to fractions `p ∈ {0.2, …, 1.0}` — should be
//!   linear in `p`, serial and parallel;
//! * (b) parallel speedup over the serial implementation as the thread
//!   count grows.
//!
//! Usage: `fig10_scalability [tiny|small|medium]`.

use cpd_bench::{datasets, mean, print_table, scale_from_args};
use cpd_core::{Cpd, CpdConfig};
use cpd_datagen::generate;
use social_graph::sample::subsample;

const USAGE: &str = "usage: fig10_scalability [tiny|small|medium]";

fn main() {
    let scale = scale_from_args(USAGE);
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);

    for (ds_name, gen) in datasets(scale) {
        let (g, _) = generate(&gen);
        // Fixed |C|, |Z| across the sweep (the paper uses 150/150 at full
        // Twitter scale; the synthetic presets keep their native sizes —
        // the *linearity* in data size is the claim under test).
        let c = gen.n_communities;
        let z = gen.n_topics;
        let time_cfg = |threads: Option<usize>| CpdConfig {
            em_iters: 2,
            gibbs_sweeps: 1,
            nu_iters: 20,
            threads,
            seed: 61,
            ..CpdConfig::experiment(c, z)
        };

        // ---- (a) time vs dataset fraction --------------------------------
        let mut rows = Vec::new();
        for p in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let sub = subsample(&g, p, 61);
            let serial = Cpd::new(time_cfg(None)).unwrap().fit(&sub);
            let parallel = Cpd::new(time_cfg(Some(max_threads))).unwrap().fit(&sub);
            rows.push(vec![
                format!("{p:.1}"),
                format!("{:.3}", mean(&serial.diagnostics.estep_seconds)),
                format!("{:.3}", mean(&parallel.diagnostics.estep_seconds)),
            ]);
        }
        print_table(
            &format!("Fig. 10(a) ({ds_name}): E-step seconds per iteration vs dataset fraction"),
            &["p", "serial (s)", &format!("parallel x{max_threads} (s)")],
            &rows,
        );

        // ---- (b) speedup vs threads ---------------------------------------
        // The sharded runtime's merge/snapshot columns expose the
        // coordination overhead the delta-based E-step pays instead of
        // the old full clone + rebuild (see FitDiagnostics).
        let serial = Cpd::new(time_cfg(None)).unwrap().fit(&g);
        let fp = serial.diagnostics.plane_bytes;
        println!(
            "count planes ({ds_name}): n_zw {:.1} MB, n_cz {:.1} MB, n_uc {:.1} MB \
             (total {:.1} MB resident)",
            fp.word_topic as f64 / 1e6,
            fp.comm_topic as f64 / 1e6,
            fp.user_comm as f64 / 1e6,
            fp.total() as f64 / 1e6,
        );
        let base = mean(&serial.diagnostics.estep_seconds);
        let mut rows = Vec::new();
        let mut t = 2usize;
        while t <= max_threads {
            let par = Cpd::new(time_cfg(Some(t))).unwrap().fit(&g);
            let pt = mean(&par.diagnostics.estep_seconds);
            rows.push(vec![
                t.to_string(),
                format!("{pt:.3}"),
                format!("{:.2}x", base / pt.max(1e-9)),
                format!("{:.4}", mean(&par.diagnostics.merge_seconds)),
                format!("{:.4}", mean(&par.diagnostics.snapshot_seconds)),
                format!("{:.4}", mean(&par.diagnostics.mstep_eta_seconds)),
                format!("{:.4}", mean(&par.diagnostics.mstep_nu_seconds)),
            ]);
            t += 2;
        }
        print_table(
            &format!("Fig. 10(b) ({ds_name}): parallel speedup (serial E-step = {base:.3}s)"),
            &[
                "threads",
                "E-step (s)",
                "speedup",
                "merge (s)",
                "snapshot (s)",
                "mstep eta (s)",
                "mstep nu (s)",
            ],
            &rows,
        );
    }
    println!("\nShape check vs paper: per-iteration time grows linearly with p; speedup");
    println!("increases with cores (the paper reaches 4.5x on Twitter / 5.7x on DBLP at 8 cores).");
}
