//! Argument handling of the experiment binaries.

use std::process::Command;

/// Run `bin` with `args`, expecting the refusal: exit code 2, the
/// binary's usage line on stderr and nothing on stdout.
fn assert_refused(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("usage: {bin} [tiny|small|medium]")),
        "{bin} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?}: printed output");
}

/// `fig11_workload` refuses a thread count it cannot allocate segments
/// to, with the usage line and exit code 2, before generating any data.
#[test]
fn fig11_rejects_thread_counts_below_one() {
    for threads in ["0", "-3", "two"] {
        assert_refused(
            "fig11_workload",
            env!("CARGO_BIN_EXE_fig11_workload"),
            &["tiny", threads],
        );
    }
}

/// Every experiment binary refuses a scale it does not know, before it
/// generates any data.
#[test]
fn binaries_reject_unknown_scales() {
    let bins = [
        ("ablation_recovery", env!("CARGO_BIN_EXE_ablation_recovery")),
        ("fig3_design", env!("CARGO_BIN_EXE_fig3_design")),
        ("fig4_diffusion", env!("CARGO_BIN_EXE_fig4_diffusion")),
        ("fig5_factors", env!("CARGO_BIN_EXE_fig5_factors")),
        ("fig6_ranking", env!("CARGO_BIN_EXE_fig6_ranking")),
        (
            "fig7_visualization",
            env!("CARGO_BIN_EXE_fig7_visualization"),
        ),
        ("fig8_perplexity", env!("CARGO_BIN_EXE_fig8_perplexity")),
        ("fig9_detection", env!("CARGO_BIN_EXE_fig9_detection")),
        ("fig10_scalability", env!("CARGO_BIN_EXE_fig10_scalability")),
        ("fig11_workload", env!("CARGO_BIN_EXE_fig11_workload")),
        ("table3_stats", env!("CARGO_BIN_EXE_table3_stats")),
        ("table5_topics", env!("CARGO_BIN_EXE_table5_topics")),
        ("table6_query", env!("CARGO_BIN_EXE_table6_query")),
    ];
    for (bin, exe) in bins {
        for scale in ["tinny", "Tiny", ""] {
            assert_refused(bin, exe, &[scale]);
        }
    }
}

/// The cross-validating binaries refuse a fold count that is not an
/// integer of at least 2.
#[test]
fn binaries_reject_unreadable_fold_counts() {
    let bins = [
        ("fig3_design", env!("CARGO_BIN_EXE_fig3_design")),
        ("fig4_diffusion", env!("CARGO_BIN_EXE_fig4_diffusion")),
        ("fig9_detection", env!("CARGO_BIN_EXE_fig9_detection")),
    ];
    for (bin, exe) in bins {
        for folds in ["two", "1", "-2", "2.5"] {
            assert_refused(bin, exe, &["tiny", folds]);
        }
    }
}

/// A scale it knows still runs: `table3_stats tiny` prints the tiny
/// rows only.
#[test]
fn table3_runs_a_known_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_table3_stats"))
        .arg("tiny")
        .output()
        .expect("run table3_stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Twitter (tiny)"), "{stdout}");
    assert!(!stdout.contains("(small)"), "{stdout}");
}
