//! Argument handling of the experiment binaries.

use std::process::Command;

/// `fig11_workload` refuses a thread count it cannot allocate segments
/// to, with the usage line and exit code 2, before generating any data.
#[test]
fn fig11_rejects_thread_counts_below_one() {
    for threads in ["0", "-3", "two"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig11_workload"))
            .args(["tiny", threads])
            .output()
            .expect("run fig11_workload");
        assert_eq!(out.status.code(), Some(2), "threads `{threads}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: fig11_workload"),
            "threads `{threads}`: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "threads `{threads}`: printed a table"
        );
    }
}
