//! Bench-regression guard for the CI smoke step.
//!
//! After `CPD_BENCH_SMOKE=1 cargo bench ...` rewrites the
//! `BENCH_*_smoke.json` reports at the workspace root, this binary
//! compares every rewritten smoke report against the version committed
//! at `HEAD` (via `git show`) and fails — exit code 1 — when any
//! benchmark's median regressed by more than 2× (a deliberately
//! generous threshold: CI boxes are shared and smoke samples are tiny,
//! so anything tighter would flake; a real regression from an
//! accidental O(n²) or a lost fast path clears 2× easily).
//!
//! Every regression line names the offending report file, the
//! benchmark, and **both medians** (committed → current), so a CI
//! failure is diagnosable from the log alone — no diffing JSON by
//! hand.
//!
//! A smoke report with no committed counterpart at `HEAD` is a **named
//! error** (exit code 2): a guard that silently skips an uncommitted
//! baseline guards nothing. Pass `--allow-missing` when introducing a
//! brand-new bench group, so the first commit of its report doesn't
//! require a two-commit dance. Benchmarks that exist on only one side
//! of an existing report (renamed cells) are still skipped with a
//! note.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Maximum tolerated `current / committed` median ratio.
const MAX_RATIO: f64 = 2.0;

/// Maximum tolerated `trace_overhead_untraced / e2e_mixed_batch_x2`
/// median ratio **within one report** — the untraced-fast-path cell.
/// The two cells run the same-shaped batch against same-shaped servers
/// in the same process moments apart, so shared-box noise largely
/// cancels: the only difference is that `trace_overhead_untraced` runs
/// after the tracing subsystem has been exercised in-process. An
/// allocation or lock sneaking onto the unsampled branch shows up
/// here; the deliberate cost of *sampled* tracing does not (the traced
/// cell is tracked against its committed baseline like any other).
const TRACE_MAX_RATIO: f64 = 2.0;

/// Walk up to the topmost directory containing a `Cargo.toml` (matches
/// the criterion stub's notion of where `BENCH_*.json` lives).
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut best: Option<PathBuf> = None;
    loop {
        if dir.join("Cargo.toml").is_file() {
            best = Some(dir.clone());
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => break,
        }
    }
    best.unwrap_or_else(|| PathBuf::from("."))
}

/// Extract `name → median_ns` from the criterion stub's report format:
/// one `{"name": "...", "median_ns": N, ...}` object per benchmark.
/// Everything else — the group name, the `"machine"` stamp — is
/// ignored.
/// Hand-rolled so the guard needs no JSON dependency; the stub's writer
/// is the only producer, so the shape is stable.
fn parse_medians(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for chunk in json.split("\"name\":").skip(1) {
        let Some(name) = chunk.split('"').nth(1) else {
            continue;
        };
        let Some(rest) = chunk.split("\"median_ns\":").nth(1) else {
            continue;
        };
        let med: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = med.parse::<f64>() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

/// The committed content of `file` at `HEAD`, or `None` when the file
/// is untracked / new / git is unavailable.
fn committed(root: &Path, file: &str) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .arg("show")
        .arg(format!("HEAD:{file}"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn main() {
    let allow_missing = std::env::args().any(|a| a == "--allow-missing");
    let root = workspace_root();
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut checked = 0usize;

    let entries = match std::fs::read_dir(&root) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "bench_guard: error: cannot list workspace root {}: {e}",
                root.display()
            );
            std::process::exit(2);
        }
    };
    let mut reports: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with("_smoke.json"))
        .collect();
    reports.sort();

    if reports.is_empty() {
        println!("bench_guard: no BENCH_*_smoke.json reports found — nothing to check");
        return;
    }

    for file in &reports {
        let current = match std::fs::read_to_string(root.join(file)) {
            Ok(s) => parse_medians(&s),
            Err(e) => {
                println!("bench_guard: {file}: unreadable ({e}); skipping");
                continue;
            }
        };
        // Within-report cell: the untraced client vs the plain e2e
        // pipeline (same batch shape, same worker count). Needs no
        // committed baseline — both sides live in `current`.
        if let (Some(&e2e), Some(&untraced)) = (
            current.get("e2e_mixed_batch_x2"),
            current.get("trace_overhead_untraced"),
        ) {
            if e2e > 0.0 {
                checked += 1;
                let ratio = untraced / e2e;
                let verdict = if ratio > TRACE_MAX_RATIO {
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "bench_guard: {file}/trace_overhead: untraced/e2e {:.2}x \
                     ({:.1} ms vs {:.1} ms) {verdict}",
                    ratio,
                    e2e / 1e6,
                    untraced / 1e6,
                );
                if ratio > TRACE_MAX_RATIO {
                    regressions.push(format!(
                        "{file}: untraced pipeline {ratio:.2}x over the plain e2e \
                         batch — the unsampled fast path grew a cost \
                         (e2e {:.3} ms, untraced {:.3} ms)",
                        e2e / 1e6,
                        untraced / 1e6,
                    ));
                }
            }
        }
        let Some(base_raw) = committed(&root, file) else {
            if allow_missing {
                println!(
                    "bench_guard: {file}: no committed baseline at HEAD; \
                     skipping (--allow-missing)"
                );
            } else {
                missing.push(file.clone());
            }
            continue;
        };
        let base = parse_medians(&base_raw);
        for (name, &cur) in &current {
            let Some(&was) = base.get(name) else {
                println!("bench_guard: {file}/{name}: new benchmark; skipping");
                continue;
            };
            if was <= 0.0 {
                continue;
            }
            checked += 1;
            let ratio = cur / was;
            let verdict = if ratio > MAX_RATIO { "REGRESSED" } else { "ok" };
            println!(
                "bench_guard: {file}/{name}: {:.2}x ({:.1} ms -> {:.1} ms) {verdict}",
                ratio,
                was / 1e6,
                cur / 1e6,
            );
            if ratio > MAX_RATIO {
                regressions.push(format!(
                    "{file}: benchmark `{name}` median {ratio:.2}x \
                     (committed {:.3} ms -> current {:.3} ms)",
                    was / 1e6,
                    cur / 1e6,
                ));
            }
        }
    }

    println!(
        "bench_guard: {checked} benchmark(s) checked, {} regression(s), {} missing baseline(s)",
        regressions.len(),
        missing.len(),
    );
    if !missing.is_empty() {
        for file in &missing {
            eprintln!(
                "bench_guard: error: {file} has no committed baseline at HEAD — \
                 commit the smoke report (or pass --allow-missing for a brand-new \
                 bench group)"
            );
        }
        std::process::exit(2);
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("bench_guard: median regression > {MAX_RATIO}x: {r}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELLS: &str = r#"  "benchmarks": [
    {"name": "snapshot_save", "median_ns": 1520.5, "mean_ns": 1600.0, "min_ns": 1400.0, "samples": 2, "iters_per_sample": 3},
    {"name": "index_build", "median_ns": 98000.0, "mean_ns": 99000.0, "min_ns": 97000.0, "samples": 2, "iters_per_sample": 1}
  ]
}
"#;

    #[test]
    fn machine_stamp_does_not_change_the_medians() {
        let plain = format!("{{\n  \"group\": \"g_smoke\",\n{CELLS}");
        let stamped = format!(
            "{{\n  \"group\": \"g_smoke\",\n  \"machine\": {{\"available_parallelism\": 2, \
             \"rustc\": \"rustc 1.95.0 (59807616e 2026-04-14)\", \"commit\": \"unknown\"}},\n{CELLS}"
        );
        let medians = parse_medians(&stamped);
        assert_eq!(medians, parse_medians(&plain));
        assert_eq!(
            medians.into_iter().collect::<Vec<_>>(),
            vec![
                ("index_build".to_string(), 98000.0),
                ("snapshot_save".to_string(), 1520.5)
            ]
        );
    }
}
