//! The repository benchmark: the fit → snapshot → serve path under four
//! workloads, with end-to-end metrics, output checks and a per-layer
//! ledger. `BENCHMARK.json` at the repository root names the workloads
//! and metrics; this binary measures them.
//!
//! ```text
//! cpd-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is the result JSON
//! cpd-benchmark run [--seed N] [--runs K] [--seconds S] [--traced]
//!                   [--workload NAME]... [--out FILE]
//!     every workload (or the named ones) K times, seeds N..N+K, each in
//!     its own process; prints `metric workload value unit` lines and
//!     writes a results file
//! cpd-benchmark compare A.json B.json
//!     judges B against A with the bounds of BENCHMARK.json
//! cpd-benchmark yardstick
//!     the reference workload a run reads its host's speed with (started
//!     by every workload run as a child process; see `yardstick.rs`)
//! ```

mod json;
mod ledger;
mod serve;
mod stats;
mod train;
mod yardstick;

use json::Json;
use ledger::Ledger;
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// A run still going after this long has hung; it exits with code 3.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What one workload run measured, checked and noticed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(String, f64)>,
    info: Vec<(String, Json)>,
    /// Each output check by name, with what went wrong if it failed.
    checks: Vec<(String, Result<(), String>)>,
    pub ledger: Option<Ledger>,
}

impl Report {
    pub fn info(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// A metric reported as the median of `samples`, with the count.
    pub fn median_of(&mut self, name: &str, samples: &[f64]) {
        self.metric(name, median(samples));
        self.info(&format!("{name}.n"), samples.len());
    }

    /// A gated metric read at the nominal host speed: the median of
    /// `(value, factor)` samples, each time multiplied by the factor of
    /// the yardstick interval it was measured in, or each rate divided by
    /// it. The median as measured is kept as `<name>.raw`.
    pub fn at_nominal(&mut self, name: &str, samples: &[(f64, f64)], rate: bool) {
        let raw: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let adjusted: Vec<f64> = samples
            .iter()
            .map(|&(v, k)| if rate { v / k } else { v * k })
            .collect();
        self.median_of(name, &adjusted);
        self.info(&format!("{name}.raw"), median(&raw));
    }

    /// A per-layer metric; `None` leaves the layer to be reported as not
    /// exercised.
    pub fn layer(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.metric(name, v);
        }
    }

    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|v| v.1)
    }
}

/// The parts of `BENCHMARK.json` the binary reads.
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    /// `(name, unit, higher_is_better, bound)`.
    end_to_end: Vec<(String, String, bool, f64)>,
    /// `(name, unit)`.
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| doc.get(key).map_or(&[][..], Json::as_arr);
        let field = |m: &Json, k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("`run_seconds` is missing")?,
            workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better") == "higher",
                        m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    )
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
        })
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Where runs write results, ledgers and scratch snapshots.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`), in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// First line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a results file was measured on.
fn provenance(seeds: &[u64]) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let root = repo_root();
    // Only ask git inside a git checkout: outside one it would search
    // the parent directories and could report an unrelated repository.
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    Json::obj([
        ("nproc", Json::from(command_line("nproc", &[]))),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("git_commit", Json::from(commit)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::from(s)).collect()),
        ),
    ])
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cpd-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      cpd-benchmark run [--seed N] [--runs K] [--seconds S] [--traced] [--workload NAME]... [--out FILE]\n\
         \x20      cpd-benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--flag`s.
fn flags(args: &[String]) -> Result<Vec<(String, Option<String>)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{}`", args[i]))?;
        let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
        i += 1 + usize::from(value.is_some());
        out.push((flag.to_string(), value));
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad --{flag} `{value}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("yardstick") {
        return yardstick::serve();
    }
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read the benchmark spec: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&spec, &args[1..]),
        Some("compare") if args.len() == 3 => compare(&spec, &args[1], &args[2]),
        Some("compare") => return usage(),
        _ => drive(&spec, &args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// One workload: the entry point `BENCHMARK.json` names.
fn drive(spec: &Spec, args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, spec.run_seconds, None);
    for (flag, value) in flags(args)? {
        let value = value.ok_or_else(|| format!("--{flag} needs a value"))?;
        match flag.as_str() {
            "workload" => workload = Some(value),
            "seed" => seed = Some(parsed(&flag, &value)?),
            "seconds" => seconds = parsed(&flag, &value)?,
            "trace" => trace = Some(parsed::<u8>(&flag, &value)? == 1),
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Ok(usage());
    };
    let traced = trace.unwrap_or(false);
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (have {})",
            spec.workloads.join(", ")
        ));
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    let work = WorkDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut report = match workload.as_str() {
        "train_wide_vocab" => {
            train::run(train::TrainKind::WideVocab, seed, seconds, traced, &work.0)
        }
        "train_link_heavy" => {
            train::run(train::TrainKind::LinkHeavy, seed, seconds, traced, &work.0)
        }
        "serve_query_mix" => serve::run(serve::ServeKind::QueryMix, seed, seconds, traced, &work.0),
        "serve_foldin_reload" => serve::run(
            serve::ServeKind::FoldinReload,
            seed,
            seconds,
            traced,
            &work.0,
        ),
        other => return Err(format!("workload `{other}` has no implementation")),
    };
    report.metric("peak_rss_mb", peak_rss_mb());
    drop(work);

    for (key, value) in &report.info {
        println!("info {workload} {key} {value}");
    }
    for (name, result) in &report.checks {
        match result {
            Ok(()) => println!("check {workload} {name}: ok"),
            Err(detail) => {
                println!("check {workload} {name}: FAILED: {detail}");
                eprintln!("check failed: {name}: {detail}");
            }
        }
    }
    let wanted: Vec<(&str, &str)> = if traced {
        spec.per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
            .collect()
    };
    let mut metrics = Vec::new();
    let mut idle = Vec::new();
    for (name, unit) in wanted {
        let value = match report.value(name) {
            Some(v) => v,
            // A layer this workload never calls did no work in it.
            None if traced => {
                idle.push(Json::from(name));
                0.0
            }
            None => return Err(format!("workload `{workload}` did not measure `{name}`")),
        };
        metrics.push((
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }
    if !idle.is_empty() {
        println!("info {workload} layers_not_exercised {}", Json::Arr(idle));
    }
    if let Some(ledger) = &report.ledger {
        let path = out_dir().join(format!("ledger-{workload}-seed{seed}.json"));
        std::fs::write(&path, ledger.to_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (stage, n, total, p50, p99) in ledger.rows() {
            println!("ledger {workload} {stage} n={n} total_s={total:.6} median_s={p50:.9} p99_s={p99:.9}");
        }
    }
    let correct = report.checks.iter().all(|(_, r)| r.is_ok());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(report.attempted.max(1))),
            ("failed", Json::from(report.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every workload (or the named ones) in its own process, so each
/// `peak_rss_mb` is that workload's alone.
fn run_all(spec: &Spec, args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut runs, mut seconds, mut traced) = (1u64, 1u64, spec.run_seconds, false);
    let (mut only, mut out) = (Vec::new(), None);
    for (flag, value) in flags(args)? {
        let need = || {
            value
                .clone()
                .ok_or_else(|| format!("--{flag} needs a value"))
        };
        match flag.as_str() {
            "seed" => seed = parsed(&flag, &need()?)?,
            "runs" => runs = parsed(&flag, &need()?)?,
            "seconds" => seconds = parsed(&flag, &need()?)?,
            "workload" => only.push(need()?),
            "out" => out = Some(PathBuf::from(need()?)),
            "traced" => traced = true,
            _ => return Err(format!("unknown flag --{flag}")),
        }
    }
    let workloads: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| only.is_empty() || only.contains(w))
        .collect();
    let seeds: Vec<u64> = (seed..seed + runs).collect();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for &s in &seeds {
        for w in &workloads {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &s.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let info: Vec<(String, Json)> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("info "))
                .filter_map(|l| l.split_once(' ').map(|(_, rest)| rest))
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        Json::parse(v).unwrap_or_else(|_| Json::from(v)),
                    )
                })
                .collect();
            let ok = output.status.success()
                && result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .and_then(Json::as_bool)
                    == Some(true);
            all_ok &= ok;
            if let Some(Json::Obj(metrics)) = result.as_ref().and_then(|r| r.get("metrics")) {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("{name} {w} {value} {unit}");
                }
            } else {
                println!(
                    "error {w} seed {s}: no result line (exit {})",
                    output.status
                );
            }
            records.push(Json::obj([
                ("workload", Json::from(w.as_str())),
                ("seed", Json::from(s)),
                (
                    "exit_code",
                    Json::Num(output.status.code().map_or(-1.0, f64::from)),
                ),
                ("result", result.unwrap_or(Json::Null)),
                ("info", Json::Obj(info)),
            ]));
        }
    }
    let results = Json::obj([
        ("provenance", provenance(&seeds)),
        ("seconds", Json::from(seconds)),
        ("traced", Json::from(traced)),
        ("runs", Json::Arr(records)),
    ]);
    let path = out.unwrap_or_else(|| {
        out_dir().join(format!(
            "results-seed{seed}-runs{runs}{}.json",
            if traced { "-traced" } else { "" }
        ))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, results.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `(seed, value)` of one metric on one workload across a results file.
fn series(results: &Json, workload: &str, metric: &str) -> Vec<(u64, f64)> {
    results
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            let seed = r.get("seed").and_then(Json::as_f64)? as u64;
            let value = r
                .get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()?;
            Some((seed, value))
        })
        .collect()
}

/// How B reads against A for one metric on one workload.
#[derive(Debug, PartialEq)]
enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// Seed-matched pairs a gain needs before it can be claimed.
const MIN_PAIRS: usize = 10;

/// One metric on one workload, B read against A.
#[derive(Debug)]
struct Comparison {
    verdict: Verdict,
    /// Seed-matched pairs B won, and pairs run.
    wins: usize,
    pairs: usize,
    /// First quartile, median and third quartile of each side.
    a: (f64, f64, f64),
    b: (f64, f64, f64),
}

/// The comparison rule: B is worse when its median is worse than A's by
/// more than `bound` (a share of A's median); the verdict is unresolved
/// when either side's quartile spread exceeds the bound, unless every
/// run of B beats every run of A; B is better only when it wins at least
/// nine in ten of at least ten seed-matched pairs and the medians differ
/// by more than A's own quartile spread.
fn compare_series(a: &[(u64, f64)], b: &[(u64, f64)], higher: bool, bound: f64) -> Comparison {
    let va: Vec<f64> = a.iter().map(|x| x.1).collect();
    let vb: Vec<f64> = b.iter().map(|x| x.1).collect();
    let (qa1, ma, qa3) = quartiles(&va);
    let (qb1, mb, qb3) = quartiles(&vb);
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(s, x)| b.iter().find(|(t, _)| t == s).map(|(_, y)| (*x, *y)))
        .collect();
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    let worse_by = if higher { ma - mb } else { mb - ma } / ma.abs();
    let spread_a = (qa3 - qa1) / ma.abs();
    let spread_b = (qb3 - qb1) / mb.abs();
    let dominates = vb.iter().all(|y| va.iter().all(|x| better(*y, *x)));
    let verdict = if spread_a > bound || spread_b > bound {
        if dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if pairs.len() >= MIN_PAIRS
        && wins * 10 >= pairs.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > qa3 - qa1
    {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Comparison {
        verdict,
        wins,
        pairs: pairs.len(),
        a: (qa1, ma, qa3),
        b: (qb1, mb, qb3),
    }
}

fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<14} {:<20} {:>36} {:>36} {:>8} {:>6}  verdict",
        "metric", "workload", "A median [q1, q3] n", "B median [q1, q3] n", "change", "wins"
    );
    let mut clean = true;
    let fmt = |(q1, m, q3): (f64, f64, f64), n: usize| format!("{m:.6} [{q1:.6}, {q3:.6}] {n}");
    for (metric, _, higher, bound) in &spec.end_to_end {
        for w in &spec.workloads {
            let (sa, sb) = (series(&a, w, metric), series(&b, w, metric));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let c = compare_series(&sa, &sb, *higher, *bound);
            clean &= matches!(c.verdict, Verdict::Better | Verdict::Within);
            println!(
                "{metric:<14} {w:<20} {:>36} {:>36} {:>+7.2}% {:>3}/{:<2}  {:?} (bound {bound})",
                fmt(c.a, sa.len()),
                fmt(c.b, sb.len()),
                (c.b.1 - c.a.1) / c.a.1.abs() * 100.0,
                c.wins,
                c.pairs,
                c.verdict,
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn compare_verdicts_follow_the_bound_and_pair_rules() {
        let a = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let verdict = |b: &[(u64, f64)], higher| compare_series(&a, b, higher, 0.1).verdict;
        // Same distribution: within bound.
        assert_eq!(verdict(&a, false), Verdict::Within);
        // 20 % slower on a lower-is-better metric: worse.
        let slow: Vec<(u64, f64)> = a.iter().map(|(s, x)| (*s, x * 1.2)).collect();
        assert_eq!(verdict(&slow, false), Verdict::Worse);
        // 5 % faster in every pair, beyond A's spread: better, 10/10.
        let fast: Vec<(u64, f64)> = a.iter().map(|(s, x)| (*s, x * 0.95)).collect();
        let c = compare_series(&a, &fast, false, 0.1);
        assert_eq!((c.verdict, c.wins, c.pairs), (Verdict::Better, 10, 10));
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&fast, true), Verdict::Within);
        // Too few pairs to claim the gain.
        assert_eq!(
            compare_series(&a[..5], &fast[..5], false, 0.1).verdict,
            Verdict::Within
        );
        // A spread wider than the bound leaves it unresolved.
        let noisy = runs(&[
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(verdict(&noisy, false), Verdict::Unresolved);
    }
}
