//! Model persistence: save and load a fitted [`CpdModel`] in a
//! self-describing, line-oriented text format.
//!
//! Profiling is done **once, offline** and then serves multiple
//! applications (remark 1, Sect. 1 of the paper), so a fitted model
//! needs to outlive the process. `serde_json` is not on the offline
//! dependency allowlist, so the format is a small hand-rolled section
//! layout; `f64` values use Rust's shortest-round-trip formatting, so a
//! round trip is bit-exact.

use crate::features::N_FEATURES;
use crate::profiles::{CpdModel, Eta};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic header of the format.
const MAGIC: &str = "cpd-model v1";

/// Errors loading a persisted model.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a CPD model file or is structurally corrupt.
    Format(String),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model io error: {e}"),
            ModelIoError::Format(m) => write!(f, "model format error: {m}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl ModelIoError {
    /// Prefix the error with the file it concerns. The stream-level
    /// entry points ([`read_model`]/[`write_model`]) are path-agnostic;
    /// the file-path entry points ([`load_model`]/[`save_model`]) wrap
    /// every failure through here so callers that relay the message —
    /// e.g. a serving hot-reload answering over the wire — always name
    /// the offending snapshot. `Io` stays `Io` (the `ErrorKind` is
    /// preserved for programmatic handling), `Format` stays `Format`.
    pub fn with_path(self, path: &Path) -> Self {
        match self {
            ModelIoError::Io(e) => ModelIoError::Io(std::io::Error::new(
                e.kind(),
                format!("{}: {e}", path.display()),
            )),
            ModelIoError::Format(m) => ModelIoError::Format(format!("{}: {m}", path.display())),
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Write `model` to `writer`.
pub fn write_model<W: Write>(model: &CpdModel, writer: W) -> Result<(), ModelIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{MAGIC}")?;
    write_matrix(&mut w, "pi", &model.pi)?;
    write_matrix(&mut w, "theta", &model.theta)?;
    write_matrix(&mut w, "phi", &model.phi)?;
    writeln!(
        w,
        "eta {} {}",
        model.eta.n_communities(),
        model.eta.n_topics()
    )?;
    write_row(&mut w, model.eta.as_slice())?;
    writeln!(w, "nu {}", model.nu.len())?;
    write_row(&mut w, &model.nu)?;
    write_matrix(&mut w, "topic_popularity", &model.topic_popularity)?;
    writeln!(w, "doc_community {}", model.doc_community.len())?;
    write_u32_row(&mut w, &model.doc_community)?;
    writeln!(w, "doc_topic {}", model.doc_topic.len())?;
    write_u32_row(&mut w, &model.doc_topic)?;
    w.flush()?;
    Ok(())
}

/// Save `model` to a file at `path`, **crash-safely**: the bytes are
/// written to a process-unique `.tmp` sibling in the same directory,
/// synced, and then renamed into place. A process killed mid-save can
/// leave a stale `*.tmp` file behind but never a torn `cpd-model v1`
/// file at `path` — the serving side ([`load_model`]) either sees the
/// old complete snapshot or the new one. The temp name carries the pid
/// and a counter, so concurrent savers (e.g. overlapping refit jobs)
/// cannot interleave writes in one temp file; last rename wins with a
/// complete snapshot.
pub fn save_model(model: &CpdModel, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    static SAVE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        write_model(model, &file)?;
        // Flush file contents to disk before the rename publishes them.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        // Best effort: do not leave the partial sibling behind.
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e: ModelIoError| e.with_path(path))
}

/// Read a model from `reader`.
pub fn read_model<R: Read>(reader: R) -> Result<CpdModel, ModelIoError> {
    let mut lines = BufReader::new(reader).lines();
    let mut next_line = move || -> Result<String, ModelIoError> {
        lines
            .next()
            .ok_or_else(|| ModelIoError::Format("unexpected end of file".into()))?
            .map_err(ModelIoError::from)
    };
    let header = next_line()?;
    if header != MAGIC {
        // Distinguish "not our file at all" from "our file, a version
        // this build does not speak" — the latter shows up whenever the
        // format (or the serve index built on it) bumps its version and
        // an old reader meets a new snapshot.
        if header.starts_with("cpd-model v") {
            return Err(ModelIoError::Format(format!(
                "unsupported model format version `{header}` (this build reads `{MAGIC}`; \
                 re-save the model with a matching build or upgrade this reader)"
            )));
        }
        return Err(ModelIoError::Format(format!("missing `{MAGIC}` header")));
    }
    let pi = read_matrix(&mut next_line, "pi")?;
    let theta = read_matrix(&mut next_line, "theta")?;
    let phi = read_matrix(&mut next_line, "phi")?;

    let (c_n, z_n) = read_header(&next_line()?, "eta")?;
    let len = c_n
        .checked_mul(c_n)
        .and_then(|n| n.checked_mul(z_n))
        .ok_or_else(|| ModelIoError::Format("eta dimensions overflow".into()))?;
    let flat = parse_f64_row(&next_line()?, len)?;
    // The values were row-normalised when saved: they load as stored,
    // bit for bit, and damage is a format error.
    let eta = Eta::from_normalised(c_n, z_n, flat).map_err(ModelIoError::Format)?;

    let (nu_len, _) = read_header_one(&next_line()?, "nu")?;
    let nu = parse_f64_row(&next_line()?, nu_len)?;
    if nu_len != N_FEATURES {
        return Err(ModelIoError::Format(format!(
            "nu has {nu_len} entries, expected {N_FEATURES}"
        )));
    }
    let topic_popularity = read_matrix(&mut next_line, "topic_popularity")?;
    let (d_n, _) = read_header_one(&next_line()?, "doc_community")?;
    let doc_community = parse_u32_row(&next_line()?, d_n)?;
    let (d_n2, _) = read_header_one(&next_line()?, "doc_topic")?;
    let doc_topic = parse_u32_row(&next_line()?, d_n2)?;
    if d_n != d_n2 {
        return Err(ModelIoError::Format(
            "doc_community / doc_topic length mismatch".into(),
        ));
    }
    let model = CpdModel {
        pi,
        theta,
        phi,
        eta,
        nu,
        topic_popularity,
        doc_community,
        doc_topic,
    };
    validate(&model)?;
    Ok(model)
}

/// Load a model from a file at `path` (the serving hot-reload path).
/// Failures carry the path, so a relayed error names the snapshot.
pub fn load_model(path: impl AsRef<Path>) -> Result<CpdModel, ModelIoError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| ModelIoError::from(e).with_path(path))?;
    read_model(file).map_err(|e| e.with_path(path))
}

fn validate(model: &CpdModel) -> Result<(), ModelIoError> {
    let c_n = model.n_communities();
    let z_n = model.n_topics();
    if model.eta.n_communities() != c_n || model.eta.n_topics() != z_n {
        return Err(ModelIoError::Format(
            "eta dimensions disagree with theta/phi".into(),
        ));
    }
    for (name, rows, width) in [
        ("pi", &model.pi, c_n),
        ("theta", &model.theta, z_n),
        ("phi", &model.phi, model.vocab_size()),
        ("topic_popularity", &model.topic_popularity, z_n),
    ] {
        for row in rows.iter() {
            if row.len() != width {
                return Err(ModelIoError::Format(format!(
                    "{name} row width {} != {width}",
                    row.len()
                )));
            }
            if !row.iter().all(|x| x.is_finite()) {
                return Err(ModelIoError::Format(format!(
                    "{name} contains non-finite values"
                )));
            }
        }
    }
    Ok(())
}

fn write_matrix<W: Write>(w: &mut W, name: &str, rows: &[Vec<f64>]) -> Result<(), ModelIoError> {
    let width = rows.first().map_or(0, |r| r.len());
    writeln!(w, "{name} {} {width}", rows.len())?;
    for row in rows {
        write_row(w, row)?;
    }
    Ok(())
}

fn write_row<W: Write>(w: &mut W, row: &[f64]) -> Result<(), ModelIoError> {
    let mut first = true;
    for x in row {
        if !first {
            write!(w, " ")?;
        }
        write!(w, "{x}")?;
        first = false;
    }
    writeln!(w)?;
    Ok(())
}

fn write_u32_row<W: Write>(w: &mut W, row: &[u32]) -> Result<(), ModelIoError> {
    let strs: Vec<String> = row.iter().map(|x| x.to_string()).collect();
    writeln!(w, "{}", strs.join(" "))?;
    Ok(())
}

fn read_matrix(
    next_line: &mut impl FnMut() -> Result<String, ModelIoError>,
    name: &str,
) -> Result<Vec<Vec<f64>>, ModelIoError> {
    let (n_rows, width) = read_header(&next_line()?, name)?;
    // A damaged header must not size an allocation: rows grow as they
    // actually parse.
    let mut rows = Vec::new();
    for _ in 0..n_rows {
        rows.push(parse_f64_row(&next_line()?, width)?);
    }
    Ok(rows)
}

fn read_header(line: &str, expected: &str) -> Result<(usize, usize), ModelIoError> {
    let mut parts = line.split_whitespace();
    let name = parts.next().unwrap_or("");
    if name != expected {
        return Err(ModelIoError::Format(format!(
            "expected section `{expected}`, found `{name}`"
        )));
    }
    let a = parse_usize(parts.next(), expected)?;
    let b = parse_usize(parts.next(), expected)?;
    Ok((a, b))
}

fn read_header_one(line: &str, expected: &str) -> Result<(usize, ()), ModelIoError> {
    let mut parts = line.split_whitespace();
    let name = parts.next().unwrap_or("");
    if name != expected {
        return Err(ModelIoError::Format(format!(
            "expected section `{expected}`, found `{name}`"
        )));
    }
    Ok((parse_usize(parts.next(), expected)?, ()))
}

fn parse_usize(token: Option<&str>, section: &str) -> Result<usize, ModelIoError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ModelIoError::Format(format!("bad dimension in `{section}` header")))
}

fn parse_f64_row(line: &str, expected: usize) -> Result<Vec<f64>, ModelIoError> {
    let row: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse).collect();
    let row = row.map_err(|e| ModelIoError::Format(format!("bad float: {e}")))?;
    if row.len() != expected {
        return Err(ModelIoError::Format(format!(
            "row has {} values, expected {expected}",
            row.len()
        )));
    }
    Ok(row)
}

fn parse_u32_row(line: &str, expected: usize) -> Result<Vec<u32>, ModelIoError> {
    if expected == 0 {
        return Ok(Vec::new());
    }
    let row: Result<Vec<u32>, _> = line.split_whitespace().map(str::parse).collect();
    let row = row.map_err(|e| ModelIoError::Format(format!("bad integer: {e}")))?;
    if row.len() != expected {
        return Err(ModelIoError::Format(format!(
            "row has {} values, expected {expected}",
            row.len()
        )));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpdConfig;
    use crate::model::Cpd;
    use cpd_datagen::{generate, GenConfig, Scale};

    fn fitted_model() -> CpdModel {
        fitted_model_sized(3, 4)
    }

    fn fitted_model_sized(n_communities: usize, n_topics: usize) -> CpdModel {
        let (g, _) = generate(&GenConfig::twitter_like(Scale::Tiny));
        let cfg = CpdConfig {
            em_iters: 2,
            gibbs_sweeps: 1,
            nu_iters: 10,
            seed: 77,
            ..CpdConfig::new(n_communities, n_topics)
        };
        Cpd::new(cfg).unwrap().fit(&g).model
    }

    /// The `eta` values line of a serialised model.
    fn eta_line(text: &str) -> usize {
        let header = text
            .lines()
            .position(|l| l.starts_with("eta "))
            .expect("eta section");
        header + 1
    }

    /// `text` with its `eta` values line rewritten by `f`.
    fn with_eta(text: &str, f: impl Fn(&mut Vec<String>)) -> String {
        let at = eta_line(text);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut cells: Vec<String> = lines[at].split_whitespace().map(str::to_owned).collect();
        f(&mut cells);
        lines[at] = cells.join(" ");
        lines.join("\n") + "\n"
    }

    #[test]
    fn round_trip_is_exact() {
        // |C|·|Z| = 1,000 cells per η row: large enough that dividing a
        // stored row by its float sum again moves some values.
        let model = fitted_model_sized(20, 50);
        let renormalised = Eta::from_counts(20, 50, model.eta.as_slice(), 0.0);
        assert_ne!(
            renormalised.as_slice(),
            model.eta.as_slice(),
            "this size no longer shows re-normalisation drift"
        );
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let loaded = read_model(&buf[..]).unwrap();
        assert_eq!(model.pi, loaded.pi);
        assert_eq!(model.theta, loaded.theta);
        assert_eq!(model.phi, loaded.phi);
        assert_eq!(model.eta.as_slice(), loaded.eta.as_slice());
        assert_eq!(model.nu, loaded.nu);
        assert_eq!(model.topic_popularity, loaded.topic_popularity);
        assert_eq!(model.doc_community, loaded.doc_community);
        assert_eq!(model.doc_topic, loaded.doc_topic);
    }

    #[test]
    fn rejects_damaged_eta_with_a_format_error() {
        let model = fitted_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        type Damage = fn(&mut Vec<String>);
        let damage: [(&str, Damage); 5] = [
            ("NaN cell", |c| c[0] = "NaN".into()),
            ("infinite cell", |c| c[1] = "inf".into()),
            ("negative cell", |c| c[0] = format!("-{}", c[0])),
            ("row sum off", |c| c[2] = "0.5".into()),
            ("short row", |c| drop(c.pop())),
        ];
        for (what, f) in damage {
            let damaged = with_eta(&text, f);
            assert_ne!(damaged, text, "{what}: damage must change the file");
            match read_model(damaged.as_bytes()) {
                Err(ModelIoError::Format(msg)) => assert!(!msg.is_empty(), "{what}"),
                other => panic!("{what}: expected a format error, got {other:?}"),
            }
        }
        // An undamaged rewrite still loads.
        assert!(read_model(with_eta(&text, |_| {}).as_bytes()).is_ok());
    }

    #[test]
    fn rejects_absurd_section_dimensions() {
        let model = fitted_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for section in ["theta", "eta"] {
            let damaged: Vec<String> = text
                .lines()
                .map(|l| {
                    if l.split_whitespace().next() == Some(section) {
                        format!("{section} {} 3", usize::MAX / 2)
                    } else {
                        l.to_owned()
                    }
                })
                .collect();
            assert!(
                matches!(
                    read_model(damaged.join("\n").as_bytes()),
                    Err(ModelIoError::Format(_))
                ),
                "{section}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let model = fitted_model();
        let dir = std::env::temp_dir().join("cpd-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cpd");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(model.pi, loaded.pi);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_tmp_sibling_and_overwrites_atomically() {
        let model = fitted_model();
        let dir = std::env::temp_dir().join("cpd-io-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cpd");
        save_model(&model, &path).unwrap();
        // Overwrite an existing snapshot: same guarantees.
        save_model(&model, &path).unwrap();
        assert!(path.exists());
        let leftover_tmp = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!leftover_tmp, "tmp siblings must be renamed away");
        let loaded = load_model(&path).unwrap();
        assert_eq!(model.pi, loaded.pi);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_model(&b"not a model\n"[..]).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn future_version_gets_a_version_error_not_a_magic_error() {
        let err = read_model(&b"cpd-model v2\npi 1 1\n0.5\n"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported model format version"), "{msg}");
        assert!(msg.contains("cpd-model v2"), "{msg}");
        assert!(msg.contains(MAGIC), "{msg}");
    }

    #[test]
    fn rejects_truncated_input() {
        let model = fitted_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(read_model(truncated).is_err());
    }

    #[test]
    fn rejects_corrupted_floats() {
        let model = fitted_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let corrupted = text.replacen("0.", "xx.", 1);
        assert!(read_model(corrupted.as_bytes()).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let model = fitted_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Lie about the pi width.
        let corrupted = text.replacen("pi 120 3", "pi 120 4", 1);
        assert!(read_model(corrupted.as_bytes()).is_err());
    }
}
