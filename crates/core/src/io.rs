//! Model persistence: save and load a fitted [`CpdModel`] as a
//! checksummed binary snapshot, `cpd-model v2`.
//!
//! Profiling is done **once, offline** and then serves multiple
//! applications (remark 1, Sect. 1 of the paper), so a fitted model
//! needs to outlive the process, and every serving cold start and hot
//! reload reads it back. The snapshot is the model's own numbers in
//! raw little-endian form, section after section:
//!
//! | section | dimensions (`u64` LE each) | payload |
//! |---|---|---|
//! | magic | — | the line `cpd-model v2\n` |
//! | `pi` | rows `U`, width `C` | `U·C` × `f64` LE, row-major |
//! | `theta` | rows `C`, width `Z` | `C·Z` × `f64` LE, row-major |
//! | `phi` | rows `Z`, width `V` | `Z·V` × `f64` LE, row-major |
//! | `eta` | `C`, `Z` | `C·C·Z` × `f64` LE (`c`-major, then `c'`, then `z`) |
//! | `nu` | length `F` | `F` × `f64` LE |
//! | `topic_popularity` | rows `T`, width `Z` | `T·Z` × `f64` LE, row-major |
//! | `doc_community` | length `D` | `D` × `u32` LE |
//! | `doc_topic` | length `D` | `D` × `u32` LE |
//! | checksum | — | one `u64` LE |
//!
//! The checksum is FNV-1a over every byte after the magic line, taken
//! as consecutive 64-bit little-endian words (a final partial word,
//! possible only in a damaged file, is zero-padded). Nothing follows
//! it.
//!
//! **Bit-exact.** Every `f64` is stored as its IEEE-754 bits, so a
//! [`write_model`] → [`read_model`] round trip returns the model bit
//! for bit, `η` included: nothing is parsed, rounded or re-normalised.
//!
//! **Damage is a typed error.** A truncated or extended file, one with a
//! flipped bit, or one with absurd dimensions loads as
//! [`ModelIoError::Format`] (or [`ModelIoError::Io`] when the reader
//! itself fails), never a panic and never `Ok`:
//!
//! * the reader moves payload in bounded chunks and allocates as the
//!   bytes arrive (at most twice what it has read, and a row never past
//!   its width), so no header count sizes an allocation, and a matrix of
//!   zero-width rows must have no rows, so no header can make it loop
//!   without reading;
//! * each checksum step (xor a word, multiply by an odd prime) is a
//!   bijection, so a changed word — any single flipped bit — always
//!   changes the sum;
//! * the loaded model then passes the same semantic checks as ever:
//!   `η` rows through [`Eta::from_normalised`], the `nu` length,
//!   matching doc lengths, and every matrix's width and finiteness;
//! * `nu` must be finite too: one NaN cell makes every diffusion score
//!   NaN, and a diverged fit saves such a `nu` under an intact checksum.
//!
//! **One pass.** Summing is the one serial step of a load: each
//! checksum step waits on the one before it. So the reader walks every
//! chunk of an `f64` section once, and the loop that takes a word
//! through the checksum step also decodes it into its row and folds
//! `is_finite` into a flag for the section; the decode and the check run
//! in the shadow of the multiply chain instead of as passes of their
//! own. Dimension words and the `u32` sections are summed, then decoded.
//! No value is judged before the stored checksum matches, and a flagged
//! section is rescanned only to report it, so every error keeps its
//! text and its precedence.
//!
//! **One format.** The writer writes only v2 and the reader reads only
//! v2; a `cpd-model v1` text snapshot, or any other version, gets a
//! typed "unsupported model format version … re-save" error. A second
//! reader would be a second damage surface to sweep, kept for no
//! caller: every snapshot is written by [`save_model`] at the end of a
//! fit, and a fit saves in well under a second.

use crate::features::N_FEATURES;
use crate::profiles::{CpdModel, Eta};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic line of the format (written with a trailing `\n`).
const MAGIC: &str = "cpd-model v2";

/// Longest first line the reader examines before calling the input
/// "not a snapshot".
const MAX_MAGIC_LINE: u64 = 64;

/// Payload bytes moved per read or write: a multiple of both element
/// sizes, and bounded whatever a header says.
const CHUNK_BYTES: usize = 64 * 1024;

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
///
/// # Errors
///
/// [`ModelIoError::Io`] when `writer` fails; [`ModelIoError::Format`]
/// when a matrix is ragged or has rows of width 0, which the layout
/// cannot represent (and the loader would refuse).
pub fn write_model<W: Write>(model: &CpdModel, writer: W) -> Result<(), ModelIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{MAGIC}")?;
    let mut w = SnapshotWriter {
        inner: w,
        sum: Fnv64::new(),
        chunk: vec![0; CHUNK_BYTES],
    };
    w.matrix("pi", &model.pi)?;
    w.matrix("theta", &model.theta)?;
    w.matrix("phi", &model.phi)?;
    w.dim(model.eta.n_communities())?;
    w.dim(model.eta.n_topics())?;
    w.values(model.eta.as_slice(), f64::to_le_bytes)?;
    w.dim(model.nu.len())?;
    w.values(&model.nu, f64::to_le_bytes)?;
    w.matrix("topic_popularity", &model.topic_popularity)?;
    w.dim(model.doc_community.len())?;
    w.values(&model.doc_community, u32::to_le_bytes)?;
    w.dim(model.doc_topic.len())?;
    w.values(&model.doc_topic, u32::to_le_bytes)?;
    let sum = w.sum.finish();
    w.inner.write_all(&sum.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

/// Save `model` to a file at `path`, **crash-safely**: the bytes are
/// written to a process-unique `.tmp` sibling in the same directory,
/// synced, and then renamed into place. A process killed mid-save can
/// leave a stale `*.tmp` file behind but never a torn snapshot at
/// `path` — the serving side ([`load_model`]) either sees the old
/// complete snapshot or the new one. The temp name carries the pid and
/// a counter, so concurrent savers (e.g. overlapping refit jobs) cannot
/// interleave writes in one temp file; last rename wins with a complete
/// snapshot.
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
///
/// # Errors
///
/// [`ModelIoError::Format`] for anything that is not an intact
/// `cpd-model v2` snapshot of a valid model (see the module docs);
/// [`ModelIoError::Io`] when `reader` fails.
pub fn read_model<R: Read>(reader: R) -> Result<CpdModel, ModelIoError> {
    let mut inner = BufReader::new(reader);
    read_magic(&mut inner)?;
    let mut r = SnapshotReader {
        inner,
        sum: Fnv64::new(),
        chunk: vec![0; CHUNK_BYTES],
        non_finite: Vec::new(),
    };
    let pi = r.matrix("pi")?;
    let theta = r.matrix("theta")?;
    let phi = r.matrix("phi")?;
    let (c_n, z_n) = (r.dim("eta")?, r.dim("eta")?);
    let cells = c_n
        .checked_mul(c_n)
        .and_then(|n| n.checked_mul(z_n))
        .ok_or_else(|| ModelIoError::Format("eta dimensions overflow".into()))?;
    let eta = r.float_vec(cells, "eta")?;
    let nu_len = r.dim("nu")?;
    let nu = r.float_vec(nu_len, "nu")?;
    let topic_popularity = r.matrix("topic_popularity")?;
    let d_n = r.dim("doc_community")?;
    let doc_community = r.values(d_n, "doc_community", u32::from_le_bytes)?;
    let d_n2 = r.dim("doc_topic")?;
    let doc_topic = r.values(d_n2, "doc_topic", u32::from_le_bytes)?;
    r.finish()?;

    // The bytes are intact; now the model they hold must be valid. η
    // was row-normalised when saved: it loads as stored, bit for bit,
    // and damage is a format error.
    let eta = Eta::from_normalised(c_n, z_n, eta).map_err(ModelIoError::Format)?;
    if nu_len != N_FEATURES {
        return Err(ModelIoError::Format(format!(
            "nu has {nu_len} entries, expected {N_FEATURES}"
        )));
    }
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
    validate(&model, &r.non_finite)?;
    Ok(model)
}

/// Load a model from a file at `path` (the serving hot-reload path).
/// Failures carry the path, so a relayed error names the snapshot.
pub fn load_model(path: impl AsRef<Path>) -> Result<CpdModel, ModelIoError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| ModelIoError::from(e).with_path(path))?;
    read_model(file).map_err(|e| e.with_path(path))
}

/// The model's shape and values. `non_finite` names the sections that
/// hold a non-finite value, as the reader found them; a section's rows
/// are scanned again only when it is named, to report it in row order.
fn validate(model: &CpdModel, non_finite: &[&str]) -> Result<(), ModelIoError> {
    let c_n = model.n_communities();
    let z_n = model.n_topics();
    if model.eta.n_communities() != c_n || model.eta.n_topics() != z_n {
        return Err(ModelIoError::Format(
            "eta dimensions disagree with theta/phi".into(),
        ));
    }
    let non_finite_values =
        |name: &str| ModelIoError::Format(format!("{name} contains non-finite values"));
    for (name, rows, width) in [
        ("pi", &model.pi, c_n),
        ("theta", &model.theta, z_n),
        ("phi", &model.phi, model.vocab_size()),
        ("topic_popularity", &model.topic_popularity, z_n),
    ] {
        let flagged = non_finite.contains(&name);
        for row in rows.iter() {
            if row.len() != width {
                return Err(ModelIoError::Format(format!(
                    "{name} row width {} != {width}",
                    row.len()
                )));
            }
            if flagged && !row.iter().all(|x| x.is_finite()) {
                return Err(non_finite_values(name));
            }
        }
    }
    // A NaN in ν would make every diffusion score NaN.
    if non_finite.contains(&"nu") {
        return Err(non_finite_values("nu"));
    }
    Ok(())
}

/// Check the magic line. A different `cpd-model v…` line is told apart
/// from "not our file at all": the former shows up whenever the format
/// bumps its version and an old reader meets a new snapshot (or this
/// reader meets a v1 text snapshot).
fn read_magic<R: BufRead>(reader: &mut R) -> Result<(), ModelIoError> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_MAGIC_LINE)
        .read_until(b'\n', &mut line)?;
    match line.strip_suffix(b"\n") {
        Some(header) if header == MAGIC.as_bytes() => Ok(()),
        None if MAGIC.as_bytes().starts_with(&line) => Err(end_of_file()),
        _ => {
            let header = String::from_utf8_lossy(&line);
            let header = header.trim_end();
            if header.starts_with("cpd-model v") {
                Err(ModelIoError::Format(format!(
                    "unsupported model format version `{header}` (this build reads `{MAGIC}`; \
                     re-save the model with a matching build or upgrade this reader)"
                )))
            } else {
                Err(ModelIoError::Format(format!("missing `{MAGIC}` header")))
            }
        }
    }
}

fn end_of_file() -> ModelIoError {
    ModelIoError::Format("unexpected end of file".into())
}

/// FNV-1a over 64-bit little-endian words, fed in arbitrary pieces.
#[derive(Clone, Copy)]
struct Fnv64 {
    state: u64,
    /// The first bytes of a word not yet complete: a `u32` section can
    /// end mid-word, and the next section completes it.
    pending: [u8; 8],
    pending_len: usize,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self {
            state: Self::OFFSET,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    fn mix(&mut self, word: [u8; 8]) {
        self.state = (self.state ^ u64::from_le_bytes(word)).wrapping_mul(Self::PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.mix(self.pending);
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(word.try_into().expect("an 8-byte chunk"));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// [`Fnv64::update`] over whole words on a word boundary (every
    /// `f64` section starts on one: in the layout they all precede the
    /// `u32` sections), fused with decoding each word as an `f64` into
    /// `out`. Returns whether every decoded value is finite.
    #[inline]
    fn update_f64s(&mut self, bytes: &[u8], out: &mut Vec<f64>) -> bool {
        debug_assert!(self.pending_len == 0 && bytes.len().is_multiple_of(8));
        let (mut state, mut finite) = (self.state, true);
        out.extend(bytes.chunks_exact(8).map(|word| {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            state = (state ^ word).wrapping_mul(Self::PRIME);
            let value = f64::from_bits(word);
            finite &= value.is_finite();
            value
        }));
        self.state = state;
        finite
    }

    /// The sum so far, a trailing partial word zero-padded.
    fn finish(&self) -> u64 {
        let mut last = *self;
        if last.pending_len > 0 {
            last.pending[last.pending_len..].fill(0);
            last.mix(last.pending);
        }
        last.state
    }
}

/// The writing half: every byte after the magic line goes through
/// [`SnapshotWriter::values`], which sums it.
struct SnapshotWriter<W: Write> {
    inner: BufWriter<W>,
    sum: Fnv64,
    /// Encoding buffer of [`CHUNK_BYTES`].
    chunk: Vec<u8>,
}

impl<W: Write> SnapshotWriter<W> {
    fn dim(&mut self, n: usize) -> std::io::Result<()> {
        self.values(&[n as u64], u64::to_le_bytes)
    }

    fn values<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        encode: fn(T) -> [u8; N],
    ) -> std::io::Result<()> {
        for part in values.chunks(CHUNK_BYTES / N) {
            let bytes = &mut self.chunk[..part.len() * N];
            for (slot, &v) in bytes.chunks_exact_mut(N).zip(part) {
                slot.copy_from_slice(&encode(v));
            }
            self.sum.update(bytes);
            self.inner.write_all(bytes)?;
        }
        Ok(())
    }

    fn matrix(&mut self, name: &str, rows: &[Vec<f64>]) -> Result<(), ModelIoError> {
        let width = rows.first().map_or(0, Vec::len);
        if width == 0 && !rows.is_empty() {
            return Err(ModelIoError::Format(format!(
                "{name} has {} rows of width 0",
                rows.len()
            )));
        }
        if let Some((r, row)) = rows.iter().enumerate().find(|(_, row)| row.len() != width) {
            return Err(ModelIoError::Format(format!(
                "{name} row {r} has {} values, expected {width}",
                row.len()
            )));
        }
        self.dim(rows.len())?;
        self.dim(width)?;
        for row in rows {
            self.values(row, f64::to_le_bytes)?;
        }
        Ok(())
    }
}

/// The reading half: every byte after the magic line is summed as it
/// is read, and allocations grow with the bytes read.
struct SnapshotReader<R: Read> {
    inner: BufReader<R>,
    sum: Fnv64,
    /// Read buffer of [`CHUNK_BYTES`].
    chunk: Vec<u8>,
    /// The `f64` sections holding a value that is not finite, noted in
    /// the loop that sums their words.
    non_finite: Vec<&'static str>,
}

impl<R: Read> SnapshotReader<R> {
    /// Read exactly `len <= CHUNK_BYTES` bytes into the chunk buffer,
    /// not yet summed.
    fn read(&mut self, len: usize) -> Result<(), ModelIoError> {
        self.inner
            .read_exact(&mut self.chunk[..len])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => end_of_file(),
                _ => ModelIoError::Io(e),
            })
    }

    /// Read exactly `len <= CHUNK_BYTES` bytes and sum them.
    fn fill(&mut self, len: usize) -> Result<&[u8], ModelIoError> {
        self.read(len)?;
        let bytes = &self.chunk[..len];
        self.sum.update(bytes);
        Ok(bytes)
    }

    fn word(&mut self) -> Result<u64, ModelIoError> {
        let bytes = self.fill(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn dim(&mut self, section: &str) -> Result<usize, ModelIoError> {
        let n = self.word()?;
        usize::try_from(n)
            .map_err(|_| ModelIoError::Format(format!("`{section}` dimension {n} overflows")))
    }

    /// `n` elements of `N` bytes each, decoded chunk by chunk: the
    /// vector grows only with bytes actually read.
    fn values<T, const N: usize>(
        &mut self,
        n: usize,
        section: &str,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ModelIoError> {
        let mut left = n.checked_mul(N).ok_or_else(|| {
            ModelIoError::Format(format!("`{section}` holds {n} values: size overflows"))
        })?;
        let mut out = Vec::new();
        while left > 0 {
            let take = left.min(CHUNK_BYTES);
            let bytes = self.fill(take)?;
            out.extend(
                bytes
                    .chunks_exact(N)
                    .map(|b| decode(b.try_into().expect("an N-byte chunk"))),
            );
            left -= take;
        }
        Ok(out)
    }

    /// `n` `f64` values in rows of `width` (`n` a multiple of it, and
    /// `width > 0` when `n > 0`). Each chunk is read once and walked
    /// once: every word goes through the checksum step, into its row
    /// and through the finiteness check in the same loop. A row grows as
    /// its bytes arrive, doubling but never past its width, so a loaded
    /// row holds no slack.
    fn floats(
        &mut self,
        n: usize,
        width: usize,
        section: &'static str,
    ) -> Result<Vec<Vec<f64>>, ModelIoError> {
        debug_assert!(width > 0 || n == 0, "rows of width 0 read no bytes");
        let mut left = n.checked_mul(8).ok_or_else(|| {
            ModelIoError::Format(format!("`{section}` holds {n} values: size overflows"))
        })?;
        let (mut rows, mut row, mut finite) = (Vec::new(), Vec::new(), true);
        while left > 0 {
            let take = left.min(CHUNK_BYTES);
            self.read(take)?;
            let mut bytes = &self.chunk[..take];
            while !bytes.is_empty() {
                let (head, rest) = bytes.split_at(bytes.len().min(8 * (width - row.len())));
                let need = row.len() + head.len() / 8;
                if need > row.capacity() {
                    // Double, as `extend` would, but never past the
                    // width: a full row holds no slack.
                    let grown = need.max(2 * row.capacity()).min(width);
                    row.reserve_exact(grown - row.len());
                }
                finite &= self.sum.update_f64s(head, &mut row);
                bytes = rest;
                if row.len() == width {
                    rows.push(std::mem::take(&mut row));
                }
            }
            left -= take;
        }
        if !finite {
            self.non_finite.push(section);
        }
        Ok(rows)
    }

    /// A section of `n` `f64` values in one row.
    fn float_vec(&mut self, n: usize, section: &'static str) -> Result<Vec<f64>, ModelIoError> {
        Ok(self.floats(n, n, section)?.pop().unwrap_or_default())
    }

    fn matrix(&mut self, name: &'static str) -> Result<Vec<Vec<f64>>, ModelIoError> {
        let (n_rows, width) = (self.dim(name)?, self.dim(name)?);
        // Each row must consume bytes, or a damaged row count would
        // loop (and allocate) without reading anything.
        if width == 0 && n_rows > 0 {
            return Err(ModelIoError::Format(format!(
                "`{name}` declares {n_rows} rows of width 0"
            )));
        }
        if n_rows
            .checked_mul(width)
            .and_then(|n| n.checked_mul(8))
            .is_none()
        {
            return Err(ModelIoError::Format(format!(
                "`{name}` dimensions {n_rows} x {width} overflow"
            )));
        }
        self.floats(n_rows * width, width, name)
    }

    /// Check the stored checksum against the bytes read, and that
    /// nothing follows it.
    fn finish(&mut self) -> Result<(), ModelIoError> {
        let computed = self.sum.finish();
        let stored = self.word()?;
        if stored != computed {
            return Err(ModelIoError::Format(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        if let Some(next) = self.inner.by_ref().bytes().next() {
            next?;
            return Err(ModelIoError::Format(
                "trailing bytes after the checksum".into(),
            ));
        }
        Ok(())
    }
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

    /// A hand-built model small enough to damage exhaustively. Its odd
    /// document count ends `doc_community` mid-word.
    fn tiny_model() -> CpdModel {
        CpdModel {
            pi: vec![vec![0.75, 0.25], vec![0.5, 0.5], vec![0.125, 0.875]],
            theta: vec![vec![0.5, 0.5], vec![0.25, 0.75]],
            phi: vec![vec![0.5, 0.25, 0.25], vec![0.125, 0.125, 0.75]],
            eta: Eta::from_normalised(2, 2, vec![0.25, 0.25, 0.25, 0.25, 0.5, 0.125, 0.125, 0.25])
                .unwrap(),
            nu: (0..N_FEATURES).map(|i| i as f64 * 0.5 - 1.0).collect(),
            topic_popularity: vec![vec![0.5, 0.5], vec![0.75, 0.25]],
            doc_community: vec![0, 1, 1],
            doc_topic: vec![1, 0, 1],
        }
    }

    fn snapshot(model: &CpdModel) -> Vec<u8> {
        let mut buf = Vec::new();
        write_model(model, &mut buf).unwrap();
        buf
    }

    /// Where each section's dimensions start in `model`'s snapshot, by
    /// the layout table in the module docs; the last entry is the
    /// checksum.
    fn section_starts(model: &CpdModel) -> Vec<(&'static str, usize)> {
        let matrix = |rows: &[Vec<f64>]| 16 + 8 * rows.len() * rows.first().map_or(0, Vec::len);
        let sizes = [
            ("pi", matrix(&model.pi)),
            ("theta", matrix(&model.theta)),
            ("phi", matrix(&model.phi)),
            ("eta", 16 + 8 * model.eta.as_slice().len()),
            ("nu", 8 + 8 * model.nu.len()),
            ("topic_popularity", matrix(&model.topic_popularity)),
            ("doc_community", 8 + 4 * model.doc_community.len()),
            ("doc_topic", 8 + 4 * model.doc_topic.len()),
            ("checksum", 8),
        ];
        let mut at = MAGIC.len() + 1;
        sizes
            .iter()
            .map(|&(name, size)| {
                at += size;
                (name, at - size)
            })
            .collect()
    }

    fn start_of(model: &CpdModel, section: &str) -> usize {
        section_starts(model)
            .into_iter()
            .find(|&(name, _)| name == section)
            .expect("a section of the layout")
            .1
    }

    fn put_u64(buf: &mut [u8], at: usize, value: u64) {
        buf[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Recompute the trailing checksum, so damage is caught by what
    /// reads the values rather than by the sum.
    fn reseal(buf: &mut [u8]) {
        let mut sum = Fnv64::new();
        let end = buf.len() - 8;
        sum.update(&buf[MAGIC.len() + 1..end]);
        put_u64(buf, end, sum.finish());
    }

    fn format_error(buf: &[u8]) -> String {
        match read_model(buf) {
            Err(ModelIoError::Format(msg)) => msg,
            other => panic!("expected a format error, got {other:?}"),
        }
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
    fn layout_matches_the_documented_table() {
        for model in [tiny_model(), fitted_model()] {
            let buf = snapshot(&model);
            assert_eq!(&buf[..MAGIC.len() + 1], b"cpd-model v2\n");
            let starts = section_starts(&model);
            assert_eq!(starts.last().unwrap().1 + 8, buf.len());
            let dim = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
            let pi = start_of(&model, "pi");
            assert_eq!(dim(pi), model.pi.len() as u64);
            assert_eq!(dim(pi + 8), model.n_communities() as u64);
            let phi = start_of(&model, "phi");
            assert_eq!(dim(phi + 8), model.vocab_size() as u64);
            let eta = start_of(&model, "eta");
            assert_eq!(f64::from_bits(dim(eta + 16)), model.eta.as_slice()[0]);
            let docs = start_of(&model, "doc_topic");
            assert_eq!(dim(docs), model.doc_topic.len() as u64);
        }
    }

    /// FNV-1a over bytes, independent of the snapshot's own word sum.
    fn fingerprint(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Any change to the layout, the byte order or the checksum moves
        // this fingerprint; a deliberate format change bumps `MAGIC`.
        // The value was cross-checked against an independent encoder
        // written from the module docs' layout table.
        let buf = snapshot(&tiny_model());
        assert_eq!(buf.len(), 429);
        assert_eq!(
            fingerprint(&buf),
            0xd88e_3c86_8b51_f61d,
            "fingerprint {:#018x}",
            fingerprint(&buf)
        );
    }

    #[test]
    fn checksum_does_not_depend_on_how_bytes_arrive() {
        let bytes: Vec<u8> = (0..=200u8).collect();
        let mut whole = Fnv64::new();
        whole.update(&bytes);
        for split in [1, 3, 4, 7, 8, 9, 100] {
            let mut pieces = Fnv64::new();
            for piece in bytes.chunks(split) {
                pieces.update(piece);
            }
            assert_eq!(pieces.finish(), whole.finish(), "pieces of {split}");
        }
    }

    #[test]
    fn rejects_damaged_eta_with_a_format_error() {
        let model = fitted_model();
        let clean = snapshot(&model);
        let first = start_of(&model, "eta") + 16;
        let c0 = model.eta.as_slice()[0];
        for (what, cell, value) in [
            ("NaN cell", 0, f64::NAN),
            ("infinite cell", 1, f64::INFINITY),
            ("negative cell", 0, -c0),
            ("row sum off", 2, 0.5),
        ] {
            let mut damaged = clean.clone();
            put_u64(&mut damaged, first + 8 * cell, value.to_bits());
            assert_ne!(damaged, clean, "{what}: damage must change the file");
            reseal(&mut damaged);
            let msg = format_error(&damaged);
            assert!(msg.contains("eta row"), "{what}: {msg}");
        }
        // A short row: the last cell is gone and everything after it
        // moves up.
        let mut short = clean.clone();
        let last = first + 8 * model.eta.as_slice().len();
        short.drain(last - 8..last);
        reseal(&mut short);
        assert!(!format_error(&short).is_empty(), "short row");
        // An undamaged rewrite still loads.
        let mut same = clean.clone();
        reseal(&mut same);
        assert_eq!(same, clean);
        assert!(read_model(&same[..]).is_ok());
    }

    #[test]
    fn rejects_absurd_section_dimensions() {
        let model = fitted_model();
        let clean = snapshot(&model);
        for section in ["theta", "eta"] {
            let mut damaged = clean.clone();
            let at = start_of(&model, section);
            put_u64(&mut damaged, at, (usize::MAX / 2) as u64);
            put_u64(&mut damaged, at + 8, 3);
            reseal(&mut damaged);
            let msg = format_error(&damaged);
            assert!(msg.contains("overflow"), "{section}: {msg}");
        }
    }

    #[test]
    fn zero_width_rows_are_refused_without_looping() {
        // 2^40 rows of nothing would loop (and allocate) without
        // reading a byte.
        let model = tiny_model();
        let mut damaged = snapshot(&model);
        let at = start_of(&model, "pi");
        put_u64(&mut damaged, at, 1 << 40);
        put_u64(&mut damaged, at + 8, 0);
        reseal(&mut damaged);
        let msg = format_error(&damaged);
        assert!(msg.contains("width 0"), "{msg}");
    }

    #[test]
    fn huge_sections_fail_at_the_end_of_the_bytes() {
        // A u32 section of 2^60 entries (and an f64 one of 2^40) reads
        // only the bytes that exist and then stops: nothing is sized
        // from the header.
        let model = tiny_model();
        for (section, n) in [("doc_community", 1u64 << 60), ("nu", 1 << 40)] {
            let mut damaged = snapshot(&model);
            put_u64(&mut damaged, start_of(&model, section), n);
            reseal(&mut damaged);
            let msg = format_error(&damaged);
            assert!(msg.contains("unexpected end of file"), "{section}: {msg}");
        }
    }

    #[test]
    fn writer_refuses_matrices_the_layout_cannot_hold() {
        let mut ragged = tiny_model();
        ragged.phi[1].pop();
        let mut empty_rows = tiny_model();
        empty_rows.phi = vec![Vec::new(); 2];
        for (what, model) in [("ragged", ragged), ("zero width", empty_rows)] {
            match write_model(&model, Vec::new()) {
                Err(ModelIoError::Format(msg)) => assert!(msg.contains("phi"), "{what}: {msg}"),
                other => panic!("{what}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_a_typed_error() {
        let model = tiny_model();
        let buf = snapshot(&model);
        assert!(read_model(&buf[..]).is_ok());
        let typed = |bytes: &[u8]| {
            matches!(
                read_model(bytes),
                Err(ModelIoError::Format(_) | ModelIoError::Io(_))
            )
        };
        for len in 0..buf.len() {
            assert!(typed(&buf[..len]), "truncated to {len} bytes");
        }
        let mut flipped = buf.clone();
        for i in 0..buf.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert!(typed(&flipped), "bit {bit} of byte {i} flipped");
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut buf = snapshot(&tiny_model());
        buf.push(0);
        let msg = format_error(&buf);
        assert!(msg.contains("trailing"), "{msg}");
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
        let err = read_model(&b"cpd-model v3\n\x01\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported model format version"), "{msg}");
        assert!(msg.contains("cpd-model v3"), "{msg}");
        assert!(msg.contains(MAGIC), "{msg}");
    }

    #[test]
    fn v1_text_snapshot_gets_the_version_error() {
        let err = read_model(&b"cpd-model v1\npi 1 1\n0.5\n"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ModelIoError::Format(_)), "{msg}");
        assert!(msg.contains("unsupported model format version"), "{msg}");
        assert!(msg.contains("`cpd-model v1`"), "{msg}");
        assert!(msg.contains("re-save"), "{msg}");
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
        let clean = snapshot(&model);
        let first_phi = start_of(&model, "phi") + 16;
        // A flipped bit in a stored float: the checksum catches it.
        let mut flipped = clean.clone();
        flipped[first_phi + 3] ^= 0x10;
        assert!(format_error(&flipped).contains("checksum"));
        // A float that is intact on disk but not finite: validation does.
        let mut nan = clean;
        put_u64(&mut nan, first_phi, f64::NAN.to_bits());
        reseal(&mut nan);
        let msg = format_error(&nan);
        assert!(msg.contains("phi contains non-finite values"), "{msg}");
    }

    /// A model whose `pi` rows straddle read chunks (8,192 words each)
    /// and whose `phi` rows are wider than one, holding values with
    /// full mantissas.
    fn wide_model() -> CpdModel {
        let (u_n, c_n, z_n, v_n) = (3_000, 3, 2, 9_000);
        let value = |i: usize| (i as f64 * 0.618_033_988_749_895).fract();
        let rows = |n: usize, width: usize, base: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|r| (0..width).map(|c| value(base + r * width + c)).collect())
                .collect()
        };
        CpdModel {
            pi: rows(u_n, c_n, 0),
            theta: rows(c_n, z_n, 1 << 20),
            phi: rows(z_n, v_n, 2 << 20),
            eta: Eta::uniform(c_n, z_n),
            nu: (0..N_FEATURES).map(|i| value(3 << 20 | i) - 0.5).collect(),
            topic_popularity: rows(4, z_n, 4 << 20),
            doc_community: vec![2, 0, 1],
            doc_topic: vec![1, 1, 0],
        }
    }

    /// Where value `i` of an `f64` section is stored in `model`'s
    /// snapshot.
    fn value_at(model: &CpdModel, section: &str, i: usize) -> usize {
        let dims = if section == "nu" { 8 } else { 16 };
        start_of(model, section) + dims + 8 * i
    }

    #[test]
    fn rows_that_straddle_read_chunks_load_bit_for_bit() {
        let model = wide_model();
        assert!(model.phi[0].len() * 8 > CHUNK_BYTES);
        assert_ne!(CHUNK_BYTES % (8 * model.pi[0].len()), 0);
        let loaded = read_model(&snapshot(&model)[..]).unwrap();
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&model.pi), bits(&loaded.pi));
        assert_eq!(bits(&model.theta), bits(&loaded.theta));
        assert_eq!(bits(&model.phi), bits(&loaded.phi));
        assert_eq!(model.eta.as_slice(), loaded.eta.as_slice());
        assert_eq!(
            bits(std::slice::from_ref(&model.nu)),
            bits(std::slice::from_ref(&loaded.nu))
        );
        assert_eq!(
            bits(&model.topic_popularity),
            bits(&loaded.topic_popularity)
        );
        assert_eq!(model.doc_community, loaded.doc_community);
        assert_eq!(model.doc_topic, loaded.doc_topic);
    }

    #[test]
    fn rows_load_without_slack() {
        // `phi` rows of 9,000 values span two chunks and rows of 60,000
        // (the serving snapshot's vocabulary) eight; 3-wide `pi` rows
        // straddle every chunk boundary.
        let mut wider = wide_model();
        wider.phi = (0..wider.phi.len())
            .map(|z| {
                (0..60_000)
                    .map(|v| ((z * 60_000 + v) as f64 * 0.618_033_988_749_895).fract())
                    .collect()
            })
            .collect();
        for model in [wide_model(), wider] {
            let loaded = read_model(&snapshot(&model)[..]).unwrap();
            for (name, rows) in [
                ("pi", &loaded.pi),
                ("theta", &loaded.theta),
                ("phi", &loaded.phi),
                ("topic_popularity", &loaded.topic_popularity),
            ] {
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(row.capacity(), row.len(), "{name}[{r}]");
                }
            }
            assert_eq!(loaded.nu.capacity(), loaded.nu.len(), "nu");
        }
    }

    #[test]
    fn non_finite_cells_are_named_after_the_checksum() {
        let chunk = CHUNK_BYTES / 8;
        for model in [fitted_model(), wide_model()] {
            let clean = snapshot(&model);
            for (name, rows) in [
                ("pi", &model.pi),
                ("theta", &model.theta),
                ("phi", &model.phi),
                ("topic_popularity", &model.topic_popularity),
            ] {
                let cells = rows.len() * rows[0].len();
                // The first, a middle and the last cell, and the cells
                // on either side of the first chunk boundary.
                let mut at = vec![0, cells / 2, cells - 1, chunk - 1, chunk];
                at.retain(|&i| i < cells);
                for (i, value) in at
                    .into_iter()
                    .flat_map(|i| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(|v| (i, v)))
                {
                    let mut damaged = clean.clone();
                    put_u64(&mut damaged, value_at(&model, name, i), value.to_bits());
                    let msg = format_error(&damaged);
                    assert!(
                        msg.contains("checksum mismatch"),
                        "{name}[{i}] = {value}: {msg}"
                    );
                    reseal(&mut damaged);
                    let msg = format_error(&damaged);
                    assert_eq!(
                        msg,
                        format!("{name} contains non-finite values"),
                        "{name}[{i}] = {value}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_non_finite_nu() {
        let model = tiny_model();
        let clean = snapshot(&model);
        for (i, value) in [(0, f64::NAN), (N_FEATURES - 1, f64::INFINITY)] {
            let mut damaged = clean.clone();
            put_u64(&mut damaged, value_at(&model, "nu", i), value.to_bits());
            assert!(format_error(&damaged).contains("checksum mismatch"));
            reseal(&mut damaged);
            assert_eq!(
                format_error(&damaged),
                "nu contains non-finite values",
                "nu[{i}] = {value}"
            );
        }
    }

    /// Serves `bytes` up to `fail_at`, then fails every read.
    struct FailingReader<'a> {
        bytes: &'a [u8],
        at: usize,
        fail_at: usize,
    }

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.fail_at {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "the disk went away",
                ));
            }
            let n = buf.len().min(self.fail_at - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_reader_error_inside_phi_is_an_io_error() {
        let model = wide_model();
        let buf = snapshot(&model);
        // Mid-word in phi's first chunk, and in its second.
        for fail_at in [
            value_at(&model, "phi", 100) + 3,
            value_at(&model, "phi", 9_000),
        ] {
            let reader = FailingReader {
                bytes: &buf,
                at: 0,
                fail_at,
            };
            match read_model(reader) {
                Err(ModelIoError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "at {fail_at}: {e}")
                }
                other => panic!("at {fail_at}: expected an io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let model = fitted_model();
        let mut corrupted = snapshot(&model);
        // Lie about the pi width.
        let at = start_of(&model, "pi") + 8;
        put_u64(&mut corrupted, at, model.n_communities() as u64 + 1);
        reseal(&mut corrupted);
        assert!(read_model(&corrupted[..]).is_err());
    }
}
