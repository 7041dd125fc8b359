//! Model checkpointing: persist a trained model's parameters and
//! configuration, restore them into a freshly constructed model.
//!
//! ## Format v3/v4 — sectioned, checksummed, atomically committed
//!
//! A v3+ checkpoint is a sequence of named sections, each carrying its
//! byte length and CRC-32, closed by a trailing commit marker over the
//! whole file:
//!
//! ```text
//! scenerec-checkpoint v4\n
//! section config <len> <crc32>\n     JSON SceneRecConfig
//! section params <len> <crc32>\n     JSON ParamStore
//! section optimizer <len> <crc32>\n  JSON OptimState      (optional)
//! section trainer <len> <crc32>\n    JSON TrainerState    (optional)
//! section frozen <len> <crc32>\n     JSON FrozenSnapshot  (optional, v4)
//! commit <crc32-of-everything-above>\n
//! ```
//!
//! v4 differs from v3 only by the optional `frozen` section: a
//! serving-ready [`crate::freeze::FrozenModel`] snapshot (at any
//! [`crate::freeze::Precision`], including the int8/f16 quantized
//! variants) so a quantized engine round-trips through
//! [`CheckpointStore`] without re-freezing or re-quantizing. v3 files
//! load unchanged and yield `frozen: None`; readers skip unknown
//! sections, so v4 files without a frozen section are structurally v3.
//!
//! Writes go to `<path>.tmp` first and are moved into place with an
//! atomic `rename`, so a crash mid-save can never clobber the previous
//! good checkpoint. Loads verify every CRC and the commit marker and
//! return **typed** [`CheckpointError`]s — a truncated file, a flipped
//! bit, or a missing commit marker is a recoverable condition, never a
//! panic. [`CheckpointStore`] keeps a retention window of N checkpoints
//! and [`CheckpointStore::load_latest_good`] falls back across it,
//! which is what makes crash-resumed training self-healing
//! (`tests/chaos.rs` drives both under injected faults).
//!
//! ## Round-trip guarantees
//!
//! * **f32 values are lossless**: floats serialize through an exact
//!   f32→f64 widening and a shortest-round-trip decimal rendering, so
//!   save → load → save produces byte-identical files (pinned by the
//!   `save_load_save_is_byte_identical` test).
//! * **Optimizer state is preserved**: RMSProp's `cache`, Adam's
//!   `m`/`v`/`t` and Momentum's `velocity` ride along as an optional
//!   [`OptimState`] section, checked on load against the parameters it
//!   will update.

use crate::config::SceneRecConfig;
use crate::freeze::{FrozenModel, FrozenSnapshot};
use crate::model::SceneRec;
use crate::trainer::TrainerState;
use crate::PairwiseModel;
use scenerec_autodiff::{OptimState, ParamStore};
use scenerec_data::Dataset;
use scenerec_faults::{crc32, Injector};
use std::fs;
use std::path::{Path, PathBuf};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Oldest checkpoint format version this build can still load: the
/// first sectioned one.
pub const CHECKPOINT_MIN_VERSION: u32 = 3;

/// Magic prefix of a v3+ checkpoint file.
const MAGIC: &[u8] = b"scenerec-checkpoint v";

/// A snapshot of a trained SceneRec model.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The model configuration (variant, dim, caps, seed).
    pub config: SceneRecConfig,
    /// All trained parameters.
    pub params: ParamStore,
    /// Optimizer state for exact training resume (absent in checkpoints
    /// saved without one).
    pub optimizer: Option<OptimState>,
    /// Resumable-trainer bookkeeping (absent outside `train_resumable`).
    pub trainer: Option<TrainerState>,
    /// Serving-ready frozen snapshot, possibly quantized (v4; absent in
    /// training-only checkpoints and every pre-v4 file).
    pub frozen: Option<FrozenSnapshot>,
}

/// Errors raised on checkpoint save/load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem or serialization failure (including injected I/O).
    Io(String),
    /// Unknown format version.
    BadVersion(u32),
    /// The stored parameters do not match the freshly built topology.
    TopologyMismatch(String),
    /// The file ends before the structure does (torn write, short read,
    /// or a missing commit marker).
    Truncated(String),
    /// A section's bytes do not match their recorded CRC-32.
    CorruptSection(String),
    /// The file's structure is unparseable (bad magic, garbled header).
    Malformed(String),
    /// Every checkpoint in a retention window failed to load.
    NoUsable {
        /// How many checkpoint files were tried.
        tried: usize,
        /// The error from the newest candidate.
        last: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::TopologyMismatch(e) => {
                write!(f, "checkpoint does not match the dataset/config: {e}")
            }
            CheckpointError::Truncated(e) => write!(f, "checkpoint truncated: {e}"),
            CheckpointError::CorruptSection(s) => {
                write!(f, "checkpoint section `{s}` fails its CRC-32 check")
            }
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::NoUsable { tried, last } => {
                write!(
                    f,
                    "no usable checkpoint among {tried} candidates (newest: {last})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything a checkpoint can restore.
#[derive(Debug)]
pub struct Loaded {
    /// The reconstructed model.
    pub model: SceneRec,
    /// Optimizer state, when the checkpoint carried one.
    pub optimizer: Option<OptimState>,
    /// Resumable-trainer state, when the checkpoint carried one.
    pub trainer: Option<TrainerState>,
    /// Serving-ready frozen snapshot, when the checkpoint carried one
    /// (v4 `frozen` section), already validated and re-hydrated.
    pub frozen: Option<FrozenModel>,
}

// ---------------------------------------------------------------------
// Saving
// ---------------------------------------------------------------------

/// Saves `model` to `path` (no optimizer state).
///
/// # Errors
/// Filesystem and serialization failures.
pub fn save(model: &SceneRec, path: &Path) -> Result<(), CheckpointError> {
    save_with_optimizer(model, None, path)
}

/// Saves `model` plus the optimizer state (when given) to `path`.
///
/// # Errors
/// Filesystem and serialization failures.
pub fn save_with_optimizer(
    model: &SceneRec,
    optimizer: Option<&OptimState>,
    path: &Path,
) -> Result<(), CheckpointError> {
    save_full(model, optimizer, None, path, &Injector::disabled())
}

/// Saves a full checkpoint (model, optimizer, trainer state) through the
/// fault injector's `checkpoint/write` and `checkpoint/commit` points.
///
/// The write is atomic with respect to the destination: bytes go to
/// `<path>.tmp` and are `rename`d into place only after the full file is
/// on disk, so a failure at any point leaves the previous checkpoint at
/// `path` untouched.
///
/// # Errors
/// Filesystem, serialization, and injected failures.
pub fn save_full(
    model: &SceneRec,
    optimizer: Option<&OptimState>,
    trainer: Option<&TrainerState>,
    path: &Path,
    injector: &Injector,
) -> Result<(), CheckpointError> {
    save_full_with_frozen(model, optimizer, trainer, None, path, injector)
}

/// [`save_full`] plus an optional serving snapshot: when `frozen` is
/// given, the checkpoint carries a v4 `frozen` section holding the
/// [`FrozenModel`] (at whatever [`crate::freeze::Precision`] it was
/// quantized to), so the serving engine can be rebuilt from the file
/// without re-freezing — and, for quantized snapshots, with the exact
/// same codes/scales that were validated before the save.
///
/// # Errors
/// Filesystem, serialization, and injected failures.
pub fn save_full_with_frozen(
    model: &SceneRec,
    optimizer: Option<&OptimState>,
    trainer: Option<&TrainerState>,
    frozen: Option<&FrozenModel>,
    path: &Path,
    injector: &Injector,
) -> Result<(), CheckpointError> {
    let ckpt = Checkpoint {
        version: CHECKPOINT_VERSION,
        config: model.config().clone(),
        params: model.store().clone(),
        optimizer: optimizer.cloned(),
        trainer: trainer.cloned(),
        frozen: frozen.map(FrozenSnapshot::from),
    };
    let mut bytes = encode_v3(&ckpt)?;
    // A torn write: the injector may corrupt the bytes that reach disk.
    injector.corrupt("checkpoint/write", &mut bytes);
    injector
        .io("checkpoint/write")
        .map_err(|e| CheckpointError::Io(e.to_string()))?;
    let tmp = tmp_path(path);
    fs::write(&tmp, &bytes).map_err(|e| CheckpointError::Io(e.to_string()))?;
    if let Err(e) = injector.io("checkpoint/commit") {
        fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Io(e.to_string()));
    }
    fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

fn encode_v3(ckpt: &Checkpoint) -> Result<Vec<u8>, CheckpointError> {
    fn push_section(out: &mut Vec<u8>, name: &str, payload: &[u8]) {
        out.extend_from_slice(
            format!("section {name} {} {:08x}\n", payload.len(), crc32(payload)).as_bytes(),
        );
        out.extend_from_slice(payload);
        out.push(b'\n');
    }
    let json = |v: Result<String, serde::Error>| v.map_err(|e| CheckpointError::Io(e.to_string()));

    let mut out = Vec::new();
    out.extend_from_slice(format!("scenerec-checkpoint v{}\n", ckpt.version).as_bytes());
    push_section(
        &mut out,
        "config",
        json(serde_json::to_string(&ckpt.config))?.as_bytes(),
    );
    push_section(
        &mut out,
        "params",
        json(serde_json::to_string(&ckpt.params))?.as_bytes(),
    );
    if let Some(opt) = &ckpt.optimizer {
        push_section(
            &mut out,
            "optimizer",
            json(serde_json::to_string(opt))?.as_bytes(),
        );
    }
    if let Some(tr) = &ckpt.trainer {
        push_section(
            &mut out,
            "trainer",
            json(serde_json::to_string(tr))?.as_bytes(),
        );
    }
    if let Some(fr) = &ckpt.frozen {
        push_section(
            &mut out,
            "frozen",
            json(serde_json::to_string(fr))?.as_bytes(),
        );
    }
    let commit = crc32(&out);
    out.extend_from_slice(format!("commit {commit:08x}\n").as_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

/// Loads a checkpoint from `path` and reconstructs the model over `data`.
///
/// # Errors
/// See [`CheckpointError`]; in particular, loading against a dataset with
/// different universe sizes is rejected.
pub fn load(path: &Path, data: &Dataset) -> Result<SceneRec, CheckpointError> {
    load_with_optimizer(path, data).map(|(model, _)| model)
}

/// Loads a checkpoint plus its optimizer state (when present).
///
/// Accepts format versions [`CHECKPOINT_MIN_VERSION`]..=[`CHECKPOINT_VERSION`].
///
/// # Errors
/// See [`CheckpointError`].
pub fn load_with_optimizer(
    path: &Path,
    data: &Dataset,
) -> Result<(SceneRec, Option<OptimState>), CheckpointError> {
    load_full(path, data, &Injector::disabled()).map(|l| (l.model, l.optimizer))
}

/// Loads everything a checkpoint holds, routing the raw bytes through
/// the fault injector's `checkpoint/read` point.
///
/// # Errors
/// See [`CheckpointError`] — every corruption mode maps to a typed error;
/// no input bytes can make this panic.
pub fn load_full(
    path: &Path,
    data: &Dataset,
    injector: &Injector,
) -> Result<Loaded, CheckpointError> {
    let mut bytes = fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    injector
        .io("checkpoint/read")
        .map_err(|e| CheckpointError::Io(e.to_string()))?;
    injector.corrupt("checkpoint/read", &mut bytes);
    let ckpt = decode(&bytes)?;
    let frozen = ckpt
        .frozen
        .map(FrozenSnapshot::into_model)
        .transpose()
        .map_err(|e| CheckpointError::Malformed(format!("frozen section: {e}")))?;
    SceneRec::check_widths(&ckpt.config, &ckpt.params)
        .map_err(CheckpointError::TopologyMismatch)?;
    let mut model = SceneRec::new(ckpt.config, data);
    validate_topology(model.store(), &ckpt.params)?;
    if let Some(state) = &ckpt.optimizer {
        validate_optimizer(&ckpt.params, state)?;
    }
    *model.store_mut() = ckpt.params;
    Ok(Loaded {
        model,
        optimizer: ckpt.optimizer,
        trainer: ckpt.trainer,
        frozen,
    })
}

/// One section of a v3 file, with its byte extents — exposed so the
/// corruption-matrix test can target every boundary programmatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSpan {
    /// Section name (`config`, `params`, `optimizer`, `trainer`,
    /// `frozen`).
    pub name: String,
    /// Byte offset of the section's header line.
    pub header_start: usize,
    /// Byte offset of the first payload byte.
    pub payload_start: usize,
    /// Byte offset one past the last payload byte.
    pub payload_end: usize,
}

/// Parses the section table of a sectioned (v3/v4) checkpoint without
/// decoding payloads.
///
/// # Errors
/// The same structural errors as a full load.
pub fn section_spans(bytes: &[u8]) -> Result<Vec<SectionSpan>, CheckpointError> {
    walk_v3(bytes).map(|(spans, _)| spans)
}

/// Decodes the bytes of a sectioned (v3/v4) checkpoint.
fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if !bytes.starts_with(MAGIC) {
        return Err(CheckpointError::Malformed(
            "unrecognized checkpoint header (no `scenerec-checkpoint v` magic)".to_string(),
        ));
    }
    let (spans, version) = walk_v3(bytes)?;
    let mut config: Option<SceneRecConfig> = None;
    let mut params: Option<ParamStore> = None;
    let mut optimizer: Option<OptimState> = None;
    let mut trainer: Option<TrainerState> = None;
    let mut frozen: Option<FrozenSnapshot> = None;
    for span in &spans {
        let payload = &bytes[span.payload_start..span.payload_end];
        let text = std::str::from_utf8(payload).map_err(|e| {
            CheckpointError::Malformed(format!("section `{}` is not UTF-8: {e}", span.name))
        })?;
        let bad = |e: serde::Error| {
            CheckpointError::Malformed(format!("section `{}` JSON: {e}", span.name))
        };
        match span.name.as_str() {
            "config" => config = Some(serde_json::from_str(text).map_err(bad)?),
            "params" => params = Some(serde_json::from_str(text).map_err(bad)?),
            "optimizer" => optimizer = Some(serde_json::from_str(text).map_err(bad)?),
            "trainer" => trainer = Some(serde_json::from_str(text).map_err(bad)?),
            "frozen" => frozen = Some(serde_json::from_str(text).map_err(bad)?),
            // Unknown sections from a future minor revision are skipped.
            _ => {}
        }
    }
    let config =
        config.ok_or_else(|| CheckpointError::Malformed("missing `config` section".to_string()))?;
    let params =
        params.ok_or_else(|| CheckpointError::Malformed("missing `params` section".to_string()))?;
    Ok(Checkpoint {
        version,
        config,
        params,
        optimizer,
        trainer,
        frozen,
    })
}

/// Walks a sectioned (v3/v4) file: validates the magic/version, every
/// section header, every section CRC, and the trailing commit marker.
fn walk_v3(bytes: &[u8]) -> Result<(Vec<SectionSpan>, u32), CheckpointError> {
    let (magic_line, mut pos) = read_line(bytes, 0, "magic line")?;
    let version: u32 = magic_line
        .strip_prefix("scenerec-checkpoint v")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Malformed(format!("bad magic line `{magic_line}`")))?;
    if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&version) {
        return Err(CheckpointError::BadVersion(version));
    }

    let mut spans = Vec::new();
    loop {
        let header_start = pos;
        let (line, after) = read_line(bytes, pos, "section or commit header")?;
        if let Some(rest) = line.strip_prefix("commit ") {
            let recorded = u32::from_str_radix(rest.trim(), 16)
                .map_err(|_| CheckpointError::Malformed(format!("bad commit marker `{line}`")))?;
            let actual = crc32(&bytes[..header_start]);
            if recorded != actual {
                return Err(CheckpointError::CorruptSection("commit".to_string()));
            }
            if after != bytes.len() {
                return Err(CheckpointError::Malformed(
                    "trailing bytes after commit marker".to_string(),
                ));
            }
            return Ok((spans, version));
        }
        let parts: Vec<&str> = line.split(' ').collect();
        let (name, len, recorded) = match parts.as_slice() {
            ["section", name, len, crc] => {
                let len: usize = len.parse().map_err(|_| {
                    CheckpointError::Malformed(format!("bad section length in `{line}`"))
                })?;
                let crc = u32::from_str_radix(crc, 16).map_err(|_| {
                    CheckpointError::Malformed(format!("bad section CRC in `{line}`"))
                })?;
                (name.to_string(), len, crc)
            }
            _ => {
                return Err(CheckpointError::Malformed(format!(
                    "expected a section or commit header, got `{line}`"
                )))
            }
        };
        let payload_start = after;
        let payload_end = payload_start.checked_add(len).filter(|&e| e < bytes.len());
        let Some(payload_end) = payload_end else {
            return Err(CheckpointError::Truncated(format!(
                "section `{name}` claims {len} payload bytes past end of file"
            )));
        };
        if bytes[payload_end] != b'\n' {
            return Err(CheckpointError::Malformed(format!(
                "section `{name}` payload is not newline-terminated"
            )));
        }
        if crc32(&bytes[payload_start..payload_end]) != recorded {
            return Err(CheckpointError::CorruptSection(name));
        }
        spans.push(SectionSpan {
            name,
            header_start,
            payload_start,
            payload_end,
        });
        pos = payload_end + 1;
    }
}

/// Reads one `\n`-terminated ASCII line starting at `pos`.
fn read_line<'a>(
    bytes: &'a [u8],
    pos: usize,
    what: &str,
) -> Result<(&'a str, usize), CheckpointError> {
    if pos >= bytes.len() {
        return Err(CheckpointError::Truncated(format!(
            "unexpected end of file (expected {what})"
        )));
    }
    let rest = &bytes[pos..];
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Err(CheckpointError::Truncated(format!(
            "{what} is not newline-terminated"
        )));
    };
    let line = std::str::from_utf8(&rest[..nl])
        .map_err(|e| CheckpointError::Malformed(format!("{what} is not UTF-8: {e}")))?;
    Ok((line, pos + nl + 1))
}

fn validate_topology(fresh: &ParamStore, stored: &ParamStore) -> Result<(), CheckpointError> {
    if fresh.len() != stored.len() {
        return Err(CheckpointError::TopologyMismatch(format!(
            "parameter count {} vs {}",
            stored.len(),
            fresh.len()
        )));
    }
    for ((_, a), (_, b)) in fresh.iter().zip(stored.iter()) {
        if a.name() != b.name() {
            return Err(CheckpointError::TopologyMismatch(format!(
                "parameter order differs: `{}` vs `{}`",
                b.name(),
                a.name()
            )));
        }
        if a.value().shape() != b.value().shape() {
            return Err(CheckpointError::TopologyMismatch(format!(
                "`{}` shape {:?} vs {:?}",
                a.name(),
                b.value().shape(),
                a.value().shape()
            )));
        }
    }
    Ok(())
}

/// Checks a stored optimizer state against the parameters it will
/// update: every slot holds either no tensors (no step taken yet) or
/// exactly one per parameter, each of its parameter's shape. An
/// optimizer adopts a slot whole on `import_state`, so anything else
/// would surface only at the first step after a resume: as a panic, as
/// a partial update, or as state silently reset to zero.
fn validate_optimizer(params: &ParamStore, state: &OptimState) -> Result<(), CheckpointError> {
    for slot in state.slots.iter().filter(|s| !s.tensors.is_empty()) {
        if slot.tensors.len() != params.len() {
            return Err(CheckpointError::Malformed(format!(
                "optimizer slot `{}` holds {} tensors for {} parameters",
                slot.name,
                slot.tensors.len(),
                params.len()
            )));
        }
        for ((_, p), t) in params.iter().zip(&slot.tensors) {
            if t.shape() != p.value().shape() {
                return Err(CheckpointError::Malformed(format!(
                    "optimizer slot `{}` holds shape {:?} for `{}` of shape {:?}",
                    slot.name,
                    t.shape(),
                    p.name(),
                    p.value().shape()
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Retention-window store
// ---------------------------------------------------------------------

/// A directory of epoch-stamped checkpoints with a bounded retention
/// window and newest-first fallback loading.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// A store over `dir` keeping at most `retain` checkpoints
    /// (`retain` is clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> Self {
        CheckpointStore {
            dir: dir.into(),
            retain: retain.max(1),
        }
    }

    /// The file path used for `epoch`'s checkpoint.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:08}.sck"))
    }

    /// Saves an epoch checkpoint and prunes files beyond the retention
    /// window (oldest first).
    ///
    /// # Errors
    /// Save failures; pruning failures are ignored (stale files only
    /// waste space, they are never loaded before newer good ones).
    pub fn save(
        &self,
        model: &SceneRec,
        optimizer: Option<&OptimState>,
        trainer: Option<&TrainerState>,
        epoch: usize,
        injector: &Injector,
    ) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(&self.dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let path = self.path_for(epoch);
        save_full(model, optimizer, trainer, &path, injector)?;
        self.prune()?;
        Ok(path)
    }

    /// [`CheckpointStore::save`] plus an optional serving snapshot: the
    /// checkpoint carries a v4 `frozen` section so a (possibly
    /// quantized) engine round-trips through the store —
    /// [`CheckpointStore::load_latest_good`] returns it in
    /// [`Loaded::frozen`] with codes, scales and zero-points intact.
    ///
    /// # Errors
    /// Save failures; pruning failures are ignored.
    pub fn save_with_frozen(
        &self,
        model: &SceneRec,
        optimizer: Option<&OptimState>,
        trainer: Option<&TrainerState>,
        frozen: Option<&FrozenModel>,
        epoch: usize,
        injector: &Injector,
    ) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(&self.dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let path = self.path_for(epoch);
        save_full_with_frozen(model, optimizer, trainer, frozen, &path, injector)?;
        self.prune()?;
        Ok(path)
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let files = self.list()?;
        if files.len() > self.retain {
            for (_, stale) in &files[..files.len() - self.retain] {
                fs::remove_file(stale).ok();
            }
        }
        Ok(())
    }

    /// Every checkpoint in the store, ascending by epoch.
    ///
    /// # Errors
    /// Directory read failures (a missing directory is an empty store).
    pub fn list(&self) -> Result<Vec<(usize, PathBuf)>, CheckpointError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(CheckpointError::Io(e.to_string())),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CheckpointError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(epoch) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".sck"))
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            out.push((epoch, entry.path()));
        }
        out.sort();
        Ok(out)
    }

    /// Loads the newest checkpoint that passes every integrity check,
    /// falling back across the retained window. Corrupt candidates are
    /// skipped.
    ///
    /// Returns `Ok(None)` for an empty store.
    ///
    /// # Errors
    /// [`CheckpointError::NoUsable`] when checkpoints exist but none
    /// load; directory read failures.
    pub fn load_latest_good(
        &self,
        data: &Dataset,
        injector: &Injector,
    ) -> Result<Option<(Loaded, usize)>, CheckpointError> {
        let files = self.list()?;
        if files.is_empty() {
            return Ok(None);
        }
        let mut last_err: Option<CheckpointError> = None;
        for (epoch, path) in files.iter().rev() {
            match load_full(path, data, injector) {
                Ok(loaded) => return Ok(Some((loaded, *epoch))),
                Err(e) => {
                    last_err.get_or_insert(e);
                }
            }
        }
        Err(CheckpointError::NoUsable {
            tried: files.len(),
            last: last_err.map(|e| e.to_string()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{test as eval_test, train, TrainConfig};
    use scenerec_data::{generate, GeneratorConfig};
    use scenerec_faults::{Fault, FaultPlan, Trigger};
    use scenerec_tensor::Matrix;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("scenerec-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_reproduces_rankings() {
        let data = generate(&GeneratorConfig::tiny(71)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let cfg = TrainConfig {
            epochs: 2,
            eval_every: 0,
            patience: 0,
            threads: 2,
            ..TrainConfig::default()
        };
        train(&mut model, &data, &cfg);
        let before = eval_test(&model, &data, &cfg);

        let path = tmp("model.sck");
        save(&model, &path).unwrap();
        let restored = load(&path, &data).unwrap();
        let after = eval_test(&restored, &data, &cfg);
        assert_eq!(before.ranks, after.ranks);
        assert_eq!(restored.config().dim, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_different_dataset() {
        let data = generate(&GeneratorConfig::tiny(72)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let path = tmp("model2.sck");
        save(&model, &path).unwrap();

        let mut other_cfg = GeneratorConfig::tiny(73);
        other_cfg.num_items += 10; // different item universe
        let other = generate(&other_cfg).unwrap();
        let err = load(&path, &other).unwrap_err();
        assert!(matches!(err, CheckpointError::TopologyMismatch(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_bad_version() {
        let data = generate(&GeneratorConfig::tiny(74)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let ckpt = Checkpoint {
            version: 99,
            config: model.config().clone(),
            params: model.store().clone(),
            optimizer: None,
            trainer: None,
            frozen: None,
        };
        let path = tmp("model3.sck");
        let bytes = encode_v3(&ckpt).unwrap();
        assert!(bytes.starts_with(b"scenerec-checkpoint v99\n"));
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path, &data).unwrap_err(),
            CheckpointError::BadVersion(99)
        ));
        // A file without the magic line, such as single-line JSON, is
        // malformed.
        std::fs::write(&path, b"{\"version\":2}").unwrap();
        assert!(matches!(
            load(&path, &data).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let data = generate(&GeneratorConfig::tiny(75)).unwrap();
        let err = load(Path::new("/nonexistent/model.sck"), &data).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    /// save → load → save must be byte-identical, **including** the
    /// optimizer state: any lossy f32 rendering or dropped field would
    /// show up as a diff here.
    #[test]
    fn save_load_save_is_byte_identical() {
        use crate::trainer::{make_optimizer, train_with_optimizer};

        let data = generate(&GeneratorConfig::tiny(76)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let cfg = TrainConfig {
            epochs: 2,
            eval_every: 0,
            patience: 0,
            threads: 2,
            ..TrainConfig::default()
        };
        let mut opt = make_optimizer(&cfg);
        train_with_optimizer(&mut model, &data, &cfg, opt.as_mut());
        let state = opt.export_state();
        assert!(
            !state.slots.is_empty(),
            "RMSProp after training must have cache state"
        );

        let first = tmp("roundtrip_a.sck");
        let second = tmp("roundtrip_b.sck");
        save_with_optimizer(&model, Some(&state), &first).unwrap();
        let (restored, restored_state) = load_with_optimizer(&first, &data).unwrap();
        save_with_optimizer(&restored, restored_state.as_ref(), &second).unwrap();
        let a = std::fs::read(&first).unwrap();
        let b = std::fs::read(&second).unwrap();
        assert_eq!(a, b, "save → load → save changed the bytes");
        assert!(a.starts_with(MAGIC), "current saves must be sectioned");

        // The restored state must resume the optimizer it came from.
        let mut resumed = make_optimizer(&cfg);
        resumed
            .import_state(restored_state.as_ref().unwrap())
            .unwrap();
        assert_eq!(resumed.export_state(), state);
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    /// Trains SceneRec (d = 8) for one RMSProp epoch, applies `edit` to
    /// the optimizer state, saves and loads it back. The framing and CRCs
    /// are valid, so only the optimizer-state check can reject the file;
    /// returns its `Malformed` message.
    fn load_edited_state(name: &str, edit: impl FnOnce(&SceneRec, &mut OptimState)) -> String {
        use crate::trainer::{make_optimizer, train_with_optimizer};

        let data = generate(&GeneratorConfig::tiny(76)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let cfg = TrainConfig {
            epochs: 1,
            eval_every: 0,
            patience: 0,
            ..TrainConfig::default()
        };
        let mut opt = make_optimizer(&cfg);
        train_with_optimizer(&mut model, &data, &cfg, opt.as_mut());
        let mut state = opt.export_state();
        assert_eq!(state.kind, "rmsprop");
        assert_eq!(state.slots[0].tensors.len(), model.store().len());
        edit(&model, &mut state);
        let path = tmp(name);
        save_with_optimizer(&model, Some(&state), &path).unwrap();
        let result = load_with_optimizer(&path, &data);
        std::fs::remove_file(&path).ok();
        match result {
            Err(CheckpointError::Malformed(e)) => e,
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("a mis-shaped optimizer state loaded"),
        }
    }

    /// An embedding table's cache of the wrong shape: without the check,
    /// the first step after the resume indexes past the 1 × 1 matrix.
    #[test]
    fn optimizer_state_with_misshapen_table_cache_is_malformed() {
        let e = load_edited_state("opt_table.sck", |model, state| {
            let i = model.store().lookup("user_emb").unwrap().index();
            state.slots[0].tensors[i] = Matrix::zeros(1, 1);
        });
        assert!(e.contains("cache") && e.contains("user_emb"), "{e}");
    }

    /// A dense weight's cache of the wrong shape: without the check, the
    /// update zips it with the gradient and changes one weight of 64.
    #[test]
    fn optimizer_state_with_misshapen_dense_cache_is_malformed() {
        let e = load_edited_state("opt_dense.sck", |model, state| {
            let i = model.store().lookup("w_u").unwrap().index();
            state.slots[0].tensors[i] = Matrix::zeros(1, 1);
        });
        assert!(e.contains("cache") && e.contains("w_u"), "{e}");
    }

    /// A slot with one tensor too few: without the check, the optimizer
    /// replaces it with zeros and the resume restarts RMSProp's second
    /// moments without a word.
    #[test]
    fn optimizer_state_with_missing_tensor_is_malformed() {
        let e = load_edited_state("opt_count.sck", |_, state| {
            state.slots[0].tensors.pop();
        });
        assert!(e.contains("cache") && e.contains("tensors"), "{e}");
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let data = generate(&GeneratorConfig::tiny(79)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let path = tmp("trunc.sck");
        save(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [1usize, 24, bytes.len() / 2, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = load(&path, &data).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated(_)
                        | CheckpointError::Malformed(_)
                        | CheckpointError::CorruptSection(_)
                ),
                "cut={cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_payload_is_corrupt_section() {
        let data = generate(&GeneratorConfig::tiny(80)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let path = tmp("flip.sck");
        save(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let spans = section_spans(&bytes).unwrap();
        let params = spans.iter().find(|s| s.name == "params").unwrap();
        let mut broken = bytes.clone();
        broken[params.payload_start + 5] ^= 0x10;
        std::fs::write(&path, &broken).unwrap();
        match load(&path, &data).unwrap_err() {
            CheckpointError::CorruptSection(name) => assert_eq!(name, "params"),
            other => panic!("expected CorruptSection, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Replaces the payload of section `name` with `edit(payload)`, and
    /// recomputes that section's CRC and the commit CRC, so that the
    /// framing stays valid and only the payload checks can object.
    fn edit_section(bytes: &[u8], name: &str, edit: impl FnOnce(&str) -> String) -> Vec<u8> {
        let spans = section_spans(bytes).unwrap();
        let span = spans.iter().find(|s| s.name == name).unwrap();
        let payload = std::str::from_utf8(&bytes[span.payload_start..span.payload_end]).unwrap();
        let edited = edit(payload);
        let mut framed = bytes[..span.header_start].to_vec();
        framed.extend_from_slice(
            format!(
                "section {name} {} {:08x}\n",
                edited.len(),
                crc32(edited.as_bytes())
            )
            .as_bytes(),
        );
        framed.extend_from_slice(edited.as_bytes());
        framed.push(b'\n');
        let rest_start = span.payload_end + 1;
        let commit_start = spans
            .iter()
            .map(|s| s.payload_end + 1)
            .max()
            .expect("at least one section");
        framed.extend_from_slice(&bytes[rest_start..commit_start]);
        framed.extend_from_slice(format!("commit {:08x}\n", crc32(&framed)).as_bytes());
        assert!(
            section_spans(&framed).is_ok(),
            "the framing itself is valid"
        );
        framed
    }

    /// A d = 4 checkpoint whose `config` section has `edit` applied,
    /// loaded: the result of the load.
    fn load_with_edited_config(
        file: &str,
        edit: impl FnOnce(&str) -> String,
    ) -> Result<Loaded, CheckpointError> {
        let data = generate(&GeneratorConfig::tiny(83)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let path = tmp(file);
        save(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, edit_section(&bytes, "config", edit)).unwrap();
        let out = load_full(&path, &data, &Injector::disabled());
        std::fs::remove_file(&path).ok();
        out
    }

    /// A config whose `dim` disagrees with the stored tables. The width,
    /// 2⁴⁰, sizes tables past the address space, so building the model
    /// from it before any check aborts the process on allocation; the
    /// loader must refuse it first.
    #[test]
    fn hostile_config_dim_is_a_topology_mismatch_not_an_abort() {
        let huge = 1u64 << 40;
        let out = load_with_edited_config("hostile_dim.sck", |json| {
            assert!(json.contains("\"dim\":4"), "{json}");
            json.replace("\"dim\":4", &format!("\"dim\":{huge}"))
        });
        match out {
            Err(CheckpointError::TopologyMismatch(e)) => assert!(e.contains("dim"), "{e}"),
            Err(other) => panic!("expected TopologyMismatch, got {other}"),
            Ok(_) => panic!("a checkpoint with dim 2^40 loaded"),
        }
    }

    /// The same for a hidden width of the Eq. 14 rating MLP, which
    /// `Mlp::new` would allocate.
    #[test]
    fn hostile_config_hidden_width_is_a_topology_mismatch_not_an_abort() {
        let huge = 1u64 << 40;
        let out = load_with_edited_config("hostile_hidden.sck", |json| {
            let key = "\"rating_hidden\":[";
            let at = json.find(key).expect("config lists rating_hidden") + key.len();
            let end = at + json[at..].find([',', ']']).unwrap();
            assert!(end > at, "rating_hidden holds a width: {json}");
            format!("{}{huge}{}", &json[..at], &json[end..])
        });
        match out {
            Err(CheckpointError::TopologyMismatch(e)) => assert!(e.contains("rating"), "{e}"),
            Err(other) => panic!("expected TopologyMismatch, got {other}"),
            Ok(_) => panic!("a checkpoint with a 2^40 hidden width loaded"),
        }
    }

    /// A `config` section of 100 000 nested arrays, framed with valid
    /// CRCs. A parser that recursed once per level without a bound would
    /// overflow the stack and abort the process; the load must fail with
    /// a typed error instead.
    #[test]
    fn deeply_nested_config_is_malformed_not_an_abort() {
        let depth = 100_000;
        let out = load_with_edited_config("deep_config.sck", |_| {
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        });
        match out {
            Err(CheckpointError::Malformed(e)) => assert!(e.contains("config"), "{e}"),
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("a 100 000-deep config loaded"),
        }
    }

    /// A writer that frames correctly but stores a `params` matrix one
    /// element short of rows × cols: the CRCs all match, so only the
    /// payload check can catch it. Loading must return a typed error,
    /// not a model whose first full row read panics.
    #[test]
    fn short_params_matrix_is_malformed_not_a_later_panic() {
        let data = generate(&GeneratorConfig::tiny(82)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let ckpt = Checkpoint {
            version: 3,
            config: model.config().clone(),
            params: model.store().clone(),
            optimizer: None,
            trainer: None,
            frozen: None,
        };
        let bytes = encode_v3(&ckpt).unwrap();

        // Drop the last value of the first matrix buffer.
        let framed = edit_section(&bytes, "params", |json| {
            let open = json.find("\"data\":[").unwrap() + "\"data\":[".len();
            let close = open + json[open..].find(']').unwrap();
            let cut = open
                + json[open..close]
                    .rfind(',')
                    .expect("buffer holds two values");
            format!("{}{}", &json[..cut], &json[close..])
        });

        let path = tmp("short_params.sck");
        std::fs::write(&path, &framed).unwrap();
        match load_full(&path, &data, &Injector::disabled()) {
            Err(CheckpointError::Malformed(e)) => assert!(e.contains("params"), "{e}"),
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("a short params matrix loaded"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_commit_failure_preserves_previous_checkpoint() {
        let data = generate(&GeneratorConfig::tiny(81)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let path = tmp("atomic.sck");
        save(&model, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let injector = Injector::new(FaultPlan::new(3).inject(
            "checkpoint/commit",
            Trigger::Nth(1),
            Fault::Io,
        ));
        let other = SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(9), &data);
        let err = save_full(&other, None, None, &path, &injector).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "failed commit must not clobber the previous checkpoint"
        );
        assert!(!tmp_path(&path).exists(), "tmp file must be cleaned up");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_retains_window_and_falls_back() {
        let data = generate(&GeneratorConfig::tiny(82)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let dir = tmp("store_fallback");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 2);
        let off = Injector::disabled();
        for epoch in [1usize, 2, 3] {
            store.save(&model, None, None, epoch, &off).unwrap();
        }
        let epochs: Vec<usize> = store.list().unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![2, 3], "retention window is 2");

        // Corrupt the newest; fallback must land on epoch 2.
        let newest = store.path_for(3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let (_, epoch) = store.load_latest_good(&data, &off).unwrap().unwrap();
        assert_eq!(epoch, 2);

        // Corrupt everything: typed NoUsable, not a panic.
        let second = store.path_for(2);
        std::fs::write(&second, b"garbage").unwrap();
        let err = store.load_latest_good(&data, &off).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NoUsable { tried: 2, .. }),
            "{err}"
        );

        // Empty store: Ok(None).
        std::fs::remove_dir_all(&dir).ok();
        assert!(store.load_latest_good(&data, &off).unwrap().is_none());
    }

    /// A frozen snapshot — at every precision — must round-trip through
    /// the store bit-exactly: the serialized snapshot of the loaded
    /// model equals the serialized snapshot that was saved (f16 bits,
    /// int8 codes, scales and zero-points included).
    #[test]
    fn frozen_section_round_trips_at_every_precision() {
        use crate::freeze::Precision;

        let data = generate(&GeneratorConfig::tiny(83)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
        let dir = tmp("store_frozen");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 4);
        let off = Injector::disabled();

        for (epoch, precision) in [Precision::F32, Precision::F16, Precision::Int8]
            .into_iter()
            .enumerate()
        {
            let frozen = model.freeze_quantized(precision).unwrap();
            let want = serde_json::to_string(&FrozenSnapshot::from(&frozen)).unwrap();
            store
                .save_with_frozen(&model, None, None, Some(&frozen), epoch + 1, &off)
                .unwrap();
            let (loaded, got_epoch) = store.load_latest_good(&data, &off).unwrap().unwrap();
            assert_eq!(got_epoch, epoch + 1);
            let restored = loaded
                .frozen
                .expect("frozen section must survive the store");
            assert_eq!(restored.precision(), precision);
            let got = serde_json::to_string(&FrozenSnapshot::from(&restored)).unwrap();
            assert_eq!(got, want, "{precision:?} snapshot changed across the store");
        }

        // A plain training save on the same store carries no snapshot.
        store.save(&model, None, None, 9, &off).unwrap();
        let (loaded, _) = store.load_latest_good(&data, &off).unwrap().unwrap();
        assert!(loaded.frozen.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `frozen` section is covered by the same CRC machinery as the
    /// training sections: a bit flip inside it is a typed
    /// `CorruptSection("frozen")`, never a panic or a silent
    /// wrong-weights load.
    #[test]
    fn bit_flip_in_frozen_section_is_corrupt_section() {
        let data = generate(&GeneratorConfig::tiny(84)).unwrap();
        let model = SceneRec::new(SceneRecConfig::default().with_dim(4), &data);
        let frozen = model.freeze().unwrap();
        let path = tmp("flip_frozen.sck");
        save_full_with_frozen(
            &model,
            None,
            None,
            Some(&frozen),
            &path,
            &Injector::disabled(),
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let spans = section_spans(&bytes).unwrap();
        let span = spans.iter().find(|s| s.name == "frozen").unwrap();
        let mut broken = bytes.clone();
        broken[span.payload_start + 7] ^= 0x20;
        std::fs::write(&path, &broken).unwrap();
        match load(&path, &data).unwrap_err() {
            CheckpointError::CorruptSection(name) => assert_eq!(name, "frozen"),
            other => panic!("expected CorruptSection, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
