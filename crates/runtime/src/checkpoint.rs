//! Crash-consistent training-state checkpointing.
//!
//! [`CheckpointStore`] is the durable, versioned store behind fail-stop
//! recovery, elastic grows and `Session::resume`. Each snapshot becomes a
//! *generation* directory:
//!
//! ```text
//! gen-000007/
//!   manifest.json   pretty-printed JSON: format version, step, tag, model
//!                   shape, partition boundaries, schedule geometry,
//!                   recompute mask and checkpointing flag, and per stage
//!                   payload its file name, byte length and CRC-32
//!   stage-0.bin     one binary payload per stage, (device, chunk) order
//!   stage-1.bin
//! ```
//!
//! A stage payload is little-endian throughout:
//!
//! ```text
//! [8]  magic "AUTOPCKP"          [4] format version (u32, = 5)
//! [16] Adam lr, beta1, beta2, eps (f32 × 4)    [8] Adam step (u64)
//! [4]  tensor count n (u32)
//! n ×  { [4] rank r (u32), r × [8] dimension (u64) }    the shape table
//! 3 ×  Σ elements × [4]          raw f32 runs: params, then Adam `m`, then
//!                                 Adam `v`, each in table order
//! ```
//!
//! Parameters and both moment lists share the one shape table. The writer
//! streams the payload into the file through a CRC-accumulating adaptor, so
//! the snapshot is the only whole copy of the state a save holds.
//!
//! A generation is committed by writing everything into a `tmp-` directory,
//! fsyncing, and renaming — a crash anywhere before the rename leaves only a
//! `tmp-` directory the loader ignores, so **no generation is ever loadable
//! in a torn state**. On load each payload is checked in this order: length
//! against the manifest, CRC-32 against the manifest, then decoded by a
//! *total* decoder (the file is outside input: every count, rank and
//! dimension is bounded by the bytes actually present before anything is
//! allocated, and the three runs must add up to the file length exactly).
//! The store walks generations newest-first and falls back past any that
//! fails.
//!
//! There is one on-disk format and no reader for an older one: generations
//! are per-run scratch, none is committed to the repository, and a second
//! reader would be a second path. A generation of an older format — version
//! 1, before the format was versioned (JSON payloads, a manifest without
//! `format`), version 2, whose manifest did not name the model, or version
//! 3, whose manifest could name sliced 1F1B as a family of its own — is
//! rejected as corrupt with a detail naming its version, and skipped like
//! any other invalid generation.
//!
//! [`BackgroundCheckpointer`] moves the encoding and disk work off the
//! training thread: the trainer exports stage states (cheap tensor clones —
//! the double buffer) and hands them to a writer thread over a bounded
//! channel; a full channel skips the snapshot rather than blocking the 1F1B
//! steady state.
//!
//! The failure-injection hook [`FailPoint`] exists so tests can prove the
//! kill-9 window: abort a save between temp write and rename, or flip a
//! committed payload byte, and watch the loader fall back to generation
//! N−1.

use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use autopipe_model::ModelConfig;
use autopipe_schedule::{
    apply_checkpointing, apply_recompute, gpipe, interleaved, one_f_one_b, recompute_mask, slice,
    zero_bubble, Schedule, ScheduleKind,
};
use autopipe_tensor::{optim::Adam, Tensor};

use crate::engine::Pipeline;
use crate::stage::StageModel;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), hand-rolled: the container has no crates.io access.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic byte table, `t[k][i]` the CRC
/// of byte `i` followed by `k` zero bytes, so eight input bytes fold into the
/// running value with eight independent lookups.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256 {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Fold `bytes` into a running (pre-inverted) CRC-32 register.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes` — the payload checksum of every checkpoint file.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What can go wrong saving or loading durable checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure at `path`.
    Io { path: PathBuf, source: io::Error },
    /// A file exists but its contents are unusable (bad checksum, torn
    /// write, unparsable JSON).
    Corrupt { path: PathBuf, detail: String },
    /// The checkpoint does not fit the pipeline it is being restored into.
    Mismatch(String),
    /// No generation in the store survived validation.
    NoValidGeneration { dir: PathBuf, detail: String },
    /// A test-injected failure ([`FailPoint`]) fired.
    Injected(FailPoint),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O failed at {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::NoValidGeneration { dir, detail } => write!(
                f,
                "no valid checkpoint generation in {}: {detail}",
                dir.display()
            ),
            CheckpointError::Injected(fp) => write!(f, "injected failure: {fp:?}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// This crate sits above `autopipe-core`, so the facade conversion lives here
// (same layering as `RuntimeError`).
impl From<CheckpointError> for autopipe_core::Error {
    fn from(e: CheckpointError) -> autopipe_core::Error {
        autopipe_core::Error::Checkpoint(Box::new(e))
    }
}

fn io_err(path: &Path) -> impl FnOnce(io::Error) -> CheckpointError + '_ {
    move |source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn sync_parent(path: &Path) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::File::open(parent)
            .and_then(|d| d.sync_all())
            .map_err(io_err(parent))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Stage state and its binary payload
// ---------------------------------------------------------------------------

/// Training state of one stage.
#[derive(Debug, Clone)]
pub struct StageState {
    /// Parameter tensors in module order.
    pub params: Vec<Tensor>,
    /// Optimiser state (moments + step count).
    pub adam: Adam,
}

/// Version of the on-disk format (manifest `format` field and payload
/// header). Version 1 was the unversioned JSON-payload layout; version 2
/// had no [`ModelShape`] in the manifest; version 3 could record sliced
/// 1F1B as a family of its own rather than as 1F1B plus its `n_sliced`;
/// version 4 did not record global checkpointing, whose `Recompute` ops
/// the schedule carries.
const FORMAT: u32 = 5;
const MAGIC: [u8; 8] = *b"AUTOPCKP";

/// A `Write` that accumulates the CRC-32 and length of what passes through.
struct CrcWriter<W> {
    inner: W,
    crc: u32,
    bytes: u64,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Why `state` cannot be encoded: its moment lists must mirror its
/// parameters tensor for tensor (they share the payload's one shape table).
fn shape_table_mismatch(state: &StageState) -> Option<String> {
    let (m, v) = state.adam.moments();
    if m.len() != state.params.len() || v.len() != state.params.len() {
        return Some(format!(
            "{} params but {} / {} Adam moments",
            state.params.len(),
            m.len(),
            v.len()
        ));
    }
    (state.params.iter().zip(m.iter().zip(v)))
        .position(|(p, (m, v))| p.shape() != m.shape() || p.shape() != v.shape())
        .map(|j| format!("param {j} and its Adam moments differ in shape"))
}

fn write_f32s(w: &mut impl Write, data: &[f32]) -> io::Result<()> {
    let mut buf = [0u8; 4096];
    for block in data.chunks(buf.len() / 4) {
        for (dst, x) in buf.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..block.len() * 4])?;
    }
    Ok(())
}

/// Stream one stage payload (see the module docs for the layout). The caller
/// has checked [`shape_table_mismatch`].
fn encode_stage(w: &mut impl Write, state: &StageState) -> io::Result<()> {
    let adam = &state.adam;
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT.to_le_bytes())?;
    for x in [adam.lr, adam.beta1, adam.beta2, adam.eps] {
        w.write_all(&x.to_le_bytes())?;
    }
    w.write_all(&adam.step_count().to_le_bytes())?;
    w.write_all(&(state.params.len() as u32).to_le_bytes())?;
    for p in &state.params {
        w.write_all(&(p.shape().len() as u32).to_le_bytes())?;
        for &d in p.shape() {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
    }
    let (m, v) = adam.moments();
    for run in [&state.params[..], m, v] {
        for t in run {
            write_f32s(w, t.data())?;
        }
    }
    Ok(())
}

/// Bounds-checked little-endian cursor over a payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!(
                "truncated: {what} needs {n} bytes, {} left",
                self.rest.len()
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self, what: &str) -> Result<f32, String> {
        self.u32(what).map(f32::from_bits)
    }
}

/// Decode one stage payload. Total: any byte string yields a state or a
/// reason, never a panic, and nothing is allocated beyond what the bytes
/// present can fill.
fn decode_stage(bytes: &[u8]) -> Result<StageState, String> {
    let mut r = Reader { rest: bytes };
    if r.take(MAGIC.len(), "magic")? != MAGIC {
        return Err("not a stage payload (bad magic)".into());
    }
    let version = r.u32("format version")?;
    if version != FORMAT {
        return Err(format!(
            "payload format version {version}, this build reads version {FORMAT} only"
        ));
    }
    let [lr, beta1, beta2, eps] = [
        r.f32("lr")?,
        r.f32("beta1")?,
        r.f32("beta2")?,
        r.f32("eps")?,
    ];
    let step = r.u64("Adam step")?;

    // Every tensor costs at least its 4-byte rank, every dimension 8 bytes:
    // counts are bounded by the bytes left before they size anything.
    let n = r.u32("tensor count")? as usize;
    if n > r.rest.len() / 4 {
        return Err(format!(
            "tensor count {n} exceeds what {} bytes can describe",
            r.rest.len()
        ));
    }
    let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut total = 0usize;
    for j in 0..n {
        let rank = r.u32("rank")? as usize;
        if rank > r.rest.len() / 8 {
            return Err(format!(
                "tensor {j}: rank {rank} exceeds what {} bytes can describe",
                r.rest.len()
            ));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut elements = 1usize;
        for _ in 0..rank {
            let d = usize::try_from(r.u64("dimension")?).ok();
            let d = d.ok_or_else(|| format!("tensor {j}: dimension overflows"))?;
            elements = elements
                .checked_mul(d)
                .ok_or_else(|| format!("tensor {j}: dimension product overflows"))?;
            shape.push(d);
        }
        total = total
            .checked_add(elements)
            .ok_or_else(|| format!("tensor {j}: element count overflows"))?;
        shapes.push(shape);
    }
    let want = total.checked_mul(3 * 4);
    if want != Some(r.rest.len()) {
        return Err(format!(
            "shape table describes {total} elements × 3 runs, {} payload bytes follow it",
            r.rest.len()
        ));
    }

    let mut run = |what: &str| -> Result<Vec<Tensor>, String> {
        shapes
            .iter()
            .map(|shape| {
                let raw = r.take(shape.iter().product::<usize>() * 4, what)?;
                let data = raw
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Ok(Tensor::from_vec(shape, data))
            })
            .collect()
    };
    let params = run("params")?;
    let m = run("Adam m")?;
    let v = run("Adam v")?;
    let mut adam = Adam::from_moments(lr, step, m, v);
    (adam.beta1, adam.beta2, adam.eps) = (beta1, beta2, eps);
    Ok(StageState { params, adam })
}

/// Validate then import `states` into `pipeline` — what every consumer of
/// [`CheckpointStore::load_latest`] does with its second half. Validation is
/// two-phase so a mismatch never leaves the pipeline half-restored; the
/// values are then copied into the stages' own parameter buffers.
pub fn restore_states(
    pipeline: &mut Pipeline,
    states: &[StageState],
) -> Result<(), CheckpointError> {
    let mut stages = pipeline.stages_mut();
    if stages.len() != states.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} stages, pipeline has {}",
            states.len(),
            stages.len()
        )));
    }
    for (i, (stage, state)) in stages.iter().zip(states).enumerate() {
        let mine = stage.param_shapes();
        if mine.len() != state.params.len() {
            return Err(CheckpointError::Mismatch(format!(
                "stage {i}: checkpoint has {} params, stage has {}",
                state.params.len(),
                mine.len()
            )));
        }
        for (j, (shape, p)) in mine.iter().zip(&state.params).enumerate() {
            if shape.as_slice() != p.shape() {
                return Err(CheckpointError::Mismatch(format!(
                    "stage {i} param {j}: checkpoint shape {:?}, stage shape {:?}",
                    p.shape(),
                    shape
                )));
            }
        }
    }
    for (stage, state) in stages.iter_mut().zip(states) {
        stage.import_state(&state.params, state.adam.clone());
    }
    Ok(())
}

impl StageModel {
    /// Export parameters + optimiser state.
    pub(crate) fn export_state(&mut self) -> StageState {
        StageState {
            params: self.param_snapshot(),
            adam: self.adam_snapshot(),
        }
    }

    /// Import parameters + optimiser state (shapes must match), discarding
    /// all transient per-iteration state — importing means rolling back to
    /// a step boundary, so partial gradients and stale stashes from a
    /// crash-aborted iteration must not survive.
    pub(crate) fn import_state(&mut self, params: &[Tensor], adam: Adam) {
        self.restore_params(params);
        self.restore_adam(adam);
        self.reset_transient();
    }
}

// ---------------------------------------------------------------------------
// The versioned generation store
// ---------------------------------------------------------------------------

/// One stage payload's entry in a generation manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePayload {
    /// File name within the generation directory.
    pub file: String,
    /// CRC-32 of the payload file's bytes.
    pub crc32: u32,
    /// Payload length in bytes (quick torn-write check before hashing).
    pub bytes: u64,
}

/// The shape of the model a checkpoint holds, recorded in its manifest so
/// that a resume can reject a different model before it builds a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelShape {
    /// Transformer layers.
    pub blocks: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN expansion factor.
    pub ffn_mult: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Training sequence length.
    pub seq_len: usize,
}

impl ModelShape {
    /// The shape of `model`.
    pub fn of(model: &ModelConfig) -> ModelShape {
        ModelShape {
            blocks: model.num_layers,
            hidden: model.hidden_size,
            heads: model.num_heads,
            ffn_mult: model.ffn_mult,
            vocab: model.vocab_size,
            seq_len: model.seq_len,
        }
    }
}

/// A generation's manifest: everything needed to validate the payloads and
/// resume training — including the partition and the schedule (geometry and
/// recompute mask), so the `autopipe` facade's `Session::resume` can
/// rebuild the exact pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk format version of this generation.
    pub format: u32,
    /// Generation index (monotonic).
    pub generation: u64,
    /// Training step (completed optimiser steps) this snapshot captured.
    pub step: u64,
    /// Free-form tag.
    pub tag: String,
    /// Shape of the model the snapshot holds.
    pub model: ModelShape,
    /// Partition boundaries of the pipeline that wrote the snapshot.
    pub boundaries: Vec<usize>,
    /// Schedule family of the pipeline that wrote the snapshot.
    pub kind: ScheduleKind,
    /// Micro-batches the schedule's forwards were sliced for (`n_sliced`).
    pub n_sliced: usize,
    /// Chunks per device (1 except the interleaved family).
    pub n_chunks: usize,
    /// Micro-batches per iteration.
    pub n_microbatches: usize,
    /// Per-stage recompute mask of the schedule ([`recompute_mask`]).
    pub recompute: Vec<bool>,
    /// Whether the pipeline ran global activation checkpointing, lowered
    /// into its schedule's ops.
    pub checkpointing: bool,
    /// Per-stage payload entries, in (device, chunk) order.
    pub stages: Vec<StagePayload>,
}

impl Manifest {
    /// The schedule of the pipeline that wrote the snapshot: its family's
    /// generator at the recorded geometry, sliced for the recorded
    /// `n_sliced`, with the recorded recompute mask and checkpointing
    /// lowered. Equal to the `Pipeline::schedule()` that was captured.
    pub fn schedule(&self) -> Result<Schedule, CheckpointError> {
        let bad = |why: String| CheckpointError::Mismatch(format!("manifest schedule: {why}"));
        let n_stages = self.boundaries.len().saturating_sub(1);
        let v = self.n_chunks;
        if n_stages < 1 || v < 1 || !n_stages.is_multiple_of(v) {
            return Err(bad(format!(
                "{n_stages} stages cannot be {v} chunks per device"
            )));
        }
        if self.recompute.len() != n_stages {
            return Err(bad(format!(
                "recompute mask has {} entries for {n_stages} stages",
                self.recompute.len()
            )));
        }
        let (p, m) = (n_stages / v, self.n_microbatches);
        let mut schedule = match self.kind {
            ScheduleKind::OneFOneB => one_f_one_b(p, m),
            ScheduleKind::GPipe => gpipe(p, m),
            ScheduleKind::ZeroBubble => zero_bubble(p, m),
            ScheduleKind::Interleaved => interleaved(p, v, m).map_err(|e| bad(e.to_string()))?,
        };
        slice(&mut schedule, self.n_sliced);
        apply_recompute(&mut schedule, &self.recompute);
        if self.checkpointing {
            apply_checkpointing(&mut schedule);
        }
        Ok(schedule)
    }
}

/// Everything one snapshot carries: the manifest metadata plus the stage
/// states themselves. This is what the training thread exports (the double
/// buffer) and the background writer encodes.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Training step (completed optimiser steps).
    pub step: u64,
    /// Free-form tag.
    pub tag: String,
    /// Shape of the pipeline's model.
    pub model: ModelShape,
    /// Partition boundaries.
    pub boundaries: Vec<usize>,
    /// Schedule family.
    pub kind: ScheduleKind,
    /// Schedule `n_sliced`.
    pub n_sliced: usize,
    /// Chunks per device (1 except the interleaved family).
    pub n_chunks: usize,
    /// Micro-batches per iteration.
    pub n_microbatches: usize,
    /// Per-stage recompute mask of the schedule.
    pub recompute: Vec<bool>,
    /// Whether the pipeline runs global activation checkpointing.
    pub checkpointing: bool,
    /// Per-stage states, (device, chunk) order.
    pub stages: Vec<StageState>,
}

impl PipelineSnapshot {
    /// Export a pipeline's state (cheap tensor clones; the pipeline is free
    /// to keep training the moment this returns).
    pub fn capture(pipeline: &mut Pipeline, step: u64, tag: &str) -> PipelineSnapshot {
        let boundaries = pipeline.partition().boundaries().to_vec();
        let sched = pipeline.schedule();
        let (kind, n_sliced, n_chunks, n_microbatches, recompute) = (
            sched.kind,
            sched.n_sliced,
            sched.n_chunks,
            sched.n_microbatches,
            recompute_mask(sched),
        );
        PipelineSnapshot {
            step,
            tag: tag.to_string(),
            model: pipeline.model(),
            boundaries,
            kind,
            n_sliced,
            n_chunks,
            n_microbatches,
            recompute,
            checkpointing: pipeline.checkpointing(),
            stages: pipeline
                .stages_mut()
                .iter_mut()
                .map(|s| s.export_state())
                .collect(),
        }
    }
}

/// Test hook: make the next [`CheckpointStore::save`] fail like a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// Abort after the temp generation is fully written but *before* the
    /// atomic rename — the kill-9 window. The temp directory is left
    /// behind, exactly as a real crash would leave it.
    BeforeRename,
    /// Commit the generation, then flip one byte of stage 0's payload:
    /// simulated bit rot that the CRC check must catch on load.
    CorruptPayload,
}

/// The durable, versioned checkpoint store. See the module docs for the
/// on-disk layout and crash-consistency argument.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    fail_next: Option<FailPoint>,
}

impl CheckpointStore {
    /// Open (creating if needed) a store at `dir`, keeping the newest
    /// `retain` generations. Leftover `tmp-` directories from crashed
    /// writers are removed.
    pub fn open(
        dir: impl Into<PathBuf>,
        retain: usize,
    ) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        let store = CheckpointStore {
            dir,
            retain: retain.max(1),
            fail_next: None,
        };
        store.clean_tmp()?;
        Ok(store)
    }

    /// Arm a one-shot injected failure for the next [`save`](Self::save).
    pub fn fail_next(&mut self, fp: FailPoint) {
        self.fail_next = Some(fp);
    }

    fn clean_tmp(&self) -> Result<(), CheckpointError> {
        for entry in fs::read_dir(&self.dir).map_err(io_err(&self.dir))? {
            let entry = entry.map_err(io_err(&self.dir))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("tmp-") || name.starts_with(".tmp-") {
                let _ = fs::remove_dir_all(entry.path());
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Committed generation indices, ascending.
    pub(crate) fn generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = match fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .strip_prefix("gen-")
                        .and_then(|n| n.parse().ok())
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        gens.sort_unstable();
        gens
    }

    fn gen_dir(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:06}"))
    }

    /// Durably commit one snapshot as the next generation; returns its
    /// index. The commit point is the directory rename: a crash anywhere
    /// before it leaves only a `tmp-` directory that [`open`](Self::open)
    /// and [`load_latest`](Self::load_latest) ignore.
    pub fn save(&mut self, snap: &PipelineSnapshot) -> Result<u64, CheckpointError> {
        let generation = self.generations().last().map_or(0, |g| g + 1);
        let tmp = self.dir.join(format!("tmp-gen-{generation:06}"));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(io_err(&tmp))?;

        let mut entries = Vec::with_capacity(snap.stages.len());
        for (i, stage) in snap.stages.iter().enumerate() {
            if let Some(why) = shape_table_mismatch(stage) {
                return Err(CheckpointError::Mismatch(format!("stage {i}: {why}")));
            }
            let file = format!("stage-{i}.bin");
            let path = tmp.join(&file);
            let mut w = CrcWriter {
                inner: BufWriter::with_capacity(
                    1 << 16,
                    fs::File::create(&path).map_err(io_err(&path))?,
                ),
                crc: 0xFFFF_FFFF,
                bytes: 0,
            };
            encode_stage(&mut w, stage).map_err(io_err(&path))?;
            let f = w
                .inner
                .into_inner()
                .map_err(|e| io_err(&path)(e.into_error()))?;
            f.sync_all().map_err(io_err(&path))?;
            entries.push(StagePayload {
                file,
                crc32: w.crc ^ 0xFFFF_FFFF,
                bytes: w.bytes,
            });
        }
        let manifest = Manifest {
            format: FORMAT,
            generation,
            step: snap.step,
            tag: snap.tag.clone(),
            model: snap.model,
            boundaries: snap.boundaries.clone(),
            kind: snap.kind,
            n_sliced: snap.n_sliced,
            n_chunks: snap.n_chunks,
            n_microbatches: snap.n_microbatches,
            recompute: snap.recompute.clone(),
            checkpointing: snap.checkpointing,
            stages: entries,
        };
        let mpath = tmp.join("manifest.json");
        let mbody =
            serde_json::to_string_pretty(&manifest).map_err(|e| CheckpointError::Corrupt {
                path: mpath.clone(),
                detail: format!("manifest serialise failed: {e}"),
            })?;
        {
            let mut f = fs::File::create(&mpath).map_err(io_err(&mpath))?;
            f.write_all(mbody.as_bytes()).map_err(io_err(&mpath))?;
            f.sync_all().map_err(io_err(&mpath))?;
        }

        if self
            .fail_next
            .take_if(|fp| *fp == FailPoint::BeforeRename)
            .is_some()
        {
            // Simulated kill -9 between temp write and rename: the tmp
            // directory stays behind, the generation never commits.
            return Err(CheckpointError::Injected(FailPoint::BeforeRename));
        }

        let committed = self.gen_dir(generation);
        fs::rename(&tmp, &committed).map_err(io_err(&committed))?;
        sync_parent(&committed)?;

        if self
            .fail_next
            .take_if(|fp| *fp == FailPoint::CorruptPayload)
            .is_some()
        {
            // Post-commit bit rot on stage 0's payload.
            let victim = committed.join("stage-0.bin");
            let mut bytes = fs::read(&victim).map_err(io_err(&victim))?;
            if let Some(b) = bytes.get_mut(0) {
                *b ^= 0xFF;
            }
            fs::write(&victim, bytes).map_err(io_err(&victim))?;
        }

        self.prune();
        Ok(generation)
    }

    /// Drop all but the newest `retain` generations. Best-effort: pruning
    /// failures never fail a save.
    fn prune(&self) {
        let gens = self.generations();
        if gens.len() > self.retain {
            for g in &gens[..gens.len() - self.retain] {
                let _ = fs::remove_dir_all(self.gen_dir(*g));
            }
        }
    }

    /// Load and validate one specific generation.
    pub(crate) fn load_generation(
        &self,
        generation: u64,
    ) -> Result<(Manifest, Vec<StageState>), CheckpointError> {
        let dir = self.gen_dir(generation);
        let corrupt = |path: PathBuf, detail: String| CheckpointError::Corrupt { path, detail };
        let mpath = dir.join("manifest.json");
        let mtext = fs::read_to_string(&mpath).map_err(io_err(&mpath))?;
        // The version gate comes first, on the untyped document: an older
        // manifest lacks fields, and "missing field" would not say why.
        let version = serde_json::from_str::<serde_json::Value>(&mtext)
            .map_err(|e| corrupt(mpath.clone(), format!("manifest parse failed: {e}")))?
            .get("format")
            .map_or(Some(1), |f| f.as_u64());
        if version != Some(FORMAT as u64) {
            let found = version.map_or("an unreadable version".into(), |v| format!("version {v}"));
            return Err(corrupt(
                mpath,
                format!(
                    "generation is checkpoint format {found}, this build reads version {FORMAT} only"
                ),
            ));
        }
        let manifest: Manifest = serde_json::from_str(&mtext)
            .map_err(|e| corrupt(mpath.clone(), format!("manifest parse failed: {e}")))?;
        let mut stages = Vec::with_capacity(manifest.stages.len());
        for entry in &manifest.stages {
            let path = dir.join(&entry.file);
            let bytes = fs::read(&path).map_err(io_err(&path))?;
            if bytes.len() as u64 != entry.bytes {
                return Err(corrupt(
                    path,
                    format!(
                        "payload is {} bytes, manifest says {}",
                        bytes.len(),
                        entry.bytes
                    ),
                ));
            }
            let got = crc32(&bytes);
            if got != entry.crc32 {
                return Err(corrupt(
                    path,
                    format!("crc32 {got:08x} != manifest {:08x}", entry.crc32),
                ));
            }
            stages.push(decode_stage(&bytes).map_err(|why| corrupt(path, why))?);
        }
        Ok((manifest, stages))
    }

    /// Load the newest generation that validates, falling back past corrupt
    /// ones (each payload is length- and CRC-checked before it is decoded).
    pub fn load_latest(&self) -> Result<(Manifest, Vec<StageState>), CheckpointError> {
        let gens = self.generations();
        let mut failures = Vec::new();
        for &g in gens.iter().rev() {
            match self.load_generation(g) {
                Ok(loaded) => return Ok(loaded),
                Err(e) => failures.push(format!("gen-{g:06}: {e}")),
            }
        }
        Err(CheckpointError::NoValidGeneration {
            dir: self.dir.clone(),
            detail: if failures.is_empty() {
                "store is empty".into()
            } else {
                failures.join("; ")
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Background writer
// ---------------------------------------------------------------------------

/// Counters and last-outcome of the background writer, for telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriterStatus {
    /// Generations committed.
    pub written: usize,
    /// Snapshots dropped because the writer was still busy (the bounded
    /// queue was full) — the price of never blocking the training loop.
    pub skipped: usize,
    /// Most recently committed generation.
    pub last_generation: Option<u64>,
    /// Most recent write failure, if any.
    pub last_error: Option<String>,
}

/// Snapshots at a step cadence without blocking the 1F1B steady state: the
/// training thread exports stage states (the cheap double-buffered copy)
/// and offers them over a bounded channel; a dedicated
/// writer thread encodes and commits them. A busy writer causes the
/// snapshot to be *skipped* (counted, never blocked on).
#[derive(Debug)]
pub struct BackgroundCheckpointer {
    tx: Option<SyncSender<PipelineSnapshot>>,
    handle: Option<JoinHandle<CheckpointStore>>,
    pending: Arc<AtomicUsize>,
    status: Arc<Mutex<WriterStatus>>,
}

impl BackgroundCheckpointer {
    /// Spawn the writer thread over `store`.
    pub(crate) fn spawn(store: CheckpointStore) -> BackgroundCheckpointer {
        // Capacity 1: one snapshot may queue while one is being written —
        // two in flight at most, bounding the double buffer's memory.
        let (tx, rx) = sync_channel::<PipelineSnapshot>(1);
        let pending = Arc::new(AtomicUsize::new(0));
        let status = Arc::new(Mutex::new(WriterStatus::default()));
        let worker_pending = Arc::clone(&pending);
        let worker_status = Arc::clone(&status);
        let handle = std::thread::spawn(move || {
            let mut store = store;
            while let Ok(snap) = rx.recv() {
                let outcome = store.save(&snap);
                if let Ok(mut st) = worker_status.lock() {
                    match outcome {
                        Ok(generation) => {
                            st.written += 1;
                            st.last_generation = Some(generation);
                        }
                        Err(e) => st.last_error = Some(e.to_string()),
                    }
                }
                worker_pending.fetch_sub(1, Ordering::Release);
            }
            store
        });
        BackgroundCheckpointer {
            tx: Some(tx),
            handle: Some(handle),
            pending,
            status,
        }
    }

    /// Offer a snapshot to the writer. Returns `true` when accepted;
    /// `false` when the writer was busy and the snapshot was skipped.
    pub(crate) fn offer(&self, snap: PipelineSnapshot) -> bool {
        let Some(tx) = &self.tx else { return false };
        self.pending.fetch_add(1, Ordering::Acquire);
        match tx.try_send(snap) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.pending.fetch_sub(1, Ordering::Release);
                if let Ok(mut st) = self.status.lock() {
                    st.skipped += 1;
                }
                false
            }
        }
    }

    /// Block until every accepted snapshot has been committed (or failed).
    /// Called before a recovery load, so the freshest accepted state is on
    /// disk.
    pub(crate) fn drain(&self) {
        while self.pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Current writer counters.
    pub(crate) fn status(&self) -> WriterStatus {
        self.status.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

impl Drop for BackgroundCheckpointer {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::BatchSet;
    use crate::engine::PipelineConfig;
    use autopipe_model::{ModelConfig, ModelFamily};
    use autopipe_schedule::sliced_1f1b;
    use autopipe_sim::Partition;
    use proptest::prelude::*;

    fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            family: ModelFamily::Gpt2,
            num_layers: 2,
            hidden_size: 16,
            num_heads: 2,
            seq_len: 8,
            vocab_size: 40,
            ffn_mult: 2,
        }
    }

    fn pipe(seed: u64) -> Pipeline {
        Pipeline::try_new(&PipelineConfig {
            model: tiny(),
            partition: Partition::new(vec![0, 3, 7]),
            schedule: one_f_one_b(2, 4),
            lr: 1e-3,
            seed,
            checkpointing: false,
        })
        .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autopipe_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The one-table, byte-at-a-time CRC-32 the slicing implementation
    /// replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc32_tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let mut random =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        // Every length around the 8-byte stride, at every alignment of it.
        for len in 0..=64 {
            let bytes = random(len);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "length {len}");
        }
        let big = random(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        // Streaming in uneven pieces is the same register walk.
        let streamed = big.chunks(4099).fold(0xFFFF_FFFF, crc32_update);
        assert_eq!(streamed ^ 0xFFFF_FFFF, crc32(&big));
    }

    fn encoded(state: &StageState) -> Vec<u8> {
        assert_eq!(shape_table_mismatch(state), None);
        let mut bytes = Vec::new();
        encode_stage(&mut bytes, state).unwrap();
        bytes
    }

    #[test]
    fn stage_payload_round_trips_every_bit() {
        let mut p = pipe(3);
        let batch = BatchSet::synthetic(2, 4, 2, tiny().seq_len, tiny().vocab_size);
        p.train_iteration(&batch).unwrap(); // non-zero moments, step = 1
        for stage in p.stages_mut() {
            let state = stage.export_state();
            let back = decode_stage(&encoded(&state)).unwrap();
            assert_eq!(back.params, state.params);
            assert_eq!(back.adam.moments(), state.adam.moments());
            assert_eq!(back.adam.step_count(), 1);
            let hyper = |a: &Adam| [a.lr, a.beta1, a.beta2, a.eps].map(f32::to_bits);
            assert_eq!(hyper(&back.adam), hyper(&state.adam));
        }
    }

    #[test]
    fn moments_that_do_not_mirror_the_params_are_an_error_not_an_assert() {
        let dir = temp_dir("ckpt_moments");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let mut snap = PipelineSnapshot::capture(&mut pipe(1), 0, "x");
        let wrong = vec![Tensor::zeros(&[3, 2])];
        snap.stages[1] = StageState {
            params: vec![Tensor::zeros(&[2, 3])],
            adam: Adam::from_moments(1e-3, 0, wrong.clone(), wrong),
        };
        let err = store.save(&snap).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(why) if why.contains("stage 1")),
            "{err}"
        );
        assert!(store.generations().is_empty(), "nothing may commit");
        let _ = fs::remove_dir_all(&dir);
    }

    // Byte offsets of the payload's structural fields (module docs).
    const VERSION_AT: usize = 8;
    const COUNT_AT: usize = 36;
    const RANK0_AT: usize = 40;
    const DIM0_AT: usize = 44;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The decoder on bytes the CRC would have passed (it only proves
        /// the file is what the writer wrote, not that the writer was this
        /// program): a damaged header, count, rank or dimension, a truncated
        /// or an extended payload is an error — never a panic, never an
        /// allocation sized from the damaged field.
        #[test]
        fn the_decoder_is_total(
            kind in 0usize..7,
            pick in 0usize..6,
            noise in 0usize..usize::MAX,
            frac in 0.0f64..1.0,
        ) {
            let state = pipe(9).stages_mut()[0].export_state();
            let valid = encoded(&state);
            prop_assert!(decode_stage(&valid).is_ok());
            let value = [0, 1, 7, u32::MAX as u64, 1 << 62, noise as u64][pick];
            let mut bytes = valid.clone();
            let mut put = |at: usize, width: usize| {
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            };
            match kind {
                0 => put(0, 8),
                1 => put(VERSION_AT, 4),
                2 => put(COUNT_AT, 4),
                3 => put(RANK0_AT, 4),
                4 => put(DIM0_AT, 8),
                5 => bytes.truncate((frac * valid.len() as f64) as usize),
                _ => bytes.extend(std::iter::repeat_n(noise as u8, 1 + pick * 3)),
            }
            if bytes != valid {
                prop_assert!(decode_stage(&bytes).is_err(), "kind {kind} value {value}");
            }
        }
    }

    #[test]
    fn an_old_format_generation_is_skipped_naming_its_version() {
        // What the unversioned JSON-payload layout (version 1) and the
        // manifest without a model shape (version 2) left on disk.
        let v1 = r#"{"generation": 0, "step": 4, "tag": "step", "boundaries": [0, 3, 7],
                "kind": "OneFOneB", "n_sliced": 0, "n_chunks": 1, "n_microbatches": 4,
                "stages": [{"file": "stage-0.json", "crc32": 0, "bytes": 2},
                           {"file": "stage-1.json", "crc32": 0, "bytes": 2}]}"#;
        let v2 = r#"{"format": 2, "generation": 0, "step": 4, "tag": "step",
                "boundaries": [0, 3, 7], "kind": "OneFOneB", "n_sliced": 0, "n_chunks": 1,
                "n_microbatches": 4, "recompute": [false, false],
                "stages": [{"file": "stage-0.bin", "crc32": 0, "bytes": 2},
                           {"file": "stage-1.bin", "crc32": 0, "bytes": 2}]}"#;
        // Version 3 could name sliced 1F1B as a family of its own.
        let v3 = r#"{"format": 3, "generation": 0, "step": 4, "tag": "step",
                "model": {"blocks": 2, "hidden": 16, "heads": 2, "ffn_mult": 4, "vocab": 32,
                          "seq_len": 8},
                "boundaries": [0, 3, 7], "kind": "Sliced1F1B", "n_sliced": 1, "n_chunks": 1,
                "n_microbatches": 4, "recompute": [false, false],
                "stages": [{"file": "stage-0.bin", "crc32": 0, "bytes": 2},
                           {"file": "stage-1.bin", "crc32": 0, "bytes": 2}]}"#;
        // Version 4 did not record global checkpointing.
        let v4 = v3
            .replace(r#""format": 3"#, r#""format": 4"#)
            .replace("Sliced1F1B", "OneFOneB");
        for (version, manifest, ext) in [
            (1, v1, "json"),
            (2, v2, "bin"),
            (3, v3, "bin"),
            (4, &v4, "bin"),
        ] {
            let dir = temp_dir(&format!("ckpt_v{version}"));
            let mut store = CheckpointStore::open(&dir, 4).unwrap();
            let old = dir.join("gen-000000");
            fs::create_dir_all(&old).unwrap();
            fs::write(old.join("manifest.json"), manifest).unwrap();
            for i in 0..2 {
                fs::write(old.join(format!("stage-{i}.{ext}")), "{}").unwrap();
            }

            let names_it =
                |e: &CheckpointError| e.to_string().contains(&format!("format version {version}"));
            let err = store.load_generation(0).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }) && names_it(&err),
                "{err}"
            );
            let err = store.load_latest().unwrap_err();
            assert!(
                matches!(err, CheckpointError::NoValidGeneration { .. }) && names_it(&err),
                "{err}"
            );

            // A current generation on either side of it is what loads.
            let mut p = pipe(21);
            assert_eq!(store.save(&p.snapshot(5, "new")).unwrap(), 1);
            assert_eq!(store.load_latest().unwrap().0.generation, 1);
            fs::rename(&old, dir.join("gen-000002")).unwrap();
            assert_eq!(store.load_latest().unwrap().0.generation, 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_manifest_rebuilds_the_schedule_it_captured() {
        // Nine blocks, so four chunk-stages still hold two blocks each.
        let three_layers = ModelConfig {
            num_layers: 3,
            ..tiny()
        };
        let mut masked = sliced_1f1b(2, 4, 2);
        apply_recompute(&mut masked, &[true, false]);
        let mut masked_chunks = interleaved(2, 2, 4).unwrap();
        apply_recompute(&mut masked_chunks, &[false, true, true, false]);
        let mut sliced_zb = zero_bubble(2, 4);
        slice(&mut sliced_zb, 2);
        apply_recompute(&mut sliced_zb, &[false, true]);
        let dir = temp_dir("ckpt_sched");
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let schedules = [
            one_f_one_b(2, 4),
            sliced_1f1b(2, 4, 2),
            gpipe(2, 4),
            zero_bubble(2, 4),
            interleaved(2, 2, 4).unwrap(),
            masked,
            masked_chunks,
            sliced_zb,
        ];
        for (schedule, checkpointing) in schedules.iter().flat_map(|s| [(s, false), (s, true)]) {
            let even = |n: usize| (0..=n).map(|s| s * 9 / n).collect();
            let mut p = Pipeline::try_new(&PipelineConfig {
                model: three_layers.clone(),
                partition: Partition::new(even(schedule.n_stages())),
                schedule: schedule.clone(),
                lr: 1e-3,
                seed: 1,
                checkpointing,
            })
            .unwrap();
            store.save(&p.snapshot(0, "sched")).unwrap();
            let (manifest, _) = store.load_latest().unwrap();
            assert_eq!(manifest.checkpointing, checkpointing);
            assert_eq!(manifest.schedule().unwrap(), *p.schedule());
        }

        let (mut manifest, _) = store.load_latest().unwrap();
        manifest.recompute.pop();
        assert!(matches!(
            manifest.schedule(),
            Err(CheckpointError::Mismatch(_))
        ));
        manifest.n_chunks = 3;
        assert!(matches!(
            manifest.schedule(),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut a = pipe(1);
        let snap = PipelineSnapshot::capture(&mut a, 0, "x");
        // 4-stage pipeline: different stage count.
        let mut b = Pipeline::try_new(&PipelineConfig {
            model: tiny(),
            partition: Partition::new(vec![0, 2, 4, 6, 7]),
            schedule: one_f_one_b(4, 4),
            lr: 1e-3,
            seed: 1,
            checkpointing: false,
        })
        .unwrap();
        let before = b.param_checksum();
        let err = restore_states(&mut b, &snap.stages).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert_eq!(
            before.to_bits(),
            b.param_checksum().to_bits(),
            "rejected restore must not touch the pipeline"
        );
    }

    #[test]
    fn store_generations_commit_validate_and_prune() {
        let dir = temp_dir("ckpt_store");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let mut p = pipe(7);
        let batch = BatchSet::synthetic(3, 4, 2, tiny().seq_len, tiny().vocab_size);
        for step in 0..3u64 {
            p.train_iteration(&batch).unwrap();
            let snap = PipelineSnapshot::capture(&mut p, step + 1, "test");
            let g = store.save(&snap).unwrap();
            assert_eq!(g, step);
        }
        // retain=2: generation 0 pruned.
        assert_eq!(store.generations(), vec![1, 2]);
        let (manifest, states) = store.load_latest().unwrap();
        assert_eq!(manifest.generation, 2);
        assert_eq!(manifest.step, 3);
        assert_eq!(manifest.model, ModelShape::of(&tiny()));
        assert_eq!(manifest.boundaries, vec![0, 3, 7]);
        assert_eq!(states.len(), 2);

        // Restoring the loaded states into a fresh pipeline reproduces the
        // exact parameters.
        let mut q = pipe(123);
        restore_states(&mut q, &states).unwrap();
        assert_eq!(
            p.param_checksum().to_bits(),
            q.param_checksum().to_bits(),
            "store round-trip must be bit-exact"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill9_between_write_and_rename_never_leaves_a_torn_generation() {
        let dir = temp_dir("ckpt_kill9");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut p = pipe(11);
        let snap1 = PipelineSnapshot::capture(&mut p, 1, "good");
        store.save(&snap1).unwrap();
        let checksum1 = p.param_checksum();

        // Mutate, then crash mid-save: the new generation must NOT commit.
        let batch = BatchSet::synthetic(4, 4, 2, tiny().seq_len, tiny().vocab_size);
        p.train_iteration(&batch).unwrap();
        let snap2 = PipelineSnapshot::capture(&mut p, 2, "crashed");
        store.fail_next(FailPoint::BeforeRename);
        assert!(matches!(
            store.save(&snap2),
            Err(CheckpointError::Injected(FailPoint::BeforeRename))
        ));
        // The torn attempt is invisible: only generation 0 exists, and it
        // loads back to the pre-crash state.
        assert_eq!(store.generations(), vec![0]);
        let (manifest, states) = store.load_latest().unwrap();
        assert_eq!((manifest.generation, manifest.step), (0, 1));
        let mut q = pipe(55);
        restore_states(&mut q, &states).unwrap();
        assert_eq!(q.param_checksum().to_bits(), checksum1.to_bits());

        // A reopened store (the restarted process) cleans the tmp litter.
        let store2 = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store2.generations(), vec![0]);
        assert!(
            fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .all(|e| !e.file_name().to_string_lossy().starts_with("tmp-")),
            "tmp litter must be cleaned on open"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_falls_back_to_previous_generation() {
        let dir = temp_dir("ckpt_rot");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut p = pipe(13);
        let snap1 = PipelineSnapshot::capture(&mut p, 1, "good");
        store.save(&snap1).unwrap();
        let checksum1 = p.param_checksum();

        let batch = BatchSet::synthetic(5, 4, 2, tiny().seq_len, tiny().vocab_size);
        p.train_iteration(&batch).unwrap();
        let snap2 = PipelineSnapshot::capture(&mut p, 2, "rotted");
        store.fail_next(FailPoint::CorruptPayload);
        store.save(&snap2).unwrap(); // commits, then rots

        // Generation 1 exists but fails its CRC: load falls back to 0.
        assert_eq!(store.generations(), vec![0, 1]);
        assert!(store.load_generation(1).is_err());
        let (manifest, states) = store.load_latest().unwrap();
        assert_eq!(manifest.generation, 0);
        let mut q = pipe(56);
        restore_states(&mut q, &states).unwrap();
        assert_eq!(q.param_checksum().to_bits(), checksum1.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_reports_no_valid_generation() {
        let dir = temp_dir("ckpt_empty");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::NoValidGeneration { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_writer_commits_without_blocking_and_drains() {
        let dir = temp_dir("ckpt_bg");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let writer = BackgroundCheckpointer::spawn(store);
        let mut p = pipe(17);
        let batch = BatchSet::synthetic(6, 4, 2, tiny().seq_len, tiny().vocab_size);
        let mut accepted = 0;
        for step in 0..4u64 {
            p.train_iteration(&batch).unwrap();
            if writer.offer(PipelineSnapshot::capture(&mut p, step + 1, "bg")) {
                accepted += 1;
            }
        }
        writer.drain();
        let status = writer.status();
        assert_eq!(status.written, accepted);
        assert_eq!(status.skipped, 4 - accepted);
        assert!(accepted >= 1, "at least one snapshot must land");
        assert!(status.last_error.is_none(), "{status:?}");
        // Dropping the writer joins it; the store then reopens.
        drop(writer);
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let (manifest, _) = store.load_latest().unwrap();
        assert_eq!(manifest.generation as usize + 1, accepted);
        let _ = fs::remove_dir_all(&dir);
    }
}
