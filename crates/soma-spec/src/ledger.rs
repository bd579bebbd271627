//! The on-disk **run ledger**: a content-addressed result cache mapping
//! cell hashes to losslessly persisted [`SearchOutcome`]s.
//!
//! One on-disk format (generation [`LEDGER_VERSION`] = 3, specified in
//! `specs/LEDGER.md`): the ledger is a *directory* of 16 shard files
//! (`shard-0.bin` … `shard-f.bin`, keyed by the first hex digit of the
//! cell hash so concurrent writers never contend on one file), each
//! holding length-prefixed, checksummed frames, plus a disposable
//! `index.bin` sidecar carrying every row's metadata and frame
//! location. A frame and an index entry carry the same metadata block,
//! written by one function and read back into a [`LedgerRow`] by
//! another. A load that finds the index in sync with the shard files
//! builds the whole lookup table **without reading a single frame** —
//! outcomes decode lazily on first access — which is what makes resume
//! and cache lookup O(cells-missing) instead of O(cells-done).
//!
//! JSON is a *view* of the store, not a second store:
//! [`LedgerRow::to_line`] renders a row as its v2 JSON line (what
//! `ledger dump` prints; byte-identical to the lines `.jsonl` ledgers of
//! older versions hold, so the two compare with `cmp`), and
//! [`Ledger::migrate`] reads such v1/v2 JSONL files into a fresh ledger
//! directory. Loading an existing
//! regular file as a ledger is refused with a pointer to
//! `ledger migrate`.
//!
//! **Crash safety and self-validation:**
//!
//! * Every frame carries an FNV-1a 64 checksum, so silent corruption (a
//!   flipped bit that still parses) is caught, not replayed. A lazily
//!   decoded row re-verifies its frame (magic, length, checksum, `seq`)
//!   on first access, so a payload damaged after the index was synced
//!   decodes to *no* outcome — never to a wrong one — and callers treat
//!   it as a miss to re-search and supersede.
//! * A partially written trailing frame — the signature of a process
//!   killed mid-append — is dropped and truncated away **in place**
//!   (`set_len` + fsync); a torn tail on a gigabyte ledger never costs
//!   a whole-shard rewrite.
//! * A corrupt frame anywhere else quarantines: the damaged region is
//!   recorded in the `quarantine.jsonl` sidecar inside the ledger
//!   directory and the damaged shard is rewritten crash-safely (write
//!   temp + fsync + rename) — by the same shard rewriter
//!   [`Ledger::compact`] uses. Every valid frame survives;
//!   [`Ledger::health`] reports exactly what happened.
//! * Duplicate-hash rows are **last-write-wins**: all copies stay (the
//!   ledger is append-only history), lookups resolve to the newest, and
//!   [`LedgerHealth::duplicates`] counts the shadowed ones.
//!   [`Ledger::live_rows`] lists the rows lookups resolve to; compaction
//!   and campaign summaries read the rule from there.
//!
//! Observers (`watch`, summary builders, replay probes) must use
//! [`Ledger::load_readonly`], which tolerates torn tails and corrupt
//! frames **without writing anything** — a repairing load under a live
//! writer would truncate the writer's in-progress tail out from under
//! it.
//!
//! For chaos testing, a deterministic [`FaultPlan`](crate::fault) can be
//! attached with [`Ledger::inject_faults`]: appends then suffer seeded
//! torn writes, silent bit-flips and fsync failures, and every compaction
//! rewrite ticks the [`fault::site::LEDGER_COMPACT`] counter so tests
//! can assert which repair path ran.

use std::collections::hash_map::{Entry, HashMap};
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use soma_arch::HardwareConfig;
use soma_search::json::{self, Value};
use soma_search::record::{
    outcome_from_bytes, outcome_from_json, outcome_to_bytes, outcome_to_json, ENGINE_VERSION,
};
use soma_search::wire::{self, Reader};
use soma_search::{SearchConfig, SearchOutcome};

use crate::fault::{self, Fault, FaultPlan};
use crate::hash::{cell_hash, fnv1a};
use crate::ExperimentCell;

/// Ledger **format generation**: v3 is the binary sharded format. The
/// JSON view stays at row version [`JSONL_VERSION`].
pub const LEDGER_VERSION: u64 = 3;

/// Row version of the JSON view ([`LedgerRow::to_line`], `ledger
/// dump`). v2 added the per-row `crc` checksum; [`Ledger::migrate`]
/// also reads v1 rows (no `crc`).
pub const JSONL_VERSION: u64 = 2;

/// Number of shard files in a ledger directory (one per first hex digit
/// of the cell hash).
pub const SHARDS: usize = 16;

/// 8-byte header of every shard file.
const SHARD_MAGIC: &[u8; 8] = b"SOMALED3";
/// 4-byte prefix of every frame — the resync anchor after damage.
const FRAME_MAGIC: &[u8; 4] = b"FRM3";
/// 8-byte header of the index sidecar.
const INDEX_MAGIC: &[u8; 8] = b"SOMAIDX3";
/// The index sidecar inside a ledger directory.
const INDEX_FILE: &str = "index.bin";
/// Human-readable marker dropped into a ledger directory.
const MARKER_FILE: &str = "LEDGER";
/// Quarantine sidecar inside a ledger directory.
const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// Which shard a cell hash lives in: its first hex digit (cell hashes
/// are 16 lowercase hex digits; anything else falls back to a hash).
fn shard_of(hash: &str) -> u8 {
    match hash.as_bytes().first().copied() {
        Some(b @ b'0'..=b'9') => b - b'0',
        Some(b @ b'a'..=b'f') => b - b'a' + 10,
        Some(b @ b'A'..=b'F') => b - b'A' + 10,
        _ => (fnv1a(hash.bytes()) % SHARDS as u64) as u8,
    }
}

/// Path of shard `s` inside a ledger directory.
fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:x}.bin"))
}

/// Where a row's frame sits on disk.
#[derive(Debug, Clone, Copy)]
struct FrameLoc {
    shard: u8,
    offset: u64,
    len: u32,
}

/// Where a lazily decoded outcome's bytes come from.
#[derive(Debug)]
enum LazySource {
    /// The frame's outcome payload, already in memory (and verified).
    Payload(Vec<u8>),
    /// A whole frame on disk (magic + length + body), read and
    /// re-verified on demand against the row's `seq`. Every row of a
    /// shard shares one path.
    Disk { shard: Arc<Path>, loc: FrameLoc, seq: u64 },
}

impl LazySource {
    /// The encoded outcome payload.
    fn payload(&self) -> io::Result<Vec<u8>> {
        match self {
            LazySource::Payload(bytes) => Ok(bytes.clone()),
            LazySource::Disk { shard, loc, seq } => read_payload(shard, *loc, *seq),
        }
    }
}

/// A memoised lazy outcome: decoded at most once, shared by clones.
#[derive(Debug)]
struct LazyOutcome {
    source: LazySource,
    slot: OnceLock<Option<Arc<SearchOutcome>>>,
    /// The owning ledger's decode counter — how scale tests prove a
    /// resume is O(missing) (zero decodes on a pure index load).
    decodes: Arc<AtomicU64>,
}

impl LazyOutcome {
    fn decode(&self) -> Option<SearchOutcome> {
        match &self.source {
            LazySource::Payload(bytes) => outcome_from_bytes(bytes).ok(),
            disk => outcome_from_bytes(&disk.payload().ok()?).ok(),
        }
    }
}

/// A row's outcome: resident (freshly appended or migrated rows) or
/// lazy (loaded rows — decoded on first access).
#[derive(Debug, Clone)]
enum Payload {
    Resident(Arc<SearchOutcome>),
    Lazy(Arc<LazyOutcome>),
}

/// Reads exactly `len` bytes at `offset` from `path`.
fn read_exact_at(path: &Path, offset: u64, len: u32) -> io::Result<Vec<u8>> {
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len as usize];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads the outcome payload of the frame an index entry points at,
/// verified against the row's `seq` — magic, length field, checksum and
/// sequence number must all agree, so a stale index can never hand back
/// another row's bytes. When the frame is not intact at that location
/// (damage shifted the bytes in a way the index could not see), the
/// shard is scanned for the row's intact frame instead, so a lying index
/// never loses a frame.
fn read_payload(shard: &Path, loc: FrameLoc, seq: u64) -> io::Result<Vec<u8>> {
    let at_index = read_exact_at(shard, loc.offset, loc.len).ok().and_then(|frame| {
        let body_len = u32::from_le_bytes(frame.get(4..8)?.try_into().ok()?) as usize;
        let whole = frame.starts_with(FRAME_MAGIC) && frame.len() == 8 + body_len;
        let body = frame.get(8..).filter(|_| whole)?;
        decode_frame_body(body, loc, &Arc::default()).ok().filter(|row| row.seq == seq)
    });
    if let Some(row) = at_index {
        return row.payload_bytes();
    }
    let buf = fs::read(shard)?;
    let start = if buf.starts_with(SHARD_MAGIC) { SHARD_MAGIC.len() } else { 0 };
    let scan = scan_shard(&buf, start, loc.shard, &Arc::default());
    match scan.rows.into_iter().find(|r| r.seq == seq) {
        Some(row) => row.payload_bytes(),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame {seq} is damaged in {}", shard.display()),
        )),
    }
}

/// One persisted ledger row: the cell's identity, the summary metadata
/// every observer needs (cost, latency, evals — readable without
/// decoding the outcome), and the complete [`SearchOutcome`].
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// The content hash this row is keyed by (16 hex digits).
    pub hash: String,
    /// Scenario id of the cell.
    pub cell: String,
    /// Canonical workload name.
    pub workload: String,
    /// Resolved platform name.
    pub platform: String,
    /// Batch size.
    pub batch: u32,
    /// Engine version that produced the row. Empty for rows migrated
    /// from pre-v3 JSONL (which did not store it); compaction drops
    /// rows from a different, non-empty engine.
    pub engine: String,
    /// Best cost of the outcome (mirrors `outcome.best.cost`).
    pub best_cost: f64,
    /// Best latency in cycles (mirrors `outcome.best.report`).
    pub latency_cycles: u64,
    /// Total evaluations (mirrors `outcome.evals`).
    pub evals: u64,
    /// Global append order — what keeps merged shard rows in the same
    /// order the campaign wrote them.
    seq: u64,
    /// Frame location on disk, once the row came from (or went to) a
    /// shard.
    loc: Option<FrameLoc>,
    payload: Payload,
}

impl LedgerRow {
    /// Builds a row for one experiment cell, produced by the current
    /// engine.
    pub fn new(cell: &ExperimentCell, hash: &str, outcome: SearchOutcome) -> Self {
        Self::from_parts(hash, &cell.id, &cell.workload, &cell.platform, cell.batch, outcome)
    }

    /// Builds a row from its raw parts — the constructor scale tests
    /// and benchmarks use to synthesise campaigns without running
    /// searches. The row is stamped with the current [`ENGINE_VERSION`].
    pub fn from_parts(
        hash: &str,
        cell: &str,
        workload: &str,
        platform: &str,
        batch: u32,
        outcome: SearchOutcome,
    ) -> Self {
        Self {
            hash: hash.to_string(),
            cell: cell.to_string(),
            workload: workload.to_string(),
            platform: platform.to_string(),
            batch,
            engine: ENGINE_VERSION.to_string(),
            best_cost: outcome.best.cost,
            latency_cycles: outcome.best.report.latency_cycles,
            evals: outcome.evals,
            seq: 0,
            loc: None,
            payload: Payload::Resident(Arc::new(outcome)),
        }
    }

    /// The row's full outcome. Resident rows return it directly; lazy
    /// rows decode their frame payload on first access and memoise.
    /// `None` means the frame on disk is damaged — damage is an absent
    /// outcome, never a panic and never another row's outcome.
    pub fn outcome(&self) -> Option<&SearchOutcome> {
        match &self.payload {
            Payload::Resident(o) => Some(o),
            Payload::Lazy(l) => {
                let slot = l.slot.get_or_init(|| {
                    l.decodes.fetch_add(1, Ordering::Relaxed);
                    l.decode().map(Arc::new)
                });
                slot.as_deref()
            }
        }
    }

    /// The row's outcome payload in the binary codec, without
    /// re-decoding when the encoded bytes are already at hand.
    fn payload_bytes(&self) -> io::Result<Vec<u8>> {
        match &self.payload {
            Payload::Resident(o) => Ok(outcome_to_bytes(o)),
            Payload::Lazy(l) => l.source.payload(),
        }
    }

    /// The row's JSON view object — every field except the checksum, in
    /// canonical order. The checksum covers this object's canonical
    /// rendering.
    fn json_payload(&self, outcome: &SearchOutcome) -> Value {
        let mut o = Value::obj();
        o.push("v", JSONL_VERSION.into());
        o.push("hash", self.hash.as_str().into());
        o.push("cell", self.cell.as_str().into());
        o.push("workload", self.workload.as_str().into());
        o.push("platform", self.platform.as_str().into());
        o.push("batch", self.batch.into());
        o.push("outcome", outcome_to_json(outcome));
        o
    }

    /// Renders the row as its single-line v2 JSON view (no trailing
    /// newline), `crc` first — what `ledger dump` prints.
    /// Deterministic: equal rows render byte-identically. `None` when
    /// the row's outcome does not decode (see [`outcome`](Self::outcome)).
    pub fn to_line(&self) -> Option<String> {
        let payload = self.json_payload(self.outcome()?);
        let crc = format!("{:016x}", fnv1a(json::to_string(&payload).bytes()));
        let mut o = Value::obj();
        o.push("crc", crc.into());
        let Value::Obj(fields) = payload else { unreachable!("payload is an object") };
        for (k, v) in fields {
            o.push(k, v);
        }
        Some(json::to_string(&o))
    }

    /// Parses and **verifies** one v2 JSON line — the legacy-migration
    /// input: the embedded `crc` must match FNV-1a over the canonical
    /// rendering of the remaining fields, or the row is corrupt. Errors
    /// describe the first violation (bad JSON, missing/mismatched
    /// checksum, unsupported version, missing or mistyped field, malformed
    /// outcome).
    fn from_line(line: &str) -> Result<Self, String> {
        let mut payload = json::parse(line).map_err(|e| e.to_string())?;
        let crc = payload.field("crc", Value::as_str)?.to_string();
        let Value::Obj(fields) = &mut payload else { unreachable!("only objects have fields") };
        fields.retain(|(k, _)| k != "crc");
        let computed = format!("{:016x}", fnv1a(json::to_string(&payload).bytes()));
        if crc != computed {
            return Err(format!("checksum mismatch: row says {crc}, content is {computed}"));
        }
        let version = payload.field("v", Value::as_u64)?;
        if version != JSONL_VERSION {
            return Err(format!("unsupported ledger version {version}"));
        }
        Self::from_json_fields(&payload)
    }

    /// Parses a **v1** JSON line (the pre-checksum format). Only
    /// complete rows parse; anything short of the full field set stays
    /// an error.
    fn from_line_v1(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let version = v.field("v", Value::as_u64)?;
        if version != 1 {
            return Err(format!("not a v1 row (version {version})"));
        }
        Self::from_json_fields(&v)
    }

    /// Shared field extraction for JSON lines (v1 and v2 carry the same
    /// payload fields, and neither records an engine).
    fn from_json_fields(v: &Value) -> Result<Self, String> {
        let batch = u32::try_from(v.field("batch", Value::as_u64)?)
            .map_err(|_| "batch exceeds u32".to_string())?;
        let outcome = outcome_from_json(v.field("outcome", Some)?).map_err(|e| e.to_string())?;
        let mut row = Self::from_parts(
            v.field("hash", Value::as_str)?,
            v.field("cell", Value::as_str)?,
            v.field("workload", Value::as_str)?,
            v.field("platform", Value::as_str)?,
            batch,
            outcome,
        );
        row.engine.clear();
        Ok(row)
    }
}

/// Writes a row's metadata block: the fields a frame and an index entry
/// both carry, in `specs/LEDGER.md` order.
fn put_meta(buf: &mut Vec<u8>, row: &LedgerRow) {
    wire::put_str(buf, &row.hash);
    wire::put_str(buf, &row.cell);
    wire::put_str(buf, &row.workload);
    wire::put_str(buf, &row.platform);
    wire::put_varint(buf, u64::from(row.batch));
    wire::put_str(buf, &row.engine);
    wire::put_f64(buf, row.best_cost);
    wire::put_varint(buf, row.latency_cycles);
    wire::put_varint(buf, row.evals);
}

/// Reads a metadata block into the row stored at `loc`. Its outcome
/// decodes lazily: from the payload that follows the block in a frame
/// body (`shard` is `None`), or from the frame at `loc` in the `shard`
/// file an index entry names.
fn read_row(
    r: &mut Reader<'_>,
    seq: u64,
    loc: FrameLoc,
    shard: Option<&Arc<Path>>,
    decodes: &Arc<AtomicU64>,
) -> Result<LedgerRow, wire::WireError> {
    // Fields evaluate in the order written: the block's byte order.
    Ok(LedgerRow {
        hash: r.str()?.to_string(),
        cell: r.str()?.to_string(),
        workload: r.str()?.to_string(),
        platform: r.str()?.to_string(),
        batch: u32::try_from(r.varint()?).map_err(|_| wire::WireError::new("batch exceeds u32"))?,
        engine: r.str()?.to_string(),
        best_cost: r.f64()?,
        latency_cycles: r.varint()?,
        evals: r.varint()?,
        seq,
        loc: Some(loc),
        payload: Payload::Lazy(Arc::new(LazyOutcome {
            source: match shard {
                None => LazySource::Payload(r.bytes()?.to_vec()),
                Some(shard) => LazySource::Disk { shard: Arc::clone(shard), loc, seq },
            },
            slot: OnceLock::new(),
            decodes: Arc::clone(decodes),
        })),
    })
}

/// Encodes one row as a complete frame: `FRM3` magic, `u32` LE body
/// length, then the body (`u64` LE checksum over the rest, followed by
/// the versioned fields and the outcome payload). Deterministic.
fn encode_frame(row: &LedgerRow, payload: &[u8]) -> Vec<u8> {
    let mut rest = Vec::with_capacity(payload.len() + 128);
    wire::put_varint(&mut rest, LEDGER_VERSION);
    wire::put_varint(&mut rest, row.seq);
    put_meta(&mut rest, row);
    wire::put_bytes(&mut rest, payload);
    let crc = fnv1a(rest.iter().copied());
    let body_len = u32::try_from(rest.len() + 8).expect("frame body fits in u32");
    let mut frame = Vec::with_capacity(rest.len() + 16);
    frame.extend_from_slice(FRAME_MAGIC);
    frame.extend_from_slice(&body_len.to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&rest);
    frame
}

/// Decodes and **verifies** one frame body (the bytes after magic +
/// length) of the frame at `loc`: checksum first, then version, then
/// fields. The row keeps its payload in memory.
fn decode_frame_body(
    body: &[u8],
    loc: FrameLoc,
    decodes: &Arc<AtomicU64>,
) -> Result<LedgerRow, String> {
    if body.len() < 8 {
        return Err("frame body shorter than its checksum".into());
    }
    let crc = u64::from_le_bytes(body[..8].try_into().expect("8-byte slice"));
    let rest = &body[8..];
    let computed = fnv1a(rest.iter().copied());
    if crc != computed {
        return Err(format!(
            "frame checksum mismatch: frame says {crc:016x}, content is {computed:016x}"
        ));
    }
    let mut r = Reader::new(rest);
    let parse = |r: &mut Reader<'_>| -> Result<LedgerRow, wire::WireError> {
        let version = r.varint()?;
        if version != LEDGER_VERSION {
            return Err(wire::WireError::new(format!("unsupported ledger version {version}")));
        }
        let seq = r.varint()?;
        read_row(r, seq, loc, None, decodes)
    };
    let row = parse(&mut r).map_err(|e| e.msg)?;
    r.finish().map_err(|e| e.msg)?;
    Ok(row)
}

/// What a load found and repaired — the ledger's self-report. A
/// healthy load is `kept == rows, everything else zero/false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerHealth {
    /// Valid rows kept (including shadowed duplicates).
    pub kept: usize,
    /// Corrupt regions moved to the quarantine sidecar (or merely
    /// tolerated, on a read-only load).
    pub quarantined: usize,
    /// Whether a partially written trailing frame was found (and, on a
    /// repairing load, truncated away).
    pub truncated: bool,
    /// Valid rows whose hash repeats an earlier row's (last-write-wins;
    /// this counts the shadowed earlier copies).
    pub duplicates: usize,
}

impl LedgerHealth {
    /// Whether the load found any damage at all.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && !self.truncated
    }
}

/// The quarantine sidecar of a ledger directory:
/// `<dir>/quarantine.jsonl`, one JSON record per damaged region.
pub fn quarantine_path(ledger: &Path) -> PathBuf {
    ledger.join(QUARANTINE_FILE)
}

/// Whether `dir` is a directory holding files but none of a ledger's
/// own (the `LEDGER` marker, `index.bin`, a `shard-*.bin`): something
/// other than a ledger, which every load refuses rather than start a
/// ledger inside it. A missing path, a regular file and an empty
/// directory are not foreign.
fn is_foreign_dir(dir: &Path) -> bool {
    let Ok(entries) = fs::read_dir(dir) else { return false };
    let mut holds_files = false;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == MARKER_FILE
            || name == INDEX_FILE
            || (name.starts_with("shard-") && name.ends_with(".bin"))
        {
            return false;
        }
        holds_files = true;
    }
    holds_files
}

/// A parsed index sidecar: the next append sequence number, how many
/// bytes of each shard the entries cover, the entries' rows in index
/// order, and how many of those rows each shard holds.
struct IndexData {
    next_seq: u64,
    covered: [u64; SHARDS],
    rows: Vec<LedgerRow>,
    per_shard: [usize; SHARDS],
}

/// Reads and verifies the index sidecar of ledger directory `dir`. Its
/// rows decode lazily from their frames — building them reads no frame
/// — and every row of a shard shares the shard's path.
/// The index is a disposable cache: any damage (bad magic, checksum
/// mismatch, truncation) reads as "no index" and the shards get scanned
/// instead.
fn read_index(dir: &Path, decodes: &Arc<AtomicU64>) -> Option<IndexData> {
    let bytes = fs::read(dir.join(INDEX_FILE)).ok()?;
    if bytes.len() < 16 || &bytes[..8] != INDEX_MAGIC {
        return None;
    }
    let crc = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let rest = &bytes[16..];
    if crc != fnv1a(rest.iter().copied()) {
        return None;
    }
    let paths: [Arc<Path>; SHARDS] = std::array::from_fn(|s| Arc::from(shard_path(dir, s)));
    let parse = || -> Result<IndexData, wire::WireError> {
        let mut r = Reader::new(rest);
        let next_seq = r.varint()?;
        let mut covered = [0u64; SHARDS];
        for c in &mut covered {
            *c = r.varint()?;
        }
        let n = usize::try_from(r.varint()?)
            .map_err(|_| wire::WireError::new("entry count overflow"))?;
        // Every entry takes more than one byte, so a count the bytes
        // cannot hold reserves no more than they could.
        let mut rows = Vec::with_capacity(n.min(rest.len()));
        let mut per_shard = [0usize; SHARDS];
        for _ in 0..n {
            let seq = r.varint()?;
            let shard = r.u8()?;
            let path = paths
                .get(usize::from(shard))
                .ok_or_else(|| wire::WireError::new("shard id out of range"))?;
            let loc = FrameLoc {
                shard,
                offset: r.varint()?,
                len: u32::try_from(r.varint()?)
                    .map_err(|_| wire::WireError::new("frame length exceeds u32"))?,
            };
            rows.push(read_row(&mut r, seq, loc, Some(path), decodes)?);
            per_shard[usize::from(shard)] += 1;
        }
        r.finish()?;
        Ok(IndexData { next_seq, covered, rows, per_shard })
    };
    parse().ok()
}

/// What one shard scan found.
struct ShardScan {
    /// Valid rows, in frame order, with in-memory (already read)
    /// payloads.
    rows: Vec<LedgerRow>,
    /// Damaged byte regions `(offset, len)` — corrupt frames, garbage
    /// between frames, a broken shard header.
    damage: Vec<(u64, u64)>,
    /// Offset where a clean torn tail begins (an incomplete final
    /// frame with no later frame magic — a kill mid-append).
    torn_tail: Option<u64>,
}

/// Finds the next `FRAME_MAGIC` occurrence at or after `from`.
fn find_magic(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < FRAME_MAGIC.len() {
        return None;
    }
    (from..=buf.len() - FRAME_MAGIC.len()).find(|&i| &buf[i..i + FRAME_MAGIC.len()] == FRAME_MAGIC)
}

/// Scans one shard buffer from `start`, resynchronising on frame magic
/// after damage — corruption costs the damaged region, never a valid
/// later frame.
fn scan_shard(buf: &[u8], start: usize, shard: u8, decodes: &Arc<AtomicU64>) -> ShardScan {
    let mut scan = ShardScan { rows: Vec::new(), damage: Vec::new(), torn_tail: None };
    let mut pos = start;
    while pos < buf.len() {
        if buf[pos..].starts_with(FRAME_MAGIC) {
            let header_end = pos + FRAME_MAGIC.len() + 4;
            let frame_end = buf.get(pos + 4..header_end).map(|len| {
                header_end + u32::from_le_bytes(len.try_into().expect("4-byte slice")) as usize
            });
            match frame_end {
                Some(end) if end <= buf.len() => {
                    let loc = FrameLoc { shard, offset: pos as u64, len: (end - pos) as u32 };
                    if let Ok(row) = decode_frame_body(&buf[header_end..end], loc, decodes) {
                        scan.rows.push(row);
                        pos = end;
                        continue;
                    }
                }
                // The header or the frame it announces runs past EOF. If
                // no later magic exists, this is a torn trailing append;
                // otherwise the length itself is damaged.
                _ if find_magic(buf, pos + 1).is_none() => {
                    scan.torn_tail = Some(pos as u64);
                    return scan;
                }
                _ => {}
            }
        }
        // Damage at `pos`: skip to the next frame magic (or EOF).
        let next = find_magic(buf, pos + 1).unwrap_or(buf.len());
        scan.damage.push((pos as u64, (next - pos) as u64));
        pos = next;
    }
    scan
}

/// What [`Ledger::compact`] dropped and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Rows surviving compaction.
    pub kept: usize,
    /// Shadowed duplicate-hash rows dropped.
    pub dropped_duplicates: usize,
    /// Rows from a different (non-empty) engine version dropped.
    pub dropped_stale_engine: usize,
}

/// What [`Ledger::migrate`] moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateStats {
    /// Rows migrated.
    pub rows: usize,
    /// Source lines that did not parse as a complete v1/v2 row (bit
    /// rot, a torn final line) and were left behind in the source.
    pub skipped: usize,
}

/// The on-disk run ledger: an append-only store mapping cell content
/// hashes to persisted [`SearchOutcome`]s.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    rows: Vec<LedgerRow>,
    index: HashMap<String, usize>,
    health: LedgerHealth,
    /// Per-shard health.
    shard_health: Vec<LedgerHealth>,
    faults: Option<Arc<FaultPlan>>,
    /// Outcome decodes performed by this ledger's lazy rows — the
    /// O(cells-missing) resume proof counts this, not wall clock.
    decodes: Arc<AtomicU64>,
    next_seq: u64,
    readonly: bool,
    /// Whether a read-only load left work for a repairing one: shards
    /// its index did not cover (only a scan finds damage, and a
    /// repairing load rewrites such an index).
    needs_repair: bool,
}

impl Ledger {
    /// Loads the ledger directory at `path`, repairing damage. A
    /// missing path is an empty ledger (the directory is created on
    /// first append).
    ///
    /// Recovery is automatic and crash-safe:
    ///
    /// * a partially written trailing frame (a kill mid-append) is
    ///   dropped and truncated away in place (`set_len` + fsync — no
    ///   rewrite);
    /// * corrupt frames anywhere else (checksum mismatch, bad framing,
    ///   foreign version) are recorded in the quarantine sidecar and
    ///   the damaged shard is compacted via temp-file + rename, so a
    ///   crash mid-repair leaves either the old or the new shard —
    ///   never a mix;
    /// * duplicate-hash rows all stay; lookups resolve to the newest
    ///   (last-write-wins).
    ///
    /// [`health`](Self::health) reports what was kept, quarantined,
    /// truncated and shadowed. Loading never loses a valid row.
    ///
    /// Writers only — observers must use
    /// [`load_readonly`](Self::load_readonly).
    ///
    /// # Errors
    ///
    /// Real I/O errors, or [`io::ErrorKind::InvalidInput`] when `path`
    /// is an existing regular file (a JSONL ledger from an older
    /// version, or a quarantine sidecar) or a non-empty directory
    /// holding no ledger files (the message starts with "not a ledger
    /// directory") — corruption is repaired, not fatal.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::load_impl(path, None, false)
    }

    /// Loads the ledger **without writing anything**: torn tails and
    /// corrupt frames are tolerated (skipped and reported in
    /// [`health`](Self::health)) but never truncated, quarantined or
    /// compacted. This is the only safe load under a live writer — a
    /// repairing load would treat the writer's in-progress tail as
    /// damage and truncate it out from under the writer. Every
    /// observer path (`watch`, summaries, replay probes) uses this.
    ///
    /// [`append`](Self::append), [`compact`](Self::compact) and
    /// [`sync_index`](Self::sync_index) on a read-only ledger fail
    /// with [`io::ErrorKind::PermissionDenied`].
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load).
    pub fn load_readonly(path: &Path) -> io::Result<Self> {
        Self::load_impl(path, None, true)
    }

    /// A plan in `faults` is attached from the start, so the load's own
    /// repair actions tick its counters (site
    /// [`fault::site::LEDGER_COMPACT`] on every compaction rewrite; a
    /// torn-tail-only repair ticks nothing).
    fn load_impl(path: &Path, faults: Option<Arc<FaultPlan>>, readonly: bool) -> io::Result<Self> {
        if path.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is a file, not a ledger directory; convert a JSONL ledger with \
                     `ledger migrate {} <dir>.ledger`",
                    path.display(),
                    path.display()
                ),
            ));
        }
        if is_foreign_dir(path) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "not a ledger directory (it holds files, but no `{MARKER_FILE}`, \
                     `{INDEX_FILE}` or `shard-*.bin`)"
                ),
            ));
        }
        let mut ledger = Self {
            path: path.to_path_buf(),
            rows: Vec::new(),
            index: HashMap::new(),
            health: LedgerHealth::default(),
            shard_health: vec![LedgerHealth::default(); SHARDS],
            faults,
            decodes: Arc::new(AtomicU64::new(0)),
            next_seq: 0,
            readonly,
            needs_repair: false,
        };
        if path.exists() {
            ledger.load_shards()?;
        }
        Ok(ledger)
    }

    /// Inserts a row into the in-memory lookup state (last-write-wins).
    fn index_row(&mut self, row: LedgerRow) {
        if self.index.insert(row.hash.clone(), self.rows.len()).is_some() {
            self.health.duplicates += 1;
        }
        self.rows.push(row);
    }

    fn load_shards(&mut self) -> io::Result<()> {
        let dir = self.path.clone();
        let idx = read_index(&dir, &self.decodes);
        let mut index_stale = idx.is_none();
        // Per shard, whether the index rows of that shard are kept: the
        // index covers the whole shard, or a prefix whose appended tail
        // scans clean. Rows of every other shard come from a scan.
        let mut keep_indexed = [false; SHARDS];
        let mut scanned: Vec<LedgerRow> = Vec::new();

        for (s, keep) in keep_indexed.iter_mut().enumerate() {
            let spath = shard_path(&dir, s);
            let size = fs::metadata(&spath).map(|m| m.len()).unwrap_or(0);
            let (covered, indexed) =
                idx.as_ref().map_or((0, 0), |i| (i.covered[s], i.per_shard[s]));
            if size == 0 {
                if covered > 0 || indexed > 0 {
                    index_stale = true;
                }
                continue;
            }
            if idx.is_some() && covered == size {
                // The index covers the whole shard: trust it and build
                // every row without reading a single frame.
                *keep = true;
                self.shard_health[s].kept = indexed;
                continue;
            }
            index_stale = true;
            let buf = fs::read(&spath)?;
            let full_start = if buf.starts_with(SHARD_MAGIC) { SHARD_MAGIC.len() } else { 0 };
            let mut scan;
            if idx.is_some() && covered >= SHARD_MAGIC.len() as u64 && covered < size {
                // Stale-but-consistent index: trust the covered prefix,
                // scan only the appended tail.
                *keep = true;
                scan = scan_shard(&buf, covered as usize, s as u8, &self.decodes);
                if !scan.damage.is_empty() {
                    // Damage in the tail: distrust the index for this
                    // shard and rescan everything, so the repair
                    // rewrite sees every valid frame.
                    *keep = false;
                    scan = scan_shard(&buf, full_start, s as u8, &self.decodes);
                }
            } else {
                scan = scan_shard(&buf, full_start, s as u8, &self.decodes);
            }

            let sh = &mut self.shard_health[s];
            sh.kept = if *keep { indexed } else { 0 } + scan.rows.len();
            sh.quarantined = scan.damage.len();
            sh.truncated = scan.torn_tail.is_some();

            if !self.readonly {
                if !scan.damage.is_empty() {
                    // Quarantine the damaged regions, then rewrite the
                    // shard from its valid frames (temp + rename).
                    let mut q = fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(quarantine_path(&dir))?;
                    for &(off, len) in &scan.damage {
                        let end = (off + len).min(buf.len() as u64) as usize;
                        let sample = &buf[off as usize..end.min(off as usize + 64)];
                        let hex: String = sample.iter().map(|b| format!("{b:02x}")).collect();
                        let mut o = Value::obj();
                        o.push("shard", (s as u64).into());
                        o.push("offset", off.into());
                        o.push("len", len.into());
                        o.push("hex", hex.as_str().into());
                        q.write_all(json::to_string(&o).as_bytes())?;
                        q.write_all(b"\n")?;
                    }
                    q.flush()?;
                    let frames: Vec<&[u8]> = scan
                        .rows
                        .iter()
                        .map(|row| {
                            let loc = row.loc.expect("a scanned row knows its frame");
                            &buf[loc.offset as usize..][..loc.len as usize]
                        })
                        .collect();
                    let locs = self.rewrite_shard(s, &frames)?;
                    for (row, loc) in scan.rows.iter_mut().zip(locs) {
                        row.loc = Some(loc);
                    }
                } else if let Some(ts) = scan.torn_tail {
                    // Only a torn tail: truncate the shard in place.
                    let f = fs::OpenOptions::new().write(true).open(&spath)?;
                    f.set_len(ts)?;
                    f.sync_all()?;
                }
            }
            scanned.extend(scan.rows);
        }

        let dropped = idx
            .as_ref()
            .is_some_and(|i| (0..SHARDS).any(|s| !keep_indexed[s] && i.per_shard[s] > 0));
        let (next_seq_floor, mut rows) = idx.map_or((0, Vec::new()), |i| (i.next_seq, i.rows));
        if dropped {
            rows.retain(|row| row.loc.is_some_and(|l| keep_indexed[usize::from(l.shard)]));
        }
        // Global append order: `seq` is the campaign's write order, so
        // observers see rows in the order the campaign wrote them
        // (summary byte-stability); equal `seq`s, which only concurrent
        // writers leave, go by shard. The index lists its entries in
        // that order already, so only a merge with scanned rows, or an
        // index that breaks the order, needs a sort.
        let order = |row: &LedgerRow| (row.seq, row.loc.map(|l| l.shard));
        let merged = !scanned.is_empty();
        rows.append(&mut scanned);
        if merged || !rows.windows(2).all(|w| order(&w[0]) <= order(&w[1])) {
            rows.sort_by_key(order);
        }
        self.index = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if self.index.insert(row.hash.clone(), i).is_some() {
                self.health.duplicates += 1;
            }
        }
        self.rows = rows;
        self.health.kept = self.rows.len();
        self.health.quarantined = self.shard_health.iter().map(|h| h.quarantined).sum();
        self.health.truncated = self.shard_health.iter().any(|h| h.truncated);
        self.next_seq = self.rows.last().map_or(0, |r| r.seq + 1).max(next_seq_floor);
        self.needs_repair = index_stale && self.readonly;
        if index_stale && !self.readonly {
            self.write_index()?;
        }
        Ok(())
    }
}

impl Ledger {
    fn readonly_err() -> io::Error {
        io::Error::new(io::ErrorKind::PermissionDenied, "ledger was loaded read-only")
    }

    /// Turns a [read-only](Self::load_readonly) load into a writer. When
    /// that load found its index covering every shard, a repairing load
    /// would find nothing to truncate, quarantine or re-index, so this
    /// only allows writes; otherwise it reloads in repairing mode,
    /// exactly as [`load`](Self::load) does. A writer comes back as it
    /// is.
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load), when it reloads.
    pub fn into_writer(mut self) -> io::Result<Ledger> {
        if self.needs_repair {
            return Self::load_impl(&self.path, self.faults.take(), false);
        }
        self.readonly = false;
        Ok(self)
    }

    /// Attaches a deterministic fault plan: subsequent appends consult
    /// it (site [`fault::site::LEDGER_APPEND`]) and may tear, corrupt
    /// or fail. Chaos-test plumbing — never set in production paths.
    pub fn inject_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Whether this ledger was loaded read-only (observer mode).
    pub fn readonly(&self) -> bool {
        self.readonly
    }

    /// What the load found (and, unless read-only, repaired).
    pub fn health(&self) -> LedgerHealth {
        self.health
    }

    /// Per-shard health, indexed by shard number.
    pub fn shard_healths(&self) -> &[LedgerHealth] {
        &self.shard_health
    }

    /// How many outcome payloads this ledger has decoded so far — the
    /// observable cost of a load + lookups. An index-backed resume
    /// that only checks membership decodes nothing.
    pub fn outcome_decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// All rows, in append (campaign) order — shadowed duplicates
    /// included.
    pub fn rows(&self) -> &[LedgerRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the ledger holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up a row by its cell content hash. With duplicate-hash
    /// rows, resolves to the newest (last-write-wins — pinned by test).
    /// Pure index access: never touches the disk or decodes a payload.
    pub fn lookup(&self, hash: &str) -> Option<&LedgerRow> {
        self.index.get(hash).map(|&i| &self.rows[i])
    }

    /// The rows [`lookup`](Self::lookup) resolves to — each hash's
    /// newest row, in append order. This is the one last-write-wins
    /// rule: compaction keeps these rows and summaries count them.
    pub fn live_rows(&self) -> impl Iterator<Item = &LedgerRow> {
        let live = |&(i, row): &(usize, &LedgerRow)| self.index.get(&row.hash) == Some(&i);
        self.rows.iter().enumerate().filter(live).map(|(_, row)| row)
    }

    /// Creates the ledger directory and its human-readable marker on
    /// first use.
    fn ensure_dir(&self) -> io::Result<()> {
        if !self.path.exists() {
            fs::create_dir_all(&self.path)?;
        }
        let marker = self.path.join(MARKER_FILE);
        if !marker.exists() {
            fs::write(&marker, "soma ledger v3: binary sharded format. See specs/LEDGER.md.\n")?;
        }
        Ok(())
    }

    /// Opens shard `s` for appending, creating it with its magic when it
    /// is new. Returns the file and its length: the next frame's offset,
    /// wherever the file currently ends — robust to dead bytes left by
    /// an earlier torn append.
    fn open_shard(&self, s: u8) -> io::Result<(fs::File, u64)> {
        let spath = shard_path(&self.path, usize::from(s));
        let fresh = !spath.exists();
        let mut f = fs::OpenOptions::new().create(true).append(true).open(&spath)?;
        if fresh {
            f.write_all(SHARD_MAGIC)?;
        }
        let len = f.metadata()?.len();
        Ok((f, len))
    }

    /// Replaces shard `s` with the magic and `frames`, crash-safely:
    /// write a temp file, fsync it, rename it over the shard. Ticks
    /// [`fault::site::LEDGER_COMPACT`] once. Returns where each frame
    /// now sits.
    fn rewrite_shard(&self, s: usize, frames: &[&[u8]]) -> io::Result<Vec<FrameLoc>> {
        let spath = shard_path(&self.path, s);
        let tmp = spath.with_extension("bin.tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(SHARD_MAGIC)?;
        let mut offset = SHARD_MAGIC.len() as u64;
        let mut locs = Vec::with_capacity(frames.len());
        for frame in frames {
            f.write_all(frame)?;
            locs.push(FrameLoc { shard: s as u8, offset, len: frame.len() as u32 });
            offset += frame.len() as u64;
        }
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &spath)?;
        if let Some(plan) = &self.faults {
            plan.observe(fault::site::LEDGER_COMPACT);
        }
        Ok(locs)
    }

    /// Appends one row, creating the directory and shard file on first
    /// use, and flushes before returning — once `append` returns, the
    /// row survives a kill. A repeated hash is allowed (the ledger is
    /// append-only history) and shadows the earlier row in lookups.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::PermissionDenied`] on a read-only ledger; I/O
    /// errors creating directories or writing — including injected
    /// ones when a [`FaultPlan`] is attached. After an error the
    /// in-memory index is unchanged; the on-disk tail may be torn,
    /// which the next repairing load fixes.
    pub fn append(&mut self, mut row: LedgerRow) -> io::Result<()> {
        if self.readonly {
            return Err(Self::readonly_err());
        }
        self.ensure_dir()?;
        let payload = row.payload_bytes()?;
        row.seq = self.next_seq;
        let frame = encode_frame(&row, &payload);
        let shard = shard_of(&row.hash);
        let (mut f, offset) = self.open_shard(shard)?;
        match self.faults.as_ref().and_then(|p| p.next(fault::site::LEDGER_APPEND)) {
            Some(Fault::TornWrite { keep_per_mille }) => {
                // Persist only a prefix, then "crash" the append.
                let keep = frame.len() * usize::from(keep_per_mille) / 1000;
                f.write_all(&frame[..keep])?;
                f.flush()?;
                return Err(io::Error::other("injected fault: torn write"));
            }
            Some(Fault::BitFlip { salt }) => {
                // The write "succeeds" but the medium lies: one bit of
                // the persisted frame is flipped. The row is indexed in
                // memory (the writer believes it) and only a later
                // verification — a scan's checksum pass or a lazy
                // decode — discovers the damage.
                let mut bytes = frame.clone();
                fault::flip_bit(&mut bytes, salt);
                f.write_all(&bytes)?;
                f.flush()?;
            }
            Some(Fault::FsyncError) => {
                return Err(io::Error::other("injected fault: fsync failed"));
            }
            _ => {
                f.write_all(&frame)?;
                f.flush()?;
            }
        }
        self.next_seq += 1;
        row.loc = Some(FrameLoc { shard, offset, len: frame.len() as u32 });
        self.index_row(row);
        self.health.kept = self.rows.len();
        Ok(())
    }

    /// Bulk append: every row in order, with each shard file opened
    /// once — the fast path for migration and synthetic campaigns.
    /// Not fault-instrumented (chaos tests exercise [`append`](Self::append)).
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_all(&mut self, batch: Vec<LedgerRow>) -> io::Result<()> {
        if self.readonly {
            return Err(Self::readonly_err());
        }
        self.ensure_dir()?;
        let mut files: HashMap<u8, (fs::File, u64)> = HashMap::new();
        for mut row in batch {
            let payload = row.payload_bytes()?;
            row.seq = self.next_seq;
            self.next_seq += 1;
            let frame = encode_frame(&row, &payload);
            let shard = shard_of(&row.hash);
            let (f, off) = match files.entry(shard) {
                Entry::Occupied(open) => open.into_mut(),
                Entry::Vacant(slot) => slot.insert(self.open_shard(shard)?),
            };
            f.write_all(&frame)?;
            row.loc = Some(FrameLoc { shard, offset: *off, len: frame.len() as u32 });
            *off += frame.len() as u64;
            self.index_row(row);
        }
        for (f, _) in files.values_mut() {
            f.flush()?;
            f.sync_all()?;
        }
        self.health.kept = self.rows.len();
        Ok(())
    }

    /// Rewrites the index sidecar to cover the shards as they stand.
    /// Writers call this at the end of a campaign so the next load is
    /// O(1) in rows-done. The index is a disposable cache — losing it
    /// costs a scan, never a row.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::PermissionDenied`] on a read-only ledger; real
    /// I/O errors.
    pub fn sync_index(&self) -> io::Result<()> {
        if self.readonly {
            return Err(Self::readonly_err());
        }
        self.write_index()
    }

    fn write_index(&self) -> io::Result<()> {
        if !self.path.exists() {
            return Ok(());
        }
        let mut rest = Vec::new();
        wire::put_varint(&mut rest, self.next_seq);
        for s in 0..SHARDS {
            let len = fs::metadata(shard_path(&self.path, s)).map(|m| m.len()).unwrap_or(0);
            wire::put_varint(&mut rest, len);
        }
        let indexed: Vec<(&LedgerRow, FrameLoc)> =
            self.rows.iter().filter_map(|r| Some((r, r.loc?))).collect();
        wire::put_varint(&mut rest, indexed.len() as u64);
        for (row, loc) in indexed {
            wire::put_varint(&mut rest, row.seq);
            rest.push(loc.shard);
            wire::put_varint(&mut rest, loc.offset);
            wire::put_varint(&mut rest, u64::from(loc.len));
            put_meta(&mut rest, row);
        }
        let crc = fnv1a(rest.iter().copied());
        let tmp = self.path.join("index.bin.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(INDEX_MAGIC)?;
            f.write_all(&crc.to_le_bytes())?;
            f.write_all(&rest)?;
            f.flush()?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path.join(INDEX_FILE))
    }

    /// Compacts the ledger: drops shadowed duplicate-hash rows and
    /// rows produced by a different (non-empty, superseded) engine
    /// version, rewriting every shard crash-safely and refreshing the
    /// index. Surviving rows keep their append order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::PermissionDenied`] on a read-only ledger; real
    /// I/O errors.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        if self.readonly {
            return Err(Self::readonly_err());
        }
        let live: Vec<LedgerRow> = self.live_rows().cloned().collect();
        let live_len = live.len();
        let mut keep: Vec<LedgerRow> = live
            .into_iter()
            .filter(|row| row.engine.is_empty() || row.engine == ENGINE_VERSION)
            .collect();
        let stats = CompactStats {
            kept: keep.len(),
            dropped_duplicates: self.rows.len() - live_len,
            dropped_stale_engine: live_len - keep.len(),
        };

        self.ensure_dir()?;
        // Encode every frame before any rewrite: disk-lazy rows still
        // point at the files we are replacing.
        let encoded: Vec<Vec<u8>> = keep
            .iter()
            .map(|row| row.payload_bytes().map(|payload| encode_frame(row, &payload)))
            .collect::<io::Result<_>>()?;
        for s in 0..SHARDS {
            let mine: Vec<usize> =
                (0..keep.len()).filter(|&i| usize::from(shard_of(&keep[i].hash)) == s).collect();
            if mine.is_empty() && !shard_path(&self.path, s).exists() {
                continue;
            }
            let frames: Vec<&[u8]> = mine.iter().map(|&i| encoded[i].as_slice()).collect();
            for (&i, loc) in mine.iter().zip(self.rewrite_shard(s, &frames)?) {
                keep[i].loc = Some(loc);
            }
        }

        self.rows = keep;
        self.index = self.rows.iter().enumerate().map(|(i, r)| (r.hash.clone(), i)).collect();
        self.health.kept = self.rows.len();
        self.health.duplicates = 0;
        self.write_index()?;
        Ok(stats)
    }

    /// Migrates a JSONL ledger file from an older version (v1 or v2
    /// lines) into a fresh ledger directory at `dst`. One-way: `src` is
    /// only read, never touched. Lines that do not parse as a complete
    /// row (bit rot, a torn final line) are skipped and counted; row
    /// order and duplicate history are preserved, so `ledger dump` of
    /// the target reproduces every intact v2 line byte for byte.
    ///
    /// # Errors
    ///
    /// If `dst` already exists or `src` is not a regular file, plus
    /// real I/O errors.
    pub fn migrate(src: &Path, dst: &Path) -> io::Result<MigrateStats> {
        if !src.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("migration source {} is not a JSONL file", src.display()),
            ));
        }
        if dst.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("migration target {} already exists", dst.display()),
            ));
        }
        let bytes = fs::read(src)?;
        // Byte-wise line split: bit rot can break UTF-8 itself. The
        // JSONL writer terminated every line, so the piece after the
        // last newline is a torn write whenever it is non-empty.
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let torn = lines.pop().is_some_and(|tail| !tail.is_empty());
        let mut rows = Vec::new();
        let mut skipped = usize::from(torn);
        for line in lines.into_iter().filter(|l| !l.is_empty()) {
            let parsed = std::str::from_utf8(line).map_err(|e| e.to_string()).and_then(|text| {
                LedgerRow::from_line(text).or_else(|e| LedgerRow::from_line_v1(text).map_err(|_| e))
            });
            match parsed {
                Ok(row) => rows.push(row),
                Err(_) => skipped += 1,
            }
        }
        let mut target = Self::load(dst)?;
        target.append_all(rows)?;
        target.sync_index()?;
        Ok(MigrateStats { rows: target.len(), skipped })
    }
}

/// The ledger key of one experiment cell under a search configuration
/// and seed portfolio: its [`cell_hash`] at the current
/// [`ENGINE_VERSION`], as 16 hex digits.
pub fn cell_key(cell: &ExperimentCell, config: &SearchConfig, seeds: &[u64]) -> String {
    key_for(&cell.id, &cell.hw, config, seeds)
}

/// [`cell_key`] from the cell's id and hardware alone, for a caller that
/// looks a cell up before building its network.
pub fn key_for(id: &str, hw: &HardwareConfig, config: &SearchConfig, seeds: &[u64]) -> String {
    format!("{:016x}", cell_hash(id, hw, config, seeds, ENGINE_VERSION))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use soma_search::record::synthetic_outcome;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("soma-ledger-unit");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn wipe(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_dir_all(path);
    }

    /// A synthetic row; small `i` all land in shard 0.
    fn synth_row(i: u64) -> LedgerRow {
        LedgerRow::from_parts(
            &format!("{i:016x}"),
            &format!("cell-{i}"),
            "wl",
            "edge",
            1,
            synthetic_outcome(i, 4),
        )
    }

    /// The JSON view of every row, newline-terminated — what `ledger
    /// dump` prints.
    fn dump(ledger: &Ledger) -> String {
        ledger.rows().iter().map(|r| r.to_line().expect("row decodes") + "\n").collect()
    }

    #[test]
    fn corrupt_interior_line_is_quarantined_not_fatal() {
        let dir = tmp("corrupt.ledger");
        wipe(&dir);
        {
            let mut ledger = Ledger::load(&dir).unwrap();
            ledger.append(synth_row(1)).unwrap();
            ledger.append(synth_row(2)).unwrap();
        }
        // Garbage between the two frames of shard 0.
        let shard = shard_path(&dir, 0);
        let clean = fs::read(&shard).unwrap();
        let second = find_magic(&clean, SHARD_MAGIC.len() + 1).expect("second frame");
        let mut damaged = clean.clone();
        damaged.splice(second..second, b"garbage".iter().copied());
        fs::write(&shard, &damaged).unwrap();

        let ledger = Ledger::load(&dir).unwrap();
        assert_eq!(
            ledger.health(),
            LedgerHealth { kept: 2, quarantined: 1, truncated: false, duplicates: 0 }
        );
        assert!(!ledger.health().is_clean());
        // The damaged region is recorded in the sidecar and the shard
        // is compacted clean: a reload reports full health.
        let q = fs::read_to_string(quarantine_path(&dir)).unwrap();
        assert!(q.contains(&"garbage".bytes().map(|b| format!("{b:02x}")).collect::<String>()));
        assert_eq!(fs::read(&shard).unwrap(), clean);
        assert!(Ledger::load(&dir).unwrap().health().is_clean());
        wipe(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_ledger() {
        let path = std::env::temp_dir().join("soma-ledger-unit-definitely-missing.ledger");
        let ledger = Ledger::load(&path).unwrap();
        assert!(ledger.is_empty());
        assert_eq!(ledger.len(), 0);
        assert!(ledger.lookup("0000000000000000").is_none());
        assert!(ledger.health().is_clean());
        assert!(!path.exists(), "loading creates nothing; the first append does");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        // A v1 row (no crc) fails the checksum gate first; a crc'd row
        // of a foreign version fails the version gate.
        let err = LedgerRow::from_line("{\"v\":1,\"hash\":\"x\"}").unwrap_err();
        assert!(err.contains("missing `crc`"), "{err}");
        let payload = "{\"v\":99}";
        let crc = format!("{:016x}", fnv1a(payload.bytes()));
        let line = format!("{{\"crc\":\"{crc}\",\"v\":99}}");
        let err = LedgerRow::from_line(&line).unwrap_err();
        assert!(err.contains("unsupported ledger version 99"), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let payload = "{\"v\":2,\"hash\":\"abc\"}";
        let line =
            format!("{{\"crc\":\"{:016x}\",\"v\":2,\"hash\":\"abd\"}}", fnv1a(payload.bytes()));
        let err = LedgerRow::from_line(&line).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn quarantine_sidecars_are_refused_as_ledgers() {
        // A sidecar is a regular file, and every regular file is
        // refused: feeding quarantined bytes back through repair would
        // quarantine them again into their own sidecar.
        let path = tmp("refused.ledger").join(QUARANTINE_FILE);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "garbage\n").unwrap();
        for load in [Ledger::load, Ledger::load_readonly] {
            let err = load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("ledger migrate"), "{err}");
        }
        // The sidecar's bytes are untouched by the refused loads.
        assert_eq!(fs::read_to_string(&path).unwrap(), "garbage\n");
        wipe(path.parent().unwrap());
    }

    #[test]
    fn only_a_directory_of_other_files_is_foreign() {
        let dir = tmp("foreign");
        wipe(&dir);
        assert!(!is_foreign_dir(&dir), "a missing path");
        fs::create_dir_all(&dir).unwrap();
        assert!(!is_foreign_dir(&dir), "an empty directory");
        fs::write(dir.join("notes.txt"), "x").unwrap();
        assert!(is_foreign_dir(&dir));
        assert!(!is_foreign_dir(&dir.join("notes.txt")), "a regular file");
        for own in [MARKER_FILE, INDEX_FILE, "shard-3.bin"] {
            fs::write(dir.join(own), "").unwrap();
            assert!(!is_foreign_dir(&dir), "{own} marks a ledger");
            fs::remove_file(dir.join(own)).unwrap();
        }
        wipe(&dir);
    }

    #[test]
    fn format_detection_prefers_what_exists() {
        // A directory (or a path that does not exist yet) is a ledger
        // whatever its name; an existing regular file is a JSONL
        // ledger from an older version and is refused with the
        // migration hint — never read, never written.
        let dir = tmp("detect");
        wipe(&dir);
        let mut fresh = Ledger::load(&dir).unwrap();
        fresh.append(synth_row(1)).unwrap();
        assert!(dir.is_dir(), "the first append creates the directory");
        assert_eq!(Ledger::load_readonly(&dir).unwrap().len(), 1);
        let file = tmp("detect-legacy.jsonl");
        fs::write(&file, synth_row(1).to_line().unwrap() + "\n").unwrap();
        let err = Ledger::load(&file).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("ledger migrate"), "{err}");
        wipe(&dir);
        wipe(&file);
    }

    #[test]
    fn binary_ledger_round_trips_through_index_and_scan() {
        let dir = tmp("roundtrip.ledger");
        wipe(&dir);
        let mut ledger = Ledger::load(&dir).unwrap();
        let rows: Vec<LedgerRow> = (0..40).map(synth_row).collect();
        for row in rows.iter().cloned() {
            ledger.append(row).unwrap();
        }
        ledger.sync_index().unwrap();

        // Index-backed reload: every row present, nothing decoded.
        let warm = Ledger::load_readonly(&dir).unwrap();
        assert_eq!(warm.len(), 40);
        assert!(warm.health().is_clean());
        for row in &rows {
            let got = warm.lookup(&row.hash).expect("hash present");
            assert_eq!(got.cell, row.cell);
            assert_eq!(got.best_cost.to_bits(), row.best_cost.to_bits());
            assert_eq!(got.evals, row.evals);
        }
        assert_eq!(warm.outcome_decodes(), 0, "a pure membership resume decodes nothing");
        // Lazily decoding one outcome touches exactly one frame.
        let one = warm.lookup(&rows[7].hash).unwrap();
        assert_eq!(one.outcome().expect("payload decodes").evals, rows[7].outcome().unwrap().evals);
        assert_eq!(warm.outcome_decodes(), 1);

        // Scan-backed reload (index deleted): same rows, same order.
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let scanned = Ledger::load_readonly(&dir).unwrap();
        assert!(scanned.health().is_clean());
        assert_eq!(scanned.len(), 40);
        let order: Vec<&str> = scanned.rows().iter().map(|r| r.hash.as_str()).collect();
        let want: Vec<&str> = rows.iter().map(|r| r.hash.as_str()).collect();
        assert_eq!(order, want, "seq merge preserves append order across shards");
        for row in &rows {
            let got = scanned.lookup(&row.hash).unwrap();
            assert_eq!(
                outcome_to_bytes(got.outcome().unwrap()),
                outcome_to_bytes(row.outcome().unwrap())
            );
        }
        wipe(&dir);
    }

    #[test]
    fn an_index_out_of_seq_order_still_loads_in_seq_order() {
        let dir = tmp("unordered.ledger");
        wipe(&dir);
        // Rows spread over four shards by their first hex digit.
        let rows: Vec<LedgerRow> = (0..12u64)
            .map(|i| {
                let mut row = synth_row(i);
                row.hash = format!("{:x}{i:015x}", i % 4);
                row
            })
            .collect();
        let mut ledger = Ledger::load(&dir).unwrap();
        ledger.append_all(rows.clone()).unwrap();
        // Entries newest first. The shards are untouched, so the index
        // still covers them and the load trusts it.
        ledger.rows.reverse();
        ledger.write_index().unwrap();

        let loaded = Ledger::load_readonly(&dir).unwrap();
        assert_eq!(loaded.outcome_decodes(), 0);
        assert!(loaded.health().is_clean());
        let seqs: Vec<u64> = loaded.rows().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
        let order: Vec<&str> = loaded.rows().iter().map(|r| r.hash.as_str()).collect();
        assert_eq!(order, rows.iter().map(|r| r.hash.as_str()).collect::<Vec<_>>());
        for (i, row) in rows.iter().enumerate() {
            assert!(std::ptr::eq(loaded.lookup(&row.hash).unwrap(), &loaded.rows()[i]));
        }
        assert_eq!(loaded.next_seq, 12);
        wipe(&dir);
    }

    #[test]
    fn binary_torn_tail_truncates_in_place_and_damage_quarantines() {
        let dir = tmp("torn.ledger");
        wipe(&dir);
        let rows: Vec<LedgerRow> = (0..6).map(synth_row).collect();
        {
            let mut ledger = Ledger::load(&dir).unwrap();
            ledger.append_all(rows.clone()).unwrap();
            ledger.sync_index().unwrap();
        }
        // Tear one shard mid-frame: append a frame prefix.
        let victim = shard_path(&dir, usize::from(shard_of(&rows[0].hash)));
        let clean = fs::read(&victim).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(FRAME_MAGIC);
        torn.extend_from_slice(&999u32.to_le_bytes());
        torn.extend_from_slice(&[0xab; 5]);
        fs::write(&victim, &torn).unwrap();

        let plan = Arc::new(FaultPlan::seeded(0, FaultConfig::NONE));
        let ledger = Ledger::load_impl(&dir, Some(Arc::clone(&plan)), false).unwrap();
        assert_eq!(ledger.len(), rows.len());
        assert!(ledger.health().truncated);
        assert_eq!(ledger.health().quarantined, 0);
        assert_eq!(plan.invocations(fault::site::LEDGER_COMPACT), 0, "torn tail never compacts");
        assert!(!victim.with_extension("bin.tmp").exists(), "no temp file created");
        assert_eq!(fs::read(&victim).unwrap(), clean, "shard truncated in place");

        // Interior damage: flip a byte inside the first frame's body.
        let mut corrupt = fs::read(&victim).unwrap();
        let flip_at = SHARD_MAGIC.len() + 16;
        corrupt[flip_at] ^= 0xff;
        fs::write(&victim, &corrupt).unwrap();
        let _ = fs::remove_file(dir.join(INDEX_FILE));
        let plan2 = Arc::new(FaultPlan::seeded(0, FaultConfig::NONE));
        let repaired = Ledger::load_impl(&dir, Some(Arc::clone(&plan2)), false).unwrap();
        assert!(repaired.health().quarantined >= 1);
        assert_eq!(plan2.invocations(fault::site::LEDGER_COMPACT), 1, "one shard rewritten");
        assert!(dir.join(QUARANTINE_FILE).exists());
        // Valid rows in other shards all survived.
        assert!(repaired.len() >= rows.len() - 1);
        // And the rewritten shard reloads clean.
        assert!(Ledger::load(&dir).unwrap().health().is_clean());
        wipe(&dir);
    }

    #[test]
    fn a_stale_index_never_loses_or_swaps_an_intact_frame() {
        // Shift every frame of shard 0 by inserting garbage after the
        // header, and cut as many bytes off the end: the shard keeps
        // the size the index covers, so the index is trusted while
        // every entry points at the wrong bytes.
        let dir = tmp("shifted.ledger");
        wipe(&dir);
        let rows: Vec<LedgerRow> = (0..4).map(synth_row).collect();
        {
            let mut ledger = Ledger::load(&dir).unwrap();
            ledger.append_all(rows.clone()).unwrap();
            ledger.sync_index().unwrap();
        }
        let shard = shard_path(&dir, 0);
        let clean = fs::read(&shard).unwrap();
        let mut shifted = clean.clone();
        shifted.splice(SHARD_MAGIC.len()..SHARD_MAGIC.len(), [0x5a; 9]);
        shifted.truncate(clean.len());
        fs::write(&shard, &shifted).unwrap();

        let ledger = Ledger::load_readonly(&dir).unwrap();
        assert_eq!(ledger.len(), rows.len(), "the index is trusted");
        for row in &rows[..3] {
            let got = ledger.lookup(&row.hash).unwrap().outcome().expect("intact frame found");
            assert_eq!(outcome_to_bytes(got), outcome_to_bytes(row.outcome().unwrap()));
        }
        // The last frame lost its tail: absent outcome, not a wrong one.
        assert!(ledger.lookup(&rows[3].hash).unwrap().outcome().is_none());
        wipe(&dir);
    }

    #[test]
    fn readonly_load_tolerates_damage_and_rejects_writes() {
        let dir = tmp("readonly.ledger");
        wipe(&dir);
        {
            let mut ledger = Ledger::load(&dir).unwrap();
            ledger.append(synth_row(1)).unwrap();
        }
        let shard = shard_path(&dir, 0);
        let mut damaged = fs::read(&shard).unwrap();
        damaged.splice(SHARD_MAGIC.len()..SHARD_MAGIC.len(), b"garbage".iter().copied());
        damaged.extend_from_slice(b"FRM3\xff\xff");
        fs::write(&shard, &damaged).unwrap();

        let ledger = Ledger::load_readonly(&dir).unwrap();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.health().quarantined, 1);
        assert!(ledger.health().truncated);
        assert!(ledger.readonly());
        // Nothing on disk moved: no truncation, no sidecar, no index.
        assert_eq!(fs::read(&shard).unwrap(), damaged);
        assert!(!quarantine_path(&dir).exists());
        assert!(!dir.join(INDEX_FILE).exists());
        let err = Ledger::load_readonly(&dir).unwrap().append(synth_row(9)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = Ledger::load_readonly(&dir).unwrap().sync_index().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = Ledger::load_readonly(&dir).unwrap().compact().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        wipe(&dir);
    }

    #[test]
    fn v1_rows_migrate_on_read() {
        // A complete v1 row (no crc) migrates; an incomplete one is
        // skipped and counted, and the source is left as it was.
        let row = synth_row(3);
        let outcome = row.outcome().unwrap();
        let mut o = Value::obj();
        o.push("v", 1u64.into());
        o.push("hash", row.hash.as_str().into());
        o.push("cell", row.cell.as_str().into());
        o.push("workload", row.workload.as_str().into());
        o.push("platform", row.platform.as_str().into());
        o.push("batch", row.batch.into());
        o.push("outcome", outcome_to_json(outcome));
        let v1_line = json::to_string(&o);

        let src = tmp("v1.jsonl");
        let dst = tmp("v1.ledger");
        wipe(&src);
        wipe(&dst);
        let text = format!("{v1_line}\n{{\"v\":1}}\n");
        fs::write(&src, &text).unwrap();
        let stats = Ledger::migrate(&src, &dst).unwrap();
        assert_eq!(stats, MigrateStats { rows: 1, skipped: 1 });
        assert_eq!(fs::read_to_string(&src).unwrap(), text, "source untouched");
        let ledger = Ledger::load(&dst).unwrap();
        let got = ledger.lookup(&row.hash).unwrap();
        assert_eq!(got.engine, "", "pre-v3 rows have no recorded engine");
        assert_eq!(
            outcome_to_bytes(got.outcome().unwrap()),
            outcome_to_bytes(outcome),
            "outcome survives migration bit-for-bit"
        );
        // The JSON view of the migrated row is the v2 line.
        assert_eq!(dump(&ledger), row.to_line().unwrap() + "\n");
        wipe(&src);
        wipe(&dst);
    }

    #[test]
    fn a_mistyped_batch_is_named_and_migration_skips_it() {
        // A correctly checksummed v2 row whose `batch` is a string.
        let row = synth_row(5);
        let mut payload = row.json_payload(row.outcome().unwrap());
        let Value::Obj(fields) = &mut payload else { unreachable!("payload is an object") };
        fields.iter_mut().find(|(k, _)| k == "batch").unwrap().1 = row.batch.to_string().into();
        let body = json::to_string(&payload);
        let crc = format!("{:016x}", fnv1a(body.bytes()));
        let line = format!("{{\"crc\":\"{crc}\",{}", &body[1..]);
        assert_eq!(LedgerRow::from_line(&line).unwrap_err(), "`batch` has the wrong type");

        let src = tmp("mistyped.jsonl");
        let dst = tmp("mistyped.ledger");
        wipe(&src);
        wipe(&dst);
        fs::write(&src, format!("{}\n{line}\n", synth_row(6).to_line().unwrap())).unwrap();
        let stats = Ledger::migrate(&src, &dst).unwrap();
        assert_eq!(stats, MigrateStats { rows: 1, skipped: 1 });
        wipe(&src);
        wipe(&dst);
    }

    #[test]
    fn compaction_drops_duplicates_and_stale_engines() {
        let dir = tmp("compact.ledger");
        wipe(&dir);
        let mut ledger = Ledger::load(&dir).unwrap();
        ledger.append(synth_row(1)).unwrap();
        let mut dup = synth_row(2);
        dup.hash = synth_row(1).hash;
        ledger.append(dup).unwrap();
        let mut stale = synth_row(3);
        stale.engine = "soma-engine-0".to_string();
        ledger.append(stale).unwrap();
        ledger.append(synth_row(4)).unwrap();
        assert_eq!(ledger.len(), 4);
        let live: Vec<&str> = ledger.live_rows().map(|r| r.cell.as_str()).collect();
        assert_eq!(live, ["cell-2", "cell-3", "cell-4"], "newest row per hash, append order");

        let stats = ledger.compact().unwrap();
        assert_eq!(stats, CompactStats { kept: 2, dropped_duplicates: 1, dropped_stale_engine: 1 });
        assert_eq!(ledger.len(), 2);
        // The duplicate resolved last-write-wins: the surviving row
        // under hash(1) is the *second* append (cell-2's outcome).
        let winner = ledger.lookup(&synth_row(1).hash).unwrap();
        assert_eq!(winner.cell, "cell-2");
        // Compaction persisted: a cold reload agrees.
        let cold = Ledger::load_readonly(&dir).unwrap();
        assert_eq!(cold.len(), 2);
        assert!(cold.health().is_clean());
        assert_eq!(cold.lookup(&synth_row(1).hash).unwrap().cell, "cell-2");
        assert!(cold.lookup(&synth_row(3).hash).is_none(), "stale engine row gone");
        wipe(&dir);
    }

    #[test]
    fn migration_preserves_rows_and_refuses_existing_targets() {
        let src = tmp("mig-src.jsonl");
        let dst = tmp("mig-dst.ledger");
        wipe(&src);
        wipe(&dst);
        let text: String = (0..10).map(|i| synth_row(i).to_line().unwrap() + "\n").collect();
        fs::write(&src, &text).unwrap();
        let stats = Ledger::migrate(&src, &dst).unwrap();
        assert_eq!(stats, MigrateStats { rows: 10, skipped: 0 });
        assert_eq!(fs::read_to_string(&src).unwrap(), text, "source untouched");
        let migrated = Ledger::load_readonly(&dst).unwrap();
        assert_eq!(migrated.len(), 10);
        assert_eq!(migrated.outcome_decodes(), 0, "index written by migrate");
        let order: Vec<String> = migrated.rows().iter().map(|r| r.hash.clone()).collect();
        let want: Vec<String> = (0..10).map(|i| synth_row(i).hash).collect();
        assert_eq!(order, want, "row order preserved");
        // The JSON view of the target is the source, byte for byte.
        assert_eq!(dump(&migrated), text, "jsonl → migrate → dump is an identity");
        assert!(Ledger::migrate(&src, &dst).is_err(), "existing target refused");
        let back = tmp("mig-back.ledger");
        wipe(&back);
        assert!(Ledger::migrate(&dst, &back).is_err(), "migration is one-way");
        assert!(!back.exists());
        wipe(&src);
        wipe(&dst);
    }

    #[test]
    fn shards_spread_by_hash_prefix() {
        assert_eq!(shard_of("0123456789abcdef"), 0);
        assert_eq!(shard_of("f123456789abcdef"), 15);
        assert_eq!(shard_of("a000000000000000"), 10);
        let weird = shard_of("~not-hex");
        assert!(usize::from(weird) < SHARDS);
    }
}
