//! The write-ahead-log backend of the [`VersionLog`]: fsync-per-publish
//! durability, periodic snapshot/compaction, and cold-start recovery.
//!
//! # On-disk layout (`--store-dir`)
//!
//! ```text
//! store-dir/
//!   snapshot.json   # compacted chains: {"format":1,"last_seq":S,"records":[...]}
//!   wal.log         # frames appended since the snapshot
//! ```
//!
//! Each WAL frame is `[u32 BE body_len][u64 BE fnv1a(body)][body]` where
//! `body` is one JSON *version record* (see [`record_to_json`]): format tag,
//! global sequence number, model name + version, source, provenance
//! ([`RepairProvenance::to_json`]), both DDNN channels
//! ([`prdnn_nn::network_to_json`]), and an FNV-1a content hash per channel
//! ([`prdnn_nn::network_content_hash`], stamped as `0x…` hex so the JSON
//! number model cannot round it).
//!
//! # Durability discipline
//!
//! [`WalLog::append`] runs *before* the version becomes visible in the
//! chains (write-ahead, see [`crate::version_log`]) and returns only after
//! `write_all` + `sync_data` — an acknowledged publish is on disk.  Every
//! `--snapshot-every` appends, [`WalLog::after_publish`] rewrites
//! `snapshot.json` atomically (tmp file, fsync, rename, directory fsync)
//! with `last_seq` = the newest appended record, then truncates the WAL.
//! The store serialises publishes around both calls, so the chains the
//! snapshot reads are guaranteed to contain every appended record.
//!
//! # Recovery ordering
//!
//! [`WalLog::open`] replays `snapshot.json` first (corruption here is a
//! hard error — the snapshot is written atomically, so a bad one means the
//! store directory is damaged, not merely torn), then the WAL tail,
//! skipping records with `seq <= last_seq` (they were compacted into the
//! snapshot).  Content hashes are re-verified on every replayed record.  A
//! torn or corrupt **tail** — short header, short body, checksum or hash
//! mismatch, unparseable JSON, out-of-order version — ends replay
//! gracefully: the valid prefix is kept, the file is truncated back to it,
//! and the dropped byte count is reported in [`LogStats::torn_tail_bytes`].
//!
//! # Failed appends never poison the log
//!
//! A failed `write` or `fsync` (real or injected via
//! [`crate::faults::FaultInjector`], see [`WalLog::open_with_faults`])
//! leaves bytes of unknown state past the last known-good prefix.  They
//! cannot stay: garbage there would make every later append unreachable at
//! replay, and a *durable but unacknowledged* record would collide with
//! the reused version number of the retried publish and corrupt the tail.
//! So the append path tracks `valid_len` — the byte length of the durable,
//! acknowledged prefix — and on any failure truncates the file back to it
//! (durably).  If even the truncation fails, the tail is marked dirty and
//! every subsequent append first re-tries the heal, failing publishes with
//! a typed error until the log is clean again.  The store head is never
//! swapped for a failed append (write-ahead ordering), so the in-memory
//! chains and the on-disk log stay consistent no matter when the fault
//! hits.

use prdnn_core::{DecoupledNetwork, RepairProvenance};
use prdnn_nn::{network_content_hash, network_from_json, network_to_json};
use serde::json::Value;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::faults::{FaultInjector, WriteFault};
use crate::telemetry::{self, Outcome, Stage, Telemetry};
use crate::version_log::{LogError, LogStats, ModelEntry, ModelVersion, VersionChains, VersionLog};

/// On-disk record format version; bump on incompatible layout changes.
pub const RECORD_FORMAT: u64 = 1;

/// Cap on a single WAL frame body.  A record holds two serialised network
/// channels, so this is deliberately larger than the wire protocol's
/// 16 MiB request cap.
pub const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";

/// Frame header: 4-byte length + 8-byte FNV-1a checksum.
const FRAME_HEADER_LEN: usize = 12;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hex_u64(x: u64) -> Value {
    Value::Str(format!("0x{x:016x}"))
}

fn parse_hex_u64(v: Option<&Value>, what: &str) -> Result<u64, String> {
    let s = v
        .and_then(Value::as_str)
        .ok_or_else(|| format!("record missing {what}"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what} is not 0x-prefixed hex: {s:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad {what} {s:?}: {e}"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    let f = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("record missing numeric {key:?}"))?;
    if f < 0.0 || f.fract() != 0.0 || f > 2f64.powi(53) {
        return Err(format!("{key} = {f} is not a u64-representable integer"));
    }
    Ok(f as u64)
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("record missing string {key:?}"))
}

/// Serialises one published version as a self-verifying JSON record.
/// `seq` is the global WAL sequence number (`None` inside snapshots, whose
/// ordering is positional).
pub fn record_to_json(version: &ModelVersion, seq: Option<u64>) -> Value {
    let activation = network_to_json(version.ddnn.activation_network());
    let value = network_to_json(version.ddnn.value_network());
    let mut fields = vec![
        ("format", Value::Num(RECORD_FORMAT as f64)),
        ("name", Value::Str(version.name.clone())),
        ("version", Value::Num(f64::from(version.version))),
        ("source", Value::Str(version.source.clone())),
        (
            "provenance",
            match &version.provenance {
                Some(p) => p.to_json(),
                None => Value::Null,
            },
        ),
        (
            "act_hash",
            hex_u64(network_content_hash(version.ddnn.activation_network())),
        ),
        (
            "val_hash",
            hex_u64(network_content_hash(version.ddnn.value_network())),
        ),
        ("activation", activation),
        ("value", value),
    ];
    if let Some(seq) = seq {
        fields.insert(1, ("seq", Value::Num(seq as f64)));
    }
    Value::obj(fields)
}

/// Parses and verifies one version record: format tag, both network
/// channels, and their content hashes.  Returns the version plus its WAL
/// sequence number (if stamped).
///
/// # Errors
///
/// Any structural problem, parse failure, or hash mismatch — callers treat
/// these as a corrupt record.
pub fn record_from_json(v: &Value) -> Result<(ModelVersion, Option<u64>), String> {
    let format = get_u64(v, "format")?;
    if format != RECORD_FORMAT {
        return Err(format!(
            "record format {format} unsupported (expected {RECORD_FORMAT})"
        ));
    }
    let seq = match v.get("seq") {
        Some(_) => Some(get_u64(v, "seq")?),
        None => None,
    };
    let name = get_str(v, "name")?.to_owned();
    let version = get_u64(v, "version")?;
    let version = u32::try_from(version).map_err(|_| format!("version {version} out of range"))?;
    let source = get_str(v, "source")?.to_owned();
    let provenance = match v.get("provenance") {
        None | Some(Value::Null) => None,
        Some(p) => Some(RepairProvenance::from_json(p)?),
    };
    let activation = network_from_json(
        v.get("activation")
            .ok_or_else(|| "record missing activation network".to_owned())?,
    )
    .map_err(|e| format!("activation network: {e}"))?;
    let value = network_from_json(
        v.get("value")
            .ok_or_else(|| "record missing value network".to_owned())?,
    )
    .map_err(|e| format!("value network: {e}"))?;
    let act_hash = parse_hex_u64(v.get("act_hash"), "act_hash")?;
    let val_hash = parse_hex_u64(v.get("val_hash"), "val_hash")?;
    if network_content_hash(&activation) != act_hash {
        return Err(format!(
            "model {name:?} v{version}: activation channel content hash mismatch"
        ));
    }
    if network_content_hash(&value) != val_hash {
        return Err(format!(
            "model {name:?} v{version}: value channel content hash mismatch"
        ));
    }
    // The two channels were verified independently; a hash-consistent pair
    // may still differ in architecture, which fails the record softly.
    let ddnn = DecoupledNetwork::try_new(activation, value)
        .map_err(|e| format!("model {name:?} v{version}: {e}"))?;
    Ok((
        ModelVersion::new(name, version, ddnn, source, provenance),
        seq,
    ))
}

/// What [`WalLog::open`] reconstructed, for startup logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Models reconstructed.
    pub models: u64,
    /// Versions reconstructed (snapshot + WAL tail).
    pub versions: u64,
    /// Versions replayed from the WAL tail (subset of `versions`).
    pub wal_records: u64,
    /// Bytes dropped from the end of the WAL (torn/corrupt tail).
    pub torn_tail_bytes: u64,
}

struct WalInner {
    file: File,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// Appends since the last snapshot (drives the compaction policy).
    appends_since_snapshot: u64,
    /// Byte length of the durable, fully-acknowledged prefix of the file.
    /// Everything past it is a failed append's leftovers.
    valid_len: u64,
    /// A failed append could not be truncated away; heal before appending.
    dirty_tail: bool,
}

/// The durable [`VersionLog`] backend.  See the module docs for the disk
/// layout, durability discipline, and recovery ordering.
pub struct WalLog {
    chains: VersionChains,
    dir: PathBuf,
    /// Snapshot/compact after this many WAL appends (`0` = never).
    snapshot_every: u64,
    inner: Mutex<WalInner>,
    report: RecoveryReport,
    faults: FaultInjector,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots: AtomicU64,
    failed_appends: AtomicU64,
    /// Set once by the server after open; when present, every append's
    /// write+fsync latency records into the `wal_fsync` histogram and a
    /// `wal_append` span under the current request's id.
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl WalLog {
    /// Opens (or initialises) a store directory, replaying the snapshot and
    /// the WAL tail into fresh chains.
    ///
    /// # Errors
    ///
    /// I/O failures, an unreadable/corrupt `snapshot.json`, or replayed
    /// records that contradict each other (version-number gaps *before* the
    /// tail).  A torn or corrupt WAL **tail** is not an error: the valid
    /// prefix is kept and the tail is reported in the [`RecoveryReport`].
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<WalLog, LogError> {
        WalLog::open_with_faults(dir, snapshot_every, FaultInjector::none())
    }

    /// Wires the server's telemetry into the append path.  A second call
    /// is a no-op (the first handle wins).
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// [`WalLog::open`] with a [`FaultInjector`] interposed on the append
    /// path's write and fsync operations (and the snapshot writer's).
    /// Recovery itself is never injected: faults model a hostile disk at
    /// publish time, and the recovery contract is pinned separately.
    ///
    /// # Errors
    ///
    /// Same as [`WalLog::open`].
    pub fn open_with_faults(
        dir: &Path,
        snapshot_every: u64,
        faults: FaultInjector,
    ) -> Result<WalLog, LogError> {
        fs::create_dir_all(dir)
            .map_err(|e| LogError(format!("create store dir {}: {e}", dir.display())))?;
        let chains = VersionChains::new();
        let mut report = RecoveryReport::default();

        // 1. Snapshot: the compacted prefix of the log.
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut last_seq = 0u64;
        if snapshot_path.exists() {
            let text = fs::read_to_string(&snapshot_path)
                .map_err(|e| LogError(format!("read snapshot: {e}")))?;
            let doc =
                Value::parse(&text).map_err(|e| LogError(format!("corrupt snapshot: {e}")))?;
            let format = get_u64(&doc, "format").map_err(LogError)?;
            if format != RECORD_FORMAT {
                return Err(LogError(format!("snapshot format {format} unsupported")));
            }
            last_seq = get_u64(&doc, "last_seq").map_err(LogError)?;
            let records = doc
                .get("records")
                .and_then(Value::as_arr)
                .ok_or_else(|| LogError("snapshot missing records array".into()))?;
            for rv in records {
                let (version, _) = record_from_json(rv)
                    .map_err(|e| LogError(format!("corrupt snapshot record: {e}")))?;
                install(&chains, version).map_err(|e| LogError(format!("snapshot replay: {e}")))?;
                report.versions += 1;
            }
        }

        // 2. WAL tail: frames appended since the snapshot.
        let wal_path = dir.join(WAL_FILE);
        let mut max_seq = last_seq;
        let mut valid_len = 0u64;
        if wal_path.exists() {
            let bytes = fs::read(&wal_path).map_err(|e| LogError(format!("read WAL: {e}")))?;
            let mut off = 0usize;
            loop {
                match decode_frame(&bytes[off..]) {
                    FrameOutcome::End => break,
                    FrameOutcome::Torn => {
                        report.torn_tail_bytes = (bytes.len() - off) as u64;
                        break;
                    }
                    FrameOutcome::Record { body, frame_len } => {
                        let replayed = Value::parse(body)
                            .map_err(|e| e.to_string())
                            .and_then(|doc| record_from_json(&doc))
                            .and_then(|(version, seq)| {
                                let seq = seq.ok_or_else(|| "WAL record missing seq".to_owned())?;
                                if seq > last_seq {
                                    install(&chains, version)?;
                                    report.versions += 1;
                                    report.wal_records += 1;
                                }
                                Ok(seq)
                            });
                        match replayed {
                            Ok(seq) => {
                                max_seq = max_seq.max(seq);
                                off += frame_len;
                                valid_len = off as u64;
                            }
                            Err(_) => {
                                // Checksum passed but the record is
                                // unusable (or out of order): treat as the
                                // corrupt tail and keep the prefix.
                                report.torn_tail_bytes = (bytes.len() - off) as u64;
                                break;
                            }
                        }
                    }
                }
            }
        }
        report.models = chains.list().len() as u64;

        // 3. Re-open the WAL for appending, truncated back to the valid
        //    prefix so new frames never follow garbage.
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| LogError(format!("open WAL: {e}")))?;
        file.set_len(valid_len)
            .map_err(|e| LogError(format!("truncate WAL tail: {e}")))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| LogError(format!("seek WAL: {e}")))?;
        if report.torn_tail_bytes > 0 {
            file.sync_data()
                .map_err(|e| LogError(format!("sync truncated WAL: {e}")))?;
        }
        sync_dir(dir)?;

        Ok(WalLog {
            chains,
            dir: dir.to_owned(),
            snapshot_every,
            inner: Mutex::new(WalInner {
                file,
                next_seq: max_seq + 1,
                appends_since_snapshot: report.wal_records,
                valid_len,
                dirty_tail: false,
            }),
            report,
            faults,
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            failed_appends: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        })
    }

    /// What `open` reconstructed.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// Locks the inner state.  A poisoned lock means a panic interrupted an
    /// earlier operation at an unknown point, so the file past `valid_len`
    /// is suspect: recover the guard and mark the tail dirty so the next
    /// append truncates back to the acknowledged prefix before writing.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, WalInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.dirty_tail = true;
                guard
            }
        }
    }

    /// Truncates a dirty tail back to the durable prefix.  No-op when the
    /// tail is clean.
    fn heal_tail(&self, inner: &mut WalInner) -> Result<(), LogError> {
        if !inner.dirty_tail {
            return Ok(());
        }
        inner
            .file
            .set_len(inner.valid_len)
            .map_err(|e| LogError(format!("truncate failed-append tail: {e}")))?;
        inner
            .file
            .seek(SeekFrom::Start(inner.valid_len))
            .map_err(|e| LogError(format!("seek after tail truncation: {e}")))?;
        let synced = match self.faults.next_fsync_fault() {
            Some(e) => Err(e),
            None => inner.file.sync_data(),
        };
        synced.map_err(|e| LogError(format!("fsync truncated tail: {e}")))?;
        inner.dirty_tail = false;
        Ok(())
    }

    /// Converts a failed write/fsync into the returned [`LogError`],
    /// disposing of whatever the failure left past `valid_len` (see the
    /// module docs).  The heal is attempted immediately; if it also fails,
    /// the tail stays dirty and later appends retry it first.
    fn abandon_tail(&self, inner: &mut WalInner, why: String) -> LogError {
        inner.dirty_tail = true;
        match self.heal_tail(inner) {
            Ok(()) => LogError(why),
            Err(heal) => LogError(format!(
                "{why}; truncating the failed tail also failed ({heal}) — \
                 publishes fail until the tail heals"
            )),
        }
    }

    fn append_locked(
        &self,
        inner: &mut WalInner,
        version: &Arc<ModelVersion>,
    ) -> Result<(), LogError> {
        self.heal_tail(inner)?;
        let seq = inner.next_seq;
        let body = record_to_json(version, Some(seq)).to_json().into_bytes();
        if body.len() > MAX_RECORD_LEN {
            return Err(LogError(format!(
                "record of {} bytes exceeds the {MAX_RECORD_LEN} byte cap",
                body.len()
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&fnv1a(&body).to_be_bytes());
        frame.extend_from_slice(&body);
        let wrote = match self.faults.next_write_fault() {
            Some(WriteFault::Enospc) => Err(std::io::Error::other(
                "injected write failure: no space left on device",
            )),
            Some(WriteFault::Short { keep_per_mille }) => {
                // A real partial prefix lands in the file — exactly the
                // garbage a crash mid-write leaves — then the write fails.
                let keep = frame.len() * keep_per_mille as usize / 1000;
                let _ = inner.file.write_all(&frame[..keep]);
                Err(std::io::Error::other(format!(
                    "injected short write ({keep} of {} bytes)",
                    frame.len()
                )))
            }
            None => inner.file.write_all(&frame),
        };
        if let Err(e) = wrote {
            return Err(self.abandon_tail(inner, format!("append WAL record: {e}")));
        }
        let synced = match self.faults.next_fsync_fault() {
            Some(e) => Err(e),
            None => inner.file.sync_data(),
        };
        if let Err(e) = synced {
            return Err(self.abandon_tail(inner, format!("fsync WAL record: {e}")));
        }
        inner.valid_len += frame.len() as u64;
        inner.next_seq += 1;
        inner.appends_since_snapshot += 1;
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// One decoded frame attempt at the head of `bytes`.
enum FrameOutcome<'a> {
    /// `bytes` is empty: clean end of log.
    End,
    /// A frame starts here but is short or fails its checksum.
    Torn,
    /// A checksum-valid frame.
    Record { body: &'a str, frame_len: usize },
}

fn decode_frame(bytes: &[u8]) -> FrameOutcome<'_> {
    if bytes.is_empty() {
        return FrameOutcome::End;
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return FrameOutcome::Torn;
    }
    let body_len = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if body_len > MAX_RECORD_LEN || bytes.len() < FRAME_HEADER_LEN + body_len {
        return FrameOutcome::Torn;
    }
    let checksum = u64::from_be_bytes(bytes[4..12].try_into().unwrap());
    let body = &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + body_len];
    if fnv1a(body) != checksum {
        return FrameOutcome::Torn;
    }
    match std::str::from_utf8(body) {
        Ok(text) => FrameOutcome::Record {
            body: text,
            frame_len: FRAME_HEADER_LEN + body_len,
        },
        Err(_) => FrameOutcome::Torn,
    }
}

/// Installs a recovered version, creating the model's entry on first sight.
fn install(chains: &VersionChains, version: ModelVersion) -> Result<(), String> {
    let entry = match chains.get(&version.name) {
        Some(e) => e,
        None => {
            if version.version != 1 {
                return Err(format!(
                    "model {:?}: first recovered record is v{}, not v1",
                    version.name, version.version
                ));
            }
            Arc::new(ModelEntry::new(version.name.clone()))
        }
    };
    let first = version.version == 1;
    entry.install_recovered(Arc::new(version))?;
    if first {
        chains.insert(entry);
    }
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<(), LogError> {
    // Directory fsync makes renames/creates durable on POSIX; best-effort
    // elsewhere.
    match File::open(dir) {
        Ok(d) => d
            .sync_all()
            .map_err(|e| LogError(format!("sync store dir: {e}"))),
        Err(e) => Err(LogError(format!("open store dir for sync: {e}"))),
    }
}

impl VersionLog for WalLog {
    fn chains(&self) -> &VersionChains {
        &self.chains
    }

    fn append(&self, version: &Arc<ModelVersion>) -> Result<(), LogError> {
        let mut inner = self.lock_inner();
        let start = Instant::now();
        let result = self.append_locked(&mut inner, version);
        if result.is_err() {
            self.failed_appends.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = self.telemetry.get() {
            let took = start.elapsed();
            t.hist.wal_fsync.record_duration(took);
            t.span_at(
                telemetry::current_request(),
                Stage::WalAppend,
                start,
                took,
                if result.is_ok() {
                    Outcome::Ok
                } else {
                    Outcome::Error
                },
            );
        }
        result
    }

    fn after_publish(&self) -> Result<(), LogError> {
        let mut inner = self.lock_inner();
        if self.snapshot_every == 0 || inner.appends_since_snapshot < self.snapshot_every {
            return Ok(());
        }
        // The store serialises publishes around append + after_publish, so
        // the chains contain every record with seq < next_seq — the
        // snapshot below loses nothing by truncating the WAL.
        let records: Vec<Value> = self
            .chains
            .all_records()
            .iter()
            .map(|v| record_to_json(v, None))
            .collect();
        let doc = Value::obj([
            ("format", Value::Num(RECORD_FORMAT as f64)),
            ("last_seq", Value::Num((inner.next_seq - 1) as f64)),
            ("records", Value::Arr(records)),
        ]);
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let path = self.dir.join(SNAPSHOT_FILE);
        let mut f =
            File::create(&tmp).map_err(|e| LogError(format!("create snapshot tmp: {e}")))?;
        let text = doc.to_json();
        // Snapshot write/fsync faults are benign: the tmp file is renamed
        // into place only after a clean write + fsync, so a failure here
        // just delays compaction to the next publish.
        let wrote = match self.faults.next_write_fault() {
            Some(WriteFault::Enospc) => Err(std::io::Error::other(
                "injected write failure: no space left on device",
            )),
            Some(WriteFault::Short { keep_per_mille }) => {
                let keep = text.len() * keep_per_mille as usize / 1000;
                let _ = f.write_all(&text.as_bytes()[..keep]);
                Err(std::io::Error::other("injected short snapshot write"))
            }
            None => f.write_all(text.as_bytes()),
        };
        wrote.map_err(|e| LogError(format!("write snapshot: {e}")))?;
        let synced = match self.faults.next_fsync_fault() {
            Some(e) => Err(e),
            None => f.sync_all(),
        };
        synced.map_err(|e| LogError(format!("fsync snapshot: {e}")))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| LogError(format!("publish snapshot: {e}")))?;
        sync_dir(&self.dir)?;
        // The snapshot covers everything: drop the WAL prefix.
        inner
            .file
            .set_len(0)
            .map_err(|e| LogError(format!("truncate WAL after snapshot: {e}")))?;
        inner
            .file
            .seek(SeekFrom::Start(0))
            .map_err(|e| LogError(format!("rewind WAL: {e}")))?;
        // The snapshot is already durable and every truncated record has
        // seq <= last_seq (skipped on replay), so state is consistent from
        // here on even if the final fsync fails.
        inner.valid_len = 0;
        inner.dirty_tail = false;
        inner.appends_since_snapshot = 0;
        inner
            .file
            .sync_data()
            .map_err(|e| LogError(format!("fsync truncated WAL: {e}")))?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> Result<(), LogError> {
        let inner = self.lock_inner();
        inner
            .file
            .sync_all()
            .map_err(|e| LogError(format!("flush WAL: {e}")))
    }

    fn stats(&self) -> LogStats {
        LogStats {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            wal_failed_appends: self.failed_appends.load(Ordering::Relaxed),
            recovered_versions: self.report.versions,
            recovered_wal_records: self.report.wal_records,
            torn_tail_bytes: self.report.torn_tail_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelRef;
    use crate::store::{ModelStore, StoreError};
    use prdnn_core::RepairConfig;
    use prdnn_datasets::registry;
    use std::sync::atomic::AtomicU32;

    /// A self-cleaning unique temp directory (no tempfile crate available).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU32 = AtomicU32::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("prdnn-wal-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn ddnn(spec: &str) -> DecoupledNetwork {
        DecoupledNetwork::from_network(&registry::build_model(spec).unwrap())
    }

    fn provenance(layer: usize) -> RepairProvenance {
        RepairProvenance {
            spec_hash: 0xabcd_0000 + layer as u64,
            config: RepairConfig::default(),
            layer,
            num_key_points: 3,
            delta_l1: 0.25,
            delta_linf: 0.125,
            lp_pivots: 11,
            lp_refactorizations: 1,
        }
    }

    fn durable_store(dir: &Path, snapshot_every: u64) -> (ModelStore, Arc<WalLog>) {
        let log = Arc::new(WalLog::open(dir, snapshot_every).unwrap());
        (
            ModelStore::with_log(Arc::clone(&log) as Arc<dyn VersionLog>),
            log,
        )
    }

    /// Two versions are bit-identical if their records serialise to the
    /// same JSON document (weights are written with a bit-exact f64
    /// round-trip writer).
    fn record_doc(v: &ModelVersion) -> String {
        record_to_json(v, None).to_json()
    }

    #[test]
    fn publish_reopen_recovers_bit_identical_chains() {
        let tmp = TempDir::new("roundtrip");
        let expected: Vec<String>;
        {
            let (store, log) = durable_store(tmp.path(), 0);
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            store
                .load("xor", ddnn("mlp:7:2x4x2"), "mlp:7:2x4x2".into())
                .unwrap();
            for layer in 0..3 {
                store
                    .publish_repair(
                        "n1",
                        ddnn("n1"),
                        format!("repair {layer}"),
                        provenance(layer),
                    )
                    .unwrap();
            }
            expected = store
                .list()
                .iter()
                .flat_map(|(name, _)| store.versions(name).unwrap())
                .map(|v| record_doc(&v))
                .collect();
            assert_eq!(log.stats().wal_appends, 5);
            assert_eq!(log.stats().snapshots, 0);
        }
        let (store, log) = durable_store(tmp.path(), 0);
        let report = log.recovery_report();
        assert_eq!(
            (report.models, report.versions, report.wal_records),
            (2, 5, 5)
        );
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(store.list(), vec![("n1".into(), 4), ("xor".into(), 1)]);
        let recovered: Vec<String> = store
            .list()
            .iter()
            .flat_map(|(name, _)| store.versions(name).unwrap())
            .map(|v| record_doc(&v))
            .collect();
        assert_eq!(recovered, expected);
        // Provenance survives exactly.
        let v3 = store.resolve(&ModelRef::version("n1", 3)).unwrap();
        let p = v3.provenance.as_ref().unwrap();
        assert_eq!((p.spec_hash, p.layer), (0xabcd_0001, 1));
    }

    #[test]
    fn snapshot_compacts_wal_and_recovery_replays_snapshot_plus_tail() {
        let tmp = TempDir::new("snapshot");
        {
            let (store, log) = durable_store(tmp.path(), 4);
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            for layer in 0..6 {
                store
                    .publish_repair(
                        "n1",
                        ddnn("n1"),
                        format!("repair {layer}"),
                        provenance(layer),
                    )
                    .unwrap();
            }
            // 7 publishes with snapshot_every=4: one snapshot fired, the
            // WAL holds only the 3 appends since.
            assert_eq!(log.stats().snapshots, 1);
            assert!(tmp.path().join(SNAPSHOT_FILE).exists());
        }
        let (store, log) = durable_store(tmp.path(), 4);
        let report = log.recovery_report();
        assert_eq!(report.versions, 7);
        assert_eq!(report.wal_records, 3);
        assert_eq!(store.versions("n1").unwrap().len(), 7);
        // Sequence numbers continue after recovery: another snapshot cycle
        // still works.
        for layer in 0..4 {
            store
                .publish_repair("n1", ddnn("n1"), format!("post {layer}"), provenance(layer))
                .unwrap();
        }
        assert_eq!(log.stats().snapshots, 1);
        assert_eq!(store.versions("n1").unwrap().len(), 11);
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_keeps_prefix_and_reports() {
        // Build a clean two-record WAL, then truncate at every byte
        // boundary of the final record's frame: recovery must always keep
        // the first record, never panic, and report the torn tail.
        let tmp = TempDir::new("torn");
        {
            let (store, _log) = durable_store(tmp.path(), 0);
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap();
        }
        let wal_path = tmp.path().join(WAL_FILE);
        let full = fs::read(&wal_path).unwrap();
        let first_len =
            FRAME_HEADER_LEN + u32::from_be_bytes(full[0..4].try_into().unwrap()) as usize;
        assert!(first_len < full.len(), "need two frames");

        for cut in first_len..full.len() {
            fs::write(&wal_path, &full[..cut]).unwrap();
            let log = WalLog::open(tmp.path(), 0)
                .unwrap_or_else(|e| panic!("cut at {cut} bytes must not fail: {e}"));
            let report = log.recovery_report();
            if cut == first_len {
                // Clean truncation exactly between frames: no tail at all.
                assert_eq!(report.torn_tail_bytes, 0, "cut {cut}");
            } else {
                assert_eq!(
                    report.torn_tail_bytes,
                    (cut - first_len) as u64,
                    "cut {cut}"
                );
            }
            assert_eq!(report.versions, 1, "cut {cut}");
            let store = ModelStore::with_log(Arc::new(log) as Arc<dyn VersionLog>);
            assert_eq!(store.list(), vec![("n1".into(), 1)], "cut {cut}");
            // Recovery truncated the torn tail off the file.
            assert_eq!(fs::read(&wal_path).unwrap().len(), first_len, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_tail_checksum_is_dropped_not_replayed() {
        let tmp = TempDir::new("corrupt");
        {
            let (store, _log) = durable_store(tmp.path(), 0);
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap();
        }
        let wal_path = tmp.path().join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        // Flip one bit inside the final record's body.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&wal_path, &bytes).unwrap();
        let log = WalLog::open(tmp.path(), 0).unwrap();
        let report = log.recovery_report();
        assert_eq!(report.versions, 1);
        assert!(report.torn_tail_bytes > 0);
        // Appending after recovery writes over the truncated tail and is
        // replayable on the next open.
        let store = ModelStore::with_log(Arc::new(log) as Arc<dyn VersionLog>);
        store
            .publish_repair("n1", ddnn("n1"), "repair again".into(), provenance(1))
            .unwrap();
        let (store2, log2) = durable_store(tmp.path(), 0);
        assert_eq!(log2.recovery_report().versions, 2);
        assert_eq!(store2.versions("n1").unwrap().len(), 2);
        assert_eq!(log2.recovery_report().torn_tail_bytes, 0);
    }

    fn durable_store_with_faults(
        dir: &Path,
        snapshot_every: u64,
        spec: &str,
    ) -> (ModelStore, Arc<WalLog>) {
        let faults = FaultInjector::parse(spec).unwrap();
        let log = Arc::new(WalLog::open_with_faults(dir, snapshot_every, faults).unwrap());
        (
            ModelStore::with_log(Arc::clone(&log) as Arc<dyn VersionLog>),
            log,
        )
    }

    /// Every acked version's record document, deterministic order.
    fn acked_docs(store: &ModelStore) -> Vec<String> {
        store
            .list()
            .iter()
            .flat_map(|(name, _)| store.versions(name).unwrap())
            .map(|v| record_doc(&v))
            .collect()
    }

    #[test]
    fn enospc_fails_the_publish_and_leaves_the_store_live() {
        let tmp = TempDir::new("enospc");
        let expected: Vec<String>;
        {
            // Write op 2 (the first repair) hits disk-full.
            let (store, log) = durable_store_with_faults(tmp.path(), 0, "enospc@2");
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            let err = store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap_err();
            assert!(
                matches!(&err, StoreError::Durability(m) if m.contains("no space left")),
                "{err:?}"
            );
            // Nothing published: the head never swapped, reads still serve v1.
            assert_eq!(store.list(), vec![("n1".into(), 1)]);
            assert_eq!(log.stats().wal_failed_appends, 1);
            // The store stays live: the retried publish reuses version 2.
            let v2 = store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap();
            assert_eq!(v2.version, 2);
            expected = acked_docs(&store);
        }
        // Recovery sees exactly the acked versions, bit-identical.
        let (store, log) = durable_store(tmp.path(), 0);
        assert_eq!(log.recovery_report().torn_tail_bytes, 0);
        assert_eq!(acked_docs(&store), expected);
    }

    #[test]
    fn short_write_tail_is_truncated_and_the_next_append_lands() {
        let tmp = TempDir::new("short");
        let expected: Vec<String>;
        {
            let (store, log) = durable_store_with_faults(tmp.path(), 0, "seed=5,short@2");
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            let after_load = fs::read(tmp.path().join(WAL_FILE)).unwrap().len();
            let err = store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap_err();
            assert!(
                matches!(&err, StoreError::Durability(m) if m.contains("short write")),
                "{err:?}"
            );
            // The torn prefix was healed away: the file ends at the last
            // acknowledged record, ready for the next append.
            assert_eq!(
                fs::read(tmp.path().join(WAL_FILE)).unwrap().len(),
                after_load
            );
            assert_eq!(log.stats().wal_failed_appends, 1);
            store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap();
            expected = acked_docs(&store);
        }
        let (store, log) = durable_store(tmp.path(), 0);
        // No torn tail for recovery to even notice.
        assert_eq!(log.recovery_report().torn_tail_bytes, 0);
        assert_eq!(acked_docs(&store), expected);
    }

    #[test]
    fn fsync_failure_rolls_back_even_though_the_bytes_hit_disk() {
        let tmp = TempDir::new("fsync");
        let expected: Vec<String>;
        {
            // Fsync op 2 = the first repair's fsync (with only `fsync`
            // configured, write ops are not consumed).  The frame's bytes
            // are fully written when it fires — they must still not count.
            let (store, log) = durable_store_with_faults(tmp.path(), 0, "fsync@2");
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
            let err = store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap_err();
            assert!(
                matches!(&err, StoreError::Durability(m) if m.contains("injected fsync failure")),
                "{err:?}"
            );
            assert_eq!(store.list(), vec![("n1".into(), 1)]);
            assert_eq!(log.stats().wal_failed_appends, 1);
            // Retry: heal already ran, the reused version number cannot
            // collide with the rolled-back record.
            let v2 = store
                .publish_repair("n1", ddnn("n1"), "repair 0".into(), provenance(0))
                .unwrap();
            assert_eq!(v2.version, 2);
            expected = acked_docs(&store);
        }
        let (store, log) = durable_store(tmp.path(), 0);
        assert_eq!(log.recovery_report().versions, 2);
        assert_eq!(log.recovery_report().torn_tail_bytes, 0);
        assert_eq!(acked_docs(&store), expected);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let tmp = TempDir::new("badsnap");
        {
            let (store, _log) = durable_store(tmp.path(), 1);
            store.load("n1", ddnn("n1"), "n1".into()).unwrap();
        }
        fs::write(tmp.path().join(SNAPSHOT_FILE), b"{ not json").unwrap();
        let err = match WalLog::open(tmp.path(), 1) {
            Err(e) => e,
            Ok(_) => panic!("corrupt snapshot must fail startup"),
        };
        assert!(err.0.contains("corrupt snapshot"), "{err}");
    }

    #[test]
    fn record_round_trips_and_rejects_hash_mismatch() {
        let version = ModelVersion::new(
            "m".into(),
            2,
            ddnn("mlp:7:2x4x2"),
            "repair of m@v1".into(),
            Some(provenance(1)),
        );
        let doc = record_to_json(&version, Some(7));
        let (back, seq) = record_from_json(&doc).unwrap();
        assert_eq!(seq, Some(7));
        assert_eq!(record_doc(&back), record_doc(&version));

        // Tampering with a weight while keeping the JSON well-formed is
        // caught by the content hash.
        let tampered = doc
            .to_json()
            .replacen("\"val_hash\":\"0x", "\"val_hash\":\"0y", 1);
        assert!(record_from_json(&Value::parse(&tampered).unwrap()).is_err());
    }

    #[test]
    fn record_with_channels_of_another_activation_is_an_error() {
        let version = ModelVersion::new("m".into(), 1, ddnn("mlp:7:2x4x2"), "m".into(), None);
        let mut value = version.ddnn.value_network().clone();
        match value.layer_mut(0) {
            prdnn_nn::Layer::Dense(d) => d.activation = prdnn_nn::Activation::Tanh,
            other => panic!("expected a dense layer, got {other:?}"),
        }
        // A record whose hashes match its channels, so only the
        // architecture check can refuse it.
        let Value::Obj(mut fields) = record_to_json(&version, Some(3)) else {
            panic!("a record is a JSON object");
        };
        for (key, field) in &mut fields {
            match key.as_str() {
                "value" => *field = network_to_json(&value),
                "val_hash" => *field = hex_u64(network_content_hash(&value)),
                _ => {}
            }
        }
        let err = record_from_json(&Value::Obj(fields)).unwrap_err();
        assert_eq!(
            err,
            "model \"m\" v1: DDNN channels differ in kind, activation or geometry at layer 0"
        );
    }
}
