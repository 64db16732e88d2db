//! The version log: the append-only record of published model versions
//! that both the single-node store and (eventually) a replication stream
//! consume.
//!
//! This module extracts what used to live inside `ModelStore` into two
//! pieces:
//!
//! * [`VersionChains`] — the in-memory chain index (name → append-only
//!   version chain with an arc-swap-style atomic head).  Every backend
//!   keeps one: it *is* the serving read path, and its lock-freedom
//!   guarantees are unchanged from the original store (see the safety
//!   argument below).
//! * [`VersionLog`] — the durability contract.  [`MemoryLog`] is the
//!   original behaviour (versions live exactly as long as the process);
//!   [`crate::wal::WalLog`] appends an fsynced record per publish and
//!   recovers the chains on cold start.
//!
//! The load-bearing ordering is **write-ahead**: `ModelEntry::publish_logged`
//! appends the version to the log *before* storing the new chain head, so
//! no reader (and in particular no repair-job acknowledgement) can observe
//! a version that is not at least as durable as the backend promises.
//!
//! # Lock-freedom
//!
//! Readers resolve `latest` through an **arc-swap-style atomic head
//! pointer**: each entry keeps its versions in an intrusive linked list of
//! heap nodes whose head is an [`AtomicPtr`].  Publishing allocates a node
//! and stores the new head (writers are serialised by a small mutex);
//! resolving loads the head with `Acquire` and walks `prev` pointers.  The
//! safety argument is containment, not hazard pointers: **nodes are only
//! freed when the entry itself drops**, so any pointer loaded from the
//! head is valid for as long as the reader can hold it (readers access
//! entries through `Arc<ModelEntry>`).  This is the same immortal-snapshot
//! trade `arc-swap`'s cache layer makes, and it is exactly right here: all
//! versions must stay resolvable by `name@vN` anyway, so retaining them is
//! a feature, not a leak.

//!
//! # Lock poisoning
//!
//! Every lock in this module guards state that is consistent at all times
//! (chain heads swap atomically; the publish mutexes carry no data), so a
//! panic under one cannot leave torn state behind.  Per the crate-wide
//! error-handling policy (see `lib.rs`), these locks therefore **recover**
//! from poisoning with `PoisonError::into_inner` instead of propagating
//! the panic: one crashed worker must not take the read path down with it.

use prdnn_core::{DecoupledNetwork, RepairProvenance};
use prdnn_nn::network_content_hash;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// One immutable published version of a model.
#[derive(Debug)]
pub struct ModelVersion {
    /// The model's store name.
    pub name: String,
    /// The version number (1 = the loaded model).
    pub version: u32,
    /// The network, in decoupled form (version 1 has identical activation
    /// and value channels; repaired versions differ in one value layer).
    pub ddnn: DecoupledNetwork,
    /// Where this version came from: a generator spec, `"network-json"`,
    /// or `"repair of <name>@v<N>"`.
    pub source: String,
    /// Repair provenance (`None` for loaded versions).
    pub provenance: Option<RepairProvenance>,
    /// Memoized `(activation, value)` channel content hashes — the result
    /// cache's key material.  Versions are immutable, so each channel is
    /// hashed at most once, on first use.
    channel_hashes: OnceLock<(u64, u64)>,
}

impl ModelVersion {
    /// Assembles a version.  The channel hashes are computed lazily on the
    /// first [`Self::channel_hashes`] call, never here: publishing must not
    /// pay for hashing that only the result cache needs.
    pub fn new(
        name: String,
        version: u32,
        ddnn: DecoupledNetwork,
        source: String,
        provenance: Option<RepairProvenance>,
    ) -> Self {
        ModelVersion {
            name,
            version,
            ddnn,
            source,
            provenance,
            channel_hashes: OnceLock::new(),
        }
    }

    /// The FNV-1a content hashes of the `(activation, value)` channels,
    /// memoized per version.
    ///
    /// These are the cache-key half that identifies *what network* answered:
    /// eval results depend on both channels, while `lin_regions` depends on
    /// the activation channel alone (the paper's Theorem 4.6 — value edits
    /// preserve linear regions), so a value-only repair legitimately shares
    /// its parent's `lin_regions` cache entries.
    pub fn channel_hashes(&self) -> (u64, u64) {
        *self.channel_hashes.get_or_init(|| {
            (
                network_content_hash(self.ddnn.activation_network()),
                network_content_hash(self.ddnn.value_network()),
            )
        })
    }
}

/// A node in an entry's append-only version chain.
struct VersionNode {
    version: Arc<ModelVersion>,
    /// The previously published version (null for version 1).
    prev: *mut VersionNode,
}

/// One named model: an atomic head pointer into its version chain.
pub struct ModelEntry {
    name: String,
    /// Arc-swap-style latest pointer; see the module docs for the safety
    /// argument.
    head: AtomicPtr<VersionNode>,
    /// Serialises publishers (readers never take it).
    publish_lock: Mutex<()>,
}

// SAFETY: the raw pointers only ever reference nodes owned by this entry's
// chain, which are allocated before being made reachable and freed only in
// `Drop`; all mutation of `head` is a single atomic store under
// `publish_lock`.
unsafe impl Send for ModelEntry {}
unsafe impl Sync for ModelEntry {}

impl ModelEntry {
    pub(crate) fn new(name: String) -> Self {
        ModelEntry {
            name,
            head: AtomicPtr::new(std::ptr::null_mut()),
            publish_lock: Mutex::new(()),
        }
    }

    /// The entry's model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The latest published version (lock-free).
    ///
    /// # Panics
    ///
    /// Panics if called before the first publish (the store never exposes
    /// an entry in that state).
    pub fn latest(&self) -> Arc<ModelVersion> {
        let head = self.head.load(Ordering::Acquire);
        assert!(!head.is_null(), "model entry exposed before first publish");
        // SAFETY: `head` points into this entry's chain; nodes live until
        // the entry drops, and `&self` keeps the entry alive.
        Arc::clone(unsafe { &(*head).version })
    }

    /// Every published version in one chain walk, oldest first
    /// (lock-free, O(versions)).
    pub fn all_versions(&self) -> Vec<Arc<ModelVersion>> {
        let mut out = Vec::new();
        let mut node = self.head.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: as in `latest`.
            let r = unsafe { &*node };
            out.push(Arc::clone(&r.version));
            node = r.prev;
        }
        out.reverse();
        out
    }

    /// Resolves a specific version by walking the chain from the head
    /// (lock-free; chains are as long as the number of repairs published).
    pub fn resolve_version(&self, version: u32) -> Option<Arc<ModelVersion>> {
        let mut node = self.head.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: as in `latest`.
            let r = unsafe { &*node };
            if r.version.version == version {
                return Some(Arc::clone(&r.version));
            }
            node = r.prev;
        }
        None
    }

    /// Publishes `build`'s version as the new head, assigning it the next
    /// version number, with **write-ahead ordering**: the version is
    /// appended to `log` (and is therefore as durable as the backend
    /// promises) *before* it becomes reachable through the chain head.  On
    /// a log failure nothing is published.
    ///
    /// # Errors
    ///
    /// Propagates the log append failure.
    pub(crate) fn publish_logged(
        &self,
        log: &dyn VersionLog,
        build: impl FnOnce(u32) -> ModelVersion,
    ) -> Result<Arc<ModelVersion>, LogError> {
        let _guard = self
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = self.head.load(Ordering::Relaxed);
        let next_version = if prev.is_null() {
            1
        } else {
            // SAFETY: as in `latest`.
            unsafe { &*prev }.version.version + 1
        };
        let version = Arc::new(build(next_version));
        log.append(&version)?;
        let published = Arc::clone(&version);
        let node = Box::into_raw(Box::new(VersionNode { version, prev }));
        self.head.store(node, Ordering::Release);
        Ok(published)
    }

    /// Installs an already-durable version during recovery (no log append).
    ///
    /// # Errors
    ///
    /// Rejects out-of-order version numbers — a gap means the record
    /// stream is corrupt and replay must stop.
    pub(crate) fn install_recovered(&self, version: Arc<ModelVersion>) -> Result<(), String> {
        let _guard = self
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = self.head.load(Ordering::Relaxed);
        let expected = if prev.is_null() {
            1
        } else {
            // SAFETY: as in `latest`.
            unsafe { &*prev }.version.version + 1
        };
        if version.version != expected {
            return Err(format!(
                "model {:?}: recovered version {} but expected {expected}",
                self.name, version.version
            ));
        }
        let node = Box::into_raw(Box::new(VersionNode { version, prev }));
        self.head.store(node, Ordering::Release);
        Ok(())
    }
}

impl Drop for ModelEntry {
    fn drop(&mut self) {
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: chain nodes are uniquely owned by the entry and only
            // freed here, exactly once.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.prev;
        }
    }
}

/// The in-memory chain index: name → [`ModelEntry`].  Read-mostly — lookups
/// take the read lock just long enough to clone an `Arc<ModelEntry>`, and
/// all version resolution inside an entry is lock-free.
#[derive(Default)]
pub struct VersionChains {
    entries: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl VersionChains {
    /// Creates an empty index.
    pub fn new() -> Self {
        VersionChains::default()
    }

    /// The entry for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.read().get(name).cloned()
    }

    /// Whether `name` is taken.
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<ModelEntry>>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes a (non-empty) entry visible under its name.  The entry must
    /// already hold its first version: readers panic on empty entries.
    pub(crate) fn insert(&self, entry: Arc<ModelEntry>) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(entry.name.clone(), entry);
    }

    /// `(name, latest_version)` for every stored model, **sorted by name**
    /// so listings are deterministic across runs and across recovery.
    pub fn list(&self) -> Vec<(String, u32)> {
        let entries = self.read();
        let mut out: Vec<(String, u32)> = entries
            .values()
            .map(|e| (e.name.clone(), e.latest().version))
            .collect();
        out.sort();
        out
    }

    /// Every version of every model, ordered by `(name, version)` — the
    /// snapshot collection order, deterministic for a given store state.
    pub fn all_records(&self) -> Vec<Arc<ModelVersion>> {
        let entries = self.read();
        let mut names: Vec<&Arc<ModelEntry>> = entries.values().collect();
        names.sort_by(|a, b| a.name.cmp(&b.name));
        names.iter().flat_map(|e| e.all_versions()).collect()
    }

    /// Total number of versions across every model.
    pub fn total_versions(&self) -> u64 {
        let entries = self.read();
        entries
            .values()
            .map(|e| u64::from(e.latest().version))
            .sum()
    }
}

/// A version-log failure: the backend could not make a publish durable (or
/// could not compact).  Publishes fail rather than acknowledge data the
/// log did not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError(pub String);

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "version log: {}", self.0)
    }
}

impl std::error::Error for LogError {}

/// Durability / recovery counters a backend exposes (all zero for
/// [`MemoryLog`]); surfaced through the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records appended (and fsynced) to the WAL.
    pub wal_appends: u64,
    /// Bytes appended to the WAL (frame headers included).
    pub wal_bytes: u64,
    /// Snapshot/compaction cycles completed.
    pub snapshots: u64,
    /// Appends that failed (write/fsync error, real or injected) and were
    /// rolled back; the corresponding publishes surfaced typed errors.
    pub wal_failed_appends: u64,
    /// Versions reconstructed at cold start (snapshot + WAL tail).
    pub recovered_versions: u64,
    /// WAL-tail records replayed at cold start (subset of the above).
    pub recovered_wal_records: u64,
    /// Bytes dropped at the end of the WAL during recovery because the
    /// final record was torn or corrupt.
    pub torn_tail_bytes: u64,
}

/// The append-only, per-model, provenance-stamped log of published
/// versions.  The store funnels every publish through [`Self::append`]
/// *before* the version becomes visible; backends decide what durable
/// means.
pub trait VersionLog: Send + Sync {
    /// The in-memory chain index this backend maintains — the serving read
    /// path, shared by all backends.
    fn chains(&self) -> &VersionChains;

    /// Records a version durably.  Returns only once the record is as
    /// durable as the backend promises (the WAL backend fsyncs here).
    ///
    /// # Errors
    ///
    /// The publish is aborted on error; the version never becomes visible.
    fn append(&self, version: &Arc<ModelVersion>) -> Result<(), LogError>;

    /// Called by the store after each publish has landed in the chains,
    /// while publishes are externally serialised — the WAL backend runs its
    /// snapshot/compaction policy here, where the chains are guaranteed to
    /// contain every appended record.
    ///
    /// # Errors
    ///
    /// Compaction failures are reported but the publish itself stands (its
    /// WAL record is already durable).
    fn after_publish(&self) -> Result<(), LogError> {
        Ok(())
    }

    /// Flushes any buffered state (graceful drain calls this last).
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn flush(&self) -> Result<(), LogError> {
        Ok(())
    }

    /// Durability counters.
    fn stats(&self) -> LogStats {
        LogStats::default()
    }
}

/// The in-memory backend: versions are exactly as durable as the process.
/// This is the original `ModelStore` behaviour, now expressed as the
/// trivial [`VersionLog`].
#[derive(Default)]
pub struct MemoryLog {
    chains: VersionChains,
}

impl MemoryLog {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        MemoryLog::default()
    }
}

impl VersionLog for MemoryLog {
    fn chains(&self) -> &VersionChains {
        &self.chains
    }

    fn append(&self, _version: &Arc<ModelVersion>) -> Result<(), LogError> {
        Ok(())
    }
}
