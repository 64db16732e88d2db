//! The versioned model store.
//!
//! A stored model is a *name* plus an append-only chain of immutable
//! [`ModelVersion`]s.  Version 1 is the loaded network; every successful
//! repair publishes version `N+1` with the repair's
//! [`RepairProvenance`].  Nothing is ever
//! mutated or removed: an eval pinned to `name@v2` keeps answering from
//! version 2 forever, and `name@latest` moves atomically when a repair
//! lands.
//!
//! The store no longer owns the version chains directly: they live in the
//! [`VersionLog`] backend ([`crate::version_log`]), which is either the
//! in-memory [`MemoryLog`] (the original behaviour) or the durable
//! [`crate::wal::WalLog`].  Every publish is **write-ahead**: the log
//! records the version (fsync for the WAL backend) before the new chain
//! head is stored, so an acknowledged publish survives a crash.  Reads are
//! unchanged and lock-free (see the `version_log` module docs for the
//! safety argument).

use prdnn_core::{DecoupledNetwork, RepairProvenance};
use std::sync::{Arc, Mutex, PoisonError};

use crate::protocol::ModelRef;
use crate::version_log::{LogStats, MemoryLog, ModelEntry, VersionLog};

pub use crate::version_log::ModelVersion;

/// Errors returned by store lookups and loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No model with the requested name.
    UnknownModel(String),
    /// The model exists but not the pinned version.
    UnknownVersion(String, u32),
    /// A load targeted a name that is already taken.
    AlreadyExists(String),
    /// The version log refused the publish — nothing was published, so the
    /// store never acknowledges data the log did not make durable.
    Durability(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            StoreError::UnknownVersion(name, v) => {
                write!(f, "model {name:?} has no version {v}")
            }
            StoreError::AlreadyExists(name) => {
                write!(f, "model {name:?} already exists (versions are immutable)")
            }
            StoreError::Durability(m) => write!(f, "publish not durable: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The versioned model store: a thin façade over a [`VersionLog`].
pub struct ModelStore {
    log: Arc<dyn VersionLog>,
    /// Serialises publishes *across* models.  Each entry's own lock already
    /// serialises per-model publishers; this outer lock additionally makes
    /// the (log append → chain insert) pair atomic with respect to the
    /// snapshot collection in [`VersionLog::after_publish`], so a snapshot
    /// can never miss an appended-but-not-yet-visible version.
    publish_order: Mutex<()>,
}

impl Default for ModelStore {
    fn default() -> Self {
        ModelStore::new()
    }
}

impl ModelStore {
    /// Creates an empty in-memory store (a [`MemoryLog`] backend).
    pub fn new() -> Self {
        ModelStore::with_log(Arc::new(MemoryLog::new()))
    }

    /// Creates a store over an explicit log backend.  The backend may
    /// already hold recovered chains (the WAL backend replays its snapshot
    /// and WAL tail in `open`).
    pub fn with_log(log: Arc<dyn VersionLog>) -> Self {
        ModelStore {
            log,
            publish_order: Mutex::new(()),
        }
    }

    /// Loads a network under a new name, publishing it as version 1.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if the name is taken — published
    /// versions are immutable, so re-loading cannot silently replace them.
    /// [`StoreError::Durability`] if the log refused the record.
    pub fn load(
        &self,
        name: &str,
        ddnn: DecoupledNetwork,
        source: String,
    ) -> Result<Arc<ModelVersion>, StoreError> {
        // Poison recovery: the guard carries no data and a panicked publish
        // leaves the chains consistent (the head swaps atomically), so a
        // crashed repair worker must not wedge every future publish.
        let _order = self
            .publish_order
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let chains = self.log.chains();
        if chains.contains(name) {
            return Err(StoreError::AlreadyExists(name.to_owned()));
        }
        // Publish into a detached entry first: the map only ever exposes
        // entries that hold at least one version.
        let entry = Arc::new(ModelEntry::new(name.to_owned()));
        let published = entry
            .publish_logged(self.log.as_ref(), |version| {
                ModelVersion::new(name.to_owned(), version, ddnn, source, None)
            })
            .map_err(|e| StoreError::Durability(e.to_string()))?;
        chains.insert(entry);
        self.compact_if_due();
        Ok(published)
    }

    /// Publishes a repaired network as the next version of an existing
    /// model.  Returns only once the version is as durable as the log
    /// backend promises — callers may acknowledge it to clients.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`] if the model was never loaded;
    /// [`StoreError::Durability`] if the log refused the record.
    pub fn publish_repair(
        &self,
        name: &str,
        ddnn: DecoupledNetwork,
        source: String,
        provenance: RepairProvenance,
    ) -> Result<Arc<ModelVersion>, StoreError> {
        let _order = self
            .publish_order
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = self.entry(name)?;
        let published = entry
            .publish_logged(self.log.as_ref(), |version| {
                ModelVersion::new(name.to_owned(), version, ddnn, source, Some(provenance))
            })
            .map_err(|e| StoreError::Durability(e.to_string()))?;
        self.compact_if_due();
        Ok(published)
    }

    /// Runs the backend's snapshot/compaction policy.  Failures do not
    /// invalidate the publish (its WAL record is already durable) but are
    /// loud: losing compaction silently would grow the WAL without bound.
    fn compact_if_due(&self) {
        if let Err(e) = self.log.after_publish() {
            eprintln!("prdnn-serve: snapshot/compaction failed: {e}");
        }
    }

    /// Resolves a model reference to a version.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`] / [`StoreError::UnknownVersion`].
    pub fn resolve(&self, model: &ModelRef) -> Result<Arc<ModelVersion>, StoreError> {
        let entry = self.entry(&model.name)?;
        match model.version {
            None => Ok(entry.latest()),
            Some(v) => entry
                .resolve_version(v)
                .ok_or_else(|| StoreError::UnknownVersion(model.name.clone(), v)),
        }
    }

    /// `(name, latest_version)` for every stored model, sorted by name —
    /// deterministic across runs and across recovery.
    pub fn list(&self) -> Vec<(String, u32)> {
        self.log.chains().list()
    }

    /// Every version of one model, oldest first.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`].
    pub fn versions(&self, name: &str) -> Result<Vec<Arc<ModelVersion>>, StoreError> {
        Ok(self.entry(name)?.all_versions())
    }

    /// Flushes the log backend (graceful drain calls this after the last
    /// queued repair has published).
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    pub fn flush_log(&self) -> Result<(), StoreError> {
        self.log
            .flush()
            .map_err(|e| StoreError::Durability(e.to_string()))
    }

    /// The log backend's durability counters.
    pub fn log_stats(&self) -> LogStats {
        self.log.stats()
    }

    fn entry(&self, name: &str) -> Result<Arc<ModelEntry>, StoreError> {
        self.log
            .chains()
            .get(name)
            .ok_or_else(|| StoreError::UnknownModel(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_core::RepairConfig;
    use prdnn_datasets::registry;
    use std::thread;

    fn ddnn(spec: &str) -> DecoupledNetwork {
        DecoupledNetwork::from_network(&registry::build_model(spec).unwrap())
    }

    fn provenance() -> RepairProvenance {
        RepairProvenance {
            spec_hash: 0xfeed,
            config: RepairConfig::default(),
            layer: 0,
            num_key_points: 2,
            delta_l1: 1.0,
            delta_linf: 0.5,
            lp_pivots: 5,
            lp_refactorizations: 0,
        }
    }

    #[test]
    fn load_resolve_and_publish() {
        let store = ModelStore::new();
        let v1 = store.load("n1", ddnn("n1"), "n1".into()).unwrap();
        assert_eq!((v1.version, v1.name.as_str()), (1, "n1"));
        assert!(v1.provenance.is_none());
        assert_eq!(
            store.load("n1", ddnn("n1"), "n1".into()).unwrap_err(),
            StoreError::AlreadyExists("n1".into())
        );

        let v2 = store
            .publish_repair("n1", ddnn("n1"), "repair of n1@v1".into(), provenance())
            .unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(v2.provenance.as_ref().unwrap().spec_hash, 0xfeed);

        // latest moves; pinned versions stay resolvable.
        let latest = store.resolve(&ModelRef::latest("n1")).unwrap();
        assert_eq!(latest.version, 2);
        let pinned = store.resolve(&ModelRef::version("n1", 1)).unwrap();
        assert_eq!(pinned.version, 1);
        assert!(Arc::ptr_eq(&pinned, &v1));
        assert_eq!(
            store.resolve(&ModelRef::version("n1", 3)).unwrap_err(),
            StoreError::UnknownVersion("n1".into(), 3)
        );
        assert_eq!(
            store.resolve(&ModelRef::latest("ghost")).unwrap_err(),
            StoreError::UnknownModel("ghost".into())
        );

        assert_eq!(store.list(), vec![("n1".to_owned(), 2)]);
        let versions = store.versions("n1").unwrap();
        assert_eq!(
            versions.iter().map(|v| v.version).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn list_is_sorted_by_name_regardless_of_load_order() {
        // Pinned: list responses over the wire must be deterministic across
        // runs (and across recovery), so `list()` sorts — never exposes
        // HashMap iteration order.
        let store = ModelStore::new();
        for name in ["zebra", "alpha", "mid", "Alpha", "a0"] {
            store.load(name, ddnn("n1"), "n1".into()).unwrap();
        }
        store
            .publish_repair("mid", ddnn("n1"), "repair of mid@v1".into(), provenance())
            .unwrap();
        let listed = store.list();
        let names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Alpha", "a0", "alpha", "mid", "zebra"]);
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
        assert_eq!(listed[3], ("mid".to_owned(), 2));
    }

    #[test]
    fn concurrent_readers_see_consistent_versions_during_publishes() {
        let store = Arc::new(ModelStore::new());
        store.load("m", ddnn("n1"), "n1".into()).unwrap();
        let publishes = 64u32;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    let mut last = 0u32;
                    loop {
                        let latest = store.resolve(&ModelRef::latest("m")).unwrap();
                        // Versions are monotone and self-consistent.
                        assert!(latest.version >= last);
                        assert_eq!(latest.name, "m");
                        last = latest.version;
                        if last > publishes {
                            return;
                        }
                        // Every historical version stays resolvable.
                        let pin = 1 + last / 2;
                        let pinned = store.resolve(&ModelRef::version("m", pin)).unwrap();
                        assert_eq!(pinned.version, pin);
                    }
                })
            })
            .collect();
        for _ in 0..publishes {
            store
                .publish_repair("m", ddnn("n1"), "repair".into(), provenance())
                .unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.versions("m").unwrap().len(), publishes as usize + 1);
    }
}
