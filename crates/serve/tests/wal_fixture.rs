//! A store directory written while the LP solver still had selectable
//! backends (`tests/fixtures/wal_parent_repair`): the snapshot holds model
//! `m`'s version 1, and the WAL tail a repair, version 2, whose provenance
//! config carries `"lp_backend":"revised_sparse","lp_pricing":"devex"`.
//! It must recover bit for bit, with those two fields dropped.

use prdnn_core::{repair_points_ddnn, OutputPolytope, PointSpec, RepairConfig, RepairNorm};
use prdnn_serve::version_log::VersionLog;
use prdnn_serve::wal::WalLog;
use std::path::{Path, PathBuf};

/// Self-cleaning scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("prdnn-wal-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The fixture, copied so that recovery cannot touch the committed files.
fn copy_fixture(to: &Path) {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_parent_repair");
    for file in ["snapshot.json", "wal.log"] {
        std::fs::copy(from.join(file), to.join(file)).unwrap();
    }
}

/// The `(activation, value)` content hashes the writer stamped on each
/// version.
const V1_HASHES: (u64, u64) = (0xfbde_72fb_0b3d_2c57, 0xfbde_72fb_0b3d_2c57);
const V2_HASHES: (u64, u64) = (0xfbde_72fb_0b3d_2c57, 0x5212_d83b_c002_6ff8);

/// The spec the repair was published for: each point must move to the
/// class after the one version 1 gives it.
fn spec() -> PointSpec {
    let mut spec = PointSpec::new();
    for (point, label) in [
        (vec![0.5, -0.25], 1),
        (vec![-0.75, 0.5], 2),
        (vec![0.25, 0.875], 0),
    ] {
        spec.push(point, OutputPolytope::classification(label, 3, 0.01));
    }
    spec
}

#[test]
fn a_store_written_with_lp_backend_settings_recovers_bit_identical() {
    let dir = TempDir::new("recover");
    copy_fixture(&dir.0);
    // Frames are binary-headed JSON records.
    let wal = std::fs::read(dir.0.join("wal.log")).unwrap();
    let wal = String::from_utf8_lossy(&wal);
    assert!(wal.contains(r#""lp_backend":"revised_sparse","lp_pricing":"devex""#));

    let log = WalLog::open(&dir.0, 0).unwrap();
    let entry = log.chains().get("m").expect("model m recovers");
    let v1 = entry.resolve_version(1).unwrap();
    let v2 = entry.resolve_version(2).unwrap();
    assert_eq!(entry.latest().version, 2);
    assert_eq!(v1.channel_hashes(), V1_HASHES);
    assert_eq!(v2.channel_hashes(), V2_HASHES);
    assert_eq!(v2.source, "repair of m@v1");

    // The repair, re-run on the recovered version 1 under the recorded
    // config, gives version 2's weights and provenance exactly.
    let spec = spec();
    assert_eq!(spec.content_hash(), 0x2744_62df_d890_46a5);
    let config = RepairConfig {
        norm: RepairNorm::L1,
        param_bound: None,
        max_lp_iterations: 100_000,
    };
    let provenance = v2.provenance.as_ref().expect("a repair's provenance");
    assert_eq!(provenance.config, config);
    let outcome = repair_points_ddnn(&v1.ddnn, 1, &spec, &config).unwrap();
    assert_eq!(outcome.repaired, v2.ddnn);
    assert_eq!(
        *provenance,
        outcome.provenance(spec.content_hash(), &config)
    );
    assert_eq!(
        (provenance.lp_pivots, provenance.lp_refactorizations),
        (4, 0)
    );
}
