//! Disk-full degradation: an `ENOSPC`/`EIO` on the WAL write path flips
//! the table into read-only degraded mode — queries keep serving the
//! durable snapshot, further inserts are refused with the typed,
//! non-transient [`CoreError::StorageExhausted`] — and a successful
//! `seal()` (the operator freed space) clears the flag and resumes
//! ingest. The injected fault reuses `core::fault` determinism
//! (`FaultKind::DiskFull` surfaces as errno 28 with nothing reaching the
//! medium).

use std::sync::Arc;

use lidardb_core::{
    CoreError, Durability, FaultInjector, FaultKind, FaultStage, MetricsRegistry, PointCloud,
};
use lidardb_las::PointRecord;

fn batch(n: usize, salt: u16) -> Vec<PointRecord> {
    (0..n)
        .map(|i| PointRecord {
            x: i as f64,
            y: salt as f64,
            intensity: salt,
            ..Default::default()
        })
        .collect()
}

/// The tests of this file flip the process-wide `degraded_tables` gauge,
/// and one asserts exact deltas on it: they must not interleave.
static GAUGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lidardb_diskfull_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(&d));
    d
}

#[test]
fn enospc_degrades_to_read_only_and_seal_recovers() {
    let _serial = GAUGE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tdir("roundtrip");
    let fi = Arc::new(FaultInjector::new());
    let mut pc =
        PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi.clone())).unwrap();
    assert!(pc.ingest_records(&batch(10, 1)).unwrap());
    assert!(!pc.degraded());

    // The device fills: the next WAL append is refused with ENOSPC.
    fi.inject(FaultStage::WalAppend, None, FaultKind::DiskFull);
    let gauge_before = MetricsRegistry::global().degraded_tables.get();
    let err = pc.ingest_records(&batch(5, 2)).unwrap_err();
    assert!(matches!(err, CoreError::StorageExhausted(_)), "got {err:?}");
    assert!(!err.is_transient(), "clients must stop resending");
    assert!(pc.degraded(), "table flips into degraded mode");
    assert_eq!(
        MetricsRegistry::global().degraded_tables.get(),
        gauge_before + 1,
        "degraded_tables gauge tracks the transition"
    );

    // Queries keep serving the durable snapshot; the failed batch never
    // became visible (WAL-first: nothing reached the table).
    assert_eq!(pc.num_points(), 10);
    assert_eq!(pc.visible_rows(), 10);

    // Further inserts are refused typed — even though the injected fault
    // has burned out — because the mode is sticky until an operator acts.
    let err = pc.ingest_records(&batch(5, 3)).unwrap_err();
    assert!(matches!(err, CoreError::StorageExhausted(_)), "got {err:?}");
    assert_eq!(pc.num_points(), 10, "degraded table stays read-only");

    // Operator recovery: space freed, seal() succeeds, flag clears.
    pc.seal().unwrap();
    assert!(!pc.degraded(), "successful seal leaves degraded mode");
    assert_eq!(
        MetricsRegistry::global().degraded_tables.get(),
        gauge_before,
        "gauge returns to its baseline"
    );
    assert!(pc.ingest_records(&batch(5, 4)).unwrap());
    assert_eq!(pc.num_points(), 15, "ingest resumes after recovery");
}

#[test]
fn enospc_at_group_commit_sync_also_degrades() {
    let _serial = GAUGE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tdir("sync");
    let fi = Arc::new(FaultInjector::new());
    let mut pc = PointCloud::open_ingest_with_faults(
        &dir,
        Durability::GroupCommit {
            max_batches: 2,
            max_delay: std::time::Duration::from_secs(3600),
        },
        Some(fi.clone()),
    )
    .unwrap();
    assert!(!pc.ingest_records(&batch(4, 1)).unwrap(), "group open");
    fi.inject(FaultStage::WalSync, None, FaultKind::DiskFull);
    let err = pc.flush_wal().unwrap_err();
    assert!(matches!(err, CoreError::StorageExhausted(_)), "got {err:?}");
    assert!(pc.degraded());
    // The unsynced batch never became visible: no ghost rows from a
    // degraded table.
    assert_eq!(pc.visible_rows(), 0);
    let err = pc.ingest_records(&batch(1, 2)).unwrap_err();
    assert!(matches!(err, CoreError::StorageExhausted(_)), "got {err:?}");
    // seal() flushes (the device recovered), folds, and clears the flag.
    pc.seal().unwrap();
    assert!(!pc.degraded());
    assert_eq!(pc.visible_rows(), 4);
}

#[test]
fn degraded_table_survives_restart_cleanly() {
    let _serial = GAUGE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Degradation is a *runtime* mode, not an on-disk poison: after a
    // restart the durable prefix opens normally and ingest works again
    // (the operator's restart implies the device was dealt with).
    let dir = tdir("restart");
    let fi = Arc::new(FaultInjector::new());
    let mut pc =
        PointCloud::open_ingest_with_faults(&dir, Durability::Always, Some(fi.clone())).unwrap();
    assert!(pc.ingest_records(&batch(7, 1)).unwrap());
    fi.inject(FaultStage::WalAppend, None, FaultKind::DiskFull);
    assert!(pc.ingest_records(&batch(3, 2)).is_err());
    assert!(pc.degraded());
    drop(pc);
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert!(!pc.degraded(), "fresh open starts undegraded");
    assert_eq!(pc.num_points(), 7, "acked prefix recovered exactly");
    assert!(pc.ingest_records(&batch(2, 3)).unwrap());
    assert_eq!(pc.num_points(), 9);
}
