//! Integration: a `Database` reopened over a paged engine directory
//! resumes its versions where the engine left off. Recovered data is
//! visible to the first transaction, with no clock movement, and the next
//! commit version lies above every recovered version, so versionstamps
//! and the VERSION index keep increasing across a restart.

use std::path::{Path, PathBuf};

use rl_fdb::{Database, DatabaseOptions, EngineKind, Error, EvictionPolicy, PagedConfig};
use rl_storage::{IoCounters, PagedEngine, StorageEngine};

const KEYS: u32 = 20;

fn options(dir: &Path) -> DatabaseOptions {
    DatabaseOptions {
        engine: EngineKind::Paged(PagedConfig {
            path: dir.to_path_buf(),
            pool_pages: 64,
            eviction: EvictionPolicy::default(),
            remove_dir_on_drop: false,
        }),
        ..DatabaseOptions::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Every key written so far reads back in a fresh transaction, and a
/// commit then lands above `recovered`. Read versions older than the MVCC
/// window below `recovered` are refused, as they were before the reopen.
fn assert_resumes(db: &Database, recovered: u64, expected: &[(Vec<u8>, &[u8])]) {
    assert_eq!(db.last_commit_version(), recovered);
    assert!(matches!(
        db.create_transaction_at(0),
        Err(Error::TransactionTooOld)
    ));
    assert_eq!(db.live_key_count(), expected.len());
    let tx = db.create_transaction();
    for (k, v) in expected {
        assert_eq!(tx.get(k).unwrap().as_deref(), Some(*v), "key {k:?}");
    }
    let tx = db.create_transaction();
    tx.set(b"after-reopen", b"");
    tx.commit().unwrap();
    let version = tx.committed_version().unwrap();
    assert!(
        version > recovered,
        "commit version {version} must exceed recovered version {recovered}"
    );
    let tx = db.create_transaction();
    tx.clear(b"after-reopen");
    tx.commit().unwrap();
}

#[test]
fn reopened_database_resumes_above_recovered_versions() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rl-fdb-paged-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Commit through a Database whose clock has moved, so its versions sit
    // far above anything a fresh clock would hand out; then drop it
    // cleanly (checkpoint, WAL folded into the tree).
    let clean_version = {
        let db = Database::with_options(options(&dir));
        db.advance_clock(60_000);
        for i in 0..KEYS {
            db.run(|tx| {
                tx.set(&key(i), b"clean");
                Ok(())
            })
            .unwrap();
        }
        db.last_commit_version()
    };
    let mut expected: Vec<(Vec<u8>, &[u8])> = (0..KEYS).map(|i| (key(i), &b"clean"[..])).collect();
    {
        let db = Database::with_options(options(&dir));
        assert_resumes(&db, clean_version, &expected);
    }

    // An engine-level crash: a committed WAL frame past the last
    // checkpoint, at a version above the clean session's.
    let crash_version = clean_version + 10_000;
    {
        let mut engine = PagedEngine::open(
            &dir,
            64,
            EvictionPolicy::default(),
            IoCounters::new_shared(),
        )
        .unwrap();
        engine.write(b"crashed".to_vec(), Some(b"yes".to_vec()), crash_version);
        engine.commit_batch();
        engine.simulate_crash();
    }
    expected.push((b"crashed".to_vec(), &b"yes"[..]));
    let db = Database::with_options(options(&dir));
    assert_resumes(&db, crash_version, &expected);
    drop(db);

    std::fs::remove_dir_all(&dir).unwrap();
}
