//! The disk-backed engine: buffer pool + CoW B-tree + write-ahead log.
//!
//! ## Write path
//!
//! Each [`StorageEngine::write`]/[`StorageEngine::clear_range`] is buffered
//! into the WAL *and* applied to the tree immediately; nothing reaches the
//! log file until [`StorageEngine::commit_batch`] appends the buffered ops
//! as one checksummed frame. The database seals each commit with one
//! `commit_batch`, under its exclusive store lock, so a commit pays one
//! WAL frame (one `log_appends` tick) however many keys it writes. The
//! tree pages the batch dirtied stay in the
//! buffer pool (or get evicted to disk) without any ordering constraint,
//! because the on-disk meta root still points at the last checkpoint's
//! tree — shadow paging guarantees eviction can never damage it.
//!
//! ## Read path
//!
//! Even a point read moves buffer-pool state: a miss loads a page and may
//! evict another, and a hit updates the eviction policy. The pool
//! therefore sits behind one engine-private mutex, the *pool latch*.
//! `&self` reads lock it for the length of one read; `&mut self` methods
//! already exclude every reader and reach the pool through
//! [`Mutex::get_mut`] without locking. Readers of this engine take turns
//! on the latch, while the database's store lock is held shared. The latch
//! is a leaf: nothing else is acquired while it is held.
//!
//! ## Recovery
//!
//! Open loads the newest valid meta slot (tree root, WAL offset, last
//! applied version), then replays committed WAL frames from that offset,
//! truncating any torn tail. A batch that never got its commit frame
//! vanishes entirely, which is exactly the transaction-atomicity contract
//! the database expects. The newest version among the meta slot and the
//! replayed frames becomes [`StorageEngine::last_version`], from which a
//! reopened database resumes its commit versions.
//!
//! The simulator equates "crash" with "process stopped", so no fsync is
//! issued; the *ordering* points (checkpoint = flush pages, then meta,
//! then reuse old pages / truncate log) are where barriers would go in a
//! real deployment.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::btree::{self, chain_prune, chain_push, chain_visible_at, Chain, Cursor};
use crate::engine::{EvictionPolicy, StorageEngine};
use crate::pool::BufferPool;
use crate::wal::{Wal, WalOp};
use crate::SharedIoCounters;

/// Checkpoint (and truncate the WAL) once it grows past this size.
const WAL_CHECKPOINT_BYTES: u64 = 1 << 20;

/// Disk-backed MVCC storage engine.
#[derive(Debug)]
pub struct PagedEngine {
    /// The pool latch (see the module docs).
    pool: Mutex<BufferPool>,
    wal: Wal,
    counters: SharedIoCounters,
    policy: EvictionPolicy,
    pool_pages: usize,
    dir: PathBuf,
    /// Newest version applied so far, persisted at each checkpoint.
    last_version: u64,
}

impl PagedEngine {
    /// Open (or create) an engine rooted at directory `dir`, holding
    /// `pages.db` and `wal.log`. Replays any committed WAL tail past the
    /// last checkpoint before returning.
    pub fn open(
        dir: &Path,
        pool_pages: usize,
        policy: EvictionPolicy,
        counters: SharedIoCounters,
    ) -> io::Result<PagedEngine> {
        std::fs::create_dir_all(dir)?;
        let pool = BufferPool::open(&dir.join("pages.db"), pool_pages, policy, counters.clone())?;
        let wal = Wal::open(&dir.join("wal.log"))?;
        let mut engine = PagedEngine {
            last_version: pool.checkpoint_version(),
            pool: Mutex::new(pool),
            wal,
            counters,
            policy,
            pool_pages,
            dir: dir.to_path_buf(),
        };
        engine.recover()?;
        Ok(engine)
    }

    fn recover(&mut self) -> io::Result<()> {
        let lsn = self.pool_mut().checkpoint_lsn();
        let batches = self.wal.replay_from(lsn)?;
        if batches.is_empty() {
            return Ok(());
        }
        for batch in batches {
            for op in batch {
                match op {
                    WalOp::Write {
                        key,
                        value,
                        version,
                    } => self.apply_write(&key, value, version)?,
                    WalOp::ClearRange {
                        begin,
                        end,
                        version,
                    } => self.apply_clear_range(&begin, &end, version)?,
                }
            }
        }
        // Fold the replayed tail into a fresh checkpoint so the next open
        // starts clean.
        self.checkpoint(self.wal.len())
    }

    /// Tear down without running the destructor's checkpoint — the on-disk
    /// state is left exactly as a process kill would leave it. Buffered
    /// (uncommitted) WAL ops are lost, as they should be. The underlying
    /// file handles are deliberately leaked; the OS reclaims them.
    pub fn simulate_crash(self) {
        std::mem::forget(self);
    }

    /// Structural self-check; returns the number of keys in the tree.
    pub fn check_consistency(&mut self) -> io::Result<usize> {
        btree::check_consistency(self.pool_mut())
    }

    /// Lock the pool latch for a read. Poison is recovered from, as
    /// `rl_fdb::sync::lock` does: a read changes which pages are resident,
    /// never the tree's content, so a reader that panicked leaves nothing
    /// half-written behind.
    fn pool(&self) -> MutexGuard<'_, BufferPool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool, for a caller that already excludes every reader.
    fn pool_mut(&mut self) -> &mut BufferPool {
        self.pool.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn checkpoint(&mut self, lsn: u64) -> io::Result<()> {
        let last_version = self.last_version;
        self.pool_mut().checkpoint(lsn, last_version)
    }

    fn apply_write(&mut self, key: &[u8], value: Option<Vec<u8>>, version: u64) -> io::Result<()> {
        self.last_version = self.last_version.max(version);
        let pool = self.pool_mut();
        let mut chain = btree::get_chain(pool, key)?.unwrap_or_default();
        chain_push(&mut chain, version, value);
        btree::put_chain(pool, key, &chain)
    }

    fn apply_clear_range(&mut self, begin: &[u8], end: &[u8], version: u64) -> io::Result<()> {
        self.last_version = self.last_version.max(version);
        let pool = self.pool_mut();
        // Tombstone keys whose newest chain entry is a live value —
        // mirroring the in-memory engine exactly.
        let mut doomed: Vec<(Vec<u8>, Chain)> = Vec::new();
        let mut cursor = Cursor::forward_from(pool, begin)?;
        while let Some((key, chain)) = cursor.next(pool)? {
            if key.as_slice() >= end {
                break;
            }
            if chain.last().is_some_and(|(_, v)| v.is_some()) {
                doomed.push((key, chain));
            }
        }
        for (key, mut chain) in doomed {
            chain_push(&mut chain, version, None);
            btree::put_chain(pool, &key, &chain)?;
        }
        Ok(())
    }

    fn try_commit_batch(&mut self) -> io::Result<()> {
        self.wal.commit(&self.counters)?;
        if self.wal.len() > WAL_CHECKPOINT_BYTES {
            self.try_flush()?;
        }
        Ok(())
    }

    /// Checkpoint the tree and truncate the superseded WAL.
    fn try_flush(&mut self) -> io::Result<()> {
        self.checkpoint(self.wal.len())?;
        if !self.wal.is_empty() {
            // Order matters: truncate first, then record lsn=0. A crash in
            // between leaves meta pointing past the (empty) log, which
            // recovery treats as "nothing to replay".
            self.wal.truncate()?;
            self.checkpoint(0)?;
        }
        Ok(())
    }

    fn try_get(&self, key: &[u8], read_version: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(btree::get_chain(&mut self.pool(), key)?
            .and_then(|chain| chain_visible_at(&chain, read_version).map(<[u8]>::to_vec)))
    }

    fn try_range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
    ) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let pool = &mut *self.pool();
        let mut out = Vec::new();
        if reverse {
            let mut cursor = Cursor::backward_from(pool, end)?;
            while let Some((key, chain)) = cursor.next(pool)? {
                if key.as_slice() < begin {
                    break;
                }
                if let Some(value) = chain_visible_at(&chain, read_version) {
                    out.push((key, value.to_vec()));
                }
            }
        } else {
            let mut cursor = Cursor::forward_from(pool, begin)?;
            while let Some((key, chain)) = cursor.next(pool)? {
                if key.as_slice() >= end {
                    break;
                }
                if let Some(value) = chain_visible_at(&chain, read_version) {
                    out.push((key, value.to_vec()));
                }
            }
        }
        Ok(out)
    }

    fn try_compact(&mut self, oldest_version: u64) -> io::Result<()> {
        let pool = self.pool_mut();
        // Scan first, mutate after: the cursor must not race tree updates.
        // Compaction is deliberately NOT logged — replaying a WAL without
        // it yields the same visible state for every read version still in
        // the MVCC window.
        let mut removals: Vec<Vec<u8>> = Vec::new();
        let mut updates: Vec<(Vec<u8>, Chain)> = Vec::new();
        let mut cursor = Cursor::forward_from(pool, b"")?;
        while let Some((key, chain)) = cursor.next(pool)? {
            match chain_prune(&chain, oldest_version) {
                None => removals.push(key),
                Some(pruned) => {
                    if pruned.len() != chain.len() {
                        updates.push((key, pruned));
                    }
                }
            }
        }
        for (key, chain) in updates {
            btree::put_chain(pool, &key, &chain)?;
        }
        for key in removals {
            btree::remove_key(pool, &key)?;
        }
        Ok(())
    }

    /// Fold `f` over every key's version chain, in key order.
    fn try_fold_chains<T>(&self, init: T, mut f: impl FnMut(T, &Chain) -> T) -> io::Result<T> {
        let pool = &mut *self.pool();
        let mut acc = init;
        let mut cursor = Cursor::forward_from(pool, b"")?;
        while let Some((_, chain)) = cursor.next(pool)? {
            acc = f(acc, &chain);
        }
        Ok(acc)
    }
}

impl Drop for PagedEngine {
    fn drop(&mut self) {
        if self.wal.has_pending() {
            // A batch was applied to the tree but never committed: persist
            // nothing new, so reopening replays only committed state —
            // identical to a crash at this instant.
            self.wal.discard_pending();
            return;
        }
        let _ = self.checkpoint(self.wal.len());
    }
}

const IO_MSG: &str = "paged storage engine I/O error";

impl StorageEngine for PagedEngine {
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        self.wal.buffer(&WalOp::Write {
            key: key.clone(),
            value: value.clone(),
            version,
        });
        self.apply_write(&key, value, version).expect(IO_MSG);
    }

    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64) {
        self.wal.buffer(&WalOp::ClearRange {
            begin: begin.to_vec(),
            end: end.to_vec(),
            version,
        });
        self.apply_clear_range(begin, end, version).expect(IO_MSG);
    }

    fn commit_batch(&mut self) {
        self.try_commit_batch().expect(IO_MSG);
    }

    fn compact(&mut self, oldest_version: u64) {
        self.try_compact(oldest_version).expect(IO_MSG);
    }

    fn flush(&mut self) {
        self.try_flush().expect(IO_MSG);
    }

    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>> {
        self.try_get(key, read_version).expect(IO_MSG)
    }

    fn range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.try_range(begin, end, read_version, reverse)
            .expect(IO_MSG)
    }

    fn last_version(&self) -> u64 {
        self.last_version
    }

    fn live_key_count(&self, read_version: u64) -> usize {
        self.try_fold_chains(0, |n, chain| {
            n + usize::from(chain_visible_at(chain, read_version).is_some())
        })
        .expect(IO_MSG)
    }

    fn total_version_entries(&self) -> usize {
        self.try_fold_chains(0, |n, chain| n + chain.len())
            .expect(IO_MSG)
    }

    fn describe(&self) -> String {
        format!(
            "paged(dir={}, pool_pages={}, eviction={}, file_pages={}, wal_bytes={})",
            self.dir.display(),
            self.pool_pages,
            self.policy.name(),
            self.pool().page_count(),
            self.wal.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoCounters;

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("rl-storage-paged-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(d: &Path, pages: usize) -> PagedEngine {
        PagedEngine::open(d, pages, EvictionPolicy::Lru, IoCounters::new_shared()).unwrap()
    }

    #[test]
    fn basic_mvcc_semantics() {
        let d = dir("basic");
        let mut e = open(&d, 32);
        e.write(b"a".to_vec(), Some(b"1".to_vec()), 10);
        e.write(b"b".to_vec(), Some(b"2".to_vec()), 20);
        e.commit_batch();
        assert_eq!(e.get(b"a", 15), Some(b"1".to_vec()));
        assert_eq!(e.get(b"b", 15), None);
        assert_eq!(e.get(b"b", 25), Some(b"2".to_vec()));
        e.clear_range(b"a", b"b", 30);
        e.commit_batch();
        assert_eq!(e.get(b"a", 35), None);
        assert_eq!(e.get(b"a", 25), Some(b"1".to_vec()));
        let r = e.range(b"", b"\xff", 35, false);
        assert_eq!(r, vec![(b"b".to_vec(), b"2".to_vec())]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn data_survives_clean_reopen() {
        let d = dir("reopen");
        {
            let mut e = open(&d, 32);
            for i in 0..200u32 {
                e.write(
                    format!("k{i:04}").into_bytes(),
                    Some(format!("v{i}").into_bytes()),
                    10,
                );
            }
            e.commit_batch();
        } // Drop checkpoints.
        let mut e = open(&d, 32);
        assert_eq!(e.check_consistency().unwrap(), 200);
        assert_eq!(e.get(b"k0123", 15), Some(b"v123".to_vec()));
        assert_eq!(e.live_key_count(15), 200);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_preserves_committed_batches_only() {
        let d = dir("crash");
        {
            let mut e = open(&d, 32);
            e.write(b"committed".to_vec(), Some(b"yes".to_vec()), 10);
            e.commit_batch();
            e.write(b"uncommitted".to_vec(), Some(b"no".to_vec()), 20);
            // No commit_batch: the op is applied to the tree and buffered
            // for the WAL, but the frame never lands.
            e.simulate_crash();
        }
        let mut e = open(&d, 32);
        assert_eq!(e.get(b"committed", 30), Some(b"yes".to_vec()));
        assert_eq!(e.get(b"uncommitted", 30), None);
        e.check_consistency().unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn reopen_restores_last_version() {
        let d = dir("lastversion");
        {
            let mut e = open(&d, 32);
            e.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
            e.write(b"k".to_vec(), None, 40);
            e.commit_batch();
            // Compaction drops the only entries that carried version 40.
            e.compact(50);
            assert_eq!(e.total_version_entries(), 0);
        } // Drop checkpoints: the version comes back from the meta slot.
        let mut e = open(&d, 32);
        assert_eq!(e.last_version(), 40);
        e.write(b"j".to_vec(), Some(b"v".to_vec()), 70);
        e.commit_batch();
        e.simulate_crash();
        // After a crash it comes back from the replayed WAL frame.
        let e = open(&d, 32);
        assert_eq!(e.last_version(), 70);
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn readers_share_the_engine() {
        let d = dir("readers");
        // A tiny pool, so concurrent readers keep evicting each other's
        // pages under the pool latch.
        let mut e = open(&d, 4);
        for i in 0..200u32 {
            e.write(
                format!("k{i:04}").into_bytes(),
                Some(vec![i as u8; 100]),
                10,
            );
        }
        e.commit_batch();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let e = &e;
                s.spawn(move || {
                    for i in (t..200).step_by(4) {
                        let key = format!("k{i:04}");
                        assert_eq!(e.get(key.as_bytes(), 10), Some(vec![i as u8; 100]));
                    }
                    assert_eq!(e.range(b"k", b"l", 10, t % 2 == 0).len(), 200);
                });
            }
        });
        e.check_consistency().unwrap();
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn one_commit_batch_seals_many_transactions_in_one_frame() {
        // The engine's batch contract: every write buffered between
        // commit_batch calls, whatever its version (here, four
        // transactions' worth), lands as exactly one WAL frame — one
        // log_appends tick for the batch. The database seals one commit
        // per batch; the engine does not depend on that.
        let d = dir("groupcommit");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 32, EvictionPolicy::Lru, counters.clone()).unwrap();
        let before = counters.snapshot().log_appends;
        for t in 0..4u64 {
            for k in 0..8u32 {
                e.write(
                    format!("txn{t}-k{k}").into_bytes(),
                    Some(b"v".to_vec()),
                    10 + t,
                );
            }
        }
        e.commit_batch();
        assert_eq!(counters.snapshot().log_appends - before, 1);
        // And the whole batch is atomic across a crash+reopen.
        e.simulate_crash();
        let e = open(&d, 32);
        assert_eq!(e.live_key_count(100), 32);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn wal_growth_triggers_checkpoint_truncation() {
        let d = dir("walgrow");
        let mut e = open(&d, 32);
        let big = vec![0x42u8; 64 * 1024];
        for i in 0..20u32 {
            e.write(
                format!("k{i}").into_bytes(),
                Some(big.clone()),
                10 + u64::from(i),
            );
            e.commit_batch();
        }
        assert!(
            e.wal.len() < WAL_CHECKPOINT_BYTES,
            "WAL should have been truncated by a size-triggered checkpoint"
        );
        assert_eq!(e.get(b"k19", 100), Some(big));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn compact_prunes_on_disk_chains() {
        let d = dir("compact");
        let mut e = open(&d, 32);
        for v in 1..=10u64 {
            e.write(b"k".to_vec(), Some(vec![v as u8]), v * 10);
        }
        e.write(b"dead".to_vec(), Some(b"x".to_vec()), 10);
        e.write(b"dead".to_vec(), None, 20);
        e.commit_batch();
        assert_eq!(e.total_version_entries(), 12);
        e.compact(95);
        assert_eq!(
            e.total_version_entries(),
            2,
            "versions 90,100 survive; dead key gone"
        );
        assert_eq!(e.get(b"k", 95), Some(vec![9]));
        assert_eq!(e.get(b"k", 200), Some(vec![10]));
        assert_eq!(e.get(b"dead", 200), None);
        e.check_consistency().unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }
}
