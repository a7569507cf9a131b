//! The in-memory engine: an ordered multi-version map.
//!
//! This is the simulator's original MVCC store, kept as the default engine
//! and as the differential-test oracle for the disk-backed engine. Every
//! committed write is recorded under its commit version; reads at a read
//! version `v` observe, for each key, the newest write with version
//! `<= v`. Old versions are garbage-collected once they fall out of the
//! MVCC window. Reads never mutate, so many run at once.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::engine::StorageEngine;

/// One versioned write to a key: `None` is a tombstone (clear).
#[derive(Debug, Clone)]
struct VersionedValue {
    version: u64,
    value: Option<Vec<u8>>,
}

/// The value of `versions` visible at `read_version` (`None` if absent or
/// a tombstone).
fn visible_at(versions: &[VersionedValue], read_version: u64) -> Option<&Vec<u8>> {
    versions
        .iter()
        .rev()
        .find(|v| v.version <= read_version)
        .and_then(|v| v.value.as_ref())
}

/// Ordered multi-version key-value storage in memory.
#[derive(Debug, Default)]
pub struct MemoryEngine {
    map: BTreeMap<Vec<u8>, Vec<VersionedValue>>,
    last_version: u64,
}

impl MemoryEngine {
    pub fn new() -> Self {
        MemoryEngine::default()
    }
}

impl StorageEngine for MemoryEngine {
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        self.last_version = self.last_version.max(version);
        let versions = self.map.entry(key).or_default();
        debug_assert!(versions.last().is_none_or(|v| v.version <= version));
        if let Some(last) = versions.last_mut() {
            if last.version == version {
                last.value = value;
                return;
            }
        }
        versions.push(VersionedValue { version, value });
    }

    /// Tombstoning key-by-key (rather than tracking range tombstones) keeps
    /// reads simple; the cost is proportional to the number of live keys in
    /// the range, which matches FDB's own storage-server behaviour closely
    /// enough for the experiments in this repository.
    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64) {
        self.last_version = self.last_version.max(version);
        let keys: Vec<Vec<u8>> = self
            .map
            .range::<[u8], _>((Bound::Included(begin), Bound::Excluded(end)))
            .filter(|(_, vs)| vs.last().is_some_and(|v| v.value.is_some()))
            .map(|(k, _)| k.clone())
            .collect();
        for k in keys {
            self.write(k, None, version);
        }
    }

    fn compact(&mut self, oldest_version: u64) {
        self.map.retain(|_, versions| {
            // Keep the newest version <= oldest_version (still the visible
            // base for readers at the horizon) plus everything newer.
            let split = versions
                .iter()
                .rposition(|v| v.version <= oldest_version)
                .unwrap_or(0);
            if split > 0 {
                versions.drain(..split);
            }
            // Entry can go entirely once only tombstones at/below the
            // horizon remain.
            !(versions.len() == 1
                && versions[0].value.is_none()
                && versions[0].version <= oldest_version)
        });
    }

    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>> {
        visible_at(self.map.get(key)?, read_version).cloned()
    }

    /// Both directions stream straight off the `BTreeMap` range iterator.
    fn range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let iter = self
            .map
            .range::<[u8], _>((Bound::Included(begin), Bound::Excluded(end)));
        let visible = move |(k, versions): (&Vec<u8>, &Vec<VersionedValue>)| {
            visible_at(versions, read_version).map(|val| (k.clone(), val.clone()))
        };
        if reverse {
            iter.rev().filter_map(visible).collect()
        } else {
            iter.filter_map(visible).collect()
        }
    }

    fn last_version(&self) -> u64 {
        self.last_version
    }

    fn live_key_count(&self, read_version: u64) -> usize {
        self.map
            .values()
            .filter(|versions| visible_at(versions, read_version).is_some())
            .count()
    }

    fn total_version_entries(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    fn describe(&self) -> String {
        format!("memory(keys={})", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_version() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 20);
        assert_eq!(s.get(b"k", 5), None);
        assert_eq!(s.get(b"k", 10), Some(b"v1".to_vec()));
        assert_eq!(s.get(b"k", 15), Some(b"v1".to_vec()));
        assert_eq!(s.get(b"k", 20), Some(b"v2".to_vec()));
        assert_eq!(s.get(b"k", 100), Some(b"v2".to_vec()));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
        s.write(b"k".to_vec(), None, 20);
        assert_eq!(s.get(b"k", 15), Some(b"v".to_vec()));
        assert_eq!(s.get(b"k", 25), None);
    }

    #[test]
    fn range_respects_versions_and_order() {
        let mut s = MemoryEngine::new();
        s.write(b"a".to_vec(), Some(b"1".to_vec()), 10);
        s.write(b"b".to_vec(), Some(b"2".to_vec()), 20);
        s.write(b"c".to_vec(), Some(b"3".to_vec()), 10);
        let r = s.range(b"a", b"z", 15, false);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, b"a");
        assert_eq!(r[1].0, b"c");
        let r = s.range(b"a", b"z", 25, true);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].0, b"c");
        assert_eq!(r[2].0, b"a");
    }

    #[test]
    fn reverse_range_streams_same_results() {
        let mut s = MemoryEngine::new();
        for i in 0..100u32 {
            s.write(format!("k{i:03}").into_bytes(), Some(vec![i as u8]), 10);
        }
        s.write(b"k050".to_vec(), None, 20); // tombstone mid-range
        let mut fwd = s.range(b"k010", b"k090", 25, false);
        let rev = s.range(b"k010", b"k090", 25, true);
        fwd.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn clear_range_tombstones_only_inside() {
        let mut s = MemoryEngine::new();
        for k in [b"a", b"b", b"c", b"d"] {
            s.write(k.to_vec(), Some(b"v".to_vec()), 10);
        }
        s.clear_range(b"b", b"d", 20);
        let r = s.range(b"a", b"z", 25, false);
        let keys: Vec<_> = r.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"d".to_vec()]);
        // Old readers still see everything.
        assert_eq!(s.range(b"a", b"z", 15, false).len(), 4);
    }

    #[test]
    fn compact_drops_shadowed_versions() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 20);
        s.write(b"k".to_vec(), Some(b"v3".to_vec()), 30);
        assert_eq!(s.total_version_entries(), 3);
        s.compact(25);
        assert_eq!(s.total_version_entries(), 2);
        assert_eq!(s.get(b"k", 25), Some(b"v2".to_vec()));
        assert_eq!(s.get(b"k", 35), Some(b"v3".to_vec()));
    }

    #[test]
    fn compact_removes_dead_tombstones() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
        s.write(b"k".to_vec(), None, 20);
        s.compact(30);
        assert_eq!(s.total_version_entries(), 0);
    }
}
