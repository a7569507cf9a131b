//! The [`StorageEngine`] trait: the MVCC storage contract the simulator's
//! commit pipeline and read paths are written against.
//!
//! Reads take `&self` and writes take `&mut self`, so the database runs
//! MVCC snapshot reads under the shared side of its store lock,
//! concurrently with each other, and applies commits under the exclusive
//! side. An engine whose reads touch internal state (the paged engine's
//! buffer pool) synchronizes that state itself, behind the `&self` reads.

use std::str::FromStr;

/// Which buffer-pool eviction policy a paged engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used page (exact recency order).
    #[default]
    Lru,
    /// Second-chance clock: a hand sweeps frames, clearing reference bits.
    Clock,
    /// SIEVE (NSDI'24): FIFO order with a lazily moving hand that spares
    /// visited pages; scan-resistant with less bookkeeping than LRU.
    Sieve,
}

impl EvictionPolicy {
    pub const ALL: [EvictionPolicy; 3] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Clock,
        EvictionPolicy::Sieve,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::Sieve => "sieve",
        }
    }
}

impl FromStr for EvictionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(EvictionPolicy::Lru),
            "clock" => Ok(EvictionPolicy::Clock),
            "sieve" => Ok(EvictionPolicy::Sieve),
            other => Err(format!(
                "unknown eviction policy '{other}' (lru|clock|sieve)"
            )),
        }
    }
}

/// Ordered multi-version key-value storage, as required by the simulator.
///
/// Versions must be applied in nondecreasing order (the commit pipeline
/// guarantees this); reads at `read_version` observe, for each key, the
/// newest write with version `<= read_version`.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Record a write (set, or clear via `None`) at `version`.
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64);

    /// Clear every key in `[begin, end)` at `version` by writing tombstones.
    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64);

    /// Mark the end of a committed batch. A crash-safe engine makes every
    /// write since the previous `commit_batch` durable atomically; the
    /// in-memory engine ignores it. The database calls it once per commit,
    /// so a batch is one transaction's writes.
    fn commit_batch(&mut self) {}

    /// Drop versions that are no longer visible to any read version
    /// `>= oldest_version`, and entries that are entirely dead.
    fn compact(&mut self, oldest_version: u64);

    /// Force all buffered state to disk (checkpoint). No-op in memory.
    fn flush(&mut self) {}

    /// Read the value of `key` visible at `read_version`.
    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>>;

    /// Iterate keys in `[begin, end)` visible at `read_version`, in order.
    /// `reverse` walks from the end of the range backwards.
    fn range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// The newest version any write or range clear applied to this engine
    /// carries, including those recovered from disk at open. A reopened
    /// database resumes its commit versions above it.
    fn last_version(&self) -> u64;

    /// Number of live keys at `read_version` (test/diagnostic helper).
    fn live_key_count(&self, read_version: u64) -> usize;

    /// Total number of (key, version) entries retained (diagnostic).
    fn total_version_entries(&self) -> usize;

    /// Short human-readable engine description for diagnostics.
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_policy_parses() {
        assert_eq!(
            "lru".parse::<EvictionPolicy>().unwrap(),
            EvictionPolicy::Lru
        );
        assert_eq!(
            "Clock".parse::<EvictionPolicy>().unwrap(),
            EvictionPolicy::Clock
        );
        assert_eq!(
            "SIEVE".parse::<EvictionPolicy>().unwrap(),
            EvictionPolicy::Sieve
        );
        assert!("fifo".parse::<EvictionPolicy>().is_err());
    }
}
