//! The output checks. Each returns a description of what went wrong, so
//! the tests can feed them doctored outputs.

/// Live keys at the end of the measured window may differ from the start
/// by at most this share.
const STEADY_TOLERANCE: f64 = 0.05;

/// A point load of a record the client knows is live must return it with
/// the marker of its last acknowledged write.
pub fn marker(what: &str, got: Option<Option<i64>>, expect: i64) -> Result<(), String> {
    match got {
        Some(Some(m)) if m == expect => Ok(()),
        Some(m) => Err(format!("{what}: marker {m:?}, expected {expect}")),
        None => Err(format!("{what}: not found")),
    }
}

/// Query rows must satisfy the predicate and respect the limit.
pub fn rows<T: std::fmt::Debug>(
    what: &str,
    rows: &[T],
    limit: usize,
    matches: impl Fn(&T) -> bool,
) -> Result<(), String> {
    if rows.len() > limit {
        return Err(format!(
            "{what}: {} rows exceed the limit {limit}",
            rows.len()
        ));
    }
    match rows.iter().find(|r| !matches(r)) {
        Some(bad) => Err(format!("{what}: row {bad:?} fails the predicate")),
        None => Ok(()),
    }
}

/// A device's successive syncs must return strictly increasing orderings
/// (packed, so byte order is tuple order). Returns the new last ordering.
pub fn orderings(
    last: Option<Vec<u8>>,
    batch: impl IntoIterator<Item = Vec<u8>>,
) -> Result<Option<Vec<u8>>, String> {
    let mut last = last;
    for ordering in batch {
        if last.as_ref().is_some_and(|l| ordering <= *l) {
            return Err(format!(
                "sync ordering {ordering:?} does not follow {last:?}"
            ));
        }
        last = Some(ordering);
    }
    Ok(last)
}

/// The acknowledged end state of one store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreLedger {
    /// Seeded records plus acknowledged inserts minus acknowledged deletes.
    pub expect_count: i64,
    /// Records written during the run, with the marker of the last write.
    pub written: Vec<(i64, i64)>,
    /// Records deleted during the run.
    pub deleted: Vec<i64>,
}

/// Check a database against the ledger: every store's COUNT index, every
/// acknowledged write readable with its marker, every acknowledged delete
/// gone. `marker` and `count` read the database; an `Err` is a failed read.
pub fn ledger(
    stores: &[StoreLedger],
    marker: impl Fn(usize, i64) -> Result<Option<i64>, String>,
    count: impl Fn(usize) -> Result<i64, String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (s, l) in stores.iter().enumerate() {
        match count(s) {
            Ok(n) if n == l.expect_count => {}
            got => failures.push(format!(
                "store {s}: count {got:?}, expected {}",
                l.expect_count
            )),
        }
        for &(id, m) in &l.written {
            if let Err(e) = marker(s, id)
                .map(Some)
                .and_then(|got| self::marker("", got, m))
            {
                failures.push(format!("store {s}: acknowledged write of {id} lost{e}"));
            }
        }
        for &id in &l.deleted {
            match marker(s, id) {
                Ok(None) => {}
                got => failures.push(format!(
                    "store {s}: acknowledged delete of {id} reads {got:?}"
                )),
            }
        }
    }
    failures
}

/// The data set must stay the same size: inserts balance deletes.
pub fn steady(live_start: usize, live_end: usize) -> Result<(), String> {
    let ratio = live_end as f64 / live_start.max(1) as f64;
    if (ratio - 1.0).abs() > STEADY_TOLERANCE {
        return Err(format!("live keys went from {live_start} to {live_end}"));
    }
    Ok(())
}

/// A percentile needs at least ten samples beyond it.
pub fn samples(family: &str, n: usize, quantile: f64) -> Result<(), String> {
    let beyond = n as f64 * (1.0 - quantile);
    if beyond < 10.0 {
        return Err(format!(
            "{family}: {n} samples leave {beyond:.1} beyond p{:.0}; need 10",
            quantile * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_mismatch_and_missing_record_fail() {
        assert!(marker("load", Some(Some(7)), 7).is_ok());
        assert!(marker("load", Some(Some(6)), 7).is_err());
        assert!(marker("load", Some(None), 7).is_err());
        assert!(marker("load", None, 7).is_err());
    }

    #[test]
    fn rows_over_limit_or_off_predicate_fail() {
        let even = |x: &i64| x % 2 == 0;
        assert!(rows("q", &[2, 4], 2, even).is_ok());
        assert!(rows("q", &[2, 4, 6], 2, even).is_err());
        assert!(rows("q", &[2, 3], 2, even).is_err());
    }

    #[test]
    fn orderings_must_strictly_increase_across_calls() {
        let last = orderings(None, vec![vec![1], vec![2]]).unwrap();
        assert_eq!(last, Some(vec![2]));
        assert!(orderings(last.clone(), vec![vec![3]]).is_ok());
        assert!(orderings(last.clone(), vec![vec![2]]).is_err(), "repeat");
        assert!(orderings(last, vec![vec![1, 9]]).is_err(), "went back");
        assert!(
            orderings(None, vec![vec![5], vec![4]]).is_err(),
            "within a call"
        );
    }

    #[test]
    fn ledger_catches_lost_writes_resurrected_deletes_and_bad_counts() {
        let stores = vec![StoreLedger {
            expect_count: 2,
            written: vec![(1, 10)],
            deleted: vec![2],
        }];
        let good_marker = |_: usize, id: i64| Ok(if id == 1 { Some(10) } else { None });
        assert!(ledger(&stores, good_marker, |_| Ok(2)).is_empty());
        assert_eq!(ledger(&stores, good_marker, |_| Ok(3)).len(), 1, "count");
        let stale = |_: usize, id: i64| Ok(if id == 1 { Some(9) } else { None });
        assert_eq!(ledger(&stores, stale, |_| Ok(2)).len(), 1, "stale write");
        let lost = |_: usize, _: i64| Ok(None);
        assert_eq!(ledger(&stores, lost, |_| Ok(2)).len(), 1, "lost write");
        let undead = |_: usize, _: i64| Ok(Some(10));
        assert_eq!(
            ledger(&stores, undead, |_| Ok(2)).len(),
            1,
            "deleted record back"
        );
        let broken = |_: usize, _: i64| Err("io".to_string());
        assert_eq!(
            ledger(&stores, broken, |_| Err("io".into())).len(),
            3,
            "read errors"
        );
    }

    #[test]
    fn steady_state_tolerates_small_drift_only() {
        assert!(steady(1000, 1030).is_ok());
        assert!(steady(1000, 1100).is_err());
        assert!(steady(1000, 900).is_err());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(samples("read", 1000, 0.99).is_ok());
        assert!(samples("read", 999, 0.99).is_err());
    }
}
