//! `paged_lookup`: two clients doing Zipf point loads on a few large
//! stores whose data is several times the buffer pool, with a few updates
//! and secondary-index lookups. It isolates the paged engine's read path:
//! pool hits and misses, eviction, B-tree descent and the store lock.

use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use rl_bench::rng::Rng;
use rl_bench::Zipf;
use rl_fdb::{Database, Transaction};

use crate::driver::{Client, Done, Rec, Workload};
use crate::items::{field_i64, IndexSet, ItemStores, Query};

const STORES: usize = 4;
const RECORDS: usize = 2_500;
const PAYLOAD_LEN: usize = 1_000;
/// Buffer pool size in 4 KiB pages; the seeded data is many times larger.
pub const POOL_PAGES: usize = 512;
/// Distinct scores, so an equality lookup matches a handful of records.
const SCORES: i64 = 2_000;
/// Percent of operations that are updates and index lookups.
const UPDATE_PCT: u64 = 10;
const LOOKUP_PCT: u64 = 2;

pub struct PagedLookup {
    items: ItemStores,
    record_zipf: Zipf,
}

impl PagedLookup {
    pub fn new(db: &Database) -> PagedLookup {
        PagedLookup {
            items: ItemStores::new(
                db,
                "paged_lookup",
                STORES,
                IndexSet::Lookup,
                SCORES,
                PAYLOAD_LEN,
            ),
            record_zipf: Zipf::new(RECORDS, 0.99),
        }
    }
}

impl Workload for PagedLookup {
    fn stores(&self) -> usize {
        self.items.stores()
    }

    fn populate(&self, seed: u64) -> record_layer::Result<Vec<Vec<(i64, Rec)>>> {
        self.items.populate(RECORDS, seed)
    }

    fn op(&self, c: &mut Client, writes_only: bool) -> Option<Done> {
        let t = c.rng.gen_range(0..STORES);
        let roll = if writes_only {
            0
        } else {
            c.rng.gen_range(0..100u64)
        };
        if roll < UPDATE_PCT {
            let idx = c.stores[t].pick(&mut c.rng, Some(&self.record_zipf))?;
            return self.items.save_op(c, t, Some(idx));
        }
        if roll < UPDATE_PCT + LOOKUP_PCT {
            let score = c.rng.gen_range(0..SCORES as u64) as i64;
            let q = RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::field(
                    "score",
                    Comparison::Equals(score.into()),
                ));
            return self
                .items
                .query_op(c, t, Query::Planned(q), "score lookup", |m| {
                    field_i64(m, "score") == Some(score)
                });
        }
        self.items.load_op(c, t, &self.record_zipf)
    }

    fn marker(&self, tx: &Transaction, store: usize, id: i64) -> record_layer::Result<Option<i64>> {
        self.items.marker(tx, store, id)
    }

    fn count(&self, tx: &Transaction, store: usize) -> record_layer::Result<i64> {
        self.items.count(tx, store)
    }
}
