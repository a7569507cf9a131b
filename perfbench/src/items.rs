//! The `Item` record stores shared by `query_mix` and `paged_lookup`:
//! schema, seeding, and the operations with their spans and checks.

use record_layer::cursor::{Continuation, ExecuteProperties};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner};
use record_layer::query::RecordQuery;
use record_layer::store::RecordStore;
use record_layer::Result;
use rl_bench::rng::{Rng, XorShift64};
use rl_bench::{derive_seed, Zipf};
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, Subspace, Transaction};
use rl_message::{DynamicMessage, Value};

use crate::checks;
use crate::driver::{Class, Client, Done, Rec};
use crate::trace::Tracer;

/// Records seeded per transaction.
const SEED_BATCH: usize = 100;
pub const GROUPS: i64 = 20;
/// Row limit of every query.
const ROW_LIMIT: usize = 20;

/// Which indexes an `Item` store maintains.
#[derive(Debug, Clone, Copy)]
pub enum IndexSet {
    /// VALUE (`by_group`, `by_score`, `by_group_score`), ATOMIC
    /// (`score_sum`, `item_count`), RANK (`score_rank`) and VERSION
    /// (`by_version`, with stored record versions).
    Full,
    /// `by_score` and `item_count` only.
    Lookup,
}

fn metadata(set: IndexSet) -> RecordMetaData {
    let mut b = RecordMetaDataBuilder::new(rl_bench::experiment_pool())
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_score", KeyExpression::field("score")),
        )
        .index("Item", Index::count("item_count", KeyExpression::Empty));
    if let IndexSet::Full = set {
        b = b
            .store_record_versions(true)
            .index(
                "Item",
                Index::value("by_group", KeyExpression::field("group")),
            )
            .index(
                "Item",
                Index::value(
                    "by_group_score",
                    KeyExpression::concat_fields("group", "score"),
                ),
            )
            .index(
                "Item",
                Index::sum(
                    "score_sum",
                    KeyExpression::field("group"),
                    KeyExpression::field("score"),
                ),
            )
            .index(
                "Item",
                Index::rank("score_rank", KeyExpression::field("score")),
            )
            .index(
                "Item",
                Index::version("by_version", KeyExpression::field("id")),
            );
    }
    b.build().expect("item metadata is valid")
}

pub fn group(id: i64) -> String {
    format!("g{}", id.rem_euclid(GROUPS))
}

fn marker_body(marker: i64) -> String {
    format!("m{marker}")
}

/// The marker a stored `Item` carries in its body.
fn marker_of(msg: &DynamicMessage) -> Option<i64> {
    msg.get("body")?.as_str()?.strip_prefix('m')?.parse().ok()
}

pub fn field_i64(msg: &DynamicMessage, name: &str) -> Option<i64> {
    msg.get(name).and_then(Value::as_i64)
}

pub fn field_str<'m>(msg: &'m DynamicMessage, name: &str) -> Option<&'m str> {
    msg.get(name).and_then(Value::as_str)
}

/// The fields of one `Item` write.
struct Item {
    id: i64,
    score: i64,
    marker: i64,
    payload_len: usize,
}

impl Item {
    fn rec(&self) -> Rec {
        // User payload bytes: every field the benchmark sets.
        let bytes = 16 + group(self.id).len() + marker_body(self.marker).len() + self.payload_len;
        Rec {
            marker: self.marker,
            bytes: bytes as u64,
        }
    }

    fn save(&self, tr: &mut Tracer, store: &RecordStore<'_>) -> Result<()> {
        let mut msg = store.new_record("Item")?;
        msg.set("id", self.id)?;
        msg.set("group", group(self.id))?;
        msg.set("score", self.score)?;
        msg.set("body", marker_body(self.marker))?;
        msg.set("payload", vec![self.id as u8; self.payload_len])?;
        tr.span("store.save", |_| store.save_record(msg))?;
        Ok(())
    }
}

/// How a query reaches its plan.
pub enum Query {
    Planned(RecordQuery),
    /// A hand-built plan, for shapes the cost-based planner would not
    /// choose.
    Direct(RecordQueryPlan),
}

/// A workload's `Item` stores: one subspace per store, all sharing their
/// leading key bytes as stores in one tenant directory would.
pub struct ItemStores {
    db: Database,
    md: RecordMetaData,
    subs: Vec<Subspace>,
    scores: i64,
    payload_len: usize,
}

impl ItemStores {
    pub fn new(
        db: &Database,
        workload: &str,
        stores: usize,
        set: IndexSet,
        scores: i64,
        payload_len: usize,
    ) -> ItemStores {
        ItemStores {
            db: db.clone(),
            md: metadata(set),
            subs: (0..stores)
                .map(|t| {
                    Subspace::from_tuple(&Tuple::new().push("pb").push(workload).push(t as i64))
                })
                .collect(),
            scores,
            payload_len,
        }
    }

    pub fn stores(&self) -> usize {
        self.subs.len()
    }

    fn open<'a>(
        &'a self,
        tr: &mut Tracer,
        tx: &'a Transaction,
        t: usize,
    ) -> Result<RecordStore<'a>> {
        tr.span("store.open", |_| {
            RecordStore::open_or_create(tx, &self.subs[t], &self.md)
        })
    }

    fn item(&self, rng: &mut XorShift64, id: i64, marker: i64) -> Item {
        let score = rng.gen_range(0..self.scores as u64) as i64;
        Item {
            id,
            score,
            marker,
            payload_len: self.payload_len,
        }
    }

    /// Seed `records` items per store, each store from its own stream of
    /// `seed`. Returns each store's records in id order.
    pub fn populate(&self, records: usize, seed: u64) -> Result<Vec<Vec<(i64, Rec)>>> {
        (0..self.subs.len())
            .map(|t| {
                let mut rng = XorShift64::seed_from_u64(derive_seed(seed, t as u64));
                let items: Vec<Item> = (0..records as i64)
                    .map(|id| self.item(&mut rng, id, 0))
                    .collect();
                for chunk in items.chunks(SEED_BATCH) {
                    record_layer::run(&self.db, |tx| {
                        let mut tr = Tracer::default();
                        let store = self.open(&mut tr, tx, t)?;
                        chunk.iter().try_for_each(|item| item.save(&mut tr, &store))
                    })?;
                }
                Ok(items.iter().map(|i| (i.id, i.rec())).collect())
            })
            .collect()
    }

    /// Load a live record the client owns and check its marker.
    pub fn load_op(&self, c: &mut Client, t: usize, zipf: &Zipf) -> Option<Done> {
        let idx = c.stores[t].pick(&mut c.rng, Some(zipf))?;
        let id = c.stores[t].live[idx];
        let expect = c.stores[t].recs[&id].marker;
        let (rec, trace) = c.transact(&self.db, Class::Read, |tx, tr| {
            let store = self.open(tr, tx, t)?;
            tr.span("store.load", |_| store.load_record(&Tuple::new().push(id)))
        })?;
        let got = rec.map(|r| marker_of(&r.message));
        if let Err(e) = checks::marker(&format!("load of item {id}"), got, expect) {
            c.fail(e);
        }
        Some(Done {
            class: Class::Read,
            rows: 0,
            trace,
        })
    }

    /// Update the live record at `idx` of the client's list, or insert a
    /// new one when `idx` is `None`, with a fresh score and marker.
    pub fn save_op(&self, c: &mut Client, t: usize, idx: Option<usize>) -> Option<Done> {
        let id = match idx {
            Some(i) => c.stores[t].live[i],
            None => c.new_id(),
        };
        let marker = c.new_marker();
        let item = self.item(&mut c.rng, id, marker);
        let ((), trace) = c.transact(&self.db, Class::Write, |tx, tr| {
            let store = self.open(tr, tx, t)?;
            item.save(tr, &store)
        })?;
        c.stores[t].put(id, item.rec(), idx.is_none());
        Some(Done {
            class: Class::Write,
            rows: 0,
            trace,
        })
    }

    /// Delete a live record the client owns.
    pub fn delete_op(&self, c: &mut Client, t: usize, zipf: &Zipf) -> Option<Done> {
        let idx = c.stores[t].pick(&mut c.rng, Some(zipf))?;
        let id = c.stores[t].live[idx];
        let (existed, trace) = c.transact(&self.db, Class::Write, |tx, tr| {
            let store = self.open(tr, tx, t)?;
            tr.span("store.delete", |_| {
                store.delete_record(&Tuple::new().push(id))
            })
        })?;
        if !existed {
            c.fail(format!("delete of live item {id} found nothing"));
        }
        c.stores[t].remove_at(idx);
        Some(Done {
            class: Class::Write,
            rows: 0,
            trace,
        })
    }

    /// Run a query with the row limit and check every row against the
    /// query's predicate.
    pub fn query_op(
        &self,
        c: &mut Client,
        t: usize,
        query: Query,
        what: &str,
        matches: impl Fn(&DynamicMessage) -> bool,
    ) -> Option<Done> {
        let props = ExecuteProperties::new().with_return_limit(ROW_LIMIT);
        let (rows, trace) = c.transact(&self.db, Class::Query, |tx, tr| {
            let store = self.open(tr, tx, t)?;
            let planned;
            let plan = match &query {
                Query::Planned(q) => {
                    planned =
                        tr.span("plan.plan", |_| RecordQueryPlanner::new(&self.md).plan(q))?;
                    &planned
                }
                Query::Direct(p) => p,
            };
            tr.span("cursor.execute", |_| {
                let mut cursor = plan.execute(&store, &Continuation::Start, &props)?;
                Ok(cursor.collect_remaining_boxed()?.0)
            })
        })?;
        if let Err(e) = checks::rows(what, &rows, ROW_LIMIT, |r| matches(&r.message)) {
            c.fail(e);
        }
        Some(Done {
            class: Class::Query,
            rows: rows.len() as u64,
            trace,
        })
    }

    /// Look up the entry at `rank` of the RANK index.
    pub fn rank_op(&self, c: &mut Client, t: usize) -> Option<Done> {
        let live = c.stores[t].live.len();
        let rank = c.rng.gen_range(0..live as u64) as i64;
        let (entry, trace) = c.transact(&self.db, Class::Query, |tx, tr| {
            let store = self.open(tr, tx, t)?;
            tr.span("index.rank", |_| store.entry_at_rank("score_rank", rank))
        })?;
        if entry.is_none() {
            c.fail(format!("rank {rank} of {live} live items returned nothing"));
        }
        Some(Done {
            class: Class::Query,
            rows: u64::from(entry.is_some()),
            trace,
        })
    }

    /// The marker of record `id`, or `None` when it does not exist.
    pub fn marker(&self, tx: &Transaction, t: usize, id: i64) -> Result<Option<i64>> {
        let store = RecordStore::open_or_create(tx, &self.subs[t], &self.md)?;
        Ok(store
            .load_record(&Tuple::new().push(id))?
            .map(|r| marker_of(&r.message).unwrap_or(-1)))
    }

    /// The record count of a store, from its COUNT index.
    pub fn count(&self, tx: &Transaction, t: usize) -> Result<i64> {
        let store = RecordStore::open_or_create(tx, &self.subs[t], &self.md)?;
        Ok(store
            .evaluate_aggregate("item_count", &Tuple::new())?
            .as_long()
            .unwrap_or(0))
    }
}
