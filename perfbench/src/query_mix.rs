//! `query_mix`: one client, a few stores with the full index mix, mostly
//! index queries. Time goes to planning, cursors and range reads; one
//! client makes the operation stream repeat exactly for a seed.

use std::collections::BTreeSet;

use record_layer::plan::{RecordQueryPlan, ScanBounds};
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use record_layer::store::TupleRange;
use rl_bench::rng::{Rng, XorShift64};
use rl_bench::Zipf;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::{Database, Transaction};
use rl_message::DynamicMessage;

use crate::driver::{Client, Done, Rec, Workload};
use crate::items::{field_i64, field_str, group, IndexSet, ItemStores, Query, GROUPS};

const STORES: usize = 4;
const RECORDS: usize = 3000;
const SCORES: i64 = 1000;
const PAYLOAD_LEN: usize = 100;

#[derive(Debug, Clone, Copy)]
enum Op {
    Load,
    Range,
    Covering,
    Intersection,
    Union,
    In,
    Rank,
    Update,
    InsertOrDelete,
}

/// Operation mix, weights in percent: 35% point loads, 55% queries,
/// 10% writes.
const MIX: &[(Op, u32)] = &[
    (Op::Load, 35),
    (Op::Range, 12),
    (Op::Covering, 10),
    (Op::Intersection, 6),
    (Op::Union, 8),
    (Op::In, 8),
    (Op::Rank, 11),
    (Op::Update, 4),
    (Op::InsertOrDelete, 6),
];

pub struct QueryMix {
    items: ItemStores,
    store_zipf: Zipf,
    record_zipf: Zipf,
}

impl QueryMix {
    pub fn new(db: &Database) -> QueryMix {
        QueryMix {
            items: ItemStores::new(db, "query_mix", STORES, IndexSet::Full, SCORES, PAYLOAD_LEN),
            store_zipf: Zipf::new(STORES, 1.0),
            record_zipf: Zipf::new(RECORDS, 0.99),
        }
    }
}

fn pick_op(rng: &mut XorShift64) -> Op {
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0..total as u64) as u32;
    for &(op, w) in MIX {
        if x < w {
            return op;
        }
        x -= w;
    }
    unreachable!("weights cover the range")
}

fn group_is(msg: &DynamicMessage, allowed: &[String]) -> bool {
    field_str(msg, "group").is_some_and(|g| allowed.iter().any(|a| a == g))
}

impl Workload for QueryMix {
    fn stores(&self) -> usize {
        self.items.stores()
    }

    fn populate(&self, seed: u64) -> record_layer::Result<Vec<Vec<(i64, Rec)>>> {
        self.items.populate(RECORDS, seed)
    }

    fn op(&self, c: &mut Client, writes_only: bool) -> Option<Done> {
        let t = self.store_zipf.sample(&mut c.rng) - 1;
        let op = if writes_only {
            Op::InsertOrDelete
        } else {
            pick_op(&mut c.rng)
        };
        let g = c.rng.gen_range(0..GROUPS as u64) as i64;
        let groups = |n: i64| -> Vec<String> { (0..n).map(|i| group(g + i)).collect() };
        let items = &self.items;
        match op {
            Op::Load => items.load_op(c, t, &self.record_zipf),
            Op::Range | Op::Covering => {
                let min = c.rng.gen_range(0..SCORES as u64) as i64;
                let mut q = RecordQuery::new()
                    .record_type("Item")
                    .filter(QueryComponent::and(vec![
                        QueryComponent::field("group", Comparison::Equals(group(g).into())),
                        QueryComponent::field("score", Comparison::GreaterThanOrEquals(min.into())),
                    ]));
                if let Op::Covering = op {
                    q = q.require_fields(&["id", "group", "score"]);
                }
                let want = groups(1);
                items.query_op(c, t, Query::Planned(q), "range query", |m| {
                    group_is(m, &want) && field_i64(m, "score").is_some_and(|s| s >= min)
                })
            }
            Op::Intersection => {
                // Hand-built: the planner would fold the equality pair into
                // one `by_group_score` scan, and this shape wants the
                // intersection cursor.
                let score = c.rng.gen_range(0..SCORES as u64) as i64;
                let types: BTreeSet<String> = ["Item".to_string()].into_iter().collect();
                let eq = |index: &str, value: TupleElement| RecordQueryPlan::IndexScan {
                    index_name: index.to_string(),
                    bounds: ScanBounds::Range(TupleRange::prefix(Tuple::new().push(value))),
                    reverse: false,
                    record_types: Some(types.clone()),
                    residual: None,
                };
                let plan = RecordQueryPlan::Intersection {
                    children: vec![
                        eq("by_group", group(g).into()),
                        eq("by_score", score.into()),
                    ],
                };
                let want = groups(1);
                items.query_op(c, t, Query::Direct(plan), "intersection", |m| {
                    group_is(m, &want) && field_i64(m, "score") == Some(score)
                })
            }
            Op::Union => {
                let want = groups(2);
                let q = RecordQuery::new()
                    .record_type("Item")
                    .filter(QueryComponent::or(
                        want.iter()
                            .map(|g| {
                                QueryComponent::field(
                                    "group",
                                    Comparison::Equals(g.as_str().into()),
                                )
                            })
                            .collect(),
                    ));
                items.query_op(c, t, Query::Planned(q), "union", |m| group_is(m, &want))
            }
            Op::In => {
                let want = groups(3);
                let values = want.iter().map(|g| g.as_str().into()).collect();
                let q = RecordQuery::new()
                    .record_type("Item")
                    .filter(QueryComponent::field("group", Comparison::In(values)));
                items.query_op(c, t, Query::Planned(q), "IN query", |m| group_is(m, &want))
            }
            Op::Rank => items.rank_op(c, t),
            Op::Update => {
                let idx = c.stores[t].pick(&mut c.rng, Some(&self.record_zipf))?;
                items.save_op(c, t, Some(idx))
            }
            Op::InsertOrDelete if c.stores[t].should_insert() => items.save_op(c, t, None),
            Op::InsertOrDelete => items.delete_op(c, t, &self.record_zipf),
        }
    }

    fn marker(&self, tx: &Transaction, store: usize, id: i64) -> record_layer::Result<Option<i64>> {
        self.items.marker(tx, store, id)
    }

    fn count(&self, tx: &Transaction, store: usize) -> record_layer::Result<i64> {
        self.items.count(tx, store)
    }
}
