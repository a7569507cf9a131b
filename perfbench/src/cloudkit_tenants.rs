//! `cloudkit_tenants`: hundreds of (user, application) stores created
//! through `cloudkit_sim::CloudKit`, with heavy-tailed sizes and
//! Zipf-chosen users; two clients save, delete, load and sync.
//!
//! Keys use `CloudKit::store_subspace` unchanged: every store starts
//! with `"ck"`, so all tenants share one conflict shard.

use cloudkit_sim::{CloudKit, CloudKitConfig, RecordData};
use record_layer::store::StoredRecord;
use rl_bench::rng::{Distribution, Rng, XorShift64};
use rl_bench::{LogNormal, Zipf};
use rl_fdb::{Database, Transaction};

use crate::checks;
use crate::driver::{Class, Client, Device, Done, Rec, Workload};

const USERS: usize = 100;
const APPS: [&str; 2] = ["notes", "photos"];
const STORES: usize = USERS * APPS.len();
/// Log-normal record counts per store (median e^3 ≈ 20), clamped.
const COUNT_MU: f64 = 3.0;
const COUNT_SIGMA: f64 = 1.5;
const COUNT_MAX: f64 = 2_000.0;
/// Seed of the store-size stream.
const SIZE_STREAM: u64 = 0x5EED_5123;
const ZONE: &str = "_defaultZone";
const FIELD_LEN: usize = 200;
const SYNC_LIMIT: usize = 10;
/// Sync devices per store per client.
const DEVICES: usize = 2;
/// Buffer pool in 4 KiB pages: holds the whole data set.
pub const POOL_PAGES: usize = 16_384;
/// Records saved per seeding transaction.
const SEED_BATCH: usize = 50;

pub struct CloudkitTenants {
    ck: CloudKit,
    user_zipf: Zipf,
}

fn name(id: i64) -> String {
    format!("r{id}")
}

fn user_app(store: usize) -> (i64, &'static str) {
    ((store / APPS.len()) as i64, APPS[store % APPS.len()])
}

fn record(id: i64, marker: i64) -> (RecordData, Rec) {
    let data = RecordData::new(ZONE, name(id))
        .string_field("field0", "f".repeat(FIELD_LEN))
        .int_field("num0", marker);
    let bytes = (ZONE.len() + name(id).len() + FIELD_LEN + 8) as u64;
    (data, Rec { marker, bytes })
}

fn marker_of(r: &StoredRecord) -> Option<i64> {
    r.message.get("num0").and_then(rl_message::Value::as_i64)
}

/// Per-store record counts: a heavy-tailed log-normal sample drawn from
/// a fixed stream, so every seed runs on the same store sizes and the
/// hottest users always have the same amount of data.
fn store_sizes() -> Vec<usize> {
    let dist = LogNormal {
        mu: COUNT_MU,
        sigma: COUNT_SIGMA,
    };
    let mut rng = XorShift64::seed_from_u64(SIZE_STREAM);
    (0..STORES)
        .map(|_| dist.sample(&mut rng).clamp(1.0, COUNT_MAX) as usize)
        .collect()
}

impl CloudkitTenants {
    pub fn new(db: &Database) -> CloudkitTenants {
        let config = CloudKitConfig {
            indexed_fields: vec![],
            quota_index: true,
        };
        CloudkitTenants {
            ck: CloudKit::new(db, &config),
            user_zipf: Zipf::new(USERS, 1.0),
        }
    }

    fn save(&self, c: &mut Client, s: usize, idx: Option<usize>) -> Option<Done> {
        let (user, app) = user_app(s);
        let id = match idx {
            Some(i) => c.stores[s].live[i],
            None => c.new_id(),
        };
        let (data, rec) = record(id, c.new_marker());
        let (_, trace) = c.transact(self.ck.database(), Class::Write, |tx, tr| {
            tr.span("cloudkit.save", |_| self.ck.save(tx, user, app, &data))
        })?;
        c.stores[s].put(id, rec, idx.is_none());
        Some(Done {
            class: Class::Write,
            rows: 0,
            trace,
        })
    }
}

impl Workload for CloudkitTenants {
    fn stores(&self) -> usize {
        STORES
    }

    fn populate(&self, _seed: u64) -> record_layer::Result<Vec<Vec<(i64, Rec)>>> {
        let mut out = Vec::with_capacity(STORES);
        for (s, size) in store_sizes().into_iter().enumerate() {
            let (user, app) = user_app(s);
            let records: Vec<(RecordData, Rec)> =
                (0..size as i64).map(|id| record(id, 0)).collect();
            for chunk in records.chunks(SEED_BATCH) {
                record_layer::run(self.ck.database(), |tx| {
                    for (data, _) in chunk {
                        self.ck.save(tx, user, app, data)?;
                    }
                    Ok(())
                })?;
            }
            out.push((0..).zip(records.into_iter().map(|(_, rec)| rec)).collect());
        }
        Ok(out)
    }

    fn op(&self, c: &mut Client, writes_only: bool) -> Option<Done> {
        let user = self.user_zipf.sample(&mut c.rng) - 1;
        let s = user * APPS.len() + c.rng.gen_range(0..APPS.len());
        let (user, app) = user_app(s);
        let roll = if writes_only {
            70
        } else {
            c.rng.gen_range(0..100u64)
        };
        match roll {
            // 30%: load a live record this client owns.
            0..=29 => {
                let Some(idx) = c.stores[s].pick(&mut c.rng, None) else {
                    return self.save(c, s, None);
                };
                let id = c.stores[s].live[idx];
                let expect = c.stores[s].recs[&id].marker;
                let (rec, trace) = c.transact(self.ck.database(), Class::Read, |tx, tr| {
                    tr.span("cloudkit.load", |_| {
                        self.ck.load(tx, user, app, ZONE, &name(id))
                    })
                })?;
                let got = rec.as_ref().map(marker_of);
                if let Err(e) = checks::marker(&format!("load of {user}/{app}/{id}"), got, expect) {
                    c.fail(e);
                }
                Some(Done {
                    class: Class::Read,
                    rows: 0,
                    trace,
                })
            }
            // 20%: incremental sync of one of this client's devices.
            30..=49 => {
                if c.devices.is_empty() {
                    c.devices = vec![Device::default(); STORES * DEVICES];
                }
                let d = s * DEVICES + c.rng.gen_range(0..DEVICES);
                let token = c.devices[d].token.clone();
                let ((changes, next), trace) =
                    c.transact(self.ck.database(), Class::Query, |tx, tr| {
                        tr.span("cloudkit.sync", |_| {
                            self.ck.sync(tx, user, app, ZONE, &token, SYNC_LIMIT)
                        })
                    })?;
                let what = format!("sync of {user}/{app}");
                if let Err(e) = checks::rows(&what, &changes, SYNC_LIMIT, |_| true) {
                    c.fail(e);
                }
                let last = c.devices[d].last.take();
                let last =
                    match checks::orderings(last, changes.iter().map(|ch| ch.ordering.pack())) {
                        Ok(last) => last,
                        Err(e) => {
                            c.fail(format!("{what}: {e}"));
                            None
                        }
                    };
                c.devices[d] = Device { token: next, last };
                Some(Done {
                    class: Class::Query,
                    rows: changes.len() as u64,
                    trace,
                })
            }
            // 20%: update a record this client owns.
            50..=69 => {
                let idx = c.stores[s].pick(&mut c.rng, None);
                self.save(c, s, idx)
            }
            // 30%: insert or delete, keeping the store at its seeded size.
            _ if c.stores[s].should_insert() => self.save(c, s, None),
            _ => {
                let idx = c.stores[s].pick(&mut c.rng, None)?;
                let id = c.stores[s].live[idx];
                let (existed, trace) = c.transact(self.ck.database(), Class::Write, |tx, tr| {
                    tr.span("cloudkit.delete", |_| {
                        self.ck.delete(tx, user, app, ZONE, &name(id))
                    })
                })?;
                if !existed {
                    c.fail(format!(
                        "delete of live record {user}/{app}/{id} found nothing"
                    ));
                }
                c.stores[s].remove_at(idx);
                Some(Done {
                    class: Class::Write,
                    rows: 0,
                    trace,
                })
            }
        }
    }

    fn marker(&self, tx: &Transaction, store: usize, id: i64) -> record_layer::Result<Option<i64>> {
        let (user, app) = user_app(store);
        Ok(self
            .ck
            .load(tx, user, app, ZONE, &name(id))?
            .map(|r| marker_of(&r).unwrap_or(-1)))
    }

    fn count(&self, tx: &Transaction, store: usize) -> record_layer::Result<i64> {
        let (user, app) = user_app(store);
        self.ck.zone_record_count(tx, user, app, ZONE)
    }
}
