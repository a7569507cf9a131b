//! The closed-loop client driver shared by every workload.
//!
//! Each client is a thread that runs one operation after another with no
//! think time. A client owns the records it loads, updates and deletes,
//! so every check on a read can be exact, and it advances the database's
//! logical clock by a fixed virtual time after each operation.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use rl_bench::rng::{Rng, XorShift64};
use rl_bench::{derive_seed, Zipf};
use rl_fdb::transaction::TxnTrace;
use rl_fdb::{Database, Transaction};

use crate::clock::now;
use crate::trace::{Tracer, ROOT};

/// Attempts per operation before it counts as failed.
const MAX_ATTEMPTS: u32 = 10;
/// Logical time each completed operation advances the database clock by,
/// so MVCC history and conflict windows expire as the run goes on.
const VIRTUAL_MS_PER_OP: u64 = 5;
/// Operation ids of client `c` start at `c * OP_ID_STRIDE`.
const OP_ID_STRIDE: u64 = 1 << 40;
/// Ids a client gives the records it inserts start at
/// `(c + 1) * NEW_ID_STRIDE`, above every seeded id.
const NEW_ID_STRIDE: i64 = 1_000_000_000;

/// What kind of operation a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point reads: `load_record`, `CloudKit::load`.
    Read,
    /// Planner queries, rank lookups and `CloudKit::sync`.
    Query,
    /// Saves and deletes, commit and retries included.
    Write,
}

pub const CLASSES: [Class; 3] = [Class::Read, Class::Query, Class::Write];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Query => "query",
            Class::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The last acknowledged state of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Value of the record's marker field at its last acknowledged write.
    pub marker: i64,
    /// User payload bytes the record carries.
    pub bytes: u64,
}

/// The records of one store that one client owns.
#[derive(Debug, Default)]
pub struct Owned {
    pub live: Vec<i64>,
    pub recs: HashMap<i64, Rec>,
    pub seeded: usize,
    pub inserts: u64,
    pub deletes: u64,
    /// Live records written during the run.
    pub written: BTreeSet<i64>,
    /// Records deleted during the run.
    pub deleted: BTreeSet<i64>,
}

impl Owned {
    /// Index into `live` of a record to touch: Zipf-skewed when given a
    /// sampler (clamped to the live count), uniform otherwise.
    pub fn pick(&self, rng: &mut XorShift64, zipf: Option<&Zipf>) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        Some(match zipf {
            Some(z) => (z.sample(rng) - 1).min(self.live.len() - 1),
            None => rng.gen_range(0..self.live.len()),
        })
    }

    pub fn put(&mut self, id: i64, rec: Rec, inserted: bool) {
        if inserted {
            self.live.push(id);
            self.inserts += 1;
        }
        self.recs.insert(id, rec);
        self.written.insert(id);
    }

    pub fn remove_at(&mut self, idx: usize) -> i64 {
        let id = self.live.swap_remove(idx);
        self.recs.remove(&id);
        self.written.remove(&id);
        self.deleted.insert(id);
        self.deletes += 1;
        id
    }

    /// Whether the next insert-or-delete should insert, keeping the
    /// client's share of the store at its seeded size.
    pub fn should_insert(&self) -> bool {
        self.live.len() <= self.seeded
    }
}

/// Counters one client keeps; the traced run keeps a second set that
/// only counts while tracing is on.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub ops: u64,
    pub failed: u64,
    pub attempts: u64,
    pub grv: u64,
    pub commits: u64,
    pub conflicts: u64,
    pub read_ops: u64,
    pub queries: u64,
    pub query_rows: u64,
    pub query_keys_read: u64,
    pub query_fetches: u64,
    pub writes: u64,
    pub write_keys_read: u64,
    pub write_keys_written: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.attempts += o.attempts;
        self.grv += o.grv;
        self.commits += o.commits;
        self.conflicts += o.conflicts;
        self.read_ops += o.read_ops;
        self.queries += o.queries;
        self.query_rows += o.query_rows;
        self.query_keys_read += o.query_keys_read;
        self.query_fetches += o.query_fetches;
        self.writes += o.writes;
        self.write_keys_read += o.write_keys_read;
        self.write_keys_written += o.write_keys_written;
    }
}

/// Outcome of one operation's transaction work.
pub struct Done {
    pub class: Class,
    /// Rows a query returned (0 for other classes).
    pub rows: u64,
    pub trace: TxnTrace,
}

/// Per-client sync position of one device (`cloudkit_tenants` only).
#[derive(Debug, Clone, Default)]
pub struct Device {
    pub token: cloudkit_sim::SyncToken,
    /// Packed ordering of the last change this device received.
    pub last: Option<Vec<u8>>,
}

/// One closed-loop client.
pub struct Client {
    pub id: usize,
    pub rng: XorShift64,
    pub stores: Vec<Owned>,
    pub devices: Vec<Device>,
    pub next_id: i64,
    pub next_marker: i64,
    pub tr: Tracer,
    /// Whether latencies and counters are being recorded.
    pub recording: bool,
    pub all: Counters,
    pub traced: Counters,
    /// Per class, the latency in ns of each operation run untraced.
    pub latency_ns: [Vec<u64>; 3],
    /// Failed output checks, each a one-line description.
    pub failures: Vec<String>,
    /// First errors that failed an operation, for diagnosis.
    pub errors: Vec<String>,
}

impl Client {
    pub fn new(id: usize, seed: u64, stores: usize) -> Client {
        Client {
            id,
            rng: XorShift64::seed_from_u64(derive_seed(seed, id as u64)),
            stores: (0..stores).map(|_| Owned::default()).collect(),
            devices: Vec::new(),
            next_id: (id as i64 + 1) * NEW_ID_STRIDE,
            next_marker: 1,
            tr: Tracer::new(id as u64 * OP_ID_STRIDE),
            recording: false,
            all: Counters::default(),
            traced: Counters::default(),
            latency_ns: Default::default(),
            failures: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn new_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn new_marker(&mut self) -> i64 {
        self.next_marker += 1;
        self.next_marker
    }

    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        } else {
            self.failures[19] = format!("… and more; last: {what}");
        }
    }

    /// Run `body` in a fresh transaction, committing it for writes, and
    /// retry retryable errors. Returns `None` once the operation has
    /// failed for good.
    pub fn transact<T>(
        &mut self,
        db: &Database,
        class: Class,
        mut body: impl FnMut(&Transaction, &mut Tracer) -> record_layer::Result<T>,
    ) -> Option<(T, TxnTrace)> {
        let mut n = Counters::default();
        let mut out = None;
        for attempt in 1..=MAX_ATTEMPTS {
            n.attempts += 1;
            n.grv += 1;
            let tx = self.tr.span("fdb.grv", |_| db.create_transaction());
            let result = body(&tx, &mut self.tr).and_then(|value| {
                if class == Class::Write {
                    n.commits += 1;
                    self.tr.span("fdb.commit", |_| tx.commit())?;
                }
                Ok(value)
            });
            match result {
                Ok(value) => {
                    out = Some((value, tx.trace()));
                    break;
                }
                Err(e) => {
                    if matches!(e, record_layer::Error::Fdb(rl_fdb::Error::NotCommitted)) {
                        n.conflicts += 1;
                    }
                    if !(e.is_retryable() && attempt < MAX_ATTEMPTS) {
                        if self.errors.len() < 5 {
                            self.errors.push(format!("{e:?}"));
                        }
                        break;
                    }
                }
            }
        }
        self.count(&n);
        out
    }

    fn count(&mut self, n: &Counters) {
        if !self.recording {
            return;
        }
        self.all.add(n);
        if self.tr.is_on() {
            self.traced.add(n);
        }
    }

    fn finish(&mut self, done: Option<Done>, elapsed: Duration) {
        if !self.recording {
            return;
        }
        let mut n = Counters::default();
        match done {
            None => n.failed = 1,
            Some(d) => {
                n.ops = 1;
                n.read_ops = d.trace.read_ops;
                match d.class {
                    Class::Query => {
                        n.queries = 1;
                        n.query_rows = d.rows;
                        n.query_keys_read = d.trace.keys_read;
                        n.query_fetches = d.trace.record_fetches;
                    }
                    Class::Write => {
                        n.writes = 1;
                        n.write_keys_read = d.trace.keys_read;
                        n.write_keys_written = d.trace.keys_written;
                    }
                    Class::Read => {}
                }
                if !self.tr.is_on() {
                    self.latency_ns[d.class.index()].push(elapsed.as_nanos() as u64);
                }
            }
        }
        self.count(&n);
    }
}

/// What the workloads implement: seed a database, then run operations.
pub trait Workload: Sync {
    fn stores(&self) -> usize;
    /// Seed a fresh database. Returns each store's records, in id order.
    fn populate(&self, seed: u64) -> record_layer::Result<Vec<Vec<(i64, Rec)>>>;
    /// Run one operation. With `writes_only`, run only writes.
    fn op(&self, c: &mut Client, writes_only: bool) -> Option<Done>;
    /// The marker of a record, or `None` when it does not exist.
    fn marker(&self, tx: &Transaction, store: usize, id: i64) -> record_layer::Result<Option<i64>>;
    /// The record count of a store, read from its COUNT index.
    fn count(&self, tx: &Transaction, store: usize) -> record_layer::Result<i64>;
}

/// Hand each store's seeded records to the clients, round robin.
pub fn deal(clients: &mut [Client], seeded: Vec<Vec<(i64, Rec)>>) {
    let n = clients.len();
    for (s, records) in seeded.into_iter().enumerate() {
        for (i, (id, rec)) in records.into_iter().enumerate() {
            let owned = &mut clients[i % n].stores[s];
            owned.live.push(id);
            owned.recs.insert(id, rec);
            owned.seeded += 1;
        }
    }
}

/// Run every client until `deadline` or until `stop` says so (checked
/// after each operation), one thread per client.
pub fn run_clients(
    w: &dyn Workload,
    db: &Database,
    clients: Vec<Client>,
    deadline: Instant,
    writes_only: bool,
    stop: &(dyn Fn() -> bool + Sync),
) -> Vec<Client> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                scope.spawn(move || {
                    while now() < deadline && !stop() {
                        let start = now();
                        let root = c.tr.open(ROOT);
                        let done = w.op(&mut c, writes_only);
                        c.tr.close(root);
                        c.finish(done, start.elapsed());
                        db.advance_clock(VIRTUAL_MS_PER_OP);
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
