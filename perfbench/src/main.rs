//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <query_mix|cloudkit_tenants|paged_lookup>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the library's public API and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It exits non-zero
//! when an output, durability or steady-state check fails.
//!
//! Each run works in two processes. A child process seeds the database
//! (several times, to time set-up), warms up, measures, writes what it
//! measured and the acknowledged end state of every store to a file, then
//! exits without shutting the engine down. On the paged engine the parent
//! then reopens the engine directory, times recovery, and checks every
//! acknowledged write and delete against the recovered database.
//! `WORKLOADS.md` states the inputs of each workload.

mod checks;
mod clock;
mod cloudkit_tenants;
mod driver;
mod items;
mod paged_lookup;
mod query_mix;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use rl_bench::json::Json;
use rl_fdb::{Database, DatabaseOptions, EngineKind, EvictionPolicy, PagedConfig};

use crate::checks::StoreLedger;
use crate::clock::now;
use crate::driver::{deal, run_clients, Client, Counters, Workload, CLASSES};
use crate::report::{median, DbDeltas, Traced, END_TO_END};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens of copies of the crashed directory; `recovery_s` is their median.
const RECOVERIES: usize = 3;
/// Slice length of the traced run, which alternates untraced and traced
/// slices so both see the same data and machine state.
const TRACE_SLICE: Duration = Duration::from_millis(500);
/// After the measured window, writes continue until the write-ahead log
/// holds between this many bytes and 64 KiB more past its last
/// checkpoint, so every run recovers the same amount of log.
const TAIL_BYTES: u64 = 512 << 10;
const TAIL_SLACK: u64 = 64 << 10;
const TAIL_TIMEOUT: Duration = Duration::from_secs(60);
/// Untimed operations before measuring, so the buffer pool and the MVCC
/// window reach their steady state.
const WARMUP: Duration = Duration::from_secs(2);
/// Where runs keep their engine directories, under the working directory.
const DATA_DIR: &str = ".bench_data";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    QueryMix,
    CloudkitTenants,
    PagedLookup,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "query_mix" => Some(Kind::QueryMix),
            "cloudkit_tenants" => Some(Kind::CloudkitTenants),
            "paged_lookup" => Some(Kind::PagedLookup),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::QueryMix => "query_mix",
            Kind::CloudkitTenants => "cloudkit_tenants",
            Kind::PagedLookup => "paged_lookup",
        }
    }

    fn clients(self) -> usize {
        match self {
            Kind::QueryMix => 1,
            Kind::CloudkitTenants | Kind::PagedLookup => 2,
        }
    }

    /// Buffer pool pages of the paged engine; `None` runs the in-memory
    /// engine.
    fn pool_pages(self) -> Option<usize> {
        match self {
            Kind::QueryMix => None,
            Kind::CloudkitTenants => Some(cloudkit_tenants::POOL_PAGES),
            Kind::PagedLookup => Some(paged_lookup::POOL_PAGES),
        }
    }

    fn build(self, db: &Database) -> Box<dyn Workload> {
        match self {
            Kind::QueryMix => Box::new(query_mix::QueryMix::new(db)),
            Kind::CloudkitTenants => Box::new(cloudkit_tenants::CloudkitTenants::new(db)),
            Kind::PagedLookup => Box::new(paged_lookup::PagedLookup::new(db)),
        }
    }

    fn open(self, path: &Path, remove_on_drop: bool) -> Database {
        let engine = match self.pool_pages() {
            None => EngineKind::InMemory,
            Some(pool_pages) => EngineKind::Paged(PagedConfig {
                path: path.to_path_buf(),
                pool_pages,
                eviction: EvictionPolicy::default(),
                remove_dir_on_drop: remove_on_drop,
            }),
        };
        Database::with_options(DatabaseOptions {
            engine,
            ..DatabaseOptions::default()
        })
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child process: the run directory.
    child: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let kind = get("workload")?;
    let args = Args {
        kind: Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        child: flags.get("child").map(PathBuf::from),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.child {
        Some(dir) => {
            if let Err(e) = child(&args, dir) {
                eprintln!("perfbench child: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => parent(&args),
    }
}

// ------------------------------------------------------------------ child

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn set_tracing(clients: &mut [Client], on: bool) {
    rl_obs::set_enabled(on);
    for c in clients {
        c.tr.set_on(on);
    }
}

fn db_counters(db: &Database) -> DbDeltas {
    let m = db.metrics().snapshot();
    DbDeltas {
        grv_calls: db.grv_call_count(),
        page_hits: m.page_hits,
        page_misses: m.page_misses,
        page_evictions: m.page_evictions,
        page_flushes: m.page_flushes,
        wal_appends: m.log_appends,
    }
}

fn delta(a: DbDeltas, b: DbDeltas) -> DbDeltas {
    DbDeltas {
        grv_calls: b.grv_calls - a.grv_calls,
        page_hits: b.page_hits - a.page_hits,
        page_misses: b.page_misses - a.page_misses,
        page_evictions: b.page_evictions - a.page_evictions,
        page_flushes: b.page_flushes - a.page_flushes,
        wal_appends: b.wal_appends - a.wal_appends,
    }
}

/// Seed, warm up, measure, end with a fixed write-ahead-log tail, record
/// the outcome in `dir/result.json`, and exit without the engine's
/// shutdown checkpoint.
fn child(args: &Args, dir: &Path) -> Result<(), String> {
    rl_obs::set_enabled(false);
    let kind = args.kind;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let last = k + 1 == SETUPS;
        let path = if last {
            dir.join("db")
        } else {
            dir.join(format!("setup{k}"))
        };
        let start = now();
        let db = kind.open(&path, !last);
        let w = kind.build(&db);
        let seeded = w
            .populate(args.seed)
            .map_err(|e| format!("populate: {e:?}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if last {
            kept = Some((db, w, seeded));
        }
    }
    let (db, w, seeded) = kept.expect("at least one set-up");
    let seeded_counts: Vec<i64> = seeded.iter().map(|s| s.len() as i64).collect();
    let mut clients: Vec<Client> = (0..kind.clients())
        .map(|i| Client::new(i, args.seed, w.stores()))
        .collect();
    deal(&mut clients, seeded);

    let never = || false;
    clients = run_clients(&*w, &db, clients, now() + WARMUP, false, &never);

    let live_start = db.live_key_count();
    let before = db_counters(&db);
    for c in &mut clients {
        c.recording = true;
    }
    let measure = Duration::from_secs(args.seconds);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    if args.trace {
        rl_obs::Recorder::global().reset();
        let mut on = false;
        while untraced + traced < measure {
            set_tracing(&mut clients, on);
            let start = now();
            clients = run_clients(&*w, &db, clients, start + TRACE_SLICE, false, &never);
            *(if on { &mut traced } else { &mut untraced }) += start.elapsed();
            on = !on;
        }
        set_tracing(&mut clients, false);
    } else {
        let start = now();
        clients = run_clients(&*w, &db, clients, start + measure, false, &never);
        untraced = start.elapsed();
    }
    for c in &mut clients {
        c.recording = false;
    }
    let counters = delta(before, db_counters(&db));
    let live_end = db.live_key_count();
    let rss = peak_rss_mb();

    if kind.pool_pages().is_some() {
        let wal = dir.join("db").join("wal.log");
        let tail_reached = || (TAIL_BYTES..TAIL_BYTES + TAIL_SLACK).contains(&file_len(&wal));
        clients = run_clients(&*w, &db, clients, now() + TAIL_TIMEOUT, true, &tail_reached);
        if !tail_reached() {
            eprintln!(
                "perfbench: the log tail is {} bytes, not {TAIL_BYTES}",
                file_len(&wal)
            );
        }
    }

    let mut failures: Vec<String> = clients.iter().flat_map(|c| c.failures.clone()).collect();
    if let Err(e) = checks::steady(live_start, live_end) {
        failures.push(format!("steady state: {e}"));
    }
    let ledger = ledger(&clients, &seeded_counts);
    failures.extend(checks::ledger(
        &ledger,
        |s, id| record_layer::run(&db, |tx| w.marker(tx, s, id)).map_err(|e| format!("{e:?}")),
        |s| record_layer::run(&db, |tx| w.count(tx, s)).map_err(|e| format!("{e:?}")),
    ));

    let mut all = Counters::default();
    let mut in_traced = Counters::default();
    for c in &clients {
        all.add(&c.all);
        in_traced.add(&c.traced);
    }
    let mut out = Json::obj()
        .with(
            "failures",
            failures.into_iter().map(Json::from).collect::<Vec<_>>(),
        )
        .with(
            "errors",
            clients
                .iter()
                .flat_map(|c| c.errors.clone())
                .map(Json::from)
                .collect::<Vec<_>>(),
        )
        .with("attempted", all.ops + all.failed)
        .with("failed", all.failed)
        .with(
            "user_bytes",
            clients
                .iter()
                .flat_map(|c| &c.stores)
                .flat_map(|o| o.recs.values())
                .map(|r| r.bytes)
                .sum::<u64>(),
        )
        .with("ledger", ledger_json(&ledger))
        .with("clock_ms", db.clock_ms())
        .with("last_commit_version", db.last_commit_version());
    let latency = CLASSES.map(|class| {
        let lat = clients
            .iter()
            .flat_map(|c| c.latency_ns[class as usize].iter().copied());
        lat.collect::<Vec<u64>>()
    });
    if args.trace {
        for (class, lat) in CLASSES.iter().zip(&latency) {
            if let Err(e) = checks::samples(class.name(), lat.len(), report::TAIL_QUANTILE) {
                eprintln!("perfbench: {e}");
            }
        }
        let untraced_ops = (all.ops - in_traced.ops) as f64 / untraced.as_secs_f64();
        let traced_ops = in_traced.ops as f64 / traced.as_secs_f64();
        let mut spans = BTreeMap::new();
        let mut tsv = String::new();
        for c in clients {
            let id = c.id;
            let client_spans = c.tr.into_spans();
            tsv.push_str(&trace::to_tsv(id, &client_spans));
            for (name, t) in trace::aggregate(&client_spans) {
                let e: &mut trace::SpanTotals = spans.entry(name).or_default();
                e.calls += t.calls;
                e.total_ns += t.total_ns;
                e.self_ns += t.self_ns;
                e.durations_ns.extend(t.durations_ns);
            }
        }
        let trace_file = dir
            .parent()
            .unwrap_or(dir)
            .join(format!("trace-{}.tsv", kind.name()));
        std::fs::write(&trace_file, tsv)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        let recorder_mean_us = rl_obs::Recorder::global()
            .snapshot()
            .into_iter()
            .map(|(name, h)| (name.to_string(), h.mean()))
            .collect();
        let values = report::layer_values(&Traced {
            spans: &spans,
            all: &all,
            traced: &in_traced,
            db: counters,
            live_keys: (live_start, live_end),
            untraced_ops_s: untraced_ops,
            traced_ops_s: traced_ops,
            recorder_mean_us: &recorder_mean_us,
            latency_ns: &latency,
        });
        out.set(
            "metrics",
            Json::Obj(
                values
                    .into_iter()
                    .map(|(n, v)| (n, Json::from(v)))
                    .collect(),
            ),
        );
    } else {
        let throughput = all.ops as f64 / untraced.as_secs_f64();
        let values = report::end_to_end_values(throughput, median(&setup_s), rss, &latency);
        let metrics = Json::Obj(
            values
                .into_iter()
                .map(|(n, v)| (n, Json::from(v)))
                .collect(),
        );
        out.set("metrics", metrics);
    }
    let result = dir.join("result.json");
    std::fs::write(&result, out.to_pretty())
        .map_err(|e| format!("write {}: {e}", result.display()))?;
    // End like a killed process: no destructor runs, so the engine never
    // writes its shutdown checkpoint and the parent must recover the log.
    std::mem::forget(w);
    std::mem::forget(db);
    Ok(())
}

fn ledger(clients: &[Client], seeded: &[i64]) -> Vec<StoreLedger> {
    seeded
        .iter()
        .enumerate()
        .map(|(s, &n)| {
            let mut l = StoreLedger {
                expect_count: n,
                ..StoreLedger::default()
            };
            for c in clients {
                let o = &c.stores[s];
                l.expect_count += o.inserts as i64 - o.deletes as i64;
                l.written
                    .extend(o.written.iter().map(|id| (*id, o.recs[id].marker)));
                l.deleted.extend(o.deleted.iter().copied());
            }
            l
        })
        .collect()
}

fn ledger_json(ledger: &[StoreLedger]) -> Json {
    let nums = |v: Vec<i64>| Json::from(v.into_iter().map(Json::from).collect::<Vec<_>>());
    Json::from(
        ledger
            .iter()
            .map(|l| {
                Json::obj()
                    .with("expect_count", l.expect_count)
                    .with(
                        "written",
                        nums(l.written.iter().flat_map(|&(id, m)| [id, m]).collect()),
                    )
                    .with("deleted", nums(l.deleted.clone()))
            })
            .collect::<Vec<_>>(),
    )
}

fn ledger_from_json(json: &Json) -> Option<Vec<StoreLedger>> {
    let nums = |j: &Json| -> Option<Vec<i64>> {
        j.as_array()?
            .iter()
            .map(|v| v.as_f64().map(|f| f as i64))
            .collect()
    };
    json.as_array()?
        .iter()
        .map(|l| {
            let written = nums(l.get("written")?)?;
            Some(StoreLedger {
                expect_count: l.get("expect_count")?.as_f64()? as i64,
                written: written.chunks(2).map(|p| (p[0], p[1])).collect(),
                deleted: nums(l.get("deleted")?)?,
            })
        })
        .collect()
}

// ----------------------------------------------------------------- parent

/// A reopened database publishes read version 0 until its next commit,
/// and commit versions follow the logical clock, so data recovered from
/// disk stays invisible. Move the clock past the crashed run's last
/// version and commit once, as the crashed run's clients would have.
fn restore_versions(db: &Database, last_version: u64) -> Result<(), String> {
    db.advance_clock(last_version / rl_fdb::database::VERSIONS_PER_MS + 1);
    let tx = db.create_transaction();
    tx.set(b"perfbench/reopened", b"");
    tx.commit()
        .map_err(|e| format!("commit after reopening: {e:?}"))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn parent(args: &Args) -> ExitCode {
    let dir = PathBuf::from(DATA_DIR).join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| run_and_recover(args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the child, then recover its engine directory and check it.
/// Returns the result line and whether every check passed.
fn run_and_recover(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--child")
        .arg(dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn the workload process: {e}"))?;
    if !status.success() {
        return Err(format!("the workload process failed: {status}"));
    }
    let text = std::fs::read_to_string(dir.join("result.json"))
        .map_err(|e| format!("read the workload result: {e}"))?;
    let result = Json::parse(&text)?;
    let mut failures: Vec<String> = result
        .get("failures")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    let ledger = result
        .get("ledger")
        .and_then(ledger_from_json)
        .ok_or("malformed ledger")?;

    let mut recovery = Vec::new();
    if args.kind.pool_pages().is_some() {
        let db_dir = dir.join("db");
        let disk_bytes = file_len(&db_dir.join("pages.db")) + file_len(&db_dir.join("wal.log"));
        let user_bytes = result
            .get("user_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let last_version = result
            .get("last_commit_version")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let mut recovery_s = Vec::new();
        for r in 0..RECOVERIES {
            let copy = dir.join(format!("recovered{r}"));
            copy_dir(&db_dir, &copy).map_err(|e| format!("copy the engine directory: {e}"))?;
            let start = now();
            let db = args.kind.open(&copy, true);
            recovery_s.push(start.elapsed().as_secs_f64());
            if r == 0 {
                restore_versions(&db, last_version as u64)?;
                let w = args.kind.build(&db);
                failures.extend(checks::ledger(
                    &ledger,
                    |s, id| {
                        record_layer::run(&db, |tx| w.marker(tx, s, id))
                            .map_err(|e| format!("{e:?}"))
                    },
                    |s| record_layer::run(&db, |tx| w.count(tx, s)).map_err(|e| format!("{e:?}")),
                ));
            }
        }
        recovery.push(("recovery_s".to_string(), median(&recovery_s)));
        recovery.push((
            "disk_bytes_per_user_byte".to_string(),
            disk_bytes as f64 / user_bytes.max(1.0),
        ));
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no metrics")?;
    let mut values: Vec<(String, f64)> = metrics
        .iter()
        .map(|(n, v)| (n.clone(), v.as_f64().unwrap_or(0.0)))
        .collect();
    let units: Vec<(String, &str)> = if args.trace {
        for (name, value) in recovery {
            if let Some(slot) = values.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value;
            }
        }
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    values.sort_by_key(|(n, _)| units.iter().position(|(u, _)| u == n));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let correct = failures.is_empty();
    let line = report::result_line(
        correct,
        attempted,
        failed,
        report::metrics_json(&values, &units),
    );
    Ok((line, correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{end_to_end_values, layer_values, per_layer};

    fn bench_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(bench: &Json, key: &str, field: &str) -> Vec<String> {
        bench
            .get(key)
            .and_then(Json::as_array)
            .expect("a list")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let bench = bench_json();
        let names = listed(&bench, "workloads", "name");
        assert_eq!(names, ["query_mix", "cloudkit_tenants", "paged_lookup"]);
        assert!(names
            .iter()
            .all(|n| Kind::parse(n).is_some_and(|k| k.name() == n)));
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_with_its_unit() {
        let bench = bench_json();
        let emitted: Vec<String> = end_to_end_values(1.0, 1.0, 1.0, &Default::default())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let units: Vec<String> = emitted
            .iter()
            .map(|n| {
                END_TO_END
                    .iter()
                    .find(|(m, _)| m == n)
                    .expect("a unit")
                    .1
                    .to_string()
            })
            .collect();
        assert_eq!(listed(&bench, "end_to_end", "name"), emitted);
        assert_eq!(listed(&bench, "end_to_end", "unit"), units);
    }

    #[test]
    fn every_per_layer_metric_is_emitted_with_its_unit() {
        let bench = bench_json();
        let spans = BTreeMap::new();
        let recorder = BTreeMap::new();
        let counters = Counters::default();
        let emitted: Vec<String> = layer_values(&Traced {
            spans: &spans,
            all: &counters,
            traced: &counters,
            db: DbDeltas::default(),
            live_keys: (1, 1),
            untraced_ops_s: 1.0,
            traced_ops_s: 1.0,
            recorder_mean_us: &recorder,
            latency_ns: &Default::default(),
        })
        .into_iter()
        .map(|(n, _)| n)
        .collect();
        let (names, units): (Vec<String>, Vec<String>) = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .unzip();
        assert_eq!(emitted, names);
        assert_eq!(listed(&bench, "per_layer", "name"), names);
        assert_eq!(listed(&bench, "per_layer", "unit"), units);
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = args("--workload paged_lookup --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (ok.kind, ok.seed, ok.seconds, ok.trace),
            (Kind::PagedLookup, 7, 3, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 3 --trace 0").is_err());
        assert!(args("--workload query_mix --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload query_mix --seed 7 --seconds 3 --trace 2").is_err());
        assert!(args("--workload query_mix --seed 7 --seconds 3").is_err());
    }
}
