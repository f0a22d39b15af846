//! One benchmark run: world builds, the workload's measured phase, the
//! publish waves, cold-start recoveries, and the metrics.
//!
//! Every workload has the same shape, so every workload reports every
//! metric. The world is built, then the measured phase runs in rounds
//! (twenty by default), each carrying an equal share of the time and the
//! same multiset of publish-wave sizes:
//!
//! - `poll` and `fetch`: the closed loops read for the round's share of
//!   `--seconds`, then the round's waves run back to back with the fleet
//!   idle.
//! - `update`: the round's slice of the paced waves and of the paced
//!   fleet schedule runs, the operator and the fleet connection side by
//!   side.
//!
//! Between rounds, with the service idle, the remaining world builds of
//! `setup_s` run and copies of the store are cold-started for
//! `recovery_ms`; the last cold start is of the store itself once the
//! service is gone. Each recovered index must be byte-identical to the
//! last one served. Interference from other tenants of a shared host
//! comes and goes over seconds, so every metric samples the whole run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsr_bench::loadrun::scrape_server_metrics;
use tsr_stats::mean;
use tsr_store::{DirBackend, StoreEngine};
use tsr_wire::TsrClient;

use crate::args::{Options, Workload};
use crate::check::Ledger;
use crate::fleet::{closed_loop, paced_loop, Conn, ConnStats, Shared};
use crate::layers::{replay_serving, Replayer, ServeLayers};
use crate::operator::{run_waves, WaveStats};
use crate::plan::{self, OpKind, PlanShape, ReadOp, Wave};
use crate::stats::{median, ms, quantile};
use crate::trace::Tracer;
use crate::world::{self, World};

/// Bytes in a MiB.
const MIB: f64 = (1u64 << 20) as f64;

/// Timeout of the operator connection's calls.
const ADMIN_TIMEOUT: Duration = Duration::from_secs(120);

/// A metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
///
/// The fleet's median latency is not among them: on `poll` the closed
/// loops' `read_rps` carries it (two connections, each waiting for its
/// reply), and on `update` the paced connection idles between requests,
/// so its median is the wake-up time of idle vCPUs of the host, which
/// moved by half between runs of one build. It is printed with the run
/// record and enters the tracing overhead.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("read_rps", "1/s"),
    ("read_p99_us", "us"),
    ("read_mib_s", "MiB/s"),
    ("refresh_p50_ms", "ms"),
    ("refresh_p90_ms", "ms"),
    ("sanitize_pkgs_per_s", "pkg/s"),
    ("recovery_ms", "ms"),
];

/// The per-layer metrics of the traced run.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("http.transport_p50_us", "us"),
    ("http.queue_peak.serve", "count"),
    ("http.queue_peak.bulk", "count"),
    ("http.in_flight_peak", "count"),
    ("api.handle_us.health", "us"),
    ("api.handle_us.index_cond", "us"),
    ("api.handle_us.index", "us"),
    ("api.handle_us.page", "us"),
    ("api.handle_us.package", "us"),
    ("core.hot_hit_ratio", "ratio"),
    ("core.lock_free_304_ratio", "ratio"),
    ("wire.page_decode_us", "us"),
    ("quorum.index_read_ms", "ms"),
    ("quorum.download_ms", "ms"),
    ("quorum.index_read_sim_ms", "ms"),
    ("quorum.download_sim_ms", "ms"),
    ("core.universe_scan_ms", "ms"),
    ("core.original_check_ms", "ms"),
    ("core.refresh_unattributed_ms", "ms"),
    ("sanitize.pkg_ms_p50", "ms"),
    ("sanitize.check_ms", "ms"),
    ("sanitize.unpack_ms", "ms"),
    ("sanitize.scripts_ms", "ms"),
    ("sanitize.sign_files_ms", "ms"),
    ("sanitize.repack_ms", "ms"),
    ("sanitize.pkgs", "count"),
    ("sanitize.rejected", "count"),
    ("sanitize.files_signed", "count"),
    ("crypto.rsa_sign_ms", "ms"),
    ("crypto.rsa_keygen_ms", "ms"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("crypto.signs_per_wave", "count"),
    ("sgx.seal_us", "us"),
    ("tpm.increment_us", "us"),
    ("store.append_us", "us"),
    ("store.put_blob_us", "us"),
    ("store.open_ms", "ms"),
    ("store.wal_bytes_per_wave", "bytes"),
    ("store.blob_bytes_per_wave", "bytes"),
    ("store.fsyncs_per_wave", "count"),
    ("bench.fleet_late_p99_us", "us"),
    ("bench.wave_late_p99_ms", "ms"),
    ("trace.overhead.read_rps_pct", "%"),
    ("trace.overhead.read_p50_pct", "%"),
    ("trace.overhead.read_p99_pct", "%"),
    ("trace.overhead.refresh_p50_pct", "%"),
    ("trace.overhead.read_mib_s_pct", "%"),
];

/// Facts about the run's inputs, for the record.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// Digest of the generated inputs and the package population.
    pub digest: String,
    /// Upstream packages.
    pub packages: usize,
    /// Packages in the served index.
    pub served: usize,
    /// Upstream package bytes.
    pub package_bytes: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Metrics with units.
    pub metrics: Metrics,
    /// Input facts.
    pub inputs: Inputs,
    /// Generator lateness: fleet p99 µs, wave p99 ms.
    pub lateness: (f64, f64),
    /// Fleet read latency at p50, p90, p99 and p99.9, µs.
    pub read_quantiles_us: [f64; 4],
    /// Fleet reads completed per second and verified MiB per second.
    pub read_rates: (f64, f64),

    /// Where the spans were written (traced run).
    pub trace_file: Option<String>,
}

impl Outcome {
    fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(e);
        }
    }
}

/// Everything measured by one execution of the workload.
struct Measured {
    setup: Vec<f64>,
    fleet: ConnStats,
    /// Per round: reads per second, p50 µs, p99 µs, verified MiB per
    /// second.
    rounds: Vec<[f64; 4]>,
    waves: WaveStats,
    recovery_ms: Vec<f64>,
    open_ms: Vec<f64>,
    serve: Option<ServeLayers>,
    replay: Option<crate::layers::RefreshLayers>,
    scrape: BTreeMap<&'static str, f64>,
    hot: (f64, f64),
}

fn counters(admin: &TsrClient) -> BTreeMap<String, u64> {
    admin.metrics().map(|m| m.counters).unwrap_or_default()
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, name: &str) -> f64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// The saturation peaks of the end-of-run Prometheus scrape.
fn scrape(base: &str) -> Result<BTreeMap<&'static str, f64>, String> {
    let m = scrape_server_metrics(base)?;
    let queue = |class: &str| {
        m.queue_peaks
            .iter()
            .find(|(c, _)| c == class)
            .map_or(0.0, |(_, peak)| *peak)
    };
    Ok(BTreeMap::from([
        ("http.in_flight_peak", m.in_flight_peak),
        ("http.queue_peak.serve", queue("serve")),
        ("http.queue_peak.bulk", queue("bulk")),
    ]))
}

/// How many of `total` items fall in round `r` of `rounds`, spread evenly.
fn share(total: usize, r: usize, rounds: usize) -> usize {
    total * (r + 1) / rounds - total * r / rounds
}

/// The items of `items` due in `[lo, hi)`, with dues made relative to `lo`.
fn due_between<T: Clone>(
    items: &[(Duration, T)],
    lo: Duration,
    hi: Duration,
) -> Vec<(Duration, T)> {
    items
        .iter()
        .filter(|(due, _)| *due >= lo && *due < hi)
        .map(|(due, item)| (*due - lo, item.clone()))
        .collect()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Executes the workload once. `tracer` makes it the traced run.
///
/// The measured phase runs in `rounds` rounds. Between rounds, with the
/// service idle, the extra world builds of `setup_s` run and the store is
/// copied and cold-started for `recovery_ms`, so every metric samples the
/// whole run rather than one stretch of it.
fn execute(
    opts: &Options,
    work: &Path,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let (mut world, took) = World::build(opts.scale, opts.key_bits, &work.join("store"))?;
    let mut setup = vec![took.as_secs_f64()];
    let admin = TsrClient::pooled(&world.base, ADMIN_TIMEOUT);
    let ledger = Ledger::new(world.tenant_keys.clone());

    // Warm-up, outside the measurement: verify the index and every
    // package once, so the service's caches are filled.
    let (raw, etag) = admin
        .index(&world.repo_id)
        .map_err(|e| format!("warm-up index: {e}"))?;
    let first = ledger.verify_index(&raw, &etag.ok_or("index without an etag")?)?;
    ledger.confirm(&first);
    let names: Vec<String> = first.index.iter().map(|e| e.name.clone()).collect();
    if names.is_empty() {
        return Err("the initial refresh served no packages".into());
    }
    let repo_id = world.repo_id.clone();
    let base = world.base.clone();
    let shared = Shared {
        ledger: &ledger,
        base: &base,
        repo: &repo_id,
        names: &names,
    };
    {
        let mut warm = Conn::new(&shared, usize::MAX, Arc::clone(&first));
        let mut st = ConnStats::default();
        for rank in 0..names.len() {
            warm.run(ReadOp::Package { rank: rank as u32 }, None, &mut st, false);
        }
        out.attempted += st.attempted;
        out.failed += st.failed;
        out.errors.extend(st.errors);
    }

    let shape = PlanShape {
        served: names.len(),
        supported: world.supported.len(),
        seconds: opts.seconds,
        rounds: opts.rounds,
    };
    let plan = plan::generate(opts.workload, opts.seed, shape);
    out.inputs = Inputs {
        digest: plan.digest(&world.population_digest()),
        packages: world.upstream.specs.len(),
        served: names.len(),
        package_bytes: world.package_bytes(),
    };

    let sample = tracer.is_some();
    let mut replayer = match tracer {
        Some(t) => Some(Replayer::new(
            t,
            opts.seed,
            opts.key_bits,
            &work.join("replay-store"),
        )?),
        None => None,
    };
    let mut conns: Vec<Conn> = (0..plan.closed.len().max(1))
        .map(|i| Conn::new(&shared, i, Arc::clone(&first)))
        .collect();
    let mut cursors = vec![0usize; conns.len()];
    let round = Duration::from_secs_f64(opts.seconds / opts.rounds as f64);
    let per = plan.waves.len().div_ceil(opts.rounds);
    let timed_waves: Vec<(Duration, Wave)> =
        plan.waves.iter().map(|w| (w.due, w.clone())).collect();
    let mut fleet = ConnStats::default();
    let mut waves = WaveStats::default();
    let mut recovery_ms = Vec::new();
    let mut rounds = Vec::new();
    let before = counters(&admin);
    for r in 0..opts.rounds {
        let part = match opts.workload {
            // A read chunk, then a burst of waves with the fleet idle.
            Workload::Poll | Workload::Fetch => {
                let until = Instant::now() + round;
                let part = std::thread::scope(|s| {
                    let handles: Vec<_> = conns
                        .iter_mut()
                        .zip(&plan.closed)
                        .zip(cursors.iter_mut())
                        .map(|((conn, ops), cursor)| {
                            s.spawn(move || closed_loop(conn, ops, cursor, until, sample))
                        })
                        .collect();
                    let mut all = ConnStats::default();
                    for h in handles {
                        all.merge(h.join().expect("fleet connection panicked"));
                    }
                    all
                });
                let burst = &plan.waves
                    [(r * per).min(plan.waves.len())..((r + 1) * per).min(plan.waves.len())];
                waves.merge(run_waves(
                    &mut world,
                    burst,
                    None,
                    &ledger,
                    &admin,
                    replayer.as_mut().map(|r| &mut r.queue),
                ));
                part
            }
            // This round's slice of the paced fleet and of the waves.
            Workload::Update => {
                let lo = round * r as u32;
                let hi = if r + 1 == opts.rounds {
                    Duration::MAX
                } else {
                    lo + round
                };
                let paced = due_between(&plan.paced, lo, hi);
                let slice: Vec<Wave> = due_between(&timed_waves, lo, hi)
                    .into_iter()
                    .map(|(due, w)| Wave { due, ..w })
                    .collect();
                let start = Instant::now() + Duration::from_millis(20);
                let conn = &mut conns[0];
                let (part, stats) = std::thread::scope(|s| {
                    let h = s.spawn(move || paced_loop(conn, &paced, start, sample));
                    let stats = run_waves(
                        &mut world,
                        &slice,
                        Some(start),
                        &ledger,
                        &admin,
                        replayer.as_mut().map(|r| &mut r.queue),
                    );
                    (h.join().expect("fleet connection panicked"), stats)
                });
                waves.merge(stats);
                part
            }
        };
        let secs = part.elapsed.as_secs_f64().max(1e-9);
        rounds.push([
            (part.attempted - part.failed) as f64 / secs,
            quantile(&part.lat_us, 0.50),
            quantile(&part.lat_us, 0.99),
            part.bytes as f64 / MIB / secs,
        ]);
        let elapsed = fleet.elapsed + part.elapsed;
        fleet.merge(part);
        fleet.elapsed = elapsed;

        // Between rounds, with the service idle.
        if let Some(r) = replayer.as_mut() {
            for rec in std::mem::take(&mut r.queue) {
                match r.replay_wave(&world, &rec) {
                    Ok(()) => out.attempted += 1,
                    Err(e) => out.fail(format!("stage replay: {e}")),
                }
            }
        }
        for k in 0..share(opts.setups - 1, r, opts.rounds) {
            let dir = work.join(format!("setup-{r}-{k}"));
            let (extra, took) = World::build(opts.scale, opts.key_bits, &dir)?;
            setup.push(took.as_secs_f64());
            extra.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let latest = ledger.latest().ok_or("no confirmed index")?;
        for k in 0..share(opts.recoveries - 1, r, opts.rounds) {
            let dir = work.join(format!("recover-{r}-{k}"));
            copy_dir(&world.store_dir, &dir).map_err(|e| format!("store copy: {e}"))?;
            out.attempted += 1;
            match world::recover(&dir, opts.key_bits, &repo_id) {
                Ok((index, took)) if *index == *latest.raw => recovery_ms.push(ms(took)),
                Ok(_) => {
                    out.fail("recovered index is not byte-identical to the last one served".into())
                }
                Err(e) => out.fail(e),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    drop(conns);
    let after = counters(&admin);

    // Cache effectiveness, from the service's named counters.
    let full_gets = (fleet.full_index + fleet.packages + waves.gets) as f64;
    let hits = delta(&after, &before, "index_hot_blob_hits")
        + delta(&after, &before, "package_hot_blob_hits");
    let lock_free = delta(&after, &before, "index_not_modified_lock_free");
    let hot = (
        hits / full_gets.max(1.0),
        lock_free / (fleet.not_modified as f64).max(1.0),
    );

    let mut serve = None;
    let mut scraped = BTreeMap::new();
    let last = ledger.latest().ok_or("no confirmed index")?;
    if let Some(t) = tracer {
        let layers = replay_serving(t, &world.svc, &fleet.samples, &repo_id, &names, &last.etag);
        out.attempted += layers.replayed - layers.mismatches.len() as u64;
        for e in &layers.mismatches {
            out.fail(e.clone());
        }
        serve = Some(layers);
        scraped = scrape(&base)?;
    }
    drop(admin);

    // The last cold start is of the store itself, after the service is gone.
    let (store_dir, repo_id) = world.stop();
    out.attempted += 1;
    match world::recover(&store_dir, opts.key_bits, &repo_id) {
        Ok((index, took)) if *index == *last.raw => recovery_ms.push(ms(took)),
        Ok(_) => out.fail("recovered index is not byte-identical to the last one served".into()),
        Err(e) => out.fail(e),
    }
    let mut open_ms = Vec::new();
    if tracer.is_some() {
        for _ in 0..opts.recoveries {
            let backend = DirBackend::new(&store_dir).map_err(|e| format!("store: {e}"))?;
            let t0 = Instant::now();
            let opened = StoreEngine::open(Box::new(backend));
            open_ms.push(ms(t0.elapsed()));
            opened.map_err(|e| format!("store open: {e}"))?;
        }
    }
    let replay = replayer.map(|r| r.acc);
    Ok(Measured {
        setup,
        fleet,
        rounds,
        waves,
        recovery_ms,
        open_ms,
        serve,
        replay,
        scrape: scraped,
        hot,
    })
}

/// The end-to-end metrics, plus the fleet median `read_p50_us` for the
/// tracing overhead. Each fleet figure is the median over rounds of its
/// per-round value: interference from other tenants of a shared host
/// stalls a connection for milliseconds in some stretches and not at all
/// in others, and a median over rounds ignores a minority of disturbed
/// rounds that would move a whole-run figure. Whole-run figures are
/// printed with the run record.
fn figures(m: &Measured) -> Metrics {
    let per_round = |i: usize| median(&m.rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    let refresh_s: f64 = m.waves.refresh_ms.iter().sum::<f64>() / 1e3;
    let values = [
        median(&m.setup),
        per_round(0),
        per_round(2),
        per_round(3),
        quantile(&m.waves.refresh_ms, 0.50),
        quantile(&m.waves.refresh_ms, 0.90),
        m.waves.sanitized as f64 / refresh_s.max(1e-9),
        median(&m.recovery_ms),
    ];
    let mut out: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
        .collect();
    out.insert("read_p50_us".into(), (per_round(1), "us"));
    out
}

/// The end-to-end metrics alone.
fn end_to_end(m: &Measured) -> Metrics {
    let mut out = figures(m);
    out.retain(|name, _| END_TO_END.iter().any(|(n, _)| n == name));
    out
}

fn per_layer(m: &Measured, tracer: &Tracer, untraced: &Metrics, traced: &Metrics) -> Metrics {
    let serve = m.serve.as_ref();
    let r = m.replay.as_ref();
    let handle = |k: OpKind| {
        serve
            .and_then(|s| s.handle_us.get(&k))
            .map_or(0.0, |v| median(v))
    };
    let rep = |f: &dyn Fn(&crate::layers::RefreshLayers) -> f64| r.map_or(0.0, f);
    let own = tracer.self_times();
    let unattributed = own.get("core.refresh").map_or(0.0, |v| median(v) / 1e3);
    // Slowdown of the traced run against the untraced one, in percent
    // (positive is worse, for rates and latencies alike).
    let overhead = |name: &str| {
        let a = untraced.get(name).map_or(0.0, |v| v.0);
        let b = traced.get(name).map_or(0.0, |v| v.0);
        let slower = if matches!(name, "read_rps" | "read_mib_s") {
            a - b
        } else {
            b - a
        };
        if a == 0.0 {
            0.0
        } else {
            slower / a * 100.0
        }
    };
    let values: Vec<f64> = vec![
        serve.map_or(0.0, |s| median(&s.transport_us)),
        m.scrape
            .get("http.queue_peak.serve")
            .copied()
            .unwrap_or(0.0),
        m.scrape.get("http.queue_peak.bulk").copied().unwrap_or(0.0),
        m.scrape.get("http.in_flight_peak").copied().unwrap_or(0.0),
        handle(OpKind::Health),
        handle(OpKind::IndexCond),
        handle(OpKind::Index),
        handle(OpKind::Page),
        handle(OpKind::Package),
        m.hot.0,
        m.hot.1,
        serve.map_or(0.0, |s| median(&s.page_decode_us)),
        rep(&|a| median(&a.index_read_ms)),
        rep(&|a| median(&a.download_ms)),
        rep(&|a| median(&a.index_read_sim_ms)),
        rep(&|a| median(&a.download_sim_ms)),
        rep(&|a| median(&a.universe_scan_ms)),
        rep(&|a| median(&a.original_check_ms)),
        unattributed,
        rep(&|a| median(&a.pkg_ms)),
        rep(&|a| median(&a.phases_ms[0])),
        rep(&|a| median(&a.phases_ms[1])),
        rep(&|a| median(&a.phases_ms[2])),
        rep(&|a| median(&a.phases_ms[3])),
        rep(&|a| median(&a.phases_ms[4])),
        m.waves.sanitized as f64,
        m.waves.rejected as f64,
        rep(&|a| a.files_signed as f64),
        rep(&|a| median(&a.rsa_sign_ms)),
        rep(&|a| a.keygen_ms),
        rep(&|a| median(&a.sha256_mib_s)),
        rep(&|a| mean(&a.signs_per_wave)),
        rep(&|a| median(&a.seal_us)),
        rep(&|a| median(&a.tpm_us)),
        rep(&|a| median(&a.append_us)),
        rep(&|a| median(&a.put_blob_us)),
        median(&m.open_ms),
        mean(&m.waves.wal_bytes),
        mean(&m.waves.blob_bytes),
        mean(&m.waves.fsyncs),
        quantile(&m.fleet.late_us, 0.99),
        quantile(&m.waves.late_ms, 0.99),
        overhead("read_rps"),
        overhead("read_p50_us"),
        overhead("read_p99_us"),
        overhead("refresh_p50_ms"),
        overhead("read_mib_s"),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
        .collect()
}

fn tally(out: &mut Outcome, m: &Measured) {
    out.attempted += m.fleet.attempted + m.waves.attempted;
    out.failed += m.fleet.failed + m.waves.failed;
    for e in m.fleet.errors.iter().chain(&m.waves.errors) {
        if out.errors.len() < 10 {
            out.errors.push(e.clone());
        }
    }
    out.read_quantiles_us = [0.5, 0.9, 0.99, 0.999].map(|q| quantile(&m.fleet.lat_us, q));
    let secs = m.fleet.elapsed.as_secs_f64().max(1e-9);
    out.read_rates = (
        (m.fleet.attempted - m.fleet.failed) as f64 / secs,
        m.fleet.bytes as f64 / MIB / secs,
    );
    out.lateness = (
        quantile(&m.fleet.late_us, 0.99),
        quantile(&m.waves.late_ms, 0.99),
    );
}

/// Runs the workload of `opts` in the scratch directory `work`, writing
/// the traced run's spans under `trace_dir`.
///
/// # Errors
///
/// A failure that stops the run (world build, warm-up, recovery store).
pub fn run(opts: &Options, work: &Path, trace_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !opts.trace {
        let m = execute(opts, work, None, &mut out)?;
        tally(&mut out, &m);
        out.metrics = end_to_end(&m);
        return Ok(out);
    }
    // The untraced reference of the same seed (one world build), then
    // the traced run; their end-to-end difference is the overhead.
    // The traced pair builds one world each and cold-starts twice: its
    // output is per-layer, so setup_s and recovery_ms need no samples.
    let reference = Options {
        setups: 1,
        recoveries: 2,
        ..opts.clone()
    };
    let base = execute(&reference, work, None, &mut out)?;
    tally(&mut out, &base);
    let tracer = Tracer::default();
    let traced = reference.clone();
    let m = execute(&traced, work, Some(&tracer), &mut out)?;
    tally(&mut out, &m);
    out.metrics = per_layer(&m, &tracer, &figures(&base), &figures(&m));
    std::fs::create_dir_all(trace_dir).map_err(|e| format!("trace dir: {e}"))?;
    let file = trace_dir.join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .write_jsonl(&file)
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    out.trace_file = Some(file.display().to_string());
    Ok(out)
}
