//! The operator connection: publishes each upstream wave, POSTs the
//! refresh, and checks that the new signed index lists what was published.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tsr_mirror::RepoSnapshot;
use tsr_wire::TsrClient;

use crate::check::{IndexVersion, Ledger};
use crate::fleet::sleep_until;
use crate::plan::Wave;
use crate::stats::ms;
use crate::world::{Published, World};

/// Failure messages kept.
const KEEP_ERRORS: usize = 5;

/// Tallies of the wave phase.
#[derive(Debug, Default)]
pub struct WaveStats {
    /// POST refresh → 200 latency of each wave, ms.
    pub refresh_ms: Vec<f64>,
    /// Packages sanitized by the refreshes.
    pub sanitized: u64,
    /// Packages the refreshes rejected.
    pub rejected: u64,
    /// How late each publish started against its due time, ms (paced).
    pub late_ms: Vec<f64>,
    /// WAL bytes appended per wave (the service's `wal_bytes` counter).
    pub wal_bytes: Vec<f64>,
    /// Blob-store bytes written per wave.
    pub blob_bytes: Vec<f64>,
    /// fsync calls per wave (any service counter named `*fsync*`).
    pub fsyncs: Vec<f64>,
    /// Operations attempted (refreshes and their index reads).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Index and package GETs the operator sent.
    pub gets: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl WaveStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: WaveStats) {
        self.refresh_ms.extend(other.refresh_ms);
        self.sanitized += other.sanitized;
        self.rejected += other.rejected;
        self.late_ms.extend(other.late_ms);
        self.wal_bytes.extend(other.wal_bytes);
        self.blob_bytes.extend(other.blob_bytes);
        self.fsyncs.extend(other.fsyncs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.gets += other.gets;
        for e in other.errors {
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(e);
        }
    }
}

/// One refresh's inputs and outputs, kept for the traced run's stage
/// replay, which runs between rounds with the service idle.
pub struct WaveRecord {
    /// The upstream snapshot the mirrors held.
    pub snapshot: RepoSnapshot,
    /// The packages the wave published.
    pub published: Published,
    /// The verified index the refresh produced.
    pub index: Arc<IndexVersion>,
    /// When the POST refresh was sent.
    pub t0: Instant,
    /// When its 200 was read.
    pub t1: Instant,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// `(wal bytes, fsyncs)` from the service's named counters.
fn store_counters(admin: &TsrClient) -> Result<(u64, u64), String> {
    let m = admin.metrics().map_err(|e| format!("metrics: {e}"))?;
    let wal = m.counters.get("wal_bytes").copied().unwrap_or(0);
    let fsyncs = m
        .counters
        .iter()
        .filter(|(k, _)| k.contains("fsync"))
        .map(|(_, v)| *v)
        .sum();
    Ok((wal, fsyncs))
}

/// Runs every wave: publish, refresh, check. Paced from `paced_start` at
/// each wave's due time when given, otherwise back to back. With
/// `records`, each checked wave's replay inputs are queued there.
pub fn run_waves(
    world: &mut World,
    waves: &[Wave],
    paced_start: Option<Instant>,
    ledger: &Ledger,
    admin: &TsrClient,
    mut records: Option<&mut Vec<WaveRecord>>,
) -> WaveStats {
    let mut st = WaveStats::default();
    let blobs_dir = world.store_dir.join("blobs");
    let mut prev = match store_counters(admin) {
        Ok(c) => c,
        Err(e) => {
            st.attempted += 1;
            st.fail(e);
            (0, 0)
        }
    };
    let mut prev_blobs = dir_bytes(&blobs_dir);
    for (i, wave) in waves.iter().enumerate() {
        if let Some(start) = paced_start {
            let due_at = start + wave.due;
            sleep_until(due_at);
            st.late_ms
                .push(ms(Instant::now().saturating_duration_since(due_at)));
        }
        st.attempted += 1;
        if let Err(e) = one_wave(world, wave, ledger, admin, &mut st, records.as_deref_mut()) {
            st.fail(format!("wave {i}: {e}"));
            continue;
        }
        match store_counters(admin) {
            Ok(now) => {
                st.wal_bytes.push(now.0.saturating_sub(prev.0) as f64);
                st.fsyncs.push(now.1.saturating_sub(prev.1) as f64);
                prev = now;
            }
            Err(e) => st.fail(e),
        }
        let blobs = dir_bytes(&blobs_dir);
        st.blob_bytes.push(blobs.saturating_sub(prev_blobs) as f64);
        prev_blobs = blobs;
    }
    st
}

fn one_wave(
    world: &mut World,
    wave: &Wave,
    ledger: &Ledger,
    admin: &TsrClient,
    st: &mut WaveStats,
    records: Option<&mut Vec<WaveRecord>>,
) -> Result<(), String> {
    let names: Vec<String> = wave
        .picks
        .iter()
        .map(|&p| world.supported[p].clone())
        .collect();
    let (published, snapshot) = world.publish(&names, wave.salt)?;
    let t0 = Instant::now();
    let report = admin
        .refresh(&world.repo_id)
        .map_err(|e| format!("refresh: {e}"))?;
    let t1 = Instant::now();
    st.refresh_ms.push(ms(t1 - t0));
    st.sanitized += report.sanitized.len() as u64;
    st.rejected += report.rejected.len() as u64;
    for name in &names {
        if !report.sanitized.iter().any(|r| &r.name == name) {
            return Err(format!("published {name} was not sanitized"));
        }
    }
    st.gets += 1;
    let (raw, etag) = admin
        .index(&world.repo_id)
        .map_err(|e| format!("index: {e}"))?;
    let etag = etag.ok_or("index without an etag")?;
    let v: Arc<IndexVersion> = ledger.verify_index(&raw, &etag)?;
    for (name, version, _) in &published {
        let listed = v.index.get(name).map(|e| e.version.as_str());
        if listed != Some(version.as_str()) {
            return Err(format!(
                "index lists {name} at {listed:?}, published {version}"
            ));
        }
    }
    ledger.confirm(&v);
    if let Some(records) = records {
        records.push(WaveRecord {
            snapshot,
            published,
            index: v,
            t0,
            t1,
        });
    }
    Ok(())
}
