//! The benchmark world: a synthetic upstream behind three mirrors, a
//! store-backed `TsrService` on a loopback port, and one tenant created
//! and initially sanitized through the `/v1` API.
//!
//! The package population and the service seed are fixed, so every run
//! sanitizes and serves the same repository; the run seed varies the
//! traffic and the publish waves (see `plan`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tsr_apk::{Package, PackageBuilder};
use tsr_archive::EntryKind;
use tsr_core::{ApiOptions, InitConfigFile, MirrorRef, Policy, TsrService};
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{hex, RsaPublicKey, Sha256};
use tsr_mirror::{publish_to_all, Mirror, RepoSnapshot};
use tsr_net::{Continent, LatencyModel};
use tsr_store::DirBackend;
use tsr_wire::TsrClient;
use tsr_workload::{Census, GeneratedRepo, WorkloadConfig};

/// Seed of the synthetic package population.
const POPULATION_SEED: &[u8] = b"tsrbench-population-v1";
/// Seed of the service's simulated CPU, TPM and DRBG.
pub const SERVICE_SEED: &[u8] = b"tsrbench-service-v1";
/// Timeout of the operator's API calls (a refresh can take seconds).
const ADMIN_TIMEOUT: Duration = Duration::from_secs(120);

/// `(name, new version, new upstream blob)` of each package a wave
/// published.
pub type Published = Vec<(String, String, Vec<u8>)>;

/// A running world.
pub struct World {
    /// The in-process service (used only to publish upstream, to replay
    /// requests in the traced run, and to read its scrape).
    pub svc: TsrService,
    server: tsr_http::Server,
    /// `http://127.0.0.1:port`.
    pub base: String,
    /// The tenant's repository id.
    pub repo_id: String,
    /// The tenant's signing key as returned at creation, with its signer
    /// name: every served index must verify under it.
    pub tenant_keys: Vec<(String, RsaPublicKey)>,
    /// The synthetic upstream (waves publish new versions into it).
    pub upstream: GeneratedRepo,
    /// The deployed policy.
    pub policy: Policy,
    /// The service's store directory.
    pub store_dir: PathBuf,
    /// Upstream packages the sanitizer accepts (sorted).
    pub supported: Vec<String>,
}

fn workload_config(scale: f64) -> WorkloadConfig {
    WorkloadConfig {
        seed: POPULATION_SEED.to_vec(),
        census: Census::default().scaled(scale),
        size_scale: 1.0,
        median_files: 4.0,
        files_sigma: 1.2,
        median_pkg_bytes: 40_000.0,
        pkg_bytes_sigma: 1.2,
        include_cve_pattern: true,
    }
}

fn initial_configs() -> Vec<InitConfigFile> {
    vec![
        InitConfigFile {
            path: "/etc/passwd".into(),
            content: "root:x:0:0:root:/root:/bin/ash\ndaemon:x:2:2:daemon:/sbin:/sbin/nologin"
                .into(),
        },
        InitConfigFile {
            path: "/etc/group".into(),
            content: "root:x:0:\ndaemon:x:2:".into(),
        },
        InitConfigFile {
            path: "/etc/shadow".into(),
            content: "root:!::0:::::\ndaemon:!::0:::::".into(),
        },
    ]
}

fn mirror_fleet() -> Vec<Mirror> {
    (0..3)
        .map(|i| Mirror::new(format!("mirror-{i}"), Continent::Europe))
        .collect()
}

/// A fresh mirror fleet holding only `snapshot`.
pub fn mirrors_holding(snapshot: &RepoSnapshot) -> Vec<Mirror> {
    let mut fleet = mirror_fleet();
    publish_to_all(&mut fleet, snapshot);
    fleet
}

/// Recreates `dir` empty.
///
/// # Errors
///
/// I/O failures.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

impl World {
    /// Builds the world: upstream generation, mirrors, service over an
    /// empty store in `store_dir`, server bind, then tenant creation
    /// (key generation) and the initial full sanitization over `/v1`.
    /// Returns the world and the wall time of the build.
    ///
    /// # Errors
    ///
    /// Any failure of the build, as text.
    pub fn build(
        scale: f64,
        key_bits: usize,
        store_dir: &Path,
    ) -> Result<(World, Duration), String> {
        fresh_dir(store_dir).map_err(|e| format!("store dir: {e}"))?;
        let t0 = Instant::now();
        let upstream = GeneratedRepo::generate(workload_config(scale));
        let mut mirrors = mirror_fleet();
        publish_to_all(&mut mirrors, &upstream.snapshot());
        let policy = Policy {
            mirrors: mirrors
                .iter()
                .map(|m| MirrorRef {
                    hostname: m.name.clone(),
                    continent: m.continent,
                })
                .collect(),
            signers_keys: vec![upstream.signing_key.public_key().clone()],
            init_config_files: initial_configs(),
            f: 1,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };
        let backend = DirBackend::new(store_dir).map_err(|e| format!("store: {e}"))?;
        let (svc, _) = TsrService::with_store(
            SERVICE_SEED,
            mirrors,
            LatencyModel::default(),
            key_bits,
            Box::new(backend),
        )
        .map_err(|e| format!("service: {e}"))?;
        let server = svc
            .serve_with_options(
                "127.0.0.1:0",
                ApiOptions {
                    // The benchmark is the load; it must not be throttled.
                    rate_limit: None,
                    ..ApiOptions::default()
                },
            )
            .map_err(|e| format!("bind: {e}"))?;
        let base = format!("http://{}", server.local_addr());
        let admin = TsrClient::with_timeout(&base, ADMIN_TIMEOUT);
        let created = admin
            .create_repository(&policy.to_text())
            .map_err(|e| format!("create repository: {e}"))?;
        let key = RsaPublicKey::from_pem(&created.public_key_pem)
            .map_err(|e| format!("tenant key: {e}"))?;
        admin
            .refresh(&created.id)
            .map_err(|e| format!("initial refresh: {e}"))?;
        let elapsed = t0.elapsed();

        let unsupported = upstream.unsupported_names();
        let mut supported: Vec<String> = upstream
            .specs
            .iter()
            .map(|s| s.name.clone())
            .filter(|n| !unsupported.contains(n))
            .collect();
        supported.sort();
        Ok((
            World {
                svc,
                server,
                base,
                tenant_keys: vec![(format!("tsr-{}", created.id), key)],
                repo_id: created.id,
                upstream,
                policy,
                store_dir: store_dir.to_path_buf(),
                supported,
            },
            elapsed,
        ))
    }

    /// SHA-256 over the upstream population (names and blob hashes).
    pub fn population_digest(&self) -> String {
        let mut h = Sha256::new();
        for (name, blob) in &self.upstream.blobs {
            h.update(name.as_bytes());
            h.update(&Sha256::digest(blob));
        }
        hex::to_hex(&h.finalize())
    }

    /// Total bytes of the upstream package blobs.
    pub fn package_bytes(&self) -> usize {
        self.upstream.total_bytes()
    }

    /// Publishes a new upstream version of each package in `names`: same
    /// files, scripts and sizes, with a salted window of each regular
    /// file rewritten. Returns `(name, new version, new upstream blob)`
    /// for each, and the upstream snapshot the mirrors now hold.
    ///
    /// # Errors
    ///
    /// A package that no longer parses.
    pub fn publish(
        &mut self,
        names: &[String],
        salt: u64,
    ) -> Result<(Published, RepoSnapshot), String> {
        let mut out = Vec::new();
        for name in names {
            let spec_at = self
                .upstream
                .specs
                .iter()
                .position(|s| &s.name == name)
                .ok_or_else(|| format!("unknown upstream package {name}"))?;
            let old = &self.upstream.blobs[name];
            let pkg = Package::parse(old).map_err(|e| format!("{name}: {e}"))?;
            let rev: u32 = pkg
                .meta
                .version
                .rsplit("-r")
                .next()
                .and_then(|r| r.parse().ok())
                .unwrap_or(0);
            let version = format!("1.0-r{}", rev + 1);
            let mut builder = PackageBuilder::new(name.clone(), version.clone());
            builder.description(pkg.meta.description.clone());
            for d in &pkg.meta.depends {
                builder.depends_on(d.clone());
            }
            builder.scripts(pkg.scripts.clone());
            let mut rng = HmacDrbg::new(format!("tsrbench-publish:{salt}:{name}").as_bytes());
            for entry in &pkg.files {
                let mut entry = entry.clone();
                if entry.kind == EntryKind::File && !entry.data.is_empty() {
                    let window = entry.data.len().min(64);
                    let at = rng.gen_range((entry.data.len() - window + 1) as u64) as usize;
                    let fresh = rng.bytes(window);
                    entry.data[at..at + window].copy_from_slice(&fresh);
                }
                builder.file(entry);
            }
            let blob = builder.build(&self.upstream.signing_key, &self.upstream.signer_name);
            let spec = &mut self.upstream.specs[spec_at];
            spec.version = version.clone();
            spec.blob_size = blob.len();
            self.upstream.blobs.insert(name.clone(), blob.clone());
            out.push((name.clone(), version, blob));
        }
        self.upstream.snapshot_id += 1;
        // A fresh fleet holding only the new snapshot: a simulated mirror
        // keeps every snapshot it was sent and each refresh clones the
        // fleet, so appending would make every wave costlier than the last.
        let snapshot = self.upstream.snapshot();
        self.svc.set_mirrors(mirrors_holding(&snapshot));
        Ok((out, snapshot))
    }

    /// Shuts the server down (draining in-flight requests) and drops the
    /// service: the simulated crash before a cold start.
    pub fn stop(self) -> (PathBuf, String) {
        self.server.shutdown();
        (self.store_dir, self.repo_id)
    }
}

/// One cold start: `TsrService::with_store` on `store_dir`, until the
/// tenant's signed index serves again. Returns the index and the time.
///
/// `tsr_bench::loadrun::measure_recovery` does the same start but cannot
/// serve here: it builds the service from a `loadworld-<n>` seed, while
/// this store is sealed to the CPU of [`SERVICE_SEED`]; it panics instead
/// of returning errors; and it drops the index the caller must compare.
///
/// # Errors
///
/// Recovery failures, as text.
pub fn recover(
    store_dir: &Path,
    key_bits: usize,
    repo_id: &str,
) -> Result<(Vec<u8>, Duration), String> {
    let backend = DirBackend::new(store_dir).map_err(|e| format!("store: {e}"))?;
    let t0 = Instant::now();
    let (svc, _) = TsrService::with_store(
        SERVICE_SEED,
        mirror_fleet(),
        LatencyModel::default(),
        key_bits,
        Box::new(backend),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    let index = svc
        .fetch_index(repo_id)
        .map_err(|e| format!("recovered index: {e}"))?;
    Ok((index, t0.elapsed()))
}
