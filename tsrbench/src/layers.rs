//! The traced run's replays: each layer's public functions called from
//! the benchmark's own code on the run's exact inputs, inside spans.
//!
//! - Serving: sampled socket requests are replayed in-process through
//!   `TsrService::handle`; the socket time minus the handler time is the
//!   transport (reactor, middleware, client) share.
//! - Refresh: each wave's inputs are recorded, and between rounds, with
//!   the service idle, the pipeline stages are replayed on them: quorum
//!   read, verified download, original check, universe scan, sanitize,
//!   index signature, seal, TPM counter, WAL append and blob put.

use std::collections::BTreeMap;
use std::path::Path;

use tsr_apk::Package;
use tsr_archive::EntryKind;
use tsr_core::repository::sanitize_one;
use tsr_core::sanitizer::scan_universe_parallel;
use tsr_core::TsrService;
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{hex, RsaPrivateKey, Sha256};
use tsr_http::Request;
use tsr_quorum::{fetch_package_verified, read_index_quorum, QuorumConfig};
use tsr_sgx::Cpu;
use tsr_store::{DirBackend, StoreEngine, WalRecord};
use tsr_tpm::Tpm;
use tsr_wire::dto::{PackagePage, WireDto};

use crate::fleet::Sample;
use crate::operator::WaveRecord;
use crate::plan::{OpKind, PAGE_LIMIT};
use crate::stats::{ms, us};
use crate::trace::Tracer;
use crate::world::{mirrors_holding, World};

/// RSA signatures a refresh makes besides the per-file and per-package
/// ones: the index signature and the three predicted configuration files
/// of the refresh's new sanitizer.
const FIXED_SIGNS_PER_REFRESH: u64 = 4;
/// Handler replays per op kind the workload did not send itself.
const PROBES_PER_KIND: usize = 64;

/// Per-wave replay measurements.
#[derive(Debug, Default)]
pub struct RefreshLayers {
    /// Wall time of the quorum index read, ms.
    pub index_read_ms: Vec<f64>,
    /// Simulated time of the quorum index read, ms.
    pub index_read_sim_ms: Vec<f64>,
    /// Wall time of the wave's verified downloads, ms.
    pub download_ms: Vec<f64>,
    /// Simulated time of the wave's verified downloads, ms.
    pub download_sim_ms: Vec<f64>,
    /// SHA-256 of every original, ms.
    pub original_check_ms: Vec<f64>,
    /// SHA-256 throughput of that check, MiB/s.
    pub sha256_mib_s: Vec<f64>,
    /// Universe scan over every original, ms.
    pub universe_scan_ms: Vec<f64>,
    /// `PackageSanitizer::sanitize` per package, ms.
    pub pkg_ms: Vec<f64>,
    /// Per-wave sums of the sanitizer's phase timings, ms:
    /// check, unpack, scripts, sign files, repack.
    pub phases_ms: [Vec<f64>; 5],
    /// Regular files signed by the replayed sanitizations.
    pub files_signed: u64,
    /// RSA signatures per wave.
    pub signs_per_wave: Vec<f64>,
    /// One PKCS#1 v1.5 signature, ms.
    pub rsa_sign_ms: Vec<f64>,
    /// `Enclave::seal` of a sealed-state-sized blob, µs.
    pub seal_us: Vec<f64>,
    /// `Tpm::increment_counter`, µs.
    pub tpm_us: Vec<f64>,
    /// `StoreEngine::append` of the wave's refresh record, µs.
    pub append_us: Vec<f64>,
    /// `StoreEngine::put_blob` of one sanitized package, µs.
    pub put_blob_us: Vec<f64>,
    /// RSA key generation at the tenant's key size, ms.
    pub keygen_ms: f64,
}

/// Replays the refresh stages of each wave.
pub struct Replayer<'t> {
    tracer: &'t Tracer,
    seed: u64,
    key: RsaPrivateKey,
    cpu: Cpu,
    tpm: Tpm,
    counter: u32,
    store: StoreEngine,
    /// Waves replayed so far.
    waves: usize,
    /// Recorded waves not yet replayed.
    pub queue: Vec<WaveRecord>,
    /// What the replays measured.
    pub acc: RefreshLayers,
}

impl<'t> Replayer<'t> {
    /// A replayer with its own key (generated here, timed), CPU, TPM and
    /// a scratch store in `store_dir`.
    ///
    /// # Errors
    ///
    /// The scratch store cannot be opened.
    pub fn new(
        tracer: &'t Tracer,
        seed: u64,
        key_bits: usize,
        store_dir: &Path,
    ) -> Result<Self, String> {
        crate::world::fresh_dir(store_dir).map_err(|e| format!("replay store: {e}"))?;
        let label = format!("tsrbench-replay:{seed}");
        let mut rng = HmacDrbg::new(label.as_bytes());
        let (key, took) = tracer.time("crypto.rsa_keygen", None, "setup", || {
            RsaPrivateKey::generate(key_bits, &mut rng)
        });
        let mut tpm = Tpm::new(label.as_bytes());
        let counter = tpm.create_counter();
        let backend = DirBackend::new(store_dir).map_err(|e| format!("replay store: {e}"))?;
        let (store, _) =
            StoreEngine::open(Box::new(backend)).map_err(|e| format!("replay store: {e}"))?;
        Ok(Replayer {
            tracer,
            seed,
            key,
            cpu: Cpu::new(label.as_bytes()),
            tpm,
            counter,
            store,
            waves: 0,
            queue: Vec::new(),
            acc: RefreshLayers {
                keygen_ms: ms(took),
                ..RefreshLayers::default()
            },
        })
    }

    /// Replays the next wave on its recorded inputs. The replayed
    /// sanitize output must hash to the wave's signed index entry, the
    /// entry every served body of that version is checked against: it is
    /// byte-identical to the served package.
    ///
    /// # Errors
    ///
    /// A stage fails or the byte-identity check fails.
    pub fn replay_wave(&mut self, world: &World, rec: &WaveRecord) -> Result<(), String> {
        let tr = self.tracer;
        let i = self.waves;
        self.waves += 1;
        let req = format!("wave-{i}");
        let parent = Some(tr.record("core.refresh", None, &req, rec.t0, rec.t1));
        let mirrors = mirrors_holding(&rec.snapshot);
        let signers = world.policy.signer_keys_named();
        let cfg = QuorumConfig {
            f: world.policy.f,
            ..QuorumConfig::default()
        };
        let model = world.svc.model();
        let mut rng = HmacDrbg::new(format!("tsrbench-replay:{}:{i}", self.seed).as_bytes());
        let (published, v) = (&rec.published, &rec.index);
        let a = &mut self.acc;

        let (outcome, took) = tr.time("quorum.index_read", parent, &req, || {
            read_index_quorum(&mirrors, &cfg, &model, &signers, &mut rng)
        });
        let outcome = outcome.map_err(|e| format!("replayed quorum read: {e}"))?;
        a.index_read_ms.push(ms(took));
        a.index_read_sim_ms.push(ms(outcome.elapsed));

        let (mut wall, mut sim) = (0.0, 0.0);
        for (name, _, _) in published {
            let (got, took) = tr.time("quorum.download", parent, &req, || {
                fetch_package_verified(&mirrors, name, &outcome.index, &cfg, &model, &mut rng)
            });
            let (_, elapsed) = got.map_err(|e| format!("replayed download of {name}: {e}"))?;
            wall += ms(took);
            sim += ms(elapsed);
        }
        a.download_ms.push(wall);
        a.download_sim_ms.push(sim);

        let originals: Vec<&[u8]> = outcome
            .index
            .iter()
            .filter_map(|e| rec.snapshot.packages.get(&e.name).map(Vec::as_slice))
            .collect();
        let bytes: usize = originals.iter().map(|b| b.len()).sum();
        let (_, took) = tr.time("core.original_check", parent, &req, || {
            for blob in &originals {
                std::hint::black_box(Sha256::digest(blob));
            }
        });
        a.original_check_ms.push(ms(took));
        a.sha256_mib_s
            .push(bytes as f64 / (1 << 20) as f64 / took.as_secs_f64().max(1e-9));
        let (_, took) = tr.time("core.universe_scan", parent, &req, || {
            std::hint::black_box(scan_universe_parallel(&originals, world.svc.workers()))
        });
        a.universe_scan_ms.push(ms(took));

        let mut phases = [0.0f64; 5];
        let mut files = 0u64;
        let mut served_bodies = Vec::new();
        for (name, _, blob) in published {
            let (out, took) = tr.time("sanitize.package", parent, &req, || {
                world
                    .svc
                    .with_repository(&world.repo_id, |repo| sanitize_one(repo, blob))
            });
            let (bytes, record) = out
                .map_err(|e| e.to_string())
                .and_then(|r| r.map_err(|e| e.to_string()))
                .map_err(|e| format!("replayed sanitize of {name}: {e}"))?;
            if v.hash_of(name) != Some(hex::to_hex(&Sha256::digest(&bytes)).as_str()) {
                return Err(format!(
                    "replayed sanitize of {name} is not byte-identical to the served package"
                ));
            }
            a.pkg_ms.push(ms(took));
            let t = record.timings;
            for (sum, d) in phases.iter_mut().zip([
                t.check_integrity,
                t.unpack,
                t.modify_scripts,
                t.generate_signatures,
                t.repack,
            ]) {
                *sum += ms(d);
            }
            let pkg = Package::parse(blob).map_err(|e| format!("{name}: {e}"))?;
            files += pkg
                .files
                .iter()
                .filter(|f| f.kind == EntryKind::File)
                .count() as u64;
            served_bodies.push(bytes);
        }
        for (acc, sum) in a.phases_ms.iter_mut().zip(phases) {
            acc.push(sum);
        }
        a.files_signed += files;
        a.signs_per_wave
            .push((files + published.len() as u64 + FIXED_SIGNS_PER_REFRESH) as f64);

        let digest = Sha256::digest(&v.raw);
        let (_, took) = tr.time("crypto.rsa_sign", parent, &req, || {
            std::hint::black_box(self.key.sign_pkcs1_sha256(&digest))
        });
        a.rsa_sign_ms.push(ms(took));

        let sealed_len = world
            .svc
            .with_repository(&world.repo_id, |r| r.sealed_disk().map_or(0, <[u8]>::len))
            .map_err(|e| e.to_string())?;
        let state = vec![0x5a; sealed_len];
        let enclave = self.cpu.load_enclave(b"tsrbench-enclave");
        let (_, took) = tr.time("sgx.seal", parent, &req, || {
            std::hint::black_box(enclave.seal(&state))
        });
        a.seal_us.push(us(took));
        let (r, took) = tr.time("tpm.increment", parent, &req, || {
            self.tpm.increment_counter(self.counter)
        });
        r.map_err(|e| format!("tpm: {e}"))?;
        a.tpm_us.push(us(took));

        let record = WalRecord::RefreshApplied {
            id: world.repo_id.clone(),
            upstream_index: outcome.index.to_text(),
            sanitized_index: v.index.to_text(),
            packages: v
                .index
                .iter()
                .map(|e| {
                    let original = outcome
                        .index
                        .get(&e.name)
                        .map(|o| o.content_hash.clone())
                        .unwrap_or_default();
                    (e.name.clone(), original, e.content_hash.clone())
                })
                .collect(),
        };
        let (r, took) = tr.time("store.append", parent, &req, || self.store.append(&record));
        r.map_err(|e| format!("replayed append: {e}"))?;
        a.append_us.push(us(took));
        for body in &served_bodies {
            let (r, took) = tr.time("store.put_blob", parent, &req, || self.store.put_blob(body));
            r.map_err(|e| format!("replayed put_blob: {e}"))?;
            a.put_blob_us.push(us(took));
        }
        Ok(())
    }
}

/// Serving-side replay measurements.
#[derive(Debug, Default)]
pub struct ServeLayers {
    /// `TsrService::handle` per op kind, µs.
    pub handle_us: BTreeMap<OpKind, Vec<f64>>,
    /// Socket latency minus handler time of each sampled request, µs.
    pub transport_us: Vec<f64>,
    /// `PackagePage::decode` of a page body, µs.
    pub page_decode_us: Vec<f64>,
    /// Requests replayed.
    pub replayed: u64,
    /// Replays whose status differed from the socket's (not timed).
    pub mismatches: Vec<String>,
}

fn get(path: &str, headers: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

/// Replays `samples` (and probes for kinds they lack) through
/// `svc.handle`, in spans. `etag` is the index ETag current at replay
/// time: a sample the socket answered 304 is replayed with it, so that the
/// replay takes the same handler path (a superseded ETag would get the
/// full index). A replay answered with another status than the socket's
/// is counted as a mismatch and not timed.
pub fn replay_serving(
    tracer: &Tracer,
    svc: &TsrService,
    samples: &[Sample],
    repo: &str,
    names: &[String],
    etag: &str,
) -> ServeLayers {
    let mut out = ServeLayers::default();
    let replay = |out: &mut ServeLayers,
                  kind: OpKind,
                  req: &Request,
                  expect: u16,
                  id: &str,
                  parent: Option<u64>| {
        let name = format!("api.handle.{}", kind.name());
        let (resp, took) = tracer.time(&name, parent, id, || svc.handle(req));
        out.replayed += 1;
        if resp.status != expect {
            out.mismatches.push(format!(
                "replayed {id} ({}) answered {}, the socket {expect}",
                req.path, resp.status
            ));
            return None;
        }
        out.handle_us.entry(kind).or_default().push(us(took));
        if kind == OpKind::Page {
            let text = String::from_utf8_lossy(resp.body.as_slice()).into_owned();
            let (_, took) = tracer.time("wire.page_decode", parent, id, || {
                std::hint::black_box(PackagePage::decode(&text))
            });
            out.page_decode_us.push(us(took));
        }
        Some(took)
    };
    // Requests that failed on the socket were counted there already.
    for s in samples.iter().filter(|s| s.status != 0) {
        let parent = tracer.record("http.request", None, &s.req, s.start, s.end);
        let mut headers = vec![("x-request-id", s.req.as_str())];
        let inm = if s.status == 304 {
            Some(etag)
        } else {
            s.if_none_match.as_deref()
        };
        if let Some(inm) = inm {
            headers.push(("if-none-match", inm));
        }
        let req = get(&s.path, &headers);
        if let Some(took) = replay(&mut out, s.kind, &req, s.status, &s.req, Some(parent)) {
            out.transport_us.push(us(s.end - s.start) - us(took));
        }
    }
    let index = format!("/v1/repositories/{repo}/index");
    let n = names.len().max(1);
    for kind in OpKind::ALL {
        let have = out.handle_us.get(&kind).map_or(0, Vec::len);
        for j in have..PROBES_PER_KIND {
            let id = format!("probe-{}-{j}", kind.name());
            let (req, expect) = match kind {
                OpKind::Health => (get("/v1/healthz", &[]), 200),
                OpKind::IndexCond => (get(&index, &[("if-none-match", etag)]), 304),
                OpKind::Index => (get(&index, &[]), 200),
                OpKind::Page => (
                    get(
                        &format!(
                            "/v1/repositories/{repo}/packages?offset={}&limit={PAGE_LIMIT}",
                            (j * 7) % n
                        ),
                        &[],
                    ),
                    200,
                ),
                OpKind::Package => (
                    get(
                        &format!("/v1/repositories/{repo}/packages/{}", names[j % n]),
                        &[],
                    ),
                    200,
                ),
            };
            replay(&mut out, kind, &req, expect, &id, None);
        }
    }
    out
}
