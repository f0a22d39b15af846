//! Fleet connections: package managers reading the `/v1` API over one
//! keep-alive loopback connection each, checking every response.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tsr_http::router::percent_encode;
use tsr_http::{Client, Response};
use tsr_wire::dto::{HealthDto, PackagePage, WireDto};

use crate::check::{BodyCache, IndexVersion, Ledger};
use crate::plan::{OpKind, ReadOp, PAGE_LIMIT};
use crate::stats::us;

/// Per-request client timeout.
const TIMEOUT: Duration = Duration::from_secs(60);
/// In the traced run, one request in this many is sampled for replay.
pub const SAMPLE_EVERY: u64 = 16;
/// Failure messages kept per connection.
const KEEP_ERRORS: usize = 5;

/// What every connection of a run shares.
pub struct Shared<'a> {
    /// Verified index versions.
    pub ledger: &'a Ledger,
    /// `http://host:port`.
    pub base: &'a str,
    /// Tenant repository id.
    pub repo: &'a str,
    /// Served package names by popularity rank.
    pub names: &'a [String],
}

/// One sampled request of the traced run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request id (sent as `x-request-id`).
    pub req: String,
    /// Op kind.
    pub kind: OpKind,
    /// Request path (with query).
    pub path: String,
    /// `If-None-Match` value sent, if any.
    pub if_none_match: Option<String>,
    /// Status the socket answered with (0 if the request failed).
    pub status: u16,
    /// When the request was sent.
    pub start: Instant,
    /// When the response was read.
    pub end: Instant,
}

/// Tallies of one connection.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Latency of each completed request, µs.
    pub lat_us: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or failed a check.
    pub failed: u64,
    /// Verified body bytes received.
    pub bytes: u64,
    /// 304 answers.
    pub not_modified: u64,
    /// Full index bodies received.
    pub full_index: u64,
    /// Package bodies received.
    pub packages: u64,
    /// How late the generator woke for each paced send, µs.
    pub late_us: Vec<f64>,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Sampled requests (traced run).
    pub samples: Vec<Sample>,
    /// Wall time of the loop.
    pub elapsed: Duration,
}

impl ConnStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: ConnStats) {
        self.lat_us.extend(other.lat_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.not_modified += other.not_modified;
        self.full_index += other.full_index;
        self.packages += other.packages;
        self.late_us.extend(other.late_us);
        for e in other.errors {
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
        self.samples.extend(other.samples);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(e);
        }
    }
}

/// What a checked response delivered.
struct Checked {
    bytes: u64,
    not_modified: bool,
    /// Packages whose content changed, when a newer index arrived.
    changed: Vec<String>,
}

/// One fleet connection.
pub struct Conn<'a> {
    shared: &'a Shared<'a>,
    http: Client,
    prefix: String,
    known: Arc<IndexVersion>,
    bodies: BodyCache,
    id: usize,
    sent: u64,
}

impl<'a> Conn<'a> {
    /// Opens connection `id`, starting from the verified index `known`.
    pub fn new(shared: &'a Shared<'a>, id: usize, known: Arc<IndexVersion>) -> Self {
        Conn {
            shared,
            http: Client::with_keep_alive(TIMEOUT),
            prefix: format!(
                "{}/v1/repositories/{}",
                shared.base,
                percent_encode(shared.repo)
            ),
            known,
            bodies: BodyCache::default(),
            id,
            sent: 0,
        }
    }

    fn package_path(&self, name: &str) -> String {
        format!("{}/packages/{}", self.prefix, percent_encode(name))
    }

    fn target(&self, op: ReadOp) -> String {
        match op {
            ReadOp::Health => format!("{}/v1/healthz", self.shared.base),
            ReadOp::IndexCond | ReadOp::Index => format!("{}/index", self.prefix),
            ReadOp::Page { offset } => {
                let n = self.shared.names.len().max(1) as u32;
                format!(
                    "{}/packages?offset={}&limit={PAGE_LIMIT}",
                    self.prefix,
                    offset % n
                )
            }
            ReadOp::Package { rank } => {
                let names = self.shared.names;
                self.package_path(&names[rank as usize % names.len()])
            }
        }
    }

    /// Sends `op`, checks the answer and records its latency, timed from
    /// `timed_from` when given (a paced due time), else from the send.
    /// Returns the packages a newer index changed.
    pub fn run(
        &mut self,
        op: ReadOp,
        timed_from: Option<Instant>,
        st: &mut ConnStats,
        sample: bool,
    ) -> Vec<String> {
        let url = self.target(op);
        let pkg = match op {
            ReadOp::Package { rank } => {
                let names = self.shared.names;
                Some(names[rank as usize % names.len()].clone())
            }
            _ => None,
        };
        self.send(op, &url, pkg.as_deref(), timed_from, st, sample)
    }

    /// Downloads one package by name (after a new index).
    pub fn fetch_package(&mut self, name: &str, st: &mut ConnStats, sample: bool) {
        let url = self.package_path(name);
        self.send(
            ReadOp::Package { rank: 0 },
            &url,
            Some(name),
            None,
            st,
            sample,
        );
    }

    fn send(
        &mut self,
        op: ReadOp,
        url: &str,
        pkg: Option<&str>,
        timed_from: Option<Instant>,
        st: &mut ConnStats,
        sample: bool,
    ) -> Vec<String> {
        let kind = op.kind();
        st.attempted += 1;
        self.sent += 1;
        let req_id = (sample && self.sent.is_multiple_of(SAMPLE_EVERY))
            .then(|| format!("c{}-{}", self.id, self.sent));
        let inm = (kind == OpKind::IndexCond).then(|| self.known.etag.clone());
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(etag) = &inm {
            headers.push(("if-none-match", etag));
        }
        if let Some(id) = &req_id {
            headers.push(("x-request-id", id));
        }
        let confirmed = self.shared.ledger.confirmed();
        let t0 = Instant::now();
        let resp = self.http.request("GET", url, &[], &headers);
        let t1 = Instant::now();
        let status = resp.as_ref().map_or(0, |r| r.status);
        let checked = resp
            .map_err(|e| format!("GET {url}: {e}"))
            .and_then(|r| self.check(op, url, pkg, r, inm.as_deref(), confirmed));
        let mut changed = Vec::new();
        match checked {
            Ok(c) => {
                st.lat_us.push(us(t1 - timed_from.unwrap_or(t0)));
                st.bytes += c.bytes;
                if c.not_modified {
                    st.not_modified += 1;
                } else if matches!(kind, OpKind::Index | OpKind::IndexCond) {
                    st.full_index += 1;
                } else if kind == OpKind::Package {
                    st.packages += 1;
                }
                changed = c.changed;
            }
            Err(e) => st.fail(e),
        }
        if let Some(req) = req_id {
            let path = url
                .strip_prefix(self.shared.base)
                .unwrap_or(url)
                .to_string();
            st.samples.push(Sample {
                req,
                kind,
                path,
                if_none_match: inm,
                status,
                start: t0,
                end: t1,
            });
        }
        changed
    }

    fn check(
        &mut self,
        op: ReadOp,
        url: &str,
        pkg: Option<&str>,
        resp: Response,
        inm: Option<&str>,
        confirmed: usize,
    ) -> Result<Checked, String> {
        let status = resp.status;
        let body = resp.body.as_slice();
        let done = |bytes: usize| Checked {
            bytes: bytes as u64,
            not_modified: false,
            changed: Vec::new(),
        };
        if status == 304 {
            let Some(sent) = inm else {
                return Err(format!("GET {url}: unconditional request answered 304"));
            };
            let etag = resp.headers.get("etag").map(String::as_str);
            if etag != Some(sent) {
                return Err(format!("GET {url}: 304 carries {etag:?}, sent {sent}"));
            }
            let seq = self.shared.ledger.seq_of(sent).unwrap_or(0);
            if seq < confirmed {
                return Err(format!("GET {url}: 304 for superseded etag {sent}"));
            }
            return Ok(Checked {
                bytes: 0,
                not_modified: true,
                changed: Vec::new(),
            });
        }
        if status != 200 {
            return Err(format!(
                "GET {url}: status {status}: {}",
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ));
        }
        match op {
            ReadOp::Health => {
                let dto = HealthDto::decode(&String::from_utf8_lossy(body))
                    .map_err(|e| format!("health: {e}"))?;
                if dto.status != "ok" {
                    return Err(format!("health status {:?}", dto.status));
                }
                Ok(done(body.len()))
            }
            ReadOp::Index | ReadOp::IndexCond => {
                let etag = resp
                    .headers
                    .get("etag")
                    .ok_or_else(|| format!("GET {url}: index without an etag"))?;
                let v = self.shared.ledger.verify_index(body, etag)?;
                if v.seq < confirmed.max(self.known.seq) {
                    return Err(format!(
                        "GET {url}: served index {etag} is older than one already committed"
                    ));
                }
                let mut changed = Vec::new();
                if v.seq > self.known.seq {
                    changed = v
                        .index
                        .iter()
                        .filter(|e| self.known.hash_of(&e.name) != Some(e.content_hash.as_str()))
                        .map(|e| e.name.clone())
                        .collect();
                    self.known = v;
                }
                Ok(Checked {
                    bytes: body.len() as u64,
                    not_modified: false,
                    changed,
                })
            }
            ReadOp::Page { .. } => {
                let page = PackagePage::decode(&String::from_utf8_lossy(body))
                    .map_err(|e| format!("page: {e}"))?;
                let fits = |v: &IndexVersion| {
                    page.total == v.index.len() as u64
                        && page.items.iter().all(|item| {
                            v.index.get(&item.name).is_some_and(|e| {
                                e.version == item.version && e.content_hash == item.content_hash
                            })
                        })
                };
                // Only versions not older than the one confirmed at send
                // (nor than the connection's own view) may answer.
                let floor = confirmed.max(self.known.seq);
                let matches = |ledger: &Ledger| ledger.since(floor).iter().any(|v| fits(v));
                // A page may come from an index committed after the newest
                // one verified so far: verify the current index, then retry.
                if !matches(self.shared.ledger)
                    && (self.learn_latest().is_err() || !matches(self.shared.ledger))
                {
                    return Err(format!("GET {url}: page matches no verified index"));
                }
                Ok(done(body.len()))
            }
            ReadOp::Package { .. } => {
                let name = pkg.ok_or_else(|| format!("GET {url}: no package name"))?;
                let floor = confirmed.max(self.known.seq);
                if self
                    .bodies
                    .check(self.shared.ledger, floor, name, body)
                    .is_err()
                {
                    // As for pages: the body may belong to an index
                    // committed after the newest verified one.
                    self.learn_latest()?;
                    self.bodies.check(self.shared.ledger, floor, name, body)?;
                }
                Ok(done(body.len()))
            }
        }
    }
}

impl Conn<'_> {
    /// Fetches and verifies the current index into the ledger, outside
    /// the measurement (the connection's own view is not advanced).
    fn learn_latest(&self) -> Result<(), String> {
        let url = format!("{}/index", self.prefix);
        let resp = self.http.get(&url).map_err(|e| format!("GET {url}: {e}"))?;
        let etag = resp
            .headers
            .get("etag")
            .ok_or_else(|| format!("GET {url}: status {} without an etag", resp.status))?;
        self.shared
            .ledger
            .verify_index(resp.body.as_slice(), etag)
            .map(|_| ())
    }
}

/// Sleeps until `at`.
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if now < at {
        std::thread::sleep(at - now);
    }
}

/// Closed loop: sends `ops` one after another, cyclically from
/// `*cursor`, until `until`; leaves `*cursor` at the next op.
pub fn closed_loop(
    conn: &mut Conn<'_>,
    ops: &[ReadOp],
    cursor: &mut usize,
    until: Instant,
    sample: bool,
) -> ConnStats {
    let mut st = ConnStats::default();
    let start = Instant::now();
    while Instant::now() < until {
        conn.run(ops[*cursor % ops.len()], None, &mut st, sample);
        *cursor += 1;
    }
    st.elapsed = start.elapsed();
    st
}

/// Open loop: sends each op at its due offset from `start`, downloading
/// the changed packages whenever a newer index arrives.
///
/// A request whose connection was still busy at its due time is timed
/// from the due time, so a stall counts against every request queued
/// behind it. A request sent on an idle connection is timed from its
/// send; the generator's own wake-up lag is reported as lateness.
pub fn paced_loop(
    conn: &mut Conn<'_>,
    schedule: &[(Duration, ReadOp)],
    start: Instant,
    sample: bool,
) -> ConnStats {
    let mut st = ConnStats::default();
    for &(due, op) in schedule {
        let due_at = start + due;
        let timed_from = if Instant::now() < due_at {
            sleep_until(due_at);
            st.late_us
                .push(us(Instant::now().saturating_duration_since(due_at)));
            None
        } else {
            Some(due_at)
        };
        for name in conn.run(op, timed_from, &mut st, sample) {
            conn.fetch_package(&name, &mut st, sample);
        }
    }
    st.elapsed = start.elapsed();
    st
}
