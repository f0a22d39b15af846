//! Output checks. Every response the benchmark receives is checked here;
//! a failed check counts as a failed operation.
//!
//! - Each distinct index body must verify under the tenant key returned at
//!   creation, and an ETag may never name two different bodies.
//! - Each distinct package body must hash to its entry in a verified index
//!   not older than the newest one the operator had confirmed when the
//!   request was sent (nor than the connection's own newest index); a
//!   repeated body is compared byte for byte with the verified copy.
//! - A 304 must carry the ETag that was sent, and that ETag must not be
//!   older than the newest index the operator had confirmed when the
//!   request was sent.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use tsr_apk::Index;
use tsr_crypto::{hex, RsaPublicKey, Sha256};

/// One verified index version.
#[derive(Debug)]
pub struct IndexVersion {
    /// Position in commit order.
    pub seq: usize,
    /// The ETag it was served under.
    pub etag: String,
    /// The signed index bytes.
    pub raw: Arc<[u8]>,
    /// The parsed, signature-verified index.
    pub index: Index,
}

impl IndexVersion {
    /// The content hash of `name` in this version.
    pub fn hash_of(&self, name: &str) -> Option<&str> {
        self.index.get(name).map(|e| e.content_hash.as_str())
    }
}

#[derive(Default)]
struct LedgerInner {
    versions: Vec<Arc<IndexVersion>>,
    by_etag: HashMap<String, usize>,
    /// Seq of the newest version the operator confirmed after a refresh.
    confirmed: usize,
}

/// The shared record of verified index versions, in commit order.
pub struct Ledger {
    keys: Vec<(String, RsaPublicKey)>,
    inner: Mutex<LedgerInner>,
}

impl Ledger {
    /// A ledger checking indexes against the tenant `keys`.
    pub fn new(keys: Vec<(String, RsaPublicKey)>) -> Self {
        Ledger {
            keys,
            inner: Mutex::new(LedgerInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks an index body served under `etag` and returns its version.
    /// A body seen before is compared byte for byte; a new one must
    /// verify under the tenant key.
    ///
    /// # Errors
    ///
    /// A signature failure, or an ETag reused for different bytes.
    pub fn verify_index(&self, raw: &[u8], etag: &str) -> Result<Arc<IndexVersion>, String> {
        let seen = {
            let inner = self.lock();
            inner
                .by_etag
                .get(etag)
                .map(|&seq| Arc::clone(&inner.versions[seq]))
        };
        if let Some(v) = seen {
            return if *v.raw == *raw {
                Ok(v)
            } else {
                Err(format!("etag {etag} names two different index bodies"))
            };
        }
        let index = Index::parse_signed(raw, &self.keys)
            .map_err(|e| format!("index under etag {etag} does not verify: {e}"))?;
        let mut inner = self.lock();
        if let Some(&seq) = inner.by_etag.get(etag) {
            return Ok(Arc::clone(&inner.versions[seq]));
        }
        let seq = inner.versions.len();
        let v = Arc::new(IndexVersion {
            seq,
            etag: etag.to_string(),
            raw: Arc::from(raw),
            index,
        });
        inner.versions.push(Arc::clone(&v));
        inner.by_etag.insert(etag.to_string(), seq);
        Ok(v)
    }

    /// Marks `v` as the newest committed index (the operator saw it after
    /// its refresh returned).
    pub fn confirm(&self, v: &IndexVersion) {
        let mut inner = self.lock();
        inner.confirmed = inner.confirmed.max(v.seq);
    }

    /// Seq of the newest confirmed version.
    pub fn confirmed(&self) -> usize {
        self.lock().confirmed
    }

    /// The newest confirmed version.
    pub fn latest(&self) -> Option<Arc<IndexVersion>> {
        let inner = self.lock();
        inner.versions.get(inner.confirmed).cloned()
    }

    /// Versions from `seq` on, oldest first.
    pub fn since(&self, seq: usize) -> Vec<Arc<IndexVersion>> {
        self.lock().versions.iter().skip(seq).cloned().collect()
    }

    /// Seq of the version served under `etag`, if verified.
    pub fn seq_of(&self, etag: &str) -> Option<usize> {
        self.lock().by_etag.get(etag).copied()
    }
}

/// Hex SHA-256 of `bytes`.
fn sha256_hex(bytes: &[u8]) -> String {
    hex::to_hex(&Sha256::digest(bytes))
}

/// Per-connection package-body checker with the verified copies.
#[derive(Default)]
pub struct BodyCache {
    verified: HashMap<String, Arc<[u8]>>,
}

impl BodyCache {
    /// Checks the body of `name` against the verified versions a response
    /// may come from: those from seq `floor` on, where `floor` is the
    /// newer of the version confirmed when the request was sent and the
    /// connection's own newest index. A body of a superseded version fails.
    ///
    /// # Errors
    ///
    /// The body matches no entry of `name` in those versions.
    pub fn check(
        &mut self,
        ledger: &Ledger,
        floor: usize,
        name: &str,
        body: &[u8],
    ) -> Result<(), String> {
        let versions = ledger.since(floor);
        let expected = versions.first().and_then(|v| v.hash_of(name));
        if let Some(copy) = expected.and_then(|h| self.verified.get(h)) {
            if **copy == *body {
                return Ok(());
            }
        }
        let got = sha256_hex(body);
        if !versions
            .iter()
            .any(|v| v.hash_of(name) == Some(got.as_str()))
        {
            return Err(format!(
                "{name}: body hash {got} matches no verified index entry from seq {floor} on"
            ));
        }
        self.verified.insert(got, Arc::from(body));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsr_crypto::drbg::HmacDrbg;
    use tsr_crypto::RsaPrivateKey;

    #[test]
    fn a_body_of_a_superseded_version_fails() {
        let key = RsaPrivateKey::generate(512, &mut HmacDrbg::new(b"check-test"));
        let signer = "tsr-test";
        let ledger = Ledger::new(vec![(signer.to_string(), key.public_key().clone())]);
        let (old, new) = (b"old body".to_vec(), b"new body".to_vec());
        let version = |seq: u64, body: &[u8]| {
            let mut index = Index::new();
            index.snapshot = seq;
            index.upsert(Index::entry_for_blob("pkg", "1.0", &[], body));
            let etag = format!("\"v{seq}\"");
            ledger
                .verify_index(&index.sign(&key, signer), &etag)
                .unwrap()
        };
        let v0 = version(0, &old);
        let v1 = version(1, &new);
        let mut bodies = BodyCache::default();
        // Before the refresh is confirmed, the old body is current.
        assert!(bodies.check(&ledger, v0.seq, "pkg", &old).is_ok());
        // A repeat takes the byte-compare path and still passes.
        assert!(bodies.check(&ledger, v0.seq, "pkg", &old).is_ok());
        // A body of the version committed next is also acceptable.
        assert!(bodies.check(&ledger, v0.seq, "pkg", &new).is_ok());
        // Once v1 is confirmed, the old body is stale, even from the
        // verified copy and for a connection whose own view is still v0.
        ledger.confirm(&v1);
        let floor = ledger.confirmed().max(v0.seq);
        assert!(bodies.check(&ledger, floor, "pkg", &old).is_err());
        assert!(bodies.check(&ledger, floor, "pkg", &new).is_ok());
        assert!(bodies.check(&ledger, floor, "other", &new).is_err());
    }
}
