//! The on-disk store: verified reads, atomic writes, single-flight locks.
//!
//! File layout under the store root (flat, one directory):
//!
//! * `<hash16>.art` — live artifacts (header + canon + payload, see below)
//! * `<hash16>.art.tmp-<pid>` — in-flight writes, atomically renamed
//! * `<hash16>.art.corrupt` — quarantined artifacts awaiting recompute
//! * `<hash16>.lock` — single-flight advisory locks (content: holder pid)
//!
//! Every operation degrades instead of failing: a read-only root, a full
//! disk, a lock that cannot be acquired before the deadline, or a corrupt
//! file all downgrade to in-process compute with a one-line warning.  The
//! store is an accelerator, never a correctness dependency.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use bgc_runtime::{fault, relock};

use crate::key::{fnv1a64, StoreKey};

/// Magic prefix of every artifact header line.
pub const ARTIFACT_MAGIC: &str = "#bgc-artifact";

/// Artifact container format version (bump when the framing changes).
pub const ARTIFACT_VERSION: u64 = 1;

/// Environment variable overriding the default store root.
pub const STORE_DIR_ENV: &str = "BGC_STORE_DIR";

/// The store root used when none is configured: `BGC_STORE_DIR` if set,
/// otherwise the workspace-relative `target/store`.
pub fn default_store_root() -> PathBuf {
    match std::env::var_os(STORE_DIR_ENV) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/store"),
    }
}

/// Tunable timing of the single-flight protocol.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// How long a waiter blocks on another holder's lock before degrading to
    /// local compute.
    pub lock_timeout: Duration,
    /// Age after which a lock whose holder cannot be pid-probed is presumed
    /// abandoned and recovered.  (Provably dead holders are recovered
    /// immediately, regardless of age.)
    pub lock_lease: Duration,
    /// Poll interval while waiting on a lock.
    pub poll: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            lock_timeout: Duration::from_secs(120),
            lock_lease: Duration::from_secs(600),
            poll: Duration::from_millis(25),
        }
    }
}

/// How a [`Store::get_or_compute`] request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreRole {
    /// Decoded from a stored artifact (ours or another process's).
    Hit,
    /// Computed here; the artifact was persisted (or the value is not
    /// persistable, see [`Store::get_or_compute`]).
    Computed,
    /// Computed here because the store was unavailable (lock timeout,
    /// I/O failure, read-only root) or the publish failed; nothing was
    /// persisted.
    Degraded,
}

/// Monotonic counters of one store handle's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Requests served from a stored artifact.
    pub hits: usize,
    /// Requests computed and persisted here.
    pub computed: usize,
    /// Requests that degraded to unpersisted local compute.
    pub degraded: usize,
    /// Corrupt or undecodable artifacts quarantined.
    pub quarantined: usize,
    /// Abandoned locks recovered from dead or expired holders.
    pub stale_locks_recovered: usize,
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    config: StoreConfig,
    hits: AtomicUsize,
    computed: AtomicUsize,
    degraded: AtomicUsize,
    quarantined: AtomicUsize,
    stale_locks: AtomicUsize,
    warned: Mutex<BTreeSet<String>>,
}

impl Store {
    /// Opens (lazily — the directory is created on first write) a store at
    /// `root` and sweeps leftovers of provably dead processes.
    pub fn open(root: impl Into<PathBuf>) -> Arc<Store> {
        Self::with_config(root, StoreConfig::default())
    }

    /// [`Store::open`] with explicit timing configuration.
    pub fn with_config(root: impl Into<PathBuf>, config: StoreConfig) -> Arc<Store> {
        let store = Arc::new(Store {
            root: root.into(),
            config,
            hits: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            stale_locks: AtomicUsize::new(0),
            warned: Mutex::new(BTreeSet::new()),
        });
        store.sweep_dead_leftovers();
        store
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The timing configuration in effect.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Snapshot of this handle's activity counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Acquire),
            computed: self.computed.load(Ordering::Acquire),
            degraded: self.degraded.load(Ordering::Acquire),
            quarantined: self.quarantined.load(Ordering::Acquire),
            stale_locks_recovered: self.stale_locks.load(Ordering::Acquire),
        }
    }

    /// Serves `key` from the store, computing (and persisting) it on a miss.
    ///
    /// * `decode` turns stored payload bytes back into a value; `None` marks
    ///   the artifact undecodable (it is quarantined and recomputed).
    /// * `encode` turns a computed value into payload bytes; `None` marks the
    ///   value unpersistable (failed computations, open-facade providers
    ///   without a snapshot) — it is returned but never stored, and
    ///   single-flight does not extend to it.
    /// * `compute` runs at most once per call, on misses and degradations.
    ///
    /// Cross-process single-flight: concurrent requests for the same key
    /// elect one computing holder via an `O_EXCL` lock file; everyone else
    /// blocks (with a deadline) until the artifact appears, then decodes it.
    pub fn get_or_compute<T>(
        &self,
        key: &StoreKey,
        decode: impl Fn(&[u8]) -> Option<T>,
        encode: impl Fn(&T) -> Option<Vec<u8>>,
        compute: impl FnOnce() -> T,
    ) -> (T, StoreRole) {
        // Fast path: an existing, verified, decodable artifact.
        match self.read_artifact(key) {
            Ok(Some(bytes)) => {
                if let Some(value) = self.decode_or_quarantine(key, &bytes, &decode) {
                    return (value, self.count_hit());
                }
            }
            Ok(None) => {}
            Err(reason) => {
                self.warn_once("read", &reason);
                return (compute(), self.count_degraded());
            }
        }

        // Single-flight: elect a holder, or wait for one with a deadline.
        let deadline = Instant::now() + self.config.lock_timeout;
        loop {
            match self.try_lock(key) {
                Err(reason) => {
                    self.warn_once("lock", &reason);
                    return (compute(), self.count_degraded());
                }
                Ok(Some(_guard)) => {
                    // Double-check: the previous holder may have published
                    // between our read and our acquisition.
                    if let Ok(Some(bytes)) = self.read_artifact(key) {
                        if let Some(value) = self.decode_or_quarantine(key, &bytes, &decode) {
                            return (value, self.count_hit());
                        }
                    }
                    let value = compute();
                    if let Some(payload) = encode(&value) {
                        if let Err(reason) = self.write_artifact(key, &payload) {
                            self.warn_once("write", &reason);
                            return (value, self.count_degraded());
                        }
                    }
                    return (value, self.count_computed());
                }
                Ok(None) => {
                    // Lock held elsewhere: recover it if the holder died,
                    // otherwise wait for the artifact (or the deadline).
                    let lock = self.lock_path(key);
                    if self.lock_is_stale(&lock) {
                        self.stale_locks.fetch_add(1, Ordering::AcqRel);
                        self.warn_once(
                            "stale-lock",
                            &format!("recovered abandoned lock {}", lock.display()),
                        );
                        let _ = fs::remove_file(&lock);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        self.warn_once(
                            "lock-timeout",
                            &format!(
                                "gave up waiting on {} after {:?}; computing locally",
                                lock.display(),
                                self.config.lock_timeout
                            ),
                        );
                        return (compute(), self.count_degraded());
                    }
                    std::thread::sleep(self.config.poll);
                    match self.read_artifact(key) {
                        Ok(Some(bytes)) => {
                            if let Some(value) = self.decode_or_quarantine(key, &bytes, &decode) {
                                return (value, self.count_hit());
                            }
                        }
                        Ok(None) => {}
                        Err(reason) => {
                            self.warn_once("read", &reason);
                            return (compute(), self.count_degraded());
                        }
                    }
                }
            }
        }
    }

    /// Reads and verifies the artifact for `key`.  `Ok(None)` is a clean
    /// miss (including after quarantining a corrupt file); `Err` means the
    /// store itself is unusable.
    pub fn read_artifact(&self, key: &StoreKey) -> Result<Option<Vec<u8>>, String> {
        let path = self.artifact_path(key);
        fault::fire_io("store.read").map_err(|e| format!("{}: {}", path.display(), e))?;
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {}: {}", path.display(), e)),
        };
        match parse_artifact(&bytes, Some(key.canon())) {
            Ok(payload) => Ok(Some(payload)),
            Err(reason) => {
                self.quarantine(&path, &reason);
                Ok(None)
            }
        }
    }

    /// Atomically publishes `payload` as the artifact for `key`:
    /// temp file, integrity header, `store.write` fault window, rename.
    pub fn write_artifact(&self, key: &StoreKey, payload: &[u8]) -> Result<(), String> {
        fs::create_dir_all(&self.root)
            .map_err(|e| format!("create {}: {}", self.root.display(), e))?;
        let path = self.artifact_path(key);
        let tmp = self
            .root
            .join(format!("{}.tmp-{}", key.file_name(), std::process::id()));
        let sealed = seal_artifact(key.canon(), payload);
        let result = fs::write(&tmp, &sealed)
            .map_err(|e| format!("write {}: {}", tmp.display(), e))
            .and_then(|()| {
                fault::fire_io("store.write").map_err(|e| format!("{}: {}", tmp.display(), e))
            })
            .and_then(|()| {
                fs::rename(&tmp, &path)
                    .map_err(|e| format!("rename {} -> {}: {}", tmp.display(), path.display(), e))
            });
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Renames a damaged artifact to `<name>.corrupt` so the next request
    /// recomputes it; `bgc store gc` removes quarantined files.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.quarantined.fetch_add(1, Ordering::AcqRel);
        let target = corrupt_path(path);
        let moved = fs::rename(path, &target).is_ok();
        self.warn_once(
            "quarantine",
            &format!(
                "quarantined {} ({}){}",
                path.display(),
                reason,
                if moved {
                    ""
                } else {
                    "; rename failed, ignoring file"
                }
            ),
        );
    }

    fn decode_or_quarantine<T>(
        &self,
        key: &StoreKey,
        bytes: &[u8],
        decode: &impl Fn(&[u8]) -> Option<T>,
    ) -> Option<T> {
        match decode(bytes) {
            Some(value) => Some(value),
            None => {
                // The container verified but the payload codec rejected it —
                // a format change without an epoch bump.  Quarantine so the
                // next attempt recomputes.
                self.quarantine(&self.artifact_path(key), "undecodable payload");
                None
            }
        }
    }

    /// Attempts to acquire the single-flight lock for `key`.
    /// `Ok(None)` means another holder owns it.
    fn try_lock(&self, key: &StoreKey) -> Result<Option<LockGuard>, String> {
        let path = self.lock_path(key);
        fault::fire_io("store.lock").map_err(|e| format!("{}: {}", path.display(), e))?;
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best-effort holder identity; an unreadable lock file
                    // still protects via the mtime lease.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(Some(LockGuard { path }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && attempt == 0 => {
                    fs::create_dir_all(&self.root)
                        .map_err(|e| format!("create {}: {}", self.root.display(), e))?;
                }
                Err(e) => return Err(format!("lock {}: {}", path.display(), e)),
            }
        }
        Ok(None)
    }

    /// Whether a held lock is abandoned: its recorded holder is provably
    /// dead (pid probe), or it cannot be attributed and is older than the
    /// lease.
    fn lock_is_stale(&self, path: &Path) -> bool {
        let holder = fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        if let Some(pid) = holder {
            if pid == std::process::id() {
                // Our own pid: another thread of this process is computing.
                return false;
            }
            if pid_probe_available() {
                return !pid_alive(pid);
            }
        }
        // Unknown holder (unreadable/empty lock, or no /proc): fall back to
        // the lease.  A vanished lock (NotFound mtime) is not stale — the
        // holder just released it.
        match file_age(path) {
            Some(age) => age > self.config.lock_lease,
            None => false,
        }
    }

    /// Whether the file `name` at `path` is a leftover of a dead process: a
    /// `.tmp-<pid>` file whose writer is provably dead, or a stale lock.
    /// Both the sweep at open and `gc` reclaim these.
    pub(crate) fn is_dead_leftover(&self, name: &str, path: &Path) -> bool {
        match tmp_file_pid(name) {
            Some(pid) => pid != std::process::id() && pid_probe_available() && !pid_alive(pid),
            None => name.ends_with(".lock") && self.lock_is_stale(path),
        }
    }

    /// Removes the leftovers of dead processes ([`Store::is_dead_leftover`]).
    /// Runs at open so the next run after a crash starts from a healthy
    /// store.
    fn sweep_dead_leftovers(&self) {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if self.is_dead_leftover(&name, &path) {
                if name.ends_with(".lock") {
                    self.stale_locks.fetch_add(1, Ordering::AcqRel);
                }
                let _ = fs::remove_file(&path);
            }
        }
    }

    pub(crate) fn artifact_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    fn lock_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!("{:016x}.lock", key.hash()))
    }

    fn count_hit(&self) -> StoreRole {
        self.hits.fetch_add(1, Ordering::AcqRel);
        StoreRole::Hit
    }

    fn count_computed(&self) -> StoreRole {
        self.computed.fetch_add(1, Ordering::AcqRel);
        StoreRole::Computed
    }

    fn count_degraded(&self) -> StoreRole {
        self.degraded.fetch_add(1, Ordering::AcqRel);
        StoreRole::Degraded
    }

    /// Emits one warning per (class, message) pair per handle, so a grid of
    /// thousands of cells over a broken store stays readable.
    fn warn_once(&self, class: &str, message: &str) {
        let tag = format!("{}:{}", class, message);
        let fresh = relock(&self.warned).insert(tag);
        if fresh {
            eprintln!("warning: store: {}", message);
        }
    }

    /// Increments the quarantine counter for admin-driven quarantines.
    pub(crate) fn note_quarantine(&self, path: &Path, reason: &str) {
        self.quarantine(path, reason);
    }
}

/// RAII single-flight lock: removing the lock file releases waiters.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Frames `payload` with the store's integrity header (a length-framed
/// digest, so truncation anywhere is detectable):
///
/// ```text
/// #bgc-artifact v1 len=<payload-len hex16> fnv1a64=<digest hex16>\n
/// <canon>\n
/// <payload bytes>
/// ```
///
/// The digest covers `<canon>\n<payload>`.
pub fn seal_artifact(canon: &str, payload: &[u8]) -> Vec<u8> {
    let mut digest_input = Vec::with_capacity(canon.len() + 1 + payload.len());
    digest_input.extend_from_slice(canon.as_bytes());
    digest_input.push(b'\n');
    digest_input.extend_from_slice(payload);
    let digest = fnv1a64(&digest_input);
    let header = format!(
        "{} v{} len={:016x} fnv1a64={:016x}\n",
        ARTIFACT_MAGIC,
        ARTIFACT_VERSION,
        payload.len(),
        digest
    );
    let mut out = Vec::with_capacity(header.len() + digest_input.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&digest_input);
    out
}

/// Verifies an artifact file and returns its payload.  When `expect_canon`
/// is given, a canon mismatch (hash collision or misplaced file) is an
/// error.  On success with `expect_canon == None`, callers can re-derive
/// the canon via [`parse_artifact_canon`].
pub fn parse_artifact(bytes: &[u8], expect_canon: Option<&str>) -> Result<Vec<u8>, String> {
    let (canon, payload) = split_artifact(bytes)?;
    if let Some(expected) = expect_canon {
        if canon != expected {
            return Err(format!(
                "canon mismatch (stored key '{}' does not match requested key)",
                canon
            ));
        }
    }
    Ok(payload.to_vec())
}

/// The stored canon of a verified artifact (doctor and stats use this to
/// attribute files to stages without knowing the keys).
pub fn parse_artifact_canon(bytes: &[u8]) -> Result<String, String> {
    let (canon, _) = split_artifact(bytes)?;
    Ok(canon.to_string())
}

fn split_artifact(bytes: &[u8]) -> Result<(&str, &[u8]), String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("truncated: no header line")?;
    let header = std::str::from_utf8(&bytes[..header_end]).map_err(|_| "malformed header")?;
    let mut parts = header.split(' ');
    if parts.next() != Some(ARTIFACT_MAGIC) {
        return Err("missing artifact magic".to_string());
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or("malformed version")?;
    if version != ARTIFACT_VERSION {
        return Err(format!("stale artifact version v{}", version));
    }
    let len = parts
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("malformed length")? as usize;
    let digest = parts
        .next()
        .and_then(|v| v.strip_prefix("fnv1a64="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("malformed digest")?;
    let rest = &bytes[header_end + 1..];
    let canon_end = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("truncated: no canon line")?;
    let canon = std::str::from_utf8(&rest[..canon_end]).map_err(|_| "malformed canon")?;
    let payload = &rest[canon_end + 1..];
    if payload.len() != len {
        return Err(format!(
            "length mismatch: header says {} bytes, file has {}",
            len,
            payload.len()
        ));
    }
    if fnv1a64(rest) != digest {
        return Err("integrity digest mismatch".to_string());
    }
    Ok((canon, payload))
}

/// The quarantine name of a damaged artifact.
pub(crate) fn corrupt_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    PathBuf::from(name)
}

/// The pid suffix of an in-flight temp file name, if `name` is one.
pub(crate) fn tmp_file_pid(name: &str) -> Option<u32> {
    let (_, pid) = name.split_once(".art.tmp-")?;
    pid.parse().ok()
}

/// Whether pid liveness can be probed on this platform.
fn pid_probe_available() -> bool {
    Path::new("/proc/self").exists()
}

/// Whether `pid` is a live process (Linux `/proc` probe).
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Age of a file per its mtime; `None` when unreadable (vanished) or when
/// the clock went backwards.
pub(crate) fn file_age(path: &Path) -> Option<Duration> {
    let modified = fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(modified).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn temp_store(tag: &str) -> (PathBuf, Arc<Store>) {
        let dir =
            std::env::temp_dir().join(format!("bgc-store-test-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (dir.clone(), Store::open(dir))
    }

    fn key(name: &str) -> StoreKey {
        KeyBuilder::new("clean", 1).field("dataset", name).build()
    }

    #[allow(clippy::type_complexity, reason = "a decode/encode closure pair")]
    fn text_codec() -> (
        impl Fn(&[u8]) -> Option<String>,
        impl Fn(&String) -> Option<Vec<u8>>,
    ) {
        (
            |b: &[u8]| String::from_utf8(b.to_vec()).ok(),
            |s: &String| Some(s.as_bytes().to_vec()),
        )
    }

    #[test]
    fn seal_and_parse_round_trip_binary_payloads() {
        let payload: Vec<u8> = (0..=255u8).chain([b'\n', 0, b'\n']).collect();
        let sealed = seal_artifact("k1|clean|ep=1|x=1", &payload);
        let back = parse_artifact(&sealed, Some("k1|clean|ep=1|x=1")).expect("parses");
        assert_eq!(back, payload);
        assert_eq!(
            parse_artifact_canon(&sealed).expect("canon"),
            "k1|clean|ep=1|x=1"
        );
    }

    #[test]
    fn parse_rejects_truncation_corruption_and_collisions() {
        let sealed = seal_artifact("k1|clean|ep=1|x=1", b"payload");
        assert!(parse_artifact(&sealed[..sealed.len() - 1], None).is_err());
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(parse_artifact(&flipped, None).is_err());
        assert!(parse_artifact(&sealed, Some("k1|clean|ep=1|x=2")).is_err());
        assert!(parse_artifact(b"not an artifact", None).is_err());
    }

    #[test]
    fn miss_computes_then_hit_decodes_the_same_value() {
        let (_dir, store) = temp_store("roundtrip");
        let (decode, encode) = text_codec();
        let k = key("cora");
        let (v1, role1) = store.get_or_compute(&k, &decode, &encode, || "value-1".to_string());
        assert_eq!((v1.as_str(), role1), ("value-1", StoreRole::Computed));
        let (v2, role2) = store.get_or_compute(&k, &decode, &encode, || "value-2".to_string());
        assert_eq!(
            (v2.as_str(), role2),
            ("value-1", StoreRole::Hit),
            "the second compute never runs"
        );
        let counters = store.counters();
        assert_eq!((counters.hits, counters.computed), (1, 1));
    }

    #[test]
    fn corrupt_artifacts_are_quarantined_and_recomputed() {
        let (dir, store) = temp_store("quarantine");
        let (decode, encode) = text_codec();
        let k = key("cora");
        store.get_or_compute(&k, &decode, &encode, || "good".to_string());
        let path = dir.join(k.file_name());
        let mut bytes = fs::read(&path).expect("artifact");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).expect("corrupt");
        let (v, role) = store.get_or_compute(&k, &decode, &encode, || "recomputed".to_string());
        assert_eq!((v.as_str(), role), ("recomputed", StoreRole::Computed));
        assert!(!path.exists() || parse_artifact(&fs::read(&path).unwrap(), None).is_ok());
        assert!(corrupt_path(&path).exists(), "quarantined copy kept for gc");
        assert_eq!(store.counters().quarantined, 1);
    }

    #[test]
    fn unpersistable_values_are_returned_but_not_stored() {
        let (dir, store) = temp_store("unpersistable");
        let decode = |b: &[u8]| String::from_utf8(b.to_vec()).ok();
        let encode = |_: &String| None;
        let k = key("cora");
        let (_, role) = store.get_or_compute(&k, decode, encode, || "ephemeral".to_string());
        assert_eq!(role, StoreRole::Computed);
        assert!(!dir.join(k.file_name()).exists());
        assert!(!dir.join(format!("{:016x}.lock", k.hash())).exists());
    }

    #[test]
    fn dead_holder_locks_are_recovered() {
        let (dir, store) = temp_store("stale-lock");
        fs::create_dir_all(&dir).expect("root");
        let k = key("cora");
        // Plant a lock from a pid that cannot be alive (pid_max on Linux is
        // < 2^22 by default; u32::MAX - 7 is certainly vacant).
        fs::write(dir.join(format!("{:016x}.lock", k.hash())), "4294967288").expect("plant");
        let (decode, encode) = text_codec();
        let (v, role) = store.get_or_compute(&k, &decode, &encode, || "won".to_string());
        assert_eq!((v.as_str(), role), ("won", StoreRole::Computed));
        assert_eq!(store.counters().stale_locks_recovered, 1);
        assert!(!dir.join(format!("{:016x}.lock", k.hash())).exists());
    }

    #[test]
    fn live_foreign_locks_block_until_timeout_then_degrade() {
        let dir =
            std::env::temp_dir().join(format!("bgc-store-test-timeout-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("root");
        let store = Store::with_config(
            dir.clone(),
            StoreConfig {
                lock_timeout: Duration::from_millis(120),
                lock_lease: Duration::from_secs(600),
                poll: Duration::from_millis(10),
            },
        );
        let k = key("cora");
        // A lock attributed to a live process (pid 1 / init always exists)
        // that never publishes: waiters must degrade, not deadlock or steal.
        fs::write(dir.join(format!("{:016x}.lock", k.hash())), "1").expect("plant");
        let started = Instant::now();
        let (v, role) = store.get_or_compute(
            &k,
            |b: &[u8]| String::from_utf8(b.to_vec()).ok(),
            |s: &String| Some(s.as_bytes().to_vec()),
            || "local".to_string(),
        );
        assert_eq!((v.as_str(), role), ("local", StoreRole::Degraded));
        assert!(started.elapsed() >= Duration::from_millis(120));
        assert!(
            dir.join(format!("{:016x}.lock", k.hash())).exists(),
            "a live holder's lock is never stolen"
        );
    }

    #[test]
    fn concurrent_threads_single_flight_through_the_lock() {
        let (_dir, store) = temp_store("threads");
        let k = key("cora");
        let computes = Arc::new(AtomicUsize::new(0));
        let values: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let k = k.clone();
                    let computes = Arc::clone(&computes);
                    scope.spawn(move || {
                        let (v, _) = store.get_or_compute(
                            &k,
                            |b: &[u8]| String::from_utf8(b.to_vec()).ok(),
                            |s: &String| Some(s.as_bytes().to_vec()),
                            || {
                                computes.fetch_add(1, Ordering::AcqRel);
                                std::thread::sleep(Duration::from_millis(30));
                                "shared".to_string()
                            },
                        );
                        v
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|v| v == "shared"));
        assert_eq!(
            computes.load(Ordering::Acquire),
            1,
            "exactly one thread computed"
        );
    }

    #[test]
    fn read_only_store_degrades_to_local_compute() {
        let (_dir, _) = temp_store("noop");
        // A root that cannot be created (a file stands in its way).
        let blocked =
            std::env::temp_dir().join(format!("bgc-store-test-blocked-{}", std::process::id()));
        let _ = fs::remove_dir_all(&blocked);
        let _ = fs::remove_file(&blocked);
        fs::write(&blocked, "not a directory").expect("blocker");
        let store = Store::open(blocked.join("store"));
        let (decode, encode) = text_codec();
        let k = key("cora");
        let (v, role) = store.get_or_compute(&k, &decode, &encode, || "fallback".to_string());
        assert_eq!((v.as_str(), role), ("fallback", StoreRole::Degraded));
        let (v, role) = store.get_or_compute(&k, &decode, &encode, || "fallback-2".to_string());
        assert_eq!((v.as_str(), role), ("fallback-2", StoreRole::Degraded));
    }

    #[test]
    fn injected_write_fault_leaves_no_live_artifact() {
        use bgc_runtime::fault::{FaultAction, FaultPlan, FaultSpec};
        let (dir, store) = temp_store("write-fault");
        let plan = FaultPlan::new().with(FaultSpec::new("store.write", FaultAction::IoError));
        let _scope = plan.enter("test");
        let (decode, encode) = text_codec();
        let k = key("cora");
        let (v, role) = store.get_or_compute(&k, &decode, &encode, || "computed".to_string());
        assert_eq!(
            (v.as_str(), role),
            ("computed", StoreRole::Degraded),
            "a failed publish persisted nothing"
        );
        assert_eq!(store.counters().degraded, 1);
        assert!(!dir.join(k.file_name()).exists(), "rename never happened");
        assert!(
            fs::read_dir(&dir)
                .map(|entries| entries
                    .flatten()
                    .all(|e| !e.file_name().to_string_lossy().contains(".tmp-")))
                .unwrap_or(true),
            "failed writes clean up their temp file"
        );
        drop(_scope);
        // The fault is spent: the next request computes and persists.
        let (_, role) = store.get_or_compute(&k, &decode, &encode, || "computed-2".to_string());
        assert_eq!(role, StoreRole::Computed);
        assert!(dir.join(k.file_name()).exists());
    }
}
