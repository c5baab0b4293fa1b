//! Administrative operations over a store directory: `stats`, `gc`,
//! `doctor`, `clear`.  All scans iterate in sorted name order and report
//! through [`StoreReport`], so output is deterministic given the same store
//! contents.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use crate::key::fnv1a64;
use crate::store::{file_age, parse_artifact_canon, tmp_file_pid, Store};

/// The outcome of one administrative operation, rendered by the CLI
/// (human) and `report_json` (`--format json`) alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Which operation ran: `stats`, `gc`, `doctor` or `clear`.
    pub action: String,
    /// The store root the operation ran against.
    pub root: String,
    /// Live artifacts present after the operation.
    pub artifacts: usize,
    /// Total bytes of live artifacts.
    pub bytes: u64,
    /// Live artifact count per stage (from each artifact's stored canon).
    pub stages: BTreeMap<String, usize>,
    /// Lock files still present (live holders).
    pub locks: usize,
    /// In-flight temp files still present (live writers).
    pub tmp_files: usize,
    /// Quarantined `.corrupt` files still present.
    pub corrupt: usize,
    /// Artifacts whose integrity verified (doctor only).
    pub verified: usize,
    /// Files removed by this operation, sorted.
    pub removed: Vec<String>,
    /// Files newly quarantined by this operation, sorted.
    pub quarantined: Vec<String>,
}

impl StoreReport {
    /// Whether the store is fully healthy: nothing quarantined, nothing
    /// corrupt left behind, no stale state removed.
    pub fn healthy(&self) -> bool {
        self.corrupt == 0 && self.quarantined.is_empty()
    }
}

/// One classified directory entry.
enum EntryKind {
    Artifact,
    Lock,
    Tmp(Option<u32>),
    Corrupt,
    Other,
}

fn classify(name: &str) -> EntryKind {
    if name.ends_with(".corrupt") {
        EntryKind::Corrupt
    } else if name.contains(".art.tmp-") {
        EntryKind::Tmp(tmp_file_pid(name))
    } else if name.ends_with(".lock") {
        EntryKind::Lock
    } else if name.ends_with(".art") {
        EntryKind::Artifact
    } else {
        EntryKind::Other
    }
}

/// Sorted file names under `root`; empty when the directory is missing.
fn sorted_entries(root: &std::path::Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(format!("read {}: {}", root.display(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {}", root.display(), e))?;
        out.push((
            entry.file_name().to_string_lossy().into_owned(),
            entry.path(),
        ));
    }
    out.sort();
    Ok(out)
}

/// The stage segment of a stored canon (`k1|<stage>|ep=…`).
fn canon_stage(canon: &str) -> String {
    canon.split('|').nth(1).unwrap_or("unknown").to_string()
}

impl Store {
    /// Counts artifacts (per stage), locks, temp and quarantined files.
    /// Read-only.
    pub fn stats(&self) -> Result<StoreReport, String> {
        let mut report = self.base_report("stats");
        for (name, path) in sorted_entries(self.root())? {
            match classify(&name) {
                EntryKind::Artifact => {
                    report.artifacts += 1;
                    if let Ok(meta) = fs::metadata(&path) {
                        report.bytes += meta.len();
                    }
                    let stage = fs::read(&path)
                        .ok()
                        .and_then(|bytes| parse_artifact_canon(&bytes).ok())
                        .map(|canon| canon_stage(&canon))
                        .unwrap_or_else(|| "unverified".to_string());
                    *report.stages.entry(stage).or_insert(0) += 1;
                }
                EntryKind::Lock => report.locks += 1,
                EntryKind::Tmp(_) => report.tmp_files += 1,
                EntryKind::Corrupt => report.corrupt += 1,
                EntryKind::Other => {}
            }
        }
        Ok(report)
    }

    /// Removes reclaimable state: the leftovers of dead processes that the
    /// sweep at open removes too (dead-writer temp files, abandoned locks),
    /// plus quarantined files and unattributable temp files older than the
    /// lock lease.  Live writers and holders are left alone.
    pub fn gc(&self) -> Result<StoreReport, String> {
        let mut removed = Vec::new();
        for (name, path) in sorted_entries(self.root())? {
            let reclaim = match classify(&name) {
                EntryKind::Corrupt => true,
                EntryKind::Tmp(None) => {
                    file_age(&path).is_some_and(|age| age > self.config().lock_lease)
                }
                EntryKind::Tmp(Some(_)) | EntryKind::Lock => self.is_dead_leftover(&name, &path),
                EntryKind::Artifact | EntryKind::Other => false,
            };
            if reclaim && fs::remove_file(&path).is_ok() {
                removed.push(name);
            }
        }
        let mut report = self.stats()?;
        report.action = "gc".to_string();
        report.removed = removed;
        Ok(report)
    }

    /// `gc`, plus a full integrity pass: every artifact is read, its
    /// digest, framing and name-to-canon address are verified, and damaged
    /// files are quarantined for recompute.
    pub fn doctor(&self) -> Result<StoreReport, String> {
        let swept = self.gc()?;
        let mut quarantined = Vec::new();
        let mut verified = 0usize;
        for (name, path) in sorted_entries(self.root())? {
            if !matches!(classify(&name), EntryKind::Artifact) {
                continue;
            }
            let verdict = fs::read(&path)
                .map_err(|e| format!("unreadable: {}", e))
                .and_then(|bytes| parse_artifact_canon(&bytes))
                .and_then(|canon| {
                    let expected = format!("{:016x}.art", fnv1a64(canon.as_bytes()));
                    if expected == name {
                        Ok(())
                    } else {
                        Err(format!("misaddressed: canon hashes to {}", expected))
                    }
                });
            match verdict {
                Ok(()) => verified += 1,
                Err(reason) => {
                    self.note_quarantine(&path, &reason);
                    quarantined.push(name);
                }
            }
        }
        let mut report = self.stats()?;
        report.action = "doctor".to_string();
        report.removed = swept.removed;
        report.quarantined = quarantined;
        report.verified = verified;
        Ok(report)
    }

    /// Removes every store-owned file (artifacts, locks, temp, quarantine)
    /// and the root directory when it ends up empty.
    pub fn clear(&self) -> Result<StoreReport, String> {
        let mut removed = Vec::new();
        for (name, path) in sorted_entries(self.root())? {
            if matches!(classify(&name), EntryKind::Other) {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                removed.push(name);
            }
        }
        let _ = fs::remove_dir(self.root());
        let mut report = self.base_report("clear");
        report.removed = removed;
        Ok(report)
    }

    fn base_report(&self, action: &str) -> StoreReport {
        StoreReport {
            action: action.to_string(),
            root: self.root().display().to_string(),
            ..StoreReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;
    use std::sync::Arc;

    fn temp_store(tag: &str) -> (PathBuf, Arc<Store>) {
        let dir =
            std::env::temp_dir().join(format!("bgc-store-admin-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (dir.clone(), Store::open(dir))
    }

    fn put(store: &Store, dataset: &str, stage: &str) {
        let key = KeyBuilder::new(stage, 1).field("dataset", dataset).build();
        store
            .write_artifact(&key, format!("payload-{}", dataset).as_bytes())
            .expect("write");
    }

    #[test]
    fn stats_count_artifacts_by_stage() {
        let (_dir, store) = temp_store("stats");
        put(&store, "cora", "clean");
        put(&store, "citeseer", "clean");
        put(&store, "cora", "attack");
        let report = store.stats().expect("stats");
        assert_eq!(report.action, "stats");
        assert_eq!(report.artifacts, 3);
        assert!(report.bytes > 0);
        assert_eq!(report.stages.get("clean"), Some(&2));
        assert_eq!(report.stages.get("attack"), Some(&1));
        assert_eq!((report.locks, report.tmp_files, report.corrupt), (0, 0, 0));
        assert!(report.healthy());
    }

    #[test]
    fn gc_reclaims_corrupt_dead_tmp_and_dead_locks_only() {
        let (dir, store) = temp_store("gc");
        put(&store, "cora", "clean");
        fs::write(dir.join("0000000000000001.art.corrupt"), "junk").unwrap();
        fs::write(dir.join("0000000000000002.art.tmp-4294967288"), "junk").unwrap();
        fs::write(
            dir.join(format!("0000000000000003.art.tmp-{}", std::process::id())),
            "live",
        )
        .unwrap();
        fs::write(dir.join("0000000000000004.lock"), "4294967288").unwrap();
        fs::write(dir.join("0000000000000005.lock"), "1").unwrap();
        let report = store.gc().expect("gc");
        assert_eq!(
            report.removed,
            vec![
                "0000000000000001.art.corrupt".to_string(),
                "0000000000000002.art.tmp-4294967288".to_string(),
                "0000000000000004.lock".to_string(),
            ]
        );
        assert_eq!(report.artifacts, 1);
        assert_eq!(report.locks, 1, "live holder's lock kept");
        assert_eq!(report.tmp_files, 1, "our own tmp file kept");
    }

    #[test]
    fn doctor_quarantines_damage_and_verifies_the_rest() {
        let (dir, store) = temp_store("doctor");
        put(&store, "cora", "clean");
        put(&store, "citeseer", "clean");
        // Corrupt one artifact in place and plant one misaddressed copy.
        let key = KeyBuilder::new("clean", 1).field("dataset", "cora").build();
        let path = dir.join(key.file_name());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        let good = fs::read(
            dir.join(
                KeyBuilder::new("clean", 1)
                    .field("dataset", "citeseer")
                    .build()
                    .file_name(),
            ),
        )
        .unwrap();
        fs::write(dir.join("00000000deadbeef.art"), &good).unwrap();

        let report = store.doctor().expect("doctor");
        assert_eq!(report.action, "doctor");
        assert_eq!(report.verified, 1);
        assert_eq!(
            report.quarantined,
            vec!["00000000deadbeef.art".to_string(), key.file_name()]
        );
        assert!(!report.healthy());
        // A second doctor pass sweeps the quarantine and reports healthy.
        let report = store.doctor().expect("doctor heals");
        assert_eq!(report.verified, 1);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.corrupt, 0);
        assert!(report.healthy());
    }

    #[test]
    fn clear_empties_the_store() {
        let (dir, store) = temp_store("clear");
        put(&store, "cora", "clean");
        fs::write(dir.join("0000000000000009.lock"), "1").unwrap();
        let report = store.clear().expect("clear");
        assert_eq!(report.removed.len(), 2);
        assert!(!dir.exists());
        let report = store.stats().expect("stats after clear");
        assert_eq!(report.artifacts, 0);
    }

    #[test]
    fn stats_on_a_missing_root_is_empty_not_an_error() {
        let dir =
            std::env::temp_dir().join(format!("bgc-store-admin-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(dir);
        let report = store.stats().expect("stats");
        assert_eq!(report.artifacts, 0);
        assert!(report.healthy());
    }
}
