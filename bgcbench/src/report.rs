//! The result line, its provenance line and the statistics behind them.

use std::path::{Path, PathBuf};

use serde::Value;

use crate::Ctx;

/// One run's result: the counts of attempted and failed operations and the
/// metrics, in the order they were added.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one failed operation (with its reason on standard error).
    pub fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("bgcbench: FAILED {what}: {err}");
    }

    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::Number(*value)),
                    ("unit".into(), Value::String(unit.to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            (
                "attempted".into(),
                Value::Number(self.attempted.max(1) as f64),
            ),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json_string()
    }
}

/// The median of `samples` (which must not be empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What a result was measured on: machine, thread count, kernel tier,
/// seed and source revision.
pub fn provenance(ctx: &Ctx) -> String {
    let text = |s: &str| Value::String(s.to_string());
    Value::Object(vec![(
        "provenance".into(),
        Value::Object(vec![
            ("workload".into(), text(ctx.workload.name())),
            ("seed".into(), Value::Number(ctx.seed as f64)),
            ("nproc".into(), Value::Number(ctx.threads as f64)),
            (
                "BGC_NUM_THREADS".into(),
                text(&std::env::var("BGC_NUM_THREADS").unwrap_or_default()),
            ),
            (
                "simd".into(),
                text(bgc_tensor::kernel::simd_level().label()),
            ),
            (
                "commit".into(),
                text(&git_head().unwrap_or_else(|| "unknown".into())),
            ),
            (
                "source_fnv".into(),
                text(&format!("{:016x}", source_fingerprint())),
            ),
        ]),
    )])
    .to_json_string()
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run in an export that has no repository).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
                return Some(id.trim().to_string());
            }
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

/// FNV-1a over the paths and bytes of the measured sources (`crates/`,
/// `shims/` and the root manifests), so an export without `.git` still
/// names what it measured.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
