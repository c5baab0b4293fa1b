//! The correctness gate: what one `bgc ... --format json` document must
//! contain, and a digest of its deterministic part.

use serde::Value;

use crate::workload::{Workload, FLICKR_SEED17};

/// The checked content of one invocation's JSON document.
pub struct Doc {
    /// FNV-1a over every cell's canon, status and result, in canon order.
    /// Attempts, counters and wall clock are left out: they vary by run.
    pub digest: u64,
    pub cells: usize,
    /// The runner's counters (`RunnerStats`).
    pub stats: Value,
}

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parses and checks one document: it must report no cell failure and at
/// least one cell, every cell `ok` or `oom`; large-flickr on seed 17 must
/// also print the reference figures.
pub fn check(stdout: &str, workload: Workload, seed: u64) -> Result<Doc, String> {
    let doc = serde_json::from_str(stdout.trim())
        .map_err(|err| format!("output is not one JSON document: {err}"))?;
    let failures = doc
        .get("outcome")
        .and_then(|o| o.get("cell_failures"))
        .and_then(Value::as_u64)
        .ok_or("output lacks outcome.cell_failures")?;
    if failures != 0 {
        return Err(format!("{failures} cell failures"));
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("output lacks cells")?;
    if cells.is_empty() {
        return Err("output has no cells".into());
    }
    let mut lines = Vec::with_capacity(cells.len());
    for cell in cells {
        let canon = cell.get("cell").and_then(Value::as_str).unwrap_or("");
        let kind = cell
            .get("status")
            .and_then(|s| s.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("");
        if kind != "ok" && kind != "oom" {
            return Err(format!("cell {canon} ended {kind:?}"));
        }
        let result = cell.get("result").unwrap_or(&Value::Null).to_json_string();
        lines.push(format!("{canon}\t{kind}\t{result}\n"));
    }
    lines.sort();
    let digest = lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, line| fnv1a64(h, line.as_bytes()));
    let stats = doc.get("stats").cloned().ok_or("output lacks stats")?;
    if workload == Workload::LargeFlickr && seed == 17 {
        check_flickr_seed17(cells)?;
    }
    Ok(Doc {
        digest,
        cells: cells.len(),
        stats,
    })
}

/// On seed 17 the large-flickr cell must print the reference figures.
fn check_flickr_seed17(cells: &[Value]) -> Result<(), String> {
    let result = cells[0].get("result").ok_or("flickr cell has no result")?;
    let printed: Vec<String> = ["c_cta", "cta", "c_asr", "asr"]
        .iter()
        .map(|k| {
            let v = result.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            format!("{:.2}", v * 100.0)
        })
        .collect();
    if printed != FLICKR_SEED17 {
        return Err(format!(
            "large-flickr seed 17 printed C-CTA/CTA/C-ASR/ASR {printed:?}, expected {FLICKR_SEED17:?}"
        ));
    }
    Ok(())
}

/// A counter of the runner's stats (0 when absent).
pub fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}
