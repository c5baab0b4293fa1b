//! Shared JSON codec for grid reports.
//!
//! One serialization of [`CellStatus`] / [`CellOutcome`] / [`RunnerStats`]
//! / [`StoreReport`] behind the CLI's `--format json` documents.
//!
//! The cell sub-documents are deterministic (canonical key, status, result
//! values); execution metadata that legitimately varies between runs
//! (cache-hit counters, wall clock) is kept in separate fields so callers
//! can diff the deterministic part byte-for-byte across warm and cold runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bgc_runtime::relock;
use bgc_store::StoreReport;
use serde::Value;

use crate::runner::{CellOutcome, CellResult, CellStatus, Runner, RunnerStats, WaveObserver};

fn field(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

fn string(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

/// The status of one cell as a JSON object: `{"kind": "...", ...}` with a
/// `message` for failures/panics and a `limit_ms` for timeouts.
pub fn status_value(status: &CellStatus) -> Value {
    let mut fields = vec![field("kind", string(status.label()))];
    match status {
        CellStatus::Failed(err) => fields.push(field("message", string(err.to_string()))),
        CellStatus::Panicked { message } => fields.push(field("message", string(message.clone()))),
        CellStatus::TimedOut { limit_ms } => {
            fields.push(field("limit_ms", Value::Number(*limit_ms as f64)))
        }
        CellStatus::Ok | CellStatus::Oom | CellStatus::Skipped => {}
    }
    Value::Object(fields)
}

/// One cell of a report: canonical key, status and (for completed cells)
/// the measured [`CellResult`] values.
pub fn outcome_value(outcome: &CellOutcome, result: Option<&CellResult>) -> Value {
    let result_value = result
        .and_then(|r| serde_json::to_value(r).ok())
        .unwrap_or(Value::Null);
    Value::Object(vec![
        field("cell", string(outcome.key.canon())),
        field("status", status_value(&outcome.status)),
        field("result", result_value),
    ])
}

/// The runner's cache/execution counters as a JSON object.
pub fn stats_value(stats: &RunnerStats) -> Value {
    serde_json::to_value(stats).unwrap_or(Value::Null)
}

/// A [`StoreReport`] (from `bgc store stats|gc|doctor|clear`) as a JSON
/// object.  Field order is fixed and the list fields are sorted by the
/// store, so rendering is deterministic.
pub fn store_report_value(report: &StoreReport) -> Value {
    let count = |n: usize| Value::Number(n as f64);
    let names =
        |list: &[String]| Value::Array(list.iter().map(|name| string(name.clone())).collect());
    Value::Object(vec![
        field("action", string(report.action.clone())),
        field("root", string(report.root.clone())),
        field("artifacts", count(report.artifacts)),
        field("bytes", Value::Number(report.bytes as f64)),
        field(
            "stages",
            Value::Object(
                report
                    .stages
                    .iter()
                    .map(|(stage, n)| (stage.clone(), count(*n)))
                    .collect(),
            ),
        ),
        field("locks", count(report.locks)),
        field("tmp_files", count(report.tmp_files)),
        field("corrupt", count(report.corrupt)),
        field("verified", count(report.verified)),
        field("removed", names(&report.removed)),
        field("quarantined", names(&report.quarantined)),
        field("healthy", Value::Bool(report.healthy())),
    ])
}

/// Collects every distinct cell outcome observed across the waves of one
/// invocation, keyed by canonical cell key (first occurrence wins).  The
/// key order makes the rendered `cells` array independent of the order in
/// which parallel cells finish.  Install it as a wave observer via
/// [`OutcomeCollector::observer`] and render the collected cells with
/// [`OutcomeCollector::cells_value`].
#[derive(Default)]
pub struct OutcomeCollector {
    cells: Mutex<BTreeMap<String, CellOutcome>>,
}

impl OutcomeCollector {
    /// A fresh collector behind an [`Arc`] (the observer closure and the
    /// caller share it).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A wave observer recording every first-seen cell outcome.
    pub fn observer(self: &Arc<Self>) -> WaveObserver {
        let collector = Arc::clone(self);
        Arc::new(move |outcome| collector.record(outcome))
    }

    fn record(&self, outcome: &CellOutcome) {
        relock(&self.cells)
            .entry(outcome.key.canon())
            .or_insert_with(|| outcome.clone());
    }

    /// Per-invocation tallies driving exit-code classification:
    /// `(completed, oom, failures)`.  Completed counts cells with a usable
    /// result (including OOM rows); failures count terminal
    /// failed/timed-out/panicked cells; skipped cells count as neither.
    pub fn counts(&self) -> (usize, usize, usize) {
        let cells = relock(&self.cells);
        let mut completed = 0;
        let mut oom = 0;
        let mut failures = 0;
        for outcome in cells.values() {
            match &outcome.status {
                CellStatus::Ok => completed += 1,
                CellStatus::Oom => {
                    completed += 1;
                    oom += 1;
                }
                CellStatus::Failed(_)
                | CellStatus::TimedOut { .. }
                | CellStatus::Panicked { .. } => failures += 1,
                CellStatus::Skipped => {}
            }
        }
        (completed, oom, failures)
    }

    /// Number of distinct cells collected so far.
    pub fn len(&self) -> usize {
        relock(&self.cells).len()
    }

    /// Whether nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The collected cells as a JSON array in canonical-key order (results
    /// looked up from `runner`'s completed-cell map).
    pub fn cells_value(&self, runner: &Runner) -> Value {
        Value::Array(
            relock(&self.cells)
                .values()
                .map(|outcome| outcome_value(outcome, runner.result(&outcome.key).ok().as_ref()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overrides::CellOverrides;
    use crate::runner::{enter_wave, CellKey, EvalKind, WaveCtx};
    use crate::scale::ExperimentScale;
    use bgc_core::BgcError;
    use bgc_graph::DatasetKind;
    use bgc_runtime::FaultPlan;

    #[test]
    fn status_values_carry_their_details() {
        assert_eq!(
            status_value(&CellStatus::Ok).to_json_string(),
            r#"{"kind":"ok"}"#
        );
        let timed_out = status_value(&CellStatus::TimedOut { limit_ms: 250 });
        assert_eq!(timed_out.get("limit_ms").and_then(Value::as_u64), Some(250));
        let failed = status_value(&CellStatus::Failed(BgcError::UnknownAttack("Ghost".into())));
        assert!(failed
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("Ghost")));
        let panicked = status_value(&CellStatus::Panicked {
            message: "boom".into(),
        });
        assert_eq!(
            panicked.get("kind").and_then(Value::as_str),
            Some("panicked")
        );
    }

    #[test]
    fn store_reports_render_through_the_shared_codec() {
        let mut report = StoreReport {
            action: "doctor".to_string(),
            root: "target/store".to_string(),
            artifacts: 2,
            bytes: 128,
            verified: 1,
            ..StoreReport::default()
        };
        report.stages.insert("clean".to_string(), 1);
        report.stages.insert("attack".to_string(), 1);
        report.quarantined.push("00000000deadbeef.art".to_string());
        let value = store_report_value(&report);
        assert_eq!(value.get("action").and_then(Value::as_str), Some("doctor"));
        assert_eq!(value.get("artifacts").and_then(Value::as_u64), Some(2));
        assert_eq!(
            value
                .get("stages")
                .and_then(|s| s.get("attack"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(value.get("healthy").and_then(Value::as_bool), Some(false));
        assert_eq!(
            value
                .get("quarantined")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(1)
        );
        // Deterministic: re-rendering the same report is byte-identical.
        assert_eq!(
            value.to_json_string(),
            store_report_value(&report).to_json_string()
        );
    }

    #[test]
    fn collector_records_each_cell_once_with_results() {
        let runner = Runner::in_memory(ExperimentScale::Quick)
            .with_fault_plan(FaultPlan::new())
            .serial();
        let group = runner.bgc_group(DatasetKind::Cora, "GCond", 0.026);
        let collector = OutcomeCollector::new();
        {
            let _scope = enter_wave(WaveCtx {
                observer: Some(collector.observer()),
                ..WaveCtx::default()
            });
            runner.run_cells(&group.keys);
            // A second wave over the same cells resolves from memory and
            // must not duplicate collected entries.
            runner.run_cells(&group.keys);
        }
        assert_eq!(collector.len(), group.keys.len());
        let (completed, oom, failures) = collector.counts();
        assert_eq!(completed, group.keys.len());
        assert_eq!((oom, failures), (0, 0));
        let cells = collector.cells_value(&runner);
        let cells = cells.as_array().expect("array");
        for cell in cells {
            assert_eq!(
                cell.get("status")
                    .and_then(|s| s.get("kind"))
                    .and_then(Value::as_str),
                Some("ok")
            );
            assert!(cell.get("result").and_then(|r| r.get("cta")).is_some());
        }
        // Deterministic sub-document: re-rendering is byte-identical.
        assert_eq!(
            collector.cells_value(&runner).to_json_string(),
            Value::Array(cells.clone()).to_json_string()
        );
        let _ = EvalKind::Standard;
        let _ = CellOverrides::default();
    }

    #[test]
    fn collected_cells_render_in_key_order_whatever_the_observation_order() {
        let runner = Runner::in_memory(ExperimentScale::Quick)
            .with_fault_plan(FaultPlan::new())
            .serial();
        let mut keys = runner.bgc_group(DatasetKind::Cora, "GCond-X", 0.026).keys;
        keys.extend(runner.bgc_group(DatasetKind::Cora, "DC-Graph", 0.026).keys);
        let render = |keys: &[CellKey]| {
            let collector = OutcomeCollector::new();
            let _scope = enter_wave(WaveCtx {
                observer: Some(collector.observer()),
                ..WaveCtx::default()
            });
            runner.run_cells(keys);
            collector.cells_value(&runner).to_json_string()
        };
        // Compute the cells once, then observe them from memory in two
        // opposite orders.
        runner.run_cells(&keys);
        let forward = render(&keys);
        keys.reverse();
        assert_eq!(forward, render(&keys));
    }
}
