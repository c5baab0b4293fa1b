//! In-memory spans of the traced replay, written out when the run ends as
//! Chrome trace-event JSON (chrome://tracing, Perfetto) and as a table of
//! self time per layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;

struct Span {
    /// The layer the call belongs to (`graph`, `condense`, `core`, ...).
    layer: &'static str,
    /// The function called, e.g. `core.attack`.
    name: &'static str,
    /// The cell (or report) the call was made for.
    label: String,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-layer totals of a trace.
#[derive(Default, Clone, Copy)]
pub struct LayerTotal {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            label: label.to_string(),
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].dur = self.origin.elapsed() - self.spans[index].start;
        value
    }

    /// Calls, total and self seconds per span name.  A span's self time is
    /// its duration minus the part its children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.dur;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let total = totals.entry(span.name).or_default();
            total.calls += 1;
            total.total_s += span.dur.as_secs_f64();
            total.self_s += span.dur.saturating_sub(*children).as_secs_f64();
        }
        totals
    }

    /// Seconds covered by spans of any layer but `container` (the per-cell
    /// parents that only group the layer calls).
    pub fn covered_s(&self, container: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer != container)
            .filter(|s| s.parent.is_none_or(|p| self.spans[p].layer == container))
            .map(|s| s.dur.as_secs_f64())
            .sum()
    }

    /// Writes `<stem>.trace.json` and `<stem>.layers.txt` under `dir` and
    /// returns the layer table.
    pub fn write(&self, dir: &Path, stem: &str) -> Result<String, String> {
        let events = self
            .spans
            .iter()
            .map(|span| {
                Value::Object(vec![
                    ("name".into(), Value::String(span.name.to_string())),
                    ("cat".into(), Value::String(span.layer.to_string())),
                    ("ph".into(), Value::String("X".into())),
                    ("ts".into(), Value::Number(span.start.as_secs_f64() * 1e6)),
                    ("dur".into(), Value::Number(span.dur.as_secs_f64() * 1e6)),
                    ("pid".into(), Value::Number(1.0)),
                    ("tid".into(), Value::Number(1.0)),
                    (
                        "args".into(),
                        Value::Object(vec![("cell".into(), Value::String(span.label.clone()))]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::String("ms".into())),
        ]);
        let mut table = format!(
            "{:<24} {:>7} {:>10} {:>10}\n",
            "span", "calls", "total_s", "self_s"
        );
        for (name, total) in self.by_name() {
            table.push_str(&format!(
                "{:<24} {:>7} {:>10.4} {:>10.4}\n",
                name, total.calls, total.total_s, total.self_s
            ));
        }
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(dir.join(format!("{stem}.trace.json")), doc.to_json_string())
            })
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table))
            .map_err(|err| format!("cannot write the trace under {}: {err}", dir.display()))?;
        Ok(table)
    }
}
