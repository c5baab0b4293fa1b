//! Report container shared by every experiment regenerator: a titled list of
//! rows that can be printed as a text table and dumped as JSON next to it
//! (under `target/experiments/`), where byte-identity checks across runs
//! and thread counts compare them.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// A generated experiment report (one per paper table / figure).
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentReport {
    /// Report identifier, e.g. `"table2"` or `"fig4"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Experiment scale the report was generated at.
    pub scale: String,
    /// Pre-formatted table rows.
    pub rows: Vec<String>,
    /// Structured values (JSON-friendly) backing the rows.
    pub records: Vec<serde_json::Value>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, scale: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            scale: scale.into(),
            rows: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Appends a pre-formatted row together with its structured record.
    pub fn push<T: Serialize>(&mut self, row: String, record: &T) {
        self.rows.push(row);
        self.records
            .push(serde_json::to_value(record).unwrap_or(serde_json::Value::Null));
    }

    /// Appends a plain text row without a structured record.
    pub fn push_text(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ({} scale) ==\n", self.title, self.scale));
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Prints the report to stdout and writes the JSON dump under
    /// `target/experiments/<id>.json`.  I/O failures are reported on stderr
    /// but never abort the run.
    pub fn print_and_save(&self) {
        print!("{}", self.render());
        self.save();
    }

    /// Writes the JSON dump under `target/experiments/<id>.json` without
    /// printing (`--format json` prints its own document instead).  I/O
    /// failures are reported on stderr but never abort.
    pub fn save(&self) {
        let dir = PathBuf::from("target/experiments");
        if let Err(err) = fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {}", dir.display(), err);
            return;
        }
        let path = dir.join(format!("{}.json", self.id));
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(err) = fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {}", path.display(), err);
                }
            }
            Err(err) => eprintln!("warning: could not serialize report: {}", err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        value: f32,
    }

    #[test]
    fn render_contains_title_and_rows() {
        let mut report = ExperimentReport::new("table0", "Sanity", "quick");
        report.push("row one".to_string(), &Row { value: 1.0 });
        report.push_text("row two".to_string());
        let text = report.render();
        assert!(text.contains("Sanity"));
        assert!(text.contains("row one"));
        assert!(text.contains("row two"));
        assert_eq!(report.records.len(), 1);
    }
}
