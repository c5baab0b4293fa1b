//! Integration tests of the experiment harness: the regenerator functions
//! produce well-formed reports whose contents reflect the paper's qualitative
//! claims at quick scale.

use bgc_condense::CondensationKind;
use bgc_eval::experiments;
use bgc_eval::{ExperimentScale, Runner};
use bgc_graph::DatasetKind;

#[test]
fn table1_report_lists_every_dataset_with_table_i_statistics() {
    let report = experiments::table1(ExperimentScale::Quick).expect("table1 renders");
    assert_eq!(report.id, "table1");
    let text = report.render();
    for dataset in DatasetKind::all() {
        assert!(text.contains(dataset.name()));
    }
    // Paper-scale statistics match Table I exactly for the citation graphs.
    let paper = experiments::table1(ExperimentScale::Paper).expect("table1 renders");
    let text = paper.render();
    assert!(text.contains("2708"), "Cora node count from Table I");
    assert!(text.contains("3327"), "Citeseer node count from Table I");
}

#[test]
fn paper_reference_values_encode_the_headline_claims() {
    for dataset in DatasetKind::all() {
        for cell in bgc_eval::paper::table2_gcond_reference(dataset) {
            assert!(cell.asr > 99.0);
            assert!(cell.c_asr < 20.0);
        }
    }
}

#[test]
fn one_table2_cell_reproduces_the_shape_of_the_paper() {
    let runner = Runner::in_memory(ExperimentScale::Quick);
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::DcGraph, 0.026);
    let metrics = runner.metrics(&group).expect("grid runs");
    // Shape checks (not absolute values): high ASR, near-chance C-ASR,
    // bounded utility loss.
    assert!(metrics.asr > 0.6, "ASR {}", metrics.asr);
    assert!(metrics.c_asr < 0.5, "C-ASR {}", metrics.c_asr);
    assert!(metrics.cta > 0.3, "CTA {}", metrics.cta);
    assert!(!metrics.oom);
}

#[test]
fn grid_runner_reproduces_the_serial_protocol_bit_exactly() {
    // The runner's cell for quick Cora x GCond-X x 2.6% at seed 17, pinned
    // to the bits the serial protocol (one repetition of clean condensation,
    // attack and both victim evaluations, run in order) returned for it
    // before the runner became the only cell pipeline.  Each value is a
    // ratio of counts (97/99, 91/99, 4/60, 57/60), so the pin holds on any
    // machine unless a prediction flips; CI's thread-count check holds the
    // parallel grid to the same cells.
    let runner = Runner::in_memory(ExperimentScale::Quick);
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let cell = runner.metrics(&group).expect("grid runs");
    assert_eq!(cell.c_cta.to_bits(), 0x3f7a_d40a);
    assert_eq!(cell.cta.to_bits(), 0x3f6b_5029);
    assert_eq!(cell.c_asr.to_bits(), 0x3d88_8889);
    assert_eq!(cell.asr.to_bits(), 0x3f73_3333);
    assert_eq!(
        cell.table_row(),
        "cora       GCond-X   BGC           2.60%   C-CTA  97.98 (0.00)  CTA  91.92 (0.00)  \
         C-ASR   6.67 (0.00)  ASR  95.00 (0.00)"
    );

    // The headline shape, which outlives a re-pin of the bits: a high ASR
    // that clearly exceeds the clean model's, at a bounded CTA drop.
    assert!(!cell.oom);
    assert!(
        cell.asr > 0.7,
        "BGC should reach a high ASR, got {}",
        cell.asr
    );
    assert!(
        cell.asr > cell.c_asr + 0.3,
        "backdoored ASR ({}) must clearly exceed the clean model's ASR ({})",
        cell.asr,
        cell.c_asr
    );
    assert!(
        cell.cta > cell.c_cta - 0.25,
        "the CTA drop must stay bounded ({} vs {})",
        cell.cta,
        cell.c_cta
    );
    assert!(cell.table_row().contains("cora"));
}

#[test]
fn reports_can_be_rendered_and_serialized() {
    let report = experiments::table1(ExperimentScale::Quick).expect("table1 renders");
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("table1"));
    assert!(report.render().lines().count() >= 5);
}
