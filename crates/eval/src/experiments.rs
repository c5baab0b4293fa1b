//! One regenerator function per table and figure of the paper's evaluation
//! section.  Each returns an [`ExperimentReport`] that the `bgc` CLI
//! prints and dumps as JSON.
//!
//! Regenerators are *declarative*: they build the list of experiment cells
//! they need ([`CellGroup`]s), hand the whole list to the [`Runner`] — which
//! executes independent cells in parallel, shares the attack/condensation
//! stages between overlapping cells, and resumes from the on-disk cache —
//! and then render rows from the aggregated results.

use serde::Serialize;

use bgc_condense::CondensationKind;
use bgc_core::{BgcError, GeneratorKind};
use bgc_graph::{DatasetKind, GraphStats};
use bgc_nn::GnnArchitecture;

use crate::overrides::CellOverrides;
use crate::protocol::AttackKind;
use crate::runner::{CellGroup, EvalKind, Runner};
use crate::scale::ExperimentScale;
use crate::tables::ExperimentReport;

/// Datasets included in a sweep: all four at paper scale, the two citation
/// graphs at quick scale (keeps the default regenerator runs short; pass
/// `--full` to `bgc` to include all four).
pub fn sweep_datasets(scale: ExperimentScale, full: bool) -> Vec<DatasetKind> {
    if full || scale == ExperimentScale::Paper {
        DatasetKind::all().to_vec()
    } else {
        vec![DatasetKind::Cora, DatasetKind::Citeseer]
    }
}

/// Runs every group of `rows` through the runner in one parallel wave and
/// renders one row per group via `render`.
fn render_rows(
    report: &mut ExperimentReport,
    runner: &Runner,
    rows: Vec<(String, CellGroup)>,
    render: impl Fn(&str, &crate::protocol::RunMetrics) -> String,
) -> Result<(), BgcError> {
    let groups: Vec<&CellGroup> = rows.iter().map(|(_, g)| g).collect();
    runner.run_groups(&groups)?;
    for (prefix, group) in &rows {
        let metrics = runner.metrics(group)?;
        report.push(render(prefix, &metrics), &metrics);
    }
    Ok(())
}

/// Table I: dataset statistics.
pub fn table1(scale: ExperimentScale) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new("table1", "Table I: dataset statistics", scale.name());
    report.push_text(GraphStats::table_header());
    for dataset in DatasetKind::all() {
        let graph = scale.load(dataset, 0);
        let stats = GraphStats::of(&graph);
        report.push(stats.table_row(), &StatsRecord::from(&stats));
    }
    Ok(report)
}

#[derive(Serialize)]
struct StatsRecord {
    name: String,
    nodes: usize,
    edges: usize,
    classes: usize,
    features: usize,
    train: usize,
    val: usize,
    test: usize,
}

impl From<&GraphStats> for StatsRecord {
    fn from(s: &GraphStats) -> Self {
        Self {
            name: s.name.clone(),
            nodes: s.nodes,
            edges: s.edges,
            classes: s.classes,
            features: s.features,
            train: s.train,
            val: s.val,
            test: s.test,
        }
    }
}

/// Figure 1: Clean model vs Naive Poison vs BGC clean test accuracy on Cora
/// and Citeseer (GCond).
pub fn fig1(runner: &Runner) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "fig1",
        "Figure 1: CTA of Clean / Naive Poison / BGC (GCond)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in [DatasetKind::Cora, DatasetKind::Citeseer] {
        let ratio = dataset.paper_condensation_ratios()[1];
        for attack in [AttackKind::NaivePoison, AttackKind::Bgc] {
            let group = runner.group(
                dataset,
                CondensationKind::GCond,
                attack,
                ratio,
                EvalKind::Standard,
                CellOverrides::default(),
            );
            rows.push((String::new(), group));
        }
    }
    render_rows(&mut report, runner, rows, |_, metrics| {
        format!(
            "{:<10} {:<12} clean-CTA {:>6.2}  attacked-CTA {:>6.2}  ASR {:>6.2}",
            metrics.dataset,
            metrics.attack,
            metrics.c_cta * 100.0,
            metrics.cta * 100.0,
            metrics.asr * 100.0
        )
    })?;
    Ok(report)
}

/// Table II: C-CTA / CTA / C-ASR / ASR across datasets, condensation methods
/// and condensation ratios.
pub fn table2(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table2",
        "Table II: model utility (CTA) and attack performance (ASR)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in sweep_datasets(runner.scale(), full) {
        for method in CondensationKind::all() {
            for ratio in dataset.paper_condensation_ratios() {
                rows.push((String::new(), runner.bgc_group(dataset, method, ratio)));
            }
        }
    }
    render_rows(&mut report, runner, rows, |_, m| m.table_row())?;
    Ok(report)
}

/// Figure 4: BGC vs GTA vs DOORPING across condensation ratios (GCond).
pub fn fig4(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "fig4",
        "Figure 4: BGC vs adapted graph backdoor baselines (GCond)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in sweep_datasets(runner.scale(), full) {
        for ratio in dataset.paper_condensation_ratios() {
            for attack in [AttackKind::Gta, AttackKind::Doorping, AttackKind::Bgc] {
                let group = runner.group(
                    dataset,
                    CondensationKind::GCond,
                    attack,
                    ratio,
                    EvalKind::Standard,
                    CellOverrides::default(),
                );
                rows.push((String::new(), group));
            }
        }
    }
    render_rows(&mut report, runner, rows, |_, m| m.table_row())?;
    Ok(report)
}

/// Table III: transfer of the poisoned condensed graph to different victim
/// GNN architectures (GCond).
pub fn table3(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table3",
        "Table III: attack transfer across GNN architectures (GCond)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in sweep_datasets(runner.scale(), full) {
        let ratio = dataset.paper_condensation_ratios()[1];
        for architecture in GnnArchitecture::all() {
            let group = runner.group(
                dataset,
                CondensationKind::GCond,
                AttackKind::Bgc,
                ratio,
                EvalKind::Standard,
                CellOverrides {
                    architecture: Some(architecture),
                    ..CellOverrides::default()
                },
            );
            rows.push((format!("{:<8}", architecture.name()), group));
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

/// A row of the defense study (Table IV).
#[derive(Serialize)]
pub struct DefenseRecord {
    /// Dataset name.
    pub dataset: String,
    /// Condensation method.
    pub method: String,
    /// Condensation ratio.
    pub ratio: f32,
    /// Undefended backdoored CTA.
    pub cta: f32,
    /// Undefended ASR.
    pub asr: f32,
    /// CTA under the Prune defense.
    pub prune_cta: f32,
    /// ASR under the Prune defense.
    pub prune_asr: f32,
    /// CTA under Randsmooth.
    pub randsmooth_cta: f32,
    /// ASR under Randsmooth.
    pub randsmooth_asr: f32,
}

/// Table IV: Prune and Randsmooth defenses against BGC (GCond and GCond-X).
pub fn table4(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table4",
        "Table IV: attack performance against defenses",
        runner.scale().name(),
    );
    let datasets = sweep_datasets(runner.scale(), full);
    // Declare the full (method, dataset, eval-mode) grid first so the runner
    // sees every cell at once; the three eval modes of one coordinate share
    // a single BGC attack via the stage cache.
    let mut cells = Vec::new();
    for method in [CondensationKind::GCond, CondensationKind::GCondX] {
        for &dataset in &datasets {
            let ratio = dataset.paper_condensation_ratios()[1];
            for eval in [
                EvalKind::Standard,
                EvalKind::prune(),
                EvalKind::randsmooth(),
            ] {
                let group = runner.group(
                    dataset,
                    method,
                    AttackKind::Bgc,
                    ratio,
                    eval,
                    CellOverrides::default(),
                );
                cells.push(group);
            }
        }
    }
    runner.run_groups(&cells.iter().collect::<Vec<_>>())?;
    for chunk in cells.chunks(3) {
        let record = defense_record(runner, &chunk[0], &chunk[1], &chunk[2])?;
        report.push(
            format!(
                "{:<9} {:<10} r={:>5.2}%  undefended CTA {:>6.2} ASR {:>6.2} | Prune CTA {:>6.2} ASR {:>6.2} | Randsmooth CTA {:>6.2} ASR {:>6.2}",
                record.method,
                record.dataset,
                record.ratio * 100.0,
                record.cta * 100.0,
                record.asr * 100.0,
                record.prune_cta * 100.0,
                record.prune_asr * 100.0,
                record.randsmooth_cta * 100.0,
                record.randsmooth_asr * 100.0
            ),
            &record,
        );
    }
    Ok(report)
}

fn defense_record(
    runner: &Runner,
    undefended: &CellGroup,
    prune: &CellGroup,
    randsmooth: &CellGroup,
) -> Result<DefenseRecord, BgcError> {
    let base = runner.metrics(undefended)?;
    let prune = runner.metrics(prune)?;
    let randsmooth = runner.metrics(randsmooth)?;
    Ok(DefenseRecord {
        dataset: base.dataset.clone(),
        method: base.method.clone(),
        ratio: base.ratio,
        cta: base.cta,
        asr: base.asr,
        prune_cta: prune.cta,
        prune_asr: prune.asr,
        randsmooth_cta: randsmooth.cta,
        randsmooth_asr: randsmooth.asr,
    })
}

/// Figure 5: ablation of the poisoned-node selection module (BGC vs BGC_Rand)
/// on the inductive datasets (DC-Graph).
pub fn fig5(runner: &Runner) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "fig5",
        "Figure 5: ablation on poisoned-node selection (DC-Graph)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in [DatasetKind::Flickr, DatasetKind::Reddit] {
        let ratio = dataset.paper_condensation_ratios()[1];
        for attack in [AttackKind::BgcRand, AttackKind::Bgc] {
            let group = runner.group(
                dataset,
                CondensationKind::DcGraph,
                attack,
                ratio,
                EvalKind::Standard,
                CellOverrides::default(),
            );
            rows.push((String::new(), group));
        }
    }
    render_rows(&mut report, runner, rows, |_, m| m.table_row())?;
    Ok(report)
}

/// Table V: ablation on the trigger-generator encoder (MLP / GCN /
/// Transformer, GCond).
pub fn table5(runner: &Runner) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table5",
        "Table V: ablation on the trigger generator (GCond)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in [DatasetKind::Cora, DatasetKind::Citeseer] {
        for generator in GeneratorKind::all() {
            let ratio = dataset.paper_condensation_ratios()[0];
            let group = runner.group(
                dataset,
                CondensationKind::GCond,
                AttackKind::Bgc,
                ratio,
                EvalKind::Standard,
                CellOverrides {
                    generator: Some(generator),
                    ..CellOverrides::default()
                },
            );
            rows.push((format!("{:<12}", generator.name()), group));
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

/// Table VI: directed attack (a single source class is poisoned and
/// evaluated).
pub fn table6(runner: &Runner) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table6",
        "Table VI: directed attack ablation (GCond)",
        runner.scale().name(),
    );
    let mut rows = Vec::new();
    for dataset in [DatasetKind::Cora, DatasetKind::Citeseer] {
        let ratio = dataset.paper_condensation_ratios()[1];
        // Undirected BGC reference.
        rows.push((
            format!("{:<9}", "BGC"),
            runner.bgc_group(dataset, CondensationKind::GCond, ratio),
        ));
        // Directed variant: poison class 1, evaluate ASR on class 1 only.
        let directed = runner.group(
            dataset,
            CondensationKind::GCond,
            AttackKind::Bgc,
            ratio,
            EvalKind::Standard,
            CellOverrides {
                source_class: Some(1),
                ..CellOverrides::default()
            },
        );
        rows.push((format!("{:<9}", "Directed"), directed));
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

/// Figure 6: ASR as a function of the number of condensation epochs (GCond).
pub fn fig6(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "fig6",
        "Figure 6: ASR vs condensation epochs (GCond)",
        runner.scale().name(),
    );
    let epoch_grid: Vec<usize> = match runner.scale() {
        ExperimentScale::Quick => vec![5, 10, 20, 40, 80],
        ExperimentScale::Paper => vec![50, 100, 300, 500, 700, 900, 1000],
        // The large tier is for single-cell scenario runs, not figure
        // sweeps; a short grid keeps an explicit request tractable.
        ExperimentScale::Large => vec![4, 8, 12],
    };
    let mut rows = Vec::new();
    for dataset in sweep_datasets(runner.scale(), full) {
        let ratio = dataset.paper_condensation_ratios()[1];
        for &epochs in &epoch_grid {
            let group = runner.group(
                dataset,
                CondensationKind::GCond,
                AttackKind::Bgc,
                ratio,
                EvalKind::Standard,
                CellOverrides {
                    outer_epochs: Some(epochs),
                    ..CellOverrides::default()
                },
            );
            rows.push((format!("{:>5}", epochs), group));
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!(
            "{:<10} epochs {}  ASR {:>6.2}  CTA {:>6.2}",
            m.dataset,
            prefix,
            m.asr * 100.0,
            m.cta * 100.0
        )
    })?;
    Ok(report)
}

/// Table VII: effect of the poisoning ratio / poisoning number.
pub fn table7(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table7",
        "Table VII: poisoning budget study",
        runner.scale().name(),
    );
    let methods = [
        CondensationKind::DcGraph,
        CondensationKind::GCond,
        CondensationKind::GCondX,
    ];
    let mut rows = Vec::new();
    for dataset in sweep_datasets(runner.scale(), full) {
        let ratio = dataset.paper_condensation_ratios()[0];
        let budgets: Vec<bgc_graph::PoisonBudget> = match dataset {
            DatasetKind::Cora | DatasetKind::Citeseer => vec![
                bgc_graph::PoisonBudget::Ratio(0.10),
                bgc_graph::PoisonBudget::Ratio(0.15),
                bgc_graph::PoisonBudget::Ratio(0.20),
            ],
            DatasetKind::Flickr => vec![
                bgc_graph::PoisonBudget::Count(60),
                bgc_graph::PoisonBudget::Count(80),
                bgc_graph::PoisonBudget::Count(100),
            ],
            DatasetKind::Reddit => vec![
                bgc_graph::PoisonBudget::Count(130),
                bgc_graph::PoisonBudget::Count(180),
                bgc_graph::PoisonBudget::Count(230),
            ],
            // Not part of the paper's Table VII sweep; a single default
            // budget keeps the row meaningful if ever requested explicitly.
            DatasetKind::Arxiv => vec![dataset.paper_poison_budget()],
        };
        for budget in budgets {
            for method in methods {
                // Quick scale shrinks absolute budgets with the datasets.
                let scaled = runner.scale().scale_budget(budget);
                let group = runner.group(
                    dataset,
                    method,
                    AttackKind::Bgc,
                    ratio,
                    EvalKind::Standard,
                    CellOverrides {
                        poison_budget: Some(scaled.into()),
                        ..CellOverrides::default()
                    },
                );
                rows.push((format!("budget {:?}", budget), group));
            }
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

/// Table VIII: effect of the number of victim GNN layers (GCond).
pub fn table8(runner: &Runner, full: bool) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "table8",
        "Table VIII: number of GNN layers (GCond)",
        runner.scale().name(),
    );
    let mut datasets = sweep_datasets(runner.scale(), full);
    datasets.retain(|d| *d != DatasetKind::Reddit); // the paper studies Cora/Citeseer/Flickr
    let mut rows = Vec::new();
    for dataset in datasets {
        for ratio in dataset.paper_condensation_ratios() {
            for layers in [1usize, 2, 3] {
                let group = runner.group(
                    dataset,
                    CondensationKind::GCond,
                    AttackKind::Bgc,
                    ratio,
                    EvalKind::Standard,
                    CellOverrides {
                        num_layers: Some(layers),
                        ..CellOverrides::default()
                    },
                );
                rows.push((format!("layers {}", layers), group));
            }
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

/// Figure 8: effect of the trigger size (DC-Graph and GCond on Flickr).
pub fn fig8(runner: &Runner) -> Result<ExperimentReport, BgcError> {
    let mut report = ExperimentReport::new(
        "fig8",
        "Figure 8: trigger size study (Flickr)",
        runner.scale().name(),
    );
    let dataset = DatasetKind::Flickr;
    let mut rows = Vec::new();
    for method in [CondensationKind::DcGraph, CondensationKind::GCond] {
        for ratio in dataset.paper_condensation_ratios() {
            for trigger_size in 1..=4usize {
                let group = runner.group(
                    dataset,
                    method,
                    AttackKind::Bgc,
                    ratio,
                    EvalKind::Standard,
                    CellOverrides {
                        trigger_size: Some(trigger_size),
                        ..CellOverrides::default()
                    },
                );
                rows.push((format!("|g|={}", trigger_size), group));
            }
        }
    }
    render_rows(&mut report, runner, rows, |prefix, m| {
        format!("{} {}", prefix, m.table_row())
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_datasets() {
        let report = table1(ExperimentScale::Quick).unwrap();
        let text = report.render();
        for dataset in DatasetKind::all() {
            assert!(text.contains(dataset.name()), "missing {}", dataset.name());
        }
    }

    #[test]
    fn quick_sweep_restricts_datasets() {
        assert_eq!(sweep_datasets(ExperimentScale::Quick, false).len(), 2);
        assert_eq!(sweep_datasets(ExperimentScale::Quick, true).len(), 4);
        assert_eq!(sweep_datasets(ExperimentScale::Paper, false).len(), 4);
    }

    #[test]
    fn regenerators_declare_overlapping_cells() {
        // Table II and Figure 1 both contain the (cora, GCond, r[1], BGC)
        // cell — the declarative grid makes the overlap structural, which is
        // what the runner's cache exploits.
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let ratio = DatasetKind::Cora.paper_condensation_ratios()[1];
        let table2_group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCond, ratio);
        let fig1_group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCond,
            AttackKind::Bgc,
            ratio,
            EvalKind::Standard,
            CellOverrides::default(),
        );
        assert_eq!(table2_group.keys, fig1_group.keys);
    }
}
