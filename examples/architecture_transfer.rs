//! Table III scenario: the attacker does not know which GNN architecture the
//! customer will train on the condensed graph, so the backdoor must transfer
//! across architectures.  One BGC-poisoned condensed graph is handed to six
//! different victims.
//!
//! Each victim is one builder-described experiment whose only override is
//! the victim architecture; because only that victim-side field differs,
//! all six cells share a single BGC attack run through the grid runner's
//! stage cache.
//!
//! Run with: `cargo run --release --example architecture_transfer`

use bgc_core::BgcError;
use bgc_eval::{CellOverrides, Experiment, ExperimentScale, Runner};
use bgc_graph::DatasetKind;
use bgc_nn::GnnArchitecture;

fn main() -> Result<(), BgcError> {
    let runner = Runner::in_memory(ExperimentScale::Quick);
    println!("running BGC once against GCond-X, evaluating six victims ...");
    println!("\nvictim        CTA      ASR");
    for architecture in GnnArchitecture::all() {
        let experiment = Experiment::builder()
            .dataset(DatasetKind::Cora)
            .method("GCond-X")
            .attack("BGC")
            .ratio(0.026)
            .overrides(CellOverrides {
                architecture: Some(architecture),
                ..CellOverrides::default()
            })
            .build()?;
        let metrics = experiment.run(&runner)?;
        println!(
            "{:<10} {:>6.1}%  {:>6.1}%",
            architecture.name(),
            metrics.cta * 100.0,
            metrics.asr * 100.0
        );
    }
    let stats = runner.stats();
    println!(
        "\nThe same poisoned condensed graph backdoors every architecture the \
         customer might pick — the attacker never needed to know it in advance \
         ({} attack run shared by {} victim evaluations).",
        stats.attack_stages_computed,
        stats.attack_stages_computed + stats.attack_stage_hits
    );
    Ok(())
}
