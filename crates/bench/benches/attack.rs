//! Criterion benchmarks of the BGC attack components: poisoned-node
//! selection, trigger generation, and trigger attachment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bgc_core::{
    attach_to_computation_graph, select_poisoned_nodes, BgcConfig, GeneratorKind, TriggerGenerator,
    TriggerProvider,
};
use bgc_graph::DatasetKind;
use bgc_nn::AdjacencyRef;
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::Tape;

/// A full selection per iteration, selector training included: nothing
/// memoizes the selector outside the grid runner.
fn bench_selection(c: &mut Criterion) {
    let graph = DatasetKind::Cora.load_small(0);
    let mut config = BgcConfig::quick();
    config.selector_epochs = 20;
    c.bench_function("poisoned_node_selection_small_cora", |b| {
        b.iter(|| select_poisoned_nodes(&graph, &config))
    });
}

fn bench_trigger_generation(c: &mut Criterion) {
    let graph = DatasetKind::Cora.load_small(1);
    let adj = AdjacencyRef::from_graph(&graph);
    let nodes: Vec<usize> = graph.split.train[..8.min(graph.split.train.len())].to_vec();
    let mut group = c.benchmark_group("trigger_generation_8_nodes");
    for kind in GeneratorKind::all() {
        let mut rng = rng_from_seed(0);
        let gen = TriggerGenerator::new(kind, graph.num_features(), 32, 4, &mut rng);
        let mut tape = Tape::new();
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            b.iter(|| gen.triggers(&mut tape, &adj, &graph.features, &nodes))
        });
    }
    group.finish();
}

fn bench_attachment(c: &mut Criterion) {
    let graph = DatasetKind::Citeseer.load_small(2);
    let node = graph.split.test[0];
    c.bench_function("computation_graph_attachment", |b| {
        b.iter(|| attach_to_computation_graph(&graph, node, 4, 2, 16))
    });
}

criterion_group!(
    benches,
    bench_selection,
    bench_trigger_generation,
    bench_attachment
);
criterion_main!(benches);
