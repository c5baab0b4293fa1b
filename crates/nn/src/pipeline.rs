//! Overlapped producer/consumer pipeline for neighbour-sampled training.
//!
//! A sampled training run interleaves two very different workloads:
//! *sampling* (pointer-chasing over the CSR adjacency plus the model-input
//! rows) and *compute* (dense forward/backward).  This module runs
//! sampling on a dedicated producer thread that keeps a bounded channel of
//! ready-to-train [`PreparedBatch`]es [`PREFETCH_DEPTH`] batches ahead of
//! the trainer, so the sampler's memory-bound work overlaps the trainer's
//! compute-bound work.  It is the only source of sampled batches, and its
//! depth is fixed.
//!
//! What the producer emits as model input depends on the model
//! ([`BatchInput`]):
//!
//! * **First-step rows** for models whose forward reads `x` only through a
//!   first propagation step (GCN, SGC).  The trainer computes `Â · X` once
//!   per training run; the producer then emits the first block's output,
//!   one row per destination node, instead of the raw rows of the larger
//!   input-node set, and the trainer skips the first block's SpMM.  This
//!   is exact, not an approximation: a row the sampler kept verbatim is
//!   the identical slice of `Â`'s row, so its block output *is* that
//!   node's row of `Â · X` (same entries, same column order, same per-row
//!   SpMM body), and a fanout-capped row is summed over its sampled
//!   entries against the global feature rows with that same body.
//! * **Raw input rows** for models that read `x` directly (GraphSAGE's
//!   self term, MLP, APPNP, ChebyNet).
//!
//! Invariants:
//!
//! * **Bit-identity.**  The producer derives the epoch shuffle and every
//!   per-batch sampling decision from the plan seed alone
//!   (`plan_seed ^ mix(0x5a7c, epoch)` for the shuffle, `mix(epoch, batch)`
//!   per batch), and batches are consumed strictly in order, so production
//!   timing cannot change what is trained: results are bit-identical
//!   across thread counts (property-tested in `tests/sampled_training.rs`).
//!   First-step rows equal the first block's SpMM over the raw rows bit for
//!   bit, so GCN and SGC train bit-identically on either input (tested
//!   there too).
//! * **Allocation-free steady state.**  Input rows are written into
//!   pool-backed buffers owned by the producer; after the trainer's tape
//!   releases a batch's rows the storage travels back over a recycle
//!   channel into the producer's [`BufferPool`], so a warmed-up pipeline
//!   performs no per-batch input allocations.  The raw gather is batched:
//!   consecutive runs of input nodes are copied with one `memcpy` per run
//!   instead of one per row.
//! * **Fault containment.**  A producer panic (including the injected
//!   `sampler.produce` fault) is caught on the producer thread, forwarded
//!   through the channel and re-raised on the trainer thread, where the
//!   runner's per-cell unwind boundary contains it — one poisoned cell,
//!   no deadlocked trainer.  Fault scopes are thread-local, so the producer
//!   re-enters the trainer's scope via [`bgc_runtime::fault::ScopeSnapshot`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use bgc_graph::{mix_seed, Graph, NeighborSampler, SampledBatch, SampledBlock, SamplerWorkspace};
use bgc_tensor::init::{rng_from_seed, shuffle};
use bgc_tensor::{BufferPool, Matrix};

/// How many batches the producer keeps ready ahead of the trainer: deep
/// enough to hide sampling behind one batch of compute plus jitter,
/// shallow enough to bound the memory pinned in flight.
pub const PREFETCH_DEPTH: usize = 2;

/// What a producer emits as the model's input rows.
#[derive(Clone, Copy, Debug)]
pub enum BatchInput<'a> {
    /// The raw feature rows of the chain's input nodes, for models that
    /// read `x` directly.
    Raw,
    /// The first block's output rows, for models whose forward reads `x`
    /// only through a first propagation step.  Carries the run's full-graph
    /// product `Â · X`: a row the sampler kept verbatim is copied from it,
    /// and a capped row is summed over its sampled entries.
    FirstStep(&'a Matrix),
}

/// One ready-to-train minibatch: everything the trainer consumes that does
/// not need the tape.
#[derive(Debug)]
pub struct PreparedBatch {
    /// Epoch this batch belongs to (consumption-order check).
    pub epoch: usize,
    /// Batch index within the epoch (consumption-order check).
    pub index: usize,
    /// The batch's target nodes, ascending.
    pub targets: Vec<usize>,
    /// Labels of `targets`.
    pub labels: Vec<usize>,
    /// The sampled bipartite block chain.
    pub sampled: SampledBatch,
    /// Whether `input_features` already holds the first block's output
    /// ([`BatchInput::FirstStep`]).
    pub first_step_applied: bool,
    /// Positions of `targets` among the nodes of `input_features`' rows.
    pub target_positions: Vec<usize>,
    /// The model's input rows, shared so the tape can record them without
    /// copying and the storage can be recovered for recycling afterwards:
    /// the raw features of the chain's input nodes, or the first block's
    /// output rows when `first_step_applied`.
    pub input_features: Arc<Matrix>,
}

/// The batch schedule the producer walks: how the training split is
/// shuffled and chunked each epoch.
#[derive(Clone, Debug)]
pub struct BatchSchedule<'a> {
    /// The training node ids (unshuffled).
    pub train_idx: &'a [usize],
    /// Nodes per batch (the last batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Upper bound on epochs (early stopping may consume fewer).
    pub epochs: usize,
    /// Seed every shuffle and sampling decision derives from.
    pub plan_seed: u64,
}

impl BatchSchedule<'_> {
    /// Number of batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.train_idx.len().div_ceil(self.batch_size)
    }

    /// The shuffled order of `epoch`, keyed by the plan seed and the epoch.
    fn epoch_order(&self, epoch: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend_from_slice(self.train_idx);
        let mut rng = rng_from_seed(self.plan_seed ^ mix_seed(&[0x5a7c, epoch as u64]));
        shuffle(order, &mut rng);
    }

    /// Batch `index` of an epoch's shuffled `order`.
    fn chunk<'o>(&self, order: &'o [usize], index: usize) -> &'o [usize] {
        let lo = index * self.batch_size;
        &order[lo..(lo + self.batch_size).min(order.len())]
    }
}

/// What the producer thread produces batches with: the graph, the sampler
/// and the input kind, plus the sampler workspace and the pool the input
/// rows are written into.
#[derive(Debug)]
struct BatchProducer<'a> {
    graph: &'a Graph,
    sampler: &'a NeighborSampler,
    input: BatchInput<'a>,
    ws: SamplerWorkspace,
    pool: BufferPool,
}

impl<'a> BatchProducer<'a> {
    fn new(graph: &'a Graph, sampler: &'a NeighborSampler, input: BatchInput<'a>) -> Self {
        Self {
            graph,
            sampler,
            input,
            ws: SamplerWorkspace::new(),
            pool: BufferPool::new(),
        }
    }

    /// Produces one prepared batch: fault point, sort, sample, then the
    /// model's input rows.
    fn produce(&mut self, chunk: &[usize], epoch: usize, index: usize) -> PreparedBatch {
        bgc_runtime::fault::fire("sampler.produce");
        let graph = self.graph;
        let mut targets = chunk.to_vec();
        targets.sort_unstable();
        let labels: Vec<usize> = targets.iter().map(|&i| graph.labels[i]).collect();
        let sampled = self.sampler.sample_into(
            &graph.normalized,
            &targets,
            mix_seed(&[epoch as u64, index as u64]),
            &mut self.ws,
        );
        let (row_nodes, features) = match self.input {
            BatchInput::Raw => {
                let inputs = sampled.input_nodes();
                (inputs, gather_rows(&graph.features, inputs, &mut self.pool))
            }
            BatchInput::FirstStep(propagated) => {
                let block = &sampled.blocks[0];
                let rows = first_step_rows(graph, self.sampler, propagated, block, &mut self.pool);
                (block.dst_nodes.as_slice(), rows)
            }
        };
        let target_positions = sampled.target_positions_in(row_nodes);
        PreparedBatch {
            epoch,
            index,
            targets,
            labels,
            first_step_applied: matches!(self.input, BatchInput::FirstStep(_)),
            target_positions,
            sampled,
            input_features: Arc::new(features),
        }
    }
}

/// Gathers the rows of `nodes` (ascending) into a pool-backed matrix.
/// Large receptive fields contain long runs of consecutive ids, so each run
/// is copied with a single memcpy over the row-major storage instead of one
/// copy per row.
fn gather_rows(features: &Matrix, nodes: &[usize], pool: &mut BufferPool) -> Matrix {
    let cols = features.cols();
    let mut out = pool.raw(nodes.len(), cols);
    let src = features.data();
    let dst = out.data_mut();
    let mut r = 0;
    while r < nodes.len() {
        let node = nodes[r];
        let mut run = 1;
        while r + run < nodes.len() && nodes[r + run] == node + run {
            run += 1;
        }
        dst[r * cols..(r + run) * cols].copy_from_slice(&src[node * cols..(node + run) * cols]);
        r += run;
    }
    out
}

/// The first block's output `block · X[src_nodes]`, one row per destination
/// node, without gathering `X`.  A row the sampler kept verbatim is the
/// slice of the normalized adjacency row, so its output is that node's row
/// of `propagated = Â · X`, bit for bit (same entries, same column order,
/// same per-row SpMM body).  A capped row is computed against the global
/// feature rows with that same per-row body.
fn first_step_rows(
    graph: &Graph,
    sampler: &NeighborSampler,
    propagated: &Matrix,
    block: &SampledBlock,
    pool: &mut BufferPool,
) -> Matrix {
    let mut out = pool.raw(block.num_dst(), propagated.cols());
    for (r, &node) in block.dst_nodes.iter().enumerate() {
        let row = out.row_mut(r);
        if sampler.keeps_row_verbatim(0, graph.normalized.row_nnz(node)) {
            row.copy_from_slice(propagated.row(node));
        } else {
            block
                .adj
                .spmm_row_gathered_into(r, &graph.features, &block.src_nodes, row);
        }
    }
    out
}

/// What travels over the pipeline channel: a batch, or a forwarded producer
/// panic (re-raised on the trainer thread).
enum Produced {
    Batch(Box<PreparedBatch>),
    Panicked(Box<dyn Any + Send>),
}

// Cumulative pipeline counters, process-wide: the eval runner snapshots
// them into `RunnerStats` (and `--format json`) after each request.
static BATCHES_PRODUCED: AtomicU64 = AtomicU64::new(0);
static BATCHES_CONSUMED: AtomicU64 = AtomicU64::new(0);
static TRAINER_STALL_NANOS: AtomicU64 = AtomicU64::new(0);
static SAMPLER_IDLE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Cumulative prefetch-pipeline counters since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Batches produced by sampler threads.
    pub batches_produced: u64,
    /// Batches consumed by trainers.
    pub batches_consumed: u64,
    /// Milliseconds trainers spent stalled waiting on the channel.
    pub trainer_stall_ms: u64,
    /// Milliseconds sampler threads spent idle with a full channel.
    pub sampler_idle_ms: u64,
}

/// Snapshot of the process-wide pipeline counters.
pub fn prefetch_stats() -> PrefetchStats {
    PrefetchStats {
        batches_produced: BATCHES_PRODUCED.load(Ordering::Relaxed),
        batches_consumed: BATCHES_CONSUMED.load(Ordering::Relaxed),
        trainer_stall_ms: TRAINER_STALL_NANOS.load(Ordering::Relaxed) / 1_000_000,
        sampler_idle_ms: SAMPLER_IDLE_NANOS.load(Ordering::Relaxed) / 1_000_000,
    }
}

/// The trainer-side handle of a running pipeline (see [`with_prefetcher`]).
#[derive(Debug)]
pub struct Prefetcher {
    rx: Receiver<Produced>,
    recycle_tx: Sender<Vec<f32>>,
}

impl Prefetcher {
    /// The prepared batch for `(epoch, index)`.  Must be called in exactly
    /// the epoch-major order the schedule defines.
    pub fn next_batch(&mut self, epoch: usize, index: usize) -> PreparedBatch {
        #[expect(
            clippy::disallowed_methods,
            reason = "the trainer-stall timer feeds only the reported counters"
        )]
        let start = Instant::now();
        #[expect(
            clippy::panic,
            reason = "the producer sends every scheduled batch (or a Panicked notice) \
                      before exiting, so recv only fails after a harness bug"
        )]
        let produced = self
            .rx
            .recv()
            .unwrap_or_else(|_| panic!("prefetch producer exited before batch ({epoch}, {index})"));
        TRAINER_STALL_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match produced {
            Produced::Batch(batch) => {
                BATCHES_CONSUMED.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!((batch.epoch, batch.index), (epoch, index));
                *batch
            }
            Produced::Panicked(payload) => resume_unwind(payload),
        }
    }

    /// Hands a consumed batch's feature storage back to the producer's
    /// pool.  Callers pass the [`PreparedBatch::input_features`] handle once
    /// the tape has released its reference (after the next
    /// [`bgc_tensor::Tape::reset`]); a still-shared handle is silently
    /// dropped instead.
    pub fn recycle(&mut self, features: Arc<Matrix>) {
        if let Ok(matrix) = Arc::try_unwrap(features) {
            // The producer may already be gone (last epoch drained); storage
            // is simply dropped then.
            let _ = self.recycle_tx.send(matrix.into_data());
        }
    }
}

/// Runs `f` with a [`Prefetcher`] fed by a producer thread that stays up to
/// [`PREFETCH_DEPTH`] batches ahead.
///
/// The producer walks the schedule epoch-major, exactly like the trainer
/// consumes it.  Early stopping simply drops the `Prefetcher`: the
/// producer's next send fails and it exits cleanly (the scoped thread is
/// joined before this function returns).  A producer panic is forwarded and
/// re-raised inside `f`.
pub fn with_prefetcher<R>(
    graph: &Graph,
    sampler: &NeighborSampler,
    input: BatchInput<'_>,
    schedule: BatchSchedule<'_>,
    f: impl FnOnce(&mut Prefetcher) -> R,
) -> R {
    let fault_scope = bgc_runtime::fault::ScopeSnapshot::capture();
    let (tx, rx) = std::sync::mpsc::sync_channel::<Produced>(PREFETCH_DEPTH);
    let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<Vec<f32>>();
    std::thread::scope(|scope| {
        let producer_schedule = schedule.clone();
        scope.spawn(move || {
            let _scope = fault_scope.as_ref().map(|snapshot| snapshot.enter());
            let mut producer = BatchProducer::new(graph, sampler, input);
            let mut order: Vec<usize> = Vec::new();
            let per_epoch = producer_schedule.batches_per_epoch();
            for epoch in 0..producer_schedule.epochs {
                producer_schedule.epoch_order(epoch, &mut order);
                for index in 0..per_epoch {
                    while let Ok(buffer) = recycle_rx.try_recv() {
                        producer.pool.recycle_vec(buffer);
                    }
                    let chunk = producer_schedule.chunk(&order, index);
                    let produced =
                        catch_unwind(AssertUnwindSafe(|| producer.produce(chunk, epoch, index)));
                    match produced {
                        Ok(batch) => {
                            BATCHES_PRODUCED.fetch_add(1, Ordering::Relaxed);
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "the sampler-idle timer feeds only the reported counters"
                            )]
                            let start = Instant::now();
                            if tx.send(Produced::Batch(Box::new(batch))).is_err() {
                                return; // trainer stopped early
                            }
                            SAMPLER_IDLE_NANOS
                                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            // Forward the panic and shut down; the trainer
                            // re-raises it inside its cell's unwind boundary.
                            let _ = tx.send(Produced::Panicked(payload));
                            return;
                        }
                    }
                }
            }
        });
        let mut prefetcher = Prefetcher { rx, recycle_tx };
        f(&mut prefetcher)
        // `prefetcher` drops here, closing the channel; the scope joins the
        // producer, which exits on its next (failing) send.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;

    fn schedule(graph: &Graph) -> BatchSchedule<'_> {
        BatchSchedule {
            train_idx: &graph.split.train,
            batch_size: 16,
            epochs: 3,
            plan_seed: 7,
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Batch `(epoch, index)` of `sched`, produced on this thread by
    /// `BatchProducer::produce`, the function the producer thread calls.
    fn produce_in_thread(
        producer: &mut BatchProducer<'_>,
        sched: &BatchSchedule<'_>,
        epoch: usize,
        index: usize,
    ) -> PreparedBatch {
        let mut order = Vec::new();
        sched.epoch_order(epoch, &mut order);
        producer.produce(sched.chunk(&order, index), epoch, index)
    }

    /// Returns a consumed batch's rows to `producer`'s pool, as the recycle
    /// channel does for the producer thread.
    fn recycle_in_thread(producer: &mut BatchProducer<'_>, features: Arc<Matrix>) {
        let matrix = Arc::try_unwrap(features).expect("the batch's only handle");
        producer.pool.recycle_vec(matrix.into_data());
    }

    #[test]
    fn prefetched_batches_are_bit_identical_to_sync() {
        let graph = DatasetKind::Cora.load_small(3);
        let sampler = NeighborSampler::new(vec![4, 4], 7);
        let sched = schedule(&graph);
        let per_epoch = sched.batches_per_epoch();
        let propagated = graph.normalized.spmm(&graph.features);
        for input in [BatchInput::Raw, BatchInput::FirstStep(&propagated)] {
            let mut reference = BatchProducer::new(&graph, &sampler, input);
            with_prefetcher(&graph, &sampler, input, sched.clone(), |prefetcher| {
                for epoch in 0..sched.epochs {
                    for index in 0..per_epoch {
                        let a = produce_in_thread(&mut reference, &sched, epoch, index);
                        let b = prefetcher.next_batch(epoch, index);
                        assert_eq!(a.targets, b.targets);
                        assert_eq!(a.labels, b.labels);
                        assert_eq!(a.first_step_applied, b.first_step_applied);
                        assert_eq!(a.target_positions, b.target_positions);
                        assert_eq!(
                            bits(&a.input_features),
                            bits(&b.input_features),
                            "{input:?}: input rows must match bit for bit"
                        );
                        for (x, y) in a.sampled.blocks.iter().zip(b.sampled.blocks.iter()) {
                            assert_eq!(x.src_nodes, y.src_nodes);
                            assert_eq!(x.dst_in_src, y.dst_in_src);
                            assert_eq!(*x.adj, *y.adj);
                        }
                        recycle_in_thread(&mut reference, a.input_features);
                        prefetcher.recycle(b.input_features);
                    }
                }
            });
        }
    }

    #[test]
    fn first_step_rows_are_the_first_block_applied_to_the_gathered_features() {
        // Fanout 3 caps some first-block rows of Cora and keeps others
        // verbatim; both kinds must equal the block's SpMM over the raw
        // gather bit for bit.
        let graph = DatasetKind::Cora.load_small(4);
        let sampler = NeighborSampler::new(vec![3, 3], 5);
        let sched = schedule(&graph);
        let propagated = graph.normalized.spmm(&graph.features);
        let mut raw = BatchProducer::new(&graph, &sampler, BatchInput::Raw);
        let mut first = BatchProducer::new(&graph, &sampler, BatchInput::FirstStep(&propagated));
        let (mut verbatim, mut capped) = (0, 0);
        for index in 0..sched.batches_per_epoch() {
            let a = produce_in_thread(&mut raw, &sched, 1, index);
            let b = produce_in_thread(&mut first, &sched, 1, index);
            let block = &b.sampled.blocks[0];
            for &node in &block.dst_nodes {
                if sampler.keeps_row_verbatim(0, graph.normalized.row_nnz(node)) {
                    verbatim += 1;
                } else {
                    capped += 1;
                }
            }
            assert!(!a.first_step_applied && b.first_step_applied);
            assert_eq!(b.input_features.rows(), block.num_dst());
            assert_eq!(
                bits(&block.adj.spmm(&a.input_features)),
                bits(&b.input_features),
                "batch {index}"
            );
            let row_nodes = &block.dst_nodes;
            let picked: Vec<usize> = b.target_positions.iter().map(|&p| row_nodes[p]).collect();
            assert_eq!(picked, b.targets);
        }
        assert!(
            verbatim > 0 && capped > 0,
            "{verbatim} verbatim, {capped} capped rows"
        );
    }

    #[test]
    fn early_drop_shuts_the_producer_down_cleanly() {
        let graph = DatasetKind::Citeseer.load_small(1);
        let sampler = NeighborSampler::new(vec![3], 1);
        let sched = BatchSchedule {
            epochs: 50,
            ..schedule(&graph)
        };
        // Consume two batches of a 50-epoch schedule, then drop: the scoped
        // producer must unblock and join (the test would hang otherwise).
        with_prefetcher(&graph, &sampler, BatchInput::Raw, sched, |prefetcher| {
            let _ = prefetcher.next_batch(0, 0);
            let _ = prefetcher.next_batch(0, 1);
        });
    }

    #[test]
    fn recycled_buffers_make_the_steady_state_allocation_free() {
        let graph = DatasetKind::Cora.load_small(5);
        let sampler = NeighborSampler::new(vec![0, 0], 3);
        let sched = BatchSchedule {
            train_idx: &graph.split.train,
            batch_size: graph.split.train.len(),
            epochs: 6,
            plan_seed: 3,
        };
        // Unbounded single-batch schedule: every epoch gathers the same
        // receptive field, so after the first epoch the producer must serve
        // every gather from recycled storage.
        let mut producer = BatchProducer::new(&graph, &sampler, BatchInput::Raw);
        for epoch in 0..sched.epochs {
            let batch = produce_in_thread(&mut producer, &sched, epoch, 0);
            recycle_in_thread(&mut producer, batch.input_features);
        }
        let stats = producer.pool.stats();
        assert_eq!(stats.fresh_allocations, 1, "one cold gather, then reuse");
        assert_eq!(stats.reuses, sched.epochs - 1);
    }

    #[test]
    fn producer_panic_is_forwarded_and_reraised_on_the_trainer() {
        use bgc_runtime::fault::{FaultAction, FaultPlan, FaultSpec};
        let graph = DatasetKind::Cora.load_small(2);
        let sampler = NeighborSampler::new(vec![2], 9);
        let sched = schedule(&graph);
        let plan =
            FaultPlan::new().with(FaultSpec::new("sampler.produce", FaultAction::Panic).on_hit(2));
        let _scope = plan.enter("pipeline-test");
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_prefetcher(&graph, &sampler, BatchInput::Raw, sched, |prefetcher| {
                let mut consumed = 0;
                for index in 0..4 {
                    let _ = prefetcher.next_batch(0, index);
                    consumed += 1;
                }
                consumed
            })
        }));
        let payload = result.expect_err("the forwarded panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .expect("injected panics carry string payloads");
        assert!(message.contains("sampler.produce"), "{message}");
    }
}
