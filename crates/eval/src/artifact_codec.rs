//! Binary codecs for the artifacts the runner persists in the
//! content-addressed store: clean condensed graphs, attack outputs
//! (condensed graph + trigger-provider snapshot) and cell results.
//!
//! The encoding is fixed-width little-endian with `f32` values carried by
//! their IEEE-754 bits, so a decoded artifact is bit-identical to the
//! encoded one and cold/warm/cross-process runs produce the same bytes.
//! Decoders are total: every length and tag is validated and any
//! malformation returns `None` (the store treats that as corruption and
//! recomputes) — they never panic on attacker- or crash-shaped input.
//!
//! Attack artifacts are only encodable when their trigger provider is
//! snapshottable ([`bgc_core::TriggerProvider::snapshot`]); third-party
//! providers without a snapshot simply stay process-local.

use std::sync::Arc;

use bgc_core::{AttackArtifacts, GeneratorKind, GeneratorSnapshot, TriggerSnapshot};
use bgc_graph::CondensedGraph;
use bgc_tensor::Matrix;

use crate::runner::CellResult;

/// Format version embedded in every encoded artifact; bump on layout
/// changes so stale artifacts fail decoding and recompute.
const CODEC_VERSION: u32 = 1;

/// Provider tag: BGC's adaptive generator.
const TAG_GENERATOR: u8 = 1;
/// Provider tag: a universal (sample-agnostic) trigger block.
const TAG_UNIVERSAL: u8 = 2;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    for &v in m.data() {
        put_f32(out, v);
    }
}

fn put_labels(out: &mut Vec<u8>, labels: &[usize]) {
    put_u64(out, labels.len() as u64);
    for &l in labels {
        put_u64(out, l as u64);
    }
}

// ---------------------------------------------------------------------------
// Primitive readers (total: every read is bounds-checked)
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over an artifact payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(s);
            u32::from_le_bytes(buf)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(s);
            u64::from_le_bytes(buf)
        })
    }

    /// Bytes not yet consumed (`pos` never exceeds the payload length).
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A `u64` length field that must fit in `usize` and describe at most
    /// the remaining payload (each element is at least one byte), so a
    /// corrupt length can never trigger a huge allocation.
    fn len(&mut self) -> Option<usize> {
        let v = usize::try_from(self.u64()?).ok()?;
        (v <= self.remaining()).then_some(v)
    }

    fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    fn matrix(&mut self) -> Option<Matrix> {
        let rows = usize::try_from(self.u64()?).ok()?;
        let cols = usize::try_from(self.u64()?).ok()?;
        let count = rows.checked_mul(cols)?;
        // 4 bytes per element must be available before allocating.
        if count.checked_mul(4)? > self.remaining() {
            return None;
        }
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            data.push(self.f32()?);
        }
        Some(Matrix::new(rows, cols, data))
    }

    fn labels(&mut self) -> Option<Vec<usize>> {
        let n = self.len()?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(usize::try_from(self.u64()?).ok()?);
        }
        Some(labels)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// Condensed graphs
// ---------------------------------------------------------------------------

fn put_condensed(out: &mut Vec<u8>, g: &CondensedGraph) {
    put_u64(out, g.num_classes as u64);
    put_matrix(out, &g.features);
    put_matrix(out, &g.adjacency);
    put_labels(out, &g.labels);
}

fn read_condensed(cur: &mut Cursor<'_>) -> Option<CondensedGraph> {
    let num_classes = usize::try_from(cur.u64()?).ok()?;
    let features = cur.matrix()?;
    let adjacency = cur.matrix()?;
    let labels = cur.labels()?;
    // `CondensedGraph::new` asserts these invariants; check them here so a
    // corrupt payload decodes to `None` instead of panicking.
    let n = features.rows();
    if adjacency.shape() != (n, n) || labels.len() != n {
        return None;
    }
    if !labels.iter().all(|&l| l < num_classes) {
        return None;
    }
    Some(CondensedGraph::new(
        features,
        adjacency,
        labels,
        num_classes,
    ))
}

/// Encodes a clean condensed graph for the store.
pub fn encode_condensed(g: &CondensedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, CODEC_VERSION);
    put_condensed(&mut out, g);
    out
}

/// Decodes a clean condensed graph; `None` on any malformation.
pub fn decode_condensed(bytes: &[u8]) -> Option<CondensedGraph> {
    let mut cur = Cursor::new(bytes);
    if cur.u32()? != CODEC_VERSION {
        return None;
    }
    let g = read_condensed(&mut cur)?;
    cur.finished().then_some(g)
}

// ---------------------------------------------------------------------------
// Attack artifacts
// ---------------------------------------------------------------------------

fn kind_tag(kind: GeneratorKind) -> u8 {
    match kind {
        GeneratorKind::Mlp => 0,
        GeneratorKind::Gcn => 1,
        GeneratorKind::Transformer => 2,
    }
}

fn kind_from_tag(tag: u8) -> Option<GeneratorKind> {
    match tag {
        0 => Some(GeneratorKind::Mlp),
        1 => Some(GeneratorKind::Gcn),
        2 => Some(GeneratorKind::Transformer),
        _ => None,
    }
}

fn put_snapshot(out: &mut Vec<u8>, snap: &TriggerSnapshot) {
    match snap {
        TriggerSnapshot::Generator(g) => {
            out.push(TAG_GENERATOR);
            out.push(kind_tag(g.kind));
            put_u64(out, g.trigger_size as u64);
            put_u64(out, g.feat_dim as u64);
            put_u64(out, g.hidden as u64);
            put_f32(out, g.feature_scale);
            put_u64(out, g.matrices.len() as u64);
            for m in &g.matrices {
                put_matrix(out, m);
            }
        }
        TriggerSnapshot::Universal(features) => {
            out.push(TAG_UNIVERSAL);
            put_matrix(out, features);
        }
    }
}

fn read_snapshot(cur: &mut Cursor<'_>) -> Option<TriggerSnapshot> {
    match cur.u8()? {
        TAG_GENERATOR => {
            let kind = kind_from_tag(cur.u8()?)?;
            let trigger_size = usize::try_from(cur.u64()?).ok()?;
            let feat_dim = usize::try_from(cur.u64()?).ok()?;
            let hidden = usize::try_from(cur.u64()?).ok()?;
            let feature_scale = cur.f32()?;
            let count = cur.len()?;
            let mut matrices = Vec::with_capacity(count);
            for _ in 0..count {
                matrices.push(cur.matrix()?);
            }
            Some(TriggerSnapshot::Generator(GeneratorSnapshot {
                kind,
                trigger_size,
                feat_dim,
                hidden,
                feature_scale,
                matrices,
            }))
        }
        TAG_UNIVERSAL => Some(TriggerSnapshot::Universal(cur.matrix()?)),
        _ => None,
    }
}

/// Encodes attack artifacts (poisoned condensed graph + trigger provider)
/// for the store.  Returns `None` when the provider is not snapshottable —
/// the artifact then stays process-local instead of being persisted.
pub fn encode_attack(artifacts: &AttackArtifacts) -> Option<Vec<u8>> {
    let snap = artifacts.provider.snapshot()?;
    let mut out = Vec::new();
    put_u32(&mut out, CODEC_VERSION);
    put_condensed(&mut out, &artifacts.condensed);
    put_snapshot(&mut out, &snap);
    Some(out)
}

/// Decodes attack artifacts; `None` on any malformation (including a
/// structurally invalid provider snapshot).
pub fn decode_attack(bytes: &[u8]) -> Option<AttackArtifacts> {
    let mut cur = Cursor::new(bytes);
    if cur.u32()? != CODEC_VERSION {
        return None;
    }
    let condensed = read_condensed(&mut cur)?;
    let snapshot = read_snapshot(&mut cur)?;
    if !cur.finished() {
        return None;
    }
    let provider = snapshot.into_provider()?;
    Some(AttackArtifacts {
        condensed: Arc::new(condensed),
        provider,
    })
}

// ---------------------------------------------------------------------------
// Cell results
// ---------------------------------------------------------------------------

/// Encodes a cell's measured result for the store.
pub fn encode_cell(result: &CellResult) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, CODEC_VERSION);
    put_f32(&mut out, result.c_cta);
    put_f32(&mut out, result.cta);
    put_f32(&mut out, result.c_asr);
    put_f32(&mut out, result.asr);
    put_u64(&mut out, result.asr_nodes as u64);
    out.push(u8::from(result.oom));
    out
}

/// Decodes a cell result; `None` on any malformation.
pub fn decode_cell(bytes: &[u8]) -> Option<CellResult> {
    let mut cur = Cursor::new(bytes);
    if cur.u32()? != CODEC_VERSION {
        return None;
    }
    // Struct fields evaluate in source order, matching the encoder.
    let result = CellResult {
        c_cta: cur.f32()?,
        cta: cur.f32()?,
        c_asr: cur.f32()?,
        asr: cur.f32()?,
        asr_nodes: usize::try_from(cur.u64()?).ok()?,
        oom: match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
    };
    cur.finished().then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_core::{TriggerGenerator, TriggerProvider, UniversalTrigger};
    use bgc_tensor::init::{randn, rng_from_seed};

    fn toy_condensed() -> CondensedGraph {
        let mut rng = rng_from_seed(11);
        let features = randn(5, 7, 0.0, 1.0, &mut rng);
        let adjacency = randn(5, 5, 0.0, 0.3, &mut rng);
        CondensedGraph::new(features, adjacency, vec![0, 1, 2, 0, 1], 3)
    }

    #[test]
    fn condensed_round_trip_is_bit_exact() {
        let g = toy_condensed();
        let bytes = encode_condensed(&g);
        let decoded = decode_condensed(&bytes).expect("valid payload decodes");
        assert!(decoded.features.approx_eq(&g.features, 0.0));
        assert!(decoded.adjacency.approx_eq(&g.adjacency, 0.0));
        assert_eq!(decoded.labels, g.labels);
        assert_eq!(decoded.num_classes, g.num_classes);
        // Encoding is deterministic: the store's byte-identity guarantees
        // rest on this.
        assert_eq!(bytes, encode_condensed(&decoded));
    }

    #[test]
    fn attack_round_trip_preserves_provider_behaviour() {
        use bgc_nn::AdjacencyRef;
        use bgc_tensor::{CsrMatrix, Tape};

        let adj = AdjacencyRef::sparse(
            CsrMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3)])
                .symmetrize()
                .gcn_normalize(),
        );
        let mut rng = rng_from_seed(12);
        let graph_features = randn(6, 7, 0.0, 1.0, &mut rng);
        let triggers = |provider: &dyn TriggerProvider, node: usize| {
            provider.triggers(&mut Tape::new(), &adj, &graph_features, &[node])
        };

        for kind in GeneratorKind::all() {
            let mut rng = rng_from_seed(13);
            let gen = TriggerGenerator::new(kind, 7, 8, 3, &mut rng);
            let reference = triggers(&gen, 2);
            let artifacts = AttackArtifacts {
                condensed: Arc::new(toy_condensed()),
                provider: Arc::new(gen),
            };
            let bytes = encode_attack(&artifacts).expect("generator is snapshottable");
            let decoded = decode_attack(&bytes).expect("valid payload decodes");
            let replayed = triggers(decoded.provider.as_ref(), 2);
            assert!(
                reference.approx_eq(&replayed, 0.0),
                "{}: decoded provider must be bit-identical",
                kind.name()
            );
        }

        let universal = AttackArtifacts {
            condensed: Arc::new(toy_condensed()),
            provider: Arc::new(UniversalTrigger::new(randn(4, 7, 0.0, 1.0, &mut rng))),
        };
        let bytes = encode_attack(&universal).expect("universal trigger is snapshottable");
        let decoded = decode_attack(&bytes).expect("valid payload decodes");
        assert!(triggers(decoded.provider.as_ref(), 0)
            .approx_eq(&triggers(universal.provider.as_ref(), 0), 0.0));
    }

    #[test]
    fn corrupt_payloads_decode_to_none_not_panic() {
        let g = toy_condensed();
        let bytes = encode_condensed(&g);
        // Truncation at every prefix length.
        for cut in 0..bytes.len() {
            assert!(decode_condensed(&bytes[..cut]).is_none(), "cut {}", cut);
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_condensed(&long).is_none());
        // A label pushed out of range.
        let mut bad = bytes.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_condensed(&bad).is_none());
        // Version bump.
        let mut stale = bytes.clone();
        stale[0] = 99;
        assert!(decode_condensed(&stale).is_none());

        let artifacts = AttackArtifacts {
            condensed: Arc::new(g),
            provider: Arc::new(UniversalTrigger::new(Matrix::ones(2, 7))),
        };
        let bytes = encode_attack(&artifacts).expect("encodable");
        for cut in 0..bytes.len() {
            assert!(decode_attack(&bytes[..cut]).is_none(), "cut {}", cut);
        }
        // An unknown provider tag.
        let mut bad_tag = bytes.clone();
        // The provider tag sits right after the condensed-graph block; find
        // it by re-encoding the condensed part.
        let prefix = {
            let mut out = Vec::new();
            put_u32(&mut out, CODEC_VERSION);
            put_condensed(&mut out, &artifacts.condensed);
            out.len()
        };
        bad_tag[prefix] = 99;
        assert!(decode_attack(&bad_tag).is_none());
    }

    #[test]
    fn cell_round_trip_is_bit_exact_and_total() {
        let result = CellResult {
            c_cta: 0.768,
            cta: f32::from_bits(0x3ea5_1eb8),
            c_asr: -0.0,
            asr: 1.0,
            asr_nodes: 1234,
            oom: false,
        };
        let bytes = encode_cell(&result);
        let decoded = decode_cell(&bytes).expect("valid payload decodes");
        assert_eq!(encode_cell(&decoded), bytes, "bit-exact, deterministic");
        assert_eq!(decoded.c_asr.to_bits(), result.c_asr.to_bits());
        let oom = CellResult {
            oom: true,
            ..result
        };
        assert!(decode_cell(&encode_cell(&oom)).expect("decodes").oom);

        for cut in 0..bytes.len() {
            assert!(decode_cell(&bytes[..cut]).is_none(), "cut {}", cut);
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_cell(&long).is_none());
        let mut bad_flag = bytes.clone();
        let last = bad_flag.len() - 1;
        bad_flag[last] = 2;
        assert!(decode_cell(&bad_flag).is_none());
    }
}
