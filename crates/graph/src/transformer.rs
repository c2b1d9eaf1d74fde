//! The Fig. 12(a) Transformer block: thirteen operators with two residual
//! spans, plus whole-model graph expansion.
//!
//! Operator layout (indices within one block):
//!
//! | # | name       | kind |
//! |---|------------|------|
//! | 0 | ln1        | LayerNorm |
//! | 1 | qkv        | Gemm `[B,S,H] x [H, H + 2*kv_dim]` (3H for MHA) |
//! | 2 | attn-prep  | head split + rotary embedding (elementwise) |
//! | 3 | qk^T       | BatchedMatmul (FlashAttention-fused) |
//! | 4 | softmax    | online softmax (fused) |
//! | 5 | score-v    | BatchedMatmul (fused) |
//! | 6 | projection | Gemm `[B,S,H] x [H,H]` |
//! | 7 | residual1  | skip add |
//! | 8 | ln2        | LayerNorm |
//! | 9 | fc1        | Gemm `[B,S,H] x [H,F]` (gated: `[H,2F]`) |
//! | 10| nonlinear  | GeLU / SiLU |
//! | 11| fc2        | Gemm `[B,S,F] x [F,H]` |
//! | 12| residual2  | skip add |
//!
//! Residual edges span 0→7 (around MHA) and 7→12 (around FFN), so one block
//! forms a single DLS segment; segment boundaries fall between blocks.

use crate::graph::{ComputeGraph, OpId};
use crate::models::ModelConfig;
use crate::op::{OpKind, Operator};
use crate::tensor::LinearDims;
use crate::workload::Workload;

/// Attention implementation choice (§VII-A: TEMP integrates FlashAttention
/// with online softmax).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttentionImpl {
    /// Materialized scores + standalone softmax.
    Standard,
    /// FlashAttention: fused QK^T/softmax/ScoreV, never materializing the
    /// S x S score matrix.
    #[default]
    Flash,
}

/// Builds Transformer block/model graphs for a (model, workload) pair.
#[derive(Debug, Clone)]
pub struct TransformerBuilder<'a> {
    model: &'a ModelConfig,
    workload: &'a Workload,
    attention: AttentionImpl,
}

impl<'a> TransformerBuilder<'a> {
    /// Creates a builder with FlashAttention enabled iff the workload asks
    /// for it.
    pub fn new(model: &'a ModelConfig, workload: &'a Workload) -> Self {
        let attention = if workload.flash_attention {
            AttentionImpl::Flash
        } else {
            AttentionImpl::Standard
        };
        TransformerBuilder {
            model,
            workload,
            attention,
        }
    }

    /// Overrides the attention implementation.
    pub fn with_attention(mut self, attention: AttentionImpl) -> Self {
        self.attention = attention;
        self
    }

    /// One Fig. 12(a) block (13 operators, 2 residual spans).
    pub fn block(&self) -> ComputeGraph {
        let mut g = ComputeGraph::new();
        self.append_block(&mut g, None);
        g
    }

    /// The embedding segment: token lookup into the `vocab x H` table plus
    /// the positional/embedding-dropout elementwise pass. Built at the
    /// global batch like [`TransformerBuilder::block`]; the cost model
    /// applies per-die sharding.
    pub fn embedding_graph(&self) -> ComputeGraph {
        let m = self.model;
        let w = self.workload;
        let tokens = w.global_batch * w.seq_len;
        let mut g = ComputeGraph::new();
        let embed = g.add_op(Operator::new(
            "embed",
            OpKind::Embedding {
                tokens,
                hidden: m.hidden,
                vocab: m.vocab,
            },
        ));
        let drop = g.add_op(Operator::new(
            "embed-drop",
            OpKind::Activation {
                elems: tokens * m.hidden,
            },
        ));
        g.add_edge(embed, drop).expect("forward edge");
        g
    }

    /// The LM-head segment: final norm, the `[B,S,H] x [H,V]` logits GEMM
    /// (weight tied to the embedding table) and the cross-entropy softmax
    /// over the vocabulary.
    pub fn head_graph(&self) -> ComputeGraph {
        let m = self.model;
        let w = self.workload;
        let (b, s) = (w.global_batch, w.seq_len);
        let tokens = b * s;
        let mut g = ComputeGraph::new();
        let ln = g.add_op(Operator::new(
            "final-ln",
            OpKind::LayerNorm {
                tokens,
                hidden: m.hidden,
            },
        ));
        let logits = g.add_op(Operator::new(
            "lm-head",
            OpKind::Gemm(LinearDims::new(b, s, m.hidden, m.vocab)),
        ));
        let ce = g.add_op(Operator::new(
            "ce-softmax",
            OpKind::Softmax {
                rows: tokens,
                cols: m.vocab,
            },
        ));
        g.add_edge(ln, logits).expect("forward edge");
        g.add_edge(logits, ce).expect("forward edge");
        g
    }

    /// One Mixture-of-Experts block: the dense attention path, then a
    /// router GEMM (`[B,S,H] x [H,E]`), the gate softmax, the token
    /// dispatch, the expert FFN pass over the `top_k x capacity_factor`
    /// routed token copies, and the combine back into the residual
    /// stream. Expert GEMMs are built with **one** expert's weight matrix
    /// (each routed token multiplies exactly one expert's weights), so
    /// the op list's FLOP accounting is exact while the *stored* expert
    /// parameters (`E` sets of weights) are accounted at the segment
    /// level.
    ///
    /// Falls back to the dense block when the model has no
    /// [`MoeConfig`](crate::models::MoeConfig).
    pub fn moe_block_graph(&self) -> ComputeGraph {
        let Some(moe) = self.model.moe else {
            return self.block();
        };
        let m = self.model;
        let w = self.workload;
        let (b, s, h) = (w.global_batch, w.seq_len, m.hidden);
        let tokens = b * s;
        let mut g = ComputeGraph::new();
        let res1 = self.append_attention(&mut g, None);
        let ln2 = g.add_op(Operator::new(
            "ln2",
            OpKind::LayerNorm { tokens, hidden: h },
        ));
        let router = g.add_op(Operator::new(
            "router",
            OpKind::Gemm(LinearDims::new(b, s, h, moe.num_experts)),
        ));
        let gate = g.add_op(Operator::new(
            "gate-softmax",
            OpKind::Softmax {
                rows: tokens,
                cols: moe.num_experts,
            },
        ));
        // Routed token copies per sequence: top_k experts per token, padded
        // by the capacity factor.
        let s_routed = ((s * moe.top_k) as f64 * moe.capacity_factor).ceil() as u64;
        let dispatch = g.add_op(Operator::new(
            "dispatch",
            OpKind::Activation {
                elems: b * s_routed * h,
            },
        ));
        let fc1 = g.add_op(Operator::new(
            "expert-fc1",
            OpKind::Gemm(LinearDims::new(b, s_routed, h, 2 * moe.expert_ffn_hidden)),
        ));
        let act = g.add_op(Operator::new(
            "expert-nonlinear",
            OpKind::Activation {
                elems: b * s_routed * moe.expert_ffn_hidden,
            },
        ));
        let fc2 = g.add_op(Operator::new(
            "expert-fc2",
            OpKind::Gemm(LinearDims::new(b, s_routed, moe.expert_ffn_hidden, h)),
        ));
        let combine = g.add_op(Operator::new(
            "combine",
            OpKind::Activation {
                elems: b * s_routed * h,
            },
        ));
        let res2 = g.add_op(Operator::new(
            "residual2",
            OpKind::Residual { elems: tokens * h },
        ));
        for e in [
            (res1, ln2),
            (ln2, router),
            (router, gate),
            (gate, dispatch),
            (dispatch, fc1),
            (fc1, act),
            (act, fc2),
            (fc2, combine),
            (combine, res2),
        ] {
            g.add_edge(e.0, e.1).expect("forward edge");
        }
        g.add_residual_edge(res1, res2).expect("residual edge");
        g
    }

    /// A full model graph of `blocks` chained blocks. Residual sources chain
    /// correctly across blocks (block i's MHA skip starts at block i-1's
    /// final residual).
    pub fn model_graph(&self, blocks: u64) -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let mut prev_out: Option<OpId> = None;
        for _ in 0..blocks {
            prev_out = Some(self.append_block(&mut g, prev_out));
        }
        g
    }

    /// Appends one block; returns the id of its final residual op.
    fn append_block(&self, g: &mut ComputeGraph, prev_out: Option<OpId>) -> OpId {
        let m = self.model;
        let w = self.workload;
        let (b, s, h) = (w.global_batch, w.seq_len, m.hidden);
        let ffn = m.ffn_hidden;
        let tokens = b * s;
        let res1 = self.append_attention(g, prev_out);
        let ln2 = g.add_op(Operator::new(
            "ln2",
            OpKind::LayerNorm { tokens, hidden: h },
        ));
        let fc1_k = if m.gated_ffn { 2 * ffn } else { ffn };
        let fc1 = g.add_op(Operator::new(
            "fc1",
            OpKind::Gemm(LinearDims::new(b, s, h, fc1_k)),
        ));
        let act = g.add_op(Operator::new(
            "nonlinear",
            OpKind::Activation {
                elems: tokens * ffn,
            },
        ));
        let fc2 = g.add_op(Operator::new(
            "fc2",
            OpKind::Gemm(LinearDims::new(b, s, ffn, h)),
        ));
        let res2 = g.add_op(Operator::new(
            "residual2",
            OpKind::Residual { elems: tokens * h },
        ));
        for e in [(res1, ln2), (ln2, fc1), (fc1, act), (act, fc2), (fc2, res2)] {
            g.add_edge(e.0, e.1).expect("forward edge");
        }
        // FFN residual span (the MHA span was anchored by
        // `append_attention`).
        g.add_residual_edge(res1, res2).expect("residual edge");
        res2
    }

    /// Appends the attention half of a block (ln1 through residual1);
    /// returns the id of the MHA residual op. Shared by the dense block
    /// and the MoE block, which differ only in their FFN path.
    fn append_attention(&self, g: &mut ComputeGraph, prev_out: Option<OpId>) -> OpId {
        let m = self.model;
        let w = self.workload;
        let (b, s, h) = (w.global_batch, w.seq_len, m.hidden);
        let heads = m.heads;
        let dh = m.head_dim();
        let fused = self.attention == AttentionImpl::Flash;

        let tokens = b * s;
        let ln1 = g.add_op(Operator::new(
            "ln1",
            OpKind::LayerNorm { tokens, hidden: h },
        ));
        if let Some(p) = prev_out {
            g.add_edge(p, ln1).expect("forward edge");
        }
        // QKV width: H for queries plus 2 * kv_dim for keys/values (GQA).
        let qkv_width = h + 2 * m.kv_dim();
        let qkv = g.add_op(Operator::new(
            "qkv",
            OpKind::Gemm(LinearDims::new(b, s, h, qkv_width)),
        ));
        let prep = g.add_op(Operator::new(
            "attn-prep",
            OpKind::Activation {
                elems: tokens * qkv_width,
            },
        ));
        let mut qkt = Operator::new(
            "qk^T",
            OpKind::BatchedMatmul(LinearDims::new(b * heads, s, dh, s)),
        );
        let mut sm = Operator::new(
            "softmax",
            OpKind::Softmax {
                rows: b * heads * s,
                cols: s,
            },
        );
        let mut sv = Operator::new(
            "score-v",
            OpKind::BatchedMatmul(LinearDims::new(b * heads, s, s, dh)),
        );
        if fused {
            qkt = qkt.fused();
            sm = sm.fused();
            sv = sv.fused();
        }
        let qkt = g.add_op(qkt);
        let sm = g.add_op(sm);
        let sv = g.add_op(sv);
        let proj = g.add_op(Operator::new(
            "projection",
            OpKind::Gemm(LinearDims::new(b, s, h, h)),
        ));
        let res1 = g.add_op(Operator::new(
            "residual1",
            OpKind::Residual { elems: tokens * h },
        ));

        // Sequential dataflow.
        for w in [
            (ln1, qkv),
            (qkv, prep),
            (prep, qkt),
            (qkt, sm),
            (sm, sv),
            (sv, proj),
            (proj, res1),
        ] {
            g.add_edge(w.0, w.1).expect("forward edge");
        }
        // Residual span around MHA (ln1 -> residual1). The MHA skip's true
        // source is the block input, but that value is exactly the tensor
        // already crossing the block boundary on the sequential edge, so
        // anchoring the span at ln1 keeps segmentation cuts legal at block
        // boundaries — which is the granularity the DLS graph partition
        // exploits.
        g.add_residual_edge(ln1, res1).expect("residual edge");
        res1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelZoo;

    fn setup() -> (ModelConfig, Workload) {
        (ModelZoo::gpt3_6_7b(), Workload::training(8, 2048))
    }

    #[test]
    fn block_has_13_operators() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).block();
        assert_eq!(g.op_count(), 13);
    }

    #[test]
    fn block_forms_one_segment() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).block();
        assert_eq!(g.segments(), vec![0..13]);
    }

    #[test]
    fn model_graph_has_one_segment_per_block() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).model_graph(4);
        assert_eq!(g.op_count(), 52);
        let segs = g.segments();
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| s.len() == 13));
    }

    #[test]
    fn block_params_match_model_accounting() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).block();
        // Graph carries QKV + proj + FFN weights + 2 norms = params_per_layer.
        assert_eq!(g.total_params(), m.params_per_layer());
    }

    #[test]
    fn gated_ffn_widens_fc1() {
        let m = ModelZoo::llama2_7b();
        let w = Workload::training(8, 4096);
        let g = TransformerBuilder::new(&m, &w).block();
        let fc1 = g.ops().iter().find(|o| o.name == "fc1").unwrap();
        let dims = fc1.kind.linear_dims().unwrap();
        assert_eq!(dims.k, 2 * m.ffn_hidden);
        assert_eq!(g.total_params(), m.params_per_layer());
    }

    #[test]
    fn flash_attention_marks_fused_ops() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w)
            .with_attention(AttentionImpl::Flash)
            .block();
        let fused: Vec<&str> = g
            .ops()
            .iter()
            .filter(|o| o.fused)
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(fused, vec!["qk^T", "softmax", "score-v"]);
        let std = TransformerBuilder::new(&m, &w)
            .with_attention(AttentionImpl::Standard)
            .block();
        assert!(std.ops().iter().all(|o| !o.fused));
    }

    #[test]
    fn attention_flops_scale_quadratically_with_seq() {
        let m = ModelZoo::gpt3_6_7b();
        let w2k = Workload::training(8, 2048);
        let w4k = Workload::training(8, 4096);
        let f = |w: &Workload| {
            TransformerBuilder::new(&m, w)
                .block()
                .ops()
                .iter()
                .find(|o| o.name == "qk^T")
                .unwrap()
                .flops()
        };
        let ratio = f(&w4k) / f(&w2k);
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn embedding_graph_owns_the_table() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).embedding_graph();
        assert_eq!(g.op_count(), 2);
        assert_eq!(g.total_params(), m.vocab * m.hidden);
    }

    #[test]
    fn head_graph_is_norm_gemm_softmax() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).head_graph();
        assert_eq!(g.op_count(), 3);
        let gemm = g.ops().iter().find(|o| o.name == "lm-head").unwrap();
        let dims = gemm.kind.linear_dims().unwrap();
        assert_eq!(dims.n, m.hidden);
        assert_eq!(dims.k, m.vocab);
        // Tied weight: the head graph carries the vocab x H matrix (the
        // chain-level accounting de-duplicates it against the embedding).
        assert_eq!(g.total_params(), m.vocab * m.hidden + 2 * m.hidden);
    }

    #[test]
    fn moe_block_graph_routes_and_combines() {
        let m = ModelZoo::mixtral_8x7b();
        let w = Workload::training(8, 4096);
        let g = TransformerBuilder::new(&m, &w).moe_block_graph();
        // Attention (8 ops) + ln2 + router/gate/dispatch + expert FFN (3)
        // + combine + residual2.
        assert_eq!(g.op_count(), 17);
        let moe = m.moe.unwrap();
        let router = g.ops().iter().find(|o| o.name == "router").unwrap();
        assert_eq!(router.kind.linear_dims().unwrap().k, moe.num_experts);
        // Expert GEMMs carry one expert's weights and the routed
        // (top_k x capacity) token copies.
        let fc1 = g.ops().iter().find(|o| o.name == "expert-fc1").unwrap();
        let dims = fc1.kind.linear_dims().unwrap();
        assert_eq!(dims.k, 2 * moe.expert_ffn_hidden);
        let s_routed = ((w.seq_len * moe.top_k) as f64 * moe.capacity_factor).ceil() as u64;
        assert_eq!(dims.m, s_routed);
        // One expert's FFN weights + attention + router + norms.
        let one_expert = 3 * m.hidden * moe.expert_ffn_hidden;
        assert_eq!(
            g.total_params(),
            m.attn_params_per_layer() + m.hidden * moe.num_experts + one_expert
        );
        // A dense model falls back to the dense block.
        let dense = ModelZoo::gpt3_6_7b();
        let wd = Workload::training(8, 2048);
        let fallback = TransformerBuilder::new(&dense, &wd).moe_block_graph();
        assert_eq!(fallback.op_count(), 13);
    }

    #[test]
    fn chained_blocks_connect() {
        let (m, w) = setup();
        let g = TransformerBuilder::new(&m, &w).model_graph(2);
        // Block 1's ln1 (op 13) must be fed by block 0's residual2 (op 12).
        assert!(g.edges().contains(&(OpId(12), OpId(13))));
    }
}
