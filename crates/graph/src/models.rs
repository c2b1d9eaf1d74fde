//! The LLM model zoo: Table II configurations plus the motivation and
//! scalability models referenced in Figs. 4, 7 and 19.

use crate::{GraphError, Result};

/// Mixture-of-Experts configuration of a model's MoE blocks.
///
/// A MoE block keeps the dense block's attention path but replaces the
/// FFN with a router plus `num_experts` expert FFNs of width
/// `expert_ffn_hidden`; each token is dispatched to its `top_k` experts
/// (all-to-all across the expert-parallel groups) and the expert outputs
/// are combined back into the residual stream. `capacity_factor` pads the
/// per-expert token budget against routing imbalance — it multiplies the
/// expert compute/activation pace the cost model charges.
///
/// Following the DeepSeek-MoE convention, the first `dense_layers` layers
/// stay dense (a purely dense stem stabilizes routing), so every MoE
/// model yields a *mixed* dense/MoE segment chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeConfig {
    /// Expert count E per MoE layer.
    pub num_experts: u64,
    /// Experts each token is routed to.
    pub top_k: u64,
    /// FFN intermediate size of one expert.
    pub expert_ffn_hidden: u64,
    /// Per-expert token-budget padding factor (>= 1.0).
    pub capacity_factor: f64,
    /// Leading layers that stay dense (>= 1 so the chain is mixed).
    pub dense_layers: u64,
}

impl MoeConfig {
    /// Trained parameters of one MoE layer's expert path: the router
    /// (`H x E`) plus `E` gated expert FFNs (`3 H F_e` each).
    pub fn expert_params(&self, hidden: u64) -> u64 {
        hidden * self.num_experts + self.num_experts * 3 * hidden * self.expert_ffn_hidden
    }

    /// Parameters of the experts one token activates (router + `top_k`
    /// expert FFNs) — what the training-FLOP accounting charges.
    pub fn active_expert_params(&self, hidden: u64) -> u64 {
        hidden * self.num_experts + self.top_k * 3 * hidden * self.expert_ffn_hidden
    }

    /// Activation **elements** per token of the routed expert path kept
    /// for the backward pass: the dispatched inputs (`H`) plus the expert
    /// intermediates (`F_e`) of every `top_k x capacity_factor` routed
    /// copy. The single source of this term — the chain builder, the
    /// per-segment footprint and the whole-model memory verdict all
    /// multiply it by their own dtype/sharding conventions, and must not
    /// drift on the count itself.
    pub fn routed_activation_elems_per_token(&self, hidden: u64) -> f64 {
        self.top_k as f64 * self.capacity_factor * (hidden + self.expert_ffn_hidden) as f64
    }
}

/// Architecture of a decoder-only Transformer LLM.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name ("GPT-3 175B").
    pub name: String,
    /// Attention head count.
    pub heads: u64,
    /// Key/value head count (grouped-query attention; equals `heads` for
    /// classic multi-head attention).
    pub kv_heads: u64,
    /// Hidden size H.
    pub hidden: u64,
    /// Transformer layer count.
    pub layers: u64,
    /// FFN intermediate size.
    pub ffn_hidden: u64,
    /// Whether the FFN is gated (SwiGLU-style, three matrices) as in the
    /// Llama family, versus two matrices for GPT/OPT/Bloom.
    pub gated_ffn: bool,
    /// Vocabulary size.
    pub vocab: u64,
    /// Default sequence length from Table II.
    pub default_seq: u64,
    /// Default global batch size from Table II.
    pub default_batch: u64,
    /// Mixture-of-Experts configuration; `None` for dense models. When
    /// set, layers beyond [`MoeConfig::dense_layers`] swap their FFN for
    /// the routed expert path.
    pub moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// Head dimension `hidden / heads`.
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads
    }

    /// Key/value projection width `kv_heads * head_dim` (equals `hidden`
    /// for classic MHA).
    pub fn kv_dim(&self) -> u64 {
        self.kv_heads * self.head_dim()
    }

    /// Parameters of one Transformer layer.
    ///
    /// Attention: Q (`H^2`) + KV (`2 H kv_dim`) + output projection (`H^2`).
    /// FFN: `2 H F` (or `3 H F` gated). Norms: `4 H`.
    pub fn params_per_layer(&self) -> u64 {
        let attn = 2 * self.hidden * self.hidden + 2 * self.hidden * self.kv_dim();
        let ffn_mats = if self.gated_ffn { 3 } else { 2 };
        let ffn = ffn_mats * self.hidden * self.ffn_hidden;
        attn + ffn + 4 * self.hidden
    }

    /// Parameters of one layer's non-FFN path: attention matrices plus the
    /// two norms — what a MoE layer keeps from the dense block.
    pub fn attn_params_per_layer(&self) -> u64 {
        2 * self.hidden * self.hidden + 2 * self.hidden * self.kv_dim() + 4 * self.hidden
    }

    /// Parameters of one MoE layer: the dense attention path plus the
    /// router and every expert FFN. Zero for dense models.
    pub fn moe_params_per_layer(&self) -> u64 {
        match self.moe {
            Some(moe) => self.attn_params_per_layer() + moe.expert_params(self.hidden),
            None => 0,
        }
    }

    /// How many leading layers are dense (all of them for dense models).
    pub fn dense_layer_count(&self) -> u64 {
        match self.moe {
            Some(moe) => moe.dense_layers.min(self.layers),
            None => self.layers,
        }
    }

    /// How many layers are MoE blocks (zero for dense models).
    pub fn moe_layer_count(&self) -> u64 {
        self.layers - self.dense_layer_count()
    }

    /// Parameters held in expert FFNs plus routers across the whole model
    /// — the part an expert-parallel degree shards. Zero for dense models.
    pub fn total_expert_params(&self) -> u64 {
        match self.moe {
            Some(moe) => self.moe_layer_count() * moe.expert_params(self.hidden),
            None => 0,
        }
    }

    /// Total parameters including the (tied) embedding and, for MoE
    /// models, every expert's weights.
    pub fn total_params(&self) -> u64 {
        self.dense_layer_count() * self.params_per_layer()
            + self.moe_layer_count() * self.moe_params_per_layer()
            + self.vocab * self.hidden
    }

    /// Parameters one token activates: for dense models this equals
    /// [`ModelConfig::total_params`]; for MoE models only `top_k` of the
    /// `num_experts` expert FFNs count — the basis of the training-FLOP
    /// accounting.
    pub fn active_params(&self) -> u64 {
        match self.moe {
            Some(moe) => {
                self.dense_layer_count() * self.params_per_layer()
                    + self.moe_layer_count()
                        * (self.attn_params_per_layer() + moe.active_expert_params(self.hidden))
                    + self.vocab * self.hidden
            }
            None => self.total_params(),
        }
    }

    /// Total parameters in billions (for display).
    pub fn params_b(&self) -> f64 {
        self.total_params() as f64 / 1e9
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when heads do not divide the
    /// hidden size or any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if self.heads == 0 || self.hidden == 0 || self.layers == 0 || self.ffn_hidden == 0 {
            return Err(GraphError::InvalidParameter(format!(
                "model {} has a zero dimension",
                self.name
            )));
        }
        if self.hidden % self.heads != 0 {
            return Err(GraphError::InvalidParameter(format!(
                "model {}: hidden {} not divisible by heads {}",
                self.name, self.hidden, self.heads
            )));
        }
        if let Some(moe) = &self.moe {
            if moe.num_experts == 0 || moe.expert_ffn_hidden == 0 {
                return Err(GraphError::InvalidParameter(format!(
                    "model {} has a zero MoE dimension",
                    self.name
                )));
            }
            if moe.top_k == 0 || moe.top_k > moe.num_experts {
                return Err(GraphError::InvalidParameter(format!(
                    "model {}: top_k {} incompatible with {} experts",
                    self.name, moe.top_k, moe.num_experts
                )));
            }
            if moe.capacity_factor < 1.0 {
                return Err(GraphError::InvalidParameter(format!(
                    "model {}: capacity factor {} below 1.0",
                    self.name, moe.capacity_factor
                )));
            }
            if moe.dense_layers == 0 || moe.dense_layers >= self.layers {
                return Err(GraphError::InvalidParameter(format!(
                    "model {}: dense_layers {} must leave a mixed chain in {} layers",
                    self.name, moe.dense_layers, self.layers
                )));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (H={}, L={}, heads={}, {:.1}B params)",
            self.name,
            self.hidden,
            self.layers,
            self.heads,
            self.params_b()
        )
    }
}

/// Constructors for every model used in the paper's figures.
#[derive(Debug, Clone, Copy)]
pub struct ModelZoo;

impl ModelZoo {
    fn gpt_like(
        name: &str,
        heads: u64,
        hidden: u64,
        layers: u64,
        seq: u64,
        batch: u64,
    ) -> ModelConfig {
        ModelConfig {
            name: name.into(),
            heads,
            kv_heads: heads,
            hidden,
            layers,
            ffn_hidden: 4 * hidden,
            gated_ffn: false,
            vocab: 50_304,
            default_seq: seq,
            default_batch: batch,
            moe: None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn llama_like(
        name: &str,
        heads: u64,
        kv_heads: u64,
        hidden: u64,
        layers: u64,
        ffn: u64,
        vocab: u64,
        seq: u64,
        batch: u64,
    ) -> ModelConfig {
        ModelConfig {
            name: name.into(),
            heads,
            kv_heads,
            hidden,
            layers,
            ffn_hidden: ffn,
            gated_ffn: true,
            vocab,
            default_seq: seq,
            default_batch: batch,
            moe: None,
        }
    }

    // ---- Table II --------------------------------------------------------

    /// GPT-3 6.7B: 32 heads, hidden 4096, 32 layers, seq 2048, batch 128.
    pub fn gpt3_6_7b() -> ModelConfig {
        Self::gpt_like("GPT-3 6.7B", 32, 4096, 32, 2048, 128)
    }

    /// Llama2 7B: 32 heads, hidden 4096, 32 layers, seq 4096, batch 128.
    pub fn llama2_7b() -> ModelConfig {
        Self::llama_like("Llama2 7B", 32, 32, 4096, 32, 11_008, 32_000, 4096, 128)
    }

    /// Llama3 70B: 64 heads, hidden 8192, 80 layers, seq 4096, batch 128.
    pub fn llama3_70b() -> ModelConfig {
        Self::llama_like("Llama3 70B", 64, 8, 8192, 80, 28_672, 128_256, 4096, 128)
    }

    /// GPT-3 76B: 80 heads, hidden 10240, 60 layers, seq 2048, batch 128.
    pub fn gpt3_76b() -> ModelConfig {
        Self::gpt_like("GPT-3 76B", 80, 10_240, 60, 2048, 128)
    }

    /// GPT-3 175B: 96 heads, hidden 12288, 96 layers, seq 2048, batch 128.
    pub fn gpt3_175b() -> ModelConfig {
        Self::gpt_like("GPT-3 175B", 96, 12_288, 96, 2048, 128)
    }

    /// OPT 175B: 96 heads, hidden 12288, 96 layers, seq 4096, batch 128.
    pub fn opt_175b() -> ModelConfig {
        Self::gpt_like("OPT 175B", 96, 12_288, 96, 4096, 128)
    }

    /// The six Table II models, in the paper's order.
    pub fn table2() -> Vec<ModelConfig> {
        vec![
            Self::gpt3_6_7b(),
            Self::llama2_7b(),
            Self::llama3_70b(),
            Self::gpt3_76b(),
            Self::gpt3_175b(),
            Self::opt_175b(),
        ]
    }

    // ---- Motivation models (Fig. 4) --------------------------------------

    /// DeepSeek 7B (Fig. 4(b)).
    pub fn deepseek_7b() -> ModelConfig {
        Self::llama_like("DeepSeek 7B", 32, 32, 4096, 30, 11_008, 102_400, 4096, 128)
    }

    /// DeepSeek 67B (Fig. 4(b)).
    pub fn deepseek_67b() -> ModelConfig {
        Self::llama_like("DeepSeek 67B", 64, 8, 8192, 95, 22_016, 102_400, 4096, 128)
    }

    /// DeepSeek-V2 236B dense-equivalent (Fig. 4(b)).
    pub fn deepseek_v2_236b() -> ModelConfig {
        Self::llama_like(
            "DeepSeek-V2 236B",
            128,
            128,
            16_384,
            72,
            45_056,
            102_400,
            4096,
            128,
        )
    }

    /// Bloom 176B (Fig. 4(c)).
    pub fn bloom_176b() -> ModelConfig {
        Self::gpt_like("Bloom 176B", 112, 14_336, 70, 2048, 128)
    }

    /// Llama2 13B (Fig. 7(c) family).
    pub fn llama2_13b() -> ModelConfig {
        Self::llama_like("Llama2 13B", 40, 40, 5120, 40, 13_824, 32_000, 4096, 128)
    }

    /// Llama2 30B (Fig. 7(c); Llama-1 30B dimensions).
    pub fn llama2_30b() -> ModelConfig {
        Self::llama_like("Llama2 30B", 52, 52, 6656, 60, 17_920, 32_000, 4096, 128)
    }

    /// Llama2 70B (Figs. 4(c), 7(c)).
    pub fn llama2_70b() -> ModelConfig {
        Self::llama_like("Llama2 70B", 64, 8, 8192, 80, 28_672, 32_000, 4096, 128)
    }

    // ---- MoE models (fig20_moe; MoEntwine/WATOS workload family) ----------

    /// Mixtral-8x7B-like: Llama-7B attention geometry (GQA, seq 4096) with
    /// eight SwiGLU experts of width 14336, top-2 routing and a 1.25
    /// capacity factor. Two leading layers stay dense so the segment
    /// chain mixes dense and MoE blocks.
    pub fn mixtral_8x7b() -> ModelConfig {
        let mut m = Self::llama_like("Mixtral 8x7B", 32, 8, 4096, 32, 14_336, 32_000, 4096, 128);
        m.moe = Some(MoeConfig {
            num_experts: 8,
            top_k: 2,
            expert_ffn_hidden: 14_336,
            capacity_factor: 1.25,
            dense_layers: 2,
        });
        m
    }

    /// DeepSeek-MoE-16B-style fine-grained config: 64 narrow experts of
    /// width 1408 with top-6 routing, one dense stem layer — many small
    /// experts stress the all-to-all dispatch instead of expert GEMM
    /// width.
    pub fn deepseek_moe_16b() -> ModelConfig {
        let mut m = Self::llama_like(
            "DeepSeek-MoE 16B",
            16,
            16,
            2048,
            28,
            10_944,
            102_400,
            4096,
            128,
        );
        m.moe = Some(MoeConfig {
            num_experts: 64,
            top_k: 6,
            expert_ffn_hidden: 1408,
            capacity_factor: 1.0,
            dense_layers: 1,
        });
        m
    }

    /// The MoE model zoo (fig20_moe): a wide-expert Mixtral-like config
    /// and a fine-grained DeepSeek-style one.
    pub fn moe_zoo() -> Vec<ModelConfig> {
        vec![Self::mixtral_8x7b(), Self::deepseek_moe_16b()]
    }

    // ---- Scalability models (Fig. 19) -------------------------------------

    /// Grok-1 341B dense-equivalent (Fig. 19, 4 wafers).
    pub fn grok1_341b() -> ModelConfig {
        Self::gpt_like("Grok-1 341B", 96, 15_360, 120, 8192, 128)
    }

    /// Llama3 405B (Fig. 19, 4 wafers).
    pub fn llama3_405b() -> ModelConfig {
        Self::llama_like(
            "Llama3 405B",
            128,
            8,
            16_384,
            126,
            53_248,
            128_256,
            8192,
            128,
        )
    }

    /// GPT-3 504B variant (Fig. 19, 6 wafers).
    pub fn gpt3_504b() -> ModelConfig {
        Self::gpt_like("GPT-3 504B", 128, 16_384, 156, 2048, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_models_validate() {
        for m in ModelZoo::table2() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn param_counts_land_near_nameplates() {
        let cases = [
            (ModelZoo::gpt3_6_7b(), 6.7),
            (ModelZoo::llama2_7b(), 7.0),
            (ModelZoo::llama3_70b(), 70.0),
            (ModelZoo::gpt3_76b(), 76.0),
            (ModelZoo::gpt3_175b(), 175.0),
            (ModelZoo::opt_175b(), 175.0),
            (ModelZoo::llama2_70b(), 70.0),
            (ModelZoo::bloom_176b(), 176.0),
            (ModelZoo::grok1_341b(), 341.0),
            (ModelZoo::llama3_405b(), 405.0),
            (ModelZoo::gpt3_504b(), 504.0),
        ];
        for (m, nameplate) in cases {
            let b = m.params_b();
            let err = (b - nameplate).abs() / nameplate;
            assert!(
                err < 0.15,
                "{}: {b:.1}B vs nameplate {nameplate}B ({err:.0}%)",
                m.name
            );
        }
    }

    #[test]
    fn head_dim_divides() {
        for m in ModelZoo::table2() {
            assert_eq!(m.head_dim() * m.heads, m.hidden, "{}", m.name);
        }
    }

    #[test]
    fn invalid_head_count_rejected() {
        let mut m = ModelZoo::gpt3_6_7b();
        m.heads = 33;
        assert!(m.validate().is_err());
    }

    #[test]
    fn table2_defaults_match_paper() {
        let m = ModelZoo::gpt3_175b();
        assert_eq!(m.default_batch, 128);
        assert_eq!(m.default_seq, 2048);
        assert_eq!(ModelZoo::opt_175b().default_seq, 4096);
        assert_eq!(ModelZoo::llama2_7b().default_seq, 4096);
    }

    #[test]
    fn moe_zoo_models_validate_and_count_experts() {
        for m in ModelZoo::moe_zoo() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
            let moe = m.moe.expect("moe zoo models carry a MoeConfig");
            assert!(m.dense_layer_count() >= 1, "{}", m.name);
            assert!(m.moe_layer_count() >= 1, "{}", m.name);
            assert_eq!(m.dense_layer_count() + m.moe_layer_count(), m.layers);
            // Stored params dominate active params by roughly E/top_k on
            // the expert path.
            assert!(m.total_params() > m.active_params(), "{}", m.name);
            assert_eq!(
                m.total_expert_params(),
                m.moe_layer_count() * moe.expert_params(m.hidden)
            );
            // The layer split is consistent with the totals.
            let expect = m.dense_layer_count() * m.params_per_layer()
                + m.moe_layer_count() * m.moe_params_per_layer()
                + m.vocab * m.hidden;
            assert_eq!(m.total_params(), expect, "{}", m.name);
        }
        // Mixtral-like lands near the 47B nameplate with ~13B active.
        let mixtral = ModelZoo::mixtral_8x7b();
        let total_b = mixtral.params_b();
        assert!((40.0..50.0).contains(&total_b), "{total_b}");
        let active_b = mixtral.active_params() as f64 / 1e9;
        assert!((10.0..15.0).contains(&active_b), "{active_b}");
        // Dense models: active == total, no expert params.
        let dense = ModelZoo::gpt3_6_7b();
        assert_eq!(dense.active_params(), dense.total_params());
        assert_eq!(dense.total_expert_params(), 0);
        assert_eq!(dense.moe_layer_count(), 0);
    }

    #[test]
    fn invalid_moe_configs_are_rejected() {
        let base = ModelZoo::mixtral_8x7b();
        let with = |f: fn(&mut MoeConfig)| {
            let mut m = base.clone();
            f(m.moe.as_mut().unwrap());
            m
        };
        assert!(with(|c| c.top_k = 0).validate().is_err());
        assert!(with(|c| c.top_k = 99).validate().is_err());
        assert!(with(|c| c.num_experts = 0).validate().is_err());
        assert!(with(|c| c.capacity_factor = 0.5).validate().is_err());
        assert!(with(|c| c.dense_layers = 0).validate().is_err());
        assert!(with(|c| c.dense_layers = 32).validate().is_err());
    }

    #[test]
    fn gated_ffn_has_three_matrices() {
        let llama = ModelZoo::llama2_7b();
        let gpt = ModelZoo::gpt3_6_7b();
        // Same H and L; llama's FFN params = 3*H*F vs gpt's 2*H*(4H).
        let llama_ffn = 3 * llama.hidden * llama.ffn_hidden;
        assert_eq!(
            llama.params_per_layer() - 4 * llama.hidden * llama.hidden - 4 * llama.hidden,
            llama_ffn
        );
        assert!(gpt.params_per_layer() > 0);
    }
}
