//! Naive TSPP: the unidirectional logical-ring strawman (§III, Fig. 5(a)).
//!
//! Each die holds one sub-tensor; every round it computes with its current
//! sub-tensor and forwards it one step around the *logical* ring. On a
//! physical mesh path, the ring's wrap edge spans `N-1` hops — the tail
//! latency TATP eliminates.

use crate::stream::{StreamOrchestration, StreamRound, StreamSend};
use crate::Result;

/// The naive ring orchestration for one parallel group of `n` dies.
#[derive(Debug, Clone, PartialEq)]
pub struct TsppOrchestration {
    inner: StreamOrchestration,
}

impl TsppOrchestration {
    /// Builds the naive logical-ring orchestration.
    ///
    /// Round `t`: die `i` computes with `subT[(i + t) mod N]`, then receives
    /// `subT[(i + t + 1) mod N]` from logical neighbor `i + 1` (the die
    /// holding it), i.e. every die forwards its current sub-tensor to `i-1`
    /// around the ring.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize) -> Self {
        assert!(n > 0, "TSPP group must be non-empty");
        let mut rounds = Vec::with_capacity(n);
        for t in 0..n {
            let mut round = StreamRound::default();
            for i in 0..n {
                round.computes.push((i, (i + t) % n));
            }
            // Forward current sub-tensors for the next round (skip last).
            if t + 1 < n {
                for i in 0..n {
                    let holder = i; // die i holds subT[(i + t) % n] now
                    let receiver = (i + n - 1) % n;
                    round.sends.push(StreamSend {
                        from: holder,
                        to: receiver,
                        sub: (i + t) % n,
                    });
                }
            }
            rounds.push(round);
        }
        TsppOrchestration {
            inner: StreamOrchestration::new(n, rounds),
        }
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// The rounds.
    pub fn rounds(&self) -> &[StreamRound] {
        self.inner.rounds()
    }

    /// The underlying stream orchestration (for lowering).
    pub fn stream(&self) -> &StreamOrchestration {
        &self.inner
    }

    /// Largest logical hop distance — `n - 1` (the wrap edge) for `n >= 2`.
    pub fn max_hop_distance(&self) -> usize {
        self.inner.max_hop_distance()
    }

    /// Validates ring-orchestration invariants (operand availability,
    /// exactly-once computes).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ParallelError::InvariantViolation`] on any replay
    /// failure.
    pub fn validate(&self) -> Result<crate::stream::StreamStats> {
        self.inner.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_validates_for_all_sizes() {
        for n in 1..=24 {
            let orch = TsppOrchestration::build(n);
            let stats = orch.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            // Ring holds at most own + one incoming.
            assert!(
                stats.peak_buffer <= 2,
                "n={n}: buffer {}",
                stats.peak_buffer
            );
        }
    }

    #[test]
    fn wrap_edge_spans_n_minus_1_logical_hops() {
        let orch = TsppOrchestration::build(8);
        assert_eq!(orch.max_hop_distance(), 7);
    }

    #[test]
    fn send_volume_matches_ring_formula() {
        // n sends per round for n-1 rounds.
        let orch = TsppOrchestration::build(8);
        assert_eq!(orch.stream().total_sends(), 8 * 7);
    }

    #[test]
    fn every_die_sees_every_subtensor() {
        let orch = TsppOrchestration::build(6);
        orch.validate().unwrap(); // completeness is part of validation
        for round in orch.rounds() {
            assert_eq!(round.computes.len(), 6);
        }
    }
}
