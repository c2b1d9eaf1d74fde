//! Stream-orchestration IR shared by TSPP and TATP, with replay validation.
//!
//! An orchestration is a sequence of rounds over `n` logical positions
//! (dies on a path/ring). Each round names which sub-tensor every position
//! computes with and which sub-tensors move between positions. The replay
//! validator checks the paper's correctness claims: every operand is present
//! when used, every sender holds its payload, every (die, sub-tensor) pair
//! is computed exactly once, and transient buffers stay small.

use std::collections::BTreeSet;

use crate::{ParallelError, Result};

/// A sub-tensor transfer between logical positions during a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamSend {
    /// Sending logical position.
    pub from: usize,
    /// Receiving logical position.
    pub to: usize,
    /// Sub-tensor index.
    pub sub: usize,
}

impl StreamSend {
    /// Logical hop distance of the send.
    pub fn distance(&self) -> usize {
        self.from.abs_diff(self.to)
    }
}

/// One orchestration round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamRound {
    /// `(position, sub-tensor)` compute assignments.
    pub computes: Vec<(usize, usize)>,
    /// Transfers issued during this round (payload usable from the next).
    pub sends: Vec<StreamSend>,
}

/// A full stream orchestration over `n` positions and `n` sub-tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOrchestration {
    n: usize,
    rounds: Vec<StreamRound>,
}

/// Replay statistics gathered by [`StreamOrchestration::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Largest number of sub-tensors any position held at once (including
    /// its resident shard).
    pub peak_buffer: usize,
    /// Total sends across all rounds.
    pub total_sends: usize,
    /// Largest logical hop distance of any send.
    pub max_hop_distance: usize,
}

impl StreamOrchestration {
    /// Builds an orchestration from rounds.
    pub fn new(n: usize, rounds: Vec<StreamRound>) -> Self {
        StreamOrchestration { n, rounds }
    }

    /// Number of logical positions / sub-tensors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The rounds.
    pub fn rounds(&self) -> &[StreamRound] {
        &self.rounds
    }

    /// Largest logical hop distance of any send.
    pub fn max_hop_distance(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.sends.iter())
            .map(StreamSend::distance)
            .max()
            .unwrap_or(0)
    }

    /// Total number of sends.
    pub fn total_sends(&self) -> usize {
        self.rounds.iter().map(|r| r.sends.len()).sum()
    }

    /// Replays the orchestration, checking all invariants; returns buffer
    /// statistics.
    ///
    /// Invariants checked:
    /// 1. every compute's operand is held by the computing position;
    /// 2. every send's payload is held by the sender;
    /// 3. every (position, sub-tensor) pair is computed exactly once;
    /// 4. position indices are within range.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::InvariantViolation`] describing the first
    /// failure.
    pub fn validate(&self) -> Result<StreamStats> {
        let n = self.n;
        // holdings[p] = sub-tensors available at position p at round start.
        let mut holdings: Vec<BTreeSet<usize>> = (0..n)
            .map(|p| {
                let mut s = BTreeSet::new();
                s.insert(p); // resident shard
                s
            })
            .collect();
        let mut computed: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        // Future uses and future arrivals per (pos, sub), for the drop
        // policy: a copy may be dropped when every future use is covered by
        // a later (re-)delivery — this is what keeps TATP buffers constant.
        let uses = self.use_table();
        let arrivals = self.arrival_table();
        let mut peak_buffer = holdings.iter().map(BTreeSet::len).max().unwrap_or(0);

        for (t, round) in self.rounds.iter().enumerate() {
            for &(p, sub) in &round.computes {
                if p >= n || sub >= n {
                    return Err(ParallelError::InvariantViolation(format!(
                        "round {t}: compute ({p}, {sub}) out of range for n={n}"
                    )));
                }
                if !holdings[p].contains(&sub) {
                    return Err(ParallelError::InvariantViolation(format!(
                        "round {t}: position {p} computes sub {sub} it does not hold \
                         (holds {:?})",
                        holdings[p]
                    )));
                }
                if !computed[p].insert(sub) {
                    return Err(ParallelError::InvariantViolation(format!(
                        "round {t}: position {p} computes sub {sub} twice"
                    )));
                }
            }
            // Sends read this round's holdings; deliveries land next round.
            let mut deliveries: Vec<(usize, usize)> = Vec::new();
            for s in &round.sends {
                if s.from >= n || s.to >= n || s.sub >= n {
                    return Err(ParallelError::InvariantViolation(format!(
                        "round {t}: send {s:?} out of range for n={n}"
                    )));
                }
                if !holdings[s.from].contains(&s.sub) {
                    return Err(ParallelError::InvariantViolation(format!(
                        "round {t}: position {} sends sub {} it does not hold",
                        s.from, s.sub
                    )));
                }
                deliveries.push((s.to, s.sub));
            }
            // Drop foreign sub-tensors whose every future use is covered by
            // a later arrival (or that have no future use), then deliver.
            for (p, h) in holdings.iter_mut().enumerate() {
                h.retain(|sub| {
                    if *sub == p {
                        return true; // resident shard
                    }
                    // Keep iff some future use is NOT covered by a future
                    // arrival occurring before it.
                    uses[p][*sub]
                        .iter()
                        .any(|&u| u > t && !arrivals[p][*sub].iter().any(|&a| a > t && a <= u))
                });
            }
            for (to, sub) in deliveries {
                holdings[to].insert(sub);
            }
            peak_buffer = peak_buffer.max(holdings.iter().map(BTreeSet::len).max().unwrap_or(0));
        }
        // Completeness: every position computed every sub-tensor.
        for (p, set) in computed.iter().enumerate() {
            if set.len() != n {
                return Err(ParallelError::InvariantViolation(format!(
                    "position {p} computed {} of {n} sub-tensors",
                    set.len()
                )));
            }
        }
        Ok(StreamStats {
            peak_buffer,
            total_sends: self.total_sends(),
            max_hop_distance: self.max_hop_distance(),
        })
    }

    /// `uses[p][sub]` = sorted rounds at which position `p` computes with or
    /// forwards `sub`.
    fn use_table(&self) -> Vec<Vec<Vec<usize>>> {
        let mut uses = vec![vec![Vec::new(); self.n]; self.n];
        for (t, round) in self.rounds.iter().enumerate() {
            for &(p, sub) in &round.computes {
                if p < self.n && sub < self.n {
                    uses[p][sub].push(t);
                }
            }
            for s in &round.sends {
                if s.from < self.n && s.sub < self.n {
                    uses[s.from][s.sub].push(t);
                }
            }
        }
        uses
    }

    /// `arrivals[p][sub]` = sorted rounds at which `sub` becomes available
    /// at `p` via a delivery (send at round `t` ⇒ available at `t + 1`).
    fn arrival_table(&self) -> Vec<Vec<Vec<usize>>> {
        let mut arr = vec![vec![Vec::new(); self.n]; self.n];
        for (t, round) in self.rounds.iter().enumerate() {
            for s in &round.sends {
                if s.to < self.n && s.sub < self.n {
                    arr[s.to][s.sub].push(t + 1);
                }
            }
        }
        arr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 2-position exchange: each computes its own shard, swaps,
    /// computes the other's.
    fn two_way() -> StreamOrchestration {
        StreamOrchestration::new(
            2,
            vec![
                StreamRound {
                    computes: vec![(0, 0), (1, 1)],
                    sends: vec![
                        StreamSend {
                            from: 0,
                            to: 1,
                            sub: 0,
                        },
                        StreamSend {
                            from: 1,
                            to: 0,
                            sub: 1,
                        },
                    ],
                },
                StreamRound {
                    computes: vec![(0, 1), (1, 0)],
                    sends: vec![],
                },
            ],
        )
    }

    #[test]
    fn valid_exchange_passes() {
        let stats = two_way().validate().unwrap();
        assert_eq!(stats.total_sends, 2);
        assert_eq!(stats.max_hop_distance, 1);
        assert!(stats.peak_buffer <= 2);
    }

    #[test]
    fn compute_without_operand_fails() {
        let bad = StreamOrchestration::new(
            2,
            vec![StreamRound {
                computes: vec![(0, 1)],
                sends: vec![],
            }],
        );
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ParallelError::InvariantViolation(_)), "{err}");
    }

    #[test]
    fn send_without_payload_fails() {
        let bad = StreamOrchestration::new(
            2,
            vec![StreamRound {
                computes: vec![],
                sends: vec![StreamSend {
                    from: 0,
                    to: 1,
                    sub: 1,
                }],
            }],
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn duplicate_compute_fails() {
        let bad = StreamOrchestration::new(
            1,
            vec![
                StreamRound {
                    computes: vec![(0, 0)],
                    sends: vec![],
                },
                StreamRound {
                    computes: vec![(0, 0)],
                    sends: vec![],
                },
            ],
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn incomplete_coverage_fails() {
        let bad = StreamOrchestration::new(
            2,
            vec![StreamRound {
                computes: vec![(0, 0), (1, 1)],
                sends: vec![],
            }],
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn out_of_range_send_fails() {
        let bad = StreamOrchestration::new(
            2,
            vec![StreamRound {
                computes: vec![],
                sends: vec![StreamSend {
                    from: 0,
                    to: 5,
                    sub: 0,
                }],
            }],
        );
        assert!(bad.validate().is_err());
    }
}
