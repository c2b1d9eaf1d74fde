//! Contiguous physical rings on the die mesh (Fig. 7(a), §V).
//!
//! TSPP's logical ring only avoids multi-hop transfers when its parallel
//! group embeds a *contiguous physical ring* — a Hamiltonian cycle through
//! the group's dies using only mesh links. This module provides:
//!
//! * [`ring_order`] — Hamiltonian-cycle search over an arbitrary die set;
//! * [`snake_order`] — Hamiltonian-*path* (boustrophedon) ordering used by
//!   naive ring mappings;
//! * [`allocate_groups`] — group tiling policies (naive row-major strips vs.
//!   topology-aware blocks) and contiguity statistics, reproducing the
//!   red/blue group classification of Fig. 7(a).

use std::collections::BTreeSet;

use crate::topology::{Coord, DieId, Mesh};

/// How parallel groups are carved out of the die array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupPolicy {
    /// Row-major strips of consecutive dies (the naive allocation that
    /// produces "tetris-like" non-ring groups).
    RowMajorStrips,
    /// Topology-aware near-square blocks that embed physical rings whenever
    /// the group size allows (TATP's logical orchestration target).
    Blocks,
}

/// A parallel group's physical placement plus its ring diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlacement {
    /// The member dies, in allocation order.
    pub dies: Vec<DieId>,
    /// A Hamiltonian cycle order if the group embeds a contiguous physical
    /// ring, else `None`.
    pub ring: Option<Vec<DieId>>,
    /// Worst-case hop count between logical-ring neighbors when the group is
    /// used as a naive logical ring in allocation order (1 for true rings).
    pub max_logical_hop: u32,
}

impl GroupPlacement {
    /// Whether the group embeds a contiguous physical ring.
    pub fn is_physical_ring(&self) -> bool {
        self.ring.is_some()
    }
}

/// Searches for a Hamiltonian cycle through exactly `dies`, using only mesh
/// adjacencies. Returns the cycle order (without repeating the start) or
/// `None` when no contiguous physical ring exists.
///
/// Backtracking with degree-based pruning; practical for group sizes up to
/// the wafer scales used in the paper (≤ 96 dies) because mesh subgraphs are
/// sparse and the search prunes on connectivity.
pub fn ring_order(mesh: &Mesh, dies: &[DieId]) -> Option<Vec<DieId>> {
    let n = dies.len();
    if n < 4 {
        // A 2D mesh has no 3-cycles (it is bipartite) and cycles need >= 4.
        return None;
    }
    let set: BTreeSet<DieId> = dies.iter().copied().collect();
    if set.len() != n {
        return None;
    }
    // Parity argument: grid graphs are bipartite, so Hamiltonian cycles need
    // an even number of vertices with equal color counts.
    if n % 2 != 0 {
        return None;
    }
    let mut black = 0usize;
    for d in &set {
        let c = mesh.coord(*d).ok()?;
        if (c.x + c.y) % 2 == 0 {
            black += 1;
        }
    }
    if black * 2 != n {
        return None;
    }
    // Every vertex needs >= 2 in-set neighbors.
    let in_set_neighbors = |d: DieId| -> Vec<DieId> {
        mesh.neighbors(d)
            .into_iter()
            .filter(|x| set.contains(x))
            .collect()
    };
    for d in &set {
        if in_set_neighbors(*d).len() < 2 {
            return None;
        }
    }
    let start = *set.iter().next().expect("non-empty");
    let mut path = vec![start];
    let mut visited: BTreeSet<DieId> = BTreeSet::new();
    visited.insert(start);
    if hamiltonian_cycle(mesh, &set, &mut path, &mut visited, start, n) {
        Some(path)
    } else {
        None
    }
}

fn hamiltonian_cycle(
    mesh: &Mesh,
    set: &BTreeSet<DieId>,
    path: &mut Vec<DieId>,
    visited: &mut BTreeSet<DieId>,
    start: DieId,
    n: usize,
) -> bool {
    if path.len() == n {
        return mesh.adjacent(*path.last().expect("non-empty"), start);
    }
    let cur = *path.last().expect("non-empty");
    let mut next: Vec<DieId> = mesh
        .neighbors(cur)
        .into_iter()
        .filter(|d| set.contains(d) && !visited.contains(d))
        .collect();
    // Warnsdorff-style ordering: fewest onward options first.
    next.sort_by_key(|d| {
        mesh.neighbors(*d)
            .iter()
            .filter(|x| set.contains(x) && !visited.contains(x))
            .count()
    });
    for d in next {
        // Prune: any unvisited vertex stranded with zero unvisited neighbors
        // (other than through cur) cannot be completed.
        path.push(d);
        visited.insert(d);
        if !strands_vertex(mesh, set, visited, start, d)
            && hamiltonian_cycle(mesh, set, path, visited, start, n)
        {
            return true;
        }
        visited.remove(&d);
        path.pop();
    }
    false
}

/// Returns true when some unvisited vertex cannot possibly acquire the two
/// cycle edges it needs: its candidate cycle neighbors are unvisited
/// vertices, the start, or the current path end (which is still open).
fn strands_vertex(
    mesh: &Mesh,
    set: &BTreeSet<DieId>,
    visited: &BTreeSet<DieId>,
    start: DieId,
    path_end: DieId,
) -> bool {
    for d in set {
        if visited.contains(d) {
            continue;
        }
        let free = mesh
            .neighbors(*d)
            .into_iter()
            .filter(|x| set.contains(x) && (!visited.contains(x) || *x == start || *x == path_end))
            .count();
        if free < 2 {
            return true;
        }
    }
    false
}

/// Boustrophedon (snake) ordering of a rectangular region: left-to-right on
/// even rows, right-to-left on odd rows. Consecutive entries are always mesh
/// neighbors, making this the canonical Hamiltonian *path* for mapping a
/// linear/logical order onto the wafer.
pub fn snake_order(mesh: &Mesh) -> Vec<DieId> {
    let mut out = Vec::with_capacity(mesh.die_count());
    for y in 0..mesh.height() {
        if y % 2 == 0 {
            for x in 0..mesh.width() {
                out.push(mesh.die_at(Coord::new(x, y)).expect("in bounds"));
            }
        } else {
            for x in (0..mesh.width()).rev() {
                out.push(mesh.die_at(Coord::new(x, y)).expect("in bounds"));
            }
        }
    }
    out
}

/// Allocates `die_count / group_size` parallel groups under `policy` and
/// diagnoses each group's ring embeddability.
///
/// # Panics
///
/// Panics if `group_size` is zero or does not divide the die count.
pub fn allocate_groups(mesh: &Mesh, group_size: usize, policy: GroupPolicy) -> Vec<GroupPlacement> {
    assert!(group_size > 0, "group size must be positive");
    assert_eq!(
        mesh.die_count() % group_size,
        0,
        "group size {group_size} must divide die count {}",
        mesh.die_count()
    );
    let member_lists: Vec<Vec<DieId>> = match policy {
        GroupPolicy::RowMajorStrips => {
            let ids: Vec<DieId> = mesh.dies().collect();
            ids.chunks(group_size).map(|c| c.to_vec()).collect()
        }
        GroupPolicy::Blocks => block_groups(mesh, group_size),
    };
    member_lists
        .into_iter()
        .map(|dies| {
            let ring = ring_order(mesh, &dies);
            let max_logical_hop = max_ring_hop(mesh, &dies);
            GroupPlacement {
                dies,
                ring,
                max_logical_hop,
            }
        })
        .collect()
}

/// Worst single-step physical distance when `dies` (in the given order) is
/// used as a logical ring, including the wrap step from last to first.
pub fn max_ring_hop(mesh: &Mesh, dies: &[DieId]) -> u32 {
    if dies.len() < 2 {
        return 0;
    }
    let mut worst = 0;
    for i in 0..dies.len() {
        let a = dies[i];
        let b = dies[(i + 1) % dies.len()];
        worst = worst.max(mesh.manhattan(a, b));
    }
    worst
}

/// Partitions the mesh into near-square `group_size` blocks. Chooses the
/// factorization `gw x gh` of `group_size` whose dimensions divide the mesh
/// and are closest to square (preferring both >= 2 so the block embeds a
/// ring); falls back to row-major strips when no factorization tiles the
/// array.
fn block_groups(mesh: &Mesh, group_size: usize) -> Vec<Vec<DieId>> {
    let (w, h) = (mesh.width() as usize, mesh.height() as usize);
    let mut best: Option<(usize, usize)> = None;
    for gw in 1..=group_size {
        if group_size % gw != 0 {
            continue;
        }
        let gh = group_size / gw;
        if w % gw != 0 || h % gh != 0 {
            continue;
        }
        let ringable = gw >= 2 && gh >= 2;
        let squareness = gw.abs_diff(gh);
        let candidate = (gw, gh);
        best = match best {
            None => Some(candidate),
            Some((bw, bh)) => {
                let best_ringable = bw >= 2 && bh >= 2;
                let better = (ringable, std::cmp::Reverse(squareness))
                    > (best_ringable, std::cmp::Reverse(bw.abs_diff(bh)));
                if better {
                    Some(candidate)
                } else {
                    Some((bw, bh))
                }
            }
        };
    }
    let Some((gw, gh)) = best else {
        let ids: Vec<DieId> = mesh.dies().collect();
        return ids.chunks(group_size).map(|c| c.to_vec()).collect();
    };
    let mut groups = Vec::new();
    for by in (0..h).step_by(gh) {
        for bx in (0..w).step_by(gw) {
            let mut g = Vec::with_capacity(group_size);
            for dy in 0..gh {
                for dx in 0..gw {
                    g.push(
                        mesh.die_at(Coord::new((bx + dx) as u32, (by + dy) as u32))
                            .expect("in bounds"),
                    );
                }
            }
            groups.push(g);
        }
    }
    groups
}

/// Fraction of groups embedding a contiguous physical ring.
pub fn ring_fraction(groups: &[GroupPlacement]) -> f64 {
    if groups.is_empty() {
        return 0.0;
    }
    groups.iter().filter(|g| g.is_physical_ring()).count() as f64 / groups.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    #[test]
    fn two_by_two_block_is_a_ring() {
        let m = Mesh::new(4, 4).unwrap();
        let dies = vec![DieId(0), DieId(1), DieId(4), DieId(5)];
        let ring = ring_order(&m, &dies).expect("2x2 block embeds a ring");
        assert_eq!(ring.len(), 4);
        // Consecutive ring entries (and the wrap) are adjacent.
        for i in 0..4 {
            assert!(m.adjacent(ring[i], ring[(i + 1) % 4]));
        }
    }

    #[test]
    fn straight_line_is_not_a_ring() {
        let m = Mesh::new(8, 4).unwrap();
        let dies: Vec<DieId> = (0..4).map(DieId).collect();
        assert!(ring_order(&m, &dies).is_none());
    }

    #[test]
    fn odd_sized_group_is_never_a_ring() {
        let m = Mesh::new(4, 4).unwrap();
        let dies = vec![DieId(0), DieId(1), DieId(4), DieId(5), DieId(2)];
        assert!(ring_order(&m, &dies).is_none());
    }

    #[test]
    fn l_shaped_tetris_group_has_no_ring() {
        // Fig. 8(a): dies 0-3 of a 3x4 array in row-major strip order —
        // a 1-wide L/strip shape with no cycle.
        let m = Mesh::new(4, 3).unwrap();
        let dies = vec![DieId(0), DieId(1), DieId(2), DieId(3)];
        assert!(ring_order(&m, &dies).is_none());
        assert_eq!(max_ring_hop(&m, &dies), 3);
    }

    #[test]
    fn two_by_three_block_is_a_ring() {
        let m = Mesh::new(6, 4).unwrap();
        let dies = vec![DieId(0), DieId(1), DieId(2), DieId(6), DieId(7), DieId(8)];
        let ring = ring_order(&m, &dies).expect("2x3 block embeds a ring");
        for i in 0..ring.len() {
            assert!(m.adjacent(ring[i], ring[(i + 1) % ring.len()]));
        }
    }

    #[test]
    fn snake_order_steps_are_all_neighbors() {
        let m = Mesh::new(8, 4).unwrap();
        let snake = snake_order(&m);
        assert_eq!(snake.len(), 32);
        for w in snake.windows(2) {
            assert!(m.adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn row_major_strips_break_rings_on_fig7_array() {
        // Fig. 7(a): 6x9 array (54 dies), parallel degree 6 => 9 groups;
        // naive strips leave most groups without contiguous rings.
        let m = Mesh::new(9, 6).unwrap();
        let naive = allocate_groups(&m, 6, GroupPolicy::RowMajorStrips);
        assert_eq!(naive.len(), 9);
        let naive_rings = naive.iter().filter(|g| g.is_physical_ring()).count();
        let aware = allocate_groups(&m, 6, GroupPolicy::Blocks);
        let aware_rings = aware.iter().filter(|g| g.is_physical_ring()).count();
        assert!(
            aware_rings > naive_rings,
            "aware {aware_rings} vs naive {naive_rings}"
        );
        assert_eq!(aware_rings, 9, "3x2 blocks tile 9x6 perfectly into rings");
    }

    #[test]
    fn block_groups_on_hpca_wafer_are_rings_for_degree_8() {
        let m = Mesh::new(8, 4).unwrap();
        let groups = allocate_groups(&m, 8, GroupPolicy::Blocks);
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert!(g.is_physical_ring(), "group {:?} not a ring", g.dies);
        }
    }

    #[test]
    fn naive_strip_logical_hop_grows_with_group_size() {
        let m = Mesh::new(8, 4).unwrap();
        let strips = allocate_groups(&m, 8, GroupPolicy::RowMajorStrips);
        // An 8-die row used as a logical ring needs a 7-hop wrap transfer.
        assert!(strips.iter().any(|g| g.max_logical_hop == 7));
    }

    #[test]
    fn ring_fraction_bounds() {
        let m = Mesh::new(8, 4).unwrap();
        let groups = allocate_groups(&m, 4, GroupPolicy::Blocks);
        let f = ring_fraction(&groups);
        assert!((0.0..=1.0).contains(&f));
        assert!((f - 1.0).abs() < 1e-12, "2x2 blocks all rings");
    }
}
