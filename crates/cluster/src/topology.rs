//! Replication groups and clusters (Section 3.3, Figure 7).
//!
//! With `N` system nodes and `k` replication groups (`PARTIAL-k`):
//!
//! * the dataset is split into `k` mutually disjoint chunks;
//! * **replication group** `g` = the nodes storing chunk `g` — nodes
//!   `{g, g+k, g+2k, …}` (Figure 7's layout: group 1 = {sn1, sn5});
//! * **cluster** `c` = nodes `{c·k, …, (c+1)·k − 1}`, which collectively
//!   store the whole dataset;
//! * the *replication degree* = number of clusters = `N / k` = size of
//!   each group.
//!
//! `PARTIAL-1` is FULL replication, `PARTIAL-N` is EQUALLY-SPLIT
//! (no replication).

/// Node/group/cluster arithmetic for a `PARTIAL-k` layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    n_nodes: usize,
    n_groups: usize,
}

impl Topology {
    /// Builds a topology with `n_groups` replication groups over
    /// `n_nodes` nodes.
    ///
    /// # Errors
    /// Fails when `n_groups` does not divide `n_nodes` or either is zero.
    pub fn new(n_nodes: usize, n_groups: usize) -> Result<Self, String> {
        if n_nodes == 0 || n_groups == 0 {
            return Err("node and group counts must be positive".into());
        }
        if n_groups > n_nodes {
            return Err(format!(
                "more replication groups ({n_groups}) than nodes ({n_nodes})"
            ));
        }
        if !n_nodes.is_multiple_of(n_groups) {
            return Err(format!(
                "group count {n_groups} must divide node count {n_nodes}"
            ));
        }
        Ok(Topology { n_nodes, n_groups })
    }

    /// Total system nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of replication groups (= number of data chunks).
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Replication degree = number of clusters = group size.
    #[inline]
    pub fn replication_degree(&self) -> usize {
        self.n_nodes / self.n_groups
    }

    /// The replication group of a node.
    #[inline]
    pub fn group_of(&self, node: usize) -> usize {
        debug_assert!(node < self.n_nodes);
        node % self.n_groups
    }

    /// The cluster of a node.
    #[inline]
    pub fn cluster_of(&self, node: usize) -> usize {
        debug_assert!(node < self.n_nodes);
        node / self.n_groups
    }

    /// The nodes of replication group `g`, in id order.
    pub fn nodes_in_group(&self, g: usize) -> Vec<usize> {
        assert!(g < self.n_groups);
        (0..self.replication_degree())
            .map(|c| c * self.n_groups + g)
            .collect()
    }

    /// The nodes of cluster `c`, in id order.
    pub fn nodes_in_cluster(&self, c: usize) -> Vec<usize> {
        assert!(c < self.replication_degree());
        (c * self.n_groups..(c + 1) * self.n_groups).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_layout() {
        // PARTIAL-4 with 8 nodes: 4 groups, 2 clusters, degree 2.
        let t = Topology::new(8, 4).expect("valid");
        assert_eq!(t.replication_degree(), 2);
        assert_eq!(t.nodes_in_group(0), vec![0, 4], "sn1, sn5");
        assert_eq!(t.nodes_in_group(3), vec![3, 7], "sn4, sn8");
        assert_eq!(t.nodes_in_cluster(0), vec![0, 1, 2, 3]);
        assert_eq!(t.nodes_in_cluster(1), vec![4, 5, 6, 7]);
        assert_eq!(t.group_of(5), 1);
        assert_eq!(t.cluster_of(5), 1);
    }

    #[test]
    fn full_replication_is_one_group() {
        let t = Topology::new(4, 1).expect("valid");
        assert_eq!(t.replication_degree(), 4);
        assert_eq!(t.nodes_in_group(0), vec![0, 1, 2, 3]);
        assert_eq!(t.nodes_in_cluster(2), vec![2]);
    }

    #[test]
    fn equally_split_is_singleton_groups() {
        let t = Topology::new(4, 4).expect("valid");
        assert_eq!(t.replication_degree(), 1);
        for n in 0..4 {
            assert_eq!(t.nodes_in_group(n), vec![n]);
            assert_eq!(t.group_of(n), n);
        }
    }

    #[test]
    fn groups_and_clusters_partition_nodes() {
        let t = Topology::new(12, 3).expect("valid");
        let mut seen = [0u32; 12];
        for g in 0..t.n_groups() {
            for n in t.nodes_in_group(g) {
                seen[n] += 1;
                assert_eq!(t.group_of(n), g);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let mut seen = [0u32; 12];
        for c in 0..t.replication_degree() {
            for n in t.nodes_in_cluster(c) {
                seen[n] += 1;
                assert_eq!(t.cluster_of(n), c);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(Topology::new(0, 1).is_err());
        assert!(Topology::new(4, 0).is_err());
        assert!(Topology::new(4, 3).is_err(), "3 does not divide 4");
        assert!(Topology::new(2, 4).is_err(), "more groups than nodes");
    }

    /// Exhaustive round-trip over every (n, k) up to 16: either the
    /// constructor rejects the pair, or `group_of`/`nodes_of_group`
    /// (and the cluster maps) are mutually consistent bijections.
    #[test]
    fn group_round_trips_for_all_shapes_up_to_16() {
        for n in 1..=16usize {
            for k in 1..=16usize {
                let t = match Topology::new(n, k) {
                    Ok(t) => t,
                    Err(_) => {
                        assert!(
                            k > n || !n.is_multiple_of(k),
                            "({n}, {k}) wrongly rejected"
                        );
                        continue;
                    }
                };
                assert!(n.is_multiple_of(k), "({n}, {k}) wrongly accepted");
                assert_eq!(t.replication_degree() * t.n_groups(), n);
                // node → group → members → node round-trips.
                for node in 0..n {
                    let g = t.group_of(node);
                    assert!(g < k);
                    let members = t.nodes_in_group(g);
                    assert!(
                        members.contains(&node),
                        "({n}, {k}): node {node} missing from its group {g}"
                    );
                    let c = t.cluster_of(node);
                    assert!(t.nodes_in_cluster(c).contains(&node));
                }
                // group → members → group round-trips, and groups
                // partition the node set.
                let mut seen = vec![0u32; n];
                for g in 0..k {
                    let members = t.nodes_in_group(g);
                    assert_eq!(members.len(), t.replication_degree());
                    for m in members {
                        assert_eq!(t.group_of(m), g);
                        seen[m] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "({n}, {k}): groups must partition the nodes"
                );
            }
        }
    }
}
