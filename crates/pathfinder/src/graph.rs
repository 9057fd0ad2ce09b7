//! The source graph and path-finding algorithms.

use gam::model::RelType;
use gam::{GamRead, GamResult, SourceId};
#[cfg(test)]
use gam::GamStore;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, BTreeMap, BTreeSet, HashMap, VecDeque};

/// Edge weighting for Dijkstra path search. Mapping paths through curated
/// fact mappings are preferred over computed similarity links and derived
/// mappings; the weights express that preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Every edge costs 1 (hop count — plain shortest path).
    Hops,
    /// Fact = 1.0, Similarity = 1.5, Composed/Subsumed = 2.5 — prefers
    /// curated links.
    Quality,
}

impl WeightScheme {
    fn weight(self, rel_type: RelType) -> f64 {
        match self {
            WeightScheme::Hops => 1.0,
            WeightScheme::Quality => match rel_type {
                RelType::Fact => 1.0,
                RelType::Similarity => 1.5,
                _ => 2.5,
            },
        }
    }
}

/// An edge of the source graph (one traversable mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub to: SourceId,
    pub rel_type: RelType,
}

/// Immutable snapshot of the source/mapping graph.
#[derive(Debug, Clone, Default)]
pub struct SourceGraph {
    /// Adjacency lists; mappings are traversable in both directions.
    adjacency: BTreeMap<SourceId, Vec<Edge>>,
}

impl SourceGraph {
    /// Build the graph from the store's `SOURCE_REL` table. Structural
    /// relationships (IS_A, Contains) and self-loops are not traversal
    /// edges; annotation and derived mappings are, in both directions.
    pub fn from_store(store: &dyn GamRead) -> GamResult<SourceGraph> {
        let mut graph = SourceGraph::default();
        for source in store.sources()? {
            graph.adjacency.entry(source.id).or_default();
        }
        for rel in store.source_rels()? {
            if rel.rel_type.is_structural() || rel.source1 == rel.source2 {
                continue;
            }
            graph.add_edge(rel.source1, rel.source2, rel.rel_type);
        }
        Ok(graph)
    }

    /// Add a bidirectional edge (used directly by tests and by incremental
    /// updates after materialization).
    pub fn add_edge(&mut self, a: SourceId, b: SourceId, rel_type: RelType) {
        // keep one edge per (pair, type)
        let fwd = self.adjacency.entry(a).or_default();
        if !fwd.iter().any(|e| e.to == b && e.rel_type == rel_type) {
            fwd.push(Edge { to: b, rel_type });
        }
        let back = self.adjacency.entry(b).or_default();
        if !back.iter().any(|e| e.to == a && e.rel_type == rel_type) {
            back.push(Edge { to: a, rel_type });
        }
    }

    /// Number of sources.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges (counting one per (pair, type)).
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(Vec::len).sum::<usize>() / 2
    }

    /// Direct neighbours of a source.
    pub fn neighbours(&self, source: SourceId) -> &[Edge] {
        self.adjacency
            .get(&source)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Unweighted shortest path (BFS), as GenMapper's automatic path
    /// discovery. Returns the node sequence from `from` to `to` inclusive,
    /// or `None` if unreachable.
    pub fn shortest_path(&self, from: SourceId, to: SourceId) -> Option<Vec<SourceId>> {
        self.shortest_path_filtered(from, to, &BTreeSet::new(), &BTreeSet::new())
    }

    /// Weighted shortest path (Dijkstra) under a weight scheme. Returns
    /// (path, total cost).
    pub fn best_path(
        &self,
        from: SourceId,
        to: SourceId,
        scheme: WeightScheme,
    ) -> Option<(Vec<SourceId>, f64)> {
        if from == to {
            return Some((vec![from], 0.0));
        }
        #[derive(PartialEq)]
        struct Item {
            cost: f64,
            node: SourceId,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                // min-heap on cost, tie-break on node for determinism
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist: HashMap<SourceId, f64> = HashMap::from([(from, 0.0)]);
        let mut prev: HashMap<SourceId, SourceId> = HashMap::new();
        let mut heap = BinaryHeap::from([Item { cost: 0.0, node: from }]);
        while let Some(Item { cost, node }) = heap.pop() {
            if node == to {
                return Some((rebuild(&prev, from, to), cost));
            }
            if cost > dist.get(&node).copied().unwrap_or(f64::INFINITY) {
                continue;
            }
            for edge in self.neighbours(node) {
                // when parallel mappings exist, take the cheapest edge type
                let next_cost = cost + scheme.weight(edge.rel_type);
                if next_cost < dist.get(&edge.to).copied().unwrap_or(f64::INFINITY) {
                    dist.insert(edge.to, next_cost);
                    prev.insert(edge.to, node);
                    heap.push(Item {
                        cost: next_cost,
                        node: edge.to,
                    });
                }
            }
        }
        None
    }

    /// A path constrained to pass through `via` ("the user can also search
    /// in the graph for specific paths, for example, with a particular
    /// intermediate source"). Concatenates the two shortest legs; `None`
    /// if either leg is unreachable.
    pub fn path_via(
        &self,
        from: SourceId,
        via: SourceId,
        to: SourceId,
    ) -> Option<Vec<SourceId>> {
        let first = self.shortest_path(from, via)?;
        let second = self.shortest_path(via, to)?;
        let mut path = first;
        path.extend_from_slice(&second[1..]);
        Some(path)
    }

    /// Yen's algorithm: up to `k` loop-free shortest paths in increasing
    /// hop-count order ("with a high degree of inter-connectivity between
    /// the sources, many paths may be possible").
    pub fn k_shortest_paths(&self, from: SourceId, to: SourceId, k: usize) -> Vec<Vec<SourceId>> {
        if k == 0 {
            return Vec::new();
        }
        let Some(first) = self.shortest_path(from, to) else {
            return Vec::new();
        };
        let mut found = vec![first];
        let mut candidates: Vec<Vec<SourceId>> = Vec::new();
        while found.len() < k {
            let last = found.last().expect("non-empty").clone();
            for spur_idx in 0..last.len() - 1 {
                let spur_node = last[spur_idx];
                let root: Vec<SourceId> = last[..=spur_idx].to_vec();
                // remove edges used by known paths sharing this root, and
                // the root's interior nodes, then search the reduced graph
                let mut banned_edges: BTreeSet<(SourceId, SourceId)> = BTreeSet::new();
                for p in &found {
                    if p.len() > spur_idx + 1 && p[..=spur_idx] == root[..] {
                        banned_edges.insert((p[spur_idx], p[spur_idx + 1]));
                        banned_edges.insert((p[spur_idx + 1], p[spur_idx]));
                    }
                }
                let banned_nodes: BTreeSet<SourceId> = root[..spur_idx].iter().copied().collect();
                if let Some(spur) = self.shortest_path_filtered(spur_node, to, &banned_nodes, &banned_edges) {
                    let mut total = root.clone();
                    total.extend_from_slice(&spur[1..]);
                    if !found.contains(&total) && !candidates.contains(&total) {
                        candidates.push(total);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|p| (p.len(), p.clone()));
            found.push(candidates.remove(0));
        }
        found
    }

    /// Shortest path that avoids the given sources entirely — the user-
    /// driven variant of path search ("the user can also search in the
    /// graph for specific paths"), e.g. routing around a source whose
    /// current release is distrusted.
    pub fn shortest_path_avoiding(
        &self,
        from: SourceId,
        to: SourceId,
        avoid: &BTreeSet<SourceId>,
    ) -> Option<Vec<SourceId>> {
        if avoid.contains(&from) || avoid.contains(&to) {
            return None;
        }
        self.shortest_path_filtered(from, to, avoid, &BTreeSet::new())
    }

    /// The one BFS: `shortest_path` bans nothing, the avoiding search bans
    /// nodes and Yen's spur searches ban nodes and edges.
    fn shortest_path_filtered(
        &self,
        from: SourceId,
        to: SourceId,
        banned_nodes: &BTreeSet<SourceId>,
        banned_edges: &BTreeSet<(SourceId, SourceId)>,
    ) -> Option<Vec<SourceId>> {
        if banned_nodes.contains(&from) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: HashMap<SourceId, SourceId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: BTreeSet<SourceId> = [from].into();
        while let Some(node) = queue.pop_front() {
            for edge in self.neighbours(node) {
                if banned_nodes.contains(&edge.to) || banned_edges.contains(&(node, edge.to)) {
                    continue;
                }
                if seen.insert(edge.to) {
                    prev.insert(edge.to, node);
                    if edge.to == to {
                        return Some(rebuild(&prev, from, to));
                    }
                    queue.push_back(edge.to);
                }
            }
        }
        None
    }
}

fn rebuild(prev: &HashMap<SourceId, SourceId>, from: SourceId, to: SourceId) -> Vec<SourceId> {
    let mut path = vec![to];
    let mut cursor = to;
    while cursor != from {
        cursor = prev[&cursor];
        path.push(cursor);
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SourceId {
        SourceId(i)
    }

    /// Diamond: 1 - 2 - 4, 1 - 3 - 4, plus a long tail 4 - 5.
    fn diamond() -> SourceGraph {
        let mut g = SourceGraph::default();
        g.add_edge(s(1), s(2), RelType::Fact);
        g.add_edge(s(2), s(4), RelType::Fact);
        g.add_edge(s(1), s(3), RelType::Fact);
        g.add_edge(s(3), s(4), RelType::Similarity);
        g.add_edge(s(4), s(5), RelType::Fact);
        g
    }

    #[test]
    fn bfs_shortest_path() {
        let g = diamond();
        let p = g.shortest_path(s(1), s(5)).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], s(1));
        assert_eq!(p[3], s(5));
        assert_eq!(g.shortest_path(s(1), s(1)).unwrap(), vec![s(1)]);
        assert!(g.shortest_path(s(1), s(99)).is_none());
    }

    #[test]
    fn graph_counts_and_duplicate_edges() {
        let mut g = diamond();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        // adding the same edge twice is idempotent
        g.add_edge(s(1), s(2), RelType::Fact);
        assert_eq!(g.edge_count(), 5);
        // a parallel mapping of a different type is a distinct edge
        g.add_edge(s(1), s(2), RelType::Similarity);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn quality_weighting_prefers_fact_edges() {
        let g = diamond();
        // hops: both 1-2-4 and 1-3-4 are length 2
        let (path, cost) = g.best_path(s(1), s(4), WeightScheme::Quality).unwrap();
        assert_eq!(path, vec![s(1), s(2), s(4)], "avoids the similarity edge");
        assert_eq!(cost, 2.0);
        let (_, hop_cost) = g.best_path(s(1), s(4), WeightScheme::Hops).unwrap();
        assert_eq!(hop_cost, 2.0);
        // longer fact chain beats shorter similarity chain when cheaper
        let mut g = SourceGraph::default();
        g.add_edge(s(1), s(2), RelType::Composed); // direct but weight 2.5
        g.add_edge(s(1), s(3), RelType::Fact);
        g.add_edge(s(3), s(2), RelType::Fact);
        let (path, _) = g.best_path(s(1), s(2), WeightScheme::Hops).unwrap();
        assert_eq!(path, vec![s(1), s(2)]);
        let (path, cost) = g.best_path(s(1), s(2), WeightScheme::Quality).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path, vec![s(1), s(3), s(2)]);
    }

    #[test]
    fn avoiding_constrained_path() {
        let g = diamond();
        // without constraints, two paths 1->4 exist; banning node 2 forces
        // the 1-3-4 route
        let p = g.shortest_path_avoiding(s(1), s(4), &[s(2)].into()).unwrap();
        assert_eq!(p, vec![s(1), s(3), s(4)]);
        // banning both middle nodes disconnects the pair
        assert!(g
            .shortest_path_avoiding(s(1), s(4), &[s(2), s(3)].into())
            .is_none());
        // banning an endpoint yields no path
        assert!(g.shortest_path_avoiding(s(1), s(4), &[s(4)].into()).is_none());
        // empty ban set equals plain BFS
        assert_eq!(
            g.shortest_path_avoiding(s(1), s(5), &BTreeSet::new()),
            g.shortest_path(s(1), s(5))
        );
    }

    #[test]
    fn via_constrained_path() {
        let g = diamond();
        let p = g.path_via(s(1), s(3), s(5)).unwrap();
        assert_eq!(p, vec![s(1), s(3), s(4), s(5)]);
        assert!(g.path_via(s(1), s(99), s(5)).is_none());
    }

    #[test]
    fn k_shortest_paths_enumerates_alternatives() {
        let g = diamond();
        let paths = g.k_shortest_paths(s(1), s(4), 3);
        assert_eq!(paths.len(), 2, "diamond has exactly two loop-free paths");
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 3);
        assert_ne!(paths[0], paths[1]);
        for p in &paths {
            // loop-free
            let set: BTreeSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
        }
        // unreachable target
        assert!(g.k_shortest_paths(s(1), s(99), 3).is_empty());
        // k=1 returns just the shortest
        assert_eq!(g.k_shortest_paths(s(1), s(5), 1).len(), 1);
        // k=0 asks for no path and gets none
        assert!(g.k_shortest_paths(s(1), s(5), 0).is_empty());
    }

    #[test]
    fn from_store_skips_structural_relationships() {
        use gam::model::{SourceContent, SourceStructure};
        let mut store = GamStore::in_memory().unwrap();
        let a = store
            .create_source("A", SourceContent::Gene, SourceStructure::Network, None)
            .unwrap()
            .id;
        let b = store
            .create_source("B", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let c = store
            .create_source("C", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        store.create_source_rel(a, b, RelType::Fact, None).unwrap();
        store.create_source_rel(a, a, RelType::IsA, None).unwrap();
        store
            .create_source_rel(a, c, RelType::Contains, None)
            .unwrap();
        let g = SourceGraph::from_store(&store).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1, "IS_A and Contains are not traversal edges");
        assert!(g.shortest_path(a, b).is_some());
        assert!(g.shortest_path(a, c).is_none());
    }
}
