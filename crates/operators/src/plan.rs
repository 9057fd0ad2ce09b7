//! The executor for mapping-algebra pipelines (DESIGN.md §6): every
//! Compose chain and every view target with an explicit path runs here.
//!
//! A chain is treated as a *query*, not a fixed program: every
//! [`MappingIndex`] carries [`IndexStats`](gam::IndexStats) collected at
//! build time, the [`cost`] model turns those stats into cardinality
//! estimates and a join strategy per Compose, and a small set of rewrite
//! rules reshape the chain before execution:
//!
//! * **floor pushdown** — an evidence floor on the chain result is applied
//!   to every step up front when all step evidences lie in `[0, 1]`
//!   (products of such scores only shrink, so a step association below the
//!   floor can never contribute a surviving result);
//! * **fact-chain reordering** — chains of 3+ all-fact steps are joined
//!   greedily by smallest estimated intermediate cardinality (fact ∘ fact
//!   carries no float product, so association is exact).
//!
//! Every rewrite is gated so the result is **bit-identical** to the
//! definition — the lazy caller-order left fold written down as
//! `baselines::naive` and compared by `tests/algebra_equiv.rs`: rewrites
//! outside the gates above are not taken, and every join strategy emits
//! the same association multiset into the same canonical dedup.
//! [`ExplainNode`] surfaces the chosen plan with estimated vs actual
//! cardinalities for the CLI/serve `explain` verbs.

use crate::compose::{check_floor, compose_idx};
use crate::simple::map_index;
use gam::{GamError, GamRead, GamResult, MappingIndex, RelType, SourceId};

/// The cost model: the constants table and the formulas that pick a join
/// strategy per Compose from the two operands' [`gam::index::IndexStats`].
pub mod cost {
    use gam::IndexStats;

    /// Key-count ratio above which the sorted merge join advances the
    /// cursor on the larger key array by exponential (galloping) search
    /// instead of stepping. One sided: each side is checked against the
    /// other independently.
    pub const GALLOP_RATIO: usize = 16;

    /// Per-side galloping decision for a merge join over `left_keys` vs
    /// `right_keys` distinct join keys.
    pub fn gallop_flags(left_keys: usize, right_keys: usize) -> (bool, bool) {
        (
            left_keys > right_keys.saturating_mul(GALLOP_RATIO),
            right_keys > left_keys.saturating_mul(GALLOP_RATIO),
        )
    }

    /// Estimated output cardinality of `left ∘ right`: the number of
    /// joinable mid keys times the average fanout on each side of the join
    /// — i.e. uniform-fanout independence, the classic textbook estimate.
    /// Deliberately cheap: all four inputs are O(1) reads off the stats.
    pub fn estimate_join(left: &IndexStats, right: &IndexStats) -> f64 {
        let mids = left.range_keys.min(right.domain_keys) as f64;
        mids * left.avg_inv_fanout() * right.avg_fwd_fanout()
    }

    /// Physical strategy for one Compose. Both produce the same
    /// association multiset (and therefore, through the canonical dedup,
    /// bit-identical indexes) — the choice is purely about speed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JoinStrategy {
        /// Sorted merge over the two key arrays, stepping both cursors.
        Merge,
        /// Merge with exponential search on the flagged side(s) — wins
        /// when one key array is ≥ [`GALLOP_RATIO`]× the other.
        Gallop { left: bool, right: bool },
    }

    impl JoinStrategy {
        /// Short label for explain output and harness counters.
        pub fn label(&self) -> &'static str {
            match self {
                JoinStrategy::Merge => "merge",
                JoinStrategy::Gallop { .. } => "gallop",
            }
        }
    }

    /// Pick the strategy for `left ∘ right` from stats: galloping merge on
    /// heavy key skew, plain merge otherwise.
    pub fn choose_strategy(left: &IndexStats, right: &IndexStats) -> JoinStrategy {
        let (gl, gr) = gallop_flags(left.range_keys, right.domain_keys);
        if gl || gr {
            JoinStrategy::Gallop { left: gl, right: gr }
        } else {
            JoinStrategy::Merge
        }
    }
}

/// One node of an explain tree: what ran, what the cost model predicted,
/// and what actually came out of the one-shot instrumented run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Human-readable operator label, e.g. `compose 1→5`.
    pub label: String,
    /// Join strategy chosen by the cost model, when the node is a join.
    pub strategy: Option<&'static str>,
    /// Estimated output cardinality, when the cost model produced one.
    pub estimated: Option<u64>,
    /// Actual output cardinality observed during execution.
    pub actual: Option<u64>,
    /// Input plans, in execution order.
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    pub(crate) fn leaf(label: String, actual: usize) -> ExplainNode {
        ExplainNode {
            label,
            strategy: None,
            estimated: None,
            actual: Some(actual as u64),
            children: Vec::new(),
        }
    }

    /// Render the tree as an indented text plan, one node per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.label);
        if let Some(s) = self.strategy {
            out.push_str(" [");
            out.push_str(s);
            out.push(']');
        }
        if let Some(e) = self.estimated {
            out.push_str(&format!(" est≈{e}"));
        }
        if let Some(a) = self.actual {
            out.push_str(&format!(" actual={a}"));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// Plan and execute a Compose chain over `path`, with an optional evidence
/// floor; with `traced`, also build the plan tree. `compose_path_idx*` and
/// every view target with an explicit path run their chains here.
pub(crate) fn plan_chain(
    store: &dyn GamRead,
    path: &[SourceId],
    floor: Option<f64>,
    traced: bool,
) -> GamResult<(MappingIndex, Option<ExplainNode>)> {
    // Validation order: floor first, then the length check.
    if let Some(f) = floor {
        check_floor(f)?;
    }
    if path.len() < 2 {
        return Err(GamError::Invalid(
            "compose path needs at least two sources".into(),
        ));
    }
    if path.len() == 2 {
        // Single hop: no join to plan, just Map (optionally floored).
        let mut acc = map_index(store, path[0], path[1])?;
        if let Some(f) = floor {
            acc = acc.filter_evidence(f);
        }
        let node = traced.then(|| {
            ExplainNode::leaf(format!("map S{}→S{}", path[0].raw(), path[1].raw()), acc.len())
        });
        return Ok((acc, node));
    }

    // Load every step eagerly — the rewrites below need all the stats up
    // front. If any step fails to load, fall back to the lazy fold, which
    // decides between that step's error and an early empty.
    let mut steps: Vec<MappingIndex> = Vec::with_capacity(path.len() - 1);
    for w in path.windows(2) {
        match map_index(store, w[0], w[1]) {
            Ok(m) => steps.push(m),
            Err(_) => {
                let idx = fold_chain(store, path, floor)?;
                let node = traced
                    .then(|| ExplainNode::leaf("naive fold (step load failed)".into(), idx.len()));
                return Ok((idx, node));
            }
        }
    }

    // Rewrite: push the evidence floor beneath every Compose. Sound when
    // all step evidences lie in [0, 1]: products only shrink, so a step
    // association below the floor cannot survive in any result. Otherwise
    // keep the definition's shape (prefilter the first step only).
    let mut pushed_down = false;
    if let Some(f) = floor {
        let safe = steps
            .iter()
            .all(|s| s.stats().max_effective <= 1.0 && s.stats().min_effective >= 0.0);
        if safe {
            for s in &mut steps {
                *s = s.filter_evidence(f);
            }
            pushed_down = true;
        } else {
            steps[0] = steps[0].filter_evidence(f);
        }
    }

    // An empty step empties the whole chain: the result is the empty
    // Composed index path[0]→last.
    if steps.iter().any(MappingIndex::is_empty) {
        let node = traced.then(|| ExplainNode::leaf("empty chain".into(), 0));
        return Ok((empty_chain(path), node));
    }

    let step_label = |s: &MappingIndex| {
        let floor_tag = match floor {
            Some(f) if pushed_down => format!(" [floor≥{f}]"),
            _ => String::new(),
        };
        ExplainNode::leaf(format!("map S{}→S{}{}", s.from.raw(), s.to.raw(), floor_tag), s.len())
    };
    let mut nodes: Option<Vec<ExplainNode>> =
        traced.then(|| steps.iter().map(step_label).collect());

    // Rewrite: greedy reordering by estimated intermediate cardinality,
    // gated to all-fact chains (fact ∘ fact carries no float product, so
    // association order is exact). Everything else joins the first two
    // items each round: the caller-order left fold.
    let reorder = steps.len() >= 3 && steps.iter().all(|s| s.stats().scored == 0);
    let mut items = steps;
    while items.len() > 1 {
        let mut best = 0;
        if reorder {
            let mut best_est = f64::INFINITY;
            for i in 0..items.len() - 1 {
                let est = cost::estimate_join(items[i].stats(), items[i + 1].stats());
                if est < best_est {
                    best_est = est;
                    best = i;
                }
            }
        }
        let right = items.remove(best + 1);
        let joined = compose_idx(&items[best], &right, floor)?;
        if let Some(ns) = &mut nodes {
            let rn = ns.remove(best + 1);
            let ln = std::mem::replace(&mut ns[best], ExplainNode::leaf(String::new(), 0));
            ns[best] = join_node(ln, rn, &items[best], &right, &joined);
        }
        if joined.is_empty() {
            // Relation emptiness is order-independent: the caller-order
            // fold ends empty too, with the same canonical empty index.
            let node = traced.then(|| ExplainNode::leaf("empty chain".into(), 0));
            return Ok((empty_chain(path), node));
        }
        items[best] = joined;
    }
    // ≥ 2 steps were joined, so the survivor is Composed path[0]→last
    let result = items.swap_remove(0);
    let node = nodes.and_then(|mut ns| ns.pop());
    Ok((result, node))
}

fn empty_chain(path: &[SourceId]) -> MappingIndex {
    let last = path.last().copied().unwrap_or(path[0]);
    MappingIndex::empty(path[0], last, RelType::Composed)
}

/// The lazy caller-order fold, run only when a step fails to load. Steps
/// load one at a time and the fold breaks as soon as the accumulator
/// empties, so a chain that empties before a missing step never observes
/// the missing mapping and one that reaches it reports that step's error —
/// the behaviour eager loading cannot reproduce.
fn fold_chain(
    store: &dyn GamRead,
    path: &[SourceId],
    floor: Option<f64>,
) -> GamResult<MappingIndex> {
    let mut acc = map_index(store, path[0], path[1])?;
    if let Some(f) = floor {
        acc = acc.filter_evidence(f);
    }
    for window in path[1..].windows(2) {
        let step = map_index(store, window[0], window[1])?;
        acc = compose_idx(&acc, &step, floor)?;
        if acc.is_empty() {
            break;
        }
    }
    acc.from = path[0];
    acc.to = path.last().copied().unwrap_or(acc.to);
    acc.rel_type = RelType::Composed;
    Ok(acc)
}

fn join_node(
    left: ExplainNode,
    right: ExplainNode,
    l: &MappingIndex,
    r: &MappingIndex,
    out: &MappingIndex,
) -> ExplainNode {
    let est = cost::estimate_join(l.stats(), r.stats());
    ExplainNode {
        label: format!("compose S{}→S{}", l.from.raw(), r.to.raw()),
        strategy: Some(cost::choose_strategy(l.stats(), r.stats()).label()),
        estimated: Some(est.round() as u64),
        actual: Some(out.len() as u64),
        children: vec![left, right],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::IndexStats;

    fn stats(len: usize, domain: usize, range: usize) -> IndexStats {
        IndexStats {
            len,
            domain_keys: domain,
            range_keys: range,
            max_fwd_fanout: if domain == 0 { 0 } else { len.div_ceil(domain) },
            max_inv_fanout: if range == 0 { 0 } else { len.div_ceil(range) },
            scored: 0,
            max_effective: 1.0,
            min_effective: 1.0,
        }
    }

    #[test]
    fn estimate_join_is_mid_keys_times_fanouts() {
        // 10 assocs over 5 range keys (inv fanout 2) ∘ 12 assocs over
        // 4 domain keys (fwd fanout 3): 4 joinable mids × 2 × 3 = 24.
        let l = stats(10, 10, 5);
        let r = stats(12, 4, 6);
        assert_eq!(cost::estimate_join(&l, &r), 24.0);
        // No joinable keys → zero estimate.
        let none = stats(0, 0, 0);
        assert_eq!(cost::estimate_join(&l, &none), 0.0);
    }

    #[test]
    fn choose_strategy_covers_both_arms() {
        // Balanced inputs merge, whatever their size.
        let a = stats(50, 50, 50);
        assert_eq!(cost::choose_strategy(&a, &a), cost::JoinStrategy::Merge);
        let big = stats(10_000, 5_000, 5_000);
        assert_eq!(cost::choose_strategy(&big, &big), cost::JoinStrategy::Merge);
        // 17× key skew gallops on the wide side.
        let wide = stats(1700, 1700, 1700);
        let narrow = stats(100, 100, 100);
        assert_eq!(
            cost::choose_strategy(&wide, &narrow),
            cost::JoinStrategy::Gallop {
                left: true,
                right: false
            }
        );
        assert_eq!(
            cost::choose_strategy(&narrow, &wide),
            cost::JoinStrategy::Gallop {
                left: false,
                right: true
            }
        );
    }

    /// Sum the `actual` sizes of the join nodes below the root of `node`.
    fn intermediate_pairs(node: &ExplainNode) -> u64 {
        node.children
            .iter()
            .map(|c| intermediate_pairs(c) + c.strategy.and(c.actual).unwrap_or(0))
            .sum()
    }

    /// Fact-chain reordering, decided in counted work: on all-fact chains
    /// of 4–6 hops with skewed fanouts, the pairs produced by every join
    /// but the last under the planner's order (its traced plan's `actual`
    /// counts) against those of the caller's left fold. The rewrite keeps
    /// its place only while it at least halves that work on some chain.
    #[test]
    fn reordering_at_least_halves_the_intermediate_pairs_of_some_skewed_chain() {
        use gam::model::{SourceContent, SourceStructure};
        use gam::{Association, GamStore};
        let width = 64;
        let mut counts = Vec::new();
        testkit::cases(32, |rng| {
            let len = 4 + rng.below(3);
            let hops = testkit::skewed_fact_chain(rng, len, width);
            let mut store = GamStore::in_memory().unwrap();
            let mut ids = Vec::new();
            let mut objects = Vec::new();
            for i in 0..=hops.len() {
                let name = format!("S{i}");
                let source = store
                    .create_source(&name, SourceContent::Other, SourceStructure::Flat, None)
                    .unwrap()
                    .id;
                let rows: Vec<_> =
                    (0..width).map(|j| (format!("{name}o{j}"), None, None)).collect();
                ids.push(source);
                objects.push(store.add_objects_bulk(source, &rows).unwrap().0);
            }
            for (h, pairs) in hops.iter().enumerate() {
                let rel =
                    store.create_source_rel(ids[h], ids[h + 1], RelType::Fact, None).unwrap();
                let assocs = pairs
                    .iter()
                    .map(|&(a, b)| (rel, Association::fact(objects[h][a], objects[h + 1][b])));
                store.add_associations_bulk(assocs, &mut 0).unwrap();
            }
            let (planned, tree) = plan_chain(&store, &ids, None, true).unwrap();
            let planned_pairs = intermediate_pairs(&tree.unwrap());
            let mut steps = ids.windows(2).map(|w| map_index(&store, w[0], w[1]).unwrap());
            let mut folded = steps.next().unwrap();
            let mut folded_pairs = 0;
            for step in steps {
                if folded.rel_type == RelType::Composed {
                    folded_pairs += folded.len() as u64;
                }
                folded = compose_idx(&folded, &step, None).unwrap();
            }
            assert_eq!(planned.to_mapping().pairs, folded.to_mapping().pairs);
            counts.push((folded_pairs, planned_pairs));
        });
        let cut = |&(folded, planned): &(u64, u64)| folded as f64 / planned.max(1) as f64;
        let halved = counts.iter().filter(|c| cut(c) >= 2.0).count();
        let worse = counts.iter().filter(|c| cut(c) < 1.0).count();
        let best = counts.iter().map(cut).fold(0.0, f64::max);
        eprintln!(
            "(fold, planner) intermediate pairs {counts:?}: halved on {halved} of {}, \
             more on {worse}, best cut {best:.1}x",
            counts.len()
        );
        assert!(best >= 2.0, "{counts:?}");
    }

    #[test]
    fn gallop_flags_trip_at_the_documented_ratio() {
        assert_eq!(cost::gallop_flags(160, 10), (false, false)); // exactly 16× — not yet
        assert_eq!(cost::gallop_flags(161, 10), (true, false));
        assert_eq!(cost::gallop_flags(10, 161), (false, true));
        assert_eq!(cost::gallop_flags(0, 0), (false, false));
    }

    #[test]
    fn explain_render_indents_children() {
        let tree = ExplainNode {
            label: "compose 1→3".into(),
            strategy: Some("merge"),
            estimated: Some(12),
            actual: Some(9),
            children: vec![
                ExplainNode::leaf("map 1→2".into(), 4),
                ExplainNode::leaf("map 2→3".into(), 6),
            ],
        };
        let text = tree.render();
        assert_eq!(
            text,
            "compose 1→3 [merge] est≈12 actual=9\n  map 1→2 actual=4\n  map 2→3 actual=6\n"
        );
    }
}
