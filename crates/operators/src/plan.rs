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
//!   carries no float product, so association is exact);
//! * **shared prefixes** — path prefixes occurring in several of a view's
//!   targets are composed once and memoized ([`ViewContext`]).
//!
//! Every rewrite is gated so the result is **bit-identical** to the
//! definition — the lazy caller-order left fold written down as
//! `baselines::naive` and compared by `tests/algebra_equiv.rs`: rewrites
//! outside the gates above are not taken, and every join strategy emits
//! the same association multiset into the same canonical dedup.
//! [`ExplainNode`] surfaces the chosen plan with estimated vs actual
//! cardinalities for the CLI/serve `explain` verbs.

use crate::compose::{check_floor, compose_idx, compose_idx_with_threshold};
use crate::exec::ExecConfig;
use crate::simple::map_index;
use crate::view::{IndexResolver, ViewQuery};
use gam::{GamError, GamRead, GamResult, MappingIndex, ObjectId, RelType, SourceId};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The cost model: the constants table and the formulas that pick a join
/// strategy per Compose from the two operands' [`gam::index::IndexStats`].
pub mod cost {
    use crate::exec::ExecConfig;
    use gam::IndexStats;

    /// Key-count ratio above which the sorted merge join advances the
    /// cursor on the larger key array by exponential (galloping) search
    /// instead of stepping. One sided: each side is checked against the
    /// other independently.
    pub const GALLOP_RATIO: usize = 16;

    /// Probe-side size (in associations) below which a join is not worth
    /// parallelizing: thread spawn overhead dominates the join itself.
    pub const PARALLEL_THRESHOLD: usize = 8_192;

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

    /// Physical strategy for one Compose. All three produce the same
    /// association multiset (and therefore, through the canonical dedup,
    /// bit-identical indexes) — the choice is purely about speed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JoinStrategy {
        /// Sorted merge over the two key arrays, stepping both cursors.
        Merge,
        /// Merge with exponential search on the flagged side(s) — wins
        /// when one key array is ≥ [`GALLOP_RATIO`]× the other.
        Gallop { left: bool, right: bool },
        /// Partitioned hash probe across `jobs` scoped threads.
        Hash { jobs: usize },
    }

    impl JoinStrategy {
        /// Short label for explain output and harness counters.
        pub fn label(&self) -> &'static str {
            match self {
                JoinStrategy::Merge => "merge",
                JoinStrategy::Gallop { .. } => "gallop",
                JoinStrategy::Hash { .. } => "hash",
            }
        }
    }

    /// Pick the strategy for `left ∘ right` from stats: hash when the
    /// probe side or the estimated output clears the parallel threshold
    /// and there are partitions to hand out; galloping merge on heavy key
    /// skew; plain merge otherwise.
    pub fn choose_strategy(left: &IndexStats, right: &IndexStats, cfg: &ExecConfig) -> JoinStrategy {
        let work = (left.len as f64).max(estimate_join(left, right));
        if cfg.jobs > 1 && work >= PARALLEL_THRESHOLD as f64 {
            let jobs = cfg.jobs.min(left.domain_keys.max(1)).min(left.len.max(1));
            if jobs > 1 {
                return JoinStrategy::Hash { jobs };
            }
        }
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
    fn leaf(label: String, actual: usize) -> ExplainNode {
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

/// Planning context shared across one view's targets: which path prefixes
/// occur in more than one target (and are therefore worth computing once),
/// plus the memo of already-composed prefixes. Memoized entries are
/// un-floored, so the memo is only consulted for floor-free chains.
pub struct ViewContext {
    /// Prefixes (length ≥ 2 sources) appearing in ≥ 2 target paths.
    shared: BTreeSet<Vec<SourceId>>,
    memo: Mutex<HashMap<Vec<SourceId>, Arc<MappingIndex>>>,
}

impl ViewContext {
    /// Scan a view query's explicit target paths for shared prefixes.
    pub fn new(query: &ViewQuery) -> ViewContext {
        let mut counts: HashMap<Vec<SourceId>, usize> = HashMap::new();
        for spec in &query.targets {
            if let Some(p) = &spec.path {
                for k in 2..=p.len() {
                    *counts.entry(p[..k].to_vec()).or_insert(0) += 1;
                }
            }
        }
        ViewContext {
            shared: counts
                .into_iter()
                .filter(|(_, n)| *n >= 2)
                .map(|(p, _)| p)
                .collect(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Whether any prefix of `path` (including the full path) is shared
    /// with another target. Shared chains stay in caller order so every
    /// target folding through the prefix sees the identical parenthesization.
    fn is_shared_chain(&self, path: &[SourceId]) -> bool {
        (2..=path.len()).any(|k| self.shared.contains(&path[..k]))
    }

    /// Longest memoized prefix of `path`, as (sources covered, index).
    fn lookup_longest(&self, path: &[SourceId]) -> Option<(usize, Arc<MappingIndex>)> {
        let memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
        (2..=path.len())
            .rev()
            .find_map(|k| memo.get(&path[..k]).map(|idx| (k, Arc::clone(idx))))
    }

    /// Memoize `idx` for `prefix` if that prefix is shared. First insert
    /// wins; all inserts for a prefix are bit-identical anyway.
    fn store(&self, prefix: &[SourceId], idx: &Arc<MappingIndex>) {
        if self.shared.contains(prefix) {
            let mut memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
            memo.entry(prefix.to_vec()).or_insert_with(|| Arc::clone(idx));
        }
    }
}

/// Plan and execute a Compose chain over `path`, with an optional evidence
/// floor. `compose_path_idx*` and `generate_view_idx` both run their
/// chains here.
pub fn plan_chain(
    store: &dyn GamRead,
    path: &[SourceId],
    floor: Option<f64>,
    cfg: &ExecConfig,
    ctx: Option<&ViewContext>,
) -> GamResult<Arc<MappingIndex>> {
    plan_chain_inner(store, path, floor, cfg, ctx, false).map(|(idx, _)| idx)
}

/// Resolve `from → to` for a view target with an explicit path: the
/// direct mapping when one exists ("Map or Compose", Figure 5), otherwise
/// a planned Compose chain over `path`.
pub(crate) fn resolve_path_idx(
    store: &dyn GamRead,
    from: SourceId,
    to: SourceId,
    path: &[SourceId],
    cfg: &ExecConfig,
    ctx: Option<&ViewContext>,
) -> GamResult<Arc<MappingIndex>> {
    match map_index(store, from, to) {
        Ok(m) => Ok(Arc::new(m)),
        Err(GamError::NoMapping { .. }) => plan_chain(store, path, None, cfg, ctx),
        Err(e) => Err(e),
    }
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
    cfg: &ExecConfig,
) -> GamResult<MappingIndex> {
    let mut acc = map_index(store, path[0], path[1])?;
    if let Some(f) = floor {
        acc = acc.filter_evidence(f);
    }
    for window in path[1..].windows(2) {
        let step = map_index(store, window[0], window[1])?;
        acc = compose_step(&acc, &step, floor, cfg)?;
        if acc.is_empty() {
            break;
        }
    }
    acc.from = path[0];
    acc.to = path.last().copied().unwrap_or(acc.to);
    acc.rel_type = RelType::Composed;
    Ok(acc)
}

fn compose_step(
    left: &MappingIndex,
    right: &MappingIndex,
    floor: Option<f64>,
    cfg: &ExecConfig,
) -> GamResult<MappingIndex> {
    match floor {
        Some(f) => compose_idx_with_threshold(left, right, f, cfg),
        None => compose_idx(left, right, cfg),
    }
}

fn join_node(
    left: ExplainNode,
    right: ExplainNode,
    l: &MappingIndex,
    r: &MappingIndex,
    out: &MappingIndex,
    cfg: &ExecConfig,
) -> ExplainNode {
    let est = cost::estimate_join(l.stats(), r.stats());
    ExplainNode {
        label: format!("compose S{}→S{}", l.from.raw(), r.to.raw()),
        strategy: Some(cost::choose_strategy(l.stats(), r.stats(), cfg).label()),
        estimated: Some(est.round() as u64),
        actual: Some(out.len() as u64),
        children: vec![left, right],
    }
}

fn plan_chain_inner(
    store: &dyn GamRead,
    path: &[SourceId],
    floor: Option<f64>,
    cfg: &ExecConfig,
    ctx: Option<&ViewContext>,
    traced: bool,
) -> GamResult<(Arc<MappingIndex>, Option<ExplainNode>)> {
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
        return Ok((Arc::new(acc), node));
    }

    // The memo holds un-floored prefixes only; a floored chain must not
    // consume them (and in practice never has a ctx — views apply floors
    // at projection, not inside the chain).
    let memo_ctx = if floor.is_none() { ctx } else { None };
    let (mut consumed, acc): (usize, Option<Arc<MappingIndex>>) = memo_ctx
        .and_then(|c| c.lookup_longest(path))
        .map(|(k, idx)| (k, Some(idx)))
        .unwrap_or((1, None));

    // Load the remaining steps eagerly — the rewrites below need all the
    // stats up front. If any step fails to load, fall back to the lazy
    // fold, which decides between that step's error and an early empty.
    let mut steps: Vec<MappingIndex> = Vec::with_capacity(path.len() - consumed);
    for w in path[consumed - 1..].windows(2) {
        match map_index(store, w[0], w[1]) {
            Ok(m) => steps.push(m),
            Err(_) => {
                let idx = fold_chain(store, path, floor, cfg)?;
                let node = traced
                    .then(|| ExplainNode::leaf("naive fold (step load failed)".into(), idx.len()));
                return Ok((Arc::new(idx), node));
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
    if acc.as_deref().is_some_and(MappingIndex::is_empty)
        || steps.iter().any(MappingIndex::is_empty)
    {
        let empty = empty_chain(path);
        let node = traced.then(|| ExplainNode::leaf("empty chain".into(), 0));
        return Ok((Arc::new(empty), node));
    }

    let step_label = |s: &MappingIndex| {
        let floor_tag = match floor {
            Some(f) if pushed_down => format!(" [floor≥{f}]"),
            _ => String::new(),
        };
        ExplainNode::leaf(format!("map S{}→S{}{}", s.from.raw(), s.to.raw(), floor_tag), s.len())
    };

    // Rewrite: greedy reordering by estimated intermediate cardinality.
    // Gated to all-fact chains (fact ∘ fact carries no float product, so
    // association order is exact) that no other target shares a prefix
    // with (shared chains must keep the caller-order parenthesization the
    // memo entries were built with).
    let reorder = acc.is_none()
        && steps.len() >= 3
        && steps.iter().all(|s| s.stats().scored == 0)
        && memo_ctx.is_none_or(|c| !c.is_shared_chain(path));

    if reorder {
        let mut nodes: Option<Vec<ExplainNode>> =
            traced.then(|| steps.iter().map(step_label).collect());
        let mut items = steps;
        while items.len() > 1 {
            let mut best = 0;
            let mut best_est = f64::INFINITY;
            for i in 0..items.len() - 1 {
                let est = cost::estimate_join(items[i].stats(), items[i + 1].stats());
                if est < best_est {
                    best_est = est;
                    best = i;
                }
            }
            let right = items.remove(best + 1);
            let joined = compose_step(&items[best], &right, floor, cfg)?;
            if let Some(ns) = &mut nodes {
                let rn = ns.remove(best + 1);
                let ln = std::mem::replace(&mut ns[best], ExplainNode::leaf(String::new(), 0));
                ns[best] = join_node(ln, rn, &items[best], &right, &joined, cfg);
            }
            items[best] = joined;
            if items[best].is_empty() {
                // Relation emptiness is order-independent: the caller-order
                // fold ends empty too, with the same canonical empty index.
                let node = traced.then(|| ExplainNode::leaf("empty chain".into(), 0));
                return Ok((Arc::new(empty_chain(path)), node));
            }
        }
        let mut result = items.swap_remove(0);
        result.from = path[0];
        if let Some(&last) = path.last() {
            result.to = last;
        }
        result.rel_type = RelType::Composed;
        let node = nodes.and_then(|mut ns| (!ns.is_empty()).then(|| ns.swap_remove(0)));
        return Ok((Arc::new(result), node));
    }

    // Left fold — the caller's association order — with shared-prefix
    // memoization. A memo hit or miss yields bit-identical results, so the
    // Mutex's scheduling nondeterminism cannot leak into output.
    let mut steps = steps.into_iter();
    let (mut acc_arc, mut node) = match acc {
        Some(idx) => {
            let n = traced.then(|| {
                ExplainNode::leaf(
                    format!("shared prefix S{}→S{} (memo)", path[0].raw(), idx.to.raw()),
                    idx.len(),
                )
            });
            (idx, n)
        }
        None => match steps.next() {
            Some(first) => {
                // the accumulator now covers two sources; `consumed`
                // must track coverage or the memo keys shift by one hop
                consumed = 2;
                let n = traced.then(|| step_label(&first));
                let arc = Arc::new(first);
                if let Some(c) = memo_ctx {
                    c.store(&path[..2], &arc);
                }
                (arc, n)
            }
            None => {
                // Unreachable: len ≥ 3 with consumed = 1 loads ≥ 2 steps.
                return Ok((Arc::new(empty_chain(path)), None));
            }
        },
    };
    for step in steps {
        let joined = compose_step(&acc_arc, &step, floor, cfg)?;
        consumed += 1;
        if traced {
            let sn = step_label(&step);
            let ln = node.take().unwrap_or_else(|| ExplainNode::leaf(String::new(), 0));
            node = Some(join_node(ln, sn, &acc_arc, &step, &joined, cfg));
        }
        if joined.is_empty() {
            let n = traced.then(|| ExplainNode::leaf("empty chain".into(), 0));
            return Ok((Arc::new(empty_chain(path)), n));
        }
        acc_arc = Arc::new(joined);
        if let Some(c) = memo_ctx {
            c.store(&path[..consumed], &acc_arc);
        }
    }

    // Endpoint fixups. In-place when the Arc is unshared; a memoized
    // full-path hit already carries them.
    let last = path.last().copied().unwrap_or(path[0]);
    if acc_arc.from != path[0] || acc_arc.to != last || acc_arc.rel_type != RelType::Composed {
        let mut owned = Arc::try_unwrap(acc_arc).unwrap_or_else(|a| (*a).clone());
        owned.from = path[0];
        owned.to = last;
        owned.rel_type = RelType::Composed;
        acc_arc = Arc::new(owned);
    }
    Ok((acc_arc, node))
}

/// Explain a whole view query: plan and execute every target's pipeline
/// (one-shot, uncached, instrumented) and fold the columns, returning the
/// plan tree with estimated vs actual cardinalities. The execution mirrors
/// `generate_view_idx` exactly — same planner, same projection, same fold.
pub fn explain_view(
    store: &dyn GamRead,
    query: &ViewQuery,
    resolver: &dyn IndexResolver,
    cfg: &ExecConfig,
) -> GamResult<ExplainNode> {
    let s: BTreeSet<ObjectId> = match &query.objects {
        Some(set) => set.clone(),
        None => store.object_ids_of(query.source)?.into_iter().collect(),
    };
    let ctx = ViewContext::new(query);
    let mut children = Vec::with_capacity(query.targets.len());
    let mut columns = Vec::with_capacity(query.targets.len());
    for spec in &query.targets {
        let (mi, chain) = match &spec.path {
            Some(path) => match map_index(store, query.source, spec.target) {
                Ok(m) => {
                    let node =
                        ExplainNode::leaf(format!("map S{}→S{}", query.source.raw(), spec.target.raw()), m.len());
                    (Arc::new(m), node)
                }
                Err(GamError::NoMapping { .. }) => {
                    let (mi, node) = plan_chain_inner(store, path, None, cfg, Some(&ctx), true)?;
                    let node = node
                        .unwrap_or_else(|| ExplainNode::leaf("chain".into(), mi.len()));
                    (mi, node)
                }
                Err(e) => return Err(e),
            },
            None => {
                let mi = resolver.resolve_index(store, query.source, spec.target)?;
                let node = ExplainNode::leaf(
                    format!("map S{}→S{} (resolver)", query.source.raw(), spec.target.raw()),
                    mi.len(),
                );
                (mi, node)
            }
        };
        // Column estimate: covered source objects × average fanout.
        let st = mi.stats();
        let est = (s.len().min(st.domain_keys) as f64 * st.avg_fwd_fanout()).round() as u64;
        let column = crate::view::project_target_column(&mi, spec, &s)?;
        let mut tags = Vec::new();
        if spec.negated {
            tags.push("NOT".to_string());
        }
        if let Some(f) = spec.min_evidence {
            tags.push(format!("floor≥{f}"));
        }
        let tag = if tags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", tags.join(", "))
        };
        children.push(ExplainNode {
            label: format!("target S{}{}", spec.target.raw(), tag),
            strategy: None,
            estimated: Some(est),
            actual: Some(column.values.len() as u64),
            children: vec![chain],
        });
        columns.push(Ok(column));
    }
    let view = crate::view::fold_columns(&s, columns, query)?;
    let combine = match query.combine {
        crate::view::Combine::And => "AND",
        crate::view::Combine::Or => "OR",
    };
    Ok(ExplainNode {
        label: format!(
            "generate-view {} S{} over {} objects",
            combine,
            query.source.raw(),
            s.len()
        ),
        strategy: None,
        estimated: None,
        actual: Some(view.rows.len() as u64),
        children,
    })
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
    fn choose_strategy_covers_all_three_arms() {
        let seq = ExecConfig::sequential();
        let par = ExecConfig::with_jobs(4);
        // Balanced small inputs merge.
        let a = stats(50, 50, 50);
        assert_eq!(cost::choose_strategy(&a, &a, &seq), cost::JoinStrategy::Merge);
        // 17× key skew gallops on the wide side.
        let wide = stats(1700, 1700, 1700);
        let narrow = stats(100, 100, 100);
        assert_eq!(
            cost::choose_strategy(&wide, &narrow, &seq),
            cost::JoinStrategy::Gallop {
                left: true,
                right: false
            }
        );
        assert_eq!(
            cost::choose_strategy(&narrow, &wide, &seq),
            cost::JoinStrategy::Gallop {
                left: false,
                right: true
            }
        );
        // Below the parallel threshold extra workers change nothing.
        assert_eq!(cost::choose_strategy(&a, &a, &par), cost::JoinStrategy::Merge);
        let n = cost::PARALLEL_THRESHOLD - 1;
        let under = stats(n, n, n);
        assert_eq!(cost::choose_strategy(&under, &under, &par), cost::JoinStrategy::Merge);
        // Big probe side with jobs available hashes.
        let big = stats(10_000, 5_000, 5_000);
        assert_eq!(
            cost::choose_strategy(&big, &big, &par),
            cost::JoinStrategy::Hash { jobs: 4 }
        );
        // ... but never with more partitions than domain keys.
        let two_keys = stats(10_000, 2, 2);
        assert_eq!(
            cost::choose_strategy(&two_keys, &big, &par),
            cost::JoinStrategy::Hash { jobs: 2 }
        );
        // Sequential config never hashes, whatever the size.
        assert_ne!(
            cost::choose_strategy(&big, &big, &seq),
            cost::JoinStrategy::Hash { jobs: 1 }
        );
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

    #[test]
    fn view_context_finds_shared_prefixes() {
        use crate::view::{TargetSpec, ViewQuery};
        use gam::SourceId;
        let s = |n: u32| SourceId(n);
        let q = ViewQuery::new(s(1))
            .target(TargetSpec::all(s(4)).via(vec![s(1), s(2), s(3), s(4)]))
            .target(TargetSpec::all(s(5)).via(vec![s(1), s(2), s(3), s(5)]))
            .target(TargetSpec::all(s(9)).via(vec![s(1), s(8), s(9)]));
        let ctx = ViewContext::new(&q);
        assert!(ctx.shared.contains(&vec![s(1), s(2)]));
        assert!(ctx.shared.contains(&vec![s(1), s(2), s(3)]));
        assert!(!ctx.shared.contains(&vec![s(1), s(8)]));
        assert!(ctx.is_shared_chain(&[s(1), s(2), s(3), s(4)]));
        assert!(!ctx.is_shared_chain(&[s(1), s(8), s(9)]));
        // Memo: store only accepts shared prefixes; lookup returns longest.
        let idx = Arc::new(MappingIndex::empty(s(1), s(2), gam::RelType::Fact));
        ctx.store(&[s(1), s(8)], &idx);
        assert!(ctx.lookup_longest(&[s(1), s(8), s(9)]).is_none());
        ctx.store(&[s(1), s(2)], &idx);
        let (k, _) = ctx
            .lookup_longest(&[s(1), s(2), s(3), s(4)])
            .expect("shared prefix memoized");
        assert_eq!(k, 2);
    }

    /// Regression: the fold used to store the (k+1)-source composite
    /// under the k-source memo key, so a second target sharing the
    /// prefix read a chain one hop too long — its column showed objects
    /// of the *next* source on the path.
    #[test]
    fn memo_keys_track_source_coverage() {
        use crate::view::{TargetSpec, ViewQuery};
        use gam::model::{SourceContent, SourceStructure};
        use gam::GamStore;

        let mut store = GamStore::in_memory().expect("store");
        let mut ids = Vec::new();
        let mut objs = Vec::new();
        for i in 0..4 {
            let s = store
                .create_source(
                    &format!("S{i}"),
                    SourceContent::Other,
                    SourceStructure::Flat,
                    None,
                )
                .expect("source")
                .id;
            ids.push(s);
            objs.push(
                (0..3)
                    .map(|j| {
                        store
                            .create_object(s, &format!("s{i}o{j}"), None, None)
                            .expect("object")
                    })
                    .collect::<Vec<_>>(),
            );
        }
        for h in 0..3 {
            let rel = store
                .create_source_rel(ids[h], ids[h + 1], RelType::Similarity, None)
                .expect("rel");
            let diag: Vec<_> = objs[h].iter().copied().zip(objs[h + 1].iter().copied()).collect();
            for (a, b) in diag {
                store.add_association(rel, a, b, None).expect("assoc");
            }
        }

        let q = ViewQuery::new(ids[0])
            .target(TargetSpec::all(ids[3]).via(ids.clone()))
            .target(TargetSpec::all(ids[2]).via(ids[..3].to_vec()));
        let ctx = ViewContext::new(&q);
        let cfg = ExecConfig::sequential();
        // the deep chain populates the memo; the mid chain then consumes it
        let deep = plan_chain(&store, &ids, None, &cfg, Some(&ctx)).expect("deep");
        assert_eq!((deep.from, deep.to), (ids[0], ids[3]));
        let mid_memo = plan_chain(&store, &ids[..3], None, &cfg, Some(&ctx)).expect("mid");
        let mid_fresh = plan_chain(&store, &ids[..3], None, &cfg, None).expect("fresh");
        assert_eq!((mid_memo.from, mid_memo.to), (ids[0], ids[2]));
        let pairs = |m: &MappingIndex| {
            m.to_mapping()
                .pairs
                .iter()
                .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&mid_memo), pairs(&mid_fresh));
        // the memoized column must contain S2 objects, not S3's
        assert!(mid_memo
            .to_mapping()
            .pairs
            .iter()
            .all(|a| objs[2].contains(&a.to)));
    }
}
