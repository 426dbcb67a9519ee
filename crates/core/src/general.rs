//! General (possibly unsafe) all-pairs queries — Section IV-B.
//!
//! "Our approach": represent the regular expression as a parse tree and
//! find its *maximal safe subtrees* top-down; each safe subtree is
//! evaluated with the label-based all-pairs engine (Algorithm 2), and
//! the unsafe remainder is composed with relational operators exactly as
//! baseline G1 would (join for concatenation, union for alternation,
//! semi-naive fixpoint for Kleene closure). Leaf subexpressions (one
//! symbol, wildcard, ε) are always answered from the tag index — exact
//! and cheaper than a structural join.

use crate::allpairs::{all_pairs_filtered, all_pairs_nested, all_pairs_relation};
use crate::plan::{PlanError, SafeQueryPlan};
use rpq_automata::{compile_minimal_dfa, Dfa, Regex};
use rpq_grammar::{Specification, Tag};
use rpq_labeling::{NodeId, Run};
use rpq_relalg::{
    closure_csr, closure_csr_shared, closure_in, compose_in, CondensationCache, CsrIndex,
    NodePairSet, Pairs, Relation, TagIndex,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled plan for an arbitrary regular path query.
#[derive(Debug)]
pub enum QueryPlan {
    /// The whole query is safe: evaluated purely from labels.
    Safe(SafeQueryPlan),
    /// Mixed plan: safe subtrees under relational composition.
    Composite(PlanNode),
}

impl QueryPlan {
    /// Is the whole query safe for the specification?
    pub fn is_safe(&self) -> bool {
        matches!(self, QueryPlan::Safe(_))
    }

    /// Number of safe sub-plans (1 for a fully safe query).
    pub fn n_safe_subqueries(&self) -> usize {
        match self {
            QueryPlan::Safe(_) => 1,
            QueryPlan::Composite(node) => node.count_safe(),
        }
    }

    /// The underlying safe plan, when the whole query is safe.
    pub fn as_safe(&self) -> Option<&SafeQueryPlan> {
        match self {
            QueryPlan::Safe(p) => Some(p),
            QueryPlan::Composite(..) => None,
        }
    }
}

/// One node of a composite plan.
#[derive(Debug)]
pub enum PlanNode {
    /// A maximal safe subtree, normally evaluated with Algorithm 2; the
    /// original subexpression is kept so the cost model may fall back to
    /// relational evaluation when the subquery is estimated to be cheap
    /// (the paper's closing remark: "a very useful component in a
    /// cost-based query optimizer"). Equal subexpressions of one query
    /// (an IFQ's `⎵*` remainders) share one compiled plan.
    SafeEval(Arc<SafeQueryPlan>, Regex),
    /// One edge tag: answered from the tag index.
    Sym(Tag),
    /// Any one edge: the full edge relation.
    Wildcard,
    /// The empty path.
    Epsilon,
    /// The empty language.
    Empty,
    /// Concatenation: relational composition of the children.
    Concat(Vec<PlanNode>),
    /// Alternation: union of the children.
    Alt(Vec<PlanNode>),
    /// Kleene star: semi-naive closure ∪ identity.
    Star(Box<PlanNode>),
    /// Kleene plus: semi-naive closure.
    Plus(Box<PlanNode>),
    /// Zero-or-one.
    Optional(Box<PlanNode>),
}

impl PlanNode {
    fn count_safe(&self) -> usize {
        match self {
            PlanNode::SafeEval(..) => 1,
            PlanNode::Concat(cs) | PlanNode::Alt(cs) => cs.iter().map(PlanNode::count_safe).sum(),
            PlanNode::Star(c) | PlanNode::Plus(c) | PlanNode::Optional(c) => c.count_safe(),
            _ => 0,
        }
    }
}

/// Compile a general query plan: top-down maximal-safe-subtree search.
///
/// Fails only on structural grounds (non-strictly-linear spec, DFA too
/// large); *unsafety* is what this planner exists to handle, so it never
/// surfaces as an error here.
pub fn plan_query(spec: &Specification, regex: &Regex) -> Result<QueryPlan, PlanError> {
    plan_query_with_dfa(spec, regex, &compile_minimal_dfa(regex, spec.n_tags()))
}

/// [`plan_query`] when the caller already compiled the query's minimal
/// DFA (`Session::prepare` compiles it once for plan statistics and
/// hands it in here); it is copied only into a fully safe plan.
pub(crate) fn plan_query_with_dfa(
    spec: &Specification,
    regex: &Regex,
    dfa: &Dfa,
) -> Result<QueryPlan, PlanError> {
    if !spec.is_strictly_linear() {
        return Err(PlanError::NotStrictlyLinear);
    }
    // Leaf expressions are cheaper via the index even when safe.
    if !is_leaf(regex) {
        match SafeQueryPlan::check(spec, dfa) {
            Ok(lambda) => {
                let plan = SafeQueryPlan::assemble(spec, dfa.clone(), lambda);
                return Ok(QueryPlan::Safe(plan));
            }
            Err(PlanError::Unsafe { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    // The verdict on the whole query is in: decompose it directly.
    let mut planner = Planner {
        spec,
        verdicts: HashMap::new(),
    };
    Ok(QueryPlan::Composite(planner.decompose(regex)?))
}

/// Is the expression a leaf (answered from the tag index rather than a
/// compiled plan, even when safe)?
pub(crate) fn is_leaf(re: &Regex) -> bool {
    matches!(
        re,
        Regex::Empty | Regex::Epsilon | Regex::Sym(_) | Regex::Wildcard
    )
}

/// The planning context of one query: the top-down search tries many
/// subexpressions, and equal ones (the `⎵*` remainders of an IFQ, a
/// repeated factor) get one safety check and one compiled plan.
struct Planner<'a> {
    spec: &'a Specification,
    /// The verdict on every subexpression tried so far: its plan when
    /// safe, `None` when unsafe (or beyond the DFA size cap).
    verdicts: HashMap<Regex, Option<Arc<SafeQueryPlan>>>,
}

impl Planner<'_> {
    /// The safe plan of a non-leaf `regex`, if it has one. An unsafe
    /// candidate costs a class-alphabet DFA and the λ fixpoint, nothing
    /// more ([`SafeQueryPlan::compile`] settles the verdict first).
    fn try_safe(&mut self, regex: &Regex) -> Result<Option<Arc<SafeQueryPlan>>, PlanError> {
        if let Some(verdict) = self.verdicts.get(regex) {
            return Ok(verdict.clone());
        }
        let dfa = compile_minimal_dfa(regex, self.spec.n_tags());
        let verdict = match SafeQueryPlan::compile(self.spec, dfa) {
            Ok(plan) => Some(Arc::new(plan)),
            Err(PlanError::Unsafe { .. } | PlanError::TooManyStates(_)) => None,
            Err(e) => return Err(e),
        };
        self.verdicts.insert(regex.clone(), verdict.clone());
        Ok(verdict)
    }

    fn plan_node(&mut self, regex: &Regex) -> Result<PlanNode, PlanError> {
        // Non-leaf safe subtree → stop descending (the "largest safe
        // subtree" heuristic of Section IV-B).
        if !is_leaf(regex) {
            if let Some(plan) = self.try_safe(regex)? {
                return Ok(PlanNode::SafeEval(plan, regex.clone()));
            }
        }
        self.decompose(regex)
    }

    /// Plan an expression already known to be a leaf or unsafe as a
    /// whole: index leaves, and operators over separately planned
    /// children.
    fn decompose(&mut self, regex: &Regex) -> Result<PlanNode, PlanError> {
        Ok(match regex {
            Regex::Empty => PlanNode::Empty,
            Regex::Epsilon => PlanNode::Epsilon,
            Regex::Sym(s) => PlanNode::Sym(Tag(s.0)),
            Regex::Wildcard => PlanNode::Wildcard,
            Regex::Concat(parts) => PlanNode::Concat(self.plan_concat_segments(parts)?),
            Regex::Alt(parts) => PlanNode::Alt(
                parts
                    .iter()
                    .map(|p| self.plan_node(p))
                    .collect::<Result<_, _>>()?,
            ),
            Regex::Star(inner) => PlanNode::Star(Box::new(self.plan_node(inner)?)),
            Regex::Plus(inner) => PlanNode::Plus(Box::new(self.plan_node(inner)?)),
            Regex::Optional(inner) => PlanNode::Optional(Box::new(self.plan_node(inner)?)),
        })
    }

    /// Plan a concatenation whose whole is unsafe: greedily group maximal
    /// *safe segments* of adjacent factors. This goes beyond the paper's
    /// per-subtree search (its "query rewriting" future work): `A B C` may
    /// be unsafe as a whole while `A B` is safe, and evaluating `A B` with
    /// one label-based subquery instead of two halves both the subquery
    /// count and the join fan-in.
    fn plan_concat_segments(&mut self, parts: &[Regex]) -> Result<Vec<PlanNode>, PlanError> {
        let mut nodes = Vec::new();
        let mut i = 0;
        while i < parts.len() {
            let mut grouped = None;
            // Longest safe segment of ≥ 2 factors starting at i; all of
            // `parts` is the concatenation the caller found unsafe.
            let longest = parts.len() - usize::from(i == 0);
            for j in ((i + 2)..=longest).rev() {
                let seg = Regex::concat(parts[i..j].to_vec());
                if is_leaf(&seg) {
                    continue;
                }
                if let Some(plan) = self.try_safe(&seg)? {
                    grouped = Some((j, PlanNode::SafeEval(plan, seg)));
                    break;
                }
            }
            match grouped {
                Some((j, node)) => {
                    nodes.push(node);
                    i = j;
                }
                None => {
                    nodes.push(self.plan_node(&parts[i])?);
                    i += 1;
                }
            }
        }
        Ok(nodes)
    }
}

/// Everything a composite-plan evaluation ranges over: the compiled
/// context (specification) and the run with its cached indexes.
/// Bundling these keeps the recursive evaluators' signatures flat and
/// lets sessions hand down their cached [`CsrIndex`] arena without
/// widening every call site.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The workflow specification the plan was compiled against.
    pub spec: &'a Specification,
    /// The run under query.
    pub run: &'a Run,
    /// The run's per-tag inverted index.
    pub index: &'a TagIndex,
    /// The run's CSR adjacency arena, when the caller has one cached
    /// (sessions do); closures over index leaves then skip the
    /// pair→CSR conversion.
    pub csr: Option<&'a CsrIndex>,
    /// The candidate universe for safe subqueries.
    pub universe: &'a [NodeId],
    /// The evaluation-scoped condensation cache: a plan with k
    /// SCC-kernel tag closures runs Tarjan once over the run's full
    /// adjacency and schedules the other k−1 closures off the cached
    /// component DAG. `None` (plus `csr: None`) keeps hand-rolled
    /// contexts working; the session entry points always wire one in.
    pub condensations: Option<&'a CondensationCache>,
}

/// Evaluate a composite plan node to a relation over the run.
pub fn eval_node(node: &PlanNode, ctx: &EvalCtx<'_>) -> Relation {
    let n_nodes = ctx.run.n_nodes();
    match node {
        PlanNode::SafeEval(plan, regex) => {
            let rel_node = relational_node(regex);
            if joins_beat_labels(&rel_node, ctx.index, n_nodes) {
                return eval_node(&rel_node, ctx);
            }
            // The merge hands back a sorted list or, once its answers
            // outnumber the words of the row matrix, bit rows that the
            // joins and closures above consume without conversion.
            let pairs = all_pairs_relation(plan, ctx.spec, ctx.run, ctx.universe, ctx.universe);
            // ε acceptance is already reflected in the self pairs the
            // safe evaluator emits; strip them back out into the
            // symbolic identity so downstream composition stays sparse.
            let identity = plan.accepts_epsilon();
            Relation {
                pairs: if identity {
                    pairs.without_diagonal()
                } else {
                    pairs
                },
                identity,
            }
        }
        PlanNode::Sym(tag) => Relation::from_pairs(ctx.index.edges(*tag).clone()),
        PlanNode::Wildcard => Relation::from_pairs(ctx.index.all_edges().clone()),
        PlanNode::Epsilon => Relation::epsilon(),
        PlanNode::Empty => Relation::empty(),
        PlanNode::Concat(children) => {
            if children.len() <= 2 {
                let mut rel = eval_node(&children[0], ctx);
                for c in &children[1..] {
                    if rel.pairs.is_empty() && !rel.identity {
                        return Relation::empty();
                    }
                    rel = compose_in(&rel, &eval_node(c, ctx), n_nodes);
                }
                return rel;
            }
            // Associate the chain by estimated intermediate sizes (the
            // paper's cost-model future work; see `cost`).
            let model = crate::cost::CostModel::new(ctx.index, n_nodes);
            let sizes: Vec<f64> = children.iter().map(|c| model.estimate(c)).collect();
            let order = model.chain_order(&sizes);
            eval_chain(children, &order, 0, children.len() - 1, ctx)
        }
        PlanNode::Alt(children) => {
            // Fold from the first child: a union with an empty list
            // would copy the other side's rows.
            let mut rels = children.iter().map(|c| eval_node(c, ctx));
            let first = rels.next().unwrap_or_default();
            rels.fold(first, |rel, r| rel.union(&r))
        }
        PlanNode::Star(inner) => Relation {
            pairs: closure_of(inner, ctx),
            identity: true,
        },
        PlanNode::Plus(inner) => {
            // Index leaves never carry identity, so the CSR shortcut in
            // `closure_of` preserves Plus semantics; for general inner
            // nodes the identity of the base must survive.
            match inner.as_ref() {
                PlanNode::Sym(_) | PlanNode::Wildcard => Relation {
                    pairs: closure_of(inner, ctx),
                    identity: false,
                },
                _ => {
                    let base = eval_node(inner, ctx);
                    Relation {
                        pairs: closure_in(&base.pairs, n_nodes),
                        identity: base.identity,
                    }
                }
            }
        }
        PlanNode::Optional(inner) => {
            let base = eval_node(inner, ctx);
            Relation {
                pairs: base.pairs,
                identity: true,
            }
        }
    }
}

/// The labels-vs-joins rule for one `SafeEval` subtree (the
/// cost-based optimizer the paper's conclusion sketches): the
/// label-based merge touches every reachable candidate pair over the
/// universe, so when the subtree's relational lowering `rel_node` is
/// estimated at under n²/16 units of work, plain joins win — e.g. a
/// selective symbol chain on a large run. [`eval_node`] applies it to
/// every `SafeEval` it meets.
pub fn joins_beat_labels(rel_node: &PlanNode, index: &TagIndex, n_nodes: usize) -> bool {
    let n = n_nodes as f64;
    crate::cost::CostModel::new(index, n_nodes).work_estimate(rel_node) < n * n / 16.0
}

/// Does the plan contain a Kleene closure over a bare index leaf — the
/// only construct that reads a cached [`CsrIndex`]? Sessions skip
/// building the arena for plans that can never consume it. Safe
/// subtrees count too: [`joins_beat_labels`] may lower them to
/// relational form at evaluation time, and the lowered shape can
/// contain leaf closures of its own.
pub fn plan_uses_csr(plan: &QueryPlan) -> bool {
    match plan {
        QueryPlan::Safe(_) => false,
        QueryPlan::Composite(node) => node_uses_csr(node),
    }
}

fn node_uses_csr(node: &PlanNode) -> bool {
    match node {
        PlanNode::SafeEval(_, regex) => regex_uses_csr(regex),
        PlanNode::Star(inner) | PlanNode::Plus(inner) => {
            matches!(inner.as_ref(), PlanNode::Sym(_) | PlanNode::Wildcard) || node_uses_csr(inner)
        }
        PlanNode::Optional(inner) => node_uses_csr(inner),
        PlanNode::Concat(cs) | PlanNode::Alt(cs) => cs.iter().any(node_uses_csr),
        _ => false,
    }
}

/// Would the relational lowering of `re` contain a closure over an
/// index leaf? Mirrors [`relational_node`] without building the tree.
fn regex_uses_csr(re: &Regex) -> bool {
    match re {
        Regex::Star(inner) | Regex::Plus(inner) => {
            matches!(inner.as_ref(), Regex::Sym(_) | Regex::Wildcard) || regex_uses_csr(inner)
        }
        Regex::Optional(inner) => regex_uses_csr(inner),
        Regex::Concat(ps) | Regex::Alt(ps) => ps.iter().any(regex_uses_csr),
        _ => false,
    }
}

/// The transitive closure of a plan node's relation. Closures over
/// bare index leaves (`a*`, `⎵*` remainders) run straight off the
/// session's cached CSR arena when one is available — the headline
/// fixpoint path — and fall back to evaluating the node and closing
/// its pairs otherwise. Either way the closure stays in the format of
/// the kernel that computed it.
fn closure_of(inner: &PlanNode, ctx: &EvalCtx<'_>) -> Pairs {
    match (inner, ctx.csr) {
        // Tag/wildcard closures share one evaluation-scoped Tarjan
        // condensation of the full adjacency (`csr.all()` is a
        // super-graph of every per-tag arena, so its component DAG
        // soundly schedules them all). Derived relations — the `_` arm
        // below — are *not* sub-graphs of the run's edges and must not
        // reuse it.
        (PlanNode::Sym(tag), Some(csr)) => match ctx.condensations {
            Some(cache) => closure_csr_shared(csr.csr(*tag), csr.all(), cache),
            None => closure_csr(csr.csr(*tag)),
        },
        (PlanNode::Wildcard, Some(csr)) => match ctx.condensations {
            Some(cache) => closure_csr_shared(csr.all(), csr.all(), cache),
            None => closure_csr(csr.all()),
        },
        _ => closure_in(&eval_node(inner, ctx).pairs, ctx.run.n_nodes()),
    }
}

/// Lower a regex to a purely relational plan (no label-based subqueries)
/// — the evaluator baseline G1 uses, and the cost model's fallback shape.
pub fn relational_node(regex: &Regex) -> PlanNode {
    match regex {
        Regex::Empty => PlanNode::Empty,
        Regex::Epsilon => PlanNode::Epsilon,
        Regex::Sym(s) => PlanNode::Sym(Tag(s.0)),
        Regex::Wildcard => PlanNode::Wildcard,
        Regex::Concat(parts) => PlanNode::Concat(parts.iter().map(relational_node).collect()),
        Regex::Alt(parts) => PlanNode::Alt(parts.iter().map(relational_node).collect()),
        Regex::Star(inner) => PlanNode::Star(Box::new(relational_node(inner))),
        Regex::Plus(inner) => PlanNode::Plus(Box::new(relational_node(inner))),
        Regex::Optional(inner) => PlanNode::Optional(Box::new(relational_node(inner))),
    }
}

/// Evaluate a concatenation segment `i..=j` in the association order the
/// cost model chose.
fn eval_chain(
    children: &[PlanNode],
    order: &crate::cost::ChainOrder,
    i: usize,
    j: usize,
    ctx: &EvalCtx<'_>,
) -> Relation {
    if i == j {
        return eval_node(&children[i], ctx);
    }
    let k = order.split_of(i, j);
    let left = eval_chain(children, order, i, k, ctx);
    if left.pairs.is_empty() && !left.identity {
        return Relation::empty();
    }
    let right = eval_chain(children, order, k + 1, j, ctx);
    compose_in(&left, &right, ctx.run.n_nodes())
}

/// Evaluate a full query plan as an all-pairs query over `l1 × l2`.
pub fn all_pairs(
    plan: &QueryPlan,
    spec: &Specification,
    run: &Run,
    index: &TagIndex,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    all_pairs_csr(plan, spec, run, index, None, l1, l2)
}

/// [`all_pairs`] with an optional cached CSR arena (the session entry
/// point).
pub fn all_pairs_csr(
    plan: &QueryPlan,
    spec: &Specification,
    run: &Run,
    index: &TagIndex,
    csr: Option<&CsrIndex>,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    match plan {
        QueryPlan::Safe(p) => all_pairs_filtered(p, spec, run, l1, l2),
        QueryPlan::Composite(node) => {
            let universe: Vec<NodeId> = run.node_ids().collect();
            let condensations = CondensationCache::new();
            let ctx = EvalCtx {
                spec,
                run,
                index,
                csr,
                universe: &universe,
                condensations: Some(&condensations),
            };
            // Kernel-dispatched endpoint selection: the dense closures
            // relational plans end in AND a target mask into each bit
            // row instead of probing per pair.
            eval_node(node, &ctx).select_pairs_in(l1, l2, run.n_nodes())
        }
    }
}

/// Evaluate a full query plan pairwise.
pub fn pairwise(
    plan: &QueryPlan,
    spec: &Specification,
    run: &Run,
    index: &TagIndex,
    u: NodeId,
    v: NodeId,
) -> bool {
    pairwise_csr(plan, spec, run, index, None, u, v)
}

/// [`pairwise`] with an optional cached CSR arena (the session entry
/// point).
pub fn pairwise_csr(
    plan: &QueryPlan,
    spec: &Specification,
    run: &Run,
    index: &TagIndex,
    csr: Option<&CsrIndex>,
    u: NodeId,
    v: NodeId,
) -> bool {
    match plan {
        QueryPlan::Safe(p) => p.pairwise(run, u, v),
        QueryPlan::Composite(node) => {
            let universe: Vec<NodeId> = run.node_ids().collect();
            let condensations = CondensationCache::new();
            let ctx = EvalCtx {
                spec,
                run,
                index,
                csr,
                universe: &universe,
                condensations: Some(&condensations),
            };
            eval_node(node, &ctx).contains(u, v)
        }
    }
}

/// Nested-loop variant for the "RPL" measurement (Option S1) on safe
/// plans; composite plans fall back to [`all_pairs`].
pub fn all_pairs_s1(
    plan: &QueryPlan,
    spec: &Specification,
    run: &Run,
    index: &TagIndex,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    match plan {
        QueryPlan::Safe(p) => all_pairs_nested(p, run, l1, l2),
        QueryPlan::Composite(..) => all_pairs(plan, spec, run, index, l1, l2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse, Symbol};
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::RunBuilder;

    fn fig2() -> Specification {
        let mut b = SpecificationBuilder::new();
        for m in ["a", "b", "c", "d", "e"] {
            b.atomic(m);
        }
        for m in ["S", "A", "B"] {
            b.composite(m);
        }
        b.production("S", |w| {
            let c = w.node("c");
            let a = w.node("A");
            let bb = w.node("B");
            let b2 = w.node("b");
            // W1 is a diamond: c feeds both A and B, which both feed b
            // (the only shape consistent with Examples 3.1 and 3.2).
            w.edge(c, a);
            w.edge(c, bb);
            w.edge(a, b2);
            w.edge(bb, b2);
        });
        b.production("A", |w| {
            let a = w.node("a");
            let aa = w.node("A");
            let d = w.node("d");
            // The paper's unsafe example ⎵* a ⎵* needs an `a` tag that
            // only W2 executions cross.
            w.edge_named(a, aa, "a");
            w.edge(aa, d);
        });
        b.production("A", |w| {
            let e1 = w.node("e");
            let e2 = w.node("e");
            w.edge(e1, e2);
        });
        b.production("B", |w| {
            let b1 = w.node("b");
            let b2 = w.node("b");
            w.edge(b1, b2);
        });
        b.start("S");
        b.build().unwrap()
    }

    fn q(spec: &Specification, text: &str) -> Regex {
        parse(text, &mut |n| spec.tag_by_name(n).map(|t| Symbol(t.0))).unwrap()
    }

    #[test]
    fn safe_query_gets_a_safe_plan() {
        let spec = fig2();
        let plan = plan_query(&spec, &q(&spec, "_* e _*")).unwrap();
        assert!(plan.is_safe());
        assert_eq!(plan.n_safe_subqueries(), 1);
    }

    fn safe_evals<'a>(node: &'a PlanNode, out: &mut Vec<(&'a Arc<SafeQueryPlan>, &'a Regex)>) {
        match node {
            PlanNode::SafeEval(plan, regex) => out.push((plan, regex)),
            PlanNode::Concat(cs) | PlanNode::Alt(cs) => cs.iter().for_each(|c| safe_evals(c, out)),
            PlanNode::Star(c) | PlanNode::Plus(c) | PlanNode::Optional(c) => safe_evals(c, out),
            _ => {}
        }
    }

    #[test]
    fn equal_subexpressions_share_one_plan() {
        // ⎵* a ⎵* a ⎵* d ⎵* decomposes into [⎵* a][⎵* a][⎵*][d ⎵*]:
        // the repeated segment is checked and compiled once.
        let spec = fig2();
        let plan = plan_query(&spec, &q(&spec, "_* a _* a _* d _*")).unwrap();
        let QueryPlan::Composite(node) = &plan else {
            panic!("expected a composite plan, got {plan:?}");
        };
        let mut safe = Vec::new();
        safe_evals(node, &mut safe);
        assert_eq!(safe.len(), 4);
        assert_eq!(safe[0].1, safe[1].1);
        assert!(Arc::ptr_eq(safe[0].0, safe[1].0));
        assert!(!Arc::ptr_eq(safe[1].0, safe[2].0));
    }

    #[test]
    fn unsafe_query_decomposes() {
        // ⎵* a ⎵* is unsafe for Fig. 2 (the paper's running example).
        let spec = fig2();
        let plan = plan_query(&spec, &q(&spec, "_* a _*")).unwrap();
        assert!(!plan.is_safe());
        // Decomposition: [⎵* a][⎵*], two safe parts.
        assert_eq!(plan.n_safe_subqueries(), 2);
    }

    #[test]
    fn composite_matches_safe_on_safe_remainder() {
        // Even when forced through the composite path, the answer agrees
        // with the label-based evaluator.
        let spec = fig2();
        let run = RunBuilder::new(&spec)
            .seed(3)
            .target_edges(120)
            .build()
            .unwrap();
        let index = TagIndex::build(&run, spec.n_tags());
        let all: Vec<NodeId> = run.node_ids().collect();

        let regex = q(&spec, "_* e _*");
        let safe = plan_query(&spec, &regex).unwrap();
        let forced = QueryPlan::Composite(PlanNode::Concat(vec![
            PlanNode::SafeEval(
                Arc::new(
                    SafeQueryPlan::compile(
                        &spec,
                        compile_minimal_dfa(&q(&spec, "_*"), spec.n_tags()),
                    )
                    .unwrap(),
                ),
                q(&spec, "_*"),
            ),
            PlanNode::Sym(spec.tag_by_name("e").unwrap()),
            PlanNode::SafeEval(
                Arc::new(
                    SafeQueryPlan::compile(
                        &spec,
                        compile_minimal_dfa(&q(&spec, "_*"), spec.n_tags()),
                    )
                    .unwrap(),
                ),
                q(&spec, "_*"),
            ),
        ]));
        let a = all_pairs(&safe, &spec, &run, &index, &all, &all);
        let b = all_pairs(&forced, &spec, &run, &index, &all, &all);
        assert_eq!(a, b);
    }

    #[test]
    fn unsafe_plan_answers_correctly() {
        let spec = fig2();
        let run = {
            use rpq_grammar::ProductionId;
            RunBuilder::new(&spec)
                .policy(rpq_labeling::Scripted::new([
                    ProductionId(0),
                    ProductionId(1),
                    ProductionId(1),
                    ProductionId(2),
                    ProductionId(3),
                ]))
                .build()
                .unwrap()
        };
        let index = TagIndex::build(&run, spec.n_tags());
        let n = |s: &str| run.node_by_name(&spec, s).unwrap();

        // ⎵* a ⎵*: true iff the path crosses an `a`-tagged edge.
        // In the Fig. 2b run the a-tagged edges are a:1→a:2 and
        // a:2→e:1 (both introduced by W2 firings).
        let plan = plan_query(&spec, &q(&spec, "_* a _*")).unwrap();
        assert!(pairwise(&plan, &spec, &run, &index, n("c:1"), n("e:2")));
        assert!(pairwise(&plan, &spec, &run, &index, n("c:1"), n("b:1")));
        assert!(!pairwise(&plan, &spec, &run, &index, n("e:1"), n("b:1")));
        assert!(!pairwise(&plan, &spec, &run, &index, n("d:2"), n("b:1")));

        // Exact single symbol (unsafe leaf): e matches only e:1 → e:2.
        let plan_e = plan_query(&spec, &q(&spec, "e")).unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let res = all_pairs(&plan_e, &spec, &run, &index, &all, &all);
        assert_eq!(res.len(), 1);
        assert!(res.contains(n("e:1"), n("e:2")));
    }

    #[test]
    fn concat_segments_group_maximal_safe_prefixes() {
        // ⎵* e ⎵* a ⎵* is unsafe for Fig. 2 (whether an `a` follows the
        // e depends on the recursion depth), but the prefix ⎵* e ⎵* a
        // happens to be safe: grouping it into one label-based subquery
        // leaves [SafeEval(⎵* e ⎵* a), SafeEval(⎵*)] — 2 safe
        // subqueries where per-child planning would produce 3
        // reachability subqueries plus two index symbols.
        let spec = fig2();
        let regex = q(&spec, "_* e _* a _*");
        let plan = plan_query(&spec, &regex).unwrap();
        assert!(!plan.is_safe());
        assert_eq!(plan.n_safe_subqueries(), 2);

        // Correctness against a product-BFS referee.
        let run = RunBuilder::new(&spec)
            .seed(5)
            .target_edges(150)
            .build()
            .unwrap();
        let index = TagIndex::build(&run, spec.n_tags());
        let all: Vec<NodeId> = run.node_ids().collect();
        let got = all_pairs(&plan, &spec, &run, &index, &all, &all);
        let expected = bfs_referee(&spec, &run, &regex, &all);
        assert_eq!(got, expected);
    }

    /// Tiny product-BFS referee (inline to avoid a dev-dependency cycle
    /// with rpq-baselines).
    fn bfs_referee(spec: &Specification, run: &Run, regex: &Regex, all: &[NodeId]) -> NodePairSet {
        let dfa = compile_minimal_dfa(regex, spec.n_tags());
        let mut acc_mask = 0u64;
        for (state, &is_acc) in dfa.accepting().iter().enumerate() {
            if is_acc {
                acc_mask |= 1 << state;
            }
        }
        let mut expected = Vec::new();
        for &u in all {
            let mut masks = vec![0u64; run.n_nodes()];
            masks[u.index()] |= 1 << dfa.start();
            let mut stack = vec![(u, dfa.start())];
            while let Some((x, qs)) = stack.pop() {
                for &(y, tag) in run.out_edges(x) {
                    let q2 = dfa.next(qs, Symbol(tag.0));
                    if masks[y.index()] >> q2 & 1 == 0 {
                        masks[y.index()] |= 1 << q2;
                        stack.push((y, q2));
                    }
                }
            }
            for &v in all {
                let hit = if u == v {
                    dfa.accepts_epsilon()
                } else {
                    masks[v.index()] & acc_mask != 0
                };
                if hit {
                    expected.push((u, v));
                }
            }
        }
        NodePairSet::from_pairs(expected)
    }

    #[test]
    fn cost_ordered_chain_is_exact() {
        // Long unsafe chains go through the matrix-chain association;
        // the result must be identical to naive left-to-right folding.
        let spec = fig2();
        let run = RunBuilder::new(&spec)
            .seed(9)
            .target_edges(200)
            .build()
            .unwrap();
        let index = TagIndex::build(&run, spec.n_tags());
        let all: Vec<NodeId> = run.node_ids().collect();
        let regex = q(&spec, "_* a _* a _* d _*");
        let plan = plan_query(&spec, &regex).unwrap();
        assert!(!plan.is_safe());
        let got = all_pairs(&plan, &spec, &run, &index, &all, &all);
        assert_eq!(got, bfs_referee(&spec, &run, &regex, &all));
    }

    #[test]
    fn empty_and_epsilon_plans() {
        let spec = fig2();
        let run = RunBuilder::new(&spec)
            .seed(1)
            .target_edges(40)
            .build()
            .unwrap();
        let index = TagIndex::build(&run, spec.n_tags());
        let all: Vec<NodeId> = run.node_ids().collect();

        let empty = plan_query(&spec, &Regex::Empty).unwrap();
        assert!(all_pairs(&empty, &spec, &run, &index, &all, &all).is_empty());

        let eps = plan_query(&spec, &Regex::Epsilon).unwrap();
        let res = all_pairs(&eps, &spec, &run, &index, &all, &all);
        assert_eq!(res.len(), run.n_nodes()); // exactly the self pairs
    }
}
