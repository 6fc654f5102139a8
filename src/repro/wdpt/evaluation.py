"""WDPT semantics and the general (exponential) evaluation algorithms.

Definition 2 of the paper: a homomorphism from ``p = (T, λ, x̄)`` to a
database ``D`` is a partial mapping that is a total homomorphism of
``q_{T'}`` for some rooted subtree ``T'``; ``p(D)`` collects the
projections ``h|_x̄`` of the *maximal* such homomorphisms, and ``p_m(D)``
(Section 3.4) keeps only the ⊑-maximal elements of ``p(D)``.

Two independent evaluators are provided and cross-checked in the tests:

* :func:`homomorphisms_reference` — literal subtree enumeration (the
  definition, exponential in ``|T|``);
* :func:`maximal_homomorphisms` — a top-down procedural evaluator that
  grows homomorphisms node by node (the natural OPT-style algorithm; still
  exponential in the worst case, as it must be — ``EVAL`` is Σ₂ᵖ-complete
  for arbitrary WDPTs, Theorem 1).

``EVAL``, the exact-membership decision problem, is solved here by full
enumeration; the polynomial algorithm for ``ℓ-C ∩ BI(c)`` lives in
:mod:`repro.wdpt.eval_tractable`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping, maximal_mappings
from ..core.terms import Variable
from ..cqalgs.naive import homomorphisms as cq_homomorphisms
from ..cqalgs.yannakakis import evaluate_with_join_tree
from ..hypergraphs.gyo import join_tree_of_atoms
from ..parallel.pool import WorkerPool, current_pool
from ..relalg.config import MODE_LEGACY, kernel_mode
from ..telemetry.metrics import NodeStatsCollector
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer
from .tree import ROOT
from .wdpt import WDPT

#: One node's extension plan: its label atoms (sorted), their join tree,
#: and the variables the extension step asks Yannakakis for.
NodePlan = Tuple[Tuple[Atom, ...], Tuple[Tuple[int, int], ...], Tuple[Variable, ...]]


class NodeTrees(Dict[int, Optional[NodePlan]]):
    """Per-evaluation cache: node → :data:`NodePlan`, or ``None`` for
    labels the columnar extension cannot serve (cyclic hypergraph).

    ``frees`` is ``x̄`` when the evaluation only needs the answers
    projected to ``x̄`` (:func:`evaluate`): each node then asks only for
    its *needed* variables, ``vars(λ(t)) ∩ (x̄ ∪ ⋃_{c child of t}
    vars(λ(c)))``.  With ``frees=None`` (:func:`maximal_homomorphisms`)
    every variable of the label is asked for.
    """

    def __init__(self, frees: Optional[FrozenSet[Variable]] = None):
        super().__init__()
        self.frees = frees


if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from ..planner.profile import TreeProfile


# ---------------------------------------------------------------------------
# Reference semantics: literal Definition 2
# ---------------------------------------------------------------------------
def homomorphisms_reference(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """All homomorphisms from ``p`` to ``db`` (not only maximal ones),
    via rooted-subtree enumeration."""
    out: Set[Mapping] = set()
    for nodes in p.tree.rooted_subtrees():
        atoms = p.atoms_of(nodes)
        out.update(cq_homomorphisms(atoms, db))
    return frozenset(out)


def evaluate_reference(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """``p(D)`` by the book: maximal homomorphisms, projected to ``x̄``."""
    maximal = maximal_mappings(homomorphisms_reference(p, db))
    return frozenset(h.restrict(p.free_variables) for h in maximal)


# ---------------------------------------------------------------------------
# Top-down procedural evaluator
# ---------------------------------------------------------------------------
def _node_homomorphisms(
    p: WDPT,
    db: Database,
    node: int,
    sigma: Mapping,
    trees: Optional[NodeTrees],
) -> Iterable[Mapping]:
    """The homomorphisms of ``λ(node)`` extending ``sigma`` — the per-node
    extension step of the top-down evaluator.  Each is total on the
    requested variables of the node plus ``dom(sigma)``.

    With ``trees`` (the per-node plan cache) and an acyclic label, the
    step runs set-at-a-time: ``sigma`` is substituted into the label
    atoms and Yannakakis is asked for the node's requested variables
    (all of them, or only the needed ones when ``trees.frees`` is set —
    see :class:`NodeTrees`); the join tree of the unsubstituted label
    stays valid, since instantiating variables only shrinks hyperedges.
    The extensions are then distinct *projected* homomorphisms.  Cyclic
    or empty labels, and ``trees is None`` (legacy kernel mode), fall
    back to the historical backtracking search over full homomorphisms.
    """
    label = p.labels[node]
    if trees is None or not label:
        return cq_homomorphisms(label, db, pre_assignment=sigma)
    entry = trees.get(node, False)
    if entry is False:
        entry = trees[node] = _node_plan(p, node, trees.frees)
    if entry is None:
        return cq_homomorphisms(label, db, pre_assignment=sigma)
    atoms, links, requested = entry
    if len(sigma):
        substituted = tuple(a.substitute(sigma) for a in atoms)
    else:
        substituted = atoms
    q = ConjunctiveQuery(requested, substituted)
    rows = evaluate_with_join_tree(q, db, substituted, links)
    if not len(sigma):
        return rows
    base = sigma.as_dict()
    out: List[Mapping] = []
    for m in rows:
        merged = dict(base)
        merged.update(m.items())
        out.append(Mapping.from_trusted(merged))
    return out


def _node_plan(
    p: WDPT, node: int, frees: Optional[FrozenSet[Variable]]
) -> Optional[NodePlan]:
    """``node``'s extension plan, or ``None`` for a cyclic label.

    The requested variables exclude the interface to the parent — the
    domain of every ``sigma`` the node is extended from, substituted
    away before the call.  Well-designedness makes the child interfaces
    the only variables that decide whether an OPT branch extends, so
    dropping the others loses no answer.
    """
    atoms = tuple(sorted(set(p.labels[node])))
    links = join_tree_of_atoms(atoms)
    if links is None:
        return None
    node_vars = p.node_variables(node)
    if frees is None:
        needed = node_vars
    else:
        needed = frees & node_vars
        for child in p.tree.children(node):
            needed |= node_vars & p.node_variables(child)
    parent = p.tree.parent(node)
    if parent is not None:
        needed -= p.node_variables(parent)
    return atoms, tuple(links), tuple(sorted(needed))


def _parallel_safe_nodes(p: WDPT, profile: "Optional[TreeProfile]") -> FrozenSet[int]:
    """The nodes this query may fan out at — the planner's marking when a
    profile is supplied, otherwise the same ≥2-children criterion computed
    locally (sibling independence holds for every well-designed tree)."""
    if profile is not None:
        return profile.parallel_safe_nodes
    tree = p.tree
    return frozenset(n for n in tree.nodes() if len(tree.children(n)) >= 2)


def maximal_homomorphisms(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """The maximal homomorphisms from ``p`` to ``db``, grown top-down.

    Well-designedness makes a node's variables a separator: two sibling
    subtrees can only share variables through their common parent.  Given a
    homomorphism of the parent, the extensions into different children are
    therefore *independent*, and the maximal homomorphisms decompose as a
    product:

        ``max(t, h) = {h} ⨝ ∏_{c child of t} branch(c, h|_{shared})``

    where ``branch(c, σ)`` is the set of maximal extensions into ``c``'s
    subtree — or the trivial ``{σ}`` when ``λ(c)`` admits no extension at
    all (the OPT branch simply fails).  A child that *is* extendable must
    be extended in every maximal homomorphism, which is exactly what the
    product encodes.  No a-posteriori maximality filtering is needed.

    When tracing is enabled (:mod:`repro.telemetry`) a per-node stats
    collector records candidate-mapping counts, maximal-extension counts,
    and inclusive wall time per tree node; the aggregate is attached to the
    ``wdpt.maximal_homomorphisms`` span as ``node_stats`` and joined with
    the static profile by ``Session.analyze``.

    When a :class:`~repro.parallel.pool.WorkerPool` is installed
    (:func:`~repro.parallel.pool.use_pool`), the independent units of work
    fan out to it: the per-root-candidate branch computations, and — at
    nodes the planner marks parallel-safe (``profile=`` a
    :class:`~repro.planner.profile.TreeProfile`) — the sibling-subtree
    extensions inside :func:`_branch_solutions`.  The product decomposition
    above is exactly the soundness argument: sibling work never shares
    state beyond the (immutable) parent mapping, so the parallel schedule
    computes the same set.
    """
    return _grow(p, db, profile, None)


def _grow(
    p: WDPT,
    db: Database,
    profile: "Optional[TreeProfile]",
    frees: Optional[FrozenSet[Variable]],
) -> FrozenSet[Mapping]:
    """The top-down evaluator behind :func:`maximal_homomorphisms`
    (``frees=None``: full homomorphisms) and :func:`evaluate` (``frees``
    = ``x̄``: maximal homomorphisms projected to the needed variables of
    each node — see :class:`NodeTrees`)."""
    tracer = current_tracer()
    collector = NodeStatsCollector() if tracer.enabled else None
    pool = current_pool()
    safe = _parallel_safe_nodes(p, profile) if pool is not None else frozenset()
    trees = NodeTrees(frees) if kernel_mode() != MODE_LEGACY else None
    out: Set[Mapping] = set()
    with tracer.span("wdpt.maximal_homomorphisms") as sp:
        roots = list(_node_homomorphisms(p, db, ROOT, Mapping(), trees))
        if pool is not None and len(roots) >= 2:
            # Fan the root candidates out; each task explores its branch
            # sequentially (nested dispatch would run inline anyway).
            branches = pool.map_tasks(
                lambda h: _branch_solutions(p, db, ROOT, h, collector, trees=trees),
                roots,
            )
            for solutions in branches:
                out.update(solutions)
        else:
            for h in roots:
                out.update(
                    _branch_solutions(p, db, ROOT, h, collector, pool, safe, trees)
                )
        account_rows(len(out))
        if collector is not None:
            collector.add(ROOT, candidates=len(roots), extensions=len(out))
            sp.set(node_stats=collector.rows(), maximal=len(out))
    return frozenset(out)


def _child_solutions(
    p: WDPT,
    db: Database,
    child: int,
    sigma: Mapping,
    collector: Optional[NodeStatsCollector],
    pool: "Optional[WorkerPool]",
    safe: FrozenSet[int],
    trees: Optional[NodeTrees] = None,
) -> List[Mapping]:
    """The maximal extensions of ``sigma`` into ``child``'s subtree
    (empty when ``λ(child)`` admits none — the OPT branch fails)."""
    start = time.perf_counter() if collector is not None else 0.0
    candidates = 0
    solutions: List[Mapping] = []
    for g in _node_homomorphisms(p, db, child, sigma, trees):
        candidates += 1
        solutions.extend(
            _branch_solutions(p, db, child, g, collector, pool, safe, trees)
        )
    if collector is not None:
        collector.add(
            child,
            candidates=candidates,
            extensions=len(solutions),
            seconds=time.perf_counter() - start,
        )
    return solutions


def _branch_solutions(
    p: WDPT,
    db: Database,
    node: int,
    h: Mapping,
    collector: Optional[NodeStatsCollector] = None,
    pool: "Optional[WorkerPool]" = None,
    safe: FrozenSet[int] = frozenset(),
    trees: Optional[NodeTrees] = None,
) -> List[Mapping]:
    """All maximal homomorphisms of the subtree under ``node`` that extend
    the node homomorphism ``h`` (``h`` is total on ``vars(node)``)."""
    results: List[Mapping] = [h]
    node_vars = p.node_variables(node)
    children = p.tree.children(node)
    if pool is not None and node in safe:
        # Sibling subtrees are independent given h (see the product
        # decomposition in maximal_homomorphisms) — compute them
        # concurrently, then fold the product in child order.
        per_child = pool.map_tasks(
            lambda child: _child_solutions(
                p, db, child, h.restrict(node_vars & p.node_variables(child)),
                collector, None, safe, trees,
            ),
            children,
        )
        for child_solutions in per_child:
            if not child_solutions:
                continue  # OPT branch fails: the answers keep h unextended
            results = [r.union(m) for r in results for m in child_solutions]
            account_rows(len(results))
        return results
    for child in children:
        sigma = h.restrict(node_vars & p.node_variables(child))
        child_solutions = _child_solutions(
            p, db, child, sigma, collector, pool, safe, trees
        )
        if not child_solutions:
            continue  # OPT branch fails: the answers keep h unextended
        results = [r.union(m) for r in results for m in child_solutions]
        account_rows(len(results))
    return results


def evaluate(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """``p(D)`` via the top-down evaluator.

    ``profile`` (an optional planner :class:`TreeProfile`) supplies the
    parallel-safe fan-out marking when a worker pool is installed; without
    it the marking is recomputed locally, so the answer never depends on
    whether a profile was passed.

    Only ``x̄`` is observable here, so each node extension asks
    Yannakakis for the node's needed variables alone (free variables and
    child interfaces, :class:`NodeTrees`) rather than for full
    homomorphisms: the work stays proportional to the projected output.

    >>> from repro.core import atom, Database, Mapping
    >>> from repro.wdpt.wdpt import wdpt_from_nested
    >>> p = wdpt_from_nested(
    ...     ([atom("E", "?x", "?y")], [([atom("F", "?y", "?z")], [])]),
    ...     free_variables=["?x", "?z"],
    ... )
    >>> db = Database([atom("E", 1, 2)])
    >>> evaluate(p, db) == frozenset([Mapping({"?x": 1})])
    True
    """
    tracer = current_tracer()
    with tracer.span("wdpt.evaluate", nodes=len(p.tree)) as sp:
        maximal = _grow(p, db, profile, frozenset(p.free_variables))
        answers = frozenset(h.restrict(p.free_variables) for h in maximal)
        if tracer.enabled:
            sp.set(answers=len(answers))
        return answers


def evaluate_max(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """``p_m(D)``: the ⊑-maximal answers (Section 3.4)."""
    with current_tracer().span("wdpt.evaluate_max"):
        return maximal_mappings(evaluate(p, db, profile))


# ---------------------------------------------------------------------------
# Decision problems, by enumeration (the general, hard case)
# ---------------------------------------------------------------------------
def eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``EVAL``: is ``h ∈ p(D)``?  (General algorithm: full enumeration.)"""
    return h in evaluate(p, db)


def max_eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``MAX-EVAL``: is ``h ∈ p_m(D)``?  (General algorithm.)"""
    return h in evaluate_max(p, db)


def partial_eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``PARTIAL-EVAL``: is some ``h' ∈ p(D)`` with ``h ⊑ h'``?
    (General algorithm; the polynomial one is in
    :mod:`repro.wdpt.partial_eval`.)"""
    return any(h.subsumed_by(answer) for answer in evaluate(p, db))
