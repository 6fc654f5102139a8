"""Output-sensitive evaluation: the Yannakakis bound, checked.

* Every kernel that runs a join phase (columnar, sql, dist) keeps each
  join's output within ``max |reduced relation| × max(1, |answers|)``
  — Yannakakis' ``O(|D| · |out|)`` bound, read off the
  ``max_intermediate`` span attribute.
* The WDPT evaluator asks each node's Yannakakis call only for the
  variables the answers and the child interfaces need, so on a chain
  with one free variable Yannakakis returns exactly the answers, and no
  join grows past the largest reduced relation.
* Projecting inside the evaluator changes no answer: ``evaluate`` agrees
  with ``evaluate_reference`` on WDPTs whose free variables are a strict
  subset of their variables, and witnesses stay full homomorphisms.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from repro.cqalgs.naive import evaluate_naive  # noqa: E402
from repro.cqalgs.yannakakis import evaluate_acyclic  # noqa: E402
from repro.dist.backend import ShardedBackend  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.hypergraphs.gyo import join_tree_of_atoms  # noqa: E402
from repro.relalg.config import MODE_AUTO, force_kernels  # noqa: E402
from repro.storage import MemoryBackend, SQLiteBackend  # noqa: E402
from repro.telemetry.tracer import tracing  # noqa: E402
from repro.wdpt.evaluation import evaluate, evaluate_reference  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    random_cq,
    random_database,
    random_wdpt,
)

RELATIONS = ("E", "F")


def _attr_max(tracer, span_name, attr):
    return max((s.attrs[attr] for s in tracer.find(span_name)), default=0)


def _max_reduced(facts, query):
    """The largest fully reduced relation (both semi-join sweeps)."""
    with force_kernels(MODE_AUTO), tracing() as tracer:
        evaluate_acyclic(query, MemoryBackend(facts))
    (down,) = tracer.find("yannakakis.semijoin_down")
    return max(down.attrs["relation_sizes"])


@pytest.fixture(scope="module")
def sharded():
    backend = ShardedBackend(shards=2)
    yield backend
    backend.shutdown()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    n_atoms=st.integers(min_value=2, max_value=5),
    n_free=st.integers(min_value=0, max_value=3),
)
def test_join_phase_within_yannakakis_bound_on_every_kernel(
    sharded, seed, n_atoms, n_free
):
    query = random_cq(
        n_atoms=n_atoms, n_variables=n_atoms + 1, relations=RELATIONS,
        n_free=n_free, seed=seed,
    )
    assume(join_tree_of_atoms(sorted(query.atoms)) is not None)
    facts = random_database(
        40, relations=RELATIONS, domain_size=6, seed=seed
    ).facts()
    expected = evaluate_naive(query, MemoryBackend(facts))
    bound = _max_reduced(facts, query) * max(1, len(expected))

    for fact in sharded.facts():
        sharded.discard(fact)
    sharded.add_many(facts)
    kernels = [
        ("columnar", MemoryBackend(facts), "yannakakis.join"),
        ("sql", SQLiteBackend(facts), "yannakakis.sql"),
        ("dist", sharded, "yannakakis.join"),
    ]
    for name, db, span_name in kernels:
        with force_kernels(MODE_AUTO), tracing() as tracer:
            answers = evaluate_acyclic(query, db)
        assert answers == expected, name
        (y_span,) = tracer.find("yannakakis")
        assert y_span.attrs["kernel"] == name
        assert _attr_max(tracer, span_name, "max_intermediate") <= bound, name


# ---------------------------------------------------------------------------
# Deterministic regression: a chain with one free variable
# ---------------------------------------------------------------------------
CHAIN = "SELECT ?a WHERE { ?a e1 ?b . ?b e2 ?c . ?c e3 ?d }"


def _chain_triples():
    # Four a's reach each of two b's; each b has one c; each c fans out
    # to three d's.  24 full homomorphisms, 4 answers, 8-row relations.
    out = [("a%d" % i, "e1", "b%d" % j) for i in range(4) for j in range(2)]
    out += [("b0", "e2", "c0"), ("b1", "e2", "c1")]
    out += [("c%d" % j, "e3", "d%d" % k) for j in range(2) for k in range(3)]
    return out


def test_chain_extension_is_output_sensitive():
    from repro.rdf.graph import RDFGraph

    session = Session(RDFGraph(_chain_triples()), backend="memory", cache=False)
    with force_kernels(MODE_AUTO), tracing() as tracer:
        result = session.query(CHAIN)
    assert len(result.answers) == 4
    (y_span,) = tracer.find("yannakakis")
    assert y_span.attrs["answers"] == len(result.answers)
    (down,) = tracer.find("yannakakis.semijoin_down")
    (join,) = tracer.find("yannakakis.join")
    assert join.attrs["max_intermediate"] <= max(down.attrs["relation_sizes"])


# ---------------------------------------------------------------------------
# Projection-heavy WDPT parity
# ---------------------------------------------------------------------------
def _has_bound_interface(p):
    """Some child shares a variable with its parent that is not free."""
    frees = set(p.free_variables)
    for node in p.tree.nodes():
        parent = p.tree.parent(node)
        if parent is None:
            continue
        shared = p.node_variables(node) & p.node_variables(parent)
        if shared - frees:
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    depth=st.integers(min_value=1, max_value=2),
    free_fraction=st.sampled_from([0.1, 0.25, 0.4]),
    shared=st.integers(min_value=1, max_value=2),
    n_facts=st.integers(min_value=6, max_value=14),
)
def test_projecting_evaluator_matches_reference(
    seed, depth, free_fraction, shared, n_facts
):
    # Small trees and databases: evaluate_reference enumerates every
    # homomorphism of every rooted subtree.
    p = random_wdpt(
        depth=depth, fanout=2, atoms_per_node=1, fresh_vars_per_node=1,
        shared_vars_per_child=shared, relations=RELATIONS,
        free_fraction=free_fraction, seed=seed,
    )
    assume(set(p.free_variables) < set(p.variables()))
    assume(_has_bound_interface(p))
    facts = random_database(
        n_facts, relations=RELATIONS, domain_size=4, seed=seed
    ).facts()
    db = MemoryBackend(facts)
    with force_kernels(MODE_AUTO):
        answers = evaluate(p, db)
        assert answers == evaluate_reference(p, db)
        result = Session(db, cache=False).query(p)
        assert result.answers == answers
        for answer in answers:
            w = result.witness(answer)
            assert w is not None and w.verify()
            covered = set()
            for node in w.subtree:
                covered |= p.node_variables(node)
            assert w.homomorphism.domain() == covered
