"""Outside-in tracing for the traced run.

:func:`install` wraps each layer's public entry points where the calling
module binds them (a module-level name such as
``repro.wdpt.evaluation.evaluate_with_join_tree``, or a method on a
class such as ``SQLiteBackend.sql_yannakakis``); nothing in ``src/``
changes.  Each call becomes a span ``[name, start, end, parent, rows,
covered]`` appended to an in-memory list: ``parent`` is the enclosing
span on the same thread and ``covered`` is the time the span's children
took, so self time is ``end - start - covered``.  Spans are aggregated
once, after the measured operations (:func:`aggregate`).

A storage ``match`` returns a generator, which would finish before any
matching happened; the wrapper drains it inside the span (and hands the
caller an iterator over the drained facts), so ``storage.match_s`` is
the matching time.
"""

from __future__ import annotations

import threading
import types
from time import perf_counter
from typing import Any, Dict, List

Span = List[Any]


class Recorder:
    """Install wrappers, record spans, restore the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        own = isinstance(owner, type) and attr in vars(owner)
        self._undo.append((owner, attr, original, own or not isinstance(owner, type)))
        spans, local = self.spans, self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, perf_counter(), 0.0, parent, 0, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                out = original(*args, **kwargs)
                if isinstance(out, types.GeneratorType):
                    drained = list(out)
                    span[4] = len(drained)
                    out = iter(drained)
                elif not isinstance(out, bool) and hasattr(out, "__len__"):
                    span[4] = len(out)
            finally:
                stack.pop()
                span[2] = perf_counter()
                if parent is not None:
                    parent[5] += span[2] - span[1]
            return out

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install() -> Recorder:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.cqalgs.homomorphism as homomorphism
    import repro.cqalgs.yannakakis as yannakakis
    import repro.engine as engine
    import repro.planner.planner as planner
    import repro.wdpt.evaluation as evaluation
    from repro.rdf.graph import RDFGraph
    from repro.storage.memory import MemoryBackend
    from repro.storage.sqlite import SQLiteBackend

    rec = Recorder()
    rec.wrap(engine.Session, "query", "session.query")
    rec.wrap(engine.Session, "ask", "session.ask")
    rec.wrap(planner.Planner, "cached_parse", "planner.parse")
    rec.wrap(planner.Planner, "profile_wdpt", "planner.profile")
    rec.wrap(planner.Planner, "satisfiable_substituted", "planner.satisfiable")
    rec.wrap(planner.Planner, "estimate_for_profile", "planner.estimate")
    rec.wrap(engine, "evaluate", "wdpt.evaluate")
    rec.wrap(engine, "eval_tractable", "wdpt.eval_tractable")
    # Every module that binds a Yannakakis entry point: the WDPT
    # per-node extension, the planner's CQ and Boolean paths, and full-CQ
    # homomorphism enumeration.
    rec.wrap(evaluation, "evaluate_with_join_tree", "yannakakis.extension")
    rec.wrap(planner, "evaluate_with_join_tree", "yannakakis.cq")
    rec.wrap(planner, "satisfiable_with_join_tree", "yannakakis.boolean")
    rec.wrap(homomorphism, "evaluate_with_join_tree", "yannakakis.enumerate")
    for kernel in ("scan", "semijoin", "hash_join", "project", "to_mappings"):
        rec.wrap(yannakakis, kernel, "relalg." + kernel)
    # Loading: the graph-to-facts conversion and the backend build.
    rec.wrap(RDFGraph, "to_database", "storage.load")
    rec.wrap(engine, "to_backend", "storage.load")
    for backend in (MemoryBackend, SQLiteBackend):
        rec.wrap(backend, "match", "storage.match")
        for write in ("add", "add_many", "update", "discard"):
            rec.wrap(backend, write, "storage.write")
    rec.wrap(SQLiteBackend, "sql_yannakakis", "storage.sql")
    return rec


def _nested(span: Span) -> bool:
    """A write inside another write or inside the bulk load: its time
    already counts toward the enclosing span."""
    parent = span[3]
    return parent is not None and span[0] == "storage.write" and parent[0] in (
        "storage.write", "storage.load")


def aggregate(spans: List[Span]) -> Dict[str, float]:
    """Raw totals per span name: ``<name>.calls``, ``<name>.s``
    (inclusive), ``<name>.self_s``, ``<name>.rows`` and
    ``<name>.rows_max``."""
    out: Dict[str, float] = {}
    for span in spans:
        if _nested(span):
            continue
        name, start, end, _, rows, covered = span
        dur = end - start
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - covered
        out[name + ".rows"] = out.get(name + ".rows", 0) + rows
        out[name + ".rows_max"] = max(out.get(name + ".rows_max", 0), rows)
    return out


def _sum(raw: Dict[str, float], prefix: str, field: str) -> float:
    return sum(v for k, v in raw.items()
               if k.startswith(prefix) and k.endswith("." + field))


def _cache_ratios(stats: List[Dict[str, Any]]) -> Dict[str, float]:
    """Hit ratios from ``Session.stats()`` payloads (summed over the
    sessions that served the operations)."""

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    cache = [s["result_cache"] for s in stats if s.get("result_cache")]
    return {
        "cache.hit_ratio": ratio(sum(c["hits"] for c in cache),
                                 sum(c["misses"] for c in cache)),
        "planner.parse_hit_ratio": ratio(
            sum(s["parse_cache"]["hits"] for s in stats),
            sum(s["parse_cache"]["misses"] for s in stats)),
        "planner.plan_hit_ratio": ratio(
            sum(s["plan_cache"]["hits"] for s in stats),
            sum(s["plan_cache"]["misses"] for s in stats)),
    }


def layer_metrics(
    raw: Dict[str, float],
    ops: int,
    writes: int,
    stats: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Per-op layer metrics from :func:`aggregate` totals over ``ops``
    operations, ``writes`` of them writes.  ``stats`` are the
    ``Session.stats()`` payloads of the sessions that served them."""
    ops = max(ops, 1)
    get = lambda key: raw.get(key, 0.0)  # noqa: E731
    rows_out = _sum(raw, "yannakakis.", "rows")
    queries = get("session.query.calls")
    out = {
        "session.calls": (queries + get("session.ask.calls")) / ops,
        "session.s": (get("session.query.s") + get("session.ask.s")) / ops,
        "planner.parse_s": get("planner.parse.s") / ops,
        "planner.profile_s": get("planner.profile.s") / ops,
        "planner.satisfiable_calls": get("planner.satisfiable.calls") / ops,
        "planner.satisfiable_s": get("planner.satisfiable.s") / ops,
        "planner.estimate_s": get("planner.estimate.s") / ops,
        "wdpt.evaluate_self_s": get("wdpt.evaluate.self_s") / ops,
        "wdpt.extensions": get("yannakakis.extension.calls") / max(queries, 1),
        "wdpt.eval_tractable_s": get("wdpt.eval_tractable.s") / ops,
        "yannakakis.calls": _sum(raw, "yannakakis.", "calls") / ops,
        "yannakakis.self_s": _sum(raw, "yannakakis.", "self_s") / ops,
        "yannakakis.rows_out": rows_out / ops,
        # Answers the WDPT evaluator produced per row Yannakakis returned.
        "yannakakis.answer_ratio": (
            get("wdpt.evaluate.rows") / rows_out if rows_out else 0.0),
        "relalg.join_rows_max": get("relalg.hash_join.rows_max"),
        "storage.match_calls": get("storage.match.calls") / ops,
        "storage.match_s": get("storage.match.s") / ops,
        "storage.sql_calls": get("storage.sql.calls") / ops,
        "storage.sql_s": get("storage.sql.s") / ops,
        "storage.write_s": get("storage.write.s") / max(writes, 1),
        "storage.load_s": get("storage.load.s"),
    }
    for kernel in ("scan", "semijoin", "hash_join", "project", "to_mappings"):
        out["relalg.%s_s" % kernel] = get("relalg.%s.s" % kernel) / ops
    out.update(_cache_ratios(stats))
    return out
