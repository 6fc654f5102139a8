"""Seeded input generators for the three workloads.

Everything the program under test sees is made here from ``--seed``:
the triples, the operation streams and the open-loop arrival times.
Triples are ``(subject, predicate, object)`` string tuples, the shape
``repro serve`` reads from a triples file.  The generators mirror the
distributions of the repository's own dataset generators but are
written out here, so a change to ``src/`` cannot change the inputs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Tuple

Triple = Tuple[str, str, str]

# ---------------------------------------------------------------------------
# chain: a selective three-relation chain
# ---------------------------------------------------------------------------
CHAIN_TUPLES = 14_700
CHAIN_WIDE, CHAIN_NARROW = 1000, 50
CHAIN_QUERY = "SELECT ?a WHERE { ?a e1 ?b . ?b e2 ?c . ?c e3 ?d }"


def chain_triples(seed: int) -> List[Triple]:
    """``e1(a, b)``, ``e2(b, c)``, ``e3(c, d)`` edges whose ``e2``/``e3``
    key columns draw from a 20x narrower window than the values they
    join against, so the answer is tiny while the full homomorphisms
    number ~10^5.

    Each join-key column holds every value of its window equally often,
    in seeded random order, so the work per query barely moves between
    seeds; ``a`` and ``d`` are drawn uniformly."""
    rng = random.Random(seed)
    per = CHAIN_TUPLES // 3

    def balanced(window: int) -> List[int]:
        keys = [i % window for i in range(per)]
        rng.shuffle(keys)
        return keys

    e1_b, e2_b, e2_c, e3_c = (balanced(CHAIN_WIDE), balanced(CHAIN_NARROW),
                              balanced(CHAIN_WIDE), balanced(CHAIN_NARROW))
    out: List[Triple] = []
    for i in range(per):
        out.append(("n%d" % rng.randrange(per), "e1", "n%d" % e1_b[i]))
        out.append(("n%d" % e2_b[i], "e2", "n%d" % e2_c[i]))
        out.append(("n%d" % e3_c[i], "e3", "n%d" % rng.randrange(per)))
    return out


# ---------------------------------------------------------------------------
# directory: company directory with optional attributes, reads + writes
# ---------------------------------------------------------------------------
DEPARTMENTS, EMPLOYEES_PER_DEPARTMENT = 64, 62
PHONE_FRACTION, OFFICE_FRACTION, MANAGER_FRACTION = 0.6, 0.5, 0.8
DIRECTORY_QUERY = (
    "SELECT ?e ?p ?m ?o WHERE { ?e works_in dept_%d "
    "OPTIONAL { ?e phone ?p } "
    "OPTIONAL { ?e reports_to ?m OPTIONAL { ?m office ?o } } }"
)
WRITE_FRACTION = 0.1
#: Hires outstanding before a write must be a leave (keeps |D| steady).
MAX_OUTSTANDING_HIRES = 4


def directory_triples(seed: int) -> Tuple[List[Triple], Dict[str, str]]:
    """The company directory as triples, plus each department's head."""
    rng = random.Random(seed)
    out: List[Triple] = []
    heads: Dict[str, str] = {}
    for d in range(DEPARTMENTS):
        dept = "dept_%d" % d
        staff = []
        for e in range(EMPLOYEES_PER_DEPARTMENT):
            emp = "emp_%d_%d" % (d, e)
            staff.append(emp)
            out.append((emp, "works_in", dept))
            if rng.random() < PHONE_FRACTION:
                out.append((emp, "phone", "x%04d" % rng.randrange(10000)))
            if rng.random() < OFFICE_FRACTION:
                out.append((emp, "office", "room_%d" % rng.randrange(100)))
        head = rng.choice(staff)
        heads[dept] = head
        out.append((dept, "dept_head", head))
        for emp in staff:
            if emp != head and rng.random() < MANAGER_FRACTION:
                out.append((emp, "reports_to", head))
    return out, heads


def directory_ops(seed: int, heads: Dict[str, str],
                  stream: int = 0) -> Iterator[Tuple[str, object]]:
    """Endless ``("read", k)`` / ``("hire", triples)`` / ``("leave",
    triples)`` stream: ~10% writes, each leave removing an earlier hire,
    so the data size stays within a few facts of the initial load.
    Each ``stream`` number gives another stream from the same seed."""
    rng = random.Random(seed * 7919 + 1 + 104729 * stream)
    outstanding: List[List[Triple]] = []
    hired = 0
    while True:
        if rng.random() >= WRITE_FRACTION:
            yield "read", rng.randrange(DEPARTMENTS)
            continue
        leave = outstanding and (
            len(outstanding) >= MAX_OUTSTANDING_HIRES or rng.random() < 0.5
        )
        if leave:
            yield "leave", outstanding.pop(0)
            continue
        dept = "dept_%d" % rng.randrange(DEPARTMENTS)
        emp = "hire_%d" % hired
        hired += 1
        triples = [(emp, "works_in", dept)]
        if rng.random() < PHONE_FRACTION:
            triples.append((emp, "phone", "x%04d" % rng.randrange(10000)))
        if rng.random() < OFFICE_FRACTION:
            triples.append((emp, "office", "room_%d" % rng.randrange(100)))
        if rng.random() < MANAGER_FRACTION:
            triples.append((emp, "reports_to", heads[dept]))
        outstanding.append(triples)
        yield "hire", triples


# ---------------------------------------------------------------------------
# service: a music catalog behind the HTTP daemon
# ---------------------------------------------------------------------------
BANDS, RECORDS_PER_BAND = 2000, 4
POPULAR_BANDS = 4
BAND_QUERY = (
    "SELECT ?r ?v ?y WHERE { ?r recorded_by band_%d "
    "OPTIONAL { ?r NME_rating ?v } OPTIONAL { band_%d formed_in ?y } }"
)


def catalog_triples(seed: int) -> List[Triple]:
    """Bands with records; ratings and founding years for about half."""
    rng = random.Random(seed)
    out: List[Triple] = []
    for b in range(BANDS):
        band = "band_%d" % b
        if rng.random() < 0.5:
            out.append((band, "formed_in", str(1960 + rng.randrange(60))))
        for r in range(RECORDS_PER_BAND):
            record = "record_%d_%d" % (b, r)
            out.append((record, "recorded_by", band))
            era = "after_2010" if rng.random() < 0.6 else "before_2010"
            out.append((record, "published", era))
            if rng.random() < 0.5:
                out.append((record, "NME_rating", str(1 + rng.randrange(10))))
    return out


def band_query(band: int) -> str:
    return BAND_QUERY % (band, band)


def service_requests(
    seed: int, answers_of: Callable[[int], List[Dict[str, str]]]
) -> Iterator[Tuple[str, int, Dict[str, str]]]:
    """Endless ``(op, band, candidate)`` stream: ~50% distinct band
    queries, ~30% queries on a few popular bands (cache hits), ~20%
    ``/ask`` of a candidate row.  Half the candidates are answer rows
    (``answers_of(band)``); the other half drop a bound rating (not
    maximal) or bind a rating that does not exist, so both are false."""
    rng = random.Random(seed * 7919 + 2)
    popular = rng.sample(range(BANDS), POPULAR_BANDS)
    while True:
        roll = rng.random()
        if roll < 0.5:
            yield "query", rng.randrange(BANDS), {}
        elif roll < 0.8:
            yield "query", rng.choice(popular), {}
        else:
            band = rng.randrange(BANDS)
            candidate = dict(rng.choice(answers_of(band)))
            if rng.random() < 0.5:
                if "?v" in candidate:
                    del candidate["?v"]
                else:
                    candidate["?v"] = "0"
            yield "ask", band, candidate


def arrival_gaps(seed: int, rate: float, stream: int = 0) -> Iterator[float]:
    """Poisson inter-arrival gaps (seconds) at ``rate`` requests/s; each
    ``stream`` number gives another sequence from the same seed."""
    rng = random.Random(seed * 7919 + 3 + 104729 * stream)
    while True:
        yield rng.expovariate(rate)
