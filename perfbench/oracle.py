"""Expected answers, computed from the generated inputs with plain dict
joins.  No ``repro`` function takes part: a row is a frozenset of
``("?var", value)`` pairs, with unmatched optionals simply absent."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

Row = FrozenSet[Tuple[str, str]]


def row(**bindings: str) -> Row:
    return frozenset(("?" + k, v) for k, v in bindings.items() if v is not None)


def rows_of_mappings(mappings: Iterable) -> Set[Row]:
    """Answer mappings returned by ``Session.query`` as oracle rows."""
    return {
        frozenset(("?" + var.name, const.value) for var, const in m.items())
        for m in mappings
    }


def rows_of_json(answers: Iterable[Dict[str, str]]) -> Set[Row]:
    """Answer objects of a service response as oracle rows."""
    return {frozenset(a.items()) for a in answers}


def chain_answers(triples: Iterable[Tuple[str, str, str]]) -> Set[Row]:
    """``{?a | e1(a, b), e2(b, c), e3(c, d)}``."""
    e1: List[Tuple[str, str]] = []
    e2: Dict[str, Set[str]] = defaultdict(set)
    e3_keys: Set[str] = set()
    for s, p, o in triples:
        if p == "e1":
            e1.append((s, o))
        elif p == "e2":
            e2[s].add(o)
        elif p == "e3":
            e3_keys.add(s)
    good_b = {b for b, cs in e2.items() if cs & e3_keys}
    return {row(a=a) for a, b in e1 if b in good_b}


class Directory:
    """The company directory, kept current as hires and leaves apply."""

    def __init__(self, triples: Iterable[Tuple[str, str, str]]):
        self.staff: Dict[str, Set[str]] = defaultdict(set)
        self.phone: Dict[str, str] = {}
        self.manager: Dict[str, str] = {}
        self.office: Dict[str, str] = {}
        self.apply(triples, add=True)

    def apply(self, triples: Iterable[Tuple[str, str, str]], add: bool) -> None:
        for s, p, o in triples:
            if p == "works_in":
                (self.staff[o].add if add else self.staff[o].discard)(s)
            elif p in ("phone", "reports_to", "office"):
                table = {"phone": self.phone, "reports_to": self.manager,
                         "office": self.office}[p]
                if add:
                    table[s] = o
                else:
                    del table[s]

    def answers(self, dept: int) -> Set[Row]:
        out = set()
        for e in self.staff["dept_%d" % dept]:
            m = self.manager.get(e)
            out.add(row(e=e, p=self.phone.get(e), m=m,
                        o=self.office.get(m) if m is not None else None))
        return out


class Catalog:
    """Per-band answer rows of the band query."""

    def __init__(self, triples: Iterable[Tuple[str, str, str]]):
        records: Dict[str, List[str]] = defaultdict(list)
        rating: Dict[str, str] = {}
        formed: Dict[str, str] = {}
        for s, p, o in triples:
            if p == "recorded_by":
                records[o].append(s)
            elif p == "NME_rating":
                rating[s] = o
            elif p == "formed_in":
                formed[s] = o
        self._records, self._rating, self._formed = records, rating, formed

    def answers(self, band: int) -> List[Dict[str, str]]:
        """Answer rows of ``band``'s query as ``{"?var": value}`` dicts,
        in a fixed order."""
        name = "band_%d" % band
        out = []
        for r in sorted(self._records[name]):
            a = {"?r": r}
            if r in self._rating:
                a["?v"] = self._rating[r]
            if name in self._formed:
                a["?y"] = self._formed[name]
            out.append(a)
        return out

    def rows(self, band: int) -> Set[Row]:
        return rows_of_json(self.answers(band))

    def ask(self, band: int, candidate: Dict[str, str]) -> bool:
        return candidate in self.answers(band)
