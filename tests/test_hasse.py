"""Certificates the Hasse arrows of a closed walk carry.

For a tau-tilting finite algebra the walk's left-oriented edges form the
Hasse diagram of its lattice of torsion classes (Adachi-Iyama-Reiten,
tau-tilting theory, Compos. Math. 2014), and the walk orients every edge
by the sign of a c-vector.  The lattice has one top, A (the stalk node of
the projectives), and one bottom, 0 (the shifted projectives).  Its
join-irreducibles (exactly one outgoing arrow) and its meet-irreducibles
(exactly one incoming arrow) are each in bijection with the bricks, and
so with the indecomposable tau-rigid modules (Demonet-Iyama-Jasso, IMRN
2019; Barnard-Carroll-Zhu, 2019): f_0 - n of them, f_0 the number of
distinct g-vectors in the nodes' keys.
"""
from __future__ import annotations

from collections import Counter

import pytest

from tautilt import catalog
from tautilt.engine import enumerate_graph
from tautilt.fields import QQ, PrimeField

_BIG_PRIME = PrimeField(2147483647)
_IRREDUCIBLES = {"A3": 44, "L10": 43, "nakayama-2": 4, "preproj-A3": 11,
                 "ladder-3": 29}
CASES = [(key, F) for key in ("A3", "L10", "nakayama-2", "preproj-A3")
         for F in (QQ, _BIG_PRIME)] + [("ladder-3", QQ)]


@pytest.mark.parametrize("key, F", CASES, ids=[f"{key}-{F!r}"
                                               for key, F in CASES])
def test_hasse_has_one_top_one_bottom_and_f0_minus_n_irreducibles(key, F):
    A = catalog.build(key, field=F)
    g = enumerate_graph(A)
    assert g.complete
    out = Counter(s for s, _, _ in g.edges)
    into = Counter(t for _, _, t in g.edges)
    units = [tuple(int(i == j) for j in range(A.n)) for i in range(A.n)]
    top = tuple(sorted(units))
    bottom = tuple(sorted(tuple(-x for x in e) for e in units))
    assert [k for k in g.nodes if not into[k]] == [top]
    assert [k for k in g.nodes if not out[k]] == [bottom]
    f0 = len({v for k in g.nodes for v in k})
    joins = sum(out[k] == 1 for k in g.nodes)
    meets = sum(into[k] == 1 for k in g.nodes)
    assert joins == meets == f0 - A.n == _IRREDUCIBLES[key]
