"""Duality and sphere certificates for closed walks.

X -> Hom_A(X, A)[1] maps the two-term silting complexes of A one-to-one
onto those of the opposite algebra (Adachi-Iyama-Reiten, tau-tilting
theory, Compos. Math. 2014, Thm 2.14).  It negates every g-vector and
reverses every Hasse arrow, so the walk of A.opposite() is the walk of A
read backwards.  strata_counts compares only the two walks' tallies by
stratum; this checks the whole graphs, over QQ and a large prime field.

The g-vector cones of the two-term silting complexes of a tau-tilting
finite algebra form a complete simplicial fan (Demonet-Iyama-Jasso), so
the faces of the nodes' summand sets triangulate the (n - 1)-sphere and
their Euler characteristic is 1 + (-1)^(n - 1).

Every tau-tilting finite catalog entry is covered but ladder-4, whose two
walks (13022 nodes each) take about 4 s per field, longer than the other
33 entries together.
"""
from __future__ import annotations

from itertools import combinations

import pytest

from tautilt import catalog
from tautilt.engine import enumerate_graph
from tautilt.fields import QQ, PrimeField

FINITE = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
          "A11", "A12", "A13", "A14", "A15", "A16", "L1", "L2", "L3", "L4",
          "L5", "L6", "L7", "L8", "L9", "L10", "exrs0-1", "exrs0-2",
          "nakayama-2", "preproj-A3", "preproj-A4", "preproj-D4",
          "ladder-3"]


def _negated(key):
    return tuple(sorted(tuple(-x for x in g) for g in key))


@pytest.mark.parametrize("F", [QQ, PrimeField(2147483647)], ids=repr)
@pytest.mark.parametrize("key", FINITE)
def test_opposite_walk_is_the_dual_graph(key, F):
    A = catalog.build(key, field=F)
    g, op = enumerate_graph(A), enumerate_graph(A.opposite())
    assert g.complete and op.complete
    assert set(op.nodes) == {_negated(k) for k in g.nodes}
    assert {(s, t) for s, _, t in op.edges} == \
        {(_negated(t), _negated(s)) for s, _, t in g.edges}
    assert len(op.edges) == len(g.edges)


def _f_vector(g):
    """f_k, k = 1..n: the distinct k-element subsets of the nodes' keys."""
    n = g.A.n
    faces = {face for key in g.nodes for k in range(1, n + 1)
             for face in combinations(key, k)}
    f = [0] * n
    for face in faces:
        f[len(face) - 1] += 1
    return tuple(f)


_F_VECTORS = {"A3": (48, 240, 384, 192),
              "L10": (48, 390, 1100, 1260, 504)}


@pytest.mark.parametrize("key", FINITE)
def test_summand_faces_form_a_sphere(key):
    A = catalog.build(key)
    g = enumerate_graph(A)
    assert g.complete
    f = _f_vector(g)
    assert f[-1] == len(g.nodes)
    assert sum((-1) ** k * fk for k, fk in enumerate(f)) == \
        1 + (-1) ** (A.n - 1)
    if key in _F_VECTORS:
        assert f == _F_VECTORS[key]
