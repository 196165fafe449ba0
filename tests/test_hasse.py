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

The nodes sharing a set of n - 2 summands, a face of the walk, are the
completions of that set: for a tau-tilting finite algebra they form a
polygon, one cycle of at least four nodes, whose arrows run from one
source to one sink along its two sides: the rank-two intervals of the
lattice (Adachi-Iyama-Reiten; Demonet-Iyama-Reading-Reiten-Thomas,
Lattice theory of torsion classes, 2017).  Forcing along the polygons
splits the arrows into classes, one per brick label.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from tautilt import catalog
from tautilt.engine import enumerate_graph
from tautilt.fields import QQ, PrimeField

_BIG_PRIME = PrimeField(2147483647)
# f_0 - n on the closed walk of each tau-tilting finite catalog entry
# (test_duality.FINITE), the same over QQ and GF(2^31 - 1)
_IRREDUCIBLES = {"A1": 11, "A2": 4, "A3": 44, "A4": 30, "A5": 6, "A6": 6,
                 "A7": 24, "A8": 22, "A9": 24, "A10": 26, "A11": 22,
                 "A12": 15, "A13": 13, "A14": 15, "A15": 14, "A16": 14,
                 "L1": 6, "L2": 6, "L3": 4, "L4": 15, "L5": 13, "L6": 15,
                 "L7": 14, "L8": 14, "L9": 44, "L10": 43, "exrs0-1": 21,
                 "exrs0-2": 8, "nakayama-2": 4, "preproj-A3": 11,
                 "preproj-A4": 26, "preproj-D4": 44, "ladder-3": 29}
# faces of n - 2 summands, measured on the closed walks
_POLYGONS = {"A3": 240, "L10": 1100, "nakayama-2": 1, "preproj-A3": 14,
             "ladder-3": 2176}
CASES = [(key, F) for key in ("A3", "L10", "nakayama-2", "preproj-A3")
         for F in (QQ, _BIG_PRIME)] + [("ladder-3", QQ)]
IDS = [f"{key}-{F!r}" for key, F in CASES]
# the lattice certificate is cheap enough for the whole finite catalog
CATALOG = [(key, F) for key in _IRREDUCIBLES for F in (QQ, _BIG_PRIME)]


@pytest.fixture(scope="module")
def walk():
    """The algebra of a case and its closed walk, made once per module."""
    made = {}

    def get(key, F):
        if (key, F) not in made:
            A = catalog.build(key, field=F)
            made[key, F] = A, enumerate_graph(A)
        return made[key, F]
    return get


@pytest.mark.parametrize("key, F", CATALOG,
                         ids=[f"{key}-{F!r}" for key, F in CATALOG])
def test_hasse_has_one_top_one_bottom_and_f0_minus_n_irreducibles(key, F,
                                                                  walk):
    A, g = walk(key, F)
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


def _faces(A, g):
    """Each set of n - 2 summands held by some node, mapped to the nodes
    holding it and the Hasse arrows (source, target) between them."""
    faces: dict = {}
    for k in g.nodes:
        for face in combinations(k, A.n - 2):
            faces.setdefault(face, set()).add(k)
    arrows: dict = {face: [] for face in faces}
    for s, _, t in g.edges:
        for face in combinations(sorted(set(s) & set(t)), A.n - 2):
            arrows[face].append((s, t))
    return {face: (nodes, arrows[face]) for face, nodes in faces.items()}


@pytest.mark.parametrize("key, F", CASES, ids=IDS)
def test_faces_of_n_minus_2_summands_are_polygons(key, F, walk):
    A, g = walk(key, F)
    assert g.complete
    faces = _faces(A, g)
    assert len(faces) == _POLYGONS[key]
    for face, (nodes, edges) in faces.items():
        degree = Counter(v for e in edges for v in e)
        assert len(nodes) >= 4 and len(edges) == len(nodes), face
        assert all(degree[v] == 2 for v in nodes), face
        # connected: a walk along the edges from one node meets them all
        seen, todo = set(), [next(iter(nodes))]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo += [t if s == v else s for s, t in edges if v in (s, t)]
        assert seen == nodes, face
        assert sum(not any(t == v for _, t in edges) for v in nodes) == 1
        assert sum(not any(s == v for s, _ in edges) for v in nodes) == 1


def _forcing_classes(A, g):
    """Each Hasse arrow (source, target) mapped to a representative of its
    forcing class: in each polygon the arrow leaving the top along one
    side carries the label of the arrow entering the bottom along the
    other side (Demonet-Iyama-Reading-Reiten-Thomas; Asai, Semibricks,
    IMRN 2020)."""
    parent = {(s, t): (s, t) for s, _, t in g.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for nodes, edges in _faces(A, g).values():
        top, = (v for v in nodes if not any(t == v for _, t in edges))
        bottom, = (v for v in nodes if not any(s == v for s, _ in edges))
        after = {s: t for s, t in edges if s != top}
        sides = []      # (first arrow, last arrow) of each side
        for first in (t for s, t in edges if s == top):
            prev, v = top, first
            while v != bottom:
                prev, v = v, after[v]
            sides.append(((top, first), (prev, bottom)))
        (a_first, a_last), (b_first, b_last) = sides
        parent[find(a_first)] = find(b_last)
        parent[find(b_first)] = find(a_last)
    return {e: find(e) for e in parent}


@pytest.mark.parametrize("key, F", CASES, ids=IDS)
def test_forcing_classes_of_the_arrows_are_f0_minus_n(key, F, walk):
    """The classes of arrows under forcing are the bricks, f_0 - n of
    them."""
    A, g = walk(key, F)
    assert g.complete
    f0 = len({v for k in g.nodes for v in k})
    classes = len(set(_forcing_classes(A, g).values()))
    assert classes == f0 - A.n == _IRREDUCIBLES[key]


def _c_vector(source, target):
    """The c-vector of a Hasse arrow: the column of the exact inverse of
    the source's g-matrix (rows its g-vectors) at the summand the arrow
    mutates, the one vector c with <g, c> = 1 at that summand and 0 at
    every other summand of the source."""
    n = len(source)
    k, = (i for i, v in enumerate(source) if v not in target)
    rows = [[Fraction(x) for x in v] + [Fraction(int(i == j))
                                        for j in range(n)]
            for i, v in enumerate(source)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n + k] for i in range(n))


@pytest.mark.parametrize("key, F", CASES, ids=IDS)
def test_each_forcing_class_has_one_c_vector(key, F, walk):
    """The arrows of one forcing class carry one brick label, and the
    c-vector of an arrow is the dimension vector of its label (Asai;
    Treffinger, On sign-coherence of c-vectors, 2019): one c-vector per
    class, integral, nonzero and sign-coherent."""
    A, g = walk(key, F)
    assert g.complete
    by_class: dict = {}
    for (s, t), cls in _forcing_classes(A, g).items():
        by_class.setdefault(cls, set()).add(_c_vector(s, t))
    assert len(by_class) == _IRREDUCIBLES[key]
    for cls, cvecs in by_class.items():
        assert len(cvecs) == 1, (cls, cvecs)
        c, = cvecs
        assert all(x.denominator == 1 for x in c), c
        assert any(c) and (all(x >= 0 for x in c) or all(x <= 0 for x in c))


@pytest.mark.parametrize("key, F", CASES, ids=IDS)
def test_labels_at_a_node_are_its_canonical_join_and_meet(key, F, walk):
    """A torsion class is the join of the labels of its outgoing arrows
    and the meet of the labels of its incoming ones, its canonical join
    and meet representations (Asai; Barnard-Carroll-Zhu): no two nodes
    have the same set of outgoing forcing classes, nor the same set of
    incoming ones."""
    A, g = walk(key, F)
    assert g.complete
    label = _forcing_classes(A, g)
    out = {k: set() for k in g.nodes}
    into = {k: set() for k in g.nodes}
    for (s, t), cls in label.items():
        out[s].add(cls)
        into[t].add(cls)
    for side in (out, into):
        sets = Counter(frozenset(v) for v in side.values())
        assert sets.most_common(1)[0][1] == 1
