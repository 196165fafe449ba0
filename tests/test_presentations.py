"""Relation parsing, presentation validation, and catalog well-formedness."""
from __future__ import annotations

from fractions import Fraction

import pytest

from tautilt import catalog
from tautilt.quiver import (Presentation, Quiver, QuiverError, parse_relation)


@pytest.fixture
def q2():
    return Quiver([1, 2], [("a", 1, 2), ("b", 2, 1), ("c", 1, 1)])


def test_parse_simple_word(q2):
    terms = parse_relation("a*b", q2)
    assert terms == [((Fraction(1), 0), (0, 1))]


def test_parse_signs_and_scalars(q2):
    terms = parse_relation("c^2 - 3/2*a*b + lambda*c*c", q2)
    assert ((Fraction(1), 0), (2, 2)) in terms
    assert ((Fraction(-3, 2), 0), (0, 1)) in terms
    assert ((Fraction(1), 1), (2, 2)) in terms


def test_parse_equation_form(q2):
    lhs = parse_relation("c^2 = a*b", q2)
    assert ((Fraction(1), 0), (2, 2)) in lhs
    assert ((Fraction(-1), 0), (0, 1)) in lhs
    assert parse_relation("a*b = 0", q2) == [((Fraction(1), 0), (0, 1))]


def test_parse_rejects_unknown_arrow(q2):
    with pytest.raises(QuiverError):
        parse_relation("a*z", q2)


def test_parse_rejects_garbage(q2):
    with pytest.raises(QuiverError):
        parse_relation("a**b", q2)
    with pytest.raises(QuiverError):
        parse_relation("a*b)", q2)
    with pytest.raises(QuiverError):
        parse_relation("a*b = c*a = 0", q2)


def test_validation_rejects_short_words(q2):
    with pytest.raises(QuiverError):
        Presentation.from_strings(q2, ["a"])


def test_validation_rejects_nonparallel(q2):
    # a*b is 1 -> 1 but a*b*a is 1 -> 2
    with pytest.raises(QuiverError):
        Presentation.from_strings(q2, ["a*b - a*b*a"])


def test_validation_rejects_noncomposable(q2):
    with pytest.raises(QuiverError):
        Presentation.from_strings(q2, ["a*a"])


def test_quiver_rejects_bad_input():
    with pytest.raises(QuiverError):
        Quiver([1, 1], [])
    with pytest.raises(QuiverError):
        Quiver([1], [("a", 1, 2)])
    with pytest.raises(QuiverError):
        Quiver([1], [("a", 1, 1), ("a", 1, 1)])


def test_opposite_reverses_words(q2):
    pres = Presentation.from_strings(q2, ["a*b - c^2"])
    opp = pres.opposite()
    assert opp.quiver.arrows[0].src == 2 and opp.quiver.arrows[0].tgt == 1
    # word (a, b) becomes (b, a)
    assert opp.relations[0][0][1] == (1, 0)
    opp.validate()


def test_catalog_all_fixed_keys_validate():
    for key in catalog._FIXED:
        pres = catalog.presentation(key)
        pres.validate()


def test_catalog_lambda_flags():
    assert catalog.uses_lambda("A1")
    assert catalog.uses_lambda("A2")
    assert catalog.uses_lambda("L3")
    assert not catalog.uses_lambda("A3")
    assert not catalog.uses_lambda("L2")


def test_catalog_unknown_key():
    with pytest.raises(catalog.CatalogError):
        catalog.presentation("A17")
    with pytest.raises(catalog.CatalogError):
        catalog.presentation("preproj-D3")


def test_parametric_shapes():
    p = catalog.presentation("preproj-A3")
    assert p.quiver.n == 3 and len(p.quiver.arrows) == 4
    assert len(p.relations) == 3
    d = catalog.presentation("preproj-D5")
    assert d.quiver.n == 5 and len(d.quiver.arrows) == 8
    lad = catalog.presentation("ladder-3")
    assert lad.quiver.n == 6 and len(lad.quiver.arrows) == 7
    assert len(lad.relations) == 2
    one = catalog.presentation("ladder-1")
    assert one.quiver.n == 2 and len(one.quiver.arrows) == 1
    assert not one.relations


def test_opposite_pairs_in_catalog():
    """A16 is the opposite presentation of A15, and L8 of L7 (same arrow
    names, reversed arrows, reversed words)."""
    for a, b in (("A15", "A16"), ("L7", "L8")):
        left = catalog.presentation(a).opposite()
        right = catalog.presentation(b)
        assert {(ar.name, ar.src, ar.tgt) for ar in left.quiver.arrows} == \
            {(ar.name, ar.src, ar.tgt) for ar in right.quiver.arrows}
        lw = {frozenset((c, tuple(left.quiver.arrows[i].name for i in w))
                        for c, w in rel) for rel in left.relations}
        rw = {frozenset((c, tuple(right.quiver.arrows[i].name for i in w))
                        for c, w in rel) for rel in right.relations}
        assert lw == rw


def test_separated_and_double():
    q = catalog.presentation("exrs0-1").quiver
    sep = q.separated()
    assert sep.n == 8
    assert len(sep.arrows) == 5
    dq = q.doubled()
    assert len(dq.arrows) == 10


@pytest.mark.parametrize("vertices", [[0, 1], [-2, 0, 3], [1, 2]])
def test_separated_labels_distinct(vertices):
    """The shifted copy never meets the plain one, also with labels 0 or
    below; a cycle through every vertex keeps each arrow's name and
    source and shifts its target."""
    cycle = list(zip(vertices, vertices[1:] + vertices[:1]))
    q = Quiver(vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(cycle)])
    sep = q.separated()
    assert sep.n == len(set(sep.vertices)) == 2 * len(vertices)
    assert sep.vertices[:len(vertices)] == vertices
    off = sep.vertices[len(vertices)] - vertices[0]
    assert sep.vertices[len(vertices):] == [v + off for v in vertices]
    assert [(a.name, a.src, a.tgt - off) for a in sep.arrows] == \
        [(a.name, a.src, a.tgt) for a in q.arrows]
    if vertices == [1, 2]:
        assert sep.vertices == [1, 2, 3, 4]
