"""Built-in algebra presentations.

Keys A1..A16 and L1..L10 are fixed two-to-five vertex algebras, some with a
scalar parameter lambda (default 2, values 0 and 1 rejected at build time).
Parametric families: preproj-A<n>, preproj-D<n> (preprojective algebras of
tree diagrams), ladder-<n> (commuting-square ladders), plus three small
fixed examples exrs0-1, exrs0-2, nakayama-2.
"""
from __future__ import annotations

import re

from .algebra import FiniteDimAlgebra, build_algebra
from .fields import QQ, Field
from .quiver import Presentation, Quiver


class CatalogError(KeyError):
    """An unknown or out-of-range catalog key.  It stays a KeyError, but
    prints its message as it is, not quoted as a KeyError does."""

    def __str__(self):
        return str(self.args[0]) if self.args else ""


_FIXED: dict[str, tuple[list[int], list[tuple[str, int, int]], list[str]]] = {
    "A1": ([1, 2, 3],
           [("alpha", 1, 2), ("gamma", 2, 1), ("sigma", 2, 3),
            ("beta", 3, 2)],
           ["alpha*gamma*alpha - alpha*sigma*beta",
            "beta*gamma*alpha - lambda*beta*sigma*beta",
            "gamma*alpha*gamma - sigma*beta*gamma",
            "gamma*alpha*sigma - lambda*sigma*beta*sigma"]),
    "A2": ([1, 2],
           [("alpha", 1, 1), ("beta", 2, 2), ("sigma", 1, 2),
            ("gamma", 2, 1)],
           ["alpha^2 - sigma*gamma",
            "lambda*beta^2 - gamma*sigma",
            "gamma*alpha - beta*gamma",
            "sigma*beta - alpha*sigma"]),
    "A3": ([1, 2, 3, 4],
           [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
            ("gamma", 3, 2), ("epsilon", 2, 4), ("xi", 4, 2)],
           ["beta*alpha + delta*gamma + epsilon*xi",
            "alpha*beta", "gamma*delta", "xi*epsilon"]),
    "A4": ([1, 2, 3, 4],
           [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
            ("gamma", 3, 2), ("epsilon", 2, 4), ("xi", 4, 2)],
           ["beta*alpha + delta*gamma + epsilon*xi",
            "alpha*beta", "gamma*epsilon", "xi*delta"]),
    "A5": ([1, 2],
           [("alpha", 1, 1), ("gamma", 1, 2), ("beta", 2, 1)],
           ["alpha^2 - gamma*beta", "beta*alpha*gamma"]),
    "A6": ([1, 2],
           [("alpha", 1, 1), ("gamma", 1, 2), ("beta", 2, 1)],
           ["alpha^3 - gamma*beta", "beta*gamma", "beta*alpha^2",
            "alpha^2*gamma"]),
    "A7": ([1, 2, 3, 4],
           [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
            ("gamma", 3, 2), ("epsilon", 3, 4), ("xi", 4, 3)],
           ["beta*alpha - delta*gamma", "gamma*delta - epsilon*xi",
            "alpha*delta*epsilon", "xi*gamma*beta"]),
    "A8": ([1, 2, 3, 4],
           [("sigma", 1, 2), ("xi", 2, 3), ("gamma", 3, 4),
            ("delta", 4, 1), ("alpha", 1, 3), ("beta", 3, 1)],
           ["alpha*beta*alpha - sigma*xi", "beta*alpha*beta - gamma*delta",
            "xi*beta*alpha", "delta*alpha*beta", "beta*alpha*gamma",
            "alpha*beta*sigma", "xi*gamma", "delta*sigma"]),
    "A9": ([1, 2, 3, 4],
           [("alpha", 1, 2), ("sigma", 2, 3), ("beta", 3, 2),
            ("gamma", 3, 4), ("epsilon", 4, 3), ("delta", 4, 1)],
           ["delta*alpha - epsilon*beta", "gamma*epsilon - beta*sigma",
            "alpha*sigma*beta", "epsilon*gamma*delta",
            "sigma*gamma*epsilon*gamma"]),
    "A10": ([1, 2, 3, 4],
            [("beta", 1, 2), ("alpha", 2, 1), ("delta", 2, 3),
             ("gamma", 3, 4), ("xi", 4, 2)],
            ["xi*alpha*beta - xi*delta*gamma*xi",
             "alpha*beta*delta - delta*gamma*xi*delta",
             "beta*alpha",
             "gamma*xi*delta*gamma*xi*delta*gamma"]),
    "A11": ([1, 2, 3, 4],
            [("beta", 1, 2), ("alpha", 2, 1), ("xi", 2, 3),
             ("gamma", 3, 2), ("zeta", 3, 4), ("delta", 4, 3)],
            ["gamma*alpha*beta - gamma*xi*gamma",
             "alpha*beta*xi - xi*gamma*xi",
             "beta*alpha", "delta*gamma", "xi*zeta",
             "gamma*xi*gamma*xi - zeta*delta"]),
    "A12": ([1, 2, 3],
            [("alpha", 1, 2), ("gamma", 2, 3), ("beta", 3, 1),
             ("delta", 1, 3)],
            ["delta*beta*delta - alpha*gamma", "gamma*beta*alpha",
             "beta*delta*beta*delta*beta*delta*beta"]),
    "A13": ([1, 2, 3],
            [("alpha", 2, 2), ("beta", 1, 2), ("gamma", 2, 1),
             ("delta", 2, 3), ("sigma", 3, 2)],
            ["alpha^2 - gamma*beta", "beta*delta", "beta*gamma",
             "sigma*gamma", "sigma*alpha", "alpha*delta",
             "alpha^3 - delta*sigma"]),
    "A14": ([1, 2, 3],
            [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
             ("gamma", 3, 2)],
            ["beta*alpha - delta*gamma*delta*gamma",
             "alpha*delta*gamma*delta", "gamma*delta*gamma*beta",
             "alpha*beta"]),
    "A15": ([1, 2, 3],
            [("alpha", 1, 1), ("sigma", 1, 2), ("gamma", 2, 3),
             ("beta", 3, 1), ("delta", 1, 3)],
            ["gamma*beta*alpha", "alpha^2 - delta*beta", "beta*delta",
             "alpha*sigma", "alpha*delta - sigma*gamma"]),
    "A16": ([1, 2, 3],
            [("alpha", 1, 1), ("sigma", 2, 1), ("gamma", 3, 2),
             ("beta", 1, 3), ("delta", 3, 1)],
            ["alpha*beta*gamma", "alpha^2 - beta*delta", "delta*beta",
             "sigma*alpha", "delta*alpha - gamma*sigma"]),
    "L1": ([1, 2],
           [("alpha", 1, 1), ("gamma", 1, 2), ("beta", 2, 1)],
           ["alpha^2 - gamma*beta",
            "beta*alpha*gamma - beta*alpha^2*gamma",
            "beta*alpha*gamma*beta", "gamma*beta*alpha*gamma"]),
    "L2": ([1, 2],
           [("alpha", 1, 1), ("gamma", 1, 2), ("beta", 2, 1)],
           ["alpha^2*gamma", "beta*alpha^2", "gamma*beta*gamma",
            "beta*gamma*beta", "beta*alpha*gamma - beta*gamma",
            "alpha^3 - gamma*beta"]),
    "L3": ([1, 2],
           [("alpha", 1, 1), ("sigma", 1, 2), ("gamma", 2, 1),
            ("beta", 2, 2)],
           ["alpha^4", "gamma*alpha^2", "alpha^2*sigma",
            "alpha^2 - sigma*gamma - alpha^3",
            "lambda*beta^2 - gamma*sigma",
            "gamma*alpha - beta*gamma", "sigma*beta - alpha*sigma"]),
    "L4": ([1, 2, 3],
           [("alpha", 1, 2), ("gamma", 2, 3), ("beta", 3, 1),
            ("delta", 1, 3)],
           ["delta*beta*delta - alpha*gamma",
            "beta*delta*beta*delta*beta*delta*beta",
            "gamma*beta*alpha*gamma", "alpha*gamma*beta*alpha",
            "gamma*beta*alpha - gamma*beta*delta*beta*alpha"]),
    "L5": ([1, 2, 3],
           [("alpha", 2, 2), ("beta", 1, 2), ("gamma", 2, 1),
            ("delta", 2, 3), ("sigma", 3, 2)],
           ["alpha^2 - gamma*beta", "alpha^3 - delta*sigma",
            "sigma*gamma", "alpha*delta", "sigma*alpha", "beta*delta",
            "gamma*beta*gamma", "beta*gamma*beta",
            "beta*gamma - beta*alpha*gamma"]),
    "L6": ([1, 2, 3],
           [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
            ("gamma", 3, 2)],
           ["alpha*delta*gamma*delta", "gamma*delta*gamma*beta",
            "alpha*beta*alpha", "beta*alpha*beta",
            "alpha*beta - alpha*delta*gamma*beta",
            "beta*alpha - delta*gamma*delta*gamma"]),
    "L7": ([1, 2, 3],
           [("alpha", 1, 1), ("sigma", 1, 2), ("gamma", 2, 3),
            ("beta", 3, 1), ("delta", 1, 3)],
           ["beta*delta - beta*alpha*delta", "alpha*sigma",
            "alpha*delta - sigma*gamma", "gamma*beta*alpha",
            "alpha^2 - delta*beta", "gamma*beta*delta",
            "beta*delta*beta", "delta*beta*delta"]),
    "L8": ([1, 2, 3],
           [("alpha", 1, 1), ("sigma", 2, 1), ("gamma", 3, 2),
            ("beta", 1, 3), ("delta", 3, 1)],
           ["delta*beta - delta*alpha*beta", "sigma*alpha",
            "delta*alpha - gamma*sigma", "alpha*beta*gamma",
            "alpha^2 - beta*delta", "delta*beta*gamma",
            "beta*delta*beta", "delta*beta*delta"]),
    "L9": ([1, 2, 3, 4],
           [("alpha", 1, 2), ("beta", 2, 1), ("delta", 2, 3),
            ("gamma", 3, 2), ("epsilon", 2, 4), ("xi", 4, 2)],
           ["beta*alpha + delta*gamma + epsilon*xi",
            "gamma*delta", "xi*epsilon",
            "alpha*beta*alpha", "beta*alpha*beta",
            "alpha*beta - alpha*delta*gamma*beta"]),
    "L10": ([1, 2, 3, 4, 5],
            [("eta", 1, 2), ("mu", 2, 5), ("xi", 1, 3), ("gamma", 3, 1),
             ("sigma", 3, 5), ("delta", 5, 3), ("beta", 5, 4),
             ("alpha", 4, 1)],
            ["mu*beta", "alpha*eta", "beta*alpha - delta*gamma",
             "xi*sigma - eta*mu",
             "sigma*delta - gamma*xi - sigma*delta*sigma*delta",
             "delta*sigma*delta*sigma", "xi*gamma*xi*gamma"]),
    "exrs0-1": ([1, 2, 3, 4],
                [("a", 1, 2), ("b", 1, 3), ("c", 1, 4), ("d", 2, 4),
                 ("e", 3, 4)],
                ["a*d", "b*e"]),
    "exrs0-2": ([1, 2, 3],
                [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)],
                ["a*b"]),
    "nakayama-2": ([1, 2],
                   [("x", 1, 2), ("y", 2, 1)],
                   ["x*y", "y*x"]),
}


def _preprojective_presentation(edges: list[tuple[int, int]],
                                vertices: list[int]) -> Presentation:
    """Preprojective algebra of a tree: doubled quiver, and at each vertex
    the sum of all round trips through its incident edges vanishes.  On a
    tree every sign choice is equivalent to the all-plus one."""
    arrows = []
    for (u, v) in edges:
        arrows.append((f"a{u}_{v}", u, v))
        arrows.append((f"b{u}_{v}", v, u))
    q = Quiver(vertices, arrows)
    rels = []
    for w in vertices:
        terms = []
        for (u, v) in edges:
            if u == w:
                terms.append(f"a{u}_{v}*b{u}_{v}")
            elif v == w:
                terms.append(f"b{u}_{v}*a{u}_{v}")
        if terms:
            rels.append(" + ".join(terms))
    return Presentation.from_strings(q, rels)


def _ladder_presentation(n: int) -> Presentation:
    verts = list(range(1, 2 * n + 1))
    arrows = []
    for i in range(1, n):
        arrows.append((f"t{i}", i, i + 1))
        arrows.append((f"u{i}", n + i, n + i + 1))
    for i in range(1, n + 1):
        arrows.append((f"v{i}", i, n + i))
    q = Quiver(verts, arrows)
    rels = [f"v{i}*u{i} - t{i}*v{i + 1}" for i in range(1, n)]
    return Presentation.from_strings(q, rels)


_PARAM = re.compile(r"^(preproj-A|preproj-D|ladder-)(\d+)$")


def catalog_keys() -> list[str]:
    """Fixed keys plus the parametric family patterns."""
    return sorted(_FIXED, key=_key_order) + \
        ["preproj-A<n>", "preproj-D<n>", "ladder-<n>"]


def _key_order(k: str):
    m = re.match(r"^([AL])(\d+)$", k)
    if m:
        return (0 if m.group(1) == "A" else 1, int(m.group(2)))
    return (2, k)


def is_family_key(key: str) -> bool:
    """Whether key names a parametric family member, in range or not."""
    return _PARAM.match(key) is not None


def presentation(key: str) -> Presentation:
    if key in _FIXED:
        verts, arrows, rels = _FIXED[key]
        return Presentation.from_strings(Quiver(verts, arrows), rels)
    m = _PARAM.match(key)
    if not m:
        raise CatalogError(
            f"unknown catalog key {key!r}; try one of {catalog_keys()}")
    fam, num = m.group(1), int(m.group(2))
    if fam == "ladder-":
        if num < 1:
            raise CatalogError("ladder size must be >= 1")
        return _ladder_presentation(num)
    if fam == "preproj-A":
        if num < 1:
            raise CatalogError("preproj-A size must be >= 1")
        edges = [(i, i + 1) for i in range(1, num)]
        return _preprojective_presentation(edges, list(range(1, num + 1)))
    if num < 4:
        raise CatalogError("preproj-D size must be >= 4")
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, num)]
    return _preprojective_presentation(edges, list(range(1, num + 1)))


def uses_lambda(key: str) -> bool:
    return key in _FIXED and presentation(key).has_lambda


def build(key: str, field: Field = QQ, lam=None) -> FiniteDimAlgebra:
    return build_algebra(presentation(key), field=field, lam=lam)
