"""Quivers, relation expressions, and algebra presentations.

Composition is left to right: alpha*beta means "traverse alpha, then beta",
so the word is composable when tgt(alpha) = src(beta).  Relation words are
tuples of arrow indices; scalars may involve the formal parameter lambda,
bound to a field scalar only when an algebra is built.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import Field, FieldError


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    src: int
    tgt: int


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex labels")
        for v in self.vertices:
            if not isinstance(v, int):
                raise QuiverError(f"vertex labels must be ints, got {v!r}")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows: list[Arrow] = []
        self.arrow_index: dict[str, int] = {}
        for a in arrows:
            name, src, tgt = (a.name, a.src, a.tgt) if isinstance(a, Arrow) \
                else a
            if name in self.arrow_index:
                raise QuiverError(f"duplicate arrow name {name!r}")
            if name == "lambda":
                raise QuiverError("arrow name 'lambda' is reserved for the "
                                  "parameter of relations")
            if src not in self.vindex or tgt not in self.vindex:
                raise QuiverError(f"arrow {name}: endpoint not a vertex")
            self.arrow_index[name] = len(self.arrows)
            self.arrows.append(Arrow(name, src, tgt))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def word_src(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[0]].src

    def word_tgt(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[-1]].tgt

    def word_composable(self, word: tuple[int, ...]) -> bool:
        return all(self.arrows[a].tgt == self.arrows[b].src
                   for a, b in zip(word, word[1:]))

    def word_str(self, word: tuple[int, ...]) -> str:
        return "*".join(self.arrows[i].name for i in word)

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices,
                      [(a.name, a.tgt, a.src) for a in self.arrows])

    def doubled(self) -> "Quiver":
        """Add a reversed copy named <arrow>_rev for every arrow."""
        extra = [(a.name + "_rev", a.tgt, a.src) for a in self.arrows]
        return Quiver(self.vertices,
                      [(a.name, a.src, a.tgt) for a in self.arrows] + extra)

    def separated(self) -> "Quiver":
        """Two copies of the vertices; each arrow runs from the plain copy of
        its source to the shifted copy of its target.  The shift is the
        largest label, or the label range plus one when that is larger, so
        every shifted label exceeds every plain one."""
        vs = self.vertices or [0]
        off = max(max(vs), max(vs) - min(vs) + 1)
        verts = list(self.vertices) + [v + off for v in self.vertices]
        arrows = [(a.name, a.src, a.tgt + off) for a in self.arrows]
        return Quiver(verts, arrows)

    def underlying_edges(self) -> list[tuple[int, int]]:
        """Undirected edge list (with multiplicity, loops kept)."""
        return [(min(a.src, a.tgt), max(a.src, a.tgt)) for a in self.arrows]

    def __repr__(self):
        return (f"Quiver({self.vertices}, "
                f"{[(a.name, a.src, a.tgt) for a in self.arrows]})")


# coefficient = rational * lambda^lam_pow  (lam_pow is 0 or 1 in practice)
Coeff = tuple[Fraction, int]

# a relation is a list of (Coeff, word) terms meaning "sum = 0"
Term = tuple[Coeff, tuple[int, ...]]


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[*+^/-]))")


def parse_relation(text: str, quiver: Quiver) -> list[Term]:
    """Parse an expression like "alpha*gamma*alpha - lambda*beta^2" into
    relation terms.  '=' is accepted once and moves the right side over."""
    if "=" in text:
        lhs, _, rhs = text.partition("=")
        if "=" in rhs:
            raise QuiverError(f"more than one '=' in relation: {text!r}")
        left = parse_relation(lhs, quiver)
        if rhs.strip() in ("0", ""):
            return left
        right = parse_relation(rhs, quiver)
        return left + [(((-c), lp), w) for ((c, lp), w) in right]

    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise QuiverError(
                    f"bad character {text[pos:].strip()[0]!r} in relation "
                    f"{text!r}")
            break
        for kind in ("num", "name", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind)))
                break
        pos = m.end()
    if not tokens:
        raise QuiverError("empty relation")

    terms: list[Term] = []
    i = 0

    def parse_term(i: int) -> tuple[Term, int]:
        coeff = Fraction(1)
        lam_pow = 0
        word: list[int] = []
        sign = 1
        while i < len(tokens) and tokens[i] == ("op", "-"):
            sign = -sign
            i += 1
        if i < len(tokens) and tokens[i] == ("op", "+"):
            raise QuiverError("misplaced '+'")
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise QuiverError(f"misplaced '*' in relation")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise QuiverError(f"missing '*' before {val!r}")
            if kind == "num":
                num = Fraction(int(val))
                i += 1
                if i + 1 < len(tokens) and tokens[i] == ("op", "/") \
                        and tokens[i + 1][0] == "num":
                    den = int(tokens[i + 1][1])
                    if den == 0:
                        raise QuiverError(
                            f"zero denominator in coefficient {val}/0")
                    num /= den
                    i += 2
                coeff *= num
            elif kind == "name" and val == "lambda":
                lam_pow += 1
                i += 1
            elif kind == "name":
                if val not in quiver.arrow_index:
                    raise QuiverError(f"unknown arrow {val!r} in relation")
                exp = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == ("op", "^") \
                        and tokens[i + 1][0] == "num":
                    exp = int(tokens[i + 1][1])
                    i += 2
                word.extend([quiver.arrow_index[val]] * exp)
            else:
                raise QuiverError(f"unexpected {val!r} in relation")
            expect_factor = False
        if expect_factor:
            raise QuiverError(f"dangling operator in relation")
        return ((coeff * sign, lam_pow), tuple(word)), i

    while i < len(tokens):
        term, i = parse_term(i)
        terms.append(term)
        if i < len(tokens):
            if tokens[i] == ("op", "+"):
                i += 1
            elif tokens[i] == ("op", "-"):
                pass  # sign handled by the next parse_term
            else:
                raise QuiverError(f"expected '+' or '-' at {tokens[i][1]!r}")
    return terms


@dataclass
class Presentation:
    """A quiver with admissible relations (words of length >= 2, each
    relation a parallel combination).  Relations may mention lambda."""

    quiver: Quiver
    relations: list[list[Term]] = dc_field(default_factory=list)

    @classmethod
    def from_strings(cls, quiver: Quiver, relation_texts) -> "Presentation":
        pres = cls(quiver, [parse_relation(t, quiver) for t in relation_texts])
        pres.validate()
        return pres

    @property
    def has_lambda(self) -> bool:
        return any(lp for rel in self.relations
                   for ((_, lp), _) in rel)

    def validate(self) -> None:
        q = self.quiver
        for rel in self.relations:
            if not rel:
                raise QuiverError("empty relation")
            ends = None
            for (_, word) in rel:
                if len(word) < 2:
                    raise QuiverError(
                        "relation term of length < 2 (not admissible): "
                        + (q.word_str(word) or "scalar"))
                if not q.word_composable(word):
                    raise QuiverError(
                        f"word not composable: {q.word_str(word)}")
                e = (q.word_src(word), q.word_tgt(word))
                if ends is None:
                    ends = e
                elif e != ends:
                    raise QuiverError(
                        f"relation mixes endpoints {ends} and {e}: "
                        f"{q.word_str(word)}")

    def bind(self, field: Field, lam=None) -> list[list[tuple]]:
        """Substitute lambda and coerce coefficients into the field.  Returns
        relations as lists of (scalar, word)."""
        if self.has_lambda and lam is None:
            raise QuiverError("presentation needs a lambda value")
        out = []
        for rel in self.relations:
            bound = {}
            for ((c, lp), word) in rel:
                s = field.of(c)
                for _ in range(lp):
                    s = field.mul(s, lam)
                if word in bound:
                    bound[word] = field.add(bound[word], s)
                else:
                    bound[word] = s
            terms = [(s, w) for w, s in bound.items() if not field.is_zero(s)]
            if terms:
                out.append(terms)
        return out

    def opposite(self) -> "Presentation":
        """Reverse all arrows; relation words read backwards."""
        opp = self.quiver.opposite()
        rels = [[(c, tuple(reversed(w))) for (c, w) in rel]
                for rel in self.relations]
        return Presentation(opp, rels)

    def restricted_away_from(self, removed_vertices) -> "Presentation":
        """Presentation of the quotient by the idempotents of the given
        vertices: drop those vertices, arrows touching them, and relation
        terms whose word passes through them."""
        removed = set(removed_vertices)
        q = self.quiver
        keep_v = [v for v in q.vertices if v not in removed]
        old_new_arrows = []
        keep_arrow = {}
        for i, a in enumerate(q.arrows):
            if a.src not in removed and a.tgt not in removed:
                keep_arrow[i] = len(old_new_arrows)
                old_new_arrows.append((a.name, a.src, a.tgt))
        sub = Quiver(keep_v, old_new_arrows)
        rels = []
        for rel in self.relations:
            terms = []
            for (c, word) in rel:
                if all(i in keep_arrow for i in word):
                    terms.append((c, tuple(keep_arrow[i] for i in word)))
            if terms:
                rels.append(terms)
        return Presentation(sub, rels)
