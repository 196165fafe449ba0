"""Reading and writing presentation files.

The format is line oriented.  A file starts with a vertex list, may fix
the scalar field and the parameter value, then gives one arrow per line
and one relation per line:

    # comment
    vertices = [1, 2]
    field = gf(5)        # optional, rationals when absent
    lambda = 3/2         # optional
    alpha: 1 -> 1
    gamma: 1 -> 2
    beta: 2 -> 1
    alpha*alpha - gamma*beta
    beta*alpha*gamma

Arrow lines are the ones containing both ":" and "->"; every other
non-header line is handed to the relation parser.  Errors carry the
offending line number.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .fields import QQ, Field, FieldError, parse_field
from .quiver import Presentation, Quiver, QuiverError, parse_relation


class ParseError(ValueError):
    """Malformed presentation file; remembers where the problem is."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass
class AlgebraFile:
    presentation: Presentation
    field: Field = dc_field(default_factory=lambda: QQ)
    lam: Optional[Fraction] = None


_HEADER_RE = re.compile(r"^(vertices|field|lambda)\s*=\s*(.*)$")
_ARROW_RE = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(-?\d+)\s*->\s*(-?\d+)$")


def _parse_vertex_list(value, lineno):
    m = re.fullmatch(r"\[(.*)\]", value)
    if not m:
        raise ParseError("vertices must look like [1, 2, 3]", line=lineno)
    inner = m.group(1).strip()
    if not inner:
        raise ParseError("empty vertex list", line=lineno)
    out = []
    for part in inner.split(","):
        part = part.strip()
        if not re.fullmatch(r"-?\d+", part):
            raise ParseError(f"bad vertex label {part!r}", line=lineno)
        out.append(int(part))
    if len(set(out)) != len(out):
        raise ParseError("duplicate vertex label", line=lineno)
    return out


def parse_algebra_file(text: str) -> AlgebraFile:
    vertices = None
    field = QQ
    lam = None
    arrows = []
    relation_lines = []
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, value = m.group(1), m.group(2).strip()
            if key in headers:
                raise ParseError(f"{key} given twice", line=lineno)
            headers.add(key)
            if key == "vertices":
                vertices = _parse_vertex_list(value, lineno)
            elif key == "field":
                try:
                    field = parse_field(value)
                except FieldError as exc:
                    raise ParseError(str(exc), line=lineno) from exc
            else:
                try:
                    lam = Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad lambda value {value!r}",
                                     line=lineno) from exc
            continue
        if ":" in line and "->" in line:
            m = _ARROW_RE.match(line)
            if m is None:
                raise ParseError("malformed arrow line "
                                 "(want name: src -> tgt)", line=lineno)
            if vertices is None:
                raise ParseError("arrow before the vertices line",
                                 line=lineno)
            name, src, tgt = m.group(1), int(m.group(2)), int(m.group(3))
            if any(a[0] == name for a in arrows):
                raise ParseError(f"duplicate arrow name {name!r}",
                                 line=lineno)
            if src not in vertices or tgt not in vertices:
                raise ParseError(f"arrow {name!r} uses an unknown vertex",
                                 line=lineno)
            arrows.append((name, src, tgt))
            continue
        relation_lines.append((lineno, line))
    if vertices is None:
        raise ParseError("missing vertices line")
    try:
        quiver = Quiver(vertices, arrows)
    except QuiverError as exc:
        raise ParseError(str(exc)) from exc
    relations = []
    for lineno, rtext in relation_lines:
        try:
            relations.append(parse_relation(rtext, quiver))
        except QuiverError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    pres = Presentation(quiver, relations)
    try:
        pres.validate()
    except QuiverError as exc:
        raise ParseError(str(exc)) from exc
    return AlgebraFile(pres, field, lam)


# -- writing ----------------------------------------------------------------


def _term_text(coeff, word, names):
    c, lam_pow = coeff
    factors = ["lambda"] * lam_pow + [names[k] for k in word]
    mag = abs(c)
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return "*".join(factors)


def _relation_text(rel, names):
    parts = []
    for i, (coeff, word) in enumerate(rel):
        text = _term_text(coeff, word, names)
        if i == 0:
            parts.append(("-" if coeff[0] < 0 else "") + text)
        else:
            parts.append(("- " if coeff[0] < 0 else "+ ") + text)
    return " ".join(parts)


def serialize_presentation(pres: Presentation, field: Field = None,
                           lam=None) -> str:
    """Text that parse_algebra_file reads back to the same presentation."""
    lines = ["vertices = [" +
             ", ".join(str(v) for v in pres.quiver.vertices) + "]"]
    if field is not None and field != QQ:
        lines.append(f"field = gf({field.p})")
    if lam is not None:
        lines.append(f"lambda = {lam}")
    for a in pres.quiver.arrows:
        lines.append(f"{a.name}: {a.src} -> {a.tgt}")
    names = [a.name for a in pres.quiver.arrows]
    for rel in pres.relations:
        lines.append(_relation_text(rel, names))
    return "\n".join(lines) + "\n"
