"""Noncommutative Groebner bases for path-algebra ideals.

Words are tuples of arrow indices, ordered by deglex (length, then the index
sequence).  Polynomials are dicts word -> scalar with parallel words.  The
completion resolves overlap and inclusion ambiguities; for an admissible
ideal with a finite-dimensional quotient the reduced leading words are
bounded by one more than the longest normal word, so the loop terminates.
CapInsufficient is raised when the completion forms a leading word of
twice the cap, or when the normal words, decided exactly from the leading
words, are infinitely many.
"""
from __future__ import annotations

from .fields import Field
from .quiver import Quiver


class CapInsufficient(Exception):
    """The quotient cannot be certified finite-dimensional."""


def _deglex(word: tuple[int, ...]):
    return (len(word), word)


class NCGroebner:
    def __init__(self, quiver: Quiver, bound_relations, field: Field,
                 cap: int):
        self.quiver = quiver
        self.field = field
        self.cap = cap
        # members: list of (lead_word, poly) with poly monic on its lead
        self.members: list[tuple[tuple[int, ...], dict]] = []
        self._complete([dict((w, c) for c, w in rel)
                        for rel in bound_relations])

    # -- polynomial helpers -------------------------------------------------

    def _monic(self, poly: dict) -> tuple[tuple[int, ...], dict]:
        lead = max(poly, key=_deglex)
        inv = self.field.inv(poly[lead])
        return lead, {w: self.field.mul(c, inv) for w, c in poly.items()}

    def _find_factor(self, word: tuple[int, ...]):
        """Leftmost occurrence of the lowest-index member's lead in word."""
        for mi, (lead, _) in enumerate(self.members):
            L = len(lead)
            if L > len(word):
                continue
            for pos in range(len(word) - L + 1):
                if word[pos:pos + L] == lead:
                    return mi, pos
        return None

    def reduce(self, poly: dict) -> dict:
        """Full normal form (no word contains any leading word)."""
        F = self.field
        poly = {w: c for w, c in poly.items() if not F.is_zero(c)}
        while True:
            target = None
            for cand in sorted(poly, key=_deglex, reverse=True):
                hit = self._find_factor(cand)
                if hit is not None:
                    target = (cand, hit)
                    break
            if target is None:
                return poly
            w, (mi, pos) = target
            lead, g = self.members[mi]
            c = poly[w]
            left, right = w[:pos], w[pos + len(lead):]
            for gw, gc in g.items():
                nw = left + gw + right
                val = F.sub(poly.get(nw, F.zero), F.mul(c, gc))
                if F.is_zero(val):
                    poly.pop(nw, None)
                else:
                    poly[nw] = val

    def _shift(self, poly: dict, left: tuple, right: tuple) -> dict:
        return {left + w + right: c for w, c in poly.items()}

    def _spolys(self, i: int, j: int) -> list[dict]:
        """Overlap and inclusion ambiguities between members i and j."""
        F = self.field
        li, gi = self.members[i]
        lj, gj = self.members[j]
        out = []

        def diff(a: dict, b: dict) -> dict:
            r = dict(a)
            for w, c in b.items():
                v = F.sub(r.get(w, F.zero), c)
                if F.is_zero(v):
                    r.pop(w, None)
                else:
                    r[w] = v
            return r

        # overlaps: a suffix of li equals a prefix of lj
        for k in range(1, min(len(li), len(lj))):
            if li[-k:] == lj[:k]:
                right = lj[k:]
                left = li[:-k]
                out.append(diff(self._shift(gi, (), right),
                                self._shift(gj, left, ())))
        # inclusion: lj a proper factor of li
        if i != j and len(lj) < len(li):
            for pos in range(len(li) - len(lj) + 1):
                if li[pos:pos + len(lj)] == lj:
                    out.append(diff(gi, self._shift(gj, li[:pos],
                                                    li[pos + len(lj):])))
        return out

    def _complete(self, seeds: list[dict]) -> None:
        F = self.field
        queue = [{w: c for w, c in p.items() if not F.is_zero(c)}
                 for p in seeds]
        queue = [p for p in queue if p]
        guard = 0
        while queue:
            queue.sort(key=lambda p: _deglex(max(p, key=_deglex)))
            f = self.reduce(queue.pop(0))
            if not f:
                continue
            lead, f = self._monic(f)
            if len(lead) >= 2 * self.cap:
                raise CapInsufficient(
                    f"the completion reached a leading word of length "
                    f"{len(lead)}, twice the cap {self.cap}")
            self.members.append((lead, f))
            new = len(self.members) - 1
            for other in range(len(self.members)):
                fresh = self._spolys(new, other)
                if other != new:
                    fresh += self._spolys(other, new)
                queue.extend(p for p in fresh if p)
            guard += 1
            if guard > 5000:
                raise CapInsufficient("completion did not stabilise")
        self._interreduce()

    def _interreduce(self) -> None:
        # drop members whose lead is a multiple of another lead, then
        # tail-reduce the survivors for a canonical basis
        keep: list[tuple[tuple[int, ...], dict]] = []
        by_size = sorted(self.members, key=lambda m: _deglex(m[0]))
        leads: list[tuple[int, ...]] = []
        for lead, g in by_size:
            divisible = False
            for other in leads:
                L = len(other)
                if L <= len(lead) and any(
                        lead[p:p + L] == other
                        for p in range(len(lead) - L + 1)):
                    divisible = True
                    break
            if not divisible and lead not in leads:
                leads.append(lead)
                keep.append((lead, g))
        # tail words are deglex-smaller than the lead, hence never contain
        # it, so reducing tails against the full kept set is safe
        self.members = keep
        reduced = []
        for lead, g in keep:
            tail = {w: c for w, c in g.items() if w != lead}
            nf = self.reduce(tail)
            nf[lead] = self.field.one
            reduced.append((lead, nf))
        self.members = reduced

    # -- normal words -------------------------------------------------------

    def leading_words(self) -> list[tuple[int, ...]]:
        return [lead for lead, _ in self.members]

    def normal_words(self) -> list[tuple[int, ...]]:
        """All irreducible nonempty words, sorted by deglex.  Let s be one
        less than the longest leading word, and at least 1.  Every leading
        word then fits in s + 1 letters, so a longer word is normal iff
        each of its factors of s + 1 letters is.  The normal words of
        length at least s are therefore the paths of the graph
        w -> (w a)[1:] on the normal words of length s, and they are
        finitely many iff that graph has no cycle.  CapInsufficient is
        raised when it has one."""
        q = self.quiver
        leads = self.leading_words()
        s = max(1, max(map(len, leads), default=0) - 1)
        out_by_src: dict[int, list[int]] = {}
        for i, a in enumerate(q.arrows):
            out_by_src.setdefault(q.vindex[a.src], []).append(i)
        level = [(i,) for i in range(len(q.arrows))]
        words: list[tuple[int, ...]] = []
        while level:
            words.extend(level)
            if len(level[0]) == s + 1 and \
                    _has_cycle([(w[:-1], w[1:]) for w in level]):
                raise CapInsufficient(
                    "the normal words include arbitrarily long paths; "
                    "the presented algebra is infinite-dimensional")
            nxt = []
            for w in level:
                tgt = q.vindex[q.arrows[w[-1]].tgt]
                for a in out_by_src.get(tgt, []):
                    nw = w + (a,)
                    if not any(nw[-len(L):] == L for L in leads
                               if len(L) <= len(nw)):
                        nxt.append(nw)
            level = sorted(nxt)
        words.sort(key=_deglex)
        return words


def _has_cycle(edges) -> bool:
    """Whether the directed graph with these edges has a cycle: the nodes
    with no incoming edge are peeled off until none is left, and a cycle
    is what remains."""
    succ: dict = {}
    indeg: dict = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        indeg.setdefault(u, 0)
        indeg[v] = indeg.get(v, 0) + 1
    ready = [u for u, d in indeg.items() if not d]
    peeled = 0
    while ready:
        peeled += 1
        for v in succ.get(ready.pop(), ()):
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return peeled < len(indeg)
