"""Noncommutative Groebner bases for path-algebra ideals.

Words are tuples of arrow indices, ordered by deglex (length, then the index
sequence).  Polynomials are dicts word -> scalar with parallel words.  The
completion keeps four rules:

* largest word first: `reduce` takes the largest word left and rewrites one
  occurrence of a leading word in it, or moves it to the result;
* no leading word inside another: a new member sends every member whose
  leading word contains its own back to the queue, so the only ambiguities
  are overlaps and the basis needs no interreduction;
* leading keys computed once: each queued polynomial carries the deglex key
  of its leading word, and the queue pops the smallest first;
* leading words by hash: a dict from leading word to member rank, rebuilt
  with the members, is asked for each factor of each leading-word length.

For an admissible ideal with a finite-dimensional quotient the leading
words are bounded by one more than the longest normal word, so the loop
terminates.  CapInsufficient is raised when the completion forms a leading
word of twice the cap, adds more than 5000 members or queues more than
5000 polynomials, or when the normal words, decided exactly from the
leading words, are infinitely many.
"""
from __future__ import annotations

from .fields import Field
from .quiver import Quiver


class CapInsufficient(Exception):
    """The quotient cannot be certified finite-dimensional."""


def _deglex(word: tuple[int, ...]):
    return (len(word), word)


def _factor(lead: tuple[int, ...], word: tuple[int, ...]):
    """Position of the leftmost occurrence of lead in word, or None."""
    L = len(lead)
    for pos in range(len(word) - L + 1):
        if word[pos:pos + L] == lead:
            return pos
    return None


class NCGroebner:
    def __init__(self, quiver: Quiver, bound_relations, field: Field,
                 cap: int):
        self.quiver = quiver
        self.field = field
        self.cap = cap
        # members: list of (lead_word, poly) with poly monic on its lead
        # and no lead a factor of another
        self._set_members([])
        self._complete([{w: c for c, w in rel if not field.is_zero(c)}
                        for rel in bound_relations])

    # -- polynomial helpers -------------------------------------------------

    def _sub(self, poly: dict, word: tuple[int, ...], c) -> None:
        """poly[word] -= c, dropping the word when that leaves zero."""
        F = self.field
        v = F.sub(poly.get(word, F.zero), c)
        if F.is_zero(v):
            poly.pop(word, None)
        else:
            poly[word] = v

    def _set_members(self, members: list) -> None:
        self.members: list[tuple[tuple[int, ...], dict]] = members
        self._rank = {lead: r for r, (lead, _) in enumerate(members)}
        self._lengths = sorted({len(lead) for lead, _ in members})

    def _find_factor(self, word: tuple[int, ...]):
        """The first member whose lead occurs in word, at its leftmost
        occurrence, or None: the least rank the lead dict gives a factor."""
        best = None
        for L in self._lengths:
            for pos in range(len(word) - L + 1):
                r = self._rank.get(word[pos:pos + L])
                if r is not None and (best is None or r < best[0]):
                    best = (r, pos)
        return None if best is None else (self.members[best[0]], best[1])

    def reduce(self, poly: dict) -> dict:
        """Full normal form (no word contains any leading word).  The
        largest word left is rewritten at one occurrence of a leading word,
        or moved to the result when it has none.  A rewrite only makes
        smaller words, so the result lists its words in decreasing deglex
        order, its leading word first."""
        F = self.field
        poly = {w: c for w, c in poly.items() if not F.is_zero(c)}
        out: dict = {}
        while poly:
            w = max(poly, key=_deglex)
            c = poly.pop(w)
            hit = self._find_factor(w)
            if hit is None:
                out[w] = c
                continue
            (lead, g), pos = hit
            left, right = w[:pos], w[pos + len(lead):]
            for gw, gc in g.items():
                if gw != lead:
                    self._sub(poly, left + gw + right, F.mul(c, gc))
        return out

    def _spolys(self, fi: tuple, fj: tuple) -> list[tuple]:
        """Queue entries (key, poly) for the overlap ambiguities of the
        members fi = (li, gi) and fj = (lj, gj): a proper suffix of li is a
        prefix of lj, and the word li (rest of lj) = (start of li) lj is
        rewritten by either member."""
        (li, gi), (lj, gj) = fi, fj
        out = []
        for k in range(1, min(len(li), len(lj))):
            if li[-k:] == lj[:k]:
                right, left = lj[k:], li[:-k]
                s = {w + right: c for w, c in gi.items()}
                for w, c in gj.items():
                    self._sub(s, left + w, c)
                if s:
                    out.append((_deglex(max(s, key=_deglex)), s))
        return out

    def _complete(self, seeds: list[dict]) -> None:
        F = self.field
        queue = [(_deglex(max(p, key=_deglex)), p) for p in seeds if p]
        guard = 0
        while queue:
            queue.sort(key=lambda entry: entry[0])
            f = self.reduce(queue.pop(0)[1])
            if not f:
                continue
            lead = next(iter(f))
            if len(lead) >= 2 * self.cap:
                raise CapInsufficient(
                    f"the completion reached a leading word of length "
                    f"{len(lead)}, twice the cap {self.cap}")
            inv = F.inv(f[lead])
            new = (lead, {w: F.mul(c, inv) for w, c in f.items()})
            kept = []
            for member in self.members:
                if _factor(lead, member[0]) is None:
                    kept.append(member)
                else:
                    queue.append((_deglex(member[0]), member[1]))
            self._set_members(kept + [new])
            for member in self.members:
                queue += self._spolys(new, member)
                if member is not new:
                    queue += self._spolys(member, new)
            guard += 1
            if guard > 5000 or len(queue) > 5000:
                raise CapInsufficient("completion did not stabilise")

    # -- normal words -------------------------------------------------------

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
        leads = [lead for lead, _ in self.members]
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
