"""Scalar fields for all exact computations: the rationals and prime fields GF(p).

Field elements are plain python objects; a Field instance supplies the
arithmetic.  A rational is an int whenever it is integral and a Fraction
only otherwise, so whole-number work never builds a Fraction: every
Rationals operation returns an int for an integral result.  Elements of
GF(p) are ints in [0, p).

gf(p) takes the primes p < 2^31.  Primality is decided exactly, by the
strong-probable-prime (Miller-Rabin) test to the fixed bases 2, 3, 5 and
7, which no composite below 3215031751 passes; past that bound _is_prime
raises rather than answer.
"""
from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


# The strong-probable-prime test to the fixed bases 2, 3, 5 and 7 has no
# composite false positive below this bound (Pomerance-Selfridge-Wagstaff,
# Math. Comp. 1980; Jaeschke, Math. Comp. 1993), which covers every gf(p).
_SPRP_BOUND = 3215031751
_SPRP_BASES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Exact primality for n < 3215031751 by the strong-probable-prime
    test to the fixed bases 2, 3, 5 and 7, in O(log n) multiplications."""
    if n >= _SPRP_BOUND:
        raise ValueError(f"{n} is beyond the proven range of _is_prime")
    if n < 2:
        return False
    for b in _SPRP_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _SPRP_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; see Rationals and PrimeField."""

    characteristic: int

    def of(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # 0 and 1 are the ints 0 and 1 in QQ and in every GF(p)
    zero = 0
    one = 1

    def is_zero(self, a) -> bool:
        return not a


class Rationals(Field):
    """QQ with int elements for integers and Fraction elements otherwise."""

    characteristic = 0

    def of(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise FieldError(f"not a rational scalar: {x!r}")

    def add(self, a, b):
        c = a + b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def sub(self, a, b):
        c = a - b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def mul(self, a, b):
        c = a * b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        num, den = a.numerator, a.denominator
        return den * num if num in (1, -1) else Fraction(den, num)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) with elements stored as ints in [0, p).  Arithmetic runs on
    python ints, so nothing needs int64; p stays below 2^31 as the
    documented range of gf(p), in which every product of two elements stays
    below 2^62.  The range is checked first, then primality, exactly, by
    the strong-probable-prime test to the fixed bases 2, 3, 5 and 7 (proven
    below 3215031751 > 2^31)."""

    def __init__(self, p: int):
        # the range first: _is_prime answers only below 3215031751
        if p >= 1 << 31:
            raise FieldError(f"gf({p}): modulus too large (needs p < 2^31)")
        if not _is_prime(p):
            raise FieldError(f"gf({p}): {p} is not prime")
        self.p = p
        self.characteristic = p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(
                    f"denominator of {x} vanishes in gf({self.p})")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        raise FieldError(f"not a gf({self.p}) scalar: {x!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()


def parse_field(text: str) -> Field:
    """Accepts "rationals", "qq", or "gf(p)"."""
    t = text.strip().lower()
    if t in ("rationals", "qq", "q"):
        return QQ
    if t.startswith("gf(") and t.endswith(")"):
        inner = t[3:-1].strip()
        try:
            # isdigit admits what int rejects: "--7", "+-7", "²"
            p = int(inner) if inner.lstrip("+-").isdigit() else None
        except ValueError:
            p = None
        if p is None:
            raise FieldError(f"bad field spec: {text!r}")
        return PrimeField(p)
    raise FieldError(f"bad field spec: {text!r} (use 'rationals' or 'gf(p)')")
