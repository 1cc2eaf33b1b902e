"""Exact arithmetic in prime fields GF(q), with quadratic-residue tables.

Only prime moduli are supported.  q = 2 is allowed (it is needed as a
negative-test field elsewhere) but carries a ``char2`` flag and offers no
square classes.  Every value is a plain int in ``[0, q)``; the ``GF``
object holds the inverse and square-root tables, and callers reduce their
own sums and products mod ``q``.  Fields larger than ``MAX_Q`` are refused.
"""

from __future__ import annotations

MAX_Q = 101

# square-class tags
ZERO = "zero"
SQUARE = "square"
NONSQUARE = "nonsquare"


class FieldError(ValueError):
    """Invalid field construction or an undefined field operation."""

    def __init__(self, message: str, code: str = "field"):
        super().__init__(message)
        self.code = code


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class GF:
    """A prime field GF(q) with precomputed inverse and square-root tables."""

    __slots__ = ("q", "char2", "_inv", "_sqrt", "squares")

    def __init__(self, q: int):
        # the bound first: trial division of a huge q would run for hours
        if not isinstance(q, int) or isinstance(q, bool) or not (q > MAX_Q or is_prime(q)):
            raise FieldError(f"{q!r} is not prime", code="not_prime")
        if q > MAX_Q:
            raise FieldError(f"q={q} exceeds the configured bound {MAX_Q}", code="out_of_range")
        self.q = q
        self.char2 = q == 2
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = pow(a, q - 2, q)
        # one preferred root per square value; tables beat per-call pow()
        self._sqrt: dict[int, int] = {}
        for a in range(q):
            self._sqrt.setdefault(a * a % q, a)
        self.squares = frozenset(a * a % q for a in range(1, q))

    # -- arithmetic on ints -------------------------------------------------

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise FieldError("0 has no inverse", code="div_zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.q

    def primitive_root(self) -> int:
        """The least generator of the multiplicative group (1 for q = 2)."""
        q = self.q
        return next(g for g in range(1, q)
                    if len({pow(g, e, q) for e in range(q - 1)}) == q - 1)

    # -- quadratic structure ------------------------------------------------

    def square_class(self, a: int) -> str:
        """Classify ``a`` as zero, a nonzero square, or a nonsquare."""
        if self.char2:
            raise FieldError("no square classes in characteristic 2", code="char2_square_class")
        a %= self.q
        if a == 0:
            return ZERO
        return SQUARE if a in self.squares else NONSQUARE

    def sqrts(self, a: int) -> tuple[int, ...]:
        """All roots of x^2 = a, sorted (0, 1, or 2 of them; 1 in char 2)."""
        a %= self.q
        r = self._sqrt.get(a)
        if r is None:
            return ()
        if r == 0 or self.char2:
            return (r,)
        other = self.q - r
        return (r, other) if r < other else (other, r)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"

