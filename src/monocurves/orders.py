"""Monomial orders: total, multiplicative well-orders on exponent vectors."""

from __future__ import annotations

from dataclasses import dataclass

_KINDS = ("lex", "grlex", "grevlex", "weighted")


@dataclass(frozen=True)
class MonomialOrder:
    """Comparison rule for monomials given by their exponent vectors.

    ``perm`` lists variable indices from highest to lowest priority, so
    lex with perm=(2, 1, 0, 3) is the order induced by x2 > x1 > x0 > x3.
    Kinds:

      lex       lexicographic along perm
      grlex     total degree first, ties lex along perm
      grevlex   total degree first, ties reverse-lex
      weighted  weighted degree first (positive int weights), ties reverse-lex

    Every kind is a total order with 1 as the least monomial and is
    compatible with multiplication, which is what division and Buchberger
    loops need to terminate.  The order is its key function: u < v exactly
    when key(u) < key(v).  Every entry of the key is a linear form in u,
    which is what ``integer_key`` reads off it.
    """

    kind: str
    nvars: int
    perm: tuple[int, ...]
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.nvars < 1:
            raise ValueError("order needs at least one variable")
        if sorted(self.perm) != list(range(self.nvars)):
            raise ValueError(f"perm must permute 0..{self.nvars - 1}, got {self.perm}")
        if self.weights is not None:
            if len(self.weights) != self.nvars:
                raise ValueError("weights length must match variable count")
            if any(type(w) is not int or w < 1 for w in self.weights):
                raise ValueError("weights must be positive integers")
        if self.kind == "weighted" and self.weights is None:
            raise ValueError("weighted order needs weights")
        object.__setattr__(self, "key", self._build_key())

    def __reduce__(self):
        # the key is a closure, which does not pickle; it is rebuilt
        return MonomialOrder, (self.kind, self.nvars, self.perm, self.weights)

    # ---- constructors -------------------------------------------------

    @classmethod
    def lex(cls, nvars: int, perm: tuple[int, ...] | None = None) -> "MonomialOrder":
        return cls("lex", nvars, tuple(perm) if perm else tuple(range(nvars)))

    @classmethod
    def grlex(cls, nvars: int, perm: tuple[int, ...] | None = None) -> "MonomialOrder":
        return cls("grlex", nvars, tuple(perm) if perm else tuple(range(nvars)))

    @classmethod
    def grevlex(cls, nvars: int, perm: tuple[int, ...] | None = None) -> "MonomialOrder":
        return cls("grevlex", nvars, tuple(perm) if perm else tuple(range(nvars)))

    @classmethod
    def weighted(cls, weights, perm: tuple[int, ...] | None = None) -> "MonomialOrder":
        """Weighted-degree order with reverse-lex tie break."""
        weights = tuple(weights)
        n = len(weights)
        return cls("weighted", n, tuple(perm) if perm else tuple(range(n)), weights)

    # ---- key function -------------------------------------------------

    def _build_key(self):
        perm = self.perm
        if self.kind == "lex":
            return lambda u: tuple(u[i] for i in perm)
        if self.kind == "grlex":
            return lambda u: (sum(u), *(u[i] for i in perm))
        if self.kind == "grevlex":
            rev = tuple(reversed(perm))
            return lambda u: (sum(u), *(-u[i] for i in rev))
        w = self.weights
        rev = tuple(reversed(perm))
        return lambda u: (sum(u[i] * wi for i, wi in enumerate(w)),
                          *(-u[i] for i in rev))

    def integer_key(self, bounds) -> tuple[int, ...]:
        """Coefficients c of the integer key sum(c[i] * u[i]), which orders
        the exponent vectors with 0 <= u[i] < bounds[i] exactly as ``key``.

        Every entry of ``key`` is a linear form in u, so entry j of the key
        of the unit vector e_i is the coefficient of u[i] in form j.  The
        first nvars forms already determine u.  They are packed in mixed
        radix, each form's radix exceeding its spread over the box, so the
        integers compare as the tuples do.  The key is linear: the key of a
        product is the sum of the keys.
        """
        n = self.nvars
        forms = list(zip(*(self.key(tuple(int(k == i) for k in range(n))) for i in range(n))))
        coeffs = [0] * n
        scale = 1
        for form in reversed(forms[:n]):
            for i, a in enumerate(form):
                coeffs[i] += a * scale
            scale *= 1 + sum(abs(a) * (b - 1) for a, b in zip(form, bounds))
        return tuple(coeffs)

    @property
    def degree_compatible(self) -> bool:
        """True when the order refines total degree (needed to homogenize)."""
        if self.kind in ("grlex", "grevlex"):
            return True
        if self.kind == "weighted":
            return len(set(self.weights)) == 1
        return False
