"""The block elimination order, kept for the test oracles.

Only ``kernel_oracle.elimination_kernel`` ranks monomials by it: lex on the
first ``elim`` variables of perm, then weighted grevlex on the remaining
block.  It is a ``MonomialOrder`` with its own key, each entry linear in
u, so ``Polynomial.leading``, ``divide`` and ``integer_key`` take it like
any library order.
"""

from __future__ import annotations

from dataclasses import dataclass

from monocurves import MonomialOrder


@dataclass(frozen=True)
class EliminationOrder(MonomialOrder):
    elim: int = 1

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("order needs at least one variable")
        if sorted(self.perm) != list(range(self.nvars)):
            raise ValueError(f"perm must permute 0..{self.nvars - 1}, got {self.perm}")
        if self.weights is not None and (len(self.weights) != self.nvars
                                         or any(w < 1 for w in self.weights)):
            raise ValueError("weights must be positive, one per variable")
        if not 0 < self.elim < self.nvars:
            raise ValueError("elim block must be a proper nonempty prefix")
        object.__setattr__(self, "key", self._build_key())

    def _build_key(self):
        head, tail = self.perm[:self.elim], self.perm[self.elim:]
        tw = tuple((i, self.weights[i] if self.weights else 1) for i in tail)
        rev = tuple(reversed(tail))
        return lambda u: (*(u[i] for i in head),
                          sum(u[i] * wi for i, wi in tw),
                          *(-u[i] for i in rev))

    @property
    def degree_compatible(self) -> bool:
        return False


def elimination(nvars: int, elim: int = 1, weights=None, perm=None) -> EliminationOrder:
    """Block order eliminating the first ``elim`` variables of perm."""
    return EliminationOrder("elim", nvars, tuple(perm) if perm else tuple(range(nvars)),
                            tuple(weights) if weights is not None else None, elim)
