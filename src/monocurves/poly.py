"""Sparse multivariate polynomials over Q, division with recorded quotients."""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, lshift, mul, sub
from typing import Mapping, Sequence

from .orders import MonomialOrder


# ---- exponent vector helpers (plain tuples of nonnegative ints) --------

def exp_add(u, v):
    return tuple(map(add, u, v))


def exp_sub(u, v):
    return tuple(map(sub, u, v))


def exp_lcm(u, v):
    return tuple(a if a > b else b for a, b in zip(u, v))


def exp_divides(u, v):
    """True when the monomial with exponents u divides the one with v."""
    return all(map(le, u, v))


def exp_coprime(u, v):
    # exponents are nonnegative: a * b is zero exactly when one of them is
    return not any(map(mul, u, v))


def weighted_degree(u, weights) -> int:
    return sum(a * w for a, w in zip(u, weights))


# ---- packed module monomials --------------------------------------------------

class MonomialCodec:
    """Module monomials (pos, u) over nvars variables, each packed in one int.

    Exponent u[i] fills the field of bits i*bits and up: a value below
    ``limit`` = 2^(bits-1) topped by a guard bit.  pos sits above the
    fields.  Multiplying by a ring monomial is one integer addition: two
    fields in range sum below twice the limit, so no carry crosses a field,
    and the sum is in range exactly when it sets no guard bit.  (pos, d)
    divides (pos, m) exactly when ((m | guard) - d) & guard == guard: a field
    where d exceeds m borrows its guard bit, and no borrow crosses a field.
    Every packed structure of ``groebner`` and ``resolution`` picks its
    width through ``groebner._widening`` and reruns twice as wide when an
    exponent leaves its field.
    """

    __slots__ = ("bits", "limit", "shift", "guard", "fields", "_offsets", "_struct")

    def __init__(self, nvars: int, bits: int):
        fmt = _FIELD_FORMATS.get(bits)
        self._struct = struct.Struct(f"<{nvars}{fmt}") if fmt else None
        self._offsets = tuple(range(0, nvars * bits, bits))
        self.bits, self.limit = bits, 1 << (bits - 1)
        self.shift = nvars * bits
        self.fields = (1 << self.shift) - 1
        self.guard = sum(self.limit << s for s in self._offsets)

    def pack(self, pos: int, exp) -> int:
        """The int of (pos, exp); OverflowError for an exponent out of range."""
        if exp and max(exp) >= self.limit:
            raise _overflow()
        return sum(map(lshift, exp, self._offsets), pos << self.shift)

    def exponents(self, m: int) -> tuple:
        """The exponent vector of a packed monomial, its position dropped."""
        if self._struct is None:
            mask = (1 << self.bits) - 1
            return tuple((m >> s) & mask for s in self._offsets)
        return self._struct.unpack((m & self.fields).to_bytes(self._struct.size, "little"))

    def unpack(self, m: int):
        return m >> self.shift, self.exponents(m)


# struct codes of the field widths that have one
_FIELD_FORMATS = {16: "H", 32: "I", 64: "Q"}


def _overflow() -> OverflowError:
    return OverflowError("monomial exponent outside its packed field")


def _inverse(c):
    """1/c for a nonzero coefficient, exact: a unit comes back as itself,
    so integer coefficients stay ints until a non-unit divides them."""
    return c if c == 1 or c == -1 else Fraction(1) / c


def _coefficient(c):
    """An int or Fraction coefficient from any rational value (never a
    float or a bool)."""
    if type(c) is int or type(c) is Fraction:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# a variable name that parse_polynomial reads back: ASCII letters, then digits
_VARIABLE = re.compile(r"[A-Za-z]+[0-9]*")


def _check_variables(variables) -> None:
    """ValueError unless the names are distinct and parse_polynomial reads
    each one back."""
    for name in variables:
        if not isinstance(name, str) or not _VARIABLE.fullmatch(name):
            raise ValueError(f"variable {name!r} is not a name")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")


def _check_arity(order: MonomialOrder, variables) -> None:
    if order.nvars != len(variables):
        raise ValueError("order arity does not match ambient")


class Polynomial:
    """Immutable sum of (rational coefficient, exponent vector) terms.

    ``variables`` names the ambient ring: distinct names that
    ``parse_polynomial`` reads back (ValueError otherwise); two polynomials
    interoperate only when their ambients coincide.  Coefficients are exact,
    each an ``int`` or a ``Fraction``: integers stay ints through sums,
    products and divisions by a unit, and a ``Fraction`` appears only after
    a division by a non-unit.  The term map never stores zeros, so
    structural equality of the maps is polynomial equality.  ``leading``
    remembers its answer in one store; threads that race store equal values.
    """

    __slots__ = ("variables", "terms", "_lead")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        variables = tuple(variables)
        _check_variables(variables)
        clean: dict = {}
        n = len(variables)
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {n} variables")
            c = _coefficient(c)
            if c:
                clean[exp] = clean.get(exp, 0) + c
                if not clean[exp]:
                    del clean[exp]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, variables, terms: dict) -> "Polynomial":
        # internal fast path: caller guarantees canonical terms
        self = object.__new__(cls)
        _set_variables(self, variables)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # the remembered leading term holds an order, whose key does not pickle
        return Polynomial, (self.variables, self.terms)

    # ---- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, c) -> "Polynomial":
        variables = tuple(variables)
        c = _coefficient(c)
        return cls._raw(variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def variable(cls, variables, i: int) -> "Polynomial":
        variables = tuple(variables)
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(variables):
            raise ValueError(f"variable index {i!r} out of range for {len(variables)} variables")
        exp = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(variables, {exp: 1})

    @classmethod
    def monomial(cls, variables, exp, coeff=1) -> "Polynomial":
        return cls(variables, {tuple(exp): coeff})

    # ---- basics ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        return poly_to_str(self)

    __str__ = __repr__

    def _check_ambient(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError(f"ambient mismatch: {self.variables} vs {other.variables}")

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def _merge(self, other, op):
        """self + other or self - other, for op ``add`` or ``sub``."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        res = dict(self.terms)
        for exp, c in other.terms.items():
            s = op(res.get(exp, 0), c)
            if s:
                res[exp] = s
            elif exp in res:
                del res[exp]
        return Polynomial._raw(self.variables, res)

    def __neg__(self):
        return Polynomial._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                elif e in res:
                    del res[e]
        return Polynomial._raw(self.variables, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = _coefficient(c)
        if not c:
            return Polynomial.zero(self.variables)
        return Polynomial._raw(self.variables, {e: c * v for e, v in self.terms.items()})

    def times_term(self, coeff, exp) -> "Polynomial":
        """Multiply by a single term coeff * x^exp."""
        coeff = _coefficient(coeff)
        if not coeff:
            return Polynomial.zero(self.variables)
        exp = tuple(exp)
        return Polynomial._raw(self.variables,
                               {exp_add(e, exp): coeff * c for e, c in self.terms.items()})

    # ---- order-dependent views ------------------------------------------

    def leading(self, order: MonomialOrder):
        """(leading exponent vector, leading coefficient) under order,
        remembered until an order other than this object (by identity) asks."""
        lead = getattr(self, "_lead", None)
        if lead is not None and lead[0] is order:
            return lead[1], lead[2]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        _check_arity(order, self.variables)
        exp = max(self.terms, key=order.key)
        c = self.terms[exp]
        _set_lead(self, (order, exp, c))
        return exp, c

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, c = self.leading(order)
        return self if c == 1 else self.scale(_inverse(c))

    # ---- degrees ----------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return -1
        return max(weighted_degree(e, weights) for e in self.terms)

    def is_weighted_homogeneous(self, weights) -> bool:
        degs = {weighted_degree(e, weights) for e in self.terms}
        return len(degs) <= 1

    def sort_key(self):
        """Deterministic comparison key, independent of any monomial order."""
        return tuple(sorted((e, (c.numerator, c.denominator))
                            for e, c in self.terms.items()))


# the slots' own setters: Polynomial.__setattr__ refuses every assignment
_set_variables = Polynomial.variables.__set__
_set_terms = Polynomial.terms.__set__
_set_lead = Polynomial._lead.__set__


# ---- division with transcript -------------------------------------------

@dataclass(frozen=True)
class DivisionRecord:
    """Quotients and remainder of one multivariate division.

    Satisfies dividend = sum(quotients[i] * divisor[i]) + remainder with no
    remainder monomial divisible by a divisor leading monomial, and
    Lm(quotients[i] * divisor[i]) <= Lm(dividend) whenever the product is
    nonzero.  Transcripts flagged ``via_coprime_criterion`` come from the
    closed-form rewriting of an S-pair with coprime leading monomials
    instead of an actual division run.
    """

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial
    via_coprime_criterion: bool = False


def divide(f: Polynomial, divisors: Sequence[Polynomial],
           order: MonomialOrder) -> DivisionRecord:
    """Multivariate division of f by an ordered divisor list.

    Deterministic: each step reduces by the first divisor whose leading
    monomial divides the current one.
    """
    _check_arity(order, f.variables)
    divisors = list(divisors)
    if any(not g for g in divisors):
        raise ValueError("zero divisor")
    for g in divisors:
        if g.variables != f.variables:
            raise ValueError("divisor ambient mismatch")
    leads = [(gexp, _inverse(gc)) for gexp, gc in (g.leading(order) for g in divisors)]
    key = order.key
    p = dict(f.terms)
    quots: list[dict] = [{} for _ in divisors]
    rem: dict = {}
    while p:
        lm = max(p, key=key)
        lc = p[lm]
        for k, (gexp, ginv) in enumerate(leads):
            if exp_divides(gexp, lm):
                qexp = exp_sub(lm, gexp)
                qc = lc * ginv
                quots[k][qexp] = quots[k].get(qexp, 0) + qc
                for mexp, mc in divisors[k].terms.items():
                    t = exp_add(qexp, mexp)
                    s = p.get(t, 0) - qc * mc
                    if s:
                        p[t] = s
                    elif t in p:
                        del p[t]
                break
        else:
            rem[lm] = lc
            del p[lm]
    return DivisionRecord(
        tuple(Polynomial._raw(f.variables, {e: c for e, c in q.items() if c})
              for q in quots),
        Polynomial._raw(f.variables, rem),
    )


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm(Lm f, Lm g)/Lt(f) * f - lcm(Lm f, Lm g)/Lt(g) * g."""
    if not f or not g:
        raise ValueError("S-polynomial of a zero polynomial")
    f._check_ambient(g)
    fexp, fc = f.leading(order)
    gexp, gc = g.leading(order)
    lcm = exp_lcm(fexp, gexp)
    return (f.times_term(_inverse(fc), exp_sub(lcm, fexp))
            - g.times_term(_inverse(gc), exp_sub(lcm, gexp)))


# ---- text form -------------------------------------------------------------

def poly_to_str(f: Polynomial) -> str:
    """Canonical text form; round-trips exactly through parse_polynomial."""
    if not f.terms:
        return "0"
    parts = []
    for exp in sorted(f.terms, reverse=True):
        c = f.terms[exp]
        mon = "*".join(f"{name}^{e}" if e > 1 else name
                       for name, e in zip(f.variables, exp) if e)
        mag = abs(c)
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


_TOKEN = re.compile(rf"\s*([0-9]+|{_VARIABLE.pattern}|\^|\*|\+|-|/)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the grammar emitted by poly_to_str.

    Terms are signed products of factors; a factor is a rational number
    (``3``, ``3/4``) or a variable with optional ``^`` power; ``*`` between
    factors is optional.  Digits are ASCII.  Text outside the grammar raises
    ValueError, never another exception.
    """
    variables = tuple(variables)
    _check_variables(variables)
    index = {name: i for i, name in enumerate(variables)}
    toks = _tokenize(text)
    n = len(variables)
    terms: dict = {}
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos == len(toks):
            raise ValueError("polynomial text ends inside a factor")
        pos += 1
        return toks[pos - 1]

    def parse_int() -> int:
        tok = take()
        if not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return int(tok)

    if not toks:
        raise ValueError("empty polynomial text")
    while pos < len(toks):
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        coeff = sign
        exp = [0] * n
        saw_factor = False
        while True:
            tok = peek()
            if tok is None or tok in ("+", "-"):
                break
            if tok == "*":
                take()
                continue
            if tok.isdigit():
                num = parse_int()
                if peek() == "/":
                    take()
                    den = parse_int()
                    if not den:
                        raise ValueError("zero denominator in polynomial text")
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
            else:
                take()
                if tok not in index:
                    raise ValueError(f"unknown variable {tok!r}")
                e = 1
                if peek() == "^":
                    take()
                    e = parse_int()
                exp[index[tok]] += e
            saw_factor = True
        if not saw_factor:
            raise ValueError("dangling sign in polynomial text")
        key = tuple(exp)
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return Polynomial._raw(variables, terms)
