"""Exact monoid-algebra arithmetic over multivariate Laurent polynomials.

Elements are finite formal sums of canonical diagrams with coefficients in
Q[alpha_k^{+-1}, x^{+-1}, y_k^{+-1}, v^{+-1}, a^{+-1}, q^{+-1}].  All
arithmetic is exact; there is no floating point anywhere.

A loop policy converts the loops removed by a diagram product into scalars:

* ``NEGLECT``: every loop contributes 1 (the plain monoid algebra);
* ``ALPHA``: a loop with bead residue p contributes alpha_p (alpha_0 = 1),
  the scalar extension that makes bridge elements well behaved;
* ``XY``: every loop contributes x, and residue p adds y_p (y_0 = 1), the
  framed Temperley-Lieb product rule.

Bridge elements are the 1/d-averaged sums that let beads hop between the two
arcs of a generator's core; ``cap_z`` is the averaged scalar framing that
appears on the right-hand side of their multiplication rules.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

from .diagrams import (
    BeadedDiagram,
    GenSymbol,
    LoopRecord,
    compose,
    erase_beads,
    erase_ties,
)
from .normalform import evaluate_word

NEGLECT = "neglect"
ALPHA = "alpha"
XY = "xy"

LOOP_POLICIES = (NEGLECT, ALPHA, XY)

Scalar = Union[int, Fraction, "LaurentPoly"]


class LaurentPoly:
    """Multivariate Laurent polynomial with exact rational coefficients.

    Stored canonically as ``{monomial: Fraction}`` with monomials as sorted
    ``((var, exp), ...)`` tuples, zero terms dropped; equality is syntactic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    mono = tuple(sorted((v, int(e)) for v, e in mono if e))
                    prev = clean.get(mono)
                    total = coeff if prev is None else prev + coeff
                    if total:
                        clean[mono] = total
                    elif mono in clean:
                        del clean[mono]
        self.terms = clean

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        return cls({(): Fraction(value)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "LaurentPoly":
        return cls({((name, exp),): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = out.get(mono, Fraction(0)) + coeff
            if total:
                out[mono] = total
            elif mono in out:
                del out[mono]
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                total = out.get(mono, Fraction(0)) + c1 * c2
                if total:
                    out[mono] = total
                elif mono in out:
                    del out[mono]
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __rmul__(self, other):
        return self.__mul__(other)

    def substitute(self, subs: Mapping[str, Scalar]) -> "LaurentPoly":
        """Replace variables by exact rationals; unbound variables survive."""
        out = LaurentPoly()
        for mono, coeff in self.terms.items():
            factor = Fraction(coeff)
            left = []
            for var, exp in mono:
                if var in subs:
                    value = Fraction(subs[var])
                    if value == 0 and exp < 0:
                        raise ZeroDivisionError(f"{var}^{exp} at {var}=0")
                    factor *= value ** exp
                else:
                    left.append((var, exp))
            out = out + LaurentPoly({tuple(left): factor})
        return out

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError(f"not a constant: {self.text()}")
        return self.terms[()]

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [str(coeff)]
            factors += [v if e == 1 else f"{v}^{e}" for v, e in mono]
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"LaurentPoly({self.text()})"


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly.const(value)


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for var, exp in m2:
        total = acc.get(var, 0) + exp
        if total:
            acc[var] = total
        elif var in acc:
            del acc[var]
    return tuple(sorted(acc.items()))


ONE = LaurentPoly.const(1)
ZERO = LaurentPoly()


def alpha_var(k: int, d: int) -> LaurentPoly:
    """alpha_k with alpha_0 = 1; the loop scalar of the extended framed algebra."""
    k %= d
    return ONE if k == 0 else LaurentPoly.var(f"alpha{k}")


def y_var(k: int, d: int) -> LaurentPoly:
    k %= d
    return ONE if k == 0 else LaurentPoly.var(f"y{k}")


def x_var() -> LaurentPoly:
    return LaurentPoly.var("x")


def loop_scalar(record: LoopRecord, policy: str, d: int) -> LaurentPoly:
    """Convert removed loops to a coefficient under the given policy."""
    if policy == NEGLECT or record.is_empty:
        return ONE
    out = ONE
    if policy == ALPHA:
        for residue, mult in record.counts:
            term = alpha_var(residue, d)
            for _ in range(mult):
                out = out * term
        return out
    if policy == XY:
        out = out * LaurentPoly.var("x", record.total())
        for residue, mult in record.counts:
            term = y_var(residue, d)
            for _ in range(mult):
                out = out * term
        return out
    raise ValueError(f"unknown loop policy {policy!r}")


class AlgebraElement:
    """Finite formal sum of diagrams of one family under one loop policy."""

    __slots__ = ("fam", "policy", "terms")

    def __init__(self, fam, policy: str, terms: Optional[Mapping] = None):
        if policy not in LOOP_POLICIES:
            raise ValueError(f"unknown loop policy {policy!r}")
        self.fam = fam
        self.policy = policy
        clean: dict[BeadedDiagram, LaurentPoly] = {}
        if terms:
            for diag, coeff in terms.items():
                coeff = _coerce(coeff)
                if not coeff.is_zero:
                    prev = clean.get(diag)
                    total = coeff if prev is None else prev + coeff
                    if total.is_zero:
                        clean.pop(diag, None)
                    else:
                        clean[diag] = total
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, fam, policy: str) -> "AlgebraElement":
        return cls(fam, policy)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "AlgebraElement"):
        if self.fam != other.fam or self.policy != other.policy:
            raise ValueError("elements live in different algebras")

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.fam == other.fam
                and self.policy == other.policy and self.terms == other.terms)

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            out = dict(self.terms)
            for diag, coeff in other.terms.items():
                total = out.get(diag, ZERO) + coeff
                if total.is_zero:
                    out.pop(diag, None)
                else:
                    out[diag] = total
            return AlgebraElement(self.fam, self.policy, out)
        return NotImplemented

    def __neg__(self):
        return AlgebraElement(self.fam, self.policy,
                              {dg: -c for dg, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            if not self.fam.spec.associative:
                raise ValueError(f"products in {self.fam.name} are not associative")
            d = self.fam.d
            drop = self.fam.drop_rook
            out: dict[BeadedDiagram, LaurentPoly] = {}
            for da, ca in self.terms.items():
                for db, cb in other.terms.items():
                    dc, record = compose(da, db, drop_rook=drop)
                    coeff = ca * cb * loop_scalar(record, self.policy, d)
                    total = out.get(dc, ZERO) + coeff
                    if total.is_zero:
                        out.pop(dc, None)
                    else:
                        out[dc] = total
            return AlgebraElement(self.fam, self.policy, out)
        # scalar action
        coeff = _coerce(other)
        return AlgebraElement(self.fam, self.policy,
                              {dg: c * coeff for dg, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return NotImplemented
        return self.__mul__(other)

    def dump(self) -> str:
        """Stable textual rendering: coefficients in fixed monomial order."""
        if not self.terms:
            return "0"
        parts = []
        for diag in sorted(self.terms, key=BeadedDiagram.encode):
            parts.append(f"{self.terms[diag].text()} * [{diag.encode()}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElement({self.dump()})"


def equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Exact equality of canonical coefficient maps."""
    return a == b


def from_diagram(diag: BeadedDiagram, fam, policy: str) -> AlgebraElement:
    return AlgebraElement(fam, policy, {diag: ONE})


def from_word(word, fam, policy: str) -> AlgebraElement:
    """Evaluate a generator word; removed loops feed the policy's scalar."""
    diag, record = evaluate_word(word, fam)
    return AlgebraElement(fam, policy, {diag: loop_scalar(record, policy, fam.d)})


def one(fam, policy: str) -> AlgebraElement:
    return from_word((), fam, policy)


def _averaged(fam, policy: str, word_of_k) -> AlgebraElement:
    d = fam.d
    share = Fraction(1, d)
    terms: dict[BeadedDiagram, LaurentPoly] = {}
    for k in range(d):
        diag, record = evaluate_word(word_of_k(k), fam)
        if not record.is_empty:
            raise ValueError("bridge summands must not close loops")
        prev = terms.get(diag, ZERO)
        terms[diag] = prev + LaurentPoly.const(share)
    return AlgebraElement(fam, policy, terms)


def bridge_e(i: int, j: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k z_j^{-k}: lets beads hop between strands i and j."""
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        GenSymbol("o", i, 0, k), GenSymbol("o", j, 0, (d - k) % d)))


def bridge_e_adj(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    return bridge_e(i, i + 1, fam, policy)


def bridge_f(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k t_i z_i^{-k}: the tied-tangle bridge."""
    if not 1 <= i <= fam.n - 1:
        raise ValueError(f"tangle index {i} out of range")
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        GenSymbol("o", i, 0, k), GenSymbol("t", i), GenSymbol("o", i, 0, (d - k) % d)))


def bridge_q(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k r_i z_i^{-k}: the tied-rook bridge."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"rook index {i} out of range")
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        GenSymbol("o", i, 0, k), GenSymbol("r", i), GenSymbol("o", i, 0, (d - k) % d)))


def bridge_w(i: int, j: int, h: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_j^k p_i z_h^{-k} with j, h <= i."""
    if not (1 <= i <= fam.n and 1 <= j <= i and 1 <= h <= i):
        raise ValueError(f"need j, h <= i <= n, got ({i}, {j}, {h})")
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        GenSymbol("o", j, 0, k), GenSymbol("p", i), GenSymbol("o", h, 0, (d - k) % d)))


def cap_z(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k alpha_k z_i^{-k}: the averaged scalar framing."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"strand index {i} out of range")
    d = fam.d
    share = Fraction(1, d)
    terms: dict[BeadedDiagram, LaurentPoly] = {}
    for k in range(d):
        diag, _ = evaluate_word((GenSymbol("o", i, 0, (d - k) % d),), fam)
        coeff = alpha_var(k, d) * share
        terms[diag] = terms.get(diag, ZERO) + coeff
    return AlgebraElement(fam, policy, terms)


def specialize(elem: AlgebraElement, subs: Optional[Mapping[str, Scalar]] = None,
               *, beads_to_one: bool = False, ties_off: bool = False,
               policy: Optional[str] = None) -> AlgebraElement:
    """Substitute variables and optionally erase beads and/or ties.

    ``beads_to_one`` sends every framing to 1: each basis diagram is mapped
    through ``erase_beads`` and coefficients merge.  ``ties_off`` does the
    same with the tie partition.  ``policy`` retargets the loop policy of the
    resulting element (e.g. the plain monoid algebra after a full
    specialization).
    """
    out: dict[BeadedDiagram, LaurentPoly] = {}
    for diag, coeff in elem.terms.items():
        if subs:
            coeff = coeff.substitute(subs)
        if coeff.is_zero:
            continue
        if beads_to_one:
            diag = erase_beads(diag)
        if ties_off:
            diag = erase_ties(diag)
        total = out.get(diag, ZERO) + coeff
        if total.is_zero:
            out.pop(diag, None)
        else:
            out[diag] = total
    return AlgebraElement(elem.fam, policy or elem.policy, out)


def alpha_to_one(d: int) -> dict[str, int]:
    return {f"alpha{k}": 1 for k in range(1, d)}
