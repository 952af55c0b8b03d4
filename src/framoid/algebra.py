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

Each distinct loop scalar is built once per ``(record, policy, d)`` and kept
in the ``loop_scalars`` memo; a product shares it, and a product by the unit
returns the other factor itself.  That is safe because no polynomial or
element is ever mutated after construction.  Scalars are exact: ``int``,
``Fraction`` or ``LaurentPoly``; anything else raises ``TypeError``.  A
coefficient keeps the exact type it was given (a ``bool`` becomes an
``int``); ``2`` and ``Fraction(2)`` are equal, hash alike and print alike.

Bridge elements are the 1/d-averaged sums that let beads hop between the two
arcs of a generator's core; ``cap_z`` is the averaged scalar framing that
appears on the right-hand side of their multiplication rules.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable, Mapping, Optional

from .diagrams import (
    BeadedDiagram,
    GenSymbol,
    LoopRecord,
    _Memo,
    compose,
    erase_beads,
    erase_ties,
)
from .normalform import evaluate_word

NEGLECT = "neglect"
ALPHA = "alpha"
XY = "xy"

LOOP_POLICIES = (NEGLECT, ALPHA, XY)


def _accumulate(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add each ``(key, value)`` pair into ``out``, dropping a key whose sum
    is zero.

    The one sparse-sum rule of this module: monomial exponents, polynomial
    coefficients and element coefficients all accumulate through it.
    """
    for key, value in pairs:
        prev = out.get(key)
        total = value if prev is None else prev + value
        if total:
            out[key] = total
        elif prev is not None:
            del out[key]
    return out


def _exact(value):
    """``value`` itself if it is an exact scalar: an ``int`` or a ``Fraction``;
    a ``bool`` or another subclass becomes a plain ``int`` or ``Fraction``."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return int(value) if isinstance(value, int) else Fraction(value)
    raise TypeError(f"not an exact scalar (int or Fraction): {value!r}")


def _exponent(value) -> int:
    """``value`` as an ``int`` if it is an integer exponent."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"not an integer exponent: {value!r}") from None


def _mono(pairs: Iterable[tuple]) -> tuple:
    """Canonical monomial: sorted ``(var, exp)`` pairs, one per variable, no
    zero exponents."""
    return tuple(sorted(_accumulate({}, ((v, _exponent(e)) for v, e in pairs)).items()))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """The product of two canonical monomials."""
    if m1 and m2:
        return tuple(sorted(_accumulate(dict(m1), m2).items()))
    return m1 or m2


class LaurentPoly:
    """Multivariate Laurent polynomial with exact rational coefficients.

    Stored canonically as ``{monomial: coefficient}`` with monomials as sorted
    ``((var, exp), ...)`` tuples (a repeated variable merges, a zero exponent
    drops), zero terms dropped; equality is syntactic.  A coefficient keeps
    the exact type it was given, ``int`` or ``Fraction`` (a ``bool`` becomes
    an ``int``); ``2`` and ``Fraction(2)`` are equal, hash alike and print
    alike.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = _accumulate({}, ((_mono(mono), _exact(coeff))
                                      for mono, coeff in (terms or {}).items()))

    @classmethod
    def _wrap(cls, terms: dict) -> "LaurentPoly":
        """The polynomial of an already-canonical ``terms`` dict."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        value = _exact(value)
        return cls._wrap({(): value} if value else {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "LaurentPoly":
        return cls({((name, exp),): 1})

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
        terms = self.terms
        if not terms or (len(terms) == 1 and () in terms):
            # a constant equals its value, so it hashes as that value
            return hash(terms.get((), 0))
        return hash(tuple(sorted(terms.items())))

    def __add__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return LaurentPoly._wrap(_accumulate(dict(self.terms), _coerce(other).terms.items()))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        # a factor 1 gives the other factor itself; two monomials multiply
        # in one step
        if self is ONE:
            return other
        if other is ONE:
            return self
        left, right = self.terms, other.terms
        if len(left) == 1 and left.get(()) == 1:
            return other
        if len(right) == 1:
            if right.get(()) == 1:
                return self
            if len(left) == 1:
                ((m1, c1),) = left.items()
                ((m2, c2),) = right.items()
                return LaurentPoly._wrap({_mono_mul(m1, m2): c1 * c2})
        return LaurentPoly._wrap(_accumulate({}, (
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in left.items() for m2, c2 in right.items())))

    def __rmul__(self, other):
        return self.__mul__(other)

    def substitute(self, subs: Mapping[str, int | Fraction]) -> "LaurentPoly":
        """Replace variables by exact rationals; unbound variables survive.
        A polynomial with no bound variable is its own result."""
        for value in subs.values():
            _exact(value)
        return self._substitute(subs)

    def _substitute(self, subs: Mapping) -> "LaurentPoly":
        """``substitute`` with ``subs`` already checked."""
        if not any(var in subs for mono in self.terms for var, _ in mono):
            return self

        def terms():
            for mono, coeff in self.terms.items():
                left = []
                for var, exp in mono:
                    if var in subs:
                        value = Fraction(subs[var])
                        if value == 0 and exp < 0:
                            raise ZeroDivisionError(f"{var}^{exp} at {var}=0")
                        coeff *= value ** exp
                    else:
                        left.append((var, exp))
                yield tuple(left), coeff
        return LaurentPoly._wrap(_accumulate({}, terms()))

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


ONE = LaurentPoly.const(1)


def alpha_var(k: int, d: int) -> LaurentPoly:
    """alpha_k with alpha_0 = 1; the loop scalar of the extended framed algebra."""
    k = index(k) % index(d)
    return ONE if k == 0 else LaurentPoly.var(f"alpha{k}")


def y_var(k: int, d: int) -> LaurentPoly:
    k = index(k) % index(d)
    return ONE if k == 0 else LaurentPoly.var(f"y{k}")


def x_var() -> LaurentPoly:
    return LaurentPoly.var("x")


def _loop_scalar(key: tuple) -> LaurentPoly:
    counts, policy, d = key
    name = "alpha" if policy == ALPHA else "y"
    mono = [(f"{name}{p % d}", m) for p, m in counts if p % d]
    if policy == XY:
        mono.append(("x", sum(m for _, m in counts)))
    return LaurentPoly({tuple(mono): 1}) if mono else ONE


_LOOP_SCALARS = _Memo("loop_scalars", _loop_scalar)


def _policy(policy: str) -> str:
    """``policy`` itself if it is a loop policy."""
    if policy not in LOOP_POLICIES:
        raise ValueError(f"unknown loop policy {policy!r}")
    return policy


def _term(diag, fam) -> BeadedDiagram:
    """``diag`` itself if it is a diagram of the family ``fam``."""
    if not (isinstance(diag, BeadedDiagram) and diag.n == fam.n and diag.d == fam.d
            and (diag.ties is not None) == fam.tied):
        raise ValueError(f"term {diag!r} is not a diagram of {fam}")
    return diag


def loop_scalar(record: LoopRecord, policy: str, d: int) -> LaurentPoly:
    """Convert removed loops to a coefficient under the given policy: the one
    monomial prod alpha_p^m (``ALPHA``) or x^total prod y_p^m (``XY``), built
    once per ``(record.counts, policy, d)``."""
    d = index(d)
    if _policy(policy) == NEGLECT or record.is_empty:
        return ONE
    return _LOOP_SCALARS[record.counts, policy, d]


class AlgebraElement:
    """Finite formal sum of diagrams of one family under one loop policy."""

    __slots__ = ("fam", "policy", "terms")

    def __init__(self, fam, policy: str, terms: Optional[Mapping] = None):
        self.fam = fam
        self.policy = _policy(policy)
        self.terms = _accumulate({}, ((_term(diag, fam), _coerce(coeff))
                                      for diag, coeff in (terms or {}).items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "AlgebraElement"):
        if not (self.fam is other.fam or self.fam == other.fam) or self.policy != other.policy:
            raise ValueError("elements live in different algebras")

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.fam == other.fam
                and self.policy == other.policy and self.terms == other.terms)

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            return _element(self.fam, self.policy,
                            _accumulate(dict(self.terms), other.terms.items()))
        return NotImplemented

    def __neg__(self):
        return _element(self.fam, self.policy, {dg: -c for dg, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __mul__(self, other):
        fam, policy = self.fam, self.policy
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            spec = fam.spec
            if not spec.associative:
                raise ValueError(f"products in {fam.name} are not associative")
            d, drop = fam.d, spec.drop_rook
            right = other.terms.items()
            products = []
            for da, ca in self.terms.items():
                for db, cb in right:
                    dc, record = compose(da, db, drop)
                    c = cb if ca is ONE else ca if cb is ONE else ca * cb
                    if record.counts:
                        scalar = loop_scalar(record, policy, d)
                        if scalar is not ONE:
                            c = scalar if c is ONE else c * scalar
                    products.append((dc, c))
            # Q[vars^{+-1}] has no zero divisors: one product is nonzero
            return _element(fam, policy, dict(products) if len(products) < 2
                            else _accumulate({}, products))
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        # scalar action: Q[vars^{+-1}] has no zero divisors
        coeff = _coerce(other)
        return _element(fam, policy,
                        {dg: c * coeff for dg, c in self.terms.items()} if coeff else {})

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


def _element(fam, policy: str, terms: dict) -> AlgebraElement:
    """The element of canonical ``terms`` (no zero coefficient), ``policy`` checked."""
    res = AlgebraElement.__new__(AlgebraElement)
    res.fam, res.policy, res.terms = fam, policy, terms
    return res


def equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Exact equality of canonical coefficient maps."""
    return a == b


def from_diagram(diag: BeadedDiagram, fam, policy: str) -> AlgebraElement:
    return _element(fam, _policy(policy), {_term(diag, fam): ONE})


def from_word(word, fam, policy: str) -> AlgebraElement:
    """Evaluate a generator word; removed loops feed the policy's scalar."""
    diag, record = evaluate_word(word, fam)
    return _element(fam, policy, {diag: loop_scalar(record, policy, fam.d)})


def one(fam, policy: str) -> AlgebraElement:
    return from_word((), fam, policy)


def _averaged(fam, policy: str, summand) -> AlgebraElement:
    """(1/d) sum_k c_k [w_k], where ``summand(k)`` is the pair (w_k, c_k)."""
    share = Fraction(1, fam.d)
    def terms():
        for k in range(fam.d):
            word, coeff = summand(k)
            diag, record = evaluate_word(word, fam)
            if not record.is_empty:
                raise ValueError("bridge summands must not close loops")
            yield diag, coeff * share
    return _element(fam, _policy(policy), _accumulate({}, terms()))


def _conjugated(fam, policy: str, top: int, core: tuple, bottom: int) -> AlgebraElement:
    """(1/d) sum_k z_top^k core z_bottom^{-k}, ``core`` a word of symbols."""
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        (GenSymbol("o", top, 0, k), *core, GenSymbol("o", bottom, 0, (d - k) % d)), ONE))


def bridge_e(i: int, j: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k z_j^{-k}: lets beads hop between strands i and j."""
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    return _conjugated(fam, policy, i, (), j)


def bridge_f(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k t_i z_i^{-k}: the tied-tangle bridge."""
    if not 1 <= i <= fam.n - 1:
        raise ValueError(f"tangle index {i} out of range")
    return _conjugated(fam, policy, i, (GenSymbol("t", i),), i)


def bridge_q(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_i^k r_i z_i^{-k}: the tied-rook bridge."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"rook index {i} out of range")
    return _conjugated(fam, policy, i, (GenSymbol("r", i),), i)


def bridge_w(i: int, j: int, h: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k z_j^k p_i z_h^{-k} with j, h <= i."""
    if not (1 <= i <= fam.n and 1 <= j <= i and 1 <= h <= i):
        raise ValueError(f"need j, h <= i <= n, got ({i}, {j}, {h})")
    return _conjugated(fam, policy, j, (GenSymbol("p", i),), h)


def cap_z(i: int, fam, policy: str = ALPHA) -> AlgebraElement:
    """(1/d) sum_k alpha_k z_i^{-k}: the averaged scalar framing."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"strand index {i} out of range")
    d = fam.d
    return _averaged(fam, policy, lambda k: (
        (GenSymbol("o", i, 0, (d - k) % d),), alpha_var(k, d)))


def specialize(elem: AlgebraElement, subs: Optional[Mapping[str, int | Fraction]] = None,
               *, beads_to_one: bool = False, ties_off: bool = False,
               policy: Optional[str] = None) -> AlgebraElement:
    """Substitute variables and optionally erase beads and/or ties.

    ``beads_to_one`` sends every framing to 1: each basis diagram is mapped
    through ``erase_beads`` and coefficients merge.  ``ties_off`` does the
    same with the tie partition.  ``policy`` retargets the loop policy of the
    resulting element (e.g. the plain monoid algebra after a full
    specialization).
    """
    policy = _policy(policy or elem.policy)
    for value in (subs or {}).values():
        _exact(value)

    def terms():
        for diag, coeff in elem.terms.items():
            if beads_to_one:
                diag = erase_beads(diag)
            if ties_off:
                diag = erase_ties(diag)
            yield diag, coeff._substitute(subs) if subs else coeff
    return _element(elem.fam, policy, _accumulate({}, terms()))


def alpha_to_one(d: int) -> dict[str, int]:
    return {f"alpha{k}": 1 for k in range(1, d)}
