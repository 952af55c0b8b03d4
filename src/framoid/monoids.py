"""Monoid families: generators, closure enumeration, counting, presentations.

Each of the sixteen families of beaded/tied diagram monoids is one
:class:`FamilySpec` entry in ``FAMILIES``: whether broken arcs shed beads and
ties on composition (the rook-style singleton policy), its generator kinds,
its count formula, the relation schemas of its presentation, its normal form
and whether it associates.  Its structural tag, ties and framing are three
properties read off its generator kinds, and the relation schemas are built
over the generators that ``kind_symbols`` lists.  ``FamilySpec`` is a
``NamedTuple`` like the module's other records; :class:`MonoidFamily`, a
family at fixed (d, n), is the one frozen class written out.
``closure`` enumerates a family breadth-first from its generators;
``predicted_cardinality`` gives the exact count by formula;
``check_relations`` instantiates every defining relation of the family's
presentation and compares both sides as diagrams.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import time
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Optional

from .diagrams import (
    PERMUTATION,
    BeadedDiagram,
    CapExceeded,
    GenSymbol,
    _KINDS,
    _Memo,
    _tag_join,
    compose,
    generator,
    identity,
    kind_symbols,
    memo_sizes,
    render_word,
)
from .normalform import NormalFormWord, brauer_nf, evaluate_word, jones_nf, rook_nf

log = logging.getLogger(__name__)


# -- exact combinatorics ------------------------------------------------------

def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def odd_double_factorial(n: int) -> int:
    """(2n-1)!! = 1 * 3 * ... * (2n-1); the number of perfect matchings of 2n points."""
    out = 1
    for m in range(1, 2 * n, 2):
        out *= m
    return out


def fuss_catalan_41(n: int) -> int:
    num = math.comb(4 * n + 1, n)
    assert num % (4 * n + 1) == 0
    return num // (4 * n + 1)


def stirling2(n: int, k: int) -> int:
    """Set partitions of n points into k blocks, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // math.factorial(k)


def _rook_sum(n: int, weight: Callable[[int], int]) -> int:
    """Sum over k of C(n,k)^2 k! weight(k): rook diagrams with k lines, each
    line count weighted."""
    return sum(binomial(n, k) ** 2 * math.factorial(k) * weight(k)
               for k in range(n + 1))


# -- relation schemas -----------------------------------------------------------

Word = tuple[GenSymbol, ...]
Instance = tuple[Word, ...]  # two or more words asserted pairwise equal


class RelationSchema(NamedTuple):
    """One relation template; ``instances(d, n)`` yields tuples of equal words."""

    name: str
    display: str
    instances: Callable[[int, int], Iterable[Instance]]


def S(i):
    return GenSymbol("s", i)


def O(i, k=1):
    return GenSymbol("o", i, 0, k)


def R(i):
    return GenSymbol("r", i)


def P(i):
    return GenSymbol("p", i)


def E(i, j=None):
    return GenSymbol("e", i, i + 1 if j is None else j)


def Q(i):
    return GenSymbol("q", i)


def _swap(i, j):
    """Image of strand j under the transposition (i, i+1)."""
    if j == i:
        return i + 1
    if j == i + 1:
        return i
    return j


# conditions on the indices i, j of two generators
def _near(i, j):
    return abs(i - j) == 1


def _far(i, j):
    return abs(i - j) > 1


def _pairs(x, y, n, cond=None):
    """The pairs of generators of kinds x and y on n strands whose indices
    meet ``cond``."""
    xs, ys = kind_symbols(x, n), kind_symbols(y, n)
    return [(a, b) for a in xs for b in ys if cond is None or cond(a.i, b.i)]


# shape builders: a schema of one shape over every pair of generators of the
# kinds x and y (with indices meeting cond), in the order of kind_symbols

def _commute(name, display, x, y, cond=None):
    """x y = y x; a pair of generators of one kind is listed once."""
    def instances(d, n):
        pairs = itertools.combinations(kind_symbols(x, n), 2) if x == y else _pairs(x, y, n)
        return (((a, b), (b, a)) for a, b in pairs if cond is None or cond(a.i, b.i))
    return RelationSchema(name, display, instances)


def _idempotent(name, display, x):
    """x x = x."""
    return RelationSchema(name, display, lambda d, n: (
        ((a, a), (a,)) for a in kind_symbols(x, n)))


def _absorb(name, display, x, y, cond=None):
    """x y = y x = x."""
    return RelationSchema(name, display, lambda d, n: (
        ((a, b), (b, a), (a,)) for a, b in _pairs(x, y, n, cond)))


def _sandwich(name, display, x, y, cond=None):
    """x y x = x."""
    return RelationSchema(name, display, lambda d, n: (
        ((a, b, a), (a,)) for a, b in _pairs(x, y, n, cond)))


_COXETER = (
    RelationSchema("cross-involution", "s_i s_i = 1", lambda d, n: (
        ((s, s), ()) for s in kind_symbols("s", n))),
    _commute("cross-commute", "s_i s_j = s_j s_i, |i-j| > 1", "s", "s", _far),
    RelationSchema("cross-braid", "s_i s_j s_i = s_j s_i s_j, |i-j| = 1", lambda d, n: (
        ((a, b, a), (b, a, b)) for a, b in itertools.pairwise(kind_symbols("s", n)))),
)


_BEADS = (
    RelationSchema("bead-order", "o_i^d = 1", lambda d, n: (
        ((o._replace(exp=d),), ()) for o in kind_symbols("o", n))),
    _commute("bead-commute", "o_i o_j = o_j o_i", "o", "o"),
)


_BEAD_CROSS = (
    RelationSchema("bead-cross", "o_j s_i = s_i o_{s_i(j)}", lambda d, n: (
        ((o, s), (s, O(_swap(s.i, o.i)))) for s, o in _pairs("s", "o", n))),
)


_TANGLES = (
    _idempotent("tangle-idempotent", "t_i t_i = t_i", "t"),
    _commute("tangle-commute", "t_i t_j = t_j t_i, |i-j| > 1", "t", "t", _far),
    _sandwich("tangle-sandwich", "t_i t_j t_i = t_i, |i-j| = 1", "t", "t", _near),
)


_TANGLE_BEADS = (
    RelationSchema("bead-slide", "t_i o_i = t_i o_{i+1} and o_i t_i = o_{i+1} t_i",
                   lambda d, n: (inst for t in kind_symbols("t", n) for inst in (
                       ((t, O(t.i)), (t, O(t.i + 1))),
                       ((O(t.i), t), (O(t.i + 1), t)),
                   ))),
    _commute("bead-tangle-commute", "o_i t_j = t_j o_i, i != j, j+1", "o", "t",
             lambda i, j: i - j not in (0, 1)),
    RelationSchema("tangle-loop-absorb", "t_i o_i^k t_i = t_i", lambda d, n: (
        ((t, O(t.i, k), t), (t,)) for t in kind_symbols("t", n) for k in range(d))),
)


_BRAUER_MIXED = (
    _absorb("cross-tangle-absorb", "t_i s_i = s_i t_i = t_i", "t", "s", operator.eq),
    _commute("cross-tangle-commute", "t_i s_j = s_j t_i, |i-j| > 1", "t", "s", _far),
    RelationSchema("cross-tangle-slide", "s_i t_j t_i = s_j t_i, |i-j| = 1",
                   lambda d, n: (((S(ti.i), tj, ti), (S(tj.i), ti))
                                 for ti, tj in _pairs("t", "t", n, _near))),
    RelationSchema("tangle-cross-slide", "t_i t_j s_i = t_i s_j, |i-j| = 1",
                   lambda d, n: (((ti, tj, S(ti.i)), (ti, S(tj.i)))
                                 for ti, tj in _pairs("t", "t", n, _near))),
)


def _tie_triples(d, n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                yield ((E(i, j), E(i, k)), (E(i, j), E(j, k)), (E(i, k), E(j, k)))


_PARTITION_TIES = (
    _idempotent("tie-idempotent", "e_{i,j} e_{i,j} = e_{i,j}", "e*"),
    _commute("tie-commute", "e_{i,j} e_{r,s} = e_{r,s} e_{i,j}", "e*", "e*"),
    RelationSchema("tie-triple", "e_{i,j} e_{i,k} = e_{i,j} e_{j,k} = e_{i,k} e_{j,k}",
                   _tie_triples),
)


_PARTITION_BEADS = (
    _commute("bead-tie-commute", "o_k e_{i,j} = e_{i,j} o_k", "o", "e*"),
    RelationSchema("bead-tie-hop", "o_i e_{i,j} = o_j e_{i,j}", lambda d, n: (
        ((O(e.i), e), (O(e.j), e)) for e in kind_symbols("e*", n))),
)


# relations shared by the rook families with and without ties
_ROOK_IDEMPOTENT = _idempotent("rook-idempotent", "r_i r_i = r_i", "r")
_ROOK_COMMUTE = _commute("rook-commute", "r_i r_j = r_j r_i", "r", "r")
_ROOK_SANDWICH = RelationSchema(
    "rook-sandwich", "r_i s_i r_i = r_i r_{i+1}", lambda d, n: (
        ((r, s, r), (r, R(r.i + 1))) for r, s in _pairs("r", "s", n, operator.eq)))
_BEAD_ROOK_COMMUTE = _commute("bead-rook-commute", "r_i o_j = o_j r_i, i != j",
                              "r", "o", operator.ne)
_BEAD_PRODUCT_COMMUTE = _commute("bead-product-commute", "p_i o_j = o_j p_i, j > i",
                                 "p", "o", operator.lt)


_ROOK_R = (
    _ROOK_IDEMPOTENT,
    _ROOK_COMMUTE,
    _commute("rook-cross-commute", "r_j s_i = s_i r_j, j != i, i+1", "r", "s",
             lambda j, i: j - i not in (0, 1)),
    RelationSchema("rook-cross-shift", "r_i s_i = s_i r_{i+1} and r_{i+1} s_i = s_i r_i",
                   lambda d, n: (inst for s in kind_symbols("s", n) for inst in (
                       ((R(s.i), s), (s, R(s.i + 1))),
                       ((R(s.i + 1), s), (s, R(s.i))),
                   ))),
    _ROOK_SANDWICH,
)


_ROOK_P = (
    _idempotent("product-idempotent", "p_i p_i = p_i", "p"),
    _commute("product-commute", "p_i p_j = p_j p_i", "p", "p"),
    _commute("product-cross-commute", "p_i s_j = s_j p_i, j > i", "p", "s", operator.lt),
    RelationSchema("product-cross-absorb", "p_i s_j = p_i, j < i", lambda d, n: (
        ((p, s), (p,)) for p, s in _pairs("p", "s", n, operator.gt))),
    RelationSchema("product-step", "p_i s_i p_i = p_{i+1}", lambda d, n: (
        ((p, s, p), (P(p.i + 1),)) for p, s in _pairs("p", "s", n, operator.eq))),
)


_ROOK_BEADS_FIRST = (
    _BEAD_ROOK_COMMUTE,
    _absorb("bead-rook-absorb", "r_i o_i = o_i r_i = r_i", "r", "o", operator.eq),
    _BEAD_PRODUCT_COMMUTE,
    _absorb("bead-product-absorb", "p_i o_j = o_j p_i = p_i, j <= i", "p", "o",
            operator.ge),
)


def _product_bead_sandwich(d, n):
    # p_i o_1^{m_1} .. o_i^{m_i} p_j = p_j o^m p_i = p_j for i <= j
    ps, os = kind_symbols("p", n), kind_symbols("o", n)
    for a, pi in enumerate(ps):
        for pj in ps[a:]:
            for ms in itertools.product(range(d), repeat=pi.i):
                beads = tuple(o._replace(exp=m) for o, m in zip(os, ms) if m)
                yield (pi,) + beads + (pj,), (pj,) + beads + (pi,), (pj,)


_ROOK_BEADS_PRIME = (
    _BEAD_ROOK_COMMUTE,
    RelationSchema("rook-loop-absorb", "r_i o_i^k r_i = r_i", lambda d, n: (
        ((r, O(r.i, k), r), (r,)) for r in kind_symbols("r", n) for k in range(d))),
    _BEAD_PRODUCT_COMMUTE,
    RelationSchema("product-bead-sandwich",
                   "p_i o_1^{m_1}..o_i^{m_i} p_j = p_j o^m p_i = p_j, i <= j",
                   _product_bead_sandwich),
)


_TIES = (
    _idempotent("tie-idempotent", "e_i e_i = e_i", "e"),
    _commute("tie-commute", "e_i e_j = e_j e_i", "e", "e"),
)


_TIE_CROSS = _TIES + (
    _commute("tie-cross-commute", "s_i e_j = e_j s_i, |i-j| != 1", "s", "e",
             lambda i, j: not _near(i, j)),
    RelationSchema("tie-cross-slide", "e_i s_j s_i = s_j s_i e_j, |i-j| = 1",
                   lambda d, n: (((E(si.i), sj, si), (sj, si, E(sj.i)))
                                 for si, sj in _pairs("s", "s", n, _near))),
    RelationSchema("tie-cross-triple",
                   "e_i e_j s_i = e_j s_i e_j = s_i e_i e_j, |i-j| = 1",
                   lambda d, n: (((ei, ej, S(ei.i)), (ej, S(ei.i), ej), (S(ei.i), ei, ej))
                                 for ei, ej in _pairs("e", "e", n, _near))),
)


_TIED_JONES = (
    _idempotent("tiedtangle-idempotent", "f_i f_i = f_i", "f"),
    _commute("tiedtangle-commute", "f_i f_j = f_j f_i, |i-j| > 1", "f", "f", _far),
    _absorb("tie-tangle-absorb", "e_i t_i = t_i e_i = t_i", "t", "e", operator.eq),
    RelationSchema("tiedtangle-tie-absorb", "f_i e_i = f_i", lambda d, n: (
        ((f, e), (f,)) for f, e in _pairs("f", "e", n, operator.eq))),
    _commute("tie-tiedtangle-commute", "e_i f_j = f_j e_i", "e", "f"),
    _absorb("tangle-tiedtangle-absorb", "t_i f_i = f_i t_i = t_i", "t", "f", operator.eq),
    _commute("tangle-tie-commute", "t_i e_j = e_j t_i, |i-j| > 1", "t", "e", _far),
    _commute("tangle-tiedtangle-commute", "t_i f_j = f_j t_i, |i-j| > 1", "t", "f", _far),
    _sandwich("tie-sandwich", "t_i e_j t_i = t_i, |i-j| = 1", "t", "e", _near),
    RelationSchema("tiedtangle-hop", "f_i e_j = e_j t_i e_j, |i-j| = 1", lambda d, n: (
        ((f, e), (e, f._replace(kind="t"), e)) for f, e in _pairs("f", "e", n, _near))),
)


_TIED_BRAUER = (
    _commute("tiedtangle-cross-commute", "f_i s_j = s_j f_i, |i-j| > 1", "f", "s", _far),
    _absorb("cross-tiedtangle-absorb", "f_i s_i = s_i f_i = f_i", "f", "s", operator.eq),
    RelationSchema("tiedtangle-conjugate", "s_i f_j s_i = s_j f_i s_j, |i-j| = 1",
                   lambda d, n: (((S(fj.i), fi, S(fj.i)), (S(fi.i), fj, S(fi.i)))
                                 for fi, fj in _pairs("f", "f", n, _near))),
)


_TIED_ROOK_FIRST = (
    _absorb("tie-product-absorb", "e_i p_j = p_j e_i = p_j, i <= j", "p", "e",
            operator.ge),
    _commute("tie-product-commute", "e_i p_j = p_j e_i, i > j", "e", "p", operator.gt),
)


_TIED_ROOK_PRIME = (
    _ROOK_IDEMPOTENT,
    _ROOK_COMMUTE,
    RelationSchema("cross-rook-slide", "s_i r_j = r_{s_i(j)} s_i", lambda d, n: (
        ((s, r), (R(_swap(s.i, r.i)), s)) for s, r in _pairs("s", "r", n))),
    _ROOK_SANDWICH,
    _idempotent("tiedrook-idempotent", "q_i q_i = q_i", "q"),
    _commute("tiedrook-commute", "q_i q_j = q_j q_i", "q", "q"),
    _commute("tiedrook-tie-commute", "q_i e_j = e_j q_i", "q", "e"),
    RelationSchema("cross-tiedrook-slide", "s_i q_j = q_{s_i(j)} s_i", lambda d, n: (
        ((s, q), (Q(_swap(s.i, q.i)), s)) for s, q in _pairs("s", "q", n))),
    RelationSchema("tie-rook-sandwich", "e_i r_j e_i = e_i q_j, j = i, i+1",
                   lambda d, n: (((e, r, e), (e, Q(r.i))) for e, r in _pairs(
                       "e", "r", n, lambda i, j: j - i in (0, 1)))),
    _commute("tie-rook-commute", "e_i r_j = r_j e_i, j != i, i+1", "e", "r",
             lambda i, j: j - i not in (0, 1)),
    _commute("rook-tiedrook-commute", "r_i q_j = q_j r_i", "r", "q"),
    RelationSchema("tiedrook-absorb", "q_i r_i = r_i", lambda d, n: (
        ((q, r), (r,)) for q, r in _pairs("q", "r", n, operator.eq))),
    _sandwich("rook-tie-collapse", "r_j e_i r_j = r_j, j = i, i+1", "r", "e",
              lambda j, i: j - i in (0, 1)),
    RelationSchema("rook-tie-shift", "r_i e_i r_{i+1} = s_i q_i r_{i+1}", lambda d, n: (
        ((R(s.i), E(s.i), R(s.i + 1)), (s, Q(s.i), R(s.i + 1)))
        for s in kind_symbols("s", n))),
)


# -- family registry ------------------------------------------------------------

class FamilySpec(NamedTuple):
    """The registry entry of one family, for every (d, n), and the three facts
    its generator kinds give: ``tied``, ``tag`` and ``framed``."""

    drop_rook: bool                           # broken arcs shed beads and ties
    generators: tuple[str, ...]               # generator kinds, see kind_symbols
    count: Callable[[int, int], int]          # (d, n) -> element count; shadows tuple.count
    schemas: tuple[RelationSchema, ...]       # the presentation, in report order
    # entries call their normal form through this module's global name, so a
    # rebinding of that name (as perfbench's tracer does) takes effect
    normal_form: Optional[Callable[[BeadedDiagram], NormalFormWord]] = None
    associative: bool = True

    @property
    def tied(self) -> bool:
        """Some generator kind ties points."""
        return any(_KINDS[kind[0]].unties is not None for kind in self.generators)

    @property
    def tag(self) -> str:
        """The join of the generator kinds' tags; permutation for beads and ties alone."""
        tags = {_KINDS[kind[0]].tag for kind in self.generators} - {None}
        return reduce(_tag_join, tags or {PERMUTATION})

    @property
    def framed(self) -> bool:
        """The family has the bead kind ``o``, so a framing parameter d."""
        return "o" in self.generators


FAMILIES: dict[str, FamilySpec] = {
    "cdn": FamilySpec(
        False, ("o",),
        lambda d, n: d ** n,
        _BEADS),
    "sdn": FamilySpec(
        False, ("s", "o"),
        lambda d, n: d ** n * math.factorial(n),
        _BEADS + _COXETER + _BEAD_CROSS),
    "pn": FamilySpec(
        False, ("e*",),
        lambda d, n: bell(n),
        _PARTITION_TIES),
    "pdn": FamilySpec(
        False, ("e*", "o"),
        lambda d, n: sum(stirling2(n, k) * d ** k for k in range(1, n + 1)),
        _PARTITION_TIES + _BEADS + _PARTITION_BEADS),
    "jn": FamilySpec(
        False, ("t",),
        lambda d, n: catalan(n),
        _TANGLES,
        lambda x: jones_nf(x)),
    "jdn": FamilySpec(
        False, ("t", "o"),
        lambda d, n: d ** n * catalan(n),
        _TANGLES + _BEADS + _TANGLE_BEADS,
        lambda x: jones_nf(x)),
    "brn": FamilySpec(
        False, ("s", "t"),
        lambda d, n: odd_double_factorial(n),
        _TANGLES + _COXETER + _BRAUER_MIXED,
        lambda x: brauer_nf(x)),
    "brdn": FamilySpec(
        False, ("s", "t", "o"),
        lambda d, n: d ** n * odd_double_factorial(n),
        _TANGLES + _COXETER + _BRAUER_MIXED + _BEADS + _TANGLE_BEADS + _BEAD_CROSS,
        lambda x: brauer_nf(x)),
    "rn": FamilySpec(
        False, ("s", "r"),
        lambda d, n: _rook_sum(n, lambda k: 1),
        _COXETER + _ROOK_R + _ROOK_P,
        lambda x: rook_nf(x, "first")),
    "rdn": FamilySpec(
        True, ("s", "r", "o"),
        lambda d, n: _rook_sum(n, lambda k: d ** k),
        _COXETER + _ROOK_R + _ROOK_P + _BEADS + _BEAD_CROSS + _ROOK_BEADS_FIRST,
        lambda x: rook_nf(x, "first")),
    "rprimedn": FamilySpec(
        False, ("s", "r", "o"),
        lambda d, n: _rook_sum(n, lambda k: d ** (2 * n - k)),
        _COXETER + _ROOK_R + _ROOK_P + _BEADS + _BEAD_CROSS + _ROOK_BEADS_PRIME,
        lambda x: rook_nf(x, "prime")),
    "tsn": FamilySpec(
        False, ("s", "e"),
        lambda d, n: math.factorial(n) * bell(n),
        _COXETER + _TIE_CROSS),
    "tjn": FamilySpec(
        False, ("t", "e", "f"),
        lambda d, n: fuss_catalan_41(n),
        _TANGLES + _TIES + _TIED_JONES),
    "tbrn": FamilySpec(
        False, ("s", "t", "e", "f"),
        lambda d, n: odd_double_factorial(n) * bell(n),
        _TANGLES + _COXETER + _BRAUER_MIXED + _TIE_CROSS + _TIED_JONES + _TIED_BRAUER),
    # ties here shed at free points; only the literal defining relations are
    # declared (adding the crossing-tie braid laws would let a broken arc
    # absorb every tie, collapsing the k!*Bell(k) count).  No product on this
    # element set associates: see test_tie_shedding_composition_is_not_associative
    "trn": FamilySpec(
        True, ("s", "p", "e"),
        lambda d, n: _rook_sum(n, bell),
        _COXETER + _ROOK_P + _TIES + _TIED_ROOK_FIRST,
        associative=False),
    "trprimen": FamilySpec(
        False, ("s", "r", "e", "q"),
        lambda d, n: _rook_sum(n, lambda k: bell(2 * n - k)),
        _COXETER + _TIE_CROSS + _TIED_ROOK_PRIME),
}

FAMILY_NAMES = tuple(FAMILIES)


class MonoidFamily:
    """A named diagram monoid at fixed parameters (d, n): frozen, equal to its own
    class only, and hashed, shown and pickled by ``(name, n, d)``.  It stores its
    ``spec`` and the facts every product reads: ``tied``, ``tag`` and ``drop_rook``."""

    __slots__ = ("name", "n", "d", "spec", "tied", "tag", "drop_rook")

    def __init__(self, name: str, n: int, d: int = 1):
        spec = FAMILIES.get(name)
        if spec is None:
            raise ValueError(f"unknown family {name!r}")
        try:
            n, d = operator.index(n), operator.index(d)
        except TypeError:
            raise ValueError("n and d must be integers") from None
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if not spec.framed and d != 1:
            raise ValueError(f"family {name} has no framing parameter")
        for slot, value in zip(self.__slots__, (name, n, d, spec, spec.tied, spec.tag,
                                                spec.drop_rook)):
            object.__setattr__(self, slot, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (self.name, self.n, self.d) == (other.name, other.n, other.d)

    def __hash__(self):
        return hash((self.name, self.n, self.d))

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, n={self.n!r}, d={self.d!r})"

    def __reduce__(self):
        return type(self), (self.name, self.n, self.d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __str__(self):
        if self.spec.framed:
            return f"{self.name}(d={self.d},n={self.n})"
        return f"{self.name}(n={self.n})"


def family(name: str, n: int, d: int = 1) -> MonoidFamily:
    return MonoidFamily(name.lower() if isinstance(name, str) else name, n, d)


def generating_symbols(fam: MonoidFamily) -> tuple[GenSymbol, ...]:
    return tuple(sym for kind in fam.spec.generators
                 for sym in kind_symbols(kind, fam.n))


def generating_set(fam: MonoidFamily) -> tuple[BeadedDiagram, ...]:
    """The generator diagrams of the family, in declaration order."""
    return tuple(generator(sym, fam.n, fam.d, fam.tied, fam.tag)
                 for sym in generating_symbols(fam))


# closure results, one per family; closure stores them itself, since a fresh
# enumeration stops at its cap, and closure.cache_clear() empties them
_CLOSURES = _Memo("closures", None)

DEFAULT_CAP = 1_000_000


def closure(fam: MonoidFamily, cap: int = DEFAULT_CAP) -> tuple[BeadedDiagram, ...]:
    """All elements of the family: breadth-first closure of the generators.

    Deterministic: the result is sorted by canonical encoding.  Raises
    :class:`CapExceeded` if more than ``cap`` elements, the identity among
    them, appear.  Results are cached per family, whatever the cap: a cached
    closure larger than ``cap`` raises as a fresh enumeration does.
    """
    elems = _CLOSURES.get(fam)
    if elems is None:
        elems = _CLOSURES[fam] = _enumerate(fam, cap)
    if len(elems) > cap:
        raise CapExceeded(f"closure of {fam} exceeded cap {cap}")
    return elems


closure.cache_clear = _CLOSURES.clear


def _enumerate(fam: MonoidFamily, cap: int) -> tuple[BeadedDiagram, ...]:
    gens = generating_set(fam)
    drop_rook = fam.drop_rook
    start = identity(fam.n, fam.d, tied=fam.tied, tag=fam.tag)
    seen = {start}
    frontier = [start]
    debug = log.isEnabledFor(logging.DEBUG)
    log.info("closure %s: start", fam)
    began = time.perf_counter()
    level = 0
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y, _ = compose(x, g, drop_rook)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure of {fam} exceeded cap {cap}")
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
        level += 1
        if debug:
            elapsed = time.perf_counter() - began
            memos = ("" if fresh else
                     ", memos: %(shapes)d shapes, %(plans)d plans, %(ties)d ties" % memo_sizes())
            log.debug("closure %s: level %d, %d new, %d total, %.0f elements/s%s",
                      fam, level, len(fresh), len(seen), len(seen) / elapsed, memos)
    elems = tuple(sorted(seen, key=BeadedDiagram.encode))
    log.info("closure %s: %d elements in %.0f ms", fam, len(elems),
             (time.perf_counter() - began) * 1000)
    return elems


def predicted_cardinality(fam: MonoidFamily) -> int:
    """Exact element count of the family, by closed formula."""
    return fam.spec.count(fam.d, fam.n)


# -- relation checks --------------------------------------------------------------

class SchemaResult(NamedTuple):
    name: str
    display: str
    checked: int
    failures: tuple[str, ...]
    ms: float = 0.0   # time to check every instance; not compared or hashed

    def __eq__(self, other):   # never equal to a plain tuple
        return other.__class__ is self.__class__ and self[:4] == other[:4]

    __ne__ = object.__ne__   # tuple's own would compare ms

    def __hash__(self):
        return hash(self[:4])


class RelationReport(NamedTuple):
    family: MonoidFamily
    entries: tuple[SchemaResult, ...]

    @property
    def passed(self) -> bool:
        return all(not e.failures for e in self.entries)

    @property
    def checked(self) -> int:
        return sum(e.checked for e in self.entries)

    def failures(self) -> list[str]:
        out = []
        for e in self.entries:
            out.extend(f"{e.name}: {w}" for w in e.failures)
        return out


def check_relations(fam: MonoidFamily,
                    extra_schemas: Iterable[RelationSchema] = ()) -> RelationReport:
    """Evaluate every relation instance of the family's presentation.

    Both sides of every instance are evaluated as diagrams (loop records are
    discarded at monoid level) and compared canonically.  Failing instances
    are reported with witness words; extra schemas can be injected, e.g. as
    negative controls.
    """
    entries = []
    for schema in fam.spec.schemas + tuple(extra_schemas):
        t0 = time.perf_counter()
        checked = 0
        failures = []
        for words in schema.instances(fam.d, fam.n):
            checked += 1
            base = evaluate_word(words[0], fam)[0]
            for other_word in words[1:]:
                other = evaluate_word(other_word, fam)[0]
                if other != base:
                    failures.append(
                        f"{render_word(words[0]) or '1'} -> {base.encode()}"
                        f"  !=  {render_word(other_word) or '1'} -> {other.encode()}")
        entries.append(SchemaResult(schema.name, schema.display, checked, tuple(failures),
                                    (time.perf_counter() - t0) * 1000))
    return RelationReport(fam, tuple(entries))


def default_grid() -> list[MonoidFamily]:
    """The standard desk-scale test grid, largest jobs last."""
    grid: list[MonoidFamily] = []
    for n in range(1, 6):
        grid.append(family("pn", n))
        grid.append(family("jn", n))
        for d in (1, 2, 3):
            grid.append(family("cdn", n, d))
            grid.append(family("sdn", n, d))
            grid.append(family("pdn", n, d))
            grid.append(family("jdn", n, d))
    for n in range(1, 5):
        grid.append(family("brn", n))
        grid.append(family("rn", n))
        for d in (1, 2):
            grid.append(family("brdn", n, d))
            grid.append(family("rdn", n, d))
            grid.append(family("rprimedn", n, d))
    for n in range(1, 5):
        for name in ("tsn", "tjn", "tbrn", "trn", "trprimen"):
            grid.append(family(name, n))
    return grid
