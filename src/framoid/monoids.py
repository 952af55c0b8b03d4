"""Monoid families: generators, closure enumeration, counting, presentations.

Each of the sixteen families of beaded/tied diagram monoids is one
:class:`FamilySpec` entry in ``FAMILIES``: its display name, whether its
elements carry ties, its structural tag, whether broken arcs shed beads and
ties on composition (the rook-style singleton policy), its generator kinds,
its count formula, the relation schemas of its presentation and its normal
form.  ``closure`` enumerates a family breadth-first from its generators;
``predicted_cardinality`` gives the exact count by formula;
``check_relations`` instantiates every defining relation of the family's
presentation and compares both sides as diagrams.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .diagrams import (
    MATCHING,
    PERMUTATION,
    PLANAR,
    BeadedDiagram,
    CapExceeded,
    GenSymbol,
    compose,
    generator,
    identity,
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


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(binomial(n - 1, k) * bell(k) for k in range(n))


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


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def _rook_sum(n: int, weight: Callable[[int], int]) -> int:
    """Sum over k of C(n,k)^2 k! weight(k): rook diagrams with k lines, each
    line count weighted."""
    return sum(binomial(n, k) ** 2 * math.factorial(k) * weight(k)
               for k in range(n + 1))


# -- relation schemas -----------------------------------------------------------

Word = tuple[GenSymbol, ...]
Instance = tuple[Word, ...]  # two or more words asserted pairwise equal


@dataclass(frozen=True)
class RelationSchema:
    """One relation template; ``instances(d, n)`` yields tuples of equal words."""

    name: str
    display: str
    instances: Callable[[int, int], Iterable[Instance]]


def T(i):
    return GenSymbol("t", i)


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


def F(i):
    return GenSymbol("f", i)


def Q(i):
    return GenSymbol("q", i)


def _swap(i, j):
    """Image of strand j under the transposition (i, i+1)."""
    if j == i:
        return i + 1
    if j == i + 1:
        return i
    return j


_COXETER = (
    RelationSchema("cross-involution", "s_i s_i = 1", lambda d, n: (
        ((S(i), S(i)), ()) for i in range(1, n))),
    RelationSchema("cross-commute", "s_i s_j = s_j s_i, |i-j| > 1", lambda d, n: (
        ((S(i), S(j)), (S(j), S(i)))
        for i in range(1, n) for j in range(i + 2, n))),
    RelationSchema("cross-braid", "s_i s_j s_i = s_j s_i s_j, |i-j| = 1", lambda d, n: (
        ((S(i), S(i + 1), S(i)), (S(i + 1), S(i), S(i + 1)))
        for i in range(1, n - 1))),
)


_BEADS = (
    RelationSchema("bead-order", "o_i^d = 1", lambda d, n: (
        ((O(i, d),), ()) for i in range(1, n + 1))),
    RelationSchema("bead-commute", "o_i o_j = o_j o_i", lambda d, n: (
        ((O(i), O(j)), (O(j), O(i)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1))),
)


_BEAD_CROSS = (
    RelationSchema("bead-cross", "o_j s_i = s_i o_{s_i(j)}", lambda d, n: (
        ((O(j), S(i)), (S(i), O(_swap(i, j))))
        for i in range(1, n) for j in range(1, n + 1))),
)


_TANGLES = (
    RelationSchema("tangle-idempotent", "t_i t_i = t_i", lambda d, n: (
        ((T(i), T(i)), (T(i),)) for i in range(1, n))),
    RelationSchema("tangle-commute", "t_i t_j = t_j t_i, |i-j| > 1", lambda d, n: (
        ((T(i), T(j)), (T(j), T(i)))
        for i in range(1, n) for j in range(i + 2, n))),
    RelationSchema("tangle-sandwich", "t_i t_j t_i = t_i, |i-j| = 1", lambda d, n: (
        ((T(i), T(j), T(i)), (T(i),))
        for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
)


_TANGLE_BEADS = (
    RelationSchema("bead-slide", "t_i o_i = t_i o_{i+1} and o_i t_i = o_{i+1} t_i",
                   lambda d, n: (inst for i in range(1, n) for inst in (
                       ((T(i), O(i)), (T(i), O(i + 1))),
                       ((O(i), T(i)), (O(i + 1), T(i))),
                   ))),
    RelationSchema("bead-tangle-commute", "o_i t_j = t_j o_i, i != j, j+1",
                   lambda d, n: (
                       ((O(i), T(j)), (T(j), O(i)))
                       for j in range(1, n) for i in range(1, n + 1)
                       if i not in (j, j + 1))),
    RelationSchema("tangle-loop-absorb", "t_i o_i^k t_i = t_i", lambda d, n: (
        ((T(i), O(i, k), T(i)), (T(i),))
        for i in range(1, n) for k in range(d))),
)


_BRAUER_MIXED = (
    RelationSchema("cross-tangle-absorb", "t_i s_i = s_i t_i = t_i", lambda d, n: (
        ((T(i), S(i)), (S(i), T(i)), (T(i),)) for i in range(1, n))),
    RelationSchema("cross-tangle-commute", "t_i s_j = s_j t_i, |i-j| > 1",
                   lambda d, n: (
                       inst for i in range(1, n) for j in range(1, n) if abs(i - j) > 1
                       for inst in (((T(i), S(j)), (S(j), T(i))),))),
    RelationSchema("cross-tangle-slide", "s_i t_j t_i = s_j t_i, |i-j| = 1",
                   lambda d, n: (
                       ((S(i), T(j), T(i)), (S(j), T(i)))
                       for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
    RelationSchema("tangle-cross-slide", "t_i t_j s_i = t_i s_j, |i-j| = 1",
                   lambda d, n: (
                       ((T(i), T(j), S(i)), (T(i), S(j)))
                       for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
)


def _tie_triples(d, n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                yield ((E(i, j), E(i, k)), (E(i, j), E(j, k)), (E(i, k), E(j, k)))


_PARTITION_TIES = (
    RelationSchema("tie-idempotent", "e_{i,j} e_{i,j} = e_{i,j}", lambda d, n: (
        ((E(i, j), E(i, j)), (E(i, j),))
        for i in range(1, n + 1) for j in range(i + 1, n + 1))),
    RelationSchema("tie-commute", "e_{i,j} e_{r,s} = e_{r,s} e_{i,j}", lambda d, n: (
        ((E(i, j), E(r, s)), (E(r, s), E(i, j)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
        for r in range(1, n + 1) for s in range(r + 1, n + 1)
        if (i, j) < (r, s))),
    RelationSchema("tie-triple", "e_{i,j} e_{i,k} = e_{i,j} e_{j,k} = e_{i,k} e_{j,k}",
                   _tie_triples),
)


_PARTITION_BEADS = (
    RelationSchema("bead-tie-commute", "o_k e_{i,j} = e_{i,j} o_k", lambda d, n: (
        ((O(k), E(i, j)), (E(i, j), O(k)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
        for k in range(1, n + 1))),
    RelationSchema("bead-tie-hop", "o_i e_{i,j} = o_j e_{i,j}", lambda d, n: (
        ((O(i), E(i, j)), (O(j), E(i, j)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1))),
)


# relations shared by the rook families with and without ties
_ROOK_IDEMPOTENT = RelationSchema("rook-idempotent", "r_i r_i = r_i", lambda d, n: (
    ((R(i), R(i)), (R(i),)) for i in range(1, n + 1)))
_ROOK_COMMUTE = RelationSchema("rook-commute", "r_i r_j = r_j r_i", lambda d, n: (
    ((R(i), R(j)), (R(j), R(i)))
    for i in range(1, n + 1) for j in range(i + 1, n + 1)))
_ROOK_SANDWICH = RelationSchema(
    "rook-sandwich", "r_i s_i r_i = r_i r_{i+1}", lambda d, n: (
        ((R(i), S(i), R(i)), (R(i), R(i + 1))) for i in range(1, n)))
_BEAD_ROOK_COMMUTE = RelationSchema(
    "bead-rook-commute", "r_i o_j = o_j r_i, i != j", lambda d, n: (
        ((R(i), O(j)), (O(j), R(i)))
        for i in range(1, n + 1) for j in range(1, n + 1) if i != j))
_BEAD_PRODUCT_COMMUTE = RelationSchema(
    "bead-product-commute", "p_i o_j = o_j p_i, j > i", lambda d, n: (
        ((P(i), O(j)), (O(j), P(i)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)))


_ROOK_R = (
    _ROOK_IDEMPOTENT,
    _ROOK_COMMUTE,
    RelationSchema("rook-cross-commute", "r_j s_i = s_i r_j, j != i, i+1",
                   lambda d, n: (
                       ((R(j), S(i)), (S(i), R(j)))
                       for i in range(1, n) for j in range(1, n + 1)
                       if j not in (i, i + 1))),
    RelationSchema("rook-cross-shift", "r_i s_i = s_i r_{i+1} and r_{i+1} s_i = s_i r_i",
                   lambda d, n: (inst for i in range(1, n) for inst in (
                       ((R(i), S(i)), (S(i), R(i + 1))),
                       ((R(i + 1), S(i)), (S(i), R(i))),
                   ))),
    _ROOK_SANDWICH,
)


_ROOK_P = (
    RelationSchema("product-idempotent", "p_i p_i = p_i", lambda d, n: (
        ((P(i), P(i)), (P(i),)) for i in range(1, n + 1))),
    RelationSchema("product-commute", "p_i p_j = p_j p_i", lambda d, n: (
        ((P(i), P(j)), (P(j), P(i)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1))),
    RelationSchema("product-cross-commute", "p_i s_j = s_j p_i, j > i", lambda d, n: (
        ((P(i), S(j)), (S(j), P(i)))
        for i in range(1, n + 1) for j in range(i + 1, n))),
    RelationSchema("product-cross-absorb", "p_i s_j = p_i, j < i", lambda d, n: (
        ((P(i), S(j)), (P(i),))
        for i in range(1, n + 1) for j in range(1, min(i, n)))),
    RelationSchema("product-step", "p_i s_i p_i = p_{i+1}", lambda d, n: (
        ((P(i), S(i), P(i)), (P(i + 1),)) for i in range(1, n))),
)


_ROOK_BEADS_FIRST = (
    _BEAD_ROOK_COMMUTE,
    RelationSchema("bead-rook-absorb", "r_i o_i = o_i r_i = r_i", lambda d, n: (
        ((R(i), O(i)), (O(i), R(i)), (R(i),)) for i in range(1, n + 1))),
    _BEAD_PRODUCT_COMMUTE,
    RelationSchema("bead-product-absorb", "p_i o_j = o_j p_i = p_i, j <= i",
                   lambda d, n: (
                       ((P(i), O(j)), (O(j), P(i)), (P(i),))
                       for i in range(1, n + 1) for j in range(1, i + 1))),
)


def _rook_loop_sandwich(d, n):
    for i in range(1, n + 1):
        for k in range(d):
            yield ((R(i), O(i, k), R(i)), (R(i),))


def _product_bead_sandwich(d, n):
    # p_i o_1^{m_1} .. o_i^{m_i} p_j = p_j o^m p_i = p_j for i <= j
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for ms in itertools.product(range(d), repeat=i):
                beads = tuple(O(a + 1, m) for a, m in enumerate(ms) if m)
                yield ((P(i),) + beads + (P(j),),
                       (P(j),) + beads + (P(i),),
                       (P(j),))


_ROOK_BEADS_PRIME = (
    _BEAD_ROOK_COMMUTE,
    RelationSchema("rook-loop-absorb", "r_i o_i^k r_i = r_i", _rook_loop_sandwich),
    _BEAD_PRODUCT_COMMUTE,
    RelationSchema("product-bead-sandwich",
                   "p_i o_1^{m_1}..o_i^{m_i} p_j = p_j o^m p_i = p_j, i <= j",
                   _product_bead_sandwich),
)


_TIE_CROSS = (
    RelationSchema("tie-idempotent", "e_i e_i = e_i", lambda d, n: (
        ((E(i), E(i)), (E(i),)) for i in range(1, n))),
    RelationSchema("tie-commute", "e_i e_j = e_j e_i", lambda d, n: (
        ((E(i), E(j)), (E(j), E(i)))
        for i in range(1, n) for j in range(i + 1, n))),
    RelationSchema("tie-cross-commute", "s_i e_j = e_j s_i, |i-j| != 1", lambda d, n: (
        ((S(i), E(j)), (E(j), S(i)))
        for i in range(1, n) for j in range(1, n) if abs(i - j) != 1)),
    RelationSchema("tie-cross-slide", "e_i s_j s_i = s_j s_i e_j, |i-j| = 1",
                   lambda d, n: (
                       ((E(i), S(j), S(i)), (S(j), S(i), E(j)))
                       for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
    RelationSchema("tie-cross-triple",
                   "e_i e_j s_i = e_j s_i e_j = s_i e_i e_j, |i-j| = 1",
                   lambda d, n: (
                       ((E(i), E(j), S(i)), (E(j), S(i), E(j)), (S(i), E(i), E(j)))
                       for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
)


_TIED_JONES = (
    RelationSchema("tiedtangle-idempotent", "f_i f_i = f_i", lambda d, n: (
        ((F(i), F(i)), (F(i),)) for i in range(1, n))),
    RelationSchema("tiedtangle-commute", "f_i f_j = f_j f_i, |i-j| > 1", lambda d, n: (
        ((F(i), F(j)), (F(j), F(i)))
        for i in range(1, n) for j in range(i + 2, n))),
    RelationSchema("tie-tangle-absorb", "e_i t_i = t_i e_i = t_i", lambda d, n: (
        ((E(i), T(i)), (T(i), E(i)), (T(i),)) for i in range(1, n))),
    RelationSchema("tiedtangle-tie-absorb", "f_i e_i = f_i", lambda d, n: (
        ((F(i), E(i)), (F(i),)) for i in range(1, n))),
    RelationSchema("tie-tiedtangle-commute", "e_i f_j = f_j e_i", lambda d, n: (
        ((E(i), F(j)), (F(j), E(i)))
        for i in range(1, n) for j in range(1, n))),
    RelationSchema("tangle-tiedtangle-absorb", "t_i f_i = f_i t_i = t_i", lambda d, n: (
        ((T(i), F(i)), (F(i), T(i)), (T(i),)) for i in range(1, n))),
    RelationSchema("tangle-tie-commute", "t_i e_j = e_j t_i, |i-j| > 1", lambda d, n: (
        ((T(i), E(j)), (E(j), T(i)))
        for i in range(1, n) for j in range(1, n) if abs(i - j) > 1)),
    RelationSchema("tangle-tiedtangle-commute", "t_i f_j = f_j t_i, |i-j| > 1",
                   lambda d, n: (
                       ((T(i), F(j)), (F(j), T(i)))
                       for i in range(1, n) for j in range(1, n) if abs(i - j) > 1)),
    RelationSchema("tie-sandwich", "t_i e_j t_i = t_i, |i-j| = 1", lambda d, n: (
        ((T(i), E(j), T(i)), (T(i),))
        for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
    RelationSchema("tiedtangle-hop", "f_i e_j = e_j t_i e_j, |i-j| = 1", lambda d, n: (
        ((F(i), E(j)), (E(j), T(i), E(j)))
        for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
)


_TIED_BRAUER = (
    RelationSchema("tiedtangle-cross-commute", "f_i s_j = s_j f_i, |i-j| > 1",
                   lambda d, n: (
                       ((F(i), S(j)), (S(j), F(i)))
                       for i in range(1, n) for j in range(1, n) if abs(i - j) > 1)),
    RelationSchema("cross-tiedtangle-absorb", "f_i s_i = s_i f_i = f_i", lambda d, n: (
        ((F(i), S(i)), (S(i), F(i)), (F(i),)) for i in range(1, n))),
    RelationSchema("tiedtangle-conjugate", "s_i f_j s_i = s_j f_i s_j, |i-j| = 1",
                   lambda d, n: (
                       ((S(i), F(j), S(i)), (S(j), F(i), S(j)))
                       for i in range(1, n) for j in (i - 1, i + 1) if 1 <= j <= n - 1)),
)


_TIED_ROOK_FIRST = (
    RelationSchema("tie-product-absorb", "e_i p_j = p_j e_i = p_j, i <= j",
                   lambda d, n: (
                       ((E(i), P(j)), (P(j), E(i)), (P(j),))
                       for i in range(1, n) for j in range(i, n + 1))),
    RelationSchema("tie-product-commute", "e_i p_j = p_j e_i, i > j", lambda d, n: (
        ((E(i), P(j)), (P(j), E(i)))
        for i in range(1, n) for j in range(1, i))),
)


_TIED_ROOK_PRIME = (
    _ROOK_IDEMPOTENT,
    _ROOK_COMMUTE,
    RelationSchema("cross-rook-slide", "s_i r_j = r_{s_i(j)} s_i", lambda d, n: (
        ((S(i), R(j)), (R(_swap(i, j)), S(i)))
        for i in range(1, n) for j in range(1, n + 1))),
    _ROOK_SANDWICH,
    RelationSchema("tiedrook-idempotent", "q_i q_i = q_i", lambda d, n: (
        ((Q(i), Q(i)), (Q(i),)) for i in range(1, n + 1))),
    RelationSchema("tiedrook-commute", "q_i q_j = q_j q_i", lambda d, n: (
        ((Q(i), Q(j)), (Q(j), Q(i)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1))),
    RelationSchema("tiedrook-tie-commute", "q_i e_j = e_j q_i", lambda d, n: (
        ((Q(i), E(j)), (E(j), Q(i)))
        for i in range(1, n + 1) for j in range(1, n))),
    RelationSchema("cross-tiedrook-slide", "s_i q_j = q_{s_i(j)} s_i", lambda d, n: (
        ((S(i), Q(j)), (Q(_swap(i, j)), S(i)))
        for i in range(1, n) for j in range(1, n + 1))),
    RelationSchema("tie-rook-sandwich", "e_i r_j e_i = e_i q_j, j = i, i+1",
                   lambda d, n: (
                       ((E(i), R(j), E(i)), (E(i), Q(j)))
                       for i in range(1, n) for j in (i, i + 1))),
    RelationSchema("tie-rook-commute", "e_i r_j = r_j e_i, j != i, i+1", lambda d, n: (
        ((E(i), R(j)), (R(j), E(i)))
        for i in range(1, n) for j in range(1, n + 1) if j not in (i, i + 1))),
    RelationSchema("rook-tiedrook-commute", "r_i q_j = q_j r_i", lambda d, n: (
        ((R(i), Q(j)), (Q(j), R(i)))
        for i in range(1, n + 1) for j in range(1, n + 1))),
    RelationSchema("tiedrook-absorb", "q_i r_i = r_i", lambda d, n: (
        ((Q(i), R(i)), (R(i),)) for i in range(1, n + 1))),
    RelationSchema("rook-tie-collapse", "r_j e_i r_j = r_j, j = i, i+1", lambda d, n: (
        ((R(j), E(i), R(j)), (R(j),))
        for i in range(1, n) for j in (i, i + 1))),
    RelationSchema("rook-tie-shift", "r_i e_i r_{i+1} = s_i q_i r_{i+1}", lambda d, n: (
        ((R(i), E(i), R(i + 1)), (S(i), Q(i), R(i + 1)))
        for i in range(1, n))),
)


# -- family registry ------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Everything framoid knows about one family, for every (d, n)."""

    display: str
    tied: bool
    tag: str
    drop_rook: bool                           # broken arcs shed beads and ties
    framed: bool                              # admits d > 1
    generators: tuple[str, ...]               # generator kinds, see _kind_symbols
    count: Callable[[int, int], int]          # (d, n) -> element count
    schemas: tuple[RelationSchema, ...]       # the presentation, in report order
    # entries call their normal form through this module's global name, so a
    # rebinding of that name (as perfbench's tracer does) takes effect
    normal_form: Optional[Callable[[BeadedDiagram], NormalFormWord]] = None
    associative: bool = True


FAMILIES: dict[str, FamilySpec] = {
    "cdn": FamilySpec(
        "C_d^n", False, PERMUTATION, False, True, ("o",),
        lambda d, n: d ** n,
        _BEADS),
    "sdn": FamilySpec(
        "S_{d,n}", False, PERMUTATION, False, True, ("s", "o"),
        lambda d, n: d ** n * math.factorial(n),
        _BEADS + _COXETER + _BEAD_CROSS),
    "pn": FamilySpec(
        "P_n", True, PERMUTATION, False, False, ("e*",),
        lambda d, n: bell(n),
        _PARTITION_TIES),
    "pdn": FamilySpec(
        "P_{d,n}", True, PERMUTATION, False, True, ("e*", "o"),
        lambda d, n: sum(stirling2(n, k) * d ** k for k in range(1, n + 1)),
        _PARTITION_TIES + _BEADS + _PARTITION_BEADS),
    "jn": FamilySpec(
        "J_n", False, PLANAR, False, False, ("t",),
        lambda d, n: catalan(n),
        _TANGLES,
        lambda x: jones_nf(x)),
    "jdn": FamilySpec(
        "J_{d,n}", False, PLANAR, False, True, ("t", "o"),
        lambda d, n: d ** n * catalan(n),
        _TANGLES + _BEADS + _TANGLE_BEADS,
        lambda x: jones_nf(x)),
    "brn": FamilySpec(
        "Br_n", False, MATCHING, False, False, ("s", "t"),
        lambda d, n: odd_double_factorial(n),
        _TANGLES + _COXETER + _BRAUER_MIXED,
        lambda x: brauer_nf(x)),
    "brdn": FamilySpec(
        "Br_{d,n}", False, MATCHING, False, True, ("s", "t", "o"),
        lambda d, n: d ** n * odd_double_factorial(n),
        _TANGLES + _COXETER + _BRAUER_MIXED + _BEADS + _TANGLE_BEADS + _BEAD_CROSS,
        lambda x: brauer_nf(x)),
    "rn": FamilySpec(
        "R_n", False, MATCHING, False, False, ("s", "r"),
        lambda d, n: _rook_sum(n, lambda k: 1),
        _COXETER + _ROOK_R + _ROOK_P,
        lambda x: rook_nf(x, "first")),
    "rdn": FamilySpec(
        "R_{d,n}", False, MATCHING, True, True, ("s", "r", "o"),
        lambda d, n: _rook_sum(n, lambda k: d ** k),
        _COXETER + _ROOK_R + _ROOK_P + _BEADS + _BEAD_CROSS + _ROOK_BEADS_FIRST,
        lambda x: rook_nf(x, "first")),
    "rprimedn": FamilySpec(
        "R'_{d,n}", False, MATCHING, False, True, ("s", "r", "o"),
        lambda d, n: _rook_sum(n, lambda k: d ** (2 * n - k)),
        _COXETER + _ROOK_R + _ROOK_P + _BEADS + _BEAD_CROSS + _ROOK_BEADS_PRIME,
        lambda x: rook_nf(x, "prime")),
    "tsn": FamilySpec(
        "tS_n", True, PERMUTATION, False, False, ("s", "e"),
        lambda d, n: math.factorial(n) * bell(n),
        _COXETER + _TIE_CROSS),
    "tjn": FamilySpec(
        "tJ_n", True, PLANAR, False, False, ("t", "e", "f"),
        lambda d, n: fuss_catalan_41(n),
        _TANGLES + _TIE_CROSS[:2] + _TIED_JONES),
    "tbrn": FamilySpec(
        "tBr_n", True, MATCHING, False, False, ("s", "t", "e", "f"),
        lambda d, n: odd_double_factorial(n) * bell(n),
        _TANGLES + _COXETER + _BRAUER_MIXED + _TIE_CROSS + _TIED_JONES + _TIED_BRAUER),
    # ties here shed at free points; only the literal defining relations are
    # declared (adding the crossing-tie braid laws would let a broken arc
    # absorb every tie, collapsing the k!*Bell(k) count).  No product on this
    # element set associates: see test_tie_shedding_composition_is_not_associative
    "trn": FamilySpec(
        "tR_n", True, MATCHING, True, False, ("s", "p", "e"),
        lambda d, n: _rook_sum(n, bell),
        _COXETER + _ROOK_P + _TIE_CROSS[:2] + _TIED_ROOK_FIRST,
        associative=False),
    "trprimen": FamilySpec(
        "tR'_n", True, MATCHING, False, False, ("s", "r", "e", "q"),
        lambda d, n: _rook_sum(n, lambda k: bell(2 * n - k)),
        _COXETER + _TIE_CROSS + _TIED_ROOK_PRIME),
}

FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class MonoidFamily:
    """A named diagram monoid at fixed parameters (d, n)."""

    name: str
    n: int
    d: int = 1

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise ValueError(f"unknown family {self.name!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if not self.spec.framed and self.d != 1:
            raise ValueError(f"family {self.name} has no framing parameter")

    @property
    def spec(self) -> FamilySpec:
        return FAMILIES[self.name]

    @property
    def tied(self) -> bool:
        return self.spec.tied

    @property
    def tag(self) -> str:
        return self.spec.tag

    @property
    def drop_rook(self) -> bool:
        return self.spec.drop_rook

    def __str__(self):
        if self.spec.framed:
            return f"{self.name}(d={self.d},n={self.n})"
        return f"{self.name}(n={self.n})"


def family(name: str, n: int, d: int = 1) -> MonoidFamily:
    return MonoidFamily(name.lower(), n, d)


def _kind_symbols(kind: str, n: int) -> list[GenSymbol]:
    """The generators of one kind on n strands, ascending; kind ``"e"`` is
    the adjacent ties e_{i,i+1} and ``"e*"`` every tie e_{i,j}."""
    if kind == "e*":
        return [GenSymbol("e", i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if kind == "e":
        return [GenSymbol("e", i, i + 1) for i in range(1, n)]
    last = n - 1 if kind in ("t", "s", "f") else n
    return [GenSymbol(kind, i) for i in range(1, last + 1)]


def generating_symbols(fam: MonoidFamily) -> tuple[GenSymbol, ...]:
    return tuple(sym for kind in fam.spec.generators
                 for sym in _kind_symbols(kind, fam.n))


def generating_set(fam: MonoidFamily) -> tuple[BeadedDiagram, ...]:
    """The generator diagrams of the family, in declaration order."""
    return tuple(generator(sym, fam.n, fam.d, tied=fam.tied, tag=fam.tag)
                 for sym in generating_symbols(fam))


# closure results, one per family; cleared by closure.cache_clear()
_CLOSURES: dict[MonoidFamily, tuple[BeadedDiagram, ...]] = {}


def closure(fam: MonoidFamily, cap: int = 1_000_000) -> tuple[BeadedDiagram, ...]:
    """All elements of the family: breadth-first closure of the generators.

    Deterministic: the result is sorted by canonical encoding.  Raises
    :class:`CapExceeded` if more than ``cap`` elements appear.  Results are
    cached per family, whatever the cap: a cached closure larger than
    ``cap`` raises as a fresh enumeration would.
    """
    elems = _CLOSURES.get(fam)
    if elems is None:
        elems = _CLOSURES[fam] = _enumerate(fam, cap)
    elif len(elems) > cap:
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
    began = time.perf_counter()
    level = 0
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y, _ = compose(x, g, drop_rook=drop_rook)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure of {fam} exceeded cap {cap}")
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
        level += 1
        if debug:
            elapsed = time.perf_counter() - began
            memos = "" if fresh else ", memos: %d shapes, %d plans" % memo_sizes()
            log.debug("closure %s: level %d, %d new, %d total, %.0f elements/s%s",
                      fam, level, len(fresh), len(seen), len(seen) / elapsed, memos)
    return tuple(sorted(seen, key=BeadedDiagram.encode))


def predicted_cardinality(fam: MonoidFamily) -> int:
    """Exact element count of the family, by closed formula."""
    return fam.spec.count(fam.d, fam.n)


# -- relation checks --------------------------------------------------------------

@dataclass(frozen=True)
class SchemaResult:
    name: str
    display: str
    checked: int
    failures: tuple[str, ...]
    ms: float = field(default=0.0, compare=False)   # time to check every instance


@dataclass(frozen=True)
class RelationReport:
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
