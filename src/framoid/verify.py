"""Bundled verification suites: cardinalities, presentations, bridge
identities, framed Temperley-Lieb checks and specialization maps.  Each word
identity of the bridges, tied and framed-TL suites is a row of ``str.format``
templates, given with its fields by an index generator (``_BRIDGE_FAMILY``,
``_TIED_FAMILY``, ``_tl_rows``); ``_check_rows`` reads both words of every
row through one image evaluator, ``_image_evaluator``.

Every suite returns a :class:`SuiteReport` whose entries carry one identity
each; failures come with a reproducible witness.  Randomized suites take a
seed (default ``0xF4A317``) and are byte-deterministic given the seed: the
serialized report omits timings.
"""

from __future__ import annotations

import json
import operator
import random
import re
import time
from functools import cache, partial, reduce
from itertools import combinations, combinations_with_replacement, groupby, product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .diagrams import _KINDS, CapExceeded, parse_word
from .monoids import (
    DEFAULT_CAP,
    FAMILIES,
    MonoidFamily,
    _swap,
    check_relations,
    closure,
    default_grid,
    family,
    predicted_cardinality,
)
from .algebra import (
    ALPHA,
    NEGLECT,
    XY,
    AlgebraElement,
    LaurentPoly,
    alpha_to_one,
    bridge_e,
    bridge_f,
    bridge_q,
    bridge_w,
    cap_z,
    equal,
    from_diagram,
    from_word,
    one,
    specialize,
    x_var,
    y_var,
)

DEFAULT_SEED = 0xF4A317

EXPECT_FAIL = "expect-fail:"


class SuiteEntry(NamedTuple):
    suite: str
    family: str
    d: int
    n: int
    identity: str
    status: str                  # "pass" or "fail"
    witness: Optional[str] = None
    ms: float = 0.0

    @property
    def ok(self) -> bool:
        wanted = "fail" if self.identity.startswith(EXPECT_FAIL) else "pass"
        return self.status == wanted


class SuiteReport:
    """The entries of one suite, in order: mutable, so unhashable."""

    def __init__(self, name: str, entries: Optional[list[SuiteEntry]] = None):
        self.name, self.entries = name, [] if entries is None else entries

    def __eq__(self, other):
        return ((self.name, self.entries) == (other.name, other.entries)
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self):
        return f"SuiteReport(name={self.name!r}, entries={self.entries!r})"

    @property
    def passed(self) -> bool:
        """Every entry is ok, and there is at least one: a report that
        checked nothing does not pass."""
        return bool(self.entries) and all(e.ok for e in self.entries)

    def check(self, fam: MonoidFamily, identity: str, holds: bool,
              witness: Optional[str] = None, ms: float = 0.0):
        """Record one identity: it passes iff ``holds``, and only a failing
        entry keeps its ``witness``."""
        self.entries.append(SuiteEntry(self.name, fam.name, fam.d, fam.n, identity,
                                       "pass" if holds else "fail",
                                       None if holds else witness, ms))

    def lines(self, include_ms: bool = False) -> list[str]:
        out = []
        for e in self.entries:
            row = {"suite": e.suite, "family": e.family, "d": e.d, "n": e.n,
                   "identity": e.identity, "status": e.status}
            if e.witness is not None:
                row["witness"] = e.witness
            if include_ms:
                row["ms"] = round(e.ms, 3)
            out.append(json.dumps(row, separators=(",", ":")))
        return out

    def text(self, include_ms: bool = False) -> str:
        return "\n".join(self.lines(include_ms))

    def summary(self) -> str:
        bad = sum(1 for e in self.entries if not e.ok)
        return f"{self.name}: {len(self.entries) - bad}/{len(self.entries)} ok"


def _check_catalogue(report: SuiteReport, fam: MonoidFamily, identities: Iterable[tuple]):
    """Record every ``(identity, lhs, rhs)`` of ``identities``; an entry's
    ``ms`` covers building both sides and comparing them."""
    t0 = time.perf_counter()
    for ident, lhs, rhs in identities:
        same = equal(lhs, rhs)
        ms = (time.perf_counter() - t0) * 1000
        report.check(fam, ident, same,
                     None if same else f"lhs - rhs = {(lhs - rhs).dump()}", ms)
        t0 = time.perf_counter()


def _check_rows(report: SuiteReport, fam: MonoidFamily, policy: str, rows):
    """Record the ``(identity, lhs, rhs)`` templates of the ``(rows, fields)``
    pairs ``rows``, both words read through one image evaluator."""
    evaluate = _image_evaluator(fam, policy)
    _check_catalogue(report, fam, (
        (ident, evaluate(lhs), evaluate(rhs))
        for templates, fields in rows
        for ident, lhs, rhs in ((part.format(**fields) for part in row) for row in templates)))


# -- cardinalities ---------------------------------------------------------------

def suite_cardinalities(grid: Optional[Sequence[MonoidFamily]] = None,
                        cap: int = DEFAULT_CAP) -> SuiteReport:
    report = SuiteReport("cardinalities")
    for fam in (default_grid() if grid is None else grid):
        t0 = time.perf_counter()
        want = predicted_cardinality(fam)
        try:
            got = len(closure(fam, cap))
            ident, witness = f"|closure| = {want}", f"closure {got} != predicted {want}"
        except CapExceeded as exc:
            got, ident, witness = None, "closure = predicted", str(exc)
        report.check(fam, ident, got == want, witness, (time.perf_counter() - t0) * 1000)
    return report


# -- presentations ---------------------------------------------------------------

def suite_presentations(grid: Optional[Sequence[MonoidFamily]] = None) -> SuiteReport:
    report = SuiteReport("presentations")
    for fam in (default_grid() if grid is None else grid):
        for entry in check_relations(fam).entries:
            report.check(fam, entry.display, not entry.failures,
                         next(iter(entry.failures), None), entry.ms)
    return report


# -- deframization image table ---------------------------------------------------

# The image of each tied kind of ``diagrams._KINDS`` is its averaged bridge; the
# lambdas look the functions up by name when called, so a rebound one runs.
_BRIDGES = {
    "e": lambda sym, fam, policy: bridge_e(sym.i, sym.j, fam, policy),
    "f": lambda sym, fam, policy: bridge_f(sym.i, fam, policy),
    "q": lambda sym, fam, policy: bridge_q(sym.i, fam, policy),
    "w": lambda sym, fam, policy: bridge_w(sym.i, sym.i, sym.i, fam, policy),
}
# beyond the generator grammar: Z{i}, the averaged framing, Z0{i}, the same at
# alpha = 1, w{i}({j},{h}), the transport bridge wbar_i(j, h), and the loop
# scalars x and y{k}, which act through the scalar action
_Z_TOKEN = re.compile(r"Z(0?)([1-9][0-9]*)")
_W_TOKEN = re.compile(r"w([0-9]+)\(([0-9]+),([0-9]+)\)")
_SCALAR_TOKEN = re.compile(r"x|y([0-9]+)")


def _image(token: str, fam, policy: str) -> Optional[AlgebraElement | LaurentPoly]:
    """The image of one token; None for a generator that is its own image:
    a plain one, or any one in a tied family."""
    if m := _SCALAR_TOKEN.fullmatch(token):
        return x_var() if m[1] is None else y_var(int(m[1]), fam.d)
    if m := _Z_TOKEN.fullmatch(token):
        z = cap_z(int(m[2]), fam, policy)
        return specialize(z, alpha_to_one(fam.d)) if m[1] else z
    if m := _W_TOKEN.fullmatch(token):
        return bridge_w(*map(int, m.groups()), fam, policy)
    (sym,) = parse_word(token)
    own = fam.tied or _KINDS[sym.kind].unties is None
    return None if own else _BRIDGES[sym.kind](sym, fam, policy)


def _image_evaluator(fam, policy: str) -> Callable[[str], AlgebraElement]:
    """A word's image in the algebra of ``fam``: a run of generators that are
    their own images is one ``from_word``, any other token its image (built
    once per evaluator), and the factors multiply left to right."""
    image = cache(partial(_image, fam=fam, policy=policy))

    def evaluate(word: str) -> AlgebraElement:
        factors = []
        for plain, tokens in groupby(word.split(), lambda token: image(token) is None):
            if plain:
                factors.append(from_word(" ".join(tokens), fam, policy))
            else:
                factors += map(image, tokens)
        return reduce(operator.mul, factors) if factors else one(fam, policy)
    return evaluate


# -- bridge identity rows ----------------------------------------------------------

# A row is (identity, lhs word, rhs word), ``str.format`` templates over the
# fields of ``_at``; ``_check_rows`` reads both words.  A row that two suites
# share is declared once.
_T_T_T = ("t_{i} t_{j} t_{i} = t_{i}", "t{i} t{j} t{i}", "t{i}")
_PARTITION_PAIR = (
    ("ebar_{i}{j}^2 = ebar_{i}{j}", "e{i},{j} e{i},{j}", "e{i},{j}"),
    ("z_{i} ebar_{i}{j} = z_{j} ebar_{i}{j}", "o{i} e{i},{j}", "o{j} e{i},{j}"),
    ("z_{i} ebar_{i}{j} = ebar_{i}{j} z_{i}", "o{i} e{i},{j}", "e{i},{j} o{i}"),
    ("ebar_{i}{j} z_{i} = ebar_{i}{j} z_{j}", "e{i},{j} o{i}", "e{i},{j} o{j}"))
_PARTITION_COMMUTE = (("ebar_{i}{j} ebar_{r}{s} = ebar_{r}{s} ebar_{i}{j}",
                       "e{i},{j} e{r},{s}", "e{r},{s} e{i},{j}"),)
_PARTITION_TRIPLE = (("ebar_{i}{j} ebar_{i}{k} = ebar_{i}{j} ebar_{j}{k}",
                      "e{i},{j} e{i},{k}", "e{i},{j} e{j},{k}"),
                     ("ebar_{i}{j} ebar_{j}{k} = ebar_{i}{k} ebar_{j}{k}",
                      "e{i},{j} e{j},{k}", "e{i},{k} e{j},{k}"))
_SYMMETRIC_I = (("ebar_{i}^2 = ebar_{i}", "e{i} e{i}", "e{i}"),
                ("z_{i} ebar_{i} = z_{i1} ebar_{i}", "o{i} e{i}", "o{i1} e{i}"),
                ("z_{i} ebar_{i} = ebar_{i} z_{i}", "o{i} e{i}", "e{i} o{i}"))
_SYMMETRIC_COMMUTE = (("ebar_{i} ebar_{j} = ebar_{j} ebar_{i}", "e{i} e{j}", "e{j} e{i}"),)
_SYMMETRIC_FAR = (("s_{i} ebar_{j} = ebar_{j} s_{i}", "s{i} e{j}", "e{j} s{i}"),)
_SYMMETRIC_ADJACENT = (
    ("ebar_{i} s_{j} s_{i} = s_{j} s_{i} ebar_{j}", "e{i} s{j} s{i}", "s{j} s{i} e{j}"),
    ("ebar_{i} ebar_{j} s_{i} = ebar_{j} s_{i} ebar_{j}", "e{i} e{j} s{i}", "e{j} s{i} e{j}"),
    ("ebar_{j} s_{i} ebar_{j} = s_{i} ebar_{i} ebar_{j}", "e{j} s{i} e{j}", "s{i} e{i} e{j}"))
# plain scalars: beads escape through free points, so the averaged scalar
# framing appears with all alpha specialized to 1
_ROOK_LATER = (("ebar_{i} p_{j} = p_{j}", "e{i} p{j}", "p{j}"),
               ("p_{j} ebar_{i} = p_{j}", "p{j} e{i}", "p{j}"))
_ROOK_I = (("ebar_{i} p_{i} = Z0_{i1} p_{i}", "e{i} p{i}", "Z0{i1} p{i}"),
           ("p_{i} ebar_{i} = p_{i} Z0_{i1}", "p{i} e{i}", "p{i} Z0{i1}"))
_ROOK_EARLIER = (("ebar_{i} p_{j} = p_{j} ebar_{i}", "e{i} p{j}", "p{j} e{i}"),)
_ROOK_DEGENERATE = (("qbar_{i} = r_{i} (bridge degenerates)", "q{i}", "r{i}"),
                    ("wbar_{i} = p_{i} (bridge degenerates)", "w{i}", "p{i}"))
_PRIME_I = (("qbar_{i}^2 = qbar_{i} Z_{i}", "q{i} q{i}", "q{i} Z{i}"),
            ("z_{i} qbar_{i} = qbar_{i} z_{i}", "o{i} q{i}", "q{i} o{i}"))
_PRIME_PAIR = (("qbar_{i} qbar_{j} = qbar_{j} qbar_{i}", "q{i} q{j}", "q{j} q{i}"),
               ("r_{i} qbar_{j} = qbar_{j} r_{i}", "r{i} q{j}", "q{j} r{i}"),
               ("r_{j} qbar_{i} = qbar_{i} r_{j}", "r{j} q{i}", "q{i} r{j}"))
_PRIME_ANY = (("qbar_{j} ebar_{i} = ebar_{i} qbar_{j}", "q{j} e{i}", "e{i} q{j}"),
              ("s_{i} qbar_{j} = qbar_{swap} s_{i}", "s{i} q{j}", "q{swap} s{i}"))
_PRIME_ENDS = (("ebar_{i} r_{j} ebar_{i} = ebar_{i} qbar_{j}", "e{i} r{j} e{i}",
                "e{i} q{j}"),)
_PRIME_FAR = (("ebar_{i} r_{j} = r_{j} ebar_{i}", "e{i} r{j}", "r{j} e{i}"),)
_PRIME_ADJACENT = (
    ("r_{i} ebar_{i} r_{i} = r_{i} Z_{i1}", "r{i} e{i} r{i}", "r{i} Z{i1}"),
    ("r_{i1} ebar_{i} r_{i1} = Z_{i} r_{i1}", "r{i1} e{i} r{i1}", "Z{i} r{i1}"),
    ("r_{i} ebar_{i} r_{i1} = s_{i} qbar_{i} r_{i1}", "r{i} e{i} r{i1}", "s{i} q{i} r{i1}"))
# wbar_i(i, i) is spelled as in the transport rows, so that it is built once
_PRIME_W = (("wbar_{i1} = r_1..r_{i} qbar_{i1}", "w{i1}({i1},{i1})", "{rooks} q{i1}"),)
# transport across the two broken arcs of p_i
_PRIME_TRANSPORT = (("z_{j} wbar_{i}({j},{h}) = wbar_{i}({j},{h}) z_{h}",
                     "o{j} w{i}({j},{h})", "w{i}({j},{h}) o{h}"),)
_JONES_I = (("fbar_{i}^2 = fbar_{i} Z_{i}", "f{i} f{i}", "f{i} Z{i}"),
            ("t_{i}^2 = t_{i}", "t{i} t{i}", "t{i}"),
            ("ebar_{i} t_{i} = t_{i}", "e{i} t{i}", "t{i}"),
            ("t_{i} ebar_{i} = t_{i}", "t{i} e{i}", "t{i}"),
            ("fbar_{i} ebar_{i} = fbar_{i}", "f{i} e{i}", "f{i}"),
            ("ebar_{i} fbar_{i} = fbar_{i}", "e{i} f{i}", "f{i}"),
            ("t_{i} fbar_{i} = t_{i} Z_{i}", "t{i} f{i}", "t{i} Z{i}"),
            ("fbar_{i} t_{i} = Z_{i} t_{i}", "f{i} t{i}", "Z{i} t{i}"),
            ("z_{i} fbar_{i} = z_{i1} fbar_{i}", "o{i} f{i}", "o{i1} f{i}"),
            ("z_{i} fbar_{i} = fbar_{i} z_{i}", "o{i} f{i}", "f{i} o{i}"),
            ("fbar_{i} z_{i} = fbar_{i} z_{i1}", "f{i} o{i}", "f{i} o{i1}"))
_JONES_FAR = (("fbar_{i} fbar_{j} = fbar_{j} fbar_{i}", "f{i} f{j}", "f{j} f{i}"),
              ("t_{i} ebar_{j} = ebar_{j} t_{i}", "t{i} e{j}", "e{j} t{i}"),
              ("t_{i} fbar_{j} = fbar_{j} t_{i}", "t{i} f{j}", "f{j} t{i}"),
              ("ebar_{i} fbar_{j} = fbar_{j} ebar_{i}", "e{i} f{j}", "f{j} e{i}"))
_JONES_ADJACENT = (  # the strand of ebar_j away from the tangle keeps its framing
    ("t_{i} ebar_{j} t_{i} = t_{i} Z_{away}", "t{i} e{j} t{i}", "t{i} Z{away}"),
    ("fbar_{i} ebar_{j} = ebar_{j} t_{i} ebar_{j}", "f{i} e{j}", "e{j} t{i} e{j}"),
    ("ebar_{j} fbar_{i} = ebar_{j} t_{i} ebar_{j}", "e{j} f{i}", "e{j} t{i} e{j}"),
    _T_T_T)
_JONES_CONTROL = ((EXPECT_FAIL + "fbar_1^2 = fbar_1 (needs Z)", "f1 f1", "f1"),)
_BRAUER_I = (("fbar_{i} s_{i} = fbar_{i}", "f{i} s{i}", "f{i}"),
             ("s_{i} fbar_{i} = fbar_{i}", "s{i} f{i}", "f{i}"))
_BRAUER_FAR = (("fbar_{i} s_{j} = s_{j} fbar_{i}", "f{i} s{j}", "s{j} f{i}"),)
_BRAUER_ADJACENT = (
    ("s_{i} fbar_{j} s_{i} = s_{j} fbar_{i} s_{j}", "s{i} f{j} s{i}", "s{j} f{i} s{j}"),)


def _at(i: int, j: int = 0, **more) -> dict:
    """The fields of a row at indices i and j, with i1 = i + 1, swap = the
    image of strand j under s_i, and away = the end of ebar_j away from t_i."""
    return dict(i=i, i1=i + 1, j=j, swap=_swap(i, j), away=j + 1 if j > i else j, **more)


# The index generators: ``rows(n, d)`` yields (rows, fields) in report order.

def _around(n, rows_i, far, adjacent, same=()):
    """``rows_i`` at each i < n, each followed by the ``same`` (j = i),
    ``adjacent`` or ``far`` rows at each j < n."""
    for i in range(1, n):
        yield rows_i, _at(i)
        for j in range(1, n):
            yield (same if j == i else adjacent if abs(i - j) == 1 else far), _at(i, j)


def _partition_rows(n, d):
    pairs = list(combinations(range(1, n + 1), 2))
    yield from ((_PARTITION_PAIR, _at(i, j)) for i, j in pairs)
    for (i, j), (r, s) in combinations(pairs, 2):
        yield _PARTITION_COMMUTE, _at(i, j, r=r, s=s)
    for i, j, k in combinations(range(1, n + 1), 3):
        yield _PARTITION_TRIPLE, _at(i, j, k=k)


def _symmetric_rows(n, d):
    for i in range(1, n):
        yield _SYMMETRIC_I, _at(i)
        yield from ((_SYMMETRIC_COMMUTE, _at(i, j)) for j in range(i + 1, n))
    yield from _around(n, (), _SYMMETRIC_FAR, _SYMMETRIC_ADJACENT, same=_SYMMETRIC_FAR)


def _rook_first_rows(n, d):
    for i in range(1, n):
        yield from ((_ROOK_LATER, _at(i, j)) for j in range(i + 1, n + 1))
        yield _ROOK_I, _at(i)
        yield from ((_ROOK_EARLIER, _at(i, j)) for j in range(1, i))
    yield from ((_ROOK_DEGENERATE, _at(i)) for i in range(1, n + 1))


def _rook_prime_rows(n, d):
    for i in range(1, n + 1):
        yield _PRIME_I, _at(i)
        yield from ((_PRIME_PAIR, _at(i, j)) for j in range(i + 1, n + 1))
    for i in range(1, n):
        yield from ((_PRIME_ANY, _at(i, j)) for j in range(1, n + 1))
        yield from ((_PRIME_ENDS, _at(i, j)) for j in (i, i + 1))
        yield from ((_PRIME_FAR, _at(i, j)) for j in range(1, n + 1) if j not in (i, i + 1))
        yield _PRIME_ADJACENT, _at(i)
    for i in range(1, n):
        yield _PRIME_W, _at(i, rooks=" ".join(f"r{m}" for m in range(1, i + 1)))
    for i in range(1, n + 1):
        for j, h in product(range(1, i + 1), repeat=2):
            yield _PRIME_TRANSPORT, _at(i, j, h=h)


def _jones_rows(n, d):
    yield from _around(n, _JONES_I, _JONES_FAR, _JONES_ADJACENT)
    if n >= 2 and d >= 2:
        yield _JONES_CONTROL, {}


def _brauer_rows(n, d):
    yield from _jones_rows(n, d)
    yield from _symmetric_rows(n, d)
    yield from _around(n, _BRAUER_I, _BRAUER_FAR, _BRAUER_ADJACENT)


# target: (framed family, loop policy, index generator); permutation products
# close no loops, so any policy would do for symmetric
_BRIDGE_FAMILY = {
    "partition": ("cdn", NEGLECT, _partition_rows),
    "symmetric": ("sdn", ALPHA, _symmetric_rows),
    "rookR": ("rdn", NEGLECT, _rook_first_rows),
    "rookRprime": ("rprimedn", ALPHA, _rook_prime_rows),
    "jones": ("jdn", ALPHA, _jones_rows),
    "brauer": ("brdn", ALPHA, _brauer_rows),
}

BRIDGE_TARGETS = tuple(_BRIDGE_FAMILY)


def suite_bridges(target: str, d_values: Sequence[int] = (2, 3, 4),
                  n: int = 4) -> SuiteReport:
    """Exact bridge identities of one target family, per framing modulus."""
    if target not in _BRIDGE_FAMILY:
        raise ValueError(f"unknown bridge target {target!r}; "
                         f"choose from {BRIDGE_TARGETS}")
    name, policy, rows = _BRIDGE_FAMILY[target]
    report = SuiteReport(f"bridges-{target}")
    for d in d_values:
        _check_rows(report, family(name, n, d), policy, rows(n, d))
    return report


# -- framed Temperley-Lieb ----------------------------------------------------------

# rows over tangle i; over adjacent and far (j > i + 1) tangle pairs; over
# strand i and each strand j > i; over strand i away from tangle j
_TL_I = (("t_{i}^2 = x t_{i}", "t{i} t{i}", "x t{i}"),)
_TL_LOOP = (("t_{i} o_{i}^{k} t_{i} = x y_{k} t_{i}", "t{i} o{i}^{k} t{i}", "x y{k} t{i}"),)
_TL_BEAD = (("t_{i} o_{i} = t_{i} o_{i1}", "t{i} o{i}", "t{i} o{i1}"),
            ("o_{i} t_{i} = o_{i1} t_{i}", "o{i} t{i}", "o{i1} t{i}"))
_TL_ADJACENT = (_T_T_T,)
_TL_FAR = (("t_{i} t_{j} = t_{j} t_{i}", "t{i} t{j}", "t{j} t{i}"),)
_TL_STRAND = (("o_{i}^{d} = 1", "o{i}^{d}", ""),)
_TL_STRANDS = (("o_{i} o_{j} = o_{j} o_{i}", "o{i} o{j}", "o{j} o{i}"),)
_TL_AWAY = (("o_{i} t_{j} = t_{j} o_{i}", "o{i} t{j}", "t{j} o{i}"),)


def _tl_rows(n, d):
    yield from ((_TL_I, _at(i)) for i in range(1, n))
    for i in range(1, n):
        yield from ((_TL_LOOP, _at(i, k=k)) for k in range(d))
        yield _TL_BEAD, _at(i)
    for i, j in product(range(1, n), repeat=2):
        if abs(i - j) == 1:
            yield _TL_ADJACENT, _at(i, j)
        elif j > i + 1:
            yield _TL_FAR, _at(i, j)
    for i in range(1, n + 1):
        yield _TL_STRAND, _at(i, d=d)
        yield from ((_TL_STRANDS, _at(i, j)) for j in range(i + 1, n + 1))
    for j in range(1, n):
        yield from ((_TL_AWAY, _at(i, j)) for i in range(1, n + 1) if i not in (j, j + 1))


def suite_framed_tl(d_values: Sequence[int] = (1, 2, 3),
                    n_values: Sequence[int] = (1, 2, 3, 4),
                    triples: int = 10_000,
                    seed: int = DEFAULT_SEED) -> SuiteReport:
    """Framed Temperley-Lieb checks: basis size, product relations,
    random associativity triples under the loop-to-x*y rule."""
    if triples < 1:
        raise ValueError(f"need at least one associativity triple, got {triples}")
    report = SuiteReport("framed-tl")
    rng = random.Random(seed)
    cells = [(d, n) for d in d_values for n in n_values]
    if not cells:
        return report
    share = -(-triples // len(cells))
    for d, n in cells:
        fam = family("jdn", n, d)
        basis = closure(fam)
        want = predicted_cardinality(fam)
        report.check(fam, f"basis count = d^n * catalan = {want}", len(basis) == want,
                     f"got {len(basis)}")
        _check_rows(report, fam, XY, _tl_rows(n, d))
        witness = None
        for _ in range(share):
            a, b, c = (from_diagram(rng.choice(basis), fam, XY) for _ in range(3))
            if witness is None and not equal((a * b) * c, a * (b * c)):
                witness = f"a={a.dump()} b={b.dump()} c={c.dump()}"
        report.check(fam, f"associativity x{share}", witness is None, witness)
    return report


# -- tied specializations --------------------------------------------------------------

# The fields of a tied row are i and, in a row over adjacent indices, j = i - 1
# or i + 1; a row that two tied algebras share is declared once.
_T_SQUARE = ("t_{i}^2 = x t_{i} -> t_{i}", "t{i} t{i}", "t{i}")
_E_SQUARE = ("e_{i}^2 = e_{i}", "e{i} e{i}", "e{i}")
_T_E = ("t_{i} e_{i} = t_{i}", "t{i} e{i}", "t{i}")
_F_E = ("f_{i} e_{i} = f_{i}", "f{i} e{i}", "f{i}")
_T_E_T = ("t_{i} e_{j} t_{i} = t_{i}", "t{i} e{j} t{i}", "t{i}")
_F_E_ADJ = ("f_{i} e_{j} = e_{j} t_{i} e_{j}", "f{i} e{j}", "e{j} t{i} e{j}")
_BRAIDS_AND_TIES = (
    ("g_{i} g_{j} g_{i} = g_{j} g_{i} g_{j}", "s{i} s{j} s{i}", "s{j} s{i} s{j}"),
    ("e_{i} g_{j} g_{i} = g_{j} g_{i} e_{j}", "e{i} s{j} s{i}", "s{j} s{i} e{j}"),
    ("e_{i} e_{j} g_{i} = e_{j} g_{i} e_{j}", "e{i} e{j} s{i}", "e{j} s{i} e{j}"),
    ("e_{j} g_{i} e_{j} = g_{i} e_{i} e_{j}", "e{j} s{i} e{j}", "s{i} e{i} e{j}"),
)


# far pairs of a tied algebra's kinds a <= b (in table order) commute
_FAR_PAIR = (("{a}_{i} {b}_{j} = {b}_{j} {a}_{i} {params}", "{a}{i} {b}{j}", "{b}{j} {a}{i}"),)


def _tied_rows(n, kinds, params, rows_i, rows_j):
    """The rows of one tied algebra at the specialization ``params``: far
    pairs of ``kinds`` commute, then for each i come the ``rows_i`` and
    the ``rows_j`` for j = i - 1 and j = i + 1 within 1..n - 1."""
    for a, b in combinations_with_replacement(kinds, 2):
        for i, j in product(range(1, n), repeat=2):
            if abs(i - j) != 1 and (a != b or j > i):
                yield _FAR_PAIR, dict(a=a, b=b, i=i, j=j, params=params)
    yield from _around(n, rows_i, (), rows_j)


# (family; its generator kinds, read from the registry, whose far pairs
# commute; specialized parameters; rows over i; rows over adjacent j); braids
# specialize to crossings at a = q = 1, and their inverses are the crossings
_TIED_FAMILY = (
    ("tjn", FAMILIES["tjn"].generators, "(x=y=1)",
     (_T_SQUARE, _E_SQUARE, ("f_{i}^2 = y f_{i} -> f_{i}", "f{i} f{i}", "f{i}"),
      _T_E, _F_E, ("f_{i} t_{i} = y t_{i} -> t_{i}", "f{i} t{i}", "t{i}")),
     (("e_{i} e_{j} = e_{j} e_{i}", "e{i} e{j}", "e{j} e{i}"), _T_T_T, _T_E_T,
      ("f_{i} e_{j} = e_{j} f_{i}", "f{i} e{j}", "e{j} f{i}"), _F_E_ADJ)),
    ("tbrn", FAMILIES["tbrn"].generators, "(a=q=x=1)",
     (_T_SQUARE, _T_E, _F_E,
      ("g_{i} t_{i} = a^-1 t_{i} -> s_{i} t_{i} = t_{i}", "s{i} t{i}", "t{i}"),
      ("f_{i} g_{i} = a^-1 f_{i} -> f_{i} s_{i} = f_{i}", "f{i} s{i}", "f{i}"),
      # both sides equal at q = 1
      ("g_{i} - g_{i}^-1 = (q-q^-1)(e_{i}-f_{i}) -> 0 = 0", "s{i}", "s{i}")),
     (*_BRAIDS_AND_TIES, _T_T_T, _T_E_T, _F_E_ADJ,
      ("t_{i} g_{j} t_{i} = a t_{i} -> t_{i} s_{j} t_{i} = t_{i}",
       "t{i} s{j} t{i}", "t{i}"),
      ("g_{i} g_{j} t_{i} = t_{j} g_{i} g_{j}", "s{i} s{j} t{i}", "t{j} s{i} s{j}"),
      ("t_{j} g_{i} g_{j} = t_{j} t_{i}", "t{j} s{i} s{j}", "t{j} t{i}"),
      ("g_{i} t_{j} g_{i} = g_{j}^-1 t_{i} g_{j}^-1", "s{i} t{j} s{i}", "s{j} t{i} s{j}"),
      ("g_{i} f_{j} g_{i} = g_{j}^-1 f_{i} g_{j}^-1", "s{i} f{j} s{i}", "s{j} f{i} s{j}"),
      ("g_{i} t_{j} t_{i} = g_{j}^-1 t_{i}", "s{i} t{j} t{i}", "s{j} t{i}"),
      ("t_{i} t_{j} g_{i} = t_{i} g_{j}^-1", "t{i} t{j} s{i}", "t{i} s{j}"))),
    ("tsn", FAMILIES["tsn"].generators, "(v=1)",
     (_E_SQUARE, ("g_{i}^2 = 1 + (v-v^-1) e_{i} g_{i} -> s_{i}^2 = 1", "s{i} s{i}", "")),
     _BRAIDS_AND_TIES),
)


def suite_tied_specializations(n_max: int = 4) -> SuiteReport:
    """Parameter-specialized tied algebra relations checked in the tied
    monoid algebras: two-parameter planar -> tied planar at x=y=1, tied
    Kauffman-type -> tied Brauer at a=q=x=1, braids-and-ties at v=1."""
    report = SuiteReport("tied-specializations")
    for n in range(2, n_max + 1):
        for name, *table in _TIED_FAMILY:
            _check_rows(report, family(name, n), NEGLECT, _tied_rows(n, *table))
    return report


# -- specialization homomorphism --------------------------------------------------------

def _random_element(rng, basis, fam, policy):
    count = rng.randint(1, 2)
    terms = {}
    for _ in range(count):
        diag = rng.choice(basis)
        terms[diag] = terms.get(diag, 0) + rng.randint(1, 3)
    return AlgebraElement(fam, policy, terms)


def _full_specialize(elem):
    return specialize(elem, alpha_to_one(elem.fam.d), beads_to_one=True,
                      policy=NEGLECT)


def _hom_bridge_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    fbr = bridge_f(1, fam, ALPHA)
    ebr = bridge_e(2, 3, fam, ALPHA)
    for name, u, v in (("fbar_1 * ebar", fbr, ebr), ("ebar * fbar_1", ebr, fbr)):
        yield (f"spec hom on bridges: {name}", _full_specialize(u * v),
               _full_specialize(u) * _full_specialize(v))
    if fam.d == 1:
        basis = closure(fam)
        sample = from_diagram(basis[len(basis) // 2], fam, ALPHA)
        yield ("d=1: specialization is the identity map",
               specialize(sample, alpha_to_one(1), beads_to_one=True), sample)


def suite_specialization_homomorphism(pairs: int = 1000, seed: int = DEFAULT_SEED,
                                      fams: Optional[Sequence[MonoidFamily]] = None
                                      ) -> SuiteReport:
    """Setting every framing and every loop scalar to one is multiplicative:
    checked on random element pairs and on bridges, in families with n >= 3."""
    if pairs < 1:
        raise ValueError(f"need at least one random pair, got {pairs}")
    report = SuiteReport("specialization-homomorphism")
    if fams is None:
        fams = (family("jdn", 4, 3), family("brdn", 3, 2),
                family("rprimedn", 3, 2), family("jdn", 3, 1))
    for fam in fams:
        if fam.n < 3:
            raise ValueError(f"the bridge checks of {fam} need n >= 3")
    for fam in fams:
        rng = random.Random(seed)
        basis = closure(fam)
        witness = None
        for _ in range(pairs):
            a = _random_element(rng, basis, fam, ALPHA)
            b = _random_element(rng, basis, fam, ALPHA)
            if witness is None and not equal(_full_specialize(a * b),
                                             _full_specialize(a) * _full_specialize(b)):
                witness = f"a={a.dump()} b={b.dump()}"
        report.check(fam, f"spec(ab) = spec(a) spec(b) x{pairs}", witness is None, witness)
        _check_catalogue(report, fam, _hom_bridge_identities(fam))
    return report
