"""Bundled verification suites: cardinalities, presentations, bridge
identities, framed Temperley-Lieb checks and specialization maps.  The tied
suite's catalogues come from one row table, ``_TIED_FAMILY``.

Every suite returns a :class:`SuiteReport` whose entries carry one identity
each; failures come with a reproducible witness.  Randomized suites take a
seed (default ``0xF4A317``) and are byte-deterministic given the seed: the
serialized report omits timings.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterator, Optional, Sequence

from .diagrams import BeadedDiagram, CapExceeded
from .monoids import (
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
    alpha_to_one,
    bridge_e,
    bridge_f,
    bridge_q,
    bridge_w,
    cap_z,
    equal,
    from_diagram,
    from_word,
    specialize,
    x_var,
    y_var,
)

DEFAULT_SEED = 0xF4A317

EXPECT_FAIL = "expect-fail:"


@dataclass(frozen=True)
class SuiteEntry:
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


@dataclass
class SuiteReport:
    name: str
    entries: list[SuiteEntry] = field(default_factory=list)

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


def _check_catalogue(report: SuiteReport, fam: MonoidFamily,
                     catalogue: Callable[[MonoidFamily], Iterator[tuple]]):
    """Record every ``(identity, lhs, rhs)`` of ``catalogue(fam)``; an entry's
    ``ms`` covers building both sides and comparing them."""
    t0 = time.perf_counter()
    for ident, lhs, rhs in catalogue(fam):
        same = equal(lhs, rhs)
        ms = (time.perf_counter() - t0) * 1000
        report.check(fam, ident, same,
                     None if same else f"lhs - rhs = {(lhs - rhs).dump()}", ms)
        t0 = time.perf_counter()


# -- cardinalities ---------------------------------------------------------------

def suite_cardinalities(grid: Optional[Sequence[MonoidFamily]] = None,
                        cap: int = 1_000_000) -> SuiteReport:
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


# -- bridge identity catalogues ----------------------------------------------------

def _partition_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    policy = NEGLECT
    n = fam.n
    el = lambda w: from_word(w, fam, policy)
    eb = lambda i, j: bridge_e(i, j, fam, policy)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield (f"ebar_{i}{j}^2 = ebar_{i}{j}", eb(i, j) * eb(i, j), eb(i, j))
            yield (f"z_{i} ebar_{i}{j} = z_{j} ebar_{i}{j}",
                   el(f"o{i}") * eb(i, j), el(f"o{j}") * eb(i, j))
            yield (f"z_{i} ebar_{i}{j} = ebar_{i}{j} z_{i}",
                   el(f"o{i}") * eb(i, j), eb(i, j) * el(f"o{i}"))
            yield (f"ebar_{i}{j} z_{i} = ebar_{i}{j} z_{j}",
                   eb(i, j) * el(f"o{i}"), eb(i, j) * el(f"o{j}"))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (i, j), (r, s) = pairs[a], pairs[b]
            yield (f"ebar_{i}{j} ebar_{r}{s} = ebar_{r}{s} ebar_{i}{j}",
                   eb(i, j) * eb(r, s), eb(r, s) * eb(i, j))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                yield (f"ebar_{i}{j} ebar_{i}{k} = ebar_{i}{j} ebar_{j}{k}",
                       eb(i, j) * eb(i, k), eb(i, j) * eb(j, k))
                yield (f"ebar_{i}{j} ebar_{j}{k} = ebar_{i}{k} ebar_{j}{k}",
                       eb(i, j) * eb(j, k), eb(i, k) * eb(j, k))


def _symmetric_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    policy = ALPHA  # permutation products close no loops: any policy gives the same
    n = fam.n
    el = lambda w: from_word(w, fam, policy)
    eb = lambda i: bridge_e(i, i + 1, fam, policy)
    for i in range(1, n):
        yield (f"ebar_{i}^2 = ebar_{i}", eb(i) * eb(i), eb(i))
        yield (f"z_{i} ebar_{i} = z_{i + 1} ebar_{i}",
               el(f"o{i}") * eb(i), el(f"o{i + 1}") * eb(i))
        yield (f"z_{i} ebar_{i} = ebar_{i} z_{i}",
               el(f"o{i}") * eb(i), eb(i) * el(f"o{i}"))
        for j in range(i + 1, n):
            yield (f"ebar_{i} ebar_{j} = ebar_{j} ebar_{i}",
                   eb(i) * eb(j), eb(j) * eb(i))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) != 1:
                yield (f"s_{i} ebar_{j} = ebar_{j} s_{i}",
                       el(f"s{i}") * eb(j), eb(j) * el(f"s{i}"))
            else:
                yield (f"ebar_{i} s_{j} s_{i} = s_{j} s_{i} ebar_{j}",
                       eb(i) * el(f"s{j} s{i}"), el(f"s{j} s{i}") * eb(j))
                yield (f"ebar_{i} ebar_{j} s_{i} = ebar_{j} s_{i} ebar_{j}",
                       eb(i) * eb(j) * el(f"s{i}"), eb(j) * el(f"s{i}") * eb(j))
                yield (f"ebar_{j} s_{i} ebar_{j} = s_{i} ebar_{i} ebar_{j}",
                       eb(j) * el(f"s{i}") * eb(j), el(f"s{i}") * eb(i) * eb(j))


def _rook_first_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    # plain scalars: beads escape through free points, so the averaged scalar
    # framing appears with all alpha specialized to 1
    policy = NEGLECT
    n, d = fam.n, fam.d
    el = lambda w: from_word(w, fam, policy)
    eb = lambda i: bridge_e(i, i + 1, fam, policy)
    z0 = lambda i: specialize(cap_z(i, fam, policy), alpha_to_one(d))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            yield (f"ebar_{i} p_{j} = p_{j}", eb(i) * el(f"p{j}"), el(f"p{j}"))
            yield (f"p_{j} ebar_{i} = p_{j}", el(f"p{j}") * eb(i), el(f"p{j}"))
        yield (f"ebar_{i} p_{i} = Z0_{i + 1} p_{i}",
               eb(i) * el(f"p{i}"), z0(i + 1) * el(f"p{i}"))
        yield (f"p_{i} ebar_{i} = p_{i} Z0_{i + 1}",
               el(f"p{i}") * eb(i), el(f"p{i}") * z0(i + 1))
        for j in range(1, i):
            yield (f"ebar_{i} p_{j} = p_{j} ebar_{i}",
                   eb(i) * el(f"p{j}"), el(f"p{j}") * eb(i))
    for i in range(1, n + 1):
        yield (f"qbar_{i} = r_{i} (bridge degenerates)",
               bridge_q(i, fam, policy), el(f"r{i}"))
        yield (f"wbar_{i} = p_{i} (bridge degenerates)",
               bridge_w(i, i, i, fam, policy), el(f"p{i}"))


def _rook_prime_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    policy = ALPHA
    n = fam.n
    el = lambda w: from_word(w, fam, policy)
    eb = lambda i: bridge_e(i, i + 1, fam, policy)
    qb = lambda i: bridge_q(i, fam, policy)
    zc = lambda i: cap_z(i, fam, policy)
    for i in range(1, n + 1):
        yield (f"qbar_{i}^2 = qbar_{i} Z_{i}", qb(i) * qb(i), qb(i) * zc(i))
        yield (f"z_{i} qbar_{i} = qbar_{i} z_{i}",
               el(f"o{i}") * qb(i), qb(i) * el(f"o{i}"))
        for j in range(i + 1, n + 1):
            yield (f"qbar_{i} qbar_{j} = qbar_{j} qbar_{i}",
                   qb(i) * qb(j), qb(j) * qb(i))
            yield (f"r_{i} qbar_{j} = qbar_{j} r_{i}",
                   el(f"r{i}") * qb(j), qb(j) * el(f"r{i}"))
            yield (f"r_{j} qbar_{i} = qbar_{i} r_{j}",
                   el(f"r{j}") * qb(i), qb(i) * el(f"r{j}"))
    for i in range(1, n):
        for j in range(1, n + 1):
            yield (f"qbar_{j} ebar_{i} = ebar_{i} qbar_{j}",
                   qb(j) * eb(i), eb(i) * qb(j))
            yield (f"s_{i} qbar_{j} = qbar_{_swap(i, j)} s_{i}",
                   el(f"s{i}") * qb(j), qb(_swap(i, j)) * el(f"s{i}"))
        for j in (i, i + 1):
            yield (f"ebar_{i} r_{j} ebar_{i} = ebar_{i} qbar_{j}",
                   eb(i) * el(f"r{j}") * eb(i), eb(i) * qb(j))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield (f"ebar_{i} r_{j} = r_{j} ebar_{i}",
                       eb(i) * el(f"r{j}"), el(f"r{j}") * eb(i))
        yield (f"r_{i} ebar_{i} r_{i} = r_{i} Z_{i + 1}",
               el(f"r{i}") * eb(i) * el(f"r{i}"), el(f"r{i}") * zc(i + 1))
        yield (f"r_{i + 1} ebar_{i} r_{i + 1} = Z_{i} r_{i + 1}",
               el(f"r{i + 1}") * eb(i) * el(f"r{i + 1}"), zc(i) * el(f"r{i + 1}"))
        yield (f"r_{i} ebar_{i} r_{i + 1} = s_{i} qbar_{i} r_{i + 1}",
               el(f"r{i}") * eb(i) * el(f"r{i + 1}"),
               el(f"s{i}") * qb(i) * el(f"r{i + 1}"))
    for i in range(2, n + 1):
        word = " ".join(f"r{m}" for m in range(1, i))
        yield (f"wbar_{i} = r_1..r_{i - 1} qbar_{i}",
               bridge_w(i, i, i, fam, policy), el(word) * qb(i))
    # transport across the two broken arcs of p_i
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for h in range(1, i + 1):
                wb = bridge_w(i, j, h, fam, policy)
                yield (f"z_{j} wbar_{i}({j},{h}) = wbar_{i}({j},{h}) z_{h}",
                       el(f"o{j}") * wb, wb * el(f"o{h}"))


def _jones_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    policy = ALPHA
    n = fam.n
    el = lambda w: from_word(w, fam, policy)
    eb = lambda i: bridge_e(i, i + 1, fam, policy)
    fb = lambda i: bridge_f(i, fam, policy)
    zc = lambda i: cap_z(i, fam, policy)
    for i in range(1, n):
        yield (f"fbar_{i}^2 = fbar_{i} Z_{i}", fb(i) * fb(i), fb(i) * zc(i))
        yield (f"t_{i}^2 = t_{i}", el(f"t{i}") * el(f"t{i}"), el(f"t{i}"))
        yield (f"ebar_{i} t_{i} = t_{i}", eb(i) * el(f"t{i}"), el(f"t{i}"))
        yield (f"t_{i} ebar_{i} = t_{i}", el(f"t{i}") * eb(i), el(f"t{i}"))
        yield (f"fbar_{i} ebar_{i} = fbar_{i}", fb(i) * eb(i), fb(i))
        yield (f"ebar_{i} fbar_{i} = fbar_{i}", eb(i) * fb(i), fb(i))
        yield (f"t_{i} fbar_{i} = t_{i} Z_{i}", el(f"t{i}") * fb(i), el(f"t{i}") * zc(i))
        yield (f"fbar_{i} t_{i} = Z_{i} t_{i}", fb(i) * el(f"t{i}"), zc(i) * el(f"t{i}"))
        yield (f"z_{i} fbar_{i} = z_{i + 1} fbar_{i}",
               el(f"o{i}") * fb(i), el(f"o{i + 1}") * fb(i))
        yield (f"z_{i} fbar_{i} = fbar_{i} z_{i}",
               el(f"o{i}") * fb(i), fb(i) * el(f"o{i}"))
        yield (f"fbar_{i} z_{i} = fbar_{i} z_{i + 1}",
               fb(i) * el(f"o{i}"), fb(i) * el(f"o{i + 1}"))
        for j in range(1, n):
            if abs(i - j) > 1:
                yield (f"fbar_{i} fbar_{j} = fbar_{j} fbar_{i}",
                       fb(i) * fb(j), fb(j) * fb(i))
                yield (f"t_{i} ebar_{j} = ebar_{j} t_{i}",
                       el(f"t{i}") * eb(j), eb(j) * el(f"t{i}"))
                yield (f"t_{i} fbar_{j} = fbar_{j} t_{i}",
                       el(f"t{i}") * fb(j), fb(j) * el(f"t{i}"))
                yield (f"ebar_{i} fbar_{j} = fbar_{j} ebar_{i}",
                       eb(i) * fb(j), fb(j) * eb(i))
            elif abs(i - j) == 1:
                # the strand of ebar_j away from the tangle keeps its framing
                away = j + 1 if j > i else j
                yield (f"t_{i} ebar_{j} t_{i} = t_{i} Z_{away}",
                       el(f"t{i}") * eb(j) * el(f"t{i}"), el(f"t{i}") * zc(away))
                yield (f"fbar_{i} ebar_{j} = ebar_{j} t_{i} ebar_{j}",
                       fb(i) * eb(j), eb(j) * el(f"t{i}") * eb(j))
                yield (f"ebar_{j} fbar_{i} = ebar_{j} t_{i} ebar_{j}",
                       eb(j) * fb(i), eb(j) * el(f"t{i}") * eb(j))
                yield (f"t_{i} t_{j} t_{i} = t_{i}",
                       el(f"t{i} t{j} t{i}"), el(f"t{i}"))
    if n >= 2 and fam.d >= 2:
        yield (f"{EXPECT_FAIL}fbar_1^2 = fbar_1 (needs Z)", fb(1) * fb(1), fb(1))


def _brauer_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    policy = ALPHA
    n = fam.n
    el = lambda w: from_word(w, fam, policy)
    fb = lambda i: bridge_f(i, fam, policy)
    yield from _jones_identities(fam)
    yield from _symmetric_identities(fam)
    for i in range(1, n):
        yield (f"fbar_{i} s_{i} = fbar_{i}", fb(i) * el(f"s{i}"), fb(i))
        yield (f"s_{i} fbar_{i} = fbar_{i}", el(f"s{i}") * fb(i), fb(i))
        for j in range(1, n):
            if abs(i - j) > 1:
                yield (f"fbar_{i} s_{j} = s_{j} fbar_{i}",
                       fb(i) * el(f"s{j}"), el(f"s{j}") * fb(i))
            elif abs(i - j) == 1:
                yield (f"s_{i} fbar_{j} s_{i} = s_{j} fbar_{i} s_{j}",
                       el(f"s{i}") * fb(j) * el(f"s{i}"),
                       el(f"s{j}") * fb(i) * el(f"s{j}"))


_BRIDGE_FAMILY = {
    "partition": ("cdn", _partition_identities),
    "symmetric": ("sdn", _symmetric_identities),
    "rookR": ("rdn", _rook_first_identities),
    "rookRprime": ("rprimedn", _rook_prime_identities),
    "jones": ("jdn", _jones_identities),
    "brauer": ("brdn", _brauer_identities),
}

BRIDGE_TARGETS = tuple(_BRIDGE_FAMILY)


def suite_bridges(target: str, d_values: Sequence[int] = (2, 3, 4),
                  n: int = 4) -> SuiteReport:
    """Exact bridge identities of one target family, per framing modulus."""
    if target not in _BRIDGE_FAMILY:
        raise ValueError(f"unknown bridge target {target!r}; "
                         f"choose from {BRIDGE_TARGETS}")
    name, catalogue = _BRIDGE_FAMILY[target]
    report = SuiteReport(f"bridges-{target}")
    for d in d_values:
        _check_catalogue(report, family(name, n, d), catalogue)
    return report


# -- framed Temperley-Lieb ----------------------------------------------------------

def _tl_relations(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    el = lambda w: from_word(w, fam, XY)
    n, d = fam.n, fam.d
    for i in range(1, n):
        yield (f"t_{i}^2 = x t_{i}", el(f"t{i}") * el(f"t{i}"), x_var() * el(f"t{i}"))
    for i in range(1, n):
        for k in range(d):
            scalar = x_var() * y_var(k, d)
            yield (f"t_{i} o_{i}^{k} t_{i} = x y_{k} t_{i}",
                   el(f"t{i} o{i}^{k} t{i}"), scalar * el(f"t{i}"))
        yield (f"t_{i} o_{i} = t_{i} o_{i + 1}", el(f"t{i} o{i}"), el(f"t{i} o{i + 1}"))
        yield (f"o_{i} t_{i} = o_{i + 1} t_{i}", el(f"o{i} t{i}"), el(f"o{i + 1} t{i}"))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1 and i < j:
                yield (f"t_{i} t_{j} = t_{j} t_{i}", el(f"t{i} t{j}"), el(f"t{j} t{i}"))
            if abs(i - j) == 1:
                yield (f"t_{i} t_{j} t_{i} = t_{i}", el(f"t{i} t{j} t{i}"), el(f"t{i}"))
    for i in range(1, n + 1):
        yield (f"o_{i}^{d} = 1", el(f"o{i}^{d}"), el(""))
        for j in range(i + 1, n + 1):
            yield (f"o_{i} o_{j} = o_{j} o_{i}", el(f"o{i} o{j}"), el(f"o{j} o{i}"))
    for j in range(1, n):
        for i in range(1, n + 1):
            if i not in (j, j + 1):
                yield (f"o_{i} t_{j} = t_{j} o_{i}", el(f"o{i} t{j}"), el(f"t{j} o{i}"))


def suite_framed_tl(d_values: Sequence[int] = (1, 2, 3),
                    n_values: Sequence[int] = (1, 2, 3, 4),
                    triples: int = 10_000,
                    seed: int = DEFAULT_SEED) -> SuiteReport:
    """Framed Temperley-Lieb checks: basis size, product relations,
    random associativity triples under the loop-to-x*y rule."""
    report = SuiteReport("framed-tl")
    rng = random.Random(seed)
    cells = [(d, n) for d in d_values for n in n_values]
    share = max(1, -(-triples // len(cells)))
    for d, n in cells:
        fam = family("jdn", n, d)
        basis = closure(fam)
        want = predicted_cardinality(fam)
        report.check(fam, f"basis count = d^n * catalan = {want}", len(basis) == want,
                     f"got {len(basis)}")
        _check_catalogue(report, fam, _tl_relations)
        witness = None
        for _ in range(share):
            a, b, c = (from_diagram(rng.choice(basis), fam, XY) for _ in range(3))
            if witness is None and not equal((a * b) * c, a * (b * c)):
                witness = f"a={a.dump()} b={b.dump()} c={c.dump()}"
        report.check(fam, f"associativity x{share}", witness is None, witness)
    return report


# -- tied specializations --------------------------------------------------------------

# A row is (identity, lhs word, rhs word), each a ``str.format`` template over
# the index i and, in a row over adjacent indices, j = i - 1 or i + 1; a row
# that two tied algebras share is declared once.
_T_SQUARE = ("t_{i}^2 = x t_{i} -> t_{i}", "t{i} t{i}", "t{i}")
_E_SQUARE = ("e_{i}^2 = e_{i}", "e{i} e{i}", "e{i}")
_T_E = ("t_{i} e_{i} = t_{i}", "t{i} e{i}", "t{i}")
_F_E = ("f_{i} e_{i} = f_{i}", "f{i} e{i}", "f{i}")
_T_T_T = ("t_{i} t_{j} t_{i} = t_{i}", "t{i} t{j} t{i}", "t{i}")
_T_E_T = ("t_{i} e_{j} t_{i} = t_{i}", "t{i} e{j} t{i}", "t{i}")
_F_E_ADJ = ("f_{i} e_{j} = e_{j} t_{i} e_{j}", "f{i} e{j}", "e{j} t{i} e{j}")
_BRAIDS_AND_TIES = (
    ("g_{i} g_{j} g_{i} = g_{j} g_{i} g_{j}", "s{i} s{j} s{i}", "s{j} s{i} s{j}"),
    ("e_{i} g_{j} g_{i} = g_{j} g_{i} e_{j}", "e{i} s{j} s{i}", "s{j} s{i} e{j}"),
    ("e_{i} e_{j} g_{i} = e_{j} g_{i} e_{j}", "e{i} e{j} s{i}", "e{j} s{i} e{j}"),
    ("e_{j} g_{i} e_{j} = g_{i} e_{i} e_{j}", "e{j} s{i} e{j}", "s{i} e{i} e{j}"),
)


def _tied_identities(kinds: Sequence[str], params: str, rows_i: Sequence[tuple],
                     rows_j: Sequence[tuple]):
    """The catalogue of one tied algebra at the specialization ``params``:
    far pairs of ``kinds`` commute, then for each i come the ``rows_i`` and
    the ``rows_j`` for j = i - 1 and j = i + 1 within 1..n - 1."""
    def catalogue(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
        n = fam.n
        el = lambda w: from_word(w, fam, NEGLECT)
        for a, b in combinations_with_replacement(kinds, 2):
            for i, j in product(range(1, n), repeat=2):
                if abs(i - j) != 1 and (a != b or j > i):
                    yield (f"{a}_{i} {b}_{j} = {b}_{j} {a}_{i} {params}",
                           el(f"{a}{i} {b}{j}"), el(f"{b}{j} {a}{i}"))
        for i in range(1, n):
            for rows, j in ((rows_i, i), (rows_j, i - 1), (rows_j, i + 1)):
                for row in rows if 1 <= j < n else ():
                    ident, lhs, rhs = (part.format(i=i, j=j) for part in row)
                    yield ident, el(lhs), el(rhs)
    return catalogue


# (family, kinds whose far pairs commute, specialized parameters, rows over i,
# rows over adjacent j); braids specialize to crossings at a = q = 1, and
# their inverses are the crossings
_TIED_FAMILY = (
    ("tjn", ("t", "e", "f"), "(x=y=1)",
     (_T_SQUARE, _E_SQUARE, ("f_{i}^2 = y f_{i} -> f_{i}", "f{i} f{i}", "f{i}"),
      _T_E, _F_E, ("f_{i} t_{i} = y t_{i} -> t_{i}", "f{i} t{i}", "t{i}")),
     (("e_{i} e_{j} = e_{j} e_{i}", "e{i} e{j}", "e{j} e{i}"), _T_T_T, _T_E_T,
      ("f_{i} e_{j} = e_{j} f_{i}", "f{i} e{j}", "e{j} f{i}"), _F_E_ADJ)),
    ("tbrn", ("s", "t", "e", "f"), "(a=q=x=1)",
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
    ("tsn", ("s", "e"), "(v=1)",
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
            _check_catalogue(report, family(name, n), _tied_identities(*table))
    return report


# -- specialization homomorphism --------------------------------------------------------

def _random_element(rng, basis, fam, policy):
    count = rng.randint(1, 2)
    terms = {}
    for _ in range(count):
        diag = rng.choice(basis)
        terms[diag] = terms.get(diag, 0) + Fraction(rng.randint(1, 3))
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
        _check_catalogue(report, fam, _hom_bridge_identities)
    return report
