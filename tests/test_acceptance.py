"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them); every comparison is exact integer or exact rational equality.
"""

import math
import time

from framoid.monoids import (
    bell,
    catalan,
    check_relations,
    closure,
    family,
    fuss_catalan_41,
    odd_double_factorial,
    predicted_cardinality,
)
from framoid.normalform import (
    brauer_nf,
    evaluate_word,
    jones_nf,
    min_length_oracle,
    rook_nf,
)
from framoid.verify import (
    BRIDGE_TARGETS,
    DEFAULT_SEED,
    EXPECT_FAIL,
    suite_bridges,
    suite_framed_tl,
    suite_specialization_homomorphism,
    suite_tied_specializations,
)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _criterion1_grid():
    grid = []
    for d in (1, 2, 3):
        for n in range(1, 6):
            grid.append((family("jdn", n, d), d ** n * catalan(n)))
    for d in (1, 2):
        for n in range(1, 5):
            grid.append((family("brdn", n, d),
                         d ** n * odd_double_factorial(n)))
    for n, want in zip(range(1, 5), (3, 17, 139, 1473)):
        grid.append((family("rdn", n, 2), want))
    # n = 3 corrects a printed 68: the formula and the enumeration give 688
    for n, want in zip(range(1, 5), (6, 56, 688, 10368)):
        grid.append((family("rprimedn", n, 2), want))
    for n in range(1, 5):
        grid.append((family("tsn", n), bell(n) * math.factorial(n)))
        grid.append((family("tjn", n), fuss_catalan_41(n)))
        grid.append((family("tbrn", n), odd_double_factorial(n) * bell(n)))
    for n, want in zip(range(1, 5), (2, 9, 76, 1001)):
        grid.append((family("trn", n), want))
    for n, want in zip(range(1, 5), (3, 39, 971, 38140)):
        grid.append((family("trprimen", n), want))
    return grid


def test_criterion_1_cardinalities():
    t0 = time.time()
    bad = []
    for fam, want in _criterion1_grid():
        got = len(closure(fam))
        if got != want or predicted_cardinality(fam) != want:
            bad.append((str(fam), got, want))
    elapsed = time.time() - t0
    _report(1, not bad and elapsed < 300,
            f"exact cardinalities on the full grid in {elapsed:.1f}s"
            + (f"; mismatches {bad}" if bad else ""))


def test_criterion_2_presentations():
    from framoid.monoids import default_grid

    t0 = time.time()
    bad = []
    instances = 0
    fams = {fam for fam, _ in _criterion1_grid()} | set(default_grid())
    for fam in sorted(fams, key=str):
        rep = check_relations(fam)
        instances += rep.checked
        if not rep.passed:
            bad.append((str(fam), rep.failures()[:2]))
    _report(2, not bad,
            f"presentations sound for all {len(fams)} family instances, "
            f"{instances} instances, zero failures in {time.time() - t0:.1f}s"
            + (f"; {bad}" if bad else ""))


def test_criterion_3_normal_forms():
    t0 = time.time()
    failures = []

    def round_trip(fam, nf):
        for x in closure(fam):
            word = nf(x)
            again, _ = evaluate_word(word.tokens(), fam)
            if again != x:
                failures.append((str(fam), x.encode(), word.text()))
                return

    for d in (1, 2, 3):
        for n in range(1, 6):
            round_trip(family("jdn", n, d), jones_nf)
    for d in (1, 2):
        for n in range(1, 5):
            round_trip(family("brdn", n, d), brauer_nf)
            round_trip(family("rdn", n, d), lambda x: rook_nf(x, "first"))
            round_trip(family("rprimedn", n, d), lambda x: rook_nf(x, "prime"))

    for n in range(1, 6):
        fam = family("jn", n)
        for x in closure(fam):
            tangles = sum(i - j + 1 for i, j in jones_nf(x).tangle_runs)
            if tangles != min_length_oracle(x, fam):
                failures.append(("minimality", x.encode()))

    from framoid.diagrams import BeadedDiagram

    blocks = [(1, 4), (2, 3), (5, 6), (7, 8), (9, 10)]
    beads = {frozenset((2, 3)): 1, frozenset((5, 6)): 2, frozenset((9, 10)): 1}
    jw = jones_nf(BeadedDiagram(5, 4, blocks, beads, "planar-matching")).text()
    bw = brauer_nf(BeadedDiagram(5, 4, blocks, beads, "matching")).text()
    if jw != "o2 t2 t1 t3 t2 t4 o1^2 o4":
        failures.append(("jones golden word", jw))
    if bw != "o2 o5^2 s3 s2 t1 t3 s4 s3 s2 s1 o4":
        failures.append(("brauer golden word", bw))

    _report(3, not failures,
            f"normal forms round-trip on every element, minimal tangle "
            f"count, golden words byte-exact in {time.time() - t0:.1f}s"
            + (f"; {failures[:3]}" if failures else ""))


def test_criterion_4_bridge_suites():
    t0 = time.time()
    bad = []
    control_seen = False
    for target in BRIDGE_TARGETS:
        rep = suite_bridges(target, d_values=(2, 3, 4), n=4)
        for e in rep.entries:
            if e.identity.startswith(EXPECT_FAIL):
                control_seen = True
                if e.status != "fail":
                    bad.append((target, e.identity, "control unexpectedly held"))
            elif e.status != "pass":
                bad.append((target, e.identity, e.witness))
    elapsed = time.time() - t0
    _report(4, not bad and control_seen and elapsed < 120,
            f"all bridge identities exact for d in 2..4, n=4; negative "
            f"control fails as expected; {elapsed:.1f}s"
            + (f"; {bad[:3]}" if bad else ""))


def test_criterion_5_framed_tl():
    t0 = time.time()
    rep = suite_framed_tl(d_values=(1, 2, 3), n_values=(1, 2, 3, 4),
                          triples=10_000, seed=DEFAULT_SEED)
    bad = [(e.identity, e.witness) for e in rep.entries if not e.ok]
    triples = sum(int(e.identity.split("x")[-1]) for e in rep.entries
                  if e.identity.startswith("associativity"))
    _report(5, not bad and triples >= 10_000,
            f"framed TL basis counts, product relations, {triples} "
            f"associativity triples in {time.time() - t0:.1f}s"
            + (f"; {bad[:3]}" if bad else ""))


def test_criterion_6_specializations():
    t0 = time.time()
    tied = suite_tied_specializations(4)
    hom = suite_specialization_homomorphism(pairs=1000, seed=DEFAULT_SEED)
    bad = [(e.family, e.identity) for rep in (tied, hom) for e in rep.entries
           if not e.ok]
    _report(6, not bad,
            f"tied specializations (n<=4) and 1000 random specialization "
            f"pairs per family in {time.time() - t0:.1f}s"
            + (f"; {bad[:3]}" if bad else ""))


def test_criterion_7_determinism():
    t0 = time.time()
    runs = []
    for _ in range(2):
        tl = suite_framed_tl(d_values=(2,), n_values=(3,), triples=500,
                             seed=DEFAULT_SEED)
        hom = suite_specialization_homomorphism(pairs=60, seed=DEFAULT_SEED)
        bridges = suite_bridges("jones", d_values=(2,), n=3)
        runs.append("\n".join([tl.text(), hom.text(), bridges.text()]))
    _report(7, runs[0] == runs[1],
            f"two seeded runs produce byte-identical reports "
            f"({len(runs[0])} bytes) in {time.time() - t0:.1f}s")
