"""Suite machinery: reports, determinism, coverage, negative controls."""

import ast
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from framoid.algebra import NEGLECT, AlgebraElement, from_word
from framoid.monoids import FAMILY_NAMES, check_relations, default_grid, family
from framoid.verify import (
    BRIDGE_TARGETS,
    DEFAULT_SEED,
    EXPECT_FAIL,
    _TIED_FAMILY,
    _tied_identities,
    suite_bridges,
    suite_cardinalities,
    suite_framed_tl,
    suite_presentations,
    suite_specialization_homomorphism,
    suite_tied_specializations,
)


def test_cardinalities_small_grid():
    grid = [family("jdn", n, d) for d in (1, 2) for n in (1, 2, 3)]
    grid += [family("tjn", n) for n in (1, 2, 3)]
    report = suite_cardinalities(grid)
    assert report.passed
    assert len(report.entries) == len(grid)


def test_cardinalities_cap_failure_is_reported():
    report = suite_cardinalities([family("sdn", 4, 2)], cap=10)
    assert not report.passed
    assert "cap" in (report.entries[0].witness or "")


def test_presentations_small_grid():
    report = suite_presentations([family("jdn", 3, 2), family("trprimen", 3)])
    assert report.passed
    identities = {e.identity for e in report.entries}
    assert "t_i o_i^k t_i = t_i" in identities
    assert "r_i e_i r_{i+1} = s_i q_i r_{i+1}" in identities


@pytest.mark.parametrize("target", BRIDGE_TARGETS)
def test_bridges_small(target):
    report = suite_bridges(target, d_values=(2,), n=3)
    assert report.passed, [e.identity for e in report.entries if not e.ok][:3]


def test_bridge_negative_control_present():
    report = suite_bridges("jones", d_values=(2,), n=3)
    controls = [e for e in report.entries if e.identity.startswith(EXPECT_FAIL)]
    assert controls and all(e.status == "fail" for e in controls)
    assert all(e.witness for e in controls)
    assert report.passed  # expected failures count as ok


def test_bridge_coverage_spans_all_builders():
    tokens = set()
    for target in BRIDGE_TARGETS:
        report = suite_bridges(target, d_values=(2,), n=3)
        for e in report.entries:
            tokens.update(e.identity.replace("(", " ").replace(")", " ").split())
    for marker in ("ebar_1", "fbar_1", "qbar_1", "wbar_2", "Z_1"):
        assert any(t.startswith(marker) for t in tokens), marker


def test_presentation_coverage_spans_all_families():
    grid_names = {fam.name for fam in default_grid()}
    assert grid_names == set(FAMILY_NAMES)
    # and the grid exercises every declared schema of every family
    for name in FAMILY_NAMES:
        fams = [fam for fam in default_grid() if fam.name == name]
        largest = max(fams, key=lambda f: (f.n, f.d))
        declared = {s.display for s in largest.spec.schemas}
        report = suite_presentations([largest])
        seen = {e.identity for e in report.entries}
        assert declared <= seen


def test_report_that_checks_nothing_does_not_pass():
    for report in (suite_tied_specializations(1), suite_bridges("jones", (2,), 1)):
        assert report.entries == [] and report.summary().endswith(": 0/0 ok")
        assert not report.passed


def test_presentations_time_each_schema():
    fam = family("jdn", 3, 2)
    rel = check_relations(fam)
    assert all(e.ms > 0 for e in rel.entries)
    assert rel == check_relations(fam)  # timings are not part of the result
    report = suite_presentations([fam])
    assert [e.identity for e in report.entries] == [e.display for e in rel.entries]
    assert all(e.ms > 0 for e in report.entries)
    assert len({e.ms for e in report.entries}) > 1  # not one share per schema


def test_framed_tl_suite():
    report = suite_framed_tl(d_values=(1, 2), n_values=(2, 3), triples=200)
    assert report.passed


def test_tied_specializations_suite():
    report = suite_tied_specializations(3)
    assert report.passed
    degenerate = [e for e in report.entries if "0 = 0" in e.identity]
    assert degenerate and all(e.status == "pass" for e in degenerate)


def test_specialization_homomorphism_suite():
    report = suite_specialization_homomorphism(pairs=40)
    assert report.passed
    idents = {e.identity for e in report.entries}
    assert any("d=1" in s for s in idents)


def test_reports_are_deterministic():
    a = suite_framed_tl(d_values=(2,), n_values=(3,), triples=150, seed=DEFAULT_SEED)
    b = suite_framed_tl(d_values=(2,), n_values=(3,), triples=150, seed=DEFAULT_SEED)
    assert a.text() == b.text()
    c = suite_specialization_homomorphism(pairs=25, seed=123)
    d = suite_specialization_homomorphism(pairs=25, seed=123)
    assert c.text() == d.text()


def test_report_lines_are_json_without_timing():
    report = suite_presentations([family("jn", 3)])
    for line in report.lines():
        row = json.loads(line)
        assert set(row) <= {"suite", "family", "d", "n", "identity", "status",
                            "witness"}
    timed = report.lines(include_ms=True)
    assert all("ms" in json.loads(line) for line in timed)


def test_specialization_homomorphism_refuses_small_n_before_any_work(monkeypatch):
    import framoid.verify as verify

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the check of n")

    monkeypatch.setattr(verify, "closure", no_work)
    with pytest.raises(ValueError, match=r"jdn\(d=2,n=2\)"):
        suite_specialization_homomorphism(fams=[family("jdn", 4, 3), family("jdn", 2, 2)])


# sha256 of the report text of small runs, recorded at 0cfc1f2
PINNED_REPORTS = {
    "bridges-partition": "d9c765f0b8e0d88e4cb2a77dc6706835bae8c541419de83cdefa7db8b9e3528e",
    "bridges-symmetric": "bfb0f82da071709ce0952bef3b22a2a3ad0cf2c8fe14db3866219c0dbd5613f0",
    "bridges-rookR": "dd86a76ac50cc9dc9a5f7c702c43af74c055b56504400a4cd51e0133ad1cd080",
    "bridges-rookRprime": "23b1f3e61250fb5be85f548d4e7e2b5aa4a30e667e031dc7799aaeb25aafe79b",
    "bridges-jones": "5d67e81b2e7d3d81693ac26c9f1d2a4d8c25912673b759aaaefc436a84eddf2e",
    "bridges-brauer": "ed902c41366e4fb6e992d7ca60fdc8331880d49764f4c3071d40431711c5fa54",
    "tied": "d8921d2702a6368258133b92a0d19e2fd2b9fe6f426e56c6de8472c0cde3f4ee",
    "framed-tl": "f45d654114910cf8bbc02b08fd76d7c26a02e2463f44e1c1dcd928d5ad783c95",
    "hom": "038416928079d0ac7e45c4afbc55f77c170a14353733300e917f3940547708eb",
    "presentations": "14d4cdc337ed910b32270e25af2827bdb5d6a5d5411fa6f7ae72ec933f4df95d",
    "cardinalities": "de8e58172cd5a11b1498c0d0d24378f937c103d855996cc208d90167bc5251d1",
}

SMALL_RUNS = {
    **{f"bridges-{target}": (lambda target=target: suite_bridges(target, d_values=(2,), n=3))
       for target in BRIDGE_TARGETS},
    "tied": lambda: suite_tied_specializations(3),
    "framed-tl": lambda: suite_framed_tl(d_values=(1, 2), n_values=(2, 3), triples=200,
                                         seed=7),
    "hom": lambda: suite_specialization_homomorphism(
        pairs=25, seed=123, fams=[family("jdn", 3, 2), family("brdn", 3, 2),
                                  family("rprimedn", 3, 2), family("jdn", 3, 1)]),
    "presentations": lambda: suite_presentations(
        [family("jdn", 3, 2), family("trprimen", 3), family("rprimedn", 3, 2),
         family("brdn", 3, 2)]),
    # the sdn entry exceeds its cap: the witness of a failed closure is pinned too
    "cardinalities": lambda: suite_cardinalities(
        [family("jdn", n, d) for d in (1, 2) for n in (1, 2, 3)]
        + [family("tjn", n) for n in (1, 2, 3)] + [family("sdn", 4, 2)], cap=10),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name):
    text = SMALL_RUNS[name]().text()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[name]


def test_no_report_records_an_identity_twice():
    # every suite at its default grid; a smaller cap, triple or pair count
    # changes only a count inside an identity, one entry per family either way
    runs = [suite_cardinalities(cap=1), suite_presentations(), suite_tied_specializations(),
            suite_framed_tl(triples=12), suite_specialization_homomorphism(pairs=1)]
    runs += [suite_bridges(target) for target in BRIDGE_TARGETS]
    for report in runs:
        seen = Counter((e.family, e.d, e.n, e.identity) for e in report.entries)
        assert [key for key, count in seen.items() if count > 1] == [], report.name


ROOT = Path(__file__).resolve().parents[1]


def test_the_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "framoid").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "framoid" or top in sys.stdlib_module_names, (path.name, name)
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("\n[")[1]
    assert project.startswith("project]") and "\ndependencies = []\n" in project


# -- differential gate: the tied row table against the catalogues it replaced --

# The three hand-written catalogues the row table replaced, kept verbatim as
# the reference: the pinned report bytes hold only identities and statuses,
# so a row whose sides changed but still agree would not show there.

def _commuting_pairs(names: Sequence[str], n: int):
    for a_idx, a_kind in enumerate(names):
        for b_kind in names[a_idx:]:
            for i in range(1, n):
                for j in range(1, n):
                    if abs(i - j) == 1 or (a_kind == b_kind and j <= i):
                        continue
                    yield a_kind, i, b_kind, j


def _tied_tl_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    n = fam.n
    el = lambda w: from_word(w, fam, NEGLECT)
    for a_kind, i, b_kind, j in _commuting_pairs(("t", "e", "f"), n):
        yield (f"{a_kind}_{i} {b_kind}_{j} = {b_kind}_{j} {a_kind}_{i} (x=y=1)",
               el(f"{a_kind}{i} {b_kind}{j}"), el(f"{b_kind}{j} {a_kind}{i}"))
    for i in range(1, n):
        el_t = el(f"t{i}")
        yield (f"t_{i}^2 = x t_{i} -> t_{i}", el(f"t{i} t{i}"), el_t)
        yield (f"e_{i}^2 = e_{i}", el(f"e{i} e{i}"), el(f"e{i}"))
        yield (f"f_{i}^2 = y f_{i} -> f_{i}", el(f"f{i} f{i}"), el(f"f{i}"))
        yield (f"t_{i} e_{i} = t_{i}", el(f"t{i} e{i}"), el_t)
        yield (f"f_{i} e_{i} = f_{i}", el(f"f{i} e{i}"), el(f"f{i}"))
        yield (f"f_{i} t_{i} = y t_{i} -> t_{i}", el(f"f{i} t{i}"), el_t)
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            yield (f"e_{i} e_{j} = e_{j} e_{i}", el(f"e{i} e{j}"), el(f"e{j} e{i}"))
            yield (f"t_{i} t_{j} t_{i} = t_{i}", el(f"t{i} t{j} t{i}"), el_t)
            yield (f"t_{i} e_{j} t_{i} = t_{i}", el(f"t{i} e{j} t{i}"), el_t)
            yield (f"f_{i} e_{j} = e_{j} f_{i}", el(f"f{i} e{j}"), el(f"e{j} f{i}"))
            yield (f"f_{i} e_{j} = e_{j} t_{i} e_{j}",
                   el(f"f{i} e{j}"), el(f"e{j} t{i} e{j}"))


def _tied_bmw_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    # braids specialize to crossings at a = q = 1; inverses are the crossings
    n = fam.n
    el = lambda w: from_word(w, fam, NEGLECT)
    zero = AlgebraElement(fam, NEGLECT)
    for a_kind, i, b_kind, j in _commuting_pairs(("s", "t", "e", "f"), n):
        yield (f"{a_kind}_{i} {b_kind}_{j} = {b_kind}_{j} {a_kind}_{i} (a=q=x=1)",
               el(f"{a_kind}{i} {b_kind}{j}"), el(f"{b_kind}{j} {a_kind}{i}"))
    for i in range(1, n):
        el_t = el(f"t{i}")
        yield (f"t_{i}^2 = x t_{i} -> t_{i}", el(f"t{i} t{i}"), el_t)
        yield (f"t_{i} e_{i} = t_{i}", el(f"t{i} e{i}"), el_t)
        yield (f"f_{i} e_{i} = f_{i}", el(f"f{i} e{i}"), el(f"f{i}"))
        yield (f"g_{i} t_{i} = a^-1 t_{i} -> s_{i} t_{i} = t_{i}",
               el(f"s{i} t{i}"), el_t)
        yield (f"f_{i} g_{i} = a^-1 f_{i} -> f_{i} s_{i} = f_{i}",
               el(f"f{i} s{i}"), el(f"f{i}"))
        yield (f"g_{i} - g_{i}^-1 = (q-q^-1)(e_{i}-f_{i}) -> 0 = 0",
               el(f"s{i}") - el(f"s{i}"), zero)
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            yield (f"g_{i} g_{j} g_{i} = g_{j} g_{i} g_{j}",
                   el(f"s{i} s{j} s{i}"), el(f"s{j} s{i} s{j}"))
            yield (f"e_{i} g_{j} g_{i} = g_{j} g_{i} e_{j}",
                   el(f"e{i} s{j} s{i}"), el(f"s{j} s{i} e{j}"))
            yield (f"e_{i} e_{j} g_{i} = e_{j} g_{i} e_{j}",
                   el(f"e{i} e{j} s{i}"), el(f"e{j} s{i} e{j}"))
            yield (f"e_{j} g_{i} e_{j} = g_{i} e_{i} e_{j}",
                   el(f"e{j} s{i} e{j}"), el(f"s{i} e{i} e{j}"))
            yield (f"t_{i} t_{j} t_{i} = t_{i}", el(f"t{i} t{j} t{i}"), el_t)
            yield (f"t_{i} e_{j} t_{i} = t_{i}", el(f"t{i} e{j} t{i}"), el_t)
            yield (f"f_{i} e_{j} = e_{j} t_{i} e_{j}",
                   el(f"f{i} e{j}"), el(f"e{j} t{i} e{j}"))
            yield (f"t_{i} g_{j} t_{i} = a t_{i} -> t_{i} s_{j} t_{i} = t_{i}",
                   el(f"t{i} s{j} t{i}"), el_t)
            yield (f"g_{i} g_{j} t_{i} = t_{j} g_{i} g_{j}",
                   el(f"s{i} s{j} t{i}"), el(f"t{j} s{i} s{j}"))
            yield (f"t_{j} g_{i} g_{j} = t_{j} t_{i}",
                   el(f"t{j} s{i} s{j}"), el(f"t{j} t{i}"))
            yield (f"g_{i} t_{j} g_{i} = g_{j}^-1 t_{i} g_{j}^-1",
                   el(f"s{i} t{j} s{i}"), el(f"s{j} t{i} s{j}"))
            yield (f"g_{i} f_{j} g_{i} = g_{j}^-1 f_{i} g_{j}^-1",
                   el(f"s{i} f{j} s{i}"), el(f"s{j} f{i} s{j}"))
            yield (f"g_{i} t_{j} t_{i} = g_{j}^-1 t_{i}",
                   el(f"s{i} t{j} t{i}"), el(f"s{j} t{i}"))
            yield (f"t_{i} t_{j} g_{i} = t_{i} g_{j}^-1",
                   el(f"t{i} t{j} s{i}"), el(f"t{i} s{j}"))


def _bt_identities(fam) -> Iterator[tuple[str, AlgebraElement, AlgebraElement]]:
    n = fam.n
    el = lambda w: from_word(w, fam, NEGLECT)
    one_el = from_word("", fam, NEGLECT)
    for a_kind, i, b_kind, j in _commuting_pairs(("s", "e"), n):
        yield (f"{a_kind}_{i} {b_kind}_{j} = {b_kind}_{j} {a_kind}_{i} (v=1)",
               el(f"{a_kind}{i} {b_kind}{j}"), el(f"{b_kind}{j} {a_kind}{i}"))
    for i in range(1, n):
        yield (f"e_{i}^2 = e_{i}", el(f"e{i} e{i}"), el(f"e{i}"))
        yield (f"g_{i}^2 = 1 + (v-v^-1) e_{i} g_{i} -> s_{i}^2 = 1",
               el(f"s{i} s{i}"), one_el)
        for j in (i - 1, i + 1):
            if not 1 <= j <= n - 1:
                continue
            yield (f"g_{i} g_{j} g_{i} = g_{j} g_{i} g_{j}",
                   el(f"s{i} s{j} s{i}"), el(f"s{j} s{i} s{j}"))
            yield (f"e_{i} g_{j} g_{i} = g_{j} g_{i} e_{j}",
                   el(f"e{i} s{j} s{i}"), el(f"s{j} s{i} e{j}"))
            yield (f"e_{i} e_{j} g_{i} = e_{j} g_{i} e_{j}",
                   el(f"e{i} e{j} s{i}"), el(f"e{j} s{i} e{j}"))
            yield (f"e_{j} g_{i} e_{j} = g_{i} e_{i} e_{j}",
                   el(f"e{j} s{i} e{j}"), el(f"s{i} e{i} e{j}"))


REFERENCE_TIED = {"tjn": _tied_tl_identities, "tbrn": _tied_bmw_identities,
                  "tsn": _bt_identities}

TAUTOLOGY = "g_{i} - g_{i}^-1 = (q-q^-1)(e_{i}-f_{i}) -> 0 = 0"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(REFERENCE_TIED))
def test_tied_row_table_matches_the_reference_catalogues(name, n):
    fam = family(name, n)
    table = next(row[1:] for row in _TIED_FAMILY if row[0] == name)
    got = list(_tied_identities(*table)(fam))
    want = list(REFERENCE_TIED[name](fam))
    assert [g[0] for g in got] == [w[0] for w in want]
    # the reference compares s_i - s_i with zero, the table s_i with s_i
    tautologies = {TAUTOLOGY.format(i=i): i for i in range(1, n)}
    for (ident, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(got, want):
        if ident in tautologies:
            assert (lhs - rhs).is_zero and (ref_lhs - ref_rhs).is_zero, ident
            assert lhs == from_word(f"s{tautologies[ident]}", fam, NEGLECT), ident
        else:
            assert lhs == ref_lhs and rhs == ref_rhs, ident
    assert sum(g[0] in tautologies for g in got) == (n - 1 if name == "tbrn" else 0)
