"""Suite machinery: reports, determinism, coverage, negative controls."""

import json

import pytest

from framoid.monoids import FAMILY_NAMES, default_grid, family
from framoid.verify import (
    BRIDGE_TARGETS,
    DEFAULT_SEED,
    EXPECT_FAIL,
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
