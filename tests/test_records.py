"""The record classes keep a frozen dataclass's behaviour: ``repr``,
equality, hash, immutability, pickling and copying; and ``import
framoid.cli`` loads neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from framoid.monoids import (
    FAMILIES,
    FamilySpec,
    MonoidFamily,
    RelationReport,
    SchemaResult,
    check_relations,
    family,
)
from framoid.normalform import (
    BrauerWord,
    JonesWord,
    RookWord,
    brauer_nf,
    evaluate_word,
    jones_nf,
    rook_nf,
)
from framoid.verify import SuiteEntry, SuiteReport

ROOT = Path(__file__).resolve().parents[1]

_JONES = (4, 3, (), ((2, 0), (1, 1)), ((2, 1), (3, 3)), ((1, 0), (3, 2)))
_BRAUER = (3, 3, ((1, 0), (3, 2)), (), 1, (), ((1, 0),))
_ROOK = (3, 2, "prime", ((1, 0), (2, 1), (3, 0)), (1,), (2,), ((1, 1),))

# (class, field names, field values, the other value of the first field, repr)
RECORDS = [
    (MonoidFamily, ("name", "n", "d"), ("jdn", 3, 2), "brdn",
     "MonoidFamily(name='jdn', n=3, d=2)"),
    (SchemaResult, ("name", "display", "checked", "failures", "ms"), ("a", "b", 1, ("f",), 0.5),
     "c", "SchemaResult(name='a', display='b', checked=1, failures=('f',), ms=0.5)"),
    (RelationReport, ("family", "entries"),
     (family("jn", 2), (SchemaResult("a", "b", 1, ("f",), 0.5),)), family("jn", 3),
     "RelationReport(family=MonoidFamily(name='jn', n=2, d=1), entries=(SchemaResult("
     "name='a', display='b', checked=1, failures=('f',), ms=0.5),))"),
    (JonesWord, ("n", "d", "gap_beads", "top_beads", "tangle_runs", "bottom_beads"), _JONES, 5,
     "JonesWord(n=4, d=3, gap_beads=(), top_beads=((2, 0), (1, 1)), "
     "tangle_runs=((2, 1), (3, 3)), bottom_beads=((1, 0), (3, 2)))"),
    (BrauerWord, ("n", "d", "top_beads", "left_word", "bracket_pairs", "right_word",
                  "bottom_beads"), _BRAUER, 4,
     "BrauerWord(n=3, d=3, top_beads=((1, 0), (3, 2)), left_word=(), bracket_pairs=1, "
     "right_word=(), bottom_beads=((1, 0),))"),
    (RookWord, ("n", "d", "variant", "top_beads", "broken", "perm_word", "bottom_beads"),
     _ROOK, 4,
     "RookWord(n=3, d=2, variant='prime', top_beads=((1, 0), (2, 1), (3, 0)), broken=(1,), "
     "perm_word=(2,), bottom_beads=((1, 1),))"),
    (SuiteEntry, ("suite", "family", "d", "n", "identity", "status", "witness", "ms"),
     ("s", "jn", 1, 2, "x", "fail", "w", 0.5), "t",
     "SuiteEntry(suite='s', family='jn', d=1, n=2, identity='x', status='fail', "
     "witness='w', ms=0.5)"),
]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_repr_equality_hash_and_immutability(cls, names, values, other, text):
    x = cls(*values)
    assert repr(x) == text
    assert [getattr(x, name) for name in names] == list(values)
    assert x == cls(*values) and not x != cls(*values)
    assert x != cls(other, *values[1:]) and not x == cls(other, *values[1:])
    compared = values[:4] if cls is SchemaResult else values  # ms is not compared
    assert hash(x) == hash(compared) == hash(cls(*values))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
    assert repr(x) == text


def test_normal_forms_give_the_pinned_words():
    jones = jones_nf(evaluate_word("t2 o1 t1 t3 o4^2", family("jdn", 4, 3))[0])
    brauer = brauer_nf(evaluate_word("t1 o2 s2 t1 o3", family("brdn", 3, 3))[0])
    rook = rook_nf(evaluate_word("r1 o1 s2 o3", family("rprimedn", 3, 2))[0], "prime")
    assert (jones, brauer, rook) == (JonesWord(*_JONES), BrauerWord(*_BRAUER), RookWord(*_ROOK))
    assert (jones.text(), brauer.text(), rook.text()) == (
        "o1 t2 t1 t3 o3^2", "o3^2 t1", "o2 r1 s2 o1")


def test_a_family_is_not_a_tuple():
    fam = family("jdn", 3, 2)
    assert fam != ("jdn", 3, 2) and ("jdn", 3, 2) != fam
    assert not fam == ("jdn", 3, 2)
    assert MonoidFamily(name="jdn", n=3, d=2) == fam == MonoidFamily("jdn", 3, d=2)
    assert {fam: 1}[family("JDN", 3, 2)] == 1


def test_schema_results_compare_without_their_time():
    x = SchemaResult("a", "b", 1, (), 0.5)
    y = SchemaResult("a", "b", 1, (), 2.0)
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != SchemaResult("a", "b", 2, (), 0.5)
    assert x != ("a", "b", 1, (), 0.5) and ("a", "b", 1, (), 0.5) != x
    assert check_relations(family("jn", 3)) == check_relations(family("jn", 3))


def test_suite_report_is_mutable_and_unhashable():
    entry = SuiteEntry("s", "jn", 1, 2, "x", "fail", "w", 0.5)
    report = SuiteReport("s", [entry])
    assert repr(report) == ("SuiteReport(name='s', entries=[SuiteEntry(suite='s', family='jn', "
                            "d=1, n=2, identity='x', status='fail', witness='w', ms=0.5)])")
    assert report == SuiteReport("s", [entry]) and report != SuiteReport("t", [entry])
    empty = SuiteReport("s")
    assert empty.entries == [] and empty.entries is not SuiteReport("s").entries
    with pytest.raises(TypeError):
        hash(report)
    report.name = "t"
    report.entries.append(entry)
    assert report == SuiteReport("t", [entry, entry])


def _round_trips():
    fam = family("jdn", 3, 2)
    report = SuiteReport("s")
    report.check(fam, "x", False, "w", 0.5)
    return [fam, check_relations(family("jn", 3)), JonesWord(*_JONES), BrauerWord(*_BRAUER),
            RookWord(*_ROOK), report.entries[0], report]


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_records_pickle_and_copy(how):
    clone = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
             "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
    for x in _round_trips():
        y = clone(x)
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
    fam = clone(family("rdn", 2, 2))
    assert fam.spec is FAMILIES["rdn"]
    assert (fam.tied, fam.tag, fam.drop_rook) == (False, FAMILIES["rdn"].tag, True)


def test_family_spec_is_a_record_that_does_not_pickle():
    spec = FAMILIES["jdn"]
    values = (spec.drop_rook, spec.generators, spec.count, spec.schemas, spec.normal_form,
              spec.associative)
    assert FamilySpec(*values) == spec and hash(spec) == hash(values)
    assert re.fullmatch(r"FamilySpec\(drop_rook=False, generators=\('t', 'o'\), "
                        r"count=<function .*>, normal_form=<function .*>, associative=True\)",
                        re.sub(r"schemas=\(.*\), (?=normal_form)", "", repr(spec)))
    with pytest.raises(AttributeError):
        spec.count = None
    assert copy.copy(spec) == spec
    with pytest.raises((pickle.PicklingError, AttributeError)):  # its count is a lambda
        pickle.dumps(spec)


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import framoid.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
