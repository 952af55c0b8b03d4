"""Command line behaviour: formats, golden outputs, exit codes."""

import json
import re
from pathlib import Path

import pytest

from framoid.cli import main
from framoid.monoids import FAMILY_NAMES, closure, family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_golden_line(capsys):
    code, out = run(capsys, "enumerate", "--family", "jdn", "--d", "2", "--n", "3")
    assert code == 0
    assert out == '{"family":"jdn","d":2,"n":3,"count":40,"predicted":40,"match":true}\n'


def test_cardinality_table_csv(capsys):
    code, out = run(capsys, "cardinality-table", "--family", "rdn", "--d", "2",
                    "--n", "1..4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "family,d,n,count,predicted,match",
        "rdn,2,1,3,3,true",
        "rdn,2,2,17,17,true",
        "rdn,2,3,139,139,true",
        "rdn,2,4,1473,1473,true",
    ]


def test_eval_word(capsys):
    code, out = run(capsys, "eval-word", "--family", "jdn", "--d", "2", "--n", "2",
                    "--word", "t1 o1 t1")
    assert code == 0
    row = json.loads(out)
    assert row["loops"] == {"1": 1}
    assert row["diagram"] == "n=2;d=2;blocks=[{t1,t2}:0,{b1,b2}:0]"


def test_normal_form_round_trips_worked_examples(capsys):
    code, out = run(capsys, "normal-form", "--family", "brdn", "--d", "4",
                    "--n", "5", "--word", "o2 o5^2 s3 s2 t1 t3 s4 s3 s2 s1 o4")
    assert code == 0
    assert out == "o2 o5^2 s3 s2 t1 t3 s4 s3 s2 s1 o4\n"
    code, out = run(capsys, "normal-form", "--family", "jdn", "--d", "4",
                    "--n", "5", "--word", "o2 t2 t1 t3 t2 t4 o1^2 o4")
    assert code == 0
    assert out == "o2 t2 t1 t3 t2 t4 o1^2 o4\n"


def test_verify_suite_json(capsys):
    code, out = run(capsys, "verify", "--suite", "bridges", "--target", "jones",
                    "--d", "2", "--n", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["suite"] == "bridges-jones" for row in rows)
    assert any(row["status"] == "fail" and "expect-fail:" in row["identity"]
               for row in rows)


def test_verify_output_is_byte_stable(capsys):
    args = ("verify", "--suite", "tl", "--seed", "99")
    code_a, out_a = run(capsys, *args)
    code_b, out_b = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["enumerate", "--family", "jdn", "--n", "3", "--d", "0"]) == 2


def test_cap_exceeded_exit_code(capsys):
    code = main(["enumerate", "--family", "sdn", "--d", "2", "--n", "4",
                 "--cap", "10"])
    assert code == 3


def test_mismatch_would_exit_one(capsys, monkeypatch):
    import framoid.cli as cli

    monkeypatch.setattr(cli, "predicted_cardinality", lambda fam: 41)
    code, out = run(capsys, "enumerate", "--family", "jdn", "--d", "2", "--n", "3")
    assert code == 1
    assert json.loads(out)["match"] is False


def test_verify_usage_error_exits_two(capsys):
    assert main(["verify", "--suite", "cardinalities", "--d", "2"]) == 2


JDN_WORD = ("--family", "jdn", "--d", "2", "--n", "2", "--word", "t1 o1 t1")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--family", "jdn", "--n", "3", "--threads", "4"),
    ("verify", "--suite", "bridges", "--threads", "1"),
    ("eval-word", *JDN_WORD, "--format", "csv"),
    ("eval-word", *JDN_WORD, "--cap", "10"),
    ("normal-form", *JDN_WORD, "--cap", "10"),
    ("normal-form", *JDN_WORD, "--format", "json"),
    ("verify", "--suite", "tl", "--format", "json"),
    ("verify", "--suite", "cardinalities", "--n", "3"),
    ("verify", "--suite", "cardinalities", "--seed", "1"),
    ("verify", "--suite", "presentations", "--d", "2"),
    ("verify", "--suite", "presentations", "--cap", "10"),
    ("verify", "--suite", "bridges", "--seed", "1"),
    ("verify", "--suite", "bridges", "--cap", "10"),
    ("verify", "--suite", "bridges", "--n", "3..4"),
    ("verify", "--suite", "tl", "--d", "7", "--n", "9"),
    ("verify", "--suite", "tl", "--cap", "10"),
    ("verify", "--suite", "tl", "--target", "jones"),
    ("verify", "--suite", "tied", "--d", "2"),
    ("verify", "--suite", "tied", "--seed", "1"),
    ("verify", "--suite", "hom", "--n", "3"),
    ("verify", "--suite", "hom", "--cap", "10"),
])
def test_ignored_flag_exits_two(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "tied", "--n", "1"),
    ("verify", "--suite", "bridges", "--target", "jones", "--n", "1"),
    ("verify", "--suite", "bridges", "--n", "1"),
])
def test_verify_that_checks_nothing_exits_two(capsys, caplog, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""
    assert f"suite {argv[2]} checks nothing at --n 1" in caplog.text


def test_suite_table_matches_readme():
    from framoid.cli import _SUITES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Suites for `verify`")[1].split("\n\n")[1].splitlines()
    rows = [line.strip("|").split("|") for line in table[2:]]
    assert [(name.strip(" `"), tuple(re.findall(r"`--(\w+)`", flags)))
            for name, flags in rows] == [
        (name, flags) for name, (flags, _) in _SUITES.items()]


def test_verify_flags_reach_their_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "tied", "--n", "2")
    assert code == 0
    assert {json.loads(line)["n"] for line in out.splitlines()} == {2}
    code, out = run(capsys, "verify", "--suite", "cardinalities", "--cap", "10")
    assert code == 1
    assert "exceeded cap 10" in out


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_normal_form_exits_by_family(capsys, name):
    has_nf = name in ("jn", "jdn", "brn", "brdn", "rn", "rdn", "rprimedn")
    assert (family(name, 2).spec.normal_form is not None) == has_nf
    code, out = run(capsys, "normal-form", "--family", name, "--n", "2", "--word", "")
    assert code == (0 if has_nf else 2)
    assert out == ("\n" if has_nf else "")


@pytest.mark.parametrize("argv", [
    ("eval-word", "--family", "jdn", "--n", "2..3", "--word", "t1"),
    ("normal-form", "--family", "jdn", "--n", "2..3", "--word", "t1"),
    ("verify", "--suite", "tied", "--n", "2..3"),
    ("enumerate", "--family", "jn", "--n", "3..1"),
    ("cardinality-table", "--family", "jn", "--n", "2..x"),
    ("enumerate", "--family", "jn", "--n", "3.."),
    ("enumerate", "--family", "jn", "--n", "0..2"),
    ("eval-word", "--family", "jn", "--n", "0", "--word", "t1"),
    ("verify", "--suite", "tied", "--n", "0"),
])
def test_bad_strand_count_names_the_flag(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n" in captured.err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--family", "jdn", "--d", "0", "--n", "2"),
    ("normal-form", "--family", "jdn", "--d", "0", "--n", "2", "--word", ""),
    ("verify", "--suite", "bridges", "--d", "0"),
])
def test_zero_framing_names_the_flag(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --d" in captured.err


def test_cap_counts_the_identity(capsys):
    assert main(["enumerate", "--family", "jn", "--n", "1", "--cap", "0"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("enumerate", "--family", "jn", "--n", "3", "--cap", "-1"),
    ("verify", "--suite", "cardinalities", "--cap", "-1"),
])
def test_negative_cap_names_the_flag(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap" in captured.err


@pytest.mark.parametrize("command", ["eval-word", "normal-form"])
@pytest.mark.parametrize("name, d, token", [
    ("cdn", 2, "s1"),
    ("rdn", 2, "t1"),
    ("pn", 1, "s1"),
    ("brdn", 2, "r1"),
    ("tjn", 1, "e1,3"),
])
def test_word_outside_the_family_exits_two(capsys, caplog, command, name, d, token):
    argv = [command, "--family", name, "--d", str(d), "--n", "3", "--word", token]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert f"{token} is not a generator of {family(name, 3, d)}" in caplog.text


def test_debug_log_reports_closure_levels():
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "framoid.cli", "enumerate", "--family", "jdn",
            "--d", "2", "--n", "3"]
    quiet = subprocess.run(argv, capture_output=True, text=True, check=True)
    loud = subprocess.run(argv, capture_output=True, text=True, check=True,
                          env={**os.environ, "FRAMOID_LOG": "debug"})
    assert loud.stdout == quiet.stdout
    assert quiet.stderr == ""
    levels = [line for line in loud.stderr.splitlines()
              if line.startswith("DEBUG framoid.monoids: closure jdn(d=2,n=3): level ")]
    assert len(levels) >= 2
    assert levels[-1].split(", ")[2] == f"{len(closure(family('jdn', 3, 2)))} total"


def test_debug_log_reports_memo_sizes_after_the_last_level():
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "framoid.cli", "enumerate", "--family", "tsn", "--n", "3"]
    loud = subprocess.run(argv, capture_output=True, text=True, check=True,
                          env={**os.environ, "FRAMOID_LOG": "debug"})
    assert json.loads(loud.stdout)["count"] == 30
    levels = [line for line in loud.stderr.splitlines() if ": level " in line]
    assert all("memos" not in line for line in levels[:-1])
    m = re.search(r", 0 new, 30 total, .*, memos: (\d+) shapes, (\d+) plans$", levels[-1])
    assert m and int(m.group(1)) > 0 and int(m.group(2)) > 0
