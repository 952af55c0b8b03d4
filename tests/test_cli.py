"""Command line behaviour: formats, golden outputs, exit codes."""

import json
import logging
import random
import re
from pathlib import Path

import pytest

from framoid.cli import main
from framoid.monoids import _CLOSURES, FAMILY_NAMES, closure, family
from framoid.verify import DEFAULT_SEED


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


@pytest.mark.parametrize("argv,want", [
    (("enumerate", "--family", "jdn", "--d", "2", "--n", "2..3"),
     "jdn(d=2,n=2): count=8 predicted=8 match=true\n"
     "jdn(d=2,n=3): count=40 predicted=40 match=true\n"),
    (("cardinality-table", "--family", "rdn", "--d", "2", "--n", "1..3"),
     "rdn(d=2,n=1): count=3 predicted=3 match=true\n"
     "rdn(d=2,n=2): count=17 predicted=17 match=true\n"
     "rdn(d=2,n=3): count=139 predicted=139 match=true\n"),
    (("eval-word", "--family", "jdn", "--d", "2", "--n", "2", "--word", "t1 o1 t1"),
     "diagram: n=2;d=2;blocks=[{t1,t2}:0,{b1,b2}:0]\n"
     "loops: {'1': 1}\n"),
], ids=["enumerate", "cardinality-table", "eval-word"])
def test_text_format_golden_output(capsys, argv, want):
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 0
    assert out == want


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


@pytest.mark.parametrize("text, seed", [
    ("0xF4A317", 0xF4A317), ("16032535", 0xF4A317), ("010", 10), ("0o17", 15),
    ("0b101", 5), ("+0x10", 16), ("-5", -5), ("1_000", 1000), (" 7 ", 7),
])
def test_seed_takes_what_int_reads_and_prefixed_integers(text, seed):
    from framoid.cli import _build_parser

    args = _build_parser().parse_args(["verify", "--suite", "hom", "--seed", text])
    assert args.seed == seed


def test_seed_help_names_a_value_the_flag_takes(capsys):
    from framoid.cli import _build_parser

    assert main(["verify", "--help"]) == 0
    default = re.search(r"--seed SEED\s+default (\S+)", capsys.readouterr().out)[1]
    assert default == "0xF4A317"
    args = _build_parser().parse_args(["verify", "--suite", "hom", "--seed", default])
    assert args.seed == DEFAULT_SEED


def test_a_negative_prefixed_seed_is_written_with_an_equals_sign(capsys):
    from framoid.cli import _build_parser

    args = _build_parser().parse_args(["verify", "--suite", "hom", "--seed=-0x10"])
    assert args.seed == -16
    # random.Random seeds from abs(seed), as the --seed help says
    assert random.Random(-16).random() == random.Random(16).random()
    assert main(["verify", "--suite", "hom", "--seed", "-0x10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed" in captured.err


@pytest.mark.parametrize("value", ["0x", "12x", "", "0x1.8", "010x"])
def test_malformed_seed_names_the_flag(capsys, value):
    assert main(["verify", "--suite", "hom", "--seed", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed" in captured.err


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


def _cli(*argv, **env):
    """One ``python -m framoid.cli`` run in a fresh process: the caller's
    environment without ``FRAMOID_LOG``, plus ``env``."""
    import os
    import subprocess
    import sys

    base = {k: v for k, v in os.environ.items() if k != "FRAMOID_LOG"}
    return subprocess.run([sys.executable, "-m", "framoid.cli", *argv],
                          capture_output=True, text=True, env={**base, **env})


def test_debug_log_reports_closure_levels():
    argv = ("enumerate", "--family", "jdn", "--d", "2", "--n", "3")
    quiet, loud = _cli(*argv), _cli(*argv, FRAMOID_LOG="debug")
    assert quiet.returncode == loud.returncode == 0
    assert loud.stdout == quiet.stdout
    assert quiet.stderr == ""
    levels = [line for line in loud.stderr.splitlines()
              if line.startswith("DEBUG framoid.monoids: closure jdn(d=2,n=3): level ")]
    assert len(levels) >= 2
    assert levels[-1].split(", ")[2] == f"{len(closure(family('jdn', 3, 2)))} total"


def test_debug_log_reports_memo_sizes_after_the_last_level():
    loud = _cli("enumerate", "--family", "tsn", "--n", "3", FRAMOID_LOG="debug")
    assert loud.returncode == 0
    assert json.loads(loud.stdout)["count"] == 30
    levels = [line for line in loud.stderr.splitlines() if ": level " in line]
    assert all("memos" not in line for line in levels[:-1])
    m = re.search(r", 0 new, 30 total, .*, memos: (\d+) shapes, (\d+) plans, (\d+) ties$",
                  levels[-1])
    # tS_3 ties the 3 blocks of a permutation in each of Bell(3) = 5 ways
    assert m and int(m.group(1)) > 0 and int(m.group(2)) > 0 and int(m.group(3)) == 5


# ``verify --suite tied --n 2`` at info: the suite's start and end lines, then
# the report summary
_TIED_INFO = re.compile(
    "INFO framoid: verify tied: start\n"
    "INFO framoid: verify tied: 24 entries in [0-9]+ ms\n"
    "INFO framoid: tied-specializations: 24/24 ok\n")


def test_info_log_brackets_each_verify_suite():
    argv = ("verify", "--suite", "tied", "--n", "2")
    warn, info = _cli(*argv, FRAMOID_LOG="warn"), _cli(*argv, FRAMOID_LOG="info")
    assert warn.returncode == info.returncode == 0
    assert warn.stdout == info.stdout and warn.stdout
    assert warn.stderr == ""
    assert _TIED_INFO.fullmatch(info.stderr), info.stderr


# ``enumerate --family jdn --d 2 --n 3`` at info: one fresh closure
_CLOSURE_INFO = re.compile(
    "INFO framoid.monoids: closure jdn\\(d=2,n=3\\): start\n"
    "INFO framoid.monoids: closure jdn\\(d=2,n=3\\): 40 elements in [0-9]+ ms\n")


def test_info_log_brackets_each_fresh_closure():
    argv = ("enumerate", "--family", "jdn", "--d", "2", "--n", "3")
    warn, info = _cli(*argv, FRAMOID_LOG="warn"), _cli(*argv, FRAMOID_LOG="info")
    assert warn.returncode == info.returncode == 0
    assert warn.stdout == info.stdout and warn.stdout
    assert warn.stderr == ""
    assert _CLOSURE_INFO.fullmatch(info.stderr), info.stderr


def test_a_cached_closure_logs_nothing(caplog):
    fam = family("jdn", 3, 2)
    _CLOSURES.pop(fam, None)
    with caplog.at_level(logging.INFO, logger="framoid.monoids"):
        closure(fam)
        closure(fam)
    assert [r.getMessage().split(": ", 1)[1].split(" in ")[0] for r in caplog.records] == [
        "start", "40 elements"]


def test_log_level_is_read_case_insensitively_and_an_unknown_one_warns():
    argv = ("verify", "--suite", "tied", "--n", "2")
    quiet = _cli(*argv)
    assert quiet.returncode == 0 and quiet.stderr == ""
    for value in ("INFO", "Info", "info"):
        loud = _cli(*argv, FRAMOID_LOG=value)
        assert (loud.returncode, loud.stdout) == (0, quiet.stdout)
        assert _TIED_INFO.fullmatch(loud.stderr), value
    unknown = _cli(*argv, FRAMOID_LOG="verbose")
    assert (unknown.returncode, unknown.stdout) == (0, quiet.stdout)
    [warning] = unknown.stderr.splitlines()
    assert warning.startswith("WARNING framoid: unknown FRAMOID_LOG value 'verbose'")
    assert warning.endswith("choose from error, warn, info, debug")
    assert _cli(*argv, FRAMOID_LOG="").stderr == ""  # empty is unset


# one small run of each subcommand
STABLE_COMMANDS = (
    ("enumerate", "--family", "jdn", "--d", "2", "--n", "3"),
    ("cardinality-table", "--family", "rdn", "--d", "2", "--n", "1..3", "--format", "csv"),
    ("eval-word", "--family", "brdn", "--d", "3", "--n", "3", "--word", "t1 o2 s2 t1"),
    ("normal-form", "--family", "jdn", "--d", "3", "--n", "4", "--word", "t2 o1 t1 t3 o4^2"),
    ("verify", "--suite", "bridges", "--target", "rookRprime", "--d", "2", "--n", "3"),
)


@pytest.mark.parametrize("argv", STABLE_COMMANDS, ids=lambda argv: argv[0])
def test_stdout_is_the_same_bytes_under_two_hash_seeds(argv):
    runs = [_cli(*argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
