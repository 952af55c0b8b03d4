"""The README's documented examples run as written, and its family table,
word grammar and tag table match the code."""

import json
import re
import shlex
from pathlib import Path

import pytest

import framoid.algebra  # noqa: F401  (registers its memo)
from framoid.cli import main
from framoid.diagrams import _KINDS, _PROPERTIES, _TAG_PROPERTIES, memo_sizes, parse_word
from framoid.monoids import FAMILIES

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading):
    text = README.read_text(encoding="utf-8")
    return text[text.index(heading) + len(heading):].lstrip("\n")


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README}:Library tour", "exec"), {})


def _cli_examples():
    """The ``framoid`` commands of the command-line block, each as its
    arguments and the output lines shown under it, up to a ``...``."""
    block = re.search(r"```\n(.*?)```", _section("## Command line"), re.S).group(1)
    for example in block.strip().split("\n\n"):
        command, shown = "", []
        for line in example.splitlines():
            if line.startswith("  ") and not command.endswith("\\"):
                shown.append(line[2:])
            else:
                command = command.removesuffix("\\") + line
        yield shlex.split(command), shown[:shown.index("...")] if "..." in shown else shown


_CLI_EXAMPLES = list(_cli_examples())


@pytest.mark.parametrize("argv,shown", _CLI_EXAMPLES, ids=[argv[1] for argv, _ in _CLI_EXAMPLES])
def test_command_line_examples_run_as_shown(argv, shown, capsys):
    assert argv[0] == "framoid"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if argv[1] == "verify":
        # the documented output is prose: every line is a JSON object
        assert out and all(isinstance(json.loads(line), dict) for line in out)
    else:
        assert out[:len(shown)] == shown


def test_families_table_matches_registry():
    table = _section("## Families").split("\n\n")[0].splitlines()
    rows = [[cell.strip(" `") for cell in line.strip("|").split("|")] for line in table[2:]]
    assert tuple(row[0] for row in rows) == tuple(FAMILIES)
    # the parameters column follows the framing derived from the generator kinds
    assert [row[2] for row in rows] == [
        "d, n" if spec.framed else "n" for spec in FAMILIES.values()]


def test_word_grammar_names_every_kind():
    paragraph = _section("## Word grammar and encodings").split("\n\n")[0]
    tokens = re.findall(r"`([^`]+)`", paragraph)
    kinds = [sym.kind for token in tokens for sym in parse_word(token)]
    assert len(kinds) == len(tokens)
    assert set(kinds) == set(_KINDS)


def test_tag_property_sets_match_the_table():
    text = README.read_text(encoding="utf-8")
    tags = text[text.index("The four structural tags"):text.index("`_shape` finds a label")]
    order = re.search(r"The\s+properties, in refusal order, are (.*?)\.\s+The tags", tags, re.S)
    assert re.findall(r"`(\w+)` \(", order.group(1)) == list(_PROPERTIES)
    rows = re.findall(r"^- `([\w-]+)` = \{(.*)\}", tags, re.M)
    table = {tag: frozenset(re.findall(r"`(\w+)`", props)) for tag, props in rows}
    assert table == _TAG_PROPERTIES
    assert len(rows) == len(_TAG_PROPERTIES)


def test_normal_form_families_match_registry():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"for the families with a normal form \(([^)]*)\)", text).group(1)
    assert re.findall(r"`([^`]+)`", listed) == [
        name for name, spec in FAMILIES.items() if spec.normal_form is not None]


def test_memo_list_matches_registry():
    text = README.read_text(encoding="utf-8")
    kernel = text[text.index("The diagram kernel splits"):text.index("Only the beads are summed")]
    listed = re.findall(r"^- `(\w+)` ", kernel, re.M)
    assert sorted(listed) == sorted(memo_sizes()) and len(set(listed)) == len(listed)
