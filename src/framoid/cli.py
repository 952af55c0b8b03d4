"""Command line front end.

Commands: ``enumerate``, ``cardinality-table``, ``eval-word``,
``normal-form``, ``verify``.  Exit codes: 0 success / all pass, 1
verification mismatch, 2 usage error, 3 cap exceeded.  Output is
byte-stable given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .diagrams import CapExceeded, parse_word
from .monoids import FAMILY_NAMES, closure, family, predicted_cardinality
from .normalform import evaluate_word
from .verify import (
    BRIDGE_TARGETS,
    DEFAULT_SEED,
    suite_bridges,
    suite_cardinalities,
    suite_framed_tl,
    suite_presentations,
    suite_specialization_homomorphism,
    suite_tied_specializations,
)

log = logging.getLogger("framoid")

_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
           "info": logging.INFO, "debug": logging.DEBUG}


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


# the verify flags each suite reads; any other flag given is a usage error
_SUITE_FLAGS = {
    "cardinalities": ("cap",),
    "presentations": (),
    "bridges": ("target", "d", "n"),
    "tl": ("seed",),
    "tied": ("n",),
    "hom": ("seed",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framoid",
        description="Exact computations in beaded and tied diagram monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, formats, need_word=False):
        p.add_argument("--family", required=True,
                       help=f"one of: {', '.join(FAMILY_NAMES)}")
        p.add_argument("--d", type=int, default=1, help="framing modulus")
        if need_word:
            p.add_argument("--n", required=True, help="strand count")
            p.add_argument("--word", required=True, help="generator word")
        else:
            p.add_argument("--n", required=True, help="strand count, or a range a..b")
            p.add_argument("--cap", type=int, default=1_000_000)
        if formats:
            p.add_argument("--format", choices=formats, default="json")

    counts = ("json", "csv", "text")
    add_family(sub.add_parser("enumerate", help="closure size vs predicted"), counts)
    add_family(sub.add_parser("cardinality-table", help="counts over an n range"),
               counts)
    add_family(sub.add_parser("eval-word", help="evaluate a generator word"),
               ("json", "text"), need_word=True)
    add_family(sub.add_parser("normal-form", help="normal form of a word's diagram"),
               (), need_word=True)

    # suppressed defaults leave a flag that was not given out of the namespace
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=tuple(_SUITE_FLAGS))
    pv.add_argument("--target", choices=BRIDGE_TARGETS, default=argparse.SUPPRESS,
                    help="bridge target (default: all)")
    pv.add_argument("--d", type=int, default=argparse.SUPPRESS)
    pv.add_argument("--n", default=argparse.SUPPRESS)
    pv.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help=f"default 0x{DEFAULT_SEED:X}")
    pv.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    return parser


def _family_rows(args) -> list[tuple]:
    rows = []
    for n in _parse_n_range(args.n):
        fam = family(args.family, n, args.d)
        count = len(closure(fam, args.cap))
        predicted = predicted_cardinality(fam)
        rows.append((fam, count, predicted, count == predicted))
    return rows


def _emit_counts(rows, fmt, out) -> None:
    if fmt == "csv":
        out.write("family,d,n,count,predicted,match\n")
        for fam, count, predicted, match in rows:
            out.write(f"{fam.name},{fam.d},{fam.n},{count},{predicted},"
                      f"{_bool_text(match)}\n")
        return
    for fam, count, predicted, match in rows:
        if fmt == "json":
            out.write(json.dumps(
                {"family": fam.name, "d": fam.d, "n": fam.n, "count": count,
                 "predicted": predicted, "match": match},
                separators=(",", ":")) + "\n")
        else:
            out.write(f"{fam}: count={count} predicted={predicted} "
                      f"match={_bool_text(match)}\n")


def _cmd_counts(args, out) -> int:
    rows = _family_rows(args)
    _emit_counts(rows, args.format, out)
    return 0 if all(match for *_, match in rows) else 1


def _cmd_eval_word(args, out) -> int:
    (n,) = _parse_n_range(args.n)
    fam = family(args.family, n, args.d)
    diag, record = evaluate_word(parse_word(args.word), fam)
    loops = {str(p): m for p, m in record.counts}
    if args.format == "text":
        out.write(f"diagram: {diag.encode()}\nloops: {loops}\n")
    else:
        out.write(json.dumps({"diagram": diag.encode(), "loops": loops},
                             separators=(",", ":")) + "\n")
    return 0


def _cmd_normal_form(args, out) -> int:
    (n,) = _parse_n_range(args.n)
    fam = family(args.family, n, args.d)
    if fam.spec.normal_form is None:
        log.error("no normal form for family %s", fam.name)
        return 2
    diag, _ = evaluate_word(parse_word(args.word), fam)
    out.write(fam.spec.normal_form(diag).text() + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "suite")}
    ignored = sorted(set(given) - set(_SUITE_FLAGS[args.suite]))
    if ignored:
        log.error("suite %s does not take %s", args.suite,
                  ", ".join("--" + flag for flag in ignored))
        return 2
    (n,) = _parse_n_range(given.get("n", "4"))
    # --cap and --seed are passed on as the suite parameters of the same name
    if args.suite == "cardinalities":
        reports = [suite_cardinalities(**given)]
    elif args.suite == "presentations":
        reports = [suite_presentations()]
    elif args.suite == "bridges":
        targets = (given["target"],) if "target" in given else BRIDGE_TARGETS
        d_values = (given["d"],) if "d" in given else (2, 3, 4)
        reports = [suite_bridges(target, d_values, n) for target in targets]
    elif args.suite == "tl":
        reports = [suite_framed_tl(**given)]
    elif args.suite == "tied":
        reports = [suite_tied_specializations(n)]
    else:
        reports = [suite_specialization_homomorphism(**given)]
    ok = True
    for report in reports:
        for line in report.lines():
            out.write(line + "\n")
        log.info("%s", report.summary())
        ok = ok and report.passed
    return 0 if ok else 1


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=_LEVELS.get(os.environ.get("FRAMOID_LOG", "warn"), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = sys.stdout
    try:
        if args.command == "enumerate":
            return _cmd_counts(args, out)
        if args.command == "cardinality-table":
            return _cmd_counts(args, out)
        if args.command == "eval-word":
            return _cmd_eval_word(args, out)
        if args.command == "normal-form":
            return _cmd_normal_form(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
    except CapExceeded as exc:
        log.error("%s", exc)
        return 3
    except (ValueError, KeyError) as exc:
        log.error("%s", exc)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
