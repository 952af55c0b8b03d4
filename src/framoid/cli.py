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
import time

from .diagrams import CapExceeded, parse_word, render_symbol
from .monoids import (
    DEFAULT_CAP,
    FAMILY_NAMES,
    closure,
    family,
    generating_symbols,
    predicted_cardinality,
)
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


def _at_least(low: int, what: str):
    """An argument type: an integer no less than ``low``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
    return parse


_cap = _at_least(0, "a non-negative integer")
_count = _at_least(1, "a positive integer")


def _seed(text: str) -> int:
    """What ``int`` reads (``010`` is ten), or a prefixed integer (``0xF4A317``)."""
    try:
        return int(text)
    except ValueError:
        return int(text, 0)


def _n_range(text: str) -> list[int]:
    """The strand counts of an ``--n`` value: ``n`` or a range ``a..b``."""
    lo, sep, hi = text.partition("..")
    values = list(range(_count(lo), _count(hi if sep else lo) + 1))
    if not values:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return values


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _bridges(target=None, d=None, **n) -> list:
    d_values = {} if d is None else {"d_values": (d,)}
    return [suite_bridges(t, **d_values, **n)
            for t in ((target,) if target else BRIDGE_TARGETS)]


# each verify suite: the flags it reads (any other flag given is a usage error)
# and how it runs on the flags given; a flag not given keeps the default of
# the suite parameter it reaches (tied's --n is its n_max)
_SUITES = {
    "cardinalities": (("cap",), lambda **cap: [suite_cardinalities(**cap)]),
    "presentations": ((), lambda: [suite_presentations()]),
    "bridges": (("target", "d", "n"), _bridges),
    "tl": (("seed",), lambda **seed: [suite_framed_tl(**seed)]),
    "tied": (("n",), lambda **n: [suite_tied_specializations(*n.values())]),
    "hom": (("seed",), lambda **seed: [suite_specialization_homomorphism(**seed)]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framoid",
        description="Exact computations in beaded and tied diagram monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(name, about, run, formats, need_word=False):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        p.add_argument("--family", required=True,
                       help=f"one of: {', '.join(FAMILY_NAMES)}")
        p.add_argument("--d", type=_count, default=1, help="framing modulus")
        if need_word:
            p.add_argument("--n", type=_count, required=True, help="strand count")
            p.add_argument("--word", required=True, help="generator word")
        else:
            p.add_argument("--n", type=_n_range, required=True,
                           help="strand count, or a range a..b")
            p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
        if formats:
            p.add_argument("--format", choices=formats, default="json")

    counts = ("json", "csv", "text")
    add_family("enumerate", "closure size vs predicted", _cmd_counts, counts)
    add_family("cardinality-table", "counts over an n range", _cmd_counts, counts)
    add_family("eval-word", "evaluate a generator word", _cmd_eval_word,
               ("json", "text"), need_word=True)
    add_family("normal-form", "normal form of a word's diagram", _cmd_normal_form,
               (), need_word=True)

    # suppressed defaults leave a flag that was not given out of the namespace
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("--suite", required=True, choices=tuple(_SUITES))
    pv.add_argument("--target", choices=BRIDGE_TARGETS, default=argparse.SUPPRESS,
                    help="bridge target (default: all)")
    pv.add_argument("--d", type=_count, default=argparse.SUPPRESS)
    pv.add_argument("--n", type=_count, default=argparse.SUPPRESS)
    pv.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                    help=f"default 0x{DEFAULT_SEED:X} (write a negative prefixed seed as "
                    "--seed=-0x10; a negative seed draws as its absolute value)")
    pv.add_argument("--cap", type=_cap, default=argparse.SUPPRESS)
    return parser


def _family_rows(args) -> list[tuple]:
    rows = []
    for n in args.n:
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


def _family_word(args):
    """The family and the parsed word of ``--word``, which may use only the
    family's generators (a bead generator with any exponent)."""
    fam = family(args.family, args.n, args.d)
    word = parse_word(args.word)
    allowed = set(generating_symbols(fam))
    for sym in word:
        if sym._replace(exp=1) not in allowed:
            raise ValueError(f"{render_symbol(sym)} is not a generator of {fam}")
    return fam, word


def _cmd_eval_word(args, out) -> int:
    fam, word = _family_word(args)
    diag, record = evaluate_word(word, fam)
    loops = {str(p): m for p, m in record.counts}
    if args.format == "text":
        out.write(f"diagram: {diag.encode()}\nloops: {loops}\n")
    else:
        out.write(json.dumps({"diagram": diag.encode(), "loops": loops},
                             separators=(",", ":")) + "\n")
    return 0


def _cmd_normal_form(args, out) -> int:
    fam, word = _family_word(args)
    if fam.spec.normal_form is None:
        log.error("no normal form for family %s", fam.name)
        return 2
    diag, _ = evaluate_word(word, fam)
    out.write(fam.spec.normal_form(diag).text() + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    flags, run = _SUITES[args.suite]
    given = {k: v for k, v in vars(args).items() if k not in ("command", "run", "suite")}
    ignored = sorted(set(given) - set(flags))
    if ignored:
        log.error("suite %s does not take %s", args.suite,
                  ", ".join("--" + flag for flag in ignored))
        return 2
    log.info("verify %s: start", args.suite)
    t0 = time.perf_counter()
    reports = run(**given)
    log.info("verify %s: %d entries in %.0f ms", args.suite,
             sum(len(report.entries) for report in reports),
             (time.perf_counter() - t0) * 1000)
    if not all(report.entries for report in reports):
        log.error("suite %s checks nothing at --n %s", args.suite, given.get("n"))
        return 2
    for report in reports:
        out.writelines(line + "\n" for line in report.lines())
        log.info("%s", report.summary())
    return 0 if all(report.passed for report in reports) else 1


def main(argv=None) -> int:
    wanted = os.environ.get("FRAMOID_LOG") or "warn"
    level = _LEVELS.get(wanted.lower())
    logging.basicConfig(stream=sys.stderr, level=level or logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if level is None:
        log.warning("unknown FRAMOID_LOG value %r, using warn; choose from %s",
                    wanted, ", ".join(_LEVELS))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args, sys.stdout)
    except CapExceeded as exc:
        log.error("%s", exc)
        return 3
    except (ValueError, KeyError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
