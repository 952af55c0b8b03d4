"""One benchmark task in a fresh interpreter.

``python3 perfbench/worker.py '<json spec>'`` imports framoid, builds the
task's inputs, runs and times the task's operations, checks every output, and
prints one JSON result line.  A fresh process per task keeps the per-process
caches of framoid (``closure`` and the staircase cache of the planar normal
form) cold, as they are for each CLI invocation.

Spec keys: ``workload``, ``task`` (workload-specific parameters), ``seed``,
``mode`` (``"setup"`` stops once the inputs are ready), ``trace`` (wrap the
layers with :class:`tracer.Tracer` while the operations run) and
``spawn_t``, the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide, so start-up time is ``start_t - spawn_t``).

Operation times, and span times in a traced task, are in reference seconds
(:mod:`speedclock`): a probe of the host's speed runs before and after the
operations and every ``TICK_S`` seconds during them.
"""

import time

START_T = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from speedclock import SpeedClock  # noqa: E402

# enumerate: closure() of each family (name, n, d), one task per family
MIX = (("jdn", 5, 3), ("rprimedn", 4, 2), ("tsn", 5, 1), ("pdn", 5, 3), ("tbrn", 4, 1),
       ("trn", 4, 1), ("rdn", 4, 2), ("tjn", 5, 1), ("trprimen", 3, 1))

# interval of the speed probes during the operations
TICK_S = 0.05

# verify: one task per `framoid verify --suite` choice (cardinalities is the
# enumerate workload), at acceptance parameters
SUITES = ("presentations", "bridges", "framed-tl", "tied", "hom")

# words: families the words run in; a batch holds WORDS_PER_STRATUM words of
# every length in WORD_LENGTHS for every family, so batches of any seed
# carry the same number of tokens per family
WORD_FAMILIES = (("jdn", 6, 3), ("brdn", 5, 2), ("rdn", 5, 2), ("rprimedn", 5, 3),
                 ("tbrn", 5, 1), ("trprimen", 5, 1), ("tsn", 6, 1), ("pdn", 5, 3))
WORD_LENGTHS = range(4, 25)
WORDS_PER_STRATUM = 6

# normal-form function and its extra arguments, per family that has one
NORMAL_FORMS = {"jdn": ("jones_nf",), "brdn": ("brauer_nf",),
                "rdn": ("rook_nf", "first"), "rprimedn": ("rook_nf", "prime")}

# cli: cold invocations of `python -m framoid.cli`, one task per command
CLI_COMMANDS = {
    "enumerate": ("enumerate", "--family", "jdn", "--d", "2", "--n", "3"),
    "cardinality-table": ("cardinality-table", "--family", "rdn", "--d", "2",
                          "--n", "1..3", "--format", "csv"),
    "eval-word": ("eval-word", "--family", "jdn", "--d", "2", "--n", "2",
                  "--word", "t1 o1 t1"),
    "normal-form": ("normal-form", "--family", "brdn", "--d", "4", "--n", "5",
                    "--word", "o2 o5^2 s3 s2 t1 t3 s4 s3 s2 s1 o4"),
    "verify": ("verify", "--suite", "bridges", "--target", "jones",
               "--d", "2", "--n", "3"),
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Result:
    """Timings, check outcomes and the digest of one task's canonical output."""

    def __init__(self):
        # (start, end) perf_counter readings of each operation
        self.spans: list[tuple[float, float]] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = None

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


# -- enumerate ----------------------------------------------------------------

def enumerate_inputs(task, seed):
    from framoid import monoids

    name, n, d = task["family"]
    return monoids.family(name, n, d)


def enumerate_run(fam, res):
    from framoid import monoids

    t = time.perf_counter()
    elems = monoids.closure(fam)
    res.spans.append((t, time.perf_counter()))
    return elems


def enumerate_check(fam, elems, res, trace):
    from framoid import monoids

    want = monoids.predicted_cardinality(fam)
    ok = len(elems) == want
    if trace is not None:
        # one compose per (element, generator) pair, nothing else
        gens = len(monoids.generating_symbols(fam))
        ok = ok and trace["layers"]["diagrams.compose"]["calls"] == len(elems) * gens
    res.check(ok, f"{fam}: {len(elems)} elements, predicted {want}")
    res.work = len(elems)
    res.digest = sha256_text("\n".join(x.encode() for x in elems))


# -- verify -------------------------------------------------------------------

def verify_inputs(task, seed):
    return task["suite"], seed


def verify_run(inputs, res):
    from framoid import verify

    name, seed = inputs
    t = time.perf_counter()
    if name == "presentations":
        reports = [verify.suite_presentations()]
    elif name == "bridges":
        reports = [verify.suite_bridges(target, (2, 3, 4), 4)
                   for target in verify.BRIDGE_TARGETS]
    elif name == "framed-tl":
        reports = [verify.suite_framed_tl(seed=seed)]
    elif name == "tied":
        reports = [verify.suite_tied_specializations(4)]
    else:
        reports = [verify.suite_specialization_homomorphism(seed=seed)]
    res.spans.append((t, time.perf_counter()))
    return reports


def verify_check(inputs, reports, res, trace):
    from framoid import verify

    for report in reports:
        ok = report.passed and bool(report.entries)
        if report.name in ("bridges-jones", "bridges-brauer"):
            # the negative control must be present and still fail
            controls = [e for e in report.entries
                        if e.identity.startswith(verify.EXPECT_FAIL)]
            ok = ok and bool(controls) and all(e.status == "fail" for e in controls)
        res.check(ok, report.summary())
    res.work = sum(len(report.entries) for report in reports)
    res.digest = sha256_text("\n".join(report.text() for report in reports))


# -- words --------------------------------------------------------------------

def words_inputs(task, seed):
    from framoid import monoids

    rng = random.Random(f"words/{seed}/{task['batch']}")
    batch = []
    for name, n, d in WORD_FAMILIES:
        fam = monoids.family(name, n, d)
        syms = monoids.generating_symbols(fam)
        for length in WORD_LENGTHS:
            for _ in range(WORDS_PER_STRATUM):
                batch.append((fam, tuple(rng.choice(syms) for _ in range(length))))
    rng.shuffle(batch)
    return batch


def words_run(batch, res):
    from framoid import normalform

    out = []
    for fam, word in batch:
        t = time.perf_counter()
        diag, record = normalform.evaluate_word(word, fam)
        back = None
        if fam.name in NORMAL_FORMS:
            fn, *extra = NORMAL_FORMS[fam.name]
            nf_word = getattr(normalform, fn)(diag, *extra)
            back = normalform.evaluate_word(nf_word.tokens(), fam)[0]
        res.spans.append((t, time.perf_counter()))
        out.append((diag, record, back))
    return out


def words_check(batch, out, res, trace):
    from framoid.diagrams import compose, render_word
    from framoid.normalform import evaluate_word

    lines = []
    for (fam, word), (diag, record, back) in zip(batch, out):
        # the product splits at any point: w = u v gives the same diagram
        # and the same loops as compose(u, v)
        k = len(word) // 2
        left, rec_l = evaluate_word(word[:k], fam)
        right, rec_r = evaluate_word(word[k:], fam)
        joined, rec_m = compose(left, right, drop_rook=fam.drop_rook)
        ok = joined == diag and rec_l.merged(rec_r).merged(rec_m) == record
        if back is not None:
            ok = ok and back == diag
        res.check(ok, f"{fam}: {render_word(word)}")
        lines.append(f"{fam}|{render_word(word)}|{diag.encode()}|{record!r}")
    res.work = len(batch)
    res.digest = sha256_text("\n".join(lines))


# -- cli (traced run only; the timed run starts `python -m framoid.cli`) -------

def cli_inputs(task, seed):
    return list(CLI_COMMANDS[task["command"]])


def cli_run(argv, res):
    from framoid import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t = time.perf_counter()
        code = cli.main(argv)
        res.spans.append((t, time.perf_counter()))
    return code, buf.getvalue()


def cli_check(argv, out, res, trace):
    code, text = out
    res.check(code == 0, f"{' '.join(argv)}: exit {code}")
    res.work = 1
    res.digest = sha256_text(text)


WORKLOADS = {
    "enumerate": (enumerate_inputs, enumerate_run, enumerate_check),
    "verify": (verify_inputs, verify_run, verify_check),
    "words": (words_inputs, words_run, words_check),
    "cli": (cli_inputs, cli_run, cli_check),
}


def main(spec: dict) -> dict:
    import_t = time.perf_counter()
    import framoid.cli  # noqa: F401  (every framoid module, as the CLI loads them)
    import_s = time.perf_counter() - import_t

    make_inputs, run, check = WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec["task"], spec["seed"])
    out = {"start_t": START_T, "import_t": import_t, "import_s": import_s,
           "ready_t": time.perf_counter()}
    if spec["mode"] == "setup":
        return out

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    clock = SpeedClock(TICK_S)
    res = Result()
    try:
        clock.start()
        produced = run(inputs, res)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    trace = tracer.summary(clock.reference) if tracer is not None else None
    check(inputs, produced, res, trace)
    out.update(ops=[clock.reference(a, b) for a, b in res.spans],
               wall_ops=[clock.wall(a, b) for a, b in res.spans], work=res.work, attempted=res.attempted, failed=res.failed,
               errors=res.errors[:5], digest=res.digest, trace=trace,
               maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
