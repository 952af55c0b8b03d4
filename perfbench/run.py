"""framoid benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {enumerate,words,verify,cli} \
        --seed N --seconds S --trace {0,1}

Every task runs in a fresh interpreter, one at a time, started with
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``; byte code is compiled before
timing into ``.perfbench/pycache`` (``PYTHONPYCACHEPREFIX``), so every timed
process imports from warm ``.pyc`` files.  A run makes whole cycles of its
workload's tasks, as many as fill ``--seconds`` on the reference host.  Every
time is in reference seconds (``speedclock.py``): wall time corrected by a
speed probe run next to the work, in the worker for its operations and, for
whole child processes (set-up, CLI commands), here between children.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced cycle, and
untraced cycles fill the rest of the run to give the tracing overhead.  The
line before it records the environment and the tail percentile; the full
record, with the trace's parent-layer call counts, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
from speedclock import REFERENCE_PROCESS_S, SpeedClock, process_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUP_PROBES = 9
# Wall time of one cycle, process starts, speed probes and checks included,
# on a 2-vCPU Xeon host.  A run makes round(seconds / CYCLE_SECONDS) cycles: a
# fixed amount of work for a given --seconds, so that both sides of a
# comparison take the same number of samples and the tail is the same
# percentile.
CYCLE_SECONDS = {"enumerate": 24.0, "words": 3.8, "verify": 14.0, "cli": 1.5}
HASH_SEED = "0"
WORKLOADS = ("enumerate", "words", "verify", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED,
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cycle_tasks(workload: str, seed: int, index: int) -> list[tuple[str, dict]]:
    """The (label, task) list of one cycle, in a seeded order."""
    if workload == "words":
        return [("batch", {"batch": index})]
    if workload == "enumerate":
        tasks = [(f"{name}(d={d},n={n})", {"family": [name, n, d]})
                 for name, n, d in worker.MIX]
    elif workload == "verify":
        tasks = [(name, {"suite": name}) for name in worker.SUITES]
    else:
        tasks = [(name, {"command": name}) for name in worker.CLI_COMMANDS]
    random.Random(f"{workload}/{seed}/{index}").shuffle(tasks)
    return tasks


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        # probed after every child process; this process is idle while one runs
        self.clock = SpeedClock(None, functools.partial(process_probe, self.env),
                                REFERENCE_PROCESS_S).start()

    def spawn_worker(self, task: dict, mode: str, trace: bool) -> dict:
        spec = {"workload": self.workload, "task": task, "seed": self.seed,
                "mode": mode, "trace": trace}
        spec["spawn_t"] = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=170)
        exit_t = time.perf_counter()
        self.clock.mark()
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed on {task}:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["spawn_t"], out["exit_t"] = spec["spawn_t"], exit_t
        out["python_start_s"] = self.clock.reference(spec["spawn_t"], out["start_t"])
        out["import_s"] = self.clock.reference(out["import_t"],
                                               out["import_t"] + out["import_s"])
        return out

    def run_cli(self, task: dict) -> dict:
        """A cold `python -m framoid.cli` invocation, timed from spawn to exit."""
        argv = worker.CLI_COMMANDS[task["command"]]
        t = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "framoid.cli", *argv], cwd=ROOT,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            stdout = proc.stdout.read()
            # reaped here, not by Popen, to read the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        exit_t = time.perf_counter()
        self.clock.mark()
        ok = proc.returncode == 0
        return {"ops": [self.clock.reference(t, exit_t)], "wall_ops": [exit_t - t],
                "work": 1, "attempted": 1, "failed": 0 if ok else 1,
                "errors": [] if ok else [f"{task['command']}: exit {proc.returncode}"],
                "digest": worker.sha256_text(stdout), "trace": None,
                "maxrss_kb": usage.ru_maxrss}

    def setup_s(self) -> float:
        task = cycle_tasks(self.workload, self.seed, 0)[0][1]
        out = self.spawn_worker(task, "setup", False)
        return self.clock.reference(out["spawn_t"], out["ready_t"])

    def task(self, task: dict, trace: bool) -> dict:
        if self.workload != "cli":
            return self.spawn_worker(task, "task", trace)
        if not trace:
            return self.run_cli(task)
        # a CLI op is the whole process, as in run_cli
        t = time.perf_counter()
        out = self.spawn_worker(task, "task", True)
        out["ops"] = [self.clock.reference(t, out["exit_t"])]
        out["wall_ops"] = [out["exit_t"] - t]
        return out

    def cycle(self, index: int, trace: bool) -> list[tuple[str, dict]]:
        return [(label, self.task(task, trace))
                for label, task in cycle_tasks(self.workload, self.seed, index)]

    def timed_cycles(self, count: int) -> tuple[list, list[float]]:
        """``count`` untraced cycles, with SETUP_PROBES set-up probes spread
        evenly between their tasks so that they sample the whole run."""
        plan = [(index, label, task) for index in range(count)
                for label, task in cycle_tasks(self.workload, self.seed, index)]
        probes_at = [i * len(plan) // SETUP_PROBES for i in range(SETUP_PROBES)]
        cycles: list[list] = [[] for _ in range(count)]
        setups = []
        for pos, (index, label, task) in enumerate(plan):
            setups += [self.setup_s() for _ in range(probes_at.count(pos))]
            cycles[index].append((label, self.task(task, False)))
        return cycles, setups


def golden_mismatches(workload: str, seed: int, cycles: list, golden: dict) -> list[str]:
    """Labels whose canonical-output digest differs from the seed commit's."""
    want = golden[workload]
    bad = []
    for index, results in enumerate(cycles):
        for label, res in results:
            if workload == "words":
                if seed != golden["words"]["seed"] or index != 0:
                    continue
                expected = want["sha256"]
            else:
                expected = want[label]
            if res["digest"] != expected:
                bad.append(f"{label}: digest {res['digest']} != golden {expected}")
    return bad


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when that percentile would not lie above the
    median (fewer than 21 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cycle_seconds(cycles: list, key: str = "ops") -> float:
    """Time of one cycle: per task label, the median of its op times, summed."""
    per_label: dict[str, list[float]] = {}
    for results in cycles:
        for label, res in results:
            per_label.setdefault(label, []).append(sum(res[key]))
    return sum(statistics.median(v) for v in per_label.values())


def end_to_end(cycles: list, setups: list[float]) -> tuple[dict, dict]:
    run_s = cycle_seconds(cycles)
    ops = [t for results in cycles for _, res in results for t in res["ops"]]
    work_per_cycle = sum(res["work"] for _, res in cycles[0])
    tail_s, tail_pct = tail(ops)
    maxrss_kb = max(res["maxrss_kb"] for results in cycles for _, res in results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (work_per_cycle / run_s, "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }
    notes = {"op_samples": len(ops), "op_tail_percentile": tail_pct,
             "cycles": len(cycles), "work_per_cycle": work_per_cycle,
             "run_wall_s": cycle_seconds(cycles, "wall_ops")}
    return metrics, notes


def per_layer(traced: list[tuple[str, dict]], overhead: float) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    parents: dict[str, int] = {}
    for _, res in traced:
        for name, row in res["trace"]["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for edge, count in res["trace"]["parents"].items():
            parents[edge] = parents.get(edge, 0) + count

    def ratio(a, b):
        return a / b if b else 0.0

    compose, construct = layers["diagrams.compose"], layers["diagrams.construct"]
    closure, word = layers["monoids.closure"], layers["normalform.evaluate_word"]
    mul, cli = layers["algebra.element_mul"], layers["cli.command"]
    values = {
        "diagrams.compose.calls": (compose["calls"], "count"),
        "diagrams.compose.self_s": (compose["self_s"], "s"),
        "diagrams.compose.us_per_call": (ratio(compose["total_s"], compose["calls"]) * 1e6,
                                         "us"),
        "diagrams.construct.calls": (construct["calls"], "count"),
        "diagrams.construct.self_s": (construct["self_s"], "s"),
        "diagrams.construct.per_compose": (ratio(construct["calls"], compose["calls"]),
                                           "ratio"),
        "diagrams.generator.calls": (layers["diagrams.generator"]["calls"], "count"),
        "diagrams.generator.self_s": (layers["diagrams.generator"]["self_s"], "s"),
        "monoids.closure.calls": (closure["calls"], "count"),
        "monoids.closure.self_s": (closure["self_s"], "s"),
        "monoids.closure.elements": (closure["work"], "count"),
        "monoids.closure.new_per_compose": (
            ratio(closure["work"], parents.get("diagrams.compose<monoids.closure", 0)),
            "ratio"),
        "monoids.check_relations.instances": (layers["monoids.check_relations"]["work"],
                                              "count"),
        "monoids.check_relations.self_s": (layers["monoids.check_relations"]["self_s"],
                                           "s"),
        "normalform.evaluate_word.calls": (word["calls"], "count"),
        "normalform.evaluate_word.tokens": (word["work"], "count"),
        "normalform.evaluate_word.self_s": (word["self_s"], "s"),
        "normalform.evaluate_word.us_per_token": (ratio(word["total_s"], word["work"]) * 1e6,
                                                  "us"),
        "normalform.nf.calls": (layers["normalform.nf"]["calls"], "count"),
        "normalform.nf.self_s": (layers["normalform.nf"]["self_s"], "s"),
        "algebra.element_mul.calls": (mul["calls"], "count"),
        "algebra.element_mul.term_pairs": (mul["work"], "count"),
        "algebra.element_mul.self_s": (mul["self_s"], "s"),
        "algebra.poly_mul.calls": (layers["algebra.poly_mul"]["calls"], "count"),
        "algebra.poly_mul.self_s": (layers["algebra.poly_mul"]["self_s"], "s"),
        "algebra.poly_add.calls": (layers["algebra.poly_add"]["calls"], "count"),
        "algebra.poly_add.self_s": (layers["algebra.poly_add"]["self_s"], "s"),
        "algebra.loop_scalar.self_s": (layers["algebra.loop_scalar"]["self_s"], "s"),
        "algebra.bridge.calls": (layers["algebra.bridge"]["calls"], "count"),
        "algebra.bridge.self_s": (layers["algebra.bridge"]["self_s"], "s"),
        "algebra.specialize.self_s": (layers["algebra.specialize"]["self_s"], "s"),
    }
    for suite in worker.SUITES:
        values[f"verify.{suite}.s"] = (layers[f"verify.{suite}"]["total_s"], "s")
    values["cli.python_start_ms"] = (
        statistics.median(res["python_start_s"] for _, res in traced) * 1000, "ms")
    values["cli.import_ms"] = (
        statistics.median(res["import_s"] for _, res in traced) * 1000, "ms")
    values["cli.command_ms"] = (ratio(cli["total_s"], cli["calls"]) * 1000, "ms")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    return values, {"layers": layers, "parents": parents}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "framoid").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": sha, "src_sha256": src_hash.hexdigest(),
            "hash_seed": HASH_SEED, "pyc": "warm, compiled before timing"}


def compile_bytecode(env: dict) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "framoid"),
                    str(ROOT / "perfbench")], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=170)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    compile_bytecode(runner.env)
    load_before = os.getloadavg()
    traced = runner.cycle(0, True) if trace else None
    cycles, setups = runner.timed_cycles(max(1, round(seconds / CYCLE_SECONDS[workload])))
    golden = json.loads(GOLDEN.read_text())
    done = cycles + ([traced] if traced else [])
    attempted = sum(res["attempted"] for results in done for _, res in results)
    errors = [e for results in done for _, res in results for e in res["errors"]]
    mismatches = golden_mismatches(workload, seed, done, golden)
    failed = sum(res["failed"] for results in done for _, res in results) + len(mismatches)
    if trace:
        overhead = cycle_seconds([traced]) / cycle_seconds(cycles)
        metrics, detail = per_layer(traced, overhead)
    else:
        metrics, detail = end_to_end(cycles, setups)
    return {"workload": workload, "seed": seed, "trace": trace, "env": environment(),
            "load_before": load_before, "load_after": os.getloadavg(),
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "errors": (errors + mismatches)[:10],
            "metrics": metrics, "detail": detail}


def record_golden() -> dict:
    """Digests of every task's canonical output at the default seed."""
    golden: dict = {"words": {"seed": DEFAULT_SEED, "batch": 0}}
    for workload in WORKLOADS:
        results = Runner(workload, DEFAULT_SEED).cycle(0, False)
        for label, res in results:
            if res["failed"]:
                raise RuntimeError(f"{workload} {label}: {res['errors']}")
            if workload == "words":
                golden["words"]["sha256"] = res["digest"]
            else:
                golden.setdefault(workload, {})[label] = res["digest"]
        golden[workload] = dict(sorted(golden[workload].items()))
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="print the golden digests of the current sources")
    args = parser.parse_args()
    if not (SRC / "framoid" / "__init__.py").is_file():
        print(f"framoid sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        print(json.dumps(record_golden(), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    notes = {k: record[k] for k in ("workload", "seed", "env", "load_before",
                                    "load_after", "fail_ratio", "errors")}
    if not args.trace:
        notes.update(record["detail"])
    print(json.dumps(notes))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
