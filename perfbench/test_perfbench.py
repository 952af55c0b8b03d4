"""Tests of the benchmark's tracer and statistics.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import time

import pytest

import framoid.cli  # noqa: F401  (load every framoid module before tracing)
from framoid import algebra, diagrams, monoids, normalform

import run
from speedclock import REFERENCE_PROBE_S, SpeedClock
from tracer import Tracer


def traced_closure(name, n, d=1):
    monoids.closure.cache_clear()
    tracer = Tracer().install()
    try:
        elems = monoids.closure(monoids.family(name, n, d))
    finally:
        tracer.uninstall()
        monoids.closure.cache_clear()
    return elems, tracer.summary()


@pytest.mark.parametrize("name,n,d,composes", [
    ("jn", 3, 1, 10),
    ("trprimen", 3, 1, 9_710),
    ("jdn", 4, 2, 1_568),
])
def test_closure_composes_once_per_element_and_generator(name, n, d, composes):
    elems, summary = traced_closure(name, n, d)
    gens = len(monoids.generating_symbols(monoids.family(name, n, d)))
    layers = summary["layers"]
    assert layers["diagrams.compose"]["calls"] == len(elems) * gens == composes
    assert layers["monoids.closure"]["calls"] == 1
    assert layers["monoids.closure"]["work"] == len(elems)
    assert summary["parents"]["diagrams.compose<monoids.closure"] == composes
    assert layers["diagrams.generator"]["calls"] == gens


def test_names_imported_elsewhere_are_traced_and_restored():
    originals = (diagrams.compose, monoids.compose, normalform.compose, algebra.compose,
                 algebra.evaluate_word, monoids.evaluate_word, framoid.cli.closure)
    tracer = Tracer().install()
    try:
        assert monoids.compose is normalform.compose is algebra.compose
        assert monoids.compose is not originals[0]
        fam = monoids.family("jdn", 3, 2)
        monoids.check_relations(fam)                        # evaluate_word via monoids
        algebra.from_word("t1 o1 t1", fam, algebra.ALPHA)   # evaluate_word via algebra
        bridge = algebra.bridge_f(1, fam)
        bridge * bridge                                     # compose via algebra
    finally:
        tracer.uninstall()
    assert (diagrams.compose, monoids.compose, normalform.compose, algebra.compose,
            algebra.evaluate_word, monoids.evaluate_word, framoid.cli.closure) == originals
    summary = tracer.summary()
    layers, parents = summary["layers"], summary["parents"]
    assert layers["monoids.check_relations"]["work"] > 0
    assert layers["normalform.evaluate_word"]["work"] == sum(
        n for edge, n in parents.items() if edge.startswith("diagrams.compose<normalform."))
    assert parents["normalform.evaluate_word<algebra.bridge"] == 2
    assert parents["diagrams.compose<algebra.element_mul"] == 4
    assert layers["algebra.element_mul"]["work"] == 4
    for row in layers.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_excludes_child_spans():
    tracer = Tracer().install()
    try:
        diagrams.compose(diagrams.identity(3, 1), diagrams.identity(3, 1))
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    compose, construct = layers["diagrams.compose"], layers["diagrams.construct"]
    assert compose["calls"] == 1 and construct["calls"] == 3
    assert compose["self_s"] == pytest.approx(
        compose["total_s"] - sum(tracer.end[i] - tracer.start[i]
                                 for i in range(len(tracer.start))
                                 if tracer.parent[i] == 2))


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100))
    assert run.tail(samples) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_cycle_tasks_are_seeded():
    assert run.cycle_tasks("enumerate", 5, 0) == run.cycle_tasks("enumerate", 5, 0)
    assert sorted(run.cycle_tasks("verify", 5, 0)) == sorted(run.cycle_tasks("verify", 6, 0))
    assert run.cycle_tasks("words", 5, 3) == [("batch", {"batch": 3})]


def test_speed_clock_scales_each_piece_by_its_probes_and_skips_them():
    clock = SpeedClock(None)
    # probes at 0-1, 5-6, 10-11 and 15-16 at 3x, 2x, 1x and 1x the reference
    # time: the host sped up
    clock.begins, clock.ends = [0.0, 5.0, 10.0, 15.0], [1.0, 6.0, 11.0, 16.0]
    clock.probes = [k * REFERENCE_PROBE_S for k in (3, 2, 1, 1)]
    assert clock.wall(1.0, 15.0) == pytest.approx(12.0)
    # smoothed probes 2x, 2x, 1x, 1x: 4 s at 2x, 4 s at 1.5x, 4 s at 1x
    assert clock.reference(1.0, 15.0) == pytest.approx(4 / 2 + 4 / 1.5 + 4)
    assert clock.reference(11.0, 13.0) == pytest.approx(2.0)


def test_speed_clock_ignores_one_disturbed_probe():
    clock = SpeedClock(None)
    clock.begins, clock.ends = [0.0, 5.0, 10.0, 15.0], [1.0, 6.0, 11.0, 16.0]
    clock.probes = [k * REFERENCE_PROBE_S for k in (1, 1, 9, 1)]
    assert clock.reference(1.0, 15.0) == pytest.approx(12.0)


def test_speed_clock_ticks_during_work():
    clock = SpeedClock(0.01).start()
    a = time.perf_counter()
    while time.perf_counter() - a < 0.1:
        pass
    b = time.perf_counter()
    clock.stop()
    assert len(clock.probes) >= 4
    assert 0 < clock.wall(a, b) < b - a
