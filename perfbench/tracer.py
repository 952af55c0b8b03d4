"""Span tracer that measures framoid's layers from outside the package.

``Tracer.install()`` wraps the public functions of the six framoid modules.
Several of them are imported by name into other modules (``compose`` into
``monoids``, ``normalform`` and ``algebra``; ``evaluate_word`` into
``monoids``, ``algebra`` and ``cli``; ``closure`` into ``verify`` and
``cli``), so the wrapper is bound in place of the original in every loaded
``framoid`` module that holds it; wrapping only the defining module would
miss most calls.  Methods are wrapped on their class.

Each call records a span (layer, parent span, start, end) in flat arrays kept
in memory.  ``summary()`` reduces them once, at the end: a layer's self time
is the duration of its spans minus the time covered by their direct child
spans.  Work counts (elements, tokens, relation instances, term pairs) are
read from arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


def _tokens(args, result):
    word = args[0]
    return len(word.split()) if isinstance(word, str) else len(word)


def _term_pairs(args, result):
    a, b = args[0], args[1]
    return len(a.terms) * len(b.terms) if type(a) is type(b) else 0


# layer name, module, attribute path (a function or Class.method), work count
LAYERS = (
    ("diagrams.compose", "framoid.diagrams", "compose", None),
    ("diagrams.construct", "framoid.diagrams", "BeadedDiagram.__init__", None),
    ("diagrams.generator", "framoid.diagrams", "generator", None),
    ("monoids.closure", "framoid.monoids", "closure", lambda a, r: len(r)),
    ("monoids.check_relations", "framoid.monoids", "check_relations",
     lambda a, r: r.checked),
    ("normalform.evaluate_word", "framoid.normalform", "evaluate_word", _tokens),
    ("normalform.nf", "framoid.normalform", "jones_nf", None),
    ("normalform.nf", "framoid.normalform", "brauer_nf", None),
    ("normalform.nf", "framoid.normalform", "rook_nf", None),
    ("algebra.element_mul", "framoid.algebra", "AlgebraElement.__mul__", _term_pairs),
    ("algebra.poly_mul", "framoid.algebra", "LaurentPoly.__mul__", None),
    ("algebra.poly_add", "framoid.algebra", "LaurentPoly.__add__", None),
    ("algebra.loop_scalar", "framoid.algebra", "loop_scalar", None),
    ("algebra.bridge", "framoid.algebra", "bridge_e", None),
    ("algebra.bridge", "framoid.algebra", "bridge_f", None),
    ("algebra.bridge", "framoid.algebra", "bridge_q", None),
    ("algebra.bridge", "framoid.algebra", "bridge_w", None),
    ("algebra.bridge", "framoid.algebra", "cap_z", None),
    ("algebra.specialize", "framoid.algebra", "specialize", None),
    ("verify.presentations", "framoid.verify", "suite_presentations", None),
    ("verify.bridges", "framoid.verify", "suite_bridges", None),
    ("verify.framed-tl", "framoid.verify", "suite_framed_tl", None),
    ("verify.tied", "framoid.verify", "suite_tied_specializations", None),
    ("verify.hom", "framoid.verify", "suite_specialization_homomorphism", None),
    ("cli.command", "framoid.cli", "main", None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class Tracer:
    def __init__(self):
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = [0] * len(LAYER_NAMES)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, work):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, totals, clock = self._stack, self.work, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                totals[layer_id] += work(args, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every layer function; the framoid modules must be imported."""
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "framoid" or name.startswith("framoid."))]
        for name, module, path, work in LAYERS:
            layer_id = LAYER_NAMES.index(name)
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, attr, self._wrap(layer_id, cls.__dict__[attr], work))
                continue
            original = getattr(owner, path)
            traced = self._wrap(layer_id, original, work)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, traced)
        return self

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, duration=None) -> dict:
        """Per layer: calls, inclusive and self seconds, work; plus the
        (layer, direct parent layer) call counts.  ``duration(start, end)``
        gives a span's seconds; wall seconds by default."""
        n_layers = len(LAYER_NAMES)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        child = [0.0] * n_layers
        edges: dict[tuple[int, int], int] = {}
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(len(start)):
            lid = layer[i]
            dur = duration(start[i], end[i]) if duration else end[i] - start[i]
            calls[lid] += 1
            total[lid] += dur
            p = parent[i]
            pid = layer[p] if p >= 0 else -1
            if p >= 0:
                child[pid] += dur
            edges[lid, pid] = edges.get((lid, pid), 0) + 1
        layers = {name: {"calls": calls[i], "total_s": total[i],
                         "self_s": total[i] - child[i], "work": self.work[i]}
                  for i, name in enumerate(LAYER_NAMES)}
        parents = {f"{LAYER_NAMES[c]}<{LAYER_NAMES[p] if p >= 0 else 'root'}": k
                   for (c, p), k in sorted(edges.items())}
        return {"spans": len(start), "layers": layers, "parents": parents}
