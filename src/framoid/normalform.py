"""Normal forms for beaded planar, Brauer-type and rook-type diagrams.

Every element of the enumerable beaded families factors uniquely as bead
prefixes/suffixes around a beadless skeleton word:

* planar matchings: beads on vertical strands and on the top anchors, then
  the unique staircase tangle word, then beads on the bottom anchors;
* general matchings: top beads, a permutation, the adjacent tangles
  ``t_1 t_3 .. t_{2k-1}``, a second permutation, bottom beads;
* rook diagrams: top beads, the broken strands ``r_{i_1} .. r_{i_{n-k}}``, a
  permutation, and (in the variant whose free points hold beads) bottom beads.

Anchors follow the sliding convention: on an arc, beads sit at the left
endpoint; on a leaning line, at the left endpoint (bottom for a ne-line, top
for a nw-line); on a vertical strand, at the top.  The staircase word is read
off the skeleton directly.  Its runs ``t_i t_{i-1} .. t_j`` end at the
bottom anchors j of the bottom arcs and ne-lines, and start at i, one left of
the right top end of each top arc and of the top end of each ne-line; both
index lists are sorted and paired in order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .diagrams import (
    BeadedDiagram,
    CapExceeded,
    GenSymbol,
    LoopRecord,
    NotPlanar,
    compose,
    generator,
    identity,
    parse_word,
    render_word,
)

GapSet = frozenset


def evaluate_word(word, fam) -> tuple[BeadedDiagram, LoopRecord]:
    """Left-to-right product of a generator word in the given family.

    ``word`` may be a string in the token grammar or a sequence of
    :class:`GenSymbol`.  Returns the product diagram and the merged record of
    all loops removed along the way.
    """
    if isinstance(word, str):
        word = parse_word(word)
    n, d, tied, tag, drop_rook = fam.n, fam.d, fam.tied, fam.tag, fam.drop_rook
    diag = identity(n, d, tied=tied, tag=tag)
    record = LoopRecord()
    for sym in word:
        step = generator(sym, n, d, tied=tied, tag=tag)
        diag, rec = compose(diag, step, drop_rook=drop_rook)
        record = record.merged(rec)
    return diag, record


# -- block classification -----------------------------------------------------

def _classify(x: BeadedDiagram):
    """Split blocks into verticals, up/down brackets and ne/nw lines.

    Returns dict with lists of (anchor, bead, block) per class.
    """
    n = x.n
    out = {"vertical": [], "up": [], "down": [], "ne": [], "nw": []}
    for blk, bead in zip(x.blocks, x.beads):
        if len(blk) != 2:
            raise ValueError("classification requires a perfect matching")
        a, b = blk
        if b <= n:
            out["up"].append((a, bead, blk))
        elif a > n:
            out["down"].append((a - n, bead, blk))
        else:
            upper, lower = a, b - n
            if upper == lower:
                out["vertical"].append((upper, bead, blk))
            elif lower < upper:
                out["ne"].append((lower, bead, blk))  # anchored at the bottom
            else:
                out["nw"].append((upper, bead, blk))  # anchored at the top
    return out


def gaps(x: BeadedDiagram) -> GapSet:
    """Strands of a planar matching carried by an untouched vertical line."""
    if x.family_tag != "planar-matching":
        raise NotPlanar("gaps are defined for planar matchings")
    n, lab = x.n, x.lab
    # every block of a planar matching is a pair, so a shared label is a line
    return frozenset(i for i in range(1, n + 1) if lab[i - 1] == lab[n + i - 1])


def gaps_from_word(x: BeadedDiagram) -> GapSet:
    """Gap criterion read off the staircase normal form: g is a gap iff
    neither g nor g-1 occurs as a tangle index."""
    if x.family_tag != "planar-matching":
        raise NotPlanar("gaps are defined for planar matchings")
    pairs = _staircase_pairs(_classify(x))
    used = set()
    for i, j in pairs:
        used.update(range(j, i + 1))
    return frozenset(g for g in range(1, x.n + 1)
                     if g not in used and g - 1 not in used)


# -- permutation words ---------------------------------------------------------

def permutation_word(images: Sequence[int]) -> tuple[int, ...]:
    """Reduced crossing word for the permutation diagram top p -> bottom images[p-1].

    Bubble sort recording the leftmost descent; the swap positions, read in
    order, are the crossing indices.  The word length equals the inversion
    number, hence is reduced.
    """
    line = list(images)
    word = []
    moved = True
    while moved:
        moved = False
        for p in range(len(line) - 1):
            if line[p] > line[p + 1]:
                line[p], line[p + 1] = line[p + 1], line[p]
                word.append(p + 1)
                moved = True
                break
    return tuple(word)


# -- normal form words ----------------------------------------------------------

@dataclass(frozen=True)
class JonesWord:
    """Bead exponents around the unique staircase tangle word."""

    n: int
    d: int
    gap_beads: tuple[tuple[int, int], ...]     # (strand, exponent), ascending
    top_beads: tuple[tuple[int, int], ...]     # (anchor, exponent), descending
    tangle_runs: tuple[tuple[int, int], ...]   # (i, j): run t_i t_{i-1} .. t_j
    bottom_beads: tuple[tuple[int, int], ...]  # (anchor, exponent), ascending

    @property
    def tangle_count(self) -> int:
        return sum(i - j + 1 for i, j in self.tangle_runs)

    def tokens(self) -> tuple[GenSymbol, ...]:
        syms = [GenSymbol("o", g, 0, q) for g, q in self.gap_beads if q]
        syms += [GenSymbol("o", a, 0, r) for a, r in self.top_beads if r]
        for i, j in self.tangle_runs:
            syms += [GenSymbol("t", m) for m in range(i, j - 1, -1)]
        syms += [GenSymbol("o", a, 0, s) for a, s in self.bottom_beads if s]
        return tuple(syms)

    def text(self) -> str:
        return render_word(self.tokens())


@dataclass(frozen=True)
class BrauerWord:
    n: int
    d: int
    top_beads: tuple[tuple[int, int], ...]
    left_word: tuple[int, ...]   # crossing indices
    bracket_pairs: int           # k: tangles t_1 t_3 .. t_{2k-1}
    right_word: tuple[int, ...]
    bottom_beads: tuple[tuple[int, int], ...]

    def tokens(self) -> tuple[GenSymbol, ...]:
        syms = [GenSymbol("o", a, 0, k) for a, k in self.top_beads if k]
        syms += [GenSymbol("s", i) for i in self.left_word]
        syms += [GenSymbol("t", 2 * m - 1) for m in range(1, self.bracket_pairs + 1)]
        syms += [GenSymbol("s", i) for i in self.right_word]
        syms += [GenSymbol("o", a, 0, k) for a, k in self.bottom_beads if k]
        return tuple(syms)

    def text(self) -> str:
        return render_word(self.tokens())


@dataclass(frozen=True)
class RookWord:
    n: int
    d: int
    variant: str                 # "first" or "prime"
    top_beads: tuple[tuple[int, int], ...]
    broken: tuple[int, ...]      # top points without a line, ascending
    perm_word: tuple[int, ...]
    bottom_beads: tuple[tuple[int, int], ...]

    def tokens(self) -> tuple[GenSymbol, ...]:
        syms = [GenSymbol("o", a, 0, k) for a, k in self.top_beads if k]
        syms += [GenSymbol("r", i) for i in self.broken]
        syms += [GenSymbol("s", i) for i in self.perm_word]
        syms += [GenSymbol("o", a, 0, k) for a, k in self.bottom_beads if k]
        return tuple(syms)

    def text(self) -> str:
        return render_word(self.tokens())


NormalFormWord = JonesWord | BrauerWord | RookWord


# -- planar (Jones-type) normal form -------------------------------------------

def _staircase_pairs(cls) -> tuple[tuple[int, int], ...]:
    """Runs (i, j) of the staircase word of a classified planar matching."""
    js = sorted([a for a, _, _ in cls["down"]] + [a for a, _, _ in cls["ne"]])
    starts = sorted([blk[1] - 1 for _, _, blk in cls["up"]]
                    + [blk[0] - 1 for _, _, blk in cls["ne"]])
    return tuple(zip(starts, js))


def jones_nf(x: BeadedDiagram) -> JonesWord:
    """Unique bead-staircase-bead normal form of a beaded planar matching."""
    if x.family_tag != "planar-matching":
        raise NotPlanar("the planar normal form needs a planar matching")
    cls = _classify(x)
    gap_beads = tuple(sorted((a, k) for a, k, _ in cls["vertical"]))
    top_beads = tuple(sorted(
        [(a, k) for a, k, _ in cls["up"]] + [(a, k) for a, k, _ in cls["nw"]],
        reverse=True))
    bottom_beads = tuple(sorted(
        [(a, k) for a, k, _ in cls["down"]] + [(a, k) for a, k, _ in cls["ne"]]))
    return JonesWord(x.n, x.d, gap_beads, top_beads, _staircase_pairs(cls),
                     bottom_beads)


# -- Brauer-type normal form ----------------------------------------------------

def brauer_nf(x: BeadedDiagram) -> BrauerWord:
    """Normal form of a beaded perfect matching: beads, permutation, adjacent
    brackets, permutation, beads."""
    n = x.n
    cls = _classify(x)
    ups = sorted((min(blk), blk, bead) for _, bead, blk in cls["up"])
    downs = sorted((min(p - n for p in blk), blk, bead) for _, bead, blk in cls["down"])
    lines = sorted(
        [(a, blk, bead) for a, bead, blk in cls["vertical"]]
        + [(blk[0], blk, bead) for a, bead, blk in cls["ne"]]
        + [(blk[0], blk, bead) for a, bead, blk in cls["nw"]])
    k = len(ups)

    sigma = [0] * n
    for m, (left, blk, _) in enumerate(ups, start=1):
        right = blk[1]
        sigma[left - 1] = 2 * m - 1
        sigma[right - 1] = 2 * m
    for m, (upper, blk, _) in enumerate(lines, start=1):
        sigma[upper - 1] = 2 * k + m

    tau = [0] * n
    for m, (left, blk, _) in enumerate(downs, start=1):
        right = max(blk) - n
        tau[2 * m - 2] = left
        tau[2 * m - 1] = right
    for m, (upper, blk, _) in enumerate(lines, start=1):
        lower = max(blk) - n
        tau[2 * k + m - 1] = lower

    top_beads = tuple(sorted(
        [(left, bead) for left, _, bead in ups]
        + [(upper, bead) for upper, _, bead in lines]))
    bottom_beads = tuple(sorted((left, bead) for left, _, bead in downs))
    return BrauerWord(n, x.d, top_beads, permutation_word(sigma), k,
                      permutation_word(tau), bottom_beads)


# -- rook normal forms ------------------------------------------------------------

def rook_nf(x: BeadedDiagram, variant: str = "first") -> RookWord:
    """Normal form of a rook diagram (lines and free points, no brackets).

    ``variant="first"`` allows beads on lines only; ``variant="prime"`` also
    reads beads off the free points (top prefix, bottom suffix).
    """
    if variant not in ("first", "prime"):
        raise ValueError(f"unknown rook variant {variant!r}")
    n = x.n
    lines = []
    top_free: list[tuple[int, int]] = []
    bottom_free: list[tuple[int, int]] = []
    for blk, bead in zip(x.blocks, x.beads):
        if len(blk) == 2:
            upper, lower = blk[0], blk[1] - n
            if blk[1] <= n or blk[0] > n:
                raise ValueError("rook diagrams have no brackets")
            lines.append((upper, lower, bead))
        else:
            p = blk[0]
            if p <= n:
                top_free.append((p, bead))
            else:
                bottom_free.append((p - n, bead))
            if variant == "first" and bead:
                raise ValueError("free points hold no beads in this family")
    lines.sort()
    top_free.sort()
    bottom_free.sort()

    sigma = [0] * n
    for upper, lower, _ in lines:
        sigma[upper - 1] = lower
    spare = sorted(p for p, _ in bottom_free)
    for (p, _), target in zip(top_free, spare):
        sigma[p - 1] = target

    broken = tuple(p for p, _ in top_free)
    if variant == "first":
        top_beads = tuple((upper, bead) for upper, _, bead in lines)
        bottom_beads: tuple = ()
    else:
        top_beads = tuple(sorted(
            [(upper, bead) for upper, _, bead in lines] + top_free))
        bottom_beads = tuple(bottom_free)
    return RookWord(n, x.d, variant, top_beads, broken,
                    permutation_word(sigma), bottom_beads)


# -- word-length oracle ------------------------------------------------------------

def min_length_oracle(x: BeadedDiagram, fam, cap: int = 250_000) -> int:
    """Minimal number of non-bead generators over all words evaluating to x.

    0/1 breadth-first search over the family's diagrams; bead generators are
    free, every other generator costs one.
    """
    from .monoids import generating_symbols  # local import avoids a cycle

    start = identity(fam.n, fam.d, tied=fam.tied, tag=fam.tag)
    moves = []
    for sym in generating_symbols(fam):
        diag = generator(sym, fam.n, fam.d, tied=fam.tied, tag=fam.tag)
        moves.append((diag, 0 if sym.kind == "o" else 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        base = dist[cur]
        if cur == x:
            return base
        for diag, cost in moves:
            nxt, _ = compose(cur, diag, drop_rook=fam.drop_rook)
            if nxt not in dist or base + cost < dist[nxt]:
                if len(dist) >= cap:
                    raise CapExceeded("word search exceeded cap")
                dist[nxt] = base + cost
                if cost == 0:
                    queue.appendleft(nxt)
                else:
                    queue.append(nxt)
    if x not in dist:
        raise ValueError("element not reachable from the family generators")
    return dist[x]
