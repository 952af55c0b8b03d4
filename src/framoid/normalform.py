"""Normal forms for beaded planar, Brauer-type and rook-type diagrams.

A normal form is a bead prefix, a beadless skeleton word and a bead suffix,
all read off one pass over the blocks (``_read``):

* planar matchings: beads on vertical strands and on the top anchors, then
  the unique staircase tangle word, then beads on the bottom anchors;
* general matchings: top beads, a permutation, the adjacent tangles
  ``t_1 t_3 .. t_{2k-1}``, a second permutation, bottom beads;
* rook diagrams: top beads, the broken strands ``r_{i_1} .. r_{i_{n-k}}``, a
  permutation, and (in the variant whose free points hold beads) bottom beads.

Beads sit at the left end of an arc or a leaning line (the bottom end of a
ne-line, the top end of a nw-line) and at the top of a vertical strand.  The
staircase runs ``t_i t_{i-1} .. t_j`` end at the bottom anchors j, in order,
and start at the sorted i, one left of the right end of each top arc and of
the top end of each ne-line.

Each normal form raises ``ValueError`` for a tied diagram or a block of more
than two points; ``jones_nf`` raises ``NotPlanar`` for a non-planar tag,
``brauer_nf`` refuses free points, and ``rook_nf`` refuses brackets, and
beads on free points in its ``"first"`` variant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .diagrams import (
    PLANAR,
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


# -- block reader --------------------------------------------------------------

def _read(x: BeadedDiagram):
    """The blocks of an untied diagram by shape, at positions 1..n on each edge:
    lines ``(upper, lower, bead)``, top and bottom arcs ``(left, right, bead)``
    and free top and bottom points ``(position, bead)``, each list sorted."""
    if x.ties is not None:
        raise ValueError("normal forms are defined for untied diagrams only")
    n = x.n
    lines, ups, downs, tops, bottoms = [], [], [], [], []
    for blk, bead in zip(x.blocks, x.beads):
        if len(blk) > 2:
            raise ValueError("normal forms have no blocks of more than two points")
        a, b = blk[0], blk[-1]
        if len(blk) == 1:
            if a <= n:
                tops.append((a, bead))
            else:
                bottoms.append((a - n, bead))
        elif b <= n:
            ups.append((a, b, bead))
        elif a > n:
            downs.append((a - n, b - n, bead))
        else:
            lines.append((a, b - n, bead))
    return lines, ups, downs, tops, bottoms


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

def _beads(pairs) -> list[GenSymbol]:
    """Bead tokens o_a^k for the (anchor, exponent) pairs with k != 0."""
    return [GenSymbol("o", a, 0, k) for a, k in pairs if k]


class _Word:
    def text(self) -> str:
        return render_word(self.tokens())


@dataclass(frozen=True)
class JonesWord(_Word):
    """Bead exponents around the unique staircase tangle word."""

    n: int
    d: int
    gap_beads: tuple[tuple[int, int], ...]     # (strand, exponent), ascending
    top_beads: tuple[tuple[int, int], ...]     # (anchor, exponent), descending
    tangle_runs: tuple[tuple[int, int], ...]   # (i, j): run t_i t_{i-1} .. t_j
    bottom_beads: tuple[tuple[int, int], ...]  # (anchor, exponent), ascending

    def tokens(self) -> tuple[GenSymbol, ...]:
        syms = _beads(self.gap_beads) + _beads(self.top_beads)
        for i, j in self.tangle_runs:
            syms += [GenSymbol("t", m) for m in range(i, j - 1, -1)]
        return tuple(syms + _beads(self.bottom_beads))


@dataclass(frozen=True)
class BrauerWord(_Word):
    n: int
    d: int
    top_beads: tuple[tuple[int, int], ...]
    left_word: tuple[int, ...]   # crossing indices
    bracket_pairs: int           # k: tangles t_1 t_3 .. t_{2k-1}
    right_word: tuple[int, ...]
    bottom_beads: tuple[tuple[int, int], ...]

    def tokens(self) -> tuple[GenSymbol, ...]:
        return tuple(_beads(self.top_beads)
                     + [GenSymbol("s", i) for i in self.left_word]
                     + [GenSymbol("t", 2 * m - 1) for m in range(1, self.bracket_pairs + 1)]
                     + [GenSymbol("s", i) for i in self.right_word]
                     + _beads(self.bottom_beads))


@dataclass(frozen=True)
class RookWord(_Word):
    n: int
    d: int
    variant: str                 # "first" or "prime"
    top_beads: tuple[tuple[int, int], ...]
    broken: tuple[int, ...]      # top points without a line, ascending
    perm_word: tuple[int, ...]
    bottom_beads: tuple[tuple[int, int], ...]

    def tokens(self) -> tuple[GenSymbol, ...]:
        return tuple(_beads(self.top_beads)
                     + [GenSymbol("r", i) for i in self.broken]
                     + [GenSymbol("s", i) for i in self.perm_word]
                     + _beads(self.bottom_beads))


NormalFormWord = JonesWord | BrauerWord | RookWord


# -- the three normal forms --------------------------------------------------------

def jones_nf(x: BeadedDiagram) -> JonesWord:
    """Unique bead-staircase-bead normal form of a beaded planar matching."""
    lines, ups, downs, _, _ = _read(x)
    if x.family_tag != PLANAR:
        raise NotPlanar("the planar normal form needs a planar matching")
    ne = [(upper, lower, k) for upper, lower, k in lines if lower < upper]
    top_beads = sorted([(a, k) for a, _, k in ups]
                       + [(upper, k) for upper, lower, k in lines if upper < lower],
                       reverse=True)
    bottom_beads = tuple(sorted([(a, k) for a, _, k in downs]
                                + [(lower, k) for _, lower, k in ne]))
    starts = sorted([b - 1 for _, b, _ in ups] + [upper - 1 for upper, _, _ in ne])
    return JonesWord(x.n, x.d,
                     tuple((upper, k) for upper, lower, k in lines if upper == lower),
                     tuple(top_beads),
                     tuple(zip(starts, [a for a, _ in bottom_beads])), bottom_beads)


def brauer_nf(x: BeadedDiagram) -> BrauerWord:
    """Normal form of a beaded perfect matching: beads, permutation, adjacent
    brackets, permutation, beads."""
    lines, ups, downs, tops, bottoms = _read(x)
    if tops or bottoms:
        raise ValueError("classification requires a perfect matching")
    top_ends = [p for a, b, _ in ups for p in (a, b)] + [upper for upper, _, _ in lines]
    sigma = [top_ends.index(p) + 1 for p in range(1, x.n + 1)]
    tau = [p for a, b, _ in downs for p in (a, b)] + [lower for _, lower, _ in lines]
    top_beads = sorted([(a, k) for a, _, k in ups] + [(upper, k) for upper, _, k in lines])
    return BrauerWord(x.n, x.d, tuple(top_beads), permutation_word(sigma), len(ups),
                      permutation_word(tau), tuple((a, k) for a, _, k in downs))


def rook_nf(x: BeadedDiagram, variant: str = "first") -> RookWord:
    """Normal form of a rook diagram (lines and free points, no brackets).

    ``variant="first"`` allows beads on lines only; ``variant="prime"`` also
    reads beads off the free points (top prefix, bottom suffix).
    """
    if variant not in ("first", "prime"):
        raise ValueError(f"unknown rook variant {variant!r}")
    lines, ups, downs, tops, bottoms = _read(x)
    if ups or downs:
        raise ValueError("rook diagrams have no brackets")
    line_beads = [(upper, k) for upper, _, k in lines]
    if variant == "first":
        if any(k for _, k in tops + bottoms):
            raise ValueError("free points hold no beads in this family")
        top_beads, bottom_beads = tuple(line_beads), ()
    else:
        top_beads, bottom_beads = tuple(sorted(line_beads + tops)), tuple(bottoms)
    sigma = [0] * x.n
    for upper, lower, _ in lines:
        sigma[upper - 1] = lower
    # a free top point maps to the free bottom point of the same rank
    for (p, _), (q, _) in zip(tops, bottoms):
        sigma[p - 1] = q
    return RookWord(x.n, x.d, variant, top_beads, tuple(p for p, _ in tops),
                    permutation_word(sigma), bottom_beads)


# -- word-length oracle ------------------------------------------------------------

def min_length_oracle(x: BeadedDiagram, fam, cap: int = 250_000) -> int:
    """Minimal number of non-bead generators over all words evaluating to x.

    0/1 breadth-first search over the family's diagrams; bead generators are
    free, every other generator costs one.
    """
    from .monoids import generating_set, generating_symbols  # local import avoids a cycle

    start = identity(fam.n, fam.d, tied=fam.tied, tag=fam.tag)
    moves = [(diag, 0 if sym.kind == "o" else 1)
             for sym, diag in zip(generating_symbols(fam), generating_set(fam))]
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
