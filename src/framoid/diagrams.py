"""Beaded, optionally tied, partition diagrams with exact composition.

A diagram on ``n`` strands is a set partition of the ``2n`` boundary points;
point ``i`` (1-based, ``i <= n``) is the i-th point on the top edge and point
``n + i`` is the i-th point on the bottom edge.  Every block carries a bead
count modulo ``d`` (the framing); beads slide freely along their block, so a
single residue per block is a faithful encoding.  A diagram may additionally
carry a tie partition, i.e. a coarsening of its set of blocks.

Products stack the left factor above the right one: in ``compose(a, b)`` the
bottom points of ``a`` are glued to the top points of ``b``.  Components of
the glued picture that still touch the outer boundary become blocks of the
result, with beads added mod d; components trapped in the middle layer are
removed and reported in a :class:`LoopRecord`, one count per bead residue.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

PARTITION = "partition"
MATCHING = "matching"
PLANAR = "planar-matching"
PERMUTATION = "permutation"

_TAGS = frozenset((PARTITION, MATCHING, PLANAR, PERMUTATION))


class CapExceeded(RuntimeError):
    """Raised when an enumeration grows past its element cap."""


class NotPlanar(ValueError):
    """Raised when a planar matching was required but arcs cross."""


class LoopRecord:
    """Multiset of bead residues of the closed components removed by a product."""

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        acc: dict[int, int] = {}
        if counts:
            items = counts.items() if hasattr(counts, "items") else counts
            for residue, mult in items:
                if mult < 0:
                    raise ValueError("loop multiplicities must be non-negative")
                if mult:
                    acc[int(residue)] = acc.get(int(residue), 0) + int(mult)
        self.counts = tuple(sorted(acc.items()))

    @property
    def is_empty(self) -> bool:
        return not self.counts

    def total(self) -> int:
        return sum(m for _, m in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def merged(self, other: "LoopRecord") -> "LoopRecord":
        if not other.counts:
            return self
        if not self.counts:
            return other
        acc = dict(self.counts)
        for residue, mult in other.counts:
            acc[residue] = acc.get(residue, 0) + mult
        return LoopRecord(acc)

    def __eq__(self, other):
        return isinstance(other, LoopRecord) and self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __repr__(self):
        inner = ", ".join(f"{p}: {m}" for p, m in self.counts)
        return "LoopRecord({%s})" % inner


def _tag_join(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    if PARTITION in (t1, t2):
        return PARTITION
    # permutation and planar-matching meet in the matchings
    return MATCHING


def _crossing(x1, y1, x2, y2) -> bool:
    return (x1 < x2 < y1 < y2) or (x2 < x1 < y2 < y1)


class BeadedDiagram:
    """A set partition of the 2n boundary points with beads and optional ties.

    ``blocks`` is the canonical tuple of blocks, each a sorted tuple of point
    numbers, blocks sorted by their minimum; ``beads`` is the parallel tuple
    of residues in [0, d).  ``ties``, when present, is a partition of the
    block indices (classes sorted, class members sorted).  Equality and
    hashing look only at ``(n, d, blocks, beads, ties)``: the ``family_tag``
    is a structural claim used for validation, not identity.

    When ties are present and d > 1, beads are pooled per tie class (stored
    on the class's least block): a tie lets beads move freely between its
    blocks, so the pooled residue is the faithful datum.
    """

    __slots__ = ("n", "d", "blocks", "beads", "family_tag", "ties", "_key", "_hash")

    def __init__(self, n, d, blocks, beads=None, family_tag=PARTITION, ties=None):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if family_tag not in _TAGS:
            raise ValueError(f"unknown family tag {family_tag!r}")

        raw = [tuple(sorted(int(p) for p in blk)) for blk in blocks]
        order = sorted(range(len(raw)), key=lambda idx: raw[idx])
        canon_blocks = tuple(raw[idx] for idx in order)

        seen = [False] * (2 * n)
        for blk in canon_blocks:
            for p in blk:
                if not 1 <= p <= 2 * n or seen[p - 1]:
                    raise ValueError("blocks must partition the 2n boundary points")
                seen[p - 1] = True
        if not all(seen):
            raise ValueError("blocks must cover every boundary point")

        if beads is None:
            canon_beads = [0] * len(canon_blocks)
        elif hasattr(beads, "items"):
            lookup = {frozenset(k): int(v) for k, v in beads.items()}
            canon_beads = [lookup.get(frozenset(blk), 0) % d for blk in canon_blocks]
        else:
            given = list(beads)
            if len(given) != len(raw):
                raise ValueError("beads must match blocks")
            canon_beads = [int(given[idx]) % d for idx in order]

        canon_ties = None
        if ties is not None:
            inv = [0] * len(raw)
            for new_idx, old_idx in enumerate(order):
                inv[old_idx] = new_idx
            classes = [sorted(inv[int(b)] for b in cls) for cls in ties]
            hit = [False] * len(canon_blocks)
            for cls in classes:
                for b in cls:
                    if not 0 <= b < len(canon_blocks) or hit[b]:
                        raise ValueError("ties must partition the block indices")
                    hit[b] = True
            if not all(hit):
                raise ValueError("ties must cover every block")
            canon_ties = tuple(sorted(tuple(cls) for cls in classes))
            if d > 1:
                for cls in canon_ties:
                    pooled = sum(canon_beads[b] for b in cls) % d
                    for b in cls:
                        canon_beads[b] = 0
                    canon_beads[cls[0]] = pooled

        self.n = n
        self.d = d
        self.blocks = canon_blocks
        self.beads = tuple(canon_beads)
        self.family_tag = family_tag
        self.ties = canon_ties
        self._validate_tag()
        self._key = (n, d, self.blocks, self.beads, self.ties)
        self._hash = hash(self._key)

    def _validate_tag(self):
        n, tag = self.n, self.family_tag
        if tag == PARTITION:
            return
        for blk in self.blocks:
            if len(blk) > 2:
                raise ValueError(f"{tag} diagrams admit only blocks of size <= 2")
        if tag == MATCHING:
            return
        if tag == PERMUTATION:
            for blk in self.blocks:
                if len(blk) != 2 or not (blk[0] <= n < blk[1]):
                    raise ValueError("permutation diagrams pair one top with one bottom point")
            return
        # planar matching: all blocks arcs, no two crossing in the boundary
        # order t1..tn, bn..b1
        chords = []
        for blk in self.blocks:
            if len(blk) != 2:
                raise NotPlanar("planar matchings have no free points")
            x, y = (p if p <= n else 3 * n + 1 - p for p in blk)
            chords.append((min(x, y), max(x, y)))
        for a in range(len(chords)):
            for b in range(a + 1, len(chords)):
                if _crossing(*chords[a], *chords[b]):
                    raise NotPlanar(f"arcs cross: {self.blocks[a]} and {self.blocks[b]}")

    # -- identity & hashing ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, BeadedDiagram) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BeadedDiagram({self.encode()!r})"

    # -- views ---------------------------------------------------------------

    @property
    def tied(self) -> bool:
        return self.ties is not None

    def point_name(self, p: int) -> str:
        return f"t{p}" if p <= self.n else f"b{p - self.n}"

    def encode(self) -> str:
        """Canonical textual encoding, stable across runs."""
        parts = []
        for blk, k in zip(self.blocks, self.beads):
            pts = ",".join(self.point_name(p) for p in blk)
            parts.append("{%s}:%d" % (pts, k))
        text = f"n={self.n};d={self.d};blocks=[{','.join(parts)}]"
        if self.ties is not None:
            tie_txt = ",".join("[%s]" % ",".join(map(str, cls)) for cls in self.ties)
            text += f";ties=[{tie_txt}]"
        return text

    def block_of(self, p: int) -> int:
        for idx, blk in enumerate(self.blocks):
            if p in blk:
                return idx
        raise ValueError(f"no block contains point {p}")

    def reframed(self, d: int) -> "BeadedDiagram":
        """The same diagram with framing modulus d (beads reduced mod d)."""
        return BeadedDiagram(self.n, d, self.blocks, [k % d for k in self.beads],
                             self.family_tag, self.ties)


def erase_beads(x: BeadedDiagram) -> BeadedDiagram:
    """Set every bead to zero (diagram shadow of killing the framings)."""
    return BeadedDiagram(x.n, x.d, x.blocks, None, x.family_tag, x.ties)


def erase_ties(x: BeadedDiagram) -> BeadedDiagram:
    """Forget the tie partition."""
    return BeadedDiagram(x.n, x.d, x.blocks, x.beads, x.family_tag, None)


def identity(n: int, d: int, tied: bool = False, tag: str = PERMUTATION) -> BeadedDiagram:
    """The diagram of n vertical strands, no beads, all-singleton ties if tied."""
    blocks = [(i, n + i) for i in range(1, n + 1)]
    ties = [[i] for i in range(n)] if tied else None
    return BeadedDiagram(n, d, blocks, None, tag, ties)


# -- generator symbols ------------------------------------------------------

class GenSymbol(NamedTuple):
    """A generator token: tangle t_i, crossing s_i, bead o_i^k, rook r_i,
    rook product p_i, tie e_{i,j}, tied tangle f_i, tied rook q_i, or tied
    rook product w_i."""

    kind: str
    i: int
    j: int = 0
    exp: int = 1


_SYM_RE = re.compile(r"^([tsorpfqw])(\d+)(?:\^(-?\d+))?$")
_TIE_RE = re.compile(r"^e(\d+)(?:,(\d+))?$")


def parse_word(text: str) -> tuple[GenSymbol, ...]:
    """Parse a whitespace-separated generator word such as ``"t1 o3^2 e1,3"``."""
    out = []
    for token in text.split():
        m = _TIE_RE.match(token)
        if m:
            i = int(m.group(1))
            j = int(m.group(2)) if m.group(2) else i + 1
            out.append(GenSymbol("e", i, j))
            continue
        m = _SYM_RE.match(token)
        if not m:
            raise ValueError(f"cannot parse generator token {token!r}")
        kind, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        if exp is not None and kind != "o":
            raise ValueError(f"only bead generators take exponents: {token!r}")
        out.append(GenSymbol(kind, idx, 0, int(exp) if exp is not None else 1))
    return tuple(out)


def render_symbol(sym: GenSymbol) -> str:
    if sym.kind == "e":
        return f"e{sym.i}" if sym.j == sym.i + 1 else f"e{sym.i},{sym.j}"
    if sym.kind == "o" and sym.exp != 1:
        return f"o{sym.i}^{sym.exp}"
    return f"{sym.kind}{sym.i}"


def render_word(word: Iterable[GenSymbol]) -> str:
    return " ".join(render_symbol(sym) for sym in word)


_DEFAULT_TAG = {
    "t": PLANAR, "f": PLANAR,
    "s": PERMUTATION, "o": PERMUTATION, "e": PERMUTATION,
    "r": MATCHING, "p": MATCHING, "q": MATCHING, "w": MATCHING,
}
_TIED_KINDS = frozenset("efqw")


def symbol_valid(sym: GenSymbol, n: int, d: int) -> bool:
    if sym.kind in ("t", "s", "f"):
        return 1 <= sym.i <= n - 1
    if sym.kind in ("o", "r", "p", "q", "w"):
        return 1 <= sym.i <= n
    if sym.kind == "e":
        return 1 <= sym.i < sym.j <= n
    return False


def generator(sym: GenSymbol, n: int, d: int,
              tied: Optional[bool] = None, tag: Optional[str] = None) -> BeadedDiagram:
    """The diagram of a single generator on n strands with framing modulus d."""
    if not symbol_valid(sym, n, d):
        raise ValueError(f"generator {render_symbol(sym)} out of range for n={n}")
    if tied is None:
        tied = sym.kind in _TIED_KINDS
    elif not tied and sym.kind in _TIED_KINDS:
        raise ValueError(f"generator {render_symbol(sym)} requires ties")
    if tag is None:
        tag = _DEFAULT_TAG[sym.kind]

    i = sym.i
    blocks: list[tuple[int, ...]] = []
    beads = None
    tie_class: Optional[list[int]] = None

    if sym.kind in ("t", "f"):
        for m in range(1, n + 1):
            if m not in (i, i + 1):
                blocks.append((m, n + m))
        blocks.append((i, i + 1))
        blocks.append((n + i, n + i + 1))
        if sym.kind == "f":
            tie_class = [len(blocks) - 2, len(blocks) - 1]
    elif sym.kind == "s":
        for m in range(1, n + 1):
            if m == i:
                blocks.append((m, n + m + 1))
            elif m == i + 1:
                blocks.append((m, n + m - 1))
            else:
                blocks.append((m, n + m))
    elif sym.kind == "o":
        blocks = [(m, n + m) for m in range(1, n + 1)]
        beads = [sym.exp % d if m == i else 0 for m in range(1, n + 1)]
    elif sym.kind in ("r", "q"):
        for m in range(1, n + 1):
            if m != i:
                blocks.append((m, n + m))
        blocks.append((i,))
        blocks.append((n + i,))
        if sym.kind == "q":
            tie_class = [len(blocks) - 2, len(blocks) - 1]
    elif sym.kind in ("p", "w"):
        for m in range(1, n + 1):
            if m > i:
                blocks.append((m, n + m))
        for m in range(1, i + 1):
            blocks.append((m,))
            blocks.append((n + m,))
        if sym.kind == "w":
            # tie the two broken arcs of strand i
            top_idx = len(blocks) - 2
            bot_idx = len(blocks) - 1
            tie_class = [top_idx, bot_idx]
    elif sym.kind == "e":
        blocks = [(m, n + m) for m in range(1, n + 1)]
        tie_class = [i - 1, sym.j - 1]

    ties = None
    if tied:
        in_class = set(tie_class or ())
        ties = [tie_class] if tie_class else []
        ties += [[b] for b in range(len(blocks)) if b not in in_class]
    return BeadedDiagram(n, d, blocks, beads, tag, ties)


# -- composition -------------------------------------------------------------

def compose(a: BeadedDiagram, b: BeadedDiagram, *,
            drop_rook: bool = False) -> tuple[BeadedDiagram, LoopRecord]:
    """Concatenation product: ``a`` stacked above ``b``.

    Returns the resulting diagram together with the record of removed middle
    components.  With ``drop_rook=True``, free points shed their beads and
    leave every tie class (the composition rule of the rook-style families
    whose broken arcs cannot hold beads).
    """
    if a.n != b.n or a.d != b.d:
        raise ValueError("factors must share strand count and framing modulus")
    if a.tied != b.tied:
        raise ValueError("cannot mix tied and untied diagrams")

    n, d = a.n, a.d
    size = 3 * n
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    # node ids: final top i -> i-1, final bottom n+i -> n+i-1, middle strand
    # s -> 2n+s-1.  a's bottom points and b's top points meet in the middle.
    def a_node(p: int) -> int:
        return p - 1 if p <= n else n + p - 1

    def b_node(p: int) -> int:
        return 2 * n + p - 1 if p <= n else p - 1

    for blk in a.blocks:
        base = a_node(blk[0])
        for p in blk[1:]:
            union(base, a_node(p))
    for blk in b.blocks:
        base = b_node(blk[0])
        for p in blk[1:]:
            union(base, b_node(p))

    acc = [0] * size
    for blk, k in zip(a.blocks, a.beads):
        if k:
            acc[find(a_node(blk[0]))] += k
    for blk, k in zip(b.blocks, b.beads):
        if k:
            acc[find(b_node(blk[0]))] += k

    root_index: dict[int, int] = {}
    blocks: list[list[int]] = []
    beads: list[int] = []
    for node in range(2 * n):
        r = find(node)
        idx = root_index.get(r)
        if idx is None:
            root_index[r] = len(blocks)
            blocks.append([node + 1])
            beads.append(acc[r] % d)
        else:
            blocks[idx].append(node + 1)

    loops: dict[int, int] = {}
    seen_mid: set[int] = set()
    for node in range(2 * n, size):
        r = find(node)
        if r in root_index or r in seen_mid:
            continue
        seen_mid.add(r)
        residue = acc[r] % d
        loops[residue] = loops.get(residue, 0) + 1

    if drop_rook:
        for idx, blk in enumerate(blocks):
            if len(blk) == 1:
                beads[idx] = 0

    ties = None
    if a.tied:
        tparent = parent[:]

        def tfind(x: int) -> int:
            while tparent[x] != x:
                tparent[x] = tparent[tparent[x]]
                x = tparent[x]
            return x

        def tunion(x: int, y: int) -> None:
            rx, ry = tfind(x), tfind(y)
            if rx != ry:
                tparent[ry] = rx

        for cls in a.ties:
            base = a_node(a.blocks[cls[0]][0])
            for bi in cls[1:]:
                tunion(base, a_node(a.blocks[bi][0]))
        for cls in b.ties:
            base = b_node(b.blocks[cls[0]][0])
            for bi in cls[1:]:
                tunion(base, b_node(b.blocks[bi][0]))

        groups: dict[int, list[int]] = {}
        for idx, blk in enumerate(blocks):
            groups.setdefault(tfind(blk[0] - 1), []).append(idx)
        classes = list(groups.values())
        if drop_rook:
            split = []
            for cls in classes:
                arcs = [idx for idx in cls if len(blocks[idx]) > 1]
                if arcs:
                    split.append(arcs)
                split.extend([idx] for idx in cls if len(blocks[idx]) == 1)
            classes = split
        ties = classes

    result = BeadedDiagram(n, d, blocks, beads,
                           _tag_join(a.family_tag, b.family_tag), ties)
    return result, LoopRecord(loops)
