"""Beaded, optionally tied, partition diagrams with exact composition.

A diagram on ``n`` strands is a set partition of the ``2n`` boundary points;
point ``i`` (1-based, ``i <= n``) is the i-th point on the top edge and point
``n + i`` is the i-th point on the bottom edge.  Every block carries a bead
count modulo ``d`` (the framing); beads slide freely along their block, so a
single residue per block is a faithful encoding.  A diagram may additionally
carry a tie partition, i.e. a coarsening of its set of blocks.

A diagram is stored as canonical block labels: ``lab[p - 1]`` is the index
of the block holding point p, blocks numbered in the order of their least
point, and beads and tie classes are indexed by those labels.  The
constructor takes either blocks in any order, which it validates and
canonicalizes, or labels that are already canonical (``lab=``), which it
checks in time linear in n without sorting.

Products stack the left factor above the right one: in ``compose(a, b)`` the
bottom points of ``a`` are glued to the top points of ``b``.  Components of
the glued picture that still touch the outer boundary become blocks of the
result, with beads added mod d; components trapped in the middle layer are
removed and reported in a :class:`LoopRecord`, one count per bead residue.
The product is one union-find over the blocks of the two factors.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
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


# the record of every product that removes no loops
_NO_LOOPS = LoopRecord()


def _tag_join(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    if PARTITION in (t1, t2):
        return PARTITION
    # permutation and planar-matching meet in the matchings
    return MATCHING


def _crossing(x1, y1, x2, y2) -> bool:
    return (x1 < x2 < y1 < y2) or (x2 < x1 < y2 < y1)


def _labels_of_blocks(n: int, blocks) -> tuple[tuple[int, ...], list[tuple], list[int]]:
    """Canonical labels of a partition given as blocks in any order.

    Returns the labels, the blocks as given (as int tuples), and ``order``:
    ``order[label]`` is the position of that block in the input.
    """
    raw = [tuple(int(p) for p in blk) for blk in blocks]
    owner = [-1] * (2 * n)
    for idx, blk in enumerate(raw):
        if not blk:
            raise ValueError("blocks must partition the 2n boundary points")
        for p in blk:
            if not 1 <= p <= 2 * n or owner[p - 1] >= 0:
                raise ValueError("blocks must partition the 2n boundary points")
            owner[p - 1] = idx
    if -1 in owner:
        raise ValueError("blocks must cover every boundary point")
    label_of: dict[int, int] = {}
    lab = tuple([label_of.setdefault(idx, len(label_of)) for idx in owner])
    return lab, raw, list(label_of)


@lru_cache(maxsize=None)
def _point_names(n: int) -> tuple[str, ...]:
    """The names t1..tn, b1..bn of the 2n boundary points, in point order."""
    return tuple(f"t{p}" for p in range(1, n + 1)) + tuple(f"b{p}" for p in range(1, n + 1))


def _pool_beads(beads: list[int], ties, d: int) -> None:
    """Move the beads of each tie class, summed mod d, onto its least block."""
    for cls in ties:
        if len(cls) > 1:
            pooled = sum(beads[b] for b in cls) % d
            for b in cls:
                beads[b] = 0
            beads[cls[0]] = pooled


class BeadedDiagram:
    """A set partition of the 2n boundary points with beads and optional ties.

    ``lab`` is the canonical labelling: ``lab[p - 1]`` is the index of the
    block holding point p, blocks numbered in the order of their least point.
    ``blocks`` derives from it the tuple of blocks, each a sorted tuple of
    point numbers, blocks sorted by their minimum.  ``beads[i]`` is the
    residue in [0, d) of block i.  ``ties``, when present, is a partition of
    the block indices (classes sorted, class members sorted).  Equality and
    hashing look only at ``(n, d, lab, beads, ties)``: the ``family_tag`` is a
    structural claim used for validation, not identity.

    Two constructor forms: ``BeadedDiagram(n, d, blocks, beads, tag, ties)``
    takes blocks in any order, with ``beads`` parallel to them (or a mapping
    from point sets to residues) and ``ties`` over their positions;
    ``BeadedDiagram(n, d, beads=..., family_tag=..., ties=..., lab=...)``
    takes canonical labels, with ``beads`` and ``ties`` indexed by label.
    Both check the partition and the structural tag.

    When ties are present and d > 1, beads are pooled per tie class (stored
    on the class's least block): a tie lets beads move freely between its
    blocks, so the pooled residue is the faithful datum.  The blocks form
    pools the beads it is given; the ``lab=`` form requires them pooled.
    """

    __slots__ = ("n", "d", "lab", "beads", "family_tag", "ties", "_hash")

    def __init__(self, n, d, blocks=None, beads=None, family_tag=PARTITION, ties=None,
                 *, lab=None):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if family_tag not in _TAGS:
            raise ValueError(f"unknown family tag {family_tag!r}")
        if (blocks is None) == (lab is None):
            raise TypeError("give exactly one of blocks and lab")

        if lab is None:
            lab, raw, order = _labels_of_blocks(n, blocks)
            k = len(order)
            if beads is None:
                canon_beads = [0] * k
            elif hasattr(beads, "items"):
                lookup = {frozenset(key): int(v) for key, v in beads.items()}
                canon_beads = [lookup.get(frozenset(raw[idx]), 0) % d for idx in order]
            else:
                given = list(beads)
                if len(given) != k:
                    raise ValueError("beads must match blocks")
                canon_beads = [int(given[idx]) % d for idx in order]
            if ties is not None:
                label = {old: new for new, old in enumerate(order)}
                try:
                    ties = [[label[int(b)] for b in cls] for cls in ties]
                except KeyError:
                    raise ValueError("ties must partition the block indices") from None
        else:
            lab = tuple(lab)
            if len(lab) != 2 * n:
                raise ValueError("labels must cover the 2n boundary points")
            first = list(dict.fromkeys(lab))
            k = len(first)
            if first != list(range(k)):
                raise ValueError("labels must number the blocks 0..k-1 "
                                 "in the order of their least point")
            if beads is None:
                canon_beads = [0] * k
            else:
                canon_beads = [v % d for v in beads]
                if len(canon_beads) != k:
                    raise ValueError("beads must match blocks")

        canon_ties = None
        if ties is not None:
            canon_ties = tuple(sorted(map(tuple, map(sorted, ties))))
            members = sorted(chain.from_iterable(canon_ties))
            if members != list(range(k)) or not all(canon_ties):
                if len(members) == len(set(members)) and set(members) < set(range(k)):
                    raise ValueError("ties must cover every block")
                raise ValueError("ties must partition the block indices")
            if d > 1 and blocks is not None:
                _pool_beads(canon_beads, canon_ties, d)
            elif d > 1 and any(canon_beads[b] for cls in canon_ties for b in cls[1:]):
                raise ValueError("the beads of a tie class must sit on its least block")

        self.n = n
        self.d = d
        self.lab = lab
        self.beads = tuple(canon_beads)
        self.family_tag = family_tag
        self.ties = canon_ties
        if family_tag != PARTITION and not self._tag_holds():
            self._raise_tag_violation()
        self._hash = hash((n, d, lab, self.beads, canon_ties))

    def _tag_holds(self) -> bool:
        """The structural tag, read off the labels in O(n)."""
        n, lab, tag = self.n, self.lab, self.family_tag
        if tag == PERMUTATION:
            # each top point opens its own block and the bottom points meet
            # those blocks once each
            return lab[:n] == tuple(range(n)) and sorted(lab[n:]) == list(range(n))
        if tag == MATCHING:
            size = [0] * len(self.beads)
            for x in lab:
                size[x] += 1
            return max(size) <= 2
        # planar matching: n blocks, and in the boundary order t1..tn, bn..b1
        # every point closes the block on top of the stack or opens one.  An
        # emptied stack leaves no free point, and with n blocks no block
        # larger than two
        if len(self.beads) != n:
            return False
        stack = []
        for x in lab[:n] + lab[:n - 1:-1]:
            if stack and stack[-1] == x:
                stack.pop()
            else:
                stack.append(x)
        return not stack

    def _raise_tag_violation(self):
        """Name the first block that breaks the structural tag."""
        n, tag, blocks = self.n, self.family_tag, self.blocks
        for blk in blocks:
            if len(blk) > 2:
                raise ValueError(f"{tag} diagrams admit only blocks of size <= 2")
        if tag == PERMUTATION:
            raise ValueError("permutation diagrams pair one top with one bottom point")
        chords = []
        for blk in blocks:
            if len(blk) != 2:
                raise NotPlanar("planar matchings have no free points")
            x, y = (p if p <= n else 3 * n + 1 - p for p in blk)
            chords.append((min(x, y), max(x, y)))
        for a in range(len(chords)):
            for b in range(a + 1, len(chords)):
                if _crossing(*chords[a], *chords[b]):
                    raise NotPlanar(f"arcs cross: {blocks[a]} and {blocks[b]}")

    # -- identity & hashing ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, BeadedDiagram) and self._hash == other._hash
                and self.lab == other.lab and self.d == other.d
                and self.beads == other.beads and self.ties == other.ties)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BeadedDiagram({self.encode()!r})"

    # -- views ---------------------------------------------------------------

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each a sorted tuple of points, sorted by their minimum."""
        out: list[list[int]] = [[] for _ in self.beads]
        for p, x in enumerate(self.lab, 1):
            out[x].append(p)
        return tuple(map(tuple, out))

    @property
    def tied(self) -> bool:
        return self.ties is not None

    def encode(self) -> str:
        """Canonical textual encoding, stable across runs."""
        names: list[list[str]] = [[] for _ in self.beads]
        for x, name in zip(self.lab, _point_names(self.n)):
            names[x].append(name)
        parts = ",".join(["{%s}:%d" % (",".join(pts), k)
                          for pts, k in zip(names, self.beads)])
        text = f"n={self.n};d={self.d};blocks=[{parts}]"
        if self.ties is not None:
            tie_txt = ",".join("[%s]" % ",".join(map(str, cls)) for cls in self.ties)
            text += f";ties=[{tie_txt}]"
        return text

    def block_of(self, p: int) -> int:
        if not 1 <= p <= 2 * self.n:
            raise ValueError(f"no block contains point {p}")
        return self.lab[p - 1]

    def reframed(self, d: int) -> "BeadedDiagram":
        """The same diagram with framing modulus d (beads reduced mod d)."""
        return BeadedDiagram(self.n, d, beads=self.beads, family_tag=self.family_tag,
                             ties=self.ties, lab=self.lab)


def erase_beads(x: BeadedDiagram) -> BeadedDiagram:
    """Set every bead to zero (diagram shadow of killing the framings)."""
    return BeadedDiagram(x.n, x.d, family_tag=x.family_tag, ties=x.ties, lab=x.lab)


def erase_ties(x: BeadedDiagram) -> BeadedDiagram:
    """Forget the tie partition."""
    return BeadedDiagram(x.n, x.d, beads=x.beads, family_tag=x.family_tag, lab=x.lab)


def identity(n: int, d: int, tied: bool = False, tag: str = PERMUTATION) -> BeadedDiagram:
    """The diagram of n vertical strands, no beads, all-singleton ties if tied."""
    ties = [[i] for i in range(n)] if tied else None
    return BeadedDiagram(n, d, family_tag=tag, ties=ties, lab=tuple(range(n)) * 2)


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


@lru_cache(maxsize=None)
def generator(sym: GenSymbol, n: int, d: int,
              tied: Optional[bool] = None, tag: Optional[str] = None) -> BeadedDiagram:
    """The diagram of a single generator on n strands with framing modulus d.

    Memoized: diagrams are immutable, so every caller shares one instance.
    """
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
    alab, blab = a.lab, b.lab
    # union-find nodes: a's blocks 0..ka-1, then b's blocks ka..; each middle
    # strand joins the block of a's bottom point with that of b's top point
    ka = len(a.beads)
    parent = list(range(ka + len(b.beads)))
    components = len(parent)
    for x, y in zip(alab[n:], blab[:n]):
        y += ka
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x
            components -= 1

    # result labels in the order of the least outer point of each component
    index: dict[int, int] = {}
    lab = []
    for x in alab[:n]:
        while parent[x] != x:
            x = parent[x]
        lab.append(index.setdefault(x, len(index)))
    for x in blab[n:]:
        x += ka
        while parent[x] != x:
            x = parent[x]
        lab.append(index.setdefault(x, len(index)))
    k = len(index)
    # components that reach no outer point are loops
    trapped = []
    if components > k:
        for x in range(len(parent)):
            if parent[x] == x and x not in index:
                trapped.append(x)

    beads = None
    loops = _NO_LOOPS
    if d > 1:
        acc = [0] * len(parent)
        for x, bead in enumerate(a.beads + b.beads):
            if bead:
                while parent[x] != x:
                    x = parent[x]
                acc[x] += bead
        beads = [0] * k
        for r, v in index.items():
            beads[v] = acc[r] % d
        if trapped:
            loops = LoopRecord([(acc[r] % d, 1) for r in trapped])
    elif trapped:
        loops = LoopRecord({0: len(trapped)})

    free: set[int] = set()
    if drop_rook:
        size = [0] * k
        for v in lab:
            size[v] += 1
        free = {v for v in range(k) if size[v] == 1}
        if beads is not None:
            for v in free:
                beads[v] = 0

    ties = None
    if a.ties is not None:
        # tie classes join components: a second union-find that starts from
        # the first, so every tie root is also a block root
        tie = parent[:]
        for offset, classes in ((0, a.ties), (ka, b.ties)):
            for cls in classes:
                if len(cls) == 1:
                    continue
                x = cls[0] + offset
                while tie[x] != x:
                    x = tie[x]
                for y in cls[1:]:
                    y += offset
                    while tie[y] != y:
                        y = tie[y]
                    if x != y:
                        tie[y] = x
        groups: dict[int, list[int]] = {}
        for r, v in index.items():
            while tie[r] != r:
                r = tie[r]
            groups.setdefault(r, []).append(v)
        ties = list(groups.values())
        if free:
            ties = ([[v for v in cls if v not in free] for cls in ties
                     if any(v not in free for v in cls)]
                    + [[v] for v in free])
        if beads is not None:
            _pool_beads(beads, ties, d)

    result = BeadedDiagram(n, d, beads=beads, ties=ties, lab=lab,
                           family_tag=_tag_join(a.family_tag, b.family_tag))
    return result, loops
