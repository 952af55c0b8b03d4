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
canonicalizes, or labels that are already canonical (``lab=``).

Products stack the left factor above the right one: in ``compose(a, b)`` the
bottom points of ``a`` are glued to the top points of ``b``.  Components of
the glued picture that still touch the outer boundary become blocks of the
result, with beads added mod d; components trapped in the middle layer are
removed and reported in a :class:`LoopRecord`, one count per bead residue.

The work splits into a shape part and a decoration part.  The shape part
depends only on label tuples and is memoized: ``_shape`` checks a label
tuple and reads off its structural tags, and ``_skeleton`` runs the
union-find over the blocks of two factors once per pair of label tuples.
Beads, loops and ties are done on every product.  The memos grow with the
distinct label tuples and pairs of them, not with the elements.

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


# the distinct tag sets, so that equal sets returned by _shape are one object
_TAG_SETS: dict[frozenset, frozenset] = {}


@lru_cache(maxsize=None)
def _shape(lab: tuple, n: int) -> tuple[tuple[int, ...], int, frozenset]:
    """Check canonical labels once per distinct tuple.

    Returns the labels (equal labels become one shared tuple), the block
    count k and the set of structural tags the labels satisfy.  Only results
    are memoized: labels that fail a check raise on every call.
    """
    if len(lab) != 2 * n:
        raise ValueError("labels must cover the 2n boundary points")
    first = list(dict.fromkeys(lab))
    k = len(first)
    if first != list(range(k)):
        raise ValueError("labels must number the blocks 0..k-1 "
                         "in the order of their least point")
    size = [0] * k
    for x in lab:
        size[x] += 1
    tags = {PARTITION}
    if max(size) <= 2:
        tags.add(MATCHING)
        # each top point opens its own block and the bottom points meet
        # those blocks once each
        if lab[:n] == tuple(range(n)) and sorted(lab[n:]) == list(range(n)):
            tags.add(PERMUTATION)
        # n blocks, and in the boundary order t1..tn, bn..b1 every point
        # closes the block on top of the stack or opens one
        if k == n:
            stack = []
            for x in lab[:n] + lab[:n - 1:-1]:
                if stack and stack[-1] == x:
                    stack.pop()
                else:
                    stack.append(x)
            if not stack:
                tags.add(PLANAR)
    tags = frozenset(tags)
    return lab, k, _TAG_SETS.setdefault(tags, tags)


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
    Both check the partition and the structural tag, through ``_shape``,
    once per distinct label tuple; beads and ties are checked on every call.

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
            lab, k, tags = _shape(lab, n)
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
            lab, k, tags = _shape(tuple(lab), n)
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
        if family_tag not in tags:
            self._raise_tag_violation()
        self._hash = hash((n, d, lab, self.beads, canon_ties))

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


class _Kind(NamedTuple):
    reach: int                    # the index i runs over 1..n - reach
    tag: str                      # the structural tag of the generator alone
    unties: Optional[str] = None  # a tied kind: the kind whose two ends it ties


# every fact about a generator kind; "1" is the identity, which e_{i,j} ties
_KINDS = {
    "t": _Kind(1, PLANAR), "s": _Kind(1, PERMUTATION), "o": _Kind(0, PERMUTATION),
    "r": _Kind(0, MATCHING), "p": _Kind(0, MATCHING),
    "e": _Kind(1, PERMUTATION, "1"), "f": _Kind(1, PLANAR, "t"),
    "q": _Kind(0, MATCHING, "r"), "w": _Kind(0, MATCHING, "p"),
}

_SYM_RE = re.compile(r"^([%s])(\d+)(?:\^(-?\d+))?$" % "".join(k for k in _KINDS if k != "e"))
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


def symbol_valid(sym: GenSymbol, n: int, d: int) -> bool:
    kind = _KINDS.get(sym.kind)
    return (kind is not None and 1 <= sym.i <= n - kind.reach
            and (sym.kind != "e" or sym.i < sym.j <= n))


def kind_symbols(kind: str, n: int) -> list[GenSymbol]:
    """The generators of one kind on n strands, ascending; kind ``"e"`` is
    the adjacent ties e_{i,i+1} and ``"e*"`` every tie e_{i,j}."""
    syms = [GenSymbol(kind[0], i, j) for i in range(1, n + 1)
            for j in (range(1, n + 1) if kind == "e*" else [i + 1 if kind == "e" else 0])]
    return [sym for sym in syms if symbol_valid(sym, n, 1)]


@lru_cache(maxsize=None)
def generator(sym: GenSymbol, n: int, d: int,
              tied: Optional[bool] = None, tag: Optional[str] = None) -> BeadedDiagram:
    """The diagram of a single generator on n strands with framing modulus d.

    A tied kind is its untied kind with the blocks at its two ends tied: t_i
    and t_j for e_{i,j}, t_i and b_i for the others.  Memoized: diagrams are
    immutable, so every caller shares one instance.
    """
    if not symbol_valid(sym, n, d):
        raise ValueError(f"generator {render_symbol(sym)} out of range for n={n}")
    kind = _KINDS[sym.kind]
    if tied is None:
        tied = kind.unties is not None
    elif not tied and kind.unties is not None:
        raise ValueError(f"generator {render_symbol(sym)} requires ties")
    if tag is None:
        tag = kind.tag

    i, untied = sym.i, kind.unties or sym.kind
    # the strands that stop being vertical, and the blocks that replace them
    cut, extra = (), []
    if untied == "t":
        cut, extra = (i, i + 1), [(i, i + 1), (n + i, n + i + 1)]
    elif untied == "s":
        cut, extra = (i, i + 1), [(i, n + i + 1), (i + 1, n + i)]
    elif untied in ("r", "p"):
        cut = (i,) if untied == "r" else range(1, i + 1)
        extra = [(m,) for m in cut] + [(n + m,) for m in cut]
    blocks = [(m, n + m) for m in range(1, n + 1) if m not in cut] + extra
    beads = {(i, n + i): sym.exp} if untied == "o" else None

    ties = [[b] for b in range(len(blocks))] if tied else None
    if kind.unties is not None:
        far = sym.j if sym.kind == "e" else n + i
        ends = [b for b, blk in enumerate(blocks) if i in blk or far in blk]
        ties = [ends] + [[b] for b in range(len(blocks)) if b not in ends]
    return BeadedDiagram(n, d, blocks, beads, tag, ties)


# -- composition -------------------------------------------------------------

# shape products: _PLANS[b.lab][a.lab] is _skeleton(a.lab, b.lab), one dict
# per right-hand shape so that no key tuple is kept per entry
_PLANS: dict[tuple, dict[tuple, tuple]] = {}


def _skeleton(alab: tuple, blab: tuple) -> tuple:
    """The shape part of ``compose`` for factors labelled ``alab`` and ``blab``.

    One union-find over the blocks of the two factors, a's blocks 0..ka-1
    and then b's.  Returns ``(lab, comp, k, trapped, free)``: the result's
    labels (through ``_shape``), ``comp`` mapping each block of a and then of
    b to the result label of its component or to k + j for the j-th trapped
    loop, the block count k, the number of trapped loops, and the labels of
    the result's singleton blocks.
    """
    n = len(alab) // 2
    ka = max(alab) + 1
    parent = list(range(ka + max(blab) + 1))
    # each middle strand joins the block of a's bottom point with that of
    # b's top point
    for x, y in zip(alab[n:], blab[:n]):
        y += ka
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x
    root = []
    for x in range(len(parent)):
        while parent[x] != x:
            x = parent[x]
        root.append(x)

    # result labels in the order of the least outer point of each component;
    # components that reach no outer point are loops, numbered after them
    ident = [-1] * len(parent)
    lab = []
    k = 0
    for x in chain(alab[:n], [y + ka for y in blab[n:]]):
        r = root[x]
        if ident[r] < 0:
            ident[r] = k
            k += 1
        lab.append(ident[r])
    lab = _shape(tuple(lab), n)[0]
    trapped = 0
    for x, r in enumerate(root):
        if x == r and ident[r] < 0:
            ident[r] = k + trapped
            trapped += 1
    comp = [ident[r] for r in root]

    size = [0] * k
    for v in lab:
        size[v] += 1
    free = tuple(v for v in range(k) if size[v] == 1)
    return lab, bytes(comp) if len(comp) <= 256 else tuple(comp), k, trapped, free


def memo_sizes() -> tuple[int, int]:
    """The number of memoized label tuples and of memoized shape products."""
    return _shape.cache_info().currsize, sum(map(len, _PLANS.values()))


def compose(a: BeadedDiagram, b: BeadedDiagram, *,
            drop_rook: bool = False) -> tuple[BeadedDiagram, LoopRecord]:
    """Concatenation product: ``a`` stacked above ``b``.

    Returns the resulting diagram together with the record of removed middle
    components.  With ``drop_rook=True``, free points shed their beads and
    leave every tie class (the composition rule of the rook-style families
    whose broken arcs cannot hold beads).

    The shapes of the product come from ``_skeleton``, memoized per pair of
    label tuples; beads, loops and ties are done on every call.
    """
    if a.n != b.n or a.d != b.d:
        raise ValueError("factors must share strand count and framing modulus")
    if a.tied != b.tied:
        raise ValueError("cannot mix tied and untied diagrams")

    n, d = a.n, a.d
    plans = _PLANS.get(b.lab)
    if plans is None:
        plans = _PLANS[b.lab] = {}
    plan = plans.get(a.lab)
    if plan is None:
        plan = plans[a.lab] = _skeleton(a.lab, b.lab)
    lab, comp, k, trapped, free = plan

    beads = None
    loops = _NO_LOOPS
    if d > 1:
        # one slot per component; the constructor reduces the beads mod d
        acc = [0] * (k + trapped)
        for x, bead in enumerate(a.beads + b.beads):
            if bead:
                acc[comp[x]] += bead
        beads = acc[:k]
        if trapped:
            loops = LoopRecord([(v % d, 1) for v in acc[k:]])
    elif trapped:
        loops = LoopRecord({0: trapped})

    if not drop_rook:
        free = ()
    elif beads is not None:
        for v in free:
            beads[v] = 0

    ties = None
    if a.ties is not None:
        # tie classes join components, trapped ones included
        tie = list(range(k + trapped))
        for offset, classes in ((0, a.ties), (len(a.beads), b.ties)):
            for cls in classes:
                if len(cls) == 1:
                    continue
                x = comp[cls[0] + offset]
                while tie[x] != x:
                    x = tie[x]
                for y in cls[1:]:
                    y = comp[y + offset]
                    while tie[y] != y:
                        y = tie[y]
                    if x != y:
                        tie[y] = x
        groups: dict[int, list[int]] = {}
        for v in range(k):
            r = v
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
