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

The work splits into a shape part and a decoration part, and each part
that repeats is memoized, keyed on a pattern that omits the element.  Every
memo is a ``_Memo`` registered by name: :func:`memo_sizes` gives the size of
each and :func:`clear_memos` empties them all.  ``shapes`` checks each label
tuple once and keeps the structural tags that ``_tag_errors``, the one
statement of what each tag requires, finds unbroken; ``plans`` runs the
union-find over the blocks of two factors once per pair of label tuples;
``ties`` checks each distinct tie partition once and keeps its links, the
pairs that tie each block to the least block of its class, which every tied
diagram carries, so a product reads its factors' links without a lookup.
``joins`` maps a product's tie pattern (its block count k, the free points
a drop-rook product unties, and the pairs of components that the links of
both factors join) to the product's tie partition; ``loops`` holds one loop
record per trapped count at d = 1 and one per tuple of trapped residues at
d > 1; ``encode`` fills one template per label tuple (``templates``) and
appends one text per tie partition (``tie_texts``); ``generators`` holds
one diagram per generator.  Only the beads are summed on every product.
``compose`` hands the constructor, in one positional call, beads already
reduced mod d and ties already canonical, so that the constructor's checks
are cheap: the beads are stripped against the residues of d (``residues``,
one bytes object per modulus) and the ties found in ``ties`` by one lookup.
Nothing is evicted: the memos grow with the distinct label tuples, pairs of
them, tie partitions, tie patterns and trapped residue tuples, not with the
elements; tie patterns are the largest: 1 041 for the 6 240 elements of
tsn(n=5), 90 383 for the 38 140 elements of trprimen(n=4).

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import index
from typing import Iterable, NamedTuple, Optional

PARTITION = "partition"
MATCHING = "matching"
PLANAR = "planar-matching"
PERMUTATION = "permutation"

_TAGS = frozenset((PARTITION, MATCHING, PLANAR, PERMUTATION))


class CapExceeded(RuntimeError):
    """Raised when an enumeration grows past its element cap."""


class NotPlanar(ValueError):
    """Raised when a planar matching was required but points are free or arcs cross."""


class LoopRecord:
    """Multiset of bead residues of the closed components removed by a product."""

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        acc: dict[int, int] = {}
        if counts:
            items = counts.items() if hasattr(counts, "items") else counts
            for residue, mult in items:
                try:
                    residue, mult = index(residue), index(mult)
                except TypeError:
                    raise ValueError("loop residues and multiplicities must be "
                                     "integers") from None
                if mult < 0:
                    raise ValueError("loop multiplicities must be non-negative")
                if mult:
                    acc[residue] = acc.get(residue, 0) + mult
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


_MEMOS: dict[str, "_Memo"] = {}


class _Memo(dict):
    """A process-wide memo, registered by name in ``_MEMOS``: reading a
    missing key stores and returns ``build(key)``, and a build that raises
    stores nothing, so an input that fails a check raises on every call."""

    __slots__ = ("build",)

    def __init__(self, name: str, build):
        super().__init__()
        self.build = build
        _MEMOS[name] = self

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def memo_sizes() -> dict[str, int]:
    """The size of every memo by name: its misses since the last clear."""
    return {name: len(memo) for name, memo in _MEMOS.items()}


def clear_memos() -> None:
    """Empty every memo."""
    for memo in _MEMOS.values():
        memo.clear()


def _tag_join(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    if PARTITION in (t1, t2):
        return PARTITION
    # permutation and planar-matching meet in the matchings
    return MATCHING


def _labels_of_blocks(n: int, blocks) -> tuple[tuple[int, ...], list[tuple], list[int]]:
    """Canonical labels of a partition given as blocks in any order.

    Returns the labels, the blocks as given (as int tuples), and ``order``:
    ``order[label]`` is the position of that block in the input.
    """
    try:
        raw = [tuple(map(index, blk)) for blk in blocks]
    except TypeError:
        raise ValueError("block points must be integers") from None
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


def _residues(values, d: int) -> list[int]:
    """The residues mod d of integer bead counts."""
    try:
        return [index(v) % d for v in values]
    except TypeError:
        raise ValueError("beads must be integers") from None


def _bead_map(beads, raw: list[tuple], order: list[int]) -> list:
    """The beads given as a mapping from point sets to counts, by label."""
    label = {frozenset(raw[idx]): new for new, idx in enumerate(order)}
    out = [0] * len(order)
    for key, v in beads.items():
        new = label.pop(frozenset(key), None)
        if new is None:
            raise ValueError(f"bead key {key!r} names no block, or one already named")
        out[new] = v
    return out


def _pool_beads(beads: list[int], links, d: int) -> None:
    """Move the beads of each tie class, summed mod d, onto its least block;
    ``links`` pairs each other block of a class with the least one."""
    for least, other in zip(links[::2], links[1::2]):
        if beads[other]:
            beads[least] = (beads[least] + beads[other]) % d
            beads[other] = 0


def _tag_errors(lab: tuple, n: int) -> dict[str, ValueError]:
    """What each structural tag requires of canonical labels: for each tag
    the labels break, the error that a diagram claiming it raises.  A
    matching has no block of more than two points; a permutation pairs each
    top point with one bottom point; a planar matching pairs all 2n points
    by arcs that do not cross; every set partition is a partition."""
    k = max(lab) + 1
    if max(map(lab.count, range(k))) > 2:
        return {tag: ValueError(f"{tag} diagrams admit only blocks of size <= 2")
                for tag in (MATCHING, PLANAR, PERMUTATION)}
    errors: dict[str, ValueError] = {}
    # each top point opens its own block and the bottom points meet those
    # blocks once each
    if lab[:n] != tuple(range(n)) or sorted(lab[n:]) != list(range(n)):
        errors[PERMUTATION] = ValueError("permutation diagrams pair one top with one bottom point")
    if k > n:
        errors[PLANAR] = NotPlanar("planar matchings have no free points")
        return errors
    # in the boundary order t1..tn, bn..b1 every point opens an arc or closes
    # the arc opened last; one that closes an earlier arc crosses the last
    stack: list[int] = []
    for x in lab[:n] + lab[:n - 1:-1]:
        if stack and stack[-1] == x:
            stack.pop()
        elif x in stack:
            a, b = [tuple(p for p, y in enumerate(lab, 1) if y == v)
                    for v in sorted((x, stack[-1]))]
            errors[PLANAR] = NotPlanar(f"arcs cross: {a} and {b}")
            break
        else:
            stack.append(x)
    return errors


def _shape(lab: tuple) -> tuple[tuple[int, ...], int, frozenset]:
    """Check canonical labels of 2n points: returns the labels, the block
    count k and the set of structural tags the labels satisfy."""
    first = list(dict.fromkeys(lab))
    k = len(first)
    if first != list(range(k)):
        raise ValueError("labels must number the blocks 0..k-1 "
                         "in the order of their least point")
    return lab, k, _TAGS.difference(_tag_errors(lab, len(lab) // 2))


# the checked label tuples: equal labels become one shared tuple
_SHAPES = _Memo("shapes", _shape)


def _tie_entry(canon: tuple) -> tuple[tuple, int, bytes]:
    """The ``_TIES`` entry of a checked canonical tie partition."""
    # members equal 0..k-1, so int() only makes them exact ints
    canon = tuple([tuple(map(int, cls)) for cls in canon])
    links = [x for cls in canon for b in cls[1:] for x in (cls[0], b)]
    k = sum(map(len, canon))
    return canon, k, bytes(links) if k <= 256 else tuple(links)


# the distinct valid tie partitions: _TIES[ties] is (ties, k, links), with
# ties the canonical partition of the block indices 0..k-1 (classes sorted by
# their least member, members ascending) and links each block that is not the
# least of its class after that least block, the pairs flattened into bytes
# (a tuple past 256 blocks)
_TIES = _Memo("ties", _tie_entry)


def _tie_partition(ties, k: int) -> tuple[tuple, int, bytes]:
    """Check a tie partition of k blocks and return its ``_TIES`` entry;
    the constructor looks ties up in ``_TIES`` itself and calls this only on
    a miss, so a canonical tuple already checked costs one lookup."""
    canon = tuple(sorted(map(tuple, map(sorted, ties))))
    members = sorted(chain.from_iterable(canon))
    if members != list(range(k)) or not all(canon):
        if len(members) == len(set(members)) and set(members) < set(range(k)):
            raise ValueError("ties must cover every block")
        raise ValueError("ties must partition the block indices")
    return _TIES[canon]


# the residues of each modulus d, as bytes
_RESIDUES = _Memo("residues", lambda d: bytes(range(min(d, 256))))


class BeadedDiagram:
    """A set partition of the 2n boundary points with beads and optional ties.

    ``lab`` is the canonical labelling: ``lab[p - 1]`` is the index of the
    block holding point p, blocks numbered in the order of their least point.
    ``blocks`` derives from it the tuple of blocks, each a sorted tuple of
    point numbers, blocks sorted by their minimum.  ``beads[i]`` is the
    residue in [0, d) of block i.  ``ties``, when present, is a partition of
    the block indices (classes sorted, class members sorted), and ``links``
    its links as ``_TIES`` keeps them (None when untied).  Equality and
    hashing look only at ``(n, d, lab, beads, ties)``: the ``family_tag`` is a
    structural claim used for validation, not identity.

    Two constructor forms: ``BeadedDiagram(n, d, blocks, beads, tag, ties)``
    takes blocks in any order, with ``beads`` parallel to them (or a mapping
    from point sets to residues) and ``ties`` over their positions;
    ``BeadedDiagram(n, d, None, beads, tag, ties, lab)``, or the same with
    ``lab=...`` and the others by keyword, takes canonical labels, with
    ``beads`` and ``ties`` indexed by label.  Both check the partition and
    the structural tag, through ``_SHAPES``, once per distinct label tuple,
    and the ties, through ``_TIES``, once per distinct partition; beads are
    checked on every call, in the labels form against the residues of d
    (``_RESIDUES``), and stored as exact ints.  The blocks form takes
    integers only: a point, bead or tie member of another type, or a bead
    key that names no block or a block twice, is refused.  Both forms take
    ``n`` and ``d`` as integers only and store them as exact ints.

    When ties are present and d > 1, beads are pooled per tie class (stored
    on the class's least block): a tie lets beads move freely between its
    blocks, so the pooled residue is the faithful datum.  The blocks form
    pools the beads it is given; the ``lab=`` form requires them pooled.
    """

    __slots__ = ("n", "d", "lab", "beads", "family_tag", "ties", "links", "_hash")

    def __init__(self, n, d, blocks=None, beads=None, family_tag=PARTITION, ties=None,
                 lab=None):
        try:
            n, d = index(n), index(d)
        except TypeError:
            raise ValueError("n and d must be integers") from None
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if family_tag not in _TAGS:
            raise ValueError(f"unknown family tag {family_tag!r}")
        if (blocks is None) == (lab is None):
            raise TypeError("give exactly one of blocks and lab")

        if lab is None:
            lab, raw, order = _labels_of_blocks(n, blocks)
            lab, k, tags = _SHAPES[lab]
            if beads is None:
                beads = [0] * k
            elif hasattr(beads, "items"):
                beads = _residues(_bead_map(beads, raw, order), d)
            else:
                given = list(beads)
                if len(given) != k:
                    raise ValueError("beads must match blocks")
                beads = _residues(map(given.__getitem__, order), d)
            if ties is not None:
                label = {old: new for new, old in enumerate(order)}
                try:
                    ties = [[label[index(b)] for b in cls] for cls in ties]
                except (KeyError, TypeError):
                    raise ValueError("ties must partition the block indices") from None
        else:
            lab = tuple(lab)
            if len(lab) != 2 * n:
                raise ValueError("labels must cover the 2n boundary points")
            lab, k, tags = _SHAPES[lab]
            if beads is None:
                beads = (0,) * k
            else:
                if type(beads) is not list:
                    beads = tuple(beads)
                try:
                    # bytes() takes only integers in 0..255, and only
                    # residues of d strip away to nothing; the bytes read
                    # back as exact ints
                    raw = bytes(beads)
                    reduced = not raw.lstrip(_RESIDUES[d])
                except (TypeError, ValueError):
                    reduced = False
                beads = raw if reduced else _residues(beads, d)
                if len(beads) != k:
                    raise ValueError("beads must match blocks")

        links = None
        if ties is not None:
            try:
                hit = _TIES.get(ties)
            except TypeError:  # classes given as lists
                hit = None
            if hit is None or hit[1] != k:
                hit = _tie_partition(ties, k)
            ties, _, links = hit
            if d > 1 and blocks is not None:
                _pool_beads(beads, links, d)
            elif d > 1 and any(map(beads.__getitem__, links[1::2])):
                raise ValueError("the beads of a tie class must sit on its least block")

        if family_tag not in tags:
            raise _tag_errors(lab, n)[family_tag]
        self.n = n
        self.d = d
        self.lab = lab
        self.beads = beads = tuple(beads)
        self.family_tag = family_tag
        self.ties = ties
        self.links = links
        # hash(None) is an address, so an untied diagram leaves ties out of
        # its hash to hash alike in every process
        self._hash = (hash((n, d, lab, beads)) if ties is None
                      else hash((n, d, lab, beads, ties)))

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
        text = _TEMPLATES[self.lab] % (self.n, self.d, *self.beads)
        if self.ties is not None:
            text += _TIE_TEXTS[self.ties]
        return text


def _template(lab: tuple) -> str:
    n = len(lab) // 2
    names: list[list[str]] = [[] for _ in range(max(lab) + 1)]
    # points t1..tn, then b1..bn
    for p, x in enumerate(lab, 1):
        names[x].append(f"t{p}" if p <= n else f"b{p - n}")
    parts = ",".join(["{%s}:%%d" % ",".join(pts) for pts in names])
    return f"n=%s;d=%s;blocks=[{parts}]"


def _tie_text(ties: tuple) -> str:
    tie_txt = ",".join("[%s]" % ",".join(map(str, cls)) for cls in ties)
    return f";ties=[{tie_txt}]"


# encode() texts: _TEMPLATES[lab] is the %-template of a label tuple, filled
# with n, d and the beads; _TIE_TEXTS[ties] is the suffix of a tie partition
_TEMPLATES = _Memo("templates", _template)
_TIE_TEXTS = _Memo("tie_texts", _tie_text)


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
    tag: Optional[str]            # its structural tag; None if all strands stay vertical
    unties: Optional[str] = None  # a tied kind: the kind whose two ends it ties


# every fact about a generator kind; "1" is the identity, which e_{i,j} ties
_KINDS = {
    "t": _Kind(1, PLANAR), "s": _Kind(1, PERMUTATION), "o": _Kind(0, None),
    "r": _Kind(0, MATCHING), "p": _Kind(0, MATCHING),
    "e": _Kind(1, None, "1"), "f": _Kind(1, PLANAR, "t"),
    "q": _Kind(0, MATCHING, "r"), "w": _Kind(0, MATCHING, "p"),
}

# a kind and its index i, then a second index j (e only) or an exponent k
_TOKEN_RE = re.compile(r"([%s])(\d+)(?:,(\d+))?(?:\^(-?\d+))?" % "".join(_KINDS))


def parse_word(text: str) -> tuple[GenSymbol, ...]:
    """Parse a whitespace-separated generator word such as ``"t1 o3^2 e1,3"``."""
    out = []
    for token in text.split():
        m = _TOKEN_RE.fullmatch(token)
        if not m or (m[3] and m[1] != "e") or (m[4] and m[1] == "e"):
            raise ValueError(f"cannot parse generator token {token!r}")
        kind, i, j, exp = m[1], int(m[2]), m[3], m[4]
        if exp and kind != "o":
            raise ValueError(f"only bead generators take exponents: {token!r}")
        out.append(GenSymbol("e", i, int(j) if j else i + 1) if kind == "e"
                   else GenSymbol(kind, i, 0, int(exp) if exp else 1))
    return tuple(out)


def render_symbol(sym: GenSymbol) -> str:
    if sym.kind == "e":
        return f"e{sym.i}" if sym.j == sym.i + 1 else f"e{sym.i},{sym.j}"
    if sym.kind == "o" and sym.exp != 1:
        return f"o{sym.i}^{sym.exp}"
    return f"{sym.kind}{sym.i}"


def render_word(word: Iterable[GenSymbol]) -> str:
    return " ".join(render_symbol(sym) for sym in word)


def symbol_valid(sym: GenSymbol, n: int) -> bool:
    kind = _KINDS.get(sym.kind)
    return (kind is not None and 1 <= sym.i <= n - kind.reach
            and (sym.kind != "e" or sym.i < sym.j <= n))


def kind_symbols(kind: str, n: int) -> list[GenSymbol]:
    """The generators of one kind on n strands, ascending; kind ``"e"`` is
    the adjacent ties e_{i,i+1} and ``"e*"`` every tie e_{i,j}."""
    syms = [GenSymbol(kind[0], i, j) for i in range(1, n + 1)
            for j in (range(1, n + 1) if kind == "e*" else [i + 1 if kind == "e" else 0])]
    return [sym for sym in syms if symbol_valid(sym, n)]


def generator(sym: GenSymbol, n: int, d: int,
              tied: Optional[bool] = None, tag: Optional[str] = None) -> BeadedDiagram:
    """The diagram of a single generator on n strands with framing modulus d.

    A tied kind is its untied kind with the blocks at its two ends tied: t_i
    and t_j for e_{i,j}, t_i and b_i for the others.  ``tied`` defaults to
    whether the kind is a tied one and ``tag`` to the kind's tag.  Memoized
    once the defaults are filled in: diagrams are immutable, so every caller
    of one generator shares one instance, whichever arguments it spells out.
    """
    if tied is None or tag is None:
        kind = _KINDS.get(sym.kind)
        if kind is not None:
            if tied is None:
                tied = kind.unties is not None
            if tag is None:
                tag = kind.tag or PERMUTATION
    return _GENERATORS[sym, n, d, tied, tag]


def _generator(sym: GenSymbol, n: int, d: int, tied: bool, tag: str) -> BeadedDiagram:
    if not symbol_valid(sym, n):
        raise ValueError(f"generator {render_symbol(sym)} out of range for n={n}")
    kind = _KINDS[sym.kind]
    if not tied and kind.unties is not None:
        raise ValueError(f"generator {render_symbol(sym)} requires ties")

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


# the generators by (sym, n, d, tied, tag), defaults filled in
_GENERATORS = _Memo("generators", lambda key: _generator(*key))


# -- composition -------------------------------------------------------------

def _skeleton(alab: tuple, blab: tuple) -> tuple:
    """The shape part of ``compose`` for factors labelled ``alab`` and ``blab``.

    One union-find over the blocks of the two factors, a's blocks 0..ka-1
    and then b's.  Returns ``(lab, comp, k, trapped, free)``: the result's
    labels (through ``_SHAPES``), ``comp`` mapping each block of a and then of
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
    lab = _SHAPES[tuple(lab)][0]
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


# shape products: _PLANS[a.lab, b.lab] is _skeleton(a.lab, b.lab)
_PLANS = _Memo("plans", lambda pair: _skeleton(*pair))

# loop records of products: _LOOPS[trapped] at d = 1, _LOOPS[residues] (one
# per trapped loop, in component order) at d > 1
_LOOPS = _Memo("loops", lambda key: LoopRecord(
    {0: key} if type(key) is int else [(v, 1) for v in key]))


def _tie_join(pattern) -> tuple[tuple, int, bytes]:
    """The tie classes of a product, from its pattern."""
    k, nfree = pattern[0], pattern[1]
    free = pattern[2:2 + nfree]
    links = pattern[2 + nfree:]
    # tie classes join components, trapped ones included
    tie = list(range(max([k, *links]) + 1))
    for x, y in zip(links[::2], links[1::2]):
        while tie[x] != x:
            x = tie[x]
        while tie[y] != y:
            y = tie[y]
        if x != y:
            tie[y] = x
    # classes in the order of their least block, members ascending: the
    # canonical form; a free point leaves its class for one of its own
    groups: dict[int, list[int]] = {}
    for v in range(k):
        r = v
        while tie[r] != r:
            r = tie[r]
        groups.setdefault(-1 - v if v in free else r, []).append(v)
    return _tie_partition(tuple(map(tuple, groups.values())), k)


# tie joins of products: _JOINS[pattern] is the _TIES entry of the product's
# tie partition.  A pattern holds k, the number of free points that leave
# their class, those points, then the pairs of components that the links of
# both factors join, in bytes (a tuple past 256 components)
_JOINS = _Memo("joins", _tie_join)


def compose(a: BeadedDiagram, b: BeadedDiagram,
            drop_rook: bool = False) -> tuple[BeadedDiagram, LoopRecord]:
    """Concatenation product: ``a`` stacked above ``b``.

    Returns the resulting diagram together with the record of removed middle
    components.  With ``drop_rook=True``, free points shed their beads and
    leave every tie class (the composition rule of the rook-style families
    whose broken arcs cannot hold beads).

    The shapes of the product come from ``_skeleton``, memoized per pair of
    label tuples; its loop record comes from ``_LOOPS`` and its ties from
    ``_JOINS``, memoized per tie pattern, read through the factors' own
    ``links``.  Only the beads are summed on every call, and the result is
    built by one positional call of the one constructor.
    """
    if a.n != b.n or a.d != b.d:
        raise ValueError("factors must share strand count and framing modulus")
    if (a.ties is None) != (b.ties is None):
        raise ValueError("cannot mix tied and untied diagrams")

    n, d = a.n, a.d
    lab, comp, k, trapped, free = _PLANS[a.lab, b.lab]

    beads = None
    loops = _NO_LOOPS
    if d > 1:
        # one slot per component, kept reduced mod d
        acc = [0] * (k + trapped)
        for x, bead in zip(comp, a.beads + b.beads):
            if bead:
                acc[x] = (acc[x] + bead) % d
        beads = acc[:k]
        if trapped:
            residues = tuple(acc[k:])
            loops = _LOOPS[residues]
    elif trapped:
        loops = _LOOPS[trapped]

    if not drop_rook:
        free = ()
    elif beads is not None:
        for v in free:
            beads[v] = 0

    ties = None
    if a.ties is not None:
        # the components that the links of each factor join: the b half is
        # read through comp past a's blocks
        ka, la, lb = len(a.beads), a.links, b.links
        if type(comp) is bytes:
            pattern = (bytes((k, len(free), *free)) + la.translate(comp.ljust(256, b"\0"))
                       + lb.translate(comp[ka:].ljust(256, b"\0")))
        else:
            pattern = (k, len(free), *free, *map(comp.__getitem__, la),
                       *map(comp[ka:].__getitem__, lb))
        ties, _, links = _JOINS[pattern]
        if beads is not None:
            _pool_beads(beads, links, d)

    tag = a.family_tag
    if tag is not b.family_tag:
        tag = _tag_join(tag, b.family_tag)
    return BeadedDiagram(n, d, None, beads, tag, ties, lab), loops
