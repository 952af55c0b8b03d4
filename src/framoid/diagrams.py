"""Beaded, optionally tied, partition diagrams with exact composition.

A diagram on ``n`` strands is a set partition of the ``2n`` boundary points;
point ``i`` (1-based, ``i <= n``) is the i-th point on the top edge and point
``n + i`` is the i-th point on the bottom edge.  Every block carries a bead
count modulo ``d`` (the framing); beads slide freely along their block, so a
single residue per block is a faithful encoding.  A diagram may additionally
carry a tie partition, i.e. a coarsening of its set of blocks.

A diagram is stored as canonical block labels: ``lab[p - 1]`` is the index
of the block holding point p, blocks numbered in the order of their least
point, and beads and tie classes are indexed by those labels.  It holds the
``shapes`` record of its labels and the ``ties`` record of its tie partition;
``lab`` and ``ties`` are views of them.  The constructor takes the records as
they are and checks any other labels and ties; blocks in any order are first
turned into records.

Products stack the left factor above the right one: in ``compose(a, b)`` the
bottom points of ``a`` are glued to the top points of ``b``.  Components of
the glued picture that still touch the outer boundary become blocks of the
result, with beads added mod d; components trapped in the middle layer are
removed and reported in a :class:`LoopRecord`, one count per bead residue.

The work splits into a shape part and a decoration part, and each part that
repeats is memoized, keyed on a pattern that omits the element.  Every memo is
a ``_Memo`` registered by name: :func:`memo_sizes` gives the size of each and
:func:`clear_memos` empties them all.  ``shapes`` checks each label tuple
once, in one scan that also collects its blocks, and keeps a record
(``_Shape``) of them, its zero beads, the labels of its singleton blocks, the
structural tags, each a set of properties (``_TAG_PROPERTIES``), that its
properties admit, ``hash(lab)`` and the bytes that head its drop-rook tie
pattern; ``ties`` checks each distinct tie partition once and keeps a record
(``_Tie``) of it, its links, the pairs that tie each block to the least block
of its class, and ``hash(ties)``.  Records are hashed and compared by
identity, so ``plans``, keyed by the factors' two shape records, runs the
union-find over their blocks once per pair and hashes no label tuple;
``gathers`` holds the few distinct bead maps of plans, an ``itemgetter`` of
each component's root block and the other blocks, so a product sums its beads
by one gather.  ``joins`` maps a product's tie pattern (the result record's
head, or ``(k, 0)`` from one table, then the factors' links read through the
plan) to its tie partition, canonical as the union-find of ``plans``
(``_roots``) yields it, so left unchecked; ``loops`` holds one loop record per
trapped count at d = 1 and one per tuple of trapped residues at d > 1;
``encode`` fills one template per shape record (``templates``) and appends one
text per tie record (``tie_texts``); ``generators`` holds one diagram per
generator, built as canonical labels from its kind's wiring.  Nothing is
evicted: the memos grow with the distinct patterns they key on, not with the
elements; tie patterns are the largest, 90 383 for the 38 140 elements of
trprimen(n=4).  A diagram that outlives :func:`clear_memos` keeps its records:
it equals, hashes and encodes as before, and its products and encodings key
new plans, templates and tie texts on them.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from collections.abc import Set
from itertools import chain, compress, product
from operator import attrgetter, index, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

PARTITION = "partition"
MATCHING = "matching"
PLANAR = "planar-matching"
PERMUTATION = "permutation"


class CapExceeded(RuntimeError):
    """Raised when an enumeration grows past its element cap."""


class NotPlanar(ValueError):
    """Raised when a planar matching was required but points are free or arcs cross."""


# atomic properties of label tuples, in refusal order: small (no block of more
# than two points), transversal (each block one top and one bottom point),
# perfect (no free point), noncrossing (no two blocks cross in the order t1..tn,
# bn..b1); a claimed tag raises the error of the first it needs and labels lack
_PROPERTIES = {
    "small": lambda tag, lab, blocks: ValueError(f"{tag} diagrams admit only blocks of size <= 2"),
    "transversal": lambda tag, lab, blocks: ValueError(
        f"{tag} diagrams pair one top with one bottom point"),
    "perfect": lambda tag, lab, blocks: NotPlanar("planar matchings have no free points"),
    "noncrossing": lambda tag, lab, blocks: NotPlanar(
        "arcs cross: %s and %s" % tuple(map(blocks.__getitem__, _crossing(lab, blocks)))),
}

# each structural tag is the set of properties of the label tuples it admits
_TAG_PROPERTIES = {PARTITION: frozenset(), MATCHING: frozenset({"small"}),
                   PLANAR: frozenset({"small", "perfect", "noncrossing"}),
                   PERMUTATION: frozenset({"small", "transversal", "perfect"})}
_TAGS = frozenset(_TAG_PROPERTIES)

# the tags admitting each tuple of property flags, shared by its shapes
_ADMITTED = {flags: frozenset([tag for tag, need in _TAG_PROPERTIES.items()
                               if need <= set(compress(_PROPERTIES, flags))])
             for flags in product((False, True), repeat=len(_PROPERTIES))}


def _value_record(key):
    """Class decorator, the value records' one identity rule: equal to a record of its own
    class with an equal ``key(record)`` only, never to a plain tuple; ``!=`` agrees; hashed by
    the key.  Kept out: ``BeadedDiagram`` compares hashes first, on the product path;
    ``LaurentPoly`` equals ints and ``Fraction``s; ``AlgebraElement`` and ``SuiteReport`` hold
    a dict or a list, unhashable; ``_Shape`` and ``_Tie``, memo keys, compare by identity."""
    def decorate(cls):
        cls.__eq__ = lambda a, b: b is a or (b.__class__ is a.__class__ and key(a) == key(b))
        cls.__ne__, cls.__hash__ = object.__ne__, lambda a: hash(key(a))
        return cls
    return decorate


@_value_record(attrgetter("counts"))
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
    """The declared tag with the most properties among those both tags have."""
    both = _TAG_PROPERTIES[t1] & _TAG_PROPERTIES[t2]
    return max((len(need), tag) for tag, need in _TAG_PROPERTIES.items() if need <= both)[1]


def _residues(values, d: int) -> list[int]:
    """The residues mod d of integer bead counts."""
    try:
        return [index(v) % d for v in values]
    except TypeError:
        raise ValueError("beads must be integers") from None


def _pool_beads(beads: list[int], links, d: int) -> None:
    """Move the beads of each tie class, summed mod d, onto its least block;
    ``links`` pairs each other block of a class with the least one."""
    pairs = iter(links)  # one iterator zipped with itself reads them in pairs
    for least, other in zip(pairs, pairs):
        if beads[other]:
            beads[least] = (beads[least] + beads[other]) % d
            beads[other] = 0


def _crossing(lab: tuple, blocks: tuple) -> Optional[list]:
    """The labels, ascending, of the first two blocks found to cross in the
    boundary order t1..tn, bn..b1, or None: each point extends the block on
    top of the stack, which closes at its last point, or opens its own block;
    a point of an open block below the top crosses the top one."""
    n = len(lab) // 2
    left = list(map(len, blocks))
    stack: list[int] = []
    for x in lab[:n] + lab[:n - 1:-1]:
        if not stack or stack[-1] != x:
            if x in stack:
                return sorted((x, stack[-1]))
            stack.append(x)
        left[x] -= 1
        if not left[x]:
            stack.pop()
    return None


def _properties(lab: tuple, blocks: tuple, free: tuple) -> tuple[bool, ...]:
    """The flags of canonical labels' properties, in ``_PROPERTIES`` order."""
    # n blocks, one per top point (the last has label n - 1), none free: one bottom each
    n = len(lab) // 2
    return (max(map(len, blocks)) <= 2, not free and len(blocks) == n and lab[n - 1] == n - 1,
            not free, _crossing(lab, blocks) is None)


# the bytes (k, 0) that head the tie pattern of a product of k blocks
_HEADS = [bytes((k, 0)) for k in range(256)]


class _Shape:
    """A ``shapes`` entry, hashed and compared by identity: the labels, block
    count k, structural tags they satisfy, blocks (the ascending points of
    each label), k zero beads, singleton labels, ``hash(lab)`` and the bytes
    ``(k, len(free), *free)`` that head its drop-rook tie patterns (None past 255)."""

    __slots__ = ("lab", "k", "tags", "blocks", "zeros", "free", "hash", "head")

    def __init__(self, lab, k, tags, blocks, zeros, free):
        self.lab, self.k, self.tags, self.blocks, self.zeros, self.free, self.hash = (
            lab, k, tags, blocks, zeros, free, hash(lab))
        self.head = None if k > 255 else bytes((k, len(free), *free)) if free else _HEADS[k]


def _shape(lab: tuple) -> _Shape:
    """Check canonical labels of 2n points and return their record."""
    # one scan: each point opens the next block or joins one already open
    blocks: list[list[int]] = []
    for p, x in enumerate(lab, 1):
        if x == len(blocks):
            blocks.append([p])
        elif 0 <= x < len(blocks):
            blocks[x].append(p)
        else:
            raise ValueError("labels must number the blocks 0..k-1 "
                             "in the order of their least point")
    blocks = tuple(map(tuple, blocks))
    k = len(blocks)
    free = tuple([v for v, blk in enumerate(blocks) if len(blk) == 1])
    return _Shape(lab, k, _ADMITTED[_properties(lab, blocks, free)], blocks, (0,) * k, free)


# the checked label tuples: equal labels share one record, and its tuples
_SHAPES = _Memo("shapes", _shape)


class _Tie:
    """A ``ties`` entry, hashed and compared by identity: the canonical
    partition of blocks 0..k-1 (classes by least member, members ascending),
    k, its links (each block but the least of its class after the least, the
    pairs flattened into bytes, a tuple past 256 blocks) and ``hash(canon)``."""

    __slots__ = ("canon", "k", "links", "hash")

    def __init__(self, canon: tuple):
        links = [x for cls in canon for b in cls[1:] for x in (cls[0], b)]
        self.canon, self.k, self.hash = canon, sum(map(len, canon)), hash(canon)
        self.links = bytes(links) if self.k <= 256 else tuple(links)


# the distinct valid tie partitions, each a checked canonical tuple of ints
_TIES = _Memo("ties", _Tie)


def _tie_partition(ties, k: int) -> _Tie:
    """Check a tie partition of k blocks and return its ``_TIES`` entry; ties
    that are not classes of integer members are refused as well."""
    try:
        # members read as in the blocks form: exact ints, bools as 0 and 1
        canon = tuple(sorted([tuple(sorted(map(index, cls))) for cls in ties]))
        members = sorted(chain.from_iterable(canon))
        if members != list(range(k)) or not all(canon):
            if len(members) == len(set(members)) and set(members) < set(range(k)):
                raise ValueError("ties must cover every block")
            raise ValueError("ties must partition the block indices")
    except TypeError:
        raise ValueError("ties must partition the block indices") from None
    return _TIES[canon]


def _from_blocks(n: int, d: int, blocks, beads, ties) -> tuple:
    """The blocks form's preamble: from blocks in any order, with ``beads``
    parallel to them or a mapping from point sets to counts and ``ties`` over
    their positions, the shape record, the beads by label, reduced and pooled
    (None if none are given), and the tie record (None if untied)."""
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
    # label[position] is the label of the block given there, keys in label order
    label: dict[int, int] = {}
    shape = _SHAPES[tuple([label.setdefault(idx, len(label)) for idx in owner])]
    if hasattr(beads, "items"):
        by_points = {frozenset(raw[idx]): new for idx, new in label.items()}
        given = [0] * shape.k
        for key, v in beads.items():
            new = by_points.pop(frozenset(key), None)
            if new is None:
                raise ValueError(f"bead key {key!r} names no block, or one already named")
            given[new] = v
        beads = _residues(given, d)
    elif beads is not None:
        if isinstance(beads, Set):
            raise ValueError("beads must be given in block order or by point set")
        given = list(beads)
        if len(given) != shape.k:
            raise ValueError("beads must match blocks")
        beads = _residues(map(given.__getitem__, label), d)
    tie = None
    if ties is not None:
        try:
            ties = [[label[index(b)] for b in cls] for cls in ties]
        except (KeyError, TypeError):
            raise ValueError("ties must partition the block indices") from None
        tie = _tie_partition(ties, shape.k)
        if d > 1 and beads is not None:
            _pool_beads(beads, tie.links, d)
    return shape, beads, tie


# the residues 0..255; _BYTES[:d] are those of d
_BYTES = bytes(range(256))


class BeadedDiagram:
    """A set partition of the 2n boundary points with beads and optional ties.

    ``shape`` is the ``_SHAPES`` record of the canonical labelling ``lab``:
    ``lab[p - 1]`` is the index of the block holding point p, blocks numbered
    in the order of their least point, and ``blocks`` are the sorted tuples of
    points of the blocks in that order.  ``beads[i]`` is the residue in [0, d)
    of block i.  ``tie`` is the ``_TIES`` record of a partition of the block
    indices, and ``ties`` its tuple (classes and members sorted), both None
    when untied.  Equality and hashing look only at ``(n, d, lab, beads,
    ties)``: the ``family_tag`` is a structural claim, not identity.

    Two constructor forms: ``BeadedDiagram(n, d, None, beads, tag, ties, lab)``,
    or the same with ``lab=...`` and the others by keyword, takes labels or
    their record and ``beads`` and ``ties`` (or its record) by label;
    ``BeadedDiagram(n, d, blocks, beads, tag, ties)`` takes blocks in any
    order, ``beads`` parallel to them (or a mapping from point sets to
    residues) and ``ties`` over their positions, and turns them into records.
    A record of the right size is taken as it is; other labels are read as
    integers and checked, and other ties checked.  Beads are checked on every
    call and stored as exact ints; beadless diagrams share their shape's
    zeros.  Beads in a set, or in a mapping in the labels form, and ``n``,
    ``d``, points, beads and tie members that are not integers are refused.

    When ties are present and d > 1, beads are pooled per tie class (stored
    on the class's least block): a tie lets beads move freely between its
    blocks, so the pooled residue is the faithful datum.  The blocks form
    pools the beads it is given; the ``lab=`` form requires them pooled.
    """

    __slots__ = ("n", "d", "shape", "beads", "family_tag", "tie", "_hash")

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
        if blocks is not None:
            lab, beads, ties = _from_blocks(n, d, blocks, beads, ties)

        if type(lab) is not _Shape or len(lab.lab) != 2 * n:
            # labels, or another n's record: read as ints whatever the memo holds
            lab = tuple(getattr(lab, "lab", lab))
            if len(lab) != 2 * n:
                raise ValueError("labels must cover the 2n boundary points")
            try:
                lab = _SHAPES[tuple(map(index, lab))]
            except TypeError:
                raise ValueError("labels must be integers") from None
        shape, k = lab, lab.k
        if beads is None:
            beads = shape.zeros
        else:
            if type(beads) is not list:
                if hasattr(beads, "items") or isinstance(beads, Set):
                    raise ValueError("beads must be given in label order, not as a set or mapping")
                beads = tuple(beads)
            try:
                # bytes() takes only integers in 0..255, and only residues of
                # d strip away to nothing; the bytes read back as exact ints
                raw = bytes(beads)
                reduced = not raw.lstrip(_BYTES[:d])
            except (TypeError, ValueError):
                reduced = False
            beads = raw if reduced else _residues(beads, d)
            if len(beads) != k:
                raise ValueError("beads must match blocks")

        if ties is not None:
            if type(ties) is not _Tie or ties.k != k:
                ties = _tie_partition(getattr(ties, "canon", ties), k)
            if d > 1:
                # a loop costs less than any(map(...)) over a few links
                for other in ties.links[1::2]:
                    if beads[other]:
                        raise ValueError("the beads of a tie class must sit on its least block")

        if family_tag not in shape.tags:
            # a loop, not a generator, so that no name of __init__ becomes a cell
            flags = _properties(shape.lab, shape.blocks, shape.free)
            for (prop, error), has in zip(_PROPERTIES.items(), flags):
                if not has and prop in _TAG_PROPERTIES[family_tag]:
                    raise error(family_tag, shape.lab, shape.blocks)
        self.n = n
        self.d = d
        self.shape = shape
        self.beads = beads = tuple(beads)
        self.family_tag = family_tag
        self.tie = ties
        # the records' hashes are of their contents; hash(None) is an address,
        # so an untied diagram leaves ties out to hash alike in every process
        self._hash = hash((n, d, shape.hash, beads) if ties is None
                          else (n, d, shape.hash, beads, ties.hash))

    # -- identity & hashing ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, BeadedDiagram) and self._hash == other._hash
                and (self.shape is other.shape or self.shape.lab == other.shape.lab)
                and self.d == other.d and self.beads == other.beads
                and (self.tie is other.tie or self.ties == other.ties))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BeadedDiagram({self.encode()!r})"

    # -- views ---------------------------------------------------------------

    @property
    def lab(self) -> tuple[int, ...]:
        """The canonical labels, read off the diagram's ``shapes`` record."""
        return self.shape.lab

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each a sorted tuple of points, sorted by their minimum."""
        return self.shape.blocks

    @property
    def ties(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """The canonical tie partition, read off the ``ties`` record; None if untied."""
        return None if self.tie is None else self.tie.canon

    @property
    def tied(self) -> bool:
        return self.tie is not None

    def encode(self) -> str:
        """Canonical textual encoding, stable across runs."""
        text = _TEMPLATES[self.shape] % (self.n, self.d, *self.beads)
        if self.tie is not None:
            text += _TIE_TEXTS[self.tie]
        return text


def _template(shape: _Shape) -> str:
    n = len(shape.lab) // 2
    # points t1..tn, then b1..bn
    parts = ",".join(["{%s}:%%d" % ",".join([f"t{p}" if p <= n else f"b{p - n}" for p in blk])
                      for blk in shape.blocks])
    return f"n=%s;d=%s;blocks=[{parts}]"


def _tie_text(tie: _Tie) -> str:
    tie_txt = ",".join("[%s]" % ",".join(map(str, cls)) for cls in tie.canon)
    return f";ties=[{tie_txt}]"


# encode() texts, keyed by record: _TEMPLATES[shape] is the %-template of a
# label tuple, filled with n, d and the beads; _TIE_TEXTS[tie] is the suffix
# of a tie partition
_TEMPLATES = _Memo("templates", _template)
_TIE_TEXTS = _Memo("tie_texts", _tie_text)


def erase_beads(x: BeadedDiagram) -> BeadedDiagram:
    """Set every bead to zero (diagram shadow of killing the framings)."""
    return BeadedDiagram(x.n, x.d, family_tag=x.family_tag, ties=x.tie, lab=x.shape)


def erase_ties(x: BeadedDiagram) -> BeadedDiagram:
    """Forget the tie partition."""
    return BeadedDiagram(x.n, x.d, beads=x.beads, family_tag=x.family_tag, lab=x.shape)


def identity(n: int, d: int, tied: bool = False, tag: str = PERMUTATION) -> BeadedDiagram:
    """The diagram of n vertical strands, no beads, all-singleton ties if tied."""
    # passed as the _SHAPES and _TIES records, once they hold them
    lab = tuple(range(n)) * 2
    ties = tuple((i,) for i in range(n)) if tied else None
    return BeadedDiagram(n, d, family_tag=tag, ties=_TIES.get(ties, ties),
                         lab=_SHAPES.get(lab, lab))


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
    unties: Optional[str] = None  # a tied kind: the kind whose two ends it ties, wired alike
    # {point: name} for the points that leave their strand's block on n strands:
    # points m and n + m start on name m, and a negative name opens a new block
    wires: Callable[[int, int], dict] = lambda i, n: {}


# every fact about a generator kind; "1" is the identity, which e_{i,j} ties
_KINDS = {
    "t": _Kind(1, PLANAR, wires=lambda i, n: {i + 1: i, n + i: -i, n + i + 1: -i}),
    "s": _Kind(1, PERMUTATION, wires=lambda i, n: {n + i: i + 1, n + i + 1: i}),
    "o": _Kind(0, None), "r": _Kind(0, MATCHING, wires=lambda i, n: {n + i: -i}),
    "p": _Kind(0, MATCHING, wires=lambda i, n: {n + m: -m for m in range(1, i + 1)}),
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

    ``tied`` defaults to whether the kind is a tied one and ``tag`` to the kind's tag.
    Memoized once the defaults are filled in: diagrams are immutable, so every caller of one
    generator shares one instance, whichever arguments it spells out, and ``o_i^k`` is the
    instance of the exponent in 1..d congruent to k.
    """
    kind = _KINDS.get(sym.kind)
    if kind is None:
        raise ValueError(f"unknown generator kind {sym.kind!r}")
    if tied is None:
        tied = kind.unties is not None
    if tag is None:
        tag = kind.tag or PERMUTATION
    try:
        key = sym, index(n), index(d), tied, tag
    except TypeError:
        raise ValueError("n and d must be integers") from None
    try:  # a float index equals an int one, so read all before the lookup
        index(sym.i), index(sym.j), index(sym.exp)
    except TypeError:
        raise ValueError("generator indices and exponents must be integers") from None
    return _GENERATORS[key]


def _generator(sym: GenSymbol, n: int, d: int, tied: bool, tag: str) -> BeadedDiagram:
    """A generator built as canonical labels, names numbered in order of first
    appearance, from its kind's wiring (a tied kind's is that of the kind it
    ties), with the exponent of o_i on t_i's block and, for a tied kind, t_i's
    block tied to the later one of t_j (e_{i,j}) or of b_i."""
    if not symbol_valid(sym, n):
        raise ValueError(f"generator {render_symbol(sym)} out of range for n={n}")
    kind = _KINDS[sym.kind]
    if not tied and kind.unties is not None:
        raise ValueError(f"generator {render_symbol(sym)} requires ties")
    # a field the kind ignores would key a second instance of one generator
    if (sym.j and sym.kind != "e") or (sym.exp != 1 and sym.kind != "o"):
        raise ValueError(f"generator {sym!r} sets a field its kind ignores")
    if sym.kind == "o" and 0 < d and not 0 < sym.exp <= d:  # one instance per residue of k
        return _GENERATORS[sym._replace(exp=(sym.exp - 1) % d + 1), n, d, tied, tag]

    wired = _KINDS.get(kind.unties, kind).wires(sym.i, n)
    names = [wired.get(p, p - n if p > n else p) for p in range(1, 2 * n + 1)]
    number: dict[int, int] = {}
    shape = _SHAPES[tuple([number.setdefault(x, len(number)) for x in names])]
    lab, k = shape.lab, shape.k

    beads = None
    if sym.kind == "o":
        beads = list(shape.zeros)
        beads[lab[sym.i - 1]] = sym.exp
    ties = None
    if tied:
        ties = [(v,) for v in range(k)]
        if kind.unties is not None:
            ties[lab[sym.i - 1]] += ties.pop(lab[(sym.j if sym.kind == "e" else n + sym.i) - 1])
        ties = tuple(ties)
    return BeadedDiagram(n, d, None, beads, tag, ties, shape)


# the generators by (sym, n, d, tied, tag), defaults filled in
_GENERATORS = _Memo("generators", lambda key: _generator(*key))


# -- composition -------------------------------------------------------------

def _roots(size: int, xs, ys, shift: int) -> list[int]:
    """The root of each of 0..size-1 once each x of ``xs`` is joined with
    ``shift`` plus its y of ``ys``: a union-find with path halving that hangs
    the root of y under that of x, then points each longer chain at its root."""
    parent = list(range(size))
    for x, y in zip(xs, ys):
        y += shift
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[y] = x
    for x, r in enumerate(parent):
        while parent[r] != r:
            parent[x] = r = parent[r]
    return parent


def _skeleton(a: _Shape, b: _Shape) -> tuple:
    """The shape part of ``compose`` for factors of the shapes ``a`` and ``b``.

    One union-find over the blocks of the two factors, a's blocks 0..ka-1
    and then b's.  Returns ``(shape, comp, trapped, gather, rest)``: the
    result's record, ``comp`` mapping each block of a and then of b to the
    result label of its component or to k + j for the j-th trapped loop,
    the number of trapped loops, and the ``_GATHERS`` entry of the roots.
    """
    alab, blab, ka = a.lab, b.lab, a.k
    n = len(alab) // 2
    size = ka + b.k
    # each middle strand joins the block of a's bottom point with that of
    # b's top point
    root = _roots(size, alab[n:], blab[:n], ka)

    # blocks numbered by their least outer point, then the loops (components
    # that reach no outer point) by their roots; the other blocks are non-roots
    number = [-1] * size
    lab = [*map(root.__getitem__, alab[:n]), *map(root[ka:].__getitem__, blab[n:])]
    roots, rest = [], []
    for x in lab:
        if number[x] < 0:
            number[x] = len(roots)
            roots.append(x)
    for x in range(size):
        if root[x] != x:
            rest.append(x)
        elif number[x] < 0:
            number[x] = len(roots)
            roots.append(x)
    shape = _SHAPES[tuple(map(number.__getitem__, lab))]
    comp = (bytes if size <= 256 else tuple)(map(number.__getitem__, root))
    return shape, comp, len(roots) - shape.k, *_GATHERS[tuple(roots), tuple(rest)]


# shape products, keyed by identity: _PLANS[a.shape, b.shape] is _skeleton(a.shape, b.shape)
_PLANS = _Memo("plans", lambda pair: _skeleton(*pair))

# bead maps of plans: _GATHERS[roots, rest] is an itemgetter of the root
# blocks' beads in component order (a slice for one root, since an itemgetter
# of one index returns the item itself), and the non-root blocks
_GATHERS = _Memo("gathers", lambda key: (
    itemgetter(*key[0]) if len(key[0]) > 1 else itemgetter(slice(key[0][0], key[0][0] + 1)),
    key[1]))

# loop records of products: _LOOPS[trapped] at d = 1, _LOOPS[residues] (one
# per trapped loop, in component order) at d > 1
_LOOPS = _Memo("loops", lambda key: LoopRecord(
    {0: key} if type(key) is int else [(v, 1) for v in key]))


def _tie_join(pattern) -> _Tie:
    """The ``_TIES`` entry of a product's tie classes, from its pattern."""
    k, nfree = pattern[0], pattern[1]
    free, links = pattern[2:2 + nfree], pattern[2 + nfree:]
    # tie classes join components, trapped ones included
    root = _roots(max([k, *links]) + 1, links[::2], links[1::2], 0)
    # classes by least block, members ascending, each block once: canonical,
    # so unchecked; a free point leaves its class for one of its own
    groups: dict[int, list[int]] = {}
    for v in range(k):
        groups.setdefault(-1 - v if v in free else root[v], []).append(v)
    return _TIES[tuple(map(tuple, groups.values()))]


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
    shape records; its loop record comes from ``_LOOPS`` and its ties from
    ``_JOINS``, memoized per tie pattern, read through the links of the
    factors' own tie records.  Only the beads are summed on every call, by the plan's bead
    map, and the result is built by one positional call of the constructor.
    """
    if a.n != b.n or a.d != b.d:
        raise ValueError("factors must share strand count and framing modulus")
    if (a.tie is None) != (b.tie is None):
        raise ValueError("cannot mix tied and untied diagrams")

    n, d = a.n, a.d
    shape, comp, trapped, gather, rest = _PLANS[a.shape, b.shape]
    k = shape.k

    beads = None
    loops = _NO_LOOPS
    if d > 1:
        # each component's sum mod d: its root's bead, then the other blocks'
        both = a.beads + b.beads
        beads = [*gather(both)]
        for x in rest:
            bead = both[x]
            if bead:
                v = comp[x]
                beads[v] = (beads[v] + bead) % d
        if trapped:
            loops = _LOOPS[tuple(beads[k:])]
            del beads[k:]
    elif trapped:
        loops = _LOOPS[trapped]

    free = shape.free if drop_rook else ()
    if beads is not None:
        for v in free:
            beads[v] = 0

    tie = None
    if a.tie is not None:
        # the components that the links of each factor join: the b half is
        # read through comp past a's blocks
        ka, la, lb = len(a.beads), a.tie.links, b.tie.links
        if type(comp) is bytes:
            head = shape.head if drop_rook else _HEADS[k]
            pattern = (head + la.translate(comp.ljust(256, b"\0"))
                       + lb.translate(comp[ka:].ljust(256, b"\0")))
        else:
            pattern = (k, len(free), *free, *map(comp.__getitem__, la),
                       *map(comp[ka:].__getitem__, lb))
        tie = _JOINS[pattern]
        if beads is not None:
            _pool_beads(beads, tie.links, d)

    tag = a.family_tag
    if tag is not b.family_tag:
        tag = _tag_join(tag, b.family_tag)
    return BeadedDiagram(n, d, None, beads, tag, tie, shape), loops
