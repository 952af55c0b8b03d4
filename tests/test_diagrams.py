"""Core diagram model: construction, composition, loops, beads, ties."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from framoid.diagrams import (
    MATCHING,
    PARTITION,
    PERMUTATION,
    PLANAR,
    BeadedDiagram,
    GenSymbol,
    LoopRecord,
    NotPlanar,
    compose,
    erase_beads,
    erase_ties,
    generator,
    identity,
    memo_sizes,
    parse_word,
    _PLANS,
    _shape,
    _tag_join,
    render_symbol,
    render_word,
)
from framoid.monoids import _CLOSURES, closure, default_grid, family, generating_set
from framoid.normalform import evaluate_word


def block_of(x, p):
    """The index of the block holding point p, read off the blocks."""
    return next(b for b, blk in enumerate(x.blocks) if p in blk)


class TestIdentity:
    def test_neutral_in_tangle_family(self):
        fam = family("jdn", 3, 2)
        e = identity(3, 2, tag=PLANAR)
        for x in closure(fam):
            left, rec1 = compose(e, x)
            right, rec2 = compose(x, e)
            assert left == x and right == x
            assert rec1.is_empty and rec2.is_empty

    def test_single_strand(self):
        e = identity(1, 1)
        assert e.blocks == ((1, 2),)
        assert e.beads == (0,)

    def test_beads_zero(self):
        e = identity(5, 7)
        assert len(e.blocks) == 5
        assert set(e.beads) == {0}


class TestGenerators:
    def test_tangle_blocks(self):
        t1 = generator(GenSymbol("t", 1), 2, 1)
        assert t1.blocks == ((1, 2), (3, 4))

    def test_rook_product_is_rook_chain(self):
        p2 = generator(GenSymbol("p", 2), 3, 1)
        chain, _ = evaluate_word("r1 r2", family("rn", 3))
        assert p2 == chain

    def test_tied_tangle_absorbs_tie(self):
        f1 = generator(GenSymbol("f", 1), 2, 1)
        e1 = generator(GenSymbol("e", 1, 2), 2, 1, tag=PLANAR)
        prod, _ = compose(f1, e1)
        assert prod == f1

    def test_tied_rook_product_factors(self):
        w3 = generator(GenSymbol("w", 3), 4, 1)
        viaq, _ = evaluate_word("r1 r2 q3", family("trprimen", 4))
        assert w3 == viaq

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator(GenSymbol("t", 3), 3, 1)
        with pytest.raises(ValueError):
            generator(GenSymbol("e", 2, 2), 3, 1)
        with pytest.raises(ValueError):
            generator(GenSymbol("o", 0), 3, 2)


# one sha256 over every generator call below, one line per call, pinned when
# each tied kind still had its own tie branch in generator
GENERATOR_PIN = "595f15e7593f7c4029cfa9adddd23681951783d11b6297a579dae432082a0815"


def _generator_cases():
    for kind in "tsorpefqw":
        for n in range(1, 7):
            for d in range(1, 4):
                idx = range(n + 2)
                pairs = ([(i, j) for i in idx for j in idx] if kind == "e"
                         else [(i, 0) for i in idx])
                for i, j in pairs:
                    for tied in (None, True, False):
                        for tag in (None, PARTITION):
                            yield GenSymbol(kind, i, j), n, d, tied, tag


def test_every_generator_diagram_is_pinned():
    lines = []
    for sym, n, d, tied, tag in _generator_cases():
        head = f"{render_symbol(sym)}|{n}|{d}|{tied}|{tag}|"
        try:
            x = generator(sym, n, d, tied, tag)
        except Exception as exc:
            lines.append(head + f"{type(exc).__name__}:{exc}")
        else:
            lines.append(head + f"{x.encode()}|{x.family_tag}")
    assert len(lines) == 8334
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GENERATOR_PIN


class TestCompose:
    def test_loop_with_bead(self):
        t1 = generator(GenSymbol("t", 1), 2, 2, tag=PLANAR)
        prod, rec = evaluate_word("t1 o1 t1", family("jdn", 2, 2))
        assert prod == t1
        assert rec == LoopRecord({1: 1})

    def test_tangle_sandwich_no_loop(self):
        t1 = generator(GenSymbol("t", 1), 3, 1)
        prod, rec = evaluate_word("t1 t2 t1", family("jn", 3))
        assert prod == t1
        assert rec.is_empty

    def test_partition_join(self):
        prod, _ = evaluate_word("e1,2 e2,4", family("pn", 4))
        assert prod.ties == ((0, 1, 3), (2,))

    def test_bead_crossing_slide(self):
        a, _ = evaluate_word("o1 s1", family("sdn", 3, 3))
        b, _ = evaluate_word("s1 o2", family("sdn", 3, 3))
        assert a == b

    def test_orientation_is_asymmetric(self):
        # s_i t_j t_i = s_j t_i distinguishes top from bottom stacking
        lhs, _ = evaluate_word("s1 t2 t1", family("brn", 3))
        rhs, _ = evaluate_word("s2 t1", family("brn", 3))
        assert lhs == rhs
        flipped, _ = evaluate_word("t1 t2 s1", family("brn", 3))
        assert flipped != lhs

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError):
            compose(identity(2, 1), identity(3, 1))
        with pytest.raises(ValueError):
            compose(identity(2, 2), identity(2, 3))
        with pytest.raises(ValueError):
            compose(identity(2, 1, tied=True), identity(2, 1))

    def test_beaded_brauer_word_identity(self):
        lhs, _ = evaluate_word("t1 o1 o2 s2 o1 o2 t1", family("brdn", 3, 4))
        rhs, _ = evaluate_word("o3^2 t1 o3^2", family("brdn", 3, 4))
        assert lhs == rhs

    def test_rook_drop_policy(self):
        r1 = generator(GenSymbol("r", 1), 2, 3)
        o1 = generator(GenSymbol("o", 1), 2, 3, tag=MATCHING)
        kept, _ = compose(r1, o1)
        assert kept.beads != (0, 0, 0)
        dropped, _ = compose(r1, o1, drop_rook=True)
        assert dropped == r1

    def test_tie_drop_policy(self):
        # e_i p_i = p_i only once free points leave their tie class
        e1 = generator(GenSymbol("e", 1, 2), 3, 1)
        p1 = generator(GenSymbol("p", 1), 3, 1, tied=True)
        plain, _ = compose(e1, p1)
        assert any(len(cls) > 1 for cls in plain.ties)
        dropped, _ = compose(e1, p1, drop_rook=True)
        assert dropped == p1


class TestCanonical:
    def test_construction_normalizes_block_order(self):
        a = BeadedDiagram(2, 2, [(3, 4), (1, 2)], [1, 0], MATCHING)
        b = BeadedDiagram(2, 2, [(1, 2), (4, 3)], [0, 1], MATCHING)
        assert a == b
        assert a.encode() == b.encode()

    def test_construction_idempotent(self):
        # rebuilding a diagram from its canonical fields changes nothing
        tied = BeadedDiagram(3, 3, [(4, 2), (1, 6), (3, 5)], [1, 2, 2], MATCHING,
                             [[2, 0], [1]])
        for x in (generator(GenSymbol("s", 1), 3, 2), tied):
            again = BeadedDiagram(x.n, x.d, x.blocks, x.beads, x.family_tag, x.ties)
            assert again == x
            assert (again.blocks, again.beads, again.ties) == (x.blocks, x.beads, x.ties)

    def test_idempotent_square_matches(self):
        t1 = generator(GenSymbol("t", 1), 2, 1)
        sq, _ = compose(t1, t1)
        assert sq == t1

    def test_planarity_enforced(self):
        with pytest.raises(NotPlanar):
            BeadedDiagram(2, 1, [(1, 4), (2, 3)], None, PLANAR)
        # the same crossing blocks are a fine permutation
        BeadedDiagram(2, 1, [(1, 4), (2, 3)], None, PERMUTATION)

    def test_label_form_equals_block_form(self):
        tied = BeadedDiagram(3, 3, [(4, 2), (1, 6), (3, 5)], [1, 2, 2], MATCHING,
                             [[2, 0], [1]])
        for x in (tied, generator(GenSymbol("t", 2), 4, 2), identity(3, 1, tied=True)):
            again = BeadedDiagram(x.n, x.d, beads=x.beads, family_tag=x.family_tag,
                                  ties=x.ties, lab=x.lab)
            assert again == x and hash(again) == hash(x)
            assert again.blocks == x.blocks and again.encode() == x.encode()
        assert tied.lab == (0, 1, 2, 1, 2, 0)
        assert tied.blocks == ((1, 6), (2, 4), (3, 5))
        assert [block_of(tied, p) for p in range(1, 7)] == list(tied.lab)

    @pytest.mark.parametrize("lab", [
        (1, 0, 0, 1),        # labels not in order of the least point
        (0, 2, 1, 0),
        (0, 0, 2, 2),        # a label skipped
        (0, 1, 0),           # too few points
        (0, 1, 0, 1, 0),
    ])
    def test_label_form_rejects_non_canonical_labels(self, lab):
        with pytest.raises(ValueError, match="labels"):
            BeadedDiagram(2, 1, lab=lab)

    def test_label_form_requires_pooled_beads(self):
        pooled = BeadedDiagram(2, 3, [(1, 3), (2, 4)], [1, 1], PERMUTATION, [[0, 1]])
        assert pooled.beads == (2, 0)
        with pytest.raises(ValueError, match="least block"):
            BeadedDiagram(2, 3, beads=(1, 1), family_tag=PERMUTATION, ties=[[0, 1]],
                          lab=pooled.lab)

    def test_exactly_one_of_blocks_and_labels(self):
        with pytest.raises(TypeError):
            BeadedDiagram(2, 1)
        with pytest.raises(TypeError):
            BeadedDiagram(2, 1, [(1, 3), (2, 4)], lab=(0, 1, 0, 1))

    @pytest.mark.parametrize("n,blocks,tag,error", [
        (2, [(1, 4), (2, 3)], PLANAR, NotPlanar),
        (3, [(1, 5), (2, 4), (3, 6)], PLANAR, NotPlanar),
        (2, [(1, 3), (2,), (4,)], PLANAR, NotPlanar),
        (2, [(1, 2, 3), (4,)], PLANAR, ValueError),
        (2, [(1, 2, 3), (4,)], MATCHING, ValueError),
        (2, [(1, 2), (3, 4)], PERMUTATION, ValueError),
        (2, [(1, 3), (2,), (4,)], PERMUTATION, ValueError),
    ])
    def test_label_form_names_the_violation_as_the_block_form(self, n, blocks, tag, error):
        with pytest.raises(error) as by_blocks:
            BeadedDiagram(n, 1, blocks, None, tag)
        lab = BeadedDiagram(n, 1, blocks).lab
        with pytest.raises(error) as by_labels:
            BeadedDiagram(n, 1, family_tag=tag, lab=lab)
        assert str(by_labels.value) == str(by_blocks.value)

    def test_pooled_beads_on_tied_blocks(self):
        a = BeadedDiagram(2, 3, [(1, 3), (2, 4)], [1, 1], PERMUTATION, [[0, 1]])
        b = BeadedDiagram(2, 3, [(1, 3), (2, 4)], [2, 0], PERMUTATION, [[0, 1]])
        assert a == b


class TestErasures:
    def test_erase_beads(self):
        x, _ = evaluate_word("o1^3", family("cdn", 2, 4))
        assert erase_beads(x) == identity(2, 4)

    def test_erase_ties_on_tied_tangle(self):
        f1 = generator(GenSymbol("f", 1), 2, 1)
        t1 = generator(GenSymbol("t", 1), 2, 1)
        assert erase_ties(f1) == t1


def _word_strategy(n, d, tokens, max_size=7):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(tuple)


def _tokens(fam):
    return [sym for sym in
            (GenSymbol(kind, i, i + 1 if kind == "e" else 0, 1)
             for kind in "tsoe" for i in range(1, fam.n + 1))
            if _valid(sym, fam)]


def _valid(sym, fam):
    from framoid.diagrams import symbol_valid
    if not symbol_valid(sym, fam.n, fam.d):
        return False
    allowed = {"jdn": "to", "brdn": "tso", "pdn": "oe", "tbrn": "tse"}[fam.name]
    return sym.kind in allowed


@pytest.mark.parametrize("name,d,n", [
    ("jdn", 2, 3), ("brdn", 2, 3), ("pdn", 3, 3), ("tbrn", 1, 3),
])
def test_associativity_random_words(name, d, n):
    fam = family(name, n, d)
    tokens = _tokens(fam)

    @settings(max_examples=60, deadline=None)
    @given(_word_strategy(n, d, tokens), _word_strategy(n, d, tokens),
           _word_strategy(n, d, tokens))
    def run(wa, wb, wc):
        a, _ = evaluate_word(wa, fam)
        b, _ = evaluate_word(wb, fam)
        c, _ = evaluate_word(wc, fam)
        ab, r1 = compose(a, b)
        left, r2 = compose(ab, c)
        bc, r3 = compose(b, c)
        right, r4 = compose(a, bc)
        assert left == right
        assert r1.merged(r2) == r3.merged(r4)

    run()


def test_associativity_bulk_sweep():
    """Ten thousand seeded triples across the family grid: products and the
    merged loop records agree for both bracketings.

    The tie-shedding rook family is excluded: its composition is pinned by
    its element count and defining relations, and those force a product that
    is not associative (see the dedicated regression below).
    """
    import random

    cells = [("jdn", 2, 3), ("jdn", 3, 4), ("brdn", 2, 3), ("brdn", 2, 4),
             ("rdn", 2, 3), ("rdn", 2, 4), ("rprimedn", 2, 3), ("pdn", 3, 4),
             ("tjn", 1, 4), ("tbrn", 1, 4), ("trprimen", 1, 3)]
    rng = random.Random(0xF4A317)
    per_cell = 910
    for name, d, n in cells:
        fam = family(name, n, d)
        els = closure(fam)
        drop = fam.drop_rook
        for _ in range(per_cell):
            a, b, c = (rng.choice(els) for _ in range(3))
            ab, r1 = compose(a, b, drop_rook=drop)
            left, r2 = compose(ab, c, drop_rook=drop)
            bc, r3 = compose(b, c, drop_rook=drop)
            right, r4 = compose(a, bc, drop_rook=drop)
            assert left == right
            assert r1.merged(r2) == r3.merged(r4)


def test_tie_shedding_composition_is_not_associative():
    """Pinned witness: the tie-shedding rook composition cannot associate.

    A tie attached to a free point is shed, which is exactly what the
    tie-rook absorption relations and the lines-only tie count demand.  But a
    bottom free point is still on the boundary: a later factor can fuse it
    into a line, so the shed tie carried real information.  No product on
    this element set (ties on lines only) can be associative, and the two
    bracketings below genuinely differ.  Enumeration and relation checks
    evaluate words left to right, which stays well defined.
    """
    a = BeadedDiagram(4, 1, [(1, 7), (2, 5), (3,), (4, 8), (6,)],
                      None, MATCHING, [[0], [1], [2], [3], [4]])
    b = BeadedDiagram(4, 1, [(1, 7), (2, 8), (3, 5), (4, 6)],
                      None, MATCHING, [[0, 1], [2, 3]])
    c = BeadedDiagram(4, 1, [(1, 5), (2, 6), (3, 8), (4, 7)],
                      None, MATCHING, [[0, 1, 3], [2]])
    ab, _ = compose(a, b, drop_rook=True)
    left, _ = compose(ab, c, drop_rook=True)
    bc, _ = compose(b, c, drop_rook=True)
    right, _ = compose(a, bc, drop_rook=True)
    assert erase_ties(left) == erase_ties(right)  # diagrams agree
    assert left != right                          # one tie differs
    assert left.ties == ((0, 3), (1,), (2,), (4,))
    assert right.ties == ((0, 1, 3), (2,), (4,))


@pytest.mark.parametrize("name,d,n", [("jdn", 3, 4), ("brdn", 2, 3)])
def test_erase_beads_is_multiplicative(name, d, n):
    import random

    fam = family(name, n, d)
    els = closure(fam)
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.choice(els), rng.choice(els)
        direct, _ = compose(erase_beads(a), erase_beads(b))
        through, _ = compose(a, b)
        assert direct == erase_beads(through)


def test_erase_ties_is_multiplicative_on_tied_families():
    import random

    fam = family("tbrn", 3)
    els = closure(fam)
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.choice(els), rng.choice(els)
        direct, _ = compose(erase_ties(a), erase_ties(b))
        through, _ = compose(a, b)
        assert direct == erase_ties(through)


def test_planarity_closed_under_composition():
    import random

    fam = family("jdn", 2, 4)
    els = closure(fam)
    rng = random.Random(3)
    for _ in range(200):
        prod, _ = compose(rng.choice(els), rng.choice(els))
        assert prod.family_tag == PLANAR  # construction re-checks crossings

def test_tie_refinement_preserved():
    import random

    fam = family("trprimen", 3)
    els = closure(fam)
    rng = random.Random(5)
    for _ in range(200):
        prod, _ = compose(rng.choice(els), rng.choice(els))
        covered = sorted(i for cls in prod.ties for i in cls)
        assert covered == list(range(len(prod.blocks)))


def test_bead_range_after_composition():
    import random

    fam = family("jdn", 3, 3)
    els = closure(fam)
    rng = random.Random(13)
    for _ in range(200):
        prod, rec = compose(rng.choice(els), rng.choice(els))
        assert all(0 <= k < 3 for k in prod.beads)
        assert all(0 <= p < 3 for p, _ in rec.counts)


def test_word_grammar_round_trip():
    text = "t1 s2 o3^2 r1 p2 q1 w3 e1,3 f2 e1"
    word = parse_word(text)
    assert render_word(word) == text
    assert word[7] == GenSymbol("e", 1, 3)
    assert word[9] == GenSymbol("e", 1, 2)
    with pytest.raises(ValueError):
        parse_word("x9")
    with pytest.raises(ValueError):
        parse_word("t1^2")


def test_encoding_format():
    x, _ = evaluate_word("o1^2", family("cdn", 2, 4))
    assert x.encode() == "n=2;d=4;blocks=[{t1,b1}:2,{t2,b2}:0]"
    f1 = generator(GenSymbol("f", 1), 2, 1)
    assert f1.encode() == "n=2;d=1;blocks=[{t1,t2}:0,{b1,b2}:0];ties=[[0,1]]"


# -- differential gate: the label kernel against the block kernel it replaced --

def compose_reference(a, b, *, drop_rook=False):
    """The block-based product that the label kernel replaced, kept as the
    reference (verbatim but for reading each factor's blocks once): a
    union-find over the 3n points of the stacked picture, with the result
    built through the public blocks constructor."""
    if a.n != b.n or a.d != b.d:
        raise ValueError("factors must share strand count and framing modulus")
    if a.tied != b.tied:
        raise ValueError("cannot mix tied and untied diagrams")

    n, d = a.n, a.d
    # blocks are derived from the labels now: read them once
    a_blocks, b_blocks = a.blocks, b.blocks
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

    for blk in a_blocks:
        base = a_node(blk[0])
        for p in blk[1:]:
            union(base, a_node(p))
    for blk in b_blocks:
        base = b_node(blk[0])
        for p in blk[1:]:
            union(base, b_node(p))

    acc = [0] * size
    for blk, k in zip(a_blocks, a.beads):
        if k:
            acc[find(a_node(blk[0]))] += k
    for blk, k in zip(b_blocks, b.beads):
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
            base = a_node(a_blocks[cls[0]][0])
            for bi in cls[1:]:
                tunion(base, a_node(a_blocks[bi][0]))
        for cls in b.ties:
            base = b_node(b_blocks[cls[0]][0])
            for bi in cls[1:]:
                tunion(base, b_node(b_blocks[bi][0]))

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


def _clear_memos():
    """Empty the shape memos, so that the kernel is tested from cold."""
    _shape.cache_clear()
    _PLANS.clear()


def _assert_same_product(a, b, drop_rook):
    got, record = compose(a, b, drop_rook=drop_rook)
    want, want_record = compose_reference(a, b, drop_rook=drop_rook)
    assert got == want, (a, b)
    assert got.family_tag == want.family_tag
    assert got.encode() == want.encode()
    assert record == want_record, (a, b)
    return record


def test_compose_matches_reference_on_every_closure_step():
    """Every (element, generator) product of each default_grid family with
    at most 2000 elements: the tied, drop-rook and planar families among
    them."""
    _clear_memos()
    checked = set()
    for fam in default_grid():
        if fam.spec.count(fam.d, fam.n) > 2000:
            continue
        gens = generating_set(fam)
        for x in closure(fam):
            for g in gens:
                _assert_same_product(x, g, fam.drop_rook)
        checked.add(fam.name)
    assert checked == {fam.name for fam in default_grid()}


def test_compose_matches_reference_on_random_pairs():
    """Arbitrary right factors, which remove beaded loops, in every
    default_grid family."""
    import random

    _clear_memos()
    rng = random.Random(0x1AB)
    beaded_loops = 0
    for fam in default_grid():
        els = closure(fam)
        for _ in range(200):
            record = _assert_same_product(rng.choice(els), rng.choice(els), fam.drop_rook)
            beaded_loops += any(residue for residue, _ in record.counts)
    assert beaded_loops > 0


# -- the shape memos -----------------------------------------------------------

@pytest.mark.parametrize("lab", [(1, 0, 0, 1), (0, 0, 2, 2), (0, 1, 0)])
def test_invalid_labels_raise_on_every_call(lab):
    raised = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            BeadedDiagram(2, 1, lab=lab)
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1]


@pytest.mark.parametrize("tag,error", [(PLANAR, NotPlanar), (MATCHING, ValueError)])
def test_tag_violations_raise_on_every_call(tag, error):
    blocks = [(1, 4), (2, 3)] if tag == PLANAR else [(1, 2, 3), (4,)]
    lab = BeadedDiagram(2, 1, blocks).lab
    raised = []
    for _ in range(2):
        for build in (lambda: BeadedDiagram(2, 1, blocks, None, tag),
                      lambda: BeadedDiagram(2, 1, family_tag=tag, lab=lab)):
            with pytest.raises(error) as err:
                build()
            raised.append((type(err.value), str(err.value)))
    assert len(set(raised)) == 1


def test_equal_labels_share_one_tuple():
    by_blocks = BeadedDiagram(2, 3, [(3, 4), (1, 2)], [1, 2], PLANAR)
    by_labels = BeadedDiagram(2, 3, family_tag=PLANAR, lab=[0, 0, 1, 1])
    assert by_blocks.lab is by_labels.lab
    t1 = generator(GenSymbol("t", 1), 2, 3, tag=PLANAR)
    product, _ = compose(by_blocks, t1)
    assert product.lab is t1.lab


def test_plans_grow_with_shapes_not_elements():
    fam = family("sdn", 5, 3)
    _CLOSURES.pop(fam, None)
    _clear_memos()
    els = closure(fam)
    plans = sum(map(len, _PLANS.values()))
    shapes = len({x.lab for x in els})
    assert 0 < plans <= shapes * len(generating_set(fam))
    assert plans < len(els)
    assert memo_sizes() == (_shape.cache_info().currsize, plans)


def test_products_with_more_than_256_blocks():
    # a plan maps blocks to components in bytes only while every id fits
    for n in (64, 129):
        wide = BeadedDiagram(n, 3, beads=[1] * n, lab=tuple(range(n)) * 2)
        product, loops = compose(wide, wide)
        assert product.beads == (2,) * n and loops.is_empty
        want, _ = compose_reference(wide, wide)
        assert product == want
