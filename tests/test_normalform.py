"""Normal forms: gaps, planar/Brauer/rook words, round trips, minimality."""

import hashlib

import pytest

from framoid.diagrams import (
    _NO_LOOPS,
    MATCHING,
    PLANAR,
    BeadedDiagram,
    GenSymbol,
    LoopRecord,
    NotPlanar,
    generator,
    identity,
)
from framoid.monoids import closure, default_grid, family, predicted_cardinality
from framoid.normalform import (
    brauer_nf,
    evaluate_word,
    jones_nf,
    permutation_word,
    rook_nf,
)

from length_oracle import min_length_oracle

# the running example: planar diagram with arcs {t1,t4},{t2,t3},{t5,b1},
# {b2,b3},{b4,b5}; one bead on the {t2,t3} arc, two on the long line, one on
# the {b4,b5} arc, all mod 4
FIG_BLOCKS = [(1, 4), (2, 3), (5, 6), (7, 8), (9, 10)]
FIG_BEADS = {frozenset((2, 3)): 1, frozenset((5, 6)): 2, frozenset((9, 10)): 1}


def gaps(x):
    """Strands of a planar matching carried by an untouched vertical line."""
    if x.family_tag != PLANAR:
        raise NotPlanar("gaps are defined for planar matchings")
    n, lab = x.n, x.lab
    # every block of a planar matching is a pair, so a shared label is a line
    return frozenset(i for i in range(1, n + 1) if lab[i - 1] == lab[n + i - 1])


def gaps_from_word(x):
    """Gap criterion read off the staircase normal form: g is a gap iff
    neither g nor g-1 occurs as a tangle index."""
    used = set()
    for i, j in jones_nf(x).tangle_runs:
        used.update(range(j, i + 1))
    return frozenset(g for g in range(1, x.n + 1)
                     if g not in used and g - 1 not in used)


def tangle_count(word):
    """The number of tangles in a planar normal form word."""
    return sum(i - j + 1 for i, j in word.tangle_runs)


def fig_element(tag):
    return BeadedDiagram(5, 4, FIG_BLOCKS, FIG_BEADS, tag)


class TestEvaluateWord:
    def test_staircase_word(self):
        diag, rec = evaluate_word("t2 t1 t3 t2 t4", family("jn", 5))
        assert diag == BeadedDiagram(5, 1, FIG_BLOCKS, None, PLANAR)
        assert rec.is_empty

    def test_empty_word(self):
        diag, rec = evaluate_word("", family("jdn", 3, 2))
        assert diag == identity(3, 2, tag=PLANAR)
        assert rec.is_empty

    def test_loop_free_words_share_the_empty_record(self):
        for word, fam in (("", family("jdn", 3, 2)), ("t2 t1", family("jn", 3)),
                          ("e1,2 s1", family("tsn", 3))):
            diag, rec = evaluate_word(word, fam)
            assert rec is _NO_LOOPS and rec == LoopRecord()
        tied = identity(3, 1, tied=True)
        assert tied.ties == ((0,), (1,), (2,)) and tied is not identity(3, 1, tied=True)

    def test_loop_record_merging(self):
        diag, rec = evaluate_word("t1 o1 t1", family("jdn", 2, 2))
        assert diag == generator(GenSymbol("t", 1), 2, 2, tag=PLANAR)
        assert rec == LoopRecord({1: 1})

    def test_invalid_symbol(self):
        with pytest.raises(ValueError):
            evaluate_word("t5", family("jn", 3))


class TestGaps:
    def test_identity_has_all_gaps(self):
        assert gaps(identity(4, 1, tag=PLANAR)) == frozenset({1, 2, 3, 4})

    def test_staircase_element_has_none(self):
        w, _ = evaluate_word("t2 t1 t3 t2 t4", family("jn", 5))
        assert gaps(w) == frozenset()
        assert gaps_from_word(w) == frozenset()

    def test_small_tangle(self):
        t1 = generator(GenSymbol("t", 1), 4, 1)
        assert gaps(t1) == frozenset({3, 4})
        assert gaps_from_word(t1) == frozenset({3, 4})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_criteria_agree_everywhere(self, n):
        for x in closure(family("jn", n)):
            assert gaps(x) == gaps_from_word(x)


class TestJonesNF:
    def test_worked_example_word(self):
        assert jones_nf(fig_element(PLANAR)).text() == \
            "o2 t2 t1 t3 t2 t4 o1^2 o4"

    def test_bead_only_prefix(self):
        x, _ = evaluate_word("o2", family("jdn", 3, 2))
        nf = jones_nf(x)
        assert nf.text() == "o2"
        assert nf.tangle_runs == ()

    def test_anchor_slot_count_is_n(self):
        for x in closure(family("jn", 4)):
            nf = jones_nf(x)
            slots = len(nf.gap_beads) + len(nf.top_beads) + len(nf.bottom_beads)
            assert slots == 4

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 3), (2, 5)])
    def test_round_trip_and_uniqueness(self, d, n):
        fam = family("jdn", n, d)
        els = closure(fam)
        words = set()
        for x in els:
            nf = jones_nf(x)
            again, rec = evaluate_word(nf.tokens(), fam)
            assert again == x and rec.is_empty
            words.add(nf.text())
        assert len(words) == predicted_cardinality(fam)

    def test_rejects_crossings(self):
        s1 = generator(GenSymbol("s", 1), 2, 1)
        with pytest.raises(Exception):
            jones_nf(s1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_staircase_matches_search(self, n):
        for x in closure(family("jn", n)):
            assert jones_nf(x).tangle_runs == staircase_by_search(x)


def _increasing_tuples(js, top):
    """All strictly increasing index tuples with i_m >= j_m and i_m <= top."""
    k = len(js)

    def rec(m, lo):
        if m == k:
            yield ()
            return
        for i in range(max(lo, js[m]), top + 1):
            for rest in rec(m + 1, i + 1):
                yield (i,) + rest

    yield from rec(0, 1)


def staircase_by_search(x):
    """Reference staircase runs of a beadless planar matching: the run ends
    j are its bottom anchors; every increasing choice of run starts is
    evaluated, and exactly one must rebuild x."""
    n = x.n
    fam = family("jn", n)
    js = []
    for a, b in x.blocks:
        if a > n:
            js.append(a - n)          # bottom arc, left endpoint
        elif b > n and b - n < a:
            js.append(b - n)          # ne-line, bottom end
    js.sort()
    matches = []
    for starts in _increasing_tuples(js, n - 1):
        word = [GenSymbol("t", m) for i, j in zip(starts, js) for m in range(i, j - 1, -1)]
        if evaluate_word(tuple(word), fam)[0] == x:
            matches.append(tuple(zip(starts, js)))
    assert len(matches) == 1, matches
    return matches[0]


class TestBrauerNF:
    def test_worked_example_word(self):
        assert brauer_nf(fig_element(MATCHING)).text() == \
            "o2 o5^2 s3 s2 t1 t3 s4 s3 s2 s1 o4"

    def test_pure_permutation_has_no_tangles(self):
        x, _ = evaluate_word("s1 s2", family("brn", 3))
        nf = brauer_nf(x)
        assert nf.bracket_pairs == 0
        again, _ = evaluate_word(nf.tokens(), family("brn", 3))
        assert again == x

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (2, 4), (4, 3)])
    def test_round_trip_and_uniqueness(self, d, n):
        fam = family("brdn", n, d)
        els = closure(fam)
        words = set()
        for x in els:
            nf = brauer_nf(x)
            again, _ = evaluate_word(nf.tokens(), fam)
            assert again == x
            words.add(nf.text())
        assert len(words) == predicted_cardinality(fam)


class TestRookNF:
    def test_simple_broken_strand(self):
        fam = family("rdn", 3, 2)
        x, _ = evaluate_word("r2 o1", fam)
        nf = rook_nf(x, "first")
        assert nf.text() == "o1 r2"
        again, _ = evaluate_word(nf.tokens(), fam)
        assert again == x

    def test_bead_on_line_is_legal_in_first(self):
        fam = family("rdn", 2, 3)
        x, _ = evaluate_word("o1^2", fam)
        assert rook_nf(x, "first").text() == "o1^2"

    def test_first_variant_rejects_beaded_free_points(self):
        fam = family("rprimedn", 2, 3)
        x, _ = evaluate_word("r1 o1", fam)  # bead stuck on the bottom free point
        with pytest.raises(ValueError):
            rook_nf(x, "first")
        assert rook_nf(x, "prime").text() == "r1 o1"

    @pytest.mark.parametrize("name,variant,d,n", [
        ("rdn", "first", 2, 3), ("rdn", "first", 3, 3),
        ("rprimedn", "prime", 2, 3), ("rprimedn", "prime", 3, 2),
    ])
    def test_round_trip_and_uniqueness(self, name, variant, d, n):
        fam = family(name, n, d)
        els = closure(fam)
        words = set()
        for x in els:
            nf = rook_nf(x, variant)
            again, _ = evaluate_word(nf.tokens(), fam)
            assert again == x
            words.add(nf.text())
        assert len(words) == predicted_cardinality(fam)


class TestRefusals:
    """A normal form raises for a diagram it cannot represent instead of
    returning a word for some other element."""

    @pytest.mark.parametrize("name,nf", [
        ("tjn", jones_nf),
        ("tbrn", brauer_nf),
        ("trprimen", lambda x: rook_nf(x, "prime")),
        ("trn", lambda x: rook_nf(x, "first")),
    ], ids=["tjn", "tbrn", "trprimen", "trn"])
    def test_tied_diagrams_are_refused(self, name, nf):
        for x in closure(family(name, 3)):
            with pytest.raises(ValueError, match="untied"):
                nf(x)

    @pytest.mark.parametrize("variant", ["first", "prime"])
    def test_rook_refuses_blocks_of_three_points(self, variant):
        x = BeadedDiagram(2, 1, [(1, 2, 3), (4,)], None, "partition")
        with pytest.raises(ValueError, match="more than two points"):
            rook_nf(x, variant)

    @pytest.mark.parametrize("nf", [jones_nf, brauer_nf], ids=["jones", "brauer"])
    def test_planar_and_brauer_refuse_blocks_of_three_points(self, nf):
        x = BeadedDiagram(2, 1, [(1, 2, 3), (4,)], None, "partition")
        with pytest.raises(ValueError, match="more than two points"):
            nf(x)


class TestPermutationWord:
    def test_worked_examples(self):
        assert permutation_word((1, 3, 4, 2, 5)) == (3, 2)
        assert permutation_word((2, 3, 4, 5, 1)) == (4, 3, 2, 1)
        assert permutation_word((1, 2, 3)) == ()

    def test_words_rebuild_their_permutation(self):
        import itertools

        fam = family("sdn", 4, 1)
        for images in itertools.permutations(range(1, 5)):
            word = [GenSymbol("s", i) for i in permutation_word(images)]
            diag, _ = evaluate_word(tuple(word), fam)
            expected = BeadedDiagram(
                4, 1, [(p, 4 + images[p - 1]) for p in range(1, 5)])
            assert diag == expected


class TestMinimality:
    def test_single_tangle(self):
        fam = family("jn", 3)
        t1 = generator(GenSymbol("t", 1), 3, 1)
        assert min_length_oracle(t1, fam) == 1

    def test_identity_is_free(self):
        fam = family("jn", 3)
        assert min_length_oracle(identity(3, 1, tag=PLANAR), fam) == 0

    def test_staircase_element_costs_five(self):
        fam = family("jn", 5)
        w, _ = evaluate_word("t2 t1 t3 t2 t4", fam)
        assert min_length_oracle(w, fam) == 5

    @pytest.mark.parametrize("n", range(1, 6))
    def test_normal_form_is_minimal(self, n):
        fam = family("jn", n)
        for x in closure(fam):
            assert tangle_count(jones_nf(x)) == min_length_oracle(x, fam)


NF_PIN = "56dc54d8228ee00a2b787ffee8bb09ffbc448e1a50f27586b8500524291dea09"


def test_every_normal_form_is_pinned():
    """Every normal form, word or refusal, of every element of the grid
    families with n <= 4 (n <= 3 where tied)."""
    forms = (("jones", jones_nf), ("brauer", brauer_nf),
             ("first", lambda x: rook_nf(x, "first")),
             ("prime", lambda x: rook_nf(x, "prime")))
    lines = []
    for fam in default_grid():
        if fam.n > (3 if fam.tied else 4):
            continue
        for x in closure(fam):
            for name, nf in forms:
                head = f"{fam}|{x.encode()}|{name}"
                try:
                    w = nf(x)
                except ValueError as exc:
                    lines.append(f"{head}|{type(exc).__name__}:{exc}")
                else:
                    lines.append(f"{head}|{w!r}|{w.text()}")
    assert len(lines) == 85176
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NF_PIN


def test_unknown_rook_variant_is_refused():
    with pytest.raises(ValueError) as err:
        rook_nf(identity(2, 1), "second")
    assert str(err.value) == "unknown rook variant 'second'"
