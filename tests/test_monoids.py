"""Families: generators, closure counts, counting formulas, presentations."""

import hashlib
import re

import pytest

from framoid.diagrams import (
    MATCHING,
    PERMUTATION,
    PLANAR,
    BeadedDiagram,
    CapExceeded,
    GenSymbol,
    generator,
    render_word,
)
from framoid.monoids import (
    _CLOSURES,
    FAMILIES,
    FAMILY_NAMES,
    RelationSchema,
    bell,
    binomial,
    catalan,
    check_relations,
    closure,
    family,
    fuss_catalan_41,
    generating_set,
    generating_symbols,
    odd_double_factorial,
    predicted_cardinality,
    stirling2,
)


class TestCombinatorics:
    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_bell(self):
        assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_odd_double_factorial(self):
        assert [odd_double_factorial(n) for n in range(5)] == [1, 1, 3, 15, 105]

    def test_fuss_catalan(self):
        assert [fuss_catalan_41(n) for n in range(1, 5)] == [1, 4, 22, 140]

    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(3, 5) == 0

    def test_stirling_sums_to_bell(self):
        for n in range(1, 8):
            assert sum(stirling2(n, k) for k in range(n + 1)) == bell(n)


class TestGeneratingSets:
    def test_framed_tangles(self):
        syms = generating_symbols(family("jdn", 3, 2))
        assert syms == (GenSymbol("t", 1), GenSymbol("t", 2), GenSymbol("o", 1),
                        GenSymbol("o", 2), GenSymbol("o", 3))

    def test_tied_symmetric(self):
        syms = generating_symbols(family("tsn", 3))
        kinds = [(s.kind, s.i) for s in syms]
        assert kinds == [("s", 1), ("s", 2), ("e", 1), ("e", 2)]

    def test_partition_needs_all_ties(self):
        syms = generating_symbols(family("pn", 3))
        assert [(s.i, s.j) for s in syms] == [(1, 2), (1, 3), (2, 3)]

    def test_order_of_every_family(self):
        # seeded word generators draw from this order
        want = {
            "cdn": "o1 o2 o3",
            "sdn": "s1 s2 o1 o2 o3",
            "pn": "e1 e1,3 e2",
            "pdn": "e1 e1,3 e2 o1 o2 o3",
            "jn": "t1 t2",
            "jdn": "t1 t2 o1 o2 o3",
            "brn": "s1 s2 t1 t2",
            "brdn": "s1 s2 t1 t2 o1 o2 o3",
            "rn": "s1 s2 r1 r2 r3",
            "rdn": "s1 s2 r1 r2 r3 o1 o2 o3",
            "rprimedn": "s1 s2 r1 r2 r3 o1 o2 o3",
            "tsn": "s1 s2 e1 e2",
            "tjn": "t1 t2 e1 e2 f1 f2",
            "tbrn": "s1 s2 t1 t2 e1 e2 f1 f2",
            "trn": "s1 s2 p1 p2 p3 e1 e2",
            "trprimen": "s1 s2 r1 r2 r3 e1 e2 q1 q2 q3",
        }
        got = {name: render_word(generating_symbols(family(name, 3)))
               for name in FAMILY_NAMES}
        assert got == want

    def test_diagrams_carry_family_tag(self):
        for diag in generating_set(family("jdn", 4, 2)):
            assert diag.family_tag == "planar-matching"


CARDINALITY_CASES = [
    ("cdn", 2, 4, 16),
    ("sdn", 2, 3, 48),
    ("pn", 1, 4, 15),
    ("pdn", 2, 3, 22),
    ("jn", 1, 5, 42),
    ("jdn", 2, 2, 8),
    ("jdn", 2, 3, 40),
    ("brn", 1, 3, 15),
    ("brdn", 2, 3, 120),
    ("rn", 1, 3, 34),
    ("rdn", 2, 2, 17),
    ("rprimedn", 2, 2, 56),
    ("tsn", 1, 3, 30),
    ("tjn", 1, 2, 4),
    ("tjn", 1, 3, 22),
    ("tbrn", 1, 3, 75),
    ("trn", 1, 3, 76),
    ("trprimen", 1, 2, 39),
]


@pytest.mark.parametrize("name,d,n,count", CARDINALITY_CASES)
def test_closure_matches_formula(name, d, n, count):
    fam = family(name, n, d)
    els = closure(fam)
    assert len(els) == count
    assert predicted_cardinality(fam) == count


def test_tied_planar_elements_at_n2():
    fam = family("tjn", 2)
    names = {x.encode() for x in closure(fam)}
    assert names == {
        "n=2;d=1;blocks=[{t1,b1}:0,{t2,b2}:0];ties=[[0],[1]]",
        "n=2;d=1;blocks=[{t1,b1}:0,{t2,b2}:0];ties=[[0,1]]",
        "n=2;d=1;blocks=[{t1,t2}:0,{b1,b2}:0];ties=[[0],[1]]",
        "n=2;d=1;blocks=[{t1,t2}:0,{b1,b2}:0];ties=[[0,1]]",
    }


def test_closure_cap_guard():
    with pytest.raises(CapExceeded):
        closure(family("sdn", 4, 2), cap=10)


def test_closure_is_cached_per_family_whatever_the_cap():
    fam = family("cdn", 3, 3)
    first = closure(fam)
    assert closure(fam, 10**6) is first
    assert closure(fam, cap=10**6) is first
    assert closure(fam, cap=len(first)) is first
    with pytest.raises(CapExceeded, match=re.escape(f"closure of {fam} exceeded cap 26")):
        closure(fam, cap=26)
    # a cap hit leaves the family enumerable
    fam = family("cdn", 2, 3)
    with pytest.raises(CapExceeded):
        closure(fam, cap=3)
    assert len(closure(fam)) == 9


def test_closure_cap_counts_the_identity():
    fam = family("jn", 1)
    _CLOSURES.pop(fam, None)
    for _ in range(2):  # the fresh enumeration, then the cached closure
        with pytest.raises(CapExceeded, match="exceeded cap 0"):
            closure(fam, cap=0)
    assert len(closure(fam, cap=1)) == 1


def test_closure_is_sorted_and_deterministic():
    els = closure(family("brdn", 3, 2))
    codes = [x.encode() for x in els]
    assert codes == sorted(codes)


def test_closure_order_independent_of_generator_order():
    fam = family("brn", 3)
    els = set(closure(fam))
    # rebuild by hand with the generator list reversed
    from framoid.diagrams import compose, identity

    gens = list(generating_set(fam))[::-1]
    seen = {identity(3, 1, tag=fam.tag)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y, _ = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    assert seen == els


def reframed(x, d):
    """The same diagram with framing modulus d (beads reduced mod d)."""
    return BeadedDiagram(x.n, d, beads=x.beads, family_tag=x.family_tag,
                         ties=x.ties, lab=x.lab)


@pytest.mark.parametrize("sub,sup,d", [
    ("jn", "jdn", 3), ("brn", "brdn", 2), ("rn", "rdn", 2), ("rn", "rprimedn", 2),
])
def test_unframed_family_embeds(sub, sup, d):
    n = 3
    small = {reframed(x, d) for x in closure(family(sub, n))}
    big = set(closure(family(sup, n, d)))
    assert small <= big


def test_framed_rook_embeds_in_prime():
    n = 3
    first = set(closure(family("rdn", n, 2)))
    prime = set(closure(family("rprimedn", n, 2)))
    assert first <= prime


def test_printed_sequence_corrections():
    # two published sequence entries disagree with their own formulas; the
    # enumeration sides with the formulas (688, not 68; 18666, not 1866)
    fam = family("rprimedn", 3, 2)
    assert predicted_cardinality(fam) == 688
    assert len(closure(fam)) == 688
    assert predicted_cardinality(family("trn", 5)) == 18666


def test_tied_rook_sequence_at_n5_by_enumeration():
    fam = family("trn", 5)
    assert len(closure(fam)) == 18666


PRESENTATION_GRID = [
    ("cdn", 3, 3), ("sdn", 3, 3), ("pn", 1, 4), ("pdn", 3, 3),
    ("jn", 1, 4), ("jdn", 3, 4), ("brn", 1, 4), ("brdn", 2, 4),
    ("rn", 1, 4), ("rdn", 2, 4), ("rprimedn", 2, 4),
    ("tsn", 1, 4), ("tjn", 1, 4), ("tbrn", 1, 4), ("trn", 1, 4),
    ("trprimen", 1, 4),
]


@pytest.mark.parametrize("name,d,n", PRESENTATION_GRID)
def test_presentations_hold(name, d, n):
    report = check_relations(family(name, n, d))
    assert report.passed, report.failures()[:3]
    assert report.checked > 0


def test_negative_control_mutated_relation():
    bad = RelationSchema(
        "broken-absorb", "t_i o_i t_i = o_i t_i (false)",
        lambda d, n: (((GenSymbol("t", i), GenSymbol("o", i), GenSymbol("t", i)),
                       (GenSymbol("o", i), GenSymbol("t", i)))
                      for i in range(1, n)))
    report = check_relations(family("jdn", 2, 2), extra_schemas=[bad])
    assert not report.passed
    witnesses = report.failures()
    assert any("broken-absorb" in w for w in witnesses)
    # the genuine schemas still hold
    assert all(not e.failures for e in report.entries if e.name != "broken-absorb")


# one sha256 over the relation schemas of every family, one line per schema
# and (d, n), pinned when each schema still wrote out its own index ranges
SCHEMA_PIN = "66df9d9822d064398c6f21b20b175a9114f6a516bcfc52128517135081770725"


def test_every_relation_schema_is_pinned():
    """Each schema's name, display and multiset of instances, an instance
    taken as the set of its words, over n <= 6 and d <= 3 where framed."""
    lines = []
    for name, spec in FAMILIES.items():
        for n in range(1, 7):
            for d in ((1, 2, 3) if spec.framed else (1,)):
                for schema in spec.schemas:
                    instances = sorted(sorted(map(render_word, frozenset(inst)))
                                       for inst in schema.instances(d, n))
                    lines.append(f"{name}|{n}|{d}|{schema.name}|{schema.display}"
                                 f"|{instances}")
    assert len(lines) == 2106
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SCHEMA_PIN


def test_presentation_object_shape():
    fam = family("trprimen", 3)
    names = {s.name for s in fam.spec.schemas}
    assert "rook-tie-shift" in names
    assert all(sym.kind in "sreq" for sym in generating_symbols(fam))


# the structural tag each family declared before tags were derived from its
# generator kinds
DECLARED_TAGS = {
    "cdn": PERMUTATION, "sdn": PERMUTATION, "pn": PERMUTATION, "pdn": PERMUTATION,
    "jn": PLANAR, "jdn": PLANAR, "brn": MATCHING, "brdn": MATCHING,
    "rn": MATCHING, "rdn": MATCHING, "rprimedn": MATCHING, "tsn": PERMUTATION,
    "tjn": PLANAR, "tbrn": MATCHING, "trn": MATCHING, "trprimen": MATCHING,
}


def test_family_tags_follow_from_the_generator_kinds():
    assert {name: spec.tag for name, spec in FAMILIES.items()} == DECLARED_TAGS


def test_invalid_family_parameters():
    with pytest.raises(ValueError):
        family("tjn", 3, 2)  # tied families are unframed
    with pytest.raises(ValueError):
        family("nope", 3)
    with pytest.raises(ValueError):
        family("jdn", 0, 1)


@pytest.mark.parametrize("name,n,d", [("cdn", 2, 2.0), ("jn", 3.0, 1), ("jn", "3", 1),
                                      ("cdn", 2, None)])
def test_family_refuses_non_integral_parameters(name, n, d):
    with pytest.raises(ValueError, match="n and d must be integers"):
        family(name, n, d)


def test_family_parameters_are_stored_as_ints():
    fam = family("jn", True)
    assert str(fam) == "jn(n=1)" and type(fam.n) is int
    assert fam == family("jn", 1) and hash(fam) == hash(family("jn", 1))
    assert family("cdn", 2, True) == family("cdn", 2, 1)
