"""Exact coefficients, loop policies, bridges, specialization."""

import random
from fractions import Fraction

import pytest

from framoid.algebra import (
    ALPHA,
    NEGLECT,
    ONE,
    XY,
    AlgebraElement,
    LaurentPoly,
    _coerce,
    alpha_to_one,
    alpha_var,
    bridge_e,
    bridge_f,
    bridge_q,
    bridge_w,
    cap_z,
    equal,
    from_diagram,
    from_word,
    loop_scalar,
    one,
    specialize,
    x_var,
    y_var,
)
from framoid.diagrams import BeadedDiagram, LoopRecord, compose, identity
from framoid.monoids import closure, family


class TestLaurentPoly:
    def test_canonical_form(self):
        p = LaurentPoly({(("x", 1), ("y1", 0)): Fraction(2, 4)})
        assert p == LaurentPoly({(("x", 1),): Fraction(1, 2)})
        assert p.text() == "1/2*x"
        assert LaurentPoly({(("x", 1), ("x", 1)): 1}) == LaurentPoly.var("x", 2)
        assert LaurentPoly({(("x", 1), ("x", -1)): 1}) == 1

    def test_arithmetic(self):
        x = LaurentPoly.var("x")
        q = LaurentPoly.var("q")
        expr = (x + q) * (x - q)
        assert expr == x * x - q * q
        assert (expr - expr).is_zero

    def test_negative_exponents(self):
        qinv = LaurentPoly.var("q", -1)
        q = LaurentPoly.var("q")
        assert q * qinv == LaurentPoly.const(1)

    def test_substitute(self):
        p = x_var() * y_var(1, 3) + LaurentPoly.const(2)
        assert p.substitute({"x": 1, "y1": 1}) == LaurentPoly.const(3)
        partial = p.substitute({"x": Fraction(1, 2)})
        assert partial == LaurentPoly.var("y1") * Fraction(1, 2) + 2

    def test_substitute_zero_with_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.var("q", -1).substitute({"q": 0})

    def test_text_is_sorted(self):
        p = LaurentPoly.var("y2") + LaurentPoly.var("alpha1") + 1
        assert p.text() == "1 + 1*alpha1 + 1*y2"


class TestLoopScalars:
    def test_neglect(self):
        assert loop_scalar(LoopRecord({1: 2}), NEGLECT, 3) == LaurentPoly.const(1)

    def test_alpha(self):
        rec = LoopRecord({0: 1, 2: 2})
        assert loop_scalar(rec, ALPHA, 3) == alpha_var(2, 3) * alpha_var(2, 3)

    def test_xy(self):
        rec = LoopRecord({0: 1, 1: 1})
        want = x_var() * x_var() * y_var(1, 2)
        assert loop_scalar(rec, XY, 2) == want

    @pytest.mark.parametrize("record", [LoopRecord(), LoopRecord({1: 2})])
    def test_unknown_policy_rejected(self, record):
        with pytest.raises(ValueError, match="unknown loop policy"):
            loop_scalar(record, "bogus", 2)


class TestProducts:
    def test_policy_table_for_loop_with_bead(self):
        fam = family("jdn", 2, 2)
        t1 = lambda pol: from_word("t1", fam, pol)
        o1t1 = lambda pol: from_word("o1 t1", fam, pol)
        assert t1(XY) * o1t1(XY) == x_var() * y_var(1, 2) * t1(XY)
        assert t1(ALPHA) * o1t1(ALPHA) == alpha_var(1, 2) * t1(ALPHA)
        assert t1(NEGLECT) * o1t1(NEGLECT) == t1(NEGLECT)
        assert t1(XY) * t1(XY) == x_var() * t1(XY)

    def test_zero_coefficients_drop(self):
        fam = family("jdn", 2, 2)
        t1 = from_word("t1", fam, XY)
        s = t1 + from_word("o1", fam, XY) * 0
        assert s == t1
        assert (t1 - t1).is_zero

    def test_policy_mismatch_rejected(self):
        fam = family("jdn", 2, 2)
        with pytest.raises(ValueError):
            from_word("t1", fam, XY) * from_word("t1", fam, ALPHA)

    def test_products_refuse_in_non_associative_family(self):
        fam = family("trn", 3)
        assert not fam.spec.associative
        a = from_word("e1 p1", fam, NEGLECT)   # words still evaluate
        with pytest.raises(ValueError, match="not associative"):
            a * a
        assert (a * 2 + a).terms == {next(iter(a.terms)): LaurentPoly.const(3)}

    def test_bilinearity(self):
        fam = family("jdn", 3, 2)
        els = closure(fam)
        rng = random.Random(2)
        for _ in range(40):
            a, b, c = (from_diagram(rng.choice(els), fam, ALPHA) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert c * (a + b) == c * a + c * b

    @pytest.mark.parametrize("policy", [NEGLECT, ALPHA, XY])
    def test_associativity_all_policies(self, policy):
        fam = family("jdn", 3, 2)
        els = closure(fam)
        rng = random.Random(5)
        for _ in range(60):
            a, b, c = (from_diagram(rng.choice(els), fam, policy) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_neglect_d1_is_plain_monoid_algebra(self):
        fam = family("brn", 3)
        els = closure(fam)
        rng = random.Random(9)
        for _ in range(40):
            a = from_diagram(rng.choice(els), fam, NEGLECT)
            b = from_diagram(rng.choice(els), fam, NEGLECT)
            prod = a * b
            assert all(c == LaurentPoly.const(1) for c in prod.terms.values())


class TestBridges:
    def test_hop_bridge_expansion_at_d2(self):
        fam = family("cdn", 2, 2)
        eb = bridge_e(1, 2, fam, NEGLECT)
        half = Fraction(1, 2)
        want = (from_word("", fam, NEGLECT) * half
                + from_word("o1 o2", fam, NEGLECT) * half)
        assert eb == want

    def test_hop_bridge_idempotent(self):
        fam = family("cdn", 3, 3)
        eb = bridge_e(1, 2, fam, NEGLECT)
        assert equal(eb * eb, eb)

    def test_bead_transport_through_bridges(self):
        fam = family("jdn", 3, 3)
        eb = bridge_e(1, 2, fam, ALPHA)
        z1, z2 = from_word("o1", fam, ALPHA), from_word("o2", fam, ALPHA)
        assert equal(z1 * eb, z2 * eb)
        assert equal(z1 * eb, eb * z1)
        fb = bridge_f(1, fam, ALPHA)
        assert equal(z1 * fb, z2 * fb)
        assert equal(fb * z1, fb * z2)
        assert equal(z1 * fb, fb * z1)

    def test_rook_bridge_transport(self):
        fam = family("rprimedn", 3, 3)
        qb = bridge_q(2, fam, ALPHA)
        z2 = from_word("o2", fam, ALPHA)
        assert equal(z2 * qb, qb * z2)
        wb = bridge_w(3, 1, 2, fam, ALPHA)
        z1 = from_word("o1", fam, ALPHA)
        assert equal(z1 * wb, wb * z2)

    def test_cap_z_properties(self):
        fam = family("cdn", 2, 2)
        zc = cap_z(1, fam, NEGLECT)
        half = Fraction(1, 2)
        want = (from_word("", fam, NEGLECT) * half
                + from_word("o1", fam, NEGLECT) * (alpha_var(1, 2) * half))
        assert zc == want
        flat = specialize(zc, alpha_to_one(2))
        assert equal(flat * flat, flat)
        z1 = from_word("o1", fam, NEGLECT)
        assert equal(z1 * zc, zc * z1)

    def test_index_validation(self):
        fam = family("jdn", 3, 2)
        with pytest.raises(ValueError):
            bridge_e(2, 2, fam)
        with pytest.raises(ValueError):
            bridge_f(3, fam)
        with pytest.raises(ValueError):
            bridge_w(2, 3, 1, family("rprimedn", 3, 2))


class TestSpecialize:
    def test_bridge_collapses_to_identity(self):
        fam = family("cdn", 3, 3)
        eb = bridge_e(1, 2, fam, NEGLECT)
        flat = specialize(eb, beads_to_one=True)
        assert flat == one(fam, NEGLECT)

    def test_tied_bridge_collapses_to_tangle(self):
        fam = family("jdn", 3, 3)
        fb = bridge_f(1, fam, ALPHA)
        flat = specialize(fb, beads_to_one=True)
        assert flat == from_word("t1", fam, ALPHA)

    def test_full_specialization_is_multiplicative(self):
        fam = family("jdn", 3, 3)
        els = closure(fam)
        rng = random.Random(21)
        subs = alpha_to_one(3)
        for _ in range(60):
            a = from_diagram(rng.choice(els), fam, ALPHA)
            b = from_diagram(rng.choice(els), fam, ALPHA)
            lhs = specialize(a * b, subs, beads_to_one=True, policy=NEGLECT)
            rhs = (specialize(a, subs, beads_to_one=True, policy=NEGLECT)
                   * specialize(b, subs, beads_to_one=True, policy=NEGLECT))
            assert equal(lhs, rhs)

    def test_tie_erasure(self):
        from framoid.diagrams import erase_ties

        fam = family("tjn", 3)
        f1 = from_word("f1", fam, NEGLECT)
        t1 = from_word("t1", fam, NEGLECT)
        flat = specialize(f1, ties_off=True)
        (diag,) = flat.terms
        (t1_diag,) = t1.terms
        assert diag == erase_ties(t1_diag)
        assert equal(flat, specialize(t1, ties_off=True))


class TestEqualAndDump:
    def test_zero_terms_invisible(self):
        fam = family("jdn", 2, 2)
        t1 = from_word("t1", fam, ALPHA)
        s = t1 + from_word("o1", fam, ALPHA) * LaurentPoly()
        assert equal(s, t1)

    def test_dump_is_stable(self):
        fam = family("cdn", 2, 2)
        eb = bridge_e(1, 2, fam, NEGLECT)
        assert eb.dump() == (
            "1/2 * [n=2;d=2;blocks=[{t1,b1}:0,{t2,b2}:0]]"
            " + 1/2 * [n=2;d=2;blocks=[{t1,b1}:1,{t2,b2}:1]]")


# -- differential check of the accumulate-once products ----------------------
# ``loop_scalar_reference``, ``product_reference`` and ``substitute_reference``
# are the earlier implementations, kept verbatim (the product calls
# ``loop_scalar_reference``): loop scalars built by repeated products, every
# sum re-cleaned through the ``AlgebraElement`` constructor, substitution by
# repeated ``+``.

ZERO = LaurentPoly()


def loop_scalar_reference(record: LoopRecord, policy: str, d: int) -> LaurentPoly:
    """Convert removed loops to a coefficient under the given policy."""
    if policy == NEGLECT or record.is_empty:
        return ONE
    out = ONE
    if policy == ALPHA:
        for residue, mult in record.counts:
            term = alpha_var(residue, d)
            for _ in range(mult):
                out = out * term
        return out
    if policy == XY:
        out = out * LaurentPoly.var("x", record.total())
        for residue, mult in record.counts:
            term = y_var(residue, d)
            for _ in range(mult):
                out = out * term
        return out
    raise ValueError(f"unknown loop policy {policy!r}")


def product_reference(self, other):
    if isinstance(other, AlgebraElement):
        self._check_compatible(other)
        if not self.fam.spec.associative:
            raise ValueError(f"products in {self.fam.name} are not associative")
        d = self.fam.d
        drop = self.fam.drop_rook
        out: dict[BeadedDiagram, LaurentPoly] = {}
        for da, ca in self.terms.items():
            for db, cb in other.terms.items():
                dc, record = compose(da, db, drop_rook=drop)
                coeff = ca * cb * loop_scalar_reference(record, self.policy, d)
                total = out.get(dc, ZERO) + coeff
                if total.is_zero:
                    out.pop(dc, None)
                else:
                    out[dc] = total
        return AlgebraElement(self.fam, self.policy, out)
    # scalar action
    coeff = _coerce(other)
    return AlgebraElement(self.fam, self.policy,
                          {dg: c * coeff for dg, c in self.terms.items()})


def substitute_reference(self, subs) -> LaurentPoly:
    """Replace variables by exact rationals; unbound variables survive."""
    out = LaurentPoly()
    for mono, coeff in self.terms.items():
        factor = Fraction(coeff)
        left = []
        for var, exp in mono:
            if var in subs:
                value = Fraction(subs[var])
                if value == 0 and exp < 0:
                    raise ZeroDivisionError(f"{var}^{exp} at {var}=0")
                factor *= value ** exp
            else:
                left.append((var, exp))
        out = out + LaurentPoly({tuple(left): factor})
    return out


DIFF_FAMILIES = [("jdn", 3, 2), ("brdn", 3, 2), ("rprimedn", 2, 2)]
POLICIES = [NEGLECT, ALPHA, XY]
SUBSTITUTIONS = [{"x": 2}, {"alpha1": Fraction(-1, 3), "y1": 3},
                 {"x": Fraction(1, 2), "y1": 1, "alpha1": 1}]


def _assert_same_product(a, b):
    got, want = a * b, product_reference(a, b)
    assert got.terms == want.terms
    assert got.dump() == want.dump()
    return got


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name, n, d", DIFF_FAMILIES)
def test_product_matches_reference_on_basis_pairs(name, n, d, policy):
    fam = family(name, n, d)
    basis = [from_diagram(x, fam, policy) for x in closure(fam)]
    scaled = 0
    for a in basis:
        for b in basis:
            (coeff,) = _assert_same_product(a, b).terms.values()
            scaled += coeff != ONE
    # loops closed: NEGLECT turns each into 1, ALPHA and XY into a monomial
    assert (scaled > 0) == (policy != NEGLECT)


@pytest.mark.parametrize("name, n, d", DIFF_FAMILIES)
def test_product_and_substitute_match_reference_on_random_sums(name, n, d):
    fam = family(name, n, d)
    els = closure(fam)
    rng = random.Random(f"{name}{n}{d}")
    x, y1, a1 = x_var(), y_var(1, d), alpha_var(1, d)
    pool = [ONE, -ONE, ONE * Fraction(1, 2), x, -x, y1 * x, a1, a1 * y1 * Fraction(-2, 3),
            LaurentPoly.var("x", -1) + a1]

    def element(policy):
        total = AlgebraElement(fam, policy)
        for _ in range(rng.choice((2, 3))):
            total = total + from_diagram(rng.choice(els), fam, policy) * rng.choice(pool)
        return total

    for policy in POLICIES:
        for _ in range(200):
            a, b = element(policy), element(policy)
            for coeff in _assert_same_product(a, b).terms.values():
                for subs in SUBSTITUTIONS:
                    got, want = coeff.substitute(subs), substitute_reference(coeff, subs)
                    assert got == want and got.text() == want.text()
