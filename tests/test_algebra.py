"""Exact coefficients, loop policies, bridges, specialization."""

import random
from enum import IntEnum
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
from framoid.diagrams import (
    BeadedDiagram,
    LoopRecord,
    clear_memos,
    compose,
    erase_beads,
    identity,
)
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

    @pytest.mark.parametrize("value", [0, 2, -3, Fraction(1, 2), Fraction(4, 2)])
    def test_a_constant_hashes_as_the_value_it_equals(self, value):
        p = LaurentPoly.const(value)
        assert p == value and hash(p) == hash(value)
        assert {value: "found"}.get(p) == "found"
        assert {p: "found"}.get(value) == "found"


class TestExactScalarsOnly:
    """Only ``int``, ``Fraction`` and ``LaurentPoly`` are scalars: a float
    would be a binary fraction and a string would be parsed."""

    @pytest.mark.parametrize("value", [0.1, "2", 1.5])
    def test_polynomial_constructors_refuse(self, value):
        with pytest.raises(TypeError, match="not an exact scalar"):
            LaurentPoly({(): value})
        with pytest.raises(TypeError, match="not an exact scalar"):
            LaurentPoly.const(value)

    @pytest.mark.parametrize("exp", [2.9, 1.5, "3"])
    def test_monomial_exponents_refuse(self, exp):
        # int() would truncate 2.9 and 1.5 and parse "3"
        with pytest.raises(TypeError, match="not an integer exponent"):
            LaurentPoly.var("x", exp)
        with pytest.raises(TypeError, match="not an integer exponent"):
            LaurentPoly({(("x", exp),): 1})

    @pytest.mark.parametrize("value", [0.5, "2"])
    def test_substitute_refuses(self, value):
        with pytest.raises(TypeError, match="not an exact scalar"):
            x_var().substitute({"x": value})
        with pytest.raises(TypeError, match="not an exact scalar"):
            x_var().substitute({"q": value})   # also for an unbound variable

    @pytest.mark.parametrize("value", [1.5, "2", 2.0])
    def test_scalar_action_refuses(self, value):
        a = from_word("t1", family("jdn", 2, 2), XY)
        with pytest.raises(TypeError):
            a * value
        with pytest.raises(TypeError):
            value * a
        assert a.__mul__(value) is NotImplemented
        with pytest.raises(TypeError, match="not an exact scalar"):
            AlgebraElement(a.fam, XY, {next(iter(a.terms)): value})


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

    def test_each_scalar_is_built_once(self):
        first = loop_scalar(LoopRecord({0: 1, 1: 1}), XY, 2)
        assert loop_scalar(LoopRecord({1: 1, 0: 1}), XY, 2) is first
        # d is part of the key: residue 2 is alpha_0 = 1 at d = 2, alpha_2 at d = 3
        assert loop_scalar(LoopRecord({2: 1}), ALPHA, 2) == ONE
        assert loop_scalar(LoopRecord({2: 1}), ALPHA, 3) == alpha_var(2, 3)

    # each record is first built under every real policy, so a record whose
    # scalars are memoized is refused too: the policy is checked before the lookup
    @pytest.mark.parametrize("record", [LoopRecord(), LoopRecord({1: 2}),
                                        LoopRecord({0: 1, 1: 1})])
    def test_unknown_policy_rejected(self, record):
        for policy in (NEGLECT, ALPHA, XY):
            loop_scalar(record, policy, 2)
        with pytest.raises(ValueError, match="unknown loop policy"):
            loop_scalar(record, "bogus", 2)

    # each refusal is met once with the memo empty and once with the scalar of
    # d = 2 in it; alpha_var and y_var read d alike, though they have no memo
    @pytest.mark.parametrize("call", [
        lambda: loop_scalar(LoopRecord({1: 1}), ALPHA, 2.0),
        lambda: loop_scalar(LoopRecord({1: 1}), XY, 2.0),
        lambda: alpha_var(1, 2.0),
        lambda: y_var(1, 2.0),
    ], ids=["alpha", "xy", "alpha_var", "y_var"])
    def test_non_integral_d_is_refused_cold_and_warm(self, call):
        clear_memos()
        with pytest.raises(TypeError):
            call()
        for policy in (ALPHA, XY):
            loop_scalar(LoopRecord({1: 1}), policy, 2)
        with pytest.raises(TypeError):
            call()


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


def coefficient_pool(d):
    """1, -1, 1/2, monomials with coefficients 1, -1 and -2/3, and a
    two-term polynomial."""
    x, y1, a1 = x_var(), y_var(1, d), alpha_var(1, d)
    return [ONE, -ONE, ONE * Fraction(1, 2), x, -x, y1 * x, a1, a1 * y1 * Fraction(-2, 3),
            LaurentPoly.var("x", -1) + a1]


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
    pool = coefficient_pool(d)

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


# -- the unit and monomial paths of the polynomial product ---------------------

def poly_product_reference(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The generic sparse product: every term pair, each monomial made
    canonical by the constructor, summed by repeated ``+``."""
    out = LaurentPoly()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            out = out + LaurentPoly({m1 + m2: c1 * c2})
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_poly_product_matches_reference_on_every_pool_pair(d):
    pool = coefficient_pool(d) + [LaurentPoly(), LaurentPoly.var("x", -1)]
    for p in pool:
        for q in pool + [1, -1, 0, Fraction(1, 2)]:
            got, want = p * q, poly_product_reference(p, _coerce(q))
            assert got.terms == want.terms and got.text() == want.text(), (p, q)
            assert (q * p).terms == want.terms


def test_unit_products_share_an_operand_that_stays_unchanged():
    p = LaurentPoly.var("x", -1) + alpha_var(1, 2) * Fraction(-2, 3)
    before = dict(p.terms)
    for shared in (p * ONE, ONE * p, p * 1, Fraction(1) * p):
        assert shared == p
        for result in (shared + p, shared - p, shared * p, shared * x_var(), -shared,
                       shared.substitute({"x": 2}),
                       shared.substitute({"alpha1": Fraction(1, 3)})):
            assert result is not p and result is not ONE
    assert p * ONE is p and ONE * p is p
    assert p.terms == before
    assert ONE.terms == {(): 1} and ONE * ONE is ONE
    assert p.substitute({"q": 2}) is p    # no bound variable


@pytest.mark.parametrize("build,message", [
    (lambda: AlgebraElement(family("jdn", 2, 2), "beta"), "unknown loop policy 'beta'"),
    (lambda: bridge_q(0, family("rdn", 2, 2)), "rook index 0 out of range"),
    (lambda: bridge_q(3, family("rdn", 2, 2)), "rook index 3 out of range"),
    (lambda: cap_z(0, family("cdn", 2, 2)), "strand index 0 out of range"),
    (lambda: cap_z(3, family("cdn", 2, 2)), "strand index 3 out of range"),
], ids=["policy", "bridge_q-0", "bridge_q-n+1", "cap_z-0", "cap_z-n+1"])
def test_ill_posed_algebra_input_is_refused_with_todays_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# -- the lean product path: exact coefficients as given, one element builder --

def _specialize_reference(elem, subs, policy=None):
    """Substitute each coefficient by ``substitute_reference`` after erasing
    beads, summed by repeated ``+`` and re-cleaned by the constructor."""
    out = {}
    for diag, coeff in elem.terms.items():
        diag = erase_beads(diag)
        out[diag] = out.get(diag, ZERO) + substitute_reference(coeff, subs)
    return AlgebraElement(elem.fam, policy or elem.policy, out)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name, n, d", [("jdn", 2, 2), ("rprimedn", 2, 2)])
def test_product_and_specialize_match_reference_on_every_closure_pair(name, n, d, policy):
    fam = family(name, n, d)
    els = closure(fam)
    pool = coefficient_pool(d) + [2, -3, Fraction(4, 2)]
    rng = random.Random(f"{name}{n}{d}{policy}")
    for x in els:
        for y in els:
            a = AlgebraElement(fam, policy, {x: rng.choice(pool)})
            b = from_diagram(y, fam, policy) * rng.choice(pool)
            for left, right in ((a, b), (a + b, b * rng.choice(pool) + a)):
                got = _assert_same_product(left, right)
                subs = rng.choice(SUBSTITUTIONS)
                special = specialize(got, subs, beads_to_one=True, policy=NEGLECT)
                want = _specialize_reference(got, subs, NEGLECT)
                assert special == want and special.dump() == want.dump()


class _Two(IntEnum):
    TWO = 2


class _Half(Fraction):
    pass


def test_coefficients_keep_the_exact_type_they_were_given():
    assert LaurentPoly.const(True).text() == "1"
    assert LaurentPoly({(): True}).text() == "1"
    for value, kind in ((True, int), (_Two.TWO, int), (_Half(1, 2), Fraction),
                        (2, int), (Fraction(2), Fraction), (Fraction(4, 2), Fraction)):
        for poly in (LaurentPoly.const(value), LaurentPoly({(("x", 1),): value})):
            (coeff,) = poly.terms.values()
            assert type(coeff) is kind and coeff == value
    two, frac_two = LaurentPoly.const(2), LaurentPoly.const(Fraction(2))
    assert two == frac_two and hash(two) == hash(frac_two) == hash(2)
    assert two.text() == frac_two.text() == "2"
    fam = family("jdn", 2, 2)
    x = identity(2, 2)
    product = AlgebraElement(fam, NEGLECT, {x: 2}) * AlgebraElement(fam, NEGLECT, {x: 3})
    assert type(product.terms[x].terms[()]) is int and product.dump() == (
        "6 * [n=2;d=2;blocks=[{t1,b1}:0,{t2,b2}:0]]")
    assert product == AlgebraElement(fam, NEGLECT, {x: Fraction(6)})


def test_loop_scalar_refuses_a_float_d_on_every_path():
    for record, policy in ((LoopRecord(), ALPHA), (LoopRecord({1: 1}), NEGLECT),
                           (LoopRecord({1: 1}), ALPHA)):
        with pytest.raises(TypeError):
            loop_scalar(record, policy, 2.0)


def test_specialize_checks_the_substitution_before_the_terms():
    fam = family("jdn", 2, 2)
    for elem in (AlgebraElement(fam, ALPHA, {}), from_word("t1", fam, ALPHA)):
        with pytest.raises(TypeError) as err:
            specialize(elem, {"x": 0.5})
        assert str(err.value) == "not an exact scalar (int or Fraction): 0.5"


def _two_algebras():
    return from_word("t1", family("jdn", 2, 2), ALPHA), from_word("t1", family("jdn", 2, 3), ALPHA)


@pytest.mark.parametrize("build,error,message", [
    (lambda: from_diagram(identity(2, 2), family("jdn", 2, 2), "bogus"),
     ValueError, "unknown loop policy 'bogus'"),
    (lambda: specialize(from_word("t1", family("jdn", 2, 2), ALPHA), {"x": 2},
                        policy="bogus"), ValueError, "unknown loop policy 'bogus'"),
    (lambda: from_word("t1", family("jdn", 2, 2), "bogus"),
     ValueError, "unknown loop policy 'bogus'"),
    (lambda: bridge_e(1, 2, family("cdn", 2, 2), "bogus"),
     ValueError, "unknown loop policy 'bogus'"),
    (lambda: _two_algebras()[0] * _two_algebras()[1],
     ValueError, "elements live in different algebras"),
    (lambda: _two_algebras()[0] + _two_algebras()[1],
     ValueError, "elements live in different algebras"),
    (lambda: from_word("t1", family("jdn", 2, 2), ALPHA) * from_word("t1", family("jdn", 2, 2), XY),
     ValueError, "elements live in different algebras"),
    (lambda: one(family("trn", 2), NEGLECT) * one(family("trn", 2), NEGLECT),
     ValueError, "products in trn are not associative"),
    (lambda: one(family("jdn", 2, 2), NEGLECT) * 2.5,
     TypeError, "unsupported operand type(s) for *: 'AlgebraElement' and 'float'"),
], ids=["from_diagram", "specialize", "from_word", "bridge", "mul-families", "add-families",
        "mul-policies", "trn-product", "float-scalar"])
def test_builder_path_refusals_keep_their_message(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


_JDN = "jdn(d=2,n=3)"
_ID3 = "{t1,b1}:0,{t2,b2}:0,{t3,b3}:0"


@pytest.mark.parametrize("term,message", [
    ("foo", f"term 'foo' is not a diagram of {_JDN}"),
    (identity(4, 2), "term BeadedDiagram('n=4;d=2;blocks=[%s,{t4,b4}:0]') "
                     "is not a diagram of %s" % (_ID3, _JDN)),
    (identity(3, 3), f"term BeadedDiagram('n=3;d=3;blocks=[{_ID3}]') is not a diagram of {_JDN}"),
    (identity(3, 2, tied=True), f"term BeadedDiagram('n=3;d=2;blocks=[{_ID3}];ties=[[0],[1],[2]]')"
                                f" is not a diagram of {_JDN}"),
], ids=["not-a-diagram", "other-n", "other-d", "tied"])
def test_a_term_of_another_algebra_is_refused(term, message):
    fam = family("jdn", 3, 2)
    for build in (lambda: AlgebraElement(fam, ALPHA, {term: 1}),
                  lambda: from_diagram(term, fam, ALPHA)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    # a term of the family itself is taken
    assert from_diagram(identity(3, 2), fam, ALPHA) == AlgebraElement(fam, ALPHA, {identity(3, 2): 1})
