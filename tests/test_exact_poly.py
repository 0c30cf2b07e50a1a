"""Tests for the exact Laurent-polynomial layer and the group lattice analysis."""

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    divide_exact,
    draw_below,
    monomial_divides,
    packed_reduce,
    random_params,
    rebuild_reduce_poly,
    tuple_reduce_terms,
    unpacked_entry,
)
from poisson_strata.admissible import enumerate_admissible
from poisson_strata import exact_poly
from poisson_strata.algebra_an import quotient_system
from poisson_strata.cli import load_config
from poisson_strata.exact_poly import (
    LaurentPoly,
    ReductionRule,
    ReductionSystem,
    RewriteTable,
    StepBudget,
    StepBudgetExceeded,
    VarSpec,
    VarSpecMismatch,
    factor_rational,
    format_poly,
    group_analysis,
    monomial_code,
    monomial_key,
    reduce_packed,
    reduce_poly,
    rewrite_candidates,
)

VS2 = VarSpec(("y1", "x1", "y2", "x2"))
VS_L = VarSpec(("y1", "x1"), frozenset({"y1"}))


def random_poly(vs, rng, max_terms=4, max_degree=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vs))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return LaurentPoly(vs, terms)


def test_difference_of_squares():
    y1 = LaurentPoly.variable(VS2, "y1")
    x1 = LaurentPoly.variable(VS2, "x1")
    assert (y1 + x1) * (y1 - x1) == y1 * y1 - x1 * x1


def test_laurent_derivative_power_rule():
    f = LaurentPoly.monomial(VS_L, {"y1": -1, "x1": 1})
    expected = LaurentPoly.monomial(VS_L, {"y1": -2, "x1": 1}, -1)
    assert f.derivative("y1") == expected


def test_coefficient_arithmetic_collapses():
    m = {"y2": -1, "y1": 1, "x1": 1}
    vs = VarSpec(("y1", "x1", "y2"), frozenset({"y2"}))
    f = LaurentPoly.monomial(vs, m, Fraction(3, 4)) + LaurentPoly.monomial(vs, m, Fraction(1, 4))
    assert f == LaurentPoly.monomial(vs, m, 1)


def test_ring_axioms_random():
    rng = random.Random(0)
    specs = [VarSpec(tuple(f"v{k}" for k in range(2 * n))) for n in (1, 2, 3)]
    for _ in range(200):
        vs = specs[rng.randrange(3)]
        f, g, h = (random_poly(vs, rng, max_degree=6) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


VS_MIXED = VarSpec(("y1", "x1", "y2", "x2"), frozenset({"y1", "x2"}))


def product_reference(f, g):
    """The product as one Fraction product and one Fraction sum per term
    pair, f's terms outside and g's inside; a new monomial is appended and
    a sum of zero deleted."""
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if mono not in acc:
                acc[mono] = c1 * c2
            elif acc[mono] + c1 * c2:
                acc[mono] += c1 * c2
            else:
                del acc[mono]
    return acc


def product_operands(rng):
    """Pairs of Laurent polynomials over VS_MIXED: 0, 1, 2 or many terms,
    mixed denominators, negative exponents on y1 and x2, small exponents
    so that term pairs meet and cancel, and (a + b)(a - b) pairs."""
    def poly(size):
        terms = {}
        for _ in range(size):
            mono = tuple(
                rng.randint(-2, 2) if i in VS_MIXED.invertible_indices else rng.randint(0, 2)
                for i in range(4)
            )
            terms[mono] = Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 4, 6, 9]))
        return LaurentPoly(VS_MIXED, terms)

    pairs = []
    for _ in range(300):
        pairs.append((poly(rng.choice([0, 1, 2, 3, 7, 12])), poly(rng.choice([0, 1, 2, 3, 7, 12]))))
        a, b = poly(1), poly(1)
        pairs.append((a + b, a - b))
    return pairs


def test_product_matches_fraction_reference():
    pairs = product_operands(random.Random(31))
    cancelled = 0
    for f, g in pairs:
        product, expected = f * g, product_reference(f, g)
        assert product.terms == expected
        assert list(product.terms) == list(expected)
        assert all(type(c) is Fraction for c in product.terms.values())
        cancelled += len({tuple(a + b for a, b in zip(u, v)) for u in f.terms for v in g.terms}) > len(expected)
    assert cancelled > 100


def test_product_reference_sees_a_wrong_denominator(monkeypatch):
    plain = exact_poly.over_denominator
    monkeypatch.setattr(exact_poly, "over_denominator", lambda ints, d: plain(ints, 2 * d))
    pairs = product_operands(random.Random(31))
    assert any(product_reference(f, g) != (f * g).terms for f, g in pairs)
    a, b = LaurentPoly.variable(VS_MIXED, "y1"), LaurentPoly.monomial(VS_MIXED, {"x2": -1}, Fraction(1, 3))
    assert ((a + b) * (a - b)).terms != product_reference(a + b, a - b)


def test_power_multiplies_only_for_remaining_bits(monkeypatch):
    f = LaurentPoly(VS2, {(1, 0, 0, 0): Fraction(2), (0, 1, 1, 0): Fraction(-1, 3)})
    one = LaurentPoly.one(VS2)
    expected = {0: one, 1: f, 2: f * f, 5: f * f * f * f * f}
    calls = []
    plain_mul = LaurentPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    for n, muls in ((0, 0), (1, 0), (2, 1), (5, 3)):
        calls.clear()
        assert f ** n == expected[n]
        assert len(calls) == muls, n


def test_laurent_negative_power():
    g = LaurentPoly.monomial(VS_L, {"y1": 2}, Fraction(3))
    assert g ** -1 == LaurentPoly.monomial(VS_L, {"y1": -2}, Fraction(1, 3))
    assert g ** -3 == LaurentPoly.monomial(VS_L, {"y1": -6}, Fraction(1, 27))
    assert g ** -2 * g ** 2 == LaurentPoly.one(VS_L)


def test_canonical_form_drops_zeros():
    f = LaurentPoly(VS2, {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(0)})
    assert len(f.terms) == 1
    g = LaurentPoly.variable(VS2, "y1") - LaurentPoly.variable(VS2, "y1")
    assert g.is_zero() and g.terms == {}


def test_negative_exponent_rejected_without_flag():
    with pytest.raises(ValueError):
        LaurentPoly(VS2, {(-1, 0, 0, 0): Fraction(1)})


def test_killed_variable_makes_its_monomials_zero():
    vs = VarSpec(("y1", "x1", "y2"), frozenset({"y2"}), frozenset({"x1"}))
    assert vs.killed_indices == (1,) and vs.invertible_indices == {2}
    assert LaurentPoly.variable(vs, "x1").is_zero()
    assert LaurentPoly.monomial(vs, {"y1": 2, "x1": 1, "y2": -1}, 7).is_zero()
    f = LaurentPoly(vs, {(1, 1, 0): 3, (1, 0, -1): 2})
    assert f == LaurentPoly.monomial(vs, {"y1": 1, "y2": -1}, 2)
    assert (f * f).derivative("x1").is_zero()
    assert vs.extended("t").killed == {"x1"}
    # flags are part of the ring: the same names without the kill are another owner
    with pytest.raises(VarSpecMismatch):
        f + LaurentPoly.one(VarSpec(vs.names, vs.invertible))


def test_varspec_rejects_bad_kill_flags():
    with pytest.raises(ValueError):
        VarSpec(("y1", "x1"), frozenset({"y1"}), frozenset({"y1"}))
    with pytest.raises(KeyError):
        VarSpec(("y1", "x1"), killed=frozenset({"z"}))
    with pytest.raises(KeyError):
        VarSpec(("y1", "x1"), frozenset({"z"}))


def test_varspec_mismatch_raises():
    other = VarSpec(("a", "b"))
    with pytest.raises(VarSpecMismatch):
        LaurentPoly.one(VS2) + LaurentPoly.one(other)
    with pytest.raises(KeyError):
        LaurentPoly.one(VS2).derivative("zz")


def test_monomial_order_prefers_late_variables():
    # On equal total degree the pair monomial of the latest index dominates,
    # so y2*x2 beats y1*x1 and leads any tail combination.
    assert monomial_key((0, 0, 1, 1)) > monomial_key((1, 1, 0, 0))
    omega2 = LaurentPoly(VS2, {(1, 1, 0, 0): Fraction(3), (0, 0, 1, 1): Fraction(4)})
    assert omega2.leading_monomial() == (0, 0, 1, 1)


def test_reduce_single_step():
    # rule y1x1 -> -3/4 applied inside y1*x1^2 leaves -3/4 * x1
    rule = ReductionRule((1, 1, 0, 0), LaurentPoly.monomial(VS2, {}, Fraction(-3, 4)))
    system = ReductionSystem(VS2, (rule,))
    f = LaurentPoly.monomial(VS2, {"y1": 1, "x1": 2})
    assert reduce_poly(f, system) == LaurentPoly.monomial(VS2, {"x1": 1}, Fraction(-3, 4))


def test_reduce_no_rule_applies():
    rule = ReductionRule((1, 0, 0, 0), LaurentPoly.zero(VS2))
    system = ReductionSystem(VS2, (rule,))
    f = LaurentPoly.monomial(VS2, {"y2": 3})
    assert reduce_poly(f, system) is f
    table = system.rewrites(monomial_code(4, 3))
    packed = table.code.pack_terms(f.terms)
    assert reduce_packed(packed, table, 0) is packed
    assert reduce_packed(packed, table, 0, random.Random(1).getrandbits) is packed


def test_reduce_kills_variable():
    rule = ReductionRule((0, 1, 0, 0), LaurentPoly.zero(VS2))
    system = ReductionSystem(VS2, (rule,))
    assert reduce_poly(LaurentPoly.variable(VS2, "x1"), system).is_zero()


def test_reduce_idempotent_random():
    rng = random.Random(1)
    rules = (
        ReductionRule((0, 0, 1, 1), LaurentPoly.monomial(VS2, {"y1": 1, "x1": 1}, Fraction(-3, 4))),
        ReductionRule((2, 0, 0, 0), LaurentPoly.variable(VS2, "x1")),
    )
    system = ReductionSystem(VS2, rules)
    for _ in range(200):
        f = random_poly(VS2, rng)
        once = reduce_poly(f, system)
        assert reduce_poly(once, system) == once


def test_reduce_budget_guard():
    rule = ReductionRule((0, 0, 1, 1), LaurentPoly.monomial(VS2, {"y1": 1, "x1": 1}))
    # replacement of the same degree in lower variables is legal; an absurdly
    # small budget must trip on a long chain
    system = ReductionSystem(VS2, (rule, ReductionRule((1, 1, 0, 0), LaurentPoly.zero(VS2))))
    f = LaurentPoly.monomial(VS2, {"y2": 3, "x2": 3})
    with pytest.raises(StepBudgetExceeded, match="^exceeded 1 rewrite steps$"):
        reduce_poly(f, system, max_steps=1)


def test_step_budget_counts_every_charge_against_one_limit():
    budget = StepBudget(3, "term pairs")
    budget.charge(2)
    budget.charge()
    with pytest.raises(StepBudgetExceeded, match="^exceeded 3 term pairs$"):
        budget.charge()


def test_draw_below_makes_the_draws_of_choice():
    # Lengths at, just below and just above powers of two, where the
    # rejection loop redraws most often.
    ref_rng, rng = random.Random(5), random.Random(5)
    for n in list(range(1, 40)) + [63, 64, 65, 1000]:
        seq = range(n)
        for _ in range(50):
            assert seq[draw_below(rng.getrandbits, n)] == ref_rng.choice(seq)
    assert rng.getstate() == ref_rng.getstate()
    with pytest.raises(IndexError):  # never an endless redraw
        draw_below(rng.getrandbits, 0)


def core_reduce(f, system, max_steps=10**6, rng=None):
    """The packed loop on f's term map, drawing from rng's `getrandbits`."""
    return packed_reduce(f.terms, system, max_steps, None if rng is None else rng.getrandbits)


def assert_same_reduction(f, system, seed):
    # reduce_poly and the packed loop give the rebuild's normal form, term
    # for term in its order, and so does the rewrite loop on exponent-vector
    # keys; the packed loop's random steps draw as the rebuild's and that
    # loop's do, and leave the same rng state.  The packed loop hands back
    # its input when no rule applies (the rebuild returns f itself then) and
    # never changes it.
    before = list(f.terms.items())
    expected = rebuild_reduce_poly(f, system)
    got = reduce_poly(f, system)
    core = core_reduce(f, system)
    tuples = tuple_reduce_terms(f.terms, system)
    assert got == expected and list(got.terms) == list(expected.terms)
    assert list(core.items()) == list(expected.terms.items()) == list(tuples.items())
    assert (core is f.terms) == (got is f) == (expected is f) == (tuples is f.terms)
    ref_rng, core_rng, tuple_rng = random.Random(seed), random.Random(seed), random.Random(seed)
    for _ in range(2):
        expected = rebuild_reduce_poly(f, system, rng=ref_rng)
        core = core_reduce(f, system, rng=core_rng)
        tuples = tuple_reduce_terms(f.terms, system, bits=tuple_rng.getrandbits)
        assert list(core.items()) == list(expected.terms.items()) == list(tuples.items())
        assert core_rng.getstate() == ref_rng.getstate() == tuple_rng.getstate()
    assert list(f.terms.items()) == before


def test_reduce_matches_rebuild_reference():
    # The in-place rewrite must walk exactly the rebuild's paths: same normal
    # form, same term insertion order, same rng draws, for every quotient
    # system up to n = 3.
    rng = random.Random(21)
    systems = []
    for n in (1, 2, 3):
        for params in (random_params(n, rng), random_params(n, rng)):
            systems.extend(quotient_system(params, t) for t in enumerate_admissible(n))
    assert len(systems) == 2 * (4 + 14 + 48)
    unchanged = 0
    for system in systems:
        for _ in range(8):
            f = random_poly(system.varspec, rng, max_degree=rng.choice((3, 6)))
            assert_same_reduction(f, system, rng.randrange(10**6))
            unchanged += reduce_poly(f, system) is f
    assert 0 < unchanged < 8 * len(systems)  # both outcomes are covered


def monomials_up_to(width, degree):
    """Every exponent vector of `width` nonnegative entries summing to at most `degree`."""
    if width == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(degree + 1)
        for rest in monomials_up_to(width - 1, degree - e)
    ]


def expected_entry(system, code, mono):
    """Per rule whose lead divides mono, in system order, its packed targets
    mono - lead + u with their coefficients, in the replacement's order."""
    return tuple(
        tuple(
            (code.pack(tuple(e - d + f for e, d, f in zip(mono, rule.lead, u))), c)
            for u, c in rule.replacement.terms.items()
        )
        for rule in system.rules
        if monomial_divides(rule.lead, mono, system.varspec)
    )


def test_rewrite_table_lists_the_targets_of_the_dividing_rules():
    # For every quotient system up to n = 3 and every monomial of degree at
    # most 4, the table lists the packed targets of exactly the rules whose
    # lead divides the monomial, in system order; filling it changes neither
    # equality, hash nor repr.  Codes are shared, one per width and field
    # width.
    rng = random.Random(23)
    for n in (1, 2, 3):
        params = random_params(n, rng)
        monos = monomials_up_to(2 * n, 4)
        for t_set in enumerate_admissible(n):
            system = quotient_system(params, t_set)
            fresh = quotient_system(params, t_set)
            code = monomial_code(2 * n, 4)
            table = system.rewrites(code)
            assert table.code is code and code.bits == 8
            for mono in monos:
                assert table[code.pack(mono)] == expected_entry(system, code, mono)
            assert len(table) == len(monos) and not fresh.tables
            assert system.tables == {code: table} and system.rewrites(monomial_code(2 * n, 3)) is table
            assert system == fresh and hash(system) == hash(fresh)
            assert repr(system) == repr(fresh)


PAIRED_N3 = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n3.json"


@functools.cache
def table_monomials(code, reach):
    """The monomials within `reach`, what `code` was sized for: every one
    of total degree at most `reach`, and each variable alone at the top of
    its field."""
    high = code.bias - 1
    extremes = [
        tuple(v if i == p else 0 for i in range(code.width)) for p in range(code.width) for v in (high - 1, high)
    ]
    return monomials_up_to(code.width, reach) + extremes


def table_mismatches(table, system, reach=3):
    """The packed monomials within `reach` whose entry in `table` differs
    from the unpack-based entry of `oracles.unpacked_entry`."""
    code = table.code
    packed = map(code.pack, table_monomials(code, reach))
    return [x for x in packed if table[x] != unpacked_entry(table, system, x)]


# Leads at, below and above the bias (128) of an 8-bit field.  None of 128 or
# more divides a monomial of that code; the table leaves out the one above
# the bias, whose subtraction would borrow from the next field.
WIDE_LEADS = ReductionSystem(
    VS2,
    (
        ReductionRule((0, 127, 0, 0), LaurentPoly.monomial(VS2, {"y1": 1}, 2)),
        ReductionRule((0, 0, 128, 0), LaurentPoly.zero(VS2)),
        ReductionRule((1, 0, 0, 129), LaurentPoly.zero(VS2)),
        ReductionRule((1, 0, 0, 1), LaurentPoly.monomial(VS2, {"x1": 1})),
    ),
)


def lead_test_systems():
    """The 48 systems of paired_n3.json, the systems of `random_params` at
    n = 1, 2, 3, and WIDE_LEADS, each with its table for degree 3, the
    confluence suite's."""
    params = load_config(str(PAIRED_N3)).poisson
    systems = [quotient_system(params, t) for t in enumerate_admissible(3)]
    rng = random.Random(25)
    for n in (1, 2, 3):
        params = random_params(n, rng)
        systems.extend(quotient_system(params, t) for t in enumerate_admissible(n))
    systems.append(WIDE_LEADS)
    return [(system, system.rewrites(monomial_code(len(system.varspec), 3))) for system in systems]


def test_packed_lead_test_matches_the_unpacked_one():
    # On every monomial within each code's reach, and at the top of each
    # field, the lead test on the packed int lists the entry that unpacking
    # the monomial and comparing exponents lists.
    cases = lead_test_systems()
    assert len(cases) == 48 + 4 + 14 + 48 + 1
    assert {table.code.bits for _, table in cases} == {8}
    for system, table in cases:
        assert table_mismatches(table, system) == []
    assert len(cases[-1][1].rules) == 3


def test_a_lead_test_missing_one_field_is_caught():
    # Drop the top bit of any one needed field from a rule's mask: the
    # comparison with the unpacked test must then find a monomial it lists
    # wrongly, for every rule and field of the first 14 systems of
    # paired_n3.json.
    params = load_config(str(PAIRED_N3)).poisson
    mutants = 0
    for t_set in enumerate_admissible(3)[:14]:
        system = quotient_system(params, t_set)
        table = system.rewrites(monomial_code(6, 3))
        code = table.code
        assert len(table.rules) == len(system.rules)  # no lead passes a field
        for k, (subtrahend, mask, shifts) in enumerate(table.rules):
            for i in (i for i, e in enumerate(system.rules[k].lead) if e):
                rules = list(table.rules)
                rules[k] = (subtrahend, mask & ~(code.bias << code.offsets[i]), shifts)
                mutant = RewriteTable(code, tuple(rules))
                assert table_mismatches(mutant, system) != []
                mutants += 1
    assert mutants > 14


def signed_monomials(width, degree, invertible):
    """Every exponent vector of `width` entries whose absolute values sum to
    at most `degree`, negative only at the `invertible` indices."""
    return [
        m
        for m in itertools.product(range(-degree, degree + 1), repeat=width)
        if sum(map(abs, m)) <= degree and all(e >= 0 or i in invertible for i, e in enumerate(m))
    ]


def test_packed_order_is_the_term_order():
    # On every monomial of degree at most 4 at width 6, with negative
    # exponents on the invertible y's, and at each field's extremes, integer
    # order of the packed ints is the `monomial_key` order, and unpacking
    # gives the monomial back.
    monos = signed_monomials(6, 4, {0, 2, 4})
    assert len(monos) == 553
    for code in (monomial_code(6, 4), monomial_code(6, 200)):
        low, high = -code.bias, code.bias - 1
        extremes = [
            tuple(v if i == p else 0 for i in range(6)) for p in range(6) for v in (low, high, low + 1, high - 1)
        ] + [(high,) * 6, (low,) * 6, (low, high) * 3, (high, low) * 3]
        pool = monos + extremes
        packed = {m: code.pack(m) for m in pool}
        assert all(code.unpack(x) == m for m, x in packed.items())
        assert sorted(pool, key=monomial_key) == sorted(pool, key=packed.__getitem__)
        assert len(set(packed.values())) == len(pool)
        m, s = (1, 0, 2, 0, 0, 1), (-1, 3, 0, 0, 2, -1)
        assert code.pack(m) + code.shift(s) == code.pack(tuple(map(sum, zip(m, s))))


def test_packing_raises_instead_of_wrapping():
    # An exponent outside a field's range raises; nothing spills into the
    # neighbouring field.  Reductions pick a field wide enough for what they
    # can reach, the degree of the input.
    code = monomial_code(2, 3)
    assert code.bits == 8 and monomial_code(2, 127) is code and monomial_code(2, 128).bits == 16
    assert code.unpack(code.pack((127, -128))) == (127, -128)
    for mono in ((128, 0), (0, -129), (-200, 300)):
        with pytest.raises(ValueError, match="does not fit fields of 8 bits"):
            code.pack(mono)
    for mono in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="wrong arity for width 2"):
            code.pack(mono)
    system = ReductionSystem(
        VS2, (ReductionRule((1, 1, 0, 0), LaurentPoly.monomial(VS2, {"y2": 1}, Fraction(-1, 3))),)
    )
    f = LaurentPoly(VS2, {(300, 200, 0, 1): Fraction(2), (1, 1, 1, 1): Fraction(1)})
    assert reduce_poly(f, system) == rebuild_reduce_poly(f, system)
    assert reduce_poly(f, system).terms == {(100, 0, 200, 1): Fraction(2, 3**200), (0, 0, 2, 1): Fraction(-1, 3)}
    assert [table.code.bits for table in system.tables.values()] == [16]


def test_packed_loop_matches_the_tuple_loop_on_packed_inputs():
    # The confluence suite hands packed maps straight to the loop: on the
    # packed inputs of each quotient system at n = 3 the loop gives the
    # tuple loop's normal forms in their order, draws as it does and leaves
    # the same rng state.
    rng = random.Random(24)
    params = random_params(3, rng)
    for t_set in enumerate_admissible(3):
        system = quotient_system(params, t_set)
        code = monomial_code(6, 6)
        table = system.rewrites(code)
        for _ in range(10):
            f = random_poly(system.varspec, rng, max_degree=6)
            packed = {code.pack(m): c for m, c in f.terms.items()}
            seed = rng.randrange(10**6)
            packed_rng, tuple_rng = random.Random(seed), random.Random(seed)
            for bits in (None, packed_rng.getrandbits, packed_rng.getrandbits):
                out = reduce_packed(packed, table, 10**6, bits)
                expected = tuple_reduce_terms(f.terms, system, 10**6, bits and tuple_rng.getrandbits)
                assert list(code.unpack_terms(out).items()) == list(expected.items())
                assert (out is packed) == (expected is f.terms)
            assert packed_rng.getstate() == tuple_rng.getstate()


def test_a_listed_first_step_draws_as_the_loop_does():
    # The confluence suite lists an input's first-step candidates once and
    # hands the list to both random reductions: with it the loop gives the
    # same normal forms, in the same order, and leaves the same rng state as
    # the loop that lists them itself.  An empty list is exactly an input
    # that every reduction returns itself.
    rng = random.Random(26)
    params = random_params(3, rng)
    empty = 0
    for t_set in enumerate_admissible(3):
        system = quotient_system(params, t_set)
        table = system.rewrites(monomial_code(6, 3))
        for _ in range(20):
            f = random_poly(system.varspec, rng, max_degree=3)
            packed = table.code.pack_terms(f.terms)
            first = rewrite_candidates(packed, table)
            assert (reduce_packed(packed, table, 10**6) is packed) == (not first)
            empty += not first
            seed = rng.randrange(10**6)
            listed_rng, plain_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):
                listed = reduce_packed(packed, table, 10**6, listed_rng.getrandbits, first)
                plain = reduce_packed(packed, table, 10**6, plain_rng.getrandbits)
                assert list(listed.items()) == list(plain.items())
            assert listed_rng.getstate() == plain_rng.getstate()
    assert 0 < empty < 48 * 20


# x2 -> y2 + 2 x1 and x1 -> y1 - 1: the term order of a normal form shows
# which reducible term was rewritten first
ORDER_SYSTEM = ReductionSystem(
    VS2,
    (
        ReductionRule((0, 0, 0, 1), LaurentPoly(VS2, {(0, 0, 1, 0): 1, (0, 1, 0, 0): 2})),
        ReductionRule((0, 1, 0, 0), LaurentPoly(VS2, {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1})),
    ),
)


def test_a_listed_first_step_reduces_as_the_deterministic_loop_does():
    # The confluence suite hands the listed candidates to its deterministic
    # reduction too, whose first step is then the largest listed term by its
    # first rule: the same normal form, in the same order, as the loop that
    # scans the terms itself, and the input itself when the list is empty.
    rng = random.Random(27)
    params = random_params(3, rng)
    systems = [quotient_system(params, t_set) for t_set in enumerate_admissible(3)]
    for system in systems + [ORDER_SYSTEM] * 20:
        table = system.rewrites(monomial_code(len(system.varspec), 3))
        for _ in range(20):
            packed = table.code.pack_terms(random_poly(system.varspec, rng, max_degree=3).terms)
            first = rewrite_candidates(packed, table)
            listed = reduce_packed(packed, table, 10**6, None, first)
            assert list(listed.items()) == list(reduce_packed(packed, table, 10**6).items())
            assert (listed is packed) == (not first)


# y1 x2^2 -> x1 - y2 and x1 -> -2 y1: an input with x1 in two terms, or with
# y1 x2^2, needs more than one step, so a budget of one runs out on it
BUDGET_SYSTEM = ReductionSystem(
    VS2,
    (
        ReductionRule((1, 0, 0, 2), LaurentPoly(VS2, {(0, 1, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(-1)})),
        ReductionRule((0, 1, 0, 0), LaurentPoly(VS2, {(1, 0, 0, 0): Fraction(-2)})),
    ),
)


def test_reduce_budget_matches_rebuild_reference():
    rng = random.Random(22)
    exhausted = 0
    for _ in range(100):
        f = random_poly(VS2, rng)
        seed = rng.randrange(10**6)
        for reducer_rng in (None, seed):
            outcomes = []
            reducers = [
                rebuild_reduce_poly,
                core_reduce,
                lambda f, system, max_steps, rng: tuple_reduce_terms(f.terms, system, max_steps, rng and rng.getrandbits),
            ]
            if reducer_rng is None:  # reduce_poly takes only the deterministic step
                reducers.append(lambda f, system, max_steps, rng: reduce_poly(f, system, max_steps))
            for reducer in reducers:
                draw = None if reducer_rng is None else random.Random(reducer_rng)
                try:
                    result = reducer(f, BUDGET_SYSTEM, max_steps=1, rng=draw)
                    terms = getattr(result, "terms", result)
                    outcome = ("ok", list(terms.items()))
                except StepBudgetExceeded as exc:
                    outcome = ("budget", str(exc))
                outcomes.append((outcome, draw and draw.getstate()))
            assert all(outcome == outcomes[0] for outcome in outcomes)
            exhausted += outcomes[1][0][0] == "budget"
    assert exhausted > 20


def test_rule_validation():
    with pytest.raises(ValueError):
        # replacement does not decrease the order
        ReductionSystem(
            VS2,
            (ReductionRule((1, 0, 0, 0), LaurentPoly.monomial(VS2, {"x1": 1, "y1": 1})),),
        )
    with pytest.raises(ValueError):
        ReductionSystem(
            VS2,
            (
                ReductionRule((1, 0, 0, 0), LaurentPoly.zero(VS2)),
                ReductionRule((1, 0, 0, 0), LaurentPoly.zero(VS2)),
            ),
        )
    with pytest.raises(ValueError, match="cannot rewrite over inverted variables"):
        # a ring that inverts a variable, even with no rule
        ReductionSystem(VS_L, ())
    killed = VarSpec(("y1", "x1"), killed=frozenset({"x1"}))
    with pytest.raises(ValueError, match="touches a killed variable"):
        # a lead that is zero in the ring, so its rule would never apply
        ReductionSystem(killed, (ReductionRule((0, 1), LaurentPoly.generator(killed, "y1")),))


def test_rule_lead_must_be_ring_monomial():
    for lead in ((0, 1, 1), (0, -1, 0, 0)):
        with pytest.raises(ValueError):
            ReductionSystem(VS2, (ReductionRule(lead, LaurentPoly.zero(VS2)),))


def test_divide_exact_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        f = random_poly(VS2, rng)
        g = random_poly(VS2, rng)
        if g.is_zero():
            continue
        assert divide_exact(f * g, g) == f


def test_divide_exact_detects_non_multiples():
    y1 = LaurentPoly.variable(VS2, "y1")
    x1 = LaurentPoly.variable(VS2, "x1")
    assert divide_exact(y1 * y1 + x1, y1 + x1) is None


def test_prime_factor_roundtrip():
    rng = random.Random(3)
    for _ in range(1000):
        value = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        if value == 0:
            continue
        sign, exps = factor_rational(value)
        assert sign * math.prod(Fraction(p) ** e for p, e in exps.items()) == value
        assert all(e != 0 for e in exps.values())


def test_group_analysis_powers_of_two():
    result = group_analysis([Fraction(2), Fraction(8), Fraction(4), Fraction(32), Fraction(2)])
    assert result.lattice_rank == 1
    assert result.contains_minus_one is False


def test_group_analysis_independent_primes():
    result = group_analysis([Fraction(2), Fraction(3), Fraction(5), Fraction(7)])
    assert result.lattice_rank == 4
    assert result.contains_minus_one is False


def test_group_analysis_minus_one_via_quotient():
    result = group_analysis([Fraction(-2), Fraction(2)])
    assert result.lattice_rank == 1
    assert result.contains_minus_one is True


def test_group_analysis_sign_parity_is_arithmetic():
    # (-8)^a 4^b = -1 needs 3a + 2b = 0 with a odd, which has no solution,
    # while (-8)^1 2^-3 = -1 does exist.
    assert group_analysis([Fraction(-8), Fraction(4)]).contains_minus_one is False
    assert group_analysis([Fraction(-8), Fraction(2)]).contains_minus_one is True
    assert group_analysis([Fraction(-1)]).contains_minus_one is True
    with pytest.raises(ValueError):
        group_analysis([Fraction(0)])


def test_format_poly_stable():
    f = LaurentPoly(VS2, {(1, 1, 0, 0): Fraction(3), (0, 0, 1, 1): Fraction(-1, 2)})
    assert format_poly(f) == "-1/2*y2*x2 + 3*y1*x1"
    assert format_poly(LaurentPoly.zero(VS2)) == "0"


def test_arithmetic_builds_results_without_revalidation(monkeypatch):
    # Sums, products, negation, scaling and derivatives are closed over the
    # ring and build their results directly; only outside data is validated.
    rng = random.Random(21)
    pairs = [(random_poly(VS2, rng), random_poly(VS2, rng)) for _ in range(30)]
    admitted = []
    plain_admit = LaurentPoly._admit
    monkeypatch.setattr(
        LaurentPoly, "_admit", staticmethod(lambda vs, mono: admitted.append(mono) or plain_admit(vs, mono))
    )
    results = [
        value
        for f, g in pairs
        for value in (f + g, f - g, -f, f * g, f.scale(Fraction(-2, 3)), f.derivative("x1"))
    ]
    assert admitted == []
    for value in results:
        assert all(isinstance(c, Fraction) and c != 0 for c in value.terms.values())
        assert value == LaurentPoly(VS2, dict(value.terms))


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        LaurentPoly(VS2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        LaurentPoly.monomial(VS_L, {"x1": -1})
    with pytest.raises(ValueError):
        LaurentPoly.monomial(VS2, {"y1": 1}).monomial_inverse()
    with pytest.raises(ValueError):
        LaurentPoly.variable(VS_L, "x1").map_to(VarSpec(("x1", "y1"))) ** -1


def test_owner_checked_by_every_binary_operation():
    other = VarSpec(("y1", "x1", "y2", "x2"), frozenset({"y1"}))
    f, g = LaurentPoly.one(VS2), LaurentPoly.one(other)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(VarSpecMismatch):
            op()
    assert f != g
