"""Tests for the quantized algebra, PBW rewriting, and the quantum torus."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import defining_relations, quantum_sample
from poisson_strata.algebra_kn import (
    NCElement,
    QTorusElement,
    QuantumParams,
    QuantumTorus,
    format_nc,
    nc_multiply,
    torus_names,
)
from poisson_strata.algebra_an import generator_names, normality_failures, tail_element, tail_word
from poisson_strata.cli import load_config
from poisson_strata.exact_poly import StepBudget, StepBudgetExceeded, VarSpec
from poisson_strata.parser import eval_quantum, parse_expr


def gen(n, name):
    return NCElement.generator(n, name)


def torus_on(params, kill=(), invert=()):
    """The torus of `params` with the named generators killed and inverted."""
    return QuantumTorus(params, VarSpec(torus_names(params.n), frozenset(invert), frozenset(kill)))


def test_params_validation():
    with pytest.raises(ValueError):
        QuantumParams(1, [[1]], [2], [2])  # ratio 1
    with pytest.raises(ValueError):
        QuantumParams(1, [[1]], [-2], [2])  # ratio -1
    with pytest.raises(ValueError):
        QuantumParams(2, [[1, 2], [2, 1]], [2, 8], [4, 32])  # not mult. skew


def test_basic_rewrites():
    params = quantum_sample()
    assert format_nc(nc_multiply(params, gen(2, "x1"), gen(2, "y1"))) == "4*y1*x1"
    assert (
        format_nc(nc_multiply(params, gen(2, "x2"), gen(2, "y2")))
        == "32*y2*x2 + 2*y1*x1"
    )
    assert format_nc(nc_multiply(params, gen(2, "y2"), gen(2, "y1"))) == "1/2*y1*y2"


def test_pair_relation_verbatim_all_levels():
    for n in (1, 2, 3):
        params = quantum_sample(n)
        for i in range(1, n + 1):
            lhs = nc_multiply(params, gen(n, f"x{i}"), gen(n, f"y{i}"))
            expected = NCElement.monomial(
                params.n, {f"y{i}": 1, f"x{i}": 1}, params.q[i - 1]
            ) + tail_element(params, i - 1, NCElement, params.n)
            assert lhs == expected


def test_defining_relations_hold():
    for n in (1, 2, 3):
        params = quantum_sample(n)
        for label, combo in defining_relations(params):
            acc = NCElement.zero(n)
            for coeff, word in combo:
                acc = acc + nc_multiply(params, *(gen(n, w) for w in word)).scale(coeff)  # two letters
            assert acc.is_zero(), label


def test_generator_swaps_match_commutation_matrix():
    # Off the diagonal pairs, G_u G_v normalizes to s_uv G_v G_u exactly.
    params = quantum_sample(3)
    names = generator_names(3)
    smatrix = params.matrix
    for u in range(6):
        for v in range(6):
            if u <= v or (u == v + 1 and u % 2 == 1):
                continue  # ordered already, or the same-pair x y crossing
            product = nc_multiply(params, gen(3, names[u]), gen(3, names[v]))
            expected = NCElement.monomial(
                params.n, {names[v]: 1, names[u]: 1}, smatrix[u][v]
            )
            assert product == expected


def test_associativity_random_monomials():
    rng = random.Random(12)
    for n in (1, 2, 3):
        params = quantum_sample(n)
        width = 2 * n
        for _ in range(120):
            monos = []
            for _ in range(3):
                mono = [0] * width
                for _ in range(rng.randint(0, 4)):
                    mono[rng.randrange(width)] += 1
                monos.append(NCElement(n, {tuple(mono): Fraction(rng.randint(1, 5))}))
            f, g, h = monos
            assert nc_multiply(params, nc_multiply(params, f, g), h) == nc_multiply(
                params, f, nc_multiply(params, g, h)
            )


def test_degree_filtration_and_top_twist():
    params = quantum_sample(2)
    torus = torus_on(params)
    rng = random.Random(13)

    def random_element():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * 4
            for _ in range(rng.randint(0, 4)):
                mono[rng.randrange(4)] += 1
            terms[tuple(mono)] = Fraction(rng.randint(1, 5))
        return NCElement(2, terms)

    def leading(e):
        return max(e.terms, key=lambda m: (sum(m), m[::-1]))

    for _ in range(80):
        f, g = random_element(), random_element()
        prod = nc_multiply(params, f, g)
        degree = lambda e: max(map(sum, e.terms), default=0)
        assert degree(prod) <= degree(f) + degree(g)
        mf, mg = leading(f), leading(g)
        top = tuple(a + b for a, b in zip(mf, mg))
        expected = f.terms[mf] * g.terms[mg] * torus.twist(mf, mg)
        assert prod.terms[top] == expected


def test_omega_q_values():
    params = quantum_sample()
    om2 = tail_element(params, 2, NCElement, params.n)
    assert format_nc(om2) == "24*y2*x2 + 2*y1*x1"
    om1 = tail_element(params, 1, NCElement, params.n)
    assert len(om1.terms) == 1


def test_normality_scalars():
    params = quantum_sample(2)
    gens = [gen(2, name) for name in generator_names(2)]

    def product(f, g):
        return nc_multiply(params, f, g)

    for i in (1, 2):
        tail = tail_element(params, i, NCElement, 2)
        assert normality_failures(params, i, tail, gens, product, lambda t, g: product(g, t)) == []
        for j in range(1, 3):
            rate = params.q[j - 1] if j <= i else params.p[j - 1]
            assert params._evaluate(tail_word(params, i, 2 * j - 2)) == rate
            assert params._evaluate(tail_word(params, i, 2 * j - 1)) == 1 / rate


def test_step_budget_trips():
    params = quantum_sample(2)
    big = NCElement.monomial(2, {"x2": 3})
    other = NCElement.monomial(2, {"y2": 3})
    with pytest.raises(StepBudgetExceeded, match="^exceeded 2 rewrite steps$"):
        nc_multiply(params, big, other, StepBudget(2))


# Steps spent by each product of the first 50 `verify associativity` triples
# (seed 13, n = 3): (f g, (f g) h, g h, f (g h)).
_ASSOCIATIVITY_STEPS = [
    (0, 0, 0, 0), (0, 5, 5, 0), (2, 1, 0, 3), (0, 1, 1, 0), (0, 4, 4, 1),
    (1, 2, 0, 3), (0, 1, 1, 0), (1, 5, 4, 11), (1, 0, 0, 1), (0, 2, 2, 1),
    (0, 2, 2, 1), (1, 2, 2, 2), (0, 2, 2, 2), (0, 3, 0, 3), (8, 9, 1, 17),
    (0, 0, 0, 0), (0, 0, 0, 0), (0, 3, 3, 0), (0, 1, 1, 0), (0, 3, 3, 3),
    (12, 0, 0, 12), (0, 3, 3, 0), (0, 0, 0, 0), (1, 4, 4, 1), (3, 0, 0, 3),
    (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 1), (3, 10, 8, 19), (0, 0, 0, 0),
    (3, 3, 3, 16), (0, 13, 13, 0), (0, 0, 0, 0), (1, 8, 6, 16), (0, 0, 0, 0),
    (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 2, 0, 2), (1, 0, 0, 1),
    (0, 0, 0, 0), (2, 1, 1, 3), (0, 0, 0, 0), (4, 3, 1, 7), (0, 3, 3, 3),
    (0, 0, 0, 0), (0, 1, 0, 1), (0, 3, 3, 3), (0, 0, 0, 0), (2, 1, 1, 3),
]


def test_products_charge_their_block_crossings():
    # Each pass runs on one params object: the first fills its table of
    # tail crossings, the second reads it and must charge the same steps.
    from poisson_strata.cli import _WORD_LENGTHS, _random_monomial
    from poisson_strata.exact_poly import monomial_code

    params = quantum_sample(3)
    code, decoded = monomial_code(6, _WORD_LENGTHS[-1]), {}
    positions = 6, (6).bit_length()

    def product(f, g):
        budget = StepBudget()
        return nc_multiply(params, f, g, budget), budget.spent

    for _ in range(2):
        rng = random.Random(13)
        steps = []
        for _ in range(50):
            f, g, h = (_random_monomial(code, positions, decoded, rng) for _ in range(3))
            fg, fg_steps = product(f, g)
            gh, gh_steps = product(g, h)
            steps.append((fg_steps, product(fg, h)[1], gh_steps, product(f, gh)[1]))
        assert steps == _ASSOCIATIVITY_STEPS

    # the products of nf "(y1+x1+y2+x2)^8" on configs/quantum_n2.json
    params = quantum_sample(2)
    base = sum((gen(2, name) for name in generator_names(2)), NCElement.zero(2))
    for _ in range(2):
        out, steps = base, []
        for _ in range(7):
            out, spent = product(out, base)
            steps.append(spent)
        assert steps == [6, 23, 56, 110, 190, 301, 448]

    # a crossing with nothing to its right is free
    ordered = NCElement(2, {(1, 1, 1, 0): Fraction(2, 3), (0, 2, 0, 0): Fraction(-5)})
    assert product(ordered, gen(2, "x2"))[1] == 0
    assert product(gen(2, "y1"), gen(2, "x1"))[1] == 0


def test_tail_cut_short_by_the_budget_is_not_stored():
    # y3 crossing x3^2 charges one step and then expands the tail of
    # A = y1 x1^2 y2^2 x2 over the lower pairs, which charges seven more.
    f = NCElement(3, {(1, 2, 2, 1, 1, 2): Fraction(2, 3)})
    y3 = gen(3, "y3")
    cold, cold_budget = quantum_sample(3), StepBudget()
    expected = nc_multiply(cold, f, y3, cold_budget)
    assert cold_budget.spent == 8
    head = (1, 2, 2, 1, 1, 0)
    assert (head, 3) in cold.tail_crossings

    params = quantum_sample(3)
    for limit in range(1, 8):
        with pytest.raises(StepBudgetExceeded):
            nc_multiply(params, f, y3, StepBudget(limit))
        assert (head, 3) not in params.tail_crossings
    budget = StepBudget()
    assert nc_multiply(params, f, y3, budget) == expected
    assert budget.spent == 8
    assert params.tail_crossings == cold.tail_crossings
    # a warm repeat is served from the table and charges the same
    budget = StepBudget()
    assert nc_multiply(params, f, y3, budget) == expected
    assert budget.spent == 8


PAIRED_N3 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n3.json")
# rational parameters whose crossings grow large coefficients
RATIONAL_N3 = QuantumParams(
    3,
    [[1, Fraction(3, 5), Fraction(7, 2)], [Fraction(5, 3), 1, Fraction(11, 13)], [Fraction(2, 7), Fraction(13, 11), 1]],
    [Fraction(2, 3), Fraction(5, 7), Fraction(9, 4)],
    [Fraction(5, 11), Fraction(3, 2), Fraction(7, 5)],
)


@pytest.mark.parametrize("params", [load_config(PAIRED_N3).quantum, RATIONAL_N3], ids=["paired_n3", "rational_n3"])
def test_stored_tails_are_products_by_the_tail_element(params):
    # Each stored (head, i) entry is the PBW product of the monomial head
    # by O_{i-1}, term for term in the same order, with the crossings that
    # product charges, here on a fresh table.
    for expr in ("x3^7 y3^5 x2^4 y2^3 x1^2 y1", "(y1+x1+y2+x2+y3+x3)^5 (x3^3 y3^2 + x2^2 y1)"):
        eval_quantum(parse_expr(expr), params, 10**6)
    entries = {key: value for key, value in params.tail_crossings.items() if isinstance(key[0], tuple)}
    assert {i for _, i in entries} == {1, 2, 3}
    for (head, i), (terms, count) in entries.items():
        fresh, budget = QuantumParams(3, params.gamma, params.p, params.q), StepBudget()
        tail = tail_element(fresh, i - 1, NCElement, 3)
        product = nc_multiply(fresh, NCElement(3, {head: 1}), tail, budget)
        assert list(product.terms.items()) == list(terms.items())
        assert budget.spent == count


def test_commutation_matrix_entries():
    params = quantum_sample()
    smatrix = params.matrix
    assert smatrix[0][1] == Fraction(1, 4)  # (Y1, X1) = 1/q1
    assert smatrix[1][2] == 4  # (X1, Y2) = p2/gamma12
    for a in range(4):
        for b in range(4):
            assert smatrix[a][b] * smatrix[b][a] == 1


def test_torus_products():
    params = quantum_sample()
    torus = torus_on(params)
    x1, y1 = QTorusElement.generator(torus, "X1"), QTorusElement.generator(torus, "Y1")
    assert x1 * y1 == QTorusElement.monomial(torus, {"Y1": 1, "X1": 1}, 4)

    killed = torus_on(params, kill=["Y1"])
    assert QTorusElement.monomial(killed, {"Y1": 1, "X2": 1}).is_zero()

    inverted = torus_on(params, invert=["Y2"])
    lhs = QTorusElement.generator(inverted, "Y2") ** (-1) * QTorusElement.generator(inverted, "Y1")
    assert lhs == QTorusElement.monomial(inverted, {"Y1": 1, "Y2": -1}, 2)


def test_torus_inverse_is_two_sided():
    params = quantum_sample()
    torus = torus_on(params, invert=["Y1", "Y2"])
    m = QTorusElement.monomial(torus, {"Y1": 2, "Y2": 1}, Fraction(3, 7))
    inv = m ** (-1)
    assert m * inv == QTorusElement.one(torus)
    assert inv * m == QTorusElement.one(torus)


def test_torus_twist_is_bicharacter():
    params = quantum_sample(3)
    torus = torus_on(params, invert=[f"Y{i}" for i in (1, 2, 3)])
    rng = random.Random(14)
    for _ in range(200):
        u = tuple(rng.randint(-2, 3) for _ in range(6))
        u2 = tuple(rng.randint(-2, 3) for _ in range(6))
        v = tuple(rng.randint(0, 3) for _ in range(6))
        combined = tuple(a + b for a, b in zip(u, u2))
        assert torus.twist(combined, v) == torus.twist(u, v) * torus.twist(u2, v)
        assert torus.twist(v, combined) == torus.twist(v, u) * torus.twist(v, u2)


def test_torus_twist_matches_the_fraction_product():
    rng = random.Random(24)
    for n in (1, 2, 3):
        for _ in range(3):
            params = _random_params(rng, n)
            names = torus_names(n)
            torus = torus_on(params, invert=names)
            s = params.matrix
            for _ in range(40):
                u, v = (tuple(rng.randint(-4, 4) for _ in range(2 * n)) for _ in range(2))
                plain = Fraction(1)
                for a in range(2 * n):
                    for b in range(a):
                        plain *= s[a][b] ** (u[a] * v[b])
                assert torus.twist(u, v) == plain
                m = QTorusElement(torus, {u: Fraction(rng.randint(1, 9), rng.randint(1, 9))})
                assert m * m ** -1 == QTorusElement.one(torus)
                assert m ** -1 * m == QTorusElement.one(torus)


def test_torus_kill_invert_overlap_rejected():
    params = quantum_sample()
    with pytest.raises(ValueError):
        torus_on(params, kill=["Y1"], invert=["Y1"])
    with pytest.raises(KeyError):
        torus_on(params, kill=["Z9"])


def test_owner_mismatch_raises_for_tori_and_arities():
    from poisson_strata.exact_poly import VarSpecMismatch

    params = quantum_sample()
    plain, inverted = torus_on(params), torus_on(params, invert=["Y1"])
    a, b = QTorusElement.generator(plain, "Y1"), QTorusElement.generator(inverted, "X2")
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(VarSpecMismatch):
            op()
    # an equal torus built apart is the same owner
    apart = QTorusElement.generator(torus_on(params), "X2")
    assert a + apart == QTorusElement.monomial(plain, {"Y1": 1}) + QTorusElement.generator(plain, "X2")
    with pytest.raises(VarSpecMismatch):
        gen(2, "y1") + gen(3, "y1")
    with pytest.raises(VarSpecMismatch):
        gen(2, "y1") - gen(1, "y1")


def test_constructors_reject_bad_arity_and_negative_exponents():
    params = quantum_sample()
    torus = torus_on(params, invert=["Y2"])
    with pytest.raises(ValueError):
        NCElement(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        NCElement(2, {(0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        QTorusElement.monomial(torus, {"Y1": -1})
    with pytest.raises(ValueError):
        QTorusElement(torus, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        QTorusElement.generator(torus, "X1") ** -1
    assert QTorusElement(torus_on(params, kill=["X1"]), {(0, 1, 0, 0): 5}).is_zero()


def test_torus_power_multiplies_only_for_remaining_bits(monkeypatch):
    params = quantum_sample()
    torus = torus_on(params, invert=["Y1", "Y2"])
    g = QTorusElement.monomial(torus, {"Y1": 1, "X2": 1}, 3) + QTorusElement.generator(torus, "Y2")
    m = QTorusElement.monomial(torus, {"Y1": 2, "Y2": 1}, Fraction(3, 7))
    expected = {0: QTorusElement.one(torus), 1: g, 2: g * g, 5: g * g * g * g * g}
    inverse = m ** -1
    inverse_squared = inverse * inverse
    calls = []
    plain_mul = QTorusElement.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(QTorusElement, "__mul__", counting_mul)
    for e, muls in ((0, 0), (1, 0), (2, 1), (5, 3)):
        calls.clear()
        assert g ** e == expected[e]
        assert len(calls) == muls, e
    calls.clear()
    assert m ** -1 == inverse
    assert calls == []
    assert m ** -2 == inverse_squared
    assert len(calls) == 1


def test_nc_element_has_no_parameter_free_power():
    with pytest.raises(TypeError):
        gen(2, "y1") ** 2


# -- an independent oracle: letter-by-letter rewriting of words ---------------


def _rewrite_words(params, word):
    """Normal form of a word (a tuple of generator positions) as a map from
    exponent vectors to coefficients, found by rewriting the first descent
    of each word with the matching defining relation, one pair at a time."""
    names = generator_names(params.n)
    index = {name: k for k, name in enumerate(names)}
    rules = {}  # descent pair -> its replacement, solved from the relation
    for _, combo in defining_relations(params):
        terms = [(c, tuple(index[w] for w in ws)) for c, ws in combo]
        [(lead_c, lead)] = [(c, ws) for c, ws in terms if ws[0] > ws[1]]
        rules[lead] = [(-c / lead_c, ws) for c, ws in terms if ws != lead]
    pending = {tuple(word): Fraction(1)}
    normal = {}
    while pending:
        w, c = pending.popitem()
        descent = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if descent is None:
            mono = tuple(w.count(k) for k in range(len(names)))
            normal[mono] = normal.get(mono, 0) + c
            continue
        for coeff, pair in rules[w[descent : descent + 2]]:
            new = w[:descent] + pair + w[descent + 2 :]
            pending[new] = pending.get(new, 0) + c * coeff
    return {m: c for m, c in normal.items() if c}


def _word(mono):
    return tuple(k for k, e in enumerate(mono) for _ in range(e))


def _random_params(rng, n):
    """Parameters with non-power-of-two rational entries, p_i/q_i != +-1."""

    def scalar():
        return Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))

    gamma = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gamma[i][j] = scalar()
            gamma[j][i] = 1 / gamma[i][j]
    p, q = [], []
    for _ in range(n):
        pi, qi = scalar(), scalar()
        while pi / qi in (1, -1):
            qi = scalar()
        p.append(pi)
        q.append(qi)
    return QuantumParams(n, gamma, p, q)


def _rewrite_product(params, f, g):
    """The oracle's normal form of f g, summed term pair by term pair."""
    out = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            for mono, c in _rewrite_words(params, _word(mf) + _word(mg)).items():
                out[mono] = out.get(mono, 0) + cf * cg * c
    return {m: c for m, c in out.items() if c}


def _tail_shaped(f, n):
    """m - y_i - x_i + y_k x_k for the terms m of f and k < i: times an
    element with a y_i, its lead is a tail monomial of m's product."""
    for m in f:
        for i in range(1, n):
            if m[2 * i] and m[2 * i + 1]:
                for k in range(i):
                    shifted = list(m)
                    shifted[2 * i] -= 1
                    shifted[2 * i + 1] -= 1
                    shifted[2 * k] += 1
                    shifted[2 * k + 1] += 1
                    yield tuple(shifted)


def test_block_crossing_matches_word_rewriting_oracle():
    rng = random.Random(21)
    for n in (1, 2, 3):
        for _ in range(4):
            params = _random_params(rng, n)
            for _ in range(6):
                left, right = (
                    tuple(rng.randint(0, 6) if rng.random() < 0.5 else 0 for _ in range(2 * n))
                    for _ in range(2)
                )
                product = nc_multiply(params, NCElement(n, {left: 1}), NCElement(n, {right: 1}))
                assert product.terms == _rewrite_words(params, _word(left) + _word(right)), (left, right)

    # Sums with non-unit rational coefficients.  In every other case at
    # n > 1 one more term is added to the left operand, scaled so that its
    # product with the right operand cancels a monomial of the rest's: the
    # product's accumulator then sums that monomial to zero.  (At n = 1
    # there are no tails, and distinct term pairs never meet.)
    def element(n):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            mono = tuple(rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in range(2 * n))
            terms[mono] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))
        return terms

    cancelled = 0
    for n in (1, 2, 3):
        for _ in range(3):
            params = _random_params(rng, n)
            checked = []
            for trial in range(8):
                f, g = element(n), element(n)
                target = None
                if trial % 2 and n > 1:
                    rest = _rewrite_product(params, f, g)
                    for extra in _tail_shaped(f, n):
                        own = _rewrite_product(params, {extra: 1}, g)
                        shared = [m for m in own if m in rest]
                        if shared and extra not in f:
                            target = shared[0]
                            f[extra] = -rest[target] / own[target]
                            break
                expected = _rewrite_product(params, f, g)
                if target is not None:
                    assert target not in expected
                    cancelled += 1
                product = nc_multiply(params, NCElement(n, f), NCElement(n, g))
                assert product.terms == expected, (f, g)
                checked.append((f, g, expected))
            # Again on the table the trials filled: every tail crossing is
            # now read from it, and no entry is added.
            filled = dict(params.tail_crossings)
            assert n == 1 or any(isinstance(key[0], tuple) and value[0] for key, value in filled.items())
            for f, g, expected in checked:
                product = nc_multiply(params, NCElement(n, f), NCElement(n, g))
                assert product.terms == expected, (f, g)
            assert params.tail_crossings == filled
    assert cancelled >= 6


def test_block_crossing_is_one_step():
    # x2^200 y2 crosses one block: one budgeted step, with the tail's
    # products in the lower pair free of steps
    params = _random_params(random.Random(22), 2)
    x2_power = NCElement.monomial(2, {"x2": 200})
    product = nc_multiply(params, x2_power, gen(2, "y2"), StepBudget(1))
    assert product.terms == _rewrite_words(params, (3,) * 200 + (2,))
