"""Tests for the bracket engine, extensions, localization, and normality."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    all_pairs_residuals,
    double_extension_normal_element,
    is_poisson_normal,
    jacobi_walk,
    jacobiator,
    localized,
    poisson_sample,
    quantum_sample_image,
    random_params,
    ring_poisson_target,
    truncated,
)
from poisson_strata import cli, poisson_core
from poisson_strata.admissible import enumerate_admissible
from poisson_strata.algebra_an import (
    PoissonParams,
    build_an,
    iterated_presentation,
    k_basis,
    k_derivation,
    tail_element,
)
from poisson_strata.correspondence import poisson_stratum_map
from poisson_strata.exact_poly import LaurentPoly, VarSpec, format_poly, monomial_code
from poisson_strata.poisson_core import (
    CompatibilityError,
    DoubleExtensionSpec,
    PoissonDerivation,
    PoissonStructure,
    derivation_residuals,
    double_extend,
    ore_extend,
)


def random_poly(vs, rng, max_terms=3, max_degree=4, laurent=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            k = rng.randrange(len(vs))
            if laurent and vs.is_invertible(k) and rng.random() < 0.3:
                mono[k] -= 1
            else:
                mono[k] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return LaurentPoly(vs, terms)


def bracket_oracle(structure, f, g):
    """Recursive Leibniz descent; independent of the biderivation formula.

    Peels one variable at a time off the left argument using
    {uv, h} = u{v, h} + v{u, h} and, on the right, antisymmetry; inverses
    unfold through {s^-1, h} = -s^-2 {s, h}.
    """
    vs = structure.varspec

    def mono_bracket(mono, coeff, other):
        indices = [k for k, e in enumerate(mono) if e]
        if not indices:
            return LaurentPoly.zero(vs)
        k = indices[0]
        e = mono[k]
        gen = LaurentPoly.variable(vs, vs.names[k])
        rest = list(mono)
        if e > 0:
            rest[k] -= 1
            left = gen
        else:
            rest[k] += 1
            left = gen.monomial_inverse()
        rest_poly = LaurentPoly(vs, {tuple(rest): coeff})
        if e > 0:
            gen_part = gen_bracket(k, other)
        else:
            gen_part = -(left * left) * gen_bracket(k, other)
        return left * mono_bracket(tuple(rest), coeff, other) + rest_poly * gen_part

    def gen_bracket(k, other):
        acc = LaurentPoly.zero(vs)
        for mono, coeff in other.terms.items():
            acc = acc + gen_mono(k, mono, coeff)
        return acc

    def gen_mono(k, mono, coeff):
        indices = [j for j, e in enumerate(mono) if e]
        if not indices:
            return LaurentPoly.zero(vs)
        j = indices[0]
        e = mono[j]
        gen = LaurentPoly.variable(vs, vs.names[j])
        rest = list(mono)
        rest[j] += -1 if e > 0 else 1
        rest_poly = LaurentPoly(vs, {tuple(rest): coeff})
        if e > 0:
            base = structure.entry(k, j)
        else:
            inv = gen.monomial_inverse()
            base = -(inv * inv) * structure.entry(k, j)
        left = gen if e > 0 else gen.monomial_inverse()
        return left * gen_mono(k, tuple(rest), coeff) + rest_poly * base

    acc = LaurentPoly.zero(vs)
    for mono, coeff in f.terms.items():
        acc = acc + mono_bracket(mono, coeff, g)
    return acc


def test_bracket_matches_recursive_oracle():
    structure = build_an(poisson_sample())
    rng = random.Random(4)
    for _ in range(60):
        f = random_poly(structure.varspec, rng)
        g = random_poly(structure.varspec, rng)
        assert structure.bracket(f, g) == bracket_oracle(structure, f, g)


def test_bracket_oracle_on_localization():
    structure = localized(build_an(poisson_sample()), ["y1", "y2"])
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(structure.varspec, rng, laurent=True)
        g = random_poly(structure.varspec, rng, laurent=True)
        assert structure.bracket(f, g) == bracket_oracle(structure, f, g)


def gradient_oracle(structure, f, g):
    """The biderivation formula from partial derivatives, entry by entry:
    the sum over i < j of table(i, j) (d_i f d_j g - d_j f d_i g)."""
    size = len(structure.varspec)
    df = [f.derivative(structure.varspec.names[i]) for i in range(size)]
    dg = [g.derivative(structure.varspec.names[i]) for i in range(size)]
    acc = LaurentPoly.zero(structure.varspec)
    for (i, j), t in structure.table.items():
        acc = acc + t * (df[i] * dg[j] - df[j] * dg[i])
    return acc


def oracle_agrees(structure, rng, trials=25):
    vs = structure.varspec
    for _ in range(trials):
        f = random_poly(vs, rng, laurent=True)
        g = random_poly(vs, rng, laurent=True)
        if structure.bracket(f, g) != gradient_oracle(structure, f, g):
            return False
    return True


# Fractional parameters, so R and the tails have mixed denominators.
FRACTIONAL = PoissonParams(
    3,
    [[0, Fraction(1, 2), -3], [Fraction(-1, 2), 0, Fraction(2, 3)], [3, Fraction(-2, 3), 0]],
    [Fraction(1, 3), 2, Fraction(-5, 4)],
    [Fraction(7, 5), Fraction(1, 2), 3],
)


def inverting_all(structure):
    return localized(structure, structure.varspec.names)


def test_bracket_kernel_matches_gradient_oracle_on_an():
    rng = random.Random(21)
    for n in (1, 2, 3):
        assert oracle_agrees(inverting_all(build_an(truncated(FRACTIONAL, n))), rng)


def stratum_targets():
    """The log-canonical algebra on the ring of each stratum map at n = 2,
    with its killed and inverted generators."""
    params = quantum_sample_image()
    return [ring_poisson_target(params, poisson_stratum_map(params, t).ring)[0] for t in enumerate_admissible(2)]


def test_bracket_kernel_matches_gradient_oracle_on_stratum_targets():
    rng = random.Random(22)
    targets = stratum_targets()
    assert any(t.varspec.killed for t in targets) and any(t.varspec.invertible for t in targets)
    for target in targets:
        assert oracle_agrees(target, rng, trials=10)


def test_bracket_kernel_matches_gradient_oracle_on_iterated_levels():
    rng = random.Random(23)
    levels = iterated_presentation(FRACTIONAL).structures[1:]
    assert any(len(entry.terms) > 1 for level in levels for entry in level.table.values())
    for level in levels:
        assert oracle_agrees(inverting_all(level), rng)


def mixed_denominators():
    """A table of no Poisson algebra: mixed denominators, negative
    exponents, and a rest entry on every pair, the outer pair (0, 2) too."""
    vs = VarSpec(("a", "b", "c"), frozenset({"a", "c"}))
    table = {
        (0, 1): LaurentPoly(vs, {(1, 1, 0): Fraction(1, 2), (0, 0, 2): Fraction(-2, 3)}),
        (0, 2): LaurentPoly(vs, {(1, 0, 1): Fraction(3, 5), (0, 0, 0): Fraction(1, 7)}),
        (1, 2): LaurentPoly(vs, {(-1, 2, 0): Fraction(5, 4)}),
    }
    return PoissonStructure(vs, table)


def test_bracket_kernel_matches_gradient_oracle_on_mixed_denominators():
    structure = mixed_denominators()
    assert structure.denominator == 420 and len(structure.rest) == 3
    assert oracle_agrees(structure, random.Random(24), trials=60)


def test_an_splits_into_log_matrix_and_tails():
    params = FRACTIONAL
    structure = build_an(params)
    assert structure.log_matrix == tuple(
        tuple(structure.denominator * c for c in row) for row in params.matrix
    )
    assert [(i, j) for i, j, _ in structure.rest] == [(2, 3), (4, 5)]
    for i, j, shifted in structure.rest:
        pair = [int(k in (i, j)) for k in range(len(structure.varspec))]
        tail = {
            tuple(e + p for e, p in zip(shift, pair)): Fraction(t, structure.denominator)
            for shift, t in shifted
        }
        expected = -tail_element(params, j // 2, LaurentPoly, structure.varspec)
        assert LaurentPoly(structure.varspec, tail) == expected


def mutated(structure, **derived):
    clone = PoissonStructure(structure.varspec, structure.table)
    for name, value in derived.items():
        object.__setattr__(clone, name, value)
    return clone


def test_gradient_oracle_catches_kernel_mutations():
    structure = inverting_all(build_an(FRACTIONAL))
    (i, j, ((shift, t), *others)), *rest = structure.rest
    flipped_tail = mutated(structure, rest=((i, j, ((shift, -t), *others)), *rest))
    wrong_denominator = mutated(structure, denominator=structure.denominator * 2)
    rng = random.Random(25)
    assert oracle_agrees(structure, rng)
    assert not oracle_agrees(flipped_tail, rng)
    assert not oracle_agrees(wrong_denominator, rng)


def test_bracket_properties_random():
    rng = random.Random(6)
    trials = {1: 200, 2: 400, 3: 400}
    for n, count in trials.items():
        structure = build_an(quantum_sample_image(n) if n != 2 else poisson_sample())
        for _ in range(count):
            f, g, h = (random_poly(structure.varspec, rng) for _ in range(3))
            assert structure.bracket(f, f).is_zero()
            assert structure.bracket(f * g, h) == f * structure.bracket(g, h) + g * structure.bracket(f, h)
            assert jacobiator(structure, f, g, h).is_zero()
            assert jacobiator(structure, f, f, g).is_zero()


ROOT = Path(__file__).resolve().parent.parent
POISSON_CONFIGS = [
    path
    for folder in ("configs", "perfbench/configs")
    for path in sorted((ROOT / folder).glob("*.json"))
    if cli.load_config(str(path)).poisson is not None
]


@pytest.mark.parametrize("path", POISSON_CONFIGS, ids=lambda path: str(path.relative_to(ROOT)))
def test_bracket_laws_on_the_sampled_triples_of_every_config(path):
    # 50 triples of `cli._random_terms` from seed 7, unpacked, on A_n of
    # each config with Poisson parameters (a paired one's through
    # `Config.poisson`): the kernel is antisymmetric, obeys the Leibniz rule
    # and has zero jacobiator.  `jacobi_check` proves the identity for the
    # algebra on generator triples; these triples test the kernel code.
    structure = cli.load_config(str(path)).poisson.an
    bracket, vs = structure.bracket, structure.varspec
    code = monomial_code(len(vs), cli._TERM_DEGREES[-1])
    rng = random.Random(7)
    for _ in range(50):
        f, g, h = (LaurentPoly._trusted(vs, code.unpack_terms(cli._random_terms(code, rng))) for _ in range(3))
        assert bracket(f, f).is_zero()
        assert bracket(f * g, h) == f * bracket(g, h) + g * bracket(f, h)
        assert jacobiator(structure, f, g, h).is_zero()


def test_corrupted_table_fails_jacobi():
    good = build_an(poisson_sample())
    table = dict(good.table)
    table[(0, 1)] = LaurentPoly.variable(good.varspec, "y2")
    failed = PoissonStructure(good.varspec, table).jacobi_check()
    assert [(a, b, c, format_poly(r)) for a, b, c, r in failed] == [
        ("y1", "x1", "y2", "-3*y2^2"),
        ("y1", "x1", "x2", "-4*y2*x2 - 3*y1*x1"),
        ("y1", "y2", "x2", "15*y1^2*x1 + 3*y1*y2"),
        ("x1", "y2", "x2", "-15*y1*x1^2 - 3*x1*y2"),
    ]
    message = "bracket table violates the Jacobi identity on (y1, x1, y2): residual -3*y2^2"
    with pytest.raises(ValueError) as err:
        PoissonStructure(good.varspec, table).validate()
    assert str(err.value) == message


def jacobi_mutations(structure):
    """The structure, then its table with every entry scaled by 3, with the
    entry (0, 1) replaced by the third generator, and with one more unit of
    the log coefficient of the non-tail pair (0, 2)."""
    vs, table = structure.varspec, structure.table
    yield structure
    yield PoissonStructure(vs, {key: entry.scale(3) for key, entry in table.items()})
    if len(vs) >= 4:
        third = LaurentPoly.variable(vs, vs.names[2])
        yield PoissonStructure(vs, {**table, (0, 1): third})
        log = LaurentPoly.monomial(vs, {vs.names[0]: 1, vs.names[2]: 1})
        yield PoissonStructure(vs, {**table, (0, 2): structure.entry(0, 2) + log})


def jacobi_cases():
    rng = random.Random(30)
    for path in POISSON_CONFIGS:
        yield str(path.relative_to(ROOT)), cli.load_config(str(path)).poisson.an
    for n in range(1, 6):
        for trial in range(3):
            yield f"random n={n} #{trial}", build_an(random_params(n, rng))
    for t_set, target in zip(enumerate_admissible(2), stratum_targets()):
        yield f"target {t_set.member_names()}", target


def test_jacobi_check_equals_the_rational_walk():
    # on A_n of every config, on random parameters and on the stratum
    # targets (killed and inverted generators), each as built and mutated:
    # the skipped triples never fail, and the integer sums agree with the
    # rational ones, residuals included; only the two corrupted tables fail
    failing = set()
    for label, structure in jacobi_cases():
        for kind, mutant in enumerate(jacobi_mutations(structure)):
            found = mutant.jacobi_check()
            assert found == jacobi_walk(mutant), (label, kind)
            if found:
                failing.add(kind)
    assert failing == {2, 3}


def test_jacobi_check_equals_the_rational_walk_off_the_algebras():
    # a rest entry on the outer pair (0, 2) only, and an entry on a killed
    # generator, whose unit the walk reads as zero
    vs = VarSpec(("a", "b", "c"))
    outer = PoissonStructure(
        vs, {(0, 1): LaurentPoly.monomial(vs, {"a": 1, "b": 1}), (0, 2): LaurentPoly.monomial(vs, {"b": 2})}
    )
    vs = VarSpec(("a", "b", "c"), killed=frozenset({"c"}))
    a = LaurentPoly.variable(vs, "a")
    on_killed = PoissonStructure(vs, {(0, 1): a, (0, 2): a})
    for structure in (mixed_denominators(), outer, on_killed):
        assert structure.jacobi_check() == jacobi_walk(structure) != []


def test_ore_extend_single_variable():
    vs = VarSpec(("y1",))
    base = PoissonStructure(vs, {})
    alpha = PoissonDerivation.scaling(vs, {"y1": -5})
    ext = ore_extend(base, "x1", alpha)
    y1 = ext.generator("y1")
    x1 = ext.generator("x1")
    assert ext.bracket(y1, x1) == LaurentPoly.monomial(ext.varspec, {"y1": 1, "x1": 1}, -5)


def test_ore_extend_trivial():
    structure = build_an(truncated(poisson_sample(), 1))
    ext = ore_extend(structure, "t", PoissonDerivation.zero(structure.varspec))
    t = ext.generator("t")
    for name in ("y1", "x1"):
        assert ext.bracket(ext.generator(name), t).is_zero()


def test_ore_extend_rejects_incompatible_pair():
    # {y,x} = 1 with alpha = 0 and delta = y d/dy: the compatibility residual
    # on (y, x) is delta({y,x}) - {delta y, x} - {y, delta x} - 0 = -1.
    vs = VarSpec(("y", "x"))
    base = PoissonStructure(vs, {(0, 1): LaurentPoly.one(vs)})
    delta = PoissonDerivation.scaling(vs, {"y": 1})
    with pytest.raises(CompatibilityError) as err:
        ore_extend(base, "z", PoissonDerivation.zero(vs), delta)
    assert err.value.pair == ("y", "x")
    assert err.value.residual == LaurentPoly.monomial(vs, {}, -1)


def test_ore_extend_rejects_alpha_that_is_not_a_poisson_derivation():
    # {y,x} = 1 with alpha = y d/dy: alpha({y,x}) - {alpha y, x} - {y, alpha x}
    # = -1 on (y, x); the zero delta would pass the compatibility condition
    vs = VarSpec(("y", "x"))
    base = PoissonStructure(vs, {(0, 1): LaurentPoly.one(vs)})
    with pytest.raises(CompatibilityError) as err:
        ore_extend(base, "z", PoissonDerivation.scaling(vs, {"y": 1}))
    assert str(err.value) == "alpha is not a Poisson derivation: residual on (y, x)"
    assert err.value.pair == ("y", "x")
    assert err.value.residual == LaurentPoly.monomial(vs, {}, -1)


def test_ore_extend_checks_alpha_before_compatibility():
    # alpha and delta both fail, delta on an earlier pair: the alpha walk
    # runs first, over all pairs, so its failure is the one raised
    vs = VarSpec(("y", "x", "t"))
    base = PoissonStructure(vs, {(1, 2): LaurentPoly.one(vs)})
    alpha = PoissonDerivation.scaling(vs, {"x": 1})
    delta = PoissonDerivation.scaling(vs, {"y": 1})
    with pytest.raises(CompatibilityError) as err:
        ore_extend(base, "z", alpha, delta)
    assert str(err.value) == "alpha is not a Poisson derivation: residual on (x, t)"
    assert err.value.pair == ("x", "t")


def test_monomial_bracket_formula_in_extension():
    # In any single extension, {a x^i, b x^j} expands through alpha and delta
    # with the x-degree dropping by at most one.
    presentation = iterated_presentation(poisson_sample())
    spec = presentation.specs[1]
    base_after_y = ore_extend(spec.base, spec.y_name, spec.alpha)
    vs_y = base_after_y.varspec
    beta_images = {nm: spec.beta.images[nm].map_to(vs_y) for nm in spec.base.varspec.names}
    beta_images[spec.y_name] = LaurentPoly.monomial(vs_y, {spec.y_name: 1}, spec.c)
    alpha = PoissonDerivation(vs_y, beta_images)
    delta_images = {nm: LaurentPoly.zero(vs_y) for nm in spec.base.varspec.names}
    delta_images[spec.y_name] = spec.u.map_to(vs_y)
    delta = PoissonDerivation(vs_y, delta_images)
    full = ore_extend(base_after_y, spec.x_name, alpha, delta)
    vs = full.varspec
    x_pos = vs.index(spec.x_name)
    rng = random.Random(7)
    for _ in range(40):
        a = random_poly(vs_y, rng, max_terms=2, max_degree=3).map_to(vs)
        b = random_poly(vs_y, rng, max_terms=2, max_degree=3).map_to(vs)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        x = LaurentPoly.variable(vs, spec.x_name)
        lhs = full.bracket(a * x**i, b * x**j)
        alpha_v = PoissonDerivation(vs, {nm: img.map_to(vs) for nm, img in alpha.images.items()} | {spec.x_name: LaurentPoly.zero(vs)})
        delta_v = PoissonDerivation(vs, {nm: img.map_to(vs) for nm, img in delta.images.items()} | {spec.x_name: LaurentPoly.zero(vs)})
        base_bracket = base_after_y.bracket(
            a.map_to(vs_y), b.map_to(vs_y)
        ).map_to(vs)
        rhs = (
            base_bracket
            + (b * alpha_v.apply(a)).scale(j)
            - (a * alpha_v.apply(b)).scale(i)
        ) * x ** (i + j)
        drop = (b * delta_v.apply(a)).scale(j) - (a * delta_v.apply(b)).scale(i)
        if i + j >= 1:
            rhs = rhs + drop * x ** (i + j - 1)
        else:
            assert drop.is_zero()
        assert lhs == rhs


def test_double_extension_paper_brackets():
    vs = VarSpec(("b", "c"))
    base = PoissonStructure(vs, {})
    alpha = PoissonDerivation.scaling(vs, {"b": -2, "c": -2})
    beta = PoissonDerivation.scaling(vs, {"b": 2, "c": 2})  # -alpha
    u = LaurentPoly.monomial(vs, {"b": 1, "c": 1}, 4)
    spec = DoubleExtensionSpec(base, alpha, beta, Fraction(0), u, d=Fraction(-4), y_name="a", x_name="d")
    ext = double_extend(spec)
    expected = {
        ("b", "c"): "0",
        ("b", "a"): "-2*b*a",
        ("c", "a"): "-2*c*a",
        ("b", "d"): "2*b*d",
        ("c", "d"): "2*c*d",
        ("a", "d"): "4*b*c",
    }
    for (left, right), text in expected.items():
        assert format_poly(ext.bracket(ext.generator(left), ext.generator(right))) == text
    z = double_extension_normal_element(spec, ext)
    assert format_poly(z) == "-4*a*d + 4*b*c"
    eigen = is_poisson_normal(ext, z)
    assert eigen is not None
    assert all(v.is_zero() for v in eigen.values())


def test_double_extension_constant_symplectic():
    empty = PoissonStructure(VarSpec(()), {})
    zero = PoissonDerivation.zero(VarSpec(()))
    ext = double_extend(DoubleExtensionSpec(empty, zero, zero, Fraction(0), LaurentPoly.one(VarSpec(()))))
    assert ext.bracket(ext.generator("y"), ext.generator("x")) == LaurentPoly.one(ext.varspec)


def test_double_extension_torus_case():
    vs = VarSpec(("t",))
    base = PoissonStructure(vs, {})
    zero = PoissonDerivation.zero(vs)
    ext = double_extend(DoubleExtensionSpec(base, zero, zero, Fraction(1), LaurentPoly.zero(vs)))
    y, x, t = ext.generator("y"), ext.generator("x"), ext.generator("t")
    assert ext.bracket(y, x) == LaurentPoly.monomial(ext.varspec, {"y": 1, "x": 1})
    assert ext.bracket(t, y).is_zero() and ext.bracket(t, x).is_zero()


def test_double_extension_invariant_violations():
    vs = VarSpec(("b",))
    base = PoissonStructure(vs, {})
    alpha = PoissonDerivation.scaling(vs, {"b": 1})
    beta = PoissonDerivation.scaling(vs, {"b": -1})  # -alpha
    u = LaurentPoly.variable(vs, "b")
    with pytest.raises(CompatibilityError) as err:
        # {b, u} = 0 but (alpha+beta)(b) u = 2 b^2 != 0: the compatibility
        # residual of the second single extension on (b, y)
        double_extend(DoubleExtensionSpec(base, alpha, alpha, Fraction(0), u))
    assert err.value.pair == ("b", "y")
    assert format_poly(err.value.residual) == "2*b^2"
    with pytest.raises(CompatibilityError) as err:
        # alpha(b) = b and beta(b) = 1 do not commute: (beta alpha - alpha
        # beta)(b) y is the derivation residual of the extended beta on (b, y)
        constant = PoissonDerivation(vs, {"b": LaurentPoly.one(vs)})
        double_extend(DoubleExtensionSpec(base, alpha, constant, Fraction(0), u))
    assert err.value.pair == ("b", "y")
    assert format_poly(err.value.residual) == "y"
    with pytest.raises(CompatibilityError):
        # c + d = 0
        DoubleExtensionSpec(base, alpha, beta, Fraction(-1), u, d=Fraction(1)).check()


def test_normal_elements_per_level():
    params = poisson_sample()
    presentation = iterated_presentation(params)
    for j in (1, 2):
        spec = presentation.specs[j - 1]
        structure = presentation.structures[j]
        z = double_extension_normal_element(spec, structure)
        assert z == -tail_element(params, j, LaurentPoly, structure.varspec)
        eigen = is_poisson_normal(structure, z)
        assert eigen is not None
        vs = structure.varspec
        yj = LaurentPoly.variable(vs, f"y{j}")
        xj = LaurentPoly.variable(vs, f"x{j}")
        assert eigen[f"y{j}"] == yj.scale(spec.c)
        assert eigen[f"x{j}"] == xj.scale(-spec.c)
        for name in spec.base.varspec.names:
            g = LaurentPoly.variable(vs, name)
            total = spec.alpha.images[name].map_to(vs) + spec.beta.images[name].map_to(vs)
            assert structure.bracket(g, z) == total * z


def test_not_normal_element():
    structure = build_an(poisson_sample())
    z = structure.generator("y1") + structure.generator("x2")
    assert is_poisson_normal(structure, z) is None
    with pytest.raises(ValueError):
        is_poisson_normal(structure, LaurentPoly.zero(structure.varspec))


def test_swap_presentation_orders():
    # A[y; alpha][x; beta] and A[x; beta|A][y; alpha'] carry the same bracket
    # once alpha' extends alpha by alpha'(x) = -c x, for beta(y) = c y.
    vs = VarSpec(("t",))
    base = PoissonStructure(vs, {})
    alpha = PoissonDerivation.scaling(vs, {"t": 2})
    c = Fraction(5)
    first = ore_extend(base, "y", alpha)
    beta_ext = PoissonDerivation.scaling(first.varspec, {"t": 3, "y": c})
    b1 = ore_extend(first, "x", beta_ext)

    beta_a = PoissonDerivation.scaling(vs, {"t": 3})
    second = ore_extend(base, "x", beta_a)
    alpha_ext = PoissonDerivation.scaling(second.varspec, {"t": 2, "x": -c})
    b2 = ore_extend(second, "y", alpha_ext)

    for a_name in ("t", "y", "x"):
        for b_name in ("t", "y", "x"):
            lhs = b1.bracket(b1.generator(a_name), b1.generator(b_name))
            rhs = b2.bracket(b2.generator(a_name), b2.generator(b_name))
            assert lhs == rhs.map_to(b1.varspec)


def test_localization_quotient_rule():
    structure = localized(build_an(poisson_sample()), ["y1", "y2"])
    vs = structure.varspec
    rng = random.Random(8)
    for _ in range(60):
        a = random_poly(vs, rng)
        b = random_poly(vs, rng)
        s = LaurentPoly.monomial(vs, {"y1": rng.randint(0, 2), "y2": rng.randint(0, 2)})
        t = LaurentPoly.monomial(vs, {"y1": rng.randint(0, 2), "y2": rng.randint(0, 2)})
        lhs = structure.bracket(a * s.monomial_inverse(), b * t.monomial_inverse())
        combo = (
            structure.bracket(a, b) * s * t
            - structure.bracket(a, t) * b * s
            - structure.bracket(s, b) * a * t
            + structure.bracket(s, t) * a * b
        )
        inv = (s * s * t * t).monomial_inverse()
        assert lhs == combo * inv


def test_localized_single_inverse_bracket():
    level1 = localized(build_an(truncated(poisson_sample(), 1)), ["y1"])
    y1_inv = LaurentPoly.monomial(level1.varspec, {"y1": -1})
    x1 = level1.generator("x1")
    assert level1.bracket(y1_inv, x1) == LaurentPoly.monomial(level1.varspec, {"y1": -1, "x1": 1}, 5)


def test_localize_nothing_is_identity():
    structure = build_an(poisson_sample())
    same = localized(structure, [])
    assert same.varspec == structure.varspec and same.table == structure.table


def test_localize_keeps_jacobi():
    assert localized(build_an(poisson_sample()), ["y1", "y2"]).jacobi_check() == []
    with pytest.raises(KeyError):
        localized(build_an(poisson_sample()), ["zz"])


def test_derivation_checks():
    params = poisson_sample()
    structure = build_an(params)
    vs = structure.varspec
    scaling = PoissonDerivation.scaling(vs, {"y1": 1, "x1": 1, "y2": 1, "x2": 1})
    assert derivation_residuals(structure, scaling) == []
    y1 = structure.generator("y1")
    hamiltonian = PoissonDerivation(vs, {g: structure.bracket(y1, structure.generator(g)) for g in vs.names})
    assert derivation_residuals(structure, hamiltonian) == []
    bad = PoissonDerivation(
        vs,
        {
            "y1": LaurentPoly.variable(vs, "x1"),
            "x1": LaurentPoly.zero(vs),
            "y2": LaurentPoly.zero(vs),
            "x2": LaurentPoly.zero(vs),
        },
    )
    # x1 d/dy1 is no Poisson derivation: each pair it fails is listed with
    # its residual, in generator order
    residuals = [(a, b, format_poly(r)) for a, b, r in derivation_residuals(structure, bad)]
    assert residuals == [
        ("y1", "x1", "-5*x1^2"),
        ("y1", "y2", "-x1*y2"),
        ("y1", "x2", "-9*x1*x2"),
        ("y2", "x2", "-3*x1^2"),
    ]


ROOT = Path(__file__).resolve().parent.parent


def same_residuals(structure, deriv, alpha=None):
    """`derivation_residuals`, asserted to name the pairs and residuals of
    the all-pairs walk, each residual term for term in its order."""
    got = derivation_residuals(structure, deriv, alpha)

    def items(found):
        return [(a, b, list(r.terms.items())) for a, b, r in found]

    assert items(got) == items(all_pairs_residuals(structure, deriv, alpha))
    return got


def presentation_checks(params):
    """The (structure, derivation, alpha) of every residual walk that
    `iterated_presentation` runs through `ore_extend`, four per level."""
    calls = []
    real = poisson_core.derivation_residuals

    def record(structure, deriv, alpha=None):
        calls.append((structure, deriv, alpha))
        return real(structure, deriv, alpha)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poisson_core, "derivation_residuals", record)
        iterated_presentation(params)
    assert len(calls) == 4 * params.n
    return calls


def shipped_and_random_params():
    shipped = [
        cli.load_config(str(path)).poisson
        for path in sorted([*(ROOT / "configs").glob("*.json"), *(ROOT / "perfbench" / "configs").glob("*.json")])
    ]
    rng = random.Random(31)
    return [params for params in shipped if params is not None] + [random_params(n, rng) for n in (1, 2, 3, 4, 5)]


def test_derivation_walk_skips_only_pairs_that_cannot_fail():
    # On every Poisson config shipped and on random parameters, the weight
    # derivations of `verify weights` and every extension check of the
    # iterated presentation name no pair, as the walk over every pair finds.
    cases = shipped_and_random_params()
    assert len(cases) == 6 + 5
    for params in cases:
        structure = params.an
        for h in k_basis(params.n):
            assert same_residuals(structure, k_derivation(params, h)) == []
        for structure, deriv, alpha in presentation_checks(params):
            assert same_residuals(structure, deriv, alpha) == []


def log_canonical_failures(structure, found):
    """The failing pairs of `found` whose table entry has no rest."""
    names = structure.varspec.names
    return {(a, b) for a, b, _ in found} - {(names[i], names[j]) for i, j, _ in structure.rest}


def test_derivation_walk_names_each_failure_of_a_mutant():
    # Three mutants on every case of the test above from n = 2, each of
    # which fails on a pair the walk must not skip: a non-scaling image of
    # y1, which fails on a log-canonical pair; a wrong weight on x2, which
    # fails on (y2, x2), the pair with a tail; and a wrong compatibility
    # image, delta scaling y1, which fails on a log-canonical pair although
    # a derivation test alone would pass it.  The walk names the all-pairs
    # walk's pairs and residuals.
    for params in shipped_and_random_params():
        if params.n < 2:
            continue
        structure = params.an
        vs = structure.varspec
        h = k_basis(params.n)[0]
        deriv = k_derivation(params, h)
        images = dict(deriv.images, y1=LaurentPoly.variable(vs, "x2"))
        assert log_canonical_failures(structure, same_residuals(structure, PoissonDerivation(vs, images)))
        weights = dict(zip(vs.names, h))
        weights["x2"] += 1
        assert ("y2", "x2") in [pair[:2] for pair in same_residuals(structure, PoissonDerivation.scaling(vs, weights))]
        top, delta, alpha = presentation_checks(params)[-1]
        assert alpha is not None and same_residuals(top, delta, alpha) == []
        images = dict(delta.images, y1=LaurentPoly.variable(top.varspec, "y1"))
        assert log_canonical_failures(top, same_residuals(top, PoissonDerivation(top.varspec, images), alpha))
