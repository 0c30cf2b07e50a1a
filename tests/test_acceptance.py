"""Acceptance suite: one test per criterion, each printing a verdict line.

Every identity here is exact (zero tolerance); the verdict lines are echoed
in the terminal summary by conftest.py.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import (
    admissible_from_names,
    brute_force_admissible,
    double_extension_normal_element,
    growth_check,
    is_poisson_normal,
    poisson_sample,
    quantum_sample,
    quantum_sample_image,
    random_params,
    sample_weights,
)
from poisson_strata.admissible import (
    derived_sets,
    enumerate_admissible,
    eta_injectivity,
    stratum_label,
)
from poisson_strata.algebra_an import (
    an_varspec,
    build_an,
    consistency_check,
    iterated_presentation,
    k_basis,
    k_derivation,
    quotient_system,
    tail_element,
    verify_omega_identities,
)
from poisson_strata.algebra_kn import (
    NCElement,
    QuantumParams,
    nc_multiply,
)
from poisson_strata.correspondence import (
    GroupContainsMinusOne,
    group_character,
    nested_congruence_check,
    stratification_report,
    verify_poisson_stratum_map,
    verify_quantum_stratum_map,
)
from poisson_strata.exact_poly import (
    DEFAULT_STEP_BUDGET,
    LaurentPoly,
    VarSpec,
    group_analysis,
    reduce_poly,
    reduce_terms,
)
from poisson_strata.poisson_core import (
    DoubleExtensionSpec,
    PoissonDerivation,
    PoissonStructure,
    double_extend,
)

RESULT_LINES = []


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        line = f"criterion {number:2d} FAIL  {description}"
        RESULT_LINES.append(line)
        print(line)
        raise
    line = f"criterion {number:2d} PASS  {description}"
    RESULT_LINES.append(line)
    print(line)


def random_poly(vs, rng, max_terms=4, max_degree=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vs))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-4, 4))
    return LaurentPoly(vs, terms)


def test_criterion_01_bracket_axioms():
    with criterion(1, "defining table: antisymmetry, Leibniz, Jacobi on samples and 20 random sets per n"):
        rng = random.Random(101)
        cases = [poisson_sample(), quantum_sample_image()]
        for n in (1, 2, 3):
            cases.extend(random_params(n, rng) for _ in range(20))
        for params in cases:
            structure = build_an(params)  # validation runs the Jacobi check
            gens = [structure.generator(name) for name in structure.varspec.names]
            for i, a in enumerate(gens):
                assert structure.bracket(a, a).is_zero()
                for b in gens[i + 1:]:
                    assert structure.bracket(a, b) == -structure.bracket(b, a)
                    for c in gens:
                        lhs = structure.bracket(a * b, c)
                        assert lhs == a * structure.bracket(b, c) + b * structure.bracket(a, c)
            assert structure.jacobi_check() == []


def test_criterion_02_double_extension_examples():
    with criterion(2, "two-variable extension reproduces both worked examples"):
        vs = VarSpec(("b", "c"))
        base = PoissonStructure(vs, {})
        alpha = PoissonDerivation.scaling(vs, {"b": -2, "c": -2})
        beta = PoissonDerivation.scaling(vs, {"b": 2, "c": 2})  # -alpha
        u = LaurentPoly.monomial(vs, {"b": 1, "c": 1}, 4)
        spec = DoubleExtensionSpec(
            base, alpha, beta, Fraction(0), u, d=Fraction(-4), y_name="a", x_name="d"
        )
        ext = double_extend(spec)
        mono = lambda coeff, exps: LaurentPoly.monomial(ext.varspec, exps, coeff)
        assert ext.bracket(ext.generator("b"), ext.generator("c")).is_zero()
        assert ext.bracket(ext.generator("b"), ext.generator("a")) == mono(-2, {"b": 1, "a": 1})
        assert ext.bracket(ext.generator("c"), ext.generator("a")) == mono(-2, {"c": 1, "a": 1})
        assert ext.bracket(ext.generator("b"), ext.generator("d")) == mono(2, {"b": 1, "d": 1})
        assert ext.bracket(ext.generator("c"), ext.generator("d")) == mono(2, {"c": 1, "d": 1})
        assert ext.bracket(ext.generator("a"), ext.generator("d")) == mono(4, {"b": 1, "c": 1})

        empty = PoissonStructure(VarSpec(()), {})
        zero = PoissonDerivation.zero(VarSpec(()))
        plane = double_extend(
            DoubleExtensionSpec(empty, zero, zero, Fraction(0), LaurentPoly.one(VarSpec(())))
        )
        assert plane.bracket(plane.generator("y"), plane.generator("x")) == LaurentPoly.one(
            plane.varspec
        )


def test_criterion_03_admissible_counts():
    with criterion(3, "admissible counts 4, 14, 48, 164 match the brute-force filter"):
        expected = {1: 4, 2: 14, 3: 48, 4: 164}
        for n, count in expected.items():
            fast = enumerate_admissible(n)
            assert len(fast) == count
            assert fast == brute_force_admissible(n)


def test_criterion_04_tail_identities():
    with criterion(4, "tail-element bracket identities verified symbolically for n <= 3"):
        rng = random.Random(104)
        cases = [poisson_sample()]
        for n in (1, 2, 3):
            cases.append(quantum_sample_image(n))
            cases.append(random_params(n, rng))
        for params in cases:
            report = verify_omega_identities(params)
            assert report["ok"], report["failures"]


def test_criterion_05_confluence_and_stability():
    with criterion(5, "quotient rewriting: 1000 random inputs per stratum confluent; ideals bracket- and weight-stable"):
        rng = random.Random(105)
        for n in (1, 2, 3):
            params = quantum_sample_image(n)
            structure = build_an(params)
            vs = structure.varspec
            basis = k_basis(n)
            for t_set in enumerate_admissible(n):
                system = quotient_system(params, t_set)
                for _ in range(1000):
                    f = random_poly(vs, rng)
                    base = reduce_poly(f, system).terms
                    for _ in range(2):
                        other = reduce_terms(f.terms, system, DEFAULT_STEP_BUDGET, rng.getrandbits)
                        assert other == base
                for name in t_set.member_names():
                    if name.startswith("Omega"):
                        member = tail_element(params, int(name[5:]), LaurentPoly, vs)
                    else:
                        member = LaurentPoly.variable(vs, name)
                    assert reduce_poly(member, system).is_zero()
                    for g_name in vs.names:
                        image = structure.bracket(member, structure.generator(g_name))
                        assert reduce_poly(image, system).is_zero()
                    for h in basis:
                        moved = k_derivation(params, h).apply(member)
                        assert reduce_poly(moved, system).is_zero()


def test_criterion_06_growth_degrees():
    with criterion(6, "monomial-count growth degree equals 2n - length for every stratum, n <= 3"):
        for n in (1, 2, 3):
            for t_set in enumerate_admissible(n):
                report = growth_check(t_set, max_degree=12)
                assert report["ok"]
                assert report["measured_degree"] == stratum_label(t_set)["gk_dim"]


def test_criterion_07_eta_injectivity():
    with criterion(7, "killed-target assignment is injective for n <= 4"):
        for n in (1, 2, 3, 4):
            etas = {t: derived_sets(t).eta for t in enumerate_admissible(n)}
            assert eta_injectivity(etas) is True


def test_criterion_08_poisson_stratum_maps():
    with criterion(8, "Poisson stratum maps verify on every stratum for n <= 3, nesting congruent at n <= 4"):
        for n in (1, 2, 3):
            params = quantum_sample_image(n)
            for t_set in enumerate_admissible(n):
                report = verify_poisson_stratum_map(params, t_set)
                assert report["ok"], (n, t_set.member_names(), report["failures"])
        rng = random.Random(108)
        for params in [quantum_sample_image(n) for n in (1, 2, 3)] + [random_params(4, rng)]:
            etas = {t: derived_sets(t).eta for t in enumerate_admissible(params.n)}
            assert nested_congruence_check(params, etas)["ok"]


def test_criterion_09_quantum_stratum_maps():
    with criterion(9, "quantum stratum maps verify on every stratum for n <= 2 plus n = 3 spot checks"):
        for n in (1, 2):
            params = quantum_sample(n)
            for t_set in enumerate_admissible(n):
                report = verify_quantum_stratum_map(params, t_set)
                assert report["ok"], (n, t_set.member_names(), report["failures"])
        params3 = quantum_sample(3)
        empty = admissible_from_names(3, [])
        maximal = admissible_from_names(
            3, [name for i in (1, 2, 3) for name in (f"y{i}", f"x{i}", f"Omega{i}")]
        )
        for t_set in (empty, maximal):
            assert verify_quantum_stratum_map(params3, t_set)["ok"]


def test_criterion_10_pbw_normal_form():
    with criterion(10, "PBW product associative on 1000 random triples; pair relation rewrites verbatim"):
        rng = random.Random(110)
        per_n = {1: 334, 2: 333, 3: 333}
        for n, trials in per_n.items():
            params = quantum_sample(n)
            width = 2 * n
            for _ in range(trials):
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
            for i in range(1, n + 1):
                lhs = nc_multiply(
                    params, NCElement.generator(n, f"x{i}"), NCElement.generator(n, f"y{i}")
                )
                expected = NCElement.monomial(
                    n, {f"y{i}": 1, f"x{i}": 1}, params.q[i - 1]
                ) + tail_element(params, i - 1, NCElement, params.n)
                assert lhs == expected


def test_criterion_11_character_hypotheses():
    with criterion(11, "group character: sample transports exactly; rank and sign obstructions detected"):
        character = group_character(quantum_sample(), sample_weights())
        assert character.induced == quantum_sample_image()
        assert character.injective_on_group is True
        assert stratification_report(character, [])["phi"]["minus_one_in_group"] is False

        mixed = QuantumParams(2, [[1, 1], [1, 1]], [2, 5], [3, 7])
        weights = {2: Fraction(1), 3: Fraction(2), 5: Fraction(3), 7: Fraction(5)}
        assert group_character(mixed, weights).injective_on_group is False

        assert group_analysis([Fraction(-2), Fraction(2)]).contains_minus_one is True
        signed = QuantumParams(2, [[1, -2], [Fraction(-1, 2), 1]], [2, 4], [8, 16])
        try:
            group_character(signed, {2: Fraction(1)})
        except GroupContainsMinusOne as err:
            assert err.analysis.contains_minus_one is True
        else:
            raise AssertionError("minus one in the group was not detected")


def test_criterion_12_iterated_rebuild():
    with criterion(12, "iterated extension rebuild equals the direct table entry-exactly for n <= 3"):
        rng = random.Random(112)
        cases = [poisson_sample()]
        for n in (1, 2, 3):
            cases.append(quantum_sample_image(n))
            cases.append(random_params(n, rng))
        for params in cases:
            report = consistency_check(params)
            assert report["ok"], report


def test_criterion_13_normal_elements():
    with criterion(13, "scaled pair-plus-tail element detected Poisson normal with its eigen-equations"):
        vs = VarSpec(("b", "c"))
        base = PoissonStructure(vs, {})
        alpha = PoissonDerivation.scaling(vs, {"b": -2, "c": -2})
        beta = PoissonDerivation.scaling(vs, {"b": 2, "c": 2})  # -alpha
        u = LaurentPoly.monomial(vs, {"b": 1, "c": 1}, 4)
        spec = DoubleExtensionSpec(
            base, alpha, beta, Fraction(0), u, d=Fraction(-4), y_name="a", x_name="d"
        )
        ext = double_extend(spec)
        z = double_extension_normal_element(spec, ext)
        eigen = is_poisson_normal(ext, z)
        assert eigen is not None
        assert eigen["b"].is_zero() and eigen["a"].is_zero()

        params = poisson_sample()
        presentation = iterated_presentation(params)
        for j in (1, 2):
            level_spec = presentation.specs[j - 1]
            structure = presentation.structures[j]
            z = double_extension_normal_element(level_spec, structure)
            eigen = is_poisson_normal(structure, z)
            assert eigen is not None
            vs_j = structure.varspec
            assert eigen[f"y{j}"] == LaurentPoly.monomial(vs_j, {f"y{j}": 1}, level_spec.c)
            assert eigen[f"x{j}"] == LaurentPoly.monomial(vs_j, {f"x{j}": 1}, -level_spec.c)
            for name in level_spec.base.varspec.names:
                g = LaurentPoly.variable(vs_j, name)
                total = level_spec.alpha.images[name].map_to(vs_j) + level_spec.beta.images[
                    name
                ].map_to(vs_j)
                assert structure.bracket(g, z) == total * z


def test_criterion_14_primeness_smoke():
    with criterion(14, "1000 random nonzero normal-form pairs per stratum multiply to nonzero, n <= 2"):
        rng = random.Random(114)
        for n in (1, 2):
            params = quantum_sample_image(n)
            vs = an_varspec(n)
            for t_set in enumerate_admissible(n):
                system = quotient_system(params, t_set)
                for _ in range(1000):
                    left = reduce_poly(random_poly(vs, rng), system)
                    while left.is_zero():
                        left = reduce_poly(random_poly(vs, rng), system)
                    right = reduce_poly(random_poly(vs, rng), system)
                    while right.is_zero():
                        right = reduce_poly(random_poly(vs, rng), system)
                    assert not reduce_poly(left * right, system).is_zero()
