"""Tests for the multiparameter Poisson algebra and its companions."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    admissible_from_names,
    mirror_word_matrix,
    poisson_sample,
    quantum_sample,
    quantum_sample_image,
    random_params,
    truncated,
)
from poisson_strata import algebra_an, cli
from poisson_strata.admissible import enumerate_admissible
from poisson_strata.algebra_an import (
    PoissonParams,
    an_varspec,
    build_an,
    consistency_check,
    iterated_presentation,
    k_basis,
    k_contains,
    k_derivation,
    level_eigen_elements,
    quotient_system,
    tail_element,
    verify_level_eigen_elements,
    verify_omega_identities,
)
from poisson_strata.exact_poly import LaurentPoly, format_poly, reduce_poly
from poisson_strata.poisson_core import PoissonStructure


def test_params_validation():
    with pytest.raises(ValueError):
        PoissonParams(2, [[0, 1], [1, 0]], [2, 3], [5, 7])  # not skew
    with pytest.raises(ValueError):
        PoissonParams(1, [[0]], [2], [2])  # p = q


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path",
    [path for folder in ("configs", "perfbench/configs") for path in sorted((ROOT / folder).glob("*.json"))],
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_params_from_ints_and_lists_equal_those_from_fractions_and_tuples(path):
    # The constructor stores any rationals as tuples of Fractions, so both
    # sides of every shipped config compare, hash and derive their matrix
    # alike whichever way their entries were written.
    config = cli.load_config(str(path))

    def loose(row):
        return [int(v) if v.denominator == 1 else v for v in row]

    for params in filter(None, (config.poisson, config.quantum)):
        other = type(params)(params.n, [loose(row) for row in params.gamma], loose(params.p), loose(params.q))
        assert other == params and hash(other) == hash(params)
        assert other.matrix == params.matrix
        for value in (other.gamma, *other.gamma, other.p, other.q):
            assert type(value) is tuple
        assert {type(v) for v in (*other.p, *other.q, *sum(other.gamma, ()))} <= {Fraction}


def test_defining_table_sample_entries():
    structure = build_an(poisson_sample())
    checks = {
        ("x1", "y1"): "5*y1*x1",
        ("x2", "y2"): "7*y2*x2 + 3*y1*x1",
        ("y1", "x2"): "-6*y1*x2",
        ("x1", "x2"): "3*x1*x2",
        ("y1", "y2"): "y1*y2",
        ("x1", "y2"): "2*x1*y2",  # factors print in variable order
    }
    for (a, b), text in checks.items():
        assert format_poly(structure.bracket(structure.generator(a), structure.generator(b))) == text


def test_single_pair_table():
    params = PoissonParams(1, [[0]], [3], [4])
    structure = build_an(params)
    assert len(structure.table) == 1
    assert structure.entry(0, 1) == LaurentPoly.monomial(structure.varspec, {"y1": 1, "x1": 1}, -4)


def test_jacobi_for_samples_and_random():
    assert build_an(poisson_sample()).jacobi_check() == []
    assert build_an(quantum_sample_image()).jacobi_check() == []
    rng = random.Random(9)
    for n in (1, 2, 3):
        for _ in range(5):
            assert build_an(random_params(n, rng)).jacobi_check() == []


def test_matrix_evaluates_one_word_per_pair():
    # the matrix evaluates pair_word only for a < b, then the inverse of
    # each value and the empty word: both sides equal the full evaluation
    rng = random.Random(31)
    sides = [poisson_sample(), *(random_params(n, rng) for n in range(6))]
    sides += [quantum_sample(n) for n in range(4)] + [quantum_sample_image(n) for n in range(4)]
    for params in sides:
        assert params.matrix == mirror_word_matrix(params)


def test_omega_values():
    params = poisson_sample()
    vs = an_varspec(2)
    assert tail_element(params, 0, LaurentPoly, vs).is_zero()
    assert format_poly(tail_element(params, 2, LaurentPoly, vs)) == "4*y2*x2 + 3*y1*x1"
    with pytest.raises(IndexError):
        tail_element(params, 3, LaurentPoly, vs)


def test_omega_identity_report():
    for params in (poisson_sample(), quantum_sample_image(3)):
        report = verify_omega_identities(params)
        assert report["ok"], report["failures"]


def test_omega_identity_report_names_residuals(monkeypatch):
    # the structure of q2 = 8 checked against q2 = 7: Omega2 and both
    # solvings of the second pair's relation fail, each by its residual
    params = poisson_sample()
    other = PoissonParams(2, params.gamma, params.p, (params.q[0], params.q[1] + 1))
    monkeypatch.setattr(algebra_an, "build_an", lambda _: build_an(other))
    report = verify_omega_identities(params)
    assert (report["ok"], report["identities_checked"]) == (False, 25)
    assert report["failures"] == [
        "Omega2 y2: residual 4*y2^2*x2",
        "Omega2 x2: residual -4*y2*x2^2",
        "O1 recursion: residual y2*x2",
        "O2 recursion: residual y2*x2",
    ]


def test_omega_scaling_bracket_examples():
    params = poisson_sample()
    structure = build_an(params)
    vs = structure.varspec
    y2 = structure.generator("y2")
    om1 = tail_element(params, 1, LaurentPoly, vs)
    om2 = tail_element(params, 2, LaurentPoly, vs)
    assert structure.bracket(y2, om1) == (y2 * om1).scale(-3)  # rate p2 for the later pair
    assert structure.bracket(om1, om2).is_zero()


def test_iterated_presentation_images():
    presentation = iterated_presentation(poisson_sample())
    spec2 = presentation.specs[1]
    vs1 = spec2.base.varspec
    assert spec2.alpha.images["y1"] == LaurentPoly.monomial(vs1, {"y1": 1}, 1)
    assert spec2.alpha.images["x1"] == LaurentPoly.monomial(vs1, {"x1": 1}, 2)
    assert spec2.beta.images["y1"] == LaurentPoly.monomial(vs1, {"y1": 1}, -6)
    assert spec2.beta.images["x1"] == LaurentPoly.monomial(vs1, {"x1": 1}, 3)
    assert spec2.c == -7
    assert spec2.u == LaurentPoly.monomial(vs1, {"y1": 1, "x1": 1}, -3)
    assert spec2.d == 3


def test_consistency_check_families():
    rng = random.Random(10)
    cases = [poisson_sample()]
    for n in (1, 2, 3):
        cases += [quantum_sample_image(n), random_params(n, rng)]
    for params in cases:
        assert consistency_check(params)["ok"]


def per_level_consistency(params):
    """The rebuild against `build_an` of every truncation, level by level,
    each level's pairs in (a, b) order: the first mismatch it meets."""
    presentation = iterated_presentation(params)
    for j in range(1, params.n + 1):
        direct = algebra_an.build_an(truncated(params, j))
        names = direct.varspec.names
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                residual = direct.entry(a, b) - presentation.structures[j].entry(a, b)
                if not residual.is_zero():
                    return {"ok": False, "level": j, "entry": (names[a], names[b]), "residual": format_poly(residual)}
    return {"ok": True, "levels": params.n}


def test_consistency_check_names_the_lowest_level_mismatch(monkeypatch, capsys):
    # (x1, y2) is a level-2 entry; (y1, x3) comes first in (a, b) order but
    # only appears at level 3, so the one top-level comparison must name the
    # level-2 entry, as the level-by-level comparison does
    real = algebra_an.build_an

    def corrupted(params):
        structure = real(params)
        vs, names = structure.varspec, structure.varspec.names
        table = dict(structure.table)
        for a, b in ((1, 2), (0, 5)):
            if b < len(names):
                table[(a, b)] = structure.entry(a, b) + LaurentPoly.monomial(vs, {names[a]: 1, names[b]: 1})
        return PoissonStructure(vs, table)

    params = quantum_sample_image(3)
    assert consistency_check(params) == per_level_consistency(params)
    assert per_level_consistency(params) == {"ok": True, "levels": 3}
    monkeypatch.setattr(algebra_an, "build_an", corrupted)
    expected = {"ok": False, "level": 2, "entry": ("x1", "y2"), "residual": "x1*y2"}
    for params in (quantum_sample_image(3), random_params(3, random.Random(12))):
        assert consistency_check(params) == per_level_consistency(params) == expected
    # `verify jacobi` names the same mismatch, and only when there is one
    assert cli.main(["--config", str(ROOT / "perfbench" / "configs" / "paired_n3.json"), "verify", "jacobi"]) == 1
    assert json.loads(capsys.readouterr().out)["details"] == {
        "generator_triples": True,
        "iterated_rebuild": False,
        "mismatch": "level 2, entry (x1, y2): residual x1*y2",
    }


def test_k_membership_and_action():
    params = poisson_sample()
    vs = an_varspec(2)
    f = LaurentPoly.monomial(vs, {"y1": 1, "x2": 1})
    assert k_derivation(params, (1, 1, 1, 1)).apply(f) == f.scale(2)
    assert k_derivation(params, (1, 2, 0, 3)).apply(LaurentPoly.variable(vs, "y2")).is_zero()
    assert k_contains(2, (1, 2, 0, 3)) is True
    with pytest.raises(ValueError):
        k_derivation(params, (1, 0, 1, 1))


def test_k_elements_are_poisson_derivations():
    from poisson_strata.poisson_core import derivation_residuals

    params = poisson_sample()
    structure = build_an(params)
    for h in k_basis(2):
        assert derivation_residuals(structure, k_derivation(params, h)) == []


def test_level_eigen_elements_values():
    f_vec, g_vec = level_eigen_elements(poisson_sample())
    assert f_vec == (1, 2, 1, 2)
    assert g_vec == (-6, 3, -7, 4)
    params1 = truncated(poisson_sample(), 1)
    f1, g1 = level_eigen_elements(params1)
    assert f1 == (1, params1.p[0] - 1)
    assert g1 == (-params1.q[0], params1.q[0] - params1.p[0])


def test_level_eigen_elements_verification():
    rng = random.Random(11)
    for params in (poisson_sample(), quantum_sample_image(3), random_params(2, rng)):
        report = verify_level_eigen_elements(params)
        assert report["ok"], report["failures"]


def test_log_canonical_matrix_entries():
    matrix = poisson_sample().matrix
    assert matrix[0][1] == -5  # (Y1, X1) = -q1
    assert matrix[1][2] == 2  # (X1, Y2) = p2 - gamma12
    size = len(matrix)
    for a in range(size):
        for b in range(size):
            assert matrix[a][b] == -matrix[b][a]


def test_matrix_is_table_without_tails():
    # Stripping the lower-pair tails from every bracket entry leaves exactly
    # the coefficient recorded in the attached matrix.
    for params in (poisson_sample(), quantum_sample_image(3)):
        structure = build_an(params)
        matrix = params.matrix
        names = structure.varspec.names
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                pair_mono = LaurentPoly.monomial(
                    structure.varspec, {names[a]: 1, names[b]: 1}, matrix[a][b]
                )
                tail = structure.entry(a, b) - pair_mono
                level = max(int(names[a][1:]), int(names[b][1:]))
                for mono in tail.terms:
                    touched = [k for k, e in enumerate(mono) if e]
                    assert all(names[k][1:].isdigit() and int(names[k][1:]) < level for k in touched)


def test_quotient_system_rules():
    params = poisson_sample()
    vs = an_varspec(2)
    t1 = admissible_from_names(2, ["y1", "Omega1"])
    system = quotient_system(params, t1)
    assert len(system.rules) == 1
    assert reduce_poly(tail_element(params, 1, LaurentPoly, vs), system).is_zero()

    t2 = admissible_from_names(2, ["Omega2"])
    system2 = quotient_system(params, t2)
    assert len(system2.rules) == 1
    rule = system2.rules[0]
    assert rule.lead == (0, 0, 1, 1)
    assert rule.replacement == LaurentPoly.monomial(vs, {"y1": 1, "x1": 1}, Fraction(-3, 4))

    empty = quotient_system(params, admissible_from_names(2, []))
    assert empty.rules == ()
    f = LaurentPoly.monomial(vs, {"y2": 2, "x1": 1})
    assert reduce_poly(f, empty) == f


def test_quotient_system_pair_rule_rhs_reduced():
    # With y1 killed, the third pair rule's right side loses its y1 x1 term
    # and must come out already in normal form.
    params = quantum_sample_image(3)  # q - p = (1, 2, 3)
    t_set = admissible_from_names(3, ["y1", "Omega1", "Omega3"])
    system = quotient_system(params, t_set)
    vs = an_varspec(3)
    pair3 = tuple(1 if name in ("y3", "x3") else 0 for name in vs.names)
    rules = {rule.lead: rule.replacement for rule in system.rules}
    assert set(rules) == {(1, 0, 0, 0, 0, 0), pair3}
    assert rules[pair3] == LaurentPoly.monomial(vs, {"y2": 1, "x2": 1}, Fraction(-2, 3))
    assert reduce_poly(tail_element(params, 3, LaurentPoly, vs), system).is_zero()


def test_quotient_reduction_is_ideal_stable():
    params = poisson_sample()
    structure = build_an(params)
    vs = structure.varspec
    for t_set in enumerate_admissible(2):
        system = quotient_system(params, t_set)
        for name in t_set.member_names():
            if name.startswith("Omega"):
                member = tail_element(params, int(name[5:]), LaurentPoly, vs)
            else:
                member = LaurentPoly.variable(vs, name)
            assert reduce_poly(member, system).is_zero()
            for g_name in vs.names:
                image = structure.bracket(member, structure.generator(g_name))
                assert reduce_poly(image, system).is_zero()
            for h in k_basis(2):
                assert reduce_poly(k_derivation(params, h).apply(member), system).is_zero()
