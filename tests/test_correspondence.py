"""Tests for the stratum maps, the parameter-group character, and the report."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import (
    admissible_from_names,
    apply_character,
    defining_relations,
    nested_pairs_walk,
    object_stratum_report,
    quantum_sample,
    quantum_sample_image,
    random_params,
    sample_weights,
)
from poisson_strata import algebra_an, algebra_kn, cli, correspondence
from poisson_strata.admissible import (
    count_nested_pairs,
    derived_sets,
    enumerate_admissible,
    stratum_poset,
)
from poisson_strata.algebra_an import (
    PoissonParams,
    an_varspec,
    build_an,
    generator_names,
    tail_coefficient,
    tail_element,
    tail_word,
)
from poisson_strata.algebra_kn import NCElement, QTorusElement, QuantumParams, power_product
from poisson_strata.correspondence import (
    GeneratorMap,
    GroupContainsMinusOne,
    apply_map,
    group_character,
    nested_congruence_check,
    parameter_group_generators,
    poisson_stratum_map,
    quantum_stratum_map,
    stratification_report,
    verify_poisson_stratum_map,
    verify_quantum_stratum_map,
)
from poisson_strata.exact_poly import LaurentPoly, format_terms, group_analysis
from poisson_strata.poisson_core import PoissonStructure

CONFIG_PAIRED = str(Path(__file__).resolve().parent.parent / "configs" / "paired_n2.json")
PAIRED_N3 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n3.json")
PAIRED_N4 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n4.json")


def empty_set(n):
    return admissible_from_names(n, [])


def full_set(n):
    names = []
    for i in range(1, n + 1):
        names += [f"y{i}", f"x{i}", f"Omega{i}"]
    return admissible_from_names(n, names)


def test_poisson_images_empty_set():
    params = quantum_sample_image()  # p=(1,3), q=(2,5)
    gmap = poisson_stratum_map(params, empty_set(2))
    vs = gmap.target.varspec
    assert gmap.images["y1"] == LaurentPoly.variable(vs, "Y1")
    assert gmap.images["y2"] == LaurentPoly.variable(vs, "Y2")
    assert gmap.images["x1"] == LaurentPoly.variable(vs, "X1")
    # weight (q2-p2)^-1 (q1-p1) = 1/2 on the correction term
    expected = LaurentPoly.variable(vs, "X2") + LaurentPoly.monomial(
        vs, {"Y2": -1, "Y1": 1, "X1": 1}, Fraction(-1, 2)
    )
    assert gmap.images["x2"] == expected


def test_poisson_image_previous_tail_in_set():
    params = quantum_sample_image()
    gmap = poisson_stratum_map(params, admissible_from_names(2, ["y1", "Omega1"]))
    vs = gmap.target.varspec
    assert gmap.images["x2"] == LaurentPoly.variable(vs, "X2")
    assert gmap.images["y1"].is_zero()  # Y1 is killed in the target


def test_poisson_image_own_tail_in_set():
    params = quantum_sample_image()
    gmap = poisson_stratum_map(params, admissible_from_names(2, ["Omega2"]))
    assert "X2" in gmap.ring.killed
    assert gmap.images["x2"] == LaurentPoly.monomial(
        gmap.one.owner, {"Y2": -1, "Y1": 1, "X1": 1}, Fraction(-1, 2)
    )
    assert all(gmap.ring.admit(m) for image in gmap.images.values() for m in image.terms)


def five_way_image(params, t_set, name, one):
    """The image of a source generator picked by case, the stratum quotient
    worked out by hand, over the ring of `one`: the reference for the one
    formula the maps read in the stratum ring."""
    cls, owner = type(one), one.owner
    kind, i = name[0], int(name[1:])
    if kind == "y":
        return cls.generator(owner, f"Y{i}")
    x = cls.generator(owner, f"X{i}")
    if i == 1 or t_set.omega_in[i - 2]:  # x_1, or the previous tail in T
        return x
    w = tail_coefficient(params, i - 1) / tail_coefficient(params, i)
    ordered = (
        cls.generator(owner, f"Y{i}") ** (-1)
        * cls.generator(owner, f"Y{i - 1}")
        * cls.generator(owner, f"X{i - 1}")
    )
    tail = ordered.scale(-w)
    return tail if t_set.omega_in[i - 1] else x + tail  # own tail in T, or neither


def test_images_match_the_five_way_reference():
    # The one formula, read in the stratum ring, gives each case's image on
    # both sides, for every admissible set up to n = 3; a set with y_i in T,
    # i >= 2, kills a Y_i whose tail image the map must not invert.  The
    # reference is formed in an algebra on the ring of the map; the map's
    # images hold the same terms over the empty set's owner.
    shape = lambda f: (type(f), f.terms)
    for n in (1, 2, 3):
        for params, stratum_map, build in (
            (quantum_sample_image(n), poisson_stratum_map, oracles.ring_poisson_target),
            (quantum_sample(n), quantum_stratum_map, oracles.ring_quantum_target),
        ):
            for t_set in enumerate_admissible(n):
                gmap = stratum_map(params, t_set)
                assert gmap.ring == oracles.stratum_varspec(t_set)
                assert all(image.owner is gmap.one.owner for image in gmap.images.values())
                assert list(gmap.images) == [f"{g}{i}" for i in range(1, n + 1) for g in "yx"]
                _, own = build(params, gmap.ring)
                assert {name: shape(f) for name, f in gmap.images.items()} == {
                    name: shape(five_way_image(params, t_set, name, own)) for name in gmap.images
                }


def test_stratum_maps_reject_a_set_of_another_n():
    for params, stratum_map in (
        (quantum_sample_image(2), poisson_stratum_map),
        (quantum_sample(2), quantum_stratum_map),
    ):
        for t_set in (empty_set(1), full_set(3)):
            with pytest.raises(ValueError, match="^admissible set and parameters disagree on n$"):
                stratum_map(params, t_set)


def test_both_maps_use_the_same_cases():
    pparams = quantum_sample_image()
    qparams = quantum_sample()
    for t_set in enumerate_admissible(2):
        pmap = poisson_stratum_map(pparams, t_set)
        qmap = quantum_stratum_map(qparams, t_set)
        # the same image shapes: each image has the same monomials on both sides
        assert {g: set(img.terms) for g, img in pmap.images.items()} == {
            g: set(img.terms) for g, img in qmap.images.items()
        }


def test_verify_poisson_all_strata_small_n():
    for n in (1, 2):
        params = quantum_sample_image(n)
        for t_set in enumerate_admissible(n):
            report = verify_poisson_stratum_map(params, t_set)
            assert report["ok"], (t_set.member_names(), report["failures"])


def test_verify_poisson_spot_checks_n3():
    params = quantum_sample_image(3)
    for t_set in (empty_set(3), full_set(3)):
        assert verify_poisson_stratum_map(params, t_set)["ok"]


def poisson_rest(entry):
    """`_stratum_report`'s arguments after the Poisson map, given the map,
    with `entry(a, b)` for the source bracket {g_a, g_b}."""
    return lambda gmap: (entry, gmap.target.bracket, "bracket pair ({}, {})")


def quantum_rest(products):
    """`_stratum_report`'s arguments after the quantum map, given the map,
    with `products` for the swapped products."""
    return lambda gmap: (lambda a, b: products[a, b], lambda u, v: v * u, "product pair ({1}, {0})")


def report_with(params, t_set, stratum_map, rest):
    """A verify function's report with the source values of `rest`, the
    seam through which a wrong table or product is checked."""
    gmap = stratum_map(params, t_set)
    return correspondence._stratum_report(params, gmap, *rest(gmap))


def test_poisson_failure_names_pair_and_residual():
    params = quantum_sample_image()
    source = params.an
    vs = source.varspec
    table = dict(source.table)
    table[(0, 1)] = table[(0, 1)] + LaurentPoly.monomial(vs, {"y1": 1, "x1": 1})  # {y1, x1}
    corrupted = PoissonStructure(vs, table)
    report = report_with(params, empty_set(2), poisson_stratum_map, poisson_rest(corrupted.entry))
    assert not report["ok"]
    assert report["failures"] == ["bracket pair (y1, x1): residual Y1*X1"]
    assert verify_poisson_stratum_map(params, empty_set(2))["ok"]


KILLS_Y1 = admissible_from_names(2, ["y1", "Omega1"])  # eta = (Y1,)


def test_poisson_failure_on_a_stratum_that_kills_generators():
    params = quantum_sample_image()
    source = params.an
    vs = source.varspec
    table = dict(source.table)
    # {y2, x2} += y1*x2 + 3*x1*x2; the first term dies with Y1
    table[(2, 3)] = table[(2, 3)] + LaurentPoly(vs, {(1, 0, 0, 1): 1, (0, 1, 0, 1): 3})
    corrupted = PoissonStructure(vs, table)
    report = report_with(params, KILLS_Y1, poisson_stratum_map, poisson_rest(corrupted.entry))
    assert report["failures"] == ["bracket pair (y2, x2): residual 3*X1*X2"]
    assert verify_poisson_stratum_map(params, KILLS_Y1)["ok"]


def test_quantum_failure_on_a_stratum_that_kills_generators():
    params = quantum_sample()
    products = params.swapped_products
    assert verify_quantum_stratum_map(params, KILLS_Y1)["ok"]
    # x2 y2 += y1*x2 + 2*x1*x2; the first term dies with Y1
    extra = NCElement(2, {(1, 0, 0, 1): 1, (0, 1, 0, 1): 2})
    corrupted = {**products, (2, 3): products[2, 3] + extra}
    report = report_with(params, KILLS_Y1, quantum_stratum_map, quantum_rest(corrupted))
    assert report["failures"] == ["product pair (x2, y2): residual 2*X1*X2"]


def test_target_bracket_skips_killed_generators(monkeypatch):
    # the stratum is checked in the empty set's algebra, whose bracket keeps
    # the images of a ring that kills Y1 inside that ring
    params = quantum_sample_image()
    gmap = poisson_stratum_map(params, KILLS_Y1)
    target = gmap.target
    assert gmap.ring.killed == {"Y1"} and gmap.ring.invertible == {"Y2"}
    assert target is poisson_stratum_map(params, empty_set(2)).target
    assert not target.varspec.killed
    for f, g in itertools.combinations(gmap.images.values(), 2):
        assert all(gmap.ring.admit(m) for m in target.bracket(f, g).terms)
    calls = []
    plain = LaurentPoly.derivative

    def counting(self, name):
        calls.append(name)
        return plain(self, name)

    monkeypatch.setattr(LaurentPoly, "derivative", counting)
    x1, y2 = target.generator("X1"), target.generator("Y2")
    assert target.bracket(x1, y2) == LaurentPoly.monomial(target.varspec, {"X1": 1, "Y2": 1}, 2)
    assert calls == []


def test_reports_build_the_source_algebra_once(monkeypatch):
    builds = []

    def counting_build_an(params):
        builds.append(params)
        return build_an(params)

    monkeypatch.setattr(algebra_an, "build_an", counting_build_an)
    character = group_character(quantum_sample(2), sample_weights())
    report = stratification_report(character, enumerate_admissible(2))
    assert len(report["strata"]) == 14 and len(builds) == 1
    builds.clear()
    suite = cli.suite_psi(cli.load_config(CONFIG_PAIRED))
    assert suite["ok"] and len(suite["details"]["strata"]) == 14 and len(builds) == 1


def test_poisson_tail_images():
    params = quantum_sample_image()
    gmap = poisson_stratum_map(params, empty_set(2))
    vs = gmap.target.varspec
    image = apply_map(gmap, tail_element(params, 2, LaurentPoly, an_varspec(2)))
    assert image == LaurentPoly.monomial(vs, {"Y2": 1, "X2": 1}, 2)  # (q2 - p2) Y2 X2


def test_nested_congruence_all_pairs():
    for n in (1, 2):
        params = quantum_sample_image(n)
        sets = enumerate_admissible(n)
        pairs = sum(small.members() <= large.members() for small in sets for large in sets)
        report = nested_congruence_check(params, {t: derived_sets(t).eta for t in sets})
        assert report == {"ok": True, "failures": []}
        assert count_nested_pairs(n) == pairs
        assert pairs > len(sets)  # strict nesting actually occurred


_REAL_TAIL = correspondence.tail_image


def _no_lower_x(params, i, cls, owner):
    lower = cls.generator(owner, f"Y{i}") ** (-1) * cls.generator(owner, f"Y{i - 1}")
    return lower.scale(-correspondence.hat_coefficient(params, i))


def _no_lower_y(params, i, cls, owner):
    lower = cls.generator(owner, f"Y{i}") ** (-1) * cls.generator(owner, f"X{i - 1}")
    return lower.scale(-correspondence.hat_coefficient(params, i))


def _extra_inverse_y(params, i, cls, owner):
    return _REAL_TAIL(params, i, cls, owner) + cls.generator(owner, f"Y{i}") ** (-1)


@pytest.mark.parametrize("tail", [None, _no_lower_x, _no_lower_y, _extra_inverse_y])
def test_nested_congruence_matches_the_pair_walk(tail, monkeypatch):
    # The lemma names exactly the larger sets of the walk's failing pairs.
    # A flipped tail sign keeps the support, so neither check sees it; the
    # psi tail check does.
    if tail is not None:
        monkeypatch.setattr(correspondence, "tail_image", tail)
    rng = random.Random(5)
    cases = [quantum_sample_image(n) for n in (1, 2, 3)]
    cases += [random_params(n, rng) for n in (1, 2, 3, 4)]
    verdicts = set()
    for params in cases:
        sets = enumerate_admissible(params.n)
        report = nested_congruence_check(params, {t: derived_sets(t).eta for t in sets})
        walk = nested_pairs_walk(params, sets)
        named = {failure.split(": x")[0] for failure in report["failures"]}
        assert named == {str(list(large.member_names())) for _, large in walk["failing"]}
        assert report["ok"] == (not walk["failing"])
        assert walk["pairs"] == count_nested_pairs(params.n)
        verdicts.add(report["ok"])
    assert verdicts == ({True} if tail is None else {True, False})


def test_quantum_images_empty_set():
    params = quantum_sample()
    gmap = quantum_stratum_map(params, empty_set(2))
    torus = gmap.target
    # weight (q2-p2)^-1 (q1-p1) = 2/24 = 1/12 sits on the ordered product
    # Y2^-1 Y1 X1; normal-ordering it crosses Y1 and X1 past Y2^-1, which
    # contributes gamma12 * p2/gamma12 = 8, so the standard-monomial
    # coefficient is -8/12 = -2/3.
    gen = lambda name: QTorusElement.generator(torus, name)
    expected = gen("X2") + QTorusElement.monomial(torus, {"Y2": -1, "Y1": 1, "X1": 1}, Fraction(-2, 3))
    assert gmap.images["x2"] == expected
    ordered = gen("Y2") ** (-1) * gen("Y1") * gen("X1")
    assert gmap.images["x2"] == gen("X2") + ordered.scale(Fraction(-1, 12))
    assert gmap.images["y1"] == gen("Y1")


def test_quantum_full_set_collapses():
    params = quantum_sample()
    gmap = quantum_stratum_map(params, full_set(2))
    assert all(image.is_zero() for image in gmap.images.values())
    assert verify_quantum_stratum_map(params, full_set(2))["ok"]


def test_verify_quantum_all_strata_small_n():
    for n in (1, 2):
        params = quantum_sample(n)
        for t_set in enumerate_admissible(n):
            report = verify_quantum_stratum_map(params, t_set)
            assert report["ok"], (t_set.member_names(), report["failures"])


def test_quantum_failure_names_relation_and_residual():
    params = quantum_sample()
    products = params.swapped_products
    y1y2 = NCElement.monomial(2, {"y1": 1, "y2": 1})
    assert products[0, 2] == y1y2.scale(Fraction(1, 2))  # y2 y1 = (1/2) y1 y2
    corrupted = {**products, (0, 2): y1y2.scale(Fraction(3, 2))}
    report = report_with(params, empty_set(2), quantum_stratum_map, quantum_rest(corrupted))
    assert not report["ok"]
    # Y2 Y1 = (1/2) Y1 Y2 in the torus, so the residual is (3/2 - 1/2) Y1 Y2
    assert report["failures"] == ["product pair (y2, y1): residual Y1*Y2"]
    assert verify_quantum_stratum_map(params, empty_set(2))["ok"]


# (psi failures, upsilon failures) per failing stratum when w_2 is doubled
DOUBLED_HAT_FAILURES = {
    (): (
        ["bracket pair (y2, x2): residual Y1*X1", "tail element 2 image: residual -Y1*X1"],
        ["product pair (x2, y2): residual -2*Y1*X1", "tail element 2 image: residual -2*Y1*X1"],
    ),
    ("Omega2",): (
        [
            "bracket pair (y2, x2): residual Y1*X1",
            "tail element 2 image: residual -Y1*X1",
            "member Omega2 does not map to zero: residual -Y1*X1",
        ],
        [
            "product pair (x2, y2): residual -2*Y1*X1",
            "tail element 2 image: residual -2*Y1*X1",
            "member Omega2 does not map to zero: residual -2*Y1*X1",
        ],
    ),
}


@pytest.fixture
def doubled_hat(monkeypatch):
    hat = correspondence.hat_coefficient
    monkeypatch.setattr(correspondence, "hat_coefficient", lambda params, i: 2 * hat(params, i))


def test_doubled_hat_coefficient_fails_the_strata_that_read_it(doubled_hat):
    # x2's tail image is read by the two strata with neither Omega1 nor y2 in T;
    # doubling w_2 breaks the tail element, and Omega2 as a member, on both sides
    character = cli.load_config(CONFIG_PAIRED).character
    failed = {}
    for t_set in enumerate_admissible(2):
        psi = verify_poisson_stratum_map(character.induced, t_set)
        ups = verify_quantum_stratum_map(character.params, t_set)
        assert psi["ok"] == ups["ok"]
        if not psi["ok"]:
            failed[t_set.member_names()] = (psi["failures"], ups["failures"])
    assert failed == DOUBLED_HAT_FAILURES


def test_failing_strata_show_their_residuals_on_the_command_line(doubled_hat, capsys):
    # a failed side adds its failures to the stratum's entry; a passing
    # entry keeps the keys it always had
    for suite, side in (("psi", 0), ("upsilon", 1)):
        assert cli.main(["--config", CONFIG_PAIRED, "verify", suite]) == 1
        strata = json.loads(capsys.readouterr().out)["details"]["strata"]
        assert len(strata) == 14
        for entry in strata:
            expected = DOUBLED_HAT_FAILURES.get(tuple(entry["members"]))
            if expected is None:
                assert entry == {"members": entry["members"], "ok": True}
            else:
                assert entry == {"members": entry["members"], "ok": False, "failures": expected[side]}
    assert cli.main(["--config", CONFIG_PAIRED, "map-report"]) == 1
    for entry in json.loads(capsys.readouterr().out)["strata"]:
        expected = DOUBLED_HAT_FAILURES.get(tuple(entry["members"]))
        sides = ("psi_failures", "upsilon_failures")
        failure_keys = {key: entry.pop(key) for key in sides if key in entry}
        assert list(entry) == ["members", "eta", "length", "gk_dim", "psi_ok", "upsilon_ok"]
        if expected is None:
            assert entry["psi_ok"] and entry["upsilon_ok"] and failure_keys == {}
        else:
            assert not entry["psi_ok"] and not entry["upsilon_ok"]
            assert failure_keys == {"psi_failures": expected[0], "upsilon_failures": expected[1]}


def test_map_report_exits_1_on_a_failed_stratum_with_its_report_unchanged(doubled_hat, capsys):
    # the exit status reads the strata's verdicts; the report gets no key of
    # its own for them
    character = cli.load_config(CONFIG_PAIRED).character
    assert cli.main(["--config", CONFIG_PAIRED, "map-report"]) == 1
    out = capsys.readouterr().out
    assert out == json.dumps(stratification_report(character, enumerate_admissible(2))) + "\n"
    assert "ok" not in json.loads(out)


NON_POWER_OF_TWO = QuantumParams(
    3,
    [[1, 3, Fraction(2, 5)], [Fraction(1, 3), 1, -7], [Fraction(5, 2), Fraction(-1, 7), 1]],
    [2, -3, Fraction(5, 7)],
    [3, 11, 2],
)


def solved_relations(params):
    """Each oracle relation solved for its one descending word g_b g_a,
    keyed by the pair (a, b)."""
    names = generator_names(params.n)
    solved = {}
    for _, combo in defining_relations(params):
        [(lead_c, lead)] = [(c, w) for c, w in combo if names.index(w[0]) > names.index(w[1])]
        rest = [NCElement.monomial(params.n, dict.fromkeys(w, 1), -c / lead_c) for c, w in combo if w != lead]
        solved[names.index(lead[1]), names.index(lead[0])] = sum(rest, NCElement.zero(params.n))
    return solved


@pytest.mark.parametrize("params", [quantum_sample(n) for n in range(4)] + [NON_POWER_OF_TWO])
def test_swapped_products_are_the_solved_relations(params):
    # one relation per generator pair a < b, n(2n - 1) of them
    products = params.swapped_products
    assert list(products) == [(a, b) for a in range(2 * params.n) for b in range(a + 1, 2 * params.n)]
    assert products == solved_relations(params)


@pytest.fixture
def nc_multiply_calls(monkeypatch):
    calls = []
    plain = algebra_kn.nc_multiply

    def counting(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(algebra_kn, "nc_multiply", counting)
    return calls


@pytest.mark.parametrize("command", [["map-report"], ["verify", "upsilon"]])
def test_swapped_products_are_built_once_per_command(nc_multiply_calls, capsys, command):
    # 15 generator pairs at n = 3: one product each, not one per stratum and pair
    assert cli.main(["--config", PAIRED_N3, *command]) == 0
    capsys.readouterr()
    assert len(nc_multiply_calls) == 15


@pytest.mark.parametrize("command", [["map-report"], ["verify", "upsilon"]])
def test_swapped_products_have_budgets_of_their_own(nc_multiply_calls, monkeypatch, capsys, command):
    # the 48 strata at n = 3 take 48 steps of the run's limit, and the
    # swapped products none of it: each is handed no budget, so it gets a
    # default one of its own
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "48")
    assert cli.main(["--config", PAIRED_N3, *command]) == 0
    capsys.readouterr()
    assert len(nc_multiply_calls) == 15
    assert all(len(args) == 3 for args in nc_multiply_calls)


def test_each_stratum_derives_its_sets_once_per_reading(monkeypatch, capsys):
    # the label reads one derived_sets, and the ring one more, which both
    # stratum maps share
    from poisson_strata import admissible

    calls = []
    plain = admissible.derived_sets

    def counting(t_set):
        calls.append(t_set)
        return plain(t_set)

    monkeypatch.setattr(admissible, "derived_sets", counting)
    monkeypatch.setattr(correspondence, "derived_sets", counting, raising=False)
    assert cli.main(["--config", PAIRED_N3, "admissible", "--poset"]) == 0
    assert len(calls) == 48
    calls.clear()
    assert cli.main(["--config", PAIRED_N3, "map-report"]) == 0
    assert len(calls) == 2 * 48
    capsys.readouterr()


def test_map_report_builds_one_target_per_side(monkeypatch, capsys):
    # every stratum is checked in the empty set's algebra: 48 strata at
    # n = 3, one log-canonical algebra and one torus, on the ring that
    # inverts every Y and kills nothing
    built = []

    def counting(cls):
        def build(*args):
            built.append(cls(*args))
            return built[-1]

        return build

    for cls in (PoissonStructure, algebra_kn.QuantumTorus):
        monkeypatch.setattr(correspondence, cls.__name__, counting(cls))
    assert cli.main(["--config", PAIRED_N3, "map-report"]) == 0
    assert len(json.loads(capsys.readouterr().out)["strata"]) == 48
    assert [type(target) for target in built] == [PoissonStructure, algebra_kn.QuantumTorus]
    assert all(target.varspec == empty_set(3).ring for target in built)


def with_images(gmap, images):
    """`gmap` with `images` in place of its generator images."""
    return GeneratorMap(gmap.t_set, gmap.ring, images, gmap.target, gmap.one)


def test_swapped_unit_images_fail_the_unit_check():
    params = quantum_sample_image()
    gmap = poisson_stratum_map(params, empty_set(2))
    swapped = with_images(gmap, {**gmap.images, "y1": gmap.images["y2"]})
    pairs = poisson_rest(params.an.entry)(gmap)
    report = correspondence._stratum_report(params, swapped, *pairs)
    assert "surviving y images do not generate the inverted set" in report["failures"]
    assert correspondence._stratum_report(params, gmap, *pairs)["ok"]


def stratum_sides(n):
    """Per side: the parameters, the stratum map, the source's element class
    and owner, and the rest of `_stratum_report`'s arguments given the map."""
    pparams, qparams = quantum_sample_image(n), quantum_sample(n)
    return [
        (pparams, poisson_stratum_map, LaurentPoly, an_varspec(n), poisson_rest(pparams.an.entry)),
        (qparams, quantum_stratum_map, NCElement, n, quantum_rest(qparams.swapped_products)),
    ]


def test_tail_and_member_failures_match_the_pushed_tail_elements():
    # the report reads the tail images off the generator images; pushing each
    # tail element through `apply_map` must give the same failure strings,
    # here with one x_i image off by the unit, against (q_k - p_k) Y_k X_k
    # where the ring of the map admits it and zero where not
    text = lambda f: format_terms(f.terms, f._names(f.owner))
    failing = 0
    for n in (1, 2, 3):
        for params, stratum_map, cls, source_owner, rest in stratum_sides(n):
            for t_set, i in itertools.product(enumerate_admissible(n), range(1, n + 1)):
                gmap = stratum_map(params, t_set)
                images = {**gmap.images, f"x{i}": gmap.images[f"x{i}"] + gmap.one}
                corrupt = with_images(gmap, images)
                expected, members = [], []
                for k in range(1, n + 1):
                    image = apply_map(corrupt, tail_element(params, k, cls, source_owner))
                    monomial = type(image).monomial(
                        image.owner, {f"Y{k}": 1, f"X{k}": 1}, tail_coefficient(params, k)
                    )
                    admitted = {m: c for m, c in monomial.terms.items() if corrupt.ring.admit(m)}
                    residual = image - type(image)(image.owner, admitted)
                    if not residual.is_zero():
                        expected.append(f"tail element {k} image: residual {text(residual)}")
                    if f"Omega{k}" in t_set.member_names() and not image.is_zero():
                        members.append(f"member Omega{k} does not map to zero: residual {text(image)}")
                report = correspondence._stratum_report(params, corrupt, *rest(gmap))
                read = [f for f in report["failures"] if f.startswith(("tail element", "member Omega"))]
                assert read == expected + members
                failing += bool(read)
    assert failing > 100  # the corruption shows on about half of the 350 cases


# The quantum parameters of the rational config of the golden tests, whose
# hat coefficients have odd denominators, and their character's weights.
RATIONAL = QuantumParams(
    3,
    [[1, Fraction(3, 5), Fraction(7, 2)], [Fraction(5, 3), 1, Fraction(11, 13)], [Fraction(2, 7), Fraction(13, 11), 1]],
    [Fraction(2, 3), Fraction(5, 7), Fraction(9, 4)],
    [Fraction(5, 11), Fraction(3, 2), Fraction(7, 5)],
)
RATIONAL_WEIGHTS = {2: 1, 3: 3, 5: 4, 7: 9, 11: 13, 13: 17}
# Poisson parameters with odd denominators, beside NON_POWER_OF_TWO, whose
# group holds -1 and so induces none.
RATIONAL_POISSON = PoissonParams(
    3,
    [[0, Fraction(1, 3), -2], [Fraction(-1, 3), 0, Fraction(5, 7)], [2, Fraction(-5, 7), 0]],
    [Fraction(2, 3), -1, Fraction(5, 7)],
    [3, Fraction(1, 5), 2],
)


def _corrupt_source(side, params, n):
    """`_stratum_report`'s source values with the pair (x1, y2) off by
    y1 x2 + 3 x1 x2: a bracket entry on the Poisson side, a swapped product
    on the quantized one."""
    pad = (0,) * (2 * n - 4)
    extra = {(1, 0, 0, 1) + pad: 1, (0, 1, 0, 1) + pad: 3}
    if side == 0:
        table = dict(params.an.table)
        table[1, 2] = table[1, 2] + LaurentPoly(params.an.varspec, extra)
        return poisson_rest(PoissonStructure(params.an.varspec, table).entry)
    products = params.swapped_products
    return quantum_rest({**products, (1, 2): products[1, 2] + NCElement(n, extra)})


def _with_y_images(y1, y2):
    """The map with the images of y1 and y2 replaced by those of `y1`, `y2`."""
    return lambda gmap: with_images(gmap, {**gmap.images, "y1": gmap.images[y1], "y2": gmap.images[y2]})


EQUIVALENCE_MUTATIONS = {
    "none": {},
    "hat doubled at i = 2": {"hat": lambda hat: lambda params, i: hat(params, i) * (2 if i == 2 else 1)},
    "hats negated": {"hat": lambda hat: lambda params, i: -hat(params, i)},
    "source pair corrupted": {"source": _corrupt_source},
    "y1 and y2 images exchanged": {"images": _with_y_images("y2", "y1")},
    "y1 image is y2's": {"images": _with_y_images("y2", "y2")},
    "y2 image is y1's": {"images": _with_y_images("y1", "y1")},
}


def fresh(params):
    """A copy of `params` with nothing derived from it yet: the stratum maps
    keep the empty set's map on the parameters, so a patch must reach
    parameters that no earlier map has read."""
    return type(params)(params.n, params.gamma, params.p, params.q)


def equivalence_cases():
    """(label, Poisson parameters, quantum parameters) at n <= 3: the
    samples, the rational config with its induced parameters, and
    NON_POWER_OF_TWO beside RATIONAL_POISSON."""
    for n in range(4):
        yield f"sample n = {n}", quantum_sample_image(n), quantum_sample(n)
    yield "rational config", group_character(fresh(RATIONAL), RATIONAL_WEIGHTS).induced, fresh(RATIONAL)
    yield "odd denominators", fresh(RATIONAL_POISSON), fresh(NON_POWER_OF_TWO)


@pytest.mark.parametrize("mutation", list(EQUIVALENCE_MUTATIONS))
def test_stratum_report_matches_the_object_reference(mutation, monkeypatch):
    # the term-map report returns the reference's dict, failure texts
    # included, on every admissible set at n <= 3 and on both sides
    spec = EQUIVALENCE_MUTATIONS[mutation]
    if "hat" in spec:
        monkeypatch.setattr(correspondence, "hat_coefficient", spec["hat"](correspondence.hat_coefficient))
    failing = 0
    for label, pparams, qparams in equivalence_cases():
        n = pparams.n
        if n < 2 and ("source" in spec or "images" in spec):
            continue
        sides = [
            (pparams, poisson_stratum_map, poisson_rest(pparams.an.entry)),
            (qparams, quantum_stratum_map, quantum_rest(qparams.swapped_products)),
        ]
        for side, (params, stratum_map, rest) in enumerate(sides):
            if "source" in spec:
                rest = spec["source"](side, params, n)
            for t_set in enumerate_admissible(n):
                gmap = stratum_map(params, t_set)
                if "images" in spec:
                    gmap = spec["images"](gmap)
                report = correspondence._stratum_report(params, gmap, *rest(gmap))
                assert report == object_stratum_report(params, gmap, *rest(gmap)), (label, side, t_set)
                failing += not report["ok"]
    assert (failing > 0) == (mutation != "none")


def _doubled_hat(hat):
    return lambda params, i: 2 * hat(params, i)


# EQUIVALENCE_MUTATIONS, the hat doubled at every i, and the patched tails
OWN_ALGEBRA_MUTATIONS = {
    **EQUIVALENCE_MUTATIONS,
    "hat doubled": {"hat": _doubled_hat},
    "tail without X_{i-1}": {"tail": _no_lower_x},
    "tail without Y_{i-1}": {"tail": _no_lower_y},
    "tail plus Y_i^-1": {"tail": _extra_inverse_y},
}


@pytest.mark.parametrize("mutation", list(OWN_ALGEBRA_MUTATIONS))
def test_stratum_report_matches_each_stratums_own_algebra(mutation, monkeypatch):
    # checked in the empty set's algebra, each stratum reports what it
    # reports in a target algebra of its own, built on its ring, with the
    # empty set's images restricted into it; failure texts included, on
    # every admissible set at n <= 3 and on both sides
    spec = OWN_ALGEBRA_MUTATIONS[mutation]
    if "hat" in spec:
        monkeypatch.setattr(correspondence, "hat_coefficient", spec["hat"](correspondence.hat_coefficient))
    if "tail" in spec:
        monkeypatch.setattr(correspondence, "tail_image", spec["tail"])
    failing = 0
    for label, pparams, qparams in equivalence_cases():
        n = pparams.n
        if n < 2 and ("source" in spec or "images" in spec):
            continue
        sides = [
            (pparams, poisson_stratum_map, oracles.ring_poisson_target, poisson_rest(pparams.an.entry)),
            (qparams, quantum_stratum_map, oracles.ring_quantum_target, quantum_rest(qparams.swapped_products)),
        ]
        for side, (params, stratum_map, build, rest) in enumerate(sides):
            if "source" in spec:
                rest = spec["source"](side, params, n)
            for t_set in enumerate_admissible(n):
                gmap = stratum_map(params, t_set)
                own = oracles.own_algebra_map(params, t_set, stratum_map, build)
                if "images" in spec:
                    gmap, own = spec["images"](gmap), spec["images"](own)
                report = correspondence._stratum_report(params, gmap, *rest(gmap))
                assert report == object_stratum_report(params, own, *rest(own)), (label, side, t_set)
                failing += not report["ok"]
    assert (failing > 0) == (mutation != "none")


def ring_map_sides():
    """(parameters, the builder of a target on the ring of T, stratum map,
    report arguments given the map) per side at n <= 4, on fresh
    parameters: the samples with their induced parameters, RATIONAL_POISSON
    beside NON_POWER_OF_TWO, the paired n = 4 config, and random Poisson
    parameters."""
    rng = random.Random(37)
    pairs = [group_character(quantum_sample(n), sample_weights()) for n in range(4)]
    pairs = [(c.induced, c.params) for c in pairs + [cli.load_config(PAIRED_N4).character]]
    pairs += [(fresh(RATIONAL_POISSON), fresh(NON_POWER_OF_TWO))]
    pairs += [(random_params(n, rng), None) for n in range(1, 5)]
    for pparams, qparams in pairs:
        yield pparams, oracles.ring_poisson_target, poisson_stratum_map, poisson_rest(pparams.an.entry)
        if qparams is not None:
            yield qparams, oracles.ring_quantum_target, quantum_stratum_map, quantum_rest(qparams.swapped_products)


@pytest.mark.parametrize("patch", [None, _doubled_hat, _no_lower_x, _no_lower_y, _extra_inverse_y])
def test_stratum_maps_restrict_the_empty_set_map(patch, monkeypatch):
    # each image is the one the map of T formed in the ring of T, with the
    # same class and terms, over the empty set's owner, and the map carries
    # that ring; so the reports, failure texts included, are the same at
    # n <= 3
    tail = oracles.ring_tail_image
    if patch is _doubled_hat:
        monkeypatch.setattr(correspondence, "hat_coefficient", patch(correspondence.hat_coefficient))
    elif patch is not None:
        monkeypatch.setattr(correspondence, "tail_image", patch)
        tail = patch
    shape = lambda f: (type(f), f.terms)
    compared = failing = 0
    for params, build, stratum_map, rest in ring_map_sides():
        empty = stratum_map(params, empty_set(params.n))
        for t_set in enumerate_admissible(params.n):
            try:
                expected = oracles.ring_stratum_map(params, t_set, build, tail)
            except ValueError:
                # the patched tail inverts a Y_i that the ring of T kills
                assert patch in (_no_lower_x, _no_lower_y, _extra_inverse_y) and any(t_set.y_in[1:])
                continue
            gmap = stratum_map(params, t_set)
            assert gmap.ring == expected.ring
            assert gmap.target is empty.target and gmap.one is empty.one
            assert all(f.owner is empty.one.owner for f in gmap.images.values())
            assert shape(gmap.one) == shape(expected.one)
            images = {name: shape(f) for name, f in gmap.images.items()}
            assert images == {name: shape(f) for name, f in expected.images.items()}, (params, t_set)
            compared += 1
            if params.n <= 3:
                report = correspondence._stratum_report(params, gmap, *rest(gmap))
                assert report == correspondence._stratum_report(params, expected, *rest(expected))
                failing += not report["ok"]
    # 788 maps in all; a patched tail without the guard builds no map of T
    # in the ring of a T with y_i in it, i >= 2, on 574 of them
    assert compared == (214 if tail is patch else 788) and (failing > 0) == (patch is not None)


def test_twist_table_holds_the_recomputed_twists():
    # every twist of one n = 3 report, read from the table, is the power
    # product of the commutation matrix entries
    character = group_character(quantum_sample(3), sample_weights())
    params = character.params
    assert stratification_report(character, enumerate_admissible(3))["grade"] == "homeomorphism"
    columns = params.integer_columns
    assert params.twists
    for (u, v), twist in params.twists.items():
        pairs = ((columns[b][a], u[a] * v[b]) for b in range(len(v)) for a in range(b + 1, len(u)))
        assert twist == power_product(pairs)


def test_bracket_rows_hold_the_recomputed_rows():
    # every u.R row that the kernel kept over one n = 3 report, and over one
    # bracket on A_n, is the row recomputed from the log matrix
    character = group_character(quantum_sample(3), sample_weights())
    params = character.induced
    assert stratification_report(character, enumerate_admissible(3))["grade"] == "homeomorphism"
    an = params.an
    vs = an.varspec
    f = LaurentPoly(vs, {(1, 0, 2, 0, 0, 1): 3, (0, 0, 1, 1, 1, 0): -1})
    g = LaurentPoly(vs, {(0, 1, 0, 0, 2, 1): Fraction(1, 2), (1, 1, 0, 0, 0, 0): 5})
    assert not an.bracket(f, g).is_zero()
    target = poisson_stratum_map(params, empty_set(3)).target
    for structure in (target, an):
        matrix = structure.log_matrix
        size = range(len(matrix))
        assert structure.rows
        for u, row in structure.rows.items():
            assert row == [sum(u[j] * matrix[j][k] for j in size) for k in size]
    assert set(f.terms) <= set(an.rows)


def test_map_report_builds_no_source_element_per_stratum(monkeypatch, capsys):
    # at the parent, one report made 2,387 tail_element calls, 22,836 torus
    # products and 17,260 Laurent products on the 164 strata of n = 4
    counts = {"tail_element": 0, QTorusElement: 0, LaurentPoly: 0}

    def counting(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(algebra_an, "tail_element", counting("tail_element", algebra_an.tail_element))
    for cls in (QTorusElement, LaurentPoly):
        monkeypatch.setattr(cls, "__mul__", counting(cls, cls.__mul__))
    assert cli.main(["--config", PAIRED_N4, "map-report"]) == 0
    capsys.readouterr()
    assert counts["tail_element"] <= 4  # build_an's, one per tail index at most
    assert counts[QTorusElement] <= 22_836 // 2
    assert counts[LaurentPoly] <= 17_260 // 2


def test_character_transports_the_sample():
    character = group_character(quantum_sample(), sample_weights())
    assert character.induced.p == (1, 3)
    assert character.induced.q == (2, 5)
    assert character.induced.gamma[0][1] == 1
    assert character.injective_on_group is True
    assert stratification_report(character, [])["phi"]["minus_one_in_group"] is False
    assert character.induced == quantum_sample_image()


def test_character_turns_commutation_into_log_canonical_matrix():
    # Entrywise, the additive matrix attached to the induced parameters is
    # the character image of the multiplicative matrix.
    for n in (1, 2, 3):
        params = quantum_sample(n)
        character = group_character(params, sample_weights())
        induced = character.induced
        additive = induced.matrix
        multiplicative = params.matrix
        for a in range(2 * n):
            for b in range(2 * n):
                assert additive[a][b] == apply_character(character, multiplicative[a][b])
        # and the tail words: each tail element's normality scalars
        for i in range(n + 1):
            for a in range(2 * n):
                scalar = params._evaluate(tail_word(params, i, a))
                assert induced._evaluate(tail_word(induced, i, a)) == apply_character(character, scalar)


def test_character_is_additive_on_products():
    character = group_character(quantum_sample(), sample_weights())

    def chi(value):
        return apply_character(character, value)

    import random

    rng = random.Random(16)
    gens = [Fraction(2), Fraction(8), Fraction(4), Fraction(32)]
    for _ in range(1000):
        a = Fraction(1)
        b = Fraction(1)
        for g in gens:
            a *= g ** rng.randint(-2, 2)
            b *= g ** rng.randint(-2, 2)
        assert chi(a * b) == chi(a) + chi(b)


def test_character_mixed_primes_not_injective():
    params = QuantumParams(2, [[1, 1], [1, 1]], [2, 5], [3, 7])
    weights = {2: Fraction(1), 3: Fraction(2), 5: Fraction(3), 7: Fraction(5)}
    character = group_character(params, weights)
    assert group_analysis(parameter_group_generators(params)).lattice_rank == 4
    assert character.injective_on_group is False


def test_character_rejects_minus_one():
    params = QuantumParams(2, [[1, -2], [Fraction(-1, 2), 1]], [2, 4], [8, 16])
    with pytest.raises(GroupContainsMinusOne) as err:
        group_character(params, {2: Fraction(1)})
    assert err.value.analysis.contains_minus_one is True


def test_character_requires_all_primes():
    params = QuantumParams(1, [[1]], [2], [3])
    with pytest.raises(ValueError):
        group_character(params, {2: Fraction(1)})


def test_character_rejects_collapsing_weights():
    params = QuantumParams(1, [[1]], [2], [3])
    with pytest.raises(ValueError):
        group_character(params, {2: Fraction(1), 3: Fraction(1)})


def test_default_weights():
    assert group_character(quantum_sample()).weights == ((2, Fraction(1)),)
    mixed = QuantumParams(1, [[1]], [2], [3])
    with pytest.raises(ValueError):
        group_character(mixed)


def test_stratification_report():
    character = group_character(quantum_sample(), sample_weights())
    report = stratification_report(character, enumerate_admissible(2))
    assert report["n"] == 2
    assert report["grade"] == "homeomorphism"
    assert len(report["strata"]) == 14
    assert all(s["psi_ok"] and s["upsilon_ok"] for s in report["strata"])
    for stratum in report["strata"]:
        assert stratum["gk_dim"] == 4 - stratum["length"]

    character = group_character(quantum_sample(1))
    small = stratification_report(character, enumerate_admissible(1))
    assert len(small["strata"]) == 4


def test_report_eta_matches_derived_sets():
    character = group_character(quantum_sample(), sample_weights())
    report = stratification_report(character, enumerate_admissible(2))
    by_members = {tuple(s["members"]): s for s in report["strata"]}
    for t_set in enumerate_admissible(2):
        record = by_members[t_set.member_names()]
        assert tuple(record["eta"]) == derived_sets(t_set).eta


def test_poset_nodes_are_the_report_labels():
    # the poset and the report print each stratum under one label
    for n in (1, 2, 3):
        sets = enumerate_admissible(n)
        nodes, _ = stratum_poset(sets)
        report = stratification_report(group_character(quantum_sample(n), sample_weights()), sets)
        assert [dict(list(entry.items())[:4]) for entry in report["strata"]] == nodes


def test_report_derives_the_commutation_matrix_once(monkeypatch):
    # each matrix belongs to its parameters and is derived on its first
    # read: a report over the 48 strata at n = 3 reads as many pair words
    # as a report over one stratum, so neither side's stratum targets, A_n
    # nor the PBW products derive a matrix again
    from poisson_strata import algebra_an

    calls = []
    plain = algebra_an.pair_word

    def counting(params, a, b):
        calls.append((a, b))
        return plain(params, a, b)

    monkeypatch.setattr(algebra_an, "pair_word", counting)
    counts = []
    for sets in (enumerate_admissible(3)[:1], enumerate_admissible(3)):
        calls.clear()
        report = stratification_report(group_character(quantum_sample(3), sample_weights()), sets)
        assert all(s["psi_ok"] and s["upsilon_ok"] for s in report["strata"])
        counts.append((len(report["strata"]), len(calls)))
    # two 6 x 6 matrices: one word for each of the 15 pairs a < b
    assert counts == [(1, 30), (48, 30)]


@pytest.fixture
def factor_calls(monkeypatch):
    """Every factor_rational call, whichever module makes it; today only
    `exact_poly` imports it."""
    from poisson_strata import exact_poly

    calls = []
    plain = exact_poly.factor_rational

    def counting(x):
        calls.append(x)
        return plain(x)

    monkeypatch.setattr(exact_poly, "factor_rational", counting)
    monkeypatch.setattr(correspondence, "factor_rational", counting, raising=False)
    return calls


def test_report_factors_each_generator_once(factor_calls):
    # p, q and the upper triangle of gamma: 3 + 3 + 3 generators at n = 3
    character = group_character(quantum_sample(3), sample_weights())
    report = stratification_report(character, enumerate_admissible(3))
    assert len(report["strata"]) == 48
    assert len(factor_calls) == 9


@pytest.mark.parametrize("config, calls", [("paired_n2.json", 5), ("quantum_n2.json", 5)])
def test_map_report_factors_each_generator_once_per_character(factor_calls, capsys, config, calls):
    # a paired config builds the character in load_config and the report reuses it
    path = Path(CONFIG_PAIRED).parent / config
    assert cli.main(["--config", str(path), "map-report"]) == 0
    capsys.readouterr()
    assert len(factor_calls) == calls


def test_paired_map_report_builds_the_character_once(monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return group_character(*args)

    monkeypatch.setattr(cli, "group_character", counting)
    monkeypatch.setattr(correspondence, "group_character", counting)
    assert cli.main(["--config", CONFIG_PAIRED, "map-report"]) == 0
    assert json.loads(capsys.readouterr().out)["grade"] == "homeomorphism"
    assert len(calls) == 1


def test_character_images_match_apply_on_rank_two():
    # primes 2, 3 and 5 on a rank-2 lattice generated by 6 and 10
    params = QuantumParams(
        3,
        [[1, 6, 10], [Fraction(1, 6), 1, Fraction(3, 5)], [Fraction(1, 10), Fraction(5, 3), 1]],
        [6, 10, 36],
        [10, 60, Fraction(1, 6)],
    )
    character = group_character(params, {2: Fraction(1, 3), 3: Fraction(-2), 5: Fraction(5, 7)})
    assert group_analysis(parameter_group_generators(params)).lattice_rank == 2
    assert character.injective_on_group is False
    for i in range(3):
        assert character.induced.p[i] == apply_character(character, params.p[i])
        assert character.induced.q[i] == apply_character(character, params.q[i])
        for j in range(3):
            assert character.induced.gamma[i][j] == apply_character(character, params.gamma[i][j])


def test_several_primes_precede_minus_one_under_default_weights():
    params = QuantumParams(2, [[1, -2], [Fraction(-1, 2), 1]], [2, 4], [8, 3])
    with pytest.raises(ValueError) as err:
        stratification_report(group_character(params), enumerate_admissible(2))
    assert type(err.value) is ValueError
    assert str(err.value) == "parameters involve several primes; supply explicit character weights"


@pytest.mark.parametrize(
    "gamma12, p, q, weights, primes",
    [
        (11, [2, 3], [5, 7], {2: 1}, [3]),  # p_2 before any q
        (11, [2, 3], [35, 7], {2: 1, 3: 1}, [5, 7]),  # q_1 before gamma
        (143, [2, 3], [5, 7], {2: 1, 3: 2, 5: 3, 7: 5}, [11, 13]),
    ],
)
def test_missing_weight_names_the_first_failing_parameter(gamma12, p, q, weights, primes):
    params = QuantumParams(2, [[1, gamma12], [Fraction(1, gamma12), 1]], p, q)
    with pytest.raises(ValueError) as err:
        group_character(params, weights)
    assert str(err.value) == f"no weight supplied for primes {primes}"


def test_collapse_check_runs_after_p_and_q_and_before_gamma():
    # p_1 and q_1 collapse; a missing weight on gamma comes later ...
    params = QuantumParams(2, [[1, 11], [Fraction(1, 11), 1]], [2, 3], [3, 4])
    with pytest.raises(ValueError, match="^character collapses p_1 and q_1; not usable$"):
        group_character(params, {2: 1, 3: 1})
    # ... and a missing weight on q_2 comes first
    params = QuantumParams(2, [[1, 1], [1, 1]], [2, 3], [3, 5])
    with pytest.raises(ValueError, match=r"^no weight supplied for primes \[5\]$"):
        group_character(params, {2: 1, 3: 1})
