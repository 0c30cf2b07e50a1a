"""The paper-claim suites `normality`, `weights` and `eta`.

Each passes on the paired sample config, and each reports "ok": false and
exits 1 under a mutation of what it checks.  Their runs at n = 0 are in
`test_parser_cli.test_every_suite_runs_at_n0`.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from poisson_strata import admissible, algebra_an, cli, correspondence
from poisson_strata.poisson_core import PoissonDerivation

CONFIG_PAIRED = str(Path(__file__).resolve().parent.parent / "configs" / "paired_n2.json")
PAIRED_N4 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n4.json")


def run_suite(suite, capsys):
    status = cli.main(["--config", CONFIG_PAIRED, "verify", suite])
    return status, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("suite", ["normality", "weights", "eta"])
def test_claim_suites_pass(suite, capsys):
    status, report = run_suite(suite, capsys)
    assert (status, report["suite"], report["ok"], report["details"]["failures"]) == (0, suite, True, [])


@pytest.mark.parametrize(
    "suite,failure",
    [
        # p = (2, 8) and q = (4, 32): Omega1 = 2 y1 x1 passes y1 with q1, not p1
        ("normality", "Omega1 y1: residual 4*y1^2*x1"),
        # the induced p = (1, 3) and q = (2, 5): Omega1 = y1 x1, rate q1, not p1
        ("lemma2.3", "Omega1 y1: residual y1^2*x1"),
    ],
)
def test_swapped_tail_rates_fail_both_suites_that_read_them(suite, failure, monkeypatch, capsys):
    # the quantized normality scalars and the Poisson tail brackets read the
    # one tail-word table: q_j then p_j swapped fails each tail of index >= 1
    # on every generator, in both suites
    def swapped(params, i, a):
        j = a // 2
        rate = params.p[j] if j < i else params.q[j]
        return ((rate, -1 if a % 2 else 1),)

    monkeypatch.setattr(algebra_an, "tail_word", swapped)
    status, report = run_suite(suite, capsys)
    assert (status, report["ok"]) == (1, False)
    assert failure in report["details"]["failures"]
    assert len(report["details"]["failures"]) == 8


def test_normality_fails_for_a_tail_that_is_not_normal(monkeypatch, capsys):
    # doubling the lower term of Omega2 leaves a combination that y2 and x2
    # do not pass by a scalar
    real = cli.tail_element

    def doubled_lower_term(params, i, cls, owner):
        return real(params, i, cls, owner) + real(params, min(i, 1), cls, owner)

    monkeypatch.setattr(cli, "tail_element", doubled_lower_term)
    status, report = run_suite("normality", capsys)
    assert (status, report["ok"]) == (1, False)
    assert "Omega2 y2: residual -6*y1*x1*y2" in report["details"]["failures"]


@pytest.mark.parametrize(
    "shift,failures",
    [
        # moving weight from x_n to y_n keeps the pair sums, not the action
        (
            (1, -1),
            [
                "second vector disagrees with the extension on y_n",
                "second vector does not scale x_n by q_n - p_n",
            ],
        ),
        ((0, 1), ["second vector not in the weight group"]),
    ],
)
def test_weights_fails_for_a_wrong_level_vector(shift, failures, monkeypatch, capsys):
    real = algebra_an.level_eigen_elements

    def wrong(params):
        f_vec, g_vec = real(params)
        return f_vec, g_vec[:-2] + (g_vec[-2] + shift[0], g_vec[-1] + shift[1])

    monkeypatch.setattr(algebra_an, "level_eigen_elements", wrong)
    status, report = run_suite("weights", capsys)
    assert (status, report["ok"], report["details"]["failures"]) == (1, False, failures)


def test_weights_names_the_residual_of_each_failing_pair(monkeypatch, capsys):
    # scaling y1 alone keeps every bracket but {y2, x2}, whose tail term
    # -(q1 - p1) y1 x1 = -y1 x1 it scales by the y1 weight
    def y1_only(params, h):
        return PoissonDerivation.scaling(algebra_an.an_varspec(params.n), {"y1": h[0]})

    monkeypatch.setattr(cli, "k_derivation", y1_only)
    status, report = run_suite("weights", capsys)
    assert (status, report["ok"]) == (1, False)
    assert report["details"]["failures"] == [
        "weight vector (1, 0, 1, 0) on (y2, x2): residual -y1*x1",
        "weight vector (1, -1, 0, 0) on (y2, x2): residual -y1*x1",
    ]


def test_eta_fails_for_a_raw_tail_without_its_lower_x(monkeypatch, capsys):
    # The tail -w_i Y_i^-1 Y_{i-1} X_{i-1} lies in the ideal of eta(T') for
    # every T' that kills y_i, through Y_{i-1} or X_{i-1}.  Without X_{i-1}
    # it fails on each T' with y2 and x1 but not y1 in it.
    def short_tail(params, i, cls, owner):
        lower = cls.generator(owner, f"Y{i}") ** (-1) * cls.generator(owner, f"Y{i - 1}")
        return lower.scale(-correspondence.hat_coefficient(params, i))

    monkeypatch.setattr(correspondence, "tail_image", short_tail)
    status, report = run_suite("eta", capsys)
    assert (status, report["ok"], report["details"]["injective"]) == (1, False, True)
    assert report["details"]["failures"] == [
        "['x1', 'Omega1', 'y2', 'Omega2']: x2 residual -1/2*Y1*Y2^-1",
        "['x1', 'Omega1', 'y2', 'x2', 'Omega2']: x2 residual -1/2*Y1*Y2^-1",
    ]


def test_eta_builds_each_raw_tail_once(monkeypatch, capsys):
    # the raw images of every set are built once per run from the n - 1 tails,
    # not again for each nested pair
    calls = []
    real = correspondence.tail_image

    def counting(params, i, cls, owner):
        calls.append(i)
        return real(params, i, cls, owner)

    monkeypatch.setattr(correspondence, "tail_image", counting)
    status, report = run_suite("eta", capsys)
    assert (status, report["details"]["nested_pairs"], calls) == (0, 69, [2])


def test_eta_derives_each_set_once(monkeypatch, capsys):
    # the injectivity and congruence checks read the same eta of each set
    calls = []
    real = admissible.derived_sets

    def counting(t_set):
        calls.append(t_set)
        return real(t_set)

    monkeypatch.setattr(admissible, "derived_sets", counting)
    monkeypatch.setattr(correspondence, "derived_sets", counting, raising=False)
    status = cli.main(["--config", PAIRED_N4, "verify", "eta"])
    report = json.loads(capsys.readouterr().out)
    assert (status, report["details"]["nested_pairs"], len(calls)) == (0, 3861, 164)


def test_eta_fails_for_an_assignment_that_is_not_injective(monkeypatch, capsys):
    # sending each killed X to its Y merges {y1, Omega1} and {x1, Omega1}
    real = admissible.derived_sets

    def x_to_y(t_set):
        sets = real(t_set)
        return dataclasses.replace(sets, eta=tuple(name.replace("X", "Y") for name in sets.eta))

    monkeypatch.setattr(admissible, "derived_sets", x_to_y)
    status, report = run_suite("eta", capsys)
    assert (status, report["ok"], report["details"]["injective"]) == (1, False, False)
