"""Tests of the benchmark's own evaluators, generator, tracer and yardstick.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import exprgen
import regen
import tracer
import yardstick
from reference import params as ref_params
from reference import strata as ref_strata
from reference.exprtext import to_python
from reference.poisson import PoissonReference
from reference.quantum import QuantumReference
from reference.terms import digest, parse_output

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(BENCH_DIR, "configs")
ROOT = os.path.dirname(BENCH_DIR)


def config(name: str) -> ref_params.Config:
    return ref_params.load(os.path.join(CONFIGS, name))


def terms(*pairs) -> dict:
    """terms(((y1, x1, y2, x2), coeff), ...) for n = 2."""
    return {tuple(mono): Fraction(coeff) for mono, coeff in pairs}


# -- hand-checkable examples (poisson_n2: p = (2, 3), q = (5, 7), gamma_12 = 1;
#    quantum_n2: p = (2, 8), q = (4, 32), gamma_12 = 2) --------------------------


def test_bracket_of_the_top_pair():
    # {x2, y2} = q2 y2 x2 + Omega1 = 7 y2 x2 + (5 - 2) y1 x1
    ref = PoissonReference(config("poisson_n2.json").poisson())
    assert ref.bracket_terms("x2", "y2") == terms(((0, 0, 1, 1), 7), ((1, 1, 0, 0), 3))
    assert ref.bracket_terms("{x2, y2}", "1") == {}


def test_bracket_with_a_tail_element():
    # y1^2 x1 - (1/3) Omega1 = y1^2 x1 - y1 x1, and {x1, y1} = 5 y1 x1
    ref = PoissonReference(config("poisson_n2.json").poisson())
    assert ref.bracket_terms("y1^2 x1 - (1/3) Omega1", "y1") == terms(
        ((3, 1, 0, 0), 5), ((2, 1, 0, 0), -5)
    )


def test_normal_form_of_the_top_pair():
    # x2 y2 = q2 y2 x2 + (q1 - p1) y1 x1 = 32 y2 x2 + 2 y1 x1
    ref = QuantumReference(config("quantum_n2.json").quantum())
    assert ref.evaluate("x2 y2") == terms(((0, 0, 1, 1), 32), ((1, 1, 0, 0), 2))


@pytest.mark.parametrize("name", ["quantum_n2.json", "paired_n3.json"])
@pytest.mark.parametrize("k", [1, 5, 40, 2000])
def test_word_rewriting_matches_the_closed_form(name, k):
    ref = QuantumReference(config(name).quantum())
    assert ref.evaluate(f"x2^{k} y1") == ref.deep_word_terms(k)


def test_admissible_counts_are_the_papers():
    assert [len(ref_strata.admissible_sets(n)) for n in (1, 2, 3, 4)] == [4, 14, 48, 164]
    assert ref_strata.length(frozenset({"Omega1"}), 2) == 1
    assert ref_strata.length(frozenset({"Omega1", "Omega2", "y2"}), 2) == 2


def test_two_adic_images_of_the_paired_configs():
    image = config("paired_n3.json").poisson()
    assert image.p == (1, 3, 1) and image.q == (2, 5, 4)
    assert image.gamma == ((0, 1, 2), (-1, 0, 1), (-2, -1, 0))
    assert ref_params.valuation_2(Fraction(3, 4)) == -2
    image = config("paired_n4.json").poisson()
    assert image.p == (1, 3, 1, 3) and image.q == (2, 5, 4, 6)
    assert all(image.gamma[i][j] == j - i for i in range(4) for j in range(4))


# -- reading program output ----------------------------------------------------


def test_parse_output_reads_the_printed_form():
    text = "-1/2*y1^3*x2 + y2*x2 - 3*x1 + 7"
    assert parse_output(text, 2) == terms(
        ((3, 0, 0, 1), Fraction(-1, 2)), ((0, 0, 1, 1), 1), ((0, 1, 0, 0), -3), ((0, 0, 0, 0), 7)
    )
    assert parse_output("0", 2) == {}


def test_digest_ignores_term_order():
    a = terms(((1, 0, 0, 0), 2), ((0, 1, 0, 0), Fraction(1, 3)))
    assert digest(a) == digest(dict(reversed(list(a.items()))))
    assert digest(a) != digest(terms(((1, 0, 0, 0), 2)))


def test_expression_text_becomes_python():
    assert to_python("2 y1^3 (x1 + 1/2){y2, x2}") == (
        "R(2, 1) * y1 ** R(3, 1) * ( x1 + R(1, 2) ) * B( y2 , x2 )"
    )


# -- generator and stored references ---------------------------------------------


def test_sessions_share_their_make_up_and_failing_slots():
    sessions = [exprgen.session(seed) for seed in exprgen.GENERATOR_SEEDS]
    assert {len(s) for s in sessions} == {150}
    for slot in range(150):
        assert len({(s[slot].config, s[slot].command) for s in sessions}) == 1
    failing = [exprgen.deep_command(c, k) for c, k in exprgen.DEEP_FAILING]
    for s in sessions:
        assert s[-len(failing):] == failing
        for command in s:
            assert not any(arg.startswith("-") for arg in command.args)
            k = exprgen.deep_exponent(command)
            assert k is None or k > 1000 or exprgen.DEEP_RANGE[0] <= k <= exprgen.DEEP_RANGE[1]


def test_stored_references_match_the_evaluators():
    with open(os.path.join(BENCH_DIR, "data", "expressions.json")) as fh:
        stored = json.load(fh)
    assert stored["generator_seeds"] == list(exprgen.GENERATOR_SEEDS)
    evaluators: dict = {}
    for seed, rows in zip(exprgen.GENERATOR_SEEDS, stored["sessions"]):
        commands = exprgen.session(seed)
        assert [(r["config"], r["command"], tuple(r["args"])) for r in rows] == [
            (c.config, c.command, c.args) for c in commands
        ]
        for slot in (0, 25, 55, 70, 100, 125, 149):  # cheap slots of several kinds
            assert digest(regen.expression_terms(commands[slot], evaluators)) == rows[slot]["digest"]


# -- tracer ----------------------------------------------------------------------


def test_tracer_sees_bindings_imported_by_name():
    script = f"""
import contextlib, io, json, sys
sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH_DIR!r}]
from poisson_strata import cli, correspondence
from tracer import Tracer
t = Tracer()
t.install()
assert correspondence.build_an is cli.build_an and hasattr(cli.build_an, "__wrapped__")
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--config", {os.path.join(CONFIGS, 'poisson_n2.json')!r}, "bracket", "x2", "y2"])
print(json.dumps(t.summary()))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    summary = json.loads(out.stdout)
    assert summary["algebra_an.build_an.calls"] == 1
    assert summary["algebra_an.build_an.distinct_params"] == 1
    assert summary["poisson_core.jacobi_check.calls"] == 1
    assert summary["parser.eval_poisson.calls"] == 2
    assert summary["exact_poly.derivative.calls"] > 0
    assert 0 <= summary["poisson_core.bracket.self_s"] <= summary["poisson_core.bracket.s"]
    assert {f"{name}.calls" for name in tracer.TRACED} <= set(summary)


# -- yardstick -------------------------------------------------------------------


def test_yardstick_scales_by_the_samples_near_an_operation(monkeypatch):
    monkeypatch.setattr(yardstick, "NEAREST", 4)
    stick = yardstick.Yardstick()
    stick.starts = [float(t) for t in range(10)]
    # the machine runs at half the reference speed until t = 5, then at it
    stick.samples = [2 * yardstick.REFERENCE_S] * 5 + [yardstick.REFERENCE_S] * 5
    assert stick.scale(0.5, 4.5) == pytest.approx(0.5)  # samples 1..4, inside
    assert stick.scale(7.2, 7.3) == pytest.approx(1.0)  # widened to samples 6..9
    assert stick.scale(9.5, 9.6) == pytest.approx(1.0)  # shifted back from the end
    assert stick.scale(4.0, 4.1) == pytest.approx(4 / 7)  # widened to samples 2..5


def test_yardstick_samples_on_the_timer():
    stick = yardstick.Yardstick()
    stick.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    stick.stop()
    assert len(stick.samples) >= 5  # about one per 20 ms, and one at stop
    assert stick.spent == pytest.approx(sum(stick.samples))
