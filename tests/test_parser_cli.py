"""Tests for the expression parser and the command-line interface."""

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ast_to_text,
    choice_reduce,
    poisson_sample,
    quantum_sample,
    randint_monomial,
    randint_poly,
    two_loop_monomial,
    two_loop_terms,
)
from poisson_strata import cli
from poisson_strata.algebra_an import an_varspec, build_an
from poisson_strata.algebra_kn import NCElement, format_nc
from poisson_strata.cli import load_config, main
from poisson_strata.exact_poly import LaurentPoly, StepBudgetExceeded, format_poly, monomial_code
from poisson_strata.parser import (
    MAX_NESTING,
    Bracket,
    EvalError,
    Num,
    ParseError,
    Power,
    Product,
    Sum,
    Var,
    eval_poisson,
    eval_quantum,
    parse_expr,
)

_ROOT = Path(__file__).resolve().parent.parent
_CONFIG_DIR = _ROOT / "configs"
CONFIG_POISSON = str(_CONFIG_DIR / "poisson_n2.json")
CONFIG_QUANTUM = str(_CONFIG_DIR / "quantum_n2.json")
CONFIG_PAIRED = str(_CONFIG_DIR / "paired_n2.json")
PAIRED_N3 = str(Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "paired_n3.json")


def test_bracket_expression_evaluates():
    value = eval_poisson(parse_expr("{x2, y2}"), poisson_sample())
    assert format_poly(value) == "7*y2*x2 + 3*y1*x1"


def test_omega_expansion_and_powers():
    ast = parse_expr("y1^2 x1 - (1/3) Omega1")
    assert isinstance(ast, Sum) and [op for op, _ in ast.rest] == ["-"]
    value = eval_poisson(ast, poisson_sample())
    assert format_poly(value) == "y1^2*x1 - y1*x1"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("{y1,")
    assert err.value.position == 4


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_expr("foo + 1")
    with pytest.raises(EvalError):
        eval_poisson(parse_expr("y3"), poisson_sample())


@pytest.mark.parametrize("text,position", [("1/0", 0), ("y1 + 0/0", 5), ("x1 (2/00)", 4)])
def test_parse_error_for_a_zero_denominator(text, position):
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_expr(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "config,command",
    [(CONFIG_POISSON, ["bracket", "1/0", "x1"]), (CONFIG_QUANTUM, ["nf", "1/0"])],
    ids=["bracket", "nf"],
)
def test_cli_zero_denominator_is_a_parse_error(config, command, capsys):
    assert main(["--config", config, *command]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ParseError" and "zero denominator" in payload["message"]


def test_parse_error_names_an_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 $")
    assert err.value.position == 3 and "'$'" in str(err.value)


def test_tail_index_past_n_is_an_eval_error():
    with pytest.raises(EvalError, match="no tail element of index 3 for n=2"):
        eval_poisson(parse_expr("Omega3"), poisson_sample())


def test_an_index_is_read_only_in_its_canonical_spelling():
    # Omega0 is the zero tail element; with a leading zero an index names no
    # element on either side, as it names no generator
    params = poisson_sample()
    assert eval_poisson(parse_expr("Omega0"), params).is_zero()
    assert eval_quantum(parse_expr("Omega0 + 1"), quantum_sample()) == NCElement.one(2)
    for name in ("Omega01", "Omega00", "Omega002", "x01"):
        message = f"unknown variable {name!r}"
        with pytest.raises(EvalError, match=message):
            eval_poisson(parse_expr(name), params)
        with pytest.raises(EvalError, match=message):
            eval_quantum(parse_expr(name), quantum_sample())


_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text,position",
    [(f"x1^{_LONG}", 3), (f"{_LONG} x1", 0), (f"Omega{_LONG}", 5), (f"y1 + 3/{_LONG}", 7)],
    ids=["exponent", "coefficient", "tail index", "denominator"],
)
def test_number_past_the_digit_limit_is_a_parse_error(text, position, capsys):
    message = f"number has more than {sys.get_int_max_str_digits()} digits at offset {position}"
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == message and err.value.position == position
    assert main(["--config", CONFIG_QUANTUM, "nf", text]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ParseError", "message": message}
    assert main(["--config", CONFIG_POISSON, "bracket", "x1", text]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


def test_juxtaposition_and_explicit_star_agree():
    assert parse_expr("2 y1 x1") == parse_expr("2 * y1 * x1")


def test_quantum_evaluation_normal_forms():
    params = quantum_sample()
    value = eval_quantum(parse_expr("x2 y2"), params)
    from poisson_strata.algebra_kn import format_nc

    assert format_nc(value) == "32*y2*x2 + 2*y1*x1"
    with pytest.raises(EvalError):
        eval_quantum(parse_expr("{y1, x1}"), params)
    with pytest.raises(EvalError):
        eval_quantum(parse_expr("y1^-1"), params)


def random_ast(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        kind = rng.choice(["y", "x", "Y", "X", "Omega"])
        return Var(f"{kind}{rng.randint(1, 3)}")
    width = rng.randint(2, 4)
    if roll < 0.55:
        rest = tuple((rng.choice("+-"), random_ast(rng, depth + 1)) for _ in range(width - 1))
        return Sum(random_ast(rng, depth + 1), rest)
    if roll < 0.8:
        return Product(tuple(random_ast(rng, depth + 1) for _ in range(width)))
    if roll < 0.9:
        return Power(random_ast(rng, depth + 1), tuple(rng.randint(-3, 5) for _ in range(width - 1)))
    return Bracket(random_ast(rng, depth + 1), random_ast(rng, depth + 1))


def test_roundtrip_random_asts():
    rng = random.Random(15)
    for _ in range(1000):
        ast = random_ast(rng)
        assert parse_expr(ast_to_text(ast)) == ast


def test_load_config_modes():
    config = load_config(CONFIG_POISSON)
    assert config.poisson is not None and config.quantum is None
    config = load_config(CONFIG_QUANTUM)
    assert config.quantum is not None and config.poisson is None
    paired = load_config(CONFIG_PAIRED)
    assert paired.poisson is not None and paired.quantum is not None
    assert paired.poisson.p == (1, 3)


def test_config_rejects_floats(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "poisson", "n": 1, "gamma": [[0]], "p": [2.5], "q": [3],
    }))
    assert main(["--config", str(bad), "admissible", "--count"]) == 2


def test_cli_bracket(capsys):
    status = main(["--config", CONFIG_POISSON, "bracket", "{x2, y2}", "1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "0"}
    status = main(["--config", CONFIG_POISSON, "bracket", "x2", "y2"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "7*y2*x2 + 3*y1*x1"}


def test_cli_bracket_leading_minus(capsys):
    # a leading '-' negates the first term; after '--' argparse takes the
    # expression as a positional argument
    assert main(["--config", CONFIG_POISSON, "bracket", "--", "- x1 + y1", "y1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "-5*y1*x1"}
    assert main(["--config", CONFIG_POISSON, "bracket", "--", "-x1", "y1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "-5*y1*x1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", CONFIG_POISSON, "bracket", "-x1", "y1"],  # -x1 read as an option
        ["--config", CONFIG_POISSON, "bogus"],
        ["bracket", "x1", "y1"],
    ],
)
def test_cli_usage_errors_end_in_json(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "UsageError" and payload["message"].startswith("poisson-strata")
    assert err == ""


@pytest.mark.parametrize(
    "config,command",
    [(CONFIG_POISSON, ["bracket", "-x1", "y1"]), (CONFIG_QUANTUM, ["nf", "-x1"])],
)
def test_cli_usage_error_names_an_expression_read_as_an_option(capsys, config, command):
    # argparse takes -x1 for an unknown option and reports the positional
    # after it as missing; the message names -x1 and the way around it
    assert main(["--config", config, *command]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith("poisson-strata " + command[0])
    assert "'-x1' was read as an option; put -- before expressions" in payload["message"]
    # a missing positional with no such token keeps argparse's message
    assert main(["--config", config, command[0]]) == 2
    assert "read as an option" not in json.loads(capsys.readouterr().out)["message"]


_ARGV_TOKENS = st.sampled_from(
    ["--", "-", "-x1", "x1", "y2", "{x1, y2}", "1/0", "Omega01", "--pretty", "--dot", "-1", "("]
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    config=st.sampled_from([CONFIG_POISSON, CONFIG_QUANTUM, CONFIG_PAIRED]),
    command=st.sampled_from(["bracket", "nf"]),
    tokens=st.lists(_ARGV_TOKENS, max_size=4),
)
def test_cli_expression_arguments_of_any_shape_end_in_json(config, command, tokens):
    # options, bare and repeated "--" and atoms in any order end in a result
    # with exit 0 or in the JSON error object with exit 2, never a traceback
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["--config", config, command, *tokens])
    payload = json.loads(out.getvalue())
    assert (status, set(payload)) in [(0, {"result"}), (2, {"error", "message"})]


def test_cli_nf(capsys):
    status = main(["--config", CONFIG_QUANTUM, "nf", "x1 y1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "4*y1*x1"}


def test_cli_nf_deep_word(capsys):
    # x2 crosses y1 once per letter, each crossing a factor q1 * gamma12 = 4 * 2
    status = main(["--config", CONFIG_QUANTUM, "nf", "x2^1500 y1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": f"{8 ** 1500}*y1*x2^1500"}


def test_cli_step_budget_counts_block_crossings(capsys, monkeypatch):
    # y1 crosses the block x2^1500 in one step; building x2^1500 crosses no
    # block and is charged its 1499 products up front
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1500")
    status = main(["--config", CONFIG_QUANTUM, "nf", "x2^1500 y1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": f"{8 ** 1500}*y1*x2^1500"}
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1499")
    assert main(["--config", CONFIG_QUANTUM, "nf", "x2^1500 y1"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": "exceeded 1499 rewrite steps",
    }


@pytest.mark.parametrize(
    "budget, expression",
    [(None, "x1^99999999999999999999"), ("1", "(x1+1)^4000")],
)
def test_cli_power_charges_its_products_before_the_first(capsys, monkeypatch, budget, expression):
    # products of x1 words cross no block, so only the up-front charge of
    # the e - 1 products of a power stops these at once
    if budget is not None:
        monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", budget)
    assert main(["--config", CONFIG_QUANTUM, "nf", expression]) == 2
    limit = budget or "1000000"
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": f"exceeded {limit} rewrite steps",
    }


@pytest.mark.parametrize("expression", ["x1 y1^8000", "2^15000"])
def test_cli_oversized_coefficient_names_the_digit_limit(capsys, expression):
    # the coefficients pass the interpreter's integer-to-string limit, with
    # and without a monomial beside them
    status = main(["--config", CONFIG_QUANTUM, "nf", expression])
    assert status == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError",
        "message": f"a result coefficient has more than {sys.get_int_max_str_digits()} digits"
        " and cannot be printed",
    }


def test_quantum_power_multiplies_from_the_base(monkeypatch):
    import poisson_strata.parser as parser_module
    from poisson_strata.algebra_kn import format_nc

    params = quantum_sample()
    expected = {
        e: format_nc(eval_quantum(parse_expr(text), params))
        for e, text in ((0, "1"), (1, "x1 + y2"), (4, "(x1 + y2)(x1 + y2)(x1 + y2)(x1 + y2)"))
    }
    calls = []
    plain = parser_module.nc_multiply

    def counting(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(parser_module, "nc_multiply", counting)
    for e, products in ((0, 0), (1, 0), (4, 3)):
        calls.clear()
        assert format_nc(eval_quantum(parse_expr(f"(x1 + y2)^{e}"), params)) == expected[e]
        assert len(calls) == products, e


def test_cli_admissible(capsys):
    assert main(["--config", CONFIG_POISSON, "admissible", "--count"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "count": 14}
    assert main(["--config", CONFIG_POISSON, "admissible", "--list"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["sets"]) == 14 and [] in listing["sets"]
    assert main(["--config", CONFIG_POISSON, "admissible", "--poset", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


@pytest.mark.parametrize("flags", [["--dot"], ["--list", "--dot"], ["--count", "--dot"]])
def test_cli_dot_without_poset_is_a_usage_error(capsys, flags):
    # --dot only draws the poset, so it needs --poset
    assert main(["--config", CONFIG_POISSON, "admissible", *flags]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "UsageError" and "--poset" in payload["message"]
    assert err == ""


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [("admissible", "--count"), ("verify", "no-such-suite")])
def test_cli_closed_stdout_exits_2(monkeypatch, argv):
    # on the report path and on the error path alike
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["--config", CONFIG_POISSON, *argv]) == 2


def test_cli_closed_pipe_exits_2_quietly():
    # a real pipe with its read end closed and a block-buffered stdout: the
    # final flush at exit must not report the pipe either
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "poisson_strata.cli", "--config", CONFIG_POISSON, "admissible", "--poset"]
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"")


def test_cli_admissible_count_builds_no_sets(tmp_path, capsys, monkeypatch):
    # --count uses the level recurrence, so n = 12 (3,028,544 sets) answers
    # at once; --list and --poset charge one step per set before building.
    raw = {"mode": "poisson", "n": 12, "gamma": [["0"] * 12] * 12, "p": ["1"] * 12, "q": ["2"] * 12}
    assert _run_config(tmp_path, capsys, raw) == (0, {"n": 12, "count": 3028544})
    for flag in ("--list", "--poset"):
        status, payload = _run_config(tmp_path, capsys, raw, ("admissible", flag))
        assert status == 2
        assert payload == {"error": "StepBudgetExceeded", "message": "exceeded 1000000 admissible sets"}
    for budget, status in (("13", 2), ("14", 0)):
        monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", budget)
        for flag in ("--list", "--poset"):
            assert _run_config(tmp_path, capsys, POISSON_RAW, ("admissible", flag))[0] == status


@pytest.mark.parametrize("config", [CONFIG_POISSON, CONFIG_QUANTUM, CONFIG_PAIRED])
def test_cli_admissible_count_derives_no_pair_matrix(capsys, monkeypatch, config):
    # a parameter set derives its pair matrix on the first read, and the
    # count reads none, so loading the config evaluates no pair word
    from poisson_strata import algebra_an

    calls = []
    plain = algebra_an.pair_word

    def counting(params, a, b):
        calls.append((a, b))
        return plain(params, a, b)

    monkeypatch.setattr(algebra_an, "pair_word", counting)
    assert main(["--config", config, "admissible", "--count"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "count": 14}
    assert calls == []


def test_cli_matrices(capsys):
    assert main(["--config", CONFIG_POISSON, "matrices", "--r"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"][0][1] == "-5"
    assert main(["--config", CONFIG_QUANTUM, "matrices", "--s"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"][0][1] == "1/4"
    # a flag naming the side the config lacks
    missing = [
        (CONFIG_POISSON, "--s", "the commutation matrix needs quantum parameters"),
        (CONFIG_QUANTUM, "--r", "the log-canonical matrix needs poisson parameters"),
    ]
    for config, flag, message in missing:
        assert main(["--config", config, "matrices", flag]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "ConfigError", "message": message}


def test_cli_verify_suite(capsys):
    assert main(["--config", CONFIG_PAIRED, "verify", "lemma2.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert main(["--config", CONFIG_PAIRED, "verify", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["--config", CONFIG_QUANTUM, "verify", "jacobi"]) == 2
    capsys.readouterr()


JACOBI_LINE = (
    '{"suite": "jacobi", "ok": true, "details": {"generator_triples": true, "iterated_rebuild": true}}\n'
)


@pytest.mark.parametrize(
    "path",
    [path for folder in ("configs", "perfbench/configs") for path in sorted((_ROOT / folder).glob("*.json"))],
    ids=lambda path: str(path.relative_to(_ROOT)),
)
def test_cli_verify_jacobi_prints_one_line_per_config(capsys, path):
    # the generator-triple proof and the rebuild, and no sampled verdict
    status = main(["--config", str(path), "verify", "jacobi"])
    out = capsys.readouterr().out
    if load_config(str(path)).poisson is None:
        assert status == 2 and json.loads(out)["error"] == "ConfigError"
    else:
        assert (status, out) == (0, JACOBI_LINE)


def test_cli_verify_all_green(capsys):
    assert main(["--config", CONFIG_PAIRED, "verify", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    suites = {entry["suite"]: entry["ok"] for entry in payload["summary"]}
    assert suites == {
        "jacobi": True,
        "lemma2.3": True,
        "confluence": True,
        "kstable": True,
        "associativity": True,
        "psi": True,
        "upsilon": True,
        "normality": True,
        "weights": True,
        "eta": True,
    }


@pytest.mark.parametrize(
    "config,suite", [(CONFIG_PAIRED, "jacobi"), (CONFIG_POISSON, "jacobi"), (PAIRED_N3, "all")]
)
def test_cli_run_builds_and_validates_a_n_once(capsys, monkeypatch, config, suite):
    # every suite of the run reads the one validated A_n of `PoissonParams.an`
    # and the one rebuild of `PoissonParams.presentation`
    from poisson_strata import algebra_an
    from poisson_strata.poisson_core import PoissonStructure

    calls = {"build_an": 0, "iterated_presentation": 0, "jacobi_check": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(arg):
            calls[name] += 1
            return real(arg)

        monkeypatch.setattr(owner, name, wrapper)

    counting(algebra_an, "build_an")
    counting(algebra_an, "iterated_presentation")
    counting(PoissonStructure, "jacobi_check")
    assert main(["--config", config, "verify", suite]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert calls == {"build_an": 1, "iterated_presentation": 1, "jacobi_check": 1}


def test_parameters_derive_each_object_once():
    # A_n, its rebuild and the swapped products are cached properties of
    # the parameters: every read returns the first one
    config = load_config(PAIRED_N3)
    for params, name in ((config.poisson, "an"), (config.poisson, "presentation"), (config.quantum, "swapped_products")):
        assert getattr(params, name) is getattr(params, name)


def test_psi_verifies_the_parameters_own_a_n(monkeypatch, capsys):
    # `verify psi` reads A_n from the parameters, so a wrong A_n table fails
    # the bracket pair it corrupts
    from poisson_strata import algebra_an
    from poisson_strata.poisson_core import PoissonStructure

    real = algebra_an.build_an

    def corrupted(params):
        structure = real(params)
        vs, table = structure.varspec, dict(structure.table)
        table[(0, 1)] = structure.entry(0, 1) + LaurentPoly.monomial(vs, {"y1": 1, "x1": 1})
        return PoissonStructure(vs, table)

    monkeypatch.setattr(algebra_an, "build_an", corrupted)
    assert main(["--config", CONFIG_POISSON, "verify", "psi"]) == 1
    strata = json.loads(capsys.readouterr().out)["details"]["strata"]
    assert "bracket pair (y1, x1): residual Y1*X1" in strata[0]["failures"]


def test_cli_map_report_stable_bytes(capsys):
    assert main(["--config", CONFIG_PAIRED, "map-report"]) == 0
    first = capsys.readouterr().out
    assert main(["--config", CONFIG_PAIRED, "map-report"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["grade"] == "homeomorphism"
    assert len(payload["strata"]) == 14


def test_cli_minus_one_config(tmp_path, capsys):
    bad = tmp_path / "minus.json"
    bad.write_text(json.dumps({
        "mode": "paired", "n": 2,
        "gamma": [["1", "-2"], ["-1/2", "1"]],
        "p": ["2", "4"], "q": ["8", "16"],
        "phi_weights": {"2": "1"},
    }))
    assert main(["--config", str(bad), "map-report"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "GroupContainsMinusOne"


def test_cli_step_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1")
    status = main(["--config", CONFIG_QUANTUM, "nf", "x2 y2 x2 y2"])
    assert status == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "StepBudgetExceeded"
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "nope")
    assert main(["--config", CONFIG_QUANTUM, "nf", "x1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["abc", "0", " 100", "+100", "1_000", "\u0661\u0660\u0660"])
@pytest.mark.parametrize(
    "command",
    [("verify", "all"), ("verify", "psi"), ("matrices",), ("map-report",), ("admissible", "--count")],
)
def test_cli_malformed_step_budget_ends_every_command(capsys, monkeypatch, budget, command):
    # the budget is read once, when the config is loaded, so no command can
    # pass it by, nor can `verify all` take it for missing parameters
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", budget)
    assert main(["--config", CONFIG_PAIRED, *command]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("POISSON_STRATA_STEP_BUDGET must be")


@pytest.mark.parametrize("suite", ["confluence", "kstable"])
def test_cli_quotient_normal_forms_share_the_step_budget_error(capsys, monkeypatch, suite):
    # the suites charge their 14 strata before the first normal form
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1")
    assert main(["--config", CONFIG_PAIRED, "verify", suite]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": "exceeded 1 admissible sets",
    }


@pytest.mark.parametrize("suite", [cli.suite_confluence, cli.suite_k_stability])
def test_quotient_normal_forms_charge_the_run_limit(suite):
    # with the strata already read, the first normal form at limit 1 is
    # charged against the run's limit, not a default budget
    config = load_config(CONFIG_PAIRED)
    config.strata  # charged at the default limit
    config.step_limit = 1
    with pytest.raises(StepBudgetExceeded, match="^exceeded 1 rewrite steps$"):
        suite(config)


@pytest.mark.parametrize(
    "command",
    [
        ("map-report",),
        ("verify", "psi"),
        ("verify", "upsilon"),
        ("verify", "confluence"),
        ("verify", "kstable"),
        ("verify", "eta"),
    ],
)
def test_cli_strata_walks_charge_their_sets(capsys, monkeypatch, command):
    # the 14 admissible sets at n = 2 are charged before the first is built
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "13")
    assert main(["--config", CONFIG_PAIRED, *command]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": "exceeded 13 admissible sets",
    }
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "14")
    assert main(["--config", CONFIG_PAIRED, *command]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "budget, status, payload",
    [
        ("4", 2, {"error": "StepBudgetExceeded", "message": "exceeded 4 rewrite steps"}),
        ("5", 0, {"suite": "normality", "ok": True, "details": {"tails": 3, "failures": []}}),
    ],
)
def test_cli_normality_products_have_budgets_of_their_own(capsys, monkeypatch, budget, status, payload):
    # the 36 products of the suite at n = 3 take 60 block crossings in all
    # and at most 5 each: each product is charged against a budget of its own
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", budget)
    assert main(["--config", PAIRED_N3, "verify", "normality"]) == status
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_bracket_power_stops_at_the_step_budget(capsys, monkeypatch):
    # squaring (y1+x1+y2+x2)^16 (969 terms) would pass 10^6 term pairs: the
    # command stops before that product, and every product it did compute
    # fits in the budget
    pairs = []
    product = LaurentPoly.__mul__

    def counting(f, g):
        pairs.append(len(f.terms) * len(g.terms))
        return product(f, g)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    status = main(["--config", CONFIG_POISSON, "bracket", "(y1+x1+y2+x2)^60", "x2"])
    assert status == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": "exceeded 1000000 term pairs",
    }
    assert sum(pairs) <= 10**6 and 969**2 not in pairs


@pytest.mark.parametrize(
    "budget, left, right, status",
    [
        ("1", "x1", "y1", 0),  # one term pair
        ("1", "y1 + x1", "x2", 2),
        ("2", "y1 x2", "x2", 0),  # one pair in the product, one in the bracket
        ("1", "y1 x2", "x2", 2),
        ("3", "y1", "x1 x2 y2", 0),
        ("2", "y1", "x1 x2 y2", 2),  # both sides and the bracket charge one budget
        ("4", "y1 + x1", "y2 + x2", 0),
        ("3", "y1 + x1", "y2 + x2", 2),
    ],
)
def test_cli_step_budget_counts_poisson_term_pairs(capsys, monkeypatch, budget, left, right, status):
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", budget)
    assert main(["--config", CONFIG_POISSON, "bracket", left, right]) == status
    payload = json.loads(capsys.readouterr().out)
    assert ("error" in payload) == (status == 2)


def _run_config(tmp_path, capsys, raw, command=("admissible", "--count")):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    status = main(["--config", str(path), *command])
    return status, json.loads(capsys.readouterr().out)


POISSON_RAW = {
    "mode": "poisson", "n": 2,
    "gamma": [["0", "1"], ["-1", "0"]], "p": ["2", "3"], "q": ["5", "7"],
}


def test_config_rejects_non_integer_n(tmp_path, capsys):
    for n in (2.7, True, "2"):
        status, payload = _run_config(tmp_path, capsys, {**POISSON_RAW, "n": n})
        assert status == 2
        assert payload["error"] == "ConfigError" and "n must be an integer" in payload["message"]


def test_config_rejects_non_list_gamma(tmp_path, capsys):
    for gamma in (5, [5, 5], [["0", "1"], "-1 0"]):
        status, payload = _run_config(tmp_path, capsys, {**POISSON_RAW, "gamma": gamma})
        assert status == 2
        assert payload["error"] == "ConfigError" and "must be a JSON list" in payload["message"]


def test_config_rejects_top_level_list(tmp_path, capsys):
    status, payload = _run_config(tmp_path, capsys, [POISSON_RAW])
    assert status == 2
    assert payload == {"error": "ConfigError", "message": "config must be a JSON object"}


def test_config_rejects_non_prime_weight_keys(tmp_path, capsys):
    paired = json.loads(Path(CONFIG_PAIRED).read_text())
    status, payload = _run_config(
        tmp_path, capsys, {**paired, "phi_weights": {"4": "1", "2": "1"}}, ("map-report",)
    )
    assert status == 2
    assert payload == {"error": "ConfigError", "message": "weight keys must be primes, got '4'"}
    for key in ("0", "1", "9"):
        status, payload = _run_config(tmp_path, capsys, {**paired, "phi_weights": {key: "1"}})
        assert status == 2 and payload["error"] == "ConfigError"
    status, payload = _run_config(tmp_path, capsys, {**paired, "phi_weights": {"2": "1", "3": "1"}})
    assert status == 0 and payload == {"n": 2, "count": 14}


def test_config_rejects_non_canonical_weight_keys(tmp_path, capsys):
    """A weight key is the decimal spelling of its prime, so "02" cannot
    overwrite the weight of 2."""
    paired = json.loads(Path(CONFIG_PAIRED).read_text())
    for weights in ({"02": "1"}, {"2": "1", "02": "3"}):
        status, payload = _run_config(tmp_path, capsys, {**paired, "phi_weights": weights}, ("map-report",))
        assert status == 2
        assert payload == {"error": "ConfigError", "message": "weight key '02' must be written '2'"}


def test_cli_long_sum_evaluates(capsys):
    status = main(["--config", CONFIG_POISSON, "bracket", "+".join(["y1"] * 1500), "x1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "-7500*y1*x1"}


def test_cli_long_product_evaluates(capsys):
    status = main(["--config", CONFIG_QUANTUM, "nf", "*".join(["y1"] * 1500)])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "y1^1500"}


def test_cli_power_tower_evaluates(capsys):
    status = main(["--config", CONFIG_POISSON, "bracket", "y1^2" + "^1" * 1500, "x1"])
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {"result": "-10*y1^2*x1"}


def test_cli_deep_nesting_is_a_parse_error(capsys):
    status = main(["--config", CONFIG_POISSON, "bracket", "(" * 3000 + "y1" + ")" * 3000, "x1"])
    assert status == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ParseError" and "nest deeper than" in payload["message"]


def test_long_chains_print_and_parse_back():
    ast = parse_expr("-".join(["x2"] * 1500))
    assert ast == Sum(Var("x2"), (("-", Var("x2")),) * 1499)
    text = ast_to_text(ast)
    assert text == " - ".join(["x2"] * 1500)
    assert parse_expr(text) == ast
    assert parse_expr(ast_to_text(parse_expr("y1 y2^3 + (x1 - 2)^2"))) == parse_expr("y1 y2^3 + (x1 - 2)^2")


_ATOMS = st.sampled_from(["x1", "y2", "X1", "Y2", "Omega1", "Omega01", "z1", "0", "3", "1/2", "7/0"])
_JOINS = st.sampled_from([" + ", "-", " ", "*", " * ", "^2", "^-1 ", "^2^0", ", "])
_TEXTS = st.recursive(
    _ATOMS,
    lambda inner: st.builds("{}{}{}".format, inner, _JOINS, inner)
    | inner.map("-{}".format)
    | inner.map("({})".format)
    | st.builds("{{{}, {}}}".format, inner, inner),
    max_leaves=12,
)
_SOUP = st.lists(_ATOMS | _JOINS | st.sampled_from(list("(){},^-+*")), max_size=12).map("".join)
# every level of these needs its brace or parenthesis, up to the nesting bound
_DEEP = st.integers(1, MAX_NESTING).flatmap(
    lambda k: st.sampled_from(["{" * k + "x1" + " y1 + 1, x2}" * k, "(" * k + "-x1 y1" + ")^2 x2 - 1" * k])
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(text=_TEXTS | _SOUP | _DEEP)
def test_parsed_texts_print_and_parse_back(text):
    try:
        ast = parse_expr(text)
    except ParseError:
        return
    assert parse_expr(ast_to_text(ast)) == ast


def test_benchmark_expressions_print_and_parse_back():
    sessions = json.loads((_ROOT / "perfbench" / "data" / "expressions.json").read_text())["sessions"]
    texts = [text for session in sessions for row in session for text in row["args"]]
    assert len(texts) == 960
    for text in texts:
        ast = parse_expr(text)
        assert parse_expr(ast_to_text(ast)) == ast


def test_config_accepts_large_prime_key_quickly(tmp_path, capsys):
    import time

    paired = json.loads(Path(CONFIG_PAIRED).read_text())
    start = time.perf_counter()
    status, payload = _run_config(
        tmp_path, capsys, {**paired, "phi_weights": {"2": "1", "100000000000031": "1"}}
    )
    assert time.perf_counter() - start < 0.5
    assert status == 0 and payload == {"n": 2, "count": 14}


def test_config_rejects_prime_key_past_the_exact_bound(tmp_path, capsys):
    paired = json.loads(Path(CONFIG_PAIRED).read_text())
    status, payload = _run_config(tmp_path, capsys, {**paired, "phi_weights": {str(10**25): "1"}})
    assert status == 2
    assert payload["error"] == "ConfigError" and "bound of the exact primality test" in payload["message"]


_BIG_PRIME = "1000000000000000003"


def _quantum_with_q1(q1, **extra):
    raw = json.loads(Path(CONFIG_QUANTUM).read_text())
    return {**raw, "q": [q1, raw["q"][1]], **extra}


def test_map_report_with_a_large_prime_parameter(tmp_path, capsys):
    raw = _quantum_with_q1(_BIG_PRIME, mode="paired", phi_weights={"2": "1", _BIG_PRIME: "5"})
    status, payload = _run_config(tmp_path, capsys, raw, ("map-report",))
    assert status == 0
    assert payload["phi"]["q"] == ["5", "5"] and payload["grade"] == "quotient"
    assert len(payload["strata"]) == 14
    assert all(s["psi_ok"] and s["upsilon_ok"] for s in payload["strata"])


def test_map_report_default_weights_with_a_large_prime(tmp_path, capsys):
    status, payload = _run_config(tmp_path, capsys, _quantum_with_q1(_BIG_PRIME), ("map-report",))
    assert status == 2
    assert payload == {
        "error": "ValueError",
        "message": "parameters involve several primes; supply explicit character weights",
    }


def test_map_report_names_an_unfactorable_parameter(tmp_path, capsys):
    product = (10**9 + 7) * (10**9 + 9)
    status, payload = _run_config(tmp_path, capsys, _quantum_with_q1(str(product)), ("map-report",))
    assert status == 2
    assert payload["error"] == "ValueError" and payload["message"].startswith(f"cannot factor {product}")


def test_trivial_parameter_group_needs_no_weights(tmp_path, capsys):
    raw = {"mode": "paired", "n": 0, "gamma": [], "p": [], "q": []}
    status, payload = _run_config(tmp_path, capsys, raw, ("map-report",))
    assert status == 0
    assert payload["grade"] == "homeomorphism" and payload["phi"]["weights"] == {}
    assert payload["strata"] == [
        {"members": [], "eta": [], "length": 0, "gk_dim": 0, "psi_ok": True, "upsilon_ok": True}
    ]
    status, payload = _run_config(tmp_path, capsys, raw, ("matrices",))
    assert status == 0 and payload == {"r": [], "s": []}
    status, payload = _run_config(tmp_path, capsys, raw, ("verify", "psi"))
    assert status == 0 and payload["ok"]
    assert payload["details"]["strata"] == [{"members": [], "ok": True}]


POISSON_SUITES = ("jacobi", "lemma2.3", "confluence", "kstable", "psi", "weights", "eta")
QUANTUM_SUITES = ("associativity", "upsilon", "normality")


@pytest.mark.parametrize(
    "mode,suites",
    [
        ("poisson", POISSON_SUITES),
        ("quantum", QUANTUM_SUITES),
        ("paired", POISSON_SUITES + QUANTUM_SUITES),
    ],
)
def test_every_suite_runs_at_n0(tmp_path, capsys, mode, suites):
    # The ring of A_0 has no variables: the random inputs are constants,
    # drawn without a variable index.  A suite the mode cannot run ends in
    # the ConfigError object.
    raw = {"mode": mode, "n": 0, "gamma": [], "p": [], "q": []}
    for suite in cli.SUITES:
        status, payload = _run_config(tmp_path, capsys, raw, ("verify", suite))
        if suite in suites:
            assert (status, payload["suite"], payload["ok"]) == (0, suite, True)
        else:
            assert (status, payload["error"]) == (2, "ConfigError")
    status, payload = _run_config(tmp_path, capsys, raw, ("verify", "all"))
    assert status == 0 and payload["ok"] is True
    assert {entry["suite"] for entry in payload["summary"] if entry["ok"]} == set(suites)


def test_config_admissible_literal_is_validated(tmp_path, capsys):
    # no command reads an `admissible` key, so it is an unknown key like a
    # misspelt one, whatever its value
    for key, value in (("admissible", ["y1", "Omega1"]), ("admissible", ["y1"]), ("phi_weight", {"2": "1"})):
        status, payload = _run_config(tmp_path, capsys, {**POISSON_RAW, key: value})
        assert status == 2
        assert payload["error"] == "ConfigError" and f"unknown config key {key!r}" in payload["message"]


def test_cli_minus_one_error_bytes(tmp_path, capsys):
    raw = json.loads(Path(CONFIG_PAIRED).read_text())
    raw.update(gamma=[["1", "-2"], ["-1/2", "1"]], phi_weights={"2": "1"})
    path = tmp_path / "minus.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "map-report"]) == 2
    assert capsys.readouterr().out == (
        '{"error": "GroupContainsMinusOne", "message": "the parameter group contains -1"}\n'
    )


def test_config_nested_past_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"mode": "paired", "n": ' + "[" * 1000 + "]" * 1000 + "}")
    assert main(["--config", str(path), "admissible", "--count"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError" and "nests too deeply" in payload["message"]


def test_cli_nf_power_charges_one_budget(capsys, monkeypatch):
    # Each product of (y1+x1+y2+x2)^8 makes at most 448 crossings and all
    # seven make 1134, so only one budget for the whole expression stops it;
    # the power charges its seven products too, for 1141 steps in all.
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "500")
    assert main(["--config", CONFIG_QUANTUM, "nf", "(y1+x1+y2+x2)^8"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StepBudgetExceeded",
        "message": "exceeded 500 rewrite steps",
    }
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1140")
    assert main(["--config", CONFIG_QUANTUM, "nf", "(y1+x1+y2+x2)^8"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "1141")
    assert main(["--config", CONFIG_QUANTUM, "nf", "(y1+x1+y2+x2)^8"]) == 0
    capsys.readouterr()


def test_config_rejects_exponent_notation(tmp_path, capsys):
    # and digits outside ASCII, which Fraction reads: "\u0663" is 3
    for literal in ("1e400", "2E3", "1/1e5", "\u0663"):
        status, payload = _run_config(tmp_path, capsys, {**POISSON_RAW, "p": [literal, "3"]})
        assert status == 2
        assert payload["error"] == "ConfigError" and repr(literal) in payload["message"]
    status, payload = _run_config(tmp_path, capsys, {**POISSON_RAW, "p": ["4/2", "3"]})
    assert status == 0


def test_confluence_suite_shares_one_varspec(capsys, monkeypatch):
    # The random inputs and every quotient system live over one VarSpec
    # object, and every owner test (`same_owner`) tries identity first, so
    # no VarSpec is compared field by field; that once took 144,156 calls.
    # The suite draws its inputs and random rewrites from one Random(11).
    # After the whole run at n = 3 its state is that of the loop written
    # with `randint_poly`: one deterministic and two random reductions of
    # every input over all 48 strata.
    from poisson_strata.admissible import enumerate_admissible
    from poisson_strata.algebra_an import quotient_system
    from poisson_strata.exact_poly import VarSpec, reduce_packed, reduce_poly

    calls = []
    plain = VarSpec.__eq__

    def counting(self, other):
        calls.append(1)
        return plain(self, other)

    made = []

    def recording(seed):
        rng = random.Random(seed)
        made.append(rng)
        return rng

    monkeypatch.setattr(VarSpec, "__eq__", counting)
    monkeypatch.setattr(cli, "random", types.SimpleNamespace(Random=recording))
    assert main(["--config", PAIRED_N3, "verify", "confluence"]) == 0
    assert json.loads(capsys.readouterr().out)["details"] == {"reductions": 48000}
    assert len(calls) == 0

    params = load_config(PAIRED_N3).poisson
    vs = an_varspec(3)
    rng = random.Random(11)
    code = monomial_code(len(vs), 3)
    strata = enumerate_admissible(3)
    assert len(strata) == 48
    for t_set in strata:
        system = quotient_system(params, t_set)
        table = system.rewrites(code)
        for _ in range(cli.RANDOM_TRIALS):
            f = randint_poly(vs, rng)
            base = reduce_poly(f, system).terms
            packed = code.pack_terms(f.terms)
            for _ in range(2):
                assert code.unpack_terms(reduce_packed(packed, table, 10**6, rng.getrandbits)) == base
    assert len(made) == 1 and made[0].getstate() == rng.getstate()


def test_confluence_checks_each_system_owner(capsys, monkeypatch):
    # The suite reduces term maps, which carry no owner, so it tests each
    # stratum's system against A_n's variables once.  A system over other
    # variables, here with y1 killed and no rules, must end the run in the
    # owner error, not pass because no rule applies.
    from poisson_strata.admissible import enumerate_admissible
    from poisson_strata.exact_poly import ReductionSystem, VarSpec

    strata = enumerate_admissible(3)
    plain = cli.quotient_system
    other = ReductionSystem(VarSpec(an_varspec(3).names, killed=frozenset({"y1"})), ())

    def quotient(params, t_set):
        return other if t_set == strata[20] else plain(params, t_set)

    monkeypatch.setattr(cli, "quotient_system", quotient)
    assert main(["--config", PAIRED_N3, "verify", "confluence"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "VarSpecMismatch",
        "message": "polynomial and reduction system disagree on variables",
    }


@pytest.mark.parametrize("suite", ["confluence", "kstable"])
def test_quotient_suites_read_every_table_in_one_code(capsys, monkeypatch, suite):
    # Each suite picks one code for its run: the tables it reads, one per
    # stratum (kstable reads none for the empty set, which has no member),
    # all share that code object.
    tables = {}

    def recording(plain):
        def read(terms, table, *args):
            tables[id(table)] = table
            return plain(terms, table, *args)
        return read

    for name in ("reduce_packed", "rewrite_candidates"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    assert main(["--config", PAIRED_N3, "verify", suite]) == 0
    capsys.readouterr()
    assert len(tables) == {"confluence": 48, "kstable": 47}[suite]
    assert len({id(table.code) for table in tables.values()}) == 1


def _unpacked_terms(width, rng):
    """The packed term map of `cli._random_terms`, drawn in the confluence
    suite's code (fields that hold the largest degree, 3), with
    exponent-vector keys in the same order."""
    code = monomial_code(width, cli._TERM_DEGREES[-1])
    return code.unpack_terms(cli._random_terms(code, (width, width.bit_length()), rng))


def suite_terms(vs):
    """`cli._random_terms` over vs's variables, unpacked as polynomials."""
    return lambda rng: LaurentPoly._trusted(vs, _unpacked_terms(len(vs), rng))


def suite_monomials(n):
    """`cli._random_monomial` over n pairs as the associativity suite draws:
    one code and one decode map for the whole run."""
    code, decoded = monomial_code(2 * n, cli._WORD_LENGTHS[-1]), {}
    positions = 2 * n, (2 * n).bit_length()
    return lambda rng: cli._random_monomial(code, positions, decoded, rng)


@pytest.mark.parametrize(
    "seed,count,owner,reference,sampler",
    [
        (11, 48 * cli.RANDOM_TRIALS, an_varspec(3), randint_poly, suite_terms),  # confluence
        (7, 50 * 3, an_varspec(3), randint_poly, suite_terms),  # the jacobi sample test
        (13, 3 * cli.RANDOM_TRIALS, 3, randint_monomial, suite_monomials),  # associativity
    ],
)
def test_suite_generators_draw_the_plain_inputs(seed, count, owner, reference, sampler):
    # Over a suite's full draw count at n = 3, the inline-draw generators
    # give the same values, unpacked term for term in the same order, and
    # leave the rng in the same state as the randint/randrange spelling.
    draw = sampler(owner)
    ref_rng, rng = random.Random(seed), random.Random(seed)
    for _ in range(count):
        expected = reference(owner, ref_rng)
        got = draw(rng)
        assert got == expected and list(got.terms.items()) == list(expected.terms.items())
    assert rng.getstate() == ref_rng.getstate()


def test_samplers_at_width_zero_draw_as_the_two_loops():
    # With no variable there is no position to draw, but the degree is still
    # drawn: the shared monomial draw gives the values of the two loops it
    # replaced (each a single term at width 0), unpacked, and leaves the rng
    # in the same state.
    samplers = ((functools.partial(_unpacked_terms, 0), two_loop_terms), (suite_monomials(0), two_loop_monomial))
    for draw, reference in samplers:
        ref_rng, rng = random.Random(17), random.Random(17)
        for _ in range(1000):
            assert draw(rng) == reference(0, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


def test_kstable_reports_the_per_stratum_failures(capsys, monkeypatch):
    # Drop each system's first pair rule y_i x_i -> ...: the ideal is then
    # no longer stable.  The suite builds each member's images once; a loop
    # that rebuilds them for every stratum must find the same failures in
    # the same order.
    from poisson_strata.admissible import enumerate_admissible
    from poisson_strata.algebra_an import k_basis, k_derivation, named_element
    from poisson_strata.exact_poly import ReductionSystem, reduce_poly

    plain = cli.quotient_system

    def without_a_pair_rule(params, t_set):
        system = plain(params, t_set)
        pairs = [k for k, rule in enumerate(system.rules) if sum(rule.lead) == 2]
        rules = system.rules[: pairs[0]] + system.rules[pairs[0] + 1:] if pairs else system.rules
        return ReductionSystem(system.varspec, rules)

    monkeypatch.setattr(cli, "quotient_system", without_a_pair_rule)
    assert main(["--config", PAIRED_N3, "verify", "kstable"]) == 1
    failures = json.loads(capsys.readouterr().out)["details"]["failures"]

    params = load_config(PAIRED_N3).poisson
    structure = build_an(params)
    vs = structure.varspec
    expected = []
    for t_set in enumerate_admissible(params.n):
        system = without_a_pair_rule(params, t_set)
        members = list(t_set.member_names())
        for name in members:
            poly = named_element(params, name, LaurentPoly, vs)
            for g_name in vs.names:
                residual = reduce_poly(structure.bracket(poly, structure.generator(g_name)), system)
                if not residual.is_zero():
                    expected.append(f"{members}: bracket({name}, {g_name}): residual {format_poly(residual)}")
            for h in k_basis(params.n):
                residual = reduce_poly(k_derivation(params, h).apply(poly), system)
                if not residual.is_zero():
                    vector = ", ".join(map(str, h))
                    expected.append(f"{members}: weight vector ({vector}) on {name}: residual {format_poly(residual)}")
    assert expected and failures == expected
    assert failures[0].startswith("['Omega3']: bracket(Omega3, y1): residual ")
    assert any(": weight vector (1, 0, 1, 0, 1, 0) on Omega3: residual " in f for f in failures)


def test_associativity_names_the_residual_of_the_failing_triple(capsys, monkeypatch):
    # With f * g read as fg + f, (f * g) * h - f * (g * h) is fh: the first
    # triple fails, and its residual is the true product fh.
    real = cli.nc_multiply

    def skewed(params, f, g, budget=None):
        return real(params, f, g, budget) + f

    monkeypatch.setattr(cli, "nc_multiply", skewed)
    assert main(["--config", PAIRED_N3, "verify", "associativity"]) == 1
    details = json.loads(capsys.readouterr().out)["details"]
    params = load_config(PAIRED_N3).quantum
    rng, draw = random.Random(13), suite_monomials(params.n)
    f, g, h = (draw(rng) for _ in range(3))
    assert details == {"triple": repr((f, g, h)), "residual": format_nc(real(params, f, h))}


def test_confluence_names_the_input_of_the_choice_reference(capsys, monkeypatch):
    # One stratum gets the rules x1 -> y1 and y1 x1 -> 0, which do not have
    # unique normal forms (y1 x1 reduces to y1^2 and to 0).  The suite skips
    # the random reductions of inputs no rule applies to; a loop that runs
    # both with `rng.choice` for every input must stop at the same input.
    from poisson_strata.admissible import enumerate_admissible
    from poisson_strata.exact_poly import ReductionRule, ReductionSystem, reduce_poly

    vs = an_varspec(3)
    y1, x1 = LaurentPoly.variable(vs, "y1"), LaurentPoly.variable(vs, "x1")
    broken = ReductionSystem(
        vs,
        (
            ReductionRule((0, 1, 0, 0, 0, 0), y1),
            ReductionRule((1, 1, 0, 0, 0, 0), LaurentPoly.zero(vs)),
        ),
    )
    strata = enumerate_admissible(3)
    plain = cli.quotient_system

    def quotient(params, t_set):
        return broken if t_set == strata[20] else plain(params, t_set)

    monkeypatch.setattr(cli, "quotient_system", quotient)
    assert main(["--config", PAIRED_N3, "verify", "confluence"]) == 1
    report = json.loads(capsys.readouterr().out)

    params = load_config(PAIRED_N3).poisson
    rng = random.Random(11)

    def first_failure():
        for t_set in strata:
            system = quotient(params, t_set)
            for _ in range(cli.RANDOM_TRIALS):
                f = randint_poly(vs, rng)
                base = reduce_poly(f, system)
                for _ in range(2):
                    other = choice_reduce(f, system, rng)
                    if other != base:
                        texts = [format_poly(g) for g in (f, base, other)]
                        keys = ("input", "deterministic", "random")
                        return {"set": list(t_set.member_names()), **dict(zip(keys, texts))}

    details = first_failure()
    assert details["set"] == list(strata[20].member_names())
    assert report == {"suite": "confluence", "ok": False, "details": details}


def test_confluence_failure_names_both_normal_forms(capsys, monkeypatch):
    # With the rules y1 x1 -> x2 and y1 -> 0 the input y1 x1 y2 - 3 y1 has
    # the normal forms y2 x2 (the first rule first) and 0 (the second rule
    # first); a failure prints the deterministic one and the random one.
    from poisson_strata.exact_poly import ReductionRule, ReductionSystem

    vs = an_varspec(2)
    broken = ReductionSystem(
        vs,
        (
            ReductionRule((1, 1, 0, 0), LaurentPoly.variable(vs, "x2")),
            ReductionRule((1, 0, 0, 0), LaurentPoly.zero(vs)),
        ),
    )
    monkeypatch.setattr(cli, "quotient_system", lambda params, t_set: broken)
    assert main(["--config", CONFIG_POISSON, "verify", "confluence"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "suite": "confluence",
        "ok": False,
        "details": {"set": [], "input": "y1*x1*y2 - 3*y1", "deterministic": "y2*x2", "random": "0"},
    }
