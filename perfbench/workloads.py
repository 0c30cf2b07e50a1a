"""The three workloads: their commands and the checks on their outputs.

Every operation is one `cli.main` call with the arguments a user would type.
A workload's round is a fixed list of operations made from the seed; runs
repeat whole rounds.  An operation fails when `cli.main` raises or returns
the error status 2; `check` receives the operations that completed, with
their captured stdout and exit status, and returns the problems it found.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exprgen
from reference import params as ref_params
from reference import strata as ref_strata
from reference.terms import digest, parse_output

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
DATA_DIR = os.path.join(HERE, "data")

SUITES = ("confluence", "associativity", "kstable", "jacobi")
SUITE_TRIALS = 1000  # the trial count cli's randomized suites use by default


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    expect: object  # what `check` compares the output with


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]  # loaded by the set-up probe
    operations: Callable[[int], list[Operation]]
    check: Callable[[list[Operation], list[str], list[int]], list[str]]


def _config_path(name: str) -> str:
    return os.path.relpath(os.path.join(CONFIG_DIR, name))


def _load_data(name: str) -> dict:
    with open(os.path.join(DATA_DIR, name)) as fh:
        return json.load(fh)


# -- strata-report -------------------------------------------------------------

REPORT_CONFIGS = ("paired_n2.json", "paired_n3.json")


def strata_operations(seed: int) -> list[Operation]:
    digests = _load_data("reports.json")["map_report_sha256"]
    ops = [
        Operation(("--config", _config_path(name), "map-report"), (name, digests[name]))
        for name in REPORT_CONFIGS
    ]
    random.Random(seed).shuffle(ops)
    return ops


def check_strata(ops: list[Operation], outputs: list[str], statuses: list[int]) -> list[str]:
    problems = []
    for op, out, status in zip(ops, outputs, statuses):
        name, expected_sha = op.expect
        if status != 0:
            problems.append(f"{name}: exit status {status}")
            continue
        if hashlib.sha256(out.encode()).hexdigest() != expected_sha:
            problems.append(f"{name}: stdout bytes differ from the recorded report")
        problems += [f"{name}: {p}" for p in _check_report(name, json.loads(out))]
    return problems


def _check_report(name: str, report: dict) -> list[str]:
    config = ref_params.load(os.path.join(CONFIG_DIR, name))
    qparams = config.quantum()
    n = qparams.n
    problems = []
    expected = set(ref_strata.admissible_sets(n))
    got = [frozenset(s["members"]) for s in report["strata"]]
    if len(got) != len(expected) or set(got) != expected:
        problems.append(f"strata differ from the admissibility filter ({len(got)} vs {len(expected)})")
    for stratum in report["strata"]:
        members = frozenset(stratum["members"])
        if not (stratum["psi_ok"] is True and stratum["upsilon_ok"] is True):
            problems.append(f"stratum {sorted(members)} not verified")
        if stratum["length"] != ref_strata.length(members, n):
            problems.append(f"stratum {sorted(members)} has length {stratum['length']}")
        if stratum["gk_dim"] != 2 * n - stratum["length"]:
            problems.append(f"stratum {sorted(members)} has gk_dim {stratum['gk_dim']}")
    image = ref_params.two_adic_image(qparams)
    phi = report["phi"]
    if [Fraction(v) for v in phi["p"]] != list(image.p) or [Fraction(v) for v in phi["q"]] != list(image.q):
        problems.append("phi images of p, q are not the 2-adic valuations")
    if [[Fraction(v) for v in row] for row in phi["gamma"]] != [list(row) for row in image.gamma]:
        problems.append("phi image of gamma is not the 2-adic valuation")
    if report["grade"] != "homeomorphism":
        problems.append(f"grade is {report['grade']!r}")
    return problems


# -- random-suites -------------------------------------------------------------

SUITES_CONFIG = "paired_n3.json"


def suite_operations(seed: int) -> list[Operation]:
    ops = [Operation(("--config", _config_path(SUITES_CONFIG), "verify", s), s) for s in SUITES]
    random.Random(seed).shuffle(ops)
    return ops


def check_suites(ops: list[Operation], outputs: list[str], statuses: list[int]) -> list[str]:
    n = ref_params.load(os.path.join(CONFIG_DIR, SUITES_CONFIG)).params.n
    strata = len(ref_strata.admissible_sets(n))
    problems = []
    for op, out, status in zip(ops, outputs, statuses):
        suite = op.expect
        if status != 0:
            problems.append(f"{suite}: exit status {status}")
            continue
        report = json.loads(out)
        details = report["details"]
        if report["ok"] is not True or report["suite"] != suite:
            problems.append(f"{suite}: not ok")
        elif suite == "confluence" and details["reductions"] != SUITE_TRIALS * strata:
            problems.append(f"confluence: {details['reductions']} reductions, not {SUITE_TRIALS} x {strata}")
        elif suite == "associativity" and details["triples"] != SUITE_TRIALS:
            problems.append(f"associativity: {details['triples']} triples, not {SUITE_TRIALS}")
        elif suite == "kstable" and details["failures"]:
            problems.append("kstable: failures reported")
        elif suite == "jacobi" and not all(details.values()):
            problems.append(f"jacobi: {details}")
    return problems


# -- expressions ---------------------------------------------------------------


def expression_operations(seed: int) -> list[Operation]:
    """Every command of the stored generator sessions, in an order drawn from the seed."""
    ops = []
    for session in _load_data("expressions.json")["sessions"]:
        for row in session:
            n = ref_params.load(os.path.join(CONFIG_DIR, row["config"])).params.n
            argv = ("--config", _config_path(row["config"]), row["command"], *row["args"])
            ops.append(Operation(argv, (n, row["terms"], row["digest"])))
    random.Random(seed).shuffle(ops)
    return ops


def check_expressions(ops: list[Operation], outputs: list[str], statuses: list[int]) -> list[str]:
    problems = []
    for op, out, status in zip(ops, outputs, statuses):
        n, count, expected = op.expect
        if status != 0:
            problems.append(f"{op.argv[2:]}: exit status {status}")
            continue
        terms = parse_output(json.loads(out)["result"], n)
        if len(terms) != count or digest(terms) != expected:
            problems.append(f"{op.argv[2:]}: result differs from the reference")
    return problems


WORKLOADS = {
    "strata-report": Workload(REPORT_CONFIGS, strata_operations, check_strata),
    "random-suites": Workload((SUITES_CONFIG,), suite_operations, check_suites),
    "expressions": Workload(
        (exprgen.POISSON_N2, exprgen.QUANTUM_N2, exprgen.PAIRED_N3),
        expression_operations,
        check_expressions,
    ),
}
