"""Regenerate the benchmark's stored references.

    python3 perfbench/regen.py expressions
        Evaluates every command of every generator session with the
        evaluators in perfbench/reference (sympy for brackets, naive word
        rewriting and the closed form for normal forms) and writes
        perfbench/data/expressions.json.  Imports nothing from the package.

    python3 perfbench/regen.py reports
        Records the SHA-256 of the program's `map-report` stdout for each
        strata-report config in perfbench/data/reports.json, the bytes every
        later run must reproduce.  Runs the package from src/; use it only
        when a change to the report's output is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exprgen  # noqa: E402
import workloads  # noqa: E402
from reference import params as ref_params  # noqa: E402
from reference.poisson import PoissonReference  # noqa: E402
from reference.quantum import QuantumReference  # noqa: E402
from reference.terms import digest  # noqa: E402

CONFIG_DIR, DATA_DIR = workloads.CONFIG_DIR, workloads.DATA_DIR


def expression_terms(command: exprgen.Command, evaluators: dict):
    config = ref_params.load(os.path.join(CONFIG_DIR, command.config))
    key = (command.config, command.command)
    if key not in evaluators:
        if command.command == "bracket":
            evaluators[key] = PoissonReference(config.poisson())
        else:
            evaluators[key] = QuantumReference(config.quantum())
    evaluator = evaluators[key]
    if command.command == "bracket":
        return evaluator.bracket_terms(*command.args)
    k = exprgen.deep_exponent(command)
    if k is not None:
        return evaluator.deep_word_terms(k)
    return evaluator.evaluate(command.args[0])


def regenerate_expressions() -> None:
    evaluators: dict = {}
    sessions = []
    for seed in exprgen.GENERATOR_SEEDS:
        start = time.perf_counter()
        rows = []
        for command in exprgen.session(seed):
            terms = expression_terms(command, evaluators)
            rows.append(
                {
                    "config": command.config,
                    "command": command.command,
                    "args": list(command.args),
                    "terms": len(terms),
                    "digest": digest(terms),
                }
            )
        sessions.append(rows)
        print(f"session {seed}: {len(rows)} commands in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    _write("expressions.json", {"generator_seeds": list(exprgen.GENERATOR_SEEDS), "sessions": sessions})


def regenerate_reports() -> None:
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("POISSON_STRATA_STEP_BUDGET", None)
    digests = {}
    for name in workloads.REPORT_CONFIGS:
        out = subprocess.run(
            [sys.executable, "-m", "poisson_strata.cli", "--config", os.path.join(CONFIG_DIR, name), "map-report"],
            env=env,
            cwd=root,
            check=True,
            capture_output=True,
        ).stdout
        digests[name] = hashlib.sha256(out).hexdigest()
    _write("reports.json", {"map_report_sha256": digests})


def _write(name: str, payload: dict) -> None:
    """JSON with one line per top-level key, and per row of a list of lists."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            rows = ",\n".join(
                "  [\n" + ",\n".join("   " + json.dumps(row) for row in group) + "\n  ]" for group in value
            )
            lines.append(f" {json.dumps(key)}: [\n{rows}\n ]")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(os.path.join(DATA_DIR, name), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str]) -> int:
    targets = {"expressions": regenerate_expressions, "reports": regenerate_reports}
    if len(argv) != 1 or argv[0] not in targets:
        print(__doc__, file=sys.stderr)
        return 2
    targets[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
