"""Exact stdout of representative CLI commands, pinned byte for byte.

Small outputs are kept as literals, among them the suite texts and the
associativity step boundary that the CI "Installed command" step checks;
the stratum reports at n = 2 to 5, the rational one at n = 3, the `verify
all` reports at n = 2 and 3, the `psi` and `upsilon` suites at n = 3, the
matrices and four deep `nf` words at n = 2 and 3 and the admissible sets at
n = 6, listed and as a poset, are pinned by their SHA-256 digest, and two
reports at n = 3 must not change with the string hash seed.  Any change to
the coefficient tables, the arithmetic, the stratum maps or the formatters
that alters a printed byte fails here.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poisson_strata.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Sums, products and power towers with a leading minus, juxtaposition, a
# bracket and nested chains: their values and step counts pin the order in
# which chains are evaluated.
CHAIN_BRACKET = ["bracket", "--", "-x1^2^2 y1 + 3 x2 y2 (y1 - x1)^3 - {x1, y2}^2", "y2 - 1/3"]
CHAIN_NF = ["nf", "--", "-(y1 + x1)^2^2 x2 - 2 y2 x2^3 y1 + (x2 y2)^3"]

LITERAL = [
    (
        "poisson_n2.json",
        ["matrices"],
        '{"r": [["0", "-5", "1", "-6"], ["5", "0", "2", "3"], ["-1", "-2", "0", "-7"], '
        '["6", "-3", "7", "0"]]}\n',
    ),
    (
        "quantum_n2.json",
        ["matrices"],
        '{"s": [["1", "1/4", "2", "1/8"], ["4", "1", "4", "1"], ["1/2", "1/4", "1", "1/32"], '
        '["8", "1", "32", "1"]]}\n',
    ),
    (
        "paired_n2.json",
        ["matrices"],
        '{"r": [["0", "-2", "1", "-3"], ["2", "0", "2", "0"], ["-1", "-2", "0", "-5"], '
        '["3", "0", "5", "0"]], "s": [["1", "1/4", "2", "1/8"], ["4", "1", "4", "1"], '
        '["1/2", "1/4", "1", "1/32"], ["8", "1", "32", "1"]]}\n',
    ),
    ("poisson_n2.json", ["bracket", "{x2, y2}", "1"], '{"result": "0"}\n'),
    ("poisson_n2.json", ["bracket", "x2", "y2"], '{"result": "7*y2*x2 + 3*y1*x1"}\n'),
    (
        "poisson_n2.json",
        ["bracket", "y1^2 x1 - (1/3) Omega1", "y1"],
        '{"result": "5*y1^3*x1 - 5*y1^2*x1"}\n',
    ),
    (
        "poisson_n2.json",
        ["bracket", "Omega2", "x2 - 3 y1"],
        '{"result": "-28*y2*x2^2 - 60*y1*y2*x2 - 21*y1*x1*x2 - 45*y1^2*x1"}\n',
    ),
    (
        "poisson_n2.json",
        ["bracket", "(y1 + x2)^3", "x1 y2 - 5/7"],
        '{"result": "12*x1*y2*x2^3 + 12*y1*x1*y2*x2^2 + 9*y1*x1^2*x2^2 - 12*y1^2*x1*y2*x2 '
        '+ 18*y1^2*x1^2*x2 - 12*y1^3*x1*y2 + 9*y1^3*x1^2"}\n',
    ),
    (
        "paired_n2.json",
        ["bracket", "x1 x2", "y1 y2 - Omega1"],
        '{"result": "12*y1*x1*y2*x2 - 5*y1*x1^2*x2 + y1^2*x1^2"}\n',
    ),
    ("quantum_n2.json", ["nf", "x2 y2"], '{"result": "32*y2*x2 + 2*y1*x1"}\n'),
    (
        "quantum_n2.json",
        ["nf", "x2 y1 x1 y2 - Omega2"],
        '{"result": "256*y1*x1*y2*x2 + 64*y1^2*x1^2 - 24*y2*x2 - 2*y1*x1"}\n',
    ),
    (
        "quantum_n2.json",
        ["nf", "(x1 + y1)^3 - 2 Omega1"],
        '{"result": "x1^3 + 21*y1*x1^2 + 21*y1^2*x1 + y1^3 - 4*y1*x1"}\n',
    ),
    (
        "paired_n2.json",
        ["nf", "x2^3 y2^2 - (1/4) y1 x2"],
        '{"result": "1073741824*y2^2*x2^3 + 13762560*y1*x1*y2*x2^2 + 860160*y1^2*x1^2*x2 '
        '- 1/4*y1*x2"}\n',
    ),
    (
        "quantum_n2.json",
        ["nf", "Omega2 x1 - x1 Omega2"],
        '{"result": "-18*x1*y2*x2 - 6*y1*x1^2"}\n',
    ),
    ("quantum_n2.json", ["nf", "-".join(["x2"] * 1500)], '{"result": "-1498*x2"}\n'),
]

# The parameters of perfbench/configs/paired_n3.json and paired_n4.json.
PAIRED_N3 = {
    "mode": "paired",
    "n": 3,
    "gamma": [["1", "2", "4"], ["1/2", "1", "2"], ["1/4", "1/2", "1"]],
    "p": ["2", "8", "2"],
    "q": ["4", "32", "16"],
    "phi_weights": {"2": "1"},
}
PAIRED_N4 = {
    "mode": "paired",
    "n": 4,
    "gamma": [
        ["1", "2", "4", "8"],
        ["1/2", "1", "2", "4"],
        ["1/4", "1/2", "1", "2"],
        ["1/8", "1/4", "1/2", "1"],
    ],
    "p": ["2", "8", "2", "8"],
    "q": ["4", "32", "16", "64"],
    "phi_weights": {"2": "1"},
}
# n = 5 with gamma_ij = 2^(j - i): 560 strata, graded "homeomorphism".
PAIRED_N5 = {
    "mode": "paired",
    "n": 5,
    "gamma": [[str(Fraction(2) ** (j - i)) for j in range(5)] for i in range(5)],
    "p": ["2", "8", "2", "8", "2"],
    "q": ["4", "32", "16", "64", "128"],
    "phi_weights": {"2": "1"},
}
# Rationals over six primes: the one pinned report whose hat coefficients
# have odd denominators, graded "quotient" by its non-injective character.
RATIONAL_N3 = {
    "mode": "paired",
    "n": 3,
    "gamma": [["1", "3/5", "7/2"], ["5/3", "1", "11/13"], ["2/7", "13/11", "1"]],
    "p": ["2/3", "5/7", "9/4"],
    "q": ["5/11", "3/2", "7/5"],
    "phi_weights": {"2": "1", "3": "3", "5": "4", "7": "9", "11": "13", "13": "17"},
}

# The Poisson parameters with zero coupling at n = 6: 1,912 admissible sets.
POISSON_N6 = {"mode": "poisson", "n": 6, "gamma": [["0"] * 6] * 6, "p": ["1"] * 6, "q": ["2"] * 6}

DIGEST = [
    (
        "poisson_n2.json",
        CHAIN_BRACKET,
        174,
        "b516ac939766dddf4a74a537ac0605c48cc02f7d1761540498a392fc0884ea59",
    ),
    (
        "quantum_n2.json",
        CHAIN_NF,
        189,
        "e73033de68044be0d530b96755811a349f8235b98de18d06ba414cf9beefc267",
    ),
    (
        "paired_n2.json",
        ["map-report"],
        2060,
        "8eb08fe805ae50b8c3e5509ea2a1802a3bed217ad804bf2a3f28c57fd3f5459f",
    ),
    (
        "paired_n2.json",
        ["verify", "all"],
        2703,
        "1d5f9ad2129f1a7c3c852331f5087a5ee5f26ddaa37b60b799c9529ba51ef52e",
    ),
    (
        PAIRED_N3,
        ["map-report"],
        7439,
        "91fd7961dce9239be8fd79e9b25313411edd956971a47bd07c065162f11cec0b",
    ),
    (
        PAIRED_N4,
        ["map-report"],
        28079,
        "149f377aa8520ec964b26c015f1cb1faf89762bde37512e6de1014c220e715e4",
    ),
    (
        PAIRED_N5,
        ["map-report"],
        106699,
        "e8897e5141688cbdadc9f99f70edc766f8116ce1eb2ddb1f7f1c53052790b552",
    ),
    (
        PAIRED_N3,
        ["verify", "all"],
        7812,
        "e68426241d586a9b4b264ee4d9f22ea68df158a2e3a82265bb02dfdcc8dec064",
    ),
    (
        PAIRED_N3,
        ["verify", "psi"],
        3376,
        "0f16239b0083b6f9f0373c7692334244968876ba912888586d4bc0af26219c17",
    ),
    (
        PAIRED_N3,
        ["verify", "upsilon"],
        3380,
        "61c5ace64021363d04cc0c3e9bace40567b075a518809901d253d2fdc62802d5",
    ),
    (
        RATIONAL_N3,
        ["map-report"],
        7513,
        "0631b3af61e05df9ad25d538094fc83a6d15570162eafbf316185ceb8c0cfc8b",
    ),
    (
        PAIRED_N3,
        ["matrices"],
        448,
        "339da260fdbf0ce40f94549f7f29212b142a12b1dc0d60cc8c3bc0f1b6c99215",
    ),
    (
        PAIRED_N3,
        ["nf", "(y1+x1+y2+x2+y3+x3)^5 (x3^3 y3^2 + x2^2 y1)"],
        48372,
        "0a5a087c52bf7c0685c59c99fd1aa2d1983871122dd266124d022f63245a8c1d",
    ),
    (
        PAIRED_N3,
        ["nf", "x3^7 y3^5 x2^4 y2^3 x1^2 y1"],
        3421,
        "40c4c4bf7df8deea4a9a2544ed32fd1242220d9203b6ede5eea7c93cba91bc4a",
    ),
    (
        "quantum_n2.json",
        ["nf", "(y1+x1+y2+x2)^6 x2^40 y1"],
        5313,
        "ed5695e7596b9310f76c1aaddc3fc672cc8b5661ff23d13a8b81238539cd2b70",
    ),
    (
        "quantum_n2.json",
        ["nf", "(2 y1 - 1/3 x1 + y2 x2)^5 (x2^7 y2^3 + 5 y1)"],
        7646,
        "57533bf1d0f85f5e94b7effdd51d6788eeb0cd907787bce676c10dcb8226cc48",
    ),
    (
        POISSON_N6,
        ["admissible", "--list"],
        167812,
        "fcd4d6e81b27b382f861365a9af4bb82733ab46ba8f31dac8775c2f47051837f",
    ),
    (
        POISSON_N6,
        ["admissible", "--poset"],
        472032,
        "fbf3984a95b14d254c2692bf91549ea98282897dbca41fd7f4ed810aec46f6d0",
    ),
]


def run_cli(config: str, command: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["--config", str(CONFIG_DIR / config), *command])
    return status, buf.getvalue()


@pytest.mark.parametrize("config,command,expected", LITERAL)
def test_stdout_literal(config, command, expected):
    assert run_cli(config, command) == (0, expected)


@pytest.mark.parametrize("config,command,size,digest", DIGEST)
def test_stdout_digest(tmp_path, config, command, size, digest):
    if isinstance(config, dict):  # parameters written out here, not a file of configs/
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = path
    status, out = run_cli(config, command)
    assert status == 0
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)


@pytest.mark.parametrize(
    "config,command,limit,unit",
    [("poisson_n2.json", CHAIN_BRACKET, 33, "term pairs"), ("quantum_n2.json", CHAIN_NF, 31, "rewrite steps")],
)
def test_chain_step_boundaries(monkeypatch, config, command, limit, unit):
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", str(limit))
    error = {"error": "StepBudgetExceeded", "message": f"exceeded {limit} {unit}"}
    assert run_cli(config, command) == (2, json.dumps(error) + "\n")
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", str(limit + 1))
    assert run_cli(config, command)[0] == 0


def test_poset_json_digest(tmp_path):
    # `admissible --poset` at n = 4 (164 strata, their covering edges in
    # (smaller, larger) order), pinned as the triple-loop search printed it.
    config = tmp_path / "poisson_n4.json"
    config.write_text(json.dumps({
        "mode": "poisson",
        "n": 4,
        "gamma": [[str(i - j) for j in range(4)] for i in range(4)],
        "p": ["2", "3", "4", "5"],
        "q": ["5", "7", "9", "11"],
    }))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["--config", str(config), "admissible", "--poset"])
    out = buf.getvalue()
    assert status == 0
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        28326,
        "93b27c0cfe465b41779dc00c88020c4fb68bbce87125d1ca4f3858bb5ddef29e",
    )


ROOT = CONFIG_DIR.parent
SUITES_N3 = "perfbench/configs/paired_n3.json"  # the random-suites benchmark config
ASSOCIATIVITY = '{"suite": "associativity", "ok": true, "details": {"triples": 1000}}'
KSTABLE = '{"suite": "kstable", "ok": true, "details": {"failures": []}}'


@pytest.mark.parametrize(
    "config,suite,limit,expected",
    [
        ("configs/poisson_n2.json", "confluence", None, '{"suite": "confluence", "ok": true, "details": {"reductions": 14000}}'),
        ("configs/poisson_n2.json", "kstable", None, KSTABLE),
        (SUITES_N3, "kstable", None, KSTABLE),
        (SUITES_N3, "associativity", None, ASSOCIATIVITY),
        (SUITES_N3, "associativity", 74, ASSOCIATIVITY),
    ],
)
def test_suite_texts(monkeypatch, config, suite, limit, expected):
    # The suite texts the "Installed command" CI step pins, checked as it
    # checks them: exit 0 and stdout exactly the text.  At 74 steps every
    # associativity product fits the budget.
    if limit is not None:
        monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", str(limit))
    assert run_cli(ROOT / config, ["verify", suite]) == (0, expected + "\n")


@pytest.mark.parametrize(
    "suite,expected",
    [
        ("confluence", '{"suite": "confluence", "ok": true, "details": {"reductions": 164000}}'),
        ("kstable", KSTABLE),
    ],
)
def test_rewrite_suite_texts_at_width_eight(suite, expected):
    # The 164 strata of paired_n4.json: the rewrite suites on a code of
    # eight fields, a second width beside the six of paired_n3.json.
    assert run_cli(ROOT / "perfbench/configs/paired_n4.json", ["verify", suite]) == (0, expected + "\n")


def test_associativity_step_boundary(monkeypatch):
    # The costliest associativity product takes 74 steps: at 73 the suite
    # ends in the budget error, as the CI step checks with grep.
    monkeypatch.setenv("POISSON_STRATA_STEP_BUDGET", "73")
    status, out = run_cli(ROOT / SUITES_N3, ["verify", "associativity"])
    assert status == 2 and '"error": "StepBudgetExceeded"' in out


@pytest.mark.parametrize("command", [["map-report"], ["verify", "all"]])
def test_stdout_does_not_depend_on_the_hash_seed(command):
    # the caches on the parameters are dicts keyed by tuples, and no printed
    # order may follow string hashing
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    config = root / "perfbench" / "configs" / "paired_n3.json"
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        args = [sys.executable, "-m", "poisson_strata.cli", "--config", str(config), *command]
        outs.append(subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1] and outs[0].startswith("{")
