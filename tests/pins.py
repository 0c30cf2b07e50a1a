"""Every pinned output of a single `poisson-strata` command, one row each.

A row names a config, the arguments after `--config`, the exit status, the
stdout and, optionally, the step budget (`POISSON_STRATA_STEP_BUDGET`;
None leaves it unset) and a time limit in seconds.  The stdout takes one
of three forms: a str is the exact text before the final newline, a
`Digest` is the byte count and SHA-256 of the whole stdout, and an `Error`
is the JSON error object, by its name and a pattern its message matches.

`check` compares one run with its row, and two runners call it:
`tests/test_cli_golden.py` runs every row in-process through `cli.main`
(Tier-1), and

    python tests/pins.py

runs every row through the `poisson-strata` command on PATH, each in a
subprocess under its time limit, prints every failing row and exits 1 if
any fails.  A new pin is a new row.  A row's config is a path from the
repository root, or an `Inline` set of parameters that the runner writes to
a temporary file.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

ROOT = Path(__file__).resolve().parent.parent
BUDGET = "POISSON_STRATA_STEP_BUDGET"


class Inline(NamedTuple):
    name: str
    params: dict


class Digest(NamedTuple):
    size: int
    sha256: str


class Error(NamedTuple):
    name: str
    pattern: str


class Row(NamedTuple):
    config: Union[str, Inline]
    args: tuple
    expected: Union[str, Digest, Error]
    status: int = 0
    budget: Optional[str] = None
    seconds: Optional[float] = None


POISSON_N2 = "configs/poisson_n2.json"
QUANTUM_N2 = "configs/quantum_n2.json"
PAIRED_N2 = "configs/paired_n2.json"
PAIRED_N3 = "perfbench/configs/paired_n3.json"  # the random-suites benchmark config
PAIRED_N4 = "perfbench/configs/paired_n4.json"


def zero_coupling(n: int) -> dict:
    """The Poisson parameters with gamma = 0, p = 1 and q = 2 at n."""
    return {"mode": "poisson", "n": n, "gamma": [["0"] * n] * n, "p": ["1"] * n, "q": ["2"] * n}


# n = 5 with gamma_ij = 2^(j - i): 560 strata, graded "homeomorphism".
PAIRED_N5 = Inline("paired_n5", {
    "mode": "paired",
    "n": 5,
    "gamma": [[str(Fraction(2) ** (j - i)) for j in range(5)] for i in range(5)],
    "p": ["2", "8", "2", "8", "2"],
    "q": ["4", "32", "16", "64", "128"],
    "phi_weights": {"2": "1"},
})
# Rationals over six primes: the one pinned report whose hat coefficients
# have odd denominators, graded "quotient" by its non-injective character.
RATIONAL_N3 = Inline("rational_n3", {
    "mode": "paired",
    "n": 3,
    "gamma": [["1", "3/5", "7/2"], ["5/3", "1", "11/13"], ["2/7", "13/11", "1"]],
    "p": ["2/3", "5/7", "9/4"],
    "q": ["5/11", "3/2", "7/5"],
    "phi_weights": {"2": "1", "3": "3", "5": "4", "7": "9", "11": "13", "13": "17"},
})
# 164 strata, whose poset was pinned as the triple-loop search printed it.
POISSON_N4 = Inline("poisson_n4", {
    "mode": "poisson",
    "n": 4,
    "gamma": [[str(i - j) for j in range(4)] for i in range(4)],
    "p": ["2", "3", "4", "5"],
    "q": ["5", "7", "9", "11"],
})
POISSON_N6 = Inline("poisson_n6", zero_coupling(6))  # 1,912 admissible sets
POISSON_N12 = Inline("poisson_n12", zero_coupling(12))  # 3,028,544 admissible sets
EMPTY_N0 = Inline("paired_n0", {"mode": "paired", "n": 0, "gamma": [], "p": [], "q": []})
STALE_N6 = Inline("stale_n6", {**POISSON_N6.params, "admissible": []})  # a key the config no longer has
# configs/paired_n2.json with a second spelling of the weight key 2
WEIGHT_02 = Inline("weight_02", {
    "mode": "paired",
    "n": 2,
    "gamma": [["1", "2"], ["1/2", "1"]],
    "p": ["2", "8"],
    "q": ["4", "32"],
    "phi_weights": {"2": "1", "02": "3"},
})

# Sums, products and power towers with a leading minus, juxtaposition, a
# bracket and nested chains: their values and step counts pin the order in
# which chains are evaluated.
CHAIN_BRACKET = ("bracket", "--", "-x1^2^2 y1 + 3 x2 y2 (y1 - x1)^3 - {x1, y2}^2", "y2 - 1/3")
CHAIN_NF = ("nf", "--", "-(y1 + x1)^2^2 x2 - 2 y2 x2^3 y1 + (x2 y2)^3")
DEEP_NF = ("nf", "x3^7 y3^5 x2^4 y2^3 x1^2 y1")
# 1,500 terms, past the recursion limit of a recursive parser
LONG_SUM = "-".join(["x2"] * 1500)
# one digit past the interpreter's limit on converting integer text
LONG_EXPONENT = "x1^" + "7" * (sys.get_int_max_str_digits() + 1)

# Outputs that two rows share: the same bytes at two budgets, or on two configs.
CHAIN_BRACKET_OUT = Digest(174, "b516ac939766dddf4a74a537ac0605c48cc02f7d1761540498a392fc0884ea59")
CHAIN_NF_OUT = Digest(189, "e73033de68044be0d530b96755811a349f8235b98de18d06ba414cf9beefc267")
DEEP_NF_OUT = Digest(3421, "40c4c4bf7df8deea4a9a2544ed32fd1242220d9203b6ede5eea7c93cba91bc4a")
MAP_REPORT_N2 = Digest(2060, "8eb08fe805ae50b8c3e5509ea2a1802a3bed217ad804bf2a3f28c57fd3f5459f")
R_N2 = '{"r": [["0", "-5", "1", "-6"], ["5", "0", "2", "3"], ["-1", "-2", "0", "-7"], ["6", "-3", "7", "0"]]}'
KSTABLE = '{"suite": "kstable", "ok": true, "details": {"failures": []}}'
ASSOCIATIVITY = '{"suite": "associativity", "ok": true, "details": {"triples": 1000}}'
NORMALITY = '{"suite": "normality", "ok": true, "details": {"tails": 3, "failures": []}}'

ROWS = [
    # matrices
    Row(POISSON_N2, ("matrices",), R_N2),
    Row(POISSON_N2, ("matrices", "--r"), R_N2),
    Row(QUANTUM_N2, ("matrices",), (
        '{"s": [["1", "1/4", "2", "1/8"], ["4", "1", "4", "1"], ["1/2", "1/4", "1", "1/32"], '
        '["8", "1", "32", "1"]]}'
    )),
    Row(PAIRED_N2, ("matrices",), (
        '{"r": [["0", "-2", "1", "-3"], ["2", "0", "2", "0"], ["-1", "-2", "0", "-5"], '
        '["3", "0", "5", "0"]], "s": [["1", "1/4", "2", "1/8"], ["4", "1", "4", "1"], '
        '["1/2", "1/4", "1", "1/32"], ["8", "1", "32", "1"]]}'
    )),
    Row(PAIRED_N3, ("matrices",), Digest(448, "339da260fdbf0ce40f94549f7f29212b142a12b1dc0d60cc8c3bc0f1b6c99215")),
    Row(POISSON_N2, ("matrices", "--s"), Error("ConfigError", "needs quantum parameters"), 2),
    # bracket
    Row(POISSON_N2, ("bracket", "{x2, y2}", "1"), '{"result": "0"}'),
    Row(POISSON_N2, ("bracket", "x2", "y2"), '{"result": "7*y2*x2 + 3*y1*x1"}'),
    Row(POISSON_N2, ("bracket", "y1^2 x1 - (1/3) Omega1", "y1"), '{"result": "5*y1^3*x1 - 5*y1^2*x1"}'),
    Row(POISSON_N2, ("bracket", "Omega2", "x2 - 3 y1"), (
        '{"result": "-28*y2*x2^2 - 60*y1*y2*x2 - 21*y1*x1*x2 - 45*y1^2*x1"}'
    )),
    Row(POISSON_N2, ("bracket", "(y1 + x2)^3", "x1 y2 - 5/7"), (
        '{"result": "12*x1*y2*x2^3 + 12*y1*x1*y2*x2^2 + 9*y1*x1^2*x2^2 - 12*y1^2*x1*y2*x2 '
        '+ 18*y1^2*x1^2*x2 - 12*y1^3*x1*y2 + 9*y1^3*x1^2"}'
    )),
    Row(PAIRED_N2, ("bracket", "x1 x2", "y1 y2 - Omega1"), (
        '{"result": "12*y1*x1*y2*x2 - 5*y1*x1^2*x2 + y1^2*x1^2"}'
    )),
    Row(POISSON_N2, ("bracket", "--", "-x1", "y1"), '{"result": "-5*y1*x1"}'),
    Row(POISSON_N2, CHAIN_BRACKET, CHAIN_BRACKET_OUT),
    Row(POISSON_N2, CHAIN_BRACKET, '{"error": "StepBudgetExceeded", "message": "exceeded 33 term pairs"}', 2, "33"),
    Row(POISSON_N2, CHAIN_BRACKET, CHAIN_BRACKET_OUT, budget="34"),
    Row(POISSON_N2, ("bracket", "-x1", "y1"), Error("UsageError", "read as an option"), 2),
    Row(POISSON_N2, ("bracket", "--", "x1", "--"), Error("UsageError", "argument right: expected one expression"), 2),
    Row(POISSON_N2, ("bracket", "x1", "--", "--"), Error("UsageError", "argument right: expected one expression"), 2),
    Row(POISSON_N2, ("bracket", "1/0", "x1"), Error("ParseError", "zero denominator"), 2),
    # nf
    Row(QUANTUM_N2, ("nf", "x2 y2"), '{"result": "32*y2*x2 + 2*y1*x1"}'),
    Row(QUANTUM_N2, ("nf", "x2 y1 x1 y2 - Omega2"), (
        '{"result": "256*y1*x1*y2*x2 + 64*y1^2*x1^2 - 24*y2*x2 - 2*y1*x1"}'
    )),
    Row(QUANTUM_N2, ("nf", "(x1 + y1)^3 - 2 Omega1"), (
        '{"result": "x1^3 + 21*y1*x1^2 + 21*y1^2*x1 + y1^3 - 4*y1*x1"}'
    )),
    Row(PAIRED_N2, ("nf", "x2^3 y2^2 - (1/4) y1 x2"), (
        '{"result": "1073741824*y2^2*x2^3 + 13762560*y1*x1*y2*x2^2 + 860160*y1^2*x1^2*x2 - 1/4*y1*x2"}'
    )),
    Row(QUANTUM_N2, ("nf", "Omega2 x1 - x1 Omega2"), '{"result": "-18*x1*y2*x2 - 6*y1*x1^2"}'),
    Row(QUANTUM_N2, ("nf", LONG_SUM), '{"result": "-1498*x2"}'),
    Row(QUANTUM_N2, ("nf", "(y1+x1+y2+x2)^6 x2^40 y1"), (
        Digest(5313, "ed5695e7596b9310f76c1aaddc3fc672cc8b5661ff23d13a8b81238539cd2b70")
    )),
    Row(QUANTUM_N2, ("nf", "(2 y1 - 1/3 x1 + y2 x2)^5 (x2^7 y2^3 + 5 y1)"), (
        Digest(7646, "57533bf1d0f85f5e94b7effdd51d6788eeb0cd907787bce676c10dcb8226cc48")
    )),
    Row(QUANTUM_N2, CHAIN_NF, CHAIN_NF_OUT),
    Row(QUANTUM_N2, CHAIN_NF, '{"error": "StepBudgetExceeded", "message": "exceeded 31 rewrite steps"}', 2, "31"),
    Row(QUANTUM_N2, CHAIN_NF, CHAIN_NF_OUT, budget="32"),
    Row(PAIRED_N3, ("nf", "(y1+x1+y2+x2+y3+x3)^5 (x3^3 y3^2 + x2^2 y1)"), (
        Digest(48372, "0a5a087c52bf7c0685c59c99fd1aa2d1983871122dd266124d022f63245a8c1d")
    )),
    Row(PAIRED_N3, DEEP_NF, DEEP_NF_OUT),
    Row(PAIRED_N3, DEEP_NF, Error("StepBudgetExceeded", "exceeded 639 rewrite steps"), 2, "639"),
    Row(PAIRED_N3, DEEP_NF, DEEP_NF_OUT, budget="640"),
    Row(QUANTUM_N2, ("nf", "(y1+x1+y2+x2)^8"), Error("StepBudgetExceeded", "exceeded 500 rewrite steps"), 2, "500"),
    # a power charges its products before it computes one
    Row(QUANTUM_N2, ("nf", "x1^99999999999999999999"), (
        Error("StepBudgetExceeded", "exceeded 1000000 rewrite steps")
    ), 2, seconds=5),
    Row(QUANTUM_N2, ("nf", "(x1+1)^4000"), Error("StepBudgetExceeded", "exceeded 1 rewrite steps"), 2, "1", 5),
    Row(QUANTUM_N2, ("nf", "1/0"), Error("ParseError", "zero denominator"), 2),
    Row(QUANTUM_N2, ("nf", LONG_EXPONENT), Error("ParseError", "digits at offset 3"), 2),
    Row(QUANTUM_N2, ("nf", "Omega01"), Error("EvalError", "unknown variable 'Omega01'"), 2),
    # admissible
    Row(POISSON_N2, ("admissible", "--count"), '{"n": 2, "count": 14}'),
    Row(POISSON_N2, ("admissible", "--poset", "--dot"), (
        Digest(1040, "ea273cbcfdf77cbeda0a5faf63e365707e1b27e14c24765d57a13aaa2dfdb489")
    )),
    Row(POISSON_N2, ("admissible", "--dot"), Error("UsageError", "only allowed with argument --poset"), 2),
    Row(POISSON_N4, ("admissible", "--poset"), (
        Digest(28326, "93b27c0cfe465b41779dc00c88020c4fb68bbce87125d1ca4f3858bb5ddef29e")
    )),
    Row(POISSON_N6, ("admissible", "--list"), (
        Digest(167812, "fcd4d6e81b27b382f861365a9af4bb82733ab46ba8f31dac8775c2f47051837f")
    )),
    Row(POISSON_N6, ("admissible", "--poset"), (
        Digest(472032, "fbf3984a95b14d254c2692bf91549ea98282897dbca41fd7f4ed810aec46f6d0")
    )),
    Row(POISSON_N12, ("admissible", "--count"), '{"n": 12, "count": 3028544}', seconds=10),
    Row(STALE_N6, ("admissible", "--count"), Error("ConfigError", "unknown config key 'admissible'"), 2),
    # map-report: the quantized and the paired configs at n = 2 print the same report
    Row(QUANTUM_N2, ("map-report",), MAP_REPORT_N2),
    Row(PAIRED_N2, ("map-report",), MAP_REPORT_N2),
    Row(PAIRED_N2, ("map-report", "--pretty"), (
        Digest(3820, "73b5aba8a9685dc67332937364e922122daf521167763e61a4e625508ed2a885")
    )),
    Row(PAIRED_N3, ("map-report",), Digest(7439, "91fd7961dce9239be8fd79e9b25313411edd956971a47bd07c065162f11cec0b")),
    Row(PAIRED_N4, ("map-report",), (
        Digest(28079, "149f377aa8520ec964b26c015f1cb1faf89762bde37512e6de1014c220e715e4")
    ), seconds=10),
    Row(PAIRED_N5, ("map-report",), (
        Digest(106699, "e8897e5141688cbdadc9f99f70edc766f8116ce1eb2ddb1f7f1c53052790b552")
    )),
    Row(RATIONAL_N3, ("map-report",), (
        Digest(7513, "0631b3af61e05df9ad25d538094fc83a6d15570162eafbf316185ceb8c0cfc8b")
    )),
    Row(WEIGHT_02, ("map-report",), Error("ConfigError", "^weight key .02. must be written .2."), 2),
    # verify all
    Row(POISSON_N2, ("verify", "all"), (
        Digest(2070, "150ed8bc9471a8cf84924566b5902b3f80a3f7dfba07fab75575c57f189d4ed6")
    )),
    Row(PAIRED_N2, ("verify", "all"), Digest(2703, "1d5f9ad2129f1a7c3c852331f5087a5ee5f26ddaa37b60b799c9529ba51ef52e")),
    Row(PAIRED_N3, ("verify", "all"), Digest(7812, "e68426241d586a9b4b264ee4d9f22ea68df158a2e3a82265bb02dfdcc8dec064")),
    Row(EMPTY_N0, ("verify", "all"), Digest(1222, "ba0ada8dfbb454df8769a2648a1300400f884af22100e65f6c26d0c025ff6ce9")),
    Row(PAIRED_N2, ("verify", "all"), Error("ConfigError", "must be an integer, got 'abc'"), 2, "abc"),
    # the suites
    Row(PAIRED_N3, ("verify", "jacobi"), (
        '{"suite": "jacobi", "ok": true, "details": {"generator_triples": true, "iterated_rebuild": true}}'
    )),
    Row(PAIRED_N3, ("verify", "lemma2.3"), (
        '{"suite": "lemma2.3", "ok": true, "details": {"ok": true, "identities_checked": 46, "failures": []}}'
    )),
    Row(POISSON_N2, ("verify", "confluence"), '{"suite": "confluence", "ok": true, "details": {"reductions": 14000}}'),
    Row(PAIRED_N3, ("verify", "confluence"), '{"suite": "confluence", "ok": true, "details": {"reductions": 48000}}'),
    # the rewrite suites on a code of eight fields, beside the six of n = 3
    Row(PAIRED_N4, ("verify", "confluence"), '{"suite": "confluence", "ok": true, "details": {"reductions": 164000}}'),
    Row(PAIRED_N2, ("verify", "confluence"), (
        '{"error": "StepBudgetExceeded", "message": "exceeded 1 admissible sets"}'
    ), 2, "1"),
    Row(POISSON_N2, ("verify", "kstable"), KSTABLE),
    Row(PAIRED_N3, ("verify", "kstable"), KSTABLE),
    Row(PAIRED_N4, ("verify", "kstable"), KSTABLE),
    # the costliest product takes 74 steps
    Row(PAIRED_N3, ("verify", "associativity"), ASSOCIATIVITY),
    Row(PAIRED_N3, ("verify", "associativity"), Error("StepBudgetExceeded", "exceeded 73 rewrite steps"), 2, "73"),
    Row(PAIRED_N3, ("verify", "associativity"), ASSOCIATIVITY, budget="74"),
    Row(PAIRED_N3, ("verify", "psi"), Digest(3376, "0f16239b0083b6f9f0373c7692334244968876ba912888586d4bc0af26219c17")),
    Row(PAIRED_N3, ("verify", "upsilon"), (
        Digest(3380, "61c5ace64021363d04cc0c3e9bace40567b075a518809901d253d2fdc62802d5")
    )),
    Row(PAIRED_N3, ("verify", "normality"), NORMALITY),
    Row(PAIRED_N3, ("verify", "normality"), Error("StepBudgetExceeded", "exceeded 4 rewrite steps"), 2, "4"),
    Row(PAIRED_N3, ("verify", "normality"), NORMALITY, budget="5"),
    Row(PAIRED_N3, ("verify", "weights"), '{"suite": "weights", "ok": true, "details": {"basis": 4, "failures": []}}'),
    Row(PAIRED_N3, ("verify", "eta"), (
        '{"suite": "eta", "ok": true, "details": {"injective": true, "nested_pairs": 517, "failures": []}}'
    )),
    Row(PAIRED_N4, ("verify", "eta"), (
        '{"suite": "eta", "ok": true, "details": {"injective": true, "nested_pairs": 3861, "failures": []}}'
    )),
    Row(POISSON_N6, ("verify", "eta"), (
        '{"suite": "eta", "ok": true, "details": {"injective": true, "nested_pairs": 215125, "failures": []}}'
    ), seconds=3),
    # past 10^6 strata, the default budget stops the walk before it builds one
    Row(POISSON_N12, ("verify", "eta"), Error("StepBudgetExceeded", "exceeded 1000000 admissible sets"), 2, seconds=10),
    # an option before the command
    Row(QUANTUM_N2, ("--pretty", "matrices"), (
        '{"error": "UsageError", "message": "poisson-strata: unrecognized arguments: --pretty"}'
    ), 2),
]


def row_id(row: Row) -> str:
    """A short name of the row: its config, arguments and budget."""
    config = row.config.name if isinstance(row.config, Inline) else Path(row.config).stem
    args = [arg if len(arg) <= 40 else arg[:37] + "..." for arg in row.args]
    budget = [] if row.budget is None else [f"budget={row.budget}"]
    return " ".join([config, *args, *budget])


def config_path(row: Row, directory: Path) -> Path:
    """The row's config file, written into the directory when it is inline."""
    if not isinstance(row.config, Inline):
        return ROOT / row.config
    path = directory / f"{row.config.name}.json"
    path.write_text(json.dumps(row.config.params))
    return path


def _short(text: str) -> str:
    return repr(text if len(text) <= 200 else text[:200] + "...")


def check(row: Row, status: int, stdout: str) -> list[str]:
    """How one run of the row's command differs from the row: a list of
    messages, empty when the run matches."""
    problems = []
    if status != row.status:
        problems.append(f"exit status {status}, expected {row.status}")
    expected = row.expected
    if isinstance(expected, Digest):
        data = stdout.encode()
        found = Digest(len(data), hashlib.sha256(data).hexdigest())
        if found != expected:
            problems.append(f"stdout {found}, expected {expected}")
    elif isinstance(expected, Error):
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = None
        if not (
            isinstance(payload, dict)
            and payload.keys() == {"error", "message"}
            and payload["error"] == expected.name
            and isinstance(payload["message"], str)
            and re.search(expected.pattern, payload["message"])
        ):
            problems.append(f"stdout {_short(stdout)}, expected {expected}")
    elif stdout != expected + "\n":
        problems.append(f"stdout {_short(stdout)}, expected {_short(expected)} and a newline")
    return problems


def run_installed(row: Row, directory: Path) -> list[str]:
    """Run the row through the `poisson-strata` on PATH and check it."""
    env = {key: value for key, value in os.environ.items() if key != BUDGET}
    if row.budget is not None:
        env[BUDGET] = row.budget
    command = ["poisson-strata", "--config", str(config_path(row, directory)), *row.args]
    try:
        done = subprocess.run(command, env=env, capture_output=True, timeout=row.seconds)
    except subprocess.TimeoutExpired:
        return [f"no exit within {row.seconds} s"]
    problems = check(row, done.returncode, done.stdout.decode("utf-8", "replace"))
    if problems and done.stderr:
        problems.append(f"stderr ends {done.stderr.decode('utf-8', 'replace')[-200:]!r}")
    return problems


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for row in ROWS:
            problems = run_installed(row, Path(directory))
            for problem in problems:
                print(f"FAIL {row_id(row)}: {problem}")
            failed += bool(problems)
    print(f"{len(ROWS) - failed} of {len(ROWS)} pins pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
