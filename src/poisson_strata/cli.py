"""Command-line entry point: config ingestion, dispatch, report emission.

Configs are JSON with every rational written as a string "a/b" (plain
integers are accepted; floats and exponent notation such as "1e400" are
rejected to keep the arithmetic exact and its cost bounded).
All commands print JSON to stdout.  A failed verification, a failed
stratum of `map-report` included, exits 1 with its report; any error, a bad
command line included, exits 2 with a machine-readable {"error", "message"}
object; a stdout closed by its reader exits 2 too, with nothing on stderr.
POISSON_STRATA_STEP_BUDGET, read once when the config is loaded
(`Config.step_limit`), caps the steps of each `exact_poly.StepBudget`: one
step is one generator crossing the block of letters to its right in a
quantized product, one product of a power in the evaluation of `nf`
(charged before the first), one rule application in a quotient normal
form, one term pair of a product or bracket in the evaluation of
`bracket`, or one admissible set that a command walking the strata
(`admissible --list` or `--poset`, `map-report`, `verify psi`, `upsilon`,
`confluence`, `kstable` or `eta`) is to build, all charged from the count
before the first is built (`admissible --count` builds none and charges
nothing).  The whole expression of an `nf` command, powers included, has
one budget, as has the whole expression {left, right} of a `bracket`
command and the strata of a run; each product of `verify associativity`
and `verify normality` and each normal form of `verify confluence` and
`verify kstable` has its own.
Past its budget a command ends in a StepBudgetExceeded error; a budget that
is not a positive integer ends every command in a ConfigError.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import admissible as adm
from .algebra_an import (
    PoissonParams,
    an_varspec,
    consistency_check,
    generator_names,
    k_basis,
    k_derivation,
    named_element,
    normality_failures,
    quotient_system,
    tail_element,
    verify_level_eigen_elements,
    verify_omega_identities,
)
from .algebra_kn import (
    NCElement,
    QuantumParams,
    format_nc,
    nc_multiply,
)
from .correspondence import (
    AdditiveCharacter,
    group_character,
    nested_congruence_check,
    stratification_report,
    verify_poisson_stratum_map,
    verify_quantum_stratum_map,
)
from .exact_poly import (
    DEFAULT_STEP_BUDGET,
    LaurentPoly,
    MonomialCode,
    StepBudget,
    StepBudgetExceeded,
    VarSpecMismatch,
    format_poly,
    format_terms,
    is_prime,
    monomial_code,
    reduce_packed,
    rewrite_candidates,
    same_owner,
)
from .parser import Bracket, eval_poisson, eval_quantum, parse_expr
from .poisson_core import derivation_residuals

ENV_STEP_BUDGET = "POISSON_STRATA_STEP_BUDGET"
RANDOM_TRIALS = 1000  # random inputs per stratum (confluence) and triples (associativity)


class ConfigError(ValueError):
    pass


class UsageError(ValueError):
    """A command line the argument parser rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage to stderr, so a bad
    command line ends in the JSON error object like every other error; the
    subcommand parsers are of this class too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")

    def option_strings(self) -> set[str]:
        """Every option string of this parser and of its subcommands."""
        known = set(self._option_string_actions)
        for action in self._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    known |= sub.option_strings()
        return known


def _rational(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigError(f"rationals must be strings or integers, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            # Fraction builds 10**exponent exactly: "1e10000000" alone runs for
            # seconds, and each further digit of the exponent takes ten times longer.
            raise ConfigError(f"bad rational literal {value!r}: exponent notation is not accepted")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational literal {value!r}: {exc}") from None
    raise ConfigError(f"rationals must be strings or integers, got {value!r}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {value!r}")
    return value


@dataclass
class Config:
    """The run object: the parameters and step limit `load_config` validated,
    and what a run derives from them beside what the parameters derive
    themselves: the character of its weights and its strata, built on
    first use and shared."""

    poisson: Optional[PoissonParams]
    quantum: Optional[QuantumParams]
    weights: Optional[dict[int, Fraction]]
    step_limit: int  # the limit of every StepBudget of the run

    @property
    def n(self) -> int:
        return (self.poisson or self.quantum).n

    @functools.cached_property
    def character(self) -> AdditiveCharacter:
        """The additive character of the quantum parameters under `weights`."""
        return group_character(_require_quantum(self), self.weights)

    @functools.cached_property
    def strata(self) -> list[adm.AdmissibleSet]:
        """The admissible sets of n, in canonical order, charged one
        "admissible sets" step each against a budget of the run's limit
        before the first is built."""
        StepBudget(self.step_limit, "admissible sets").charge(adm.count_admissible(self.n))
        return adm.enumerate_admissible(self.n)


CONFIG_KEYS = ("mode", "n", "gamma", "p", "q", "phi_weights")


def load_config(path: str) -> Config:
    with open(path) as fh:
        text = fh.read()
    # json and Fraction read digits by int(), which stops at this limit
    limit = sys.get_int_max_str_digits()
    if limit and re.search(rf"\d{{{limit + 1}}}", text.replace("_", "")):
        raise ConfigError(f"config has a number of more than {limit} digits")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config nests too deeply to be read") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(raw.keys() - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; the keys are {', '.join(CONFIG_KEYS)}")
    mode = raw.get("mode")
    if mode not in ("poisson", "quantum", "paired"):
        raise ConfigError("mode must be one of poisson, quantum, paired")
    try:
        n = raw["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"n must be an integer, got {n!r}")
        gamma = [
            [_rational(v) for v in _list(row, "gamma row")]
            for row in _list(raw["gamma"], "gamma")
        ]
        p = [_rational(v) for v in _list(raw["p"], "p")]
        q = [_rational(v) for v in _list(raw["q"], "q")]
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc.args[0]!r}") from None
    poisson = quantum = None
    try:
        if mode == "poisson":
            poisson = PoissonParams(n, gamma, p, q)
        else:
            quantum = QuantumParams(n, gamma, p, q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    weights = None
    if raw.get("phi_weights") is not None:
        if not isinstance(raw["phi_weights"], dict):
            raise ConfigError(f"phi_weights must be a JSON object, got {raw['phi_weights']!r}")
        weights = {}
        for key, value in raw["phi_weights"].items():
            try:
                prime = key.isascii() and key.isdigit() and is_prime(int(key))
            except ValueError as exc:
                raise ConfigError(f"weight key {key!r}: {exc}") from None
            if not prime:
                raise ConfigError(f"weight keys must be primes, got {key!r}")
            if str(int(key)) != key:  # "02" would overwrite the weight of 2
                raise ConfigError(f"weight key {key!r} must be written {str(int(key))!r}")
            weights[int(key)] = _rational(value)
    limit = os.environ.get(ENV_STEP_BUDGET)
    try:
        step_limit = DEFAULT_STEP_BUDGET if limit is None else int(limit)
    except ValueError:
        raise ConfigError(f"{ENV_STEP_BUDGET} must be an integer, got {limit!r}") from None
    if step_limit <= 0:
        raise ConfigError(f"{ENV_STEP_BUDGET} must be positive")
    config = Config(poisson, quantum, weights, step_limit)
    if mode == "paired":
        config.poisson = config.character.induced
    return config


def _matrix_strings(matrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in matrix]


# -- verification suites -----------------------------------------------------


def _require_poisson(config: Config) -> PoissonParams:
    if config.poisson is None:
        raise ConfigError("this command needs poisson parameters (mode poisson or paired)")
    return config.poisson


def _require_quantum(config: Config) -> QuantumParams:
    if config.quantum is None:
        raise ConfigError("this command needs quantum parameters (mode quantum or paired)")
    return config.quantum


# The suites draw uniformly from these ranges and tuples, each draw inline:
# k = len(seq).bit_length() bits from `getrandbits`, drawn again while they
# reach len(seq), the loop `rng.choice`, `randint(a, b)` and `randrange(len)`
# run for each draw, so the inputs and the final rng state are those of the
# plain spelling (`tests/oracles.draw_below` is that loop as a function, the
# tests' reference).  Each range's length and k are computed here once.
_TERM_COUNTS = range(1, 4)
_TERM_DEGREES = range(0, 4)
_TERM_COEFFS = tuple(map(Fraction, range(-4, 5)))
_TERM_ZERO = _TERM_COEFFS.index(0)
_WORD_LENGTHS = range(0, 5)
_WORD_COEFFS = tuple(map(Fraction, range(1, 5)))
_COUNT_DRAW, _DEGREE_DRAW, _COEFF_DRAW, _LENGTH_DRAW, _WORD_COEFF_DRAW = (
    (len(seq), len(seq).bit_length())
    for seq in (_TERM_COUNTS, _TERM_DEGREES, _TERM_COEFFS, _WORD_LENGTHS, _WORD_COEFFS)
)


def _random_exponents(bits, code: MonomialCode, degrees: range, draw: tuple[int, int]) -> int:
    """A packed monomial of `code`: a degree drawn from `degrees`, whose
    length and k are `draw`, then that many unit positions below the code's
    width, each adding its unit (one on the position's field and one on the
    degree) to the packed 1.  The degree is drawn at width 0 too, where the
    monomial is 1 and no position is drawn.  Every draw is the inline loop
    of `tests/oracles.draw_below`, the positions' k computed once per call.
    The code's fields must hold the largest degree."""
    mono = code.origin
    units = code.units
    width = code.width
    n, k = draw
    r = bits(k)
    while r >= n:
        r = bits(k)
    degree = degrees[r]
    if width:
        k = width.bit_length()
        for _ in range(degree):
            r = bits(k)
            while r >= width:
                r = bits(k)
            mono += units[r]
    return mono


def _random_terms(code: MonomialCode, rng: random.Random) -> dict[int, Fraction]:
    """The canonical packed term map of at most three terms, each of degree
    at most three, over a ring of `code.width` variables none of them
    killed; a monomial drawn twice keeps its last coefficient.  The draws
    first map each monomial to its coefficient's index, so the zeros are
    dropped by an integer test."""
    bits = rng.getrandbits
    n, k = _COUNT_DRAW
    count = bits(k)
    while count >= n:
        count = bits(k)
    n, k = _COEFF_DRAW
    drawn = {}
    for _ in range(_TERM_COUNTS[count]):
        mono = _random_exponents(bits, code, _TERM_DEGREES, _DEGREE_DRAW)
        i = bits(k)
        while i >= n:
            i = bits(k)
        drawn[mono] = i
    terms = {}
    for mono, i in drawn.items():
        if i != _TERM_ZERO:
            terms[mono] = _TERM_COEFFS[i]
    return terms


def _random_monomial(
    code: MonomialCode, decoded: dict[int, tuple[int, ...]], rng: random.Random
) -> NCElement:
    """One standard monomial of degree at most four, coefficient 1 to 4,
    over the code.width / 2 pairs of `code`: drawn packed and decoded
    through `decoded`, a run's map from the packed words of that code to
    their exponent vectors, filled as words are first drawn."""
    bits = rng.getrandbits
    word = _random_exponents(bits, code, _WORD_LENGTHS, _LENGTH_DRAW)
    mono = decoded.get(word)
    if mono is None:
        mono = decoded[word] = code.unpack(word)
    n, k = _WORD_COEFF_DRAW
    i = bits(k)
    while i >= n:
        i = bits(k)
    return NCElement._trusted(code.width // 2, {mono: _WORD_COEFFS[i]})


def suite_jacobi(config: Config) -> dict:
    """The Jacobi identity holds on generator triples, which `build_an`
    checks before it returns A_n, and the iterated rebuild equals the table."""
    report = consistency_check(_require_poisson(config))
    details = {"generator_triples": True, "iterated_rebuild": report["ok"]}
    if not report["ok"]:
        entry = ", ".join(report["entry"])
        details["mismatch"] = f"level {report['level']}, entry ({entry}): residual {report['residual']}"
    return {"suite": "jacobi", "ok": report["ok"], "details": details}


def suite_omega_identities(config: Config) -> dict:
    report = verify_omega_identities(_require_poisson(config))
    return {"suite": "lemma2.3", "ok": report["ok"], "details": report}


def suite_confluence(config: Config) -> dict:
    """Each stratum's system gives every random input one normal form: the
    deterministic one and two random ones.  The inputs and normal forms are
    packed term maps over A_n's variables, in the code of the system's
    table for the inputs' largest degree, so the owner is checked once per
    stratum and a failure alone is unpacked: it prints the input, the
    deterministic normal form and the random one that differs from it.  An
    input's first-step candidates are listed once; both random reductions
    start from that list."""
    params = _require_poisson(config)
    vs = an_varspec(params.n)
    budget = config.step_limit
    rng = random.Random(11)
    bits = rng.getrandbits
    checked = 0
    for t_set in config.strata:
        system = quotient_system(params, t_set)
        if not same_owner(system.varspec, vs):
            raise VarSpecMismatch("polynomial and reduction system disagree on variables")
        table = system.rewrites(_TERM_DEGREES[-1], budget)
        code = table.code
        for _ in range(RANDOM_TRIALS):
            terms = _random_terms(code, rng)
            # No first-step candidate means no rule applies: every reduction
            # would return the input itself, and the random ones draw nothing.
            first = rewrite_candidates(terms, table)
            if not first:
                checked += 1
                continue
            base = reduce_packed(terms, table, budget)
            for _ in range(2):
                other = reduce_packed(terms, table, budget, bits, first)
                if other != base:
                    failed, fixed, drawn = (
                        format_terms(code.unpack_terms(t), vs.names) for t in (terms, base, other)
                    )
                    details = {"input": failed, "deterministic": fixed, "random": drawn}
                    return {
                        "suite": "confluence",
                        "ok": False,
                        "details": {"set": list(t_set.member_names()), **details},
                    }
            checked += 1
    return {"suite": "confluence", "ok": True, "details": {"reductions": checked}}


def suite_k_stability(config: Config) -> dict:
    """Each member of each stratum ideal must reduce to zero after a bracket
    with any generator or the action of any weight vector.  A member's
    images do not depend on the stratum, so each is built once per run,
    packed once per code of the systems' tables (sized for the images'
    largest degree) and reduced against every stratum's system by the
    rewrite loop; the owner is checked once per stratum, and a residual is
    unpacked only for its text."""
    params = _require_poisson(config)
    structure = params.an
    vs = structure.varspec
    budget = config.step_limit
    generators = [structure.generator(g_name) for g_name in vs.names]
    basis = k_basis(params.n)
    derivations = [k_derivation(params, h) for h in basis]
    images: dict[str, list[tuple[str, dict[tuple[int, ...], Fraction]]]] = {}
    for name in dict.fromkeys(name for t_set in config.strata for name in t_set.member_names()):
        poly = named_element(params, name, LaurentPoly, vs)
        images[name] = [
            (f"bracket({name}, {g_name})", structure.bracket(poly, g).terms)
            for g_name, g in zip(vs.names, generators)
        ] + [
            (f"weight vector ({', '.join(map(str, h))}) on {name}", d.apply(poly).terms)
            for h, d in zip(basis, derivations)
        ]
    degree = max(
        (sum(map(abs, m)) for pairs in images.values() for _, terms in pairs for m in terms), default=0
    )
    packed: dict[MonomialCode, dict[str, list[tuple[str, dict[int, Fraction]]]]] = {}
    failures = []
    for t_set in config.strata:
        system = quotient_system(params, t_set)
        if not same_owner(system.varspec, vs):
            raise VarSpecMismatch("polynomial and reduction system disagree on variables")
        table = system.rewrites(degree, budget)
        code = table.code
        if code not in packed:
            packed[code] = {
                name: [(label, code.pack_terms(terms)) for label, terms in pairs]
                for name, pairs in images.items()
            }
        members = list(t_set.member_names())
        for name in members:
            for label, terms in packed[code][name]:
                residual = reduce_packed(terms, table, budget)
                if residual:
                    text = format_terms(code.unpack_terms(residual), vs.names)
                    failures.append(f"{members}: {label}: residual {text}")
    return {"suite": "kstable", "ok": not failures, "details": {"failures": failures}}


def suite_associativity(config: Config) -> dict:
    params = _require_quantum(config)
    rng = random.Random(13)
    code, decoded = monomial_code(2 * params.n, _WORD_LENGTHS[-1]), {}

    def mul(a: NCElement, b: NCElement) -> NCElement:
        return nc_multiply(params, a, b, StepBudget(config.step_limit))

    for _ in range(RANDOM_TRIALS):
        f, g, h = (_random_monomial(code, decoded, rng) for _ in range(3))
        left = mul(mul(f, g), h)
        right = mul(f, mul(g, h))
        if left != right:
            details = {"triple": repr((f, g, h)), "residual": format_nc(left - right)}
            return {"suite": "associativity", "ok": False, "details": details}
    return {"suite": "associativity", "ok": True, "details": {"triples": RANDOM_TRIALS}}


def _strata_suite(name: str, config: Config, verify) -> dict:
    """One entry per stratum of the run: its members, its verdict and, when
    it failed, the residuals of what failed."""
    results = []
    for t_set in config.strata:
        report = verify(t_set)
        entry = {"members": list(t_set.member_names()), "ok": report["ok"]}
        if not report["ok"]:
            entry["failures"] = report["failures"]
        results.append(entry)
    return {"suite": name, "ok": all(r["ok"] for r in results), "details": {"strata": results}}


def suite_psi(config: Config) -> dict:
    params = _require_poisson(config)
    return _strata_suite("psi", config, lambda t: verify_poisson_stratum_map(params, t))


def suite_upsilon(config: Config) -> dict:
    params = _require_quantum(config)
    return _strata_suite("upsilon", config, lambda t: verify_quantum_stratum_map(params, t))


def suite_normality(config: Config) -> dict:
    """Each tail element Omega_i of the quantized algebra is normal, with
    the scalars of its tail words (`normality_failures`)."""
    params = _require_quantum(config)
    n = params.n
    gens = [NCElement.generator(n, name) for name in generator_names(n)]

    def product(f: NCElement, g: NCElement) -> NCElement:
        return nc_multiply(params, f, g, StepBudget(config.step_limit))

    failures = []
    for i in range(1, n + 1):
        tail = tail_element(params, i, NCElement, n)
        failures += normality_failures(params, i, tail, gens, product, lambda t, g: product(g, t))
    details = {"tails": n, "failures": failures}
    return {"suite": "normality", "ok": not failures, "details": details}


def suite_weights(config: Config) -> dict:
    """Each basis weight vector acts by a Poisson derivation, and the two
    level eigen-vectors act as the top extension's derivations."""
    params = _require_poisson(config)
    structure = params.an
    basis = k_basis(params.n)
    failures = [
        f"weight vector ({', '.join(map(str, h))}) on ({a}, {b}): residual {format_poly(residual)}"
        for h in basis
        for a, b, residual in derivation_residuals(structure, k_derivation(params, h))
    ]
    failures += verify_level_eigen_elements(params)["failures"]
    details = {"basis": len(basis), "failures": failures}
    return {"suite": "weights", "ok": not failures, "details": details}


def suite_eta(config: Config) -> dict:
    """eta is injective, and for every nested pair T inside T' the raw maps
    of T and T' agree modulo eta(T'); both checks read each set's eta once."""
    params = _require_poisson(config)
    etas = {t: adm.derived_sets(t).eta for t in config.strata}
    failures = nested_congruence_check(params, etas)["failures"]
    injective = adm.eta_injectivity(etas)
    details = {"injective": injective, "nested_pairs": adm.count_nested_pairs(params.n), "failures": failures}
    return {"suite": "eta", "ok": injective and not failures, "details": details}


SUITES = {
    "jacobi": suite_jacobi,
    "lemma2.3": suite_omega_identities,
    "confluence": suite_confluence,
    "kstable": suite_k_stability,
    "associativity": suite_associativity,
    "psi": suite_psi,
    "upsilon": suite_upsilon,
    "normality": suite_normality,
    "weights": suite_weights,
    "eta": suite_eta,
}


def run_suite(config: Config, name: str) -> dict:
    if name == "all":
        reports = []
        for suite_name, fn in SUITES.items():
            try:
                reports.append(fn(config))
            except ConfigError as exc:
                reports.append({"suite": suite_name, "ok": None, "skipped": str(exc)})
        ran = [r for r in reports if r["ok"] is not None]
        return {
            "suite": "all",
            "ok": all(r["ok"] for r in ran),
            "summary": [{"suite": r["suite"], "ok": r["ok"]} for r in reports],
            "reports": reports,
        }
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or all")
    return SUITES[name](config)


# -- commands ------------------------------------------------------------------


def cmd_bracket(config: Config, args) -> dict:
    params = _require_poisson(config)
    ast = Bracket(parse_expr(args.left), parse_expr(args.right))
    return {"result": format_poly(eval_poisson(ast, params, config.step_limit))}


def cmd_nf(config: Config, args) -> dict:
    params = _require_quantum(config)
    value = eval_quantum(parse_expr(args.expr), params, config.step_limit)
    return {"result": format_nc(value)}


def cmd_admissible(config: Config, args) -> dict | str:
    n = config.n
    count = adm.count_admissible(n)
    if not (args.list or args.poset):
        return {"n": n, "count": count}
    if args.poset:
        if args.dot:
            return adm.poset_dot(config.strata)
        return adm.poset_json(config.strata)
    return {
        "n": n,
        "count": count,
        "sets": [list(t.member_names()) for t in config.strata],
    }


def cmd_matrices(config: Config, args) -> dict:
    out = {}
    want_r = args.r or not (args.r or args.s)
    want_s = args.s or not (args.r or args.s)
    if want_r and config.poisson is not None:
        out["r"] = _matrix_strings(config.poisson.matrix)
    if want_s and config.quantum is not None:
        out["s"] = _matrix_strings(config.quantum.matrix)
    if args.r and "r" not in out:
        raise ConfigError("the log-canonical matrix needs poisson parameters")
    if args.s and "s" not in out:
        raise ConfigError("the commutation matrix needs quantum parameters")
    return out


def cmd_verify(config: Config, args) -> dict:
    return run_suite(config, args.suite)


def cmd_map_report(config: Config, args) -> dict:
    return stratification_report(config.character, config.strata)


COMMANDS = {
    "bracket": cmd_bracket,
    "nf": cmd_nf,
    "admissible": cmd_admissible,
    "matrices": cmd_matrices,
    "verify": cmd_verify,
    "map-report": cmd_map_report,
}


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one; parsing does not change it."""
    parser = _ArgumentParser(
        prog="poisson-strata",
        description="Exact verification toolkit for the multiparameter Poisson/quantum algebras",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    common = _ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bracket = sub.add_parser("bracket", parents=[common], help="Poisson bracket of two expressions")
    p_bracket.add_argument("left")
    p_bracket.add_argument("right")

    p_nf = sub.add_parser("nf", parents=[common], help="normal form of a quantum expression")
    p_nf.add_argument("expr")

    p_adm = sub.add_parser("admissible", parents=[common], help="admissible-set enumeration")
    group = p_adm.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", action="store_true")
    group.add_argument("--poset", action="store_true")
    p_adm.add_argument("--dot", action="store_true", help="emit the poset as DOT")

    p_mat = sub.add_parser("matrices", parents=[common], help="attached coefficient matrices")
    p_mat.add_argument("--r", action="store_true", help="log-canonical matrix")
    p_mat.add_argument("--s", action="store_true", help="commutation matrix")

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite")

    sub.add_parser("map-report", parents=[common], help="stratum-by-stratum correspondence report")
    return parser


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # what argparse reads as a positional


def _stray_option(parser: _ArgumentParser, argv: list[str]) -> Optional[str]:
    """The first token before any "--" that argparse takes for an option
    although no option of the command line names it, such as the expression
    -x1; None when there is none."""
    known = parser.option_strings()
    for token in argv:
        if token == "--":
            return None
        if (
            token.startswith("-")
            and len(token) > 1
            and " " not in token
            and not _NEGATIVE_NUMBER.match(token)
            and not any(option.startswith(token.split("=", 1)[0]) for option in known)
        ):
            return token
    return None


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse the command line.  argparse takes an expression that starts with
    "-" for an option and then reports its positional as missing; the error
    names the expression instead and points to "--".  `admissible --dot`
    draws the poset, so it is an error without `--poset`."""
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        stray = _stray_option(parser, sys.argv[1:] if argv is None else argv)
        if stray is None or "the following arguments are required" not in str(exc):
            raise
        raise UsageError(
            f"{exc} ({stray!r} was read as an option; put -- before expressions that start with '-')"
        ) from None
    if args.command == "admissible" and args.dot and not args.poset:
        raise UsageError(f"{parser.prog} admissible: argument --dot: only allowed with argument --poset")
    return args


def _emit(payload, pretty: bool):
    """Print the payload and flush it, so that a closed stdout fails here."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2 if pretty else None)
    print(text, flush=True)


def _discard_stdout():
    """Point the descriptor of stdout, when it has one, at the null device,
    so that the interpreter's final flush of what is left unwritten stays
    quiet."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _failed(payload) -> bool:
    """Whether a command's report records a failed verification: its "ok"
    is false, or one of its strata has a false "psi_ok" or "upsilon_ok"."""
    if not isinstance(payload, dict):
        return False
    strata = payload.get("strata", ())
    verdicts = [payload.get("ok")] + [s[side] for s in strata for side in ("psi_ok", "upsilon_ok")]
    return any(v is False for v in verdicts)


def main(argv=None) -> int:
    """Run one command; exit 0, 1 for a report that `_failed`, 2 on error,
    a stdout closed by its reader included."""
    args = None
    try:
        try:
            args = _parse_args(argv)
            config = load_config(args.config)
            payload = COMMANDS[args.command](config, args)
        except (OSError, ValueError, StepBudgetExceeded) as exc:  # usage, config, parse, eval errors too
            _emit({"error": type(exc).__name__, "message": str(exc)}, args is not None and args.pretty)
            return 2
        _emit(payload, args.pretty)
    except BrokenPipeError:
        _discard_stdout()
        return 2
    return 1 if _failed(payload) else 0


if __name__ == "__main__":
    sys.exit(main())
