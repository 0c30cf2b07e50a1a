"""The seeded generator of `expressions` sessions.

A session is a list of 150 `bracket` and `nf` commands laid out in fixed
slots, so every session has the same make-up and about the same cost; the
generator seed fills in the generators, coefficients and exponents of the
cheap slots and the coefficients and term order of the costly ones.  The
eight slots of `DEEP_FAILING` are the same in every session: their words
are deep enough that the recursive PBW multiplier exhausts the
interpreter's recursion limit, so they fail on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POISSON_N2 = "poisson_n2.json"
QUANTUM_N2 = "quantum_n2.json"
PAIRED_N3 = "paired_n3.json"

GENERATOR_SEEDS = (1009, 2003, 3001, 4001)

# Deep words x2^k y1 that complete draw k from DEEP_RANGE; the failing ones
# sit well above the recursion limit (1000), the completing ones well below,
# so wrapper frames added by tracing cannot move a word across it.
DEEP_RANGE = (100, 850)
DEEP_FAILING = (
    (QUANTUM_N2, 1200),
    (PAIRED_N3, 1200),
    (QUANTUM_N2, 1400),
    (PAIRED_N3, 1500),
    (QUANTUM_N2, 1700),
    (PAIRED_N3, 1800),
    (QUANTUM_N2, 2000),
    (PAIRED_N3, 2000),
)

_COEFFS = ("1", "1", "1", "2", "3", "5", "-1", "-2", "-3", "1/2", "-1/3", "3/4", "-5/2")


@dataclass(frozen=True)
class Command:
    config: str  # a file name in perfbench/configs
    command: str  # "bracket" or "nf"
    args: tuple[str, ...]


_GENERATORS_N2 = ("y1", "x1", "y2", "x2")


def _atoms(n: int) -> list[str]:
    out = []
    for i in range(1, n + 1):
        out += [f"y{i}", f"x{i}", f"Omega{i}"]
    return out


def _terms(rng: random.Random, atoms: list[str]) -> str:
    """A sum of the atoms, in the given order, with random coefficients."""
    text = ""
    for k, atom in enumerate(atoms):
        coeff = rng.choice(_COEFFS)
        negative = coeff.startswith("-") and k > 0  # a leading '-' would read as an option
        magnitude = coeff.lstrip("-")
        term = atom if magnitude == "1" else (
            f"({magnitude}) {atom}" if "/" in magnitude else f"{magnitude} {atom}"
        )
        text += term if k == 0 else (" - " if negative else " + ") + term
    return text


def _sum(rng: random.Random, n: int, low: int, high: int) -> str:
    return _terms(rng, rng.sample(_atoms(n), rng.randint(low, high)))


def _product(rng: random.Random, n: int, factors: int, low: int, high: int) -> str:
    return "".join(f"({_sum(rng, n, low, high)})" for _ in range(factors))


# Each builder makes the command of the j-th slot of its kind.  The costly
# kinds (powers) take their exponents and variables from j, so that a slot
# costs about the same in every session; the seed picks coefficients and order.


def _p2_sum(rng, j):
    return Command(POISSON_N2, "bracket", (_sum(rng, 2, 2, 4), rng.choice(_GENERATORS_N2)))


def _p2_product(rng, j):
    return Command(
        POISSON_N2, "bracket", (_product(rng, 2, rng.randint(2, 3), 2, 4), _sum(rng, 2, 1, 2))
    )


def _p2_power(rng, j):
    other = _GENERATORS_N2[j % 4]
    if j < 3:  # all four generators: the largest outputs of the session
        base = _terms(rng, rng.sample(_GENERATORS_N2, 4))
        return Command(POISSON_N2, "bracket", (f"({base})^{10 + 2 * j}", other))
    base = _terms(rng, rng.sample([g for g in _GENERATORS_N2 if g != other], 3))
    return Command(POISSON_N2, "bracket", (f"({base})^{6 + j % 9}", other))


def _p2_nested(rng, j):
    inner = "{" + _sum(rng, 2, 1, 3) + ", " + _product(rng, 2, 2, 1, 3) + "}"
    return Command(POISSON_N2, "bracket", (_sum(rng, 2, 2, 4), inner))


def _p3_bracket(rng, j):
    left = rng.choice([_sum(rng, 3, 2, 5), _product(rng, 3, 2, 2, 4)])
    return Command(PAIRED_N3, "bracket", (left, _sum(rng, 3, 1, 3)))


def _p3_nested(rng, j):
    inner = "{" + _sum(rng, 3, 1, 3) + ", " + _sum(rng, 3, 1, 3) + "}"
    return Command(PAIRED_N3, "bracket", (_product(rng, 3, 2, 1, 3), inner))


def _q2_product(rng, j):
    return Command(QUANTUM_N2, "nf", (_product(rng, 2, rng.randint(2, 3), 2, 4),))


def _q2_power(rng, j):
    base = _terms(rng, rng.sample(_GENERATORS_N2, 4))
    return Command(QUANTUM_N2, "nf", (f"({base})^{2 + j % 3} {_GENERATORS_N2[j % 4]}^{6 + j % 9}",))


def _q3_product(rng, j):
    return Command(PAIRED_N3, "nf", (_product(rng, 3, rng.randint(2, 3), 2, 3),))


def _deep(rng, j):
    return deep_command((QUANTUM_N2, PAIRED_N3)[j % 2], rng.randint(*DEEP_RANGE))


def deep_command(config: str, k: int) -> Command:
    return Command(config, "nf", (f"x2^{k} y1",))


SLOTS = (
    (_p2_sum, 20),
    (_p2_product, 15),
    (_p2_power, 15),
    (_p2_nested, 15),
    (_p3_bracket, 20),
    (_p3_nested, 5),
    (_q2_product, 15),
    (_q2_power, 10),
    (_q3_product, 15),
    (_deep, 12),
)


def session(generator_seed: int) -> list[Command]:
    """The 150 commands of one session, in slot order."""
    rng = random.Random(generator_seed)
    out = [build(rng, j) for build, count in SLOTS for j in range(count)]
    out += [deep_command(config, k) for config, k in DEEP_FAILING]
    return out


def deep_exponent(command: Command) -> int | None:
    """k for a deep word x2^k y1, else None."""
    text = command.args[0]
    if command.command == "nf" and text.startswith("x2^") and text.endswith(" y1"):
        return int(text[3:-3])
    return None
