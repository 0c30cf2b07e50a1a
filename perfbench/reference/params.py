"""Config files read into exact parameters, and the 2-adic character.

The benchmark's paired configs keep every scalar a power of two, so the
weight-1 character on the prime 2 sends a quantum parameter to its 2-adic
valuation and the Poisson parameters of a paired config are read off
directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Params:
    n: int
    gamma: tuple[tuple[Fraction, ...], ...]
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]


@dataclass(frozen=True)
class Config:
    mode: str
    params: Params  # as written in the file: additive (poisson) or multiplicative

    def poisson(self) -> Params:
        """The Poisson parameters: the file's own, or the 2-adic image."""
        if self.mode == "poisson":
            return self.params
        if self.mode != "paired":
            raise ValueError("a quantum config has no Poisson parameters")
        return two_adic_image(self.params)

    def quantum(self) -> Params:
        if self.mode == "poisson":
            raise ValueError("a poisson config has no quantum parameters")
        return self.params


def load(path: str) -> Config:
    with open(path) as fh:
        raw = json.load(fh)
    n = raw["n"]
    params = Params(
        n,
        tuple(tuple(Fraction(v) for v in row) for row in raw["gamma"]),
        tuple(Fraction(v) for v in raw["p"]),
        tuple(Fraction(v) for v in raw["q"]),
    )
    return Config(raw["mode"], params)


def valuation_2(value: Fraction) -> int:
    """The exponent of 2 in a nonzero rational."""
    if value == 0:
        raise ValueError("zero has no valuation")
    out = 0
    num, den = abs(value.numerator), value.denominator
    while num % 2 == 0:
        num //= 2
        out += 1
    while den % 2 == 0:
        den //= 2
        out -= 1
    return out


def two_adic_image(params: Params) -> Params:
    def v(x: Fraction) -> Fraction:
        return Fraction(valuation_2(x))

    return Params(
        params.n,
        tuple(tuple(v(x) for x in row) for row in params.gamma),
        tuple(v(x) for x in params.p),
        tuple(v(x) for x in params.q),
    )
