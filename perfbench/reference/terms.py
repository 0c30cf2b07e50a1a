"""Term maps: the common form in which outputs are compared.

A term map sends an exponent vector over the generators y1, x1, ..., yn, xn
to a nonzero rational coefficient.  `parse_output` reads the program's
printed polynomials ("3*y1^2*x1 - 1/2*x2 + 7") into one; `digest` hashes a
term map in a canonical order, so a stored reference can be matched term by
term without storing every output in full.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

TermMap = dict[tuple[int, ...], Fraction]

_SEPARATOR = re.compile(r" ([+-]) ")
_NUMBER = re.compile(r"[0-9]+(?:/[0-9]+)?$")


def generator_names(n: int) -> tuple[str, ...]:
    out = []
    for i in range(1, n + 1):
        out += [f"y{i}", f"x{i}"]
    return tuple(out)


def parse_output(text: str, n: int) -> TermMap:
    """Read a printed polynomial over y1, x1, ..., yn, xn into a term map."""
    if text == "0":
        return {}
    index = {name: k for k, name in enumerate(generator_names(n))}
    pieces = _SEPARATOR.split(text)
    signed = [(1, pieces[0])] + [
        (1 if sign == "+" else -1, piece) for sign, piece in zip(pieces[1::2], pieces[2::2])
    ]
    out: TermMap = {}
    for sign, piece in signed:
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        factors = piece.split("*")
        coeff = Fraction(1)
        if _NUMBER.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        mono = [0] * (2 * n)
        for factor in factors:
            name, _, exp = factor.partition("^")
            mono[index[name]] += int(exp) if exp else 1
        key = tuple(mono)
        if key in out:
            raise ValueError(f"monomial printed twice in {text[:80]!r}")
        out[key] = sign * coeff
    return out


def digest(terms: TermMap) -> str:
    """SHA-256 of the terms listed in sorted order with exact coefficients."""
    canonical = sorted((list(mono), str(coeff)) for mono, coeff in terms.items() if coeff)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()
