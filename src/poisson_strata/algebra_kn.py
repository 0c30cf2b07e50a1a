"""The quantized algebra as a PBW normal-form rewriting system.

Generators y1, x1, ..., yn, xn satisfy q-commutation relations driven by a
multiplicative skew-symmetric matrix gamma and two scalar vectors p, q whose
ratios p_i/q_i avoid 1 and -1; the only non-monomial relation is

    x_i y_i = q_i y_i x_i + sum_{k<i} (q_k - p_k) y_k x_k.

Elements are kept in normal form: linear combinations of ordered standard
monomials y1^a1 x1^b1 ... yn^an xn^bn.  Multiplication moves each letter of
the right factor past the whole block to its right in one step: the block
picks up a scalar from the commutation matrix, and x_i^b crossing y_i adds
a closed-form tail whose products involve only lower pairs.  The attached
quantum torus (the target of the stratum maps) lives here too, with its
bicharacter twist taken from the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional

from .algebra_an import PairParams, generator_names, tail_coefficient
from .exact_poly import StepBudget, TermMap, VarSpec, accumulate, format_terms

@dataclass(frozen=True)
class QuantumParams(PairParams):
    """n, the multiplicative coupling matrix, and the two scalar vectors."""

    @staticmethod
    def _evaluate(word) -> Fraction:
        """A pair word read multiplicatively: the scalar S(a, b) in
        G_a G_b = S(a, b) G_b G_a."""
        return math.prod((atom**e for atom, e in word), start=Fraction(1))

    def _check_values(self):
        n = self.n
        for i in range(n):
            if self.gamma[i][i] != 1:
                raise ValueError("gamma must have unit diagonal")
            for j in range(n):
                if self.gamma[i][j] == 0 or self.gamma[i][j] * self.gamma[j][i] != 1:
                    raise ValueError(
                        f"gamma is not multiplicatively skew-symmetric at ({i + 1}, {j + 1})"
                    )
        for i in range(n):
            if self.p[i] == 0 or self.q[i] == 0:
                raise ValueError("p and q entries must be nonzero")
            ratio = self.p[i] / self.q[i]
            if ratio == 1 or ratio == -1:
                raise ValueError(
                    f"p_{i + 1}/q_{i + 1} = {ratio} is a root of unity; rejected"
                )


def kn_names(n: int) -> tuple[str, ...]:
    return generator_names(n)


def torus_names(n: int) -> tuple[str, ...]:
    return generator_names(n, "Y", "X")


class NCElement(TermMap):
    """A linear combination of standard monomials, exponent vectors in Z>=0^2n."""

    __slots__ = ()
    n = TermMap.owner  # the owner slot under its name here
    __pow__ = None  # products need the parameters; see nc_multiply

    _names = staticmethod(kn_names)

    @staticmethod
    def _admit(n: int, mono: tuple[int, ...]) -> bool:
        if len(mono) != 2 * n or any(e < 0 for e in mono):
            raise ValueError(f"bad standard-monomial exponents {mono}")
        return True


def format_nc(f: NCElement) -> str:
    return format_terms(f.terms, kn_names(f.n))


class _Multiplier:
    """Carries the parameters of a product and the budget its block
    crossings charge."""

    def __init__(self, params: QuantumParams, budget: StepBudget):
        self.params = params
        self.budget = budget

    def mono_times_gen(self, mono: tuple[int, ...], p: int) -> dict[tuple[int, ...], Fraction]:
        """Normal form of mono * (generator p): one step crosses the whole
        block of letters right of p.

        Each g_r^e with r > p crosses as the scalar S(r, p)^e.  As x_i
        Omega_{i-1} = p_i Omega_{i-1} x_i, the block x_i^b crossing y_i is
        x_i^b y_i = q_i^b y_i x_i^b + [b] Omega_{i-1} x_i^(b-1) with
        [b] = (q_i^b - p_i^b) / (q_i - p_i).  The tail's products A y_k x_k
        (A: mono at positions up to p) involve only pairs below i, so the
        recursion is at most n deep.
        """
        lead = list(mono)
        lead[p] += 1
        if not any(mono[p + 1 :]):
            return {tuple(lead): Fraction(1)}
        self.budget.charge()
        s = self.params.matrix
        scalar = math.prod(
            (s[r][p] ** mono[r] for r in range(p + 1, len(mono)) if mono[r]), start=Fraction(1)
        )
        out = {tuple(lead): scalar}
        b = 0 if p % 2 else mono[p + 1]
        if b:
            i = p // 2 + 1
            qi, pi = self.params.q[i - 1], self.params.p[i - 1]
            scalar *= (qi**b - pi**b) / ((qi - pi) * qi**b)  # the lead's without q_i^b, times [b]
            head = mono[: p + 1] + (0,) * (len(mono) - p - 1)
            rest = (0,) * (p + 1) + (b - 1,) + mono[p + 2 :]
            for k in range(1, i):
                part = self.dict_times_gen(self.mono_times_gen(head, 2 * k - 2), 2 * k - 1)
                shifted = {tuple(map(add, m, rest)): c for m, c in part.items()}
                accumulate(out, shifted, scalar * tail_coefficient(self.params, k))
        return out

    def dict_times_gen(
        self, terms: dict[tuple[int, ...], Fraction], p: int
    ) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            accumulate(acc, self.mono_times_gen(mono, p), coeff)
        return acc


def nc_multiply(
    params: QuantumParams, f: NCElement, g: NCElement, budget: Optional[StepBudget] = None
) -> NCElement:
    """The product f g rewritten to PBW normal form.  Each block crossing
    charges one step to `budget`, which the caller's other products may
    charge too; without one, the product has a default budget of its own."""
    if f.n != params.n or g.n != params.n:
        raise ValueError("operands do not match the parameter arity")
    mult = _Multiplier(params, StepBudget() if budget is None else budget)
    acc: dict[tuple[int, ...], Fraction] = {}
    for mono_g, coeff_g in g.terms.items():
        part = {m: c * coeff_g for m, c in f.terms.items()}
        for pos, e in enumerate(mono_g):
            for _ in range(e):
                part = mult.dict_times_gen(part, pos)
        accumulate(acc, part)
    return NCElement._trusted(params.n, acc)


# -- the attached quantum torus ---------------------------------------------


@dataclass(frozen=True)
class QuantumTorus:
    """Arithmetic in the attached quantized coordinate ring, modulo killed
    generators and localized at inverted ones.

    The ring is `varspec`, the torus generators Y1, X1, ..., Yn, Xn with
    the killed and inverted ones flagged, as on a Poisson-side target; its
    elements are admitted by the Laurent rule.  Products of monomials pick
    up the bicharacter twist of the commutation matrix.
    """

    params: QuantumParams
    varspec: VarSpec

    def twist(self, u: tuple[int, ...], v: tuple[int, ...]) -> Fraction:
        """Scalar in X^u X^v = twist * X^(u+v); a bicharacter in each slot."""
        s = self.params.matrix
        out = Fraction(1)
        for a in range(len(u)):
            ua = u[a]
            if ua == 0:
                continue
            for b in range(a):
                vb = v[b]
                if vb:
                    out *= s[a][b] ** (ua * vb)
        return out


class QTorusElement(TermMap):
    __slots__ = ()
    torus = TermMap.owner  # the owner slot under its name here

    @staticmethod
    def _names(torus: QuantumTorus) -> tuple[str, ...]:
        return torus.varspec.names

    @staticmethod
    def _admit(torus: QuantumTorus, mono: tuple[int, ...]) -> bool:
        return torus.varspec.admit(mono)

    def __mul__(self, other: QTorusElement) -> QTorusElement:
        self._check_owner(other)
        twist = self.torus.twist
        acc: dict[tuple[int, ...], Fraction] = {}
        for mu, cu in self.terms.items():
            row = {tuple(map(add, mu, mv)): cv * twist(mu, mv) for mv, cv in other.terms.items()}
            accumulate(acc, row, cu)
        return QTorusElement._trusted(self.torus, acc)

    def _inverse(self) -> QTorusElement:
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible")
        [(mono, coeff)] = self.terms.items()
        inv_mono = tuple(-v for v in mono)
        # X^-m = twist(m, -m)^-1 / coeff * X^(-m) so that X^m X^-m = 1
        return QTorusElement(self.torus, {inv_mono: 1 / (coeff * self.torus.twist(mono, inv_mono))})

