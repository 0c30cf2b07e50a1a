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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterable, Optional

from .algebra_an import PairParams, an_varspec, generator_names, tail_element
from .exact_poly import StepBudget, TermMap, VarSpec, accumulate, format_terms

@dataclass(frozen=True)
class QuantumParams(PairParams):
    """n, the multiplicative coupling matrix, and the two scalar vectors."""

    @staticmethod
    def _evaluate(word) -> Fraction:
        """A pair word read multiplicatively: the scalar S(a, b) in
        G_a G_b = S(a, b) G_b G_a."""
        return math.prod((atom**e for atom, e in word), start=Fraction(1))

    @functools.cached_property
    def integer_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`matrix` by columns as integer pairs: entry [b][a] is S(a, b) as
        (numerator, denominator), derived on the first read, once per
        parameter set.  The block crossings and the torus twist hand its
        entries to `power_product`."""
        size = range(2 * self.n)
        s = self.matrix
        return tuple(tuple((s[a][b].numerator, s[a][b].denominator) for a in size) for b in size)

    @functools.cached_property
    def tail_crossings(self) -> dict:
        """What the x_i^b-over-y_i crossings of PBW products have derived,
        filled by `_Multiplier._tail_crossing` on first use, once per
        parameter set.  (head, i) holds the terms of the PBW product of the
        monomial head by the tail element O_{i-1}, together with the block
        crossings that product charged; (i, b) holds [b]/q_i^b."""
        return {}

    @functools.cached_property
    def tail_terms(self) -> tuple[dict[tuple[int, ...], Fraction], ...]:
        """The terms of the tail elements O_0, ..., O_{n-1}, each built by
        `tail_element` on the first read, once per parameter set: the
        factors by which `_Multiplier._tail_crossing` multiplies."""
        return tuple(tail_element(self, i, NCElement, self.n).terms for i in range(self.n))

    @functools.cached_property
    def twists(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
        """The twist of each monomial pair (u, v) met, filled by `QuantumTorus.twist`."""
        return {}

    @functools.cached_property
    def swapped_products(self) -> dict[tuple[int, int], NCElement]:
        """The PBW normal form of g_b g_a for each generator pair a < b: the
        defining relations, one per pair, each solved for its swapped word.
        Built on the first read, once per parameter set, each product with
        a default budget of its own; a walk over the strata reads them all."""
        gens = [NCElement.generator(self.n, name) for name in an_varspec(self.n).names]
        pairs = combinations(range(len(gens)), 2)
        return {(a, b): nc_multiply(self, gens[b], gens[a]) for a, b in pairs}

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


def power_product(factors: Iterable[tuple[tuple[int, int], int]]) -> Fraction:
    """The product of (num/den)^e over the ((num, den), e) of `factors`, as
    one reduced Fraction.  Only integers are raised and multiplied; a
    negative exponent swaps numerator and denominator."""
    num = den = 1
    for (a, b), e in factors:
        if e > 0:
            num *= a**e
            den *= b**e
        elif e:
            num *= b**-e
            den *= a**-e
    return Fraction(num, den)


def torus_names(n: int) -> tuple[str, ...]:
    return generator_names(n, "Y", "X")


class NCElement(TermMap):
    """A linear combination of standard monomials, exponent vectors in Z>=0^2n."""

    __slots__ = ()
    n = TermMap.owner  # the owner slot under its name here
    __pow__ = None  # products need the parameters; see nc_multiply

    @staticmethod
    def _names(n: int) -> tuple[str, ...]:
        return an_varspec(n).names

    @staticmethod
    def _admit(n: int, mono: tuple[int, ...]) -> bool:
        if len(mono) != 2 * n or any(e < 0 for e in mono):
            raise ValueError(f"bad standard-monomial exponents {mono}")
        return True


def format_nc(f: NCElement) -> str:
    return format_terms(f.terms, an_varspec(f.n).names)


class _Multiplier:
    """Carries the parameters of a product and the budget its block
    crossings charge."""

    def __init__(self, params: QuantumParams, budget: StepBudget):
        self.params = params
        self.columns = params.integer_columns
        self.table = params.tail_crossings
        self.budget = budget

    def mono_times_gen(
        self, acc: dict[tuple[int, ...], Fraction], mono: tuple[int, ...], p: int, coeff: Fraction
    ) -> None:
        """acc += coeff * mono * (generator p) in normal form: one step
        crosses the whole block of letters right of p.

        Each g_r^e with r > p crosses as the scalar S(r, p)^e; the block's
        scalar is one `power_product` over column p of
        `QuantumParams.integer_columns`, made from integers alone.
        As x_i Omega_{i-1} = p_i Omega_{i-1} x_i, the block x_i^b crossing
        y_i is x_i^b y_i = q_i^b y_i x_i^b + [b] Omega_{i-1} x_i^(b-1) with
        [b] = (q_i^b - p_i^b) / (q_i - p_i).  The tail's products A y_k x_k
        (A: mono at positions up to p) involve only pairs below i, so the
        recursion is at most n deep; `_tail_crossing` expands each (A, i)
        once per parameter set and charges a repeat the crossings its
        expansion charged.  A crossing without a tail adds its one term to
        acc directly.
        """
        lead = list(mono)
        lead[p] += 1
        lead = tuple(lead)
        if any(mono[p + 1 :]):
            self.budget.charge()
            scalar = power_product(zip(self.columns[p][p + 1 :], mono[p + 1 :]))
            b = 0 if p % 2 else mono[p + 1]
            if b:
                accumulate(acc, self._tail_crossing(lead, mono, p, b, scalar), coeff)
                return
            coeff *= scalar
        s = acc.get(lead)
        if s is None:
            acc[lead] = coeff
        else:
            s += coeff
            if s:
                acc[lead] = s
            else:
                del acc[lead]

    def _tail_crossing(
        self, lead: tuple[int, ...], mono: tuple[int, ...], p: int, b: int, scalar: Fraction
    ) -> dict[tuple[int, ...], Fraction]:
        """The terms of x_i^b crossing y_i (p = 2i - 2) in mono, with
        coefficient 1 on mono: the lead with its block scalar, then the
        tail A O_{i-1} (A: mono up to p) shifted by mono's letters from
        x_i^(b-1) on and scaled by the lead's scalar times [b]/q_i^b.

        The tail of A and [b]/q_i^b depend on the parameters alone, so they
        are read from `QuantumParams.tail_crossings`.  A miss multiplies
        the monomial A by O_{i-1} (`QuantumParams.tail_terms`), charging its
        crossings as it goes, and stores the product with their count once
        it has finished (a `StepBudgetExceeded` stores nothing); a hit
        charges that count at once.  The caller applies mono's coefficient
        once to the result; carried into the tail's products, it would
        multiply and reduce large numerators more often."""
        table = self.table
        i = p // 2 + 1
        ratio = table.get((i, b))
        if ratio is None:
            qi, pi = self.params.q[i - 1], self.params.p[i - 1]
            ratio = table[i, b] = (qi**b - pi**b) / ((qi - pi) * qi**b)
        head = mono[: p + 1] + (0,) * (len(mono) - p - 1)
        entry = table.get((head, i))
        if entry is None:
            before = self.budget.spent
            tail = self.times({head: 1}, self.params.tail_terms[i - 1])
            entry = table[head, i] = (tail, self.budget.spent - before)
        else:
            self.budget.charge(entry[1])
        rest = (0,) * (p + 1) + (b - 1,) + mono[p + 2 :]
        factor = scalar * ratio  # the lead's without q_i^b, times [b]
        out = {lead: scalar}
        for m, c in entry[0].items():
            out[tuple(map(add, m, rest))] = c * factor
        return out

    def dict_times_gen(
        self, terms: dict[tuple[int, ...], Fraction], p: int
    ) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            self.mono_times_gen(acc, mono, p, coeff)
        return acc

    def times(
        self, f_terms: dict[tuple[int, ...], Fraction], g_terms: dict[tuple[int, ...], Fraction]
    ) -> dict[tuple[int, ...], Fraction]:
        """The terms of f g in normal form: f, scaled by each term of g,
        takes that term's letters on one at a time."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono_g, coeff_g in g_terms.items():
            part = {m: c * coeff_g for m, c in f_terms.items()}
            for pos, e in enumerate(mono_g):
                for _ in range(e):
                    part = self.dict_times_gen(part, pos)
            accumulate(acc, part)
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
    return NCElement._trusted(params.n, mult.times(f.terms, g.terms))


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
        """Scalar in X^u X^v = twist * X^(u+v), the product of S(a, b)^(u_a v_b)
        over a > b; a bicharacter in each slot, kept in `QuantumParams.twists`."""
        table = self.params.twists
        scalar = table.get((u, v))
        if scalar is None:
            cols = self.params.integer_columns
            scalar = table[u, v] = power_product(
                (s, ua * vb) for b, vb in enumerate(v) if vb for s, ua in zip(cols[b][b + 1 :], u[b + 1 :])
            )
        return scalar


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

