"""The quantized algebra as a PBW normal-form rewriting system.

Generators y1, x1, ..., yn, xn satisfy q-commutation relations driven by a
multiplicative skew-symmetric matrix gamma and two scalar vectors p, q whose
ratios p_i/q_i avoid 1 and -1; the only non-monomial relation is

    x_i y_i = q_i y_i x_i + sum_{k<i} (q_k - p_k) y_k x_k.

Elements are kept in normal form: linear combinations of ordered standard
monomials y1^a1 x1^b1 ... yn^an xn^bn.  Multiplication moves the letters of
the right factor to their slots one at a time; every crossing either picks
up a scalar or, for x_i across y_i, the additive tail in strictly smaller
variables, so rewriting terminates.  The attached quantum torus (the target
of the stratum maps) lives here too, with its bicharacter twist taken from
the commutation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .algebra_an import PairParams, generator_names, pair_word, tail_coefficient, tail_element
from .exact_poly import DEFAULT_STEP_BUDGET, Scalar, TermMap, accumulate, format_terms

Relation = tuple[str, tuple[tuple[Fraction, tuple[str, ...]], ...]]


@dataclass(frozen=True)
class QuantumParams(PairParams):
    """n, the multiplicative coupling matrix, and the two scalar vectors."""

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


class StepBudgetExceeded(RuntimeError):
    """Rewriting exceeded its step budget; indicates an implementation bug."""


class _Multiplier:
    """Carries the parameters, the swap-rewrite cache, and the step counter."""

    def __init__(self, params: QuantumParams, max_steps: int):
        self.params = params
        self.max_steps = max_steps
        self.steps = 0
        self._swaps: dict[tuple[int, int], list[tuple[Fraction, int, int]]] = {}

    def _swap_terms(self, r: int, p: int) -> list[tuple[Fraction, int, int]]:
        """Normal form of (letter at r) * (letter at p) for r > p, as
        (coefficient, first position, second position) triples."""
        cached = self._swaps.get((r, p))
        if cached is not None:
            return cached
        out = [(commutation_scalar(self.params, r, p), p, r)]
        if r % 2 and r == p + 1:
            # x_i y_i picks up the tail O_{i-1} in the lower pairs
            out += [(tail_coefficient(self.params, k), 2 * k - 2, 2 * k - 1) for k in range(1, r // 2 + 1)]
        self._swaps[(r, p)] = out
        return out

    def mono_times_gen(self, mono: tuple[int, ...], p: int) -> dict[tuple[int, ...], Fraction]:
        """Normal form of mono * (generator p).

        Moving p left past the rightmost letter r > p nests one product per
        letter crossed.  The nesting is kept on an explicit stack of
        suspended `_cross` frames, so a long word cannot exhaust the
        interpreter's recursion limit.
        """
        frames: list = []
        value = self._start(mono, p, frames)
        while frames:
            try:
                request = frames[-1].send(value)
            except StopIteration as done:
                frames.pop()
                value = done.value
            else:
                value = self._start(*request, frames)
        return value

    def _start(self, mono: tuple[int, ...], p: int, frames: list):
        """The product when no letter of mono lies right of p; otherwise one
        rewrite step, whose frame is pushed onto `frames` (returns None)."""
        rightmost = -1
        for k in range(len(mono) - 1, -1, -1):
            if mono[k]:
                rightmost = k
                break
        if rightmost <= p:
            out = list(mono)
            out[p] += 1
            return {tuple(out): Fraction(1)}
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepBudgetExceeded(f"exceeded {self.max_steps} rewrite steps")
        head = list(mono)
        head[rightmost] -= 1
        frames.append(self._cross(tuple(head), rightmost, p))
        return None

    def _cross(self, head: tuple[int, ...], r: int, p: int):
        """Frame for (head * letter r) * letter p with r > p: yields each
        (monomial, generator) product it needs and is sent its normal form."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for coeff, first, second in self._swap_terms(r, p):
            part = yield head, first
            for mono, c in part.items():
                accumulate(acc, (yield mono, second), coeff * c)
        return acc

    def dict_times_gen(
        self, terms: dict[tuple[int, ...], Fraction], p: int
    ) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            accumulate(acc, self.mono_times_gen(mono, p), coeff)
        return acc


def nc_multiply(
    params: QuantumParams,
    f: NCElement,
    g: NCElement,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> NCElement:
    """The product f g rewritten to PBW normal form."""
    if f.n != params.n or g.n != params.n:
        raise ValueError("operands do not match the parameter arity")
    mult = _Multiplier(params, max_steps)
    acc: dict[tuple[int, ...], Fraction] = {}
    for mono_g, coeff_g in g.terms.items():
        part = {m: c * coeff_g for m, c in f.terms.items()}
        for pos, e in enumerate(mono_g):
            for _ in range(e):
                part = mult.dict_times_gen(part, pos)
        accumulate(acc, part)
    return NCElement._trusted(params.n, acc)


def nc_product(params: QuantumParams, factors: Sequence[NCElement]) -> NCElement:
    out = NCElement.one(params.n)
    for f in factors:
        out = nc_multiply(params, out, f)
    return out


def omega_q(params: QuantumParams, i: int) -> NCElement:
    """The tail element (`tail_element`); its pair monomials are already normal."""
    return tail_element(params, i, NCElement, params.n)


def normality_check(params: QuantumParams, i: int) -> dict:
    """For each generator g, find the scalar with Omega_i g = scalar * g Omega_i.

    Both products are computed by rewriting; the report records the scalar
    per generator and fails when no scalar matches.
    """
    if not 1 <= i <= params.n:
        raise IndexError(f"index {i} out of range 1..{params.n}")
    om = omega_q(params, i)
    scalars = {}
    failures = []
    for name in kn_names(params.n):
        g = NCElement.generator(params.n, name)
        left = nc_multiply(params, om, g)
        right = nc_multiply(params, g, om)
        if left.terms.keys() != right.terms.keys():
            failures.append(name)
            continue
        ratios = {left.terms[m] / right.terms[m] for m in left.terms}
        if len(ratios) != 1:
            failures.append(name)
            continue
        scalars[name] = ratios.pop()
    return {"ok": not failures, "scalars": scalars, "failures": failures}


def commutation_scalar(params: QuantumParams, a: int, b: int) -> Fraction:
    """S(a, b) in G_a G_b = S(a, b) G_b G_a: the pair word evaluated
    multiplicatively (see `algebra_an.pair_word`)."""
    return math.prod((atom**e for atom, e in pair_word(params, a, b)), start=Fraction(1))


def commutation_matrix(params: QuantumParams) -> tuple[tuple[Fraction, ...], ...]:
    """The attached multiplicative skew-symmetric 2n x 2n matrix.

    Entry (u, v) is the scalar in G_u G_v = s_uv G_v G_u for the torus
    generators; it is the multiplicative form of the log-canonical matrix on
    the Poisson side.
    """
    size = 2 * params.n
    return tuple(tuple(commutation_scalar(params, a, b) for b in range(size)) for a in range(size))


def defining_relations(params: QuantumParams) -> list[Relation]:
    """Every defining relation as a zero combination sum c * word.

    Words are tuples of generator names multiplied left to right; each
    relation's combination rewrites to zero in the algebra, and substituting
    generator images into them is how homomorphisms are verified.
    """
    names = kn_names(params.n)
    one = Fraction(1)

    def relation(a: int, b: int, tail=()) -> Relation:
        # g_a g_b - S(a, b) g_b g_a - tail
        swapped = (-commutation_scalar(params, a, b), (names[b], names[a]))
        return (names[a] + names[b], ((one, (names[a], names[b])), swapped, *tail))

    rels: list[Relation] = []
    for i in range(1, params.n + 1):
        yi, xi = 2 * i - 2, 2 * i - 1
        tail = [(-tail_coefficient(params, k), (f"y{k}", f"x{k}")) for k in range(1, i)]
        rels.append(relation(xi, yi, tail))
        for j in range(i + 1, params.n + 1):
            yj, xj = 2 * j - 2, 2 * j - 1
            rels += [relation(a, b) for a, b in ((yi, yj), (xi, yj), (yi, xj), (xi, xj))]
    return rels


# -- the attached quantum torus ---------------------------------------------


class QuantumTorus:
    """Arithmetic in the attached quantized coordinate ring, modulo killed
    generators and localized at inverted ones.

    Monomials touching a killed generator are zero; exponents may be
    negative exactly on the inverted generators.  Products of monomials pick
    up the bicharacter twist of the commutation matrix.
    """

    def __init__(self, params: QuantumParams, kill: Iterable[str] = (), invert: Iterable[str] = ()):
        self.params = params
        self.names = torus_names(params.n)
        self.kill = frozenset(kill)
        self.invert = frozenset(invert)
        unknown = (self.kill | self.invert) - set(self.names)
        if unknown:
            raise KeyError(f"unknown torus generators {sorted(unknown)}")
        overlap = self.kill & self.invert
        if overlap:
            raise ValueError(f"cannot invert killed generators {sorted(overlap)}")
        self.smatrix = commutation_matrix(params)
        self._kill_idx = {self.names.index(name) for name in self.kill}
        self._invert_idx = {self.names.index(name) for name in self.invert}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumTorus):
            return NotImplemented
        return (
            self.params == other.params
            and self.kill == other.kill
            and self.invert == other.invert
        )

    def __hash__(self):
        return hash((self.params, self.kill, self.invert))

    def one(self) -> QTorusElement:
        return QTorusElement.one(self)

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> QTorusElement:
        return QTorusElement.monomial(self, exps, coeff)

    def generator(self, name: str) -> QTorusElement:
        return QTorusElement.generator(self, name)

    def twist(self, u: tuple[int, ...], v: tuple[int, ...]) -> Fraction:
        """Scalar in X^u X^v = twist * X^(u+v); a bicharacter in each slot."""
        out = Fraction(1)
        for a in range(len(u)):
            ua = u[a]
            if ua == 0:
                continue
            for b in range(a):
                vb = v[b]
                if vb:
                    out *= self.smatrix[a][b] ** (ua * vb)
        return out


class QTorusElement(TermMap):
    __slots__ = ()
    torus = TermMap.owner  # the owner slot under its name here

    @staticmethod
    def _names(torus: QuantumTorus) -> tuple[str, ...]:
        return torus.names

    @staticmethod
    def _admit(torus: QuantumTorus, mono: tuple[int, ...]) -> bool:
        if len(mono) != 2 * torus.params.n:
            raise ValueError(f"bad exponent vector {mono}")
        if any(mono[i] for i in torus._kill_idx):
            return False  # killed generator: the monomial is zero
        for i, e in enumerate(mono):
            if e < 0 and i not in torus._invert_idx:
                raise ValueError(
                    f"negative exponent on non-inverted generator {torus.names[i]!r}"
                )
        return True

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


def format_torus(f: QTorusElement) -> str:
    return format_terms(f.terms, f.torus.names)
