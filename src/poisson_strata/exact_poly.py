"""Exact sparse Laurent-polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout, so every computation in the
package is exact.  A polynomial is a sparse map from exponent vectors to
nonzero coefficients; negative exponents are allowed only on variables that
the owning `VarSpec` declares invertible.  The module also provides rule-based
commutative reduction (for quotients by confluent rule systems) and the
integer-lattice analysis of multiplicative subgroups of Q* used by the
parameter-group checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[Fraction, int]

DEFAULT_STEP_BUDGET = 10**6


class VarSpecMismatch(ValueError):
    """Raised when two values live over different variable specifications."""


class ReductionBudgetExceeded(RuntimeError):
    """Raised when rule rewriting exceeds its step budget."""


@dataclass(frozen=True)
class VarSpec:
    """An ordered list of variable names with per-variable Laurent flags.

    The order is fixed for the life of an algebra; monomials are exponent
    vectors indexed by this order.
    """

    names: tuple[str, ...]
    invertible: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        unknown = self.invertible - set(self.names)
        if unknown:
            raise ValueError(f"invertible flags for unknown variables {sorted(unknown)}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def is_invertible(self, i: int) -> bool:
        return self.names[i] in self.invertible

    def extended(self, name: str, invertible: bool = False) -> VarSpec:
        inv = self.invertible | {name} if invertible else self.invertible
        return VarSpec(self.names + (name,), inv)

    def with_inverted(self, names: Iterable[str]) -> VarSpec:
        names = frozenset(names)
        unknown = names - set(self.names)
        if unknown:
            raise KeyError(f"cannot invert unknown variables {sorted(unknown)}")
        return VarSpec(self.names, self.invertible | names)


def monomial_key(m: tuple[int, ...]):
    """Sort key of the term order: total degree, ties by rightmost variable.

    Total degree is the signed exponent sum, which keeps the order compatible
    with multiplication on Laurent monomials.  On equal degree the monomial
    with the larger exponent on the latest variable wins, so for the standard
    generator order y1, x1, ..., yn, xn the product y_i*x_i dominates every
    monomial in the lower variables of the same degree.
    """
    return (sum(m), tuple(reversed(m)))


def _as_fraction(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class LaurentPoly:
    """A sparse Laurent polynomial in canonical form.

    Canonical form means: no zero coefficients are stored, and two
    polynomials are equal iff their term maps are equal.  Values are
    immutable after construction; all operations return fresh objects.
    """

    __slots__ = ("varspec", "terms")

    def __init__(self, varspec: VarSpec, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        width = len(varspec)
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != width:
                raise ValueError(f"exponent vector {mono} has wrong arity for {varspec.names}")
            for i, e in enumerate(mono):
                if e < 0 and not varspec.is_invertible(i):
                    raise ValueError(
                        f"negative exponent on non-invertible variable {varspec.names[i]!r}"
                    )
            clean[tuple(mono)] = clean.get(tuple(mono), Fraction(0)) + coeff
            if clean[tuple(mono)] == 0:
                del clean[tuple(mono)]
        object.__setattr__(self, "varspec", varspec)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, varspec: VarSpec) -> LaurentPoly:
        return cls(varspec, {})

    @classmethod
    def constant(cls, varspec: VarSpec, c: Scalar) -> LaurentPoly:
        return cls(varspec, {(0,) * len(varspec): _as_fraction(c)})

    @classmethod
    def one(cls, varspec: VarSpec) -> LaurentPoly:
        return cls.constant(varspec, 1)

    @classmethod
    def variable(cls, varspec: VarSpec, name: str) -> LaurentPoly:
        return cls.monomial(varspec, {name: 1})

    @classmethod
    def monomial(cls, varspec: VarSpec, exps: Mapping[str, int], coeff: Scalar = 1) -> LaurentPoly:
        vec = [0] * len(varspec)
        for name, e in exps.items():
            vec[varspec.index(name)] = e
        return cls(varspec, {tuple(vec): _as_fraction(coeff)})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending term order; the canonical iteration order."""
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        [(mono, coeff)] = self.terms.items()
        if any(mono):
            raise ValueError("polynomial is not constant")
        return coeff

    def total_degree(self) -> int:
        """Largest signed exponent sum over the terms (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: LaurentPoly):
        if self.varspec != other.varspec:
            raise VarSpecMismatch(
                f"operands over different variables: {self.varspec.names} vs {other.varspec.names}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.varspec == other.varspec and self.terms == other.terms

    def __hash__(self):
        return hash((self.varspec, frozenset(self.terms.items())))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = acc.get(mono, Fraction(0)) + coeff
            if s == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = s
        return LaurentPoly(self.varspec, acc)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.varspec, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = acc.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = s
        return LaurentPoly(self.varspec, acc)

    def scale(self, c: Scalar) -> LaurentPoly:
        c = _as_fraction(c)
        if c == 0:
            return LaurentPoly.zero(self.varspec)
        return LaurentPoly(self.varspec, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPoly.one(self.varspec) if result is None else result

    def monomial_inverse(self) -> LaurentPoly:
        """Inverse of a single-term polynomial; all its variables must be invertible."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible")
        [(mono, coeff)] = self.terms.items()
        return LaurentPoly(self.varspec, {tuple(-e for e in mono): 1 / coeff})

    def derivative(self, name: str) -> LaurentPoly:
        """Partial derivative; the power rule covers negative exponents."""
        i = self.varspec.index(name)
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1:]
            s = acc.get(lowered, Fraction(0)) + coeff * e
            if s == 0:
                acc.pop(lowered, None)
            else:
                acc[lowered] = s
        return LaurentPoly(self.varspec, acc)

    def derivative_index(self, i: int) -> LaurentPoly:
        return self.derivative(self.varspec.names[i])

    def map_to(self, target: VarSpec) -> LaurentPoly:
        """Reinterpret over `target`, matching variables by name.

        Variables absent from `target` must not occur; fresh variables get
        exponent zero.
        """
        positions = []
        for i, name in enumerate(self.varspec.names):
            positions.append(target.names.index(name) if name in target.names else None)
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in self.terms.items():
            vec = [0] * len(target)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                if positions[i] is None:
                    raise KeyError(
                        f"variable {self.varspec.names[i]!r} does not exist in target"
                    )
                vec[positions[i]] = e
            acc[tuple(vec)] = acc.get(tuple(vec), Fraction(0)) + coeff
        return LaurentPoly(target, acc)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def format_poly(f: LaurentPoly) -> str:
    """Canonical text form; stable across runs."""
    if f.is_zero():
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms():
        factors = []
        for name, e in zip(f.varspec.names, mono):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            text = str(coeff)
        elif coeff == 1:
            text = "*".join(factors)
        elif coeff == -1:
            text = "-" + "*".join(factors)
        else:
            text = str(coeff) + "*" + "*".join(factors)
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def monomial_divides(divisor: tuple[int, ...], mono: tuple[int, ...], varspec: VarSpec) -> bool:
    """True when mono/divisor is a valid monomial of the ring."""
    for i, (d, m) in enumerate(zip(divisor, mono)):
        if m - d < 0 and not varspec.is_invertible(i):
            return False
    return True


def divide_exact(f: LaurentPoly, z: LaurentPoly) -> Optional[LaurentPoly]:
    """Exact quotient f/z, or None when z does not divide f.

    Greedy leading-term division; correct for exact division because the
    ring is a domain and the term order is multiplicative.
    """
    if z.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_same(z)
    lead_m = z.leading_monomial()
    lead_c = z.terms[lead_m]
    quot = LaurentPoly.zero(f.varspec)
    rem = f
    while not rem.is_zero():
        m = rem.leading_monomial()
        if not monomial_divides(lead_m, m, f.varspec):
            return None
        t = LaurentPoly(
            f.varspec,
            {tuple(a - b for a, b in zip(m, lead_m)): rem.terms[m] / lead_c},
        )
        quot = quot + t
        rem = rem - t * z
    return quot


@dataclass(frozen=True)
class ReductionRule:
    lead: tuple[int, ...]
    replacement: LaurentPoly


@dataclass(frozen=True)
class ReductionSystem:
    """A confluent commutative rewriting system lead-monomial -> polynomial.

    Well-formedness (checked): every lead is a monomial of the ring, lead
    monomials are pairwise distinct and every replacement is strictly smaller
    than its lead in the term order.  Confluence itself is the supplier's
    responsibility.

    Construction also derives, per rule, what `reduce_poly` reads at every
    step: `lead_divisors` holds the (index, exponent) pairs of the lead on
    non-invertible variables with a positive exponent, so a ring monomial m
    is divisible by the lead iff m[i] >= e for each pair (the test of
    `monomial_divides`); `replacement_shifts` holds the replacement's terms
    as (m - lead, c), in the replacement's term order.
    """

    varspec: VarSpec
    rules: tuple[ReductionRule, ...]
    lead_divisors: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    replacement_shifts: tuple[tuple[tuple[tuple[int, ...], Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        leads = [r.lead for r in self.rules]
        if len(set(leads)) != len(leads):
            raise ValueError("duplicate rule lead monomials")
        for r in self.rules:
            LaurentPoly(self.varspec, {r.lead: 1})  # raises unless a ring monomial
            if r.replacement.varspec != self.varspec:
                raise VarSpecMismatch("rule replacement over wrong variables")
            if not r.replacement.is_zero():
                if monomial_key(r.replacement.leading_monomial()) >= monomial_key(r.lead):
                    raise ValueError(
                        f"replacement of rule {r.lead} does not decrease the term order"
                    )
        divisors = tuple(
            tuple(
                (i, e)
                for i, e in enumerate(r.lead)
                if e > 0 and not self.varspec.is_invertible(i)
            )
            for r in self.rules
        )
        shifts = tuple(
            tuple((tuple(map(sub, m, r.lead)), c) for m, c in r.replacement.terms.items())
            for r in self.rules
        )
        object.__setattr__(self, "lead_divisors", divisors)
        object.__setattr__(self, "replacement_shifts", shifts)


def reduce_poly(
    f: LaurentPoly,
    system: ReductionSystem,
    max_steps: int = DEFAULT_STEP_BUDGET,
    rng: Optional[random.Random] = None,
) -> LaurentPoly:
    """Rewrite f to its normal form under the system.

    The result has no term divisible by any rule lead.  Each step lists the
    candidates (term, rule) with the rule's lead dividing the term, terms in
    their current order and rules in system order.  With `rng` one candidate
    is drawn uniformly (one `randrange` per step), which is how the
    confluence suite exercises uniqueness of normal forms; otherwise the
    largest reducible term and the first matching rule are used.

    A step rewrites one mutable term map in place: it pops the chosen term
    c*m and, for each term d*u of the replacement, adds c*d at m - lead + u,
    deleting entries that sum to zero.  That is the insertion and deletion
    order of f - c*m + c*(m/lead)*replacement in `LaurentPoly` arithmetic, so
    the normal form, its term order and the rng state match that rebuild
    exactly.  One `LaurentPoly` is built at the end; when no rule applies,
    f itself is returned.
    """
    if f.varspec != system.varspec:
        raise VarSpecMismatch("polynomial and reduction system disagree on variables")
    divisors = system.lead_divisors
    shifts = system.replacement_shifts
    terms = dict(f.terms)
    steps = 0
    while True:
        candidates = []
        for mono in terms:
            for k, need in enumerate(divisors):
                for i, e in need:
                    if mono[i] < e:
                        break
                else:
                    candidates.append((mono, k))
        if not candidates:
            return LaurentPoly(system.varspec, terms) if steps else f
        if rng is None:
            mono, k = max(candidates, key=lambda c: (monomial_key(c[0]), -c[1]))
        else:
            mono, k = candidates[rng.randrange(len(candidates))]
        steps += 1
        if steps > max_steps:
            raise ReductionBudgetExceeded(
                f"no normal form within {max_steps} rewrite steps; rule system is ill-formed"
            )
        coeff = terms.pop(mono)
        for shift, c in shifts[k]:
            target = tuple(map(add, mono, shift))
            s = terms.get(target, 0) + coeff * c
            if s:
                terms[target] = s
            else:
                terms.pop(target, None)


# -- prime-factored view of rationals and the parameter-group lattice ----


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n must be positive."""
    if n <= 0:
        raise ValueError("factor_integer expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factor_rational(x: Scalar) -> tuple[int, dict[int, int]]:
    """Sign and sparse prime -> exponent map with value = sign * prod p^e."""
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("zero has no prime factorization")
    sign = 1 if x > 0 else -1
    exps = factor_integer(abs(x.numerator))
    for p, e in factor_integer(x.denominator).items():
        exps[p] = exps.get(p, 0) - e
    return sign, {p: e for p, e in sorted(exps.items()) if e != 0}


def unfactor_rational(sign: int, exps: Mapping[int, int]) -> Fraction:
    value = Fraction(sign)
    for p, e in exps.items():
        value *= Fraction(p) ** e
    return value


def _integer_row_kernel(matrix: list[list[int]]) -> list[list[int]]:
    """Z-basis of {c : c * matrix = 0}, via integer row elimination on [M | I]."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [int(i == r) for i in range(rows)] for r in range(rows)]
    pivot_rows: list[int] = []
    for col in range(cols):
        free = [r for r in range(rows) if r not in pivot_rows]
        # Euclidean elimination within the column.
        while True:
            nonzero = [r for r in free if aug[r][col] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda r: abs(aug[r][col]))
            base = nonzero[0]
            for r in nonzero[1:]:
                q = aug[r][col] // aug[base][col]
                aug[r] = [a - q * b for a, b in zip(aug[r], aug[base])]
        nonzero = [r for r in free if aug[r][col] != 0]
        if nonzero:
            pivot_rows.append(nonzero[0])
    return [aug[r][cols:] for r in range(rows) if r not in pivot_rows]


@dataclass(frozen=True)
class GroupAnalysis:
    """Lattice description of the multiplicative group generated in Q*."""

    lattice_rank: int
    contains_minus_one: bool
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]  # one row per generator
    signs: tuple[int, ...]


def group_analysis(generators: Sequence[Scalar]) -> GroupAnalysis:
    """Analyse the subgroup of Q* generated by the given nonzero rationals.

    The exponent vectors over the occurring primes span an integer lattice;
    `lattice_rank` is its rank.  The group contains -1 exactly when some
    integer combination of generators has all prime exponents zero and odd
    sign parity, decided on a Z-basis of the exponent-lattice kernel.
    """
    factored = [factor_rational(g) for g in generators]
    primes = sorted({p for _, exps in factored for p in exps})
    rows = [[exps.get(p, 0) for p in primes] for _, exps in factored]
    signs = [0 if sign > 0 else 1 for sign, _ in factored]
    if rows and primes:
        kernel = _integer_row_kernel(rows)
    else:
        kernel = [[int(i == r) for i in range(len(rows))] for r in range(len(rows))]
    rank = len(rows) - len(kernel)
    minus_one = any(sum(c * s for c, s in zip(comb, signs)) % 2 == 1 for comb in kernel)
    return GroupAnalysis(
        lattice_rank=rank,
        contains_minus_one=minus_one,
        primes=tuple(primes),
        exponents=tuple(tuple(r) for r in rows),
        signs=tuple(signs),
    )
