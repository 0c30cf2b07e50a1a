"""Exact sparse Laurent-polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout, so every computation in the
package is exact.  A polynomial is a sparse map from exponent vectors to
nonzero coefficients; negative exponents are allowed only on variables that
the owning `VarSpec` declares invertible.  The sparse term-map arithmetic,
its canonical formatter and its validation rules (`TermMap`, `accumulate`,
`format_terms`) are written here once and shared with the quantized
algebra's elements.  The module also holds the one step budget of every
bounded computation (`StepBudget`), rule-based commutative reduction (for
quotients by confluent rule systems) and the integer-lattice analysis of
multiplicative subgroups of Q* used by the parameter-group checks.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Mapping, Optional, Sequence, Union

Scalar = Union[Fraction, int]

DEFAULT_STEP_BUDGET = 10**6


class VarSpecMismatch(ValueError):
    """Raised when two values live over different owners: variable
    specifications, arities or tori."""


class StepBudgetExceeded(RuntimeError):
    """A computation went past its step budget.

    This is the documented outcome of any `nf` or `bracket` expression,
    quotient normal form, associativity-suite product or walk of the
    admissible sets that takes more than `POISSON_STRATA_STEP_BUDGET` steps;
    the command line reports it as a JSON error object and exits 2."""

    def __init__(self, limit: int, unit: str):
        super().__init__(f"exceeded {limit} {unit}")


class StepBudget:
    """An allowance of `limit` steps, counted in `unit`, that every
    computation handed it charges: the block crossings of PBW products and
    the products of quantized powers, or the term pairs of Poisson products
    and brackets, of one expression or one product, or the admissible sets
    of one run.  The rewrite loop `reduce_packed` keeps its own counter to
    the same rule."""

    __slots__ = ("limit", "unit", "spent")

    def __init__(self, limit: int = DEFAULT_STEP_BUDGET, unit: str = "rewrite steps"):
        self.limit = limit
        self.unit = unit
        self.spent = 0

    def charge(self, k: int = 1) -> None:
        """Count k more steps; raises StepBudgetExceeded once they pass the limit."""
        self.spent += k
        if self.spent > self.limit:
            raise StepBudgetExceeded(self.limit, self.unit)


@dataclass(frozen=True)
class VarSpec:
    """An ordered list of variable names with per-variable flags.

    The order is fixed for the life of an algebra; monomials are exponent
    vectors indexed by this order.  An invertible variable may carry a
    negative exponent.  A killed variable is set to zero: a monomial with a
    nonzero exponent on it is zero, so no element of the ring contains it.
    A variable cannot be both.  Construction derives the index sets that
    admission reads for every monomial.
    """

    names: tuple[str, ...]
    invertible: frozenset[str] = frozenset()
    killed: frozenset[str] = frozenset()
    invertible_indices: frozenset[int] = field(init=False, repr=False, compare=False)
    killed_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        unknown = (self.invertible | self.killed) - set(self.names)
        if unknown:
            raise KeyError(f"flags for unknown variables {sorted(unknown)}")
        overlap = self.invertible & self.killed
        if overlap:
            raise ValueError(f"cannot invert killed variables {sorted(overlap)}")
        index = self.names.index
        object.__setattr__(self, "invertible_indices", frozenset(map(index, self.invertible)))
        object.__setattr__(self, "killed_indices", tuple(sorted(map(index, self.killed))))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def admit(self, mono: tuple[int, ...]) -> bool:
        """False when the exponent vector is a zero monomial (it touches a
        killed variable); raises unless it is a monomial of the ring."""
        if len(mono) != len(self.names):
            raise ValueError(f"exponent vector {mono} has wrong arity for {self.names}")
        for i in self.killed_indices:
            if mono[i]:
                return False
        for i, e in enumerate(mono):
            if e < 0 and i not in self.invertible_indices:
                raise ValueError(f"negative exponent on non-invertible variable {self.names[i]!r}")
        return True

    def is_invertible(self, i: int) -> bool:
        return i in self.invertible_indices

    def extended(self, name: str) -> VarSpec:
        """These variables and one more, not flagged, appended last."""
        return VarSpec(self.names + (name,), self.invertible, self.killed)


def monomial_key(m: tuple[int, ...]):
    """Sort key of the term order: total degree, ties by rightmost variable.

    Total degree is the signed exponent sum, which keeps the order compatible
    with multiplication on Laurent monomials.  On equal degree the monomial
    with the larger exponent on the latest variable wins, so for the standard
    generator order y1, x1, ..., yn, xn the product y_i*x_i dominates every
    monomial in the lower variables of the same degree.  A `MonomialCode`
    packs monomials into ints whose integer order is this order; the
    rewrite loop compares those.
    """
    return (sum(m), tuple(reversed(m)))


class MonomialCode:
    """Exponent vectors of `width` variables packed into Python ints.

    pack(m) = deg(m)*2^(F*w) + sum_p (m_p + bias)*2^(F*p), where F = `bits`
    is the field width, bias = 2^(F-1), w the width and deg(m) the signed
    exponent sum.  A field holds an exponent in [-bias, bias), so the fields
    together lie in [0, 2^(F*w)) under the degree, and the last variable's
    field is the most significant: integer order is the `monomial_key`
    order.  pack is affine, so when m and m + s both lie in the fields'
    range, pack(m + s) = pack(m) + shift(s), one integer addition.  `pack`
    raises ValueError on an exponent outside the range rather than let it
    spill into its neighbour; `monomial_code` picks a field wide enough for
    what a computation can reach.
    """

    __slots__ = ("width", "bits", "bias", "offsets", "origin", "units")

    def __init__(self, width: int, bits: int):
        self.width = width
        self.bits = bits
        self.bias = 1 << (bits - 1)
        self.offsets = tuple(range(0, bits * width, bits))  # each field's lowest bit
        self.origin = sum(self.bias << k for k in self.offsets)  # pack of 1
        # shift of each unit vector: one on its field and one on the degree
        self.units = tuple((1 << k) + (1 << (bits * width)) for k in self.offsets)

    def shift(self, s: Sequence[int]) -> int:
        """pack(m + s) - pack(m) = sum_p s_p * units[p], for any m with m
        and m + s in range."""
        return sum(map(mul, s, self.units))

    def pack(self, mono: tuple[int, ...]) -> int:
        if len(mono) != self.width:
            raise ValueError(f"exponent vector {mono} has wrong arity for width {self.width}")
        if mono and not -self.bias <= min(mono) <= max(mono) < self.bias:
            raise ValueError(f"exponent vector {mono} does not fit fields of {self.bits} bits")
        return self.origin + self.shift(mono)

    def unpack(self, x: int) -> tuple[int, ...]:
        bias = self.bias
        mask = (bias << 1) - 1
        out = []
        for k in self.offsets:
            out.append(((x >> k) & mask) - bias)
        return tuple(out)

    def pack_terms(self, terms: Mapping[tuple[int, ...], Scalar]) -> dict[int, Scalar]:
        """A term map with packed keys, in the same order."""
        return dict(zip(map(self.pack, terms), terms.values()))

    def unpack_terms(self, terms: Mapping[int, Scalar]) -> dict[tuple[int, ...], Scalar]:
        """A packed term map with exponent-vector keys, in the same order."""
        return dict(zip(map(self.unpack, terms), terms.values()))


_shared_code = functools.cache(MonomialCode)  # (width, bits) -> its one code


def monomial_code(width: int, reach: int) -> MonomialCode:
    """The code of `width` variables whose fields hold every exponent of
    absolute value at most `reach`: the narrowest of 8, 16, 32, ... bits.
    Codes are shared values, one per width and field width."""
    bits = 8
    while reach >= 1 << (bits - 1):
        bits *= 2
    return _shared_code(width, bits)


def same_owner(a, b) -> bool:
    """The owner test of every binary operation: identity first, so values
    over one shared owner never compare its fields."""
    return a is b or a == b


def _as_fraction(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def accumulate(
    acc: dict[tuple[int, ...], Scalar],
    terms: Mapping[tuple[int, ...], Scalar],
    coeff: Optional[Scalar] = None,
) -> dict[tuple[int, ...], Scalar]:
    """acc += coeff * terms in place (coeff None meaning 1); returns acc.
    The values are rationals, or integer numerators over one denominator.

    A monomial new to acc is appended and an entry that sums to zero is
    deleted, so acc stays canonical when coeff and the values of terms are
    nonzero, as they are in every canonical term map.
    """
    for mono, c in terms.items():
        if coeff is not None:
            c = coeff * c
        s = acc.get(mono)
        if s is None:
            acc[mono] = c
        else:
            s += c
            if s:
                acc[mono] = s
            else:
                del acc[mono]
    return acc


def numerators_over(
    terms: Mapping[tuple[int, ...], Fraction], d: int
) -> dict[tuple[int, ...], int]:
    """The integer numerators of a term map's coefficients over d, a common
    multiple of their denominators."""
    return {mono: c.numerator * (d // c.denominator) for mono, c in terms.items()}


def integer_terms(
    terms: Mapping[tuple[int, ...], Fraction],
) -> tuple[dict[tuple[int, ...], int], int]:
    """(numerators, d): the term map over d, the least common denominator of
    its coefficients (1 for no terms).

    Both term-pair kernels, `PoissonStructure.bracket` and
    `LaurentPoly.__mul__`, sum integers over d and divide once per result
    term (`over_denominator`), which is exact and much cheaper than rational
    arithmetic on every term pair.
    """
    d = lcm(*[c.denominator for c in terms.values()])
    return numerators_over(terms, d), d


def over_denominator(
    numerators: Mapping[tuple[int, ...], int], d: int
) -> dict[tuple[int, ...], Fraction]:
    """The canonical term map of integer numerators (all nonzero) over d."""
    return {mono: Fraction(c, d) for mono, c in numerators.items()}


def _coefficient_text(coeff: Fraction) -> str:
    try:
        return str(coeff)
    except ValueError:  # the interpreter's integer-to-string digit limit
        raise ValueError(
            f"a result coefficient has more than {sys.get_int_max_str_digits()} digits"
            " and cannot be printed"
        ) from None


def format_terms(terms: Mapping[tuple[int, ...], Fraction], names: Sequence[str]) -> str:
    """Canonical text of a term map in descending term order; stable across
    runs.  A coefficient with more decimal digits than the interpreter
    converts (`sys.get_int_max_str_digits()`) raises `ValueError`."""
    out = ""
    for mono, coeff in sorted(terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True):
        factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e)
        if not factors:
            text = _coefficient_text(coeff)
        elif coeff == 1:
            text = factors
        elif coeff == -1:
            text = "-" + factors
        else:
            text = _coefficient_text(coeff) + "*" + factors
        if not out:
            out = text
        elif text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out or "0"


class TermMap:
    """A sparse map from exponent vectors to nonzero rationals, over an owner.

    The owner fixes which exponent vectors are monomials: the variables of a
    `LaurentPoly`, the arity of an `NCElement`, the torus of a
    `QTorusElement`.  Each subclass names its owner (an alias of the `owner`
    slot) and supplies `_names(owner)`, the generator names in exponent
    order, and `_admit(owner, mono)`, which raises on an exponent vector the
    owner does not allow and returns False for a monomial that is zero
    there.  Two values are equal iff their owners and term maps are.

    The constructor validates outside data.  Arithmetic that is closed over
    the ring builds its result with `_trusted`, which takes a canonical map
    (tuple keys, nonzero `Fraction` values, admitted monomials) as it is.
    Values are immutable after construction; binary operations require the
    same owner and raise `VarSpecMismatch` otherwise.
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff and self._admit(owner, mono):
                clean[tuple(mono)] = coeff
        _set_owner(self, owner)
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, owner, terms: dict[tuple[int, ...], Fraction]):
        obj = object.__new__(cls)
        _set_owner(obj, owner)
        _set_terms(obj, terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, owner):
        return cls._trusted(owner, {})

    @classmethod
    def one(cls, owner):
        return cls.monomial(owner, {})

    @classmethod
    def monomial(cls, owner, exps: Mapping[str, int], coeff: Scalar = 1):
        names = cls._names(owner)
        vec = [0] * len(names)
        for name, e in exps.items():
            vec[names.index(name)] = e
        return cls(owner, {tuple(vec): coeff})

    @classmethod
    def generator(cls, owner, name: str):
        return cls.monomial(owner, {name: 1})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_terms(self.terms, self._names(self.owner))!r})"

    def _check_owner(self, other: TermMap) -> None:
        if not same_owner(self.owner, other.owner):
            raise VarSpecMismatch(
                f"{type(self).__name__} operands over different owners: "
                f"{self.owner!r} vs {other.owner!r}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return same_owner(self.owner, other.owner) and self.terms == other.terms

    def __hash__(self):
        return hash((self.owner, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check_owner(other)
        return self._trusted(self.owner, accumulate(dict(self.terms), other.terms))

    def __neg__(self):
        return self._trusted(self.owner, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        c = _as_fraction(c)
        return self._trusted(self.owner, {m: c * v for m, v in self.terms.items()} if c else {})

    def __pow__(self, e: int):
        return self.power(e)

    def power(self, e: int, mul=mul):
        """Binary powering that multiplies only while exponent bits remain,
        so x ** 1 makes no product; a negative e first takes the subclass's
        `_inverse()`.  Every product is `mul(a, b)`, so a caller can charge
        it against a budget."""
        if e < 0:
            return self._inverse().power(-e, mul)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return self.one(self.owner) if result is None else result


# The slot descriptors' setters, bound once: the only writes past the
# immutability of `__setattr__`, and cheaper than a by-name
# `object.__setattr__` on every value arithmetic builds.
_set_owner = TermMap.owner.__set__
_set_terms = TermMap.terms.__set__


class LaurentPoly(TermMap):
    """A sparse Laurent polynomial in canonical form.

    Canonical form means: no zero coefficients are stored, and two
    polynomials are equal iff their term maps are equal.  Values are
    immutable after construction; all operations return fresh objects.
    """

    __slots__ = ()
    varspec = TermMap.owner  # the owner slot under its name here

    @staticmethod
    def _names(varspec: VarSpec) -> tuple[str, ...]:
        return varspec.names

    _admit = staticmethod(VarSpec.admit)

    @classmethod
    def variable(cls, varspec: VarSpec, name: str) -> LaurentPoly:
        return cls.generator(varspec, name)

    # -- views ----------------------------------------------------------

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

    # -- what only polynomials do ---------------------------------------

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        """The product, term pair by term pair in the order of f's terms,
        then g's.  Two operands of two or more terms are summed as integer
        numerators over the product of their denominators, as the bracket
        kernel sums; that sum is zero exactly when the rational one is, so
        the result's terms keep the same order.  A product with an operand
        of at most one term is a shift and a scale, cheaper in rationals:
        without that path one in-process `expressions` benchmark round took
        about 6 % longer (median 1.75 s against 1.66 s over 10 alternating
        runs each, 2-core host)."""
        self._check_owner(other)
        f, g = self.terms, other.terms
        if len(f) <= 1 or len(g) <= 1:
            acc: dict[tuple[int, ...], Fraction] = {}
            for m1, c1 in f.items():
                accumulate(acc, {tuple(map(add, m1, m2)): c2 for m2, c2 in g.items()}, c1)
            return LaurentPoly._trusted(self.varspec, acc)
        f_ints, f_den = integer_terms(f)
        g_ints, g_den = integer_terms(g)
        g_items = g_ints.items()
        ints: dict[tuple[int, ...], int] = {}
        for u, a in f_ints.items():
            accumulate(ints, {tuple(map(add, u, v)): b for v, b in g_items}, a)
        return LaurentPoly._trusted(self.varspec, over_denominator(ints, f_den * g_den))

    def monomial_inverse(self) -> LaurentPoly:
        """Inverse of a single-term polynomial; all its variables must be invertible."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible")
        [(mono, coeff)] = self.terms.items()
        return LaurentPoly(self.varspec, {tuple(-e for e in mono): 1 / coeff})

    _inverse = monomial_inverse

    def derivative(self, name: str) -> LaurentPoly:
        """Partial derivative; the power rule covers negative exponents.

        Lowering one exponent keeps distinct monomials distinct, so no two
        terms meet.
        """
        i = self.varspec.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e:
                out[mono[:i] + (e - 1,) + mono[i + 1:]] = coeff * e
        return LaurentPoly._trusted(self.varspec, out)

    def map_to(self, target: VarSpec) -> LaurentPoly:
        """Reinterpret over `target`, matching variables by name.

        Variables absent from `target` must not occur; fresh variables get
        exponent zero.
        """
        positions = []
        for i, name in enumerate(self.varspec.names):
            positions.append(target.names.index(name) if name in target.names else None)
        out: dict[tuple[int, ...], Fraction] = {}
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
            out[tuple(vec)] = coeff
        return LaurentPoly(target, out)


def format_poly(f: LaurentPoly) -> str:
    """Canonical text form; stable across runs."""
    return format_terms(f.terms, f.varspec.names)


@dataclass(frozen=True)
class ReductionRule:
    lead: tuple[int, ...]
    replacement: LaurentPoly


class RewriteTable(dict):
    """Packed monomial -> the rewrite targets of every rule whose lead
    divides it, in system order; a monomial's entry is computed on its first
    lookup and kept.  Per rule the entry holds the replacement's terms d*u
    as (pack(m - lead + u), d), in the replacement's term order, each target
    one integer addition of the packed shift u - lead.

    `code` is the table's `MonomialCode`.  `rules` holds, per rule that can
    divide a monomial of the code, its lead test (subtrahend, mask) and its
    packed shifts (u - lead, d).  The lead test runs on the packed int: the
    subtrahend holds the lead's exponent e on each field the test needs
    (the non-invertible variables where e > 0) and the mask the top bit of
    those fields.  Such a field holds m_i + bias with 0 <= m_i < bias, and
    e <= bias, so subtracting e borrows from no other field, and the
    field's top bit stays set iff m_i >= e: the lead divides m, m / lead
    being a monomial of the ring, iff (x - subtrahend) & mask == mask.
    A lead past a field's range divides no monomial of the code and has no
    rule here.  The tests keep the test on the unpacked monomial
    (`tests/oracles.unpacked_entry`) as its reference.
    """

    __slots__ = ("code", "rules")

    def __init__(self, code: MonomialCode, rules):
        super().__init__()
        self.code = code
        self.rules = rules

    def __missing__(self, x: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        entry = self[x] = tuple(
            tuple((x + s, d) for s, d in shifts)
            for subtrahend, mask, shifts in self.rules
            if (x - subtrahend) & mask == mask
        )
        return entry


@dataclass(frozen=True)
class ReductionSystem:
    """A confluent commutative rewriting system lead-monomial -> polynomial.

    Well-formedness (checked): every lead is a monomial of the ring, lead
    monomials are pairwise distinct and every replacement is strictly smaller
    than its lead in the term order.  Confluence itself is the supplier's
    responsibility.

    Construction also derives what the rewrite tables are built from: per
    rule the (index, exponent) pairs of its lead on non-invertible
    variables with a positive exponent (`lead_divisors`), from which each
    table builds its packed lead test, since a ring monomial m is divisible
    by the lead iff m[i] >= e for each pair; the replacement's terms as
    (u - lead, d) in the replacement's term order (`replacement_shifts`);
    and `drift`, the largest amount by which one step can move one exponent
    on a ring with invertible variables (0 on a ring without them).
    `rewrites` hands out the system's `RewriteTable` of each code, built on
    first use from these and kept in `tables`.  None of these
    take part in equality, hashing or repr.
    """

    varspec: VarSpec
    rules: tuple[ReductionRule, ...]
    lead_divisors: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    replacement_shifts: tuple[tuple[tuple[tuple[int, ...], Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    drift: int = field(init=False, repr=False, compare=False)
    tables: dict[MonomialCode, RewriteTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        leads = [r.lead for r in self.rules]
        if len(set(leads)) != len(leads):
            raise ValueError("duplicate rule lead monomials")
        for r in self.rules:
            LaurentPoly(self.varspec, {r.lead: 1})  # raises unless a ring monomial
            if not same_owner(r.replacement.varspec, self.varspec):
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
        drift = 0
        if self.varspec.invertible:
            drift = max((abs(e) for rule in shifts for s, _ in rule for e in s), default=0)
        object.__setattr__(self, "lead_divisors", divisors)
        object.__setattr__(self, "replacement_shifts", shifts)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "tables", {})

    def rewrites(self, degree: int, max_steps: int) -> RewriteTable:
        """The table of the narrowest code that holds every monomial a
        reduction of at most max_steps steps meets, from input monomials
        whose absolute exponents sum to at most `degree`.

        On a ring without invertible variables no exponent ever passes
        `degree`: exponents stay nonnegative, and no step raises the total
        degree, since every replacement lies below its lead in the
        degree-first order.  With invertible variables each step moves an
        exponent by at most `drift`, and the table also lists the targets of
        the monomials met after the last step, so the bound is degree +
        (max_steps + 1) * drift.  So no packed monomial the loop meets ever
        wraps."""
        code = monomial_code(len(self.varspec), degree + (max_steps + 1) * self.drift)
        table = self.tables.get(code)
        if table is None:
            offsets, bias = code.offsets, code.bias
            rules = tuple(
                (
                    sum(e << offsets[i] for i, e in need),
                    sum(bias << offsets[i] for i, _ in need),
                    tuple((code.shift(s), d) for s, d in shifts),
                )
                for need, shifts in zip(self.lead_divisors, self.replacement_shifts)
                # a lead past a field's range divides no monomial of the code
                if all(e <= bias for _, e in need)
            )
            table = self.tables[code] = RewriteTable(code, rules)
        return table


def rewrite_candidates(terms: dict[int, Fraction], table: RewriteTable) -> list:
    """The (term, targets) pairs of one random rewrite step: every term of
    the packed map, in its order, with the targets of each rule whose lead
    divides it, in system order; [] when no rule applies."""
    candidates = []
    for m in terms:
        for targets in table[m]:
            candidates.append((m, targets))
    return candidates


def reduce_packed(
    terms: dict[int, Fraction],
    table: RewriteTable,
    max_steps: int,
    bits=None,
    first: Optional[list] = None,
) -> dict[int, Fraction]:
    """The normal form of a canonical packed term map, keyed by the packed
    monomials of `table.code`, as a packed term map: the one rewrite loop.

    The result has no term divisible by any rule lead.  The rules that
    apply to a term, and the packed targets of each, are one lookup in the
    table.  Without `bits` each step rewrites the largest reducible term,
    found in one pass by integer comparison, by its first matching rule.
    With `bits`, a generator's `getrandbits`, each step lists the
    candidates (term, targets of one rule), terms in their current order
    and rules in system order, and draws one uniformly as `rng.choice`
    would, which is how the confluence suite exercises uniqueness of normal
    forms.  The draw is inline: k = len(candidates).bit_length() bits from
    `bits`, drawn again while they reach the count, the loop of
    `random.Random._randbelow`, so the draws and the final rng state are
    those of `rng.choice` (`tests/oracles.draw_below` is that loop as a
    function, the tests' reference).  The candidates are listed by the loop
    of `rewrite_candidates`, inline; `first`, when given, is the first
    step's list, so a caller that has listed it does not list it again.
    Each normal form has its own budget of max_steps rule applications,
    kept in a local counter rather than a `StepBudget` (one object per call
    would cost time on this path); past it, StepBudgetExceeded is raised.

    A step rewrites one mutable copy of the map in place: it pops the chosen
    term c*m and, for each term d*u of the replacement, adds c*d at
    m - lead + u, deleting entries that sum to zero.  That is the insertion
    and deletion order of f - c*m + c*(m/lead)*replacement in `LaurentPoly`
    arithmetic, f being the map's polynomial, so the normal form, its term
    order and the draws match that rebuild exactly.  The input is never
    changed; when no rule applies it is returned itself.
    """
    steps = 0
    while True:
        if bits is None:
            mono = None
            for m in terms:
                if table[m] and (mono is None or m > mono):
                    mono = m
            if mono is None:
                break
            targets = table[mono][0]
        else:
            if steps or first is None:
                candidates = []
                for m in terms:
                    for targets in table[m]:
                        candidates.append((m, targets))
            else:
                candidates = first
            n = len(candidates)
            if not n:
                break
            k = n.bit_length()
            r = bits(k)
            while r >= n:
                r = bits(k)
            mono, targets = candidates[r]
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(max_steps, "rewrite steps")
        if steps == 1:
            terms = dict(terms)  # the input stays as it is
        coeff = terms.pop(mono)
        for target, c in targets:
            s = terms.get(target)
            if s is None:
                terms[target] = coeff * c
            else:
                s += coeff * c
                if s:
                    terms[target] = s
                else:
                    del terms[target]
    return terms


def reduce_terms(
    terms: dict[tuple[int, ...], Fraction],
    system: ReductionSystem,
    max_steps: int,
    bits=None,
) -> dict[tuple[int, ...], Fraction]:
    """The normal form of a canonical term map over the system's variables,
    as a term map keyed by exponent vectors; the boundary of the rewrite
    loop `reduce_packed`, which builds no polynomial and checks no owner.

    It packs the map with the system's table for the input's largest
    absolute degree (`ReductionSystem.rewrites`), runs the loop, with
    `bits` as there, and unpacks the result in its order.  When no rule
    applies the input itself is returned.
    """
    table = system.rewrites(max((sum(map(abs, m)) for m in terms), default=0), max_steps)
    packed = table.code.pack_terms(terms)
    out = reduce_packed(packed, table, max_steps, bits)
    return terms if out is packed else table.code.unpack_terms(out)


def reduce_poly(
    f: LaurentPoly, system: ReductionSystem, max_steps: int = DEFAULT_STEP_BUDGET
) -> LaurentPoly:
    """Rewrite f to its normal form under the system, each step on the
    largest reducible term: the owner check, the rewrite core `reduce_terms`
    and one `LaurentPoly` for the result; when no rule applies, f itself is
    returned."""
    if not same_owner(f.varspec, system.varspec):
        raise VarSpecMismatch("polynomial and reduction system disagree on variables")
    terms = reduce_terms(f.terms, system, max_steps)
    return f if terms is f.terms else LaurentPoly._trusted(system.varspec, terms)


# -- prime-factored view of rationals and the parameter-group lattice ----


TRIAL_DIVISION_BOUND = 10**6


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of a positive n.

    Trial division runs through the divisors below TRIAL_DIVISION_BOUND; a
    cofactor left above its square must be certified prime by `is_prime`,
    otherwise ValueError names it rather than searching on for its factors.
    """
    if n <= 0:
        raise ValueError("factor_integer expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n and (n >= PRIME_TEST_BOUND or not is_prime(n)):
        raise ValueError(
            f"cannot factor {n}: no prime factor below {TRIAL_DIVISION_BOUND} and not a certified prime"
        )
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    These bases decide primality exactly for every n below
    PRIME_TEST_BOUND (about 3.3e24); larger n raise ValueError instead of
    getting an answer that could be wrong.
    """
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is not below {PRIME_TEST_BOUND}, the bound of the exact primality test")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    )
