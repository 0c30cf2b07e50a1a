"""Poisson brackets on (Laurent) polynomial rings and their extensions.

A Poisson structure is stored as the bracket table on generator pairs; the
bracket of arbitrary elements is the unique biderivation extending the table,

    {f, g} = sum_{i<j} table(i,j) * (df/dg_i dg/dg_j - df/dg_j dg/dg_i).

The structure evaluates it term pair by term pair, in closed form.  On
construction each entry (i, j) splits into its g_i g_j coefficient, which
goes into a skew integer matrix R over one common denominator D, and the
rest of its terms.  Then for monomials X^u, X^v

    {X^u, X^v} = (u.R.v / D) X^(u+v)
                 + sum over rest entries (i, j) of (u_i v_j - u_j v_i)
                   X^(u+v-e_i-e_j) * (rest of entry (i, j)),

which is the formula above applied to one term of each argument.  A
log-canonical table has no rest; the algebra A_n's rest is its tails.
Killed generators need no special case, as no monomial of the ring carries
them, and negative exponents need none either.  The kernel's integer core,
`_add_bracket`, sums the numerators of {f, g} into an accumulator;
`bracket` wraps it in rationals, and `jacobi_check` reads it directly.
Antisymmetry and the Leibniz rule hold by construction.  The Jacobi
identity is checked once, by `jacobi_check` on the generator triples that
touch a rest entry (the others cannot fail), and it propagates to all
elements because the jacobiator of a biderivation bracket is a
triderivation.  So the package brackets no sampled elements, which would
test the kernel code rather than the algebra.

The module also provides the one Poisson-derivation test, the generator-pair
residual walk `derivation_residuals`, and the two extension constructors for
polynomial rings (a single Poisson-Ore step, and the two-variable double
extension built from two such steps), whose checks read that walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add, mul, sub
from typing import Mapping, Optional

from .exact_poly import (
    LaurentPoly,
    Scalar,
    VarSpec,
    VarSpecMismatch,
    accumulate,
    field,
    format_poly,
    integer_terms,
    numerators_over,
    over_denominator,
    record,
    same_owner,
)


class CompatibilityError(ValueError):
    """An extension precondition failed; carries the offending residual."""

    def __init__(self, message: str, pair=None, residual: Optional[LaurentPoly] = None):
        super().__init__(message)
        self.pair = pair
        self.residual = residual


@record
class PoissonStructure:
    """Generators plus the upper-triangular bracket table {g_i, g_j}, i < j.

    Construction splits the table once for the bracket kernel, with every
    coefficient written as an integer over `denominator`, the least common
    denominator of the whole table: `log_matrix` is the skew matrix of the
    g_i g_j coefficients, and `rest` holds each entry's other terms as
    (i, j, ((m - e_i - e_j, coefficient), ...)).  `rows` keeps the row
    u.R of each exponent vector u that the kernel has met, filled on first
    use, as the strata of one report bracket the same monomials again.
    Construction does not run the Jacobi test; call `validate()` (the named
    constructors in `algebra_an` do) before trusting the structure.
    """

    varspec: VarSpec
    table: Mapping[tuple[int, int], LaurentPoly]
    denominator: int = field(init=False, repr=False, compare=False)
    log_matrix: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    rest: tuple[tuple[int, int, tuple[tuple[tuple[int, ...], int], ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    rows: dict[tuple[int, ...], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = len(self.varspec)
        for (i, j), entry in self.table.items():
            if not (0 <= i < j < size):
                raise ValueError(f"table key {(i, j)} is not an upper-triangular pair")
            if not same_owner(entry.varspec, self.varspec):
                raise VarSpecMismatch(f"table entry {(i, j)} lives over the wrong variables")
        denominator = lcm(*(c.denominator for t in self.table.values() for c in t.terms.values()))
        matrix = [[0] * size for _ in range(size)]
        rest = []
        for (i, j), entry in self.table.items():
            pair = tuple(int(k in (i, j)) for k in range(size))
            shifted = []
            for mono, c in numerators_over(entry.terms, denominator).items():
                if mono == pair:
                    matrix[i][j], matrix[j][i] = c, -c
                else:
                    shifted.append((tuple(map(sub, mono, pair)), c))
            if shifted:
                rest.append((i, j, tuple(shifted)))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "log_matrix", tuple(map(tuple, matrix)))
        object.__setattr__(self, "rest", tuple(rest))
        object.__setattr__(self, "rows", {})

    def entry(self, i: int, j: int) -> LaurentPoly:
        """{g_i, g_j} for any pair, using antisymmetry below the diagonal."""
        f = None if i == j else self.table.get((i, j) if i < j else (j, i))
        if f is None:  # the zero is built only for a pair the table omits
            return LaurentPoly.zero(self.varspec)
        return f if i < j else -f

    def generator(self, name: str) -> LaurentPoly:
        return LaurentPoly.variable(self.varspec, name)

    def _add_bracket(self, acc: dict, f_ints: Mapping, g_ints: Mapping) -> None:
        """acc += the integer numerators of {f, g} over d_f d_g `denominator`,
        for f and g given as integer numerators over d_f and d_g: the closed
        form of the module docstring, one term pair at a time, with each
        row u.R read from `rows`."""
        matrix, rest, rows = self.log_matrix, self.rest, self.rows
        g_items = g_ints.items()
        for u, a in f_ints.items():
            u_r = rows.get(u)
            if u_r is None:
                u_r = rows[u] = [-sum(map(mul, row, u)) for row in matrix]  # u.R, as R is skew
            accumulate(
                acc,
                {tuple(map(add, u, v)): s * b for v, b in g_items if (s := sum(map(mul, u_r, v)))},
                a,
            )
            for i, j, shifted in rest:
                pairs = [(v, k * b) for v, b in g_items if (k := u[i] * v[j] - u[j] * v[i])]
                if pairs:
                    for shift, t in shifted:
                        u_shift = tuple(map(add, u, shift))
                        accumulate(acc, {tuple(map(add, u_shift, v)): kb for v, kb in pairs}, a * t)

    def bracket(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        """{f, g}: the integer numerators of `_add_bracket`, divided once per
        result term."""
        vs = self.varspec
        if not (same_owner(f.varspec, vs) and same_owner(g.varspec, vs)):
            raise VarSpecMismatch("bracket arguments over the wrong variables")
        f_ints, f_den = integer_terms(f.terms)
        g_ints, g_den = integer_terms(g.terms)
        acc: dict[tuple[int, ...], int] = {}
        self._add_bracket(acc, f_ints, g_ints)
        return LaurentPoly._trusted(vs, over_denominator(acc, f_den * g_den * self.denominator))

    def jacobi_check(self) -> list[tuple[str, str, str, LaurentPoly]]:
        """(a, b, c, residual) for each generator triple a < b < c, in
        generator order, whose jacobiator {{a, b}, c} + {{b, c}, a} +
        {{c, a}, b} is nonzero; [] when the Jacobi identity holds, and then
        it holds on the whole ring.

        The inner bracket of a generator pair is its table entry, read as
        integer numerators over `denominator`, the form that `log_matrix`
        and `rest` split; the three outer brackets with the unit generators
        add into one integer map over `denominator`**2 by `_add_bracket`,
        divided only for a failing triple.  A triple none of whose pairs
        has a rest entry is skipped: then {{g_i, g_j}, g_k} =
        R_ij (R_ik + R_jk) g_i g_j g_k, and the cyclic sum of these
        vanishes because R is skew.
        """
        vs, d = self.varspec, self.denominator
        names = vs.names
        size = len(names)
        units = [tuple(int(a == k) for a in range(size)) for k in range(size)]
        gens = [{} if k in vs.killed_indices else {units[k]: 1} for k in range(size)]
        entries = {key: numerators_over(entry.terms, d) for key, entry in self.table.items()}
        rests = {(i, j) for i, j, _ in self.rest}
        found = []
        for i, j, k in combinations(range(size), 3):
            if not ((i, j) in rests or (j, k) in rests or (i, k) in rests):
                continue
            acc: dict[tuple[int, ...], int] = {}
            self._add_bracket(acc, entries.get((i, j), {}), gens[k])
            self._add_bracket(acc, entries.get((j, k), {}), gens[i])
            self._add_bracket(acc, {m: -t for m, t in entries.get((i, k), {}).items()}, gens[j])
            if acc:
                residual = LaurentPoly._trusted(vs, over_denominator(acc, d * d))
                found.append((names[i], names[j], names[k], residual))
        return found

    def validate(self) -> PoissonStructure:
        failed = self.jacobi_check()
        if failed:
            a, b, c, residual = failed[0]
            message = f"bracket table violates the Jacobi identity on ({a}, {b}, {c})"
            raise ValueError(f"{message}: residual {format_poly(residual)}")
        return self


@record
class PoissonDerivation:
    """A derivation given by generator images, extended by the product rule.

    The same formula extends a derivation to any localization, so `apply`
    is valid on Laurent arguments as well.
    """

    varspec: VarSpec
    images: Mapping[str, LaurentPoly]

    def __post_init__(self):
        missing = set(self.varspec.names) - set(self.images)
        if missing:
            raise ValueError(f"derivation lacks images for {sorted(missing)}")
        for name, img in self.images.items():
            if not same_owner(img.varspec, self.varspec):
                raise VarSpecMismatch(f"image of {name!r} over the wrong variables")

    @classmethod
    def zero(cls, varspec: VarSpec) -> PoissonDerivation:
        z = LaurentPoly.zero(varspec)
        return cls(varspec, {name: z for name in varspec.names})

    @classmethod
    def scaling(cls, varspec: VarSpec, weights: Mapping[str, Scalar]) -> PoissonDerivation:
        """g -> w_g * g on each generator (zero weight where omitted)."""
        images = {}
        for name in varspec.names:
            w = weights.get(name, 0)
            images[name] = LaurentPoly.monomial(varspec, {name: 1}, w)
        return cls(varspec, images)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        acc = LaurentPoly.zero(self.varspec)
        for name in self.varspec.names:
            img = self.images[name]
            if img.is_zero():
                continue
            d = f.derivative(name)
            if not d.is_zero():
                acc = acc + d * img
        return acc


def derivation_residuals(
    structure: PoissonStructure, deriv: PoissonDerivation, alpha: Optional[PoissonDerivation] = None
) -> list[tuple[str, str, LaurentPoly]]:
    """(a, b, residual) for each generator pair a < b, in generator order,
    whose residual D{a, b} - {D a, b} - {a, D b} - rhs(a, b) is nonzero, D
    being `deriv`.  The right side is zero without `alpha`; with it, it is
    the compatibility term D(a) alpha(b) - alpha(a) D(b) of `ore_extend`.
    Generator pairs suffice, as the residual is a biderivation in (a, b).

    Only the pairs that can fail are bracketed.  When D scales both
    generators, D a = w_a a and D b = w_b b (w = 0 included), and the pair
    has no `rest` entry, so {a, b} = R a b, the residual is
    R (w_a + w_b - w_a - w_b) a b - rhs(a, b) = -rhs(a, b), which is zero
    without `alpha` and, with it, whenever D vanishes on a and b.  So a
    pair is bracketed when it has a rest entry, when D does not scale one
    of its generators, or, with `alpha`, when D is nonzero on one of them.
    `tests/oracles.all_pairs_residuals` brackets every pair, the reference.
    """
    gens = {name: structure.generator(name) for name in structure.varspec.names}
    rests = {(i, j) for i, j, _ in structure.rest}
    needed = set()  # generators whose image alone makes their pairs able to fail
    for i, (name, g) in enumerate(gens.items()):
        image = deriv.images[name].terms
        if (alpha is not None and image) or not image.keys() <= g.terms.keys():
            needed.add(i)
    found = []
    for (i, a), (j, b) in combinations(enumerate(gens), 2):
        if not (i in needed or j in needed or (i, j) in rests):
            continue
        residual = (
            deriv.apply(structure.bracket(gens[a], gens[b]))
            - structure.bracket(deriv.images[a], gens[b])
            - structure.bracket(gens[a], deriv.images[b])
        )
        if alpha is not None:
            residual = residual - (deriv.images[a] * alpha.images[b] - alpha.images[a] * deriv.images[b])
        if not residual.is_zero():
            found.append((a, b, residual))
    return found


def ore_extend(
    structure: PoissonStructure,
    name: str,
    alpha: PoissonDerivation,
    delta: Optional[PoissonDerivation] = None,
) -> PoissonStructure:
    """Adjoin a variable x with {a, x} = alpha(a) x + delta(a).

    Requires alpha to be a Poisson derivation, then (alpha, delta) to
    satisfy the compatibility condition, the residual walk of delta with
    alpha's compatibility right side; the first failure reports its pair
    and residual.
    """
    vs = structure.varspec
    if delta is None:
        delta = PoissonDerivation.zero(vs)
    if not (same_owner(alpha.varspec, vs) and same_owner(delta.varspec, vs)):
        raise VarSpecMismatch("derivations over the wrong variables")
    for deriv, compat, message in (
        (alpha, None, "alpha is not a Poisson derivation: residual on ({}, {})"),
        (delta, alpha, "(alpha, delta) fail the compatibility condition on ({}, {})"),
    ):
        failed = derivation_residuals(structure, deriv, compat)
        if failed:
            a, b, residual = failed[0]
            raise CompatibilityError(message.format(a, b), pair=(a, b), residual=residual)
    names = vs.names
    new_vs = vs.extended(name)
    table: dict[tuple[int, int], LaurentPoly] = {
        key: entry.map_to(new_vs) for key, entry in structure.table.items()
    }
    x_index = len(new_vs) - 1
    x = LaurentPoly.variable(new_vs, name)
    for i, a in enumerate(names):
        entry = alpha.images[a].map_to(new_vs) * x + delta.images[a].map_to(new_vs)
        if not entry.is_zero():
            table[(i, x_index)] = entry
    return PoissonStructure(new_vs, table)


@record
class DoubleExtensionSpec:
    """Data (A; alpha, beta, c, u) for the two-variable extension.

    Requires alpha beta = beta alpha and {a, u} = (alpha + beta)(a) u.
    These two are checked by the second `ore_extend` of `double_extend`, as
    its derivation and compatibility residuals on each pair (a, y).  When
    the eigenvalue d of u is supplied, `check` tests the rest: alpha(u) =
    d u, beta(u) = -d u and c + d != 0; then (c+d) y x + u is Poisson
    normal in the result.
    """

    base: PoissonStructure
    alpha: PoissonDerivation
    beta: PoissonDerivation
    c: Fraction
    u: LaurentPoly
    d: Optional[Fraction] = None
    y_name: str = "y"
    x_name: str = "x"

    def check(self) -> None:
        if self.d is not None:
            if self.alpha.apply(self.u) != self.u.scale(self.d):
                raise CompatibilityError("alpha(u) != d u")
            if self.beta.apply(self.u) != self.u.scale(-self.d):
                raise CompatibilityError("beta(u) != -d u")
            if self.c + self.d == 0:
                raise CompatibilityError("c + d must be nonzero")


def double_extend(spec: DoubleExtensionSpec) -> PoissonStructure:
    """Adjoin y, x with {a,y} = alpha(a) y, {a,x} = beta(a) x, {y,x} = c y x + u.

    Realized as two single extensions: first y, then x against the extension
    of beta by beta(y) = c y together with the derivation sending y to u.
    """
    spec.check()
    step_y = ore_extend(spec.base, spec.y_name, spec.alpha)
    vs_y = step_y.varspec
    beta_images = {name: spec.beta.images[name].map_to(vs_y) for name in spec.base.varspec.names}
    beta_images[spec.y_name] = LaurentPoly.monomial(vs_y, {spec.y_name: 1}, spec.c)
    beta_prime = PoissonDerivation(vs_y, beta_images)
    zero_y = LaurentPoly.zero(vs_y)
    delta_images = {name: zero_y for name in spec.base.varspec.names}
    delta_images[spec.y_name] = spec.u.map_to(vs_y)
    delta = PoissonDerivation(vs_y, delta_images)
    return ore_extend(step_y, spec.x_name, beta_prime, delta)
