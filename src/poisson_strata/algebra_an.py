"""The multiparameter Poisson algebra on y1, x1, ..., yn, xn.

Parameters are a skew-symmetric rational matrix gamma and two rational
vectors p, q with p_i != q_i.  The bracket table couples the i-th symplectic
pair through q_i plus a tail in the lower pairs,

    {x_i, y_i} = q_i y_i x_i + sum_{k<i} (q_k - p_k) y_k x_k,

while distinct pairs interact log-canonically.  The module also builds the
iterated two-variable extension presentation of the same algebra, the
weighted scaling action whose weight vectors have constant pair sums, the
attached matrix of log-canonical coefficients, and the confluent rewriting
systems presenting the quotients by admissible-set ideals.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Sequence

from .admissible import AdmissibleSet, derived_sets, generator_names
from .exact_poly import (
    LaurentPoly,
    ReductionRule,
    ReductionSystem,
    Scalar,
    VarSpec,
    _as_fraction,
    format_poly,
    format_terms,
    record,
    reduce_poly,
)
from .poisson_core import (
    DoubleExtensionSpec,
    PoissonDerivation,
    PoissonStructure,
    double_extend,
)


def _fraction_vector(values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    return tuple(map(_as_fraction, values))


@record
class PairParams:
    """n, the coupling matrix gamma and the two vectors p, q.

    Both algebras are built from this data, gamma skew-symmetric additively
    on the Poisson side and multiplicatively on the quantized side; each
    subclass checks its side's conditions in `_check_values` and evaluates
    the pair words (`pair_word`) in `_evaluate`.  `matrix` is the 2n x 2n
    table of those values, derived on its first read, once per parameter
    set: the log-canonical matrix R on the Poisson side, the commutation
    matrix S on the quantized one.  The constructor takes any rationals,
    in lists or tuples, and stores them as tuples of `Fraction`s.
    """

    n: int
    gamma: tuple[tuple[Fraction, ...], ...]
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(map(_fraction_vector, self.gamma)))
        object.__setattr__(self, "p", _fraction_vector(self.p))
        object.__setattr__(self, "q", _fraction_vector(self.q))
        n = self.n
        if n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("gamma must be an n x n matrix")
        if len(self.p) != n or len(self.q) != n:
            raise ValueError("p and q must have length n")
        self._check_values()

    @functools.cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """`pair_word` evaluated once per pair a < b; (b, a) holds the
        evaluation of that value to the power -1, and the diagonal the
        evaluation of the empty word."""
        size, empty = 2 * self.n, self._evaluate(())
        rows = [[empty] * size for _ in range(size)]
        for a, b in combinations(range(size), 2):
            value = rows[a][b] = self._evaluate(pair_word(self, a, b))
            rows[b][a] = self._evaluate(((value, -1),))
        return tuple(map(tuple, rows))

    @functools.cached_property
    def tail_coefficients(self) -> tuple[Fraction, ...]:
        """q_k - p_k for k = 1, ..., n, derived on its first read, once per
        parameter set (`tail_coefficient`)."""
        return tuple(map(sub, self.q, self.p))

    @functools.cached_property
    def empty_set_maps(self) -> dict:
        """The empty set's generator map per side, filled by `correspondence`."""
        return {}


@record
class PoissonParams(PairParams):
    """n, the skew-symmetric coupling matrix, and the two weight vectors;
    A_n and its level-by-level rebuild are derived on their first read,
    once per parameter set, like `matrix`."""

    @functools.cached_property
    def an(self) -> PoissonStructure:
        """A_n of these parameters (`build_an`), its Jacobi identity validated."""
        return build_an(self)

    @functools.cached_property
    def presentation(self) -> IteratedPresentation:
        """The iterated two-variable extension rebuilding A_n
        (`iterated_presentation`)."""
        return iterated_presentation(self)

    @staticmethod
    def _evaluate(word) -> Fraction:
        """A pair word read additively: the log-canonical coefficient R(a, b)."""
        return sum((e * atom for atom, e in word), Fraction(0))

    def _check_values(self):
        n = self.n
        for i in range(n):
            for j in range(n):
                if self.gamma[i][j] != -self.gamma[j][i]:
                    raise ValueError(f"gamma is not skew-symmetric at ({i + 1}, {j + 1})")
        for i in range(n):
            if self.p[i] == self.q[i]:
                raise ValueError(f"p_{i + 1} and q_{i + 1} must differ")


@functools.cache
def an_varspec(n: int) -> VarSpec:
    """The variables of A_n; one shared (frozen) object per n, so values
    over it meet their owner test by identity."""
    return VarSpec(generator_names(n))


Atom = tuple[Fraction, int]


def pair_word(params: PairParams, a: int, b: int) -> tuple[Atom, ...]:
    """The coefficient of the generator pair (a, b), a < b, as a word.

    Generators are indexed y1, x1, ..., yn, xn from 0.  The word is a tuple
    of (atom, exponent) pairs over the parameters gamma_ij, p_j and q_i,
    where i <= j are the pair indices of the two generators:

        (y_i, x_i)  q_i^-1
        (y_i, y_j)  gamma_ij
        (y_i, x_j)  gamma_ij^-1 q_i^-1
        (x_i, y_j)  gamma_ij^-1 p_j
        (x_i, x_j)  gamma_ij q_i p_j^-1

    The pair (b, a) has the inverse word and (a, a) the empty one;
    `PairParams.matrix` evaluates those as the one-atom word (value of
    (a, b))^-1 and as ().  Evaluated additively (`PoissonParams._evaluate`)
    the word is the log-canonical coefficient of the Poisson algebra;
    evaluated multiplicatively (`QuantumParams._evaluate`) it is the
    commutation scalar of the quantized algebra.  The additive character of
    the parameter group turns the second into the first.  `params` is
    either side's parameters; each side reads the values from
    `params.matrix`.
    """
    i, j = a // 2, b // 2
    gamma, p_j, q_i = params.gamma[i][j], params.p[j], params.q[i]
    if i == j:
        return ((q_i, -1),)
    if a % 2 == 0:
        return ((gamma, 1),) if b % 2 == 0 else ((gamma, -1), (q_i, -1))
    return ((gamma, -1), (p_j, 1)) if b % 2 == 0 else ((gamma, 1), (q_i, 1), (p_j, -1))


def tail_coefficient(params: PairParams, k: int) -> Fraction:
    """q_k - p_k: the coefficient of y_k x_k in every tail element of index
    at least k, on either side; read from `tail_coefficients`."""
    return params.tail_coefficients[k - 1]


def tail_word(params: PairParams, i: int, a: int) -> tuple[Atom, ...]:
    """The coefficient of the tail element O_i against generator a as a word,
    read like `pair_word`.

    Generator a (indexed y1, x1, ..., yn, xn from 0) is of pair j; the word
    is q_j, or p_j when j > i, to the power +1 on y_j and -1 on x_j.
    Evaluated additively (`PoissonParams._evaluate`) it is R in
    {O_i, g_a} = R O_i g_a; evaluated multiplicatively
    (`QuantumParams._evaluate`), S in O_i G_a = S G_a O_i.
    """
    j = a // 2
    rate = params.q[j] if j < i else params.p[j]
    return ((rate, -1 if a % 2 else 1),)


def tail_element(params: PairParams, i: int, cls, owner):
    """The tail element O_i = sum over k <= i of (q_k - p_k) y_k x_k, as a
    `cls` term map over `owner`; the same combination on either side.

    Index 0 gives zero, so index-uniform callers need no special case.
    """
    if not 0 <= i <= params.n:
        raise IndexError(f"index {i} out of range 0..{params.n}")
    acc = cls.zero(owner)
    for k in range(1, i + 1):
        acc = acc + cls.monomial(owner, {f"y{k}": 1, f"x{k}": 1}, tail_coefficient(params, k))
    return acc


def named_element(params: PairParams, name: str, cls, owner):
    """A generator or a tail element "Omega<k>", by name, as a `cls` term map
    over `owner`."""
    if name.startswith("Omega"):
        return tail_element(params, int(name[5:]), cls, owner)
    return cls.generator(owner, name)


def normality_failures(params: PairParams, i: int, tail, gens, value, operate) -> list[str]:
    """The residuals of the tail element O_i, which is `tail`, against its
    tail words, on either side.

    `gens` holds the generators y1, x1, ..., yn, xn in order.  For each
    generator g_a the residual is value(O_i, g_a) minus operate(O_i, g_a)
    times the side's `_evaluate` of `tail_word(params, i, a)`; a nonzero
    one is reported as "Omega<i> <g_a>: residual <text>".
    """
    failures = []
    for a, (name, g) in enumerate(zip(generator_names(params.n), gens)):
        scalar = params._evaluate(tail_word(params, i, a))
        residual = value(tail, g) - operate(tail, g).scale(scalar)
        if not residual.is_zero():
            text = format_terms(residual.terms, residual._names(residual.owner))
            failures.append(f"Omega{i} {name}: residual {text}")
    return failures


def log_canonical_table(params: PoissonParams, vs: VarSpec) -> dict[tuple[int, int], LaurentPoly]:
    """The bracket table {g_a, g_b} = R(a, b) g_a g_b, a < b, over `vs`.

    `vs` names the generators of either ring in the order y1, x1, ..., yn,
    xn (the algebra's or the torus's).  An entry is left out when R(a, b)
    is zero.
    """
    names = vs.names
    table: dict[tuple[int, int], LaurentPoly] = {}
    for a, b in combinations(range(len(names)), 2):
        coeff = params.matrix[a][b]
        if coeff:
            table[(a, b)] = LaurentPoly.monomial(vs, {names[a]: 1, names[b]: 1}, coeff)
    return table


def build_an(params: PoissonParams) -> PoissonStructure:
    """The validated Poisson structure with the defining bracket table.

    {g_a, g_b} = R(a, b) g_a g_b (`log_canonical_table`), less the tail
    element O_{i-1} on the pair (y_i, x_i).
    """
    vs = an_varspec(params.n)
    table = log_canonical_table(params, vs)
    for i in range(2, params.n + 1):  # O_{i-1} is nonzero, as p_k != q_k
        pair = (2 * i - 2, 2 * i - 1)
        tail = tail_element(params, i - 1, LaurentPoly, vs)
        table[pair] = table.get(pair, LaurentPoly.zero(vs)) - tail
    return PoissonStructure(vs, table).validate()


def verify_omega_identities(params: PoissonParams) -> dict:
    """Check the scaling brackets of the tail elements and their recursions
    in A_n.

    Verifies, symbolically: {O_j, g} = R O_j g for every generator g, with
    R read off `tail_word` (`normality_failures`), {O_i, O_j} = 0, and the
    two solvings of the defining relation O_{i-1} = {x_i, y_i} - q_i y_i x_i
    and O_i = {x_i, y_i} - p_i y_i x_i.  Each failure names its residual.
    """
    structure = params.an
    vs = structure.varspec
    n = params.n
    omegas = [tail_element(params, i, LaurentPoly, vs) for i in range(n + 1)]
    gens = [structure.generator(name) for name in vs.names]
    failures = []
    for j in range(n + 1):
        failures += normality_failures(params, j, omegas[j], gens, structure.bracket, mul)
    checked = len(gens) * (n + 1)

    def expect_zero(residual: LaurentPoly, label: str):
        nonlocal checked
        checked += 1
        if not residual.is_zero():
            failures.append(f"{label}: residual {format_poly(residual)}")

    for i in range(n + 1):
        for j in range(n + 1):
            expect_zero(structure.bracket(omegas[i], omegas[j]), f"{{O{i}, O{j}}}")
    for i in range(1, n + 1):
        yx = LaurentPoly.monomial(vs, {f"y{i}": 1, f"x{i}": 1})
        xy_bracket = structure.bracket(gens[2 * i - 1], gens[2 * i - 2])
        expect_zero(xy_bracket - yx.scale(params.q[i - 1]) - omegas[i - 1], f"O{i - 1} recursion")
        expect_zero(xy_bracket - yx.scale(params.p[i - 1]) - omegas[i], f"O{i} recursion")
    return {"ok": not failures, "identities_checked": checked, "failures": failures}


# -- iterated presentation -------------------------------------------------


@record
class IteratedPresentation:
    """The chain of two-variable extensions rebuilding the algebra level by level.

    `specs[j-1]` extends the level-(j-1) structure by y_j, x_j; `structures`
    holds the cumulative results, `structures[j]` being the rebuilt level-j
    algebra (index 0 is the scalar base).
    """

    specs: tuple[DoubleExtensionSpec, ...]
    structures: tuple[PoissonStructure, ...]


def iterated_presentation(params: PoissonParams) -> IteratedPresentation:
    """Level j adjoins y_j, x_j with alpha = R(-, y_j), beta = R(-, x_j) on the
    lower generators, c = R(y_j, x_j), u = -O_{j-1} and d = p_j."""
    r = params.matrix
    structure = PoissonStructure(VarSpec(()), {})
    specs = []
    structures = [structure]
    for j in range(1, params.n + 1):
        vs = structure.varspec
        yj, xj = 2 * j - 2, 2 * j - 1
        spec = DoubleExtensionSpec(
            base=structure,
            alpha=PoissonDerivation.scaling(vs, {g: r[a][yj] for a, g in enumerate(vs.names)}),
            beta=PoissonDerivation.scaling(vs, {g: r[a][xj] for a, g in enumerate(vs.names)}),
            c=r[yj][xj],
            u=-tail_element(params, j - 1, LaurentPoly, vs),
            d=params.p[j - 1],
            y_name=f"y{j}",
            x_name=f"x{j}",
        )
        specs.append(spec)
        structure = double_extend(spec)
        structures.append(structure)
    return IteratedPresentation(tuple(specs), tuple(structures))


def consistency_check(params: PoissonParams) -> dict:
    """Compare the top level of the iterated presentation of `params`
    against the direct table of A_n, entry-exact.

    Each level's rebuilt table is carried unchanged into the top level, and
    the level-j algebra's table is the direct one on the first 2j
    generators, so one comparison at the top covers every level.  Pairs are
    scanned by the level that adjoins their later generator, so a mismatch
    is named at the lowest level it appears in.
    """
    n, direct = params.n, params.an
    rebuilt = params.presentation.structures[-1]
    names = direct.varspec.names
    for level in range(n):
        for a in range(2 * level + 2):
            for b in range(max(a + 1, 2 * level), 2 * level + 2):
                residual = direct.entry(a, b) - rebuilt.entry(a, b)
                if not residual.is_zero():
                    entry, text = (names[a], names[b]), format_poly(residual)
                    return {"ok": False, "level": level + 1, "entry": entry, "residual": text}
    return {"ok": True, "levels": n}


# -- the weighted scaling action --------------------------------------------


KElement = tuple[Fraction, ...]


def k_contains(n: int, h: Sequence[Scalar]) -> bool:
    """Membership: all pair sums h_{2i-1} + h_{2i} agree."""
    h = _fraction_vector(h)
    if len(h) != 2 * n:
        return False
    sums = {h[2 * i] + h[2 * i + 1] for i in range(n)}
    return len(sums) <= 1


def k_derivation(params: PoissonParams, h: Sequence[Scalar]) -> PoissonDerivation:
    h = _fraction_vector(h)
    if not k_contains(params.n, h):
        raise ValueError(f"{h} violates the constant pair-sum condition")
    vs = an_varspec(params.n)
    weights = {}
    for i in range(1, params.n + 1):
        weights[f"y{i}"] = h[2 * i - 2]
        weights[f"x{i}"] = h[2 * i - 1]
    return PoissonDerivation.scaling(vs, weights)


def k_basis(n: int) -> list[KElement]:
    """A basis of the weight-vector group: the all-pairs (1,0) vector plus
    the n difference vectors supported on one pair."""
    basis = [_fraction_vector([1, 0] * n)]
    for i in range(n):
        vec = [0] * (2 * n)
        vec[2 * i] = 1
        vec[2 * i + 1] = -1
        basis.append(_fraction_vector(vec))
    return basis


def level_eigen_elements(params: PoissonParams) -> tuple[KElement, KElement]:
    """The two weight vectors replicating the top-level extension derivations.

    The first acts as alpha_n on the lower pairs and fixes y_n; the second
    acts as beta_n on the lower pairs and on y_n, and scales x_n by
    q_n - p_n.
    """
    n = params.n
    if n < 1:
        raise ValueError("needs at least one pair")
    yn, xn = 2 * n - 2, 2 * n - 1
    r = params.matrix
    f_vec = [r[a][yn] for a in range(yn)] + [Fraction(1), params.p[n - 1] - 1]
    g_vec = [r[a][xn] for a in range(yn)] + [r[yn][xn], tail_coefficient(params, n)]
    return tuple(f_vec), tuple(g_vec)


def verify_level_eigen_elements(params: PoissonParams) -> dict:
    """The two vectors of `level_eigen_elements` lie in the weight group and
    act as the top-level extension derivations of the iterated presentation
    of `params`; at n = 0 there is no level."""
    n = params.n
    if n == 0:
        return {"ok": True, "failures": []}
    f_vec, g_vec = level_eigen_elements(params)
    failures = [
        f"{which} vector not in the weight group"
        for which, vec in (("first", f_vec), ("second", g_vec))
        if not k_contains(n, vec)
    ]
    if failures:  # no scaling derivation to compare
        return {"ok": False, "failures": failures}
    spec = params.presentation.specs[n - 1]
    vs = an_varspec(n)
    f_der = k_derivation(params, f_vec)
    g_der = k_derivation(params, g_vec)
    for name in spec.base.varspec.names:
        g = LaurentPoly.variable(vs, name)
        if f_der.apply(g) != spec.alpha.images[name].map_to(vs):
            failures.append(f"first vector disagrees with alpha on {name}")
        if g_der.apply(g) != spec.beta.images[name].map_to(vs):
            failures.append(f"second vector disagrees with beta on {name}")
    yn = LaurentPoly.variable(vs, f"y{n}")
    xn = LaurentPoly.variable(vs, f"x{n}")
    if f_der.apply(yn) != yn:
        failures.append("first vector does not fix y_n")
    if g_der.apply(yn) != yn.scale(spec.c):
        failures.append("second vector disagrees with the extension on y_n")
    if g_der.apply(xn) != xn.scale(tail_coefficient(params, n)):
        failures.append("second vector does not scale x_n by q_n - p_n")
    return {"ok": not failures, "failures": failures}


def quotient_system(params: PoissonParams, t_set: AdmissibleSet) -> ReductionSystem:
    """The confluent rewriting system presenting the quotient by an admissible set.

    The rule leads are the avoidance monomials of `derived_sets`, in their
    order.  A single-letter lead is a killed generator and rewrites to zero;
    the lead y_i x_i of a tail element in the set with both of its
    generators surviving solves to a pair rule y_i x_i -> expansion of the
    lower tail, whose right side is itself reduced against the rules before
    it so every replacement is in normal form.
    """
    if t_set.n != params.n:
        raise ValueError("admissible set and parameters disagree on n")
    vs = an_varspec(params.n)
    zero = LaurentPoly.zero(vs)
    rules: list[ReductionRule] = []
    for lead_names in derived_sets(t_set).avoid_monomials:
        lead = tuple(int(name in lead_names) for name in vs.names)
        if len(lead_names) == 1:
            rules.append(ReductionRule(lead, zero))
            continue
        i = int(lead_names[0][1:])
        rhs = tail_element(params, i - 1, LaurentPoly, vs).scale(-1 / tail_coefficient(params, i))
        rhs = reduce_poly(rhs, ReductionSystem(vs, tuple(rules)))
        rules.append(ReductionRule(lead, rhs))
    return ReductionSystem(vs, tuple(rules))
