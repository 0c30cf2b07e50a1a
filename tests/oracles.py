"""Fixtures and independent oracles that only the tests read.

The sample parameter sets, random parameters, admissible sets by member
name, and slow or roundabout re-derivations of what the package computes:
the paper's admissibility biconditional and the brute-force filter by it,
monomial counting of quotient growth, the nested-pair walk of the eta
congruence, the defining relations of the quantized algebra written out one
by one, the jacobiator of three elements and the rational walk of the
Jacobi check over every generator triple, the derivation residuals of every
generator pair, the pair matrix by mirror words, Poisson-normality
detection by exact division, the bounded `getrandbits` draw that the
samplers and the rewrite loop run inline, the random suites' inputs as
first written with randint and randrange and as the two loops that one
monomial draw replaced, the additive character read off each value's own
factorization, normal forms by rebuilding the polynomial at every rewrite
step and by the rewrite loop on exponent-vector keys, rewrite-table
entries by unpacking each monomial, the stratum report on element objects,
the stratum maps formed in each stratum's own ring and algebra, and the
canonical text of a parsed expression.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import mul, sub
from typing import Optional, Sequence

from poisson_strata.admissible import AdmissibleSet, derived_sets, stratum_label
from poisson_strata.algebra_an import PairParams, PoissonParams, generator_names, pair_word, tail_coefficient
from poisson_strata import correspondence
from poisson_strata.algebra_kn import NCElement, QTorusElement, QuantumParams, QuantumTorus, torus_names
from poisson_strata.correspondence import AdditiveCharacter, group_character
from poisson_strata.exact_poly import (
    LaurentPoly,
    StepBudgetExceeded,
    VarSpec,
    factor_rational,
    format_terms,
    monomial_code,
    monomial_key,
    reduce_packed,
)
from poisson_strata.parser import Bracket, Expr, Num, Power, Product, Sum, Var
from poisson_strata.poisson_core import DoubleExtensionSpec, PoissonDerivation, PoissonStructure

# -- sample and random parameters ----------------------------------------------
#
# The quantum family keeps every scalar a power of two, so the parameter group
# has rank one and the weight-1 character on the prime 2 transports it to the
# Poisson family exactly.


def poisson_sample() -> PoissonParams:
    """A small generic Poisson instance (not a character image)."""
    return PoissonParams(2, [[0, 1], [-1, 0]], [2, 3], [5, 7])


_QUANTUM_P = {0: (), 1: (2,), 2: (2, 8), 3: (2, 8, 2)}
_QUANTUM_Q = {0: (), 1: (4,), 2: (4, 32), 3: (4, 32, 16)}
_QUANTUM_GAMMA = {
    0: [],
    1: [[1]],
    2: [[1, 2], [Fraction(1, 2), 1]],
    3: [[1, 2, 4], [Fraction(1, 2), 1, 2], [Fraction(1, 4), Fraction(1, 2), 1]],
}


def quantum_sample(n: int = 2) -> QuantumParams:
    if n not in _QUANTUM_P:
        raise ValueError("sample family is defined for n in {0, 1, 2, 3}")
    return QuantumParams(n, _QUANTUM_GAMMA[n], _QUANTUM_P[n], _QUANTUM_Q[n])


def sample_weights() -> dict[int, Fraction]:
    return {2: Fraction(1)}


def quantum_sample_image(n: int = 2) -> PoissonParams:
    """The Poisson parameters induced from the quantum sample by the
    weight-1 character on the prime 2 (exponents of 2, read off directly)."""
    return group_character(quantum_sample(n), sample_weights()).induced


def apply_character(character: AdditiveCharacter, value: Fraction) -> Fraction:
    """The character at a nonzero rational, from that value's own prime
    factorization: the weighted sum of its prime exponents, which turns
    products into sums and does not see the sign.  The package reads the
    character only off the exponent rows of `group_analysis`."""
    weights = dict(character.weights)
    return sum((weights[p] * e for p, e in factor_rational(value)[1].items()), Fraction(0))


def random_params(n: int, rng: random.Random) -> PoissonParams:
    """Small-integer parameters with the required skew symmetry and p_i != q_i."""
    gamma = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = Fraction(rng.randint(-2, 2))
            gamma[i][j] = g
            gamma[j][i] = -g
    p = []
    q = []
    for _ in range(n):
        pi = rng.randint(-3, 3)
        qi = rng.randint(-3, 3)
        while qi == pi:
            qi = rng.randint(-3, 3)
        p.append(Fraction(pi))
        q.append(Fraction(qi))
    return PoissonParams(n, tuple(tuple(row) for row in gamma), tuple(p), tuple(q))


def truncated(params: PoissonParams, m: int) -> PoissonParams:
    """The parameters of the subalgebra on the first m pairs."""
    return PoissonParams(m, tuple(row[:m] for row in params.gamma[:m]), params.p[:m], params.q[:m])


# -- admissible sets and growth -------------------------------------------------


def admissible_by_biconditional(y, x, o) -> bool:
    """The paper's definition, pair by pair: y_i or x_i is in the set exactly
    when Omega_i and Omega_{i-1} both are, Omega_0 read as present."""
    prev = (True, *o[:-1])
    return all((yi or xi) == (oi and pi) for yi, xi, oi, pi in zip(y, x, o, prev))


def brute_force_admissible(n: int) -> list[AdmissibleSet]:
    """Filter of all 2^(3n) membership triples by the biconditional; the
    enumeration cross-check."""
    bools = [False, True]
    out = [
        AdmissibleSet(n, y, x, o)
        for y in product(bools, repeat=n)
        for x in product(bools, repeat=n)
        for o in product(bools, repeat=n)
        if admissible_by_biconditional(y, x, o)
    ]
    out.sort(key=lambda t: (t.omega_in, t.y_in, t.x_in))
    return out


def admissible_from_names(n: int, names: Sequence[str]) -> AdmissibleSet:
    """The set of the member names y_i, x_i and Omega_i, i in 1..n."""
    flags = {kind: [False] * n for kind in ("y", "x", "Omega")}
    for name in names:
        kind = name.rstrip("0123456789")
        flags[kind][int(name[len(kind):]) - 1] = True
    return AdmissibleSet(n, *(tuple(flags[kind]) for kind in ("y", "x", "Omega")))


def count_series(t_set: AdmissibleSet, max_degree: int) -> list[int]:
    """Cumulative counts of basis monomials of degree <= d, d = 0..max_degree.

    Basis monomials avoid divisibility by the avoidance monomials: killed
    variables do not occur, and a constrained pair never has both exponents
    positive.  Counting multiplies the per-variable generating series.
    """
    sets = derived_sets(t_set)
    killed = {m[0] for m in sets.avoid_monomials if len(m) == 1}
    pairs = sum(1 for m in sets.avoid_monomials if len(m) == 2)
    free = 2 * t_set.n - len(killed) - 2 * pairs

    def mul_series(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (max_degree + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j > max_degree:
                    break
                out[i + j] += ai * bj
        return out

    geometric = [1] * (max_degree + 1)
    pair_series = [1] + [2] * max_degree
    series = [1] + [0] * max_degree
    for _ in range(free):
        series = mul_series(series, geometric)
    for _ in range(pairs):
        series = mul_series(series, pair_series)
    series = mul_series(series, geometric)  # cumulative sum
    return series


def growth_check(t_set: AdmissibleSet, max_degree: int = 12) -> dict:
    """Assert the monomial count is a polynomial of degree 2n - length.

    Exact finite differences of the cumulative counts; the transient of the
    counting series ends at the number of constrained pairs, so differences
    are taken on the tail from there.
    """
    counts = count_series(t_set, max_degree)
    sets = derived_sets(t_set)
    pairs = sum(1 for m in sets.avoid_monomials if len(m) == 2)
    tail = counts[pairs:]
    expected = stratum_label(t_set)["gk_dim"]
    seq = list(tail)
    degree = None
    for k in range(len(seq)):
        if all(v == 0 for v in seq):
            degree = k - 1
            break
        if len(set(seq)) == 1:
            degree = k
            break
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return {
        "ok": degree == expected,
        "expected_degree": expected,
        "measured_degree": degree,
        "counts": counts,
    }


def nested_pairs_walk(params: PoissonParams, sets: Sequence[AdmissibleSet]) -> dict:
    """The eta congruence pair by pair: for every nested pair T inside T' of
    `sets`, the raw substitution maps of T and T' must differ by terms each
    with a positive exponent on some eta(T') generator.

    Images are taken in the Laurent ring with every Y inverted: X_i plus
    `correspondence.tail_image` (looked up at call time, so a patched tail
    reaches the walk) when y_i survives the set, the plain X_i when it does
    not.  Returns the pair count and the failing pairs (T, T').
    """
    n = params.n
    vs = VarSpec(torus_names(n), frozenset(f"Y{i}" for i in range(1, n + 1)))
    plain = [LaurentPoly.generator(vs, name) for name in vs.names]
    tailed = {
        i: plain[2 * i - 1] + correspondence.tail_image(params, i, LaurentPoly, vs)
        for i in range(2, n + 1)
    }
    images = [list(plain) for _ in sets]
    for row, t_set in zip(images, sets):
        for i in tailed:
            if not t_set.y_in[i - 1]:
                row[2 * i - 1] = tailed[i]
    members = [t.members() for t in sets]
    etas = [[vs.index(name) for name in derived_sets(t).eta] for t in sets]
    pairs, failing = 0, []
    for small, small_members, small_images in zip(sets, members, images):
        for large, large_members, large_images, eta_idx in zip(sets, members, images, etas):
            if not small_members <= large_members:
                continue
            pairs += 1
            # a shared image differs by zero; a term with no eta(T') factor is outside the ideal
            if any(
                a is not b and any(all(mono[k] <= 0 for k in eta_idx) for mono in (a - b).terms)
                for a, b in zip(small_images, large_images)
            ):
                failing.append((small, large))
    return {"pairs": pairs, "failing": failing}


# -- the defining relations of the quantized algebra ---------------------------

Relation = tuple[str, tuple[tuple[Fraction, tuple[str, ...]], ...]]


def defining_relations(params: QuantumParams) -> list[Relation]:
    """Every defining relation as a zero combination sum c * word.

    Words are tuples of generator names multiplied left to right; each
    relation's combination rewrites to zero in the algebra.  This is the
    presentation written out by hand, against which the PBW product is
    checked.
    """
    names = generator_names(params.n)
    one = Fraction(1)

    def relation(a: int, b: int, tail=()) -> Relation:
        # g_a g_b - S(a, b) g_b g_a - tail
        swapped = (-params.matrix[a][b], (names[b], names[a]))
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


# -- the jacobiator of three elements ------------------------------------------


def jacobiator(structure: PoissonStructure, f: LaurentPoly, g: LaurentPoly, h: LaurentPoly) -> LaurentPoly:
    """{{f, g}, h} + {{g, h}, f} + {{h, f}, g}, every bracket by the kernel;
    zero for all f, g, h exactly when the bracket is a Poisson bracket."""
    bracket = structure.bracket
    return bracket(bracket(f, g), h) + bracket(bracket(g, h), f) + bracket(bracket(h, f), g)


def jacobi_walk(structure: PoissonStructure) -> list[tuple[str, str, str, LaurentPoly]]:
    """What `jacobi_check` returns, by the rational walk over every generator
    triple: the three brackets of its table entries with the generators,
    each a `LaurentPoly`, summed."""
    names = structure.varspec.names
    gens = [structure.generator(name) for name in names]
    entry, bracket = structure.entry, structure.bracket
    found = []
    for i, j, k in combinations(range(len(names)), 3):
        residual = (
            bracket(entry(i, j), gens[k]) + bracket(entry(j, k), gens[i]) + bracket(entry(k, i), gens[j])
        )
        if not residual.is_zero():
            found.append((names[i], names[j], names[k], residual))
    return found


# -- derivation residuals on every generator pair ---------------------------------


def all_pairs_residuals(
    structure: PoissonStructure, deriv: PoissonDerivation, alpha: Optional[PoissonDerivation] = None
) -> list[tuple[str, str, LaurentPoly]]:
    """What `derivation_residuals` returns, by bracketing every generator
    pair, including those it skips as unable to fail."""
    gens = {name: structure.generator(name) for name in structure.varspec.names}
    found = []
    for a, b in combinations(gens, 2):
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


# -- the pair matrix by mirror words ---------------------------------------------


def mirror_word_matrix(params: PairParams) -> tuple[tuple[Fraction, ...], ...]:
    """`params.matrix` with a word evaluated for every ordered pair: the pair
    word for a < b, its inverse for a > b, the empty word for a = b."""
    size = range(2 * params.n)

    def word(a: int, b: int):
        if a > b:
            return tuple((atom, -e) for atom, e in pair_word(params, b, a))
        return pair_word(params, a, b) if a < b else ()

    return tuple(tuple(params._evaluate(word(a, b)) for b in size) for a in size)


# -- Poisson normality by exact division ---------------------------------------


def localized(structure: PoissonStructure, invert) -> PoissonStructure:
    """The same table over the same variables with `invert` made invertible;
    the bracket kernel evaluates the localized bracket on negative exponents."""
    vs = structure.varspec
    new_vs = VarSpec(vs.names, vs.invertible | frozenset(invert), vs.killed)
    table = {key: entry.map_to(new_vs) for key, entry in structure.table.items()}
    return PoissonStructure(new_vs, table)


def monomial_divides(divisor: tuple[int, ...], mono: tuple[int, ...], varspec: VarSpec) -> bool:
    """True when mono/divisor is a valid monomial of the ring."""
    for i, (d, m) in enumerate(zip(divisor, mono)):
        if m - d < 0 and i not in varspec.invertible_indices:
            return False
    return True


def divide_exact(f: LaurentPoly, z: LaurentPoly) -> Optional[LaurentPoly]:
    """Exact quotient f/z, or None when z does not divide f.

    Greedy leading-term division; correct for exact division because the
    ring is a domain and the term order is multiplicative.
    """
    if z.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_owner(z)
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


def is_poisson_normal(structure: PoissonStructure, z: LaurentPoly) -> Optional[dict[str, LaurentPoly]]:
    """Eigen-map g -> gamma(g) with {g, z} = gamma(g) z, or None.

    Detection is by exact polynomial division of {g, z} by z for every
    generator g; z must be nonzero.
    """
    if z.is_zero():
        raise ValueError("z must be nonzero")
    out = {}
    for name in structure.varspec.names:
        quotient = divide_exact(structure.bracket(structure.generator(name), z), z)
        if quotient is None:
            return None
        out[name] = quotient
    return out


def double_extension_normal_element(spec: DoubleExtensionSpec, result: PoissonStructure) -> LaurentPoly:
    """The element (c+d) y x + u inside the extension; requires d."""
    if spec.d is None:
        raise ValueError("the extension data does not carry the eigenvalue d")
    vs = result.varspec
    yx = LaurentPoly.monomial(vs, {spec.y_name: 1, spec.x_name: 1}, spec.c + spec.d)
    return yx + spec.u.map_to(vs)


# -- random suite inputs and reductions by rebuild ---------------------------
#
# The suites' inputs as first written with randint and randrange, and the
# reductions that rebuild the polynomial with LaurentPoly arithmetic at every
# step, with `choice` or `randrange` for the random ones.


def draw_below(bits, n: int) -> int:
    """A uniform draw from range(n), where `bits` is a generator's
    `getrandbits`: the loop of `random.Random._randbelow` on CPython 3.10 to
    3.13, k = n.bit_length() fresh bits, drawn again while they reach n.
    So `seq[draw_below(rng.getrandbits, len(seq))]` makes exactly the draws
    of `rng.choice(seq)` and leaves the same state.  The samplers of `cli`
    and the random step of `exact_poly.reduce_packed` run this loop inline;
    this is their reference.  n = 0 raises IndexError, as `choice` of an
    empty sequence does."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        if n < 1:
            raise IndexError("Cannot choose from an empty sequence")
        r = bits(k)
    return r


def randint_poly(vs, rng):
    """The confluence and jacobi inputs as first written with randint and
    randrange, kept as the reference for `cli._random_terms`."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * len(vs)
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(len(vs))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-4, 4))
    return LaurentPoly(vs, terms)


def randint_monomial(n, rng):
    """The associativity inputs as first written, the reference for
    `cli._random_monomial`."""
    width = 2 * n
    mono = [0] * width
    for _ in range(rng.randint(0, 4)):
        mono[rng.randrange(width)] += 1
    return NCElement(n, {tuple(mono): Fraction(rng.randint(1, 4))})


# The two samplers as they were written before they shared one monomial
# draw, each with its own loop; unlike the randint spellings they also run
# at width 0, where the degree is drawn and no position.


def two_loop_terms(width, rng):
    """The reference for `cli._random_terms` at any width."""
    bits = rng.getrandbits
    terms = {}
    for _ in range(range(1, 4)[draw_below(bits, 3)]):
        mono = [0] * width
        degree = range(0, 4)[draw_below(bits, 4)]
        for _ in range(degree if width else 0):
            mono[draw_below(bits, width)] += 1
        terms[tuple(mono)] = Fraction(range(-4, 5)[draw_below(bits, 9)])
    return {mono: c for mono, c in terms.items() if c}


def two_loop_monomial(n, rng):
    """The reference for `cli._random_monomial` at any n."""
    bits = rng.getrandbits
    width = 2 * n
    mono = [0] * width
    degree = range(0, 5)[draw_below(bits, 5)]
    for _ in range(degree if width else 0):
        mono[draw_below(bits, width)] += 1
    return NCElement(n, {tuple(mono): Fraction(range(1, 5)[draw_below(bits, 4)])})


def rebuild_reduce_poly(f, system, max_steps=10**6, rng=None):
    """Reference reduction: rebuild the polynomial with LaurentPoly arithmetic
    at every step, testing divisibility with `monomial_divides`."""
    current = f
    steps = 0
    while True:
        candidates = []
        for mono in current.terms:
            for k, rule in enumerate(system.rules):
                if monomial_divides(rule.lead, mono, system.varspec):
                    candidates.append((mono, k))
        if not candidates:
            return current
        if rng is None:
            mono, k = max(candidates, key=lambda c: (monomial_key(c[0]), -c[1]))
        else:
            mono, k = candidates[rng.randrange(len(candidates))]
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(max_steps, "rewrite steps")
        rule = system.rules[k]
        coeff = current.terms[mono]
        cofactor = LaurentPoly(
            system.varspec, {tuple(a - b for a, b in zip(mono, rule.lead)): coeff}
        )
        current = current - cofactor * LaurentPoly(
            system.varspec, {rule.lead: 1}
        ) + cofactor * rule.replacement


def choice_reduce(f, system, rng):
    """A random reduction written with `rng.choice` and LaurentPoly
    arithmetic: candidates are (term, rule), terms in their current order
    and rules in system order."""
    while True:
        candidates = [
            (mono, k)
            for mono in f.terms
            for k, rule in enumerate(system.rules)
            if monomial_divides(rule.lead, mono, system.varspec)
        ]
        if not candidates:
            return f
        mono, k = rng.choice(candidates)
        rule = system.rules[k]
        cofactor = LaurentPoly(
            system.varspec, {tuple(a - b for a, b in zip(mono, rule.lead)): f.terms[mono]}
        )
        f = f - cofactor * LaurentPoly(system.varspec, {rule.lead: 1}) + cofactor * rule.replacement


def packed_reduce(terms, system, max_steps=10**6, bits=None):
    """A term map's normal form by the packed loop: the map packed in the
    code of its total degree, `exact_poly.reduce_packed` with `bits` as
    there, the result unpacked in its order, and the input itself when no
    rule applies."""
    table = system.rewrites(monomial_code(len(system.varspec), max(map(sum, terms), default=0)))
    packed = table.code.pack_terms(terms)
    out = reduce_packed(packed, table, max_steps, bits)
    return terms if out is packed else table.code.unpack_terms(out)


def tuple_reduce_terms(terms, system, max_steps=10**6, bits=None):
    """The rewrite loop as it ran on exponent-vector keys before monomials
    were packed into ints, the reference for the packed loop
    `exact_poly.reduce_packed`: the rules that apply to a term found by
    `monomial_divides`, the largest reducible term by `monomial_key`, the
    random candidates (term, rule) in term order x rule order drawn with
    `draw_below`, and each target m - lead + u built as a tuple.  The input
    itself is returned when no rule applies."""
    rules, vs = system.rules, system.varspec

    def matches(m):
        return [k for k, rule in enumerate(rules) if monomial_divides(rule.lead, m, vs)]

    steps = 0
    while True:
        if bits is None:
            mono = None
            for m in terms:
                if matches(m) and (mono is None or monomial_key(m) > monomial_key(mono)):
                    mono = m
            if mono is None:
                break
            k = matches(mono)[0]
        else:
            candidates = [(m, k) for m in terms for k in matches(m)]
            if not candidates:
                break
            mono, k = candidates[draw_below(bits, len(candidates))]
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(max_steps, "rewrite steps")
        if steps == 1:
            terms = dict(terms)
        coeff = terms.pop(mono)
        lead = rules[k].lead
        for u, c in rules[k].replacement.terms.items():
            target = tuple(e - d + f for e, d, f in zip(mono, lead, u))
            s = terms.get(target, 0) + coeff * c
            if s:
                terms[target] = s
            else:
                terms.pop(target, None)
    return terms


def unpacked_entry(table, system, x):
    """The entry of `table` (a `RewriteTable` of `system`) at the packed
    monomial x, as the table computed it before its lead test ran on the
    packed int: x unpacked, and a rule listed when its lead divides it
    (`monomial_divides`), its targets x plus each packed shift u - lead."""
    code = table.code
    mono = code.unpack(x)
    return tuple(
        tuple((x + code.shift(map(sub, u, rule.lead)), d) for u, d in rule.replacement.terms.items())
        for rule in system.rules
        if monomial_divides(rule.lead, mono, system.varspec)
    )


# -- stratum reports by element objects -----------------------------------------
#
# The stratum report as first written: every pushed monomial, tail image and
# expected tail an element object, and the unit check a comparison of sets of
# elements.


def object_apply_map(gmap, f):
    """Push a source element through the generator images, one element per
    letter product, scaled and added to an element accumulator."""
    names = type(f)._names(f.owner)
    acc = gmap.one.scale(0)
    for mono, coeff in f.terms.items():
        letters = [gmap.images[name] for name, e in zip(names, mono) for _ in range(e)]
        acc = acc + (reduce(mul, letters) if letters else gmap.one).scale(coeff)
    return acc


def object_stratum_report(params, gmap, value, operate, label) -> dict:
    """`correspondence._stratum_report` on element objects: the same
    checks, failures and texts, the expected tail image zero where the
    ring of the map kills Y_i or X_i."""
    t_set, ring = gmap.t_set, gmap.ring
    cls, owner = type(gmap.one), gmap.one.owner

    def text(f) -> str:
        return format_terms(f.terms, cls._names(owner))

    names = generator_names(params.n)
    failures = []
    for a, b in combinations(range(len(names)), 2):
        lhs = object_apply_map(gmap, value(a, b))
        rhs = operate(gmap.images[names[a]], gmap.images[names[b]])
        if lhs != rhs:
            failures.append(f"{label.format(names[a], names[b])}: residual {text(lhs - rhs)}")
    images, tail = dict(gmap.images), gmap.one.scale(0)
    for i in range(1, params.n + 1):
        coeff = tail_coefficient(params, i)
        tail = images[f"Omega{i}"] = tail + (images[f"y{i}"] * images[f"x{i}"]).scale(coeff)
        expected = cls.monomial(owner, {f"Y{i}": 1, f"X{i}": 1}, coeff)
        if {f"Y{i}", f"X{i}"} & ring.killed:
            expected = expected.scale(0)
        if tail != expected:
            failures.append(f"tail element {i} image: residual {text(tail - expected)}")
    for name in t_set.member_names():
        if not images[name].is_zero():
            failures.append(f"member {name} does not map to zero: residual {text(images[name])}")
    inverted = ring.invertible
    units = {gmap.images["y" + name[1:]] for name in inverted}
    if units != {cls.generator(owner, name) for name in inverted}:
        failures.append("surviving y images do not generate the inverted set")
    return {"ok": not failures, "failures": failures}


# -- stratum maps built in each stratum's own ring -----------------------------
#
# The generator maps as first written: every image formed again for each
# stratum, in the ring of T, where a killed generator is zero; and the maps
# that restricted the empty set's images into a target algebra built for
# each stratum on its own ring.


def stratum_varspec(t_set: AdmissibleSet) -> VarSpec:
    """The ring of T as first written, the reference for
    `AdmissibleSet.ring`: the torus generators with eta(T) killed and the
    Y's of the surviving y's inverted."""
    invert = frozenset(f"Y{i}" for i, inside in enumerate(t_set.y_in, 1) if not inside)
    return VarSpec(torus_names(t_set.n), invert, frozenset(derived_sets(t_set).eta))


def ring_poisson_target(params: PoissonParams, vs: VarSpec):
    """The log-canonical algebra on `vs`, less the entries on killed
    generators, and its unit."""
    names = vs.names
    live = [a for a in range(len(names)) if a not in vs.killed_indices]
    table = {
        (a, b): LaurentPoly.monomial(vs, {names[a]: 1, names[b]: 1}, params.matrix[a][b])
        for a, b in combinations(live, 2)
        if params.matrix[a][b]
    }
    return PoissonStructure(vs, table), LaurentPoly.one(vs)


def ring_quantum_target(params: QuantumParams, vs: VarSpec):
    """The quantum torus on `vs` and its unit."""
    torus = QuantumTorus(params, vs)
    return torus, QTorusElement.one(torus)


def ring_tail_image(params: PairParams, i: int, cls, owner):
    """-w_i Y_i^-1 Y_{i-1} X_{i-1} over `owner`, with Y_{i-1} X_{i-1} formed
    first and returned when it is zero, the one case in which `owner` may
    have killed Y_i; w_i is read from `correspondence` at call time, so a
    patched coefficient reaches it."""
    prev = cls.generator(owner, f"Y{i - 1}") * cls.generator(owner, f"X{i - 1}")
    if prev.is_zero():
        return prev
    return (cls.generator(owner, f"Y{i}") ** (-1) * prev).scale(-correspondence.hat_coefficient(params, i))


def ring_stratum_map(params: PairParams, t_set: AdmissibleSet, build, tail):
    """The generator map of T with its images formed in the ring of T:
    `build(params, vs)` makes the target and its unit on
    `stratum_varspec(t_set)`, y_i and x_1 map to their capitals, and x_i,
    i >= 2, to X_i plus `tail(params, i, cls, owner)`."""
    vs = stratum_varspec(t_set)
    target, one = build(params, vs)
    cls, owner = type(one), one.owner
    images = {name: cls.generator(owner, name.upper()) for name in generator_names(params.n)}
    for i in range(2, params.n + 1):
        images[f"x{i}"] = images[f"x{i}"] + tail(params, i, cls, owner)
    return correspondence.GeneratorMap(t_set, vs, images, target, one)


def own_algebra_map(params: PairParams, t_set: AdmissibleSet, stratum_map, build):
    """The generator map of T in an algebra of its own, as the stratum maps
    were first restricted: `build(params, vs)` makes the target and its
    unit on `stratum_varspec(t_set)`, and each image of the empty set's map
    (`stratum_map` of the empty set) keeps the terms that ring admits,
    wrapped over that target's owner."""
    vs = stratum_varspec(t_set)
    target, one = build(params, vs)
    cls, owner = type(one), one.owner
    empty = stratum_map(params, admissible_from_names(t_set.n, []))
    images = {
        name: cls._trusted(owner, {m: c for m, c in image.terms.items() if vs.admit(m)})
        for name, image in empty.images.items()
    }
    return correspondence.GeneratorMap(t_set, vs, images, target, one)


# -- expressions ---------------------------------------------------------------

_MINUS_ONE = Num(Fraction(-1))


def ast_to_text(ast: Expr, rank: int = 0) -> str:
    """Canonical text of a tree, parenthesized only where the grammar needs
    it, so parsing it back gives the same tree and nests no deeper than any
    text the tree was parsed from.  `rank` is what the position admits
    unparenthesized: 0 anything (a whole expression or bracket argument),
    1 a leading minus (a sum's first term), 2 a product (a term), 3 a power
    (a factor), 4 a number, variable or bracket (a power's base)."""
    if isinstance(ast, Sum):
        own = 0
        text = ast_to_text(ast.first, 1) + "".join(f" {op} {ast_to_text(term, 2)}" for op, term in ast.rest)
    elif isinstance(ast, Product) and len(ast.factors) == 2 and ast.factors[0] == _MINUS_ONE:
        own, text = 1, f"-{ast_to_text(ast.factors[1], 2)}"
    elif isinstance(ast, Product):
        own, text = 2, " * ".join(ast_to_text(factor, 3) for factor in ast.factors)
    elif isinstance(ast, Power):
        own, text = 3, ast_to_text(ast.base, 4) + "".join(f"^{e}" for e in ast.exponents)
    elif isinstance(ast, Bracket):
        own, text = 4, f"{{{ast_to_text(ast.left)}, {ast_to_text(ast.right)}}}"
    elif isinstance(ast, Num):
        own, text = 4, str(ast.value)
    elif isinstance(ast, Var):
        own, text = 4, ast.name
    else:
        raise TypeError(f"not an expression node: {ast!r}")
    return f"({text})" if own < rank else text
