"""Stratum-by-stratum maps between the Poisson and quantized sides.

For an admissible set T, both sides map the quotient-localization of the
source algebra into the attached log-canonical algebra (Poisson side) or
quantum torus (quantized side), with the target's generators named by eta(T)
killed and the surviving Y's inverted.  That ring is described once, by
`AdmissibleSet.ring`, shared by both sides.  Every stratum map is one change
of variables, the map of the empty set (whose ring inverts every Y and kills
nothing), followed by killing eta(T), as in Cauchon's deleting derivations:

    y_i -> Y_i,   x_1 -> X_1,   x_i -> X_i - w_i Y_i^-1 Y_{i-1} X_{i-1} (i >= 2)

with w_i = (q_i - p_i)^-1 (q_{i-1} - p_{i-1}).  It is built once per
parameter set and side, with its target algebra, and a stratum is its ring
plus the empty set's images restricted to the terms that ring admits: a
term on a killed generator is zero.  A Y_i^-1 term survives only where y_i
is not in T, since y_i in T puts Omega_{i-1} in T, which kills Y_{i-1} or
X_{i-1}.  Each stratum is checked in the empty set's algebra: the admitted
monomials are closed under the torus product and the log-canonical bracket,
as a twist and a bracket coefficient read the parameters alone, not the
ring.  The report reads the ring of T for admission, units and names.
Verification is at generator level, one pair a < b at a time on both sides:
the image of {g_a, g_b} must be the target bracket of the images, and the
image of the PBW normal form of g_b g_a the torus product of the images in
that order; over all pairs those normal forms are the defining relations.
Both maps must also send the tail elements to (q_i - p_i) Y_i X_i and the
members of T to zero; both read those images off the generator images, and
build no source element per stratum.

The additive character of the multiplicative parameter group (prime
exponents paired against user weights) transports quantum parameters to
Poisson ones; the stratification report pairs the two verdicts per stratum
and grades the whole correspondence by the character's injectivity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Mapping, Optional, Sequence

from .admissible import AdmissibleSet, stratum_label
from .algebra_an import (
    PairParams,
    PoissonParams,
    generator_names,
    log_canonical_table,
    tail_coefficient,
)
from .algebra_kn import QTorusElement, QuantumParams, QuantumTorus, torus_names
from .exact_poly import (
    GroupAnalysis,
    LaurentPoly,
    TermMap,
    VarSpec,
    accumulate,
    format_terms,
    group_analysis,
    record,
)
from .poisson_core import PoissonStructure


def hat_coefficient(params: PairParams, i: int) -> Fraction:
    """(q_i - p_i)^-1 (q_{i-1} - p_{i-1}) for i >= 2."""
    return tail_coefficient(params, i - 1) / tail_coefficient(params, i)


@record
class GeneratorMap:
    """The stratum of T as its ring and the images of the source generators,
    each holding only terms that ring admits, with the algebra they are
    checked in and its unit element, whose class and owner every image
    shares.  Every stratum of one parameter set and side shares the empty
    set's target and unit."""

    t_set: AdmissibleSet
    ring: VarSpec
    images: Mapping[str, TermMap]
    target: object  # PoissonStructure or QuantumTorus
    one: TermMap  # LaurentPoly or QTorusElement


def tail_image(params: PairParams, i: int, cls, owner) -> TermMap:
    """-w_i Y_i^-1 Y_{i-1} X_{i-1}, the tail part of the image of x_i, as a
    `cls` term map over `owner`: the product taken left to right, which is
    the plain Laurent monomial on the Poisson side and picks up the twist on
    the torus.  `owner` inverts Y_i."""
    prev = cls.generator(owner, f"Y{i - 1}") * cls.generator(owner, f"X{i - 1}")
    return (cls.generator(owner, f"Y{i}") ** (-1) * prev).scale(-hat_coefficient(params, i))


def _empty_set_map(params: PairParams, build) -> GeneratorMap:
    """The map of the empty set, whose ring inverts every Y and kills
    nothing, with the target that `build` makes on that ring: built on the
    first call and kept in `params.empty_set_maps`."""
    if build not in params.empty_set_maps:
        names = torus_names(params.n)
        ring = VarSpec(names, frozenset(names[::2]))
        target, one = build(params, ring)
        cls, owner = type(one), one.owner
        images = {name: cls.generator(owner, name.upper()) for name in generator_names(params.n)}
        for i in range(2, params.n + 1):
            images[f"x{i}"] = images[f"x{i}"] + tail_image(params, i, cls, owner)
        empty = AdmissibleSet(params.n, *[(False,) * params.n] * 3)
        params.empty_set_maps[build] = GeneratorMap(empty, ring, images, target, one)
    return params.empty_set_maps[build]


def _stratum_map(params: PairParams, t_set: AdmissibleSet, build) -> GeneratorMap:
    """The generator map of T: the ring of T, and each image of the empty
    set's map, whose target `build` makes, kept to the terms that ring
    admits; the images keep the empty set's owner, and the map shares its
    target and unit."""
    if t_set.n != params.n:
        raise ValueError("admissible set and parameters disagree on n")
    empty, ring = _empty_set_map(params, build), t_set.ring
    cls, owner = type(empty.one), empty.one.owner
    restrict = lambda image: cls._trusted(owner, {m: c for m, c in image.terms.items() if ring.admit(m)})
    images = {name: restrict(image) for name, image in empty.images.items()}
    return GeneratorMap(t_set, ring, images, empty.target, empty.one)


# -- Poisson side ------------------------------------------------------------


def _poisson_target(params: PoissonParams, vs: VarSpec):
    """The log-canonical algebra on `vs` and its unit."""
    return PoissonStructure(vs, log_canonical_table(params, vs)), LaurentPoly.one(vs)


def poisson_stratum_map(params: PoissonParams, t_set: AdmissibleSet) -> GeneratorMap:
    """The map into the log-canonical algebra on the stratum ring."""
    return _stratum_map(params, t_set, _poisson_target)


def apply_map(gmap: GeneratorMap, f: TermMap) -> TermMap:
    """Push a source element, a polynomial or a normal form, through the
    generator images: the images of each standard monomial's letters are
    multiplied left to right, the unit standing for the empty word, and the
    product's terms are added into one term map, times the coefficient."""
    names = type(f)._names(f.owner)
    acc = {}
    for mono, coeff in f.terms.items():
        letters = [gmap.images[name] for name, e in zip(names, mono) for _ in range(e)]
        accumulate(acc, (reduce(mul, letters) if letters else gmap.one).terms, coeff)
    return gmap.one._trusted(gmap.one.owner, acc)


def _stratum_report(params, gmap: GeneratorMap, value, operate, label) -> dict:
    """Verify a stratum map by the one set of checks of both sides.

    For each generator pair a < b, the residual is the image of `value(a, b)`
    minus `operate` on the images of g_a and g_b; a nonzero one fails under
    `label`, formatted with the names of g_a and g_b.  Each tail element
    must map to (q_i - p_i) Y_i X_i, zero where the ring kills Y_i or X_i,
    each member of T to zero, and the surviving y's onto the inverted
    generators of the ring.  Omega_i's image is Omega_{i-1}'s plus
    (q_i - p_i) times the product of the images of y_i and x_i: `apply_map`
    of the tail element, whose terms are the monomials y_k x_k on both
    sides, term by term.  The checks read term maps over the owner of
    `gmap.one`, the empty set's algebra, in which the ring's monomials are
    closed under both products; the ring of T is `gmap.ring`, which the
    admission, the unit check and the residual texts read.  An element is
    built only for the text of a failing pair.  Returns {"ok", "failures"},
    each failure naming its residual, formatted.
    """
    t_set, vs = gmap.t_set, gmap.ring

    def text(terms) -> str:
        return format_terms(terms, vs.names)

    names = generator_names(params.n)
    failures = []
    for a, b in combinations(range(len(names)), 2):
        lhs = apply_map(gmap, value(a, b))
        rhs = operate(gmap.images[names[a]], gmap.images[names[b]])
        if lhs.terms != rhs.terms:
            failures.append(f"{label.format(names[a], names[b])}: residual {text((lhs - rhs).terms)}")
    images, tail = {name: image.terms for name, image in gmap.images.items()}, {}
    for i, coeff in enumerate(params.tail_coefficients, 1):
        accumulate(tail, (gmap.images[f"y{i}"] * gmap.images[f"x{i}"]).terms, coeff)
        images[f"Omega{i}"] = dict(tail)
        mono = tuple(int(name in (f"Y{i}", f"X{i}")) for name in vs.names)
        expected = {mono: coeff} if vs.admit(mono) else {}
        if tail != expected:
            failures.append(f"tail element {i} image: residual {text(accumulate(dict(tail), expected, -1))}")
    for name in t_set.member_names():
        if images[name]:
            failures.append(f"member {name} does not map to zero: residual {text(images[name])}")
    # The images form the set of the generators exactly when each of these
    # distinct generators, each the term map {unit vector: 1}, is among as
    # many images.
    units = [images["y" + name[1:]] for name in vs.invertible]
    if any({tuple(int(g == name) for g in vs.names): 1} not in units for name in vs.invertible):
        failures.append("surviving y images do not generate the inverted set")
    return {"ok": not failures, "failures": failures}


def verify_poisson_stratum_map(params: PoissonParams, t_set: AdmissibleSet) -> dict:
    """Generator-level verification that the stratum map of T from A_n is
    Poisson: the report of `_stratum_report` with the pair residual
    {g_a, g_b} minus the target bracket of the images.
    """
    gmap = poisson_stratum_map(params, t_set)
    return _stratum_report(params, gmap, params.an.entry, gmap.target.bracket, "bracket pair ({}, {})")


def nested_congruence_check(params: PoissonParams, etas: Mapping[AdmissibleSet, Sequence[str]]) -> dict:
    """The raw substitution maps of every nested pair T inside T' of the
    admissible sets of n, which `etas` maps to their eta, agree modulo
    eta(T'), by the containment lemma of deleting derivations (Cauchon;
    Goodearl-Launois for Poisson algebras).  In the empty set's ring, the
    raw image of x_i, i >= 2, is the empty set's image X_i plus a tail when
    y_i survives the set, and X_i when not.  So the images of T inside T'
    differ by the tail exactly at the x_i with y_i in T' but not in T; and
    as the empty set lies inside every T', all pairs pass exactly when, for
    each T' and y_i in it, every tail term has a positive exponent on some
    eta(T') generator.  A failure names T', x_i and the tail terms outside.
    """
    empty = _empty_set_map(params, _poisson_target)
    vs = empty.ring
    tails = {i: empty.images[f"x{i}"] - LaurentPoly.generator(vs, f"X{i}") for i in range(2, params.n + 1)}
    failures = []
    for t_set, eta in etas.items():
        eta_idx = [vs.index(name) for name in eta]
        for i, tail in tails.items():
            if not t_set.y_in[i - 1]:
                continue
            outside = {m: c for m, c in tail.terms.items() if all(m[k] <= 0 for k in eta_idx)}
            if outside:
                text = format_terms(outside, vs.names)
                failures.append(f"{list(t_set.member_names())}: x{i} residual {text}")
    return {"ok": not failures, "failures": failures}


# -- quantized side -----------------------------------------------------------


def _quantum_target(params: QuantumParams, vs: VarSpec):
    torus = QuantumTorus(params, vs)
    return torus, QTorusElement.one(torus)


def quantum_stratum_map(params: QuantumParams, t_set: AdmissibleSet) -> GeneratorMap:
    """The map into the quantum torus on the stratum ring."""
    return _stratum_map(params, t_set, _quantum_target)


def verify_quantum_stratum_map(params: QuantumParams, t_set: AdmissibleSet) -> dict:
    """Generator-level verification that the stratum map of T is an algebra
    map: the report of `_stratum_report` with the pair residual g_b g_a,
    in normal form (`QuantumParams.swapped_products`), minus the torus
    product of the images in that order.
    """
    gmap = quantum_stratum_map(params, t_set)
    value = lambda a, b: params.swapped_products[a, b]
    return _stratum_report(params, gmap, value, lambda u, v: v * u, "product pair ({1}, {0})")


# -- the additive character of the parameter group ---------------------------


class GroupContainsMinusOne(ValueError):
    """The multiplicative parameter group contains -1, so the hypothesis of
    the quotient-map construction fails."""

    def __init__(self, analysis: GroupAnalysis):
        super().__init__("the parameter group contains -1")
        self.analysis = analysis


@record
class AdditiveCharacter:
    """An additive character of the parameter group of `params` and the
    Poisson parameters it induces, the images of gamma, p and q."""

    weights: tuple[tuple[int, Fraction], ...]
    params: QuantumParams
    injective_on_group: bool
    induced: PoissonParams


def _character_value(weights: Mapping[int, Fraction], exps: Mapping[int, int]) -> Fraction:
    # The character factors through the prime-exponent lattice; the sign is
    # invisible to it (hence never injective on a group containing -1).
    missing = set(exps) - set(weights)
    if missing:
        raise ValueError(f"no weight supplied for primes {sorted(missing)}")
    return sum((weights[p] * e for p, e in exps.items()), Fraction(0))


def parameter_group_generators(params: QuantumParams) -> list[Fraction]:
    gens = list(params.p) + list(params.q)
    for i in range(params.n):
        for j in range(i + 1, params.n):
            gens.append(params.gamma[i][j])
    return gens


def _single_prime_weights(analysis: GroupAnalysis) -> dict[int, Fraction]:
    """Weight 1 on the occurring prime; none when no prime occurs, as the
    group is then trivial."""
    if len(analysis.primes) > 1:
        raise ValueError(
            "parameters involve several primes; supply explicit character weights"
        )
    return {p: Fraction(1) for p in analysis.primes}


def group_character(
    params: QuantumParams, weights: Optional[Mapping[int, Fraction]] = None
) -> AdditiveCharacter:
    """Build the additive character from per-prime weights.

    The character sends a positive rational to the weighted sum of its prime
    exponents.  The parameter group is factored once, by `group_analysis` of
    its generators p, q and the upper triangle of gamma; every image is a
    linear reading of that analysis's exponent rows.  The lower triangle of
    gamma is the negated upper one and the diagonal is zero, since gamma is
    multiplicatively skew-symmetric with unit diagonal.  Without `weights`,
    the single occurring prime gets weight 1; parameters involving several
    primes then raise ValueError.

    The character can be injective on the parameter group only when the
    exponent lattice has rank at most one (finitely generated subgroups of
    the rationals are cyclic); rank-one injectivity additionally needs a
    nonzero image of a nonzero row.  A parameter group containing -1 is
    rejected.
    """
    analysis = group_analysis(parameter_group_generators(params))
    if weights is None:
        weights = _single_prime_weights(analysis)
    if analysis.contains_minus_one:
        raise GroupContainsMinusOne(analysis)
    weights = {int(p): Fraction(w) for p, w in weights.items()}

    def image(k: int) -> Fraction:
        row = analysis.exponents[k]
        return _character_value(weights, {p: e for p, e in zip(analysis.primes, row) if e})

    n = params.n
    image_p = tuple(image(k) for k in range(n))
    image_q = tuple(image(n + k) for k in range(n))
    for i in range(n):
        if image_p[i] == image_q[i]:
            raise ValueError(
                f"character collapses p_{i + 1} and q_{i + 1}; not usable"
            )
    gamma = [[Fraction(0)] * n for _ in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(upper, start=2 * n):
        gamma[i][j] = image(k)
        gamma[j][i] = -gamma[i][j]
    if analysis.lattice_rank == 1:
        first = next(k for k, row in enumerate(analysis.exponents) if any(row))
        injective = image(first) != 0
    else:
        injective = analysis.lattice_rank == 0
    return AdditiveCharacter(
        weights=tuple(sorted(weights.items())),
        params=params,
        injective_on_group=injective,
        induced=PoissonParams(n, gamma, image_p, image_q),
    )


def stratification_report(character: AdditiveCharacter, sets: Sequence[AdmissibleSet]) -> dict:
    """Pair the two verifications of the stratum of each of `sets`: the
    quantum side under the character's parameters, the Poisson side under
    the ones it induces.

    The report is a data artifact: per admissible set it records the
    `stratum_label` and the two verification verdicts, with the failures of
    a side that failed; the grade is homeomorphism-level exactly when the
    character is injective on the parameter group.
    """
    params, pparams = character.params, character.induced
    strata = []
    for t_set in sets:
        psi = verify_poisson_stratum_map(pparams, t_set)
        ups = verify_quantum_stratum_map(params, t_set)
        entry = {**stratum_label(t_set), "psi_ok": psi["ok"], "upsilon_ok": ups["ok"]}
        for side, report in (("psi", psi), ("upsilon", ups)):
            if not report["ok"]:
                entry[f"{side}_failures"] = report["failures"]
        strata.append(entry)

    def text(side: PairParams) -> dict:
        gamma = [[str(v) for v in row] for row in side.gamma]
        return {"gamma": gamma, "p": [str(v) for v in side.p], "q": [str(v) for v in side.q]}

    return {
        "n": params.n,
        "params": text(params),
        "phi": {
            "weights": {str(p): str(w) for p, w in character.weights},
            **text(pparams),
            "injective_on_group": character.injective_on_group,
            # group_character raises GroupContainsMinusOne before it builds
            # a character, so a reported group never contains -1
            "minus_one_in_group": False,
        },
        "strata": strata,
        "grade": "homeomorphism" if character.injective_on_group else "quotient",
    }
