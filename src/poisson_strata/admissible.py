"""Admissible-set combinatorics and the stratification they index.

An admissible set is a subset of {y_i, x_i, Omega_i : i = 1..n} closed under
the biconditional: a generator of the i-th pair belongs to the set exactly
when both the i-th and (i-1)-th tail elements do (the i = 1 case reads
against Omega_1 alone).  That rule is a two-state automaton over the pairs,
written once as the level-step table `LEVEL_STEPS`: validation checks each
pair's flags against it, enumeration walks it, and the counts of the sets
and of their nested pairs count its walks without building them.  These
sets index the strata of the Poisson prime spectrum; this module also
computes their derived data (the divisibility-avoidance monomials of the
quotient basis and the killed target generators eta(T), one of each per
unit of length) and the ring of the stratum maps, checks that eta is
injective, labels each stratum, and lays the run's sets out as a poset.
"""

from __future__ import annotations

import functools
from itertools import chain, compress
from operator import le
from typing import Hashable, Mapping, Sequence

from .exact_poly import VarSpec, record


# The flags (y_i, x_i, Omega_i) that pair i may take, keyed by the tail flag
# Omega_{i-1} of the pair before it, which reads as present before pair 1: a
# pair generator is in exactly when Omega_i and Omega_{i-1} both are.
LEVEL_STEPS: dict[bool, tuple[tuple[bool, bool, bool], ...]] = {
    False: ((False, False, False), (False, False, True)),
    True: ((False, False, False), (True, False, True), (False, True, True), (True, True, True)),
}


@record
class AdmissibleSet:
    """Membership triple over indices 1..n."""

    n: int
    y_in: tuple[bool, ...]
    x_in: tuple[bool, ...]
    omega_in: tuple[bool, ...]

    def __post_init__(self):
        if not (len(self.y_in) == len(self.x_in) == len(self.omega_in) == self.n):
            raise ValueError("membership vectors must have length n")
        if not _satisfies_conditions(self.y_in, self.x_in, self.omega_in):
            raise ValueError(f"{self.member_names()} is not admissible")

    def member_names(self) -> tuple[str, ...]:
        flags = chain.from_iterable(zip(self.y_in, self.x_in, self.omega_in))
        return tuple(compress(_candidate_names(self.n), flags))

    def members(self) -> frozenset[str]:
        return frozenset(self.member_names())

    @functools.cached_property
    def ring(self) -> VarSpec:
        """The ring of both stratum maps of T, derived on its first read:
        the torus generators Y1, X1, ..., Yn, Xn with eta(T) killed and
        the Y's of the y's outside T inverted."""
        names = generator_names(self.n, "Y", "X")
        invert = frozenset(compress(names[::2], [not inside for inside in self.y_in]))
        return VarSpec(names, invert, frozenset(derived_sets(self).eta))


def generator_names(n: int, y: str = "y", x: str = "x") -> tuple[str, ...]:
    """y1, x1, ..., yn, xn: the generator order of every algebra here."""
    return tuple(f"{v}{i}" for i in range(1, n + 1) for v in (y, x))


@functools.cache
def _candidate_names(n: int) -> tuple[str, ...]:
    """y1, x1, Omega1, ..., yn, xn, Omegan: every possible member, in the
    order of `AdmissibleSet.member_names`."""
    return tuple(f"{v}{i}" for i in range(1, n + 1) for v in ("y", "x", "Omega"))


# the table as (Omega_{i-1}, y_i, x_i, Omega_i) rows, one membership test per pair
_STEP_ROWS = frozenset((prev, *step) for prev, steps in LEVEL_STEPS.items() for step in steps)


def _satisfies_conditions(y, x, o) -> bool:
    return _STEP_ROWS.issuperset(zip((True, *o), y, x, o))


def enumerate_admissible(n: int) -> list[AdmissibleSet]:
    """All admissible sets, in the canonical (omega, y, x bit-vector) order:
    the walks of n level steps through `LEVEL_STEPS`, sorted as
    (omega, y, x) tuples."""
    walks: list[tuple[tuple[bool, ...], tuple[bool, ...], tuple[bool, ...]]] = [((), (), ())]
    for _ in range(n):
        walks = [
            (o + (so,), y + (sy,), x + (sx,))
            for o, y, x in walks
            for sy, sx, so in LEVEL_STEPS[o[-1] if o else True]
        ]
    walks.sort()
    return [AdmissibleSet(n, y, x, o) for o, y, x in walks]


def _count_walks(moves: Mapping[Hashable, Sequence[Hashable]], start: Hashable, n: int) -> int:
    """The number of n-step walks from `start`, a step leading from a state
    to each of its `moves`: the walk counts kept per state, level by level."""
    counts = {start: 1}
    for _ in range(n):
        counts_next = dict.fromkeys(moves, 0)
        for state, count in counts.items():
            for target in moves[state]:
                counts_next[target] += count
        counts = counts_next
    return sum(counts.values())


def count_admissible(n: int) -> int:
    """The number of admissible sets, without building them: the walks of
    `enumerate_admissible`, counted by their last tail flag."""
    moves = {prev: [omega for _, _, omega in steps] for prev, steps in LEVEL_STEPS.items()}
    return _count_walks(moves, True, n)


def count_nested_pairs(n: int) -> int:
    """The number of pairs T inside T' of admissible sets, without building
    them: the walks of step pairs s inside s', counted by the last tail
    flags of T and T'."""
    moves = {
        (a, b): [(s[2], t[2]) for s in LEVEL_STEPS[a] for t in LEVEL_STEPS[b] if all(map(le, s, t))]
        for a in LEVEL_STEPS
        for b in LEVEL_STEPS
    }
    return _count_walks(moves, (True, True), n)


@record
class DerivedSets:
    """The combinatorial companions of one admissible set.

    avoid_monomials: monomials (as name tuples) no basis monomial of the
        quotient may be divisible by.
    eta: the target-side generators killed by the stratum maps, one per
        member counted by the length of T.
    """

    avoid_monomials: tuple[tuple[str, ...], ...]
    eta: tuple[str, ...]


def derived_sets(t_set: AdmissibleSet) -> DerivedSets:
    n = t_set.n
    y, x, o = t_set.y_in, t_set.x_in, t_set.omega_in
    avoid: list[tuple[str, ...]] = []
    eta: list[str] = []
    for i in range(1, n + 1):
        pair_only = o[i - 1] and not y[i - 1] and not x[i - 1]
        if y[i - 1]:
            avoid.append((f"y{i}",))
            eta.append(f"Y{i}")
        if x[i - 1]:
            avoid.append((f"x{i}",))
            eta.append(f"X{i}")
        if pair_only:
            avoid.append((f"y{i}", f"x{i}"))
            eta.append(f"X{i}")
    return DerivedSets(avoid_monomials=tuple(avoid), eta=tuple(eta))


def eta_injectivity(etas: Mapping[AdmissibleSet, Sequence[str]]) -> bool:
    """The sets that `etas` maps to their eta have distinct killed-target sets."""
    return len({frozenset(eta) for eta in etas.values()}) == len(etas)


def stratum_label(t_set: AdmissibleSet) -> dict:
    """What identifies the stratum of T, the first keys of every poset node
    and `map-report` stratum entry: the member names, the killed target
    generators eta(T), the length (the size of eta(T): one per y_i and x_i
    in T and per Omega_i in T with neither y_i nor x_i) and the growth
    degree of the quotient, 2n minus the length; all read from one
    `derived_sets(T)`."""
    sets = derived_sets(t_set)
    size = len(sets.eta)
    return {
        "members": list(t_set.member_names()),
        "eta": list(sets.eta),
        "length": size,
        "gk_dim": 2 * t_set.n - size,
    }


def stratum_poset(sets: Sequence[AdmissibleSet]) -> tuple[list[dict], list[tuple[int, int]]]:
    """The `stratum_label` of each of `sets`, in their order, plus the
    covering edges of strict containment, ordered by (smaller, larger) node
    index.

    Each stratum's strict up-set is a bitmask, the AND of the masks of the
    strata containing each of its members, over bit positions sorted by
    size.  Its covers are its up-set minus the union of the up-sets of that
    up-set's members.  It suffices to take the union over the covers
    themselves: the lowest bit left is a minimal member, hence a cover, and
    its up-set is removed before the next pick.
    """
    labels = [stratum_label(t) for t in sets]
    members = [t.members() for t in sets]
    order = sorted(range(len(sets)), key=lambda k: len(members[k]))  # bit -> node
    containing: dict[str, int] = {}
    for bit, k in enumerate(order):
        for name in members[k]:
            containing[name] = containing.get(name, 0) | 1 << bit
    every = (1 << len(sets)) - 1
    up = []
    for bit, k in enumerate(order):
        mask = every & ~(1 << bit)
        for name in members[k]:
            mask &= containing[name]
        up.append(mask)
    covers: list[list[int]] = [[] for _ in sets]
    for bit, k in enumerate(order):
        rest = up[bit]
        while rest:
            c = (rest & -rest).bit_length() - 1
            covers[k].append(order[c])
            rest &= ~up[c] & ~(1 << c)
    return labels, [(a, b) for a in range(len(sets)) for b in sorted(covers[a])]


def poset_json(sets: Sequence[AdmissibleSet]) -> dict:
    """The poset of the admissible sets of one n, which `sets` lists."""
    labels, edges = stratum_poset(sets)
    return {"n": sets[0].n, "nodes": labels, "edges": [list(e) for e in edges]}


def poset_dot(sets: Sequence[AdmissibleSet]) -> str:
    labels, edges = stratum_poset(sets)
    lines = ["digraph strata {", "    rankdir=BT;"]
    for k, label in enumerate(labels):
        name = ",".join(label["members"]) or "empty"
        lines.append(f'    n{k} [label="{{{name}}}\\ngk={label["gk_dim"]}"];')
    for a, b in edges:
        lines.append(f"    n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
