"""Admissible-set combinatorics and the stratification they index.

An admissible set is a subset of {y_i, x_i, Omega_i : i = 1..n} closed under
the biconditional: a generator of the i-th pair belongs to the set exactly
when both the i-th and (i-1)-th tail elements do (the i = 1 case reads
against Omega_1 alone).  These sets index the strata of the Poisson prime
spectrum; this module enumerates them, computes their derived data (the
divisibility-avoidance monomials of the quotient basis, the length, the
surviving y's, the killed target generators eta(T)), checks that eta is
injective, counts the sets and their nested pairs without building them,
labels each stratum, and lays the run's sets out as a poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
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

    @classmethod
    def from_names(cls, n: int, names: Iterable[str]) -> AdmissibleSet:
        y = [False] * n
        x = [False] * n
        o = [False] * n
        for name in names:
            kind, idx = parse_member_name(name)
            if not 1 <= idx <= n:
                raise ValueError(f"member {name!r} out of range for n={n}")
            {"y": y, "x": x, "Omega": o}[kind][idx - 1] = True
        return cls(n, tuple(y), tuple(x), tuple(o))

    def member_names(self) -> tuple[str, ...]:
        out = []
        for i in range(1, self.n + 1):
            if self.y_in[i - 1]:
                out.append(f"y{i}")
            if self.x_in[i - 1]:
                out.append(f"x{i}")
            if self.omega_in[i - 1]:
                out.append(f"Omega{i}")
        return tuple(out)

    def members(self) -> frozenset[str]:
        return frozenset(self.member_names())

    def sort_key(self):
        return (self.omega_in, self.y_in, self.x_in)


def parse_member_name(name: str) -> tuple[str, int]:
    for prefix in ("Omega", "y", "x"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return prefix, int(name[len(prefix):])
    raise ValueError(f"not a generator-set member name: {name!r}")


def _satisfies_conditions(y, x, o) -> bool:
    # pair i is in exactly when Omega_i and Omega_{i-1} are; a tail stands before pair 1
    prev = (True, *o[:-1])
    return all((yi or xi) == (oi and pi) for yi, xi, oi, pi in zip(y, x, o, prev))


def enumerate_admissible(n: int) -> list[AdmissibleSet]:
    """All admissible sets, in the canonical (omega, y, x bit-vector) order.

    Built by level recursion: a level-i set extends a level-(i-1) set either
    by nothing, by the tail element alone (only when the previous tail is
    absent), or by the tail element with one or both pair generators (only
    when the previous tail is present; at i = 1 that reads as always).
    """
    states: list[tuple[tuple[bool, ...], tuple[bool, ...], tuple[bool, ...]]] = [((), (), ())]
    for i in range(1, n + 1):
        new_states = []
        for y, x, o in states:
            prev_omega = True if i == 1 else o[-1]
            new_states.append((y + (False,), x + (False,), o + (False,)))
            if not prev_omega:
                new_states.append((y + (False,), x + (False,), o + (True,)))
            else:
                new_states.append((y + (True,), x + (False,), o + (True,)))
                new_states.append((y + (False,), x + (True,), o + (True,)))
                new_states.append((y + (True,), x + (True,), o + (True,)))
        states = new_states
    sets = [AdmissibleSet(n, y, x, o) for y, x, o in states]
    sets.sort(key=AdmissibleSet.sort_key)
    return sets


def count_admissible(n: int) -> int:
    """The number of admissible sets, without building them.

    Count the level-i states of `enumerate_admissible` by their last tail
    flag: a_i without Omega_i, b_i with it.  Every state extends by one set
    without the tail element, and by one (a state without Omega_{i-1}) or
    three (a state with it) sets with it, so a_i = a_{i-1} + b_{i-1} and
    b_i = a_{i-1} + 3 b_{i-1}.  Level 0 reads as (a, b) = (0, 1), since
    the first pair behaves as if a tail element came before it; this gives
    a_1 = 1, b_1 = 3 and 1, 4, 14, 48, 164, ... sets for n = 0, 1, 2, ...
    """
    a, b = 0, 1
    for _ in range(n):
        a, b = a + b, a + 3 * b
    return a + b


def count_nested_pairs(n: int) -> int:
    """The number of pairs T inside T' of admissible sets, without building
    them: `count_admissible`'s recurrence on pairs of level states, counted
    by which sets hold the last tail element, a_i neither, b_i only T' and
    c_i both.  Both sets extending by nothing gives a_i = a + b + c.  T'
    alone taking the tail element, one way after a and three after b or c,
    gives b_i = a + 3b + 3c.  Both taking it, T inside T', one way after a,
    three after b and five after c, gives c_i = a + 3b + 5c.  From (0, 0, 1)
    this gives 1, 9, 69, 517, ... pairs for n = 0, 1, 2, 3, ...
    """
    a, b, c = 0, 0, 1
    for _ in range(n):
        a, b, c = a + b + c, a + 3 * b + 3 * c, a + 3 * b + 5 * c
    return a + b + c


@dataclass(frozen=True)
class DerivedSets:
    """The combinatorial companions of one admissible set.

    avoid_monomials: monomials (as name tuples) no basis monomial of the
        quotient may be divisible by.
    length_members: the members counted by the length of T.
    y_survivors: the y-generators outside the set; the stratum maps invert
        the target Y's named after them.
    eta: the target-side generators killed by the stratum maps.
    """

    avoid_monomials: tuple[tuple[str, ...], ...]
    length_members: tuple[str, ...]
    y_survivors: tuple[str, ...]
    eta: tuple[str, ...]


def derived_sets(t_set: AdmissibleSet) -> DerivedSets:
    n = t_set.n
    y, x, o = t_set.y_in, t_set.x_in, t_set.omega_in
    avoid: list[tuple[str, ...]] = []
    length_members: list[str] = []
    y_surv: list[str] = []
    eta: list[str] = []
    for i in range(1, n + 1):
        pair_only = o[i - 1] and not y[i - 1] and not x[i - 1]
        if y[i - 1]:
            avoid.append((f"y{i}",))
            length_members.append(f"y{i}")
            eta.append(f"Y{i}")
        if x[i - 1]:
            avoid.append((f"x{i}",))
            length_members.append(f"x{i}")
            eta.append(f"X{i}")
        if pair_only:
            avoid.append((f"y{i}", f"x{i}"))
            length_members.append(f"Omega{i}")
            eta.append(f"X{i}")
        if not y[i - 1]:
            y_surv.append(f"y{i}")
    return DerivedSets(
        avoid_monomials=tuple(avoid),
        length_members=tuple(length_members),
        y_survivors=tuple(y_surv),
        eta=tuple(eta),
    )


def eta_injectivity(etas: Mapping[AdmissibleSet, Sequence[str]]) -> bool:
    """The sets that `etas` maps to their eta have distinct killed-target sets."""
    return len({frozenset(eta) for eta in etas.values()}) == len(etas)


def stratum_label(t_set: AdmissibleSet) -> dict:
    """What identifies the stratum of T, the first keys of every poset node
    and `map-report` stratum entry: the member names, the killed target
    generators eta(T), the length (the number of `length_members`) and the
    growth degree of the quotient, 2n minus the length; all read from one
    `derived_sets(T)`."""
    sets = derived_sets(t_set)
    size = len(sets.length_members)
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
