"""Tests for the admissible-set combinatorics and the stratification data."""

from itertools import product

import pytest

from oracles import (
    admissible_by_biconditional,
    admissible_from_names,
    brute_force_admissible,
    growth_check,
    stratum_varspec,
)
from poisson_strata.admissible import (
    _satisfies_conditions,
    count_admissible,
    count_nested_pairs,
    derived_sets,
    enumerate_admissible,
    eta_injectivity,
    poset_dot,
    poset_json,
    stratum_label,
    stratum_poset,
)


def test_count_follows_the_level_recurrence():
    # the walks through the level steps, counted by their last tail flag,
    # without building the sets; n = 12 would build 3,028,544 of them.
    for n in range(8):
        assert count_admissible(n) == len(enumerate_admissible(n))
    assert [count_admissible(n) for n in (9, 12)] == [76096, 3028544]


def test_nested_pair_count_follows_the_level_recurrence():
    # the walks of nested step pairs, counted by the last tail flags of T and T'
    for n in range(6):
        sets = enumerate_admissible(n)
        pairs = sum(small.members() <= large.members() for small in sets for large in sets)
        assert count_nested_pairs(n) == pairs
    assert [count_nested_pairs(n) for n in (0, 6, 7)] == [1, 215125, 1605717]


def test_counts_match_brute_force():
    expected = {0: 1, 1: 4, 2: 14, 3: 48, 4: 164}
    for n, count in expected.items():
        fast = enumerate_admissible(n)
        slow = brute_force_admissible(n)
        assert len(fast) == count
        assert fast == slow


def test_validation_agrees_with_the_biconditional():
    # the level-step table against the paper's definition, written out apart
    bools = (False, True)
    for n in range(4):
        for y, x, o in product(product(bools, repeat=n), repeat=3):
            assert _satisfies_conditions(y, x, o) == admissible_by_biconditional(y, x, o)


def test_membership_validation():
    with pytest.raises(ValueError):
        admissible_from_names(1, ["Omega1"])  # tail alone fails at the first pair
    with pytest.raises(ValueError):
        admissible_from_names(2, ["y2", "Omega2"])  # needs Omega1 too
    admissible_from_names(2, ["Omega2"])  # tail alone is fine above the first pair


def test_first_level_sets():
    families = {t.members() for t in enumerate_admissible(1)}
    assert families == {
        frozenset(),
        frozenset({"y1", "Omega1"}),
        frozenset({"x1", "Omega1"}),
        frozenset({"y1", "x1", "Omega1"}),
    }


def test_derived_sets_examples():
    t1 = admissible_from_names(2, ["y1", "Omega1"])
    d1 = derived_sets(t1)
    assert d1.avoid_monomials == (("y1",),)
    assert stratum_label(t1)["length"] == 1
    assert d1.eta == ("Y1",)

    t2 = admissible_from_names(2, ["Omega2"])
    d2 = derived_sets(t2)
    assert d2.eta == ("X2",)
    assert stratum_label(t2)["members"] == ["Omega2"]
    assert stratum_label(t2)["length"] == 1

    empty = admissible_from_names(2, [])
    d3 = derived_sets(empty)
    assert d3.avoid_monomials == ()
    assert d3.eta == ()
    assert empty.ring.invertible == {"Y1", "Y2"}


def test_ring_is_derived_once_per_set_as_first_written():
    # the ring of both stratum maps: eta(T) killed, the Y's of the y's
    # outside T inverted; one object per set, read again by both sides
    for n in range(5):
        for t_set in enumerate_admissible(n):
            assert t_set.ring == stratum_varspec(t_set)
            assert t_set.ring is t_set.ring


def test_derived_set_cardinalities_agree():
    for n in (1, 2, 3, 4):
        for t_set in enumerate_admissible(n):
            d = derived_sets(t_set)
            assert len(d.eta) == len(d.avoid_monomials)
            assert stratum_label(t_set)["length"] == len(d.eta)


def _brute_count(t_set, degree):
    """Oracle: enumerate all monomials of degree <= d avoiding the monomials."""
    d = derived_sets(t_set)
    killed = {m[0] for m in d.avoid_monomials if len(m) == 1}
    pairs = [(m[0], m[1]) for m in d.avoid_monomials if len(m) == 2]
    names = []
    for i in range(1, t_set.n + 1):
        names += [f"y{i}", f"x{i}"]
    count = 0
    ranges = [range(degree + 1)] * len(names)
    for exps in product(*ranges):
        if sum(exps) > degree:
            continue
        by_name = dict(zip(names, exps))
        if any(by_name[v] > 0 for v in killed):
            continue
        if any(by_name[a] > 0 and by_name[b] > 0 for a, b in pairs):
            continue
        count += 1
    return count


def test_growth_counts_match_enumeration_oracle():
    for t_set in enumerate_admissible(2):
        report = growth_check(t_set, max_degree=6)
        for degree in range(7):
            assert report["counts"][degree] == _brute_count(t_set, degree)


def test_growth_degree_examples():
    empty = admissible_from_names(2, [])
    assert stratum_label(empty)["gk_dim"] == 4
    report = growth_check(empty)
    # free ring count is a binomial in the degree
    assert report["counts"][4] == 70  # C(8, 4)
    assert report["ok"]

    t_tail = admissible_from_names(2, ["Omega2"])
    assert stratum_label(t_tail)["gk_dim"] == 3

    full = admissible_from_names(2, ["y1", "x1", "Omega1", "y2", "x2", "Omega2"])
    assert stratum_label(full)["gk_dim"] == 0
    assert set(growth_check(full)["counts"]) == {1}


def test_growth_check_all_sets():
    for n in (1, 2, 3):
        for t_set in enumerate_admissible(n):
            report = growth_check(t_set)
            assert report["ok"], (t_set.member_names(), report)


def test_eta_injectivity():
    for n in (1, 2, 3, 4):
        assert eta_injectivity({t: derived_sets(t).eta for t in enumerate_admissible(n)}) is True
    images = {frozenset(derived_sets(t).eta) for t in enumerate_admissible(1)}
    assert images == {
        frozenset(),
        frozenset({"Y1"}),
        frozenset({"X1"}),
        frozenset({"Y1", "X1"}),
    }


def test_poset_level_one():
    labels, edges = stratum_poset(enumerate_admissible(1))
    members = [frozenset(label["members"]) for label in labels]
    empty = members.index(frozenset())
    top = members.index(frozenset({"y1", "x1", "Omega1"}))
    mid_y = members.index(frozenset({"y1", "Omega1"}))
    mid_x = members.index(frozenset({"x1", "Omega1"}))
    assert sorted(edges) == sorted(
        [(empty, mid_y), (empty, mid_x), (mid_y, top), (mid_x, top)]
    )
    for label in labels:
        if not any(frozenset(label["members"]) < m for m in members):
            assert label["gk_dim"] == 0  # maximal nodes kill everything at n=1


def test_poset_unique_minimum():
    for n in (1, 2, 3):
        labels, edges = stratum_poset(enumerate_admissible(n))
        members = [frozenset(label["members"]) for label in labels]
        minima = [m for m in members if not any(other < m for other in members)]
        assert minima == [frozenset()]


def test_poset_covers_match_triple_loop():
    # The bitmask covers are exactly the pairs a < b with nothing strictly
    # between, in (a, b) order.
    for n in (1, 2, 3, 4):
        labels, edges = stratum_poset(enumerate_admissible(n))
        members = [frozenset(label["members"]) for label in labels]
        expected = [
            (a, b)
            for a in range(len(members))
            for b in range(len(members))
            if members[a] < members[b]
            and not any(members[a] < c < members[b] for c in members)
        ]
        assert edges == expected
        for a, b in edges:  # graded: a cover adds one unit of length
            assert labels[b]["length"] == labels[a]["length"] + 1


def test_poset_outputs():
    payload = poset_json(enumerate_admissible(2))
    assert payload["n"] == 2 and len(payload["nodes"]) == 14
    dot = poset_dot(enumerate_admissible(1))
    assert dot.startswith("digraph") and dot.count("->") == 4
