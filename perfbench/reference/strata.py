"""Admissible sets by brute force over all membership triples.

A subset T of {y_i, x_i, Omega_i : i = 1..n} is admissible when, for every
i, a generator of the i-th pair lies in T exactly when Omega_i and
Omega_{i-1} both do (for i = 1, exactly when Omega_1 does).  Its length
counts the pair generators in T plus each Omega_i in T whose pair is not.
"""

from __future__ import annotations

from itertools import product


def admissible_sets(n: int) -> list[frozenset[str]]:
    """Every admissible set, found by filtering all 2^(3n) triples."""
    out = []
    for bits in product((False, True), repeat=3 * n):
        y, x, omega = bits[:n], bits[n:2 * n], bits[2 * n:]
        ok = True
        for i in range(n):
            tails_in = omega[i] and (i == 0 or omega[i - 1])
            if (y[i] or x[i]) != tails_in:
                ok = False
                break
        if ok:
            members = set()
            for i in range(n):
                if y[i]:
                    members.add(f"y{i + 1}")
                if x[i]:
                    members.add(f"x{i + 1}")
                if omega[i]:
                    members.add(f"Omega{i + 1}")
            out.append(frozenset(members))
    return out


def length(members: frozenset[str], n: int) -> int:
    out = 0
    for i in range(1, n + 1):
        pair = {f"y{i}", f"x{i}"} & members
        out += len(pair)
        if not pair and f"Omega{i}" in members:
            out += 1
    return out
