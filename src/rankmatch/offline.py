"""Exact offline optimum: the benchmark the online algorithm is measured against.

solve_opt computes a maximum-weight matching (unmatched vertices allowed,
matching the <= constraints of the assignment LP) via the Jonker-Volgenant
solver in scipy. Since weights live on the offline side only, the profit of
edge (u, v) is just w_v, and missing edges enter the dense profit matrix at
zero profit: zero-profit fake pairs never change the optimal value and are
dropped from the reported matching. brute_force_opt is an independent
second opinion by exhaustive enumeration, for cross-validation on tiny
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, InstanceError


@dataclass(frozen=True)
class OptResult:
    """An optimal offline matching and its total weight."""

    pairs: tuple[tuple[str, str], ...]
    value: float


def solve_opt(instance: Instance) -> OptResult:
    """Maximum-weight offline matching; exact within double precision.

    scipy is imported here, not at module level, so that only a process
    that solves an offline optimum pays its start-up time and memory.
    """
    from scipy.optimize import linear_sum_assignment

    n_u = len(instance.online)
    n_v = len(instance.offline)
    if n_u == 0 or n_v == 0:
        return OptResult(pairs=(), value=0.0)
    off_index = {v: j for j, v in enumerate(instance.offline_ids)}
    w = np.array([wt for _, wt in instance.offline], dtype=float)
    profit = np.zeros((n_u, n_v), dtype=float)
    for i, (u, nbs) in enumerate(instance.online):
        for v in nbs:
            profit[i, off_index[v]] = w[off_index[v]]
    rows, cols = linear_sum_assignment(profit, maximize=True)
    pairs = []
    for i, j in zip(rows, cols):
        u = instance.online_ids[i]
        v = instance.offline_ids[j]
        if instance.has_edge(u, v):
            pairs.append((u, v))
    value = math.fsum(instance.weights[v] for _, v in pairs)
    return OptResult(pairs=tuple(pairs), value=value)


BRUTE_FORCE_LIMIT = 10


def brute_force_opt(instance: Instance) -> OptResult:
    """Exhaustive enumeration over all matchings; |U|, |V| <= 10 only."""
    n_u = len(instance.online)
    n_v = len(instance.offline)
    if n_u > BRUTE_FORCE_LIMIT or n_v > BRUTE_FORCE_LIMIT:
        raise InstanceError(
            f"instance too large for brute force ({n_u}+{n_v} > "
            f"{BRUTE_FORCE_LIMIT}+{BRUTE_FORCE_LIMIT})")
    weights = instance.weights
    online = instance.online

    best_value = -1.0
    best_pairs: tuple[tuple[str, str], ...] = ()
    used: set[str] = set()
    chosen: list[tuple[str, str]] = []

    def recurse(i: int, acc: float) -> None:
        nonlocal best_value, best_pairs
        if i == n_u:
            if acc > best_value:
                best_value = acc
                best_pairs = tuple(chosen)
            return
        u, nbs = online[i]
        recurse(i + 1, acc)  # leave u unmatched
        for v in nbs:
            if v in used:
                continue
            used.add(v)
            chosen.append((u, v))
            recurse(i + 1, acc + weights[v])
            chosen.pop()
            used.discard(v)

    recurse(0, 0.0)
    value = math.fsum(weights[v] for _, v in best_pairs)
    return OptResult(pairs=best_pairs, value=value)
