"""Exact offline optimum: the benchmark the online algorithm is measured against.

solve_opt computes a maximum-weight matching (unmatched vertices allowed)
when weights live on the offline side only, so a matching is worth the
total weight of the offline vertices it covers. The sets of offline
vertices that one matching can cover are the independent sets of a
transversal matroid, and on a matroid the greedy choice by non-negative
weight is optimal: take the offline vertices heaviest first, ties in id
order, and keep each one if an augmenting path from it reaches a free
online vertex. An augmentation keeps every offline vertex already covered
matched. The greedy only compares weights and adds none, so the optimum
is exact.

Each search is an iterative depth-first search (a path can be about n
long) that marks the online vertices it enters with one stamp per search,
so it enters each vertex at most once and costs O(E); a solve is
O(n_off * E) in the worst case. Before entering any offline vertex, the
start included, the search looks for a free neighbour of it, which ends
most searches at once.

brute_force_opt is an independent second opinion by exhaustive
enumeration, for cross-validation on tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Instance, InstanceError


@dataclass(frozen=True)
class OptResult:
    """An optimal offline matching and its total weight."""

    pairs: tuple[tuple[str, str], ...]
    value: float


def solve_opt(instance: Instance) -> OptResult:
    """Maximum-weight offline matching by the matroid greedy; exact.

    Pairs are in online id order and value is the fsum of their weights.
    Zero-weight offline vertices add nothing and are left unmatched.
    """
    off_index = {v: j for j, v in enumerate(instance.offline_ids)}
    adj = [[] for _ in instance.offline]     # offline index -> online indices
    for i, (_, nbs) in enumerate(instance.online):
        for v in nbs:
            adj[off_index[v]].append(i)
    weights = [w for _, w in instance.offline]
    partner = [-1] * len(instance.online)    # online index -> offline index
    seen = [0] * len(instance.online)
    # sorted is stable, so equal weights stay in id order
    order = sorted(range(len(weights)), key=lambda j: -weights[j])
    for stamp, j in enumerate(order, 1):
        if weights[j] == 0.0:
            break
        _augment(j, adj, partner, seen, stamp)
    off_ids = instance.offline_ids
    pairs = tuple((u, off_ids[j]) for u, j in zip(instance.online_ids, partner)
                  if j >= 0)
    value = math.fsum(weights[j] for j in partner if j >= 0)
    return OptResult(pairs=pairs, value=value)


def _augment(start: int, adj: list[list[int]], partner: list[int],
             seen: list[int], stamp: int) -> None:
    """Match offline vertex start along an augmenting path, if there is one.

    path holds the offline vertices of the current alternating path and
    via the online vertices between them: path[k + 1] is partner[via[k]].
    todo holds, per path vertex, an iterator over its neighbours not yet
    tried. Online vertices entered are marked seen[i] = stamp.
    """
    path, via, todo = [start], [], [iter(adj[start])]
    x = start
    while True:
        for i in adj[x]:
            if partner[i] < 0:
                # flip the path: x takes i, each path vertex takes its via
                partner[i] = x
                for i_k, x_k in zip(via, path):
                    partner[i_k] = x_k
                return
        i = next((i for i in todo[-1] if seen[i] != stamp), -1)
        while i < 0:
            todo.pop()
            if not todo:
                return
            path.pop()
            via.pop()
            i = next((i for i in todo[-1] if seen[i] != stamp), -1)
        seen[i] = stamp
        x = partner[i]
        path.append(x)
        via.append(i)
        todo.append(iter(adj[x]))


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
