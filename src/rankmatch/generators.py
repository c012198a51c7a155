"""Seeded instance generators for experiments and randomized tests.

Every generator builds its Instance directly, already in canonical form:
ids are zero-padded to one width, so they sort in index order; neighbour
tuples follow the offline ids; weights are finite and positive. Nothing
here goes through validate_instance, which is for data from outside.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import compress

import numpy as np

from .core import Instance

# most adjacency cells (n_online x n_offline) a generator will allocate
MAX_CELLS = 10**7
# most draws random_instance makes before giving up on min_edges
MAX_DRAWS = 10_000


class GeneratorError(ValueError):
    """Unknown generator kind or invalid parameters."""


@lru_cache(maxsize=64)
def _ids(prefix: str, n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple([f"{prefix}{i + 1:0{width}d}" for i in range(n)])


def _check_cells(n_u: int, n_v: int) -> None:
    if n_u * n_v > MAX_CELLS:
        raise GeneratorError(f"{n_u} x {n_v} instance has {n_u * n_v} cells, "
                             f"more than MAX_CELLS = {MAX_CELLS}")


def _sizes(params: Mapping) -> tuple[int, int]:
    n = params.get("n")
    n_online = int(params.get("n_online", n if n is not None else 0))
    n_offline = int(params.get("n_offline", n if n is not None else 0))
    if n_online < 1 or n_offline < 1:
        raise GeneratorError("need n >= 1 (or n_online/n_offline >= 1)")
    _check_cells(n_online, n_offline)
    return n_online, n_offline


def _edge_prob(params: Mapping) -> float:
    p = float(params.get("p", 0.5))
    if not (0.0 <= p <= 1.0):
        raise GeneratorError(f"edge probability outside [0, 1]: {p}")
    return p


def _unit(offl: tuple[str, ...]) -> tuple[tuple[str, float], ...]:
    return tuple([(v, 1.0) for v in offl])


def _draw(rng: np.random.Generator, n_u: int, n_v: int, p: float,
          weighted: bool, min_edges: int) -> Instance | None:
    """n_u x n_v instance from rng: log-uniform weights in [0.1, 10] when
    weighted (else 1), then each edge with probability p, then ids; None
    when it has fewer than min_edges edges."""
    if weighted:
        weights = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=n_v))
    else:
        weights = np.ones(n_v)
    adj = rng.random((n_u, n_v)) < p
    if np.count_nonzero(adj) < min_edges:
        return None
    offl = _ids("v", n_v)
    online = tuple(zip(_ids("u", n_u),
                       [tuple(compress(offl, row)) for row in adj.tolist()]))
    return Instance(tuple(zip(offl, weights.tolist())), online)


def generate_instance(kind: str, params: Mapping, seed) -> Instance:
    """Deterministic instance from (kind, params, seed).

    Kinds:
      complete(n): every online adjacent to every offline, unit weights.
      upper_triangular(n): online i adjacent to offline j for j >= i, unit
        weights; the classic adversarial family for greedy-style matching.
      random(n, p): each edge present independently with probability p,
        unit weights.
      weighted_random(n, p): random edges plus log-uniform weights in
        [0.1, 10] (weights are drawn before edges, so the edge pattern for
        a seed differs from random's).
    complete/random/weighted_random also accept n_online/n_offline for
    rectangular shapes.
    """
    if kind == "complete":
        n_u, n_v = _sizes(params)
        offl = _ids("v", n_v)
        return Instance(_unit(offl), tuple([(u, offl) for u in _ids("u", n_u)]))
    if kind == "upper_triangular":
        n = int(params.get("n", 0))
        if n < 1:
            raise GeneratorError("need n >= 1")
        _check_cells(n, n)
        offl = _ids("v", n)
        return Instance(_unit(offl), tuple([(u, offl[i:])
                                            for i, u in enumerate(_ids("u", n))]))
    if kind in ("random", "weighted_random"):
        n_u, n_v = _sizes(params)
        p = _edge_prob(params)
        return _draw(np.random.default_rng(seed), n_u, n_v, p,
                     kind == "weighted_random", min_edges=0)
    raise GeneratorError(f"unknown generator kind {kind!r}")


def random_instance(rng: np.random.Generator, max_side: int = 6,
                    weighted: bool = True, min_edges: int = 1) -> Instance:
    """Random small instance for property tests; redraws until it has at
    least min_edges edges.

    Sides are uniform on 1..max_side; each edge is present with probability
    1/2; weights log-uniform in [0.1, 10] when weighted, else 1. Driven by
    the caller's rng, so sequences of draws are reproducible from one seed.
    Raises GeneratorError, before any draw, when max_side < 1 or when
    min_edges exceeds the max_side x max_side edges a draw can have, and
    after MAX_DRAWS draws that all fall short of min_edges.
    """
    if max_side < 1:
        raise GeneratorError(f"need max_side >= 1, got {max_side}")
    _check_cells(max_side, max_side)
    if min_edges > max_side * max_side:
        raise GeneratorError(f"min_edges = {min_edges} exceeds the "
                             f"{max_side * max_side} edges of a "
                             f"max_side = {max_side} instance")
    for _ in range(MAX_DRAWS):
        n_u = int(rng.integers(1, max_side + 1))
        n_v = int(rng.integers(1, max_side + 1))
        instance = _draw(rng, n_u, n_v, 0.5, weighted, min_edges)
        if instance is not None:
            return instance
    raise GeneratorError(f"no draw reached min_edges = {min_edges} with "
                         f"max_side = {max_side} in {MAX_DRAWS} draws")
