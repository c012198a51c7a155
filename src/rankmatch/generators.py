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
from numbers import Integral

import numpy as np

from .core import Instance
from .numerics import as_real

# most adjacency cells (online x offline) a generator will allocate
MAX_CELLS = 10**7
# most draws random_instance makes before giving up on min_edges
MAX_DRAWS = 10_000


class GeneratorError(ValueError):
    """Unknown generator kind or invalid parameters."""


# the params keys each generate_instance kind reads
_KEYS = {"complete": ("n",), "upper_triangular": ("n",),
         "random": ("n", "p"), "weighted_random": ("n", "p")}


@lru_cache(maxsize=64)
def _ids(prefix: str, n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple([f"{prefix}{i + 1:0{width}d}" for i in range(n)])


def _check_cells(n: int) -> None:
    if n * n > MAX_CELLS:
        raise GeneratorError(f"{n} x {n} instance has {n * n} cells, "
                             f"more than MAX_CELLS = {MAX_CELLS}")


def _params(kind: str, params) -> tuple[int, float]:
    """(n, p) of a generate_instance call, checked as its docstring says."""
    if kind not in _KEYS:
        raise GeneratorError(f"unknown generator kind {kind!r}")
    if not isinstance(params, Mapping):
        raise GeneratorError(f"generator params must be a mapping, got {params!r}")
    for key in params:
        if key not in _KEYS[kind]:
            raise GeneratorError(f"{kind} reads only {' and '.join(_KEYS[kind])}, "
                                 f"not {key!r}")
    n = params.get("n")
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
        raise GeneratorError(f"need an integer n >= 1, got {n!r}")
    _check_cells(n := int(n))
    try:
        p = as_real(params.get("p", 0.5))
    except TypeError:
        p = math.nan
    if not (0.0 <= p <= 1.0):       # so p was given: the default passes
        raise GeneratorError(f"need an edge probability p in [0, 1], got {params['p']!r}")
    return n, p


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
    """Deterministic n x n instance from (kind, params, seed).

    Kinds:
      complete(n): every online adjacent to every offline, unit weights.
      upper_triangular(n): online i adjacent to offline j for j >= i, unit
        weights; the classic adversarial family for greedy-style matching.
      random(n, p): each edge present independently with probability p,
        unit weights.
      weighted_random(n, p): random edges plus log-uniform weights in
        [0.1, 10] (weights are drawn before edges, so the edge pattern for
        a seed differs from random's).
    params holds exactly the keys its kind reads: n, an integer >= 1 (not
    a bool), and for the random kinds p, a number in [0, 1] (1/2 when
    absent); anything else raises GeneratorError before any allocation.
    """
    n, p = _params(kind, params)
    if kind in ("random", "weighted_random"):
        return _draw(np.random.default_rng(seed), n, n, p,
                     kind == "weighted_random", min_edges=0)
    offl = _ids("v", n)
    if kind == "complete":
        return Instance(_unit(offl), tuple([(u, offl) for u in _ids("u", n)]))
    return Instance(_unit(offl), tuple([(u, offl[i:])
                                        for i, u in enumerate(_ids("u", n))]))


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
    _check_cells(max_side)
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
