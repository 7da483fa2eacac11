"""Synthetic graded-list workloads (the [Fa96] probabilistic model).

Theorems 4.1/4.2 analyze Fagin's algorithm over m *independent* lists:
each object's grade in each list is drawn independently.  This module
generates that model plus the structured variants the experiments use:

* :func:`independent` — i.i.d. uniform grades (the theorem's model);
* :func:`correlated` — per-object latent quality plus noise, so lists
  agree (easier than independent: matches surface early);
* :func:`anti_correlated` — high grades in one list co-occur with low
  grades in the others (harder: matches surface late);
* :func:`reversed_pair` — the exact adversarial reversed-lists instance
  (delegates to :mod:`repro.core.adversary`);
* :func:`boolean_column` — a crisp 0/1 column with chosen selectivity,
  for the Beatles-style Boolean-conjunct experiments.

All generators are seeded and return either the raw grade table
(``object -> (g_1, ..., g_m)``) or, through :func:`workload`, ready
ranked-list columns built by
:func:`~repro.core.sources.sources_from_columns`.  Columns are numpy-backed :class:`~repro.core.sources.ArraySource` by default
(one vectorized build + argsort instead of N Python calls); pass
``backend="memmap"`` for out-of-core columns.  Both backends produce
identical sorted order and accounting.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.adversary import hard_instance
from repro.core.sources import ArraySource, GradedSource, sources_from_columns

GradeTable = Dict[str, Tuple[float, ...]]


def _clip(value: float) -> float:
    return min(1.0, max(0.0, value))


def _names(n: int) -> List[str]:
    return [f"o{i}" for i in range(n)]


def independent(n: int, m: int, seed: int = 0) -> GradeTable:
    """i.i.d. uniform grades — the independence model of Theorem 4.1."""
    rng = random.Random(seed)
    return {name: tuple(rng.random() for _ in range(m)) for name in _names(n)}


def correlated(
    n: int, m: int, seed: int = 0, *, noise: float = 0.1
) -> GradeTable:
    """A latent per-object quality shared by all lists, plus noise.

    ``noise = 0`` makes all lists identical (maximally easy);
    ``noise = 1`` approaches independence.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    rng = random.Random(seed)
    table: GradeTable = {}
    for name in _names(n):
        quality = rng.random()
        table[name] = tuple(
            _clip(quality + rng.uniform(-noise, noise)) for _ in range(m)
        )
    return table


def anti_correlated(
    n: int, m: int, seed: int = 0, *, spread: float = 0.05
) -> GradeTable:
    """Grades summing to roughly a constant: good in one list, bad in others.

    The classic hard case for top-k under min: every object looks
    promising somewhere, so prefixes share few objects.
    """
    rng = random.Random(seed)
    table: GradeTable = {}
    for name in _names(n):
        raw = [rng.random() for _ in range(m)]
        total = sum(raw)
        # Rescale so grades sum to m/2 (the anti-correlation constraint),
        # then jitter so ties are broken randomly.
        scale = (m / 2.0) / total if total > 0 else 1.0
        table[name] = tuple(
            _clip(g * scale + rng.uniform(-spread, spread)) for g in raw
        )
    return table


def zipf_skewed(
    n: int, m: int, seed: int = 0, *, exponent: float = 1.0
) -> GradeTable:
    """Grades with Zipf-like skew: a few objects score high, most low.

    Real relevance distributions are heavy-tailed (a handful of strong
    matches, a long tail of weak ones); this workload checks that the
    algorithms' advantage survives skew.  Each list independently draws
    a permutation and assigns grade ``(rank)^-exponent`` normalized to
    (0, 1].
    """
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    rng = random.Random(seed)
    names = _names(n)
    table: GradeTable = {name: () for name in names}
    for _ in range(m):
        order = names[:]
        rng.shuffle(order)
        for rank, name in enumerate(order, start=1):
            table[name] = table[name] + (rank**-exponent,)
    return table


def reversed_pair(n: int) -> List[ArraySource]:
    """The linear-lower-bound adversarial instance (two reversed lists)."""
    return hard_instance(n)


def boolean_column(
    n: int, selectivity: float, seed: int = 0
) -> Dict[str, float]:
    """A crisp 0/1 grade column with the given fraction of 1s."""
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must lie in [0, 1], got {selectivity}")
    rng = random.Random(seed)
    names = _names(n)
    positives = set(rng.sample(names, int(round(selectivity * n))))
    return {name: 1.0 if name in positives else 0.0 for name in names}


def workload(
    kind: str,
    n: int,
    m: int,
    seed: int = 0,
    *,
    backend: str = "array",
    shards: int = 1,
    directory: Optional[str] = None,
) -> List[GradedSource]:
    """Generate sources by workload name ('independent', 'correlated',
    'anti-correlated', 'zipf', 'reversed') on the chosen layout
    (:func:`~repro.core.sources.sources_from_columns`)."""
    build = dict(backend=backend, shards=shards, directory=directory)
    if kind == "independent":
        return sources_from_columns(independent(n, m, seed), **build)
    if kind == "correlated":
        return sources_from_columns(correlated(n, m, seed), **build)
    if kind == "anti-correlated":
        return sources_from_columns(anti_correlated(n, m, seed), **build)
    if kind == "zipf":
        return sources_from_columns(zipf_skewed(n, m, seed), **build)
    if kind == "reversed":
        if m != 2:
            raise ValueError("the reversed workload is defined for m = 2")
        return reversed_pair(n)
    raise ValueError(
        f"unknown workload kind {kind!r}; use independent, correlated, "
        "anti-correlated, zipf, or reversed"
    )
