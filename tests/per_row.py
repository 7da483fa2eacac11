"""TA's per-row path, reached through a pass-through wrapper.

A bare :class:`~repro.core.sources.ArraySource` is columnar, so TA reads
a set of them (m > 1) in its bulk round.  Behind a
:class:`~repro.core.sources.WrapperSource` — the same list, name,
counter and protocol flags — it is not, and TA reads it one row per
round with one ``random_access_many`` per list, as it reads every
wrapped stack.  The conformance suites check the bulk round against
that path.
"""

from repro.core.sources import WrapperSource, sources_from_columns


def per_row(sources):
    """``sources``, each behind a pass-through wrapper."""
    return [WrapperSource(source) for source in sources]


def columns(table, backend="array", **layout):
    """``sources_from_columns(table, backend=backend, **layout)``, where
    ``backend="per-row"`` builds arrays and wraps them."""
    if backend == "per-row":
        return per_row(sources_from_columns(table, **layout))
    return sources_from_columns(table, backend=backend, **layout)
