"""TA's charged probe policy, reached through a pass-through wrapper.

A bare :class:`~repro.core.sources.ArraySource` is columnar, so over a
set of them TA's one loop gathers probe grades by object code for free
and charges them after the stop.  Behind a
:class:`~repro.core.sources.WrapperSource` — the same list, name,
counter and protocol flags — it is not, and the same loop reads fixed
``batch_size`` windows, probes each row's fresh objects with one charged
``random_access_many`` per list in list order, and tests the stop after
every row, as it does over every wrapped stack.  The conformance suites
check the free gather against that policy;
``tests/core/test_ta_reference.py`` checks both against a plain
item-at-a-time TA.
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
