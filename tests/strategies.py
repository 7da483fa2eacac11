"""Shared Hypothesis generators for the differential conformance suites.

Every conformance family (core algorithms, the bounds state, storage
backends, the result cache) samples from the same universe of small
graded databases: clustered grade levels so exact ties and duplicate
grades — the regime where ordering differences between implementations
would surface — are common.  This module is the single home for those
generators and for the combine axis (:func:`with_combine`); per-suite
rule pickers stay local because each suite locks down a different rule
family (oracle-agreement rules vs combine-axis rules vs storage smoke
rules).
"""

from hypothesis import strategies as st

from repro.scoring.base import FunctionScoring

#: Discrete grade levels: few enough that random databases are dense
#: with exact ties and duplicate grades.
GRADE_LEVELS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@st.composite
def graded_databases(draw, min_m=1, max_m=3, max_n=20, rows="tuple"):
    """A random database as ``(grades_by_object, m)``.

    ``rows`` selects the per-object container (``"tuple"`` or
    ``"list"``) so callers keep their historical shapes — some suites
    mutate rows in place, others rely on hashability.
    """
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_n))
    grades = draw(
        st.lists(
            st.tuples(*(st.sampled_from(GRADE_LEVELS),) * m),
            min_size=n,
            max_size=n,
        )
    )
    shape = list if rows == "list" else tuple
    return {f"o{i:02d}": shape(row) for i, row in enumerate(grades)}, m


@st.composite
def boolean_databases(draw, max_n=20):
    """A database whose first column is Boolean (grades 0/1)."""
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    for _ in range(n):
        crisp = draw(st.sampled_from((0.0, 1.0)))
        fuzzy = tuple(
            draw(st.sampled_from(GRADE_LEVELS)) for _ in range(m - 1)
        )
        rows.append((crisp,) + fuzzy)
    return {f"o{i:02d}": row for i, row in enumerate(rows)}, m


#: The two ways a rule's ``combine_matrix`` can run: ``"vector"`` is the
#: rule as given (its native numpy form, where it has one), ``"scalar"``
#: the exact per-row loop.  Every result must be byte-identical under both.
COMBINES = ("scalar", "vector")


def with_combine(rule, combine):
    """``rule`` with its batch form chosen from :data:`COMBINES`:
    ``"scalar"`` wraps it as a user :class:`FunctionScoring`, whose
    ``combine_matrix`` loops ``rule(...)`` row by row."""
    if combine == "vector":
        return rule
    return FunctionScoring(
        rule,
        name=rule.name,
        is_monotone=rule.is_monotone,
        is_strict=rule.is_strict,
        is_symmetric=rule.is_symmetric,
    )


def pick_k(table, selector):
    """The three interesting k regimes: 1, N, and k > N."""
    n = len(table)
    return (1, n, n + 3)[selector % 3]
