"""The linear-cost adversarial instance (section 6 / [Fa96]).

"It is hopeless to find efficient algorithms in general: in particular,
in [Fa96] the author gives a (somewhat artificial) case where the
database access cost is necessarily linear in the database size."

The construction: two lists over the same N objects whose sorted orders
are exact *reversals* of each other.  Object ``o_i`` has grade ``g_i`` in
list 1 and ``g_{N+1-i}`` in list 2, with ``g_1 > g_2 > ... > g_N`` all in
(1/2, 1).  Under the min rule the overall grade ``min(g_i, g_{N+1-i})``
peaks for the *middle* object — but sorted access reveals the two lists
from opposite ends, so the prefixes seen after d accesses per list
intersect only once ``d >= (N+1)/2``.  Any algorithm must separate the
middle object from its neighbours, whose grades interleave all the way
down; with the grades chosen adversarially this forces Omega(N)
accesses.  Experiment E9 measures Fagin's algorithm and TA on this family
and observes the linear slope, in contrast to the sqrt(N) law on
independent lists (E1).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.sources import ArraySource


def reversed_grades(n: int, *, low: float = 0.5, high: float = 1.0) -> List[Tuple[float, float]]:
    """Grade pairs ``(g_i, g_{n+1-i})`` of the reversed-lists instance.

    Grades are strictly decreasing, equally spaced in (low, high); the
    i-th pair belongs to object i (1-based index i maps to position
    ``i - 1`` in the returned list).
    """
    if n <= 0:
        raise ValueError(f"instance size must be positive, got {n}")
    if not 0.0 <= low < high <= 1.0:
        raise ValueError(f"need 0 <= low < high <= 1, got {low}, {high}")
    span = high - low

    def grade(rank: int) -> float:
        # rank 1 is the best grade; strictly decreasing, never hitting
        # the endpoints so strictness-based arguments stay clean.
        return low + span * (n - rank + 1) / (n + 1)

    return [(grade(i), grade(n + 1 - i)) for i in range(1, n + 1)]


def hard_instance(n: int) -> List[ArraySource]:
    """Build the two reversed :class:`ArraySource` lists over n objects.

    Objects are named ``x1 ... xn``; the midpoint object attains the
    best min grade.  The returned sources are ready for any section-4
    algorithm, so benchmarks can compare costs directly with the
    independent-list workloads.
    """
    pairs = reversed_grades(n)
    list_one = {f"x{i + 1}": pair[0] for i, pair in enumerate(pairs)}
    list_two = {f"x{i + 1}": pair[1] for i, pair in enumerate(pairs)}
    return [
        ArraySource(list_one, name="adversary-A1"),
        ArraySource(list_two, name="adversary-A2"),
    ]


def expected_best_object(n: int) -> str:
    """The object with the maximal min grade: the (upper) middle one."""
    return f"x{(n + 1) // 2}"


def minimum_depth_for_top_one(n: int) -> int:
    """Sorted depth at which the two prefixes first intersect.

    Fagin's algorithm cannot stop before each cursor reaches this depth
    (for k = 1), which is the source of the linear lower bound here.
    """
    return (n + 1) // 2
