"""The benchmark's own smoke test: ``pytest bench/tests`` (not tier-1)."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]


def test_smoke():
    from smoke import smoke

    smoke(seed=1)
