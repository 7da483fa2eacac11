"""Smoke tests: the fast example scripts run end to end.

(The image/video examples build sizable corpora; they are exercised by
their underlying module tests instead of re-run here.)
"""

import runpy
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    output = run_example("quickstart.py", capsys)
    assert "Fagin's algorithm" in output
    assert "speedup" in output
    assert "continue where we left off" in output.lower() or "second batch" in output


def test_cd_store(capsys):
    output = run_example("cd_store.py", capsys)
    assert "Beatles" in output
    assert "boolean-first" in output
    assert "SQL form" in output


def test_weighted_preferences(capsys):
    output = run_example("weighted_preferences.py", capsys)
    assert "color weight" in output
    assert "D1" in output and "D2" in output and "D3'" in output
