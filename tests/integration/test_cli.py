"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_demo_command(capsys):
    assert main(["demo", "-k", "3"]) == 0
    output = capsys.readouterr().out
    assert "Artist='Beatles'" in output
    assert "plan:" in output
    assert "cost:" in output


def test_sql_one_shot(capsys):
    code = main(
        [
            "sql",
            "--size",
            "300",
            "SELECT * FROM albums WHERE AlbumColor = 'red' STOP AFTER 4",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert output.count("cd") >= 4
    assert "algorithm:" in output


def test_sql_against_image_database(capsys):
    code = main(
        [
            "sql",
            "--database",
            "images",
            "--size",
            "40",
            "SELECT * FROM images WHERE Color = 'red' STOP AFTER 3",
        ]
    )
    assert code == 0
    assert "img" in capsys.readouterr().out


def test_sql_syntax_error_reported(capsys):
    code = main(["sql", "--size", "100", "SELECT nonsense"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sql_uses_default_k(capsys):
    code = main(
        ["sql", "--size", "200", "-k", "2",
         "SELECT * FROM albums WHERE AlbumColor = 'red'"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert output.count("cd") == 2


def test_experiments_quick(capsys):
    code = main(["experiments", "--quick"])
    assert code == 0
    output = capsys.readouterr().out
    assert "E1" in output and "E10" in output


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sql_shell_exits_on_empty_line(monkeypatch, capsys):
    inputs = iter(["SELECT * FROM albums WHERE AlbumColor = 'red' STOP AFTER 2", ""])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
    assert main(["sql", "--size", "150"]) == 0
    assert "algorithm:" in capsys.readouterr().out


def test_the_list_backend_is_rejected_with_the_remaining_choices_named(capsys):
    import re

    from repro.errors import AccessError, PlanError
    from repro.middleware.engine import MiddlewareEngine
    from repro.storage import build_sources

    with pytest.raises(AccessError, match="use array, memmap$"):
        build_sources(["a"], [[0.5]], ["c"], backend="list")
    with pytest.raises(PlanError, match="use array, memmap$"):
        MiddlewareEngine().configure_storage("list")
    with pytest.raises(SystemExit):
        main(["sql", "--backend", "list", "SELECT * FROM albums WHERE AlbumColor = 'red'"])
    assert re.search(r"'list' \(choose from '?array'?, '?memmap'?\)", capsys.readouterr().err)
