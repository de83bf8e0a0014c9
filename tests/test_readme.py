"""The README's Python API example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block() -> str:
    """The one ``python`` code block of the README's "Python API" section."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("\n```", 1)[0]


def test_python_api_example_runs(capsys):
    exec(compile(_python_api_block(), str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    # 2 cells x 3 estimators, then 2 windows x 2 estimators x 1 target
    assert len(lines) == 6 + 4
    assert all(line.endswith(", 0 failed") for line in lines[:6])


def test_error_table_names_each_class_and_its_exit_code(monkeypatch, capsys):
    # the table's rows are exactly the classes of shrinkmean.errors, and
    # main exits with each row's code when a command raises that class
    import shrinkmean.errors
    from shrinkmean import cli

    rows = [line.split(" | ") for line in README.read_text(encoding="utf-8").splitlines()
            if re.match(r"\| `\w+Error` \|", line)]
    table = {row[0].strip("| `"): int(row[-1].strip(" |")) for row in rows}
    classes = {name: cls for name, cls in vars(shrinkmean.errors).items()
               if isinstance(cls, type) and issubclass(cls, shrinkmean.errors.ShrinkmeanError)}
    assert set(table) == set(classes)
    for name, code in table.items():
        def fail(args, cls=classes[name]):
            raise cls("message")

        monkeypatch.setattr(cli, "cmd_demo", fail)
        assert cli.main(["demo"]) == code
        assert capsys.readouterr().err == "error: message\n"
