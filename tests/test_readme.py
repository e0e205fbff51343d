"""README's examples, run as written: the `psi`, `bound` and `simulate`
command lines must print the rows shown under them, and the library
quickstart's values must match its comments.  The `verify` example, 20,000
replicates of the full battery, is left to the CLI and acceptance tests."""

import re
import shlex
from pathlib import Path

import pytest

from cvarbounds.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _cli_examples():
    """Each `$ cvarbounds ...` command in README's shell blocks, its
    backslash-continued lines joined, with the lines printed under it."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            if command.startswith("cvarbounds "):
                examples.append((shlex.split(command)[1:], printed))
    return examples


_CLI_EXAMPLES = {argv[0]: (argv, printed) for argv, printed in _cli_examples() if argv[0] != "verify"}


def test_readme_shows_each_command_line_example():
    assert sorted(_CLI_EXAMPLES) == ["bound", "psi", "simulate"]


@pytest.mark.parametrize("command", ["psi", "bound", "simulate"])
def test_readme_command_line_example_prints_its_rows(command, capsys):
    argv, printed = _CLI_EXAMPLES[command]
    assert main(argv) == 0
    assert capsys.readouterr().out == printed


def test_readme_quickstart_values():
    (quickstart,) = _blocks("python")
    names: dict = {}
    exec(quickstart, names)
    checked = []
    # a line `expr, expr  # shown, shown ...` shows each value, a trailing
    # "..." marking a prefix of its repr; anything after a value is prose
    for line in quickstart.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment or code.startswith("#"):
            continue
        shown = [part.split()[0] for part in comment.split(", ")]
        for expr, text in zip(code.strip().split(", "), shown):
            value = eval(expr, names)
            if text.endswith("..."):
                assert repr(value).startswith(text[:-3]), (expr, value)
            else:
                assert str(value) == text, (expr, value)
            checked.append(expr)
    assert checked == ["ev.value", "ev.branch", "res.value", "res.t_star"]
    # "equals value above": the bound at the optimal gap is the optimum itself
    assert names["res"].value == names["value"]
