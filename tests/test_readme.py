"""The README's python examples run as written against the current API, and its
"Command line" section names exactly the options the parser accepts."""

import argparse
import re
from pathlib import Path

from coinwalk.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README.md has no fenced python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_command_line_names_the_parsers_options():
    """Every option string of the parser and its subparsers is in backticks in
    the "Command line" section, and every backticked --option there is one
    the parser accepts."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    section = section[: section.index("\n## ")]
    section = re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", section)
    named = {option for span in spans for option in re.findall(r"(?<![\w-])--?[a-z][\w-]*", span)}

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == ["mix", "run", "sweep", "trajectory"]
    accepted = {
        option
        for p in (parser, *commands.choices.values())
        for action in p._actions
        for option in action.option_strings
    }
    assert accepted - named == set()
    assert {option for option in named if option.startswith("--")} - accepted == set()
