"""Docs-sync checks: every CLI recipe in the docs parses against the CLI.

Each ``python -m repro ...`` command in README.md's code blocks and in
the ``benchmarks/bench_*.py`` module docstrings is parsed (never run) by
the real argument parser, and each ``--grid KNOB=V1,V2`` token must name
a real ``SystemConfig`` knob with values of its type.  A flag or knob
deleted from the code therefore cannot survive in a recipe.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _grid_axis, build_parser

REPO = Path(__file__).resolve().parents[2]


def _commands(lines):
    """``(line number, argv)`` of each ``python -m repro`` command in
    ``lines``, with backslash continuations joined and comments dropped.
    An optional part written ``[--flag value]`` is parsed as given."""
    found, i = [], 0
    while i < len(lines):
        start, text = i + 1, lines[i]
        while text.rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            text = text.rstrip()[:-1] + " " + lines[i]
        i += 1
        if "python -m repro " not in text:
            continue
        command = text.split("python -m repro ", 1)[1]
        tokens = shlex.split(re.sub(r"[][]", "", command), comments=True)
        found.append((start, tokens))
    return found


def _readme_recipes():
    lines, in_code = [], False
    for line in (REPO / "README.md").read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            line = ""
        lines.append(line if in_code else "")
    return [("README.md", n, argv) for n, argv in _commands(lines)]


def _bench_recipes():
    recipes = []
    for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        recipes += [(path.name, n, argv) for n, argv in _commands(doc.splitlines())]
    return recipes


RECIPES = _readme_recipes() + _bench_recipes()


def test_recipes_are_found():
    sources = {source for source, _, _ in RECIPES}
    assert "README.md" in sources
    assert sum(s.startswith("bench_") for s in sources) >= 8


@pytest.mark.parametrize(
    "argv", [argv for _, _, argv in RECIPES],
    ids=[f"{source}:{n}" for source, n, _ in RECIPES],
)
def test_recipe_parses_against_the_cli(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"`python -m repro {shlex.join(argv)}` does not parse")
    for token in getattr(args, "grid", None) or []:
        if not re.fullmatch(r"\d+", token):
            _grid_axis(token)
