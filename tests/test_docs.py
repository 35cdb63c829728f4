"""README.md and the `mbang` parser name the same options."""

from __future__ import annotations

import argparse
import pathlib
import re

from mbang.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
NAMED = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))


def _subcommand_options() -> set[str]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        opt
        for command in sub.choices.values()
        for action in command._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }


def test_readme_names_only_existing_options():
    assert NAMED - _subcommand_options() == set()


def test_readme_names_every_option():
    assert _subcommand_options() - NAMED == set()
