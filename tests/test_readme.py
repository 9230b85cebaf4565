"""The README's Library example runs as written, and every flag it names
exists."""

import argparse
import pathlib
import re

import numpy as np

from eventlift.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    np.testing.assert_allclose(namespace["est"], [2.0, -1.0, 0.5], atol=0.5)
    assert len(namespace["cis"]) == 3
    assert namespace["effect"].shape == (3,)
    assert namespace["ar_effect"].shape == (3,)


def readme_flags() -> set[str]:
    """Every ``--flag`` the README names, except on its pip and pytest lines."""
    flags = set()
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.lstrip().startswith(("pip ", "pytest ")):
            flags.update(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line))
    return flags


def test_every_readme_flag_is_a_cli_flag():
    """A flag the CLI drops must leave the README too."""
    [commands] = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {flag for sub in commands.values() for flag in sub._option_string_actions}
    flags = readme_flags()
    assert {"--panel", "--rare-weight", "--out"} <= flags
    assert flags - accepted == set()
