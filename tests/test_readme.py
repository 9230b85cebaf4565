"""The README's Library example runs as written."""

import pathlib
import re

import numpy as np

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
