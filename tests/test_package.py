"""Package-wide guards: what importing maswatch loads, and the README's
scenario example."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maswatch
from maswatch import _checks
from maswatch.harness import ScenarioError

README = Path(__file__).resolve().parents[1] / "README.md"

# Loads the number rule's module alone, from its file, and lists each
# module it brought in from outside the standard library; then imports
# the package and reports whether numpy.random came with it.
_PROBE = """
import importlib.util, sys
before = set(sys.modules)
spec = importlib.util.spec_from_file_location("_checks_alone", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] not in sys.stdlib_module_names))
import maswatch
print("numpy.random" in sys.modules)
"""


def test_import_loads_neither_numpy_random_nor_a_package_for_the_number_rule():
    """The benchmark's setup_s counts a fresh import of maswatch: numpy
    imports numpy.random lazily, and maswatch draws it only when a run
    first needs a stream. The number rule every config type runs when it
    is built imports the standard library alone."""
    src = str(Path(maswatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, _checks.__file__], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.splitlines() == ["[]", "False"]


def _readme_example() -> tuple[list[str], list[tuple[str, str]]]:
    """The import lines of the Python block under "Scenario files", and
    each statement with the ScenarioError its comment gives, written on
    the statement's line or the one after it."""
    block = re.search(r"Scenario files are .*?```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    imports, cases = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("# ScenarioError: ")
        if code.startswith(("from ", "import ")):
            imports.append(code)
        elif code.strip():
            cases.append([code.strip(), comment])
        elif comment:
            cases[-1][1] = comment
    return imports, [tuple(case) for case in cases]


def test_the_readme_scenario_example_fails_as_its_comments_say():
    imports, cases = _readme_example()
    assert imports and cases and all(comment for _, comment in cases)
    namespace: dict = {}
    exec("\n".join(imports), namespace)
    for statement, comment in cases:
        with pytest.raises(ScenarioError) as err:
            exec(statement, namespace)
        path, _, message = comment.partition(": ")
        assert err.value.path == path, statement
        assert str(err.value).startswith(f"{path}: {message}"), statement
