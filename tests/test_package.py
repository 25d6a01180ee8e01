"""The package runs on the standard library alone."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "riderflow").glob("*.py"))


def _absolute_imports(path):
    """The top-level module of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_relative_or_from_the_standard_library():
    assert len(SOURCES) > 1
    outside = {(path.name, module) for path in SOURCES
               for module in _absolute_imports(path)
               if module not in sys.stdlib_module_names}
    assert not outside


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S)[1]
    assert re.findall(r"^dependencies\b.*$", project, re.M) \
        == ["dependencies = []"]


PROBE = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_probe(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(
        tmp_path):
    # Hypothesis's failure report must get through the project's
    # warnings-as-errors setting to name the test and its example
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert re.search(r"^FAILED .*test_probe", output, re.M)
    assert "INTERNALERROR" not in output
