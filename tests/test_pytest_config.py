"""The repo's pytest configuration, run on tests outside the suite."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_given_test_reports_its_example(tmp_path):
    # Hypothesis's report hook may import libcst, whose import warns with a
    # DeprecationWarning of mypy_extensions; the config makes deprecations
    # errors, and one raised there ended the pytest run with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
