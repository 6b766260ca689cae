"""The test session's own settings: pyproject.toml's filterwarnings turn deprecations into errors,
yet a failing property test must still fail alone, and the session must run every test after it."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PLANTED = '''import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_property_fails(x):
    assert x < 0


def test_a_deprecation_fails():
    warnings.warn("planted", DeprecationWarning)


def test_a_later_test_runs():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # a failing @given test makes hypothesis import libcst for its patch output, whose
    # mypy_extensions.TypedDict warns DeprecationWarning; as an error that was an INTERNALERROR
    # ending the session (exit 3, "1 failed"), while every other deprecation must still fail its test
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
                          "--rootdir", str(tmp_path), "test_planted.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert run.returncode == 1
