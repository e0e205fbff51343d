"""The suite's own pytest settings: a failing test must be reported, with its
example, and must not stop the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FAILING = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_given_fails(x):
    assert x < 10


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_example_is_reported(tmp_path):
    # filterwarnings = ["error"] once turned a deprecation warning raised
    # while hypothesis reports its example into an INTERNALERROR, which hid
    # the example and ended the run before the plain failure
    (tmp_path / "test_failing.py").write_text(_FAILING)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            str(tmp_path / "test_failing.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed" in out
