"""pytest's own settings in `pyproject.toml`: warnings are errors, and a
failing Hypothesis property is one failed test, after which the session
goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_warns():
    warnings.warn("still an error", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_property_leaves_the_session_running(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in run.stdout, out
