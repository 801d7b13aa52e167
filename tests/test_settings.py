"""The suite's own pytest settings, run on a probe file in a fresh process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_under_the_warning_filters(tmp_path):
    # reporting a falsifying example imports libcst, which warns about
    # mypy_extensions.TypedDict; under the filters of pyproject.toml the
    # failure must be reported and the session must go on to the next test
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
