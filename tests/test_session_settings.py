"""The test session's own settings: under `filterwarnings = ["error"]` a
failing property test is still reported as a failure, with the
`@reproduce_failure` line that replays it, not as an internal error."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

ALWAYS_FAILS = """
from hypothesis import given, settings, strategies as st


@settings(print_blob=True, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_a_failing_property_test_is_reported(tmp_path):
    test_file = tmp_path / "test_always_fails.py"
    test_file.write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file),
        ],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    report = proc.stdout + proc.stderr
    assert proc.returncode == 1, report
    assert "FAILED test_always_fails.py::test_always_fails" in proc.stdout, report
    assert "@reproduce_failure" in proc.stdout, report
    assert "INTERNALERROR" not in report
