import subprocess
import sys

import pytest
from conftest import CHILD_ENV, ROOT

SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_runs_with_defaults(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_benchmark_selftest_passes():
    # the self-test checks the tracer's view of the library (which bindings
    # it wraps, how many eigensolves a pair costs), so a refactor that
    # breaks the benchmark fails here too; it writes to .perfbench_out/
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
