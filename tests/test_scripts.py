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
