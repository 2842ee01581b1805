import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the demos need only the standard library: importing numpy or networkx fails
RUN_WITHOUT_TEST_DEPS = (
    "import runpy, sys; sys.modules.update(numpy=None, networkx=None); "
    "runpy.run_path(sys.argv[1], run_name='__main__')"
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_TEST_DEPS, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
