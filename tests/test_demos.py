"""Every demo script runs to completion against the library in ``src`` and
prints exactly the text recorded in ``demo_stdout/<demo>.txt``.

Each runs in a fresh interpreter with a temporary working directory, since
some demos write output files under the current directory. The recorded
text holds no path or timing; its numbers depend on numpy's random streams,
so it holds for the numpy version CI pins.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
