"""The fast examples run end to end against the current library.

Each example drives the public API the way a reader would and checks
its own output (``traced_rebalance.py`` reconciles its JSONL trace
against the round's report), so a library change that breaks an
example fails here.  They run as subprocesses from a scratch working
directory, so their output files stay out of the checkout.
``scripts/verify.sh`` runs every example, including the slower ones.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ("paper_walkthrough.py", "quickstart.py", "traced_rebalance.py")
)
def test_example_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
