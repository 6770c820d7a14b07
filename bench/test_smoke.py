"""Self-check of the benchmark at tiny sizes: `python3 -m pytest bench`."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_names_every_metric_and_checks_every_job():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == '{"smoke": "passed"}'
