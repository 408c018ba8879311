"""The README's Library example runs as written, from the repository root,
without a warning."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs_cleanly():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M)[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-X", "dev", "-c", example], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert "distance=312" in child.stdout and "459" in child.stdout
