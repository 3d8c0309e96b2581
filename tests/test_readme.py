"""The README's library quick start runs as written and prints what it
promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no library quick start block"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block.group(1)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.25"]
