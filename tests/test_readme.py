"""The README's library quick start runs as written and prints what it
promises, and the preset config it prints is the one the CLI runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from lindgain.cli import FIGURE_PRESETS

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


def test_printed_preset_config():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"This is `fig2a`'s:\n\n```json\n(.*?)```", readme, re.S)
    assert block is not None, "README prints no fig2a config"
    assert json.loads(block.group(1)) == FIGURE_PRESETS["fig2a"]
