"""Import footprint: scipy.special and scipy.integrate load only when the
moving-slab closed form or its quadrature oracle is first called.  Each test
runs in a fresh interpreter, because this test session has loaded both."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.special", "scipy.integrate")
SUBSTRATE_CFG = {
    "qubit": {"model": "two_level", "dipole": [1.0, 0.0, 0.0]},
    "environment": {
        "isotropic_substrate": {
            "eps_re": -1.0, "eps_im": 0.2, "eps_loss": 0.3, "eps_gain": -0.1, "z_a": 1.0,
        }
    },
}


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter on the source tree; its last stdout
    line is JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither(tmp_path):
    loaded = run_fresh(
        f"""
        import json, sys
        import lindgain, lindgain.cli
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
        """,
        tmp_path,
    )
    assert loaded == []


def test_substrate_commands_load_neither(tmp_path):
    (tmp_path / "sub.json").write_text(json.dumps(SUBSTRATE_CFG))
    loaded = run_fresh(
        f"""
        import json, sys
        from lindgain.cli import main
        assert main(["rates", "--config", "sub.json", "--out", "r", "--quiet"]) == 0
        assert main(["spectrum", "--config", "sub.json", "--omega-min", "0.5",
                     "--omega-max", "1.5", "--n", "3", "--out", "s", "--quiet"]) == 0
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
        """,
        tmp_path,
    )
    assert loaded == []
    assert (tmp_path / "r" / "rates.json").exists()
    assert (tmp_path / "s" / "spectrum.csv").exists()


def test_slab_functions_load_on_first_use(tmp_path):
    out = run_fresh(
        f"""
        import json, sys
        from lindgain.greens import (DrudeParams, SlabMotionParams, SubstrateGeometry,
                                     moving_slab_quadrature_oracle,
                                     moving_slab_tensors_exact)
        loaded = lambda: [m for m in {LAZY!r} if m in sys.modules]
        p = SlabMotionParams(drude=DrudeParams(2.0), v=0.2,
                             geometry=SubstrateGeometry(z_a=1.0))
        steps = [loaded()]
        exact = moving_slab_tensors_exact(p)
        steps.append(loaded())
        oracle = moving_slab_quadrature_oracle(p)
        steps.append(loaded())
        pairs = [[t.tolist() for t in (e.real, e.imag, o.real, o.imag)]
                 for e, o in ((exact.loss, oracle.loss), (exact.gain, oracle.gain))]
        print(json.dumps({{"steps": steps, "pairs": pairs}}))
        """,
        tmp_path,
    )
    assert out["steps"] == [[], ["scipy.special"], list(LAZY)]
    for er, ei, o_r, oi in out["pairs"]:
        exact = np.array(er) + 1j * np.array(ei)
        oracle = np.array(o_r) + 1j * np.array(oi)
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(exact).max()
