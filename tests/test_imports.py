"""Import footprint: no scipy module loads outside `evolve`, which needs
scipy.linalg for its propagator, and the moving-slab quadrature oracle,
which needs scipy.integrate.  Each test runs in a fresh interpreter,
because this test session has loaded scipy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# the names of the loaded scipy modules, in the fresh interpreter
SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
CIRCULAR = [0.5**0.5, 0.0, [0.0, 0.5**0.5]]
CONFIGS = {
    "substrate": {
        "qubit": {"model": "two_level", "dipole": [1.0, 0.0, 0.0]},
        "environment": {
            "isotropic_substrate": {
                "eps_re": -1.0, "eps_im": 0.2, "eps_loss": 0.3, "eps_gain": -0.1, "z_a": 1.0,
            }
        },
    },
    "exact_slab": {
        "qubit": {"model": "v_shaped", "dipole": CIRCULAR},
        "environment": {"moving_slab": {"omega_sp": 2.0, "v": 0.2, "z_a": 0.3, "g00": 1e-3}},
    },
    "asymptotic_slab": {
        "qubit": {"model": "v_shaped", "dipole": CIRCULAR},
        "environment": {"moving_slab": {"omega_sp": 2.0, "v": 0.2, "z_a": 3.0, "g00": 1e-3,
                                        "mode": "asymptotic"}},
    },
    "abstract_rates": {
        "qubit": {"model": "v_shaped"},
        "environment": {"abstract_rates": {"gamma_l": [[0.1, 0.0], [0.0, 0.175]],
                                           "gamma_g": [[0.075, 0.0], [0.0, 0.0]]}},
        "evolution": {"t_max": 10.0, "n_steps": 20, "initial_state": "e2"},
    },
}
SPECTRUM = ["spectrum", "--omega-min", "0.5", "--omega-max", "1.5", "--n", "3"]
# the lindgain commands of each case; each reads cfg.json and writes its own directory
RUNS = {
    "import": [],
    "figure_fig3b": [["figure", "fig3b"]],
    "substrate": [["steady"], ["rates"], SPECTRUM],
    "exact_slab": [["steady"], ["rates"]],
    "asymptotic_slab": [["steady"], ["rates"]],
    "abstract_rates": [["steady"], ["rates"]],
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


def run_commands(tmp_path, commands, cfg=None):
    """The scipy modules loaded after importing lindgain and after each
    command, run by ``lindgain.cli.main`` in one fresh interpreter."""
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argvs = [
        cmd[:1] + (["--config", "cfg.json"] if cfg is not None else []) + cmd[1:]
        + ["--out", f"out{i}", "--quiet"]
        for i, cmd in enumerate(commands)
    ]
    return run_fresh(
        f"""
        import json, sys
        import lindgain, lindgain.cli
        steps = [{SCIPY}]
        for argv in {argvs!r}:
            assert lindgain.cli.main(argv) == 0, argv
            steps.append({SCIPY})
        print(json.dumps(steps))
        """,
        tmp_path,
    )


@pytest.mark.parametrize("case", RUNS)
def test_loads_no_scipy(tmp_path, case):
    commands = RUNS[case]
    steps = run_commands(tmp_path, commands, CONFIGS.get(case))
    assert steps == [[]] * (len(commands) + 1)
    for i in range(len(commands)):
        assert any((tmp_path / f"out{i}").iterdir())


def test_evolve_loads_scipy_linalg(tmp_path):
    steps = run_commands(tmp_path, [["evolve"]], CONFIGS["abstract_rates"])
    assert steps[0] == []
    assert "scipy.linalg" in steps[1]
    assert (tmp_path / "out0" / "trajectory.csv").exists()


def test_slab_functions_load_on_first_use(tmp_path):
    out = run_fresh(
        f"""
        import json, sys
        from lindgain.greens import (DrudeParams, SlabMotionParams, SubstrateGeometry,
                                     moving_slab_quadrature_oracle,
                                     moving_slab_tensors_exact)
        p = SlabMotionParams(drude=DrudeParams(2.0), v=0.2,
                             geometry=SubstrateGeometry(z_a=1.0))
        steps = [{SCIPY}]
        exact = moving_slab_tensors_exact(p)
        steps.append({SCIPY})
        oracle = moving_slab_quadrature_oracle(p)
        steps.append({SCIPY})
        pairs = [[t.tolist() for t in (e.real, e.imag, o.real, o.imag)]
                 for e, o in ((exact.loss, oracle.loss), (exact.gain, oracle.gain))]
        print(json.dumps({{"steps": steps, "pairs": pairs}}))
        """,
        tmp_path,
    )
    # the closed form is numpy only; the oracle loads scipy.integrate
    assert out["steps"][:2] == [[], []]
    assert "scipy.integrate" in out["steps"][2]
    for er, ei, o_r, oi in out["pairs"]:
        exact = np.array(er) + 1j * np.array(ei)
        oracle = np.array(o_r) + 1j * np.array(oi)
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(exact).max()
