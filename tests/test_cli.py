import json

import numpy as np
import pytest

from lindgain.cli import main

SUBSTRATE_CFG = {
    "qubit": {"model": "two_level", "dipole": [1.0, 0.0, 0.0]},
    "environment": {
        "isotropic_substrate": {
            "eps_re": -1.0,
            "eps_im": 0.2,
            "eps_loss": 0.3,
            "eps_gain": -0.1,
            "z_a": 1.0,
        }
    },
    "thermal": {"occupation": 0.0},
    "evolution": {"t_max": 100.0, "n_steps": 200, "initial_state": "g"},
}

FIG2_CFG = {
    "qubit": {"model": "v_shaped"},
    "environment": {"abstract_rates": {"gamma_l": 0.1, "gamma_g": 0.05}},
    "evolution": {"t_max": 500.0, "n_steps": 1000, "initial_state": "g"},
}

FIG3_CFG = {
    "qubit": {"model": "v_shaped"},
    "environment": {
        "abstract_rates": {
            "gamma_l": [[0.1, 0.0], [0.0, 0.175]],
            "gamma_g": [[0.075, 0.0], [0.0, 0.0]],
        }
    },
    "evolution": {"t_max": 500.0, "n_steps": 1000, "initial_state": "e2"},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestEvolve:
    def test_fig2a_final_state(self, tmp_path):
        cfg = dict(FIG2_CFG)
        cfg["evolution"] = {"t_max": 500.0, "n_steps": 1000, "initial_state": "e1"}
        rc = main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert header[:3] == ["t", "rho_gg", "rho_e1e1"]
        assert data[-1, 1] == pytest.approx(1 / 3, abs=1e-3)
        assert (tmp_path / "trajectory.svg").exists()

    def test_fig3a_final_state(self, tmp_path):
        rc = main(["evolve", "--config", write_cfg(tmp_path, FIG3_CFG), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert data[-1, 3] <= 1e-6  # rho_e2e2
        assert data[-1, 1] == pytest.approx(4 / 7, abs=1e-3)

    def test_trajectory_rows_satisfy_invariants(self, tmp_path):
        rc = main(["evolve", "--config", write_cfg(tmp_path, SUBSTRATE_CFG),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        trace = data[:, header.index("trace")]
        mineig = data[:, header.index("min_eigenvalue")]
        assert np.abs(trace - 1.0).max() <= 1e-9
        assert mineig.min() >= -1e-9

    def test_missing_field_exit_code(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SUBSTRATE_CFG))
        del cfg["environment"]["isotropic_substrate"]["z_a"]
        rc = main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 2
        assert "environment.isotropic_substrate.z_a" in capsys.readouterr().err


    def test_svg_write_failure_exit_code(self, tmp_path):
        (tmp_path / "trajectory.svg").mkdir()
        rc = main(["evolve", "--config", write_cfg(tmp_path, SUBSTRATE_CFG),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 5


NON_FINITE = [
    "NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="1e400")
]


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("command", ["evolve", "steady", "rates"])
def test_non_finite_config_rejected(tmp_path, command, literal):
    cfg = {
        "qubit": {"model": "two_level"},
        "environment": {"abstract_rates": {"gamma_l": "X", "gamma_g": 0.05}},
        "evolution": {"t_max": 10.0, "n_steps": 20, "initial_state": "e"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"X"', literal))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()


def _with(cfg, path, value):
    """A deep copy of cfg with the dotted path set to value."""
    cfg = json.loads(json.dumps(cfg))
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return cfg


SLAB = {"omega_sp": 2.0, "v": 0.2, "z_a": 0.3}
CONFIG = ("evolve", "steady", "rates")
EVOLUTION = ("evolve", "steady")

# (commands, dotted path set in SUBSTRATE_CFG, value, path named in the error)
WRONG_TYPED = [
    (CONFIG, "thermal", 5, "thermal"),
    (CONFIG, "thermal.occupation", "hot", "thermal.occupation"),
    (CONFIG, "thermal.occupation", True, "thermal.occupation"),
    (CONFIG, "environment.isotropic_substrate", 5, "environment.isotropic_substrate"),
    (CONFIG, "environment.isotropic_substrate.z_a", "x",
     "environment.isotropic_substrate.z_a"),
    (CONFIG, "environment.isotropic_substrate.z_a", True,
     "environment.isotropic_substrate.z_a"),
    (CONFIG, "environment.isotropic_substrate.eps_re", "x",
     "environment.isotropic_substrate.eps_re"),
    (CONFIG, "environment", {"moving_slab": {**SLAB, "v": "fast"}},
     "environment.moving_slab.v"),
    (CONFIG, "environment", {"moving_slab": {**SLAB, "mode": 1}},
     "environment.moving_slab.mode"),
    (CONFIG, "environment.moving_slab", SLAB, "environment"),
    (CONFIG, "environment", {}, "environment"),
    (CONFIG, "qubit.dipole", 5, "qubit.dipole"),
    (CONFIG, "qubit.dipole", [1.0, 0.0], "qubit.dipole"),
    (CONFIG, "qubit.omega_a", "x", "qubit.omega_a"),
    (CONFIG, "qubit.model", ["two_level"], "qubit.model"),
    (("evolve",), "evolution.n_steps", "many", "evolution.n_steps"),
    (("evolve",), "evolution.n_steps", 20.7, "evolution.n_steps"),
    (("evolve",), "evolution.n_steps", True, "evolution.n_steps"),
    (("evolve",), "evolution.t_max", [1], "evolution.t_max"),
    (("evolve",), "evolution.t_max", None, "evolution.t_max"),
    (("evolve",), "output", 3, "output"),
    (("evolve",), "output.plot", "no", "output.plot"),
    (EVOLUTION, "evolution", 3, "evolution"),
    (EVOLUTION, "evolution.initial_state", 3, "evolution.initial_state"),
    (EVOLUTION, "evolution.initial_state", "e1", "evolution.initial_state"),
    (EVOLUTION, "evolution.initial_state", [[1, 0], [0]], "evolution.initial_state"),
    (EVOLUTION, "evolution.initial_state", [[1, 2], [2, 0]], "evolution.initial_state"),
]


@pytest.mark.parametrize(
    "command, path, value, shown",
    [
        pytest.param(command, path, value, shown, id=f"{command}-{path}={json.dumps(value)}")
        for commands, path, value, shown in WRONG_TYPED
        for command in commands
    ],
)
def test_wrong_typed_config_rejected(tmp_path, capsys, command, path, value, shown):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, _with(SUBSTRATE_CFG, path, value))
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 2
    assert f"config field {shown}" in capsys.readouterr().err
    assert not out.exists()


class TestSteady:
    def test_two_level_abstract_rates(self, tmp_path):
        cfg = {
            "qubit": {"model": "two_level"},
            "environment": {"abstract_rates": {"gamma_l": 0.1, "gamma_g": 0.05}},
        }
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] == 1
        assert record["rho"]["real"][1][1] == pytest.approx(1 / 3, abs=1e-10)
        assert record["closed_form_match"] is True

    def test_linear_preset_reports_theta(self, tmp_path):
        rc = main(["steady", "--config", write_cfg(tmp_path, FIG2_CFG), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] == 2
        assert record["theta"] == pytest.approx(np.pi / 4, abs=1e-6)

    def test_fig3a_unique_kernel(self, tmp_path):
        rc = main(["steady", "--config", write_cfg(tmp_path, FIG3_CFG), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] == 1

    def test_degenerate_without_initial_state(self, tmp_path):
        cfg = dict(FIG2_CFG)
        cfg["evolution"] = {}
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 3

    @pytest.mark.parametrize(
        "environment",
        [
            {"abstract_rates": {"gamma_l": 0.0, "gamma_g": 0.0}},
            {"isotropic_substrate": {"eps_re": -3.0, "eps_im": 0.0, "eps_loss": 0.0,
                                     "eps_gain": 0.0, "z_a": 1.0}},
        ],
        ids=["abstract_rates", "lossless_substrate"],
    )
    def test_two_level_zero_rates(self, tmp_path, environment):
        cfg = {
            "qubit": {"model": "two_level"},
            "environment": environment,
            "evolution": {"initial_state": "e"},
        }
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] == 2
        rho = np.array(record["rho"]["real"]) + 1j * np.array(record["rho"]["imag"])
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)
        assert record["closed_form_match"] is None


class TestRatesAndSpectrum:
    def test_rates_reproduces_substrate_tensors(self, tmp_path):
        rc = main(["rates", "--config", write_cfg(tmp_path, SUBSTRATE_CFG),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "rates.json").read_text())
        loss = np.array(record["tensor_loss"]["real"])
        np.testing.assert_allclose(
            np.diag(loss), [0.14921, 0.14921, 0.29842], rtol=1e-4
        )
        assert record["gamma_loss"] == pytest.approx(0.29842, rel=1e-4)
        assert record["gamma_gain"] == pytest.approx(0.099472, rel=1e-4)

    def test_spectrum_single_point(self, tmp_path):
        rc = main(["spectrum", "--config", write_cfg(tmp_path, SUBSTRATE_CFG),
                   "--omega-min", "1.0", "--omega-max", "1.0", "--n", "1",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header plus one data row

    def test_spectrum_passive_form(self, tmp_path):
        cfg = json.loads(json.dumps(SUBSTRATE_CFG))
        sub = cfg["environment"]["isotropic_substrate"]
        sub.update({"eps_im": 0.3, "eps_loss": 0.3, "eps_gain": 0.0})
        rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg),
                   "--omega-min", "0.5", "--omega-max", "1.5", "--n", "5",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, data = read_csv(tmp_path / "spectrum.csv")
        eps = complex(sub["eps_re"], sub["eps_im"])
        im_r = -2.0 * eps.imag / abs(1 + eps) ** 2
        expect_xx = (2.0 / np.pi) * 0.5 * -im_r / (4 * np.pi * 8.0)
        np.testing.assert_allclose(data[:, 2], expect_xx, rtol=1e-10)


class TestFigurePresets:
    def test_fig2_memory_effect(self, tmp_path):
        for name in ("fig2a", "fig2b", "fig2c"):
            assert main(["figure", name, "--out", str(tmp_path), "--quiet"]) == 0
        _, a = read_csv(tmp_path / "fig2a.csv")
        _, b = read_csv(tmp_path / "fig2b.csv")
        _, c = read_csv(tmp_path / "fig2c.csv")
        # same limit for bright and ground initial states
        assert np.abs(b[-1, 1:4] - c[-1, 1:4]).max() <= 1e-6
        # distinct limit when starting from e1
        assert abs(a[-1, 1] - b[-1, 1]) >= 0.05
        # symmetric initial states keep the two excited populations equal
        assert np.abs(b[:, 2] - b[:, 3]).max() <= 1e-10
        assert np.abs(c[:, 2] - c[:, 3]).max() <= 1e-10
        assert abs(a[-1, 2] - a[-1, 3]) <= 1e-8

    def test_fig3b_limits(self, tmp_path):
        assert main(["figure", "fig3b", "--out", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / "fig3b.csv")
        assert data.shape[0] == 64
        # first point is n = 0.01, so allow a small offset from the n -> 0 limit
        np.testing.assert_allclose(
            data[0, 1:], [4 / 7, 3 / 7, 0.0], atol=1e-2
        )
        np.testing.assert_allclose(data[-1, 1:], 1 / 3, atol=1e-2)

    def test_parallel_matches_serial(self, tmp_path):
        assert main(["figure", "fig3b", "--out", str(tmp_path / "s"), "--quiet"]) == 0
        assert main(["--parallel", "figure", "fig3b", "--out",
                     str(tmp_path / "p"), "--quiet"]) == 0
        assert (tmp_path / "s" / "fig3b.csv").read_bytes() == (
            tmp_path / "p" / "fig3b.csv"
        ).read_bytes()

    def test_determinism(self, tmp_path):
        for d in ("a", "b"):
            assert main(["figure", "fig2a", "--out", str(tmp_path / d), "--quiet"]) == 0
        assert (tmp_path / "a" / "fig2a.csv").read_bytes() == (
            tmp_path / "b" / "fig2a.csv"
        ).read_bytes()
