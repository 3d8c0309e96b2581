import json

import numpy as np
import pytest

from lindgain import DrudeParams, RateMatrices, greens, steady_v_closed
from lindgain.cli import FIGURE_PRESETS, build_rate_model, main

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


@pytest.mark.parametrize(
    "raw",
    [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"],
    ids=["nested_100000_deep", "utf16_bom"],
)
def test_unparsable_config_rejected(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    rc = main(["rates", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert f"config {path}" in capsys.readouterr().err
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
    (CONFIG, "environment", {"abstract_rates": {"gamma_l": [[0.1]], "gamma_g": 0.05}},
     "environment.abstract_rates.gamma_l"),
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
    # -I is not the state I/2, as dividing by its negative trace would make it
    (EVOLUTION, "evolution.initial_state", [[-1, 0], [0, -1]],
     "evolution.initial_state: initial_state is not normalizable: trace -2 is not > 0"),
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


def test_initial_state_small_trace_normalized(tmp_path):
    # a trace of 1e-15 is small, not zero: the state is g, bit for bit
    for name, state in (("matrix", [[1e-15, 0], [0, 0]]), ("named", "g")):
        cfg = _with(SUBSTRATE_CFG, "evolution.initial_state", state)
        rc = main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path / name), "--quiet"])
        assert rc == 0
    csv = [(tmp_path / name / "trajectory.csv").read_bytes() for name in ("matrix", "named")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize(
    "model, gamma_l",
    [("two_level", -0.1), ("v_shaped", [[1.0, 2.0], [2.0, 1.0]])],
    ids=["two_level-negative", "v_shaped-not_psd"],
)
@pytest.mark.parametrize("command", CONFIG)
def test_not_completely_positive_rates_rejected(tmp_path, capsys, command, model, gamma_l):
    cfg = {
        "qubit": {"model": model},
        "environment": {"abstract_rates": {"gamma_l": gamma_l, "gamma_g": 0.05}},
        "evolution": {"t_max": 10.0, "n_steps": 20, "initial_state": "g"},
    }
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    assert "not PSD" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "model, bad",
    [("two_level", -0.1), ("v_shaped", [[1.0, 2.0], [2.0, 1.0]])],
    ids=["two_level", "v_shaped"],
)
@pytest.mark.parametrize("field", ["gamma_l", "gamma_g"])
@pytest.mark.parametrize("command", CONFIG)
def test_not_completely_positive_rates_name_their_field(
    tmp_path, capsys, command, field, model, bad
):
    rates = {"gamma_l": 0.1, "gamma_g": 0.05, field: bad}
    cfg = {
        "qubit": {"model": model},
        "environment": {"abstract_rates": rates},
        "evolution": {"t_max": 10.0, "n_steps": 20, "initial_state": "g"},
    }
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config field environment.abstract_rates.{field}: " in err
    assert "not PSD" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, model",
    [("steady", "two_level"), ("rates", "two_level"), ("evolve", "v_shaped")],
)
def test_overflowing_thermal_rates_rejected(tmp_path, capsys, command, model):
    """Finite config values whose thermal mix overflows give infinite rates,
    a config error that writes nothing."""
    cfg = {
        "qubit": {"model": model},
        "thermal": {"occupation": 1e300},
        "environment": {"abstract_rates": {"gamma_l": 1e10, "gamma_g": 0.1}},
        "evolution": {"t_max": 1.0, "n_steps": 4, "initial_state": "g"},
    }
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "asymptotic"])
def test_slab_tensor_function_looked_up_when_called(monkeypatch, mode):
    """The CLI calls the slab tensor function that lindgain.greens holds when
    the config is read, so a wrapper installed on the module sees the call."""
    calls = []
    for name in ("moving_slab_tensors_exact", "moving_slab_tensors_asymptotic"):
        def counting(params, name=name, original=getattr(greens, name)):
            calls.append(name)
            return original(params)
        monkeypatch.setattr(greens, name, counting)
    cfg = {
        "qubit": {"model": "v_shaped", "dipole": [1.0, 0.0, [0.0, 1.0]]},
        "environment": {"moving_slab": {**SLAB, "z_a": 3.0, "mode": mode}},
    }
    build_rate_model(cfg)
    assert calls == [f"moving_slab_tensors_{mode}"]


def _slab_rates(tmp_path, omega_a, omega_sp):
    cfg = {
        "qubit": {"model": "v_shaped", "omega_a": omega_a},
        "environment": {"moving_slab": {**SLAB, "omega_sp": omega_sp}},
    }
    rc = main(["rates", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path),
               "--quiet"])
    return rc, tmp_path / "rates.json"


def test_slab_channels_use_the_qubit_frequency(tmp_path):
    rc, path = _slab_rates(tmp_path, 1.3, 2.0)
    assert rc == 0
    record = json.loads(path.read_text())
    params = greens.SlabMotionParams(
        drude=DrudeParams(omega_sp=2.0), v=SLAB["v"],
        geometry=greens.SubstrateGeometry(z_a=SLAB["z_a"]), omega_a=1.3,
    )
    exact = greens.moving_slab_tensors_exact(params)
    oracle = greens.moving_slab_quadrature_oracle(params)
    for channel in ("loss", "gain"):
        got = np.array(record[f"tensor_{channel}"]["real"]) + 1j * np.array(
            record[f"tensor_{channel}"]["imag"]
        )
        np.testing.assert_array_equal(got, getattr(exact, channel))
        np.testing.assert_allclose(got, getattr(oracle, channel), atol=1e-6)


@pytest.mark.parametrize(
    "omega_a, omega_sp, code", [(2.0, 2.0, 4), (1.3, 1.0, 0)], ids=["k_loss_zero", "omega_sp_1"]
)
def test_slab_resonance_is_at_the_qubit_frequency(tmp_path, omega_a, omega_sp, code):
    rc, _ = _slab_rates(tmp_path, omega_a, omega_sp)
    assert rc == code


def test_slab_prefactor_overflow_rejected(tmp_path, capsys):
    # k_loss = -1e160, whose square overflows a double
    cfg = {
        "qubit": {"model": "v_shaped"},
        "environment": {"moving_slab": {"omega_sp": 2.0, "v": 1e-160, "z_a": 1e-150}},
    }
    out = tmp_path / "out"
    rc = main(["rates", "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert rc == 4
    assert "prefactor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rates", "steady"])
def test_slab_tensor_overflow_near_least_argument_rejected(tmp_path, capsys, command):
    # a finite prefactor 1.8e306 whose tensor overflows at 2|k_loss|z_a = 0.1,
    # where its zz entry e^x (K_0 + K_2) is about 223; a numpy warning fails it
    cfg = {
        "qubit": {"model": "v_shaped"},
        "environment": {
            "moving_slab": {"omega_sp": 100.0, "v": 2.2e-101, "z_a": 1.1122222222222221e-104}
        },
    }
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert rc == 4
    assert "prefactor" in capsys.readouterr().err
    assert not out.exists()


def test_subnormal_rates_accepted(tmp_path):
    # gain rates of about 1e-322: rounding alone leaves them asymmetric by
    # 1e-323, more than 1e-10 of their own subnormal norm
    cfg = {
        "qubit": {"model": "v_shaped", "dipole": [0.7071067811865476, 0, [0, 0.7071067811865476]]},
        "thermal": {"occupation": 3e-322},
        "environment": {"moving_slab": {"omega_sp": 0.999, "v": 0.01, "z_a": 4.0}},
    }
    path = write_cfg(tmp_path, cfg)
    for command in ("rates", "steady"):
        assert main([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / "steady.json").read_text())["kernel_dim"] == 1


@pytest.mark.parametrize(
    "environment",
    [SUBSTRATE_CFG["environment"], {"abstract_rates": {"gamma_l": 0.1, "gamma_g": 0.05}}],
    ids=["isotropic_substrate", "abstract_rates"],
)
def test_two_level_rates_are_one_type(environment):
    model = build_rate_model({"qubit": {"model": "two_level"}, "environment": environment})
    assert type(model["rates"]) is RateMatrices
    assert model["rates"].m == 1


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

    @pytest.mark.parametrize(
        "gamma_l, gamma_g, initial_state",
        [
            ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "e1"),
        ],
        ids=["zero_rates"],
    )
    def test_v_degenerate_outside_linear_family(
        self, tmp_path, gamma_l, gamma_g, initial_state
    ):
        cfg = {
            "qubit": {"model": "v_shaped"},
            "environment": {"abstract_rates": {"gamma_l": gamma_l, "gamma_g": gamma_g}},
            "evolution": {"initial_state": initial_state},
        }
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] > 1
        assert record["theta"] is None
        assert record["closed_form_match"] is None

    @pytest.mark.parametrize(
        "gamma_l, gamma_g",
        [([[1e-11, 0.0], [0.0, 2e-11]], [[5e-12, 0.0], [0.0, 0.0]])],
        ids=["weak_circular"],
    )
    def test_weak_rates_have_a_unique_kernel(self, tmp_path, gamma_l, gamma_g):
        cfg = {
            "qubit": {"model": "v_shaped"},
            "environment": {"abstract_rates": {"gamma_l": gamma_l, "gamma_g": gamma_g}},
            "evolution": {"initial_state": "e2"},
        }
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path), "--quiet"])
        assert rc == 0
        record = json.loads((tmp_path / "steady.json").read_text())
        assert record["kernel_dim"] == 1
        assert record["closed_form_match"] is True
        rho = np.array(record["rho"]["real"]) + 1j * np.array(record["rho"]["imag"])
        closed = steady_v_closed(RateMatrices(np.array(gamma_l), np.array(gamma_g)))
        np.testing.assert_allclose(rho, closed.rho, atol=1e-10)

    @pytest.mark.parametrize("z_a", [3.0, 6.0])
    @pytest.mark.parametrize("mode, rc_expected", [("asymptotic", 3), ("exact", 0)])
    def test_far_circular_dipole_over_moving_slab(self, tmp_path, capsys, z_a, mode, rc_expected):
        # rank-1 asymptotic tensors leave the kernel truly degenerate; the
        # exact ones give the unique ground state
        cfg = {
            "qubit": {"model": "v_shaped", "dipole": [0.5**0.5, 0.0, [0.0, 0.5**0.5]]},
            "environment": {"moving_slab": {"omega_sp": 2.0, "v": 0.2, "z_a": z_a,
                                            "g00": 0.0, "mode": mode}},
        }
        out = tmp_path / "out"
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
        assert rc == rc_expected
        if rc_expected == 3:
            assert "kernel dimension 2" in capsys.readouterr().err
            assert not out.exists()
        else:
            record = json.loads((out / "steady.json").read_text())
            assert record["kernel_dim"] == 1
            assert record["closed_form_match"] is True

    @pytest.mark.parametrize("command", ["steady", "rates"])
    def test_far_slab_with_background_loss(self, tmp_path, command):
        # the gain rates are about 1e-199, where an unscaled matrix norm reads 0
        cfg = {
            "qubit": {"model": "v_shaped", "dipole": [0.5**0.5, 0.0, [0.0, 0.5**0.5]]},
            "thermal": {"occupation": 0.0},
            "environment": {"moving_slab": {"omega_sp": 2.0, "v": 0.1, "z_a": 7.704,
                                            "g00": 1e-3}},
        }
        out = tmp_path / "out"
        rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        if command == "rates":
            gain = np.array(json.loads((out / "rates.json").read_text())["gamma_gain_matrix"]["real"])
            assert 1e-210 < gain.max() < 1e-190
        else:
            record = json.loads((out / "steady.json").read_text())
            assert record["kernel_dim"] == 1
            assert record["closed_form_match"] is True


FAR_SUBSTRATES = pytest.mark.parametrize(
    "substrate",
    [
        {**SUBSTRATE_CFG["environment"]["isotropic_substrate"], "z_a": 1e103},
        {**SUBSTRATE_CFG["environment"]["isotropic_substrate"], "eps_re": 1e160},
    ],
    ids=["z_a=1e103", "eps_re=1e160"],
)


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--omega-min", "--omega-max"])
    def test_spectrum_non_finite_bound_rejected(self, tmp_path, capsys, flag, value):
        bounds = {"--omega-min": "0.5", "--omega-max": "1.5", flag: value}
        out = tmp_path / "out"
        rc = main(["spectrum", "--config", write_cfg(tmp_path, SUBSTRATE_CFG),
                   *(f"{k}={v}" for k, v in bounds.items()), "--n", "3",
                   "--out", str(out), "--quiet"])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    # z_a^3 underflows to 0 at 1e-110; at 1e-104 the tensors overflow
    @pytest.mark.parametrize("z_a", [1e-110, 1e-104])
    @pytest.mark.parametrize(
        "command", [["rates"], ["spectrum", "--omega-min", "0.5", "--omega-max", "1.5", "--n", "3"]],
        ids=["rates", "spectrum"],
    )
    def test_substrate_tensor_overflow_rejected(self, tmp_path, capsys, command, z_a):
        cfg = json.loads(json.dumps(SUBSTRATE_CFG))
        cfg["environment"]["isotropic_substrate"]["z_a"] = z_a
        out = tmp_path / "out"
        rc = main([*command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--quiet"])
        assert rc == 4
        assert f"substrate tensors overflow a double at z_a = {z_a}" in capsys.readouterr().err
        assert not out.exists()

    # z_a^3 overflows a double at z_a 1e103, and |eps + 1|^2 at eps_re 1e160;
    # the true entries are below the least normal double (3e-310 and 1e-322), and
    # a numpy warning fails it
    @pytest.mark.parametrize(
        "command", [["rates"], ["spectrum", "--omega-min", "0.5", "--omega-max", "1.5", "--n", "3"]],
        ids=["rates", "spectrum"],
    )
    @FAR_SUBSTRATES
    def test_far_substrate_tensors_are_zero(self, tmp_path, command, substrate):
        cfg = _with(SUBSTRATE_CFG, "environment.isotropic_substrate", substrate)
        rc = main([*command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        if command == ["rates"]:
            record = json.loads((tmp_path / "rates.json").read_text())
            for name in ("tensor_loss", "tensor_gain"):
                assert not np.any(record[name]["real"]) and not np.any(record[name]["imag"])
            assert record["gamma_loss"] == record["gamma_gain"] == 0.0
        else:
            _, data = read_csv(tmp_path / "spectrum.csv")
            assert not data[:, 2:].any()

    @FAR_SUBSTRATES
    def test_far_substrate_steady_is_degenerate(self, tmp_path, capsys, substrate):
        # all rates zero, and no initial state to select a steady state
        cfg = _with(SUBSTRATE_CFG, "environment.isotropic_substrate", substrate)
        del cfg["evolution"]
        rc = main(["steady", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 3
        assert "an initial state is required" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", list(FIGURE_PRESETS))
    def test_preset_is_its_evolve_config(self, tmp_path, capsys, name):
        cfg = write_cfg(tmp_path, FIGURE_PRESETS[name])
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "evolve")]) == 0
        assert main(["figure", name, "--out", str(tmp_path / "figure")]) == 0
        assert capsys.readouterr().out.split("\n")[:2] == [
            f"wrote {tmp_path / 'evolve' / 'trajectory.csv'}",
            f"wrote {tmp_path / 'figure' / name}.csv",
        ]
        for ext in ("csv", "svg"):
            assert (tmp_path / "evolve" / f"trajectory.{ext}").read_bytes() == (
                tmp_path / "figure" / f"{name}.{ext}"
            ).read_bytes()

    def test_quiet_before_the_subcommand(self, tmp_path, capsys):
        assert main(["--quiet", "figure", "fig3b", "--out", str(tmp_path / "before")]) == 0
        assert main(["figure", "fig3b", "--out", str(tmp_path / "after"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        for ext in ("csv", "svg"):
            assert (tmp_path / "before" / f"fig3b.{ext}").read_bytes() == (
                tmp_path / "after" / f"fig3b.{ext}"
            ).read_bytes()

    def test_determinism(self, tmp_path):
        for d in ("a", "b"):
            assert main(["figure", "fig2a", "--out", str(tmp_path / d), "--quiet"]) == 0
        assert (tmp_path / "a" / "fig2a.csv").read_bytes() == (
            tmp_path / "b" / "fig2a.csv"
        ).read_bytes()
