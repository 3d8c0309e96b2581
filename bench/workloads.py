"""Workloads of the lindgain benchmark: seeded op lists, op execution through
the public entry points of ``lindgain.cli``, and the reference checks that
decide whether an op succeeded.

An op is a JSON-serialisable dict.  ``make_ops(workload, seed)`` returns one
cycle of ops; a run repeats the cycle.  The seed draws the physics of every
op (materials, heights, occupations, rates, initial states).  The sizes that
set an op's cost (steps, points) are drawn in fixed strata with a small
seeded jitter, so that every seed gives a different op list with the same
work per cycle and runs with different seeds stay comparable.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from lindgain import cli, greens, master
from lindgain.errors import LindgainError
from lindgain.material import DrudeParams

WORKLOADS = ("trajectory", "sweep", "cli")

TRACING = Path(__file__).resolve().parent / "tracing.py"

# Tolerances of the reference checks.  Outputs are printed with 12
# significant digits; the kernel and closed forms agree to ~1e-12 wherever
# the kernel solve succeeds.
STATE_TOL = 1e-8
INVARIANT_TOL = 1e-9
SPECTRUM_RTOL = 1e-9
ORACLE_RTOL = 1e-6

# The figure presets, restated here so that the checks do not read them from
# the program under test.
PRESET_T_MAX, PRESET_N_STEPS = 500.0, 2000
_FIG2 = (0.1 * np.ones((2, 2)), 0.05 * np.ones((2, 2)))
_FIG3 = (np.diag([0.1, 0.175]), np.diag([0.075, 0.0]))
PRESETS = {
    "fig2a": (_FIG2, "e1"),
    "fig2b": (_FIG2, "bright"),
    "fig2c": (_FIG2, "g"),
    "fig3a": (_FIG3, "e2"),
}
_S = 1.0 / np.sqrt(2.0)
STATES = {
    "two_level": {"g": [1.0, 0.0], "e": [0.0, 1.0]},
    "v_shaped": {
        "g": [1.0, 0.0, 0.0],
        "e1": [0.0, 1.0, 0.0],
        "e2": [0.0, 0.0, 1.0],
        "bright": [0.0, _S, _S],
        "dark": [0.0, _S, -_S],
    },
}

# Moving-slab heights are drawn through the loss-channel argument
# x = 2|k_L| z_a of the closed form, over its validity range [0.1, ...).  The
# top stratum, x > ~20, is weak dissipation: steady_state_kernel misreads the
# unique kernel there and raises DegenerateKernelError.  It stays in the data.
SLAB_X = (0.2, 60.0)
ASYMPTOTIC_X = (5.5, 60.0)
N_HEIGHTS = 5
OCCUPATIONS = (0.01, 10.0)


# ---------------------------------------------------------------------------
# seeded generators


def _jitter(rng, level: float, width: float = 0.1) -> float:
    return level * (1.0 + width * (rng.random() - 0.5))


def _log_strata(rng, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw from each of k equal log-width strata of [lo, hi]."""
    edges = np.log(lo) + (np.log(hi) - np.log(lo)) * (np.arange(k) + rng.random(k)) / k
    return [float(x) for x in np.exp(edges)]


def _r(x: float) -> float:
    return float(f"{x:.6g}")


def _substrate(rng, z_a: float) -> dict:
    eps_loss = _r(rng.uniform(0.1, 0.5))
    eps_gain = -_r(rng.uniform(0.0, 0.8) * eps_loss)
    return {
        "isotropic_substrate": {
            "eps_re": _r(rng.uniform(-4.0, -1.3)),
            "eps_im": eps_loss + eps_gain,
            "eps_loss": eps_loss,
            "eps_gain": eps_gain,
            "z_a": _r(z_a),
        }
    }


def _slab(rng, x: float, mode: str = "exact") -> dict:
    omega_sp = _r(rng.uniform(1.5, 3.0))
    v = _r(rng.uniform(0.15, 0.3))
    k_loss = abs(1.0 - omega_sp) / v
    return {
        "moving_slab": {
            "omega_sp": omega_sp,
            "v": v,
            "z_a": _r(x / (2.0 * k_loss)),
            "g00": 0.0,
            "mode": mode,
        }
    }


def _circular(rng) -> list:
    """Circular dipole in the xz plane, (1, 0, +-i)/sqrt(2)."""
    return [_S, 0.0, [0.0, float(rng.choice([-1.0, 1.0])) * _S]]


def _psd2(rng, scale: float) -> list:
    """Seeded 2x2 Kossakowski matrix (Hermitian PSD) as JSON [re, im] pairs."""
    a, b = (_r(scale * rng.uniform(0.2, 1.0)) for _ in range(2))
    c = rng.uniform(0.0, 0.9) * np.sqrt(a * b) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = complex(_r(c.real), _r(c.imag))
    return [[a, [c.real, c.imag]], [[c.real, -c.imag], b]]


def _qubit(model: str, dipole=None) -> dict:
    q = {"model": model}
    if dipole is not None:
        q["dipole"] = dipole
    return q


def _state(rng, model: str) -> str:
    return str(rng.choice(sorted(STATES[model])))


def _evolve_cfg(rng, kind: str, n_steps: int) -> dict:
    if kind == "substrate":
        model, env = "two_level", _substrate(rng, rng.uniform(0.3, 3.0))
        dipole = [float(x) for x in rng.permutation([1.0, 0.0, 0.0])]
    elif kind in ("slab_exact", "slab_asymptotic"):
        mode = kind.split("_")[1]
        lo, hi = ASYMPTOTIC_X if mode == "asymptotic" else SLAB_X
        model, env = "v_shaped", _slab(rng, _log_strata(rng, lo, hi, 1)[0], mode)
        dipole = _circular(rng)
    else:
        model, dipole = "v_shaped", None
        env = {"abstract_rates": {"gamma_l": _psd2(rng, 0.2), "gamma_g": _psd2(rng, 0.1)}}
    return {
        "qubit": _qubit(model, dipole),
        "environment": env,
        "thermal": {"occupation": _r(_log_strata(rng, *OCCUPATIONS, 1)[0])},
        "evolution": {
            "t_max": _r(rng.uniform(50.0, 500.0)),
            "n_steps": n_steps,
            "initial_state": _state(rng, model),
        },
    }


def _sample_rows(rng, n_steps: int, k: int = 4) -> list[int]:
    return sorted({int(i) for i in rng.integers(1, n_steps, size=k)} | {n_steps})


def _steady_point(rng, env_kind: str, height: float, occupation: float) -> tuple[dict, str]:
    """One steady-state config and the family of its reference."""
    cfg = {"thermal": {"occupation": _r(occupation)}}
    if env_kind == "substrate":
        cfg["qubit"] = _qubit("two_level", [1.0, 0.0, 0.0])
        cfg["environment"] = _substrate(rng, height)
        return cfg, "two_level"
    if env_kind == "slab":
        cfg["qubit"] = _qubit("v_shaped", _circular(rng))
        cfg["environment"] = _slab(rng, height)
        return cfg, "v_unique"
    cfg["qubit"] = _qubit("v_shaped")
    if env_kind == "linear":
        # all-equal Kossakowski matrices: the kernel is degenerate, so the
        # user supplies an initial state
        cfg["environment"] = {
            "abstract_rates": {
                "gamma_l": _r(height * rng.uniform(0.5, 1.0)),
                "gamma_g": _r(height * rng.uniform(0.0, 0.5)),
            }
        }
        cfg["evolution"] = {"initial_state": _state(rng, "v_shaped")}
        return cfg, "v_linear"
    loss = [[_r(height * rng.uniform(0.2, 1.0)), 0.0], [0.0, _r(height * rng.uniform(0.2, 1.0))]]
    gain = [[_r(height * rng.uniform(0.0, 0.5)), 0.0], [0.0, _r(height * rng.uniform(0.0, 0.5))]]
    cfg["environment"] = {"abstract_rates": {"gamma_l": loss, "gamma_g": gain}}
    return cfg, "v_unique"


# The second grid axis: qubit height for the substrate and the slab (slab
# heights as the closed-form argument x), rate scale for abstract rates,
# whose rates stand for the height dependence of a real environment.
GRID_HEIGHTS = {
    "substrate": (0.2, 4.0),
    "slab": SLAB_X,
    "linear": (1e-3, 1.0),
    "circular": (1e-3, 1.0),
}


def _grid(rng, env_kind: str, n_occ: int, n_heights: int) -> dict:
    occs = _log_strata(rng, *OCCUPATIONS, n_occ)
    heights = _log_strata(rng, *GRID_HEIGHTS[env_kind], n_heights)
    points = [_steady_point(rng, env_kind, h, n) for h in heights for n in occs]
    op = {
        "kind": "steady_grid",
        "env": env_kind,
        "cfgs": [c for c, _ in points],
        "families": [f for _, f in points],
    }
    if env_kind == "slab":
        op["oracle"] = [int(rng.integers(len(points)))]
    return op


def _spectrum(rng, n: int) -> dict:
    lo = _r(rng.uniform(0.5, 1.0))
    return {
        "kind": "spectrum",
        "cfg": {
            "environment": _substrate(rng, rng.uniform(0.3, 3.0)),
            "thermal": {"occupation": _r(_log_strata(rng, *OCCUPATIONS, 1)[0])},
        },
        "omega_min": lo,
        "omega_max": _r(lo + rng.uniform(0.5, 1.0)),
        "n": n,
    }


def _trajectory_ops(rng, tiny: bool) -> list[dict]:
    presets = ["fig2a"] if tiny else list(PRESETS)
    ops = [{"kind": "figure", "name": p, "rows": _sample_rows(rng, PRESET_N_STEPS)} for p in presets]
    kinds = ["substrate", "slab_exact", "slab_asymptotic", "abstract"]
    if not tiny:
        kinds = kinds * 2
    # log-spaced step counts over [500, 4000], one per stratum, in seeded order
    levels = 500.0 * 8.0 ** ((np.arange(len(kinds)) + 0.5) / len(kinds))
    for kind, level in zip(kinds, rng.permutation(levels)):
        n_steps = max(4, int(round(_jitter(rng, level) / (40 if tiny else 1))))
        cfg = _evolve_cfg(rng, kind, n_steps)
        ops.append({"kind": "evolve", "env": kind, "cfg": cfg, "rows": _sample_rows(rng, n_steps)})
    return [ops[i] for i in rng.permutation(len(ops))]


def _sweep_ops(rng, tiny: bool) -> list[dict]:
    n_occ, n_heights = (2, 2) if tiny else (4, N_HEIGHTS)
    ops = [{"kind": "fig3b_sweep", "n": int(round(_jitter(rng, lv)))} for lv in ((6,) if tiny else (48, 96))]
    ops += [_grid(rng, env, n_occ, n_heights) for env in GRID_HEIGHTS]
    ops += [_spectrum(rng, int(round(_jitter(rng, lv)))) for lv in ((8,) if tiny else (96, 384))]
    return [ops[i] for i in rng.permutation(len(ops))]


def _malformed(rng) -> dict:
    """A config the CLI must reject with exit code 2."""
    cfg = _evolve_cfg(rng, "substrate", 100)
    flaw = str(rng.choice(["missing_height", "unknown_model", "not_json"]))
    if flaw == "missing_height":
        del cfg["environment"]["isotropic_substrate"]["z_a"]
    elif flaw == "unknown_model":
        cfg["qubit"]["model"] = "three_level"
    text = json.dumps(cfg)
    if flaw == "not_json":
        text = text[: len(text) // 2]
    return {"kind": "cli", "sub": "evolve", "flaw": flaw, "text": text, "expect": 2}


def _cli(sub: str, cfg: dict | None = None, **extra) -> dict:
    op = {"kind": "cli", "sub": sub, "expect": 0, **extra}
    if cfg is not None:
        op["text"] = json.dumps(cfg)
    return op


def _cli_ops(rng, tiny: bool) -> list[dict]:
    heights = _log_strata(rng, *SLAB_X, 2 if tiny else N_HEIGHTS)
    steady = [_steady_point(rng, "slab", x, _log_strata(rng, *OCCUPATIONS, 1)[0]) for x in heights]
    if not tiny:
        steady.append(_steady_point(rng, "substrate", rng.uniform(0.2, 4.0), 0.5))
        steady.append(_steady_point(rng, "linear", rng.uniform(0.01, 1.0), 0.5))
    ops = [_cli("steady", c, family=f) for c, f in steady]
    ops += [_cli("figure", name=p, rows=_sample_rows(rng, PRESET_N_STEPS))
            for p in (["fig3b"] if tiny else [*PRESETS, "fig3b"])]
    levels = (40, 80) if tiny else (1000, 2000, 3000)
    for kind, level in zip(("substrate", "slab_exact", "abstract"), rng.permutation(levels)):
        n_steps = int(round(_jitter(rng, level)))
        ops.append(_cli("evolve", _evolve_cfg(rng, kind, n_steps), rows=_sample_rows(rng, n_steps)))
    ops.append(_cli("rates", _steady_point(rng, "substrate", rng.uniform(0.2, 4.0), 0.5)[0]))
    if not tiny:
        x = _log_strata(rng, 0.5, 15.0, 1)[0]
        ops.append(_cli("rates", _steady_point(rng, "slab", x, 0.5)[0]))
    spec = _spectrum(rng, 8 if tiny else int(round(_jitter(rng, 256))))
    ops.append(_cli("spectrum", spec["cfg"], **{k: spec[k] for k in ("omega_min", "omega_max", "n")}))
    ops.append(_malformed(rng))
    return [ops[i] for i in rng.permutation(len(ops))]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """One cycle of ops for ``workload``, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"trajectory": _trajectory_ops, "sweep": _sweep_ops, "cli": _cli_ops}[workload](rng, tiny)


# ---------------------------------------------------------------------------
# execution


def run_inprocess(op: dict, out: Path):
    """Run one in-process op.  Returns what the check needs that is not on
    disk: the fig3b rows, or the error class of each failed grid point."""
    kind = op["kind"]
    if kind == "figure":
        cli.run_figure(op["name"], out, quiet=True)
    elif kind == "evolve":
        cli.run_evolve(op["cfg"], out, quiet=True)
    elif kind == "fig3b_sweep":
        return cli.fig3b_sweep(op["n"])
    elif kind == "spectrum":
        cli.run_spectrum(op["cfg"], op["omega_min"], op["omega_max"], op["n"], out, quiet=True)
    elif kind == "steady_grid":
        errors = {}
        for i, cfg in enumerate(op["cfgs"]):
            try:
                cli.run_steady(cfg, out / f"p{i}", quiet=True)
            except LindgainError as exc:
                errors[i] = type(exc).__name__
        return errors
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return None


def cli_argv(op: dict, out: Path) -> list[str]:
    """Arguments of ``lindgain`` for a cli op; its config is out/cfg.json."""
    if op["sub"] == "figure":
        argv = ["figure", op["name"]]
    else:
        argv = [op["sub"], "--config", str(out / "cfg.json")]
    if op["sub"] == "spectrum":
        argv += ["--omega-min", repr(op["omega_min"]), "--omega-max", repr(op["omega_max"]),
                 "--n", str(op["n"])]
    return argv + ["--out", str(out), "--quiet"]


def prepare_cli(op: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if "text" in op:
        (out / "cfg.json").write_text(op["text"])


def run_cli(op: dict, out: Path, python: str, env: dict, trace_json: Path | None = None):
    """Run one cli op as a fresh process; returns the completed process.

    Untraced: ``python -m lindgain.cli ARGV``, the console script's entry
    point.  Traced: the benchmark's child runner under ``-X importtime``."""
    if trace_json is None:
        cmd = [python, "-m", "lindgain.cli"]
    else:
        cmd = [python, "-X", "importtime", str(TRACING), str(trace_json)]
    return subprocess.run(
        cmd + cli_argv(op, out), cwd=out, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )


# ---------------------------------------------------------------------------
# reference checks


class Verdict:
    """Outcome of the reference checks of one op.

    ``errors`` are ops or points that raised or exited non-zero where success
    was expected; ``wrong`` are outputs that disagree with a reference.  Both
    make the op failed; only ``wrong`` makes the run incorrect."""

    def __init__(self):
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.checks = 0
        self.max_err = 0.0
        self.rows = 0

    def compare(self, what: str, err: float, tol: float) -> None:
        self.checks += 1
        self.max_err = max(self.max_err, float(err))
        if not err <= tol:
            self.wrong.append(f"{what}: {err:.3e} > {tol:.0e}")

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


def lindblad_reference(loss: np.ndarray, gain: np.ndarray, omega_a: float) -> np.ndarray:
    """Column-stacked Lindblad generator of a qubit with m = loss.shape[0]
    excited levels, written independently of ``lindgain.master``:
    L rho = -i[H, rho] + sum_ij loss_ij (s_j rho s_i^+ - {s_i^+ s_j, rho}/2)
                       + sum_ij gain_ij (s_i^+ rho s_j - {s_j s_i^+, rho}/2),
    with s_j = |g><e_j|."""
    m = loss.shape[0]
    eye = np.eye(m + 1)
    low = [np.outer(eye[0], eye[j + 1]).astype(complex) for j in range(m)]

    def left(a):  # vec(a rho)
        return np.kron(eye, a)

    def right(b):  # vec(rho b)
        return np.kron(b.T, eye)

    def dissipator(a, b):  # a rho b - {b a, rho}/2
        return left(a) @ right(b) - 0.5 * (left(b @ a) + right(b @ a))

    h = omega_a * np.diag([0.0] + [1.0] * m)
    gen = -1j * (left(h) - right(h))
    for i in range(m):
        for j in range(m):
            gen = gen + loss[i, j] * dissipator(low[j], low[i].conj().T)
            gen = gen + gain[i, j] * dissipator(low[i].conj().T, low[j])
    return gen


def _rate_arrays(rates) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(rates, master.RatePair):
        return np.array([[rates.gamma_loss]]), np.array([[rates.gamma_gain]])
    return rates.loss, rates.gain


def _pure(model: str, label: str) -> np.ndarray:
    psi = np.array(STATES[model][label], dtype=complex)
    return np.outer(psi, psi.conj())


def _columns(rho: np.ndarray) -> np.ndarray:
    """The state columns of trajectory.csv, between t and trace."""
    if rho.shape == (2, 2):
        return np.array([rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag])
    return np.array([rho[0, 0].real, rho[1, 1].real, rho[2, 2].real, rho[1, 2].real, rho[1, 2].imag])


def check_trajectory(v: Verdict, csv: Path, loss, gain, omega_a, rho0, t_max, n_steps, rows) -> None:
    """Every row's trace and min_eigenvalue; sampled rows against
    expm(L t_k) vec(rho0) from the benchmark's own generator."""
    data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != n_steps + 1:
        v.wrong.append(f"{csv.name}: {data.shape[0]} rows, expected {n_steps + 1}")
        return
    times = np.linspace(0.0, t_max, n_steps + 1)
    v.compare("time grid", np.abs(data[:, 0] - times).max(), INVARIANT_TOL * t_max)
    v.compare("trace column", np.abs(data[:, -2] - 1.0).max(), INVARIANT_TOL)
    v.compare("min_eigenvalue column", max(0.0, -data[:, -1].min()), INVARIANT_TOL)
    gen = lindblad_reference(loss, gain, omega_a)
    dim = rho0.shape[0]
    for k in rows:
        rho = (expm(gen * times[k]) @ rho0.reshape(-1, order="F")).reshape(dim, dim, order="F")
        v.compare(f"row {k} vs expm", np.abs(data[k, 1:-2] - _columns(rho)).max(), STATE_TOL)
    v.rows += n_steps + 1


def _steady_reference(v: Verdict, rho: np.ndarray, family: str, rates) -> None:
    v.compare("steady trace", abs(np.trace(rho).real - 1.0), INVARIANT_TOL)
    v.compare("steady positivity", max(0.0, -np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()),
              INVARIANT_TOL)
    if family == "two_level":
        err = np.abs(rho - master.steady_two_level_closed(rates).rho).max()
    elif family == "v_unique":
        err = np.abs(rho - master.steady_v_closed(rates).rho).max()
    else:
        scalar = master.RatePair(float(rates.loss[0, 0].real), float(rates.gain[0, 0].real))
        _, err = master.fit_linear_family_theta(master.DensityMatrix(rho, master.V_LABELS), scalar)
    v.compare(f"steady state vs {family} reference", err, STATE_TOL)
    v.rows += 1


def check_steady_json(v: Verdict, path: Path, cfg: dict, family: str) -> None:
    rec = json.loads(path.read_text())
    rho = np.array(rec["rho"]["real"]) + 1j * np.array(rec["rho"]["imag"])
    _steady_reference(v, rho, family, cli.build_rate_model(cfg)["rates"])


def _thermal(loss, gain, n):
    return (1.0 + n) * loss + n * gain, (1.0 + n) * gain + n * loss


def check_fig3b_rows(v: Verdict, rows, n_points: int) -> None:
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    if rows.shape[0] != n_points:
        v.wrong.append(f"fig3b: {rows.shape[0]} rows, expected {n_points}")
        return
    v.compare("fig3b grid", np.abs(rows[:, 0] / np.logspace(-2.0, 3.0, n_points) - 1.0).max(),
              SPECTRUM_RTOL)
    for n, *pops in rows:
        loss, gain = _thermal(*_FIG3, n)
        ref = master.steady_v_closed(master.RateMatrices(loss=loss, gain=gain)).rho
        v.compare("fig3b row vs closed form", np.abs(np.array(pops) - np.diag(ref).real).max(),
                  STATE_TOL)
    v.rows += n_points


def _substrate_tensors(sub: dict) -> tuple[np.ndarray, np.ndarray]:
    eps = complex(sub["eps_re"], sub["eps_im"])
    base = np.diag([1.0, 1.0, 2.0]) / (16.0 * np.pi * sub["z_a"] ** 3 * abs(eps + 1.0) ** 2)
    return sub["eps_loss"] * base, abs(sub["eps_gain"]) * base


def check_spectrum_csv(v: Verdict, csv: Path, op: dict) -> None:
    data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    n = op["n"]
    if data.shape[0] != n:
        v.wrong.append(f"spectrum: {data.shape[0]} rows, expected {n}")
        return
    occ = op["cfg"]["thermal"]["occupation"]
    loss, gain = _substrate_tensors(op["cfg"]["environment"]["isotropic_substrate"])
    ref = (2.0 / np.pi) * (occ + 0.5) * np.diag(loss + gain)
    omegas = np.linspace(op["omega_min"], op["omega_max"], n) if n > 1 else [op["omega_min"]]
    v.compare("spectrum omega grid", np.abs(data[:, 0] / omegas - 1.0).max(), SPECTRUM_RTOL)
    v.compare("spectrum vs formula", np.abs(data[:, 2:5] / ref - 1.0).max(), SPECTRUM_RTOL)
    v.rows += n


def _slab_params(env: dict) -> greens.SlabMotionParams:
    s = env["moving_slab"]
    return greens.SlabMotionParams(
        drude=DrudeParams(omega_sp=s["omega_sp"]), v=s["v"],
        geometry=greens.SubstrateGeometry(z_a=s["z_a"]), g00=s.get("g00", 0.0),
    )


def _dominant_rel_err(e: np.ndarray, o: np.ndarray) -> float:
    dom = np.abs(e) >= 1e-3 * np.abs(e).max()
    return float((np.abs(e - o)[dom] / np.abs(e)[dom]).max()) if dom.any() else float(np.abs(o).max())


def check_oracle(v: Verdict, env: dict, loss=None, gain=None) -> None:
    """Slab tensors (the closed form, or the given ones) against the
    independent quadrature oracle."""
    p = _slab_params(env)
    if loss is None:
        pair = greens.moving_slab_tensors_exact(p)
        loss, gain = pair.loss, pair.gain
    else:
        loss = loss - p.g00 * np.eye(3)
    oracle = greens.moving_slab_quadrature_oracle(p)
    v.compare("slab tensors vs quadrature oracle",
              max(_dominant_rel_err(loss, oracle.loss), _dominant_rel_err(gain, oracle.gain)),
              ORACLE_RTOL)


def _matrix(rec: dict) -> np.ndarray:
    return np.array(rec["real"]) + 1j * np.array(rec["imag"])


def check_rates_json(v: Verdict, path: Path, cfg: dict) -> None:
    rec = json.loads(path.read_text())
    env = cfg["environment"]
    if "moving_slab" in env:
        check_oracle(v, env, _matrix(rec["tensor_loss"]), _matrix(rec["tensor_gain"]))
    else:
        loss, gain = _thermal(*_substrate_tensors(env["isotropic_substrate"]),
                              cfg["thermal"]["occupation"])
        d = np.asarray(cfg["qubit"]["dipole"], dtype=complex)
        ref = np.array([2.0 * np.real(d.conj() @ t @ d) for t in (loss, gain)])
        got = np.array([rec["gamma_loss"], rec["gamma_gain"]])
        v.compare("substrate rates vs formula", np.abs(got / ref - 1.0).max(), SPECTRUM_RTOL)
    v.rows += 1


def _check_figure(v: Verdict, out: Path, name: str, rows: list[int]) -> None:
    if name == "fig3b":
        data = np.loadtxt(out / "fig3b.csv", delimiter=",", skiprows=1, ndmin=2)
        check_fig3b_rows(v, data, 64)
        return
    (loss, gain), init = PRESETS[name]
    check_trajectory(v, out / f"{name}.csv", loss, gain, 1.0, _pure("v_shaped", init),
                     PRESET_T_MAX, PRESET_N_STEPS, rows)


def _check_evolve(v: Verdict, out: Path, cfg: dict, rows: list[int]) -> None:
    model = cli.build_rate_model(cfg)
    loss, gain = _rate_arrays(model["rates"])
    ev = cfg["evolution"]
    check_trajectory(v, out / "trajectory.csv", loss, gain, model["qubit"].omega_a,
                     _pure(cfg["qubit"]["model"], ev["initial_state"]), ev["t_max"],
                     ev["n_steps"], rows)


# What reading a missing or malformed output file raises.
UNREADABLE = (OSError, ValueError, KeyError, IndexError)


def check_inprocess(op: dict, out: Path, result) -> Verdict:
    v = Verdict()
    try:
        _check_inprocess(v, op, out, result)
    except UNREADABLE as exc:
        v.wrong.append(f"{op['kind']}: unreadable output: {type(exc).__name__}: {exc}")
    return v


def _check_inprocess(v: Verdict, op: dict, out: Path, result) -> None:
    kind = op["kind"]
    if kind == "figure":
        _check_figure(v, out, op["name"], op["rows"])
    elif kind == "evolve":
        _check_evolve(v, out, op["cfg"], op["rows"])
    elif kind == "fig3b_sweep":
        check_fig3b_rows(v, result, op["n"])
    elif kind == "spectrum":
        check_spectrum_csv(v, out / "spectrum.csv", op)
    elif kind == "steady_grid":
        for i, (cfg, family) in enumerate(zip(op["cfgs"], op["families"])):
            if i in result:
                v.errors.append(f"{op['env']} grid point {i}: {result[i]}")
            else:
                check_steady_json(v, out / f"p{i}" / "steady.json", cfg, family)
        for i in op.get("oracle", ()):
            check_oracle(v, op["cfgs"][i]["environment"])


def check_cli(op: dict, out: Path, proc) -> Verdict:
    v = Verdict()
    if proc.returncode != op["expect"]:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        v.errors.append(f"{op['sub']}: exit code {proc.returncode}, expected {op['expect']}: {last}")
    elif op["expect"] != 0:
        v.checks += 1
    else:
        try:
            _check_cli_output(v, op, out)
        except UNREADABLE as exc:
            v.wrong.append(f"{op['sub']}: unreadable output: {type(exc).__name__}: {exc}")
    return v


def _check_cli_output(v: Verdict, op: dict, out: Path) -> None:
    cfg = json.loads(op["text"]) if "text" in op else None
    sub = op["sub"]
    if sub == "figure":
        _check_figure(v, out, op["name"], op["rows"])
    elif sub == "evolve":
        _check_evolve(v, out, cfg, op["rows"])
    elif sub == "steady":
        check_steady_json(v, out / "steady.json", cfg, op["family"])
    elif sub == "rates":
        check_rates_json(v, out / "rates.json", cfg)
    elif sub == "spectrum":
        check_spectrum_csv(v, out / "spectrum.csv", {**op, "cfg": cfg})
