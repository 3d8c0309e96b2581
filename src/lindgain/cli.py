"""Command line front end: config ingestion, scenario execution, figure
presets and data/plot export.  The only module with I/O.

Exit codes: 0 success, 2 config error, 3 degenerate kernel needing an initial
state, 4 numerical/module error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from . import correlations, greens, master
from .errors import LindgainError, NumericalInstabilityError, ValidationError
from .material import DrudeParams, ScalarPermittivitySplit

PROG = "lindgain"


def _finite(text: str, kind=float):
    if not np.isfinite(float(text)):
        raise ValidationError(f"non-finite number {text} in config")
    return kind(text)


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        # json accepts NaN, Infinity and literals that overflow a float
        cfg = json.loads(
            text,
            parse_constant=_finite,
            parse_float=_finite,
            parse_int=lambda t: _finite(t, int),
        )
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# config fields: every value is read by _field and converted by a kind, a
# function that returns the parsed value or raises ValidationError


_REQUIRED = object()


def _field(cfg: dict, path: str, kind, default=_REQUIRED):
    """The value at a dotted path, converted by ``kind``.  Every parent on
    the path must be an object.  ``default`` is returned as given when a key
    on the path is absent; without one the field is required.  Each failure
    raises ValidationError naming the path."""
    parent, _, key = path.rpartition(".")
    node = _field(cfg, parent, _object, default={}) if parent else cfg
    if key not in node:
        if default is _REQUIRED:
            raise ValidationError(f"missing config field {path}")
        return default
    try:
        return kind(node[key])
    except ValidationError as exc:
        raise ValidationError(f"config field {path}: {exc}") from exc


def _kind(what: str, test, convert=lambda value: value):
    """Kind of a value that passes ``test``, described as ``what``."""
    def parse(value):
        if not test(value):
            raise ValidationError(f"expected {what}, got {value!r}")
        return convert(value)
    return parse


def _is_number(value) -> bool:
    # bool is an int subclass, but true is not a number
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _choice(names):
    return _kind(f"one of {sorted(names)}", lambda v: isinstance(v, str) and v in names)


_object = _kind("an object", lambda v: isinstance(v, dict))
_string = _kind("a string", lambda v: isinstance(v, str))
_boolean = _kind("true or false", lambda v: isinstance(v, bool))
_real = _kind("a real number", _is_number, float)
_integer = _kind("an integer", lambda v: _is_number(v) and v % 1 == 0, int)


def _complex(value) -> complex:
    """A real number or an [re, im] pair."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    return complex(_real(value))


def _complex_array(*shape: int):
    """Kind of a nested list of complex numbers with the given shape."""
    def nest(value, dims):
        if not dims:
            return _complex(value)
        if not isinstance(value, (list, tuple)) or len(value) != dims[0]:
            raise ValidationError(f"expected nested lists of shape {shape}, got {value!r}")
        return [nest(v, dims[1:]) for v in value]
    return lambda value: np.array(nest(value, shape), dtype=complex)


def _rate_matrix(value) -> np.ndarray:
    """A 2x2 Kossakowski matrix; a real number is shorthand for the
    all-equal linear-polarization matrix."""
    if isinstance(value, (list, tuple)):
        return _complex_array(2, 2)(value)
    return _real(value) * np.ones((2, 2), dtype=complex)


ENVIRONMENTS = ("isotropic_substrate", "moving_slab", "abstract_rates")
# the name of the one environment section an object holds
_environment_type = _kind(
    f"exactly one of {ENVIRONMENTS}",
    lambda v: isinstance(v, dict) and sum(name in v for name in ENVIRONMENTS) == 1,
    lambda v: next(name for name in ENVIRONMENTS if name in v),
)


# ---------------------------------------------------------------------------
# model construction from config


SLAB_TENSORS = {
    "exact": greens.moving_slab_tensors_exact,
    "asymptotic": greens.moving_slab_tensors_asymptotic,
}


def _build_qubit(cfg: dict) -> master.QubitSpec:
    # QubitSpec rejects an unknown model
    return master.QubitSpec(
        model=_field(cfg, "qubit.model", _string),
        dipole=_field(cfg, "qubit.dipole", _complex_array(3), default=[1.0, 0.0, 0.0]),
        omega_a=_field(cfg, "qubit.omega_a", _real, default=1.0),
    )


def _occupation(cfg: dict) -> master.ThermalOccupation:
    return master.ThermalOccupation(_field(cfg, "thermal.occupation", _real, default=0.0))


def _build_substrate(cfg: dict):
    sub = "environment.isotropic_substrate."
    split = ScalarPermittivitySplit(
        eps=complex(_field(cfg, sub + "eps_re", _real), _field(cfg, sub + "eps_im", _real)),
        eps_loss=_field(cfg, sub + "eps_loss", _real),
        eps_gain=_field(cfg, sub + "eps_gain", _real),
    )
    return split, greens.SubstrateGeometry(z_a=_field(cfg, sub + "z_a", _real))


def _build_slab(cfg: dict) -> greens.InteractionTensorPair:
    slab = "environment.moving_slab."
    params = greens.SlabMotionParams(
        drude=DrudeParams(omega_sp=_field(cfg, slab + "omega_sp", _real)),
        v=_field(cfg, slab + "v", _real),
        geometry=greens.SubstrateGeometry(z_a=_field(cfg, slab + "z_a", _real)),
        g00=_field(cfg, slab + "g00", _real, default=0.0),
    )
    mode = _field(cfg, slab + "mode", _choice(SLAB_TENSORS), default="exact")
    return greens.add_background_loss(SLAB_TENSORS[mode](params), params.g00)


def build_rate_model(cfg: dict) -> dict:
    """Resolve the configured environment into thermalized rates plus
    provenance for the rates report."""
    qubit = _build_qubit(cfg)
    env_type = _field(cfg, "environment", _environment_type)
    occ = _occupation(cfg)
    out = {"qubit": qubit, "occupation": occ, "tensors": None, "thermal_tensors": None}
    out["environment"] = {"type": env_type}
    if env_type == "abstract_rates":
        kind = _real if qubit.model == master.TWO_LEVEL else _rate_matrix
        loss, gain = (_field(cfg, f"environment.abstract_rates.gamma_{x}", kind) for x in "lg")
        if qubit.model == master.TWO_LEVEL:
            out["rates"] = master.thermal_rate_pair(master.RatePair(loss, gain), occ)
        else:
            out["rates"] = master.thermal_rate_matrices(master.RateMatrices(loss, gain), occ)
        return out
    if env_type == "isotropic_substrate":
        pair = greens.isotropic_gain_tensors(*_build_substrate(cfg))
    else:
        pair = _build_slab(cfg)
    pair_th = master.thermal_tensors(pair, occ)
    out["tensors"] = pair
    out["thermal_tensors"] = pair_th
    if qubit.model == master.TWO_LEVEL:
        out["rates"] = master.rates_two_level(qubit, pair_th)
    else:
        out["rates"] = master.rate_matrices_v(qubit, pair_th)
    out["environment"].update(_field(cfg, f"environment.{env_type}", _object))
    return out


def build_liouvillian(model: dict) -> master.Liouvillian:
    qubit = model["qubit"]
    if qubit.model == master.TWO_LEVEL:
        return master.liouvillian_two_level(model["rates"], qubit.omega_a)
    return master.liouvillian_v(model["rates"], qubit.omega_a)


def parse_initial_state(value, model: str) -> master.DensityMatrix:
    """A named state (a level label, or bright/dark for the V-shaped model)
    or an explicit density matrix, symmetrized and normalized to unit trace."""
    labels = master.LABELS[3 if model == master.V_SHAPED else 2]
    basis = np.eye(len(labels))
    named = dict(zip(labels, basis))
    if model == master.V_SHAPED:
        named["bright"] = (basis[1] + basis[2]) / np.sqrt(2.0)
        named["dark"] = (basis[1] - basis[2]) / np.sqrt(2.0)
    if isinstance(value, str):
        psi = named[_choice(named)(value)].astype(complex)
        return master.DensityMatrix(np.outer(psi, psi.conj()), labels)
    rho = _complex_array(len(labels), len(labels))(value)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise ValidationError("initial_state is not normalizable")
    try:
        return master.DensityMatrix(0.5 * (rho + rho.conj().T) / tr, labels)
    except NumericalInstabilityError as exc:
        # a state that is not PSD is a config error
        raise ValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output writers


COLORS = ("green", "blue", "red")


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV file from a header -> column mapping, 12 significant digits."""
    row = ",".join(["{:.11e}"] * len(columns))
    rows = np.column_stack(list(columns.values())).tolist()
    lines = [",".join(columns)] + [row.format(*r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _populations(labels: tuple, pops: np.ndarray) -> dict:
    """Columns rho_ll of an (n, d) array of level populations."""
    return {f"rho_{lv}{lv}": p for lv, p in zip(labels, pops.T)}


def _trajectory_populations(traj: master.Trajectory) -> dict:
    return _populations(traj.labels, np.diagonal(traj.rho, axis1=1, axis2=2).real)


def write_trajectory_csv(path: Path, traj: master.Trajectory) -> None:
    """Populations, the coherence between the last two levels, trace and
    smallest eigenvalue of every state."""
    a, b = traj.labels[-2:]
    coherence = traj.rho[:, -2, -1]
    columns = {
        "t": traj.times,
        **_trajectory_populations(traj),
        f"re_rho_{a}{b}": coherence.real,
        f"im_rho_{a}{b}": coherence.imag,
        "trace": traj.trace,
        "min_eigenvalue": traj.min_eigenvalue,
    }
    _write_csv(path, columns)


def _svg_line_chart(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    xlabel: str,
    ylabel: str,
    logx: bool = False,
) -> str:
    """Minimal deterministic SVG line chart (no external plotting service);
    the k-th series is drawn in COLORS[k]."""
    w, h, pad = 640, 420, 56
    xs = np.concatenate([np.log10(s[1]) if logx else s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-300:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    y0, y1 = y0 - 0.05 * (y1 - y0), y1 + 0.05 * (y1 - y0)

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (w - 2 * pad)

    def py(y):
        return h - pad - (y - y0) / (y1 - y0) * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{w - 2 * pad}" height="{h - 2 * pad}" '
        'fill="none" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="16" y="{h // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {h // 2})">{ylabel}</text>',
    ]
    for k, (label, x, y) in enumerate(series):
        color = COLORS[k]
        xv = np.log10(x) if logx else x
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{w - pad - 4}" y="{pad + 18 + 18 * k}" text-anchor="end" '
            f'font-size="13" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _plot_trajectory(path: Path, traj: master.Trajectory) -> None:
    pops = _trajectory_populations(traj)
    series = [(label, traj.times, p) for label, p in pops.items()]
    path.write_text(_svg_line_chart(series, "t (1/omega_a)", "population"))


def _complex_matrix_json(m: np.ndarray) -> dict:
    return {
        "real": [[float(x) for x in row] for row in m.real],
        "imag": [[float(x) for x in row] for row in m.imag],
    }


# ---------------------------------------------------------------------------
# subcommands


def run_evolve(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    model = build_rate_model(cfg)
    qm = model["qubit"].model
    rho0 = _field(cfg, "evolution.initial_state", lambda v: parse_initial_state(v, qm))
    traj = master.evolve(
        build_liouvillian(model),
        rho0,
        t_max=_field(cfg, "evolution.t_max", _real),
        n_steps=_field(cfg, "evolution.n_steps", _integer),
    )
    plot = _field(cfg, "output.plot", _boolean, default=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    if plot:
        _plot_trajectory(out_dir / "trajectory.svg", traj)
    if not quiet:
        print(f"wrote {out_dir / 'trajectory.csv'}")
    return 0


def run_steady(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    model = build_rate_model(cfg)
    qm = model["qubit"].model
    L = build_liouvillian(model)
    rho0 = _field(
        cfg, "evolution.initial_state", lambda v: parse_initial_state(v, qm), default=None
    )
    state, kdim = master.steady_state_kernel(L, rho0)
    record = {
        "kernel_dim": kdim,
        "rho": _complex_matrix_json(state.rho),
        "closed_form_match": None,
        "theta": None,
    }
    rates = model["rates"]
    if kdim == 1:
        closed = (
            master.steady_two_level_closed(rates)
            if qm == master.TWO_LEVEL
            else master.steady_v_closed(rates)
        )
        record["closed_form_match"] = bool(np.max(np.abs(closed.rho - state.rho)) <= 1e-8)
    elif qm == master.V_SHAPED:
        # linear-polarization family: report the family parameter
        scalar = master.RatePair(
            gamma_loss=float(rates.loss[0, 0].real),
            gamma_gain=float(rates.gain[0, 0].real),
        )
        theta, residual = master.fit_linear_family_theta(state, scalar)
        record["theta"] = theta
        record["closed_form_match"] = bool(residual <= 1e-8)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "steady.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"wrote {path}")
    return 0


def run_rates(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    model = build_rate_model(cfg)
    record = {
        "environment": model["environment"],
        "occupation": model["occupation"].n,
        "qubit_model": model["qubit"].model,
    }
    if model["tensors"] is not None:
        record["tensor_loss"] = _complex_matrix_json(model["tensors"].loss)
        record["tensor_gain"] = _complex_matrix_json(model["tensors"].gain)
        record["thermal_tensor_loss"] = _complex_matrix_json(
            model["thermal_tensors"].loss
        )
        record["thermal_tensor_gain"] = _complex_matrix_json(
            model["thermal_tensors"].gain
        )
    rates = model["rates"]
    if isinstance(rates, master.RatePair):
        record["gamma_loss"] = rates.gamma_loss
        record["gamma_gain"] = rates.gamma_gain
    else:
        record["gamma_loss_matrix"] = _complex_matrix_json(rates.loss)
        record["gamma_gain_matrix"] = _complex_matrix_json(rates.gain)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "rates.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"wrote {path}")
    return 0


def run_spectrum(
    cfg: dict,
    omega_min: float,
    omega_max: float,
    n_points: int,
    out_dir: Path,
    quiet: bool = False,
) -> int:
    """Field spectrum on an omega grid.  The permittivity split is fixed by
    the config, so the spectrum is the same at every omega: it is evaluated
    once and repeated on each row."""
    if not (0 < omega_min <= omega_max):
        raise ValidationError("require 0 < omega_min <= omega_max")
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    if _field(cfg, "environment", _environment_type) != "isotropic_substrate":
        raise ValidationError("spectrum requires environment.isotropic_substrate")
    split, geom = _build_substrate(cfg)
    n_omega = _occupation(cfg).n
    omegas = (
        np.linspace(omega_min, omega_max, n_points)
        if n_points > 1
        else np.array([omega_min])
    )
    s = correlations.field_spectrum(split, geom, omega_min, n_omega).tensor.real
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "spectrum.csv"
    _write_csv(path, {
        "omega": omegas,
        "occupation": np.full_like(omegas, n_omega),
        **{f"s_{x}{x}": np.full_like(omegas, s[k, k]) for k, x in enumerate("xyz")},
    })
    if not quiet:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# figure presets

FIG2_RATES = master.RateMatrices(
    loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2))
)
FIG3_RATES = master.RateMatrices(
    loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0])
)
PRESET_T_MAX = 500.0
PRESET_N_STEPS = 2000

FIGURE_PRESETS = {
    "fig2a": (FIG2_RATES, "e1"),
    "fig2b": (FIG2_RATES, "bright"),
    "fig2c": (FIG2_RATES, "g"),
    "fig3a": (FIG3_RATES, "e2"),
}


def fig3b_sweep(n_points: int = 64) -> np.ndarray:
    """Steady-state populations over a log grid of occupations, using kernel
    analysis (no time integration).  Rows are (n, rho_gg, rho_e1e1,
    rho_e2e2)."""
    rows = []
    for n in np.logspace(-2.0, 3.0, n_points):
        rates = master.thermal_rate_matrices(FIG3_RATES, master.ThermalOccupation(n))
        state, _ = master.steady_state_kernel(master.liouvillian_v(rates))
        rows.append([n, *np.diag(state.rho).real])
    return np.array(rows)


def run_figure(name: str, out_dir: Path, quiet: bool = False) -> int:
    if name != "fig3b" and name not in FIGURE_PRESETS:
        raise ValidationError(f"unknown figure preset {name!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    if name == "fig3b":
        data = fig3b_sweep()
        pops = _populations(master.V_LABELS, data[:, 1:])
        _write_csv(csv_path, {"n": data[:, 0], **pops})
        series = [(label, data[:, 0], p) for label, p in pops.items()]
        (out_dir / "fig3b.svg").write_text(
            _svg_line_chart(series, "log10 occupation", "population", logx=True)
        )
    else:
        rates, init = FIGURE_PRESETS[name]
        rho0 = parse_initial_state(init, master.V_SHAPED)
        traj = master.evolve(
            master.liouvillian_v(rates), rho0, PRESET_T_MAX, PRESET_N_STEPS
        )
        write_trajectory_csv(csv_path, traj)
        _plot_trajectory(out_dir / f"{name}.svg", traj)
    if not quiet:
        print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Qubit dynamics in structured-gain photonic environments",
    )
    parser.add_argument(
        "--parallel", action="store_true", help="accepted for compatibility; no effect"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress status output")
    # also accepted after the subcommand; SUPPRESS keeps the global value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--parallel", action="store_true", default=argparse.SUPPRESS
    )
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("evolve", "integrate a trajectory"),
        ("steady", "steady state via kernel analysis"),
        ("rates", "dump interaction tensors and rates"),
    ):
        p = sub.add_parser(name, help=text, parents=[common])
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")

    p = sub.add_parser("spectrum", help="field spectral density sweep", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=".")

    p = sub.add_parser("figure", help="reproduce a figure preset", parents=[common])
    p.add_argument("name", choices=["fig2a", "fig2b", "fig2c", "fig3a", "fig3b"])
    p.add_argument("--out", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir, quiet = Path(args.out), args.quiet
    commands = {
        "evolve": lambda: run_evolve(load_config(args.config), out_dir, quiet=quiet),
        "steady": lambda: run_steady(load_config(args.config), out_dir, quiet=quiet),
        "rates": lambda: run_rates(load_config(args.config), out_dir, quiet=quiet),
        "spectrum": lambda: run_spectrum(
            load_config(args.config), args.omega_min, args.omega_max, args.n,
            out_dir, quiet=quiet,
        ),
        "figure": lambda: run_figure(args.name, out_dir, quiet=quiet),
    }
    try:
        return commands[args.command]()
    except LindgainError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{PROG}: I/O error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
