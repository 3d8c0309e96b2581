"""Command line front end: config ingestion, scenario execution, figure
presets and data/plot export.  The only module with I/O.

Exit codes: 0 success, 2 config error, 3 degenerate kernel needing an initial
state, 4 numerical/module error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not text: {exc}") from exc
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
    except RecursionError as exc:
        raise ValidationError(f"config {path} is nested too deeply: {exc}") from exc
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


def _rate_matrix(m: int):
    """Kind of an (m, m) Kossakowski matrix.  A real number is the only form
    for m = 1; for m = 2 it is shorthand for the all-equal linear-polarization
    matrix, and a 2x2 complex matrix is accepted too."""
    def parse(value) -> np.ndarray:
        if m == 2 and isinstance(value, (list, tuple)):
            return _complex_array(2, 2)(value)
        return _real(value) * np.ones((m, m), dtype=complex)
    return parse


ENVIRONMENTS = ("isotropic_substrate", "moving_slab", "abstract_rates")
# the name of the one environment section an object holds
_environment_type = _kind(
    f"exactly one of {ENVIRONMENTS}",
    lambda v: isinstance(v, dict) and sum(name in v for name in ENVIRONMENTS) == 1,
    lambda v: next(name for name in ENVIRONMENTS if name in v),
)


# ---------------------------------------------------------------------------
# model construction from config


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


def _build_slab(cfg: dict, omega_a: float) -> greens.InteractionTensorPair:
    """Channel tensors of the moving slab at the qubit's transition frequency."""
    slab = "environment.moving_slab."
    params = greens.SlabMotionParams(
        drude=DrudeParams(omega_sp=_field(cfg, slab + "omega_sp", _real)),
        v=_field(cfg, slab + "v", _real),
        geometry=greens.SubstrateGeometry(z_a=_field(cfg, slab + "z_a", _real)),
        g00=_field(cfg, slab + "g00", _real, default=0.0),
        omega_a=omega_a,
    )
    mode = _field(cfg, slab + "mode", _choice({"exact", "asymptotic"}), default="exact")
    tensors = getattr(greens, f"moving_slab_tensors_{mode}")
    return greens.add_background_loss(tensors(params), params.g00)


def build_rate_model(cfg: dict) -> dict:
    """Resolve the configured environment into thermalized rates plus
    provenance for the rates report."""
    qubit = _build_qubit(cfg)
    env_type = _field(cfg, "environment", _environment_type)
    occ = _occupation(cfg)
    out = {"qubit": qubit, "occupation": occ, "tensors": None, "tensors_th": None}
    out["environment"] = {"type": env_type}
    if env_type == "abstract_rates":
        kind = _rate_matrix(len(qubit.dipoles))
        loss, gain = (_field(cfg, f"environment.abstract_rates.gamma_{x}", kind) for x in "lg")
        try:
            rates = master.RateMatrices(loss, gain)
        except ValidationError as exc:
            # the check names the failing matrix first: "loss ..." or "gain ..."
            name = "gamma_g" if str(exc).startswith("gain") else "gamma_l"
            field = f"environment.abstract_rates.{name}"
            raise ValidationError(f"config field {field}: {exc}") from exc
        out["rates"] = master.thermal(rates, occ)
        return out
    if env_type == "isotropic_substrate":
        pair = greens.isotropic_gain_tensors(*_build_substrate(cfg))
    else:
        pair = _build_slab(cfg, qubit.omega_a)
    pair_th = master.thermal(pair, occ)
    out["tensors"] = pair
    out["tensors_th"] = pair_th
    out["rates"] = master.rate_matrices(qubit, pair_th)
    out["environment"].update(_field(cfg, f"environment.{env_type}", _object))
    return out


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
    # its parts scaled by a power of two (exact for normal entries) so that the
    # largest is in [1, 2): the trace cannot overflow, nor 1 / trace if PSD
    exp = math.frexp(np.abs(rho.view(float)).max())[1] - 1
    rho = np.ldexp(rho.view(float), -exp).view(complex)
    tr = float(np.trace(rho).real)
    if not tr > 0.0:
        raise ValidationError(
            f"initial_state is not normalizable: trace {tr * 2.0**exp:.3g} is not > 0"
        )
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
    data = np.column_stack(list(columns.values()))
    rows = (",".join(["%.11e"] * len(columns)) + "\n") * len(data)
    path.write_text(",".join(columns) + "\n" + rows % tuple(data.ravel().tolist()))


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
    series: list[tuple[str, np.ndarray, np.ndarray]], xlabel: str, ylabel: str
) -> str:
    """Minimal deterministic SVG line chart (no external plotting service);
    the k-th series is drawn in COLORS[k]."""
    w, h, pad = 640, 420, 56
    xs = np.concatenate([s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    y0, y1 = y0 - 0.05 * (y1 - y0), y1 + 0.05 * (y1 - y0)
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
        xy = np.column_stack([
            pad + (x - x0) / (x1 - x0) * (w - 2 * pad),
            h - pad - (y - y0) / (y1 - y0) * (h - 2 * pad),
        ])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
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
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _write(out_dir: Path, quiet: bool, *files) -> int:
    """Create ``out_dir``, write each ``(name, writer, data)`` in order as
    ``writer(out_dir / name, data)`` and report the first unless ``quiet``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write, data in files:
        write(out_dir / name, data)
    if not quiet:
        print(f"wrote {out_dir / files[0][0]}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _run_trajectory(cfg: dict, out_dir: Path, stem: str, quiet: bool) -> int:
    """The trajectory a config describes, written to ``stem``.csv and .svg."""
    model = build_rate_model(cfg)
    qm = model["qubit"].model
    rho0 = _field(cfg, "evolution.initial_state", lambda v: parse_initial_state(v, qm))
    traj = master.evolve(
        master.liouvillian(model["rates"], model["qubit"].omega_a),
        rho0,
        t_max=_field(cfg, "evolution.t_max", _real),
        n_steps=_field(cfg, "evolution.n_steps", _integer),
    )
    # the writers are looked up here, so a wrapper installed on this module sees them
    files = [(f"{stem}.csv", write_trajectory_csv, traj)]
    if _field(cfg, "output.plot", _boolean, default=True):
        files.append((f"{stem}.svg", _plot_trajectory, traj))
    return _write(out_dir, quiet, *files)


def run_evolve(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    return _run_trajectory(cfg, out_dir, "trajectory", quiet)


def run_steady(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    model = build_rate_model(cfg)
    rates, qm = model["rates"], model["qubit"].model
    L = master.liouvillian(rates, model["qubit"].omega_a)
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
    if kdim == 1:
        closed = {1: master.steady_two_level_closed, 2: master.steady_v_closed}[rates.m](rates)
        record["closed_form_match"] = bool(np.max(np.abs(closed.rho - state.rho)) <= 1e-8)
    elif rates.m == 2 and master.linear_family_rates(rates) is not None:
        # linear-polarization family: report the family parameter
        theta, residual = master.fit_linear_family_theta(state, rates)
        record["theta"] = theta
        record["closed_form_match"] = bool(residual <= 1e-8)
    return _write(out_dir, quiet, ("steady.json", _write_json, record))


def run_rates(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    model = build_rate_model(cfg)
    record = {
        "environment": model["environment"],
        "occupation": model["occupation"].n,
        "qubit_model": model["qubit"].model,
    }
    if model["tensors"] is not None:
        for prefix, key in (("tensor", "tensors"), ("thermal_tensor", "tensors_th")):
            record[f"{prefix}_loss"] = _complex_matrix_json(model[key].loss)
            record[f"{prefix}_gain"] = _complex_matrix_json(model[key].gain)
    rates = model["rates"]
    for key, m in (("gamma_loss", rates.loss), ("gamma_gain", rates.gain)):
        if rates.m == 1:
            record[key] = float(m[0, 0].real)
        else:
            record[f"{key}_matrix"] = _complex_matrix_json(m)
    return _write(out_dir, quiet, ("rates.json", _write_json, record))


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
    if not (np.isfinite(omega_min) and np.isfinite(omega_max)):
        raise ValidationError("omega_min and omega_max must be finite")
    if not (0 < omega_min <= omega_max):
        raise ValidationError("require 0 < omega_min <= omega_max")
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    if _field(cfg, "environment", _environment_type) != "isotropic_substrate":
        raise ValidationError("spectrum requires environment.isotropic_substrate")
    split, geom = _build_substrate(cfg)
    n_omega = _occupation(cfg).n
    omegas = np.linspace(omega_min, omega_max, n_points)
    s = correlations.field_spectrum(split, geom, omega_min, n_omega).real
    columns = {
        "omega": omegas,
        "occupation": np.full_like(omegas, n_omega),
        **{f"s_{x}{x}": np.full_like(omegas, s[k, k]) for k, x in enumerate("xyz")},
    }
    return _write(out_dir, quiet, ("spectrum.csv", _write_csv, columns))


# ---------------------------------------------------------------------------
# figure presets

FIG3_RATES = master.RateMatrices(
    loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0])
)


def _v_preset(gamma_l, gamma_g, initial_state: str) -> dict:
    """The evolve config of a V-shaped emitter under fixed rates."""
    return {
        "qubit": {"model": master.V_SHAPED},
        "environment": {"abstract_rates": {"gamma_l": gamma_l, "gamma_g": gamma_g}},
        "evolution": {"initial_state": initial_state, "t_max": 500.0, "n_steps": 2000},
    }


# the trajectory presets: each is an evolve config
FIGURE_PRESETS = {
    "fig2a": _v_preset(0.1, 0.05, "e1"),
    "fig2b": _v_preset(0.1, 0.05, "bright"),
    "fig2c": _v_preset(0.1, 0.05, "g"),
    "fig3a": _v_preset(FIG3_RATES.loss.real.tolist(), FIG3_RATES.gain.real.tolist(), "e2"),
}
# every figure name: the trajectory presets, then the steady-state sweep
FIGURES = (*FIGURE_PRESETS, "fig3b")


def fig3b_sweep(n_points: int = 64) -> np.ndarray:
    """Steady-state populations over a log grid of occupations, using kernel
    analysis (no time integration).  Rows are (n, rho_gg, rho_e1e1,
    rho_e2e2).  The generator is affine in the occupation, so the stack is
    interpolated between the generators at the two ends and solved at once."""
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    occ = np.logspace(-2.0, 3.0, n_points)
    # the rates at the ends are checked; every interior point's rates are a
    # convex combination of theirs, so they are Hermitian, finite and PSD too
    first, last = (
        master.liouvillian(master.thermal(FIG3_RATES, master.ThermalOccupation(n)))
        for n in (occ[0], occ[-1])
    )
    # a single point has no span; its weight is 0
    t = (occ - occ[0]) / ((occ[-1] - occ[0]) or 1.0)
    rho, _ = master.steady_states(first + t[:, None, None] * (last - first))
    return np.column_stack([occ, np.diagonal(rho, axis1=1, axis2=2).real])


def run_figure(name: str, out_dir: Path, quiet: bool = False) -> int:
    if name not in FIGURES:
        raise ValidationError(f"unknown figure preset {name!r}")
    if name in FIGURE_PRESETS:
        return _run_trajectory(FIGURE_PRESETS[name], out_dir, name, quiet)
    data = fig3b_sweep()
    pops = _populations(master.V_LABELS, data[:, 1:])
    series = [(label, np.log10(data[:, 0]), p) for label, p in pops.items()]
    svg = _svg_line_chart(series, "log10 occupation", "population")
    return _write(
        out_dir, quiet,
        (f"{name}.csv", _write_csv, {"n": data[:, 0], **pops}),
        (f"{name}.svg", Path.write_text, svg),
    )


# ---------------------------------------------------------------------------
# argument parsing / dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Qubit dynamics in structured-gain photonic environments",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress status output")
    # also accepted after the subcommand; SUPPRESS keeps the global value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--out", default=".")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("evolve", "integrate a trajectory"),
        ("steady", "steady state via kernel analysis"),
        ("rates", "dump interaction tensors and rates"),
    ):
        sub.add_parser(name, help=text, parents=[configured])

    p = sub.add_parser("spectrum", help="field spectral density sweep", parents=[configured])
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("figure", help="reproduce a figure preset", parents=[common])
    p.add_argument("name", choices=FIGURES)
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
