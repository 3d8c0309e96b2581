"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(run with ``pytest -s`` to see them as they happen).
"""

import time

import numpy as np

from lindgain import (
    DrudeParams,
    InteractionTensorPair,
    QubitSpec,
    RateMatrices,
    RatePair,
    ScalarPermittivitySplit,
    SlabMotionParams,
    SubstrateGeometry,
    ThermalOccupation,
    add_background_loss,
    evolve,
    fit_linear_family_theta,
    greens_identity_check,
    isotropic_gain_tensors,
    liouvillian,
    moving_slab_quadrature_oracle,
    moving_slab_tensors_asymptotic,
    moving_slab_tensors_exact,
    rate_matrices,
    steady_state_kernel,
    steady_two_level_closed,
    steady_v_closed,
    thermal,
    trace_residual,
)
from lindgain.cli import (
    FIG3_RATES,
    FIGURE_PRESETS,
    build_rate_model,
    fig3b_sweep,
    main,
    parse_initial_state,
)
from lindgain.master import DensityMatrix

SPLIT = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
GEOM = SubstrateGeometry(z_a=1.0)
FIG2_PRESET_RATES = build_rate_model(FIGURE_PRESETS["fig2a"])["rates"]


def finish(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def random_psd2(rng, scale=1.0):
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * (b @ b.conj().T)


def test_criterion_1_two_level_steady():
    failures = []
    rng = np.random.default_rng(101)
    for _ in range(100):
        gl, gg = rng.uniform(1e-6, 1.0, size=2)
        rates = RatePair(gamma_loss=gl, gamma_gain=gg)
        state, kdim = steady_state_kernel(liouvillian(rates))
        expect = steady_two_level_closed(rates).rho
        dev = np.abs(state.rho - expect).max()
        check(failures, kdim == 1, f"kernel dim {kdim} for rates {gl}, {gg}")
        check(failures, dev <= 1e-10, f"closed-form mismatch {dev:.2e}")
    qubit = QubitSpec(model="two_level", dipole=[1.0, 0.0, 0.0])
    rates = rate_matrices(qubit, isotropic_gain_tensors(SPLIT, GEOM))
    state, _ = steady_state_kernel(liouvillian(rates))
    ee = state.rho[1, 1].real
    check(failures, abs(ee - 0.25) <= 1e-10, f"substrate rho_ee {ee}")
    finish(1, "two-level steady state, kernel vs closed form", failures)


def test_criterion_2_v_closed_form():
    failures = []
    rng = np.random.default_rng(202)
    done = 0
    while done < 100:
        rates = RateMatrices(
            loss=random_psd2(rng) + 0.05 * np.eye(2),
            gain=random_psd2(rng, scale=0.5),
        )
        gl, gg = rates.loss, rates.gain
        a = (gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0]).real
        b = (
            gl[0, 0] * gg[1, 1]
            + gl[1, 1] * gg[0, 0]
            - gl[0, 1] * gg[1, 0]
            - gl[1, 0] * gg[0, 1]
        ).real
        if abs(a + b) < 1e-3:
            continue
        done += 1
        closed = steady_v_closed(rates).rho
        kernel, kdim = steady_state_kernel(liouvillian(rates))
        dev = np.abs(closed - kernel.rho).max()
        check(failures, kdim == 1, f"unexpected kernel dim {kdim}")
        check(failures, dev <= 1e-8, f"closed vs kernel deviation {dev:.2e}")
    finish(2, "V-shaped closed form vs kernel numerics (100 draws)", failures)


def test_criterion_3_memory_effect():
    failures = []
    L = liouvillian(FIG2_PRESET_RATES)
    family_rates = RatePair(gamma_loss=0.1, gamma_gain=0.05)
    targets = {
        "e1": (1 / 3, 1 / 3, 1 / 3, -1 / 6),
        "bright": (2 / 3, 1 / 6, 1 / 6, 1 / 6),
        "g": (2 / 3, 1 / 6, 1 / 6, 1 / 6),
    }
    for init, target in targets.items():
        rho0 = parse_initial_state(init, "v_shaped")
        traj = evolve(L, rho0, 500.0, 2000)
        final = traj.rho[-1]
        got = (
            final[0, 0].real,
            final[1, 1].real,
            final[2, 2].real,
            final[1, 2].real,
        )
        dev = max(abs(g - t) for g, t in zip(got, target))
        check(failures, dev <= 1e-3, f"{init}: population deviation {dev:.2e}")
        _, residual = fit_linear_family_theta(DensityMatrix(final, traj.labels), family_rates)
        check(failures, residual <= 1e-6, f"{init}: family residual {residual:.2e}")
        trs = abs(final[1, 1].real - final[2, 2].real)
        check(failures, trs <= 1e-8, f"{init}: excited-population split {trs:.2e}")
    finish(3, "memory effect, two distinct family limits", failures)


def test_criterion_4_asymmetric_rates():
    failures = []
    L = liouvillian(FIG3_RATES)
    final = evolve(L, parse_initial_state("e2", "v_shaped"), 500.0, 2000).rho[-1]
    check(failures, abs(final[0, 0].real - 4 / 7) <= 1e-3, "rho_gg off 4/7")
    check(failures, abs(final[1, 1].real - 3 / 7) <= 1e-3, "rho_e1e1 off 3/7")
    check(failures, final[2, 2].real <= 1e-6, "rho_e2e2 not emptied")
    _, kdim = steady_state_kernel(L)
    check(failures, kdim == 1, f"kernel dim {kdim}")
    finish(4, "asymmetric-rate steady state 4/7, 3/7, 0", failures)


def test_criterion_5_occupation_sweep():
    failures = []
    t0 = time.perf_counter()
    rows = fig3b_sweep(64)
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"sweep took {elapsed:.2f} s")
    check(failures, len(rows) == 64, "wrong number of sweep points")
    low = steady_v_closed(
        thermal(FIG3_RATES, ThermalOccupation(rows[0][0]))
    ).rho
    expect = (low[0, 0].real, low[1, 1].real, low[2, 2].real)
    dev = max(abs(g - e) for g, e in zip(rows[0][1:], expect))
    check(failures, dev <= 5e-3, f"low-occupation deviation {dev:.2e}")
    dev = max(abs(p - 1 / 3) for p in rows[-1][1:])
    check(failures, dev <= 1e-2, f"high-occupation deviation {dev:.2e}")
    finish(5, "occupation sweep limits and runtime", failures)


def test_criterion_6_identity():
    failures = []
    rng = np.random.default_rng(606)
    done = 0
    while done < 20:
        eps_re = rng.uniform(-3.0, 3.0)
        eps_loss = rng.uniform(0.05, 1.0)
        eps_gain = -rng.uniform(0.0, 0.5)
        eps = complex(eps_re, eps_loss + eps_gain)
        if abs(1.0 + eps) < 0.3:
            continue
        done += 1
        split = ScalarPermittivitySplit(eps=eps, eps_loss=eps_loss, eps_gain=eps_gain)
        geom = SubstrateGeometry(z_a=rng.uniform(0.3, 3.0))
        pair = isotropic_gain_tensors(split, geom)
        scale = np.abs(pair.loss - pair.gain).max()
        dev = greens_identity_check(split, geom)
        check(
            failures,
            dev <= 1e-12 * max(scale, 1e-300),
            f"identity deviation {dev:.2e} at scale {scale:.2e}",
        )
    finish(6, "loss-gain tensor difference matches reflection form", failures)


def test_criterion_7_exact_vs_quadrature():
    failures = []
    # (omega_sp, loss-channel argument 2|k_L| z_a); the gain argument follows
    # as arg_L (1 + omega_sp)/|1 - omega_sp| and stays within [5, 60]
    sweep = [
        (0.5, 5.0),
        (0.5, 15.0),
        (0.6, 10.0),
        (0.75, 6.0),
        (1.5, 8.0),
        (1.5, 12.0),
        (2.0, 5.0),
        (2.0, 18.0),
        (2.5, 20.0),
        (3.0, 25.0),
    ]
    for omega_sp, arg in sweep:
        v = 2.0 * abs(1.0 - omega_sp) / arg
        p = SlabMotionParams(drude=DrudeParams(omega_sp), v=v, geometry=GEOM)
        exact = moving_slab_tensors_exact(p)
        oracle = moving_slab_quadrature_oracle(p)
        for name, e, o in [("loss", exact.loss, oracle.loss),
                           ("gain", exact.gain, oracle.gain)]:
            dom = np.abs(e) >= 1e-3 * np.abs(e).max()
            rel = (np.abs(e - o)[dom] / np.abs(e)[dom]).max()
            check(
                failures,
                rel <= 1e-6,
                f"omega_sp={omega_sp}, arg={arg}, {name}: rel {rel:.2e}",
            )
    finish(7, "moving-slab exact tensors vs quadrature oracle", failures)


def test_criterion_8_chirality():
    failures = []
    slab = SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM)
    gain = moving_slab_tensors_asymptotic(slab).gain
    vals = np.sort(np.abs(np.linalg.eigvalsh(gain)))
    check(failures, vals[-2] <= 1e-10 * vals[-1], "gain tensor not rank-1")
    _, vecs = np.linalg.eigh(gain)
    target = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
    overlap = abs(np.vdot(target, vecs[:, -1]))
    check(failures, abs(overlap - 1.0) <= 1e-10, f"eigenvector overlap {overlap}")
    # exact vs asymptotic at argument 50 on each channel
    for v, channel in [(0.04, "loss"), (0.12, "gain")]:
        p = SlabMotionParams(drude=DrudeParams(2.0), v=v, geometry=GEOM)
        arg = 2.0 * abs(getattr(p, f"k_{channel}")) * GEOM.z_a
        check(failures, abs(arg - 50.0) <= 1e-9, f"{channel} argument {arg}")
        e = getattr(moving_slab_tensors_exact(p), channel)
        a = getattr(moving_slab_tensors_asymptotic(p), channel)
        dom = np.abs(e) >= 0.1 * np.abs(e).max()
        rel = (np.abs(e - a)[dom] / np.abs(e)[dom]).max()
        check(failures, rel <= 0.02, f"{channel}: asymptotic deviation {rel:.2e}")
    finish(8, "one-handed circular gain in the far-field limit", failures)


def test_criterion_9_well_posedness():
    failures = []
    scenarios = []
    for init in ("e1", "bright", "g"):
        scenarios.append((f"fig2 {init}", liouvillian(FIG2_PRESET_RATES), init))
    scenarios.append(("fig3a", liouvillian(FIG3_RATES), "e2"))
    qubit = QubitSpec(model="two_level", dipole=[1.0, 0.0, 0.0])
    sub_rates = rate_matrices(qubit, isotropic_gain_tensors(SPLIT, GEOM))
    scenarios.append(("substrate", liouvillian(sub_rates), "e"))
    slab = SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM)
    pair = add_background_loss(moving_slab_tensors_exact(slab), 0.01)
    vq = QubitSpec(
        model="v_shaped",
        dipole=np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0),
    )
    # RateMatrices construction itself enforces the Kossakowski PSD condition
    slab_rates = rate_matrices(vq, pair)
    scenarios.append(("moving slab", liouvillian(slab_rates), "e1"))
    for name, L, init in scenarios:
        res = trace_residual(L)
        norm = np.linalg.norm(L)
        check(failures, res <= 1e-12 * norm, f"{name}: trace residual {res:.2e}")
        model = "two_level" if len(L) == 4 else "v_shaped"
        traj = evolve(L, parse_initial_state(init, model), 200.0, 400)
        # from the states themselves, not from the trajectory's own checks
        drift = np.abs(np.trace(traj.rho, axis1=1, axis2=2).real - 1.0).max()
        mineig = np.linalg.eigvalsh(traj.rho).min()
        check(failures, drift <= 1e-9, f"{name}: trace drift {drift:.2e}")
        check(failures, mineig >= -1e-9, f"{name}: min eigenvalue {mineig:.2e}")
    finish(9, "trace preservation, positivity, complete positivity", failures)


def test_criterion_10_thermal_mixing():
    failures = []
    rng = np.random.default_rng(1010)
    for _ in range(50):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        loss = b @ b.conj().T
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gain = 0.5 * (b @ b.conj().T)
        pair = InteractionTensorPair(loss=loss, gain=gain)
        occ = ThermalOccupation(rng.uniform(0.0, 5.0))
        vq = QubitSpec(
            model="v_shaped",
            dipole=rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        via_tensor = rate_matrices(vq, thermal(pair, occ))
        via_rates = thermal(rate_matrices(vq, pair), occ)
        dev = max(
            np.abs(via_tensor.loss - via_rates.loss).max(),
            np.abs(via_tensor.gain - via_rates.gain).max(),
        )
        scale = max(np.abs(via_tensor.loss).max(), 1.0)
        check(failures, dev <= 1e-12 * scale, f"mixing order mismatch {dev:.2e}")
    hot = thermal(
        RatePair(gamma_loss=0.3, gamma_gain=0.0), ThermalOccupation(1e6)
    )
    state, _ = steady_state_kernel(liouvillian(hot))
    dev = abs(state.rho[1, 1].real - 0.5)
    check(failures, dev <= 1e-5, f"high-occupation population deviation {dev:.2e}")
    finish(10, "thermal mixing commutes with rate projection", failures)


def test_criterion_11_determinism(tmp_path):
    failures = []
    for preset in ("fig2a", "fig3b"):
        blobs = []
        for run in ("r1", "r2"):
            out = tmp_path / preset / run
            rc = main(["figure", preset, "--out", str(out), "--quiet"])
            check(failures, rc == 0, f"{preset} exit code {rc}")
            blobs.append((out / f"{preset}.csv").read_bytes())
        check(failures, blobs[0] == blobs[1], f"{preset} reruns differ")
    finish(11, "byte-identical preset reruns", failures)
