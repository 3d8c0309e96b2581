import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lindgain import (
    DegenerateKernelError,
    DomainError,
    DrudeParams,
    NumericalInstabilityError,
    InteractionTensorPair,
    QubitSpec,
    RateMatrices,
    RatePair,
    ScalarPermittivitySplit,
    SlabMotionParams,
    SubstrateGeometry,
    ThermalOccupation,
    TWO_LEVEL,
    V_SHAPED,
    ValidationError,
    add_background_loss,
    evolve,
    fit_linear_family_theta,
    isotropic_gain_tensors,
    linear_family_rates,
    liouvillian,
    moving_slab_tensors_asymptotic,
    moving_slab_tensors_exact,
    rate_matrices,
    steady_linear_family,
    steady_state_kernel,
    steady_states,
    steady_two_level_closed,
    steady_v_closed,
    thermal,
    trace_residual,
)
from lindgain.master import TWO_LEVEL_LABELS, V_LABELS, DensityMatrix

GEOM = SubstrateGeometry(z_a=1.0)
SPLIT = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
ISO_PAIR = isotropic_gain_tensors(SPLIT, GEOM)


def pure_state(index, dim):
    labels = TWO_LEVEL_LABELS if dim == 2 else V_LABELS
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return DensityMatrix(np.outer(psi, psi.conj()), labels)


def random_psd_rate_matrices(rng):
    def psd():
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return b @ b.conj().T
    return RateMatrices(loss=psd(), gain=0.3 * psd())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frequency_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]), omega_a=bad)
    with pytest.raises(DomainError, match="finite"):
        liouvillian(RatePair(0.1, 0.05), omega_a=bad)


def test_tiny_dipole_is_nonzero():
    # np.linalg.norm of this dipole underflows to 0
    QubitSpec(model=TWO_LEVEL, dipole=np.array([1e-200, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="nonzero"):
        QubitSpec(model=TWO_LEVEL, dipole=np.zeros(3))


class TestThermalMixing:
    def test_zero_temperature_passthrough(self):
        th = thermal(ISO_PAIR, ThermalOccupation(0.0))
        np.testing.assert_allclose(th.loss, ISO_PAIR.loss)
        np.testing.assert_allclose(th.gain, ISO_PAIR.gain)

    def test_unit_occupation(self):
        th = thermal(ISO_PAIR, ThermalOccupation(1.0))
        np.testing.assert_allclose(th.loss, 2.0 * ISO_PAIR.loss + ISO_PAIR.gain)

    def test_high_temperature_limit(self):
        n = 1e6
        th = thermal(ISO_PAIR, ThermalOccupation(n))
        total = ISO_PAIR.loss + ISO_PAIR.gain
        np.testing.assert_allclose(th.loss / n, total, rtol=1e-5)
        np.testing.assert_allclose(th.gain / n, total, rtol=1e-5)

    def test_remains_psd(self):
        th = thermal(ISO_PAIR, ThermalOccupation(3.7))
        for t in (th.loss, th.gain):
            scale = np.abs(t).max()
            np.testing.assert_allclose(t, t.conj().T, rtol=0, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(t).min() >= -1e-12 * scale

    def test_negative_occupation_rejected(self):
        with pytest.raises(DomainError):
            ThermalOccupation(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_occupation_rejected(self, bad):
        with pytest.raises(DomainError, match="occupation must be finite"):
            ThermalOccupation(bad)

    def test_tensor_vs_rate_level_mixing(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.2j, 0.5]))
        occ = ThermalOccupation(0.8)
        via_tensor = rate_matrices(q, thermal(ISO_PAIR, occ))
        via_rates = thermal(rate_matrices(q, ISO_PAIR), occ)
        np.testing.assert_allclose(via_tensor.loss, via_rates.loss, atol=1e-12)
        np.testing.assert_allclose(via_tensor.gain, via_rates.gain, atol=1e-12)

    @pytest.mark.parametrize(
        "pair",
        [ISO_PAIR, RateMatrices(np.diag([0.1, 0.175]), np.diag([0.075, 0.0])), RatePair(0.3, 0.1)],
        ids=["tensors", "rate_matrices", "rate_pair"],
    )
    def test_returns_the_type_it_was_given(self, pair):
        th = thermal(pair, ThermalOccupation(0.5))
        assert type(th) is type(pair)
        np.testing.assert_array_equal(th.loss, 1.5 * pair.loss + 0.5 * pair.gain)
        np.testing.assert_array_equal(th.gain, 1.5 * pair.gain + 0.5 * pair.loss)

    def test_rate_pair_keeps_scalar_rates(self):
        th = thermal(RatePair(0.3, 0.1), ThermalOccupation(0.5))
        assert (th.loss[0, 0].real, th.gain[0, 0].real) == (
            1.5 * 0.3 + 0.5 * 0.1, 1.5 * 0.1 + 0.5 * 0.3
        )


class TestRates:
    def test_basis_quadratic_form(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        pair = InteractionTensorPair(
            loss=np.diag([0.2, 0.3, 0.4]).astype(complex),
            gain=np.zeros((3, 3), dtype=complex),
        )
        rp = rate_matrices(q, pair)
        assert rp.loss[0, 0].real == pytest.approx(0.4)

    def test_quadratic_scaling(self):
        q1 = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        q2 = QubitSpec(model=TWO_LEVEL, dipole=np.array([2.0, 0.0, 0.0]))
        r1 = rate_matrices(q1, ISO_PAIR)
        r2 = rate_matrices(q2, ISO_PAIR)
        assert r2.loss[0, 0].real == pytest.approx(4.0 * r1.loss[0, 0].real)
        assert r2.gain[0, 0].real == pytest.approx(4.0 * r1.gain[0, 0].real)

    def test_substrate_reference_values(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rp = rate_matrices(q, ISO_PAIR)
        assert rp.loss[0, 0].real == pytest.approx(0.29842, rel=1e-4)
        assert rp.gain[0, 0].real == pytest.approx(0.099472, rel=1e-4)

    @given(st.integers(0, 2**32 - 1), st.floats(-30.0, 3.0), st.floats(-30.0, 3.0))
    def test_two_level_is_first_v_channel(self, seed, log_loss, log_gain):
        rng = np.random.default_rng(seed)

        def psd(scale):
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            return scale * (b @ b.conj().T)

        pair = InteractionTensorPair(loss=psd(10.0**log_loss), gain=psd(10.0**log_gain))
        dipole = rng.normal(size=3) + 1j * rng.normal(size=3)
        one = rate_matrices(QubitSpec(model=TWO_LEVEL, dipole=dipole), pair)
        v = rate_matrices(QubitSpec(model=V_SHAPED, dipole=dipole), pair)
        assert one.loss.shape == one.gain.shape == (1, 1)
        assert one.loss[0, 0] == v.loss[0, 0]
        assert one.gain[0, 0] == v.gain[0, 0]
        scalar = RatePair(one.loss[0, 0].real, one.gain[0, 0].real)
        np.testing.assert_array_equal(
            steady_two_level_closed(one).rho, steady_two_level_closed(scalar).rho
        )

    def test_both_models_give_rate_matrices(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        two = rate_matrices(q, ISO_PAIR)
        v = rate_matrices(QubitSpec(model=V_SHAPED, dipole=q.dipole), ISO_PAIR)
        assert type(two) is type(v) is RateMatrices
        assert (two.m, v.m) == (1, 2)

    def test_linear_polarization_structure(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 0.0]))
        rm = rate_matrices(q, ISO_PAIR)
        gl = rm.loss
        assert gl[0, 0].real == pytest.approx(gl[1, 1].real)
        assert abs(gl[0, 1]) == pytest.approx(gl[0, 0].real)

    def test_chiral_rates(self):
        slab = SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM)
        pair = moving_slab_tensors_asymptotic(slab)
        gamma = 0.7
        q = QubitSpec(
            model=V_SHAPED, dipole=gamma * np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
        )
        rm = rate_matrices(q, pair)
        g_l0 = np.linalg.eigvalsh(pair.loss).max()
        g_g0 = np.linalg.eigvalsh(pair.gain).max()
        assert rm.loss[1, 1].real == pytest.approx(2 * gamma**2 * g_l0, rel=1e-10)
        assert rm.gain[0, 0].real == pytest.approx(2 * gamma**2 * g_g0, rel=1e-10)
        assert abs(rm.loss[0, 0]) <= 1e-12 * abs(rm.loss[1, 1])
        assert abs(rm.loss[0, 1]) <= 1e-12 * abs(rm.loss[1, 1])
        assert abs(rm.gain[1, 1]) <= 1e-12 * abs(rm.gain[0, 0])
        # background loss populates the other decay channel
        g00 = 0.05
        rm2 = rate_matrices(q, add_background_loss(pair, g00))
        assert rm2.loss[0, 0].real == pytest.approx(2 * gamma**2 * g00, rel=1e-10)
        assert rm2.loss[1, 1].real == pytest.approx(
            2 * gamma**2 * (g_l0 + g00), rel=1e-10
        )
        assert abs(rm2.loss[0, 1]) <= 1e-12 * abs(rm2.loss[1, 1])


class TestLiouvillianTwoLevel:
    def test_null_vector_form(self):
        L = liouvillian(RatePair(0.1, 0.05))
        null = np.array([0.1, 0.0, 0.0, 0.05], dtype=complex)
        assert np.linalg.norm(L @ null) <= 1e-14

    def test_passive_ground_state(self):
        L = liouvillian(RatePair(0.1, 0.0))
        state, kdim = steady_state_kernel(L)
        assert kdim == 1
        np.testing.assert_allclose(state.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_coherence_eigenvalues(self):
        gl, gg, wa = 0.1, 0.05, 1.0
        L = liouvillian(RatePair(gl, gg), omega_a=wa)
        vals = np.linalg.eigvals(L)
        expect = -(gl + gg) / 2 + 1j * wa
        assert min(abs(vals - expect)) <= 1e-12
        assert min(abs(vals - np.conj(expect))) <= 1e-12

    def test_generator_is_a_plain_array(self):
        v_rates = random_psd_rate_matrices(np.random.default_rng(3))
        for rates, dim in ((RatePair(0.3, 0.2), 2), (v_rates, 3)):
            L = liouvillian(rates)
            assert type(L) is np.ndarray
            assert L.shape == (dim * dim, dim * dim) and L.dtype == complex

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 9), (16, 16)])
    def test_generator_of_no_qubit_model_rejected(self, shape):
        L = np.zeros(shape, dtype=complex)
        def run(L):
            return evolve(L, pure_state(0, 2), 1.0, 2)

        for call in (trace_residual, steady_state_kernel, run):
            with pytest.raises(ValidationError, match="generator must be 4x4 or 9x9"):
                call(L)

    def test_trace_preservation(self):
        L = liouvillian(RatePair(0.3, 0.2))
        assert trace_residual(L) <= 1e-12 * np.linalg.norm(L)

    def test_spectrum_left_half_plane(self):
        L = liouvillian(RatePair(0.3, 0.2))
        assert np.linalg.eigvals(L).real.max() <= 1e-10 * np.linalg.norm(L)


class TestLiouvillianV:
    @given(
        st.floats(-30.0, 3.0),
        st.floats(-30.0, 3.0),
        st.floats(0.1, 10.0),
    )
    def test_two_level_is_one_channel_block(self, log_loss, log_gain, omega_a):
        a, b = 10.0**log_loss, 10.0**log_gain
        two = liouvillian(RatePair(a, b), omega_a)
        v = liouvillian(
            RateMatrices(loss=np.diag([a, 0.0]), gain=np.diag([b, 0.0])), omega_a
        )
        block = [0, 1, 3, 4]  # gg, ge1, e1g, e1e1
        np.testing.assert_array_equal(two, v[np.ix_(block, block)])

    def test_trace_preservation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            L = liouvillian(random_psd_rate_matrices(rng))
            assert trace_residual(L) <= 1e-14 * np.linalg.norm(L)

    def test_linear_polarization_kernel_dim(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        L = liouvillian(rm)
        vals = np.linalg.eigvals(L)
        kdim = np.sum(np.abs(vals) <= 1e-10 * np.abs(vals).max())
        assert kdim == 2

    def test_chiral_kernel_is_e1(self):
        rm = RateMatrices(loss=np.diag([0.0, 0.1]), gain=np.diag([0.075, 0.0]))
        state, kdim = steady_state_kernel(liouvillian(rm))
        assert kdim == 1
        np.testing.assert_allclose(state.rho, np.diag([0.0, 1.0, 0.0]), atol=1e-10)

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            RateMatrices(loss=np.diag([1.0, -0.1]), gain=np.zeros((2, 2)))

    def test_negative_scalar_rate_rejected(self):
        with pytest.raises(ValidationError, match="not PSD"):
            RatePair(-0.1, 0.0)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValidationError, match="must both be 1x1 or both 2x2"):
            RateMatrices(loss=[[0.1]], gain=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["loss", "gain"])
    def test_non_finite_rates_rejected(self, name, bad):
        rates = {"loss": np.full((2, 2), 0.1), "gain": np.zeros((2, 2))}
        rates[name][1, 1] = bad
        with pytest.raises(ValidationError, match=f"{name} rate matrix has non-finite"):
            RateMatrices(**rates)


class TestCompletePositivityScale:
    """The PSD tolerances are relative to the matrix, so complete positivity
    is checked alike at every rate scale."""

    PSD = np.array([[1.0, 1j], [-1j, 1.0]])  # eigenvalues 0 and 2
    NOT_PSD = np.array([[1.0, 10.0], [10.0, 1.0]])  # eigenvalues -9 and 11

    @given(st.floats(-300.0, 3.0))
    def test_rate_matrices(self, log_scale):
        s = 10.0**log_scale
        RateMatrices(loss=s * self.PSD, gain=s * self.PSD)
        with pytest.raises(ValidationError, match="not PSD"):
            RateMatrices(loss=s * self.NOT_PSD, gain=np.zeros((2, 2)))

    @given(st.floats(-300.0, 3.0))
    def test_rounding_level_asymmetry_accepted(self, log_scale):
        s = 10.0**log_scale
        nearly = s * self.PSD
        nearly[0, 1] *= 1.0 + 1e-14
        rates = RateMatrices(loss=nearly, gain=s * self.PSD)
        np.testing.assert_array_equal(rates.loss, rates.loss.conj().T)


def test_subnormal_asymmetry_beyond_rounding_rejected():
    # judged at the least normal norm, 2.2e-308: 1e-10 of it is below 3e-318
    with pytest.raises(ValidationError, match="loss rate matrix is not Hermitian"):
        RateMatrices(loss=np.array([[0.0, 3e-318], [0.0, 0.0]]), gain=np.zeros((2, 2)))


class TestEvolve:
    def test_zero_generator_constant(self):
        L = liouvillian(RatePair(0.0, 0.0), omega_a=1.0)
        L[:] = 0.0
        rho0 = pure_state(0, 2)
        traj = evolve(L, rho0, 1.0, 10)
        for rho in traj.rho:
            np.testing.assert_allclose(rho, rho0.rho, atol=1e-15)

    def test_analytic_relaxation(self):
        gl, gg = 0.1, 0.05
        L = liouvillian(RatePair(gl, gg))
        traj = evolve(L, pure_state(0, 2), 80.0, 400)
        tot = gl + gg
        expect = (gg / tot) * (1.0 - np.exp(-tot * traj.times))
        got = traj.rho[:, 1, 1].real
        assert np.abs(got - expect).max() <= 1e-8

    def test_half_step_refinement(self):
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        L = liouvillian(rm)
        coarse = evolve(L, pure_state(2, 3), 50.0, 200)
        fine = evolve(L, pure_state(2, 3), 50.0, 400)
        for k, rho in enumerate(coarse.rho):
            np.testing.assert_allclose(
                np.diag(rho).real, np.diag(fine.rho[2 * k]).real, atol=1e-8
            )

    def test_invariants_along_trajectory(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        traj = evolve(liouvillian(rm), pure_state(1, 3), 500.0, 500)
        # from the states themselves, not from the trajectory's own checks
        trace = np.trace(traj.rho, axis1=1, axis2=2).real
        assert np.all(np.abs(trace - 1.0) <= 1e-9)
        assert np.all(np.linalg.eigvalsh(traj.rho) >= -1e-9)

    def test_growing_trace_names_first_failing_step(self):
        # d rho_ee / dt = c rho_gg with nothing lost: trace = 1 + c t, which
        # crosses the 1e-9 tolerance between t = 0.4 (step 4) and t = 0.5
        L = liouvillian(RatePair(0.0, 0.0), omega_a=1.0)
        L[:] = 0.0
        L[3, 0] = 2.2e-9
        with pytest.raises(
            NumericalInstabilityError, match=r"step 5 \(t = 0\.5\): trace"
        ):
            evolve(L, pure_state(0, 2), 1.0, 10)

    def test_nan_generator_fails_first_step(self):
        L = liouvillian(RatePair(0.1, 0.05))
        L[0, 3] = np.nan
        with pytest.raises(
            NumericalInstabilityError, match=r"step 1 \(t = 0\.1\): .*non-finite"
        ):
            evolve(L, pure_state(1, 2), 1.0, 10)

    def test_non_hermitian_state_names_step(self):
        L = liouvillian(RatePair(0.1, 0.05))
        L[1, 0] += 0.3  # feeds rho_ge from rho_gg, but not rho_eg
        with pytest.raises(
            NumericalInstabilityError, match=r"step 1 \(t = 0\.5\): .*not Hermitian"
        ):
            evolve(L, pure_state(0, 2), 1.0, 2)

    def test_validate_rejects_nan_state(self):
        with pytest.raises(NumericalInstabilityError):
            DensityMatrix(np.full((2, 2), np.nan), TWO_LEVEL_LABELS)

    def test_state_checked_when_built(self):
        with pytest.raises(NumericalInstabilityError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]), TWO_LEVEL_LABELS)

    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_non_finite_t_max_rejected(self, t_max):
        with pytest.raises(DomainError, match="t_max must be finite"):
            evolve(liouvillian(RatePair(0.1, 0.05)), pure_state(0, 2), t_max, 10)

    def test_chiral_decay_of_e2(self):
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        traj = evolve(liouvillian(rm), pure_state(2, 3), 500.0, 1000)
        pops = traj.rho[:, 2, 2].real
        assert np.all(np.diff(pops) <= 1e-12)
        assert pops[-1] <= 1e-6


class TestSteadyStates:
    def test_closed_vs_kernel_two_level(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rp = RatePair(*rng.uniform(0.01, 1.0, size=2))
            closed = steady_two_level_closed(rp)
            kernel, kdim = steady_state_kernel(liouvillian(rp))
            assert kdim == 1
            np.testing.assert_allclose(closed.rho, kernel.rho, atol=1e-10)

    def test_substrate_excited_population(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rho = steady_two_level_closed(rate_matrices(q, ISO_PAIR))
        assert rho.rho[1, 1].real == pytest.approx(0.25, abs=1e-10)

    def test_high_temperature_half(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rp = rate_matrices(q, thermal(ISO_PAIR, ThermalOccupation(1e6)))
        rho = steady_two_level_closed(rp)
        assert rho.rho[0, 0].real == pytest.approx(0.5, abs=1e-5)
        assert rho.rho[1, 1].real == pytest.approx(0.5, abs=1e-5)

    def test_both_rates_zero_degenerate(self):
        with pytest.raises(DomainError):
            steady_two_level_closed(RatePair(0.0, 0.0))

    def test_v_closed_vs_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rm = random_psd_rate_matrices(rng)
            try:
                closed = steady_v_closed(rm)
            except DegenerateKernelError:
                continue
            kernel, _ = steady_state_kernel(liouvillian(rm))
            np.testing.assert_allclose(closed.rho, kernel.rho, atol=1e-8)

    def test_v_closed_fig3_values(self):
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        rho = steady_v_closed(rm)
        assert rho.rho[0, 0].real == pytest.approx(4 / 7, abs=1e-12)
        assert rho.rho[1, 1].real == pytest.approx(3 / 7, abs=1e-12)
        assert abs(rho.rho[2, 2]) <= 1e-12

    def test_v_closed_pure_chiral(self):
        rm = RateMatrices(loss=np.diag([0.0, 0.1]), gain=np.diag([0.075, 0.0]))
        rho = steady_v_closed(rm)
        assert rho.rho[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_v_closed_symmetric_rates(self):
        rm = RateMatrices(loss=np.diag([0.2, 0.2]), gain=np.diag([0.05, 0.05]))
        rho = steady_v_closed(rm)
        assert rho.rho[1, 1].real == pytest.approx(rho.rho[2, 2].real, abs=1e-12)

    def test_closed_forms_check_the_rate_size(self):
        with pytest.raises(ValidationError, match="steady_v_closed needs 2x2 rates, got 1x1"):
            steady_v_closed(RatePair(0.1, 0.05))
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        with pytest.raises(ValidationError, match="two_level_closed needs 1x1 rates, got 2x2"):
            steady_two_level_closed(rm)

    def test_linear_degenerate_raises(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        with pytest.raises(DegenerateKernelError):
            steady_v_closed(rm)

    def test_degenerate_kernel_needs_initial_state(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        with pytest.raises(DegenerateKernelError):
            steady_state_kernel(liouvillian(rm))

    def test_trs_preserved_for_real_tensors(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 0.0]))
        rm = rate_matrices(q, ISO_PAIR)
        state, _ = steady_state_kernel(liouvillian(rm), pure_state(1, 3))
        assert state.rho[1, 1].real == pytest.approx(state.rho[2, 2].real, abs=1e-10)

    def test_trs_broken_for_chiral_rates(self):
        rm = RateMatrices(loss=np.diag([0.0, 0.1]), gain=np.diag([0.075, 0.0]))
        state, _ = steady_state_kernel(liouvillian(rm))
        assert abs(state.rho[1, 1].real - state.rho[2, 2].real) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_stationarity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rm = random_psd_rate_matrices(rng)
            L = liouvillian(rm)
            try:
                state, _ = steady_state_kernel(L, pure_state(0, 3))
            except DegenerateKernelError:
                continue
            res = np.linalg.norm(L @ state.rho.reshape(-1))
            assert res <= 1e-9 * np.linalg.norm(L)


def random_rates(rng, m, scale):
    """Seeded rates with a unique steady state: a positive definite loss
    matrix and a PSD gain matrix, (m, m), times ``scale``."""
    def gram():
        b = rng.uniform(-1.0, 1.0, size=(m, m)) + 1j * rng.uniform(-1.0, 1.0, size=(m, m))
        return b @ b.conj().T if m == 2 else np.abs(b) ** 2
    loss = gram() + rng.uniform(0.05, 1.0) * np.eye(m)
    gain = rng.uniform(0.0, 1.0) * gram()
    return RateMatrices(loss=scale * loss, gain=scale * gain)


CLOSED = {1: steady_two_level_closed, 2: steady_v_closed}
FIG2 = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
FIG3 = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))


def circular_dipole_over_slab(z_a, tensors=moving_slab_tensors_exact):
    """Rates of the dipole (x + iz)/sqrt(2) over the moving slab with omega_sp
    2, v 0.2 and no background loss: down to 1e-16 at z_a 3 and 1e-30 at 6."""
    params = SlabMotionParams(
        drude=DrudeParams(omega_sp=2.0), v=0.2, geometry=SubstrateGeometry(z_a=z_a)
    )
    q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0))
    return rate_matrices(q, tensors(params))


class TestKernelScale:
    """Weak rates have a unique steady state at any scale."""

    def test_weak_two_level_rates(self):
        rates = RatePair(1e-11, 5e-12)
        state, kdim = steady_state_kernel(liouvillian(rates))
        assert kdim == 1
        np.testing.assert_allclose(state.rho, steady_two_level_closed(rates).rho, atol=1e-10)

    @pytest.mark.parametrize("z_a", [3.0, 6.0])
    def test_far_circular_dipole_over_moving_slab(self, z_a):
        rates = circular_dipole_over_slab(z_a)
        closed = steady_v_closed(rates)
        np.testing.assert_allclose(closed.rho, np.diag([1.0, 0.0, 0.0]), atol=1e-21)
        # a unique kernel does not depend on the initial state
        state, kdim = steady_state_kernel(liouvillian(rates), pure_state(1, 3))
        assert kdim == 1
        np.testing.assert_allclose(state.rho, closed.rho, atol=1e-10)

    @pytest.mark.parametrize("z_a", [3.0, 6.0])
    def test_rank_one_asymptotic_slab_is_degenerate(self, z_a):
        # the far-field form gives rank-1 channel tensors: a truly degenerate
        # kernel, where the exact form has a unique one
        rates = circular_dipole_over_slab(z_a, moving_slab_tensors_asymptotic)
        with pytest.raises(DegenerateKernelError, match="kernel dimension 2"):
            steady_state_kernel(liouvillian(rates))

    @pytest.mark.parametrize("m", [1, 2])
    @given(st.integers(0, 2**32 - 1), st.floats(-300.0, 3.0), st.sampled_from([0.3, 1.0, 7.0]))
    def test_unique_at_every_rate_scale(self, m, seed, log_scale, omega_a):
        rates = random_rates(np.random.default_rng(seed), m, 10.0**log_scale)
        state, kdim = steady_state_kernel(liouvillian(rates, omega_a))
        assert kdim == 1
        np.testing.assert_allclose(state.rho, CLOSED[m](rates).rho, atol=1e-10)


class TestSteadyStateStack:
    def test_stack_matches_single_points(self):
        rng = np.random.default_rng(4)
        rates = [random_rates(rng, 2, 10.0**s) for s in (-20.0, -3.0, 0.0)]
        rates.insert(2, FIG2)
        Ls = np.array([liouvillian(r) for r in rates])
        rho0 = pure_state(1, 3)
        rho, kdims = steady_states(Ls, rho0)
        assert rho.shape == (4, 3, 3)
        assert kdims.tolist() == [1, 1, 2, 1]
        for L, state, kdim in zip(Ls, rho, kdims):
            single, single_kdim = steady_state_kernel(L, rho0)
            assert kdim == single_kdim
            np.testing.assert_allclose(state, single.rho, atol=1e-14)

    def test_degenerate_point_in_stack_needs_initial_state(self):
        Ls = np.array([liouvillian(FIG3), liouvillian(FIG2)])
        with pytest.raises(DegenerateKernelError, match="kernel dimension 2"):
            steady_states(Ls)

    def test_coupling_entry_rejected(self):
        L = liouvillian(FIG3)
        # row of rho_gg, column of the coherence rho_ge1
        L[0, 1] = 1e-3
        with pytest.raises(NumericalInstabilityError, match="zero-frequency block"):
            steady_state_kernel(L)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_rejected(self, bad):
        L = liouvillian(FIG3)
        L[0, 0] = bad
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            steady_state_kernel(L)


class TestLinearFamily:
    RATES = RatePair(0.1, 0.05)

    def test_theta_zero(self):
        st = steady_linear_family(0.0, self.RATES)
        gl, gg = 0.1, 0.05
        assert st[0, 0].real == pytest.approx(gl / (gl + 2 * gg))
        assert st[1, 1].real == pytest.approx(gg / (gl + 2 * gg))
        assert st[1, 2] == 0.0
        DensityMatrix(st, V_LABELS)

    def test_theta_pi_over_4(self):
        st = steady_linear_family(np.pi / 4, self.RATES)
        assert st[0, 0].real == pytest.approx(2 / 3, abs=1e-12)
        assert st[1, 1].real == pytest.approx(1 / 6, abs=1e-12)
        assert st[1, 2].real == pytest.approx(1 / 6, abs=1e-12)

    def test_theta_dark_sector(self):
        st = steady_linear_family(np.arctan(-0.5), self.RATES)
        assert st[0, 0].real == pytest.approx(1 / 3, abs=1e-12)
        assert st[1, 1].real == pytest.approx(1 / 3, abs=1e-12)
        assert st[1, 2].real == pytest.approx(-1 / 6, abs=1e-12)

    def test_unit_trace(self):
        for theta in np.linspace(-np.pi / 4, np.pi / 2, 17):
            st = steady_linear_family(theta, self.RATES)
            assert np.trace(st).real == pytest.approx(1.0, abs=1e-14)

    def test_nonphysical_flagged(self):
        st = steady_linear_family(1.2, self.RATES)
        with pytest.raises(NumericalInstabilityError):
            DensityMatrix(st, V_LABELS)
        assert np.linalg.eigvalsh(st).min() < 0

    def test_nonphysical_member_is_not_a_density_matrix(self):
        with pytest.raises(NumericalInstabilityError, match="negative eigenvalue"):
            DensityMatrix(steady_linear_family(1.2, self.RATES), V_LABELS)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            steady_linear_family(-1.0, self.RATES)

    def test_fit_round_trip(self):
        for theta0 in (-0.5, 0.0, 0.3, 0.78):
            st = steady_linear_family(theta0, self.RATES)
            theta, residual = fit_linear_family_theta(
                DensityMatrix(st, V_LABELS), self.RATES
            )
            assert theta == pytest.approx(theta0, abs=1e-10)
            assert residual <= 1e-12

    def test_fit_needs_a_v_state(self):
        state = DensityMatrix(np.diag([0.5, 0.5]), TWO_LEVEL_LABELS)
        with pytest.raises(ValidationError, match="3x3 state, got 2x2"):
            fit_linear_family_theta(state, RatePair(0.1, 0.05))

    def test_fit_evolved_states(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        L = liouvillian(rm)
        final_g = DensityMatrix(evolve(L, pure_state(0, 3), 500.0, 1000).rho[-1], V_LABELS)
        theta, residual = fit_linear_family_theta(final_g, self.RATES)
        assert theta == pytest.approx(np.pi / 4, abs=1e-6)
        assert residual <= 1e-8
        final_e1 = DensityMatrix(evolve(L, pure_state(1, 3), 500.0, 1000).rho[-1], V_LABELS)
        theta, residual = fit_linear_family_theta(final_e1, self.RATES)
        assert theta == pytest.approx(np.arctan(-0.5), abs=1e-6)
        assert residual <= 1e-8

    @given(
        st.floats(-30.0, 3.0),
        st.floats(0.0, 1.0),
        st.floats(-np.pi / 4, np.pi / 4),
    )
    def test_family_rates_or_their_scalars(self, log_gl, ratio, theta):
        gl = 10.0**log_gl
        gg = ratio * gl
        ones = np.ones((2, 2))
        family = RateMatrices(gl * ones, gg * ones)
        scalar = RatePair(gl, gg)
        assert linear_family_rates(family) == linear_family_rates(scalar) == (gl, gg)
        member = steady_linear_family(theta, family)
        np.testing.assert_array_equal(member, steady_linear_family(theta, scalar))
        for rates in (family, scalar):
            fit, residual = fit_linear_family_theta(DensityMatrix(member, V_LABELS), rates)
            assert residual <= 1e-12
            # theta shapes only the excited block, which vanishes with gg
            if ratio >= 1e-12:
                assert fit == pytest.approx(theta, abs=1e-9)

    @given(st.floats(-300.0, 3.0))
    def test_membership_at_every_scale(self, log_scale):
        s = 10.0**log_scale
        family = RateMatrices(s * FIG2.loss, s * FIG2.gain)
        assert linear_family_rates(family) == (0.1 * s, 0.05 * s)
        assert linear_family_rates(RateMatrices(s * FIG3.loss, s * FIG3.gain)) is None

    def test_rates_outside_the_family_rejected(self):
        fig3 = RateMatrices(np.diag([0.1, 0.175]), np.diag([0.075, 0.0]))
        assert linear_family_rates(fig3) is None
        member = DensityMatrix(steady_linear_family(0.3, self.RATES), V_LABELS)
        with pytest.raises(ValidationError, match="rates are not in"):
            steady_linear_family(0.3, fig3)
        with pytest.raises(ValidationError, match="rates are not in"):
            fit_linear_family_theta(member, fig3)


def slab_at(omega_sp, v, x_loss):
    """The moving slab whose loss argument 2|k_loss|z_a is x_loss."""
    z_a = x_loss * v / (2.0 * abs(1.0 - omega_sp))
    return SlabMotionParams(
        drude=DrudeParams(omega_sp=omega_sp), v=v, geometry=SubstrateGeometry(z_a=z_a)
    )


# omega_sp on both sides of omega_a = 1, so k_loss takes both signs.  The
# loss argument 2|k_loss|z_a lies in [0.2, 10], the gain one above it: the
# loss tensor's eigenvalues spread as about 8 x^2 with it, and the rounding
# of the state with them, to 6e-13 at x = 50
SLABS = (
    st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 10.0)),
    st.floats(0.01, 1.0),
    st.floats(0.2, 10.0),
)


class TestTimeReversal:
    """Chirality alone does not break time-reversal symmetry.  A passive
    environment, however chiral, relaxes to the Gibbs state, and the mirror
    image of the dipole gives the mirror image of the state.  Both hold for
    the kernel solver and for the closed forms."""

    def assert_states(self, rates, expected):
        rho, _ = steady_states(liouvillian(rates)[None])
        np.testing.assert_allclose(rho[0], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(CLOSED[rates.m](rates).rho, expected, rtol=0, atol=1e-12)

    @staticmethod
    def gibbs(n, m):
        """diag(1 + n, n, ..., n) / (1 + (m + 1) n) for m excited levels."""
        return np.diag([1.0 + n] + [n] * m) / (1.0 + (m + 1) * n)

    @pytest.mark.parametrize("m", [1, 2])
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 1.0), st.floats(0.0, 5.0))
    # a subnormal gain n A, not PSD to rounding at its own norm
    @example(seed=73, log_scale=0.0, n=5e-324)
    def test_passive_rates_relax_to_gibbs(self, m, seed, log_scale, n):
        # loss (1 + n) A and gain n A, for a random complex PSD A
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = 10.0**log_scale * (b @ b.conj().T)
        self.assert_states(RateMatrices(loss=(1.0 + n) * a, gain=n * a), self.gibbs(n, m))

    @given(*SLABS, st.floats(0.0, 5.0))
    # a subnormal gain tensor n T, whose rates are not Hermitian, or not PSD,
    # to rounding at their own norm
    @example(omega_sp=7.5, v=0.1, x_loss=1.6, n=5e-324)
    @example(omega_sp=7.5, v=0.35, x_loss=3.4, n=5e-324)
    def test_passive_slab_relaxes_to_gibbs(self, omega_sp, v, x_loss, n):
        # the slab's gain tensor replaced by n times its loss tensor T, and
        # T by (1 + n) T: a passive medium at occupation n
        t = moving_slab_tensors_exact(slab_at(omega_sp, v, x_loss)).loss
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0))
        rates = rate_matrices(q, InteractionTensorPair((1.0 + n) * t, n * t))
        self.assert_states(rates, self.gibbs(n, 2))

    @given(*SLABS, st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    def test_conjugate_dipole_swaps_e1_e2(self, omega_sp, v, x_loss, seed, n):
        slab = moving_slab_tensors_exact(slab_at(omega_sp, v, x_loss))
        pair = thermal(slab, ThermalOccupation(n))
        rng = np.random.default_rng(seed)
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        # far from a real dipole, whose two rate channels coincide
        assume(abs(d @ d) <= 0.9 * np.vdot(d, d).real)
        rates, mirror = (
            rate_matrices(QubitSpec(model=V_SHAPED, dipole=dipole), pair)
            for dipole in (d, d.conj())
        )
        rho, _ = steady_states(liouvillian(rates)[None])
        swap = np.ix_([0, 2, 1], [0, 2, 1])
        self.assert_states(mirror, rho[0][swap])
