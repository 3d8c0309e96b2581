import numpy as np
import pytest
from hypothesis import given
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
    liouvillian_two_level,
    liouvillian_v,
    moving_slab_tensors_asymptotic,
    rate_matrices_v,
    rates_two_level,
    steady_linear_family,
    steady_state_kernel,
    steady_two_level_closed,
    steady_v_closed,
    thermal_rate_matrices,
    thermal_rate_pair,
    thermal_tensors,
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


class TestThermalMixing:
    def test_zero_temperature_passthrough(self):
        th = thermal_tensors(ISO_PAIR, ThermalOccupation(0.0))
        np.testing.assert_allclose(th.loss, ISO_PAIR.loss)
        np.testing.assert_allclose(th.gain, ISO_PAIR.gain)

    def test_unit_occupation(self):
        th = thermal_tensors(ISO_PAIR, ThermalOccupation(1.0))
        np.testing.assert_allclose(th.loss, 2.0 * ISO_PAIR.loss + ISO_PAIR.gain)

    def test_high_temperature_limit(self):
        n = 1e6
        th = thermal_tensors(ISO_PAIR, ThermalOccupation(n))
        total = ISO_PAIR.loss + ISO_PAIR.gain
        np.testing.assert_allclose(th.loss / n, total, rtol=1e-5)
        np.testing.assert_allclose(th.gain / n, total, rtol=1e-5)

    def test_remains_psd(self):
        thermal_tensors(ISO_PAIR, ThermalOccupation(3.7)).validate()

    def test_negative_occupation_rejected(self):
        with pytest.raises(DomainError):
            ThermalOccupation(-0.1)

    def test_tensor_vs_rate_level_mixing(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.2j, 0.5]))
        occ = ThermalOccupation(0.8)
        via_tensor = rate_matrices_v(q, thermal_tensors(ISO_PAIR, occ))
        via_rates = thermal_rate_matrices(rate_matrices_v(q, ISO_PAIR), occ)
        np.testing.assert_allclose(via_tensor.loss, via_rates.loss, atol=1e-12)
        np.testing.assert_allclose(via_tensor.gain, via_rates.gain, atol=1e-12)


class TestRates:
    def test_basis_quadratic_form(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        pair = InteractionTensorPair(
            loss=np.diag([0.2, 0.3, 0.4]).astype(complex),
            gain=np.zeros((3, 3), dtype=complex),
        )
        rp = rates_two_level(q, pair)
        assert rp.gamma_loss == pytest.approx(0.4)

    def test_quadratic_scaling(self):
        q1 = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        q2 = QubitSpec(model=TWO_LEVEL, dipole=np.array([2.0, 0.0, 0.0]))
        r1 = rates_two_level(q1, ISO_PAIR)
        r2 = rates_two_level(q2, ISO_PAIR)
        assert r2.gamma_loss == pytest.approx(4.0 * r1.gamma_loss)
        assert r2.gamma_gain == pytest.approx(4.0 * r1.gamma_gain)

    def test_substrate_reference_values(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rp = rates_two_level(q, ISO_PAIR)
        assert rp.gamma_loss == pytest.approx(0.29842, rel=1e-4)
        assert rp.gamma_gain == pytest.approx(0.099472, rel=1e-4)

    def test_linear_polarization_structure(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 0.0]))
        rm = rate_matrices_v(q, ISO_PAIR)
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
        rm = rate_matrices_v(q, pair)
        g_l0 = np.linalg.eigvalsh(pair.loss).max()
        g_g0 = np.linalg.eigvalsh(pair.gain).max()
        assert rm.loss[1, 1].real == pytest.approx(2 * gamma**2 * g_l0, rel=1e-10)
        assert rm.gain[0, 0].real == pytest.approx(2 * gamma**2 * g_g0, rel=1e-10)
        assert abs(rm.loss[0, 0]) <= 1e-12 * abs(rm.loss[1, 1])
        assert abs(rm.loss[0, 1]) <= 1e-12 * abs(rm.loss[1, 1])
        assert abs(rm.gain[1, 1]) <= 1e-12 * abs(rm.gain[0, 0])
        # background loss populates the other decay channel
        g00 = 0.05
        rm2 = rate_matrices_v(q, add_background_loss(pair, g00))
        assert rm2.loss[0, 0].real == pytest.approx(2 * gamma**2 * g00, rel=1e-10)
        assert rm2.loss[1, 1].real == pytest.approx(
            2 * gamma**2 * (g_l0 + g00), rel=1e-10
        )
        assert abs(rm2.loss[0, 1]) <= 1e-12 * abs(rm2.loss[1, 1])


class TestLiouvillianTwoLevel:
    def test_null_vector_form(self):
        L = liouvillian_two_level(RatePair(0.1, 0.05))
        null = np.array([0.1, 0.0, 0.0, 0.05], dtype=complex)
        assert np.linalg.norm(L.matrix @ null) <= 1e-14

    def test_passive_ground_state(self):
        L = liouvillian_two_level(RatePair(0.1, 0.0))
        state, kdim = steady_state_kernel(L)
        assert kdim == 1
        np.testing.assert_allclose(state.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_coherence_eigenvalues(self):
        gl, gg, wa = 0.1, 0.05, 1.0
        L = liouvillian_two_level(RatePair(gl, gg), omega_a=wa)
        vals = np.linalg.eigvals(L.matrix)
        expect = -(gl + gg) / 2 + 1j * wa
        assert min(abs(vals - expect)) <= 1e-12
        assert min(abs(vals - np.conj(expect))) <= 1e-12

    def test_trace_preservation(self):
        L = liouvillian_two_level(RatePair(0.3, 0.2))
        assert L.trace_residual() <= 1e-12 * np.linalg.norm(L.matrix)

    def test_spectrum_left_half_plane(self):
        L = liouvillian_two_level(RatePair(0.3, 0.2))
        assert np.linalg.eigvals(L.matrix).real.max() <= 1e-10 * np.linalg.norm(L.matrix)


class TestLiouvillianV:
    @given(
        st.floats(-30.0, 3.0),
        st.floats(-30.0, 3.0),
        st.floats(0.1, 10.0),
    )
    def test_two_level_is_one_channel_block(self, log_loss, log_gain, omega_a):
        a, b = 10.0**log_loss, 10.0**log_gain
        two = liouvillian_two_level(RatePair(a, b), omega_a).matrix
        v = liouvillian_v(
            RateMatrices(loss=np.diag([a, 0.0]), gain=np.diag([b, 0.0])), omega_a
        ).matrix
        block = [0, 1, 3, 4]  # gg, ge1, e1g, e1e1
        np.testing.assert_array_equal(two, v[np.ix_(block, block)])

    def test_trace_preservation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            L = liouvillian_v(random_psd_rate_matrices(rng))
            assert L.trace_residual() <= 1e-14 * np.linalg.norm(L.matrix)

    def test_linear_polarization_kernel_dim(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        L = liouvillian_v(rm)
        vals = np.linalg.eigvals(L.matrix)
        kdim = np.sum(np.abs(vals) <= 1e-10 * np.abs(vals).max())
        assert kdim == 2

    def test_chiral_kernel_is_e1(self):
        rm = RateMatrices(loss=np.diag([0.0, 0.1]), gain=np.diag([0.075, 0.0]))
        state, kdim = steady_state_kernel(liouvillian_v(rm))
        assert kdim == 1
        np.testing.assert_allclose(state.rho, np.diag([0.0, 1.0, 0.0]), atol=1e-10)

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            RateMatrices(loss=np.diag([1.0, -0.1]), gain=np.zeros((2, 2)))


class TestCompletePositivityScale:
    """The PSD tolerances are relative to the matrix, so complete positivity
    is checked alike at every rate scale."""

    PSD = np.array([[1.0, 1j], [-1j, 1.0]])  # eigenvalues 0 and 2
    NOT_PSD = np.array([[1.0, 10.0], [10.0, 1.0]])  # eigenvalues -9 and 11

    @given(st.floats(-30.0, 3.0))
    def test_rate_matrices(self, log_scale):
        s = 10.0**log_scale
        RateMatrices(loss=s * self.PSD, gain=s * self.PSD)
        with pytest.raises(ValidationError, match="not PSD"):
            RateMatrices(loss=s * self.NOT_PSD, gain=np.zeros((2, 2)))

    @given(st.floats(-30.0, 3.0))
    def test_interaction_tensors(self, log_scale):
        s = 10.0**log_scale
        psd, not_psd = (np.pad(s * m, ((0, 1), (0, 1))) for m in (self.PSD, self.NOT_PSD))
        InteractionTensorPair(loss=psd, gain=psd).validate()
        with pytest.raises(DomainError, match="not positive semidefinite"):
            InteractionTensorPair(loss=not_psd, gain=psd).validate()


class TestEvolve:
    def test_zero_generator_constant(self):
        L = liouvillian_two_level(RatePair(0.0, 0.0), omega_a=1.0)
        L.matrix[:] = 0.0
        rho0 = pure_state(0, 2)
        traj = evolve(L, rho0, 1.0, 10)
        for st in traj.states:
            np.testing.assert_allclose(st.rho, rho0.rho, atol=1e-15)

    def test_analytic_relaxation(self):
        gl, gg = 0.1, 0.05
        L = liouvillian_two_level(RatePair(gl, gg))
        traj = evolve(L, pure_state(0, 2), 80.0, 400)
        tot = gl + gg
        expect = (gg / tot) * (1.0 - np.exp(-tot * traj.times))
        got = np.array([s.rho[1, 1].real for s in traj.states])
        assert np.abs(got - expect).max() <= 1e-8

    def test_half_step_refinement(self):
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        L = liouvillian_v(rm)
        coarse = evolve(L, pure_state(2, 3), 50.0, 200)
        fine = evolve(L, pure_state(2, 3), 50.0, 400)
        for k, st in enumerate(coarse.states):
            np.testing.assert_allclose(
                np.diag(st.rho).real, np.diag(fine.states[2 * k].rho).real, atol=1e-8
            )

    def test_invariants_along_trajectory(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        traj = evolve(liouvillian_v(rm), pure_state(1, 3), 500.0, 500)
        for st in traj.states:
            assert abs(st.trace - 1.0) <= 1e-9
            assert st.min_eigenvalue >= -1e-9

    def test_growing_trace_names_first_failing_step(self):
        # d rho_ee / dt = c rho_gg with nothing lost: trace = 1 + c t, which
        # crosses the 1e-9 tolerance between t = 0.4 (step 4) and t = 0.5
        L = liouvillian_two_level(RatePair(0.0, 0.0), omega_a=1.0)
        L.matrix[:] = 0.0
        L.matrix[3, 0] = 2.2e-9
        with pytest.raises(
            NumericalInstabilityError, match=r"step 5 \(t = 0\.5\): trace"
        ):
            evolve(L, pure_state(0, 2), 1.0, 10)

    def test_nan_generator_fails_first_step(self):
        L = liouvillian_two_level(RatePair(0.1, 0.05))
        L.matrix[0, 3] = np.nan
        with pytest.raises(
            NumericalInstabilityError, match=r"step 1 \(t = 0\.1\): .*non-finite"
        ):
            evolve(L, pure_state(1, 2), 1.0, 10)

    def test_non_hermitian_state_names_step(self):
        L = liouvillian_two_level(RatePair(0.1, 0.05))
        L.matrix[1, 0] += 0.3  # feeds rho_ge from rho_gg, but not rho_eg
        with pytest.raises(
            NumericalInstabilityError, match=r"step 1 \(t = 0\.5\): .*not Hermitian"
        ):
            evolve(L, pure_state(0, 2), 1.0, 2)

    def test_validate_rejects_nan_state(self):
        with pytest.raises(NumericalInstabilityError):
            DensityMatrix(np.full((2, 2), np.nan), TWO_LEVEL_LABELS).validate()

    def test_state_checked_when_built(self):
        with pytest.raises(NumericalInstabilityError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]), TWO_LEVEL_LABELS)

    def test_chiral_decay_of_e2(self):
        rm = RateMatrices(loss=np.diag([0.1, 0.175]), gain=np.diag([0.075, 0.0]))
        traj = evolve(liouvillian_v(rm), pure_state(2, 3), 500.0, 1000)
        pops = np.array([s.rho[2, 2].real for s in traj.states])
        assert np.all(np.diff(pops) <= 1e-12)
        assert pops[-1] <= 1e-6


class TestSteadyStates:
    def test_closed_vs_kernel_two_level(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rp = RatePair(*rng.uniform(0.01, 1.0, size=2))
            closed = steady_two_level_closed(rp)
            kernel, kdim = steady_state_kernel(liouvillian_two_level(rp))
            assert kdim == 1
            np.testing.assert_allclose(closed.rho, kernel.rho, atol=1e-10)

    def test_substrate_excited_population(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rho = steady_two_level_closed(rates_two_level(q, ISO_PAIR))
        assert rho.rho[1, 1].real == pytest.approx(0.25, abs=1e-10)

    def test_high_temperature_half(self):
        q = QubitSpec(model=TWO_LEVEL, dipole=np.array([1.0, 0.0, 0.0]))
        rp = rates_two_level(q, thermal_tensors(ISO_PAIR, ThermalOccupation(1e6)))
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
            kernel, _ = steady_state_kernel(liouvillian_v(rm))
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

    def test_linear_degenerate_raises(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        with pytest.raises(DegenerateKernelError):
            steady_v_closed(rm)

    def test_degenerate_kernel_needs_initial_state(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        with pytest.raises(DegenerateKernelError):
            steady_state_kernel(liouvillian_v(rm))

    def test_trs_preserved_for_real_tensors(self):
        q = QubitSpec(model=V_SHAPED, dipole=np.array([1.0, 0.0, 0.0]))
        rm = rate_matrices_v(q, ISO_PAIR)
        state, _ = steady_state_kernel(liouvillian_v(rm), pure_state(1, 3))
        assert state.rho[1, 1].real == pytest.approx(state.rho[2, 2].real, abs=1e-10)

    def test_trs_broken_for_chiral_rates(self):
        rm = RateMatrices(loss=np.diag([0.0, 0.1]), gain=np.diag([0.075, 0.0]))
        state, _ = steady_state_kernel(liouvillian_v(rm))
        assert abs(state.rho[1, 1].real - state.rho[2, 2].real) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_stationarity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rm = random_psd_rate_matrices(rng)
            L = liouvillian_v(rm)
            try:
                state, _ = steady_state_kernel(L, pure_state(0, 3))
            except DegenerateKernelError:
                continue
            res = np.linalg.norm(L.matrix @ state.rho.reshape(-1))
            assert res <= 1e-9 * np.linalg.norm(L.matrix)


class TestLinearFamily:
    RATES = RatePair(0.1, 0.05)

    def test_theta_zero(self):
        st = steady_linear_family(0.0, self.RATES)
        gl, gg = 0.1, 0.05
        assert st.rho[0, 0].real == pytest.approx(gl / (gl + 2 * gg))
        assert st.rho[1, 1].real == pytest.approx(gg / (gl + 2 * gg))
        assert st.rho[1, 2] == 0.0
        assert st.physical

    def test_theta_pi_over_4(self):
        st = steady_linear_family(np.pi / 4, self.RATES)
        assert st.rho[0, 0].real == pytest.approx(2 / 3, abs=1e-12)
        assert st.rho[1, 1].real == pytest.approx(1 / 6, abs=1e-12)
        assert st.rho[1, 2].real == pytest.approx(1 / 6, abs=1e-12)

    def test_theta_dark_sector(self):
        st = steady_linear_family(np.arctan(-0.5), self.RATES)
        assert st.rho[0, 0].real == pytest.approx(1 / 3, abs=1e-12)
        assert st.rho[1, 1].real == pytest.approx(1 / 3, abs=1e-12)
        assert st.rho[1, 2].real == pytest.approx(-1 / 6, abs=1e-12)

    def test_unit_trace(self):
        for theta in np.linspace(-np.pi / 4, np.pi / 2, 17):
            st = steady_linear_family(theta, self.RATES)
            assert np.trace(st.rho).real == pytest.approx(1.0, abs=1e-14)

    def test_nonphysical_flagged(self):
        st = steady_linear_family(1.2, self.RATES)
        assert not st.physical
        assert np.linalg.eigvalsh(st.rho).min() < 0

    def test_nonphysical_member_is_not_a_density_matrix(self):
        with pytest.raises(NumericalInstabilityError, match="negative eigenvalue"):
            steady_linear_family(1.2, self.RATES).as_density_matrix()

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            steady_linear_family(-1.0, self.RATES)

    def test_fit_round_trip(self):
        for theta0 in (-0.5, 0.0, 0.3, 0.78):
            st = steady_linear_family(theta0, self.RATES)
            theta, residual = fit_linear_family_theta(
                st.as_density_matrix(), self.RATES
            )
            assert theta == pytest.approx(theta0, abs=1e-10)
            assert residual <= 1e-12

    def test_fit_evolved_states(self):
        rm = RateMatrices(loss=0.1 * np.ones((2, 2)), gain=0.05 * np.ones((2, 2)))
        L = liouvillian_v(rm)
        final_g = evolve(L, pure_state(0, 3), 500.0, 1000).states[-1]
        theta, residual = fit_linear_family_theta(final_g, self.RATES)
        assert theta == pytest.approx(np.pi / 4, abs=1e-6)
        assert residual <= 1e-8
        final_e1 = evolve(L, pure_state(1, 3), 500.0, 1000).states[-1]
        theta, residual = fit_linear_family_theta(final_e1, self.RATES)
        assert theta == pytest.approx(np.arctan(-0.5), abs=1e-6)
        assert residual <= 1e-8
