import tracemalloc

import numpy as np
import pytest

from constructal import (
    AssemblyConfig,
    IntegrationOptions,
    ProjectedGradient,
    TransportCosts,
    integrate,
    optimum_state,
    state_box,
    two_trajectory_run,
)
from constructal import analysis, hierarchy as hm
from constructal.errors import DegenerateFitError, DomainError, TooFewSamplesError

from conftest import interior_states

# frozen regression: canonical +/-10% sub-box, 10^4 shifted-Kronecker samples, seed 0
CANONICAL_NU = 0.37567343822603316


class TestMatrixMeasure:
    def test_negative_identity(self):
        assert analysis.matrix_measure(-np.eye(3)) == pytest.approx(-1.0)

    def test_skew_symmetric_is_zero(self):
        assert analysis.matrix_measure([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_upper_triangular(self):
        assert analysis.matrix_measure([[-2.0, 1.0], [0.0, -2.0]]) == pytest.approx(-1.5)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            analysis.matrix_measure(np.ones((2, 3)))
        with pytest.raises(DomainError):
            analysis.matrix_measure([[np.nan, 0.0], [0.0, 1.0]])

    def test_stack_equals_per_matrix_values(self, costs, cfg):
        rng = np.random.default_rng(53)
        J = -hm.grad_jacobian(costs, cfg, interior_states(rng, 64), "decoupled")
        assert J.shape == (64, 5, 5)
        mus = analysis.matrix_measure(J)
        assert mus.shape == (64,)
        assert np.array_equal(mus, [analysis.matrix_measure(A) for A in J])

    def test_stack_rejects_bad_input(self):
        with pytest.raises(DomainError):
            analysis.matrix_measure(np.ones((2, 3, 4)))
        S = np.tile(-np.eye(5), (8, 1, 1))
        S[5, 1, 3] = np.inf
        with pytest.raises(DomainError):
            analysis.matrix_measure(S)

    def test_convex_subadditivity_sampled(self, costs, cfg):
        rng = np.random.default_rng(47)
        X = interior_states(rng, 40)
        for _ in range(200):
            a = X[rng.integers(len(X))]
            b = X[rng.integers(len(X))]
            mode_a = "decoupled" if rng.random() < 0.5 else "coupled"
            mode_b = "decoupled" if rng.random() < 0.5 else "coupled"
            A = -hm.grad_jacobian(costs, cfg, a, mode_a)
            B = -hm.grad_jacobian(costs, cfg, b, mode_b)
            theta = float(rng.random())
            mixed = analysis.matrix_measure(theta * A + (1 - theta) * B)
            bound = max(analysis.matrix_measure(A), analysis.matrix_measure(B))
            assert mixed <= bound + 1e-12 * max(1.0, abs(bound))


class TestJacobian:
    def test_diagonal_at_optimum(self, costs, cfg, pg_mode, x_star):
        J = analysis.jacobian(pg_mode, costs, cfg, x_star)
        assert np.diag(J) == pytest.approx([-0.5, -32.0, -1024.0, -1.0, -1.0], rel=1e-9)
        assert analysis.matrix_measure(J) == pytest.approx(-0.5, abs=1e-8)

    def test_branching_block_is_minus_kappa(self, costs, cfg, pg_mode, x_star):
        J = analysis.jacobian(pg_mode, costs, cfg, x_star)
        assert J[3:, 3:] == pytest.approx(-np.eye(2), abs=1e-12)
        assert J[3:, :3] == pytest.approx(np.zeros((2, 3)), abs=1e-12)

    def test_matches_velocity_finite_differences(self, costs, cfg, box, pg_mode):
        from constructal.dynamics import velocity

        rng = np.random.default_rng(53)
        for vec in interior_states(rng, 20):
            J = analysis.jacobian(pg_mode, costs, cfg, vec)
            step_len = 1e-6
            for j in range(5):
                e = np.zeros(5)
                e[j] = step_len
                vp, _ = velocity(pg_mode, costs, cfg, box, vec + e)
                vm, _ = velocity(pg_mode, costs, cfg, box, vec - e)
                fd = (vp - vm) / (2 * step_len)
                scale = max(1.0, np.max(np.abs(J[:, j])))
                assert np.max(np.abs(J[:, j] - fd)) <= 1e-5 * scale

    def test_rejects_boundary_point(self, costs, cfg, pg_mode, box):
        x = optimum_state(costs, cfg).vector()
        x[3] = 1.0
        with pytest.raises(DomainError):
            analysis.jacobian(pg_mode, costs, cfg, x)


class TestCertification:
    def test_canonical_certificate_passes(self, costs, cfg, box, pg_mode):
        cert = analysis.certify_contraction(pg_mode, costs, cfg, box, count=10_000, seed=0)
        assert cert.passed
        assert cert.nu_estimate == pytest.approx(CANONICAL_NU, abs=1e-12)
        assert cert.worst_mu <= -cert.nu_estimate + 1e-8
        assert cert.margin <= 1e-8
        assert cert.generator == "kronecker-shifted" and cert.seed == 0

    @pytest.mark.parametrize("gradient_mode", ["decoupled", "coupled"])
    def test_margin_has_content_only_for_a_per_coordinate_mobility(self, costs, cfg, box, gradient_mode):
        # with a scalar mobility m, sym(J) = -m sym(Dg), so mu(J) = -m lambda_min(sym Dg)
        # at every sample and the margin is zero up to rounding
        for m in (1.0, 0.37, 3.3):
            mode = ProjectedGradient(mobility=m, gradient_mode=gradient_mode)
            cert = analysis.certify_contraction(mode, costs, cfg, box)
            assert abs(cert.margin) <= 1e-12 * max(1.0, abs(cert.worst_mu))
        if gradient_mode == "decoupled":
            mode = ProjectedGradient(mobility=(1.0, 2.0, 0.5, 1.0, 1.0))
            assert analysis.certify_contraction(mode, costs, cfg, box).margin < -0.1

    def test_certificate_reproducible(self, costs, cfg, box, pg_mode):
        a = analysis.certify_contraction(pg_mode, costs, cfg, box, count=2000, seed=5)
        b = analysis.certify_contraction(pg_mode, costs, cfg, box, count=2000, seed=5)
        assert a.nu_estimate == b.nu_estimate and a.worst_mu == b.worst_mu

    def test_branching_subbox_rate_is_exactly_one(self):
        costs = TransportCosts(K=(1.0, 0.5, 0.25))
        cfg = AssemblyConfig.bejan(costs, A1=4.0)
        box = state_box(costs, cfg)
        mode = ProjectedGradient(mobility=1.0)
        x_opt = optimum_state(costs, cfg).vector()
        lo = x_opt.copy()
        hi = x_opt.copy()
        lo[2], hi[2] = 7.2, 8.8
        cert = analysis.certify_contraction(mode, costs, cfg, box, subbox=(lo, hi), count=4096, seed=0)
        assert cert.passed
        assert cert.nu_estimate == pytest.approx(1.0, abs=1e-9)
        assert cert.worst_mu == pytest.approx(-1.0, abs=1e-9)

    def test_coupled_certificate_fails_with_witnesses(self, costs, cfg, box):
        mode = ProjectedGradient(mobility=1.0, gradient_mode="coupled")
        cert = analysis.certify_contraction(mode, costs, cfg, box, count=4096, seed=0)
        assert not cert.passed
        assert cert.curvature_lambda < 0.0
        assert len(cert.witnesses) > 0

    @pytest.mark.parametrize("gradient_mode", ["decoupled", "coupled"])
    def test_chunked_evaluation_matches_one_shot(self, costs, cfg, box, gradient_mode, monkeypatch):
        # 4,096 samples are four chunks of 1,024; chunks of 3 split them into 1,366,
        # and the coupled certificate's eight witnesses (every sample breaks
        # its bound) are gathered from three chunks of the second pass
        mode = ProjectedGradient(mobility=1.0, gradient_mode=gradient_mode)
        whole = analysis.certify_contraction(mode, costs, cfg, box, count=4096, seed=3)
        monkeypatch.setattr(analysis, "CERT_CHUNK", 3)
        chunked = analysis.certify_contraction(mode, costs, cfg, box, count=4096, seed=3)
        assert chunked.nu_estimate == whole.nu_estimate
        assert chunked.worst_mu == whole.worst_mu
        assert chunked.witnesses == whole.witnesses
        assert len(whole.witnesses) == (0 if gradient_mode == "decoupled" else 8)

    def test_certificate_memory_is_bounded_by_its_chunk(self, costs, cfg, box, pg_mode):
        # 10,000 samples in chunks of 1,024: the Jacobian stacks and their
        # eigenvalue work of one chunk, not of every sample, are held at once
        # (7.2 MB traced with chunks of 2**14)
        analysis.certify_contraction(pg_mode, costs, cfg, box, count=100, seed=0)  # warm caches
        tracemalloc.start()
        try:
            analysis.certify_contraction(pg_mode, costs, cfg, box, count=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_rejects_sign_descent_and_bad_count(self, costs, cfg, box, pg_mode):
        from constructal import SignDescent

        with pytest.raises(DomainError):
            analysis.certify_contraction(SignDescent(), costs, cfg, box)
        with pytest.raises(DomainError):
            analysis.certify_contraction(pg_mode, costs, cfg, box, count=0)
        with pytest.raises(DomainError, match=r"sample count must be in \[1, 10000000\]"):
            # one past the sample bound: rejected before anything is drawn
            analysis.certify_contraction(pg_mode, costs, cfg, box, count=analysis.SAMPLE_LIMIT + 1)


class TestStructuralBound:
    def test_constant_mobility_equality(self, costs, cfg, pg_mode):
        # with unit mobility, mu(J) = -lambda_min(sym Dg) at every state
        rng = np.random.default_rng(59)
        for vec in interior_states(rng, 50):
            mu = analysis.matrix_measure(analysis.jacobian(pg_mode, costs, cfg, vec))
            Dg = hm.grad_jacobian(costs, cfg, vec, pg_mode.gradient_mode)
            bound = -float(np.linalg.eigvalsh(0.5 * (Dg + Dg.T))[0])
            assert mu <= bound + 1e-10
            assert mu == pytest.approx(bound, abs=1e-10 * max(1.0, abs(bound)))


class TestDissipationReport:
    def test_constant_trajectory(self, costs, cfg, box, pg_mode, x_star):
        traj = integrate(
            pg_mode, costs, cfg, box, x_star, 0.02, 1e-3,
            IntegrationOptions(stop_on_convergence=False),
        )
        report = analysis.dissipation_report(traj, r_star=264.5)
        assert report.violations == 0
        assert report.psi_integral == pytest.approx(0.0, abs=1e-18)
        assert report.r_gap <= 1e-9

    def test_branching_rate_is_unity(self, costs, cfg, box, pg_mode, x_star):
        # for the quadratic penalty with kappa = 1, dR/dt = -Psi exactly;
        # the per-interval difference quotient carries the discretization
        # bias (1 - exp(-2h))/(2h) ~= 1 - h
        x0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 2.0, 1.0])
        traj = integrate(
            pg_mode, costs, cfg, box, x0, 4.0, 1e-3, IntegrationOptions(stop_on_convergence=False)
        )
        report = analysis.dissipation_report(traj, r_star=264.5)
        assert report.violations == 0
        h = 1e-3
        expected = (1.0 - np.exp(-2.0 * h)) / (2.0 * h)
        assert report.alpha_hat == pytest.approx(expected, rel=1e-6)
        assert report.alpha_hat == pytest.approx(1.0, abs=2e-3)

    def test_converged_run_reaches_reported_minimum(self, costs, cfg, box, pg_mode):
        traj = integrate(pg_mode, costs, cfg, box, np.array([1.3, 0.8, 0.3, 12.0, 20.0]), 30.0, 1e-3)
        report = analysis.dissipation_report(traj, r_star=264.5)
        assert traj.converged
        assert report.r_gap <= 1e-6
        assert report.violations == 0
        assert report.alpha_hat > 0.0

    def test_too_few_samples(self, costs, cfg, box, pg_mode, x_star):
        # 5 samples: too few for a run that has not converged, enough for
        # one that stopped converged (from x* after one step)
        traj = integrate(
            pg_mode, costs, cfg, box, x_star, 0.004, 1e-3, IntegrationOptions(stop_on_convergence=False)
        )
        with pytest.raises(TooFewSamplesError):
            analysis.dissipation_report(traj, r_star=264.5)
        traj = integrate(pg_mode, costs, cfg, box, x_star, 0.004, 1e-3)
        assert traj.converged and traj.times.size == 2
        report = analysis.dissipation_report(traj, r_star=264.5)
        assert report.samples == 2 and report.violations == 0


class TestFitRate:
    def test_exact_synthetic_series(self):
        t = np.linspace(0.0, 10.0, 400)
        fit = analysis.fit_rate(t, np.exp(-2.0 * t))
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.prefactor == pytest.approx(1.0, rel=1e-9)

    def test_branching_pair_rate(self, costs, cfg, box, pg_mode, x_star):
        x0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 3.0, 0.0])
        y0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        pair = two_trajectory_run(pg_mode, costs, cfg, box, x0, y0, 16.0, 1e-3)
        fit = analysis.fit_rate(pair.times, pair.separation)
        assert fit.rate == pytest.approx(1.0, abs=1e-3)

    def test_window_excludes_transient(self):
        t = np.linspace(0.0, 10.0, 200)
        fit = analysis.fit_rate(t, np.exp(-t))
        assert fit.window[0] >= 0.1 * t[-1] - 0.25

    def test_degenerate_series_raises(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(DegenerateFitError):
            analysis.fit_rate(t, np.full(50, 1e-16))


class TestGroenwallConsistency:
    def test_separation_under_certified_envelope(self, costs, cfg, box, pg_mode, x_star):
        cert = analysis.certify_contraction(pg_mode, costs, cfg, box, count=2048, seed=0)
        assert cert.passed
        opt = x_star.vector()
        x0 = opt * (1 + 0.06 * np.array([1, -1, 1, -1, 1]))
        y0 = opt * (1 - 0.05 * np.array([1, 1, -1, 1, -1]))
        pair = two_trajectory_run(pg_mode, costs, cfg, box, x0, y0, 10.0, 1e-3)
        # both trajectories stay inside the certified +/-10% sub-box
        lo, hi = np.asarray(cert.subbox_lo), np.asarray(cert.subbox_hi)
        for traj in (pair.first, pair.second):
            assert np.all(traj.states >= lo - 1e-9) and np.all(traj.states <= hi + 1e-9)
        envelope = pair.separation[0] * np.exp(-cert.nu_estimate * pair.times) * (1 + 1e-3)
        assert np.all(pair.separation <= envelope)


class TestOracleStationarityEquivalence:
    def test_kkt_zero_point_coincides_with_oracle_location(self, costs, cfg, box, x_star):
        from constructal.cones import kkt_residual

        # the interior stationary point (kkt = 0) and the search locations
        # agree within 1e-6, and only that point is stationary
        oracle = analysis.grid_oracle(costs, cfg)
        x_loc = np.concatenate([oracle.r_opt, oracle.n_opt])
        opt = x_star.vector()
        assert np.max(np.abs(x_loc - opt)) <= 1e-6
        g = hm.gradient_vec(costs, cfg, opt, "decoupled")
        assert kkt_residual(box, opt, g) <= 1e-12
        rng = np.random.default_rng(67)
        for vec in interior_states(rng, 30):
            if np.linalg.norm(vec - opt) <= 1e-6:
                continue
            g = hm.gradient_vec(costs, cfg, vec, "decoupled")
            assert kkt_residual(box, vec, g) > 0.0


class TestGridOracle:
    def test_canonical_locations_and_minima(self, costs, cfg):
        oracle = analysis.grid_oracle(costs, cfg)
        assert np.asarray(oracle.r_opt) == pytest.approx([1.0, 0.5, 0.5], abs=1e-6)
        assert np.asarray(oracle.n_opt) == pytest.approx([8.0, 16.0], abs=1e-6)
        assert np.asarray(oracle.min_costs) == pytest.approx([0.5, 1.0, 2.0], abs=1e-6)

    def test_level_cost_is_convex_in_r(self, costs, cfg):
        # unimodality precondition for the golden-section search
        rng = np.random.default_rng(61)
        for _ in range(20):
            i = int(rng.integers(1, 4))
            A = float(rng.uniform(0.5, 100.0))
            r = np.sort(rng.uniform(cfg.r_lo, cfg.r_hi, 3))
            vals = hm.level_cost(costs, cfg, i, A, r)
            assert np.array_equal(vals, [hm.level_cost(costs, cfg, i, A, float(rr)) for rr in r])
            lam = (r[1] - r[0]) / (r[2] - r[0])
            assert vals[1] <= (1 - lam) * vals[0] + lam * vals[2] + 1e-12
