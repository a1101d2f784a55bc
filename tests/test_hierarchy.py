import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructal import ArchState, AssemblyConfig, TransportCosts
from constructal import analysis, hierarchy as hm
from constructal.errors import ConfigError, DomainError

from conftest import random_ladder, interior_states


class TestTransportCosts:
    def test_strictly_decreasing_required(self):
        with pytest.raises(ConfigError):
            TransportCosts(K=(1.0, 1.0, 0.5))
        with pytest.raises(ConfigError):
            TransportCosts(K=(1.0, 0.5, 0.6))
        with pytest.raises(ConfigError):
            TransportCosts(K=(1.0, 0.5, -0.1))
        with pytest.raises(ConfigError):
            TransportCosts(K=(1.0,))

    def test_p(self, costs):
        assert costs.p == 3


class TestPrefactors:
    def test_canonical_level_one_matches_quarter_half(self, costs, cfg):
        assert cfg.alpha[0] == pytest.approx(0.25, abs=1e-15)
        assert cfg.beta[0] == pytest.approx(0.5, abs=1e-15)

    def test_cost_scaling_constants(self, costs, cfg):
        # 2 sqrt(a1 b1) = 1/sqrt(2); 2 sqrt(ai bi) = 1 for i >= 2
        assert 2 * math.sqrt(cfg.alpha[0] * cfg.beta[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        for i in (1, 2):
            assert 2 * math.sqrt(cfg.alpha[i] * cfg.beta[i]) == pytest.approx(1.0, abs=1e-14)

    def test_holds_for_random_ladders(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = random_ladder(rng)
            cfg = AssemblyConfig.bejan(costs)
            K = costs.K
            r = hm.optimal_ratios(costs, cfg)
            assert r[0] == pytest.approx(2 * K[1] / K[0], rel=1e-12)
            assert r[1] == pytest.approx(K[2] / K[1], rel=1e-12)
            assert r[2] == pytest.approx(K[3] / K[2], rel=1e-12)


class TestDeriveGeometry:
    def test_canonical_recursion(self, costs, cfg):
        x = ArchState(r=(1.0, 0.5, 0.5), n=(8.0, 16.0))
        geo = hm.derive_geometry(costs, cfg, x)
        assert geo.A == pytest.approx((1.0, 8.0, 128.0))
        assert geo.m == pytest.approx((1.0, 8.0, 128.0))

    def test_sides_reconstruct_area_and_ratio(self, costs, cfg):
        rng = np.random.default_rng(3)
        for _ in range(25):
            vec = interior_states(rng, 1)[0]
            x = ArchState.from_vector(vec, 3)
            geo = hm.derive_geometry(costs, cfg, x)
            for i in range(3):
                assert geo.H[i] * geo.L[i] == pytest.approx(geo.A[i], rel=1e-12)
                assert geo.H[i] / geo.L[i] == pytest.approx(x.r[i], rel=1e-12)

    def test_single_level_base_case(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs, A1=2.5, gamma=3.0)
        geo = hm.derive_geometry(costs, cfg, ArchState(r=(1.0,), n=()))
        assert geo.A == pytest.approx((2.5,))
        assert geo.m == pytest.approx((7.5,))

    def test_identity_assembly(self, costs, cfg):
        geo = hm.derive_geometry(costs, cfg, ArchState(r=(1.0, 0.5, 0.5), n=(1.0, 1.0)))
        assert geo.A == pytest.approx((1.0, 1.0, 1.0))

    def test_rejects_bad_states(self, costs, cfg):
        with pytest.raises(DomainError):
            hm.derive_geometry(costs, cfg, ArchState(r=(1.0, -0.5, 0.5), n=(8.0, 16.0)))
        with pytest.raises(DomainError):
            hm.derive_geometry(costs, cfg, ArchState(r=(1.0, 0.5, 0.5), n=(0.5, 16.0)))


class TestLevelCost:
    def test_elemental_values(self, costs, cfg):
        assert hm.level_cost(costs, cfg, 1, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert hm.level_cost(costs, cfg, 1, 1.0, 2.0) == pytest.approx(0.625, abs=1e-14)

    def test_rejects_nonpositive(self, costs, cfg):
        with pytest.raises(DomainError):
            hm.level_cost(costs, cfg, 1, -1.0, 1.0)
        with pytest.raises(DomainError):
            hm.level_cost(costs, cfg, 2, 1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(min_value=0.05, max_value=20.0), level=st.integers(min_value=1, max_value=3))
    def test_symmetric_about_geometric_mean(self, costs, cfg, s, level):
        r_opt = hm.optimal_ratios(costs, cfg)[level - 1]
        a = hm.level_cost(costs, cfg, level, 5.0, r_opt * s)
        b = hm.level_cost(costs, cfg, level, 5.0, r_opt / s)
        assert a == pytest.approx(b, rel=1e-9)


class TestOptima:
    def test_canonical_ratios(self, costs, cfg):
        assert hm.optimal_ratios(costs, cfg) == pytest.approx([1.0, 0.5, 0.5], abs=1e-12)

    def test_constant_ratio_ladder(self):
        c = 0.62
        costs = TransportCosts(K=(1.0, c, c**2, c**3))
        cfg = AssemblyConfig.bejan(costs)
        assert hm.optimal_ratios(costs, cfg) == pytest.approx([2 * c, c, c], rel=1e-12)

    def test_general_prefactors_sqrt_rule(self, costs):
        cfg = AssemblyConfig(
            gamma=1.0, A1=1.0, alpha=(1.0, 1.0, 1.0), beta=(1.0, 1.0, 1.0), kappa=(1.0, 1.0)
        )
        K = costs.as_array()
        expected = np.sqrt(K[1:] / K[:-1])
        assert hm.optimal_ratios(costs, cfg) == pytest.approx(expected, rel=1e-12)

    def test_canonical_branching(self, costs):
        assert hm.optimal_branching(costs) == pytest.approx([8.0, 16.0], abs=1e-12)

    def test_half_ratio_ladder_branching(self):
        costs = TransportCosts(K=(2.0, 1.0, 0.5, 0.25, 0.125))
        assert hm.optimal_branching(costs) == pytest.approx([8.0, 16.0, 16.0], rel=1e-12)

    def test_single_level_no_branching(self):
        costs = TransportCosts(K=(1.0, 0.5))
        assert hm.optimal_branching(costs).size == 0


class TestMinCost:
    def test_canonical_values(self, costs, cfg):
        assert hm.min_cost_per_flow(costs, cfg, 1, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert hm.min_cost_per_flow(costs, cfg, 2, 8.0) == pytest.approx(1.0, abs=1e-14)
        assert hm.min_cost_per_flow(costs, cfg, 3, 128.0) == pytest.approx(2.0, abs=1e-14)

    def test_equals_level_cost_at_optimum(self, costs, cfg):
        rng = np.random.default_rng(11)
        r_opt = hm.optimal_ratios(costs, cfg)
        for _ in range(20):
            i = rng.integers(1, 4)
            A = float(rng.uniform(0.5, 200.0))
            lhs = hm.min_cost_per_flow(costs, cfg, i, A)
            rhs = hm.level_cost(costs, cfg, i, A, r_opt[i - 1])
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lhs))

    def test_rejects_nonpositive_area(self, costs, cfg):
        with pytest.raises(DomainError):
            hm.min_cost_per_flow(costs, cfg, 1, 0.0)


class TestResistance:
    def test_canonical_optimum_value(self, costs, cfg, x_star):
        assert hm.resistance(costs, cfg, x_star) == pytest.approx(264.5, abs=1e-12)

    def test_perturbed_branching_penalty_and_recomputed_areas(self, costs, cfg, x_star):
        x = ArchState(r=x_star.r, n=(9.0, x_star.n[1]))
        # independent recomputation: area-weighted per-flow costs + penalty
        A = (1.0, 9.0, 144.0)
        expected = sum(
            A[i] * hm.level_cost(costs, cfg, i + 1, A[i], x.r[i]) for i in range(3)
        ) + 0.5 * (9.0 - 8.0) ** 2
        assert hm.resistance(costs, cfg, x) == pytest.approx(expected, rel=1e-14)
        penalty_delta = hm.resistance(costs, cfg, x) - sum(
            A[i] * hm.level_cost(costs, cfg, i + 1, A[i], x.r[i]) for i in range(3)
        )
        assert penalty_delta == pytest.approx(0.5, abs=1e-12)

    def test_single_level_value(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        val = hm.resistance(costs, cfg, ArchState(r=(1.0,), n=()))
        assert val == pytest.approx(0.25 + 0.25, abs=1e-14)

    def test_gamma_does_not_enter(self, costs):
        cfg1 = AssemblyConfig.bejan(costs, gamma=1.0)
        cfg2 = AssemblyConfig.bejan(costs, gamma=2.0)
        x = ArchState(r=(0.9, 0.6, 0.4), n=(5.0, 20.0))
        assert hm.resistance(costs, cfg1, x) == hm.resistance(costs, cfg2, x)
        m1 = hm.derive_geometry(costs, cfg1, x).m
        m2 = hm.derive_geometry(costs, cfg2, x).m
        assert np.asarray(m2) == pytest.approx(2.0 * np.asarray(m1), rel=1e-15)


class TestGradient:
    def test_zero_at_optimum(self, costs, cfg, x_star):
        g = hm.grad_resistance(costs, cfg, x_star, "decoupled")
        assert np.linalg.norm(g) <= 1e-12

    def test_decoupled_matches_finite_differences(self, costs, cfg):
        # r-components differentiate the full resistance; n-components the
        # branching penalty alone (areas frozen at the evaluation point)
        rng = np.random.default_rng(5)
        n_opt = hm.optimal_branching(costs)
        kappa = np.asarray(cfg.kappa)
        for vec in interior_states(rng, 100):
            g = hm.gradient_vec(costs, cfg, vec, "decoupled")
            step = 1e-6
            for j in range(3):
                e = np.zeros(5)
                e[j] = step
                fd = (
                    hm.resistance_vec(costs, cfg, vec + e)
                    - hm.resistance_vec(costs, cfg, vec - e)
                ) / (2 * step)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            for j in range(2):
                pen = kappa[j] * (vec[3 + j] - n_opt[j])
                assert g[3 + j] == pytest.approx(pen, rel=1e-12)

    def test_coupled_matches_finite_differences(self, costs, cfg):
        rng = np.random.default_rng(6)
        for vec in interior_states(rng, 100):
            g = hm.gradient_vec(costs, cfg, vec, "coupled")
            step = 1e-6
            for j in range(5):
                e = np.zeros(5)
                e[j] = step
                fd = (
                    hm.resistance_vec(costs, cfg, vec + e)
                    - hm.resistance_vec(costs, cfg, vec - e)
                ) / (2 * step)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_curvature_diagonal_at_optimum(self, costs, cfg, x_star):
        J = hm.grad_jacobian(costs, cfg, x_star.vector(), "decoupled")
        assert np.diag(J) == pytest.approx([0.5, 32.0, 1024.0, 1.0, 1.0], rel=1e-10)
        off = J - np.diag(np.diag(J))
        assert np.max(np.abs(off)) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("mode", ["decoupled", "coupled"])
    def test_stacked_jacobian_matches_per_state_loop(self, p, mode):
        # each model formula has one body, so a single state gives exactly
        # its row of a stack; p = 1 has no branching numbers and no kappa
        rng = np.random.default_rng(100 + p)
        costs = random_ladder(rng, p)
        cfg = AssemblyConfig.bejan(costs)
        X = interior_states(rng, 12, p=p).reshape(3, 4, 2 * p - 1)
        d = 2 * p - 1
        for fn, shape in (
            (lambda Y: hm.resistance_vec(costs, cfg, Y), ()),
            (lambda Y: hm.resistance_lyapunov_vec(costs, cfg, Y, mode), ()),
            (lambda Y: hm.imbalance_vec(costs, cfg, Y), ()),
            (lambda Y: hm.gradient_vec(costs, cfg, Y, mode), (d,)),
            (lambda Y: hm.grad_jacobian(costs, cfg, Y, mode), (d, d)),
        ):
            stacked = fn(X)
            assert stacked.shape == (3, 4) + shape
            loop = np.array([[fn(x) for x in row] for row in X])
            assert np.array_equal(stacked, loop)

    def test_coupled_branching_gradient_positive_at_classical_optimum(self, costs, cfg, x_star):
        g = hm.grad_resistance(costs, cfg, x_star, "coupled")
        assert g[3] > 0.0 and g[4] > 0.0

    def test_rejects_off_box(self, costs, cfg):
        with pytest.raises(DomainError):
            hm.grad_resistance(costs, cfg, ArchState(r=(5.0, 0.5, 0.5), n=(8.0, 16.0)))


WRONG_DIMENSION_CALLS = {
    "resistance_vec": lambda c, f, m, X: hm.resistance_vec(c, f, X),
    "resistance_lyapunov_vec": lambda c, f, m, X: hm.resistance_lyapunov_vec(c, f, X),
    "imbalance_vec": lambda c, f, m, X: hm.imbalance_vec(c, f, X),
    "gradient_vec": lambda c, f, m, X: hm.gradient_vec(c, f, X, "coupled"),
    "grad_jacobian": lambda c, f, m, X: hm.grad_jacobian(c, f, X),
    "analysis.jacobian": lambda c, f, m, X: analysis.jacobian(m, c, f, X),
    "analysis.mode_hessian": lambda c, f, m, X: analysis.mode_hessian(m, c, f, X),
    "analysis.structural_bound": lambda c, f, m, X: analysis.structural_bound(m, c, f, X, 0.0),
}


@pytest.mark.parametrize("shape", [(4,), (6,), (2, 6)], ids=["4", "6", "2x6"])
@pytest.mark.parametrize("name", sorted(WRONG_DIMENSION_CALLS))
def test_wrong_state_dimension_raises(costs, cfg, pg_mode, name, shape):
    # p = 3: states have 5 coordinates
    with pytest.raises(DomainError, match="expected"):
        WRONG_DIMENSION_CALLS[name](costs, cfg, pg_mode, np.full(shape, 2.0))


class TestImbalance:
    def test_zero_at_optimum(self, costs, cfg, x_star):
        assert hm.imbalance(costs, cfg, x_star) == 0.0

    def test_single_coordinate_deviation(self, costs, cfg, x_star):
        x = ArchState(r=(x_star.r[0] + 0.1, x_star.r[1], x_star.r[2]), n=x_star.n)
        assert hm.imbalance(costs, cfg, x) == pytest.approx(0.01, rel=1e-10)

    def test_matches_component_sum_oracle(self, costs, cfg, x_star):
        rng = np.random.default_rng(9)
        opt = x_star.vector()
        for vec in interior_states(rng, 30):
            brute = sum((vec[k] - opt[k]) ** 2 for k in range(5))
            assert hm.imbalance_vec(costs, cfg, vec) == pytest.approx(brute, abs=1e-15 * max(1.0, brute))

    def test_zero_iff_gradient_zero_interior(self, costs, cfg):
        rng = np.random.default_rng(13)
        for vec in interior_states(rng, 40):
            psi = float(hm.imbalance_vec(costs, cfg, vec))
            gnorm = float(np.linalg.norm(hm.gradient_vec(costs, cfg, vec, "decoupled")))
            assert (psi < 1e-20) == (gnorm < 1e-10)


class TestGridAgainstAnalytic:
    def test_fifty_random_ladders(self):
        from constructal.analysis import grid_oracle

        rng = np.random.default_rng(21)
        for _ in range(50):
            costs = random_ladder(rng)
            cfg = AssemblyConfig.bejan(costs)
            oracle = grid_oracle(costs, cfg)
            r = hm.optimal_ratios(costs, cfg)
            assert np.asarray(oracle.r_opt) == pytest.approx(r, rel=1e-6)


class TestLyapunovFunctional:
    def test_equals_total_on_optimal_branching_manifold(self, costs, cfg, x_star):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = rng.uniform(0.2, 2.0, 3)
            vec = np.concatenate([r, x_star.vector()[3:]])
            full = float(hm.resistance_vec(costs, cfg, vec))
            lyap = float(hm.resistance_lyapunov_vec(costs, cfg, vec, "decoupled"))
            assert lyap == pytest.approx(full, rel=1e-12)

    def test_coupled_mode_returns_total(self, costs, cfg):
        vec = np.array([0.9, 0.6, 0.4, 5.0, 20.0])
        assert hm.resistance_lyapunov_vec(costs, cfg, vec, "coupled") == pytest.approx(
            float(hm.resistance_vec(costs, cfg, vec)), rel=1e-15
        )


class TestConfigValidation:
    def test_optimum_must_be_interior(self, costs):
        with pytest.raises(ConfigError):
            AssemblyConfig.bejan(costs, n_hi=10.0)  # n3_opt = 16 outside
        with pytest.raises(ConfigError):
            AssemblyConfig.bejan(costs, r_hi=0.8)  # r1_opt = 1 outside

    def test_kappa_positive(self, costs):
        with pytest.raises(ConfigError):
            AssemblyConfig.bejan(costs, kappa=(1.0, -1.0))
