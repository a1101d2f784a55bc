from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructal import (
    AssemblyConfig,
    IntegrationOptions,
    ProjectedGradient,
    SignDescent,
    TransportCosts,
    integrate,
    integrate_ensemble,
    optimum_state,
    state_box,
    step,
    two_trajectory_run,
    velocity,
)
from constructal import hierarchy as hm
from constructal.config import load_config
from constructal.dynamics import slide_velocity
from constructal.errors import DomainError, SingularSlidingError, StepFailureError

from conftest import random_ladder

GENERIC_X0 = np.array([1.3, 0.8, 0.3, 12.0, 20.0])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def dissipation_violations(traj):
    dR = np.diff(traj.R_values)
    tol = 1e-9 * (1.0 + np.abs(traj.R_values[:-1]))
    return int(np.sum(dR > tol))


class TestVelocity:
    def test_projected_gradient_interior(self, costs, cfg, box, pg_mode):
        x = GENERIC_X0
        v, regime = velocity(pg_mode, costs, cfg, box, x)
        assert v == pytest.approx(-hm.gradient_vec(costs, cfg, x, "decoupled"))
        assert regime.sliding == () and regime.lower == () and regime.upper == ()

    def test_sign_descent_componentwise_signs(self, costs, cfg, box):
        mode = SignDescent(sliding="equivalent_control")
        v, _ = velocity(mode, costs, cfg, box, GENERIC_X0)
        g = hm.gradient_vec(costs, cfg, GENERIC_X0, "decoupled")
        assert v == pytest.approx(-np.sign(g))

    def test_zero_at_equilibrium_all_modes(self, costs, cfg, box, x_star, pg_mode):
        for mode in (
            pg_mode,
            SignDescent(sliding="equivalent_control"),
            SignDescent(sliding="boundary_layer"),
        ):
            v, _ = velocity(mode, costs, cfg, box, x_star)
            assert np.max(np.abs(v)) <= 1e-9

    def test_rejects_off_box(self, costs, cfg, box, pg_mode):
        with pytest.raises(DomainError):
            velocity(pg_mode, costs, cfg, box, np.array([9.0, 0.5, 0.5, 8.0, 16.0]))


class TestSlideVelocity:
    def test_full_sliding_at_equilibrium(self, costs, cfg, x_star):
        mode = SignDescent(sliding="equivalent_control")
        v = slide_velocity(mode, costs, cfg, x_star, active_set=range(5))
        assert np.max(np.abs(v)) <= 1e-9

    def test_single_level_manifold_freezes(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        mode = SignDescent(sliding="equivalent_control")
        x = optimum_state(costs, cfg)
        v = slide_velocity(mode, costs, cfg, x, active_set=[0])
        assert v == pytest.approx([0.0], abs=1e-12)

    def test_branching_block_is_diagonal(self, costs, cfg, x_star):
        mode = SignDescent(sliding="equivalent_control")
        x = x_star.vector() + np.array([0.2, 0.0, 0.0, 0.0, 0.0])
        x[3] = 8.0  # n_2 on its manifold
        v = slide_velocity(mode, costs, cfg, x, active_set=[3])
        assert v[3] == pytest.approx(0.0, abs=1e-12)
        assert abs(v[0]) == pytest.approx(1.0)

    def test_saturated_coordinates_are_expelled_at_their_gain(self, costs, cfg):
        # a slow n_2 gain: the equivalent control of both branching numbers
        # exceeds its bound, so clamp-and-drop expels n_2 and then n_3
        mode = SignDescent(sliding="equivalent_control", gradient_mode="coupled", zeta=(1e-3, 1.0))
        gains = mode.gains(costs.p)
        v = slide_velocity(mode, costs, cfg, GENERIC_X0, active_set=[3, 4])
        assert v[3] == gains[3] and v[4] == gains[4]
        assert np.all(np.abs(v) <= gains)


class TestStep:
    def test_branching_exponential_decay(self, costs, cfg, box, pg_mode, x_star):
        x0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 2.0, 0.0])
        h = 0.01
        x1, events = step(pg_mode, costs, cfg, box, x0, h)
        assert events == []
        assert x1[3] - 8.0 == pytest.approx(2.0 * np.exp(-h), abs=1e-10)

    def test_equilibrium_fixed_point(self, costs, cfg, box, pg_mode, x_star):
        x1, events = step(pg_mode, costs, cfg, box, x_star, 0.01)
        assert events == []
        assert x1 == pytest.approx(x_star.vector(), abs=1e-12)

    def test_sign_descent_constant_speed(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        mode = SignDescent(eta=(0.7,), zeta=(), sliding="equivalent_control")
        x1, events = step(mode, costs, cfg, box, np.array([2.0]), 0.01)
        assert events == []
        assert x1[0] == pytest.approx(2.0 - 0.7 * 0.01, abs=1e-14)

    def test_rejects_bad_args(self, costs, cfg, box, pg_mode, x_star):
        with pytest.raises(DomainError):
            step(pg_mode, costs, cfg, box, x_star, -1.0)


class TestIntegrate:
    def test_converges_from_generic_interior_point(self, costs, cfg, box, pg_mode, x_star):
        traj = integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3)
        assert traj.converged
        assert np.linalg.norm(traj.final_state - x_star.vector()) <= 1e-4
        assert dissipation_violations(traj) == 0
        assert traj.max_clip <= 1e-12
        box_contains = np.all(traj.states >= box.lo - 1e-12) and np.all(
            traj.states <= box.hi + 1e-12
        )
        assert box_contains

    def test_slow_direction_rate_bound(self, costs, cfg, box, pg_mode, x_star):
        # local curvature 0.5 in the r_1 direction: from x*+0.1 e_r1 the
        # distance at t=30 is below 1e-6 (0.1 e^{-15} plus curvature slack)
        x0 = x_star.vector() + 0.1 * np.eye(5)[0]
        opts = IntegrationOptions(converge_tol=1e-16)
        traj = integrate(pg_mode, costs, cfg, box, x0, 30.0, 1e-3, opts)
        assert np.linalg.norm(traj.final_state - x_star.vector()) <= 1e-6

    def test_constant_at_equilibrium(self, costs, cfg, box, pg_mode, x_star):
        traj = integrate(pg_mode, costs, cfg, box, x_star, 0.05, 1e-3)
        assert traj.converged
        assert np.max(np.abs(traj.states - x_star.vector())) <= 1e-12

    def test_finite_time_reaching_with_slide_events(self, costs, cfg, box, x_star):
        mode = SignDescent(sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 8.0, 1e-3)
        enters = [e for e in traj.events if e.kind == "SlideEnter"]
        assert sorted(e.index for e in enters) == [0, 1, 2, 3, 4]
        x0 = GENERIC_X0
        opt = x_star.vector()
        for e in traj.events:
            assert 0.0 <= e.time <= traj.times[-1] + 1e-12
        for e in enters:
            assert e.time <= 2.0 * abs(x0[e.index] - opt[e.index]) + 0.1
        assert dissipation_violations(traj) == 0

    def test_step_halving_consistency(self, costs, cfg, box, pg_mode):
        t_end = 2.0
        a = integrate(pg_mode, costs, cfg, box, GENERIC_X0, t_end, 1e-3).final_state
        b = integrate(pg_mode, costs, cfg, box, GENERIC_X0, t_end, 5e-4).final_state
        assert np.linalg.norm(a - b) <= 1e-8

    def test_chattering_guard_raises(self, costs, cfg, box):
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(max_events_per_step=3)
        with pytest.raises(StepFailureError, match="chattering"):
            integrate(mode, costs, cfg, box, GENERIC_X0, 8.0, 8.0, opts)

    def test_coupled_mode_hits_branching_floor(self, costs, cfg, box):
        mode = ProjectedGradient(mobility=1.0, gradient_mode="coupled")
        traj = integrate(mode, costs, cfg, box, np.array([1.0, 0.5, 0.5, 3.0, 3.0]), 6.0, 1e-3)
        kinds = {e.kind for e in traj.events}
        assert "BoundaryContact" in kinds
        assert traj.final_state[3] == pytest.approx(1.0, abs=1e-9)
        assert traj.max_clip <= 1e-12
        assert dissipation_violations(traj) == 0

    def test_decoupled_from_below_dissipates_lyapunov(self, costs, cfg, box, pg_mode):
        # approach with n below the optimum: the literal resistance rises,
        # the recorded surrogate functional must not
        x0 = np.array([1.0, 0.5, 0.5, 3.0, 5.0])
        traj = integrate(pg_mode, costs, cfg, box, x0, 12.0, 1e-3)
        assert dissipation_violations(traj) == 0
        r_literal = np.array([hm.resistance_vec(costs, cfg, s) for s in traj.states])
        assert np.max(np.diff(r_literal)) > 1e-3  # the literal one really rises

    def test_event_timestamp_in_failure(self, costs, cfg, box):
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(max_events_per_step=1)
        with pytest.raises(StepFailureError) as err:
            integrate(mode, costs, cfg, box, GENERIC_X0, 8.0, 8.0, opts)
        assert err.value.time is not None


class TestSlidingInvariance:
    def test_manifold_values_stay_small_after_entry(self, costs, cfg, box):
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 6.0, 1e-3, opts)
        enter_time = {}
        for e in traj.events:
            if e.kind == "SlideEnter":
                enter_time.setdefault(e.index, e.time)
        assert sorted(enter_time) == [0, 1, 2, 3, 4]
        worst = 0.0
        for k, t in enumerate(traj.times):
            g = hm.gradient_vec(costs, cfg, traj.states[k], "decoupled")
            for j, te in enter_time.items():
                if t > te + 1e-9:
                    worst = max(worst, abs(g[j]))
        assert worst <= 10.0 * IntegrationOptions().switch_tol


class TestTwoTrajectory:
    def test_identical_states_zero_separation(self, costs, cfg, box, pg_mode):
        pair = two_trajectory_run(pg_mode, costs, cfg, box, GENERIC_X0, GENERIC_X0, 0.5, 1e-3)
        assert np.max(pair.separation) == 0.0

    def test_branching_pair_exponential(self, costs, cfg, box, pg_mode, x_star):
        x0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 3.0, 0.0])
        y0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        pair = two_trajectory_run(pg_mode, costs, cfg, box, x0, y0, 5.0, 1e-3)
        expected = pair.separation[0] * np.exp(-pair.times)
        mask = expected > 1e-12
        assert pair.separation[mask] == pytest.approx(expected[mask], rel=1e-4)

    def test_separation_monotone_for_slow_pair(self, costs, cfg, box, pg_mode, x_star):
        x0 = x_star.vector() + np.array([0.3, 0, 0, 0, 0])
        y0 = x_star.vector() + np.array([0.15, 0, 0, 0, 0])
        pair = two_trajectory_run(pg_mode, costs, cfg, box, x0, y0, 10.0, 1e-3)
        assert np.all(np.diff(pair.separation) <= 1e-12)

    def test_rows_equal_single_runs(self):
        # the canonical converge run: one two-row run, each row exactly
        # the run of its state alone
        rc = load_config(CONFIGS / "canonical.cfg")
        pair = two_trajectory_run(rc.mode, rc.costs, rc.cfg, rc.box, rc.x0, rc.x1, rc.t_end, rc.h, rc.options)
        opts = IntegrationOptions(stop_on_convergence=False)
        for x, traj in ((rc.x0, pair.first), (rc.x1, pair.second)):
            single = integrate(rc.mode, rc.costs, rc.cfg, rc.box, x, rc.t_end, rc.h, opts)
            assert np.array_equal(traj.times, single.times)
            assert np.array_equal(traj.states, single.states)
            assert np.array_equal(traj.R_values, single.R_values)
            assert traj.events == single.events


class TestEnsemble:
    def test_matches_single_trajectory_integration(self, costs, cfg, box, pg_mode):
        rng = np.random.default_rng(41)
        X0 = np.vstack(
            [
                GENERIC_X0,
                np.concatenate([rng.uniform(0.3, 2.0, 3), rng.uniform(2.0, 30.0, 2)]),
            ]
        )
        res = integrate_ensemble(pg_mode, costs, cfg, box, X0, 2.0, 1e-3)
        opts = IntegrationOptions(stop_on_convergence=False)
        for i in range(X0.shape[0]):
            single = integrate(pg_mode, costs, cfg, box, X0[i], 2.0, 1e-3, opts)
            assert np.array_equal(res.times, single.times)
            assert np.array_equal(res.final_states[i], single.final_state)

    def test_equivalent_control_rows_reach_the_optimum(self, x_star):
        rc = load_config(CONFIGS / "equivalent_control.cfg")
        box = rc.box
        X0 = (box.lo + np.random.default_rng(2024).random((100, box.dim)) * (box.hi - box.lo))[:20]
        res = integrate_ensemble(rc.mode, rc.costs, rc.cfg, box, X0, 80.0, rc.h, rc.options)
        assert np.max(np.abs(res.final_states - x_star.vector())) <= 1e-9
        opts = IntegrationOptions(stop_on_convergence=False)
        for i in (0, 17):  # row 17 takes steps that end past the n >= 1 face
            single = integrate(rc.mode, rc.costs, rc.cfg, box, X0[i], 80.0, rc.h, opts)
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert np.array_equal(res.Psi_values[i], single.Psi_values)

    def test_unsolvable_sliding_row_falls_back_alone(self, costs, cfg, box):
        # a condition threshold below 1 rejects every sliding block: row 0
        # reaches a manifold and continues on the boundary layer, row 1
        # reaches none before t_end
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(cond_threshold=0.5, stop_on_convergence=False)
        X0 = np.array([GENERIC_X0, [3.0, 2.5, 2.5, 30.0, 40.0]])
        res = integrate_ensemble(mode, costs, cfg, box, X0, 0.4, 1e-3, opts)
        fallbacks = []
        for i in range(2):
            single = integrate(mode, costs, cfg, box, X0[i], 0.4, 1e-3, opts)
            fallbacks.append(("SlideExit", -1) in [(e.kind, e.index) for e in single.events])
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert np.array_equal(res.Psi_values[i], single.Psi_values)
        assert fallbacks == [True, False]


class TestModeValidation:
    def test_positive_gains_required(self):
        with pytest.raises(DomainError):
            SignDescent(eta=(1.0, -1.0, 1.0))
        with pytest.raises(DomainError):
            SignDescent(epsilon=0.0)
        with pytest.raises(DomainError):
            ProjectedGradient(mobility=0.0)
        with pytest.raises(DomainError):
            ProjectedGradient(mobility=(1.0, 0.0))
        with pytest.raises(DomainError):
            ProjectedGradient(gradient_mode="sideways")



def radau_reference(mode, costs, cfg, x0, times, frozen=()):
    """Oracle rows from scipy's Radau at rtol 1e-12 with the analytic
    Jacobian; coordinates in ``frozen`` are held on their face."""
    from scipy.integrate import solve_ivp

    gmode, fz = mode.gradient_mode, list(frozen)

    def f(t, y):
        v = -hm.gradient_vec(costs, cfg, y, gmode)
        v[fz] = 0.0
        return v

    def jac(t, y):
        J = -hm.grad_jacobian(costs, cfg, y, gmode)
        J[fz, :] = 0.0
        J[:, fz] = 0.0
        return J

    sol = solve_ivp(f, (times[0], times[-1]), x0, method="Radau", jac=jac,
                    rtol=1e-12, atol=1e-14, t_eval=times)
    assert sol.success
    return sol.y.T


def count_model_calls(monkeypatch) -> dict:
    """Count gradient rows and Jacobian calls made through the model."""
    counts = {"grad_rows": 0, "jacobians": 0}
    gradient, jacobian = hm.gradient_vec, hm.grad_jacobian

    def counted_gradient(c, f, X, mode="decoupled"):
        counts["grad_rows"] += np.asarray(X).reshape(-1, np.shape(X)[-1]).shape[0]
        return gradient(c, f, X, mode)

    def counted_jacobian(c, f, X, mode="decoupled"):
        counts["jacobians"] += 1
        return jacobian(c, f, X, mode)

    monkeypatch.setattr(hm, "gradient_vec", counted_gradient)
    monkeypatch.setattr(hm, "grad_jacobian", counted_jacobian)
    return counts


class TestStiffCore:
    def test_canonical_evaluation_ceiling(self, costs, cfg, box, pg_mode, monkeypatch):
        counts = count_model_calls(monkeypatch)
        traj = integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3)
        assert traj.converged and traj.times.size == 21540
        # RK4 with step doubling on the grid took 302,531 gradient rows
        assert counts["grad_rows"] <= 30_000
        assert counts["jacobians"] <= 3_000

    def test_canonical_run_matches_radau(self, costs, cfg, box, pg_mode):
        traj = integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3)
        ref = radau_reference(pg_mode, costs, cfg, GENERIC_X0, traj.times)
        assert np.max(np.abs(traj.states - ref)) <= 1e-8

    def test_branching_floor_run_matches_radau(self, costs, cfg, box):
        from scipy.integrate import solve_ivp

        mode = ProjectedGradient(mobility=1.0, gradient_mode="coupled")
        x0 = np.array([1.0, 0.5, 0.5, 3.0, 3.0])
        traj = integrate(mode, costs, cfg, box, x0, 6.0, 1e-3)
        (contact,) = traj.events
        assert (contact.kind, contact.index) == ("BoundaryContact", 3)

        def floor(t, y):
            return y[3] - 1.0

        floor.terminal, floor.direction = True, -1
        field = lambda t, y: -hm.gradient_vec(costs, cfg, y, "coupled")  # noqa: E731
        jac = lambda t, y: -hm.grad_jacobian(costs, cfg, y, "coupled")  # noqa: E731
        free = solve_ivp(field, (0.0, 6.0), x0, method="Radau", jac=jac,
                         rtol=1e-12, atol=1e-14, events=floor)
        t_hit = free.t_events[0][0]
        assert contact.time == pytest.approx(t_hit, abs=1e-8)
        x_hit = free.y_events[0][0].copy()
        x_hit[3] = 1.0
        before = traj.times <= t_hit
        ref = np.empty_like(traj.states)
        ref[before] = radau_reference(mode, costs, cfg, x0, np.append(traj.times[before], t_hit))[:-1]
        ref[~before] = radau_reference(
            mode, costs, cfg, x_hit, np.insert(traj.times[~before], 0, t_hit), frozen=[3]
        )[1:]
        assert np.max(np.abs(traj.states - ref)) <= 1e-8

    def test_ensemble_rows_do_not_depend_on_neighbours(self, costs, cfg, box, pg_mode):
        rng = np.random.default_rng(5)
        X0 = np.hstack([rng.uniform(0.3, 2.0, (4, 3)), rng.uniform(2.0, 30.0, (4, 2))])
        batch = integrate_ensemble(pg_mode, costs, cfg, box, X0, 3.0, 1e-3)
        alone = integrate_ensemble(pg_mode, costs, cfg, box, X0[2:3], 3.0, 1e-3)
        assert np.array_equal(batch.final_states[2], alone.final_states[0])
        assert np.array_equal(batch.R_values[2], alone.R_values[0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_horizon_rejected(self, costs, cfg, box, pg_mode, bad):
        with pytest.raises(DomainError):
            integrate(pg_mode, costs, cfg, box, GENERIC_X0, bad, 1e-3)
        with pytest.raises(DomainError):
            integrate(pg_mode, costs, cfg, box, GENERIC_X0, 1.0, bad)
        with pytest.raises(DomainError):
            step(pg_mode, costs, cfg, box, GENERIC_X0, bad)
        with pytest.raises(DomainError):
            integrate_ensemble(pg_mode, costs, cfg, box, GENERIC_X0[None, :], bad, 1e-3)
        with pytest.raises(DomainError):
            integrate_ensemble(pg_mode, costs, cfg, box, GENERIC_X0[None, :], 1.0, bad)

    def test_nonfinite_field_ends_in_step_failure(self, costs, cfg, box, pg_mode, monkeypatch):
        gradient = hm.gradient_vec

        def walled(c, f, X, mode="decoupled"):
            # a field that is not finite below r_1 = 1.25, inside the box
            return np.where(np.asarray(X)[..., :1] < 1.25, np.nan, gradient(c, f, X, mode))

        monkeypatch.setattr(hm, "gradient_vec", walled)
        with pytest.raises(StepFailureError) as err:
            integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3)
        assert 0.0 < err.value.time < 30.0


# curvature-scaled gains of configs/signdescent.cfg: the layer relaxes at
# a uniform rate of about 0.2/epsilon = 2000
LAYER_MODE = SignDescent(
    eta=(0.4, 0.2 / 32.0, 0.2 / 1024.0), zeta=(0.2, 0.2), sliding="boundary_layer", epsilon=1e-4
)
LAYER_OFFSET = np.array([0.12, 0.01, 0.001, 1.5, 1.5])


class TestSlidingCore:
    def test_equivalent_control_matches_closed_form(self, costs, cfg, box, x_star):
        # decoupled switching manifolds are the planes x_j = x*_j and the
        # sliding velocity on them is zero: every coordinate runs at its
        # gain to x*_j and stops there
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 6.0, 1e-3, opts)
        opt, gains = x_star.vector(), mode.gains(costs.p)
        reach = np.abs(GENERIC_X0 - opt) / gains
        ref = opt + np.sign(GENERIC_X0 - opt) * gains * np.maximum(reach - traj.times[:, None], 0.0)
        assert np.max(np.abs(traj.states - ref)) <= 1e-9
        assert [e.kind for e in traj.events] == ["SlideEnter"] * 5
        for e in traj.events:
            assert e.time == pytest.approx(reach[e.index], abs=1e-9)

    def test_boundary_layer_run_matches_radau(self, costs, cfg, box, x_star):
        from scipy.integrate import solve_ivp

        mode, eps = LAYER_MODE, LAYER_MODE.epsilon
        gains = mode.gains(costs.p)
        x0 = x_star.vector() + LAYER_OFFSET
        traj = integrate(mode, costs, cfg, box, x0, 14.0, 1e-3)
        assert [e.kind for e in traj.events] == ["SlideEnter"] * 5

        def field(t, y):
            return -gains * np.clip(hm.gradient_vec(costs, cfg, y) / eps, -1.0, 1.0)

        def jac(t, y):
            in_layer = np.abs(hm.gradient_vec(costs, cfg, y)) <= eps
            J = -(gains / eps)[:, None] * hm.grad_jacobian(costs, cfg, y)
            return np.where(in_layer[:, None], J, 0.0)

        sol = solve_ivp(field, (0.0, traj.times[-1]), x0, method="Radau", jac=jac,
                        rtol=1e-12, atol=1e-14, t_eval=traj.times)
        assert sol.success
        assert np.max(np.abs(traj.states - sol.y.T)) <= 1e-8

    def test_unsolvable_sliding_block_falls_back_to_the_layer(self, costs, cfg, box, x_star):
        # a condition threshold below 1 rejects every sliding block, so once
        # r_3 reaches its manifold the run continues on the boundary layer
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(cond_threshold=0.5, stop_on_convergence=False)
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 1.0, 1e-3, opts)
        assert [(e.kind, e.index) for e in traj.events] == [("SlideEnter", 2), ("SlideExit", -1)]
        assert traj.final_state[:3] == pytest.approx(x_star.vector()[:3], abs=1e-9)
        assert traj.final_state[3:] == pytest.approx([11.0, 19.0], abs=1e-9)
        assert dissipation_violations(traj) == 0

    def test_equivalent_control_evaluation_ceiling(self, costs, cfg, box, monkeypatch):
        counts = count_model_calls(monkeypatch)
        mode = SignDescent(sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 6.0, 1e-3)
        assert traj.converged and traj.event_counts() == {"SlideEnter": 5}
        # RK4 with step doubling on the index-reduced ODE made 57,134
        assert counts["jacobians"] <= 5_000

    def test_boundary_layer_evaluation_ceiling(self, costs, cfg, box, x_star, monkeypatch):
        counts = count_model_calls(monkeypatch)
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(LAYER_MODE, costs, cfg, box, x_star.vector() + LAYER_OFFSET, 14.0, 1e-3, opts)
        assert traj.times[-1] == 14.0 and traj.event_counts() == {"SlideEnter": 5}
        # RK4 with step doubling made about 225k gradient rows
        assert counts["grad_rows"] <= 30_000

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 5),
        sliding=st.sampled_from(["equivalent_control", "boundary_layer"]),
        gradient_mode=st.sampled_from(["decoupled", "coupled"]),
        epsilon=st.floats(1e-4, 1e-1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_ladders_and_states(self, p, sliding, gradient_mode, epsilon, seed):
        rng = np.random.default_rng(seed)
        costs = random_ladder(rng, p)
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        x0 = box.lo + rng.random(box.dim) * (box.hi - box.lo)
        face = rng.random(box.dim)
        x0 = np.where(face < 0.2, box.lo, np.where(face < 0.4, box.hi, x0))
        mode = SignDescent(sliding=sliding, epsilon=epsilon, gradient_mode=gradient_mode)
        try:
            traj = integrate(mode, costs, cfg, box, x0, 1.0, 1e-2)
        except (StepFailureError, SingularSlidingError):
            return  # documented: chattering guard, step underflow, singular sliding block
        assert traj.max_clip <= 1e-12
        assert np.all(traj.states >= box.lo) and np.all(traj.states <= box.hi)
        assert dissipation_violations(traj) == 0
