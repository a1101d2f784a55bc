import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    two_trajectory_run,
    velocity,
)
from constructal import dynamics, stepping
from constructal import hierarchy as hm
from constructal.cones import kkt_residual
from constructal.config import load_config
from constructal.errors import DomainError, SingularSlidingError, StepFailureError

from conftest import random_ladder

GENERIC_X0 = np.array([1.3, 0.8, 0.3, 12.0, 20.0])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def random_case(rng, p):
    """A random ladder of depth p, its model, box and a state uniform in the
    box with 20 % of its coordinates on each face."""
    costs = random_ladder(rng, p)
    cfg = AssemblyConfig.bejan(costs)
    box = state_box(costs, cfg)
    x0 = box.lo + rng.random(box.dim) * (box.hi - box.lo)
    face = rng.random(box.dim)
    return costs, cfg, box, np.where(face < 0.2, box.lo, np.where(face < 0.4, box.hi, x0))


def dissipation_violations(run):
    """Grid rows where R rises, of a trajectory or of every ensemble row."""
    dR = np.diff(run.R_values)
    tol = 1e-9 * (1.0 + np.abs(run.R_values[..., :-1]))
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

    def test_ill_conditioned_sliding_block_raises(self, costs, cfg, box, monkeypatch):
        # r_3 sits on its manifold, and a condition bound below 1 rejects its block
        monkeypatch.setattr(dynamics, "_COND_MAX", 0.5)
        mode = SignDescent(sliding="equivalent_control")
        x = GENERIC_X0.copy()
        x[2] = 0.5
        with pytest.raises(SingularSlidingError, match=r"coordinates \[2\] is ill-conditioned"):
            velocity(mode, costs, cfg, box, x)


def no_face(V):
    """No coordinate pushed out of a box face."""
    return np.zeros(V.shape, dtype=bool)


def clamp_and_drop(mode, costs, cfg, x, active):
    """Clamp-and-drop velocity at x from the sliding set ``active``, with
    no coordinate on a box face."""
    Y = np.asarray(x, dtype=float)[None]
    G = hm.gradient_vec(costs, cfg, Y, mode.gradient_mode)
    H = hm.grad_jacobian(costs, cfg, Y, mode.gradient_mode)
    S = np.isin(np.arange(Y.shape[1]), active)[None]
    signs = np.where(dynamics._on_manifold(G, H, IntegrationOptions().switch_tol), 0.0, np.sign(G))
    return dynamics._clamp_and_drop(H, S, signs, mode.gains(costs.p), no_face)[0][0]


class TestSlideVelocity:
    def test_full_sliding_at_equilibrium(self, costs, cfg, x_star):
        mode = SignDescent(sliding="equivalent_control")
        v = clamp_and_drop(mode, costs, cfg, x_star.vector(), range(5))
        assert np.max(np.abs(v)) <= 1e-9

    def test_single_level_manifold_freezes(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        mode = SignDescent(sliding="equivalent_control")
        x = optimum_state(costs, cfg).vector()
        v = clamp_and_drop(mode, costs, cfg, x, [0])
        assert v == pytest.approx([0.0], abs=1e-12)

    def test_branching_block_is_diagonal(self, costs, cfg, x_star):
        mode = SignDescent(sliding="equivalent_control")
        x = x_star.vector() + np.array([0.2, 0.0, 0.0, 0.0, 0.0])
        x[3] = 8.0  # n_2 on its manifold
        v = clamp_and_drop(mode, costs, cfg, x, [3])
        assert v[3] == pytest.approx(0.0, abs=1e-12)
        assert abs(v[0]) == pytest.approx(1.0)

    def test_saturated_coordinates_are_expelled_at_their_gain(self, costs, cfg):
        # a slow n_2 gain: the equivalent control of both branching numbers
        # exceeds its bound, so clamp-and-drop expels n_2 and then n_3
        mode = SignDescent(sliding="equivalent_control", gradient_mode="coupled", zeta=(1e-3, 1.0))
        gains = mode.gains(costs.p)
        v = clamp_and_drop(mode, costs, cfg, GENERIC_X0, [3, 4])
        assert v[3] == gains[3] and v[4] == gains[4]
        assert np.all(np.abs(v) <= gains)


COUPLED_EC = SignDescent(sliding="equivalent_control", gradient_mode="coupled")


def settles_at_kkt_points(costs, X, t_end, h):
    """Dissipation violations of a coupled equivalent-control ensemble from
    the rows of X, and the largest coupled KKT residual of its final states."""
    cfg = AssemblyConfig.bejan(costs)
    box = state_box(costs, cfg)
    res = integrate_ensemble(COUPLED_EC, costs, cfg, box, X, t_end, h)
    g = hm.gradient_vec(costs, cfg, res.final_states, "coupled")
    return dissipation_violations(res), float(np.max(kkt_residual(box, res.final_states, g)))


class TestFaceHeldSelection:
    """Equivalent control's Filippov selection on the box: a coordinate held
    on a face enters the sliding solve at velocity 0.  Coupled mode only; in
    decoupled mode every face velocity points into the box."""

    def test_velocity_at_the_coupled_constrained_optimum_is_zero(self, costs, cfg, box):
        # n_2 (flat index 3) on its lower face, n_3 on its manifold; solved
        # against n_2's saturated velocity instead of 0, n_3's equivalent
        # control exceeds its gain and n_3 was expelled uphill at +1
        x = np.array([1.0, 0.5, 0.5, 1.0, 14.973913600124835])
        v, regime = velocity(COUPLED_EC, costs, cfg, box, x)
        assert np.max(np.abs(v)) <= 1e-12
        assert 4 in regime.sliding and 3 not in regime.sliding
        assert regime.lower == (3,)

    def test_canonical_box_states_settle(self, costs, box):
        rng = np.random.default_rng(5)
        X = box.lo + rng.random((40, box.dim)) * (box.hi - box.lo)
        violations, kkt = settles_at_kkt_points(costs, X, 200.0, 0.1)
        assert violations == 0 and kkt <= 1e-20

    @pytest.mark.parametrize("s", [1, 2, 3, pytest.param(4, marks=pytest.mark.xfail(
        strict=True, reason="one constant-velocity step of dt 17.1 crosses d_8R = 0 twice, unseen at its ends"))])
    def test_random_ladder_box_states_settle(self, s):
        rng = np.random.default_rng(100 + s)
        costs = random_ladder(rng, 2 + s % 5)
        box = state_box(costs, AssemblyConfig.bejan(costs))
        X = box.lo + rng.random((16, box.dim)) * (box.hi - box.lo)
        violations, kkt = settles_at_kkt_points(costs, X, 200.0, 0.1)
        assert violations == 0 and kkt <= 1e-20

    @pytest.mark.parametrize("p", [3, 8, 20, 32])
    def test_halving_ladders_run_to_the_end(self, p):
        costs = TransportCosts(K=tuple(0.5 ** i for i in range(p + 1)))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        traj = integrate(COUPLED_EC, costs, cfg, box, box.clip(1.2 * optimum_state(costs, cfg).vector()), 30.0, 1e-2)
        assert traj.times[-1] == 30.0 and dissipation_violations(traj) == 0


def random_sliding_stacks(p, gradient_mode, seed, rows=64):
    """Jacobian stacks at random box states (some on faces) of a random
    ladder of depth p, random sliding masks and random right sides."""
    rng = np.random.default_rng([p, seed])
    costs, cfg, box, _ = random_case(rng, p)
    X = box.lo + rng.random((rows, box.dim)) * (box.hi - box.lo)
    face = rng.random(X.shape)
    X = np.where(face < 0.1, box.lo, np.where(face < 0.2, box.hi, X))
    H = hm.grad_jacobian(costs, cfg, X, gradient_mode)
    S = rng.random(X.shape) < rng.uniform(0.2, 1.0, (rows, 1))
    return H, S, rng.normal(size=X.shape)


def block_solves(H, S, B):
    """Each row's own H_SS z_S = B_S, zero off S."""
    Z = np.zeros_like(B)
    for z, h, s, b in zip(Z, H, S, B):
        s = np.flatnonzero(s)
        if s.size:
            z[s] = np.linalg.solve(h[np.ix_(s, s)], b[s])
    return Z


class TestEmbeddedSlidingSolve:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_decoupled_blocks_solve_bit_for_bit(self, p):
        # decoupled H_SS is upper triangular: the embedded solve pivots as
        # the block's own does
        for seed in range(4):
            H, S, B = random_sliding_stacks(p, "decoupled", seed)
            Z = dynamics._solve_blocks(H, S, B)
            assert np.all(Z[~S] == 0.0)
            assert np.array_equal(Z, block_solves(H, S, B))

    @pytest.mark.parametrize("p", range(1, 9))
    def test_coupled_blocks_solve_within_rounding(self, p):
        for seed in range(4):
            H, S, B = random_sliding_stacks(p, "coupled", seed)
            Z, ref = dynamics._solve_blocks(H, S, B), block_solves(H, S, B)
            assert np.all(Z[~S] == 0.0)
            for z, r, h, s in zip(Z, ref, H, S):
                if s.any():
                    cond = np.linalg.cond(h[np.ix_(s, s)])
                    assert np.linalg.norm(z - r) <= 64 * np.finfo(float).eps * cond * np.linalg.norm(r)

    @pytest.mark.parametrize("gradient_mode", ["decoupled", "coupled"])
    @pytest.mark.parametrize("cond_max", [1e4, dynamics._COND_MAX])
    def test_unsolvable_rows_are_those_of_ill_conditioned_blocks(self, gradient_mode, cond_max, monkeypatch):
        # zero signs: no equivalent control saturates, so every row's
        # condition is read on its starting set S, and a stack raises
        # naming the first ill-conditioned row.  No random block here
        # reaches the shipped bound; roughly one in ten passes 1e4
        monkeypatch.setattr(dynamics, "_COND_MAX", cond_max)
        decided = []
        for p in range(1, 9):
            for seed in range(4):
                H, S, _ = random_sliding_stacks(p, gradient_mode, seed)
                ill = []
                for h, s in zip(H, S):
                    block = h[np.ix_(s, s)]
                    ill.append(s.any() and np.linalg.cond(block / np.abs(np.diag(block))[:, None]) > cond_max)
                run = lambda: dynamics._clamp_and_drop(H, S.copy(), np.zeros(S.shape), np.ones(S.shape[1]),
                                                       no_face)
                if any(ill):
                    first = np.flatnonzero(S[ill.index(True)]).tolist()
                    with pytest.raises(SingularSlidingError, match=re.escape(f"coordinates {first} is ill-")):
                        run()
                else:
                    run()
                decided += ill
        assert any(decided) == (cond_max == 1e4) and not all(decided)

    def test_singular_block_raises_naming_its_coordinates(self):
        H, S, B = random_sliding_stacks(3, "coupled", 1)
        S[5] = np.isin(np.arange(S.shape[1]), [1, 3])
        H[5, 3] = 2.0 * H[5, 1]
        with pytest.raises(SingularSlidingError, match=r"coordinates \[1, 3\] is singular"):
            dynamics._solve_blocks(H, S, B)


class TestRecordedResistance:
    def test_R_is_the_functional_of_the_recorded_states(self, costs, cfg, box):
        rc = load_config(CONFIGS / "canonical.cfg")
        coupled = ProjectedGradient(gradient_mode="coupled")
        slide = SignDescent(sliding="equivalent_control")
        x_face = np.array([1.0, 0.5, 0.5, 3.0, 3.0])
        pair = two_trajectory_run(coupled, costs, cfg, box, GENERIC_X0, x_face, 2.0, 1e-3)
        runs = [
            (rc.costs, rc.cfg, rc.mode,
             integrate(rc.mode, rc.costs, rc.cfg, rc.box, rc.x0, rc.t_end, rc.h, rc.options)),
            (costs, cfg, coupled, integrate(coupled, costs, cfg, box, x_face, 6.0, 1e-3)),
            (costs, cfg, slide, integrate(slide, costs, cfg, box, GENERIC_X0, 8.0, 1e-3)),
            (costs, cfg, coupled, pair.first),
            (costs, cfg, coupled, pair.second),
        ]
        for c, f, mode, traj in runs:
            R = hm.resistance_lyapunov_vec(c, f, traj.states, mode.gradient_mode)
            assert np.array_equal(traj.R_values, R)
        # each coupled run meets a face; the sliding run enters five slides
        assert [traj.event_counts() for *_, traj in runs[1:]] == [
            {"BoundaryContact": 1}, {"SlideEnter": 5}, {"BoundaryContact": 1}, {"BoundaryContact": 1}]


ONE_STEP = IntegrationOptions(stop_on_convergence=False)


class TestStep:
    """One nominal step: a run to t_end = h that does not stop on convergence."""

    def test_branching_exponential_decay(self, costs, cfg, box, pg_mode, x_star):
        x0 = x_star.vector() + np.array([0.0, 0.0, 0.0, 2.0, 0.0])
        h = 0.01
        traj = integrate(pg_mode, costs, cfg, box, x0, h, h, ONE_STEP)
        assert traj.events == []
        assert traj.final_state[3] - 8.0 == pytest.approx(2.0 * np.exp(-h), abs=1e-10)

    def test_equilibrium_fixed_point(self, costs, cfg, box, pg_mode, x_star):
        traj = integrate(pg_mode, costs, cfg, box, x_star, 0.01, 0.01, ONE_STEP)
        assert traj.events == []
        assert traj.final_state == pytest.approx(x_star.vector(), abs=1e-12)

    def test_sign_descent_constant_speed(self):
        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        mode = SignDescent(eta=(0.7,), zeta=(), sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, np.array([2.0]), 0.01, 0.01, ONE_STEP)
        assert traj.events == []
        assert traj.final_state[0] == pytest.approx(2.0 - 0.7 * 0.01, abs=1e-14)

    def test_rejects_bad_args(self, costs, cfg, box, pg_mode, x_star):
        with pytest.raises(DomainError):
            integrate(pg_mode, costs, cfg, box, x_star, -1.0, -1.0, ONE_STEP)


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

    def test_chattering_guard_raises(self, costs, cfg, box, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_EVENTS", 3)
        mode = SignDescent(sliding="equivalent_control")
        with pytest.raises(StepFailureError, match="chattering"):
            integrate(mode, costs, cfg, box, GENERIC_X0, 8.0, 8.0)

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

    def test_event_timestamp_in_failure(self, costs, cfg, box, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_EVENTS", 1)
        mode = SignDescent(sliding="equivalent_control")
        with pytest.raises(StepFailureError) as err:
            integrate(mode, costs, cfg, box, GENERIC_X0, 8.0, 8.0)
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
        # the rows log 100 events, many located in the same iteration;
        # row 17 takes steps that end past the n >= 1 face
        assert sum(map(len, res.events)) == 100
        opts = IntegrationOptions(stop_on_convergence=False)
        for i in range(len(X0)):
            single = integrate(rc.mode, rc.costs, rc.cfg, box, X0[i], 80.0, rc.h, opts)
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert np.array_equal(res.Psi_values[i], single.Psi_values)
            assert res.events[i] == single.events

    @pytest.mark.parametrize("mode", [ProjectedGradient(), SignDescent(), SignDescent(sliding="equivalent_control")],
                             ids=["projected_gradient", "boundary_layer", "equivalent_control"])
    def test_stacked_locator_equals_its_rows(self, costs, cfg, box, x_star, mode):
        # one step of 3 from the stacked states: under sign descent rows
        # 0, 2 and 3 locate events within it (row 3 three monitors under
        # equivalent control); projected gradient steps too short for any
        X = np.array([GENERIC_X0, x_star.vector(), [1.0, 0.5, 0.5, 5.0, 64.0], [3.0, 2.5, 2.5, 30.0, 40.0]])
        fld = dynamics._start(mode, costs, cfg, box, X, None)
        G = fld.grad(X)
        fz = fld.regime(X, G)
        st = stepping._ros_advance(fld, X, G, fz, np.full(4, 3.0), np.full(4, 10.0), np.zeros(4), 1e-2)
        found = stepping._locate_events(fld, X, G, fz, st)
        hits = []
        for i in range(4):
            row = slice(i, i + 1)
            step = stepping._Step(*(getattr(st, f.name)[row] for f in fields(stepping._Step)))
            one = stepping._locate_events(fld, X[row], G[row], fz.take(row), step)
            if found is None:
                assert one is None
            elif one is None:
                assert not found[0][i] and found[1][i] == 1.0 and found[3][i] == 0
                assert np.array_equal(found[2][i], st.y1[i])
            else:
                hits.append(i)
                for stacked, single in zip(found, one):
                    assert np.array_equal(stacked[i], single[0])
        assert hits == ([] if isinstance(mode, ProjectedGradient) else [0, 2, 3])

    @pytest.mark.parametrize("mode", [ProjectedGradient(), SignDescent(), SignDescent(sliding="equivalent_control")],
                             ids=["projected_gradient", "boundary_layer", "equivalent_control"])
    def test_empty_stack_gives_the_empty_result(self, costs, cfg, box, mode):
        res = integrate_ensemble(mode, costs, cfg, box, np.empty((0, box.dim)), 0.5, 1e-1)
        assert res.final_states.shape == (0, box.dim)
        assert res.R_values.shape == res.Psi_values.shape == (0, res.times.size)
        assert res.events == [] and res.max_clip == 0.0

    def test_boundary_layer_rows_keep_their_events(self, costs, cfg, box, x_star):
        # row 0 enters every layer, row 1 starts inside them, and row 2
        # starts on the n_3 <= 64 face and enters the n_2 layer
        mode = SignDescent()
        opts = IntegrationOptions(stop_on_convergence=False)
        X0 = np.array([GENERIC_X0, x_star.vector(), [1.0, 0.5, 0.5, 5.0, 64.0]])
        res = integrate_ensemble(mode, costs, cfg, box, X0, 5.0, 1e-3, opts)
        for i in range(3):
            single = integrate(mode, costs, cfg, box, X0[i], 5.0, 1e-3, opts)
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert res.events[i] == single.events
        assert [sorted((e.kind, e.index) for e in row) for row in res.events] == [
            [("SlideEnter", j) for j in range(5)], [], [("SlideEnter", 3)]]

    def test_dae_and_ode_rows_step_in_one_run(self, costs, cfg, box, x_star, monkeypatch):
        # row 0 starts on every manifold, row 1 on none: their first step
        # already holds one DAE row and one ODE row in a single regime
        real, formed = dynamics._SlideField.regime, []

        def regime(fld, Y, G):
            fz = real(fld, Y, G)
            formed.append(fz.algebraic.any(axis=1).tolist())
            return fz

        monkeypatch.setattr(dynamics._SlideField, "regime", regime)
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(stop_on_convergence=False)
        X0 = np.array([x_star.vector(), GENERIC_X0])
        res = integrate_ensemble(mode, costs, cfg, box, X0, 0.4, 1e-3, opts)
        assert formed[0] == [True, False]
        for i in range(2):
            single = integrate(mode, costs, cfg, box, X0[i], 0.4, 1e-3, opts)
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert np.array_equal(res.Psi_values[i], single.Psi_values)
            assert res.events[i] == single.events


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



def assert_same_trajectory(a, b):
    for name in ("times", "states", "R_values", "Psi_values", "regime_masks"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.events == b.events
    assert a.step_events == b.step_events
    assert a.status == b.status
    assert a.max_clip == b.max_clip


def grid_blocks(monkeypatch, run):
    """run() with the grid rows filled after every step, and with them
    filled once at the end of the run (where no step needs them at once)."""
    out = []
    for block in (1, 10**9):
        monkeypatch.setattr(dynamics, "_GRID_BLOCK", block)
        out.append(run())
    return out


class TestGridBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        near=st.floats(-15.0, 0.0),
        reach=st.floats(-16.0, 1.0),
        miss=st.floats(-17.0, -1.0),
    )
    def test_psi_screen_rules_out_no_step_it_should_not(self, p, seed, near, reach, miss):
        # steps from in-box starts 10**near (relative) from x*, some
        # coordinates on a face.  Half the steps move 10**reach (relative),
        # their dense coefficients formed as the core forms them, and a
        # quarter of their coordinates end past a face.  The other half
        # head straight for x*, every coefficient of a coordinate of one
        # sign, and end within 10**miss (relative) of it.  The screen's
        # floor is at most the Psi of every clipped grid row read off a
        # step, so a step with a grid row of Psi <= tol is never ruled out
        # (floor <= tol < 2 tol).
        rng = np.random.default_rng(seed)
        costs = random_ladder(rng, p)
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        x_opt = optimum_state(costs, cfg).vector()
        n, d = 16, box.dim
        Y0 = box.clip(x_opt * (1.0 + 10.0**near * rng.standard_normal((n, d))))
        face = rng.random((n, d))
        Y0 = np.where(face < 0.1, box.lo, np.where(face < 0.2, box.hi, Y0))
        move = 10.0**reach * x_opt * rng.standard_normal((n, d))
        past = rng.random((n, d)) < 0.25
        move = np.where(past, np.where(move > 0, box.hi, box.lo) - Y0 + move, move)
        a, b, w = (10.0**reach * x_opt * rng.standard_normal((n, d)) for _ in range(3))
        r1 = move - a - b
        e = (w - a - 2.0 * b) - 3.0 * r1
        dense = np.stack([a, b, r1 - e, e], axis=1)
        y1 = Y0 + move
        aimed = np.arange(n) < n // 2
        parts = rng.random((n // 2, 4, d))
        gap = (x_opt - Y0[aimed]) * (1.0 + 10.0**miss * rng.standard_normal((n // 2, d)))
        dense[aimed] = parts / parts.sum(axis=1, keepdims=True) * gap[:, None]
        y1[aimed] = Y0[aimed] + dense[aimed].sum(axis=1)
        times = np.concatenate([[0.0], np.sort(rng.random(30)), [1.0]])
        s_cap = np.where(rng.random(n) < 0.5, 1.0, rng.random(n))
        which, _, Xg, _ = stepping._grid_rows(box, times, np.zeros(n), Y0, np.ones(n), dense, y1,
                                              np.ones(n, dtype=np.int64), np.full(n, times.size), s_cap)
        lowest = np.full(n, np.inf)
        np.minimum.at(lowest, which, hm.imbalance_vec(costs, cfg, Xg))
        assert np.all(dynamics._psi_screen(costs, cfg, box)(Y0, dense) <= lowest)

    @pytest.mark.parametrize("case", ["converging", "face", "layer", "sliding"])
    def test_single_runs_do_not_depend_on_the_block(self, case, costs, cfg, box, pg_mode, monkeypatch):
        eqc = SignDescent(sliding="equivalent_control")
        x_face = np.array([1.0, 0.5, 0.5, 3.0, 3.0])
        run, tag = {
            "converging": (lambda: integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3), "converged"),
            "face": (lambda: integrate(ProjectedGradient(gradient_mode="coupled"), costs, cfg, box,
                                       x_face, 2.0, 1e-3), "BoundaryContact:3"),
            "layer": (lambda: integrate(SignDescent(), costs, cfg, box, GENERIC_X0, 2.0, 1e-3), "SlideEnter:0"),
            "sliding": (lambda: integrate(eqc, costs, cfg, box, GENERIC_X0, 8.0, 1e-3), "converged"),
        }[case]
        each, once = grid_blocks(monkeypatch, run)
        assert_same_trajectory(each, once)
        assert tag == once.status or any(tag in tags.split(";") for tags in once.step_events)

    def test_paired_runs_and_ensembles_do_not_depend_on_the_block(self, costs, cfg, box, pg_mode,
                                                                  x_star, monkeypatch):
        X0 = np.array([GENERIC_X0, [3.0, 2.5, 2.5, 30.0, 40.0], x_star.vector(), [1.0, 0.5, 0.5, 3.0, 3.0]])
        for mode in (pg_mode, ProjectedGradient(gradient_mode="coupled"), SignDescent(),
                     SignDescent(sliding="equivalent_control")):
            pair_each, pair_once = grid_blocks(
                monkeypatch, lambda: two_trajectory_run(mode, costs, cfg, box, X0[0], X0[3], 0.5, 1e-3))
            assert_same_trajectory(pair_each.first, pair_once.first)
            assert_same_trajectory(pair_each.second, pair_once.second)
            assert np.array_equal(pair_each.separation, pair_once.separation)
            each, once = grid_blocks(monkeypatch, lambda: integrate_ensemble(mode, costs, cfg, box, X0, 0.5, 1e-3))
            for name in ("times", "final_states", "R_values", "Psi_values"):
                assert np.array_equal(getattr(each, name), getattr(once, name)), name
            assert each.max_clip == once.max_clip

    def test_grid_rows_are_filled_per_block(self, costs, cfg, box, pg_mode, monkeypatch):
        # the canonical run fills 21,540 grid rows over 899 steps; only the
        # steps near its convergence stop are filled at once
        calls, grid_rows = 0, dynamics._grid_rows

        def counted(*args):
            nonlocal calls
            calls += 1
            return grid_rows(*args)

        monkeypatch.setattr(dynamics, "_grid_rows", counted)
        traj = integrate(pg_mode, costs, cfg, box, GENERIC_X0, 30.0, 1e-3)
        assert traj.converged and traj.times.size == 21540
        assert calls <= 30

    def test_inverse_is_numpy_inverse_with_nan_for_singular_rows(self):
        rng = np.random.default_rng(16)
        W = rng.standard_normal((64, 5, 5))
        W[7] = 0.0
        W[21, 3] = W[21, 1]  # two equal rows
        W[40, :, 2] = 0.0
        singular = np.isin(np.arange(64), [7, 21, 40])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(W)
        with np.errstate(all="ignore"):  # as in _ros_advance
            out = stepping._inverse(W)
            regular = stepping._inverse(W[~singular])
        assert np.all(np.isnan(out[singular]))
        assert np.array_equal(out[~singular], np.linalg.inv(W[~singular]))
        assert np.array_equal(regular, np.linalg.inv(W[~singular]))


def full_path(monkeypatch, run):
    """run(), and run() with every loop iteration on the full path (event
    location, clipping, records, the chattering guard and a new regime)."""
    quiet = run()
    with monkeypatch.context() as m:
        m.setattr(dynamics._Field, "near_face", lambda fld, Y: True)
        return quiet, run()


class TestQuietIterations:
    @pytest.mark.parametrize("case", ["canonical", "face", "band"])
    def test_single_runs_do_not_depend_on_the_quiet_path(self, case, costs, cfg, box, monkeypatch):
        # "band": with a face band 1e-2 wide, n_2 ends a step inside it
        # before it reaches the face, and is held there from that step on
        rc = load_config(CONFIGS / "canonical.cfg")
        coupled = ProjectedGradient(gradient_mode="coupled")
        x_face = np.array([1.0, 0.5, 0.5, 3.0, 3.0])
        run, check = {
            "canonical": (lambda: integrate(rc.mode, rc.costs, rc.cfg, rc.box, rc.x0, rc.t_end, rc.h,
                                            rc.options), lambda traj: traj.converged),
            "face": (lambda: integrate(coupled, costs, cfg, box, x_face, 6.0, 1e-3),
                     lambda traj: any("BoundaryContact:3" in t.split(";") for t in traj.step_events)),
            "band": (lambda: integrate(coupled, costs, cfg, box, x_face, 6.0, 1e-3,
                                       IntegrationOptions(boundary_tol=1e-2)),
                     lambda traj: not traj.events and 1.0 < traj.final_state[3] < 1.01
                     and traj.regime_masks[-1] == 1 << 3),
        }[case]
        quiet, full = full_path(monkeypatch, run)
        assert_same_trajectory(quiet, full)
        assert check(quiet)

    def test_paired_runs_and_ensembles_do_not_depend_on_the_quiet_path(self, costs, cfg, box, x_star,
                                                                       monkeypatch):
        # row 3 starts on the n_2 >= 1 face; row 0 meets that face under
        # coupled projected gradient
        X0 = np.array([GENERIC_X0, [3.0, 2.5, 2.5, 30.0, 40.0], x_star.vector(), [1.0, 0.5, 0.5, 1.0, 3.0]])
        for mode in (ProjectedGradient(), ProjectedGradient(gradient_mode="coupled"), SignDescent(),
                     SignDescent(sliding="equivalent_control")):
            pair_quiet, pair_full = full_path(
                monkeypatch, lambda: two_trajectory_run(mode, costs, cfg, box, X0[0], X0[3], 0.5, 1e-3))
            assert_same_trajectory(pair_quiet.first, pair_full.first)
            assert_same_trajectory(pair_quiet.second, pair_full.second)
            assert np.array_equal(pair_quiet.separation, pair_full.separation)
            quiet, full = full_path(
                monkeypatch, lambda: integrate_ensemble(mode, costs, cfg, box, X0, 0.5, 1e-3))
            for name in ("times", "final_states", "R_values", "Psi_values"):
                assert np.array_equal(getattr(quiet, name), getattr(full, name)), name
            assert quiet.max_clip == full.max_clip
            assert quiet.events == full.events

    def test_canonical_runs_locate_no_events(self, monkeypatch):
        # no canonical end state comes near a face: the runs locate no
        # events and form a regime only at the start and when rows finish
        calls = {"_locate_events": 0, "regime": 0}
        for owner, name in ((dynamics, "_locate_events"), (dynamics._PGField, "regime")):
            def counted(*args, real=getattr(owner, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)
        rc = load_config(CONFIGS / "canonical.cfg")
        traj = integrate(rc.mode, rc.costs, rc.cfg, rc.box, rc.x0, rc.t_end, rc.h, rc.options)
        assert traj.converged and calls == {"_locate_events": 0, "regime": 1}
        # the benchmark's 64 seeded states: x* scaled by factors in [0.7, 1.3]
        x_opt = optimum_state(rc.costs, rc.cfg).vector()
        scale = 1.0 + np.random.default_rng([1, 2]).uniform(-0.3, 0.3, (64, x_opt.size))
        X0 = np.clip(x_opt * scale, rc.box.lo, rc.box.hi)
        res = integrate_ensemble(rc.mode, rc.costs, rc.cfg, rc.box, X0, 16.0, 4e-3, rc.options)
        assert res.events == [[]] * len(X0)
        assert calls["_locate_events"] == 0
        assert calls["regime"] <= 2 + len(X0)


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
        # RODAS4 takes 899 steps here: 5,446 gradient rows and one Jacobian
        # per step (RK4 with step doubling on the grid took 302,531 rows)
        assert counts["grad_rows"] <= 6_000
        assert counts["jacobians"] <= 1_000

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
            integrate(pg_mode, costs, cfg, box, GENERIC_X0, bad, bad, ONE_STEP)
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


def layer_radau(mode, costs, cfg, x0, times):
    """Grid rows of a boundary-layer run from scipy's Radau at rtol 1e-12,
    and its layer entries and exits as time-ordered (time, kind, j)."""
    from scipy.integrate import solve_ivp

    gains, eps = mode.gains(costs.p), mode.epsilon

    def field(t, y):
        return -gains * np.clip(hm.gradient_vec(costs, cfg, y) / eps, -1.0, 1.0)

    def jac(t, y):
        in_layer = np.abs(hm.gradient_vec(costs, cfg, y)) <= eps
        J = -(gains / eps)[:, None] * hm.grad_jacobian(costs, cfg, y)
        return np.where(in_layer[:, None], J, 0.0)

    def crossing(j, direction):
        def phi(t, y):
            return abs(hm.gradient_vec(costs, cfg, y)[j]) - eps

        phi.direction = direction
        return phi

    kinds = [("SlideEnter", -1), ("SlideExit", 1)]
    monitors = [crossing(j, direction) for _, direction in kinds for j in range(x0.size)]
    sol = solve_ivp(field, (0.0, times[-1]), x0, method="Radau", jac=jac,
                    rtol=1e-12, atol=1e-14, t_eval=times, events=monitors)
    assert sol.success
    events = sorted((float(t), kinds[m // x0.size][0], m % x0.size)
                    for m, ts in enumerate(sol.t_events) for t in ts)
    return sol.y.T, events


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
        assert [e.index for e in traj.events] == [2, 0, 1, 3, 4]  # r_1 and r_2 arrive together
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

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_layer_runs_near_the_shipped_state_match_radau(self, seed):
        # states within 5 % of signdescent.cfg's x0; each layer entry is a
        # transient at rate about 2000 within one grid interval, where the
        # velocity-change bound loosens and error control sets the steps
        rc = load_config(CONFIGS / "signdescent.cfg")
        rng = np.random.default_rng(seed)
        x0 = rc.x0 * (1.0 + rng.uniform(-0.05, 0.05, rc.x0.size))
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(rc.mode, rc.costs, rc.cfg, rc.box, x0, 14.0, rc.h, opts)
        ref, events = layer_radau(rc.mode, rc.costs, rc.cfg, x0, traj.times)
        assert np.max(np.abs(traj.states - ref)) <= 1e-8
        assert [(e.kind, e.index) for e in traj.events] == [(kind, j) for _, kind, j in events]
        assert [e.time for e in traj.events] == pytest.approx([t for t, _, _ in events], abs=1e-8)
        assert dissipation_violations(traj) == 0

    def test_ill_conditioned_sliding_block_stops_the_run(self, costs, cfg, box, monkeypatch):
        # a condition bound below 1 rejects every sliding block, so the run
        # raises once r_3 reaches its manifold, where the unpatched run logs
        # SlideEnter:2 at t = 0.2; so does an ensemble with one row that
        # reaches it
        monkeypatch.setattr(dynamics, "_COND_MAX", 0.5)
        mode = SignDescent(sliding="equivalent_control")
        opts = IntegrationOptions(stop_on_convergence=False)
        with pytest.raises(SingularSlidingError,
                           match=r"^integration failed at t=0\.2: sliding block on coordinates \[2\] is ill-"
                           ) as err:
            integrate(mode, costs, cfg, box, GENERIC_X0, 1.0, 1e-3, opts)
        assert abs(err.value.time - 0.2) <= 1e-3
        X0 = np.array([[3.0, 2.5, 2.5, 30.0, 40.0], GENERIC_X0])
        with pytest.raises(SingularSlidingError, match=r"coordinates \[2\] is ill-conditioned"):
            integrate_ensemble(mode, costs, cfg, box, X0, 1.0, 1e-3, opts)

    def test_saturated_equivalent_control_exits_its_manifold(self, costs, cfg, box):
        # coupled mode: once n_3 (flat index 4) slides, its equivalent
        # control grows until it reaches the gain zeta_2 = 1.06; there n_3
        # leaves its manifold and moves at the gain
        mode = SignDescent(sliding="equivalent_control", gradient_mode="coupled",
                           eta=(2.4, 4.2, 3.4), zeta=(0.7, 1.06))
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(mode, costs, cfg, box, [0.51, 1.06, 0.42, 6.9, 6.6], 4.0, 1e-2, opts)
        assert [(e.kind, e.index) for e in traj.events] == [
            ("SlideEnter", 2), ("SlideEnter", 1), ("SlideEnter", 0), ("SlideEnter", 4), ("SlideExit", 4)
        ]
        t_exit = traj.events[-1].time
        assert t_exit == pytest.approx(2.11406, abs=1e-5)
        k = traj.step_events.index("SlideExit:4")
        assert traj.times[k - 1] < t_exit <= traj.times[k]
        v4 = [velocity(mode, costs, cfg, box, x)[0][4] for x in traj.states[k - 2 : k + 1]]
        assert v4[0] < v4[1] < 1.06
        assert v4[2] == pytest.approx(1.06, abs=1e-12)
        assert traj.regime_masks[k - 1] == 0x17 and traj.regime_masks[k] == 0x7
        # an ensemble of nearby states saturates n_3 on every row, at
        # t = 1.64 to 2.54, and each row is its single run bit for bit
        x0 = np.array([0.51, 1.06, 0.42, 6.9, 6.6])
        X = box.clip(x0 * (1.0 + np.random.default_rng(0).uniform(-0.05, 0.05, (8, 5))))
        res = integrate_ensemble(mode, costs, cfg, box, X, 4.0, 1e-2, opts)
        for i in range(8):
            single = integrate(mode, costs, cfg, box, X[i], 4.0, 1e-2, opts)
            assert np.array_equal(res.final_states[i], single.final_state)
            assert np.array_equal(res.R_values[i], single.R_values)
            assert res.events[i] == single.events
            assert [e for e in single.step_events if "SlideExit" in e] == ["SlideExit:4"]
            assert 1.6 < next(e.time for e in single.events if e.kind == "SlideExit") < 2.6

    def test_equivalent_control_evaluation_ceiling(self, costs, cfg, box, monkeypatch):
        counts = count_model_calls(monkeypatch)
        mode = SignDescent(sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, GENERIC_X0, 6.0, 1e-3)
        assert traj.converged and traj.event_counts() == {"SlideEnter": 5}
        # 25 Jacobians: 8 regimes, 7 steps, 9 velocities at the ends of
        # the sliding steps' attempts and one in an event search, and 8,115
        # gradient rows; RK4 with step doubling on the index-reduced ODE
        # made 57,134 Jacobians
        assert counts["jacobians"] <= 30
        assert counts["grad_rows"] <= 9_000

    def test_event_search_without_events_makes_no_model_call(self, costs, cfg, box, x_star, monkeypatch):
        # both rows slide on every coordinate and cross no monitor within
        # the step: the dense test reads the gradients and velocities that
        # the step formed at its ends
        mode = SignDescent(sliding="equivalent_control")
        X = np.array([x_star.vector(), x_star.vector() * (1.0 + 1e-13)])
        fld = dynamics._start(mode, costs, cfg, box, X, None)
        G = fld.grad(X)
        fz = fld.regime(X, G)
        assert fz.algebraic.all()
        st = stepping._ros_advance(fld, X, G, fz, np.full(2, 0.1), np.full(2, 10.0), np.zeros(2), 1e-2)
        counts = count_model_calls(monkeypatch)
        assert stepping._locate_events(fld, X, G, fz, st) is None
        assert counts == {"grad_rows": 0, "jacobians": 0}

    def test_contact_re_read_takes_only_the_contact_rows(self, costs, cfg, box, monkeypatch):
        # coupled boundary layer: row 0's n_2 reaches its lower face at a
        # fifth of the step; row 1 meets no face, ends at y1, whose
        # gradient the step formed, and is not read again
        mode = SignDescent(gradient_mode="coupled")
        X = np.array([[1.0, 0.5, 0.5, 1.01, 15.0], GENERIC_X0])
        fld = dynamics._start(mode, costs, cfg, box, X, None)
        G = fld.grad(X)
        fz = fld.regime(X, G)
        st = stepping._ros_advance(fld, X, G, fz, np.full(2, 0.05), np.full(2, 10.0), np.zeros(2), 1e-2)
        rows = []
        monkeypatch.setattr(fld, "grad", lambda Y, real=fld.grad: rows.append(len(Y)) or real(Y))
        hit, s, _, located = stepping._locate_events(fld, X, G, fz, st)
        assert hit.tolist() == [True, False] and s[0] == pytest.approx(0.2) and s[1] == 1.0
        assert rows[0] == 1  # the re-read at the contact

    @pytest.mark.parametrize("p", range(1, 9))
    def test_equivalent_control_on_halving_ladders(self, p):
        # deep ladders have stiff manifolds (H_jj at x* reaches 1e6 at p = 5
        # and 3e10 at p = 8), on which one ulp of x_j moves d_j R by more
        # than tol.switch
        costs = TransportCosts(K=tuple(0.5 ** i for i in range(p + 1)))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        opt = optimum_state(costs, cfg).vector()
        mode = SignDescent(sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, box.clip(1.2 * opt), 80.0, 1e-2)
        assert traj.converged
        assert traj.event_counts() == {"SlideEnter": 2 * p - 1}
        assert np.max(np.abs(traj.final_state - opt)) <= 1e-9

    @pytest.mark.parametrize("p", [9, 12, 16])
    def test_equivalent_control_on_deep_halving_ladders(self, p):
        # from p = 9, H_jj at x* spans more than _COND_MAX (1.1e12 at p = 9);
        # the sliding blocks are well conditioned once their rows are
        # divided by H_jj, so every coordinate slides onto x*
        costs = TransportCosts(K=tuple(0.5 ** i for i in range(p + 1)))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        opt = optimum_state(costs, cfg).vector()
        mode = SignDescent(sliding="equivalent_control")
        traj = integrate(mode, costs, cfg, box, box.clip(1.2 * opt), 30.0, 1e-2)
        assert np.max(np.abs(traj.final_state - opt) / opt) <= 1e-12

    def test_boundary_layer_evaluation_ceiling(self, costs, cfg, box, x_star, monkeypatch):
        counts = count_model_calls(monkeypatch)
        opts = IntegrationOptions(stop_on_convergence=False)
        traj = integrate(LAYER_MODE, costs, cfg, box, x_star.vector() + LAYER_OFFSET, 14.0, 1e-3, opts)
        assert traj.times[-1] == 14.0 and traj.event_counts() == {"SlideEnter": 5}
        # RK4 with step doubling made about 225k gradient rows, and RODAS4
        # with the velocity-change bound on every substep 7,370 rows and
        # 1,167 Jacobians; with the bound set per output interval, 1,916
        # and 236
        assert counts["grad_rows"] <= 3_000
        assert counts["jacobians"] <= 400

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 8),
        law=st.sampled_from(["equivalent_control", "boundary_layer", "projected_gradient"]),
        gradient_mode=st.sampled_from(["decoupled", "coupled"]),
        epsilon=st.floats(1e-4, 1e-1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=6, law="boundary_layer", gradient_mode="decoupled", epsilon=1e-4, seed=0)
    @example(p=4, law="boundary_layer", gradient_mode="coupled", epsilon=1e-4, seed=2)
    def test_random_ladders_and_states(self, p, law, gradient_mode, epsilon, seed):
        costs, cfg, box, x0 = random_case(np.random.default_rng(seed), p)
        if law == "projected_gradient":
            mode = ProjectedGradient(gradient_mode=gradient_mode)
        else:
            mode = SignDescent(sliding=law, epsilon=epsilon, gradient_mode=gradient_mode)
        try:
            traj = integrate(mode, costs, cfg, box, x0, 1.0, 1e-2)
        except StepFailureError:
            # documented: chattering guard, step underflow (deep ladders
            # start on an r-face with relaxation times near 1e-15)
            return
        assert traj.max_clip <= 1e-12
        assert np.all(traj.states >= box.lo) and np.all(traj.states <= box.hi)
        assert dissipation_violations(traj) == 0
        # each coordinate's sliding entries and exits alternate
        last = {}
        for e in traj.events:
            if e.kind in ("SlideEnter", "SlideExit"):
                assert last.get(e.index) != e.kind, (e, traj.events)
                last[e.index] = e.kind
