"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Heavy runs are shared through module-scoped fixtures.
"""

from pathlib import Path

import numpy as np
import pytest

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
)
from constructal import analysis, hierarchy as hm
from constructal.cli import main
from constructal.cones import kkt_residual, moreau_decompose

REPO = Path(__file__).resolve().parents[1]
CANONICAL_CFG = REPO / "configs" / "canonical.cfg"

COSTS = TransportCosts(K=(1.0, 0.5, 0.25, 0.125))
CFG = AssemblyConfig.bejan(COSTS)
BOX = state_box(COSTS, CFG)
X_STAR = optimum_state(COSTS, CFG).vector()
PG = ProjectedGradient(mobility=1.0)
R_STAR = 264.5


def report(num: int, label: str) -> None:
    print(f"\n[acceptance] criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def certificate():
    return analysis.certify_contraction(PG, COSTS, CFG, BOX, count=10_000, seed=0)


@pytest.fixture(scope="module")
def canonical_run():
    opts = IntegrationOptions(converge_tol=1e-15)
    return integrate(PG, COSTS, CFG, BOX, np.array([1.3, 0.8, 0.3, 12.0, 20.0]), 40.0, 1e-3, opts)


@pytest.fixture(scope="module")
def equivalent_control_run():
    mode = SignDescent(sliding="equivalent_control")
    opts = IntegrationOptions(stop_on_convergence=False)
    return mode, integrate(
        mode, COSTS, CFG, BOX, np.array([1.3, 0.8, 0.3, 12.0, 20.0]), 6.0, 1e-3, opts
    )


@pytest.fixture(scope="module")
def boundary_layer_run():
    mode = SignDescent(
        eta=(0.4, 0.2 / 32.0, 0.2 / 1024.0),
        zeta=(0.2, 0.2),
        sliding="boundary_layer",
        epsilon=1e-4,
    )
    x0 = X_STAR + np.array([0.12, 0.01, 0.001, 1.5, 1.5])
    return mode, integrate(mode, COSTS, CFG, BOX, x0, 14.0, 1e-3)


@pytest.fixture(scope="module")
def selection_ensemble():
    rng = np.random.default_rng(2024)
    X0 = BOX.lo + rng.random((100, BOX.dim)) * (BOX.hi - BOX.lo)
    result = integrate_ensemble(PG, COSTS, CFG, BOX, X0, 64.0, 4e-3)
    return X0, result


def run_violations(times, r_values):
    dR = np.diff(r_values, axis=-1)
    tol = 1e-9 * (1.0 + np.abs(np.asarray(r_values)[..., :-1]))
    return int(np.sum(dR > tol))


def test_criterion_1_table_reproduction():
    r_ana = hm.optimal_ratios(COSTS, CFG)
    n_ana = hm.optimal_branching(COSTS)
    assert r_ana == pytest.approx([1.0, 0.5, 0.5], abs=1e-12)
    assert n_ana == pytest.approx([8.0, 16.0], abs=1e-12)
    areas = hm.areas_from_n(CFG, n_ana)
    minima = [hm.min_cost_per_flow(COSTS, CFG, i, areas[i - 1]) for i in (1, 2, 3)]
    assert minima == pytest.approx([0.5, 1.0, 2.0], abs=1e-12)

    oracle = analysis.grid_oracle(COSTS, CFG)
    assert np.asarray(oracle.r_opt) == pytest.approx(r_ana, abs=1e-6)
    assert np.asarray(oracle.n_opt) == pytest.approx(n_ana, abs=1e-6)
    assert np.asarray(oracle.min_costs) == pytest.approx(minima, abs=1e-6)

    rng = np.random.default_rng(77)
    for _ in range(50):
        ratios = rng.uniform(0.3, 0.9, 3)
        K = [1.0]
        for rho in ratios:
            K.append(K[-1] * rho)
        costs = TransportCosts(K=tuple(K))
        cfg = AssemblyConfig.bejan(costs)
        oracle = analysis.grid_oracle(costs, cfg)
        assert np.asarray(oracle.r_opt) == pytest.approx(
            hm.optimal_ratios(costs, cfg), abs=1e-6
        )
        areas = hm.areas_from_n(cfg, np.asarray(oracle.n_opt))
        expected = [hm.min_cost_per_flow(costs, cfg, i, areas[i - 1]) for i in (1, 2, 3)]
        assert np.asarray(oracle.min_costs) == pytest.approx(expected, abs=1e-6)
    report(1, "classical hierarchy optima vs search oracle")


def test_criterion_2_selection(selection_ensemble, boundary_layer_run):
    X0, result = selection_ensemble
    finals = result.final_states
    dists = np.linalg.norm(finals - X_STAR, axis=1)
    assert np.max(dists) <= 1e-6
    # pairwise spread via the diameter bound on coordinates
    spread = np.max(finals, axis=0) - np.min(finals, axis=0)
    assert np.linalg.norm(spread) <= 1e-6
    # cross-check the vectorized path against the event-located integrator
    opts = IntegrationOptions(stop_on_convergence=False)
    for idx in (0, 57):
        single = integrate(PG, COSTS, CFG, BOX, X0[idx], 8.0, 4e-3, opts)
        partial = integrate_ensemble(PG, COSTS, CFG, BOX, X0[idx][None, :], 8.0, 4e-3)
        assert np.array_equal(partial.final_states[0], single.final_state)

    mode, traj = boundary_layer_run
    assert np.linalg.norm(traj.final_state - X_STAR) <= 10.0 * mode.epsilon
    report(2, "selection: common limit within 1e-6 of x*; boundary layer within 10*eps")


def test_criterion_3_dissipation(canonical_run, selection_ensemble, equivalent_control_run, boundary_layer_run):
    traj = canonical_run
    assert traj.converged
    assert run_violations(traj.times, traj.R_values) == 0
    rep = analysis.dissipation_report(traj, r_star=R_STAR)
    assert rep.violations == 0
    assert rep.alpha_hat > 0.0
    assert rep.r_gap <= 1e-6

    _, ens = selection_ensemble
    assert run_violations(ens.times, ens.R_values) == 0
    assert np.max(np.abs(ens.R_values[:, -1] - R_STAR)) <= 1e-6

    for _, other in (equivalent_control_run, boundary_layer_run):
        assert run_violations(other.times, other.R_values) == 0
        assert abs(other.R_values[-1] - R_STAR) <= 1e-6
    report(3, "dissipation: zero violations, alpha_hat > 0, R -> R(x*)")


def test_criterion_4_contraction_certificate(certificate):
    cert = certificate
    assert cert.passed
    assert cert.nu_estimate > 0.0
    assert cert.worst_mu <= -cert.nu_estimate + 1e-8
    J_star = analysis.jacobian(PG, COSTS, CFG, X_STAR)
    assert analysis.matrix_measure(J_star) == pytest.approx(-0.5, abs=1e-8)
    report(4, "contraction certificate on the +/-10% sub-box")


def test_criterion_5_incremental_contraction(certificate):
    # pure branching subsystem: states differing only in branching numbers
    x0 = X_STAR + np.array([0.0, 0.0, 0.0, 3.0, 1.0])
    y0 = X_STAR + np.array([0.0, 0.0, 0.0, 1.0, 2.5])
    pair = two_trajectory_run(PG, COSTS, CFG, BOX, x0, y0, 16.0, 1e-3)
    fit = analysis.fit_rate(pair.times, pair.separation)
    assert fit.rate == pytest.approx(1.0, abs=1e-3)

    # canonical pair along the slow direction, approached from above
    x0 = X_STAR + np.array([0.30, 0.0, 0.0, 0.0, 0.0])
    y0 = X_STAR + np.array([0.15, 0.0, 0.0, 0.0, 0.0])
    pair = two_trajectory_run(PG, COSTS, CFG, BOX, x0, y0, 25.0, 1e-3)
    fit = analysis.fit_rate(pair.times, pair.separation)
    assert fit.rate >= 0.95 * certificate.nu_estimate
    assert fit.prefactor >= 1.0
    report(5, "incremental contraction: branching rate 1.0, canonical tail vs certificate")


def test_criterion_6_sliding_invariance(equivalent_control_run):
    _, traj = equivalent_control_run
    enter_time = {}
    for e in traj.events:
        if e.kind == "SlideEnter":
            enter_time.setdefault(e.index, e.time)
    assert sorted(enter_time) == [0, 1, 2, 3, 4]
    bound = 10.0 * IntegrationOptions().switch_tol
    worst = 0.0
    for k, t in enumerate(traj.times):
        g = hm.gradient_vec(COSTS, CFG, traj.states[k], "decoupled")
        for j, te in enter_time.items():
            if t > te + 1e-9:
                worst = max(worst, abs(g[j]))
    assert worst <= bound
    report(6, f"sliding invariance: worst |d_j R| while sliding = {worst:.3g} <= {bound:.1g}")


def test_criterion_7_moreau_kkt_suite():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        x = BOX.lo + rng.random(BOX.dim) * (BOX.hi - BOX.lo)
        if rng.random() < 0.5:
            j = rng.integers(BOX.dim)
            x[j] = BOX.lo[j] if rng.random() < 0.5 else BOX.hi[j]
        v = rng.normal(size=BOX.dim) * 10.0
        dec = moreau_decompose(BOX, x, v)
        scale = max(1.0, float(np.linalg.norm(v)))
        assert np.max(np.abs(dec.tangent + dec.normal - v)) <= 1e-12 * scale
        assert abs(float(dec.tangent @ dec.normal)) <= 1e-12 * scale**2
        assert float(v @ v) == pytest.approx(
            float(dec.tangent @ dec.tangent) + float(dec.normal @ dec.normal),
            rel=1e-12,
            abs=1e-12,
        )
        lo = BOX.active_lower(x)
        hi = BOX.active_upper(x)
        for j in range(BOX.dim):
            if lo[j]:
                assert dec.tangent[j] >= -1e-15 and dec.normal[j] <= 1e-15
            elif hi[j]:
                assert dec.tangent[j] <= 1e-15 and dec.normal[j] >= -1e-15
            else:
                assert dec.normal[j] == 0.0

    g_star = hm.gradient_vec(COSTS, CFG, X_STAR, "decoupled")
    assert kkt_residual(BOX, X_STAR, g_star) <= 1e-12
    count_positive = 0
    for _ in range(100):
        x = X_STAR + rng.uniform(-0.08, 0.08, BOX.dim) * np.maximum(1.0, np.abs(X_STAR))
        x = np.clip(x, BOX.lo + 1e-6, BOX.hi - 1e-6)
        g = hm.gradient_vec(COSTS, CFG, x, "decoupled")
        if kkt_residual(BOX, x, g) > 0.0:
            count_positive += 1
    assert count_positive == 100
    report(7, "Moreau/KKT property suite at 1e-12")


def test_criterion_8_structural_bound():
    rng = np.random.default_rng(31337)
    worst_gap = -np.inf
    for _ in range(10_000):
        x = np.concatenate([rng.uniform(0.2, 2.5, 3), rng.uniform(1.5, 40.0, 2)])
        Dg = hm.grad_jacobian(COSTS, CFG, x, "decoupled")
        J = -Dg
        mu = float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])
        lam = float(np.linalg.eigvalsh(0.5 * (Dg + Dg.T))[0])
        bound = -lam  # m = 1, L_M = 0
        worst_gap = max(worst_gap, mu - bound)
        assert mu <= bound + 1e-10
    assert worst_gap <= 1e-10

    X = np.hstack(
        [rng.uniform(0.2, 2.5, (60, 3)), rng.uniform(1.5, 40.0, (60, 2))]
    )
    for _ in range(1000):
        a = X[rng.integers(len(X))]
        b = X[rng.integers(len(X))]
        A = -hm.grad_jacobian(COSTS, CFG, a, "decoupled")
        B = -hm.grad_jacobian(COSTS, CFG, b, "coupled")
        theta = float(rng.random())
        mixed = analysis.matrix_measure(theta * A + (1.0 - theta) * B)
        bound = max(analysis.matrix_measure(A), analysis.matrix_measure(B))
        assert mixed <= bound + 1e-12 * max(1.0, abs(bound))
    report(8, "structural bound and matrix-measure subadditivity")


def test_criterion_9_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(CANONICAL_CFG), "--out", str(out1), "--seed", "11"]) == 0
    assert main(["simulate", "--config", str(CANONICAL_CFG), "--out", str(out2), "--seed", "11"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    summary = dict(
        line.split(" = ") for line in (out1 / "summary.txt").read_text().splitlines()
    )
    assert summary["converged"] == "true"
    assert abs(float(summary["final.R"]) - R_STAR) <= 1e-6
    report(9, "byte-identical simulate outputs for identical config and seed")
