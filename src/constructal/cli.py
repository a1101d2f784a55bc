"""Command line interface: table, simulate, certify, converge.

Outputs are byte-stable for a fixed config and seed: floats are written
with the shortest round-trip representation, lines end with LF, and all
field orders are fixed.  Exit codes: 0 pass, 1 quantitative failure,
2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, hierarchy as hm
from .config import RunConfig, format_value, load_config, write_config
from .dynamics import (
    EVENT_KINDS,
    SignDescent,
    Trajectory,
    integrate,
    nominal_rows,
    two_trajectory_run,
)
from .errors import ConfigError, ConstructalError, DegenerateFitError

SCHEMA_VERSION = 1
TABLE_TOL = 1e-6
MAX_GRID_ROWS = 10**7  # over 300x the longest shipped run


def _out_dir(rc: RunConfig, args) -> Path:
    path = Path(args.out or rc.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> RunConfig:
    rc = load_config(args.config, args.seed)
    if args.command == "table":
        return rc
    if rc.t_end is None:
        raise ConfigError(f"run.t_end is required for {args.command}")
    rows = nominal_rows(rc.t_end, rc.h)
    if rows > MAX_GRID_ROWS:
        raise ConfigError(f"run.t_end / run.h gives {rows:.3g} grid rows; at most {MAX_GRID_ROWS:.0e}")
    if rows < 10 and args.command in ("simulate", "certify"):
        raise ConfigError(f"run.t_end / run.h gives {rows} grid rows; {args.command} needs at least 10")
    return rc


def _state_labels(p: int) -> list[str]:
    return [f"r_{i}" for i in range(1, p + 1)] + [f"n_{i}" for i in range(2, p + 1)]


def cmd_table(args) -> int:
    rc = _load(args)
    costs, cfg = rc.costs, rc.cfg
    p = costs.p
    r_ana = hm.optimal_ratios(costs, cfg)
    n_ana = hm.optimal_branching(costs)
    A = hm.areas_from_n(cfg, n_ana)
    c_ana = np.array([hm.min_cost_per_flow(costs, cfg, i, A[i - 1]) for i in range(1, p + 1)])
    oracle = analysis.grid_oracle(costs, cfg)

    header = ["level", "r_opt", "r_oracle", "dev_r", "cost_min", "cost_oracle", "dev_cost"]
    if p > 1:
        header += ["n_opt", "n_oracle", "dev_n"]
    print("\t".join(header))
    worst = 0.0
    for i in range(p):
        dev_r = abs(r_ana[i] - oracle.r_opt[i])
        dev_c = abs(c_ana[i] - oracle.min_costs[i])
        row = [
            str(i + 1),
            format_value(r_ana[i]),
            format_value(oracle.r_opt[i]),
            format_value(dev_r),
            format_value(c_ana[i]),
            format_value(oracle.min_costs[i]),
            format_value(dev_c),
        ]
        worst = max(worst, dev_r, dev_c)
        if p > 1:
            if i >= 1:
                dev_n = abs(n_ana[i - 1] - oracle.n_opt[i - 1])
                row += [format_value(n_ana[i - 1]), format_value(oracle.n_opt[i - 1]), format_value(dev_n)]
                worst = max(worst, dev_n)
            else:
                row += ["-", "-", "-"]
        print("\t".join(row))
    print(f"max_deviation = {format_value(worst)}")
    return 0 if worst <= TABLE_TOL else 1


def _trajectory_csv(path: Path, traj: Trajectory, p: int) -> None:
    header = "t," + ",".join(_state_labels(p)) + ",R,Psi,regime_mask,event\n"
    rows = np.column_stack((traj.times, traj.states, traj.R_values, traj.Psi_values))
    # streamed row by row: the whole table as Python floats, or as one
    # string, would hold several times the array's memory at once
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(header)
        f.writelines(
            f"{','.join(map(repr, row.tolist()))},{mask:x},{event}\n"
            for row, mask, event in zip(rows, traj.regime_masks.tolist(), traj.step_events)
        )


def _r_star(rc: RunConfig) -> float:
    """Total resistance at the analytic optimum."""
    return float(hm.resistance_vec(rc.costs, rc.cfg, hm.optimum_state(rc.costs, rc.cfg).vector()))


def _certificate(rc: RunConfig) -> analysis.ContractionCertificate:
    """The sampled contraction certificate the config asks for."""
    return analysis.certify_contraction(
        rc.mode,
        rc.costs,
        rc.cfg,
        rc.box,
        subbox=rc.sampling_subbox,
        count=rc.sampling_count,
        seed=rc.seed,
        rel_halfwidth=rc.sampling_rel_halfwidth,
    )


def _summary_fields(rc: RunConfig, traj: Trajectory) -> list[tuple[str, object]]:
    r_star = _r_star(rc)
    report = analysis.dissipation_report(traj, r_star=r_star)
    counts = traj.event_counts()
    labels = _state_labels(rc.costs.p)
    fields: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("converged", traj.converged),
        ("status", traj.status),
        ("t_final", float(traj.times[-1])),
        ("gradient_mode", rc.gradient_mode),
        (
            "resistance_functional",
            "total" if rc.gradient_mode == "coupled" else "decoupled_surrogate",
        ),
    ]
    for name, value in zip(labels, traj.final_state):
        fields.append((f"final.{name}", float(value)))
    fields += [
        ("final.R", float(traj.R_values[-1])),
        ("final.Psi", float(traj.Psi_values[-1])),
        ("R_star", r_star),
        ("R_gap", float(report.r_gap)),
        ("alpha_hat", report.alpha_hat),
        ("dissipation_violations", report.violations),
        ("psi_integral", report.psi_integral),
        ("max_clip", traj.max_clip),
    ]
    for kind in EVENT_KINDS:
        fields.append((f"events.{kind}", counts.get(kind, 0)))
    return fields


def _initial_state(rc: RunConfig, which: str = "x0") -> np.ndarray:
    vec = getattr(rc, which)
    if vec is not None:
        return vec
    rng = np.random.default_rng(rc.seed if which == "x0" else rc.seed + 1)
    box = rc.box
    return box.lo + rng.random(box.dim) * (box.hi - box.lo)


def cmd_simulate(args) -> int:
    rc = _load(args)
    out = _out_dir(rc, args)
    x0 = _initial_state(rc)
    traj = integrate(rc.mode, rc.costs, rc.cfg, rc.box, x0, rc.t_end, rc.h, rc.options)
    _trajectory_csv(out / "trajectory.csv", traj, rc.costs.p)
    write_config(_summary_fields(rc, traj), out / "summary.txt")
    return 0


def cmd_certify(args) -> int:
    rc = _load(args)
    if isinstance(rc.mode, SignDescent):
        raise ConfigError("certify requires mode.kind = projected_gradient")
    out = _out_dir(rc, args)
    cert = _certificate(rc)
    x0 = _initial_state(rc)
    traj = integrate(rc.mode, rc.costs, rc.cfg, rc.box, x0, rc.t_end, rc.h, rc.options)
    report = analysis.dissipation_report(traj, r_star=_r_star(rc))
    dissipation_pass = report.violations == 0 and report.alpha_hat > 0.0
    fields: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("contraction_pass", cert.passed),
        ("dissipation_pass", dissipation_pass),
        ("overall_pass", cert.passed and dissipation_pass),
        ("samples", cert.samples),
        ("generator", cert.generator),
        ("seed", cert.seed),
        ("gradient_mode", cert.gradient_mode),
        ("mobility_m", cert.mobility_m),
        ("nu_estimate", cert.nu_estimate),
        ("worst_mu", cert.worst_mu),
        ("curvature_lambda", cert.curvature_lambda),
        ("margin", cert.margin),
        ("subbox_lo", list(cert.subbox_lo)),
        ("subbox_hi", list(cert.subbox_hi)),
        ("alpha_hat", report.alpha_hat),
        ("dissipation_violations", report.violations),
        ("psi_integral", report.psi_integral),
        ("R_gap", float(report.r_gap)),
        ("witness_count", len(cert.witnesses)),
    ]
    for i, w in enumerate(cert.witnesses):
        fields.append((f"witness_{i}", list(w)))
    write_config(fields, out / "certificate.txt")
    return 0 if cert.passed and dissipation_pass else 1


def cmd_converge(args) -> int:
    rc = _load(args)
    out = _out_dir(rc, args)
    x0 = _initial_state(rc, "x0")
    x1 = _initial_state(rc, "x1")
    pair = two_trajectory_run(rc.mode, rc.costs, rc.cfg, rc.box, x0, x1, rc.t_end, rc.h, rc.options)
    fields: list[tuple[str, object]] = [("schema_version", SCHEMA_VERSION)]
    degenerate = not np.any(pair.separation > 1e-14)
    fields.append(("degenerate", degenerate))
    if degenerate:
        fields += [("rate", 0.0), ("prefactor", 0.0), ("r_squared", 0.0)]
    else:
        try:
            fit = analysis.fit_rate(pair.times, pair.separation)
        except DegenerateFitError as exc:
            write_config(fields + [("error", str(exc))], out / "convergence.txt")
            print(f"converge: degenerate fit: {exc}", file=sys.stderr)
            return 1
        fields += [
            ("rate", fit.rate),
            ("prefactor", fit.prefactor),
            ("r_squared", fit.r_squared),
            ("window_lo", fit.window[0]),
            ("window_hi", fit.window[1]),
            ("fit_samples", fit.samples),
        ]
        if not isinstance(rc.mode, SignDescent):
            cert = _certificate(rc)
            fields += [
                ("nu_estimate", cert.nu_estimate),
                ("rate_over_nu", fit.rate / cert.nu_estimate if cert.nu_estimate > 0 else ""),
            ]
    fields.append(("separation_initial", float(pair.separation[0])))
    fields.append(("separation_final", float(pair.separation[-1])))
    write_config(fields, out / "convergence.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constructal",
        description="Constructal architecture selection via Filippov dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("table", cmd_table),
        ("simulate", cmd_simulate),
        ("certify", cmd_certify),
        ("converge", cmd_converge),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ConstructalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
