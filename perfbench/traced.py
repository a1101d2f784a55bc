"""Run one benchmark operation with spans around the program's public calls.

    python3 perfbench/traced.py SPANS cli ARGS...        # constructal.cli ARGS
    python3 perfbench/traced.py SPANS ensemble ARGS...   # ensemble_op.py ARGS

Each public function is replaced where its caller looks it up (module
attribute or name bound at import), so the program itself is unchanged.
Every call becomes a span: name, parent span, start and end.  Spans are
kept in flat arrays in memory and written to SPANS (``numpy.savez``) when
the operation ends, together with the step and event counts of each
trajectory the dynamics layer returned and the certificate sample count.
The exit code is the operation's.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array


class Recorder:
    """Flat in-memory span store; a span's parent is the innermost open one."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.trajectories: list[dict] = []
        self.counters: dict[str, int] = {}

    def wrap(self, owner, attr: str, name: str, rows=None, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper; an absent
        attribute is skipped so that a refactored program still runs."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        name_a, parent_a, rows_a = self.name.append, self.parent.append, self.rows.append
        start_a, end_a, end = self.start.append, self.end.append, self.end

        def traced(*args, **kwargs):
            idx = len(end)
            name_a(nid)
            parent_a(stack[-1] if stack else -1)
            rows_a(rows(args, kwargs) if rows else 1)
            end_a(0.0)
            stack.append(idx)
            start_a(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def record_trajectory(self, traj) -> None:
        kinds: dict[str, int] = {}
        fallbacks = 0
        for ev in traj.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            fallbacks += ev.kind == "SlideExit" and ev.index == -1
        self.trajectories.append(
            {
                "steps": int(traj.times.size - 1),
                "sim_time": float(traj.times[-1]),
                "events": kinds,
                "slide_fallbacks": int(fallbacks),
            }
        )

    def record_paired(self, pair) -> None:
        self.record_trajectory(pair.first)
        self.record_trajectory(pair.second)

    def record_ensemble(self, res) -> None:
        self.trajectories.append(
            {
                "steps": int(res.times.size - 1),
                "sim_time": float(res.times[-1]),
                "events": {},
                "slide_fallbacks": 0,
            }
        )

    def record_certificate(self, cert) -> None:
        key = "analysis.certify_contraction.samples"
        self.counters[key] = self.counters.get(key, 0) + int(cert.samples)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rows=np.frombuffer(self.rows, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({"trajectories": self.trajectories, "counters": self.counters})),
        )


def _state_rows(args, kwargs) -> int:
    X = args[2] if len(args) > 2 else kwargs.get("X")
    return X.shape[0] if getattr(X, "ndim", 1) == 2 else 1


def install_model_spans(rec: Recorder) -> None:
    """Spans on the model and cone calls made by the dynamics layer."""
    from constructal import dynamics, hierarchy

    rec.wrap(hierarchy, "gradient_vec", "hierarchy.gradient_vec", rows=_state_rows)
    rec.wrap(hierarchy, "grad_jacobian", "hierarchy.grad_jacobian")
    rec.wrap(hierarchy, "resistance_lyapunov_vec", "hierarchy.resistance_lyapunov_vec")
    rec.wrap(dynamics, "kkt_residual", "cones.kkt_residual")
    rec.wrap(dynamics, "tangent_project_batch", "cones.tangent_project_batch")


def run_cli(rec: Recorder, argv: list[str]) -> int:
    from constructal import analysis, cli

    install_model_spans(rec)
    rec.wrap(cli, "load_config", "config.load_config")
    rec.wrap(cli, "integrate", "dynamics.integrate", on_result=rec.record_trajectory)
    rec.wrap(cli, "two_trajectory_run", "dynamics.two_trajectory_run", on_result=rec.record_paired)
    for fname in getattr(analysis, "__all__", ()):
        if inspect.isfunction(getattr(analysis, fname, None)):
            on_result = rec.record_certificate if fname == "certify_contraction" else None
            rec.wrap(analysis, fname, f"analysis.{fname}", on_result=on_result)
    rec.wrap(cli, "main", "cli.main")
    return cli.main(argv)


def run_ensemble(rec: Recorder, argv: list[str]) -> int:
    from constructal import config, dynamics

    install_model_spans(rec)
    rec.wrap(config, "load_config", "config.load_config")
    rec.wrap(dynamics, "integrate_ensemble", "dynamics.integrate_ensemble", on_result=rec.record_ensemble)
    import ensemble_op  # next to this script, so on sys.path

    return ensemble_op.main(argv)


def main(argv: list[str]) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    rec = Recorder()
    run = {"cli": run_cli, "ensemble": run_ensemble}[kind]
    try:
        return run(rec, rest)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
