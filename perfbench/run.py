"""Benchmark of the constructal batch tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: the program is imported from ``src/``
and the shipped configs are read from ``configs/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones; names and
units are those of ``BENCHMARK.json``.

The load is a closed loop with one client: every operation is a fresh
Python process, started only after the previous one has exited, because a
CLI user pays interpreter start-up and imports on every call.  The seed
only shapes the inputs (initial states and the certificate's Sobol seed);
the program sees nothing but the generated configs and state files.

Workloads and why each was chosen:

canonical
    Everything on the canonical ladder under projected gradient:
    ``simulate`` then ``certify`` on canonical.cfg, then the ensemble
    operation.  The stiff projected-gradient problem (Jacobian eigenvalues
    0.5 to 1024 at x*) under explicit RK4 with step doubling: ~300k scalar
    ``gradient_vec`` calls over ~21k nominal steps, no events, a 10k-point
    certificate and a 2.8 MB trajectory.csv.  The ensemble operation runs
    ``integrate_ensemble`` on 64 seeded interior states (+-30 % around x*),
    horizon 16, h = 4e-3, in a process that imports ``constructal`` but not
    the CLI (so no ``scipy.stats``): the batched (N, d) model path,
    ``tangent_project_batch`` and the ensemble copy of the step-doubling
    loop, with no events and no reports.  Model, integrator, certificate
    and batched-path work shows here.
sliding_cli
    ``simulate`` on equivalent_control.cfg and signdescent.cfg.  Sign
    descent spends its time in the per-evaluation sliding solve
    (``grad_jacobian`` plus a 5x5 solve) and in boundary-layer monitors;
    the only workload with SlideEnter events and bisection event
    location, and with no certificate.  A projected-gradient-only change
    should read flat here.

There are two workloads, not more, so that each run can be long: on a
shared 2-vCPU host the speed of the program drifted by 10 to 30 % over
tens of seconds to minutes, and only a long run averages that out.

Initial states of the CLI workloads are the shipped x0 with every
coordinate scaled by a seeded factor in [1 - s, 1 + s], s = X0_SPREAD of
the config, and clipped to the box.  The work of a run may move by a few
percent from seed to seed, not more, or it hides the run-to-run changes
the bounds must catch.  canonical and equivalent_control stop on
convergence, and when they converge depends on x0: canonical at +-20 %
varied by more than +-25 % in work, at +-5 % by +-2.5 % (eight seeds);
equivalent_control at +-5 % made 49k to 72k ``grad_jacobian`` calls over
eleven seeds, at +-1 % 57k to 60k over eighteen.  signdescent at +-5 %
converged early on 3 seeds of 15 (at t = 5.3 to 11.4 of 14, with 38 to
81 % of the work), and at +-1 % on most seeds.  So EXTRA gives it a
convergence tolerance that no run reaches: it always integrates to t_end,
with 225k ``gradient_vec`` calls.

End-to-end metrics (``--trace 0``, tracing off):

wall_s       time from the first operation's spawn to the last one's exit
             in one pass over the workload's operations, which run one
             after the other: the sum over the operations of each one's
             median wall time over the run's iterations.  Taking the median
             per operation, not per iteration, keeps a slow spell on a
             shared host that hits one operation of an iteration out of
             the result.  Iterations run until ``--seconds`` is reached,
             give or take half an iteration, and at least twice.
setup_s      median over five fresh interpreters (Shape.setup_repeats) of
             the time to import ``constructal.cli`` and run ``load_config``.
peak_rss_mb  largest max-RSS of any process the run started.
pass_ratio   operations that passed the correctness gate over operations
             attempted.  (A failure ratio would read 0 on a healthy run.)

Correctness gate: an operation fails on an unexpected exit code, a
traceback on stderr, a NaN or inf anywhere in its output files,
``dissipation_violations > 0`` or ``max_clip > 0``, ``overall_pass =
false`` from certify, a converged run or an ensemble state farther from
``hierarchy.optimum_state`` than CONVERGED_TOL or ENSEMBLE_TOL (largest
relative coordinate deviation), or output files that are not
byte-identical to the first run of the same operation with the same
seed.  signdescent, which never converges here, ends 0.2 to 3 % away from
x* at t_end and gets no distance check.  Failed operations are counted,
never dropped or re-run.

The traced run (``--trace 1``) runs one iteration untraced and one through
``traced.py``, which records a span around each public call into the
program; per-layer times, counts and the tracing overhead are derived from
those spans, ``python -X importtime`` and ``micro.py``.  A layer that a
workload does not exercise reads 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"
ENTRY = "constructal.cli"  # module a CLI user imports; set-up times it

X0_SPREAD = {"canonical": 0.05, "equivalent_control": 0.01, "signdescent": 0.05}
EXTRA = {"signdescent": {"tol.converge": "1e-300"}}  # settings added to a config
ENSEMBLE_SPREAD = 0.3
ENSEMBLE_HORIZON = 16.0
ENSEMBLE_H = 4e-3
CONVERGED_TOL = 1e-4
ENSEMBLE_TOL = 1e-3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
EVENT_KINDS = ("SwitchCross", "SlideEnter", "SlideExit", "BoundaryContact", "BoundaryRelease")
NONFINITE = re.compile(rb"\b(?:nan|inf)\b", re.IGNORECASE)
TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Shape:
    """Problem sizes of a run; the self-test uses a shortened one."""

    t_end: float | None = None  # None keeps each config's run.t_end
    sampling_count: int | None = None  # None keeps sampling.count
    ensemble_states: int = 64
    setup_repeats: int = 5


FULL = Shape()


class Deadline(Exception):
    """The run reached DEADLINE_S; remaining operations are not attempted."""


@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float


@dataclass
class Op:
    """One program invocation and the checks on what it writes."""

    name: str
    kind: str  # "cli": python -m constructal.cli; "ensemble": ensemble_op.py
    argv: list[str]
    out: Path
    outputs: tuple[str, ...]
    check: Callable[[Path], str | None]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {reason}")


class Runner:
    """Spawns program processes one at a time under the run's deadline."""

    def __init__(self) -> None:
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def spawn(self, cmd: list[str]) -> Proc:
        t0 = time.perf_counter()
        if t0 >= self.deadline:
            raise Deadline()
        try:
            cp = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=self.deadline - t0
            )
        except subprocess.TimeoutExpired as exc:
            raise Deadline() from exc
        return Proc(cp.returncode, cp.stdout, cp.stderr, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _fmt_list(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def derive_config(name: str, seed: int, index: int, shape: Shape, work: Path) -> Path:
    """Shipped config ``name`` with a seeded x0, its EXTRA settings and the
    shape's overrides."""
    import numpy as np
    from constructal.config import load_config

    shipped = CONFIGS / f"{name}.cfg"
    rc = load_config(shipped)
    rng = np.random.default_rng([seed, index])
    spread = X0_SPREAD[name]
    x0 = rc.x0 * (1.0 + rng.uniform(-spread, spread, rc.x0.size))
    overrides = {"run.x0": _fmt_list(np.clip(x0, rc.box.lo, rc.box.hi)), **EXTRA.get(name, {})}
    if shape.t_end is not None:
        overrides["run.t_end"] = repr(shape.t_end)
    if shape.sampling_count is not None:
        overrides["sampling.count"] = str(shape.sampling_count)
    lines = []
    for line in shipped.read_text(encoding="utf-8").splitlines():
        key = line.split("=", 1)[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path = work / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def optimum(cfg_path: Path):
    from constructal import hierarchy as hm
    from constructal.config import load_config

    rc = load_config(cfg_path)
    return hm.optimum_state(rc.costs, rc.cfg).vector()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def read_report(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {kv[0]: kv[1] for kv in pairs if len(kv) == 2}


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.strip("[]").split(",")]


def _deviation(x, x_opt) -> float:
    return max(abs(a - b) / abs(b) for a, b in zip(x, x_opt))


def check_summary(x_opt) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        rep = read_report(out / "summary.txt")
        if int(rep["dissipation_violations"]) > 0:
            return f"dissipation_violations = {rep['dissipation_violations']}"
        if float(rep["max_clip"]) > 0.0:
            return f"max_clip = {rep['max_clip']}"
        if rep["converged"] == "true":
            final = [float(v) for k, v in rep.items() if k.startswith("final.")
                     and k not in ("final.R", "final.Psi")]
            dev = _deviation(final, x_opt)
            if dev > CONVERGED_TOL:
                return f"converged {dev:.3g} away from the optimum"
        return None

    return check


def check_certificate(out: Path) -> str | None:
    rep = read_report(out / "certificate.txt")
    if rep["overall_pass"] != "true":
        return "overall_pass = false"
    if int(rep["dissipation_violations"]) > 0:
        return f"dissipation_violations = {rep['dissipation_violations']}"
    return None


def check_ensemble(x_opt, states: int) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        rep = read_report(out / "ensemble.txt")
        if float(rep["max_clip"]) > 0.0:
            return f"max_clip = {rep['max_clip']}"
        if int(rep["states"]) != states:
            return f"{rep['states']} final states for {states} initial ones"
        dev = max(_deviation(_floats(rep[f"final_{i}"]), x_opt) for i in range(states))
        if dev > ENSEMBLE_TOL:
            return f"ensemble state {dev:.3g} away from the optimum"
        return None

    return check


def check_process(proc: Proc) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-300:]!r}"
    if TRACEBACK in proc.stderr:
        return "traceback on stderr"
    return None


def gate(op: Op, proc: Proc) -> tuple[str | None, dict[str, str]]:
    """Failure reason (None when the op passed) and digests of its outputs."""
    reason = check_process(proc)
    if reason is not None:
        return reason, {}
    digests = {}
    for name in op.outputs:
        path = op.out / name
        if not path.is_file():
            return f"{name} not written", {}
        data = path.read_bytes()
        if NONFINITE.search(data):
            return f"NaN or inf in {name}", {}
        digests[name] = hashlib.sha256(data).hexdigest()
    try:
        return op.check(op.out), digests
    except (KeyError, ValueError) as exc:
        return f"malformed report: {exc!r}", digests


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs of one workload for one seed, and its operations."""

    def __init__(self, seed: int, shape: Shape, work: Path) -> None:
        self.seed, self.shape, self.work = seed, shape, work
        self.setup_config: Path  # config that set-up timing loads

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def cli_op(self, command: str, cfg: Path, out: Path, outputs, check) -> Op:
        target = out / f"{command}-{cfg.stem}"
        argv = [command, "--config", str(cfg), "--out", str(target), "--seed", str(self.seed)]
        return Op(f"{command}:{cfg.stem}", "cli", argv, target, outputs, check)


class Canonical(Workload):
    def __init__(self, seed, shape, work) -> None:
        import numpy as np
        from constructal.config import load_config

        super().__init__(seed, shape, work)
        self.cfg = self.setup_config = derive_config("canonical", seed, 0, shape, work)
        self.x_opt = optimum(self.cfg)
        box = load_config(self.cfg).box
        rng = np.random.default_rng([seed, 2])
        scale = 1.0 + rng.uniform(-ENSEMBLE_SPREAD, ENSEMBLE_SPREAD,
                                  (shape.ensemble_states, self.x_opt.size))
        states = np.clip(self.x_opt * scale, box.lo, box.hi)
        self.states = work / "states.json"
        self.states.write_text(json.dumps(states.tolist()), encoding="utf-8")

    def ops(self, out: Path) -> list[Op]:
        target = out / "ensemble"
        target.mkdir(parents=True, exist_ok=True)
        argv = [str(self.cfg), str(self.states), repr(ENSEMBLE_HORIZON),
                repr(ENSEMBLE_H), str(target / "ensemble.txt")]
        return [
            self.cli_op("simulate", self.cfg, out, ("trajectory.csv", "summary.txt"),
                        check_summary(self.x_opt)),
            self.cli_op("certify", self.cfg, out, ("certificate.txt",), check_certificate),
            Op("ensemble", "ensemble", argv, target, ("ensemble.txt",),
               check_ensemble(self.x_opt, self.shape.ensemble_states)),
        ]


class SlidingCli(Workload):
    def __init__(self, seed, shape, work) -> None:
        super().__init__(seed, shape, work)
        self.cfgs = [
            derive_config(name, seed, i, shape, work)
            for i, name in enumerate(("equivalent_control", "signdescent"))
        ]
        self.setup_config = self.cfgs[0]

    def ops(self, out: Path) -> list[Op]:
        return [
            self.cli_op("simulate", cfg, out, ("trajectory.csv", "summary.txt"),
                        check_summary(optimum(cfg)))
            for cfg in self.cfgs
        ]


WORKLOADS: dict[str, type[Workload]] = {
    "canonical": Canonical,
    "sliding_cli": SlidingCli,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def command(op: Op, spans: Path | None = None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "traced.py"), str(spans), op.kind, *op.argv]
    if op.kind == "cli":
        return [sys.executable, "-m", "constructal.cli", *op.argv]
    return [sys.executable, str(HERE / "ensemble_op.py"), *op.argv]


class Iterations:
    """Runs a workload's operations and gates them against the first run."""

    def __init__(self, runner: Runner, workload: Workload, tally: Tally) -> None:
        self.runner, self.workload, self.tally = runner, workload, tally
        self.digests: dict[str, dict[str, str]] = {}
        self.count = 0
        self.bytes_written = 0  # CLI output bytes of the latest iteration
        self.op_seconds: dict[str, list[float]] = defaultdict(list)  # untraced runs

    def run(self, traced: bool = False) -> tuple[float, list[Path]]:
        """One iteration; returns its wall time and the span files written."""
        out = self.workload.work / f"it{self.count}"
        self.count += 1
        ops = self.workload.ops(out)
        spans = [out / f"spans-{i}.npz" if traced else None for i in range(len(ops))]
        procs = []
        t0 = time.perf_counter()
        try:
            for op, span in zip(ops, spans):
                procs.append(self.runner.spawn(command(op, span)))
        finally:
            wall = time.perf_counter() - t0
            self.bytes_written = 0
            for op, proc in zip(ops, procs):
                if not traced:
                    self.op_seconds[op.name].append(proc.seconds)
                reason, digests = gate(op, proc)
                if reason is None and digests != self.digests.setdefault(op.name, digests):
                    reason = "outputs differ from the first run with this seed"
                self.tally.record(op.name, reason)
                if op.kind == "cli":
                    self.bytes_written += sum((op.out / f).stat().st_size for f in digests)
        return wall, [s for s in spans if s is not None and s.is_file()]


def setup_seconds(runner: Runner, workload: Workload, tally: Tally) -> float:
    code = (f"import sys, {ENTRY}\n"
            "from constructal.config import load_config\n"
            "load_config(sys.argv[1])")
    times = []
    for _ in range(workload.shape.setup_repeats):
        proc = runner.spawn([sys.executable, "-c", code, str(workload.setup_config)])
        tally.record("setup", check_process(proc))
        times.append(proc.seconds)
    return statistics.median(times)


def end_to_end(runner: Runner, workload: Workload, seconds: float, tally: Tally) -> dict:
    setup = setup_seconds(runner, workload, tally)
    its = Iterations(runner, workload, tally)
    t0 = time.perf_counter()
    while True:
        wall = its.run()[0]
        print(f"iteration {its.count}: {wall:.3f} s", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        per_iteration = elapsed / its.count
        if its.count >= 2 and (elapsed + per_iteration / 2 > seconds
                               or time.perf_counter() + per_iteration > runner.deadline):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": sum(statistics.median(v) for v in its.op_seconds.values()),
        "setup_s": setup,
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def import_times(runner: Runner, tally: Tally) -> dict:
    """``-X importtime`` of ENTRY, medians over IMPORT_REPEATS."""
    code = f"import {ENTRY}, constructal.config"
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = runner.spawn([sys.executable, "-X", "importtime", "-c", code])
        tally.record("importtime", check_process(proc))
        cumulative: dict[str, int] = {}
        total = 0
        for line in proc.stderr.decode(errors="replace").splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
            if not m:
                continue
            us, indent, module = int(m.group(1)), m.group(2), m.group(3)
            cumulative.setdefault(module, us)
            if not indent and module.startswith("constructal"):
                total += us
        samples["import.total_s"].append(total * 1e-6)
        samples["import.numpy_s"].append(cumulative.get("numpy", 0) * 1e-6)
        samples["import.scipy_stats_s"].append(cumulative.get("scipy.stats", 0) * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def micro(runner: Runner, tally: Tally) -> dict:
    proc = runner.spawn([sys.executable, str(HERE / "micro.py"), str(CONFIGS / "canonical.cfg")])
    reason = check_process(proc)
    tally.record("micro", reason)
    if reason is not None:
        return {}
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def span_totals(files: list[Path]) -> tuple[dict[str, float], list[dict], dict[str, int]]:
    """Per span name: calls, rows, busy and self time, and the calls and rows
    made under a dynamics span; plus the trajectories and result counters
    the tracer recorded."""
    import numpy as np

    totals: dict[str, float] = defaultdict(int)
    trajectories: list[dict] = []
    counters: dict[str, int] = defaultdict(int)
    for path in files:
        with np.load(path) as d:
            names = [str(n) for n in d["names"]]
            name, parent, rows = d["name"], d["parent"], d["rows"].astype(np.int64)
            dur = d["end"] - d["start"]
            meta = json.loads(str(d["meta"]))
        trajectories += meta["trajectories"]
        for k, v in meta["counters"].items():
            counters[k] += v
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        is_dyn = np.array([n.startswith("dynamics.") for n in names])
        in_dyn = np.zeros(dur.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            in_dyn[live] |= is_dyn[name[anc[live]]]
            anc[live] = parent[anc[live]]
        for i, n in enumerate(names):
            sel = name == i
            totals[f"{n}.calls"] += int(np.count_nonzero(sel))
            totals[f"{n}.rows"] += int(rows[sel].sum())
            totals[f"{n}.busy_s"] += float(dur[sel].sum())
            totals[f"{n}.self_s"] += float((dur - child)[sel].sum())
            totals[f"{n}.calls_in_dynamics"] += int(np.count_nonzero(sel & in_dyn))
            totals[f"{n}.rows_in_dynamics"] += int(rows[sel & in_dyn].sum())
    return totals, trajectories, counters


def per_layer(runner: Runner, workload: Workload, tally: Tally) -> dict:
    metrics = import_times(runner, tally)
    metrics.update(micro(runner, tally))
    its = Iterations(runner, workload, tally)
    plain_wall, _ = its.run()
    traced_wall, files = its.run(traced=True)
    t, trajectories, counters = span_totals(files)
    steps = sum(tr["steps"] for tr in trajectories)
    events = defaultdict(int)
    for tr in trajectories:
        for kind, n in tr["events"].items():
            events[kind] += n

    def per_step(v: float) -> float:
        return v / steps if steps else 0.0

    metrics.update({
        "config.load_config.busy_s": t["config.load_config.busy_s"],
        "hierarchy.gradient_vec.calls": t["hierarchy.gradient_vec.calls"],
        "hierarchy.gradient_vec.rows": t["hierarchy.gradient_vec.rows"],
        "hierarchy.gradient_vec.busy_s": t["hierarchy.gradient_vec.busy_s"],
        "hierarchy.grad_jacobian.calls": t["hierarchy.grad_jacobian.calls"],
        "hierarchy.grad_jacobian.busy_s": t["hierarchy.grad_jacobian.busy_s"],
        "hierarchy.resistance_lyapunov_vec.calls": t["hierarchy.resistance_lyapunov_vec.calls"],
        "cones.kkt_residual.calls": t["cones.kkt_residual.calls"],
        "cones.kkt_residual.busy_s": t["cones.kkt_residual.busy_s"],
        "cones.tangent_project_batch.calls": t["cones.tangent_project_batch.calls"],
        "cones.tangent_project_batch.busy_s": t["cones.tangent_project_batch.busy_s"],
        "dynamics.integrate.busy_s": t["dynamics.integrate.busy_s"],
        "dynamics.integrate.self_s": t["dynamics.integrate.self_s"],
        "dynamics.integrate_ensemble.busy_s": t["dynamics.integrate_ensemble.busy_s"],
        "dynamics.integrate_ensemble.self_s": t["dynamics.integrate_ensemble.self_s"],
        "dynamics.nominal_steps": steps,
        "dynamics.sim_time": sum(tr["sim_time"] for tr in trajectories),
        "dynamics.grad_rows_per_step": per_step(t["hierarchy.gradient_vec.rows_in_dynamics"]),
        "dynamics.jacobians_per_step": per_step(t["hierarchy.grad_jacobian.calls_in_dynamics"]),
        "dynamics.slide_fallbacks": sum(tr["slide_fallbacks"] for tr in trajectories),
        "analysis.certify_contraction.busy_s": t["analysis.certify_contraction.busy_s"],
        "analysis.certify_contraction.samples": counters["analysis.certify_contraction.samples"],
        "analysis.dissipation_report.busy_s": t["analysis.dissipation_report.busy_s"],
        "cli.self_s": t["cli.main.self_s"],
        "cli.bytes_written": its.bytes_written,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    for kind in EVENT_KINDS:
        metrics[f"dynamics.events.{kind}"] = events[kind]
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, shape: Shape = FULL) -> dict:
    """Run one workload and return the result object."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    tally = Tally()
    try:
        workload = WORKLOADS[name](seed, shape, work)
        runner = Runner()
        try:
            if trace:
                values = per_layer(runner, workload, tally)
            else:
                values = end_to_end(runner, workload, seconds, tally)
        except Deadline:
            tally.record("deadline", f"run exceeded {DEADLINE_S} s")
            values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    units = declared_metrics(trace)
    if set(values) != set(units) and not tally.failed:
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "constructal" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"perfbench: no constructal source under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in result.pop("reasons"):
        print(f"FAILED {reason}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
