"""Check that a revision and the working tree write the same outputs.

    python3 tools/same_outputs.py REV

Extracts ``git archive REV`` to a temporary directory and runs, in that
tree and in this one, the 16 CLI invocations (table, simulate, certify and
converge on each of the four shipped configs: exit code, stdout, stderr and
report files), a simulate run that fails (``canonical.cfg`` with
``mode.mobility = 1e300``, written to the temporary directory: its first
step underflows, so it exits 1 with "error: integration failed at t=0:
substep size underflow ..." on stderr and writes no report),
``perfbench/ensemble_op.py`` on 64 seeded canonical states
(x* scaled by factors in [0.7, 1.3], clipped to the box, t_end 16, h 4e-3)
and a seeded sweep with a family of saturating equivalent-control runs,
a long coupled one that holds box faces and coupled runs on deep halving
ladders (see :func:`sweep`).  Then ``diff -r`` compares the two result
trees.  Exits 0 only when they are identical, and prints the differences
and every sweep case that moved (its trajectories, its events or both)
otherwise.  With REV = HEAD on a clean checkout, any difference is
non-determinism.

    python3 tools/same_outputs.py --sweep OUT

writes the sweep's digests, computed with the package on PYTHONPATH, to
OUT; the comparison runs it so in each tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("table", "simulate", "certify", "converge")
ENSEMBLE = {"states": 64, "spread": 0.3, "t_end": 16.0, "h": 4e-3, "seed": 1}
SWEEP = {"seeds": 40, "depths": 6, "faces": 0.3, "single": (3.0, 1e-2), "ensemble": (1.5, 1e-2), "rows": 4}
# canonical ladder, gains under which coupled equivalent control saturates n_3's sliding
SATURATION = {"K": (1.0, 0.5, 0.25, 0.125), "eta": (2.4, 4.2, 3.4), "zeta": (0.7, 1.06),
              "x0": (0.51, 1.06, 0.42, 6.9, 6.6), "rows": 8, "spread": 0.05, "seed": 0, "run": (4.0, 1e-2)}
# canonical ladder, box states from which coupled equivalent control holds n_2 on its face and slides n_3
FACE_HOLDS = {"K": (1.0, 0.5, 0.25, 0.125), "rows": 16, "seed": 5, "run": (100.0, 0.1)}
# halving ladders K_k = 2^-k on which coupled equivalent control tries steps to non-finite states
DEEP_LADDERS = {"depths": (14, 27), "start": 1.2, "run": (30.0, 1e-2)}
STIFF_MOBILITY = "1e300"  # canonical.cfg with this mobility stops on a substep underflow at t = 0


def ensemble_states(path: Path) -> None:
    """The seeded canonical states, computed with this tree's model."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from constructal import hierarchy as hm
    from constructal.config import load_config

    rc = load_config(ROOT / "configs" / "canonical.cfg")
    x_opt = hm.optimum_state(rc.costs, rc.cfg).vector()
    rng = np.random.default_rng([ENSEMBLE["seed"], 2])
    scale = 1.0 + rng.uniform(-ENSEMBLE["spread"], ENSEMBLE["spread"], (ENSEMBLE["states"], x_opt.size))
    path.write_text(json.dumps(np.clip(x_opt * scale, rc.box.lo, rc.box.hi).tolist()), encoding="utf-8")


def stiff_config(path: Path) -> None:
    """This tree's canonical.cfg with the mobility set to STIFF_MOBILITY."""
    text = (ROOT / "configs" / "canonical.cfg").read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^mode\.mobility = .*$", f"mode.mobility = {STIFF_MOBILITY}", text)
    if count != 1:
        raise SystemExit("canonical.cfg has no single mode.mobility line")
    path.write_text(text, encoding="utf-8")


def sweep(path: Path) -> None:
    """One digest line per case of the seeded sweep: for each seed s < 40 a
    random ladder of depth p = 1 + s mod 6 (K_0 = 1, each next cost a
    factor in [0.3, 0.9] below the last) and five states uniform in its
    box, 30 % of whose coordinates are put on a face; then, under each law
    (projected gradient, boundary-layer and equivalent-control sign
    descent) in each gradient mode, a single run from the first state
    (t_end 3, h 1e-2) and an ensemble of the other four (t_end 1.5,
    h 1e-2).  Then the saturation family, in each gradient mode: under
    equivalent control with SATURATION's gains, a single run from its x0
    and an ensemble of 8 states x0 (1 + U(-0.05, 0.05)) clipped to the box
    (t_end 4, h 1e-2, no convergence stop).  Then the face-hold family:
    coupled equivalent control on the canonical ladder, a single run from
    the first of 16 states uniform in its box and an ensemble of all 16
    (t_end 100, h 0.1).  Then the deep-ladder family: coupled equivalent
    control on the halving ladders K_k = 2^-k of depth p = 14 and 27, a
    single run from 1.2 x* clipped to the box (t_end 30, h 1e-2), whose
    trial steps reach non-finite states; its lines have "-" for the
    ensemble.  Each outcome is two digests, a tab apart: the trajectory's
    (every array, the status and max_clip of the result) and the events',
    or twice the error a run raised."""
    import numpy as np

    from constructal import (AssemblyConfig, IntegrationOptions, ProjectedGradient, SignDescent,
                             TransportCosts, integrate, integrate_ensemble, optimum_state, state_box)
    from constructal.errors import ConstructalError

    def digests(result) -> str:
        h = hashlib.sha256()
        for name in ("times", "states", "final_states", "R_values", "Psi_values", "regime_masks"):
            if hasattr(result, name):
                h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
        h.update(repr((getattr(result, "status", None), result.max_clip)).encode())
        events = hashlib.sha256(repr(result.events).encode())
        return f"{h.hexdigest()[:16]}\t{events.hexdigest()[:16]}"

    def outcome(call) -> str:
        try:
            return digests(call())
        except ConstructalError as exc:  # a failing case is an outcome too
            error = f"{type(exc).__name__}: {exc}".replace("\n", " ")
            return f"{error}\t{error}"

    lines = []
    for seed in range(SWEEP["seeds"]):
        rng = np.random.default_rng(seed)
        p = 1 + seed % SWEEP["depths"]
        K = np.cumprod(np.concatenate([[1.0], rng.uniform(0.3, 0.9, p)]))
        costs = TransportCosts(K=tuple(float(k) for k in K))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        X = box.lo + rng.random((1 + SWEEP["rows"], box.dim)) * (box.hi - box.lo)
        face = rng.random(X.shape)
        X = np.where(face < SWEEP["faces"] / 2, box.lo, np.where(face < SWEEP["faces"], box.hi, X))
        for gmode in ("decoupled", "coupled"):
            laws = {"projected_gradient": ProjectedGradient(gradient_mode=gmode),
                    "boundary_layer": SignDescent(gradient_mode=gmode),
                    "equivalent_control": SignDescent(sliding="equivalent_control", gradient_mode=gmode)}
            for law, mode in laws.items():
                single, ensemble = map(outcome, (
                    lambda: integrate(mode, costs, cfg, box, X[0], *SWEEP["single"]),
                    lambda: integrate_ensemble(mode, costs, cfg, box, X[1:], *SWEEP["ensemble"])))
                lines.append(f"{law}-{gmode}-p{p}-s{seed}\t{single}\t{ensemble}\n")
    costs = TransportCosts(K=SATURATION["K"])
    cfg = AssemblyConfig.bejan(costs)
    box = state_box(costs, cfg)
    x0 = np.array(SATURATION["x0"])
    spread, rng = SATURATION["spread"], np.random.default_rng(SATURATION["seed"])
    X = box.clip(x0 * (1.0 + rng.uniform(-spread, spread, (SATURATION["rows"], x0.size))))
    opts = IntegrationOptions(stop_on_convergence=False)
    for gmode in ("decoupled", "coupled"):
        mode = SignDescent(eta=SATURATION["eta"], zeta=SATURATION["zeta"], sliding="equivalent_control",
                           gradient_mode=gmode)
        single, ensemble = map(outcome, (
            lambda: integrate(mode, costs, cfg, box, x0, *SATURATION["run"], opts),
            lambda: integrate_ensemble(mode, costs, cfg, box, X, *SATURATION["run"], opts)))
        lines.append(f"saturation-{gmode}\t{single}\t{ensemble}\n")
    costs = TransportCosts(K=FACE_HOLDS["K"])
    cfg = AssemblyConfig.bejan(costs)
    box = state_box(costs, cfg)
    X = box.lo + np.random.default_rng(FACE_HOLDS["seed"]).random((FACE_HOLDS["rows"], box.dim)) * (box.hi - box.lo)
    mode = SignDescent(sliding="equivalent_control", gradient_mode="coupled")
    single, ensemble = map(outcome, (
        lambda: integrate(mode, costs, cfg, box, X[0], *FACE_HOLDS["run"]),
        lambda: integrate_ensemble(mode, costs, cfg, box, X, *FACE_HOLDS["run"])))
    lines.append(f"face-holds-coupled\t{single}\t{ensemble}\n")
    for p in DEEP_LADDERS["depths"]:
        costs = TransportCosts(K=tuple(0.5 ** k for k in range(p + 1)))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        x0 = box.clip(DEEP_LADDERS["start"] * optimum_state(costs, cfg).vector())
        single = outcome(lambda: integrate(mode, costs, cfg, box, x0, *DEEP_LADDERS["run"]))
        lines.append(f"deep-ladder-coupled-p{p}\t{single}\t-\t-\n")
    path.write_text("".join(lines), encoding="utf-8")


def run(tree: Path, argv: list[str], result: Path) -> None:
    """argv run with the package of ``tree``, from its root; exit code,
    stdout and stderr go to ``result``."""
    result.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    (result / "exit").write_text(f"{done.returncode}\n", encoding="utf-8")
    (result / "stdout").write_bytes(done.stdout)
    (result / "stderr").write_bytes(done.stderr)


def outputs(tree: Path, states: Path, stiff: Path, result: Path) -> None:
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for command in COMMANDS:
            target = result / f"{command}-{cfg.stem}"
            argv = ["-m", "constructal.cli", command, "--config", f"configs/{cfg.name}",
                    "--out", str(target / "out")]
            run(tree, argv, target)
    target = result / "simulate-stiff"
    run(tree, ["-m", "constructal.cli", "simulate", "--config", str(stiff), "--out", str(target / "out")], target)
    target = result / "ensemble"
    argv = ["perfbench/ensemble_op.py", "configs/canonical.cfg", str(states),
            repr(ENSEMBLE["t_end"]), repr(ENSEMBLE["h"]), str(target / "ensemble.txt")]
    run(tree, argv, target)
    target = result / "sweep"
    run(tree, [str(Path(__file__).resolve()), "--sweep", str(target / "sweep.txt")], target)


def moved_cases(results: Path) -> list[str]:
    """The sweep cases whose digests differ between the two trees, each
    with what moved: its trajectories, its events or both."""
    rev, tree = ((results / label / "sweep" / "sweep.txt") for label in ("rev", "tree"))
    if not (rev.exists() and tree.exists()):
        return []
    moved = []
    for a, b in zip(rev.read_text().splitlines(), tree.read_text().splitlines()):
        a, b = a.split("\t"), b.split("\t")  # case, then (trajectory, events) of single and ensemble
        trajectories, events = (a[i] != b[i] or a[i + 2] != b[i + 2] for i in (1, 2))
        if trajectories or events:
            what = "events only" if not trajectories else "trajectories and events" if events else "trajectories only"
            moved.append(f"{a[0]} ({what})")
    return moved


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--sweep":
        sweep(Path(argv[1]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]],
                                 capture_output=True, check=True)
        base = work / "rev-tree"
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        states = work / "states.json"
        ensemble_states(states)
        stiff = work / "stiff.cfg"
        stiff_config(stiff)
        for label, tree in (("rev", base), ("tree", ROOT)):
            outputs(tree, states, stiff, work / "results" / label)
        diff = subprocess.run(["diff", "-r", "rev", "tree"], cwd=work / "results",
                              capture_output=True, text=True)
        print(diff.stdout + diff.stderr, end="")
        for case in moved_cases(work / "results"):
            print(f"sweep case moved: {case}")
        runs = sorted((work / "results" / "tree").iterdir())
        nonzero = [f"{r.name} {code}" for r in runs if (code := (r / "exit").read_text().strip()) != "0"]
        print(f"{argv[0]} and the working tree: {len(runs)} runs (nonzero exits in the tree: "
              f"{', '.join(nonzero) or 'none'}), "
              + ("identical outputs" if diff.returncode == 0 else "outputs differ"))
        return diff.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
