"""Check that a revision and the working tree write the same outputs.

    python3 tools/same_outputs.py REV

Extracts ``git archive REV`` to a temporary directory and runs, in that
tree and in this one, the 16 CLI invocations (table, simulate, certify and
converge on each of the four shipped configs: exit code, stdout, stderr and
report files) and ``perfbench/ensemble_op.py`` on 64 seeded canonical
states (x* scaled by factors in [0.7, 1.3], clipped to the box, t_end 16,
h 4e-3).  Then ``diff -r`` compares the two result trees.  Exits 0 only
when they are identical, and prints the differences otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("table", "simulate", "certify", "converge")
ENSEMBLE = {"states": 64, "spread": 0.3, "t_end": 16.0, "h": 4e-3, "seed": 1}


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


def run(tree: Path, argv: list[str], result: Path) -> None:
    """argv run with the package of ``tree``, from its root; exit code,
    stdout and stderr go to ``result``."""
    result.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    (result / "exit").write_text(f"{done.returncode}\n", encoding="utf-8")
    (result / "stdout").write_bytes(done.stdout)
    (result / "stderr").write_bytes(done.stderr)


def outputs(tree: Path, states: Path, result: Path) -> None:
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for command in COMMANDS:
            target = result / f"{command}-{cfg.stem}"
            argv = ["-m", "constructal.cli", command, "--config", f"configs/{cfg.name}",
                    "--out", str(target / "out")]
            run(tree, argv, target)
    target = result / "ensemble"
    argv = ["perfbench/ensemble_op.py", "configs/canonical.cfg", str(states),
            repr(ENSEMBLE["t_end"]), repr(ENSEMBLE["h"]), str(target / "ensemble.txt")]
    run(tree, argv, target)


def main(argv: list[str]) -> int:
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
        for label, tree in (("rev", base), ("tree", ROOT)):
            outputs(tree, states, work / "results" / label)
        diff = subprocess.run(["diff", "-r", "rev", "tree"], cwd=work / "results",
                              capture_output=True, text=True)
        print(diff.stdout + diff.stderr, end="")
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
