"""Ensemble operation of the benchmark: one batched projected-gradient run.

    python3 perfbench/ensemble_op.py CONFIG STATES T_END H OUT

Loads CONFIG with ``load_config``, integrates the states in STATES (a JSON
list of state vectors) with ``integrate_ensemble`` to T_END with nominal
step H, and writes a byte-stable report to OUT: ``key = value`` lines with
floats in their shortest round-trip form.  The package is imported as
``constructal``; no CLI module (and so no ``scipy.stats``) is loaded.
"""

from __future__ import annotations

import json
import sys

from constructal import config, dynamics


def _fmt(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def main(argv: list[str]) -> int:
    cfg_path, states_path, t_end, h, out_path = argv
    rc = config.load_config(cfg_path)
    with open(states_path, encoding="utf-8") as fh:
        states = json.load(fh)
    res = dynamics.integrate_ensemble(
        rc.mode, rc.costs, rc.cfg, rc.box, states, float(t_end), float(h), rc.options
    )
    lines = [
        f"states = {len(res.final_states)}",
        f"steps = {res.times.size - 1}",
        f"t_final = {float(res.times[-1])!r}",
        f"max_clip = {float(res.max_clip)!r}",
        f"R_final = {_fmt(res.R_values[:, -1])}",
        f"Psi_final = {_fmt(res.Psi_values[:, -1])}",
    ]
    lines += [f"final_{i} = {_fmt(x)}" for i, x in enumerate(res.final_states)]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
