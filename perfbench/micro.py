"""Model microbenchmarks on the canonical ladder, printed as one JSON object.

    python3 perfbench/micro.py CONFIG

Times scalar ``gradient_vec`` at the config's x0, ``gradient_vec`` on a
batch of 64 rows around it, and ``grad_jacobian`` at x0, each after a
warm-up.  A figure is the median over blocks of the per-call time in
microseconds; a function the model no longer has reads 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from constructal import hierarchy as hm
from constructal.config import load_config

BLOCKS = 15


def per_call_us(fn, args, calls: int) -> float:
    for _ in range(calls):
        fn(*args)
    times = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    rc = load_config(argv[0])
    x = np.asarray(rc.x0, dtype=float)
    batch = x * np.linspace(0.9, 1.1, 64)[:, None]
    mode = rc.gradient_mode
    out = {}
    for name, fn_name, arg, calls in (
        ("hierarchy.gradient_vec.scalar_us", "gradient_vec", x, 2000),
        ("hierarchy.gradient_vec.batch64_us", "gradient_vec", batch, 200),
        ("hierarchy.grad_jacobian.us", "grad_jacobian", x, 1000),
    ):
        fn = getattr(hm, fn_name, None)
        out[name] = per_call_us(fn, (rc.costs, rc.cfg, arg, mode), calls) if fn else 0.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
