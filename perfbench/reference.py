"""Reference figures for the ROADMAP baseline rows, as medians of repeats.

    python3 perfbench/reference.py

Each row runs REPEATS times, each time in a fresh interpreter with one BLAS
thread, from the checkout's `src/`:
  fixture      decompose(regular_rep(dihedral(n))) and dihedral_closed_form(n), n = 3..24
  criterion-5  verify_presentation(max_len 6) for the 32 primitive elements, 4 <= q <= 16
  criterion-10 rigidity_check, 200 restarts, seed 0, on the four acceptance configurations
  import       import quandlelab (run.import_seconds, as `init.import_s`)
"""

from __future__ import annotations

import statistics
import sys

from run import child_seconds, import_seconds

REPEATS = 5
ROWS = {
    "fixture": """
for n in range(3, 25):
    ql.decompose(ql.regular_rep(ql.dihedral(n)))
    ql.dihedral_closed_form(n)
""",
    "criterion-5": """
for q in (4, 5, 7, 8, 9, 11, 13, 16):
    F = ql.build_field_q(q)
    for a in ql.primitive_elements(F):
        ql.verify_presentation(F, a, max_len=6)
""",
    "criterion-10": """
for eigs, q, alpha in (((2, 3), 5, 2), ((1, 2, 3), 5, 2), ((2, 3), 7, 3), ((1, 2, 3), 7, 3)):
    spec = ql.JordanSpec(tuple((e, 1) for e in eigs))
    ql.rigidity_check(spec, ql.build_field_q(q), alpha, restarts=200, seed=0)
""",
}


def row_seconds(body: str) -> float:
    return child_seconds(["-c", f"import time, quandlelab as ql\nt = time.perf_counter()\n"
                                f"{body}\nprint(time.perf_counter() - t)\n"])


def main() -> int:
    timers = {name: (lambda body=body: row_seconds(body)) for name, body in ROWS.items()}
    timers["import"] = import_seconds
    for name, timer in timers.items():
        times = [timer() for _ in range(REPEATS)]
        print(f"{name:13s} median {statistics.median(times):7.3f} s  "
              f"min {min(times):7.3f}  max {max(times):7.3f}  ({REPEATS} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
