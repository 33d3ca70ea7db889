#!/usr/bin/env python3
"""Peak resident memory of ``analyze`` stage by stage, at d = 16 and d = 32.

Each run is one fresh interpreter on one BLAS thread
(``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``) that imports
lindscope from this checkout's ``src/``, draws a seeded random model with a
random Hermitian ``H`` and two random complex jumps (every entry nonzero,
so its generator is one sector, formed from the row chunks of its dense
build) and prints its own high-water marks after each stage:

* ``import``: ``import lindscope``;
* ``form``: ``superop._form`` of ``liouvillian(model)``, the generator's
  blocks, which ``compute_metrics`` takes first;
* ``pass``: ``metrics._block_pass`` on those blocks, the rest of
  ``compute_metrics``;
* ``report``: ``structured_dissipator_report(model)``.

The marks are ``getrusage(RUSAGE_SELF).ru_maxrss`` and ``VmHWM`` of
``/proc/self/status`` (``-`` where that file is missing), both in MB of
1024 KiB; each run reads only its own process's counters. On Linux a new
interpreter's ``ru_maxrss`` starts at the high-water mark of the process
that started it, while ``VmHWM`` starts afresh; the runs are started from
this small driver, so the two agree.

It takes no options; run it again for another reading. Usage::

    python scripts/stage_rss.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("import", "form", "pass", "report")
DIMS = (16, 32)
SEED = 7


def _marks() -> tuple[float, float | None]:
    """This process's ``ru_maxrss`` and ``VmHWM``, in MB."""
    import resource

    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return maxrss, int(line.split()[1]) / 1024
    except OSError:
        pass
    return maxrss, None


def _child(d: int) -> None:
    """Run the stages on one model in this process; print one line per stage."""
    marks = []
    import numpy as np

    import lindscope
    from lindscope.metrics import _block_pass
    from lindscope.superop import _form

    marks.append(_marks())
    rng = np.random.default_rng([SEED, d])

    def complex_matrix():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    h = complex_matrix()
    model = lindscope.LindbladModel(d, (h + h.conj().T) / 2, (complex_matrix(), complex_matrix()))
    a, e, _ = _form(lindscope.liouvillian(model))
    marks.append(_marks())
    _block_pass(a, np.array([e]))
    del a
    marks.append(_marks())
    lindscope.structured_dissipator_report(model)
    marks.append(_marks())
    for stage, (maxrss, hwm) in zip(STAGES, marks):
        print(stage, f"{maxrss:.1f}", "-" if hwm is None else f"{hwm:.1f}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:  # one run, started by the loop below
        _child(int(argv[1]))
        return 0
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    print(f"{'d':>3} {'stage':<7} {'ru_maxrss_MB':>12} {'VmHWM_MB':>9}")
    for d in DIMS:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(d)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for line in out.splitlines():
            stage, maxrss, hwm = line.split()
            print(f"{d:>3} {stage:<7} {maxrss:>12} {hwm:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
