"""pietsp benchmark: one run of one workload, printing its metrics as JSON.

    python3 perfbench/run.py --workload dc-like --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics and tracing overhead with ``--trace 1``.
The lines before it list every metric and a ``report`` line with the
environment manifest and sample counts.

This launcher imports no numpy.  It sets the BLAS thread variables to 1,
then starts ``bench.py`` twice as child processes: once to write the
workload's corpus for ``--seed``, once to measure the pipeline on that file.
Scratch files live in ``.bench_work/`` under the checkout and are removed
afterwards.  The pietsp package is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 175.0


def _child(cmd: list[str], env: dict, deadline: float) -> int:
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one pietsp benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus.json"
    bench = [sys.executable, str(HERE / "bench.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        code = _child(bench + ["generate", *common, "--out", str(corpus)], env, deadline)
        if code == 0:
            code = _child(
                bench + ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--corpus", str(corpus), "--workdir", str(workdir)],
                env,
                deadline,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
