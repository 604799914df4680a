"""Run the benchmark on several seeds and report each end-to-end metric's median and quartile spread.

    python3 perfbench/spread.py --workload dc-like --seeds 1-10 [--out perfbench/baseline/dc-like.json]

Runs ``run.py --trace 0`` once per seed, one after another, with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median,
the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, the bound, and
whether the spread is below a third of it.  The last line is a JSON object
with every run's metrics, a summary per metric and the first run's
environment manifest; ``--out`` also writes that object to a file, which is
how ``baseline/<workload>.json`` is made.  The exit code is 1 when a run
failed a correctness check or a spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``--trace 0`` run; returns its result line and its ``report`` line."""
    cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("report "))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, help="also write the summary JSON to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}

    runs, manifest = [], None
    for seed in parse_seeds(args.seeds):
        result, report = run_once(spec, args.workload, seed)
        manifest = manifest or report["manifest"]
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "pinned_cpu": report["manifest"]["pinned_cpu"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        })
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    ok = all(r["correct"] for r in runs)
    summary = {}
    for name, m in declared.items():
        values = [r["metrics"][name] for r in runs]
        mid = median(values)
        spread = quartile_spread(values) if len(values) > 1 and mid else 0.0
        summary[name] = {"median": mid, "quartile_spread": spread, "unit": m["unit"], "bound": m["bound"]}
        ok &= spread <= m["bound"]
        print(f"{name:<40} median {mid:>12.6g}  spread {spread:7.4f}  bound {m['bound']:.3f}  "
              f"{'steady' if spread < m['bound'] / 3 else 'NOT STEADY'}")
    out = {"workload": args.workload, "run_seconds": spec["run_seconds"], "seeds": [r["seed"] for r in runs],
           "manifest": manifest, "summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
