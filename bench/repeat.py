"""Run one workload on several seeds and report how much each metric spreads.

    python3 bench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median of its values and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median. It does the same for the unscaled values that an untraced
run prints in its summary (``raw.*``). For end-to-end metrics it compares
the spread with the bound in ``BENCHMARK.json``; a spread under a third of
the bound is steady. With
``--out`` the summary, the machine and the per-run values are merged into a
JSON file under the workload's name, with each run's stderr summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

RAW_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "reference_ms": "ms",
    "factor": "1",
    "setup_s": "s",
}


def raw_values(summary: str) -> dict[str, float]:
    """The unscaled times, reference time and factor from a run's summary
    line ``# raw name value name value ...``, as ``raw.<name>``."""
    for line in summary.splitlines():
        if line.startswith("# raw "):
            words = line.split()[2:]
            return {f"raw.{k}": float(v) for k, v in zip(words[::2], words[1::2])}
    return {}


def spread(values: list[float]) -> tuple[float, float, float, float | None]:
    """(median, first quartile, third quartile, (q3 - q1) / median); the
    spread is None for a single value or a zero median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else None


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result, "summary": proc.stderr.splitlines()})
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for name, value in raw_values(proc.stderr).items():
            values.setdefault(name, []).append(value)
            units[name] = RAW_UNITS[name.removeprefix("raw.")]

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  steady")
    for name, vals in values.items():
        median, q1, q3, share = spread(vals)
        bound = bounds.get(name)
        steady = "" if bound is None or share is None else ("yes" if share < bound / 3 else "NO")
        shown = "-" if share is None else f"{share:.4f}"
        print(f"{name:<32}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{shown:>9}"
              f"{'' if bound is None else bound:>8}  {steady}")
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": share}
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data[args.workload if not args.trace else f"{args.workload}+trace"] = {
            "machine": run.machine(),
            "seconds": args.seconds,
            "seeds": [r["seed"] for r in runs],
            "metrics": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
