"""Run the benchmark over several seeds and write one summary result file.

Usage, from the root of a checkout::

    python3 perfbench/collect.py --out perfbench/results/BENCH_<n>.json --seeds 10 --traced 2

For every workload in BENCHMARK.json this makes ``--seeds`` end-to-end runs
(``--trace 0``, seeds 1..N) and ``--traced`` traced runs, and records per
metric the values, median, quartiles and spread, (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them. It also records how much
of ``pipeline_s`` each group of layers takes as self time, the environment
and the workload properties from each run's ``result-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GROUPS = {
    "ingest": ("ingest",),
    "solve": ("linalg", "autoencoder", "embedding"),
    "ranking": ("recommend", "evalmetrics"),
    "cli": ("cli",),
}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_work" / workload / f"result-{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    report = {"command": spec["command"], "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {0: [], 1: []}
        for trace, count in ((0, args.seeds), (1, args.traced)):
            for seed in range(1, count + 1):
                runs[trace].append(bench(spec, name, seed, trace))
                print(f"{name} seed {seed} trace {trace} done", file=sys.stderr, flush=True)
        entry = {"why": w["why"], "properties": runs[0][0][1]["workload"],
                 "generated": runs[0][0][1]["generated"],
                 "correct": all(r["correct"] for t in runs for r, _ in runs[t]),
                 "attempted": sum(r["attempted"] for t in runs for r, _ in runs[t]),
                 "failed": sum(r["failed"] for t in runs for r, _ in runs[t])}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = runs[trace][0][0]["metrics"]
            entry[key] = {m: {"unit": metrics[m]["unit"],
                              **summary([r["metrics"][m]["value"] for r, _ in runs[trace]])}
                          for m in metrics}
        pipeline = entry["end_to_end"]["pipeline_s"]["median"]
        entry["self_time_share_of_pipeline"] = {
            group: sum(entry["per_layer"][f"{layer}.self_s"]["median"] for layer in layers) / pipeline
            for group, layers in GROUPS.items()}
        report["environment"] = runs[0][0][1]["environment"]
        report["workloads"][name] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
