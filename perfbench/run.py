"""End-to-end benchmark of the whiterec CLI pipeline on seeded synthetic data.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tall-log --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed`` (SETUP_REPEATS
times, to time set-up), then runs the workload's CLI commands, each as a
fresh ``python -m whiterec.cli`` subprocess, again and again for about
``--seconds`` seconds (at least MIN_ITERATIONS times). Every pipeline's
outputs are checked (see checks.py). The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over the pipelines.
``--trace 1`` alternates untraced pipelines with traced ones, in which each
command runs in-process under tracer.py, and reports per-layer metrics.

BLAS threads in the children are capped by OPENBLAS_NUM_THREADS, default
the number of usable cores; a run refuses to start with a larger cap. All
files go to ``.bench_work/<workload>/`` in the checkout, which also keeps
``result-<trace>.json`` with the environment and every measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from gen import Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_ITERATIONS = 2
STARTUP_PROBES = 3
DEADLINE_S = 170.0  # every child is killed after this long into the run
CUTOFFS = "20,50,100"

# Sizes are chosen so that one pipeline takes 5-9 s on a 2-core Xeon VM,
# which lets a 35 s run repeat it four to seven times; each ``why`` names the
# layers that dominate the workload and the changes it is the bypass for.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="tall-log",
        why="220k raw events, 16k users x 1k items, Zipf 1.1, 60% rated below 4; ridge: "
            "ingest (parse, filter, split I/O) dominates; the bypass for solver changes",
        n_users=16_000, n_items=1_000, n_events=220_000, zipf_exponent=1.1,
        activity_sigma=1.0, repeat_share=0.1, kinds=("ridge",), embedding_dim=0,
        heldout_user_fraction=0.1, foldin_users=2_000, foldin_mean_items=8.0,
        foldin_unknown_share=0.05, top_n=10),
    Workload(
        name="wide-catalog",
        why="140k events, 8k users x 2k items, Zipf 0.9; ease and embed_ridge (D=256, "
            "full eigh): Gram, factorization and model I/O dominate; the bypass for ingest",
        n_users=8_000, n_items=2_000, n_events=140_000, zipf_exponent=0.9,
        activity_sigma=1.0, repeat_share=0.1, kinds=("ease", "embed_ridge"),
        embedding_dim=256, heldout_user_fraction=0.15, foldin_users=500,
        foldin_mean_items=8.0, foldin_unknown_share=0.05, top_n=10),
    Workload(
        name="rank-heavy",
        why="200k events, 14k users x 1.5k items, 30% held out, 3k fold-in users with 10% "
            "unknown ids ranked at N=100: scoring, top-N, metrics and CSV export dominate",
        n_users=14_000, n_items=1_500, n_events=200_000, zipf_exponent=1.1,
        activity_sigma=1.0, repeat_share=0.1, kinds=("ease",), embedding_dim=0,
        heldout_user_fraction=0.3, foldin_users=3_000, foldin_mean_items=8.0,
        foldin_unknown_share=0.1, top_n=100),
)}

END_TO_END_UNITS = {
    "pipeline_s": "s", "preprocess_s": "s", "train_s": "s", "evaluate_s": "s",
    "recommend_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ndcg_at_100": "1",
    "recall_at_100": "1", "pass_rate": "1",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, by the suffix of its name."""
    names = list(tracer.layer_metrics([])) + ["cli.startup_s", "trace.overhead_pct"]
    suffixes = {"_s": "s", "_mb": "MB", "_calls": "count", "_gflop": "GFLOP",
                "_pct": "%", "_ratio": "1"}
    return {n: next((u for s, u in suffixes.items() if n.endswith(s)), "count") for n in names}


class Tally:
    """Attempted and failed operations (commands and output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}
        self.messages: list[str] = []

    def record(self, check: str, fails: list[str]) -> None:
        counts = self.checks.setdefault(check, [0, 0])
        counts[0] += 1
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{check}: {f}" for f in fails[:5])
        else:
            counts[1] += 1


def commands(w: Workload, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(phase, CLI arguments) of one pipeline; paths are relative to ROOT."""
    (ROOT / out).mkdir(parents=True)
    cfg = out / "run.cfg"
    (ROOT / cfg).write_text(
        f"data_path = {inputs / 'ratings.csv'}\noutput = {out}\n"
        f"heldout_user_fraction = {w.heldout_user_fraction}\ncutoffs = {CUTOFFS}\nseed = 0\n",
        encoding="utf-8")
    base = ["--config", str(cfg)]
    cmds = [("preprocess", ["preprocess", *base])]
    for kind in w.kinds:
        dim = ["--embedding-dim", str(w.embedding_dim)] if kind.startswith("embed_") else []
        cmds.append(("train", ["train", *base, "--kind", kind, *dim]))
    for kind in w.kinds:
        cmds.append(("evaluate", ["evaluate", *base, "--model", str(out / f"model_{kind}.bin")]))
    cmds.append(("recommend", ["recommend", *base, "--model", str(out / f"model_{w.kinds[0]}.bin"),
                               "--users", str(inputs / "foldin.csv"), "-N", str(w.top_n)]))
    return cmds


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, max RSS in MB).

    The RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is a lifetime maximum over all children.
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=fh)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def run_pipeline(w: Workload, inputs: Path, out: Path, env: dict, tally: Tally,
                 deadline: float, traced_run: str | None = None) -> dict:
    """Run every command once; returns per-phase walls, peak RSS and spans."""
    phases = {"preprocess": 0.0, "train": 0.0, "evaluate": 0.0, "recommend": 0.0}
    peak = 0.0
    spans = []
    for k, (phase, args) in enumerate(commands(w, inputs, out)):
        if traced_run is None:
            prefix = [sys.executable, "-m", "whiterec.cli"]
        else:
            span_file = out / f"spans_{k}.json"
            prefix = [sys.executable, str(HERE.relative_to(ROOT) / "tracer.py"), str(span_file), traced_run]
        code, wall, rss = run_child(prefix + args, env, ROOT / out / "commands.log", deadline)
        tally.record("exit_code", [] if code == 0 else [f"{' '.join(args[:1])} exited {code}"])
        phases[phase] += wall
        peak = max(peak, rss)
        if traced_run is not None and code == 0:
            spans.extend(json.loads((ROOT / span_file).read_text(encoding="utf-8")))
    return {"phases": phases, "pipeline_s": sum(phases.values()), "peak_rss_mb": peak,
            "spans": spans}


def output_files(out: Path) -> dict[str, str]:
    """SHA-256 of every split, model and report file of one pipeline."""
    skip = {"run.cfg", "commands.log"}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name not in skip and not p.name.startswith("spans_")}


def check_outputs(w: Workload, inputs: Path, out: Path, tally: Tally, seed: int) -> None:
    """The output checks of checks.py on one pipeline's files."""
    rng = np.random.default_rng([seed, 2])

    def guarded(name, fn, *args):
        try:
            tally.record(name, fn(*args))
        except (OSError, ValueError, KeyError, IndexError, StopIteration, struct.error) as exc:
            tally.record(name, [f"{type(exc).__name__}: {exc}"])

    for kind in w.kinds:
        model = out / f"model_{kind}.bin"
        guarded("closed_form", checks.closed_form, out, model, rng)
        report_csv = out / f"eval_test_{kind}_per_user.csv"
        guarded("metric_oracle", checks.metric_oracle, out, model, report_csv, rng)
        guarded("report_means", checks.report_means, out / f"eval_test_{kind}.json", report_csv)
    guarded("topn_oracle", checks.topn_oracle, out, out / f"model_{w.kinds[0]}.bin",
            inputs / "foldin.csv", w.top_n, rng)


def quality(out: Path, kind: str) -> dict[str, float]:
    metrics = json.loads((out / f"eval_test_{kind}.json").read_text(encoding="utf-8"))["metrics"]
    return {"ndcg_at_100": metrics["ndcg"]["100"], "recall_at_100": metrics["recall"]["100"]}


def environment(cap: int, nproc: int) -> dict:
    def first_line(path: Path, prefix: str = "") -> str | None:
        try:
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return None

    import scipy

    head = first_line(ROOT / ".git" / "HEAD")
    commit = head
    if head and head.startswith("ref:"):
        commit = first_line(ROOT / ".git" / head.split()[1])
    return {
        "nproc": nproc,
        "cpu_model": first_line(Path("/proc/cpuinfo"), "model name"),
        "l3": first_line(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": cap,
        "git_commit": commit,
    }


def l3_bytes(text: str | None) -> int | None:
    if not text:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "whiterec" / "cli.py").is_file():
        print(f"error: no whiterec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap = int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc)
    if not 1 <= cap <= nproc:
        print(f"error: BLAS thread cap {cap} is outside 1..nproc={nproc}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"),
               OPENBLAS_NUM_THREADS=str(cap), OMP_NUM_THREADS=str(cap), MKL_NUM_THREADS=str(cap))
    env_info = environment(cap, nproc)
    tally = Tally()

    # Set-up: generate the inputs several times; the files must not change.
    inputs = work / "input"
    inputs.mkdir()
    setup_times, input_hashes, generated = [], [], {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        generated = generate(w, args.seed, inputs)
        setup_times.append(time.perf_counter() - t0)
        input_hashes.append(output_files(inputs))
    tally.record("inputs_identical",
                 [] if all(h == input_hashes[0] for h in input_hashes) else ["inputs differ"])

    # Measurement: pipelines until the next one would overrun --seconds.
    inputs_rel = inputs.relative_to(ROOT)
    results = []
    measure_start = time.perf_counter()
    while True:
        k = len(results)
        elapsed = time.perf_counter() - measure_start
        if k >= MIN_ITERATIONS:
            typical = statistics.median(r["pipeline_s"] for r in results)
            if elapsed + typical > args.seconds:
                break
        traced = args.trace == 1 and k % 2 == 1
        out = (work / f"it{k}").relative_to(ROOT)
        r = run_pipeline(w, inputs_rel, out, env, tally, deadline,
                         traced_run=f"{w.name}-{args.seed}-it{k}" if traced else None)
        r["traced"] = traced
        r["files"] = output_files(ROOT / out)
        if k == 0:
            check_outputs(w, ROOT / inputs_rel, ROOT / out, tally, args.seed)
        else:
            first = results[0]["files"]
            for name, digest in first.items():
                tally.record("outputs_identical",
                             [] if r["files"].get(name) == digest else [f"{name} differs in it{k}"])
            shutil.rmtree(ROOT / out)
        results.append(r)

    plain = [r for r in results if not r["traced"]]
    if args.trace == 0:
        values = {
            "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
            **{f"{p}_s": statistics.median(r["phases"][p] for r in plain)
               for p in ("preprocess", "train", "evaluate", "recommend")},
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup_times),
        }
        try:
            values.update(quality(work / "it0", w.kinds[0]))
        except (OSError, KeyError, ValueError):
            values.update(ndcg_at_100=0.0, recall_at_100=0.0)
        values["pass_rate"] = 1.0 - tally.failed / tally.attempted
        units = END_TO_END_UNITS
    else:
        traced = [r for r in results if r["traced"]]
        per_run = [tracer.layer_metrics(r["spans"]) for r in traced]
        values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        probes = []
        for _ in range(STARTUP_PROBES):
            code, wall, _ = run_child([sys.executable, "-c", "import whiterec.cli"], env,
                                      work / "startup.log", deadline)
            tally.record("exit_code", [] if code == 0 else [f"startup probe exited {code}"])
            probes.append(wall)
        values["cli.startup_s"] = statistics.median(probes)
        plain_s = statistics.median(r["pipeline_s"] for r in plain)
        traced_s = statistics.median(r["pipeline_s"] for r in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        units = per_layer_units()
        (work / "spans.json").write_text(
            json.dumps([s for r in traced for s in r["spans"]]), encoding="utf-8")

    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    for name in units:
        print(f"metric {name} = {values[name]:.6g} {units[name]}")
    for name, (run, passed) in tally.checks.items():
        print(f"check {name}: {passed}/{run} passed")
    for message in tally.messages:
        print(f"FAIL {message}")
    print("env " + json.dumps(env_info, sort_keys=True))
    record = {
        "workload": w.describe(l3_bytes(env_info["l3"])),
        "generated": generated,
        "seed": args.seed,
        "environment": env_info,
        "setup_s": setup_times,
        "pipelines": [{k: v for k, v in r.items() if k != "spans"} for r in results],
        "checks": tally.checks,
        "failures": tally.messages,
        "metrics": metrics,
    }
    (work / f"result-{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
