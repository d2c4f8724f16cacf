"""Traced run of one whiterec CLI command, and the per-layer metrics of its spans.

Run as a program, this wraps the public functions of every whiterec module
named in TARGETS, calls ``whiterec.cli.main`` in-process with the given
arguments, and writes the recorded spans as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID preprocess --config run.cfg

Wrapping happens from outside the package: each wrapper replaces the
original in every ``whiterec.*`` namespace that holds it, so a name imported
with ``from .x import f`` is traced too. A span records its name, start,
end, parent span and run id, plus a few computed sizes (ATTRS). Per-user
helpers (AGGREGATED) get no span of their own: their call count and total
time are added to the enclosing span. Spans stay in memory until the
command ends.

Imported as a module (by run.py), it only offers ``layer_metrics``, which
turns spans into the benchmark's per-layer metrics; whiterec is then not
imported.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("ingest", "linalg", "autoencoder", "embedding", "recommend", "evalmetrics", "cli")

TARGETS = {
    "ingest": ("load_interactions", "preprocess", "split_strong_generalization",
               "save_split", "load_split"),
    "linalg": ("gram", "eigh", "spd_solve"),
    "autoencoder": ("ridge", "ease"),
    "embedding": ("svd_embed", "embed_ridge", "save_embeddings"),
    "recommend": ("batch_recommend", "score_user", "top_n", "export_ranked_csv"),
    "evalmetrics": ("evaluate", "export_per_user_csv", "recall_at_r", "ndcg_at_r"),
    "cli": ("cmd_preprocess", "cmd_train", "cmd_evaluate", "cmd_recommend",
            "save_model", "load_model"),
}

AGGREGATED = {"recommend.score_user", "recommend.top_n",
              "evalmetrics.recall_at_r", "evalmetrics.ndcg_at_r"}

SPLIT_FILES = ("train.txt", "validation_foldin.txt", "validation_targets.txt",
               "test_foldin.txt", "test_targets.txt", "items.txt",
               "train_users.txt", "validation_users.txt", "test_users.txt")


def _spd_solve_gflop(args, kwargs, result):
    n = args[0].shape[0]
    k = args[1].shape[1] if args[1].ndim == 2 else 1
    return {"gflop": (n ** 3 / 3 + 2 * n * n * k) / 1e9}


# Computed sizes recorded on a span: (args, kwargs, result) -> attributes.
ATTRS = {
    "ingest.load_interactions": lambda a, k, r: {"raw_events": len(r)},
    "ingest.preprocess": lambda a, k, r: {"raw_in": len(a[0]), "nnz_out": r.nnz},
    "ingest.save_split": lambda a, k, r: {
        "mb": sum((Path(a[0]) / f).stat().st_size for f in SPLIT_FILES) / 1e6},
    "linalg.eigh": lambda a, k, r: {"dim": a[0].shape[0]},
    "linalg.spd_solve": _spd_solve_gflop,
    "recommend.batch_recommend": lambda a, k, r: {"users": len(r)},
    "recommend.export_ranked_csv": lambda a, k, r: {
        "rows": sum(len(rl.entries) for rl in a[0])},
    "cli.save_model": lambda a, k, r: {"mb": a[0].dim ** 2 * 8 / 1e6},
    "cli.load_model": lambda a, k, r: {"mb": r[0].dim ** 2 * 8 / 1e6},
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"id": f"{os.getpid()}.{len(self.spans)}", "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None, "agg": {}}
        self.spans.append(span)
        self._stack.append(span)
        rss = _max_rss_mb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            span["rss_growth_mb"] = _max_rss_mb() - rss
        if name in ATTRS:
            span.update(ATTRS[name](args, kwargs, result))
        return result

    def wrap(self, name: str, fn):
        if name in AGGREGATED:
            def traced(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg = self._stack[-1]["agg"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += time.perf_counter() - start
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every TARGETS function in every whiterec namespace holding it."""
        for module_name, functions in TARGETS.items():
            module = importlib.import_module(f"whiterec.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                traced = self.wrap(f"{module_name}.{fn_name}", original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("whiterec"):
                        for attr, value in list(vars(loaded).items()):
                            if value is original:
                                setattr(loaded, attr, traced)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus child spans and aggregated helper time."""
    inner = defaultdict(float)
    for s in spans:
        inner[s["id"]] += sum(total for _, total in s["agg"].values())
        if s["parent"] is not None:
            inner[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - inner[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics (name -> value) of one traced pipeline's spans.

    ``<layer>.<fn>_s`` is self time; aggregated helpers contribute their
    total time, as they have no children. ``<layer>.self_s`` sums a layer.
    """
    by_name_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    st = self_times(spans)
    for s in spans:
        by_name_s[s["name"]] += st[s["id"]]
        calls[s["name"]] += 1
        for key in ("raw_events", "raw_in", "nnz_out", "mb", "gflop", "users", "rows"):
            if key in s:
                attr[(s["name"], key)] += s[key]
        if "dim" in s:
            attr[(s["name"], "dim")] = max(attr[(s["name"], "dim")], s["dim"])
        attr[(s["name"], "rss")] += s["rss_growth_mb"]
        for name, (count, total) in s["agg"].items():
            by_name_s[name] += total
            calls[name] += count

    def rss(layer):
        return sum(v for (name, key), v in attr.items()
                   if key == "rss" and name.startswith(layer + "."))

    raw_in = attr[("ingest.preprocess", "raw_in")]
    m = {
        "ingest.parse_s": by_name_s["ingest.load_interactions"],
        "ingest.raw_events": attr[("ingest.load_interactions", "raw_events")],
        "ingest.preprocess_s": by_name_s["ingest.preprocess"],
        "ingest.keep_ratio": attr[("ingest.preprocess", "nnz_out")] / raw_in if raw_in else 0.0,
        "ingest.split_s": by_name_s["ingest.split_strong_generalization"],
        "ingest.save_split_s": by_name_s["ingest.save_split"],
        "ingest.split_mb": attr[("ingest.save_split", "mb")],
        "ingest.load_split_s": by_name_s["ingest.load_split"],
        "ingest.load_split_calls": calls["ingest.load_split"],
        "linalg.gram_s": by_name_s["linalg.gram"],
        "linalg.gram_calls": calls["linalg.gram"],
        "linalg.eigh_s": by_name_s["linalg.eigh"],
        "linalg.eigh_dim": attr[("linalg.eigh", "dim")],
        "linalg.spd_solve_s": by_name_s["linalg.spd_solve"],
        "linalg.spd_solve_calls": calls["linalg.spd_solve"],
        "linalg.spd_solve_gflop": attr[("linalg.spd_solve", "gflop")],
        "autoencoder.ridge_s": by_name_s["autoencoder.ridge"],
        "autoencoder.ease_s": by_name_s["autoencoder.ease"],
        "autoencoder.rss_growth_mb": rss("autoencoder"),
        "embedding.svd_embed_s": by_name_s["embedding.svd_embed"],
        "embedding.embed_ridge_s": by_name_s["embedding.embed_ridge"],
        "embedding.save_embeddings_s": by_name_s["embedding.save_embeddings"],
        "embedding.rss_growth_mb": rss("embedding"),
        "recommend.batch_recommend_s": by_name_s["recommend.batch_recommend"],
        "recommend.users_ranked": attr[("recommend.batch_recommend", "users")],
        "recommend.score_user_s": by_name_s["recommend.score_user"],
        "recommend.score_user_calls": calls["recommend.score_user"],
        "recommend.top_n_s": by_name_s["recommend.top_n"],
        "recommend.top_n_calls": calls["recommend.top_n"],
        "recommend.export_csv_s": by_name_s["recommend.export_ranked_csv"],
        "recommend.rows_written": attr[("recommend.export_ranked_csv", "rows")],
        "evalmetrics.evaluate_s": by_name_s["evalmetrics.evaluate"],
        "evalmetrics.metric_calls": calls["evalmetrics.recall_at_r"] + calls["evalmetrics.ndcg_at_r"],
        "evalmetrics.export_per_user_s": by_name_s["evalmetrics.export_per_user_csv"],
        "cli.save_model_s": by_name_s["cli.save_model"],
        "cli.load_model_s": by_name_s["cli.load_model"],
        "cli.load_model_calls": calls["cli.load_model"],
        "cli.model_mb": attr[("cli.save_model", "mb")] + attr[("cli.load_model", "mb")],
        "cli.recommend_s": by_name_s["cli.cmd_recommend"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for name, v in by_name_s.items()
                                   if name.startswith(layer + "."))
    return m


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    import whiterec.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.call(f"run.{cli_args[0]}", whiterec.cli.main, cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
