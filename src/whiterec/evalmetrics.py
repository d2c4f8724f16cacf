"""Recall@R and NDCG@R over held-out users.

Recall@R counts hits in the top R against min(R, number of targets), so a
user with fewer targets than the cutoff can still reach 1.0. NDCG@R is the
binary-gain discounted cumulative gain divided by its ideal value, the one
obtained when targets occupy the top ranks; logarithms are base 2 (the
ratio is base-invariant, per-user DCG values fix the convention).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autoencoder import SimilarityMatrix
from .errors import EvaluationError
from .ingest import HeldOutSet
from .recommend import RankedList, batch_recommend


@dataclass
class EvalReport:
    """Aggregate and per-user metric values for a list of cutoffs."""

    cutoffs: list[int]
    means: dict[tuple[str, int], float]
    per_user: dict[tuple[str, int], np.ndarray]
    n_users_evaluated: int
    excluded_users: dict[str, int] = field(default_factory=dict)
    evaluated_rows: list[int] = field(default_factory=list)

    def mean(self, metric: str, r: int) -> float:
        return self.means[(metric, r)]

    def to_json_dict(self) -> dict:
        metrics: dict[str, dict[str, float]] = {}
        for (metric, r), value in sorted(self.means.items()):
            metrics.setdefault(metric, {})[str(r)] = value
        return {
            "cutoffs": list(self.cutoffs),
            "metrics": metrics,
            "n_users_evaluated": self.n_users_evaluated,
            "excluded_users": dict(self.excluded_users),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def recall_at_r(ranked: RankedList, targets, r: int) -> float:
    """Hits among the top r, normalized by min(r, number of targets)."""
    target_set = _target_set(targets)
    hits = sum(1 for item in ranked.items()[:r] if item in target_set)
    return hits / min(r, len(target_set))


def ndcg_at_r(ranked: RankedList, targets, r: int) -> float:
    """Binary-gain DCG@r over its ideal value; ranks discount as log2(rank+1)."""
    target_set = _target_set(targets)
    dcg = dcg_at_r(ranked, target_set, r)
    ideal = sum(1.0 / np.log2(rank + 1) for rank in range(1, min(r, len(target_set)) + 1))
    return dcg / ideal


def dcg_at_r(ranked: RankedList, targets, r: int) -> float:
    """Truncated DCG with binary gains (2^hit - 1 is just the hit indicator)."""
    target_set = _target_set(targets)
    return sum(
        1.0 / np.log2(rank + 1)
        for rank, item in enumerate(ranked.items()[:r], start=1)
        if item in target_set
    )


def _target_set(targets) -> set[int]:
    target_set = set(int(t) for t in targets)
    if not target_set:
        raise EvaluationError("metric undefined for an empty target set")
    return target_set


def evaluate(H: HeldOutSet, B: SimilarityMatrix, cutoffs: list[int]) -> EvalReport:
    """Rank once at the largest cutoff, then score every (metric, R) pair.

    Users with empty target sets are excluded from the averages and
    counted in the report rather than scored as zero.
    """
    if not cutoffs:
        raise ValueError("cutoffs must be non-empty")
    if any(r < 1 for r in cutoffs):
        raise ValueError(f"cutoffs must all be >= 1, got {cutoffs}")
    ranked = batch_recommend(H.foldin, B, max(cutoffs))

    evaluable = [u for u in range(H.n_users) if len(H.target_items(u)) > 0]
    excluded = H.n_users - len(evaluable)
    if not evaluable:
        raise EvaluationError("no users with non-empty target sets to evaluate")

    per_user: dict[tuple[str, int], np.ndarray] = {}
    means: dict[tuple[str, int], float] = {}
    for r in cutoffs:
        for metric, fn in (("recall", recall_at_r), ("ndcg", ndcg_at_r)):
            values = np.array([fn(ranked[u], H.target_items(u), r) for u in evaluable])
            per_user[(metric, r)] = values
            means[(metric, r)] = float(values.mean())

    excluded_users = {"empty_targets": excluded} if excluded else {}
    return EvalReport(
        cutoffs=list(cutoffs),
        means=means,
        per_user=per_user,
        n_users_evaluated=len(evaluable),
        excluded_users=excluded_users,
        evaluated_rows=evaluable,
    )


def export_per_user_csv(report: EvalReport, user_ids: list[str],
                        path: str | Path) -> None:
    """Per-user metric values as (user_id, metric, cutoff, value) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "metric", "cutoff", "value"])
        rows = report.evaluated_rows or list(range(report.n_users_evaluated))
        for (metric, r), values in sorted(report.per_user.items()):
            for u, value in zip(rows, values):
                writer.writerow([user_ids[u], metric, r, repr(float(value))])
