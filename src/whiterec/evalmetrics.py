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

from .artifact import atomic_open
from .autoencoder import SimilarityMatrix
from .errors import EvaluationError
from .ingest import HeldOutSet
from .recommend import RankedList, ranked_blocks


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
    return _one_row(ranked, targets, r)[("recall", r)]


def ndcg_at_r(ranked: RankedList, targets, r: int) -> float:
    """Binary-gain DCG@r over its ideal value; ranks discount as log2(rank+1)."""
    return _one_row(ranked, targets, r)[("ndcg", r)]


def dcg_at_r(ranked: RankedList, targets, r: int) -> float:
    """Truncated DCG with binary gains (2^hit - 1 is just the hit indicator)."""
    hit, _ = _one_row_hits(ranked, targets, r)
    return float(_cumulative_gains(hit, _discount(r))[1][0, -1])


def _one_row(ranked: RankedList, targets, r: int) -> dict[tuple[str, int], float]:
    hit, n_targets = _one_row_hits(ranked, targets, r)
    return {key: float(values[0])
            for key, values in _cutoff_metrics(hit, n_targets, [r]).items()}


def _one_row_hits(ranked: RankedList, targets, r: int) -> tuple[np.ndarray, np.ndarray]:
    target_set = set(int(t) for t in targets)
    if not target_set:
        raise EvaluationError("metric undefined for an empty target set")
    hit = np.isin(np.array(ranked.items()[:r], dtype=np.int64), list(target_set))
    return hit[None, :], np.array([len(target_set)])


def _discount(k: int) -> np.ndarray:
    """1 / log2(rank + 1) for ranks 1..k."""
    return 1.0 / np.log2(np.arange(2, k + 2))


def _cumulative_gains(hit: np.ndarray, discount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hit counts and DCG of the top j ranks, for j = 0..k, as columns."""
    users, k = hit.shape
    hits = np.zeros((users, k + 1), dtype=np.int64)
    np.cumsum(hit, axis=1, out=hits[:, 1:])
    dcg = np.zeros((users, k + 1))
    np.cumsum(np.where(hit, discount[:k], 0.0), axis=1, out=dcg[:, 1:])
    return hits, dcg


def _cutoff_metrics(hit: np.ndarray, n_targets: np.ndarray,
                   cutoffs: list[int]) -> dict[tuple[str, int], np.ndarray]:
    """Recall@R and NDCG@R of every row, for every cutoff, from one hit matrix.

    ``hit[u, j]`` says whether row u's item at rank j + 1 is a target. It
    has at most max(cutoffs) columns; ranks past its end count as misses.
    ``n_targets[u]`` must be >= 1.
    """
    discount = _discount(max(cutoffs))
    hits, dcg = _cumulative_gains(hit, discount)
    ideal = np.cumsum(discount)
    values = {}
    for r in cutoffs:
        at = min(r, hit.shape[1])
        denominator = np.minimum(r, n_targets)
        values[("recall", r)] = hits[:, at] / denominator
        values[("ndcg", r)] = dcg[:, at] / ideal[denominator - 1]
    return values


def evaluate(H: HeldOutSet, B: SimilarityMatrix, cutoffs: list[int]) -> EvalReport:
    """Rank once at the largest cutoff, then score every (metric, R) pair.

    Each block of ranked rows becomes one hit matrix against the same
    block's target rows. Users with empty target sets are excluded from
    the averages and counted in the report rather than scored as zero.
    """
    if not cutoffs:
        raise ValueError("cutoffs must be non-empty")
    if any(r < 1 for r in cutoffs):
        raise ValueError(f"cutoffs must all be >= 1, got {cutoffs}")
    indptr, indices = H.targets.indptr, H.targets.indices
    n_targets = np.diff(indptr)
    blocks = []
    for start, items, _, _ in ranked_blocks(H.foldin, B, max(cutoffs)):
        stop = start + len(items)
        evaluable = n_targets[start:stop] > 0
        target = np.zeros((stop - start, H.n_items), dtype=bool)
        target[np.repeat(np.arange(stop - start), n_targets[start:stop]),
               indices[indptr[start]:indptr[stop]]] = True
        # Entries past a row's length are fold-in items, never targets.
        hit = np.take_along_axis(target, items, axis=1)
        blocks.append(_cutoff_metrics(hit[evaluable], n_targets[start:stop][evaluable],
                                     list(cutoffs)))

    evaluable = np.flatnonzero(n_targets).tolist()
    excluded = H.n_users - len(evaluable)
    if not evaluable:
        raise EvaluationError("no users with non-empty target sets to evaluate")

    per_user = {key: np.concatenate([block[key] for block in blocks])
                for key in blocks[0]}
    means = {key: float(values.mean()) for key, values in per_user.items()}
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
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "metric", "cutoff", "value"])
        rows = report.evaluated_rows or list(range(report.n_users_evaluated))
        for (metric, r), values in sorted(report.per_user.items()):
            for u, value in zip(rows, values):
                writer.writerow([user_ids[u], metric, r, repr(float(value))])
