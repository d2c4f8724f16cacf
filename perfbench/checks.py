"""Output checks for the whiterec benchmark, written without importing whiterec.

The file formats are read by hand from their documented layouts, and every
expected value is recomputed from the split files with numpy and scipy:

* ``closed_form``: sampled columns of each model satisfy its defining
  equation against the Gram rebuilt from ``train.txt``;
* ``topn_oracle``: ``recommendations.csv`` matches a naive argsort oracle;
* ``metric_oracle``: per-user Recall@R / NDCG@R of sampled test users match
  the same oracle ranking;
* ``report_means``: the report means equal the means of the per-user CSV.

Each check returns a list of failure messages; an empty list is a pass.
Near-equal scores may come out of a different summation order in another
ranking kernel, so rankings are compared by score within SCORE_RTOL, which
only lets near-ties swap places.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

IDENTITY_RTOL = 1e-8
SCORE_RTOL = 1e-9
METRIC_ATOL = 1e-9
SAMPLE_COLUMNS = 8
SAMPLE_USERS = 50


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def read_triplets(path: Path) -> sp.csr_matrix:
    """Header 'n_users n_items nnz', then one 'user item' pair per line."""
    values = np.fromstring(path.read_text(encoding="utf-8"), dtype=np.int64, sep=" ")
    n_users, n_items, nnz = values[:3]
    pairs = values[3:].reshape(-1, 2)
    if len(pairs) != nnz:
        raise ValueError(f"{path}: header promises {nnz} pairs, found {len(pairs)}")
    return sp.csr_matrix((np.ones(nnz), (pairs[:, 0], pairs[:, 1])), shape=(n_users, n_items))


def _vocab(buf: bytes, offset: int, n: int) -> list[str]:
    out = []
    for _ in range(n):
        (length,) = struct.unpack_from("<I", buf, offset)
        out.append(buf[offset + 4:offset + 4 + length].decode("utf-8"))
        offset += 4 + length
    if offset != len(buf):
        raise ValueError("trailing bytes after vocabulary")
    return out


def read_model(path: Path) -> tuple[str, float, np.ndarray, list[str]]:
    """WREC-SIM v1: kind, dim, lambda, embedding dim, dim x dim f64, vocab."""
    buf = path.read_bytes()
    if buf[:8] != b"WREC-SIM":
        raise ValueError(f"{path}: bad magic")
    version, kind_len = struct.unpack_from("<II", buf, 8)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    kind = buf[16:16 + kind_len].decode("utf-8")
    offset = 16 + kind_len
    dim, lam, _ = struct.unpack_from("<IdI", buf, offset)
    offset += 16
    b = np.frombuffer(buf, dtype="<f8", count=dim * dim, offset=offset).reshape(dim, dim)
    return kind, lam, b, _vocab(buf, offset + dim * dim * 8, dim)


def read_embeddings(path: Path) -> tuple[np.ndarray, list[str]]:
    """WREC-EMB v1: D, |I|, D x |I| f64, vocab."""
    buf = path.read_bytes()
    if buf[:8] != b"WREC-EMB":
        raise ValueError(f"{path}: bad magic")
    _, d, n = struct.unpack_from("<III", buf, 8)
    e = np.frombuffer(buf, dtype="<f8", count=d * n, offset=20).reshape(d, n)
    return e, _vocab(buf, 20 + d * n * 8, n)


def _rel(num: float, den: float) -> float:
    return num / den if den > 0 else num


def closed_form(out: Path, model_path: Path, rng: np.random.Generator) -> list[str]:
    """Sampled columns of B against the defining equation of its kind."""
    kind, lam, b, vocab = read_model(model_path)
    fails = []
    if vocab != read_lines(out / "items.txt"):
        fails.append(f"{model_path.name}: vocabulary differs from items.txt")
    x = read_triplets(out / "train.txt")
    g = (x.T @ x).toarray()
    n = g.shape[0]
    cols = rng.choice(n, size=min(SAMPLE_COLUMNS, n), replace=False)
    bc = b[:, cols]
    shifted_bc = g @ bc + lam * bc  # (G + lam I) B[:, cols]
    worst = 0.0
    if kind == "ridge":  # (G + lam I) B = G
        for k, c in enumerate(cols):
            r = np.linalg.norm(shifted_bc[:, k] - g[:, c])
            worst = max(worst, _rel(r, max(np.linalg.norm(shifted_bc[:, k]), np.linalg.norm(g[:, c]))))
    elif kind == "ease":  # (G + lam I)(I - B) diagonal, diag(B) = 0
        if np.any(np.diag(b) != 0.0):
            fails.append(f"{model_path.name}: diag(B) is not zero")
        for k, c in enumerate(cols):
            shifted_e = g[:, c].copy()
            shifted_e[c] += lam
            v = shifted_e - shifted_bc[:, k]
            v[c] = 0.0
            worst = max(worst, _rel(np.linalg.norm(v), np.linalg.norm(shifted_e)))
    elif kind == "embed_ridge":  # B = E^T (E E^T + lam I)^-1 E
        e, e_vocab = read_embeddings(out / "embeddings.bin")
        if e_vocab != vocab:
            fails.append("embeddings.bin: vocabulary differs from the model")
        expect = e.T @ np.linalg.solve(e @ e.T + lam * np.eye(e.shape[0]), e[:, cols])
        for k in range(len(cols)):
            worst = max(worst, _rel(np.linalg.norm(bc[:, k] - expect[:, k]), np.linalg.norm(expect[:, k])))
        # Rows of E are sqrt(sigma) v^T with G v = sigma^2 v, so G e = |e|^4 e.
        norms = np.einsum("ij,ij->i", e, e)
        for row in rng.choice(e.shape[0], size=min(SAMPLE_COLUMNS, e.shape[0]), replace=False):
            if norms[row] > 0:
                ge = g @ e[row]
                worst = max(worst, _rel(np.linalg.norm(ge - norms[row] ** 2 * e[row]), np.linalg.norm(ge)))
    else:
        fails.append(f"{model_path.name}: no closed-form check for kind {kind!r}")
    if worst > IDENTITY_RTOL:
        fails.append(f"{model_path.name}: {kind} identity relative error {worst:.3e} > {IDENTITY_RTOL}")
    return fails


def oracle_top(b: np.ndarray, seen: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """Naive ranking: score descending, then item index ascending, seen excluded."""
    scores = b[seen, :].sum(axis=0)
    blocked = set(seen.tolist())
    order = sorted(range(b.shape[0]), key=lambda i: (-scores[i], i))
    return [i for i in order if i not in blocked][:n], scores


def _same_ranking(got: list[int], expect: list[int], scores: np.ndarray) -> bool:
    """Equal lists, or lists whose scores agree rank by rank (near-ties swapped)."""
    if got == expect:
        return True
    if len(got) != len(expect) or len(set(got)) != len(got):
        return False
    return bool(np.allclose(scores[got], scores[expect], rtol=SCORE_RTOL,
                            atol=SCORE_RTOL * np.abs(scores).max()))


def topn_oracle(out: Path, model_path: Path, foldin_csv: Path, n: int,
                rng: np.random.Generator) -> list[str]:
    """recommendations.csv for sampled fold-in users against the oracle."""
    _, _, b, vocab = read_model(model_path)
    index = {item: j for j, item in enumerate(vocab)}
    histories: dict[str, list[int]] = {}
    with open(foldin_csv, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for user, item in rows:
            if item in index:
                histories.setdefault(user, []).append(index[item])
    got: dict[str, list[tuple[int, str, str]]] = {}
    with open(out / "recommendations.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for user, rank, item, score in rows:
            got.setdefault(user, []).append((int(rank), item, score))
    fails = []
    if list(got) != list(histories):
        fails.append("recommendations.csv: users differ from the fold-in users with known items")
    users = list(histories)
    for u in rng.choice(len(users), size=min(SAMPLE_USERS, len(users)), replace=False):
        user = users[u]
        seen = np.unique(np.array(histories[user], dtype=np.int64))
        expect, scores = oracle_top(b, seen, n)
        rows = got.get(user, [])
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            fails.append(f"user {user}: ranks are not 1..{len(rows)}")
            continue
        items = [index.get(item, -1) for _, item, _ in rows]
        reported = np.array([float(s) for _, _, s in rows])
        if -1 in items or set(items) & set(seen.tolist()) or not _same_ranking(items, expect, scores):
            fails.append(f"user {user}: top-{n} list differs from the oracle")
        elif not np.allclose(reported, scores[items], rtol=SCORE_RTOL, atol=0.0):
            fails.append(f"user {user}: reported scores differ from the oracle")
    return fails


def _per_user_csv(path: Path) -> dict[tuple[str, int], dict[str, float]]:
    values: dict[tuple[str, int], dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for user, metric, cutoff, value in rows:
            values.setdefault((metric, int(cutoff)), {})[user] = float(value)
    return values


def metric_oracle(out: Path, model_path: Path, report_csv: Path,
                  rng: np.random.Generator) -> list[str]:
    """Per-user Recall@R / NDCG@R of sampled test users against the oracle."""
    _, _, b, _ = read_model(model_path)
    users = read_lines(out / "test_users.txt")
    foldin = read_triplets(out / "test_foldin.txt")
    targets = read_triplets(out / "test_targets.txt")
    per_user = _per_user_csv(report_csv)
    cutoffs = sorted({r for _, r in per_user})
    fails = []
    for u in rng.choice(len(users), size=min(SAMPLE_USERS, len(users)), replace=False):
        seen = foldin.indices[foldin.indptr[u]:foldin.indptr[u + 1]]
        target = set(targets.indices[targets.indptr[u]:targets.indptr[u + 1]].tolist())
        ranked, _ = oracle_top(b, seen, max(cutoffs))
        for r in cutoffs:
            hits = [k for k, item in enumerate(ranked[:r], start=1) if item in target]
            ideal = sum(1 / math.log2(k + 1) for k in range(1, min(r, len(target)) + 1))
            expect = {"recall": len(hits) / min(r, len(target)),
                      "ndcg": sum(1 / math.log2(k + 1) for k in hits) / ideal}
            for metric, value in expect.items():
                got = per_user.get((metric, r), {}).get(users[u])
                if got is None or abs(got - value) > METRIC_ATOL:
                    fails.append(f"user {users[u]}: {metric}@{r} is {got}, oracle {value}")
    return fails


def report_means(report_json: Path, report_csv: Path) -> list[str]:
    """Every mean in the report equals the mean of its per-user CSV column."""
    metrics = json.loads(report_json.read_text(encoding="utf-8"))["metrics"]
    per_user = _per_user_csv(report_csv)
    fails = []
    reported = {(m, int(r)): v for m, by_r in metrics.items() for r, v in by_r.items()}
    if set(reported) != set(per_user):
        fails.append(f"{report_json.name}: metric keys differ from the per-user CSV")
    for key, value in reported.items():
        column = np.array(list(per_user.get(key, {}).values()))
        if column.size == 0 or abs(column.mean() - value) > 1e-12 * max(1.0, abs(value)):
            fails.append(f"{report_json.name}: mean {key} {value} differs from the per-user CSV")
    return fails
