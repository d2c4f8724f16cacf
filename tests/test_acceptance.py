"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line through the conftest hook. Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion report.
"""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np

from whiterec import linalg
from whiterec.autoencoder import SimilarityMatrix, ease, ease_decompose, ridge_dual, ridge_primal
from whiterec.cli import cmd_evaluate, cmd_preprocess, cmd_train, PipelineConfig
from whiterec.embedding import EmbeddingMatrix, embed_dot, embed_ridge, svd_embed
from whiterec.evalmetrics import evaluate, ndcg_at_r, recall_at_r
from whiterec.ingest import InteractionMatrix, SplitSpec, split_strong_generalization
from whiterec.recommend import RankedList
from whiterec.whitening import fit_zca, whiten, zca_similarity

from conftest import LAMBDAS


def fro(a):
    return np.linalg.norm(a, "fro")


def binary_matrix_family(n_matrices, seed=7):
    """Random binary matrices cycling tall, wide, and square shapes, dims 2-40."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_matrices:
        n_u = int(rng.integers(3, 41))
        n_i = int(rng.integers(2, n_u))
        square = int(rng.integers(2, 41))
        density = rng.uniform(0.1, 0.9)
        for shape in ((n_u, n_i), (n_i, n_u), (square, square)):
            dense = (rng.random(shape) < density).astype(float)
            out.append(InteractionMatrix.from_dense(dense))
    return out[:n_matrices]


def test_criterion_01_primal_dual_equivalence():
    started = time.perf_counter()
    family = binary_matrix_family(204)
    shapes = {"tall": 0, "wide": 0, "square": 0}
    for X in family:
        kind = ("square" if X.n_users == X.n_items
                else "tall" if X.n_users > X.n_items else "wide")
        shapes[kind] += 1
        for lam in LAMBDAS:
            p = ridge_primal(X, lam).values
            d = ridge_dual(X, lam).values
            assert fro(p - d) <= 1e-8 * max(fro(p), 1e-30), \
                f"primal/dual mismatch at shape {(X.n_users, X.n_items)}, lam={lam}"
    assert len(family) >= 200
    assert all(count > 0 for count in shapes.values())
    assert time.perf_counter() - started < 30.0


def test_criterion_02_zca_identity_chain():
    started = time.perf_counter()
    family = binary_matrix_family(200, seed=11)
    for k, X in enumerate(family):
        eps = LAMBDAS[k % len(LAMBDAS)]
        z = zca_similarity(X, eps).values
        p = ridge_primal(X, eps).values
        d = ridge_dual(X, eps).values
        # The paper's explicit route: W = P X with P fitted on dense X.
        dense = X.toarray()
        w = linalg.gram(whiten(fit_zca(dense, eps), dense))
        scale = max(fro(p), 1e-30)
        assert fro(z - p) <= 1e-8 * scale
        assert fro(z - d) <= 1e-8 * scale
        assert fro(w - p) <= 1e-8 * scale
    assert time.perf_counter() - started < 30.0


def test_criterion_03_exact_whitening():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(2 * d, 2 * d + 21))
        m = rng.normal(size=(d, n))
        t = fit_zca(m, eps=0.0)
        w = whiten(t, m)
        c = w @ w.T
        assert np.abs(c - np.eye(d)).max() <= 1e-8


def test_criterion_04_ease_correctness():
    # Hand example first: X = [[1,1],[1,1]], lam = 2.
    X = InteractionMatrix.from_dense([[1, 1], [1, 1]])
    sol = ease(X, 2.0)
    assert np.abs(sol.B.values - np.array([[0.0, 0.5], [0.5, 0.0]])).max() <= 1e-12
    assert np.abs(sol.alpha - 1.0).max() <= 1e-12

    rng = np.random.default_rng(31)
    for _ in range(25):
        n_u = int(rng.integers(4, 30))
        n_i = int(rng.integers(3, 20))
        dense = (rng.random((n_u, n_i)) < rng.uniform(0.2, 0.8)).astype(float)
        X = InteractionMatrix.from_dense(dense)
        lam = float(rng.choice(LAMBDAS))
        sol = ease(X, lam)
        assert np.all(np.diag(sol.B.values) == 0.0)
        g = X.toarray().T @ X.toarray()
        p_hat = np.linalg.inv(g + lam * np.eye(n_i))
        form_a = np.eye(n_i) - p_hat / np.diag(p_hat)[np.newaxis, :]
        np.fill_diagonal(form_a, 0.0)
        alpha = 1.0 / np.diag(p_hat) - lam
        form_b = np.linalg.solve(g + lam * np.eye(n_i), g - np.diag(alpha))
        assert fro(sol.B.values - form_a) <= 1e-10
        assert fro(sol.B.values - form_b) <= 1e-10


def test_criterion_05_ease_decomposition():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n_u = int(rng.integers(4, 30))
        n_i = int(rng.integers(3, 20))
        dense = (rng.random((n_u, n_i)) < rng.uniform(0.2, 0.8)).astype(float)
        X = InteractionMatrix.from_dense(dense)
        lam = float(rng.choice(LAMBDAS))
        sol = ease(X, lam)
        # Independent reconstruction of both terms.
        g = X.toarray().T @ X.toarray()
        b_zca = np.linalg.solve(g + lam * np.eye(n_i), g)
        p_hat = np.linalg.inv(g + lam * np.eye(n_i))
        alpha = 1.0 / np.diag(p_hat) - lam
        assert fro(sol.B.values - (b_zca - p_hat * alpha[np.newaxis, :])) <= 1e-10
        whitening_term, diagonal_term = ease_decompose(sol)
        assert fro(sol.B.values - (whitening_term.values - diagonal_term)) <= 1e-10


def test_criterion_06_embedding_triple_equality(monkeypatch):
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(1, 11))
        n_items = int(rng.integers(d + 1, 41))
        e = EmbeddingMatrix(rng.normal(size=(d, n_items)))
        lam = float(rng.choice(LAMBDAS))
        dual = embed_ridge(e, lam).values
        g = e.values.T @ e.values
        primal = np.linalg.solve(g + lam * np.eye(n_items), g)
        w = whiten(fit_zca(e.values, lam), e.values)
        whitened = w.T @ w
        scale = max(fro(primal), 1e-30)
        assert fro(dual - primal) <= 1e-8 * scale
        assert fro(dual - whitened) <= 1e-8 * scale

    # Structural check: the only solve is D x D, and the only item-sized
    # allocation is the returned matrix itself.
    recorded = []
    real_solve = linalg.spd_solve

    def spy(a, b):
        recorded.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(linalg, "spd_solve", spy)
    d, n_items = 6, 1000
    e = EmbeddingMatrix(np.random.default_rng(43).normal(size=(d, n_items)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        embed_ridge(e, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert recorded == [(d, d)]
    assert peak - before < 1.5 * (n_items * n_items * 8)


def test_criterion_07_ridge_spectrum():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n_u = int(rng.integers(4, 35))
        n_i = int(rng.integers(3, 25))
        dense = (rng.random((n_u, n_i)) < rng.uniform(0.2, 0.8)).astype(float)
        X = InteractionMatrix.from_dense(dense)
        lam = float(rng.choice(LAMBDAS))
        b = ridge_primal(X, lam).values
        sigma = linalg.eigh(linalg.gram(X)).eigenvalues
        expected = np.sort(sigma / (sigma + lam))
        got = np.sort(np.linalg.eigvalsh(b))
        assert np.abs(got - expected).max() <= 1e-8
        assert got.min() >= -1e-10
        assert got.max() < 1.0


def _naive_recall(items, targets, r):
    hits = sum(1 for rank in range(1, r + 1)
               if rank <= len(items) and items[rank - 1] in targets)
    return hits / min(r, len(targets))


def _naive_ndcg(items, targets, r):
    dcg = sum((2 ** 1 - 1) / math.log2(rank + 1) for rank in range(1, r + 1)
              if rank <= len(items) and items[rank - 1] in targets)
    ideal = sum(1.0 / math.log2(rank + 1)
                for rank in range(1, min(r, len(targets)) + 1))
    return dcg / ideal


def test_criterion_08_metric_oracles():
    # Hand values from the definitions.
    rl = RankedList(0, [(0, 3.0), (2, 2.0), (3, 1.0)])
    assert recall_at_r(rl, {0, 1}, 3) == 0.5
    rl2 = RankedList(0, [(1, 3.0), (7, 2.0), (2, 1.0)])
    assert abs(ndcg_at_r(rl2, {7}, 3) - 0.63093) < 1e-5
    assert ndcg_at_r(rl2, {7}, 3) == 1.0 / math.log2(3.0)

    rng = np.random.default_rng(53)
    for _ in range(1000):
        n_items = int(rng.integers(5, 40))
        list_len = int(rng.integers(1, n_items + 1))
        items = rng.permutation(n_items)[:list_len].tolist()
        targets = set(rng.choice(n_items, size=int(rng.integers(1, n_items)),
                                 replace=False).tolist())
        r = int(rng.integers(1, n_items + 5))
        ranked = RankedList(0, [(i, float(-k)) for k, i in enumerate(items)])
        assert abs(recall_at_r(ranked, targets, r)
                   - _naive_recall(items, targets, r)) <= 1e-12
        assert abs(ndcg_at_r(ranked, targets, r)
                   - _naive_ndcg(items, targets, r)) <= 1e-12


def _two_block_interactions(seed, n_users=200, n_items=60, users_a=160,
                            items_a=40, p_in=0.4, p_cross=0.02):
    """Two-block dataset with a popular majority block and a niche block."""
    rng = np.random.default_rng(seed)
    user_block = (np.arange(n_users) >= users_a).astype(int)
    item_block = (np.arange(n_items) >= items_a).astype(int)
    in_block = user_block[:, np.newaxis] == item_block[np.newaxis, :]
    dense = (rng.random((n_users, n_items))
             < np.where(in_block, p_in, p_cross)).astype(float)
    # Patch degenerate rows/columns so the split preconditions hold.
    for u in range(n_users):
        j = 0 if user_block[u] == 0 else items_a
        while dense[u].sum() < 2:
            dense[u, j] = 1.0
            j += 1
    for j in range(n_items):
        if dense[:, j].sum() == 0:
            dense[0 if item_block[j] == 0 else n_users - 1, j] = 1.0
    return InteractionMatrix.from_dense(dense)


def _pooled_ndcg(heldouts, model, r=10):
    total, n = 0.0, 0
    for h in heldouts:
        report = evaluate(h, model, [r])
        total += report.mean("ndcg", r) * report.n_users_evaluated
        n += report.n_users_evaluated
    return total / n


def test_criterion_09_embeddings_directional_check():
    started = time.perf_counter()
    orderings = []
    for seed in range(5):
        X = _two_block_interactions(seed)
        spec = SplitSpec(heldout_user_fraction=0.1, foldin_fraction=0.5,
                         rng_seed=seed, min_user_interactions=1,
                         min_item_interactions=1, rating_threshold=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train, validation, test = split_strong_generalization(X, spec)
        emb = svd_embed(train, 10)
        model_ridge = embed_ridge(emb, 1.0)
        model_dot = embed_dot(emb)
        noise = np.random.default_rng(1000 + seed).normal(
            size=(train.n_items, train.n_items))
        model_random = SimilarityMatrix(linalg.symmetrize(noise), "embed_dot",
                                        {"source": "random-baseline"})
        heldouts = (validation, test)
        ndcg_ridge = _pooled_ndcg(heldouts, model_ridge)
        ndcg_dot = _pooled_ndcg(heldouts, model_dot)
        ndcg_random = _pooled_ndcg(heldouts, model_random)
        orderings.append(ndcg_ridge >= ndcg_dot >= ndcg_random)
    assert sum(orderings) >= 4, f"ordering held in only {sum(orderings)}/5 seeds"
    assert time.perf_counter() - started < 60.0


def _write_pipeline_dataset(path, n_users=40, n_items=10, seed=99):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        block = u % 2
        for j in range(n_items):
            in_block = (j < n_items // 2) == (block == 0)
            if rng.random() < (0.8 if in_block else 0.15):
                lines.append(f"u{u},i{j},5")
        lines.append(f"u{u},i{u % n_items},5")
    path.write_text("\n".join(lines) + "\n")


def test_criterion_10_pipeline_determinism(tmp_path):
    _write_pipeline_dataset(tmp_path / "data.csv")
    artifacts = []
    for sub in ("run1", "run2"):
        config = PipelineConfig(
            data_path=str(tmp_path / "data.csv"),
            min_user_interactions=2,
            heldout_user_fraction=0.2,
            foldin_fraction=0.5,
            rng_seed=0,
            kind="ease",
            lam=5.0,
            cutoffs=(2, 5),
            output_dir=str(tmp_path / sub),
        )
        assert cmd_preprocess(config) == 0
        assert cmd_train(config) == 0
        assert cmd_evaluate(config, tmp_path / sub / "model_ease.bin") == 0
        artifacts.append((
            (tmp_path / sub / "model_ease.bin").read_bytes(),
            (tmp_path / sub / "eval_test_ease.json").read_bytes(),
        ))
    assert artifacts[0][0] == artifacts[1][0], "model files differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "evaluation JSON differs between runs"
    json.loads(artifacts[0][1].decode("utf-8"))  # well-formed report
