"""Batch command-line front end: preprocess, train, evaluate, recommend.

Configuration is a flat "key = value" text file (diff-friendly for
experiment logs) with command-line flags taking precedence. All artifacts
live under a single output directory: split files from ``preprocess``,
model and embedding binaries from ``train``, report JSON from
``evaluate``, and ranked CSVs from ``recommend``.

Exit codes: 0 success, 1 generic error, 2 I/O error, 3 capacity error,
4 compatibility (vocabulary) error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import artifact, linalg
from . import embedding as embedding_mod
from .autoencoder import SimilarityMatrix, ease, ridge
from .errors import (
    CapacityError,
    ConfigError,
    ParseError,
    VocabularyMismatchError,
    WhiterecError,
)
from .evalmetrics import evaluate, export_per_user_csv
from .ingest import (
    InteractionMatrix,
    SplitSpec,
    load_interactions,
    load_split,
    preprocess,
    read_lines,
    save_split,
    split_strong_generalization,
)
from .recommend import batch_recommend, export_ranked_csv
from .whitening import zca_similarity

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_IO = 2
EXIT_CAPACITY = 3
EXIT_COMPAT = 4

# What main returns for an error: the code of the first entry it is an
# instance of (CapacityError and ParseError are WhiterecErrors too).
EXIT_CODES = ((CapacityError, EXIT_CAPACITY), (VocabularyMismatchError, EXIT_COMPAT),
              (OSError, EXIT_IO), (ParseError, EXIT_IO),
              (WhiterecError, EXIT_GENERIC), (ValueError, EXIT_GENERIC))


@dataclass(frozen=True)
class ModelKind:
    """Builder and hyperparameters of one model kind.

    ``build(source, lam)`` gets the train matrix, or its SVD embeddings for
    kinds that read ``embedding_dim``. Builders look their solver up at
    call time, so a solver wrapped after import is the one that runs.
    """

    build: Callable[..., SimilarityMatrix]
    uses_lambda: bool = True
    uses_embedding_dim: bool = False


KINDS = {
    "ridge": ModelKind(lambda X, lam: ridge(X, lam)),
    "ease": ModelKind(lambda X, lam: ease(X, lam).B),
    "zca": ModelKind(lambda X, lam: zca_similarity(X, lam)),
    "embed_dot": ModelKind(lambda e, lam: embedding_mod.embed_dot(e),
                           uses_lambda=False, uses_embedding_dim=True),
    "embed_ridge": ModelKind(lambda e, lam: embedding_mod.embed_ridge(e, lam),
                             uses_embedding_dim=True),
    "embed_ease": ModelKind(lambda e, lam: embedding_mod.embed_ease(e, lam),
                            uses_embedding_dim=True),
}


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs, resolvable from file plus flags."""

    data_path: str | None = None
    data_format: str = "csv"
    rating_threshold: float | None = 4.0
    min_user_interactions: int = 5
    min_item_interactions: int = 1
    heldout_user_fraction: float = 0.1
    foldin_fraction: float = 0.8
    rng_seed: int = 0
    kind: str = "ridge"
    lam: float = 200.0
    embedding_dim: int | None = None
    cutoffs: tuple[int, ...] = (20, 50, 100)
    output_dir: str = "out"
    gram_byte_cap: int | None = None

    def split_spec(self) -> SplitSpec:
        return SplitSpec(**{f.name: getattr(self, f.name) for f in fields(SplitSpec)})

    def validate(self) -> None:
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown kind {self.kind!r}; choose one of {', '.join(KINDS)}")
        if kind.uses_lambda and not 0.0 < self.lam < math.inf:
            raise ConfigError(f"kind {self.kind!r} needs a finite lambda > 0, got {self.lam}")
        if kind.uses_embedding_dim and self.embedding_dim is None:
            raise ConfigError(f"kind {self.kind!r} requires embedding_dim")
        if not kind.uses_embedding_dim and self.embedding_dim is not None:
            raise ConfigError(f"embedding_dim is only valid for embed_* kinds, not {self.kind!r}")
        if kind.uses_embedding_dim and self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        try:
            self.split_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.gram_byte_cap is not None and self.gram_byte_cap < 1:
            raise ConfigError(f"gram_byte_cap must be >= 1, got {self.gram_byte_cap}")
        if not self.cutoffs or any(r < 1 for r in self.cutoffs):
            raise ConfigError(f"cutoffs must be positive, got {list(self.cutoffs)}")
        if self.data_format not in ("csv", "tsv"):
            raise ConfigError(f"data_format must be csv or tsv, got {self.data_format!r}")


_INT_KEYS = {"min_user_interactions", "min_item_interactions", "rng_seed",
             "embedding_dim", "gram_byte_cap"}
_FLOAT_KEYS = {"rating_threshold", "heldout_user_fraction", "foldin_fraction", "lam"}
_KEY_ALIASES = {"lambda": "lam", "seed": "rng_seed", "output": "output_dir"}


def parse_config_file(path: str | Path) -> dict:
    """Parse flat 'key = value' lines; '#' starts a comment, blanks ignored.

    Returns canonical PipelineConfig field names (aliases like "lambda",
    "seed", and "output" are resolved here) with values already typed.
    """
    try:
        lines = read_lines(path)
    except ParseError as exc:  # bytes that are not UTF-8
        raise ConfigError(str(exc)) from exc
    values: dict = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        values[key] = _parse_config_value(key, value.strip(), f"{path}: line {lineno}")
    return values


def _parse_config_value(key: str, value: str, where: str):
    try:
        if key == "cutoffs":
            return _parse_cutoffs(value)
        if key in _INT_KEYS:
            return None if value.lower() == "none" else int(value)
        if key in _FLOAT_KEYS:
            return None if value.lower() == "none" else float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    return value


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file entries, then command-line overrides."""
    config = PipelineConfig()
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        known = {f.name for f in fields(PipelineConfig)}
        for key in file_values:
            if key not in known:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
        config = replace(config, **file_values)
    # Flags share their dest with the PipelineConfig field they set.
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None}
    return replace(config, **overrides)


# ---------------------------------------------------------------------------
# Model persistence: header (kind, dim, lambda, embedding_dim), dim x dim
# values, item vocabulary. Lambda is NaN and embedding_dim 0 when unused.
# ---------------------------------------------------------------------------

MODEL_FILE = artifact.Layout(b"WREC-SIM", 1, "sIdI", lambda header: (header[1], header[1]))


def save_model(sim: SimilarityMatrix, item_ids: list[str], path: str | Path) -> None:
    """Write a model file (see artifact for the shared layout)."""
    if sim.kind not in KINDS:
        raise ValueError(f"cannot persist similarity of kind {sim.kind!r}")
    header = (sim.kind, sim.dim, float(sim.config.get("lambda", math.nan)),
              int(sim.config.get("embedding_dim") or 0))
    MODEL_FILE.write(path, header, sim.values, item_ids)


def load_model(path: str | Path) -> tuple[SimilarityMatrix, list[str]]:
    """Inverse of save_model; bit-exact on the matrix payload."""
    (kind, _, lam, embedding_dim), values, item_ids = MODEL_FILE.read(path)
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown model kind {kind!r}")
    config = {}
    if KINDS[kind].uses_lambda:
        config["lambda"] = lam
    if KINDS[kind].uses_embedding_dim:
        config["embedding_dim"] = embedding_dim
    return SimilarityMatrix(values, kind, config), item_ids


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_preprocess(config: PipelineConfig) -> int:
    if not config.data_path:
        raise ConfigError("preprocess needs a data path (config data_path or --data)")
    spec = config.split_spec()
    X = preprocess(load_interactions(config.data_path, config.data_format), spec)
    train, validation, test = split_strong_generalization(X, spec)
    n_drawn = spec.n_heldout_users(X.n_users)
    outdir = Path(config.output_dir)
    save_split(outdir, train, validation, test)
    splits = {"train": {"n_users": train.n_users, "nnz": train.nnz}}
    for name, heldout in (("validation", validation), ("test", test)):
        splits[name] = {
            "n_users": heldout.n_users,
            "nnz_foldin": heldout.foldin.nnz,
            "nnz_targets": heldout.targets.nnz,
            "excluded_users": n_drawn - heldout.n_users,
        }
    summary = {"n_items": train.n_items, "splits": splits, "rng_seed": config.rng_seed}
    with artifact.atomic_open(outdir / "summary.json", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote split to {outdir} "
          f"(train {train.n_users}x{train.n_items}, nnz {train.nnz})")
    return EXIT_OK


def train_similarity(config: PipelineConfig, train) -> SimilarityMatrix:
    """Build the configured similarity kind from a training matrix."""
    kind = KINDS[config.kind]
    if not kind.uses_embedding_dim:
        return kind.build(train, config.lam)
    # Embedding kinds share the factorization step.
    d = min(train.n_items - 1, config.embedding_dim) if train.n_items > 1 else 1
    d = min(d, train.n_users)
    emb = embedding_mod.svd_embed(train, d)
    embedding_mod.save_embeddings(
        emb, train.item_ids, Path(config.output_dir) / "embeddings.bin"
    )
    return kind.build(emb, config.lam)


def cmd_train(config: PipelineConfig) -> int:
    outdir = Path(config.output_dir)
    if not (outdir / "train.txt").exists():
        raise FileNotFoundError(f"{outdir / 'train.txt'}: run preprocess first")
    train, _, _ = load_split(outdir)
    started = time.perf_counter()
    sim = train_similarity(config, train)
    elapsed = time.perf_counter() - started
    model_path = outdir / f"model_{config.kind}.bin"
    save_model(sim, train.item_ids, model_path)
    print(f"trained kind={config.kind} dim={sim.dim} in {elapsed:.3f}s -> {model_path}")
    return EXIT_OK


def cmd_evaluate(config: PipelineConfig, model_path: str | Path,
                 split_name: str = "test") -> int:
    sim, model_items = load_model(model_path)
    outdir = Path(config.output_dir)
    _, validation, test = load_split(outdir)
    heldout = validation if split_name == "validation" else test
    if heldout.foldin.item_ids != model_items:
        raise VocabularyMismatchError(
            f"model vocabulary ({len(model_items)} items) does not match the "
            f"{split_name} split ({heldout.n_items} items)"
        )
    report = evaluate(heldout, sim, list(config.cutoffs))
    report_path = outdir / f"eval_{split_name}_{sim.kind}.json"
    with artifact.atomic_open(report_path, encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    export_per_user_csv(report, heldout.foldin.user_ids,
                        outdir / f"eval_{split_name}_{sim.kind}_per_user.csv")
    print(f"{'metric':<8}{'R':>6}{'mean':>12}")
    for (metric, r) in sorted(report.means):
        print(f"{metric:<8}{r:>6}{report.means[(metric, r)]:>12.5f}")
    print(f"evaluated {report.n_users_evaluated} users "
          f"({sum(report.excluded_users.values())} excluded) -> {report_path}")
    return EXIT_OK


def cmd_recommend(config: PipelineConfig, model_path: str | Path,
                  users_path: str | Path, n: int) -> int:
    if n < 1:
        raise ConfigError(f"top-N must be >= 1, got {n}")
    sim, item_ids = load_model(model_path)
    log = load_interactions(users_path, config.data_format)

    # Fold-in rows hold each user's known items that count as positive
    # (the rating threshold of preprocess applies), in order of the user's
    # first such item; users left with none get no row.
    item_index = {item: j for j, item in enumerate(item_ids)}
    cols = np.array([item_index.get(item, -1) for item in log.item_ids],
                    dtype=np.int64)[log.items]
    known = cols >= 0
    kept = known & log.positives(config.rating_threshold)
    skipped = len(log) - int(kept.sum())
    if skipped:
        unknown = len(log) - int(known.sum())
        print(f"warning: skipped {skipped} interactions ({unknown} with unknown item ids, "
              f"{skipped - unknown} rated below the threshold)", file=sys.stderr)
    users = log.users[kept]
    seen, first = np.unique(users, return_index=True)
    row_users = seen[np.argsort(first)]
    row_of = np.empty(len(log.user_ids), dtype=np.int64)
    row_of[row_users] = np.arange(len(row_users))
    foldin = InteractionMatrix.from_pairs(
        row_of[users], cols[kept], len(row_users), len(item_ids),
        [log.user_ids[u] for u in row_users.tolist()], item_ids)

    ranked = batch_recommend(foldin, sim, n)
    all_unknown = len(log.user_ids) - len(np.unique(log.users[known]))
    empty = sum(1 for rl in ranked if not rl.entries) + len(log.user_ids) - len(row_users)
    if empty:
        print(f"warning: {empty} users have no recommendations "
              f"({all_unknown} with only unknown item ids)", file=sys.stderr)

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / "recommendations.csv"
    export_ranked_csv(ranked, foldin.user_ids, item_ids, out_path)
    print(f"wrote {sum(len(rl.entries) for rl in ranked)} rows -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whiterec",
        description="Closed-form item-similarity models with whitening structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--kind", choices=tuple(KINDS), help="similarity model kind")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="regularization weight (also the whitening shift)")
        p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
        p.add_argument("--cutoffs", type=_parse_cutoffs,
                       help="comma-separated ranking cutoffs, e.g. 20,50,100")
        p.add_argument("--seed", dest="rng_seed", type=int,
                       help="seed for every random choice")
        p.add_argument("--output", dest="output_dir", help="artifact directory")

    p = sub.add_parser("preprocess", help="filter raw data and write splits")
    p.add_argument("--data", dest="data_path", help="raw interaction CSV/TSV path")
    p.add_argument("--format", dest="data_format", choices=("csv", "tsv"))
    add_common(p)

    p = sub.add_parser("train", help="fit a similarity model on the train split")
    add_common(p)

    p = sub.add_parser("evaluate", help="score a model on a held-out split")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--split", choices=("validation", "test"), default="test")
    add_common(p)

    p = sub.add_parser("recommend", help="rank items for users in a fold-in file")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--users", required=True, help="fold-in interactions CSV/TSV")
    p.add_argument("-N", "--topn", type=int, default=10, help="list length")
    p.add_argument("--format", dest="data_format", choices=("csv", "tsv"))
    add_common(p)
    return parser


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (status 0) or its "error:" line (status
        # 2, which is the I/O code here); a usage error is a generic error.
        return EXIT_OK if not exc.code else EXIT_GENERIC
    cap_token = None
    try:
        config = resolve_config(args)
        config.validate()
        if config.gram_byte_cap is not None:
            cap_token = linalg.GRAM_BYTE_CAP.set(config.gram_byte_cap)
        if args.command == "preprocess":
            return cmd_preprocess(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model, args.split)
        return cmd_recommend(config, args.model, args.users, args.topn)
    except tuple(error for error, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES if isinstance(exc, error))
    finally:
        if cap_token is not None:
            linalg.GRAM_BYTE_CAP.reset(cap_token)


if __name__ == "__main__":
    sys.exit(main())
