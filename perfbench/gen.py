"""Seeded synthetic inputs for the whiterec benchmark.

Everything here is a pure function of a workload spec and a seed, so the
same seed always yields byte-identical CSV files. The generator draws:

* item popularity from a Zipf law (p_i proportional to 1 / rank^a), with
  ranks shuffled over item ids so id order carries no popularity signal;
* user activity from a lognormal law, scaled to the requested event count;
* ratings 1-5 from a fixed distribution (RATING_P), so a known share falls
  below the pipeline's positive-feedback threshold of 4;
* a share of repeated (user, item) pairs, copies of earlier events of the
  same user, which the pipeline must deduplicate;
* timestamps, increasing along the log.

A fold-in file of new users (ids never seen in the log) drives the
``recommend`` command; a share of its item ids is unknown to every model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

RATING_P = np.array([0.10, 0.20, 0.30, 0.25, 0.15])  # ratings 1..5
RATING_THRESHOLD = 4.0


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs and the commands run on them."""

    name: str
    why: str
    n_users: int
    n_items: int
    n_events: int
    zipf_exponent: float
    activity_sigma: float
    repeat_share: float
    kinds: tuple[str, ...]
    embedding_dim: int
    heldout_user_fraction: float
    foldin_users: int
    foldin_mean_items: float
    foldin_unknown_share: float
    top_n: int

    def describe(self, l3_bytes: int | None) -> dict:
        """The properties that drive behaviour, for result files."""
        out = asdict(self)
        out["rating_below_threshold_share"] = float(RATING_P[:int(RATING_THRESHOLD) - 1].sum())
        model_bytes = self.n_items * self.n_items * 8
        out["model_mb"] = model_bytes / 1e6
        out["model_over_l3"] = model_bytes / l3_bytes if l3_bytes else None
        return out


def zipf_popularity(rng: np.random.Generator, n_items: int, exponent: float) -> np.ndarray:
    """Item probabilities p_i ~ 1 / rank_i^a with ranks shuffled over ids."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** exponent
    return rng.permutation(weights / weights.sum())


def interaction_log(w: Workload, seed: int) -> dict[str, np.ndarray]:
    """Columns user, item, rating, timestamp of one synthetic raw log."""
    rng = np.random.default_rng([seed, 0])
    activity = rng.lognormal(0.0, w.activity_sigma, w.n_users)
    per_user = rng.multinomial(w.n_events, activity / activity.sum())
    users = np.repeat(np.arange(w.n_users), per_user)
    items = rng.choice(w.n_items, size=w.n_events, p=zipf_popularity(rng, w.n_items, w.zipf_exponent))
    # Repeats copy the item of another event of the same user: events are
    # grouped by user here, so a neighbour in the same user block will do.
    repeat = rng.random(w.n_events) < w.repeat_share
    repeat[0] = False
    source = np.arange(w.n_events)
    source[repeat] -= 1
    same_user = users[source] == users
    items = np.where(repeat & same_user, items[source], items)
    ratings = rng.choice(np.arange(1, 6), size=w.n_events, p=RATING_P)
    order = rng.permutation(w.n_events)
    timestamps = 1_500_000_000 + np.cumsum(rng.integers(1, 60, size=w.n_events))
    return {
        "user": users[order],
        "item": items[order],
        "rating": ratings[order],
        "timestamp": timestamps,
    }


def foldin_log(w: Workload, seed: int) -> dict[str, np.ndarray]:
    """Columns user, item of new users to rank; some item ids are unknown."""
    rng = np.random.default_rng([seed, 1])
    sizes = 1 + rng.poisson(w.foldin_mean_items - 1, w.foldin_users)
    users = np.repeat(np.arange(w.foldin_users), sizes)
    n = int(sizes.sum())
    items = rng.choice(w.n_items, size=n, p=zipf_popularity(rng, w.n_items, w.zipf_exponent))
    unknown = rng.random(n) < w.foldin_unknown_share
    items = np.where(unknown, -1 - np.arange(n), items)
    return {"user": users, "item": items}


def write_csv(path, header: str, row_format: str, *columns: np.ndarray) -> None:
    """Write a header line, then one ``row_format`` line per row of columns."""
    rows = map(row_format.format, *(c.tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("".join(rows))


def generate(w: Workload, seed: int, outdir) -> dict[str, float]:
    """Write ``ratings.csv`` and ``foldin.csv`` under outdir; return measured shares."""
    log = interaction_log(w, seed)
    write_csv(outdir / "ratings.csv", "user,item,rating,timestamp", "u{},i{},{},{}\n",
              log["user"], log["item"], log["rating"], log["timestamp"])
    fold = foldin_log(w, seed)
    # Unknown ids are written as "x<k>", a namespace the log never uses.
    known = fold["item"] >= 0
    item_text = np.where(known, np.char.add("i", fold["item"].astype(str)),
                         np.char.add("x", (-fold["item"]).astype(str)))
    write_csv(outdir / "foldin.csv", "user,item", "n{},{}\n", fold["user"], item_text)
    pair = log["user"].astype(np.int64) * w.n_items + log["item"]
    return {
        "events": int(len(pair)),
        "users_with_events": int(np.unique(log["user"]).size),
        "items_with_events": int(np.unique(log["item"]).size),
        "repeated_pair_share": 1.0 - np.unique(pair).size / len(pair),
        "rating_below_threshold_share": float(np.mean(log["rating"] < RATING_THRESHOLD)),
        "foldin_rows": int(len(fold["item"])),
        "foldin_unknown_share": float(np.mean(fold["item"] < 0)),
    }
