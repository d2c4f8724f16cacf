import csv
import json
import math
import os
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

from whiterec import cli, ingest, linalg, recommend
from whiterec.autoencoder import SimilarityMatrix
from whiterec.cli import (
    EXIT_CAPACITY,
    EXIT_COMPAT,
    EXIT_GENERIC,
    EXIT_IO,
    EXIT_OK,
    KINDS,
    PipelineConfig,
    build_parser,
    cmd_evaluate,
    cmd_preprocess,
    cmd_train,
    load_model,
    main,
    parse_config_file,
    resolve_config,
    save_model,
)
from whiterec.errors import (CapacityError, ConfigError, NotSPDError, ParseError,
                             VocabularyMismatchError)
from whiterec.embedding import load_embeddings
from whiterec.ingest import HeldOutSet, InteractionMatrix, SplitSpec, save_split

from conftest import random_interactions


def write_dataset(path, n_users=40, n_items=10, seed=99):
    """Two-block synthetic ratings file: users prefer their block's items."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        block = u % 2
        for j in range(n_items):
            in_block = (j < n_items // 2) == (block == 0)
            p = 0.8 if in_block else 0.15
            if rng.random() < p:
                lines.append(f"u{u},i{j},5")
        lines.append(f"u{u},i{u % n_items},5")  # everyone has >= 1 item
    path.write_text("\n".join(lines) + "\n")


def base_config(tmp_path, **kwargs):
    defaults = dict(
        data_path=str(tmp_path / "data.csv"),
        min_user_interactions=2,
        heldout_user_fraction=0.2,
        foldin_fraction=0.5,
        rng_seed=0,
        lam=5.0,
        cutoffs=(2, 5),
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def write_config(tmp_path, extra=""):
    """A run.cfg for tmp_path's data.csv and out/, with base_config's split."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_path = {tmp_path / 'data.csv'}\noutput = {tmp_path / 'out'}\n"
                   "min_user_interactions = 2\nheldout_user_fraction = 0.2\n"
                   f"foldin_fraction = 0.5\nlambda = 5\n{extra}")
    return cfg


@pytest.fixture
def pipeline(tmp_path):
    write_dataset(tmp_path / "data.csv")
    config = base_config(tmp_path)
    assert cmd_preprocess(config) == EXIT_OK
    return tmp_path, config


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# experiment settings\n"
            "kind = ease\n"
            "lambda = 3.5\n"
            "cutoffs = 10,20\n"
            "rng_seed = 7\n"
            "rating_threshold = none\n"
        )
        values = parse_config_file(p)
        assert values["kind"] == "ease"
        assert values["lam"] == 3.5
        assert values["rng_seed"] == 7
        assert values["cutoffs"] == (10, 20)
        assert values["rating_threshold"] is None

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus = 1\n")
        import argparse
        args = argparse.Namespace(config=str(p))
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config(args)

    def test_threads_key_rejected(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("threads = 2\n")
        assert main(["train", "--config", str(p), "--output", str(tmp_path)]) == EXIT_GENERIC
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_min_count_zero_rejected_before_reading(self, tmp_path, capsys):
        # The data file does not exist: a late check would exit 2 on it.
        p = tmp_path / "run.cfg"
        p.write_text(f"data_path = {tmp_path / 'missing.csv'}\nmin_user_interactions = 0\n")
        with pytest.raises(ConfigError, match="minimum interaction counts"):
            PipelineConfig(min_user_interactions=0).validate()
        assert main(["preprocess", "--config", str(p), "--output", str(tmp_path)]) == EXIT_GENERIC
        assert "minimum interaction counts must be >= 1" in capsys.readouterr().err

    def test_form_feed_does_not_end_a_config_line(self, tmp_path, capsys):
        # One line by "\n": kind gets the value "ease\x0clambda = 3", not
        # two keys kind = ease and lambda = 3.
        p = tmp_path / "run.cfg"
        p.write_bytes(b"kind = ease\x0clambda = 3\n")
        assert main(["train", "--config", str(p), "--output", str(tmp_path)]) == EXIT_GENERIC
        err = capsys.readouterr().err
        assert "error:" in err and "kind" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap", [0, -5])
    def test_byte_cap_below_one_rejected_before_reading(self, tmp_path, capsys, cap):
        # The data file does not exist: a late check would exit 2 on it.
        p = tmp_path / "run.cfg"
        p.write_text(f"data_path = {tmp_path / 'missing.csv'}\ngram_byte_cap = {cap}\n")
        with pytest.raises(ConfigError, match="gram_byte_cap"):
            PipelineConfig(gram_byte_cap=cap).validate()
        assert main(["preprocess", "--config", str(p), "--output", str(tmp_path)]) == EXIT_GENERIC
        assert f"gram_byte_cap must be >= 1, got {cap}" in capsys.readouterr().err

    def test_repeated_cutoffs_rejected_before_reading(self, tmp_path, capsys):
        # The model does not exist: a late check would exit 2 on it, and with
        # no check the report listed [10, 10, 3] over metrics for 10 and 3.
        with pytest.raises(ConfigError, match="cutoffs must not repeat"):
            PipelineConfig(cutoffs=(10, 10, 3)).validate()
        assert main(["evaluate", "--model", str(tmp_path / "ghost.bin"), "--cutoffs",
                     "10,10,3", "--output", str(tmp_path)]) == EXIT_GENERIC
        assert "cutoffs must not repeat, got [10, 10, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("first, again, key", [
        ("kind = ridge", "kind = ease", "kind"),
        ("lambda = 1", "lam = 500", "lam"),
        ("seed = 1", "rng_seed = 2", "rng_seed"),
        ("output = a", "output_dir = b", "output_dir"),
    ], ids=["kind", "lambda-lam", "seed-rng_seed", "output-output_dir"])
    def test_repeated_key_rejected_before_reading(self, tmp_path, capsys, first, again, key):
        # The data file does not exist: a late check would exit 2 on it, and
        # with no check the later line won without a word.
        p = tmp_path / "run.cfg"
        p.write_text(f"{first}\ndata_path = {tmp_path / 'missing.csv'}\n{again}\n")
        with pytest.raises(ConfigError, match=f"line 3: .* sets {key} again \\(line 1 set it\\)"):
            parse_config_file(p)
        assert main(["preprocess", "--config", str(p)]) == EXIT_GENERIC
        assert f"error: {p}: line 3: {again.split()[0]!r} sets {key} again" in capsys.readouterr().err

    def test_every_flag_sets_its_field(self):
        args = build_parser().parse_args([
            "recommend", "--model", "m.bin", "--users", "u.csv", "--format", "tsv",
            "--kind", "embed_ridge", "--lambda", "3", "--embedding-dim", "4",
            "--cutoffs", "1,2", "--seed", "9", "--output", "o"])
        config = resolve_config(args)
        assert (config.data_format, config.kind, config.lam, config.embedding_dim,
                config.cutoffs, config.rng_seed, config.output_dir) == (
                "tsv", "embed_ridge", 3.0, 4, (1, 2), 9, "o")
        args = build_parser().parse_args(["preprocess", "--data", "d.csv"])
        assert resolve_config(args).data_path == "d.csv"

    def test_cli_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kind = ease\nlambda = 3.5\n")
        import argparse
        args = argparse.Namespace(config=str(p), kind="ridge", lam=None)
        config = resolve_config(args)
        assert config.kind == "ridge"
        assert config.lam == 3.5

    def test_embed_kind_requires_dim(self):
        with pytest.raises(ConfigError, match="embedding_dim"):
            PipelineConfig(kind="embed_ridge").validate()

    def test_embedding_dim_only_for_embed_kinds(self):
        with pytest.raises(ConfigError):
            PipelineConfig(kind="ridge", embedding_dim=8).validate()

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(kind="ease", lam=0.0).validate()
        PipelineConfig(kind="embed_dot", lam=0.0, embedding_dim=4).validate()

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig(kind="ease", lam=lam).validate()
        PipelineConfig(kind="embed_dot", lam=lam, embedding_dim=4).validate()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            PipelineConfig(kind="cosine").validate()

    def test_split_defaults_match_split_spec(self):
        # split_spec copies the six SplitSpec fields from the config.
        assert len(fields(SplitSpec)) == 6
        assert PipelineConfig().split_spec() == SplitSpec()

    def test_cutoffs_parse_the_same_from_file_and_flag(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("cutoffs = 5, 10,\n")
        assert parse_config_file(p)["cutoffs"] == build_parser().parse_args(
            ["train", "--cutoffs", "5, 10,"]).cutoffs == (5, 10)
        p.write_text("cutoffs = 5,x\n")
        with pytest.raises(ConfigError, match="line 1: bad value for cutoffs"):
            parse_config_file(p)
        # argparse reports only a ValueError from a type= function as a usage error.
        assert main(["train", "--cutoffs", "5,x"]) == EXIT_GENERIC
        assert "invalid _parse_cutoffs value: '5,x'" in capsys.readouterr().err


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.normal(size=(4, 4))
        sim = SimilarityMatrix(values, "ridge", {"lambda": 2.0, "form": "primal"})
        items = [f"i{k}" for k in range(4)]
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(sim, items, p1)
        back, back_items = load_model(p1)
        np.testing.assert_array_equal(back.values, values)
        assert back.kind == "ridge"
        assert back.config["lambda"] == 2.0
        assert back_items == items
        save_model(back, back_items, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        sim = SimilarityMatrix(np.eye(2), "ease", {"lambda": 1.0})
        save_model(sim, ["a", "b"], tmp_path / "m.bin")
        raw = (tmp_path / "m.bin").read_bytes()
        assert raw[:8] == b"WREC-SIM"
        assert int.from_bytes(raw[8:12], "little") == 1

    def test_embed_dot_lambda_absent(self, tmp_path):
        sim = SimilarityMatrix(np.eye(2), "embed_dot", {"embedding_dim": 2})
        save_model(sim, ["a", "b"], tmp_path / "m.bin")
        back, _ = load_model(tmp_path / "m.bin")
        assert "lambda" not in back.config
        assert back.config["embedding_dim"] == 2

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"BADMAGIC" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_model(p)

    def test_unknown_kind_rejected(self, tmp_path):
        sim = SimilarityMatrix(np.eye(2), "random", {})
        with pytest.raises(ValueError):
            save_model(sim, ["a", "b"], tmp_path / "m.bin")


class TestPreprocessCommand:
    def test_writes_artifacts(self, pipeline):
        tmp_path, _ = pipeline
        out = tmp_path / "out"
        for name in ("train.txt", "validation_foldin.txt", "validation_targets.txt",
                     "test_foldin.txt", "test_targets.txt", "items.txt",
                     "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["splits"]["train"]["n_users"] > 0

    def test_excluded_users_in_summary(self, tmp_path):
        # Odd users hold a and two items of their own; when one is held
        # out, its own items have no training interactions and are dropped,
        # which leaves its fold-in or its targets empty. Even users keep
        # a, b and c and are never excluded.
        lines = []
        for u in range(40):
            own = [f"x{u}", f"y{u}"] if u % 2 else ["b", "c"]
            lines += [f"u{u},{item}" for item in ["a", *own]]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["preprocess", "--config", str(write_config(tmp_path))]) == EXIT_OK
        messages = [str(w.message) for w in caught]
        splits = json.loads((out / "summary.json").read_text())["splits"]
        for name in ("validation", "test"):
            excluded = splits[name]["excluded_users"]
            assert excluded > 0
            assert (f"{name} split excluded {excluded} users with empty fold-in or targets"
                    in messages)
            users = (out / f"{name}_users.txt").read_text().split()
            assert len(users) == 8 - excluded
            assert all(int(u[1:]) % 2 == 0 for u in users)

    def test_missing_input_exit_2(self, tmp_path):
        code = main(["preprocess", "--data", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("prefix", ["\ufeff", "\ufeffuser,item,rating\n",
                                        "\n\nuser,item,rating\n",
                                        "\ufeff\nuser,item,rating,timestamp\n"])
    def test_header_and_byte_order_mark_are_not_events(self, tmp_path, prefix):
        # The same events with and without the prefix give the same files:
        # no phantom user "\ufeffuser" or "\ufeffu0", no item "item".
        write_dataset(tmp_path / "data.csv")
        (tmp_path / "pre.csv").write_text(prefix + (tmp_path / "data.csv").read_text(), "utf-8")
        for name in ("data", "pre"):
            assert main(["preprocess", "--data", str(tmp_path / f"{name}.csv"),
                         "--output", str(tmp_path / name)]) == EXIT_OK
        assert ({p.name: p.read_bytes() for p in (tmp_path / "data").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "pre").iterdir()})

    def test_same_seed_identical_files(self, tmp_path):
        write_dataset(tmp_path / "data.csv")
        for sub in ("a", "b"):
            config = base_config(tmp_path, output_dir=str(tmp_path / sub))
            cmd_preprocess(config)
        for name in ("train.txt", "test_foldin.txt", "test_targets.txt", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name


class TestVocabularySidecars:
    """Ids survive the one-id-per-line sidecars, or preprocess refuses them."""

    def write_data(self, tmp_path, user, item):
        # u0 and item i3 are renamed; both keep enough interactions to survive.
        write_dataset(tmp_path / "plain.csv")
        rename = {"u0": user, "i3": item}
        with open(tmp_path / "plain.csv", newline="") as src, \
                open(tmp_path / "data.csv", "w", newline="", encoding="utf-8") as dst:
            writer = csv.writer(dst)
            for u, i, r in csv.reader(src):
                writer.writerow([rename.get(u, u), rename.get(i, i), r])

    def run(self, tmp_path, command):
        return main([command, "--config", str(write_config(tmp_path))])

    @pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                    "\x1c", "\x1d", "\x1e"])
    def test_unicode_line_separators_round_trip(self, tmp_path, ch):
        user, item = f"u{ch}0", f"i{ch}3"
        self.write_data(tmp_path, user, item)
        assert self.run(tmp_path, "preprocess") == EXIT_OK
        assert self.run(tmp_path, "train") == EXIT_OK
        _, model_items = load_model(tmp_path / "out" / "model_ridge.bin")
        assert item in model_items
        users = [(tmp_path / "out" / f"{name}_users.txt").read_text(encoding="utf-8")
                 for name in ("train", "validation", "test")]
        assert sum(text.split("\n").count(user) for text in users) == 1

    @pytest.mark.parametrize("item", ['two\n"lines"', "cr\rid", "crlf\r\nid"])
    def test_line_break_in_id_rejected_before_writing(self, tmp_path, capsys, item):
        self.write_data(tmp_path, "u0", item)
        assert self.run(tmp_path, "preprocess") == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(item) in err
        assert not (tmp_path / "out").exists()

    def test_line_break_in_user_id_rejected(self, tmp_path, capsys):
        self.write_data(tmp_path, "u\n0", "i3")
        assert self.run(tmp_path, "preprocess") == EXIT_IO
        assert repr("u\n0") in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("sidecar", ["items.txt", "train_users.txt", "test_users.txt"])
    def test_sidecar_one_line_short_exit_2(self, pipeline, capsys, command, sidecar):
        tmp_path, config = pipeline
        assert cmd_train(config) == EXIT_OK
        path = tmp_path / "out" / sidecar
        path.write_text("".join(f"{x}\n" for x in path.read_text().splitlines()[:-1]))
        code = main([command, "--output", str(tmp_path / "out"), "--lambda", "5",
                     *(["--model", str(tmp_path / "out" / "model_ridge.bin")]
                       if command == "evaluate" else [])])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_repeated_item_id_exit_2(self, pipeline, capsys, command):
        tmp_path, config = pipeline
        assert cmd_train(config) == EXIT_OK
        model = tmp_path / "out" / "model_ridge.bin"
        before = model.read_bytes()
        path = tmp_path / "out" / "items.txt"
        ids = path.read_text().splitlines()
        path.write_text("".join(f"{x}\n" for x in [ids[0], ids[0], *ids[2:]]))
        code = main([command, "--output", str(tmp_path / "out"), "--lambda", "5",
                     *(["--model", str(model)] if command == "evaluate" else [])])
        assert code == EXIT_IO
        assert f"error: {path}: line 2: id {ids[0]!r} repeats line 1" in capsys.readouterr().err
        assert model.read_bytes() == before


class TestTrainCommand:
    @pytest.mark.parametrize("kind", [k for k in KINDS if not KINDS[k].uses_embedding_dim])
    def test_plain_kinds(self, pipeline, kind):
        tmp_path, config = pipeline
        config = base_config(tmp_path, kind=kind)
        assert cmd_train(config) == EXIT_OK
        sim, items = load_model(tmp_path / "out" / f"model_{kind}.bin")
        assert sim.kind == kind
        assert len(items) == sim.dim

    @pytest.mark.parametrize("kind", [k for k in KINDS if KINDS[k].uses_embedding_dim])
    def test_embed_kinds(self, pipeline, kind):
        tmp_path, config = pipeline
        config = base_config(tmp_path, kind=kind, embedding_dim=4)
        assert cmd_train(config) == EXIT_OK
        sim, _ = load_model(tmp_path / "out" / f"model_{kind}.bin")
        assert sim.kind == kind
        assert (tmp_path / "out" / "embeddings.bin").exists()

    def test_ease_zero_diagonal_after_round_trip(self, pipeline):
        tmp_path, _ = pipeline
        config = base_config(tmp_path, kind="ease")
        cmd_train(config)
        sim, _ = load_model(tmp_path / "out" / "model_ease.bin")
        assert np.all(np.diag(sim.values) == 0.0)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.parametrize("kind", [k for k in KINDS if KINDS[k].uses_lambda])
    def test_non_finite_lambda_writes_no_model(self, pipeline, capsys, kind, lam):
        tmp_path, _ = pipeline
        dim = ["--embedding-dim", "4"] if KINDS[kind].uses_embedding_dim else []
        code = main(["train", "--output", str(tmp_path / "out"), "--kind", kind,
                     "--lambda", lam, *dim])
        assert code == EXIT_GENERIC
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "out" / f"model_{kind}.bin").exists()

    def test_missing_split_is_io_error(self, tmp_path):
        config = base_config(tmp_path, output_dir=str(tmp_path / "nowhere"))
        with pytest.raises(FileNotFoundError):
            cmd_train(config)

    @pytest.mark.parametrize("corrupt", ["index outside", "duplicate pair", "beyond int64"])
    def test_corrupt_split_exit_2(self, pipeline, capsys, corrupt):
        tmp_path, _ = pipeline
        train = tmp_path / "out" / "train.txt"
        header, first, *rest = train.read_text().splitlines()
        n_users, n_items, _ = header.split()
        # int() reads a pair beyond int64; np.loadtxt, which reads split files, does not.
        bad = {"index outside": f"{n_users} 0", "duplicate pair": first,
               "beyond int64": "99999999999999999999 1"}[corrupt]
        train.write_text("\n".join([header, first, bad, *rest[1:]]) + "\n")
        code = main(["train", "--output", str(tmp_path / "out"), "--lambda", "5"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "train.txt: line 3" in err and "Traceback" not in err

    def test_form_feed_does_not_end_a_split_line(self, tmp_path, capsys):
        # Only "\n" ends a line: the one pair line "0 0\x0c1 1" is not two
        # pairs, so the header's count of 2 is not met.
        items = ["x", "y"]
        train = InteractionMatrix.from_pairs([0, 1], [0, 1], 2, 2, ["a", "b"], items)
        fold = InteractionMatrix.from_pairs([0], [0], 1, 2, ["v"], items)
        targ = InteractionMatrix.from_pairs([0], [1], 1, 2, ["v"], items)
        out = tmp_path / "out"
        save_split(out, train, HeldOutSet(fold, targ), HeldOutSet(fold, targ))
        (out / "train.txt").write_bytes(b"2 2 2\n0 0\x0c1 1\n")
        code = main(["train", "--output", str(out), "--lambda", "5", "--kind", "ridge"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "error:" in err and "train.txt" in err and "Traceback" not in err
        assert not (out / "model_ridge.bin").exists()

    def test_capacity_exit_3(self, tmp_path):
        write_dataset(tmp_path / "data.csv")
        cfg_file = write_config(tmp_path, "gram_byte_cap = 64\n")
        # Preprocessing never builds a Gram matrix, so it passes even with
        # the tiny cap; training then trips it.
        assert main(["preprocess", "--config", str(cfg_file)]) == EXIT_OK
        code = main(["train", "--config", str(cfg_file), "--kind", "ridge"])
        assert code == EXIT_CAPACITY

    @pytest.mark.parametrize("kind, wide", [pytest.param(kind, wide, id=kind + "-wide" * wide)
                                            for wide in (False, True) for kind in sorted(KINDS)])
    def test_training_peak_checked_before_any_work(self, tmp_path, monkeypatch, capsys, counted,
                                                   kind, wide):
        # Each route checks its whole peak before it allocates, and train
        # checks the embedding step before svd_embed: one byte under the
        # largest count of an uncapped run, train exits 3 before a Gram is
        # counted; at that count it trains. A wide split (fewer train users
        # than items) takes the dual routes.
        write_dataset(tmp_path / "data.csv", **({"n_users": 12, "n_items": 40} if wide else {}))
        assert main(["preprocess", "--config", str(write_config(tmp_path))]) == EXIT_OK
        n_users = len((tmp_path / "out" / "train_users.txt").read_text().splitlines())
        n_items = len((tmp_path / "out" / "items.txt").read_text().splitlines())
        assert (n_users < n_items) == wide
        dim = ["--embedding-dim", "3"] if KINDS[kind].uses_embedding_dim else []
        argv = ["train", "--config", str(write_config(tmp_path)), "--kind", kind, *dim]
        assert main(argv) == EXIT_OK
        peak = max(counted)
        model = tmp_path / "out" / f"model_{kind}.bin"
        model.unlink()
        capsys.readouterr()
        # A Gram counts once gram has returned.
        grams = []
        gram = linalg.gram

        def recorded_gram(*args, **kw):
            g = gram(*args, **kw)
            grams.append(g.shape)
            return g

        monkeypatch.setattr(linalg, "gram", recorded_gram)
        argv[2] = str(write_config(tmp_path, f"gram_byte_cap = {peak - 1}\n"))
        assert main(argv) == EXIT_CAPACITY
        err = capsys.readouterr().err
        # The message names the route, |U| and |I|, not an array shape.
        assert err.count("error:") == 1 and f"needs {peak} bytes" in err
        assert f"(|U|={n_users}, |I|={n_items}" in err and "shape" not in err
        assert grams == [] and not model.exists()
        argv[2] = str(write_config(tmp_path, f"gram_byte_cap = {peak}\n"))
        assert main(argv) == EXIT_OK
        assert grams and model.exists()

    def test_byte_cap_restored_after_main(self, tmp_path):
        write_dataset(tmp_path / "data.csv")
        cfg_file = write_config(tmp_path, "gram_byte_cap = 64\n")
        assert main(["preprocess", "--config", str(cfg_file)]) == EXIT_OK
        assert main(["train", "--config", str(cfg_file), "--kind", "ridge"]) == EXIT_CAPACITY
        assert linalg.GRAM_BYTE_CAP.get() == 1 << 30

    def test_ridge_equals_zca_end_to_end(self, pipeline):
        tmp_path, _ = pipeline
        for kind in ("ridge", "zca"):
            cmd_train(base_config(tmp_path, kind=kind, lam=5.0))
        ridge_sim, _ = load_model(tmp_path / "out" / "model_ridge.bin")
        zca_sim, _ = load_model(tmp_path / "out" / "model_zca.bin")
        diff = np.linalg.norm(ridge_sim.values - zca_sim.values)
        assert diff <= 1e-8 * np.linalg.norm(ridge_sim.values)

    def test_train_deterministic(self, tmp_path):
        write_dataset(tmp_path / "data.csv")
        blobs = []
        for sub in ("a", "b"):
            config = base_config(tmp_path, kind="ease",
                                 output_dir=str(tmp_path / sub))
            cmd_preprocess(config)
            cmd_train(config)
            blobs.append((tmp_path / sub / "model_ease.bin").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("shape", [(30, 8), (8, 30)], ids=["tall", "wide"])
    def test_every_kind_forms_its_grams_in_linalg_gram(self, tmp_path, monkeypatch, shape):
        # Every Gram of X is counted inside linalg.gram: none escapes its
        # span in a traced run.
        X = random_interactions(np.random.default_rng(7), *shape)
        grams, inside = [], []
        gram, pair_counts = linalg.gram, linalg._pair_counts

        def spy_gram(M):
            grams.append(M.shape)
            inside.append(True)
            try:
                return gram(M)
            finally:
                inside.pop()

        def spy_pair_counts(m):
            assert inside, "a Gram of X was counted outside linalg.gram"
            return pair_counts(m)

        monkeypatch.setattr(linalg, "gram", spy_gram)
        monkeypatch.setattr(linalg, "_pair_counts", spy_pair_counts)
        for kind, spec in KINDS.items():
            grams.clear()
            config = base_config(tmp_path, kind=kind, output_dir=str(tmp_path),
                                 embedding_dim=4 if spec.uses_embedding_dim else None)
            cli.train_similarity(config, X)
            assert grams, kind

    @pytest.mark.parametrize("wide, dim, trained", [(False, 6, 6), (False, 9, 6), (True, 7, 6)])
    def test_embedding_dim_capped_at_smaller_side(self, tmp_path, capsys, wide, dim, trained):
        dense = np.vstack([np.eye(6), [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0]]])
        X = InteractionMatrix.from_dense(dense.T if wide else dense)
        config = base_config(tmp_path, kind="embed_ridge", embedding_dim=dim,
                             output_dir=str(tmp_path))
        cli.train_similarity(config, X)
        emb, _ = load_embeddings(tmp_path / "embeddings.bin")
        assert emb.values.shape == (trained, X.n_items)
        err = capsys.readouterr().err
        if dim == trained:
            assert err == ""
        else:
            assert err == (f"warning: embedding_dim {dim} exceeds min(|U|, |I|) = {trained} "
                           f"of the train split; training with {trained}\n")


class TestEvaluateCommand:
    def test_metrics_in_range(self, pipeline, capsys):
        tmp_path, _ = pipeline
        config = base_config(tmp_path, kind="ridge")
        cmd_train(config)
        code = cmd_evaluate(config, tmp_path / "out" / "model_ridge.bin")
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "eval_test_ridge.json").read_text())
        for metric in ("recall", "ndcg"):
            for value in report["metrics"][metric].values():
                assert 0.0 <= value <= 1.0
        out = capsys.readouterr().out
        assert "recall" in out and "ndcg" in out

    def test_perfect_oracle_model(self, tmp_path):
        # One held-out user whose fold-in rows point straight at the targets.
        items = [f"i{k}" for k in range(4)]
        train = InteractionMatrix.from_dense(np.ones((2, 4)), ["t0", "t1"], items)
        fold = InteractionMatrix.from_dense([[1, 1, 0, 0]], ["v0"], items)
        targ = InteractionMatrix.from_dense([[0, 0, 1, 1]], ["v0"], items)
        heldout = HeldOutSet(fold, targ)
        out = tmp_path / "out"
        save_split(out, train, heldout, heldout)
        values = np.zeros((4, 4))
        values[0, 2] = values[0, 3] = values[1, 2] = values[1, 3] = 1.0
        save_model(SimilarityMatrix(values, "ridge", {"lambda": 1.0}),
                   items, out / "model_ridge.bin")
        config = base_config(tmp_path, cutoffs=(1, 2))
        cmd_evaluate(config, out / "model_ridge.bin")
        report = json.loads((out / "eval_test_ridge.json").read_text())
        assert report["metrics"]["recall"]["2"] == 1.0
        assert report["metrics"]["ndcg"]["2"] == 1.0

    def test_evaluate_twice_identical_bytes(self, pipeline):
        tmp_path, _ = pipeline
        config = base_config(tmp_path, kind="ridge")
        cmd_train(config)
        model = tmp_path / "out" / "model_ridge.bin"
        cmd_evaluate(config, model)
        first = (tmp_path / "out" / "eval_test_ridge.json").read_bytes()
        cmd_evaluate(config, model)
        second = (tmp_path / "out" / "eval_test_ridge.json").read_bytes()
        assert first == second

    def test_vocabulary_mismatch_exit_4(self, pipeline, tmp_path):
        _, config = pipeline
        cmd_train(base_config(tmp_path, kind="ridge"))
        other = tmp_path / "other"
        write_dataset(tmp_path / "data2.csv", n_items=8, seed=5)
        config2 = base_config(tmp_path, data_path=str(tmp_path / "data2.csv"),
                              output_dir=str(other))
        cmd_preprocess(config2)
        with pytest.raises(VocabularyMismatchError):
            cmd_evaluate(config2, tmp_path / "out" / "model_ridge.bin")
        code = main(["evaluate", "--model", str(tmp_path / "out" / "model_ridge.bin"),
                     "--output", str(other)])
        assert code == EXIT_COMPAT

    def test_missing_model_exit_2(self, pipeline, tmp_path):
        code = main(["evaluate", "--model", str(tmp_path / "ghost.bin"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_IO


class TestRecommendCommand:
    @staticmethod
    def recommend(tmp_path, text, *flags, values=((0.0, 1.0), (1.0, 0.0))):
        """Run recommend through main on a fold-in file and a hand model whose
        items are item0, item1, ...; return the exit code and the CSV rows."""
        model, users, out = tmp_path / "model.bin", tmp_path / "users.csv", tmp_path / "out"
        save_model(SimilarityMatrix(np.array(values), "ridge", {"lambda": 1.0}),
                   [f"item{j}" for j in range(len(values))], model)
        users.write_text(text, "utf-8")
        code = main(["recommend", "--model", str(model), "--users", str(users), "-N", "1",
                     "--output", str(out), *flags])
        csv_path = out / "recommendations.csv"
        return code, csv_path.read_text().splitlines()[1:] if csv_path.exists() else None

    def test_hand_scored_recommendation(self, tmp_path):
        assert self.recommend(tmp_path, "alice,item0\n") == (EXIT_OK, ["alice,1,item1,1.0"])

    def test_unknown_items_warned_and_skipped(self, tmp_path, capsys):
        code, rows = self.recommend(tmp_path, "alice,item0\nalice,mystery\nbob,mystery\n")
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "2" in err and "unknown" in err
        assert len(rows) == 1  # alice only; bob had nothing usable

    def test_users_with_only_unknown_items_counted(self, tmp_path, capsys):
        text = "bob,mystery\nalice,item0\ncarol,enigma\ncarol,mystery\n"
        assert self.recommend(tmp_path, text) == (EXIT_OK, ["alice,1,item1,1.0"])
        assert ("2 users have no recommendations (2 with only unknown item ids)"
                in capsys.readouterr().err)

    def test_rows_in_order_of_first_known_item(self, tmp_path):
        assert self.recommend(tmp_path, "bob,mystery\nalice,item0\nbob,item1\n") == (
            EXIT_OK, ["alice,1,item1,1.0", "bob,1,item0,1.0"])

    def test_rating_threshold_applies_to_foldin(self, tmp_path, capsys):
        # alice rated item0 below the threshold: it is neither history nor
        # seen, so it can be recommended, and it is what item1 points to.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rating_threshold = 4\n")
        values = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.5), (0.0, 0.0, 0.0))
        assert self.recommend(tmp_path, "alice,item0,1\nalice,item1,5\nbob,item2,2\n",
                              "--config", str(cfg), values=values) == (
            EXIT_OK, ["alice,1,item0,1.0"])
        err = capsys.readouterr().err
        assert "skipped 2 interactions (0 with unknown item ids, 2 rated below" in err
        assert "1 users have no recommendations (0 with only unknown item ids)" in err

    @pytest.mark.parametrize("text", ["\ufeffuser,item\nalice,item0\n",
                                      "\n\nuser,item,rating\nalice,item0,5\n",
                                      "\ufeffalice,item0\n"])
    def test_header_and_byte_order_mark_in_foldin(self, tmp_path, capsys, text):
        assert self.recommend(tmp_path, text) == (EXIT_OK, ["alice,1,item1,1.0"])
        assert "warning" not in capsys.readouterr().err

    def test_topn_zero_is_usage_error(self, tmp_path):
        assert self.recommend(tmp_path, "alice,item0\n", "-N", "0") == (EXIT_GENERIC, None)


class TestRecommendWorkers:
    """recommend with its rows split over forked workers (fork threshold forced to 1)."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        """Call with nothing: runs recommend on four users over three workers and
        returns the exit code, after checking that no child outlived main and
        that no DeprecationWarning was emitted."""
        model, users = tmp_path / "model.bin", tmp_path / "users.csv"
        values = np.arange(16.0).reshape(4, 4) / 8
        save_model(SimilarityMatrix(values, "ridge", {"lambda": 1.0}),
                   [f"item{j}" for j in range(4)], model)
        users.write_text("alice,item0\nbob,item1\ncarol,item2\ndave,item3\ndave,item0\n")
        monkeypatch.setattr(recommend, "FORK_MIN_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["recommend", "--model", str(model), "--users", str(users),
                             "-N", "2", "--output", str(tmp_path / "out")])
            assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            return code
        return run

    @staticmethod
    def before_formatting(monkeypatch, parent=None, child=None):
        """Call ``parent()`` before this process formats its shard, ``child()``
        before a worker formats its own."""
        pid, real = os.getpid(), recommend._format_shard

        def formatter(*args):
            action = parent if os.getpid() == pid else child
            if action:
                action()
            yield from real(*args)
        monkeypatch.setattr(recommend, "_format_shard", formatter)

    def test_forked_run_matches_serial(self, run, tmp_path, monkeypatch, capsys):
        assert run() == EXIT_OK
        forked = (tmp_path / "out" / "recommendations.csv").read_bytes()
        out = capsys.readouterr().out
        monkeypatch.setattr(recommend, "FORK_MIN_ROWS", 10**9)
        assert run() == EXIT_OK
        assert (tmp_path / "out" / "recommendations.csv").read_bytes() == forked
        assert capsys.readouterr().out == out
        assert "wrote 8 rows" in out
        assert forked.count(b"\r\n") == 9

    def test_failing_worker_is_one_error_line(self, run, tmp_path, monkeypatch, capsys):
        def broken():
            raise RuntimeError("shard formatter broke")
        self.before_formatting(monkeypatch, child=broken)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "recommendations.csv").write_bytes(b"previous")
        assert run() == EXIT_GENERIC
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: ranking worker for fold-in rows 1-1 failed with status 1: "
            "RuntimeError: shard formatter broke"]
        assert "Traceback" not in captured.err and "wrote" not in captured.out
        assert (tmp_path / "out" / "recommendations.csv").read_bytes() == b"previous"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["recommendations.csv"]

    def test_failure_in_this_process_kills_the_workers(self, run, tmp_path, monkeypatch,
                                                       capsys):
        def broken():
            raise ValueError("first shard broke")
        self.before_formatting(monkeypatch, parent=broken, child=lambda: time.sleep(30))
        started = time.monotonic()
        assert run() == EXIT_GENERIC
        assert time.monotonic() - started < 10  # the stalled workers were killed
        assert capsys.readouterr().err.strip() == "error: first shard broke"
        assert list((tmp_path / "out").iterdir()) == []


class TestExitCodes:
    """Each documented error class reaches its exit code through main."""

    @pytest.mark.parametrize("error, code", [
        (CapacityError, EXIT_CAPACITY), (VocabularyMismatchError, EXIT_COMPAT),
        (ParseError, EXIT_IO), (OSError, EXIT_IO), (FileNotFoundError, EXIT_IO),
        (NotSPDError, EXIT_GENERIC), (ConfigError, EXIT_GENERIC), (ValueError, EXIT_GENERIC)])
    def test_error_exit_code(self, tmp_path, monkeypatch, capsys, error, code):
        def fail(config):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_train", fail)
        assert main(["train", "--output", str(tmp_path)]) == code
        assert capsys.readouterr().err == "error: boom\n"


class TestUsageErrors:
    """argparse's usage errors exit 1, the generic code, not its default 2."""

    @pytest.mark.parametrize("argv", [["train", "--lambda", "abc"], ["train", "--bogus"],
                                      ["evaluate"], ["frobnicate"], []])
    def test_usage_error_exit_1(self, capsys, argv):
        assert main(argv) == EXIT_GENERIC
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_help_exit_0(self, capsys):
        assert main(["train", "--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestBadInput:
    """Malformed input ends with its documented exit code and one error
    line naming the file and line, never a traceback."""

    @staticmethod
    def error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    def test_model_vocabulary_repeats_an_id_exit_2(self, pipeline, capsys, command):
        tmp_path, config = pipeline
        cmd_train(config)
        out = tmp_path / "out"
        model = out / "model_ridge.bin"
        sim, items = load_model(model)
        save_model(sim, [items[0], *items[:-1]], model)
        (tmp_path / "users.csv").write_text(f"alice,{items[1]}\n")
        argv = {"evaluate": [], "recommend": ["--users", str(tmp_path / "users.csv")]}
        code = main([command, "--model", str(model), "--output", str(out), *argv[command]])
        assert code == EXIT_IO
        assert (f"{model}: vocabulary entry 2: id {items[0]!r} repeats vocabulary entry 1"
                in self.error(capsys))
        assert not (out / "recommendations.csv").exists()
        assert not (out / "eval_test_ridge.json").exists()

    def test_log_not_utf8_exit_2(self, tmp_path, capsys):
        write_dataset(tmp_path / "data.csv")
        data = tmp_path / "data.csv"
        n_lines = data.read_text().count("\n")
        data.write_bytes(data.read_bytes() + "u\xe9,i2,5\n".encode("latin-1"))
        code = main(["preprocess", "--data", str(data), "--output", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert f"{data}: line {n_lines + 1}: not UTF-8 text" in self.error(capsys)
        assert not (tmp_path / "out").exists()

    def test_log_not_utf8_line_counts_carriage_returns(self, tmp_path, capsys):
        # csv.reader ends a line at a lone "\r" too, so the bad byte is on
        # line 2, where an empty id in its place is reported.
        data, out = tmp_path / "data.csv", str(tmp_path / "out")
        for body, what in ((b"u\xe9", "not UTF-8 text"), (b"", "empty user or item id")):
            data.write_bytes(b"u1,i1,5\r" + body + b",i2,5\n")
            assert main(["preprocess", "--data", str(data), "--output", out]) == EXIT_IO
            assert f"{data}: line 2: {what}" in self.error(capsys)

    def test_log_error_before_a_bad_byte_reported_first(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"u1,,5\nu\xe9,i,5\n")
        code = main(["preprocess", "--data", str(data), "--output", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert f"{data}: line 1: empty user or item id" in self.error(capsys)

    def test_foldin_not_utf8_exit_2(self, tmp_path, capsys):
        model, users = tmp_path / "model.bin", tmp_path / "users.csv"
        save_model(SimilarityMatrix(np.eye(2), "ridge", {"lambda": 1.0}), ["a", "b"], model)
        users.write_bytes(b"alice,a\nb\xe9b,b\n")
        code = main(["recommend", "--model", str(model), "--users", str(users),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert f"{users}: line 2: not UTF-8 text" in self.error(capsys)

    def test_sidecar_not_utf8_exit_2(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert cmd_train(config) == EXIT_OK
        path = tmp_path / "out" / "test_users.txt"
        path.write_bytes(b"\xff" + path.read_bytes())
        code = main(["evaluate", "--output", str(tmp_path / "out"),
                     "--model", str(tmp_path / "out" / "model_ridge.bin")])
        assert code == EXIT_IO
        assert self.error(capsys).startswith(f"error: {path}: line 1: not UTF-8 text")

    def test_config_not_utf8_exit_1(self, tmp_path, capsys):
        write_dataset(tmp_path / "data.csv")
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + "# caf\xe9\n".encode("latin-1"))
        assert main(["preprocess", "--config", str(cfg)]) == EXIT_GENERIC
        assert self.error(capsys).startswith(f"error: {cfg}: line 7: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_field_over_csv_limit_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(f"u1,i1,5\nu1,i2,5\nu2,{'x' * 200_000},5\n")
        limit = csv.field_size_limit()
        code = main(["preprocess", "--data", str(data), "--output", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert f"{data}: line 3: field larger than field limit" in self.error(capsys)
        assert csv.field_size_limit() == limit
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected_before_reading(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="rng_seed must be >= 0, got -1"):
            PipelineConfig(rng_seed=-1).validate()
        write_dataset(tmp_path / "data.csv")
        cfg = write_config(tmp_path)
        assert main(["preprocess", "--config", str(cfg), "--seed", "-1"]) == EXIT_GENERIC
        assert "rng_seed must be >= 0, got -1" in self.error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_rating_threshold_rejected_before_reading(self, tmp_path, capsys,
                                                                 threshold):
        # A NaN threshold kept every rating; the data file does not exist,
        # so a late check would exit 2 on it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_path = {tmp_path / 'missing.csv'}\n"
                       f"output = {tmp_path / 'out'}\nrating_threshold = {threshold}\n")
        assert main(["preprocess", "--config", str(cfg)]) == EXIT_GENERIC
        assert (f"rating_threshold must be finite or none, got {float(threshold)}"
                in self.error(capsys))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_empty_output_rejected(self, tmp_path, monkeypatch, capsys, via):
        # An empty output would write every artifact into the working directory.
        write_dataset(tmp_path / "data.csv")
        cfg = write_config(tmp_path)
        argv = ["preprocess", "--config", str(cfg)]
        if via == "config":
            cfg.write_text(f"data_path = {tmp_path / 'data.csv'}\noutput =\n")
        else:
            argv += ["--output", ""]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(argv) == EXIT_GENERIC
        assert "output directory must not be empty" in self.error(capsys)
        assert list(work.iterdir()) == []


class TestErrorBranches:
    """Each config and input error ends with its exit code and one error
    line through main, never a traceback."""

    @staticmethod
    def one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "embed_ridge", "--embedding-dim", "0"], "embedding_dim must be >= 1, got 0"),
        (["--cutoffs", "0,5"], "cutoffs must be positive, got [0, 5]"),
    ], ids=["embedding_dim", "cutoffs"])
    def test_bad_flag_exit_1(self, tmp_path, capsys, flags, message):
        assert main(["train", "--output", str(tmp_path), *flags]) == EXIT_GENERIC
        assert message in self.one_error_line(capsys)

    @pytest.mark.parametrize("line, message", [
        ("data_format = xml", "data_format must be csv or tsv, got 'xml'"),
        ("heldout_user_fraction = 1.5", "heldout_user_fraction must be in (0, 1)"),
        ("foldin_fraction = 0", "foldin_fraction must be in (0, 1)"),
    ], ids=["data_format", "heldout_user_fraction", "foldin_fraction"])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, line, message):
        write_dataset(tmp_path / "data.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_path = {tmp_path / 'data.csv'}\noutput = {tmp_path / 'out'}\n"
                       f"{line}\n")
        assert main(["preprocess", "--config", str(cfg)]) == EXIT_GENERIC
        assert message in self.one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_config_line_without_equals_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ridge\nlambda 5\n")
        assert main(["train", "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_GENERIC
        assert (f"{cfg}: line 2: expected 'key = value', got 'lambda 5'"
                in self.one_error_line(capsys))

    def test_preprocess_without_data_path_exit_1(self, tmp_path, capsys):
        assert main(["preprocess", "--output", str(tmp_path / "out")]) == EXIT_GENERIC
        assert "preprocess needs a data path" in self.one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_model_of_unknown_kind_exit_2(self, pipeline, capsys):
        tmp_path, config = pipeline
        model = tmp_path / "model.bin"
        cli.MODEL_FILE.write(model, ("random", 2, math.nan, 0), np.eye(2), ["a", "b"])
        code = main(["evaluate", "--model", str(model), "--output", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert f"{model}: unknown model kind 'random'" in self.one_error_line(capsys)

    def test_no_train_users_left_exit_1(self, tmp_path, capsys):
        # Half of two users is one held out for validation and one for test.
        (tmp_path / "data.csv").write_text("u0,a,5\nu0,b,5\nu1,a,5\nu1,b,5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_path = {tmp_path / 'data.csv'}\noutput = {tmp_path / 'out'}\n"
                       "min_user_interactions = 2\nheldout_user_fraction = 0.5\n")
        assert main(["preprocess", "--config", str(cfg)]) == EXIT_GENERIC
        assert "no users left for training" in self.one_error_line(capsys)
        assert not (tmp_path / "out" / "train.txt").exists()

    def test_empty_train_split_exit_2(self, pipeline, capsys):
        tmp_path, config = pipeline
        train = tmp_path / "out" / "train.txt"
        train.write_text("")
        assert main(["train", "--output", str(tmp_path / "out")]) == EXIT_IO
        assert f"{train}: empty triplet file" in self.one_error_line(capsys)
        assert not (tmp_path / "out" / "model_ridge.bin").exists()


class TestPlainLogFastPath:
    """Logs shaped like the benchmark's are tokenized in bulk: the csv.reader
    loop, the fallback, must not see them, or every log would take it."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a plain log reached csv.reader")

    def test_benchmark_shaped_logs_skip_csv_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        n = 600
        rows = (rng.integers(0, 40, n).tolist(), rng.integers(0, 12, n).tolist(),
                rng.choice([2, 4, 5], n).tolist(), range(1000, 1000 + n))
        (tmp_path / "data.csv").write_text(
            "user,item,rating,timestamp\n" + "".join(map("u{},i{},{},{}\n".format, *rows)))
        users, model = tmp_path / "foldin.csv", tmp_path / "model.bin"
        users.write_text("user,item\n" + "".join(f"n{u},i{u % 12}\n" for u in range(30)))
        save_model(SimilarityMatrix(np.eye(12), "ridge", {"lambda": 1.0}),
                   [f"i{j}" for j in range(12)], model)
        monkeypatch.setattr(ingest.csv, "reader", self.refuse)
        cfg = write_config(tmp_path)
        assert main(["preprocess", "--config", str(cfg)]) == EXIT_OK
        assert main(["recommend", "--config", str(cfg), "--model", str(model),
                     "--users", str(users)]) == EXIT_OK
        assert (tmp_path / "out" / "recommendations.csv").exists()

    def test_quoted_log_reaches_csv_reader(self, tmp_path, monkeypatch):
        write_dataset(tmp_path / "data.csv")
        data = tmp_path / "data.csv"
        data.write_text('"u0",i0,5\n' + data.read_text())
        calls = []
        reader = csv.reader
        monkeypatch.setattr(ingest.csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
        assert main(["preprocess", "--config", str(write_config(tmp_path))]) == EXIT_OK
        assert len(calls) == 1


class TestPreprocessWorkers:
    """preprocess with its log parsed over forked workers, and without os.fork."""

    @staticmethod
    def preprocess(tmp_path, name):
        """main(["preprocess", ...]) into out_<name>; returns the exit code and
        each written file's bytes, after checking that no child outlived main
        and that no DeprecationWarning was emitted."""
        out = tmp_path / f"out_{name}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["preprocess", "--config", str(write_config(tmp_path)),
                         "--output", str(out)])
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    def test_forked_and_forkless_runs_match_one_process(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(5)
        n = 900
        rows = (rng.integers(0, 60, n).tolist(), rng.integers(0, 15, n).tolist(),
                rng.integers(1, 6, n).tolist(), range(1000, 1000 + n))
        (tmp_path / "data.csv").write_text(
            "user,item,rating,timestamp\n" + "".join(map("u{},i{},{},{}\n".format, *rows)))
        code, serial = self.preprocess(tmp_path, "serial")
        assert code == EXIT_OK and "train.txt" in serial
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        assert self.preprocess(tmp_path, "forked") == (EXIT_OK, serial)
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        assert self.preprocess(tmp_path, "forkless") == (EXIT_OK, serial)

    def test_every_rating_below_threshold(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "data.csv").write_text("".join(f"u{u},i{u % 3},3\n" for u in range(40)))
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 1)
        assert main(["preprocess", "--config", str(write_config(tmp_path))]) == EXIT_GENERIC
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "all interactions removed by the rating threshold" in err

    def test_raising_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        write_dataset(tmp_path / "data.csv")
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pid, real = os.getpid(), ingest._parse_range

        def parse(*args):
            if os.getpid() != pid:
                raise RuntimeError("range parser broke")
            return real(*args)
        monkeypatch.setattr(ingest, "_parse_range", parse)
        assert main(["preprocess", "--config", str(write_config(tmp_path))]) == EXIT_GENERIC
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        err = capsys.readouterr().err
        assert err.startswith("error: parsing worker for bytes ") and err.count("\n") == 1
        assert err.endswith(" failed with status 1: RuntimeError: range parser broke\n")


class TestEndToEndDeterminism:
    def test_pipeline_twice_bit_identical(self, tmp_path):
        write_dataset(tmp_path / "data.csv")
        results = []
        for sub in ("run1", "run2"):
            config = base_config(tmp_path, kind="ridge",
                                 output_dir=str(tmp_path / sub))
            cmd_preprocess(config)
            cmd_train(config)
            cmd_evaluate(config, tmp_path / sub / "model_ridge.bin")
            results.append((
                (tmp_path / sub / "model_ridge.bin").read_bytes(),
                (tmp_path / sub / "eval_test_ridge.json").read_bytes(),
            ))
        assert results[0] == results[1]
