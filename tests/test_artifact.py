import contextlib
import io
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whiterec import artifact
from whiterec.artifact import Layout, atomic_open
from whiterec.autoencoder import SimilarityMatrix
from whiterec.cli import (EXIT_IO, EXIT_OK, PipelineConfig, cmd_preprocess, cmd_train,
                          load_model, main, save_model)
from whiterec.embedding import load_embeddings
from whiterec.errors import ParseError

from test_cli import write_dataset

TOY = Layout(b"TOY-FILE", 3, "sdI", lambda header: (header[2], 2))


def test_round_trip_and_layout(tmp_path):
    values = np.arange(6, dtype=float).reshape(3, 2)
    path = tmp_path / "toy.bin"
    TOY.write(path, ("kind", math.nan, 3), values, ["a", "bé"])
    raw = path.read_bytes()
    expected_header = (b"TOY-FILE" + struct.pack("<II", 3, 4) + b"kind"
                       + struct.pack("<dI", math.nan, 3))
    assert raw.startswith(expected_header)
    payload_end = len(expected_header) + values.nbytes
    assert raw[len(expected_header):payload_end] == values.astype("<f8").tobytes()
    assert raw[payload_end:] == (struct.pack("<I", 1) + b"a"
                                 + struct.pack("<I", 3) + "bé".encode())
    header, back, vocab = TOY.read(path)
    assert header[0] == "kind" and math.isnan(header[1]) and header[2] == 3
    np.testing.assert_array_equal(back, values)
    assert back.flags.writeable
    assert vocab == ["a", "bé"]
    assert not (tmp_path / "toy.bin.tmp").exists()


def test_wrong_version(tmp_path):
    path = tmp_path / "toy.bin"
    TOY.write(path, ("k", 1.0, 1), np.zeros((1, 2)), ["a", "b"])
    with pytest.raises(ParseError, match="version"):
        Layout(b"TOY-FILE", 4, "sdI", TOY.shape).read(path)


@pytest.mark.parametrize("row", [0, 4, 9])
def test_nonfinite_in_any_read_panel_rejected(tmp_path, monkeypatch, row):
    # Panels of 3 rows: 0-2, 3-5, 6-8 and a last, short one of row 9.
    monkeypatch.setattr(artifact, "READ_PANEL_BYTES", 3 * 2 * 8)
    values = np.arange(20, dtype=float).reshape(10, 2)
    path = tmp_path / "toy.bin"
    TOY.write(path, ("k", 1.0, 10), values, ["a", "b"])
    np.testing.assert_array_equal(TOY.read(path)[1], values)
    values[row, 1] = math.nan
    TOY.write(path, ("k", 1.0, 10), values, ["a", "b"])
    with pytest.raises(ParseError, match="non-finite"):
        TOY.read(path)


def test_load_model_peaks_near_one_payload(tmp_path):
    # The payload is read into its array, not read whole and then copied.
    n = 300
    values = np.random.default_rng(0).normal(size=(n, n))
    path = tmp_path / "model.bin"
    save_model(SimilarityMatrix(values, "ridge", {"lambda": 1.0}), [f"i{j}" for j in range(n)],
               path)
    tracemalloc.start()
    try:
        sim, _ = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(sim.values, values)
    assert values.nbytes <= peak < 1.3 * values.nbytes


def test_load_model_checks_finiteness_without_a_payload_mask(tmp_path, monkeypatch):
    # A bool mask of the whole payload would add 1/8 of its size to the peak.
    monkeypatch.setattr(artifact, "READ_PANEL_BYTES", 1 << 16)
    n = 300
    values = np.random.default_rng(0).normal(size=(n, n))
    path = tmp_path / "model.bin"
    save_model(SimilarityMatrix(values, "ridge", {"lambda": 1.0}), [f"i{j}" for j in range(n)],
               path)
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.06 * values.nbytes


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Split, ridge model and embeddings for corruption tests."""
    root = tmp_path_factory.mktemp("artifacts")
    write_dataset(root / "data.csv")
    config = PipelineConfig(data_path=str(root / "data.csv"), min_user_interactions=2,
                            heldout_user_fraction=0.2, foldin_fraction=0.5, lam=5.0,
                            cutoffs=(2, 5), output_dir=str(root / "out"))
    assert cmd_preprocess(config) == EXIT_OK
    assert cmd_train(config) == EXIT_OK
    assert cmd_train(replace(config, kind="embed_ridge", embedding_dim=3)) == EXIT_OK
    return root / "out"


def corruption(blob_len: int, n_values: int, n_vocab: int):
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, blob_len - 1)),
        st.tuples(st.just("nonfinite"), st.integers(0, n_values - 1),
                  st.sampled_from([math.nan, math.inf, -math.inf])),
        st.tuples(st.just("trailing"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("utf8"), st.integers(0, n_vocab - 1)),
    )


def corrupt(blob: bytes, n_values: int, vocab: list[str], how) -> bytes:
    """Apply one corruption; the payload sits right before the vocabulary."""
    sizes = [len(v.encode()) for v in vocab]
    payload_end = len(blob) - sum(4 + n for n in sizes)
    if how[0] == "cut":
        return blob[:how[1]]
    if how[0] == "nonfinite":
        at = payload_end - 8 * n_values + 8 * how[1]
        return blob[:at] + struct.pack("<d", how[2]) + blob[at + 8:]
    if how[0] == "trailing":
        return blob + how[1]
    at = payload_end + sum(4 + n for n in sizes[:how[1]]) + 4
    return blob[:at] + b"\xff" + blob[at + 1:]


MODEL_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@MODEL_SETTINGS
@given(data=st.data())
def test_corrupt_model_exits_2(trained, data):
    good = (trained / "model_ridge.bin").read_bytes()
    vocab = (trained / "items.txt").read_text().splitlines()
    how = data.draw(corruption(len(good), len(vocab) ** 2, len(vocab)))
    bad = trained / "corrupt_model.bin"
    bad.write_bytes(corrupt(good, len(vocab) ** 2, vocab, how))
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["evaluate", "--model", str(bad), "--output", str(trained)])
    err = stderr.getvalue()
    assert code == EXIT_IO, (how, err)
    assert err.startswith("error: ") and "Traceback" not in err


@MODEL_SETTINGS
@given(data=st.data())
def test_corrupt_embeddings_rejected(trained, data):
    good = (trained / "embeddings.bin").read_bytes()
    vocab = (trained / "items.txt").read_text().splitlines()
    n_values = 3 * len(vocab)
    how = data.draw(corruption(len(good), n_values, len(vocab)))
    bad = trained / "corrupt_embeddings.bin"
    bad.write_bytes(corrupt(good, n_values, vocab, how))
    with pytest.raises(ParseError):
        load_embeddings(bad)


def test_atomic_open_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "report.json"
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, encoding="utf-8") as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
