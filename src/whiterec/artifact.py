"""The binary layout shared by model and embedding files.

An artifact is an 8-byte magic, a little-endian uint32 version and header,
a row-major float64 payload, and one length-prefixed UTF-8 vocabulary
entry per payload column. Header fields are struct codes ("I", "d") or
"s", a uint32 byte length followed by UTF-8.

Reading rejects what no writer produces: wrong magic or version,
truncation, trailing bytes, non-finite payload values, undecodable text,
a vocabulary that repeats an id.
Writing goes through :func:`atomic_open`, which every whiterec file writer
uses: a reader sees the old file or the complete new one, never a part.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, IO

import numpy as np

from .errors import ParseError

# Bytes of payload read and checked at once: the row panel of linalg's
# whole-array checks (linalg.PRODUCT_BLOCK_BYTES), which this module cannot
# import.
READ_PANEL_BYTES = 1 << 20


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing and ``os.replace`` it onto ``path`` on success.

    If the body raises, the temporary file is removed and ``path`` keeps
    its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class Layout:
    """One artifact type; ``shape`` maps a header to the payload shape."""

    magic: bytes
    version: int
    fields: str
    shape: Callable[[tuple], tuple[int, int]]

    def write(self, path: str | Path, header: tuple, values: np.ndarray,
              vocab: list[str]) -> None:
        if len(vocab) != self.shape(header)[1]:
            raise ValueError(f"vocabulary has {len(vocab)} entries for "
                             f"{self.shape(header)[1]} payload columns")
        parts = [self.magic, struct.pack("<I", self.version)]
        for code, value in zip(self.fields, header):
            parts.append(_text(value) if code == "s" else struct.pack("<" + code, value))
        with atomic_open(path, "wb") as fh:
            fh.write(b"".join(parts))
            fh.write(np.ascontiguousarray(values, dtype="<f8").data)
            fh.write(b"".join(_text(item) for item in vocab))

    def read(self, path: str | Path) -> tuple[tuple, np.ndarray, list[str]]:
        """Return (header, values, vocab); the payload is read straight into
        its array, the one copy of it that is made, a row panel at a time,
        and each panel's finiteness is checked as it arrives: no mask of the
        payload's size is made."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(8)
            if magic != self.magic:
                raise ParseError(f"{path}: bad magic {magic!r}, expected {self.magic!r}")
            offset = 8

            def truncated(n: int) -> ParseError:
                return ParseError(f"{path}: truncated file (wanted {n} bytes at "
                                  f"offset {offset} of {size})")

            def take(n: int) -> bytes:
                nonlocal offset
                data = fh.read(n) if offset + n <= size else b""
                if len(data) < n:
                    raise truncated(n)
                offset += n
                return data

            def unpack(code: str):
                if code != "s":
                    return struct.unpack("<" + code, take(struct.calcsize(code)))[0]
                try:
                    return str(take(unpack("I")), "utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}: invalid UTF-8 before offset {offset}") from exc

            version = unpack("I")
            if version != self.version:
                raise ParseError(f"{path}: unsupported version {version}")
            header = tuple(unpack(code) for code in self.fields)
            rows, cols = self.shape(header)
            n = rows * cols * 8
            if offset + n > size:  # checked before the array is made
                raise truncated(n)
            values = np.empty((rows, cols), dtype="<f8")
            step = max(1, READ_PANEL_BYTES // (8 * max(cols, 1)))
            for first in range(0, rows, step):
                panel = values[first:first + step]
                if fh.readinto(panel.reshape(-1).view(np.uint8)) < panel.nbytes:
                    raise truncated(n)
                if not np.isfinite(panel).all():
                    raise ParseError(f"{path}: payload contains non-finite values")
            offset += n
            vocab = [unpack("s") for _ in range(cols)]
        if offset != size:
            raise ParseError(f"{path}: {size - offset} trailing bytes after the vocabulary")
        reject_repeated_ids(vocab, path, "vocabulary entry")
        return header, values, vocab


def reject_repeated_ids(ids: list[str], path: str | Path, unit: str) -> None:
    """A ParseError naming the first id that repeats, counting ids from 1."""
    if len(set(ids)) != len(ids):
        first: dict[str, int] = {}
        for k, x in enumerate(ids, start=1):
            if first.setdefault(x, k) != k:
                raise ParseError(f"{path}: {unit} {k}: id {x!r} repeats {unit} {first[x]}")


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw
