"""Shared domain types, the deterministic RNG contract, splits, and the
SEDEMB01 binary embedding format.

Everything here is immutable after construction and safe to share across
threads. Random state is never shared: parallel work derives its own
:class:`RngStream` from a (seed, stream_id) pair.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

EMBEDDING_MAGIC = b"SEDEMB01"
MODEL_MAGIC = b"SEDMDL01"

_U32 = struct.Struct("<I")


class EmbeddingFormatError(ValueError):
    """Base class for SEDEMB01 and SEDMDL01 file format violations."""


class BadMagicError(EmbeddingFormatError):
    pass


class TruncatedPayloadError(EmbeddingFormatError):
    pass


class NonFinitePayloadError(EmbeddingFormatError):
    pass


@dataclass(frozen=True)
class Origin:
    """Provenance of an augmented message: which strategy produced it and
    from which original message."""

    strategy: str
    source_id: str


@dataclass(frozen=True)
class Message:
    """One social post. ``origin`` is None for original messages."""

    id: str
    text: str
    user_id: str
    timestamp: int
    entities: tuple[str, ...] = ()
    location: str | None = None
    label: int | None = None
    origin: Origin | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("message id must be nonempty")
        if self.label is not None and self.label < 0:
            raise ValueError(f"message {self.id!r}: label must be >= 0, got {self.label}")
        # tolerate lists from callers; store a hashable tuple
        if not isinstance(self.entities, tuple):
            object.__setattr__(self, "entities", tuple(self.entities))

    @property
    def is_original(self) -> bool:
        return self.origin is None


class EmbeddingMatrix:
    """Dense row-per-item float32 matrix with ids aligned to rows.

    Values are stored as 32-bit floats (matches common encoder output
    precision and halves file size). All values must be finite.
    """

    def __init__(self, ids, values, *, _finite: bool = False):
        # _finite: the values were already checked (by the file reader, or
        # as rows of another matrix), so they are not checked again
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        ids = list(ids)
        if len(ids) != values.shape[0]:
            raise ValueError(f"{len(ids)} ids for {values.shape[0]} rows")
        index = {item_id: i for i, item_id in enumerate(ids)}
        if len(index) != len(ids):
            raise ValueError("ids must be unique")
        if not _finite and values.size and not np.isfinite(values).all():
            raise NonFinitePayloadError("embedding values must be finite")
        self.ids: list[str] = ids
        self.values: np.ndarray = values
        self._index = index

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def row(self, item_id: str) -> np.ndarray:
        return self.values[self._index[item_id]]

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"EmbeddingMatrix(rows={self.rows}, dim={self.dim})"

    def reindex(self, ids) -> "EmbeddingMatrix":
        """Rows reordered to the given id sequence (all ids must exist); the
        matrix itself when that is already its order."""
        ids = list(ids)
        if ids == self.ids:
            return self
        idx = [self._index[i] for i in ids]
        return EmbeddingMatrix(ids, self.values[idx], _finite=True)


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios (must sum to 1) plus the shuffle seed."""

    train_ratio: float = 0.7
    val_ratio: float = 0.1
    test_ratio: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, r in (("train_ratio", self.train_ratio),
                        ("val_ratio", self.val_ratio),
                        ("test_ratio", self.test_ratio)):
            if not (0.0 < r < 1.0):
                raise ValueError(f"{name} must be in (0,1), got {r}")
        if abs(self.train_ratio + self.val_ratio + self.test_ratio - 1.0) > 1e-9:
            raise ValueError("ratios must sum to 1 within 1e-9")


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream identified by (seed, stream_id).

    The generator algorithm is pinned to numpy's PCG64 seeded through
    SeedSequence(entropy=seed, spawn_key=(stream_id, *indices)), which is
    specified bit-exactly and stable across platforms. Equal identifiers
    yield equal draw sequences on every run.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *indices: int) -> np.random.Generator:
        """Independent generator for a sub-task, e.g. derive(epoch, batch)."""
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_id, *indices))
        return np.random.Generator(np.random.PCG64(seq))


def split(ids, spec: SplitSpec):
    """Partition ids into (train, val, test) lists.

    Deterministic shuffle by ``spec.seed``, then a contiguous partition with
    sizes floor(n * ratio); remainder rows go to train (maximizes training
    data, deterministic). The split is not stratified.
    """
    ids = list(ids)
    n = len(ids)
    # floor of the mathematical product; the epsilon guards against cases
    # like 100 * 0.29 = 28.999999999999996
    n_train = int(math.floor(n * spec.train_ratio + 1e-9))
    n_val = int(math.floor(n * spec.val_ratio + 1e-9))
    n_test = int(math.floor(n * spec.test_ratio + 1e-9))
    n_train += n - (n_train + n_val + n_test)

    order = RngStream(spec.seed).derive().permutation(n)
    shuffled = [ids[i] for i in order]
    train = shuffled[:n_train]
    val = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]
    return train, val, test


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file next to ``path`` for writing and move it onto
    ``path`` (``os.replace``) when the block ends. If the block raises, the
    temporary file is removed and an existing ``path`` keeps its old
    content. The temporary name is ``path.tmp.<pid>.<thread id>``, so
    writers in other processes or threads never share one."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_embeddings(m: EmbeddingMatrix, path) -> None:
    """Write a matrix in SEDEMB01 format.

    Layout: magic "SEDEMB01", rows (u32 LE), dim (u32 LE), one
    length-prefixed (u32 LE) UTF-8 id per row, then rows*dim float32 LE
    row-major.
    """
    if m.values.size and not np.isfinite(m.values).all():
        raise NonFinitePayloadError("refusing to write non-finite values")
    payload = np.ascontiguousarray(m.values, dtype="<f4")
    try:
        with atomic_write(path, "wb") as fh:
            fh.write(EMBEDDING_MAGIC)
            fh.write(_U32.pack(m.rows))
            fh.write(_U32.pack(m.dim))
            for item_id in m.ids:
                raw = item_id.encode("utf-8")
                fh.write(_U32.pack(len(raw)))
                fh.write(raw)
            fh.write(payload)  # the array's own buffer, not a bytes copy
    except OSError as exc:
        raise OSError(f"cannot write embeddings to {path}: {exc}") from exc


def read_embeddings(path) -> EmbeddingMatrix:
    """Inverse of :func:`write_embeddings`; validates magic, lengths and
    finiteness with distinct error categories."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read embeddings from {path}: {exc}") from exc

    if len(blob) < 16 or blob[:8] != EMBEDDING_MAGIC:
        raise BadMagicError(
            f"{path}: expected magic {EMBEDDING_MAGIC!r}, got {blob[:8]!r}")
    rows = _U32.unpack_from(blob, 8)[0]
    dim = _U32.unpack_from(blob, 12)[0]

    offset = 16
    ids = []
    for _ in range(rows):
        if offset + 4 > len(blob):
            raise TruncatedPayloadError(f"{path}: id table truncated at byte {offset}")
        (id_len,) = _U32.unpack_from(blob, offset)
        offset += 4
        if offset + id_len > len(blob):
            raise TruncatedPayloadError(f"{path}: id table truncated at byte {offset}")
        try:
            ids.append(blob[offset:offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(f"{path}: id at byte {offset} is not UTF-8") from exc
        offset += id_len

    expected = rows * dim * 4
    actual = len(blob) - offset
    if actual != expected:
        raise TruncatedPayloadError(
            f"{path}: expected {expected} payload bytes, found {actual}")
    values = np.frombuffer(blob, dtype="<f4", count=rows * dim, offset=offset)
    values = values.reshape(rows, dim)
    if values.size and not np.isfinite(values).all():
        raise NonFinitePayloadError(f"{path}: payload contains NaN or Inf")
    try:
        return EmbeddingMatrix(ids, values, _finite=True)
    except ValueError as exc:  # duplicate ids
        raise EmbeddingFormatError(f"{path}: {exc}") from exc
