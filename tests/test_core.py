import os
import re

import numpy as np
import pytest

from eventaug.core import (BadMagicError, EmbeddingFormatError, EmbeddingMatrix,
                           NonFinitePayloadError, RngStream, SplitSpec,
                           TruncatedPayloadError, atomic_write, read_embeddings,
                           split, write_embeddings)

from conftest import make_message


class TestEmbeddingMatrix:
    def test_rejects_mismatched_ids(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(["a"], np.zeros((2, 3)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(["a", "a"], np.zeros((2, 3)))

    def test_rejects_nan(self):
        values = np.zeros((2, 2))
        values[1, 1] = np.nan
        with pytest.raises(NonFinitePayloadError):
            EmbeddingMatrix(["a", "b"], values)

    def test_reindex(self):
        m = EmbeddingMatrix(["a", "b", "c"], np.arange(6.0).reshape(3, 2))
        r = m.reindex(["c", "a"])
        assert r.ids == ["c", "a"]
        assert np.array_equal(r.values[0], m.row("c"))


class TestEmbeddingFile:
    def test_empty_matrix_is_header_only(self, tmp_path):
        path = tmp_path / "empty.sedemb"
        write_embeddings(EmbeddingMatrix([], np.zeros((0, 4))), path)
        blob = path.read_bytes()
        assert len(blob) == 16  # magic + rows + dim, no ids, no payload
        assert blob[:8] == b"SEDEMB01"
        back = read_embeddings(path)
        assert back.rows == 0 and back.dim == 4

    def test_payload_size_3x768(self, tmp_path):
        ids = ["a", "b", "c"]
        m = EmbeddingMatrix(ids, np.ones((3, 768), dtype=np.float32))
        path = tmp_path / "m.sedemb"
        write_embeddings(m, path)
        id_table = sum(4 + len(i.encode()) for i in ids)
        assert path.stat().st_size == 16 + id_table + 3 * 768 * 4

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(0, 12))
            dim = int(rng.integers(1, 40))
            values = rng.normal(size=(n, dim)).astype(np.float32)
            m = EmbeddingMatrix([f"id-{trial}-{i}" for i in range(n)], values)
            path = tmp_path / f"t{trial}.sedemb"
            write_embeddings(m, path)
            back = read_embeddings(path)
            assert back.ids == m.ids
            assert back.values.tobytes() == m.values.tobytes()

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.sedemb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(BadMagicError, match="SEDEMB01"):
            read_embeddings(path)

    def test_truncated_payload_reports_counts(self, tmp_path):
        path = tmp_path / "trunc.sedemb"
        m = EmbeddingMatrix(["a", "b"], np.ones((2, 3), dtype=np.float32))
        write_embeddings(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedPayloadError, match="expected 24 .* found 20"):
            read_embeddings(path)

    def test_reindex_to_its_own_order_is_the_matrix(self):
        m = EmbeddingMatrix(["a", "b"], np.zeros((2, 2)))
        assert m.reindex(["a", "b"]) is m
        with pytest.raises(ValueError, match="unique"):
            m.reindex(["a", "a"])

    def test_nan_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.sedemb"
        m = EmbeddingMatrix(["a"], np.ones((1, 2), dtype=np.float32))
        write_embeddings(m, path)
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFinitePayloadError, match=re.escape(f"{path}: payload contains")):
            read_embeddings(path)

    def test_rejects_every_cut_bad_id_and_duplicate(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "m.sedemb"

        def rejected(blob):
            path.write_bytes(bytes(blob))
            with pytest.raises(EmbeddingFormatError, match=str(path)):
                read_embeddings(path)

        for trial in range(6):
            n, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            ids = [f"id{trial}-{i}" for i in range(n)]  # all the same length
            write_embeddings(EmbeddingMatrix(
                ids, rng.normal(size=(n, dim)).astype(np.float32)), path)
            blob = path.read_bytes()
            for cut in range(len(blob)):
                rejected(blob[:cut])
            starts = [16 + 4 + i * (4 + len(ids[0])) for i in range(n)]
            bad = bytearray(blob)
            bad[starts[int(rng.integers(n))] + int(rng.integers(len(ids[0])))] = 0xFF
            rejected(bad)  # not UTF-8
            dup = bytearray(blob)
            i, j = rng.choice(n, size=2, replace=False)
            dup[starts[j]:starts[j] + len(ids[0])] = ids[i].encode()
            rejected(dup)


class TestAtomicWrite:
    def test_writer_that_raises_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w", encoding="utf-8") as fh:
                fh.write("new, half written")
                raise RuntimeError("writer failed")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_finished_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_write(path, "wb") as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_embedding_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "e.sedemb"
        write_embeddings(EmbeddingMatrix(["a"], [[1.0]]), path)
        old = path.read_bytes()
        # a lone surrogate cannot be encoded: the write fails after the header
        bad = EmbeddingMatrix(["b", "\ud800"], [[2.0], [3.0]])
        with pytest.raises(UnicodeEncodeError):
            write_embeddings(bad, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["e.sedemb"]


class TestSplit:
    def test_exact_sizes_n10(self):
        spec = SplitSpec(0.7, 0.1, 0.2, seed=3)
        train, val, test = split(list(range(10)), spec)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_remainder_goes_to_train_n9(self):
        # floor gives (6, 0, 1); the 2 leftover rows join train
        spec = SplitSpec(0.7, 0.1, 0.2, seed=3)
        train, val, test = split(list(range(9)), spec)
        assert (len(train), len(val), len(test)) == (8, 0, 1)

    def test_same_seed_same_partition(self):
        spec = SplitSpec(seed=11)
        ids = [f"m{i}" for i in range(50)]
        assert split(ids, spec) == split(ids, spec)

    def test_partition_properties(self):
        for n in range(3, 61):
            ids = [f"m{i}" for i in range(n)]
            train, val, test = split(ids, SplitSpec(seed=n))
            parts = train + val + test
            assert sorted(parts) == sorted(ids)
            assert len(set(parts)) == n
            assert len(val) == int(np.floor(n * 0.1 + 1e-9))
            assert len(test) == int(np.floor(n * 0.2 + 1e-9))

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.1, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, 0.5)


class TestRngStream:
    def test_reproducible_draws(self):
        a = RngStream(seed=42, stream_id=5).derive().uniform(size=10_000)
        b = RngStream(seed=42, stream_id=5).derive().uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = RngStream(42, 0).derive().uniform(size=100)
        b = RngStream(42, 1).derive().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_derive_is_stable(self):
        a = RngStream(7).derive(3, 4).normal(size=8)
        b = RngStream(7).derive(3, 4).normal(size=8)
        assert np.array_equal(a, b)


class TestMessage:
    def test_requires_nonempty_id(self):
        with pytest.raises(ValueError):
            make_message("")

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError):
            make_message("m1", label=-1)
