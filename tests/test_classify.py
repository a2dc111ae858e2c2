import hashlib
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eventaug import classify
from eventaug.classify import (DegenerateDataError, TrainConfig,
                               cross_entropy_grad, load_model, predict,
                               ratio_study, save_model, softmax,
                               subsample_indices, train, train_many,
                               write_ratio_csv)
from eventaug.classify import ClassifierModel
from eventaug.core import (BadMagicError, EmbeddingFormatError,
                           NonFinitePayloadError, TruncatedPayloadError)
from eventaug.perturb import METHODS, PerturbationConfig, dataset_std

from conftest import random_float32, random_text


def separable_blobs(seed=0, n_per_class=40, gap=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, 2)) + [-gap / 2, 0.0]
    b = rng.normal(size=(n_per_class, 2)) + [gap / 2, 0.0]
    x = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


def finite_difference_grad(weights, bias, x, y, eps=1e-6):
    dw = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            wp, wm = weights.copy(), weights.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            lp, _, _ = cross_entropy_grad(wp, bias, x, y)
            lm, _, _ = cross_entropy_grad(wm, bias, x, y)
            dw[i, j] = (lp - lm) / (2 * eps)
    db = np.zeros_like(bias)
    for i in range(bias.shape[0]):
        bp, bm = bias.copy(), bias.copy()
        bp[i] += eps
        bm[i] -= eps
        lp, _, _ = cross_entropy_grad(weights, bp, x, y)
        lm, _, _ = cross_entropy_grad(weights, bm, x, y)
        db[i] = (lp - lm) / (2 * eps)
    return dw, db


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            classes = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 9))
            n = int(rng.integers(3, 12))
            weights = rng.normal(size=(classes, dim))
            bias = rng.normal(size=classes)
            x = rng.normal(size=(n, dim))
            y = rng.integers(0, classes, size=n)
            _, dw, db = cross_entropy_grad(weights, bias, x, y)
            fdw, fdb = finite_difference_grad(weights, bias, x, y)
            scale = max(np.abs(fdw).max(), np.abs(fdb).max(), 1e-8)
            assert np.abs(dw - fdw).max() / scale < 1e-4
            assert np.abs(db - fdb).max() / scale < 1e-4


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(32)
        probs = softmax(rng.normal(size=(100, 7)) * 30)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_shift_invariant_predictions(self):
        rng = np.random.default_rng(33)
        logits = rng.normal(size=(50, 4))
        shifted = logits + 123.456
        assert np.array_equal(logits.argmax(axis=1), shifted.argmax(axis=1))
        assert np.abs(softmax(logits) - softmax(shifted)).max() < 1e-9


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        x, y = separable_blobs()
        model = train(x, y, TrainConfig(epochs=200, learning_rate=0.5, seed=1))
        preds = predict(model, x)
        assert (np.array(preds) == y).mean() == 1.0

    def test_alpha_zero_mixer_is_inert(self):
        x, y = separable_blobs()
        plain = train(x, y, TrainConfig(epochs=50, seed=2))
        noop = train(x, y, TrainConfig(
            epochs=50, seed=2,
            perturbation=PerturbationConfig(method="GP", alpha=0.0, sigma=0.5)))
        assert plain.weights.tobytes() == noop.weights.tobytes()
        assert plain.bias.tobytes() == noop.bias.tobytes()

    def test_loss_non_increasing_on_fixture(self):
        x, y = separable_blobs()
        model = train(x, y, TrainConfig(epochs=120, learning_rate=0.01,
                                        batch_size=80, seed=3))
        diffs = np.diff(model.loss_history)
        assert diffs.max() <= 1e-6

    def test_same_seed_bitwise_identical(self):
        x, y = separable_blobs(seed=5)
        config = TrainConfig(epochs=30, seed=9,
                             perturbation=PerturbationConfig(
                                 method="GP", alpha=0.5, sigma=0.1))
        a = train(x, y, config)
        b = train(x, y, config)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(DegenerateDataError):
            train(x, np.zeros(10, dtype=int), TrainConfig(epochs=1))

    def test_idgp_training_runs(self):
        x, y = separable_blobs(seed=6)
        config = TrainConfig(epochs=10, seed=1, perturbation=PerturbationConfig(
            method="IDGP", alpha=0.5, alpha_var=0.01))
        model = train(x, y, config)  # std computed internally
        assert np.isfinite(model.weights).all()


    def test_idgp_std_takes_no_full_size_temporary(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 1.0, size=(4000, 256))
        y = np.arange(4000) % 3
        config = TrainConfig(epochs=1, seed=2,
                             perturbation=PerturbationConfig("IDGP", alpha=0.3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(x, y, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # x - mean alone would be x.nbytes
        assert peak <= 0.5 * x.nbytes


class TestPredict:
    def test_zero_model_predicts_class_zero(self):
        model = ClassifierModel(weights=np.zeros((3, 4)), bias=np.zeros(3))
        preds = predict(model, np.random.default_rng(1).normal(size=(6, 4)))
        assert preds == [0] * 6

    def test_follows_isolated_feature(self):
        # class 1 iff feature 0 positive
        model = ClassifierModel(weights=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                bias=np.zeros(2))
        x = np.array([[2.0, 5.0], [-3.0, 5.0], [0.5, -9.0]])
        preds = predict(model, x)
        assert preds == [1, 0, 1]

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(34)
        model = ClassifierModel(weights=rng.normal(size=(5, 7)),
                                bias=rng.normal(size=5))
        x = rng.normal(size=(20, 7))
        preds = predict(model, x)
        logits = np.array([[x[i] @ model.weights[c] + model.bias[c]
                            for c in range(5)] for i in range(20)])
        assert preds == logits.argmax(axis=1).tolist()

    def test_dim_mismatch(self):
        model = ClassifierModel(weights=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            predict(model, np.zeros((4, 5)))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        x, y = separable_blobs(seed=7)
        model = train(x, y, TrainConfig(epochs=20, seed=4))
        path = tmp_path / "m.sedmdl"
        save_model(model, path)
        back = load_model(path)
        assert back.num_classes == model.num_classes
        assert back.dim == model.dim
        assert np.abs(back.weights - model.weights).max() < 1e-6
        assert back.metadata["seed"] == 4
        assert path.read_bytes()[:8] == b"SEDMDL01"

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(23)
        path, again = tmp_path / "m.sedmdl", tmp_path / "again.sedmdl"
        for trial in range(40):
            classes, dim = int(rng.integers(1, 7)), int(rng.integers(1, 20))
            params = random_float32(rng, classes, dim + 1).astype(np.float64)
            metadata = {"seed": trial, "note": random_text(rng),
                        "ratios": rng.random(size=int(rng.integers(0, 4))).tolist()}
            model = ClassifierModel(weights=params[:, :dim], bias=params[:, dim],
                                    metadata=metadata)
            save_model(model, path)
            back = load_model(path)
            assert back.weights.tobytes() == np.ascontiguousarray(model.weights).tobytes()
            assert back.bias.tobytes() == np.ascontiguousarray(model.bias).tobytes()
            assert back.metadata == metadata
            save_model(back, again)
            assert again.read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sedmdl"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(ValueError, match="SEDMDL01"):
            load_model(path)


    def test_rejects_every_truncation_junk_and_nan(self, tmp_path):
        rng = np.random.default_rng(21)
        model = ClassifierModel(weights=rng.normal(size=(2, 3)),
                                bias=rng.normal(size=2), metadata={"seed": 21})
        path = tmp_path / "m.sedmdl"
        save_model(model, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):  # no magic inside the 16-byte header
            path.write_bytes(blob[:cut])
            with pytest.raises(BadMagicError if cut < 16 else TruncatedPayloadError,
                               match=str(path)):
                load_model(path)
        path.write_bytes(blob + b"junk")
        with pytest.raises(TruncatedPayloadError):
            load_model(path)
        weights = bytearray(blob)
        weights[16 + 4:16 + 8] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(weights))
        with pytest.raises(NonFinitePayloadError):
            load_model(path)
        path.write_bytes(blob)
        assert load_model(path).metadata == {"seed": 21}

    def test_rejects_corrupt_metadata_trailer(self, tmp_path):
        rng = np.random.default_rng(22)
        path = tmp_path / "m.sedmdl"
        for trial in range(4):
            shape = (int(rng.integers(2, 5)), int(rng.integers(1, 6)))
            model = ClassifierModel(weights=rng.normal(size=shape),
                                    bias=rng.normal(size=shape[0]),
                                    metadata={"seed": trial, "note": "trailer"})
            save_model(model, path)
            blob = path.read_bytes()
            trailer = 16 + 4 * shape[0] * (shape[1] + 1) + 4
            corrupt = [blob[:-1] + b"x"]  # right length, not JSON
            for _ in range(5):  # right length, not UTF-8
                bad = bytearray(blob)
                bad[int(rng.integers(trailer, len(blob)))] = 0xFF
                corrupt.append(bytes(bad))
            meta = b"[1]"  # JSON, but not an object
            corrupt.append(blob[:trailer - 4] + len(meta).to_bytes(4, "little") + meta)
            for bad in corrupt:
                path.write_bytes(bad)
                with pytest.raises(EmbeddingFormatError, match=str(path)):
                    load_model(path)

    def test_non_finite_model_is_not_written(self, tmp_path):
        path = tmp_path / "m.sedmdl"
        for bad in (np.nan, np.inf, 1e300):  # 1e300 overflows float32
            model = ClassifierModel(weights=np.array([[1.0, bad], [0.0, 1.0]]),
                                    bias=np.zeros(2))
            with pytest.raises(NonFinitePayloadError), np.errstate(over="ignore"):
                save_model(model, path)
            assert not path.exists()


class TestRatioStudy:
    def test_full_ratio_noaug_matches_plain_run(self):
        x, y = separable_blobs(seed=8)
        x_test, y_test = separable_blobs(seed=9)
        config = TrainConfig(epochs=40, seed=11)
        rows = ratio_study(x, y, x_test, y_test, [1.0], config)
        plain = train(x, y, TrainConfig(epochs=40, seed=11), num_classes=2)
        preds = predict(plain, x_test)
        from eventaug.metrics import evaluate
        report = evaluate(preds, y_test, 2)
        by_arm = {r.arm: r for r in rows}
        assert by_arm["noaug"].micro_f1 == report.micro_f1
        assert by_arm["noaug"].macro_f1 == report.macro_f1

    def test_seven_ratios_two_arms(self):
        x, y = separable_blobs(seed=10, n_per_class=30)
        config = TrainConfig(epochs=5, seed=1)
        ratios = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        rows = ratio_study(x, y, x, y, ratios, config)
        assert len(rows) == 14
        assert {r.arm for r in rows} == {"aug", "noaug"}

    def test_subsample_is_sorted_and_deterministic(self):
        a = subsample_indices(100, 0.3, seed=5, key=0)
        b = subsample_indices(100, 0.3, seed=5, key=0)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))
        assert len(a) == 30
        assert np.array_equal(subsample_indices(50, 1.0, 3, 0), np.arange(50))

    def test_vanished_class_warns(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(40, 3))
        y = np.array([0] * 19 + [1] * 19 + [2] * 2)
        # find a seed whose 30% subsample keeps classes 0/1 but loses 2
        seed = next(s for s in range(50)
                    if set(y[subsample_indices(40, 0.3, s, 0)]) == {0, 1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = ratio_study(x, y, x, y, [0.3], TrainConfig(epochs=2, seed=seed))
        assert any("vanished" in str(w.message) for w in caught)
        assert len(rows) == 2

    def test_csv_format(self, tmp_path):
        x, y = separable_blobs(seed=12, n_per_class=10)
        rows = ratio_study(x, y, x, y, [0.5], TrainConfig(epochs=2, seed=0))
        path = tmp_path / "study.csv"
        write_ratio_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ratio,arm,micro_f1,macro_f1"
        assert lines[1].startswith("0.5,aug,")
        assert lines[2].startswith("0.5,noaug,")

    def test_degenerate_subsample_raises_after_its_warning(self):
        x = np.random.default_rng(2).normal(size=(40, 3))
        y = np.array([0] * 38 + [1] * 2)
        # a seed whose 10% subsample holds class 0 only
        seed = next(s for s in range(50) if set(y[subsample_indices(40, 0.1, s, 0)]) == {0})
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DegenerateDataError,
                              match=r"training set has 1 distinct class\(es\); need >= 2"):
            warnings.simplefilter("always")
            ratio_study(x, y, x, y, [0.1], TrainConfig(epochs=2, seed=seed))
        assert [str(w.message) for w in caught] == [
            "ratio 0.1: classes [1] vanished from the subsample and are excluded from macro F1"]

    def test_holds_no_per_ratio_row_copies(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10_000, 256))
        y = np.arange(10_000) % 4
        config = TrainConfig(epochs=1, seed=3, perturbation=PerturbationConfig(alpha=0.5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ratio_study(x, y, x[:200], y[:200], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # A copy of the 0.7 subsample's rows alone would be 0.7 * x.nbytes.
        # What is held besides: index arrays, batches and the helper
        # thread's draws ahead.
        assert peak < 0.35 * x.nbytes

    def test_arm_idgp_std_equals_gathered_rows(self):
        x, y = mixer_fixture(770, n=400)
        x = x + 1e3  # a large mean, where a differently summed std would differ
        config = mixer_config("IDGP")
        for key, ratio in enumerate([0.1, 0.3, 0.7, 1.0]):
            rows = subsample_indices(x.shape[0], ratio, config.seed, key)
            std = classify._Run(x, y, config, rows).std
            assert std.tobytes() == dataset_std(x[rows]).tobytes(), ratio

    # sha256 of ratio_study.csv on the mixer fixture, from the trainer that
    # trained each arm alone and held each subsample's rows as a copy
    @pytest.mark.parametrize("method,digest", [
        ("GP", "9c47100a311e2f48d6f32a71346eb71659fe7f09720cdc496011e62ebfc90476"),
        ("IDGP", "76192de5555f97fb001de2d0a227f62c9cbe45ea2e34baed15bb5dea7d5b37d3"),
        ("FDP", "f40aa29f9ffc32efe525724f70ba621ad4acdf9a4cacc7e09d6464550187e274"),
    ], ids=["GP", "IDGP", "FDP"])
    def test_csv_matches_pinned_digest(self, tmp_path, method, digest):
        x, y = mixer_fixture(770, n=400)
        x_test, y_test = mixer_fixture(770, n=120, seed=4)
        rows = ratio_study(x, y, x_test, y_test, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
                           mixer_config(method))
        write_ratio_csv(rows, tmp_path / "study.csv")
        assert hashlib.sha256((tmp_path / "study.csv").read_bytes()).hexdigest() == digest


def mixer_fixture(dim, n=150, seed=3):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 3
    x = rng.normal(scale=0.5, size=(n, dim))
    x[:, :3] += 2.0 * np.eye(3)[y]
    return x.astype(np.float32), y


def mixer_config(method):
    # the twitter2012 profile: alpha 0.6 with 64-row batches puts dim 770
    # above HELPER_MIN_VALUES and dim 32 below it
    return TrainConfig(epochs=4, batch_size=64, learning_rate=0.5, seed=5,
                       perturbation=PerturbationConfig(
                           method=method, alpha=0.6, sigma=0.1, clip_c=0.05,
                           keep_ratio=0.95, noise_level=0.02))


# (dim, method): sha256 of the saved model file and of the float64
# loss_history, from the sequential trainer before mixer draws moved to a
# helper thread (numpy 2.4.6, x86-64)
PINNED = {
    (770, "GP"): ("adad65407bb81a02c0c2c83eb7ecb66b144052ad6c4fe43da2f866ff3e178417",
                 "39331841d2cce8cb20b993c75c8c8f1fc2210ca379fe4a1e80185a15ea841a8a"),
    (770, "PGP"): ("a8995404cefda44b68aa0fb85ed66501776fa77b71f3a3fbffa83cc399f3eec0",
                  "44fffcd5d5a7e2fe2e9c2dc4e7298daa13676f50cec92342232ba427e337ada1"),
    (770, "IDGP"): ("9f97cba18ef8b1376b97ea5a221d60878aadb786f071eb27ac2ada3efcea7122",
                   "31c451cf72d8ad029c71e010fe7da83f88d6f10b6a52e7adce79e33caeb04a7f"),
    (770, "CGP"): ("8d16863b5573e852fcd70525023568a070f96d186e0981054e26ba119b6739dd",
                  "14066a8e2e1961eb25b7e27e17ef308366560c1275c957d1b322dca48c7919bc"),
    (770, "FDP"): ("2c84f9343ba9b48edeb484ef9af0378c7f408e38bad64b32402fb83223349551",
                  "ca8d1e00b8672e6b4b699e4188cff0c3b06d64691a819179d721af8b42e32e7b"),
    (32, "GP"): ("3d53ca670eb34a05caf49350550bb59c78be279204cb67d752849cc71386ce80",
                "2babe8abbc782fd60aec37147f35b726a96931b008e74984a3a3e62d0ee2acb9"),
    (32, "PGP"): ("79b71e729f71067cf39d04001da674082fe2cd81b7aa94d4268b3b06283ba4e0",
                 "6c45ac464f8c98271a85553b033e31656e8f2fa9bffc3d212fc591863f159bfd"),
    (32, "IDGP"): ("19840b2ab08dbc5eae8d0f450f19caa3783161a4cf2c7c9d258772182163b7e9",
                  "689c36b83a43e3c37a1d37b72f309ff6f263316b076ffcbd37d3b228c37552b5"),
    (32, "CGP"): ("91f2248de6355344add063fc3ce301872c7ec5b1cc0763f0a47abb02c0e68fd5",
                 "b0d778b56e15ebd03d67fa874f1ae03d7158d679cef65f1ba35a97fd1e3d1930"),
    (32, "FDP"): ("1f67565b0eb463caf82f450041df5388ea5bb8db83898859412be0136df60c73",
                 "f7b482a20b1553b4dc480a99d9318d62ae6eadf38103264b1cd40b7ebd53f435"),
}


class TestDrawHelper:
    @pytest.mark.parametrize("dim", [770, 32])
    @pytest.mark.parametrize("method", METHODS)
    def test_models_match_pinned_digests(self, tmp_path, dim, method):
        x, y = mixer_fixture(dim)
        assert (0.6 * 64 * dim >= classify.HELPER_MIN_VALUES) == (dim == 770)
        before = threading.active_count()
        model = train(x, y, mixer_config(method))
        assert threading.active_count() == before
        save_model(model, tmp_path / "m.sedmdl")
        model_digest, loss_digest = PINNED[(dim, method)]
        assert hashlib.sha256((tmp_path / "m.sedmdl").read_bytes()).hexdigest() \
            == model_digest
        assert hashlib.sha256(np.array(model.loss_history).tobytes()).hexdigest() \
            == loss_digest

    @pytest.mark.parametrize("method", METHODS)
    def test_helper_matches_sequential_path(self, monkeypatch, method):
        # the helper's draws are slowed, so the caller draws batches too
        x, y = mixer_fixture(770, n=1500)
        threads = set()
        real_draw_mix = classify.draw_mix

        def recording(*args):
            name = threading.current_thread().name
            threads.add(name)
            if name.startswith("eventaug-mixer-draws"):
                time.sleep(0.002)
            return real_draw_mix(*args)

        monkeypatch.setattr(classify, "draw_mix", recording)
        shared = train(x, y, mixer_config(method))
        helpers = threads - {"MainThread"}
        assert "MainThread" in threads and len(helpers) == 1
        assert next(iter(helpers)).startswith("eventaug-mixer-draws")
        monkeypatch.setattr(classify, "HELPER_MIN_VALUES", float("inf"))
        threads.clear()
        sequential = train(x, y, mixer_config(method))
        assert threads == {"MainThread"}  # the caller makes every draw itself
        assert shared.weights.tobytes() == sequential.weights.tobytes()
        assert shared.bias.tobytes() == sequential.bias.tobytes()
        assert shared.loss_history == sequential.loss_history

    def test_concurrent_runs_under_fast_switching(self):
        # three trainers, each with its own helper, switching threads every
        # 10 us: every batch must still get its own draws
        x, y = mixer_fixture(770)
        expected = {m: train(x, y, mixer_config(m)).weights.tobytes()
                    for m in ("GP", "CGP", "FDP")}
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [threading.Thread(target=lambda m=m: got.__setitem__(
                        m, train(x, y, mixer_config(m)).weights.tobytes()))
                    for m in expected]
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=60)
                assert not run.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_helper_error_surfaces_with_its_type(self, monkeypatch):
        class DrawFailed(RuntimeError):
            pass

        calls = []
        real_draw_mix = classify.draw_mix

        def failing(*args):
            if threading.current_thread().name.startswith("eventaug-mixer-draws"):
                calls.append(1)
                if len(calls) == 2:
                    raise DrawFailed("second helper batch")
            return real_draw_mix(*args)

        monkeypatch.setattr(classify, "draw_mix", failing)
        x, y = mixer_fixture(770, n=1500)
        before = threading.active_count()
        with pytest.raises(DrawFailed, match="second helper batch"):
            train(x, y, mixer_config("GP"))
        assert threading.active_count() == before

    def test_caller_error_stops_the_helper(self, monkeypatch):
        steps = []
        real_grad = classify.cross_entropy_grad

        def failing(*args):
            steps.append(1)
            if len(steps) == 3:
                raise FloatingPointError("step 3")
            return real_grad(*args)

        monkeypatch.setattr(classify, "cross_entropy_grad", failing)
        x, y = mixer_fixture(770, n=1500)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="step 3"):
            train(x, y, mixer_config("GP"))
        assert threading.active_count() == before


class TestTrainMany:
    @pytest.mark.parametrize("dim", [770, 32])
    @pytest.mark.parametrize("method", METHODS)
    def test_models_equal_separate_train_calls(self, dim, method):
        # two seeds, 150 rows (a last batch of 22) and 107 of them (a last
        # batch of 43), with and without the mixer, on one shared matrix:
        # at dim 770 a helper thread draws, runs 0 and 2 share the draws of
        # full batches, and run 3 takes run 2's batches
        x, y = mixer_fixture(dim)
        x = x.astype(np.float64)
        rows = np.sort(np.random.default_rng(4).permutation(150)[:107])
        config = mixer_config(method)
        runs = [(x, y, config), (x, y, replace(config, seed=6)), (x, y, config, rows),
                (x, y, replace(config, perturbation=None), rows)]
        models = train_many(runs)
        for run, model in zip(runs, models):
            rx, ry = (x, y) if len(run) == 3 else (x[rows], y[rows])
            alone = train(rx, ry, run[2], num_classes=3)
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.bias.tobytes() == alone.bias.tobytes()
            assert model.loss_history == alone.loss_history
            assert model.metadata == alone.metadata

    def test_runs_must_share_shape_and_schedule(self):
        x, y = mixer_fixture(32)
        with pytest.raises(ValueError, match="dim, epochs and batch size"):
            train_many([(x, y, TrainConfig(epochs=2)), (x, y, TrainConfig(epochs=3))])
        with pytest.raises(ValueError, match="dim, epochs and batch size"):
            train_many([(x, y, TrainConfig()), (x[:, :8], y, TrainConfig())])
        with pytest.raises(ValueError, match="no runs"):
            train_many([])
