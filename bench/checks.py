"""Output checks, computed apart from the program.

Each check recomputes a result with plain numpy from the generated inputs
and the documented formats and contracts (README "File formats" and
"Determinism"), or tests a property the method must have. None compares
against a stored copy of earlier output. A failed check raises
``CheckError``.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

from gen import read_sedemb

SPLIT = (0.7, 0.1, 0.2)
FUSION = (1.0, 0.5, 0.5)  # w_self, w_user, w_entity of the default FusionParams


class CheckError(AssertionError):
    pass


def require(cond, message) -> None:
    if not cond:
        raise CheckError(message)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_model(path):
    """(weights, bias) from a SEDMDL01 file, as float64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:8] == b"SEDMDL01", f"{path}: bad model magic")
    c, d = struct.unpack_from("<II", blob, 8)
    w = np.frombuffer(blob, dtype="<f4", count=c * d, offset=16).reshape(c, d)
    b = np.frombuffer(blob, dtype="<f4", count=c, offset=16 + 4 * c * d)
    return w.astype(np.float64), b.astype(np.float64)


def parse_counts(stdout: str) -> dict:
    """The ``key=value`` counts that ``augment-text`` prints."""
    for line in stdout.splitlines():
        if line.startswith("originals="):
            return {k: int(v) for k, v in (p.split("=") for p in line.split())}
    raise CheckError("augment-text printed no counts line")


def test_ids(records, seed) -> list[str]:
    """Test-split ids of the labelled originals: a PCG64 permutation seeded
    through SeedSequence(seed, spawn_key=(0,)), then contiguous 70/10/20
    with the remainder going to train."""
    ids = [r["id"] for r in records if r.get("origin") is None
           and r.get("label") is not None]
    n = len(ids)
    n_train, n_val, n_test = (int(math.floor(n * r + 1e-9)) for r in SPLIT)
    n_train += n - (n_train + n_val + n_test)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    order = np.random.Generator(np.random.PCG64(seq)).permutation(n)
    return [ids[i] for i in order[n_train + n_val:]]


def confusion(preds, golds, num_classes) -> list[list[int]]:
    """Confusion matrix (rows gold, columns predicted), counted row by row."""
    conf = [[0] * num_classes for _ in range(num_classes)]
    for p, g in zip(preds, golds):
        conf[g][p] += 1
    return conf


def f1_from_confusion(conf) -> tuple[float, float]:
    """(micro, macro); macro averages over classes present in gold or
    predictions, with 0/0 read as 0."""
    k = len(conf)
    f1s = []
    for c in range(k):
        tp = conf[c][c]
        pred_c = sum(conf[g][c] for g in range(k))
        gold_c = sum(conf[c])
        if pred_c == 0 and gold_c == 0:
            continue
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / gold_c if gold_c else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    micro = sum(conf[c][c] for c in range(k)) / sum(map(sum, conf))
    return micro, sum(f1s) / len(f1s)


def check_report(corpus_path, fused_path, model_path, report_path, seed,
                 rows_slack: int) -> tuple[float, float]:
    """Recompute the test-split confusion matrix from the saved model
    weights (argmax of x W^T + b) and check ``report.json`` against it: the
    same gold counts, at most ``rows_slack`` predictions moved (a ``train``
    report comes from the unrounded in-memory model, not the float32
    file), and F1 equal to the F1 of its own confusion matrix."""
    records = read_jsonl(corpus_path)
    label = {r["id"]: r["label"] for r in records if r.get("label") is not None}
    ids, values = read_sedemb(fused_path)
    row = {i: k for k, i in enumerate(ids)}
    test = test_ids(records, seed)
    w, b = read_model(model_path)
    x = values[[row[i] for i in test]].astype(np.float64)
    preds = (x @ w.T + b).argmax(axis=1).tolist()
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    reported = report["confusion"]
    mine = confusion(preds, [label[i] for i in test], len(reported))
    require([sum(r) for r in reported] == [sum(r) for r in mine],
            f"{report_path}: gold counts {[sum(r) for r in reported]}, "
            f"test split has {[sum(r) for r in mine]}")
    moved = sum(abs(a - c) for ra, rc in zip(reported, mine) for a, c in zip(ra, rc)) // 2
    require(moved <= rows_slack, f"{report_path}: {moved} predictions differ from the weights'")
    micro, macro = f1_from_confusion(reported)
    require(abs(report["micro_f1"] - micro) < 1e-12 and abs(report["macro_f1"] - macro) < 1e-12,
            f"{report_path}: F1 {report['micro_f1']}/{report['macro_f1']} but its confusion "
            f"matrix gives {micro}/{macro}")
    return report["micro_f1"], report["macro_f1"]


def check_augmented(original_path, augmented_path, strategies: int, counts: dict,
                    expect_calls: bool) -> None:
    """Every original gets one variant per strategy, each variant's words
    are a rotation of its source's words (the shuffle mock), and the
    provider was called for every task on a cold cache and never on a warm
    one."""
    originals = read_jsonl(original_path)
    augmented = read_jsonl(augmented_path)
    n = len(originals)
    require(counts["originals"] == n and counts["generated"] == n * strategies
            and counts["skipped"] == 0,
            f"augment-text counts {counts} for {n} originals x {strategies} strategies")
    expected = (n * strategies, 0) if expect_calls else (0, n * strategies)
    require((counts["provider_calls"], counts["cache_hits"]) == expected,
            f"provider_calls/cache_hits {counts} but expected {expected}")
    require(len(augmented) == n * (1 + strategies), "augmented corpus has the wrong length")
    source = {r["id"]: r["text"].split() for r in originals}
    for r in augmented[n:]:
        src = source[r["origin"]["source_id"]]
        words = r["text"].split()
        require(any(words == src[k:] + src[:k] for k in range(len(src))),
                f"{r['id']} is not a word rotation of its source")


def check_fused(corpus_path, emb_path, fused_path, seed, sample: int) -> None:
    """Recompute a seeded sample of fused rows: the input row with two
    min-max scaled temporal columns (whole days since the first message,
    second of day), plus w_user times the mean over the author's other
    messages and w_entity times the mean over the other messages sharing
    any entity (case-insensitive, each message once), L2-normalised."""
    records = read_jsonl(corpus_path)
    emb_ids, emb = read_sedemb(emb_path)
    fused_ids, fused = read_sedemb(fused_path)
    require(fused_ids == [r["id"] for r in records], "fused rows out of corpus order")
    require(fused.shape[1] == emb.shape[1] + 2, "fused dim is not input dim + 2")
    emb_row = {i: k for k, i in enumerate(emb_ids)}
    ts = np.array([r["timestamp"] for r in records], dtype=np.int64)
    temporal = []
    for col in ((ts - ts.min()) // 86400, ts % 86400):
        span = col.max() - col.min()
        temporal.append((col - col.min()) / span if span else np.zeros(len(col)))
    x = np.hstack([emb[[emb_row[r["id"]] for r in records]].astype(np.float64),
                   np.stack(temporal, axis=1)])
    by_user, by_entity = {}, {}
    for k, r in enumerate(records):
        by_user.setdefault(r["user_id"], []).append(k)
        for e in {e.lower() for e in r["entities"]}:
            by_entity.setdefault(e, []).append(k)
    w_self, w_user, w_entity = FUSION
    rng = np.random.default_rng([seed, 3])
    for k in rng.choice(len(records), size=min(sample, len(records)), replace=False):
        r = records[k]
        users = [j for j in by_user[r["user_id"]] if j != k]
        ents = sorted({j for e in {e.lower() for e in r["entities"]}
                       for j in by_entity[e]} - {k})
        out = w_self * x[k]
        if users:
            out = out + w_user * x[users].mean(axis=0)
        if ents:
            out = out + w_entity * x[ents].mean(axis=0)
        norm = np.linalg.norm(out)
        expect = out / norm if norm > 0 else out
        err = np.abs(fused[k] - expect).max()
        require(err < 2e-6, f"fused row {r['id']} differs by {err:.2e}")


def check_pca(stacked, result, explained_csv) -> None:
    """The explained variances of ``pca2`` are the top two eigenvalues of
    the population covariance (``np.linalg.eigh``), and the CSV holds them."""
    x = np.asarray(stacked, dtype=np.float64)
    mean = x.mean(axis=0)
    cov = x.T @ x / x.shape[0] - np.outer(mean, mean)  # no centered copy of x
    eig = np.linalg.eigh(cov)[0][::-1][:2]
    got = np.asarray(result[1])
    require(np.allclose(got, eig, rtol=1e-6, atol=1e-12),
            f"pca2 explained variance {got} but eigh gives {eig}")
    with open(explained_csv, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    written = np.array([float(r["variance"]) for r in rows])
    require(np.allclose(written, eig, rtol=1e-6), f"{explained_csv} holds {written}, eigh {eig}")


def check_moments(moments_csv, sigma: float) -> None:
    """After GP the pooled variance is the variance before plus sigma^2,
    within five standard errors of the sampled noise variance and of its
    covariance with the data."""
    with open(moments_csv, encoding="utf-8") as fh:
        rows = {r["group"]: r for r in csv.DictReader(fh)}
    n = int(rows["before"]["count"])
    sd_b = float(rows["before"]["std"])
    sd_a = float(rows["after"]["std"])
    se = sigma ** 2 * math.sqrt(2.0 / n) + 2.0 * sd_b * sigma / math.sqrt(n)
    gap = sd_a ** 2 - (sd_b ** 2 + sigma ** 2)
    require(abs(gap) < 5 * se + 1e-9,
            f"moments: var after {sd_a ** 2:.6g} vs before + sigma^2 "
            f"{sd_b ** 2 + sigma ** 2:.6g} (5 se = {5 * se:.2g})")


def ncm_macro_f1(corpus_path, fused_path, means_path, seed) -> float:
    """Macro-F1 on the test split of the nearest-class-mean rule, with the
    generator's own class means."""
    records = read_jsonl(corpus_path)
    ids, values = read_sedemb(fused_path)
    row = {i: k for k, i in enumerate(ids)}
    label = {r["id"]: r["label"] for r in records}
    means = np.load(means_path)
    test = test_ids(records, seed)
    x = values[[row[i] for i in test]].astype(np.float64)
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    conf = confusion(d2.argmin(axis=1).tolist(), [label[i] for i in test], len(means))
    return f1_from_confusion(conf)[1]


def check_ratio_csv(path, ratios) -> list[tuple[float, float]]:
    """Two arms per ratio, in order, with F1 in [0, 1]; returns the
    (micro, macro) pairs."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require([(float(r["ratio"]), r["arm"]) for r in rows]
            == [(q, arm) for q in ratios for arm in ("aug", "noaug")],
            f"{path}: unexpected ratio/arm rows")
    pairs = [(float(r["micro_f1"]), float(r["macro_f1"])) for r in rows]
    require(all(0.0 <= v <= 1.0 for p in pairs for v in p), f"{path}: F1 outside [0, 1]")
    return pairs
