"""Seeded synthetic inputs for the benchmark workloads.

Everything the program sees is written here as plain files: a JSONL corpus,
a SEDEMB01 embedding file and, for ``train-sweep``, a pre-fused matrix. The
writers below follow the documented file formats and do not call the
program, so input generation costs the same whatever the program does.

Sizes, class counts, hub shares and class balance are fixed per workload
and per size; the seed only chooses which message gets which label, user,
entity, word and vector. Counts are drawn exactly (a fixed number of
messages per class and per hub), not sampled, so the work of a pass is the
same on every seed.

Run as a script it performs one set-up: ``python3 bench/gen.py WORKLOAD
SEED SIZE WORKDIR`` generates the inputs and, for ``pipeline-hub``, primes
the response cache with one cold ``augment-text``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import sys

import numpy as np

EMB_DIM = 768
FUSED_DIM = EMB_DIM + 2
STRATEGY_TOKENS = ("paraphrase", "add-context", "style-transfer",
                   "keep-entity", "extract-rewrite-keywords")
T0 = 1_700_000_000
DAYS = 30
VOCAB = 600

# Per workload and size: originals (or rows), class weights, hub entities,
# share of originals that mention a hub, entities per class pool, and the
# class signal of the message vectors.
SPECS = {
    "pipeline-hub": {
        "full": dict(originals=1200, weights=(1,) * 6, hubs=8, hub_share=1 / 3,
                     entities_per_class=30, signal=0.08),
        "toy": dict(originals=60, weights=(1,) * 6, hubs=2, hub_share=1 / 3,
                    entities_per_class=4, signal=0.1),
    },
    "pipeline-flat": {
        "full": dict(originals=1500, weights=(1,) * 6, hubs=0, hub_share=0.0,
                     entities_per_class=75, signal=0.075),
        "toy": dict(originals=90, weights=(1,) * 6, hubs=0, hub_share=0.0,
                    entities_per_class=6, signal=0.085),
    },
    "train-sweep": {
        "full": dict(rows=4000, weights=(8, 5, 3, 2, 2)),
        "toy": dict(rows=600, weights=(8, 5, 3, 2, 2)),
    },
}

# Class separation, chosen so that F1 sits well away from both chance and
# 1.0 (see README). Pipeline vectors are ``signal`` * class direction plus
# isotropic noise of unit norm. Sweep rows carry the class means in the
# first SWEEP_SIGNAL_DIMS dimensions, with unit noise there and SWEEP_TAIL
# noise elsewhere, so a linear model trained on 1.4k rows of 770 dims can
# get near the nearest-class-mean rule.
SWEEP_SIGNAL = 2.5
SWEEP_SIGNAL_DIMS = 32
SWEEP_TAIL = 0.3
USER_PURITY = 0.9  # share of a user's messages in the user's own class


def _exact_labels(rng, n, weights):
    """n labels with class counts proportional to ``weights`` (rounded,
    remainder to class 0), in seeded order."""
    w = np.asarray(weights, dtype=np.float64)
    counts = np.floor(n * w / w.sum()).astype(int)
    counts[0] += n - counts.sum()
    labels = np.repeat(np.arange(len(w)), counts)
    return rng.permutation(labels)


def _unit_rows(rng, k, dim):
    """k orthonormal rows in a seeded random orientation, so that every
    seed gives the classes the same geometry."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    return q.T


def write_sedemb(path, ids, values) -> None:
    """SEDEMB01: magic, rows and dim (u32 LE), length-prefixed UTF-8 ids,
    then float32 LE row-major values."""
    values = np.ascontiguousarray(values, dtype="<f4")
    parts = [b"SEDEMB01", struct.pack("<II", *values.shape)]
    for item_id in ids:
        raw = item_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(values.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_sedemb(path):
    """(ids, float32 values) from a SEDEMB01 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"SEDEMB01":
        raise ValueError(f"{path}: bad magic")
    rows, dim = struct.unpack_from("<II", blob, 8)
    offset, ids = 16, []
    for _ in range(rows):
        (n,) = struct.unpack_from("<I", blob, offset)
        ids.append(blob[offset + 4:offset + 4 + n].decode("utf-8"))
        offset += 4 + n
    values = np.frombuffer(blob, dtype="<f4", count=rows * dim, offset=offset)
    return ids, values.reshape(rows, dim)


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def pipeline_inputs(workdir, seed, spec) -> None:
    """Corpus of originals plus an embedding file that covers the originals
    and every variant id ``augment-text`` will create. The text encoder is
    out of the program's scope, so the benchmark stands in for it: a
    variant's vector is its source vector plus a little noise."""
    rng = np.random.default_rng([seed, 1])
    n = spec["originals"]
    n_classes = len(spec["weights"])
    labels = _exact_labels(rng, n, spec["weights"])

    # Users: about five originals each; each user has a home class.
    n_users = max(2, n // 5)
    user_class = _exact_labels(rng, n_users, spec["weights"])
    users_by_class = [np.flatnonzero(user_class == c) for c in range(n_classes)]
    own = rng.random(n) < USER_PURITY
    users = np.empty(n, dtype=np.int64)
    for i in range(n):
        pool = users_by_class[labels[i]] if own[i] else np.arange(n_users)
        users[i] = pool[rng.integers(len(pool))]

    # Entities: one or two from the message's class pool; hub entities for
    # an exact share of the messages, spread round-robin over the hubs.
    epc = spec["entities_per_class"]
    hub_rows = rng.permutation(n)[:int(round(n * spec["hub_share"]))]
    hub_of = {int(r): k % spec["hubs"] for k, r in enumerate(hub_rows)}

    records = []
    for i in range(n):
        c = int(labels[i])
        ents = [f"Ev{c}x{rng.integers(epc)}"]
        if rng.random() < 0.5:
            second = f"Ev{c}x{rng.integers(epc)}"
            if second != ents[0]:
                ents.append(second)
        if i in hub_of:
            ents.append(f"Hub{hub_of[i]}")
        words = [f"w{w}" for w in rng.integers(VOCAB, size=rng.integers(8, 17))]
        for e in ents:
            words.insert(int(rng.integers(len(words) + 1)), e)
        records.append({
            "id": f"m{i:06d}", "text": " ".join(words),
            "user_id": f"u{users[i]:05d}",
            "timestamp": int(T0 + rng.integers(DAYS * 86400)),
            "entities": ents, "label": c,
        })
    write_jsonl(os.path.join(workdir, "corpus.jsonl"), records)

    means = _unit_rows(rng, n_classes, EMB_DIM)
    base = spec["signal"] * means[labels] + \
        rng.normal(size=(n, EMB_DIM)) / np.sqrt(EMB_DIM)
    ids = [r["id"] for r in records]
    rows = [base]
    for token in STRATEGY_TOKENS:
        ids.extend(f"{r['id']}__{token}_0" for r in records)
        rows.append(base + rng.normal(scale=0.3, size=base.shape) / np.sqrt(EMB_DIM))
    write_sedemb(os.path.join(workdir, "emb.sedemb"), ids, np.vstack(rows))


def sweep_inputs(workdir, seed, spec) -> None:
    """Labelled originals and a pre-fused, class-imbalanced, overlapping
    770-dim matrix: class means plus Gaussian noise. The class means are
    saved so the checks can apply the nearest-class-mean rule."""
    rng = np.random.default_rng([seed, 2])
    n = spec["rows"]
    labels = _exact_labels(rng, n, spec["weights"])
    n_classes = len(spec["weights"])
    means = np.zeros((n_classes, FUSED_DIM))
    means[:, :SWEEP_SIGNAL_DIMS] = SWEEP_SIGNAL * _unit_rows(rng, n_classes, SWEEP_SIGNAL_DIMS)
    scale = np.full(FUSED_DIM, SWEEP_TAIL)
    scale[:SWEEP_SIGNAL_DIMS] = 1.0
    values = means[labels] + rng.normal(size=(n, FUSED_DIM)) * scale
    records = [{"id": f"m{i:06d}", "text": f"row {i}", "user_id": f"u{i % 97}",
                "timestamp": T0 + 60 * i, "entities": [], "label": int(labels[i])}
               for i in range(n)]
    write_jsonl(os.path.join(workdir, "corpus.jsonl"), records)
    write_sedemb(os.path.join(workdir, "fused.sedemb"),
                 [r["id"] for r in records], values)
    np.save(os.path.join(workdir, "class_means.npy"), means)


def write_config(workdir) -> None:
    """INI config for ``augment-text`` with one request in flight. The mock
    provider is Python work under the interpreter lock, so more workers
    only contend: on a 2-core machine, 2 workers made cold augment-text
    range over 4.2-6.2 s across passes, 1 worker over 3.9-4.3 s."""
    path = os.path.join(workdir, "bench.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[explicit]\nmax_in_flight = 1\n")


def setup(workload, seed, size, workdir) -> None:
    """Generate the inputs of one workload; for ``pipeline-hub`` also prime
    the response cache so that every pass reads it warm."""
    os.makedirs(workdir, exist_ok=True)
    spec = SPECS[workload][size]
    write_config(workdir)
    if workload == "train-sweep":
        sweep_inputs(workdir, seed, spec)
        return
    pipeline_inputs(workdir, seed, spec)
    if workload == "pipeline-hub":
        from eventaug import cli
        cache = os.path.join(workdir, "cache")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["augment-text", "--corpus", os.path.join(workdir, "corpus.jsonl"),
                           "--mock", "shuffle", "--cache-dir", cache,
                           "--config", os.path.join(workdir, "bench.ini"),
                           "--out", os.path.join(workdir, "prime"),
                           "--out-corpus", os.path.join(workdir, "primed.jsonl")])
        if rc != 0:
            raise SystemExit(f"cache priming failed with exit code {rc}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import eventaug.cli  # noqa: F401  -- imports count toward set-up time
    workload, seed, size, workdir = sys.argv[1:5]
    setup(workload, int(seed), size, workdir)
