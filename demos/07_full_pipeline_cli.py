"""End-to-end pipeline through the CLI with the offline mock provider:
augment-text -> fuse -> train -> diagnose, all in a temporary directory
that is removed at the end."""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from eventaug import (Corpus, EmbeddingMatrix, Message, parse_corpus, read_embeddings,
                      write_corpus, write_embeddings)


def run(*args):
    cmd = [sys.executable, "-m", "eventaug.cli", *args]
    print("$ eventaug", " ".join(args))
    result = subprocess.run(cmd, capture_output=True, text=True)
    print(result.stdout, end="")
    if result.returncode != 0:
        print(result.stderr, end="")
        raise SystemExit(result.returncode)


with tempfile.TemporaryDirectory(prefix="eventaug-pipeline-") as tmp:
    work = Path(tmp)
    rng = np.random.default_rng(5)

    # two event classes with separable message embeddings
    messages, values = [], []
    for i in range(30):
        label = i % 2
        messages.append(Message(
            id=f"m{i}", text=f"report {i} about the Harbour Bridge closure",
            user_id=f"u{i % 6}", timestamp=1_700_000_000 + i * 1800,
            entities=("Harbour Bridge",), label=label))
        v = rng.normal(scale=0.4, size=12)
        v[0] += 3.0 if label == 0 else -3.0
        values.append(v)
    corpus_path = work / "corpus.jsonl"
    write_corpus(Corpus(messages=tuple(messages)), corpus_path)
    write_embeddings(EmbeddingMatrix([m.id for m in messages],
                                     np.array(values, dtype=np.float32)),
                     work / "embeddings.sedemb")

    run("augment-text", "--corpus", str(corpus_path), "--mock",
        "--strategy", "keep-entity", "--out", str(work / "aug"),
        "--out-corpus", str(work / "augmented.jsonl"))

    # the fuse step needs an embedding row for every message, augmented ones
    # included; the echo mock copies text, so reuse the source rows
    augmented = parse_corpus(work / "augmented.jsonl")
    base = read_embeddings(work / "embeddings.sedemb")
    rows = [base.row(m.id if m.origin is None else m.origin.source_id)
            for m in augmented.messages]
    write_embeddings(EmbeddingMatrix(augmented.ids(),
                                     np.array(rows, dtype=np.float32)),
                     work / "embeddings_full.sedemb")

    run("fuse", "--corpus", str(work / "augmented.jsonl"),
        "--embeddings", str(work / "embeddings_full.sedemb"),
        "--out", str(work / "fuse"))

    run("train", "--corpus", str(work / "augmented.jsonl"),
        "--fused", str(work / "fuse" / "fused.sedemb"),
        "--profile", "kawarith6", "--seed", "3", "--epochs", "200",
        "--out", str(work / "train"))

    run("diagnose", "--fused", str(work / "fuse" / "fused.sedemb"),
        "--method", "GP", "--sigma", "0.05", "--out", str(work / "diag"))

    report = json.loads((work / "train" / "report.json").read_text())
    print(f"\nfinal test-split scores: micro={report['micro_f1']:.4f} "
          f"macro={report['macro_f1']:.4f}")
