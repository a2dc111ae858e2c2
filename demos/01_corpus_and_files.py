"""Corpus JSONL round trip, the SEDEMB01 embedding file, and 70/10/20 splits."""
import tempfile
from pathlib import Path

import numpy as np

from eventaug import (Corpus, EmbeddingMatrix, Message, SplitSpec,
                      parse_corpus, read_embeddings, split, write_corpus,
                      write_embeddings)

with tempfile.TemporaryDirectory(prefix="eventaug-demo-") as tmp:
    workdir = Path(tmp)

    corpus = Corpus(messages=tuple(
        Message(id=f"m{i}", text=f"flood update {i} from #Sydney",
                user_id=f"user{i % 4}", timestamp=1_600_000_000 + i * 7200,
                entities=("Sydney",), label=i % 3)
        for i in range(20)))

    corpus_path = workdir / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    print(f"wrote {corpus_path} ({len(corpus)} messages, "
          f"{corpus.num_classes} classes)")
    assert parse_corpus(corpus_path) == corpus

    # embeddings are produced out of process (e.g. by a sentence encoder) and
    # exchanged as SEDEMB01 binary files
    rng = np.random.default_rng(0)
    emb = EmbeddingMatrix(corpus.ids(), rng.normal(size=(20, 32)).astype(np.float32))
    emb_path = workdir / "embeddings.sedemb"
    write_embeddings(emb, emb_path)
    back = read_embeddings(emb_path)
    print(f"embedding file round trip: {back.rows} rows x {back.dim} dims, "
          f"bitwise equal = {np.array_equal(back.values, emb.values)}")

    spec = SplitSpec(train_ratio=0.7, val_ratio=0.1, test_ratio=0.2, seed=42)
    train_ids, val_ids, test_ids = split(corpus.ids(), spec)
    print(f"split sizes: train={len(train_ids)} val={len(val_ids)} "
          f"test={len(test_ids)}")
