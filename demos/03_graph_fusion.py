"""Heterogeneous graph construction and structure-fused embeddings."""
import numpy as np

from eventaug import (Corpus, EmbeddingMatrix, FusionParams, Message,
                      build_graph, fuse)
from eventaug.graph import neighborhood

corpus = Corpus(messages=(
    Message("a", "power outage in #Auckland", "kiwi", 1_700_000_000,
            entities=("Auckland",)),
    Message("b", "auckland transport delays", "kiwi", 1_700_003_600,
            entities=("auckland",)),          # same entity, different casing
    Message("c", "storm front moving north", "tui", 1_700_007_200,
            entities=("Storm",)),
    Message("d", "storm photos from Auckland", "moa", 1_700_010_800,
            entities=("Storm", "Auckland")),
))

graph = build_graph(corpus)
print("graph:", graph.stats())
for mid in corpus.ids():
    users, ents = neighborhood(graph, mid)
    print(f"  {mid}: same-user={users} shared-entity={ents}")

rng = np.random.default_rng(7)
emb = EmbeddingMatrix(corpus.ids(), rng.normal(size=(4, 16)).astype(np.float32))
fused = fuse(graph, emb, corpus, FusionParams(w_self=1.0, w_user=0.5,
                                              w_entity=0.5, layers=1))
print(f"\nfused: {fused.rows} rows, dim {emb.dim} -> {fused.dim} "
      "(two temporal features appended)")
print("row norms:", np.round(np.linalg.norm(fused.values, axis=1), 6))

# neighbors pull fused rows together: compare cosines before and after
def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

print(f"cos(c, d) raw   = {cosine(emb.row('c'), emb.row('d')):+.3f}")
print(f"cos(c, d) fused = {cosine(fused.row('c'), fused.row('d')):+.3f}")
