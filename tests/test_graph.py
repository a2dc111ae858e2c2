import json
import math
import tracemalloc

import numpy as np
import pytest

from eventaug.core import EmbeddingMatrix
from eventaug import graph as graphmod
from eventaug.graph import (FusionParams, _fused_rows, build_graph, fuse,
                            neighborhood)
from eventaug.ingest import temporal_features
from eventaug.ingest import Corpus

from conftest import make_message


def oracle_fuse(corpus, emb_values, params):
    """Independent re-implementation of the aggregation rule with plain
    loops and set intersections (no graph structure, no numpy fft/bulk)."""
    msgs = list(corpus.messages)
    ts = [m.timestamp for m in msgs]
    days = [(t - min(ts)) // 86400 for t in ts]
    secs = [t % 86400 for t in ts]

    def scaled(vals):
        lo, hi = min(vals), max(vals)
        return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in vals]

    d_col, s_col = scaled(days), scaled(secs)
    rows = [list(map(float, emb_values[i])) + [d_col[i], s_col[i]]
            for i in range(len(msgs))]

    def mean_of(indices):
        dim = len(rows[0])
        return [sum(rows[j][k] for j in indices) / len(indices)
                for k in range(dim)]

    for _ in range(params.layers):
        new_rows = []
        for i, mi in enumerate(msgs):
            acc = [params.w_self * v for v in rows[i]]
            user_nbrs = [j for j, mj in enumerate(msgs)
                         if j != i and mj.user_id == mi.user_id]
            ents = {e.lower() for e in mi.entities}
            ent_nbrs = [j for j, mj in enumerate(msgs)
                        if j != i and ents & {e.lower() for e in mj.entities}]
            for weight, nbrs in ((params.w_user, user_nbrs),
                                 (params.w_entity, ent_nbrs)):
                if nbrs:
                    m = mean_of(nbrs)
                    acc = [a + weight * v for a, v in zip(acc, m)]
            norm = math.sqrt(sum(a * a for a in acc))
            new_rows.append([a / norm for a in acc] if norm > 0 else acc)
        rows = new_rows
    return np.array(rows)


def random_fusion_case(seed):
    """Seeded corpus of 40-80 messages with hub entities, case variants of
    one entity (also inside a single message), messages without entities,
    users with a single message and pairs of messages sharing two
    entities; returns (corpus, float32 embedding values)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 81))
    pool = ["Storm", "storm", "STORM", "Flood", "Sydney", "Bondi", "Perth",
            "Fire", "Smoke", "Road"]
    fixed = [["Storm", "Flood"], ["flood", "storm"], ["Storm", "storm"],
             [], ["Sydney"]]
    messages = []
    for i in range(n):
        if i < len(fixed):
            ents = fixed[i]
        else:
            ents = [str(e) for e in rng.choice(pool, size=int(rng.integers(0, 4)))]
            if rng.random() < 0.4:
                ents.append(str(rng.choice(["Hub", "hub"])))
        # users 0-5 are shared; every fifth message gets a user of its own
        user = f"solo{i}" if i % 5 == 4 else f"u{int(rng.integers(6))}"
        messages.append(make_message(f"m{i:02d}", user=user,
                                     ts=1_600_000_000 + int(rng.integers(10 ** 6)),
                                     entities=ents))
    values = rng.normal(size=(n, 4)).astype(np.float32)
    return Corpus(messages=tuple(messages)), values


HUB_POOL = ("Storm", "Flood", "Sydney", "Fire", "Road", "Hub", "hub")
# Enough entities that the distinct entity sets give more than a block of
# incidence rows, and many of them share two or more entities.
WIDE_POOL = tuple(f"E{k}" for k in range(40))


def block_crossing_case(seed, n, dim, pool=HUB_POOL):
    """Seeded corpus several fusion blocks long: one author and one
    entity set each hold more than a block of messages, a fifth of the
    messages mention no entity and the rest spread over small groups of
    one to three ``pool`` entities that straddle block cuts; returns
    (corpus, float32 embedding values)."""
    rng = np.random.default_rng(seed)
    messages = []
    for i in range(n):
        r = rng.random()
        if r < 0.2:
            ents = []
        elif r < 0.7:
            ents = [str(rng.choice(["Big", "big", "BIG"]))]
        else:
            ents = [str(e) for e in rng.choice(pool, size=int(rng.integers(1, 4)))]
        user = "whale" if rng.random() < 0.55 else f"u{int(rng.integers(300))}"
        messages.append(make_message(f"m{i}", user=user,
                                     ts=1_600_000_000 + int(rng.integers(10 ** 7)),
                                     entities=ents))
    values = rng.normal(size=(n, dim)).astype(np.float32)
    return Corpus(messages=tuple(messages)), values


def whole_matrix_reference(graph, ids, x, params):
    """The fusion formula without blocks: each layer gathers all rows in
    group order for one ``np.add.reduceat``, then combines every row at
    once. The reach sums go through ``_EntityReach``'s incidence and extra
    pairs the same way, by entity, then by group, minus the extra pairs."""
    def group_sums(group_of, values, size=0):
        order = np.argsort(group_of, kind="stable")
        sorted_ids = group_of[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        out = np.zeros((max(size, sorted_ids.max(initial=-1) + 1),
                        values.shape[1]))
        if starts.size:
            out[sorted_ids[starts]] = np.add.reduceat(values[order], starts,
                                                      axis=0)
        return out

    def reach_sums(values):
        per_entity = group_sums(reach.entity, values[reach.group])
        out = group_sums(reach.group, per_entity[reach.entity], reach.num_groups)
        out -= group_sums(reach.extra_group, values[reach.extra_partner],
                          reach.num_groups)
        return out

    def neighbor_mean(sums, group_of, size, rows, weight):
        mean = (sums[group_of] - rows) / np.maximum(size, 1)[:, None]
        return mean * np.where(size > 0, weight, 0.0)[:, None]

    user_of = graphmod._dense_ids(graph.message_user[m] for m in ids)
    keys = [tuple(sorted(graph.message_entities[m])) for m in ids]
    set_of = graphmod._dense_ids(keys)
    reach = graphmod._EntityReach(list(dict.fromkeys(keys)))
    user_size = np.bincount(user_of)[user_of] - 1
    set_counts = np.bincount(set_of)[:, None].astype(np.float64)
    entity_size = reach_sums(set_counts)[:, 0].astype(np.intp)[set_of] - 1
    for _ in range(params.layers):
        out = params.w_self * x
        out += neighbor_mean(group_sums(user_of, x), user_of, user_size, x,
                             params.w_user)
        out += neighbor_mean(reach_sums(group_sums(set_of, x)), set_of,
                             entity_size, x, params.w_entity)
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        out[norms[:, 0] == 0] = 0.0
        x = out
    return x


FUSION_PARAMS = [FusionParams(), FusionParams(layers=2),
                 FusionParams(w_self=0.7, w_user=1.3, w_entity=0.2, layers=1),
                 FusionParams(w_self=1.0, w_user=0.0, w_entity=2.5, layers=2)]


class TestBuildGraph:
    def test_fixture_counts(self, graph_corpus):
        g = build_graph(graph_corpus)
        # hand count: users {u1,u2,u3}; entities {sydney, bondi beach,
        # storm, flood}; entity edges 2+1+1+0+2
        assert g.stats() == {"messages": 5, "users": 3, "entities": 4,
                             "user_edges": 5, "entity_edges": 6}

    def test_case_insensitive_entity_node(self, graph_corpus):
        g = build_graph(graph_corpus)
        assert "sydney" in g.entity_messages
        assert g.entity_names["sydney"] == "Sydney"  # first casing wins
        assert g.entity_messages["sydney"] == ["m1", "m2"]

    def test_same_user_two_messages(self):
        corpus = Corpus(messages=(
            make_message("a", entities=["X"]),
            make_message("b", entities=["Y"]),
        ))
        stats = build_graph(corpus).stats()
        assert (stats["users"], stats["user_edges"], stats["entity_edges"]) == (1, 2, 2)

    def test_json_dump_parses(self, graph_corpus):
        g = build_graph(graph_corpus)
        payload = json.loads(g.to_json())
        assert payload["nodes"]["users"] == ["u1", "u2", "u3"]
        assert len(payload["edges"]["message_user"]) == 5


class TestNeighborhood:
    def test_hand_enumeration(self, graph_corpus):
        g = build_graph(graph_corpus)
        assert neighborhood(g, "m1") == (["m2"], ["m2"])
        assert neighborhood(g, "m2") == (["m1"], ["m1"])
        assert neighborhood(g, "m3") == (["m4"], ["m5"])
        assert neighborhood(g, "m4") == (["m3"], [])
        assert neighborhood(g, "m5") == ([], ["m3"])

    def test_unknown_id(self, graph_corpus):
        g = build_graph(graph_corpus)
        with pytest.raises(KeyError):
            neighborhood(g, "nope")


class TestFuse:
    def test_isolated_message_is_normalized_self(self):
        corpus = Corpus(messages=(make_message("solo", user="u9"),))
        emb = EmbeddingMatrix(["solo"], np.array([[3.0, 4.0]], dtype=np.float32))
        fused = fuse(build_graph(corpus), emb, corpus)
        # temporal features are zeros for a single message
        assert np.allclose(fused.values[0], [0.6, 0.8, 0.0, 0.0], atol=1e-6)

    def test_shared_user_identical_embeddings(self):
        corpus = Corpus(messages=(make_message("a"), make_message("b")))
        e = np.array([[1.0, 2.0, 2.0], [1.0, 2.0, 2.0]], dtype=np.float32)
        emb = EmbeddingMatrix(["a", "b"], e)
        fused = fuse(build_graph(corpus), emb, corpus,
                     FusionParams(w_self=1.0, w_user=0.5))
        # both rows = normalize((w_s + w_u) e) = e / |e|
        expected = np.array([1.0, 2.0, 2.0, 0.0, 0.0]) / 3.0
        assert np.allclose(fused.values, [expected, expected], atol=1e-6)

    def test_matches_brute_force_oracle(self):
        corpus = Corpus(messages=(
            make_message("m1", user="u1", ts=1_600_000_000, entities=["A"]),
            make_message("m2", user="u1", ts=1_600_090_000, entities=["B"]),
            make_message("m3", user="u2", ts=1_600_180_000, entities=["a", "B"]),
            make_message("m4", user="u3", ts=1_600_270_000, entities=[]),
        ))
        values = np.array([[1, 0, 2], [0, 2, 0], [3, 1, 0], [1, 1, 1]],
                          dtype=np.float32)
        emb = EmbeddingMatrix(corpus.ids(), values)
        params = FusionParams(w_self=1.0, w_user=0.5, w_entity=0.25, layers=2)
        fused = fuse(build_graph(corpus), emb, corpus, params)
        expected = oracle_fuse(corpus, values, params)
        assert np.abs(fused.values - expected).max() < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("params", FUSION_PARAMS,
                             ids=["default", "layers2", "weights", "weights-layers2"])
    def test_matches_brute_force_oracle_seeded(self, seed, params):
        corpus, values = random_fusion_case(seed)
        emb = EmbeddingMatrix(corpus.ids(), values)
        fused = fuse(build_graph(corpus), emb, corpus, params)
        expected = oracle_fuse(corpus, values, params)
        assert np.abs(fused.values - expected).max() < 1e-6

    @pytest.mark.parametrize("seed", [3, 4])
    def test_float64_rows_match_oracle_to_1e12(self, seed):
        corpus, values = random_fusion_case(seed)
        x = np.concatenate([values.astype(np.float64),
                            temporal_features(corpus)], axis=1)
        params = FusionParams(w_self=0.9, w_user=0.6, w_entity=0.4, layers=2)
        rows = _fused_rows(build_graph(corpus), corpus.ids(), x, params)
        assert np.abs(rows - oracle_fuse(corpus, values, params)).max() < 1e-12

    @pytest.mark.parametrize("layers, pool", [
        (1, HUB_POOL), (2, HUB_POOL), (3, HUB_POOL),
        (1, WIDE_POOL), (2, WIDE_POOL), (3, WIDE_POOL),
    ], ids=["1", "2", "3", "wide-1", "wide-2", "wide-3"])
    def test_blocks_bitwise_equal_to_whole_matrix(self, layers, pool):
        corpus, values = block_crossing_case(5, n=5_000, dim=5, pool=pool)
        ids, graph = corpus.ids(), build_graph(corpus)
        x = np.concatenate([values.astype(np.float64),
                            temporal_features(corpus)], axis=1)
        keys = [tuple(sorted(graph.message_entities[m])) for m in ids]
        sizes = [np.bincount(graphmod._dense_ids(k)).max() for k in (
            (graph.message_user[m] for m in ids), keys)]
        assert len(ids) > 2 * graphmod._BLOCK and min(sizes) > graphmod._BLOCK
        if pool is WIDE_POOL:
            reach = graphmod._EntityReach(list(dict.fromkeys(keys)))
            assert reach.group.size > graphmod._BLOCK
            assert reach.extra_group.size > graphmod._BLOCK
        params = FusionParams(w_self=0.9, w_user=0.6, w_entity=0.4, layers=layers)
        expected = whole_matrix_reference(graph, ids, x.copy(), params)
        rows = _fused_rows(graph, ids, x, params)
        assert rows.tobytes() == expected.tobytes()
        fused = fuse(graph, EmbeddingMatrix(ids, values), corpus, params)
        assert fused.values.tobytes() == expected.astype(np.float32).tobytes()

    def test_peak_memory_is_bounded(self):
        corpus, values = block_crossing_case(6, n=8 * graphmod._BLOCK, dim=126)
        emb, graph = EmbeddingMatrix(corpus.ids(), values), build_graph(corpus)
        x_bytes = values.shape[0] * (values.shape[1] + 2) * 8
        tracemalloc.start()
        try:
            fuse(graph, emb, corpus, FusionParams(layers=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x_bytes, peak / x_bytes

    def test_does_not_query_neighborhoods(self, graph_corpus, graph_embeddings,
                                          monkeypatch):
        def refuse(*args):
            raise AssertionError("fuse must not query neighborhoods one by one")
        monkeypatch.setattr(graphmod, "neighborhood", refuse)
        fused = fuse(build_graph(graph_corpus), graph_embeddings, graph_corpus)
        assert fused.rows == 5

    def test_graph_of_other_corpus_rejected(self, graph_corpus, graph_embeddings):
        smaller = Corpus(messages=graph_corpus.messages[:4])
        with pytest.raises(ValueError):
            fuse(build_graph(smaller), graph_embeddings, graph_corpus)

    def test_rows_unit_norm(self, graph_corpus, graph_embeddings):
        fused = fuse(build_graph(graph_corpus), graph_embeddings, graph_corpus)
        norms = np.linalg.norm(fused.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_output_dim_is_input_plus_two(self, graph_corpus, graph_embeddings):
        fused = fuse(build_graph(graph_corpus), graph_embeddings, graph_corpus)
        assert fused.dim == graph_embeddings.dim + 2

    def test_deterministic(self, graph_corpus, graph_embeddings):
        g = build_graph(graph_corpus)
        a = fuse(g, graph_embeddings, graph_corpus)
        b = fuse(g, graph_embeddings, graph_corpus)
        assert a.values.tobytes() == b.values.tobytes()

    def test_permutation_equivariance(self, graph_corpus, graph_embeddings):
        fused = fuse(build_graph(graph_corpus), graph_embeddings, graph_corpus)
        order = [3, 0, 4, 1, 2]
        permuted = Corpus(messages=tuple(graph_corpus.messages[i] for i in order))
        pemb = graph_embeddings.reindex(permuted.ids())
        pfused = fuse(build_graph(permuted), pemb, permuted)
        for mid in graph_corpus.ids():
            assert np.allclose(fused.row(mid), pfused.row(mid), atol=1e-9)

    def test_isolated_addition_leaves_others_alone(self, graph_corpus,
                                                   graph_embeddings):
        fused = fuse(build_graph(graph_corpus), graph_embeddings, graph_corpus)
        extended = Corpus(messages=graph_corpus.messages + (
            make_message("iso", user="u-new", entities=[]),))
        values = np.vstack([graph_embeddings.values,
                            np.array([[9.0, 9.0, 9.0]], dtype=np.float32)])
        emb2 = EmbeddingMatrix(extended.ids(), values)
        fused2 = fuse(build_graph(extended), emb2, extended)
        for mid in graph_corpus.ids():
            assert np.allclose(fused.row(mid), fused2.row(mid), atol=1e-9)

    def test_misaligned_embeddings_rejected(self, graph_corpus, graph_embeddings):
        g = build_graph(graph_corpus)
        shuffled = graph_embeddings.reindex(["m2", "m1", "m3", "m4", "m5"])
        with pytest.raises(ValueError):
            fuse(g, shuffled, graph_corpus)
