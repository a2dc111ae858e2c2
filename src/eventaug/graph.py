"""Heterogeneous social graph over messages, users, and entities, and the
structure-fusing aggregation that enriches message embeddings with their
neighborhoods.

The aggregator is a fixed weighted mean with L2 normalization, not a
trained network: per layer each message row becomes

    normalize(w_self * row + w_user * mean(user neighbors)
                           + w_entity * mean(entity neighbors))

where the user neighborhood is the other messages by the same author and
the entity neighborhood is the other messages sharing at least one entity,
each counted once. Empty neighborhoods contribute zero, so isolated
messages degrade to their own normalized embedding.

``fuse`` computes the means as group sums rather than per message. Every
message gets two group ids once: its author, and its case-folded entity
set (messages with equal sets form one group). A layer sums the rows of
each group with one sort and ``np.add.reduceat``. The user mean is the
author's sum minus the message's own row, over the count minus one. The
entity mean is the sum over the message's reach, every entity-set group
that shares an entity with its group, minus the own row, over that count
minus one; groups partition the messages, so each neighbor counts once.
Reach sums come from the group x entity incidence (see ``_EntityReach``),
never from a group x group matrix. A layer costs time linear in messages
plus entity-group reach, times the embedding dim.

Memory is one float64 matrix of the rows plus blocks of about ``_BLOCK``
rows. ``fuse`` fills that matrix once; each layer takes its group sums a
block of whole groups at a time, then combines and normalises the rows a
block at a time, overwriting the matrix in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingMatrix
from .ingest import Corpus, temporal_features

_BLOCK = 2048  # rows that fusion gathers or combines at a time


@dataclass(frozen=True)
class FusionParams:
    w_self: float = 1.0
    w_user: float = 0.5
    w_entity: float = 0.5
    layers: int = 1

    def __post_init__(self):
        for name, w in (("w_self", self.w_self), ("w_user", self.w_user),
                        ("w_entity", self.w_entity)):
            if not np.isfinite(w):
                raise ValueError(f"{name} must be finite")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")


class HeteroGraph:
    """Typed-node adjacency: message-user (authored-by) and message-entity
    (mentions) edges only. Entities are keyed case-insensitively; the
    canonical casing is the first occurrence. Immutable after build."""

    def __init__(self, message_ids, message_user, user_messages,
                 entity_names, entity_messages, message_entities):
        self.message_ids: list[str] = message_ids
        self.message_user: dict[str, str] = message_user
        self.user_messages: dict[str, list[str]] = user_messages
        self.entity_names: dict[str, str] = entity_names  # key -> canonical casing
        self.entity_messages: dict[str, list[str]] = entity_messages
        self.message_entities: dict[str, list[str]] = message_entities

    def stats(self) -> dict:
        return {
            "messages": len(self.message_ids),
            "users": len(self.user_messages),
            "entities": len(self.entity_messages),
            "user_edges": len(self.message_ids),  # exactly one author per message
            "entity_edges": sum(len(keys) for keys in self.message_entities.values()),
        }

    def to_json(self) -> str:
        """Inspection dump: nodes plus typed edge lists."""
        payload = {
            "nodes": {
                "messages": self.message_ids,
                "users": sorted(self.user_messages),
                "entities": [self.entity_names[k] for k in sorted(self.entity_messages)],
            },
            "edges": {
                "message_user": [[m, self.message_user[m]] for m in self.message_ids],
                "message_entity": [[m, self.entity_names[k]]
                                   for m in self.message_ids
                                   for k in self.message_entities[m]],
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def build_graph(corpus: Corpus) -> HeteroGraph:
    """One user node per distinct user_id, one entity node per distinct
    entity string (case-insensitive). Augmented messages connect to the same
    user and entity nodes as originals because their metadata is copied."""
    message_ids = []
    message_user = {}
    user_messages: dict[str, list[str]] = {}
    entity_names: dict[str, str] = {}
    entity_messages: dict[str, list[str]] = {}
    message_entities: dict[str, list[str]] = {}

    for m in corpus.messages:
        message_ids.append(m.id)
        message_user[m.id] = m.user_id
        user_messages.setdefault(m.user_id, []).append(m.id)
        keys = []
        for entity in m.entities:
            key = entity.lower()
            if key not in entity_names:
                entity_names[key] = entity
                entity_messages[key] = []
            if key not in keys:  # one edge per (message, entity) pair
                keys.append(key)
                entity_messages[key].append(m.id)
        message_entities[m.id] = keys
    return HeteroGraph(message_ids, message_user, user_messages,
                       entity_names, entity_messages, message_entities)


def neighborhood(graph: HeteroGraph, message_id: str):
    """(user-linked message ids, entity-linked message ids), both sorted,
    deduplicated, and excluding the query message itself."""
    if message_id not in graph.message_user:
        raise KeyError(f"unknown message id {message_id!r}")
    user = graph.message_user[message_id]
    user_linked = sorted(m for m in graph.user_messages[user] if m != message_id)
    entity_linked = set()
    for key in graph.message_entities[message_id]:
        entity_linked.update(graph.entity_messages[key])
    entity_linked.discard(message_id)
    return user_linked, sorted(entity_linked)


def _dense_ids(keys) -> np.ndarray:
    """Group id per key, numbered in order of first appearance."""
    index: dict = {}
    return np.array([index.setdefault(k, len(index)) for k in keys],
                    dtype=np.intp)


class _Groups:
    """Rows partitioned by a dense group id, sorted once. Partition row
    ``i`` is row ``rows[i]`` of the summed matrix (row ``i`` without
    ``rows``), and there are max(``size``, largest id + 1) groups. The
    per-group row sums gather and ``np.add.reduceat`` one block of whole
    groups at a time: a block starts at a group start and ends at the first
    group start after about ``_BLOCK`` rows, so every group is reduced over
    the same rows in the same order as from one full gather. Empty groups
    sum to zero."""

    def __init__(self, ids: np.ndarray, rows: np.ndarray | None = None,
                 size: int = 0):
        order = np.argsort(ids, kind="stable")
        self.rows = order if rows is None else rows[order]
        sorted_ids = ids[order]
        self.counts = np.bincount(ids, minlength=size)
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        self.group_at = sorted_ids[starts]
        self.bounds = np.append(starts, ids.size)
        # per block, the index of its first group; then the number of groups
        self.blocks = np.append(np.unique(np.searchsorted(
            starts, np.arange(0, ids.size, _BLOCK), side="right") - 1),
            starts.size)

    def sums(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.counts.size, x.shape[1]))
        for a, b in zip(self.blocks[:-1], self.blocks[1:]):
            lo = self.bounds[a]
            out[self.group_at[a:b]] = np.add.reduceat(
                x[self.rows[lo:self.bounds[b]]], self.bounds[a:b] - lo, axis=0)
        return out


def _pairs_within(segment: np.ndarray, strict: bool):
    """Positions (i, j) of every two entries of one segment, where
    ``segment`` is sorted. With ``strict`` only j > i, else every ordered
    pair, i == j included."""
    counts = np.bincount(segment)
    first = np.cumsum(counts) - counts
    start = np.arange(segment.size) + 1 if strict else first[segment]
    lengths = (first + counts)[segment] - start
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths,
                                                   lengths)
    return np.repeat(np.arange(segment.size), lengths), \
        np.repeat(start, lengths) + offsets


class _EntityReach:
    """Sums over the reach of each entity-set group: every group whose set
    shares at least one entity with it, itself included, each once.

    With A the group x entity incidence, A (A^T v) adds, for each entity
    of a group, the groups that mention it, so a group sharing k entities
    is added k times. Two groups sharing k >= 2 entities share C(k, 2)
    entity pairs, which is how they are found, and the k - 1 extra copies
    are subtracted. Time and memory are linear in the incidence plus the
    (group, group, shared entity pair) triples; no group x group matrix is
    built, and a hub entity alone adds only its incidence. Entity keys are
    visited sorted, so the summation order does not depend on string
    hashing."""

    def __init__(self, entity_sets):
        self.num_groups = len(entity_sets)
        self.group = np.repeat(np.arange(self.num_groups),
                               [len(keys) for keys in entity_sets])
        self.entity = _dense_ids(k for keys in entity_sets for k in keys)
        self.per_entity = _Groups(self.entity, rows=self.group)
        num_entities = self.per_entity.counts.size
        self.per_group = _Groups(self.group, rows=self.entity,
                                 size=self.num_groups)

        i, j = _pairs_within(self.group, strict=True)
        lo = np.minimum(self.entity[i], self.entity[j])
        hi = np.maximum(self.entity[i], self.entity[j])
        _, pair = np.unique(lo * num_entities + hi, return_inverse=True)
        by_pair = np.argsort(pair, kind="stable")
        pair_group = self.group[i][by_pair]
        a, b = _pairs_within(pair[by_pair], strict=False)
        codes, shared_pairs = np.unique(
            pair_group[a] * self.num_groups + pair_group[b], return_counts=True)
        extra = (np.rint(np.sqrt(8 * shared_pairs + 1)).astype(np.intp) - 1) // 2
        self.extra_group, self.extra_partner = np.divmod(
            np.repeat(codes, extra), max(self.num_groups, 1))
        self.extra = _Groups(self.extra_group, rows=self.extra_partner,
                             size=self.num_groups)

    def sums(self, values: np.ndarray) -> np.ndarray:
        out = self.per_group.sums(self.per_entity.sums(values))
        out -= self.extra.sums(values)
        return out


def _add_neighbor_mean(out, sums, group_of, size, x, weight) -> None:
    """out += weight * (sums[group_of] - x) / size, skipping rows whose
    neighborhood size is 0."""
    mean = sums[group_of]
    mean -= x
    mean /= np.maximum(size, 1)[:, None]
    mean *= np.where(size > 0, weight, 0.0)[:, None]
    out += mean


def _fused_rows(graph: HeteroGraph, ids: list[str], x: np.ndarray,
                params: FusionParams) -> np.ndarray:
    """The float64 aggregation of ``fuse`` over rows ``x`` aligned to
    ``ids``. Overwrites ``x`` with the result and returns it.

    A layer first takes the author, entity-set and reach sums, which are
    group-sized, then combines and normalises ``_BLOCK`` rows at a time and
    writes them back into ``x``: a row's output needs only its own row and
    those sums."""
    if len(graph.message_ids) != len(ids):
        raise ValueError("graph and corpus hold different messages")
    user_of = _dense_ids(graph.message_user[mid] for mid in ids)
    entity_keys = [tuple(sorted(graph.message_entities[mid])) for mid in ids]
    set_of = _dense_ids(entity_keys)
    users, sets = _Groups(user_of), _Groups(set_of)
    reach = _EntityReach(list(dict.fromkeys(entity_keys)))
    user_size = users.counts[user_of] - 1
    # Exact: the counts are integers far below 2**53.
    reach_counts = reach.sums(sets.counts[:, None].astype(np.float64))[:, 0]
    entity_size = reach_counts.astype(np.intp)[set_of] - 1

    for _ in range(params.layers):
        user_sums = users.sums(x)
        entity_sums = reach.sums(sets.sums(x))
        for lo in range(0, len(ids), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            rows = x[block]
            out = params.w_self * rows
            _add_neighbor_mean(out, user_sums, user_of[block], user_size[block],
                               rows, params.w_user)
            _add_neighbor_mean(out, entity_sums, set_of[block],
                               entity_size[block], rows, params.w_entity)
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            np.divide(out, norms, out=out, where=norms > 0)
            out[norms[:, 0] == 0] = 0.0
            rows[...] = out
    return x


def fuse(graph: HeteroGraph, message_emb: EmbeddingMatrix, corpus: Corpus,
         params: FusionParams = FusionParams()) -> EmbeddingMatrix:
    """Structure-fused message embeddings.

    The two temporal features are appended first (output dim = input dim
    + 2), then the weighted-mean aggregation runs for ``params.layers``
    rounds. Row order follows the corpus; the result is deterministic.
    """
    ids = corpus.ids()
    if message_emb.ids != ids:
        raise ValueError("embeddings must be aligned to corpus order "
                         "(use ingest.attach_embeddings)")
    rows, dim = message_emb.values.shape
    x = np.empty((rows, dim + 2))
    x[:, :dim] = message_emb.values
    x[:, dim:] = temporal_features(corpus)
    return EmbeddingMatrix(ids, _fused_rows(graph, ids, x, params))

