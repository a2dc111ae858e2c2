import numpy as np
import pytest

from eventaug.core import EmbeddingMatrix, Message
from eventaug.ingest import Corpus


def make_message(mid, text="hello world", user="u1", ts=1_600_000_000,
                 entities=(), location=None, label=None, origin=None):
    return Message(id=mid, text=text, user_id=user, timestamp=ts,
                   entities=tuple(entities), location=location, label=label,
                   origin=origin)


@pytest.fixture
def graph_corpus():
    """5 messages, 3 users, 4 case-folded entities; all counts hand-checked."""
    return Corpus(messages=(
        make_message("m1", "waves at #Sydney near Bondi Beach", "u1",
                     entities=["Sydney", "Bondi Beach"], label=0),
        make_message("m2", "sydney update", "u1", entities=["sydney"], label=0),
        make_message("m3", "storm warning", "u2", entities=["Storm"], label=1),
        make_message("m4", "quiet day", "u2", entities=[], label=1),
        make_message("m5", "flood and storm", "u3",
                     entities=["Flood", "Storm"], label=1),
    ))


@pytest.fixture
def graph_embeddings(graph_corpus):
    values = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0],
        [0.0, 0.0, 4.0],
        [2.0, 2.0, 0.0],
        [0.0, 4.0, 4.0],
    ], dtype=np.float32)
    return EmbeddingMatrix(graph_corpus.ids(), values)


def random_embeddings(rng, n, dim, ids=None):
    ids = ids or [f"r{i}" for i in range(n)]
    return EmbeddingMatrix(ids, rng.normal(size=(n, dim)).astype(np.float32))


# characters that a line-based or escaping writer could get wrong
_ALPHABET = list("abcXYZ019 #@.,'\"\\/{}[]:\t\n\r") + [
    "é", "ش", "事", "\U0001f525", " ", " ", "\u0085", "\x00"]


def random_text(rng, low=1, high=24):
    """Seeded text of low to high - 1 characters, with an "x" put in front
    of one that would be blank."""
    text = "".join(rng.choice(_ALPHABET, size=int(rng.integers(low, high))))
    return text if text.strip() else "x" + text


def random_float32(rng, n, dim):
    """float32 values of every kind a file must keep: zeros of both signs,
    subnormals, extremes and ordinary values of any scale."""
    special = np.array([0.0, -0.0, 1e-45, -1e-45, 3.4e38, -3.4e38, 1.0], dtype=np.float32)
    values = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=(n, dim)).astype(np.float32)
    mask = rng.random(size=(n, dim)) < 0.2
    values[mask] = rng.choice(special, size=int(mask.sum()))
    return values
