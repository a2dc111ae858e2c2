"""Corpus parsing and validation, fallback entity extraction, and alignment
of externally computed text embeddings.

Corpora are JSON-Lines files, one message object per line with keys
``id, text, user_id, timestamp, entities, location?, label?, origin?``.
Text encoding happens out of process; embeddings arrive as SEDEMB01 files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .core import EmbeddingMatrix, Message, Origin, atomic_write

SECONDS_PER_DAY = 86400


class CorpusError(ValueError):
    """Corpus-level validation failure; ``problems`` lists line-numbered issues."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _invariant_problems(messages, where) -> list[str]:
    """Breaches of the corpus invariants: ids are unique, and the source of
    every augmented message is an original message of the same corpus.
    ``where(i)`` names the place of message ``i`` in each report."""
    problems = []
    first = {}
    for i, m in enumerate(messages):
        if m.id in first:
            problems.append(f"{where(i)}: duplicate id {m.id!r} (first seen on "
                            f"{where(first[m.id])})")
        else:
            first[m.id] = i
    originals = {m.id for m in messages if m.origin is None}
    for i, m in enumerate(messages):
        if m.origin is not None and m.origin.source_id not in originals:
            problems.append(
                f"{where(i)}: message {m.id!r}: augmented source "
                f"{m.origin.source_id!r} is not an original message")
    return problems


@dataclass(frozen=True)
class Corpus:
    """Immutable snapshot of messages. num_classes is 1 + the largest label.

    A breached invariant is reported at ``position i + 1`` for message
    ``i`` (the parser reports line numbers instead).
    """

    messages: tuple[Message, ...]

    def __post_init__(self):
        if not isinstance(self.messages, tuple):
            object.__setattr__(self, "messages", tuple(self.messages))
        problems = _invariant_problems(self.messages,
                                       lambda i: f"position {i + 1}")
        if problems:
            raise CorpusError(problems)

    @property
    def num_classes(self) -> int:
        labels = [m.label for m in self.messages if m.label is not None]
        return 1 + max(labels) if labels else 0

    def __len__(self) -> int:
        return len(self.messages)

    def ids(self) -> list[str]:
        return [m.id for m in self.messages]

    def originals(self) -> list[Message]:
        return [m for m in self.messages if m.is_original]


_FIELD_TYPES = {"id": "a nonempty string", "text": "a string", "user_id": "a string",
                "timestamp": "an integer", "entities": "a list of strings",
                "location": "a string or null", "label": "an integer >= 0 or null",
                "origin": "an object of string strategy and source_id, or null"}


def _message_from_obj(obj: dict, line_no: int) -> Message:
    """The message of one line's object; CorpusError with one problem per
    field that is missing or not of its JSON type (nothing is coerced)."""
    get = obj.get
    mid, text, user_id, timestamp = get("id"), get("text"), get("user_id"), get("timestamp")
    entities, location, label, origin = get("entities", []), get("location"), \
        get("label"), get("origin")
    # one flag per _FIELD_TYPES key, in its order; json makes exact types,
    # and type(True) is bool, not int
    ok = (type(mid) is str and mid != "",
          type(text) is str,
          type(user_id) is str,
          type(timestamp) is int,
          type(entities) is list and all(type(e) is str for e in entities),
          location is None or type(location) is str,
          label is None or (type(label) is int and label >= 0),
          origin is None or (type(origin) is dict
                             and type(origin.get("strategy")) is str
                             and type(origin.get("source_id")) is str))
    if all(ok):
        return Message(mid, text, user_id, timestamp, tuple(entities), location, label,
                       None if origin is None
                       else Origin(origin["strategy"], origin["source_id"]))
    raise CorpusError(f"line {line_no}: {key} must be {_FIELD_TYPES[key]}, got "
                      + (json.dumps(obj[key]) if key in obj else "nothing")
                      for key, good in zip(_FIELD_TYPES, ok) if not good)


_scan_once = json.JSONDecoder().scan_once


def _json_line(line: str):
    """``json.loads`` of a stripped line. The scanner takes a line that is
    one JSON value as a whole; any other line goes to ``json.loads``,
    which raises its own message."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    return json.loads(line)


def parse_corpus(path) -> Corpus:
    """Parse a JSONL corpus, collecting every problem before failing.

    A line ends at LF, CRLF or CR, as in text mode. Raises CorpusError
    listing malformed lines (with line numbers), lines that are not a JSON
    object, fields missing or not of their JSON type, lines that are not
    UTF-8 or whose strings are not UTF-8 text, duplicate ids (citing both
    lines), and dangling augmented source ids.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    messages = []
    lines = []
    problems = []
    # bytes.splitlines ends lines where text mode does, unlike str.splitlines
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            problems.append(f"line {line_no}: byte {raw[exc.start]:#04x} at byte "
                            f"{exc.start + 1} of the line is not UTF-8")
            continue
        if not line:
            continue
        try:
            obj = _json_line(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {line_no}: expected a JSON object, got "
                            f"{type(obj).__name__}")
            continue
        try:
            if "\\u" in line:  # only an escape can spell a lone surrogate
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            msg = _message_from_obj(obj, line_no)
        except UnicodeEncodeError:
            problems.append(f"line {line_no}: a string holds a lone surrogate "
                            "escape, which is not UTF-8 text")
            continue
        except CorpusError as exc:
            problems += exc.problems
            continue
        messages.append(msg)
        lines.append(line_no)
    try:
        corpus = Corpus(tuple(messages))
    except CorpusError:
        problems += _invariant_problems(messages, lambda i: f"line {lines[i]}")
    if problems:
        raise CorpusError(problems)
    return corpus


def write_corpus(corpus: Corpus, path) -> None:
    """Write messages as JSONL; inverse of parse_corpus for valid corpora."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for m in corpus.messages:
            obj = {
                "id": m.id,
                "text": m.text,
                "user_id": m.user_id,
                "timestamp": m.timestamp,
                "entities": list(m.entities),
            }
            if m.location is not None:
                obj["location"] = m.location
            if m.label is not None:
                obj["label"] = m.label
            if m.origin is not None:
                obj["origin"] = {"strategy": m.origin.strategy,
                                 "source_id": m.origin.source_id}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


_HASHTAG = re.compile(r"#(\w+)")
_PUNCTUATION = "\"'.,;:!?()[]{}<>#@&*~`|\\/"


def naive_entities(text: str) -> list[str]:
    """Fallback entity extraction when a corpus lacks annotations.

    Collects hashtag tokens (leading '#' stripped) and maximal runs of
    capitalized words, scanning left to right. Hashtags break runs.
    Deduplicated case-insensitively, first casing and first occurrence
    order preserved. Pure and deterministic.
    """
    found, run = [], []
    for token in text.split() + ["#"]:  # the "#" sentinel ends the last run
        word = token.strip(_PUNCTUATION)
        if not token.startswith("#") and word[:1].isalpha() and word[:1].isupper():
            run.append(word)
            continue
        if run:
            found.append(" ".join(run))
            run = []
        hashtag = _HASHTAG.match(token)
        if hashtag:
            found.append(hashtag.group(1))
    firsts = {}
    for entity in found:
        firsts.setdefault(entity.lower(), entity)
    return list(firsts.values())


def with_entities(corpus: Corpus) -> Corpus:
    """Corpus with naive entities filled in wherever a message has none."""
    return replace(corpus, messages=tuple(
        m if m.entities else replace(m, entities=tuple(naive_entities(m.text)))
        for m in corpus.messages))


def attach_embeddings(corpus: Corpus, emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """The embedding rows re-indexed to corpus order; every message id must
    be present."""
    if emb.dim == 0:
        raise ValueError("embedding dimensionality must be positive")
    missing = [m.id for m in corpus.messages if m.id not in emb]
    if missing:
        shown = ", ".join(repr(i) for i in missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise ValueError(f"embeddings missing {len(missing)} corpus ids: {shown}{more}")
    return emb.reindex(corpus.ids())


def temporal_features(corpus: Corpus) -> np.ndarray:
    """Two temporal values per message, each min-max scaled to [0, 1].

    Column 0: whole days since the corpus minimum timestamp.
    Column 1: seconds-of-day. Constant columns scale to zeros.
    """
    ts = np.array([m.timestamp for m in corpus.messages], dtype=np.int64)
    if ts.size == 0:
        return np.zeros((0, 2), dtype=np.float64)
    days = (ts - ts.min()) // SECONDS_PER_DAY
    secs = ts % SECONDS_PER_DAY
    out = np.zeros((ts.size, 2), dtype=np.float64)
    for col, vals in enumerate((days, secs)):
        lo, hi = vals.min(), vals.max()
        if hi > lo:
            out[:, col] = (vals - lo) / (hi - lo)
    return out

