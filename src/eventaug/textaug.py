"""LLM-backed text augmentation: five strategies, deterministic offline
mocks, a response cache kept as one append-only log, and corpus-level
orchestration.

Strategies are plain names, the keys of ``STRATEGIES``:

* ``paraphrase`` -- reword, same meaning.
* ``add-context`` -- expand with a short relevant detail.
* ``style-transfer`` -- change tone/formality only.
* ``keep-entity`` -- reword but leave listed entities untouched; outputs
  failing the preservation check are rejected.
* ``extract-rewrite:keywords|entities|kg`` -- a two-stage prompt that
  first extracts key material, then rewrites from it.

The provider protocol is a chat-completion-style HTTP POST with JSON body
``{model, messages, max_tokens, temperature}``; any compatible endpoint
works. Mock providers are deterministic functions of the prompt, which
embeds the source text between ``<<<`` and ``>>>`` markers.

Replies are cached in ``responses.jsonl`` in the cache directory, keyed by
(rendered prompt, model, copy index, temperature), so an interrupted run
resumes without repeating calls (see ``ResponseCache``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .core import Message, Origin
from .ingest import Corpus

SOURCE_OPEN = "<<<"
SOURCE_CLOSE = ">>>"


class ProviderError(RuntimeError):
    """Provider unreachable, refusing the request, or failing after all retries."""


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    model: str = "gpt-4o-mini"
    max_tokens: int = 1000
    temperature: float = 1.0
    auth_env: str = "EVENTAUG_API_TOKEN"
    max_retries: int = 3
    max_in_flight: int = 4

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class AugmentationRecord:
    source_id: str
    strategy: str
    prompt: str
    raw_response: str
    text: str
    model: str
    latency_ms: float
    cache_key: str


_PREAMBLE = ("You augment social media messages for event detection "
             "training data. Reply with the rewritten message only, no "
             "explanations.")

_REWRITE_STEP = ("Step 2: rewrite the message as a new, differently worded "
                 "message built around what you extracted, preserving the "
                 "essential information. Reply with the rewritten message "
                 "only.")

# Strategy name -> the instruction lines of its prompt. The keep-entity
# line takes the message's entity list as ``{entities}``.
STRATEGIES = {
    "paraphrase": ("Rephrase the message below in different words and "
                   "sentence structure while keeping exactly the same "
                   "meaning.",),
    "add-context": ("Expand the message below by adding one short piece of "
                    "relevant contextual information that makes it clearer; "
                    "keep the original content intact.",),
    "style-transfer": ("Rewrite the message below in a clearly different "
                       "style (for example change its tone or formality) "
                       "without altering its core meaning.",),
    "keep-entity": ("Rewrite the message below with different wording. "
                    "The following entities must remain unchanged and "
                    "appear verbatim in your rewrite: {entities}.",),
    "extract-rewrite:keywords": (
        "Step 1: using your background knowledge, extract the most "
        "informative keywords from the message below.", _REWRITE_STEP),
    "extract-rewrite:entities": (
        "Step 1: extract the key entities (names, locations, dates) from "
        "the message below.", _REWRITE_STEP),
    "extract-rewrite:kg": (
        "Step 1: extract the entities in the message below and the "
        "relationships between them as knowledge-graph triples.",
        _REWRITE_STEP),
}

# The paper's five strategies, run when none are named.
DEFAULT_STRATEGIES = ("paraphrase", "add-context", "style-transfer",
                      "keep-entity", "extract-rewrite:keywords")


def check_strategies(names) -> tuple[str, ...]:
    """``names`` as a tuple; ValueError on one that is not in ``STRATEGIES``
    or that is repeated (its variants would share ids)."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; expected one of "
                             f"{sorted(STRATEGIES)}")
        if name in names[:i]:
            raise ValueError(f"strategy {name!r} is given twice")
    return names


def render_prompt(strategy: str, message: Message, copy_idx: int = 0) -> str:
    """Deterministic template fill for the named strategy.

    The source text always sits between the <<< and >>> markers.
    keep-entity prompts list the message entities verbatim in a
    do-not-change section; extract-rewrite prompts carry both the
    extraction and the rewrite instruction. Copy ``copy_idx`` >= 1 adds a
    line asking for that numbered variant, so each copy is its own
    request; copy 0 is the plain prompt.
    """
    if not message.text.strip():
        raise ValueError("cannot augment an empty message")
    entities = ", ".join(message.entities) if message.entities else "(none)"
    lines = [_PREAMBLE, *(line.format(entities=entities)
                          for line in STRATEGIES[strategy])]
    if copy_idx > 0:
        lines.append(f"Write variant number {copy_idx + 1}, worded differently "
                     "from the other variants.")
    lines.append(f"Message: {SOURCE_OPEN}{message.text}{SOURCE_CLOSE}")
    return "\n".join(lines)


_FENCE = re.compile(r"^```[a-zA-Z0-9]*\n(.*?)\n?```$", re.DOTALL)


def clean_response(raw: str) -> str:
    """Strip markdown fences and surrounding quotes, collapse whitespace."""
    text = raw.strip()
    fence = _FENCE.match(text)
    if fence:
        text = fence.group(1).strip()
    while len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        text = text[1:-1].strip()
    return re.sub(r"\s+", " ", text).strip()


def check_entity_preservation(source: Message, text: str) -> bool:
    """True iff every source entity appears case-insensitively in the
    augmented text (substring match; vacuously true without entities)."""
    haystack = text.lower()
    return all(entity.lower() in haystack for entity in source.entities)


class EchoProvider:
    """Deterministic mock: returns the source text embedded in the prompt."""

    def complete(self, prompt: str) -> str:
        start = prompt.find(SOURCE_OPEN)
        end = prompt.rfind(SOURCE_CLOSE)
        if start < 0 or end <= start:
            raise ProviderError("prompt carries no source markers")
        return prompt[start + len(SOURCE_OPEN):end]


class ShuffleProvider:
    """Deterministic mock keyed on the prompt hash: rotates the source words
    so the output is a different string with the same vocabulary."""

    def complete(self, prompt: str) -> str:
        source = EchoProvider().complete(prompt)
        words = source.split()
        if len(words) < 2:
            return source
        turn = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)
        k = 1 + turn % (len(words) - 1)
        return " ".join(words[k:] + words[:k])


class DropEntityProvider:
    """Fault-injection mock: echoes the source text with one entity removed,
    which must trip the keep-entity preservation check."""

    def __init__(self, entity: str):
        self.entity = entity

    def complete(self, prompt: str) -> str:
        source = EchoProvider().complete(prompt)
        pattern = re.compile(re.escape(self.entity), re.IGNORECASE)
        return pattern.sub("", source)


def _retry_after(headers) -> float | None:
    """The delay of a ``Retry-After`` header given in whole seconds, or None
    when it is absent, an HTTP-date or malformed."""
    value = headers.get("Retry-After", "").strip() if headers else ""
    return float(value) if value.isascii() and value.isdigit() else None


class HttpProvider:
    """Chat-completion-style HTTP client with bounded retries. Timeouts,
    connection errors and HTTP 408, 429 and 5xx are retried; any other
    HTTP status or a malformed reply fails at once. A retry waits as long
    as the failed reply's ``Retry-After`` asks, in whole seconds, and
    otherwise backs off exponentially."""

    def __init__(self, config: ProviderConfig):
        if not config.endpoint:
            raise ValueError("provider endpoint not configured")
        self.config = config

    def build_payload(self, prompt: str) -> dict:
        return {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": self.config.max_tokens,
            "temperature": self.config.temperature,
        }

    def complete(self, prompt: str) -> str:
        body = json.dumps(self.build_payload(prompt)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        import urllib.error  # here, not at the top: every other command skips its import cost
        import urllib.request

        last_error = None
        delay = None
        for attempt in range(self.config.max_retries):
            if attempt:
                time.sleep(delay if delay is not None
                           else min(2.0, 0.1 * 2 ** (attempt - 1)))
            request = urllib.request.Request(
                self.config.endpoint, data=body, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    raw = response.read()
            except urllib.error.HTTPError as exc:
                exc.close()  # the error reply holds the connection open
                if exc.code < 500 and exc.code not in (408, 429):
                    raise ProviderError(
                        f"provider answered HTTP {exc.code} {exc.reason}") from exc
                last_error, delay = exc, _retry_after(exc.headers)
                continue
            except OSError as exc:  # timeouts, refused or dropped connections
                last_error, delay = exc, None
                continue
            try:
                return json.loads(raw.decode("utf-8"))["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProviderError(f"malformed provider response: {exc!r}") from exc
        raise ProviderError(
            f"provider failed after {self.config.max_retries} attempts: {last_error}")


class ResponseCache:
    """Replies in one append-only log, ``responses.jsonl`` in the cache
    directory, one JSON record per line.

    The log is read once when the cache opens; ``get`` is then a lookup in
    memory. A line that is torn, not UTF-8, not JSON or not a record is
    skipped, so its key misses, and when a key appears more than once the
    last record wins. ``put`` appends one line under a lock, so threads
    sharing a cache never interleave their records. Per-key ``*.json``
    files of earlier versions are not read."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, "responses.jsonl")
        self._lock = threading.Lock()
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path, "a+b") as fh:  # creates the log, proves it writable
                fh.seek(0)
                data = fh.read()
        except OSError as exc:
            raise OSError(f"cache directory {self.directory} not writable: {exc}") from exc
        self._records = {}
        for line in data.split(b"\n"):
            record = _parse_record(line)
            if record is not None:
                self._records[record.cache_key] = record
        # a torn last line gets its newline before the next record
        self._needs_newline = bool(data) and not data.endswith(b"\n")

    def get(self, key: str) -> AugmentationRecord | None:
        """The stored record, or None on a miss."""
        return self._records.get(key)

    def put(self, record: AugmentationRecord) -> None:
        line = (json.dumps(vars(record), ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            if self._needs_newline:
                line = b"\n" + line
            with open(self.path, "ab") as fh:
                fh.write(line)
            self._needs_newline = False
            self._records[record.cache_key] = record


_STR_FIELDS = ("source_id", "strategy", "prompt", "raw_response", "text",
               "model", "cache_key")


def _parse_record(line: bytes) -> AugmentationRecord | None:
    """The record one log line holds, or None when it holds none."""
    try:
        record = AugmentationRecord(**json.loads(line.decode("utf-8")))
    except (ValueError, TypeError):  # UTF-8 or JSON decoding, not the record's fields
        return None
    if not all(isinstance(getattr(record, name), str) for name in _STR_FIELDS) \
            or not isinstance(record.latency_ms, (int, float)):
        return None
    return record


def cache_key(prompt: str, model: str, copy_idx: int, temperature: float) -> str:
    """Stable hash of (rendered prompt, model name, copy index, sampling
    temperature). The prompt carries the strategy, the template wording,
    the source text and, for keep-entity, the entity list, so a change to
    any of them, another model or another temperature misses the cache."""
    blob = json.dumps([prompt, model, copy_idx, temperature], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _rejection(strategy: str, source: Message, text: str) -> str | None:
    """Why a cleaned response cannot be used as a variant of ``source``, or
    None when it can: it is empty, it is not UTF-8 text (a lone surrogate,
    as a reply cut inside an emoji can carry, which neither the cache nor
    the corpus file can hold), or a keep-entity response dropped one of the
    source entities."""
    if not text:
        return "empty response"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "response is not UTF-8 text"
    if strategy == "keep-entity" and not check_entity_preservation(source, text):
        return "dropped required entity"
    return None


@dataclass
class AugmentResult:
    corpus: Corpus
    originals: int
    generated: int
    skipped: int
    cache_hits: int
    provider_calls: int
    failures: list


def _run_task(task, provider, cache, model_name, temperature):
    """Worker for one (message, strategy, copy) task. Returns
    (message-or-None, failure-or-None, called_provider, cache_hit).
    Failures are (source_id, strategy, reason, kind) with kind in
    {"provider", "rejected"}; a blank message is rejected before any
    provider call or cache entry."""
    message, strategy, copy_idx, new_id = task
    if not message.text.strip():
        return None, (message.id, strategy, "empty message", "rejected"), False, False
    prompt = render_prompt(strategy, message, copy_idx)
    key = cache_key(prompt, model_name, copy_idx, temperature)
    record = cache.get(key) if cache is not None else None
    called = record is None
    if called:
        started = time.perf_counter()
        try:
            raw = provider.complete(prompt)
        except ProviderError as exc:
            return None, (message.id, strategy, str(exc), "provider"), called, False
        latency = (time.perf_counter() - started) * 1000.0
        record = AugmentationRecord(
            source_id=message.id, strategy=strategy, prompt=prompt,
            raw_response=raw, text=clean_response(raw), model=model_name,
            latency_ms=latency, cache_key=key)
    reason = _rejection(strategy, message, record.text)
    if reason is not None:
        return None, (message.id, strategy, reason, "rejected"), called, not called
    if called and cache is not None:
        cache.put(record)
    out = replace(message, id=new_id, text=record.text,
                  origin=Origin(strategy=strategy, source_id=message.id))
    return out, None, called, not called


def augment_corpus(corpus: Corpus, strategies, provider,
                   cache_dir=None, copies_per_strategy: int = 1,
                   source_ids=None,
                   max_in_flight: int = 1,
                   model_name: str = "mock",
                   temperature: float = 1.0) -> AugmentResult:
    """Generate variants for every original message and combine them with
    the input corpus.

    Cached responses of the same prompt, model, copy and ``temperature``
    are reused (resumable); per-message failures, a blank message among
    them, are logged in the result and skipped, never fatal. When
    ``source_ids`` (a set) is given only the originals with those ids are
    augmented, so a caller can keep the validation and test splits free of
    derived text. Results merge in source-message order regardless of
    request concurrency. An unknown or repeated strategy name raises
    ``ValueError`` before any request.
    """
    strategies = check_strategies(strategies)
    cache = ResponseCache(cache_dir) if cache_dir is not None else None
    originals = corpus.originals()
    targets = [m for m in originals if source_ids is None or m.id in source_ids]

    existing = {m.id for m in corpus.messages}
    tasks = []
    for message in targets:
        for strategy in strategies:
            for copy_idx in range(copies_per_strategy):
                new_id = f"{message.id}__{strategy.replace(':', '-')}_{copy_idx}"
                if new_id in existing:
                    continue  # idempotent rerun on an already-augmented corpus
                tasks.append((message, strategy, copy_idx, new_id))

    if max_in_flight > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            outcomes = list(pool.map(
                lambda t: _run_task(t, provider, cache, model_name, temperature),
                tasks))
    else:
        outcomes = [_run_task(t, provider, cache, model_name, temperature)
                    for t in tasks]

    new_messages = tuple(out[0] for out in outcomes if out[0] is not None)
    failures = [out[1] for out in outcomes if out[1] is not None]
    return AugmentResult(corpus=Corpus(messages=corpus.messages + new_messages),
                         originals=len(originals), generated=len(new_messages),
                         skipped=len(failures),
                         cache_hits=sum(out[3] for out in outcomes),
                         provider_calls=sum(out[2] for out in outcomes),
                         failures=failures)
