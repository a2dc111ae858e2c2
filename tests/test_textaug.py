import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from eventaug.ingest import Corpus, write_corpus
from eventaug.textaug import (DEFAULT_STRATEGIES, STRATEGIES, AugmentationRecord,
                              DropEntityProvider, EchoProvider, HttpProvider,
                              ProviderConfig, ProviderError, ResponseCache,
                              ShuffleProvider, augment_corpus, cache_key,
                              check_entity_preservation, clean_response,
                              render_prompt)

from conftest import make_message


class CountingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
        return self.inner.complete(prompt)


class FailingProvider:
    """Fault-injection mock: fails for the prompts ``fail_when`` selects."""

    def __init__(self, inner, fail_when):
        self.inner = inner
        self.fail_when = fail_when

    def complete(self, prompt):
        if self.fail_when(prompt):
            raise ProviderError("injected failure")
        return self.inner.complete(prompt)


def augment_one(provider, strategy, message):
    """augment_corpus on a one-message corpus, without a cache."""
    return augment_corpus(Corpus(messages=(message,)), [strategy], provider)


def make_record(key, text="t"):
    return AugmentationRecord(
        source_id="m1", strategy="paraphrase", prompt="p", raw_response="r",
        text=text, model="mock", latency_ms=1.5, cache_key=key)


def log_line(record):
    return json.dumps(vars(record), ensure_ascii=False).encode("utf-8") + b"\n"


def small_corpus(n=10):
    return Corpus(messages=tuple(
        make_message(f"m{i}", text=f"storm hits Miami beach number {i}",
                     entities=["Miami"], label=i % 2) for i in range(n)))


SEVEN = ("paraphrase", "add-context", "style-transfer", "keep-entity",
         "extract-rewrite:keywords", "extract-rewrite:entities",
         "extract-rewrite:kg")


class TestStrategy:
    def test_exactly_five_kinds(self):
        # the paper's five families, one name each, all in the table
        assert DEFAULT_STRATEGIES == ("paraphrase", "add-context",
                                      "style-transfer", "keep-entity",
                                      "extract-rewrite:keywords")
        assert set(DEFAULT_STRATEGIES) <= set(STRATEGIES)

    def test_cli_round_trip(self):
        # a name goes in as given and comes back in the variant's origin
        assert tuple(STRATEGIES) == SEVEN
        result = augment_corpus(small_corpus(1), SEVEN, EchoProvider())
        assert [m.origin.strategy for m in result.corpus.messages[1:]] == list(SEVEN)
        assert [m.id for m in result.corpus.messages[1:]] == [
            f"m0__{name.replace(':', '-')}_0" for name in SEVEN]

    def test_unknown_names_rejected(self, tmp_path):
        provider = CountingProvider(EchoProvider())
        for name in ("backtranslate", "extract-rewrite:emojis", "keep_entity"):
            with pytest.raises(ValueError, match="unknown strategy"):
                augment_corpus(small_corpus(2), ["paraphrase", name], provider,
                               cache_dir=tmp_path / "c")
        assert provider.calls == 0
        assert not (tmp_path / "c").exists()


class TestRenderPrompt:
    def test_byte_stable(self):
        msg = make_message("m1", "storm hits Miami")
        assert render_prompt("paraphrase", msg) == render_prompt("paraphrase", msg)
        assert "storm hits Miami" in render_prompt("paraphrase", msg)

    def test_keep_entity_lists_entities(self):
        msg = make_message("m1", "storm hits Miami", entities=["Miami"])
        prompt = render_prompt("keep-entity", msg)
        assert "Miami" in prompt
        assert "remain unchanged" in prompt

    def test_extract_rewrite_has_two_stages(self):
        msg = make_message("m1", "storm hits Miami")
        for variant in ("keywords", "entities", "kg"):
            prompt = render_prompt(f"extract-rewrite:{variant}", msg)
            assert "Step 1" in prompt and "Step 2" in prompt

    # sha256 of each prompt, taken before strategies became plain names;
    # the prompt is the cache key's input, so these pin every cached reply
    PINNED = {
        ("paraphrase", 0): "0bd5efc640c10c99749fda71b21eae454b11d592c2eaf763b99f882f22f17f23",
        ("paraphrase", 1): "69337f30236b41b483798b3bc945d6eaf2fd67ae81845ef955188e196de54dbc",
        ("add-context", 0): "60410fcf4959bd04af6e05d0ba974608ad94ad7709f2bad7bb6b1ac1a44d46c1",
        ("add-context", 1): "d7d942aa5b8e237cd97fae58328cdcfbdab24298e75d30a94fca209325747823",
        ("style-transfer", 0): "2e7a3ed72d6b8ccbb889480cbec356d3bd66a376955290466762828fadc08cb6",
        ("style-transfer", 1): "aaf6ac330994aabeb3197a8da86fadaba8597fd71dc5ef90989881d972d558f1",
        ("keep-entity", 0): "c35610d8e28c864235ebd2afc9681dcbd8acb6ff14d13c9cf4ad042ba51ada96",
        ("keep-entity", 1): "2783897701ad31e32e4027ddafc07d92a9c570e41a9557660e2cfb9d6800cab7",
        ("extract-rewrite:keywords", 0):
            "01b36c4c071b7b11a13af1cc532818fac1be62bf84ef03b34a23462f74332ce5",
        ("extract-rewrite:keywords", 1):
            "e7629aff2231c28023c59a2fb2934ad7c6de36d5f456300bc270927f440975a0",
        ("extract-rewrite:entities", 0):
            "72e8a0b627aec45e49998f0802c3e98fe9db9f4a4f60f8bda3032de129d2f17e",
        ("extract-rewrite:entities", 1):
            "94f9a996a9d753836fb9635daa724c697d1d74061a6ef339fc0f313c6f190302",
        ("extract-rewrite:kg", 0):
            "e952fda412a33bd9c3fd283a489c9ffafa6001d8b2eb63c7570ceed7910fc738",
        ("extract-rewrite:kg", 1):
            "e8d18151a5bb318963a47d0a4901a148cab0703d17ab42e790f86037992637b7",
    }

    def test_prompts_match_pinned_digests(self):
        msg = make_message("m1", "storm {hits} Miami near #Bondi Beach \u00e9",
                           entities=["Miami", "Bondi Beach"], label=0)
        got = {(name, copy_idx): hashlib.sha256(
                   render_prompt(name, msg, copy_idx).encode("utf-8")).hexdigest()
               for name in SEVEN for copy_idx in (0, 1)}
        assert got == self.PINNED

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            render_prompt("paraphrase", make_message("m1", "   "))


class TestCleanResponse:
    def test_strips_fences_and_quotes(self):
        assert clean_response('```text\n"hello  world"\n```') == "hello world"

    def test_collapses_whitespace(self):
        assert clean_response("a\n\n  b\tc") == "a b c"


class TestEntityPreservation:
    def test_case_insensitive_match(self):
        src = make_message("m1", "x", entities=["Nobel Prize"])
        assert check_entity_preservation(src, "they won the nobel prize today")

    def test_missing_entity(self):
        src = make_message("m1", "x", entities=["Bolivia"])
        assert not check_entity_preservation(src, "somewhere else entirely")

    def test_empty_entities_vacuous(self):
        src = make_message("m1", "x", entities=[])
        assert check_entity_preservation(src, "anything")


class TestAugmentMessage:
    def test_echo_preserves_everything(self):
        msg = make_message("m1", "storm hits Miami", entities=["Miami"],
                           location="FL", label=3)
        result = augment_one(EchoProvider(), "paraphrase", msg)
        assert result.corpus.messages[0] == msg
        out = result.corpus.messages[1]
        assert out.text == msg.text
        assert out.id == "m1__paraphrase_0"
        assert out.origin.strategy == "paraphrase"
        assert out.origin.source_id == "m1"
        for attr in ("user_id", "timestamp", "entities", "location", "label"):
            assert getattr(out, attr) == getattr(msg, attr)

    def test_keep_entity_rejects_dropped_entity(self):
        msg = make_message("m1", "storm hits Miami", entities=["Miami"])
        result = augment_one(DropEntityProvider("Miami"), "keep-entity", msg)
        assert (result.generated, len(result.corpus)) == (0, 1)
        assert result.failures == [
            ("m1", "keep-entity", "dropped required entity", "rejected")]

    def test_empty_response_rejected(self):
        class Silent:
            def complete(self, prompt):
                return "   "
        result = augment_one(Silent(), "paraphrase", make_message("m1", "text"))
        assert result.generated == 0
        assert result.failures == [("m1", "paraphrase", "empty response", "rejected")]

    def test_rerun_varies_only_originals(self):
        corpus = small_corpus(4)
        first = augment_corpus(corpus, ["paraphrase"], EchoProvider())
        rerun = augment_corpus(first.corpus, ["paraphrase", "add-context"], EchoProvider())
        # the paraphrases exist already; only add-context variants are new
        assert (rerun.originals, rerun.generated) == (4, 4)
        new = rerun.corpus.messages[len(first.corpus):]
        assert {m.origin.source_id for m in new} == set(corpus.ids())
        assert all(m.origin.strategy == "add-context" for m in new)

    @pytest.mark.parametrize("cached", [False, True])
    def test_lone_surrogate_reply_is_rejected(self, tmp_path, cached):
        class CutEmoji:  # a reply cut by max_tokens inside a surrogate pair
            def complete(self, prompt):
                return "storm \ud83d"
        cache_dir = tmp_path / "c" if cached else None
        corpus = Corpus(messages=(make_message("m1", "storm hits Miami"),))
        result = augment_corpus(corpus, ["paraphrase"], CutEmoji(),
                                cache_dir=cache_dir)
        assert result.failures == [
            ("m1", "paraphrase", "response is not UTF-8 text", "rejected")]
        assert (result.generated, len(result.corpus)) == (0, 1)
        write_corpus(result.corpus, tmp_path / "out.jsonl")
        if cached:
            assert (tmp_path / "c" / "responses.jsonl").read_bytes() == b""

    def test_shuffle_mock_changes_text(self):
        msg = make_message("m1", "alpha beta gamma delta")
        out = augment_one(ShuffleProvider(), "style-transfer", msg).corpus.messages[1]
        assert out.text != msg.text
        assert sorted(out.text.split()) == sorted(msg.text.split())


class TestAugmentCorpus:
    def test_counts_one_strategy(self, tmp_path):
        corpus = small_corpus(10)
        result = augment_corpus(corpus, ["paraphrase"], EchoProvider(),
                                cache_dir=tmp_path / "cache")
        assert len(result.corpus) == 20
        assert result.generated == 10
        assert result.skipped == 0

    def test_warm_cache_skips_provider(self, tmp_path):
        corpus = small_corpus(10)
        provider = CountingProvider(EchoProvider())
        augment_corpus(corpus, ["paraphrase"], provider, cache_dir=tmp_path / "c")
        assert provider.calls == 10
        rerun = augment_corpus(corpus, ["paraphrase"], provider,
                               cache_dir=tmp_path / "c")
        assert provider.calls == 10  # zero new calls
        assert rerun.cache_hits == 10
        assert rerun.provider_calls == 0
        assert rerun.generated == 10

    def test_failures_are_skipped_not_fatal(self, tmp_path):
        corpus = small_corpus(10)
        flaky = FailingProvider(EchoProvider(),
                                fail_when=lambda p: "number 3" in p or "number 7" in p)
        result = augment_corpus(corpus, ["paraphrase"], flaky,
                                cache_dir=tmp_path / "c")
        assert result.generated == 8
        assert result.skipped == 2
        assert len(result.corpus) == 18
        assert all(kind == "provider" for _, _, _, kind in result.failures)

    def test_multiplicative_counts(self, tmp_path):
        corpus = small_corpus(4)
        result = augment_corpus(corpus, ["paraphrase", "add-context"],
                                EchoProvider(), cache_dir=tmp_path / "c",
                                copies_per_strategy=2)
        # 4 originals * 2 strategies * 2 copies = 16 variants
        assert result.generated == 16
        assert len(result.corpus) == 4 + 16

    def test_split_restricts_to_training_messages(self, tmp_path):
        corpus = small_corpus(10)
        train_ids = {"m1", "m4", "m5", "m8"}
        result = augment_corpus(corpus, ["paraphrase"], EchoProvider(),
                                cache_dir=tmp_path / "c", source_ids=train_ids)
        assert (result.originals, result.generated) == (10, 4)
        assert {m.origin.source_id for m in result.corpus.messages
                if m.origin is not None} == train_ids

    def test_concurrent_run_matches_sequential(self, tmp_path):
        corpus = small_corpus(12)
        seq = augment_corpus(corpus, list(DEFAULT_STRATEGIES), EchoProvider(),
                             cache_dir=tmp_path / "a")
        par = augment_corpus(corpus, list(DEFAULT_STRATEGIES), EchoProvider(),
                             cache_dir=tmp_path / "b", max_in_flight=6)
        assert [m.id for m in seq.corpus.messages] == \
            [m.id for m in par.corpus.messages]
        assert seq.corpus == par.corpus

    def test_without_cache_dir(self):
        result = augment_corpus(small_corpus(3), ["paraphrase"], EchoProvider())
        assert result.generated == 3

    def test_each_copy_is_its_own_request(self, tmp_path):
        corpus = small_corpus(3)
        provider = CountingProvider(ShuffleProvider())
        result = augment_corpus(corpus, ["paraphrase", "keep-entity"], provider,
                                cache_dir=tmp_path / "c", copies_per_strategy=3)
        # 3 provider calls per (message, strategy), none served from the cache
        assert provider.calls == 3 * 2 * 3
        assert (result.provider_calls, result.cache_hits) == (18, 0)
        copies = {}
        for m in result.corpus.messages:
            if m.origin is not None:
                copies.setdefault((m.origin.source_id, m.origin.strategy),
                                  set()).add(m.text)
        assert len(copies) == 6
        assert all(len(texts) > 1 for texts in copies.values())

    def test_copy_zero_matches_single_copy_run(self, tmp_path):
        corpus = small_corpus(4)
        one = augment_corpus(corpus, ["paraphrase"], ShuffleProvider(),
                             cache_dir=tmp_path / "a")
        three = augment_corpus(corpus, ["paraphrase"], ShuffleProvider(),
                               cache_dir=tmp_path / "b", copies_per_strategy=3)
        texts = {m.id: m.text for m in three.corpus.messages}
        for m in one.corpus.messages:
            assert texts[m.id] == m.text

    def test_other_model_misses_the_cache(self, tmp_path):
        corpus = small_corpus(5)
        augment_corpus(corpus, ["paraphrase"], ShuffleProvider(),
                       cache_dir=tmp_path / "c", model_name="model-a")
        provider = CountingProvider(EchoProvider())
        rerun = augment_corpus(corpus, ["paraphrase"], provider,
                               cache_dir=tmp_path / "c", model_name="model-b")
        assert provider.calls == 5
        assert (rerun.provider_calls, rerun.cache_hits) == (5, 0)
        for m in rerun.corpus.messages:
            if m.origin is not None:  # the echo texts, not model-a's
                assert m.text == corpus.messages[int(m.origin.source_id[1:])].text

    def test_other_temperature_misses_the_cache(self, tmp_path):
        corpus = small_corpus(5)
        augment_corpus(corpus, ["paraphrase"], EchoProvider(),
                       cache_dir=tmp_path / "c", temperature=1.0)
        provider = CountingProvider(EchoProvider())
        other = augment_corpus(corpus, ["paraphrase"], provider,
                               cache_dir=tmp_path / "c", temperature=0.2)
        assert provider.calls == 5
        assert (other.provider_calls, other.cache_hits) == (5, 0)
        provider = CountingProvider(EchoProvider())
        same = augment_corpus(corpus, ["paraphrase"], provider,
                              cache_dir=tmp_path / "c", temperature=0.2)
        assert provider.calls == 0
        assert (same.provider_calls, same.cache_hits) == (0, 5)

    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_blank_message_is_rejected_not_fatal(self, tmp_path, max_in_flight):
        corpus = Corpus(messages=(make_message("blank", text="   ", label=0),
                                  make_message("m1", text="storm hits Miami",
                                               label=1)))
        provider = CountingProvider(ShuffleProvider())
        result = augment_corpus(corpus, ["paraphrase", "add-context"], provider,
                                cache_dir=tmp_path / "c",
                                max_in_flight=max_in_flight)
        assert result.failures == [
            ("blank", "paraphrase", "empty message", "rejected"),
            ("blank", "add-context", "empty message", "rejected")]
        assert (result.generated, result.skipped) == (2, 2)
        assert provider.calls == result.provider_calls == 2
        log = (tmp_path / "c" / "responses.jsonl").read_bytes().splitlines()
        assert [json.loads(line)["source_id"] for line in log] == ["m1", "m1"]

    def test_truncated_cache_file_is_a_miss(self, tmp_path):
        corpus = small_corpus(4)
        cache_dir = tmp_path / "c"
        first = augment_corpus(corpus, ["paraphrase"], EchoProvider(),
                               cache_dir=cache_dir)
        log = cache_dir / "responses.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        keys = [json.loads(line)["cache_key"] for line in lines]
        log.write_bytes(b"".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
        torn = ResponseCache(cache_dir)
        assert [torn.get(k) is not None for k in keys] == [True, True, True, False]
        provider = CountingProvider(EchoProvider())
        rerun = augment_corpus(corpus, ["paraphrase"], provider,
                               cache_dir=cache_dir)
        assert (rerun.provider_calls, rerun.cache_hits) == (1, 3)
        assert rerun.corpus == first.corpus
        # the new record went onto a line of its own, after the torn one
        fresh = ResponseCache(cache_dir)
        assert all(fresh.get(k) is not None for k in keys)


class TestCache:
    def test_key_depends_on_strategy_and_text(self):
        def key(strategy, text, model="m", copy_idx=0, temperature=1.0):
            msg = make_message("m1", text, entities=["hello"])
            return cache_key(render_prompt(strategy, msg, copy_idx), model, copy_idx,
                             temperature)
        a = key("paraphrase", "hello")
        assert a == key("paraphrase", "hello")
        assert a != key("add-context", "hello")
        assert a != key("paraphrase", "other")
        assert a != key("paraphrase", "hello", model="other-model")
        assert a != key("paraphrase", "hello", copy_idx=1)
        assert a != key("paraphrase", "hello", temperature=0.2)
        assert key("keep-entity", "hello") != key("paraphrase", "hello")

    @pytest.mark.parametrize("content", [
        "", "{\"source_id\": \"m1\"", "[1, 2]", "{\"unexpected\": 1}",
        pytest.param(log_line(make_record("k" * 64, text="caf\u00e9"))
                     .replace(b"\xc3\xa9", b"\xe9"), id="latin-1-record"),
        pytest.param(log_line(make_record("k" * 64, text=5)), id="text-not-a-string"),
    ])
    def test_unreadable_entry_is_a_miss(self, tmp_path, content):
        line = content.encode() if isinstance(content, str) else content.rstrip(b"\n")
        good = make_record("g" * 64)
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "responses.jsonl").write_bytes(
            line + b"\n" + log_line(good))
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None
        assert cache.get("g" * 64) == good

    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        record = make_record("k" * 64, text="caf\u00e9 \u2028 \"quoted\"\nline")
        cache.put(record)
        assert cache.get("k" * 64) == record
        assert cache.get("missing") is None
        assert ResponseCache(tmp_path / "cache").get("k" * 64) == record
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["responses.jsonl"]

    def test_last_record_for_a_key_wins(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put(make_record("k" * 64, text="first"))
        cache.put(make_record("k" * 64, text="second"))
        assert cache.get("k" * 64).text == "second"
        assert ResponseCache(tmp_path / "cache").get("k" * 64).text == "second"

    def test_concurrent_puts_all_survive(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        start = threading.Barrier(2)

        def put_many(prefix):
            start.wait()
            for i in range(200):
                cache.put(make_record(f"{prefix}{i:03d}", text=f"{prefix} {i}" * 50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put_many, args=(p,)) for p in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        keys = [f"{p}{i:03d}" for p in "ab" for i in range(200)]
        fresh = ResponseCache(tmp_path / "cache")
        assert all(fresh.get(k) == cache.get(k) is not None for k in keys)
        assert len((tmp_path / "cache" / "responses.jsonl").read_bytes().splitlines()) == 400

    def test_old_per_key_files_miss_and_stay(self, tmp_path):
        old = tmp_path / "cache" / ("k" * 64 + ".json")
        old.parent.mkdir()
        old.write_text(json.dumps(vars(make_record("k" * 64)), indent=2))
        before = old.read_bytes()
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None
        assert old.read_bytes() == before
        assert sorted(p.name for p in old.parent.iterdir()) == [old.name, "responses.jsonl"]


class _Handler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    retry_after = None  # Retry-After header value of a failed reply
    seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append((dict(self.headers), body))
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(type(self).fail_status)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
            self.end_headers()
            return
        prompt = body["messages"][0]["content"]
        reply = {"choices": [{"message": {
            "content": f"reworded: {EchoProvider().complete(prompt)}"}}]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.seen = []
    _Handler.fail_first = 0
    _Handler.fail_status = 500
    _Handler.retry_after = None
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpProvider:
    def test_payload_carries_default_token_limit(self):
        provider = HttpProvider(ProviderConfig(endpoint="http://example.invalid"))
        payload = provider.build_payload("hi")
        assert payload["max_tokens"] == 1000
        assert payload["messages"] == [{"role": "user", "content": "hi"}]
        assert set(payload) == {"model", "messages", "max_tokens", "temperature"}

    def test_round_trip_against_local_server(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("EVENTAUG_API_TOKEN", "secret-token")
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint))
        msg = make_message("m1", "storm hits Miami")
        out = augment_one(provider, "paraphrase", msg).corpus.messages[1]
        assert out.text == "reworded: storm hits Miami"
        headers, body = _Handler.seen[-1]
        assert body["max_tokens"] == 1000
        assert headers.get("Authorization") == "Bearer secret-token"

    def test_retries_after_failures(self, http_endpoint):
        _Handler.fail_first = 2
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=3))
        assert provider.complete(render_prompt(
            "paraphrase", make_message("m1", "x y z"))).startswith("reworded:")
        assert len(_Handler.seen) == 3

    def test_exhausted_retries_raise(self, http_endpoint):
        _Handler.fail_first = 99
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=2))
        with pytest.raises(ProviderError):
            provider.complete(render_prompt("paraphrase", make_message("m1", "x")))

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_error_is_not_retried(self, http_endpoint, status):
        _Handler.fail_first = 99
        _Handler.fail_status = status
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=3))
        with pytest.raises(ProviderError, match=str(status)):
            provider.complete(render_prompt("paraphrase", make_message("m1", "x")))
        assert len(_Handler.seen) == 1

    def test_malformed_reply_is_not_retried(self, http_endpoint):
        _Handler.fail_first = 99
        _Handler.fail_status = 200  # an empty body
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=3))
        with pytest.raises(ProviderError, match="malformed"):
            provider.complete(render_prompt("paraphrase", make_message("m1", "x")))
        assert len(_Handler.seen) == 1

    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_transient_status_is_retried(self, http_endpoint, status):
        _Handler.fail_first = 1
        _Handler.fail_status = status
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=2))
        assert provider.complete(render_prompt(
            "paraphrase", make_message("m1", "x y"))).startswith("reworded:")
        assert len(_Handler.seen) == 2

    @pytest.mark.parametrize("status, retry_after, delays", [
        (429, "3", [3.0, 3.0]),
        (503, " 0 ", [0.0, 0.0]),
        (408, "Wed, 21 Oct 2015 07:28:00 GMT", [0.1, 0.2]),  # HTTP-date: back off
        (429, "1.5", [0.1, 0.2]),  # not whole seconds: back off
        (503, "soon", [0.1, 0.2]),
        (503, None, [0.1, 0.2]),
    ])
    def test_retry_after_seconds_replace_the_backoff(self, http_endpoint, monkeypatch,
                                                     status, retry_after, delays):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        _Handler.fail_first = 2
        _Handler.fail_status = status
        _Handler.retry_after = retry_after
        provider = HttpProvider(ProviderConfig(endpoint=http_endpoint,
                                               max_retries=3))
        assert provider.complete(render_prompt(
            "paraphrase", make_message("m1", "x y"))).startswith("reworded:")
        assert slept == delays
