import itertools
import json
import re

import numpy as np
import pytest

from eventaug import ingest
from eventaug.core import EmbeddingMatrix, Origin
from eventaug.ingest import (Corpus, CorpusError, attach_embeddings,
                             naive_entities, parse_corpus, temporal_features,
                             with_entities, write_corpus)

from conftest import make_message, random_text


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def line(mid, label=None, **extra):
    obj = {"id": mid, "text": f"text {mid}", "user_id": "u1",
           "timestamp": 1_600_000_000, "entities": []}
    if label is not None:
        obj["label"] = label
    obj.update(extra)
    return obj


class TestParseCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = parse_corpus(path)
        assert len(corpus) == 0
        assert corpus.num_classes == 0

    def test_six_class_fixture(self, tmp_path):
        path = tmp_path / "six.jsonl"
        write_lines(path, [line(f"m{i}", label=i % 6) for i in range(12)])
        corpus = parse_corpus(path)
        assert corpus.num_classes == 6

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_lines(path, [line("m1"), line("m1")])
        with pytest.raises(CorpusError, match=r"line 2.*m1.*line 1"):
            parse_corpus(path)

    def test_malformed_line_is_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(line("m1")) + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus(path)

    def test_lone_surrogate_is_a_numbered_problem(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        # json.dumps escapes non-ASCII, so every line holds a \u escape
        write_lines(path, [line("m1", text="caf\u00e9 \ud83c\udf0a"),
                           line("m2", text="storm \ud83d"),
                           line("m3", entities=["\udc00"])])
        with pytest.raises(CorpusError) as exc:
            parse_corpus(path)
        assert [p.split(":")[0] for p in exc.value.problems] == ["line 2", "line 3"]
        assert all("lone surrogate" in p for p in exc.value.problems)

    def test_json_that_is_not_an_object_is_a_numbered_problem(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(json.dumps(line("m1")) + "\n[1, 2]\n\"m3\"\n")
        with pytest.raises(CorpusError) as exc:
            parse_corpus(path)
        assert exc.value.problems == ["line 2: expected a JSON object, got list",
                                      "line 3: expected a JSON object, got str"]

    def test_line_that_is_not_utf8_is_a_numbered_problem(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        good = json.dumps(line("m1")).encode("utf-8")
        latin1 = json.dumps(line("m2", text="caf\u00e9"), ensure_ascii=False)
        path.write_bytes(good + b"\n" + latin1.encode("latin-1") + b"\n{not json\n")
        with pytest.raises(CorpusError) as exc:
            parse_corpus(path)
        first, second = exc.value.problems
        assert first.startswith("line 2: byte 0xe9 at byte ")
        assert first.endswith("is not UTF-8")
        assert second.startswith("line 3: invalid JSON")

    def test_dangling_augmented_source(self, tmp_path):
        path = tmp_path / "dangling.jsonl"
        write_lines(path, [
            line("m1"),
            line("m2", origin={"strategy": "paraphrase", "source_id": "gone"}),
        ])
        with pytest.raises(CorpusError, match="gone"):
            parse_corpus(path)

    def test_augmented_source_must_be_original(self, tmp_path):
        path = tmp_path / "chained.jsonl"
        write_lines(path, [
            line("m1"),
            line("m2", origin={"strategy": "paraphrase", "source_id": "m1"}),
            line("m3", origin={"strategy": "paraphrase", "source_id": "m2"}),
        ])
        with pytest.raises(CorpusError, match="m3"):
            parse_corpus(path)

    def test_each_line_must_be_one_json_value(self, tmp_path):
        # joined, lines 2 and 3 would read as a list of two valid messages
        path = tmp_path / "split.jsonl"
        path.write_text(json.dumps(line("m0")) + "\n"
                        + '{"id": "m1", "a": [{}\n'
                        + '{}], "text": "t", "user_id": "u", "timestamp": 1}, '
                        + json.dumps(line("m2")) + "\n"
                        + json.dumps(line("m3")) + ' {"id": "m4"}\n'
                        + "\ufeff" + json.dumps(line("m5")) + "\n")
        with pytest.raises(CorpusError) as info:
            parse_corpus(path)
        problems = []
        for bad in ('{"id": "m1", "a": [{}',
                    '{}], "text": "t", "user_id": "u", "timestamp": 1}, '
                    + json.dumps(line("m2")),
                    json.dumps(line("m3")) + ' {"id": "m4"}',
                    "\ufeff" + json.dumps(line("m5"))):
            with pytest.raises(json.JSONDecodeError) as exc:
                json.loads(bad)
            problems.append(exc.value.msg)
        assert info.value.problems == [f"line {n}: invalid JSON ({msg})"
                                       for n, msg in zip((2, 3, 4, 5), problems)]

    def test_invariants_are_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.jsonl"
        write_lines(path, [line("m1"), line("m2", origin={"strategy": "paraphrase",
                                                          "source_id": "m1"})])
        calls = []
        check = ingest._invariant_problems
        monkeypatch.setattr(ingest, "_invariant_problems",
                            lambda *args: calls.append(1) or check(*args))
        assert parse_corpus(path).ids() == ["m1", "m2"]
        assert len(calls) == 1

    def test_line_ends_give_the_same_result(self, tmp_path):
        """A corpus gives the same messages, or the same problems, whether
        its lines end in LF, CRLF or CR, with or without a line that is not
        UTF-8; that line's problem names it by the same line number."""
        kinds = {
            "valid": lambda i, ids: line(f"m{i}"),
            "bad-json": lambda i, ids: '{"id": "m%d", "text": ' % i,
            "not-object": lambda i, ids: "[1]",
            "bad-type": lambda i, ids: line(f"m{i}", timestamp="1"),
            "surrogate": lambda i, ids: line(f"m{i}", text="storm \ud83d"),
            "duplicate": lambda i, ids: line(ids[-1] if ids else "m0"),
            "dangling": lambda i, ids: line(f"m{i}", origin={
                "strategy": "paraphrase", "source_id": "gone"}),
            "blank": lambda i, ids: "  ",
        }
        latin1 = json.dumps(line("mx", text="caf\u00e9"), ensure_ascii=False)
        latin1 = latin1.encode("latin-1")
        bad_at = latin1.index(b"\xe9") + 1
        path = tmp_path / "ends.jsonl"

        def parse(lines, end):
            path.write_bytes(b"".join(raw + end for raw in lines))
            try:
                return parse_corpus(path)
            except CorpusError as exc:
                return exc.problems

        rng = np.random.default_rng(7)
        seen = set()
        for trial in range(120):
            lines, ids = [], []
            for i in range(int(rng.integers(1, 8))):
                kind = list(kinds)[int(rng.integers(len(kinds)))]
                obj = kinds[kind](i, ids)
                if kind == "valid":
                    ids.append(obj["id"])
                seen.add(kind)
                lines.append((obj if isinstance(obj, str) else json.dumps(obj)).encode())
            at = int(rng.integers(len(lines) + 1))
            for broken in (lines, lines[:at] + [latin1] + lines[at:]):
                results = [parse(broken, end) for end in (b"\n", b"\r\n", b"\r")]
                assert results[1] == results[0] and results[2] == results[0], trial
                if broken is not lines:
                    assert (f"line {at + 1}: byte 0xe9 at byte {bad_at} of the line "
                            "is not UTF-8") in results[0], trial
        assert seen == set(kinds)

    def test_every_problem_in_one_error(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(json.dumps(line("m1")) + "\n{not json\n" + json.dumps(
            line("m2", origin={"strategy": "paraphrase", "source_id": "gone"})) + "\n")
        with pytest.raises(CorpusError) as info:
            parse_corpus(path)
        first, second = info.value.problems
        assert first.startswith("line 2: invalid JSON")
        assert second.startswith("line 3:") and "'gone'" in second

    @pytest.mark.parametrize("field,value,expected", [
        ("text", None, "line 2: text must be a string, got null"),
        ("user_id", None, "line 2: user_id must be a string, got null"),
        ("entities", "Miami", 'line 2: entities must be a list of strings, got "Miami"'),
        ("entities", [None], "line 2: entities must be a list of strings, got [null]"),
        ("timestamp", True, "line 2: timestamp must be an integer, got true"),
        ("timestamp", 1700000000.9, "line 2: timestamp must be an integer, got 1700000000.9"),
        ("timestamp", "1700000000",
         'line 2: timestamp must be an integer, got "1700000000"'),
        ("id", 5, "line 2: id must be a nonempty string, got 5"),
        ("location", 5, "line 2: location must be a string or null, got 5"),
        ("origin", {"strategy": "paraphrase", "source_id": 1},
         "line 2: origin must be an object of string strategy and source_id, or null, "
         'got {"strategy": "paraphrase", "source_id": 1}'),
    ], ids=["text-null", "user-null", "entities-str", "entities-null", "ts-bool",
            "ts-float", "ts-str", "id-int", "location-int", "origin-int"])
    def test_field_of_the_wrong_type_is_a_numbered_problem(self, tmp_path, field, value,
                                                           expected):
        path = tmp_path / "typed.jsonl"
        write_lines(path, [line("m1"), line("m2", **{field: value}), line("m3")])
        with pytest.raises(CorpusError) as exc:
            parse_corpus(path)
        assert exc.value.problems == [expected]

    def test_every_wrong_field_and_missing_key_is_listed(self, tmp_path):
        path = tmp_path / "typed.jsonl"
        missing_text = line("m2")
        del missing_text["text"]
        write_lines(path, [line("m1", label=True, location=None), missing_text,
                           line("m3", timestamp=None, entities=None)])
        with pytest.raises(CorpusError) as exc:
            parse_corpus(path)
        assert exc.value.problems == [
            "line 1: label must be an integer >= 0 or null, got true",
            "line 2: text must be a string, got nothing",
            "line 3: timestamp must be an integer, got null",
            "line 3: entities must be a list of strings, got null",
        ]

    def test_built_corpus_checks_the_same_rules(self):
        with pytest.raises(CorpusError, match=r"position 2: duplicate id 'm1'"):
            Corpus(messages=(make_message("m1"), make_message("m1")))
        with pytest.raises(CorpusError, match="'gone'"):
            Corpus(messages=(make_message("m2", origin=Origin("paraphrase", "gone")),))

    def test_round_trip(self, tmp_path):
        corpus = Corpus(messages=(
            make_message("m1", "first #Fire", label=0, entities=["Fire"]),
            make_message("m2", "second", user="u2", location="Sydney", label=1),
            make_message("m1a", "var", label=0,
                         origin=Origin("paraphrase", "m1")),
        ))
        path = tmp_path / "round.jsonl"
        write_corpus(corpus, path)
        assert parse_corpus(path) == corpus

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        path, again = tmp_path / "rand.jsonl", tmp_path / "again.jsonl"
        for trial in range(25):
            messages = []
            for i in range(int(rng.integers(1, 40))):
                originals = [m.id for m in messages if m.origin is None]
                origin = None
                if originals and rng.random() < 0.3:
                    origin = Origin(random_text(rng, 1, 8),
                                    originals[int(rng.integers(len(originals)))])
                messages.append(make_message(
                    f"m{i}-{random_text(rng, 0, 4)}", text=random_text(rng),
                    user=random_text(rng, 0, 6), ts=int(rng.integers(-2**40, 2**40)),
                    entities=[random_text(rng, 1, 6) for _ in range(int(rng.integers(0, 4)))],
                    location=random_text(rng, 0, 6) if rng.random() < 0.3 else None,
                    label=int(rng.integers(3)) if rng.random() < 0.8 else None,
                    origin=origin))
            corpus = Corpus(messages=tuple(messages))
            write_corpus(corpus, path)
            assert parse_corpus(path) == corpus, trial
            write_corpus(parse_corpus(path), again)
            assert again.read_bytes() == path.read_bytes()


class TestNaiveEntities:
    def test_hashtag_and_capitalized_run(self):
        assert naive_entities("fire in #Sydney near Bondi Beach") == \
            ["Sydney", "Bondi Beach"]

    def test_empty_text(self):
        assert naive_entities("") == []

    def test_nothing_capitalized(self):
        assert naive_entities("nothing capitalized here") == []

    def test_deduplicates_case_insensitively(self):
        out = naive_entities("#Sydney loves Sydney and SYDNEY")
        assert out == ["Sydney"]

    def test_is_pure(self):
        text = "Nobel Prize news from #Stockholm today"
        assert naive_entities(text) == naive_entities(text)

    def test_no_duplicates_property(self):
        rng = np.random.default_rng(5)
        words = ["Alpha", "beta", "#Gamma", "Delta", "epsilon", "#zeta"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            out = naive_entities(text)
            assert len({e.lower() for e in out}) == len(out)

    def test_punctuation_stripped(self):
        assert naive_entities("It happened in Paris, yesterday") == \
            ["It", "Paris"]

    def test_matches_a_token_oracle(self):
        """Seeded token mixes against an oracle that classifies each token,
        groups consecutive capitalized words, then keeps each entity's
        first casing."""
        punctuation = "\"'.,;:!?()[]{}<>#@&*~`|\\/"

        def kind(token):
            if token.startswith("#"):
                return "hashtag"
            word = token.strip(punctuation)
            return "capital" if word and word[0].isalpha() and word[0].isupper() \
                else "other"

        def oracle(text):
            found = []
            for token_kind, group in itertools.groupby(text.split(), kind):
                tokens = list(group)
                if token_kind == "capital":
                    found.append(" ".join(t.strip(punctuation) for t in tokens))
                elif token_kind == "hashtag":
                    found += [m.group(1) for m in (re.match(r"#(\w+)", t) for t in tokens)
                              if m]
            kept = []
            for entity in found:
                if entity.lower() not in [e.lower() for e in kept]:
                    kept.append(entity)
            return kept

        tokens = ["#", "##x", "#!", "#Foo", "#foo", "#1", "#É", "#Sydney,", "Foo", "foo",
                  "FOO", "É", "ǅ", "İ", "İstanbul", "istanbul", "Straße", "STRASSE",
                  "\"Quoted\"", "'Paris'", "(Bondi)", "Beach,", "@Alice", "@user", "1st",
                  "A", "a", ".", "!!", "Ωmega", "ωmega", "x#Y", "Ab#cd", "日本"]
        separators = [" ", "  ", "\t", "\n", "\u00a0", "\r\n"]
        rng = np.random.default_rng(23)
        for trial in range(3000):
            n = int(rng.integers(0, 14))
            text = "".join(tokens[i] + separators[j] for i, j in zip(
                rng.integers(0, len(tokens), n), rng.integers(0, len(separators), n)))
            assert naive_entities(text) == oracle(text), (trial, text)


class TestWithEntities:
    def test_fills_only_missing(self):
        corpus = Corpus(messages=(
            make_message("m1", "storm in Sydney", entities=["Given"]),
            make_message("m2", "storm in Sydney"),
        ))
        out = with_entities(corpus)
        assert out.messages[0].entities == ("Given",)
        assert out.messages[1].entities == ("Sydney",)


class TestAttachEmbeddings:
    def test_realigns_shuffled_rows(self):
        corpus = Corpus(messages=tuple(make_message(f"m{i}") for i in range(3)))
        values = np.arange(12.0, dtype=np.float32).reshape(4, 3)
        emb = EmbeddingMatrix(["m2", "m0", "extra", "m1"], values)
        aligned = attach_embeddings(corpus, emb)
        assert aligned.ids == ["m0", "m1", "m2"]
        assert np.array_equal(aligned.row("m2"), values[0])

    def test_matrix_in_corpus_order_is_returned_as_it_is(self):
        corpus = Corpus(messages=tuple(make_message(f"m{i}") for i in range(3)))
        emb = EmbeddingMatrix(corpus.ids(), np.ones((3, 2), dtype=np.float32))
        assert attach_embeddings(corpus, emb) is emb

    def test_missing_id_named(self):
        corpus = Corpus(messages=(make_message("m1"), make_message("m2")))
        emb = EmbeddingMatrix(["m1"], np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="m2"):
            attach_embeddings(corpus, emb)

    def test_768_dim_accepted_unchanged(self):
        corpus = Corpus(messages=(make_message("m1"),))
        emb = EmbeddingMatrix(["m1"], np.ones((1, 768), dtype=np.float32))
        aligned = attach_embeddings(corpus, emb)
        assert aligned.dim == 768

    def test_zero_dim_rejected(self):
        corpus = Corpus(messages=(make_message("m1"),))
        emb = EmbeddingMatrix(["m1"], np.zeros((1, 0), dtype=np.float32))
        with pytest.raises(ValueError, match="dim"):
            attach_embeddings(corpus, emb)


class TestTemporalFeatures:
    def test_scaled_to_unit_interval(self):
        corpus = Corpus(messages=tuple(
            make_message(f"m{i}", ts=1_600_000_000 + i * 90_000)
            for i in range(5)))
        feats = temporal_features(corpus)
        assert feats.shape == (5, 2)
        assert feats.min() >= 0.0 and feats.max() <= 1.0
        assert feats[:, 0].max() == 1.0  # day span covered

    def test_constant_timestamps_give_zeros(self):
        corpus = Corpus(messages=tuple(make_message(f"m{i}") for i in range(3)))
        assert np.array_equal(temporal_features(corpus), np.zeros((3, 2)))
