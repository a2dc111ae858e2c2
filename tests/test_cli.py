import gc
import json
import weakref
from dataclasses import fields

import numpy as np
import pytest

from eventaug import cli, graph
from eventaug.classify import load_model
from eventaug.cli import main
from eventaug.core import (EmbeddingMatrix, SplitSpec, read_embeddings, split,
                           write_embeddings)
from eventaug.ingest import Corpus, parse_corpus, write_corpus
from eventaug.perturb import PerturbationConfig
from eventaug.profiles import config_keys

from conftest import make_message


def write_train_fixture(tmp_path, n=40, dim=6, seed=0):
    """Separable 2-class corpus plus a matching 'fused' embedding file."""
    rng = np.random.default_rng(seed)
    messages = []
    values = np.zeros((n, dim), dtype=np.float32)
    for i in range(n):
        label = i % 2
        messages.append(make_message(
            f"m{i}", text=f"event report {i} from Miami", user=f"u{i}",
            ts=1_600_000_000 + i * 3600, entities=["Miami"], label=label))
        center = 4.0 if label == 0 else -4.0
        values[i] = rng.normal(scale=0.3, size=dim).astype(np.float32)
        values[i, 0] += center
    corpus = Corpus(messages=tuple(messages))
    corpus_path = tmp_path / "corpus.jsonl"
    fused_path = tmp_path / "fused.sedemb"
    write_corpus(corpus, corpus_path)
    write_embeddings(EmbeddingMatrix(corpus.ids(), values), fused_path)
    return str(corpus_path), str(fused_path)


def write_graph_fixture(tmp_path, graph_corpus):
    corpus_path = tmp_path / "graph_corpus.jsonl"
    emb_path = tmp_path / "emb.sedemb"
    write_corpus(graph_corpus, corpus_path)
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(graph_corpus.ids(),
                          rng.normal(size=(5, 8)).astype(np.float32))
    write_embeddings(emb, emb_path)
    return str(corpus_path), str(emb_path)


def record_prompts(monkeypatch) -> list:
    """Make ``--mock echo`` a provider that records each prompt it gets."""
    calls = []

    class Recording:
        def complete(self, prompt):
            calls.append(prompt)
            return prompt

    monkeypatch.setitem(cli._MOCKS, "echo", Recording)
    return calls


class TestAugmentText:
    def test_mock_echo_counts(self, tmp_path, capsys):
        corpus_path, _ = write_train_fixture(tmp_path, n=10)
        out = str(tmp_path / "run")
        rc = main(["augment-text", "--corpus", corpus_path, "--mock",
                   "--strategy", "paraphrase", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "generated=10 skipped=0" in text
        assert (tmp_path / "run" / "augmented.jsonl").exists()
        assert (tmp_path / "run" / "resolved-config.json").exists()

    def test_rerun_hits_cache(self, tmp_path, capsys):
        corpus_path, _ = write_train_fixture(tmp_path, n=10)
        out = str(tmp_path / "run")
        args = ["augment-text", "--corpus", corpus_path, "--mock",
                "--strategy", "paraphrase", "--out", out,
                "--out-corpus", str(tmp_path / "aug.jsonl")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache_hits=10 provider_calls=0" in capsys.readouterr().out

    def test_two_strategies_double_output(self, tmp_path, capsys):
        corpus_path, _ = write_train_fixture(tmp_path, n=10)
        rc = main(["augment-text", "--corpus", corpus_path, "--mock",
                   "--strategy", "keep-entity", "--strategy", "paraphrase",
                   "--copies", "1", "--out", str(tmp_path / "run2")])
        assert rc == 0
        assert "generated=20" in capsys.readouterr().out

    def test_output_corpus_parses_with_origins(self, tmp_path):
        corpus_path, _ = write_train_fixture(tmp_path, n=6)
        out_corpus = tmp_path / "aug.jsonl"
        main(["augment-text", "--corpus", corpus_path, "--mock",
              "--strategy", "style-transfer", "--out", str(tmp_path / "o"),
              "--out-corpus", str(out_corpus)])
        augmented = parse_corpus(out_corpus)
        assert len(augmented) == 12
        variants = [m for m in augmented.messages if m.origin is not None]
        assert len(variants) == 6
        assert all(v.origin.strategy == "style-transfer" for v in variants)

    def test_blank_message_is_skipped(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(messages=(make_message("m0", text="   ", label=0),
                                      make_message("m1", text="storm in Miami",
                                                   label=1))), corpus_path)
        rc = main(["augment-text", "--corpus", str(corpus_path), "--mock",
                   "shuffle", "--strategy", "paraphrase", "--out",
                   str(tmp_path / "run")])
        assert rc == 0
        assert "generated=1 skipped=1" in capsys.readouterr().out
        assert len(parse_corpus(tmp_path / "run" / "augmented.jsonl")) == 3

    def test_temperature_is_part_of_the_cache_key(self, tmp_path, capsys):
        corpus_path, _ = write_train_fixture(tmp_path, n=10)
        config = tmp_path / "cfg.ini"
        config.write_text("[explicit]\ntemperature = 0.2\n")
        args = ["augment-text", "--corpus", corpus_path, "--mock",
                "--strategy", "paraphrase", "--out", str(tmp_path / "run")]
        assert main(args) == 0
        assert main(args + ["--config", str(config)]) == 0
        assert main(args + ["--config", str(config)]) == 0
        out = capsys.readouterr().out.splitlines()
        counts = [line.split("cache_hits=")[1] for line in out if "cache_hits=" in line]
        assert counts == ["0 provider_calls=10", "0 provider_calls=10",
                          "10 provider_calls=0"]

    def test_train_only_augments_the_training_originals(self, tmp_path):
        # every fourth original is unlabeled: train splits only the labeled
        messages = tuple(make_message(f"m{i}", text=f"storm report {i}",
                                      label=None if i % 4 == 3 else i % 2)
                         for i in range(40))
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(messages=messages), corpus_path)
        assert main(["augment-text", "--corpus", str(corpus_path), "--mock",
                     "--strategy", "paraphrase", "--train-only", "--seed", "3",
                     "--out", str(tmp_path / "run")]) == 0
        labeled = [m for m in messages if m.label is not None]
        train_ids, _, _ = split([m.id for m in labeled], SplitSpec(seed=3))
        augmented = parse_corpus(tmp_path / "run" / "augmented.jsonl")
        sources = [m.origin.source_id for m in augmented.messages
                   if m.origin is not None]
        assert sorted(sources) == sorted(train_ids)

    def test_train_only_without_labeled_originals_is_degenerate(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(messages=(make_message("m0", text="storm"),)), corpus_path)
        assert main(["augment-text", "--corpus", str(corpus_path), "--mock",
                     "--train-only", "--out", str(tmp_path / "run")]) == 4

    def test_unknown_strategy_is_config_error(self, tmp_path, monkeypatch):
        calls = record_prompts(monkeypatch)
        corpus_path, _ = write_train_fixture(tmp_path, n=4)
        rc = main(["augment-text", "--corpus", corpus_path, "--mock",
                   "--strategy", "paraphrase", "--strategy", "backtranslate",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert calls == []
        assert not (tmp_path / "run" / "augmented.jsonl").exists()

    @pytest.mark.parametrize("form", ["flags", "config"])
    def test_repeated_strategy_is_config_error(self, tmp_path, monkeypatch, form):
        calls = record_prompts(monkeypatch)
        corpus_path, _ = write_train_fixture(tmp_path, n=4)
        if form == "flags":
            extra = ["--strategy", "paraphrase", "--strategy", "paraphrase"]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text("[explicit]\nstrategies = paraphrase, paraphrase\n")
            extra = ["--config", str(ini)]
        rc = main(["augment-text", "--corpus", corpus_path, "--mock",
                   "--out", str(tmp_path / "run")] + extra)
        assert rc == 2
        assert calls == []
        assert not (tmp_path / "run" / "augmented.jsonl").exists()

    def test_lone_surrogate_line_is_a_numbered_error(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(messages=(make_message("m0", text="storm", label=0),)),
                     corpus_path)
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "m1", "text": "storm \ud83d", "user_id": "u1",
                                 "timestamp": 1_600_000_000}) + "\n")
        rc = main(["augment-text", "--corpus", str(corpus_path), "--mock",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "lone surrogate" in err

    def test_missing_endpoint_is_config_error(self, tmp_path):
        corpus_path, _ = write_train_fixture(tmp_path, n=4)
        rc = main(["augment-text", "--corpus", corpus_path,
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unreachable_provider_exhausts(self, tmp_path):
        corpus_path, _ = write_train_fixture(tmp_path, n=3)
        config = tmp_path / "cfg.ini"
        config.write_text(
            "[explicit]\nendpoint = http://127.0.0.1:1/nope\n"
            "max_retries = 1\nmax_in_flight = 1\n")
        rc = main(["augment-text", "--corpus", corpus_path,
                   "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 3


class TestFuse:
    def test_dims_and_stats(self, tmp_path, capsys, graph_corpus):
        corpus_path, emb_path = write_graph_fixture(tmp_path, graph_corpus)
        out = str(tmp_path / "fuse_out")
        rc = main(["fuse", "--corpus", corpus_path, "--embeddings", emb_path,
                   "--out", out])
        assert rc == 0
        from eventaug.core import read_embeddings
        fused = read_embeddings(tmp_path / "fuse_out" / "fused.sedemb")
        assert fused.dim == 8 + 2
        stats = json.loads((tmp_path / "fuse_out" / "graph-stats.json").read_text())
        assert stats["messages"] == 5
        assert stats["users"] == 3
        assert stats["entities"] == 4
        assert stats["user_edges"] == 5
        assert stats["entity_edges"] == 6
        assert (tmp_path / "fuse_out" / "resolved-config.json").exists()

    def test_file_matrix_is_freed_before_fuse(self, tmp_path, graph_corpus,
                                              monkeypatch):
        # No second file-sized matrix is alive during fuse: a file already
        # in corpus order (as fuse writes it) is fused as read, and the
        # matrix of a file in any other order is freed once re-indexed.
        corpus_path, emb_path = write_graph_fixture(tmp_path, graph_corpus)
        shuffled_path = str(tmp_path / "shuffled.sedemb")
        write_embeddings(read_embeddings(emb_path).reindex(graph_corpus.ids()[::-1]),
                         shuffled_path)
        read, fuse = cli.read_embeddings, graph.fuse
        refs, seen = [], []

        def reading(path):
            matrix = read(path)
            refs.append(weakref.ref(matrix))
            return matrix

        def fusing(g, aligned, *args, **kwargs):
            gc.collect()
            file_matrix = refs[-1]()
            seen.append("freed" if file_matrix is None
                        else "fused as read" if file_matrix is aligned else "alive")
            return fuse(g, aligned, *args, **kwargs)

        monkeypatch.setattr(cli, "read_embeddings", reading)
        monkeypatch.setattr(graph, "fuse", fusing)
        for path in (emb_path, shuffled_path):
            assert main(["fuse", "--corpus", corpus_path, "--embeddings", path,
                         "--out", str(tmp_path / "out")]) == 0
        assert seen == ["fused as read", "freed"]

    def test_byte_identical_reruns(self, tmp_path, graph_corpus):
        corpus_path, emb_path = write_graph_fixture(tmp_path, graph_corpus)
        for out in ("a", "b"):
            assert main(["fuse", "--corpus", corpus_path, "--embeddings",
                         emb_path, "--out", str(tmp_path / out)]) == 0
        blob_a = (tmp_path / "a" / "fused.sedemb").read_bytes()
        blob_b = (tmp_path / "b" / "fused.sedemb").read_bytes()
        assert blob_a == blob_b


class TestTrain:
    def test_separable_fixture_reaches_perfect_micro(self, tmp_path, capsys):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        out = str(tmp_path / "train_out")
        rc = main(["train", "--corpus", corpus_path, "--fused", fused_path,
                   "--out", out, "--seed", "7", "--epochs", "150",
                   "--no-implicit"])
        assert rc == 0
        report = json.loads((tmp_path / "train_out" / "report.json").read_text())
        assert report["micro_f1"] == 1.0
        assert (tmp_path / "train_out" / "model.sedmdl").exists()

    def test_same_seed_identical_report(self, tmp_path):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        for out in ("r1", "r2"):
            assert main(["train", "--corpus", corpus_path, "--fused",
                         fused_path, "--out", str(tmp_path / out),
                         "--seed", "3", "--epochs", "60"]) == 0
        blob_a = (tmp_path / "r1" / "report.json").read_bytes()
        blob_b = (tmp_path / "r2" / "report.json").read_bytes()
        assert blob_a == blob_b

    def test_profile_resolves_appendix_values(self, tmp_path):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        out = str(tmp_path / "prof_out")
        rc = main(["train", "--corpus", corpus_path, "--fused", fused_path,
                   "--out", out, "--profile", "twitter2012", "--epochs", "5"])
        assert rc == 0
        resolved = json.loads(
            (tmp_path / "prof_out" / "resolved-config.json").read_text())
        assert resolved["implicit"]["alpha"] == 0.6
        assert resolved["implicit"]["sigma"] == 0.1
        assert resolved["implicit"]["clip_c"] == 0.05
        assert resolved["implicit"]["keep_ratio"] == 0.95

    def test_single_class_labels_exit_degenerate(self, tmp_path):
        rng = np.random.default_rng(2)
        messages = tuple(make_message(f"m{i}", user=f"u{i}", label=0)
                         for i in range(20))
        corpus = Corpus(messages=messages)
        corpus_path = tmp_path / "flat.jsonl"
        write_corpus(corpus, corpus_path)
        emb = EmbeddingMatrix(corpus.ids(),
                              rng.normal(size=(20, 4)).astype(np.float32))
        fused_path = tmp_path / "flat.sedemb"
        write_embeddings(emb, fused_path)
        rc = main(["train", "--corpus", str(corpus_path), "--fused",
                   str(fused_path), "--out", str(tmp_path / "x"),
                   "--epochs", "5"])
        assert rc == 4

    def test_diverged_training_writes_no_model(self, tmp_path, capsys):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        out = tmp_path / "diverged"
        with np.errstate(all="ignore"):
            rc = main(["train", "--corpus", corpus_path, "--fused", fused_path,
                       "--out", str(out), "--lr", "1e300", "--epochs", "5",
                       "--no-implicit"])
        assert rc == 1
        assert "NaN or Inf" in capsys.readouterr().err
        assert not (out / "model.sedmdl").exists()
        assert not (out / "report.json").exists()

    def test_bad_profile_is_config_error(self, tmp_path):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        rc = main(["train", "--corpus", corpus_path, "--fused", fused_path,
                   "--profile", "imaginary", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_corrupt_corpus_is_other_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "m1", "text": "a", "user_id": "u", '
                       '"timestamp": 1}\n{"id": "m1", "text": "b", '
                       '"user_id": "u", "timestamp": 2}\n')
        _, fused_path = write_train_fixture(tmp_path)
        rc = main(["train", "--corpus", str(bad), "--fused", fused_path,
                   "--out", str(tmp_path / "x")])
        assert rc == 1


class TestResolvedConfig:
    def train_with_config(self, tmp_path, ini_text, *flags):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        out = tmp_path / "out"
        assert main(["train", "--config", str(ini), "--corpus", corpus_path,
                     "--fused", fused_path, "--out", str(out), "--epochs", "3",
                     *flags]) == 0
        return json.loads((out / "resolved-config.json").read_text()), out

    def test_holds_every_config_file_key(self, tmp_path):
        resolved, _ = self.train_with_config(
            tmp_path, "[explicit]\nauth_env = SED_TOKEN\n")
        # the name of the token variable, never its value
        assert resolved["explicit"]["auth_env"] == "SED_TOKEN"
        for section, keys in config_keys().items():
            written = resolved if section == "run" else resolved[section]
            for key in keys:
                assert {"out": "out_dir"}.get(key, key) in written, (section, key)

    def test_seed_flag_leaves_file_split_seed(self, tmp_path):
        resolved, out = self.train_with_config(
            tmp_path, "[split]\nseed = 9\n", "--seed", "5")
        assert resolved["split"]["seed"] == 9
        assert resolved["train"]["seed"] == 5
        assert resolved["seed"] == 5
        assert load_model(out / "model.sedmdl").metadata["seed"] == 5

    def test_model_metadata_has_every_perturbation_field(self, tmp_path):
        _, out = self.train_with_config(tmp_path, "[implicit]\nmethod = CGP\n")
        perturbation = load_model(out / "model.sedmdl").metadata["perturbation"]
        assert set(perturbation) == {f.name for f in fields(PerturbationConfig)}
        assert perturbation["method"] == "CGP"

    @pytest.mark.parametrize("ini_text", [
        "[implicit]\ngamma = 1\n",
        "epochs = 10\n",
        "[explicit]\nendpoint = http://localhost:1/v1?q=100%\n",
        "[train]\nepochs = ten\n",
        "[train]\nlearning_rate = nan\n",
        "[train]\nlearning_rate = inf\n",
        "[explicit]\nmax_retries = 0\n",
        "[explicit]\ntemperature = nan\n",
        "[explicit]\ntemperature = inf\n",
        "[explicit]\ntemperature = -0.5\n",
    ], ids=["unknown-key", "no-section-header", "bare-percent", "bad-int",
            "lr-nan", "lr-inf", "no-retries", "temperature-nan",
            "temperature-inf", "temperature-negative"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, ini_text):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text)
        rc = main(["train", "--config", str(ini), "--corpus", corpus_path,
                   "--fused", fused_path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_lr_flag_is_config_error(self, tmp_path, capsys):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        rc = main(["train", "--corpus", corpus_path, "--fused", fused_path,
                   "--lr", "nan", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        fused = tmp_path / "fused.sedemb"
        write_embeddings(EmbeddingMatrix(["a"], [[1.0]]), fused)
        rc = main(["diagnose", "--config", str(tmp_path), "--fused", str(fused),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_eval_saved_model(self, tmp_path, capsys):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        train_out = tmp_path / "t"
        assert main(["train", "--corpus", corpus_path, "--fused", fused_path,
                     "--out", str(train_out), "--seed", "7",
                     "--epochs", "150", "--no-implicit"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--corpus", corpus_path, "--fused", fused_path,
                   "--model-file", str(train_out / "model.sedmdl"),
                   "--out", str(tmp_path / "e"), "--seed", "7"])
        assert rc == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["micro_f1"] == 1.0


class TestRatioStudy:
    def test_csv_shape(self, tmp_path):
        corpus_path, fused_path = write_train_fixture(tmp_path, n=60)
        out = tmp_path / "rs"
        rc = main(["ratio-study", "--corpus", corpus_path, "--fused",
                   fused_path, "--out", str(out), "--epochs", "5",
                   "--ratios", "0.1,0.2,0.3,0.4,0.5,0.6,0.7"])
        assert rc == 0
        lines = (out / "ratio_study.csv").read_text().splitlines()
        assert lines[0] == "ratio,arm,micro_f1,macro_f1"
        assert len(lines) == 1 + 14
        arms = {line.split(",")[1] for line in lines[1:]}
        assert arms == {"aug", "noaug"}


class TestDiagnose:
    def test_gp_increases_std(self, tmp_path, capsys):
        _, fused_path = write_train_fixture(tmp_path)
        out = tmp_path / "diag"
        rc = main(["diagnose", "--fused", fused_path, "--out", str(out),
                   "--method", "GP", "--sigma", "0.1"])
        assert rc == 0
        printed = capsys.readouterr().out
        before = float(printed.split("before: mean=")[1].split("std=")[1].split()[0])
        after = float(printed.split("after:  mean=")[1].split("std=")[1].split()[0])
        assert after >= before
        for name in ("histogram.csv", "pca.csv", "moments.csv",
                     "explained_variance.csv", "histogram.svg", "pca.svg"):
            assert (out / name).exists()

    def test_idgp_zero_variance_is_identity(self, tmp_path, capsys):
        _, fused_path = write_train_fixture(tmp_path)
        rc = main(["diagnose", "--fused", fused_path,
                   "--out", str(tmp_path / "d2"), "--method", "IDGP",
                   "--alpha-var", "0"])
        assert rc == 0
        printed = capsys.readouterr().out
        before_line = printed.split("before: ")[1].splitlines()[0]
        after_line = printed.split("after:  ")[1].splitlines()[0]
        assert before_line == after_line

    def test_zero_rows_is_degenerate(self, tmp_path, capsys):
        fused_path = tmp_path / "empty.sedemb"
        write_embeddings(EmbeddingMatrix([], np.zeros((0, 6), np.float32)), fused_path)
        out = tmp_path / "diag"
        rc = main(["diagnose", "--fused", str(fused_path), "--out", str(out)])
        assert rc == 4
        assert str(fused_path) in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["resolved-config.json"]

    def test_one_row_works(self, tmp_path, capsys):
        fused_path = tmp_path / "one.sedemb"
        write_embeddings(EmbeddingMatrix(["m0"], [[1.0, -2.0, 0.5]]), fused_path)
        out = tmp_path / "diag"
        rc = main(["diagnose", "--fused", str(fused_path), "--out", str(out)])
        assert rc == 0
        assert "n=3" in capsys.readouterr().out
        assert (out / "pca.csv").exists()


def exit_code(argv):
    """main's exit code, whether returned or raised by the argument parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlagRanges:
    """Out-of-range flag values exit 2 before any file is written."""

    def test_zero_copies(self, tmp_path, capsys):
        corpus_path, _ = write_train_fixture(tmp_path, n=4)
        out = tmp_path / "run"
        assert exit_code(["augment-text", "--corpus", corpus_path, "--mock",
                          "--copies", "0", "--out", str(out)]) == 2
        assert "copies must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["0", ","], ids=["zero", "empty"])
    def test_bad_ratios(self, tmp_path, capsys, ratios):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        out = tmp_path / "rs"
        assert exit_code(["ratio-study", "--corpus", corpus_path, "--fused",
                          fused_path, "--out", str(out), "--epochs", "2",
                          "--ratios", ratios]) == 2
        assert "--ratios" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_bins(self, tmp_path, capsys):
        _, fused_path = write_train_fixture(tmp_path)
        out = tmp_path / "diag"
        assert exit_code(["diagnose", "--fused", fused_path, "--out", str(out),
                          "--bins", "0"]) == 2
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,seed_args", [
        ("train", ["--seed", "-1"]),
        ("diagnose", ["--seed", "-3"]),
        ("train", "[split]\nseed = -5\n"),
    ], ids=["train-flag", "diagnose-flag", "split-file"])
    def test_negative_seed(self, tmp_path, capsys, command, seed_args):
        corpus_path, fused_path = write_train_fixture(tmp_path)
        if isinstance(seed_args, str):
            ini = tmp_path / "run.ini"
            ini.write_text(seed_args)
            seed_args = ["--config", str(ini)]
        out = tmp_path / "run"
        argv = [command, "--fused", fused_path, "--out", str(out), *seed_args]
        if command == "train":
            argv += ["--corpus", corpus_path, "--epochs", "2"]
        assert exit_code(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()
