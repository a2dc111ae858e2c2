"""Multi-command front end for the full pipeline.

Commands: augment-text, fuse, train, eval, ratio-study, diagnose.
Global flags (accepted before or after the command): --config, --profile,
--seed, --out, --mock. Exit codes: 0 success, 2 config error, 3 provider
exhaustion, 4 data degeneracy, 1 anything else.

Every command writes resolved-config.json into the output directory. It
records the resolved parameters; --config reads INI only, not this file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import graph as graphmod
from .classify import (DegenerateDataError, eval_report_json,
                       load_model, predict, ratio_study, save_model, train,
                       write_ratio_csv)
from .core import (EmbeddingMatrix, atomic_write, read_embeddings, split,
                   write_embeddings)
from .diagnostics import export_plots
from .ingest import attach_embeddings, parse_corpus, with_entities, write_corpus
from .metrics import evaluate
from .perturb import dataset_std, perturb
from .profiles import RunConfig, config_keys, read_config_file, resolve_config
from .textaug import (EchoProvider, HttpProvider, ProviderError,
                      ShuffleProvider, augment_corpus)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_DEGENERATE = 4

_MOCKS = {"echo": EchoProvider, "shuffle": ShuffleProvider}


class ConfigError(ValueError):
    pass


def _global_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", default=argparse.SUPPRESS,
                        help="INI config file")
    parent.add_argument("--profile", default=argparse.SUPPRESS,
                        help="dataset profile: kawarith6, twitter2012, twitter2018, custom")
    parent.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed")
    parent.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory")
    parent.add_argument("--mock", nargs="?", const="echo", choices=sorted(_MOCKS),
                        default=argparse.SUPPRESS,
                        help="use an offline mock provider instead of HTTP")
    return parent


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ratios(text: str) -> list[float]:
    """A comma-separated list of at least one ratio in (0, 1]."""
    try:
        ratios = [float(r) for r in text.split(",") if r.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not ratios:
        raise argparse.ArgumentTypeError("no ratio given")
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise argparse.ArgumentTypeError(f"ratios must lie in (0, 1], got {ratio}")
    return ratios


def build_parser() -> argparse.ArgumentParser:
    parent = _global_flags()
    parser = argparse.ArgumentParser(prog="eventaug", parents=[parent],
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment-text", parents=[parent],
                       help="generate LLM text variants of a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy", action="append", dest="strategies",
                   metavar="NAME", help="repeatable; defaults to all five")
    p.add_argument("--copies", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--train-only", action="store_true",
                   help="augment only the originals of train's training split")
    p.add_argument("--out-corpus", default=None,
                   help="output JSONL path (default: <out>/augmented.jsonl)")

    p = sub.add_parser("fuse", parents=[parent],
                       help="build the social graph and write fused embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dump-graph", action="store_true")

    for name in ("train", "ratio-study"):
        p = sub.add_parser(name, parents=[parent])
        p.add_argument("--corpus", required=True)
        p.add_argument("--fused", required=True)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--lr", type=float, default=None, dest="learning_rate")
        p.add_argument("--no-implicit", action="store_true",
                       help="disable the perturbation mixer during training")
        p.add_argument("--method", default=None,
                       help="perturbation method: GP, PGP, IDGP, CGP, FDP")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        if name == "ratio-study":
            p.add_argument("--ratios", type=_ratios,
                           default="0.1,0.2,0.3,0.4,0.5,0.6,0.7")

    p = sub.add_parser("eval", parents=[parent],
                       help="evaluate a saved model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--split-part", default="test",
                   choices=("train", "val", "test", "all"))

    p = sub.add_parser("diagnose", parents=[parent],
                       help="distribution diagnostics for a perturbation")
    p.add_argument("--fused", required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--alpha-var", type=float, default=None)
    p.add_argument("--bins", type=_positive_int, default=100)
    return parser


def _resolve(args) -> RunConfig:
    config_path = getattr(args, "config", None)
    if config_path and not os.path.exists(config_path):
        raise ConfigError(f"config file not found: {config_path}")
    # A flag overrides the config key of its name. No flag belongs to
    # [split]: --seed is the [run] seed, which a file's [split] seed beats.
    overrides = {section: {key: getattr(args, key, None) for key in keys}
                 for section, keys in config_keys().items() if section != "split"}
    try:
        file_values = read_config_file(config_path) if config_path else {}
        return resolve_config(file_values=file_values, overrides=overrides)
    except (OSError, ValueError, TypeError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _augment_outputs(args, config: RunConfig) -> tuple[str, str]:
    """``augment-text``'s cache directory and output corpus path."""
    return (config.cache_dir or os.path.join(config.out_dir, "cache"),
            args.out_corpus or os.path.join(config.out_dir, "augmented.jsonl"))


def _check_paths(args, config: RunConfig) -> None:
    """ConfigError for an input path that is not a file, for an output
    path that exists as something else or lies in a missing directory
    (--out is made later), and for an ``augment-text`` run with no provider."""
    for key in ("corpus", "embeddings", "fused", "model_file"):
        path = getattr(args, key, None)
        if path is not None and not os.path.isfile(path):
            problem = "is not a file" if os.path.exists(path) else "not found"
            raise ConfigError(f"--{key.replace('_', '-')} {problem}: {path}")
    cache_dir = None
    if args.command == "augment-text":
        if not getattr(args, "mock", None) and not config.provider.endpoint:
            raise ConfigError("no provider endpoint; pass --endpoint or --mock")
        cache_dir, out_corpus = _augment_outputs(args, config)
        if os.path.isdir(out_corpus):
            raise ConfigError(f"--out-corpus is a directory: {out_corpus}")
        parent = os.path.abspath(os.path.dirname(out_corpus))
        if not os.path.isdir(parent) and parent != os.path.abspath(config.out_dir):
            raise ConfigError(f"--out-corpus is in a missing directory: {out_corpus}")
    for flag, path in (("--out", config.out_dir), ("--cache-dir", cache_dir)):
        if path and os.path.exists(path) and not os.path.isdir(path):
            raise ConfigError(f"{flag} is not a directory: {path}")


def _write_out(config: RunConfig, name: str, text: str) -> str:
    """Write one text file into the output directory; returns its path."""
    path = os.path.join(config.out_dir, name)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_snapshot(config: RunConfig, command: str) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    _write_out(config, "resolved-config.json", config.snapshot_json(command=command))


def _load_aligned(corpus_path, emb_path):
    """The corpus and its embedding rows in corpus order."""
    corpus = parse_corpus(corpus_path)
    return corpus, attach_embeddings(corpus, read_embeddings(emb_path))


def _split_rows(corpus, spec):
    """Row positions of (train, val, test). Labeled originals are split;
    augmented messages follow their source into the training side only
    (never val/test, to avoid leakage)."""
    labeled = [i for i, m in enumerate(corpus.messages)
               if m.is_original and m.label is not None]
    if not labeled:
        raise DegenerateDataError("corpus has no labeled original messages")
    train_rows, val_rows, test_rows = split(labeled, spec)
    train_set = {corpus.messages[i].id for i in train_rows}
    extra = [i for i, m in enumerate(corpus.messages)
             if m.origin is not None and m.label is not None
             and m.origin.source_id in train_set]
    return train_rows + extra, val_rows, test_rows


def _gather(corpus, emb, rows):
    return emb.values[rows], np.array([corpus.messages[i].label for i in rows],
                                      dtype=np.int64)


def _training_rows(args, config: RunConfig):
    """(train rows and labels, test rows and labels, train config, number
    of classes) for ``train`` and ``ratio-study``."""
    corpus, emb = _load_aligned(args.corpus, args.fused)
    train_rows, _, test_rows = _split_rows(corpus, config.split)
    train_config = replace(config.train, perturbation=None) if args.no_implicit \
        else config.train
    return (_gather(corpus, emb, train_rows), _gather(corpus, emb, test_rows),
            train_config, corpus.num_classes)


def cmd_augment_text(args, config: RunConfig) -> int:
    corpus = with_entities(parse_corpus(args.corpus))

    mock = getattr(args, "mock", None)
    if mock:
        provider = _MOCKS[mock]()
        model_name = f"mock:{mock}"
    else:
        provider = HttpProvider(config.provider)
        model_name = config.provider.model

    source_ids = ({corpus.messages[i].id for i in _split_rows(corpus, config.split)[0]}
                  if args.train_only else None)

    cache_dir, out_path = _augment_outputs(args, config)
    # the mocks are Python work under the interpreter lock: threads only contend
    result = augment_corpus(
        corpus, config.strategies, provider,
        cache_dir=cache_dir,
        copies_per_strategy=config.copies,
        source_ids=source_ids,
        max_in_flight=1 if mock else config.provider.max_in_flight,
        model_name=model_name,
        temperature=config.provider.temperature)

    write_corpus(result.corpus, out_path)
    print(f"originals={result.originals} generated={result.generated} "
          f"skipped={result.skipped} cache_hits={result.cache_hits} "
          f"provider_calls={result.provider_calls}")
    print(f"wrote {out_path}")

    attempted = result.generated + result.skipped
    provider_failures = [f for f in result.failures if f[3] == "provider"]
    if attempted > 0 and result.generated == 0 and provider_failures \
            and len(provider_failures) == result.skipped:
        raise ProviderError("all augmentation requests failed")
    return EXIT_OK


def cmd_fuse(args, config: RunConfig) -> int:
    corpus = with_entities(parse_corpus(args.corpus))
    # the file's matrix is freed once re-indexed, before fuse
    aligned = attach_embeddings(corpus, read_embeddings(args.embeddings))

    g = graphmod.build_graph(corpus)
    fused = graphmod.fuse(g, aligned, corpus, config.fusion)
    write_embeddings(fused, os.path.join(config.out_dir, "fused.sedemb"))

    stats = g.stats()
    stats.update({"input_dim": aligned.dim, "fused_dim": fused.dim})
    _write_out(config, "graph-stats.json",
               json.dumps(stats, sort_keys=True, indent=2) + "\n")
    if args.dump_graph:
        _write_out(config, "graph.json", g.to_json() + "\n")
    print(f"fused {fused.rows} messages: dim {aligned.dim} -> {fused.dim}")
    print(f"graph: {stats['users']} users, {stats['entities']} entities, "
          f"{stats['entity_edges']} entity edges")
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    (x_train, y_train), (x_test, y_test), train_config, num_classes = \
        _training_rows(args, config)
    model = train(x_train, y_train, train_config, num_classes=num_classes)

    model_path = os.path.join(config.out_dir, "model.sedmdl")
    save_model(model, model_path)
    preds = predict(model, x_test)
    report = evaluate(preds, y_test, num_classes)
    report_path = _write_out(config, "report.json", eval_report_json(report))
    print(f"train_rows={len(y_train)} test_rows={len(y_test)} "
          f"classes={num_classes}")
    print(f"micro_f1={report.micro_f1:.4f} macro_f1={report.macro_f1:.4f}")
    print(f"wrote {model_path} and {report_path}")
    return EXIT_OK


def cmd_eval(args, config: RunConfig) -> int:
    corpus, emb = _load_aligned(args.corpus, args.fused)
    model = load_model(args.model_file)

    train_rows, val_rows, test_rows = _split_rows(corpus, config.split)
    part = {"train": train_rows, "val": val_rows, "test": test_rows,
            "all": train_rows + val_rows + test_rows}[args.split_part]
    if not part:
        raise DegenerateDataError(f"split part {args.split_part!r} is empty")
    x, y = _gather(corpus, emb, part)
    preds = predict(model, x)
    report = evaluate(preds, y, max(corpus.num_classes, model.num_classes))
    _write_out(config, "report.json", eval_report_json(report))
    print(f"split={args.split_part} rows={len(part)}")
    print(f"micro_f1={report.micro_f1:.4f} macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def cmd_ratio_study(args, config: RunConfig) -> int:
    (x_train, y_train), (x_test, y_test), train_config, num_classes = \
        _training_rows(args, config)
    rows = ratio_study(x_train, y_train, x_test, y_test, args.ratios, train_config,
                       num_classes=num_classes)
    csv_path = os.path.join(config.out_dir, "ratio_study.csv")
    write_ratio_csv(rows, csv_path)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_diagnose(args, config: RunConfig) -> int:
    before = read_embeddings(args.fused)
    if before.rows == 0:
        raise DegenerateDataError(f"{args.fused} holds no rows to diagnose")
    spec = config.perturbation
    std = dataset_std(before.values) if spec.method == "IDGP" else None
    rng = np.random.default_rng(config.seed)
    # the float64 perturb result lives only until it is cast to float32
    after = EmbeddingMatrix([f"{i}*" for i in before.ids],
                            perturb(before.values, spec, std, rng))

    _, report = export_plots(before, after, config.out_dir, bins=args.bins)
    print(f"method={spec.method} n={report.count}")
    print(f"before: mean={report.before_mean:.6f} std={report.before_std:.6f}")
    print(f"after:  mean={report.after_mean:.6f} std={report.after_std:.6f}")
    return EXIT_OK


_HANDLERS = {
    "augment-text": cmd_augment_text,
    "fuse": cmd_fuse,
    "train": cmd_train,
    "eval": cmd_eval,
    "ratio-study": cmd_ratio_study,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve(args)
        _check_paths(args, config)
        _write_snapshot(config, args.command)
        return _HANDLERS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Exception as exc:  # noqa: BLE001 - map everything else to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
