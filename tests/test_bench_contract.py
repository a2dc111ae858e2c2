"""The names the benchmark's traced run re-binds must stay attributes of
the program's modules. ``bench/tracing.py`` wraps them in place and puts
the originals back afterwards; a rename here fails ``bench/run.py --trace
1``, so this test catches it in the unit suite."""

import importlib.util
import os

from eventaug import classify, cli, diagnostics, graph, textaug

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")

REBOUND = {
    "cli": (cli, {"parse_corpus", "write_corpus", "with_entities",
                  "attach_embeddings", "read_embeddings", "write_embeddings",
                  "split", "augment_corpus", "save_model", "load_model",
                  "export_plots", "train", "predict", "evaluate"}),
    "cli._HANDLERS": (cli._HANDLERS, {"augment-text", "fuse", "train", "eval",
                                      "ratio-study", "diagnose"}),
    "graph": (graph, {"build_graph", "fuse", "neighborhood"}),
    "classify": (classify, {"train", "predict", "evaluate", "mix_rows"}),
    "ResponseCache": (textaug.ResponseCache, {"get", "put"}),
    "ShuffleProvider": (textaug.ShuffleProvider, {"complete"}),
    "diagnostics": (diagnostics, {"pca2", "histogram"}),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {name: dict(owner if isinstance(owner, dict) else vars(owner))
            for name, (owner, _) in REBOUND.items()}


def test_install_rebinds_and_restore_puts_back():
    tracing = load_tracing()
    before = snapshot()
    restore = tracing.install(tracing.Tracer())
    try:
        during = snapshot()
    finally:
        restore()
    after = snapshot()
    for name, (_, expected) in REBOUND.items():
        changed = {k for k, v in before[name].items() if during[name].get(k) is not v}
        assert changed == expected, name
        assert all(after[name][k] is v for k, v in before[name].items()), name
