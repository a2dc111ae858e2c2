"""Dual data augmentation for social event detection.

The pipeline: augment message text through an LLM provider (or offline
mock), fuse message embeddings over the message/user/entity graph, perturb
the fused embeddings in feature space during training, and evaluate with
Micro/Macro F1. Diagnostics quantify how the perturbations move the
embedding distribution.
"""

from .core import (EmbeddingMatrix, Message, Origin, RngStream, SplitSpec,
                   read_embeddings, split, write_embeddings)
from .ingest import (Corpus, attach_embeddings, naive_entities, parse_corpus,
                     temporal_features, with_entities, write_corpus)
from .graph import FusionParams, HeteroGraph, build_graph, fuse
from .perturb import (PerturbationConfig, dataset_std, frequency_mask, mix_rows,
                      perturb)
from .metrics import EvalReport, evaluate
from .classify import (ClassifierModel, TrainConfig, load_model, predict,
                       ratio_study, save_model, train, train_many)
from .diagnostics import histogram, moments, pca2, export_plots
from .textaug import (STRATEGIES, ProviderConfig, augment_corpus,
                      check_entity_preservation, render_prompt)
from .profiles import RunConfig, profile_perturbation, resolve_config

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel", "Corpus", "EmbeddingMatrix", "EvalReport",
    "FusionParams", "HeteroGraph", "Message", "Origin",
    "PerturbationConfig", "ProviderConfig", "RngStream", "RunConfig",
    "STRATEGIES", "SplitSpec", "TrainConfig", "attach_embeddings",
    "augment_corpus", "build_graph", "check_entity_preservation",
    "dataset_std", "evaluate", "export_plots", "frequency_mask", "fuse",
    "histogram", "load_model", "mix_rows", "moments", "naive_entities",
    "parse_corpus", "pca2", "perturb", "predict", "profile_perturbation",
    "ratio_study", "read_embeddings", "render_prompt", "resolve_config",
    "save_model", "split", "temporal_features", "train", "train_many",
    "with_entities",
    "write_corpus", "write_embeddings",
]
