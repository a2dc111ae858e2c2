"""The three workloads: the CLI commands of one pass and the checks on
their outputs.

Every workload drives ``eventaug.cli.main`` in-process on the files that
``gen.py`` wrote. Outputs go to the same directories on every pass, so a
pass can be compared byte for byte with the warm-up pass, which gets the
full set of independent checks.
"""

from __future__ import annotations

import hashlib
import os

import checks
import gen

PROGRAM_SEED = 1  # the program's --seed; fixed, the benchmark seed only shapes inputs
STRATEGIES = len(gen.STRATEGY_TOKENS)
PIPELINE_TRAIN = ["--profile", "kawarith6", "--epochs", "8", "--lr", "2.0"]
DIAGNOSE_SIGMA = 0.02
SWEEP_TRAIN = ["--profile", "twitter2012", "--epochs", "5"]
SWEEP_METHODS = ("GP", "PGP", "IDGP", "CGP", "FDP")
SWEEP_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
# |no-mixer Macro-F1 - nearest-class-mean Macro-F1| may be at most this. At
# full size (800 test rows) seeds 11-16 gave at most 0.016; the toy matrix
# trains for a few dozen steps only.
NCM_MARGIN = {"full": 0.05, "toy": 0.25}
FUSED_SAMPLE = 48


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Work directory plus the digests of the checked warm-up pass."""

    def __init__(self, workdir):
        self.w = workdir
        self.reference: dict[str, str] | None = None

    def path(self, *parts) -> str:
        return os.path.join(self.w, *parts)

    def prepare(self) -> None:
        pass

    def same_as_warm_up(self, paths) -> bool:
        """Record digests on the first call; afterwards require the files
        to be byte-identical to the recorded ones. True on the first call."""
        if self.reference is None:
            self.reference = {p: digest(p) for p in paths}
            return True
        for p, d in self.reference.items():
            checks.require(digest(p) == d, f"{p} differs from the checked warm-up pass")
        return False


class Pipeline(Workload):
    """augment-text -> fuse -> train -> eval -> diagnose on a generated
    corpus. ``warm`` selects a response cache primed in set-up (read only)
    over one that starts empty on every pass."""

    def __init__(self, workdir, warm: bool):
        super().__init__(workdir)
        self.warm = warm
        self.cache = os.path.join(workdir, "cache")
        self.passes = 0

    def prepare(self) -> None:
        """Empty the cache of a cold workload. The old one is moved aside,
        not deleted: unlinking thousands of files right before a pass put
        its disk work into the next pass's timing. The run deletes the
        work directory when it ends."""
        if not self.warm and os.path.exists(self.cache):
            self.passes += 1
            os.replace(self.cache, self.path(f"old-cache-{self.passes}"))

    def commands(self) -> list[list[str]]:
        aug, fused = self.path("aug", "augmented.jsonl"), self.path("fuse", "fused.sedemb")
        seed = ["--seed", str(PROGRAM_SEED)]
        return [
            ["augment-text", "--corpus", self.path("corpus.jsonl"), "--mock", "shuffle",
             "--cache-dir", self.cache, "--config", self.path("bench.ini"),
             "--out", self.path("aug")] + seed,
            ["fuse", "--corpus", aug, "--embeddings", self.path("emb.sedemb"),
             "--out", self.path("fuse")] + seed,
            ["train", "--corpus", aug, "--fused", fused, "--out", self.path("train")]
            + PIPELINE_TRAIN + seed,
            ["eval", "--corpus", aug, "--fused", fused, "--model-file",
             self.path("train", "model.sedmdl"), "--out", self.path("eval")] + seed,
            ["diagnose", "--fused", fused, "--method", "GP", "--sigma", str(DIAGNOSE_SIGMA),
             "--out", self.path("diag")] + seed,
        ]

    def check(self, stdouts, pca_capture=None) -> tuple[float, float]:
        """Checks on one pass; returns the (micro, macro) F1 of its model.
        The first call runs every independent check and records artifact
        digests; later calls compare against them."""
        counts = checks.parse_counts(stdouts[0])
        aug, fused = self.path("aug", "augmented.jsonl"), self.path("fuse", "fused.sedemb")
        checks.check_augmented(self.path("corpus.jsonl"), aug, STRATEGIES, counts,
                               expect_calls=not self.warm)
        micro, macro = checks.check_report(aug, fused, self.path("train", "model.sedmdl"),
                                           self.path("train", "report.json"),
                                           PROGRAM_SEED, rows_slack=1)
        artifacts = [aug, fused, self.path("train", "model.sedmdl"),
                     self.path("train", "report.json"), self.path("eval", "report.json"),
                     self.path("diag", "moments.csv"),
                     self.path("diag", "explained_variance.csv")]
        if self.same_as_warm_up(artifacts):
            if self.warm:
                checks.require(digest(aug) == digest(self.path("primed.jsonl")),
                               "warm augment-text output differs from the cold priming run")
            checks.check_fused(aug, self.path("emb.sedemb"), fused, PROGRAM_SEED, FUSED_SAMPLE)
            checks.check_report(aug, fused, self.path("train", "model.sedmdl"),
                                self.path("eval", "report.json"), PROGRAM_SEED, rows_slack=0)
            checks.check_moments(self.path("diag", "moments.csv"), DIAGNOSE_SIGMA)
            if pca_capture is not None:
                checks.check_pca(*pca_capture, self.path("diag", "explained_variance.csv"))
        return micro, macro


class Sweep(Workload):
    """train once per mixer method and once without the mixer, then one
    ratio-study, on a pre-fused matrix."""

    def __init__(self, workdir, size: str):
        super().__init__(workdir)
        self.ncm_margin = NCM_MARGIN[size]

    def commands(self) -> list[list[str]]:
        base = ["--corpus", self.path("corpus.jsonl"), "--fused", self.path("fused.sedemb"),
                "--seed", str(PROGRAM_SEED)] + SWEEP_TRAIN
        cmds = [["train", "--method", m, "--out", self.path(m)] + base for m in SWEEP_METHODS]
        cmds.append(["train", "--no-implicit", "--out", self.path("none")] + base)
        cmds.append(["ratio-study", "--ratios", ",".join(map(str, SWEEP_RATIOS)),
                     "--out", self.path("ratio")] + base)
        return cmds

    def check(self, stdouts, pca_capture=None) -> tuple[float, float]:
        scores = []
        for name in SWEEP_METHODS + ("none",):
            scores.append(checks.check_report(
                self.path("corpus.jsonl"), self.path("fused.sedemb"),
                self.path(name, "model.sedmdl"), self.path(name, "report.json"),
                PROGRAM_SEED, rows_slack=1))
        scores += checks.check_ratio_csv(self.path("ratio", "ratio_study.csv"), SWEEP_RATIOS)
        kept = [self.path(n, f) for n in ("GP", "PGP", "IDGP", "CGP", "none")
                for f in ("model.sedmdl", "report.json")]
        kept.append(self.path("ratio", "ratio_study.csv"))
        if self.same_as_warm_up(kept):
            ncm = checks.ncm_macro_f1(self.path("corpus.jsonl"), self.path("fused.sedemb"),
                                      self.path("class_means.npy"), PROGRAM_SEED)
            no_mixer = scores[len(SWEEP_METHODS)][1]
            checks.require(abs(no_mixer - ncm) <= self.ncm_margin,
                           f"no-mixer Macro-F1 {no_mixer:.4f} is more than {self.ncm_margin} "
                           f"from the nearest-class-mean rule's {ncm:.4f}")
        micro = sum(s[0] for s in scores) / len(scores)
        macro = sum(s[1] for s in scores) / len(scores)
        return micro, macro


def make(workload: str, workdir: str, size: str):
    if workload == "train-sweep":
        return Sweep(workdir, size)
    return Pipeline(workdir, warm=(workload == "pipeline-hub"))
