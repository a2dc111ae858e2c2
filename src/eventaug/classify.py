"""Softmax classifier trained by deterministic mini-batch gradient descent,
with the implicit-augmentation mixer applied to each batch before the
forward pass, plus the training-ratio study harness.

The classifier is a single linear layer. Plain gradient descent with a
fixed learning rate keeps two runs with the same seed bitwise identical;
there is no adaptive optimizer state.
"""

from __future__ import annotations

import json
import struct
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import (MODEL_MAGIC, BadMagicError, EmbeddingFormatError,
                   NonFinitePayloadError, RngStream, TruncatedPayloadError,
                   atomic_write)
from .metrics import EvalReport, evaluate
from .perturb import PerturbationConfig, dataset_std, draw_mix, mix_rows

_U32 = struct.Struct("<I")

# ``train`` shares the mixer's draws with a helper thread when a batch's
# expected noise, alpha x batch rows x dim, reaches this many values; below
# it the GIL hand-offs cost more than the second core saves. Training time
# with the helper over time without, on 2 cores (numpy 2.4.6), alpha 0.6,
# 64-row batches, 2,000 rows: GP 1.40 at dim 32 (1,229 values), 1.01 at
# dim 96 (3,686), 0.89 at dim 192 (7,373), 0.81 at dim 256 (9,830), 0.61 at
# dim 770 (29,568); FDP, whose caller-side FFTs leave less to overlap, 2.03
# at dim 32, 1.13 at dim 192, 1.11 at dim 256, 0.82 at dim 384 (14,746),
# 0.70 at dim 770. Repeats of these figures vary by about 0.1.
HELPER_MIN_VALUES = 8192
_AHEAD_VALUES = 1 << 17  # about how many values may be drawn ahead of the batch in use


class DegenerateDataError(ValueError):
    """Training data does not contain at least two classes."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.1
    seed: int = 0
    perturbation: PerturbationConfig | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")


@dataclass
class ClassifierModel:
    weights: np.ndarray  # (num_classes, dim)
    bias: np.ndarray  # (num_classes,)
    metadata: dict = field(default_factory=dict)
    loss_history: list[float] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_grad(weights, bias, x, y):
    """Mean softmax cross-entropy loss and its analytic gradient.

    Returns (loss, d_weights, d_bias). Exposed separately so the gradient
    can be checked against finite differences.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    probs = softmax(x @ weights.T + bias)
    eps = 1e-12
    loss = -np.log(np.clip(probs[np.arange(n), y], eps, None)).mean()
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    return loss, delta.T @ x, delta.sum(axis=0)


def train(fused_train, labels, config: TrainConfig,
          num_classes: int | None = None) -> ClassifierModel:
    """Minimize softmax cross-entropy by mini-batch gradient descent.

    When ``config.perturbation`` is set, each batch passes through the
    probabilistic mixer before the forward pass. IDGP's per-dimension std
    is computed once from the full training matrix.
    Shuffle order and mixer noise derive from ``config.seed``, so equal
    seeds give bitwise-equal parameters. This is the one-run case of
    :func:`train_many`.
    """
    return train_many([(fused_train, labels, config)], num_classes)[0]


class _Run:
    """One run of :func:`train_many`: its rows of a matrix, labels, config,
    and the per-epoch loss it accumulates."""

    def __init__(self, x, labels, config: TrainConfig, rows=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(labels, dtype=np.int64)
        if self.x.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("labels must align with training rows")
        self.rows = None if rows is None else np.asarray(rows, dtype=np.intp)
        y = self.y if self.rows is None else self.y[self.rows]
        present = np.unique(y)
        if present.size < 2:
            raise DegenerateDataError(
                f"training set has {present.size} distinct class(es); need >= 2")
        self.low, self.high = int(y.min()), int(y.max())
        self.n = y.shape[0]
        self.config = config
        self.pconf = pconf = config.perturbation
        self.mixing = pconf is not None and pconf.alpha > 0.0
        self.std = None
        if pconf is not None and pconf.method == "IDGP":
            self.std = dataset_std(self.x if self.rows is None else self.x[self.rows])
        self.base = RngStream(config.seed)
        self.losses = []
        self.same_batches = False  # as the run before it: same rows, labels, seed

    def order(self, epoch: int) -> np.ndarray:
        """This epoch's shuffled rows of ``x``."""
        perm = self.base.derive(0, epoch).permutation(self.n)
        return perm if self.rows is None else self.rows[perm]


def train_many(runs, num_classes: int | None = None) -> list[ClassifierModel]:
    """Train several runs in one loop; each model is bitwise the one
    :func:`train` gives that run alone.

    A run is ``(x, labels, config)`` or ``(x, labels, config, rows)``: it
    trains on ``x[rows]`` and ``labels[rows]`` (all rows when ``rows`` is
    left out), so runs can share one float64 matrix without copies. All
    runs have the same dim, epochs and batch size, and ``num_classes``
    defaults to one more than the largest label of any run.

    The runs step through (epoch, batch) together. Runs whose mixer would
    draw the same values (the same seed, perturbation and batch rows)
    share one draw, and a run on the same matrix, labels, rows and seed as
    the run before it takes that run's batch. When a batch's expected
    noise reaches ``HELPER_MIN_VALUES``, a helper thread shares the drawing
    (``_Draws``); the parameters are the same.
    """
    runs = [_Run(*run) for run in runs]
    if not runs:
        raise ValueError("no runs to train")
    dim = runs[0].x.shape[1]
    epochs, batch_size = runs[0].config.epochs, runs[0].config.batch_size
    if any((r.x.shape[1], r.config.epochs, r.config.batch_size) != (dim, epochs, batch_size)
           for r in runs):
        raise ValueError("runs must share dim, epochs and batch size")
    if num_classes is None:
        num_classes = max(r.high for r in runs) + 1
    if any(r.low < 0 or r.high >= num_classes for r in runs):
        raise ValueError("labels outside [0, num_classes)")
    for prev, run in zip(runs, runs[1:]):
        run.same_batches = run.x is prev.x and run.y is prev.y and run.rows is prev.rows \
            and run.config.seed == prev.config.seed
    for run in runs:
        run.weights = np.zeros((num_classes, dim))
        run.bias = np.zeros(num_classes)

    plan, slots = _plan(runs, batch_size)
    with _Draws(slots, epochs, dim) as draws:
        for epoch in range(epochs):
            orders = []
            for run in runs:
                orders.append(orders[-1] if run.same_batches else run.order(epoch))
            epoch_loss = [0.0] * len(runs)
            for bi, (first, last, members) in enumerate(plan):
                drawn = [draws.take(epoch * len(slots) + s) for s in range(first, last)]
                at = slice(bi * batch_size, (bi + 1) * batch_size)
                for k, offset in members:
                    run = runs[k]
                    if not run.same_batches:  # else the run before it, just done, left xb and yb
                        idx = orders[k][at]
                        xb, yb = run.x[idx], run.y[idx]
                    xm = xb if offset is None else mix_rows(xb, run.pconf, run.std, drawn[offset])
                    loss, dw, db = cross_entropy_grad(run.weights, run.bias, xm, yb)
                    run.weights -= run.config.learning_rate * dw
                    run.bias -= run.config.learning_rate * db
                    epoch_loss[k] += loss * len(yb)
            for k, run in enumerate(runs):
                run.losses.append(float(epoch_loss[k] / run.n))

    return [ClassifierModel(weights=r.weights, bias=r.bias, metadata={
        "seed": r.config.seed,
        "epochs": epochs,
        "batch_size": batch_size,
        "learning_rate": r.config.learning_rate,
        "num_classes": num_classes,
        "dim": dim,
        "train_rows": r.n,
        "perturbation": None if r.pconf is None else asdict(r.pconf),
    }, loss_history=r.losses) for r in runs]


def _plan(runs, batch_size):
    """One epoch's steps and mixer draws, the same in every epoch.

    Step ``bi`` is ``(first, last, members)``: its draws are slots
    ``first`` to ``last - 1``, and each member ``(k, offset)`` is a run
    with a batch at this step and its draw as an offset from ``first``
    (None without the mixer). A slot is ``(base, pconf, bi, rows)``, the
    key of one distinct draw.
    """
    plan, slots, slot_index = [], [], {}
    for bi in range(max(-(-r.n // batch_size) for r in runs)):
        first, members = len(slots), []
        for k, run in enumerate(runs):
            rows = min(batch_size, run.n - bi * batch_size)
            if rows <= 0:
                continue
            offset = None
            if run.mixing:
                key = (run.base, run.pconf, bi, rows)
                if key not in slot_index:
                    slot_index[key] = len(slots)
                    slots.append(key)
                offset = slot_index[key] - first
            members.append((k, offset))
        plan.append((first, len(slots), members))
    return plan, slots


class _Draws:
    """The distinct mixer draws of a training in the order it takes them:
    draw ``t`` is slot ``t % len(slots)`` of epoch ``t // len(slots)``, the
    values ``draw_mix`` takes from ``base.derive(1, epoch, batch)`` for a
    slot ``(base, pconf, batch, rows)``, so no value depends on the thread
    that draws it.

    When a slot's expected noise reaches ``HELPER_MIN_VALUES``, a one-worker
    executor draws ahead of the caller, up to about ``_AHEAD_VALUES``
    values; a draw the helper has not started is made by the caller, which
    also makes the helper's next draws while it waits on a running one. An
    error in the helper is raised from ``take`` with its own type; leaving
    the context cancels what is queued and joins the helper."""

    def __init__(self, slots, epochs: int, dim: int):
        self._slots, self._dim = slots, dim
        self._pool = None
        if any(pconf.alpha * rows * dim >= HELPER_MIN_VALUES for _, pconf, _, rows in slots):
            values = max(rows * (1 + pconf.alpha * dim) for _, pconf, _, rows in slots)
            self._ahead = max(2, round(_AHEAD_VALUES / values))
            self._total = epochs * len(slots)
            self._futures = {}  # draw -> its Future, for the submitted draws not yet taken
            self._submitted = 0
            self._pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="eventaug-mixer-draws")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def _draw(self, t: int):
        epoch, s = divmod(t, len(self._slots))
        base, pconf, bi, rows = self._slots[s]
        return draw_mix(pconf, (rows, self._dim), base.derive(1, epoch, bi))

    def take(self, t: int):
        """Draw ``t``; draws are taken in order."""
        if self._pool is None:
            return self._draw(t)
        if self._submitted <= t + self._ahead // 2:  # top up once half is used
            end = min(t + self._ahead, self._total)
            for s in range(self._submitted, end):
                self._futures[s] = self._pool.submit(self._draw, s)
            self._submitted = end
        future = self._futures.pop(t)
        if future.cancel():  # the helper has not reached it
            return self._draw(t)
        for s in range(t + 1, self._submitted):  # the helper is busy: draw past it
            if future.done():
                break
            if self._futures[s].cancel():
                self._futures[s] = drawn = Future()
                drawn.set_result(self._draw(s))
        return future.result()


def predict(model: ClassifierModel, emb) -> list[int]:
    """Argmax class per row.

    Ties break toward the lower class index (argmax returns the first
    maximum). Zero weights therefore predict class 0 everywhere.
    """
    x = np.asarray(emb, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValueError(f"expected rows of dim {model.dim}, got shape {x.shape}")
    return (x @ model.weights.T + model.bias).argmax(axis=1).tolist()


def save_model(model: ClassifierModel, path) -> None:
    """SEDMDL01 format: magic, num_classes (u32 LE), dim (u32 LE), weights
    then bias as float32 LE row-major, and a length-prefixed JSON metadata
    trailer. Parameters that are NaN or Inf as float32 (a diverged run) are
    refused before the file is opened."""
    params = np.concatenate([np.ravel(model.weights), model.bias]).astype("<f4")
    if not np.isfinite(params).all():
        raise NonFinitePayloadError(f"refusing to write NaN or Inf parameters to {path}")
    meta = json.dumps(model.metadata, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(_U32.pack(model.num_classes))
        fh.write(_U32.pack(model.dim))
        fh.write(params.tobytes())
        fh.write(_U32.pack(len(meta)))
        fh.write(meta)


def load_model(path) -> ClassifierModel:
    """Inverse of :func:`save_model`; validates magic, lengths and
    finiteness with the error types of :func:`core.read_embeddings`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:8] != MODEL_MAGIC:
        raise BadMagicError(f"{path}: expected magic {MODEL_MAGIC!r}, got {blob[:8]!r}")
    num_classes, dim = struct.unpack_from("<II", blob, 8)
    offset = 16 + 4 * num_classes * (dim + 1)
    if offset + 4 > len(blob):
        raise TruncatedPayloadError(
            f"{path}: expected {offset + 4} header and parameter bytes, found {len(blob)}")
    (meta_len,) = _U32.unpack_from(blob, offset)
    if offset + 4 + meta_len != len(blob):
        raise TruncatedPayloadError(
            f"{path}: expected {offset + 4 + meta_len} bytes, found {len(blob)}")
    params = np.frombuffer(blob, dtype="<f4", count=num_classes * (dim + 1), offset=16)
    if not np.isfinite(params).all():
        raise NonFinitePayloadError(f"{path}: parameters contain NaN or Inf")
    try:
        metadata = json.loads(blob[offset + 4:].decode("utf-8"))
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise EmbeddingFormatError(f"{path}: corrupt metadata trailer: {exc}") from exc
    if not isinstance(metadata, dict):
        raise EmbeddingFormatError(f"{path}: metadata trailer is not a JSON object")
    params = params.astype(np.float64)
    return ClassifierModel(weights=params[:num_classes * dim].reshape(num_classes, dim),
                           bias=params[num_classes * dim:], metadata=metadata)


@dataclass(frozen=True)
class RatioRow:
    ratio: float
    arm: str  # "aug" or "noaug"
    micro_f1: float
    macro_f1: float


def subsample_indices(n: int, ratio: float, seed: int, key: int) -> np.ndarray:
    """First floor(ratio*n) indices of a seeded permutation, sorted so the
    original row order is preserved. ratio=1 returns 0..n-1 unchanged."""
    take = int(np.floor(ratio * n + 1e-9))
    perm = RngStream(seed).derive(2, key).permutation(n)
    return np.sort(perm[:take])


def ratio_study(train_x, train_y, test_x, test_y, ratios,
                config: TrainConfig, num_classes: int | None = None) -> list[RatioRow]:
    """Train aug and noaug arms on deterministic subsamples of the training
    split and evaluate each on the fixed test split.

    All arms train in one :func:`train_many` call, each on its subsample's
    rows of the one training matrix, and are evaluated after all training.
    When a subsample loses a class entirely, a warning is emitted and that
    class is excluded from the reported macro F1.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_y = np.asarray(test_y, dtype=np.int64)
    if num_classes is None:
        num_classes = int(max(train_y.max(), test_y.max())) + 1
    runs, kept = [], []
    for key, ratio in enumerate(ratios):
        if not (0.0 < ratio <= 1.0):
            raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
        idx = subsample_indices(train_x.shape[0], ratio, config.seed, key)
        present = set(np.unique(train_y[idx]).tolist())
        missing = sorted(set(np.unique(train_y).tolist()) - present)
        if missing:
            warnings.warn(
                f"ratio {ratio}: classes {missing} vanished from the subsample "
                "and are excluded from macro F1")
        for arm in ("aug", "noaug"):
            arm_config = config if arm == "aug" else replace(config, perturbation=None)
            runs.append((train_x, train_y, arm_config, idx))
            kept.append((ratio, arm, present if missing else None))
    models = train_many(runs, num_classes)
    rows = []
    for (ratio, arm, present), model in zip(kept, models):
        report = evaluate(predict(model, test_x), test_y, num_classes)
        macro = report.macro_f1 if present is None else report.macro_f1_over(present)
        rows.append(RatioRow(ratio=ratio, arm=arm,
                             micro_f1=report.micro_f1, macro_f1=macro))
    return rows


def write_ratio_csv(rows, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("ratio,arm,micro_f1,macro_f1\n")
        for r in rows:
            fh.write(f"{r.ratio},{r.arm},{r.micro_f1:.6f},{r.macro_f1:.6f}\n")


def eval_report_json(report: EvalReport) -> str:
    """Canonical JSON for a report: sorted keys, stable float repr, so equal
    reports serialize byte-identically."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
