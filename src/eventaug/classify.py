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
import threading
import warnings
from contextlib import nullcontext
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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


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
    seeds give bitwise-equal parameters. When a batch's expected noise
    reaches ``HELPER_MIN_VALUES``, a helper thread shares the drawing of
    the mixer's values (``_DrawAhead``); the parameters are the same.
    """
    x = np.asarray(fused_train, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("labels must align with training rows")
    present = np.unique(y)
    if present.size < 2:
        raise DegenerateDataError(
            f"training set has {present.size} distinct class(es); need >= 2")
    if num_classes is None:
        num_classes = int(y.max()) + 1
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError("labels outside [0, num_classes)")

    pconf = config.perturbation
    std = dataset_std(x) if pconf is not None and pconf.method == "IDGP" else None

    n, dim = x.shape
    weights = np.zeros((num_classes, dim))
    bias = np.zeros(num_classes)
    base = RngStream(config.seed)
    losses = []
    n_batches = (n + config.batch_size - 1) // config.batch_size
    mixing = pconf is not None and pconf.alpha > 0.0
    ahead = mixing and \
        pconf.alpha * min(config.batch_size, n) * dim >= HELPER_MIN_VALUES
    with _DrawAhead(base, pconf, config, x.shape) if ahead else nullcontext() as drawn:
        for epoch in range(config.epochs):
            order = base.derive(0, epoch).permutation(n)
            epoch_loss = 0.0
            for bi in range(n_batches):
                idx = order[bi * config.batch_size:(bi + 1) * config.batch_size]
                xb, yb = x[idx], y[idx]
                if mixing:
                    draws = drawn.take(epoch, bi) if ahead else base.derive(1, epoch, bi)
                    xb = mix_rows(xb, pconf, std, draws)
                loss, dw, db = cross_entropy_grad(weights, bias, xb, yb)
                weights -= config.learning_rate * dw
                bias -= config.learning_rate * db
                epoch_loss += loss * len(idx)
            losses.append(epoch_loss / n)

    metadata = {
        "seed": config.seed,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "num_classes": num_classes,
        "dim": dim,
        "train_rows": n,
        "perturbation": None if pconf is None else asdict(pconf),
    }
    return ClassifierModel(weights=weights, bias=bias, metadata=metadata,
                           loss_history=losses)


class _DrawAhead:
    """Every batch's mixer draws, made by the caller and one helper thread
    together. Batch ``t`` of the run (``epoch * per_epoch + batch``) gets the
    values ``draw_mix`` takes from ``base.derive(1, epoch, batch)``; whichever
    thread claims ``t`` first draws it, so no value depends on the thread.
    The helper claims batches in order, up to about ``_AHEAD_VALUES`` values
    past the caller's batch; when the caller's batch is not ready, the caller
    draws the next unclaimed one itself rather than wait. An error in the helper is raised from ``take``
    with its own type; leaving the context stops and joins the helper."""

    def __init__(self, base: RngStream, pconf: PerturbationConfig,
                 config: TrainConfig, shape):
        self._base, self._pconf, self._batch_size = base, pconf, config.batch_size
        self._n, self._dim = shape
        self._per_epoch = -(-self._n // config.batch_size)
        self._total = config.epochs * self._per_epoch
        batch_values = min(config.batch_size, self._n) * (1 + pconf.alpha * self._dim)
        self._ahead = max(2, round(_AHEAD_VALUES / batch_values))
        self._cond = threading.Condition()
        self._ready = {}  # batch -> draws, for batches up to _ahead past _using
        self._claimed = 0  # batches 0.._claimed - 1 are drawn or being drawn
        self._using = 0
        self._error = None
        self._stop = False
        self._helper = threading.Thread(target=self._run, name="eventaug-mixer-draws")

    def __enter__(self):
        self._helper.start()
        return self

    def __exit__(self, *exc_info):
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._helper.join()

    def _draw(self, t: int):
        epoch, bi = divmod(t, self._per_epoch)
        rows = min(self._batch_size, self._n - bi * self._batch_size)
        return draw_mix(self._pconf, (rows, self._dim), self._base.derive(1, epoch, bi))

    def _run(self):
        try:
            while True:
                with self._cond:
                    if self._claimed >= self._using + self._ahead:
                        # window full: sleep until half of it is free
                        self._cond.wait_for(self._half_free)
                    if self._stop or self._claimed == self._total:
                        return
                    t = self._claimed
                    self._claimed += 1
                drawn = self._draw(t)
                with self._cond:
                    self._ready[t] = drawn
                    self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - re-raised by take()
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def _half_free(self) -> bool:
        return self._stop or self._claimed <= self._using + self._ahead // 2

    def take(self, epoch: int, bi: int):
        """The draws of batch ``bi`` of ``epoch``; batches are taken in order."""
        t = epoch * self._per_epoch + bi
        with self._cond:
            self._using = t
            if self._half_free():
                self._cond.notify_all()
        while True:
            with self._cond:
                while t not in self._ready:
                    if self._error is not None:
                        raise self._error
                    if self._claimed < min(t + self._ahead, self._total):
                        s = self._claimed  # t itself, or one the helper has not reached
                        self._claimed += 1
                        break
                    self._cond.wait()
                else:
                    return self._ready.pop(t)
            drawn = self._draw(s)
            if s == t:
                return drawn
            with self._cond:
                self._ready[s] = drawn


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

    When a subsample loses a class entirely, a warning is emitted and that
    class is excluded from the reported macro F1.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_y = np.asarray(test_y, dtype=np.int64)
    if num_classes is None:
        num_classes = int(max(train_y.max(), test_y.max())) + 1
    rows = []
    for key, ratio in enumerate(ratios):
        if not (0.0 < ratio <= 1.0):
            raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
        idx = subsample_indices(train_x.shape[0], ratio, config.seed, key)
        x_sub, y_sub = train_x[idx], train_y[idx]
        present = set(np.unique(y_sub).tolist())
        missing = sorted(set(np.unique(train_y).tolist()) - present)
        if missing:
            warnings.warn(
                f"ratio {ratio}: classes {missing} vanished from the subsample "
                "and are excluded from macro F1")
        for arm in ("aug", "noaug"):
            arm_config = config if arm == "aug" else replace(config, perturbation=None)
            model = train(x_sub, y_sub, arm_config, num_classes=num_classes)
            preds = predict(model, test_x)
            report = evaluate(preds, test_y, num_classes)
            macro = report.macro_f1_over(present) if missing else report.macro_f1
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
