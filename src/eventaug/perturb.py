"""Feature-space perturbations applied to fused message embeddings during
training, plus the probabilistic mixer that decides per sample whether the
perturbed or original row is used.

Five methods, the values of ``PerturbationConfig.method``:

* ``GP``   -- additive noise, g + n with n ~ Normal(0, sigma^2).
* ``PGP``  -- noise scaled elementwise by the feature values themselves,
  g + eps * g with eps ~ Normal(0, sigma^2); zero features stay zero.
* ``IDGP`` -- noise scaled by the per-dimension standard deviation of the
  training set (:func:`dataset_std`), n_j ~ Normal(0, alpha_var * std_j^2),
  so low-variance dimensions receive little noise.
* ``CGP``  -- Gaussian noise clamped to [-clip_c, clip_c]. Clamping censors
  the distribution (probability mass collects at the bounds rather than
  being redistributed inside them).
* ``FDP``  -- filter the real half-spectrum (``np.fft.rfft``) of each
  embedding, add complex noise to the kept bins and transform back with
  ``np.fft.irfft``; equal draws reproduce the output to 1e-12 relative.

:func:`perturb` applies one to a single row vector or a 2-D batch (rows
perturbed independently), and :func:`mix_rows` to the rows of a batch the
mixer chooses; both are pure given (input, config, std, rng).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

METHODS = ("GP", "PGP", "IDGP", "CGP", "FDP")
FDP_MODES = ("high", "low", "band")
_BLOCK = 1 << 16  # values that dataset_std converts and sums at a time


@dataclass(frozen=True)
class PerturbationConfig:
    """All implicit-augmentation hyperparameters.

    ``alpha`` is the per-row mixing probability; ``alpha_var`` controls the
    IDGP noise variance (the two roles are deliberately separate fields).
    Zero values for the noise parameters are allowed and give the identity
    perturbation.
    """

    method: str = "GP"
    alpha: float = 0.3
    sigma: float = 0.01
    clip_c: float = 0.005
    alpha_var: float = 0.01
    keep_ratio: float = 0.98
    noise_level: float = 0.02
    fdp_mode: str = "high"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.fdp_mode not in FDP_MODES:
            raise ValueError(f"fdp_mode must be one of {FDP_MODES}, got {self.fdp_mode!r}")
        checks = [
            ("alpha", self.alpha, 0.0, 1.0),
            ("sigma", self.sigma, 0.0, math.inf),
            ("clip_c", self.clip_c, 0.0, math.inf),
            ("alpha_var", self.alpha_var, 0.0, math.inf),
            ("noise_level", self.noise_level, 0.0, math.inf),
        ]
        for name, value, lo, hi in checks:
            if not math.isfinite(value) or value < lo or value > hi:
                raise ValueError(f"{name} must be finite in [{lo}, {hi}], got {value}")
        if not (0.0 < self.keep_ratio <= 1.0) or not math.isfinite(self.keep_ratio):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")


def dataset_std(matrix) -> np.ndarray:
    """Population standard deviation per dimension (divide by n), in float64.

    Computed once over the training-split fused embeddings, never per batch,
    in row blocks, so no full-size float64 temporary is made.
    """
    values = np.asarray(matrix)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    return _column_std(values)


def _column_std(x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """:func:`dataset_std` of ``x[rows]`` (of ``x`` without ``rows``),
    bitwise equal to ``np.asarray(x[rows], np.float64).std(axis=0)`` of a
    C-ordered ``x``.

    numpy sums axis 0 of such a matrix row by row, so each block of about
    ``_BLOCK`` values is converted into one reused float64 buffer behind
    the running column total, and summing the buffer carries that total
    through the block's rows in the same order: first the column sums for
    the mean, then the squared deviations. A single column is one block,
    since numpy sums a contiguous column pairwise."""
    n, dim = x.shape[0] if rows is None else rows.size, x.shape[1]
    step = n if dim == 1 else max(1, _BLOCK // dim)
    buf = np.empty((min(step, n) + 1, dim))

    def column_sums(mean):
        total = None
        for lo in range(0, n, step):
            block = x[lo:lo + step] if rows is None else x[rows[lo:lo + step]]
            k = block.shape[0]
            buf[1:k + 1] = block
            if mean is not None:
                np.subtract(buf[1:k + 1], mean, out=buf[1:k + 1])
                np.multiply(buf[1:k + 1], buf[1:k + 1], out=buf[1:k + 1])
            if total is None:
                total = np.add.reduce(buf[1:k + 1], axis=0)
            else:
                buf[0] = total
                total = np.add.reduce(buf[:k + 1], axis=0)
        return total

    mean = column_sums(None) / n
    return np.sqrt(column_sums(mean) / n)


def frequency_mask(dim: int, keep_ratio: float, mode: str) -> np.ndarray:
    """Boolean keep-mask over the two-sided frequency spectrum of length dim.

    Bins are grouped into conjugate classes by |frequency|: {0}, {k, dim-k}
    for 0 < k < dim/2, and {dim/2} when dim is even. These are the dim//2 + 1
    bins of ``np.fft.rfft``. Whole classes are kept or dropped so the mask is
    always conjugate-symmetric and a real input stays real after filtering.

    * ``low``  keeps classes of smallest |frequency|,
    * ``high`` keeps classes of largest |frequency|,
    * ``band`` drops classes from both ends (low end first when the drop
      budget is odd),

    in each case covering at least floor(keep_ratio * dim) bins with the
    fewest whole classes. keep_ratio = 1 keeps every bin.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if mode not in FDP_MODES:
        raise ValueError(f"mode must be one of {FDP_MODES}, got {mode!r}")
    target = int(math.floor(keep_ratio * dim + 1e-9))

    half = dim // 2
    sizes = np.full(half + 1, 2)  # bins in class k, those of |frequency| k
    sizes[0] = 1
    if dim % 2 == 0:
        sizes[half] = 1
    below = np.cumsum(sizes) - sizes  # bins in the classes below class k
    above = np.cumsum(sizes[::-1])[::-1] - sizes  # and above it
    if mode == "low":  # kept while the classes below hold fewer than target bins
        keep = below < target
    elif mode == "high":
        keep = above < target
    else:  # dropped from an end while it fits in that end's drop budget
        budget = dim - target
        keep = (below + sizes > (budget + 1) // 2) & (above + sizes > budget // 2)
    k = np.arange(dim)
    return keep[np.minimum(k, dim - k)]


@functools.lru_cache(maxsize=16)
def _kept_bins(dim: int, keep_ratio: float, mode: str) -> slice:
    """FDP's kept half-spectrum bins, which are always one run of the
    dim // 2 + 1 bins: a prefix for ``low``, a suffix for ``high`` and
    their intersection for ``band``. Cached, since drawing and applying
    every batch of a run ask for the same bins."""
    if dim < 2:
        raise ValueError(f"vector length must be >= 2, got {dim}")
    kept = np.flatnonzero(frequency_mask(dim, keep_ratio, mode)[:dim // 2 + 1])
    return slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(0, 0)


def _draw_noise(config: PerturbationConfig, shape,
                rng: np.random.Generator | None) -> tuple[np.ndarray, ...]:
    """The random values ``config.method`` adds to values of ``shape``, in
    their fixed draw order; :func:`_add_noise` applies them.

    GP, PGP and CGP draw one Normal(0, sigma^2) per value, IDGP one standard
    normal per value. FDP draws the real parts of every kept bin of every row,
    then the imaginary parts, each Normal(0, sigma^2), and zeroes the
    imaginary part of the self-conjugate bins; it draws nothing when
    noise_level or sigma is 0.
    """
    if config.method != "FDP":
        scale = 1.0 if config.method == "IDGP" else config.sigma
        return (rng.normal(0.0, scale, size=shape),)
    if config.noise_level == 0.0 or config.sigma == 0.0:
        return ()
    if rng is None:
        raise ValueError("rng required when eta and sigma are nonzero")
    dim = shape[-1]
    kept = _kept_bins(dim, config.keep_ratio, config.fdp_mode)
    size = tuple(shape[:-1]) + (kept.stop - kept.start,)
    real = rng.normal(0.0, config.sigma, size=size)
    imag = rng.normal(0.0, config.sigma, size=size)
    if kept.start == 0 < kept.stop:
        imag[..., 0] = 0.0
    if 2 * (kept.stop - 1) == dim:
        imag[..., -1] = 0.0
    return real, imag


def _add_noise(g: np.ndarray, config: PerturbationConfig, std: np.ndarray | None,
               noise: tuple[np.ndarray, ...]) -> np.ndarray:
    """``g`` (float64) perturbed by ``config.method`` with the values
    :func:`_draw_noise` drew for its shape."""
    method = config.method
    if method == "GP":
        return g + noise[0]
    if method == "PGP":
        return g + noise[0] * g
    if method == "IDGP":
        if std is None:
            raise ValueError("IDGP requires the dataset std")
        if g.shape[-1] != std.shape[0]:
            raise ValueError(f"vector dim {g.shape[-1]} != std dim {std.shape[0]}")
        return g + noise[0] * (math.sqrt(config.alpha_var) * std)
    if method == "CGP":
        return g + np.clip(noise[0], -config.clip_c, config.clip_c)
    dim = g.shape[-1]
    kept = _kept_bins(dim, config.keep_ratio, config.fdp_mode)
    spectrum = np.fft.rfft(g, axis=-1)
    spectrum[..., :kept.start] = 0.0
    spectrum[..., kept.stop:] = 0.0
    if noise:
        real, imag = noise
        spectrum.real[..., kept] += real * config.noise_level
        spectrum.imag[..., kept] += imag * config.noise_level
    return np.fft.irfft(spectrum, n=dim, axis=-1)


def perturb(g, config: PerturbationConfig, std: np.ndarray | None,
            rng: np.random.Generator | None):
    """Apply the configured perturbation method to all rows of g. ``std``
    is :func:`dataset_std` of the training set, read by IDGP only."""
    g = np.asarray(g, dtype=np.float64)
    return _add_noise(g, config, std, _draw_noise(config, g.shape, rng))


def draw_mix(config: PerturbationConfig, shape,
             rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Every random value :func:`mix_rows` uses on a batch of ``shape``, in
    draw order: one Uniform(0, 1) per row, then :func:`_draw_noise` for the
    rows it chose. They depend on nothing but (config, shape, rng), so they
    can be drawn ahead of the batch."""
    p = rng.uniform(0.0, 1.0, size=shape[0])
    chosen = int(np.count_nonzero(p < config.alpha))
    if not chosen:
        return (p,)
    return (p, *_draw_noise(config, (chosen, shape[1]), rng))


def mix_rows(x: np.ndarray, config: PerturbationConfig,
             std: np.ndarray | None, rng) -> np.ndarray:
    """Per row, draw p ~ Uniform(0,1); rows with p < alpha are replaced by
    their perturbed version, the rest pass through bit-identically.

    ``rng`` is a generator, or the values :func:`draw_mix` drew from one for
    this batch's shape; both give the same output. Draw order is fixed: all p
    first, then the perturbation noise, so the output is fully determined by
    (x, config, rng).
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("mix_rows operates on a 2-D batch")
    if isinstance(rng, np.random.Generator):
        rng = draw_mix(config, x.shape, rng)
    p, noise = rng[0], rng[1:]
    chosen = p < config.alpha
    if not chosen.any():
        return x.copy()
    out = x.astype(np.float64, copy=True)
    out[chosen] = _add_noise(x[chosen].astype(np.float64, copy=False), config, std, noise)
    return out.astype(x.dtype, copy=False)
