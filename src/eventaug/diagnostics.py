"""Distribution diagnostics for implicit augmentation: before/after moment
reports, histograms with explicit under/overflow buckets, a 2-component
PCA by eigendecomposition, and CSV/SVG export that needs no plotting stack.

CSV schemas:
  histogram.csv            bin_lo,bin_hi,count_before,count_after
  pca.csv                  id,group,pc1,pc2
  moments.csv              group,mean,std,count
  explained_variance.csv   component,variance
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingMatrix, atomic_write

_CHUNK = 1 << 16  # values that histogram converts and bins at a time


def _array(matrix) -> np.ndarray:
    """The values as they are stored: no copy and no change of dtype."""
    if isinstance(matrix, EmbeddingMatrix):
        return matrix.values
    return np.asarray(matrix)


def _ids(matrix, n: int) -> list[str]:
    if isinstance(matrix, EmbeddingMatrix):
        return list(matrix.ids)
    return [str(i) for i in range(n)]


@dataclass(frozen=True)
class MomentReport:
    """Population mean/std of all values before and after perturbation."""

    before_mean: float
    before_std: float
    after_mean: float
    after_std: float
    count: int


def moments(before, after) -> MomentReport:
    """Pooled population mean and std of each side, reduced in float64. One
    side at a time is converted, so at most one float64 copy is alive."""
    b, a = _array(before), _array(after)
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: {b.shape} vs {a.shape}")
    reduced = []
    for side in (b, a):
        x = np.asarray(side, dtype=np.float64)
        reduced += [float(x.mean()), float(x.std())]
        del x  # freed before the next side is converted
    return MomentReport(*reduced, count=b.size)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # length bins + 1
    counts: np.ndarray  # length bins
    underflow: int
    overflow: int


def histogram(values, bins: int, value_range) -> Histogram:
    """Equal-width bins over the closed range [lo, hi].

    Bins are half-open [edge_i, edge_{i+1}) except the last, which is closed,
    so a value on an interior edge falls in the upper bin and hi itself is
    counted. Out-of-range values, -inf and +inf included, land in the
    underflow/overflow buckets; counts + underflow + overflow always equals
    len(values). NaN belongs to no bucket and is rejected. Values are
    converted to float64 and binned _CHUNK at a time, so the temporaries
    stay small whatever the input size.
    """
    v = np.asarray(values).ravel()
    if v.size == 0:
        raise ValueError("histogram needs at least one value")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid range ({lo}, {hi})")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")

    width = (hi - lo) / bins
    counts = np.zeros(bins, dtype=np.intp)
    underflow = overflow = 0
    for start in range(0, v.size, _CHUNK):
        chunk = np.asarray(v[start:start + _CHUNK], dtype=np.float64)
        below, above = int((chunk < lo).sum()), int((chunk > hi).sum())
        inside = chunk[(chunk >= lo) & (chunk <= hi)]
        if below + above + inside.size != chunk.size:
            raise ValueError("histogram values contain NaN")
        idx = np.floor((inside - lo) / width).astype(np.int64)
        np.clip(idx, 0, bins - 1, out=idx)  # hi (and rounding at hi) -> last bin
        counts += np.bincount(idx, minlength=bins)
        underflow += below
        overflow += above
    edges = lo + width * np.arange(bins + 1)
    return Histogram(edges=edges, counts=counts, underflow=underflow,
                     overflow=overflow)


def pca2(matrix):
    """Top-2 principal coordinates plus the pair of explained variances.

    Columns are centered; components are the top two eigenvectors of the
    population covariance (``np.linalg.eigh``), and explained variances
    below zero from rounding are clipped to zero. Sign convention: the
    largest-magnitude loading of each component is positive. Rank-0 input
    yields zero coordinates and zero explained variance. The input is left
    as it is: its one float64 copy is centred in place.
    """
    centered = np.array(_array(matrix), dtype=np.float64)
    if centered.ndim != 2 or centered.shape[0] < 2:
        raise ValueError("pca2 needs at least 2 rows")
    n = centered.shape[0]
    centered -= centered.mean(axis=0)
    cov = centered.T @ centered / n
    eigenvalues, eigenvectors = np.linalg.eigh(cov)  # ascending
    explained = np.maximum(eigenvalues[::-1][:2], 0.0)
    if explained[0] == 0.0:
        return np.zeros((n, 2)), np.zeros(2)
    components = eigenvectors[:, ::-1][:, :2]
    largest = np.abs(components).argmax(axis=0)
    components = components * np.sign(components[largest, [0, 1]])
    return centered @ components, explained


def render_histogram_svg(hist_before: Histogram, hist_after: Histogram,
                         width: int = 640, height: int = 400) -> str:
    """Self-contained SVG with the two histograms overlaid."""
    bins = len(hist_before.counts)
    peak = max(1, int(hist_before.counts.max()), int(hist_after.counts.max()))
    margin = 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    bar_w = plot_w / bins

    def bars(counts, color, opacity):
        parts = []
        for i, c in enumerate(counts):
            h = plot_h * int(c) / peak
            if h <= 0:
                continue
            x = margin + i * bar_w
            y = margin + plot_h - h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}" fill-opacity="{opacity}"/>')
        return "".join(parts)

    lo = hist_before.edges[0]
    hi = hist_before.edges[-1]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'{bars(hist_before.counts, "#4878cf", 0.65)}'
        f'{bars(hist_after.counts, "#e8a838", 0.65)}'
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" '
        f'y2="{margin + plot_h}" stroke="black"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{margin + plot_h}" stroke="black"/>'
        f'<text x="{margin}" y="{height - 8}" font-size="12">{lo:.4g}</text>'
        f'<text x="{margin + plot_w - 30}" y="{height - 8}" font-size="12">{hi:.4g}</text>'
        f'<text x="{margin}" y="{margin - 10}" font-size="12">'
        f'before (blue) vs after (orange), peak={peak}</text>'
        "</svg>"
    )


def render_scatter_svg(coords_before: np.ndarray, coords_after: np.ndarray,
                       width: int = 640, height: int = 480) -> str:
    """Self-contained SVG scatter of the two PCA point groups."""
    both = np.vstack([coords_before, coords_after])
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    margin = 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    def dots(coords, color):
        xs = margin + (coords[:, 0] - lo[0]) / span[0] * plot_w
        ys = margin + plot_h - (coords[:, 1] - lo[1]) / span[1] * plot_h
        return "".join(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                       f'fill="{color}" fill-opacity="0.6"/>'
                       for x, y in zip(xs.tolist(), ys.tolist()))

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'{dots(coords_before, "#4878cf")}'
        f'{dots(coords_after, "#e8a838")}'
        f'<text x="{margin}" y="{margin - 10}" font-size="12">'
        f'pc1/pc2, before (blue) vs after (orange)</text>'
        "</svg>"
    )


def export_plots(before, after, out_dir, bins: int = 100):
    """Write the four diagnostic CSVs and two SVG renderings for a
    before/after pair; returns (the created file paths, the
    MomentReport that moments.csv holds). Memory stays within about six
    times one side's float32 bytes beyond the inputs: pca2's float32 stack
    and its float64 copy."""
    b, a = _array(before), _array(after)
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: {b.shape} vs {a.shape}")
    os.makedirs(out_dir, exist_ok=True)

    # min and max are exact in the stored dtype: no pooled float64 copy
    lo = min(float(b.min()), float(a.min()))
    hi = max(float(b.max()), float(a.max()))
    if hi <= lo:
        hi = lo + 1.0
    hist_b = histogram(b, bins, (lo, hi))
    hist_a = histogram(a, bins, (lo, hi))

    n = b.shape[0]
    ids = _ids(before, n)
    stacked = np.vstack([b, a])  # float32 for EmbeddingMatrix inputs
    coords, explained = pca2(stacked)
    del stacked  # freed before moments makes its float64 copies
    coords_b, coords_a = coords[:n], coords[n:]

    report = moments(b, a)

    paths = []

    def emit(name: str, text: str):
        path = os.path.join(out_dir, name)
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)

    lines = ["bin_lo,bin_hi,count_before,count_after"]
    for i in range(bins):
        lines.append(f"{hist_b.edges[i]:.9g},{hist_b.edges[i + 1]:.9g},"
                     f"{hist_b.counts[i]},{hist_a.counts[i]}")
    emit("histogram.csv", "\n".join(lines) + "\n")

    lines = ["id,group,pc1,pc2"]
    for group, cs in (("before", coords_b), ("after", coords_a)):
        lines += [f"{row_id},{group},{p1:.9g},{p2:.9g}"
                  for row_id, (p1, p2) in zip(ids, cs.tolist())]
    emit("pca.csv", "\n".join(lines) + "\n")

    emit("moments.csv",
         "group,mean,std,count\n"
         f"before,{report.before_mean:.9g},{report.before_std:.9g},{report.count}\n"
         f"after,{report.after_mean:.9g},{report.after_std:.9g},{report.count}\n")

    emit("explained_variance.csv",
         "component,variance\n"
         f"1,{explained[0]:.9g}\n2,{explained[1]:.9g}\n")

    emit("histogram.svg", render_histogram_svg(hist_b, hist_a))
    emit("pca.svg", render_scatter_svg(coords_b, coords_a))
    return paths, report
