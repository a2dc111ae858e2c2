"""Distribution diagnostics: how a perturbation moves the embedding
distribution, with CSV/SVG export (no plotting stack needed)."""
import tempfile
from pathlib import Path

import numpy as np

from eventaug import PerturbationConfig, histogram, moments, pca2, perturb
from eventaug.diagnostics import export_plots

rng = np.random.default_rng(31)
before = rng.normal(size=(4000, 48)) * 0.33 - 0.01
gp = PerturbationConfig(method="GP", sigma=0.2 * before.std())
after = perturb(before, gp, None, np.random.default_rng(32))

report = moments(before, after)
print(f"pooled mean: {report.before_mean:+.4f} -> {report.after_mean:+.4f}")
print(f"pooled std:  {report.before_std:.4f} -> {report.after_std:.4f}")
print("(adding independent noise preserves the mean and grows the variance "
      "by sigma^2)")

h = histogram(before, bins=10, value_range=(-1.0, 1.0))
print("\nhistogram counts over [-1, 1]:", h.counts.tolist(),
      f"(underflow={h.underflow}, overflow={h.overflow})")

coords, explained = pca2(np.vstack([before[:500], after[:500]]))
print(f"\ntop-2 explained variances: {explained[0]:.4f}, {explained[1]:.4f}")

with tempfile.TemporaryDirectory(prefix="eventaug-diag-") as tmp:
    out_dir = Path(tmp)
    paths, report = export_plots(before[:800], after[:800], out_dir)
    print(f"\nwrote {len(paths)} files to {out_dir}:")
    for p in paths:
        print("  ", Path(p).name)
    print(f"pooled std: before {report.before_std:.4f}, after {report.after_std:.4f}")
