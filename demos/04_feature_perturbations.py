"""The five feature-space perturbations and the probabilistic mixer.

GP adds fixed-scale noise, PGP scales noise with the feature values, IDGP
adapts it to the per-dimension spread of the dataset, CGP clamps the noise,
and FDP filters and noises the frequency spectrum of each embedding.
"""
import numpy as np

from eventaug import (PerturbationConfig, dataset_std, frequency_mask,
                      mix_rows, perturb)

rng = np.random.default_rng(11)
data = rng.normal(size=(5000, 64)) * rng.uniform(0.2, 2.0, size=64)
std = dataset_std(data)
row = data[0]

print(f"dataset: {data.shape}, per-dim std range "
      f"[{std.min():.2f}, {std.max():.2f}]")

# one PerturbationConfig per method; perturb applies it to every row given
cgp = PerturbationConfig("CGP", sigma=0.1, clip_c=0.05)
methods = (PerturbationConfig("GP", sigma=0.1), PerturbationConfig("PGP", sigma=0.1),
           PerturbationConfig("IDGP", alpha_var=0.01), cgp,
           PerturbationConfig("FDP", sigma=0.1, keep_ratio=0.98, noise_level=0.02,
                              fdp_mode="high"))
for seed, config in enumerate(methods, start=1):
    delta = perturb(row, config, std, np.random.default_rng(seed)) - row
    print(f"  {config.method:4s} max|delta|={np.abs(delta).max():.4f} "
          f"rms={np.sqrt((delta ** 2).mean()):.4f}")

print("\nCGP deltas never exceed the clip bound:",
      np.abs(perturb(np.zeros(100_000), cgp, None, np.random.default_rng(6))).max())

mask = frequency_mask(16, 0.5, "low")
print("FDP low-pass mask for dim 16, r=0.5:", np.flatnonzero(mask).tolist())

# the mixer replaces each row with its perturbed version with probability
# alpha and leaves it untouched otherwise
config = PerturbationConfig(method="GP", alpha=0.3, sigma=0.1)
mixed = mix_rows(data, config, std, np.random.default_rng(7))
touched = (mixed != data).any(axis=1).mean()
print(f"\nmixer with alpha=0.3 perturbed {touched:.1%} of rows")
