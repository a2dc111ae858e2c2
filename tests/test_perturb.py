import numpy as np
import pytest

from eventaug.perturb import (METHODS, DatasetStats, PerturbationConfig, cgp,
                              dataset_std, draw_mix, fdp, frequency_mask, gp,
                              idgp, mix_rows, pgp)

from test_acceptance import oracle_mask


def naive_dft(g):
    """O(D^2) direct DFT sum, independent of numpy's FFT."""
    d = len(g)
    n = np.arange(d)
    out = np.zeros(d, dtype=np.complex128)
    for k in range(d):
        out[k] = np.sum(g * np.exp(-2j * np.pi * k * n / d))
    return out


def full_spectrum_fdp(g, keep_ratio, eta, mode, sigma, rng):
    """FDP on the two-sided spectrum: fft, mask, the same draws as fdp
    mirrored bin by bin onto the conjugate bins, then ifft(...).real."""
    dim = g.shape[-1]
    mask = oracle_mask(dim, keep_ratio, mode)
    spectrum = np.where(mask, np.fft.fft(g, axis=-1), 0.0)
    canonical = [j for j in range(dim // 2 + 1) if mask[j]]
    shape = g.shape[:-1] + (len(canonical),)
    real = rng.normal(0.0, sigma, size=shape)
    imag = rng.normal(0.0, sigma, size=shape)
    for pos, j in enumerate(canonical):
        if j == 0 or 2 * j == dim:
            spectrum[..., j] += real[..., pos] * eta
        else:
            n = (real[..., pos] + 1j * imag[..., pos]) * eta
            spectrum[..., j] += n
            spectrum[..., dim - j] += np.conj(n)
    return np.fft.ifft(spectrum, axis=-1).real


def naive_idft(spectrum):
    d = len(spectrum)
    k = np.arange(d)
    out = np.zeros(d, dtype=np.complex128)
    for n in range(d):
        out[n] = np.sum(spectrum * np.exp(2j * np.pi * k * n / d)) / d
    return out


class TestDatasetStd:
    def test_identical_rows_zero(self):
        stats = dataset_std(np.ones((5, 3)))
        assert np.array_equal(stats.std, np.zeros(3))

    def test_single_row_zero(self):
        stats = dataset_std(np.array([[1.0, -2.0]]))
        assert np.array_equal(stats.std, np.zeros(2))
        assert stats.count == 1

    def test_population_formula(self):
        # two rows 0 and 2: population std = sqrt(((0-1)^2+(2-1)^2)/2) = 1
        stats = dataset_std(np.array([[0.0], [2.0]]))
        assert stats.std[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_std(np.zeros((0, 3)))


class TestGaussian:
    def test_sigma_zero_identity(self):
        g = np.linspace(-1, 1, 16)
        out = gp(g, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_moments_match_sigma(self):
        rng = np.random.default_rng(101)
        g = np.full((100_000, 4), 0.37)
        delta = gp(g, 0.1, rng) - g
        assert abs(delta.mean()) < 0.002
        assert 0.098 < delta.std() < 0.102

    def test_per_dimension_moments_over_dataset(self):
        # means barely move (< 4 sigma / sqrt(n)) and variances grow toward
        # var + sigma^2 within 5% at n = 10^5
        n, sigma = 100_000, 0.3
        rng = np.random.default_rng(102)
        x = rng.normal(size=(n, 4)) * np.array([0.5, 1.0, 2.0, 0.1])
        noised = gp(x, sigma, np.random.default_rng(103))
        mean_shift = np.abs(noised.mean(axis=0) - x.mean(axis=0))
        assert (mean_shift < 4 * sigma / np.sqrt(n)).all()
        expected_var = x.var(axis=0) + sigma ** 2
        assert (np.abs(noised.var(axis=0) - expected_var) / expected_var < 0.05).all()


class TestProportionalGaussian:
    def test_zero_vector_fixed_point(self):
        g = np.zeros(32)
        out = pgp(g, 5.0, np.random.default_rng(1))
        assert np.array_equal(out, g)

    def test_noise_scales_with_value(self):
        rng = np.random.default_rng(7)
        g = np.full((100_000, 1), 2.0)
        delta = pgp(g, 0.1, rng) - g
        assert 0.196 < delta.std() < 0.204

    def test_sigma_zero_identity(self):
        g = np.arange(8.0)
        assert np.array_equal(pgp(g, 0.0, np.random.default_rng(2)), g)


class TestInDistributionGaussian:
    def test_zero_variance_dim_unchanged(self):
        stats = DatasetStats(std=np.array([0.0, 1.0]), count=10)
        rng = np.random.default_rng(3)
        g = np.tile([5.0, 5.0], (1000, 1))
        out = idgp(g, stats, 0.5, rng)
        assert np.array_equal(out[:, 0], g[:, 0])
        assert not np.array_equal(out[:, 1], g[:, 1])

    def test_alpha_var_zero_identity(self):
        stats = DatasetStats(std=np.array([1.0, 2.0]), count=10)
        g = np.ones((4, 2))
        out = idgp(g, stats, 0.0, np.random.default_rng(4))
        assert np.array_equal(out, g)

    def test_noise_std_tracks_dataset_std(self):
        # sqrt(0.04) * 0.5 = 0.1
        stats = DatasetStats(std=np.array([0.5]), count=10)
        rng = np.random.default_rng(5)
        g = np.zeros((100_000, 1))
        delta = idgp(g, stats, 0.04, rng) - g
        assert abs(delta.std() - 0.1) / 0.1 < 0.02

    def test_dim_mismatch_rejected(self):
        stats = DatasetStats(std=np.ones(3), count=5)
        with pytest.raises(ValueError):
            idgp(np.zeros(4), stats, 0.1, np.random.default_rng(0))


class TestClippedGaussian:
    def test_clip_zero_identity(self):
        g = np.linspace(0, 1, 12)
        assert np.array_equal(cgp(g, 1.0, 0.0, np.random.default_rng(6)), g)

    def test_deltas_bounded(self):
        rng = np.random.default_rng(8)
        g = np.zeros(1_000_000)
        delta = cgp(g, 0.01, 0.005, rng) - g
        assert np.abs(delta).max() <= 0.005

    def test_clipping_actually_bites(self):
        rng = np.random.default_rng(9)
        delta = cgp(np.zeros(10_000), 1.0, 0.1, rng)
        assert (np.abs(delta) == 0.1).any()


class TestFrequencyMask:
    # conjugate classes for D=8 by |k|: {0}, {1,7}, {2,6}, {3,5}, {4}
    @pytest.mark.parametrize("mode,ratio,expected", [
        ("low", 0.5, [0, 1, 2, 6, 7]),
        ("high", 0.5, [2, 3, 4, 5, 6]),
        ("band", 0.5, [1, 2, 3, 5, 6, 7]),
        ("low", 0.25, [0, 1, 7]),
        ("high", 0.25, [3, 4, 5]),
        ("band", 0.25, [2, 6]),
        ("low", 0.98, [0, 1, 2, 3, 5, 6, 7]),
        ("high", 0.98, [1, 2, 3, 4, 5, 6, 7]),
        ("band", 0.98, [1, 2, 3, 4, 5, 6, 7]),
    ])
    def test_hand_computed_masks_d8(self, mode, ratio, expected):
        mask = frequency_mask(8, ratio, mode)
        assert sorted(np.flatnonzero(mask).tolist()) == expected

    def test_keep_ratio_one_keeps_all(self):
        for mode in ("low", "high", "band"):
            for dim in (2, 7, 8, 33):
                assert frequency_mask(dim, 1.0, mode).all()

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            dim = int(rng.integers(2, 40))
            ratio = float(rng.uniform(0.05, 1.0))
            mode = ("low", "high", "band")[int(rng.integers(3))]
            mask = frequency_mask(dim, ratio, mode)
            for j in range(dim):
                assert mask[j] == mask[(dim - j) % dim]

    def test_matches_class_list_oracle(self):
        ratios = (0.01, 0.1, 0.25, 1 / 3, 0.5, 0.51, 0.75, 0.9, 0.98, 1.0)
        for dim in range(2, 201):
            for ratio in ratios:
                for mode in ("low", "high", "band"):
                    assert np.array_equal(frequency_mask(dim, ratio, mode),
                                          oracle_mask(dim, ratio, mode)), \
                        (dim, ratio, mode)

    def test_covers_at_least_target(self):
        for dim in (8, 16, 33, 100):
            for ratio in (0.25, 0.5, 0.75, 0.98):
                for mode in ("low", "high", "band"):
                    assert frequency_mask(dim, ratio, mode).sum() >= \
                        int(np.floor(ratio * dim + 1e-9))


class TestFrequencyDomain:
    def test_full_keep_no_noise_is_identity(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=64)
        for mode in ("low", "high", "band"):
            out = fdp(g, 1.0, 0.0, mode, 0.1)
            assert np.abs(out - g).max() <= 1e-6 * np.abs(g).max()

    def test_matches_naive_oracle_low_pass(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=16)
        out = fdp(g, 0.5, 0.0, "low", 0.1)
        mask = frequency_mask(16, 0.5, "low")
        expected = naive_idft(np.where(mask, naive_dft(g), 0.0)).real
        assert np.abs(out - expected).max() < 1e-6

    def test_noise_lands_only_on_kept_bins(self):
        rng = np.random.default_rng(14)
        g = np.random.default_rng(1).normal(size=32)
        spectrum = np.fft.rfft(fdp(g, 0.25, 0.5, "high", 1.0, rng))
        keep = frequency_mask(32, 0.25, "high")[:17]
        assert np.abs(spectrum[~keep]).max() < 1e-12 * np.linalg.norm(g)
        assert np.abs(spectrum[keep]).min() > 0.0

    @pytest.mark.parametrize("mode", ["low", "high", "band"])
    @pytest.mark.parametrize("shape", [(32,), (33,), (6, 40), (6, 41)])
    def test_noisy_matches_full_spectrum_reference(self, shape, mode):
        g = np.random.default_rng(15).normal(size=shape)
        for ratio in (0.1, 0.5, 0.98, 1.0):
            ours = fdp(g, ratio, 0.3, mode, 0.5, np.random.default_rng(16))
            expected = full_spectrum_fdp(g, ratio, 0.3, mode, 0.5,
                                         np.random.default_rng(16))
            assert ours.shape == g.shape
            assert np.abs(ours - expected).max() <= \
                1e-12 * np.abs(expected).max(), ratio

    def test_deterministic_given_rng(self):
        g = np.random.default_rng(2).normal(size=48)
        a = fdp(g, 0.5, 0.2, "band", 0.3, np.random.default_rng(99))
        b = fdp(g, 0.5, 0.2, "band", 0.3, np.random.default_rng(99))
        assert np.abs(a - b).max() < 1e-12

    def test_preserves_length_on_batches(self):
        g = np.random.default_rng(3).normal(size=(5, 20))
        out = fdp(g, 0.5, 0.1, "low", 0.2, np.random.default_rng(4))
        assert out.shape == g.shape

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fdp(np.ones(1), 0.5, 0.0, "low", 0.1)


class TestMixer:
    def test_alpha_zero_is_bitwise_identity(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(100, 8)).astype(np.float32)
        config = PerturbationConfig(method="GP", alpha=0.0, sigma=0.5)
        out = mix_rows(x, config, None, np.random.default_rng(16))
        assert out.tobytes() == x.tobytes()

    def test_alpha_one_perturbs_every_row(self):
        x = np.zeros((200, 4))
        config = PerturbationConfig(method="GP", alpha=1.0, sigma=0.5)
        out = mix_rows(x, config, None, np.random.default_rng(17))
        assert (out != x).any(axis=1).all()

    def test_mix_fraction_tracks_alpha(self):
        x = np.zeros((10_000, 3))
        config = PerturbationConfig(method="GP", alpha=0.6, sigma=1.0)
        out = mix_rows(x, config, None, np.random.default_rng(18))
        fraction = (out != 0).any(axis=1).mean()
        assert abs(fraction - 0.6) < 0.02

    def test_idgp_requires_stats(self):
        config = PerturbationConfig(method="IDGP", alpha=1.0)
        with pytest.raises(ValueError):
            mix_rows(np.ones((4, 2)), config, None, np.random.default_rng(0))

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(size=(50, 6))
        config = PerturbationConfig(method="CGP", alpha=0.5, sigma=0.2,
                                    clip_c=0.1)
        a = mix_rows(x, config, None, np.random.default_rng(20))
        b = mix_rows(x, config, None, np.random.default_rng(20))
        assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("method", METHODS)
    def test_predrawn_values_give_the_same_rows(self, method):
        x = np.random.default_rng(21).normal(size=(40, 12)).astype(np.float32)
        stats = dataset_std(x)
        config = PerturbationConfig(method=method, alpha=0.5, sigma=0.2,
                                    clip_c=0.1, keep_ratio=0.75)
        drawn = draw_mix(config, x.shape, np.random.default_rng(22))
        assert drawn[0].shape == (40,) and len(drawn) == (3 if method == "FDP" else 2)
        a = mix_rows(x, config, stats, drawn)
        b = mix_rows(x, config, stats, np.random.default_rng(22))
        assert a.dtype == x.dtype and a.tobytes() == b.tobytes()


class TestPerturbationConfig:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PerturbationConfig(alpha=1.5)

    def test_rejects_bad_keep_ratio(self):
        with pytest.raises(ValueError):
            PerturbationConfig(keep_ratio=0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            PerturbationConfig(method="WAVELET")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PerturbationConfig(fdp_mode="ultra")

    def test_zero_noise_values_allowed(self):
        # zero sigma / clip / alpha_var are the documented identity cases
        PerturbationConfig(sigma=0.0, clip_c=0.0, alpha_var=0.0,
                           noise_level=0.0)


class TestZeroNoiseIdentities:
    def test_all_methods(self):
        g = np.random.default_rng(6).normal(size=(7, 24))
        rng = np.random.default_rng(7)
        stats = DatasetStats(std=np.ones(24), count=7)
        assert np.array_equal(gp(g, 0.0, rng), g)
        assert np.array_equal(pgp(g, 0.0, rng), g)
        assert np.array_equal(idgp(g, stats, 0.0, rng), g)
        assert np.array_equal(cgp(g, 1.0, 0.0, rng), g)
        out = fdp(g, 1.0, 0.0, "high", 0.1)
        assert np.abs(out - g).max() <= 1e-6 * np.abs(g).max()
