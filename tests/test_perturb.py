import hashlib

import numpy as np
import pytest

from eventaug.perturb import (METHODS, PerturbationConfig, dataset_std, draw_mix,
                              frequency_mask, mix_rows, perturb)

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
    """FDP on the two-sided spectrum: fft, mask, the same draws as perturb
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


def fdp_config(keep_ratio, eta, mode, sigma):
    return PerturbationConfig("FDP", sigma=sigma, keep_ratio=keep_ratio,
                              noise_level=eta, fdp_mode=mode)


class TestDatasetStd:
    def test_identical_rows_zero(self):
        assert np.array_equal(dataset_std(np.ones((5, 3))), np.zeros(3))

    def test_single_row_zero(self):
        std = dataset_std(np.array([[1.0, -2.0]]))
        assert std.dtype == np.float64 and np.array_equal(std, np.zeros(2))

    def test_population_formula(self):
        # two rows 0 and 2: population std = sqrt(((0-1)^2+(2-1)^2)/2) = 1
        assert dataset_std(np.array([[0.0], [2.0]]))[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_std(np.zeros((0, 3)))


class TestGaussian:
    def test_sigma_zero_identity(self):
        g = np.linspace(-1, 1, 16)
        out = perturb(g, PerturbationConfig("GP", sigma=0.0), None, np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_moments_match_sigma(self):
        rng = np.random.default_rng(101)
        g = np.full((100_000, 4), 0.37)
        delta = perturb(g, PerturbationConfig("GP", sigma=0.1), None, rng) - g
        assert abs(delta.mean()) < 0.002
        assert 0.098 < delta.std() < 0.102

    def test_per_dimension_moments_over_dataset(self):
        # means barely move (< 4 sigma / sqrt(n)) and variances grow toward
        # var + sigma^2 within 5% at n = 10^5
        n, sigma = 100_000, 0.3
        rng = np.random.default_rng(102)
        x = rng.normal(size=(n, 4)) * np.array([0.5, 1.0, 2.0, 0.1])
        noised = perturb(x, PerturbationConfig("GP", sigma=sigma), None,
                         np.random.default_rng(103))
        mean_shift = np.abs(noised.mean(axis=0) - x.mean(axis=0))
        assert (mean_shift < 4 * sigma / np.sqrt(n)).all()
        expected_var = x.var(axis=0) + sigma ** 2
        assert (np.abs(noised.var(axis=0) - expected_var) / expected_var < 0.05).all()


class TestProportionalGaussian:
    def test_zero_vector_fixed_point(self):
        g = np.zeros(32)
        out = perturb(g, PerturbationConfig("PGP", sigma=5.0), None, np.random.default_rng(1))
        assert np.array_equal(out, g)

    def test_noise_scales_with_value(self):
        rng = np.random.default_rng(7)
        g = np.full((100_000, 1), 2.0)
        delta = perturb(g, PerturbationConfig("PGP", sigma=0.1), None, rng) - g
        assert 0.196 < delta.std() < 0.204

    def test_sigma_zero_identity(self):
        g = np.arange(8.0)
        out = perturb(g, PerturbationConfig("PGP", sigma=0.0), None, np.random.default_rng(2))
        assert np.array_equal(out, g)


class TestInDistributionGaussian:
    def test_zero_variance_dim_unchanged(self):
        rng = np.random.default_rng(3)
        g = np.tile([5.0, 5.0], (1000, 1))
        out = perturb(g, PerturbationConfig("IDGP", alpha_var=0.5), np.array([0.0, 1.0]), rng)
        assert np.array_equal(out[:, 0], g[:, 0])
        assert not np.array_equal(out[:, 1], g[:, 1])

    def test_alpha_var_zero_identity(self):
        g = np.ones((4, 2))
        out = perturb(g, PerturbationConfig("IDGP", alpha_var=0.0), np.array([1.0, 2.0]),
                      np.random.default_rng(4))
        assert np.array_equal(out, g)

    def test_noise_std_tracks_dataset_std(self):
        # sqrt(0.04) * 0.5 = 0.1
        rng = np.random.default_rng(5)
        g = np.zeros((100_000, 1))
        delta = perturb(g, PerturbationConfig("IDGP", alpha_var=0.04), np.array([0.5]), rng) - g
        assert abs(delta.std() - 0.1) / 0.1 < 0.02

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(4), PerturbationConfig("IDGP", alpha_var=0.1), np.ones(3),
                    np.random.default_rng(0))


class TestClippedGaussian:
    def test_clip_zero_identity(self):
        g = np.linspace(0, 1, 12)
        out = perturb(g, PerturbationConfig("CGP", sigma=1.0, clip_c=0.0), None,
                      np.random.default_rng(6))
        assert np.array_equal(out, g)

    def test_deltas_bounded(self):
        rng = np.random.default_rng(8)
        g = np.zeros(1_000_000)
        delta = perturb(g, PerturbationConfig("CGP", sigma=0.01, clip_c=0.005), None, rng) - g
        assert np.abs(delta).max() <= 0.005

    def test_clipping_actually_bites(self):
        rng = np.random.default_rng(9)
        delta = perturb(np.zeros(10_000), PerturbationConfig("CGP", sigma=1.0, clip_c=0.1),
                        None, rng)
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
            out = perturb(g, fdp_config(1.0, 0.0, mode, 0.1), None, None)
            assert np.abs(out - g).max() <= 1e-6 * np.abs(g).max()

    def test_matches_naive_oracle_low_pass(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=16)
        out = perturb(g, fdp_config(0.5, 0.0, "low", 0.1), None, None)
        mask = frequency_mask(16, 0.5, "low")
        expected = naive_idft(np.where(mask, naive_dft(g), 0.0)).real
        assert np.abs(out - expected).max() < 1e-6

    def test_noise_lands_only_on_kept_bins(self):
        rng = np.random.default_rng(14)
        g = np.random.default_rng(1).normal(size=32)
        spectrum = np.fft.rfft(perturb(g, fdp_config(0.25, 0.5, "high", 1.0), None, rng))
        keep = frequency_mask(32, 0.25, "high")[:17]
        assert np.abs(spectrum[~keep]).max() < 1e-12 * np.linalg.norm(g)
        assert np.abs(spectrum[keep]).min() > 0.0

    @pytest.mark.parametrize("mode", ["low", "high", "band"])
    @pytest.mark.parametrize("shape", [(32,), (33,), (6, 40), (6, 41)])
    def test_noisy_matches_full_spectrum_reference(self, shape, mode):
        g = np.random.default_rng(15).normal(size=shape)
        for ratio in (0.1, 0.5, 0.98, 1.0):
            ours = perturb(g, fdp_config(ratio, 0.3, mode, 0.5), None, np.random.default_rng(16))
            expected = full_spectrum_fdp(g, ratio, 0.3, mode, 0.5,
                                         np.random.default_rng(16))
            assert ours.shape == g.shape
            assert np.abs(ours - expected).max() <= \
                1e-12 * np.abs(expected).max(), ratio

    def test_deterministic_given_rng(self):
        g = np.random.default_rng(2).normal(size=48)
        a = perturb(g, fdp_config(0.5, 0.2, "band", 0.3), None, np.random.default_rng(99))
        b = perturb(g, fdp_config(0.5, 0.2, "band", 0.3), None, np.random.default_rng(99))
        assert np.abs(a - b).max() < 1e-12

    def test_preserves_length_on_batches(self):
        g = np.random.default_rng(3).normal(size=(5, 20))
        out = perturb(g, fdp_config(0.5, 0.1, "low", 0.2), None, np.random.default_rng(4))
        assert out.shape == g.shape

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.ones(1), fdp_config(0.5, 0.0, "low", 0.1), None, None)


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
        std = dataset_std(x)
        config = PerturbationConfig(method=method, alpha=0.5, sigma=0.2,
                                    clip_c=0.1, keep_ratio=0.75)
        drawn = draw_mix(config, x.shape, np.random.default_rng(22))
        assert drawn[0].shape == (40,) and len(drawn) == (3 if method == "FDP" else 2)
        a = mix_rows(x, config, std, drawn)
        b = mix_rows(x, config, std, np.random.default_rng(22))
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
        for config, std in ((PerturbationConfig("GP", sigma=0.0), None),
                            (PerturbationConfig("PGP", sigma=0.0), None),
                            (PerturbationConfig("IDGP", alpha_var=0.0), np.ones(24)),
                            (PerturbationConfig("CGP", sigma=1.0, clip_c=0.0), None)):
            assert np.array_equal(perturb(g, config, std, rng), g)
        out = perturb(g, fdp_config(1.0, 0.0, "high", 0.1), None, None)
        assert np.abs(out - g).max() <= 1e-6 * np.abs(g).max()


# sha256 of perturb's float64 output bytes for (6, 20) rows drawn from
# default_rng(2024); the IDGP std is the rows' own population std.
PINNED = {
    "GP": (PerturbationConfig("GP", sigma=0.1), 1,
           "bb77e474d08ebe65f0b46d40269517dfac1c9d37a97535376c4d80edf8aa49c6"),
    "PGP": (PerturbationConfig("PGP", sigma=0.1), 2,
            "d0bc3119c7e3aedf0d9e719f0254280445c759ec4f5e0a907ad9b73c7c6c826c"),
    "IDGP": (PerturbationConfig("IDGP", alpha_var=0.04), 3,
             "7cd629f18c9f6482e6a6190d8d302814b519933a179c7017c0bc9e6ec0d023cc"),
    "CGP": (PerturbationConfig("CGP", sigma=0.1, clip_c=0.05), 4,
            "08af6abebb39a1ad1ba5257ba038536467f70fd8321142cb533d1a7bd98fe736"),
    "FDP": (fdp_config(0.7, 0.3, "band", 0.5), 5,
            "10cc8c54891fa6106e4223849c21553068eeee78561a46f8d860f4b1eb8ebde1"),
}


@pytest.mark.parametrize("method", METHODS)
def test_perturb_output_bytes_are_pinned(method):
    config, seed, expected = PINNED[method]
    g = np.random.default_rng(2024).normal(size=(6, 20))
    out = perturb(g, config, g.std(axis=0), np.random.default_rng(seed))
    assert out.dtype == np.float64 and out.shape == g.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == expected
