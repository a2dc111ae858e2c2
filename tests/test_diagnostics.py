import os
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eventaug.core import EmbeddingMatrix
from eventaug.diagnostics import (Histogram, export_plots, histogram, moments, pca2,
                                  render_histogram_svg, render_scatter_svg)
from eventaug.perturb import PerturbationConfig, dataset_std, perturb


def reference_histogram(values, bins, lo, hi):
    """The unchunked rule: one float64 copy, a masked inside copy, floor and
    clip to the last bin."""
    v = np.asarray(values, dtype=np.float64).ravel()
    inside = v[(v >= lo) & (v <= hi)]
    width = (hi - lo) / bins
    idx = np.clip(np.floor((inside - lo) / width).astype(np.int64), 0, bins - 1)
    return Histogram(edges=lo + width * np.arange(bins + 1),
                     counts=np.bincount(idx, minlength=bins),
                     underflow=int((v < lo).sum()), overflow=int((v > hi).sum()))


def reference_files(before, after, bins=100):
    """(file name -> text, pooled moments) of export_plots, computed on
    float64 copies of both sides: a pooled concatenation for the range, the
    unchunked histogram, and PCA of ``x - x.mean(axis=0)`` on the float64
    stack."""
    b = before.values.astype(np.float64)
    a = after.values.astype(np.float64)
    pooled = np.concatenate([b.ravel(), a.ravel()])
    lo, hi = float(pooled.min()), float(pooled.max())
    hist_b = reference_histogram(b, bins, lo, hi)
    hist_a = reference_histogram(a, bins, lo, hi)
    x = np.vstack([b, a])
    centered = x - x.mean(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered / x.shape[0])
    explained = np.maximum(eigenvalues[::-1][:2], 0.0)
    components = eigenvectors[:, ::-1][:, :2]
    largest = np.abs(components).argmax(axis=0)
    coords = centered @ (components * np.sign(components[largest, [0, 1]]))
    n = b.shape[0]
    hist_rows = [f"{hist_b.edges[i]:.9g},{hist_b.edges[i + 1]:.9g},"
                 f"{hist_b.counts[i]},{hist_a.counts[i]}" for i in range(bins)]
    pca_rows = [f"{row_id},{group},{p1:.9g},{p2:.9g}"
                for group, cs in (("before", coords[:n]), ("after", coords[n:]))
                for row_id, (p1, p2) in zip(before.ids, cs)]
    stats = (float(b.mean()), float(b.std()), float(a.mean()), float(a.std()))
    return {
        "histogram.csv": "\n".join(["bin_lo,bin_hi,count_before,count_after"]
                                   + hist_rows) + "\n",
        "pca.csv": "\n".join(["id,group,pc1,pc2"] + pca_rows) + "\n",
        "moments.csv": "group,mean,std,count\n"
                       f"before,{stats[0]:.9g},{stats[1]:.9g},{b.size}\n"
                       f"after,{stats[2]:.9g},{stats[3]:.9g},{b.size}\n",
        "explained_variance.csv": "component,variance\n"
                                  f"1,{explained[0]:.9g}\n2,{explained[1]:.9g}\n",
        "histogram.svg": render_histogram_svg(hist_b, hist_a),
        "pca.svg": render_scatter_svg(coords[:n], coords[n:]),
    }, stats


class TestMoments:
    def test_identical_inputs(self):
        x = np.random.default_rng(41).normal(size=(50, 4))
        report = moments(x, x)
        assert report.before_mean == report.after_mean
        assert report.before_std == report.after_std

    def test_constant_shift_moves_mean_only(self):
        x = np.random.default_rng(42).normal(size=(200, 3))
        report = moments(x, x + 0.5)
        assert report.after_mean - report.before_mean == pytest.approx(0.5, abs=1e-12)
        assert report.after_std == pytest.approx(report.before_std, abs=1e-12)

    def test_variance_additivity_matches_observed_shift(self):
        # data scaled to pooled std 0.3284 and mean -0.0111; adding sigma=0.02
        # noise should land the pooled std near sqrt(0.3284^2 + 0.02^2)
        rng = np.random.default_rng(43)
        x = rng.normal(size=(4000, 64))
        x = (x - x.mean()) / x.std() * 0.3284 - 0.0111
        noised = perturb(x, PerturbationConfig("GP", sigma=0.02), None,
                         np.random.default_rng(44))
        report = moments(x, noised)
        predicted = np.sqrt(0.3284 ** 2 + 0.02 ** 2)  # = 0.32901...
        assert abs(report.after_std - predicted) / predicted < 0.01
        assert report.after_mean == pytest.approx(-0.0111, abs=5e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            moments(np.zeros((2, 2)), np.zeros((3, 2)))


class TestHistogram:
    def test_midpoint_falls_in_upper_bin(self):
        h = histogram([0.5], 2, (0.0, 1.0))
        assert h.counts.tolist() == [0, 1]

    def test_uniform_grid_fills_evenly(self):
        grid = (np.arange(100) + 0.5) / 100.0
        h = histogram(grid, 10, (0.0, 1.0))
        assert h.counts.tolist() == [10] * 10

    def test_range_max_counted_in_last_bin(self):
        h = histogram([1.0], 4, (0.0, 1.0))
        assert h.counts.tolist() == [0, 0, 0, 1]
        assert h.overflow == 0

    def test_conservation(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            values = rng.normal(size=int(rng.integers(1, 500)))
            h = histogram(values, int(rng.integers(1, 20)), (-1.0, 1.0))
            assert h.counts.sum() + h.underflow + h.overflow == values.size

    def test_out_of_range_buckets(self):
        h = histogram([-5.0, 0.5, 99.0], 2, (0.0, 1.0))
        assert h.underflow == 1 and h.overflow == 1
        assert h.counts.sum() == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([], 4, (0.0, 1.0))

    def test_nan_rejected(self):
        # a NaN falls in no bucket, so the counts could not add up
        with pytest.raises(ValueError, match="NaN"):
            histogram([0.1, np.nan, 0.9], 2, (0.0, 1.0))

    def test_infinities_land_in_under_and_overflow(self):
        h = histogram([-np.inf, 0.25, np.inf], 2, (0.0, 1.0))
        assert (h.underflow, h.counts.tolist(), h.overflow) == (1, [1, 0], 1)

    def test_chunked_counts_match_the_unchunked_rule(self):
        rng = np.random.default_rng(57)
        bins, lo, hi = 7, -1.5, 2.0
        edges = lo + (hi - lo) / bins * np.arange(bins + 1)
        values = np.concatenate([rng.uniform(-2.0, 2.5, size=150_000),
                                 np.repeat(edges, 5_000),  # interior edges, lo and hi
                                 np.float32(rng.normal(size=20_000))])
        rng.shuffle(values)
        assert values.size > 2 * 65_536
        h = histogram(values, bins, (lo, hi))
        want = reference_histogram(values, bins, lo, hi)
        assert h.counts.tolist() == want.counts.tolist()
        assert (h.underflow, h.overflow) == (want.underflow, want.overflow)
        assert np.array_equal(h.edges, want.edges)
        assert h.counts.sum() + h.underflow + h.overflow == values.size


class TestPca2:
    def test_collinear_points_have_one_component(self):
        rng = np.random.default_rng(47)
        direction = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
        t = rng.normal(size=60)
        x = np.outer(t, direction)
        coords, explained = pca2(x)
        assert explained[1] <= 1e-9
        assert np.abs(coords[:, 1]).max() <= 1e-6

    def test_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=(50, 8)) @ np.diag([5, 3, 2, 1, 1, 0.5, 0.2, 0.1])
        _, explained = pca2(x)
        cov = np.cov(x, rowvar=False, ddof=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.abs(explained - eigenvalues[:2]).max() < 1e-6

    def test_isotropic_gaussian_has_equal_variances(self):
        rng = np.random.default_rng(49)
        x = rng.normal(size=(10_000, 2))
        _, explained = pca2(x)
        assert abs(explained[0] - explained[1]) / explained[0] < 0.05

    def test_translation_invariance(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(40, 6))
        coords_a, _ = pca2(x)
        coords_b, _ = pca2(x + 17.5)
        assert np.abs(coords_a - coords_b).max() < 1e-9

    def test_trace_bound(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(60, 10))
        _, explained = pca2(x)
        total_variance = x.var(axis=0, ddof=0).sum()
        assert explained.sum() <= total_variance + 1e-9

    def test_rank_zero_input(self):
        x = np.ones((5, 4))
        coords, explained = pca2(x)
        assert np.array_equal(coords, np.zeros((5, 2)))
        assert np.array_equal(explained, np.zeros(2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_left_unchanged(self, dtype):
        x = np.random.default_rng(58).normal(3.0, 1.0, size=(30, 5)).astype(dtype)
        kept = x.copy()
        pca2(x)
        assert x.dtype == dtype and np.array_equal(x, kept)

    def test_sign_convention(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        coords, _ = pca2(x)
        # component must point along +x, so coords follow the data sign
        assert coords[0, 0] > 0 and coords[2, 0] > coords[0, 0]


class TestExportPlots:
    def test_file_contract(self, tmp_path):
        rng = np.random.default_rng(52)
        before = rng.normal(size=(40, 6))
        after = perturb(before, PerturbationConfig("GP", sigma=0.1), None,
                        np.random.default_rng(53))
        paths, _ = export_plots(before, after, tmp_path)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["explained_variance.csv", "histogram.csv",
                         "histogram.svg", "moments.csv", "pca.csv", "pca.svg"]
        for p in paths:
            if p.endswith(".svg"):
                ET.parse(p)  # must be well-formed XML

    def test_identical_inputs_give_identical_histogram_columns(self, tmp_path):
        x = np.random.default_rng(54).normal(size=(30, 4))
        export_plots(x, x.copy(), tmp_path)
        rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
        for row in rows:
            _, _, before_count, after_count = row.split(",")
            assert before_count == after_count

    def test_pca_csv_contains_both_groups(self, tmp_path):
        m = EmbeddingMatrix([f"m{i}" for i in range(25)],
                            np.random.default_rng(55).normal(size=(25, 5)).astype(np.float32))
        after = EmbeddingMatrix(m.ids, perturb(m.values, PerturbationConfig("GP", sigma=0.05),
                                               None, np.random.default_rng(56)))
        export_plots(m, after, tmp_path)
        lines = (tmp_path / "pca.csv").read_text().splitlines()
        assert lines[0] == "id,group,pc1,pc2"
        assert len(lines) - 1 == 50  # 2n rows
        groups = {line.split(",")[1] for line in lines[1:]}
        assert groups == {"before", "after"}

    @pytest.mark.parametrize("method", ["GP", "IDGP", "FDP"])
    def test_files_match_float64_reference(self, tmp_path, method):
        rng = np.random.default_rng(59)
        n, dim = 1_500, 48  # 72,000 values a side: more than one histogram chunk
        before = EmbeddingMatrix([f"m{i}" for i in range(n)],
                                 rng.normal(0.01, 0.2, size=(n, dim)))
        config = PerturbationConfig(method=method, sigma=0.05, alpha_var=0.1)
        after = EmbeddingMatrix([f"m{i}*" for i in range(n)],
                                perturb(before.values, config, dataset_std(before.values),
                                        np.random.default_rng(60)))
        paths, report = export_plots(before, after, tmp_path)
        files, stats = reference_files(before, after)
        assert sorted(os.path.basename(p) for p in paths) == sorted(files)
        for name, text in files.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
        got = (report.before_mean, report.before_std, report.after_mean, report.after_std)
        assert got == stats and report.count == n * dim

    def test_peak_memory_is_bounded(self, tmp_path):
        rng = np.random.default_rng(61)
        before = EmbeddingMatrix([f"m{i}" for i in range(3_000)],
                                 rng.normal(size=(3_000, 200)))
        after = EmbeddingMatrix([f"m{i}*" for i in range(3_000)],
                                perturb(before.values, PerturbationConfig("GP", sigma=0.05),
                                        None, np.random.default_rng(62)))
        tracemalloc.start()
        try:
            export_plots(before, after, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * before.values.nbytes, peak / before.values.nbytes
