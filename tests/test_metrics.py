import numpy as np
import pytest

from eventaug.metrics import evaluate


def oracle_report(preds, golds, num_classes):
    """Brute-force per-class counters, no numpy."""
    per_class = {}
    for c in range(num_classes):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = (precision, recall, f1, tp + fp > 0 or tp + fn > 0)
    micro = sum(1 for p, g in zip(preds, golds) if p == g) / len(golds)
    present = [c for c in range(num_classes) if per_class[c][3]]
    macro = sum(per_class[c][2] for c in present) / len(present)
    return micro, macro, per_class


class TestEvaluate:
    def test_perfect_predictions(self):
        report = evaluate([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert report.micro_f1 == 1.0
        assert report.macro_f1 == 1.0

    def test_hand_computed_example(self):
        # preds [A,A,B] vs gold [A,B,B]:
        # A: P=1/2, R=1 -> F1 2/3; B: P=1, R=1/2 -> F1 2/3
        report = evaluate([0, 0, 1], [0, 1, 1], 2)
        assert report.micro_f1 == pytest.approx(2 / 3, abs=1e-4)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-4)
        assert report.precision[0] == pytest.approx(0.5)
        assert report.recall[0] == pytest.approx(1.0)
        assert report.precision[1] == pytest.approx(1.0)
        assert report.recall[1] == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            num_classes = int(rng.integers(2, 11))
            n = int(rng.integers(1, 51))
            golds = rng.integers(0, num_classes, size=n).tolist()
            preds = rng.integers(0, num_classes, size=n).tolist()
            report = evaluate(preds, golds, num_classes)
            micro, macro, per_class = oracle_report(preds, golds, num_classes)
            assert report.micro_f1 == micro
            assert report.macro_f1 == pytest.approx(macro, abs=1e-12)
            for c in range(num_classes):
                assert report.precision[c] == per_class[c][0]
                assert report.recall[c] == per_class[c][1]

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            golds = rng.integers(0, 4, size=n)
            preds = rng.integers(0, 4, size=n)
            report = evaluate(preds, golds, 4)
            assert report.micro_f1 == (preds == golds).mean()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, classes = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            golds = rng.integers(0, classes, size=n)
            preds = np.where(rng.random(size=n) < 0.6, golds,
                             rng.integers(0, classes, size=n))
            base = evaluate(preds, golds, classes)
            order = rng.permutation(n)
            shuffled = evaluate(preds[order], golds[order], classes)
            assert base.micro_f1 == shuffled.micro_f1
            assert base.macro_f1 == shuffled.macro_f1
            assert np.array_equal(base.confusion, shuffled.confusion)

    def test_absent_class_excluded_from_macro(self):
        # class 2 never appears in gold or preds
        report = evaluate([0, 1], [0, 1], 3)
        assert report.macro_f1 == 1.0
        assert report.present_classes() == [0, 1]

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate([0, 3], [0, 1], 3)
        with pytest.raises(ValueError):
            evaluate([0, -1], [0, 1], 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], 3)

    def test_confusion_counts(self):
        report = evaluate([0, 0, 1], [0, 1, 1], 2)
        assert report.confusion.tolist() == [[1, 0], [1, 1]]
        assert report.support.tolist() == [1, 2]

    def test_macro_f1_over_subset(self):
        report = evaluate([0, 0, 1], [0, 1, 1], 2)
        assert report.macro_f1_over([0]) == pytest.approx(2 / 3, abs=1e-9)
        assert report.macro_f1_over([]) == 0.0
