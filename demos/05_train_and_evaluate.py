"""Classifier training with the mixer in the loop, Micro/Macro F1, and the
training-ratio study on an imbalanced synthetic dataset."""
import numpy as np

from eventaug import PerturbationConfig, TrainConfig, evaluate, predict, train
from eventaug.classify import ratio_study

rng = np.random.default_rng(21)
sizes = (600, 150, 60, 25)
means = rng.normal(size=(4, 16))
means = means / np.linalg.norm(means, axis=1, keepdims=True) * 3.5

def sample(per_class):
    xs, ys = [], []
    for c, n in enumerate(per_class):
        xs.append(rng.normal(size=(n, 16)) + means[c])
        ys.append(np.full(n, c))
    return np.vstack(xs), np.concatenate(ys)

x_train, y_train = sample(sizes)
x_test, y_test = sample((100, 100, 100, 100))
sigma = 0.1 * x_train.std()

for label, perturbation in (
        ("without augmentation", None),
        ("with GP mixer", PerturbationConfig(method="GP", alpha=0.6,
                                             sigma=sigma))):
    config = TrainConfig(epochs=400, batch_size=64, learning_rate=1.0,
                         seed=0, perturbation=perturbation)
    model = train(x_train, y_train, config, num_classes=4)
    preds = predict(model, x_test)
    report = evaluate(preds, y_test, 4)
    print(f"{label:22s} micro={report.micro_f1:.4f} macro={report.macro_f1:.4f}")

print("\ntraining-ratio study (both arms per ratio):")
config = TrainConfig(epochs=150, batch_size=64, learning_rate=1.0, seed=0,
                     perturbation=PerturbationConfig(method="GP", alpha=0.6,
                                                     sigma=sigma))
for row in ratio_study(x_train, y_train, x_test, y_test,
                       [0.1, 0.3, 0.5, 1.0], config, num_classes=4):
    print(f"  ratio={row.ratio:.1f} {row.arm:6s} "
          f"micro={row.micro_f1:.4f} macro={row.macro_f1:.4f}")
