"""Acceptance suite: one test per release criterion, at the stated
tolerances. The conftest hook prints a PASS/FAIL line per criterion."""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from labelforge.analysis import c_row_entropy
from labelforge.cli import main
from labelforge.dataio import load_idx, split
from labelforge.labelreg import CMatrix, ols_table, target_table
from labelforge.model import init_model
from labelforge.numerics import Rng, log_softmax_rows, softmax_rows
from labelforge.train import TrainConfig, gradient_check, train

from conftest import ACCEPTANCE_SEEDS
from oracles import cross_entropy, ls_target, lspp_target, sample_reverse_cross_entropy


def test_c01_gradient_correctness_both_pathways():
    # K in {3,5,10}, 2-3 layers, batch <= 16, 20 seeds, both gradient
    # pathways within 1e-6 relative error of central finite differences,
    # all inside 30 seconds
    started = time.perf_counter()
    worst_network = 0.0
    worst_table = 0.0
    for seed in range(20):
        rng = Rng(1000 + seed)
        k = (3, 5, 10)[seed % 3]
        depth = 2 + (seed % 2)
        hidden = tuple(4 + rng.next_below(5) for _ in range(depth - 1))
        batch = 2 + rng.next_below(15)
        out = gradient_check(num_classes=k, seed=seed, hidden_sizes=hidden,
                             batch_size=batch)
        worst_network = max(worst_network, out["network_max_rel_err"])
        worst_table = max(worst_table, out["cmatrix_max_rel_err"])
    elapsed = time.perf_counter() - started
    assert worst_network < 1e-6
    assert worst_table < 1e-6
    assert elapsed < 30.0


def test_c02_target_algebra_pinned_values():
    for y in range(4):
        expected = np.full(4, 0.025)
        expected[y] = 0.925
        assert np.abs(ls_target(y, 4, 0.1) - expected).max() < 1e-12

        zero_init = np.full(4, 0.1 / 3.0)
        zero_init[y] = 0.9
        assert np.abs(lspp_target(CMatrix.zeros(4, 0.1), y) - zero_init).max() < 1e-12

    rng = Rng(77)
    for _ in range(50):
        k = 3 + rng.next_below(8)
        c = CMatrix(rng.uniforms((k, k - 1), -5.0, 5.0), 0.1)
        y = rng.next_below(k)
        t = lspp_target(c, y)
        assert t[y] == 1.0 - 0.1
        assert abs(t[y] - 0.9) < 1e-12


def test_c03_gradient_gating_split():
    # each loss direction, evaluated the way the training loop evaluates it
    # (the other side's quantities frozen), has zero finite-difference
    # sensitivity to the parameters it must not update
    rng = Rng(303)
    step = 1e-4
    for _ in range(10):
        k = 3 + rng.next_below(6)
        c = CMatrix(rng.uniforms((k, k - 1), -2.0, 2.0), 0.1)
        y = rng.next_below(k)
        logits = rng.uniforms((1, k), -2.0, 2.0)
        log_probs = log_softmax_rows(logits)[0]
        probs = softmax_rows(logits)[0]

        # network-update direction: targets are a frozen snapshot of the table
        frozen_target = lspp_target(c, y)
        for j in range(k - 1):
            original = c.logits[y, j]
            c.logits[y, j] = original + step
            plus = cross_entropy(frozen_target, log_probs)
            c.logits[y, j] = original - step
            minus = cross_entropy(frozen_target, log_probs)
            c.logits[y, j] = original
            assert abs(plus - minus) / (2 * step) < 1e-10

        # table-update direction: predictions are a frozen snapshot of the net
        frozen_probs = probs.copy()
        for j in range(k):
            perturbed = logits.copy()
            perturbed[0, j] += step
            plus = sample_reverse_cross_entropy(c, y, frozen_probs)
            perturbed[0, j] -= 2 * step
            minus = sample_reverse_cross_entropy(c, y, frozen_probs)
            assert abs(plus - minus) / (2 * step) < 1e-10


def test_c04_ablation_entropy_direction(acceptance_runs):
    # split routing must keep visibly more spread-out rows than the un-gated
    # symmetric loss: >= 0.1 nat margin on seed-averaged mean row entropy,
    # and the ten 200-epoch runs must have fit in two minutes
    ours = np.mean([
        c_row_entropy(acceptance_runs["sce_ours"][s].cmatrix).mean()
        for s in ACCEPTANCE_SEEDS
    ])
    orig = np.mean([
        c_row_entropy(acceptance_runs["sce_original"][s].cmatrix).mean()
        for s in ACCEPTANCE_SEEDS
    ])
    assert ours > orig + 0.1
    assert acceptance_runs["ablation_seconds"] < 120.0


def test_c05_interclass_relationship_recovery(acceptance_runs):
    # geometric partners (0,1) and (2,3): the learned row for each class
    # must put more mass on its partner than on either far class, in at
    # least 4 of 5 seeds; the split routing and strategy lspp must coincide
    for seed in ACCEPTANCE_SEEDS:
        assert np.array_equal(
            acceptance_runs["sce_ours"][seed].cmatrix.logits,
            acceptance_runs["lspp"][seed].cmatrix.logits,
        )
    partners = {0: 1, 1: 0, 2: 3, 3: 2}
    good_seeds = 0
    for seed in ACCEPTANCE_SEEDS:
        expanded = acceptance_runs["sce_ours"][seed].cmatrix.expanded_probs()
        ok = all(
            expanded[y, p] > expanded[y, q]
            for y, p in partners.items()
            for q in range(4)
            if q not in (y, p)
        )
        good_seeds += int(ok)
    assert good_seeds >= 4


def test_c06_online_smoothing_collapse():
    # when per-class mean predictions are exactly one-hot, the mixed target
    # is exactly one-hot for every mix weight
    for mix in (0.0, 0.1, 0.25, 0.3, 0.5, 0.66, 0.77, 0.9, 1.0):
        table, fallbacks = ols_table(np.eye(6), mix)
        assert fallbacks == 0
        assert np.array_equal(table, np.eye(6))


def test_c07_overconfidence_reduction(acceptance_runs):
    lspp_maxp = np.mean([
        acceptance_runs["lspp"][s].report.final_train_max_prob
        for s in ACCEPTANCE_SEEDS
    ])
    onehot_maxp = np.mean([
        acceptance_runs["onehot"][s].report.final_train_max_prob
        for s in ACCEPTANCE_SEEDS
    ])
    assert lspp_maxp < onehot_maxp


def test_c08_proxy_teacher_distillation(acceptance_runs, paired_task):
    proxy_acc = np.mean([
        acceptance_runs["proxy"][s].report.final_test_accuracy
        for s in ACCEPTANCE_SEEDS
    ])
    onehot_acc = np.mean([
        acceptance_runs["onehot"][s].report.final_test_accuracy
        for s in ACCEPTANCE_SEEDS
    ])
    assert proxy_acc >= onehot_acc - 0.01
    for s in ACCEPTANCE_SEEDS:
        assert acceptance_runs["proxy"][s].report.teacher_forward_calls == 0

    # a model teacher, in contrast, is consulted every batch
    from labelforge.train import distill

    train_set, test_set = paired_task
    teacher = acceptance_runs["lspp"][1].model
    out = distill(
        TrainConfig(epochs=2, seed=9, layer_sizes=(2, 32, 4)),
        teacher, train_set, test_set,
    )
    assert out.report.teacher_forward_calls > 0


def _gen_and_train(tmp_path, name, *flags):
    data = tmp_path / "data.csv"
    if not data.exists():
        assert main([
            "gen-data", "--out", str(data), "--per-class", "60", "--seed", "11",
        ]) == 0
    out = tmp_path / name
    argv = [
        "train", "--data", str(data), "--epochs", "20", "--seed", "5",
        "--out", str(out), *flags,
    ]
    assert main(argv) == 0
    return out


def test_c09_collapse_equivalences(tmp_path):
    onehot = _gen_and_train(tmp_path, "onehot", "--strategy", "onehot")
    ls_zero = _gen_and_train(tmp_path, "ls0", "--strategy", "ls", "--alpha", "0.0")
    assert (onehot / "metrics.csv").read_bytes() == (ls_zero / "metrics.csv").read_bytes()

    ls = _gen_and_train(tmp_path, "ls", "--strategy", "ls")
    frozen = _gen_and_train(tmp_path, "frozen", "--strategy", "lspp", "--c-lr", "0.0")
    assert (ls / "metrics.csv").read_bytes() == (frozen / "metrics.csv").read_bytes()


def test_c10_cli_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--out", str(data), "--per-class", "60", "--seed", "12"]) == 0

    def run(argv, out):
        assert main(argv + ["--out", str(out)]) == 0
        return out

    base_train = ["train", "--data", str(data), "--strategy", "lspp",
                  "--epochs", "15", "--seed", "3"]
    a = run(list(base_train), tmp_path / "t1")
    b = run(list(base_train), tmp_path / "t2")
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "cmatrix.csv").read_bytes() == (b / "cmatrix.csv").read_bytes()

    base_ablate = ["ablate", "--data", str(data), "--ablation-loss", "sce_original",
                   "--epochs", "15", "--seed", "3"]
    a = run(list(base_ablate), tmp_path / "a1")
    b = run(list(base_ablate), tmp_path / "a2")
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "cmatrix.csv").read_bytes() == (b / "cmatrix.csv").read_bytes()

    base_distill = ["distill", "--data", str(data),
                    "--teacher-cmatrix", str(tmp_path / "t1/cmatrix.csv"),
                    "--epochs", "15", "--seed", "4"]
    a = run(list(base_distill), tmp_path / "d1")
    b = run(list(base_distill), tmp_path / "d2")
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


FMNIST_ENV = "LABELFORGE_FMNIST_DIR"


def _find_idx(root: Path, stem: str) -> Path:
    for suffix in ("", ".gz"):
        candidate = root / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{stem}[.gz] not under {root}")


@pytest.mark.skipif(FMNIST_ENV not in os.environ,
                    reason=f"set {FMNIST_ENV} to a directory of FashionMNIST IDX files")
def test_c11_real_data_smoke():
    # opt-in: a 10k-sample subset, MLP 784-256-10, 20 epochs, 3 seeds. The
    # run must complete; the accuracy comparison is recorded, not enforced.
    root = Path(os.environ[FMNIST_ENV])
    full = load_idx(
        _find_idx(root, "train-images-idx3-ubyte"),
        _find_idx(root, "train-labels-idx1-ubyte"),
    )
    test_set = load_idx(
        _find_idx(root, "t10k-images-idx3-ubyte"),
        _find_idx(root, "t10k-labels-idx1-ubyte"),
    )
    subset, _ = split(full, 10000 / len(full), seed=0)
    assert len(subset) == 10000

    lspp_accs, onehot_accs = [], []
    for seed in (1, 2, 3):
        base = dict(epochs=20, seed=seed, layer_sizes=(784, 256, 10))
        lspp_accs.append(
            train(TrainConfig(strategy="lspp", **base), subset, test_set)
            .report.final_test_accuracy
        )
        onehot_accs.append(
            train(TrainConfig(strategy="onehot", **base), subset, test_set)
            .report.final_test_accuracy
        )
    lspp_mean = float(np.mean(lspp_accs))
    onehot_mean = float(np.mean(onehot_accs))
    margin_ok = lspp_mean >= onehot_mean - 0.005
    print(
        f"\nreal-data smoke: lspp={lspp_mean:.4f} onehot={onehot_mean:.4f} "
        f"within-half-point={'yes' if margin_ok else 'NO (recorded, not enforced)'}"
    )
