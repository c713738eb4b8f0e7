"""Shared fixtures for the test suite plus a summary hook that prints one
PASS/FAIL line per acceptance criterion at the end of the run."""

import time

import numpy as np
import pytest

from labelforge.dataio import GaussianSpec, generate_gaussian
from labelforge.train import TrainConfig, distill, train, train_ablation

PAIRED_MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)
ACCEPTANCE_EPOCHS = 200
ACCEPTANCE_LAYERS = (2, 32, 4)


@pytest.fixture(scope="session")
def paired_task():
    """Two near pairs of Gaussian blobs, far from each other: 200/class to
    train on, a larger held-out set to score on."""
    train_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 200, seed=101))
    test_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 500, seed=202))
    return train_set, test_set


@pytest.fixture(scope="session")
def acceptance_runs(paired_task):
    """Every multi-seed training run the acceptance criteria share.

    Per seed: the split-loss run (both as strategy lspp and as the sce_ours
    routing, which must coincide), the un-gated sce_original routing, a
    one-hot baseline, and a student distilled from the split-loss run's
    logit table. The wall time of the ablation pairs is summed separately
    because one criterion bounds it.
    """
    train_set, test_set = paired_task
    runs = {"lspp": {}, "sce_ours": {}, "sce_original": {}, "onehot": {}, "proxy": {},
            "ablation_seconds": 0.0}

    # seed-major, so that every run after a seed's first reads that seed's
    # epoch orders from train.epoch_order's table
    for seed in ACCEPTANCE_SEEDS:
        base = dict(epochs=ACCEPTANCE_EPOCHS, seed=seed, layer_sizes=ACCEPTANCE_LAYERS)
        ablation_started = time.perf_counter()
        for loss in ("sce_ours", "sce_original"):
            runs[loss][seed] = train_ablation(
                TrainConfig(strategy="ablation", ablation_loss=loss, **base),
                train_set, test_set,
            )
        runs["ablation_seconds"] += time.perf_counter() - ablation_started
        runs["lspp"][seed] = train(TrainConfig(strategy="lspp", **base),
                                   train_set, test_set)
        runs["onehot"][seed] = train(TrainConfig(strategy="onehot", **base),
                                     train_set, test_set)
        runs["proxy"][seed] = distill(
            TrainConfig(**base), runs["lspp"][seed].cmatrix, train_set, test_set
        )
    return runs


_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.skipped):
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        outcome = _acceptance_outcomes[nodeid]
        label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIPPED"}.get(
            outcome, outcome.upper()
        )
        terminalreporter.write_line(f"{name}: {label}")
