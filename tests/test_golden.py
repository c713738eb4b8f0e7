"""Golden digests: the exact bytes of short training runs and of large
generator draws, recorded once in golden.json and checked on every run.

Generator draws use only integer arithmetic and the C library's log, cos
and sin, so their digests are checked everywhere. Training runs also go
through BLAS matrix products and NumPy's own SIMD loops, whose rounding can
differ between NumPy builds and CPU kernels; their digests are checked when
NumPy, its BLAS, the SIMD extensions NumPy dispatches to and the machine
type match the recording, and skipped (with the reason) when they do not,
or when NumPy cannot report its build. A CI job that
installs the latest NumPy therefore checks only the draw digests. A change
that alters any of these bytes must say why in CHANGES.md and re-record
them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from labelforge.dataio import GaussianSpec, generate_gaussian
from labelforge.model import init_model
from labelforge.numerics import Rng
from labelforge.train import (
    TrainConfig,
    distill,
    train,
    train_ablation,
    write_run_artifacts,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PAIRED_MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
BASE = dict(epochs=5, seed=7, layer_sizes=(2, 32, 4))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(out_dir: Path) -> dict:
    """sha256 of metrics.csv, checkpoint.json and (where a table is learned)
    cmatrix.csv for nine short runs on the paired task: every strategy, the
    ``ce`` and ``sce_original`` routings, and ols with correct-only
    accumulation."""
    train_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 50, seed=11))
    test_set = generate_gaussian(GaussianSpec(PAIRED_MEANS, 0.5, 25, seed=12))
    lspp = train(TrainConfig(strategy="lspp", **BASE), train_set, test_set)
    runs = {
        "onehot": train(TrainConfig(strategy="onehot", **BASE), train_set, test_set),
        "lspp": lspp,
        "ols": train(TrainConfig(strategy="ols", **BASE), train_set, test_set),
        "proxy_distill": distill(TrainConfig(**BASE), lspp.cmatrix, train_set, test_set),
        "ablation_sce_original": train_ablation(
            TrainConfig(strategy="ablation", ablation_loss="sce_original", **BASE),
            train_set, test_set,
        ),
        "ls": train(TrainConfig(strategy="ls", **BASE), train_set, test_set),
        "distill": distill(TrainConfig(**BASE), lspp.model, train_set, test_set),
        "ablation_ce": train_ablation(
            TrainConfig(strategy="ablation", ablation_loss="ce", **BASE),
            train_set, test_set,
        ),
        "ols_correct_only": train(
            TrainConfig(strategy="ols", ols_correct_only=True, **BASE),
            train_set, test_set,
        ),
    }
    digests = {}
    for name, result in runs.items():
        run_dir = out_dir / name
        write_run_artifacts(run_dir, TrainConfig(**BASE), result)
        for file in ("metrics.csv", "cmatrix.csv", "checkpoint.json"):
            if (run_dir / file).exists():
                digests[f"{name}/{file}"] = _sha256((run_dir / file).read_bytes())
    return digests


def draw_digests() -> dict:
    """sha256 of draws long enough to span several generator blocks: Gaussian
    data with an odd dimension (a Box-Muller spare carries across rows), a
    784-128-10 Glorot init and a 5000-element shuffle."""
    odd = generate_gaussian(GaussianSpec(np.arange(12.0).reshape(4, 3), 1.5, 301, seed=5))
    model = init_model((784, 128, 10), seed=3)
    return {
        "gaussian_4x3x301/features": _sha256(odd.features.tobytes()),
        "init_784_128_10/weights": _sha256(b"".join(w.tobytes() for w in model.weights)),
        "permutation_5000": _sha256(Rng(13).permutation(5000).tobytes()),
    }


def build_fingerprint() -> dict:
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": build["SIMD Extensions"]["found"],
        "machine": platform.machine(),
    }


def test_draw_digests_unchanged():
    assert draw_digests() == json.loads(GOLDEN_PATH.read_text())["draws"]


def test_run_digests_unchanged(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    try:
        here = build_fingerprint()
    except (TypeError, KeyError) as exc:  # show_config(mode=...) is NumPy >= 1.25
        pytest.skip(f"NumPy {np.__version__} does not report its build: {exc!r}")
    if here != golden["recorded_with"]:
        pytest.skip(f"recorded with {golden['recorded_with']}, running with {here}")
    assert run_digests(tmp_path) == golden["runs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "recorded_with": build_fingerprint(),
            "draws": draw_digests(),
            "runs": run_digests(Path(tmp)),
        }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
