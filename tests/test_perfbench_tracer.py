"""The benchmark's tracer (perfbench/tracer.py) patches labelforge functions
by name. Installing it, timing a run and removing it in process makes a
deletion or rename in src/ of a name the benchmark times fail here, and not
only in a traced benchmark run. perfbench/ is read, never changed."""

import importlib.util
from pathlib import Path

import numpy as np

from labelforge import train
from labelforge.dataio import GaussianSpec, generate_gaussian
from labelforge.train import TrainConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_times_a_run_and_removes_itself():
    tracer_module = load_tracer()
    targets = tracer_module.TARGETS
    missing = [name for name, (owner, attr) in targets.items() if attr not in vars(owner)]
    assert not missing, f"names the benchmark traces are gone from src/: {missing}"
    originals = {name: vars(owner)[attr] for name, (owner, attr) in targets.items()}

    means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    data = generate_gaussian(GaussianSpec(means, 0.5, 10, seed=1))
    base = dict(epochs=2, layer_sizes=(2, 8, 3))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        teacher = train.train(TrainConfig(strategy="lspp", **base), data, data)
        train.distill(TrainConfig(**base), teacher.cmatrix, data, data)
    finally:
        tracer.remove()  # raises if a patched name is left behind

    assert all(vars(owner)[attr] is originals[name]
               for name, (owner, attr) in targets.items())
    assert tracer.calls["train.run"] == 2
    assert tracer.calls["labelreg.target_table"] == 1  # the proxy student's table
    assert tracer.calls["model.forward"] == 2 * 2 * 1  # 2 runs x 2 epochs x 1 batch
    assert tracer.calls["train.evaluate"] == 2 * 2 * 2  # train and test, per epoch
    assert tracer.covered_ns() > 0  # self times add up to the root spans
