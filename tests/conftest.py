"""Shared fixtures: one small synthetic world and a bank trained on it.

The expensive pieces are session-scoped so the whole suite pays for world
generation and training once. Tests that need different shapes build their
own tiny inputs inline.
"""

import sys
import types
from collections import Counter

import numpy as np
import pytest

from frostcast import (
    TrainConfig,
    WorldSpec,
    generate_world,
    make_folds,
    train_bank,
)

SMALL_SPEC = WorldSpec(
    seed=11,
    n_stations=8,
    lon_min=146.0,
    lon_max=147.0,
    lat_min=-34.0,
    lat_max=-33.0,
    cell_size=0.1,
    days=1,
    noise_sd=0.3,
)


@pytest.fixture
def derivations(monkeypatch):
    """A Counter of (``climate_matrix`` or ``label_arrays``, station id) calls.

    Every module's name for either function counts, and work runs in-process:
    pool workers' calls would be invisible to this process.
    """
    from frostcast import cli, ensemble, evaluate, features

    calls = Counter()

    def counted(name, fn):
        def wrapper(series, *args, **kwargs):
            calls[name, series.id] += 1
            return fn(series, *args, **kwargs)
        return wrapper

    for name in ("climate_matrix", "label_arrays"):
        wrapper = counted(name, getattr(features, name))
        for module in (features, ensemble, evaluate, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 1)
    return calls


@pytest.fixture(scope="session")
def small_world():
    return generate_world(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_folds(small_world):
    ids = [s.id for s in small_world.stations]
    return make_folds(ids, seed=1, n_folds=4)


@pytest.fixture(scope="session")
def small_bank(small_world, small_folds):
    cfg = TrainConfig(seed=3, epochs=6, batch_size=256, patience=3)
    return train_bank(
        small_world.stations,
        small_folds,
        fold=0,
        cfg=cfg,
        entry_stride=20,
        max_entries=3000,
    )


@pytest.fixture(scope="session")
def small_test_ids(small_folds):
    return sorted(small_folds.test_stations(0))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def stub_pyplot(monkeypatch):
    """Replace matplotlib with a stub and return its one figure.

    The figure's ``savefig`` writes a PNG signature (a test may replace it),
    and ``pyplot.close`` appends the figure it closes to ``figure.closed``.
    """
    figure = types.SimpleNamespace(savefig=lambda fh, **kwargs: fh.write(b"\x89PNG\r\n\x1a\n"),
                                   closed=[])
    axes = types.SimpleNamespace(imshow=lambda *args, **kwargs: None, set_axis_off=lambda: None)
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (figure, axes)
    pyplot.close = figure.closed.append
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use, matplotlib.pyplot = (lambda backend: None), pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return figure
