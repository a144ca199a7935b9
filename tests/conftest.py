"""Shared fixtures for the test suite."""

import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from repro.fp import FPContext
from repro.physics import World

# Keep experiment disk caching out of the repo during tests.
os.environ.setdefault("REPRO_CACHE_DIR", "/tmp/repro_test_cache")


@pytest.fixture(scope="session", autouse=True)
def leaves_nothing_behind(tmp_path_factory):
    """Run the session against a temp dir of its own (``TMPDIR`` too, so
    spawned shards inherit it); at the end, fail if a ``repro-*`` entry
    is left there or a child process is still alive."""
    private = str(tmp_path_factory.mktemp("tempdir"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "tempdir", private)
        patch.setenv("TMPDIR", private)
        yield
    leftovers = sorted(name for name in os.listdir(private)
                       if name.startswith("repro-"))
    children = multiprocessing.active_children()
    if leftovers or children:
        pytest.fail(f"left in the temp dir: {leftovers}; "
                    f"child processes still alive: {children}")


@pytest.fixture
def ctx():
    """A full-precision census context."""
    return FPContext()


@pytest.fixture
def fast_ctx():
    """A census-free full-precision context."""
    return FPContext(census=False)


@pytest.fixture
def reduced_ctx():
    """A census context with both studied phases at 6 bits, jamming."""
    return FPContext({"lcp": 6, "narrow": 6})


@pytest.fixture
def empty_world(fast_ctx):
    return World(ctx=fast_ctx)


@pytest.fixture
def ground_world(fast_ctx):
    world = World(ctx=fast_ctx)
    world.add_ground_plane(0.0)
    return world


@pytest.fixture
def resting_box_world(fast_ctx):
    world = World(ctx=fast_ctx)
    world.add_ground_plane(0.0)
    world.add_box([0.0, 0.5, 0.0], [0.5, 0.5, 0.5], 2.0)
    return world


def assert_finite(array):
    assert np.isfinite(np.asarray(array)).all()
