import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ProcessPoolExecutor with a stand-in that starts no process and
    maps in-process; the returned list receives each pool's max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
