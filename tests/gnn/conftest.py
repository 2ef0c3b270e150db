"""Suite hygiene for ``tests/gnn``: no thread may outlive its test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    for thread in leaked:  # a thread that is merely finishing is not a leak
        thread.join(timeout=1.0)
    leaked = [t.name for t in leaked if t.is_alive()]
    assert not leaked, f"threads outlived the test: {leaked}"
