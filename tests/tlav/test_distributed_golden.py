"""Distributed and checkpointed TLAV results are pinned exactly (see
distributed_golden)."""

import json
import os

import pytest

from tests.tlav.distributed_golden import compute

GOLDEN = os.path.join(os.path.dirname(__file__), "distributed_golden.json")


@pytest.fixture(scope="module")
def outputs():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    return golden, compute()


@pytest.mark.parametrize("family", ["distributed", "checkpointed"])
def test_runs_are_pinned(outputs, family):
    golden, now = outputs
    assert sorted(now[family]) == sorted(golden[family])
    for key, pinned in golden[family].items():
        assert now[family][key] == pinned, key


def test_golden_covers_the_grid(outputs):
    golden, _ = outputs
    runs = golden["distributed"]
    assert len(runs) == 4 * 3 * 2
    for key in runs:
        comm = json.loads(runs[key])["comm"]
        assert comm["messages_remote"] > 0, key
        assert any(any(row) for row in comm["link_bytes"]), key
    for mode in ("light", "full"):
        stats = json.loads(golden["checkpointed"][f"pagerank/{mode}"])["stats"]
        assert stats["failures"] == 1 and stats["supersteps_replayed"] > 0
