"""Serve observability output is pinned byte for byte (see obs_golden)."""

import json
import os

import pytest

from tests.serve.obs_golden import compute

GOLDEN = os.path.join(os.path.dirname(__file__), "serve_obs_golden.json")


@pytest.fixture(scope="module")
def outputs():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    return golden, compute()


@pytest.mark.parametrize("scenario", ["faults", "loadgen"])
def test_registry_json_is_pinned(outputs, scenario):
    golden, now = outputs
    assert now[scenario]["registry_json"] == golden[scenario]["registry_json"]


@pytest.mark.parametrize("scenario", ["faults", "loadgen"])
def test_stats_dict_is_pinned(outputs, scenario):
    golden, now = outputs
    assert now[scenario]["stats_json"] == golden[scenario]["stats_json"]


def test_schedule_is_pinned(outputs):
    golden, now = outputs
    assert now["loadgen"]["responses_json"] == golden["loadgen"]["responses_json"]


def test_scenario_covers_every_terminal_status(outputs):
    _, now = outputs
    stats = json.loads(now["faults"]["stats_json"])
    for column in ("completed", "shed", "expired", "degraded"):
        assert stats[column] > 0, column
    series = json.loads(now["faults"]["registry_json"])["serve.requests"]["series"]
    assert any(key.endswith("status=error") for key in series)
    reasons = json.loads(now["faults"]["registry_json"])[
        "serve.degraded.responses"]["series"]
    assert {key.rsplit("=", 1)[1] for key in reasons} == {
        "breaker_open", "failure", "shed",
    }
