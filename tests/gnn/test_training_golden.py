"""Golden pin: training traces and final parameters of every layer kind."""

import json
import os

import pytest

from .training_golden import LAYER_KINDS, compute


@pytest.fixture(scope="module")
def traces():
    return compute()


@pytest.fixture(scope="module")
def golden():
    path = os.path.join(os.path.dirname(__file__), "training_golden.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trainer", ["full", "sampled"])
@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_training_matches_golden(traces, golden, trainer, kind):
    """Losses, accuracies and parameter bytes equal the recorded run
    exactly (see training_golden.py for what it pins and how to
    re-capture it)."""
    key = f"{trainer}-{kind}"
    assert traces[key] == golden[key]
