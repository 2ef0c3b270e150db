"""The serve soak under the default ``auto`` backend.

The soak compares the chaos run's answers with a clean run's bit for
bit.  The clean run calibrates the process-wide cost model, so a span
layout that followed the model would cut the chaos run's PageRank
differently and move its float bits; these seeds did exactly that.
"""

import pytest

from repro.parallel import reset_default_cost_model
from repro.serve.soak import run_serve_part


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_auto_chaos_answers_match_clean(seed):
    reset_default_cost_model()
    try:
        report = run_serve_part(seed, workers=2, backend="auto")
    finally:
        reset_default_cost_model()
    assert report["assertions"]["ok_matches_clean"]
