"""Every stats/report object in the library exports through ``as_dict()``."""

import json

import numpy as np
import pytest

from repro.cluster.comm import CommStats, Message, Network
from repro.gnn.caching import CacheReport
from repro.gnn.pipeline import ScheduleResult
from repro.gnn.staleness import StalenessTrace
from repro.gnn.train import TrainReport
from repro.matching.backtrack import MatchStats
from repro.obs import json_safe
from repro.tlag.distributed import CacheStats
from repro.tlag.engine import EngineStats
from repro.tlav.engine import SuperstepStats


def _views():
    return [
        EngineStats(num_workers=2),
        CommStats(num_workers=2),
        SuperstepStats(superstep=1, active_vertices=5,
                       messages_sent=9, messages_after_combine=7),
        TrainReport(),
        CacheReport(accesses=10, hits=4, feature_dim=8),
        ScheduleResult(makespan=10.0, busy={"sample": 6.0}),
        StalenessTrace(staleness=1, makespan=10.0, busy_time=8.0,
                       idle_time=2.0, steps_per_worker=5),
        CacheStats(local_reads=3, cache_hits=2, remote_pulls=1,
                   bytes_pulled=64),
    ]


@pytest.mark.parametrize("view", _views(), ids=lambda v: type(v).__name__)
def test_as_dict_round_trips_through_json(view):
    d = view.as_dict()
    assert isinstance(d, dict)
    assert json.loads(json.dumps(d)) == json.loads(json.dumps(json_safe(d)))


@pytest.mark.parametrize(
    "view",
    [CacheStats(local_reads=3, cache_hits=2, remote_pulls=1, bytes_pulled=64),
     MatchStats()],
    ids=lambda v: type(v).__name__,
)
def test_merge_returns_self(view):
    # Only the records a production caller folds keep ``merge``.
    import copy

    other = copy.deepcopy(view)
    assert view.merge(other) is view


class TestEngineStatsView:
    def test_counters_read_back_through_properties(self):
        s = EngineStats(num_workers=2)
        s.record_task(worker=0, ops=10, forked=2, clock=10)
        s.record_task(worker=1, ops=4, forked=0, clock=4)
        s.record_steal()
        s.record_pending(3)
        assert s.tasks_executed == 2
        assert s.tasks_forked == 2
        assert s.steals == 1
        assert s.total_ops == 14
        assert s.worker_busy == [10, 4]
        assert s.peak_pending_tasks == 3
        assert s.makespan == 10

    def test_exported_dict_has_derived_fields(self):
        s = EngineStats(num_workers=2)
        s.record_task(0, ops=8, forked=0, clock=8)
        d = s.as_dict()
        assert d["makespan"] == 8
        assert d["balance"] == 2.0  # one busy worker of two


class TestCommStatsView:
    def _stats(self):
        s = CommStats(num_workers=2)
        s.record(Message(src=0, dst=0, payload=b"", nbytes=4, tag="data"))
        s.record(Message(src=0, dst=1, payload=b"", nbytes=8, tag="data"))
        s.record(Message(src=1, dst=0, payload=b"", nbytes=2, tag="ctl"))
        return s

    def test_locality_split(self):
        s = self._stats()
        assert s.messages_local == 1
        assert s.messages_remote == 2
        assert s.bytes_local == 4
        assert s.bytes_remote == 10
        assert s.total_messages == 3
        assert s.total_bytes == 14

    def test_by_tag(self):
        s = self._stats()
        assert s.by_tag == {"data": 12, "ctl": 2}

    def test_network_stats_share_registry(self):
        net = Network(num_workers=2)
        net.send(0, 1, np.zeros(4), tag="x")
        assert net.registry is net.stats.registry
        assert net.registry.counter("cluster.messages").total == 1
        assert net.stats.bytes_remote == 32  # 4 float64s


class TestJsonSafe:
    def test_numpy_and_nonfinite(self):
        out = json_safe({
            "i": np.int64(3),
            "f": np.float32(1.5),
            "arr": np.arange(3),
            "nan": float("nan"),
            "set": {2, 1},
        })
        assert out == {"i": 3, "f": 1.5, "arr": [0, 1, 2],
                       "nan": "nan", "set": [1, 2]}
        json.dumps(out)  # actually serializable
