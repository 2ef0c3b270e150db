"""Tests for the simulated network and traffic accounting."""

import numpy as np
import pytest

from repro.cluster.comm import Message, Network, payload_nbytes


class TestPayloadSizing:
    def test_numpy_array_true_bytes(self):
        assert payload_nbytes(np.zeros((3, 4))) == 96

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(None) == 1
        assert payload_nbytes(True) == 1

    def test_strings_and_bytes(self):
        assert payload_nbytes("abc") == 3
        assert payload_nbytes(b"abcd") == 4

    def test_containers_sum(self):
        assert payload_nbytes([1, 2, 3]) == 24
        assert payload_nbytes({"a": 1}) == 9
        assert payload_nbytes((1.0, 2.0)) == 16


class TestNetwork:
    def test_bsp_delivery_semantics(self):
        net = Network(2)
        net.send(0, 1, "hello")
        assert net.receive(1) == []  # not delivered yet
        net.deliver()
        msgs = net.receive(1)
        assert len(msgs) == 1
        assert msgs[0].payload == "hello"

    def test_send_now_immediate(self):
        net = Network(2)
        net.send_now(0, 1, 42)
        msgs = net.receive(1)
        assert len(msgs) == 1

    def test_receive_drains(self):
        net = Network(2)
        net.send_now(0, 1, 1)
        assert len(net.receive(1)) == 1
        assert net.receive(1) == []

    def test_local_vs_remote_accounting(self):
        net = Network(2)
        net.send(0, 0, np.zeros(4))
        net.send(0, 1, np.zeros(4))
        assert net.stats.messages_local == 1
        assert net.stats.messages_remote == 1
        assert net.stats.bytes_local == 32
        assert net.stats.bytes_remote == 32

    def test_link_matrix(self):
        net = Network(3)
        net.send(0, 2, None, nbytes=100)
        net.send(2, 0, None, nbytes=50)
        assert net.stats.link_bytes[0, 2] == 100
        assert net.stats.link_bytes[2, 0] == 50
        assert net.stats.link_bytes[0, 1] == 0

    def test_tag_accounting(self):
        net = Network(2)
        net.send(0, 1, None, tag="halo", nbytes=10)
        net.send(0, 1, None, tag="halo", nbytes=5)
        net.send(0, 1, None, tag="grad", nbytes=7)
        assert net.stats.by_tag == {"halo": 15, "grad": 7}

    def test_explicit_nbytes_overrides_estimate(self):
        net = Network(2)
        net.send(0, 1, np.zeros(100), nbytes=1)
        assert net.stats.bytes_remote == 1

    def test_has_pending(self):
        net = Network(2)
        assert not net.has_pending()
        net.send(0, 1, 1)
        assert net.has_pending()
        net.deliver()
        assert net.has_pending()  # sits in inbox
        net.receive(1)
        assert not net.has_pending()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Network(0)


class TestLossyNetwork:
    """Drop/duplicate/delay under the FaultInjector, with retransmit."""

    @staticmethod
    def _lossy(seed=3, retry=True, reliable=True, **rates):
        from repro.resilience import FaultPlan, RetryPolicy

        plan = FaultPlan(seed=seed).lossy_network(**rates)
        return Network(
            2,
            injector=plan.build(),
            retry=RetryPolicy(max_attempts=4, seed=seed) if retry else None,
            reliable=reliable,
        )

    def test_scheduled_drop_retransmits_and_delivers(self):
        from repro.resilience import FaultPlan, RetryPolicy

        net = Network(
            2,
            injector=FaultPlan(seed=0).drop_message(0).build(),
            retry=RetryPolicy(max_attempts=3),
        )
        net.send(0, 1, "x")
        net.deliver()
        assert [m.payload for m in net.receive(1)] == ["x"]
        assert net.stats.dropped == 1
        assert net.stats.retransmits == 1
        assert net.stats.retransmitted_bytes == 1

    def test_duplicate_deduplicated_at_receiver(self):
        from repro.resilience import FaultPlan

        net = Network(2, injector=FaultPlan(seed=0).duplicate_message(0).build())
        net.send(0, 1, "x")
        net.deliver()
        assert len(net.receive(1)) == 1
        assert net.stats.duplicates == 1

    def test_delay_surfaces_in_a_later_round(self):
        from repro.resilience import FaultPlan

        net = Network(
            2, injector=FaultPlan(seed=0).delay_message(0, rounds=2).build()
        )
        net.send(0, 1, "late")
        net.deliver()
        assert net.receive(1) == []
        assert net.has_pending()
        net.deliver()
        assert net.receive(1) == []
        net.deliver()
        assert [m.payload for m in net.receive(1)] == ["late"]
        assert not net.has_pending()

    def test_deliver_order_is_stable_by_seq(self):
        from repro.resilience import FaultPlan

        # seq 0 is delayed one round; in that later round it must sort
        # *before* the fresher seq 2 even though it matured last.
        net = Network(2, injector=FaultPlan(seed=0).delay_message(0).build())
        net.send(0, 1, "a")  # seq 0, delayed
        net.send(0, 1, "b")  # seq 1
        net.deliver()
        assert [m.payload for m in net.receive(1)] == ["b"]
        net.send(0, 1, "c")  # seq 2
        net.deliver()
        assert [m.payload for m in net.receive(1)] == ["a", "c"]

    def test_reliable_exhaustion_still_delivers(self):
        net = self._lossy(drop=1.0)
        net.send(0, 1, "x")
        net.deliver()
        assert len(net.receive(1)) == 1
        assert net.stats.retry_exhausted == 1
        assert net.stats.lost == 0

    def test_unreliable_exhaustion_loses(self):
        net = self._lossy(drop=1.0, reliable=False)
        net.send(0, 1, "x")
        net.deliver()
        assert net.receive(1) == []
        assert net.stats.lost == 1

    def test_send_now_is_lossy_too(self):
        from repro.resilience import FaultPlan

        net = Network(2, injector=FaultPlan(seed=0).duplicate_message(0).build())
        net.send_now(0, 1, "x")
        assert len(net.receive(1)) == 1  # deduplicated immediately

    def test_stats_round_trip_with_retry_fields(self):
        net = self._lossy(drop=0.4, duplicate=0.2)
        for i in range(40):
            net.send(0, 1, i)
        while net.has_pending():
            net.deliver()
            net.receive(1)
        d = net.stats.as_dict()
        for field in ("dropped", "duplicates", "delayed", "lost",
                      "retransmits", "retransmitted_bytes", "retry_exhausted"):
            assert d[field] == getattr(net.stats, field)
