"""Tests for the latency model and network delivery."""

import numpy as np
import pytest

from repro.cloud import DEFAULT_CATALOG, LatencyModel, Network, PAPER_LATENCY
from repro.sim import RandomStreams, Simulator

SAME_A = DEFAULT_CATALOG.placement("us-east-1a")
SAME_B = DEFAULT_CATALOG.placement("us-east-1b")
EU = DEFAULT_CATALOG.placement("eu-west-1a")


def make_network(seed=0, model=PAPER_LATENCY):
    sim = Simulator()
    return sim, Network(sim, RandomStreams(seed), model)


def test_median_latency_classes_match_paper():
    model = PAPER_LATENCY
    assert model.median_one_way_ms(SAME_A, SAME_A) == pytest.approx(0.05)
    assert model.median_one_way_ms(SAME_A, SAME_B) == 21.0
    assert model.median_one_way_ms(SAME_A, EU) == 173.0
    same_zone_other = DEFAULT_CATALOG.placement("us-east-1a")
    assert model.median_one_way_ms(SAME_A, same_zone_other) == pytest.approx(0.05)


def test_same_zone_distinct_instances_value():
    # Two placements with the same zone string compare equal, so the
    # same-zone class applies between *different* zones sharing a zone
    # name never happens; the 16 ms class is exercised via LatencyModel
    # directly.
    model = LatencyModel()
    class FakePlacement:
        region = "r"
        zone = "z1"
        def __eq__(self, other):
            return False
        def same_zone(self, other):
            return True
        def same_region(self, other):
            return True
    a, b = FakePlacement(), FakePlacement()
    assert model.median_one_way_ms(a, b) == 16.0


def test_region_pair_override():
    model = LatencyModel(region_pair_ms={
        frozenset(("us-east-1", "eu-west-1")): 90.0})
    assert model.median_one_way_ms(SAME_A, EU) == 90.0
    ap = DEFAULT_CATALOG.placement("ap-northeast-1a")
    assert model.median_one_way_ms(SAME_A, ap) == 173.0


def test_sample_jitters_around_median():
    _sim, net = make_network(seed=1)
    samples = [net.sample_one_way(SAME_A, EU) * 1000.0 for _ in range(3000)]
    assert abs(np.median(samples) - 173.0) < 4.0
    assert np.std(samples) > 1.0  # jitter present


def test_send_delivers_payload_after_latency():
    sim, net = make_network(seed=2)
    inbox = []

    def receiver(sim, net):
        ev = net.send(SAME_A, EU, payload={"op": "hello"})
        value = yield ev
        inbox.append((sim.now, value))

    sim.process(receiver(sim, net))
    sim.run()
    when, value = inbox[0]
    assert value == {"op": "hello"}
    assert 0.1 < when < 0.3  # ~173 ms one way


def test_send_on_delivery_callback():
    sim, net = make_network(seed=3)
    mailbox = []
    net.send(SAME_A, SAME_B, payload="x", on_delivery=mailbox.append)
    sim.run()
    assert mailbox == ["x"]


def test_send_counters():
    sim, net = make_network(seed=4)
    net.send(SAME_A, SAME_B, payload="x", size_bytes=100)
    net.send(SAME_A, SAME_B, payload="y", size_bytes=50)
    sim.run()
    assert net.messages_sent == 2
    assert net.bytes_sent == 150


def test_ping_rtt_half_matches_paper_classes():
    _sim, net = make_network(seed=5)
    half_rtts = {
        "cross_zone": np.median([net.ping(SAME_A, SAME_B) / 2
                                 for _ in range(1200)]),
        "cross_region": np.median([net.ping(SAME_A, EU) / 2
                                   for _ in range(1200)]),
    }
    assert abs(half_rtts["cross_zone"] - 21.0) < 2.0
    assert abs(half_rtts["cross_region"] - 173.0) < 6.0


def test_ping_batch_equals_the_per_probe_formula():
    """``ping(count)`` is ``count`` probes of two one-way samples
    (there, then back), summed and turned into milliseconds."""
    model = LatencyModel(floor_ms=20.0)      # the floor clips some legs
    _sim, batched = make_network(seed=8, model=model)
    _sim, scalar = make_network(seed=8, model=model)
    for net in (batched, scalar):
        net.add_latency(5.0, "us-east-1", "eu-west-1")
    for src, dst, count in ((SAME_A, EU, 700), (SAME_A, SAME_A, 1),
                            (SAME_B, SAME_A, 0), (EU, SAME_B, 1500)):
        probes = batched.ping(src, dst, count)
        expected = [(scalar.sample_one_way(src, dst)
                     + scalar.sample_one_way(dst, src)) * 1000.0
                    for _ in range(count)]
        assert probes.tolist() == expected
    # the stream is left where the scalar probes left it
    assert batched.sample_one_way(SAME_A, EU) \
        == scalar.sample_one_way(SAME_A, EU)


def test_round_trip_event():
    sim, net = make_network(seed=6)
    done = []

    def prober(sim, net):
        rtt = yield net.round_trip(SAME_A, EU)
        done.append((sim.now, rtt))

    sim.process(prober(sim, net))
    sim.run()
    when, rtt = done[0]
    assert when == pytest.approx(rtt)
    assert 0.25 < rtt < 0.5


def test_latency_floor():
    model = LatencyModel(loopback_ms=0.0, floor_ms=0.01)
    sim = Simulator()
    net = Network(sim, RandomStreams(7), model)
    sample = net.sample_one_way(SAME_A, SAME_A)
    assert sample >= 0.01 / 1000.0
