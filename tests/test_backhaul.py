import copy
import random
import time

import pytest
from hypothesis import given, strategies as st

from randelsim.backhaul import BackhaulLink, BackhaulProfile
from randelsim.scenario import config_from_dict
from randelsim.simulation import Simulation


def make_link(window: int | None = None, **kwargs) -> BackhaulLink:
    profile = BackhaulProfile(**{
        "base_latency_ms": 50,
        "bandwidth_bps": 1_000_000,
        "jitter_ms": 0,
        "loss_probability": 0.0,
        "outages": [],
        **kwargs,
    })
    return BackhaulLink(profile, random.Random(0), window)


class TestProfileValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=0)

    def test_loss_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                            loss_probability=1.5)

    def test_jitter_beyond_base_latency_rejected(self):
        with pytest.raises(ValueError, match="^jitter_ms"):
            BackhaulProfile(base_latency_ms=50, bandwidth_bps=1,
                            jitter_ms=51)
        BackhaulProfile(base_latency_ms=50, bandwidth_bps=1,
                        jitter_ms=50)

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError, match="outages"):
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                            outages=[(0, 100), (50, 150)])


class TestInOutage:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 20)),
                    max_size=30))
    def test_matches_a_scan_of_every_outage(self, gaps_and_lengths):
        outages, end = [], 0
        for gap, length in gaps_and_lengths:
            outages.append((end + gap, end + gap + length))
            end += gap + length
        profile = BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                                  outages=outages)
        for t in range(-1, end + 2):
            assert profile.in_outage(t) == any(s <= t < e
                                               for s, e in outages)


class TestTransmit:
    def test_drop_inside_outage(self):
        link = make_link(window=500, outages=[(100, 200)])
        assert link.transmit(512, 150) is None
        assert link.utilization(150) == 512  # counted on send regardless of loss

    def test_delivery_arithmetic(self):
        # 512 B at 1 MB/s serializes in ceil(0.512) = 1 ms
        link = make_link()
        assert link.transmit(512, 1000) == 1000 + 1 + 50

    def test_back_to_back_fifo_queueing(self):
        link = make_link()
        first = link.transmit(1_000_000, 0)
        second = link.transmit(1_000_000, 0)
        assert second - first >= 1000

    def test_loss_probability_one_drops_everything(self):
        link = make_link(loss_probability=1.0)
        assert all(link.transmit(512, t) is None for t in range(10))

    def test_jitter_of_base_latency_never_delivers_before_send(self):
        link = make_link(jitter_ms=50)
        for t in range(0, 10_000, 10):
            assert link.transmit(1, t) > t

    def test_delivered_latency_at_least_base_minus_jitter(self):
        link = make_link(jitter_ms=10)
        for t in range(0, 1000, 100):
            delivery = link.transmit(1, t)
            assert delivery is not None
            assert delivery - t >= link.profile.base_latency_ms - 10

    def test_no_delivery_lands_inside_outage(self):
        link = make_link(outages=[(100, 200)])
        for t in range(0, 300, 7):
            delivery = link.transmit(512, t)
            if delivery is not None:
                assert not link.profile.in_outage(delivery)


class TestUtilization:
    def test_no_traffic_is_zero(self):
        assert make_link(window=500).utilization(1000) == 0

    def test_single_message_counted(self):
        link = make_link(window=500)
        link.transmit(512, 100)
        assert link.utilization(200) == 512

    def test_flood_counts_every_send_in_window(self):
        link = make_link(window=1000)
        sent = 0
        for t in range(0, 1000, 10):
            link.transmit(10_000 + t, t)
            sent += 10_000 + t
        assert link.utilization(1000) == sent

    @given(st.integers(1, 200),
           st.lists(st.tuples(st.integers(0, 60), st.integers(1, 5000),
                              st.booleans()), max_size=60))
    def test_is_the_bytes_sent_within_the_window(self, window, steps):
        link, sent, now = make_link(window=window), [], 0
        for step, size, send in steps:
            now += step
            if send:
                link.transmit(size, now)
                sent.append((now, size))
            assert link.utilization(now) == sum(
                n for t, n in sent if now - window <= t <= now)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            make_link(window=0)

    def test_link_without_window_has_no_utilization(self):
        with pytest.raises(ValueError):
            make_link().utilization(100)

    def test_link_without_window_keeps_no_sends(self):
        link = make_link()
        for t in range(0, 1000, 10):
            link.transmit(512, t)
        assert not link._send_log

    def test_kept_sends_stay_within_window(self):
        link = make_link(window=100)
        for t in range(0, 1000, 7):
            link.transmit(512, t)
            assert all(t - 100 <= sent for sent, _ in link._send_log)
        # the sends of the last window, and nothing older
        assert [sent for sent, _ in link._send_log] == [
            t for t in range(0, 1000, 7) if t >= 994 - 100]


def best_of_3_each(*configs) -> list[float]:
    """The shortest of three runs of each config, the runs interleaved."""
    best = [float("inf")] * len(configs)
    for _ in range(3):
        for i, cfg in enumerate(configs):
            start = time.perf_counter()
            Simulation(cfg).run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


class TestCostPerOperation:
    """A large outage list or utilization window costs about what the
    small one does (a 3x margin for a noisy host)."""

    def test_outages_past_the_horizon_add_no_cost(self, workloads):
        doc = workloads.design_sweep(1)
        large = copy.deepcopy(doc)
        far = 10 * doc["horizon_ms"]
        large["backhaul"]["outages"] += [[far + 2 * i, far + 2 * i + 1]
                                         for i in range(10_000)]
        small_cfg, large_cfg = config_from_dict(doc), config_from_dict(large)
        assert (Simulation(small_cfg).run().to_csv()
                == Simulation(large_cfg).run().to_csv())
        small_s, large_s = best_of_3_each(small_cfg, large_cfg)
        assert large_s < 3 * small_s

    def test_a_query_after_many_outages_costs_their_log(self):
        # t lies after every outage: a bisect reads about 14 starts of
        # 10,000 where it reads 7 of 100, a scan of them reads 100x more
        def profile(count):
            return BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                                   outages=[(2 * i, 2 * i + 1)
                                            for i in range(count)])

        profiles = [profile(100), profile(10_000)]
        best = [float("inf")] * 2
        for _ in range(5):
            for i, p in enumerate(profiles):
                start = time.perf_counter()
                for _ in range(2000):
                    p.in_outage(30_000)
                best[i] = min(best[i], time.perf_counter() - start)
        small_s, large_s = best
        assert large_s < 3 * small_s

    def test_a_long_utilization_window_adds_no_cost(self, workloads):
        def config(window_ms):
            doc = workloads.design_sweep(1)
            doc["thresholds"] = {"probe_interval_ms": 10,
                                 "utilization_window_ms": window_ms}
            return config_from_dict(doc)

        short_s, long_s = best_of_3_each(config(1000), config(60_000))
        assert long_s < 3 * short_s
