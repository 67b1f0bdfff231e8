import random

import pytest

from randelsim.backhaul import BackhaulLink, BackhaulProfile


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
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=0).validate()

    def test_loss_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                            loss_probability=1.5).validate()

    def test_jitter_beyond_base_latency_rejected(self):
        with pytest.raises(ValueError, match="^jitter_ms"):
            BackhaulProfile(base_latency_ms=50, bandwidth_bps=1,
                            jitter_ms=51).validate()
        BackhaulProfile(base_latency_ms=50, bandwidth_bps=1,
                        jitter_ms=50).validate()

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError, match="outages"):
            BackhaulProfile(base_latency_ms=1, bandwidth_bps=1,
                            outages=[(0, 100), (50, 150)]).validate()


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
