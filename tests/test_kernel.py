import pytest

from randelsim.kernel import Kernel


def make_recorder(kernel, log):
    def record(payload):
        return lambda: log.append((kernel.now, payload))
    return record


def test_zero_delay_fires_at_now():
    k = Kernel(seed=1)
    log = []
    record = make_recorder(k, log)
    eid = k.schedule(0, record("Tick"))
    assert eid == 1
    k.run_until(0)
    assert log == [(0, "Tick")]


def test_same_fire_time_fires_in_schedule_order():
    k = Kernel(seed=1)
    log = []
    record = make_recorder(k, log)
    k.schedule(10, record("first"))
    k.schedule(10, record("second"))
    k.run_until(20)
    assert [p for _, p in log] == ["first", "second"]


def test_schedule_relative_to_current_time():
    k = Kernel(seed=1)
    log = []
    record = make_recorder(k, log)
    # move the clock to 100, then schedule 50 out
    k.schedule(100, lambda: k.schedule(50, record("Msg")))
    k.run_until(200)
    assert log == [(150, "Msg")]


def test_negative_delay_rejected():
    k = Kernel(seed=1)
    with pytest.raises(ValueError):
        k.schedule(-1, lambda: None)


def test_reserved_slot_runs_where_a_schedule_then_would_have():
    # a schedule at reservation time and reserve + a later schedule_at
    # must give the same order among actions due in the same ms
    def trace(reserved):
        k = Kernel(seed=1)
        log = []
        record = make_recorder(k, log)
        k.schedule(10, record("earlier"))
        if reserved:
            seq = k.reserve()
        else:
            k.schedule(10, record("slot"))
        k.schedule(10, record("later"))
        if reserved:
            # queued once the clock has moved, after "later" was scheduled
            k.schedule(5, lambda: k.schedule_at(10, seq, record("slot")))
        else:
            k.schedule(5, lambda: None)
        k.run_until(20)
        return log

    assert trace(reserved=True) == trace(reserved=False) == [
        (10, "earlier"), (10, "slot"), (10, "later")]


def test_reserve_takes_the_next_sequence_number():
    k = Kernel(seed=1)
    assert k.schedule(0, lambda: None) == 1
    assert k.reserve() == 2
    assert k.schedule(0, lambda: None) == 3


def test_schedule_at_before_now_rejected():
    k = Kernel(seed=1)
    k.run_until(100)
    seq = k.reserve()
    with pytest.raises(ValueError):
        k.schedule_at(99, seq, lambda: None)


def test_run_until_empty_queue_advances_clock():
    k = Kernel(seed=1)
    assert k.run_until(500) == 0
    assert k.now == 500


def test_run_until_before_pending_event():
    k = Kernel(seed=1)
    k.schedule(10, lambda: None)
    assert k.run_until(5) == 0
    assert k.now == 5
    assert k.pending() == 1


def test_discard_pending_drops_queued_events():
    k = Kernel(seed=1)
    fired = []
    k.schedule(10, lambda: fired.append(k.now))
    k.discard_pending()
    assert k.pending() == 0
    assert k.run_until(20) == 0
    assert fired == []


def test_self_rescheduling_chain():
    # period-10 chain: fires at 0, 10, 20 within run_until(25)
    k = Kernel(seed=1)
    fired = []

    def tick():
        fired.append(k.now)
        k.schedule(10, tick)

    k.schedule(0, tick)
    assert k.run_until(25) == 3
    assert fired == [0, 10, 20]


def test_clock_never_retreats():
    k = Kernel(seed=1)
    seen = []
    for d in (30, 10, 20):
        k.schedule(d, lambda: seen.append(k.now))
    k.run_until(100)
    assert seen == sorted(seen)
    with pytest.raises(ValueError):
        k.run_until(50)


def test_streams_deterministic_per_label():
    a = Kernel(seed=9).stream("a")
    b = Kernel(seed=9).stream("a")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_streams_differ_between_labels():
    k = Kernel(seed=9)
    xs = [k.stream("a").random() for _ in range(100)]
    ys = [k.stream("b").random() for _ in range(100)]
    assert xs != ys


def test_streams_differ_between_seeds():
    xs = [Kernel(seed=1).stream("a").random() for _ in range(10)]
    ys = [Kernel(seed=2).stream("a").random() for _ in range(10)]
    assert xs != ys
