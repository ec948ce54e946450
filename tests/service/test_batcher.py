"""Dynamic batcher flush policy (pure bookkeeping, no engine)."""

import math

import pytest

from repro.service.batcher import DynamicBatcher
from repro.service.request import Request


def make_request(request_id=0):
    return Request(request_id=request_id, arrival_us=0.0)


def test_empty_batcher_is_idle():
    batcher = DynamicBatcher(max_batch=4, max_delay_us=5000.0)
    assert len(batcher.pending) == 0
    assert batcher.deadline_us() == math.inf
    assert not batcher.ready(now_us=1e9)
    with pytest.raises(ValueError, match="empty batcher"):
        batcher.take()


def test_flushes_when_full():
    batcher = DynamicBatcher(max_batch=2, max_delay_us=5000.0)
    batcher.push(make_request(0), now_us=100.0)
    assert not batcher.ready(now_us=100.0)
    batcher.push(make_request(1), now_us=101.0)
    # Full batch flushes immediately, long before the delay deadline.
    assert batcher.ready(now_us=101.0)
    assert [r.request_id for r in batcher.take()] == [0, 1]
    assert len(batcher.pending) == 0


def test_single_request_flushes_at_max_delay():
    batcher = DynamicBatcher(max_batch=8, max_delay_us=5000.0)
    batcher.push(make_request(0), now_us=1000.0)
    assert batcher.deadline_us() == 6000.0
    assert not batcher.ready(now_us=5999.0)
    # A lone request must not wait for company forever: the max-delay
    # deadline flushes a partial batch of one.
    assert batcher.ready(now_us=6000.0)
    assert [r.request_id for r in batcher.take()] == [0]


def test_deadline_tracks_oldest_pending():
    batcher = DynamicBatcher(max_batch=8, max_delay_us=1000.0)
    batcher.push(make_request(0), now_us=0.0)
    batcher.push(make_request(1), now_us=900.0)
    assert batcher.deadline_us() == 1000.0
    assert batcher.ready(now_us=1000.0)
    assert len(batcher.take()) == 2
    # The queue drained; a new push restarts the clock from its time.
    batcher.push(make_request(2), now_us=5000.0)
    assert batcher.deadline_us() == 6000.0


def test_take_pops_at_most_max_batch_fifo():
    batcher = DynamicBatcher(max_batch=2, max_delay_us=0.0)
    for index in range(5):
        batcher.push(make_request(index), now_us=float(index))
    assert [r.request_id for r in batcher.take()] == [0, 1]
    assert [r.request_id for r in batcher.take()] == [2, 3]
    assert [r.request_id for r in batcher.take()] == [4]


def test_invalid_configuration_raises():
    with pytest.raises(ValueError):
        DynamicBatcher(max_batch=0, max_delay_us=100.0)
    with pytest.raises(ValueError):
        DynamicBatcher(max_batch=1, max_delay_us=-1.0)
