"""`simkit.run_forked`, the one way mindkit runs independent jobs on every CPU.

Each call runs in a child forked for it when there is more than one worker, and in
this process otherwise; its value is consumed in call order.  The calls here are
trivial, so each test checks the rule itself: the order, the number of children
alive at once, and that a failure or an interrupt leaves no child behind.
"""

from __future__ import annotations

import os
import time

import pytest

from mindkit import simkit

WORKERS = [1, 2, 3]


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def value(i: int):
    return lambda: (i, os.getpid())


def sleeper():
    time.sleep(60)  # a child that is never read: only a kill ends it in time


@pytest.mark.parametrize("workers", WORKERS)
def test_values_are_consumed_in_call_order(workers):
    consumed = []
    simkit.run_forked((value(i) for i in range(7)), workers, consumed.append)
    assert [i for i, _ in consumed] == list(range(7))
    # one worker runs every call here; more run each in a child
    ran_here = [pid == os.getpid() for _, pid in consumed]
    assert all(ran_here) if workers == 1 else not any(ran_here)
    assert no_child_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_at_most_workers_children_are_alive(workers, monkeypatch):
    forked_init, forked_stop, live, most = (simkit._Forked.__init__, simkit._Forked.stop,
                                            [0], [0])

    def started(forked, call):
        forked_init(forked, call)  # returns only in this process: the child ends in it
        live[0] += 1
        most[0] = max(most[0], live[0])

    def stopped(forked):
        forked_stop(forked)
        live[0] -= 1

    monkeypatch.setattr(simkit._Forked, "__init__", started)
    monkeypatch.setattr(simkit._Forked, "stop", stopped)
    consumed = []
    simkit.run_forked((value(i) for i in range(6)), workers, consumed.append)
    assert len(consumed) == 6
    assert most == [workers if workers > 1 else 0] and live == [0]


def failing():
    raise ValueError("call 1 failed")


@pytest.mark.parametrize("workers", WORKERS)
def test_a_failing_call_stops_the_later_calls(workers):
    consumed = []
    calls = [value(0), failing, sleeper, sleeper]
    started = time.monotonic()
    with pytest.raises(ValueError, match="call 1 failed"):
        simkit.run_forked(iter(calls), workers, consumed.append)
    assert [i for i, _ in consumed] == [0]
    assert time.monotonic() - started < 30  # the sleepers were killed, not waited for
    assert no_child_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_a_failing_consume_stops_the_later_calls(workers):
    def consume(got):
        raise OSError(f"cannot store {got[0]}")

    with pytest.raises(OSError, match="cannot store 0"):
        simkit.run_forked(iter([value(0), sleeper, sleeper]), workers, consume)
    assert no_child_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_an_exception_from_the_iterator_comes_after_the_calls_before_it(workers):
    consumed = []

    def calls():
        for i in range(3):
            yield value(i)
        raise LookupError("no fourth call")

    with pytest.raises(LookupError, match="no fourth call"):
        simkit.run_forked(calls(), workers, consumed.append)
    assert [i for i, _ in consumed] == [0, 1, 2]
    assert no_child_left()


@pytest.mark.parametrize("workers", WORKERS)
def test_an_interrupt_consumes_nothing_more_and_leaves_no_child(workers):
    consumed = []

    def calls():
        yield value(0)
        yield sleeper if workers > 1 else value(1)
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        simkit.run_forked(calls(), workers, consumed.append)
    # consumed as each call made `workers` wait; the rest are killed, not waited for
    assert [i for i, _ in consumed] == {1: [0, 1], 2: [0], 3: []}[workers]
    assert time.monotonic() - started < 30
    assert no_child_left()


def test_a_child_that_ends_without_a_result_is_an_error():
    with pytest.raises(ChildProcessError, match="ended without a result"):
        simkit.run_forked([lambda: os._exit(3)], 2, [].append)
    assert no_child_left()
