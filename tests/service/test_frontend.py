"""Bounded-queue frontend: validation, backpressure, close semantics."""

import asyncio
import random

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job
from repro.service.events import AskSubmitted
from repro.service.frontend import IngestFrontend

JOB = Job([4, 3, 5])


def ask(uid, task_type=0):
    return AskSubmitted(
        tick=0, user_id=uid, task_type=task_type, capacity=2, value=1.0
    )


def run(coro):
    return asyncio.run(coro)


async def drain(frontend):
    """Take every event the way ``MechanismService.serve`` does."""
    seen = []
    event = await frontend.get()
    while event is not None:
        while event is not None:
            seen.append(event.user_id)
            event = frontend.get_nowait()
        event = await frontend.get()
    return seen


class TestOffer:
    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ConfigurationError):
            IngestFrontend(JOB, maxsize=0)

    def test_invalid_event_never_occupies_queue_space(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=2)
            reason = frontend.offer(ask(0, task_type=99))
            assert reason.startswith("invalid:")
            assert (frontend.offered, frontend.invalid, frontend.depth) == (1, 1, 0)

        run(main())

    def test_backpressure_after_capacity(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=2)
            assert frontend.offer(ask(0)) is None
            assert frontend.offer(ask(1)) is None
            assert frontend.offer(ask(2)) == "backpressure"
            assert frontend.rejected == 1
            assert frontend.accepted == 2
            assert frontend.highwater == 2

        run(main())

    def test_offer_after_close_refused(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=4)
            await frontend.close()
            assert frontend.offer(ask(0)) == "closed"

        run(main())

    def test_counters_balance(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)
            frontend.offer(ask(0))
            frontend.offer(ask(1))  # backpressure
            frontend.offer(ask(2, task_type=99))  # invalid
            assert frontend.offered == (
                frontend.accepted + frontend.invalid + frontend.rejected
            )

        run(main())

    def test_counters_balance_after_close(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=4)
            assert frontend.offer(ask(0)) is None
            await frontend.close()
            assert frontend.offer(ask(1)) == "closed"
            assert await frontend.put(ask(2)) == "closed"
            counts = (
                frontend.offered,
                frontend.accepted,
                frontend.invalid,
                frontend.rejected,
                frontend.gated,
            )
            assert counts == (1, 1, 0, 0, 0)

        run(main())


class TestPutAndDrain:
    def test_put_waits_for_consumer(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)

            async def producer():
                for uid in range(3):
                    assert await frontend.put(ask(uid)) is None
                await frontend.close()

            task = asyncio.ensure_future(producer())
            seen = await drain(frontend)
            await task
            assert seen == [0, 1, 2]
            assert frontend.accepted == 3
            assert frontend.rejected == 0

        run(main())

    def test_put_still_refuses_invalid(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)
            reason = await frontend.put(ask(0, task_type=99))
            assert reason.startswith("invalid:")

        run(main())

    def test_events_stops_at_close_sentinel(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=4)
            frontend.offer(ask(0))
            await frontend.close()
            assert await drain(frontend) == [0]
            # The sentinel is taken once; the stream stays ended.
            assert await frontend.get() is None
            assert frontend.get_nowait() is None

        run(main())

    def test_get_nowait_on_an_empty_queue_does_not_end_the_stream(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=4)
            assert frontend.get_nowait() is None
            frontend.offer(ask(0))
            assert frontend.get_nowait().user_id == 0
            assert frontend.get_nowait() is None
            frontend.offer(ask(1))
            await frontend.close()
            assert (await frontend.get()).user_id == 1
            assert await frontend.get() is None

        run(main())


@pytest.fixture
def queue_puts(monkeypatch):
    """Every item handed to ``asyncio.Queue.put``, in call order."""
    calls = []
    original = asyncio.Queue.put

    async def counted(self, item):
        calls.append(item)
        return await original(self, item)

    monkeypatch.setattr(asyncio.Queue, "put", counted)
    return calls


def balanced(frontend):
    return frontend.offered == (
        frontend.accepted + frontend.invalid + frontend.rejected + frontend.gated
    )


class TestOneBackpressureWait:
    """``put`` waits for space only by awaiting ``asyncio.Queue.put``.

    perfbench times that call as the ``frontend.backpressure`` layer, so a
    put into a queue with room must not make it.
    """

    def test_a_put_with_room_never_calls_queue_put(self, queue_puts):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=3)
            for uid in range(3):
                assert await frontend.put(ask(uid)) is None
            assert (frontend.depth, frontend.accepted, frontend.highwater) == (3, 3, 3)

        run(main())
        assert queue_puts == []

    def test_a_put_into_a_full_queue_waits_once(self, queue_puts):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)
            assert await frontend.put(ask(0)) is None
            waiting = asyncio.ensure_future(frontend.put(ask(1)))
            for _ in range(3):
                await asyncio.sleep(0)
            assert not waiting.done()
            assert [event.user_id for event in queue_puts] == [1]
            assert frontend.get_nowait().user_id == 0
            assert await waiting is None
            assert frontend.get_nowait().user_id == 1
            assert frontend.accepted == 2 and balanced(frontend)

        run(main())
        assert [event.user_id for event in queue_puts] == [1]

    def test_a_cancelled_wait_enqueues_nothing(self, queue_puts):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)
            assert await frontend.put(ask(0)) is None
            waiting = asyncio.ensure_future(frontend.put(ask(1)))
            await asyncio.sleep(0)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            assert (frontend.depth, frontend.accepted) == (1, 1)
            assert frontend.rejected == 1 and balanced(frontend)
            # The queue still holds only the first event and takes new ones.
            assert frontend.get_nowait().user_id == 0
            assert frontend.get_nowait() is None
            assert await frontend.put(ask(2)) is None
            assert frontend.get_nowait().user_id == 2
            assert frontend.accepted == 2 and balanced(frontend)

        run(main())
        assert [event.user_id for event in queue_puts] == [1]


#: The ``asyncio.Queue`` methods an event that does not wait must not call.
_QUEUE_METHODS = ("put_nowait", "get_nowait", "qsize", "full")


@pytest.fixture
def queue_calls(monkeypatch):
    """Calls to :data:`_QUEUE_METHODS`, by name, on ``asyncio.Queue`` and on
    the class of the frontend's queue (which may override them)."""
    calls = {name: 0 for name in _QUEUE_METHODS}
    queue_class = type(IngestFrontend(JOB)._queue)
    for cls in queue_class.__mro__:
        for name in _QUEUE_METHODS:
            if name in vars(cls):
                original = vars(cls)[name]

                def counted(self, *args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(self, *args)

                monkeypatch.setattr(cls, name, counted)
    return calls


class TestDequeFastPath:
    """An event that does not wait costs deque operations, not queue calls.

    ``put`` and ``offer`` into a queue with room append to its deque, and
    ``get`` and ``get_nowait`` from a queue with items pop from it; a
    parked consumer or producer is woken by hand.
    """

    def test_admissions_with_room_call_no_queue_method(self, queue_calls, queue_puts):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=3)
            assert await frontend.put(ask(0)) is None
            assert frontend.offer(ask(1)) is None
            assert await frontend.put(ask(2)) is None
            assert frontend.offer(ask(3)) == "backpressure"
            assert (frontend.depth, frontend.accepted, frontend.highwater) == (3, 3, 3)
            assert frontend.rejected == 1 and balanced(frontend)

        run(main())
        assert queue_calls == {name: 0 for name in _QUEUE_METHODS}
        assert queue_puts == []

    def test_takes_with_items_call_no_queue_method(self, queue_calls):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=4)
            for uid in range(3):
                frontend.offer(ask(uid))
            assert (await frontend.get()).user_id == 0
            assert frontend.get_nowait().user_id == 1
            assert (await frontend.get()).user_id == 2
            assert frontend.get_nowait() is None
            assert frontend.depth == 0

        run(main())
        assert queue_calls == {name: 0 for name in _QUEUE_METHODS}

    @pytest.mark.parametrize("admission", ["offer", "put"])
    def test_a_parked_consumer_is_woken_by_an_admission(self, admission):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=2)
            taking = asyncio.ensure_future(frontend.get())
            for _ in range(3):
                await asyncio.sleep(0)
            assert not taking.done()
            if admission == "offer":
                assert frontend.offer(ask(7)) is None
            else:
                assert await frontend.put(ask(7)) is None
            event = await asyncio.wait_for(taking, timeout=1.0)
            assert event.user_id == 7 and frontend.depth == 0

        run(main())

    def test_parked_producers_are_woken_in_order(self):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=1)
            assert await frontend.put(ask(0)) is None
            waiting = [asyncio.ensure_future(frontend.put(ask(uid))) for uid in (1, 2, 3)]
            await asyncio.sleep(0)
            assert not any(task.done() for task in waiting)
            seen = []
            for _ in range(4):
                seen.append((await asyncio.wait_for(frontend.get(), timeout=1.0)).user_id)
            assert seen == [0, 1, 2, 3]
            assert [await task for task in waiting] == [None, None, None]
            assert frontend.highwater == 1 and balanced(frontend)

        run(main())

    def test_close_into_a_full_queue_ends_the_stream_after_the_backlog(self, queue_puts):
        async def main():
            frontend = IngestFrontend(JOB, maxsize=2)
            frontend.offer(ask(0))
            frontend.offer(ask(1))
            closing = asyncio.ensure_future(frontend.close())
            await asyncio.sleep(0)
            assert not closing.done()
            assert frontend.offer(ask(2)) == "closed"
            assert await asyncio.wait_for(drain(frontend), timeout=1.0) == [0, 1]
            await closing
            assert await frontend.get() is None
            assert frontend.accepted == 2 and balanced(frontend)

        run(main())
        assert queue_puts == [None]


class TestInterleavedWakeUps:
    """Seeded schedules of producers and one consumer over a small queue.

    The frontend wakes parked consumers and producers by hand, so a lost
    wake-up shows here as a drain that never ends: each trial's drain is
    bounded by ``asyncio.wait_for``, whose timeout fails the test.
    """

    TRIALS = 300

    @staticmethod
    async def trial(rng):
        maxsize = rng.randint(1, 8)
        frontend = IngestFrontend(JOB, maxsize=maxsize)
        plans = [
            [rng.choice(("put", "offer")) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(1, 5))
        ]
        victim = rng.randrange(len(plans))
        admitted = [[] for _ in plans]
        parked = [False] * len(plans)

        async def produce(p):
            for i, mode in enumerate(plans[p]):
                event = ask(100 * p + i)
                if mode == "offer":
                    if frontend.offer(event) is None:
                        admitted[p].append(event.user_id)
                else:
                    # A put suspends only while it waits for room.
                    parked[p] = True
                    assert await frontend.put(event) is None
                    parked[p] = False
                    admitted[p].append(event.user_id)
                if rng.random() < 0.3:
                    await asyncio.sleep(0)

        producers = [asyncio.ensure_future(produce(p)) for p in range(len(plans))]
        cancelled = False

        async def consume():
            nonlocal cancelled
            taken = []
            event = await frontend.get()
            while event is not None:
                while event is not None:
                    taken.append(event.user_id)
                    if not cancelled and parked[victim] and rng.random() < 0.5:
                        producers[victim].cancel()
                        cancelled = True
                    if rng.random() < 0.3:
                        await asyncio.sleep(0)
                    event = frontend.get_nowait()
                event = await frontend.get()
            return taken

        async def close_after_producers():
            outcomes = await asyncio.gather(*producers, return_exceptions=True)
            for p, outcome in enumerate(outcomes):
                if isinstance(outcome, BaseException):
                    assert p == victim and isinstance(outcome, asyncio.CancelledError)
            await frontend.close()

        closer = asyncio.ensure_future(close_after_producers())
        taken = await asyncio.wait_for(consume(), timeout=2.0)
        await closer

        assert len(taken) == len(set(taken)) == frontend.accepted
        assert sorted(taken) == sorted(uid for uids in admitted for uid in uids)
        for p, uids in enumerate(admitted):
            assert [uid for uid in taken if uid // 100 == p] == uids
        assert balanced(frontend) and frontend.invalid == frontend.gated == 0
        assert frontend.highwater <= maxsize
        return cancelled, frontend.rejected

    def test_every_admitted_event_is_taken_once_in_order(self):
        rng = random.Random(20261020)
        cancels = rejections = 0
        for _ in range(self.TRIALS):
            cancelled, rejected = run(self.trial(rng))
            cancels += cancelled
            rejections += rejected > cancelled
        # The schedules reach both refusal paths: a parked put cancelled,
        # and an offer into a full queue.
        assert cancels > self.TRIALS // 10
        assert rejections > self.TRIALS // 10
