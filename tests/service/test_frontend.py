"""Bounded-queue frontend: validation, backpressure, close semantics."""

import asyncio

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
