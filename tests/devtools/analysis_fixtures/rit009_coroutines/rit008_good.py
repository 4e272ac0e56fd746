# rit: module=repro.service.fixture_blocking_good
"""RIT009 fixture (clean): awaited sleeps + executor-dispatched I/O."""

import asyncio
import functools


def _append_line(path, line):
    # Sync I/O is fine here: this runs on the worker pool, not the loop.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


async def drain(queue, ledger_path):
    await asyncio.sleep(0)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(
        None, functools.partial(_append_line, ledger_path, "epoch\n")
    )


def flush(path, lines):
    # Plain sync function: open() on a non-loop thread is not a finding.
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
