# rit: module=repro.service.fixture_blocking_bad
"""RIT009 fixture: blocking calls in coroutine bodies (depth 0)."""

import time
from pathlib import Path
from time import sleep


async def drain(queue, ledger_path):
    time.sleep(0.1)  # expect: RIT009
    sleep(0.1)  # expect: RIT009
    handle = open(ledger_path)  # expect: RIT009
    text = Path(ledger_path).read_text()  # expect: RIT009
    Path(ledger_path).write_text(text)  # expect: RIT009
    return handle


class Frontend:
    async def close(self, path):
        payload = Path(path).read_bytes()  # expect: RIT009
        Path(path).write_bytes(payload)  # expect: RIT009
