"""Incremental per-file cache keyed by file content hash.

Parsing, extraction and the file-local rules dominate analyzer wall time;
the interprocedural passes over the (small) summaries are cheap.  So the
cache stores one serialized :class:`FileAnalysis` per file — its module
summary and its file-local findings — keyed by the sha256 of the file's
bytes: a warm run re-parses only files whose content changed and
deserializes the rest.  Linking and the passes always run fresh — a
summary is per-file truth, reachability is not.

The cache file (default ``.rit_analysis_cache.json``, git-ignored) is a
single JSON document::

    {"schema": "<tool digest>", "entries": {"<relpath>": {"sha256": "...", ...}}}

The schema is :func:`tool_digest`, a hash over the analyzer's and the
rules' own source: cached findings are only as current as the code that
produced them, so editing any of it discards the cache wholesale, as does
any parse problem — it is a pure accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.devtools.analysis.summary import FileAnalysis, analyze_file

__all__ = ["CACHE_FILENAME", "TOOL_SOURCES", "SummaryCache", "content_hash", "tool_digest"]

CACHE_FILENAME = ".rit_analysis_cache.json"

#: Packages whose source decides what a cached entry holds.
TOOL_SOURCES = (Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "lint")


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tool_digest() -> str:
    """sha256 over every ``*.py`` file (name and bytes) of :data:`TOOL_SOURCES`."""
    digest = hashlib.sha256()
    for package in TOOL_SOURCES:
        for path in sorted(package.rglob("*.py")):
            digest.update(path.relative_to(package.parent).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class SummaryCache:
    """Load-once / save-once per-file cache with hit accounting."""

    path: Optional[Path] = None
    schema: str = ""
    entries: Dict[str, Dict[str, object]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    @classmethod
    def load(cls, path: Optional[Path]) -> "SummaryCache":
        cache = cls(path=path, schema=tool_digest())
        if path is None or not path.is_file():
            return cache
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(doc, dict) or doc.get("schema") != cache.schema:
            return cache
        entries = doc.get("entries")
        if isinstance(entries, dict):
            cache.entries = entries
        return cache

    def save(self) -> None:
        if self.path is None:
            return
        doc = {"schema": self.schema, "entries": self.entries}
        self.path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    def analyze(self, path: Path, key: str) -> Tuple[FileAnalysis, bool]:
        """:func:`analyze_file` for ``path`` (cache key ``key``), plus hit flag."""
        data = path.read_bytes()
        digest = content_hash(data)
        entry = self.entries.get(key)
        if entry is not None and entry.get("sha256") == digest:
            try:
                analysis = FileAnalysis.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                pass
            else:
                self.hits += 1
                return analysis, True
        analysis = analyze_file(path, source=data)
        self.entries[key] = {"sha256": digest, **analysis.to_dict()}
        self.misses += 1
        return analysis, False

    def prune(self, live_keys: Iterable[str]) -> None:
        """Drop entries for files that no longer exist in the analyzed set."""
        live = set(live_keys)
        for key in list(self.entries):
            if key not in live:
                del self.entries[key]
