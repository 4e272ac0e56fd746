"""File discovery for ``rit analyze``: the tree walk and ``--changed``.

:func:`iter_python_files` defines "the project's Python files" for every
rule; :func:`git_changed_files` answers "which files changed relative to
a git base ref?" for ``--changed``, which narrows the *reported*
findings (every file is still analyzed, warm ones from the cache).

Directories named in :data:`EXCLUDED_DIR_NAMES` (caches, build output,
deliberately-broken rule *fixtures*) are pruned during the walk
— but a file named explicitly is always yielded, which is how fixture
tests exercise broken snippets.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "EXCLUDED_DIR_NAMES",
    "iter_python_files",
    "git_changed_files",
    "GitError",
]

#: Directory names never descended into during discovery.
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
        "fixtures",
        "analysis_fixtures",
        "node_modules",
        ".venv",
    }
)


class GitError(RuntimeError):
    """``git`` could not answer a changed-files query (not a repo, bad ref)."""


def _excluded(relative_parts: Sequence[str]) -> bool:
    return any(
        part in EXCLUDED_DIR_NAMES or part.endswith(".egg-info")
        for part in relative_parts
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every discoverable ``.py`` file under ``paths``, deduplicated.

    Explicit file arguments bypass the exclusion list; directories are
    walked recursively with excluded directories pruned.  Exclusion is
    judged on the path parts *below* each given root, so a fixture
    project can still be analyzed by naming its directory directly.
    """
    seen = set()
    for path in paths:
        path = Path(path)
        if path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if _excluded(candidate.relative_to(path).parts[:-1]):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield candidate
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def _git_lines(args: List[str], cwd: Path) -> List[str]:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=str(cwd),
            capture_output=True,
            text=True,
        )
    except OSError as exc:  # git binary missing
        raise GitError(f"git unavailable: {exc}") from exc
    if proc.returncode != 0:
        raise GitError(
            f"git {' '.join(args)} failed: {proc.stderr.strip() or proc.stdout.strip()}"
        )
    return [line for line in proc.stdout.splitlines() if line.strip()]


def git_changed_files(
    base_ref: str = "main",
    *,
    cwd: Optional[Path] = None,
) -> List[Path]:
    """Python files differing from ``base_ref``, plus untracked ones.

    The union of ``git diff --name-only <base_ref>`` (committed + staged +
    working-tree edits relative to the ref) and untracked, non-ignored
    files.  Paths are returned absolute; deleted files are filtered out
    (there is nothing left to lint).  Raises :class:`GitError` when the
    query cannot be answered.
    """
    root_dir = Path(cwd) if cwd is not None else Path.cwd()
    top = Path(_git_lines(["rev-parse", "--show-toplevel"], root_dir)[0])
    names = _git_lines(["diff", "--name-only", base_ref, "--", "*.py"], root_dir)
    names += _git_lines(
        ["ls-files", "--others", "--exclude-standard", "--", "*.py"], root_dir
    )
    changed: List[Path] = []
    seen = set()
    for name in names:
        path = (top / name).resolve()
        if path in seen or not path.is_file() or path.suffix != ".py":
            continue
        seen.add(path)
        changed.append(path)
    return sorted(changed)
