"""Durable writes: the one way this package puts a whole file on disk.

:func:`atomic_open` writes to ``<name>.tmp<pid>`` beside the target
and renames it over the target, so a reader sees the old file or the
new one, never a torn one; a killed writer leaves only the temp file,
which no reader opens and :func:`sweep_temp_files` removes once its
writer is dead, and concurrent writers of one target never share it.
``fsync=True`` also flushes the file and its directory, so
the rename survives a power loss; only the campaign supervisor's
write-ahead records need that.  Nothing else in :mod:`repro` calls
``os.replace`` or ``os.fsync`` (``tests/test_durable.py``).
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any


@contextmanager
def atomic_open(
    path: Path | str, mode: str = "w", *, fsync: bool = False
) -> Iterator[IO[Any]]:
    """Yield a handle on a temp file beside *path*, streaming, and
    rename it over *path* when the block ends.  If the block raises,
    the temp file is removed and *path* is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, mode) as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    if fsync:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def write_atomic(
    path: Path | str, data: str | bytes, *, fsync: bool = False
) -> None:
    """Write *data* whole to *path* through :func:`atomic_open`."""
    mode = "wb" if isinstance(data, bytes) else "w"
    with atomic_open(path, mode, fsync=fsync) as handle:
        handle.write(data)


def pid_alive(pid: int) -> bool:
    """Whether *pid* names a live process (or one we may not signal)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


#: The suffix :func:`atomic_open` gives its temp file.
_TEMP_SUFFIX = re.compile(r"\.tmp(\d+)$")


def sweep_temp_files(directory: Path | str) -> None:
    """Remove the temp files killed writers left in *directory*: every
    ``<name>.tmp<pid>`` whose pid is not a live process.  A live
    writer's temp file stays."""
    for path in Path(directory).iterdir():
        match = _TEMP_SUFFIX.search(path.name)
        if match and not pid_alive(int(match.group(1))):
            path.unlink(missing_ok=True)
