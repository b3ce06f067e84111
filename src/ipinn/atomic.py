"""Atomic replacement of artifact files."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Write through a temporary file beside `path`, then move it onto `path`.

    The temporary name carries the process id, so processes writing the same
    target never share one.  A reader of `path` sees the old file or the
    whole new one, never a part.  If the body raises, the temporary file is
    removed and whatever `path` held before is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
