"""Atomic replacement of the files relkd writes."""

from __future__ import annotations

import os
import tempfile


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file in ``path``'s directory,
    then ``os.replace`` it onto ``path``: readers see the old file or the new
    one, and a failed write leaves the old file and no temporary file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open(path, "w") would give
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
