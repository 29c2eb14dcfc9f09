"""Atomic replacement of the files relkd writes."""

from __future__ import annotations

import os


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new temporary file in ``path``'s
    directory, then ``os.replace`` it onto ``path``: readers see the old file
    or the new one, and a failed write leaves the old file and no temporary
    file. The file is created with mode 0o666 less the umask, as
    ``open(path, "w")`` creates one."""
    target = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(target),
                       f".{os.path.basename(target)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
