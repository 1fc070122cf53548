"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path):
    """Text file handle (ASCII) for `path`, written to a temporary file in
    the same directory and renamed over `path` with `os.replace` once the
    block finishes. If the block raises, the temporary file is removed and
    `path` is left as it was. The temporary file is created like `open`
    would create `path` (mode 0o666 less the umask). A symbolic link is
    followed, so its target is replaced and the link stays; an existing
    `path` that is not a regular file, such as /dev/null or a pipe, is
    written in place and never replaced. A temporary file that cannot be
    created raises the OSError for `path` itself, the same on every run."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(real, "w", encoding="ascii") as fh:
            yield fh
        return
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="ascii")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
