"""Text file helpers with transparent gzip by ``.gz`` suffix.

Gzip output pins the header timestamp to zero so identical content always
produces identical bytes, which the determinism guarantees depend on.
"""

from __future__ import annotations

import gzip
import io
import os
from contextlib import contextmanager, suppress


class _GzipTextWriter(io.TextIOWrapper):
    """Text wrapper over a timestamp-free gzip stream.

    GzipFile does not close a caller-supplied file object, so this wrapper
    closes the whole chain: text layer, gzip layer, then the file itself.
    """

    def __init__(self, path):
        self._binary = open(path, "wb")
        # Level 9 spends about 80% of a write in zlib for files only 4% smaller.
        raw = gzip.GzipFile(
            filename="", mode="wb", fileobj=self._binary, mtime=0, compresslevel=6
        )
        super().__init__(raw, encoding="utf-8", newline="")

    def close(self):
        try:
            super().close()
        finally:
            self._binary.close()


@contextmanager
def open_text_write(path):
    """Text file for writing at ``path``, gzip when it ends in ``.gz``.

    The text goes to a temporary sibling that replaces ``path`` only when
    the block finishes without error, so a failed or killed run never
    leaves a truncated file there.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        if name.endswith(".gz"):
            fh = _GzipTextWriter(temporary)
        else:
            fh = open(temporary, "w", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temporary)
        raise
