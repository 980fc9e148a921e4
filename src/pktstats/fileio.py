"""Text file helpers with transparent gzip by ``.gz`` suffix.

Gzip output pins the header timestamp to zero so identical content always
produces identical bytes, which the determinism guarantees depend on.
"""

from __future__ import annotations

import gzip
import io


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


def open_text_write(path):
    if str(path).endswith(".gz"):
        return _GzipTextWriter(path)
    return open(path, "w", encoding="utf-8", newline="")
