"""Text file helpers: the ``key=value`` reader of config and spec files,
and output with transparent gzip by ``.gz`` suffix.

Gzip output pins the header timestamp to zero so identical content always
produces identical bytes, which the determinism guarantees depend on.
"""

from __future__ import annotations

import gzip
import io
import os
from contextlib import ExitStack, contextmanager, suppress
from typing import Callable, Collection, Dict


def read_key_values(
    path, allowed: Collection[str], error: Callable[[str], Exception]
) -> Dict[str, str]:
    """The ``key=value`` lines of ``path``, with ``-`` in keys read as ``_``.

    Blank lines and ``#`` comments are skipped.  A line without ``=`` and a
    repeated key are refused first, then the first key not in ``allowed``:
    each raises ``error`` with a message that starts ``PATH:LINE:``.
    """
    values: Dict[str, str] = {}
    line_of: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw_line in enumerate(fh, 1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}:{line_number}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in values:
                raise error(f"{path}:{line_number}: duplicate key {key!r}")
            values[key] = value.strip()
            line_of[key] = line_number
    for key in values:
        if key not in allowed:
            raise error(f"{path}:{line_of[key]}: unknown key {key!r}")
    return values


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
        # GzipFile leaves a caller's file open, so the stack closes every
        # layer, the upper first: text, gzip, file.
        with ExitStack() as layers:
            binary = layers.enter_context(open(temporary, "wb"))
            if name.endswith(".gz"):
                # Level 9 spends about 80% of a write in zlib for files only
                # 4% smaller.
                binary = layers.enter_context(gzip.GzipFile(
                    filename="", mode="wb", fileobj=binary, mtime=0, compresslevel=6
                ))
            yield layers.enter_context(
                io.TextIOWrapper(binary, encoding="utf-8", newline="")
            )
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temporary)
        raise
