"""Shared formatting and atomic file writing for reports and indices.

Report numbers are rendered with a fixed 6-decimal format so repeated runs
produce byte-identical files; files are written to a uniquely named
temporary sibling and renamed into place, so readers never observe a
partial file and concurrent writers into one directory do not collide.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

# The process umask, read once; os.umask can only be read by setting it.
_UMASK = os.umask(0)
os.umask(_UMASK)


def fmt6(value: float | None) -> str:
    """Fixed 6-decimal rendering; None becomes ``undefined``.

    Negative zero is normalized so -1e-9 and 1e-9 render identically.
    """
    if value is None:
        return "undefined"
    text = format(value, ".6f")
    return "0.000000" if text == "-0.000000" else text


def atomic_write_with(path, writer) -> None:
    """Run ``writer(tmp_path)`` on a fresh temporary sibling and rename it
    into place; if the writer raises, the temporary file is removed and any
    existing ``path`` is left untouched."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        # mkstemp creates the file 0600; give it the mode open() would.
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text via a temporary file and an atomic rename."""

    def write(tmp) -> None:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)

    atomic_write_with(path, write)


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
