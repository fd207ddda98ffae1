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
import secrets
from pathlib import Path


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
    # Created as open() creates a file, so its mode follows the umask in
    # force at the call; O_EXCL makes a name collision fail, not share.
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        writer(tmp)
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
