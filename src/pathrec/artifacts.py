"""Atomic artifact writes.

Every file the package writes goes through ``atomic_open``: the content is
written to a temporary file next to the target and moved over it with
``os.replace`` only once it is complete, so an interrupted or failing
write leaves the previous file (or none) in place, never a truncated one.
Parent directories are created on demand.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """A write handle whose content replaces ``path`` when the block exits
    without an exception; on an exception the temporary file is removed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path: str, obj):
    """Indented, key-sorted JSON with a trailing newline, written at once."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def write_csv(path: str, comment: str, columns: tuple[str, ...], rows):
    """A ``# comment`` line, the header, then one line per row: a dict keyed
    by column or a sequence in column order."""
    with atomic_open(path) as fh:
        fh.write(f"# {comment}\n{','.join(columns)}\n")
        for row in rows:
            values = [row[c] for c in columns] if isinstance(row, dict) else row
            fh.write(",".join(map(str, values)) + "\n")


def write_npz(path: str, **arrays):
    """An uncompressed ``.npz`` archive of the named arrays."""
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)
