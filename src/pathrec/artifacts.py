"""Atomic artifact writes, and artifact reads parsed once per content.

Every file the package writes goes through ``atomic_open``: the content is
written to a temporary file next to the target and moved over it with
``os.replace`` only once it is complete, so an interrupted or failing
write leaves the previous file (or none) in place, never a truncated one.
Parent directories are created on demand.

Readers parse through ``parse_once``: each reader keeps the value of the
last bytes it parsed, keyed by their sha256, so the stages of one process
that read an unchanged artifact parse it once while every check that
compares it with the run still runs on each read.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import ParseError


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


def canonical_json(obj) -> str:
    """Key-sorted JSON without whitespace, from json's C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: str, obj):
    """``canonical_json`` of ``obj`` on one line with one trailing newline,
    written at once. Read it indented with ``python -m json.tool FILE``."""
    text = canonical_json(obj)
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


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def decode_text(path: str, data: bytes) -> str:
    """A text file's bytes as a text-mode ``open`` reads them. Bytes that do
    not decode raise ParseError naming ``path`` and the first bad byte's
    offset, without echoing the file's content."""
    try:
        return io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} does not decode as {exc.encoding}: "
                         f"{exc.reason}") from None


# reader name -> (sha256 of the bytes it last parsed, their value)
_parsed: dict[str, tuple[bytes, object]] = {}


def parse_once(reader: str, blobs: tuple[bytes, ...], parse):
    """``parse()``, the value of ``blobs``, the bytes ``reader`` parses; or
    the value it returned when ``reader`` last parsed these same bytes.
    Each reader keeps one value, so a value is shared by every caller that
    reads the same bytes and must not be changed. A parse that raises
    keeps nothing."""
    key = hashlib.sha256()
    for blob in blobs:
        key.update(len(blob).to_bytes(8, "little"))
        key.update(blob)
    key = key.digest()
    slot = _parsed.get(reader)
    if slot is None or slot[0] != key:
        slot = _parsed[reader] = key, parse()
    return slot[1]


def parse_json(path: str, data: bytes):
    """The value of a JSON file's bytes (``decode_text``), parsed once per
    content by the reader of the file's name (``parse_once``)."""
    return parse_once(f"json:{os.path.basename(path)}", (data,),
                      lambda: json.loads(decode_text(path, data)))
