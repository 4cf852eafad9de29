"""Common exception base for the package, the input decoders that raise it,
and the one writer every artifact goes through.

Every domain error raised by cvmkit derives from :class:`CvmError` so callers
(and the command-line layer) can catch one type and translate it into a
diagnostic plus a nonzero exit status.  :func:`write_atomic` is the only code
in the package that writes a file: a reader never sees a half-written
artifact, and a path it cannot write is a :class:`CvmError` as well.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class CvmError(Exception):
    """Base class for all cvmkit domain errors."""


def decode_utf8(data: bytes, error: Callable[[str, int], CvmError]) -> str:
    """``data`` as UTF-8 text without a leading byte-order mark.

    The first invalid byte raises ``error(message, line)``, where ``line``
    is the 1-based line that holds the byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the sentinel makes a line-ending-terminated prefix count the next line
        line = len((data[: exc.start] + b"x").splitlines())
        raise error(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line) from None
    return text.removeprefix("\ufeff")


def read_json(path: str | Path, what: str, build: Callable[[Any], T]) -> T:
    """``build`` applied to the JSON document in the file at ``path``.

    Bytes that are not UTF-8, text that is not JSON, and a document that
    ``build`` cannot read (a missing key, a value of the wrong type) raise
    :class:`CvmError` naming ``what`` and the file.
    """
    text = decode_utf8(
        Path(path).read_bytes(),
        lambda message, line: CvmError(f"{what} {path}: line {line}: {message}"),
    )
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CvmError(f"{what} is not valid JSON: {path}: {exc}") from None
    try:
        return build(document)
    except KeyError as exc:
        raise CvmError(f"{what} {path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CvmError(f"{what} {path}: malformed field: {exc}") from None


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temp file and a rename.

    The temp file sits next to ``path``, is created with the mode ``open``
    gives, and is removed on any failure; an ``OSError`` raises
    ``CvmError("cannot write <path>: <reason>")``.
    """
    target = Path(path)
    # a fresh random name, created exclusively: the process umask, which
    # every thread shares, sets the mode and is never changed
    name = target.parent / f".{target.name}.{uuid.uuid4().hex}.tmp"
    tmp = None
    try:
        with open(name, "x", encoding="utf-8") as handle:
            tmp = name
            handle.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CvmError(f"cannot write {target}: {exc.strerror or exc}") from None
        raise
