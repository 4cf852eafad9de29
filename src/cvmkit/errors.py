"""Common exception base for the package, the input readers and decoders
that raise it, and the one writer every artifact goes through.

Every domain error raised by cvmkit derives from :class:`CvmError` so callers
(and the command-line layer) can catch one type and translate it into a
diagnostic plus a nonzero exit status.  A JSON document a user hands in (a
saved fit, a seed config) is read through :func:`read_json`, and each of its
fields through one of :func:`number`, :func:`integer`, :func:`mapping` and
:func:`string`, which name the field one way: ``"<name> is <value>, not ..."``.
:func:`write_atomic` is the only code in the package that writes a file: a
reader never sees a half-written artifact, and a path it cannot write is a
:class:`CvmError` as well.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

__all__ = ["CvmError"]

T = TypeVar("T")


class CvmError(Exception):
    """Base class for all cvmkit domain errors."""


@contextmanager
def reading(path: str | Path) -> Iterator[None]:
    """Raise ``CvmError("cannot read <path>: <reason>")`` for an ``OSError`` in the block."""
    try:
        yield
    except OSError as exc:
        raise CvmError(f"cannot read {path}: {exc.strerror or exc}") from None


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


def number(value: object, name: str) -> float:
    """``float(value)`` of a finite JSON number: not ``true`` or ``"0.9"``, nor NaN,
    an infinity or an integer past the largest float, which JSON readers all take."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CvmError(f"{name} is {value!r}, not a number")
    try:
        result = float(value)
    except OverflowError:  # an integer past the largest float
        result = math.inf
    if not math.isfinite(result):
        raise CvmError(f"{name} is {value!r}, not a finite number")
    return result


def integer(value: object, name: str) -> int:
    """``value`` if :func:`number` takes it and it is a JSON integer: not ``38.6`` or ``true``."""
    if type(value) is not bool:
        number(value, name)
    if type(value) is not int:
        raise CvmError(f"{name} is {value!r}, not an integer")
    return value


def mapping(value: object, name: str) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise CvmError(f"{name} is {value!r}, not an object")
    return value


def string(value: object, name: str) -> str:
    """``value`` if it is a JSON string (``null`` or ``5`` would pass ``str()`` as a name)."""
    if not isinstance(value, str):
        raise CvmError(f"{name} is {value!r}, not a string")
    return value


def read_json(path: str | Path, what: str, build: Callable[[Any], T]) -> T:
    """``build`` applied to the JSON document in the file at ``path``.

    A file that cannot be read, bytes that are not UTF-8, text that is not
    JSON, a key ``build`` misses and a :class:`CvmError` from ``build`` raise
    :class:`CvmError` naming the file.
    """
    with reading(path):
        text = decode_utf8(
            Path(path).read_bytes(),
            lambda message, line: CvmError(f"{what} {path}: line {line}: {message}"),
        )
    try:
        document = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise CvmError(f"{what} is not valid JSON: {path}: {exc}") from None
    try:
        return build(document)
    except KeyError as exc:
        raise CvmError(f"{what} {path}: missing field {exc}") from None
    except CvmError as exc:
        raise CvmError(f"{what} {path}: {exc}") from None


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
