"""Common exception base for the package, and the input decoders that raise it.

Every domain error raised by cvmkit derives from :class:`CvmError` so callers
(and the command-line layer) can catch one type and translate it into a
diagnostic plus a nonzero exit status.
"""

from __future__ import annotations

import json
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
