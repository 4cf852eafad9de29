"""Common exception base for the package.

Every domain error raised by cvmkit derives from :class:`CvmError` so callers
(and the command-line layer) can catch one type and translate it into a
diagnostic plus a nonzero exit status.
"""

from __future__ import annotations

from typing import Callable


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
