"""Survey samples: ingest, validation, export, splitting, and node means.

A survey row is one respondent: who they are (id, role, supplier whose
product they rated) plus a 1-10 rating for each value-tree node they answered
and 0-10 willingness outcomes (would recommend / would repurchase).  Ratings
may be missing per node; every present value is range-checked on ingest and
rejects name the offending file row.  Each respondent id is unique: a repeated
id is an ingest error naming both rows, since it would count one respondent
twice in every mean and fit.

The on-disk form is CSV with a fixed header prefix followed by one column per
tree node (canonical preorder) and the two outcome columns::

    respondent_id,role,supplier,<node ids...>,outcome_recommend,outcome_repurchase

:func:`survey_text` writes it through ``_csv_text``, the package's one CSV
writer (``csv.writer`` with LF line ends), which the plot-data CSVs of
``rendering`` use too.

In memory a :class:`SurveySample` is one columnar store: a fixed-width
bytes array of UTF-8 ids, int8 role codes into :data:`ROLES`, unsigned
supplier codes into a per-sample table of names in canonical order (own
first, the rest sorted), an ``(n, nodes)`` int8 rating matrix in tree
preorder with 0 for a missing rating, and an ``(n, 2)`` int8 outcome matrix
in :class:`OutcomeKind` order with -1 for a missing answer.  A supplier's
rows are a mask from comparing codes, through which the library's own
computations read them; only a caller that asks for the two parts as
samples gets copies, which keep the table.  Outcome lists and root/outcome
pairs are column slices, optionally masked, and complete cases one
compressed copy of the gathered columns.  Other modules read the store only
through the functions below.  The class constructor takes the columns as
given, encoding str ids, and checks no value; ingest is where a file's
values are checked.

Ingest reads a path through one binary file handle, in chunks of a fixed
number of bytes each taken on to the end of its last line; a text stream is
read in pieces of as many characters, each encoded back to UTF-8 into one
in-memory handle.  The line ends left in the handle, counted first, bound
the rows, so each column is made once at that bound and filled in place,
and the sample keeps views of the filled rows.  Every id is held as its
UTF-8 bytes, whose equality is that of the strings.

Two readers write into the columns.  While the file is plain (ASCII, no
quote, no CR but in CRLF, which reads as LF), the byte parser reads a chunk
of whole lines without a NUL byte in which every line has the header's comma
count, every label is non-empty and unpadded, every role is in :data:`ROLES`
and every value cell is canonical (blank or ``1``-``10``, and ``0`` for
outcomes) straight from its bytes, in work arrays made once per ingest that
grow only for a chunk larger than any before: delimiters found with one
array scan, each value cell decoded from its first two bytes, labels
gathered as fixed-width bytes.  The row loop reads every other record, one
at a time, into the next row of the columns: the lines of a plain chunk the
byte parser declines, split at commas (``_split_lines``), and from the first
chunk that is not plain the records of one ``csv.reader`` over the rest of
the file, which reads each byte that is not UTF-8 as one character
U+DC80-U+DCFF (``surrogateescape``).  It strips cells, parses ASCII integers
(digits after an optional sign) and raises the first row-numbered
diagnostic; a NUL byte (which fixed-width ids and labels would drop) or a
byte that is not UTF-8 is its row's first fault.  The row loop accepts and
rejects exactly what it would over the whole file, so the byte parser is only
a shortcut.  Both readers leave the repeat check to one sort: of the id column
once every row is read, or of the ids read so far when a row raises, so a
repeat on an earlier row is the file's first fault whichever reader met it.

Every node mean and half-width is read from one table per sample, kept on it:
each supplier's exact count n, sum and sum of squares of each column, from one
histogram pass over the rating matrix grouped by supplier code.  The whole
sample is the table's sum and the rest of the market the whole minus one row.
:class:`_Side` takes a mean as the sum over n and the 95% half-width as
``1.96 * sqrt((n*sumsq - sum**2) / (n*(n-1))) / sqrt(n)``, whose variance is an
exact integer ratio rounded once and whose later steps are correctly rounded, so
no mean, half-width or supplier listing can depend on row order, BLAS or CPU.

Survey *sourcing* — panel design, who counts as a decision maker, response
weighting — is out of scope; samples are taken as given.
"""

from __future__ import annotations

import bisect
import codecs
import csv
import functools
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import CvmError, reading, write_atomic
from .tree import ValueTree

__all__ = [
    "ROLES",
    "OutcomeKind",
    "SurveySample",
    "MeanWithHalfWidth",
    "SampleCounts",
    "SurveyFormatError",
    "NoRatingsError",
    "survey_columns",
    "ingest_responses",
    "survey_text",
    "write_survey",
    "split_by_supplier",
    "node_mean",
    "node_means",
    "supplier_sums",
    "sample_counts",
    "outcome_values",
    "root_outcome_pairs",
    "complete_cases",
]

ROLES = ("decision_maker", "user")

#: multiplier for the normal-approximation 95% confidence half-width
CONFIDENCE_MULTIPLIER = 1.96

RATING_MIN, RATING_MAX = 1, 10
OUTCOME_MIN, OUTCOME_MAX = 0, 10


class OutcomeKind(str, Enum):
    """Willingness outcomes collected alongside the tree ratings."""

    RECOMMEND = "recommend"
    REPURCHASE = "repurchase"

    @property
    def column(self) -> str:
        return f"outcome_{self.value}"


_OUTCOMES = tuple(OutcomeKind)


class SurveyFormatError(CvmError):
    """Malformed survey data; carries the 1-based file row when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class NoRatingsError(CvmError):
    """No respondent carries the rating(s) a computation needs."""


@dataclass(frozen=True, eq=False)
class SurveySample:
    """An immutable batch of respondents tied to one value tree, held by column.

    ``ids`` is a fixed-width bytes array of UTF-8 ids (a sequence or array of
    str is encoded); ``role_codes`` int8 codes into :data:`ROLES`;
    ``supplier_codes`` unsigned codes into ``supplier_names``, a table of
    distinct names in canonical order (the own supplier first, the rest
    sorted) that may name suppliers no row has; ``ratings`` an ``(n, nodes)``
    int8 matrix in tree preorder, 0 where a rating is missing; ``outcomes``
    an ``(n, 2)`` int8 matrix in :class:`OutcomeKind` order, -1 where an
    answer is missing.  The constructor takes the columns as given and makes
    them read-only.
    """

    tree: ValueTree
    own_supplier: str
    ids: np.ndarray
    role_codes: np.ndarray
    supplier_names: tuple[str, ...]
    supplier_codes: np.ndarray
    ratings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids)
        if ids.dtype.kind != "S":
            ids = np.char.encode(np.asarray(self.ids, dtype=str), "utf-8")
        for column in (ids, self.role_codes, self.supplier_codes, self.ratings, self.outcomes):
            column.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "supplier_names", tuple(self.supplier_names))
        object.__setattr__(self, "_position", _positions(self.tree))

    def _column(self, node_id: str) -> int:
        """Position of ``node_id`` in the rating matrix."""
        self.tree.node(node_id)  # raises UnknownNodeError for foreign ids
        return self._position[node_id]

    def _supplier_column(self) -> list[str]:
        """Each row's supplier name."""
        return list(map(self.supplier_names.__getitem__, self.supplier_codes.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveySample):
            return NotImplemented
        return (
            self.tree == other.tree
            and self.own_supplier == other.own_supplier
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.role_codes, other.role_codes)
            and self._supplier_column() == other._supplier_column()
            and np.array_equal(self.ratings, other.ratings)
            and np.array_equal(self.outcomes, other.outcomes)
        )

    def suppliers(self) -> list[str]:
        """Distinct supplier labels: the own supplier (when present) first, then sorted."""
        return [self.supplier_names[k] for k in np.flatnonzero(self._supplier_counts)]

    @functools.cached_property
    def _supplier_counts(self) -> np.ndarray:
        """Rows per supplier code."""
        return np.bincount(self.supplier_codes, minlength=len(self.supplier_names))

    @functools.cached_property
    def _supplier_moments(self) -> np.ndarray:
        """Per supplier code, rows (count, sum, sum of squares) of each rating column."""
        return _column_moments(self.ratings, self.supplier_codes, len(self.supplier_names))

    @functools.cached_property
    def _moments(self) -> np.ndarray:
        """Rows (count, sum, sum of squares) of each rating column's present values."""
        return self._supplier_moments.sum(axis=0)


def _positions(tree: ValueTree) -> dict[str, int]:
    """Node id -> rating-matrix column (tree preorder)."""
    return {node: j for j, node in enumerate(tree.preorder())}


@dataclass(frozen=True)
class MeanWithHalfWidth:
    """A mean plus its 95% half-width; ``n`` is the count behind it."""

    mean: float
    half_width: float
    n: int


def survey_columns(tree: ValueTree) -> list[str]:
    """The canonical CSV header for ``tree``."""
    return (
        ["respondent_id", "role", "supplier"]
        + list(tree.preorder())
        + [OutcomeKind.RECOMMEND.column, OutcomeKind.REPURCHASE.column]
    )


_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() alone also takes "1_0" and non-ASCII digits


def _parse_int(token: str, lo: int, hi: int, what: str, row: int) -> int:
    if not _INTEGER.fullmatch(token):
        raise SurveyFormatError(f"{what}: {token!r} is not an integer", row)
    value = int(token)
    if not lo <= value <= hi:
        raise SurveyFormatError(f"{what}: {value} outside [{lo}, {hi}]", row)
    return value


def ingest_responses(
    source: str | Path | IO[str], tree: ValueTree, own_supplier: str
) -> SurveySample:
    """Read a survey CSV into a validated :class:`SurveySample`.

    ``source`` is a path or an open text stream.  The header must start with
    ``respondent_id, role, supplier``; every further column must name a tree
    node or an outcome.  Node and outcome columns may be omitted (those
    ratings are then missing for everyone), but unknown names are an error —
    that is what catches a typo'd header.  Any bad cell aborts ingest with the
    offending row number; a header-only file yields an empty sample and a
    warning.  A path is read as UTF-8 in chunks of a bounded number of bytes;
    a stream is read in pieces of as many characters, each encoded back to
    UTF-8 into one in-memory file.  A leading byte-order mark is skipped in
    either source.  A NUL byte, a byte that is not UTF-8, or a lone surrogate
    in a stream's text, is an error naming its row; only a stream whose own
    decoder fails gives an error naming no row.
    """
    if hasattr(source, "read"):
        data = io.BytesIO()
        pieces = iter(functools.partial(source.read, _CHUNK_BYTES), "")  # type: ignore[union-attr]
        try:
            for piece in pieces:
                # surrogatepass lets any str make the round trip through bytes
                data.write(piece.encode("utf-8", "surrogatepass"))
        except UnicodeDecodeError as exc:
            message = f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
            raise SurveyFormatError(message) from None
        data.seek(0)
        return _ingest(data, tree, own_supplier)
    with reading(source), open(source, "rb") as handle:
        return _ingest(handle, tree, own_supplier)


#: Bytes read at a time, by the line count and by the parser.  A bounded chunk
#: keeps the parser's transients independent of the file's length: its reused
#: work arrays take about 13 bytes per chunk byte.  On the 200k-row
#: benchmark panel 256 KiB ingested fastest of 64 KiB-1 MiB, with 7,800 minor
#: page faults against 65,900 for fresh int64 index arrays per 1 MiB chunk.
_CHUNK_BYTES = 1 << 18


@dataclass
class _Layout:
    """Where a file's columns go: its width and the value columns' targets."""

    width: int
    n_nodes: int
    # file column -> (matrix column, name for diagnostics)
    node_cols: dict[int, tuple[int, str]] = field(default_factory=dict)
    outcome_cols: dict[int, tuple[int, str]] = field(default_factory=dict)


def _layout(header: list[str] | None, tree: ValueTree) -> _Layout:
    """Check the header row (None: the file has none) against ``tree``, and lay out its columns."""
    if header is None:
        raise SurveyFormatError("empty file: no header row")
    _refuse_bad_bytes(header, 1)
    header = [h.strip() for h in header]
    fixed = ["respondent_id", "role", "supplier"]
    if header[: len(fixed)] != fixed:
        raise SurveyFormatError(
            f"header must start with {', '.join(fixed)}; got {header[:3]}", row=1
        )
    outcome_by_column = {kind.column: k for k, kind in enumerate(_OUTCOMES)}
    position = _positions(tree)
    layout = _Layout(len(header), len(position))
    seen: set[str] = set()
    for idx, name in enumerate(header[len(fixed) :], start=len(fixed)):
        if name in seen:
            raise SurveyFormatError(f"duplicate column {name!r}", row=1)
        seen.add(name)
        if name in outcome_by_column:
            layout.outcome_cols[idx] = (outcome_by_column[name], name)
        elif name in position:
            layout.node_cols[idx] = (position[name], f"rating for {name!r}")
        else:
            raise SurveyFormatError(
                f"unknown column {name!r}: not a node of tree {tree.name!r} "
                "and not an outcome column",
                row=1,
            )
    return layout


def _ingest(handle: IO[bytes], tree: ValueTree, own_supplier: str) -> SurveySample:
    if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        handle.seek(0)
    capacity = _line_ends(handle)  # no more respondent rows than this
    records = _records(handle)
    first = header = next(records, None)
    if isinstance(first, bytes):
        line, _, first = first.partition(b"\n")
        header = _split_lines(line.decode("ascii") + "\n")[0]
    elif first is not None:
        try:
            header = next(first, None)
        except csv.Error as exc:
            raise SurveyFormatError(f"malformed CSV: {exc}", 1) from None
    layout = _layout(header, tree)

    # Each piece's rows go straight into the next rows of the columns, made
    # once at the bound; cells of columns the header omits keep their
    # missing codes.  A chunk of bytes is parsed straight from them
    # (_parse_bytes); the rows of any other piece go through the row loop
    # (_row_chunk), which accepts and diagnoses exactly as a whole-file row
    # loop would.  Repeats are looked for once, in the id column, or in the
    # ids read so far when a row raises; the row loop keeps each id from the
    # moment it reads it, so a repeat on an earlier row or on the faulting
    # row itself is the file's first fault.  Suppliers are coded in order of
    # first appearance (``supplier_code``); the canonical table comes last.
    columns = (
        np.empty(capacity, dtype=np.int8),
        np.empty(capacity, dtype=np.min_scalar_type(capacity)),
        np.zeros((capacity, layout.n_nodes), dtype=np.int8),
        np.full((capacity, len(_OUTCOMES)), -1, dtype=np.int8),
    )
    # each piece's ids, after an empty one that a sample without rows takes
    ids: list[np.ndarray | list[bytes]] = [np.empty(0, dtype="S1")]
    blanks: list[int] = []  # the id index at which each blank record sat
    chunk_ids = None
    filled = 0
    supplier_code: dict[str, int] = {}
    scratch: dict[str, np.ndarray] = {}  # the byte parser's work arrays
    try:
        for piece in itertools.chain([first], records):
            if not piece:
                continue
            rest = [column[filled:] for column in columns]
            chunk_ids = None
            if isinstance(piece, bytes):
                chunk_ids = _parse_bytes(piece, layout, supplier_code, scratch, rest)
                if chunk_ids is None:
                    piece = _split_lines(piece.decode("ascii"))
                else:
                    ids.append(chunk_ids)
            if chunk_ids is None:
                chunk_ids = _row_chunk(piece, filled, layout, supplier_code, rest, ids, blanks)
            filled += len(chunk_ids)
    except SurveyFormatError:
        _refuse_repeats(np.concatenate([np.asarray(read, dtype=bytes) for read in ids]), blanks)
        raise

    del scratch
    id_column = np.concatenate(ids)
    del ids, chunk_ids  # the column holds them now
    _refuse_repeats(id_column, blanks)
    if not filled:
        warnings.warn("survey has a header but no respondent rows", stacklevel=3)
    roles, suppliers, ratings, outcomes = (column[:filled] for column in columns)
    names, codes = _supplier_codes(list(supplier_code), own_supplier)
    return SurveySample(
        tree, own_supplier, id_column, roles, names, codes[suppliers], ratings, outcomes
    )


def _supplier_codes(names: Sequence[str], own_supplier: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The canonical table of the distinct ``names`` and the code of each of ``names`` in it.

    The table lists ``own_supplier`` first (when present), then the rest
    sorted; the codes take the smallest unsigned dtype that holds them all.
    """
    table = tuple(sorted(set(names), key=lambda name: (name != own_supplier, name)))
    code = {name: k for k, name in enumerate(table)}
    dtype = np.min_scalar_type(max(len(table) - 1, 0))
    return table, np.array([code[name] for name in names], dtype=dtype)


def _refuse_repeats(ids: np.ndarray, blanks: Sequence[int]) -> None:
    """Refuse the first row whose id an earlier row has, naming both rows.

    Id ``k`` is on file row ``k + 2 + bisect_right(blanks, k)``.  Equal ids
    have equal UTF-8 bytes, none with the NUL that fixed-width bytes drop,
    so one sort finds any repeat; only then does a stable argsort tell which.
    """
    ordered = np.sort(ids, kind="stable")  # fast on ids that come in order
    if not (ordered[1:] == ordered[:-1]).any():
        return
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    later = int(order[1:][ordered[1:] == ordered[:-1]].min())
    earliest = int(order[np.searchsorted(ordered, ids[later])])
    first, row = (k + 2 + bisect.bisect_right(blanks, k) for k in (earliest, later))
    message = f"duplicate respondent_id {ids[later].decode()!r} (first on row {first})"
    raise SurveyFormatError(message, row) from None  # alone, even while a later fault is handled


def _line_ends(handle: IO[bytes]) -> int:
    """The line ends (LF, CR or CRLF) in the rest of ``handle``, at most one too many per read.

    Each record after the header starts after a line end of its own, so this
    bounds the respondent rows whether the byte parser or ``csv.reader`` reads
    them.  The handle is left where it was.
    """
    start, count = handle.tell(), 0
    while block := handle.read(_CHUNK_BYTES):
        count += block.count(b"\n")
        if b"\r" in block:  # a CRLF split between two reads counts twice
            count += block.count(b"\r") - block.count(b"\r\n")
    handle.seek(start)
    return count


def _records(handle: IO[bytes]) -> Iterator[bytes | Iterator[list[str]]]:
    """The records of ``handle`` from its position on: chunks of whole lines, then one reader.

    While the file is plain (ASCII, no quote, no CR but in CRLF, which reads
    as LF), a chunk comes as its bytes, and each line is a record whose
    fields are split at every comma.  From the first chunk that is not
    plain, one ``csv.reader`` reads the rest of the file, with each byte that
    is not UTF-8 read as one character U+DC80-U+DCFF (``surrogateescape``),
    which the row loop names.
    """
    while True:
        start = handle.tell()
        chunk = handle.read(_CHUNK_BYTES) + handle.readline()
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
        if b'"' in chunk or b"\r" in chunk or not chunk.isascii():
            break
        if not chunk:
            return
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"
    del chunk  # not held while csv.reader reads
    handle.seek(start)
    yield csv.reader(io.TextIOWrapper(handle, "utf-8", "surrogateescape", newline=""))


def _split_lines(text: str) -> list[list[str]]:
    """The CSV rows of whole lines that hold no quote and no CR."""
    return [line.split(",") if line else [] for line in text.split("\n")[:-1]]


_COMMA, _NEWLINE, _BAD = ord(","), ord("\n"), -128
#: bytes that ``str.strip`` removes, which no label of a parsed chunk may start or end with
_STRIPPED = np.array([chr(b).isspace() for b in range(256)])


def _cell_codes(low: int, missing: int) -> np.ndarray:
    """Each value cell's code by its first two bytes, ``first + 256 * second``.

    An empty cell starts with its delimiter and a one-byte cell is followed
    by one, so two bytes tell every cell of at most two bytes apart.  Text
    other than blank, ``low``-``9`` and ``10`` maps to ``_BAD``.
    """
    table = np.full((256, 256), _BAD, dtype=np.int8)  # [second, first]
    table[:, [_COMMA, _NEWLINE]] = missing
    for value in range(low, 10):
        table[[_COMMA, _NEWLINE], ord("0") + value] = value
    table[ord("0"), ord("1")] = 10
    return table.ravel()


# the rating table, then the outcome table
_CELL_CODES = np.concatenate([_cell_codes(RATING_MIN, 0), _cell_codes(OUTCOME_MIN, -1)])


def _work(scratch: dict, name: str, shape, dtype, make=np.empty) -> np.ndarray:
    """The front of the work array ``name`` in ``shape``, remade by ``make`` when too short."""
    array, size = scratch.get(name), np.prod(shape)
    if array is None or len(array) < size or array.dtype != dtype:
        array = scratch[name] = make(size, dtype=dtype)
    return array[:size].reshape(shape)


def _parse_bytes(
    chunk: bytes, layout: _Layout, supplier_code: dict[str, int], scratch: dict[str, np.ndarray],
    out: Sequence[np.ndarray],
) -> np.ndarray | None:
    """Parse whole ASCII lines into the front of ``out``, or return None if the row loop must.

    ``out`` is the role, supplier, rating and outcome columns from the
    chunk's first row on; the ids come back as fixed-width bytes.  None means
    the chunk holds a NUL byte, some line has another field count than the
    header, a label is empty or starts or ends with whitespace, a role is
    not in :data:`ROLES`, or a value cell is not canonical (blank or
    ``1``-``10``, and ``0`` for outcomes); ``supplier_code`` is then left as
    it was, and only the role column may have been written.  The ids share
    no memory with the work arrays in ``scratch``.
    """
    if b"\x00" in chunk:  # numpy's fixed-width bytes would drop a trailing NUL
        return None
    size, width = len(chunk), layout.width
    index = np.int32 if size < 2**31 else np.intp
    # the extra byte completes the two bytes of an empty last cell
    buf = np.frombuffer(chunk + b"\n", dtype=np.uint8)
    newline = np.equal(buf[:-1], _NEWLINE, out=_work(scratch, "newline", size, bool))
    delimiter = np.equal(buf[:-1], _COMMA, out=_work(scratch, "delimiter", size, bool))
    np.logical_or(delimiter, newline, out=delimiter)
    n, cells = np.count_nonzero(newline), np.count_nonzero(delimiter)
    positions = _work(scratch, "positions", size, index, np.arange)
    ends = np.compress(delimiter, positions, out=_work(scratch, "ends", cells, index))
    if cells != n * width or (buf[ends[width - 1 :: width]] != _NEWLINE).any():
        return None
    starts = _work(scratch, "starts", cells, index)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = np.subtract(ends, starts, out=_work(scratch, "lengths", cells, index))
    starts, ends, lengths = (a.reshape(n, width) for a in (starts, ends, lengths))
    labels = np.s_[:, :3]
    if not lengths[labels].all() or (lengths[:, 3:] > 2).any():
        return None
    if _STRIPPED[buf.take(starts[labels])].any() or _STRIPPED[buf.take(ends[labels] - 1)].any():
        return None
    pairs = np.ndarray((size,), dtype="<u2", buffer=buf, strides=(1,))
    gathered = _work(scratch, "pairs", starts[:, 3:].shape, pairs.dtype)
    pairs.take(starts[:, 3:], out=gathered, mode="clip")  # every start is in range
    outcome = np.array([c in layout.outcome_cols for c in range(3, width)], dtype=bool)
    table = outcome * (len(_CELL_CODES) // 2)  # an int array even for a header of labels only
    keys = np.add(gathered, table, out=_work(scratch, "keys", gathered.shape, index), dtype=index)
    codes = _CELL_CODES.take(keys, out=_work(scratch, "codes", keys.shape, np.int8), mode="clip")
    if (codes == _BAD).any():
        return None

    ids, roles, suppliers = (_fixed_width(buf, starts[:, k], lengths[:, k]) for k in range(3))
    role_codes, supplier_codes, ratings, outcomes = (column[:n] for column in out)
    role_codes.fill(-1)
    for code, role in enumerate(ROLES):
        role_codes[roles == role.encode()] = code
    if (role_codes < 0).any():
        return None
    names, suppliers = np.unique(suppliers, return_inverse=True)
    codes_of = [supplier_code.setdefault(s, len(supplier_code)) for s in names.astype(str).tolist()]
    supplier_codes[:] = np.array(codes_of)[suppliers]
    for matrix, columns in ((ratings, layout.node_cols), (outcomes, layout.outcome_cols)):
        matrix[:, [j for j, _ in columns.values()]] = codes[:, [idx - 3 for idx in columns]]
    return ids


def _fixed_width(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes at ``starts`` of ``lengths``, as one zero-padded fixed-width bytes array."""
    offsets = np.arange(lengths.max(), dtype=starts.dtype)
    chars = buf.take(starts[:, None] + offsets, mode="clip")
    chars *= offsets < lengths[:, None]
    return chars.view(f"S{len(offsets)}").ravel()


#: a byte that is not UTF-8, as ``surrogateescape`` reads it
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _refuse_bad_bytes(cells: list[str], row: int) -> None:
    """Refuse a record with a NUL, which fixed-width ids and labels would drop, or bad UTF-8."""
    text = "".join(cells)
    if "\x00" in text:
        raise SurveyFormatError("NUL byte (0x00) in the record", row)
    if not text.isascii() and (byte := _UNDECODABLE.search(text)):
        raise SurveyFormatError(f"byte 0x{ord(byte[0]) - 0xDC00:02x} is not valid UTF-8", row)


def _row_chunk(
    rows: Iterable[list[str]], first: int, layout: _Layout, supplier_code: dict[str, int],
    out: Sequence[np.ndarray], ids: list[np.ndarray | list[bytes]], blanks: list[int],
) -> np.ndarray:
    """Check and convert ``rows`` one at a time into the front of ``out``, as :func:`_parse_bytes`.

    ``first`` is the id index of the first row.  Blank rows are skipped,
    each noted in ``blanks`` at its id index; the first bad row raises, naming
    itself, and so does a record ``csv.reader`` cannot read.  Each id is
    appended as soon as it is read, as UTF-8 bytes, to a list added to
    ``ids``; once every row is written, the list becomes the fixed-width
    array of its ids, which is returned.
    """
    role_codes, supplier_codes, ratings, outcomes = out
    cells = ((ratings, layout.node_cols, RATING_MIN, RATING_MAX),
             (outcomes, layout.outcome_cols, OUTCOME_MIN, OUTCOME_MAX))
    read: list[bytes] = []
    ids.append(read)
    start = first + len(blanks) + 2  # every record before is the header, a row or a blank
    row_number = start - 1  # of the last record read
    try:
        for row_number, row in enumerate(rows, start):
            _refuse_bad_bytes(row, row_number)
            if not row or all(not cell.strip() for cell in row):
                blanks.append(first + len(read))
                continue
            if len(row) != layout.width:
                raise SurveyFormatError(
                    f"expected {layout.width} fields, got {len(row)}", row_number
                )
            respondent_id = row[0].strip()
            role = row[1].strip()
            supplier = row[2].strip()
            if not respondent_id:
                raise SurveyFormatError("empty respondent_id", row_number)
            k = len(read)
            read.append(respondent_id.encode())  # no surrogate is left: see _refuse_bad_bytes
            if role not in ROLES:
                raise SurveyFormatError(
                    f"unknown role {role!r} (expected one of {', '.join(ROLES)})", row_number
                )
            if not supplier:
                raise SurveyFormatError("empty supplier", row_number)
            for matrix, columns, lo, hi in cells:
                for idx, (j, what) in columns.items():
                    if token := row[idx].strip():
                        matrix[k, j] = _parse_int(token, lo, hi, what, row_number)
            role_codes[k] = ROLES.index(role)
            supplier_codes[k] = supplier_code.setdefault(supplier, len(supplier_code))
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", row_number + 1) from None
    ids[-1] = np.array(read, dtype=bytes)
    return ids[-1]


# Cell text of each stored code: a rating code v is _RATING_TEXT[v] and an
# outcome code v is _OUTCOME_TEXT[v], so the missing outcome -1 reads the last
# entry, "".
_RATING_TEXT = ["", *map(str, range(RATING_MIN, RATING_MAX + 1))]
_OUTCOME_TEXT = [*map(str, range(OUTCOME_MIN, OUTCOME_MAX + 1)), ""]


def survey_text(sample: SurveySample) -> str:
    """Canonical CSV text for ``sample`` (the exact ingest round-trip form)."""
    columns = [
        [respondent_id.decode() for respondent_id in sample.ids.tolist()],
        list(map(ROLES.__getitem__, sample.role_codes.tolist())),
        sample._supplier_column(),
    ]
    columns += [list(map(_RATING_TEXT.__getitem__, c)) for c in sample.ratings.T.tolist()]
    columns += [list(map(_OUTCOME_TEXT.__getitem__, c)) for c in sample.outcomes.T.tolist()]
    return _csv_text(survey_columns(sample.tree), zip(*columns))


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV text of ``header`` then ``rows``: the package's one CSV dialect, LF line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_survey(sample: SurveySample, path: str | Path) -> None:
    write_atomic(path, survey_text(sample))


def split_by_supplier(
    sample: SurveySample, supplier: str | None = None
) -> tuple[SurveySample, SurveySample]:
    """(``supplier``'s respondents, everyone else), both keeping the tree/label.

    ``supplier`` defaults to the sample's own supplier.
    """
    mine = _supplier_rows(sample, supplier)

    def part(mask: np.ndarray) -> SurveySample:
        return SurveySample(
            sample.tree, sample.own_supplier, sample.ids[mask], sample.role_codes[mask],
            sample.supplier_names, sample.supplier_codes[mask], sample.ratings[mask],
            sample.outcomes[mask],
        )

    return part(mine), part(~mine)


def _supplier_rows(sample: SurveySample, supplier: str | None) -> np.ndarray:
    """Boolean mask of the rows of ``supplier`` (default: the own supplier)."""
    name = sample.own_supplier if supplier is None else supplier
    names = sample.supplier_names
    return sample.supplier_codes == (names.index(name) if name in names else -1)  # -1: no row


#: Least rows histogrammed at a time by :func:`_column_moments`.  1024-row blocks
#: ran faster than 8192-row ones on calibration's 1-2k-row samples and at 100k.
_MOMENT_ROWS = 1024

_CODES = np.arange(RATING_MAX + 1)
# histogram bin of code v -> (present, v, v*v)
_MOMENT_WEIGHTS = np.stack([_CODES > 0, _CODES, _CODES * _CODES], axis=1)


def _column_moments(ratings: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """``(count, 3, nodes)`` int64: per group, each column's count, sum and sum of squares.

    Codes are 0 (missing) to 10 and ``groups`` unsigned codes below ``count``.  One
    ``bincount`` per block of rows, with column j of group g in bins ``11*(nodes*g + j)``
    on, counts every code; the moments are exact integer sums, so no order enters.
    """
    nodes = ratings.shape[1]
    size = nodes * _CODES.size
    dtype = np.min_scalar_type(max(count, 1) * size)
    offsets = np.arange(0, size, _CODES.size, dtype=dtype)
    row_offsets = groups.astype(dtype)[:, None] * size
    histogram = np.zeros(count * size, dtype=np.int64)
    step = max(_MOMENT_ROWS, count * _CODES.size)  # no fewer codes than bins: linear in rows
    for start in range(0, len(ratings), step):
        codes = ratings[start : start + step].view(np.uint8) + offsets
        codes += row_offsets[start : start + step]
        histogram += np.bincount(codes.ravel(), minlength=count * size)
    return (histogram.reshape(count, nodes, _CODES.size) @ _MOMENT_WEIGHTS).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class _Side:
    """Some rows of ``sample``, held only as their count and their moments from its table.

    No row is copied.  Every node mean and half-width is read here.
    """

    sample: SurveySample
    moments: np.ndarray
    rows: int

    @classmethod
    def of(cls, sample: SurveySample, code: int | None = None) -> _Side:
        """The whole sample, or the rows of supplier ``code``."""
        if code is None:
            return cls(sample, sample._moments, len(sample))
        return cls(sample, sample._supplier_moments[code], int(sample._supplier_counts[code]))

    def others(self) -> _Side:
        """The rows of the sample that are not on this side."""
        return _Side(self.sample, self.sample._moments - self.moments, len(self.sample) - self.rows)

    def mean(self, node_id: str) -> MeanWithHalfWidth:
        """``node_mean`` over these rows."""
        n, total, squares = self.moments[:, self.sample._column(node_id)].tolist()
        if not n:
            raise NoRatingsError(f"no ratings for node {node_id!r}")
        half = 0.0
        if n >= 2:
            sd = math.sqrt((n * squares - total * total) / (n * (n - 1)))
            half = CONFIDENCE_MULTIPLIER * sd / math.sqrt(n)
        return MeanWithHalfWidth(mean=total / n, half_width=half, n=n)

    def means(self) -> dict[str, float]:
        """``node_means`` over these rows."""
        counts, sums, _ = self.moments
        for node, n in zip(self.sample._position, counts):
            if not n:
                raise NoRatingsError(f"no ratings for node {node!r}")
        return dict(zip(self.sample._position, (sums / counts).tolist()))


def _own_sides(sample: SurveySample) -> tuple[np.ndarray, _Side, _Side]:
    """The own supplier's row mask, then its side and the rest's, as the two split parts.

    Each side's means equal those of its split part bit for bit.
    """
    mine = _supplier_rows(sample, None)
    if sample.own_supplier not in sample.supplier_names:
        return mine, _Side.of(sample).others(), _Side.of(sample)
    own = _Side.of(sample, sample.supplier_names.index(sample.own_supplier))
    return mine, own, own.others()


def node_mean(sample: SurveySample, node_id: str) -> MeanWithHalfWidth:
    """Mean rating for one node over the respondents who rated it.

    Half-width is ``1.96 * sd / sqrt(n)`` with the sample (n-1) standard
    deviation, whose variance is an exact integer ratio rounded once; a
    single rating or a constant column gives half-width 0.  Raises
    :class:`NoRatingsError` when nobody rated the node.
    """
    return _Side.of(sample).mean(node_id)


def node_means(sample: SurveySample) -> dict[str, float]:
    """Every node's mean rating, equal to ``node_mean(sample, node).mean`` bit for bit.

    Raises :class:`NoRatingsError` for the first node, in preorder, that
    nobody rated.
    """
    return _Side.of(sample).means()


def supplier_sums(sample: SurveySample, node_id: str) -> dict[str, tuple[int, int]]:
    """Each present supplier's exact (count, sum) of ``node_id`` ratings, in canonical order.

    From the moments table; ``sum / count`` equals ``node_mean`` of the supplier's split
    part bit for bit, and a supplier whose rows hold no rating of the node has (0, 0).
    """
    sums = sample._supplier_moments[:, :2, sample._column(node_id)].tolist()
    rows = sample._supplier_counts.tolist()
    return {name: tuple(s) for name, s, n in zip(sample.supplier_names, sums, rows) if n}


@dataclass(frozen=True)
class SampleCounts:
    """What a sample holds: respondents per supplier (canonical order, present
    suppliers only) and per role (:data:`ROLES` order), and blank cells per
    rating and outcome column (CSV order)."""

    suppliers: dict[str, int]
    roles: dict[str, int]
    missing: dict[str, int]


def sample_counts(sample: SurveySample) -> SampleCounts:
    """Count ``sample``'s respondents and blank cells from its codes."""
    per_supplier = zip(sample.supplier_names, sample._supplier_counts.tolist())
    per_role = np.bincount(sample.role_codes, minlength=len(ROLES))
    blank = np.concatenate([len(sample) - sample._moments[0], (sample.outcomes < 0).sum(axis=0)])
    columns = [*sample._position, *(kind.column for kind in _OUTCOMES)]
    return SampleCounts(
        suppliers={s: n for s, n in per_supplier if n},
        roles=dict(zip(ROLES, per_role.tolist())),
        missing=dict(zip(columns, blank.tolist())),
    )


def outcome_values(
    sample: SurveySample, outcome: OutcomeKind, rows: np.ndarray | None = None
) -> list[int]:
    """Every answer to ``outcome`` in respondent order; blank answers are skipped.

    A boolean ``rows`` mask keeps only the rows where it is True.
    """
    column = sample.outcomes[:, _OUTCOMES.index(outcome)]
    keep = column >= 0
    if rows is not None:
        keep &= rows
    return column[keep].tolist()


def root_outcome_pairs(
    sample: SurveySample, outcome: OutcomeKind, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(root ratings, ``outcome`` answers) of the respondents who gave both, row-aligned.

    A boolean ``rows`` mask keeps only the rows where it is True.
    """
    root = sample.ratings[:, sample._column(sample.tree.root)]
    answers = sample.outcomes[:, _OUTCOMES.index(outcome)]
    both = (root > 0) & (answers >= 0)
    if rows is not None:
        both &= rows
    return root[both], answers[both]


def complete_cases(sample: SurveySample, node_id: str, children: Sequence[str]) -> np.ndarray:
    """The int8 matrix ``[1, children..., node_id]`` over the respondents who rated all.

    This is listwise deletion, and the matrix is a least-squares design with
    its intercept column first.  The columns are gathered once, and the
    incomplete rows are dropped by one ``np.compress`` of that block.
    """
    block = sample.ratings[:, [sample._column(n) for n in (node_id, *children, node_id)]]
    complete = (block[:, 1:] > 0).all(axis=1)
    if not complete.all():
        block = np.compress(complete, block, axis=0)
    block[:, 0] = 1
    return block
