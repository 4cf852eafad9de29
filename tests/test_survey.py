import csv
import dataclasses
import io
import itertools
import math
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmkit import survey
from cvmkit.datasets import fixture_text
from cvmkit.survey import (
    ROLES,
    NoRatingsError,
    OutcomeKind,
    SurveyFormatError,
    SurveySample,
    complete_cases,
    ingest_responses,
    node_mean,
    node_means,
    outcome_values,
    split_by_supplier,
    supplier_sums,
    survey_columns,
    survey_text,
)
from cvmkit.tree import parse_tree_spec

TINY_TREE = parse_tree_spec(
    """\
tree: tiny
root: value
node: value | Value | root | a b
node: a | A | attribute |
node: b | B | attribute |
"""
)

TINY_CSV = """\
respondent_id,role,supplier,value,a,b,outcome_recommend,outcome_repurchase
r1,decision_maker,us,8,9,7,9,8
r2,user,them,6,5,7,5,
r3,decision_maker,us,7,7,,8,8
"""
_NODES = list(TINY_TREE.preorder())


def test_survey_columns_order():
    assert survey_columns(TINY_TREE) == [
        "respondent_id", "role", "supplier",
        "value", "a", "b",
        "outcome_recommend", "outcome_repurchase",
    ]


def test_ingest_stream_and_fields():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    assert len(sample) == 3
    recommend, repurchase = 0, 1  # outcome columns in OutcomeKind order
    assert _labels(sample)[0] == ["r1", "decision_maker", "us"]
    assert sample.ratings[0].tolist() == [8, 9, 7]  # value, a, b in preorder
    assert sample.outcomes[0, recommend] == 9
    assert sample.outcomes[1, repurchase] == -1  # blank cell
    assert sample.ratings[2, _NODES.index("b")] == 0  # blank cell


def test_round_trip_text():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    text = survey_text(sample)
    again = ingest_responses(io.StringIO(text), TINY_TREE, "us")
    assert again == sample
    assert survey_text(again) == text


def test_a_byte_order_mark_is_skipped_in_a_stream_as_in_a_path(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_text(TINY_CSV, encoding="utf-8-sig")
    from_path = ingest_responses(path, TINY_TREE, "us")
    with open(path, encoding="utf-8", newline="") as handle:
        assert ingest_responses(handle, TINY_TREE, "us") == from_path
    assert ingest_responses(io.StringIO("\ufeff" + TINY_CSV), TINY_TREE, "us") == from_path
    assert from_path == ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")


def test_rating_out_of_range_names_row():
    bad = TINY_CSV.replace("6,5,7", "6,5,11")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")
    message = str(err.value)
    assert "row 3" in message
    assert "11" in message


def test_non_integer_rating_names_row():
    bad = TINY_CSV.replace("7,7,,8,8", "7,seven,,8,8")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")
    assert "row 4" in str(err.value)
    assert "seven" in str(err.value)


@pytest.mark.parametrize("token", ["1_0", "\uff17", "\u0667"])  # fullwidth 7, Arabic-Indic 7
@pytest.mark.parametrize(
    "column, what", [(4, "rating for 'a'"), (6, "outcome_recommend")], ids=["rating", "outcome"]
)
def test_only_ascii_digits_are_read_as_an_integer(tmp_path, token, column, what):
    lines = [line.split(",") for line in TINY_CSV.splitlines()]
    lines[2][column] = token
    text = "".join(",".join(line) + "\n" for line in lines)
    path = tmp_path / "survey.csv"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        with pytest.raises(SurveyFormatError) as err:
            ingest_responses(source, TINY_TREE, "us")
        assert str(err.value) == f"row 3: {what}: {token!r} is not an integer"


def test_unknown_column_rejected():
    bad = TINY_CSV.replace(",outcome_recommend", ",mood")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")
    assert "mood" in str(err.value)
    assert "row 1" in str(err.value)


def test_duplicate_column_rejected():
    bad = TINY_CSV.replace("value,a,b", "value,a,a")
    with pytest.raises(SurveyFormatError):
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")


def test_bad_role_rejected():
    bad = TINY_CSV.replace("user", "buyer")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")
    assert "buyer" in str(err.value)


def test_header_only_warns_and_yields_empty(tree):
    header = TINY_CSV.splitlines()[0] + "\n"
    with pytest.warns(UserWarning):
        sample = ingest_responses(io.StringIO(header), TINY_TREE, "us")
    assert len(sample) == 0
    # a tree of 27 nodes has more moment bins than a uint8 holds, and no supplier
    with pytest.warns(UserWarning):
        empty = ingest_responses(io.StringIO(",".join(survey_columns(tree))), tree, "us")
    assert empty.supplier_names == ()
    with pytest.raises(NoRatingsError, match="'worth_what_paid_for'"):
        node_means(empty)


def test_missing_header_is_error():
    with pytest.raises(SurveyFormatError):
        ingest_responses(io.StringIO(""), TINY_TREE, "us")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO("id,role,supplier,value\n"), TINY_TREE, "us")
    assert err.value.row == 1
    assert str(err.value) == (
        "row 1: header must start with respondent_id, role, supplier; "
        "got ['id', 'role', 'supplier']"
    )


# Pieces of survey rows, so generated inputs also reach the field checks.
_ROW_PIECES = [
    b",", b"\n", b"\r", b'"', b" ", b"r1", b"us", b"user", b"decision_maker",
    b"8", b"11", b"x", b"\x00", b"\xe9", b"\xef\xbb\xbf",
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(_ROW_PIECES), max_size=60).map(b"".join),
    )
)
def test_arbitrary_bytes_after_the_header_ingest_or_raise_survey_format_error(body):
    data = TINY_CSV.splitlines(keepends=True)[0].encode() + body
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a header-only file warns
        path = Path(tmp) / "survey.csv"
        path.write_bytes(data)
        for source in (path, io.StringIO(data.decode("utf-8", "replace"))):
            try:
                assert isinstance(ingest_responses(source, TINY_TREE, "us"), SurveySample)
            except SurveyFormatError:
                pass


def test_split_by_supplier():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    own, rest = split_by_supplier(sample)
    assert own.ids.tolist() == [b"r1", b"r3"]
    assert rest.ids.tolist() == [b"r2"]


def test_node_mean_small():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    own, _ = split_by_supplier(sample)
    stat = node_mean(own, "a")
    assert stat.n == 2
    assert stat.mean == pytest.approx(8.0)
    # sd of {9, 7} is sqrt(2); 95% half-width = 1.96 * sd / sqrt(n)
    assert stat.half_width == pytest.approx(1.96 * math.sqrt(2.0) / math.sqrt(2.0))


def test_node_mean_requires_ratings():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    _, rest = split_by_supplier(sample)
    only_r2 = rest
    with pytest.raises(NoRatingsError):
        node_mean(split_by_supplier(only_r2)[0], "a")  # own half of rest is empty


# --- bundled fixture: values below were computed independently from the CSV
# with nothing but the csv module and arithmetic.

def test_fixture_shape(sample):
    assert len(sample) == 2000
    assert sample.suppliers() == ["our_co", "comp_a", "comp_b"]
    own, comp = split_by_supplier(sample)
    assert len(own) == 1000
    assert len(comp) == 1000


def test_fixture_means_match_hand_computation(halves):
    own, comp = halves
    wwpf_own = node_mean(own, "worth_what_paid_for")
    assert wwpf_own.mean == pytest.approx(7.297, abs=1e-12)
    assert wwpf_own.n == 1000
    assert wwpf_own.half_width == pytest.approx(1.96 * 0.895317 / math.sqrt(1000), abs=1e-4)
    assert node_mean(comp, "worth_what_paid_for").mean == pytest.approx(7.503, abs=1e-12)
    assert node_mean(own, "billing").mean == pytest.approx(6.099, abs=1e-12)
    assert node_mean(comp, "billing").mean == pytest.approx(7.500, abs=1e-12)


def test_fixture_half_widths_equal_the_exact_oracle(halves):
    for part in halves:
        for j, node in enumerate(part.tree.preorder()):
            column = part.ratings[:, j]
            assert node_mean(part, node).half_width == _exact_half_width(column[column > 0].tolist())


def test_fixture_roles_lean_decision_maker(sample):
    decision_makers = np.count_nonzero(sample.role_codes == ROLES.index("decision_maker"))
    assert decision_makers == 1604  # share parameter is 0.8


def test_duplicate_respondent_id_is_an_error_naming_both_rows():
    bad = TINY_CSV.replace("r3,", "r1,")
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(bad), TINY_TREE, "us")
    assert err.value.row == 4
    assert str(err.value) == "row 4: duplicate respondent_id 'r1' (first on row 2)"


# --- the columnar store against a direct computation over plain rows of
# (id, role, supplier, {node: rating}, {outcome kind: answer})


@st.composite
def _respondent_rows(draw):
    ids = draw(st.lists(st.text("abr019", min_size=1, max_size=3), unique=True, max_size=8))
    return [
        (
            respondent_id,
            draw(st.sampled_from(ROLES)),
            draw(st.sampled_from(["us", "them"])),
            draw(st.fixed_dictionaries({}, optional={n: st.integers(1, 10) for n in _NODES})),
            draw(st.fixed_dictionaries({}, optional={k: st.integers(0, 10) for k in OutcomeKind})),
        )
        for respondent_id in ids
    ]


def _rows_text(rows):
    """Survey CSV text of plain rows; a missing rating or answer is a blank cell."""
    return _csv_text(
        [
            respondent_id, role, supplier,
            *(str(ratings.get(n, "")) for n in _NODES),
            *(str(answers.get(k, "")) for k in OutcomeKind),
        ]
        for respondent_id, role, supplier, ratings, answers in rows
    )


def _store_of(rows):
    """The (labels, ratings, outcomes) of plain rows as lists, one row at a time."""
    return (
        [[respondent_id, role, supplier] for respondent_id, role, supplier, _, _ in rows],
        [[ratings.get(n, 0) for n in _NODES] for *_, ratings, _ in rows],
        [[answers.get(k, -1) for k in OutcomeKind] for *_, answers in rows],
    )


def _labels(sample):
    """Each row's [id, role, supplier], decoded from the store."""
    ids = [respondent_id.decode() for respondent_id in sample.ids.tolist()]
    roles = [ROLES[k] for k in sample.role_codes]
    suppliers = [sample.supplier_names[k] for k in sample.supplier_codes]
    return [list(row) for row in zip(ids, roles, suppliers)]


def _lists(sample):
    return _labels(sample), sample.ratings.tolist(), sample.outcomes.tolist()


def _exact_half_width(values):
    """1.96 * sd / sqrt(n), with the sample variance an exact fraction rounded once."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = Fraction(sum(values), n)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * math.sqrt(variance) / math.sqrt(n)


@settings(max_examples=200, deadline=None)
@given(_respondent_rows())
def test_store_matches_a_per_row_computation(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty sample warns
        sample = ingest_responses(io.StringIO(_rows_text(rows)), TINY_TREE, "us")
        assert ingest_responses(io.StringIO(survey_text(sample)), TINY_TREE, "us") == sample
    assert _lists(sample) == _store_of(rows)
    own, rest = split_by_supplier(sample)
    supplier = 2
    assert _lists(own) == _store_of([r for r in rows if r[supplier] == "us"])
    assert _lists(rest) == _store_of([r for r in rows if r[supplier] != "us"])

    for node in _NODES:
        values = [ratings[node] for *_, ratings, _ in rows if node in ratings]
        if not values:
            with pytest.raises(NoRatingsError):
                node_mean(sample, node)
            continue
        stat = node_mean(sample, node)
        assert stat.n == len(values)
        assert stat.mean == np.mean(values)
        if len(values) > 1:
            assert stat.half_width == pytest.approx(
                1.96 * np.std(values, ddof=1) / math.sqrt(len(values))
            )
        assert stat.half_width == _exact_half_width(values)
    for kind in OutcomeKind:
        assert outcome_values(sample, kind) == [a[kind] for *_, a in rows if kind in a]
    wanted = ("a", "b", "value")
    complete = [
        [1, *(ratings[w] for w in wanted)]
        for *_, ratings, _ in rows
        if all(w in ratings for w in wanted)
    ]
    design = complete_cases(sample, "value", ("a", "b"))
    assert design.dtype == np.int8
    assert design.tolist() == complete


def test_store_arrays_are_read_only():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    for column in (sample.ids, sample.role_codes, sample.supplier_codes):
        with pytest.raises(ValueError):
            column[0] = column[1]
    for column in (sample.ratings, sample.outcomes):
        with pytest.raises(ValueError):
            column[0, 0] = column[0, 1]


# --- chunked ingest: the byte parser against the row loop


@pytest.mark.parametrize("late_fault", ["field limit", "undecodable byte"])
def test_a_bad_cell_is_named_before_a_later_unreadable_row(tmp_path, tree, late_fault):
    lines = fixture_text("market_survey.csv").splitlines(keepends=True)
    assert lines[0].split(",")[3] == "worth_what_paid_for"
    cells = lines[3].split(",")
    cells[3] = "11"
    lines[3] = ",".join(cells)
    if late_fault == "field limit":
        # csv.Error "field larger than field limit" on row 41
        lines = lines[:51]
        lines[40] = lines[40].replace(",", ',"' + "x" * 200_000 + '",', 1)
    else:
        # past the text decoder's first block, so rows before it are read
        lines = lines[:301]
        lines[290] = lines[290].replace(",", ",\udcff,", 1)
    data = "".join(lines).encode("utf-8", "surrogateescape")
    path = tmp_path / "survey.csv"
    path.write_bytes(data)
    sources = [path]
    if late_fault == "field limit":
        sources.append(io.StringIO(data.decode()))
    for source in sources:
        with pytest.raises(SurveyFormatError) as err:
            ingest_responses(source, tree, "our_co")
        assert err.value.row == 4
        assert str(err.value) == "row 4: rating for 'worth_what_paid_for': 11 outside [1, 10]"


_WIDTH = len(survey_columns(TINY_TREE))
_RATINGS = ["", *map(str, range(1, 11))]
_OUTCOMES = ["", *map(str, range(11))]
# Per field: tokens the row loop reads like a canonical one or rejects.  The
# ids repeat those of rows 1, 2 and 4, within a chunk or across chunks.
# Labels are padded with bytes str.strip removes, and some are not ASCII;
# a quoted field, with or without a newline in it, a lone CR or a non-ASCII
# byte hands the rest of the file to csv.reader.  A NUL byte, which a
# fixed-width numpy string drops at the end, is refused wherever it is.
_ODD = (
    ["", "r1", "r2", "r4", " r1", "r2 ", "\tr9", "r9\x0b", "\x1fr9", "r\u00e99", '"r9"', '"r\n9"',
     "r1\x00", "r\x009", "\x00"],
    [" user", "user ", "buyer", "", "\tuser", "user\x0b", "\x1fuser", '"user"', "user\x00"],
    [" us", "them ", "", "\tus", "them\x1f", "\x0bus", "th\u00e9m", '"us"', '"u\ns"', "us\x00",
     "\x00them"],
    *[["0", "11", "100", "10 ", " 7", "07", "+7", "7.0", "x", "-1", '"7"', "7\r", "7\x00"]] * 3,
    *[["11", "100", "10 ", " 7", "07", "+7", "7.0", "x", "-1", '"7"', "7\r", "\x00"]] * 2,
)


@st.composite
def _survey_texts(draw):
    """Canonical rows, a quarter of them with one odd field, and blank,
    whitespace-only, short and empty rows mixed in, so many chunks take the
    byte parser; the lines end in LF or CRLF, and the file may start with a
    byte-order mark."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "empty"]))
        if kind == "row":
            rows.append([
                f"r{len(rows) + 1}",
                draw(st.sampled_from(ROLES)),
                draw(st.sampled_from(["us", "them"])),
                *draw(st.lists(st.sampled_from(_RATINGS), min_size=3, max_size=3)),
                *draw(st.lists(st.sampled_from(_OUTCOMES), min_size=2, max_size=2)),
            ])
            if draw(st.integers(0, 3)) == 0:
                k = draw(st.integers(0, _WIDTH - 1))
                rows[-1][k] = draw(st.sampled_from(_ODD[k]))
        elif kind == "blank":
            rows.append([draw(st.sampled_from(["", "   "]))])
        elif kind == "short":
            rows.append(["r9", "user", "us", "5"])
        else:
            rows.append([""] * _WIDTH)
    text = _csv_text(rows, ending=draw(st.sampled_from(["\n", "\r\n"])))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _csv_text(rows, ending="\n"):
    return "".join(",".join(line) + ending for line in [survey_columns(TINY_TREE), *rows])


def _ingest_or_diagnostic(source):
    try:
        return ingest_responses(source, TINY_TREE, "us")
    except SurveyFormatError as exc:
        return str(exc), exc.row


def _ingest_each_source(text, path):
    """Ingest ``text`` from a stream and from ``path``: each a sample or (message, row)."""
    path.write_bytes(text.encode("utf-8"))
    return _ingest_or_diagnostic(io.StringIO(text)), _ingest_or_diagnostic(path)


def _one_reader(handle):
    """Records as ``survey._records`` gives them from a first chunk that is not plain."""
    yield csv.reader(io.TextIOWrapper(handle, "utf-8", "surrogateescape", newline=""))


def _both_paths(text):
    """Ingest ``text`` in chunks of 40 bytes, then again with csv.reader
    reading every record and the byte parser declining every chunk, so that
    only the row loop converts them."""
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(survey, "_CHUNK_BYTES", 40):
        warnings.simplefilter("ignore")  # a file without respondent rows warns
        path = Path(tmp) / "survey.csv"
        chunked = _ingest_each_source(text, path)
        with mock.patch.object(survey, "_parse_bytes", lambda *args: None), \
                mock.patch.object(survey, "_records", _one_reader):
            return chunked, _ingest_each_source(text, path)


@settings(max_examples=400, deadline=None)
@given(_survey_texts())
@example(_csv_text([["r1", "user", "us", "5", "", "", "", ""],
                    ["r1\x00", "user", "us\x00", "5", "", "", "", ""]]))
def test_table_path_and_row_loop_agree(text):
    chunked, row_by_row = _both_paths(text)
    for by_bytes, by_row in zip(chunked, row_by_row):
        assert type(by_bytes) is type(by_row)
        assert by_bytes == by_row


def test_each_odd_field_is_read_as_the_row_loop_reads_it():
    rows = [[f"r{i}", "user", "us", "1", "5", "10", "0", "10"] for i in range(1, 6)]
    for at in (1, 4):  # in the first chunk of 40 bytes, and in a later one
        for k, tokens in enumerate(_ODD):
            for token in tokens:
                odd = [list(row) for row in rows]
                odd[at][k] = token
                for ending in ("\n", "\r\n"):
                    chunked, row_by_row = _both_paths(_csv_text(odd, ending))
                    for by_bytes, by_row in zip(chunked, row_by_row):
                        assert type(by_bytes) is type(by_row), (at, k, token)
                        assert by_bytes == by_row, (at, k, token)


def test_canonical_chunks_bypass_the_row_loop(tree):
    text = fixture_text("market_survey.csv")
    with mock.patch.object(survey, "_CHUNK_BYTES", 20_000):
        with mock.patch.object(survey, "_row_chunk", wraps=survey._row_chunk) as row_loop:
            by_bytes = ingest_responses(io.StringIO(text), tree, "our_co")
        with mock.patch.object(survey, "_parse_bytes", lambda *args: None):
            by_row = ingest_responses(io.StringIO(text), tree, "our_co")
    assert row_loop.call_args_list == []
    assert len(by_bytes) == 2000
    assert by_bytes == by_row


# --- rows written straight into columns made at the line-end bound


def _against_the_row_loop(text, tmp_path, chunk_bytes=40):
    """Ingest ``text`` from a path and from a stream in chunks of ``chunk_bytes``,
    and from the path again with the byte parser declining every chunk; the
    three must agree, as samples or as (message, row).  Returns the last."""
    path = tmp_path / "survey.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(survey, "_CHUNK_BYTES", chunk_bytes):
        by_path, by_stream = _ingest_or_diagnostic(path), _ingest_or_diagnostic(io.StringIO(text))
        with mock.patch.object(survey, "_parse_bytes", lambda *args: None):
            by_rows = _ingest_or_diagnostic(path)
    for result in (by_path, by_stream):
        assert type(result) is type(by_rows)
        assert result == by_rows
    return by_rows


def _rows_made(sample):
    """The rows the ingest made its columns for: views of them back the sample."""
    columns = (sample.role_codes, sample.ratings, sample.outcomes)
    bases = {column.base.shape[0] for column in columns}
    assert len(bases) == 1
    return bases.pop()


def test_blank_lines_take_no_row(tmp_path):
    header, *rows = TINY_CSV.splitlines(keepends=True)
    text = header + "\n" + rows[0] + "\n\n" + rows[1] + "   \n" + rows[2] + "\n"
    sample = _against_the_row_loop(text, tmp_path)
    assert sample == ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    assert _rows_made(sample) == text.count("\n") == 9


def test_a_quoted_newline_makes_fewer_records_than_lines(tmp_path):
    text = TINY_CSV.replace("r2,user,them", '"r2",user,"th\nem"')
    sample = _against_the_row_loop(text, tmp_path)
    assert _labels(sample)[1] == ["r2", "user", "th\nem"]
    assert len(sample) == 3 and _rows_made(sample) == 5


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_line_ends_and_a_missing_final_newline_read_alike(tmp_path, ending):
    expected = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    text = TINY_CSV.replace("\n", ending)
    for body in (text, text.removesuffix(ending)):
        assert _against_the_row_loop(body, tmp_path) == expected


@pytest.mark.parametrize("text", [TINY_CSV.split("\n")[0], TINY_CSV.split("\n")[0] + "\r\n"])
def test_a_header_only_file_gives_empty_columns_and_a_warning(tmp_path, text):
    with pytest.warns(UserWarning, match="no respondent rows"):
        sample = _against_the_row_loop(text, tmp_path)
    assert sample.ids.shape == sample.role_codes.shape == sample.supplier_codes.shape == (0,)
    assert sample.ratings.shape == (0, 3) and sample.outcomes.shape == (0, 2)


def test_columns_the_header_omits_read_as_missing(tmp_path):
    text = (
        "respondent_id,role,supplier,b,outcome_repurchase\n"
        "r1,user,us,7,3\nr2,decision_maker,them,,10\nr3,user,us,2,\n"
    )
    sample = _against_the_row_loop(text, tmp_path, chunk_bytes=16)
    assert sample.ratings.tolist() == [[0, 0, 7], [0, 0, 0], [0, 0, 2]]
    assert sample.outcomes.tolist() == [[-1, 3], [-1, 10], [-1, -1]]
    labels_only = "respondent_id,role,supplier\nr1,user,us\nr2,decision_maker,them\n"
    sample = _against_the_row_loop(labels_only, tmp_path, chunk_bytes=16)
    assert _labels(sample) == [["r1", "user", "us"], ["r2", "decision_maker", "them"]]
    assert sample.ratings.tolist() == [[0, 0, 0]] * 2
    assert sample.outcomes.tolist() == [[-1, -1]] * 2


def test_ids_that_widen_across_chunks_and_a_later_repeat_named_at_its_row(tmp_path):
    # two 25-byte rows a chunk: r99998 and r99999 end one, r100000 starts the next
    rows = [[f"r{i}", "user", "us", "5", "5", "5", "5", "5"] for i in range(99_990, 100_010)]
    sample = _against_the_row_loop(_csv_text(rows), tmp_path)
    assert sample.ids.tolist() == [row[0].encode() for row in rows]
    assert sample.ids.dtype == np.dtype("S7")
    rows += [[later, "user", "them", "", "", "", "", ""] for later in ("r100010", "r99999")]
    bad_rating = ["r100011", "user", "them", "11", "", "", "", ""]
    blank_line, blank_cells = [], [""] * 8
    for body, first, row in (
        (rows, 11, 23),
        (rows + [bad_rating], 11, 23),  # the repeat stays the file's first fault
        (rows[:5] + [blank_line] + rows[5:15] + [blank_cells] + rows[15:], 12, 25),
    ):
        diagnostic = _against_the_row_loop(_csv_text(body), tmp_path)
        message = f"row {row}: duplicate respondent_id 'r99999' (first on row {first})"
        assert diagnostic == (message, row) and type(diagnostic[1]) is int


def test_ids_are_utf8_bytes_from_the_byte_parser_the_row_loop_and_the_constructor(tmp_path):
    rows = [[f"r{i}", "user", "us", "5", "5", "5", "5", "5"] for i in range(99_990, 100_010)]
    path = tmp_path / "survey.csv"
    path.write_text(_csv_text(rows))
    with mock.patch.object(survey, "_CHUNK_BYTES", 40):
        by_bytes = ingest_responses(path, TINY_TREE, "us")
        with mock.patch.object(survey, "_parse_bytes", lambda *args: None):
            by_rows = ingest_responses(path, TINY_TREE, "us")
    for sample in (by_bytes, by_rows):
        assert sample.ids.dtype == np.dtype("S7")
        assert sample.ids.tobytes() == by_rows.ids.tobytes()
    built = SurveySample(
        TINY_TREE, "us", ["ä1", "r2"], np.zeros(2, dtype=np.int8), ("us",),
        np.zeros(2, dtype=np.uint8), np.zeros((2, 3), dtype=np.int8), np.full((2, 2), -1, np.int8),
    )
    assert built.ids.tolist() == ["ä1".encode(), b"r2"] and built.ids.dtype == np.dtype("S3")


def test_a_non_ascii_id_round_trips_byte_for_byte_and_its_repeat_is_named_as_text(tmp_path):
    text = TINY_CSV.replace("r1,", "ä1,")
    sample = _against_the_row_loop(text, tmp_path)  # a stream, a path and the row loop
    assert sample.ids.tolist() == ["ä1".encode(), b"r2", b"r3"]
    assert survey_text(sample) == text
    repeat = text.replace("r3,", "ä1,")
    diagnostic = ("row 4: duplicate respondent_id 'ä1' (first on row 2)", 4)
    bad_role = text.replace("r3,decision_maker", "ä1,boss")  # the repeat's own row faults too
    for body in (repeat, repeat + "r4,boss,us,5,5,5,5,5\n", bad_role):
        result = _against_the_row_loop(body, tmp_path)
        assert result == diagnostic and type(result[1]) is int


@pytest.mark.parametrize("column, token", [(3, " 7"), (2, '"us"')])
def test_a_chunk_in_mid_file_that_is_not_plain(tmp_path, column, token):
    rows = [[f"r{i}", "user", "us", "1", "5", "10", "0", "10"] for i in range(1, 13)]
    rows[5][column] = token
    with mock.patch.object(survey, "_row_chunk", wraps=survey._row_chunk) as row_loop:
        sample = _against_the_row_loop(_csv_text(rows), tmp_path)
    assert _labels(sample) == [[f"r{i}", "user", "us"] for i in range(1, 13)]
    assert sample.ratings[5].tolist() == [7 if column == 3 else 1, 5, 10]
    if token == " 7":  # the row loop reads that chunk, and the byte parser the rest
        assert len(row_loop.call_args_list) == 2 + 6  # once per source, and six for the row loop


def test_ingest_peak_memory_stays_under_twice_the_columns(tmp_path, sample, tree):
    """Ingest holds the columns, one chunk's work arrays and the ids as
    fixed-width bytes, whose column it sorts a copy of for the repeat check.
    From a path that peaks near 1.2 times the bytes of the sample's columns,
    and under 1.5 times is asserted.  A stream is read whole and held as its
    UTF-8 bytes, which come on top; its case keeps the bound of twice the
    columns."""
    header, *body = survey_text(sample).splitlines(keepends=True)
    rows = [f"r{k:06d}{line[line.index(','):]}" for k, line in enumerate(body * 20)]
    text = header + "".join(rows)
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with mock.patch.object(survey, "_CHUNK_BYTES", 1 << 14):
        for source, held, bound in ((path, 0, 1.5), (io.StringIO(text), len(text), 2)):
            tracemalloc.start()
            try:
                ingested = ingest_responses(source, tree, "our_co")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            columns = (ingested.ids, ingested.role_codes, ingested.supplier_codes,
                       ingested.ratings, ingested.outcomes)
            assert len(ingested) == 40_000
            assert peak - held < bound * sum(column.nbytes for column in columns)


def test_a_quoted_survey_peaks_under_four_times_the_columns(tmp_path, sample, tree):
    """From a quoted first record on, csv.reader hands the row loop one
    record at a time, which it writes straight into the columns.  Beside
    them ingest holds each id as bytes, and in the fixed-width id column
    and its sorted copy: near 3.5 times the columns' bytes at 4,000 rows."""
    header, *body = survey_text(sample).splitlines(keepends=True)
    rows = [f'"r{k:06d}"{line[line.index(","):]}' for k, line in enumerate(body * 2)]
    path = tmp_path / "quoted.csv"
    path.write_text(header + "".join(rows))
    tracemalloc.start()
    try:
        ingested = ingest_responses(path, tree, "our_co")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = (ingested.ids, ingested.role_codes, ingested.supplier_codes,
               ingested.ratings, ingested.outcomes)
    assert len(ingested) == 4_000 and ingested.ids[0] == b"r000000"
    assert peak < 4 * sum(column.nbytes for column in columns)


def _three_hundred_suppliers():
    """(supplier names, rows): more suppliers than an int8 code can tell apart."""
    names = [f"s{k:03d}" for k in range(300)]
    rows = [[f"r{i}", "user", names[i * 7 % 300], "5", "5", "5", "5", "5"] for i in range(900)]
    for i, row in enumerate(rows):
        row[3 + i % 3] = str(1 + i % 10)  # means that differ by supplier
    return names, rows


def test_three_hundred_suppliers_keep_distinct_codes():
    names, rows = _three_hundred_suppliers()
    text = _csv_text(rows)
    samples = [ingest_responses(io.StringIO(text), TINY_TREE, "s150")]
    with mock.patch.object(survey, "_CHUNK_BYTES", 1000):  # codes merged across chunks
        samples.append(ingest_responses(io.StringIO(text), TINY_TREE, "s150"))
    with mock.patch.object(survey, "_parse_bytes", lambda *args: None):
        samples.append(ingest_responses(io.StringIO(text), TINY_TREE, "s150"))
    for sample in samples:
        assert sample == samples[-1]
        assert _labels(sample) == [row[:3] for row in rows]
        assert sample.suppliers() == ["s150", *(name for name in names if name != "s150")]
        for name in ("s150", "s000", "s299"):
            mine, rest = split_by_supplier(sample, name)
            assert mine.ids.tolist() == [row[0].encode() for row in rows if row[2] == name]
            assert len(mine) == 3 and len(rest) == len(rows) - 3


# --- the byte parser's reused work arrays


def test_work_arrays_grow_only_past_every_earlier_chunk_and_leave_no_alias():
    # chunks of 64 bytes taken on to a line end: 3 lines of 23 bytes, 1 of 66,
    # 1 of 1019, 5 of 16 and the last 3
    rows = [[f"r{i}", "user", "us", "1", "5", "10", "0", "10"] for i in range(1, 4)]
    rows.append(["r" + "5" * 37, "decision_maker", "them", "7", "", "", "", "3"])
    rows.append(["r" + "6" * 1000, "user", "them", "", "2", "", "9", ""])
    rows += [[f"b{i}", "user", "us", "", "", "", "", ""] for i in range(1, 9)]
    text = _csv_text(rows)
    parse, seen = survey._parse_bytes, []

    def spy(chunk, layout, supplier_code, scratch, out):
        ids = parse(chunk, layout, supplier_code, scratch, out)
        assert ids is not None
        for array, work in itertools.product([ids, *out], scratch.values()):
            assert not np.shares_memory(array, work)
        seen.append((chunk, len(scratch["newline"]), len(scratch["ends"])))
        return ids

    with mock.patch.object(survey, "_CHUNK_BYTES", 64), \
            mock.patch.object(survey, "_parse_bytes", spy):
        sample = ingest_responses(io.StringIO(text), TINY_TREE, "us")
    sizes = [len(chunk) for chunk, _, _ in seen]
    cells = [chunk.count(b",") + chunk.count(b"\n") for chunk, _, _ in seen]
    assert sizes[0] > sizes[1] < sizes[2] > sizes[3]  # grow, shrink, grow, shrink
    assert cells[1] < cells[0] < cells[3]  # a later chunk with fewer cells, then more
    assert max(sizes) == sizes[2] and b"6" * 1000 in seen[2][0]  # the long line
    assert [size for _, size, _ in seen] == list(itertools.accumulate(sizes, max))
    assert [size for _, _, size in seen] == list(itertools.accumulate(cells, max))

    with mock.patch.object(survey, "_parse_bytes", lambda *args: None):
        assert sample == ingest_responses(io.StringIO(text), TINY_TREE, "us")
    header, start = _csv_text([]), 0
    for chunk, _, _ in seen:
        fresh = ingest_responses(io.StringIO(header + chunk.decode()), TINY_TREE, "us")
        end = start + len(fresh)
        assert _labels(fresh) == _labels(sample)[start:end]
        assert fresh.ratings.tolist() == sample.ratings[start:end].tolist()
        assert fresh.outcomes.tolist() == sample.outcomes[start:end].tolist()
        start = end
    assert start == len(sample) == len(rows)


# --- means from one column pass


def _with_blank_cells(sample, share, seed):
    rng = np.random.default_rng(seed)
    ratings = np.where(rng.random(sample.ratings.shape) < share, 0, sample.ratings)
    return dataclasses.replace(sample, ratings=ratings.astype(np.int8))


def test_column_pass_means_equal_node_mean_bit_for_bit(sample, halves):
    blank = _with_blank_cells(sample, 0.3, seed=5)
    assert (blank.ratings == 0).any(axis=0).all()
    for part in (sample, *halves, blank, *split_by_supplier(blank)):
        means = node_means(part)
        assert list(means) == list(part.tree.preorder())
        for node, mean in means.items():
            assert mean.hex() == node_mean(part, node).mean.hex(), node


def test_supplier_sums_give_each_split_part_its_node_mean_bit_for_bit(sample):
    names, rows = _three_hundred_suppliers()
    three_hundred = ingest_responses(io.StringIO(_csv_text(rows)), TINY_TREE, "s150")
    for part in (sample, _with_blank_cells(sample, 0.3, seed=5), three_hundred):
        for node in part.tree.preorder():
            sums = supplier_sums(part, node)
            assert list(sums) == part.suppliers()
            n_all, sum_all = (sum(column) for column in zip(*sums.values()))
            for supplier, (n, total) in sums.items():
                for split, (count, value) in zip(
                    split_by_supplier(part, supplier), ((n, total), (n_all - n, sum_all - total))
                ):
                    if not count:
                        with pytest.raises(NoRatingsError):
                            node_mean(split, node)
                        continue
                    mean = node_mean(split, node)
                    assert mean.n == count
                    assert (value / count).hex() == mean.mean.hex(), (supplier, node)


def test_own_split_means_equal_node_means_of_the_split_parts_bit_for_bit(sample):
    for part in (sample, _with_blank_cells(sample, 0.3, seed=5)):
        parts = split_by_supplier(part)
        mine, *sides = survey._own_sides(part)
        assert mine.tolist() == [s == "our_co" for s in part._supplier_column()]
        assert [side.rows for side in sides] == list(map(len, parts))
        want = [node_means(p) for p in parts]
        got = [side.means() for side in sides]
        assert [list(means) for means in got] == [list(means) for means in want]
        assert [[m.hex() for m in means.values()] for means in got] == [
            [m.hex() for m in means.values()] for means in want
        ]
        for side, split in zip(sides, parts):
            for node in part.tree.preorder():
                assert side.mean(node) == node_mean(split, node)
        assert np.array_equal(sides[0].moments + sides[1].moments, part._moments)
        with pytest.raises(NoRatingsError, match="'worth_what_paid_for'"):
            survey._own_sides(parts[1])[1].means()


def test_supplier_sums_list_a_supplier_without_ratings_as_zero():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    assert supplier_sums(sample, "b") == {"us": (1, 7), "them": (1, 7)}
    own, _ = split_by_supplier(sample)
    assert supplier_sums(own, "b") == {"us": (1, 7)}
    ratings = sample.ratings.copy()
    ratings[1, 2] = 0
    assert supplier_sums(dataclasses.replace(sample, ratings=ratings), "b") == {
        "us": (1, 7), "them": (0, 0)
    }


def test_column_pass_refuses_a_node_nobody_rated():
    sample = ingest_responses(io.StringIO(TINY_CSV), TINY_TREE, "us")
    own, _ = split_by_supplier(sample)
    assert node_means(own) == {"value": 7.5, "a": 8.0, "b": 7.0}
    ratings = sample.ratings.copy()
    ratings[:, 2] = 0
    blank_b = dataclasses.replace(sample, ratings=ratings)
    with pytest.raises(NoRatingsError, match="'b'"):
        node_means(blank_b)
    with pytest.raises(NoRatingsError, match="'b'"):
        node_mean(blank_b, "b")


# --- every ingest diagnostic counts CSV records


@pytest.mark.parametrize("fault", [b"caf\xff", b"us,11"])
def test_a_quoted_newline_shifts_no_diagnostic_off_its_record(tmp_path, fault):
    # record 2 spans two lines, so record 5 starts on line 6
    text = TINY_CSV.replace("r1,", '"r\n1",', 1) + "r4,user,them,6,5,7,5,5\n"
    data = text.encode().replace(b"r4,user,them,6", b"r4,user," + fault, 1)
    path = tmp_path / "survey.csv"
    path.write_bytes(data)
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(path, TINY_TREE, "us")
    assert err.value.row == 5
    if fault == b"caf\xff":
        assert str(err.value) == "row 5: byte 0xff is not valid UTF-8"


def test_a_header_record_csv_reader_cannot_read_is_named_at_row_1(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text('"' + "x" * 200_000 + '"\n')
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(path, TINY_TREE, "us")
    assert str(err.value) == "row 1: malformed CSV: field larger than field limit (131072)"


def test_a_malformed_record_past_the_first_chunk_is_named_by_its_record_number(tmp_path):
    rows = [f"r{i},user,us,5,5,5,5,5" for i in range(2, 30)]
    rows[8] = rows[8].replace("r10", '"r\n10"')  # record 10 spans two lines
    rows[18] = rows[18].replace("r20", '"' + "x" * 200_000 + '"')  # csv.Error on record 20
    path = tmp_path / "survey.csv"
    path.write_text("\n".join([TINY_CSV.splitlines()[0], *rows]) + "\n")
    with mock.patch.object(survey, "_CHUNK_BYTES", 100), pytest.raises(SurveyFormatError) as err:
        ingest_responses(path, TINY_TREE, "us")
    assert str(err.value) == "row 20: malformed CSV: field larger than field limit (131072)"


def test_an_undecodable_byte_in_a_stream_is_a_diagnostic_without_a_row(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_bytes(TINY_CSV.encode().replace(b"them", b"th\xffem"))
    with open(path, encoding="utf-8", newline="") as stream:
        with pytest.raises(SurveyFormatError) as err:
            ingest_responses(stream, TINY_TREE, "us")
    assert err.value.row is None
    assert str(err.value) == "byte 0xff is not valid UTF-8"


def test_a_bad_cell_is_named_before_a_later_undecodable_byte_in_its_block(tmp_path):
    # both rows fall in the text decoder's first block
    rows = TINY_CSV.splitlines() + [f"r{i},user,them,6,5,7,5,5" for i in range(4, 8)]
    rows[3] = "r3,decision_maker,us,7"
    rows[6] = rows[6].replace("them", "th\udcffem")
    path = tmp_path / "survey.csv"
    path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(rows).encode("utf-8", "surrogateescape"))
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(path, TINY_TREE, "us")
    assert str(err.value) == "row 4: expected 8 fields, got 4"


def test_an_undecodable_byte_in_the_header_names_row_one(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_bytes(TINY_CSV.encode().replace(b"value", b"val\xffue", 1))
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(path, TINY_TREE, "us")
    assert str(err.value) == "row 1: byte 0xff is not valid UTF-8"


def test_a_lone_surrogate_in_a_stream_is_refused_at_its_row():
    with pytest.raises(SurveyFormatError) as err:
        ingest_responses(io.StringIO(TINY_CSV.replace("them", "th\udcffem")), TINY_TREE, "us")
    assert str(err.value) == "row 3: byte 0xed is not valid UTF-8"


@pytest.mark.parametrize("old, new", [("r2,", "r2\x00,"), ("them", "us\x00"),
                                      ("r2,user", "r2,user\x00"), ("r1,", "\x00,")])
def test_a_nul_byte_is_refused_at_its_row(tmp_path, old, new):
    """Fixed-width bytes would drop a trailing NUL, so ``us\\x00`` would read as ``us``."""
    text = TINY_CSV.replace(old, new, 1)
    path = tmp_path / "survey.csv"
    path.write_text(text)
    for source in (io.StringIO(text), path):
        with pytest.raises(SurveyFormatError) as err:
            ingest_responses(source, TINY_TREE, "us")
        row = 2 if old == "r1," else 3
        assert str(err.value) == f"row {row}: NUL byte (0x00) in the record"


@settings(max_examples=200, deadline=None)
@given(_respondent_rows(), st.sampled_from(["\n", "\r\n"]), st.data())
def test_an_undecodable_byte_is_named_at_its_record(rows, ending, data):
    lines = _rows_text(rows).replace("\n", ending).encode().splitlines(keepends=True)
    record = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(lines[record].rstrip(b"\r\n"))))
    lines[record] = lines[record][:at] + b"\xff" + lines[record][at:]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(survey, "_CHUNK_BYTES", 30):
        path = Path(tmp) / "survey.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(SurveyFormatError) as err:
            ingest_responses(path, TINY_TREE, "us")
    assert err.value.row == record + 1
    assert str(err.value) == f"row {record + 1}: byte 0xff is not valid UTF-8"
