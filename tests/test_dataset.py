import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errstat.correlation import correlation_matrix
from errstat.dataset import (
    BenchmarkTable,
    ErrorMatrix,
    ValidationError,
    _bulk_rows,
    errors_from_table,
    load_table,
)
from errstat.inference import BootstrapPlan
from errstat.sip import abs_error_deltas, delta_ecdf, sip_matrix

BASIC = "System,Ref,M1\na,1.0,0.9\nb,2.0,2.1\nc,3.0,3.0\n"


def test_load_basic_csv():
    table = load_table(BASIC)
    assert table.n_systems == 3
    assert table.method_names == ["M1"]
    assert table.system_ids == ["a", "b", "c"]
    np.testing.assert_allclose(table.reference, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(table.methods["M1"], [0.9, 2.1, 3.0])


def test_load_from_file_and_stream(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(BASIC)
    assert load_table(str(path)).n_systems == 3
    assert load_table(io.StringIO(BASIC)).n_systems == 3
    assert load_table(BASIC.encode()).n_systems == 3


def test_comments_are_skipped():
    table = load_table("# a comment\nSystem,Ref,M1\n# another\na,1,2\nb,2,3\n")
    assert table.n_systems == 2


def test_duplicate_system_id_rejected():
    with pytest.raises(ValidationError, match="duplicate system id"):
        load_table("System,Ref,M1\na,1.0,0.9\na,2.0,2.1\nc,3.0,3.0\n")


def test_negative_uncertainty_rejected():
    with pytest.raises(ValidationError, match="negative uncertainty"):
        load_table("System,Ref,uRef,M1\na,1.0,-0.1,0.9\nb,2.0,0.1,2.1\n")
    with pytest.raises(ValidationError, match="negative uncertainty"):
        load_table("System,Ref,M1,u:M1\na,1.0,0.9,-1\nb,2.0,2.1,0\n")


def test_non_numeric_cell_rejected():
    with pytest.raises(ValidationError, match="row 3.*non-numeric"):
        load_table("System,Ref,M1\na,1.0,0.9\nb,oops,2.1\nc,3.0,3.0\n")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_cell_rejected(cell):
    with pytest.raises(ValidationError, match="row 3: non-finite cell .* in column 'M1'"):
        load_table(f"System,Ref,M1\na,1.0,0.9\nb,2.0,{cell}\nc,3.0,3.0\n")
    with pytest.raises(ValidationError, match="row 2: non-finite cell .* in column 'uRef'"):
        load_table(f"System,Ref,uRef,M1\na,1.0,{cell},0.9\nb,2.0,0.1,2.1\n")


def test_utf8_bom_is_skipped(tmp_path):
    bom = b"\xef\xbb\xbf" + BASIC.encode()
    path = tmp_path / "bom.csv"
    path.write_bytes(bom)
    text = bom.decode()
    for source in (str(path), bom, io.BytesIO(bom), text, io.StringIO(text),
                   io.TextIOWrapper(io.BytesIO(bom), encoding="utf-8")):
        table = load_table(source)
        assert table.system_ids == ["a", "b", "c"]
        assert table.method_names == ["M1"]


def test_missing_cell_drops_row_with_warning():
    with pytest.warns(UserWarning, match="row 3.*dropped"):
        table = load_table("System,Ref,M1\na,1.0,0.9\nb,,2.1\nc,3.0,3.0\n")
    assert table.system_ids == ["a", "c"]


def test_header_validation():
    with pytest.raises(ValidationError, match="malformed header"):
        load_table("Id,Ref,M1\na,1,2\nb,2,3\n")
    with pytest.raises(ValidationError, match="malformed header"):
        load_table("System,M1\na,2\nb,3\n")
    with pytest.raises(ValidationError, match="no method"):
        load_table("System,Ref\na,1\nb,2\n")
    with pytest.raises(ValidationError, match="no matching method"):
        load_table("System,Ref,M1,u:M2\na,1,2,0\nb,2,3,0\n")
    with pytest.raises(ValidationError, match="duplicate column name 'A'"):
        load_table("System,Ref,A,A\na,1,2,3\nb,2,3,4\n")


def test_empty_header_cell_is_rejected_naming_its_position():
    # An empty name would make a method called '' that every command reports.
    for header, position in (("System,Ref,,M2", 3), ("System,Ref,M1,", 4), ("System, ,Ref,M1", 2)):
        with pytest.raises(ValidationError) as info:
            load_table(f"{header}\na,1,2,3\nb,2,3,4\n")
        assert str(info.value) == f"malformed header: empty column name at position {position}"


def test_lone_cr_inside_a_line_of_inline_text_is_a_validation_error():
    # csv.reader raises its own csv.Error here; load_table names the row instead.
    with pytest.raises(ValidationError) as info:
        load_table("System,Ref,M1\na,1\r,2\nb,2,3\n")
    assert str(info.value).startswith("row 2: new-line character seen in unquoted field")


def _table(n=2, ref=None, u_ref=None, methods=None, calc_u=None):
    ones = np.ones(n)
    return BenchmarkTable([f"s{i}" for i in range(n)], ones if ref is None else ref, u_ref,
                          {"M": ones} if methods is None else methods, calc_u or {})


_SHORT = np.ones(1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _table(n=1), ValidationError, "need at least 2 systems, got 1"),
    (lambda: _table(methods={}), ValidationError, "no method columns"),
    (lambda: _table(ref=_SHORT), ValidationError, "reference column length mismatch"),
    (lambda: _table(methods={"M": _SHORT}), ValidationError, "column 'M' length mismatch"),
    (lambda: _table(calc_u={"M": _SHORT}), ValidationError, "column u:'M' length mismatch"),
    (lambda: _table(u_ref=_SHORT), ValidationError, "uRef column length mismatch"),
    (lambda: _table(calc_u={"X": np.ones(2)}), ValidationError, "uncertainty column for unknown method 'X'"),
    (lambda: ErrorMatrix(np.ones(3), ["A"]), ValidationError, "2-d array"),
    (lambda: ErrorMatrix(np.ones((3, 2)), ["A"]), ValidationError, "column count"),
    (lambda: ErrorMatrix(np.ones((3, 1)), ["A"]).index_of("B"), KeyError, "unknown method 'B'"),
    (lambda: load_table("\n"), ValidationError, "empty input"),
    (lambda: load_table("System,Ref,M1\n"), ValidationError, "need at least 2 systems, got 0"),  # header only
    (lambda: abs_error_deltas(np.ones(3), np.ones(2)), ValueError, "1-d and the same length"),
    (lambda: sip_matrix(ErrorMatrix(np.ones((3, 1)), ["A"])), ValueError, "at least 2 methods"),
    (lambda: delta_ecdf(np.ones(1), np.ones(1), BootstrapPlan(B=100)), ValueError, "at least 2 systems"),
    (lambda: correlation_matrix(np.eye(3), method="kendall"), ValueError, "unknown correlation method 'kendall'"),
])
def test_library_input_checks_name_the_fault(call, error, message):
    # Checks that the CLI's own validation keeps it from reaching; library callers meet them.
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_too_few_rows():
    with pytest.raises(ValidationError, match="at least 2"):
        load_table("System,Ref,M1\na,1.0,0.9\n")


def test_errors_from_table_subtraction():
    table = load_table("System,Ref,M1,M2\na,1,1,0\nb,2,1,0\nc,3,1,0\n")
    em = errors_from_table(table)
    np.testing.assert_array_equal(em.errors[:, 0], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(em.errors[:, 1], [1.0, 2.0, 3.0])
    assert em.method_names == ["M1", "M2"]


def test_errors_zero_when_prediction_equals_reference():
    table = load_table("System,Ref,M1\na,1.5,1.5\nb,-2.0,-2.0\n")
    em = errors_from_table(table)
    np.testing.assert_array_equal(em.errors[:, 0], [0.0, 0.0])


def test_errors_exactness_and_pairing_permutation():
    rng = np.random.default_rng(5)
    ref = rng.normal(size=12)
    preds = rng.normal(size=(12, 3))
    def line(i):
        return f"s{i},{float(ref[i])!r},{float(preds[i,0])!r},{float(preds[i,1])!r},{float(preds[i,2])!r}"

    rows = ["System,Ref,A,B,C"] + [line(i) for i in range(12)]
    em = errors_from_table(load_table("\n".join(rows)))
    # e + c recovers r cell by cell, up to one rounding of the subtraction
    np.testing.assert_allclose(em.errors + preds, np.broadcast_to(ref[:, None], preds.shape),
                               rtol=4 * np.finfo(float).eps, atol=0)

    perm = rng.permutation(12)
    rows_p = ["System,Ref,A,B,C"] + [line(i) for i in perm]
    em_p = errors_from_table(load_table("\n".join(rows_p)))
    np.testing.assert_array_equal(em_p.errors, em.errors[perm])


def _spread_warnings(text):
    """Messages of the warnings errors_from_table emits for a CSV table."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        errors_from_table(load_table(text))
    return [str(w.message) for w in caught]


def _spread_ratio(message):
    return float(re.search(r"max/median = ([0-9.]+)", message).group(1))


def test_uncertainty_propagation():
    # u(e) combines uRef and u:<M> in quadrature, per method: row 0 gives
    # M1 hypot(3, 4) = 5 over a median of 0.4, while M2, with no u:M2
    # column, sees uRef alone (3 / 0.4 = 7.5, below the warning ratio).
    rows = ["System,Ref,uRef,M1,u:M1,M2", "s0,1,3,0.9,4,0.8"] + [f"s{i},1,0.4,0.9,0,0.8" for i in range(1, 10)]
    assert _spread_warnings("\n".join(rows)) == [
        "M1: extreme uncertainty spread (max/median = 12.5); "
        "statistics on this column may be dominated by a few rows"
    ]


def test_uncertainty_absent_means_none():
    # Nothing to screen without uncertainty columns, and the columns,
    # when present, never change the errors.
    assert _spread_warnings(BASIC) == []
    with_u = "System,Ref,uRef,M1,u:M1\na,1.0,0.1,0.9,0.2\nb,2.0,0.1,2.1,0.2\nc,3.0,0.1,3.0,0.2\n"
    np.testing.assert_array_equal(
        errors_from_table(load_table(with_u)).errors, errors_from_table(load_table(BASIC)).errors
    )


def test_extreme_uncertainty_spread_warns():
    rows = ["System,Ref,uRef,M1"] + [f"s{i},1.0,0.1,0.9" for i in range(9)] + ["big,1.0,50.0,0.9"]
    with pytest.warns(UserWarning, match="extreme uncertainty spread"):
        errors_from_table(load_table("\n".join(rows)))


def _one_row_spread(u_ref, u_calc, quiet=(1.0, 0.0)):
    """Spread warnings when row 0 has (uRef, u:M1) and nine rows have `quiet`."""
    rows = [f"s0,1.0,{u_ref!r},0.9,{u_calc!r}"] + [f"s{i},1.0,{quiet[0]!r},0.9,{quiet[1]!r}" for i in range(1, 10)]
    return _spread_warnings("\n".join(["System,Ref,uRef,M1,u:M1", *rows]))


def test_combine_uncertainty_examples():
    # The quiet rows put the median at 0.01, so row 0's combined u sets the
    # ratio: hypot(3, 4) = 5 and hypot(0.7, 0) = 0.7 warn, hypot(0, 0) = 0
    # leaves the max at the median.
    quiet = (0.01, 0.0)
    assert [_spread_ratio(m) for m in _one_row_spread(3.0, 4.0, quiet)] == [500.0]
    assert [_spread_ratio(m) for m in _one_row_spread(0.7, 0.0, quiet)] == [70.0]
    assert _one_row_spread(0.0, 0.0, quiet) == []
    with pytest.raises(ValidationError):
        _one_row_spread(-1.0, 2.0)


@given(
    st.floats(min_value=0, max_value=1e12),
    st.floats(min_value=0, max_value=1e12),
)
def test_combine_uncertainty_symmetric_and_dominating(a, b):
    # The quiet rows put the median at 1, so row 0 alone sets the ratio.
    both = _one_row_spread(a, b)
    assert both == _one_row_spread(b, a, quiet=(0.0, 1.0))
    for alone in (_one_row_spread(a, 0.0), _one_row_spread(0.0, b, quiet=(0.0, 1.0))):
        if alone:
            assert both and _spread_ratio(both[0]) >= _spread_ratio(alone[0])


_CELL_FORMATS = (repr, lambda v: f" {v!r}\t", lambda v: f"{v:.17e}", lambda v: f"{v:.17g}")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text("abcXYZ019_-.", min_size=1, max_size=6),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        ),
        min_size=2,
        max_size=25,
        unique_by=lambda row: row[0],
    ),
    st.sampled_from(_CELL_FORMATS),
)
def test_load_round_trips_ids_and_float_bits(rows, fmt):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["System", "Ref", "M1", "M2"])
    writer.writerows([sid, *map(fmt, values)] for sid, values in rows)
    table = load_table(buf.getvalue())
    assert table.system_ids == [sid for sid, _ in rows]
    got = np.column_stack([table.reference, table.methods["M1"], table.methods["M2"]])
    want = np.array([values for _, values in rows])
    assert got.tobytes() == want.tobytes()  # bit equality: -0.0 is not 0.0


# Cells on which numpy's and Python's str-to-float may disagree; both paths strip a cell first.
_PROBES = ["1_0", "\u0661\u0662", "\u0663.\u0665", "\u0967\u0968", "  2.5  ", "\xa07\xa0", "infinity",
           "1e999", "-0", "1e-400", ".5", "5.", "nan", "0x10", "1 2", "1e", "+-1", "True", "", " ", "1__0", "_1",
           "1\x1c", "\x1f2"]


@pytest.mark.parametrize("cell", _PROBES)
def test_bulk_conversion_agrees_with_python_float(cell):
    # The bulk path returns float's value or leaves the table to the per-cell
    # path, and load_table gives float's value for every finite cell it accepts.
    try:
        want = float(cell.strip())
    except ValueError:
        want = None
    bulk = _bulk_rows(["System,Ref,M1\n", f"a,1.0,{cell}\n", "b,2.0,3.0\n"])
    if bulk is not None:
        assert want is not None and bulk[2][:1].tobytes() == np.array([[1.0, want]]).tobytes()
    if want is not None and math.isfinite(want):
        table = load_table(f"System,Ref,M1\na,1.0,{cell}\nb,2.0,3.0\n")
        assert table.methods["M1"][:1].tobytes() == np.array([want]).tobytes()


def test_quoted_id_may_hold_a_comma():
    table = load_table('System,Ref,M1\n"a,1", 1.0 ,0.9\n" b",2.0,2.1\n')
    assert table.system_ids == ["a,1", "b"]
    assert table.reference.tolist() == [1.0, 2.0] and table.methods["M1"].tolist() == [0.9, 2.1]


def test_crlf_file_and_inline_text_with_cr_read_as_lf(tmp_path):
    want = load_table(BASIC)
    crlf = BASIC.replace("\n", "\r\n").encode()
    path = tmp_path / "crlf.csv"
    path.write_bytes(crlf)
    for source in (str(path), crlf, crlf.decode(), io.BytesIO(crlf)):
        table = load_table(source)
        assert table.system_ids == want.system_ids
        assert table.methods["M1"].tobytes() == want.methods["M1"].tobytes()


def test_blank_and_comment_lines_are_skipped_and_a_whitespace_line_is_a_short_row():
    table = load_table("\nSystem,Ref,M1\n\na,1,2\n  # note\n#x,y,z\n\nb,2,3")
    assert table.system_ids == ["a", "b"] and table.methods["M1"].tolist() == [2.0, 3.0]
    with pytest.raises(ValidationError) as info:
        load_table("System,Ref,M1\na,1,2\n \t\nb,2,3\n")
    assert str(info.value) == "row 3: expected 3 cells, got 1"


def test_cells_float_reads_and_numpy_rejects_keep_their_values():
    table = load_table("System,Ref,M1\na,1_0,\u0661\u0662\nb,2,3\n")
    assert table.reference.tolist() == [10.0, 2.0] and table.methods["M1"].tolist() == [12.0, 3.0]


def _reference_load(stream):
    """(ids, values) of a System,Ref,M1,M2 table read cell by cell; warns and raises as load_table does."""
    reader = csv.reader(stream)
    try:
        rows = [(n, row) for n, row in enumerate(reader, start=1) if row and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:  # a lone CR inside a line of inline text
        raise ValidationError(f"row {reader.line_num}: {exc}") from None
    names = [c.strip() for c in rows[0][1]]
    if names[0] != "System":  # a whitespace line before the header
        raise ValidationError("malformed header: first column must be 'System'")
    ids, values = [], []
    for n, row in rows[1:]:
        if len(row) != len(names):
            raise ValidationError(f"row {n}: expected {len(names)} cells, got {len(row)}")
        cells = [c.strip() for c in row]
        if "" in cells[1:]:
            warnings.warn(f"row {n}: missing value, row dropped")
            continue
        parsed = []
        for name, cell in zip(names[1:], cells[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(f"row {n}: non-numeric cell {cell!r} in column {name!r}") from None
            if not math.isfinite(parsed[-1]):
                raise ValidationError(f"row {n}: non-finite cell {cell!r} in column {name!r}")
        ids.append(cells[0])
        values.append(parsed)
    if len(ids) < 2:
        raise ValidationError(f"need at least 2 systems, got {len(ids)}")
    return ids, values


# Cell forms both readers take; str.strip, which the per-cell path applies, and numpy strip the same characters.
_SAME_FORMS = (repr, lambda v: f" {v!r}\t", lambda v: f"{v:.17e}", lambda v: f"\xa0{v:.17g}", lambda v: f"{v!r}\x1c")
# Twists only the per-cell path reads: a cell's text, or a change to a row or the lines.
_TWISTS = ('"{}"', "{}\r", "", " ", "nan", "1e999", "1__0", "1_000.5", "\u0661\u0662.5",
           "quoted id", "extra cell", "short row", "whitespace line", "CRLF")


@st.composite
def _tables(draw):
    """A System,Ref,M1,M2 table: numbers both readers take, blank and comment lines, and up to two twists."""
    values = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
                           min_size=2, max_size=10))
    rows = [[draw(st.sampled_from(["s{}", " s{} "])).format(i), *(draw(st.sampled_from(_SAME_FORMS))(v) for v in row)]
            for i, row in enumerate(values)]
    fillers, end = ["", "# note", "  #x,1,2,3"], "\n"
    for twist in draw(st.lists(st.sampled_from(_TWISTS), max_size=2)):
        row = draw(st.sampled_from(rows))
        if twist == "quoted id":
            row[0] = draw(st.sampled_from(['"{}"', '"{},x"'])).format(row[0])
        elif twist == "extra cell":
            row.append("1")
        elif twist == "short row":
            row.pop()
        elif twist == "whitespace line":
            fillers.append(draw(st.sampled_from([" \t", "\x0c"])))
        elif twist == "CRLF":
            end = "\r\n"
        else:
            j = draw(st.integers(1, len(row) - 1))
            row[j] = twist.format(row[j])
    lines = ["System,Ref,M1,M2", *(",".join(row) for row in rows)]
    for filler in draw(st.lists(st.sampled_from(fillers), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, stream_or_source):
    """(result, warning texts, error text) of one reading."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = load(stream_or_source), None
        except (ValidationError, csv.Error) as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught], error


@settings(max_examples=400, deadline=None)
@given(_tables(), st.booleans())
def test_load_table_equals_the_per_cell_reference(text, as_stream):
    # Whichever path load_table takes, it gives the per-cell reading's ids,
    # float bits, warnings and error, for inline text and for a byte stream.
    if as_stream:
        source, stream = io.BytesIO(text.encode()), io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig")
    else:
        source, stream = text, io.StringIO(text)
    want, want_warnings, want_error = _outcome(_reference_load, stream)
    table, got_warnings, got_error = _outcome(load_table, source)
    assert (got_warnings, got_error) == (want_warnings, want_error)
    if got_error is None:
        ids, values = want
        assert table.system_ids == ids
        got = np.column_stack([table.reference, table.methods["M1"], table.methods["M2"]])
        assert got.tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("a,1,2\n#b,x,y\nc,2,nan\n", "row 4: non-finite cell 'nan' in column 'M1'"),
        ("a,1,2\nb,inf,3\nc,2,3\n", "row 3: non-finite cell 'inf' in column 'Ref'"),
        ("a,1,2\nb,2\nc,2,3\n", "row 3: expected 3 cells, got 2"),
        ("a,1,2\nb,2,3,4\nc,2,3\n", "row 3: expected 3 cells, got 4"),
        ("a,1,2\n  # note,x\nb,2,#3\n", "row 4: non-numeric cell '#3' in column 'M1'"),
        ("a,1,2\nb,, 2\nc,2,oops\n", "row 4: non-numeric cell 'oops' in column 'M1'"),
    ],
)
def test_per_cell_errors_name_row_and_column(body, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValidationError) as info:
            load_table("System,Ref,M1\n" + body)
    assert str(info.value) == message


def test_missing_cell_warning_names_the_row_and_comments_still_count_as_lines():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = load_table("System,Ref,M1\n# comment\na,1,2\nb, ,3\nc,2,3\nd,3,\n")
    assert [str(w.message) for w in caught] == [
        "row 4: missing value, row dropped",
        "row 6: missing value, row dropped",
    ]
    assert table.system_ids == ["a", "c"]
    np.testing.assert_array_equal(table.methods["M1"], [2.0, 3.0])
