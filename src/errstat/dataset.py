"""Benchmark tables and paired error sets.

A benchmark table holds, for N systems, a reference value and the
predictions of K methods, plus optional standard uncertainties.  The
error matrix derived from it is the central data structure everywhere
else: N paired rows of signed errors (reference minus prediction), one
column per method.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimators import median

__all__ = [
    "ValidationError",
    "BenchmarkTable",
    "ErrorMatrix",
    "load_table",
    "errors_from_table",
]

# Warn when the spread of error uncertainties within a column exceeds this
# ratio (max over median); such datasets break the i.i.d. bootstrap premise.
EXTREME_UNCERTAINTY_RATIO = 10.0
# A sum of N' < 1e8 errors, each at most 1e300, and the difference of two
# statistics stay finite; RMSD, every SE and Pearson scale by a power of two first.
_MAX_ABS_ERROR = 1e300


class ValidationError(ValueError):
    """Raised when an input table violates the schema or its invariants."""


@dataclass(frozen=True)
class BenchmarkTable:
    """Validated reference-vs-methods table.

    system_ids       unique labels, length N
    reference        reference values r_i, length N
    ref_uncertainty  u(r_i) >= 0 or None
    methods          dict name -> N predictions, K >= 1 entries
    calc_uncertainty dict name -> N prediction uncertainties (subset of methods)
    """

    system_ids: list
    reference: np.ndarray
    ref_uncertainty: np.ndarray | None
    methods: dict
    calc_uncertainty: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.system_ids)
        if n < 2:
            raise ValidationError(f"need at least 2 systems, got {n}")
        if len(set(self.system_ids)) != n:
            dupes = sorted({s for s in self.system_ids if self.system_ids.count(s) > 1})
            raise ValidationError(f"duplicate system id: {', '.join(map(str, dupes))}")
        if not self.methods:
            raise ValidationError("table has no method columns")
        if len(self.reference) != n:
            raise ValidationError("reference column length mismatch")
        for name, col in self.methods.items():
            if len(col) != n:
                raise ValidationError(f"column {name!r} length mismatch")
        for name, col in self.calc_uncertainty.items():
            if name not in self.methods:
                raise ValidationError(f"uncertainty column for unknown method {name!r}")
            if len(col) != n:
                raise ValidationError(f"column u:{name!r} length mismatch")
            if np.any(col < 0):
                raise ValidationError(f"negative uncertainty in column u:{name}")
        if self.ref_uncertainty is not None:
            if len(self.ref_uncertainty) != n:
                raise ValidationError("uRef column length mismatch")
            if np.any(self.ref_uncertainty < 0):
                raise ValidationError("negative uncertainty in column uRef")

    @property
    def n_systems(self):
        return len(self.system_ids)

    @property
    def method_names(self):
        return list(self.methods)


@dataclass(frozen=True)
class ErrorMatrix:
    """Paired signed errors: row i of every column refers to system i."""

    errors: np.ndarray
    method_names: list
    system_ids: list | None = None

    def __post_init__(self):
        if self.errors.ndim != 2:
            raise ValidationError("errors must be a 2-d array")
        if self.errors.shape[1] != len(self.method_names):
            raise ValidationError("column count does not match method names")

    @property
    def n_systems(self):
        return self.errors.shape[0]

    @property
    def n_methods(self):
        return self.errors.shape[1]

    def column(self, method):
        """Error vector for a method, by name or index."""
        return self.errors[:, self.index_of(method)]

    def index_of(self, method):
        if isinstance(method, str):
            try:
                return self.method_names.index(method)
            except ValueError:
                raise KeyError(f"unknown method {method!r}") from None
        return int(method)


def _parse_header(fields):
    """The header's column names and roles: (names, method columns, {method: its "u:" column})."""
    names = [f.strip() for f in fields]
    if names[0] != "System":
        raise ValidationError("malformed header: first column must be 'System'")
    if "" in names:
        raise ValidationError(f"malformed header: empty column name at position {names.index('') + 1}")
    if "Ref" not in names:
        raise ValidationError("malformed header: missing 'Ref' column")
    if len(set(names)) != len(names):
        raise ValidationError("malformed header: duplicate column name")
    methods = [n for n in names[1:] if n not in ("Ref", "uRef") and not n.startswith("u:")]
    if not methods:
        raise ValidationError("malformed header: no method columns")
    calc_u = {n[2:]: n for n in names if n.startswith("u:")}  # method -> its uncertainty column
    for m, n in calc_u.items():
        if m not in methods:
            raise ValidationError(f"malformed header: {n!r} has no matching method column")
    return names, methods, calc_u


def load_table(source):
    """Parse and validate a benchmark table.

    `source` may be a path, a text/binary file object, or a CSV string.
    Expected layout: header `System,Ref[,uRef],<M1>[,u:<M1>],...`, one row
    per system, `#` lines are comments.  Rows with empty cells are dropped
    with a warning (paired bootstrap needs rectangular data); non-numeric
    or non-finite cells abort the parse.  A leading UTF-8 BOM is skipped.
    """
    if isinstance(source, (str, bytes)) and not _looks_like_inline_csv(source):
        with open(source, "r", encoding="utf-8") as fh:
            return _load_csv(fh)
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        return _load_csv(io.StringIO(source))
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")
    return _load_csv(source)


def _looks_like_inline_csv(s):
    """A table spans at least 3 lines; a path has no line break but may have commas."""
    return ("\n" if isinstance(s, str) else b"\n") in s


# csv.reader splits a line free of these exactly as str.split(",") does;
# np.loadtxt strips a cell as str.strip does and reads what float reads, or rejects it.
_PER_CELL_CHARS = '"\r\0'


def _load_csv(fh):
    lines = fh.readlines()
    if lines and lines[0].startswith("\ufeff"):  # a leading byte-order mark, whatever the source
        lines[0] = lines[0][1:]
    (header, methods, calc_u), kept_ids, body_values = _bulk_rows(lines) or _per_cell_rows(lines)

    if len(kept_ids) < 2:
        raise ValidationError(f"need at least 2 systems, got {len(kept_ids)}")
    data = dict(zip(header[1:], body_values.T))
    return BenchmarkTable(
        system_ids=kept_ids,
        reference=data["Ref"],
        ref_uncertainty=data.get("uRef"),
        methods={m: data[m] for m in methods},
        calc_uncertainty={m: data[n] for m, n in calc_u.items()},
    )


def _bulk_rows(lines):
    """(parsed header, ids, values) with every value cell converted in one numpy call.

    None when the text or a row needs the per-cell checks: a character from
    _PER_CELL_CHARS, a row without exactly one cell per column, a cell
    loadtxt rejects (float may still accept it) or a non-finite value.
    """
    text = "".join(lines)
    if any(c in text for c in _PER_CELL_CHARS):
        return None
    kept = [line for line in lines if line != "\n" and not line.lstrip().startswith("#")]
    if len(kept) < 2:
        return None
    head = _parse_header(kept[0].rstrip("\n").split(","))
    ncol = len(head[0])
    body = kept[1:]
    if any(line.count(",") != ncol - 1 for line in body):  # loadtxt ignores cells past usecols
        return None
    try:
        values = np.loadtxt(body, delimiter=",", usecols=range(1, ncol), comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return head, [line.split(",", 1)[0].strip() for line in body], values


def _per_cell_rows(lines):
    """(parsed header, ids, values) read by csv.reader: drops incomplete rows and names the offending row and column."""
    reader = csv.reader(lines)
    try:
        rows = [(i, row) for i, row in enumerate(reader, start=1) if row and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:  # such as a lone CR inside a line of inline text
        raise ValidationError(f"row {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError("empty input")
    head = _parse_header(rows[0][1])
    header = head[0]
    ncol = len(header)
    kept_ids, kept_values = [], []
    for lineno, row in rows[1:]:
        if len(row) != ncol:
            raise ValidationError(f"row {lineno}: expected {ncol} cells, got {len(row)}")
        cells = [c.strip() for c in row]
        if any(c == "" for c in cells[1:]):
            warnings.warn(f"row {lineno}: missing value, row dropped", stacklevel=4)
            continue
        values = []
        for name, cell in zip(header[1:], cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(f"row {lineno}: non-numeric cell {cell!r} in column {name!r}") from None
            if not math.isfinite(value):
                raise ValidationError(f"row {lineno}: non-finite cell {cell!r} in column {name!r}")
            values.append(value)
        kept_ids.append(cells[0])
        kept_values.append(values)
    return head, kept_ids, np.asarray(kept_values, dtype=float)


def errors_from_table(table):
    """Materialize the paired error matrix e_i(M) = r_i - c_i(M).

    No statistic uses the uncertainty columns, but a column whose error
    uncertainties are extremely spread is flagged with a warning.
    """
    names = table.method_names
    with np.errstate(over="ignore"):
        errors = np.column_stack([table.reference - table.methods[m] for m in names])
    bad = np.argwhere(~(np.abs(errors) <= _MAX_ABS_ERROR))
    if bad.size:
        i, j = bad[0]
        system, method = table.system_ids[i], names[j]
        raise ValidationError(f"system {system!r}: |error Ref - {method!r}| exceeds {_MAX_ABS_ERROR:.0e}")
    _screen_uncertainty_spread(table)
    return ErrorMatrix(errors=errors, method_names=names, system_ids=list(table.system_ids))


def _screen_uncertainty_spread(table):
    """Warn per column where max/median of u(e_i) exceeds EXTREME_UNCERTAINTY_RATIO.

    u(e_i) combines u(r_i) and u(c_i) in quadrature; with only uRef given
    it is the same for every method.
    """
    u_ref = table.ref_uncertainty
    if table.calc_uncertainty:
        zero = np.zeros(table.n_systems)
        u_r = zero if u_ref is None else u_ref
        checks = [(m, np.hypot(u_r, table.calc_uncertainty.get(m, zero))) for m in table.method_names]
    elif u_ref is not None:
        checks = [("all methods", u_ref)]
    else:
        return
    for name, u in checks:
        med = median(u)
        if med > 0 and u.max() / med > EXTREME_UNCERTAINTY_RATIO:
            warnings.warn(
                f"{name}: extreme uncertainty spread (max/median = {u.max() / med:.1f}); "
                "statistics on this column may be dominated by a few rows",
                stacklevel=3,
            )
