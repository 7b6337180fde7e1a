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

__all__ = [
    "ValidationError",
    "BenchmarkTable",
    "ErrorMatrix",
    "load_table",
    "errors_from_table",
    "combine_uncertainty",
]

# Warn when the spread of error uncertainties within a column exceeds this
# ratio (max over median); such datasets break the i.i.d. bootstrap premise.
EXTREME_UNCERTAINTY_RATIO = 10.0


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
    """Paired signed errors: row i of every column refers to system i.

    `error_uncertainty` is the per-row u(e_i) when only the reference is
    uncertain (the common, deterministic-method case).  When individual
    method predictions carry uncertainties as well, the combined values
    differ per method and live in `per_method_uncertainty` (N x K);
    `uncertainty_for` hides the distinction.
    """

    errors: np.ndarray
    method_names: list
    error_uncertainty: np.ndarray | None = None
    per_method_uncertainty: np.ndarray | None = None
    system_ids: list | None = None

    def __post_init__(self):
        if self.errors.ndim != 2:
            raise ValidationError("errors must be a 2-d array")
        if self.errors.shape[1] != len(self.method_names):
            raise ValidationError("column count does not match method names")
        if self.error_uncertainty is not None and np.any(self.error_uncertainty < 0):
            raise ValidationError("negative error uncertainty")
        if self.per_method_uncertainty is not None and np.any(self.per_method_uncertainty < 0):
            raise ValidationError("negative error uncertainty")

    @property
    def n_systems(self):
        return self.errors.shape[0]

    @property
    def n_methods(self):
        return self.errors.shape[1]

    def column(self, method):
        """Error vector for a method, by name or index."""
        return self.errors[:, self.index_of(method)]

    def uncertainty_for(self, method):
        """Combined u(e_i) vector for a method, or None if nothing is uncertain."""
        if self.per_method_uncertainty is not None:
            return self.per_method_uncertainty[:, self.index_of(method)]
        return self.error_uncertainty

    def index_of(self, method):
        if isinstance(method, str):
            try:
                return self.method_names.index(method)
            except ValueError:
                raise KeyError(f"unknown method {method!r}") from None
        return int(method)


def combine_uncertainty(u_r, u_c):
    """Combine independent reference and prediction uncertainties in quadrature."""
    if u_r < 0 or u_c < 0:
        raise ValidationError(f"negative uncertainty: ({u_r}, {u_c})")
    if not (math.isfinite(u_r) and math.isfinite(u_c)):
        raise ValidationError("uncertainties must be finite")
    return math.hypot(u_r, u_c)


def _parse_header(fields):
    names = [f.strip() for f in fields]
    if not names or names[0] != "System":
        raise ValidationError("malformed header: first column must be 'System'")
    if "Ref" not in names:
        raise ValidationError("malformed header: missing 'Ref' column")
    if len(set(names)) != len(names):
        raise ValidationError("malformed header: duplicate column name")
    methods = [n for n in names[1:] if n not in ("Ref", "uRef") and not n.startswith("u:")]
    if not methods:
        raise ValidationError("malformed header: no method columns")
    for n in names:
        if n.startswith("u:") and n[2:] not in methods:
            raise ValidationError(f"malformed header: {n!r} has no matching method column")
    return names


def load_table(source, fmt="csv"):
    """Parse and validate a benchmark table.

    `source` may be a path, a text/binary file object, or a CSV string.
    Expected layout: header `System,Ref[,uRef],<M1>[,u:<M1>],...`, one row
    per system, `#` lines are comments.  Rows with empty cells are dropped
    with a warning (paired bootstrap needs rectangular data); non-numeric
    or non-finite cells abort the parse.  A leading UTF-8 BOM is skipped.
    """
    if fmt != "csv":
        raise ValidationError(f"unsupported format {fmt!r}")
    if isinstance(source, (str, bytes)) and not _looks_like_inline_csv(source):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return _load_csv(fh)
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    if isinstance(source, str):
        return _load_csv(io.StringIO(source))
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8-sig")
    return _load_csv(source)


def _looks_like_inline_csv(s):
    """A table spans at least 3 lines; a path has no line break but may have commas."""
    return ("\n" if isinstance(s, str) else b"\n") in s


def _load_csv(fh):
    rows = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(fh), start=1)
        if row and not row[0].lstrip().startswith("#")
    ]
    if not rows:
        raise ValidationError("empty input")
    header = _parse_header(rows[0][1])
    ncol = len(header)

    kept_ids, kept_values = [], []
    for lineno, row in rows[1:]:
        if len(row) != ncol:
            raise ValidationError(f"row {lineno}: expected {ncol} cells, got {len(row)}")
        cells = [c.strip() for c in row]
        if any(c == "" for c in cells[1:]):
            warnings.warn(f"row {lineno}: missing value, row dropped", stacklevel=3)
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

    if len(kept_ids) < 2:
        raise ValidationError(f"need at least 2 systems, got {len(kept_ids)}")
    data = dict(zip(header[1:], np.asarray(kept_values, dtype=float).T))
    table = BenchmarkTable(
        system_ids=kept_ids,
        reference=data["Ref"],
        ref_uncertainty=data.get("uRef"),
        methods={m: data[m] for m in header[1:] if m not in ("Ref", "uRef") and not m.startswith("u:")},
        calc_uncertainty={n[2:]: data[n] for n in header[1:] if n.startswith("u:")},
    )
    return table


def errors_from_table(table):
    """Materialize the paired error matrix e_i(M) = r_i - c_i(M).

    Uncertainties on the errors are propagated in quadrature from the
    reference and (when given) the per-method prediction uncertainties.
    """
    names = table.method_names
    errors = np.column_stack([table.reference - table.methods[m] for m in names])

    u_ref = table.ref_uncertainty
    per_method = None
    if table.calc_uncertainty:
        ur = u_ref if u_ref is not None else np.zeros(table.n_systems)
        per_method = np.column_stack(
            [np.hypot(ur, table.calc_uncertainty.get(m, np.zeros(table.n_systems))) for m in names]
        )

    em = ErrorMatrix(
        errors=errors,
        method_names=names,
        error_uncertainty=None if u_ref is None else np.asarray(u_ref, dtype=float),
        per_method_uncertainty=per_method,
        system_ids=list(table.system_ids),
    )
    _screen_uncertainty_spread(em)
    return em


def _screen_uncertainty_spread(em):
    if em.per_method_uncertainty is not None:
        checks = [(name, em.uncertainty_for(j)) for j, name in enumerate(em.method_names)]
    elif em.error_uncertainty is not None:
        checks = [("all methods", em.error_uncertainty)]
    else:
        return
    for name, u in checks:
        med = np.median(u)
        if med > 0 and u.max() / med > EXTREME_UNCERTAINTY_RATIO:
            warnings.warn(
                f"{name}: extreme uncertainty spread (max/median = {u.max() / med:.1f}); "
                "statistics on this column may be dominated by a few rows",
                stacklevel=3,
            )
