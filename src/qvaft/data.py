"""The subject table and the CSV schema the command line ingests.

A `Dataset` holds, per subject, the censoring interval (y_lower, y_upper],
the event indicator, a left-truncation (delayed-entry) time, the baseline
covariate vector, and, for time-varying models, the switch time of the
binary covariate, each as one column. Right censoring is y_upper = +inf;
an exact event has y_upper == y_lower and event = 1. Building a `Dataset`
checks every row, so a table built in code obeys the rules a file does.

The file format is a header CSV with required columns ``y_l, y_u, delta,
trunc``, one column per named covariate, and an optional ``tx_time``
column. An empty or "inf" ``y_u`` (or ``tx_time``) cell means +inf.
Validation failures carry 1-based data row numbers.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "read_csv", "write_csv"]

REQUIRED_COLUMNS = ("y_l", "y_u", "delta", "trunc")


@dataclass(frozen=True)
class Dataset:
    """The subject table, one entry per subject in each column. Construction
    copies the columns (x to a C-ordered (n, d) float array, event to bool),
    marks the copies read-only and checks every row; the first bad row
    raises a `DataError` naming it (1-based) and its rule. A model reads
    the covariate columns by name (`ModelSpec.design`)."""

    y_lower: np.ndarray
    y_upper: np.ndarray
    event: np.ndarray
    trunc: np.ndarray
    x: np.ndarray
    onset: np.ndarray
    covariate_names: tuple = field(default=())

    def __post_init__(self):
        y_l, y_u, ev, trunc, onset = cols = [
            np.array(getattr(self, name), dtype=float)
            for name in ("y_lower", "y_upper", "event", "trunc", "onset")]
        x = np.array(self.x, dtype=float, order="C")
        n = y_l.size
        if any(c.shape != (n,) for c in cols) or x.ndim != 2 or len(x) != n:
            raise DataError("each column needs one entry per subject, got "
                            f"shapes {[c.shape for c in cols]} and x {x.shape}")
        names = (tuple(self.covariate_names)
                 or tuple(f"x{i + 1}" for i in range(x.shape[1])))
        if len(names) != x.shape[1]:
            raise DataError(f"{len(names)} covariate names for "
                            f"{x.shape[1]} columns")
        bad = np.array([  # one row per rule of _RULES; NaN fails each test
            ~((y_l > 0) & (y_l < math.inf)),
            ~(y_u >= y_l),
            (ev != 0) & (ev != 1),
            (ev == 1) & (y_u != y_l),
            (ev == 0) & (y_u == y_l),
            ~((trunc >= 0) & (trunc <= y_l)),
            ~(onset > 0),
            ~np.isfinite(x).all(axis=1),
        ])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            rule = _RULES[int(bad[:, i].argmax())]
            raise DataError(f"row {i + 1}: " + rule.format(
                y_l=y_l[i], y_u=y_u[i], delta=ev[i], trunc=trunc[i],
                onset=onset[i], x=x[i].tolist()))
        for name, value in (("y_lower", y_l), ("y_upper", y_u),
                            ("event", ev == 1), ("trunc", trunc), ("x", x),
                            ("onset", onset)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return len(self.y_lower)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.y_lower[idx], self.y_upper[idx], self.event[idx],
                       self.trunc[idx], self.x[idx], self.onset[idx],
                       self.covariate_names)


# the row rules of `Dataset`, in the order of its checks
_RULES = (
    "y_l must be finite and > 0, got {y_l}",
    "y_u ({y_u}) < y_l ({y_l})",
    "delta must be 0 or 1, got {delta}",
    "delta = 1 requires y_u == y_l",
    "delta = 0 requires y_u > y_l (degenerate interval)",
    "trunc must lie in [0, y_l], got {trunc}",
    "tx_time must be > 0 (or inf), got {onset}",
    "covariates must be finite, got {x}",
)


def observed_event_times(data: Dataset, origin=0.0) -> np.ndarray:
    """Event times usable for knot placement, sorted: exact times for
    events, interval midpoints for interval-censored rows, measured from
    `origin` (0, or each subject's switch time `data.onset`) and kept
    where they fall after it."""
    end = np.where(np.isfinite(data.y_upper), data.y_upper, data.y_lower)
    mid = np.where(data.event, data.y_lower, 0.5 * (data.y_lower + end))
    since = (mid - origin)[np.isfinite(data.y_upper)]
    return np.sort(since[since > 0])


def max_followup(data: Dataset, origin=0.0) -> float:
    """The longest follow-up (to y_u, or to y_l where y_u is inf) from
    `origin` (0, or each subject's switch time `data.onset`), over the
    subjects with a finite origin, one seen only before it counting 0; with
    no finite origin (no subject switches), the calendar follow-up."""
    end = np.where(np.isfinite(data.y_upper), data.y_upper, data.y_lower)
    since = end - origin
    if not np.isfinite(since).any():
        since = end
    return float(np.maximum(since[np.isfinite(since)], 0.0).max(initial=0.0))


# -- CSV schema -------------------------------------------------------------

def _parse_column(cells, column: str) -> np.ndarray:
    """One column's cells as floats; an empty or "inf" cell is +inf."""
    out = np.empty(len(cells))
    for i, raw in enumerate(cells):
        try:
            out[i] = float(raw)
        except ValueError:
            if raw.strip():
                raise DataError(f"row {i + 1}: column {column!r}: not a "
                                f"number: {raw!r}") from None
            out[i] = math.inf
    return out


def read_csv(path) -> Dataset:
    """The `Dataset` of a data file, parsed column by column; errors name
    the 1-based data row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as err:  # a NUL byte, not UTF-8
        raise DataError(f"{path}: {err}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header, rows = [h.strip() for h in rows[0]], rows[1:]
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: has {len(row)} cells, "
                            f"expected {len(header)}")
    col = {name: _parse_column(cells, name) for name, cells
           in zip(header, list(zip(*rows)) or [()] * len(header))}
    cov_names = [h for h in header if h not in (*REQUIRED_COLUMNS, "tx_time")]
    x = np.reshape([col[h] for h in cov_names], (len(cov_names), len(rows)))
    return Dataset(col["y_l"], col["y_u"], col["delta"], col["trunc"], x.T,
                   col.get("tx_time", np.full(len(rows), math.inf)),
                   tuple(cov_names))


def _format_cell(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return repr(float(v))


def write_csv(data: Dataset, path, include_onset: bool | None = None) -> None:
    """Atomic write (temp file + rename) of the standard schema."""
    if include_onset is None:
        include_onset = bool(np.any(np.isfinite(data.onset)))
    header = list(REQUIRED_COLUMNS) + list(data.covariate_names)
    if include_onset:
        header.append("tx_time")
    rows = []
    for i in range(data.n):
        row = [_format_cell(data.y_lower[i]), _format_cell(data.y_upper[i]),
               str(int(data.event[i])), _format_cell(data.trunc[i])]
        row += [_format_cell(v) for v in data.x[i]]
        if include_onset:
            row.append(_format_cell(data.onset[i]))
        rows.append(row)
    atomic_write_text(
        path,
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n",
    )


def check_format_version(path, found, known: int) -> None:
    """Raises `DataError` unless an artifact's format_version is `known`."""
    if found != known:
        raise DataError(f"{path}: format_version {found!r} is not one this "
                        f"qvaft reads (it reads {known})")


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
