"""Observed-data records and the CSV schema the command line ingests.

One record holds the censoring interval (y_lower, y_upper], the event
indicator, a left-truncation (delayed-entry) time, the baseline covariate
vector, and, for time-varying models, the switch time of the binary
covariate. Right censoring is y_upper = +inf; an exact event has
y_upper == y_lower and event = 1.

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

__all__ = ["SubjectRecord", "Dataset", "read_csv", "write_csv"]

REQUIRED_COLUMNS = ("y_l", "y_u", "delta", "trunc")


@dataclass(frozen=True)
class SubjectRecord:
    y_lower: float
    y_upper: float
    event: int
    trunc: float = 0.0
    x: tuple = ()
    onset: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        _validate_record(self, where="record")


def _validate_record(rec: SubjectRecord, where: str) -> None:
    if not (rec.y_lower > 0 and not math.isnan(rec.y_lower)):
        raise DataError(f"{where}: y_l must be > 0, got {rec.y_lower}")
    if math.isnan(rec.y_upper) or rec.y_upper < rec.y_lower:
        raise DataError(f"{where}: y_u ({rec.y_upper}) < y_l ({rec.y_lower})")
    if rec.event not in (0, 1):
        raise DataError(f"{where}: delta must be 0 or 1, got {rec.event}")
    if rec.event == 1 and rec.y_upper != rec.y_lower:
        raise DataError(f"{where}: delta = 1 requires y_u == y_l")
    if rec.event == 0 and rec.y_upper == rec.y_lower:
        raise DataError(f"{where}: delta = 0 requires y_u > y_l "
                        "(degenerate interval)")
    if math.isnan(rec.trunc) or not 0 <= rec.trunc <= rec.y_lower:
        raise DataError(f"{where}: trunc must lie in [0, y_l], got {rec.trunc}")
    if math.isnan(rec.onset) or rec.onset <= 0:
        raise DataError(f"{where}: tx_time must be > 0 (or inf), got {rec.onset}")
    if any(not math.isfinite(v) for v in rec.x):
        raise DataError(f"{where}: covariates must be finite, got {rec.x}")


@dataclass(frozen=True)
class Dataset:
    """Column-oriented view of a list of records; construction assumes the
    per-record invariants already hold."""

    y_lower: np.ndarray
    y_upper: np.ndarray
    event: np.ndarray
    trunc: np.ndarray
    x: np.ndarray
    onset: np.ndarray
    covariate_names: tuple = field(default=())

    @property
    def n(self) -> int:
        return len(self.y_lower)

    @staticmethod
    def from_records(records, covariate_names=()) -> "Dataset":
        records = list(records)
        if records:
            d = len(records[0].x)
            for i, rec in enumerate(records):
                if len(rec.x) != d:
                    raise DataError(f"row {i + 1}: covariate vector has length "
                                    f"{len(rec.x)}, expected {d}")
        else:
            d = len(covariate_names)
        names = tuple(covariate_names) or tuple(f"x{i + 1}" for i in range(d))
        if len(names) != d:
            raise DataError(f"{len(names)} covariate names for {d} columns")
        return Dataset(
            y_lower=np.array([r.y_lower for r in records], dtype=float),
            y_upper=np.array([r.y_upper for r in records], dtype=float),
            event=np.array([r.event for r in records], dtype=bool),
            trunc=np.array([r.trunc for r in records], dtype=float),
            x=np.array([r.x for r in records], dtype=float).reshape(len(records), d),
            onset=np.array([r.onset for r in records], dtype=float),
            covariate_names=names,
        )

    def to_records(self) -> list:
        return [
            SubjectRecord(self.y_lower[i], self.y_upper[i], int(self.event[i]),
                          self.trunc[i], tuple(self.x[i]), self.onset[i])
            for i in range(self.n)
        ]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.y_lower[idx], self.y_upper[idx], self.event[idx],
                       self.trunc[idx], self.x[idx], self.onset[idx],
                       self.covariate_names)


def as_dataset(data, covariate_names=()) -> Dataset:
    if isinstance(data, Dataset):
        return data
    return Dataset.from_records(data, covariate_names)


def observed_event_times(data: Dataset) -> np.ndarray:
    """Event times usable for knot placement: exact times for events,
    interval midpoints for interval-censored rows."""
    interval = (~data.event) & np.isfinite(data.y_upper)
    times = np.concatenate([
        data.y_lower[data.event],
        0.5 * (data.y_lower[interval] + data.y_upper[interval]),
    ])
    return np.sort(times)


def max_followup(data: Dataset) -> float:
    finite_u = data.y_upper[np.isfinite(data.y_upper)]
    cands = [data.y_lower.max(initial=0.0)]
    if finite_u.size:
        cands.append(finite_u.max())
    return float(max(cands))


# -- CSV schema -------------------------------------------------------------

def _parse_cell(raw: str, column: str, row: int) -> float:
    s = raw.strip()
    if s == "" or s.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(s)
    except ValueError:
        raise DataError(f"row {row}: column {column!r}: not a number: {raw!r}")


def read_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        has_onset = "tx_time" in header
        cov_names = [h for h in header
                     if h not in REQUIRED_COLUMNS and h != "tx_time"]
        col = {name: header.index(name) for name in header}

        records = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"row {i}: has {len(row)} cells, "
                                f"expected {len(header)}")

            def cell(name):
                return _parse_cell(row[col[name]], name, i)

            delta_raw = cell("delta")
            if delta_raw not in (0.0, 1.0):
                raise DataError(f"row {i}: delta must be 0 or 1, got {delta_raw}")
            trunc = cell("trunc")
            if math.isinf(trunc):
                raise DataError(f"row {i}: trunc must be finite")
            try:
                records.append(SubjectRecord(
                    y_lower=cell("y_l"),
                    y_upper=cell("y_u"),
                    event=int(delta_raw),
                    trunc=trunc,
                    x=tuple(cell(name) for name in cov_names),
                    onset=cell("tx_time") if has_onset else math.inf,
                ))
            except DataError as err:
                raise DataError(f"row {i}: {err}") from None
    return Dataset.from_records(records, tuple(cov_names))


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
