"""Benchmark dataset loading and sensitive-attribute handling.

Loaders separate sensitive attributes from the training features, apply each
dataset's documented preprocessing rules and return immutable tables. The
canonical files are fetched by the user; 200-row synthetic fixtures with the
same schemas ship with the repo for CI.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_SPLIT_SEED = 0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature table plus binary labels; sensitive columns never appear here."""

    instance_ids: np.ndarray
    feature_names: tuple[str, ...]
    feature_kinds: dict[str, str]
    columns: dict[str, np.ndarray]
    labels: np.ndarray
    _codes: dict[str, tuple[np.ndarray, np.ndarray]] = field(  # memo of codes()
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n = len(self.instance_ids)
        if not set(self.feature_names) == self.feature_kinds.keys() == self.columns.keys():
            raise DataError("feature_names, feature_kinds and columns disagree")
        for name, col in self.columns.items():
            if len(col) != n:
                raise DataError(f"column {name!r} has length {len(col)}, expected {n}")
            kind = self.feature_kinds[name]
            if kind not in (NUMERIC, CATEGORICAL):
                raise DataError(f"column {name!r} has unknown kind {kind!r}")
            if kind == NUMERIC and not np.issubdtype(col.dtype, np.number):
                raise DataError(f"numeric column {name!r} has dtype {col.dtype}")
            _freeze(col)
        if len(self.labels) != n:
            raise DataError("labels length mismatch")
        if n and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0/1")
        _freeze(np.asarray(self.instance_ids))
        _freeze(np.asarray(self.labels))

    @property
    def n(self) -> int:
        return len(self.instance_ids)

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted category table and int codes of a column, encoded on first use.

        The table is in np.unique order, so code order is category order;
        both arrays are read-only and kept for the life of the table. A table
        made by `take` shares its parent's category table when the parent was
        encoded first, so the table may list categories absent from its rows.
        """
        hit = self._codes.get(name)
        if hit is None:  # setdefault: threads that race here all get the first stored pair
            cats, codes = np.unique(self.columns[name], return_inverse=True)
            hit = self._codes.setdefault(name, (_freeze(cats), _freeze(codes)))
        return hit

    def numeric_features(self) -> tuple[str, ...]:
        return tuple(f for f in self.feature_names if self.feature_kinds[f] == NUMERIC)

    def take(self, idx: np.ndarray) -> "Dataset":
        """The rows at idx; the codes this table already built are forwarded,
        and none are built here."""
        out = Dataset(
            instance_ids=self.instance_ids[idx].copy(),
            feature_names=self.feature_names,
            feature_kinds=dict(self.feature_kinds),
            columns={name: col[idx].copy() for name, col in self.columns.items()},
            labels=self.labels[idx].copy(),
        )
        for name, (cats, codes) in list(self._codes.items()):  # a thread may be encoding self
            out._codes[name] = (cats, _freeze(codes[idx]))
        return out


@dataclass(frozen=True)
class SensitiveTable:
    """Group assignment for one encoded sensitive attribute."""

    instance_ids: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.instance_ids):
            raise DataError("groups length mismatch")
        if self.k < 2:
            raise DataError(f"need at least 2 groups, got {self.k}")
        if len(self.groups) and (self.groups.min() < 0 or self.groups.max() >= self.k):
            raise DataError("group index out of range")
        _freeze(np.asarray(self.groups))
        _freeze(np.asarray(self.instance_ids))

    @property
    def k(self) -> int:
        return len(self.group_names)


@dataclass(frozen=True)
class SensitiveSet:
    """All raw sensitive columns split off by a loader, id-aligned with a Dataset."""

    instance_ids: np.ndarray
    raw: dict[str, np.ndarray]

    def __post_init__(self):
        for name, col in self.raw.items():
            if len(col) != len(self.instance_ids):
                raise DataError(f"sensitive column {name!r} length mismatch")
            _freeze(col)
        _freeze(np.asarray(self.instance_ids))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.raw)

    def take(self, idx: np.ndarray) -> "SensitiveSet":
        return SensitiveSet(
            instance_ids=self.instance_ids[idx].copy(),
            raw={name: col[idx].copy() for name, col in self.raw.items()},
        )


def encode_sensitive(sens: SensitiveSet, definition: str) -> SensitiveTable:
    """Encode raw sensitive columns into one grouped attribute.

    "raw:<attr>" factorizes a categorical column as-is, in sorted value
    order; a numeric column is refused. Otherwise the definition is one or
    two attr=value clauses joined by "&": each clause, in order, doubles the
    group index and adds 1 where the row matches, so K is 2 or 4 and the
    fully privileged group is last. A group that holds no row is refused.
    """
    if definition.startswith("raw:"):
        attr = definition[len("raw:"):].strip()
        column = _sensitive_column(sens, attr)
        if np.issubdtype(column.dtype, np.number):  # one group per distinct value
            raise DataError(f"raw:{attr} needs a categorical column; {attr!r} is numeric")
        values, groups = np.unique(column, return_inverse=True)
        names = tuple(str(v) for v in values)
    else:
        groups = np.zeros(len(sens.instance_ids), dtype=np.int64)
        sides = []  # (non-match, match) name pair per clause
        for part in definition.split("&"):
            attr, eq, value = (text.strip() for text in part.partition("="))
            if not eq:
                raise DataError(f"{definition!r} is not raw:<attr> or attr=value clauses "
                                "joined by &")
            groups = 2 * groups + (_sensitive_column(sens, attr) == value)
            sides.append((f"non-{value}", value))
        if len(sides) > 2:
            raise DataError(f"{definition!r} has {len(sides)} clauses; at most two are supported")
        names = tuple("&".join(combo) for combo in itertools.product(*sides))
    sizes = np.bincount(groups, minlength=len(names))
    if not sizes.all():
        empty = names[int(np.argmin(sizes))]  # the first group without a row
        raise DataError(f"group {empty!r} of {definition!r} has no row")
    return SensitiveTable(sens.instance_ids.copy(), groups.astype(np.int64, copy=False), names)


def _sensitive_column(sens: SensitiveSet, attr: str) -> np.ndarray:
    if attr not in sens.raw:
        raise DataError(f"sensitive attribute {attr!r} not available")
    return sens.raw[attr]


def stratified_split(
    labels: np.ndarray, test_fraction: float = 1.0 / 3.0, seed: int = DEFAULT_SPLIT_SEED
) -> tuple[np.ndarray, np.ndarray]:
    """Label-stratified split; test gets floor(n * test_fraction) rows.

    Per-class test counts are floor shares topped up by largest remainder,
    which reproduces the documented 4115/2057 and 667/333 splits.
    """
    labels = np.asarray(labels)
    n = len(labels)
    n_test = int(math.floor(n * test_fraction))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    classes = np.unique(labels)
    exact = {c: (labels == c).sum() * test_fraction for c in classes}
    base = {c: int(math.floor(exact[c])) for c in classes}
    leftover = n_test - sum(base.values())
    for c in sorted(classes, key=lambda c: (-(exact[c] - base[c]), c)):
        if leftover <= 0:
            break
        base[c] += 1
        leftover -= 1
    test_parts = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        test_parts.append(idx[: base[c]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def split_tables(ds: Dataset, sens: SensitiveSet, seed: int = DEFAULT_SPLIT_SEED):
    """2:1 stratified_split of an id-aligned table pair; returns (train, test) pairs."""
    train_idx, test_idx = stratified_split(ds.labels, seed=seed)
    return (ds.take(train_idx), sens.take(train_idx)), (ds.take(test_idx), sens.take(test_idx))


# ---------------------------------------------------------------------------
# Typed-table builder shared by every loader

def _kinds(names, numeric) -> dict[str, str]:
    return {name: NUMERIC if name in numeric else CATEGORICAL for name in names}


def _parse_number(text: str, line_no: int, column: str) -> float:
    """A finite numeric cell; "nan" or "inf" would let a fit split on x < NaN."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {line_no}: column {column!r} has non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: column {column!r} has non-finite value {text!r}")
    return value


def _parse_int(text: str, line_no: int, column: str, allowed=None) -> int:
    """An integer cell; allowed, when given, holds the only values accepted."""
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"line {line_no}: column {column!r} has non-integer value {text!r}") from None
    if allowed is not None and value not in allowed:
        raise DataError(f"line {line_no}: column {column!r} has value {text!r}, not one of {allowed}")
    return value


def _append_row(cols: dict[str, list], kinds: dict[str, str], values, line_no: int) -> None:
    for (name, kind), value in zip(kinds.items(), values):
        cols[name].append(_parse_number(value, line_no, name) if kind == NUMERIC else value)


def _build_tables(labels, cols, feat_kinds, sens_kinds, ids=None) -> tuple[Dataset, SensitiveSet]:
    """Type per-column value lists into a Dataset and its id-aligned SensitiveSet.

    The one place a column's kind decides its dtype: numeric columns become
    float arrays, categorical ones str arrays, and any other kind is
    rejected. ids default to 0..n-1.
    """
    def typed(kinds):
        out = {}
        for name, kind in kinds.items():
            if kind not in (NUMERIC, CATEGORICAL):
                raise DataError(f"column {name!r} has unknown kind {kind!r}")
            out[name] = np.array(cols[name], dtype=float if kind == NUMERIC else str)
        return out

    ids = np.arange(len(labels), dtype=np.int64) if ids is None else np.array(ids, dtype=np.int64)
    labels = np.array(labels, dtype=np.int64)
    ds = Dataset(ids, tuple(feat_kinds), dict(feat_kinds), typed(feat_kinds), labels)
    return ds, SensitiveSet(ids.copy(), typed(sens_kinds))


def _header_records(fh, required, what: str):
    """(line number, record) pairs of a header-row CSV, after checking its shape."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise DataError(f"empty {what}")
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise DataError(f"{what} lacks expected columns: {missing}")
    for record in reader:
        line_no = reader.line_num  # the file line, past blank lines and multi-line cells
        if None in record.values():  # DictReader pads a short row with None
            got = sum(value is not None for value in record.values())
            raise DataError(f"line {line_no}: expected {len(reader.fieldnames)} fields, got {got}")
        yield line_no, record


def _column_kinds(feat_kinds: dict, sens_kinds: dict) -> dict[str, str]:
    """The kind each column is read with; a sensitive column cannot also be a feature."""
    overlap = [name for name in feat_kinds if name in sens_kinds]
    if overlap:
        raise DataError(f"columns {overlap} are both features and sensitive attributes")
    return {**feat_kinds, **sens_kinds}


# ---------------------------------------------------------------------------
# Adult

ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)
ADULT_NUMERIC = {"age", "fnlwgt", "education-num", "capital-gain", "capital-loss", "hours-per-week"}
ADULT_SENSITIVE = ("race", "sex", "age", "native-country")
ADULT_FEATURES = (
    "workclass", "education", "education-num", "marital-status", "occupation",
    "relationship", "capital-gain", "capital-loss", "hours-per-week",
)
_ADULT_LABELS = {">50K": 1, "<=50K": 0}


def _adult_split(path) -> tuple[Dataset, SensitiveSet]:
    kinds = _kinds(ADULT_COLUMNS[:-1], ADULT_NUMERIC)  # every column but the income label
    cols = {name: [] for name in kinds}
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(ADULT_COLUMNS):
                raise DataError(f"line {line_no}: expected {len(ADULT_COLUMNS)} fields, got {len(fields)}")
            if "?" in fields:
                continue  # missing-value rows are removed
            raw_label = fields[-1].rstrip(".")
            if raw_label not in _ADULT_LABELS:
                raise DataError(f"line {line_no}: unknown income label {raw_label!r}")
            labels.append(_ADULT_LABELS[raw_label])
            _append_row(cols, kinds, fields, line_no)
    return _build_tables(
        labels, cols, _kinds(ADULT_FEATURES, ADULT_NUMERIC), _kinds(ADULT_SENSITIVE, ADULT_NUMERIC)
    )


def load_adult(train_path, test_path):
    """Load the two Adult files; drops missing-value rows and `fnlwgt`.

    race, sex, age and native-country are separated as sensitive (age stays
    raw, it is never binarized). Returns ((train_ds, train_sens),
    (test_ds, test_sens)); on the canonical files the splits have 30162 and
    15060 rows.
    """
    return _adult_split(train_path), _adult_split(test_path)


# ---------------------------------------------------------------------------
# COMPAS

COMPAS_REQUIRED = (
    "age", "c_charge_degree", "race", "age_cat", "score_text", "sex", "priors_count",
    "days_b_screening_arrest", "decile_score", "is_recid", "two_year_recid",
    "c_jail_in", "c_jail_out",
)
COMPAS_FEATURES = (
    "c_charge_degree", "score_text", "priors_count", "days_b_screening_arrest",
    "decile_score", "c_jail_in", "c_jail_out",
)
COMPAS_NUMERIC = {
    "priors_count", "days_b_screening_arrest", "decile_score", "c_jail_in", "c_jail_out", "age",
}
COMPAS_SENSITIVE = ("race", "sex", "age")


def _year_of(text: str, line_no: int, column: str) -> float:
    if text == "":
        return math.nan
    head = text.strip()[:4]
    if not head.isdigit():
        raise DataError(f"line {line_no}: column {column!r} has malformed date {text!r}")
    return float(head)  # dates are truncated to the year, rounded down


def load_compas(path, seed: int = DEFAULT_SPLIT_SEED):
    """Load the general-recidivism COMPAS file and split it 2:1.

    Applies the source article's row filters (|screening - arrest| <= 30
    days plus its companion validity filters, leaving 6172 rows on the
    canonical file), truncates jail dates to years, imputes remaining
    numeric gaps with the post-filter column median, and keeps race, sex
    and age as sensitive. The favorable label (1) is no recidivism within
    two years.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        for line_no, record in _header_records(fh, COMPAS_REQUIRED, "COMPAS file"):
            gap = record["days_b_screening_arrest"].strip()
            if gap == "" or abs(_parse_number(gap, line_no, "days_b_screening_arrest")) > 30:
                continue
            if record["is_recid"].strip() == "-1" or record["c_charge_degree"].strip() == "O":
                continue
            if record["score_text"].strip() in ("N/A", ""):
                continue
            rows.append((line_no, record))

    cols: dict[str, list] = {name: [] for name in (*COMPAS_FEATURES, *COMPAS_SENSITIVE)}
    labels = []
    for line_no, record in rows:
        for name, col in cols.items():
            value = record[name].strip()
            if name in ("c_jail_in", "c_jail_out"):
                value = _year_of(value, line_no, name)
            elif name in COMPAS_NUMERIC:
                value = math.nan if value == "" else _parse_number(value, line_no, name)
            col.append(value)
        recid = _parse_int(record["two_year_recid"].strip(), line_no, "two_year_recid", (0, 1))
        labels.append(1 - recid)
    for name in COMPAS_FEATURES:
        if name in COMPAS_NUMERIC and any(math.isnan(v) for v in cols[name]):
            med = float(np.nanmedian(cols[name]))
            cols[name] = [med if math.isnan(v) else v for v in cols[name]]
    return split_tables(*_build_tables(
        labels, cols, _kinds(COMPAS_FEATURES, COMPAS_NUMERIC), _kinds(COMPAS_SENSITIVE, COMPAS_NUMERIC)
    ), seed=seed)


# ---------------------------------------------------------------------------
# German credit

GERMAN_COLUMNS = (
    "status", "duration", "credit_history", "purpose", "credit_amount", "savings",
    "employment_since", "installment_rate", "personal_status_sex", "other_debtors",
    "residence_since", "property", "age", "other_installment_plans", "housing",
    "existing_credits", "job", "people_liable", "telephone", "foreign_worker",
    "credit_risk",
)
GERMAN_NUMERIC = {
    "duration", "credit_amount", "installment_rate", "residence_since", "age",
    "existing_credits", "people_liable",
}
# Codebook: A91 male divorced/separated, A92 female divorced/separated/married,
# A93 male single, A94 male married/widowed, A95 female single.
GERMAN_GENDER = {"A91": "male", "A92": "female", "A93": "male", "A94": "male", "A95": "female"}
GERMAN_FEATURES = tuple(
    c for c in GERMAN_COLUMNS
    if c not in ("personal_status_sex", "age", "foreign_worker", "credit_risk")
)
GERMAN_SENSITIVE = ("gender", "age", "foreign_worker")


def load_german(path, seed: int = DEFAULT_SPLIT_SEED):
    """Load the German credit file and split it 2:1 (667/333 on the canonical file).

    Gender is decoded out of the marital-status codes into its own
    sensitive column; the marital residue is dropped (it would still leak
    gender). age and foreign_worker are also sensitive. Favorable label (1)
    is good credit. No imputation is needed.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in (line.split(",") if "," in line else line.split())]
            if len(fields) != len(GERMAN_COLUMNS):
                raise DataError(f"line {line_no}: expected {len(GERMAN_COLUMNS)} fields, got {len(fields)}")
            rows.append((line_no, fields))

    kinds = _kinds(GERMAN_COLUMNS, GERMAN_NUMERIC)
    cols = {name: [] for name in (*kinds, "gender")}
    labels = []
    for line_no, fields in rows:
        record = dict(zip(GERMAN_COLUMNS, fields))
        code = record["personal_status_sex"]
        if code not in GERMAN_GENDER:
            raise DataError(f"line {line_no}: unknown marital-status code {code!r}")
        cols["gender"].append(GERMAN_GENDER[code])
        risk = record["credit_risk"]
        if risk not in ("1", "2"):
            raise DataError(f"line {line_no}: unknown credit label {risk!r}")
        labels.append(1 if risk == "1" else 0)
        _append_row(cols, kinds, fields, line_no)
    return split_tables(*_build_tables(
        labels, cols, _kinds(GERMAN_FEATURES, GERMAN_NUMERIC), _kinds(GERMAN_SENSITIVE, GERMAN_NUMERIC)
    ), seed=seed)


# ---------------------------------------------------------------------------
# Generic schema-described CSV

def load_csv_with_schema(path, schema: dict):
    """Load a header-row CSV described by a schema dict.

    Schema keys: "label" (column name), "positive_label" (string value that
    maps to 1), "features" {name: "numeric"|"categorical"}, "sensitive"
    {name: "numeric"|"categorical"}.
    """
    label_col = schema["label"]
    positive = str(schema.get("positive_label", "1"))
    feat_kinds = dict(schema["features"])
    sens_kinds = dict(schema.get("sensitive", {}))
    kinds = _column_kinds(feat_kinds, sens_kinds)
    cols: dict[str, list] = {name: [] for name in kinds}
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, record in _header_records(fh, [label_col, *kinds], "CSV file"):
            labels.append(1 if record[label_col].strip() == positive else 0)
            _append_row(cols, kinds, [record[name].strip() for name in kinds], line_no)
    return _build_tables(labels, cols, feat_kinds, sens_kinds)


# ---------------------------------------------------------------------------
# Canonical preprocessed form: CSV + key-value sidecar

def _format_cell(value, kind: str) -> str:
    return repr(float(value)) if kind == NUMERIC else str(value)


def save_dataset(ds: Dataset, sens: SensitiveSet, csv_path, meta_path) -> None:
    """Write the preprocessed table as CSV plus a key-value sidecar."""
    sens_kinds = {
        name: (NUMERIC if np.issubdtype(col.dtype, np.number) else CATEGORICAL)
        for name, col in sens.raw.items()
    }
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *ds.feature_names, *sens.names, "label"])
        for i in range(ds.n):
            row = [str(int(ds.instance_ids[i]))]
            row += [_format_cell(ds.columns[f][i], ds.feature_kinds[f]) for f in ds.feature_names]
            row += [_format_cell(sens.raw[s][i], sens_kinds[s]) for s in sens.names]
            row.append(str(int(ds.labels[i])))
            writer.writerow(row)
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"n={ds.n}\n")
        fh.write("label=label\n")
        for name in ds.feature_names:
            fh.write(f"feature.{name}={ds.feature_kinds[name]}\n")
        for name in sens.names:
            fh.write(f"sensitive.{name}={sens_kinds[name]}\n")


# Named encodings used by the CLI and experiments, per dataset family.
DATASET_ENCODINGS: dict[str, dict[str, str]] = {
    "adult": {"ethnicity": "race=White", "sex": "sex=Male", "sex-ethnicity": "race=White&sex=Male"},
    "compas": {
        "ethnicity": "race=Caucasian", "sex": "sex=Male", "sex-ethnicity": "race=Caucasian&sex=Male",
    },
    "german": {
        # privileged = lives in the original country of birth (not a foreign worker)
        "ethnicity": "foreign_worker=A202",
        "sex": "gender=male",
        "sex-ethnicity": "foreign_worker=A202&gender=male",
    },
}
