"""Synthetic dataset generation, file formats, and checkpoints.

The generator stands in for restricted clinical cohorts: it draws one latent
connectivity template per class, perturbs it per subject, and runs each
subject's correlation matrix through the Fisher-transform pipeline, so the
feature vectors have the same shape and provenance as connectome features.
Two phenotypic measures accompany them: a site-like categorical one and an
age-like thresholded one, each weakly class-informative.

All files are CSV/JSON written atomically (temp + rename); floats round-trip
exactly. A checkpoint binds the graph it was trained on by a digest of the
adjacency matrix, and stores the fold's test subjects and the feature columns
it reads, so `eval` can rebuild exactly what training saw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ParseError, SchemaMismatch
from .model import ModelParams
from .popgraph import QUALITATIVE, QUANTITATIVE, PhenotypicMeasure, connectome_features
from .training import TrainConfig

CHECKPOINT_VERSION = 4

# Scales chosen so class_separation ~ 2 gives a dataset a linear model can
# fit well while class_separation = 0 carries no signal at all. The subject
# noise keeps the class signal in the similarity kernel noisy per pair, so
# graph smoothing helps shallow stacks and genuinely destroys signal in deep
# ones.
_TEMPLATE_SCALE = 0.3
_SEPARATION_SCALE = 0.2
_SUBJECT_NOISE = 0.5
_AGE_TAU = 2.0   # years within which two subjects' ages count as similar
_SITES = ("site_a", "site_b", "site_c")


@dataclass(frozen=True)
class SyntheticSpec:
    n_subjects: int = 300
    n_roi: int = 16
    class_separation: float = 2.0
    phenotype_informativeness: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 20:
            raise ValueError(f"need at least 20 subjects, got {self.n_subjects}")
        if self.n_roi < 3:  # 2 ROIs give one feature column, whose correlation is undefined
            raise ValueError(f"n_roi must be >= 3, got {self.n_roi}")
        if not 0 <= self.class_separation < math.inf:
            raise ValueError(f"class_separation must be a finite number >= 0, "
                             f"got {self.class_separation}")
        if not 0.0 <= self.phenotype_informativeness <= 1.0:
            raise ValueError("phenotype_informativeness must be in [0, 1]")


@dataclass
class DatasetBundle:
    features: np.ndarray                 # N x F
    phenotypes: list[PhenotypicMeasure]
    labels: np.ndarray                   # N ints in {0, 1}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} != ({n},)")
        for m in self.phenotypes:
            if len(m.values) != n:
                raise ValueError(f"measure {m.name!r} does not cover all {n} subjects")


def generate_synthetic(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministic two-community connectome-style dataset."""
    rng = np.random.default_rng(spec.seed)
    n, n_roi = spec.n_subjects, spec.n_roi
    m = n_roi * (n_roi - 1) // 2

    labels = np.zeros(n, dtype=int)
    labels[n // 2 :] = 1
    labels = rng.permutation(labels)

    base = rng.normal(0.0, _TEMPLATE_SCALE, size=m)
    direction = rng.normal(0.0, 1.0, size=m)
    offset = 0.5 * spec.class_separation * _SEPARATION_SCALE * direction
    templates = {0: base - offset, 1: base + offset}

    features = np.zeros((n, m))
    iu = np.triu_indices(n_roi, k=1)
    for i in range(n):
        z = templates[int(labels[i])] + rng.normal(0.0, _SUBJECT_NOISE, size=m)
        z = np.clip(z, -8.0, 8.0)
        corr = np.eye(n_roi)
        corr[iu] = np.tanh(z)
        corr = np.triu(corr) + np.triu(corr, k=1).T
        features[i] = connectome_features(corr)

    p = spec.phenotype_informativeness
    sites = []
    for i in range(n):
        if rng.uniform() < p:
            sites.append(_SITES[int(labels[i])])
        else:
            sites.append(_SITES[int(rng.integers(0, len(_SITES)))])
    ages = rng.uniform(20.0, 60.0, size=n) + 4.0 * p * (labels - 0.5)

    phenotypes = [
        PhenotypicMeasure(name="site", kind=QUALITATIVE, values=tuple(sites)),
        PhenotypicMeasure(
            name="age",
            kind=QUANTITATIVE,
            values=tuple(float(a) for a in ages),
            tau=_AGE_TAU,
        ),
    ]
    return DatasetBundle(features=features, phenotypes=phenotypes, labels=labels)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or an iterable of text chunks written as they
    come, to `path` atomically, creating its directory if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def save_bundle(bundle: DatasetBundle, directory: str | Path) -> None:
    """Write features.csv, phenotypes.csv (+ schema), and labels.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, f = bundle.features.shape

    lines = ["subject_id," + ",".join(f"f{k}" for k in range(f))]
    for i in range(n):
        lines.append(str(i) + "," + ",".join(_fmt(v) for v in bundle.features[i]))
    _atomic_write(directory / "features.csv", "\n".join(lines) + "\n")

    lines = ["subject_id," + ",".join(m.name for m in bundle.phenotypes)]
    for i in range(n):
        cells = [str(i)]
        for m in bundle.phenotypes:
            cells.append(_fmt(m.values[i]) if m.kind == QUANTITATIVE else str(m.values[i]))
        lines.append(",".join(cells))
    _atomic_write(directory / "phenotypes.csv", "\n".join(lines) + "\n")

    schema = []
    for m in bundle.phenotypes:
        entry: dict = {"name": m.name, "kind": m.kind}
        if m.kind == QUANTITATIVE:
            entry["tau"] = m.tau
        schema.append(entry)
    _atomic_write(directory / "phenotypes.schema.json", json.dumps(schema, indent=2) + "\n")

    lines = ["subject_id,label"]
    for i in range(n):
        lines.append(f"{i},{int(bundle.labels[i])}")
    _atomic_write(directory / "labels.csv", "\n".join(lines) + "\n")


# Rows of a numeric table that _read_csv parses per _number_array call: about this
# many cells, so reading holds one block of cell strings besides the parsed rows.
_BLOCK_CELLS = 2 ** 12


def _read_csv(path: Path, head: list[str], numeric: bool = False, ints: int = 0):
    """The header, subject positions and table of the CSV file at `path`.

    The header must be `head`; a subject table (`head` starts with subject_id)
    may add columns after it, and each of its subject_ids must be new:
    `position` maps them to their row index, in file order. Every row must
    have one cell per header column. A text table comes back as its rows,
    lists of cell strings. A numeric table comes back as one float64 array of
    the cells after subject_id, the first `ints` columns integers, parsed by
    `_number_array` a block of about `_BLOCK_CELLS` cells at a time into that
    array (sized by a first pass over the lines), so no whole-file list of rows,
    cell strings or parsed blocks is held. ParseError or SchemaMismatch names
    the file and line of the first fault; of faults on two lines, the earlier
    line's.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        lines = sum(1 for _ in fh) if numeric else 0   # each row takes at least one
        fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: line 1: empty file")
        subjects = head[0] == "subject_id"
        if (header[:len(head)] if subjects else header) != head:
            raise SchemaMismatch(f"{path}: header must be {','.join(head)}"
                                 f"{',...' if subjects else ''}, got {','.join(header)}")

        def parse(rows: list[list[str]], first_line: int) -> None:
            cells = np.array(rows, dtype=object).reshape(len(rows), width)
            _number_array(cells[:, subjects:], path, header[subjects:], first_line, ints,
                          out[first_line - 2:first_line - 2 + len(rows)])

        position: dict[str, int] = {}
        rows: list[list[str]] = []
        first_line, width = 2, len(header)
        out = np.empty((max(lines - 1, 0), width - subjects))
        for line, row in enumerate(reader, start=2):
            if len(row) != width or subjects and row[0] in position:
                if numeric:  # a bad number on an earlier line is the first fault
                    parse(rows, first_line)
                if len(row) != width:
                    where = (f", column {header[len(row)]!r}: missing cell" if len(row) < width
                             else f": expected {width} cells, got {len(row)}")
                    raise ParseError(f"{path}: line {line}{where}")
                raise SchemaMismatch(f"{path}: line {line}: duplicate subject_id {row[0]!r}")
            if subjects:
                position[row[0]] = len(position)
            rows.append(row)
            if numeric and len(rows) * width >= _BLOCK_CELLS:
                parse(rows, first_line)
                rows, first_line = [], line + 1
        if not numeric:
            return header, position, rows
        parse(rows, first_line)
    return header, position, out[:first_line - 2 + len(rows)]


def _parse_cell(cell: str, path: Path, line: int, column: str, cast=float):
    """`cell` as numpy parses it (an integer must also fit in 64 bits); ParseError
    names the file, line and column of a cell that does not parse or is not finite."""
    where = f"{path}: line {line}, column {column!r}"
    try:
        value = np.array(cell, dtype=cast).item()
    except (ValueError, OverflowError) as exc:
        what = "an integer" if cast is int else "a number"
        raise ParseError(f"{where}: cannot parse {cell!r} as {what}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: {cell!r} is not finite")
    return value


def _number_array(cells: np.ndarray, path: Path, columns: list[str], first_line: int = 2,
                  ints: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """A 2-D object array of numeric cell strings (data lines from `first_line`)
    as float64 (in `out`, if given); the first `ints` columns must hold integers.

    Every cell must parse and be finite; the first one in row order that is
    not is named by file, line and column.
    """
    out = np.empty(cells.shape) if out is None else out
    try:
        out[:, :ints] = np.array(cells[:, :ints], dtype=int)
        out[:, ints:] = cells[:, ints:]
        bad = np.argwhere(~np.isfinite(out))[:1]
    except (ValueError, OverflowError):  # parse cell by cell up to the first bad one
        bad = np.ndindex(cells.shape)
    for r, c in bad:
        out[r, c] = _parse_cell(cells[r, c], path, first_line + r, columns[c],
                                int if c < ints else float)
    return out


def _join_order(subject_ids: list[str], position: dict[str, int], name: str) -> list[int]:
    """Row index in `name` of each subject, in features.csv order."""
    missing = [sid for sid in subject_ids if sid not in position]
    if missing:
        raise SchemaMismatch(f"{name} has no row for subject_id {missing[0]!r}")
    if len(position) > len(subject_ids):
        known = set(subject_ids)
        unknown = next(sid for sid in position if sid not in known)
        raise SchemaMismatch(f"{name}: subject_id {unknown!r} is not in features.csv")
    return [position[sid] for sid in subject_ids]


def load_bundle(directory: str | Path) -> DatasetBundle:
    """Read the CSV trio back; inverse of save_bundle.

    Subjects follow the row order of features.csv; phenotypes.csv and
    labels.csv are joined to it on subject_id, so their row order is free.
    features.csv is parsed a block of rows at a time into float64 (`_read_csv`),
    so reading it holds little more than the returned array.
    """
    directory = Path(directory)

    _, position, features = _read_csv(directory / "features.csv", ["subject_id"], numeric=True)
    subject_ids = list(position)

    schema_path = directory / "phenotypes.schema.json"
    try:
        schema = json.loads(schema_path.read_text())
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{schema_path}: {exc}") from exc
    if not isinstance(schema, list):
        raise SchemaMismatch(f"{schema_path}: expected a list of measures")

    header, position, rows = _read_csv(directory / "phenotypes.csv", ["subject_id"])
    order = _join_order(subject_ids, position, "phenotypes.csv")
    col_index = {name: k for k, name in enumerate(header)}
    phenotypes = []
    for e, entry in enumerate(schema):
        if not (isinstance(entry, dict) and "name" in entry and "kind" in entry):
            raise SchemaMismatch(f"{schema_path}: entry {e} is not an object with name and kind")
        mname, kind = entry["name"], entry["kind"]
        if mname not in col_index:
            raise SchemaMismatch(f"phenotypes.csv is missing declared column {mname!r}")
        k = col_index[mname]
        if kind == QUANTITATIVE:
            cells = np.array([row[k] for row in rows], dtype=object).reshape(-1, 1)
            values = _number_array(cells, directory / "phenotypes.csv", [mname])[order, 0].tolist()
            tau = entry.get("tau")
        else:
            values, tau = [rows[r][k] for r in order], None
        try:
            phenotypes.append(PhenotypicMeasure(mname, kind, values, tau))
        except (TypeError, ValueError) as exc:  # an unknown kind, or no finite tau > 0
            raise SchemaMismatch(f"{schema_path}: entry {e}: {exc}") from exc

    _, position, rows = _read_csv(directory / "labels.csv", ["subject_id", "label"])
    order = _join_order(subject_ids, position, "labels.csv")
    for r, row in enumerate(rows):
        if row[1] not in ("0", "1"):
            raise ParseError(f"labels.csv: line {r + 2}, column 'label': got {row[1]!r}")
    labels = np.array([int(rows[r][1]) for r in order], dtype=int)

    return DatasetBundle(features=features, phenotypes=phenotypes, labels=labels)


def save_adjacency(a: np.ndarray, path: str | Path) -> None:
    """Write the adjacency matrix's edges, the nonzero entries of its strict
    upper triangle, as i,j,weight rows in row-major (i, j) order. Each matrix
    row's edges are found and written in turn, so no copy of the matrix and
    no whole-file string is made."""

    def chunks():
        yield "i,j,weight\n"
        for i, row in enumerate(a):
            j = np.flatnonzero(row[i + 1:]) + (i + 1)
            yield "".join(f"{i},{j},{w!r}\n" for j, w in zip(j.tolist(), row[j].tolist()))

    _atomic_write(Path(path), chunks())


def load_adjacency(path: str | Path, n: int) -> np.ndarray:
    """The n x n adjacency matrix of the file: inverse of save_adjacency. Each
    row holds exactly an integer i and j and a finite weight, else ParseError
    names the file, line and column (`_read_csv`); the first edge that is not
    0 <= i < j < n, repeats an earlier one or has a negative weight raises
    ParseError naming the file, line and edge."""
    _, _, edges = _read_csv(Path(path), ["i", "j", "weight"], numeric=True, ints=2)
    i, j, w = edges.T
    out_of_range = ~((0 <= i) & (i < j) & (j < n))
    key = np.where(out_of_range, -1.0, i * n + j)
    duplicate = np.ones(len(key), dtype=bool)
    duplicate[np.unique(key, return_index=True)[1]] = False   # each key's first row
    bad = out_of_range | duplicate | (w < 0)
    if bad.any():
        k = int(np.argmax(bad))
        where, edge = f"{path}: line {k + 2}", f"edge ({i[k]:g}, {j[k]:g})"
        if out_of_range[k]:
            raise ParseError(f"{where}: {edge} is not 0 <= i < j < {n}")
        if duplicate[k]:
            raise ParseError(f"{where}: duplicate {edge}")
        raise ParseError(f"{where}: {edge} has negative weight {w[k]}")
    a, i, j = np.zeros((n, n)), i.astype(int), j.astype(int)
    a[i, j] = a[j, i] = w
    return a


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _encode_matrix(mat: np.ndarray) -> dict:
    import base64  # here, not at the top: that raised sampled-n1000's peak RSS by ~1 MB
    raw = np.ascontiguousarray(mat, dtype="<f8").tobytes()
    return {"shape": list(mat.shape), "float64_le": base64.b64encode(raw).decode("ascii")}


def _decode_matrix(obj, path: str | Path, key: str) -> np.ndarray:
    """Inverse of _encode_matrix, as a writable array; ParseError names path and key."""
    import base64
    shape = obj.get("shape") if isinstance(obj, dict) else None
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ParseError(f"{path}: {key}: shape {shape!r} is not two non-negative integers")
    try:
        raw = base64.b64decode(obj["float64_le"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"{path}: {key}: float64_le is missing or not valid base64") from exc
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ParseError(f"{path}: {key}: {len(raw)} bytes, expected {8 * shape[0] * shape[1]}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)  # writable copy


def graph_digest(a: np.ndarray) -> str:
    """SHA-256 of the adjacency matrix's row-major float64 bytes; independent of
    edge order. The matrix's buffer is hashed as it is, with no bytes copy."""
    return hashlib.sha256(a).hexdigest()


@dataclass
class Checkpoint:
    """One trained fold and what `eval` needs to score it again."""

    params: ModelParams
    config: TrainConfig
    fold: int
    sigma: float | None                 # sigma that built the graph; None for a file's graph
    graph_digest: str                   # graph_digest of the training graph
    test_idx: np.ndarray                # the fold's held-out subjects
    feature_columns: np.ndarray | None  # columns kept by RFE; None keeps all

    def __post_init__(self):  # the config must name the model the weights are
        p = self.params
        for key, value in (("alpha", p.alpha), ("beta", p.beta), ("layers", len(p.layers)),
                           ("hidden_dim", p.input_projection.shape[1])):
            if (named := getattr(self.config, key)) != value:
                raise ValueError(f"config.{key} is {named!r}, but the weights have {value!r}")


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Versioned JSON checkpoint on one line. A weight matrix is {"shape": [rows, cols],
    "float64_le": base64 of its row-major little-endian float64 bytes}: the round trip
    is bit-exact (-0.0, subnormals, ±inf, NaN) and costs no decimal formatting."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": {**asdict(ckpt.config), "fold": ckpt.fold, "sigma_resolved": ckpt.sigma},
        "graph_digest": ckpt.graph_digest,
        "test_idx": ckpt.test_idx.tolist(),
        "feature_columns": (None if ckpt.feature_columns is None
                            else ckpt.feature_columns.tolist()),
        "input_projection": _encode_matrix(ckpt.params.input_projection),
        "layers": [_encode_matrix(w) for w in ckpt.params.layers],
        "output_head": _encode_matrix(ckpt.params.output_head),
    }
    _atomic_write(Path(path), json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise SchemaMismatch(f"{path}: checkpoint version {version} != {CHECKPOINT_VERSION}")
    missing = sorted({"config", "feature_columns", "graph_digest", "input_projection",
                      "layers", "output_head", "test_idx"} - payload.keys())
    if missing:
        raise SchemaMismatch(f"{path}: checkpoint has no {missing[0]!r} key")
    if not isinstance(payload["layers"], list):
        raise ParseError(f"{path}: layers is not a list of matrices")
    projection = _decode_matrix(payload["input_projection"], path, "input_projection")
    layers = [_decode_matrix(w, path, f"layers[{k}]") for k, w in enumerate(payload["layers"])]
    head = _decode_matrix(payload["output_head"], path, "output_head")
    config, fold, sigma = _checked_config(payload["config"], path)
    test_idx = _index_array(payload["test_idx"], path, "test_idx")
    columns = payload["feature_columns"]
    columns = None if columns is None else _index_array(columns, path, "feature_columns")
    digest = payload["graph_digest"]
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise ParseError(f"{path}: graph_digest {digest!r} is not a 64-digit hex string")
    try:
        return Checkpoint(ModelParams(projection, layers, head, config.alpha, config.beta),
                          config, fold, sigma, digest, test_idx, columns)
    except ValueError as exc:  # ShapeMismatch, or a config that is not these weights
        raise ParseError(f"{path}: {exc}") from exc


def _checked_config(config, path: str | Path) -> tuple[TrainConfig, int, float | None]:
    """The TrainConfig, `fold` (int >= 0) and `sigma_resolved` (finite > 0, or null)."""
    if not isinstance(config, dict):
        raise SchemaMismatch(f"{path}: config is not an object")
    names = [f.name for f in fields(TrainConfig)]
    missing = [key for key in (*names, "fold", "sigma_resolved") if key not in config]
    if missing:
        raise SchemaMismatch(f"{path}: config has no {missing[0]!r} key")
    try:
        train_config = TrainConfig(**{name: config[name] for name in names})
    except ValueError as exc:
        raise ParseError(f"{path}: config: {exc}") from exc
    fold, sigma = config["fold"], config["sigma_resolved"]
    if type(fold) is not int or fold < 0:
        raise ParseError(f"{path}: config.fold {fold!r} is not an integer >= 0")
    if sigma is not None and not (type(sigma) in (int, float) and 0 < sigma < math.inf):
        raise ParseError(f"{path}: config.sigma_resolved {sigma!r} is not a finite number > 0")
    return train_config, fold, sigma


def _index_array(value, path: str | Path, key: str) -> np.ndarray:
    """A non-empty list of unique non-negative ints as an int array; ParseError names path, key."""
    if not (isinstance(value, list) and value and all(type(i) is int and i >= 0 for i in value)
            and len(set(value)) == len(value)):
        raise ParseError(f"{path}: {key} is not a non-empty list of unique non-negative integers")
    return np.array(value, dtype=int)
