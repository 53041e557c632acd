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
import gc
import hashlib
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import BadEdge, ParseError, SchemaMismatch
from .graph_core import Graph
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DatasetBundle)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and self.phenotypes == other.phenotypes
        )


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

def _atomic_write(path: Path, text: str) -> None:
    """Write `text` to `path` atomically."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
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


@contextmanager
def _csv_reader(path: Path):
    """The header row of `path` and a csv reader positioned at its first data row."""
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: line 1: empty file")
        yield header, reader


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with _csv_reader(path) as (header, reader):
        # Pause cyclic GC: the row lists hold no cycles but trigger costly collections.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            rows = list(reader)
        finally:
            if gc_was_enabled:
                gc.enable()
    return header, rows


def _parse_cell(cell: str, path: Path, line: int, column: str, cast=float):
    try:  # as numpy parses it: an integer must also fit in 64 bits
        return np.array(cell, dtype=cast).item()
    except (ValueError, OverflowError) as exc:
        what = "an integer" if cast is int else "a number"
        raise ParseError(
            f"{path}: line {line}, column {column!r}: cannot parse {cell!r} as {what}"
        ) from exc


def _number_array(cells, path: Path, columns: list[str], cast=float,
                  first_line: int = 2) -> np.ndarray:
    """Rows of numeric cell strings (data lines from `first_line`; a list of rows
    or a 2-D object array) as one array of `cast`.

    Every cell must parse and be finite; the first one that is not is named
    by file, line and column.
    """
    try:
        out = np.array(cells, dtype=cast).reshape(len(cells), len(columns))
    except (ValueError, OverflowError):  # re-parse cell by cell to name the bad one
        out = np.array([[_parse_cell(cell, path, first_line + r, columns[c], cast)
                         for c, cell in enumerate(row)]
                        for r, row in enumerate(cells)]).reshape(len(cells), len(columns))
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        r, c = bad[0]
        raise ParseError(
            f"{path}: line {first_line + r}, column {columns[c]!r}: "
            f"{cells[r][c]!r} is not finite"
        )
    return out


def _add_subject(position: dict[str, int], row: list[str], r: int, header: list[str],
                 name: str) -> None:
    """Map data row r's subject_id (first cell) to r; the row must be complete
    and its id new."""
    if len(row) != len(header):
        raise ParseError(f"{name}: line {r + 2}: expected {len(header)} cells")
    if row[0] in position:
        raise SchemaMismatch(f"{name}: line {r + 2}: duplicate subject_id {row[0]!r}")
    position[row[0]] = r


def _subject_rows(rows: list[list[str]], header: list[str], name: str) -> dict[str, int]:
    """Map each subject_id to its row index, through `_add_subject`."""
    position: dict[str, int] = {}
    for r, row in enumerate(rows):
        _add_subject(position, row, r, header, name)
    return position


def _read_features(path: Path) -> tuple[list[str], np.ndarray]:
    """The subject ids and the N x F float64 features of features.csv.

    Rows stream from the file into one array that grows geometrically and is
    trimmed to N rows at the end (`ndarray.resize` reallocates in place where
    it can), so no list of rows or grid of cell strings is ever held.
    """
    with _csv_reader(path) as (header, reader):
        if not header or header[0] != "subject_id":
            raise SchemaMismatch(f"features.csv must start with subject_id, got {header[:1]}")
        position: dict[str, int] = {}
        features = np.empty((0, len(header) - 1))
        for r, row in enumerate(reader):
            _add_subject(position, row, r, header, "features.csv")
            if r == len(features):
                features.resize((2 * r + 1, features.shape[1]), refcheck=False)
            features[r] = _number_array([row[1:]], path, header[1:], first_line=r + 2)
    features.resize((len(position), features.shape[1]), refcheck=False)
    return list(position), features


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
    features.csv is parsed a row at a time straight into float64, so reading it
    holds little more than the returned array (`_read_features`).
    """
    directory = Path(directory)

    subject_ids, features = _read_features(directory / "features.csv")

    schema_path = directory / "phenotypes.schema.json"
    try:
        schema = json.loads(schema_path.read_text())
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{schema_path}: {exc}") from exc
    if not isinstance(schema, list):
        raise SchemaMismatch(f"{schema_path}: expected a list of measures")

    header, rows = _read_csv(directory / "phenotypes.csv")
    if header[:1] != ["subject_id"]:
        raise SchemaMismatch(f"phenotypes.csv must start with subject_id, got {header[:1]}")
    order = _join_order(subject_ids, _subject_rows(rows, header, "phenotypes.csv"),
                        "phenotypes.csv")
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
            values = _number_array([[row[k]] for row in rows], directory / "phenotypes.csv",
                                  [mname])[order, 0].tolist()
            tau = entry.get("tau")
        else:
            values, tau = [rows[r][k] for r in order], None
        try:
            phenotypes.append(PhenotypicMeasure(mname, kind, values, tau))
        except (TypeError, ValueError) as exc:  # an unknown kind, or no tau > 0
            raise SchemaMismatch(f"{schema_path}: entry {e}: {exc}") from exc

    header, rows = _read_csv(directory / "labels.csv")
    if header[:2] != ["subject_id", "label"]:
        raise SchemaMismatch(f"labels.csv header must be subject_id,label, got {header}")
    order = _join_order(subject_ids, _subject_rows(rows, header, "labels.csv"), "labels.csv")
    for r, row in enumerate(rows):
        if row[1] not in ("0", "1"):
            raise ParseError(f"labels.csv: line {r + 2}, column 'label': got {row[1]!r}")
    labels = np.array([int(rows[r][1]) for r in order], dtype=int)

    return DatasetBundle(features=features, phenotypes=phenotypes, labels=labels)


def save_adjacency(g: Graph, path: str | Path) -> None:
    """Write edges as i,j,weight rows with i < j, in the graph's edge order."""
    rows = zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    _atomic_write(Path(path), "i,j,weight\n" + "".join(f"{i},{j},{w!r}\n" for i, j, w in rows))


def load_adjacency(path: str | Path, n: int) -> Graph:
    """Inverse of save_adjacency. Each row holds exactly an integer i and j and
    a finite weight, else ParseError names the file, line and column; an edge
    that Graph refuses raises ParseError naming the file, line and edge."""
    header, rows = _read_csv(Path(path))
    if header != ["i", "j", "weight"]:
        raise SchemaMismatch(f"adjacency header must be i,j,weight, got {header}")
    try:  # an E x 3 grid of the cell strings, parsed a column block at a time
        cells = np.array(rows, dtype=object).reshape(len(rows), 3)
    except ValueError:  # some row does not have three cells: name the first
        line, row = next((r + 2, row) for r, row in enumerate(rows) if len(row) != 3)
        where = (f", column {header[len(row)]!r}: missing cell" if len(row) < 3
                 else f": expected 3 cells, got {len(row)}")
        raise ParseError(f"{path}: line {line}{where}") from None
    ij = _number_array(cells[:, :2], path, header[:2], cast=int)
    weight = _number_array(cells[:, 2:], path, header[2:])
    try:
        return Graph(n=n, edges=np.column_stack((ij, weight)))
    except BadEdge as exc:  # out of range, repeated, or a negative weight
        raise ParseError(f"{path}: line {exc.row + 2}: {exc}") from exc


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


def graph_digest(g: Graph) -> str:
    """SHA-256 of the dense adjacency matrix's row-major float64 bytes; independent
    of edge order. The matrix's buffer is hashed as it is, with no bytes copy."""
    return hashlib.sha256(g.adjacency()).hexdigest()


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
