import base64
import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from angcn import data as dataio
from angcn.data import (
    _BLOCK_CELLS,
    Checkpoint,
    DatasetBundle,
    SyntheticSpec,
    generate_synthetic,
    graph_digest,
    load_adjacency,
    load_bundle,
    load_checkpoint,
    save_adjacency,
    save_bundle,
    save_checkpoint,
)
from angcn.errors import BadAdjacency, ParseError, SchemaMismatch
from angcn.model import ModelParams, init_params
from angcn.popgraph import (
    QUALITATIVE,
    QUANTITATIVE,
    PhenotypicMeasure,
    build_adjacency,
    normalize_adjacency,
)
from angcn.training import AdamState, TrainConfig, adam_step

from graphs import (
    adjacency,
    adjacency_file,
    edge_list,
    peak_bytes,
    random_adjacency,
    wide_random_graph,
)

PINNED_CHECKPOINT_SHA256 = "360987671f3d53a2de72127dfa6796a4ada19058d94fddf66f9e990b233c7415"


def checkpoint(params, digest, test_idx, columns=None, fold=0, sigma=0.5):
    """A Checkpoint whose config names the model `params` is, as `train` writes one."""
    config = TrainConfig(alpha=params.alpha, beta=params.beta, layers=len(params.layers),
                         hidden_dim=params.input_projection.shape[1])
    return Checkpoint(params, config, fold, sigma, digest, np.asarray(test_idx), columns)


def ridge_cv_accuracy(features, labels, folds=5, lam=1.0):
    """Plain closed-form ridge classifier with round-robin folds; the
    baseline-learnability oracle for the generator."""
    x = np.asarray(features, dtype=float)
    y = 2.0 * np.asarray(labels, dtype=float) - 1.0
    n = x.shape[0]
    correct = 0
    for f in range(folds):
        test = np.arange(n) % folds == f
        xtr, ytr = x[~test], y[~test]
        w = np.linalg.solve(xtr.T @ xtr + lam * np.eye(x.shape[1]), xtr.T @ ytr)
        pred = np.sign(x[test] @ w)
        correct += int(np.sum(pred == y[test]))
    return correct / n


class TestGenerateSynthetic:
    def test_same_seed_identical_bundle(self):
        a = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=8, seed=11))
        b = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=8, seed=11))
        assert_same_bundle(a, b)

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=8, seed=11))
        b = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=8, seed=12))
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_labels(self):
        spec = SyntheticSpec(n_subjects=50, n_roi=10, seed=0)
        bundle = generate_synthetic(spec)
        assert bundle.features.shape == (50, 45)   # 10*9/2 upper-triangle entries
        assert set(np.unique(bundle.labels)) == {0, 1}
        assert [m.name for m in bundle.phenotypes] == ["site", "age"]
        assert bundle.phenotypes[0].kind == QUALITATIVE
        assert bundle.phenotypes[1].kind == QUANTITATIVE
        assert bundle.phenotypes[1].tau == 2.0

    def test_zero_separation_is_chance_level(self):
        accs = []
        for seed in range(3):
            bundle = generate_synthetic(
                SyntheticSpec(n_subjects=120, n_roi=8, class_separation=0.0, seed=seed)
            )
            accs.append(ridge_cv_accuracy(bundle.features, bundle.labels))
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_separation_three_is_linearly_learnable(self):
        bundle = generate_synthetic(
            SyntheticSpec(n_subjects=200, n_roi=16, class_separation=3.0, seed=1)
        )
        assert ridge_cv_accuracy(bundle.features, bundle.labels) > 0.85

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_subjects=10)
        with pytest.raises(ValueError):
            SyntheticSpec(class_separation=-1.0)
        for separation in (float("nan"), float("inf")):  # nan features, an unreadable bundle
            with pytest.raises(ValueError, match="class_separation must be a finite number"):
                SyntheticSpec(class_separation=separation)
        with pytest.raises(ValueError):
            SyntheticSpec(phenotype_informativeness=1.5)
        for n_roi in (1, 2):  # no feature column, or one whose correlation is undefined
            with pytest.raises(ValueError, match=f"n_roi must be >= 3, got {n_roi}"):
                SyntheticSpec(n_roi=n_roi)


class TestBundleRoundTrip:
    def test_save_load_is_identity(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=25, n_roi=6, seed=5))
        save_bundle(bundle, tmp_path)
        assert_same_bundle(load_bundle(tmp_path), bundle)

    def test_load_holds_little_more_than_the_features(self, tmp_path):
        # features.csv streams into float64: no grid of cell strings (an 11.5 MB
        # peak for these 0.96 MB of features when the whole file was held)
        bundle = generate_synthetic(SyntheticSpec(n_subjects=1000))
        save_bundle(bundle, tmp_path)
        peak, back = peak_bytes(load_bundle, tmp_path)
        assert peak < 5.5e6
        assert_same_bundle(back, bundle)

    def test_load_writes_every_block_into_one_array(self, tmp_path):
        # each parsed block of rows goes straight into the returned array: keeping
        # the blocks and concatenating them peaked at 2.5 MB for these 0.96 MB
        bundle = generate_synthetic(SyntheticSpec(n_subjects=1000))
        save_bundle(bundle, tmp_path)
        peak, back = peak_bytes(load_bundle, tmp_path)
        assert peak < 2.0e6
        assert_same_bundle(back, bundle)

    def test_crlf_and_lf_parse_identically(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=6))
        lf_dir = tmp_path / "lf"
        crlf_dir = tmp_path / "crlf"
        save_bundle(bundle, lf_dir)
        crlf_dir.mkdir()
        for name in ("features.csv", "phenotypes.csv", "labels.csv"):
            text = (lf_dir / name).read_text()
            (crlf_dir / name).write_bytes(text.replace("\n", "\r\n").encode())
        (crlf_dir / "phenotypes.schema.json").write_text(
            (lf_dir / "phenotypes.schema.json").read_text()
        )
        assert_same_bundle(load_bundle(crlf_dir), load_bundle(lf_dir))

    def test_missing_phenotype_column_names_it(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=7))
        save_bundle(bundle, tmp_path)
        schema = json.loads((tmp_path / "phenotypes.schema.json").read_text())
        schema.append({"name": "handedness", "kind": "qualitative"})
        (tmp_path / "phenotypes.schema.json").write_text(json.dumps(schema))
        with pytest.raises(SchemaMismatch, match="handedness"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("text, error, match", [
        ('[{"kind": "qualitative"}]', SchemaMismatch, "entry 0 is not an object with name"),
        ('[{"name": "site", "kind": "qualitative"}, {"name": "age", "kind": "quantitative"}]',
         SchemaMismatch, "entry 1: quantitative measure 'age' needs tau"),
        ("not json", ParseError, "Expecting value"),
        ('{"site": {"kind": "qualitative"}}', SchemaMismatch, "expected a list of measures"),
        # a NaN tau silently dropped every agreement; true was read as tau 1
        *((f'[{{"name": "age", "kind": "quantitative", "tau": {tau}}}]', SchemaMismatch,
           f"entry 0: quantitative measure 'age' needs tau > 0, a finite number, got {got}")
          for tau, got in (("NaN", "nan"), ("Infinity", "inf"), ("true", "True"))),
    ], ids=["no-name", "no-tau", "not-json", "object-for-list", "tau-nan", "tau-infinity",
            "tau-true"])
    def test_malformed_schema_names_file_and_entry(self, tmp_path, text, error, match):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=7)), tmp_path)
        (tmp_path / "phenotypes.schema.json").write_text(text)
        with pytest.raises(error, match=r"phenotypes\.schema\.json: " + match):
            load_bundle(tmp_path)

    def test_parse_error_carries_line_and_column(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8))
        save_bundle(bundle, tmp_path)
        lines = (tmp_path / "features.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "not-a-number"
        lines[3] = ",".join(cells)
        (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"line 4.*'f1'"):
            load_bundle(tmp_path)

    def test_label_outside_binary_rejected(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=9))
        save_bundle(bundle, tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",2"
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="label"):
            load_bundle(tmp_path)


def assert_same_bundle(got, want):
    """The bundles' features and labels are np.array_equal and their phenotypes ==."""
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert got.phenotypes == want.phenotypes


def edit_cell(path, line, column, value):
    """Overwrite one cell of a CSV file (line 1 is the header)."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def shuffle_rows(path, seed):
    lines = path.read_text().splitlines()
    body = [lines[1 + k] for k in np.random.default_rng(seed).permutation(len(lines) - 1)]
    path.write_text("\n".join([lines[0], *body]) + "\n")


class TestBundleValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_names_file_line_and_column(self, tmp_path, value):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        edit_cell(tmp_path / "features.csv", 6, "f3", value)
        with pytest.raises(ParseError, match=r"features.csv: line 6, column 'f3'.*not finite"):
            load_bundle(tmp_path)

    def test_non_finite_quantitative_phenotype_rejected(self, tmp_path):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        edit_cell(tmp_path / "phenotypes.csv", 9, "age", "NaN")
        with pytest.raises(ParseError, match=r"phenotypes.csv: line 9, column 'age'"):
            load_bundle(tmp_path)

    def test_shuffled_phenotype_and_label_rows_load_the_same_bundle(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=30, n_roi=5, seed=10))
        save_bundle(bundle, tmp_path)
        shuffle_rows(tmp_path / "labels.csv", seed=1)
        shuffle_rows(tmp_path / "phenotypes.csv", seed=2)
        assert (tmp_path / "labels.csv").read_text().splitlines()[1] != "0," + str(bundle.labels[0])
        assert_same_bundle(load_bundle(tmp_path), bundle)

    @pytest.mark.parametrize("file, line, new_id, message", [
        ("labels.csv", 4, "99", "no row for subject_id '2'"),
        ("labels.csv", 4, "0", "line 4: duplicate subject_id '0'"),
        ("phenotypes.csv", 3, "x7", "no row for subject_id '1'"),
        ("features.csv", 5, "1", "line 5: duplicate subject_id '1'"),
    ])
    def test_subject_ids_must_match_one_to_one(self, tmp_path, file, line, new_id, message):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        edit_cell(tmp_path / file, line, "subject_id", new_id)
        with pytest.raises(SchemaMismatch, match=f"{file}.*{message}"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("file, header, expected", [
        ("features.csv", "id,f0", "subject_id,..."),
        ("phenotypes.csv", "site,age", "subject_id,..."),
        ("labels.csv", "subject_id,y", "subject_id,label,..."),
    ])
    def test_header_refusal_names_file_expected_and_found(self, tmp_path, file, header,
                                                          expected):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        lines = (tmp_path / file).read_text().splitlines()
        (tmp_path / file).write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(SchemaMismatch,
                           match=rf"{file}: header must be {re.escape(expected)}, got {header}$"):
            load_bundle(tmp_path)

    def test_unknown_subject_rejected(self, tmp_path):
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        with open(tmp_path / "labels.csv", "a") as fh:
            fh.write("extra,1\n")
        with pytest.raises(SchemaMismatch, match=re.escape(str(tmp_path / "labels.csv"))
                           + ": subject_id 'extra' is not in features.csv"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("file, line, column, value, error", [
        ("labels.csv", 3, "label", "2", ParseError),
        ("labels.csv", 4, "subject_id", "99", SchemaMismatch),
        ("phenotypes.csv", 3, "subject_id", "x7", SchemaMismatch),
        ("phenotypes.csv", 1, "age", "years", SchemaMismatch),
    ], ids=["bad-label", "labels-row-missing", "phenotypes-row-missing",
            "declared-column-missing"])
    def test_refusal_starts_with_the_files_path(self, tmp_path, file, line, column, value,
                                                error):
        # as features.csv and adjacency.csv refusals do, so the reader knows
        # which bundle's file it was
        save_bundle(generate_synthetic(SyntheticSpec(n_subjects=22, n_roi=5, seed=8)), tmp_path)
        edit_cell(tmp_path / file, line, column, value)
        with pytest.raises(error) as refused:
            load_bundle(tmp_path)
        assert str(refused.value).startswith(str(tmp_path / file))


class TestAdjacencyFile:
    def test_round_trip(self, tmp_path):
        a = adjacency(4, ((0, 1, 0.25), (1, 3, 1.75)))
        path = tmp_path / "adjacency.csv"
        save_adjacency(a, path)
        assert path.read_text() == "i,j,weight\n0,1,0.25\n1,3,1.75\n"
        assert load_adjacency(path, n=4).tobytes() == a.tobytes()

    def test_adjacency_symmetric_zero_diagonal(self, tmp_path):
        want = wide_random_graph(6, 0.5, seed=0)
        a = load_adjacency(adjacency_file(tmp_path, edge_list(want)), n=6)
        assert np.array_equal(a, want)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)

    def test_rejects_duplicate_edge(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_adjacency(adjacency_file(tmp_path, [(0, 1, 1.0), (0, 1, 2.0)]), n=3)

    def test_rejects_self_edge_and_bad_order(self, tmp_path):
        with pytest.raises(ParseError):
            load_adjacency(adjacency_file(tmp_path, [(1, 1, 1.0)]), n=3)
        with pytest.raises(ParseError):
            load_adjacency(adjacency_file(tmp_path, [(2, 1, 1.0)]), n=3)

    def test_first_bad_edge_is_reported(self, tmp_path):
        for rows, message in (
            ([(0, 1, 1.0), (1, 2, -0.5), (0, 1, 2.0)], r"line 3: edge \(1, 2\) has negative "
                                                       r"weight -0.5$"),
            ([(0, 1, 1.0), (0, 1, 2.0), (3, 1, 1.0)], r"line 3: duplicate edge \(0, 1\)$"),
            ([(0, 1, 1.0), (3, 1, 1.0), (0, 1, -1.0)], r"line 3: edge \(3, 1\) is not "
                                                       r"0 <= i < j < 4$"),
        ):
            with pytest.raises(ParseError, match=message):
                load_adjacency(adjacency_file(tmp_path, rows), n=4)

    def test_rejects_negative_weight(self, tmp_path):
        with pytest.raises(ParseError, match="negative"):
            load_adjacency(adjacency_file(tmp_path, [(0, 1, -0.5)]), n=2)
        with pytest.raises(BadAdjacency, match=">= 0, got min -0.5"):
            normalize_adjacency(adjacency(2, [(0, 1, -0.5)]))

    @pytest.mark.parametrize("row, where", [
        ("0,x,1.0", "line 3, column 'j'"),
        ("1.5,2,1.0", "line 3, column 'i'"),
        ("0,2", "line 3, column 'weight'"),
        ("0,2,heavy", "line 3, column 'weight'"),
        ("0,1,1.0,junk", "line 3: expected 3 cells, got 4"),
        ("0,99999999999999999999,1.0", "line 3, column 'j': cannot parse"),
        ("1,2,nan", "line 3, column 'weight': 'nan' is not finite"),
        ("1,2,inf", "line 3, column 'weight': 'inf' is not finite"),
        ("1,2,-inf", "line 3, column 'weight': '-inf' is not finite"),
    ])
    def test_bad_row_names_file_line_and_column(self, tmp_path, row, where):
        path = tmp_path / "adjacency.csv"
        path.write_text(f"i,j,weight\n0,1,1.0\n{row}\n")
        with pytest.raises(ParseError, match=f"adjacency.csv: {where}"):
            load_adjacency(path, n=3)

    @pytest.mark.parametrize("row, edge", [
        ("2,1,1.0", r"edge \(2, 1\) is not 0 <= i < j < 3"),
        ("1,1,1.0", r"edge \(1, 1\) is not 0 <= i < j < 3"),
        ("0,63,1.0", r"edge \(0, 63\) is not 0 <= i < j < 3"),
        ("0,1234567,1.0", r"edge \(0, 1234567\) is not 0 <= i < j < 3"),
        ("0,1,2.0", r"duplicate edge \(0, 1\)"),
        ("1,2,-0.5", r"edge \(1, 2\) has negative weight -0.5"),
    ], ids=["i-above-j", "self-edge", "j-out-of-range", "j-seven-digits", "duplicate",
         "negative-weight"])
    def test_refused_edge_names_file_and_line(self, tmp_path, row, edge):
        path = tmp_path / "adjacency.csv"
        path.write_text(f"i,j,weight\n0,1,1.0\n0,2,0.5\n{row}\n")
        with pytest.raises(ParseError, match=f"adjacency.csv: line 4: {edge}$"):
            load_adjacency(path, n=3)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text("a,b,c\n0,1,2.0\n")
        with pytest.raises(SchemaMismatch,
                           match="adjacency.csv: header must be i,j,weight, got a,b,c$"):
            load_adjacency(path, n=3)

    @pytest.mark.parametrize("rows, where", [
        (["0,x,1.0", "0,2,1.0", "0,3"], "line 3, column 'j': cannot parse 'x' as an integer"),
        (["0,3", "0,2,1.0", "0,x,1.0"], "line 3, column 'weight': missing cell"),
        (["0,2,1.0,junk", "0,3,nan"], "line 3: expected 3 cells, got 4"),
    ], ids=["number-first", "row-first", "same-line"])
    def test_first_faulty_line_is_named(self, tmp_path, rows, where):
        # row faults are found as rows are read, bad numbers as their block is
        # parsed; a row fault first parses the rows before it, so the earlier
        # line's fault is the one named, and on one line the row fault
        path = tmp_path / "adjacency.csv"
        path.write_text("i,j,weight\n0,1,1.0\n" + "".join(row + "\n" for row in rows))
        with pytest.raises(ParseError, match=f"adjacency.csv: {where}$"):
            load_adjacency(path, n=4)

    def test_load_holds_a_few_edge_arrays(self, tmp_path):
        # ~72k edges: holding every cell string of the file peaked at 16.6x the
        # edge array; a block of rows at a time leaves the edge checks' copies
        # and the returned matrix
        n, rng = 600, np.random.default_rng(0)
        i, j = np.triu_indices(n, k=1)
        keep = rng.uniform(size=len(i)) < 0.4
        edges = np.column_stack((i[keep], j[keep], rng.uniform(0.01, 2.0, int(keep.sum()))))
        want = np.zeros((n, n))
        want[i[keep], j[keep]] = want[j[keep], i[keep]] = edges[:, 2]
        path = tmp_path / "adjacency.csv"
        save_adjacency(want, path)
        peak, a = peak_bytes(load_adjacency, path, n)
        assert len(edges) > 70_000
        assert peak < 6 * edges.nbytes
        assert a.tobytes() == want.tobytes()

    def test_checks_are_dropped_before_the_matrix_is_made(self, tmp_path):
        # the n = 1000 seed-23 graph file: the matrix, the E x 3 edge table and
        # int copies of i and j are 5 E-length float64 arrays beside the
        # N x N matrix (15.97 MB); with the checks' keys and masks still alive
        # the peak was 18.16 MB
        bundle = generate_synthetic(SyntheticSpec(n_subjects=1000, seed=23))
        want, _ = build_adjacency(bundle.features, bundle.phenotypes)
        path = tmp_path / "adjacency.csv"
        save_adjacency(want, path)
        edges = np.count_nonzero(want) // 2
        peak, a = peak_bytes(load_adjacency, path, 1000)
        assert edges == 199_151
        assert peak < want.nbytes + 5.5 * 8 * edges
        assert a.tobytes() == want.tobytes()

    def test_a_written_file_is_checked_without_a_sort(self, tmp_path, monkeypatch):
        # save_adjacency lists the edges in increasing (i, j) order, so no key
        # can repeat and np.unique need not sort the keys to find one
        a = random_adjacency(60, 0.4, seed=3, low=0.01, high=2.0)
        path = tmp_path / "adjacency.csv"
        save_adjacency(a, path)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique sorted the edge keys")

        monkeypatch.setattr(np, "unique", no_sort)
        assert load_adjacency(path, n=60).tobytes() == a.tobytes()

    def test_save_holds_no_copy_of_the_matrix(self, tmp_path):
        # n = 1000 at 40% density: a np.triu copy and the whole file as one
        # string peaked at 4.9 N^2*8 bytes; one row's edges at a time hold none
        n, rng = 1000, np.random.default_rng(1)
        i, j = np.triu_indices(n, k=1)
        keep = rng.uniform(size=len(i)) < 0.4
        a = np.zeros((n, n))
        a[i[keep], j[keep]] = a[j[keep], i[keep]] = rng.uniform(0.01, 2.0, int(keep.sum()))
        path = tmp_path / "adjacency.csv"
        peak, _ = peak_bytes(save_adjacency, a, path)
        assert peak <= 0.5 * n * n * 8
        assert path.read_text() == "i,j,weight\n" + "".join(
            f"{i},{j},{w!r}\n" for i, j, w in edge_list(a))

def rows_per_block(width):
    """Data rows of a `width`-column file that the reader parses as one block."""
    return -(-_BLOCK_CELLS // width)


# Every valid spelling float() and int() accept parses as they parse it.
FLOAT_SPELLINGS = ["-0.0", "5e-324", "1.7976931348623157e308", "+.5", "1E3", " 2.5", "1_000.25"]
INT_PREFIXES = ["+", " ", "0"]   # "+57", " 57" and "057" all read 57


class TestBlockBoundaries:
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    def test_features_match_a_per_cell_parse(self, tmp_path, extra):
        f = 7
        n = rows_per_block(1 + f) + extra
        rng = np.random.default_rng(n)
        cells = [[repr(x) for x in rng.normal(size=f).tolist()] for _ in range(n)]
        for r, spelling in enumerate(FLOAT_SPELLINGS):
            cells[n - 1 - 2 * r][r] = spelling
        site = PhenotypicMeasure("site", QUALITATIVE, ["a"] * n)
        save_bundle(DatasetBundle(np.zeros((n, f)), [site], np.arange(n) % 2), tmp_path)
        (tmp_path / "features.csv").write_text(
            "subject_id," + ",".join(f"f{k}" for k in range(f)) + "\n"
            + "".join(f"{r}," + ",".join(row) + "\n" for r, row in enumerate(cells)))
        want = np.array([[float(cell) for cell in row] for row in cells])
        assert load_bundle(tmp_path).features.tobytes() == want.tobytes()
        line = rows_per_block(1 + f) + 2   # the first row of the second block
        if n >= line - 1:
            edit_cell(tmp_path / "features.csv", line, "f4", "oops")
            with pytest.raises(ParseError, match=f"features.csv: line {line}, column 'f4': "
                                                 "cannot parse 'oops' as a number"):
                load_bundle(tmp_path)

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    def test_adjacency_matches_a_per_cell_parse(self, tmp_path, extra):
        e = rows_per_block(3) + extra
        n = 120
        rng = np.random.default_rng(e)
        i, j = np.triu_indices(n, k=1)
        cells = [[str(a), str(b), repr(w)]
                 for a, b, w in zip(i[:e].tolist(), j[:e].tolist(), rng.uniform(size=e).tolist())]
        for r, spelling in enumerate(FLOAT_SPELLINGS[:3] + FLOAT_SPELLINGS[4:]):
            cells[e - 1 - r][2] = spelling
        for r, prefix in enumerate(INT_PREFIXES):
            cells[e - 1 - r][0] = prefix + cells[e - 1 - r][0]
        path = tmp_path / "adjacency.csv"
        path.write_text("i,j,weight\n" + "".join(",".join(row) + "\n" for row in cells))
        want = adjacency(n, [(int(a), int(b), float(w)) for a, b, w in cells])
        assert load_adjacency(path, n=n).tobytes() == want.tobytes()
        line = rows_per_block(3) + 2   # the first row of the second block
        if e >= line - 1:
            edit_cell(path, line, "weight", "nan")
            with pytest.raises(ParseError, match=f"adjacency.csv: line {line}, column 'weight': "
                                                 "'nan' is not finite"):
                load_adjacency(path, n=n)


def feature_text(n=22, seed=8):
    """features.csv of a small synthetic bundle, as save_bundle writes it."""
    features = generate_synthetic(SyntheticSpec(n_subjects=n, n_roi=5, seed=seed)).features
    return ("subject_id," + ",".join(f"f{k}" for k in range(features.shape[1])) + "\n"
            + "".join(f"{i}," + ",".join(map(repr, row)) + "\n"
                      for i, row in enumerate(features.tolist())))


def with_cell(text, line, column, value):
    """`text` with one cell replaced (line 1 is the header, column a 0-based index)."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def with_line(text, line, value):
    """`text` with `value` inserted as line `line`."""
    lines = text.split("\n")
    return "\n".join(lines[:line - 1] + [value] + lines[line - 1:])


def without_last_cell(text, line):
    """`text` with the last cell of line `line` dropped."""
    lines = text.split("\n")
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0]
    return "\n".join(lines)


def block_boundary_features(extra, bad=False, spellings=FLOAT_SPELLINGS):
    """The file of TestBlockBoundaries.test_features_match_a_per_cell_parse."""
    f = 7
    n = rows_per_block(1 + f) + extra
    rng = np.random.default_rng(n)
    cells = [[repr(x) for x in rng.normal(size=f).tolist()] for _ in range(n)]
    for r, spelling in enumerate(spellings):
        cells[n - 1 - 2 * r][r] = spelling
    text = ("subject_id," + ",".join(f"f{k}" for k in range(f)) + "\n"
            + "".join(f"{r}," + ",".join(row) + "\n" for r, row in enumerate(cells)))
    return with_cell(text, rows_per_block(1 + f) + 2, 5, "oops") if bad else text


def block_boundary_edges(extra, bad=False, spellings=FLOAT_SPELLINGS[:3] + FLOAT_SPELLINGS[4:]):
    """The file of TestBlockBoundaries.test_adjacency_matches_a_per_cell_parse."""
    e = rows_per_block(3) + extra
    rng = np.random.default_rng(e)
    i, j = np.triu_indices(120, k=1)
    cells = [[str(a), str(b), repr(w)]
             for a, b, w in zip(i[:e].tolist(), j[:e].tolist(), rng.uniform(size=e).tolist())]
    for r, spelling in enumerate(spellings):
        cells[e - 1 - r][2] = spelling
    for r, prefix in enumerate(INT_PREFIXES):
        cells[e - 1 - r][0] = prefix + cells[e - 1 - r][0]
    text = "i,j,weight\n" + "".join(",".join(row) + "\n" for row in cells)
    return with_cell(text, rows_per_block(3) + 2, 2, "nan") if bad else text


# The spellings that np.loadtxt parses too; "1_000.25" only float() takes.
LOADTXT_SPELLINGS = [x for x in FLOAT_SPELLINGS if "_" not in x]
FEATURES = feature_text()
FEATURES_60 = feature_text(60, seed=3)


def narrow(text, columns):
    """`text` with the first `columns` feature columns kept, as
    test_graph_from_fewer_than_three_columns_says_why cuts features.csv."""
    return "".join(",".join(line.split(",")[:1 + columns]) + "\n" for line in text.splitlines())


EDGES = "i,j,weight\n0,1,1.0\n0,2,0.5\n1,2,2.0\n"
# Files that np.loadtxt reads to the block parser's array.
FAST_FILES = {
    "features": FEATURES,
    "features-60": FEATURES_60,
    **{f"features-60-{columns}-columns": narrow(FEATURES_60, columns) for columns in (1, 2)},
    **{f"features-block-{extra}": block_boundary_features(extra, spellings=LOADTXT_SPELLINGS)
       for extra in (-1, 0, 1)},
    "features-spellings": with_cell(with_cell(FEATURES, 3, 1, "+57"), 4, 2, " 057"),
    "features-three-columns": narrow(FEATURES, 3),
    "features-hash-in-an-id": with_cell(FEATURES, 3, 0, "#7"),
    "edges": EDGES,
    **{f"edges-block-{extra}": block_boundary_edges(extra, spellings=LOADTXT_SPELLINGS)
       for extra in (-1, 0, 1)},
    "edges-spellings": "i,j,weight\n+0,057,+.5\n 1,2,1E3\n0,2 ,5e-324\n",
}
# Files that the block parser reads: refused by it, or read past np.loadtxt.
SLOW_FILES = {
    **{f"features-{value}": with_cell(FEATURES, 6, 4, value)
       for value in ("nan", "inf", "-inf", "1e400", "not-a-number", "1_000.25", "\u0661",
                     "", '"1.5"', "1.5#")},
    "features-duplicate-id": with_cell(FEATURES, 5, 0, "1"),
    "features-header": "id,f0" + FEATURES[FEATURES.index("\n"):],
    "features-blank-line": with_line(FEATURES, 5, ""),
    "features-blank-last-line": FEATURES + "\n",
    "features-quoted-id": with_cell(FEATURES, 3, 0, '"7"'),
    "features-missing-cell": without_last_cell(FEATURES, 4),
    "features-extra-cell": with_cell(FEATURES, 4, 3, "1.0,2.0"),
    # the commas add up to the header's count: np.loadtxt refuses the short line
    "features-extra-and-missing-cell": without_last_cell(with_cell(FEATURES, 4, 3, "1.0,2.0"), 7),
    "features-cr": FEATURES.replace("\n", "\r"),
    "features-crlf": FEATURES.replace("\n", "\r\n"),
    "features-no-final-newline": FEATURES[:-1],
    "features-60-subject-only": narrow(FEATURES_60, 0),
    "features-empty": "",
    "features-header-only": FEATURES[:FEATURES.index("\n") + 1],
    **{f"features-block-underscore-{extra}": block_boundary_features(extra)
       for extra in (-1, 0, 1)},
    "features-block-bad": block_boundary_features(1, bad=True),
    **{f"edges-row-{k}": f"i,j,weight\n0,1,1.0\n{row}\n" for k, row in enumerate(
        ["0,x,1.0", "1.5,2,1.0", "0,2", "0,2,heavy", "0,1,1.0,junk", "0,99999999999999999999,1.0",
         "1,2,nan", "1,2,inf", "1,2,-inf", "1e0,2,1.0", "1_0,2,1.0", "\u0661,2,1.0", "0,2,#1",
         '0,2,"1"', "", " "])},
    **{f"edges-first-fault-{k}": "i,j,weight\n0,1,1.0\n" + "".join(row + "\n" for row in rows)
       for k, rows in enumerate([["0,x,1.0", "0,2,1.0", "0,3"], ["0,3", "0,2,1.0", "0,x,1.0"],
                                 ["0,2,1.0,junk", "0,3,nan"]])},
    "edges-header": "a,b,c\n0,1,2.0\n",
    "edges-comment-line": EDGES + "# a comment\n",
    "edges-blank-line": with_line(EDGES, 3, ""),
    "edges-cr": EDGES.replace("\n", "\r"),
    "edges-crlf": EDGES.replace("\n", "\r\n"),
    "edges-no-final-newline": EDGES[:-1],
    "edges-header-only": "i,j,weight\n",
    "edges-header-without-newline": "i,j,weight",
    **{f"edges-block-underscore-{extra}": block_boundary_edges(extra) for extra in (-1, 0, 1)},
    "edges-block-bad": block_boundary_edges(1, bad=True),
}


class TestLoadtxtPath:
    """np.loadtxt reads a clean numeric file; everything else is read again by
    the block parser, which names the fault. Both must agree on every file."""

    @staticmethod
    def read(path, head, ints):
        """_read_csv's header, positions and table (shape and bytes), or its error."""
        try:
            header, position, table = dataio._read_csv(path, head, numeric=True, ints=ints)
            return header, position, table.shape, table.tobytes()
        except (ParseError, SchemaMismatch) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("name", [*FAST_FILES, *SLOW_FILES])
    def test_loadtxt_and_the_block_parser_agree(self, tmp_path, monkeypatch, name):
        text = FAST_FILES.get(name, SLOW_FILES.get(name))
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        head, ints = (["subject_id"], 0) if name.startswith("features") else (["i", "j", "weight"], 2)
        with open(path, newline="") as fh:
            fast = dataio._loadtxt_table(fh, path, head, ints)
        assert (fast is not None) == (name in FAST_FILES)
        got = self.read(path, head, ints)
        monkeypatch.setattr(dataio, "_loadtxt_table", lambda *args: None)
        assert got == self.read(path, head, ints)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_a_text_file_with_a_compressed_suffix_reads_as_text(self, tmp_path, suffix):
        # np.loadtxt opens a path ending in .gz, .bz2 or .xz as compressed
        path = tmp_path / f"adjacency.csv{suffix}"
        path.write_text(EDGES)
        want = adjacency(3, ((0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0)))
        assert load_adjacency(path, n=3).tobytes() == want.tobytes()

    def test_a_written_graph_is_read_by_loadtxt(self, tmp_path):
        a = adjacency(5, ((0, 1, 0.25), (1, 3, 1.75), (2, 4, 5e-324), (0, 4, -0.0 + 3.0)))
        path = tmp_path / "adjacency.csv"
        save_adjacency(a, path)
        with open(path, newline="") as fh:
            _, position, table = dataio._loadtxt_table(fh, path, ["i", "j", "weight"], 2)
        assert position == {}
        assert table.tolist() == [[0, 1, 0.25], [0, 4, 3.0], [1, 3, 1.75], [2, 4, 5e-324]]

    def test_reading_a_written_graph_holds_one_edge_table(self, tmp_path):
        # n = 600 at 40% density (~72k edges): the int64 records and their
        # float64 copy peaked at 2.13 E*3*8 bytes; i and j made float64 inside
        # the records leave the one E x 3 table
        n, rng = 600, np.random.default_rng(2)
        i, j = np.triu_indices(n, k=1)
        keep = rng.uniform(size=len(i)) < 0.4
        edges = np.column_stack((i[keep], j[keep], rng.uniform(0.01, 2.0, int(keep.sum()))))
        a = np.zeros((n, n))
        a[i[keep], j[keep]] = a[j[keep], i[keep]] = edges[:, 2]
        path = tmp_path / "adjacency.csv"
        save_adjacency(a, path)
        peak, (_, _, table) = peak_bytes(dataio._read_csv, path, ["i", "j", "weight"], True, 2)
        assert peak <= 1.5 * edges.nbytes
        assert table.shape == edges.shape
        assert table.tobytes() == edges.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        params = init_params(7, 5, 2, n_layers=3, alpha=0.1, beta=0.3, rng=rng)
        path = tmp_path / "checkpoint.json"
        saved = checkpoint(params, "0123456789abcdef" * 4, [1, 4, 6], np.array([0, 2, 5]),
                           fold=2)
        save_checkpoint(path, saved)
        ckpt = load_checkpoint(path)
        loaded = ckpt.params
        assert np.array_equal(loaded.input_projection, params.input_projection)
        assert np.array_equal(loaded.output_head, params.output_head)
        assert len(loaded.layers) == 3
        for a, b in zip(loaded.layers, params.layers):
            assert np.array_equal(a, b)
        assert (loaded.alpha, loaded.beta) == (0.1, 0.3)
        assert ckpt.config == saved.config
        assert (ckpt.fold, ckpt.sigma) == (2, 0.5)
        assert ckpt.graph_digest == "0123456789abcdef" * 4
        assert ckpt.test_idx.tolist() == [1, 4, 6]
        assert ckpt.feature_columns.tolist() == [0, 2, 5]

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        from angcn.model import forward

        rng = np.random.default_rng(15)
        params = init_params(6, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(5, 6))
        op = np.eye(5)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint(params, "d" * 64, np.arange(5)))
        ckpt = load_checkpoint(path)
        assert ckpt.feature_columns is None
        loaded = ckpt.params
        before = forward(params, op, x).logits
        after = forward(loaded, op, x).logits
        assert np.array_equal(before, after)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        params = init_params(3, 2, 2, n_layers=0, alpha=0.0, beta=0.0, rng=rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint(params, "x", np.arange(2)))
        payload = json.loads(path.read_text())
        # 1: the format before graph digests; 2: weights as decimal JSON numbers;
        # 3: alpha and beta stored twice, at top level and in the config
        for version in (1, 2, 3, 99):
            payload["format_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(SchemaMismatch,
                               match=rf"checkpoint\.json: checkpoint version {version} != 4"):
                load_checkpoint(path)
        path.write_text("[]")  # no object, so no version
        with pytest.raises(SchemaMismatch, match=r"checkpoint\.json: checkpoint version None"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_layers, columns", [(0, None), (3, np.array([0, 2, 5]))])
    def test_streamed_bytes_equal_the_one_string_encoding(self, tmp_path, n_layers, columns):
        # the whole file is one json.dumps string of the v4 payload
        rng = np.random.default_rng(16)
        params = init_params(7, 5, 2, n_layers=n_layers, alpha=0.1, beta=0.3, rng=rng)
        config = TrainConfig(layers=n_layers, hidden_dim=5)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, Checkpoint(params, config, 1, None, "abc", np.array([1, 4, 6]),
                                         columns))

        def encode(mat):
            raw = np.ascontiguousarray(mat, dtype="<f8").tobytes()
            return {"shape": list(mat.shape), "float64_le": base64.b64encode(raw).decode()}

        payload = {  # alpha and beta only inside the config
            "format_version": 4, "config": {**asdict(config), "fold": 1, "sigma_resolved": None},
            "graph_digest": "abc",
            "test_idx": [1, 4, 6], "feature_columns": None if columns is None else [0, 2, 5],
            "input_projection": encode(params.input_projection),
            "layers": [encode(w) for w in params.layers],
            "output_head": encode(params.output_head),
        }
        assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"

    def test_special_floats_round_trip_bit_exact(self, tmp_path):
        special = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                            [np.inf, -np.inf, np.nan]])
        params = ModelParams(special, [np.array([[np.nan, -0.0, 1.0]] * 3)],
                             special.T.copy(), alpha=0.0, beta=0.0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint(params, "d" * 64, np.arange(2)))
        loaded = load_checkpoint(path).params
        for a, b in zip(loaded.matrices(), params.matrices()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # a fixed checkpoint: any drift in the v4 encoding changes this digest
        params = ModelParams(np.arange(6.0).reshape(3, 2) / 7.0,
                             [np.array([[0.5, -0.25], [1e-3, 2.0]])],
                             np.array([[1.0, -1.0], [0.125, -0.0]]), alpha=0.1, beta=0.3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, Checkpoint(params, TrainConfig(layers=1, hidden_dim=2), 0, 0.5,
                                         "0" * 64, np.array([2, 0]), np.array([1, 3, 4])))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256

    def test_loaded_weights_are_writable(self, tmp_path):
        rng = np.random.default_rng(18)
        params = init_params(4, 3, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint(params, "d" * 64, np.arange(2)))
        loaded = load_checkpoint(path).params
        for m in loaded.matrices():
            assert m.dtype == np.float64 and m.flags.writeable and m.flags.c_contiguous
        grads = [np.ones_like(m) for m in loaded.matrices()]
        adam_step(loaded, grads, AdamState.for_params(loaded), lr=0.01)
        assert not np.array_equal(loaded.input_projection, params.input_projection)

    @staticmethod
    def _saved_payload(tmp_path):
        rng = np.random.default_rng(19)
        params = init_params(4, 3, 2, n_layers=4, alpha=0.1, beta=0.3, rng=rng)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint(params, "d" * 64, np.arange(2)))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("key", ["test_idx", "layers", "graph_digest"])
    def test_missing_key_is_named(self, tmp_path, key):
        path, payload = self._saved_payload(tmp_path)
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaMismatch, match=f"checkpoint.json: checkpoint has no '{key}'"):
            load_checkpoint(path)

    def test_bad_base64_names_file_and_key(self, tmp_path):
        path, payload = self._saved_payload(tmp_path)
        payload["layers"][3]["float64_le"] = "not*base64"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=r"checkpoint\.json: layers\[3\]: .*base64"):
            load_checkpoint(path)

    def test_byte_count_must_fill_the_shape(self, tmp_path):
        path, payload = self._saved_payload(tmp_path)
        payload["layers"][3]["float64_le"] = base64.b64encode(bytes(8 * 8)).decode()  # 3 x 3 is 9
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=r"checkpoint\.json: layers\[3\]: 64 bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers", [5, None, {"shape": [3, 3]}])
    def test_layers_must_be_a_list(self, tmp_path, layers):
        path, payload = self._saved_payload(tmp_path)
        payload["layers"] = layers
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=r"checkpoint\.json: layers is not a list"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[9], [3, 3, 1], [-3, -3], [3.0, 3], [True, 9], "3x3", None])
    def test_shape_must_be_two_non_negative_ints(self, tmp_path, shape):
        path, payload = self._saved_payload(tmp_path)
        payload["output_head"]["shape"] = shape
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=r"checkpoint\.json: output_head: shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, key, value, error, match", [
        ("config", "sigma_resolved", None, SchemaMismatch, "config has no 'sigma_resolved' key"),
        ("config", "learning_rate", None, SchemaMismatch, "config has no 'learning_rate' key"),
        ("config", "learning_rate", "0.1", ParseError, "config: learning_rate"),
        ("config", "layers", 2.5, ParseError, "config: layers"),
        ("config", "alpha", 2, ParseError, "config: alpha"),
        ("config", "fold", -1, ParseError, "config.fold -1"),
        ("config", "fold", "0", ParseError, "config.fold '0'"),
        ("config", "sigma_resolved", 0.0, ParseError, "config.sigma_resolved 0.0"),
        ("config", "sigma_resolved", float("nan"), ParseError, "config.sigma_resolved nan"),
        ("config", "sigma_resolved", "0.5", ParseError, "config.sigma_resolved '0.5'"),
        ("config", "alpha", "0.1", ParseError, "config: alpha must be a number in"),
        ("config", "beta", 1.5, ParseError, "config: beta must be a number in"),
        ("top", "test_idx", [-1, 0], ParseError, "test_idx is not"),
        ("top", "test_idx", [1, 1], ParseError, "test_idx is not"),
        ("top", "test_idx", [0.0], ParseError, "test_idx is not"),
        ("top", "test_idx", "01", ParseError, "test_idx is not"),
        ("top", "feature_columns", [-2], ParseError, "feature_columns is not"),
        ("top", "feature_columns", [3, 3], ParseError, "feature_columns is not"),
        ("top", "test_idx", [], ParseError, "test_idx is not a non-empty list"),
        ("config", "layers", 3, ParseError, "config.layers is 3, but the weights have 4"),
        ("config", "hidden_dim", 5, ParseError, "config.hidden_dim is 5, but the weights have 3"),
        ("top", "graph_digest", 5, ParseError, "graph_digest 5 is not a 64-digit hex string"),
        ("top", "graph_digest", "0" * 63, ParseError, "graph_digest '0+' is not a 64-digit"),
        ("top", "graph_digest", "G" * 64, ParseError, "graph_digest 'G+' is not a 64-digit"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, where, key, value, error, match):
        # None stands for a deleted key (a missing config field)
        path, payload = self._saved_payload(tmp_path)
        target = payload["config"] if where == "config" else payload
        if value is None:
            del target[key]
        else:
            target[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(error, match=r"checkpoint\.json: " + match):
            load_checkpoint(path)

    def test_null_graph_digest_is_named(self, tmp_path):
        path, payload = self._saved_payload(tmp_path)
        payload["graph_digest"] = None
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=r"checkpoint\.json: graph_digest None is not"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("alpha", 0.5), ("beta", 0.0), ("layers", 3),
                                            ("hidden_dim", 5)])
    def test_record_refuses_a_config_that_is_not_its_weights(self, key, value):
        rng = np.random.default_rng(20)
        params = init_params(4, 3, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        good = checkpoint(params, "d" * 64, np.arange(2))
        with pytest.raises(ValueError, match=f"config.{key} is {value!r}, but the weights"):
            replace(good, config=replace(good.config, **{key: value}))

    def test_graph_digest_is_sha256_of_the_dense_bytes(self):
        a = adjacency(5, ((0, 1, 0.25), (1, 3, 1.75), (2, 4, 3.0)))
        assert graph_digest(a) == hashlib.sha256(a.tobytes()).hexdigest()

    def test_graph_digest_keeps_no_copy_of_the_matrix(self):
        n = 2000
        a = adjacency(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        peak, _ = peak_bytes(graph_digest, a)
        assert peak < 0.25 * n * n * 8

    def test_graph_digest_ignores_edge_order_only(self, tmp_path):
        def digest(rows, n=4):
            return graph_digest(load_adjacency(adjacency_file(tmp_path, rows), n))

        edges = ((0, 1, 0.5), (1, 3, 2.0), (0, 2, 1.25))
        assert digest(edges[::-1]) == digest(edges)
        assert digest(edges[:2] + ((0, 2, 1.5),)) != digest(edges)
        assert digest(edges, n=5) != digest(edges)


def test_bundle_validates_coverage():
    with pytest.raises(ValueError, match="cover"):
        DatasetBundle(
            features=np.ones((3, 2)),
            phenotypes=[
                PhenotypicMeasure(name="site", kind=QUALITATIVE, values=("a", "b"))
            ],
            labels=np.array([0, 1, 0]),
        )
