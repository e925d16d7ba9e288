"""One CSV rule for every table biqa writes and reads.

dataset.render_csv writes each table and dataset.read_csv reads it back:
the dataset manifest, the `.truth.csv`, the pair manifest and the
cross-eval matrix. No other module parses or builds CSV text itself.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from biqa.dataset import (
    DatasetError,
    load_manifest,
    read_csv,
    render_csv,
    write_manifest_csv,
)
from biqa.metrics import EvalReport, LogisticParams, MetricError, render_matrix_csv
from biqa.png_io import write_png
from biqa.pseudolabel import (
    PairManifest,
    PairSample,
    PseudoLabelError,
    load_pair_manifest,
    save_pair_manifest,
)
from biqa.synthbench import (
    BiasedDatasetConfig,
    SynthError,
    gen_biased_dataset,
    load_ground_truth,
)

from pair_rows import manifest_of

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "biqa").glob("*.py"))
OWNER = "dataset.py"


def csv_breaches(source: str) -> list[int]:
    """Line numbers that import csv or split a string on commas."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("split", "rsplit")
            and node.args[:1]
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == ","
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_csv_imports_and_comma_splits():
    source = "\n".join(
        [
            "import csv",
            "import os, csv as c",
            "from csv import reader",
            "line.split(',')",
            "line.split(',', 1)",
            "line.rsplit(',')",
            "line.split()",
            "line.split(':')",
            "','.join(parts)",
        ]
    )
    assert csv_breaches(source) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != OWNER],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_dataset_knows_the_csv_format(path):
    assert csv_breaches(path.read_text(encoding="utf-8")) == []


# ---- the renderer and the reader -----------------------------------------


def test_render_writes_str_of_each_field():
    text = render_csv(("k", "v"), (["a", "b"], [0.1, np.float64(2.5)]), ValueError)
    assert text == "k,v\na,0.1\nb,2.5\n"
    assert render_csv(("k", "v"), (), ValueError) == "k,v\n"


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "a\nb", "a\rb"])
def test_render_refuses_fields_it_cannot_write_unquoted(field):
    with pytest.raises(MetricError, match="comma, quote or line break"):
        render_csv(("k", "v"), (["ok", field], [1, 2]), MetricError)
    with pytest.raises(MetricError, match="comma, quote or line break"):
        render_csv(("k", field), (["ok"], [1]), MetricError)


def test_render_refuses_a_column_count_off_the_header():
    with pytest.raises(SynthError, match="columns"):
        render_csv(("k", "v"), (["a"],), SynthError)


def test_read_parses_quotes_and_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('k,v\n\n"a,1",2\r\nb,"x""y"\n\n')
    assert list(read_csv(str(path), ("k", "v"), SynthError)) == [
        ["a,1", "2"], ["b", 'x"y']
    ]


def test_read_checks_header_and_field_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,v,w\na,1,2\n")
    with pytest.raises(SynthError, match=r"t\.csv: expected header k,v, got 'k,v,w'"):
        list(read_csv(str(path), ("k", "v"), SynthError))
    assert list(read_csv(str(path), ("k", "v", "w"), SynthError)) == [["a", "1", "2"]]
    # the header is the columns, in their order, and no more
    for header in (("k", "w", "v"), ("k", "v", "w", "x")):
        with pytest.raises(SynthError, match=f"expected header {','.join(header)}, got"):
            list(read_csv(str(path), header, SynthError))
    path.write_text("k,v\na,1\nb\n")
    with pytest.raises(SynthError, match=r"t\.csv: line 3: ragged row with 1 fields"):
        list(read_csv(str(path), ("k", "v"), SynthError))
    path.write_text("")
    with pytest.raises(SynthError, match="expected header"):
        list(read_csv(str(path), ("k", "v"), SynthError))


@pytest.mark.parametrize("good_rows", [0, 5000])
def test_read_names_the_file_of_text_that_is_not_utf8(tmp_path, good_rows):
    # the reader decodes in chunks, so a bad byte can surface after rows
    path = tmp_path / "latin1.csv"
    path.write_bytes("k,v\n".encode() + b"a,1\n" * good_rows + "café,2\n".encode("latin-1"))
    with pytest.raises(SynthError, match=r"latin1\.csv: not UTF-8 text: 'utf-8' codec"):
        list(read_csv(str(path), ("k", "v"), SynthError))


@pytest.mark.parametrize("reader, error, text", [
    (load_manifest, DatasetError, "id,image_path,mos\ncafé,a.png,0.5\n"),
    (load_ground_truth, SynthError, "id,qstar\ncafé,0.5\n"),
    (load_pair_manifest, PseudoLabelError, "x_id,y_id,p_r\ncafé,b,0.5\n"),
], ids=["manifest", "truth", "pairs"])
def test_every_reader_names_a_file_that_is_not_utf8(tmp_path, reader, error, text):
    (tmp_path / "latin1.json").write_text(
        '{"pool": "pool", "n_pairs": 1, "seed": 0, "ensemble": []}')  # the pairs' sidecar
    path = tmp_path / "latin1.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(error, match=r"latin1\.csv: not UTF-8 text"):
        reader(str(path))


# ---- every table keeps its bytes -----------------------------------------


def test_manifest_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_manifest_csv(
        str(path),
        [("a", "a.png", 0.1), ("b", "sub/b.png", np.float64(2.5)), ("c", "c.png", 1e-07)],
    )
    assert path.read_bytes() == (
        b"id,image_path,mos\na,a.png,0.1\nb,sub/b.png,2.5\nc,c.png,1e-07\n"
    )


def test_generated_manifest_and_truth_bytes(tmp_path):
    config = BiasedDatasetConfig("lit", 3, ("contrast_reduction",), "sqrt", 5, image_size=8)
    gen_biased_dataset(config, str(tmp_path))
    assert (tmp_path / "lit.csv").read_bytes() == (
        b"id,image_path,mos\n"
        b"lit_0000,lit/0000.png,0.23163189843121784\n"
        b"lit_0001,lit/0001.png,0.8888251284811836\n"
        b"lit_0002,lit/0002.png,0.9380813903446362\n"
    )
    assert (tmp_path / "lit.truth.csv").read_bytes() == (
        b"id,qstar\n"
        b"lit_0000,0.05365333637085001\n"
        b"lit_0001,0.7900101090195925\n"
        b"lit_0002,0.8799966949109258\n"
    )
    assert load_ground_truth(str(tmp_path / "lit.truth.csv")).qstar["lit_0001"] == (
        0.7900101090195925
    )


def _pairs(single_teacher: bool = False) -> PairManifest:
    """Two pairs labelled by two teachers, or by the first one alone."""
    if single_teacher:
        samples = [PairSample("a", "b", 0.7), PairSample("c", "a", 0.1)]
    else:
        samples = [PairSample("a", "b", 0.6), PairSample("c", "a", 0.30000000000000004)]
    ensemble = [{"digest": "d1", "trained_on": "s1"}, {"digest": "d2", "trained_on": "s2"}]
    return manifest_of("pool", 2, 7, ensemble[:1] if single_teacher else ensemble, samples)


@pytest.mark.parametrize(
    "single_teacher, text",
    [
        (True, b"x_id,y_id,p_r\na,b,0.7\nc,a,0.1\n"),
        (False, b"x_id,y_id,p_r\na,b,0.6\nc,a,0.30000000000000004\n"),
    ],
)
def test_pair_manifest_bytes(tmp_path, single_teacher, text):
    manifest = _pairs(single_teacher)
    save_pair_manifest(manifest, str(tmp_path / "p.csv"))
    assert (tmp_path / "p.csv").read_bytes() == text
    second = b'  {\n   "digest": "d2",\n   "trained_on": "s2"\n  }\n'
    assert (tmp_path / "p.json").read_bytes() == (
        b'{\n "ensemble": [\n  {\n   "digest": "d1",\n   "trained_on": "s1"\n  }'
        + (b"\n" if single_teacher else b",\n" + second) + b' ],\n'
        b' "n_pairs": 2,\n "pool": "pool",\n "seed": 7\n}\n'
    )
    assert load_pair_manifest(str(tmp_path / "p.csv")) == manifest


def test_matrix_bytes():
    def cell(model, trained_on, dataset, srcc, plcc):
        betas = LogisticParams(0.0, 1.0, 0.0, 1.0, 0.0)
        return EvalReport(model, trained_on, dataset, 10, srcc, plcc, plcc, betas)

    matrix = [
        [cell("s1-x", "x", "x", 0.9, -0.81234567), cell("s1-x", "x", "y", 0.5, 0.25)],
        [cell("cdr", "pool", "x", 1.0, 0.999999999), cell("cdr", "pool", "y", -4e-7, 0.1)],
    ]
    assert render_matrix_csv(matrix) == (
        "model,trained_on,x_srcc,x_plcc,y_srcc,y_plcc\n"
        "s1-x,x,0.900000,-0.812346,0.500000,0.250000\n"
        "cdr,pool,1.000000,1.000000,-0.000000,0.100000\n"
    )
    matrix[1] = [cell("a,b", "pool", "x", 1.0, 1.0), cell("a,b", "pool", "y", 1.0, 1.0)]
    with pytest.raises(MetricError, match="'a,b,pool,1.000000,"):
        render_matrix_csv(matrix)


# ---- malformed tables are refused, naming the file -----------------------


def test_manifest_row_with_extra_field_is_refused(tmp_path):
    write_png(str(tmp_path / "a.png"), np.zeros((4, 4)))
    path = tmp_path / "extra.csv"
    path.write_text("id,image_path,mos\na,a.png,0.5,EXTRA\n")
    with pytest.raises(DatasetError, match=r"extra\.csv: line 2: ragged row"):
        load_manifest(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "high"])
def test_mos_must_be_a_finite_number(tmp_path, value):
    write_png(str(tmp_path / "a.png"), np.zeros((4, 4)))
    path = tmp_path / "m.csv"
    path.write_text(f"id,image_path,mos\na,a.png,{value}\n")
    with pytest.raises(DatasetError, match=r"m\.csv: mos of id 'a'.*not a finite number"):
        load_manifest(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "x"])
def test_qstar_must_be_a_finite_number(tmp_path, value):
    path = tmp_path / "t.truth.csv"
    path.write_text(f"id,qstar\na,0.5\nb,{value}\n")
    with pytest.raises(SynthError, match=r"truth\.csv: qstar of id 'b'.*not a finite"):
        load_ground_truth(str(path))


def test_truth_ids_are_unique(tmp_path):
    path = tmp_path / "t.truth.csv"
    path.write_text("id,qstar\na,0.5\na,0.7\n")
    with pytest.raises(SynthError, match=r"truth\.csv: duplicate id 'a'"):
        load_ground_truth(str(path))


@pytest.mark.parametrize(
    "text", ["id,qstar\na\n", "id,qstar\na,0.5,EXTRA\n", "id,qstar,extra\na,0.5,1\n"]
)
def test_truth_rows_and_header_have_two_fields(tmp_path, text):
    path = tmp_path / "t.truth.csv"
    path.write_text(text)
    with pytest.raises(SynthError, match=r"truth\.csv: (line 2: ragged|expected header)"):
        load_ground_truth(str(path))


def test_non_numeric_probability_is_refused(tmp_path):
    manifest = _pairs()
    path = tmp_path / "p.csv"
    save_pair_manifest(manifest, str(path))
    good = path.read_text()
    for label in ("high", "?", ""):  # the first pair holds the bad field
        path.write_text(good.replace("a,b,0.6", f"a,b,{label}"))
        with pytest.raises(PseudoLabelError, match=r"p\.csv: non-numeric .* pair \(a, b\)"):
            load_pair_manifest(str(path))
    path.write_text(good.replace("c,a,0.30000000000000004", "c,a,x"))
    with pytest.raises(PseudoLabelError, match=r"p\.csv: non-numeric .* pair \(c, a\)"):
        load_pair_manifest(str(path))


def test_ids_holding_a_comma_are_refused(tmp_path):
    with pytest.raises(DatasetError, match="'a,b,a.png,0.5'"):
        write_manifest_csv(str(tmp_path / "m.csv"), [("a,b", "a.png", 0.5)])
    assert not (tmp_path / "m.csv").exists()
    manifest = _pairs()
    manifest.samples[0] = PairSample("a,b", "c", 0.6)
    with pytest.raises(PseudoLabelError, match="'a,b,c,0.6'"):
        save_pair_manifest(manifest, str(tmp_path / "p.csv"))
    assert not (tmp_path / "p.csv").exists()
