"""learn-prior reads every corpus cell it is given or names what it refuses: a
property over single-cell edits of a small lab corpus.

Each example replaces one cell of a `gen-lab-corpus --subjects 3 --trials 8 --seed 0`
table (which learn-prior fits in a few rounds) with `true`, a quoted number, 0, -1,
1e308, `nan` or an empty cell, or a label with 0.5, 2 or 0, or cuts the row short
before that cell.  learn-prior must exit 0 and write a prior, or exit 1 with
`error:` naming the edited row (its subject and trial) or the corpus file.  A
traceback, or a numpy RuntimeWarning (an error under this suite's warning filter),
fails the example.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mindkit.cli import main

CUT = object()
REPLACEMENTS = ["true", '"4"', "0", "-1", "1e308", "nan", "", CUT]
LABELS = ["0.5", "2", "0"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list[list[str]]:
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    assert main(["gen-lab-corpus", "--subjects", "3", "--trials", "8", "--seed", "0",
                 "--out", str(path)]) == 0
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_learn_prior_reads_or_names_a_cell_edit(corpus, capsys, data):
    header, rows = corpus[0], [list(row) for row in corpus[1:]]
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    column = data.draw(st.integers(0, len(header) - 1), label="column")
    choices = REPLACEMENTS + (LABELS if header[column] == "label" else [])
    replacement = data.draw(st.sampled_from(choices), label="replacement")
    row = rows[index]
    named = f"subject {row[0]}, trial {row[3]}"  # an edit of either is named by the file
    if replacement is CUT:
        del row[column:]
    else:
        row[column] = replacement
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch) / "corpus.csv", Path(scratch) / "prior.mynp"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        capsys.readouterr()
        rc = main(["learn-prior", "--corpus", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc == 0:
            assert out.is_file()
        else:
            assert rc == 1 and err.startswith("error: "), err
            assert named in err or str(path) in err, err
            assert not out.exists()
