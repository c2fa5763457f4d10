"""Round-trip and malformed-input tests for the MatrixMarket pattern I/O."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import DagError
from repro.dagdb import SparseMatrixPattern
from repro.io import (
    dumps_matrix_market_pattern,
    loads_matrix_market_pattern,
    read_matrix_market_pattern,
    write_matrix_market_pattern,
)


def _patterns():
    return [
        SparseMatrixPattern(0, ()),
        SparseMatrixPattern.from_coordinates(3, []),
        SparseMatrixPattern.from_coordinates(3, [(0, 1), (2, 0), (1, 1)]),
        SparseMatrixPattern.tridiagonal(7),
        SparseMatrixPattern.random(25, 0.2, seed=4),
        SparseMatrixPattern.random(40, 0.05, seed=9, ensure_diagonal=True),
        SparseMatrixPattern.lower_triangular_random(15, 0.3, seed=2),
        SparseMatrixPattern.dense(5),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(len(_patterns())))
    def test_dumps_loads_identity(self, index):
        pattern = _patterns()[index]
        back = loads_matrix_market_pattern(dumps_matrix_market_pattern(pattern))
        assert back.size == pattern.size
        assert np.array_equal(back.indptr, pattern.indptr)
        assert np.array_equal(back.indices, pattern.indices)

    def test_write_read_identity_on_disk(self, tmp_path):
        pattern = SparseMatrixPattern.random(30, 0.15, seed=11)
        path = tmp_path / "pattern.mtx"
        write_matrix_market_pattern(pattern, path)
        back = read_matrix_market_pattern(path)
        assert back == pattern  # CSR arrays compared exactly
        # a second round-trip is byte-stable
        assert dumps_matrix_market_pattern(back) == dumps_matrix_market_pattern(pattern)

    def test_written_header_is_pattern_general(self):
        text = dumps_matrix_market_pattern(SparseMatrixPattern.tridiagonal(3))
        assert text.splitlines()[0] == "%%MatrixMarket matrix coordinate pattern general"
        assert text.splitlines()[1] == "3 3 7"

    def test_symmetric_input_round_trips_expanded(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 1.5\n"
            "2 1 2.5\n"
            "3 2 3.5\n"
        )
        pattern = loads_matrix_market_pattern(text)
        assert sorted(pattern.coordinates()) == [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]
        back = loads_matrix_market_pattern(dumps_matrix_market_pattern(pattern))
        assert back == pattern


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty file
            "just some text\n",
            "%%MatrixMarket tensor coordinate real general\n2 2 0\n",
            "%%MatrixMarket matrix\n2 2 0\n",  # truncated header
            "%%MatrixMarket matrix array real general\n3 3\n",  # dense layout
            "%%MatrixMarket matrix coordinate real general\n",  # no size line
            "%%MatrixMarket matrix coordinate real general\n2 2\n",  # short size line
            "%%MatrixMarket matrix coordinate real general\nx y z\n",  # non-numeric
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n",  # rectangular
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",  # count short
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",  # count long
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",  # out of bounds
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",  # short entry
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops\n",  # bad field
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.7 2 1\n",  # non-integer coord
            "%%MatrixMarket matrix coordinate pattern weird\n2 2 1\n1 1\n",  # bad symmetry
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\ninf 1\n",  # non-finite
        ],
    )
    def test_raises_clean_dag_error(self, text):
        with pytest.raises(DagError):
            loads_matrix_market_pattern(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "%%MatrixMarket matrix coordinate pattern weird\n2 2 1\n1 1\n",
                "unknown MatrixMarket symmetry 'weird'",
            ),
            (
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\ninf 1\n",
                "non-finite coordinate in row inf 1",
            ),
            (
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 nan\n",
                "non-finite coordinate in row 1 nan",
            ),
            (
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1e300 1\n",
                r"entry \(1e\+300, 1\) out of bounds for 2x2",
            ),
        ],
    )
    def test_error_names_the_problem(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning on the way
            with pytest.raises(DagError, match=message):
                loads_matrix_market_pattern(text)
