"""Matrix document parsing/rendering and the JSON float formatting rules."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerpf import MatrixDocument, ParseError, parse_matrix, render_matrix
from wignerpf.io import complex_pair, format_float, json_dumps, write_matrix

MM_EXAMPLE = """%%MatrixMarket matrix array complex general
% generated for a parser test
2 2
0 0
-1 0
1 0
0 0
"""


class TestFloatFormatting:
    def test_zero_is_canonical(self):
        assert format_float(0.0) == "0"
        assert format_float(-0.0) == "0"

    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
            assert float(format_float(x)) == x

    def test_integers_render_compactly(self):
        assert format_float(1.0) == "1"
        assert format_float(-2.0) == "-2"

    def test_json_dumps_types(self):
        text = json_dumps(
            {"a": True, "b": None, "c": [1, 2.5], "d": "x", "e": np.bool_(False)}
        )
        assert json.loads(text) == {"a": True, "b": None, "c": [1, 2.5], "d": "x", "e": False}

    def test_json_dumps_non_finite_is_null(self):
        values = [float("inf"), -float("inf"), float("nan"), np.float64("inf"), 1e308]
        text = json_dumps({"v": values})
        assert text == '{"v": [null, null, null, null, 1e+308]}'
        # strict parse: Python's json.loads would otherwise accept Infinity/NaN
        assert json.loads(text, parse_constant=pytest.fail) == {
            "v": [None, None, None, None, 1e308]
        }

    def test_json_dumps_rejects_unknown(self):
        with pytest.raises(TypeError):
            json_dumps({"z": 1.0 + 2.0j})

    def test_complex_pair(self):
        assert complex_pair(1.5 - 2.0j) == [1.5, -2.0]


class TestMatrixMarketParsing:
    def test_column_major_order(self):
        doc = parse_matrix(io.StringIO(MM_EXAMPLE), "mm")
        np.testing.assert_array_equal(doc.matrix, [[0.0, 1.0], [-1.0, 0.0]])
        assert doc.source_format == "mm"
        assert doc.metadata["comments"] == "generated for a parser test"

    def test_rectangular(self):
        text = "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
        doc = parse_matrix(io.StringIO(text), "mm")
        np.testing.assert_array_equal(doc.matrix, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_integer_field(self):
        text = "%%MatrixMarket matrix array integer general\n1 1\n7\n"
        doc = parse_matrix(io.StringIO(text), "mm")
        assert doc.matrix[0, 0] == 7.0
        assert doc.metadata["field"] == "integer"

    def test_header_case_insensitive(self):
        text = "%%matrixmarket MATRIX Array Complex GENERAL\n1 1\n1 0\n"
        parse_matrix(io.StringIO(text), "mm")

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "empty"),
            ("%%MatrixMarket matrix coordinate complex general\n1 1\n1 1 1 0\n", 1, "array"),
            ("%%MatrixMarket matrix array pattern general\n1 1\n1\n", 1, "field"),
            ("%%MatrixMarket matrix array complex symmetric\n1 1\n1 0\n", 1, "symmetry"),
            ("%%MatrixMarket matrix array complex general\n", 1, "size"),
            ("%%MatrixMarket matrix array complex general\n1\n1 0\n", 2, "two integers"),
            ("%%MatrixMarket matrix array complex general\n0 1\n", 2, "at least 1x1"),
            ("%%MatrixMarket matrix array complex general\n1 1\n1\n", 3, "value(s) per line"),
            ("%%MatrixMarket matrix array complex general\n1 1\nx y\n", 3, "malformed number"),
            ("%%MatrixMarket matrix array complex general\n1 1\ninf 0\n", 3, "non-finite"),
            ("%%MatrixMarket matrix array complex general\n2 1\n1 0\n", 3, "expected 2 entries, found 1"),
            ("%%MatrixMarket matrix array complex general\n1 1\n1 0\n2 0\n", 4, "found more"),
            # four tokens on two lines, but 3 + 1 rather than 2 + 2
            ("%%MatrixMarket matrix array complex general\n2 1\n1 0 0\n1\n", 3, "value(s) per line"),
            ("%%MatrixMarket matrix array real general\n2 1\n1\n1e400\n", 4, "non-finite"),
            # a size far beyond the text is a count error, never an allocation
            (
                "%%MatrixMarket matrix array complex general\n1000000 1000000\n1 0\n",
                3,
                "expected 1000000000000 entries, found 1",
            ),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as info:
            parse_matrix(io.StringIO(text), "mm")
        assert fragment in str(info.value)
        assert str(info.value).startswith(f"line {line}:")

    @pytest.mark.parametrize(
        "values,expected",
        [
            ("1 0\n\n% between values\n2 -0\n", [[1.0], [2.0]]),
            ("1_0 0\n2 0\n", [[10.0], [2.0]]),
        ],
        ids=["blank-and-comment-line-skipped", "digit-separator"],
    )
    def test_values_accepted(self, values, expected):
        text = "%%MatrixMarket matrix array complex general\n2 1\n" + values
        doc = parse_matrix(io.StringIO(text), "mm")
        np.testing.assert_array_equal(doc.matrix, expected)
        assert "comments" not in doc.metadata  # comments among the values are dropped

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix(io.StringIO(""), "csv")

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_matrix("/nonexistent/matrix.mm", "mm")

    def test_parse_peak_memory_is_below_three_times_the_file(self, tmp_path):
        # the value lines are split a piece of text at a time, never all at once
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(400, 400)) + 1j * rng.normal(size=(400, 400))
        path = tmp_path / "m.mtx"
        write_matrix(matrix, str(path), "mm")
        tracemalloc.start()
        try:
            doc = parse_matrix(str(path), "mm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size
        np.testing.assert_array_equal(doc.matrix, matrix)


class TestJsonParsing:
    def test_basic(self):
        doc = parse_matrix(
            io.StringIO('{"rows": 1, "cols": 1, "entries": [[2, -3]]}'), "json"
        )
        assert doc.matrix[0, 0] == 2.0 - 3.0j
        assert doc.source_format == "json"

    def test_row_major_order(self):
        text = '{"rows": 2, "cols": 2, "entries": [[1,0],[2,0],[3,0],[4,0]]}'
        doc = parse_matrix(io.StringIO(text), "json")
        np.testing.assert_array_equal(doc.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_metadata_passthrough(self):
        text = '{"rows": 1, "cols": 1, "entries": [[0,0]], "metadata": {"origin": "unit test"}}'
        doc = parse_matrix(io.StringIO(text), "json")
        assert doc.metadata == {"origin": "unit test"}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{", "invalid JSON"),
            ("[1, 2]", "object"),
            ('{"rows": 1, "cols": 1}', 'missing key "entries"'),
            ('{"rows": 0, "cols": 1, "entries": []}', "positive integer"),
            ('{"rows": true, "cols": 1, "entries": [[1,0]]}', "positive integer"),
            ('{"rows": 1, "cols": 1, "entries": [[1,0],[2,0]]}', "expected 1 entries, found 2"),
            ('{"rows": 1, "cols": 1, "entries": [[1]]}', "entry 0"),
            ('{"rows": 1, "cols": 1, "entries": [["a", 0]]}', "entry 0"),
            ('{"rows": 1, "cols": 1, "entries": [[1e999, 0]]}', "non-finite"),
            pytest.param(
                '{"rows": 1, "cols": 1, "entries": [[0, -1%s]]}' % ("0" * 400),
                "non-finite",
                id="integer-beyond-the-double-range",
            ),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as info:
            parse_matrix(io.StringIO(text), "json")
        assert fragment in str(info.value)

    def test_invalid_json_has_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_matrix(io.StringIO('{"rows": 1,\n "cols": }'), "json")
        assert str(info.value).startswith("line 2:")


class TestRendering:
    def test_mm_round_trip(self):
        m = np.array([[0.5, -1.0 + 2.0j], [3.0j, 0.0]])
        text = render_matrix(m, "mm")
        doc = parse_matrix(io.StringIO(text), "mm")
        np.testing.assert_array_equal(doc.matrix, m)

    def test_json_round_trip(self):
        m = np.array([[1e-300 + 1e300j]])
        text = render_matrix(m, "json")
        doc = parse_matrix(io.StringIO(text), "json")
        np.testing.assert_array_equal(doc.matrix, m)

    def test_write_matrix_to_path(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.mm"
        write_matrix(m, path, "mm")
        doc = parse_matrix(str(path), "mm")
        np.testing.assert_array_equal(doc.matrix, m)

    def test_write_matrix_to_stream(self):
        buffer = io.StringIO()
        write_matrix(np.eye(2), buffer, "json")
        doc = parse_matrix(io.StringIO(buffer.getvalue()), "json")
        np.testing.assert_array_equal(doc.matrix, np.eye(2))

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            render_matrix(np.eye(2), "csv")


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)


class TestLosslessRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        data=st.data(),
        fmt=st.sampled_from(["mm", "json"]),
    )
    def test_bit_exact_through_both_formats(self, rows, cols, data, fmt):
        flat = data.draw(
            st.lists(
                st.tuples(finite, finite),
                min_size=rows * cols,
                max_size=rows * cols,
            )
        )
        m = np.array([complex(re, im) for re, im in flat]).reshape(rows, cols)
        doc = parse_matrix(io.StringIO(render_matrix(m, fmt)), fmt)
        np.testing.assert_array_equal(doc.matrix, m)


class TestMatrixDocument:
    def test_fields(self):
        doc = MatrixDocument(
            matrix=np.eye(1), source_format="json", metadata={"k": "v"}
        )
        assert doc.source_format == "json"
        assert doc.metadata == {"k": "v"}
