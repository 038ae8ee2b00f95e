"""The bulk Matrix Market and JSON readers against their line-by-line oracles.

``oracle_parse_mm`` and ``oracle_parse_json`` are the readers as they were
before the value section became one bulk pass: one Python loop over the
value lines (or JSON entries) that converts, checks and stores each value in
turn.  On every generated document the library reader must give the same
matrix bytes (signed zeros included), shape and metadata, or the same
:class:`ParseError` message and line.
"""

import io
import json
import math
import random
import re

import numpy as np
import pytest

import wignerpf.io
from wignerpf import ParseError, parse_matrix, render_matrix

pytestmark = pytest.mark.filterwarnings("error")

DOCUMENTS = 20_000


def oracle_parse_mm(text: str):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise ParseError(
            "malformed header: expected '%%MatrixMarket matrix array "
            "<field> general'",
            line=1,
        )
    _, obj, layout, fld, symmetry = (token.lower() for token in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r} (only 'matrix')", line=1)
    if layout != "array":
        raise ParseError(f"unsupported layout {layout!r} (only dense 'array')", line=1)
    if fld not in ("complex", "real", "integer"):
        raise ParseError(
            f"unsupported field {fld!r} (only 'complex', 'real', 'integer')", line=1
        )
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r} (only 'general')", line=1)

    comments: list[str] = []
    cursor = 1
    while cursor < len(lines):
        stripped = lines[cursor].strip()
        if stripped.startswith("%"):
            comments.append(stripped.lstrip("%").strip())
        elif stripped:
            break
        cursor += 1
    if cursor >= len(lines):
        raise ParseError("missing size line", line=len(lines))
    size_tokens = lines[cursor].split()
    if len(size_tokens) != 2:
        raise ParseError("size line must hold exactly two integers", line=cursor + 1)
    try:
        rows, cols = int(size_tokens[0]), int(size_tokens[1])
    except ValueError:
        raise ParseError("size line must hold exactly two integers", line=cursor + 1) from None
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix size {rows}x{cols} must be at least 1x1", line=cursor + 1)
    cursor += 1

    expected = rows * cols
    values: list[complex] = []
    per_line = 2 if fld == "complex" else 1
    for lineno in range(cursor, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        if len(values) >= expected:
            raise ParseError(
                f"expected {expected} entries, found more", line=lineno + 1
            )
        tokens = stripped.split()
        if len(tokens) != per_line:
            raise ParseError(
                f"expected {per_line} value(s) per line for field '{fld}', "
                f"got {len(tokens)}",
                line=lineno + 1,
            )
        try:
            numbers = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"malformed number in {stripped!r}", line=lineno + 1) from None
        if not all(map(math.isfinite, numbers)):
            raise ParseError("non-finite value", line=lineno + 1)
        values.append(complex(*numbers))
    if len(values) != expected:
        raise ParseError(
            f"expected {expected} entries, found {len(values)}", line=len(lines)
        )
    matrix = np.array(values, dtype=np.complex128).reshape((cols, rows)).T
    metadata = {"field": fld}
    if comments:
        metadata["comments"] = "\n".join(comments)
    return matrix, metadata


def oracle_parse_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise ParseError(f'missing key "{key}"')
    rows, cols = data["rows"], data["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ParseError(f'"{name}" must be a positive integer')
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ParseError('"entries" must be an array of [re, im] pairs')
    expected = rows * cols
    if len(entries) != expected:
        raise ParseError(f"expected {expected} entries, found {len(entries)}")
    values = np.empty(expected, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in pair)
        ):
            raise ParseError(f"entry {k} must be an [re, im] pair of numbers")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:  # an integer beyond the double range
            re = im = math.inf
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"entry {k} is non-finite")
        values[k] = complex(re, im)
    matrix = values.reshape((rows, cols))
    metadata = {}
    raw_meta = data.get("metadata")
    if isinstance(raw_meta, dict):
        metadata = {str(k): str(v) for k, v in raw_meta.items()}
    return matrix, metadata


def _outcome(parse, *args):
    """What a reader made of a document, in a form two readers can be compared by."""
    try:
        matrix, metadata = parse(*args)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", matrix.shape, matrix.dtype.str, matrix.tobytes(order="F"), metadata)


def _library(text: str, fmt: str):
    doc = parse_matrix(io.StringIO(text), fmt)
    return doc.matrix, doc.metadata


# Tokens that float() reads (digit separators, other scripts' digits,
# underflow to a signed zero), reads as non-finite, or rejects.
ODD_TOKENS = [
    "1_0", "-0", "-0.0", "+.5", "1.", "1e-400", "-1e-400", "١", "١٢.٥", "𝟏", "0.1e+5",
    "nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400",
    "abc", "0x1", "1__0", "_1", "1_", ".", "1e", "nan(1)", "1,5", "1\x00",
    "０", "1_000.5", "-nan", "+inf", "1E5", "1d5", "e1", "𝟗𝟗", "+nan", "INF", "1e+05",
    "0001.5", "-.0", "1.e3", "٣.٥e٢", "1e5_0", "１e3", "1-", "+-1", "--1", "1ee5",
]

# The characters str.split() splits on that are not line boundaries, and the
# line boundaries of str.splitlines() ("\r\n" is one boundary).
SEPARATORS = "\t\x1f \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _mm_token(rng: random.Random, odd: float) -> str:
    roll = rng.random()
    if roll < odd:
        return rng.choice(ODD_TOKENS)
    if roll < odd + 0.1:
        return rng.choice(["0", "-0", "0.0", "-0.0"])
    x = rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-30, 30)
    return rng.choice([repr(x), "%.17g" % x, "%.3e" % x, str(rng.randint(-9, 9))])


def _mm_document(rng: random.Random, sizes=(1, 4), odd: float = 0.15) -> str:
    """rows and cols drawn from ``sizes``; each token odd with probability ``odd``."""
    fld = rng.choice(["complex", "real", "integer"])
    rows, cols = rng.randint(*sizes), rng.randint(*sizes)
    per_line = 2 if fld == "complex" else 1
    lines = [f"%%MatrixMarket matrix array {fld} general"]
    if rng.random() < 0.3:
        lines += ["% a comment", "", "%"]
    lines.append(f"{rows} {cols}")
    values = [[_mm_token(rng, odd) for _ in range(per_line)] for _ in range(rows * cols)]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.randrange(5)
        if not values:
            break
        k = rng.randrange(len(values))
        if kind == 0:  # one token more or fewer on a line
            if rng.random() < 0.5:
                values[k] = values[k] + [_mm_token(rng, odd)]
            else:
                values[k] = values[k][1:]
        elif kind == 1:  # one line more or fewer
            if rng.random() < 0.5:
                values.insert(k, [_mm_token(rng, odd) for _ in range(per_line)])
            else:
                del values[k]
        elif kind == 2:  # a blank or comment line among the values
            values.insert(k, rng.choice([[], ["%"], ["%", "1", "2"], ["%not", "a", "value"]]))
        elif kind == 3:  # one odd token in place of a good one
            values[k] = [rng.choice(ODD_TOKENS) if j == 0 else t for j, t in enumerate(values[k])]
        else:  # a line split across two
            if len(values[k]) > 1:
                values[k : k + 1] = [values[k][:1], values[k][1:]]
    separators = [" ", "  ", "\t", " \t "]
    separators += [rng.choice(SEPARATORS), "".join(rng.choices(SEPARATORS, k=3))]
    for tokens in values:
        sep = rng.choice(separators)
        line = sep.join(tokens)
        if rng.random() < 0.1:
            line = rng.choice([" ", "\t", *SEPARATORS]) + line
            line += rng.choice(["", " ", "\t", *SEPARATORS])
        lines.append(line)
    newline = rng.choice(["\n", "\n", "\r\n", *LINE_ENDS])
    return newline.join(lines) + rng.choice([newline, ""])


OVERFLOWING_LITERAL = "written as 1e999"  # json.loads reads 1e999 as inf


def _json_part(rng: random.Random):
    roll = rng.random()
    if roll < 0.8:
        return rng.choice([rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-30, 30), rng.randint(-9, 9)])
    return rng.choice(
        [
            0.0, -0.0, True, False, None, "1", [1.0], {}, 2**53 + 1, 2**63 + 1, 10**300,
            -(10**300), 10**400, -(10**400), 1e-400, -1e-400, math.inf, -math.inf, math.nan,
            OVERFLOWING_LITERAL,
        ]
    )


def _json_document(rng: random.Random) -> str:
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    entries = [
        [_json_part(rng) if rng.random() < 0.1 else rng.gauss(0.0, 1.0) for _ in range(2)]
        for _ in range(rows * cols)
    ]
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        k = rng.randrange(len(entries))
        kind = rng.randrange(4)
        if kind == 1:  # one entry more or fewer
            if rng.random() < 0.5:
                entries.insert(k, [1.0, 2.0])
            elif len(entries) > 1:
                del entries[k]
        elif kind == 2:  # an entry that is not a list
            entries[k] = rng.choice([1.0, "ab", None, {"re": 1, "im": 2}, True])
        elif isinstance(entries[k], list) and entries[k]:
            if kind == 0:  # one part more or fewer
                entries[k] = entries[k] + [0.5] if rng.random() < 0.5 else entries[k][1:]
            else:  # an odd part
                entries[k][rng.randrange(len(entries[k]))] = _json_part(rng)
    doc = {"rows": rows, "cols": cols, "entries": entries}
    if rng.random() < 0.2:
        doc["metadata"] = {"origin": "fuzz", "n": rows}
    # json.dumps writes NaN/Infinity, which json.loads reads back as floats
    return json.dumps(doc).replace(json.dumps(OVERFLOWING_LITERAL), "1e999")


def _differences(make, fmt, oracle, seed, documents=DOCUMENTS):
    rng = random.Random(seed)
    found = []
    for _ in range(documents):
        text = make(rng)
        want, got = _outcome(oracle, text), _outcome(_library, text, fmt)
        if want != got:
            found.append((text, want, got))
    return found


def test_matrix_market_reader_matches_the_line_loop():
    found = _differences(_mm_document, "mm", oracle_parse_mm, seed=20240611)
    assert not found, f"{len(found)} of {DOCUMENTS} documents differ; first: {found[0]!r}"


def test_matrix_market_reader_matches_on_documents_of_thousands_of_lines():
    """The text is split into lines a 64k-character piece at a time: cross the piece edges."""
    rng = random.Random(7)
    texts = [_mm_document(rng, sizes=(33, 60), odd=0.0) for _ in range(60)]
    outcomes = [_outcome(oracle_parse_mm, text) for text in texts]
    assert sum(o[0] == "ok" for o in outcomes) >= 20  # many are accepted, so values compare
    for text, want in zip(texts, outcomes):
        assert _outcome(_library, text, "mm") == want


@pytest.mark.parametrize("piece", [1, 7, 64])
def test_matrix_market_reader_matches_when_the_text_is_cut_into_small_pieces(monkeypatch, piece):
    """The text is split into lines a piece at a time: cut it at every line,
    with the other line boundaries of str.splitlines() among the newlines."""
    monkeypatch.setattr(wignerpf.io, "_MM_PIECE", piece)
    rng = random.Random(piece)
    boundaries = ["\n", "\n", "\r", "\x0b", "\x1c", "\u2028"]
    for k in range(400):
        text = _mm_document(rng, sizes=(1, 4) if k % 2 else (5, 12))
        text = re.sub("\n", lambda _: rng.choice(boundaries), text)
        assert _outcome(_library, text, "mm") == _outcome(oracle_parse_mm, text)


def test_json_reader_matches_the_entry_loop():
    found = _differences(_json_document, "json", oracle_parse_json, seed=20240612)
    assert not found, f"{len(found)} of {DOCUMENTS} documents differ; first: {found[0]!r}"


@pytest.mark.parametrize(
    "make,oracle,patterns",
    [
        (_mm_document, oracle_parse_mm, [
            r"found more", r"value\(s\) per line", r"malformed number", r"non-finite",
            r"entries, found \d",
        ]),
        (_json_document, oracle_parse_json, [
            r"pair of numbers", r"non-finite", r"entries, found \d",
        ]),
    ],
    ids=["mm", "json"],
)
def test_generators_reach_every_outcome(make, oracle, patterns):
    """The fuzz is only worth its documents if they reach each branch of the reader."""
    rng = random.Random(1)
    outcomes = [_outcome(oracle, make(rng)) for _ in range(2000)]
    assert any(o[0] == "ok" for o in outcomes)
    for pattern in patterns:
        assert any(o[0] == "error" and re.search(pattern, o[1]) for o in outcomes), pattern


def test_rendered_documents_never_enter_the_line_loop(monkeypatch):
    """Every document the package writes is read by the C pass alone."""

    def fail(*args):
        raise AssertionError("the line loop was entered")

    monkeypatch.setattr(wignerpf.io, "_mm_line_values", fail)
    rng = np.random.default_rng(80)
    matrix = rng.normal(size=(80, 80)) + 1j * rng.normal(size=(80, 80))
    doc = parse_matrix(io.StringIO(render_matrix(matrix, "mm")), "mm")
    np.testing.assert_array_equal(doc.matrix, matrix)


@pytest.mark.parametrize(
    "values",
    ["1_0 -0\n2 0\n", "١ 0\n2 -0.0\n", "1 0\n% between values\n-0 2\n", "1 0\n2 1_0\n3 0\n"],
    ids=["digit-separator", "arabic-indic-digit", "comment-line", "one-line-too-many"],
)
def test_documents_the_c_pass_rejects_go_through_the_line_loop(monkeypatch, values):
    text = "%%MatrixMarket matrix array complex general\n2 1\n" + values
    calls = []
    loop = wignerpf.io._mm_line_values
    monkeypatch.setattr(wignerpf.io, "_mm_line_values", lambda *a: calls.append(a) or loop(*a))
    assert _outcome(_library, text, "mm") == _outcome(oracle_parse_mm, text)
    assert len(calls) == 1
