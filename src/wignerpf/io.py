"""Matrix documents: Matrix Market and JSON parsing, emission, formatting.

Supported formats:

* Matrix Market, ``array`` layout, fields ``complex``/``real``/``integer``,
  symmetry ``general``, column-major values; ``%`` lines before the size line
  are ``metadata["comments"]``, blank and ``%`` lines among values are skipped.
* JSON: ``{"rows": N, "cols": M, "entries": [[re, im], ...]}`` with the
  entries in row-major order.

All floats are emitted through :func:`format_float` (%.17g — enough digits
to round-trip IEEE doubles exactly, and at least the 15 significant digits
the output contract requires); zeros are canonicalized to "0" so output
bytes never depend on the sign of a floating-point zero.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ParseError
from .linalg import _frozen, as_matrix

FORMAT_MM = "mm"
FORMAT_JSON = "json"
FORMATS = (FORMAT_MM, FORMAT_JSON)


def format_float(x: float) -> str:
    """Deterministic decimal rendering of a double (%.17g, canonical zero)."""
    x = float(x)
    if x == 0.0:
        return "0"
    return "%.17g" % x


def json_dumps(obj) -> str:
    """Serialize to JSON with :func:`format_float` applied to every float.

    Dict insertion order is preserved; no whitespace surprises; strings are
    escaped by the standard library.  Accepts dicts, lists/tuples, strings,
    bools, None, ints and floats.  Non-finite floats (an overflowed
    determinant, say) become ``null``, so the output is always strict JSON.
    """
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj) if np.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, value in enumerate(obj):
            if k:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def complex_pair(z: complex) -> list[float]:
    """[re, im] representation used throughout the JSON output schemas."""
    z = complex(z)
    return [z.real, z.imag]


@dataclass(frozen=True, eq=False)
class MatrixDocument:
    """A parsed matrix plus its source format and free-form metadata."""

    matrix: np.ndarray
    source_format: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(as_matrix(self.matrix)))
        if self.source_format not in FORMATS:
            raise ParseError(f"unknown format {self.source_format!r}; expected one of {FORMATS}")


def parse_matrix(source, fmt: str) -> MatrixDocument:
    """Parse a matrix document from a path or a text stream.

    ``fmt`` is "mm" (Matrix Market) or "json".  Raises :class:`ParseError`
    (with a line number where available) on malformed headers, entry-count
    mismatches, and non-finite values.
    """
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    text = _read_text(source)
    if fmt == FORMAT_MM:
        return _parse_mm(text)
    return _parse_json(text)


def _read_text(source) -> str:
    """The text of a path or a text stream; a path that cannot be read raises
    :class:`ParseError`."""
    if hasattr(source, "read"):
        return source.read()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc.strerror or exc}") from exc


#: characters per piece of text split into lines at a time; a piece ends just
#: after a newline, so the pieces' lines are the lines of the whole text
_MM_PIECE = 1 << 16


def _line_blocks(text: str):
    """``text.splitlines()`` in blocks, one per piece of about
    :data:`_MM_PIECE` characters cut just after a newline, so that no more
    than one block of lines is held at a time."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _MM_PIECE) + 1 or len(text)
        yield text[start:stop].splitlines()
        start = stop


def _parse_mm(text: str) -> MatrixDocument:
    lines = chain.from_iterable(_line_blocks(text))
    first = next(lines, None)
    if first is None:
        raise ParseError("empty file", line=1)
    header = first.split()
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
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("%"):
            comments.append(stripped.lstrip("%").strip())
        elif stripped:
            break
        cursor += 1
    else:
        raise ParseError("missing size line", line=cursor)
    size_tokens = stripped.split()
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
    per_line = 2 if fld == "complex" else 1
    numbers = _mm_values(lines, expected, per_line)
    if numbers is None or not np.isfinite(numbers).all():
        _raise_mm_error(text.splitlines(), cursor, expected, per_line, fld)
    values = numbers.view(np.complex128) if per_line == 2 else numbers.astype(np.complex128)
    matrix = values.reshape((cols, rows)).T
    metadata = {"field": fld}
    if comments:
        metadata["comments"] = "\n".join(comments)
    return MatrixDocument(matrix=matrix, source_format=FORMAT_MM, metadata=metadata)


def _mm_values(lines, expected: int, per_line: int) -> np.ndarray | None:
    """The ``expected * per_line`` numbers of the value lines, or None when
    the count of value lines, the tokens of one of them or a number is wrong.
    Lines are read in batches of 1024, each batch's tokens converted by one
    ``np.array`` (float() per token), so no list holds every token."""
    blocks, found = [], 0
    while batch := list(islice(lines, 1024)):
        entries = [s for s in map(str.strip, batch) if s and not s.startswith("%")]
        found += len(entries)
        if found > expected or (entries and set(map(len, map(str.split, entries))) != {per_line}):
            return None
        try:
            blocks.append(np.array(" ".join(entries).split(), dtype=np.float64))
        except ValueError:
            return None
    return np.concatenate(blocks) if found == expected else None


def _raise_mm_error(lines, cursor, expected, per_line, fld):
    """Raise the ParseError of the first bad value line, once the bulk pass has failed."""
    found = 0
    for lineno in range(cursor, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        if found >= expected:
            raise ParseError(f"expected {expected} entries, found more", line=lineno + 1)
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
        found += 1
    raise ParseError(f"expected {expected} entries, found {found}", line=len(lines))


def _parse_json(text: str) -> MatrixDocument:
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
    values = None  # json.loads yields exact types, so type() tells bool from int
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        if set(map(type, chain.from_iterable(entries))) <= {int, float}:
            with suppress(OverflowError):  # an integer beyond the double range
                values = np.array(entries, dtype=np.float64)
    if values is None or not np.isfinite(values).all():
        _raise_json_error(entries)
    matrix = values.view(np.complex128).reshape((rows, cols))
    metadata = {}
    raw_meta = data.get("metadata")
    if isinstance(raw_meta, dict):
        metadata = {str(k): str(v) for k, v in raw_meta.items()}
    return MatrixDocument(matrix=matrix, source_format=FORMAT_JSON, metadata=metadata)


def _raise_json_error(entries):
    """Raise the ParseError of the first bad entry, once the bulk pass has failed."""
    for k, pair in enumerate(entries):
        if type(pair) is not list or len(pair) != 2 or not set(map(type, pair)) <= {int, float}:
            raise ParseError(f"entry {k} must be an [re, im] pair of numbers")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:  # an integer beyond the double range
            re = im = math.inf
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"entry {k} is non-finite")
    raise ParseError('"entries" must be an array of [re, im] pairs')


def render_matrix(matrix, fmt: str) -> str:
    """Render a matrix as a document string in the requested format."""
    m = as_matrix(matrix)
    if fmt == FORMAT_MM:
        rows, cols = m.shape
        lines = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
        for j in range(cols):  # column-major per the format
            for i in range(rows):
                z = m[i, j]
                lines.append(f"{format_float(z.real)} {format_float(z.imag)}")
        return "\n".join(lines) + "\n"
    if fmt == FORMAT_JSON:
        doc = {
            "rows": int(m.shape[0]),
            "cols": int(m.shape[1]),
            "entries": [complex_pair(z) for z in m.ravel()],
        }
        return json_dumps(doc) + "\n"
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_matrix(matrix, destination, fmt: str) -> None:
    """Write a matrix document to a path or text stream."""
    text = render_matrix(matrix, fmt)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
