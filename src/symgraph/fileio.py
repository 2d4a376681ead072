"""Text formats: the edge-list graph file, DOT emission, and stats JSON.

Graph file format (diff-friendly, 1-based to match the usual figure labels):

* ``#`` starts a comment, blank lines are skipped;
* the first payload line is the vertex count n;
* every following line is ``u v`` or ``u v w`` (default weight 1); writing a
  pair twice is an error, weight 0 means the edge does not exist.

A weight token that ``int()`` accepts is an int, any other finite decimal a
float; the types decide whether a power runs exact or in float64.

Edge lists travel as arrays: :func:`parse_edges` turns the text into
(n, u, v, w), a block of lines at a time, so no Python object per line
stays alive, and :func:`write_edges` renders such arrays back.  :func:`parse_graph` and :func:`write_graph` are
the same two steps for a :class:`WeightedGraph`, and ``symgraph stats``
counts straight on the arrays.

Weights are written as the shortest decimal that round-trips the float, so
parse(write(g)) reproduces g up to that formatting.  An optional exact mode
renders power-of-0/1-graph weights as ``q*sqrt(r)`` tokens; those files are
for reading, not for feeding back in.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import analysis
from .exact import ExactWeight
from .graphs import WeightedGraph, adjacency_matrix
from .spectra import eigenvalues_symmetric


class GraphFormatError(ValueError):
    """Malformed graph file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _convert(tokens, convert) -> tuple[list, int]:
    """``convert`` over the tokens: the values, and the index of the first
    token it rejects with ValueError (``len(tokens)`` when it rejects none).

    ``list.extend`` keeps what it appended before the error, so the count of
    values is that index.
    """
    values: list = []
    try:
        values.extend(map(convert, tokens))
    except ValueError:
        pass
    return values, len(values)


def _int_array(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


# among the tokens float() accepts, int() rejects exactly those holding one of
# these characters: a point, an exponent, or the n of inf and nan
_FLOAT_MARKS = np.array([ord(c) for c in ".eEnN"], dtype=np.uint32)


def _float_tokens(tokens) -> np.ndarray:
    """For each token, whether it holds a point, an exponent, inf or nan."""
    if not len(tokens):
        return np.zeros(0, dtype=bool)
    chars = np.frombuffer("".join(tokens).encode("utf-32-le"), dtype=np.uint32)
    lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    return np.logical_or.reduceat(np.isin(chars, _FLOAT_MARKS), np.cumsum(lengths) - lengths)


def _int_weights(tokens: np.ndarray, is_float: np.ndarray) -> list[int]:
    """int() of each token that ``is_float`` leaves unmarked, in order.

    A token that int() still refuses, a digit string longer than
    ``sys.get_int_max_str_digits()``, is a float as float() reads it: it is
    marked in ``is_float`` and left out.
    """
    plain = np.flatnonzero(~is_float)
    ints, done = _convert(tokens[plain], int)
    while done < len(plain):
        is_float[plain[done]] = True
        more, _ = _convert(tokens[plain[done + 1 :]], int)
        ints += more
        done += 1 + len(more)
    return ints


# characters parsed at a time: one block's tokens take a few MB, not the
# hundreds of MB that one str object per token of a whole power file takes
_BLOCK_CHARS = 1 << 18


def _edge_lines(n: int, lineno: np.ndarray, lines: list[str], index: np.ndarray,
                fields: np.ndarray, tokens: list[str]):
    """Check and convert the edge lines of one block of a graph file.

    ``index`` locates each edge line in ``lines``, ``lineno`` numbers it in
    the file, ``fields`` counts its tokens, and ``tokens`` are the block's
    tokens from the first edge line on.  Returns the columns (lineno, a, b,
    floats, is_float, ints) of the lines before the first bad one, with
    a <= b, and (line number, message) of that bad line or None.
    """
    # The checks run in the order the format checks one line.  Each runs on
    # the lines before the first failure found so far and moves ``end`` back,
    # so the error kept is the first bad line's.
    end, error = len(fields), ""
    wrong = np.flatnonzero((fields < 2) | (fields > 3))
    if len(wrong):
        end = int(wrong[0])
        error = f"expected 'u v [w]', got {lines[index[end]].strip()!r}"
    fields = fields[:end]
    first = np.cumsum(fields) - fields  # token index of each line's u
    tokens = np.array(tokens, dtype=object)
    u_tok, v_tok = tokens[first], tokens[first + 1]
    w_tok = np.full(end, "1", dtype=object)  # the default weight, an int
    w_tok[fields == 3] = tokens[first[fields == 3] + 2]

    u, bad_u = _convert(u_tok, int)
    v, bad_v = _convert(v_tok, int)
    if min(bad_u, bad_v) < end:
        end = min(bad_u, bad_v)
        error = f"bad vertex pair {u_tok[end]!r} {v_tok[end]!r}"
    u, v = _int_array(u[:end]), _int_array(v[:end])
    outside = np.flatnonzero((u < 1) | (u > n) | (v < 1) | (v > n))
    if len(outside):
        end = int(outside[0])
        error = f"vertex pair ({u[end]}, {v[end]}) out of range 1..{n}"

    floats, bad = _convert(w_tok[:end], float)
    if bad < end:
        end, error = bad, f"bad weight {w_tok[bad]!r}"
    is_float = _float_tokens(w_tok[:end])
    ints = _int_weights(w_tok[:end], is_float)
    floats = np.array(floats[:end], dtype=np.float64)
    infinite = np.flatnonzero(is_float & ~np.isfinite(floats))
    if len(infinite):
        end = int(infinite[0])
        error = f"weight must be finite, got {w_tok[end]!r}"

    is_float = is_float[:end]
    ints = _int_array(ints[: np.count_nonzero(~is_float)])
    a, b = np.minimum(u[:end], v[:end]), np.maximum(u[:end], v[:end])
    columns = (lineno[:end], a, b, floats[:end], is_float, ints)
    return columns, ((int(lineno[end]), error) if error else None)


def parse_edges(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Parse the edge-list format into arrays (n, u, v, w).

    ``u <= v`` are the 1-based ends of each pair with a nonzero weight, in
    file order.  ``w`` keeps each weight's token type: int64 when every
    weight is an int (``object`` past int64), float64 when every weight is a
    float, and an ``object`` array of Python ints and floats when both occur.
    A :class:`GraphFormatError` names the first bad line in file order.
    """
    n: int | None = None
    parts = []
    error = None
    start = base = 0  # the block's first character and the lines before it
    while start < len(text) and error is None:
        # blocks end after a newline, so they split the text between lines
        stop = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:stop]
        start = stop
        lines = block.splitlines()
        if "#" in block:
            lines = [line.split("#", 1)[0] for line in lines]
            block = "\n".join(lines)
        counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
        index = np.flatnonzero(counts)
        tokens = block.split()
        if n is None and len(index):
            head = base + int(index[0]) + 1
            if counts[index[0]] != 1:
                raise GraphFormatError("expected the vertex count alone on the first line", head)
            try:
                n = int(tokens[0])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {tokens[0]!r}", head) from None
            if n < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {n}", head)
            index, tokens = index[1:], tokens[1:]
        if n is not None:
            columns, error = _edge_lines(n, base + index + 1, lines, index, counts[index], tokens)
            parts.append(columns)
        base += len(lines)
    if n is None:
        raise GraphFormatError("empty input: missing vertex count")

    lineno, a, b, floats, is_float, ints = (np.concatenate(column) for column in zip(*parts))
    # the pairs before the first bad line: one key each, Python ints past int64
    scale = n + 1 if (n + 1) ** 2 < 2**63 else np.array(n + 1, dtype=object)
    _, once = np.unique(a * scale + b, return_index=True)
    if len(once) < len(a):
        repeated = np.ones(len(a), dtype=bool)
        repeated[once] = False
        i = int(np.argmax(repeated))
        error = (int(lineno[i]), f"duplicate pair ({a[i]}, {b[i]})")
    if error is not None:
        raise GraphFormatError(error[1], error[0])

    if is_float.all():
        w = floats
    elif not is_float.any():
        w = ints
    else:
        w = floats.astype(object)
        w[~is_float] = ints
    nonzero = w != 0
    return n, a[nonzero], b[nonzero], w[nonzero]


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format into a graph."""
    n, u, v, w = parse_edges(text)
    return WeightedGraph(n, zip(u.tolist(), v.tolist(), w.tolist()))


def format_weight(w) -> str:
    if isinstance(w, bool):
        raise TypeError("boolean weight")
    if isinstance(w, int):
        return str(w)
    if isinstance(w, Fraction):
        return str(w) if w.denominator == 1 else repr(float(w))
    if isinstance(w, ExactWeight):
        return str(w)  # the q*sqrt(r) token
    return repr(float(w))  # repr is the shortest round-trip decimal


# lines formatted at a time: the line strings of one block stay small next
# to the text they make up
_WRITE_LINES = 1 << 16


def write_edges(n: int, u, v, weights) -> str:
    """Render parallel 1-based endpoint arrays and their weights as a graph file.

    Pairs are written in the given order.  ``weights`` is a float64 ndarray
    or a sequence of weights for :func:`format_weight`.
    """
    u, v = np.asarray(u), np.asarray(v)
    if isinstance(weights, np.ndarray) and weights.dtype == np.float64:
        # repr, format_weight's text for a float, once per distinct bit
        # pattern: a power repeats few weights, and repr is the costly step
        bits, inverse = np.unique(weights.view(np.int64), return_inverse=True)
        distinct = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        texts = distinct[inverse]
    else:
        texts = np.array(list(map(format_weight, weights)), dtype=object)
    parts = [f"{n}\n"]
    for lo in range(0, len(u), _WRITE_LINES):
        hi = lo + _WRITE_LINES
        lines = map("{} {} {}\n".format, u[lo:hi].tolist(), v[lo:hi].tolist(), texts[lo:hi].tolist())
        parts.append("".join(lines))
    return "".join(parts)


def write_graph(graph: WeightedGraph) -> str:
    """Render a graph in the edge-list format (sorted pairs, deterministic)."""
    edges = graph.edges()
    return write_edges(graph.n, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: WeightedGraph) -> str:
    """Render an undirected DOT graph; loops are self-edges, weights are labels."""
    lines = ["graph G {"]
    for v in range(1, graph.n + 1):
        lines.append(f"  {v} [label={_dot_quote(graph.label(v))}];")
    for u, v, w in graph.edges():
        lines.append(f"  {u} -- {v} [label={_dot_quote(format_weight(w))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_stats_json(
    graph: WeightedGraph,
    wiener: bool = False,
    spectrum: bool = False,
    tol: float = 1e-8,
) -> str:
    """Summary statistics as JSON with a fixed key order.

    ``wiener`` is null unless requested on a connected graph; ``spectrum`` is
    included only when requested.
    """
    wiener_value: int | None = None
    if wiener:
        try:
            wiener_value = analysis.wiener_index(graph)
        except analysis.DisconnectedGraphError:
            wiener_value = None
    values = None
    if spectrum:
        values = list(eigenvalues_symmetric(adjacency_matrix(graph), tol=tol).values)
    u, v = analysis.support_arrays(graph)
    return write_edge_stats_json(graph.n, u, v, wiener_value, values)


def write_edge_stats_json(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    wiener: int | None = None,
    spectrum: list[float] | None = None,
) -> str:
    """The stats JSON of an n-vertex graph with the distinct pairs (u, v).

    The pairs are 1-based with u <= v, as :func:`parse_edges` returns them.
    """
    stats: dict[str, object] = analysis.support_stats(n, u, v)
    stats["wiener"] = wiener
    if spectrum is not None:
        stats["spectrum"] = spectrum
    return json.dumps(stats) + "\n"
