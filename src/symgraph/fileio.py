"""Text formats: the edge-list graph file, DOT emission, and stats JSON.

Graph file format (diff-friendly, 1-based to match the usual figure labels):

* ``#`` starts a comment, blank lines are skipped;
* the first payload line is the vertex count n;
* every following line is ``u v`` or ``u v w`` (default weight 1); writing a
  pair twice is an error, weight 0 means the edge does not exist.

A weight token that ``int()`` accepts is an int, any other finite decimal a
float; the types decide whether a power runs exact or in float64.

Edge lists travel as arrays, and both directions work on bytes with numpy
a bounded block at a time, with no Python object per line or token.
:func:`parse_edges` views each block of text as one code per character,
finds the tokens and lines from masks of whitespace, line breaks and
``#``, and converts each distinct token once: ``[+-]?digits`` by digit
arithmetic, other tokens by ``int()`` or ``float()``.  :func:`write_edges`
gathers each block's bytes from a table that holds every vertex label and
every distinct weight text once.  :func:`parse_graph` and
:func:`write_graph` are the same two steps for a :class:`WeightedGraph`,
and ``symgraph stats`` counts straight on the arrays.

Weights are written as the shortest decimal that round-trips the float, so
parse(write(g)) reproduces g up to that formatting.  An optional exact mode
renders power-of-0/1-graph weights as ``q*sqrt(r)`` tokens; those files are
for reading, not for feeding back in.
"""

from __future__ import annotations

import json
import re
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


# The parser reads a block of text as one code per character: the value of
# an ASCII digit, or a class.  A block that is all ASCII is viewed one byte a
# character, any other block as UTF-32.  Codes below _SPACE make up tokens.
_PLUS, _MINUS, _POINT, _EXP_LOWER, _EXP_UPPER, _OTHER = range(10, 16)
_SPACE, _HASH, _LF, _CR, _BREAK = range(16, 21)  # line breaks last
# the line breaks of str.splitlines() and the rest of str.split()'s whitespace
_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)
_SPACES = (0x09, 0x1F, 0x20, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000)
_CODE = np.full(256, _OTHER, dtype=np.uint8)
_CODE[ord("0") : ord("9") + 1] = range(10)
_CODE[[ord(c) for c in "+-.eE#\n\r"]] = (_PLUS, _MINUS, _POINT, _EXP_LOWER, _EXP_UPPER, _HASH, _LF, _CR)
_CODE[[c for c in _SPACES if c < 256]] = _SPACE
_CODE[[c for c in _BREAKS if c < 256 and c not in (0x0A, 0x0D)]] = _BREAK
_WIDE_SPACES = np.array([c for c in _SPACES if c >= 256], dtype=np.uint32)
_WIDE_BREAKS = np.array([c for c in _BREAKS if c >= 256], dtype=np.uint32)
_ASCII_CODES = _CODE.tobytes()  # a bytes.translate table
# a block ends after a line break; "\r\n" is one
_LINE_BREAK = re.compile("\r\n|[" + "".join(map(chr, _BREAKS)) + "]")

# characters parsed at a time: one block's arrays take a few MB whatever the
# size of the file
_BLOCK_CHARS = 1 << 18
_ROW_WIDTH = 32  # tokens up to this long are converted once per distinct token
_TAIL = b" " * _ROW_WIDTH


def _codes(block: str) -> np.ndarray:
    """The code of each character of ``block``, then _ROW_WIDTH spaces, so
    that a row of codes from any token's start stays inside the array."""
    if block.isascii():
        return np.frombuffer((block.encode("ascii") + _TAIL).translate(_ASCII_CODES), dtype=np.uint8)
    points = np.frombuffer(block.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = np.full(len(block) + _ROW_WIDTH, _SPACE, dtype=np.uint8)
    _CODE.take(np.minimum(points, 255), out=codes[: len(block)])
    wide = np.flatnonzero(points > 255)  # _OTHER so far
    codes[wide[np.isin(points[wide], _WIDE_SPACES)]] = _SPACE
    codes[wide[np.isin(points[wide], _WIDE_BREAKS)]] = _BREAK
    return codes


def _lines(block: str, codes: np.ndarray):
    """The tokens and the nonblank lines of one block, comments left out.

    Returns the tokens' character spans (starts, ends); for each line that
    holds a token, its index among the block's lines (as ``str.splitlines``
    counts them), the index of its first token and its token count; and the
    number of line breaks in the block.
    """
    breaks = codes >= _LF
    if "\r" in block:
        breaks[1:] &= (codes[1:] != _LF) | (codes[:-1] != _CR)  # "\r\n" is one break
    at = np.flatnonzero(breaks)
    token = np.zeros(len(codes) + 2, dtype=bool)
    np.less(codes, _SPACE, out=token[1:-1])
    spans = np.flatnonzero(token[1:] != token[:-1])
    starts, ends = spans[0::2], spans[1::2]
    before = np.searchsorted(starts, at)  # the tokens before each line break
    line_first = np.concatenate(([0], before))
    line_end = np.append(before, len(starts))
    if "#" in block:
        hashes = np.flatnonzero(codes == _HASH)
        hash_line = np.searchsorted(at, hashes)
        first = np.flatnonzero(np.diff(hash_line, prepend=-1))
        # a line's tokens end at its first '#'
        line_end[hash_line[first]] = np.searchsorted(starts, hashes[first])
    fields = line_end - line_first
    line = np.flatnonzero(fields)
    return starts, ends, line, line_first[line], fields[line], len(at)


_INT, _FLOAT, _BAD = 0, 1, 2
_INT_DIGITS = 18  # [+-]?digits tokens up to this many digits fit int64
_POW10 = 10 ** np.arange(_INT_DIGITS + 1, dtype=np.int64)
_PAD = 255  # fills a token's row past its end
# OR-ing _PAD_WORD[v] into a little-endian word of codes keeps its first v
# codes and sets the rest to _PAD
_PAD_WORD = np.array([2**64 - 2 ** (8 * v) for v in range(9)], dtype="<u8")
# odd 64-bit multipliers, one per 8 codes of a token's row, for its hash
_HASH_MIX = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
                     dtype=np.uint64)


def _read(token: str):
    """(kind, value) of one token: int() if it takes it, else float()."""
    try:
        return _INT, int(token)
    except ValueError:
        pass
    try:
        return _FLOAT, float(token)
    except ValueError:
        return _BAD, 0


def _same_key(key: np.ndarray) -> np.ndarray:
    """For each key, the index of one element with that key: the same one
    for equal keys.

    A hash table probed in rounds: in each round, one waiting element owns
    each slot that waiting elements hash to, the elements with the owner's
    key take it, and the others move on to the next slot.
    """
    bits = len(key).bit_length() + 1  # at most half the slots in use
    slot = (key >> np.uint64(64 - bits)).astype(np.intp)
    owner = np.empty(1 << bits, dtype=np.intp)
    rep = np.empty(len(key), dtype=np.intp)
    waiting = np.arange(len(key))
    while len(waiting):
        owner[slot[waiting]] = waiting
        found = owner[slot[waiting]]
        match = key[found] == key[waiting]
        rep[waiting[match]] = found[match]
        waiting = waiting[~match]
        slot[waiting] = (slot[waiting] + 1) & (len(owner) - 1)
    return rep


def _narrow(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The int arrays as int64 if every value of every one fits, else as
    they are: one token past int64 makes every token value an object."""
    try:
        return tuple(ints.astype(np.int64, copy=False) for ints in arrays)
    except OverflowError:
        return arrays


def _numbers(block: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Convert tokens as ``int()`` does, and those it refuses as ``float()``.

    Returns (kind, ints, values): kind is _INT, _FLOAT or _BAD per token,
    ``ints`` the int values (int64, or object past int64; 0 elsewhere) and
    ``values`` the float values (0.0 elsewhere).

    Each distinct token is converted once.  Tokens up to _ROW_WIDTH long
    become rows of codes, padded with _PAD; rows are grouped by a hash, and
    a token joins its group only if its row equals the group's row.
    ``[+-]?digits`` rows are summed as digits times powers of ten, and the
    other rows go to int() and float() once per group.  A row holding a
    code that stands for many characters (_OTHER) says nothing of the
    token's text, so such tokens, long tokens and hash collisions are
    converted one by one.
    """
    count = len(starts)
    lengths = ends - starts
    short = np.flatnonzero(lengths <= _ROW_WIDTH)
    width = -(-int(lengths[short].max(initial=1)) // 8) * 8  # whole 8-byte words
    # the rows as little-endian words read at any byte offset: word k holds
    # codes 8k to 8k + 7 of every row
    unaligned = np.ndarray((len(codes) - 7,), dtype="<u8", buffer=codes, strides=(1,))
    at, length = starts[short], lengths[short]
    words = [unaligned[at] | _PAD_WORD.take(np.minimum(length, 8))]
    for k in range(1, width // 8):
        part = np.flatnonzero(length > 8 * k)
        word = np.full(len(short), 2**64 - 1, dtype="<u8")
        word[part] = unaligned[at[part] + 8 * k] | _PAD_WORD.take(np.minimum(length[part] - 8 * k, 8))
        words.append(word)
    rep = _same_key(sum(word * mix for word, mix in zip(words, _HASH_MIX)))
    joined = np.logical_and.reduce([word == word[rep] for word in words])
    pick = np.flatnonzero(rep == np.arange(len(rep)))  # one token of each group
    group = np.empty(len(rep), dtype=np.intp)
    group[pick] = np.arange(len(pick))
    group = group[rep]

    table = np.stack([word[pick] for word in words], axis=1).view(np.uint8)
    column = np.arange(width)
    size = lengths[short[pick]]
    signed = (table[:, 0] == _PLUS) | (table[:, 0] == _MINUS)
    digit = table < 10
    plain = (digit | (table == _PAD))[:, 1:].all(axis=1) & (digit[:, 0] | signed)
    plain &= (size - signed >= 1) & (size - signed <= _INT_DIGITS)
    opaque = (table == _OTHER).any(axis=1)
    joined &= ~opaque[group]
    group_kind = np.where(plain, _INT, _BAD).astype(np.uint8)
    group_int = np.zeros(len(table), dtype=np.int64)
    group_value = np.zeros(len(table), dtype=np.float64)
    exponent = size[plain, None] - 1 - column
    number = (np.where(digit[plain], table[plain], 0) * _POW10.take(exponent, mode="clip")).sum(axis=1)
    number[table[plain, 0] == _MINUS] *= -1
    group_int[plain] = number
    group_int = _convert_alone(block, starts[short[pick]], ends[short[pick]], ~plain & ~opaque,
                               group_kind, group_int, group_value)

    if len(short) == count:  # every token has a row, the usual case
        kind, ints, values = group_kind[group], group_int[group], group_value[group]
        alone = ~joined
    else:
        kind = np.full(count, _BAD, dtype=np.uint8)
        ints = np.zeros(count, dtype=group_int.dtype)
        values = np.zeros(count, dtype=np.float64)
        kind[short], ints[short], values[short] = group_kind[group], group_int[group], group_value[group]
        alone = np.ones(count, dtype=bool)
        alone[short[joined]] = False
    ints = _convert_alone(block, starts, ends, alone, kind, ints, values)
    return kind, ints, values


def _convert_alone(block, starts, ends, which, kind, ints, values) -> np.ndarray:
    """Fill ``kind``, ``ints`` and ``values`` at ``which`` by :func:`_read`,
    one token at a time; returns ``ints``, an object array if it must be."""
    where = np.flatnonzero(which)
    read = [_read(block[start:end]) for start, end in zip(starts[where].tolist(), ends[where].tolist())]
    if not read:
        return ints
    kind[where] = [k for k, _ in read]
    values[where] = [x if k == _FLOAT else 0.0 for k, x in read]
    numbers = [x if k == _INT else 0 for k, x in read]
    try:
        ints[where] = numbers
    except OverflowError:  # a number past int64
        ints = ints.astype(object)
        ints[where] = numbers
    return ints


def _edge_lines(n: int, block: str, codes: np.ndarray, lineno: np.ndarray, starts: np.ndarray,
                ends: np.ndarray, first: np.ndarray, fields: np.ndarray):
    """Check and convert the edge lines of one block of a graph file.

    ``lineno`` numbers each edge line in the file, ``first`` is the index of
    its first token in (``starts``, ``ends``), and ``fields`` counts its
    tokens.  Returns the columns (lineno, a, b, floats, is_float, ints) of
    the lines before the first bad one, with a <= b and ``ints`` holding the
    int weights alone, and (line number, message) of that bad line or None.
    """
    # The checks run in the order the format checks one line.  Each runs on
    # the lines before the first failure found so far and moves ``end`` back,
    # so the error kept is the first bad line's.
    end, error = len(fields), ""
    wrong = np.flatnonzero((fields < 2) | (fields > 3))
    if len(wrong):
        end = int(wrong[0])
        last = first[end] + fields[end] - 1
        error = f"expected 'u v [w]', got {block[starts[first[end]] : ends[last]]!r}"
    first = first[:end]
    three = np.flatnonzero(fields[:end] == 3)
    at = np.concatenate((first, first + 1, first[three] + 2))  # the u, v and w tokens
    kind, ints, values = _numbers(block, codes, starts[at], ends[at])
    u, v = ints[:end], ints[end : 2 * end]

    bad = np.flatnonzero((kind[:end] != _INT) | (kind[end : 2 * end] != _INT))
    if len(bad):
        end, i = int(bad[0]), first[bad[0]]
        error = f"bad vertex pair {block[starts[i] : ends[i]]!r} {block[starts[i + 1] : ends[i + 1]]!r}"
    u, v = u[:end], v[:end]
    outside = np.flatnonzero((u < 1) | (u > n) | (v < 1) | (v > n))
    if len(outside):
        end = int(outside[0])
        error = f"vertex pair ({u[end]}, {v[end]}) out of range 1..{n}"

    weights = slice(2 * len(first), 2 * len(first) + np.searchsorted(three, end))
    three, w_kind, w_ints, w_values = three[: weights.stop - weights.start], kind[weights], ints[weights], values[weights]
    failed = np.flatnonzero((w_kind == _BAD) | ((w_kind == _FLOAT) & ~np.isfinite(w_values)))
    if len(failed):
        i = int(failed[0])
        end, token = int(three[i]), block[starts[at[weights.start + i]] : ends[at[weights.start + i]]]
        error = f"bad weight {token!r}" if w_kind[i] == _BAD else f"weight must be finite, got {token!r}"
        three, w_kind, w_ints, w_values = three[:i], w_kind[:i], w_ints[:i], w_values[:i]

    is_float = np.zeros(end, dtype=bool)
    is_float[three] = w_kind == _FLOAT
    floats = np.zeros(end, dtype=np.float64)
    floats[three] = w_values
    ints = np.ones(end, dtype=w_ints.dtype)  # the default weight, an int
    ints[three] = w_ints
    a, b = _narrow(np.minimum(u[:end], v[:end]), np.maximum(u[:end], v[:end]))
    columns = (lineno[:end], a, b, floats, is_float, *_narrow(ints[~is_float]))
    return columns, ((int(lineno[end]), error) if error else None)


def _append(column: np.ndarray, filled: int, values: np.ndarray) -> np.ndarray:
    """Write ``values`` at ``column[filled:]``; returns the column, grown or
    turned into an object array first if it must be."""
    end = filled + len(values)
    promote = values.dtype == object and column.dtype != object
    if promote or end > len(column):
        grown = np.empty(max(end, 2 * len(column)), dtype=object if promote else column.dtype)
        grown[:filled] = column[:filled]
        column = grown
    column[filled:end] = values
    return column


def parse_edges(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Parse the edge-list format into arrays (n, u, v, w).

    ``u <= v`` are the 1-based ends of each pair with a nonzero weight, in
    file order.  ``w`` keeps each weight's token type: int64 when every
    weight is an int (``object`` past int64), float64 when every weight is a
    float, and an ``object`` array of Python ints and floats when both occur.
    A :class:`GraphFormatError` names the first bad line in file order.
    """
    n: int | None = None
    # Each block's columns go straight into whole-file columns, so no pieces
    # of them stay behind in the heap.  A file has about one edge line per
    # "\n"; a column grows if it needs more room.
    size = text.count("\n") + 1
    columns = [np.empty(size, dtype) for dtype in (np.int64, np.int64, np.int64, np.float64, bool, np.int64)]
    filled = [0] * len(columns)
    error = None
    start = base = 0  # the block's first character and the lines before it
    while start < len(text) and error is None:
        found = _LINE_BREAK.search(text, start + _BLOCK_CHARS)
        stop = found.end() if found else len(text)
        block = text[start:stop]
        start = stop
        codes = _codes(block)
        starts, ends, line, first, fields, breaks = _lines(block, codes)
        if n is None and len(first):
            head = base + int(line[0]) + 1
            if fields[0] != 1:
                raise GraphFormatError("expected the vertex count alone on the first line", head)
            token = block[starts[first[0]] : ends[first[0]]]
            try:
                n = int(token)
            except ValueError:
                raise GraphFormatError(f"bad vertex count {token!r}", head) from None
            if n < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {n}", head)
            line, first, fields = line[1:], first[1:], fields[1:]
        if n is not None:
            lineno = base + line + 1
            part, error = _edge_lines(n, block, codes, lineno, starts, ends, first, fields)
            for j, values in enumerate(part):
                columns[j] = _append(columns[j], filled[j], values)
                filled[j] += len(values)
        base += breaks
    if n is None:
        raise GraphFormatError("empty input: missing vertex count")

    lineno, a, b, floats, is_float, ints = (column[:count] for column, count in zip(columns, filled))
    # the pairs before the first bad line: one key each, Python ints past int64
    scale = n + 1 if (n + 1) ** 2 < 2**63 else np.array(n + 1, dtype=object)
    key = a * scale + b
    # keys in increasing order, as written files have them, are distinct
    # without the sort
    if not (key[1:] > key[:-1]).all():
        _, once = np.unique(key, return_index=True)
        if len(once) < len(a):
            repeated = np.ones(len(a), dtype=bool)
            repeated[once] = False
            i = int(np.argmax(repeated))
            error = (int(lineno[i]), f"duplicate pair ({a[i]}, {b[i]})")
    del key
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
    if nonzero.all():
        return n, a, b, w
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


# lines written at a time: one block's gather index takes a few MB
_WRITE_LINES = 1 << 14


def _text_table(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``texts`` back to back, and each one's offset and length."""
    data = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    return np.frombuffer(b"".join(data), dtype=np.uint8), np.cumsum(lengths) - lengths, lengths


def write_edges(n: int, u, v, weights) -> str:
    """Render parallel 1-based endpoint arrays and their weights as a graph file.

    Pairs are written in the given order.  ``weights`` is a float64 ndarray
    or a sequence of weights for :func:`format_weight`.

    Each line is three entries of one byte table: the labels ``"u "`` and
    ``"v "`` and the weight text ``"w\\n"``, each text made once.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if not len(u):
        return f"{n}\n"
    if min(u.min(), v.min()) >= 0 and max(u.max(), v.max()) <= 2 * len(u):
        labels = range(max(u.max(), v.max()) + 1)
    else:  # few pairs among large labels: a label for each value that occurs
        labels, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
        labels, u, v = labels.tolist(), inverse[: len(u)], inverse[len(u) :]
    if isinstance(weights, np.ndarray) and weights.dtype == np.float64:
        # repr, format_weight's text for a float, once per distinct bit pattern
        bits, w = np.unique(weights.view(np.int64), return_inverse=True)
        texts = map(repr, bits.view(np.float64).tolist())
    else:
        index: dict[str, int] = {}
        w = np.fromiter((index.setdefault(t, len(index)) for t in map(format_weight, weights)),
                        dtype=np.intp, count=len(u))
        texts = index
    table, offset, length = _text_table([*map("{} ".format, labels), *map("{}\n".format, texts)])
    w = w + len(labels)
    parts = [f"{n}\n"]
    for lo in range(0, len(u), _WRITE_LINES):
        hi = lo + _WRITE_LINES
        entries = np.stack((u[lo:hi], v[lo:hi], w[lo:hi]), axis=1).ravel()
        size = length[entries]
        at = np.cumsum(size) - size  # each entry's place in the block's bytes
        gather = np.repeat(offset[entries] - at, size) + np.arange(at[-1] + size[-1])
        parts.append(table[gather].tobytes().decode())
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
