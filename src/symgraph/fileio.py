"""Text formats: the edge-list graph file, DOT emission, and stats JSON.

Graph file format (diff-friendly, 1-based to match the usual figure labels):

* ``#`` starts a comment, blank lines are skipped;
* the first payload line is the vertex count n;
* every following line is ``u v`` or ``u v w`` (default weight 1); writing a
  pair twice is an error, weight 0 means the edge does not exist.

A weight token that ``int()`` accepts is an int, any other finite decimal a
float; the types decide whether a power runs exact or in float64.

Edge lists travel as arrays, a bounded block at a time in both directions,
with no Python object per line or token.  The reader views each block of
text as one code per character, finds tokens and lines from masks, and
converts each distinct token once, into one weight column per block typed
once.  One writer, for graph files and DOT, gathers each block's bytes from
a table of label and distinct weight texts.
Every ``symgraph`` command that reads a graph file reads the blocks of
:func:`read_blocks`; :func:`parse_edges` and :func:`write_edges` join them
into whole arrays (n, u, v, w) and text, and :func:`dot_blocks` joins them
for its (u, v) order.

Weights are written as the shortest decimal that round-trips the float, so
parse(write(g)) reproduces g up to that formatting.  ``power --exact`` of
a rational input hands the writer one ``q*sqrt(r)`` text per distinct
entry (``exact.sqrt_token``), for reading, not for feeding back in.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import analysis
from .exact import ExactWeight
from .graphs import WeightedGraph, edge_arrays
from .power import _check_budget
from .spectra import eigenvalues_edges


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
# the end of a str's last line break: the greedy ".*" backs off from the end
_LAST_BREAK = re.compile("(?s).*[" + "".join(map(chr, _BREAKS)) + "]")

# characters parsed at a time: one block's arrays take a few MB whatever the
# size of the file
_BLOCK_CHARS = 1 << 17
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
    tokens.  Returns the columns (lineno, a, b, w) of the lines before the
    first bad one, with a <= b in the smallest int dtype that holds n and w
    typed by the block's nonzero weights as :func:`parse_edges` types a
    file's, and (line number, message) of that bad line or None.
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
        three, w_ints, w_values = three[:i], w_ints[:i], w_values[:i]

    if len(three) == end and not w_ints.any():  # no nonzero int weight: a float token's int is 0
        w = w_values
    else:
        w = np.ones(end, dtype=w_ints.dtype)  # the default weight, an int
        w[three] = w_ints
        (w,) = _narrow(w)
        real = np.flatnonzero(w_values)  # the nonzero floats: an int token's float is 0.0
        if len(real):
            w = w.astype(object)
            w[three[real]] = w_values[real]
    a, b = np.minimum(u[:end], v[:end]), np.maximum(u[:end], v[:end])
    label = np.min_scalar_type(-n - 1)
    a, b = _narrow(a, b) if label == object else (a.astype(label), b.astype(label))
    return (lineno[:end], a, b, w), ((int(lineno[end]), error) if error else None)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Increasing ``keys`` as runs of consecutive values [start, stop)."""
    cut = np.flatnonzero(keys[1:] != keys[:-1] + 1) + 1
    return keys[np.append(0, cut)], keys[np.append(cut - 1, len(keys) - 1)] + 1


class _PairKeys:
    """The duplicate-pair check of one file, fed a block of pair keys at a time.

    While the keys increase, as in the files ``power`` writes, a block needs
    no sort and is kept as runs of consecutive keys (a run per row of a
    dense file).  From the first block on whose keys do not, the keys and
    their line numbers are kept and sorted once, by :meth:`check`.
    """

    def __init__(self):
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        self.keys: list[np.ndarray] = []
        self.lines: list[np.ndarray] = []

    def add(self, keys: np.ndarray, lines: np.ndarray) -> None:
        if not len(keys):
            return
        if not self.keys and (not self.runs or keys[0] >= self.runs[-1][1][-1]) and (keys[1:] > keys[:-1]).all():
            self.runs.append(_runs(keys))
        else:
            self.keys.append(keys)
            self.lines.append(lines)

    def check(self, n: int) -> None:
        """Raise the error of the first pair listed twice, if there is one."""
        if not self.keys:
            return
        keys, lines = np.concatenate(self.keys), np.concatenate(self.lines)
        repeated = np.ones(len(keys), dtype=bool)
        repeated[np.unique(keys, return_index=True)[1]] = False
        if self.runs:
            starts, stops = map(np.concatenate, zip(*self.runs))
            at = np.searchsorted(starts, keys, side="right") - 1
            repeated |= (at >= 0) & (keys < stops[at])
        if repeated.any():
            i = int(np.argmax(repeated))
            raise GraphFormatError("duplicate pair ({}, {})".format(*divmod(keys[i], n + 1)), int(lines[i]))


def _line_blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The text of ``chunks`` cut after the last line break of each chunk,
    ``"\\r\\n"`` kept whole, so that every block but the last ends a line."""
    pending: list[str] = []
    for chunk in chunks:
        found = _LAST_BREAK.match(chunk, 0, len(chunk) - chunk.endswith("\r"))
        if found:
            yield "".join([*pending, chunk[: found.end()]])
            pending, chunk = [], chunk[found.end() :]
        pending.append(chunk)
    tail = "".join(pending)
    if tail:
        yield tail


def _file_blocks(chunks: Iterable[str]) -> Iterator:
    """Parse a graph file given as chunks of text, a block of lines at a time.

    Yields the vertex count n, then per block the columns (u, v, w) of its
    pairs with a nonzero weight, as :func:`_edge_lines` makes them.  A
    :class:`GraphFormatError` names the first bad line in file order; it is
    raised when its block arrives, or, for a pair listed twice in a file
    whose pairs are not in increasing order, at its end.
    """
    n: int | None = None
    seen = _PairKeys()
    base = 0  # the lines before the block
    for block in _line_blocks(chunks):
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
            yield n
            # a key per pair, made from int64 labels (Python ints past int64):
            # the labels' own dtype holds n, not (n + 1)^2
            key = np.int64 if (n + 1) ** 2 < 2**63 else object
            line, first, fields = line[1:], first[1:], fields[1:]
        if n is not None:
            (lineno, a, b, w), error = _edge_lines(n, block, codes, base + line + 1, starts, ends, first, fields)
            seen.add(a.astype(key) * (n + 1) + b, lineno)
            if error is not None:
                seen.check(n)  # a repeated pair comes before the bad line
                raise GraphFormatError(error[1], error[0])
            nonzero = w != 0
            yield a[nonzero], b[nonzero], w[nonzero]
        base += breaks
    if n is None:
        raise GraphFormatError("empty input: missing vertex count")
    seen.check(n)


def parse_edges(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Parse the edge-list format into arrays (n, u, v, w).

    ``u <= v`` are the 1-based ends of each pair with a nonzero weight, in
    file order.  ``w`` keeps each weight's token type: int64 when every
    weight is an int (``object`` past int64), float64 when every weight is a
    float or there is none, and an ``object`` array of Python ints and floats
    when both occur.  A :class:`GraphFormatError` names the first bad line.
    """
    blocks = _file_blocks(text[i : i + _BLOCK_CHARS] for i in range(0, len(text), _BLOCK_CHARS))
    return (next(blocks), *_joined(blocks))


def read_blocks(handle: TextIO) -> Iterator:
    """n, then the (u, v, w) blocks of :func:`_file_blocks`, read from a text handle."""
    return _file_blocks(iter(lambda: handle.read(_BLOCK_CHARS), ""))


def _joined(blocks: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, w = zip(*blocks)
    w = [part for part in w if len(part)] or [np.empty(0)]
    if len({part.dtype for part in w}) > 1:
        w = [part.astype(object) for part in w]
    return (*_narrow(np.concatenate(a), np.concatenate(b)), np.concatenate(w))


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format into a graph."""
    n, u, v, w = parse_edges(text)
    return WeightedGraph(n, zip(u.tolist(), v.tolist(), w.tolist()))


def format_weight(w) -> str:
    """The text of a weight in an object array: ``str`` of an int (a numpy one too), an
    ``ExactWeight`` or a whole Fraction, else ``repr`` of the float; ``str.format`` writes int64
    and float64 weights alike."""
    if type(w) is float:  # the common case, ahead of the slower ABC checks below
        return repr(w)
    if isinstance(w, (bool, np.bool_)):
        raise TypeError("boolean weight")
    if isinstance(w, (int, np.integer, ExactWeight)):
        return str(w)  # a numpy int as its digits, an ExactWeight as its q*sqrt(r) token
    if isinstance(w, Fraction):
        return str(w) if w.denominator == 1 else repr(float(w))
    return repr(float(w))  # repr is the shortest round-trip decimal


# lines written at a time: one block's gather index takes a few MB
_WRITE_LINES = 1 << 12


def _text_table(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ASCII ``texts`` back to back as bytes, each one's offset and its length (int32).
    They are joined as one ``str`` and encoded once, so no text has a bytes object of its own."""
    lengths = np.fromiter(map(len, texts), dtype=np.int32, count=len(texts))
    table = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    return table, np.cumsum(lengths, dtype=np.int32) - lengths, lengths


def _pair_lines(blocks: Iterable[tuple], names: Sequence, first: str, second: str, weight: str) -> Iterator[str]:
    """The lines ``first.format(u) + second.format(v) + weight.format(x)`` of ``blocks``, ``_WRITE_LINES``
    at a time.  A block is (u, v, weights): ends indexing ``names``, and an ndarray, reduced to its distinct
    values x a chunk at a time (int64 and float64 as Python numbers, which ``str.format`` writes as ``str`` or
    ``repr``, other dtypes as ``format_weight`` texts), or (index, texts), written as they are.  Each chunk
    is gathered by one ``np.repeat`` index from a byte table of label and weight texts."""
    labels, label_at, label_size = _text_table([f.format(x) for f in (first, second) for x in names])
    table = labels
    for u, v, weights in blocks:
        for lo in range(0, len(u), _WRITE_LINES):
            hi = lo + _WRITE_LINES
            if isinstance(weights, tuple):
                w, texts = weights[0][lo:hi], weights[1] if lo == 0 else None
            elif weights.dtype in (np.int64, np.float64):  # by bit pattern
                bits, w = np.unique(weights[lo:hi].view(np.int64), return_inverse=True)
                texts = bits.view(weights.dtype).tolist()
            else:  # by (type, value) as Python values: 1 and 1.0 keep their own texts, 0.0 and -0.0 share one
                chunk = weights[lo:hi].tolist()
                keys = list(zip(map(type, chunk), chunk))
                ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
                w = np.fromiter(map(ids.__getitem__, keys), dtype=np.intp, count=len(keys))
                texts = [format_weight(x) for _, x in ids]
            if texts is not None:
                text, text_at, text_size = _text_table([weight.format(x) for x in texts])
                if len(table) < len(labels) + len(text):  # room for twice these texts
                    table = np.concatenate((labels, np.empty(2 * len(text), dtype=np.uint8)))
                table[len(labels) : len(labels) + len(text)] = text
            a, b = u[lo:hi], v[lo:hi] + len(names)  # the second label texts follow the first ones
            offset = np.stack((label_at[a], label_at[b], text_at[w] + len(labels)), axis=1).ravel()
            size = np.stack((label_size[a], label_size[b], text_size[w]), axis=1).ravel()
            at = np.cumsum(size, dtype=np.int32) - size  # each entry's place in the chunk's bytes
            gather = np.repeat(offset - at, size) + np.arange(at[-1] + size[-1], dtype=np.int32)
            yield table[gather].tobytes().decode()


def edge_text_blocks(n: int, blocks: Iterable[tuple], labels: Sequence) -> Iterator[str]:
    """The graph file of n vertices with the pairs of ``blocks`` (see :func:`_pair_lines`), named by ``labels``."""
    yield f"{n}\n"
    yield from _pair_lines(blocks, labels, "{} ", "{} ", "{}\n")


def write_edges(n: int, u, v, weights) -> str:
    """Render parallel 1-based endpoint arrays and their weights as a graph
    file: the blocks of :func:`edge_text_blocks` joined."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    labels, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
    labels, u, v = labels.tolist(), inverse[: len(u)], inverse[len(u) :]
    if not isinstance(weights, np.ndarray):  # an object array keeps each value's type
        weights = np.array(weights, dtype=object)
    return "".join(edge_text_blocks(n, [(u, v, weights)], labels))


def write_graph(graph: WeightedGraph) -> str:
    """Render a graph in the edge-list format (sorted pairs, deterministic)."""
    return write_edges(graph.n, *edge_arrays(graph))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: WeightedGraph) -> str:
    """Render an undirected DOT graph; loops are self-edges, weights are labels."""
    return "".join(dot_blocks(graph.n, [edge_arrays(graph)], graph.labels))


def dot_blocks(n: int, blocks: Iterable[tuple], labels: Sequence | None = None) -> Iterator[str]:
    """The DOT graph of n vertices, named by ``labels`` (by default their numbers), with weight w at
    each 1-based pair (u, v) of the blocks (u, v, w), ``_WRITE_LINES`` lines at a time, in (u, v)
    order whatever the blocks' order: the one writer that joins its blocks, and it does so first.
    No weight text needs escaping: ``format_weight`` writes no ``"`` or ``\\``.

    Before the first line, the label table of ``_pair_lines`` is charged against the size budget's
    bytes, as ``analysis.support_stats_blocks`` charges its counts: per vertex two texts of at most 8
    characters and n's digits, each a ``str``, its list pointer, its copies in the joined ``str`` and in
    the encoded table, and its int32 length and offset."""
    u, v, w = _joined(blocks)
    per_vertex = 2 * (sys.getsizeof("") + 8 + 3 * (8 + len(str(n))) + 4 + 4)
    _check_budget(f"the DOT labels of n={n} vertices", held=(n + 1) * per_vertex)
    yield "graph G {\n"
    for lo in range(0, n, _WRITE_LINES):
        names = range(lo + 1, min(lo + _WRITE_LINES, n) + 1)
        yield "".join(f"  {x} [label={_dot_quote(str(x) if labels is None else labels[x - 1])}];\n" for x in names)
    chunks = np.split(np.lexsort((v, u)), range(_WRITE_LINES, len(u), _WRITE_LINES))
    yield from _pair_lines(((u[at], v[at], w[at]) for at in chunks), range(n + 1), "  {} -- ", "{} [label=", '"{}"];\n')
    yield "}\n"


def stats_json(n: int, blocks: Iterable[tuple], wiener: bool = False, spectrum: bool = False) -> str:
    """The stats JSON of the n-vertex graph whose nonzero pairs come as blocks of 1-based (u, v, w)
    arrays, u <= v: the record of :func:`analysis.support_stats_blocks`, then ``spectrum`` when
    requested.  A flag keeps the blocks for the BFS (O(n^2) time on a path) and the eigensolver's
    matrix, and refuses past SYMTENSOR_MAX_N vertices after the last block, so that a bad line is
    named first; the counts charge their own arrays after the flag's checks."""
    if wiener or spectrum:
        blocks = list(blocks)
        if wiener:
            _check_budget(f"the Wiener index of n={n} vertices", n)
        if spectrum:
            _check_budget(f"matrix dimension {n}", n)
    stats = analysis.support_stats_blocks(n, blocks, wiener)
    if spectrum:
        stats["spectrum"] = list(eigenvalues_edges(n, blocks).values)
    return json.dumps(stats) + "\n"


def write_stats_json(graph: WeightedGraph, wiener: bool = False, spectrum: bool = False) -> str:
    """Summary statistics as JSON with a fixed key order:
    :func:`stats_json` of the graph's pairs."""
    return stats_json(graph.n, [edge_arrays(graph)], wiener, spectrum)
