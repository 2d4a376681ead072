import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgraph.fileio import (
    GraphFormatError,
    format_weight,
    parse_edges,
    parse_graph,
    write_dot,
    write_edges,
    write_graph,
    write_stats_json,
)
from symgraph.graphs import WeightedGraph, path, scepter
from symgraph.power import sym_power_graph


def test_parse_simple_path():
    assert parse_graph("3\n1 2\n2 3\n") == path(3)


def test_parse_scepter():
    assert parse_graph("2\n1 1 1\n1 2 1\n") == scepter()


def test_parse_comments_and_blanks():
    text = "# a path\n\n3  # vertex count\n1 2\n\n# middle\n2 3\n"
    assert parse_graph(text) == path(3)


def test_parse_duplicate_pair_rejected():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2 1\n2 1 1\n")
    assert "duplicate" in str(exc.value)
    assert exc.value.line == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2\nbogus line here extra\n")
    assert exc.value.line == 3
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 5\n")
    assert "out of range" in str(exc.value)
    with pytest.raises(GraphFormatError):
        parse_graph("3\n1 2 inf\n")
    with pytest.raises(GraphFormatError):
        parse_graph("3\n1 2 nan\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("0\n")
    with pytest.raises(GraphFormatError):
        parse_graph("two\n")


def test_parse_default_weight_and_zero():
    g = parse_graph("2\n1 2\n")
    assert g.weight(1, 2) == 1
    g0 = parse_graph("2\n1 2 0\n")
    assert g0.pair_count() == 0  # zero weight means no edge


def test_parse_edges_arrays():
    n, u, v, w = parse_edges("2\n2 1 3\n")
    assert n == 2
    assert [u.tolist(), v.tolist(), w.tolist()] == [[1], [2], [3]]  # canonicalized order
    assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64, np.int64)
    assert type(w.tolist()[0]) is int


def test_parse_edges_keeps_file_order_and_drops_zero_weights():
    n, u, v, w = parse_edges("4\n3 4 0.5\n2 1\n1 1 0\n4 2 7\n")
    assert n == 4
    assert list(zip(u.tolist(), v.tolist(), w.tolist())) == [(3, 4, 0.5), (1, 2, 1), (2, 4, 7)]
    assert w.dtype == object  # ints and floats both occur
    assert [type(x) for x in w.tolist()] == [float, int, int]
    _, _, _, floats = parse_edges("2\n1 2 0.5\n1 1 2.0\n")
    assert floats.dtype == np.float64
    _, _, _, huge = parse_edges(f"2\n1 2 {10**30}\n")
    assert huge.dtype == object and huge.tolist() == [10**30]


def test_parse_dtypes_when_a_label_or_a_weight_passes_int64():
    # a label past int64 makes both label arrays objects and leaves the
    # weights alone, and a weight past int64 leaves the labels alone
    big = 10**20
    _, u, v, w = parse_edges(f"{10**23}\n{big} 1\n")
    assert (u.dtype, v.dtype, w.dtype) == (object, object, np.int64)
    assert (u.tolist(), v.tolist(), w.tolist()) == ([1], [big], [1])
    _, u, v, w = parse_edges(f"3\n1 2 {big}\n2 3\n")
    assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64, object)
    assert w.tolist() == [big, 1]


def _reference_parse(text):
    """The format read one line at a time, checks in the format's order: an
    independent reading of the rules.  Returns ("error", line, message part)
    for the first bad line, else ("ok", n, [(u, v, w) with u <= v, w != 0],
    the dtype of w): float64 when no weight is kept or every kept one is a
    float, int64 when none is and every int fits int64, else object."""
    n = None
    seen = set()
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if n is None:
            n = int(fields[0])
            continue
        if len(fields) not in (2, 3):
            return "error", lineno, "expected"
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            return "error", lineno, "bad vertex pair"
        if not (1 <= u <= n and 1 <= v <= n):
            return "error", lineno, "out of range"
        w = 1
        if len(fields) == 3:
            try:
                w = int(fields[2])
            except ValueError:
                try:
                    w = float(fields[2])
                except ValueError:
                    return "error", lineno, "bad weight"
                if not math.isfinite(w):
                    return "error", lineno, "must be finite"
        key = (min(u, v), max(u, v))
        if key in seen:
            return "error", lineno, "duplicate"
        seen.add(key)
        if w != 0:
            records.append((*key, w))
    weights = [w for _, _, w in records]
    if all(type(w) is float for w in weights):
        dtype = np.dtype(np.float64)
    elif not any(type(w) is float for w in weights) and all(-(2**63) <= w < 2**63 for w in weights):
        dtype = np.dtype(np.int64)
    else:
        dtype = np.dtype(object)
    return "ok", n, records, dtype


def _parsed(text):
    try:
        n, u, v, w = parse_edges(text)
    except GraphFormatError as exc:
        return "error", exc.line, str(exc)
    return "ok", n, list(zip(u.tolist(), v.tolist(), w.tolist())), w.dtype


def _agrees(got, want):
    if got[0] == "error":
        return want[0] == "error" and got[1] == want[1] and want[2] in got[2]
    return got == want and [type(r[2]) for r in got[2]] == [type(r[2]) for r in want[2]]


BAD_LINES = ["1 2 3 4", "1", "x 2", "1 y", "1 9", "0 1", "1 2 w", "1 2 inf", "1 2 nan", "2 3"]


def test_parse_reports_the_first_bad_line():
    # every pair of bad lines 4 and 5, whichever checks each one fails
    for fourth in BAD_LINES:
        for fifth in BAD_LINES:
            text = f"3\n2 3\n# note\n{fourth}\n{fifth}\n"
            want = _reference_parse(text)
            assert want[1] == 4
            assert _agrees(_parsed(text), want)


GOOD_LINES = ["1 2", "2 1 3", "3 3 0.5", "1 4 -2", "2 4 0", "4 4 1e-3", "3 4 +7", "1 3 2_0",
              "1 1 -0.0", "2 3 ٣", "1 2 5 # trailing", f"2 2 {2**63}"]
NOISE = ["", "   ", "# comment", "\t# tab comment"]


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_parse_matches_a_line_by_line_reading_in_any_block_size(monkeypatch, block):
    # block boundaries must change nothing: not the values, their types, the
    # dtype of w, the duplicate check across blocks nor the line an error names
    from symgraph import fileio

    if block is not None:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", block)
    rng = random.Random(1729)
    for _ in range(300):
        lines = [rng.choice(NOISE) for _ in range(rng.randint(0, 3))] + ["4 # vertices"]
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.75:
                lines.append(rng.choice(GOOD_LINES))
            elif roll < 0.9:
                lines.append(rng.choice(NOISE))
            else:
                lines.append(rng.choice(BAD_LINES))
        newline = rng.choice(["\n", "\r\n"])
        text = newline.join(lines) + rng.choice(["", newline])
        assert _agrees(_parsed(text), _reference_parse(text)), text


def _arrays_or_error(parse, source):
    try:
        n, u, v, w = parse(source)
    except GraphFormatError as exc:
        return str(exc)
    return n, u.tolist(), v.tolist(), w.tolist(), w.dtype


@pytest.mark.parametrize("block", [1, 7, None])
def test_read_blocks_from_a_handle_equals_parse_edges(monkeypatch, block):
    import io

    from symgraph import fileio

    def read_joined(handle):
        """The blocks that every command reads from a handle, joined as parse_edges joins a text's."""
        blocks = fileio.read_blocks(handle)
        return (next(blocks), *fileio._joined(blocks))

    if block is not None:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", block)
    rng = random.Random(4099)
    for _ in range(200):
        lines = ["# a graph", "4"] + [rng.choice(GOOD_LINES + NOISE + BAD_LINES) for _ in range(rng.randint(0, 8))]
        text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
        handle = io.StringIO(text, newline="")
        assert _arrays_or_error(read_joined, handle) == _arrays_or_error(parse_edges, text), text


# every line break str.splitlines() knows, and whitespace that is not one
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
WIDE_LINES = ["\u0661 \u0662", "\u0662 \u0663 \u0661\u0660", "1 3 " + "1" * 18, "2 2 " + "9" * 19,
              "1 4 -" + "9" * 19, "3 3 " + "0" * 4999 + "7", "4 1 " + "1" * 5000, "1 1 " + "1" * 19]


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_parse_matches_a_line_by_line_reading_with_any_separator(monkeypatch, block):
    # line breaks besides "\n", whitespace past ASCII, non-ASCII digits and
    # int tokens of 18, 19 and 5,000 digits
    from symgraph import fileio

    if block is not None:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", block)
    rng = random.Random(4099)
    for _ in range(300):
        lines = [rng.choice(NOISE) for _ in range(rng.randint(0, 2))] + ["4 # vertices"]
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.55:
                lines.append(rng.choice(GOOD_LINES))
            elif roll < 0.75:
                lines.append(rng.choice(WIDE_LINES))
            elif roll < 0.9:
                lines.append(rng.choice(NOISE))
            else:
                lines.append(rng.choice(BAD_LINES))
        lines = [line.replace(" ", rng.choice(SPACES)) for line in lines]
        text = "".join(line + rng.choice(SEPARATORS) for line in lines)
        if rng.random() < 0.3:
            text = text[:-1]
        assert _agrees(_parsed(text), _reference_parse(text)), repr(text)


def test_parse_rejects_a_leading_byte_order_mark():
    # U+FEFF is not whitespace: it is part of the first token
    cases = {
        "\ufeff3\n1 2\n": "line 1: bad vertex count '\\ufeff3'",
        "\ufeff\n3\n1 2\n": "line 1: bad vertex count '\\ufeff'",
        "\ufeff 3\n1 2\n": "line 1: expected the vertex count alone on the first line",
    }
    for text, message in cases.items():
        with pytest.raises(GraphFormatError) as exc:
            parse_edges(text)
        assert str(exc.value) == message


def test_parse_whitespace_and_line_breaks_are_those_of_str():
    from symgraph import fileio

    spaces = {c for c in range(0x110000) if chr(c).isspace()}
    breaks = {c for c in spaces if len(f"a{chr(c)}b".splitlines()) == 2}
    assert set(fileio._BREAKS) == breaks
    assert set(fileio._SPACES) == spaces - breaks


def test_parse_keeps_values_when_every_token_hash_collides(monkeypatch):
    # with one hash for every token, only the byte check keeps tokens apart
    from symgraph import fileio

    text = "5\n1 2 0.5\n2 3 0.25\n3 4 0.5\n4 5 -3\n5 5 1e2\n1 1 +7\n1 3 0.25\n2 2 -3\n"
    want = _parsed(text)
    monkeypatch.setattr(fileio, "_HASH_MIX", np.zeros_like(fileio._HASH_MIX))
    assert _parsed(text) == want
    assert want == ("ok", 5, [(1, 2, 0.5), (2, 3, 0.25), (3, 4, 0.5), (4, 5, -3), (5, 5, 100.0),
                              (1, 1, 7), (1, 3, 0.25), (2, 2, -3)], object)


def test_parse_converts_each_distinct_token_once(monkeypatch):
    # the labels are summed as digits, never converted; the 820 weights,
    # of two texts, take one conversion per text
    from symgraph import fileio

    pairs = [(u, v) for u in range(1, 41) for v in range(u, 41)]
    text = "40\n" + "".join(f"{u} {v} {('0.5', '0.25')[(u + v) % 2]}\n" for u, v in pairs)
    assert len(pairs) == 820 and len(text) < fileio._BLOCK_CHARS
    calls = []
    read = fileio._read
    monkeypatch.setattr(fileio, "_read", lambda token: calls.append(token) or read(token))
    n, u, v, w = parse_edges(text)
    assert sorted(calls) == ["0.25", "0.5"]
    assert (n, len(w), set(w.tolist())) == (40, 820, {0.5, 0.25})


@pytest.mark.parametrize("size", [1, 7, None])
def test_power_file_round_trips_in_any_block_size(monkeypatch, size):
    from symgraph import fileio
    from symgraph.graphs import complete_loops
    from symgraph.power import sym_power

    if size is not None:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", size)
        monkeypatch.setattr(fileio, "_WRITE_LINES", size)
    power = sym_power(complete_loops(6), 4)
    pu, pv, weights = map(np.concatenate, zip(*power.upper_blocks()))
    text = write_edges(power.dim, pu, pv, weights)
    lines = zip(pu.tolist(), pv.tolist(), weights.tolist())
    assert text == f"{power.dim}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in lines)
    n, u, v, w = parse_edges(text)
    assert n == power.dim
    assert np.array_equal(u, pu) and np.array_equal(v, pv)
    assert w.dtype == np.float64 and np.array_equal(w.view(np.int64), weights.view(np.int64))


def test_parse_line_four_fails_before_line_five_fails_differently():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2\n2 3\n1 2 bogus\n1 2 3 4\n")
    assert exc.value.line == 4
    assert str(exc.value) == "line 4: bad weight 'bogus'"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2\n2 3\n3 7\nx y\n")
    assert str(exc.value) == "line 4: vertex pair (3, 7) out of range 1..3"
    # within one line the checks keep their order: range before weight
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2\n2 3\n3 7 nan\n")
    assert "out of range" in str(exc.value)


def test_parse_error_messages_are_unchanged():
    cases = {
        "3\n1 2\n1 2 3 4\n": "line 3: expected 'u v [w]', got '1 2 3 4'",
        "3\n1 2 # c\n1 2 3 4 # c\n": "line 3: expected 'u v [w]', got '1 2 3 4'",
        "3\nx 2\n": "line 2: bad vertex pair 'x' '2'",
        "3\n1 5\n": "line 2: vertex pair (1, 5) out of range 1..3",
        "3\n1 2 w\n": "line 2: bad weight 'w'",
        "3\n1 2 -inf\n": "line 2: weight must be finite, got '-inf'",
        "3\n1 2 1e400\n": "line 2: weight must be finite, got '1e400'",
        "3\n2 1\n1 2\n": "line 3: duplicate pair (1, 2)",
        "\n# x\n3 3\n": "line 3: expected the vertex count alone on the first line",
        "three\n": "line 1: bad vertex count 'three'",
        "0\n": "line 1: vertex count must be >= 1, got 0",
        "# only a comment\n": "empty input: missing vertex count",
    }
    for text, message in cases.items():
        with pytest.raises(GraphFormatError) as exc:
            parse_edges(text)
        assert str(exc.value) == message


def test_parse_crlf_tabs_and_trailing_comments():
    text = "3\r\n1\t2\t0.5 # half\r\n2 3\t2# two\r\n"
    g = parse_graph(text)
    assert g == WeightedGraph(3, {(1, 2): 0.5, (2, 3): 2})
    assert type(g.weight(2, 3)) is int


def test_parse_weight_token_types():
    g = parse_graph("4\n1 2 +3\n2 3 1_0\n")
    assert [type(w) for _, _, w in g.edges()] == [int, int]
    assert [w for _, _, w in g.edges()] == [3, 10]
    assert g.is_rational
    for token, value in (("1.0", 1.0), ("1e3", 1000.0)):
        g = parse_graph(f"2\n1 2 {token}\n")
        assert type(g.weight(1, 2)) is float and g.weight(1, 2) == value
        assert not g.is_rational


def test_parse_weight_past_the_int_digit_limit_reads_as_float():
    # int() refuses digit strings past sys.get_int_max_str_digits() (where the
    # interpreter has that limit); float() then reads the token
    long_one = "0" * 5000 + "1"
    long_big = "1" * 5000
    for text in (f"3\n1 2 {long_one}\n2 3 4\n", f"3\n1 2 {long_big}\n2 3 4\n",
                 f"3\n1 2 7\n2 3 {long_one}\n1 3 {long_big}\n1 1 0.5\n"):
        assert _agrees(_parsed(text), _reference_parse(text))


def test_parse_zero_weight_repeat_is_a_duplicate():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2 0\n2 1 0\n")
    assert exc.value.line == 3 and "duplicate pair (1, 2)" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3\n1 2 5\n2 1 0.0\n")
    assert exc.value.line == 3


def test_pair_keys_do_not_wrap_in_the_labels_dtype():
    # with n=20 the labels fit int8, where the keys 1*21+9 = 30 and
    # 13*21+13 = 286 agree mod 256; the pairs are distinct, and a repeat is
    # named by its own pair
    n, u, v, _ = parse_edges("20\n13 13\n1 9\n20 20\n")
    assert (u.tolist(), v.tolist()) == ([13, 1, 20], [13, 9, 20])
    with pytest.raises(GraphFormatError) as exc:
        parse_edges("20\n20 20\n1 9\n13 13\n20 20\n")
    assert exc.value.line == 5 and "duplicate pair (20, 20)" in str(exc.value)


def _reference_weight(token):
    try:
        return int(token)
    except ValueError:
        return float(token)


@given(st.lists(st.text(alphabet="0123456789+-_.eEinfaINFAxy\u0663", min_size=1, max_size=6),
                min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_parse_weight_tokens_match_int_then_float(tokens):
    text = "9\n" + "".join(f"1 {i + 1} {t}\n" for i, t in enumerate(tokens))
    want = []
    error_line = None
    for i, token in enumerate(tokens):
        try:
            w = _reference_weight(token)
        except ValueError:
            error_line = i + 2
            break
        if isinstance(w, float) and not math.isfinite(w):
            error_line = i + 2
            break
        want.append(w)
    if error_line is not None:
        with pytest.raises(GraphFormatError) as exc:
            parse_edges(text)
        assert exc.value.line == error_line
        return
    _, u, v, w = parse_edges(text)
    got = dict(zip(v.tolist(), w.tolist()))
    expected = {i + 1: x for i, x in enumerate(want) if x != 0}
    assert got == expected
    assert [type(x) for x in got.values()] == [type(x) for x in expected.values()]


def test_write_then_parse_round_trip_exact_ints():
    g = path(4)
    assert parse_graph(write_graph(g)) == g


def test_round_trip_random_graphs():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 8)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                roll = rng.random()
                if roll < 0.3:
                    weights[(u, v)] = rng.randint(-9, 9) or 1
                elif roll < 0.5:
                    weights[(u, v)] = rng.uniform(-5, 5)
        g = WeightedGraph(n, weights)
        assert parse_graph(write_graph(g)) == g


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=300, deadline=None)
def test_weight_formatting_round_trips(w):
    assert float(format_weight(w)) == w


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and signed zeros
    st.floats(min_value=9e15, max_value=2e16),  # repr turns to an exponent at 1e16
    st.floats(min_value=9e-5, max_value=2e-4),  # and below 1e-4
)


@given(st.lists(FINITE, max_size=6).flatmap(lambda ws: st.permutations(ws + ws[:2])))
@example([0.0, -0.0, 1.5, -0.0, 5e-324, 1e16, 1e-4])
@settings(max_examples=500, deadline=None)
def test_write_edges_formats_float_arrays_like_format_weight(weights):
    # repeated values and both zeros included: each line keeps its own text
    ones = np.ones(len(weights), dtype=np.int64)
    want = "1\n" + "".join(f"1 1 {format_weight(w)}\n" for w in weights)
    assert write_edges(1, ones, ones, np.array(weights, dtype=np.float64)) == want


@pytest.mark.parametrize("text", [
    "3\n1 2 5\n2 3 1\n",  # int64
    f"3\n1 2 {2**70}\n2 3 -1\n",  # past int64
    "3\n1 2 5\n2 3 0.5\n",  # ints and floats
    "3\n1 1 0.5\n2 3 1e+300\n",  # floats
])
def test_write_edges_reproduces_the_tokens_of_parsed_arrays(text):
    assert write_edges(*parse_edges(text)) == text



def test_write_edges_keeps_each_weight_type_through_the_distinct_step():
    # a list is not read as a float array, so 1 stays 1
    assert write_edges(2, [1, 1], [1, 2], [1, 2.5]) == "2\n1 1 1\n1 2 2.5\n"
    weights = [1, 1.0, Fraction(1, 2), 10**30, 1, Fraction(2, 2), 1.0, True]
    ones = np.ones(len(weights) - 1, dtype=np.int64)
    objects = np.array(weights[:-1], dtype=object)
    want = "1\n" + "".join(f"1 1 {format_weight(w)}\n" for w in weights[:-1])
    assert want == "1\n1 1 1\n1 1 1.0\n1 1 0.5\n1 1 " + str(10**30) + "\n1 1 1\n1 1 1\n1 1 1.0\n"
    assert write_edges(1, ones, ones, objects) == want
    assert write_edges(1, ones, ones, weights[:-1]) == want
    with pytest.raises(TypeError):  # a bool is no weight, among ints too
        write_edges(1, [1, 1], [1, 1], [1, True])


def test_numpy_int_weights_are_written_as_ints():
    # numpy ints in an object column parse back as ints, and a numpy bool is no weight
    weights = [np.int8(-3), np.int64(2**62), np.uint64(2**64 - 1)]
    text = write_edges(3, [1, 1, 2], [1, 2, 3], weights)
    assert text == f"3\n1 1 -3\n1 2 {2**62}\n2 3 {2**64 - 1}\n"
    n, u, v, w = parse_edges(text)
    assert w.dtype == object and w.tolist() == [-3, 2**62, 2**64 - 1]
    assert all(type(x) is int for x in w.tolist())
    assert write_edges(2, [1], [2], [np.int64(3)]) == "2\n1 2 3\n"
    assert parse_edges("2\n1 2 3\n")[3].dtype == np.int64
    with pytest.raises(TypeError):
        write_edges(2, [1], [2], [np.True_])


def test_write_graph_deterministic():
    g = WeightedGraph(3, {(2, 3): 1, (1, 2): 2.5})
    out = write_graph(g)
    assert out == "3\n1 2 2.5\n2 3 1\n"
    assert write_graph(parse_graph(out)) == out
    assert write_graph(WeightedGraph(2, {(1, 2): Fraction(1, 4), (1, 1): 2**70})) == f"2\n1 1 {2**70}\n1 2 0.25\n"
    assert write_graph(WeightedGraph(2)) == "2\n"


def test_dot_output():
    dot = write_dot(path(3))
    assert dot.startswith("graph G {")
    assert dot.count("--") == 2
    assert '1 [label="1"];' in dot
    loopy = write_dot(scepter())
    assert "1 -- 1" in loopy


def test_dot_uses_graph_labels():
    g = sym_power_graph(path(3), 2)
    dot = write_dot(g)
    assert '[label="1,2"]' in dot


def test_stats_json_schema_and_order():
    g = sym_power_graph(path(3), 2)
    blob = write_stats_json(g)
    stats = json.loads(blob)
    assert list(stats.keys()) == ["n", "edges", "loops", "components", "degrees", "wiener"]
    assert stats["n"] == 6
    assert stats["edges"] == 6
    assert stats["loops"] == 2
    assert stats["components"] == 2
    assert len(stats["degrees"]) == 6
    assert stats["wiener"] is None


def test_stats_json_wiener_and_spectrum():
    stats = json.loads(write_stats_json(path(3), wiener=True, spectrum=True))
    assert list(stats.keys()) == ["n", "edges", "loops", "components", "degrees", "wiener", "spectrum"]
    assert stats["wiener"] == 4
    assert stats["spectrum"][0] == pytest.approx(-math.sqrt(2))
    # disconnected graph: wiener stays null even when requested
    g = WeightedGraph(4, {(1, 2): 1, (3, 4): 1})
    assert json.loads(write_stats_json(g, wiener=True))["wiener"] is None
