import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symgraph.cli
import symgraph.fileio
import symgraph.power
from symgraph.cli import main
from symgraph.fileio import parse_graph, write_stats_json
from symgraph.graphs import WeightedGraph, edge_arrays, path
from symgraph.power import sym_power
from symgraph.verify import run_suites


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_family_to_stdout(capsys):
    code, out, _ = run_cli(capsys, ["family", "path", "3"])
    assert code == 0
    assert out == "3\n1 2 1\n2 3 1\n"


def test_family_to_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, ["family", "cycle", "4", "-o", str(target)])
    assert code == 0 and out == ""
    assert parse_graph(target.read_text()).n == 4


def test_family_bad_params(capsys):
    code, _, err = run_cli(capsys, ["family", "cycle", "2"])
    assert code == 2
    assert "cycle" in err


def test_pipeline_family_power_stats(capsys, monkeypatch):
    code, graph_text, _ = run_cli(capsys, ["family", "path", "3"])
    assert code == 0
    code, power_text, _ = run_cli(capsys, ["power", "-k", "2"], stdin=graph_text, monkeypatch=monkeypatch)
    assert code == 0
    code, stats_text, _ = run_cli(capsys, ["stats"], stdin=power_text, monkeypatch=monkeypatch)
    assert code == 0
    stats = json.loads(stats_text)
    assert stats["components"] == 2
    assert stats["edges"] == 6
    assert stats["loops"] == 2


@pytest.mark.parametrize("weight", ["1", "0.3"])
def test_pipeline_float_weights_add_no_edges(capsys, monkeypatch, weight):
    graph_text = "5\n" + "".join(f"{v} {v + 1} {weight}\n" for v in range(1, 5))
    code, power_text, _ = run_cli(capsys, ["power", "-k", "3"], stdin=graph_text, monkeypatch=monkeypatch)
    assert code == 0
    code, stats_text, _ = run_cli(capsys, ["stats"], stdin=power_text, monkeypatch=monkeypatch)
    assert code == 0
    stats = json.loads(stats_text)
    assert stats["components"] == 2
    assert stats["edges"] == 60


def test_power_from_file_deterministic(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n2 3\n")
    code, first, _ = run_cli(capsys, ["power", "-k", "2", str(source)])
    assert code == 0
    code, second, _ = run_cli(capsys, ["power", "-k", "2", str(source)])
    assert first == second
    g = parse_graph(first)
    assert g.n == 6
    assert g.pair_count() == 6


def test_power_orders_differ(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n2 3\n")
    _, paper_out, _ = run_cli(capsys, ["power", "-k", "2", "--order", "paper", str(source)])
    _, lex_out, _ = run_cli(capsys, ["power", "-k", "2", "--order", "lex", str(source)])
    assert paper_out != lex_out
    assert parse_graph(paper_out).pair_count() == parse_graph(lex_out).pair_count()


def test_power_methods_agree(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("2\n1 1 1\n1 2 1\n")
    _, orbit_out, _ = run_cli(capsys, ["power", "-k", "3", "--method", "orbit", str(source)])
    _, perm_out, _ = run_cli(capsys, ["power", "-k", "3", "--method", "permanent", str(source)])
    assert orbit_out == perm_out


def test_power_exact_tokens(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, ["power", "-k", "2", "--exact", str(source)])
    assert code == 0
    assert "sqrt(2)" in out
    weights = {line.split()[2] for line in out.splitlines()[1:]}
    assert weights == {"1", "sqrt(2)"}


def test_power_exact_rejects_float_graph(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("2\n1 2 0.5\n")
    code, _, err = run_cli(capsys, ["power", "-k", "2", "--exact", str(source)])
    assert code == 2
    assert "rational" in err


def test_power_exact_writes_weights_past_the_float_range(tmp_path, capsys):
    # (10^160)^2 has no float64: --exact never converts the core to floats
    source = tmp_path / "in.txt"
    source.write_text(f"2\n1 2 {10**160}\n")
    code, out, err = run_cli(capsys, ["power", "-k", "2", "--exact", str(source)])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split() == ["1", "2", f"{10**320}"]
    # without --exact the float weights refuse before the first byte
    code, out, err = run_cli(capsys, ["power", "-k", "2", str(source)])
    assert (code, out) == (2, "") and "float64 range" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy must not warn before the error line
def test_float_power_past_the_float_range_exits_2_before_writing(capsys, monkeypatch):
    # (1e308)^2 is inf in float64: the file said "1 2 inf", which stats refused
    code, out, err = run_cli(capsys, ["power", "-k", "2"], "2\n1 2 1e308\n", monkeypatch)
    assert (code, out) == (2, "") and "float64 range" in err
    with pytest.raises(ValueError, match="float64 range"):
        sym_power(WeightedGraph(2, {(1, 2): 1e308}), 2).upper_blocks()
    # a float core that stays finite still writes
    code, out, _ = run_cli(capsys, ["power", "-k", "2"], "2\n1 2 1e150\n", monkeypatch)
    assert code == 0 and "inf" not in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_power_below_the_float_range_writes_no_pair(capsys, monkeypatch):
    # every entry of the k=2 power is 1e-400 exactly, below the least
    # subnormal: the float power underflows to the edgeless graph on N=3,
    # with exit 0 and no error line (a certified support would decide these
    # entries exactly)
    assert run_cli(capsys, ["power", "-k", "2"], "2\n1 2 1e-200\n", monkeypatch) == (0, "3\n", "")


def test_verify_nmax_below_two_usage_error(capsys):
    # the suites draw n from randint(2, nmax), which leaked "empty range" at 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "wiener", "--nmax", "1"])
    assert exc.value.code == 2
    assert "--nmax must be >= 2" in capsys.readouterr().err


def test_power_k_zero_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["power", "-k", "0"])
    assert exc.value.code == 2


def test_spectrum_output(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("2\n1 1 1\n1 2 1\n")
    code, out, _ = run_cli(capsys, ["spectrum", str(source)])
    assert code == 0
    values = [float(line) for line in out.splitlines()]
    assert values == sorted(values)
    assert values[0] == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-12)
    assert values[1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_stats_flags(tmp_path, capsys, monkeypatch):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, ["stats", "--wiener", "--spectrum", str(source)])
    stats = json.loads(out)
    assert stats["wiener"] == 4
    assert len(stats["spectrum"]) == 3
    # past the budget, a flag still names a bad line first: a malformed one,
    # and a pair repeated in a file out of order, which shows only at its
    # end; and it refuses a vertex count past memory before the counts
    # take O(n) memory; spectrum, which holds the same blocks, too, and
    # power and dot, which read the whole file before their budgets
    monkeypatch.setenv("SYMTENSOR_MAX_N", "3")
    n = 10**17
    refusals = {"power": f"multiset_count(n={n}, k=2) = {n * (n + 1) // 2} exceeds the supported limit 2**63\n",
                # two label texts a vertex, of up to 26 characters at 18 digits: 286 bytes
                "dot": f"the DOT labels of n={n} vertices would take about {(n + 1) * 286:,} bytes, more than the 72 "
                       "of an int64 core at the budget 3; raise SYMTENSOR_MAX_N to override\n"}
    for argv in (["stats", "--wiener"], ["stats", "--spectrum"], ["stats", "--wiener", "--spectrum"], ["spectrum"],
                 ["power", "-k", "2"], ["dot"]):
        for text, err in (("4\n1 2\n2 3\n3 4\n1 x\n", "line 5: bad vertex pair '1' 'x'"),
                          ("4\n3 4\n1 2\n2 3\n2 1\n", "line 5: duplicate pair (1, 2)")):
            assert run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch) == (2, "", f"error: {err}\n")
        what = f"the Wiener index of n={n} vertices" if "--wiener" in argv else f"matrix dimension {n}"
        err = "error: " + refusals.get(argv[0], f"{what} exceeds the budget 3; raise SYMTENSOR_MAX_N to override\n")
        assert run_cli(capsys, argv, stdin=f"{n}\n1 2\n", monkeypatch=monkeypatch) == (2, "", err), argv


def test_dot_command(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, ["dot", str(source)])
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count("--") == 2


def test_parse_error_exit_code(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2 1\n2 1 1\n")
    code, _, err = run_cli(capsys, ["stats", str(source)])
    assert code == 2
    assert "duplicate" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, ["stats", "/nonexistent/graph.txt"])
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [["family", "path", "3", "-o"], ["power", "-k", "2", "-o"], ["stats"]],
                         ids=" ".join)
def test_an_io_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # a directory where a file belongs: exit 1 is kept for a failed verification
    code, out, err = run_cli(capsys, [*argv, str(tmp_path)], stdin="3\n1 2\n2 3\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_failed_verification_exits_1_with_its_fail_line(capsys, monkeypatch):
    import symgraph.verify
    from symgraph.verify import SuiteResult

    def failing_suite(**kwargs):
        result = SuiteResult("wiener")
        result.check("complete(3,2)", 6, 7)
        return result

    monkeypatch.setattr(symgraph.verify, "suite_wiener", failing_suite)
    code, out, err = run_cli(capsys, ["verify", "--suite", "wiener"])
    assert (code, err) == (1, "")
    fail, status = out.splitlines()
    assert fail == "FAIL wiener complete(3,2) 6 7"
    assert re.fullmatch(r"FAILED wiener: 1 checks, 1 failures, \d+\.\d\d s", status), status


def test_a_closed_pipe_exits_0_with_no_error(capsys, monkeypatch):
    import sys

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["family", "path", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_orbit_past_the_ordered_table_cap_exit_code(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("2\n1 2 1\n")
    code, out, err = run_cli(capsys, ["power", "-k", "21", "--method", "orbit", str(source)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "ordered tuples" in err


def test_size_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMTENSOR_MAX_N", "5")
    source = tmp_path / "in.txt"
    source.write_text("3\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, ["power", "-k", "2", str(source)])
    assert code == 2
    assert "SYMTENSOR_MAX_N" in err


def test_verify_cli_small_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "wiener", "--nmax", "4"])
    assert code == 0
    assert "REPORT wiener" in out
    assert "ok wiener" in out


# every REPORT line of the two suites that report, at their default budgets: the degrees
# suite counts its squares' edges with analysis.support_stats_blocks
REPORT_LINES = {
    "degrees": ["REPORT degrees printed_lower_edge_bound_violated n=6 edges=14 bound=196 actual=177"],
    "wiener": [
        "REPORT wiener readings: oracle is authoritative; closed forms as printed",
        *(f"REPORT wiener complete n={n} k={k} oracle={oracle} statement={oracle} proof={proof} matches=statement"
          for n, k, oracle, proof in [
              (3, 1, 3, 18), (3, 2, 21, 42), (3, 3, 63, 81),
              (4, 1, 6, 62), (4, 2, 57, 181), (4, 3, 238, 454),
              (5, 1, 10, 145), (5, 2, 125, 520), (5, 3, 695, 1620),
              (6, 1, 15, 279), (6, 2, 240, 1194), (6, 3, 1720, 4474),
          ]),
        "REPORT wiener cycle_square n=3 oracle=21 statement=21 blocks=21 matches=statement,blocks",
        "REPORT wiener cycle_square n=5 oracle=235 statement=235 blocks=235 matches=statement,blocks",
    ],
}


@pytest.mark.parametrize("suite", REPORT_LINES)
def test_verify_prints_the_report_lines_of_its_suite(capsys, suite):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite])
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("REPORT")] == REPORT_LINES[suite]


def test_verify_cli_spectra_seeded(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "spectra", "--nmax", "4", "--kmax", "2", "--seed", "7"])
    assert code == 0
    assert "ok spectra" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2


def test_importing_the_cli_leaves_the_verify_module_out():
    # only the verify command needs symgraph.verify, so no other command's
    # start-up pays for importing it
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(symgraph.cli.__file__).parents[1]))
    code = "import sys, symgraph.cli; print('symgraph.verify' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--frobnicate"])
    assert exc.value.code == 2


def test_cli_outputs_are_parseable_by_library(capsys):
    code, out, _ = run_cli(capsys, ["family", "complete_bipartite", "2", "2"])
    assert code == 0
    g = parse_graph(out)
    assert g.pair_count() == 4
    assert g == parse_graph(out)


def test_family_scepter_no_params(capsys):
    code, out, _ = run_cli(capsys, ["family", "scepter"])
    assert code == 0
    assert out == "2\n1 1 1\n1 2 1\n"


def test_stats_reads_stdin_by_default(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["stats"], stdin="2\n1 2\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_spectrum_of_piped_power_matches_products(capsys, monkeypatch):
    # the power survives the decimal file format well enough for the
    # inherited-spectrum law to hold at 1e-8
    _, graph_text, _ = run_cli(capsys, ["family", "path", "3"])
    _, power_text, _ = run_cli(capsys, ["power", "-k", "2"], stdin=graph_text, monkeypatch=monkeypatch)
    code, out, _ = run_cli(capsys, ["spectrum"], stdin=power_text, monkeypatch=monkeypatch)
    assert code == 0
    got = [float(line) for line in out.splitlines()]
    base = [-math.sqrt(2), 0.0, math.sqrt(2)]
    want = sorted(x * y for i, x in enumerate(base) for y in base[i:])
    assert got == pytest.approx(want, abs=1e-8)


# -- power output bytes --------------------------------------------------------

RATIONAL = WeightedGraph(4, {(1, 1): Fraction(1, 3), (1, 2): Fraction(-2, 5), (2, 3): 1, (3, 4): Fraction(7, 2)})
SIGNED_TEXT = "5\n1 1 2\n1 2 -1\n2 3 3\n3 3 -2\n4 5 1\n"
FLOAT_TEXT = "4\n1 2 0.3\n2 2 -1.7\n2 3 2.5e-3\n3 4 1e16\n"


def _rendered(power, weight):
    """The power file built entry by entry over all pairs with row <= col."""
    lines = [str(power.dim)]
    for i in range(power.dim):
        for j in range(i, power.dim):
            w = weight(power, i, j)
            if w:
                lines.append(f"{i + 1} {j + 1} {w!r}" if isinstance(w, float) else f"{i + 1} {j + 1} {w}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["rational", "signed", "float"])
def test_power_output_bytes_match_entries(capsys, monkeypatch, source):
    if source == "rational":
        graph = RATIONAL  # no graph file holds a Fraction: hand the graph's arrays to the command as one block
        monkeypatch.setattr(symgraph.cli, "read_blocks", lambda handle: [graph.n, edge_arrays(graph)])
        stdin = None
    else:
        stdin = SIGNED_TEXT if source == "signed" else FLOAT_TEXT
        graph = parse_graph(stdin)
    power = sym_power(graph, 3)
    assert (power.denominator > 1) == (source == "rational")
    code, out, _ = run_cli(capsys, ["power", "-k", "3"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out == _rendered(power, lambda p, i, j: p.entry(i, j))
    if power.exact:
        sizes = power.orbit_sizes

        def keys(rows):
            """The distinct (S_ij, D_i * D_j) of the nonzero pairs with row <= col in ``rows``."""
            return {(power.core.item(i, j), sizes[i] * sizes[j])
                    for i in rows for j in range(i, power.dim) if power.core.item(i, j)}

        # one q*sqrt(r) token per distinct key of a block, none for zeros.
        # The default blocks hold the whole power; with --method orbit and
        # blocks of one entry, each row of the core is a block
        assert power.dim**2 <= symgraph.power._SUPPORT_BLOCK
        cases = [([], None, len(keys(range(power.dim)))),
                 (["--method", "orbit"], 1, sum(len(keys([i])) for i in range(power.dim)))]
        sqrt_token = symgraph.power.sqrt_token
        for flags, block, want in cases:
            if block is not None:
                monkeypatch.setattr(symgraph.power, "_SUPPORT_BLOCK", block)
            calls = []
            monkeypatch.setattr(symgraph.power, "sqrt_token", lambda *args: calls.append(1) or sqrt_token(*args))
            code, out, _ = run_cli(capsys, ["power", "-k", "3", "--exact", *flags], stdin=stdin, monkeypatch=monkeypatch)
            monkeypatch.setattr(symgraph.power, "sqrt_token", sqrt_token)
            assert code == 0
            assert out == _rendered(power, lambda p, i, j: p.entry_exact(i, j))
            assert len(calls) == want
            assert 0 < len(calls) <= out.count("\n") - 1


@pytest.mark.parametrize("source", ["rational", "signed"])
def test_exact_power_builds_no_exact_weight(capsys, monkeypatch, source):
    # power --exact writes each token from the core's integers: with
    # ExactWeight's constructor and make failing, the bytes are the same
    from symgraph.exact import ExactWeight

    if source == "rational":
        monkeypatch.setattr(symgraph.cli, "read_blocks", lambda handle: [RATIONAL.n, edge_arrays(RATIONAL)])
    stdin = None if source == "rational" else SIGNED_TEXT
    power = sym_power(RATIONAL if source == "rational" else parse_graph(SIGNED_TEXT), 3)
    want = _rendered(power, lambda p, i, j: p.entry_exact(i, j))

    def fail(*args):
        raise AssertionError("an ExactWeight was built")

    monkeypatch.setattr(ExactWeight, "make", staticmethod(fail))
    monkeypatch.setattr(ExactWeight, "__init__", fail)
    assert run_cli(capsys, ["power", "-k", "3", "--exact"], stdin=stdin, monkeypatch=monkeypatch) == (0, want, "")


def test_exact_power_whose_orbit_size_products_pass_int64(capsys, monkeypatch):
    # at n=2, k=35 the largest orbit size is C(35, 17), whose square passes 2^63
    text = "2\n1 1 1\n1 2 -1\n2 2 2\n"
    power = sym_power(parse_graph(text), 35)
    assert max(power.orbit_sizes) ** 2 >= 2**63 > max(power.orbit_sizes)
    code, out, err = run_cli(capsys, ["power", "-k", "35", "--exact"], stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == _rendered(power, lambda p, i, j: p.entry_exact(i, j))

def test_stats_on_a_power_builds_no_weighted_graph(capsys, monkeypatch):
    _, power_text, _ = run_cli(capsys, ["power", "-k", "3"], stdin="5\n1 2\n2 3\n3 4\n4 5\n1 1\n",
                               monkeypatch=monkeypatch)
    built = []
    init = WeightedGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    code, out, _ = run_cli(capsys, ["stats"], stdin=power_text, monkeypatch=monkeypatch)
    assert code == 0
    assert len(built) == 0
    assert out == write_stats_json(parse_graph(power_text))
    assert len(built) == 1  # the reference above parsed one graph


READERS = [["power", "-k", "2"], ["spectrum"], ["dot"], ["stats"], ["stats", "--wiener"], ["stats", "--spectrum"],
           ["stats", "--wiener", "--spectrum"]]


@pytest.mark.parametrize("argv", READERS, ids=" ".join)
def test_commands_read_a_graph_file_into_arrays_in_any_pair_order(capsys, monkeypatch, argv):
    text = "6\n1 1\n1 2 0.5\n2 3 -2\n3 4\n4 5 3\n5 6\n"
    reversed_text = "6\n" + "".join(reversed(text.splitlines(True)[1:]))
    built = []
    init = WeightedGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    code, out, err = run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, argv, stdin=reversed_text, monkeypatch=monkeypatch) == (code, out, err)
    assert built == []


@pytest.mark.parametrize("n", [6000, 1_000_000])
@pytest.mark.parametrize("argv", [["spectrum"], ["stats", "--spectrum"]], ids=" ".join)
def test_spectrum_past_the_size_budget_exits_2_before_building_the_matrix(capsys, monkeypatch, argv, n):
    import tracemalloc

    monkeypatch.delenv("SYMTENSOR_MAX_N", raising=False)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        code, out, err = run_cli(capsys, argv, stdin=f"{n}\n1 2\n", monkeypatch=monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: matrix dimension {n} exceeds the budget 5000; "
                                "raise SYMTENSOR_MAX_N to override\n")
    assert peak < 50 * 2**20, peak  # the dense matrix would take 8 n^2 bytes


def test_plain_stats_past_the_size_budget_exits_2_before_the_counts(capsys, monkeypatch):
    import tracemalloc

    from symgraph.fileio import write_graph

    monkeypatch.delenv("SYMTENSOR_MAX_N", raising=False)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        code, out, err = run_cli(capsys, ["stats"], stdin="1000000000\n1 2\n", monkeypatch=monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: the stats of n=1000000000 vertices would take about ")
    assert peak < 10 * 2**20, peak  # the counts' arrays would take tens of GB
    # SYMTENSOR_MAX_N=100 allows 80,000 bytes: 34 a vertex (an int16 forest) admit
    # n=2,000 and refuse n=3,000
    monkeypatch.setenv("SYMTENSOR_MAX_N", "100")
    code, out, err = run_cli(capsys, ["stats"], stdin="2000\n1 2\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "") and json.loads(out)["components"] == 1999
    code, out, err = run_cli(capsys, ["stats"], stdin="3000\n1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and err == ("error: the stats of n=3000 vertices would take about 102,034 bytes, "
                                              "more than the 80,000 of an int64 core at the budget 100; "
                                              "raise SYMTENSOR_MAX_N to override\n")
    # the default budget admits the 5,000-vertex path, whose bytes are as before
    monkeypatch.delenv("SYMTENSOR_MAX_N")
    code, out, err = run_cli(capsys, ["stats"], stdin=write_graph(path(5000)), monkeypatch=monkeypatch)
    degrees = ", ".join(["1", *["2"] * 4998, "1"])
    assert (code, out, err) == (0, f'{{"n": 5000, "edges": 4999, "loops": 0, "components": 1, '
                                   f'"degrees": [{degrees}], "wiener": null}}\n', "")


def test_dot_past_the_size_budget_exits_2_before_the_labels(capsys, monkeypatch):
    import tracemalloc

    from symgraph.fileio import write_graph

    monkeypatch.delenv("SYMTENSOR_MAX_N", raising=False)
    for n in (10**9, 10**17):
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            code, out, err = run_cli(capsys, ["dot"], stdin=f"{n}\n1 2\n", monkeypatch=monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and err.count("\n") == 1, err
        assert err.startswith(f"error: the DOT labels of n={n} vertices would take about ")
        assert peak < 10 * 2**20, peak  # the label table would take hundreds of GB, and the lines 30 GB
    # SYMTENSOR_MAX_N=100 allows 80,000 bytes: 196 a vertex (label texts of up
    # to 11 characters) admit n=407 and refuse n=408
    monkeypatch.setenv("SYMTENSOR_MAX_N", "100")
    code, out, err = run_cli(capsys, ["dot"], stdin="407\n1 2\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "") and out.count("[label=") == 408
    code, out, err = run_cli(capsys, ["dot"], stdin="408\n1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and err == ("error: the DOT labels of n=408 vertices would take about 80,164 bytes, "
                                              "more than the 80,000 of an int64 core at the budget 100; "
                                              "raise SYMTENSOR_MAX_N to override\n")
    # the default budget admits the 5,000-vertex path, whose bytes are as before
    monkeypatch.delenv("SYMTENSOR_MAX_N")
    code, out, err = run_cli(capsys, ["dot"], stdin=write_graph(path(5000)), monkeypatch=monkeypatch)
    nodes = "".join(f'  {x} [label="{x}"];\n' for x in range(1, 5001))
    pairs = "".join(f'  {x} -- {x + 1} [label="1"];\n' for x in range(1, 5000))
    assert (code, out, err) == (0, f"graph G {{\n{nodes}{pairs}}}\n", "")


@pytest.mark.parametrize("n", [20_000, 200_000])
def test_dot_traced_peak_is_within_its_price(capsys, monkeypatch, n):
    import collections
    import io
    import sys
    import tracemalloc

    # the price the budget charges, as its refusal states it
    monkeypatch.setenv("SYMTENSOR_MAX_N", "1")
    code, out, err = run_cli(capsys, ["dot"], stdin=f"{n}\n1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    price = int(re.search(r"would take about ([\d,]+) bytes", err)[1].replace(",", ""))

    class Discard:
        def writelines(self, texts):
            collections.deque(texts, maxlen=0)

    monkeypatch.setenv("SYMTENSOR_MAX_N", "100000")
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{n}\n1 2\n"))
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        code = main(["dot"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= price, (peak, price)
    assert peak <= 215 * n, peak / n  # the price is 178 + 6 bytes a vertex per digit of n: 214 at six


@pytest.mark.parametrize("argv", [["stats"], ["stats", "--wiener"]], ids=" ".join)
def test_a_vertex_count_past_memory_exits_2_with_one_error_line(capsys, monkeypatch, argv):
    # n = 10^17 would ask for 800 PB, more than any address space: the size
    # budget refuses it with exit 2, kept apart from the 1 of failed checks
    code, out, err = run_cli(capsys, argv, stdin="100000000000000000\n1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["spectrum"], ["stats", "--spectrum"]], ids=" ".join)
def test_an_int_weight_past_the_float_range_exits_2_with_one_error_line(capsys, monkeypatch, argv):
    # the int is exact in the file, but the eigensolver's matrix is float64
    code, out, err = run_cli(capsys, argv, stdin=f"2\n1 2 {'9' * 400}\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: a weight is past the float64 range\n")


@pytest.mark.parametrize("argv", [["spectrum"], ["stats", "--spectrum"]], ids=" ".join)
def test_a_weight_below_the_halving_range_keeps_its_eigenvalues(capsys, monkeypatch, argv):
    # a / 2 + a.T / 2 would round 5e-324 to 0: the matrix built from a file
    # is symmetric, so the solver gets it as it is
    import numpy as np

    code, out, _ = run_cli(capsys, argv, stdin="2\n1 2 5e-324\n", monkeypatch=monkeypatch)
    want = np.linalg.eigvalsh(np.array([[0.0, 5e-324], [5e-324, 0.0]])).tolist()
    assert want == [-5e-324, 5e-324]
    values = [float(x) for x in out.split()] if argv == ["spectrum"] else json.loads(out)["spectrum"]
    assert (code, values) == (0, want)


def test_verify_status_line_reports_seconds(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "permutation", "--nmax", "3", "--kmax", "2"])
    assert code == 0
    match = re.fullmatch(r"ok permutation: (\d+) checks, 0 failures, (\d+\.\d\d) s", out.splitlines()[-1])
    assert match is not None
    [result] = run_suites(["permutation"], nmax=3, kmax=2)
    assert int(match.group(1)) == result.checks
    assert float(match.group(2)) >= 0 and result.seconds > 0


# -- streaming in blocks -------------------------------------------------------

STREAM_GRAPHS = {
    "int64": "5\n" + "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u, 6)),
    "object": "3\n1 1 1000000000\n1 2 1000000001\n2 3 -7\n",
    "float64": FLOAT_TEXT,
}


def _block_sizes(monkeypatch, size):
    import symgraph.fileio
    import symgraph.power

    if size is not None:
        monkeypatch.setattr(symgraph.fileio, "_BLOCK_CHARS", size)
        monkeypatch.setattr(symgraph.fileio, "_WRITE_LINES", size)
        monkeypatch.setattr(symgraph.power, "_SUPPORT_BLOCK", size)


@pytest.mark.parametrize("size", [1, 7, None])
def test_streamed_power_equals_the_joined_arrays_in_any_block_size(capsys, monkeypatch, size):
    import numpy as np

    from symgraph.fileio import edge_text_blocks, write_edges
    from symgraph.power import sym_power_upper_blocks

    # a signed int graph whose power has mostly distinct exact entries; files
    # whose power mode is decided across blocks, which at one character a
    # block hold one line each: int weights then a float, ints then one past
    # int64, and zero weights, int and float, which make no pair; and a graph
    # of Fraction weights (L = 6), which no graph file holds
    texts = dict(STREAM_GRAPHS, distinct="4\n1 1 -3\n1 2 5\n1 3 -7\n1 4 2\n2 2 11\n2 3 -13\n3 4 17\n4 4 -19\n",
                 int_then_float="4\n1 1 2\n1 2 -1\n2 3 3\n3 4 0.5\n", past_int64_later=f"3\n1 1 2\n1 2 -3\n2 3 {'9' * 20}\n",
                 zero_weights="4\n1 2 3\n2 3 0\n3 4 0.0\n4 4 -2\n")
    rational = WeightedGraph(4, {(1, 1): Fraction(-1, 2), (1, 2): Fraction(2, 3), (2, 4): 5, (3, 3): Fraction(7, 6)})
    paths = dict(distinct="int64", int_then_float="float64", past_int64_later="object", zero_weights="int64",
                 rational="int64")
    # the references are made whole, at the default block sizes
    want = {}
    for name, graph in [*((name, parse_graph(text)) for name, text in texts.items()), ("rational", rational)]:
        power = sym_power(graph, 3)
        assert power.path == paths.setdefault(name, name)
        u, v, weights = map(np.concatenate, zip(*power.upper_blocks()))
        want[name, False] = write_edges(power.dim, u, v, weights)
        if power.exact:
            rows, cols = np.nonzero(np.triu(power.core))
            exact = list(map(power.entry_exact, rows.tolist(), cols.tolist()))
            want[name, True] = write_edges(power.dim, rows + 1, cols + 1, exact)
    assert len({line.split()[-1] for line in want["distinct", True].splitlines()[1:]}) > 150  # of 166 pairs
    _block_sizes(monkeypatch, size)
    ran, scaled = [], symgraph.power._scaled  # the path each run takes
    monkeypatch.setattr(symgraph.power, "_scaled", lambda *args: ran.append(scaled(*args)) or ran[-1])
    for (name, exact), text in want.items():
        if name == "rational":
            dim, blocks = sym_power_upper_blocks(rational.n, [edge_arrays(rational)], 3, exact=exact)
            assert "".join(edge_text_blocks(dim, blocks, range(dim + 1))) == text, (name, exact)
        else:
            argv = ["power", "-k", "3"] + (["--exact"] if exact else [])
            code, out, err = run_cli(capsys, argv, stdin=texts[name], monkeypatch=monkeypatch)
            assert (code, err) == (0, "")
            assert out == text, (name, exact)
        assert ran.pop().path == paths[name], (name, exact)
    argv = ["power", "-k", "3", "--exact"]
    assert run_cli(capsys, argv, stdin=texts["int_then_float"], monkeypatch=monkeypatch) == (
        2, "", "error: --exact requires a graph with rational weights\n")



def _dot_per_pair(n, u, v, w, labels=None):
    """DOT rendered one f-string per vertex and per pair, pairs in (u, v) order."""
    from symgraph.fileio import _dot_quote, format_weight

    lines = [f"  {x} [label={_dot_quote(str(x) if labels is None else labels[x - 1])}];\n" for x in range(1, n + 1)]
    pairs = sorted(zip(u.tolist(), v.tolist(), w.tolist()), key=lambda pair: pair[:2])
    lines += [f"  {a} -- {b} [label={_dot_quote(format_weight(x))}];\n" for a, b, x in pairs]
    return "graph G {\n" + "".join(lines) + "}\n"


@pytest.mark.parametrize("size", [1, 7, None])
def test_dot_equals_the_per_pair_rendering_in_any_block_size(capsys, monkeypatch, size):
    from symgraph.fileio import parse_edges, write_dot

    texts = dict(STREAM_GRAPHS)
    for path, text in STREAM_GRAPHS.items():  # the powers, whose lines cross chunks of 7
        texts[path + " power"] = run_cli(capsys, ["power", "-k", "3"], stdin=text, monkeypatch=monkeypatch)[1]
    # a later chunk of 7 with more distinct texts than the first: the byte table regrows
    texts["regrow"] = "20\n" + "".join(f"1 {v} 1\n" for v in range(1, 8)) + "".join(
        f"2 {v} {v / 7}\n" for v in range(2, 21))
    # labels that DOT must escape, and weights of every type
    graph = WeightedGraph(3, {(1, 1): Fraction(1, 3), (1, 2): 2**70, (2, 3): 0.25, (3, 3): 1}, ['a"b', "c\\d", 'e\\"'])
    want = {name: _dot_per_pair(*parse_edges(text)) for name, text in texts.items()}
    _block_sizes(monkeypatch, size)
    for name, text in texts.items():
        assert run_cli(capsys, ["dot"], stdin=text, monkeypatch=monkeypatch) == (0, want[name], ""), name
    assert write_dot(graph) == _dot_per_pair(graph.n, *edge_arrays(graph), graph.labels)
    assert 'label="a\\"b"' in write_dot(graph)


def test_dot_keeps_int_and_float_weight_tokens(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["dot"], stdin="3\n1 2 1\n2 3 1.0\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert '  1 -- 2 [label="1"];\n  2 -- 3 [label="1.0"];\n' in out


@pytest.mark.parametrize("argv", [["stats", "--wiener"], ["stats", "--wiener", "--spectrum"]], ids=" ".join)
def test_stats_wiener_past_the_size_budget_exits_2_before_the_bfs(capsys, monkeypatch, argv):
    import symgraph.analysis
    from symgraph.fileio import write_graph

    def no_forest(*args):
        raise AssertionError("the counts' forest tells a connected graph")

    monkeypatch.setenv("SYMTENSOR_MAX_N", "10")
    monkeypatch.setattr(symgraph.analysis, "_component_ids", no_forest)  # no second component forest
    code, out, err = run_cli(capsys, argv, stdin=write_graph(path(10)), monkeypatch=monkeypatch)
    assert (code, err) == (0, "") and json.loads(out)["wiener"] == 165
    monkeypatch.setattr(symgraph.analysis, "_distance_sum", None)  # no BFS past the bound
    # path 11, and a disconnected graph, whose wiener is null within the bound
    for text in (write_graph(path(11)), "11\n1 2\n"):
        code, out, err = run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: the Wiener index of n=11 vertices exceeds the budget 10; raise SYMTENSOR_MAX_N to override\n"


WHOLE_CORE_GRAPHS = {
    "int64": SIGNED_TEXT,
    "object": STREAM_GRAPHS["object"],  # intermediates past the int64 bound
    "fraction": RATIONAL,
    "float": "4\n1 2 0.3\n2 2 1.7\n2 3 2.5e-3\n3 4 1e16\n",
    "signed float": FLOAT_TEXT,
    "edgeless": "4\n",
}


@pytest.mark.parametrize("block", [1, 7, None])
def test_streamed_power_equals_the_whole_core(capsys, monkeypatch, block):
    # power streams the last degree's row blocks to the writer; its bytes are
    # those of the whole core, entry by entry, for blocks that end mid-row too
    if block is not None:
        monkeypatch.setattr(symgraph.power, "_BLOCK_ELEMS", block)
    paths, read = set(), symgraph.cli.read_blocks
    for name, source in WHOLE_CORE_GRAPHS.items():
        if isinstance(source, str):
            graph, stdin = parse_graph(source), source
            monkeypatch.setattr(symgraph.cli, "read_blocks", read)
        else:
            graph, stdin = source, None  # no graph file holds a Fraction: the reader hands out its one block
            monkeypatch.setattr(symgraph.cli, "read_blocks", lambda handle: [graph.n, edge_arrays(graph)])
        for k in (1, 3):
            for order in ("paper", "lex"):
                power = sym_power(graph, k, order=order)
                paths.add(power.path)
                runs = [(False, lambda p, i, j: p.entry(i, j))]
                if power.exact:
                    runs.append((True, lambda p, i, j: p.entry_exact(i, j)))
                for exact, weight in runs:
                    argv = ["power", "-k", str(k), "--order", order] + ["--exact"] * exact
                    code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
                    assert (code, err) == (0, ""), (name, argv)
                    assert out == _rendered(power, weight), (name, argv)
                    if power.exact:
                        # the orbit kernel, the reference, builds the whole core
                        argv += ["--method", "orbit"]
                        assert run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == (0, out, ""), argv
    assert paths == {"int64", "object", "float64"}


def _random_graph_file(rng):
    """A seeded graph file: pairs in any order, loops, zero and float
    weights, comments; sometimes a duplicate or a bad line at the end."""
    n = rng.randint(1, 9)
    pairs = rng.sample([(u, v) for u in range(1, n + 1) for v in range(1, n + 1)], rng.randint(0, n * n // 2))
    seen, lines = set(), [rng.choice(["", "# a graph"]), f"{n}"]
    for u, v in pairs:
        if (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        weight = rng.choice(["", " 1", " -2", " 0", " 0.5", " 1e-3", " 0.0"])
        lines.append(f"{u} {v}{weight}" + rng.choice(["", "  # note"]))
    roll = rng.random()
    if roll < 0.15 and seen:
        u, v = rng.choice(sorted(seen))
        lines.append(f"{v} {u} 3")
    elif roll < 0.3:
        lines.append(rng.choice(["1 2 3 4", "x y", f"1 {n + 1}", "1 1 nan", "1 1 w"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


@pytest.mark.parametrize("size", [1, 7, None])
def test_streamed_stats_equals_the_whole_file_stats_in_any_block_size(capsys, monkeypatch, size):
    import random

    from symgraph.fileio import GraphFormatError

    rng = random.Random(8191)
    files = [_random_graph_file(rng) for _ in range(200)]
    # the files take the four flag sets in turn
    flags = [[[], ["--wiener"], ["--spectrum"], ["--wiener", "--spectrum"]][i % 4] for i in range(len(files))]
    want = []
    for text, argv in zip(files, flags):
        try:
            want.append((0, write_stats_json(parse_graph(text), "--wiener" in argv, "--spectrum" in argv), ""))
        except GraphFormatError as exc:
            want.append((2, "", f"error: {exc}\n"))
    errors = [w for w in want if w[0]]
    assert 20 < len(errors) < 100 and all(err.startswith("error: line ") for _, _, err in errors)
    assert len({json.loads(out)["components"] for code, out, _ in want if not code}) > 3
    # a connected graph's Wiener index, and a disconnected graph's null
    assert {json.loads(out)["wiener"] is None for (code, out, _), argv in zip(want, flags)
            if not code and "--wiener" in argv} == {True, False}
    _block_sizes(monkeypatch, size)
    for text, argv, expected in zip(files, flags, want):
        assert run_cli(capsys, ["stats", *argv], stdin=text, monkeypatch=monkeypatch) == expected, (argv, text)


def _peak_mb(argv, stdout=None) -> float:
    """Peak RSS of a child process in MB, from ``os.wait4``.

    The child is started by a small launcher process, which reports the
    figure: ``ru_maxrss`` keeps the high-water mark of the memory a process
    had before its ``exec``, so a child started straight from the test
    process would report at least the test process's own peak.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    launcher = (
        "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
        "_, status, usage = os.wait4(child.pid, 0); "
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(symgraph.cli.__file__).parents[1]))
    with open(os.devnull, "wb") if stdout is None else open(stdout, "wb") as out:
        done = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    status, maxrss = done.stderr.split()[-2:]
    assert status == "0", (argv, done.stderr)
    return int(maxrss) / 1024


def test_dense_power_and_stats_run_in_bounded_memory(tmp_path):
    # power -k 5 of complete_loops 9 writes 828,828 pairs (18.4 MB); each
    # process may peak at most 30 MB above a bare import of the CLI
    source, power = tmp_path / "family.txt", tmp_path / "power.txt"
    assert main(["family", "complete_loops", "9", "-o", str(source)]) == 0
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    power_mb = _peak_mb([shim, "power", "-k", "5", str(source)], stdout=power)
    stats_mb = _peak_mb([shim, "stats", str(power)])
    assert power.stat().st_size > 18_000_000
    assert power_mb <= bare + 30 and stats_mb <= bare + 30, (bare, power_mb, stats_mb)


def test_plain_stats_of_a_dense_power_peaks_near_a_bare_import(tmp_path):
    # plain stats counts the complete_loops 9 k=5 power file (828,828 pairs,
    # 18.4 MB) one parser block at a time; with blocks of 2^17 characters the
    # process peaks within 8 MB of a bare import of the CLI (11 MB above it
    # with 2^18)
    source, power = tmp_path / "family.txt", tmp_path / "power.txt"
    assert main(["family", "complete_loops", "9", "-o", str(source)]) == 0
    assert main(["power", "-k", "5", "-o", str(power), str(source)]) == 0
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    stats_mb = _peak_mb([shim, "stats", str(power)])
    assert stats_mb <= bare + 8, (bare, stats_mb)


def test_commands_reading_a_dense_power_run_in_bounded_memory(tmp_path):
    # the complete_loops 8 k=5 power file (314,028 pairs) is read as the
    # parser's blocks alone, which dot joins; each process may peak at most
    # 60 MB above a bare import of the CLI
    source, power = tmp_path / "family.txt", tmp_path / "power.txt"
    assert main(["family", "complete_loops", "8", "-o", str(source)]) == 0
    assert main(["power", "-k", "5", "-o", str(power), str(source)]) == 0
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    peaks = {" ".join(argv): _peak_mb([shim, *argv, str(power)])
             for argv in (["spectrum"], ["dot"], ["power", "-k", "1"], ["stats", "--spectrum"])}
    assert all(mb <= bare + 60 for mb in peaks.values()), (bare, peaks)


def test_spectrum_and_the_stats_flags_read_the_parser_blocks_unjoined(tmp_path):
    # spectrum and stats --spectrum scatter the parser's blocks of the
    # complete_loops 8 k=5 power file (314,028 pairs) into the 792 x 792
    # matrix, and stats --wiener builds its adjacency lists from them too,
    # with no joined copy of the file: at most 20 MB (32 MB with both flags)
    # above a bare import of the CLI, where the joined arrays took 24-25 MB
    # (48 MB); power -k 1 scales the same blocks into its matrix, at most
    # 18 MB above it, where the joined arrays took 22 MB
    source, power = tmp_path / "family.txt", tmp_path / "power.txt"
    assert main(["family", "complete_loops", "8", "-o", str(source)]) == 0
    assert main(["power", "-k", "5", "-o", str(power), str(source)]) == 0
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    peaks = {" ".join(argv): _peak_mb([shim, *argv, str(power)])
             for argv in (["spectrum"], ["stats", "--spectrum"], ["stats", "--wiener", "--spectrum"],
                          ["power", "-k", "1"])}
    bounds = {"spectrum": 20, "stats --spectrum": 20, "stats --wiener --spectrum": 32, "power -k 1": 18}
    assert all(peaks[argv] <= bare + bounds[argv] for argv in bounds), (bare, peaks)


def test_first_power_of_a_long_path_holds_one_n_by_n_matrix(tmp_path):
    # power -k 1 of family path 5000 (a 57,782-byte file) takes its bound
    # from the pairs and scatters the weights once, into one n x n matrix
    # (200 MB), int64 or, for the copy with every weight 0.5, float64, whose
    # upper part it writes as the power; each process may peak at most
    # 230 MB above a bare import of the CLI, which leaves no room for a
    # second such matrix
    import os

    source, half = tmp_path / "path.txt", tmp_path / "path-half.txt"
    assert main(["family", "path", "5000", "-o", str(source)]) == 0
    head, *pairs = source.read_text().splitlines(keepends=True)
    half.write_text(head + "".join(line.replace(" 1\n", " 0.5\n") for line in pairs))
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    runs = [([], source), (["--exact"], source), ([], half)]
    peaks = [_peak_mb([shim, "power", "-k", "1", *flags, "-o", os.devnull, str(graph)]) for flags, graph in runs]
    assert max(peaks) <= bare + 230, (bare, peaks)


def _signed_loops_text(n=10, seed=14):
    """A seeded n-vertex graph file with a loop at every vertex and about half
    of the other pairs, each weighted by a signed multiple of 70,001, at most
    9 * 70,001 in absolute value: its k=5 power (N=2,002 at n=10) runs on
    Python ints."""
    import random

    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1) if a == b or rng.random() < 0.5]
    return f"{n}\n" + "".join(f"{a} {b} {rng.choice((-1, 1)) * rng.randint(1, 9) * 70_001}\n" for a, b in pairs)


def test_power_at_the_top_of_the_budget_runs_in_bounded_memory(tmp_path):
    # power -k 5 of complete_loops 12 (N = 4,368, 9.5M pairs) streams the last
    # degree to the writer, where its whole int64 core alone would take
    # 153 MB, and so does the object power of _signed_loops_text (N = 2,002),
    # whose whole core the budget refuses; each process may peak at most
    # 40 MB above a bare import of the CLI
    import os

    source, signed = tmp_path / "family.txt", tmp_path / "signed.txt"
    assert main(["family", "complete_loops", "12", "-o", str(source)]) == 0
    signed.write_text(_signed_loops_text())
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    peaks = [_peak_mb([shim, "power", "-k", "5", "-o", os.devnull, str(path)]) for path in (source, signed)]
    assert max(peaks) <= bare + 40, (bare, peaks)


def test_the_whole_object_core_past_the_default_budget_refuses_before_any_kernel_runs(tmp_path, capsys, monkeypatch):
    # the N=2,002 object power of _signed_loops_text streams (see above), but
    # its whole core, for sym_power or --method orbit, is priced past the
    # 200 MB of an int64 core at the default budget
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in ("_linear_form_blocks", "_core_linear_forms", "_core_orbit_numpy"):
        monkeypatch.setattr(symgraph.power, name, kernel)
    monkeypatch.delenv("SYMTENSOR_MAX_N", raising=False)
    source = tmp_path / "signed.txt"
    source.write_text(_signed_loops_text())
    with pytest.raises(symgraph.power.SizeBudgetError, match=r"the object core of N=2002 \(n=10, k=5\) would take"):
        sym_power(parse_graph(source.read_text()), 5)
    code, out, err = run_cli(capsys, ["power", "-k", "5", "--method", "orbit", str(source)])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: the object core of N=2002 (n=10, k=5) would take about"), err


def test_closed_forms_hold_through_the_streamed_power_at_pipeline_scale(capsys, monkeypatch):
    from symgraph import analysis
    from symgraph.combinatorics import enumerate_multisets

    def pipeline(name, n, k):
        _, text, _ = run_cli(capsys, ["family", name, str(n)])
        code, power_text, _ = run_cli(capsys, ["power", "-k", str(k)], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        code, stats_text, _ = run_cli(capsys, ["stats"], stdin=power_text, monkeypatch=monkeypatch)
        assert code == 0
        return power_text, json.loads(stats_text)

    # cycle 30, k=3: N = 4,960, the largest cycle power under the default budget
    _, stats = pipeline("cycle", 30, 3)
    assert stats["n"] == math.comb(32, 3)
    assert stats["components"] == analysis.cycle_components(30, 3)
    # complete_loops 9, k=5: every pair is an edge, each vertex has a loop
    power_text, stats = pipeline("complete_loops", 9, 5)
    dim = math.comb(13, 5)
    assert (stats["n"], stats["edges"], stats["loops"], stats["components"]) == (dim, dim * (dim + 1) // 2, dim, 1)
    assert stats["degrees"] == [dim] * dim
    # the written weights are sqrt(D_i * D_j), up to float64 rounding
    tuples = enumerate_multisets(9, 5)
    lines = power_text.splitlines()[1:]
    for line in lines[:: len(lines) // 500]:
        i, j, w = line.split()
        want = analysis.power_edge_weight_complete_loops(tuples[int(i) - 1], tuples[int(j) - 1])
        assert float(w) == pytest.approx(float(want), rel=2**-50), line


def test_verify_kernels_runs_in_bounded_memory():
    # the kernels suite's workers send back only the cases that disagree, so
    # the process tree (wait4 reports its largest member) stays near a bare import
    shim = "import sys; from symgraph.cli import main; sys.exit(main())"
    bare = _peak_mb(["import symgraph.cli"])
    verify_mb = _peak_mb([shim, "verify", "--suite", "kernels"])
    assert verify_mb <= bare + 20, (bare, verify_mb)


def test_power_past_the_core_bytes_budget_exit_code(tmp_path, capsys, monkeypatch):
    # an object core is charged for its N^2 entries, the streamed power only
    # for its lower degrees and temporaries; each refusal is one error line,
    # exit 2 and no stdout
    import random

    def refused(argv, start):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, (code, err)
        assert err.startswith(start) and err.endswith("; raise SYMTENSOR_MAX_N to override\n"), err

    source = tmp_path / "in.txt"
    source.write_text("3\n1 1 1000000000\n1 2 1000000001\n2 3 -7\n")
    monkeypatch.setenv("SYMTENSOR_MAX_N", "20")
    refused(["power", "-k", "3", "--method", "orbit", str(source)], "error: the object core of N=10 (n=3, k=3)")
    # n=14, k=3 (N=560) with 48-byte entries: the stream is priced at about
    # 6.0 MB, which SYMTENSOR_MAX_N=1000 allows (8.0 MB) and 600 does not
    # (2.9 MB); the whole core at about 17.2 MB (orbit: 33.8 MB)
    rng = random.Random(3)
    n = 14
    pairs = [(a, b, rng.randint(-10**9, 10**9)) for a in range(1, n + 1) for b in range(a, n + 1)]
    source.write_text(f"{n}\n" + "".join(f"{a} {b} {w}\n" for a, b, w in pairs))
    target = tmp_path / "out.txt"
    monkeypatch.setenv("SYMTENSOR_MAX_N", "1000")
    refused(["power", "-k", "3", "--method", "orbit", str(source)], "error: the object core of N=560 (n=14, k=3)")
    assert run_cli(capsys, ["power", "-k", "3", "-o", str(target), str(source)]) == (0, "", "")
    assert target.read_text().startswith("560\n")
    monkeypatch.setenv("SYMTENSOR_MAX_N", "600")
    refused(["power", "-k", "3", str(source)], "error: the streamed object power of N=560 (n=14, k=3)")
    refused(["power", "-k", "3", "--exact", str(source)], "error: the streamed object power of N=560 (n=14, k=3)")


@pytest.mark.parametrize("method", ["permanent", "orbit"])
def test_exact_power_of_a_float_graph_refuses_before_any_kernel_runs(capsys, monkeypatch, method):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in ("_linear_form_blocks", "_core_linear_forms", "_core_orbit_numpy"):
        monkeypatch.setattr(symgraph.power, name, kernel)
    argv = ["power", "-k", "3", "--exact", "--method", method]
    code, out, err = run_cli(capsys, argv, stdin="3\n1 2 0.5\n2 3\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: --exact requires a graph with rational weights\n")


# -- every command against the library -------------------------------------------

# ints, ints past int64, floats with subnormals, and 1e300 and -0.0
DIFF_WEIGHTS = (
    st.integers(-9, 9),
    st.integers(2**63, 2**70).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-1e3, 1e3, allow_subnormal=True),
    st.sampled_from([1e300, -0.0, 5e-324, 2.5e-310]),
)
# a graph draws its weights from one of these sets of kinds, so that the
# int64, object and float64 paths each come up often
DIFF_PALETTES = [(0,), (0, 1), (0, 2), (2,), (0, 3), (2, 3)]


@st.composite
def _graph_files(draw):
    """A graph on at most 6 vertices and a file of it: its lines shuffled,
    each pair in either orientation, with comments, in LF or CRLF."""
    n = draw(st.integers(1, 6))
    kinds = st.one_of(*(DIFF_WEIGHTS[i] for i in draw(st.sampled_from(DIFF_PALETTES))))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    weights = {(u, v): draw(kinds) for u in range(1, n + 1) for v in range(u, n + 1) if rng.random() < density}
    lines = []
    for (u, v), w in weights.items():
        a, b = (v, u) if draw(st.booleans()) else (u, v)
        token = "" if w == 1 and type(w) is int and draw(st.booleans()) else f" {w!r}"
        lines.append(f"{a} {b}{token}" + draw(st.sampled_from(["", " # a note"])))
    lines = draw(st.permutations(lines + draw(st.lists(st.sampled_from(["# a comment", ""]), max_size=2))))
    head = draw(st.sampled_from([[], ["# a graph"]]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join([*head, str(n), *lines]) + draw(st.sampled_from(["", "\n"]))
    return WeightedGraph(n, weights), text


def _power_file(dim, rows, cols, weights):
    return f"{dim}\n" + "".join(f"{i + 1} {j + 1} {w}\n" for i, j, w in zip(rows.tolist(), cols.tolist(), weights))


def _library_powers(graph, k, order):
    """The power files of the whole-graph library path, float then exact:
    ``to_dense()`` in the writer's text, and each ``entry_exact``.  Either
    is None where ``power`` refuses: a float at a weight past the float64
    range, exact on a graph with a float weight."""
    from symgraph.graphs import all_rational

    power = sym_power(graph, k, order=order)
    try:
        dense = power.to_dense()
    except ValueError:  # an exact entry past the float64 range
        dense = None
    floats = exact = None
    if dense is not None and np.isfinite(dense).all():  # else the float core's inf or nan
        rows, cols = np.nonzero(np.triu(dense))
        floats = _power_file(power.dim, rows, cols, map(repr, dense[rows, cols].tolist()))
    if all_rational(w for _, _, w in graph.edges()):
        rows, cols = np.nonzero(np.triu(power.core))
        exact = _power_file(power.dim, rows, cols, map(str, map(power.entry_exact, rows.tolist(), cols.tolist())))
    return floats, exact


@given(_graph_files(), st.sampled_from(["paper", "lex"]))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_command_equals_the_library_in_any_block_size(capsys, monkeypatch, case, order):
    # each command through main(), at the default block sizes and at a few
    # units, against the whole-graph path made at the default sizes, which
    # the library also gives at a few units; the one designed difference is
    # power's exit 2 at an entry past the float64 range
    from symgraph.fileio import write_dot
    from symgraph.graphs import adjacency_matrix
    from symgraph.spectra import eigenvalues_symmetric

    graph, text = case
    want = {
        ("stats",): write_stats_json(graph),
        ("stats", "--wiener", "--spectrum"): write_stats_json(graph, True, True),
        ("spectrum",): "".join(f"{v!r}\n" for v in eigenvalues_symmetric(adjacency_matrix(graph))),
        ("dot",): write_dot(graph),
    }
    for k in (1, 2, 3):
        argv = ("power", "-k", str(k), "--order", order)
        want[argv], want[(*argv, "--exact")] = _library_powers(graph, k, order)
    for size in (None, 5):
        with monkeypatch.context() as patched:
            if size is not None:
                for module, name in ((symgraph.fileio, "_BLOCK_CHARS"), (symgraph.fileio, "_WRITE_LINES"),
                                     (symgraph.power, "_SUPPORT_BLOCK"), (symgraph.power, "_BLOCK_ELEMS"),
                                     (symgraph.power, "_MIRROR_TILE")):
                    patched.setattr(module, name, size)
                for k in (1, 2, 3):
                    argv = ("power", "-k", str(k), "--order", order)
                    assert _library_powers(graph, k, order) == (want[argv], want[(*argv, "--exact")]), k
            for argv, out in want.items():
                got = run_cli(capsys, list(argv), stdin=text, monkeypatch=patched)
                if out is None:
                    assert got[:2] == (2, "") and got[2].startswith("error: ") and got[2].count("\n") == 1, argv
                else:
                    assert got == (0, out, ""), (argv, size)
