import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memhier import (ConfigError, CurveFormatError, SimulatedBackend, cli,
                     curve_from_csv, load_config)
from memhier.cacheprobe import load_curve
from memhier.cli import _build_parser, main

from conftest import JitterBackend, NoRunBackend

KB = 1024

CONFIG = """\
# two cache levels, one TLB level
pagesize 4096
cache 32768 8 64 3
cache 524288 8 64 15
tlb 64 30
memory 100
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "machine.cfg"
    p.write_text(CONFIG)
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main([]) == 2
        assert main(["l1", "--format", "xml"]) == 2

    @pytest.mark.parametrize("argv", [
        ["l1", "--format", "csv"], ["tlb", "--format", "csv"],
        ["tlb", "--format", "json"], ["cache", "--max-assoc", "12"],
        ["tlb", "--max-assoc", "12"],
    ], ids=["l1-format", "tlb-format-csv", "tlb-format-json",
            "cache-max-assoc", "tlb-max-assoc"])
    def test_option_the_command_does_not_read_is_2(self, capsys, cfg_path,
                                                   argv):
        assert main(argv + ["--backend", "sim:" + cfg_path]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["all"], ["simulate", "machine.cfg"]])
    def test_all_and_simulate_take_max_assoc_and_format(self, argv):
        args = _build_parser().parse_args(
            argv + ["--max-assoc", "12", "--format", "csv"])
        assert (args.max_assoc, args.format) == (12, "csv")

    def test_bad_backend_is_1(self, capsys):
        assert main(["l1", "--backend", "quantum"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_missing_config_file_is_1(self, capsys):
        assert main(["l1", "--backend", "sim:/does/not/exist"]) == 1

    def test_missing_curve_file_is_1(self, capsys):
        assert main(["analyze", "/does/not/exist.csv"]) == 1

    def test_malformed_curve_is_1(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("footprint_bytes,cycles_per_access,knocked_out\n"
                        "1024,abc\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "memhier: bad curve row at line 2: '1024,abc'\n"

    @pytest.mark.parametrize("value", ["-inf", "inf", "-1.5", "1e400"])
    def test_curve_value_not_nan_or_finite_nonnegative_is_1(
            self, capsys, tmp_path, value):
        path = tmp_path / "curve.csv"
        path.write_text("footprint_bytes,cycles_per_access,knocked_out\n"
                        "1024,%s,0\n2048,3.0,0\n4096,3.0,0\n8192,9.0,0\n"
                        % value)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "memhier: bad curve row at line 2: '1024,%s,0'\n" % value

    @pytest.mark.parametrize("row", [
        "0,3.0,0", "-1024,3.0,0", "1024,3.0,0", "2048,3.0,5", "2048,3.0,-1",
        "footprint_bytes_typo,abc",
        "footprint_bytes,cycles_per_access,knocked_out",
    ], ids=["zero-footprint", "negative-footprint", "repeated-footprint",
            "knocked-out-5", "knocked-out-minus-1", "junk-row",
            "second-header"])
    def test_bad_curve_row_is_1(self, capsys, tmp_path, row):
        # A repeated 1024 row would make a 3-cycle plateau read 6.
        text = ("footprint_bytes,cycles_per_access,knocked_out\n"
                "1024,3.0,0\n%s\n4096,9.0,0\n" % row)
        with pytest.raises(CurveFormatError, match="at line 3"):
            curve_from_csv(text)
        path = tmp_path / "curve.csv"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "memhier: bad curve row at line 3: %r\n" % row

    @pytest.mark.parametrize("header", [
        "footprint_bytes,cycles_per_access,knocked_out\n",
        "\n  footprint_bytes,cycles_per_access,knocked_out\n", "", "\n"])
    def test_curve_parses_with_or_without_header(self, header):
        curve = curve_from_csv(header + "1024,3.0,0\n2048,nan,1\n")
        assert curve.footprints() == [1024, 2048]
        assert [p.knocked_out for p in curve.points] == [False, True]

    def test_inexact_header_is_a_bad_row(self):
        with pytest.raises(CurveFormatError, match="at line 1"):
            curve_from_csv("footprint_bytes,cycles\n1024,3.0,0\n")

    def test_window_must_be_positive(self, capsys, cfg_path):
        for argv in (["l1", "--window", "0"],
                     ["simulate", cfg_path, "--window", "0"],
                     ["tlb", "--backend", "sim:" + cfg_path, "--window", "0"],
                     ["cache", "--backend", "sim:" + cfg_path,
                      "--window", "-3"]):
            assert main(argv) == 2, argv
            assert "is not a positive integer" in capsys.readouterr().err

    def test_seed_must_be_non_negative(self, capsys, cfg_path):
        # random.Random(-s) is random.Random(s), so a negative seed would
        # reuse the strings of a positive one.
        for argv in (["l1", "--backend", "sim:" + cfg_path],
                     ["cache", "--backend", "sim:" + cfg_path],
                     ["tlb", "--backend", "sim:" + cfg_path],
                     ["simulate", cfg_path]):
            for value in ("-1", "-3", "x"):
                assert main(argv + ["--seed", value]) == 2, argv
                assert "is not a non-negative integer" in \
                    capsys.readouterr().err

    def test_seed_zero_is_accepted(self):
        args = _build_parser().parse_args(["tlb", "--seed", "0"])
        assert args.seed == 0

    @pytest.mark.parametrize("value", ["0", "-8"])
    def test_max_assoc_must_be_positive(self, capsys, cfg_path, value):
        # A usage error, before the L1 probe sees the value.
        for argv in (["l1", "--backend", "sim:" + cfg_path],
                     ["simulate", cfg_path]):
            assert main(argv + ["--max-assoc", value]) == 2, argv
            err = capsys.readouterr().err
            assert "is not a positive integer" in err
            assert "Traceback" not in err

    def test_bounds_must_be_positive(self, capsys, cfg_path):
        # A bound of 0 is a usage error, not the probe's default bound.
        for bound in ("--lb", "--ub"):
            for value in ("0", "-4096"):
                for argv in (["cache", "--backend", "sim:" + cfg_path,
                              "--window", "1"],
                             ["tlb", "--backend", "sim:" + cfg_path],
                             ["simulate", cfg_path]):
                    argv = argv + [bound, value]
                    assert main(argv) == 2, argv
                    assert "is not a positive integer" in \
                        capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "pagesize 4096\ntlb 64 30\nmemory -5\n",
        CONFIG + "mapping identity x\n",
        CONFIG + "mapping random -1\n",
    ], ids=["memory-only-negative", "identity-trailing-word",
            "negative-mapping-seed"])
    def test_rejected_config_is_1(self, capsys, tmp_path, text):
        path = tmp_path / "machine.cfg"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("memhier: ")

    @pytest.mark.parametrize("argv, message", [
        (["cache", "--ub", "5000000", "--window", "5"], "multiple of 1KB"),
        (["tlb", "--ub", str(128 * KB * KB)], "TLB UB must be at most"),
        (["cache", "--lb", "3072", "--ub", "4096"], "holds 2 sample points"),
        (["cache", "--lb", "4096", "--ub", "5120", "--format", "csv"],
         "holds 2 sample points"),
        (["tlb", "--lb", "4096"], "TLB LB must be at least 2 pages"),
    ], ids=["cache-ub-not-1KB-multiple", "tlb-ub-over-allocation-limit",
            "cache-3K-to-4K", "cache-4K-to-5K-csv", "tlb-lb-one-page"])
    def test_bad_ub_is_1_before_any_run(self, capsys, monkeypatch, cfg_path,
                                        argv, message):
        # A range too small to sweep or analyse is refused up front too.
        monkeypatch.setattr(SimulatedBackend, "run", NoRunBackend.run)
        assert main(argv + ["--backend", "sim:" + cfg_path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("memhier: ")
        assert message in err[0]

    def test_non_utf8_config_is_1(self, capsys, tmp_path):
        path = tmp_path / "machine.cfg"
        path.write_bytes(b"pagesize 4096\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(path))
        for argv in (["simulate", str(path)],
                     ["l1", "--backend", "sim:" + str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("memhier: ")
            assert "not UTF-8" in err[0]

    def test_non_utf8_curve_is_1(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"footprint_bytes,cycles_per_access,knocked_out\n"
                         b"1024,3.0\xff,0\n")
        with pytest.raises(CurveFormatError, match="not UTF-8"):
            load_curve(str(path))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("memhier: ")
        assert "not UTF-8" in err[0]


class TestL1Command:
    def test_exact_recovery(self, capsys, cfg_path):
        d = run_json(capsys, ["l1", "--backend", "sim:" + cfg_path,
                              "--window", "3"])
        assert d["l1"] == {"capacity": 32768, "linesize": 64,
                           "associativity": 8, "latency": 3, "flags": []}
        assert d["cache_levels"] == []
        assert d["costs"]["l1"] > 0
        assert d["probes"] == {"l1": {"string_runs": 15}}

    def test_max_assoc_twelve_on_twelve_ways(self, capsys, tmp_path):
        path = tmp_path / "twelve.cfg"
        path.write_text("cache 49152 12 64 5\ncache 2097152 16 64 16\n"
                        "memory 200\n")
        d = run_json(capsys, ["l1", "--backend", "sim:%s" % path,
                              "--window", "3", "--max-assoc", "12"])
        assert (d["l1"]["capacity"], d["l1"]["associativity"],
                d["l1"]["linesize"]) == (48 * KB, 12, 64)
        assert d["parameters"]["max_assoc"] == 12

    def test_out_file(self, tmp_path, cfg_path):
        out = tmp_path / "report.json"
        assert main(["l1", "--backend", "sim:" + cfg_path, "--window", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["l1"]["capacity"] == 32768


@pytest.mark.parametrize("argv", [
    ["l1", "--window", "3"],
    ["cache", "--window", "3", "--ub", str(256 * KB), "--format", "csv"],
], ids=["json", "csv"])
def test_out_file_holds_what_stdout_prints(capsys, monkeypatch, tmp_path,
                                           cfg_path, argv):
    # A fixed clock makes every cost 0, so two runs print the same text.
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    argv = argv + ["--backend", "sim:" + cfg_path]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert printed.endswith("\n") and not printed.endswith("\n\n")


class TestCacheCommand:
    def test_levels_and_schema(self, capsys, cfg_path):
        d = run_json(capsys, ["cache", "--backend", "sim:" + cfg_path,
                              "--window", "3", "--ub", str(2048 * KB)])
        assert set(d) == {"machine", "l1", "cache_levels", "tlb_levels",
                          "tlb_suspects", "costs", "probes", "parameters",
                          "warnings"}
        assert d["l1"] is None
        # On an exact backend each of the 40 points runs once; the bottom
        # one and the two on either side of each rise (L1, TLB, L2) stay
        # active, and the other 33 are knocked out.  The bottom point and
        # the one below the L1 rise read the floor, and the other five span
        # whole pages, whose kinds the simulator finds seed-free, so none
        # of the seven runs again.
        assert d["probes"] == {"cache": {"string_runs": 40,
                                         "knocked_out": 33, "revivals": 0}}
        assert d["tlb_suspects"] == []
        assert d["parameters"]["max_assoc"] is None
        assert d["cache_levels"] == [
            {"level": 1, "effective_capacity": 32 * KB, "latency": 3},
            {"level": 2, "effective_capacity": 512 * KB, "latency": 15}]

    def test_revivals_under_jitter(self, capsys, cfg_path, monkeypatch):
        make_backend = cli._make_backend

        def jittered(spec):
            backend, config = make_backend(spec)
            return JitterBackend(backend, seed=1), config

        monkeypatch.setattr(cli, "_make_backend", jittered)
        d = run_json(capsys, ["cache", "--backend", "sim:" + cfg_path,
                              "--window", "3", "--ub", str(2048 * KB)])
        assert d["probes"]["cache"]["revivals"] > 0

    def test_csv_format_is_curve(self, capsys, cfg_path):
        rc = main(["cache", "--backend", "sim:" + cfg_path, "--window", "3",
                   "--ub", str(256 * KB), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == \
            "footprint_bytes,cycles_per_access,knocked_out"


class TestTlbCommand:
    def test_levels(self, capsys, cfg_path):
        d = run_json(capsys, ["tlb", "--backend", "sim:" + cfg_path,
                              "--window", "3", "--ub", str(2048 * KB)])
        assert d["tlb_levels"] == [
            {"level": 1, "capacity": 64 * 4096, "entries": 64}]
        assert d["parameters"]["max_assoc"] is None
        # The sweep's 29 points run once.  Its bottom one and the one below
        # the rise read the floor, and the 80 pages of the one above it miss
        # the 64-entry TLB on every access, the least a T(1,k) string of
        # more pages than entries reads, so none runs again.  The suspect's
        # confirmation runs 17: each T(n, boundary) reads the floor and
        # runs once.
        assert d["probes"] == {"tlb": {"string_runs": 29 + 17,
                                       "knocked_out": 26, "revivals": 0}}
        [suspect] = d["tlb_suspects"]
        measured = suspect.pop("measured")
        assert suspect == {"footprint": 80 * 4096, "boundary": 64 * 4096,
                           "confirming_n": [2, 3, 4], "confirmed": True,
                           "string_runs": 17}
        assert [set(m) for m in measured] == [{"n", "before", "after"}] * 3
        assert [m["n"] for m in measured] == [2, 3, 4]
        assert all(m["before"] == 3.0 < m["after"] - 0.5 for m in measured)


@pytest.mark.parametrize("command, ran", [
    ("l1", {"l1"}), ("cache", {"cache"}), ("tlb", {"tlb"}),
    ("all", {"l1", "cache", "tlb"}),
], ids=["l1", "cache", "tlb", "all"])
def test_costs_time_each_probe_that_ran(capsys, cfg_path, command, ran):
    d = run_json(capsys, [command, "--backend", "sim:" + cfg_path,
                          "--window", "2", "--ub", str(1024 * KB)])
    assert set(d["costs"]) == ran | {"total"}
    assert all(seconds > 0 for seconds in d["costs"].values())


class TestSimulateCommand:
    def test_full_characterization(self, capsys, cfg_path):
        d = run_json(capsys, ["simulate", cfg_path, "--window", "3",
                              "--ub", str(2048 * KB)])
        assert d["l1"]["capacity"] == 32 * KB
        assert [lv["effective_capacity"] for lv in d["cache_levels"]] == \
            [32 * KB, 512 * KB]
        assert d["tlb_levels"][0]["entries"] == 64
        assert d["warnings"] == []
        assert d["costs"]["total"] > 0
        assert d["parameters"]["window"] == 3
        assert sorted(d["probes"]) == ["cache", "l1", "tlb"]

    def test_readme_config_tlb_suspects(self, capsys, cfg_path):
        d = run_json(capsys, ["simulate", cfg_path, "--window", "3",
                              "--ub", "4194304"])
        assert d["tlb_levels"] == [
            {"level": 1, "capacity": 64 * 4096, "entries": 64}]
        tlb, l1_edge = d["tlb_suspects"]
        assert (tlb["boundary"], tlb["footprint"]) == (64 * 4096, 80 * 4096)
        assert tlb["confirmed"] and tlb["confirming_n"] == [2, 3, 4]
        assert [m["n"] for m in tlb["measured"]] == [2, 3, 4]
        # The L1 edge: T(2,k) misses the L1 at the boundary already, so
        # n = 2 shows no rise and confirmation stops there.
        assert (l1_edge["boundary"], l1_edge["footprint"]) == \
            (2 * 1024 * KB, 2560 * KB)
        assert not l1_edge["confirmed"] and l1_edge["confirming_n"] == []
        assert [m["n"] for m in l1_edge["measured"]] == [2]
        assert 0 < l1_edge["string_runs"] < tlb["string_runs"]


class TestAnalyzeCommand:
    def test_two_plateau_curve(self, capsys, tmp_path):
        lines = ["footprint_bytes,cycles_per_access,knocked_out"]
        for kb in (1, 2, 3, 4, 8, 16, 32):
            lines.append("%d,3.0,0" % (kb * KB))
        for kb in (40, 48, 64, 128, 256):
            lines.append("%d,17.0,0" % (kb * KB))
        path = tmp_path / "curve.csv"
        path.write_text("\n".join(lines) + "\n")
        d = run_json(capsys, ["analyze", str(path)])
        assert d["levels"] == [
            {"level": 1, "effective_capacity": 32 * KB, "latency": 3}]

    def test_format_is_a_usage_error(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("footprint_bytes,cycles_per_access,knocked_out\n")
        assert main(["analyze", str(path), "--format", "csv"]) == 2
        assert main(["analyze", str(path), "--format", "json"]) == 2


#: CSV-like text: rows shaped like curve rows (footprint, any float
#: spelling, knockout flag), at most one junk row, sometimes a header.
_value = st.one_of(st.floats().map(repr),
                   st.sampled_from(["nan", "inf", "-inf", "-0.0"]),
                   st.integers(0, 200).map(str))
_row = st.tuples(st.integers(-2**40, 2**40).map(str), _value,
                 st.sampled_from(["0", "1", "2", "-1"])).map(",".join)
_junk = st.one_of(st.lists(st.one_of(_value, st.text(max_size=3)),
                           max_size=4).map(",".join),
                  st.text(max_size=8))


@st.composite
def _curve_text(draw):
    rows = draw(st.lists(_row, max_size=12))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_junk))
    if draw(st.booleans()):
        rows.insert(0, "footprint_bytes,cycles_per_access,knocked_out")
    return "\n".join(rows)


@settings(max_examples=300, deadline=None)
@given(text=_curve_text())
def test_analyze_fuzz_exits_0_or_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["analyze", path]) in (0, 1)
