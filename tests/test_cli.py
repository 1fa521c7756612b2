import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memhier import ConfigError, CurveFormatError, load_config
from memhier.cacheprobe import load_curve
from memhier.cli import main

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

    def test_window_must_be_positive(self, capsys, cfg_path):
        for argv in (["l1", "--window", "0"],
                     ["simulate", cfg_path, "--window", "0"],
                     ["tlb", "--backend", "sim:" + cfg_path, "--window", "0"],
                     ["cache", "--backend", "sim:" + cfg_path,
                      "--window", "-3"]):
            assert main(argv) == 2, argv
            assert "is not a positive integer" in capsys.readouterr().err

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
    ], ids=["memory-only-negative", "identity-trailing-word"])
    def test_rejected_config_is_1(self, capsys, tmp_path, text):
        path = tmp_path / "machine.cfg"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("memhier: ")

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
                           "associativity": 8, "latency": 3,
                           "cost": d["l1"]["cost"], "flags": []}
        assert d["cache_levels"] == []
        assert d["costs"]["l1"] > 0

    def test_out_file(self, tmp_path, cfg_path):
        out = tmp_path / "report.json"
        assert main(["l1", "--backend", "sim:" + cfg_path, "--window", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["l1"]["capacity"] == 32768


class TestCacheCommand:
    def test_levels_and_schema(self, capsys, cfg_path):
        d = run_json(capsys, ["cache", "--backend", "sim:" + cfg_path,
                              "--window", "3", "--ub", str(2048 * KB)])
        assert set(d) == {"machine", "l1", "cache_levels", "tlb_levels",
                          "tlb_suspects", "costs", "parameters", "warnings"}
        assert d["l1"] is None
        assert d["tlb_suspects"] == []
        assert d["cache_levels"] == [
            {"level": 1, "effective_capacity": 32 * KB, "latency": 3},
            {"level": 2, "effective_capacity": 512 * KB, "latency": 15}]

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
        [suspect] = d["tlb_suspects"]
        measured = suspect.pop("measured")
        assert suspect == {"footprint": 80 * 4096, "boundary": 64 * 4096,
                           "confirming_n": [2, 3, 4], "confirmed": True}
        assert [set(m) for m in measured] == [{"n", "before", "after"}] * 3
        assert [m["n"] for m in measured] == [2, 3, 4]
        assert all(m["before"] == 3.0 < m["after"] - 0.5 for m in measured)


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
