import contextlib
import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves import cli
from hkcurves.cli import main

G1 = "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z"
NODAL = "y^2*z - x^3 - x^2*z"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_csv_rows(self, capsys):
        code, out, err = run(
            ["compute", "--field", "GF(2)", "--poly", G1, "--nmax", "3", "--threads", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,q,colength"
        assert len(lines) == 5
        assert lines[1] == "0,1,1"
        assert lines[-1].startswith("3,8,")

    def test_linear_form_gives_squares(self, capsys):
        code, out, _ = run(
            ["compute", "--field", "GF(5)", "--poly", "x", "--nmax", "2", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1,1", "1,5,25", "2,25,625"]

    def test_oracle_cross_check_passes(self, capsys):
        code, _, err = run(
            ["compute", "--field", "GF(2)", "--poly", G1, "--nmax", "3",
             "--oracle", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert "oracle agreed" in err

    def test_malformed_poly_exits_2(self, capsys):
        code, _, err = run(
            ["compute", "--field", "GF(5)", "--poly", "x^2 + y^3", "--nmax", "2"],
            capsys,
        )
        assert code == 2
        assert "not homogeneous" in err

    @pytest.mark.parametrize("poly", ["[1,]*x^2+z^2", "[1,,0]*x^2+z^2"],
                             ids=["trailing", "doubled"])
    def test_empty_coefficient_entry_exits_2(self, capsys, poly):
        code, out, err = run(["smoothcheck", "--field", "GF(5)", "--poly", poly], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "coefficient list" in err

    def test_bad_field_exits_2(self, capsys):
        code, _, _ = run(
            ["compute", "--field", "GF(6)", "--poly", "x", "--nmax", "1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("p", [318665857834031151167461, 3317044064679887385961981],
                             ids=["psi12", "psi13"])
    def test_uncertified_characteristic_exits_2(self, capsys, p):
        # composites that pass Miller-Rabin for every base up to 37
        code, out, err = run(
            ["smoothcheck", "--field", f"GF({p})", "--poly", "x^2+y^2+z^2"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "certify" in err

    @pytest.mark.parametrize("argv", [
        ["--poly", "(" * 3000 + "x" + ")" * 3000],
        ["--poly=" + "-" * 3000 + "x"],
    ], ids=["parentheses", "minus-signs"])
    def test_deeply_nested_poly_exits_2(self, capsys, argv):
        code, out, err = run(["smoothcheck", "--field", "GF(2)", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested too deeply" in err

    @pytest.mark.parametrize("poly", ["(x+y+z)^3000", "(x+y+z)^40*(x+y+z)^40"],
                             ids=["power", "product"])
    def test_high_degree_poly_exits_2_at_once(self, capsys, poly):
        start = time.perf_counter()
        code, out, err = run(["smoothcheck", "--field", "GF(5)", "--poly", poly], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds the bound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("poly", ["x^2+y^2+" + "9" * 5000 + "*z^2", "x^" + "9" * 5000],
                             ids=["constant", "exponent"])
    def test_overlong_integer_exits_2(self, capsys, poly):
        code, out, err = run(["smoothcheck", "--field", "GF(5)", "--poly", poly], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "5000 digits" in err

    @pytest.mark.parametrize("poly", ["x^2+y^2+z^2", "x^2+y^2-z^2"], ids=["plus", "minus"])
    def test_characteristic_past_int64_exits_3(self, capsys, poly):
        # 2^63 + 29 is prime: the syzygy route's int64 arithmetic cannot hold it
        code, out, err = run(["compute", "--field", "GF(9223372036854775837)", "--poly", poly,
                              "--nmax", "1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("resource limit:") and "not exact" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1e400", "2.0"])
    def test_non_integer_cache_record_exits_2(self, capsys, tmp_path, value):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"field": "GF(2)", "poly": "x^2 + y*z", "q": %s, "colength": 99}\n' % value)
        code, out, err = run(["compute", "--field", "GF(2)", "--poly", "x^2+y*z", "--nmax", "1",
                              "--cache", str(cache)], capsys)
        assert code == 2 and out == ""
        assert "corrupt cache" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [-5, 2 * 2**2 + 1], ids=["negative", "above-d-q2"])
    def test_impossible_cache_colength_exits_2(self, capsys, tmp_path, value):
        # x^2 + y*z has degree 2, so HK(2) <= 2 * 2^2 = 8
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"field": "GF(2)", "poly": "x^2 + y*z", "q": 2, "colength": %d}\n' % value)
        code, out, err = run(["compute", "--field", "GF(2)", "--poly", "x^2+y*z", "--nmax", "1",
                              "--cache", str(cache)], capsys)
        assert code == 2 and out == ""
        assert f"corrupt cache {cache}" in err and "Traceback" not in err

    def test_cache_colength_at_the_bound_is_read(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"field": "GF(2)", "poly": "x^2 + y*z", "q": 2, "colength": 8}\n')
        code, out, _ = run(["compute", "--field", "GF(2)", "--poly", "x^2+y*z", "--nmax", "1",
                            "--cache", str(cache)], capsys)
        assert code == 0 and out == "n,q,colength\n0,1,1\n1,2,8\n"

    def test_resource_guard_exits_3(self, capsys):
        code, _, err = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "3",
             "--max-q", "25", "--threads", "1"],
            capsys,
        )
        assert code == 3
        assert "resource limit" in err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "hk_sequence", exhausted)
        code, _, err = run(["compute", "--field", "GF(2)", "--poly", G1, "--nmax", "2"], capsys)
        assert code == 3
        assert err == "resource limit: out of memory\n"

    @pytest.mark.parametrize("field,c,nmax", [("GF(2)", "1", 6), ("GF(3)", "2", 4), ("GF(2^2)", "1", 3)])
    def test_constant_form_has_colength_zero(self, capsys, field, c, nmax):
        code, out, _ = run(["compute", "--field", field, "--poly", c, "--nmax", str(nmax)], capsys)
        assert code == 0
        assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["0"] * (nmax + 1)

    def test_plot_csv(self, capsys, tmp_path):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
             "--plot-csv", str(plot), "--out-csv", str(tmp_path / "s.csv"),
             "--threads", "1"],
            capsys,
        )
        assert code == 0
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "kind,x,y,label"
        assert any(line.startswith("sample,5,") for line in lines)
        assert any(line.startswith("candidate,") for line in lines)

    @pytest.mark.parametrize("poly,ratio", [("x", 1.0), ("1", 0.0)])
    def test_plot_csv_without_candidates(self, capsys, tmp_path, poly, ratio):
        # a form of degree <= 1 has no classification candidates
        plot = tmp_path / "plot.csv"
        code, out, err = run(
            ["compute", "--field", "GF(2)", "--poly", poly, "--nmax", "2", "--plot-csv", str(plot)],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.startswith("n,q,colength\n")
        assert plot.read_text() == f"kind,x,y,label\nsample,2,{ratio!r},\nsample,4,{ratio!r},\n"


class TestClassify:
    def test_nodal_cubic_report(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, _, err = run(
            ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "3",
             "--out-json", str(out_json), "--no-timestamp", "--threads", "1"],
            capsys,
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["status"] == "classified"
        assert data["hkm"] == {"num": 7, "den": 3, "decimal": 7 / 3}
        assert data["chosen"]["case"] == "not_semistable"
        assert data["chosen"]["l"] == 1
        assert data["smoothness"] is False
        assert "timestamp" not in data
        assert "not_semistable" in err

    def test_negative_slack_exits_2(self, capsys):
        code, _, err = run(
            ["classify", "--field", "GF(3)", "--poly", "z^4 - x*y*(x+y)*(x+2*y)",
             "--nmax", "2", "--slack", "-1", "--no-timestamp"],
            capsys,
        )
        assert code == 2
        assert "slack" in err

    def test_negative_slack_is_rejected_before_any_sample(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was computed for a rejected slack")

        monkeypatch.setattr(cli, "hk_sequence", refuse)
        cache = tmp_path / "cache.jsonl"
        code, _, err = run(
            ["classify", "--field", "GF(3)", "--poly", "z^4 - x*y*(x+y)*(x+2*y)",
             "--nmax", "6", "--slack", "-1", "--cache", str(cache), "--no-timestamp"],
            capsys,
        )
        assert code == 2
        assert "slack" in err
        assert not cache.exists()

    def test_ambiguous_is_exit_zero(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, _, err = run(
            ["classify", "--field", "GF(2)", "--poly", G1, "--nmax", "2",
             "--out-json", str(out_json), "--no-timestamp", "--threads", "1"],
            capsys,
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["status"] == "ambiguous"
        assert data["hkm"] is None
        assert len(data["top_candidates"]) == 2
        assert "AMBIGUOUS" in err

    def test_reproducible_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
                 "--out-json", str(path), "--no-timestamp", "--threads", "1"],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("field, poly, nmax, digest", [
        ("GF(3)", "x^4+y^4+z^4", "4",
         "20c9079d2dd8c86d07aa225e9d849abab21b0a2de9ce50cf4778e2aad2baef00"),
        ("GF(7)", "x^3+y^3+z^3", "2",
         "f9cff035c7527a2a50ced46666023524da12530ddeb38d98cf39dbfd60c5d254"),
    ], ids=["semistable-not-strongly", "strongly-semistable"])
    def test_report_bytes_are_pinned(self, capsys, field, poly, nmax, digest):
        code, out, _ = run(["classify", "--field", field, "--poly", poly, "--nmax", nmax,
                            "--no-timestamp"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_shared_parser_keeps_no_option_between_calls(self, capsys, tmp_path):
        # main reuses one parser; a path given to one call must not leak into the next
        out_json = tmp_path / "report.json"
        argv = ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2", "--no-timestamp"]
        code, out, _ = run(argv + ["--out-json", str(out_json)], capsys)
        assert code == 0 and out == ""
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == out_json.read_text()
        assert cli.build_parser() is cli.build_parser()

    def test_timestamp_included_by_default(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        run(
            ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
             "--out-json", str(out_json), "--threads", "1"],
            capsys,
        )
        assert "timestamp" in json.loads(out_json.read_text())

    def test_cache_extension_matches_fresh(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        fresh, cached = tmp_path / "fresh.json", tmp_path / "cached.json"
        code, _, _ = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "1",
             "--cache", str(cache), "--out-csv", str(tmp_path / "first.csv"),
             "--threads", "1"],
            capsys,
        )
        assert code == 0 and cache.exists()
        run(
            ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
             "--cache", str(cache), "--out-json", str(cached),
             "--no-timestamp", "--threads", "1"],
            capsys,
        )
        run(
            ["classify", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
             "--out-json", str(fresh), "--no-timestamp", "--threads", "1"],
            capsys,
        )
        assert cached.read_bytes() == fresh.read_bytes()

    def test_torn_last_cache_line_is_dropped(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        argv = ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2",
                "--cache", str(cache), "--threads", "1"]
        code, fresh, _ = run(argv, capsys)
        assert code == 0
        whole = cache.read_text()
        cache.write_text(whole[: whole.rindex('"colength"')])  # cut the last record
        code, out, err = run(argv, capsys)
        assert code == 0 and out == fresh
        assert "torn last line" in err
        assert cache.read_text() == whole  # the record is recomputed and rewritten

    def test_corrupt_cache_line_mid_file_is_input_error(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        argv = ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "1",
                "--cache", str(cache), "--threads", "1"]
        assert run(argv, capsys)[0] == 0
        cache.write_text("{not json\n" + cache.read_text())
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "line 1" in err and "Traceback" not in err


class TestFamily:
    def test_monsky3_agreement(self, capsys):
        code, out, _ = run(["family", "monsky3", "--k", "1", "--nmax", "4",
                            "--threads", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,invariant,predicted,measured,agree"
        assert lines[1] == "2,1,28/9,28/9,true"

    def test_monsky2_shallow_ambiguous(self, capsys):
        code, out, _ = run(["family", "monsky2", "--k", "1", "--nmax", "2",
                            "--threads", "1"], capsys)
        assert code == 0  # ambiguity is not a verification failure
        assert out.strip().splitlines()[1].endswith("ambiguous")

    def test_singular_family(self, capsys):
        code, out, _ = run(
            ["family", "singular", "--d", "3", "--r", "2", "--field", "GF(5)",
             "--nmax", "3", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1].endswith("true")

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run(["family", "monsky9", "--nmax", "2"], capsys)
        assert code == 2

    def test_singular_degree_is_bounded(self, capsys):
        start = time.perf_counter()
        code, out, err = run(["family", "singular", "--d", "20001", "--r", "10001",
                              "--field", "GF(5)", "--nmax", "2"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: singular family degree 20001 exceeds the bound 64")

    def test_singular_needs_parameters(self, capsys):
        code, _, err = run(["family", "singular", "--nmax", "2"], capsys)
        assert code == 2
        assert "singular" in err


class TestSmoothcheck:
    def test_smooth_quartic(self, capsys):
        code, out, _ = run(
            ["smoothcheck", "--field", "GF(2)", "--poly", G1], capsys
        )
        assert code == 0 and out.strip() == "true"

    def test_singular_cubic(self, capsys):
        code, out, _ = run(
            ["smoothcheck", "--field", "GF(5)", "--poly", NODAL], capsys
        )
        assert code == 0 and out.strip() == "false"

    @pytest.mark.parametrize("field, poly", [
        # node at x = [1,256], y = [256,3], z = 1
        pytest.param("GF(257^2)", "[0,256]*x^3 + [3,253]*x^2*z + [8,4]*x*z^2 + y^2*z "
                     "+ [2,251]*y*z^2 + [253,16]*z^3", id="257"),
        # node at x = [1,502], y = [502,3], z = 1
        pytest.param("GF(503^2)", "[0,502]*x^3 + [3,499]*x^2*z + [8,501]*x*z^2 + y^2*z "
                     "+ [2,497]*y*z^2 + [501,10]*z^3", id="503"),
    ])
    def test_nodal_cubic_over_p_squared(self, capsys, field, poly):
        code, out, _ = run(["smoothcheck", "--field", field, "--poly", poly], capsys)
        assert code == 0 and out.strip() == "false"


class TestThreadBudget:
    def test_hk_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HK_THREADS", "2")
        code, out, _ = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "2"], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "2,25,1449"

    def test_hk_threads_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("HK_THREADS", "many")
        code, out, err = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "1"], capsys
        )
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1] == "1,5,55"

    def test_threads_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HK_THREADS", "many")  # not read; --threads is accepted
        code, _, _ = run(
            ["compute", "--field", "GF(5)", "--poly", NODAL, "--nmax", "1",
             "--threads", "2"], capsys
        )
        assert code == 0


class TestUnusablePaths:
    def test_missing_csv_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            ["compute", "--field", "GF(2)", "--poly", G1, "--nmax", "1",
             "--out-csv", str(tmp_path / "missing" / "o.csv")], capsys
        )
        assert code == 2 and err.startswith("error: ")

    def test_missing_json_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            ["classify", "--field", "GF(2)", "--poly", G1, "--nmax", "3",
             "--out-json", str(tmp_path / "missing" / "o.json")], capsys
        )
        assert code == 2 and err.startswith("error: ")

    def test_cache_that_is_a_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            ["compute", "--field", "GF(2)", "--poly", G1, "--nmax", "1",
             "--cache", str(tmp_path)], capsys
        )
        assert code == 2 and err.startswith("error: ")


class TestFuzz:
    """Malformed input ends in a documented exit code, never an escaped exception."""

    VALUES = ["1e400", "-1e400", "NaN", "Infinity", "2.0", "2.5", "true", "false", "null",
              '"8"', '"GF(2)"', "[1, [2, []]]", "{}", "1", "2", "6", "-3"]

    @staticmethod
    def main_quietly(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)), max_size=4),
        tail=st.sampled_from(["\n", "", "torn"]),
        command=st.sampled_from(["compute", "classify"]),
        nmax=st.integers(0, 2),
    )
    def test_cache_files(self, records, tail, command, nmax):
        lines = ['{"field": "GF(2)", "poly": "x^2 + y*z", "q": %s, "colength": %s}' % r
                 for r in records]
        text = "\n".join(lines)
        if tail == "torn":
            text = text[: len(text) // 2]
        elif lines:
            text += tail
        with tempfile.TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "cache.jsonl")
            with open(cache, "w", encoding="utf-8") as fh:
                fh.write(text)
            code = self.main_quietly([command, "--field", "GF(2)", "--poly", "x^2+y*z",
                                      "--nmax", str(nmax), "--cache", cache])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(
        field=st.one_of(st.sampled_from(["GF(2)", "GF(3)", "GF(5)", "GF(2^2)", "GF(3^2)",
                                         "GF(2^2; modulus=1,1,1)"]),
                        st.text(alphabet="GF(2^3;)", max_size=6)),
        # single digits keep every form of degree <= 9 and every example cheap
        poly=st.text(alphabet="xyz+-*^()0123 ", max_size=8).filter(
            lambda s: not any(a.isdigit() and b.isdigit() for a, b in zip(s, s[1:]))),
        command=st.sampled_from(["compute", "classify"]),
        nmax=st.integers(0, 2),
    )
    def test_field_and_poly_texts(self, field, poly, command, nmax):
        code = self.main_quietly([command, "--field", field, "--poly", poly, "--nmax", str(nmax)])
        assert code in (0, 2, 3, 4)
