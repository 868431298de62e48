import json

import pytest

from linnik import cli


def run(argv):
    return cli.main(argv)


class TestEvaluateCommand:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        args = [
            "evaluate", "--N", "300", "--k", "2", "--zeros", "bundled",
            "--Z", "10", "--L", "3", "--M", "2", "--out", str(out),
        ]
        assert run(args) == 0
        data1 = out.read_bytes()
        header = data1.decode().splitlines()[0]
        assert header == (
            "N,k,lhs,m1,m2,m3,m4,residual,normalized_residual,slope_na"
        )
        rows = data1.decode().splitlines()
        assert len(rows) == 2
        assert rows[1].endswith(",na")
        assert run(args) == 0
        assert out.read_bytes() == data1
        summary = capsys.readouterr().out
        assert "N=300" in summary

    def test_json_mirrors_csv_fields(self, tmp_path):
        out = tmp_path / "r.json"
        assert run([
            "evaluate", "--N", "300", "--k", "2", "--Z", "10", "--L", "3",
            "--M", "2", "--out", str(out), "--format", "json",
        ]) == 0
        doc = json.loads(out.read_text())
        row = doc["rows"][0]
        assert list(row) == [
            "N", "k", "lhs", "m1", "m2", "m3", "m4", "residual",
            "normalized_residual", "slope_na",
        ]
        assert row["slope_na"] == "na"

    def test_subcritical_gate(self, tmp_path):
        out = tmp_path / "r.csv"
        base = ["evaluate", "--N", "300", "--k", "1.2", "--Z", "5", "--L", "3",
                "--M", "2", "--out", str(out)]
        assert run(base) == cli.EXIT_DATA
        assert run(base + ["--allow-subcritical"]) == 0


class TestScanCommand:
    def test_three_point_scan_with_plot_data(self, tmp_path):
        out = tmp_path / "scan.csv"
        plot = tmp_path / "plot.csv"
        assert run([
            "scan", "--N-list", "200,300,400", "--k", "2", "--Z", "10",
            "--L", "3", "--M", "2", "--out", str(out), "--plot-data", str(plot),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        slope_field = lines[1].split(",")[-1]
        assert slope_field not in ("na", "")
        plot_lines = plot.read_text().splitlines()
        assert plot_lines[0] == "log_N,log_abs_residual"
        assert len(plot_lines) == 4

    def test_single_N_is_usage_error(self, tmp_path):
        assert run(["scan", "--N-list", "500", "--out", str(tmp_path / "s.csv")]) == 1

    def test_malformed_N_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["scan", "--N-list", "500,abc,2000", "--out", str(out)]) == 1
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_sizes_the_cutoffs_as_evaluate_does(self, tmp_path):
        # both commands pick L and M for the given tol (here L = 32, M = 9),
        # not for the default tol with tol replaced afterwards
        scan_out, eval_out = tmp_path / "scan.csv", tmp_path / "eval.csv"
        opts = ["--k", "2", "--Z", "2", "--tol", "1.0"]
        assert run(["scan", "--N-list", "300,400,500", *opts, "--out", str(scan_out)]) == 0
        assert run(["evaluate", "--N", "500", *opts, "--out", str(eval_out)]) == 0
        scan_row = scan_out.read_text().splitlines()[3].split(",")
        eval_row = eval_out.read_text().splitlines()[1].split(",")
        assert scan_row[:-1] == eval_row[:-1]

    def test_synthetic_selftest(self):
        assert run(["scan", "--synthetic-selftest"]) == 0


class TestZerosCommand:
    def test_validate_bundled(self, capsys):
        assert run(["zeros", "validate", "bundled"]) == 0
        assert "count=100" in capsys.readouterr().out

    def test_info(self, capsys):
        assert run(["zeros", "info"]) == 0
        out = capsys.readouterr().out
        first = float(out.split("gamma_first=")[1].split()[0])
        assert 14.0 < first < 14.3

    def test_fetch_and_cache(self, tmp_path, capsys):
        assert run([
            "zeros", "fetch", "--source", "bundled", "--limit", "100",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert "fetched 100 zeros" in capsys.readouterr().out
        cached = list(tmp_path.glob("bundled_100.txt"))
        assert len(cached) == 1
        data = cached[0].read_bytes()
        assert run([
            "zeros", "fetch", "--source", "bundled", "--limit", "100",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert cached[0].read_bytes() == data

    def test_fetch_unknown_source(self, tmp_path):
        assert run([
            "zeros", "fetch", "--source", "missing", "--cache-dir", str(tmp_path),
        ]) == cli.EXIT_DATA

    def test_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("14.2\n13.0\n")
        assert run(["zeros", "validate", str(bad)]) == cli.EXIT_DATA


class TestProbeCommand:
    def test_probe_csv(self, tmp_path):
        out = tmp_path / "probe.csv"
        assert run([
            "probe", "--d", "2", "--k", "1.75", "--N", "100", "--Z", "5",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "zeros_included,partial_sum"
        assert len(lines) == 6
        sums = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a >= 0.0 for a, b in zip(sums, sums[1:]))

    def test_probe_stdout_and_determinism(self, capsys):
        assert run(["probe", "--d", "1", "--k", "1.0", "--N", "50", "--Z", "3"]) == 0
        first = capsys.readouterr().out
        assert run(["probe", "--d", "1", "--k", "1.0", "--N", "50", "--Z", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_probe_empty_zero_table(self, tmp_path, capsys):
        empty = tmp_path / "none.txt"
        empty.write_text("")
        assert run([
            "probe", "--d", "2", "--k", "1.75", "--N", "100",
            "--zeros", str(empty),
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["zeros_included,partial_sum"]


class TestSelftestCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        assert run(["selftest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in doc["checks"])
        assert {c["name"] for c in doc["checks"]} == {
            "theta_modularity", "laplace_identity", "bessel_recurrence",
            "rq_oracle", "zeros_bundled",
        }

    def test_corrupted_zero_table_fails_by_name(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "zeros100.txt"
        bad.write_text("14.134725141\n21.022\n")
        from linnik import zeros as zeros_mod

        monkeypatch.setattr(zeros_mod, "bundled_zeros_path", lambda: bad)
        code = run(["selftest"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_DATA
        assert "FAIL zeros_bundled" in out
        assert "first failing check: zeros_bundled" in out


class TestBesselCommand:
    def test_single_evaluation(self, capsys):
        assert run([
            "bessel", "--nu-re", "3.5", "--nu-im", "14.1347", "--u", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy=series bits=80 terms=0" in out

    def test_auto_past_the_series_crossover(self, capsys):
        assert run(["bessel", "--nu-re", "3", "--nu-im", "49.77", "--u", "1192.4"]) == 0
        out = capsys.readouterr().out
        assert "strategy=hankel bits=94 terms=26" in out

    def test_real_order_past_the_kernel_line(self, capsys):
        assert run(["bessel", "--nu-re", "4", "--u", "1405"]) == 0
        out = capsys.readouterr().out
        assert "J(4+0i, 1405) = -0.021231720412482707 + 0i" in out
        assert "strategy=hankel bits=90 terms=9" in out

    def test_usage_error_exit_code(self):
        assert run(["bessel", "--u", "10"]) == 1
        # the path is chosen from (u, |nu|) alone; there is no override
        base = ["bessel", "--nu-re", "3", "--nu-im", "49.77", "--u", "1192.4"]
        assert run(base + ["--strategy", "series"]) == 1
        assert run(base + ["--tol", "1e-20"]) == 1
