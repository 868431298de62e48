import csv
import json
import math

import pytest

from linnik import arithmetic, cli, formula
from linnik.zeros import compute_zeros, load_zeros


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

    @pytest.mark.parametrize("opts, code, message", [
        (["--k", "114"], cli.EXIT_DATA, "validation error: the default tol"),
        (["--k", "400", "--tol", "1"], cli.EXIT_DATA, "validation error: the default tol"),
        (["--k", "113"], cli.EXIT_NUMERIC, "numeric error: m2: "),
        (["--k", "400", "--tol", "1", "--Z", "0", "--L", "3", "--M", "3"], cli.EXIT_NUMERIC,
         "numeric error: lhs: "),
    ], ids=["tol", "cutoff_rule", "m2", "lhs"])
    def test_k_past_double_range_is_a_typed_error(self, tmp_path, capsys, opts, code, message):
        # --k 112 still evaluates at N = 500
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--N", "500", *opts, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


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

    @pytest.mark.parametrize("n_list, k", [("500,1000,2000", "400"), ("500,500,500", "2")])
    def test_k_past_double_range_or_a_repeated_N_is_a_validation_error(
        self, tmp_path, capsys, n_list, k
    ):
        out = tmp_path / "s.csv"
        assert run(["scan", "--N-list", n_list, "--k", k, "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("validation error:")
        assert not out.exists()

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

    def test_a_grown_table_writes_the_bytes_of_separate_runs(self, tmp_path, cold_memos):
        # scan grows one r_Q table over its N list; each evaluate here starts
        # with no table (c10)
        fields = ("lhs", "m1", "m2", "m3", "m4")
        tables_for = formula._tables_for
        cold_memos(tables_for)
        scan_out = tmp_path / "scan.csv"
        assert run(["scan", "--N-list", "500,1000,2000", "--k", "2", "--Z", "2",
                    "--out", str(scan_out)]) == 0
        with scan_out.open(newline="") as f:
            scanned = [[row[k] for k in fields] for row in csv.DictReader(f)]
        separate = []
        for N in (500, 1000, 2000):
            tables_for.cache.clear()
            out = tmp_path / f"eval{N}.csv"
            assert run(["evaluate", "--N", str(N), "--k", "2", "--Z", "2",
                        "--out", str(out)]) == 0
            with out.open(newline="") as f:
                separate += [[row[k] for k in fields] for row in csv.DictReader(f)]
        assert scanned == separate

    def test_removed_fit_flag_is_a_usage_error(self):
        # the fit it ran is the selftest check loglog_fit
        assert run(["scan", "--synthetic-selftest"]) == 1


class TestZerosCommand:
    def test_validate_bundled(self, capsys):
        assert run(["zeros", "validate", "bundled"]) == 0
        assert "count=100" in capsys.readouterr().out

    def test_info(self, capsys):
        assert run(["zeros", "info"]) == 0
        out = capsys.readouterr().out
        first = float(out.split("gamma_first=")[1].split()[0])
        assert 14.0 < first < 14.3

    def test_compute_writes_a_loadable_table(self, tmp_path, capsys):
        out = tmp_path / "zeros5.txt"
        assert run(["zeros", "compute", "--count", "5", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert run(["zeros", "compute", "--count", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == data
        assert run(["zeros", "validate", str(out)]) == 0
        assert "count=5" in capsys.readouterr().out
        assert load_zeros(out).gammas() == compute_zeros(5).gammas()

    def test_compute_count_zero(self):
        assert run(["zeros", "compute", "--count", "0"]) == cli.EXIT_DATA

    def test_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("14.2\n13.0\n")
        assert run(["zeros", "validate", str(bad)]) == cli.EXIT_DATA

    def test_validate_two_column_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "beta.txt"
        bad.write_text("14.134725141\n21.022039638 0.5\n")
        assert run(["zeros", "validate", str(bad)]) == cli.EXIT_DATA
        assert "data error: line 2: expected 1 column, got 2" in capsys.readouterr().err


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

    def test_removed_cut_flag_is_a_usage_error(self):
        # the integral is always cut at v = min(gamma, 40)
        base = ["probe", "--d", "2", "--k", "1.75", "--N", "100", "--Z", "2"]
        assert run(base) == 0
        assert run(base + ["--vmax", "40"]) == 1

    def test_negative_zero_count_is_a_validation_error(self, capsys):
        base = ["probe", "--d", "2", "--k", "1.75", "--N", "100"]
        assert run(base + ["--Z", "-1"]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err

    def test_nonpositive_N_is_a_validation_error(self, capsys):
        for N in ("0", "-5"):
            assert run(["probe", "--d", "2", "--k", "1.75", "--N", N, "--Z", "2"]) == cli.EXIT_DATA
            assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("d, k, code, message", [
        ("2", "200", cli.EXIT_DATA, "validation error: probe term at gamma"),
        ("2", "400", cli.EXIT_DATA, "validation error: probe term at gamma"),
        ("1", "50", cli.EXIT_NUMERIC, "numeric error: probe term at gamma = 14.13"),
        ("2", "20", cli.EXIT_NUMERIC, "numeric error: probe term at gamma = 14.13"),
    ], ids=["200", "400", "d1-k50", "d2-k20"])
    def test_k_past_double_range_is_a_validation_error(self, capsys, d, k, code, message):
        # at k = 400 the closed-form part overflows at the first zero; at
        # k = 200 v^{k+1/2} does inside the integrand, at gamma = 37.6, after
        # terms the quadrature cannot resolve. Below double range, at d = 1,
        # k = 50 and d = 2, k = 20, the closed-form part and the remainder
        # cancel below the quadrature's tolerance at the first zero: a term
        # there is a numeric error, not a value
        assert run(["probe", "--d", d, "--k", k, "--N", "100", "--Z", "10"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


class TestSelftestCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "PASS loglog_fit" in out
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        assert run(["selftest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in doc["checks"])
        assert {c["name"] for c in doc["checks"]} == {
            "theta_modularity", "laplace_identity", "bessel_recurrence",
            "rq_oracle", "zeros_bundled", "loglog_fit",
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

    def test_rq_oracle_fails_on_a_wrong_convolution(self, monkeypatch, capsys):
        def skip_l1(src, out, first=0):
            # every square but l = 1
            for l in range(2, math.isqrt(max(len(out) - 2, 0)) + 1):
                sq = l * l
                lo = max(first, sq + 1)
                out[lo:] += src[lo - sq : len(out) - sq]

        monkeypatch.setattr(arithmetic, "_add_one_square", skip_l1)
        code = run(["selftest"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_NUMERIC
        assert "FAIL rq_oracle" in out


class TestBesselCommand:
    def test_single_evaluation(self, capsys):
        assert run([
            "bessel", "--nu-re", "3.5", "--nu-im", "14.1347", "--u", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy=series bits=130 terms=30" in out

    def test_auto_past_the_series_crossover(self, capsys):
        assert run(["bessel", "--nu-re", "3", "--nu-im", "49.77", "--u", "1192.4"]) == 0
        out = capsys.readouterr().out
        assert "strategy=hankel bits=94 terms=26" in out

    def test_real_order_past_the_kernel_line(self, capsys):
        assert run(["bessel", "--nu-re", "4", "--u", "1405"]) == 0
        out = capsys.readouterr().out
        assert "J(4+0i, 1405) = -0.021231720412482707 + 0i" in out
        assert "strategy=hankel bits=90 terms=9" in out

    def test_magnitude_past_double_range_is_a_numeric_error(self, capsys):
        assert run(["bessel", "--nu-re", "2.5", "--nu-im", "460", "--u", "5000"]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: J_nu(u) magnitude exceeds double range")

    def test_usage_error_exit_code(self):
        assert run(["bessel", "--u", "10"]) == 1
        # the path is chosen from (u, |nu|) alone; there is no override
        base = ["bessel", "--nu-re", "3", "--nu-im", "49.77", "--u", "1192.4"]
        assert run(base + ["--strategy", "series"]) == 1
        assert run(base + ["--tol", "1e-20"]) == 1


class TestOutputBytes:
    """The bytes each command writes, to its files and to stdout, pinned.
    A change that keeps every value keeps these; c10 checks only that a
    rerun agrees with itself."""

    EVALUATE_STDOUT = (
        "N=700 k=2.2000000000000002 residual=-217107274.7085228 "
        "normalized_residual=-0.17074997459925559\n"
        "note: m2 tail bound 4.769e+03 exceeds tol 5.000e+01\n"
        "note: m3 tail bound 1.537e+06 exceeds tol 5.000e+01\n"
        "note: m4 tail bound 1.609e+06 exceeds tol 5.000e+01\n"
    )
    EVALUATE_FILES = {
        "csv": (
            "N,k,lhs,m1,m2,m3,m4,residual,normalized_residual,slope_na\n"
            "700,2.2000000000000002,19349005383.086723,19566346464.389111,"
            "-231439.21159356704,-2.0644796367321803,-2365.3177909270776,"
            "-217107274.7085228,-0.17074997459925559,na\n"
        ),
        "json": (
            '{"rows": [{"N": 700, "k": 2.2000000000000002, "lhs": 19349005383.086723, '
            '"m1": 19566346464.389111, "m2": -231439.21159356704, '
            '"m3": -2.0644796367321803, "m4": -2365.3177909270776, '
            '"residual": -217107274.7085228, "normalized_residual": -0.17074997459925559, '
            '"slope_na": "na"}]}\n'
        ),
    }
    SCAN_STDOUT = (
        "N=300 residual=-5689935.5852988064 normalized_residual=-0.21073835501106691\n"
        "note: m2 tail bound 1.206e+04 exceeds tol 2.700e+01\n"
        "note: m3 tail bound 1.283e+05 exceeds tol 2.700e+01\n"
        "note: m4 tail bound 1.768e+06 exceeds tol 2.700e+01\n"
        "N=400 residual=-13753972.708876014 normalized_residual=-0.2149058235761877\n"
        "note: m2 tail bound 3.146e+04 exceeds tol 6.400e+01\n"
        "note: m3 tail bound 2.382e+05 exceeds tol 6.400e+01\n"
        "note: m4 tail bound 3.198e+06 exceeds tol 6.400e+01\n"
        "N=500 residual=-27211478.754304171 normalized_residual=-0.21769183003443338\n"
        "note: m2 tail bound 6.642e+04 exceeds tol 1.250e+02\n"
        "note: m3 tail bound 3.115e+05 exceeds tol 1.250e+02\n"
        "note: m4 tail bound 5.064e+06 exceeds tol 1.250e+02\n"
        "slope=3.0637635196227722\n"
    )
    SCAN_JSON = (
        '{"rows": [{"N": 300, "k": 2, "lhs": 224863329.118871, "m1": 230566120.6766504, '
        '"m2": -13163.532258967702, "m3": -3.325981579576748, "m4": 310.8857599506195, '
        '"residual": -5689935.5852988064, "normalized_residual": -0.21073835501106691, '
        '"slope_na": 3.0637635196227722}, '
        '{"N": 400, "k": 2, "lhs": 729175745.82395101, "m1": 742900898.10013461, '
        '"m2": 28632.79399048199, "m3": -43.821567706160359, "m4": 231.46026962925256, '
        '"residual": -13753972.708876014, "normalized_residual": -0.2149058235761877, '
        '"slope_na": 3.0637635196227722}, '
        '{"N": 500, "k": 2, "lhs": 1810252070.690006, "m1": 1837557195.5142059, '
        '"m2": -94264.640512825368, "m3": -77.070253205841169, "m4": 695.64087042833114, '
        '"residual": -27211478.754304171, "normalized_residual": -0.21769183003443338, '
        '"slope_na": 3.0637635196227722}]}\n'
    )
    SCAN_PLOT = (
        "log_N,log_abs_residual\n"
        "5.7037824746562009,15.554209485352811\n"
        "5.9914645471079817,16.436838264628165\n"
        "6.2146080984221914,17.119149455269664\n"
    )
    STDOUT = {
        "probe": (
            ["probe", "--d", "2", "--k", "1.75", "--N", "100", "--Z", "10"],
            "zeros_included,partial_sum\n"
            "1,0.00010588749943660286\n"
            "2,0.00018908720509471042\n"
            "3,0.00026257368000763039\n"
            "4,0.00032561321599946407\n"
            "5,0.00038463256928389925\n"
            "6,0.00043726753837100617\n"
            "7,0.00048602282655852162\n"
            "8,0.00053227168167022066\n"
            "9,0.00057424626549051156\n"
            "10,0.00061478083843094305\n",
        ),
        "bessel": (
            ["bessel", "--nu-re", "3.5", "--nu-im", "14.1347", "--u", "628.3"],
            "J(3.5+14.1347i, 628.29999999999995) = 63673133.998285413 + -10792740.039449632i\n"
            "strategy=hankel bits=90 terms=17 err_estimate=1.1102230417152761e-16\n",
        ),
        "zeros info": (
            ["zeros", "info"],
            "count=100 gamma_first=14.134725141734695 gamma_last=236.52422966581619\n",
        ),
        "zeros compute": (
            ["zeros", "compute", "--count", "2"],
            "# First 2 zeta zero ordinates from mpmath.zetazero at 80 bits, "
            "rounded to doubles.\n"
            "14.134725141734695\n"
            "21.022039638771556\n",
        ),
    }

    @pytest.mark.parametrize("fmt", sorted(EVALUATE_FILES))
    def test_evaluate(self, tmp_path, capsys, fmt):
        out = tmp_path / f"r.{fmt}"
        assert run(["evaluate", "--N", "700", "--k", "2.2", "--tol", "50", "--L", "9",
                    "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == self.EVALUATE_FILES[fmt].encode()
        assert capsys.readouterr().out == self.EVALUATE_STDOUT

    def test_scan(self, tmp_path, capsys):
        out, plot = tmp_path / "scan.json", tmp_path / "plot.csv"
        assert run(["scan", "--N-list", "300,400,500", "--k", "2", "--Z", "3", "--M", "20",
                    "--format", "json", "--out", str(out), "--plot-data", str(plot)]) == 0
        assert out.read_bytes() == self.SCAN_JSON.encode()
        assert plot.read_bytes() == self.SCAN_PLOT.encode()
        assert capsys.readouterr().out == self.SCAN_STDOUT

    @pytest.mark.parametrize("command", sorted(STDOUT))
    def test_stdout(self, capsys, command):
        argv, expected = self.STDOUT[command]
        assert run(argv) == 0
        assert capsys.readouterr().out == expected
