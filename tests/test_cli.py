import csv

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

    def test_removed_format_and_plot_flags_are_usage_errors(self, tmp_path):
        # the CSV --out file is the one result: JSON restated its rows, and the
        # plot data was log N and log |residual| of its N and residual columns.
        # Both commands take only k > 3/2, so --allow-subcritical is gone too
        out, plot = tmp_path / "r.csv", tmp_path / "p.csv"
        cutoffs = ["--Z", "10", "--L", "3", "--M", "2", "--out", str(out)]
        evaluate = ["evaluate", "--N", "300", "--k", "2", *cutoffs]
        scan = ["scan", "--N-list", "200,300,400", "--k", "2", *cutoffs]
        for argv in (evaluate + ["--format", "json"], scan + ["--plot-data", str(plot)],
                     evaluate + ["--allow-subcritical"], scan + ["--allow-subcritical"]):
            assert run(argv) == cli.EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_subcritical_gate(self, tmp_path, capsys, monkeypatch):
        # evaluate and scan refuse k <= 3/2 before the left side is built
        def build(*args):
            raise AssertionError("left side computed")

        monkeypatch.setattr(arithmetic, "cesaro_lhs", build)
        out = tmp_path / "r.csv"
        for argv in (["evaluate", "--N", "300", "--Z", "5", "--L", "3", "--M", "2"],
                     ["scan", "--N-list", "300,400,500"]):
            assert run(argv + ["--k", "1.2", "--out", str(out)]) == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                "validation error: k = 1.2 is outside the theorem range k > 3/2\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("opts, code, message", [
        (["--N", "500", "--k", "114"], cli.EXIT_DATA, "validation error: the default tol"),
        (["--N", "500", "--k", "400", "--tol", "1"], cli.EXIT_DATA,
         "validation error: the default tol"),
        (["--N", "500", "--k", "113"], cli.EXIT_NUMERIC, "numeric error: m2: "),
        (["--N", "500", "--k", "400", "--tol", "1", "--Z", "0", "--L", "3", "--M", "3"],
         cli.EXIT_NUMERIC, "numeric error: lhs: "),
        (["--N", "20000000", "--k", "2"], cli.EXIT_DATA,
         "validation error: lhs: table limit 20000000 exceeds supported maximum 10000000\n"),
    ], ids=["tol", "cutoff_rule", "m2", "lhs", "sieve_range"])
    def test_k_past_double_range_is_a_typed_error(self, tmp_path, capsys, opts, code, message):
        # --k 112 still evaluates at N = 500
        out = tmp_path / "r.csv"
        assert run(["evaluate", *opts, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("zeros, out", [
        ("{tmp}", "{tmp}/r.csv"),
        ("bundled", "{tmp}/missing/r.csv"),
    ], ids=["table_is_a_directory", "out_in_a_missing_directory"])
    def test_an_unreadable_table_or_unwritable_output_is_a_data_error(
        self, tmp_path, capsys, zeros, out
    ):
        assert run([
            "evaluate", "--N", "300", "--k", "2", "--Z", "5", "--L", "3", "--M", "2",
            "--zeros", zeros.format(tmp=tmp_path), "--out", out.format(tmp=tmp_path),
        ]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: [Errno ")

    def test_a_missing_output_directory_is_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(formula, "evaluate", lambda *a, **kw: calls.append(a))
        out = tmp_path / "missing" / "x.csv"
        assert run(["evaluate", "--N", "300000", "--k", "2", "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert calls == []

    def test_a_directory_output_is_refused_before_the_work(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(formula, "evaluate", lambda *a, **kw: calls.append(a))
        assert run(["evaluate", "--N", "300000", "--k", "2", "--out", str(tmp_path)]) == (
            cli.EXIT_DATA
        )
        assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert calls == []


class TestScanCommand:
    def test_three_point_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run([
            "scan", "--N-list", "200,300,400", "--k", "2", "--Z", "10",
            "--L", "3", "--M", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        slope_field = lines[1].split(",")[-1]
        assert slope_field not in ("na", "")

    def test_a_single_N_is_a_validation_error(self, tmp_path, capsys):
        # scaling_study's refusal, as for a repeated or descending N
        out = tmp_path / "s.csv"
        assert run(["scan", "--N-list", "500", "--k", "2", "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "validation error: scaling study needs at least 3 N values\n"
        )
        assert not out.exists()

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
        assert run(["scan", "--N-list", "500,abc,2000", "--k", "2", "--out", str(out)]) == 1
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_list", ["500,,1000,2000", "500,1000,2000,"])
    def test_an_empty_N_entry_is_usage_error(self, tmp_path, capsys, n_list):
        out = tmp_path / "s.csv"
        assert run(["scan", "--N-list", n_list, "--k", "2", "--Z", "2", "--L", "3", "--M", "2",
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "usage error: --N-list must be comma-separated integers"
        )
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
        # the fit it ran on 0.7 N^3 is test_formula's TestScalingFit.test_synthetic_cubic
        assert run(["scan", "--synthetic-selftest"]) == 1

    @pytest.mark.parametrize("missing", ["--N-list", "--k", "--out"])
    def test_each_of_N_list_k_and_out_is_required(self, tmp_path, capsys, missing):
        given = {"--N-list": "500,1000,2000", "--k": "2", "--out": str(tmp_path / "s.csv")}
        del given[missing]
        assert run(["scan", *(x for item in given.items() for x in item)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: the following arguments are required: {missing}\n"
        )

    def test_a_missing_output_directory_is_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(formula, "scaling_study", lambda *a, **kw: calls.append(a))
        out = tmp_path / "missing" / "s.csv"
        assert run(["scan", "--N-list", "500,1000,2000", "--k", "2", "--Z", "5", "--L", "3",
                    "--M", "2", "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert calls == []

    def test_a_directory_output_is_refused_before_the_work(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(formula, "scaling_study", lambda *a, **kw: calls.append(a))
        out = tmp_path / "s.csv"
        out.mkdir()
        assert run(["scan", "--N-list", "500,1000,2000", "--k", "2", "--Z", "5", "--L", "3",
                    "--M", "2", "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{out}'\n"
        assert calls == []


class TestZerosCommand:
    # zeros info loads a table with every check of load_zeros
    def test_info_bundled(self, capsys):
        assert run(["zeros", "info", "bundled"]) == 0
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
        assert run(["zeros", "info", str(out)]) == 0
        assert "count=5" in capsys.readouterr().out
        assert load_zeros(out).zeros == compute_zeros(5).zeros

    def test_compute_count_zero(self):
        assert run(["zeros", "compute", "--count", "0"]) == cli.EXIT_DATA

    def test_info_bad_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("14.2\n13.0\n")
        assert run(["zeros", "info", str(bad)]) == cli.EXIT_DATA

    def test_info_two_column_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "beta.txt"
        bad.write_text("14.134725141\n21.022039638 0.5\n")
        assert run(["zeros", "info", str(bad)]) == cli.EXIT_DATA
        assert "data error: line 2: expected 1 column, got 2" in capsys.readouterr().err

    def test_info_of_a_missing_file(self, tmp_path, capsys):
        assert run(["zeros", "info", str(tmp_path / "missing.txt")]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: [Errno 2] No such file")

    def test_info_non_utf8_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"14.134725141\n# \xe9\n21.022039638\n")
        assert run(["zeros", "info", str(bad)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: line 2: not UTF-8 text\n"

    def test_removed_validate_command_is_a_usage_error(self):
        # zeros info runs the same checks
        assert run(["zeros", "validate", "bundled"]) == cli.EXIT_USAGE


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

    def test_a_Z_past_the_table_is_refused_as_evaluate_refuses_it(self, tmp_path, capsys):
        # one check, zeros.ZeroSet.check_Z, and one message for every command
        assert run(["probe", "--d", "2", "--k", "1.75", "--N", "100",
                    "--Z", "101"]) == cli.EXIT_DATA
        probe_err = capsys.readouterr().err
        assert run(["evaluate", "--N", "300", "--k", "2", "--Z", "101",
                    "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == probe_err == (
            "validation error: Z = 101 out of range for table of 100 zeros\n"
        )

    @pytest.mark.parametrize("command", [
        ["evaluate", "--N", "300", "--k", "2"],
        ["scan", "--N-list", "200,300,400", "--k", "2"],
        ["probe", "--d", "2", "--k", "1.75", "--N", "100"],
    ], ids=["evaluate", "scan", "probe"])
    def test_a_negative_Z_gets_the_one_message_of_every_command(
        self, tmp_path, capsys, command
    ):
        out = [] if command[0] == "probe" else ["--out", str(tmp_path / "r.csv")]
        assert run([*command, "--Z", "-1", *out]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "validation error: Z = -1 out of range for table of 100 zeros\n"
        )
        assert list(tmp_path.iterdir()) == []

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


def test_removed_selftest_command_is_a_usage_error():
    # each of its checks restated a tier-1 test; CI checks the installed
    # package through zeros info, evaluate, scan and probe
    assert run(["selftest"]) == cli.EXIT_USAGE


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
        "note: m3 unresolved: tail 1.537e+06 > |m3| 2.064e+00\n"
        "note: m4 unresolved: tail 1.609e+06 > |m4| 2.365e+03\n"
    )
    EVALUATE_FILES = {
        "csv": (
            "N,k,lhs,m1,m2,m3,m4,residual,normalized_residual,slope_na\n"
            "700,2.2000000000000002,19349005383.086723,19566346464.389111,"
            "-231439.21159356704,-2.0644796367321803,-2365.3177909270776,"
            "-217107274.7085228,-0.17074997459925559,na\n"
        ),
    }
    SCAN_STDOUT = (
        "N=300 residual=-5689935.5852988064 normalized_residual=-0.21073835501106691\n"
        "note: m2 tail bound 1.206e+04 exceeds tol 2.700e+01\n"
        "note: m3 tail bound 1.283e+05 exceeds tol 2.700e+01\n"
        "note: m4 tail bound 1.768e+06 exceeds tol 2.700e+01\n"
        "note: m3 unresolved: tail 1.283e+05 > |m3| 3.326e+00\n"
        "note: m4 unresolved: tail 1.768e+06 > |m4| 3.109e+02\n"
        "N=400 residual=-13753972.708876014 normalized_residual=-0.2149058235761877\n"
        "note: m2 tail bound 3.146e+04 exceeds tol 6.400e+01\n"
        "note: m3 tail bound 2.382e+05 exceeds tol 6.400e+01\n"
        "note: m4 tail bound 3.198e+06 exceeds tol 6.400e+01\n"
        "note: m2 unresolved: tail 3.146e+04 > |m2| 2.863e+04\n"
        "note: m3 unresolved: tail 2.382e+05 > |m3| 4.382e+01\n"
        "note: m4 unresolved: tail 3.198e+06 > |m4| 2.315e+02\n"
        "N=500 residual=-27211478.754304171 normalized_residual=-0.21769183003443338\n"
        "note: m2 tail bound 6.642e+04 exceeds tol 1.250e+02\n"
        "note: m3 tail bound 3.115e+05 exceeds tol 1.250e+02\n"
        "note: m4 tail bound 5.064e+06 exceeds tol 1.250e+02\n"
        "note: m3 unresolved: tail 3.115e+05 > |m3| 7.707e+01\n"
        "note: m4 unresolved: tail 5.064e+06 > |m4| 6.956e+02\n"
        "slope=3.0637635196227722\n"
    )
    SCAN_CSV = (
        "N,k,lhs,m1,m2,m3,m4,residual,normalized_residual,slope_na\n"
        "300,2,224863329.118871,230566120.6766504,-13163.532258967702,-3.325981579576748,"
        "310.8857599506195,-5689935.5852988064,-0.21073835501106691,3.0637635196227722\n"
        "400,2,729175745.82395101,742900898.10013461,28632.79399048199,"
        "-43.821567706160359,231.46026962925256,-13753972.708876014,-0.2149058235761877,"
        "3.0637635196227722\n"
        "500,2,1810252070.690006,1837557195.5142059,-94264.640512825368,"
        "-77.070253205841169,695.64087042833114,-27211478.754304171,-0.21769183003443338,"
        "3.0637635196227722\n"
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
            "J(3.5+14.1347i, 628.29999999999995) = 63673133.998285413 - 10792740.039449632i\n"
            "strategy=hankel bits=90 terms=17\n",
        ),
        "bessel negative order": (
            ["bessel", "--nu-re", "3.5", "--nu-im", "-14.1347", "--u", "628.3"],
            "J(3.5-14.1347i, 628.29999999999995) = 63673133.998285413 + 10792740.039449632i\n"
            "strategy=hankel bits=90 terms=17\n",
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
                    "--out", str(out)]) == 0
        assert out.read_bytes() == self.EVALUATE_FILES[fmt].encode()
        assert capsys.readouterr().out == self.EVALUATE_STDOUT

    def test_scan(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--N-list", "300,400,500", "--k", "2", "--Z", "3", "--M", "20",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == self.SCAN_CSV.encode()
        assert capsys.readouterr().out == self.SCAN_STDOUT

    @pytest.mark.parametrize("command", sorted(STDOUT))
    def test_stdout(self, capsys, command):
        argv, expected = self.STDOUT[command]
        assert run(argv) == 0
        assert capsys.readouterr().out == expected
