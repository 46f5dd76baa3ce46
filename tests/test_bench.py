import csv
import re

import numpy as np
import pytest

import sfma.cli
import sfma.power
import sfma.verify
from sfma.bench import (
    CSV_HEADER,
    ConfigError,
    ReportRow,
    RunReport,
    ScenarioConfig,
    drop_inputs,
    emit_csv,
    evaluate_drop,
    run_sweep,
)
from sfma.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_INFEASIBLE, EXIT_OK, cli_main
from sfma.power import ConvergenceError, solve
from sfma.semantic_rate import InterferenceProfile, save_rho_table

TINY = dict(user_counts=(4,), p_max_dbw=(30.0,), drops=3, root_seed=5)


def stall_one_drop(monkeypatch, config, drop):
    """Make the rate floors of one drop of ``config`` raise ConvergenceError.

    The drop is told apart by its users' gains, so a forked worker process
    stalls the same drop.
    """
    m = config.user_counts[0]
    gains = {u.link.gain for u in drop_inputs(config, m, 0, drop)[0]}
    floors = sfma.power._rate_floors

    def stalled(arrs, *args, **kwargs):
        if gains.intersection(arrs.gain.ravel().tolist()):
            raise ConvergenceError("rate floor stalled in groups [0]")
        return floors(arrs, *args, **kwargs)

    monkeypatch.setattr(sfma.power, "_rate_floors", stalled)


def logged_custom_table(tmp_path, monkeypatch):
    """A custom rho table in ``tmp_path``, and a file that logs each read of it.

    The log is a file, so that reads in forked workers count too.
    """
    bundled = InterferenceProfile.default_table()
    path = tmp_path / "rho.csv"
    save_rho_table(InterferenceProfile.from_table(bundled.power_axis_dbw, bundled.snr_axis_db,
                                                  0.5 * bundled.values), path)
    reads = tmp_path / "reads.txt"
    load = sfma.bench.load_rho_table

    def logged(table_path):
        with open(reads, "a") as handle:
            handle.write(f"{table_path}\n")
        return load(table_path)

    monkeypatch.setattr(sfma.bench, "load_rho_table", logged)
    return path, reads


class TestConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.user_counts == (10, 20, 30, 40, 50, 60)
        assert cfg.p_max_dbw == (30.0,)

    def test_from_text(self):
        cfg = ScenarioConfig.from_text(
            """
            # scenario
            user_counts = 4, 6
            p_max_dbw = 20, 30
            alpha = 0.2
            drops = 7
            fading = true
            rho_kind = constant
            rho_constant = 0.5
            """
        )
        assert cfg.user_counts == (4, 6)
        assert cfg.p_max_dbw == (20.0, 30.0)
        assert cfg.alpha == 0.2
        assert cfg.drops == 7
        assert cfg.fading is True
        assert cfg.build_profile().constant_value == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioConfig.from_text("alpa = 0.2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ScenarioConfig.from_text("alpha = 0.2\nalpha = 0.3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            ScenarioConfig.from_text("drops = many\n")

    def test_odd_user_count_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(user_counts=(5,))

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("fading = maybe\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioConfig.from_file(tmp_path / "absent.cfg")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            ScenarioConfig.from_text("alpha 0.2\n")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(workers=0)

    @pytest.mark.parametrize("field, value", [
        ("noise_dbw", float("nan")),
        ("alpha", float("inf")),
        ("alpha", -0.1),
        ("delta_max", float("inf")),
        ("min_rate", float("nan")),
        ("p_max_dbw", (30.0, float("nan"))),
        ("rho_constant", float("nan")),
        ("area_side_m", float("-inf")),
        ("area_side_m", 0.0),
        ("area_side_m", -1.0),
        ("shadow_sigma_db", -0.5),
        ("fnoma_eta", 0.0),
        ("fnoma_eta", 1.0),
        ("fnoma_eta", 1.5),
        ("root_seed", -1),
        # integer fields take integers, not floats or bools
        ("drops", 2.5),
        ("drops", True),
        ("workers", 1.5),
        ("root_seed", 1.5),
        ("frame_window", 2.5),
        ("user_counts", (10.7,)),
        ("user_counts", (4, True)),
    ])
    def test_bad_scenario_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("rho_limit", 2.0), ("rho_power_ref_w", 0.0)])
    def test_bad_parametric_rho_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(rho_kind="parametric", **{field: value})

    @pytest.mark.parametrize("text", [None, "power,snr\n0,1\n"])
    def test_bad_rho_table_rejected(self, tmp_path, text):
        # a missing file and a table with a non-numeric header alike
        path = tmp_path / "rho.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match="rho.csv"):
            ScenarioConfig(rho_table=str(path))

    def test_nan_rho_table_rejected(self, tmp_path, capsys):
        path = tmp_path / "rho.csv"
        path.write_text(",0,10\n0,nan,0.4\n")
        with pytest.raises(ConfigError, match="rho.csv: table rho values must be finite"):
            ScenarioConfig(rho_table=str(path))
        # a config error, not an infeasible instance
        assert cli_main(["solve", "--users", "10", "--seed", "1", "--rho-table", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_bad_constant_rho_rejected(self):
        with pytest.raises(ConfigError, match="constant rho"):
            ScenarioConfig(rho_kind="constant", rho_constant=1.5)


class TestRunSweep:
    def test_one_record_per_scheme(self):
        cfg = ScenarioConfig(user_counts=(2,), p_max_dbw=(30.0,), drops=1, root_seed=3)
        report = run_sweep(cfg)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.drops + row.infeasible == 1

    def test_deterministic(self):
        cfg = ScenarioConfig(**TINY)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.rows == b.rows

    def test_cell_count(self):
        cfg = ScenarioConfig(user_counts=(4, 6), p_max_dbw=(25.0, 30.0), drops=1, root_seed=2)
        report = run_sweep(cfg)
        assert len(report.rows) == 2 * 2 * 4

    def test_same_support_across_schemes(self):
        cfg = ScenarioConfig(**TINY)
        report = run_sweep(cfg)
        drops = {r.scheme: (r.drops, r.infeasible) for r in report.rows}
        assert len(set(drops.values())) == 1

    def test_aggregation_matches_records(self):
        cfg = ScenarioConfig(user_counts=(4,), p_max_dbw=(30.0,), drops=5, root_seed=9,
                             keep_records=True)
        report = run_sweep(cfg)
        assert len(report.records) == 5
        feasible = [r for r in report.records if r.feasible]
        for scheme in ("sfma", "fnoma", "ojscc", "ofdma"):
            row = report.row(scheme, 4, 30.0)
            values = np.array([r.rates[scheme] for r in feasible])
            assert row.drops == len(feasible)
            if values.size:
                assert abs(row.mean_sum_rate - float(np.mean(values))) < 1e-12
                assert abs(row.std_sum_rate - float(np.std(values))) < 1e-12

    def test_parallel_matches_serial(self):
        serial = run_sweep(ScenarioConfig(**TINY, workers=1))
        parallel = run_sweep(ScenarioConfig(**TINY, workers=2))
        assert serial.rows == parallel.rows

    def test_custom_table_read_once_per_sweep(self, tmp_path, monkeypatch):
        path, reads = logged_custom_table(tmp_path, monkeypatch)
        reports = {}
        for workers in (1, 2):
            reads.write_text("")
            reports[workers] = run_sweep(ScenarioConfig(**TINY, rho_kind="table", rho_table=str(path),
                                                        workers=workers))
            assert reads.read_text() == f"{path}\n"
        assert reports[1].rows == reports[2].rows
        # the custom table is the one the drops ran on
        assert reports[1].row("sfma", 4, 30.0) != run_sweep(ScenarioConfig(**TINY)).row("sfma", 4, 30.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_convergence_error_is_one_numerics_drop(self, monkeypatch, workers):
        config = ScenarioConfig(**TINY, workers=workers, keep_records=True)
        clean = run_sweep(config)
        stall_one_drop(monkeypatch, config, 1)
        report = run_sweep(config)
        assert [(o.drop_index, o.feasible, o.stage) for o in report.numerics] == [(1, False, "numerics")]
        assert [o.stage for o in report.records] == [None, "numerics", None]
        kept = [clean.records[0], clean.records[2]]
        for row in report.rows:
            assert (row.drops, row.infeasible) == (2, 1)
            values = [o.rates[row.scheme] for o in kept]
            assert row.mean_sum_rate == pytest.approx(np.mean(values), rel=1e-12)
        assert clean.numerics == []

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_evaluate_drop_solves_the_drop_inputs(self, kind):
        # one frame index for all, so pairing cannot fail and the rates are numbers
        config = ScenarioConfig(user_counts=(10,), p_max_dbw=(25.0, 30.0), root_seed=7, rho_kind=kind,
                                rho_constant=0.5, frame_window=1)
        for p_idx in (0, 1):
            for d in range(3):
                outcome = evaluate_drop(config, 10, p_idx, d)
                assert outcome.feasible
                assert outcome.rates["sfma"] == solve(*drop_inputs(config, 10, p_idx, d)).sum_rate

    def test_drop_seed_isolation(self):
        cfg = ScenarioConfig(user_counts=(4,), p_max_dbw=(30.0,), drops=2, root_seed=5)
        a = evaluate_drop(cfg, 4, 0, 0)
        b = evaluate_drop(cfg, 4, 0, 1)
        assert a.rates != b.rates


class TestEmitCsv:
    def test_header_and_rows(self, tmp_path):
        cfg = ScenarioConfig(**TINY)
        report = run_sweep(cfg)
        path = tmp_path / "out.csv"
        emit_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(RunReport(rows=[]), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_rows_sorted(self, tmp_path):
        rows = [
            ReportRow("sfma", 4, 30.0, 1.0, 0.0, 1, 0),
            ReportRow("fnoma", 4, 30.0, 1.0, 0.0, 1, 0),
            ReportRow("fnoma", 2, 30.0, 1.0, 0.0, 1, 0),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(RunReport(rows=rows), path)
        lines = path.read_text().strip().split("\n")[1:]
        assert [l.split(",")[0:2] for l in lines] == [
            ["fnoma", "2"], ["fnoma", "4"], ["sfma", "4"],
        ]


class TestCli:
    def test_solve_small_instance(self, capsys):
        code = cli_main(["solve", "--users", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "pairs" in out
        assert "sum rate" in out
        # the water level with its sampled and exactly refined evaluation counts
        found = re.findall(r"^water level mu = \S+ \(sampled_steps (\d+), steps (\d+)\)$", out, re.M)
        assert len(found) == 1
        sampled, steps = map(int, found[0])
        assert sampled >= 1 and steps >= 1

    def test_solve_prints_pair_split_residual(self, capsys):
        assert cli_main(["solve", "--users", "10", "--seed", "1"]) == EXIT_OK
        found = re.findall(r"^max normalized pair-split residual (\S+)$", capsys.readouterr().out, re.M)
        assert len(found) == 1
        assert 0.0 <= float(found[0]) <= 1e-9

    def test_sweep_with_numerics_drop_writes_csv_and_exits_1(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text("user_counts = 4\np_max_dbw = 30\ndrops = 3\nroot_seed = 5\n"
                            f"output = {out_path}\n")
        stall_one_drop(monkeypatch, ScenarioConfig(**TINY), 2)
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: 1 drop(s) failed numerically") and "drop 2" in err
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4 and all((r["drops"], r["infeasible"]) == ("2", "1") for r in rows)

    def test_solve_numerics_is_one_error_line(self, capsys, monkeypatch):
        stall_one_drop(monkeypatch, ScenarioConfig(user_counts=(4,), root_seed=5), 0)
        assert cli_main(["solve", "--users", "4", "--seed", "5"]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "numerics" in err

    def test_solve_negative_seed_is_one_error_line(self, capsys):
        assert cli_main(["solve", "--users", "4", "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "root_seed" in err
        assert "Traceback" not in err

    def test_solve_rejects_odd_users(self):
        assert cli_main(["solve", "--users", "3", "--seed", "1"]) == EXIT_CONFIG

    def test_solve_infeasible_exit_code(self):
        # a 1 mW budget cannot carry two users at min rate 1
        code = cli_main([
            "solve", "--users", "2", "--seed", "1", "--p-max-dbw", "-30",
        ])
        assert code == EXIT_INFEASIBLE

    def test_solve_min_rate_met_past_den_zero_at_p0(self, capsys):
        # on parametric rho den <= 0 at p0 = 2c for a minimum rate of 1.5,
        # yet rho falls with power and every rate is met higher up; this
        # once exited as infeasible
        code = cli_main(["solve", "--users", "30", "--seed", "2026", "--rho-kind", "parametric",
                         "--min-rate", "1.5"])
        assert code == EXIT_OK
        assert re.search(r"^sum rate 117\.302418 bits/s/Hz$", capsys.readouterr().out, re.M)

    def test_sweep_missing_config(self, tmp_path):
        code = cli_main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG

    def test_sweep_writes_csv_and_reports_ratio(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "user_counts = 4\np_max_dbw = 30\ndrops = 2\nroot_seed = 3\n"
            f"output = {out_path}\n"
        )
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert "sfma/fnoma mean ratio" in capsys.readouterr().out

    def test_sweep_nan_noise_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(f"user_counts = 4\ndrops = 2\nnoise_dbw = nan\noutput = {out_path}\n")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "noise_dbw" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_sweep_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, where):
        import sfma.cli

        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(sfma.cli, "run_sweep", no_sweep)
        cfg_path = tmp_path / "run.cfg"
        missing = tmp_path / "absent" / "out.csv"
        argv = ["sweep", "--config", str(cfg_path)]
        if where == "config":
            cfg_path.write_text(f"user_counts = 4\ndrops = 2\noutput = {missing}\n")
        else:
            cfg_path.write_text("user_counts = 4\ndrops = 2\n")
            argv += ["--output", str(missing)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and str(missing) in err
        # a directory is no file to write either
        assert cli_main(["sweep", "--config", str(cfg_path), "--output", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_reads_a_custom_table_once(self, tmp_path, monkeypatch):
        table, reads = logged_custom_table(tmp_path, monkeypatch)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"user_counts = 4\ndrops = 3\nroot_seed = 5\nworkers = 2\n"
                            f"rho_table = {table}\noutput = {tmp_path / 'out.csv'}\n")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        assert reads.read_text() == f"{table}\n"

    def test_sweep_missing_table_fails_before_any_drop(self, tmp_path, capsys, monkeypatch):
        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")

        monkeypatch.setattr(sfma.bench, "evaluate_drop", no_drop)
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(f"user_counts = 4\ndrops = 2\nrho_table = {tmp_path / 'absent.csv'}\n"
                            f"output = {out_path}\n")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "absent.csv" in err
        assert not out_path.exists()

    def test_sweep_unknown_key_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("users = 4\n")
        assert cli_main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_calibrate_round_trip(self, tmp_path, monkeypatch):
        written, save = [], sfma.cli.save_rho_table

        def recording_save(prof, path):
            written.append(prof)
            save(prof, path)

        monkeypatch.setattr(sfma.cli, "save_rho_table", recording_save)
        gain, noise = 1e-10, 10.0 ** (-10.4)
        lines = ["group_power_dbw,snr_db,p_self_w,p_other_w,gain,noise_w,mse"]
        for p_dbw in (0.0, 10.0):
            for snr in (0.0, 10.0):
                rho_true = 1 / 3 if snr == 0.0 else 0.75
                mse = rho_true * 2.0 * gain + noise
                lines.append(f"{p_dbw},{snr},1.0,2.0,{gain},{noise},{mse}")
        src = tmp_path / "mse.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rho.csv"
        assert cli_main(["calibrate", "--mse-csv", str(src), "--output", str(out)]) == EXIT_OK
        from sfma.semantic_rate import load_rho_table

        prof = load_rho_table(out)
        assert np.allclose(prof.power_axis_dbw, [0.0, 10.0])
        assert np.allclose(prof.values[:, 0], 1 / 3)
        assert np.allclose(prof.values[:, 1], 0.75)
        # the file holds the calibrated table bit for bit
        for axis in ("power_axis_dbw", "snr_axis_db", "values"):
            assert np.array_equal(getattr(prof, axis), getattr(written[0], axis))

    def test_calibrate_rejects_incomplete_grid(self, tmp_path):
        src = tmp_path / "mse.csv"
        src.write_text(
            "group_power_dbw,snr_db,p_self_w,p_other_w,gain,noise_w,mse\n"
            "0,0,1.0,2.0,1e-10,3.981e-11,1e-10\n"
            "0,10,1.0,2.0,1e-10,3.981e-11,1e-10\n"
            "10,0,1.0,2.0,1e-10,3.981e-11,1e-10\n"
        )
        assert cli_main(["calibrate", "--mse-csv", str(src), "--output", str(tmp_path / "o.csv")]) == EXIT_CONFIG

    def test_calibrate_rejects_short_row(self, tmp_path, capsys):
        src = tmp_path / "mse.csv"
        src.write_text(
            "group_power_dbw,snr_db,p_self_w,p_other_w,gain,noise_w,mse\n"
            "0,0,1.0,2.0,1e-10,3.981e-11,1e-10\n"
            "0,10,1.0,2.0\n"
        )
        out = tmp_path / "o.csv"
        assert cli_main(["calibrate", "--mse-csv", str(src), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "line 3" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [("mse", "nan"), ("group_power_dbw", "nan"), ("gain", "inf")])
    def test_calibrate_rejects_non_finite_cell(self, tmp_path, capsys, column, value):
        header = "group_power_dbw,snr_db,p_self_w,p_other_w,gain,noise_w,mse"
        row = dict(zip(header.split(","), "0,0,1.0,2.0,1e-10,3.981e-11,1e-10".split(",")))
        bad = {**row, "snr_db": "10", column: value}
        src = tmp_path / "mse.csv"
        src.write_text("\n".join([header, ",".join(row.values()), ",".join(bad.values())]) + "\n")
        out = tmp_path / "o.csv"
        assert cli_main(["calibrate", "--mse-csv", str(src), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "line 3" in err and column in err
        assert not out.exists()

    def test_verify_passes(self, capsys):
        assert cli_main(["verify", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_reports_a_failing_check(self, capsys, monkeypatch):
        monkeypatch.setitem(sfma.verify.CHECKS, "pairing-stability",
                            lambda rng: (False, "blocking pair (0, 1) on a 4-user instance"))
        assert cli_main(["verify"]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert re.findall(r"^FAIL .*$", out, re.M) == [
            "FAIL pairing-stability: blocking pair (0, 1) on a 4-user instance"
        ]
        assert len(re.findall(r"^PASS ", out, re.M)) == 5
