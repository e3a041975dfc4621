import json

import pytest

from d2dcache.cli import _parse_grid, _parse_range, cost_csv_row, main
from d2dcache.codes import Scheme, make_code
from d2dcache.cost_model import SystemConfig, method_cost
from d2dcache.geometry import GeometryTable, build_geometry_table


def run_cli(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestParsing:
    def test_grid(self):
        grid = _parse_grid("-2:0:3")
        assert list(grid) == pytest.approx([0.01, 0.1, 1.0])

    def test_grid_errors(self):
        from d2dcache.cli import ConfigError

        with pytest.raises(ConfigError):
            _parse_grid("1:2")
        with pytest.raises(ConfigError):
            _parse_grid("1:2:0")

    def test_range(self):
        assert _parse_range("2:6") == (2, 6)


class TestCostRows:
    def test_csv_row_round_trips(self):
        cfg = SystemConfig()
        geom = build_geometry_table(cfg, n_max=3)
        c = method_cost(cfg, make_code(Scheme.REPLICATION, 3), geom)
        fields = cost_csv_row(c, cfg).split(",")
        assert fields[0] == "replication"
        assert int(fields[1]) == 3
        assert float(fields[-1]) == c.total


class TestGeometryCommand:
    def test_writes_valid_table(self, tmp_path):
        assert run_cli(tmp_path, "geometry", "--n-max", "3") == 0
        table = GeometryTable.from_json((tmp_path / "geometry_table.json").read_text())
        assert table.n_max == 3
        assert table.bs_cost == pytest.approx(400.5, abs=1e-6)

    def test_reproducible_bytes(self, tmp_path):
        run_cli(tmp_path / "a", "geometry", "--n-max", "2")
        run_cli(tmp_path / "b", "geometry", "--n-max", "2")
        assert (tmp_path / "a/geometry_table.json").read_bytes() == (
            tmp_path / "b/geometry_table.json"
        ).read_bytes()


class TestSweepCommands:
    def test_cost_sweep(self, tmp_path):
        rc = run_cli(tmp_path, "cost", "--omega-grid=-2:-1:2", "--coded-n", "3:4")
        assert rc == 0
        lines = (tmp_path / "cost_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("method,n,k,d,omega,sigma")
        assert len(lines) == 1 + 2 * 4  # 2 omegas x 4 methods

    def test_optimize_sweep(self, tmp_path):
        rc = run_cli(tmp_path, "optimize", "--omega-grid=-2:-2:1", "--sigma", "0.01")
        assert rc == 0
        lines = (tmp_path / "optimize_sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # replication, msr, mbr
        rep = next(l for l in lines if ",replication," in l)
        assert rep.split(",")[3] == "6"  # cheap storage pushes n to the cap

    def test_gain_sweep(self, tmp_path):
        rc = run_cli(
            tmp_path, "gain", "--omega-grid=-1:-1:1", "--methods", "replication",
            "--v", "10", "--v", "20",
        )
        assert rc == 0
        lines = (tmp_path / "gain_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        gains = {float(l.split(",")[1]): float(l.split(",")[4]) for l in lines[1:]}
        assert gains[20.0] > gains[10.0]  # farther base station, bigger payoff

    def test_tables_default_grid(self, tmp_path):
        rc = run_cli(tmp_path, "tables")
        assert rc == 0
        lines = (tmp_path / "savings_tables.csv").read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.5, "v": 15.0}))
        rc = run_cli(
            tmp_path, "cost", "--config", str(cfg), "--omega-grid=-2:-2:1",
            "--methods", "simple",
        )
        assert rc == 0
        row = (tmp_path / "cost_sweep.csv").read_text().splitlines()[1]
        assert float(row.split(",")[5]) == 0.5

    def test_single_v_is_honoured(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 10.0}))
        args = ("cost", "--omega-grid=-2:-2:1", "--methods", "simple", "--rep-n", "2:3",
                "--coded-n", "3:3")
        run_cli(tmp_path / "flag", *args, "--v", "10")
        run_cli(tmp_path / "file", *args, "--config", str(cfg))
        run_cli(tmp_path / "default", *args)
        flag = (tmp_path / "flag/cost_sweep.csv").read_bytes()
        assert flag == (tmp_path / "file/cost_sweep.csv").read_bytes()
        assert flag != (tmp_path / "default/cost_sweep.csv").read_bytes()

    def test_search_clipped_below_m(self, tmp_path):
        # the default ranges reach n = 6; a 5-node cluster searches n <= 4 only
        assert run_cli(tmp_path, "cost", "--m", "5", "--omega-grid=-2:-1:2") == 0
        header, *rows = (tmp_path / "cost_sweep.csv").read_text().splitlines()
        assert len(rows) == 2 * 4
        assert all(int(row.split(",")[1]) <= 4 for row in rows)

    def test_regime_warning_reaches_the_user(self, tmp_path):
        with pytest.warns(UserWarning, match="low-popularity"):
            rc = run_cli(tmp_path, "cost", "--omega-grid=-1:1:3", "--methods", "simple")
        assert rc == 0

    def test_sweep_reproducible_bytes(self, tmp_path):
        args = ("optimize", "--omega-grid=-2:-1:3", "--sigma", "2", "--sigma", "100")
        run_cli(tmp_path / "a", *args)
        run_cli(tmp_path / "b", *args)
        assert (tmp_path / "a/optimize_sweep.csv").read_bytes() == (
            tmp_path / "b/optimize_sweep.csv"
        ).read_bytes()


class TestSimulateCommand:
    def test_single_run(self, tmp_path):
        rc = run_cli(
            tmp_path, "simulate", "--omega-grid=-2:-2:1", "--methods", "replication",
            "--horizon", "200", "--seed", "5",
        )
        assert rc == 0
        lines = (tmp_path / "simulate_sweep.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert fields["method"] == "replication"
        assert fields["fidelity"] == "chain"
        assert int(fields["counters.requests"]) > 0
        assert float(fields["total"]) > 0.0

    def test_reproducible_bytes(self, tmp_path):
        args = (
            "simulate", "--omega-grid=-2:-2:1", "--methods", "simple,msr",
            "--horizon", "100", "--seed", "1", "--fidelity", "spatial",
        )
        run_cli(tmp_path / "a", *args)
        run_cli(tmp_path / "b", *args)
        assert (tmp_path / "a/simulate_sweep.csv").read_bytes() == (
            tmp_path / "b/simulate_sweep.csv"
        ).read_bytes()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        args = (
            "simulate", "--omega-grid=-2:-1:2", "--methods", "replication,mbr",
            "--horizon", "50", "--reps", "2",
        )
        run_cli(tmp_path / "serial", *args)
        monkeypatch.setenv("D2DCACHE_THREADS", "4")
        run_cli(tmp_path / "par", *args)
        assert (tmp_path / "serial/simulate_sweep.csv").read_bytes() == (
            tmp_path / "par/simulate_sweep.csv"
        ).read_bytes()


class TestErrorHandling:
    def test_empty_methods(self, tmp_path, capsys):
        assert run_cli(tmp_path, "cost", "--methods", "") == 1
        assert "error: config:" in capsys.readouterr().err

    def test_unknown_method(self, tmp_path):
        assert run_cli(tmp_path, "cost", "--methods", "raid5") == 1

    def test_bad_grid(self, tmp_path):
        assert run_cli(tmp_path, "cost", "--omega-grid=oops") == 1

    def test_bad_config_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": 3}))
        assert run_cli(tmp_path, "cost", "--config", str(cfg)) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli(tmp_path, "cost", "--config", str(tmp_path / "nope.json")) == 1

    def test_infeasible_geometry(self, tmp_path):
        # base station inside the cluster radius is rejected
        assert run_cli(tmp_path, "geometry", "--v", "0.5") == 1

    def test_several_v_outside_gain(self, tmp_path, capsys):
        # only gain has a v column, so the other commands would drop all but one
        for command in ("cost", "optimize", "tables", "simulate", "geometry"):
            assert run_cli(tmp_path, command, "--v", "10", "--v", "20") == 1
            assert "single --v" in capsys.readouterr().err

    def test_reps_must_be_positive(self, tmp_path):
        for reps in ("0", "-3"):
            assert run_cli(tmp_path, "simulate", "--reps", reps) == 1

    def test_non_finite_input(self, tmp_path):
        assert run_cli(tmp_path, "cost", "--omega-grid=nan:0:2") == 1
        assert run_cli(tmp_path, "cost", "--m", "inf") == 1

    def test_no_candidate_below_m(self, tmp_path, capsys):
        # MSR/MBR search n >= 3, so a 3-node cluster has nothing to search
        assert run_cli(tmp_path, "cost", "--m", "3", "--omega-grid=-2:-2:1") == 1
        err = capsys.readouterr().err
        assert "error: config:" in err and "msr" in err

    def test_verify_unknown_criterion(self, capsys):
        assert main(["verify", "--criteria", "99"]) == 1
        assert "unknown criteria" in capsys.readouterr().err

    def test_verify_takes_only_criteria(self, capsys):
        # verify runs the paper's fixed configs, so a sweep flag would be ignored
        for flag in ("--m", "--out", "--sigma"):
            assert main(["verify", flag, "5", "--criteria", "8"]) == 1
            assert flag in capsys.readouterr().err

    def test_usage_error_is_a_config_error(self, capsys):
        assert main(["cost", "--m", "abc"]) == 1
        assert "invalid float value" in capsys.readouterr().err
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["cost", "--help"]) == 0
        assert "--omega-grid" in capsys.readouterr().out

    def test_non_finite_horizon(self, tmp_path, capsys):
        for horizon in ("nan", "inf"):
            args = ("simulate", "--horizon", horizon, "--omega-grid=-2:-2:1", "--methods", "simple")
            assert run_cli(tmp_path, *args) == 1
            assert "horizon" in capsys.readouterr().err

    def test_config_omega_is_rejected(self, tmp_path, capsys):
        # every command takes omega from --omega-grid, so a file value would be dropped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0.5}))
        assert run_cli(tmp_path, "cost", "--config", str(cfg)) == 1
        assert "--omega-grid" in capsys.readouterr().err
