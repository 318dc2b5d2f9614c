"""Tests for the ``python -m repro`` command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.harness.experiments import EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENTS:
            assert eid in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "T2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "T1", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "paper log (1)" in out

    def test_unknown_id_fails(self, capsys):
        assert main(["run", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "NOPE" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunFailure:
    def test_raising_experiment_gives_nonzero_exit(self, capsys, monkeypatch):
        def boom():
            raise RuntimeError("synthetic experiment failure")

        monkeypatch.setitem(EXPERIMENTS, "T2", boom)
        assert main(["run", "T2"]) == 1
        err = capsys.readouterr().err
        assert "T2" in err and "synthetic experiment failure" in err

    def test_failure_does_not_abort_remaining_ids(self, capsys, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "T2", lambda: (_ for _ in ()).throw(ValueError("x"))
        )
        assert main(["run", "T2", "T3"]) == 1
        captured = capsys.readouterr()
        assert "Table 3" in captured.out


class TestRunAudit:
    def test_a_run_failing_its_audit_gives_nonzero_exit(
        self, capsys, monkeypatch
    ):
        """A planted run whose site1 diverges: its experiment prints,
        and the command names it and the failed guarantee."""
        from repro.harness.runner import run_experiment
        from repro.replica import CommutativeOperations, SystemConfig
        from repro.workload.generator import WorkloadSpec

        class Diverging(CommutativeOperations):
            def handle_message(self, site, mset):
                super().handle_message(site, mset)
                if site.name == "site1":
                    site.store.put("planted", 1)

        def planted():
            result = run_experiment(
                Diverging, SystemConfig(n_sites=3),
                WorkloadSpec(n_keys=2, count=6, query_fraction=0.0),
            )
            assert not result.converged
            return "planted table", {}

        monkeypatch.setitem(EXPERIMENTS, "T2", planted)
        assert main(["run", "T2", "T3"]) == 1
        captured = capsys.readouterr()
        assert "planted table" in captured.out and "Table 3" in captured.out
        assert (
            "experiment T2 failed its audit: COMMU: replicas did not "
            "converge" in captured.err
        )
        assert "T3" not in captured.err


class TestRunWithOutput:
    def test_saves_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "T2", "T3", "-o", str(out)]) == 0
        assert (out / "T2.txt").exists()
        assert "Table 3" in (out / "T3.txt").read_text()

    def test_no_output_without_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "T2"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_regenerates_the_committed_results_byte_for_byte(self, tmp_path):
        """Every experiment and table, in a fresh interpreter, is
        exactly the committed ``results/``: the simulator shares the
        operation algebra, MSets and store with the live runtime."""
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "run", "all", "-o", str(tmp_path)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
        committed = root / "results"
        names = sorted(p.name for p in committed.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (
                committed / name
            ).read_bytes(), name


class TestChaos:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--scenario", "elect", "--method", "commu"], "--method"),
            (["--scenario", "saga", "--method", "commu"], "--method"),
            (["--scenario", "wan", "--sites", "5"], "--sites"),
            (["--scenario", "rejoin", "--queries", "3"], "--queries"),
            (["--scenario", "migrate", "--duration", "2"], "--duration"),
            (["--scenario", "elect", "--no-crash"], "--no-crash"),
            (["--no-wipe"], "--no-wipe"),
        ],
    )
    def test_flag_the_scenario_does_not_read_is_an_error(
        self, argv, flag, capsys
    ):
        """Accepted-and-dropped flags ran a different scenario than the
        one asked for; now they exit 2 naming flag and scenario."""
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos"] + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        scenario = argv[1] if argv[0] == "--scenario" else "faults"
        assert "%s is not read by --scenario %s" % (flag, scenario) in err

    def test_unset_flags_leave_the_configs_own_defaults(self, capsys):
        """``--updates`` used to default to the faults scenario's 120
        and leak into every other scenario."""
        assert main(["chaos", "--scenario", "rejoin"]) == 0
        out = capsys.readouterr().out
        assert "60+60+12 updates" in out
        assert "all invariants held" in out

    def test_set_flags_reach_the_config(self, capsys):
        assert main(
            ["chaos", "--scenario", "rejoin", "--seed", "11", "--no-wipe",
             "--updates", "9"]
        ) == 0
        assert "wipe=False, 9+9+12 updates" in capsys.readouterr().out
