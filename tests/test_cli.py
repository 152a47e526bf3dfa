"""Tests for the ``python -m repro.eval`` command-line interface."""

import json

import pytest

from repro.eval.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["table3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "clank" in out
        assert "completed in" in out

    def test_quick_table4(self, capsys):
        assert main(["table4", "--quick", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "mixed" in out and "wholly-nv" in out

    def test_ablation_listed(self, capsys):
        assert main(["ablation_apb", "--quick"]) == 0
        assert "low bits" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_verify_flag(self, capsys):
        assert main(["table1", "--quick", "--verify"]) == 0
        assert "average" in capsys.readouterr().out

    def test_more_than_one_worker_is_refused(self, monkeypatch, capsys):
        """Sweeps run serially.  ``run_jobs`` and ``repro.serve`` still
        take a worker count of 1 (older launch scripts pass one), but
        any other count is an error, never a silent serial run; the
        eval CLI has no ``--jobs`` at all."""
        from repro.common.errors import ConfigError
        from repro.eval.parallel import SimJob, run_jobs
        from repro.eval.settings import EvalSettings
        from repro.serve import __main__ as serve_main

        job = SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny")
        with pytest.raises(ConfigError, match="n_workers"):
            run_jobs([job], EvalSettings(size="tiny"), 2)

        class Parsed(Exception):
            pass

        def parsed(**kwargs):
            raise Parsed()

        monkeypatch.setattr(serve_main, "SweepServer", parsed)
        with pytest.raises(Parsed):
            serve_main.main(["--port", "0", "--jobs", "1"])
        with pytest.raises(SystemExit) as exc:
            serve_main.main(["--port", "0", "--jobs", "2"])
        assert exc.value.code == 2

        with pytest.raises(SystemExit) as exc:
            main(["fig7", "--quick", "--jobs", "2"])
        assert exc.value.code == 2

    def test_full_run_records_one_worker(self, monkeypatch, tmp_path, capsys):
        """``repro.obs.bench`` buckets history entries by ``jobs`` and
        every committed entry has ``jobs: 1``, so a full run must keep
        writing it (in the ledger header too), or the regression gate
        would find no comparable baseline and compare nothing."""
        monkeypatch.chdir(tmp_path)
        assert main(["table3"]) == 0
        with open(tmp_path / "results" / "BENCH_sweep.json") as fh:
            [entry] = json.load(fh)["history"]
        assert entry["jobs"] == 1
        with open(tmp_path / "results" / "run_ledger.jsonl") as fh:
            header = json.loads(fh.readline())
        assert header["type"] == "sweep_start" and header["jobs"] == 1
