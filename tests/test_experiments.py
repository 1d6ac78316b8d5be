"""Experiment harness: runner, report formatting, CLI."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.data.datasets import DATASET_ORDER
from repro.experiments.cli import dataset_rows, main as cli_main, run_dataset
from repro.experiments.report import fmt_ratio, fmt_seconds, format_table
from repro.experiments.runner import (
    ALGORITHMS,
    prepare_experiment,
    run_algorithm,
)
from repro.sim.machines import MACHINE_1, MACHINE_3
from repro.sim.scale import QUICK_SCALE

from tests.conftest import child_env


@pytest.fixture(scope="module")
def nj_setup():
    return prepare_experiment("NJ", scale=QUICK_SCALE)


class TestRunner:
    def test_prepare_builds_everything(self, nj_setup):
        assert nj_setup.roads_tree is not None
        assert nj_setup.hydro_tree is not None
        assert len(nj_setup.roads_stream) == len(nj_setup.dataset.roads)
        assert nj_setup.lower_bound_pages == (
            nj_setup.roads_tree.page_count
            + nj_setup.hydro_tree.page_count
        )

    def test_counters_zero_after_prepare(self):
        setup = prepare_experiment("NJ", scale=QUICK_SCALE)
        assert setup.env.page_reads == 0
        assert setup.env.cpu_ops == 0

    def test_all_algorithms_agree_on_counts(self, nj_setup):
        counts = {
            a: run_algorithm(a, nj_setup)["result"].n_pairs
            for a in ALGORITHMS
        }
        assert len(set(counts.values())) == 1, counts

    def test_runs_start_from_fresh_counters(self, nj_setup):
        first = run_algorithm("PQ", nj_setup)
        second = run_algorithm("PQ", nj_setup)
        assert first["page_reads"] == second["page_reads"]
        assert first["cpu_ops"] == second["cpu_ops"]

    def test_snapshots_cover_all_machines(self, nj_setup):
        out = run_algorithm("SSSJ", nj_setup)
        names = [m["machine"] for m in out["machines"]]
        assert MACHINE_1.name in names and MACHINE_3.name in names

    def test_unknown_algorithm_rejected(self, nj_setup):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm("NESTED-LOOP", nj_setup)

    def test_index_algorithms_require_trees(self):
        setup = prepare_experiment("NJ", scale=QUICK_SCALE,
                                   build_trees=False)
        with pytest.raises(ValueError, match="needs indexes"):
            run_algorithm("PQ", setup)
        with pytest.raises(ValueError, match="needs indexes"):
            run_algorithm("ST", setup)
        # Stream algorithms still work.
        out = run_algorithm("SSSJ", setup)
        assert out["result"].n_pairs >= 0

    def test_collect_pairs_passthrough(self, nj_setup):
        out = run_algorithm("SSSJ", nj_setup, collect_pairs=True)
        assert out["result"].pairs is not None
        assert len(out["result"].pairs) == out["result"].n_pairs


class TestReport:
    def test_format_table_basic(self):
        text = format_table(
            ["Name", "Value"], [["a", 1], ["bb", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[2]
        assert any("bb" in ln for ln in lines)

    def test_numeric_right_alignment(self):
        text = format_table(["K", "N"], [["x", 5], ["y", 500]])
        rows = text.splitlines()[-2:]
        # Both numbers end at the same column (right-aligned).
        assert rows[0].rstrip().endswith("5")
        assert rows[1].rstrip().endswith("500")

    def test_thousands_separator(self):
        text = format_table(["K", "N"], [["x", 1234567]])
        assert "1,234,567" in text

    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(123.4) == "123"
        assert fmt_seconds(1.234) == "1.23"
        assert fmt_seconds(0.01234) == "0.0123"
        assert fmt_seconds(float("nan")) == "-"

    def test_fmt_ratio(self):
        assert fmt_ratio(2.0, 1.0) == "2.00"
        assert fmt_ratio(1.0, 0.0) == "-"
        assert fmt_ratio(float("nan"), 1.0) == "-"


def test_quick_scale_reproduction_matches_the_golden():
    """Tables 2-4 and Figures 2-3 at quick scale cannot move silently.

    ``golden/experiments_quick.jsonl`` is the output of ``python -m
    repro.experiments --all --scale quick --json``; a change that moves
    the reproduction on purpose replaces the file with that command's
    new output and says so.
    """
    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "experiments_quick.jsonl")
    with open(golden_path, encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    rows = [row for name in DATASET_ORDER
            for row in dataset_rows(name, list(ALGORITHMS), QUICK_SCALE)]
    exact = ("dataset", "scale", "algorithm", "machine", "pairs",
             "page_reads")
    seconds = ("observed_seconds", "cpu_seconds", "io_seconds",
               "estimated_seconds")
    assert [[row[k] for k in exact] for row in rows] == [
        [gold[k] for k in exact] for gold in golden]
    for row, gold in zip(rows, golden):
        assert set(row) == set(gold) == set(exact + seconds)
        for key in seconds:
            assert row[key] == pytest.approx(gold[key], rel=1e-9), (
                row, key)


class TestCLI:
    def test_run_dataset_produces_rows(self):
        text = run_dataset("NJ", ["SSSJ", "PQ"], QUICK_SCALE)
        assert "SSSJ" in text and "PQ" in text
        assert "Machine 1" in text and "Machine 3" in text

    def test_cli_main_single_dataset(self, capsys):
        rc = cli_main(["--dataset", "NJ", "--scale", "quick",
                       "--algorithms", "SSSJ"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NJ (scale 1/1024)" in out
        assert "SSSJ" in out

    def test_cli_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            cli_main(["--dataset", "TEXAS"])

    def test_cli_json_rows(self, capsys):
        rc = cli_main(["--dataset", "NJ", "--scale", "quick",
                       "--algorithms", "SSSJ", "--json"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert len(rows) == 3  # one per machine
        for row in rows:
            assert row["dataset"] == "NJ"
            assert row["algorithm"] == "SSSJ"
            assert row["pairs"] >= 0
            assert row["observed_seconds"] > 0
        # All machines price the same run, so raw counters agree.
        assert len({row["page_reads"] for row in rows}) == 1

    @pytest.mark.parametrize("command", ("serve",))
    @pytest.mark.parametrize("flags, needs", (
        (["--replicas", "2"], "--replicas needs --shards > 1"),
    ))
    def test_cli_refuses_a_deployment_flag_it_would_drop(
            self, command, flags, needs, capsys):
        # Exit 2 before any engine is built, one line naming the
        # missing prerequisite; the defaults pass everywhere (every
        # other CLI test runs without them).
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scale", "quick", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: {needs}")

    @pytest.mark.parametrize("command", ("serve",))
    def test_cli_refuses_a_thread_pool(self, command, capsys):
        # A pool is forked processes or the coordinator.
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scale", "quick",
                      "--pool-kind", "thread"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.skipif(os.name != "posix",
                        reason="POSIX signals and process groups")
    def test_cli_serve_sigterm_leaves_no_process_behind(self):
        # What systemd, docker stop and CI runners send: the serve
        # must unwind as it does on Ctrl-C, or its forked pool workers
        # outlive it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--dataset", "NJ", "--scale", "quick", "--workers", "2",
             "--port", "0", "--memory-bytes", "65536", "--trace"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), start_new_session=True,
        )
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r":(\d+) \(POST", banner).group(1))
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=30)
            close = {"Connection": "close"}
            conn.request("POST", "/query", headers=close, body=json.dumps(
                {"relations": ["roads", "hydro"], "count_only": True}))
            reply = conn.getresponse()
            assert reply.status == 200 and json.load(reply)["pairs"] > 0
            conn.request("GET", "/metrics", headers=close)
            scrape = conn.getresponse().read().decode()
            conn.close()
            # The deployment arguments reach the engine.
            assert "repro_engine_budget_total_bytes 65536\n" in scrape
            assert "repro_engine_slow_query_log_admitted 1\n" in scrape
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(10) == 0, proc.stderr.read()
        finally:
            # Whatever is left of the group (nothing, if the serve
            # drained) goes now, not when the test session ends.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
                outlived = True
            except ProcessLookupError:
                outlived = False
            proc.wait(10)
        assert not outlived, "the process group outlived the serve"
