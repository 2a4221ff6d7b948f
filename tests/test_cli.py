"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import errno
import json
import logging
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import housebandits
from housebandits import harness
from housebandits.cli import main, parse_checkpoints, parse_seeds
from housebandits.errors import ConfigInvalidError, RuntimeFailure
from housebandits.harness import ALGORITHMS, ExperimentConfig
from housebandits.instances import MAX_PLAYERS
from housebandits.market import instance_from_json_dict, is_json_int, save_instance, written


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    assert main([
        "gen", "--family", "sttcb", "--n", "3", "--delta", "0.2",
        "--seed", "3", "--out", str(path),
    ]) == 0
    return str(path)


def test_python_m_runs_the_cli():
    """`python -m housebandits` needs no installed console script."""
    src = os.path.dirname(os.path.dirname(housebandits.__file__))
    done = subprocess.run([sys.executable, "-m", "housebandits", "--version"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, f"housebandits {housebandits.__version__}\n")


class TestParsing:
    def test_seed_list(self):
        assert parse_seeds("0,1,2") == [range(0, 1), range(1, 2), range(2, 3)]

    def test_seed_range_is_half_open(self):
        assert list(parse_seeds("0:5")[0]) == [0, 1, 2, 3, 4]
        assert parse_seeds("7,0:3") == [range(7, 8), range(0, 3)]

    def test_bad_seeds_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_seeds("a,b")
        with pytest.raises(ConfigInvalidError):
            parse_seeds("5:5")
        with pytest.raises(ConfigInvalidError):
            parse_seeds("")

    def test_checkpoints(self):
        assert parse_checkpoints("100,1000") == (100, 1000)
        with pytest.raises(ConfigInvalidError):
            parse_checkpoints("ten")
        with pytest.raises(ConfigInvalidError):
            parse_checkpoints(" , ")


class TestGen:
    def test_writes_loadable_instance(self, instance_path):
        with open(instance_path, encoding="utf-8") as fh:
            inst = instance_from_json_dict(json.load(fh))
        assert inst.n == 3
        assert inst.reward_model == "gaussian"

    def test_same_seed_same_file(self, tmp_path):
        args = ["gen", "--family", "random", "--n", "4", "--delta-floor", "0.05",
                "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_infeasible_parameters_exit_2(self, tmp_path, capsys):
        code = main([
            "gen", "--family", "sttcb", "--n", "4", "--delta", "0.5",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_delta_floor_exits_2_naming_the_floor(self, tmp_path, capsys):
        code = main([
            "gen", "--family", "random", "--n", "3", "--delta-floor", "nan",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: delta_floor must satisfy")
        assert not (tmp_path / "x.json").exists()


class TestMechanisms:
    def test_reports_core_and_agreement(self, instance_path, capsys):
        assert main(["mechanisms", "--instance", instance_path]) == 0
        out = capsys.readouterr().out
        assert "core matching: [2, 3, 1]" in out
        assert "serial mechanism: epochs=1 rounds=3" in out.splitlines()
        assert "unique core confirmed" in out

    def test_writes_matching_file(self, instance_path, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mechanisms", "--instance", instance_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == [2, 3, 1]

    def test_missing_instance_exits_2(self, tmp_path):
        assert main(["mechanisms", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_out_into_missing_directory_exits_2_before_any_mechanism(
            self, instance_path, tmp_path, capsys, monkeypatch):
        """The output is opened before the mechanisms run, as run and mc
        open theirs before any episode: nothing is printed or written."""
        def no_mechanism(*args, **kwargs):
            raise AssertionError("a mechanism ran")

        monkeypatch.setattr("housebandits.cli.yrmh_igyt", no_mechanism)
        monkeypatch.setattr("housebandits.cli.core_oracle_bruteforce", no_mechanism)
        out = tmp_path / "missing" / "m.json"
        assert main(["mechanisms", "--instance", instance_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [Path(instance_path)]

    def test_skips_the_oracle_past_its_limit(self, tmp_path, capsys):
        path = str(tmp_path / "nine.json")
        assert main(["gen", "--family", "random", "--n", "9", "--delta-floor", "0.01",
                     "--seed", "0", "--out", path]) == 0
        capsys.readouterr()
        assert main(["mechanisms", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "serial mechanism: epochs=5 rounds=11" in out.splitlines()
        assert "exhaustive verification: skipped (n > 8)" in out


class TestRun:
    def test_prints_per_player_regret(self, instance_path, capsys):
        code = main([
            "run", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "50", "--seeds", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "player 1: pseudo_regret=0 " in out
        assert "player 3:" in out

    def test_trace_csv_written(self, instance_path, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        code = main([
            "run", "--instance", instance_path, "--algo", "centralized-ucb",
            "--horizon", "20", "--seeds", "1", "--trace", str(trace_path),
        ])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("round,player,proposal,matched_arm,collided,reward")
        assert len(lines) == 1 + 20 * 3

    def test_snapshots_for_decentralized(self, instance_path, tmp_path):
        snap_path = tmp_path / "s.json"
        code = main([
            "run", "--instance", instance_path, "--algo", "decentralized-etc",
            "--horizon", "30", "--seeds", "0", "--snapshots", str(snap_path),
        ])
        assert code == 0
        players = json.loads(snap_path.read_text())["players"]
        assert len(players) == 3
        assert players[0]["phase"] == 1

    def test_readme_snapshots_write_counts_as_json_integers(self, tmp_path):
        """The README market's run at T = 1e5, past phase 1: every pull
        count is written as an integer, so the file stays byte-stable
        however the statistics fold their counts."""
        market = tmp_path / "market.json"
        snap_path = tmp_path / "s.json"
        assert main(["gen", "--family", "sttcb", "--n", "5", "--delta", "0.2", "--seed", "7",
                     "--out", str(market)]) == 0
        assert main(["run", "--instance", str(market), "--algo", "decentralized-etc",
                     "--horizon", "100000", "--seeds", "0", "--snapshots", str(snap_path)]) == 0
        players = json.loads(snap_path.read_text())["players"]
        assert [p["phase"] for p in players] == [2] * 5
        counts = [c for p in players for c in p["counts"]]
        assert len(counts) == 25 and all(type(c) is int and c > 0 for c in counts)

    def test_snapshots_refused_for_centralized(self, instance_path, tmp_path, capsys):
        """Refused before the episode: nothing played, nothing written."""
        trace_path = tmp_path / "t.csv"
        code = main([
            "run", "--instance", instance_path, "--algo", "centralized-ucb",
            "--horizon", "30", "--seeds", "0", "--trace", str(trace_path),
            "--snapshots", str(tmp_path / "s.json"),
        ])
        assert code == 2
        assert "centralized-ucb produces no player snapshots" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_trace_into_missing_directory_exits_2(self, instance_path, tmp_path, capsys):
        """The trace file is opened before round 1, so a bad path fails
        before any result is printed."""
        code = main([
            "run", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "20", "--seeds", "0", "--trace", str(tmp_path / "missing" / "t.csv"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert not any(line.startswith("player") for line in captured.out.splitlines())

    def test_snapshots_into_missing_directory_exit_2_before_any_episode(
            self, instance_path, tmp_path, capsys, monkeypatch):
        """The snapshot file is opened before round 1, as the trace is."""
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode was played")

        monkeypatch.setattr("housebandits.cli.run_episode", no_episode)
        code = main([
            "run", "--instance", instance_path, "--algo", "decentralized-etc",
            "--horizon", "20", "--seeds", "0", "--trace", str(tmp_path / "t.csv"),
            "--snapshots", str(tmp_path / "missing" / "s.json"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path / 'missing' / 's.json'}")
        assert captured.out == ""

    @pytest.mark.parametrize("spelling", ["same", "another"])
    def test_trace_and_snapshots_on_one_file_exit_2(self, spelling, instance_path, tmp_path,
                                                     capsys, monkeypatch):
        """Refused before either file is opened, whether the file exists
        or not, and however its path is spelled."""
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode was played")

        monkeypatch.setattr("housebandits.cli.run_episode", no_episode)
        path = tmp_path / "out.json"
        other = path if spelling == "same" else tmp_path / "sub" / ".." / "out.json"
        (tmp_path / "sub").mkdir()
        argv = ["run", "--instance", instance_path, "--algo", "decentralized-etc",
                "--horizon", "30", "--seeds", "0", "--trace", str(path),
                "--snapshots", str(other)]
        assert main(argv) == 2
        assert not path.exists()
        path.write_text("kept\n")
        assert main(argv) == 2
        assert path.read_text() == "kept\n"
        assert capsys.readouterr().err.startswith(f"error: output {other} would overwrite")

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "oracle-fixed", "--horizon", "30", "--seeds", "0",
         "--trace", "{instance}"],
        ["run", "--algo", "decentralized-etc", "--horizon", "30", "--seeds", "0",
         "--snapshots", "{instance}"],
        ["mc", "--algo", "oracle-fixed", "--horizon", "30", "--seeds", "0,1",
         "--out", "{stem}"],
        ["mechanisms", "--out", "{instance}"],
    ], ids=["run-trace", "run-snapshots", "mc-out", "mechanisms-out"])
    def test_an_output_naming_the_instance_exits_2(self, command, instance_path, capsys):
        """The user's market is read, never truncated."""
        before = Path(instance_path).read_bytes()
        stem = instance_path[:-len(".json")]
        argv = [command[0], "--instance", instance_path] + [
            a.format(instance=instance_path, stem=stem) for a in command[1:]]
        assert main(argv) == 2
        assert Path(instance_path).read_bytes() == before
        assert f"would overwrite {instance_path}" in capsys.readouterr().err

    def test_both_outputs_may_go_to_a_device(self, instance_path):
        assert main(["run", "--instance", instance_path, "--algo", "decentralized-etc",
                     "--horizon", "30", "--seeds", "0", "--trace", os.devnull,
                     "--snapshots", os.devnull]) == 0

    def test_run_wants_exactly_one_seed(self, instance_path):
        code = main([
            "run", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "50", "--seeds", "0,1",
        ])
        assert code == 2

    def test_runtime_failure_exits_3(self, instance_path, monkeypatch):
        def boom(config, seed, trace=None):
            raise RuntimeFailure("synthetic")

        monkeypatch.setattr("housebandits.cli.run_episode", boom)
        code = main([
            "run", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "50", "--seeds", "0",
        ])
        assert code == 3


class TestMc:
    def test_writes_report_files(self, instance_path, tmp_path, capsys):
        prefix = tmp_path / "rep"
        code = main([
            "mc", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "200", "--seeds", "0:3", "--checkpoints", "100,200",
            "--out", str(prefix),
        ])
        assert code == 0
        csv_lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * 3
        summary = json.loads((tmp_path / "rep.json").read_text())
        assert summary["seed_count"] == 3
        assert summary["mean_regret"] == [[0.0] * 3, [0.0] * 3]

    def test_report_into_missing_directory_exits_2_before_any_episode(
            self, instance_path, tmp_path, capsys, monkeypatch):
        """Both report files are opened before the first episode, as
        run opens its outputs before round 1."""
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode was played")

        monkeypatch.setattr(harness, "run_episode", no_episode)
        code = main([
            "mc", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "200", "--seeds", "0:6", "--out", str(tmp_path / "missing" / "r"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path / 'missing' / 'r.csv'}")
        assert captured.out == ""

    def test_runtime_failure_in_a_worker_exits_3(self, instance_path, tmp_path, capsys,
                                                  monkeypatch):
        parent = os.getpid()
        play = harness.run_episode

        def episode(config, seed, trace=None):
            if os.getpid() != parent:
                raise RuntimeFailure(f"synthetic failure in seed {seed}")
            return play(config, seed, trace)

        monkeypatch.setattr(harness, "run_episode", episode)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        code = main([
            "mc", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "200", "--seeds", "0:3", "--out", str(tmp_path / "r"),
        ])
        assert code == 3
        assert capsys.readouterr().err == "runtime failure: synthetic failure in seed 1\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_single_seed_exits_2(self, instance_path, tmp_path):
        code = main([
            "mc", "--instance", instance_path, "--algo", "oracle-fixed",
            "--horizon", "200", "--seeds", "0", "--out", str(tmp_path / "r"),
        ])
        assert code == 2


def refuse(*args):
    """os.fork or os.pipe on a system out of processes or descriptors."""
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize(
    "call, argv",
    [
        ("pipe", ["mc", "--horizon", "200", "--seeds", "0:3", "--out", "{out}"]),
        ("fork", ["mc", "--horizon", "200", "--seeds", "0:3", "--out", "{out}"]),
        # a trace long enough for a second window needs a worker
        ("fork", ["run", "--horizon", "20000", "--seeds", "0", "--trace", "{out}"]),
    ],
    ids=["mc-pipe", "mc-fork", "run-trace-fork"],
)
def test_a_refused_worker_exits_3(call, argv, instance_path, tmp_path, capsys, monkeypatch):
    """The outputs written by an earlier run stay as they were, and no
    other file is left beside them."""
    out = str(tmp_path / "out")
    earlier = {path: f"earlier {path}\n".encode() for path in (out, out + ".csv", out + ".json")}
    for path, data in earlier.items():
        with open(path, "wb") as fh:
            fh.write(data)
    listed = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, call, refuse)
    code = main([a.replace("{out}", out) for a in argv]
                + ["--instance", instance_path, "--algo", "oracle-fixed"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        f"runtime failure: cannot start a worker: [Errno {errno.EAGAIN}]")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(tmp_path)) == listed
    for path, data in earlier.items():
        with open(path, "rb") as fh:
            assert fh.read() == data


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("full", ["--trace", "--snapshots"])
def test_a_failing_write_names_its_output_and_publishes_none(full, instance_path, tmp_path,
                                                             capsys):
    """One output on /dev/full, whose writes fail, and the other in
    tmp_path: the run exits 2 naming /dev/full, and the other output is
    neither created nor, when it exists, changed."""
    other = "--snapshots" if full == "--trace" else "--trace"
    path = tmp_path / "other.out"
    argv = ["run", "--instance", instance_path, "--algo", "decentralized-etc", "--horizon", "30",
            "--seeds", "0", full, "/dev/full", other, str(path)]
    listed = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")
    assert sorted(os.listdir(tmp_path)) == listed
    path.write_text("kept\n")
    assert main(argv) == 2
    assert path.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == listed + ["other.out"]


@pytest.mark.parametrize("error", [KeyboardInterrupt(), OSError(errno.EMFILE, "Too many")],
                         ids=["interrupt", "system-error"])
def test_an_interrupted_mc_keeps_the_earlier_report(error, instance_path, tmp_path, capsys,
                                                    monkeypatch):
    """A system error that is not an output's own is a runtime failure,
    and names no output."""
    argv = ["mc", "--instance", instance_path, "--algo", "oracle-fixed", "--horizon", "200",
            "--seeds", "0:3", "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    listed = sorted(os.listdir(tmp_path))
    earlier = [(tmp_path / name).read_bytes() for name in ("r.csv", "r.json")]
    capsys.readouterr()

    def interrupt(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "run_episode", interrupt)
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 3
        assert capsys.readouterr().err == f"runtime failure: [Errno {errno.EMFILE}] Too many\n"
    assert sorted(os.listdir(tmp_path)) == listed
    assert [(tmp_path / name).read_bytes() for name in ("r.csv", "r.json")] == earlier


def test_an_output_symlink_writes_through_to_its_target(tmp_path):
    target = tmp_path / "real" / "m.json"
    target.parent.mkdir()
    target.write_text("earlier\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2", "--seed", "3",
                 "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert instance_from_json_dict(json.loads(target.read_text())).n == 3
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real"]
    assert os.listdir(target.parent) == ["m.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_an_output_gets_the_mode_of_a_new_file(umask, tmp_path):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.json", "w", encoding="utf-8"):
            pass
        assert main(["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2", "--seed", "3",
                     "--out", str(tmp_path / "made.json")]) == 0
    finally:
        os.umask(previous)
    assert (tmp_path / "made.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode


def test_a_directory_as_an_output_exits_2(instance_path, tmp_path, capsys):
    assert main(["mechanisms", "--instance", instance_path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_a_long_trace_into_dev_null(instance_path, monkeypatch):
    """A trace of two windows, the second formatted by a worker, goes to
    a device as it does to a file."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert main(["run", "--instance", instance_path, "--algo", "oracle-fixed",
                 "--horizon", "20000", "--seeds", "0", "--trace", os.devnull]) == 0


def test_report_csv_quotes_an_instance_id_with_a_comma(instance_path, tmp_path):
    market = tmp_path / "my,market.json"
    shutil.copyfile(instance_path, market)
    assert main(["mc", "--instance", str(market), "--algo", "oracle-fixed", "--horizon", "200",
                 "--seeds", "0:3", "--checkpoints", "100,200", "--out", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 3
    assert all(len(row) == 8 for row in rows)
    assert {row[1] for row in rows[1:]} == {"my,market"}


@pytest.mark.parametrize(
    "command, seeds, error",
    [
        ("run", "0:2000000", "run takes exactly one seed, got 2000000"),
        ("run", f"0:{10**30}", f"run takes exactly one seed, got {10**30}"),
        ("run", f"7,0:{10**18}", f"run takes exactly one seed, got {10**18 + 1}"),
        ("mc", f"0:{10**30}", f"mc takes at most {10**6} seeds, got {10**30}"),
        ("mc", f"0:{10**6},{10**6}", f"mc takes at most {10**6} seeds, got {10**6 + 1}"),
    ],
    ids=["run-2e6", "run-1e30", "run-seed-and-1e18", "mc-1e30", "mc-one-past-the-cap"],
)
def test_wide_seed_range_exits_2_before_expanding(command, seeds, error, instance_path,
                                                  tmp_path, capsys):
    """The seeds are counted, not listed: refusing a range of 10**30
    seeds takes no time, allocates almost nothing and writes no file."""
    argv = [command, "--instance", instance_path, "--algo", "oracle-fixed", "--horizon", "50",
            "--seeds", seeds]
    if command == "mc":
        argv += ["--out", str(tmp_path / "r")]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert elapsed < 2.0
    assert peak < 2**20
    assert not list(tmp_path.glob("r.*"))


class TestConfigFile:
    def test_config_supplies_experiment_fields(self, instance_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithm": "oracle-fixed", "horizon": 100, "seeds": [0, 1],
            "checkpoints": [50, 100], "instance_id": "from-config",
        }))
        prefix = tmp_path / "out"
        code = main([
            "mc", "--config", str(cfg), "--instance", instance_path,
            "--out", str(prefix),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["instance_id"] == "from-config"
        assert summary["checkpoints"] == [50, 100]

    def test_flags_override_config(self, instance_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithm": "oracle-fixed", "horizon": 100, "seeds": [0, 1],
        }))
        prefix = tmp_path / "out"
        code = main([
            "mc", "--config", str(cfg), "--instance", instance_path,
            "--horizon", "40", "--checkpoints", "40", "--out", str(prefix),
        ])
        assert code == 0
        assert json.loads((tmp_path / "out.json").read_text())["horizon"] == 40

    def test_unknown_config_key_exits_2(self, instance_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "oracle-fixed", "budget": 5}))
        code = main([
            "mc", "--config", str(cfg), "--instance", instance_path,
            "--horizon", "40", "--seeds", "0,1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_a_given_flag_wins_even_an_empty_one(self, instance_path, tmp_path, capsys):
        """--instance "" is given, so the config's valid instance is not
        played in its place: the empty path cannot be read."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MC_CONFIG, "instance": instance_path}))
        code = main(["mc", "--config", str(cfg), "--instance", "", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read instance ")
        assert not list(tmp_path.glob("out*"))

    def test_null_counts_as_not_given(self, instance_path, tmp_path):
        """Null checkpoints, instance_id and reward_family give the same
        report bytes as leaving the keys out: the default checkpoints and
        the instance file's stem."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MC_CONFIG, "checkpoints": None, "instance_id": None,
                                   "reward_family": None}))
        assert main(["mc", "--config", str(cfg), "--instance", instance_path,
                     "--out", str(tmp_path / "nulls")]) == 0
        assert main(["mc", "--instance", instance_path, "--algo", "oracle-fixed",
                     "--horizon", "100", "--seeds", "0,1", "--out", str(tmp_path / "flags")]) == 0
        summary = json.loads((tmp_path / "nulls.json").read_text())
        assert summary["checkpoints"] == [100]
        assert summary["instance_id"] == Path(instance_path).stem
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"nulls{suffix}").read_bytes()
                    == (tmp_path / f"flags{suffix}").read_bytes())


class TestBounds:
    def test_prints_curve_rows(self, instance_path, capsys):
        code = main([
            "bounds", "--instance", instance_path, "--algo", "centralized-ucb",
            "--horizon", "1000", "--checkpoints", "100,1000",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "checkpoint_t,player,bound"
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("100,1,")
        assert "entry round" not in captured.err

    def test_decentralized_also_reports_entry_bound(self, instance_path, capsys):
        code = main([
            "bounds", "--instance", instance_path, "--algo", "decentralized-etc",
            "--horizon", "100000",
        ])
        assert code == 0
        assert "entry round" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon, expected", [
        (1, (1,)), (99, (99,)), (100, (100,)), (12_345, (100, 1000, 10_000)),
        (10**5, (100, 1000, 10_000, 10**5)),
    ])
    def test_bounds_config_and_mc_resolve_the_same_checkpoints(
            self, instance_path, tmp_path, capsys, horizon, expected):
        """One rule: bounds without --checkpoints, a config without
        checkpoints and an mc report list the same rounds; an explicit
        empty list stays empty."""
        algo = "centralized-ucb" if horizon == 1 else "decentralized-etc"
        common = ["--instance", instance_path, "--algo", algo, "--horizon", str(horizon)]
        assert main(["bounds"] + common) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        printed = tuple(dict.fromkeys(int(row.split(",")[0]) for row in rows))
        instance = instance_from_json_dict(json.loads(Path(instance_path).read_text()))
        config = ExperimentConfig(instance, algo, horizon, (0, 1), checkpoints=None)
        assert main(["mc"] + common + ["--seeds", "0:2", "--out", str(tmp_path / "r")]) == 0
        reported = tuple(json.loads((tmp_path / "r.json").read_text())["checkpoints"])
        assert printed == config.checkpoints == reported == expected
        assert ExperimentConfig(instance, algo, horizon, (0, 1), checkpoints=()).checkpoints == ()

    def test_checkpoint_beyond_horizon_exits_2(self, instance_path, capsys):
        code = main([
            "bounds", "--instance", instance_path, "--algo", "centralized-ucb",
            "--horizon", "100", "--checkpoints", "10,1000",
        ])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_one_by_one_market_notes_the_infinite_gap_once_per_curve(self, tmp_path, caplog):
        """bounds and mc each compute one curve: mc's monte_carlo computes
        it, and refuses a market without one, before any episode, and
        a refused run leaves no report behind."""
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "utilities": [[0.6]], "reward_model": "gaussian"}))
        common = ["--instance", str(path), "--algo", "centralized-ucb", "--horizon", "300",
                  "--checkpoints", "10,100,300"]
        counts = []
        for argv in (["bounds"] + common,
                     ["mc"] + common + ["--seeds", "0:2", "--out", str(tmp_path / "r")]):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert main(argv) == 0
            counts.append(sum("min gap is infinite" in r.getMessage() for r in caplog.records))
        assert counts == [1, 1]

    @pytest.mark.parametrize("checkpoints", ["500,100,100", "0"])
    def test_bad_checkpoints_exit_2_before_printing(self, instance_path, capsys, checkpoints):
        """The list is checked by the rule run and mc use, before the header."""
        code = main([
            "bounds", "--instance", instance_path, "--algo", "centralized-ucb",
            "--horizon", "500", "--checkpoints", checkpoints,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: checkpoints must")


def run_on_file(payload, argv, instance_path, tmp_path, capsys) -> int:
    """Write payload (bytes or a JSON document) to a file, run argv with
    {file}, {instance} and {out} filled in, and return the exit code;
    a failing run prints one error line and no traceback."""
    path = tmp_path / "input.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    args = [a.format(file=path, instance=instance_path, out=tmp_path / "out") for a in argv]
    code = main(args)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error:")
    return code


RAGGED_INSTANCE = {"n": 2, "utilities": [[0.1, 0.2], [0.3]], "reward_model": "gaussian"}
VALID_INSTANCE = {"n": 2, "utilities": [[0.2, 0.9], [0.8, 0.3]], "reward_model": "gaussian"}
MECHANISMS = ["mechanisms", "--instance", "{file}"]
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # deeper than the decoder's recursion limit
MC_CONFIG = {"algorithm": "oracle-fixed", "horizon": 100, "seeds": [0, 1]}
MC_WITH_CONFIG = ["mc", "--config", "{file}", "--instance", "{instance}", "--out", "{out}"]
# adjacent gaps whose square underflows to zero, and whose inverse square
# overflows: no regret bound is a finite number
ZERO_SQUARE_GAP = {**VALID_INSTANCE, "utilities": [[0.0, 5e-324], [0.0, 1.0]]}
INFINITE_TERM_GAP = {**VALID_INSTANCE, "utilities": [[0.0, 1e-160], [0.0, 1.0]]}
# integers past Python's int-from-string limit of 4300 digits
LONG_INT = b"1" * 5000
LONG_N_INSTANCE = (b'{"n": ' + LONG_INT
                   + b', "utilities": [[0.2, 0.9], [0.8, 0.3]], "reward_model": "gaussian"}')
LONG_HORIZON_MC = b'{"algorithm": "oracle-fixed", "seeds": [0, 1], "horizon": ' + LONG_INT + b"}"
LONG_HORIZON_RUN = b'{"algorithm": "oracle-fixed", "seeds": [0], "horizon": ' + LONG_INT + b"}"
RUN_WITH_CONFIG = ["run", "--config", "{file}", "--instance", "{instance}"]
GEN_LOWER_BOUND = ["gen", "--family", "lower-bound", "--n", "4", "--delta", "0.2",
                   "--distinguished", "1", "--out", "{out}"]


def bounds_on_file(algo):
    return ["bounds", "--instance", "{file}", "--algo", algo, "--horizon", "1000"]


def mc_on_file(algo):
    return ["mc", "--instance", "{file}", "--algo", algo, "--horizon", "1000",
            "--seeds", "0,1", "--out", "{out}"]


@pytest.mark.parametrize(
    "payload, argv",
    [
        (RAGGED_INSTANCE, MECHANISMS),
        ({**VALID_INSTANCE, "n": 2.0}, MECHANISMS),
        ({**VALID_INSTANCE, "n": True}, MECHANISMS),
        ({**VALID_INSTANCE, "utilities": [["0.2", "0.9"], ["0.8", "0.3"]]}, MECHANISMS),
        ({**VALID_INSTANCE, "utilities": [[False, True], [True, False]]}, MECHANISMS),
        (b"\xff\xfe{}", MECHANISMS),
        (DEEP_JSON, MECHANISMS),
        (b"\xff\xfe{}", MC_WITH_CONFIG),
        (DEEP_JSON, MC_WITH_CONFIG),
        ({**MC_CONFIG, "horizon": "ten"}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "horizon": 60.9}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "horizon": True}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "seeds": [True, False]}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "checkpoints": [True]}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "checkpoints": ["a"]}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "trace": True}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "algorithm": ["oracle-fixed"]}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "instance_id": 5}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "instance": 5}, ["mc", "--config", "{file}", "--out", "{out}"]),
        ({**MC_CONFIG, "seeds": [-1, 2]}, MC_WITH_CONFIG),
        (None, ["mc", "--instance", "{instance}", "--algo", "oracle-fixed", "--horizon", "10",
                "--seeds=-1,2", "--out", "{out}"]),
        (None, ["bounds", "--instance", "{instance}", "--algo", "decentralized-etc",
                "--horizon", "1"]),
        (None, ["mc", "--instance", "{instance}", "--algo", "oracle-fixed", "--horizon", "50",
                "--seeds", "0:3,1", "--out", "{out}"]),
        ({**MC_CONFIG, "seeds": [1, 1]}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "checkpoints": 5}, MC_WITH_CONFIG),
        ({**MC_CONFIG, "seeds": None}, MC_WITH_CONFIG),
        (None, ["gen", "--family", "random", "--n", "3", "--delta-floor", "0.1", "--seed=-1",
                "--out", "{out}"]),
        (None, ["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2", "--seed=-5",
                "--out", "{out}"]),
        (None, ["mc", "--instance", "{instance}", "--algo", "oracle-fixed", "--horizon", "500",
                "--seeds", "0,1", "--checkpoints", "", "--out", "{out}"]),
        (None, ["bounds", "--instance", "{instance}", "--algo", "centralized-ucb",
                "--horizon", "500", "--checkpoints", ""]),
        (ZERO_SQUARE_GAP, bounds_on_file("centralized-ucb")),
        (ZERO_SQUARE_GAP, bounds_on_file("decentralized-etc")),
        (ZERO_SQUARE_GAP, mc_on_file("centralized-ucb")),
        (ZERO_SQUARE_GAP, mc_on_file("decentralized-etc")),
        (INFINITE_TERM_GAP, bounds_on_file("centralized-ucb")),
        (INFINITE_TERM_GAP, bounds_on_file("decentralized-etc")),
        (INFINITE_TERM_GAP, mc_on_file("centralized-ucb")),
        (INFINITE_TERM_GAP, mc_on_file("decentralized-etc")),
        (LONG_N_INSTANCE, MECHANISMS),
        (LONG_HORIZON_MC, MC_WITH_CONFIG),
        (LONG_HORIZON_RUN, RUN_WITH_CONFIG),
        (None, GEN_LOWER_BOUND + ["--reward-model", "gaussian"]),
        (None, GEN_LOWER_BOUND + ["--reward-model", "bernoulli"]),
        (None, GEN_LOWER_BOUND + ["--seed", "3"]),
        (None, ["gen", "--family", "random", "--n", "3", "--delta-floor", "0.1",
                "--delta", "0.2", "--out", "{out}"]),
        (None, ["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2",
                "--delta-floor", "0.1", "--out", "{out}"]),
        (None, ["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2",
                "--distinguished", "1", "--out", "{out}"]),
        ({"algorithm": "oracle-fixed", "seeds": [0, 1]}, MC_WITH_CONFIG),
        ({"algorithm": "oracle-fixed", "horizon": 100}, MC_WITH_CONFIG),
        (None, ["gen", "--family", "random", "--n", str(10**20), "--delta-floor", "1e-21",
                "--seed", "1", "--out", "{out}"]),
        (None, ["gen", "--family", "lower-bound", "--n", str(MAX_PLAYERS + 1), "--delta", "0.2",
                "--distinguished", "1", "--out", "{out}"]),
    ],
    ids=["ragged-utilities", "n-a-float", "n-a-bool", "utilities-strings", "utilities-bools",
         "instance-not-utf8", "instance-nested-too-deep", "config-not-utf8",
         "config-nested-too-deep", "horizon-not-an-integer",
         "horizon-not-integral", "horizon-a-bool", "seeds-bools", "checkpoint-a-bool",
         "checkpoint-not-an-integer", "config-trace-key", "algorithm-not-a-string",
         "instance-id-not-a-string", "instance-not-a-path", "config-seed-negative",
         "flag-seed-negative", "horizon-below-algorithm-minimum", "seeds-repeated",
         "config-seeds-repeated", "config-checkpoints-not-a-list", "config-seeds-null",
         "gen-seed-negative-random", "gen-seed-negative-sttcb",
         "checkpoints-empty-mc", "checkpoints-empty-bounds",
         "gap-square-zero-bounds-centralized", "gap-square-zero-bounds-decentralized",
         "gap-square-zero-mc-centralized", "gap-square-zero-mc-decentralized",
         "gap-term-infinite-bounds-centralized", "gap-term-infinite-bounds-decentralized",
         "gap-term-infinite-mc-centralized", "gap-term-infinite-mc-decentralized",
         "instance-n-too-many-digits", "config-horizon-too-many-digits-mc",
         "config-horizon-too-many-digits-run", "gen-lower-bound-reward-model-gaussian",
         "gen-lower-bound-reward-model-bernoulli", "gen-lower-bound-seed",
         "gen-random-delta", "gen-sttcb-delta-floor", "gen-sttcb-distinguished",
         "config-without-horizon", "config-without-seeds", "gen-n-ten-to-the-20",
         "gen-n-above-the-player-bound"],
)
def test_bad_input_exits_2_without_traceback(payload, argv, instance_path, tmp_path, capsys):
    assert run_on_file(payload, argv, instance_path, tmp_path, capsys) == 2


# characters a path cannot hand the system: a NUL byte, which no shell
# argv carries but a caller of main can, and a lone surrogate
UNENCODABLE = ["\0", "\ud800"]
# every output flag, given {bad}; --snapshots goes beside a good trace
BAD_OUTPUTS = [
    ["run", "--instance", "{instance}", "--algo", "oracle-fixed", "--horizon", "20",
     "--seeds", "0", "--trace", "{bad}"],
    ["run", "--instance", "{instance}", "--algo", "decentralized-etc", "--horizon", "20",
     "--seeds", "0", "--trace", "{out}", "--snapshots", "{bad}"],
    ["mc", "--instance", "{instance}", "--algo", "oracle-fixed", "--horizon", "20",
     "--seeds", "0,1", "--out", "{bad}"],
    ["mechanisms", "--instance", "{instance}", "--out", "{bad}"],
    ["gen", "--family", "sttcb", "--n", "3", "--delta", "0.2", "--seed", "3", "--out", "{bad}"],
]
BAD_OUTPUT_IDS = ["run-trace", "run-snapshots", "mc-out", "mechanisms-out", "gen-out"]


def run_on_bad_path(argv, char, instance_path, tmp_path,
                    capsys) -> tuple[int, str, str, str]:
    """Run argv with {bad} a path in tmp_path that holds char, {out} a
    good path beside it, {instance} filled in and {config} a config
    file in tmp_path whose instance is {bad}; returns the exit code, the
    bad path as the error output prints it (a lone surrogate escaped, as
    by sys.stderr), that output, which holds no traceback, and the
    standard output."""
    bad = str(tmp_path / f"o{char}ut")
    config = tmp_path / "config.json"
    if "{config}" in argv:
        # json escapes both characters, and reads them back as they were
        config.write_text(json.dumps({"instance": bad, "algorithm": "oracle-fixed",
                                      "horizon": 20, "seeds": [0]}), encoding="utf-8")
    code = main([a.format(instance=instance_path, out=tmp_path / "out", bad=bad, config=config)
                 for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, bad.encode("utf-8", "backslashreplace").decode("utf-8"), captured.err, captured.out


@pytest.mark.parametrize("char", UNENCODABLE, ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("argv", BAD_OUTPUTS, ids=BAD_OUTPUT_IDS)
def test_an_output_path_the_system_cannot_encode_exits_2(argv, char, instance_path, tmp_path,
                                                          capsys):
    """The writer refuses the path by name before anything is printed,
    and leaves no file, not even the good trace beside --snapshots."""
    code, bad, err, out = run_on_bad_path(argv, char, instance_path, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}")
    assert out == ""
    assert sorted(tmp_path.iterdir()) == [Path(instance_path)]


@pytest.mark.parametrize("argv", BAD_OUTPUTS, ids=BAD_OUTPUT_IDS)
def test_an_empty_output_path_exits_2(argv, instance_path, tmp_path, capsys, monkeypatch):
    """An empty path is given, not absent: the writer refuses it before
    any episode or anything printed, and leaves no file, in the working
    directory (which
    os.path.realpath("") names) or beside it, not even the good trace
    beside --snapshots; an empty mc --out prefix, which would name
    .csv and .json, likewise."""
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode was played")

    monkeypatch.setattr(harness, "run_episode", no_episode)
    monkeypatch.setattr("housebandits.cli.run_episode", no_episode)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = main([a.format(instance=instance_path, out=tmp_path / "out", bad="") for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 2
    assert captured.err.startswith("error: cannot write '': ")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == sorted([Path(instance_path), work])
    assert list(work.iterdir()) == []


def test_an_empty_config_path_cannot_be_read(instance_path, tmp_path, capsys, monkeypatch):
    """--config "" is given: it is read and refused, not ignored."""
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--config", "", "--instance", instance_path, "--algo", "oracle-fixed",
                 "--horizon", "20", "--seeds", "0"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 2
    assert err.startswith("error: cannot read config '': an empty path names no file")
    assert sorted(tmp_path.iterdir()) == [Path(instance_path)]


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "oracle-fixed", "--horizon", "20", "--seeds", "0"],
    ["mc", "--algo", "oracle-fixed", "--horizon", "20", "--seeds", "0,1", "--out", "{out}"],
    ["mechanisms"],
    ["bounds", "--algo", "oracle-fixed", "--horizon", "20"],
], ids=["run", "mc", "mechanisms", "bounds"])
def test_an_empty_instance_path_cannot_be_read(argv, tmp_path, capsys, monkeypatch):
    """--instance "" is refused by what it names, before any output."""
    monkeypatch.chdir(tmp_path)
    code = main(argv[:1] + ["--instance", ""] + [a.format(out=tmp_path / "r") for a in argv[1:]])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 2
    assert captured.err == "error: cannot read instance '': an empty path names no file\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("char", UNENCODABLE, ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("argv,what", [
    (["mechanisms", "--instance", "{bad}"], "instance"),
    (["run", "--instance", "{bad}", "--algo", "oracle-fixed", "--horizon", "20", "--seeds", "0"],
     "instance"),
    (["mc", "--config", "{bad}", "--instance", "{instance}", "--out", "{out}"], "config"),
    (["run", "--config", "{config}"], "instance"),
], ids=["instance", "run-instance", "config", "config-instance"])
def test_an_input_path_the_system_cannot_encode_cannot_be_read(argv, what, char, instance_path,
                                                               tmp_path, capsys):
    code, bad, err, _ = run_on_bad_path(argv, char, instance_path, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {what} {bad}: ")
    config = [tmp_path / "config.json"] if "{config}" in argv else []
    assert sorted(tmp_path.iterdir()) == sorted([Path(instance_path)] + config)


@pytest.mark.parametrize("char", UNENCODABLE, ids=["nul", "lone-surrogate"])
def test_the_writer_refuses_a_path_the_system_cannot_encode(char, instance_path, tmp_path):
    """As save_instance and harness.export reach it, in-process: a good
    path before the bad one leaves no file either."""
    bad = str(tmp_path / f"o{char}ut")
    with pytest.raises(ConfigInvalidError, match="^cannot write "):
        save_instance(instance_from_json_dict(json.loads(Path(instance_path).read_text())), bad)
    with pytest.raises(ConfigInvalidError, match="^cannot write "):
        with written(tmp_path / "good.csv", bad):
            raise AssertionError("the block ran")
    assert sorted(tmp_path.iterdir()) == [Path(instance_path)]


@pytest.mark.parametrize("payload", [ZERO_SQUARE_GAP, INFINITE_TERM_GAP],
                         ids=["gap-square-zero", "gap-term-infinite"])
@pytest.mark.parametrize("algo", ["centralized-ucb", "decentralized-etc"])
def test_gap_without_a_finite_bound_is_refused_before_any_episode(
        payload, algo, instance_path, tmp_path, capsys, monkeypatch):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode was played")

    monkeypatch.setattr(harness, "run_episode", no_episode)
    assert run_on_file(payload, mc_on_file(algo), instance_path, tmp_path, capsys) == 2
    assert not list(tmp_path.glob("out*"))


# --- fuzzing the JSON inputs --------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=10,
)
MATRICES = st.lists(
    st.lists(st.floats(-0.5, 1.5) | st.integers(-1, 2) | st.booleans() | st.text(max_size=3),
             max_size=3),
    max_size=3,
)
# the values one key of a valid document is replaced with; integer
# horizons stay small, as a valid horizon of 10**30 runs for ever
INSTANCE_VALUES = {
    "n": st.integers(-1, 4) | JSON_VALUES,
    "utilities": MATRICES | JSON_VALUES,
    "reward_model": st.sampled_from(["gaussian", "bernoulli", "deterministic"]) | JSON_VALUES,
}
CONFIG_VALUES = {
    "algorithm": st.sampled_from(tuple(ALGORITHMS)) | JSON_VALUES,
    "horizon": st.integers(-2, 300) | JSON_VALUES.filter(lambda v: not is_json_int(v)),
    "seeds": st.lists(st.integers(-2, 2**70), max_size=4) | JSON_VALUES,
    "checkpoints": st.lists(st.integers(-2, 400), max_size=4) | JSON_VALUES,
    "reward_family": st.sampled_from(["gaussian", "bernoulli", "deterministic"]) | JSON_VALUES,
    "instance_id": JSON_VALUES,
    "instance": JSON_VALUES,
}
# "instance" is the path of a valid instance file, filled in by the test
VALID_CONFIG = {"instance": None, "algorithm": "centralized-ucb", "horizon": 60,
                "seeds": [0, 1], "checkpoints": [10, 60]}


def malformed(valid, values):
    """Any JSON document, bytes that may not decode, or the valid
    document with some keys dropped, replaced or added."""

    @st.composite
    def edited(draw):
        doc = dict(valid)
        for key in draw(st.lists(st.sampled_from(sorted(values) + ["extra"]), unique=True,
                                 min_size=1, max_size=3)):
            if key in doc and draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(values.get(key, JSON_VALUES))
        return doc

    return edited() | JSON_VALUES | st.binary(max_size=8)


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(doc=malformed(VALID_INSTANCE, INSTANCE_VALUES))
@example(doc={**VALID_INSTANCE, "utilities": [[10**400, 0.9], [0.8, 0.3]]})
def test_malformed_instance_json_exits_0_or_2(doc, instance_path, tmp_path, capsys):
    assert run_on_file(doc, MECHANISMS, instance_path, tmp_path, capsys) in (0, 2)


@FUZZ
@given(doc=malformed(VALID_CONFIG, CONFIG_VALUES))
@example(doc={**VALID_CONFIG, "seeds": [-1, 2]})
@example(doc={**VALID_CONFIG, "instance": "\0"})
def test_malformed_config_json_exits_0_or_2(doc, instance_path, tmp_path, capsys):
    if isinstance(doc, dict) and "instance" in doc and doc["instance"] is None:
        doc = {**doc, "instance": instance_path}
    assert run_on_file(doc, ["mc", "--config", "{file}", "--out", "{out}"], instance_path,
                       tmp_path, capsys) in (0, 2)


def test_deterministic_trace_rewards_are_the_exact_utilities(tmp_path, capsys):
    """The deterministic family adds -0.0 noise, which leaves every
    mean as it is, a -0.0 utility included; +0.0 noise would turn it
    into 0.0. Each trace reward is the matched utility's repr, or 0.0
    unmatched, across a noise chunk refill."""
    u = [[-0.0, 0.7, 0.4], [0.55, 0.25, 0.9], [0.8, 0.1, 0.35]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "utilities": u, "reward_model": "gaussian"}))
    negative_zeros = 0
    for algo in ALGORITHMS:
        trace = tmp_path / f"{algo}.csv"
        assert main(["run", "--instance", str(path), "--algo", algo, "--family",
                     "deterministic", "--horizon", "5000", "--seeds", "0",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()[1:]
        assert len(lines) == 5000 * 3
        for line in lines:
            _, player, _, arm, _, reward = line.split(",")[:6]
            expected = repr(u[int(player) - 1][int(arm) - 1]) if arm != "0" else "0.0"
            assert reward == expected, (algo, line)
            negative_zeros += reward == "-0.0"
    assert negative_zeros > 0
