"""Tests for the experiment harness: episodes, aggregation, bounds,
and report export."""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import threading
import time
import tracemalloc

import numpy as np
import pytest

from housebandits import harness
from housebandits.env import RegretLedger
from housebandits.errors import (
    ConfigInvalidError,
    DesyncError,
    EntryOutOfRangeError,
    RuntimeFailure,
)
from housebandits.harness import (
    ExperimentConfig,
    bound_curves,
    default_checkpoints,
    export,
    monte_carlo,
    run_episode,
    validate_horizon,
)
from housebandits.instances import sttcb_instance
from housebandits.market import validate_instance


def swap_market():
    return validate_instance(np.array([[0.2, 0.9], [0.9, 0.2]]), "gaussian")


def bounded_market():
    """Identity core where player 0 settles for its third-best arm.

    Players 1-4 top their own endowment and exit immediately; player 0
    is left with arm 0 at utility 0.5. Every row has adjacent gaps of
    0.2, so the minimum preference gap is 0.2.
    """
    u = np.array(
        [
            [0.5, 0.9, 0.7, 0.3, 0.1],
            [0.7, 0.9, 0.5, 0.3, 0.1],
            [0.5, 0.3, 0.9, 0.7, 0.1],
            [0.1, 0.5, 0.3, 0.9, 0.7],
            [0.3, 0.1, 0.7, 0.5, 0.9],
        ]
    )
    return validate_instance(u, "gaussian")


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        """One lookup for every caller: a name that is not registered,
        unhashable or not a string is refused, never a bare KeyError or
        TypeError."""
        for algorithm in ("thompson", ["oracle-fixed"], None):
            for call in (lambda: ExperimentConfig(swap_market(), algorithm, 100, (0,)),
                         lambda: validate_horizon(100, algorithm),
                         lambda: bound_curves(swap_market(), algorithm, (100,))):
                with pytest.raises(ConfigInvalidError, match="^unknown algorithm"):
                    call()

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 0, (0,))
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "decentralized-etc", 1, (0,))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 100, ())

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 100, (0,), reward_family="cauchy")

    def test_rejects_out_of_range_checkpoints(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 100, (0,), checkpoints=(0, 50))
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 100, (0,), checkpoints=(50, 200))
        with pytest.raises(ConfigInvalidError, match=r"^checkpoints must be >= 1, got 0$"):
            bound_curves(swap_market(), "oracle-fixed", (0,))

    def test_rejects_unsorted_checkpoints(self):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig(swap_market(), "oracle-fixed", 100, (0,), checkpoints=(50, 20))

    @pytest.mark.parametrize("field, value", [
        ("seeds", (0.5, 1)),
        ("seeds", (True, 2)),
        ("horizon", 100.5),
        ("horizon", True),
        ("checkpoints", (50.5, 100)),
        ("checkpoints", (50, False)),
    ])
    def test_rejects_non_integers(self, field, value, monkeypatch):
        """The CLI's integer rule holds for the API too, before any
        episode is played."""
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode was played")

        monkeypatch.setattr(harness, "run_episode", no_episode)
        fields = {"horizon": 100, "seeds": (0, 1), "checkpoints": None, field: value}
        with pytest.raises(ConfigInvalidError, match=f"{field} must be"):
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", **fields))

    def test_default_checkpoints_clip_to_horizon(self):
        assert default_checkpoints(10**5) == (100, 1000, 10000, 100000)
        assert default_checkpoints(50000) == (100, 1000, 10000)
        assert default_checkpoints(50) == (50,)


class TestEpisodes:
    def test_oracle_fixed_has_zero_regret(self):
        cfg = ExperimentConfig(swap_market(), "oracle-fixed", 500, (0,), checkpoints=(100, 500))
        tr = run_episode(cfg, 0)
        assert tr.final_pseudo == (0.0, 0.0)
        assert tr.checkpoint_pseudo == ((0.0, 0.0), (0.0, 0.0))
        # realized regret is mean-zero noise around the core utility
        assert abs(tr.final_realized[0]) < 3 * math.sqrt(500)

    def test_same_seed_is_bit_identical(self):
        cfg = ExperimentConfig(swap_market(), "centralized-ucb", 400, (3,), checkpoints=(400,))
        a = run_episode(cfg, 3)
        b = run_episode(cfg, 3)
        assert a.final_pseudo == b.final_pseudo
        assert a.final_realized == b.final_realized
        assert a.checkpoint_pseudo == b.checkpoint_pseudo
        assert a.stats == b.stats

    def test_different_seeds_differ(self):
        cfg = ExperimentConfig(swap_market(), "centralized-ucb", 400, (0,), checkpoints=(400,))
        assert run_episode(cfg, 0).final_realized != run_episode(cfg, 1).final_realized

    def test_trace_rows_are_bit_identical(self):
        cfg = ExperimentConfig(swap_market(), "decentralized-etc", 300, (5,), checkpoints=(300,))

        def trace():
            out = io.StringIO()
            run_episode(cfg, 5, trace=out)
            return out.getvalue()

        first = trace()
        assert first == trace()
        assert first.count("\n") == 1 + 2 * 300

    def test_traced_episode_memory_does_not_grow_with_horizon(self, tmp_path, monkeypatch):
        """The trace streams to its file: the peak of a traced episode is
        about the same at 2,000 and at 12,000 rounds, on the loop and on
        the fast path. The fast path's blocks reach 1024 rounds, whose
        rows the ledger writes in slices, so its peak stays near the
        loop's."""
        blocks = []
        record_block = RegretLedger.record_block

        def recording(ledger, rows, index, rewards, extra=()):
            blocks.append(len(index))
            record_block(ledger, rows, index, rewards, extra)

        monkeypatch.setattr(RegretLedger, "record_block", recording)
        market = sttcb_instance(3, 0.2, np.random.default_rng(7))

        def peak(horizon):
            cfg = ExperimentConfig(market, "oracle-fixed", horizon, (0,), checkpoints=(horizon,))
            with open(tmp_path / f"trace-{horizon}.csv", "w", encoding="utf-8") as fh:
                tracemalloc.start()
                try:
                    run_episode(cfg, 0, trace=fh)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peaks = {}
        for fast in (False, True):
            monkeypatch.setattr(harness, "_FAST_FORWARD", fast)
            peak(2_000)  # first-call allocations inside numpy are not the trace's
            small, large = peak(2_000), peak(12_000)
            # interpreter free lists and the 4096-round noise chunk stay;
            # the rows (6x more at 12,000) must not
            assert large < 1.5 * small, (fast, small, large)
            peaks[fast] = large
        assert max(blocks) == 1024
        # a block's arrays and one slice of its rows; the rows of a whole
        # block at once take about 1.1 MiB more than the loop
        assert peaks[True] < peaks[False] + 512 * 1024, peaks

    def test_deterministic_family_equates_regret_flavors(self):
        cfg = ExperimentConfig(
            swap_market(), "centralized-ucb", 300, (0,),
            reward_family="deterministic", checkpoints=(300,),
        )
        tr = run_episode(cfg, 0)
        assert tr.final_pseudo == tr.final_realized


class TestAggregation:
    def test_mean_and_stderr_match_manual_computation(self):
        cfg = ExperimentConfig(
            swap_market(), "centralized-ucb", 200, (0, 1, 2), checkpoints=(100, 200)
        )
        rep = monte_carlo(cfg)
        singles = [run_episode(cfg, s) for s in (0, 1, 2)]
        for ci in range(2):
            for i in range(2):
                vals = [tr.checkpoint_pseudo[ci][i] for tr in singles]
                assert rep.mean_regret[ci][i] == pytest.approx(statistics.fmean(vals))
                expected_se = statistics.stdev(vals) / math.sqrt(3)
                assert rep.stderr[ci][i] == pytest.approx(expected_se)

    def test_needs_two_seeds(self):
        cfg = ExperimentConfig(swap_market(), "oracle-fixed", 100, (0,), checkpoints=(100,))
        with pytest.raises(ConfigInvalidError):
            monte_carlo(cfg)

    def test_more_seeds_shrink_error_bars(self):
        # stderr scales like 1/sqrt(seeds); 50 vs 200 gives about 2
        mk = lambda k: ExperimentConfig(
            swap_market(), "centralized-ucb", 500, tuple(range(k)), checkpoints=(500,)
        )
        r50 = monte_carlo(mk(50))
        r200 = monte_carlo(mk(200))
        ratio = r50.stderr[0][0] / r200.stderr[0][0]
        assert 1.4 <= ratio <= 2.8

    def test_decentralized_telemetry_counts_commitments(self):
        rng = np.random.default_rng(7)
        inst = sttcb_instance(3, 0.2, rng, "gaussian")
        cfg = ExperimentConfig(
            inst, "decentralized-etc", 60000, (0, 1),
            reward_family="deterministic", checkpoints=(60000,),
        )
        rep = monte_carlo(cfg)
        tel = rep.telemetry
        assert tel["episodes_entering_phase2"] == 2
        assert tel["player_commitments"] == 6
        assert tel["player_commitments_to_core"] == 6
        assert tel["post_commit_core_fraction"] == 1.0

    def test_checkpoint_means_nondecreasing_on_top_cycle_instances(self):
        """When every core arm is its player's top arm, per-round
        increments are non-negative, so checkpoint means only grow."""
        rng = np.random.default_rng(9)
        inst = sttcb_instance(4, 0.2, rng, "gaussian")
        cfg = ExperimentConfig(
            inst, "centralized-ucb", 2000, tuple(range(5)), checkpoints=(100, 500, 2000)
        )
        rep = monte_carlo(cfg)
        cols = np.array(rep.mean_regret)
        assert (np.diff(cols, axis=0) >= 0).all()

    def test_vacuous_commitment_fraction_is_one(self):
        """Horizon far too short to certify: no commitments, and the
        post-commitment match fraction defaults to 1.0."""
        cfg = ExperimentConfig(swap_market(), "decentralized-etc", 50, (0, 1))
        rep = monte_carlo(cfg)
        assert rep.telemetry["episodes_entering_phase2"] == 0
        assert rep.telemetry["player_commitments"] == 0
        assert rep.telemetry["post_commit_core_fraction"] == 1.0


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_text(report):
    csv_file, json_file = io.StringIO(), io.StringIO()
    harness.write_report(report, csv_file, json_file)
    return csv_file.getvalue(), json_file.getvalue()


def fail_in_a_worker(monkeypatch, fail):
    """Two workers; fail(seed) runs in place of each episode a forked
    worker plays, while this process plays its share as usual."""
    parent = os.getpid()
    play = harness.run_episode

    def episode(config, seed, trace=None):
        if os.getpid() != parent:
            fail(seed)
        return play(config, seed, trace)

    monkeypatch.setattr(harness, "run_episode", episode)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


class HoldsALambda(RuntimeFailure):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class NeedsTwoArguments(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class TestSeedWorkers:
    """monte_carlo plays seeds[j::w] in forked worker j; the CPU count
    is patched so that these tests fork on any machine."""

    @pytest.mark.parametrize("seeds", [(0, 1), (4, 2, 9)], ids=["even", "uneven"])
    @pytest.mark.parametrize("algorithm", sorted(harness.ALGORITHMS))
    def test_forked_report_is_byte_identical(self, algorithm, seeds, monkeypatch):
        inst = sttcb_instance(3, 0.2, np.random.default_rng(7), "gaussian")
        cfg = ExperimentConfig(inst, algorithm, 20000, seeds)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        alone = report_text(monte_carlo(cfg))
        episodes = [run_episode(cfg, s) for s in seeds]
        played_here = []
        play = harness.run_episode

        def counted(config, seed, trace=None):
            played_here.append(seed)
            return play(config, seed, trace)

        monkeypatch.setattr(harness, "run_episode", counted)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        assert report_text(monte_carlo(cfg)) == alone
        # a wrapper in this process sees only this process's share
        assert played_here == list(seeds[0::2])
        # the merge restores seed order, which the means may not show
        assert harness._play_seeds(cfg) == episodes
        no_child_left()

    def test_a_workers_error_reaches_the_caller_typed(self, monkeypatch):
        def desync(seed):
            raise DesyncError(f"phase-2 collision in seed {seed}")

        fail_in_a_worker(monkeypatch, desync)
        with pytest.raises(DesyncError, match="^phase-2 collision in seed 1$"):
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1, 2)))
        no_child_left()

    @pytest.mark.parametrize("error", [HoldsALambda("no pickle"), NeedsTwoArguments(1, 2)],
                             ids=["cannot-pickle", "cannot-unpickle"])
    def test_an_error_that_cannot_travel_comes_back_as_its_repr(self, error, monkeypatch):
        def fail(seed):
            raise error

        fail_in_a_worker(monkeypatch, fail)
        with pytest.raises(RuntimeFailure) as caught:
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1)))
        assert type(caught.value) is RuntimeFailure
        assert str(caught.value) == repr(error)
        no_child_left()

    def test_a_worker_that_dies_names_its_exit_status(self, monkeypatch):
        fail_in_a_worker(monkeypatch, lambda seed: os._exit(7))
        with pytest.raises(RuntimeFailure, match="exited with status 7"):
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1)))
        no_child_left()

    def test_an_error_here_kills_the_workers(self, monkeypatch):
        parent = os.getpid()

        def episode(config, seed, trace=None):
            if os.getpid() == parent:
                raise DesyncError("here")
            time.sleep(60)

        monkeypatch.setattr(harness, "run_episode", episode)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(DesyncError, match="^here$"):
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1, 2)))
        assert time.monotonic() - start < 30
        no_child_left()

    def test_another_running_thread_keeps_every_seed_in_this_process(self, monkeypatch):
        """A fork copies only the forking thread, so while another
        thread runs no worker is forked and monte_carlo plays alone."""
        def no_fork():
            raise AssertionError("forked while another thread was running")

        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert harness._usable_cpus() == 1
            monkeypatch.setattr(os, "fork", no_fork)
            report = monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1)))
        finally:
            release.set()
            waiter.join()
        assert report.seeds == (0, 1)

    def test_a_worker_never_flushes_inherited_buffers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        path = tmp_path / "out.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("written once\n")
            monte_carlo(ExperimentConfig(swap_market(), "oracle-fixed", 100, (0, 1)))
        assert path.read_text(encoding="utf-8") == "written once\n"


class TestTraceWorkers:
    """A traced run_episode whose windows are written by forked
    workers; the CPU count and the minimum window are patched so that
    these tests fork on any machine."""

    def play_with_workers(self, monkeypatch, in_a_worker):
        """A traced episode on two CPUs in which every worker's window
        goes through in_a_worker(episode, rows) before it is sent back."""
        parent = os.getpid()
        play = harness._play_window

        def window(config, seed, trace=None, rows=(0, math.inf)):
            episode = play(config, seed, trace, rows)
            return in_a_worker(episode, rows) if os.getpid() != parent else episode

        monkeypatch.setattr(harness, "_play_window", window)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_MIN_WINDOW_ROUNDS", 0)
        cfg = ExperimentConfig(swap_market(), "centralized-ucb", 100, (0,))
        return run_episode(cfg, 0, trace=io.StringIO())

    def test_a_workers_error_reaches_the_caller_typed(self, monkeypatch):
        def fail(episode, rows):
            raise EntryOutOfRangeError(f"proposal out of range in rounds {rows}")

        message = r"^proposal out of range in rounds \(50, 100\)$"
        with pytest.raises(EntryOutOfRangeError, match=message):
            self.play_with_workers(monkeypatch, fail)
        no_child_left()

    def test_a_worker_with_other_final_regrets_raises_desync(self, monkeypatch):
        def drift(episode, rows):
            episode.final_pseudo = tuple(x + 1.0 for x in episode.final_pseudo)
            return episode

        with pytest.raises(DesyncError, match="^a trace worker's final regrets"):
            self.play_with_workers(monkeypatch, drift)
        no_child_left()

    def test_a_worker_that_dies_names_its_exit_status(self, monkeypatch):
        with pytest.raises(RuntimeFailure, match="exited with status 7"):
            self.play_with_workers(monkeypatch, lambda episode, rows: os._exit(7))
        no_child_left()


class TestBounds:
    def test_decentralized_bound_hand_value(self):
        """N=5, min gap 0.2, T=1e5, core utility 0.5 for player 0:
        (192*5*ln 1e5/0.04 + 5 ln(...) + 75) * 0.5 = 138 223.93."""
        bounds = bound_curves(bounded_market(), "decentralized-etc", (10**5,))[0]
        assert bounds[0] == pytest.approx(138223.93, rel=1e-4)
        # remaining players sit on their top arm (utility 0.9)
        assert bounds[1] == pytest.approx(138223.93 * 0.9 / 0.5, rel=1e-4)

    def test_centralized_bound_hand_value(self):
        # worst per-round gap for player 0 is 0.5 - 0.1 = 0.4 and the
        # pulls term is 5*25 + 12*5*ln(1e5)/0.04 = 17 394.4
        bounds = bound_curves(bounded_market(), "centralized-ucb", (10**5,))[0]
        assert bounds[0] == pytest.approx(0.4 * 17394.39, rel=1e-4)

    def test_oracle_bound_is_zero(self):
        assert bound_curves(swap_market(), "oracle-fixed", (10**4,))[0] == (0.0, 0.0)

    def test_bounds_grow_with_horizon(self):
        inst = bounded_market()
        for algo in ("decentralized-etc", "centralized-ucb"):
            small = bound_curves(inst, algo, (10**4,))[0]
            big = bound_curves(inst, algo, (10**5,))[0]
            assert all(b > s for s, b in zip(small, big))

    def test_single_player_market_keeps_constant_term(self, caplog):
        inst = validate_instance(np.array([[0.6]]), "gaussian")
        with caplog.at_level("WARNING"):
            dec = bound_curves(inst, "decentralized-etc", (100,))[0]
        assert dec == (pytest.approx(3.0 * 0.6),)
        assert "infinite" in caplog.text
        cen = bound_curves(inst, "centralized-ucb", (100,))[0]
        assert cen == (0.0,)

    def test_tiny_horizon_stays_finite(self):
        vals = bound_curves(bounded_market(), "decentralized-etc", (1,))[0]
        assert all(math.isfinite(v) and v > 0 for v in vals)


class TestExport:
    def run_report(self):
        cfg = ExperimentConfig(
            swap_market(), "centralized-ucb", 200, (0, 1, 2),
            checkpoints=(100, 200), instance_id="swap",
        )
        return monte_carlo(cfg)

    def test_csv_layout(self, tmp_path):
        rep = self.run_report()
        csv_path = tmp_path / "r.csv"
        export(rep, csv_path, tmp_path / "r.json")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "algorithm,instance_id,seed_count,player,checkpoint_t,"
            "mean_regret,stderr,bound"
        )
        assert len(lines) == 1 + 2 * 2  # checkpoints x players
        first = lines[1].split(",")
        assert first[:5] == ["centralized-ucb", "swap", "3", "1", "100"]
        # ordered by checkpoint, then player
        keys = [(int(l.split(",")[4]), int(l.split(",")[3])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_json_round_trips_report_numbers(self, tmp_path):
        rep = self.run_report()
        export(rep, tmp_path / "r.csv", tmp_path / "r.json")
        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["algorithm"] == "centralized-ucb"
        assert summary["checkpoints"] == [100, 200]
        assert summary["mean_regret"] == [list(r) for r in rep.mean_regret]
        assert summary["bounds"] == [list(r) for r in rep.bounds]
        assert "mean_core_match_fraction_second_half" in summary["telemetry"]

    def test_export_is_byte_stable(self, tmp_path):
        rep = self.run_report()
        export(rep, tmp_path / "a.csv", tmp_path / "a.json")
        export(rep, tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_no_checkpoints_writes_header_only(self, tmp_path):
        cfg = ExperimentConfig(swap_market(), "oracle-fixed", 50, (0, 1), checkpoints=())
        rep = monte_carlo(cfg)
        export(rep, tmp_path / "r.csv", tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_text().count("\n") == 1

    def test_unwritable_path_raises_input_error(self, tmp_path):
        rep = self.run_report()
        with pytest.raises(ConfigInvalidError):
            export(rep, tmp_path / "missing" / "r.csv", tmp_path / "r.json")
