import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

from hashscope import drift, social
from hashscope.cli import main, parse_config_file
from hashscope.corpus import (
    MAX_HASHTAGS_PER_POST, Corpus, PostRecord, load_corpus, save_corpus, save_friendships,
)
from hashscope.embedding import TrainingDivergedError
from hashscope.reports import report_stats
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import cli_env, ts


def run_cli(args):
    return main(args)


def diverge(*args, **kwargs):
    raise TrainingDivergedError("non-finite embedding values after epoch 1")


def small_corpus_files(tmp_path, spec=None):
    spec = spec or SyntheticSpec(users=60, hashtags=100, posts=4000, years=4,
                                 communities=5, homophily=0.7, located_rate=0.5,
                                 friends_per_user=6.0, zipf_exponent=0.5, seed=3)
    corpus = generate_synthetic(spec)
    posts = tmp_path / "corpus.jsonl"
    friends = tmp_path / "friends.csv"
    save_corpus(corpus, posts)
    save_friendships(corpus.friendships, friends)
    locations = None
    if corpus.location_categories:
        from hashscope.corpus import save_location_categories
        locations = tmp_path / "locations.csv"
        save_location_categories(corpus.location_categories, locations)
    return posts, friends, locations


class TestSynthCommand:
    def test_same_seed_identical_files(self, tmp_path):
        for name in ("one", "two"):
            code = run_cli(["synth", "--seed", "1", "--users", "40", "--hashtags", "60",
                            "--posts", "1500", "--periodic", "6", "--rising", "10",
                            "--stable", "6", "--meteor", "4", "--communities", "4",
                            "--drifted", "2", "--out", str(tmp_path / name / "c.jsonl")])
            assert code == 0
        base = (tmp_path / "one" / "c.jsonl").read_bytes()
        assert base == (tmp_path / "two" / "c.jsonl").read_bytes()
        f1 = (tmp_path / "one" / "c.jsonl.friends.csv").read_bytes()
        f2 = (tmp_path / "two" / "c.jsonl.friends.csv").read_bytes()
        assert f1 == f2

    def test_communities_without_pool_hashtags(self, tmp_path):
        # 5 pool hashtags among 8 communities: three communities have none
        out = tmp_path / "c.jsonl"
        code = run_cli(["synth", "--hashtags", "5", "--communities", "8", "--periodic", "0",
                        "--rising", "0", "--stable", "0", "--meteor", "0", "--drifted", "0",
                        "--users", "40", "--posts", "1500", "--out", str(out)])
        assert code == 0
        corpus = load_corpus(out)
        assert len(corpus.posts) == 1500
        assert corpus.tag_names
        assert max(len(p.hashtags) for p in corpus.posts) <= MAX_HASHTAGS_PER_POST

    def test_infeasible_spec_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(["synth", "--hashtags", "5", "--periodic", "10",
                        "--out", str(tmp_path / "c.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_three_post_counts(self, tmp_path, capsys):
        posts = [
            PostRecord("a", ts(2013, 2), frozenset({"x", "y"})),
            PostRecord("a", ts(2013, 5), frozenset({"x"})),
            PostRecord("b", ts(2013, 8), frozenset()),
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(posts=posts), path)
        out = tmp_path / "out"
        assert run_cli(["stats", "--input", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "stats.json").read_text())
        assert report["n_posts"] == 3
        assert report["n_users"] == 2
        assert report["n_hashtags"] == 2
        assert report["n_hashtag_instances"] == 3

    def test_wall_time_ignores_system_clock_steps(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(posts=[PostRecord("a", ts(2013, 2), frozenset({"x"}))]), path)
        clock = iter(range(10**9, 0, -1000))  # the system clock steps back on each read
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        out = tmp_path / "out"
        assert run_cli(["stats", "--input", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["wall_time_s"] >= 0

    def test_missing_input_diagnostic(self, tmp_path, capsys):
        code = run_cli(["stats", "--input", str(tmp_path / "nope.jsonl"),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_input_flag_required(self, tmp_path, capsys):
        code = run_cli(["stats", "--out", str(tmp_path / "out")])
        assert code == 1


class TestConfigResolution:
    def test_config_file_parsed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 5\ntop_k = 25\n")
        assert parse_config_file(cfg) == {"seed": 5, "top_k": 25}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(cfg)

    def test_cli_overrides_config_file(self, tmp_path):
        posts, friends, _ = small_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        out = tmp_path / "out"
        code = run_cli(["stats", "--input", str(posts), "--config", str(cfg),
                        "--seed", "7", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 7

    def test_config_file_overrides_default(self, tmp_path):
        posts, friends, _ = small_corpus_files(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        out = tmp_path / "out"
        run_cli(["stats", "--input", str(posts), "--config", str(cfg),
                 "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 5

    def test_unknown_flag_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["stats", "--wat", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestPipelineCommands:
    def test_temporal_artifacts(self, tmp_path):
        spec = SyntheticSpec(users=80, hashtags=90, posts=6000, years=4,
                             periodic=12, rising=12, stable=12, meteor=12,
                             zipf_exponent=0.5, seed=4)
        posts, _, _ = small_corpus_files(tmp_path, spec)
        out = tmp_path / "out"
        code = run_cli(["temporal", "--input", str(posts), "--out", str(out),
                        "--top-k", "80", "--k-min", "2", "--k-max", "5",
                        "--restarts", "3", "--seed", "1"])
        assert code == 0
        assert (out / "temporal_clusters.csv").exists()
        assert (out / "temporal_centroids.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == [
            "temporal_centroids.json", "temporal_clusters.csv"]

    def test_spatial_artifacts(self, tmp_path):
        posts, _, locations = small_corpus_files(tmp_path)
        out = tmp_path / "out"
        code = run_cli(["spatial", "--input", str(posts), "--locations",
                        str(locations), "--out", str(out)])
        assert code == 0
        assert (out / "spatial_propensity.csv").exists()

    def test_drift_artifacts(self, tmp_path):
        spec = SyntheticSpec(users=60, hashtags=80, posts=5000, years=2,
                             communities=4, zipf_exponent=0.5, seed=5)
        posts, _, _ = small_corpus_files(tmp_path, spec)
        out = tmp_path / "out"
        code = run_cli(["drift", "--input", str(posts), "--out", str(out),
                        "--dimension", "16", "--epochs", "2", "--top-k", "50",
                        "--min-count", "3", "--seed", "2"])
        assert code == 0
        for name in ("drift_displacement.csv", "drift_scatter.csv",
                     "drift_summary.json"):
            assert (out / name).exists()

    def test_social_artifacts(self, tmp_path):
        posts, friends, _ = small_corpus_files(tmp_path)
        out = tmp_path / "out"
        code = run_cli(["social", "--input", str(posts), "--friends", str(friends),
                        "--out", str(out), "--walk-times", "4", "--walk-length", "10",
                        "--profile-dim", "16", "--social-epochs", "2", "--seed", "3"])
        assert code == 0
        assert (out / "social_pairs.csv").exists()
        summary = json.loads((out / "social_summary.json").read_text())
        assert set(summary["auc"]) == {"profile", "common", "jaccard", "preferential"}

    @pytest.mark.parametrize("command,flags,message", [
        ("temporal", ["--top-k", "80", "--restarts", "0"], "restarts must be >= 1"),
        ("spatial", ["--categories-top-n", "0"], "categories_top_n must be >= 1"),
        ("spatial", ["--categories-top-n", "-1"], "categories_top_n must be >= 1"),
        ("drift", ["--learning-rate", "-0.01", "--dimension", "8", "--epochs", "1"],
         "learning rates must be finite and >= 0"),
        ("temporal", ["--top-k", "5"], "k range reaches 8 but there are only 5 points"),
    ])
    def test_out_of_range_setting_is_an_error(self, tmp_path, capsys,
                                              command, flags, message):
        posts, _, locations = small_corpus_files(tmp_path)
        code = run_cli([command, "--input", str(posts), "--locations", str(locations),
                        "--out", str(tmp_path / "out")] + flags)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_outputs_confined_to_out_dir(self, tmp_path):
        posts, friends, _ = small_corpus_files(tmp_path)
        out = tmp_path / "only_here"
        before = set(tmp_path.rglob("*"))
        run_cli(["stats", "--input", str(posts), "--out", str(out)])
        created = set(tmp_path.rglob("*")) - before
        for path in created:
            assert str(path).startswith(str(out))


@pytest.fixture
def two_cpus(monkeypatch):
    """Let `all` see two CPUs, so drift runs in its forked worker on any
    machine with ``fork``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.usefixtures("two_cpus")
class TestAllCommand:
    def test_generates_and_runs_every_pipeline(self, tmp_path):
        out = tmp_path / "all"
        code = run_cli([
            "all", "--out", str(out), "--seed", "2",
            "--users", "80", "--hashtags", "120", "--posts", "6000",
            "--years-span", "4", "--periodic", "8", "--rising", "8",
            "--stable", "8", "--meteor", "8", "--communities", "5",
            "--drifted", "3", "--homophily", "0.7", "--located-rate", "0.5",
            "--top-k", "100", "--k-max", "5", "--restarts", "3",
            "--dimension", "16", "--epochs", "2", "--min-count", "3",
            "--walk-times", "4", "--walk-length", "10", "--profile-dim", "16",
            "--social-epochs", "2",
        ])
        assert code == 0
        for name in ("corpus.jsonl", "stats.json", "temporal_clusters.csv",
                     "spatial_propensity.csv", "drift_displacement.csv",
                     "social_summary.json", "manifest.json"):
            assert (out / name).exists(), name
        assert "skipped" not in json.loads((out / "manifest.json").read_text())

    FAST = ["--top-k", "100", "--k-max", "4", "--restarts", "2", "--dimension", "16",
            "--epochs", "2", "--min-count", "3", "--walk-times", "4",
            "--walk-length", "10", "--profile-dim", "16", "--social-epochs", "2"]

    def test_skipped_pipeline_recorded_and_fails_run(self, tmp_path, capsys):
        posts, friends, locations = small_corpus_files(tmp_path)
        header_and_three_pairs = friends.read_text().splitlines()[:4]
        friends.write_text("\n".join(header_and_three_pairs) + "\n")
        out = tmp_path / "all"
        code = run_cli(["all", "--input", str(posts), "--friends", str(friends),
                        "--locations", str(locations), "--strict", "--out", str(out)]
                       + self.FAST)
        assert code == 1
        assert "social: skipped (need at least 10 friend pairs" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == {"social": "need at least 10 friend pairs to evaluate"}
        for name in ("stats.json", "temporal_clusters.csv", "spatial_propensity.csv",
                     "drift_displacement.csv"):
            assert (out / name).exists(), name
            assert name in manifest["artifacts"]
        assert not (out / "social_summary.json").exists()

    def test_no_planted_locations_no_locations_file(self, tmp_path, capsys):
        out = tmp_path / "all"
        code = run_cli([
            "all", "--out", str(out), "--seed", "2", "--strict",
            "--users", "80", "--hashtags", "120", "--posts", "6000",
            "--periodic", "8", "--rising", "8", "--stable", "8", "--meteor", "8",
            "--communities", "5", "--drifted", "3", "--located-rate", "0",
        ] + self.FAST)
        assert code == 1
        assert "spatial: skipped (corpus has no posts at category-mapped" in (
            capsys.readouterr().err)
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["skipped"]) == ["spatial"]
        assert not (out / "corpus.locations.csv").exists()
        assert "corpus.locations.csv" not in manifest["artifacts"]
        for name in ("corpus.jsonl", "corpus.friends.csv"):
            assert (out / name).exists(), name
            assert name in manifest["artifacts"]

    def test_zero_restarts_skips_temporal(self, tmp_path, capsys):
        posts, friends, locations = small_corpus_files(tmp_path)
        out = tmp_path / "all"
        # the later --restarts overrides the one in FAST
        code = run_cli(["all", "--input", str(posts), "--friends", str(friends),
                        "--locations", str(locations), "--strict", "--out", str(out)]
                       + self.FAST + ["--restarts", "0"])
        assert code == 1
        assert "temporal: skipped (restarts must be >= 1" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == {"temporal": "restarts must be >= 1, got 0"}
        for name in ("stats.json", "spatial_propensity.csv", "drift_displacement.csv",
                     "social_summary.json"):
            assert (out / name).exists(), name
            assert name in manifest["artifacts"]
        assert not (out / "temporal_clusters.csv").exists()

    def test_numeric_failures_skip_pipeline(self, tmp_path, monkeypatch, capsys):
        raised_in = tmp_path / "raised_in.pid"

        def misalign(*args, **kwargs):
            raised_in.write_text(str(os.getpid()))
            raise ArithmeticError("alignment not orthogonal: residual 1.000e+00")

        monkeypatch.setattr(drift, "procrustes_align", misalign)
        monkeypatch.setattr(social, "train", diverge)
        posts, friends, locations = small_corpus_files(tmp_path)
        out = tmp_path / "all"
        code = run_cli(["all", "--input", str(posts), "--friends", str(friends),
                        "--locations", str(locations), "--out", str(out)] + self.FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "drift: skipped (alignment not orthogonal" in err
        assert "social: skipped (non-finite" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["skipped"]) == ["drift", "social"]
        assert (out / "spatial_propensity.csv").exists()
        assert int(raised_in.read_text()) != os.getpid()  # drift's worker raised it

    def test_worker_exit_without_result_skips_drift(self, tmp_path):
        # run in a subprocess, so a hang is cut off by the timeout
        posts, friends, locations = small_corpus_files(tmp_path)
        out = tmp_path / "all"
        code = ("import os, sys\n"
                "from hashscope import cli, drift\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "drift.drift_analysis = lambda *args, **kwargs: os._exit(3)\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, "all", "--input", str(posts), "--friends",
             str(friends), "--locations", str(locations), "--strict", "--out", str(out)]
            + self.FAST, capture_output=True, text=True, env=cli_env(), timeout=300,
        )
        reason = "worker process exited with code 3 without a result"
        assert done.returncode == 1
        assert done.stderr == f"drift: skipped ({reason})\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == {"drift": reason}
        for name in ("stats.json", "temporal_clusters.csv", "spatial_propensity.csv",
                     "social_summary.json"):
            assert name in manifest["artifacts"]
        assert not (out / "drift_summary.json").exists()

    def test_unexpected_error_stops_worker(self, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("not a skipping failure")

        # the parent fails while drift's worker is still busy
        monkeypatch.setattr(drift, "drift_analysis", lambda *args, **kwargs: time.sleep(30))
        monkeypatch.setattr(social, "friendship_eval", crash)
        posts, friends, locations = small_corpus_files(tmp_path)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="not a skipping failure"):
            run_cli(["all", "--input", str(posts), "--friends", str(friends),
                     "--locations", str(locations), "--out", str(tmp_path / "all")]
                    + self.FAST)
        assert time.monotonic() - started < 20  # stopped, not waited for
        assert multiprocessing.active_children() == []

    def test_corpus_reaches_worker_unpickled(self, tmp_path, monkeypatch):
        def refuse(self, protocol):
            raise TypeError("Corpus must not be pickled")

        monkeypatch.setattr(Corpus, "__reduce_ex__", refuse)
        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(Corpus(posts=[]))
        posts, friends, locations = small_corpus_files(tmp_path)
        out = tmp_path / "all"
        code = run_cli(["all", "--input", str(posts), "--friends", str(friends),
                        "--locations", str(locations), "--out", str(out)] + self.FAST)
        assert code == 0
        assert (out / "drift_summary.json").exists()

    def test_diverged_training_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(social, "train", diverge)
        posts, friends, _ = small_corpus_files(tmp_path)
        code = run_cli(["social", "--input", str(posts), "--friends", str(friends),
                        "--out", str(tmp_path / "out"), "--walk-times", "2",
                        "--walk-length", "5"])
        assert code == 1
        assert "error: non-finite embedding values" in capsys.readouterr().err


class TestWhereDriftRuns:
    """`all` computes drift in a forked worker when the process may use a
    second CPU, otherwise in-process; the outputs are the same bytes."""

    DRIFT = ["--top-k", "100", "--dimension", "16", "--epochs", "2", "--min-count", "3"]

    @pytest.fixture
    def drift_pids(self, tmp_path, monkeypatch):
        """Returns the pids of the processes that ran `drift_analysis`, in
        call order."""
        log = tmp_path / "drift.pids"
        analysis = drift.drift_analysis

        def recording(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return analysis(*args, **kwargs)

        monkeypatch.setattr(drift, "drift_analysis", recording)
        return lambda: [int(pid) for pid in log.read_text().split()]

    def run(self, tmp_path, monkeypatch, cpus, command, flags):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        tmp_path.mkdir()
        posts, friends, locations = small_corpus_files(tmp_path)
        out = tmp_path / "out"
        code = run_cli([command, "--input", str(posts), "--friends", str(friends),
                        "--locations", str(locations), "--strict", "--out", str(out)]
                       + flags)
        assert code == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_all_forks_with_two_cpus_and_not_with_one(self, tmp_path, monkeypatch,
                                                      drift_pids):
        forked = self.run(tmp_path / "two", monkeypatch, {0, 1}, "all",
                          TestAllCommand.FAST)
        in_process = self.run(tmp_path / "one", monkeypatch, {0}, "all",
                              TestAllCommand.FAST)
        worker, parent = drift_pids()
        assert worker != os.getpid()
        assert parent == os.getpid()
        assert "drift_summary.json" in forked
        assert forked == in_process

    def test_drift_command_runs_in_process(self, tmp_path, monkeypatch, drift_pids):
        outputs = self.run(tmp_path / "drift", monkeypatch, {0, 1}, "drift", self.DRIFT)
        assert drift_pids() == [os.getpid()]
        assert "drift_summary.json" in outputs


class TestStatsReport:
    def test_half_no_hashtag_histogram(self):
        posts = []
        for i in range(10):
            tags = frozenset({"x"}) if i % 2 == 0 else frozenset()
            posts.append(PostRecord("u", ts(2013) + i * 86400, tags))
        report = report_stats(Corpus(posts=posts))
        assert report.hashtag_count_histogram[0] == pytest.approx(0.5)
        assert report.hashtag_count_histogram[1] == pytest.approx(0.5)

    def test_single_post_corpus(self):
        report = report_stats(Corpus(posts=[PostRecord("u", ts(2013), frozenset({"x"}))]))
        assert report.n_posts == 1
        assert report.adoption[0]["post_proportion"] == 1.0

    def test_growth_corpus_monotone_adoption(self):
        spec = SyntheticSpec(users=150, hashtags=100, posts=20000, years=4,
                             adoption_growth=True, seed=6)
        corpus = generate_synthetic(spec)
        report = report_stats(corpus)
        proportions = [row["post_proportion"] for row in report.adoption]
        assert len(proportions) == 16
        assert all(b > a for a, b in zip(proportions, proportions[1:]))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            report_stats(Corpus(posts=[]))

    def test_top_hashtags_ranked(self, three_post_corpus):
        report = report_stats(three_post_corpus, top_k=5)
        assert report.top_hashtags[0][0] in ("sea", "sun")
        assert report.top_hashtags[0][1] == 2


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes most of the CLI's start-up time; no command needs it
    out = subprocess.run(
        [sys.executable, "-c",
         "import hashscope.cli, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=cli_env(), check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_start_does_not_load_scipy_sparse():
    # only embedding training needs scipy's sparse kernels and only `all`
    # starts a worker process; stats, temporal and spatial never pay for the
    # imports
    code = (
        "import sys\n"
        "from hashscope.cli import main\n"
        "lazy = ['scipy.sparse', 'multiprocessing', 'concurrent.futures.process']\n"
        "print('after import:', [m for m in lazy if m in sys.modules], file=sys.stderr)\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('after --help:', [m for m in lazy if m in sys.modules], file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert "usage:" in out.stdout
    assert out.stderr.splitlines() == ["after import: []", "after --help: []"]


@pytest.mark.parametrize("command", ["stats", "social"])
def test_command_does_not_load_numpy_ma(tmp_path, command):
    # a plain np.unique imports numpy.ma on its first call, and so does the
    # scipy.sparse package; stats and social (which trains) need neither
    posts, friends, _ = small_corpus_files(tmp_path)
    args = [command, "--input", str(posts), "--out", str(tmp_path / "out"), "--seed", "3"]
    if command == "social":
        args += ["--friends", str(friends), "--walk-times", "4", "--walk-length", "10",
                 "--profile-dim", "16", "--social-epochs", "2"]
    code = ("import sys\n"
            "from hashscope.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(status, 'numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_svd_independent_of_blas_thread_setting():
    # importing hashscope pins OpenBLAS to one thread whatever the caller set;
    # a threaded 300x300 SVD gives different last bits than a serial one
    code = ("import hashlib, hashscope, numpy as np\n"
            "m = np.random.default_rng(0).standard_normal((300, 300))\n"
            "parts = np.linalg.svd(m)\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in parts)).hexdigest())\n")
    digests = {
        threads: subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True,
                                env=cli_env(OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    }
    assert digests["1"] and digests["1"] == digests["2"]


def test_drift_strict_output_independent_of_blas_threads(tmp_path):
    # the alignment products must not go through a threaded BLAS kernel
    posts = tmp_path / "corpus.jsonl"
    assert run_cli(["synth", "--seed", "1", "--strict", "--out", str(posts)]) == 0
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"drift-{threads}"
        subprocess.run(
            [sys.executable, "-m", "hashscope.cli", "drift", "--input", str(posts),
             "--seed", "1", "--strict", "--out", str(out)],
            capture_output=True, text=True, check=True,
            env=cli_env(OPENBLAS_NUM_THREADS=threads),
        )
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "drift_summary.json" in outputs["1"]
    assert outputs["1"] == outputs["2"]
