"""Command-line interface: parsing, CSV contract, determinism, exit codes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import effcap_kit
from effcap_kit import __version__, cli
from effcap_kit.cli import GridSpec, SweepJob, _format_value, main
from effcap_kit.errors import ConvergenceError, DomainError


def run(argv):
    return main(argv)


def read_lines(path):
    return path.read_text().splitlines()


class TestFormatValue:
    def test_integers_pass_through(self):
        assert _format_value(7) == "7"
        assert _format_value(np.int64(12)) == "12"

    def test_floats_use_12_digits(self):
        assert _format_value(math.pi) == f"{math.pi:.12g}"
        assert _format_value(0.1) == "0.1"

    def test_positive_infinity_is_literal(self):
        assert _format_value(math.inf) == "inf"

    def test_nan_and_negative_infinity_raise(self):
        with pytest.raises(ConvergenceError):
            _format_value(math.nan)
        with pytest.raises(ConvergenceError):
            _format_value(-math.inf)


class TestGridSpec:
    def test_log_values(self):
        g = GridSpec("snr", 1.0, 100.0, 3, "log")
        np.testing.assert_allclose(g.values(), [1.0, 10.0, 100.0], rtol=1e-12)

    def test_linear_values(self):
        g = GridSpec("snr", 1.0, 3.0, 3, "linear")
        np.testing.assert_allclose(g.values(), [1.0, 2.0, 3.0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec("snr", 1.0, 100.0, 1)
        with pytest.raises(DomainError):
            GridSpec("snr", -1.0, 100.0, 4)
        with pytest.raises(DomainError):
            GridSpec("snr", 100.0, 1.0, 4)
        with pytest.raises(DomainError):
            GridSpec("snr", 1.0, 100.0, 4, "cubic")


class TestSweepJob:
    def test_validation(self):
        with pytest.raises(DomainError):
            SweepJob(target="no-such-sweep", out_path="x.csv", fixed={})
        with pytest.raises(DomainError):
            SweepJob(target="rho-vs-snr", out_path="", fixed={})
        with pytest.raises(DomainError):
            SweepJob(
                target="se-vs-ebn0",
                out_path="x.csv",
                fixed={},
                theta_list=(-1.0,),
            )
        with pytest.raises(DomainError):
            SweepJob(target="rho-vs-snr", out_path="x.csv", fixed={}, jobs=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, True])
    def test_seed_domain_is_the_simulators(self, seed):
        with pytest.raises(DomainError):
            SweepJob(target="queue-validate", out_path="x.csv", fixed={}, seed=seed)
        cfg = effcap_kit.LinkConfig(2e-3, 1e5, 1.0, 1e5)
        with pytest.raises(DomainError):
            effcap_kit.SimSpec(cfg, effcap_kit.QosSpec(0.01), 10**6, seed)


class TestCsvContract:
    def test_two_point_grid_yields_two_rows(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        code = run(
            [
                "rho-vs-snr",
                "--snr-min", "0.01",
                "--snr-max", "1",
                "--points", "2",
                "--bandwidth", "1e5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == f"# effcap-kit v{__version__} job=rho-vs-snr seed=none"
        assert lines[1] == "snr,snr_db,rho_opt,eta,snr_eff_opt"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert float(first[1]) == pytest.approx(-20.0)
        captured = capsys.readouterr()
        assert "2 rows" in captured.out

    def test_training_fraction_endpoints(self, tmp_path):
        # wide sweep at a large frame: the fraction runs from near one
        # half at vanishing SNR down to about 0.007 at huge SNR
        out = tmp_path / "rho.csv"
        code = run(
            [
                "rho-vs-snr",
                "--snr-min", "1e-8",
                "--snr-max", "1e6",
                "--points", "15",
                "--bandwidth", "1e7",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in read_lines(out)[2:]]
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-3)
        assert float(rows[-1][2]) == pytest.approx(0.007, abs=5e-4)

    def test_asymptotics_table_known_values(self, tmp_path):
        out = tmp_path / "asym.csv"
        code = run(
            [
                "asymptotics-table",
                "--theta-list", "0,0.001,0.01,0.1,1",
                "--power-over-nn0", "1e4",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = read_lines(out)
        header = lines[1].split(",")
        db_col = header.index("ebn0_min_db")
        s0_col = header.index("wideband_slope")
        want = {
            0.0: (4.6776, 0.4720),
            0.001: (4.7029, 0.4749),
            0.01: (4.9177, 0.4978),
            0.1: (6.3828, 0.6151),
            1.0: (10.8333, 0.6061),
        }
        for line in lines[2:]:
            parts = line.split(",")
            theta = float(parts[0])
            db, s0 = want[theta]
            assert float(parts[db_col]) == pytest.approx(db, abs=5e-3)
            assert float(parts[s0_col]) == pytest.approx(s0, abs=5e-4)

    def test_queue_header_names_generator(self, tmp_path):
        out = tmp_path / "q.csv"
        code = run(
            [
                "queue-validate",
                "--theta-list", "0.05",
                "--snr", "1",
                "--bandwidth", "1e5",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        head = read_lines(out)[0]
        assert head == f"# effcap-kit v{__version__} job=queue-validate seed=3 rng=pcg64"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "se-vs-ebn0",
            "--snr-min", "0.001",
            "--snr-max", "1",
            "--points", "5",
            "--bandwidth", "1e5",
            "--theta-list", "0,0.01",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = [
            "ebn0-vs-snr",
            "--snr-min", "0.01",
            "--snr-max", "1",
            "--points", "6",
            "--bandwidth", "1e5",
            "--theta-list", "0.01",
        ]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert run(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_worker_count_does_not_change_minimum_search(self, tmp_path):
        args = [
            "ebn0min-vs-bandwidth",
            "--b-min", "1e4",
            "--b-max", "1e7",
            "--points", "4",
            "--theta-list", "0,0.01",
        ]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert run(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert len(read_lines(serial)) == 2 + 8
        assert serial.read_bytes() == parallel.read_bytes()

    def test_queue_validate_reruns_identically(self, tmp_path):
        args = [
            "queue-validate",
            "--theta-list", "0.02",
            "--snr", "1",
            "--bandwidth", "1e5",
            "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


QUEUE_TWO_THETAS = [
    "queue-validate",
    "--theta-list", "0.01,0.02",
    "--snr", "1",
    "--bandwidth", "1e5",
    "--frames", "1000000",
]

ANALYTIC_JOBS = [
    ["rho-vs-snr", "--snr-min", "0.01", "--snr-max", "1", "--points", "4", "--bandwidth", "1e5"],
    [
        "se-vs-ebn0",
        "--snr-min", "0.01",
        "--snr-max", "1",
        "--points", "4",
        "--bandwidth", "1e5",
        "--theta-list", "0,0.01",
    ],
    [
        "ebn0-vs-snr",
        "--snr-min", "0.01",
        "--snr-max", "1",
        "--points", "4",
        "--bandwidth", "1e5",
        "--theta-list", "0.01",
    ],
    [
        "ebn0min-vs-bandwidth",
        "--b-min", "1e4",
        "--b-max", "1e6",
        "--points", "3",
        "--theta-list", "0,0.01",
    ],
    [
        "wideband-se-vs-ebn0",
        "--b-min", "1e8",
        "--b-max", "1e9",
        "--points", "3",
        "--theta-list", "0.001,0.01",
        "--num-subchannels", "100",
        "--power-over-n0", "1e7",
    ],
    ["asymptotics-table", "--theta-list", "0,0.01,0.1", "--power-over-nn0", "1e4"],
]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestEvaluationPolicy:
    def test_queue_worker_count_does_not_change_bytes(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run(QUEUE_TWO_THETAS + ["--jobs", "1", "--out", str(serial)]) == 0
        assert run(QUEUE_TWO_THETAS + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert len(read_lines(serial)) == 2 + 2
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("args", ANALYTIC_JOBS, ids=lambda a: a[0])
    def test_analytic_targets_run_in_process(self, args, tmp_path, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("an analytic target started a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
        assert run(args + ["--jobs", "2", "--out", str(tmp_path / "x.csv")]) == 0

    def test_queue_validate_sizes_its_pool_by_thetas(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        out = str(tmp_path / "q.csv")
        assert run(QUEUE_TWO_THETAS + ["--jobs", "2", "--out", out]) == 0
        assert run(QUEUE_TWO_THETAS + ["--jobs", "8", "--out", out]) == 0
        assert _RecordingPool.sizes == [2, 2]
        # one worker, or one theta, needs no pool
        assert run(QUEUE_TWO_THETAS + ["--jobs", "1", "--out", out]) == 0
        one_theta = QUEUE_TWO_THETAS[:2] + ["0.01"] + QUEUE_TWO_THETAS[3:]
        assert run(one_theta + ["--jobs", "2", "--out", out]) == 0
        assert _RecordingPool.sizes == [2, 2]


class TestConfigMerge:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            "snr-min = 0.001\n"
            "snr-max = 1\n"
            "points = 3  # comment survives\n"
            "bandwidth = 1e7\n"
        )
        out = tmp_path / "rho.csv"
        code = run(
            [
                "rho-vs-snr",
                "--config", str(cfg),
                "--points", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(read_lines(out)) == 2 + 4

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("coherence = 1\n")
        code = run(["rho-vs-snr", "--config", str(cfg), "--out", "x.csv"])
        assert code == 1

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("just words\n")
        code = run(["rho-vs-snr", "--config", str(cfg), "--out", "x.csv"])
        assert code == 1

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EFFCAP_SEED", "77")
        out = tmp_path / "q.csv"
        code = run(
            [
                "queue-validate",
                "--theta-list", "0.05",
                "--snr", "1",
                "--bandwidth", "1e5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "seed=77" in read_lines(out)[0]

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EFFCAP_SEED", "77")
        out = tmp_path / "q.csv"
        code = run(
            [
                "queue-validate",
                "--theta-list", "0.05",
                "--snr", "1",
                "--bandwidth", "1e5",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "seed=5 " in read_lines(out)[0]


RHO_JOB = ANALYTIC_JOBS[0]


class TestInputDomain:
    """Flags, config values and EFFCAP_SEED share the library's checks."""

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_1(self, tmp_path, capsys, seed):
        out = tmp_path / "q.csv"
        assert run(QUEUE_TWO_THETAS + ["--seed", seed, "--out", str(out)]) == 1
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_per_theta_seeds_wrap_at_2_64(self, tmp_path):
        out = tmp_path / "q.csv"
        code = run(QUEUE_TWO_THETAS + ["--seed", str(2**64 - 1), "--jobs", "1", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert f"seed={2**64 - 1} " in lines[0]
        assert [line.split(",")[-1] for line in lines[2:]] == [str(2**64 - 1), "0"]

    @pytest.mark.parametrize("line, flag", [("seed = x", "--seed"), ("jobs = two", "--jobs")])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, line, flag):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(line + "\n")
        code = run(RHO_JOB + ["--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"error: bad value for {flag}" in capsys.readouterr().err

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_bytes(b"points = \xff\xfe\n")
        code = run(RHO_JOB + ["--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err

    @pytest.mark.parametrize("env", ["-1", str(2**64)])
    def test_env_seed_outside_64_bits_exits_1(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv("EFFCAP_SEED", env)
        out = tmp_path / "rho.csv"
        assert run(RHO_JOB + ["--out", str(out)]) == 1
        assert "EFFCAP_SEED must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_and_jobs_are_read(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("seed = 9\njobs = 1\n")
        out = tmp_path / "rho.csv"
        assert run(RHO_JOB + ["--config", str(cfg), "--out", str(out)]) == 0
        assert read_lines(out)[0].endswith("seed=9")


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["rho-vs-snr", "--coherence", "1", "--out", "x.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required(self):
        assert run(["rho-vs-snr", "--out", "x.csv"]) == 1

    def test_domain_error(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(
            [
                "rho-vs-snr",
                "--snr-min", "10",
                "--snr-max", "1",
                "--points", "4",
                "--bandwidth", "1e5",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

    def test_unwritable_output(self):
        code = run(
            [
                "asymptotics-table",
                "--theta-list", "0.01",
                "--power-over-nn0", "1e4",
                "--out", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 3

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "rho-vs-snr" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_help_lists_every_target_and_its_flags(self, capsys):
        # the parser gives flags to the selected target's subparser only,
        # so each target's help is built on its own
        assert run(["--help"]) == 0
        top = capsys.readouterr().out
        for name, target in cli._TARGETS.items():
            assert name in top
            assert run([name, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in ("--out", "--config", "--jobs", "--seed"):
                assert flag in text, (name, flag)
            for p in target.flags:
                assert f"--{p.name}" in text, (name, p.name)
        assert len(cli._TARGETS) == 7

    def test_unknown_target(self, capsys):
        assert run(["fig6", "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and "queue-validate" in err


class TestWidebandTarget:
    def test_growth_laws_run(self, tmp_path):
        out = tmp_path / "wb.csv"
        code = run(
            [
                "wideband-se-vs-ebn0",
                "--b-min", "1e8",
                "--b-max", "1e9",
                "--points", "3",
                "--theta-list", "0.001",
                "--growth", "sublinear",
                "--num-subchannels", "100",
                "--growth-exponent", "0.5",
                "--power-over-n0", "1e7",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = read_lines(out)
        header = lines[1].split(",")
        n_col = header.index("num_subchannels")
        counts = [int(line.split(",")[n_col]) for line in lines[2:]]
        # sqrt growth: tripling the decade roughly triples sqrt(10)
        assert counts[0] == 100
        assert counts[-1] == pytest.approx(100 * math.sqrt(10.0), rel=0.01)

    def test_unknown_growth_rejected(self, tmp_path):
        code = run(
            [
                "wideband-se-vs-ebn0",
                "--b-min", "1e8",
                "--b-max", "1e9",
                "--points", "3",
                "--theta-list", "0.001",
                "--growth", "exponential",
                "--num-subchannels", "100",
                "--power-over-n0", "1e7",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1


# scipy blocked: every scipy import in the child raises ImportError
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from effcap_kit import LinkConfig, QosSpec, cli, spectral_efficiency
cfg = LinkConfig(2e-3, 1e5, 1.0, 1e5)
assert spectral_efficiency(cfg, QosSpec(0.01)).spectral_efficiency > 0.0
assert spectral_efficiency(cfg, QosSpec(0.0)).spectral_efficiency > 0.0
argv = ["ebn0min-vs-bandwidth", "--b-min", "1e4", "--b-max", "1e6",
        "--points", "2", "--theta-list", "0,0.01", "--out", sys.argv[1]]
sys.exit(cli.main(argv))
"""


class TestRuntimeDependencies:
    def test_runs_without_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(effcap_kit.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = tmp_path / "fig6_small.csv"
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(read_lines(out)) == 2 + 4
