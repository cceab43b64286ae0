"""End-to-end tests of the command-line interface and its exit codes."""

import inspect
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import ttmera
from ttmera import experiments
from ttmera.cli import PAPER_SCALE, main
from ttmera.formats import load_tensor
from ttmera.heat import HeatConfig


def run(argv):
    return main([str(a) for a in argv])


class TestHeat2d:
    def test_writes_tensor(self, tmp_path, capsys):
        code = run(["heat2d", "--ds", "0.2", "--t-end", "0.1",
                    "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "heat.mrt1" in out
        t = load_tensor(tmp_path / "heat.mrt1")
        assert t.dims[0] == 5

    def test_capacity_guard_exit_code(self, tmp_path, capsys):
        code = run(["heat2d", "--ds", "1e-3", "--out", tmp_path])
        assert code == 3
        assert "capacity" in capsys.readouterr().err

    def test_unstable_time_step_exit_code(self, tmp_path, capsys):
        code = run(["heat2d", "--ds", "0.1", "--dt", "0.01",
                    "--out", tmp_path])
        assert code == 2
        assert "stability" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--t-end", "inf"), ("--t-end", "nan"),
                                             ("--dt", "nan")])
    def test_nonfinite_time_exit_code(self, tmp_path, capsys, flag, value):
        code = run(["heat2d", "--ds", "0.2", flag, value, "--out", tmp_path])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--ds", "1e-200"], ["--ds", "1e-160"],
                                      ["--dt", "1e-320"]])
    def test_vanishing_time_step_exit_code(self, tmp_path, capsys, argv):
        # 0.25 ds^2 underflows to zero, or t_end / dt overflows
        code = run(["heat2d", *argv, "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time step")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--ds", "0.2", "--t-end", "1e300"],
                                      ["--ds", "1e-100"]])
    def test_huge_capacity_message_is_short(self, tmp_path, capsys, argv):
        code = run(["heat2d", *argv, "--out", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert "entry budget" in err
        assert err.count("\n") == 1
        assert len(err) < 200


class TestCompress:
    @pytest.fixture()
    def tensor_file(self, tmp_path):
        assert run(["heat2d", "--ds", "0.2", "--t-end", "0.1",
                    "--out", tmp_path]) == 0
        return tmp_path / "heat.mrt1"

    def test_all_methods(self, tensor_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = run(["compress", tensor_file, "--eps", "1e-2",
                    "--out", out_dir])
        assert code == 0
        text = capsys.readouterr().out
        for method in ("sthosvd", "tt", "tt-tucker"):
            assert method in text
        payload = json.loads((out_dir / "compress.json").read_text())
        assert [r["method"] for r in payload["reports"]] == [
            "sthosvd", "tt", "tt-tucker"]

    def test_repeatable_method_flag(self, tensor_file, capsys):
        code = run(["compress", tensor_file, "--method", "tt",
                    "--method", "sthosvd"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("tt ")

    def test_factorize(self, tensor_file, capsys):
        code = run(["compress", tensor_file, "--factorize",
                    "--method", "tt"])
        assert code == 0

    def test_bad_epsilon_exit_code(self, tensor_file, capsys):
        code = run(["compress", tensor_file, "--eps", "-1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = run(["compress", tmp_path / "absent.mrt1"])
        assert code == 2

    def test_malformed_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mrt1"
        bad.write_bytes(b"XXXX" + b"\x00" * 8)
        code = run(["compress", bad])
        assert code == 2

    def test_nonfinite_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nan.mrt1"
        payload = struct.pack("<2d", 1.0, float("nan"))
        bad.write_bytes(
            b"MRT1" + struct.pack("<H", 1) + struct.pack("<Q", 2) + payload
        )
        code = run(["compress", bad])
        assert code == 4
        assert "numeric" in capsys.readouterr().err


class TestPlanted:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        code = run(["planted", "--I", "4", "--rprime", "2", "--seed", "4",
                    "--out", tmp_path])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["achieved_rank"] == 2

    def test_invalid_rank_exit_code(self, capsys):
        code = run(["planted", "--I", "3", "--rprime", "64"])
        assert code == 2

    @pytest.mark.parametrize("flags, name", [
        (["--max-iters", "-5"], "max_iters"),
        (["--trace-stride", "-3"], "trace_stride"),
    ])
    def test_negative_budget_exit_code(self, flags, name, capsys):
        code = run(["planted", "--I", "4", "--rprime", "3", *flags])
        assert code == 2
        assert name in capsys.readouterr().err


class TestScans:
    def test_rmin_scan(self, tmp_path, capsys):
        code = run(["rmin-scan", "--I-values", "2", "--seeds", "1",
                    "--out", tmp_path])
        assert code == 0
        assert "rmin=2" in capsys.readouterr().out
        assert (tmp_path / "rmin.csv").exists()

    def test_iters_vs_rank(self, tmp_path, capsys):
        code = run(["iters-vs-rank", "--I", "2", "--rprimes", "2-3",
                    "--out", tmp_path])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "iterations.csv").exists()

    def test_bad_range_exit_code(self, capsys):
        code = run(["iters-vs-rank", "--I", "2", "--rprimes", "9"])
        assert code == 2

    def test_negative_budget_exit_code(self, capsys):
        code = run(["rmin-scan", "--I-values", "2", "--seeds", "1",
                    "--max-iters", "-5"])
        assert code == 2
        assert "max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["rmin-scan", "--I-values", "2"],
        ["iters-vs-rank", "--I", "2", "--rprimes", "2-3"],
    ])
    def test_zero_seeds_exit_code(self, command, capsys):
        code = run([*command, "--seeds", "0"])
        assert code == 2
        assert "need at least one seed" in capsys.readouterr().err


class TestMera12:
    def test_hosvd_only_smoke(self, tmp_path, capsys):
        code = run(["mera12", "--order", "4", "--layers", "1",
                    "--seed", "4", "--strategy", "hosvd",
                    "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "mera[plant]" in out
        assert "mera[hosvd]" in out
        payload = json.loads((tmp_path / "mera12.json").read_text())
        assert payload["order"] == 4

    def test_bad_layers_exit_code(self, capsys):
        code = run(["mera12", "--layers", "0"])
        assert code == 2

    def test_memory_exhaustion_exit_code(self, monkeypatch, capsys):
        def exhausted(**kwargs):
            raise MemoryError("Unable to allocate 29.1 GiB")

        monkeypatch.setattr("ttmera.experiments.run_mera12", exhausted)
        code = run(["mera12", "--paper-scale"])
        assert code == 3
        assert "capacity" in capsys.readouterr().err


class TestVerbose:
    # A fresh process, so the test sees what -v does to an unconfigured
    # logging system rather than to the test runner's handlers.
    ARGS = ["mera12", "--order", "4", "--layers", "1", "--seed", "4",
            "--strategy", "procrustes", "--max-iters", "3"]

    def cli(self, *argv):
        env = dict(os.environ)
        src = str(Path(ttmera.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "ttmera.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_search_warning_is_logged(self):
        proc = self.cli("-v", *self.ARGS)
        assert proc.returncode == 0, proc.stderr
        assert "WARNING ttmera.mera: disentangler at pair (2,3) did not " \
            "converge" in proc.stderr
        assert "mera[procrustes]" in proc.stdout

    def test_unconfigured_without_flag(self):
        # logging's last-resort handler still prints the bare warning, but
        # nothing below WARNING and no level or logger name
        proc = self.cli(*self.ARGS)
        assert proc.returncode == 0, proc.stderr
        assert "did not converge" in proc.stderr
        assert "WARNING ttmera.mera" not in proc.stderr


class TestParser:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compress", "x", "--method", "qr"])

    @pytest.mark.parametrize("value", ["5-3,7", "5-3"])
    def test_descending_range_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["iters-vs-rank", "--rprimes", value])
        assert exc.value.code == 2
        assert "descending range '5-3'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["planted", "rmin-scan", "mera12",
                                         "iters-vs-rank"])
    def test_search_flags_documented(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--gap GAP_THRESHOLD rank-gap convergence threshold" in text
        assert "--max-iters MAX_ITERS iteration budget" in text

    def test_seed_range_enforced(self):
        with pytest.raises(SystemExit):
            main(["rmin-scan", "--seed", "-1"])

    @pytest.mark.parametrize("argv", [
        ["compress", "heat.mrt1", "--threads", "2"],
        ["compress", "heat.mrt1", "--seed", "1"],
        ["compress", "heat.mrt1", "--paper-scale"],
        ["heat2d", "--seed", "1"],
        ["heat2d", "--threads", "2"],
        ["planted", "--threads", "2"],
        ["mera12", "--threads", "2"],
        ["heat2d", "--gap", "1e9"],
        ["compress", "heat.mrt1", "--max-iters", "7"],
    ])
    def test_unread_flag_is_usage_error(self, argv, capsys):
        # a flag the subcommand would ignore is refused before any work
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class Called(Exception):
    """Raised by a spied driver once it has recorded its arguments."""


class TestDriverArguments:
    """A driver receives the flags given, and under --paper-scale the
    table's values for the flags left unset; an explicit flag wins."""

    DRIVERS = {
        "heat2d": "run_heat2d",
        "compress": "run_compress",
        "planted": "run_planted",
        "rmin-scan": "run_rmin_scan",
        "mera12": "run_mera12",
        "iters-vs-rank": "run_iters_vs_rank",
    }

    def received(self, monkeypatch, argv):
        """The keywords the subcommand's driver is called with; for
        ``heat2d``, the fields of its configuration that differ from
        ``HeatConfig()``."""
        seen = {}
        name = self.DRIVERS[argv[0]]
        signature = inspect.signature(getattr(experiments, name))

        def spy(*args, **kwargs):
            signature.bind(*args, **kwargs)
            seen.update(kwargs)
            if args:
                seen["cfg"] = args[0]
            raise Called

        monkeypatch.setattr(experiments, name, spy)
        with pytest.raises(Called):
            main(argv)
        cfg = seen.pop("cfg", None)
        if cfg is not None:
            assert not seen
            seen = {k: v for k, v in vars(cfg).items()
                    if v != getattr(HeatConfig(), k)}
        return seen

    @pytest.mark.parametrize("command", list(DRIVERS))
    def test_no_flags_leaves_driver_defaults(self, command, monkeypatch):
        argv = [command, "in.mrt1"] if command == "compress" else [command]
        expected = {"source": "in.mrt1"} if command == "compress" else {}
        assert self.received(monkeypatch, argv) == expected

    @pytest.mark.parametrize("command, expected", [
        ("heat2d", {"ds": 1e-2}),
        ("planted", {"I": 19, "rprime": 128}),
        ("rmin-scan", {"I_values": tuple(range(2, 15))}),
        ("mera12", {"I": 10, "S": 5}),
        ("iters-vs-rank", {"I": 8, "rprimes": tuple(range(20, 65))}),
    ])
    def test_paper_scale_passes_the_table(self, command, expected,
                                          monkeypatch):
        assert PAPER_SCALE[command] == expected
        assert self.received(monkeypatch, [command, "--paper-scale"]) == \
            expected

    @pytest.mark.parametrize("argv, expected", [
        (["heat2d", "--ds", "0.05", "--t-end", "0.1"],
         {"ds": 0.05, "t_end": 0.1}),
        (["planted", "--I", "5", "--gap", "1e9"],
         {"I": 5, "rprime": 128, "gap_threshold": 1e9}),
        (["rmin-scan", "--I-values", "2-3", "--threads", "2"],
         {"I_values": [2, 3], "threads": 2}),
        (["mera12", "--S", "3", "--strategy", "hosvd", "--seed", "7"],
         {"I": 10, "S": 3, "strategies": ["hosvd"], "seed": 7}),
        (["iters-vs-rank", "--rprimes", "30", "--seeds", "2"],
         {"I": 8, "rprimes": [30], "seeds": 2}),
    ])
    def test_explicit_flag_wins(self, argv, expected, monkeypatch):
        assert self.received(monkeypatch, [*argv, "--paper-scale"]) == \
            expected

    @pytest.mark.parametrize("argv, expected", [
        (["heat2d", "--ds", "0.05", "--dt", "1e-4", "--t-end", "0.1",
          "--out", "d"],
         {"ds": 0.05, "dt": 1e-4, "t_end": 0.1}),
        (["compress", "in.mrt1", "--eps", "1e-2", "--method", "tt",
          "--factorize", "--out", "d"],
         {"source": "in.mrt1", "epsilon": 1e-2, "methods": ["tt"],
          "factorize": True, "out_dir": "d"}),
        (["planted", "--I", "5", "--rprime", "9", "--image", "x.pgm",
          "--gap", "1e9", "--max-iters", "7", "--trace-stride", "3",
          "--seed", "2", "--out", "d"],
         {"I": 5, "rprime": 9, "image": "x.pgm", "gap_threshold": 1e9,
          "max_iters": 7, "trace_stride": 3, "seed": 2, "out_dir": "d"}),
        (["rmin-scan", "--I-values", "2,3", "--gap", "1e9", "--max-iters",
          "7", "--seeds", "2", "--seed", "2", "--threads", "2",
          "--out", "d"],
         {"I_values": [2, 3], "gap_threshold": 1e9, "max_iters": 7,
          "seeds": 2, "seed": 2, "threads": 2, "out_dir": "d"}),
        (["mera12", "--I", "5", "--S", "3", "--arity", "2", "--order", "8",
          "--layers", "1", "--eps", "1e-9", "--gap", "1e9", "--max-iters",
          "7", "--strategy", "hosvd", "--seed", "2", "--out", "d"],
         {"I": 5, "S": 3, "arity": 2, "order": 8, "layers": 1,
          "epsilon": 1e-9, "gap_threshold": 1e9, "max_iters": 7,
          "strategies": ["hosvd"], "seed": 2, "out_dir": "d"}),
        (["iters-vs-rank", "--I", "5", "--rprimes", "3-4", "--gap", "1e9",
          "--max-iters", "7", "--seeds", "2", "--seed", "2", "--threads",
          "2", "--out", "d"],
         {"I": 5, "rprimes": [3, 4], "gap_threshold": 1e9, "max_iters": 7,
          "seeds": 2, "seed": 2, "threads": 2, "out_dir": "d"}),
    ])
    def test_every_flag_reaches_its_parameter(self, argv, expected,
                                              monkeypatch):
        # the spy binds what it receives to the real driver's signature
        assert self.received(monkeypatch, argv) == expected
