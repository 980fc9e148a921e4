"""Command-line behavior: flags, config files, exit codes, printed summary."""

import ast
import csv
import errno
import gzip
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import pktstats
from pktstats import GeneratorSpec, ZmParams, generate_synthetic, write_packet_csv
from pktstats import pipeline
from pktstats.cli import (
    CliUsageError,
    main,
    parse_alpha_grid,
    read_config_file,
)

from conftest import STRICT_CELLS, make_records
from test_readme import library_session


def write_spec(tmp_path, text, name="spec.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fresh_python(code, **env_changes):
    """Last stdout line of ``code`` run by a new interpreter that imports
    pktstats from this checkout, with OPENBLAS_NUM_THREADS unset unless
    ``env_changes`` sets it."""
    env = dict(os.environ, PYTHONPATH=str(Path(pktstats.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_changes)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def tree_bytes(root):
    """Every file under ``root``: relative path -> bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def write_stream(tmp_path, spec, n_packets, name="stream.csv"):
    records, _ = generate_synthetic(spec, n_packets)
    path = tmp_path / name
    write_packet_csv(path, records)
    return str(path)


class TestParsing:
    def test_alpha_grid_round_trip(self):
        grid = parse_alpha_grid("0.5:2.0:0.25")
        assert grid.values == (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    @pytest.mark.parametrize("text", ["1:2", "a:b:c", "0:2:0.1", "2:1:0.1"])
    def test_alpha_grid_rejects(self, text):
        with pytest.raises(CliUsageError):
            parse_alpha_grid(text)

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# defaults\nnv = 100\nalpha-grid=1:2:0.5\n\n")
        allowed = {"nv", "alpha_grid", "force"}
        assert read_config_file(path, allowed) == {"nv": "100", "alpha_grid": "1:2:0.5"}

    def test_config_file_rejects_bare_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("force\n")
        with pytest.raises(CliUsageError):
            read_config_file(path, {"force"})


class TestGenerate:
    def test_writes_stream_and_reports_counts(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--spec", spec, "--packets", "10", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 10
        message = capsys.readouterr().out
        assert "wrote 10 records" in message
        assert "5 links" in message

    @pytest.mark.parametrize(
        "spec_text, packets, digest, out_name",
        [
            (
                "n_isolated_pairs = 50\nsupernode_leaf_count = 40\ncore_size = 8\n"
                "core_density = 0.5\ncore_leaf_count = 12\nseed = 3\n",
                600,
                "9040412636fa7aa570595f227c241b1c486aeb2f58c7758f16224105003c05b7",
                "pkts.csv",
            ),
            (
                "degree_model_alpha = 1.5\ndegree_model_delta = 0.5\n"
                "degree_model_d_max = 64\nseed = 5\n",
                500,
                "70dce60354a53a542fdf9398e992e5817f4b7481f0698e6e39210306826780b7",
                "pkts.csv",
            ),
            # More than one write slice; the last fan-out (drawn 14636) is
            # clipped to 13665.
            (
                "degree_model_alpha = 1.2\ndegree_model_delta = 0.5\n"
                "degree_model_d_max = 50000\nseed = 4\n",
                70_001,
                "65ff59d9583779119fdbe19a94090ebd601fcbb22dbde5cde8208edcf4a4fc89",
                "pkts.csv",
            ),
            (
                "degree_model_alpha = 1.2\ndegree_model_delta = 0.5\n"
                "degree_model_d_max = 50000\nseed = 4\n",
                70_001,
                "d4038e84dd62c6e8d30977fd15bd342883db12b128601de85d9ce4e3cb5f07ef",
                "pkts.csv.gz",
            ),
            # The benchmark's wide-ingest mixture at seed 1.
            (
                "n_isolated_pairs = 20000\nsupernode_leaf_count = 1000\n"
                "core_size = 100\ncore_density = 0.15\ncore_leaf_count = 400\n"
                "seed = 1\n",
                45_000,
                "d66ed3d59caf57af6d28663defb9f3a4750ad87776951c4c7805e13fefb61f4b",
                "pkts.csv",
            ),
            # Dashes in spec keys read as underscores: the first two specs
            # again, with the same bytes.
            (
                "n-isolated-pairs = 50\nsupernode-leaf-count = 40\ncore-size = 8\n"
                "core-density = 0.5\ncore-leaf-count = 12\nseed = 3\n",
                600,
                "9040412636fa7aa570595f227c241b1c486aeb2f58c7758f16224105003c05b7",
                "pkts.csv",
            ),
            (
                "degree-model-alpha = 1.5\ndegree_model-delta = 0.5\n"
                "degree-model_d-max = 64\nseed = 5\n",
                500,
                "70dce60354a53a542fdf9398e992e5817f4b7481f0698e6e39210306826780b7",
                "pkts.csv",
            ),
        ],
    )
    def test_output_bytes_are_frozen(
        self, tmp_path, capsys, spec_text, packets, digest, out_name
    ):
        # A seed gives the same file in every release: structural mixtures
        # and degree-model streams, plain and gzip.
        spec = write_spec(tmp_path, spec_text)
        out = tmp_path / out_name
        code = main(
            ["generate", "--spec", spec, "--packets", str(packets), "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        assert main(["generate", "--spec", spec, "--packets", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_infeasible_spec_is_config_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--spec", spec, "--packets", "3", "--out", str(out)])
        assert code == 1

    def test_missing_spec_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "pkts.csv"
        code = main(
            ["generate", "--spec", str(tmp_path / "nope.txt"), "--packets", "3",
             "--out", str(out)]
        )
        assert code == 2

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 2\n")
        out = tmp_path / "pkts.csv"
        cfg = write_spec(
            tmp_path, f"spec = {spec}\npackets = 4\nout = {out}\n", name="run.cfg"
        )
        assert main(["generate", "--config", cfg]) == 0
        assert out.exists()

    def test_flags_override_config(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 2\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg = write_spec(
            tmp_path, f"spec = {spec}\npackets = 4\nout = {out_a}\n", name="run.cfg"
        )
        assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_b.exists() and not out_a.exists()

    @pytest.mark.parametrize(
        "spec_text",
        [
            "degree_model_alpha = 1.5\ndegree_model_delta = 0.5\n"
            "degree_model_d_max = 64\n",
            "n_isolated_pairs = 600\n",
        ],
    )
    def test_id_space_overflow_is_config_error(
        self, tmp_path, capsys, monkeypatch, spec_text
    ):
        monkeypatch.setattr("pktstats.generator._ADDRESS_SPACE_BITS", 10)
        spec = write_spec(tmp_path, spec_text)
        out = tmp_path / "pkts.csv"
        code = main(
            ["generate", "--spec", spec, "--packets", "2000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec_text, config_text, key",
        [
            ("n_isolated_pairs = 5\nseed = 1\nseed = 2\n", "", "seed"),
            ("n_isolated_pairs = 5\n", "packets = 10\npackets = 20\n", "packets"),
            ("n_isolated_pairs = 5\n", "packets = 10\nout-x = a\nout_x = b\n",
             "out_x"),
        ],
    )
    def test_repeated_key_is_config_error(
        self, tmp_path, capsys, spec_text, config_text, key
    ):
        spec = write_spec(tmp_path, spec_text)
        cfg = write_spec(tmp_path, config_text or "packets = 10\n", name="run.cfg")
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--config", cfg, "--spec", spec, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--spec", "--config"])
    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("isolated\n", 1, "expected key=value, got 'isolated'"),
            ("seed=1\nseed=2\n", 2, "duplicate key 'seed'"),
            ("core-size=3\ncore_size=4\n", 2, "duplicate key 'core_size'"),
            ("bogus = 1\n", 1, "unknown key 'bogus'"),
        ],
    )
    def test_spec_and_config_files_share_one_grammar(
        self, tmp_path, capsys, flag, body, line, message
    ):
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        path = write_spec(tmp_path, body, name="body.txt")
        out = tmp_path / "pkts.csv"
        # A later --spec replaces the earlier one.
        args = ["--spec", spec, "--packets", "10", "--out", str(out), flag, path]
        assert main(["generate", *args]) == 1
        assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"
        assert not out.exists()

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n_isolated_pairs = 2\n")
        out = tmp_path / "pkts.csv"
        cfg = write_spec(
            tmp_path, f"spec = {spec}\npackets = 4\nbogus = 1\n", name="run.cfg"
        )
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: unknown key 'bogus'\n"
        assert not out.exists()

    def test_degree_model_d_max_beyond_any_stream_is_config_error(
        self, tmp_path, capsys
    ):
        spec = write_spec(
            tmp_path,
            "degree_model_alpha = 1.5\ndegree_model_delta = 0.5\n"
            "degree_model_d_max = 3000000000\n",
        )
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--spec", spec, "--packets", "10", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "degree_model_d_max=3000000000" in err
        assert not out.exists()

    def test_bad_degree_model_is_config_error(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "degree_model_alpha = 0\ndegree_model_delta = 0.5\n"
            "degree_model_d_max = 100\n",
        )
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--spec", spec, "--packets", "10", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: bad degree model: alpha must be > 0, got 0.0\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, delta, message",
        [
            ("1.5", "inf", "delta must be finite, got inf"),
            ("inf", "0.5", "alpha must be finite, got inf"),
            ("2000", "0.5", "largest density (1 + delta)**-alpha is 0.0"),
        ],
    )
    def test_degree_model_that_cannot_be_sampled_is_config_error(
        self, tmp_path, capsys, alpha, delta, message
    ):
        spec = write_spec(
            tmp_path,
            f"degree_model_alpha = {alpha}\ndegree_model_delta = {delta}\n"
            "degree_model_d_max = 100\n",
        )
        out = tmp_path / "pkts.csv"
        code = main(["generate", "--spec", spec, "--packets", "10", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad degree model: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, "an earlier stream\n"])
    def test_failed_write_leaves_no_partial_output(
        self, tmp_path, capsys, monkeypatch, existing
    ):
        class DiskFull:
            def __format__(self, spec):
                raise OSError(errno.ENOSPC, "No space left on device")

        records, truth = generate_synthetic(GeneratorSpec(n_isolated_pairs=5), 10)
        # The failing row sits in the third write slice.
        monkeypatch.setattr("pktstats.generator._WRITE_SLICE", 4)
        monkeypatch.setattr(
            "pktstats.cli.generate_synthetic",
            lambda spec, n: (records + [(10, DiskFull(), "10.0.0.1", "TCP", 4)], truth),
        )
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        out = tmp_path / "pkts.csv"
        if existing is not None:
            out.write_text(existing)
        code = main(["generate", "--spec", spec, "--packets", "11", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == (
            ["spec.txt"] if existing is None else ["pkts.csv", "spec.txt"]
        )
        if existing is not None:
            assert out.read_text() == existing

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1


class TestAnalyze:
    def stream(self, tmp_path):
        return write_stream(
            tmp_path, GeneratorSpec(n_isolated_pairs=20, supernode_leaf_count=5), 100
        )

    def test_full_run(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
             "--alpha-grid", "1.0:2.0:0.5"]
        )
        assert code == 0
        assert (out / "manifest.json").is_file()
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"report written to {out}"
        fit_lines = [line for line in lines if line.startswith("nv=50 ")]
        assert len(fit_lines) == 5
        for line in fit_lines:
            assert ("alpha=" in line) or ("fit skipped (" in line)

    def test_single_worker_run_imports_no_pool_or_masked_arrays(self, tmp_path):
        stream = self.stream(tmp_path)
        # The stream holds two windows of 50, so two workers fork one child.
        for workers in ("1", "2"):
            argv = ["analyze", "--input", stream, "--nv", "50",
                    "--out", str(tmp_path / f"report{workers}"), "--workers", workers]
            probe = (
                "import sys\n"
                "from pktstats.cli import main\n"
                f"code = main({argv!r})\n"
                "heavy = ('numpy.ma', 'multiprocessing', 'concurrent.futures')\n"
                "print(code, [name for name in heavy if name in sys.modules])\n"
            )
            assert fresh_python(probe) == "0 []", workers

    def test_quantity_subset_and_workers(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
             "--quantities", "source_fan_out,link_packets", "--workers", "2",
             "--alpha-grid", "1.0:2.0:0.5"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["quantities"] == ["source_fan_out", "link_packets"]

    def test_repeated_input_flags_read_every_file_in_order(self, tmp_path, capsys):
        first = write_stream(
            tmp_path, GeneratorSpec(n_isolated_pairs=20, seed=1), 100, "a.csv"
        )
        second = write_stream(
            tmp_path, GeneratorSpec(n_isolated_pairs=10, seed=2), 60, "b.csv"
        )
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", first, "--input", second, "--nv", "40",
             "--out", str(out), "--quantities", "source_fan_out",
             "--alpha-grid", "1.0:2.0:0.5"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["inputs"] == [first, second]
        assert manifest["ingest"]["total_read"] == 160

    def test_input_file_name_from_a_flag_keeps_its_spaces(self, tmp_path, capsys):
        # Only the comma list of a config file's input key is stripped.
        spaced = tmp_path / "stream.csv "
        os.rename(self.stream(tmp_path), spaced)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", str(spaced), "--nv", "50", "--out", str(out),
             "--alpha-grid", "1.0:2.0:0.5"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["inputs"] == [str(spaced)]
        assert manifest["ingest"]["total_read"] == 100

    def test_repeated_window_size_is_config_error(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        code = main(["analyze", "--input", stream, "--nv", "50,50", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: duplicate window size 50\n"
        assert not (out / "manifest.json").exists()

    def test_alpha_grid_past_the_overflow_bound_is_a_usage_error(
        self, tmp_path, capsys
    ):
        # Training this stream's source fan-out at alpha 300 would overflow
        # (1 + delta)**alpha at the upper delta bound.
        spec = GeneratorSpec(degree_model=ZmParams(1.5, 0.5, 1024), seed=1)
        stream = write_stream(tmp_path, spec, 3000)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "3000", "--out", str(out),
             "--quantities", "source_fan_out", "--alpha-grid", "290:300:5"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid stop must be <= 296.00")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_infinite_alpha_grid_step_is_a_usage_error(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
             "--alpha-grid", "0.1:4:inf"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: grid step must be finite, got inf\n"
        assert not out.exists()

    def test_bad_quantity_name(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        code = main(
            ["analyze", "--input", stream, "--quantities", "packet_rate",
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        assert "unknown quantity" in capsys.readouterr().err

    def test_nonempty_out_dir_refused_then_forced(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        out.mkdir()
        (out / "stale").write_text("x")
        (out / "manifest.json").write_text('{"files": {"stale": 1}}')
        base = ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
                "--alpha-grid", "1.0:2.0:0.5"]
        assert main(base) == 1
        assert main(base + ["--force"]) == 0
        assert not (out / "stale").exists()

    def test_config_force_false_refuses_a_nonempty_out_dir(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        base = ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
                "--alpha-grid", "1.0:2.0:0.5"]
        assert main(base) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("force = false\n")
        assert main(base + ["--config", str(cfg)]) == 1
        refusal = capsys.readouterr().err
        assert main(base) == 1
        assert refusal == capsys.readouterr().err
        assert refusal.endswith(" is not empty; pass force to replace\n")
        assert tree_bytes(out) == before

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--config", "run.cfg"], "force must be true or false, got 'maybe'"),
            (["--workers", "two"], "workers must be an integer, got 'two'"),
        ],
    )
    def test_option_value_that_does_not_parse_is_config_error(
        self, tmp_path, capsys, monkeypatch, options, message
    ):
        monkeypatch.chdir(tmp_path)
        stream = self.stream(tmp_path)
        (tmp_path / "run.cfg").write_text("force = maybe\n")
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out), *options]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_failed_forced_rerun_keeps_the_old_report(
        self, tmp_path, capsys, monkeypatch
    ):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        base = ["analyze", "--input", stream, "--nv", "25", "--out", str(out),
                "--alpha-grid", "1.0:2.0:0.5"]
        assert main(base) == 0
        before = tree_bytes(out)
        write = pipeline.write_topology_csv
        calls = []

        def disk_full_on_the_second_call(path, breakdown):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(path, breakdown)

        monkeypatch.setattr(
            pipeline, "write_topology_csv", disk_full_on_the_second_call
        )
        assert main(base + ["--force"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert tree_bytes(out) == before
        assert sorted(os.listdir(tmp_path)) == ["report", "stream.csv"]
        monkeypatch.setattr(pipeline, "write_topology_csv", write)
        assert main(base + ["--force"]) == 0

    def test_forced_run_reads_its_input_from_the_report_it_replaces(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report"
        inside = out / "stream.csv"
        args = ["analyze", "--nv", "50", "--out", str(out),
                "--alpha-grid", "1.0:2.0:0.5"]
        assert main(args + ["--input", self.stream(tmp_path)]) == 0
        write_stream(out, GeneratorSpec(n_isolated_pairs=40), 150)
        assert main(args + ["--input", str(inside), "--force"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["inputs"] == [str(inside)]
        assert manifest["ingest"]["total_valid"] == 150
        assert manifest["window_counts"] == {"50": 3}
        assert not inside.exists()

    def test_force_without_a_manifest_is_refused(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "home"
        (out / "sub").mkdir(parents=True)
        (out / "notes.txt").write_text("mine")
        (out / "sub" / "more.txt").write_text("also mine")
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
             "--alpha-grid", "1.0:2.0:0.5", "--force"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "not a pktstats report" in err and err.count("\n") == 1
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "notes.txt", "sub", "sub/more.txt"
        ]
        assert (out / "notes.txt").read_text() == "mine"
        assert (out / "sub" / "more.txt").read_text() == "also mine"

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "report")]
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_input_path_is_config_error(self, tmp_path, capsys, source):
        # `--input ""`, or a trailing comma in a config file's input list.
        out = tmp_path / "report"
        if source == "flag":
            argv = ["analyze", "--input", ""]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"input = {self.stream(tmp_path)},\n")
            argv = ["analyze", "--config", str(cfg)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: input paths cannot be empty\n"
        assert not out.exists()

    def test_malformed_packet_data_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,10.0.0.1,10.0.0.2,TCP,4\nnot a packet line\n")
        code = main(
            ["analyze", "--input", str(bad), "--nv", "1",
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        assert "malformed input" in capsys.readouterr().err

    def test_non_ascii_digit_timestamp_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("\u0663,10.0.0.1,10.0.0.2,TCP,4\n", encoding="utf-8")
        out = tmp_path / "report"
        code = main(["analyze", "--input", str(bad), "--nv", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: malformed input: line 1: bad timestamp '\u0663'\n"
        assert not (out / "manifest.json").exists()

    def test_address_family_other_than_ip_version_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "0,10.0.0.1,10.0.0.2,TCP,4\n1,fd00::1,fd00::2,UDP,6\n"
            "2,10.0.0.2,fd00::1,TCP,4\n3,10.0.0.1,10.0.0.2,TCP,4\n"
        )
        out = tmp_path / "report"
        code = main(["analyze", "--input", str(bad), "--nv", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: malformed input: line 3: dst address 'fd00::1' is not IPv4\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1" * 5000 + ",10.0.0.1,10.0.0.2,TCP,4",
             f"bad timestamp '{'1' * 32}'... (5000 characters)"),
            ("1," + "9" * 5000 + ",10.0.0.2,TCP,4",
             f"invalid src address '{'9' * 32}'... (5000 characters)"),
            ("1,10.0.0.1," + "9" * 5000 + ",TCP,4",
             f"invalid dst address '{'9' * 32}'... (5000 characters)"),
            ("1,10.0.0.1,10.0.0.2," + "P" * 5000 + ",4",
             f"unknown protocol '{'P' * 32}'... (5000 characters)"),
            ("1,10.0.0.1,10.0.0.2,TCP," + "4" * 5000,
             f"unknown ip_version {'4' * 32}... (5000 characters)"),
            ("1,10.0.0.1,10.0.0.2,TCP," + "v" * 5000,
             f"bad ip_version '{'v' * 32}'... (5000 characters)"),
        ],
        ids=["timestamp", "src", "dst", "protocol", "ip_version digits",
             "ip_version text"],
    )
    def test_long_bad_field_is_echoed_in_one_short_line(
        self, tmp_path, capsys, row, message
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(row + "\n")
        out = tmp_path / "report"
        code = main(["analyze", "--input", str(bad), "--nv", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed input: line 1: {message}\n"
        assert len(err) < 120
        assert not (out / "manifest.json").exists()

    def test_killed_worker_is_one_line_io_error(self, tmp_path, capsys, monkeypatch):
        analyze = pipeline.analyze_window
        parent = os.getpid()

        def dying(window, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return analyze(window, *args, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_window", dying)
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
             "--workers", "2", "--alpha-grid", "1.0:2.0:0.5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window worker ")
        assert err.endswith(" was killed by signal 9\n")
        assert err.count("\n") == 1
        assert not (out / "manifest.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_undecodable_text_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,10.0.0.1,10.0.0.2,TCP,4\n1,10.0.0.\xff,10.0.0.2,TCP,4\n")
        code = main(
            ["analyze", "--input", str(bad), "--nv", "1",
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed input: line 2: undecodable text")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["truncated", "bad block type"])
    def test_damaged_gzip_is_io_error(self, tmp_path, capsys, damage):
        rows = b"".join(
            b"%d,10.0.%d.%d,10.1.0.1,TCP,4\n" % (i, i >> 8 & 255, i & 255)
            for i in range(5000)
        )
        data = bytearray(gzip.compress(rows, mtime=0))
        if damage == "truncated":
            del data[len(data) // 2 :]
        else:
            data[10] = 0b111  # the first deflate block (after a 10-byte header)
        bad = tmp_path / "bad.csv.gz"
        bad.write_bytes(bytes(data))
        code = main(
            ["analyze", "--input", str(bad), "--nv", "1",
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed input: line 1: compressed data")
        assert err.count("\n") == 1

    def test_too_short_stream_is_config_error(self, tmp_path, capsys):
        stream = write_stream(tmp_path, GeneratorSpec(n_isolated_pairs=3), 6)
        code = main(
            ["analyze", "--input", stream, "--nv", "100",
             "--out", str(tmp_path / "report")]
        )
        assert code == 1

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {stream}\nnv = 50\nout = {out}\n"
            "alpha-grid = 1.0:2.0:0.5\nquantities = source_fan_out\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["quantities"] == ["source_fan_out"]
        assert main(
            ["analyze", "--config", str(cfg), "--out", str(tmp_path / "r2"),
             "--quantities", "link_packets"]
        ) == 0
        manifest2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert manifest2["config"]["quantities"] == ["link_packets"]

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("input = stream.csv,more.csv", ["--input", "stream.csv", "more.csv"]),
            ("nv = 25,50", ["--nv", "25,50"]),
            ("quantities = link_packets,source_fan_out",
             ["--quantities", "link_packets,source_fan_out"]),
            ("alpha_grid = 1.0:3.0:0.25", ["--alpha-grid", "1.0:3.0:0.25"]),
            ("workers = 2", ["--workers", "2"]),
            ("force = true", ["--force"]),
            ("core_strict_inequality = true", ["--core-strict-inequality"]),
        ],
    )
    def test_config_file_sets_each_option_as_its_flag_does(
        self, tmp_path, capsys, monkeypatch, line, flags
    ):
        monkeypatch.chdir(tmp_path)
        self.stream(tmp_path)
        write_stream(
            tmp_path, GeneratorSpec(n_isolated_pairs=40, seed=1), 50, "more.csv"
        )
        (tmp_path / "run.cfg").write_text(line + "\n")
        others = {"--input": ["stream.csv"], "--nv": ["50"],
                  "--alpha-grid": ["1.0:2.0:0.5"]}
        others.pop(flags[0], None)

        def run(out, options):
            """Exit code, report files but timings.json, and worker count."""
            if flags == ["--force"]:
                assert main(["analyze", "--input", "stream.csv", "--nv", "50",
                             "--out", out]) == 0
            args = ["analyze", "--out", out, *options]
            for flag, values in others.items():
                args += [flag, *values]
            code = main(args)
            files = tree_bytes(tmp_path / out)
            timings = json.loads(files.pop("timings.json", b"{}"))
            return code, files, timings.get("workers")

        by_flag = run("by_flag", flags)
        assert by_flag[0] == 0
        assert run("by_config", ["--config", "run.cfg"]) == by_flag
        assert run("unset", []) != by_flag

    @pytest.mark.parametrize("key", ["workrs", "config", "command"])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, key):
        stream = self.stream(tmp_path)
        out = tmp_path / "report"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {stream}\nnv = 50\n{key} = 2\nout = {out}\n")
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: unknown key {key!r}\n"
        assert not out.exists()

    def test_strict_core_window_is_tiled_once(self, tmp_path, capsys):
        # A strict core that admitted later supernodes made this run die on
        # a fraction above 1.  Node nK becomes address 10.0.0.K.
        pairs = [
            (f"10.0.0.{src[1:]}", f"10.0.0.{dst[1:]}")
            for (src, dst), count in STRICT_CELLS.items()
            for _ in range(count)
        ]
        stream = tmp_path / "stream.csv"
        write_packet_csv(stream, make_records(pairs))
        out = tmp_path / "report"
        code = main(
            ["analyze", "--input", str(stream), "--nv", "88", "--out", str(out),
             "--quantities", "source_fan_out", "--core-strict-inequality"]
        )
        assert code == 0
        with open(out / "nv_000000088" / "window_000000.topology.csv") as fh:
            rows = {row[0]: row[1:] for row in csv.reader(fh)}
        packets = [int(rows[name][1]) for name in rows if name != "category"]
        links = [int(rows[name][2]) for name in rows if name != "category"]
        assert min(packets) >= 0 and min(links) >= 0
        assert sum(packets) == 88 and sum(links) == 17

    def test_bad_worker_count(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        code = main(
            ["analyze", "--input", stream, "--workers", "0",
             "--out", str(tmp_path / "report")]
        )
        assert code == 1


def _console_script() -> str:
    """The call that the ``pktstats`` console script makes: the wrapper that
    pip installs for the entry point in ``[project.scripts]``."""
    text = (Path(pktstats.__file__).parents[2] / "pyproject.toml").read_text()
    module, name = re.search(r'^pktstats = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys\nfrom {module} import {name}\nsys.exit({name}())\n"


# The interpreter arguments of a program run: ``python -m pktstats.cli``, or
# the console script's wrapper.
PROGRAMS = {
    "module": ["-m", "pktstats.cli"],
    "console_script": ["-c", _console_script()],
}


class TestStartup:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
    )
    def test_cli_import_starts_no_thread(self):
        probe = "import os, pktstats.cli\nprint(len(os.listdir('/proc/self/task')))"
        assert fresh_python(probe) == "1"

    def test_package_import_loads_no_numpy_and_leaves_the_environment(self):
        probe = (
            "import os, sys, pktstats\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert fresh_python(probe) == "False None"

    def test_generate_loads_no_analysis_module(self, tmp_path):
        spec = write_spec(tmp_path, "n_isolated_pairs = 5\n")
        argv = ["generate", "--spec", spec, "--packets", "10",
                "--out", str(tmp_path / "pkts.csv")]
        probe = (
            "import sys\n"
            "import pktstats.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "analysis = ('pktstats.pipeline', 'pktstats.ingest', 'pktstats.matrix')\n"
            "print(code, [name for name in analysis if name in sys.modules],\n"
            "      'generate_synthetic' in vars(cli), 'write_packet_csv' in vars(cli))\n"
        )
        assert fresh_python(probe) == "0 [] True True"

    def run_program(self, launcher, *args, site_dir=None):
        """``pktstats`` with ``args``, run as a program by ``launcher``
        (``PROGRAMS``) with its output buffered, importing this checkout and
        the ``sitecustomize`` module in ``site_dir``, if given."""
        paths = [str(Path(pktstats.__file__).parents[1])]
        if site_dir is not None:
            paths.insert(0, str(site_dir))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run(
            [sys.executable, *PROGRAMS[launcher], *map(str, args)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize("launcher", PROGRAMS)
    def test_a_program_run_delivers_output_and_report(self, tmp_path, launcher):
        # A program run ends with os._exit after a flush; buffered output
        # and every report file must still be there.
        spec = GeneratorSpec(n_isolated_pairs=30, supernode_leaf_count=8, seed=5)
        stream = write_stream(tmp_path, spec, 200)
        out = tmp_path / "report"
        result = self.run_program(
            launcher, "analyze", "--input", stream, "--nv", "50", "--out", out,
            "--alpha-grid", "1.0:2.0:0.5",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"report written to {out}"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["files"]
        assert all((out / name).is_file() for name in manifest["files"])

    @pytest.mark.parametrize("launcher", PROGRAMS)
    def test_a_program_run_delivers_an_error_line(self, tmp_path, launcher):
        stream = tmp_path / "bad.csv"
        stream.write_text("1,10.0.0.1,10.0.0.2,TCP,4\nbad\n")
        result = self.run_program(
            launcher, "analyze", "--input", stream, "--out", tmp_path / "report"
        )
        assert result.returncode == 2
        assert result.stderr == (
            "error: malformed input: line 2: expected 5 fields, got 1\n"
        )

    @pytest.mark.parametrize("launcher", PROGRAMS)
    @pytest.mark.parametrize("command", ["generate", "analyze"])
    def test_a_program_run_has_no_collection_after_numpy_and_no_teardown(
        self, tmp_path, launcher, command
    ):
        spec = write_spec(tmp_path, "n_isolated_pairs = 20\nsupernode_leaf_count = 8\n")
        stream = tmp_path / "pkts.csv"
        argv = {
            "generate": ["--spec", spec, "--packets", 300, "--out", stream],
            "analyze": ["--input", stream, "--nv", 100, "--out", tmp_path / "report"],
        }
        if command == "analyze":
            assert main(["generate", *map(str, argv["generate"])]) == 0
        # Each collection that starts after numpy's import writes a line,
        # and so does the interpreter's teardown.
        site_dir = tmp_path / "site"
        site_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            "import atexit, gc, os, sys\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
            "    and 'numpy' in sys.modules and os.write(2, b'collection\\n'))\n"
            "atexit.register(os.write, 2, b'teardown\\n')\n"
        )
        result = self.run_program(launcher, command, *argv[command], site_dir=site_dir)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    def test_cli_sets_one_blas_thread_unless_the_user_chose(self):
        probe = "import os, pktstats.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_python(probe) == "1"
        assert fresh_python(probe, OPENBLAS_NUM_THREADS="2") == "2"

    def test_every_exported_name_imports_from_the_package(self):
        # The package exports exactly the names that the README's library
        # session and the acceptance criteria import from it.
        sources = [
            library_session(),
            (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"),
        ]
        used = {
            alias.name
            for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "pktstats"
            for alias in node.names
        }
        assert pktstats.__all__ == sorted(used)
        probe = (
            "import pktstats\n"
            "for name in pktstats.__all__:\n"
            "    exec(f'from pktstats import {name}')\n"
            "try:\n"
            "    from pktstats import no_such_name\n"
            "except ImportError:\n"
            "    print(len(pktstats.__all__))\n"
        )
        assert fresh_python(probe) == str(len(used))
