"""Command-line behavior: flags, config files, exit codes, printed summary."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pktstats
from pktstats import GeneratorSpec, ZmParams, generate_synthetic, write_packet_csv
from pktstats.cli import (
    CliUsageError,
    main,
    parse_alpha_grid,
    read_config_file,
)


def write_spec(tmp_path, text, name="spec.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        assert read_config_file(path) == {"nv": "100", "alpha_grid": "1:2:0.5"}

    def test_config_file_rejects_bare_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("force\n")
        with pytest.raises(CliUsageError):
            read_config_file(path)


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
        argv = ["analyze", "--input", stream, "--nv", "50",
                "--out", str(tmp_path / "report"), "--workers", "1"]
        probe = (
            "import sys\n"
            "from pktstats.cli import main\n"
            f"code = main({argv!r})\n"
            "heavy = ('numpy.ma', 'multiprocessing', 'concurrent.futures')\n"
            "print(code, [name for name in heavy if name in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pktstats.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.stdout.splitlines()[-1] == "0 []", result.stderr

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
        base = ["analyze", "--input", stream, "--nv", "50", "--out", str(out),
                "--alpha-grid", "1.0:2.0:0.5"]
        assert main(base) == 1
        assert main(base + ["--force"]) == 0
        assert not (out / "stale").exists()

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["analyze", "--input", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "report")]
        )
        assert code == 2

    def test_malformed_packet_data_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,10.0.0.1,10.0.0.2,TCP,4\nnot a packet line\n")
        code = main(
            ["analyze", "--input", str(bad), "--nv", "1",
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        assert "malformed input" in capsys.readouterr().err

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

    def test_bad_worker_count(self, tmp_path, capsys):
        stream = self.stream(tmp_path)
        code = main(
            ["analyze", "--input", stream, "--workers", "0",
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
