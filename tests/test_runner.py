import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import beamfield.field
import beamfield.runner
from beamfield import ConfigError, RunConfig, load_config, run, validate, verify_manifest
from beamfield.cli import main as cli_main
from beamfield.config import from_dict

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "paper-defaults.yaml")


def small_config(**overrides):
    """Two scenarios, one frame: fast but exercises the whole pipeline."""
    base = RunConfig(
        scenario_ids=("1", "5"),
        ofdm=dataclasses.replace(RunConfig().ofdm, frames=1),
        formats=("csv", "json"),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def read_all(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestValidate:
    def test_default_config_clean(self):
        report = validate(RunConfig())
        assert report.ok
        assert report.findings == ()

    def test_paper_defaults_file_clean(self):
        report = validate(load_config(CONFIG_PATH))
        assert report.ok

    def test_out_of_room_ue(self):
        cfg = from_dict({
            "seed": 1,
            "scenarios": ["far"],
            "custom_scenarios": [{"id": "far", "ue_positions": [[10.0, 4.0]]}],
        })
        report = validate(cfg)
        assert any("outside the room" in f for f in report.findings)

    def test_ofdm_spacing_mismatch(self):
        report = validate({"seed": 1, "ofdm": {"fft_size": 2048}})
        assert any("spacing" in f for f in report.findings)

    def test_unknown_scenario_id(self):
        report = validate({"seed": 1, "scenarios": [1, 99]})
        assert any("99" in f for f in report.findings)

    def test_missing_seed(self):
        report = validate({})
        assert any("seed" in f for f in report.findings)

    def test_off_grid_cut_column(self):
        report = validate({"seed": 1, "cut_x": 0.5})
        assert any("cut_x" in f for f in report.findings)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            from_dict({"seed": 1, "spam": 2})


class TestRun:
    def test_single_scenario_average_equals_map(self, tmp_path):
        cfg = small_config(scenario_ids=("1",))
        run(cfg, out_dir=str(tmp_path))
        files = read_all(tmp_path)
        assert files["heatmap_average.csv"] == files["heatmap_scenario_1.csv"]

    def test_probe_gains_computed_once_per_run(self, tmp_path, monkeypatch):
        rx_seen = []
        real = beamfield.field.propagation_gains

        def counting(tx_points, rx_points, *args, **kwargs):
            rx_seen.append(np.array(rx_points))
            return real(tx_points, rx_points, *args, **kwargs)

        monkeypatch.setattr(beamfield.field, "propagation_gains", counting)
        config = small_config(scenario_ids=RunConfig().scenario_ids)
        run(config, out_dir=str(tmp_path))
        grid = config.build_grid()
        assert len(config.scenario_ids) == 8
        assert sum(np.array_equal(rx, grid.points) for rx in rx_seen) == 1
        assert len(rx_seen) == 1

    def test_grid_text_built_once_per_run(self, tmp_path, monkeypatch):
        grids = []
        real = beamfield.runner.grid_text

        def counting(grid):
            grids.append(grid)
            return real(grid)

        monkeypatch.setattr(beamfield.runner, "grid_text", counting)
        config = small_config(scenario_ids=RunConfig().scenario_ids,
                              formats=("ascii", "csv", "json", "svg"))
        manifest = run(config, out_dir=str(tmp_path))
        assert len(grids) == 1
        assert grids[0].same_lattice(config.build_grid())
        assert sum(a["type"] == "heatmap-svg" for a in manifest.artifacts) == 9

    def test_expected_artifacts(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path))
        names = set(os.listdir(tmp_path))
        expected = {
            "heatmap_scenario_1.csv", "heatmap_scenario_1.json",
            "heatmap_scenario_5.csv", "heatmap_scenario_5.json",
            "heatmap_average.csv", "heatmap_average.json",
            "ber.csv", "ber.json", "cut_x0.csv",
            "decay_fit.json", "summary.json",
            "compliance_ICNIRP.json", "compliance_Italy.json",
            "compliance_Poland.json", "manifest.json",
        }
        assert expected == names

    def test_manifest_lists_all_files_with_valid_hashes(self, tmp_path):
        manifest = run(small_config(), out_dir=str(tmp_path))
        on_disk = set(os.listdir(tmp_path)) - {"manifest.json"}
        assert set(manifest.paths()) == on_disk
        assert verify_manifest(str(tmp_path)) == []
        for art in manifest.artifacts:
            with open(tmp_path / art["path"], "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == art["sha256"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        a = read_all(tmp_path / "a")
        b = read_all(tmp_path / "b")
        assert a == b

    def test_workers_do_not_change_artifacts(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path / "serial"))
        run(small_config(workers=4), out_dir=str(tmp_path / "parallel"))
        assert read_all(tmp_path / "serial") == read_all(tmp_path / "parallel")

    def test_different_seed_changes_ber(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path / "a"))
        run(small_config(seed=999), out_dir=str(tmp_path / "b"))
        a = read_all(tmp_path / "a")
        b = read_all(tmp_path / "b")
        assert a["ber.csv"] != b["ber.csv"]

    def test_invalid_config_aborts_without_manifest(self, tmp_path):
        cfg = small_config(scenario_ids=("1", "missing"))
        with pytest.raises(ConfigError):
            run(cfg, out_dir=str(tmp_path))
        assert not (tmp_path / "manifest.json").exists()

    def test_heatmap_csv_format(self, tmp_path):
        run(small_config(scenario_ids=("1",)), out_dir=str(tmp_path))
        with open(tmp_path / "heatmap_scenario_1.csv", "r", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "x_m,y_m,e_vpm"
        assert len(lines) == 57
        x, y, v = lines[1].split(",")
        assert (float(x), float(y)) == (-3.0, 1.0)
        assert float(v) > 0

    def test_ber_csv_format(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path))
        with open(tmp_path / "ber.csv", "r", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "scenario,ue,ber,bits"
        assert len(lines) == 1 + 1 + 2  # scenario 1 (1 UE) + scenario 5 (2 UEs)
        scenario, ue, ber, bits = lines[1].split(",")
        assert (scenario, ue) == ("1", "1")
        assert 0.0 <= float(ber) <= 1.0
        assert int(bits) == 2664 * 16 * 6

    def test_summary_json_contents(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path))
        with open(tmp_path / "summary.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload["per_scenario"]) == {"1", "5"}
        avg = payload["average"]
        assert avg["max_vpm"] >= avg["p95_vpm"] >= avg["mean_vpm"] >= avg["min_vpm"]


class TestCli:
    def test_scenarios_verb(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "(0, 8)" in out and out.count("\n") == 9

    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "--config", CONFIG_PATH]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\nofdm:\n  fft_size: 2048\n")
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert "finding" in capsys.readouterr().out

    def test_run_and_render_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 7\nscenarios: [3]\nformats: [csv]\nofdm: {frames: 1}\n"
        )
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        produced = set(os.listdir(out_dir))
        assert "heatmap_scenario_3.csv" in produced
        assert "heatmap_scenario_3.svg" not in produced

        csv_path = out_dir / "heatmap_scenario_3.csv"
        assert cli_main(["render", str(csv_path), "--format", "svg"]) == 0
        assert (out_dir / "heatmap_scenario_3.svg").exists()
        svg = (out_dir / "heatmap_scenario_3.svg").read_text()
        assert svg.startswith("<svg") and "scenario 3" in svg

    def test_rerendered_average_keeps_its_title(self, tmp_path):
        run(small_config(formats=("ascii", "csv")), out_dir=str(tmp_path / "run"))
        csv_path = tmp_path / "run" / "heatmap_average.csv"
        again = tmp_path / "again"
        assert cli_main(["render", str(csv_path), "--out", str(again)]) == 0
        ascii_text = (again / "heatmap_average.txt").read_text()
        assert ascii_text == (tmp_path / "run" / "heatmap_average.txt").read_text()
        assert "scenario average &#8212;" in (again / "heatmap_average.svg").read_text()

    @pytest.mark.parametrize("body, line, message", [
        ("", 2, "no data rows"),
        ("0,1,2\n1,1\n", 3, "expected 3 fields"),
        ("0,1,2,3\n", 2, "expected 3 fields"),
        ("0,1,2\n\n", 3, "expected 3 fields"),
        ("0,1,abc\n", 2, "not a number"),
        ("0,1,nan\n", 2, "non-finite"),
        ("0,1,2\n1,inf,2\n", 3, "non-finite"),
        ("0,1,-0.5\n", 2, "negative"),
    ])
    def test_render_reports_malformed_csv_lines(self, tmp_path, capsys, body, line, message):
        path = tmp_path / "heatmap_scenario_1.csv"
        path.write_text("x_m,y_m,e_vpm\n" + body)
        assert cli_main(["render", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {line}: {message}")
        assert not (tmp_path / "heatmap_scenario_1.svg").exists()

    @pytest.mark.parametrize("vmax", ["nan", "0", "-1"])
    def test_render_rejects_a_scale_top_that_is_not_positive(self, tmp_path, capsys, vmax):
        path = tmp_path / "heatmap_scenario_1.csv"
        path.write_text("x_m,y_m,e_vpm\n0,1,2\n")
        assert cli_main(["render", str(path), "--vmax", vmax]) == 1
        assert capsys.readouterr().err.startswith("error: --vmax: must be a positive")
        assert not (tmp_path / "heatmap_scenario_1.svg").exists()

    def test_render_rejects_duplicate_points(self, tmp_path, capsys):
        path = tmp_path / "heatmap_scenario_1.csv"
        path.write_text("x_m,y_m,e_vpm\n0,0,1\n0,0,1\n1,0,1\n1,1,1\n")
        assert cli_main(["render", str(path)]) == 1
        assert "complete lattice" in capsys.readouterr().err

    def test_run_scenario_and_seed_flags(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = cli_main([
            "run", "--config", CONFIG_PATH, "--out", str(out_dir),
            "--seed", "5", "--scenario", "2", "--format", "csv",
        ])
        assert rc == 0
        names = set(os.listdir(out_dir))
        assert "heatmap_scenario_2.csv" in names
        assert not any(n.startswith("heatmap_scenario_1") for n in names)

    def test_missing_config_file_is_runtime_error(self, capsys):
        assert cli_main(["run", "--config", "/nonexistent.yaml"]) == 2

    def test_invalid_run_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\nscenarios: [99]\n")
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


class TestRenderOutputs:
    def test_svg_and_ascii_written(self, tmp_path):
        run(small_config(formats=("csv", "svg", "ascii")), out_dir=str(tmp_path))
        svg = (tmp_path / "heatmap_average.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        txt = (tmp_path / "heatmap_average.txt").read_text()
        assert "y=   8" in txt and "y=   1" in txt
        assert txt.count("\n") == 10  # header + 8 rows + axis line


class TestGoldenValues:
    """`configs/paper-defaults.yaml` against values recorded from a run.

    A run is byte-identical only for the same platform, numpy and
    BLAS/LAPACK build (see README, "Reproducibility"). Across builds the
    heat-map statistics may move in their last digits, hence rtol, and a
    link may gain or lose a few bit errors, hence the absolute BER
    tolerance of about 10 errors in 1 022 976 bits.
    """

    RTOL = 1e-9
    BER_ATOL = 1e-5
    AVERAGE = {"max_vpm": 4.7702880583940726, "mean_vpm": 1.7264564292000055,
               "p95_vpm": 3.5335090301208516}
    EXPONENT = -0.40150408007102983
    BER = {
        ("1", "1"): 7.82032032e-06, ("2", "1"): 0.0, ("3", "1"): 0.0,
        ("4", "1"): 1.95508008e-06, ("4", "2"): 0.0,
        ("5", "1"): 0.00116816035, ("5", "2"): 0.0,
        ("6", "1"): 0.00098829298, ("6", "2"): 9.7754004e-07,
        ("7", "1"): 0.000878808496, ("7", "2"): 0.0,
        ("8", "1"): 0.00501575795, ("8", "2"): 7.62481231e-05, ("8", "3"): 1.95508008e-06,
    }

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("paper-defaults")
        run(load_config(CONFIG_PATH), out_dir=str(out))
        return out

    def test_average_map_and_decay(self, out_dir):
        average = json.loads((out_dir / "summary.json").read_text())["average"]
        for key, value in self.AVERAGE.items():
            assert average[key] == pytest.approx(value, rel=self.RTOL, abs=0), key
        fit = json.loads((out_dir / "decay_fit.json").read_text())
        assert fit["exponent"] == pytest.approx(self.EXPONENT, rel=self.RTOL, abs=0)

    def test_every_link_ber(self, out_dir):
        rows = (out_dir / "ber.csv").read_text().split("\n")[1:-1]
        ber = {}
        for row in rows:
            scenario, ue, value, bits = row.split(",")
            assert int(bits) == 1022976
            ber[scenario, ue] = float(value)
        assert ber.keys() == self.BER.keys()
        for link, value in self.BER.items():
            assert ber[link] == pytest.approx(value, rel=0, abs=self.BER_ATOL), link
