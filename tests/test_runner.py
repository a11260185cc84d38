import dataclasses
import hashlib
import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import beamfield.field
import beamfield.render
import beamfield.runner
from beamfield import (
    DEFAULT_LIMITS_VPM,
    ConfigError,
    GridSection,
    HeatMap,
    ProbeGrid,
    RunConfig,
    ZfInfeasibleError,
    average_heatmaps,
    build_grid,
    check,
    combining_vectors,
    estimate_csi,
    generate_channel,
    load_config,
    run,
    summary,
    transmit_frame,
    validate,
    verify_manifest,
    zf_precoder,
)
from beamfield.channel import _GAIN_BLOCK_ENTRIES
from beamfield.cli import _read_heatmap_csv
from beamfield.cli import main as cli_main
from beamfield.config import checked, derive_seed, from_dict
from beamfield.field import compute_heatmap, heatmaps, probe_gains
from beamfield.render import _BLOCK_CHARS, grid_text, json_blocks, svg_blocks
from beamfield.runner import _ArtifactWriter, run_links

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "paper-defaults.yaml")


def small_config(**overrides):
    """Two scenarios, one frame: fast but exercises the whole pipeline."""
    base = RunConfig(
        scenarios=("1", "5"),
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
        assert validate(RunConfig()) == ()

    def test_paper_defaults_file_clean(self):
        assert validate(load_config(CONFIG_PATH)) == ()

    def test_out_of_room_ue(self):
        cfg = from_dict({
            "seed": 1,
            "scenarios": ["far"],
            "custom_scenarios": [{"id": "far", "ue_positions": [[10.0, 4.0]]}],
        })
        findings = validate(cfg)
        assert any("outside the room" in f for f in findings)

    def test_ofdm_spacing_mismatch(self):
        findings = validate({"seed": 1, "ofdm": {"fft_size": 2048}})
        assert any("spacing" in f for f in findings)

    def test_unknown_scenario_id(self):
        findings = validate({"seed": 1, "scenarios": [1, 99]})
        assert any("99" in f for f in findings)

    def test_missing_seed(self):
        findings = validate({})
        assert any("seed" in f for f in findings)

    def test_off_grid_cut_column(self):
        findings = validate({"seed": 1, "cut_x": 0.5})
        assert any("cut_x" in f for f in findings)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            from_dict({"seed": 1, "spam": 2})


class TestRun:
    def test_single_scenario_average_equals_map(self, tmp_path):
        cfg = small_config(scenarios=("1",))
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
        config = small_config(scenarios=RunConfig().scenarios)
        run(config, out_dir=str(tmp_path))
        grid = build_grid(config.grid, room=config.room)
        assert len(config.scenarios) == 8
        assert sum(np.array_equal(rx, grid.points) for rx in rx_seen) == 1
        assert len(rx_seen) == 1

    def test_array_and_grid_built_once_per_run(self, tmp_path, monkeypatch):
        # Validation builds them; the run reads them from its plan.
        calls = []
        for real in (beamfield.geometry.build_array, beamfield.geometry.build_grid):
            def counting(*args, real=real, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("beamfield.") and vars(module).get(real.__name__) is real:
                    monkeypatch.setattr(module, real.__name__, counting)
        run(small_config(), out_dir=str(tmp_path))
        assert sorted(calls) == ["build_array", "build_grid"]

    def test_grid_text_built_once_per_run(self, tmp_path, monkeypatch):
        grids = []
        calls = []
        real = beamfield.runner.grid_text
        real_maps = beamfield.runner.heatmaps

        def counting(grid, formats):
            grids.append(grid)
            calls.append("grid_text")
            return real(grid, formats)

        def mapping(*args, **kwargs):
            calls.append("heatmaps")
            return real_maps(*args, **kwargs)

        monkeypatch.setattr(beamfield.runner, "grid_text", counting)
        monkeypatch.setattr(beamfield.runner, "heatmaps", mapping)
        config = small_config(scenarios=RunConfig().scenarios,
                              formats=("ascii", "csv", "json", "svg"))
        manifest = run(config, out_dir=str(tmp_path))
        assert calls == ["heatmaps", "grid_text"]
        assert len(grids) == 1
        assert grids[0] == build_grid(config.grid, room=config.room)
        assert sum(a["type"] == "heatmap-svg" for a in manifest.artifacts) == 9

    def test_each_gain_call_gets_at_most_one_block_of_rows(self, tmp_path, monkeypatch):
        # The 0.1 m grid, 61 x 71 points: 4 grid rows (244 points) per block
        # at 64 active elements, so the run never holds its 4.4 MB matrix.
        calls = []
        blocks = []
        alive = []
        real_gains = beamfield.field.propagation_gains
        real_probe = beamfield.field.probe_gains

        def recording(tx_points, rx_points, *args, **kwargs):
            calls.append((len(tx_points), np.array(rx_points)))
            return real_gains(tx_points, rx_points, *args, **kwargs)

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in blocks))
            gains = real_probe(*args, **kwargs)
            blocks.append(weakref.ref(gains))
            return gains

        monkeypatch.setattr(beamfield.field, "propagation_gains", recording)
        monkeypatch.setattr(beamfield.field, "probe_gains", tracked)
        config = small_config(grid=dataclasses.replace(RunConfig().grid, spacing=0.1))
        run(config, out_dir=str(tmp_path))
        grid = build_grid(config.grid, room=config.room)
        assert grid.n_points == 4331
        assert len(calls) == 18
        for n_tx, rx in calls:
            assert n_tx == 64 and len(rx) <= _GAIN_BLOCK_ENTRIES // n_tx
        # The blocks cover the grid once, in order, and each block's gains
        # are dropped before the next block's are computed.
        assert np.concatenate([rx for _, rx in calls]).tobytes() == grid.points.tobytes()
        assert alive == [0] * 18

    @pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
    @pytest.mark.parametrize("pattern", ["isotropic", "cosine"])
    @pytest.mark.parametrize("grid_keys, active", [
        # The default 56-point grid: one block.
        (dict(), "central-8x8"),
        (dict(spacing=0.1), "central-8x8"),
        # One column of 513 rows: the last 64-element block would be one point.
        (dict(x_min=0.0, x_max=0.0, y_min=1.0, y_max=9.0, spacing=1 / 64), "central-8x8"),
        (dict(spacing=0.1), "all"),
    ], ids=["default", "fine", "one-column", "fine-all-elements"])
    def test_maps_match_the_whole_grid_gain_matrix_byte_for_byte(
            self, tmp_path, mode, pattern, grid_keys, active):
        # One and three users, so one and three streams per map.
        base = small_config(scenarios=("1", "8"), formats=("json",), calibration=0.7,
                            fit_exclude_near_field=False)
        config = dataclasses.replace(
            base,
            array=dataclasses.replace(base.array, active=active),
            channel=dataclasses.replace(base.channel, mode=mode, element_pattern=pattern),
            grid=dataclasses.replace(base.grid, **grid_keys))
        run(config, out_dir=str(tmp_path))
        plan = checked(config)[0]
        room, array, grid = config.room, plan.array, plan.grid
        gains = probe_gains(array, room, grid, config.channel)
        text = grid_text(grid, config.formats)
        for link in run_links(config, plan.scenarios, array):
            want = compute_heatmap(link.scenario, link.precoder, grid, gains,
                                   calibration=config.calibration)
            written = (tmp_path / f"heatmap_scenario_{link.scenario.id}.json").read_text()
            assert written == "".join(json_blocks(want, text))

    def test_maps_from_a_generator_equal_maps_from_a_list(self):
        # The 0.1 m grid spans 18 blocks, so every pair meets every block.
        config = small_config(grid=dataclasses.replace(RunConfig().grid, spacing=0.1))
        plan = checked(config)[0]
        room, array, grid = config.room, plan.array, plan.grid
        links = run_links(config, plan.scenarios, array)
        pairs = [(link.scenario, link.precoder) for link in links]
        from_list = heatmaps(pairs, array, room, grid, config.channel, calibration=0.7)
        from_generator = heatmaps((pair for pair in pairs), array, room, grid, config.channel,
                                  calibration=0.7)
        assert len(from_list) == len(from_generator) == 2
        for a, b in zip(from_list, from_generator):
            assert a.scenario_id == b.scenario_id
            assert a.values.tobytes() == b.values.tobytes()

    def test_one_scenario_csv_run_holds_less_than_its_gain_matrix(self, tmp_path):
        # The 0.05 m grid: 121 x 141 points x 64 elements would be a 17.5 MB
        # matrix; a run holds one block of it, the maps and the artifact
        # being written.
        config = small_config(scenarios=("1",), formats=("csv",),
                              grid=dataclasses.replace(RunConfig().grid, spacing=0.05))
        plan = checked(config)[0]
        matrix_bytes = plan.grid.n_points * plan.array.n_active * 16
        assert matrix_bytes > 17_400_000
        tracemalloc.start()
        try:
            run(config, out_dir=str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes

    def test_the_writer_holds_one_block_of_text_beyond_the_grid_text(self, tmp_path):
        # The 0.05 m grid, 17 061 points: one map's SVG is about 3.6 MB of
        # text.  Per map the writer holds its cells' arrays (scaled values,
        # colours, label colours and ASCII levels, and while the colours
        # are made their temporaries), under 96 bytes a cell, and about one
        # block of text with its bytes and slots.
        grid = build_grid(GridSection(spacing=0.05))
        assert grid.n_points == 17_061
        values = np.random.default_rng(18).uniform(0, 5, grid.n_points)
        heatmap = HeatMap(grid=grid, values=values, scenario_id="1")
        formats = ("ascii", "csv", "json", "svg")
        text = grid_text(grid, formats)
        writer = _ArtifactWriter(str(tmp_path), formats)
        tracemalloc.start()
        try:
            writer.heatmap(heatmap, text, scenario="1", markers=[(0.0, 2.0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "heatmap_scenario_1.svg").stat().st_size > 3_600_000
        assert peak < 96 * grid.n_points + 4 * _BLOCK_CHARS

    def test_a_write_that_fails_part_way_closes_its_file(self, tmp_path, monkeypatch):
        # The 0.1 m grid's SVG spans several blocks; its second fails.  The
        # first block's bytes are on disk, so the file was flushed and
        # closed, and the artifact is not recorded.
        grid = build_grid(GridSection(spacing=0.1))
        heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1")
        text = grid_text(grid, ("svg",))
        first = next(svg_blocks(heatmap, text))
        real = beamfield.render.heatmap_svg
        made = []

        def failing(*args):
            if made:
                raise RuntimeError("second block")
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(beamfield.render, "heatmap_svg", failing)
        writer = _ArtifactWriter(str(tmp_path), ("svg",))
        with pytest.raises(RuntimeError, match="second block"):
            writer.heatmap(heatmap, text, scenario="1")
        assert made == [first]
        assert (tmp_path / "heatmap_scenario_1.svg").read_bytes() == first.encode()
        assert writer._records == []

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

    def test_manifest_hashes_artifacts_of_several_chunks(self, tmp_path):
        # The 0.1 m grid's CSV, about 84 kB, is verified in 64 KiB chunks;
        # a change to its last byte is found.
        config = small_config(scenarios=("1",), formats=("csv",),
                              grid=dataclasses.replace(RunConfig().grid, spacing=0.1))
        manifest = run(config, out_dir=str(tmp_path))
        path = tmp_path / "heatmap_scenario_1.csv"
        data = path.read_bytes()
        assert len(data) > 65536
        sha = {a["path"]: a["sha256"] for a in manifest.artifacts}
        assert hashlib.sha256(data).hexdigest() == sha["heatmap_scenario_1.csv"]
        assert verify_manifest(str(tmp_path)) == []
        path.write_bytes(data[:-1] + b" ")
        assert verify_manifest(str(tmp_path)) == ["heatmap_scenario_1.csv"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        a = read_all(tmp_path / "a")
        b = read_all(tmp_path / "b")
        assert a == b

    def test_different_seed_changes_ber(self, tmp_path):
        run(small_config(), out_dir=str(tmp_path / "a"))
        run(small_config(seed=999), out_dir=str(tmp_path / "b"))
        a = read_all(tmp_path / "a")
        b = read_all(tmp_path / "b")
        assert a["ber.csv"] != b["ber.csv"]

    def test_invalid_config_aborts_without_manifest(self, tmp_path):
        cfg = small_config(scenarios=("1", "missing"))
        with pytest.raises(ConfigError):
            run(cfg, out_dir=str(tmp_path))
        assert not (tmp_path / "manifest.json").exists()

    def test_heatmap_csv_format(self, tmp_path):
        run(small_config(scenarios=("1",)), out_dir=str(tmp_path))
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
        config = small_config()
        run(config, out_dir=str(tmp_path))
        with open(tmp_path / "summary.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload["per_scenario"]) == {"1", "5"}
        avg = payload["average"]
        assert avg["max_vpm"] >= avg["p95_vpm"] >= avg["mean_vpm"] >= avg["min_vpm"]

        # Each record is its result's fields, after a JSON round trip.
        plan = checked(config)[0]
        links = run_links(config, plan.scenarios, plan.array)
        maps = heatmaps([(link.scenario, link.precoder) for link in links], plan.array,
                        config.room, plan.grid, config.channel, config.calibration)
        average = average_heatmaps(maps)

        def record(result):
            return json.loads(json.dumps(dataclasses.asdict(result)))

        assert payload == {"average": record(summary(average)),
                           "per_scenario": {m.scenario_id: record(summary(m)) for m in maps}}
        # A compliance record adds only what JSON or the cut needs to its report.
        for region in DEFAULT_LIMITS_VPM:
            written = json.loads((tmp_path / f"compliance_{region}.json").read_text())
            report = record(check(average, region))
            assert set(written) - set(report) == {"compliant", "min_compliant_distance_m"}
            assert {key: written[key] for key in report} == report


def _campaign_with_customs():
    """The eight built-ins, then customs of 1-8 users; one has 2-antenna users."""
    rng = np.random.default_rng(31)
    customs = [{"id": f"c{n}", "ue_positions": np.column_stack(
                    [rng.uniform(-3, 3, n), rng.uniform(2, 12, n)]).round(3).tolist(),
                "antennas_per_ue": 2 if n == 3 else 4}
               for n in range(1, 9)]
    config = from_dict({"seed": 17, "ofdm": {"frames": 1}, "custom_scenarios": customs,
                        "scenarios": [str(i) for i in range(1, 9)]
                        + [c["id"] for c in customs]})
    assert config.channel.csi_snr_db == 40.0 and validate(config) == ()
    return config


class TestRunLinks:
    def test_links_equal_the_stages_run_one_scenario_at_a_time(self):
        config = _campaign_with_customs()
        plan = checked(config)[0]
        array, scenarios = plan.array, plan.scenarios
        blocks = beamfield.runner._link_blocks(scenarios, array.n_active)
        assert len(blocks) >= 3 and any(stop - start > 1 for start, stop in blocks)
        links = run_links(config, scenarios, array)
        assert tuple(link.scenario for link in links) == scenarios
        for i, (scenario, link) in enumerate(zip(scenarios, links)):
            (h,) = generate_channel(array, [scenario], config.room, config.channel)
            est = estimate_csi(h, config.channel, derive_seed(config.seed, i, 0))
            combiners = combining_vectors(est)
            precoder = zf_precoder(est, combiners, config.tx_power_w)
            ber = transmit_frame(precoder, h, combiners, config.ofdm,
                                 derive_seed(config.seed, i, 1))
            assert link.precoder.w.tobytes() == precoder.w.tobytes(), scenario.id
            assert link.ber == ber, scenario.id

    def test_a_failing_link_names_its_scenario_and_leaves_no_directory(self, tmp_path, capsys):
        # Two users at one place: with perfect CSI zero-forcing cannot separate them.
        path = tmp_path / "twin.yaml"
        path.write_text("seed: 1\nchannel: {csi_snr_db: .inf}\nscenarios: ['1', twin, '2']\n"
                        "custom_scenarios: [{id: twin, ue_positions: [[1.0, 5.0], [1.0, 5.0]]}]\n")
        config = load_config(str(path))
        assert validate(config) == ()
        out_dir = tmp_path / "out"
        with pytest.raises(ZfInfeasibleError, match="^scenario twin: ZF infeasible: user 1 "):
            run(config, out_dir=str(out_dir))
        assert not out_dir.exists()
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario twin: ZF infeasible")
        assert not out_dir.exists()


class TestVerifyManifest:
    """A manifest is untrusted input: every listed path that fails is returned."""

    @pytest.fixture
    def out_dir(self, tmp_path):
        # out/a.csv is an artifact; outside.txt lies beside out/, and
        # out/link.txt links to it.
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.csv").write_bytes(b"a\n")
        (tmp_path / "outside.txt").write_bytes(b"secret\n")
        (out / "link.txt").symlink_to(tmp_path / "outside.txt")
        return out

    def verify(self, out_dir, paths, monkeypatch):
        # Each entry carries the true hash of the file it names, so only the
        # path rules can fail it; the files opened are recorded.
        def sha(path):
            if not isinstance(path, str):
                return ""
            target = os.path.join(out_dir, path)
            if not os.path.isfile(target):
                return ""
            with open(target, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()

        artifacts = [{"path": p, "sha256": sha(p)} for p in paths]
        bad, _ = self.check(out_dir, {"artifacts": artifacts}, monkeypatch)
        return bad

    def check(self, out_dir, manifest, monkeypatch):
        # Returns what verify_manifest returns and the files it opened.
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        opened = []

        def recording(path, *args, **kwargs):
            opened.append(os.path.realpath(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(beamfield.runner, "open", recording, raising=False)
        bad = verify_manifest(str(out_dir))
        root = os.path.realpath(out_dir)
        assert all(os.path.dirname(path) == root for path in opened), opened
        return bad, opened

    def test_listed_files_that_match_pass(self, out_dir, monkeypatch):
        assert self.verify(out_dir, ["a.csv"], monkeypatch) == []

    def test_a_missing_file_fails(self, out_dir, monkeypatch):
        assert self.verify(out_dir, ["a.csv", "gone.csv"], monkeypatch) == ["gone.csv"]

    @pytest.mark.parametrize("path", ["../outside.txt", "link.txt", ".", "sub/../../outside.txt",
                                      "{out}/../outside.txt", "{out}/a.csv"])
    def test_an_absolute_or_escaping_path_fails_unopened(self, out_dir, monkeypatch, path):
        path = path.format(out=out_dir)
        assert self.verify(out_dir, [path, "a.csv"], monkeypatch) == [path]

    def test_a_file_listed_twice_fails(self, out_dir, monkeypatch):
        assert self.verify(out_dir, ["a.csv", "a.csv", "./a.csv"], monkeypatch) \
            == ["a.csv", "./a.csv"]

    @pytest.mark.parametrize("path", ["a.csv\0", "a\0b", 7, None, ["a.csv"]],
                             ids=["trailing-nul", "nul", "int", "null", "list"])
    def test_a_path_that_names_no_file_fails_unopened(self, out_dir, monkeypatch, path):
        assert self.verify(out_dir, [path, "a.csv"], monkeypatch) == [path]

    @pytest.mark.parametrize("entry, returned", [
        ({"path": "a.csv"}, "a.csv"),
        ({"path": "a.csv", "sha256": None}, "a.csv"),
        ("a.csv", "a.csv"),
        ({"sha256": "0" * 64}, {"sha256": "0" * 64}),
    ], ids=["no-sha256", "null-sha256", "bare-string", "no-path"])
    def test_a_malformed_entry_is_returned_unopened(self, out_dir, monkeypatch, entry,
                                                    returned):
        good = {"path": "a.csv", "sha256": hashlib.sha256(b"a\n").hexdigest()}
        bad, opened = self.check(out_dir, {"artifacts": [entry, good]}, monkeypatch)
        assert bad == [returned]
        assert opened.count(os.path.realpath(out_dir / "a.csv")) == 1

    @pytest.mark.parametrize("manifest", [
        {"artifacts": "a.csv"},
        {"artifacts": {"path": "a.csv"}},
        [{"path": "a.csv"}],
        {},
    ], ids=["artifacts-string", "artifacts-mapping", "list-root", "no-artifacts"])
    def test_a_manifest_without_an_artifacts_list_raises(self, out_dir, monkeypatch, manifest):
        with pytest.raises(ValueError, match="'artifacts' list"):
            self.check(out_dir, manifest, monkeypatch)


class TestCli:
    def test_scenarios_verb(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "(0, 8)" in out and out.count("\n") == 9

    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "--config", CONFIG_PATH]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_validate_without_a_config_checks_the_defaults(self, capsys):
        assert cli_main(["validate"]) == 0
        assert capsys.readouterr().out == "configuration OK (no findings)\n"

    def test_run_without_a_config_runs_the_defaults(self, tmp_path):
        for out, config in (("bare", []), ("paper", ["--config", CONFIG_PATH])):
            assert cli_main(["run", *config, "--scenario", "1", "--format", "csv",
                             "--out", str(tmp_path / out)]) == 0
        manifests = [(tmp_path / out / "manifest.json").read_bytes() for out in ("bare", "paper")]
        assert manifests[0] == manifests[1]

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

    # The 0.1 m grid's 61 x 71 points stream in 18 blocks of rows.
    @pytest.mark.parametrize("grid_keys, step", [
        ({}, "step 1 m"),
        (dict(x_min=0.0, x_max=0.0, spacing=0.5), "step 0.5 m"),
        (dict(spacing=0.1), "step 0.1 m"),
    ], ids=["default", "one-column", "fine"])
    def test_rerendered_ascii_footer_keeps_the_grid_step(self, tmp_path, grid_keys, step):
        config = small_config(scenarios=("1",), formats=("ascii", "csv"),
                              grid=dataclasses.replace(RunConfig().grid, **grid_keys))
        run(config, out_dir=str(tmp_path / "run"))
        again = tmp_path / "again"
        csv_path = tmp_path / "run" / "heatmap_scenario_1.csv"
        assert cli_main(["render", str(csv_path), "--out", str(again)]) == 0
        footer = (tmp_path / "run" / "heatmap_scenario_1.txt").read_text().splitlines()[-1]
        assert footer.endswith(step)
        assert (again / "heatmap_scenario_1.txt").read_text().splitlines()[-1] == footer
        assert (again / "heatmap_scenario_1.svg").stat().st_size > 0

    def test_a_csv_with_shuffled_rows_renders_the_same(self, tmp_path):
        run(small_config(scenarios=("1",), formats=("csv",)), out_dir=str(tmp_path / "run"))
        header, *rows = (tmp_path / "run" / "heatmap_scenario_1.csv").read_text().splitlines(True)
        np.random.default_rng(3).shuffle(rows)
        (tmp_path / "shuffled").mkdir()
        shuffled = tmp_path / "shuffled" / "heatmap_scenario_1.csv"
        shuffled.write_text(header + "".join(rows))
        rendered = []
        for csv_path in (tmp_path / "run" / "heatmap_scenario_1.csv", shuffled):
            out = csv_path.parent / "render"
            assert cli_main(["render", str(csv_path), "--out", str(out)]) == 0
            rendered.append(read_all(out))
        assert sorted(rendered[0]) == ["heatmap_scenario_1.svg", "heatmap_scenario_1.txt"]
        assert rendered[0] == rendered[1]

    def test_a_rerendered_grid_has_plain_axes(self, tmp_path):
        # The axes are tuples of floats, as the run's grid has them, so grids
        # compare with == whatever their probe heights.
        run(small_config(scenarios=("1",), formats=("csv",)), out_dir=str(tmp_path))
        grid = _read_heatmap_csv(str(tmp_path / "heatmap_scenario_1.csv")).grid
        built = build_grid()
        assert grid == ProbeGrid(built.x_values, built.y_values, 0.0)
        assert grid != built

    @pytest.mark.filterwarnings("error")
    def test_a_subnormal_scale_top_runs_and_renders(self, tmp_path):
        # 1e-320 V/m is positive and finite, and every field lies above it, so
        # each cell takes the top level.  Dividing by it before clamping overflowed.
        config = small_config(scenarios=("1",), formats=("ascii", "csv", "svg"),
                              svg_vmax=1e-320)
        run(config, out_dir=str(tmp_path / "run"))
        assert verify_manifest(str(tmp_path / "run")) == []
        ascii_text = (tmp_path / "run" / "heatmap_scenario_1.txt").read_text()
        cells = "".join(line.split("|")[1] for line in ascii_text.splitlines()[1:-1])
        assert set(cells) == {"@"}
        csv_path = tmp_path / "run" / "heatmap_scenario_1.csv"
        again = tmp_path / "again"
        assert cli_main(["render", str(csv_path), "--out", str(again), "--vmax", "1e-320"]) == 0
        assert (again / "heatmap_scenario_1.txt").read_text() == ascii_text

    def test_a_single_point_csv_steps_one_metre(self, tmp_path):
        path = tmp_path / "heatmap_scenario_1.csv"
        path.write_text("x_m,y_m,e_vpm\n0.5,2,3\n")
        assert cli_main(["render", str(path), "--format", "ascii"]) == 0
        footer = (tmp_path / "heatmap_scenario_1.txt").read_text().splitlines()[-1]
        assert footer.endswith("step 1 m")

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

    @pytest.mark.parametrize("data, message", [
        (b"x_m,y_m,e_vpm\n0,1,2\n1,1,2\xff\n", "line 3: not a number in '1,1,2\\udcff'"),
        (b"x_m,y_m,e_vpm\xc3\n0,1,2\n", "not a heat-map CSV (header 'x_m,y_m,e_vpm\\udcc3')"),
    ], ids=["row", "header"])
    def test_render_reports_a_byte_that_is_not_utf8(self, tmp_path, capsys, data, message):
        # The file was decoded strictly: exit 2 with the codec's message and no file named.
        path = tmp_path / "heatmap_scenario_1.csv"
        path.write_bytes(data)
        assert cli_main(["render", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
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

    def test_seed_flag_supplies_a_missing_seed(self, tmp_path):
        cfg = tmp_path / "seedless.yaml"
        cfg.write_text("scenarios: [3]\nformats: [csv]\nofdm: {frames: 1}\n")
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--seed", "3",
                         "--out", str(out_dir)]) == 0
        assert verify_manifest(str(out_dir)) == []

    def test_flags_run_as_the_document_keys_they_set(self, tmp_path):
        flags = tmp_path / "flags.yaml"
        flags.write_text("seed: 1\nofdm: {frames: 1}\n")
        keys = tmp_path / "keys.yaml"
        keys.write_text(f"seed: 4\nscenarios: ['2', '6']\nformats: [json, csv]\n"
                        f"output_dir: {str(tmp_path / 'by-keys')!r}\nofdm: {{frames: 1}}\n")
        assert cli_main(["run", "--config", str(flags), "--seed", "4", "--scenario", "2",
                         "--scenario", "6", "--format", "json", "--format", "csv",
                         "--format", "json", "--out", str(tmp_path / "by-flags")]) == 0
        assert cli_main(["run", "--config", str(keys)]) == 0
        manifests = [(tmp_path / out / "manifest.json").read_bytes()
                     for out in ("by-flags", "by-keys")]
        assert manifests[0] == manifests[1]

    def test_a_scenario_flag_given_twice_is_a_finding(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--scenario", "1", "--scenario", "1",
                         "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == ("error: configuration invalid:\n"
                                           "finding: scenarios: id '1' is listed 2 times\n")
        assert not out_dir.exists()

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
