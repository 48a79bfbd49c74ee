import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opmor import __version__, rom as rom_mod, samples
from opmor.cli import main
from opmor.config import build_model
from opmor.loewner import dataset_hash
from opmor.models import PoleFactorModel

# n_modes 6 keeps the sampled ROM stable so the h2 subcommand has a
# well-posed error to report; at 4 the Loewner pencil picks up a spurious
# right half-plane pole
MODEL_BLOCK = {
    "con_patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]},
    "obs_patch": {"x": [0.6, 0.8], "y": [0.6, 0.8]},
    "n_modes": 6,
    "quad_order": 16,
}

SAMPLE_BLOCK = {
    "sigmas": [1.0, 2.0, [5.0, 1.0], [5.0, -1.0]],
    "rhos": [1.0, 2.5, [5.0, 1.0], [5.0, -1.0]],
    "right_dirs": ["mode:1,1", "mode:1,2", "mode:2,1", "mode:2,1"],
    "left_dirs": ["mode:1,1", "mode:2,2", "mode:1,3", "mode:1,3"],
}


def write_config(path, **extra):
    cfg = {"model": MODEL_BLOCK, "sample": SAMPLE_BLOCK}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def config(tmp_path):
    return write_config(tmp_path / "config.json")


@pytest.fixture()
def pipeline(tmp_path, config):
    # sample -> reduce once per test that needs artifacts on disk
    data = str(tmp_path / "dataset.json")
    rom = str(tmp_path / "rom.json")
    assert main(["sample", "--config", config, "--out", data]) == 0
    assert main(["reduce", "--config", config, "--data", data, "--out", rom]) == 0
    return {"config": config, "data": data, "rom": rom, "dir": tmp_path}


class TestPipeline:
    def test_validate_passes_on_own_data(self, pipeline, capsys):
        rc = main(["validate", "--config", pipeline["config"],
                   "--rom", pipeline["rom"], "--tol", "1e-8"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_reports_embed_hash_and_version(self, pipeline):
        out = str(pipeline["dir"] / "vreport.json")
        main(["validate", "--config", pipeline["config"],
              "--rom", pipeline["rom"], "--tol", "1e-8", "--out", out])
        report = json.loads(Path(out).read_text())
        raw = Path(pipeline["config"]).read_bytes()
        assert report["config_sha256"] == hashlib.sha256(raw).hexdigest()
        assert report["tool_version"] == __version__
        rom = json.loads(Path(pipeline["rom"]).read_text())
        assert rom["provenance"]["config_sha256"] == report["config_sha256"]

    def test_reduce_records_the_loaded_dataset_hash(self, pipeline):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        want = dataset_hash(samples.load(pipeline["data"]))
        assert rom["provenance"]["dataset_sha256"] == want

    def test_corrupted_entry_fails_validation(self, pipeline, capsys):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        rom["E"][0][0][0] *= 1.5
        bad = pipeline["dir"] / "rom_bad.json"
        bad.write_text(json.dumps(rom))
        rc = main(["validate", "--config", pipeline["config"],
                   "--rom", str(bad), "--tol", "1e-8"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_report_lists_every_check(self, pipeline):
        out = pipeline["dir"] / "validate.json"
        assert main(["validate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                     "--tol", "1e-8", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [c["kind"] for c in checks] == ["right"] * 4 + ["left"] * 4 + ["hermite"] * 3
        assert [c["point"] for c in checks] == [
            [1.0, 0.0], [2.0, 0.0], [5.0, 1.0], [5.0, -1.0],
            [1.0, 0.0], [2.5, 0.0], [5.0, 1.0], [5.0, -1.0],
            [1.0, 0.0], [5.0, 1.0], [5.0, -1.0],
        ]
        assert all(c["residual"] <= 1e-8 for c in checks)

    def test_validate_samples_the_full_model_once_per_check(self, pipeline, monkeypatch):
        # r transfer, r adjoint and one derivative per Hermite pair, as collect
        # samples them: 4, 4 and 3 for the sample block
        counts = dict.fromkeys(["apply_tf", "apply_tf_adjoint", "apply_tf_derivative"], 0)
        for kind in counts:
            def counted(self, *args, _kind=kind, _original=getattr(PoleFactorModel, kind)):
                counts[_kind] += 1
                return _original(self, *args)
            monkeypatch.setattr(PoleFactorModel, kind, counted)
        assert main(["validate", "--config", pipeline["config"],
                     "--rom", pipeline["rom"], "--tol", "1e-8"]) == 0
        assert counts == {"apply_tf": 4, "apply_tf_adjoint": 4, "apply_tf_derivative": 3}

    @pytest.mark.parametrize("args, block", [
        (["--tol", "nan"], None), (["--tol", "-1"], None),
        ([], {"tol": float("nan")}), ([], {"tol": "1e-3"}), ([], {"tol": True}),
    ])
    def test_unusable_tol_is_bad_input(self, pipeline, capsys, args, block):
        config = pipeline["config"]
        if block is not None:
            config = write_config(pipeline["dir"] / "tol.json", validate=block)
        assert main(["validate", "--config", config, "--rom", pipeline["rom"], *args]) == 2
        assert "--tol or validate.tol must be positive and finite" in capsys.readouterr().err

    def test_integer_tol_is_reported_as_float(self, pipeline):
        config = write_config(pipeline["dir"] / "tol.json", validate={"tol": 1})
        out = pipeline["dir"] / "validate.json"
        assert main(["validate", "--config", config, "--rom", pipeline["rom"],
                     "--out", str(out)]) == 0
        assert '"tol": 1.0,' in out.read_text()

    def test_mixed_grid_rom_is_bad_input(self, pipeline):
        # one port row, then one provenance direction, moved to another grid
        for family in (lambda rom: rom["b_rows"],
                       lambda rom: rom["provenance"]["right_dirs"]):
            rom = json.loads(Path(pipeline["rom"]).read_text())
            order = family(rom)[1]["quad_order"] + 1
            family(rom)[1].update(quad_order=order, values=[[1.0, 0.0]] * order**2)
            bad = pipeline["dir"] / "rom_mixed.json"
            bad.write_text(json.dumps(rom))
            rc = main(["validate", "--config", pipeline["config"],
                       "--rom", str(bad), "--tol", "1e-8"])
            assert rc == 2

    @pytest.mark.parametrize("command", ["validate", "h2", "simulate"])
    def test_rom_for_another_model_is_bad_input(self, pipeline, capsys, command):
        # the config's observation patch is not the one the ROM was built on
        other = dict(MODEL_BLOCK, obs_patch={"x": [0.5, 0.7], "y": [0.6, 0.8]})
        config = write_config(pipeline["dir"] / "other.json", model=other)
        nodes = MODEL_BLOCK["quad_order"] ** 2
        signal = pipeline["dir"] / "u.csv"
        signal.write_text("\n".join(["time," + ",".join(["u"] * nodes)]
                                    + [f"{t}," + ",".join(["1.0"] * nodes) for t in (0, 0.1, 0.2)]))
        out = pipeline["dir"] / "out"
        extra = {"validate": ["--tol", "1e-8"], "h2": ["--out", str(out)],
                 "simulate": ["--input", str(signal), "--out", str(out)]}[command]
        assert main([command, "--config", config, "--rom", pipeline["rom"], *extra]) == 2
        assert "ports do not live on the config model's grids" in capsys.readouterr().err
        assert not out.exists()

    def test_directions_off_the_port_grids_are_bad_input(self, pipeline, capsys):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        for key in ("right_dirs", "left_dirs"):
            for direction in rom["provenance"][key]:
                order = direction["quad_order"] + 1
                direction.update(quad_order=order, values=[[1.0, 0.0]] * order**2)
        bad = pipeline["dir"] / "rom_moved.json"
        bad.write_text(json.dumps(rom))
        assert main(["validate", "--config", pipeline["config"], "--rom", str(bad)]) == 2
        assert "do not live on the port grids" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [4.7, "4"])
    def test_fractional_rom_order_is_bad_input(self, pipeline, capsys, r):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        rom["r"] = r
        bad = pipeline["dir"] / "rom_r.json"
        bad.write_text(json.dumps(rom))
        assert main(["validate", "--config", pipeline["config"], "--rom", str(bad)]) == 2
        assert "r must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("i", False, "hermites[0].i must be a nonnegative integer"),
        ("j", 0.0, "hermites[0].j must be a nonnegative integer"),
        ("coincidence_tol", "1e-10", "coincidence_tol must be positive and finite"),
        ("coincidence_tol", True, "coincidence_tol must be positive and finite"),
        pytest.param("coincidence_tol", 10 ** 400, "coincidence_tol must be positive and finite",
                     id="coincidence_tol-integer-beyond-float"),
        ("r", 4.0, "r must be a positive integer"),
    ])
    def test_lax_dataset_field_is_bad_input(self, pipeline, capsys, field, value, message):
        data = json.loads(Path(pipeline["data"]).read_text())
        (data["hermites"][0] if field in ("i", "j") else data)[field] = value
        bad = pipeline["dir"] / "lax.json"
        bad.write_text(json.dumps(data))
        rc = main(["reduce", "--config", pipeline["config"], "--data", str(bad),
                   "--out", str(pipeline["dir"] / "rom_lax.json")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        "duplicate_hermite", "hermite_out_of_range", "one_left_on_other_grid",
        "lefts_on_other_grid",
    ])
    def test_malformed_dataset_is_bad_input(self, pipeline, corrupt):
        data = json.loads(Path(pipeline["data"]).read_text())
        hermites, lefts = data["hermites"], data["lefts"]
        if corrupt == "duplicate_hermite":
            hermites.append(dict(hermites[0]))
        elif corrupt == "hermite_out_of_range":
            hermites.append({"i": 5, "j": 0, "value": [1.0, 0.0]})
        else:
            order = lefts[0]["q"]["quad_order"] + 1
            moved = lefts[:1] if corrupt == "one_left_on_other_grid" else lefts
            for left in moved:
                left["q"].update(quad_order=order, values=[[1.0, 0.0]] * order**2)
        bad = pipeline["dir"] / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["reduce", "--config", pipeline["config"], "--data", str(bad),
                   "--out", str(pipeline["dir"] / "rom_bad.json")])
        assert rc == 2

    def test_validate_block_must_be_an_object(self, pipeline, capsys):
        # read only when --tol is absent
        config = write_config(pipeline["dir"] / "v.json", validate=[])
        assert main(["validate", "--config", config, "--rom", pipeline["rom"]]) == 2
        assert "config block 'validate' must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, key", [("data", "rights"), ("rom", "E")])
    def test_artifact_without_a_field_is_bad_input(self, pipeline, capsys, artifact, key):
        obj = json.loads(Path(pipeline[artifact]).read_text())
        del obj[key]
        bad = pipeline["dir"] / "bad.json"
        bad.write_text(json.dumps(obj))
        out = pipeline["dir"] / "out.json"
        command = (["reduce", "--data", str(bad)] if artifact == "data"
                   else ["validate", "--rom", str(bad)])
        assert main([*command, "--config", pipeline["config"], "--out", str(out)]) == 2
        assert f"{bad}: missing or malformed field: '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_rom_file_is_bad_input(self, pipeline, capsys):
        missing = pipeline["dir"] / "nope.json"
        assert main(["validate", "--config", pipeline["config"], "--rom", str(missing)]) == 2
        assert f"{missing}: " in capsys.readouterr().err

    def test_validate_needs_tangential_provenance(self, pipeline):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        rom["provenance"] = {"kind": "projection"}
        bare = pipeline["dir"] / "rom_bare.json"
        bare.write_text(json.dumps(rom))
        rc = main(["validate", "--config", pipeline["config"],
                   "--rom", str(bare), "--tol", "1e-8"])
        assert rc == 2

    @pytest.mark.parametrize("provenance", [[1, 2], "ab", None, 5])
    def test_provenance_must_be_an_object(self, pipeline, capsys, provenance):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        rom["provenance"] = provenance
        bad = pipeline["dir"] / "rom_bad.json"
        bad.write_text(json.dumps(rom))
        out = pipeline["dir"] / "report.json"
        assert main(["validate", "--config", pipeline["config"], "--rom", str(bad),
                     "--out", str(out)]) == 2
        assert f"{bad}: provenance must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_provenance_reads_as_empty(self, pipeline):
        rom = json.loads(Path(pipeline["rom"]).read_text())
        del rom["provenance"]
        bare = pipeline["dir"] / "rom_bare.json"
        bare.write_text(json.dumps(rom))
        loaded = rom_mod.load(bare)
        assert loaded.provenance == {} and loaded.data is None


def test_reduce_writes_real_matrices_for_the_readme_config(tmp_path):
    # the README's one JSON block, which lists both members of each conjugate pair
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    data, rom = str(tmp_path / "data.json"), tmp_path / "rom.json"
    assert main(["sample", "--config", str(config), "--out", data]) == 0
    assert main(["reduce", "--config", str(config), "--data", data, "--out", str(rom)]) == 0
    obj = json.loads(rom.read_text())
    pairs = [pair for key in ("E", "A") for row in obj[key] for pair in row]
    pairs += [pair for key in ("b_rows", "c_cols") for f in obj[key] for pair in f["values"]]
    assert pairs and all(im == 0.0 for _, im in pairs)


class TestByteDeterminism:
    def test_repeated_runs_identical(self, tmp_path, config):
        def run_all(tag):
            data = tmp_path / f"data{tag}.json"
            rom = tmp_path / f"rom{tag}.json"
            h2 = tmp_path / f"h2{tag}.json"
            csv = tmp_path / f"h2{tag}.csv"
            assert main(["sample", "--config", config, "--out", str(data)]) == 0
            assert main(["reduce", "--config", config,
                         "--data", str(data), "--out", str(rom)]) == 0
            assert main(["h2", "--config", config, "--rom", str(rom),
                         "--out", str(h2), "--csv", str(csv)]) == 0
            return [p.read_bytes() for p in (data, rom, h2, csv)]

        assert run_all("a") == run_all("b")


class TestErrorExits:
    def test_missing_config_file(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sample", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_incomplete_model_block(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"n_modes": 4}}))
        assert main(["h2", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must be an object with a 'model' block"),
        ('{"model": 5}', "expected an object at model"),
    ])
    def test_config_shape_is_bad_input(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "x.json"
        assert main(["h2", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path_is_bad_input(self, tmp_path, capsys, flag):
        # a directory where the JSON report or the CSV table goes
        outputs = {"--out": str(tmp_path / "h2.json"), "--csv": str(tmp_path / "h2.csv")}
        outputs[flag] = str(tmp_path)
        cfg = write_config(tmp_path / "c.json")
        assert main(["h2", "--config", cfg, *(a for kv in outputs.items() for a in kv)]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["h2", "irka", "simulate"])
    def test_unwritable_output_leaves_no_new_file(self, pipeline, capsys, command):
        # the last output path is a directory: the command exits 2, and the
        # outputs it could write before that one are not left behind
        d = pipeline["dir"]
        n_nodes = MODEL_BLOCK["quad_order"] ** 2
        np.savetxt(d / "u.csv", np.column_stack([[0.0, 0.1, 0.2], np.zeros((3, n_nodes))]),
                   delimiter=",", header="time," + ",".join(f"u{k}" for k in range(n_nodes)),
                   comments="")
        base = ["--config", pipeline["config"]]
        argv = {
            "h2": ["h2", *base, "--rom", pipeline["rom"], "--out", str(d / "h2.json"), "--csv"],
            "irka": ["irka", *base, "--order", "2", "--init", "1,10", "--max-iter", "2",
                     "--rom-out", str(d / "irka_rom.json"), "--out", str(d / "irka.json"),
                     "--csv"],
            "simulate": ["simulate", *base, "--rom", pipeline["rom"], "--input", str(d / "u.csv"),
                         "--out", str(d / "y.csv"), "--full-out"],
        }[command]
        before = sorted(d.iterdir())
        assert main([*argv, str(d)]) == 2
        assert f"Is a directory: '{d}'" in capsys.readouterr().err
        assert sorted(d.iterdir()) == before

    @pytest.mark.parametrize("command, field, value", [
        ("sample", "sigmas", 5), ("sample", "rhos", 2.5), ("sample", "right_dirs", "mode:1,1"),
        ("sample", "left_dirs", {"mode": "1,1"}), ("irka", "init_points", 3.0),
        ("irka", "init_right_dirs", "random"), ("irka", "init_left_dirs", "random"),
    ])
    def test_non_array_field_is_bad_input(self, tmp_path, capsys, command, field, value):
        blocks = {"sample": dict(SAMPLE_BLOCK), "irka": {"order": 1, "init_points": [3.0]}}
        blocks[command][field] = value
        cfg = write_config(tmp_path / "c.json", **blocks)
        out = tmp_path / "x.json"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{command}.{field} must be a JSON array, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_block_required(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": MODEL_BLOCK}))
        assert main(["sample", "--config", str(cfg),
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("where, point", [
        ("sigmas", float("nan")), ("sigmas", [5.0, float("inf")]), ("rhos", float("-inf")),
    ])
    def test_non_finite_sample_point(self, tmp_path, capsys, where, point):
        points = list(SAMPLE_BLOCK[where])
        points[1] = point
        cfg = write_config(tmp_path / "c.json", sample=dict(SAMPLE_BLOCK, **{where: points}))
        out = tmp_path / "x.json"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        assert f"sample.{where}[1] must be a finite point" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("irka, args, field", [
        ({}, ["--init", "1,nan"], "--init"),
        ({"init_points": [1.0, float("nan")]}, [], "irka.init_points"),
    ])
    def test_non_finite_irka_point(self, tmp_path, capsys, irka, args, field):
        cfg = write_config(tmp_path / "c.json", irka=dict(irka, order=2))
        assert main(["irka", "--config", cfg, *args,
                     "--out", str(tmp_path / "x.json")]) == 2
        assert f"{field} must be a finite point" in capsys.readouterr().err

    def test_malformed_init_token_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", irka={"order": 2})
        out = tmp_path / "x.json"
        assert main(["irka", "--config", cfg, "--init", "1,abc", "--out", str(out)]) == 2
        assert "--init[1] must be a real or complex number, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_point_tol(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", irka={"order": 2, "point_tol": float("nan")})
        assert main(["irka", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert "point_tol must be positive and finite" in capsys.readouterr().err

    def test_point_tol_beyond_the_float_range(self, tmp_path, capsys):
        # an integer float() cannot convert is not a finite number either
        cfg = write_config(tmp_path / "c.json", irka={"order": 2, "point_tol": 10 ** 400})
        assert main(["irka", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert "irka.point_tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("point_tol", [True, "1e-3"])
    def test_non_numeric_point_tol(self, tmp_path, capsys, point_tol):
        cfg = write_config(tmp_path / "c.json", irka={"order": 2, "point_tol": point_tol})
        assert main(["irka", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert "irka.point_tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("close", [True, 1, "true", None])
    def test_conjugate_close_is_refused(self, tmp_path, capsys, close):
        cfg = write_config(tmp_path / "c.json", sample=dict(SAMPLE_BLOCK, conjugate_close=close))
        out = tmp_path / "x.json"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sample.conjugate_close" in err
        assert "list both members of each conjugate pair" in err
        assert not out.exists()

    def test_conjugate_close_false_adds_no_partners(self, tmp_path):
        # one complex point each side, no partner: false samples exactly the
        # data given, byte for byte as a block without the key does
        block = {"sigmas": [[5.0, 1.0]], "rhos": [[5.0, 1.0]],
                 "right_dirs": ["mode:1,1"], "left_dirs": ["mode:1,1"]}
        written = []
        for k, sample in enumerate((block, dict(block, conjugate_close=False))):
            cfg = write_config(tmp_path / "c.json", sample=sample)
            out = tmp_path / f"d{k}.json"
            assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["r"] == 1

    @pytest.mark.parametrize("bounds", [[False, 0.3], ["0.1", 0.3], [0.1, None]])
    def test_patch_bounds_must_be_numbers(self, tmp_path, capsys, bounds):
        model = dict(MODEL_BLOCK, con_patch={"x": bounds, "y": [0.1, 0.3]})
        cfg = write_config(tmp_path / "c.json", model=model)
        assert main(["h2", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert "bad patch spec at model.con_patch" in capsys.readouterr().err

    @pytest.mark.parametrize("model, field", [
        ({"n_modes": True}, "model.n_modes"), ({"n_modes": 6.0}, "model.n_modes"),
        ({"quad_order": True}, "model.quad_order"), ({"quad_order": 0}, "model.quad_order"),
    ])
    def test_bad_model_integer(self, tmp_path, capsys, model, field):
        cfg = write_config(tmp_path / "c.json", model=dict(MODEL_BLOCK, **model))
        assert main(["h2", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert f"{field} must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("irka, field", [
        ({"order": 2.5}, "irka.order"), ({"order": True}, "irka.order"),
        ({"order": 2, "max_iter": 2.5}, "irka.max_iter"),
        ({"order": 2, "max_iter": True}, "irka.max_iter"),
        ({"order": 2, "max_iter": -1}, "irka.max_iter"),
        ({"order": 2, "seed": 1.5}, "irka.seed"), ({"order": 2, "seed": -1}, "irka.seed"),
    ])
    def test_bad_irka_integer(self, tmp_path, capsys, irka, field):
        cfg = write_config(tmp_path / "c.json", irka=irka)
        assert main(["irka", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        assert f"{field} must be a" in capsys.readouterr().err

    def test_unknown_subcommand_usage_exit(self, config):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", config])
        assert exc.value.code == 2

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "opmor.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


def test_cli_import_needs_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, opmor.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestH2Command:
    def test_norm_only_report(self, tmp_path, config):
        out = tmp_path / "h2.json"
        assert main(["h2", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["h2_error"] is None
        assert report["residuals"] == []
        assert report["norm_closed"] == pytest.approx(
            report["norm_quadrature"], rel=1e-6)

    def test_with_rom_fills_error_and_csv(self, pipeline):
        out = pipeline["dir"] / "h2.json"
        csv = pipeline["dir"] / "h2.csv"
        rc = main(["h2", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["h2_error"] >= 0
        assert len(report["residuals"]) == 4
        lines = csv.read_text().splitlines()
        assert lines[0] == "omega,hs_full,hs_rom"
        omegas = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert omegas == sorted(omegas)
        assert len(omegas) == 256


# runs argv[1:] as a child and prints its exit code and peak RSS in KiB; the
# extra process keeps the children of the test session out of the figure
PEAK_RSS = ("import resource, subprocess, sys; "
            "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


@pytest.mark.parametrize("command", [["h2"], ["irka", "--order", "2", "--init", "1,10"]],
                         ids=["h2", "irka"])
def test_n_modes_100_runs_in_300_mb(tmp_path, command):
    # K = 10,000 modes: one K x K array would be 800 MB, the model's tables
    # and the IRKA sweep need a few tens
    # without quad_order the model takes the default order, which resolves 100 modes
    model = {k: v for k, v in MODEL_BLOCK.items() if k != "quad_order"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": dict(model, n_modes=100)}))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "opmor.cli", *command,
         "--config", str(cfg), "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak_kib < 300 * 1024


class TestIrkaCommand:
    def test_converged_run_writes_everything(self, tmp_path, config):
        out = tmp_path / "irka.json"
        csv = tmp_path / "irka.csv"
        rom_out = tmp_path / "irka_rom.json"
        rc = main(["irka", "--config", config, "--order", "2", "--init", "1,10",
                   "--out", str(out), "--csv", str(csv), "--rom-out", str(rom_out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert report["final"]["max_residual"] < 1e-6
        lines = csv.read_text().splitlines()
        assert lines[0] == "iteration,movement,residual,h2_error"
        assert len(lines) == report["iterations"] + 1
        rom = json.loads(rom_out.read_text())
        assert rom["r"] == 2

    @pytest.mark.parametrize("max_iter", ["50", "3"])
    def test_final_is_read_from_the_histories(self, tmp_path, config, max_iter):
        out = tmp_path / "irka.json"
        main(["irka", "--config", config, "--order", "2", "--init", "1,10",
              "--max-iter", max_iter, "--out", str(out)])
        report = json.loads(out.read_text())
        best = report["best_iteration"] - 1
        assert report["final"]["h2_error"] == report["h2_error_history"][best]
        assert report["final"]["max_residual"] == report["residual_history"][best]
        assert len(report["final"]["poles"]) == 2

    def test_nonconvergence_exits_1(self, tmp_path, config):
        out = tmp_path / "irka.json"
        rc = main(["irka", "--config", config, "--order", "2", "--init", "1,10",
                   "--max-iter", "2", "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert report["iterations"] == 2

    def test_saved_model_records_its_dataset_hash(self, tmp_path, config):
        # the hash is of the returned iterate's dataset: sampling the full
        # model again at the saved tangential data reproduces it
        rom_out = tmp_path / "irka_rom.json"
        main(["irka", "--config", config, "--order", "2", "--init", "1,10",
              "--out", str(tmp_path / "irka.json"), "--rom-out", str(rom_out)])
        rom = rom_mod.load(rom_out)
        ds = samples.collect(build_model(MODEL_BLOCK), *rom.data)
        assert rom.provenance["dataset_sha256"] == dataset_hash(ds)

    def test_order_required(self, tmp_path, config):
        rc = main(["irka", "--config", config, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_seed_changes_random_directions(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            irka={"order": 1, "init_points": [3.0], "max_iter": 1,
                  "init_right_dirs": ["random"], "init_left_dirs": ["random"]},
        )
        outs = []
        for seed in ("0", "0", "1"):
            out = tmp_path / f"irka{seed}{len(outs)}.json"
            main(["irka", "--config", cfg, "--seed", seed, "--out", str(out)])
            outs.append(json.loads(out.read_text())["point_history"])
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestSimulateCommand:
    def write_input(self, path, n_nodes, n_steps=40, dt=0.05, t0=0.0):
        rng = np.random.default_rng(11)
        t = t0 + np.arange(n_steps + 1) * dt
        u = np.sin(np.pi * (t - t0))[:, None] * rng.standard_normal(n_nodes)[None, :]
        rows = np.hstack([t[:, None], u])
        header = "time," + ",".join(f"u{k}" for k in range(n_nodes))
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")
        return t

    def test_round_trip_shapes(self, pipeline):
        n_nodes = MODEL_BLOCK["quad_order"] ** 2
        inp = pipeline["dir"] / "input.csv"
        t = self.write_input(inp, n_nodes)
        out = pipeline["dir"] / "y_rom.csv"
        full = pipeline["dir"] / "y_full.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out), "--full-out", str(full)])
        assert rc == 0
        got = np.genfromtxt(out, delimiter=",", skip_header=1)
        ref = np.genfromtxt(full, delimiter=",", skip_header=1)
        assert got.shape == ref.shape == (t.size, n_nodes + 1)
        assert np.allclose(got[0, 1:], 0) and np.allclose(ref[0, 1:], 0)
        np.testing.assert_allclose(got[:, 0], t, atol=1e-12)
        # interpolatory ROM of the dominant dynamics tracks the full response
        scale = np.max(np.abs(ref[:, 1:]))
        assert np.max(np.abs(got[:, 1:] - ref[:, 1:])) < 0.2 * scale

    def test_nonuniform_time_rejected(self, pipeline):
        n_nodes = MODEL_BLOCK["quad_order"] ** 2
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, n_nodes)
        lines = inp.read_text().splitlines()
        cols = lines[3].split(",")
        cols[0] = "0.123"
        lines[3] = ",".join(cols)
        inp.write_text("\n".join(lines) + "\n")
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(pipeline["dir"] / "y.csv")])
        assert rc == 2

    def test_wrong_column_count_rejected(self, pipeline):
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, 3)
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(pipeline["dir"] / "y.csv")])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read input signal"),
        ("time,u0\n0,1\n", "need a header and at least two time rows"),
        ("time,u0\n0,1\n0.1,warm\n", "non-numeric entry"),
    ], ids=["missing", "one-row", "non-numeric"])
    def test_unusable_signal_file_is_bad_input(self, pipeline, capsys, text, message):
        inp = pipeline["dir"] / "input.csv"
        if text is not None:
            inp.write_text(text)
        out = pipeline["dir"] / "y.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(inp) in err and message in err
        assert not out.exists()

    def test_ragged_signal_row_names_file_and_row(self, pipeline, capsys):
        n_nodes = MODEL_BLOCK["quad_order"] ** 2
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, n_nodes)
        lines = inp.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]  # time row 3, one column short
        inp.write_text("\n".join(lines) + "\n")
        out = pipeline["dir"] / "y.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out)])
        assert rc == 2
        assert (f"{inp}: time row 3 has {n_nodes} columns, expected time plus {n_nodes} "
                "node columns") in capsys.readouterr().err
        assert not out.exists()

    def test_unpaired_complex_points_refuse_a_real_csv(self, tmp_path, capsys):
        # without conjugate partners the pencil stays complex, and so does
        # the simulated output: a computed check fails, exit 1
        block = dict(SAMPLE_BLOCK, sigmas=[1.0, [5.0, 1.0]], rhos=[2.0, [6.0, 1.0]],
                     right_dirs=SAMPLE_BLOCK["right_dirs"][:2],
                     left_dirs=SAMPLE_BLOCK["left_dirs"][:2])
        config = write_config(tmp_path / "c.json", sample=block)
        data, rom = str(tmp_path / "data.json"), str(tmp_path / "rom.json")
        assert main(["sample", "--config", config, "--out", data]) == 0
        assert main(["reduce", "--config", config, "--data", data, "--out", rom]) == 0
        inp, out = tmp_path / "input.csv", tmp_path / "y.csv"
        self.write_input(inp, MODEL_BLOCK["quad_order"] ** 2)
        rc = main(["simulate", "--config", config, "--rom", rom,
                   "--input", str(inp), "--out", str(out)])
        assert rc == 1
        assert "refusing to write a real-valued CSV" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["inf", "1e400", "nan", "-0.5", "0"])
    def test_unusable_horizon_is_bad_input(self, pipeline, capsys, horizon):
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, MODEL_BLOCK["quad_order"] ** 2)
        out = pipeline["dir"] / "y.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out), "--T", horizon])
        assert rc == 2
        assert "--T must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon, message", [
        ("0.125", "horizon 0.125 is not a positive multiple of dt=0.05"),
        ("3.0", "need 61 input samples for T=3.0, dt=0.05, got 41"),
    ], ids=["off-grid", "beyond-series"])
    def test_horizon_off_the_series_is_bad_input(self, pipeline, capsys, horizon, message):
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, MODEL_BLOCK["quad_order"] ** 2)
        out = pipeline["dir"] / "y.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out), "--T", horizon])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_series_may_start_after_zero(self, pipeline):
        # the default horizon is the whole series, wherever it starts: a time
        # column shifted by 1.0 keeps its own times and the unshifted outputs,
        # bit for bit (t0 = 1.0 and dt = 2^-5 are exact in binary)
        n_nodes = MODEL_BLOCK["quad_order"] ** 2
        rows = {}
        for t0 in (0.0, 1.0):
            inp, out = pipeline["dir"] / f"u{t0}.csv", pipeline["dir"] / f"y{t0}.csv"
            t = self.write_input(inp, n_nodes, dt=2.0 ** -5, t0=t0)
            assert main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                         "--input", str(inp), "--out", str(out)]) == 0
            got = np.genfromtxt(out, delimiter=",", skip_header=1)
            assert np.array_equal(got[:, 0], t)
            rows[t0] = got[:, 1:]
        assert rows[0.0].shape == (41, n_nodes)
        assert np.array_equal(rows[1.0], rows[0.0])

    def test_horizon_keeps_the_first_rows(self, pipeline):
        # --T simulates a prefix of the series, so its rows are the first
        # rows of the whole run's
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, MODEL_BLOCK["quad_order"] ** 2)
        whole, part = pipeline["dir"] / "y.csv", pipeline["dir"] / "y_part.csv"
        base = ["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                "--input", str(inp)]
        assert main([*base, "--out", str(whole)]) == 0
        assert main([*base, "--out", str(part), "--T", "1.0"]) == 0
        lines = part.read_text().splitlines()
        assert len(lines) == 22 and lines == whole.read_text().splitlines()[:22]

    @pytest.mark.parametrize("row, col, token", [(3, 0, "nan"), (5, 7, "nan"),
                                                 (2, 4, "-inf"), (4, 1, "1e400")])
    def test_non_finite_signal_is_bad_input(self, pipeline, capsys, row, col, token):
        inp = pipeline["dir"] / "input.csv"
        self.write_input(inp, MODEL_BLOCK["quad_order"] ** 2)
        lines = inp.read_text().splitlines()
        cols = lines[row + 1].split(",")
        cols[col] = token
        lines[row + 1] = ",".join(cols)
        inp.write_text("\n".join(lines) + "\n")
        out = pipeline["dir"] / "y.csv"
        rc = main(["simulate", "--config", pipeline["config"], "--rom", pipeline["rom"],
                   "--input", str(inp), "--out", str(out)])
        assert rc == 2
        assert f"column {col} of time row {row} must be finite" in capsys.readouterr().err
        assert not out.exists()


def write_corrupted(src, dst, path, token):
    """Copy the JSON file src to dst with the entry at the key path
    replaced by the raw JSON text token (such as NaN or 1e400)."""
    obj = json.loads(Path(src).read_text())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@BAD@"
    dst.write_text(json.dumps(obj).replace('"@BAD@"', token))
    return str(dst)


class TestNonFiniteArtifacts:
    """NaN and numbers beyond the float range in data.json and rom.json are
    unusable input, caught where the file is read, named by field."""

    @pytest.mark.parametrize("path, where", [
        (("rights", 1, "sigma", 0), "rights[1].sigma"),
        (("lefts", 2, "value", "values", 5, 1), "lefts[2].value.values[5]"),
        (("hermites", 0, "value", 0), "hermites[0].value"),
    ])
    @pytest.mark.parametrize("token", ["NaN", "1e400", "-Infinity"])
    def test_dataset(self, pipeline, capsys, path, where, token):
        bad = write_corrupted(pipeline["data"], pipeline["dir"] / "bad.json", path, token)
        out = pipeline["dir"] / "rom_bad.json"
        rc = main(["reduce", "--config", pipeline["config"], "--data", bad, "--out", str(out)])
        assert rc == 2
        assert f"{where} must be a finite point" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_the_float_range(self, pipeline, capsys):
        bad = write_corrupted(pipeline["data"], pipeline["dir"] / "bad.json",
                              ("hermites", 0, "value", 1), "1" + "0" * 400)
        rc = main(["reduce", "--config", pipeline["config"], "--data", bad,
                   "--out", str(pipeline["dir"] / "rom_bad.json")])
        assert rc == 2
        assert "hermites[0].value holds an integer too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("path, where", [
        (("E", 0, 1, 0), "E[0][1]"),
        (("b_rows", 1, "values", 2, 0), "b_rows[1].values[2]"),
        (("provenance", "sigmas", 1, 1), "provenance.sigmas[1]"),
    ])
    @pytest.mark.parametrize("token", ["NaN", "1e400"])
    @pytest.mark.parametrize("command", ["validate", "h2", "simulate"])
    def test_reduced_model(self, pipeline, capsys, path, where, token, command):
        bad = write_corrupted(pipeline["rom"], pipeline["dir"] / "bad.json", path, token)
        signal = pipeline["dir"] / "u.csv"
        TestSimulateCommand().write_input(signal, MODEL_BLOCK["quad_order"] ** 2)
        out = pipeline["dir"] / "out"
        extra = {"validate": ["--out", str(out)], "h2": ["--out", str(out)],
                 "simulate": ["--input", str(signal), "--out", str(out)]}[command]
        assert main([command, "--config", pipeline["config"], "--rom", bad, *extra]) == 2
        assert f"{where} must be a finite point" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["false", '"0.1"', "null"])
    def test_patch_bound_in_reduced_model(self, pipeline, capsys, bound):
        bad = write_corrupted(pipeline["rom"], pipeline["dir"] / "bad.json",
                              ("b_rows", 0, "patch", "x", 0), bound)
        assert main(["validate", "--config", pipeline["config"], "--rom", bad]) == 2
        assert "bad patch spec at b_rows[0].patch" in capsys.readouterr().err

