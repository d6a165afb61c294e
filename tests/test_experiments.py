import json
import logging
import os
import struct

import numpy as np
import pytest

from camfed import cli, experiments
from camfed.cli import main as cli_main
from camfed.experiments import (ClientSpec, ExperimentConfig, build_engine,
                                preset, run_experiment, sweep)
from camfed.model import ModelConfig


def tiny_config(**changes):
    base = dict(
        name="tiny", scheme="fedcap", rounds=3, warmup_rounds=1,
        lr_u=1e-2, lr_v=1e-2, batch_size=4, seed=5,
        clients=[ClientSpec(rig="car", n_points=6),
                 ClientSpec(rig="bus", n_points=5)],
        model=ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2,
                          encoder_hidden=8, decoder_hidden=8,
                          n_azimuth_bins=12, n_elevation_bins=2))
    base.update(changes)
    return ExperimentConfig(**base)


class TestPresets:
    def test_uc1_sizes_and_ratio(self):
        cfg = preset("uc1")
        sizes = [c.n_points for c in cfg.clients]
        assert sizes == [69, 72, 319]
        ratio = np.array(sizes) / sum(sizes)
        np.testing.assert_allclose(ratio, [0.151, 0.157, 0.692], atol=5e-3)

    def test_uc2_sizes(self):
        sizes = [c.n_points for c in preset("uc2").clients]
        assert sizes == [69, 72, 107, 69]

    def test_uc3_composition(self):
        cfg = preset("uc3")
        assert len(cfg.clients) == 24
        assert cfg.rounds == 100
        rigs = [c.rig for c in cfg.clients]
        assert rigs.count("bus") == 3
        assert rigs.count("truck") == 4
        assert rigs.count("car") == 17

    def test_uc4_camera_subsets(self):
        cfg = preset("uc4")
        assert [c.cameras for c in cfg.clients] == [[1], [1, 2, 3],
                                                    [1, 2, 3, 4]]
        assert [c.n_points for c in cfg.clients] == [58, 95, 78]

    def test_uc5_straggler_study_shape(self):
        cfg = preset("uc5")
        assert len(cfg.clients) == 58
        assert cfg.scheme == "fedavg"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("uc9")

    def test_roundtrip_serialization(self, tmp_path):
        for name in ("uc1", "uc2", "uc3", "uc4", "uc5"):
            cfg = preset(name)
            path = tmp_path / f"{name}.json"
            cfg.save_json(path)
            again = ExperimentConfig.from_json(path)
            assert again.to_dict() == cfg.to_dict()

    def test_scale_parameter(self):
        sizes = [c.n_points for c in preset("uc1", scale=40.0).clients]
        assert sizes == [35, 36, 159]


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"clients": [{"rig": "car",
                                                     "n_points": 4}],
                                        "bogus": 1})

    def test_unknown_client_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown client keys"):
            ExperimentConfig.from_dict(
                {"clients": [{"rig": "car", "n_points": 4, "oops": 2}]})

    def test_straggler_mode_key_rejected(self):
        doc = tiny_config().to_dict()
        doc["straggler_mode"] = "iid"
        with pytest.raises(ValueError, match="straggler_mode"):
            ExperimentConfig.from_dict(doc)

    def test_n_attn_layers_model_key_rejected(self):
        doc = tiny_config().to_dict()
        doc["model"]["n_attn_layers"] = 1
        with pytest.raises(ValueError, match="unknown model keys"):
            ExperimentConfig.from_dict(doc)

    def test_empty_clients_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"clients": []})

    def test_sweep_values_parse_as_the_axis_type(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        tiny_config(rounds=1).save_json(cfg_path)
        out = tmp_path / "sw"
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis",
                         "topk_retention", "--values", "1e-1,1",
                         "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.1", "1.0"]
        assert (out / "topk_retention_0.1" / "rounds.csv").exists()
        capsys.readouterr()
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis",
                         "select_m", "--values", "1,1.5",
                         "--out", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: select_m takes whole numbers, got '1.5'\n")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("field, value", [
        ("rounds", 0), ("warmup_rounds", -1), ("batch_size", 0),
        ("select_m", 3), ("select_m", 0), ("optimizer", "lbfgs"),
        ("scheme", "bogus"), ("topk_retention", 1.5),
        ("topk_retention", -0.2), ("topk_retention", 0.0),
        ("topk_retention", float("nan")), ("straggler_ratio", 7.5),
        ("straggler_ratio", 1.0), ("straggler_ratio", -0.1),
        ("straggler_ratio", float("nan")), ("lr_u", float("nan")),
        ("lr_u", -1.0), ("lr_v", float("inf")), ("lr_v", -1e-3),
        ("bits_budget", -5), ("bits_budget", 0), ("checkpoint_every", 0),
        ("clients", [])])
    def test_out_of_range_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(rounds="3"), "rounds must be an int, got '3'"),
        (lambda d: d.update(batch_size=True), "batch_size must be an int"),
        (lambda d: d.update(select_m=2.0), "select_m must be an int or null"),
        (lambda d: d.update(lr_u="0.01"), "lr_u must be a real number"),
        (lambda d: d.update(straggler_ratio=None),
         "straggler_ratio must be a real number"),
        (lambda d: d.update(amcm=1), "amcm must be true or false"),
        (lambda d: d.update(scheme=3), "scheme must be a string"),
        (lambda d: d["clients"][1].update(n_points="5"),
         "client 1: n_points must be an int"),
        (lambda d: d["clients"][0].update(cameras=1),
         "client 0: cameras must be a list or null"),
        (lambda d: d["clients"][0].update(cameras=[1.0]),
         "client 0: cameras must be a list of ints"),
        (lambda d: d["clients"][0].update(cameras=[5]),
         "client 0: camera_ids must be a non-empty subset of 1..4"),
        (lambda d: d["clients"][1].update(rig="suv"),
         "client 1: unknown rig preset 'suv'"),
        (lambda d: d["model"].update(n_heads="2"), "n_heads must be an int"),
        (lambda d: d["model"].update(bev_grid=8),
         "bev_grid must be a pair of ints, got 8"),
        (lambda d: d["model"].update(bev_grid=[8, 8, 8]),
         "bev_grid must be a pair of ints"),
        (lambda d: d["model"].update(world_extent="16"),
         "world_extent must be a real number"),
        (lambda d: d.update(model=[16]), "model must be an object, got [16]"),
        (lambda d: d["clients"].__setitem__(1, "car"),
         "client 1 must be an object, got 'car'"),
    ])
    def test_wrong_json_type_names_the_key(self, edit, message):
        doc = json.loads(json.dumps(tiny_config().to_dict()))
        edit(doc)
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(doc)
        assert message in str(err.value)

    def test_config_must_be_an_object(self):
        with pytest.raises(ValueError, match="config must be an object"):
            ExperimentConfig.from_dict([tiny_config().to_dict()])

    def test_wrong_type_set_after_construction_fails_before_any_dataset(
            self, monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "build_client_dataset",
                            lambda *a, **k: built.append(a))
        cfg = tiny_config()
        cfg.topk_retention = "0.5"
        with pytest.raises(ValueError, match="topk_retention must be a real"):
            build_engine(cfg)
        assert built == []

    def test_real_numbers_accept_ints(self):
        cfg = tiny_config(lr_u=1, topk_retention=1, straggler_ratio=0)
        assert cfg.lr_u == 1 and ModelConfig(world_extent=16).world_extent == 16

    def test_bounds_accepted(self):
        cfg = tiny_config(rounds=1, warmup_rounds=0, batch_size=1)
        assert (cfg.rounds, cfg.warmup_rounds, cfg.batch_size) == (1, 0, 1)
        for m in (1, 2):
            assert tiny_config(select_m=m).select_m == m
        for field, values in (("topk_retention", (1.0, 1e-3)),
                              ("straggler_ratio", (0.0, 0.99)),
                              ("lr_u", (0.0,)), ("lr_v", (0.0,)),
                              ("bits_budget", (1, None)),
                              ("checkpoint_every", (1, None)),
                              ("optimizer", ("adamw", "sgd")),
                              ("scheme", ("fedavg", "fedrep", "fedtp"))):
            for value in values:
                assert getattr(tiny_config(**{field: value}), field) == value
        spec = ClientSpec(rig="car", n_points=2, local_epochs=1)
        assert tiny_config(clients=[spec]).clients == [spec]

    @pytest.mark.parametrize("retention", [1.5, -0.2])
    def test_bad_retention_fails_before_any_dataset(self, retention,
                                                    monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "build_client_dataset",
                            lambda *a, **k: built.append(a))
        with pytest.raises(ValueError, match="topk_retention"):
            build_engine(tiny_config(topk_retention=retention))
        assert built == []

    @pytest.mark.parametrize("key, value", [("local_epochs", 0),
                                            ("n_points", 1)])
    def test_client_sizes_rejected(self, key, value):
        spec = ClientSpec(rig="car", n_points=6)
        setattr(spec, key, value)
        with pytest.raises(ValueError, match=key):
            tiny_config(clients=[spec])

    @pytest.mark.parametrize("key, value", [
        ("rounds", 0), ("warmup_rounds", -1), ("batch_size", 0),
        ("select_m", 3), ("select_m", 0), ("local_epochs", 0),
        ("n_points", 1), ("optimizer", "lbfgs"), ("scheme", "bogus"),
        ("topk_retention", 1.5), ("straggler_ratio", 7.5),
        ("lr_u", float("nan")), ("lr_v", -1.0), ("bits_budget", -5),
        ("checkpoint_every", 0), ("clients", []), ("rig", "bogus")])
    def test_field_set_after_construction_fails_before_any_dataset(
            self, key, value, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "build_client_dataset",
                            lambda *a, **k: built.append(a))
        cfg = tiny_config()
        on_client = key in ("local_epochs", "n_points", "rig")
        setattr(cfg.clients[0] if on_client else cfg, key, value)
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=key):
            run_experiment(cfg, out)
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            experiments.scaled(100, scale)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        engine, report = run_experiment(tiny_config(), out)
        for name in ("config.json", "rounds.csv", "report.json",
                     "cross_eval.csv", "checkpoint.bin"):
            assert (out / name).exists(), name
        assert report["rounds_completed"] == 3
        assert len(report["clients"]) == 2

    def test_csv_schema(self, tmp_path):
        run_experiment(tiny_config(), tmp_path / "run")
        lines = (tmp_path / "run" / "rounds.csv").read_text().strip().split("\n")
        assert lines[0] == ("round,client_id,selected,straggler,train_loss,"
                            "val_iou,bits_up,bits_down,cum_bits")
        assert len(lines) == 1 + 3 * 2   # header + rounds x clients

    def test_byte_identical_reruns(self, tmp_path):
        run_experiment(tiny_config(), tmp_path / "a")
        run_experiment(tiny_config(), tmp_path / "b")
        for name in ("rounds.csv", "report.json", "cross_eval.csv",
                     "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_parallel_workers_identical_output(self, tmp_path):
        run_experiment(tiny_config(), tmp_path / "a", workers=1)
        run_experiment(tiny_config(), tmp_path / "b", workers=2)
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == \
            (tmp_path / "b" / "rounds.csv").read_bytes()

    @pytest.mark.parametrize("workers", [0, -4])
    @pytest.mark.parametrize("entry", ["run", "sweep"])
    def test_workers_below_one_fail_before_any_dataset(self, entry, workers,
                                                       tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "build_client_dataset",
                            lambda *a, **k: built.append(a))
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="workers must be >= 1"):
            if entry == "run":
                run_experiment(tiny_config(), out, workers=workers)
            else:
                sweep(tiny_config(), "select_m", [1], out, workers=workers)
        assert built == [] and not out.exists()

    def test_schemes_share_schema(self, tmp_path):
        _, rep_a = run_experiment(tiny_config(scheme="fedavg"),
                                  tmp_path / "a")
        _, rep_b = run_experiment(tiny_config(scheme="fedcap"),
                                  tmp_path / "b")
        assert set(rep_a) == set(rep_b)
        assert {k for c in rep_a["clients"] for k in c} == \
            {k for c in rep_b["clients"] for k in c}

    def test_bits_budget_stops_early(self, tmp_path):
        cfg = tiny_config(rounds=10, bits_budget=1)
        engine, report = run_experiment(cfg, tmp_path / "run")
        assert report["rounds_completed"] == 1

    def test_amcm_off_gives_all_ones_masks(self):
        # a front-camera-only car masks cells off unless AMCM is disabled
        clients = [ClientSpec(rig="car", n_points=6, cameras=[1]),
                   ClientSpec(rig="bus", n_points=5)]
        on = build_engine(tiny_config(clients=clients))
        assert (on.clients[0].mask == 0).any()
        engine = build_engine(tiny_config(clients=clients, amcm=False))
        for c in engine.clients:
            assert np.array_equal(c.mask,
                                  np.ones(engine.config.model.bev_grid))
        records = engine.run_round()
        assert [r.selected for r in records] == [True, True]
        assert all(np.isfinite(r.train_loss) for r in records)
        assert all(0.0 <= r.val_iou <= 1.0 for r in records)

    def test_config_echo_parses_back(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path / "run")
        again = ExperimentConfig.from_json(tmp_path / "run" / "config.json")
        assert again.to_dict() == cfg.to_dict()

    def test_interval_checkpoints(self, tmp_path):
        from camfed.model import load_checkpoint
        cfg = tiny_config(rounds=4, checkpoint_every=2)
        run_experiment(cfg, tmp_path / "run")
        mid = tmp_path / "run" / "checkpoint_round_2.bin"
        assert mid.exists()
        _, _, extras, meta = load_checkpoint(mid)
        assert meta["round"] == 2
        assert "private:0" in extras and "private:1" in extras
        # the final round is only in checkpoint.bin, not duplicated
        assert not (tmp_path / "run" / "checkpoint_round_4.bin").exists()


class TestSweep:
    def test_epoch_sweep_rows(self, tmp_path):
        rows = sweep(tiny_config(rounds=2), "local_epochs", [1, 2],
                     tmp_path / "sw")
        assert len(rows) == 2
        assert (tmp_path / "sw" / "sweep.csv").exists()
        # derived seeds differ per value
        assert rows[0][1] != rows[1][1]

    def test_epoch_sweep_under_fixed_bit_budget(self, tmp_path):
        # more local epochs stretch a fixed communication volume over the
        # same per-round traffic, so rounds completed stays equal while
        # training depth differs; each row reports IoU and rounds completed
        cfg = tiny_config(rounds=10, bits_budget=400_000)
        rows = sweep(cfg, "local_epochs", [1, 2, 4], tmp_path / "sw")
        assert len(rows) == 3
        for value, seed, rounds_completed, mean_iou, bits in rows:
            assert rounds_completed < 10      # budget bites first
            assert np.isfinite(mean_iou)
            assert bits >= 400_000

    def test_straggler_sweep(self, tmp_path):
        rows = sweep(tiny_config(rounds=2), "straggler_ratio", [0.0, 0.5],
                     tmp_path / "sw")
        assert len(rows) == 2

    def test_single_value_equivalent_to_run(self, tmp_path):
        rows = sweep(tiny_config(rounds=2), "topk_retention", [1.0],
                     tmp_path / "sw")
        assert len(rows) == 1
        assert (tmp_path / "sw" / "topk_retention_1.0" / "rounds.csv").exists()

    @pytest.mark.parametrize("axis, values", [
        ("select_m", [1, 5]), ("topk_retention", [1.0, 1.5]),
        ("straggler_ratio", [0.0, 1.0]), ("select_m", [1, 1.9]),
        ("local_epochs", [1, 1.9])])
    def test_bad_later_value_fails_before_any_run(self, axis, values,
                                                  tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(ValueError, match=axis):
            sweep(tiny_config(rounds=2), axis, values, out)
        assert not out.exists()

    def test_bad_axis(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(tiny_config(), "lr_u", [1], tmp_path / "sw")

    def test_empty_values(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(tiny_config(), "local_epochs", [], tmp_path / "sw")


class TestDeskBudget:
    def test_uc1_30_rounds_under_two_minutes(self, tmp_path):
        import time
        cfg = preset("uc1")
        cfg.rounds = 30
        cfg.seed = 11
        t0 = time.time()
        run_experiment(cfg, tmp_path / "run")
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"uc1 at 30 rounds took {elapsed:.0f}s"


class TestCli:
    def test_preset_emit_and_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        assert cli_main(["preset", "uc1", "--emit", str(cfg_path),
                         "--scale", "200"]) == 0
        assert cfg_path.exists()
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        assert (out / "rounds.csv").exists()
        text = capsys.readouterr().out
        assert "completed" in text

    def test_cross_eval_from_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tiny_config()
        run_experiment(cfg, out)
        code = cli_main(["cross-eval", "--checkpoint",
                         str(out / "checkpoint.bin"),
                         "--out", str(tmp_path / "xe")])
        assert code == 0
        assert (tmp_path / "xe" / "cross_eval.csv").exists()

    def test_cross_eval_matches_run_artifact(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(), out)
        cli_main(["cross-eval", "--checkpoint", str(out / "checkpoint.bin"),
                  "--out", str(tmp_path / "xe")])
        assert (tmp_path / "xe" / "cross_eval.csv").read_bytes() == \
            (out / "cross_eval.csv").read_bytes()

    def test_cross_eval_missing_private_slice_fails(self, tmp_path, capsys):
        from camfed.model import load_checkpoint, save_checkpoint
        out = tmp_path / "run"
        run_experiment(tiny_config(), out)
        store, config, extras, meta = load_checkpoint(out / "checkpoint.bin")
        del extras["private:1"]
        save_checkpoint(tmp_path / "partial.bin", store, config,
                        extra_arrays=extras, meta=meta)
        code = cli_main(["cross-eval", "--checkpoint",
                         str(tmp_path / "partial.bin"),
                         "--out", str(tmp_path / "xe")])
        assert code == 1
        assert "private:1" in capsys.readouterr().err
        assert not (tmp_path / "xe" / "cross_eval.csv").exists()

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        tiny_config(rounds=2).save_json(cfg_path)
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis",
                         "straggler_ratio", "--values", "0.0,0.5",
                         "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_sweep_values_parse_as_the_axis_type(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        tiny_config(rounds=1).save_json(cfg_path)
        out = tmp_path / "sw"
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis",
                         "topk_retention", "--values", "1e-1,1",
                         "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.1", "1.0"]
        assert (out / "topk_retention_0.1" / "rounds.csv").exists()
        capsys.readouterr()
        code = cli_main(["sweep", "--config", str(cfg_path), "--axis",
                         "select_m", "--values", "1,1.5",
                         "--out", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: select_m takes whole numbers, got '1.5'\n")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("field, value", [
        ("rounds", 0), ("warmup_rounds", -1), ("batch_size", 0),
        ("topk_retention", 1.5), ("topk_retention", -0.2),
        ("select_m", 3), ("select_m", 0), ("optimizer", "lbfgs"),
        ("scheme", "bogus"), ("straggler_ratio", 7.5),
        ("lr_u", float("nan")), ("lr_u", -1.0), ("lr_v", float("inf")),
        ("bits_budget", -5), ("checkpoint_every", 0),
        ("model", tiny_config().model.to_dict() | {"n_view_channels": 3}),
        ("model", tiny_config().model.to_dict() | {"max_cameras": 2})])
    def test_out_of_range_setting_exits_1_without_artifacts(
            self, field, value, tmp_path, capsys):
        doc = tiny_config().to_dict() | {field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("local_epochs", 0),
                                            ("n_points", 1)])
    def test_client_sizes_exit_1_without_artifacts(
            self, key, value, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "build_client_dataset",
                            lambda *a, **k: built.append(a))
        doc = tiny_config().to_dict()
        doc["clients"][0][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize("command", ["run", "sweep", "preset"])
    def test_bad_scale_exits_1_without_traceback(self, command, scale,
                                                 tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        tiny_config().save_json(cfg_path)
        out = tmp_path / "o"
        argv = {"run": ["run", "--config", str(cfg_path), "--out", str(out)],
                "sweep": ["sweep", "--config", str(cfg_path), "--axis",
                          "select_m", "--values", "1", "--out", str(out)],
                "preset": ["preset", "uc1"]}[command]
        code = cli_main(argv + ["--scale", scale])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scale must be finite and > 0")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_workers_below_one_exit_1_without_artifacts(self, command, workers,
                                                         tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        tiny_config().save_json(cfg_path)
        out = tmp_path / "o"
        argv = {"run": ["run"],
                "sweep": ["sweep", "--axis", "select_m", "--values", "1"]}
        code = cli_main(argv[command] + ["--config", str(cfg_path), "--out",
                                         str(out), "--workers", workers])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: workers must be >= 1, got {workers}\n")
        assert not out.exists()

    def test_bad_log_level_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("CAMFED_LOG_LEVEL", "bogus")
        assert cli_main(["preset", "uc1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown CAMFED_LOG_LEVEL 'bogus'\n"
        assert captured.out == ""

    def test_log_level_without_level_names_mapping(self, capsys,
                                                   monkeypatch):
        # logging.getLevelNamesMapping first appears in Python 3.11
        monkeypatch.delattr(logging, "getLevelNamesMapping")
        monkeypatch.setenv("CAMFED_LOG_LEVEL", "INFO")
        assert cli._log_level() == logging.INFO
        monkeypatch.setenv("CAMFED_LOG_LEVEL", "bogus")
        assert cli_main(["preset", "uc1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown CAMFED_LOG_LEVEL 'bogus'\n"
        assert captured.out == ""

    @staticmethod
    def with_header(blob, edit):
        """`blob` with its checkpoint header replaced by edit(header)."""
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.dumps(edit(json.loads(blob[8:8 + hlen]))).encode()
        return struct.pack("<Q", len(header)) + header + blob[8 + hlen:]

    @staticmethod
    def negative_length(header):
        header["arrays"][1]["length"] = -1
        return header

    @pytest.mark.parametrize("case, message", [
        ("list-header", "not a recognized checkpoint file"),
        ("no-arrays", "checkpoint header lacks ['arrays']"),
        ("negative-length", "a non-negative int length"),
        ("scalar-segments", "segments must be [name, offset, length]"),
        ("default-meta", "checkpoint meta has no run config"),
    ], ids=["list-header", "no-arrays", "negative-length", "scalar-segments",
            "default-meta"])
    def test_cross_eval_rejects_malformed_checkpoint(self, case, message,
                                                    tmp_path, capsys):
        from camfed.model import load_checkpoint, save_checkpoint
        run = tmp_path / "run"
        run_experiment(tiny_config(rounds=1), run)
        blob = (run / "checkpoint.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        if case == "default-meta":
            store, config, extras, _ = load_checkpoint(run / "checkpoint.bin")
            save_checkpoint(bad, store, config, extra_arrays=extras)
        else:
            edit = {"list-header": lambda h: [h],
                    "no-arrays": lambda h: {k: v for k, v in h.items()
                                            if k != "arrays"},
                    "negative-length": self.negative_length,
                    "scalar-segments": lambda h: h | {"segments": 5}}[case]
            bad.write_bytes(self.with_header(blob, edit))
        capsys.readouterr()
        out = tmp_path / "xe"
        code = cli_main(["cross-eval", "--checkpoint", str(bad),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["model"].update(bogus=1), "unknown model keys"),
        (lambda d: d["model"].pop("bev_grid"), "missing model keys"),
        (lambda d: d["clients"][1].pop("rig"),
         "client 1: missing client keys: ['rig']"),
        (lambda d: d["model"].update(n_heads=0), "n_heads must be >= 1"),
        (lambda d: d["model"].update(encoder_hidden=0),
         "encoder_hidden must be >= 1"),
        (lambda d: d["model"].update(world_extent=-4.0),
         "world_extent must be finite and > 0"),
    ], ids=["unknown-model-key", "missing-model-key", "client-without-rig",
            "zero-heads", "zero-encoder-hidden", "negative-extent"])
    def test_malformed_config_exits_1_with_one_error_line(
            self, edit, message, tmp_path, capsys):
        doc = tiny_config().to_dict()
        edit(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "rounds", "3", "rounds must be an int, got '3'"),
        ("model", "n_heads", "2", "n_heads must be an int, got '2'"),
        ("model", "bev_grid", 16, "bev_grid must be a pair of ints, got 16"),
    ], ids=["string-rounds", "string-n_heads", "scalar-bev_grid"])
    def test_wrong_json_type_exits_1_with_one_error_line(
            self, section, key, value, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        assert cli_main(["preset", "uc1", "--emit", str(cfg_path),
                         "--scale", "200"]) == 0
        doc = json.loads(cfg_path.read_text())
        (doc if section is None else doc[section])[key] = value
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_cross_eval_rejects_malformed_model_header(self, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        run_experiment(tiny_config(rounds=1), out)
        blob = (out / "checkpoint.bin").read_bytes()
        assert b'"n_heads": 2' in blob
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob.replace(b'"n_heads": 2', b'"n_heads": 0'))
        code = cli_main(["cross-eval", "--checkpoint", str(bad),
                         "--out", str(tmp_path / "xe")])
        assert code == 1
        assert capsys.readouterr().err == "error: n_heads must be >= 1\n"
        assert not (tmp_path / "xe").exists()

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"clients": [], "bogus": 1}')
        code = cli_main(["run", "--config", str(bad), "--out",
                         str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err
