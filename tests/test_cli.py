"""End-to-end tests of the command-line interface.

Every command is driven in-process through ``main(argv)``; the exit-code
contract is 0 for success (and all checks passing), 1 for runtime failures
or failed checks, 2 for usage problems and malformed inputs.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tvgan import cli
from tvgan.distributions import DatasetSpec, from_json, load_samples, to_json
from tvgan.oracle import GameInstance
from tvgan.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def _write_config(tmp_path, name="config.json", **overrides):
    base = {
        "datasets": [
            {
                "spec": {
                    "kind": "gaussian_mixture",
                    "components": [
                        {"mean": [0.0, 0.0], "cov_diag": [0.0625, 0.0625], "weight": 1.0}
                    ],
                },
                "alpha": 1.0,
                "noise": {"gamma": 0.0, "slab": {"kind": "point_mass", "offset": [0.0, 0.0]}},
            }
        ],
        "latent": {"dimension": 2, "kind": "gaussian"},
        "g_hidden": [8],
        "d_hidden": [8],
        "batch_size": 16,
        "total_samples_n": 48,
        "epochs": 1,
        "eval_samples": 200,
        "samples_out": 20,
        "seed": 3,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def _write_instance(tmp_path, name="instance.json", alpha=1.0, gamma=0.0,
                    support=((0.0,), (1.0,)), probs=(0.5, 0.5), offset=(1.0,)):
    law = {"kind": "discrete", "support": [list(s) for s in support], "probs": list(probs)}
    inst = {
        "data_parts": [{"dist": law, "alpha": alpha}],
        "noise": [{"gamma": gamma, "slab": {"kind": "point_mass", "offset": list(offset)}}],
        "p_g": law,
    }
    path = tmp_path / name
    path.write_text(json.dumps(inst))
    return path


def _write_parts_instance(tmp_path, parts, name="parts.json"):
    """``parts`` two-atom parts at 10 l and 10 l + 1, channel l shifting
    mass 0.1 (l + 1) by +1."""
    def law(support, probs):
        return {"kind": "discrete", "support": [[x] for x in support], "probs": probs}

    inst = {
        "data_parts": [
            {"dist": law([10.0 * l, 10.0 * l + 1.0], [0.5, 0.5]), "alpha": 1.0 / parts}
            for l in range(parts)
        ],
        "noise": [
            {"gamma": 0.1 * (l + 1), "slab": {"kind": "point_mass", "offset": [1.0]}}
            for l in range(parts)
        ],
        "p_g": law([0.0, 1.0], [0.5, 0.5]),
    }
    path = tmp_path / name
    path.write_text(json.dumps(inst))
    return path


class TestParserBasics:
    def test_no_command_is_a_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("train", "oracle", "divergence", "sample", "gradcheck"):
            assert command in out

    def test_consecutive_calls_do_not_leak_values(self, tmp_path, capsys):
        """The parser is built once; each call still starts from the defaults."""
        inst = _write_instance(tmp_path)

        def budget_rhs(argv):
            assert cli.main(argv) == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            return {row.split(",")[2] for row in rows if row.split(",")[0].endswith("_budget")}

        chain = ["oracle", "--instance", str(inst), "--check", "chain"]
        assert budget_rhs(chain + ["--delta", "0.3"]) == {"0.3"}
        assert cli.main(["gradcheck", "--sizes", "2,3,1"]) == 0
        capsys.readouterr()
        assert budget_rhs(chain) == {"0.0"}
        assert cli.build_parser() is cli.build_parser()

    def test_command_patched_after_a_call_is_the_one_that_runs(self, tmp_path, monkeypatch, capsys):
        inst = _write_instance(tmp_path)
        assert cli.main(["oracle", "--instance", str(inst)]) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_oracle", lambda args: seen.append(args.instance) or 7)
        assert cli.main(["oracle", "--instance", str(inst)]) == 7
        assert seen == [str(inst)]


class TestJsonInputFiles:
    @pytest.mark.parametrize("command", ["train", "oracle", "sample"])
    def test_a_file_that_is_not_utf8_is_a_usage_error_that_writes_nothing(
        self, tmp_path, capsys, command
    ):
        bad, out = tmp_path / "utf16.json", tmp_path / "out"
        bad.write_bytes(b"\xff\xfe{}")
        argv = {
            "train": ["train", "--config", str(bad), "--out", str(out)],
            "oracle": ["oracle", "--instance", str(bad), "--out", str(out)],
            "sample": ["sample", str(bad), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)")
        assert captured.out == ""
        assert not out.exists()


class TestTrainCommand:
    def test_missing_config_names_the_path(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "broken.json" in capsys.readouterr().err

    def test_config_missing_datasets_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text("{}")
        code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        capsys.readouterr()

    def test_non_finite_dataset_file_is_usage_error(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("0.0 0.0\n1.0 nan\n")
        config = _write_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["datasets"][0]["spec"] = {"kind": "file", "path": str(rows)}
        config.write_text(json.dumps(raw))
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "rows.txt" in capsys.readouterr().err

    def test_tiny_run_writes_all_artifacts(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert "done: 3 generator steps" in capsys.readouterr().out

        for name in (
            "manifest.json",
            "metrics.csv",
            "generator.json",
            "generator.bin",
            "discriminator.json",
            "discriminator.bin",
            "samples.txt",
        ):
            assert (out / name).exists(), f"missing {name}"

        with (out / "metrics.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "step"
        assert len(rows) == 4  # header + ceil(48/16) steps
        assert np.isfinite(float(rows[-1][1]))

    def test_manifest_reproduces_the_config(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "tvgan"
        assert manifest["seed"] == 3
        assert manifest["finished"] is not None
        assert "metrics.csv" in manifest["outputs"]
        # The config echo must parse back into the identical resolved config.
        echoed = TrainConfig.from_dict(manifest["config"])
        original = TrainConfig.from_dict(json.loads(config.read_text()))
        assert to_json(echoed) == to_json(original)

    def test_manifest_lists_only_this_runs_files(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("not written by the run\n")
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [
            "discriminator.bin",
            "discriminator.json",
            "generator.bin",
            "generator.json",
            "metrics.csv",
            "samples.txt",
        ]
        assert (out / "notes.txt").read_text() == "not written by the run\n"

    def test_seed_override_changes_the_run(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(config), "--out", str(out_a)])
        cli.main(["train", "--config", str(config), "--out", str(out_b), "--seed", "99"])
        capsys.readouterr()
        metrics_a = (out_a / "metrics.csv").read_text()
        metrics_b = (out_b / "metrics.csv").read_text()
        assert metrics_a != metrics_b
        assert json.loads((out_b / "manifest.json").read_text())["seed"] == 99

    def test_same_config_reproduces_metrics_byte_for_byte(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(config), "--out", str(out_a)])
        cli.main(["train", "--config", str(config), "--out", str(out_b)])
        capsys.readouterr()
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "samples.txt").read_bytes() == (out_b / "samples.txt").read_bytes()

    def test_zero_epochs_writes_header_only_metrics(self, tmp_path, capsys):
        config = _write_config(tmp_path, epochs=0)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert "done: 0 generator steps" in capsys.readouterr().out
        with (out / "metrics.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_seed_override_parses_the_config_once(self, tmp_path, monkeypatch, capsys):
        config = _write_config(tmp_path, epochs=0)
        calls = []
        monkeypatch.setattr(cli, "from_json", lambda kind, d: calls.append(d) or from_json(kind, d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        want = to_json(from_json(TrainConfig, {**json.loads(config.read_text()), "seed": 7}))
        assert manifest["config"] == want

    @pytest.mark.parametrize("content", ["{}", "[1, 2]"])
    def test_bad_config_with_seed_is_usage_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run"), "--seed", "1"])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_negative_seed_override_is_a_usage_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,read,write",
        [
            ("train.json", TrainConfig.from_dict, to_json),
            ("oracle_instance.json", GameInstance.from_dict, GameInstance.to_dict),
            ("sample_spec.json", lambda raw: from_json(DatasetSpec, raw), to_json),
        ],
        ids=["train.json", "oracle_instance.json", "sample_spec.json"],
    )
    def test_demo_config_echo_is_unchanged_by_parsing(self, name, read, write):
        """Reading a shipped file and writing it back gives its own numbers,
        with the same types, so the manifest's echo of it stays the same bytes."""
        raw = json.loads((ROOT / "demos" / "configs" / name).read_text())
        echo = write(read(raw))
        assert json.dumps(echo, indent=2) == json.dumps(raw, indent=2)

    @pytest.mark.parametrize(
        "edit,path",
        [
            (lambda c: c.update(eval_evry=5), "eval_evry"),
            (lambda c: c.update(g_adam=None), "g_adam"),
            (lambda c: c.update(latent={"dimension": 2.7}), "latent.dimension"),
            (lambda c: c["datasets"][0]["noise"].update(gamma=True), "datasets[0].noise.gamma"),
            (lambda c: c["datasets"][0].update(alpha="1"), "datasets[0].alpha"),
        ],
        ids=["unknown-key", "null-object", "fractional-count", "boolean-number", "string-number"],
    )
    def test_bad_leaf_is_a_usage_error_named_by_its_path(self, tmp_path, capsys, edit, path):
        raw = json.loads(_write_config(tmp_path).read_text())
        edit(raw)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert f"config.json: {path} " in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"hidden_activation": "swish"}, "hidden_activation"),
            ({"g_hidden": [0]}, "g_hidden"),
            ({"d_hidden": [-3]}, "d_hidden"),
            (
                {
                    "estimator": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": 8},
                    "eval_samples": 0,
                    "eval_every": 1,
                },
                "eval_samples",
            ),
            ({"samples_out": -5}, "samples_out"),
            ({"d_adam": {"beta1": 1.0}}, "d_adam.beta1"),
            ({"g_adam": {"beta2": 1.0}}, "g_adam.beta2"),
            ({"g_adam": {"lr": float("nan")}}, "g_adam.lr"),
            ({"d_adam": {"lr": -1e-3}}, "d_adam.lr"),
            ({"batch_size": 64.5}, "batch_size"),
            ({"g_hidden": [7.9]}, "g_hidden"),
            ({"eval_every": True}, "eval_every"),
            ({"seed": 2.5}, "seed"),
            ({"seed": -1}, "seed"),
            ({"d_adam": {"lr": True}}, "d_adam.lr"),
            ({"g_adam": {"beta1": "0.5"}}, "g_adam.beta1"),
            ({"estimator": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": 8.7}},
             "estimator.bins_per_dim"),
            ({"estimator": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": "8"}},
             "estimator.bins_per_dim"),
            ({"estimator": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": 8, "smoothing": True}},
             "estimator.smoothing"),
            ({"estimator": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": 8, "smoothing": "0"}},
             "estimator.smoothing"),
        ],
    )
    def test_bad_network_or_eval_field_is_a_usage_error(self, tmp_path, capsys, overrides, field):
        """Refused when the config is parsed: exit 2, the field named, and
        no run directory written."""
        config = _write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "config.json" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "slab,path",
        [
            ({"kind": "gaussian", "std": [[0.5, 0.5]]}, "datasets[0].noise.slab.std"),
            ({"kind": "point_mass", "offset": [[0.5, 0.5]]}, "datasets[0].noise.slab.offset"),
        ],
        ids=["std", "offset"],
    )
    def test_nested_slab_vector_is_a_usage_error_named_by_its_path(self, tmp_path, capsys, slab, path):
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["datasets"][0]["noise"] = {"gamma": 0.5, "slab": slab}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert f"config.json: {path} must be a nonempty vector, got an array of shape (1, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_estimator_past_three_dimensions_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """A 4-D estimator on 4-D data is refused when the config is parsed,
        not at the first eval: exit 2, ``estimator`` named, nothing written."""
        component = {"mean": [0.0] * 4, "cov_diag": [0.0625] * 4, "weight": 1.0}
        config = _write_config(
            tmp_path,
            datasets=[
                {
                    "spec": {"kind": "gaussian_mixture", "components": [component]},
                    "alpha": 1.0,
                    "noise": {"gamma": 0.0, "slab": {"kind": "point_mass", "offset": [0.0] * 4}},
                }
            ],
            estimator={"bounds": [[-3.0, 3.0]] * 4, "bins_per_dim": 2},
            eval_every=1,
        )
        runs = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: runs.append(a))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.json: estimator" in err and "limited to 3 dimensions, got 4" in err
        assert runs == []
        assert not out.exists()


    def test_estimator_grid_past_the_bin_limit_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """A grid too large to allocate is refused when the config is parsed,
        not at the first eval: exit 2, the bin count named, nothing written."""
        config = _write_config(
            tmp_path, estimator={"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "bins_per_dim": 100000}
        )
        runs = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: runs.append(a))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.json: estimator.bins_per_dim 100000 in 2 dimensions makes 10000000000 bins" in err
        assert runs == []
        assert not out.exists()


class TestOracleCommand:
    def test_matched_zero_noise_instance_passes_all_checks(self, tmp_path, capsys):
        inst = _write_instance(tmp_path)
        assert cli.main(["oracle", "--instance", str(inst)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "check,lhs,rhs,slack,holds"
        names = {line.split(",")[0] for line in lines[1:]}
        assert "part0_channel_tv" in names
        assert "value_identity" in names
        assert "sqrt_jsd_triangle" in names
        assert all(line.endswith("True") for line in lines[1:])

    def test_channel_check_reports_the_attained_budget(self, tmp_path, capsys):
        inst = _write_instance(
            tmp_path, gamma=0.3, support=((0.0,), (10.0,)), probs=(0.5, 0.5)
        )
        assert cli.main(["oracle", "--instance", str(inst), "--check", "channel"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        name, lhs, rhs, _, holds = lines[1].split(",")
        assert name == "part0_channel_tv"
        assert float(lhs) == pytest.approx(0.3, abs=1e-12)
        assert float(rhs) == 0.3
        assert holds == "True"

    def test_report_can_be_written_to_a_file(self, tmp_path, capsys):
        inst = _write_instance(tmp_path)
        report = tmp_path / "report.csv"
        assert cli.main(["oracle", "--instance", str(inst), "--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        content = report.read_text().strip().splitlines()
        assert content[0] == "check,lhs,rhs,slack,holds"
        assert len(content) > 1

    def test_corrupted_alphas_are_a_usage_error(self, tmp_path, capsys):
        inst = _write_instance(tmp_path, alpha=0.9)
        assert cli.main(["oracle", "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert "instance.json" in err
        assert "alphas" in err

    @pytest.mark.parametrize(
        "edit,path",
        [
            (lambda i: i["noise"][0].update(gamma="0.5"), "noise[0].gamma"),
            (lambda i: i["data_parts"][0]["dist"].update(probs=[0.5, float("nan")]), "data_parts[0].dist.probs"),
            (lambda i: i["p_g"].update(weights=[1.0]), "p_g.weights"),
        ],
        ids=["string-number", "nan-in-array", "unknown-key"],
    )
    def test_bad_leaf_is_a_usage_error_named_by_its_path(self, tmp_path, capsys, edit, path):
        inst = _write_instance(tmp_path)
        raw = json.loads(inst.read_text())
        edit(raw)
        inst.write_text(json.dumps(raw))
        report = tmp_path / "report.csv"
        assert cli.main(["oracle", "--instance", str(inst), "--out", str(report)]) == 2
        assert f"instance.json: {path} " in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "slab, message",
        [
            ({"kind": "gaussian", "std": [1.0]}, "noise[0].slab: GaussianSlab has continuous support"),
            ({"kind": "dirichlet_flat", "dimension": 1}, "noise[0].slab: DirichletSlab has continuous support"),
            ({"kind": "point_mass", "offset": [1.0, 0.0]}, "noise[0]: slab dimension 2 differs from the data dimension 1"),
        ],
        ids=["gaussian", "dirichlet", "dimension"],
    )
    def test_channel_without_an_exact_law_is_a_usage_error_named_by_its_path(
        self, tmp_path, capsys, slab, message
    ):
        inst = _write_instance(tmp_path, gamma=0.5)
        raw = json.loads(inst.read_text())
        raw["noise"][0]["slab"] = slab
        inst.write_text(json.dumps(raw))
        report = tmp_path / "report.csv"
        assert cli.main(["oracle", "--instance", str(inst), "--out", str(report)]) == 2
        assert f"instance.json: {message}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda i: i["p_g"].update(support=[[]], probs=[1.0]),
             "p_g.support must have at least one coordinate, got shape (1, 0)"),
            (lambda i: i["p_g"].update(probs=[[0.5], [0.5]]), "p_g.probs must be a nonempty vector, got an array of shape (2, 1)"),
            (lambda i: i["noise"][0]["slab"].update(offset=[[1.0]]),
             "noise[0].slab.offset must be a nonempty vector, got an array of shape (1, 1)"),
            (lambda i: i["noise"][0]["slab"].update(kind=["point_mass"]), "noise[0].slab.kind must be one of 'gaussian', "),
        ],
        ids=["no-coordinates", "nested-probs", "nested-offset", "list-kind"],
    )
    def test_misshapen_value_is_a_usage_error_named_by_its_path(self, tmp_path, capsys, edit, message):
        inst = _write_instance(tmp_path, gamma=0.5)
        raw = json.loads(inst.read_text())
        edit(raw)
        inst.write_text(json.dumps(raw))
        report = tmp_path / "report.csv"
        assert cli.main(["oracle", "--instance", str(inst), "--out", str(report)]) == 2
        assert f"instance.json: {message}" in capsys.readouterr().err
        assert not report.exists()

    def test_delta_below_gamma_is_a_usage_error(self, tmp_path, capsys):
        inst = _write_instance(tmp_path, gamma=0.5, support=((0.0,), (10.0,)))
        code = cli.main(
            ["oracle", "--instance", str(inst), "--check", "chain", "--delta", "0.1"]
        )
        assert code == 2
        capsys.readouterr()

    def test_missing_instance_file(self, tmp_path, capsys):
        assert cli.main(["oracle", "--instance", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.1", "1.5"])
    def test_delta_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, delta):
        inst = _write_instance(tmp_path)
        code = cli.main(["oracle", "--instance", str(inst), "--check", "chain", "--delta", delta])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta" in captured.err

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_all_checks_rows_in_report_order(self, tmp_path, capsys, parts):
        inst = _write_parts_instance(tmp_path, parts)
        assert cli.main(["oracle", "--instance", str(inst)]) == 0
        names = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        channel = [f"part{l}_channel_tv" for l in range(parts)]
        budget = [f"part{l}_tv_budget" for l in range(parts)]
        tail = ["mixture_tv_concavity", "weighted_tv_budget", "jsd_le_tv", "sqrt_jsd_triangle"]
        assert names == channel + ["value_identity"] + budget + tail
        for family, want in (("channel", channel), ("value", ["value_identity"]), ("chain", budget + tail)):
            assert cli.main(["oracle", "--instance", str(inst), "--check", family]) == 0
            assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == want

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_the_checks_canonicalize_once(self, tmp_path, monkeypatch, capsys, parts):
        """All 2P + 5 rows read one canonical support: one ``canonicalize`` once the
        instance is parsed (parsing validates each law's support on its own)."""
        from tvgan import distributions, oracle

        inst = _write_parts_instance(tmp_path, parts)
        calls = []

        def counted(canonicalize):
            return lambda *args: calls.append(1) or canonicalize(*args)

        def checks_counting_from_here(*args):
            for module in (distributions, oracle):
                monkeypatch.setattr(module, "canonicalize", counted(module.canonicalize))
            return oracle.instance_checks(*args)

        monkeypatch.setattr(cli, "instance_checks", checks_counting_from_here)
        assert cli.main(["oracle", "--instance", str(inst), "--check", "all"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * parts + 5
        assert len(calls) == 1


class TestSampleFiles:
    """A sample file that cannot be read, or holds no finite matrix, is a
    usage error naming it under every command that reads one, and is found
    before any output is written."""

    BAD = {
        "missing": None,
        "directory": None,
        "empty": "",
        "unparsable": "1 2\none two\n",
        "non-finite": "1 2\nnan 3\n",
    }

    def _bad_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}-rows.txt"
        if kind == "directory":
            path.mkdir()
        elif self.BAD[kind] is not None:
            path.write_text(self.BAD[kind])
        return path

    def _argv(self, tmp_path, command, rows):
        if command == "train":
            config = _write_config(tmp_path)
            raw = json.loads(config.read_text())
            raw["datasets"][0]["spec"] = {"kind": "file", "path": str(rows)}
            config.write_text(json.dumps(raw))
            return ["train", "--config", str(config), "--out", str(tmp_path / "run")]
        if command == "sample":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"kind": "file", "path": str(rows)}))
            return ["sample", str(spec), "-n", "5", "--out", str(tmp_path / "drawn.txt")]
        good = tmp_path / "good.txt"
        good.write_text("0 0\n1 1\n")
        return ["divergence", str(good), str(rows)]

    @pytest.mark.parametrize("kind", list(BAD))
    @pytest.mark.parametrize("command", ["train", "sample", "divergence"])
    def test_bad_sample_file_is_a_usage_error_naming_it(self, tmp_path, capsys, recwarn, command, kind):
        rows = self._bad_file(tmp_path, kind)
        assert cli.main(self._argv(tmp_path, command, rows)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"{kind}-rows.txt" in captured.err
        assert captured.out == ""
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "run").exists() and not (tmp_path / "drawn.txt").exists()

    def test_a_good_sample_file_feeds_train_and_sample(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("# x y\n0.5 1.5\n\n2.5 3.5  # second\n")
        for command in ("train", "sample"):
            assert cli.main(self._argv(tmp_path, command, rows)) == 0
        drawn = np.loadtxt(tmp_path / "drawn.txt", ndmin=2)
        assert {tuple(r) for r in drawn} <= {(0.5, 1.5), (2.5, 3.5)}
        capsys.readouterr()

    def test_a_runs_samples_feed_divergence_and_a_file_dataset(self, tmp_path, capsys):
        source = tmp_path / "source"
        assert cli.main(["train", "--config", str(_write_config(tmp_path)), "--out", str(source)]) == 0
        rows = source / "samples.txt"
        capsys.readouterr()
        assert cli.main(["divergence", str(rows), str(rows)]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[0]) == 0.0
        for command in ("train", "sample"):
            assert cli.main(self._argv(tmp_path, command, rows)) == 0
        capsys.readouterr()
        drawn = load_samples(tmp_path / "drawn.txt")
        assert {tuple(r) for r in drawn.tolist()} <= {tuple(r) for r in load_samples(rows).tolist()}


class TestDivergenceCommand:
    def _write_samples(self, path, data):
        np.savetxt(path, data)
        return path

    def test_identical_files_have_zero_divergence(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.random.default_rng(0).normal(size=(500, 1)))
        assert cli.main(["divergence", str(a), str(a), "--bins", "16"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "tv,jsd_nats,method,n_p,n_q"
        tv, jsd, method, n_p, n_q = out[1].split(",")
        assert float(tv) == 0.0
        assert float(jsd) == 0.0
        assert method == "histogram"
        assert (n_p, n_q) == ("500", "500")

    def test_explicit_bounds_and_bins(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = self._write_samples(tmp_path / "a.txt", rng.normal(size=(2000, 1)))
        b = self._write_samples(tmp_path / "b.txt", rng.normal(size=(2000, 1)) + 1.0)
        code = cli.main(
            ["divergence", str(a), str(b), "--bins", "64", "--bounds=-6,7"]
        )
        assert code == 0
        tv = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert 0.3 < tv < 0.5

    def test_auto_bounds_cover_the_data(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a = self._write_samples(tmp_path / "a.txt", rng.normal(size=(1000, 2)))
        b = self._write_samples(tmp_path / "b.txt", rng.normal(size=(1000, 2)))
        assert cli.main(["divergence", str(a), str(b), "--bins", "8"]) == 0
        tv = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert tv < 0.2

    @pytest.mark.parametrize("value", [0.0, 1e9, 1e15, -1e15])
    def test_auto_bounds_keep_a_constant_column_at_any_magnitude(self, tmp_path, capsys, value):
        """The automatic pad scales with the coordinates' magnitude, so a
        constant column still gets low < high where an absolute 1e-9 rounds away."""
        a = self._write_samples(tmp_path / "a.txt", np.array([[value, 0.0], [value, 1.0]]))
        b = self._write_samples(tmp_path / "b.txt", np.array([[value, 0.0], [value, 0.0]]))
        assert cli.main(["divergence", str(a), str(b), "--bins", "2"]) == 0
        tv = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert tv == pytest.approx(0.5, abs=1e-6)

    def test_grid_past_the_bin_limit_is_a_usage_error(self, tmp_path, capsys):
        """100 000 bins a side in 2-D is refused before any grid is allocated."""
        a = self._write_samples(tmp_path / "a.txt", np.random.default_rng(6).normal(size=(20, 2)))
        assert cli.main(["divergence", str(a), str(a), "--bins", "100000"]) == 2
        captured = capsys.readouterr()
        assert "makes 10000000000 bins" in captured.err and captured.out == ""

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.zeros((5, 1)))
        assert cli.main(["divergence", str(a), str(tmp_path / "nope.txt")]) == 2
        capsys.readouterr()

    def test_non_numeric_file_is_a_usage_error(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.zeros((5, 1)))
        bad = tmp_path / "bad.txt"
        bad.write_text("one two\nthree four\n")
        assert cli.main(["divergence", str(a), str(bad)]) == 2
        capsys.readouterr()

    def test_dimension_mismatch_is_a_usage_error(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.zeros((5, 1)))
        b = self._write_samples(tmp_path / "b.txt", np.zeros((5, 2)))
        assert cli.main(["divergence", str(a), str(b)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_file_is_a_usage_error(self, tmp_path, capsys, bad):
        a = self._write_samples(tmp_path / "a.txt", np.zeros((5, 2)))
        b = tmp_path / "b.txt"
        b.write_text(f"1 2\n{bad} 3\n0 0\n")
        for files in ((a, b), (b, a)):
            assert cli.main(["divergence", *map(str, files)]) == 2
            captured = capsys.readouterr()
            assert "b.txt" in captured.err and "non-finite" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [["--smoothing", "nan"], ["--smoothing", "inf"], ["--bounds=0,nan"], ["--bounds=-inf,1"]],
        ids=["smoothing-nan", "smoothing-inf", "bounds-nan", "bounds-inf"],
    )
    def test_non_finite_estimator_setting_is_a_usage_error(self, tmp_path, capsys, flags):
        a = self._write_samples(tmp_path / "a.txt", np.random.default_rng(4).normal(size=(20, 1)))
        assert cli.main(["divergence", str(a), str(a), *flags]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    def test_samples_past_three_dimensions_are_a_usage_error(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.random.default_rng(5).normal(size=(20, 4)))
        assert cli.main(["divergence", str(a), str(a), "--bins", "2"]) == 2
        captured = capsys.readouterr()
        assert "limited to 3 dimensions, got 4" in captured.err and captured.out == ""

    def test_malformed_bounds_are_a_usage_error(self, tmp_path, capsys):
        a = self._write_samples(tmp_path / "a.txt", np.zeros((5, 1)))
        assert cli.main(["divergence", str(a), str(a), "--bounds", "low-high"]) == 2
        capsys.readouterr()


class TestSampleCommand:
    def test_ring_preset_with_zero_jitter_lies_on_the_circle(self, tmp_path, capsys):
        code = cli.main(
            ["sample", "ring", "-n", "200", "--radius", "2.0", "--noise-std", "0.0"]
        )
        assert code == 0
        rows = np.array(
            [[float(v) for v in line.split()] for line in capsys.readouterr().out.strip().splitlines()]
        )
        assert rows.shape == (200, 2)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 2.0, atol=1e-9)

    def test_spec_file_sampling(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "discrete", "support": [[5.0]], "probs": [1.0]}))
        assert cli.main(["sample", str(spec), "-n", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["5.0"] * 10

    def test_output_file_feeds_the_divergence_command(self, tmp_path, capsys):
        """Sampled files are valid input for the divergence command."""
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(["sample", "gaussian", "-n", "1000", "--seed", "1", "--out", str(a)]) == 0
        assert cli.main(["sample", "gaussian", "-n", "1000", "--seed", "2", "--out", str(b)]) == 0
        assert cli.main(["divergence", str(a), str(b), "--bins", "8"]) == 0
        tv = float(capsys.readouterr().out.strip().splitlines()[-1].split(",")[0])
        assert tv < 0.25

    def test_sampling_is_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["sample", "ring", "-n", "50", "--seed", "7", "--out", str(a)])
        cli.main(["sample", "ring", "-n", "50", "--seed", "7", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "banana"}))
        assert cli.main(["sample", str(spec)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "spec,path",
        [
            ({"kind": "ring", "radius": "2"}, "radius"),
            ({"kind": "ring", "radius": float("nan")}, "radius"),
            ({"kind": "gaussian_mixture", "components": [
                {"mean": [float("inf")], "cov_diag": [1.0], "weight": 1.0}]}, "components[0].mean"),
            ({"kind": "discrete", "support": [[0.0], [1.0, 2.0]], "probs": [0.5, 0.5]}, "support"),
        ],
        ids=["string-radius", "nan-radius", "infinite-mean", "ragged-support"],
    )
    def test_bad_leaf_in_a_spec_file_is_a_usage_error(self, tmp_path, capsys, spec, path):
        spec_path, out = tmp_path / "spec.json", tmp_path / "rows.txt"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["sample", str(spec_path), "--out", str(out)]) == 2
        assert f"spec.json: {path} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mean,cov_diag,message",
        [
            ([[-1.5, 0.0]], [[0.0625, 0.0625]], "components[0].mean must be a nonempty vector, got an array of shape (1, 2)"),
            ([-1.5, 0.0], [[0.0625, 0.0625]], "components[0].cov_diag must be a nonempty vector, got an array of shape (1, 2)"),
            ([], [], "components[0].mean must be a nonempty vector, got an array of shape (0,)"),
        ],
        ids=["nested", "nested-cov_diag", "empty"],
    )
    def test_misshapen_component_vector_is_a_usage_error(self, tmp_path, capsys, mean, cov_diag, message):
        spec = {"kind": "gaussian_mixture", "components": [{"mean": mean, "cov_diag": cov_diag, "weight": 1.0}]}
        spec_path, out = tmp_path / "spec.json", tmp_path / "rows.txt"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["sample", str(spec_path), "--out", str(out)]) == 2
        assert f"spec.json: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_radius_is_a_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "rows.txt"
        assert cli.main(["sample", "ring", "--radius", value, "--out", str(out)]) == 2
        assert "radius must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_std_is_a_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "rows.txt"
        assert cli.main(["sample", "ring", "--noise-std", value, "--out", str(out)]) == 2
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_count_is_a_usage_error(self, capsys):
        assert cli.main(["sample", "ring", "-n", "0"]) == 2
        capsys.readouterr()

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert cli.main(["sample", "ring", "--seed", "-1", "-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --seed") and captured.out == ""


class TestOutputPaths:
    """An unusable ``--out`` is a usage error found with stats before any
    work: exit 2, nothing computed and nothing written."""

    def _no_work(self, monkeypatch):
        work = []
        for name in ("instance_checks", "sample_dataset", "train"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: work.append(name))
        return work

    @pytest.mark.parametrize("command", ["oracle", "sample"])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_report_path_in_a_missing_directory_or_at_a_directory(
        self, tmp_path, capsys, monkeypatch, command, where
    ):
        out = tmp_path / "missing" / "x.txt" if where == "missing-directory" else tmp_path
        work = self._no_work(monkeypatch)
        argv = {
            "oracle": ["oracle", "--instance", str(_write_instance(tmp_path)), "--out", str(out)],
            "sample": ["sample", "ring", "--out", str(out)],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out {out}: ")
        assert captured.out == ""
        assert work == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("where", ["an-existing-file", "under-a-file"])
    def test_run_directory_at_or_under_a_file(self, tmp_path, capsys, monkeypatch, where):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker if where == "an-existing-file" else blocker / "run"
        config = _write_config(tmp_path)
        work = self._no_work(monkeypatch)
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
        assert work == []
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_an_existing_report_is_overwritten(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("stale\n" * 100)
        assert cli.main(["oracle", "--instance", str(_write_instance(tmp_path)), "--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text().startswith("check,lhs,rhs,slack,holds\n")
        assert "stale" not in report.read_text()

    def test_train_creates_missing_parent_directories(self, tmp_path, capsys):
        config = _write_config(tmp_path, epochs=0)
        out = tmp_path / "a" / "b" / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "manifest.json").is_file()


class TestGradcheckCommand:
    def test_default_network_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("max_rel_error=")
        assert float(out.split("=")[1]) <= 1e-6

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        assert cli.main(["gradcheck", "--tol", "1e-30"]) == 1
        capsys.readouterr()

    def test_relu_network_at_looser_tolerance(self, capsys):
        assert cli.main(["gradcheck", "--activation", "relu", "--tol", "1e-4"]) == 0
        capsys.readouterr()

    def test_identity_network_passes(self, capsys):
        assert cli.main(["gradcheck", "--activation", "identity"]) == 0
        capsys.readouterr()

    def test_bad_sizes_are_a_usage_error(self, capsys):
        assert cli.main(["gradcheck", "--sizes", "two,eight"]) == 2
        capsys.readouterr()

    def test_single_size_is_a_usage_error(self, capsys):
        assert cli.main(["gradcheck", "--sizes", "4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--step", "0"], "--step"),
            (["--step", "-1"], "--step"),
            (["--step", "nan"], "--step"),
            (["--step", "inf"], "--step"),
            (["--sizes", "2,-3,1"], "--sizes"),
            (["--sizes", "2,0,1"], "--sizes"),
            (["--sizes", "0,1"], "--sizes"),
            (["--tol", "nan"], "--tol"),
            (["--tol", "inf"], "--tol"),
            (["--tol=-1e-6"], "--tol"),
            (["--seed", "-1"], "--seed"),
        ],
    )
    def test_bad_argument_is_a_usage_error(self, capsys, flags, named):
        assert cli.main(["gradcheck", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}") and captured.out == ""
