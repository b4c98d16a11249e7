import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import cdmonitor.cli as cli
import cdmonitor.experiment as experiment
from cdmonitor.cli import (
    ConfigError,
    build_parser,
    config_to_json,
    load_config,
    main,
    resolve_config,
)
from cdmonitor.experiment import (
    DATASET_LAYOUTS,
    RunResult,
    build_dataset,
    default_config,
    write_params_file,
)
from cdmonitor.training import init_params

from test_golden import environment


def kill_own_worker(config, run_indices, X):
    """A ``run_single`` whose process dies at once, as a killed pool worker
    does (module level, so that the pool can pickle it)."""
    os.kill(os.getpid(), signal.SIGKILL)


def interrupt_batch_0(config, run_indices, X):
    """A ``run_single`` interrupted at once in batch [0], whose other
    batches outlast any test (module level, so that the pool can pickle
    it)."""
    if run_indices[0] == 0:
        raise KeyboardInterrupt
    time.sleep(60)


def _group_alive(pgid):
    """Whether any process is left in process group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def write_config(tmp_path, **overrides):
    doc = {
        "dataset": "bs",
        "training": {"n": 1, "learning_rate": 0.01, "epochs": 100, "measure_every": 50},
        "num_runs": 2,
        "base_seed": 99,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestDatasetCommand:
    def test_bars_and_stripes_file(self, tmp_path, capsys):
        out = tmp_path / "bs.txt"
        assert main(["dataset", "bs", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 31  # header + 30 samples
        assert all(len(ln) == 16 for ln in lines[1:])
        assert "30" in capsys.readouterr().out

    def test_labeled_shifter_file(self, tmp_path):
        out = tmp_path / "lse.txt"
        assert main(["dataset", "lse", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# name=lse visible=19 n=768"
        assert len(lines) == 769 and all(len(ln) == 19 for ln in lines[1:])

    @pytest.mark.parametrize("name, digest", [
        ("bs", "e1514cd75f1aefb342d81939c63430b2eb2d0bbaa14bdb1ba65a4ce04dfeee54"),
        ("lse", "c15cb284fa920438f556a2af00de64efe097f16c6765bb5e1093623cfd3224c8"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, name, digest):
        out = tmp_path / f"{name}.txt"
        assert main(["dataset", name, str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unknown_name_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "foo", str(tmp_path / "x.txt")])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(cli.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "bs.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "cdmonitor", "dataset", "bs", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 31 and all(len(ln) == 16 for ln in lines[1:])
        usage = subprocess.run(
            [sys.executable, "-m", "cdmonitor"], env=env, capture_output=True, text=True, timeout=60
        )
        assert usage.returncode == 2
        assert usage.stderr.startswith("usage: cdmonitor")

    def run_interrupted(self, tmp_path, hook):
        """Run ``python -m cdmonitor dataset bs OUT`` with ``hook``, source
        that touches ``marker`` at the moment in question and then waits;
        SIGINT the process group once the marker exists, touch
        ``marker.sent``, and return the status and stderr once no process
        of the group is left."""
        script = textwrap.dedent(
            """
            import atexit, pathlib, runpy, sys, time
            marker = pathlib.Path(sys.argv[1])

            def wait():
                marker.touch()
                deadline = time.monotonic() + 60
                while not marker.with_suffix(".sent").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            """
        ) + textwrap.dedent(hook) + textwrap.dedent(
            """
            sys.argv = ["cdmonitor", *sys.argv[2:]]
            runpy.run_module("cdmonitor", run_name="__main__", alter_sys=True)
            """
        )
        src = str(Path(cli.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        marker = tmp_path / "marker"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(marker), "dataset", "bs", str(tmp_path / "bs.txt")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert marker.exists(), proc.poll()
            os.killpg(proc.pid, signal.SIGINT)
            marker.with_suffix(".sent").touch()
            _, err = proc.communicate(timeout=60)
            deadline = time.monotonic() + 10
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _group_alive(proc.pid)
            return proc.returncode, err
        finally:
            if _group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()

    def test_ctrl_c_while_the_cli_imports_exits_130(self, tmp_path):
        # the entry imports the CLI, and numpy with it, inside its own
        # KeyboardInterrupt handler, before main's is in place
        hook = """
            class HoldCliImport:
                def find_spec(self, name, path=None, target=None):
                    if name == "cdmonitor.cli":
                        wait()

            sys.meta_path.insert(0, HoldCliImport())
            """
        status, err = self.run_interrupted(tmp_path, hook)
        assert status == 130
        assert err.splitlines() == ["interrupted"]
        assert not (tmp_path / "bs.txt").exists()

    def test_ctrl_c_after_main_returned_keeps_its_status(self, tmp_path):
        # the hook waits during interpreter shutdown, after main returned 0
        status, err = self.run_interrupted(tmp_path, "atexit.register(wait)")
        assert status == 0
        assert err == ""
        assert len((tmp_path / "bs.txt").read_text().splitlines()) == 31


def test_readme_cli_synopsis_names_every_option():
    # the README's synopsis and the parser name the same --options per subcommand
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## CLI", 1)[1].split("```", 2)[1]
    documented = {}
    for line in synopsis.strip().splitlines():
        if line.startswith("cdmonitor "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == defined


class TestConfigLoading:
    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text('{"dataset": "lse"}')
        config = load_config(path)
        assert config.hidden == 10
        assert config.training.epochs == 20000
        assert config.training.measure_every == 50
        assert config.num_runs == 10

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # learning_rate belongs under "training"; visible, lse_shift and
        # init_std are what a config echoed by an older version still sets
        stale = [("learning_rate", 0.5), ("visible", 16), ("lse_shift", "cyclic"), ("init_std", 0.01)]
        for key, value in stale:
            path = write_config(tmp_path)
            doc = json.loads(path.read_text())
            doc[key] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
                load_config(path)

    def test_unknown_training_key_rejected(self, tmp_path):
        path = write_config(tmp_path, training={"n": 1, "momentum": 0.9})
        with pytest.raises(ConfigError, match="unknown training keys"):
            load_config(path)

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigError, match="dataset"):
            resolve_config({"num_runs": 3})

    def test_zero_hidden_rejected(self, tmp_path):
        path = write_config(tmp_path, hidden=0)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write_config(tmp_path, num_runs="ten")
        with pytest.raises(ConfigError, match="num_runs"):
            load_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_variant_names_parsed(self, tmp_path):
        path = write_config(
            tmp_path,
            variants_enabled=["random_hidden", "complement_h1", "complement_mean_h"],
        )
        config = load_config(path)
        assert config.mean_h_enabled

    def test_unknown_variant_rejected(self, tmp_path):
        path = write_config(tmp_path, variants_enabled=["random_hidden", "flip_all"])
        with pytest.raises(ConfigError, match="flip_all"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(dataset=["bs"]), "dataset must be a string"),
            (dict(training={"weight_decay": float("nan")}), "training.weight_decay must be a finite number"),
            (dict(training={"learning_rate": float("inf")}), "training.learning_rate must be a finite number"),
            (dict(training={"learning_rate": 10**400}), "training.learning_rate must be a finite number"),
            (dict(num_runs=0), "num_runs must be >= 1, got 0"),
            (dict(dataset="mnist"), "dataset must be one of ['bs', 'lse'], got 'mnist'"),
        ],
    )
    def test_non_string_dataset_and_non_finite_numbers_exit_2(self, tmp_path, capsys, overrides, message):
        # json.dumps writes NaN and Infinity, and json.load reads them back
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_is_the_resolved_default(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config files", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(example) == json.loads(config_to_json(resolve_config({"dataset": "bs"})))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path)
        assert load_config(path, seed=7) == dataclasses.replace(config, base_seed=7)
        training = dataclasses.replace(config.training, epochs=50000)
        assert load_config(path, epochs=50000) == dataclasses.replace(config, training=training)
        assert load_config(path, seed=None, epochs=None) == config
        with pytest.raises(ConfigError, match=r"epochs must be >= 1, got 0"):
            load_config(path, epochs=0)

    def test_presets_are_valid(self):
        preset_dir = Path(__file__).parent.parent / "configs"
        presets = sorted(preset_dir.glob("*.json"))
        assert len(presets) == 5
        for preset in presets:
            config = load_config(preset)
            assert config.training.epochs >= 3000


class TestTrainCommand:
    def test_output_inventory(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "averaged.csv",
            "config_resolved.json",
            "params_run_00.txt",
            "params_run_01.txt",
            "peaks.txt",
            "run_00.csv",
            "run_01.csv",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        # the echoed config is itself a config that reproduces the sweep
        echo = out_a / "config_resolved.json"
        assert main(["train", "--config", str(echo), "--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_full_scale_flag_is_gone(self, tmp_path):
        # the paper's horizon is --epochs 50000, its one spelling
        argv = ["train", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--full-scale"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_seed_column(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out), "--seed", "4242"])
        first_row = (out / "run_00.csv").read_text().splitlines()[1]
        assert first_row.split(",")[1] == "4242"

    def test_epochs_override_shortens_series(self, tmp_path):
        config = write_config(
            tmp_path, training={"n": 1, "learning_rate": 0.01, "epochs": 200, "measure_every": 50}
        )
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out), "--epochs", "100"]) == 0
        rows = (out / "run_00.csv").read_text().splitlines()
        assert len(rows) == 4  # header + epochs 0, 50, 100

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"),
        ("--seed", "-1"),
        ("--seed", "18446744073709551616"),
    ])
    def test_bad_override_is_the_config_error_of_the_same_value(self, tmp_path, capsys, flag, value):
        # the flag's value goes through the checks the config file's value does
        if flag == "--epochs":
            in_file = write_config(tmp_path, training={"n": 1, "epochs": int(value), "measure_every": 50})
        else:
            in_file = write_config(tmp_path, base_seed=int(value))
        out = tmp_path / "o"
        assert main(["train", "--config", str(in_file), "--out", str(out)]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("config error: ") and expected.count("\n") == 1
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path):
        config = write_config(tmp_path, hidden=0)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        rc = main(["train", "--config", str(config), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_short_of_three_snapshots_exits_2_before_writing(self, tmp_path, capsys):
        config = write_config(tmp_path)  # measure_every 50
        out = tmp_path / "o"
        rc = main(["train", "--config", str(config), "--out", str(out), "--epochs", "99"])
        assert rc == 2
        assert "a peak report needs 3 measurements" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_too_many_aborts_exit_1(self, tmp_path, monkeypatch):
        def fake_run_experiment(config, jobs=1):
            return [
                RunResult(seed=config.base_seed + k, series=[], final_params=None,
                          aborted=True, abort_reason="x")
                for k in range(config.num_runs)
            ]

        monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
        config = write_config(tmp_path)
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_lost_worker_exits_3_naming_the_runs_in_the_pool(self, tmp_path, monkeypatch, capfd):
        # both runs' batches were in the pool when a worker died
        monkeypatch.setattr(experiment, "run_single", kill_own_worker)
        config = write_config(tmp_path)
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", "2"])
        err = capfd.readouterr().err
        assert rc == 3
        assert err.splitlines() == ["error: a worker process ended abruptly while the pool held runs [0, 1]"]

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capfd):
        def interrupted(config, run_indices, X):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "run_single", interrupted)
        config = write_config(tmp_path)
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 130
        assert capfd.readouterr().err.splitlines() == ["interrupted"]

    def test_interrupt_at_two_jobs_ends_the_running_batch(self, tmp_path, monkeypatch, capfd):
        # batch [0]'s interrupt reaches run_experiment while batch [1] runs:
        # the sweep ends its worker rather than wait a minute for it
        monkeypatch.setattr(experiment, "run_single", interrupt_batch_0)
        config = write_config(tmp_path)
        start = time.monotonic()
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", "2"])
        assert time.monotonic() - start < 30
        assert rc == 130
        assert capfd.readouterr().err.splitlines() == ["interrupted"]

    def test_ctrl_c_with_a_waiting_worker_exits_130(self, tmp_path):
        # a Ctrl-C reaches the whole process group while one worker runs
        # batch [1] and the other, done with batch [0], waits for a task:
        # neither prints a traceback, and none outlives the sweep
        script = textwrap.dedent(
            """
            import pathlib, sys, time
            import cdmonitor.experiment as experiment
            from cdmonitor.cli import main

            marker = pathlib.Path(sys.argv[1])
            real_run_single = experiment.run_single

            def run_single(config, run_indices, X):
                if run_indices[0] == 0:
                    results = real_run_single(config, run_indices, X)
                    marker.with_suffix(".run0").touch()
                    return results
                while not marker.with_suffix(".run0").exists():
                    time.sleep(0.01)
                marker.touch()
                time.sleep(120)

            experiment.run_single = run_single
            sys.exit(main(sys.argv[2:]))
            """
        )
        src = str(Path(cli.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        marker = tmp_path / "marker"
        argv = ["train", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o"), "--jobs", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(marker), *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert marker.exists(), proc.poll()
            time.sleep(0.1)  # the idle worker is back in its wait for a task
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 130
            assert err.splitlines() == ["interrupted"]
            deadline = time.monotonic() + 10
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _group_alive(proc.pid)
        finally:
            if _group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


class TestSampleCommand:
    @pytest.fixture()
    def params_file(self, tmp_path):
        config = write_config(tmp_path, num_runs=1)
        out = tmp_path / "train_out"
        main(["train", "--config", str(config), "--out", str(out)])
        return out / "params_run_00.txt"

    def test_samples_written_in_dataset_format(self, tmp_path, params_file):
        out = tmp_path / "samples.txt"
        rc = main(
            ["sample", "--params", str(params_file), "--count", "30", "--out", str(out),
             "--seed", "5", "--burn-in", "20", "--thin", "2"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# name=samples visible=16 n=30"
        assert len(lines) == 31 and all(len(ln) == 16 and set(ln) <= {"0", "1"} for ln in lines[1:])

    def test_fixed_seed_reproduces_bytes(self, tmp_path, params_file):
        outs = []
        for name in ("s1.txt", "s2.txt"):
            out = tmp_path / name
            main(["sample", "--params", str(params_file), "--count", "10",
                  "--out", str(out), "--seed", "77", "--burn-in", "10", "--thin", "1"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_params_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0.0 0.0 0.0\n0.0 0.0\n")
        rc = main(["sample", "--params", str(bad), "--count", "3",
                   "--out", str(tmp_path / "s.txt")])
        assert rc == 2

    def test_missing_params_file_exits_2_naming_it(self, tmp_path, capsys):
        missing, out = tmp_path / "nope.txt", tmp_path / "s.txt"
        rc = main(["sample", "--params", str(missing), "--count", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read params file") and str(missing) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("token", ["nan", "1e999"])
    def test_non_finite_params_exit_2_naming_the_file(self, tmp_path, capsys, token):
        bad, out = tmp_path / "bad.txt", tmp_path / "s.txt"
        bad.write_text(f"2 1\n0.5 {token}\n0.0 0.0\n0.0\n")
        rc = main(["sample", "--params", str(bad), "--count", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: parameters contain NaN or Inf\n"
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys, params_file):
        out = tmp_path / "s.txt"
        rc = main(["sample", "--params", str(params_file), "--count", "3", "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--count", "0")])
    def test_missing_params_file_is_reported_before_a_bad_value(self, tmp_path, capsys, flag, value):
        missing, out = tmp_path / "nope.txt", tmp_path / "s.txt"
        rc = main(["sample", "--params", str(missing), "--count", "3", "--out", str(out), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read params file") and str(missing) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--count", "0", "count must be >= 1, got 0"),
        ("--burn-in", "-1", "burn_in must be >= 0, got -1"),
        ("--thin", "0", "thin must be >= 1, got 0"),
    ])
    def test_bad_chain_arguments_exit_2(self, tmp_path, capsys, params_file, flag, value, message):
        out = tmp_path / "s.txt"
        rc = main(["sample", "--params", str(params_file), "--count", "3", "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_refused_allocation_exits_2(self, tmp_path, capsys):
        # 10^15 samples of 16 float64 bits are 114 PiB, which numpy refuses
        # before it touches any memory
        params, out = tmp_path / "params.txt", tmp_path / "s.txt"
        write_params_file(params, init_params(16, 8, np.random.default_rng(3), 1.0))
        rc = main(["sample", "--params", str(params), "--count", str(10**15), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dataset, digest", [
        ("bs", "35d569044188be47e52c1c7738e89ba933b84728f160c4ab55baf974d05c53a9"),
        ("lse", "d33291973a296d09c0df2a389b02fbeba5aaa5668191a79d568e9185703217d1"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, dataset, digest):
        # weights of std 1 keep the chain mixing over many states
        params, out = tmp_path / "params.txt", tmp_path / "s.txt"
        visible = build_dataset(default_config(dataset)).visible_len
        _, hidden, _ = DATASET_LAYOUTS[dataset]
        write_params_file(params, init_params(visible, hidden, np.random.default_rng(3), 1.0))
        rc = main(["sample", "--params", str(params), "--count", "200", "--burn-in", "50",
                   "--thin", "3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, environment()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command started its work before checking its output location")


class TestOutputLocation:
    """An output location that cannot be written exits 2 with one error
    line naming it, before the command does any work."""

    def assert_rejected(self, capsys, rc, path):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_dataset_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_dataset", _must_not_run)
        out = tmp_path / "missing" / "bs.txt"
        self.assert_rejected(capsys, main(["dataset", "bs", str(out)]), out.parent)
        assert not out.parent.exists()

    def test_dataset_onto_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_dataset", _must_not_run)
        self.assert_rejected(capsys, main(["dataset", "bs", str(tmp_path)]), tmp_path)

    def test_sample_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        params, out = tmp_path / "params.txt", tmp_path / "missing" / "s.txt"
        write_params_file(params, init_params(16, 8, np.random.default_rng(3), 1.0))
        monkeypatch.setattr(cli, "generate_samples", _must_not_run)
        rc = main(["sample", "--params", str(params), "--count", "3", "--out", str(out)])
        self.assert_rejected(capsys, rc, out.parent)
        assert not out.parent.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_train_into_an_existing_file(self, tmp_path, capsys, monkeypatch, under_file):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        config, blocker = write_config(tmp_path), tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "sub" if under_file else blocker
        rc = main(["train", "--config", str(config), "--out", str(out)])
        self.assert_rejected(capsys, rc, blocker)
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["dataset", "sample", "train"])
    def test_name_the_os_refuses(self, tmp_path, capsys, monkeypatch, command):
        # a file-name component longer than the 255 bytes Linux and macOS allow
        for work in ("build_dataset", "generate_samples", "run_experiment"):
            monkeypatch.setattr(cli, work, _must_not_run)
        params, out = tmp_path / "params.txt", tmp_path / ("o" * 300)
        write_params_file(params, init_params(16, 8, np.random.default_rng(3), 1.0))
        argv = {
            "dataset": ["dataset", "bs", str(out)],
            "sample": ["sample", "--params", str(params), "--count", "3", "--out", str(out)],
            "train": ["train", "--config", str(write_config(tmp_path)), "--out", str(out)],
        }[command]
        before = sorted(tmp_path.iterdir())
        self.assert_rejected(capsys, main(argv), out)
        assert sorted(tmp_path.iterdir()) == before


# Functions that bench/layers.py reads spans of, by "module.function".  Its
# tracer wraps each one where it is defined and in every cdmonitor module
# that imports it by name, so a function the commands stop calling that
# way leaves a per-layer metric NaN, or a division by zero time.
TRACED = [
    "training.train_epoch",
    "training.apply_update",
    "rbm.hidden_conditional_mean",
    "rbm.visible_conditional_mean",
    "rbm.sample_bernoulli",
    "rbm.run_gibbs_chain",
    "rbm.log_unnormalized_marginal",
    "criteria.log_partition",
    "criteria.mean_reconstruction_log_prob",
    "experiment.run_single",
    "experiment._measure",
    "experiment.generate_samples",
]
# Those whose spans give the batch-1 and per-round figures, which only the
# `sample` command calls at batch size 1.
SAMPLE_TRACED = [
    "rbm.hidden_conditional_mean",
    "rbm.visible_conditional_mean",
    "rbm.sample_bernoulli",
    "rbm.run_gibbs_chain",
    "experiment.generate_samples",
]


def test_train_and_sample_call_every_traced_function_by_name(tmp_path, monkeypatch):
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "cdmonitor"]
    calls = dict.fromkeys(TRACED, 0)
    for qualified in TRACED:
        layer, attr = qualified.split(".")
        original = getattr(importlib.import_module(f"cdmonitor.{layer}"), attr)

        def counted(*args, _name=qualified, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out), "--jobs", "1"]) == 0
    trained = dict(calls)
    sample_args = ["--count", "3", "--burn-in", "2", "--thin", "2", "--out", str(tmp_path / "s.txt")]
    assert main(["sample", "--params", str(out / "params_run_00.txt"), *sample_args]) == 0
    assert [name for name, n in calls.items() if n == 0] == []
    # train's calls must not stand in for a sampler that stopped making them
    assert [name for name in SAMPLE_TRACED if calls[name] == trained[name]] == []
