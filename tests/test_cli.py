import os
import subprocess
import sys
from pathlib import Path

import pytest

import picardnet
from picardnet.cli import main
from picardnet.config import ExperimentConfig, parse_config

SMALL = """
# small deterministic run
problem = linear
dims = 1
epsilons = 0.5
delta = 0.5
seed = 3
particles = 400
euler_steps = 20
partner_count = 16
convergence_seeds = 4
mc_samples = 100
points = 64
"""


class TestConfigParsing:
    def test_roundtrip(self):
        cfg = parse_config(SMALL)
        assert cfg.problem == "linear"
        assert cfg.dims == [1]
        assert cfg.epsilons == [0.5]
        assert cfg.seed == 3
        assert cfg.particles == 400

    def test_lists(self):
        cfg = parse_config("dims = 1, 2, 3\nepsilons = 0.5, 0.25\n")
        assert cfg.dims == [1, 2, 3]
        assert cfg.epsilons == [0.5, 0.25]

    def test_comments_and_blanks(self):
        cfg = parse_config("\n# only a comment\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("unknown_key = 1\n")

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            parse_config("dims = \n")

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            ExperimentConfig(delta=1.5).validate()

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            ExperimentConfig(epsilons=[1.5]).validate()

    @pytest.mark.parametrize("key, value", [
        ("mc_samples", 0), ("particles", 1), ("level_cap", -1), ("points", 0),
        ("euler_steps", 0), ("convergence_seeds", 0)])
    def test_size_below_minimum_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: value}).validate()
        with pytest.raises(ValueError, match=key):
            parse_config(f"{key} = {value}\n")
        ExperimentConfig(**{key: value + 1}).validate()

    # Each value would fail mid-run (in ParticleConfig, TestProblem or
    # theorem_pipeline), so validation must reject it up front.
    @pytest.mark.parametrize("key, value", [
        ("partner_count", 0), ("seed_budget", 0), ("horizon", -1.0),
        ("horizon", float("nan"))])
    def test_run_breaking_value_rejected(self, key, value, tmp_path, capsys):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: value}).validate()
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")


class TestCli:
    def write_config(self, tmp_path, text=SMALL):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_usage_error_on_empty_dims(self, tmp_path):
        path = self.write_config(tmp_path, "dims =\n")
        assert main(["--config", path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2

    def test_scaling_suite_runs(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        code = main(["--config", path, "--suite", "scaling", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "scaling.csv"))
        assert "PASS" in capsys.readouterr().out

    def test_equivalence_suite_runs(self, tmp_path):
        path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--suite", "equivalence",
                     "--out", out]) == 0

    def test_deterministic_csv(self, tmp_path):
        path = self.write_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--config", path, "--suite", "scaling",
                     "--out", out1]) == 0
        assert main(["--config", path, "--suite", "scaling",
                     "--out", out2]) == 0
        with open(os.path.join(out1, "scaling.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, "scaling.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

    def test_seed_override_changes_output(self, tmp_path):
        path = self.write_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["--config", path, "--suite", "scaling", "--seed", "1",
              "--out", out1])
        main(["--config", path, "--suite", "scaling", "--seed", "2",
              "--out", out2])
        with open(os.path.join(out1, "scaling.csv")) as fh:
            first = fh.read()
        with open(os.path.join(out2, "scaling.csv")) as fh:
            second = fh.read()
        assert first != second


# The bytes of the straightforward suites: one particle run per bounds check
# and one estimator call per noise tree.  equivalence.csv is left out: its
# max_rel_err digits depend on the BLAS kernel.
GOLDEN = """
dims = 1, 2
particles = 200
euler_steps = 10
partner_count = 8
mc_samples = 20
convergence_seeds = 2
seed = 11
"""


@pytest.mark.parametrize("suite", ["bounds", "convergence"])
def test_suite_reproduces_golden_bytes(tmp_path, suite):
    path = tmp_path / "run.cfg"
    path.write_text(GOLDEN)
    main(["--config", str(path), "--suite", suite, "--out", str(tmp_path)])
    golden = Path(__file__).parent / "data" / f"{suite}.csv"
    assert (tmp_path / f"{suite}.csv").read_bytes() == golden.read_bytes()


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(picardnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, picardnet, picardnet.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
