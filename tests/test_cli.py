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

    @pytest.mark.parametrize("line, bad, kind", [
        ("dims = 1.5", "1.5", "an int"), ("dims = 1, x", "x", "an int"),
        ("seed = abc", "abc", "an int"), ("particles = 2e3", "2e3", "an int"),
        ("seed =", "", "an int"), ("delta = half", "half", "a float"),
        ("epsilons = 0.5, 1/4", "1/4", "a float")])
    def test_conversion_error_names_line_and_key(self, line, bad, kind):
        key = line.split()[0]
        with pytest.raises(ValueError,
                           match=f"^line 2: {key} = '{bad}' is not {kind}$"):
            parse_config(f"# first\n{line}\n")

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

    @pytest.mark.parametrize("key, value", [
        ("mc_samples", 2.5), ("level_cap", 1.0), ("dims", [1.5]),
        ("dims", [1, 0])],
        ids=["mc_samples-2.5", "level_cap-1.0", "dims-1.5", "dims-0"])
    def test_non_integer_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer >= "):
            ExperimentConfig(**{key: value}).validate()

    # Each value would fail mid-run (in ParticleConfig, TestProblem,
    # theorem_pipeline, numpy's seeding or NoiseTree), so validation must
    # reject it up front.  At the
    # default horizon 0.1 the scaling suite's C_delta does not exist for
    # delta = 0.1, and at horizon 10 select_N finds no level; both used to
    # surface only after the other three suites had written their CSVs.
    @pytest.mark.parametrize("key, value", [
        ("partner_count", 0), ("seed_budget", 0), ("horizon", -1.0),
        ("horizon", float("nan")), ("level_cap", 4), ("delta", 0.1),
        ("horizon", 10.0), ("seed", -1), ("seed", 2 ** 64 - 1)])
    def test_run_breaking_value_rejected(self, key, value, tmp_path, capsys):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: value}).validate()
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")
        assert not list(tmp_path.glob("*.csv"))

    # The Sobol probe table ends at d = 32, so a larger d must fail before
    # any suite has written its CSV.
    @pytest.mark.parametrize("dims", ["33", "1, 40"])
    def test_dims_above_probe_table_rejected(self, dims, tmp_path, capsys):
        with pytest.raises(ValueError, match="^dims must be <= 32, got "):
            parse_config(f"dims = {dims}\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"dims = {dims}\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: dims must be <= 32")
        assert not list(tmp_path.glob("*.csv"))
        ExperimentConfig(dims=[32]).validate()


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

    # A negative seed used to pass validation and stop the run inside the
    # equivalence suite with a traceback and no CSV.
    def test_bad_seed_override_rejected(self, tmp_path, capsys):
        assert main(["--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an")
        assert not list(tmp_path.glob("*.csv"))

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


# The bytes of the bounds, convergence and scaling suites, written by the
# straightforward code they replaced: one particle run per bounds check, one
# estimator call per noise tree, and a bounded minimization for C_delta.
# equivalence.csv is left out: its max_rel_err digits depend on the BLAS
# kernel.
GOLDEN = """
dims = 1, 2
particles = 200
euler_steps = 10
partner_count = 8
mc_samples = 20
convergence_seeds = 2
seed = 11
"""


@pytest.mark.parametrize("suite", ["bounds", "convergence", "scaling"])
def test_suite_reproduces_golden_bytes(tmp_path, suite):
    path = tmp_path / "run.cfg"
    path.write_text(GOLDEN)
    main(["--config", str(path), "--suite", suite, "--out", str(tmp_path)])
    golden = Path(__file__).parent / "data" / f"{suite}.csv"
    assert (tmp_path / f"{suite}.csv").read_bytes() == golden.read_bytes()


def test_import_leaves_scipy_stats_and_optimize_unloaded(tmp_path):
    # Neither importing picardnet, nor computing the parameter bound, nor a
    # whole scaling-suite run (Sobol probe points included) may load
    # scipy.stats or scipy.optimize.
    src = os.path.dirname(os.path.dirname(picardnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 1, 2\nepsilons = 0.5\npoints = 64\n"
                   "seed_budget = 2\n")
    code = ("import sys, picardnet, picardnet.cli; "
            "picardnet.log_param_bound(1, 0.5, 0.5, 1.0, 1, 0.1); "
            "assert picardnet.cli.main(['--config', sys.argv[1], '--suite', "
            "'scaling', '--out', sys.argv[2]]) == 0; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(cfg),
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["PASS", "[]"]
    assert (tmp_path / "scaling.csv").exists()


def test_import_leaves_scipy_special_unloaded_until_the_first_draw():
    # scipy.special (ndtri) adds about 24 MB of RSS; only a Brownian draw
    # needs it, and a draw must then find it.  Queries whose every index is
    # 0, such as an estimate at t = 0, draw nothing and must not load it.
    src = os.path.dirname(os.path.dirname(picardnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, numpy as np, picardnet; "
            "from picardnet.noise import brownian_path_batch; "
            "print('scipy.special' in sys.modules); "
            "tree = picardnet.NoiseTree(master_seed=1, T=1.0, d=2, "
            "grid_levels=2, m=2); "
            "w = brownian_path_batch(tree, np.arange(1, 4, dtype=np.uint64), "
            "np.zeros(3, np.int64)); "
            "x = picardnet.mlp_estimate(picardnet.linear_problem(2), tree, "
            "(1,), 2, 2, 0.0, np.ones(2)); "
            "print('scipy.special' in sys.modules, w.any(), x.tolist()); "
            "w = picardnet.brownian_at(tree, (1,), 3); "
            "print('scipy.special' in sys.modules, w.shape)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["False", "False False [1.0, 1.0]",
                                "True (2,)"]
