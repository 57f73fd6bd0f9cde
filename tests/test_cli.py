"""End-to-end runs of the command line on real config files, and of the demos.

Every run launches ``python -m qoptools`` (or a demo script) with the
``qoptools`` package this test process imported first on PYTHONPATH, so the
tests exercise the tree under test whatever is installed.  The console script
declared in pyproject.toml is checked on its own in
test_console_script_installed.
"""
import ast
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qoptools
from qoptools.mathcore import hermitize, matrix_to_dict, random_mixed_state, random_pure_state

from test_qse import sic_povm

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = os.path.join(ROOT, "configs")
DEMOS = os.path.join(ROOT, "demos")
SUBCOMMANDS = ("qse-estimate", "qse-benchmark", "bell-lhv", "bell-optimize",
               "bell-efficiency", "qmp-solve", "qmp-sweep")
# bundled command configs are named after their subcommand
CONFIG_COMMANDS = {"bell_efficiency": "bell-efficiency", "bell_lhv": "bell-lhv",
                   "bell_optimize": "bell-optimize", "qmp_solve": "qmp-solve",
                   "qmp_sweep": "qmp-sweep", "qse_benchmark": "qse-benchmark",
                   "qse_estimate": "qse-estimate"}
# what a generated console script does: resolve "module:attr" and call it
ENTRY_POINT_LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "main = EntryPoint('qoptools', sys.argv.pop(1), 'console_scripts').load()\n"
    "sys.exit(main())\n"
)


def launch(argv):
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(qoptools.__file__)))
    pythonpath = [package_parent, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def run_cli(*args):
    return launch([sys.executable, "-m", "qoptools", *args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


def cfg(name):
    return os.path.join(CONFIGS, name)


def config_command(name):
    """Subcommand that a bundled config file is for, or None for a data file."""
    return next((c for prefix, c in CONFIG_COMMANDS.items() if name.startswith(prefix)), None)


def capped_ame44(tmp_path):
    """The bundled AME(4,4) config capped at 25 iterations; its D=256 state is a 4 MB result."""
    config = tmp_path / "ame44_25.json"
    config.write_text(json.dumps({**read_json(cfg("qmp_solve_ame44_slow.json")),
                                  "max_iterations": 25}))
    return str(config)


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qoptools"]
    launchers = [[sys.executable, "-c", ENTRY_POINT_LAUNCHER, target]]
    installed = shutil.which("qoptools")
    if installed is not None:
        launchers.append([installed])
    for argv in launchers:
        proc = launch([*argv, "--help"])
        assert proc.returncode == 0, proc.stderr
        for sub in SUBCOMMANDS:
            assert sub in proc.stdout


# runs four commands in-process, then bell-optimize; prints which scipy
# modules the four loaded, and what the gap search loaded
SCIPY_PROBE = """
import json, os, sys
import qoptools
from qoptools import cli

configs, out = sys.argv[1:]

def run(command, name):
    try:
        cli.main([command, "--config", os.path.join(configs, name),
                  "--out", os.path.join(out, command)], standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, (command, exc.code)

for command, name in [("qse-estimate", "qse_estimate_mub1.json"),
                      ("qmp-solve", "qmp_solve_ame43.json"),
                      ("bell-lhv", "bell_lhv_chsh.json"),
                      ("bell-efficiency", "bell_efficiency_chsh.json")]:
    run(command, name)
before = sorted(m for m in sys.modules if m.startswith("scipy"))
run("bell-optimize", "bell_optimize_chsh.json")
print(json.dumps({"before": before, "optimize": "scipy.optimize" in sys.modules,
                  "bindings": "scipy.optimize._highspy._core" in sys.modules}))
"""


def test_only_the_gap_search_imports_scipy(tmp_path):
    proc = launch([sys.executable, "-c", SCIPY_PROBE, CONFIGS, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["before"] == []
    assert seen["optimize"] is True
    assert seen["bindings"] is True


def _scipy_imports(node, where):
    """The qualified name of the function or class around every scipy import below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scipy_imports(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        yield from (where for name in modules if name.split(".")[0] == "scipy")
        yield from _scipy_imports(child, where)


def test_scipy_is_imported_in_one_place():
    # the gap search's HiGHS bindings are the package's only use of scipy
    package = os.path.dirname(qoptools.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                found += _scipy_imports(ast.parse(fh.read()), name[:-3])
    assert found == ["bell._highs"]


@pytest.mark.parametrize("demo", ["bell_gap_demo.py", "estimation_demo.py", "marginal_demo.py"])
def test_demo_runs(demo):
    proc = launch([sys.executable, os.path.join(DEMOS, demo)])
    assert proc.returncode == 0, proc.stderr


def test_bell_lhv_prints_bound(outdir):
    proc = run_cli("bell-lhv", "--config", cfg("bell_lhv_chsh.json"), "--out", outdir)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["command"] == "bell-lhv"
    assert result["bound"] == 0.0
    assert os.path.exists(os.path.join(outdir, "run_info.json"))


def test_qse_estimate_roundtrip(outdir):
    proc = run_cli("qse-estimate", "--config", cfg("qse_estimate_mub1.json"),
                   "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is True
    assert result["iterations"] == 2
    assert result["fidelity"] > 1 - 1e-8
    assert "state" in result


def test_qse_estimate_povm_config(tmp_path, outdir):
    gen = random_mixed_state(2, np.random.default_rng(78))
    povm = sic_povm()
    config = tmp_path / "povm.json"
    config.write_text(json.dumps({
        "measurements": [{"kind": "povm",
                          "effects": [matrix_to_dict(e) for e in povm.effects]}],
        "frequencies": [qoptools.qse.born_probabilities(gen, povm).tolist()],
        "reference": matrix_to_dict(gen.matrix),
    }))
    proc = run_cli("qse-estimate", "--config", str(config), "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is True
    assert result["fidelity"] > 1 - 1e-12


def test_qse_estimate_pauli_protocol_at_zero_epsilon(tmp_path, outdir):
    gen = random_mixed_state((2, 2), np.random.default_rng(79))
    meas = qoptools.qse.measurement_protocol(2, "pauli")
    config = tmp_path / "pauli.json"
    config.write_text(json.dumps({
        "measurements": {"protocol": "pauli", "qubits": 2},
        "frequencies": [qoptools.qse.born_probabilities(gen, m).tolist() for m in meas],
        "epsilon": 0,
    }))
    proc = run_cli("qse-estimate", "--config", str(config), "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is True
    assert result["iterations"] == 2
    assert result["residual"] == 0.0


def test_qse_estimate_mub_protocol_at_zero_epsilon(tmp_path, outdir):
    # the dense passes still move by rounding past the fixed point; the rounding floor stops them
    gen = random_mixed_state((2, 2), np.random.default_rng(80))
    meas = qoptools.qse.measurement_protocol(2, "mub")
    freqs = qoptools.qse.simulate_frequencies(gen, meas, qoptools.qse.NoiseModel(0.1, 400), 80)
    config = tmp_path / "mub.json"
    config.write_text(json.dumps({
        "measurements": {"protocol": "mub", "qubits": 2},
        "frequencies": [f.tolist() for f in freqs],
        "epsilon": 0,
    }))
    proc = run_cli("qse-estimate", "--config", str(config), "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is True
    assert result["iterations"] <= 4


def test_dump_state_false_leaves_the_state_out(tmp_path, outdir):
    config = tmp_path / "est.json"
    config.write_text(json.dumps(
        {**read_json(cfg("qse_estimate_mub1.json")), "dump_state": False}))
    proc = run_cli("qse-estimate", "--config", str(config), "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    assert "state" not in read_json(os.path.join(outdir, "result.json"))


def test_qse_benchmark_small(tmp_path, outdir):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(
        {"protocol": "mub", "qubits": 1, "trials": 4, "white_noise": 0.1}))
    proc = run_cli("qse-benchmark", "--config", str(config), "--out", outdir, "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["trials"] == 4
    assert 0.9 < result["mean_fidelity"] <= 1.0
    assert result["seed"] == 5
    # phase timings vary from run to run, so they stay out of result.json
    info = read_json(os.path.join(outdir, "run_info.json"))
    for key in ("protocol_seconds", "trials_seconds"):
        assert info[key] >= 0.0
        assert key not in result


def test_qse_benchmark_seed_matters(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(
        {"protocol": "mub", "qubits": 1, "trials": 3, "white_noise": 0.1}))
    fid = {}
    for seed in ("0", "1"):
        out = str(tmp_path / f"out{seed}")
        proc = run_cli("qse-benchmark", "--config", str(config), "--out", out,
                       "--seed", seed)
        assert proc.returncode == 0
        fid[seed] = read_json(os.path.join(out, "result.json"))["mean_fidelity"]
    assert fid["0"] != fid["1"]


def test_bell_optimize_small(tmp_path, outdir):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps(
        {"counts": os.path.abspath(cfg("chsh_counts.json")), "trials": 3}))
    proc = run_cli("bell-optimize", "--config", str(config), "--out", outdir,
                   "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["ratio"] > 1.0
    assert result["quantum"] > result["classical"]
    assert set(result) == {"ratio", "quantum", "error", "classical", "inequality", "printed",
                           "command", "seed"}
    # what the search did goes to the sidecar only
    info = read_json(os.path.join(outdir, "run_info.json"))
    assert info["lp_rounds"] >= 1
    assert info["norm_cuts"] == info["lp_rounds"] - 1
    assert 0 <= info["stabilized_cuts"] <= info["norm_cuts"]
    assert abs(info["upper_bound"] - info["certificate_gap"] - result["ratio"]) < 1e-12
    assert -1e-9 <= info["certificate_gap"] <= 1e-8
    assert info["round_cap_hit"] is False
    assert info["zero_inequality"] is False
    assert "zero inequality" not in proc.stderr
    assert 0.0 < info["lp_seconds"] <= info["runtime_seconds"]
    assert 0.0 < info["first_lp_seconds"] <= info["lp_seconds"]


def test_bell_optimize_without_the_highs_bindings_exits_one(monkeypatch, outdir):
    # an older scipy, or one that moved the private bindings: None in
    # sys.modules makes the import inside bell._highs() fail
    from click.testing import CliRunner

    from qoptools import cli

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    res = CliRunner().invoke(cli.main, ["bell-optimize", "--config", cfg("bell_optimize_chsh.json"),
                                        "--out", outdir])
    assert res.exit_code == 1
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "scipy >= 1.15" in errors[0], res.stderr
    assert "Traceback" not in res.stderr
    assert not os.path.exists(os.path.join(outdir, "result.json"))


def test_bell_optimize_refuses_a_large_scenario_before_allocating(tmp_path, outdir):
    # (m, d) = (10, 8): the cell arrays of the gap search would take about 1 GB
    import tracemalloc

    from click.testing import CliRunner

    from qoptools import bell, cli

    config = tmp_path / "large.json"
    config.write_text(json.dumps(
        {"counts": bell.counts_to_dict(bell.CountsTable(np.ones((10, 10, 8, 8))))}))
    tracemalloc.start()
    try:
        res = CliRunner().invoke(cli.main, ["bell-optimize", "--config", str(config),
                                            "--out", outdir])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 1
    assert "exceed the gap search guard" in res.stderr
    assert peak < 50e6


def test_bell_optimize_converging_on_the_last_round_is_not_capped(monkeypatch, outdir):
    # in-process, so the round cap can be cut to the two rounds the bundled search needs
    from click.testing import CliRunner

    from qoptools import bell, cli

    monkeypatch.setattr(bell, "GAP_ROUND_CAP", 2)
    res = CliRunner().invoke(cli.main, ["bell-optimize", "--config", cfg("bell_optimize_chsh.json"),
                                        "--out", outdir])
    assert res.exit_code == 0, res.stderr
    info = read_json(os.path.join(outdir, "run_info.json"))
    assert info["lp_rounds"] == 2
    assert info["certificate_gap"] <= bell.GAP_TOL
    assert info["round_cap_hit"] is False
    assert "LP rounds" not in res.stderr


def test_bell_optimize_reports_the_zero_inequality(tmp_path, outdir):
    # one deterministic strategy: no inequality beats its LHV bound
    counts = {"m": 2, "d": 2, "counts": {f"{x},{y}": [[1000, 0], [0, 0]]
                                         for x in range(2) for y in range(2)}}
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({"counts": counts}))
    proc = run_cli("bell-optimize", "--config", str(config), "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    assert read_json(os.path.join(outdir, "result.json"))["ratio"] == 1.0
    assert read_json(os.path.join(outdir, "run_info.json"))["zero_inequality"] is True
    assert "zero inequality" in proc.stderr


def test_bell_efficiency(outdir):
    proc = run_cli("bell-efficiency", "--config", cfg("bell_efficiency_chsh.json"),
                   "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert abs(result["threshold"] - 0.8284271247461903) < 1e-9
    assert result["mode"] == "symmetric"


def test_qmp_solve_writes_trajectory(outdir):
    proc = run_cli("qmp-solve", "--config", cfg("qmp_solve_ame43.json"),
                   "--out", outdir, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is True
    assert result["final"]["total_dist"] < 1e-6
    csv = os.path.join(outdir, "trajectory.csv")
    with open(csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,marginal_dist,spectral_dist,total_dist"
    assert len(lines) >= 3
    last = lines[-1].split(",")
    assert int(last[0]) == result["iterations"]
    assert float(last[3]) == result["final"]["total_dist"]
    info = read_json(os.path.join(outdir, "run_info.json"))
    assert info["warm_eigensteps"] == result["iterations"] - 1
    assert info["eigh_fallbacks"] == 0
    assert info["write_seconds"] >= 0.0
    assert "write_seconds" not in result
    assert "eigensteps were rejected" not in proc.stderr


def test_qmp_solve_reports_eigh_fallbacks(monkeypatch, outdir):
    # in-process, so the warm step can be cut to one Krylov block: every warm step falls back
    from click.testing import CliRunner

    from qoptools import cli, qmp

    monkeypatch.setattr(qmp, "KRYLOV_BLOCKS", 1)
    res = CliRunner().invoke(cli.main, ["qmp-solve", "--config", cfg("qmp_solve_pure3.json"),
                                        "--out", outdir])
    assert res.exit_code == 0, res.stderr
    result = read_json(os.path.join(outdir, "result.json"))
    info = read_json(os.path.join(outdir, "run_info.json"))
    assert info["warm_eigensteps"] == 0
    assert info["eigh_fallbacks"] == result["iterations"] - 1 > 0
    lines = [ln for ln in res.stderr.splitlines() if "eigensteps were rejected" in ln]
    assert len(lines) == 1
    assert "warm_eigensteps" not in result and "eigh_fallbacks" not in result


def test_qmp_solve_degenerate_iterate_keeps_trajectory(tmp_path, outdir):
    # full momentum on the infeasible AME(4,2) prescription overflows after a few hundred sweeps
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({**read_json(cfg("qmp_solve_ame42.json")),
                                  "schedule": {}, "max_iterations": 2000}))
    proc = run_cli("qmp-solve", "--config", str(config), "--out", outdir, "--seed", "0")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # stopped before the norm overflow warns
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "diverged" in errors[0]
    assert not os.path.exists(os.path.join(outdir, "result.json"))
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,marginal_dist,spectral_dist,total_dist"
    steps = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert steps == list(range(1, len(steps) + 1)) and 1 < len(steps) < 2000


def test_qmp_solve_unconverged_exit_two(outdir):
    proc = run_cli("qmp-solve", "--config", cfg("qmp_solve_ame42.json"),
                   "--out", outdir)
    assert proc.returncode == 2
    result = read_json(os.path.join(outdir, "result.json"))
    assert result["converged"] is False
    assert result["final"]["total_dist"] > 1e-2
    assert os.path.exists(os.path.join(outdir, "trajectory.csv"))


def test_qmp_sweep_threads_invariant(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(
        {"N": 4, "k": 2, "d": 2, "m_values": [0, 2, 4], "trials": 20,
         "generator": "full-rank"}))
    results = {}
    for threads in ("1", "3"):
        out = str(tmp_path / f"out{threads}")
        proc = run_cli("qmp-sweep", "--config", str(config), "--out", out,
                       "--seed", "7", "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out, "result.json"), "rb") as fh:
            results[threads] = fh.read()
    assert results["1"] == results["3"]
    table = read_json(os.path.join(str(tmp_path / "out1"), "result.json"))["table"]
    assert table[0] == [0, 20]


def test_reruns_are_byte_identical(tmp_path):
    pauli3 = tmp_path / "pauli3.json"
    pauli3.write_text(json.dumps({"protocol": "pauli", "qubits": 3, "trials": 3}))
    for command, config in [("bell-lhv", cfg("bell_lhv_chsh.json")),
                            ("bell-optimize", cfg("bell_optimize_chsh.json")),
                            ("qmp-solve", cfg("qmp_solve_pure3.json")),
                            ("qse-benchmark", cfg("qse_benchmark_mub1.json")),
                            ("qse-benchmark", str(pauli3))]:
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / "out" / os.path.basename(config) / name)
            proc = run_cli(command, "--config", config, "--out", out, "--seed", "0")
            assert proc.returncode == 0
            with open(os.path.join(out, "result.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1], config


def test_pauli_benchmark_at_eight_qubits_stays_small(tmp_path):
    # dense bases alone would take 3^8 * 2^8 * 2^8 * 16 bytes = 6.9 GB; measured from a
    # fresh parent process, whose only child is the CLI run
    config = tmp_path / "pauli8.json"
    config.write_text(json.dumps({"protocol": "pauli", "qubits": 8, "trials": 2}))
    measure = ("import resource, subprocess, sys\n"
               "code = subprocess.run(sys.argv[1:]).returncode\n"
               "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = launch([sys.executable, "-c", measure, sys.executable, "-m", "qoptools",
                   "qse-benchmark", "--config", str(config), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    code, max_rss_kb = map(int, proc.stdout.split()[-2:])
    assert code == 0, proc.stderr
    assert max_rss_kb < 300 * 1024


def first_difference(got: str, want: str) -> str:
    """Where two texts first differ, with about 80 characters of context from each.

    A failed `assert got == want` on a 4 MB state makes pytest diff the
    whole texts for minutes; asserting a precomputed flag with this
    message reports the same failure at once.
    """
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:  # got[:lo] == want[:lo]; bisect with slice compares, not a loop per character
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(lo - 40, 0)
    return (f"texts of {len(got)} and {len(want)} characters first differ at offset {lo}: "
            f"got {got[start:lo + 40]!r}, want {want[start:lo + 40]!r}")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIGS) if config_command(n)))
def test_bundled_results_are_json_indent_2_text(tmp_path, name):
    # float repr round-trips exactly, so re-encoding the parsed file must give it back
    from click.testing import CliRunner

    from qoptools import cli

    config = capped_ame44(tmp_path) if name == "qmp_solve_ame44_slow.json" else cfg(name)
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, [config_command(name), "--config", config,
                                        "--out", str(out), "--seed", "1"])
    assert res.exit_code in (0, 2), res.stderr
    text = (out / "result.json").read_text()
    # strict JSON: NaN, Infinity and -Infinity are refused
    parsed = json.loads(text, parse_constant=lambda name: pytest.fail(f"result.json holds {name}"))
    want = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    same = text == want
    assert same, first_difference(text, want)


NAN, INF = float("nan"), float("inf")
WRITER_CASES = {
    "awkward_floats": [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1e308, -1e308, 2.0**-1074],
    "overflowing_sum": [1e308, 1e308, -0.5],
    "ints_in_float_list": [1.0, 2, 3.5, -4],
    "scalars": [True, False, None, 0, -7, "x", 2**70],
    "top_level_float": 0.1,
    "top_level_string": "a\"b\n\u00e9",
    "tuples": {"pair": (1.0, 2.0), "rows": ((0.5,), (0.25, "s"))},
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]},
    "float_rows": {"b": [[0.5, -0.25], [1e-300, 3.0]], "a": [[1.0]]},
    "non_ascii": {"ключ": "значение", "é": ["ü", "\u2603"], "b": 1, "A": None},
    "numpy_floats": [np.float64(0.1), np.float64(-2.0), 1.5, np.float64(1e300)],
    "only_numpy_floats": [np.float64(0.1), np.float64(2.0)],
    "random_64x64_state": matrix_to_dict(random_mixed_state(64, 9).matrix),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_write_json_matches_json_dumps(tmp_path, case):
    from qoptools import cli

    obj = WRITER_CASES[case]
    path = tmp_path / "out.json"
    cli._write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# NaN and infinities are not JSON: the writer refuses them as json.dumps(allow_nan=False) does
NONFINITE_CASES = {
    "nonfinite_in_float_list": {"row": [1.0, NAN, 2.5]},
    "infinities_in_float_list": {"ends": [INF, -INF]},
    "top_level_nan": NAN,
    "nan_scalar_in_dict": {"a": [[0.5, 1.0]], "b": NAN},
    "numpy_nan": [np.float64(0.1), np.float64(NAN), 1.5],
}


@pytest.mark.parametrize("case", NONFINITE_CASES)
def test_write_json_refuses_non_finite_floats(tmp_path, case):
    from qoptools import cli

    obj = NONFINITE_CASES[case]
    with pytest.raises(ValueError):
        json.dumps(obj, allow_nan=False)
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), obj)
    assert not path.exists()  # nothing is written before the text is complete


def _hermitian_awkward():
    """Entries -0.0, 5e-324, 1e16, 1e-5 and 1e308 on both sides of the diagonal, signs mixed."""
    re = np.array([[1e308, 5e-324, -1e16], [5e-324, -0.0, 1e-5], [-1e16, 1e-5, 0.0]])
    im = np.array([[0.0, -1e-5, 5e-324], [1e-5, -0.0, -1e308], [-5e-324, 1e308, 0.0]])
    return re + 1j * im


def _with_im(re, im):
    m = np.array(re, dtype=complex)
    m.imag = im
    return m


MATRIX_CASES = {
    "rank1_hermitian_256": hermitize(random_pure_state(256, np.random.default_rng(11)).matrix),
    "random_non_hermitian": (lambda rng: rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))(
        np.random.default_rng(12)),
    "awkward_hermitian": _hermitian_awkward(),
    "awkward_non_hermitian": _hermitian_awkward()[:, [1, 0, 2]],
    "one_by_one": np.array([[complex(-0.0, 0.25)]]),
    "hermitian_plus_zero_im_both_sides": _with_im([[1.0, 2.0], [2.0, -3.0]], [[0, 0.0], [0.0, 0]]),
    "hermitian_signed_zero_im_pair": _with_im([[1.0, 2.0], [2.0, -3.0]], [[0, 0.0], [-0.0, 0]]),
    "real_dtype": np.array([[0.5, -1e-5], [-1e-5, 0.5]]),
    "empty": np.zeros((0, 0), dtype=complex),
}


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_write_json_encodes_a_matrix_as_matrix_to_dict(tmp_path, case):
    # the state is written straight from its array, as the text of its reference encoding
    from qoptools import cli

    m = MATRIX_CASES[case]
    # the Hermitian cases take the path that formats one triangle of each part
    mirrored = all(np.array_equal(abs(p), abs(p).T) for p in (m.real, m.imag))
    assert mirrored == (case not in ("random_non_hermitian", "awkward_non_hermitian"))
    path = tmp_path / "out.json"
    cli._write_json(str(path), {"state": m, "converged": True})
    want = json.dumps({"state": matrix_to_dict(m), "converged": True}, sort_keys=True, indent=2)
    want += "\n"
    text = path.read_text()
    same = text == want
    assert same, first_difference(text, want)


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0.0, NAN), complex(1.0, -INF)])
def test_write_json_refuses_a_non_finite_matrix(tmp_path, bad):
    from qoptools import cli

    m = MATRIX_CASES["awkward_hermitian"].copy()
    m[1, 2] = bad
    with pytest.raises(ValueError):
        json.dumps(matrix_to_dict(m), allow_nan=False)
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"state": m})
    assert not path.exists()


def test_non_finite_result_exits_one_without_a_result_file(tmp_path, monkeypatch):
    from click.testing import CliRunner

    from qoptools import bell, cli

    monkeypatch.setattr(bell, "lhv_bound", lambda ineq: float("nan"))
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, ["bell-lhv", "--config", cfg("bell_lhv_chsh.json"),
                                        "--out", str(out)])
    assert res.exit_code == 1
    assert res.stderr.splitlines()[-1].startswith("error:")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("obj", [{1: [0.5, 1.0], 0: "a"}, {"a": [1.0, 2.0], "b": {3: 4}}])
def test_write_json_rejects_non_str_keys(tmp_path, obj):
    from qoptools import cli

    with pytest.raises(TypeError):
        cli._write_json(str(tmp_path / "out.json"), obj)


def test_missing_config_exits_one(outdir):
    proc = run_cli("bell-lhv", "--config", "/nonexistent/nope.json", "--out", outdir)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_malformed_json_exits_one(tmp_path, outdir):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    proc = run_cli("bell-lhv", "--config", str(config), "--out", outdir)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# global dimension 2^17: a dense D x D matrix of it would take 128 GiB
OVERSIZED_MARGINAL_PROBLEMS = [
    ("qmp-sweep", {"N": 17, "d": 2, "k": 2, "m_values": [1], "trials": 1}),
    ("qmp-solve", {"N": 17, "d": 2, "constraint": {"rank": 1},
                   "targets": [{"subset": [0, 1], "state": "maximally-mixed"}]}),
]


def test_oversized_marginal_problems_are_refused_before_allocating(tmp_path):
    # with the address space capped at 1 GiB, an allocation of the problem's
    # size ends in a MemoryError traceback instead of the guard's error line
    cap = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    for i, (command, body) in enumerate(OVERSIZED_MARGINAL_PROBLEMS):
        config = tmp_path / f"oversized{i}.json"
        config.write_text(json.dumps(body))
        proc = launch([sys.executable, "-c", cap + "from qoptools.cli import main\nmain()",
                       command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1, proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last == "error: global dimension 2^17 exceeds the guard of 8192"


def test_wrong_schema_exits_one(tmp_path, outdir):
    pure3 = read_json(cfg("qmp_solve_pure3.json"))
    mub1 = read_json(cfg("qse_estimate_mub1.json"))
    chsh = read_json(cfg("chsh.json"))
    sweep = {"N": 4, "k": 2, "d": 2, "trials": 2}
    nan_behavior = read_json(cfg("chsh_behavior.json"))
    nan_behavior["behavior"]["0,0"][0][0] = float("nan")
    # each JSON true below would otherwise read as 1.0 and give a valid input
    bool_counts = read_json(cfg("chsh_counts.json"))
    bool_counts["counts"]["0,0"] = [[1, True], [0, 0]]
    bool_behavior = read_json(cfg("chsh_behavior.json"))
    bool_behavior["behavior"]["0,0"] = [[True, 0], [0, 0]]
    bool_joint = read_json(cfg("chsh.json"))
    bool_joint["joint"][0][0][0][0] = True
    zero = [[0, 0], [0, 0]]
    proj0, proj1 = ({"dim": 2, "re": [[1 - b, 0], [0, b]], "im": zero} for b in (0, 1))
    bool_proj0 = {**proj0, "re": [[True, 0], [0, 0]]}
    cases = [
        ("bell-lhv", {"m": 2}),  # no usable inequality payload
        ("bell-lhv", [1, 2]),
        ("qmp-solve", {**pure3, "schedule": {"bogus": 1}}),
        ("qse-benchmark", {"protocol": "mub", "qubits": 1, "trials": None}),
        ("qmp-sweep", {**sweep, "m_range": None}),
        ("qmp-sweep", {**sweep, "m_values": 3}),
        ("qmp-solve", {**pure3, "targets": None}),
        ("qmp-solve", {**pure3, "constraint": None}),
        ("qmp-solve", {**pure3, "constraint": {"spectra": None}}),
        ("qse-estimate", {**mub1, "measurements": 3}),
        ("qse-estimate", {**mub1, "frequencies": None}),
        ("qse-estimate", {**mub1, "measurements": [{"effects": None}]}),
        ("qse-benchmark", {"protocol": "mub", "qubits": 1, "trials": 1}),
        ("qse-benchmark", {"protocol": "mub", "qubits": 1, "trials": 0}),
        ("qse-benchmark", {"protocol": "mub", "qubitz": 1, "trials": 2}),
        ("qmp-solve", {**pure3, "max_iteration": 10}),
        ("qmp-solve", {**pure3, "accuracy": float("nan")}),  # json writes NaN
        ("qmp-solve", {**pure3, "schedule": {"alpha": float("nan")}}),
        ("qmp-solve", {**pure3, "schedule": {"exponent": float("inf")}}),  # Infinity
        ("qmp-solve", {**pure3, "N": float("inf")}),
        ("qse-estimate", {**mub1, "max_iters": float("inf")}),
        ("qse-estimate", {**mub1, "frequencies": [[float("nan"), 1.0]] + mub1["frequencies"][1:]}),
        ("bell-lhv", {"inequality": {**chsh, "m": float("inf")}}),
        ("bell-lhv", {"inequality": {**chsh, "bound": float("nan")}}),
        ("qse-estimate", {**mub1, "dump_state": "no"}),
        ("qmp-solve", {**pure3, "identity_seed": "false"}),
        ("bell-efficiency", {"inequality": chsh, "behavior": nan_behavior, "mode": "asymmetricB1"}),
        ("bell-efficiency", {"inequality": chsh, "behavior": nan_behavior, "mode": "symmetric"}),
        # integer entries are JSON integers (or integral floats), never truncated or coerced
        ("qse-benchmark", {"protocol": "pauli", "qubits": 2.5, "trials": 2}),
        ("qse-benchmark", {"protocol": "pauli", "qubits": "3", "trials": 2}),
        ("qse-benchmark", {"protocol": "pauli", "qubits": True, "trials": 2}),
        ("qse-benchmark", {"protocol": "mub", "qubits": 1, "trials": 2.5}),
        ("qse-estimate", {**mub1, "max_iters": 2.5}),
        ("qse-estimate", {**mub1, "max_iters": "3"}),
        ("qse-estimate", {**mub1, "max_iters": True}),
        ("qse-estimate", {**mub1, "measurements": {"protocol": "mub", "qubits": 1.5}}),
        ("qse-estimate", {**mub1, "measurements": {"protocol": "mub", "qubits": "1"}}),
        ("qse-estimate", {**mub1, "measurements": {"protocol": "mub", "qubits": True}}),
        ("qmp-solve", {**pure3, "max_iterations": 2.5}),
        ("qmp-solve", {**pure3, "N": 3.5}),
        ("bell-lhv", {"inequality": {**chsh, "m": 2.5}}),
        ("bell-efficiency", {"inequality": chsh, "behavior": {**read_json(cfg("chsh_behavior.json")),
                                                              "d": "2"}}),
        ("qmp-solve", {**pure3, "constraint": {"rank": True}}),
        ("qmp-solve", {**pure3, "targets": [{**pure3["targets"][0], "subset": [0, "1"]}]}),
        ("qmp-sweep", {**sweep, "m_values": [0, 2.5]}),
        ("qmp-solve", {**pure3, "schedule": {"alpha": 1.0}}),  # alpha has no effect
        # tables are objects keyed by "x,y"; targets and the m list are non-empty
        ("bell-optimize", {"counts": {"m": 1, "d": 2, "counts": [[[1, 2], [3, 4]]]}}),
        ("bell-efficiency", {"inequality": chsh, "behavior": {"m": 1, "d": 2,
                                                              "behavior": [[[0.5, 0], [0, 0.5]]]}}),
        ("qmp-solve", {**pure3, "targets": []}),
        ("qmp-sweep", {**sweep, "m_range": [3, 1]}),
        # at least one iteration; a bound that overflows to inf is not JSON
        ("qmp-solve", {**pure3, "max_iterations": 0}),
        ("qmp-solve", {**pure3, "max_iterations": -5}),
        ("bell-lhv", {"inequality": {**chsh, "joint": np.full((2, 2, 2, 2), 1e308).tolist()}}),
        # array entries are JSON numbers, never true or false
        ("bell-optimize", {"counts": bool_counts}),
        ("bell-efficiency", {"inequality": chsh, "behavior": bool_behavior}),
        ("bell-lhv", {"inequality": bool_joint}),
        ("qse-estimate", {"measurements": [{"effects": [bool_proj0, proj1]}],
                          "frequencies": [[0.5, 0.5]]}),
        ("qse-estimate", {**mub1, "frequencies": [[True, 0]] + mub1["frequencies"][1:]}),
        ("qmp-solve", {**pure3, "constraint": {"spectra": [True] + [0] * 7}}),
        ("bell-optimize", {"counts": {**bool_counts, "counts": {**bool_counts["counts"],
                                                                "0,0": [[1, "2"], [3, 4]]}}}),
        ("bell-lhv", {"inequality": {**chsh, "bound": True}}),
        ("qse-estimate", {"measurements": [{"effects": [{**proj0, "dim": 2.5}, proj1]}],
                          "frequencies": [[0.5, 0.5]]}),
        # a global dimension past qmp.DIMENSION_GUARD
        *OVERSIZED_MARGINAL_PROBLEMS,
        # sizes that used to allocate before their check: a list of 2^62 m
        # values, and a 128 GiB counts table for one 1 x 1 block
        ("qmp-sweep", {**sweep, "m_range": [0, 2**62]}),
        ("bell-optimize", {"counts": {"m": 1, "d": 2**17, "counts": {"0,0": [[1]]}}}),
        # qubits past qse.PAULI_QUBIT_GUARD
        ("qse-benchmark", {"protocol": "pauli", "qubits": 11, "trials": 2}),
        ("qse-estimate", {**mub1, "measurements": {"protocol": "pauli", "qubits": 11}}),
    ]
    for i, (command, body) in enumerate(cases):
        config = tmp_path / f"wrong{i}.json"
        config.write_text(json.dumps(body))
        proc = run_cli(command, "--config", str(config), "--out", outdir)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len([ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]) == 1


def test_unknown_config_key_is_named(tmp_path, outdir):
    from click.testing import CliRunner

    from qoptools import cli

    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    for command in SUBCOMMANDS:
        res = CliRunner().invoke(cli.main, [command, "--config", str(config), "--out", outdir])
        assert res.exit_code == 1
        errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "'bogus_key'" in errors[0] and command in errors[0]


def test_every_subcommand_has_the_common_options_and_its_docstring_as_help():
    from click.testing import CliRunner

    from qoptools import cli

    for command in SUBCOMMANDS:
        res = CliRunner().invoke(cli.main, [command, "--help"])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        options = [ln.split()[0] for ln in lines if ln.startswith("  --")]
        assert options == ["--config", "--out", "--seed", "--threads", "--help"], command
        body = getattr(cli, command.replace("-", "_"))
        assert lines[2].strip() == body.__doc__, command
        assert command in cli._CONFIG_KEYS


def test_bundled_configs_use_known_keys():
    from qoptools import cli

    checked = 0
    for name in sorted(os.listdir(CONFIGS)):
        command = config_command(name)
        if command is not None:
            assert set(read_json(cfg(name))) <= cli._CONFIG_KEYS[command], name
            checked += 1
    assert checked == 10


def test_progress_goes_to_stderr_not_stdout(outdir):
    proc = run_cli("qmp-solve", "--config", cfg("qmp_solve_pure3.json"),
                   "--out", outdir)
    assert proc.returncode == 0, proc.stderr
    assert "seed=" in proc.stderr
    assert "seed=" not in proc.stdout


def test_sidecar_contents(outdir):
    proc = run_cli("bell-lhv", "--config", cfg("bell_lhv_chsh.json"),
                   "--out", outdir, "--seed", "4", "--threads", "2")
    assert proc.returncode == 0
    info = read_json(os.path.join(outdir, "run_info.json"))
    assert info["command"] == "bell-lhv"
    assert info["seed"] == 4
    assert info["threads"] == 2
    assert info["runtime_seconds"] >= 0.0
    assert info["config"].endswith("bell_lhv_chsh.json")
    # timestamps live here so result.json stays deterministic
    assert "started_utc" in info and "finished_utc" in info
