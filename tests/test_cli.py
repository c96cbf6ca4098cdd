import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hppca
from hppca.cli import build_parser, main, read_config, resolve_spec
from hppca.solver import TRACE_HEADER, csv_cell

from oracles import plain_trace, read_trace


def run_cli(*args) -> int:
    return main(list(args))


def test_generate_writes_dataset_and_reruns_identically(tmp_path, capsys):
    out = tmp_path / "run"
    args = ("generate", "--seed", "3", "--d", "20", "--sizes", "30,90",
            "--variances", "1,6", "--out", str(out))
    assert run_cli(*args) == 0
    printed = capsys.readouterr().out
    assert "seed=3" in printed
    files = sorted(p.name for p in (out / "dataset").iterdir())
    assert files == ["block_000.npy", "block_001.npy", "lambdas.npy",
                     "meta.json", "qtruth.npy"]
    before = {p.name: p.read_bytes() for p in (out / "dataset").iterdir()}
    assert run_cli(*args) == 0
    after = {p.name: p.read_bytes() for p in (out / "dataset").iterdir()}
    assert before == after


def test_generate_rejects_equal_variances(tmp_path, capsys):
    code = run_cli("generate", "--variances", "2,2", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "strict ordering" in capsys.readouterr().err


def test_generate_default_flags_give_reference_setting(tmp_path):
    out = tmp_path / "ref"
    assert run_cli("generate", "--seed", "0", "--out", str(out)) == 0
    first = np.load(out / "dataset" / "block_000.npy")
    second = np.load(out / "dataset" / "block_001.npy")
    assert first.shape == (100, 200)
    assert second.shape == (100, 800)


def test_solve_on_generated_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("generate", "--seed", "1", "--d", "20", "--sizes", "30,90",
                   "--out", str(out)) == 0
    assert run_cli("solve", "--data", str(out / "dataset"), "--max-iters", "200",
                   "--out", str(out)) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) >= 2
    final = np.load(out / "x_final.npy")
    assert final.shape == (20, 3)
    printed = capsys.readouterr().out
    assert "termination=" in printed and "final_dist=" in printed


def test_solve_random_and_file_inits(tmp_path):
    out = tmp_path / "run"
    assert run_cli("generate", "--seed", "2", "--d", "15", "--sizes", "20,60",
                   "--out", str(out)) == 0
    assert run_cli("solve", "--data", str(out / "dataset"), "--init", "random",
                   "--max-iters", "50", "--out", str(out / "r")) == 0
    start = np.load(out / "dataset" / "qtruth.npy")
    np.save(out / "start.npy", start)
    assert run_cli("solve", "--data", str(out / "dataset"),
                   "--init", f"file:{out / 'start.npy'}",
                   "--max-iters", "50", "--out", str(out / "f")) == 0
    summary = (out / "f" / "summary.txt").read_text()
    assert "termination=" in summary


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv"
    assert run_cli("convergence", "--d", "25", "--sizes", "30,90", "--max-iters",
                   "150", "--out", str(out), "--svg") == 0
    assert (out / "trace_pca.csv").is_file()
    assert (out / "trace_random.csv").is_file()
    assert (out / "convergence.svg").read_text().startswith("<svg")
    summary = (out / "summary.txt").read_text()
    assert "pca.final_dist=" in summary and "random.final_dist=" in summary


def test_convergence_population_mode(tmp_path):
    out = tmp_path / "pop"
    assert run_cli("convergence", "--population", "--d", "40", "--max-iters", "2500",
                   "--out", str(out)) == 0
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().strip().splitlines())
    assert float(summary["pca.final_dist"]) <= 1e-8
    assert float(summary["random.fitted_rate"]) < 1.0


def test_convergence_nonconvergence_is_still_success(tmp_path):
    # Hitting the iteration cap is a reported result, not an error.
    out = tmp_path / "cap"
    assert run_cli("convergence", "--d", "25", "--sizes", "30,90",
                   "--max-iters", "2", "--out", str(out)) == 0
    summary = (out / "summary.txt").read_text()
    assert "max-iters" in summary


def test_solve_and_convergence_reach_a_residual_tolerance_of_1e_13(tmp_path):
    # The residual is the one convergence test, so a tolerance below the
    # iterates' step of about 1e-12 still applies, and no note is written.
    flags = ("--d", "20", "--sizes", "30,90", "--tol-residual", "1e-13")
    assert run_cli("solve", *flags, "--out", str(tmp_path / "solve")) == 0
    lines = (tmp_path / "solve" / "summary.txt").read_text().splitlines()
    assert "termination=residual-converged" in lines
    assert read_trace(tmp_path / "solve" / "trace.csv").residual[-1] <= 1e-13
    assert run_cli("convergence", *flags, "--out", str(tmp_path / "conv")) == 0
    conv_lines = (tmp_path / "conv" / "summary.txt").read_text().splitlines()
    assert {"pca.termination=residual-converged",
            "random.termination=residual-converged"} <= set(conv_lines)
    for label in ("pca", "random"):
        assert read_trace(tmp_path / "conv" / f"trace_{label}.csv").residual[-1] <= 1e-13
    assert not any("note=" in line for line in lines + conv_lines)


@pytest.mark.parametrize("command", ["solve", "convergence", "robustness"])
def test_the_step_tolerance_is_not_a_setting(command, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exited:
        run_cli(command, "--tol-step", "1e-12", "--out", str(out))
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith("unrecognized arguments: --tol-step 1e-12\n")
    config = tmp_path / "step.cfg"
    config.write_text("tol_step = 1e-12\n")
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: unknown config keys for {command}: ['tol_step']\n"
    assert not out.exists()


def test_robustness_command(tmp_path):
    out = tmp_path / "rob"
    assert run_cli("robustness", "--d", "20", "--sizes", "30,90", "--trials", "2",
                   "--levels", "2", "--sweep", "noise", "--max-iters", "200",
                   "--out", str(out), "--svg") == 0
    lines = (out / "robustness.csv").read_text().strip().splitlines()
    assert lines[0] == "level,method,mean_error,std_error"
    assert len(lines) == 5
    assert (out / "robustness.svg").is_file()


def _failing_solve(*args, **kwargs):
    raise ValueError("iteration certificates out of range")


@pytest.mark.parametrize("flags, note", [
    # No flags: every solve fails, by a gpm_solve that raises.
    ((), "note=level 0: 2 failed, 0 capped of 2 trials"),
    (("--max-iters", "2"), "note=level 0: 0 failed, 2 capped of 2 trials"),
])
def test_robustness_notes_failed_and_capped_trials(flags, note, tmp_path, capsys, monkeypatch):
    if not flags:
        monkeypatch.setattr(hppca.experiments, "gpm_solve", _failing_solve)
    out = tmp_path / "rob"
    assert run_cli("robustness", "--d", "20", "--sizes", "30,90", "--trials", "2",
                   "--levels", "1", *flags, "--out", str(out)) == 0
    csv_text = (out / "robustness.csv").read_text()
    assert capsys.readouterr().out == csv_text + note + "\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_robustness_without_trials_is_a_one_line_error(trials, tmp_path, capsys):
    out = tmp_path / "rob0"
    assert run_cli("robustness", "--trials", trials, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: need at least one trial per sweep level\n"
    assert not (out / "robustness.csv").exists()


@pytest.mark.parametrize("argv", [
    "solve --alpha nan", "solve --max-iters -1", "solve --init file:/nonexistent/x.npy",
    "solve --tol-residual 0", "robustness --levels 0", "diagnose --alpha -1", "solve --alpha inf",
    "solve --init file:{tmp}/frame_50x3.npy", "solve --init file:{tmp}/frame_20x2.npy",
    "robustness --lambdas 5,5 --trials 1 --levels 1"])
def test_rejected_run_leaves_no_output_directory(argv, tmp_path, capsys):
    # Orthonormal start frames of the wrong shape for --d 20 with k = 3.
    for d, k in ((50, 3), (20, 2)):
        np.save(tmp_path / f"frame_{d}x{k}.npy", np.eye(d, k))
    out = tmp_path / "rejected"
    args = argv.format(tmp=tmp_path).split()
    assert run_cli(*args, "--d", "20", "--sizes", "30,90", "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "frame_" in argv:
        assert "initial frame has shape" in err and "the problem needs (20, 3)" in err


@pytest.mark.parametrize("command", ["solve", "convergence", "robustness --trials 1 --levels 1",
                                     "diagnose"])
def test_step_weight_past_its_bound_is_one_error_line(command, tmp_path, capsys):
    # A RuntimeWarning fails the test (pyproject.toml), so neither run may
    # overflow: above the bound the run is rejected before alpha scales a
    # frame, and at it each run completes or fails one of its checks.
    args = (*command.split(), "--d", "20", "--sizes", "30,90")
    assert run_cli(*args, "--alpha", "1e308", "--out", str(tmp_path / "over")) == 2
    assert capsys.readouterr().err == "error: alpha: step weight must be at most 1e+150, " \
                                      "got 1e+308\n"
    assert not (tmp_path / "over").exists()
    code = run_cli(*args, "--alpha", "1e150", "--out", str(tmp_path / "bound"))
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 2 and err.startswith("error: ")
                                      and err.count("\n") == 1)


def test_solve_at_a_large_step_weight_passes_its_certificates(tmp_path, capsys):
    # The nuclear gap's rounding, about alpha * k * eps, reaches -3.7e-9 in
    # this run: past 1e-9, inside the slack that scales with ||A||_*.
    out = tmp_path / "big"
    assert run_cli("solve", "--d", "20", "--sizes", "30,90", "--alpha", "1e7",
                   "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert "termination=max-iters\n" in (out / "summary.txt").read_text()


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_one_more_dimension_than_columns_runs(command, tmp_path):
    # d = k + 1 leaves one eigenvalue below the kept ones: pca_init's gap
    # test reads the whole spectrum.
    out = tmp_path / command
    assert run_cli(command, "--d", "4", "--sizes", "10,20", "--out", str(out)) == 0


def test_the_signal_strengths_set_the_number_of_columns(tmp_path):
    # There is no --k flag (test_each_command_rejects_flags_it_does_not_read):
    # k is the number of --lambdas.
    out = tmp_path / "k2"
    assert run_cli("solve", "--d", "20", "--sizes", "30,90", "--lambdas", "5,3",
                   "--out", str(out)) == 0
    assert np.load(out / "x_final.npy").shape == (20, 2)


def test_diagnose_command_deterministic(tmp_path):
    out = tmp_path / "diag"
    args = ("diagnose", "--d", "20", "--sizes", "30,90", "--out", str(out))
    assert run_cli(*args) == 0
    report = (out / "report.txt").read_bytes()
    samples = (out / "ratio_samples.csv").read_bytes()
    assert run_cli(*args) == 0
    assert (out / "report.txt").read_bytes() == report
    assert (out / "ratio_samples.csv").read_bytes() == samples


def test_runtime_error_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    import hppca.diagnostics as diagnostics

    def failing(*args, **kwargs):
        raise RuntimeError("eigensolver did not converge")

    monkeypatch.setattr(diagnostics, "operator_norm", failing)
    code = run_cli("diagnose", "--d", "20", "--sizes", "30,90", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: eigensolver did not converge\n"


def test_diagnose_zero_residual(tmp_path):
    out = tmp_path / "diag0"
    assert run_cli("diagnose", "--d", "20", "--sizes", "30,90", "--zero-residual",
                   "--out", str(out)) == 0
    text = (out / "report.txt").read_text()
    assert "optimum_distance_bound=0\n" in text or "optimum_distance_bound=0.0\n" in text


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "settings.cfg"
    config.write_text(
        "# experiment defaults\n"
        "d = 18\n"
        "sizes = 20,60\n"
        "seed = 9\n"
    )
    out = tmp_path / "cfg"
    assert run_cli("generate", "--config", str(config), "--out", str(out)) == 0
    meta = (out / "dataset" / "meta.json").read_text()
    assert '"d": 18' in meta
    assert '"seed": 9' in meta
    # An explicit flag overrides the file.
    out2 = tmp_path / "cfg2"
    assert run_cli("generate", "--config", str(config), "--d", "22",
                   "--out", str(out2)) == 0
    assert '"d": 22' in (out2 / "dataset" / "meta.json").read_text()
    # A setting generate does not read is rejected, not ignored.
    config.write_text("max_iters = 40\n")
    assert run_cli("generate", "--config", str(config), "--out", str(tmp_path / "cfg3")) == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("dee = 18\n")
    assert run_cli("generate", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, lines", [
    ("convergence", "init = random\ntrials = 3\n"),
    ("robustness", "variances = 1,2\n"),
])
def test_config_file_rejects_keys_the_subcommand_does_not_read(tmp_path, capsys, command,
                                                                 lines):
    config = tmp_path / "other.cfg"
    config.write_text(lines)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 2
    assert f"unknown config keys for {command}" in capsys.readouterr().err
    assert not out.exists()


def test_read_config_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha=0.1  # step\n\ntol-residual = 1e-8\n")
    parsed = read_config(path)
    assert parsed == {"alpha": "0.1", "tol_residual": "1e-8"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config(bad)


@pytest.mark.parametrize("command, lines, key", [
    ("generate", "d = 20\nd = 25\n", "d"),
    ("solve", "max-iters = 10\n# the same key, spelled with '_'\nmax_iters = 20\n", "max_iters"),
])
def test_a_repeated_config_key_is_rejected(tmp_path, capsys, command, lines, key):
    config = tmp_path / "twice.cfg"
    config.write_text(lines)
    out = tmp_path / "out"
    lineno = len(lines.splitlines())
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {config}:{lineno}: duplicate key {key!r}\n"
    assert not out.exists()


_CONFIG_KEYS = st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)
# No '#' (a comment) and no line break; '=' may recur inside a value.
_CONFIG_TEXT = st.text(alphabet="abcxyz019.,:+-=/ \t", max_size=12)


@settings(deadline=None, max_examples=25)
@given(entries=st.lists(st.tuples(_CONFIG_KEYS, _CONFIG_TEXT, _CONFIG_TEXT | st.none()),
                        max_size=6, unique_by=lambda e: e[0].replace("-", "_")))
def test_read_config_round_trips_key_value_lines(entries):
    lines = [f"{key} = {value}" + ("" if note is None else f"  # {note}#=")
             for key, value, note in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("\n".join(["# header", ""] + lines) + "\n")
        parsed = read_config(path)
    assert parsed == {key.replace("-", "_"): value.strip() for key, value, _ in entries}


def test_missing_data_directory_fails_cleanly(tmp_path, capsys):
    assert run_cli("solve", "--data", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err


def test_robustness_reads_sweep_and_metric_from_config(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep = noise\nmetric = sin-theta\n")
    common = ("robustness", "--config", str(config), "--d", "20", "--sizes", "30,90",
              "--trials", "2", "--levels", "1", "--max-iters", "200", "--svg")
    assert run_cli(*common, "--out", str(tmp_path / "file")) == 0
    svg = (tmp_path / "file" / "robustness.svg").read_text()
    assert "noise sweep" in svg and "sin-theta" in svg
    # Flags still win over the file.
    assert run_cli(*common, "--sweep", "heterogeneity", "--metric", "dist-f",
                   "--out", str(tmp_path / "flags")) == 0
    svg = (tmp_path / "flags" / "robustness.svg").read_text()
    assert "heterogeneity sweep" in svg and "dist-f" in svg and "sin-theta" not in svg


@pytest.mark.parametrize("command, unused", [
    ("generate", ("--alpha", "3", "--max-iters", "5", "--svg")),
    ("solve", ("--trials", "9", "--levels", "4", "--svg", "--metric", "sin-theta")),
    ("convergence", ("--init", "random", "--metric", "sin-theta", "--trials", "7")),
    ("robustness", ("--init", "random", "--variances", "1,2")),
    ("diagnose", ("--max-iters", "5", "--tol-residual", "1", "--trials", "9")),
    ("solve", ("--k", "3")),  # k is the number of --lambdas
])
def test_each_command_rejects_flags_it_does_not_read(tmp_path, capsys, command, unused):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exited:
        run_cli(command, *unused, "--out", str(out))
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hppca {command} ")
    assert err.endswith(f"hppca {command}: error: unrecognized arguments: {' '.join(unused)}\n")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["diagnose", "solve"])
def test_damaged_dataset_header_is_a_one_line_error(tmp_path, capsys, command):
    import json

    out = tmp_path / "run"
    assert run_cli("generate", "--seed", "4", "--d", "20", "--sizes", "30,90",
                   "--out", str(out)) == 0
    meta_path = out / "dataset" / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["sizes"]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli(command, "--data", str(out / "dataset"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sizes" in err and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("sizes", [30.7, 90]), ("variances", [None, 6]), ("variances", ["1", 6]), ("k", None),
    ("k", True), ("seed", "x"), ("seed", True), ("stream", -1), ("d", 20.0), ("l", 2.0),
    ("format", 1.0)])
def test_a_header_field_of_the_wrong_type_is_a_one_line_error(tmp_path, capsys, field, value):
    import json

    generated = tmp_path / "gen"
    assert run_cli("generate", "--d", "20", "--sizes", "30,90", "--out", str(generated)) == 0
    meta_path = generated / "dataset" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[field] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("solve", "--data", str(generated / "dataset"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, config, where", [
    (["--d", "abc"], None, "--d: "), (None, "d = abc", "d (in --config): "),
    (["--max-iters", "1e3"], None, "--max-iters: "),
    (None, "alpha = x", "alpha (in --config): "),
    (["--sizes", "30,9.5"], None, "--sizes: "), (None, "noise = pink", "noise (in --config): ")])
def test_a_value_that_does_not_convert_names_its_setting(tmp_path, capsys, flag, config, where):
    args = flag or []
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config + "\n")
        args = ["--config", str(tmp_path / "bad.cfg")]
    out = tmp_path / "run"
    assert run_cli("solve", *args, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + where) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_a_truth_frame_of_the_wrong_shape_is_a_one_line_error(tmp_path, capsys, command):
    generated = tmp_path / "gen"
    assert run_cli("generate", "--d", "20", "--sizes", "30,90", "--out", str(generated)) == 0
    truth_path = generated / "dataset" / "qtruth.npy"
    np.save(truth_path, np.eye(30, 3))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli(command, "--data", str(generated / "dataset"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {truth_path} has shape (30, 3), the dataset needs (20, 3)\n"
    assert not out.exists()


@pytest.mark.parametrize("missing", ["qtruth.npy", "lambdas.npy"])
@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_half_a_truth_pair_is_a_one_line_error(tmp_path, capsys, command, missing):
    generated = tmp_path / "gen"
    assert run_cli("generate", "--d", "20", "--sizes", "30,90", "--out", str(generated)) == 0
    (generated / "dataset" / missing).unlink()
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli(command, "--data", str(generated / "dataset"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {generated / 'dataset' / missing} is missing")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("generated")
    assert run_cli("generate", "--seed", "5", "--d", "20", "--sizes", "30,90",
                   "--out", str(out)) == 0
    return out / "dataset"


@pytest.mark.parametrize("flag", [("--d", "20"), ("--sizes", "30,90"),
                                  ("--variances", "1,6"), ("--noise", "uniform")])
def test_solve_with_data_rejects_flags_the_dataset_fixes(small_dataset, tmp_path, capsys,
                                                         flag):
    out = tmp_path / "o"
    assert run_cli("solve", "--data", str(small_dataset), *flag, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag[0]} cannot be used with --data: the dataset fixes them\n"
    assert not out.exists()


def test_solve_with_data_rejects_lambdas_when_the_dataset_has_them(small_dataset,
                                                                   tmp_path, capsys):
    assert run_cli("solve", "--data", str(small_dataset), "--lambdas", "5,3.5,2",
                   "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: --lambdas cannot be used with --data")
    # The seed, the start and the solver flags stay allowed.
    assert run_cli("solve", "--data", str(small_dataset), "--seed", "3", "--init", "random",
                   "--alpha", "0.1", "--max-iters", "20", "--tol-residual", "1e-10",
                   "--out", str(tmp_path / "solver")) == 0
    # Without the truth files the dataset carries no lambdas, so the flag counts.
    bare = tmp_path / "bare"
    bare.mkdir()
    for path in small_dataset.iterdir():
        if path.name not in ("qtruth.npy", "lambdas.npy"):
            (bare / path.name).write_bytes(path.read_bytes())
    assert run_cli("solve", "--data", str(bare), "--lambdas", "5,3.5,2", "--max-iters", "20",
                   "--out", str(tmp_path / "bare_out")) == 0


def _without_wall_time(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def _first_difference(actual: str, expected: str):
    """None for equal texts, else the first pair of differing lines: a short
    failure report where pytest's full diff of two long traces is very slow."""
    pairs = itertools.zip_longest(actual.splitlines(), expected.splitlines())
    return next(((i, a, e) for i, (a, e) in enumerate(pairs) if a != e), None)


def _reference_trace_csv(problem, start, alpha, truth, iterations) -> str:
    """Trace CSV without its wall-time column, one row per frame, joined
    cell by cell with csv_cell."""
    rows = plain_trace(problem.columnwise_map, start.x, alpha, iterations, truth)
    header = TRACE_HEADER.rsplit(",", 1)[0]
    lines = [",".join([str(row[0]), *map(csv_cell, (row[1], row[2], row[3], row[4], row[5],
                                                    row[6]))])
             for row in rows]
    return "\n".join([header, *lines]) + "\n"


def test_solve_and_convergence_traces_match_one_frame_reference(small_dataset, tmp_path):
    from hppca import (PopulationProblem, SignalModel, StiefelPoint, build_problem,
                       load_dataset, pca_init, random_stiefel)
    from hppca.experiments import _ROLE_INIT, trial_stream

    out = tmp_path / "solve"
    assert run_cli("solve", "--data", str(small_dataset), "--out", str(out)) == 0
    dataset = load_dataset(small_dataset)
    model = SignalModel(StiefelPoint(np.load(small_dataset / "qtruth.npy")),
                        np.load(small_dataset / "lambdas.npy"))
    truth = PopulationProblem.from_model(model, dataset.groups)
    text = _without_wall_time((out / "trace.csv").read_text())
    iterations = text.count("\n") - 2
    assert iterations > 64
    assert _first_difference(text, _reference_trace_csv(
        build_problem(dataset, model.lambdas), pca_init(dataset), 0.05, truth, iterations)) is None

    args = ("convergence", "--d", "25", "--sizes", "30,90", "--max-iters", "150")
    out = tmp_path / "conv"
    assert run_cli(*args, "--out", str(out)) == 0
    spec, _ = resolve_spec(build_parser().parse_args(list(args)))
    model = spec.make_model()
    dataset = spec.make_dataset(model)
    truth = PopulationProblem.from_model(model, spec.groups())
    problem = build_problem(dataset, model.lambdas)
    starts = {"pca": pca_init(dataset),
              "random": random_stiefel(spec.d, spec.k, trial_stream(spec.seed, 0, _ROLE_INIT))}
    for label, start in starts.items():
        text = _without_wall_time((out / f"trace_{label}.csv").read_text())
        assert _first_difference(text, _reference_trace_csv(
            problem, start, spec.alpha, truth, text.count("\n") - 2)) is None


def test_diagnose_with_data_takes_the_model_from_the_dataset(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("generate", "--seed", "3", "--d", "20", "--sizes", "30,90",
                   "--out", str(out)) == 0
    assert run_cli("diagnose", "--data", str(out / "dataset"), "--out", str(out / "d")) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "d" / "report.txt").read_text().splitlines())
    norms = [float(v) for v in report["residual_operator_norms"].split(",")]
    assert norms == pytest.approx([0.911958, 0.842769, 0.715876], abs=1e-6)
    # Without the truth files there is no model to diagnose against.
    (out / "dataset" / "qtruth.npy").unlink()
    capsys.readouterr()
    assert run_cli("diagnose", "--data", str(out / "dataset"), "--out", str(out / "e")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "qtruth.npy" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["diagnose", "solve"])
def test_data_rejects_shape_settings_from_flags_and_config(small_dataset, tmp_path, capsys,
                                                           command):
    out = tmp_path / "o"
    assert run_cli(command, "--data", str(small_dataset), "--sizes", "30,90",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        "error: --sizes cannot be used with --data: the dataset fixes them\n"
    config = tmp_path / "shape.cfg"
    config.write_text("d = 20\nsizes = 30,90\nseed = 4\n")
    assert run_cli(command, "--data", str(small_dataset), "--config", str(config),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: d (in --config), sizes (in --config) cannot be "
                                       "used with --data: the dataset fixes them\n")
    config.write_text("lambdas = 5,3.5,2\n")
    assert run_cli(command, "--data", str(small_dataset), "--config", str(config),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        "error: lambdas (in --config) cannot be used with --data")
    assert not out.exists()


def test_solve_agrees_across_blas_thread_counts(tmp_path):
    # Outputs are byte-identical per seed only for one BLAS build and thread
    # count; across thread counts the rounding differs, but not the solve.
    path = os.pathsep.join([str(Path(hppca.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "hppca.cli", "solve", "--seed", "0",
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        summary = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().split())
        runs.append((summary, np.load(out / "x_final.npy")))
    (one, x_one), (two, x_two) = runs
    assert (one["termination"], one["iterations"]) == (two["termination"], two["iterations"])
    assert np.max(np.abs(x_one - x_two)) <= 1e-12
