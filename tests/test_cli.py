import numpy as np
import pytest

from hppca.cli import main, read_config
from hppca.solver import TRACE_HEADER


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


def test_robustness_command(tmp_path):
    out = tmp_path / "rob"
    assert run_cli("robustness", "--d", "20", "--sizes", "30,90", "--trials", "2",
                   "--levels", "2", "--sweep", "noise", "--max-iters", "200",
                   "--out", str(out), "--svg") == 0
    lines = (out / "robustness.csv").read_text().strip().splitlines()
    assert lines[0] == "level,method,mean_error,std_error"
    assert len(lines) == 5
    assert (out / "robustness.svg").is_file()


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
    from hppca import PowerIterationError

    def stalled(*args, **kwargs):
        raise PowerIterationError("power iteration did not converge in 3 iterations")

    monkeypatch.setattr(diagnostics, "operator_norm", stalled)
    code = run_cli("diagnose", "--d", "20", "--sizes", "30,90", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: power iteration did not converge in 3 iterations\n"


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
        "max_iters = 40\n"
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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("dee = 18\n")
    assert run_cli("generate", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_read_config_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha=0.1  # step\n\ntol-residual = 1e-8\n")
    parsed = read_config(path)
    assert parsed == {"alpha": "0.1", "tol_residual": "1e-8"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config(bad)


def test_missing_data_directory_fails_cleanly(tmp_path, capsys):
    assert run_cli("solve", "--data", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err
