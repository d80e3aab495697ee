"""End-to-end checks of the command line front end.

Commands run in-process through main(argv); every test pins its output
directory to tmp_path so runs stay isolated.
"""

import csv
import io
import json
import re

import numpy as np
import pytest

from nilconv import cli, inversion
from nilconv.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    KEYS,
    _defaults,
    build_parser,
    main,
    validate_config,
)
from nilconv.grid import GridSpec
from nilconv.groups import GradedLieAlgebra
from nilconv.convolution import op_norm
from nilconv.kernels import (
    DiscreteHilbertKernel,
    GridKernel,
    TensorKernel,
    load_kernel,
    save_kernel,
)
from nilconv.product import ProductGroup, preset


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


def stderr_errors(capsys):
    err = capsys.readouterr().err
    return json.loads(err)["errors"]


# --- group check ---


def test_group_check_heisenberg(tmp_path):
    code, out = run(tmp_path, "group", "check", "--preset", "heisenberg1")
    assert code == EXIT_OK
    rep = read_report(out)
    assert rep["command"] == "group check"
    res = rep["result"]
    assert res["ok"] is True
    assert res["Q"] == 4
    assert res["jacobi_ok"] and res["grading_ok"]
    assert res["factors"][0]["layer_dims"] == [2, 1]
    assert res["invariants"]["associativity"] <= 1e-9


def test_group_check_product_preset(tmp_path):
    code, out = run(tmp_path, "group", "check", "--preset", "abelian3")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["nu"] == 3 and res["Q"] == 3
    assert all(f["abelian"] for f in res["factors"])


def test_group_check_unknown_preset(tmp_path, capsys):
    code, _ = run(tmp_path, "group", "check", "--preset", "nosuch")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == "/group"


# --- configuration resolution and validation ---


def test_validation_reports_pointer_paths(tmp_path, capsys):
    code, _ = run(tmp_path, "invert", "--preset", "abelian1", "--N", "3",
                  "--set", "invert.max_n=0")
    assert code == EXIT_CONFIG
    paths = {e["path"] for e in stderr_errors(capsys)}
    assert "/grid/N" in paths
    assert "/invert/max_n" in paths


def test_validation_rejects_unknown_section(tmp_path, capsys):
    code, _ = run(tmp_path, "opnorm", "--preset", "abelian1",
                  "--set", "nosuch.key=1")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/nosuch"


@pytest.mark.parametrize("argv,path", [
    (["opnorm", "--set", "opnorm.max_itr=100"], "/opnorm/max_itr"),
    (["opnorm", "--set", "grid.n=8"], "/grid/n"),
    (["opnorm", "--set", "kernel.strenght=0.5"], "/kernel/strenght"),
    (["convolve", "--set", 'convolve.other={"name":"delta","bogus":1}'],
     "/convolve/other/bogus"),
    (["kernel", "check-cancel", "--n-quad", "0"], "/cancel/n_quad"),
    (["seminorm", "--set", "seminorm.radius_factors=5"], "/seminorm/radius_factors"),
    (["seminorm", "--set", "seminorm.j_window=3"], "/seminorm/j_window"),
    (["tame", "--set", "tame.radius_factors=abc"], "/tame/radius_factors"),
    (["opnorm", "--set", "kernel=5"], "/kernel"),
    (["group", "check", "--set", "check=5"], "/check"),
    (["convolve", "--set", "convolve.other=5"], "/convolve/other"),
    (["kernel", "check-cancel", "--set", "cancel.k=[1,1,1]"], "/cancel/k"),
])
def test_unknown_or_malformed_key_rejected_at_its_path(tmp_path, capsys, argv, path):
    # misspelled keys at any depth, sections given as non-objects and values
    # of the wrong kind all stop before any work, at their own pointer
    code, out = run(tmp_path, *argv, "--preset", "abelian2")
    assert code == EXIT_CONFIG
    assert [e["path"] for e in stderr_errors(capsys)] == [path]
    assert not out.exists()


def test_check_cancel_needs_a_factor_left_to_check(tmp_path, capsys):
    code, out = run(tmp_path, "kernel", "check-cancel", "--preset", "abelian1",
                    "--set", "cancel.k=[1]")
    assert code == EXIT_CONFIG
    assert [e["path"] for e in stderr_errors(capsys)] == ["/group"]
    assert not out.exists()


def test_every_key_default_passes_its_kind(tmp_path, capsys):
    for dotted, key in KEYS.items():
        assert key.kind.test(key.default), dotted
    for words, _, section, *_ in COMMANDS:
        assert validate_config(_defaults(), section) == [], words
    # --bumps carries no argparse choices: a bad name is a JSON error
    code, _ = run(tmp_path, "kernel", "check-cancel", "--bumps", "nosuch")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/cancel/bumps"


def test_validation_rejects_bad_kernel_family(tmp_path, capsys):
    code, _ = run(tmp_path, "kernel", "synth", "--preset", "abelian1",
                  "--set", "kernel.family=bogus")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/kernel/family"


def test_malformed_config_file(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code, _ = run(tmp_path, "opnorm", "--preset", "abelian1",
                  "--config", str(bad))
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert "invalid JSON" in errs[0]["message"]


def test_config_file_then_set_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 8}, "seed": 3}))
    code, out = run(tmp_path, "opnorm", "--preset", "abelian1",
                    "--kernel", "delta", "--config", str(cfg),
                    "--set", "grid.N=12")
    assert code == EXIT_OK
    resolved = read_report(out)["config"]
    assert resolved["grid"]["N"] == 12  # --set wins over the file
    assert resolved["seed"] == 3


def test_set_overrides_flag(tmp_path):
    code, out = run(tmp_path, "opnorm", "--preset", "abelian1",
                    "--kernel", "delta", "--N", "8", "--set", "grid.N=16")
    assert code == EXIT_OK
    assert read_report(out)["config"]["grid"]["N"] == 16


def test_env_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("NILCONV_OUT", str(target))
    code = main(["opnorm", "--preset", "abelian1", "--kernel", "delta"])
    assert code == EXIT_OK
    assert (target / "report.json").exists()
    assert (target / "meta.json").exists()


# --- determinism ---


def test_report_byte_determinism(tmp_path):
    argv = ["invert", "--preset", "abelian2", "--kernel",
            "near-identity-dyadic", "--N", "8", "--seed", "4"]
    _, out1 = run(tmp_path / "a", *argv)
    _, out2 = run(tmp_path / "b", *argv)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert b"timestamp" not in (out1 / "report.json").read_bytes()
    meta = json.loads((out1 / "meta.json").read_text())
    assert "timestamp" in meta and "elapsed_seconds" in meta


def test_tame_rows_merge_in_input_order(tmp_path):
    argv = ["tame", "--preset", "abelian2", "--pairs", "3", "--k", "1", "1",
            "--seed", "7"]
    code, out = run(tmp_path, *argv)
    assert code == EXIT_OK
    rows = (out / "tame.csv").read_text().strip().splitlines()
    assert rows[0].startswith("kind,kernels,kvec,N,lhs")
    assert len(rows) == 4
    assert [r.split(",")[1] for r in rows[1:]] == ["K0*L0", "K1*L1", "K2*L2"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["invert", "--preset", "abelian1", "--kernel", "delta", "--set",
     "kernel.amplitude=2.0", "--N", "8", "--eps", "0.25"],
    ["decay", "--preset", "abelian1", "--kernel", "delta", "--set",
     "kernel.amplitude=2.0", "--N", "8", "--eps", "0.125", "--n-list", "1", "2"],
], ids=["invert", "decay"])
def test_run_files_are_strict_json(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == EXIT_OK
    for name in ("report.json", "meta.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    res = read_report(out)["result"]
    if argv[0] == "invert":  # a fixed eps has no sigma estimates: null, not NaN
        assert [res["eps"][k] for k in ("sigma_max", "sigma_min", "s_norm_pred")] == [None] * 3


_INVERT_TRACKED = ["invert", "--preset", "abelian2", "--kernel", "near-identity-dyadic",
                   "--N", "8", "--track-k", "1", "1"]
# CSV file -> a run that writes it
_CSV_RUNS = {
    "seminorm.csv": ["seminorm", "--preset", "abelian2", "--kernel", "dyadic", "--N", "16",
                     "--k", "1", "1", "--radius-factors", "1.0"],
    "tame.csv": ["tame", "--preset", "abelian2", "--pairs", "2", "--k", "1", "1"],
    "decay.csv": ["decay", "--preset", "abelian1", "--kernel", "delta", "--set",
                  "kernel.amplitude=2.0", "--eps", "0.125", "--n-list", "1", "2", "--N", "8"],
    "steps.csv": _INVERT_TRACKED,
    "tracked.csv": _INVERT_TRACKED,
    "cancel.csv": ["kernel", "check-cancel", "--preset", "abelian2", "--kernel", "dyadic",
                   "--N", "32", "--mu", "0", "--R", "0.5", "1.0",
                   "--set", "cancel.n_quad=80", "--set", "cancel.n_samples=100"],
}


def _help_columns(filename, n_summands):
    """The columns a command's help names for one CSV file."""
    epilog = next(c[-1] for c in COMMANDS if f"{filename} with columns" in c[-1])
    cols = re.search(rf"{re.escape(filename)} with columns ([\w.,]+)", epilog).group(1)
    cols = cols.rstrip(".").replace(
        "summand0..summandM", ",".join(f"summand{i}" for i in range(n_summands)))
    return cols.split(",")


@pytest.mark.parametrize("filename", sorted(_CSV_RUNS))
def test_csv_files_share_one_dialect(tmp_path, filename):
    code, out = run(tmp_path, *_CSV_RUNS[filename])
    assert code == EXIT_OK
    raw = (out / filename).read_bytes()
    assert b"\r" not in raw
    with open(out / filename, newline="") as fh:
        table = list(csv.reader(fh))
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(table)
    assert again.getvalue().encode() == raw
    header, *rows = table
    res = read_report(out)["result"]
    n_summands = len(res["rows"][0]["summands"]) if filename == "tame.csv" else 0
    assert header == _help_columns(filename, n_summands)
    assert rows and all(len(row) == len(header) for row in rows)


# --- invert ---


def test_invert_delta_exact(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--N", "8")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["max_residual"] <= 1e-10
    assert res["residual_ok"] is True
    steps = (out / "steps.csv").read_text().splitlines()
    assert steps[0] == "n,step_rel_norm"
    assert len(steps) == res["n_steps"] + 1


def test_invert_zero_operator_exit3(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=0", "--N", "8")
    assert code == EXIT_NUMERIC
    res = read_report(out)["result"]
    assert "not invertible at this resolution" in res["error"]


def test_invert_residual_gate_exit3(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian2", "--kernel",
                    "near-identity-dyadic", "--N", "8", "--max-n", "2",
                    "--residual-tol", "1e-9")
    assert code == EXIT_NUMERIC
    res = read_report(out)["result"]
    assert res["residual_ok"] is False
    assert "stagnates" in res["flag"]


def test_invert_tracking_csv(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian2", "--kernel",
                    "near-identity-dyadic", "--N", "8", "--track-k", "1", "1")
    assert code == EXIT_OK
    tracked = (out / "tracked.csv").read_text().splitlines()
    assert tracked[0] == "n,seminorm,op_norm,root"
    assert len(tracked) >= 2


def test_invert_paper_eps_recorded(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--N", "8",
                    "--paper-eps")
    assert code == EXIT_OK
    eps = read_report(out)["result"]["eps"]
    assert eps["paper_eps"] is True
    assert eps["epsilon"] == pytest.approx(0.25, abs=1e-9)


def test_tensor_hilbert_bundles_invert_knobs(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian2", "--kernel",
                    "tensor-hilbert", "--N", "8", "--max-n", "4")
    assert code in (EXIT_OK, EXIT_NUMERIC)  # N=8 is below the usable range
    cfg = read_report(out)["config"]["invert"]
    assert cfg["paper_eps"] is True
    assert cfg["amplification_cap"] == 1.5
    assert cfg["pad_factor"] == 2
    assert cfg["max_n"] == 4  # explicit flag survives the bundle


def test_tensor_hilbert_fixed_eps_drops_the_bundled_cap(tmp_path):
    # a fixed eps has no sigma estimates to price steps with, so the
    # bundle's amplification cap is not applied (neumann_invert would refuse it)
    code, out = run(tmp_path, "invert", "--preset", "abelian2", "--kernel",
                    "tensor-hilbert", "--N", "8", "--max-n", "4", "--eps", "0.1")
    assert code in (EXIT_OK, EXIT_NUMERIC)
    rep = read_report(out)
    assert rep["config"]["invert"]["amplification_cap"] is None
    assert rep["config"]["invert"]["pad_factor"] == 2  # the rest of the bundle holds
    assert rep["result"]["eps"]["epsilon"] == 0.1
    assert rep["result"]["eps"]["paper_eps"] is False


def test_tensor_hilbert_bundle_respects_overrides(tmp_path):
    code, out = run(tmp_path, "invert", "--preset", "abelian2", "--kernel",
                    "tensor-hilbert", "--N", "8", "--max-n", "4",
                    "--pad-factor", "1", "--no-paper-eps")
    assert code in (EXIT_OK, EXIT_NUMERIC)
    cfg = read_report(out)["config"]["invert"]
    assert cfg["pad_factor"] == 1
    assert cfg["paper_eps"] is False


# --- kernel commands ---


def test_kernel_synth_then_check_growth(tmp_path):
    code, out = run(tmp_path / "synth", "kernel", "synth", "--preset",
                    "abelian2", "--seed", "5")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["kernel_file"] == "kernel.nckr"
    assert res["l2_norm"] > 0
    kfile = out / "kernel.nckr"
    assert kfile.exists() and (out / "kernel.nckr.json").exists()

    code2, out2 = run(tmp_path / "growth", "kernel", "check-growth",
                      "--preset", "abelian2", "--kernel", str(kfile),
                      "--N", "32", "--seed", "5")
    assert code2 == EXIT_OK
    res2 = read_report(out2)["result"]
    assert res2["valid"] is True
    assert res2["max_constant"] > 0


def test_check_growth_sampling_failure_says_why(tmp_path, capsys):
    # at the default N=16 the abelian1 sampling box lies within the margin
    code, out = run(tmp_path, "kernel", "check-growth", "--preset", "abelian1",
                    "--kernel", "hilbert")
    assert code == EXIT_CONFIG
    err = stderr_errors(capsys)[0]
    assert err["path"] == "/growth"
    assert "sampling box [-0.25, 0.25]" in err["message"]
    assert "singular margin 0.25 (2 cells of 0.125)" in err["message"]


def test_kernel_file_grid_mismatch(tmp_path, capsys):
    code, out = run(tmp_path / "inv", "invert", "--preset", "abelian1",
                    "--kernel", "delta", "--N", "16", "--save")
    assert code == EXIT_OK
    kfile = out / "inverse.nckr"
    code2, _ = run(tmp_path / "op", "opnorm", "--preset", "abelian1",
                   "--kernel", str(kfile), "--N", "32")
    assert code2 == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == "/kernel/name"
    assert "does not match /grid" in errs[0]["message"]


def test_kernel_file_group_mismatch(tmp_path, capsys):
    code, out = run(tmp_path / "inv", "invert", "--preset", "abelian1",
                    "--kernel", "delta", "--N", "16", "--save")
    assert code == EXIT_OK
    code2, _ = run(tmp_path / "op", "opnorm", "--preset", "heisenberg1",
                   "--kernel", str(out / "inverse.nckr"), "--N", "16")
    assert code2 == EXIT_CONFIG
    assert "does not match /group" in stderr_errors(capsys)[0]["message"]


def test_version_one_dyadic_file_is_config_error(tmp_path, capsys):
    # version-1 dyadic files held full-grid profiles; regenerate from the sidecar meta
    code, out = run(tmp_path / "synth", "kernel", "synth", "--preset", "abelian2")
    assert code == EXIT_OK
    kfile = out / "kernel.nckr"
    buf = bytearray(kfile.read_bytes())
    buf[4] = 1
    kfile.write_bytes(bytes(buf))
    code2, _ = run(tmp_path / "op", "opnorm", "--preset", "abelian2",
                   "--kernel", str(kfile), "--N", "8")
    assert code2 == EXIT_CONFIG
    err = stderr_errors(capsys)[0]
    assert err["path"] == "/kernel/name"
    assert err["message"] == "unsupported kernel file version 1"


def test_check_cancel_report_and_csv(tmp_path):
    code, out = run(tmp_path, "kernel", "check-cancel", "--preset", "abelian2",
                    "--kernel", "dyadic", "--N", "32", "--mu", "0",
                    "--R", "0.5", "1.0", "2.0",
                    "--set", "cancel.n_quad=80", "--set", "cancel.n_samples=100")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["ok"] is True
    assert len(res["entries"]) == 3
    rows = (out / "cancel.csv").read_text().splitlines()
    assert rows[0] == "bump,R,order0_constant,max_constant,reduced_sup"
    assert len(rows) == 4


def test_cancel_rows_pick_the_zero_order_constant():
    # the order-0 column must come from the zero multi-index wherever it
    # sits in the constants dict, not from whichever constant comes first
    from nilconv.cli import _cancel_rows
    from nilconv.kernels import CancellationEntry, GrowthReport
    from nilconv.product import MultiIndex

    first = GrowthReport(mode="product", n_samples=1, argmax={}, constants={
        MultiIndex(((1,), (0,))): 5.0, MultiIndex(((0,), (0,))): 2.0})
    missing = GrowthReport(mode="product", n_samples=1, argmax={},
                           constants={MultiIndex(((0,), (1,))): 3.0})
    rows = _cancel_rows([CancellationEntry("b", 0.5, first, 0.25),
                         CancellationEntry("b", 1.0, missing, 0.125)])
    assert rows == [["b", "0.5", "2", "5", "0.25"], ["b", "1", "0", "3", "0.125"]]


def test_unknown_kernel_name(tmp_path, capsys):
    code, _ = run(tmp_path, "opnorm", "--preset", "abelian1",
                  "--kernel", "nosuch")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/kernel/name"


# --- convolve, opnorm, seminorm, decay ---


def test_convolve_check_paths_agree(tmp_path):
    code, out = run(tmp_path, "convolve", "--preset", "abelian1", "--kernel",
                    "discrete-hilbert", "--other", "discrete-hilbert",
                    "--N", "16", "--check")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["path_rel_error"] <= 1e-12
    assert res["l2_norm"] > 0


def test_convolve_save_writes_the_composed_kernel(tmp_path):
    code, out = run(tmp_path, "convolve", "--preset", "abelian1", "--kernel",
                    "discrete-hilbert", "--other", "discrete-hilbert", "--N", "16",
                    "--save")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["kernel_file"] == "result.nckr"
    M = load_kernel(str(out / "result.nckr"))
    assert isinstance(M, GridKernel) and M.spec.N == 16
    assert M.data.l2_norm() == res["l2_norm"]


def test_convolve_check_rejects_nonabelian_group(tmp_path, capsys):
    code, _ = run(tmp_path, "convolve", "--preset", "heisenberg1", "--kernel",
                  "dyadic", "--other", "dyadic", "--N", "8", "--check")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/convolve/check"


def test_opnorm_delta(tmp_path):
    code, out = run(tmp_path, "opnorm", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--N", "8")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["converged"] is True
    assert res["value"] == pytest.approx(2.0, rel=1e-9)


def test_opnorm_tensor_hilbert_reports_the_library_value(tmp_path):
    # a tensor kernel's norm is the product of its per-factor runs
    code, out = run(tmp_path, "opnorm", "--preset", "abelian2", "--kernel",
                    "tensor-hilbert", "--N", "64")
    assert code == EXIT_OK
    rep = read_report(out)
    cfg = rep["config"]
    group = preset("abelian2")
    K = TensorKernel([DiscreteHilbertKernel(ProductGroup([f])) for f in group.factors])
    est = op_norm(K, GridSpec(group, 64, cfg["grid"]["T"]), max_iter=cfg["opnorm"]["max_iter"],
                  tol=cfg["opnorm"]["tol"], seed=cfg["seed"])
    assert rep["result"] == est.to_dict()
    assert rep["result"]["converged"] is True


def test_seminorm_csv(tmp_path):
    code, out = run(tmp_path, "seminorm", "--preset", "abelian2", "--kernel",
                    "dyadic", "--N", "16", "--k", "1", "1",
                    "--radius-factors", "1.0")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["total"] > 0
    with open(out / "seminorm.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["label", "alpha", "j", "l", "z_norms", "block", "weight",
                      "value", "method", "iterations", "residual"]
    assert rows and all(row[8:] == ["dense", "0", "0"] for row in rows)


def test_decay_delta_fixed_eps(tmp_path):
    code, out = run(tmp_path, "decay", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--eps", "0.125",
                    "--n-list", "1", "2", "3", "--N", "8")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["s_norm_measured"] == pytest.approx(0.5, abs=1e-10)
    rows = (out / "decay.csv").read_text().splitlines()
    assert rows[0] == "n,value,root,op_norm,truncation"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == pytest.approx([0.5, 0.25, 0.125], abs=1e-10)


def test_decay_paper_eps_recorded(tmp_path):
    code, out = run(tmp_path, "decay", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--paper-eps",
                    "--n-list", "1", "2", "--N", "8")
    assert code == EXIT_OK
    eps = read_report(out)["result"]["config"]["eps"]
    assert eps["paper_eps"] is True
    assert eps["epsilon"] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("command", ["invert", "decay"])
def test_unconverged_spectral_edges_warn(tmp_path, capsys, monkeypatch, command):
    argv = [command, "--preset", "abelian2", "--kernel", "near-identity-dyadic",
            "--N", "8"]
    def edge_warnings():
        # under the 8-step cap decay also warns that |S| did not converge,
        # which test_decay_warns_when_s_norm_not_converged covers
        return [line for line in capsys.readouterr().err.splitlines()
                if "|S|" not in line]

    code, _ = run(tmp_path / "dense", *argv)
    monkeypatch.setattr(inversion, "DENSE_SITES", 8)
    assert run(tmp_path / "lanczos", *argv)[0] == code
    assert edge_warnings() == []
    # 8 is the least step cap op_norm takes, and decay's |S| runs op_norm
    monkeypatch.setattr(inversion, "LANCZOS_STEPS", 8)
    code_short, out = run(tmp_path / "short", *argv)
    assert code_short == code
    result = read_report(out)["result"]
    eps = result["eps"] if command == "invert" else result["config"]["eps"]
    assert eps["sigma_max_info"]["converged"] is False
    assert edge_warnings() == [
        f"{command}: warning: spectral edges not converged after 8 Lanczos "
        "steps; sigma_max from young-bound, sigma_min from lanczos"]


def test_decay_warns_when_s_norm_not_converged(tmp_path, capsys, monkeypatch):
    argv = ["decay", "--preset", "abelian2", "--kernel", "near-identity-dyadic",
            "--N", "8", "--n-list", "1"]

    def s_norm_warnings():
        return [line for line in capsys.readouterr().err.splitlines() if "|S|" in line]

    code, out = run(tmp_path / "full", *argv)
    assert code == EXIT_OK
    exact = read_report(out)["result"]
    assert exact["s_norm_estimate"]["method"] == "lanczos"
    assert exact["s_norm_estimate"]["converged"] is True
    assert s_norm_warnings() == []

    # eight Lanczos steps, the least op_norm takes, leave |S| unresolved;
    # Young's bound stands in
    monkeypatch.setattr(inversion, "LANCZOS_STEPS", 8)
    code, out = run(tmp_path / "short", *argv)
    assert code == EXIT_OK
    result = read_report(out)["result"]
    est = result["s_norm_estimate"]
    assert est["converged"] is False and est["iterations"] == 8
    assert est["method"] == "young-bound"
    assert est["value"] == result["s_norm_measured"] >= exact["s_norm_measured"]
    assert s_norm_warnings() == [
        "decay: warning: |S| not converged after 8 Lanczos steps; |S| from young-bound"]


def test_decay_warns_when_an_op_norm_row_is_not_converged(tmp_path, capsys, monkeypatch):
    argv = ["decay", "--preset", "abelian2", "--kernel", "near-identity-dyadic",
            "--N", "8", "--n-list", "1", "2"]

    def op_norm_warnings():
        return [line for line in capsys.readouterr().err.splitlines() if "op_norm" in line]

    code, out = run(tmp_path / "full", *argv)
    assert code == EXIT_OK
    rows = read_report(out)["result"]["rows"]
    assert all(r["op_norm_converged"] and 8 < r["op_norm_iterations"] < 48 for r in rows)
    assert op_norm_warnings() == []

    # eight steps, the least a seminorm report's Lanczos run takes, leave
    # every row's op-norm unresolved
    config = cli.SeminormConfig
    monkeypatch.setattr(cli, "SeminormConfig", lambda **kw: config(max_iter=8, **kw))
    code, out = run(tmp_path / "short", *argv)
    assert code == EXIT_OK
    rows = read_report(out)["result"]["rows"]
    assert [(r["op_norm_converged"], r["op_norm_iterations"]) for r in rows] == [(False, 8)] * 2
    assert op_norm_warnings() == [
        "decay: warning: op_norm not converged after 8 Lanczos steps for n = 1, 2"]


def test_decay_requires_two_factor_orders(tmp_path, capsys):
    code, _ = run(tmp_path, "decay", "--preset", "abelian2", "--kernel",
                  "delta", "--k", "1")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/decay"


@pytest.mark.parametrize("argv,path", [
    (["seminorm", "--k", "1"], "/seminorm"),
    (["invert", "--track-k", "1"], "/invert"),
])
def test_order_vector_length_reported_at_command_section(tmp_path, capsys,
                                                         argv, path):
    code, _ = run(tmp_path, *argv, "--preset", "abelian2", "--N", "8")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == path
    assert "needs 2 entries" in errs[0]["message"]


@pytest.mark.parametrize("argv,path", [
    (["seminorm", "--kernel", "dyadic"], "/seminorm"),
    (["tame", "--pairs", "1"], "/tame"),
    (["decay", "--kernel", "dyadic"], "/decay"),
])
def test_orders_at_the_stencil_gap_are_config_errors(tmp_path, capsys, argv, path):
    # on abelian2 at N=8 every per-factor gap of the sample lattice is
    # exactly 3 cells, so three difference steps from supp phi reach supp gamma
    code, out = run(tmp_path, *argv, "--preset", "abelian2", "--N", "8", "--k", "3", "3")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == path
    assert "below the stencil gap 3" in errs[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv,path", [
    (["seminorm", "--kernel", "dyadic", "--k", "3", "3"], "/seminorm"),
    (["tame", "--pairs", "1", "--k", "1", "3"], "/tame"),
    (["decay", "--kernel", "near-identity-dyadic", "--k", "3", "1"], "/decay"),
    (["invert", "--track-k", "3", "3"], "/invert"),
])
def test_orders_at_the_stencil_gap_refused_before_kernel_work(tmp_path, capsys, monkeypatch,
                                                              argv, path):
    def kernel_work(*args, **kwargs):
        raise AssertionError("kernel work ran")
    monkeypatch.setattr(cli, "_build_kernel", kernel_work)
    monkeypatch.setattr(cli, "synth_dyadic", kernel_work)
    code, out = run(tmp_path, *argv, "--preset", "abelian2", "--N", "8")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == path
    assert "below the stencil gap 3" in errs[0]["message"]
    assert not out.exists()


# --- library errors become configuration errors at the command's section ---


@pytest.mark.parametrize("argv,path,needle", [
    (["tame", "--set", "tame.j_window=[0,2]"], "/tame", "no admissible"),
    (["tame", "--set", "tame.j_window=[0,1]"], "/tame", "at least 3 integers"),
    (["decay", "--kernel", "dyadic", "--set", "decay.j_window=[0,2]"],
     "/decay", "no admissible"),
])
def test_sampling_window_errors_at_command_section(tmp_path, capsys, argv,
                                                   path, needle):
    code, out = run(tmp_path, *argv, "--preset", "abelian2", "--N", "8")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == path
    assert needle in errs[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv,path", [
    (["tame", "--kind", "pk", "--pairs", "1"], "/tame"),
    (["tame", "--kind", "fk", "--pairs", "1"], "/tame"),
    (["seminorm", "--kind", "fk", "--kernel", "dyadic"], "/seminorm"),
    (["decay", "--kernel", "dyadic"], "/decay"),
])
def test_sampling_window_checked_before_kernel_work(tmp_path, capsys,
                                                    monkeypatch, argv, path):
    calls = []
    monkeypatch.setattr(cli, "synth_dyadic", lambda *a, **kw: calls.append(a))
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"factors": ["heisenberg1", "abelian1"]}))
    code, out = run(tmp_path, *argv, "--preset", str(group), "--k", "1", "1",
                    "--N", "6")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == path
    assert "no admissible" in errs[0]["message"]
    assert calls == []
    assert not out.exists()


def test_direct_sum_over_pair_budget_is_config_error(tmp_path, capsys):
    # a dense grid kernel on a step-4 (filiform) group at N=9 has 9^4 shifts
    # along its loop axes (an odd grid keeps its lowest face), each charged
    # the 9^5 sites: 3.9e8 point pairs, over the 2e8 of the budget (dyadic
    # synthesis would exceed its own memory budget on five axes)
    alg = GradedLieAlgebra(4, [2, 1, 1, 1], [(0, 1, 2, 1.0), (0, 2, 3, 1.0), (0, 3, 4, 1.0)])
    group = tmp_path / "filiform4.json"
    group.write_text(json.dumps(alg.to_dict()))
    spec = GridSpec(ProductGroup([alg]), 9, 1.0)
    rng = np.random.default_rng(0)
    kernel = tmp_path / "dense.nckr"
    save_kernel(GridKernel(spec, rng.normal(size=spec.shape) + 0.0j), str(kernel))
    code, _ = run(tmp_path, "opnorm", "--preset", str(group), "--kernel", str(kernel),
                  "--N", "9")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == "/opnorm"
    assert "point pairs" in errs[0]["message"]


@pytest.mark.parametrize("command,preset,kernel", [
    ("check-growth", "abelian1", "discrete-hilbert"),
    ("check-growth", "abelian2", "tensor-hilbert"),
    ("check-cancel", "abelian2", "tensor-hilbert"),
])
def test_lattice_only_kernel_rejected_off_grid(tmp_path, capsys, command,
                                               preset, kernel):
    code, _ = run(tmp_path, "kernel", command, "--preset", preset,
                  "--kernel", kernel, "--N", "32")
    assert code == EXIT_CONFIG
    errs = stderr_errors(capsys)
    assert errs[0]["path"] == "/kernel/name"
    assert f"{kernel!r} is a lattice-only kernel" in errs[0]["message"]


# --- every flag sets a configuration key ---


def _actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action.choices, dict):  # a subparsers action
            for sub in action.choices.values():
                yield from _actions(sub)


def test_every_flag_dest_is_a_config_key():
    # a dest that names no config key would be dropped without a word
    plumbing = {"help", "config", "set", "out", "command", "subcommand"}
    dests = {a.dest for a in _actions(build_parser())} - plumbing
    assert "invert.amplification_cap" in dests
    for dest in sorted(dests):
        node = _defaults()
        for part in dest.split("."):
            assert isinstance(node, dict) and part in node, dest
            node = node[part]


# --- help text documents the CSV contracts ---


@pytest.mark.parametrize("argv,needle", [
    (["tame", "--help"], "kind,kernels,kvec,N,lhs"),
    (["decay", "--help"], "n,value,root,op_norm,truncation"),
    (["invert", "--help"], "n,step_rel_norm"),
    (["seminorm", "--help"], "label,alpha,j,l"),
    (["kernel", "check-cancel", "--help"], "bump,R,order0_constant"),
    (["group", "check", "--help"], "/check/tol"),
    (["kernel", "synth", "--help"], "kernel.nckr"),
    (["kernel", "check-growth", "--help"], "per-order"),
    (["convolve", "--help"], "convolution"),
    (["opnorm", "--help"], "converge"),
])
def test_help_lists_csv_columns(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert needle in capsys.readouterr().out


def test_sanitize_maps_numbers_to_json():
    obj = {1: np.array([[1.5, np.nan]]), "v": (np.inf, -np.inf, 1 + 2j,
                                              np.complex128(3 - 4j), np.int64(5),
                                              np.float32(0.5), True, None, "s")}
    assert cli._sanitize(obj) == {
        "1": [[1.5, None]],
        "v": ["Infinity", "-Infinity", [1.0, 2.0], [3.0, -4.0], 5, 0.5, True, None, "s"],
    }
    with pytest.raises(TypeError, match="cannot serialize object in a report"):
        cli._sanitize({"x": object()})
