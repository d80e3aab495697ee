"""End-to-end checks of the command line front end.

Commands run in-process through main(argv); every test pins its output
directory to tmp_path so runs stay isolated.
"""

import json
import os

import pytest

from nilconv.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


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


def test_opnorm_delta(tmp_path):
    code, out = run(tmp_path, "opnorm", "--preset", "abelian1", "--kernel",
                    "delta", "--set", "kernel.amplitude=2.0", "--N", "8")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["converged"] is True
    assert res["value"] == pytest.approx(2.0, rel=1e-9)


def test_seminorm_csv(tmp_path):
    code, out = run(tmp_path, "seminorm", "--preset", "abelian2", "--kernel",
                    "dyadic", "--N", "16", "--k", "1", "1",
                    "--radius-factors", "1.0")
    assert code == EXIT_OK
    res = read_report(out)["result"]
    assert res["total"] > 0
    header = (out / "seminorm.csv").read_text().splitlines()[0]
    assert header == "label,alpha,j,l,z_norms,block,weight,value,iterations,residual"


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


def test_decay_requires_two_factor_orders(tmp_path, capsys):
    code, _ = run(tmp_path, "decay", "--preset", "abelian2", "--kernel",
                  "delta", "--k", "1")
    assert code == EXIT_CONFIG
    assert stderr_errors(capsys)[0]["path"] == "/k"


# --- help text documents the CSV contracts ---


@pytest.mark.parametrize("argv,needle", [
    (["tame", "--help"], "kind,kernels,kvec,N,lhs"),
    (["decay", "--help"], "n,value,root,op_norm,truncation"),
    (["invert", "--help"], "n,step_rel_norm"),
    (["seminorm", "--help"], "label,alpha,j,l"),
    (["kernel", "check-cancel", "--help"], "bump,R,order0_constant"),
])
def test_help_lists_csv_columns(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert needle in capsys.readouterr().out
