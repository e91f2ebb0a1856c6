"""``epi`` command line: subcommands, file contracts, exit codes."""
import numpy as np
import pytest

from epilattice import cli
from epilattice.cli import main


def _write_config(tmp_path, name, **items):
    lines = [f"{key} = {value}" for key, value in items.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_outputs(tmp_path, capsys):
    config = _write_config(tmp_path, "sim.txt", d=1, L=300, kernel="meanfield",
                           beta=2.0, rho0=0.99, rho1=0.01, replicas=2,
                           seed=5, t_end=6, samples=7)
    out = tmp_path / "run"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    for replica in range(2):
        lines = (out / f"trajectory_r{replica}.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z,events"
        assert len(lines) == 8
        assert lines[1].startswith("0,")
    finals = (out / "final.csv").read_text().splitlines()
    assert finals[0] == "replica,seed,x_inf,events,wall_ms"
    assert len(finals) == 3
    realized = _realized(out)
    events = sum(int(line.split(",")[3]) for line in finals[1:])
    # the mean-field sampler rejects no proposal
    assert realized == {"events": events, "attempts": events}
    assert "x_inf" in capsys.readouterr().out


def _realized(out):
    """The ``realized.*`` integer entries of a run's manifest."""
    prefix = "realized."
    items = (line.split(" = ", 1)
             for line in (out / "manifest.txt").read_text().splitlines())
    return {key[len(prefix):]: int(value) for key, value in items
            if key.startswith(prefix)}


def test_simulate_single_replica_filename(tmp_path):
    config = _write_config(tmp_path, "sim.txt", L=100, beta=1.5, rho0=0.9,
                           rho1=0.05, t_end=3, samples=4, seed=2)
    out = tmp_path / "one"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_simulate_seed_override_changes_run(tmp_path):
    config = _write_config(tmp_path, "sim.txt", L=200, beta=2.0, rho0=0.95,
                           rho1=0.05, t_end=4, samples=5, seed=1)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    main(["simulate", "--config", config, "--out", str(out_a)])
    main(["simulate", "--config", config, "--out", str(out_b)])
    main(["simulate", "--config", config, "--out", str(out_c), "--seed", "77"])
    same = (out_a / "trajectory.csv").read_text()
    assert same == (out_b / "trajectory.csv").read_text()
    assert same != (out_c / "trajectory.csv").read_text()


# ---------------------------------------------------------------------------
# pde / final / infer pipeline
# ---------------------------------------------------------------------------

def test_pde_outputs(tmp_path, capsys):
    config = _write_config(tmp_path, "pde.txt", d=1, L=32, kernel="tophat:0.1",
                           beta=2.0, rho0="bump:0.8,0.3", rho1="uniform:0.05",
                           t_end=4, samples=5, dt=0.001)
    out = tmp_path / "pde"
    assert main(["pde", "--config", config, "--out", str(out)]) == 0
    fields = (out / "pde_fields.csv").read_text().splitlines()
    assert fields[0] == "t,site_index,u0,u1"
    assert len(fields) == 1 + 5 * 32
    summary = (out / "pde_summary.csv").read_text().splitlines()
    assert summary[0] == "t,mean_u0,mean_u1,max_resid_exp_identity"
    assert len(summary) == 6
    # identity residual stays at the discretization floor
    last_resid = float(summary[-1].split(",")[-1])
    assert last_resid < 1e-8


def test_final_and_infer_round_trip(tmp_path, capsys):
    final_config = _write_config(tmp_path, "fin.txt", d=1, L=64,
                                 kernel="tophat:0.12", beta=1.7,
                                 rho0="bump:1.0,0.35", rho1="complement",
                                 tol="1e-13")
    fin_out = tmp_path / "fin"
    assert main(["final", "--config", final_config, "--out", str(fin_out)]) == 0
    lines = (fin_out / "final_density.csv").read_text().splitlines()
    assert lines[0] == "site_index,rho0,rho1,rho_final"
    assert len(lines) == 65

    infer_config = _write_config(tmp_path, "inf.txt", d=1, L=64,
                                 kernel="tophat:0.12", beta=1.7,
                                 input=str(fin_out / "final_density.csv"),
                                 mode="both")
    inf_out = tmp_path / "inf"
    capsys.readouterr()
    assert main(["infer", "--config", infer_config, "--out", str(inf_out)]) == 0
    printed = capsys.readouterr().out
    assert "beta_estimate = 1.7" in printed

    recovered = np.genfromtxt(inf_out / "inferred_initial.csv",
                              delimiter=",", names=True)
    original = np.genfromtxt(fin_out / "final_density.csv",
                             delimiter=",", names=True)
    assert np.abs(recovered["rho0"] - original["rho0"]).max() < 1e-9


def test_infer_requires_input(tmp_path):
    config = _write_config(tmp_path, "inf.txt", L=16, beta=1.5)
    assert main(["infer", "--config", config, "--out", str(tmp_path)]) == 2


def test_infer_rejects_wrong_grid(tmp_path):
    csv = tmp_path / "wrong.csv"
    csv.write_text("site_index,rho0,rho1,rho_final\n0,1,0,0.5\n1,1,0,0.5\n")
    config = _write_config(tmp_path, "inf.txt", L=16, beta=1.5,
                           input=str(csv))
    assert main(["infer", "--config", config, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# meanfield
# ---------------------------------------------------------------------------

def test_meanfield_table(tmp_path, capsys):
    config = _write_config(tmp_path, "mf.txt", beta="0.5, 2", rho0=0.99,
                           rho1=0.01)
    assert main(["meanfield", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "beta,rho0,rho1,x_inf,y_peak,x_hat"
    row_sub = dict(zip(lines[0].split(","), lines[1].split(",")))
    row_sup = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row_sub["x_hat"]) == 1.0          # subcritical: degenerate root
    assert row_sub["y_peak"] == "nan"              # no interior peak below 1/rho0
    assert float(row_sup["x_inf"]) == pytest.approx(0.19979603232320074, abs=1e-12)
    assert float(row_sup["x_hat"]) == pytest.approx(0.20318786997997995, abs=1e-12)


def test_meanfield_rejects_spatial_profile(tmp_path):
    config = _write_config(tmp_path, "mf.txt", beta=2.0, rho0="bump:0.5,0.2",
                           rho1=0.01)
    assert main(["meanfield", "--config", config]) == 2


def test_meanfield_writes_file_with_out(tmp_path):
    config = _write_config(tmp_path, "mf.txt", beta=2.0, rho0=0.9, rho1=0.1)
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", config, "--out", str(out)]) == 0
    assert (out / "meanfield.csv").read_text().startswith(
        "beta,rho0,rho1,x_inf,y_peak,x_hat\n")


# ---------------------------------------------------------------------------
# sweeps and reproducibility
# ---------------------------------------------------------------------------

def test_hydro_sweep_and_manifest_rerun(tmp_path):
    config = _write_config(tmp_path, "hyd.txt", d=1, L="50, 150",
                           kernel="meanfield", beta=2.0, rho0=0.95, rho1=0.05,
                           replicas=3, seed=3, t_end=4, samples=9, dt=0.01)
    first, second = tmp_path / "h1", tmp_path / "h2"
    assert main(["hydro-sweep", "--config", config, "--out", str(first)]) == 0
    lines = (first / "hydro_convergence.csv").read_text().splitlines()
    assert lines[0] == "L,gamma,replica,err_i0,err_i1"
    assert len(lines) == 1 + 2 * 3
    # a manifest is a valid config: rerun must be byte-identical
    assert main(["hydro-sweep", "--config", str(first / "manifest.txt"),
                 "--out", str(second)]) == 0
    for name in ("hydro_convergence.csv", "hydro_summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_hydro_sweep_and_simulate_in_two_dimensions(tmp_path):
    items = dict(d=2, L=8, kernel="tophat:0.3", beta=2.0, rho0=0.9,
                 rho1="bump:0.1,0.3", replicas=2, seed=3, t_end=1, samples=3)
    config = _write_config(tmp_path, "hyd2.txt", dt=0.1, **items)
    assert main(["hydro-sweep", "--config", config,
                 "--out", str(tmp_path / "h")]) == 0
    lines = (tmp_path / "h" / "hydro_convergence.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    config = _write_config(tmp_path, "sim2.txt", **items)
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "s")]) == 0
    for replica in range(2):
        lines = (tmp_path / "s" / f"trajectory_r{replica}.csv").read_text()
        assert len(lines.splitlines()) == 1 + 3
    finals = (tmp_path / "s" / "final.csv").read_text().splitlines()[1:]
    realized = _realized(tmp_path / "s")
    assert realized["events"] == sum(int(line.split(",")[3]) for line in finals)
    # thinning on a local kernel: some proposals hit non-susceptible sites
    assert realized["attempts"] > realized["events"] > 0


def test_simulate_random_init_in_three_dimensions(tmp_path):
    config = _write_config(tmp_path, "sim3.txt", d=3, L=6, kernel="tophat:0.3",
                           beta=2.0, rho0=0.9, rho1="bump:0.1,0.3", init="random",
                           replicas=2, seed=3, t_end=1, samples=3)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "s")]) == 0
    for replica in range(2):
        lines = (tmp_path / "s" / f"trajectory_r{replica}.csv").read_text()
        assert len(lines.splitlines()) == 1 + 3
    finals = (tmp_path / "s" / "final.csv").read_text().splitlines()[1:]
    assert len(finals) == 2
    realized = _realized(tmp_path / "s")
    assert realized["events"] == sum(int(line.split(",")[3]) for line in finals)
    assert realized["attempts"] >= realized["events"] > 0


def test_critical_sweep_and_manifest_rerun(tmp_path):
    config = _write_config(tmp_path, "crit.txt", d=1, L="50, 100",
                           beta="0.5, 2", alpha=0.25, replicas=4, seed=9)
    first, second = tmp_path / "c1", tmp_path / "c2"
    assert main(["critical-sweep", "--config", config, "--out", str(first)]) == 0
    lines = (first / "critical.csv").read_text().splitlines()
    assert lines[0] == "beta,alpha,L,replica,seed,x_inf,target"
    assert len(lines) == 1 + 2 * 2 * 4
    entries = dict(line.split(" = ", 1)
                   for line in (first / "manifest.txt").read_text().splitlines())
    # no site starts removed and every run is absorbed, so each replica
    # commits one recovery per seed and two events per new infection
    expected = 0
    for row in lines[1:]:
        L, x_inf = int(row.split(",")[2]), float(row.split(",")[5])
        n_inf = int(entries[f"realized.L{L}.n_infected"])
        expected += n_inf + 2 * (L - n_inf - round(x_inf * L))
    assert int(entries["realized.events"]) == expected > 0
    assert main(["critical-sweep", "--config", str(first / "manifest.txt"),
                 "--out", str(second)]) == 0
    for name in ("critical.csv", "critical_summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_unknown_key(tmp_path, capsys):
    config = _write_config(tmp_path, "bad.txt", L=100, wibble=3)
    assert main(["simulate", "--config", config]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # a step far too coarse for this rate trips the structural guard
    config = _write_config(tmp_path, "stiff.txt", d=1, L=32, beta=80,
                           rho0=0.9, rho1=0.1, dt=0.1, t_end=5, samples=6)
    assert main(["pde", "--config", config, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_unexpected_error_prints_traceback(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("kaboom")
    monkeypatch.setitem(cli._COMMANDS, "meanfield", (boom, False))
    assert main(["meanfield"]) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "in boom" in err
    assert "unexpected error: RuntimeError: kaboom" in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["warp-speed"])
    assert exc.value.code == 2
