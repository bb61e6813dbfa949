import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chns import cli, scheme
from chns.assembly import NonpositiveEnergyError
from chns.cli import main
from chns.config import _DEFAULTS, ConfigError, parse_config
from chns.experiments import EnergyTrace, ErrorRecord, coarsening_params, \
    default_cross_polygon, default_tau_rule, random_phase_field, relaxation_params
from chns.linsolve import SolverError
from chns.scheme import Params, ReductionError
from chns.io import ENERGY_HEADER, write_energy_csv, write_error_table_csv, \
    write_h1_error_table_csv, write_vtk_snapshot
from chns.mesh import build_uniform_mesh


def make_record(h, tau, scale):
    return ErrorRecord(h=h, tau=tau,
                       phi_linf_l2=3.1e-4 * scale, mu_l2_l2=5.4e-2 * scale,
                       u_linf_l2=3.7e-3 * scale, p_l2_l2=3.0e-2 * scale,
                       phi_h1=8.4e-2 * scale, mu_h1=5.4e-1 * scale,
                       u_h1=1.5e-1 * scale, p_h1=1.8e-1 * scale,
                       r_err=1e-5, rho_err=1e-6)


# -- configuration -----------------------------------------------------------

def test_converge_defaults_match_reference_setup():
    cfg = parse_config(kind="converge")
    prm = cfg.params
    assert (prm.mobility, prm.lam, prm.eps, prm.nu) == (0.001, 0.001, 0.04, 0.1)
    assert (prm.c1, prm.c2, prm.gamma, prm.t_end) == (0.1, 0.1, 1.0, 0.1)
    assert cfg.settings["levels"] == [4, 8, 16]
    # the study's time step at the coarsest level
    assert prm.tau == default_tau_rule(1.0 / 4)


@pytest.mark.parametrize("kind, preset", [("converge", Params), ("coarsen", coarsening_params),
                                          ("relax", relaxation_params),
                                          ("stability", coarsening_params)])
def test_defaults_are_the_driver_presets(kind, preset):
    prm = parse_config(kind=kind).params
    if kind in ("converge", "stability"):
        # these take each run's time step from tau_factor or tau_list
        prm = replace(prm, tau=preset().tau)
    assert prm == preset()


# the keys each command reads: its driver's constants and its own settings
CONSTANTS = ["c1", "c2", "eps", "gamma", "lam", "mobility", "nu", "solver_tol", "t_end"]
KEYS = {
    "converge": CONSTANTS + ["levels", "out_dir", "tau_factor"],
    "coarsen": CONSTANTS + ["nx", "out_dir", "seed", "snapshot_times", "tau"],
    "relax": CONSTANTS + ["nx", "out_dir", "polygon", "snapshot_times", "tau"],
    "stability": CONSTANTS + ["nx", "out_dir", "seed", "tau_list"],
}


def test_each_command_accepts_exactly_the_keys_it_reads():
    assert {kind: sorted(keys) for kind, keys in _DEFAULTS.items()} \
        == {kind: sorted(keys) for kind, keys in KEYS.items()}
    assert sum(len(keys) for keys in KEYS.values()) == 53
    for kind, keys in KEYS.items():
        cfg = parse_config(kind=kind)
        assert sorted(cfg.settings) == sorted(set(keys) - set(CONSTANTS) - {"tau"})


def test_seeds_of_64_bits_accepted():
    for seed in (0, 2 ** 64 - 1):
        cfg = parse_config(kind="coarsen", overrides={"seed": seed})
        assert random_phase_field(cfg.settings["seed"], 4).shape == (4,)


def test_explicit_shift_must_dominate_gamma(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "coarsen", "c1": 0.5}))
    with pytest.raises(ConfigError, match="c1 must exceed gamma"):
        parse_config("coarsen", str(path))


def test_override_wins():
    cfg = parse_config(kind="coarsen", overrides={"tau": 0.01})
    assert cfg.params.tau == 0.01


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "coarsen", "weird_knob": 1}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config("coarsen", str(path))


@pytest.mark.parametrize("overrides", [{"nx": "abc"}, {"tau": "0.1"}, {"t_end": True},
                                       {"snapshot_times": "0.1"}, {"out_dir": 3}])
def test_wrong_type_rejected(overrides):
    with pytest.raises(ConfigError, match="must be"):
        parse_config(kind="coarsen", overrides=overrides)


def test_integers_accepted_for_numbers():
    cfg = parse_config(kind="coarsen", overrides={"t_end": 5, "snapshot_times": [1, 2.5]})
    assert cfg.params.t_end == 5 and cfg.settings["snapshot_times"] == [1, 2.5]


@pytest.mark.parametrize("kind, overrides", [
    ("coarsen", {"tau": 0.003, "t_end": 0.01}),
    ("relax", {"tau": 0.3}),
    ("stability", {"tau_list": [1e-3, 0.3], "t_end": 1.0}),
    # tau = 0.1 h^3 divides t_end at nx = 4 (8 steps) but not at nx = 5 (15.625)
    ("converge", {"t_end": 0.0125, "levels": [4, 5]}),
])
def test_t_end_must_be_a_whole_number_of_time_steps(kind, overrides):
    with pytest.raises(ConfigError, match="whole number of time steps"):
        parse_config(kind=kind, overrides=overrides)


def test_whole_numbers_of_time_steps_accepted():
    for kind in ("converge", "coarsen", "relax", "stability"):
        parse_config(kind=kind)
    # 0.009 / 0.003 is 2.9999999999999996 in floating point
    assert parse_config(kind="coarsen",
                        overrides={"tau": 0.003, "t_end": 0.009}).params.t_end == 0.009
    parse_config(kind="converge", overrides={"t_end": 0.0125, "levels": [4, 6]})


@pytest.mark.parametrize("polygon", [
    [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2]],
    [[0.2], [0.8, 0.8], [0.2, 0.8]],
    [[0.2, 0.2], [0.8, "0.8"], [0.2, 0.8]],
    [[0.2, 0.2], [0.8, 0.8]],
])
def test_bad_polygon_rejected(polygon):
    with pytest.raises(ConfigError, match="polygon must be"):
        parse_config(kind="relax", overrides={"polygon": polygon})


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config("coarsen", str(path))


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config(kind="simulate")


# -- CSV writers -------------------------------------------------------------

def test_error_table_shape_and_roundtrip(tmp_path):
    records = [make_record(0.25, 1.5625e-3, 1.0), make_record(0.125, 1.953125e-4, 0.2)]
    path = tmp_path / "l2.csv"
    write_error_table_csv(records, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header == ["h", "tau", "err_phi_linf_l2", "rate", "err_mu_l2_l2", "rate",
                      "err_u_linf_l2", "rate", "err_p_l2_l2", "rate"]
    first = lines[1].split(",")
    assert first[3] == ""  # no rate on the first row
    second = lines[2].split(",")
    assert float(second[3]) == pytest.approx(np.log2(5.0), rel=1e-9)
    # round-trip to 12 significant digits
    assert float(first[2]) == pytest.approx(records[0].phi_linf_l2, rel=1e-12)

    write_h1_error_table_csv(records, str(tmp_path / "h1.csv"))
    h1_lines = (tmp_path / "h1.csv").read_text().strip().split("\n")
    assert h1_lines[0].startswith("h,tau,err_phi_h1,rate")


def test_single_record_has_no_rates(tmp_path):
    path = tmp_path / "one.csv"
    write_error_table_csv([make_record(0.25, 1e-3, 1.0)], str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].endswith(",")


def test_energy_csv_header_and_rows(tmp_path):
    tr = EnergyTrace(initial_energy=101.0)
    for i in range(3):
        tr.steps.append(i + 1)
        tr.times.append(0.001 * (i + 1))
        tr.energy.append(100.0 - i)
        tr.dissipation.append(0.05)
        tr.identity_residual.append(1e-12)
        tr.discriminant.append(4.0)
        tr.root_ratio.append(1.0)
    path = tmp_path / "energy.csv"
    write_energy_csv(tr, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ENERGY_HEADER
    assert len(lines) == 4
    energies = [float(l.split(",")[2]) for l in lines[1:]]
    assert energies == sorted(energies, reverse=True)  # monotone, derivable from column


# -- VTK writer --------------------------------------------------------------

def parse_legacy_vtk(path):
    """Minimal independent reader of the legacy ASCII unstructured format."""
    with open(path) as fh:
        lines = [l.strip() for l in fh]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    npts = int(lines[i].split()[1])
    pts = np.array([[float(v) for v in lines[i + 1 + k].split()] for k in range(npts)])
    i += 1 + npts
    ncells, _ = int(lines[i].split()[1]), int(lines[i].split()[2])
    cells = [[int(v) for v in lines[i + 1 + k].split()] for k in range(ncells)]
    i += 1 + ncells
    assert lines[i].split()[0] == "CELL_TYPES"
    types = [int(lines[i + 1 + k]) for k in range(ncells)]
    i += 1 + ncells
    assert lines[i].split()[0] == "POINT_DATA"
    data = {}
    i += 1
    while i < len(lines) and lines[i]:
        kind, name = lines[i].split()[0], lines[i].split()[1]
        if kind == "SCALARS":
            i += 2  # skip LOOKUP_TABLE
            data[name] = np.array([float(lines[i + k]) for k in range(npts)])
            i += npts
        else:
            i += 1
            data[name] = np.array([[float(v) for v in lines[i + k].split()]
                                   for k in range(npts)])
            i += npts
    return pts, cells, types, data


def test_vtk_snapshot_two_triangles(tmp_path):
    mesh = build_uniform_mesh(1, 1)  # 4 vertices and 5 edges: 9 velocity nodes
    path = tmp_path / "snap.vtk"
    # planar velocity: u_x = 0..8 on the nodes, then u_y = 100..108
    u = np.concatenate([np.arange(9.0), 100.0 + np.arange(9.0)])
    fields = {"phi": np.ones(4), "mu": np.arange(4.0), "p": np.zeros(4), "u": u}
    write_vtk_snapshot(mesh, fields, str(path))
    pts, cells, types, data = parse_legacy_vtk(str(path))
    assert pts.shape == (4, 3)
    assert len(cells) == 2 and all(c[0] == 3 for c in cells)
    assert types == [5, 5]
    assert np.allclose(data["phi"], 1.0)
    assert np.allclose(data["mu"], [0, 1, 2, 3])
    assert np.array_equal(data["u"][:, 0], [0, 1, 2, 3])
    assert np.array_equal(data["u"][:, 1], [100, 101, 102, 103])
    assert np.array_equal(data["u"][:, 2], [0, 0, 0, 0])
    for wrong in (u[:8], u[:-1], np.append(u, 0.0)):
        with pytest.raises(ValueError, match="expected 2 \\* 9"):
            write_vtk_snapshot(mesh, {**fields, "u": wrong}, str(path))


# -- CLI ---------------------------------------------------------------------

def test_cli_converge_writes_tables(tmp_path):
    out = tmp_path / "conv"
    code = main(["converge", "--nx", "4", "--out", str(out)])
    assert code == 0
    assert (out / "l2_errors.csv").exists()
    assert (out / "h1_errors.csv").exists()


def test_cli_converge_with_config_file(tmp_path):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({"levels": [4], "out_dir": str(tmp_path / "from_file")}))
    code = main(["converge", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "from_file" / "l2_errors.csv").exists()


def test_cli_stability_writes_one_csv_per_tau(tmp_path):
    out = tmp_path / "stab"
    code = main(["stability", "--nx", "8", "--tau", "1e-2,1e-1",
                 "--t-end", "0.1", "--out", str(out)])
    assert code == 0
    assert (out / "energy_tau0.01.csv").exists()
    assert (out / "energy_tau0.1.csv").exists()


def test_cli_stability_takes_its_time_step_from_tau_list(tmp_path):
    # the preset's own tau (1e-3) exceeds this t_end, but the sweep never uses it
    out = tmp_path / "stab"
    assert main(["stability", "--tau", "1e-4", "--t-end", "1e-4", "--nx", "2",
                 "--out", str(out)]) == 0
    assert (out / "energy_tau0.0001.csv").exists()


def test_cli_coarsen_and_snapshots(tmp_path):
    out = tmp_path / "co"
    code = main(["coarsen", "--nx", "8", "--tau", "1e-2", "--t-end", "0.05",
                 "--out", str(out)])
    assert code == 0
    assert (out / "energy.csv").exists()


def test_cli_relax_runs(tmp_path):
    out = tmp_path / "rx"
    code = main(["relax", "--nx", "8", "--tau", "1e-2", "--t-end", "0.02",
                 "--out", str(out)])
    assert code == 0
    assert (out / "energy.csv").exists()


def test_cli_relax_not_monotone_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(EnergyTrace, "monotone", lambda self: False)
    code = main(["relax", "--nx", "8", "--tau", "1e-2", "--t-end", "0.02",
                 "--out", str(tmp_path / "rx")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["coarsen", "--tau", "abc"],
    ["coarsen", "--nx", "0"],
    ["coarsen", "--nx", "-3"],
    ["relax", "--nx", "2.5"],
    ["converge", "--nx", "4,0"],
    ["stability", "--tau", "1e-2,-1"],
    ["coarsen", "--tau", "1", "--t-end", "0.1"],
    ["relax", "--nx", "2", "--tau", "1e300", "--t-end", "1e300"],  # tau^2 overflows
    ["stability", "--tau", "1e-2,1", "--t-end", "0.1"],
    # a trailing dict is written to a JSON file passed with --config
    ["coarsen", {"nx": "abc"}],
    ["coarsen", {"tau": "0.1"}],
    ["relax", {"nx": 2.5}],
    ["coarsen", {"seed": True}],
    ["converge", {"levels": [4, "8"]}],
    ["coarsen", {"tau": float("nan")}],
    ["coarsen", {"t_end": float("inf")}],
    ["relax", {"polygon": [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2]], "nx": 4}],
    ["relax", {"polygon": [[0.2], [0.8, 0.8], [0.2, 0.8]], "nx": 4}],
    ["coarsen", "--tau", "0.003", "--t-end", "0.01"],
    ["converge", {"t_end": 0.0125, "levels": [4, 5]}],
    ["coarsen", {"solver_tol": 0}],
    ["coarsen", {"solver_tol": 1.5}],
    ["relax", {"solver_tol": -1e-3}],
    ["coarsen", "--seed", "-1"],
    ["coarsen", "--seed", "18446744073709551616"],
    ["stability", {"seed": -1}],
    ["converge", {"levels": []}],
    ["stability", {"tau_list": []}],
    # a flag read as one value takes no list, and no flag takes an empty value
    ["coarsen", "--tau", "1e-3,1e-2", "--nx", "8"],
    ["coarsen", "--nx", "8,16"],
    ["relax", "--tau", "1e-3,1e-2"],
    ["relax", "--nx", "8,16"],
    ["stability", "--nx", "8,16"],
    ["coarsen", "--tau", "1e-3,"],
    ["coarsen", "--tau", ""],
    ["relax", "--nx", ""],
    ["stability", "--tau", ""],
    ["converge", "--nx", ""],
])
def test_cli_bad_numbers_exit_2_with_one_line(argv, tmp_path, capsys):
    line = _exit_2_line(argv, tmp_path, capsys)
    # an empty value, or a list where one value is read, is refused by the flag's name
    for flag, list_command in (("--tau", "stability"), ("--nx", "converge")):
        value = argv[argv.index(flag) + 1] if flag in argv else None
        if value == "" or (value and "," in value and argv[0] != list_command):
            assert flag in line


def _exit_2_line(argv, tmp_path, capsys) -> str:
    """Run the CLI, a trailing dict written to a JSON file passed with --config; it
    must exit 2 with one error line and no output. Returns that line."""
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + ["--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    return captured.err


# a valid value of each key some command reads
VALUES = {"tau": 1e-3, "tau_list": [1e-3], "nx": 8, "seed": 1, "snapshot_times": [0.1],
          "polygon": default_cross_polygon().tolist(), "tau_factor": 0.1, "levels": [4]}
UNREAD = {"converge": ("tau", "tau_list", "nx", "seed", "snapshot_times", "polygon"),
          "coarsen": ("tau_factor", "tau_list", "levels", "polygon"),
          "relax": ("seed", "tau_factor", "tau_list", "levels"),
          "stability": ("tau", "tau_factor", "levels", "snapshot_times", "polygon")}


@pytest.mark.parametrize("argv, named", [
    ([command, {key: VALUES[key]}], f"'{key}'")
    for command, keys in UNREAD.items() for key in keys
] + [
    (["converge", {"kind": "coarsen"}], "'coarsen'"),
    (["coarsen", {"kind": "stability", "tau_list": [1e-2], "t_end": 0.1}], "'stability'"),
    (["converge", "--tau", "0.001"], "'tau'"),
    (["converge", "--tau", "0.5"], "'tau'"),
    (["relax", "--seed", "99"], "'seed'"),
])
def test_cli_input_the_command_does_not_read_exits_2_naming_it(argv, named, tmp_path, capsys):
    assert named in _exit_2_line(argv, tmp_path, capsys)


@pytest.mark.parametrize("exc", [
    pytest.param(exc, id=type(exc).__name__) for exc in (
        SolverError("gmres stagnated", 0.5), ReductionError("no real root"),
        NonpositiveEnergyError("shifted energies must be positive"))
] + [pytest.param(None, id="converge")])
def test_cli_run_failures_exit_3_with_one_line(exc, tmp_path, capsys, monkeypatch):
    if exc is None:
        # a real failure: no solve reaches this tolerance, and the level is named
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver_tol": 1e-300}))
        argv = ["converge", "--nx", "4", "--config", str(cfg)]
        expected = "error: SolverError: level nx=4: step 1: "
    else:
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli.ex, "run_coarsening", fail)
        argv = ["coarsen"]
        expected = f"error: {type(exc).__name__}: {exc}\n"
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1


def test_an_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli.ex, "run_coarsening", interrupt)
    assert main(["coarsen", "--out", str(tmp_path / "o")]) == 130
    err = capsys.readouterr().err
    assert err == "error: interrupted\n"


@pytest.mark.parametrize("out", ["afile/x", {"out_dir": ""}], ids=["under-a-file", "empty"])
def test_an_unusable_output_directory_exits_2_with_one_line(out, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    if isinstance(out, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(out))
        flags = ["--config", "cfg.json"]
    else:
        flags = ["--out", out]
    assert main(["coarsen", "--nx", "2", "--tau", "0.01", "--t-end", "0.01"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot make output directory")
    assert captured.err.count("\n") == 1


def test_an_overflowing_discriminant_is_reported_without_a_warning(tmp_path, capsys):
    # a1^2 overflows at tau = 1e-300; the roots come from scaled coefficients
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coarsen", "--nx", "2", "--tau", "1e-300", "--t-end", "1e-300",
                     "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    row = (tmp_path / "energy.csv").read_text().splitlines()[1].split(",")
    assert row[ENERGY_HEADER.split(",").index("discriminant")] == "inf"


def test_an_overflowing_residual_norm_exits_3_without_a_warning(tmp_path, capsys):
    # at tau = 1e154 the sum of squares of a GMRES residual overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coarsen", "--nx", "2", "--tau", "1e154", "--t-end", "1e154",
                     "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("error: SolverError: step 1: gmres stagnated "
                                       "(relative residual inf)\n")


def test_a_failure_inside_a_step_names_the_step(tmp_path, capsys, monkeypatch):
    real = scheme.pressure_correction
    calls = []

    def fails_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise SolverError("projected conjugate gradients did not converge", 0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheme, "pressure_correction", fails_third)
    assert main(["coarsen", "--nx", "4", "--tau", "1e-2", "--t-end", "0.05",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("error: SolverError: step 3: projected conjugate "
                                       "gradients did not converge (relative residual 5.000e-01)\n")


def test_a_nan_in_phi_stops_the_run_before_any_solve(tmp_path, capsys, monkeypatch):
    # a NaN fails the energy check at once instead of failing a solve later
    def with_nan(seed, ndofs):
        phi = random_phase_field(seed, ndofs)
        phi[0] = np.nan
        return phi

    def no_solve(*args, **kwargs):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(cli.ex, "random_phase_field", with_nan)
    for name in ("solve_general", "solve_spd", "solve_neumann_zero_mean"):
        monkeypatch.setattr(scheme, name, no_solve)
    assert main(["coarsen", "--nx", "16", "--tau", "1e-3", "--t-end", "1e-2",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    # the initial state's energies are checked first: it is step 0
    assert err.startswith("error: NonpositiveEnergyError: step 0: shifted energies must be positive")
    assert err.count("\n") == 1


def test_cli_selftest_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2


def test_cli_no_args_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 2


def test_cli_config_violation_is_reported(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"c1": 0.5}))
    code = main(["coarsen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_determinism_byte_identical_energy(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["coarsen", "--nx", "8", "--tau", "1e-2", "--t-end", "0.03",
                     "--seed", "2024", "--out", str(out)]) == 0
    b1 = (out1 / "energy.csv").read_bytes()
    b2 = (out2 / "energy.csv").read_bytes()
    assert b1 == b2
