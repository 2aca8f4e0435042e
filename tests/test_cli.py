"""Exit codes, CSV determinism, and manifest reruns of the study runner."""

import json
import math

import numpy as np
import pytest

from boxqed.cli import _parse_params, build_parser, main


DELETE = object()


def run(argv):
    return main(argv)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestVersionAndParsing:
    def test_version_flag_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--version"])
        assert info.value.code == 0
        assert "boxqed 0.1.0" in capsys.readouterr().out


MODE = [0, 0, 1]

DEFAULT_PARAMS = {
    "modes": {},
    "coulomb-limit": {"separation": [0.0, 0.0, 1.0], "eps_levels": [0.5, 0.25],
                      "box_levels": [20.0, 40.0]},
    "riemann": {"box_levels": [15.0, 30.0, 60.0],
                "anisotropic_ells": [4, 8, 16]},
    "fock-spectrum": {"mode": MODE, "cap": 2},
    "action-eval": {"samples": 5, "t": 0.5, "s": 0.0},
    "propagate": {"backend": "analytic-quadratic", "mode": MODE, "cap": 4,
                  "horizon": math.pi / 2.0, "segments": [4, 8, 16, 32, 64]},
    "propagate --backend galerkin": {"backend": "galerkin", "mode": MODE,
                                     "cap": 2, "horizon": 0.5,
                                     "segments": [1, 2, 4, 8]},
    "residual": {"mode": MODE, "cap": 4,
                 "rho_list": [0.125, 0.0625, 0.03125, 0.015625, 0.0078125,
                              0.00390625, 0.001953125],
                 "dt_factor": 0.125},
    "rho-star": {"mode": MODE, "sample_budget": 3, "bisect_iters": 6,
                 "ceiling": 1.0},
    "g-equivalence": {"mode": MODE, "cap": 4, "t": 0.5},
}


class TestDefaults:
    # json text pins the types too: a float default parsed as the int 15
    # would change the manifest bytes
    @pytest.mark.parametrize("command", DEFAULT_PARAMS)
    def test_default_params(self, tmp_path, command):
        argv = command.split() + ["--out", str(tmp_path)]
        args = build_parser().parse_args(argv)
        params = _parse_params(args.subcommand, vars(args))
        assert json.dumps(params, sort_keys=True) \
            == json.dumps(DEFAULT_PARAMS[command], sort_keys=True)


class TestFockSpectrum:
    def test_one_mode_cap_two_levels(self, tmp_path):
        assert run(["fock-spectrum", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fock_spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "energy,multiplicity"
        table = [line.split(",") for line in lines[1:]]
        energies = [float(a) for a, _ in table]
        counts = [int(b) for _, b in table]
        # |k| = 1 on the 2 pi box, so levels step by hbar c |k| = 1; the
        # multiplicities are those of four capped oscillators
        assert energies == [float(n) for n in range(9)]
        assert counts == [1, 4, 10, 16, 19, 16, 10, 4, 1]
        assert sum(counts) == 3**4


class TestModes:
    def test_counts_and_halving(self, tmp_path):
        assert run(["modes", "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"] == {"N1": 13, "N2": 13, "N3": 13}
        lines = (tmp_path / "modes.csv").read_text().strip().splitlines()
        assert lines[0] == "s1,s2,s3,k1,k2,k3,e1x,e1y,e1z,e2x,e2y,e2z,in_prime"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 13 for row in rows)
        assert len(rows) == 26            # full set, 3^3 - 1 nonzero sites
        assert sum(row[-1] == "1" for row in rows) == 13


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        args = ["residual", "--rho-list", "0.125,0.0625,0.03125"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "residual.csv").read_bytes()
        second = (tmp_path / "b" / "residual.csv").read_bytes()
        assert first == second
        lines = first.decode().strip().splitlines()
        assert lines[0] == "rho,delta,residual"
        assert len(lines) == 4
        assert read_manifest(tmp_path / "a")["outputs"] \
            == read_manifest(tmp_path / "b")["outputs"]

    def test_rerun_accepts_older_manifest_fields(self, tmp_path):
        out = tmp_path / "run"
        assert run(["fock-spectrum", "--out", str(out)]) == 0
        # earlier manifests carried a thread count and three unread config
        # keys
        older = read_manifest(out)
        older["jobs"] = 2
        older["config"].update(particle_cap=3, epsilon_reg=0.1, n_max=4)
        path = tmp_path / "older.json"
        path.write_text(json.dumps(older))
        assert run(["rerun", "--manifest", str(path),
                    "--out", str(tmp_path / "replay")]) == 0

    def test_rerun_reproduces_and_detects_drift(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["g-equivalence", "--out", str(out)]) == 0
        manifest_path = out / "manifest.json"
        assert run(["rerun", "--manifest", str(manifest_path),
                    "--out", str(tmp_path / "replay")]) == 0
        replay = read_manifest(tmp_path / "replay")
        assert replay["outputs"] == read_manifest(out)["outputs"]
        # corrupt a recorded hash: the rerun must fail the invariant
        tampered = read_manifest(out)
        tampered["outputs"]["g_equivalence.csv"] = "0" * 64
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(tampered))
        capsys.readouterr()
        code = run(["rerun", "--manifest", str(broken),
                    "--out", str(tmp_path / "replay2")])
        assert code == 4
        assert "differ" in capsys.readouterr().err


class TestExitCodes:
    def test_cutoff_constraint_names_the_rule(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M1 = 1\nM2 = 2\nM3 = 1\n")
        code = run(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "M2 <= M3" in capsys.readouterr().err

    def test_budget_exhaustion(self, tmp_path, capsys):
        cfg = tmp_path / "coupled.cfg"
        cfg.write_text("n_particles = 1\nmasses = 1.0\ncharges = 0.9\n"
                       "sigma_psi = 1e6\n")
        code = run(["propagate", "--backend", "galerkin", "--config", str(cfg),
                    "--cap", "6", "--segments", "1",
                    "--out", str(tmp_path / "o")])
        assert code == 3
        assert "budget" in capsys.readouterr().err.lower()

    def test_analytic_propagate_is_field_only(self, tmp_path, capsys):
        cfg = tmp_path / "coupled.cfg"
        cfg.write_text("n_particles = 1\nmasses = 1.0\ncharges = 0.9\n")
        code = run(["propagate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "field-only" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["residual", "g-equivalence",
                                            "propagate"])
    def test_rejected_run_leaves_no_output_directory(self, tmp_path,
                                                     subcommand):
        cfg = tmp_path / "coupled.cfg"
        cfg.write_text("n_particles = 1\nmasses = 1.0\ncharges = 0.9\n")
        out = tmp_path / "o"
        assert run([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,flag,value", [
        ("fock-spectrum", "--cap", "x"),
        ("propagate", "--horizon", "x"),
        ("coulomb-limit", "--eps-levels", "0.5,a"),
        ("riemann", "--anisotropic-ells", "1.5"),
        ("fock-spectrum", "--mode", "1"),
        ("propagate", "--mode", "0,0,1,2"),
        ("action-eval", "--samples", "-1"),
        ("action-eval", "--samples", "0"),
    ])
    def test_malformed_value_exits_two(self, tmp_path, capsys, subcommand,
                                       flag, value):
        out = tmp_path / "o"
        assert run([subcommand, flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["particle_cap", "epsilon_reg", "n_max"])
    def test_removed_config_keys_are_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = run(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--eps-levels", "nan", "eps"),
        ("--eps-levels", "inf", "eps"),
        ("--box-levels", "nan", "box lengths"),
        ("--separation", "0,nan,1", "finite"),
    ])
    def test_non_finite_coulomb_inputs_exit_two(self, tmp_path, capsys, flag,
                                                value, message):
        assert run(["coulomb-limit", flag, value, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        code = run(["modes", "--config", str(tmp_path / name), "--out", str(out)])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()

    # the last is a JSON string that holds every field name as a substring
    @pytest.mark.parametrize("text", [
        None, "{not json", '"subcommand config params outputs seed"'])
    def test_unreadable_manifest_exits_two(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        out = tmp_path / "o"
        code = run(["rerun", "--manifest", str(manifest), "--out", str(out)])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()

    # one edit of a recorded manifest each; rerun must read it as strictly
    # as the command line reads its flags and configuration file
    @pytest.mark.parametrize("subcommand,section,key,value", [
        ("modes", None, "config", "oops"),
        ("modes", "params", "bogus", 3),
        ("modes", "config", "M1", 1.5),
        ("modes", "config", "L1", None),
        ("action-eval", "params", "samples", "x"),
        ("action-eval", "params", "t", DELETE),
        ("action-eval", None, "seed", "x"),
        ("action-eval", None, "seed", 1.5),
        ("propagate", "params", "backend", "bogus"),
        ("modes", None, "subcommand", ["modes"]),
        ("modes", None, "outputs", "modes.csv"),
        ("fock-spectrum", "params", "mode", [1]),
        ("action-eval", "params", "samples", -1),
    ], ids=["config-string", "unknown-param", "fractional-M1", "null-L1",
            "text-samples", "missing-t", "text-seed", "fractional-seed",
            "unknown-backend", "list-subcommand", "string-outputs",
            "short-mode", "negative-samples"])
    def test_malformed_manifest_exits_two(self, tmp_path, capsys, subcommand,
                                          section, key, value):
        argv = [subcommand, "--out", str(tmp_path / "run")]
        if subcommand == "propagate":
            argv += ["--segments", "1"]
        assert run(argv) == 0
        manifest = read_manifest(tmp_path / "run")
        target = manifest if section is None else manifest[section]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        capsys.readouterr()
        code = run(["rerun", "--manifest", str(path), "--out", str(out)])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["L1 = inf", "hbar = nan", "masses = inf",
                                      "charges = nan"])
    def test_non_finite_config_values_exit_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_particles = 1\nmasses = 1.0\ncharges = 0.5\n{line}\n")
        code = run(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "finite" in capsys.readouterr().err


class TestStudyOutputs:
    def test_propagate_summary_reports_convergence(self, tmp_path):
        assert run(["propagate", "--segments", "4,8,16",
                    "--out", str(tmp_path)]) == 0
        summary = read_manifest(tmp_path)["summary"]
        assert summary["monotone"] is True
        assert min(summary["orders"]) >= 0.9
        assert summary["growth_rate"] <= 0.0
        lines = (tmp_path / "propagate.csv").read_text().strip().splitlines()
        assert lines[0] == "segments,relative_error"
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "16"]

    def test_galerkin_reference_evolves_with_hbar(self, tmp_path):
        cfg = tmp_path / "coupled.cfg"
        cfg.write_text("n_particles = 1\nmasses = 1.0\ncharges = 0.9\n"
                       "sigma_psi = 1e6\nhbar = 2\n")
        assert run(["propagate", "--backend", "galerkin", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 0
        summary = read_manifest(tmp_path / "o")["summary"]
        # a reference evolved with hbar = 1 gives orders 0.81, 0.59, 0.28
        assert summary["monotone"] is True
        assert min(summary["orders"]) >= 0.9

    def test_propagate_repeated_mesh_has_no_order(self, tmp_path):
        assert run(["propagate", "--segments", "4,4",
                    "--out", str(tmp_path)]) == 0
        summary = read_manifest(tmp_path)["summary"]
        assert summary["orders"] == []
        assert summary["monotone"] is False

    def test_propagate_single_mesh_reruns(self, tmp_path):
        out = tmp_path / "run"
        assert run(["propagate", "--segments", "1", "--out", str(out)]) == 0
        summary = read_manifest(out)["summary"]
        assert summary["growth_rate"] is None
        assert summary["orders"] == []
        assert run(["rerun", "--manifest", str(out / "manifest.json"),
                    "--out", str(tmp_path / "replay")]) == 0

    def test_action_eval_writes_requested_samples(self, tmp_path):
        assert run(["action-eval", "--samples", "3",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "action_eval.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(np.isfinite(values))

    def test_rho_star_zero_coupling_summary(self, tmp_path):
        assert run(["rho-star", "--sample-budget", "1",
                    "--out", str(tmp_path)]) == 0
        summary = read_manifest(tmp_path)["summary"]
        assert summary["ceiling_hit"] is True
        assert summary["rho_star"] == 1.0
        lines = (tmp_path / "rho_star.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,min_det,passed"
        assert len(lines) == 2            # the ceiling probe passed at once
        rho, det, passed = lines[1].split(",")
        assert (float(rho), float(det), passed) \
            == (1.0, summary["min_det_at_value"], "1")

    def test_g_equivalence_hits_tolerance(self, tmp_path):
        assert run(["g-equivalence", "--out", str(tmp_path)]) == 0
        summary = read_manifest(tmp_path)["summary"]
        assert summary["extrapolated_deviation"] <= 1e-6
        lines = (tmp_path / "g_equivalence.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,eps,max_deviation"
        assert lines[-1].startswith("extrapolated,")

    def test_coulomb_limit_table(self, tmp_path):
        assert run(["coulomb-limit", "--box-levels", "10",
                    "--eps-levels", "0.5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coulomb_limit.csv").read_text().strip().splitlines()
        assert lines[0] == "box_L,eps,lattice_sum,screened_target,abs_error"
        _, _, value, target, error = (float(v) for v in lines[1].split(","))
        assert error == abs(value - target)
        assert 0.0 < value < target

    def test_riemann_table_marks_anisotropic_excess(self, tmp_path):
        assert run(["riemann", "--box-levels", "15",
                    "--anisotropic-ells", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "riemann.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        cube = lines[1].split(",")
        aniso = lines[2].split(",")
        assert float(cube[0]) == float(cube[1]) == 15.0
        assert float(aniso[0]) == 16.0 and float(aniso[1]) == 4.0
        assert float(aniso[6]) > 0.0      # signed excess over the integral


class TestListFlags:
    @pytest.mark.parametrize("subcommand,flag", [
        ("propagate", "--segments"),
        ("coulomb-limit", "--box-levels"),
        ("coulomb-limit", "--eps-levels"),
        ("riemann", "--box-levels"),
        ("residual", "--rho-list"),
    ])
    def test_empty_list_exits_two(self, tmp_path, capsys, subcommand, flag):
        out = tmp_path / "o"
        assert run([subcommand, flag, ",", "--out", str(out)]) == 2
        assert f"{flag} needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_riemann_without_anisotropic_boxes(self, tmp_path):
        assert run(["riemann", "--box-levels", "15", "--anisotropic-ells", "",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "riemann.csv").read_text().strip().splitlines()
        assert len(lines) == 2


def _reject_constant(name):
    raise ValueError(f"manifest holds the non-JSON constant {name}")


class TestStrictJsonManifests:
    # default flags, except riemann, whose default L = 60 cube needs a
    # 2^24-shell table; one L = 15 cube exercises the same summary keys
    @pytest.mark.parametrize("argv", [
        ["modes"], ["coulomb-limit"], ["riemann", "--box-levels", "15"],
        ["fock-spectrum"], ["action-eval"], ["propagate"], ["residual"],
        ["rho-star"], ["g-equivalence"],
    ], ids=lambda argv: argv[0])
    def test_default_manifest_is_strict_json(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 0
        text = (tmp_path / "manifest.json").read_text()
        json.loads(text, parse_constant=_reject_constant)

    def test_residual_without_a_fit_writes_null_slope(self, tmp_path):
        assert run(["residual", "--rho-list", "0.125",
                    "--out", str(tmp_path)]) == 0
        text = (tmp_path / "manifest.json").read_text()
        assert json.loads(text, parse_constant=_reject_constant)["summary"] \
            == {"slope": None}
