"""Command-line interface.

Every test drives ``main`` in process and reads captured stdout and
stderr, so the assertions cover the exact bytes a shell user sees:
column names, printed precision, exit codes, and the error channel.
"""

import csv
import io
import json
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest

from confunc import bounds, cli, slepian
from confunc.bounds import lp_interval_bound, report
from confunc.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def count_inversions(monkeypatch):
    """The target count of each batched inversion the bounds make."""
    calls = []
    inverse = bounds.lambda0_inverse_batch

    def counted(targets):
        calls.append(targets.size)
        return inverse(targets)

    monkeypatch.setattr(bounds, "lambda0_inverse_batch", counted)
    return calls


@pytest.mark.parametrize(
    "argv, targets",
    [
        (["bounds", "--grid", "7"], 21),
        (["bounds", "--tx", "0.9", "--tp", "0.9"], 1),
        (["verify", "dominance"], 81),
    ],
)
def test_one_inversion_per_command(capsys, monkeypatch, argv, targets):
    calls = count_inversions(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert calls == [targets]


class TestLambda0Command:
    def test_single_value(self, capsys):
        code, out, err = run(capsys, ["lambda0", "--c", "1.0"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert set(rows[0]) == {
            "c",
            "lambda0",
            "one_minus_lambda0",
            "small_c_approx",
            "large_c_approx",
        }
        assert rows[0]["lambda0"] == "0.572582"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, ["lambda0", "--c", "0"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["lambda0"]) == 0.0
        assert float(row["one_minus_lambda0"]) == 1.0

    def test_one_solve_and_unsigned_zero(self, capsys, monkeypatch):
        # every c goes to the engine in one call; c = -0 prints lambda0 0
        calls = []
        eigenpairs = cli._eigenpairs
        monkeypatch.setattr(cli, "_eigenpairs", lambda cs: calls.append(cs) or eigenpairs(cs))
        code, out, _ = run(capsys, ["lambda0", "--c", "-0", "--c", "0", "--c", "13"])
        assert code == 0
        assert [r["lambda0"] for r in parse_csv(out)] == ["0", "0", "1"]
        assert calls == [[-0.0, 0.0, 13.0]]

    def test_repeatable_and_range(self, capsys):
        code, out, _ = run(capsys, ["lambda0", "--c", "0.25", "--c", "0.5"])
        assert code == 0
        assert len(parse_csv(out)) == 2
        code, out, _ = run(capsys, ["lambda0", "--range", "0.5:2:0.5"])
        assert code == 0
        values = [float(r["lambda0"]) for r in parse_csv(out)]
        assert len(values) == 4
        assert values == sorted(values)

    def test_requires_values(self, capsys):
        code, _, err = run(capsys, ["lambda0"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("spec", ["1:2", "a:b:c", "2:1:0.5", "1:2:-1", "0:1e308:1e-300"])
    def test_malformed_range(self, capsys, spec):
        code, _, err = run(capsys, ["lambda0", "--range", spec])
        assert code == 2
        assert "error:" in err


class TestBoundsCommand:
    def test_point_report(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--tx", "0.9", "--tp", "0.9"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["region"] == "bounded"
        assert row["lp_measurable"] == "4.02124"
        assert row["lp_interval"] == "4.62261"
        assert row["donoho_stark"] == "0.848789"
        assert row["elementary"] == "1.16698"
        assert row["gaussian_product"] == "5.41109"

    def test_trivial_point(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--tx", "0.3", "--tp", "0.5"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["region"] == "trivial"
        assert float(row["lp_measurable"]) == 0.0
        assert float(row["lp_interval"]) == 0.0
        assert row["elementary"] == ""

    def test_divergent_corner(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--tx", "1", "--tp", "1"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["lp_interval"] == "inf"
        assert row["gaussian_product"] == "inf"

    def test_grid_refuses_a_bound_outside_the_normal_doubles(self, capsys):
        # the one pair (0.5, 0.5) has interval bound 0, but its Gaussian
        # product 4*hbar*erf_inverse(0.5)^2 is subnormal at this hbar
        code, out, err = run(capsys, ["bounds", "--grid", "1", "--hbar", "1e-308"])
        assert code == 2
        assert out == ""
        assert "the Gaussian product" in err
        assert "(0.5, 0.5) is outside the normal doubles" in err

    def test_gaussian_product_near_full_confidence(self, capsys):
        # 1 - theta_x = 1e-13 is inverted through erfc, to the last bits
        code, out, _ = run(capsys, ["bounds", "--tx", "0.9999999999999", "--tp", "0.3"])
        assert code == 0
        assert parse_csv(out)[0]["gaussian_product"] == "5.73423"

    def test_small_target_is_not_overstated(self, capsys):
        # at theta_x = 1, T = theta_p and c = pi T / 2 for small T, so the
        # interval bound meets the measurable one, 2 pi T; stopping on an
        # absolute tolerance printed 1.28164e-11 here
        code, out, _ = run(capsys, ["bounds", "--tx", "1", "--tp", "1e-12"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["lp_interval"] == row["lp_measurable"] == "6.28319e-12"

    def test_out_of_square(self, capsys):
        code, _, err = run(capsys, ["bounds", "--tx", "1.2", "--tp", "0.5"])
        assert code == 2
        assert "error:" in err

    def test_requires_point_or_grid(self, capsys):
        code, _, err = run(capsys, ["bounds"])
        assert code == 2
        assert "error:" in err

    def test_landscape_grid(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--grid", "7"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 49
        assert set(rows[0]) == {
            "theta_x",
            "theta_p",
            "region",
            "angular_target",
            "lp_measurable",
            "lp_interval",
            "donoho_stark",
            "elementary",
            "gaussian_product",
        }
        # the first three columns stay where they were before the others
        assert list(rows[0])[:3] == ["theta_x", "theta_p", "lp_interval"]
        for row in rows:
            tx, tp = float(row["theta_x"]), float(row["theta_p"])
            if tx + tp <= 1.0:
                assert float(row["lp_interval"]) == 0.0
            else:
                assert float(row["lp_interval"]) > 0.0

    def test_grid_rows_equal_point_queries(self, capsys):
        _, out, _ = run(capsys, ["bounds", "--grid", "7"])
        rows = parse_csv(out)
        levels = [str(i / 8) for i in range(1, 8)]
        points = [(tx, tp) for tx in levels for tp in levels]
        assert len(rows) == len(points)
        for row, (tx, tp) in zip(rows, points):
            _, point, _ = run(capsys, ["bounds", "--tx", tx, "--tp", tp])
            assert parse_csv(point) == [row]

    def test_trivial_point_at_an_hbar_whose_two_pi_multiple_overflows(self, capsys):
        # every bound is 0 by definition there; 2 pi hbar T gave nan
        code, out, _ = run(capsys, ["bounds", "--tx", "0", "--tp", "0", "--hbar", "1e308"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["lp_measurable"] == row["lp_interval"] == row["gaussian_product"] == "0"

    def test_rejects_empty_grid(self, capsys):
        code, _, err = run(capsys, ["bounds", "--grid", "0"])
        assert code == 2
        assert "error:" in err


class TestCompareCommand:
    def test_default_levels(self, capsys):
        code, out, _ = run(capsys, ["compare"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["theta"] for r in rows] == [
            "0.55",
            "0.6",
            "0.7",
            "0.8",
            "0.9",
            "0.95",
            "0.99",
        ]
        by_theta = {r["theta"]: r for r in rows}
        assert by_theta["0.9"]["gaussian"] == "5.41109"
        assert abs(float(by_theta["0.9"]["ratio"]) - 1.17) <= 0.01
        assert abs(float(by_theta["0.55"]["ratio"]) - 18.16) <= 0.05

    def test_half_level_degenerates(self, capsys):
        code, out, _ = run(capsys, ["compare", "--theta", "0.5"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["slepian"]) == 0.0
        assert row["ratio"] == "inf"

    def test_gaussian_at_a_tiny_level(self, capsys):
        # erf_inverse(theta) = sqrt(pi)/2 * theta here, so the product is pi * theta^2
        code, out, _ = run(capsys, ["compare", "--theta", "1e-20"])
        assert code == 0
        assert parse_csv(out)[0]["gaussian"] == "3.14159e-40"

    def test_bound_just_above_half(self, capsys):
        # T = (2e-10)^2 = 4e-20, so the bound is 4 c(T) = 2 pi T
        code, out, _ = run(capsys, ["compare", "--theta", "0.5000000001"])
        assert code == 0
        assert parse_csv(out)[0]["slepian"] == "2.51327e-19"

    def test_subnormal_gaussian_product_names_the_bound(self, capsys):
        # pi * theta^2 = 3.1e-320 leaves the normal doubles at hbar = 1:
        # the confidence level, not hbar, takes it there, so the pair is named
        code, out, err = run(capsys, ["compare", "--theta", "1e-160"])
        assert (code, out) == (2, "")
        assert err == (
            "error: hbar = 1: the Gaussian product 3.14176e-320 at (theta_x, theta_p) = "
            "(1e-160, 1e-160) is outside the normal doubles\n"
        )
        assert "1e-160" in err

    def test_one_inversion_for_every_level(self, capsys, monkeypatch):
        calls = count_inversions(monkeypatch)
        thetas = [*cli._COMPARE_DEFAULT, 0.9]
        argv = ["compare"]
        for theta in thetas:
            argv += ["--theta", str(theta)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert calls == [len(thetas)]
        rows = parse_csv(out)
        for row, theta in zip(rows, thetas):
            assert row["slepian"] == f"{report((theta, theta))['lp_interval']:.6g}"

    def test_rejects_boundary_theta(self, capsys):
        code, _, err = run(capsys, ["compare", "--theta", "1.0"])
        assert code == 2
        assert "error:" in err

    def test_below_half_has_no_bound(self, capsys):
        # below 1/2 both confidences can be met at once, so the interval
        # bound is 0, as the library says
        code, out, _ = run(capsys, ["compare", "--theta", "0.3"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["slepian"]) == lp_interval_bound((0.3, 0.3)) == 0.0
        assert row["ratio"] == "inf"

    def test_gaussian_never_below_bound_across_half(self, capsys):
        thetas = ["0.2", "0.3", "0.45", "0.5", "0.52", "0.6", "0.8", "0.95"]
        argv = ["compare"]
        for theta in thetas:
            argv += ["--theta", theta]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = parse_csv(out)
        assert [r["theta"] for r in rows] == thetas
        for row in rows:
            assert float(row["gaussian"]) >= float(row["slepian"])


class TestVerifyCommand:
    def test_two_route_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "two-route"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert all(r["status"] == "pass" for r in rows)
        assert all(float(r["measured"]) <= 1e-6 for r in rows)

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, ["verify", "nonsense"])
        assert code == 2

    STRICTNESS_CSV = (
        "suite,check,measured,threshold,status\n"
        "strictness,position_mass_L_W_0.1,0.519918,0.5,pass\n"
        "strictness,momentum_mass_L_W_0.1,0.51992,0.5,pass\n"
        "strictness,position_mass_L_W_0.01,0.501953,0.5,pass\n"
        "strictness,momentum_mass_L_W_0.01,0.501953,0.5,pass\n"
    )

    def test_strictness_rows(self, capsys):
        code, out, err = run(capsys, ["verify", "strictness"])
        assert (code, out, err) == (0, self.STRICTNESS_CSV, "")

    def test_dominance_rows(self, capsys):
        code, out, err = run(capsys, ["verify", "dominance"])
        assert (code, out, err) == (
            0,
            "suite,check,measured,threshold,status\n"
            "dominance,measurable_minus_donoho_stark_grid99,0.000628381,0,pass\n"
            "dominance,interval_minus_measurable_spot_grid,1.72267e-06,0,pass\n",
            "",
        )


class TestStateCommand:
    def test_gaussian(self, capsys):
        code, out, err = run(capsys, ["state", "gaussian", "--sigma", "1.0"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4096
        assert set(rows[0]) == {"x", "re_psi", "im_psi", "density_x", "p", "density_p"}
        assert "entropic floor=2.144730" in err
        match = re.search(r"sum=([0-9.]+)", err)
        assert match is not None
        assert abs(float(match.group(1)) - math.log(math.pi * math.e)) <= 1e-3

    def test_slepian_reports_band_mass(self, capsys):
        code, out, err = run(capsys, ["state", "slepian", "--c", "1.0"])
        assert code == 0
        assert len(parse_csv(out)) == 1 << 15
        assert "lambda0=0.572582" in err
        match = re.search(r"in-band momentum mass=([0-9.]+)", err)
        assert abs(float(match.group(1)) - 0.572582) <= 2e-3

    def test_slepian_names_the_band_excess_as_grid_error(self, capsys):
        # at c = 4 the gridded in-band mass reads above lambda0, which no
        # state can hold; the note gives the signed difference and why
        code, _, err = run(capsys, ["state", "slepian", "--c", "4"])
        assert code == 0
        assert err.splitlines() == [
            "slepian c=4.0, L=2.0, W=8: in-band momentum mass=0.995887, lambda0=0.995885, "
            "difference=+1.40e-06 (grid error; no state holds more than lambda0)"
        ]

    def test_rect_sinc_reports_masses(self, capsys):
        code, out, err = run(capsys, ["state", "rect-sinc", "--L", "1", "--W", "1"])
        assert code == 0
        assert len(parse_csv(out)) == 1024
        match = re.search(r"position mass=([0-9.]+) \(continuum ([0-9.]+)\)", err)
        assert match is not None
        assert abs(float(match.group(1)) - float(match.group(2))) <= 5e-3

    def test_slepian_requires_c(self, capsys):
        code, _, err = run(capsys, ["state", "slepian"])
        assert code == 2
        assert "error:" in err

    def test_slepian_with_an_unnormalisable_window_is_one_error_line(self, capsys):
        # L is positive and finite, but the window height sqrt(2/L) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["state", "slepian", "--c", "1", "--L", "1e-310"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("sigma", ["nan", "0", "-1", "inf"])
    def test_gaussian_names_a_bad_sigma(self, capsys, sigma):
        # checked before the grid is sized on it
        code, out, err = run(capsys, ["state", "gaussian", "--sigma", sigma])
        assert code == 2
        assert out == ""
        assert err == f"error: sigma must lie in (0, inf), got {float(sigma)}\n"

    def test_rect_sinc_requires_window(self, capsys):
        code, _, err = run(capsys, ["state", "rect-sinc", "--L", "1"])
        assert code == 2
        assert "error:" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, ["state", "plane-wave"])
        assert code == 2

    @pytest.mark.parametrize(
        "length, width, message",
        [
            ("1", "inf", "width must lie in (0, inf), got inf"),
            ("inf", "1", "length must lie in (0, inf), got inf"),
            # checked before the grid is sized: on L < 0 that runs to the 2^24 cap
            ("-1", "1", "length must lie in (0, inf), got -1.0"),
        ],
    )
    def test_rect_sinc_names_a_bad_window_or_band(self, capsys, length, width, message):
        code, out, err = run(capsys, ["state", "rect-sinc", "--L", length, "--W", width])
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err


class TestOutputPlumbing:
    def test_json_mirrors_csv(self, capsys):
        _, csv_out, _ = run(capsys, ["lambda0", "--c", "1.0"])
        _, json_out, _ = run(capsys, ["lambda0", "--c", "1.0", "--format", "json"])
        csv_row = parse_csv(csv_out)[0]
        json_row = json.loads(json_out)[0]
        assert set(json_row) == set(csv_row)
        assert json_row["lambda0"] == float(csv_row["lambda0"])

    def test_json_prints_one_minus_lambda0_as_a_number(self, capsys):
        _, csv_out, _ = run(capsys, ["lambda0", "--c", "1.0"])
        _, json_out, _ = run(capsys, ["lambda0", "--c", "1.0", "--format", "json"])
        assert parse_csv(csv_out)[0]["one_minus_lambda0"] == "4.274182e-01"
        assert json.loads(json_out)[0]["one_minus_lambda0"] == 0.4274182

    def test_json_encodes_infinity_as_string(self, capsys):
        _, out, _ = run(
            capsys, ["bounds", "--tx", "1", "--tp", "1", "--format", "json"]
        )
        row = json.loads(out)[0]
        assert row["gaussian_product"] == "inf"
        assert row["lp_interval"] == "inf"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["lambda0", "--c", "2.0", "--out", str(path)])
        assert code == 0
        assert out == ""
        rows = parse_csv(path.read_text())
        assert rows[0]["lambda0"] == "0.88056"

    def test_out_into_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run(capsys, ["lambda0", "--c", "1.0", "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not path.parent.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_leaves_no_temporary_file(self, capsys, tmp_path, fmt):
        path = tmp_path / "table.out"
        path.write_text("stale\n")
        argv = ["lambda0", "--c", "1.0", "--format", fmt, "--out", str(path)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["table.out"]
        _, stdout, _ = run(capsys, argv[:-2])
        assert path.read_text() == stdout

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["bounds", "--grid", "5"])
        _, second, _ = run(capsys, ["bounds", "--grid", "5"])
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda0", "--c", "1", "--range", "0:2:0.5"],
            ["bounds", "--tx", "0.9", "--tp", "0.9"],
            # 8 of the 9 pairs have no elementary bound: blank cells
            ["bounds", "--grid", "3"],
            ["compare"],
            ["verify", "all"],
            ["state", "slepian", "--c", "1.5"],
            ["state", "rect-sinc", "--L", "1", "--W", "1"],
            ["state", "gaussian"],
        ],
    )
    def test_csv_fields_need_no_quoting(self, capsys, argv):
        # the writer never quotes, so no field may hold what CSV quotes
        _, out, _ = run(capsys, argv)
        head, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(head) for row in rows)
        for field in head + [field for row in rows for field in row]:
            assert not set(field) & set(',"\r\n')
        _, out, _ = run(capsys, [*argv, "--format", "json"])
        records = json.loads(out)
        assert len(records) == len(rows)
        # a blank CSV cell is a JSON null and nothing else is
        nulls = [[value is None for value in record.values()] for record in records]
        assert nulls == [[field == "" for field in row] for row in rows]

    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, out, _ = run(capsys, ["lambda0", "--c", "1.0", "--out", str(link)])
        assert code == 0
        assert out == ""
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
        _, stdout, _ = run(capsys, ["lambda0", "--c", "1.0"])
        assert real.read_text() == stdout

    def test_out_writes_into_a_fifo_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        # a reader opened first lets the writer open at once; the table
        # is far smaller than the pipe buffer, so no write blocks
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, ["lambda0", "--c", "1.0", "--out", str(fifo)])
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert code == 0
        assert out == ""
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["table.fifo"]
        _, stdout, _ = run(capsys, ["lambda0", "--c", "1.0"])
        assert b"".join(chunks).decode("ascii") == stdout


class TestParserBasics:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["sing"])
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_order_knob_is_gone(self, capsys, monkeypatch):
        # the eigenvalue has no quadrature order, so neither the variable
        # nor the flag it once fell back from is read
        monkeypatch.setenv("CONFUNC_ORDER", "1")
        code, out, _ = run(capsys, ["lambda0", "--c", "1.0"])
        assert code == 0
        assert parse_csv(out)[0]["lambda0"] == "0.572582"
        code, out, err = run(capsys, ["lambda0", "--c", "1.0", "--order", "120"])
        assert code == 2
        assert out == ""
        assert "--order" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["verify", "lenard", "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "seed" in err


class TestHbarAndSeedOptions:
    def test_hbar_scales_the_dimensional_bounds(self, capsys):
        point = ["bounds", "--tx", "0.9", "--tp", "0.9"]
        _, out, _ = run(capsys, point)
        code, scaled_out, _ = run(capsys, [*point, "--hbar", "2"])
        assert code == 0
        base, scaled = parse_csv(out)[0], parse_csv(scaled_out)[0]
        for name in ("lp_measurable", "lp_interval", "donoho_stark", "gaussian_product"):
            # both sides carry 6 significant digits
            assert math.isclose(float(scaled[name]), 2.0 * float(base[name]), rel_tol=1e-5)
        for name in ("angular_target", "elementary"):
            assert scaled[name] == base[name]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--tx", "0.9", "--tp", "0.9"],
            ["compare"],
            ["state", "slepian", "--c", "1"],
            ["state", "gaussian"],
        ],
    )
    def test_bad_hbar_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--hbar", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: hbar must lie in (0, inf), got -1.0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "gaussian", "--sigma", "1e-3", "--hbar", "1e302"],
            ["state", "gaussian", "--sigma", "1", "--hbar", "1e-310"],
            ["state", "slepian", "--c", "1", "--hbar", "1e-310"],
            # c = L*W/(4*hbar) leaves the normal doubles
            ["state", "rect-sinc", "--L", "1", "--W", "1", "--hbar", "1e308"],
            ["state", "rect-sinc", "--L", "1e-200", "--W", "1e-200"],
        ],
    )
    def test_extreme_hbar_is_one_error_line(self, capsys, argv):
        # hbar is positive and finite, but the transform phases leave
        # floating-point range on the state's grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: hbar = ")

    @pytest.mark.parametrize("sigma", ["1e300", "1e154", "1e-300", "1e-310", "5e-324"])
    def test_extreme_sigma_is_one_error_line(self, capsys, sigma):
        # the Gaussian's exponent leaves floating-point range on its grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["state", "gaussian", "--sigma", sigma])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: sigma = ")

    @pytest.mark.parametrize("length", ["1e-306", "3e-308", "5e-309"])
    def test_extreme_slepian_length_is_one_error_line(self, capsys, length):
        # sqrt(2/L) or the state's norm leaves floating-point range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["state", "slepian", "--c", "1", "--L", length])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "length" in err

    def test_slepian_length_that_overflows_the_phases_names_the_cells(self, capsys):
        # the state fits, but x*p/hbar overflows on cells L/256 wide: the
        # error names that width beside hbar = 1, which alone is harmless
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["state", "slepian", "--c", "1", "--L", "1e-305"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: hbar = 1 with cells ")
        assert f"{1e-305 / 256:g}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--tx", "0.9", "--tp", "0.9", "--hbar", "1e308"],
            ["bounds", "--tx", "0.9", "--tp", "0.9", "--hbar", "1e-320"],
            ["bounds", "--grid", "4", "--hbar", "1e308"],
            ["compare", "--hbar", "1e308"],
            ["bounds", "--tx", "0.3", "--tp", "0.5", "--hbar", "1e-320"],
            # 4 * hbar is finite, so the overflow happens in the numpy product
            ["bounds", "--grid", "10", "--hbar", "4e307"],
        ],
    )
    def test_hbar_that_takes_a_bound_out_of_range_is_one_error_line(self, capsys, argv):
        # hbar is positive and finite, but a bound scaled by it overflows
        # or lands among the subnormals, where its digits are lost
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: hbar = ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda0", "--c", "1", "--hbar", "2"],
            ["bounds", "--tx", "0.9", "--tp", "0.9", "--seed", "3"],
            # the self-checks are dimensionless and run at hbar = 1
            ["verify", "all", "--hbar", "1"],
        ],
    )
    def test_option_off_its_subcommands_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_verify_takes_a_seed(self, capsys):
        code, out, _ = run(capsys, ["verify", "lenard", "--seed", "3"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["check"] for r in rows[:2]] == ["min_margin_seed_3", "min_margin_seed_4"]


def test_lenard_windows_are_the_scalar_draws():
    # one (20, 4) draw per state gives the 80 values, in order, that 80
    # scalar draws gave
    for seed in range(1_000_003, 1_000_003 + 202):
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(20):
            xc, xw = rng.uniform(-5.0, 5.0), rng.uniform(0.2, 5.0)
            pc, pw = rng.uniform(-20.0, 20.0), rng.uniform(0.2, 5.0)
            expected.append(((xc - 0.5 * xw, xc + 0.5 * xw), (pc - 0.5 * pw, pc + 0.5 * pw)))
        assert cli._lenard_windows(seed) == expected


class TestSizeCaps:
    def test_lambda0_above_supported_c(self, capsys):
        code, out, err = run(capsys, ["lambda0", "--c", "1e6"])
        assert code == 2
        assert out == ""
        assert "supported range [0, 1000]" in err

    def test_state_slepian_above_supported_c(self, capsys):
        code, _, err = run(capsys, ["state", "slepian", "--c", "1e6"])
        assert code == 2
        assert "supported range" in err

    def test_grid_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_LANDSCAPE_SIDE", 3)
        code, out, err = run(capsys, ["bounds", "--grid", "4"])
        assert code == 2
        assert out == ""
        assert "[1, 3]" in err
        code, out, _ = run(capsys, ["bounds", "--grid", "3"])
        assert code == 0
        assert len(parse_csv(out)) == 9

    def test_range_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_RANGE_VALUES", 5)
        code, out, err = run(capsys, ["lambda0", "--range", "0:1:0.2"])
        assert code == 2
        assert out == ""
        assert "gives 6 values" in err
        code, out, _ = run(capsys, ["lambda0", "--range", "0:0.8:0.2"])
        assert code == 0
        assert len(parse_csv(out)) == 5

    def test_range_above_the_solve_work_bound(self, capsys, monkeypatch):
        # under the value cap, but over an hour of eigensolves near c = 1000
        def refuse(c):
            raise AssertionError(f"prolate matrix built for c = {c}")

        monkeypatch.setattr(slepian, "_prolate_matrix", refuse)
        code, out, err = run(capsys, ["lambda0", "--range", "0:999:0.01"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: 99901 values of c up to 999 need ")

    @pytest.mark.parametrize("spec", ["0:inf:1", "0:1:nan", "0:1e400:1"])
    def test_non_finite_range(self, capsys, spec):
        code, _, err = run(capsys, ["lambda0", "--range", spec])
        assert code == 2
        assert "finite" in err


class TestOptionsPerKind:
    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "gaussian", "--c", "5", "--W", "3", "--P", "0.2", "--L", "9"],
            ["state", "gaussian", "--sigma", "2", "--L", "9"],
            ["state", "slepian", "--c", "1", "--W", "3"],
            ["state", "slepian", "--c", "1", "--P", "0.2"],
            ["state", "slepian", "--c", "1", "--sigma", "2"],
            ["state", "rect-sinc", "--L", "1", "--W", "1", "--c", "5"],
            ["state", "rect-sinc", "--L", "1", "--W", "1", "--sigma", "2"],
        ],
    )
    def test_option_of_another_kind_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_each_kind_takes_the_common_options(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        argv = ["state", "rect-sinc", "--L", "1", "--W", "1", "--P", "0.3"]
        code, _, _ = run(capsys, [*argv, "--hbar", "1.3", "--format", "json", "--out", str(target)])
        assert code == 0
        assert len(json.loads(target.read_text())) == 2048

    @pytest.mark.parametrize(
        "point", [["--tx", "0.3", "--tp", "0.4"], ["--tx", "0.3"], ["--tp", "0.4"]]
    )
    def test_grid_excludes_a_point(self, capsys, point):
        code, out, err = run(capsys, ["bounds", "--grid", "2", *point])
        assert code == 2
        assert out == ""
        assert err == "error: bounds takes --grid or --tx and --tp, not both\n"
