import importlib
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfma.pairing import UserTerminal
from sfma.power import Group, _GroupArrays
from sfma.semantic_rate import (
    InterferenceProfile,
    Link,
    LogisticRhoParams,
    calibrate_rho,
    load_rho_table,
    pair_sum_rate,
    rho_derivative_eval,
    rho_eval,
    save_rho_table,
    sinr_conventional,
    sinr_semantic,
)

from conftest import NOISE_W, make_link

powers = st.floats(min_value=0.0, max_value=1e3)
gains = st.floats(min_value=1e-13, max_value=1e-6)
noises = st.floats(min_value=1e-12, max_value=1e-9)


def small_table():
    return InterferenceProfile.from_table(
        power_axis_dbw=[-10.0, 0.0, 10.0],
        snr_axis_db=[0.0, 10.0, 20.0],
        values=[[0.9, 0.5, 0.1], [0.85, 0.45, 0.08], [0.8, 0.4, 0.05]],
    )


def link_for_node(p_dbw: float, snr_node_db: float) -> Link:
    """Link whose equal-split SNR lands exactly on the requested node."""
    p = 10.0 ** (p_dbw / 10.0)
    gain = 2.0 * NOISE_W * 10.0 ** (snr_node_db / 10.0) / p
    return Link(gain=gain, noise=NOISE_W)


class TestProfiles:
    def test_constant_limits(self):
        link = make_link(10.0)
        assert rho_eval(InterferenceProfile.constant(1.0), 5.0, link.gain, link.noise) == 1.0
        assert rho_eval(InterferenceProfile.constant(0.0), 5.0, link.gain, link.noise) == 0.0

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InterferenceProfile.constant(1.5)

    def test_table_node_identity(self):
        prof = small_table()
        for i, p_dbw in enumerate(prof.power_axis_dbw):
            for j, snr in enumerate(prof.snr_axis_db):
                link = link_for_node(p_dbw, snr)
                got = rho_eval(prof, 10.0 ** (p_dbw / 10.0), link.gain, link.noise)
                assert got == pytest.approx(prof.values[i, j], abs=1e-12)

    def test_table_clamps_at_edges(self):
        prof = small_table()
        # far below the power grid and at zero power: lowest row, clamped SNR
        link = link_for_node(-10.0, -20.0)
        assert rho_eval(prof, 0.0, link.gain, link.noise) == pytest.approx(0.9, abs=1e-12)
        strong = link_for_node(10.0, 50.0)
        assert rho_eval(prof, 10.0 ** (1.0), strong.gain, strong.noise) == pytest.approx(0.05, abs=1e-12)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            InterferenceProfile.from_table([0.0, 0.0], [0.0, 1.0], [[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError):
            InterferenceProfile.from_table([0.0, 1.0], [0.0, 1.0], [[0.1, 0.2]])
        with pytest.raises(ValueError):
            InterferenceProfile.from_table([0.0, 1.0], [0.0, 1.0], [[0.1, 1.2], [0.3, 0.4]])

    @pytest.mark.parametrize("axes, values, which", [
        (([0.0], [0.0, 10.0]), [[np.nan, 0.4]], "rho values"),
        (([0.0, np.nan], [0.0]), [[0.1], [0.2]], "power axis"),
        (([0.0], [0.0, np.inf]), [[0.1, 0.2]], "SNR axis"),
    ])
    def test_table_rejects_non_finite(self, axes, values, which):
        # nan fails the range and ordering checks alike, so it once passed both
        with pytest.raises(ValueError, match=f"table {which} must be finite"):
            InterferenceProfile.from_table(*axes, values)

    def test_default_table_loads(self):
        prof = InterferenceProfile.default_table()
        assert prof.kind == "table"
        assert np.all(np.diff(prof.power_axis_dbw) > 0)
        assert np.all(np.diff(prof.snr_axis_db) > 0)
        assert np.all((prof.values >= 0) & (prof.values <= 1))
        # measured shape: high interference at low SNR, vanishing at high SNR
        assert prof.values[0, 0] > 0.85
        assert prof.values[0, -1] < 0.05

    def test_default_table_parsed_once(self):
        prof = InterferenceProfile.default_table()
        assert InterferenceProfile.default_table() is prof
        for arr in (prof.power_axis_dbw, prof.snr_axis_db, prof.values):
            assert not arr.flags.writeable

    def test_default_table_node_identity_against_file(self):
        prof = InterferenceProfile.default_table()
        for i in (0, 4, len(prof.power_axis_dbw) - 1):
            for j in (0, 5, len(prof.snr_axis_db) - 1):
                p_dbw = float(prof.power_axis_dbw[i])
                link = link_for_node(p_dbw, float(prof.snr_axis_db[j]))
                got = rho_eval(prof, 10.0 ** (p_dbw / 10.0), link.gain, link.noise)
                assert got == pytest.approx(prof.values[i, j], abs=1e-12)

    def test_renamed_package_reads_its_own_table(self, tmp_path, monkeypatch):
        # a copy of the package under another name, with one table value changed,
        # reads its own table, and the package reads its own
        import sfma

        copy = tmp_path / "sfma_copy"
        shutil.copytree(Path(sfma.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
        table = copy / "data" / "rho_default.csv"
        header, first, *rest = table.read_text().splitlines()
        cells = first.split(",")
        cells[1] = "0.5"
        table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            copied = importlib.import_module("sfma_copy")
            assert copied.InterferenceProfile.default_table().values[0, 0] == 0.5
            own = (Path(sfma.__file__).parent / "data" / "rho_default.csv").read_text().splitlines()[1]
            assert InterferenceProfile.default_table().values[0, 0] == float(own.split(",")[1]) != 0.5
        finally:
            for name in [n for n in sys.modules if n == "sfma_copy" or n.startswith("sfma_copy.")]:
                del sys.modules[name]

    def test_rho_in_unit_interval_for_all_kinds(self, rng):
        profs = [
            InterferenceProfile.constant(0.4),
            small_table(),
            InterferenceProfile.parametric(),
        ]
        for prof in profs:
            for _ in range(50):
                link = make_link(rng.uniform(-20, 40))
                val = rho_eval(prof, float(rng.uniform(0, 1e4)), link.gain, link.noise)
                assert 0.0 <= val <= 1.0

    def test_csv_round_trip(self, tmp_path):
        # a calibrated table: power nodes 1e-7 dB apart, cells with more than 6 digits
        calibrated = InterferenceProfile.from_table(
            power_axis_dbw=[10.0000001, 10.0000002, 20.123456789],
            snr_axis_db=[0.0, 7.123456789],
            values=[[0.123456789, 0.1], [0.9876543211, 1 / 3], [0.5, 2 / 7]],
        )
        for prof in (small_table(), calibrated):
            path = tmp_path / "table.csv"
            save_rho_table(prof, path)
            back = load_rho_table(path)
            assert np.array_equal(back.power_axis_dbw, prof.power_axis_dbw)
            assert np.array_equal(back.snr_axis_db, prof.snr_axis_db)
            assert np.array_equal(back.values, prof.values)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",0,10\n-10,0.5,0.4\n0,0.3\n")
        with pytest.raises(ValueError, match="cells"):
            load_rho_table(path)

    def test_csv_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",0,10\n-10,0.5,oops\n")
        with pytest.raises(ValueError):
            load_rho_table(path)

    def test_save_requires_table_kind(self, tmp_path):
        with pytest.raises(ValueError):
            save_rho_table(InterferenceProfile.constant(0.5), tmp_path / "x.csv")

    def test_link_validation(self):
        for gain, noise in [(0.0, 1.0), (1.0, 0.0), (float("nan"), 1.0), (1.0, float("nan")),
                            (float("inf"), 1.0), (1.0, float("inf")),
                            (np.float64(-1.0), 1.0), (1.0, np.float32("nan")),
                            (np.array([1.0, 0.0]), 1.0), (1.0, np.array([2.0, np.inf]))]:
            with pytest.raises(ValueError, match="must be finite and strictly positive"):
                Link(gain=gain, noise=noise)
        Link(gain=np.float64(1e-9), noise=np.array([1e-13, 2e-13]))


class TestLogisticAtZeroPower:
    """rho at p = 0 is the limit of the logistic exponent a + b*x as x -> -inf."""

    @staticmethod
    def profile(snr_slope, power_coeff):
        return InterferenceProfile.parametric(
            LogisticRhoParams(snr_slope=snr_slope, snr_mid_db=30.0, power_coeff=power_coeff,
                              power_ref_w=0.05))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("snr_slope, power_coeff, expo", [
        (0.1, -0.9, 60.0),      # opposite signs, b < 0: the dB terms give inf - inf
        (-0.1, 0.9, -60.0),     # opposite signs, b > 0
        (0.42, 0.0, -60.0),     # the dB terms give 0 * -inf
        (0.42, 0.015, -60.0),
    ])
    def test_limit_by_the_sign_of_b(self, snr_slope, power_coeff, expo):
        got = rho_eval(self.profile(snr_slope, power_coeff), 0.0, 1.0, 1e-3)
        assert got == 0.95 / (1.0 + math.exp(expo))

    def test_flat_axis_gives_the_constant_exponent(self):
        # b = 0: the exponent is a at every power, so rho at 0 is rho anywhere
        prof = self.profile(0.42, -0.42)
        assert rho_eval(prof, 0.0, 1.0, 1e-3) == pytest.approx(rho_eval(prof, 3.0, 1.0, 1e-3), rel=1e-12)

    def test_default_profile_unchanged(self):
        link = make_link(10.0)
        assert rho_eval(InterferenceProfile.parametric(), 0.0, link.gain, link.noise) == 0.95


class TestRhoDerivative:
    def test_constant_is_zero(self):
        link = make_link(5.0)
        assert rho_derivative_eval(InterferenceProfile.constant(0.7), 3.0, link.gain, link.noise) == 0.0

    def test_parametric_matches_finite_difference(self, rng):
        prof = InterferenceProfile.parametric(LogisticRhoParams())
        for _ in range(30):
            link = make_link(rng.uniform(-10, 30))
            p = float(rng.uniform(0.05, 50.0))
            analytic = rho_derivative_eval(prof, p, link.gain, link.noise)
            h = 1e-6 * p
            fd = (rho_eval(prof, p + h, link.gain, link.noise)
                  - rho_eval(prof, p - h, link.gain, link.noise)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-15)

    def test_table_matches_secant_slope(self, rng):
        prof = small_table()
        for _ in range(30):
            link = make_link(rng.uniform(-5, 25))
            p = float(rng.uniform(0.05, 8.0))
            got = rho_derivative_eval(prof, p, link.gain, link.noise)
            h = max(1e-9, 1e-4 * p)
            secant = (rho_eval(prof, p + h, link.gain, link.noise)
                      - rho_eval(prof, p - h, link.gain, link.noise)) / (2 * h)
            assert got == pytest.approx(secant, abs=1e-4)

    def test_requires_positive_power(self):
        with pytest.raises(ValueError):
            rho_derivative_eval(small_table(), 0.0, 1.0, 1.0)

    @staticmethod
    def profiles():
        return {"constant": InterferenceProfile.constant(0.7), "table": InterferenceProfile.default_table(),
                "small table": small_table(), "logistic": InterferenceProfile.parametric()}

    @pytest.mark.parametrize("kind", ["constant", "table", "small table", "logistic"])
    def test_scalars_give_floats(self, kind):
        prof, link = self.profiles()[kind], make_link(12.0)
        for p in (0.01, 1.0, 30.0):
            got = rho_derivative_eval(prof, p, link.gain, link.noise)
            assert type(got) is float and math.isfinite(got)
            assert got == rho_derivative_eval(prof, np.array([p]), link.gain, link.noise)[0]

    @pytest.mark.parametrize("kind", ["constant", "table", "small table", "logistic"])
    def test_grid_against_links(self, kind):
        # a (1, 1024) power grid against (M, 1) links, row by row as one link at a time
        prof = self.profiles()[kind]
        grid = np.geomspace(1e-3, 1e3, 1024)[None, :]
        links = [make_link(snr) for snr in np.linspace(-5.0, 30.0, 7)]
        gain = np.array([[lk.gain] for lk in links])
        noise = np.array([[lk.noise] for lk in links])
        got = rho_derivative_eval(prof, grid, gain, noise)
        assert got.shape == (7, 1024)
        for row, lk in zip(got, links):
            np.testing.assert_array_equal(row, rho_derivative_eval(prof, grid[0], lk.gain, lk.noise))
        if kind == "constant":
            assert np.all(got == 0.0)
        else:
            assert np.any(got != 0.0)

    @pytest.mark.parametrize("kind", ["constant", "table", "small table", "logistic"])
    def test_is_the_solver_slope(self, kind):
        # the slope the group stage reads for the same receivers
        prof = self.profiles()[kind]
        users = [UserTerminal(id=i, link=make_link(snr)) for i, snr in enumerate(np.linspace(-5.0, 30.0, 8))]
        arrs = _GroupArrays(Group(users=tuple(users[i:i + 2]), profile=prof) for i in range(0, 8, 2))
        p = np.geomspace(1e-3, 1e3, 257)
        _, slope = arrs.rho_and_slope(p[None, None, :])
        # the lookup's (user, group, point) layout; its slope is in ln p
        gain, noise = arrs.gain.T[..., None], arrs.noise.T[..., None]
        np.testing.assert_array_equal(rho_derivative_eval(prof, p, gain, noise), slope / p)


class TestSinr:
    def test_no_interference(self, unit_link):
        assert sinr_conventional(2.0, 0.0, unit_link) == 2.0

    def test_zero_signal(self, unit_link):
        assert sinr_conventional(0.0, 1.0, unit_link) == 0.0

    def test_equal_powers_unit_link(self, unit_link):
        assert sinr_conventional(1.0, 1.0, unit_link) == 0.5

    def test_semantic_reduces_to_conventional_at_one(self, unit_link):
        assert sinr_semantic(1.5, 0.7, 1.0, unit_link) == sinr_conventional(1.5, 0.7, unit_link)

    def test_semantic_interference_free_at_zero(self, unit_link):
        assert sinr_semantic(1.5, 0.7, 0.0, unit_link) == 1.5

    def test_half_interference(self, unit_link):
        assert sinr_semantic(1.0, 1.0, 0.5, unit_link) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @given(powers, powers, gains, noises)
    def test_reduction_identity_property(self, p1, p2, g, n):
        link = Link(gain=g, noise=n)
        full = sinr_semantic(p1, p2, 1.0, link)
        conv = sinr_conventional(p1, p2, link)
        assert full == conv
        assert sinr_semantic(p1, p2, 0.0, link) == p1 * g / n

    @given(powers, powers, st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_monotone_in_rho_and_powers(self, p1, p2, r1, r2):
        link = Link(gain=1e-9, noise=1e-10)
        lo, hi = sorted([r1, r2])
        assert sinr_semantic(p1, p2, hi, link) <= sinr_semantic(p1, p2, lo, link)
        assert sinr_semantic(p1 + 1.0, p2, r1, link) >= sinr_semantic(p1, p2, r1, link)
        assert sinr_semantic(p1, p2 + 1.0, r1, link) <= sinr_semantic(p1, p2, r1, link)


class TestCalibrateRho:
    def test_noise_floor_gives_zero(self):
        link = Link(gain=1e-9, noise=1e-10)
        out = calibrate_rho(1.0, 2.0, link, mse=1e-10)
        assert out.value == 0.0
        assert not out.clamped

    def test_full_interference_gives_one(self):
        link = Link(gain=1e-9, noise=1e-10)
        mse = 2.0 * 1e-9 + 1e-10
        out = calibrate_rho(1.0, 2.0, link, mse=mse)
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_linear_inversion(self):
        link = Link(gain=1e-9, noise=1e-10)
        mse = 0.5 * 2.0 * 1e-9 + 1e-10
        out = calibrate_rho(1.0, 2.0, link, mse=mse)
        assert out.value == pytest.approx(0.5, abs=1e-12)

    def test_clamping_flagged(self):
        link = Link(gain=1e-9, noise=1e-10)
        high = calibrate_rho(1.0, 2.0, link, mse=1.0)
        assert high.value == 1.0 and high.clamped
        low = calibrate_rho(1.0, 2.0, link, mse=1e-11)
        assert low.value == 0.0 and low.clamped

    def test_rejects_bad_inputs(self):
        link = Link(gain=1e-9, noise=1e-10)
        with pytest.raises(ValueError):
            calibrate_rho(1.0, 2.0, link, mse=0.0)
        with pytest.raises(ValueError):
            calibrate_rho(1.0, 0.0, link, mse=1e-10)

    @given(st.integers(min_value=0, max_value=10), st.floats(min_value=-10, max_value=50), powers)
    def test_round_trip_recovers_rho(self, tenth, snr, p_extra):
        target = tenth / 10.0
        link = make_link(snr)
        p_other = 1.0 + p_extra
        mse = target * p_other * link.gain + link.noise
        got = calibrate_rho(1.0, p_other, link, mse)
        assert got.value == pytest.approx(target, abs=1e-12)


class TestRates:
    # a user given no power adds a zero rate, so one user's rate shows alone
    def test_unit_sinr_gives_unit_rate(self, unit_link):
        prof = InterferenceProfile.constant(0.0)
        assert pair_sum_rate(1.0, 0.0, prof, unit_link, unit_link) == pytest.approx(1.0, abs=1e-15)

    def test_zero_power_zero_rate(self, unit_link):
        # user 1 silent: user 2 sees no interference whatever rho is
        prof = InterferenceProfile.constant(0.5)
        assert pair_sum_rate(0.0, 1.0, prof, unit_link, unit_link) == 1.0

    def test_log2_of_four(self):
        link = Link(gain=3.0, noise=1.0)
        prof = InterferenceProfile.constant(1.0)
        assert pair_sum_rate(1.0, 0.0, prof, link, link) == pytest.approx(2.0, abs=1e-15)

    def test_pair_sum_rate_zero_at_zero_power(self, unit_link):
        prof = InterferenceProfile.constant(0.5)
        assert pair_sum_rate(0.0, 0.0, prof, unit_link, unit_link) == 0.0

    def test_pair_sum_rate_classic_reduction(self):
        prof = InterferenceProfile.constant(1.0)
        link1 = Link(gain=2.0, noise=1.0)
        link2 = Link(gain=0.5, noise=1.0)
        got = pair_sum_rate(1.5, 2.5, prof, link1, link2)
        expected = math.log2(1 + 1.5 * 2.0 / (2.5 * 2.0 + 1.0)) + math.log2(
            1 + 2.5 * 0.5 / (1.5 * 0.5 + 1.0)
        )
        assert got == pytest.approx(expected, rel=1e-15)

    def test_pair_sum_rate_symmetry(self):
        prof = InterferenceProfile.parametric()
        link = make_link(12.0)
        a = pair_sum_rate(0.7, 1.9, prof, link, link)
        b = pair_sum_rate(1.9, 0.7, prof, link, link)
        assert a == pytest.approx(b, rel=1e-12)
